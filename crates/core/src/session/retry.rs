//! Deadline-driven transaction retry as a pollable task.
//!
//! Try to send, back off exponentially on injected transient failures,
//! give up when the contract window closes or a deterministic rejection
//! arrives. [`TxTask`] is that loop turned inside out — each
//! [`TxTask::poll`] makes at most one submission attempt and reports
//! what the caller should do next, so a scheduler can interleave many
//! sessions' retries instead of blocking on one.

use super::{ChainAccess, SendOutcome};
use crate::faults::MAX_INJECTED_SECS;
use sc_chain::{Receipt, TxError, Wallet};
use sc_primitives::{Address, H256, U256};

/// Most submission attempts per task. Far above any fault budget, so
/// exhaustion implies a deterministic failure, not bad luck.
pub const MAX_ATTEMPTS: u32 = 64;

/// First retry backoff in seconds (doubles, capped at
/// [`MAX_INJECTED_SECS`]).
pub const BACKOFF_BASE_SECS: u64 = 15;

/// What one [`TxTask::poll`] concluded.
#[derive(Debug)]
pub enum TaskPoll {
    /// The transaction was mined; here is its receipt (possibly a
    /// revert — the caller decides what a failure means).
    Landed(Receipt),
    /// The transaction is queued for the next block; poll again after
    /// it is mined.
    Pending,
    /// Back off: poll again once the chain clock reaches this timestamp.
    Wait(u64),
    /// The contract window closed (or attempts ran out) before the
    /// transaction could land.
    DeadlineMissed,
    /// The node rejected the transaction deterministically.
    Rejected(TxError),
}

/// One transaction being pushed toward the chain through faults and
/// deadlines. Create it when a protocol phase needs a send; poll it
/// every step until it resolves.
pub struct TxTask {
    label: &'static str,
    wallet: Wallet,
    to: Option<Address>,
    value: U256,
    data: Vec<u8>,
    gas: u64,
    /// The current gas-price bid: `None` until a fee-market rejection
    /// forces a raise, then the raised price. Each
    /// raise is strictly higher, so re-pricing terminates — either the
    /// transaction out-bids the market or the sender's balance check
    /// turns the rejection deterministic.
    gas_price: Option<U256>,
    deadline: Option<u64>,
    backoff: u64,
    attempts: u32,
    /// Set after an injected mining delay: the fault for this
    /// submission was already drawn, so the resumed attempt must
    /// not roll again (that would double-draw the fault stream).
    skip_fault_roll: bool,
    in_flight: Option<H256>,
}

impl TxTask {
    /// Describes a transaction to be sent. `to: None` deploys `data` as
    /// initcode; `deadline: None` retries without a window.
    pub fn new(
        label: &'static str,
        wallet: Wallet,
        to: Option<Address>,
        value: U256,
        data: Vec<u8>,
        gas: u64,
        deadline: Option<u64>,
    ) -> TxTask {
        TxTask {
            label,
            wallet,
            to,
            value,
            data,
            gas,
            gas_price: None,
            deadline,
            backoff: BACKOFF_BASE_SECS,
            attempts: 0,
            skip_fault_roll: false,
            in_flight: None,
        }
    }

    /// The label this transaction is recorded under.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The sending address.
    pub fn sender(&self) -> Address {
        self.wallet.address
    }

    /// Makes at most one submission attempt (or checks on an in-flight
    /// queued transaction) and reports how to proceed. Generic over the
    /// chain capability, so the same retry machine drives a full-node
    /// port or a light relay.
    pub fn poll(&mut self, chain: &mut (dyn ChainAccess + '_)) -> TaskPoll {
        if let Some(hash) = self.in_flight {
            // Receipt first: on a multi-node chain a transaction can be
            // mined via a *gossiped* block and still show up in the
            // eviction log when the pool prunes its now-stale nonce. A
            // mined transaction is done — a routed rejection for it is a
            // stale price signal, not a failure.
            if let Some(r) = chain.receipt(hash) {
                self.in_flight = None;
                let _ = chain.take_rejection(hash);
                return TaskPoll::Landed(r);
            }
            if let Some(e) = chain.take_rejection(hash) {
                self.in_flight = None;
                // Fee-market rejections are price signals, not protocol
                // failures: raise the bid and resubmit.
                match e {
                    TxError::Underpriced { required } => {
                        return self.reprice(chain, required);
                    }
                    TxError::PoolFull { must_exceed } => {
                        return self.reprice(chain, bumped(must_exceed));
                    }
                    TxError::Evicted => {
                        let current = self.gas_price.unwrap_or_else(|| chain.default_gas_price());
                        return self.reprice(chain, bumped(current));
                    }
                    other => return TaskPoll::Rejected(other),
                }
            }
            if chain.tx_known(hash) {
                return TaskPoll::Pending;
            }
            // The transaction vanished: a reorg orphaned it and the new
            // branch didn't re-include it. Fall through to resubmission
            // against the new canonical chain, still bounded by the
            // deadline and the attempt cap.
            self.in_flight = None;
        }
        if let Some(d) = self.deadline {
            if chain.now() >= d {
                return TaskPoll::DeadlineMissed;
            }
        }
        if self.attempts >= MAX_ATTEMPTS {
            // Unreachable while MAX_ATTEMPTS exceeds every fault budget,
            // but bounded regardless: a task can stall, never hang.
            return TaskPoll::DeadlineMissed;
        }
        self.attempts += 1;
        let roll = !self.skip_fault_roll;
        self.skip_fault_roll = false;
        match chain.submit(
            &self.wallet,
            self.to,
            self.value,
            self.data.clone(),
            self.gas,
            self.gas_price,
            roll,
        ) {
            SendOutcome::Queued(hash) => {
                self.in_flight = Some(hash);
                TaskPoll::Pending
            }
            SendOutcome::Transient => {
                // The injected failure consumed fault budget; wait it out
                // and try again.
                let at = chain.now() + self.backoff;
                self.backoff = (self.backoff * 2).min(MAX_INJECTED_SECS);
                TaskPoll::Wait(at)
            }
            SendOutcome::HeldFor(secs) => {
                // A mining delay holds only this session back; the
                // submission itself is still owed, without a re-roll.
                self.attempts -= 1;
                self.skip_fault_roll = true;
                TaskPoll::Wait(chain.now() + secs)
            }
        }
    }

    /// Raises the bid to `new_price` (never lowering it) and backs off
    /// before resubmitting. Consumes an attempt, so a sender that keeps
    /// losing the fee market stalls deterministically instead of
    /// spinning.
    fn reprice(&mut self, chain: &(dyn ChainAccess + '_), new_price: U256) -> TaskPoll {
        let current = self.gas_price.unwrap_or_else(|| chain.default_gas_price());
        self.gas_price = Some(if new_price > current {
            new_price
        } else {
            current
        });
        let at = chain.now() + self.backoff;
        self.backoff = (self.backoff * 2).min(MAX_INJECTED_SECS);
        TaskPoll::Wait(at)
    }
}

/// A strictly-higher bid: +25% and one wei, so repeated bumps grow
/// geometrically from any starting price (including zero).
fn bumped(price: U256) -> U256 {
    let (q, _) = price
        .wrapping_mul(U256::from_u64(5))
        .div_rem(U256::from_u64(4));
    q.wrapping_add(U256::ONE)
}
