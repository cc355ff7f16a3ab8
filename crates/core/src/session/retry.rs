//! The one send path: deadline-driven transaction retry as a pollable
//! task, and the log that owns it.
//!
//! Try to send, back off exponentially on injected transient failures,
//! give up when the contract window closes or a deterministic rejection
//! arrives. [`TxTask`] is that loop turned inside out — each poll makes
//! at most one submission attempt and reports what the caller should do
//! next, so a scheduler can interleave many sessions' retries instead
//! of blocking on one.
//!
//! [`TxLog`] is what every session machine holds: the one transaction
//! in flight plus the [`TxRecord`] of each one that landed. A phase
//! builds its [`TxTask`] only while the log is [idle](TxLog::idle),
//! [polls](TxLog::poll), and routes on the four-way [`Sent`]; recording
//! (label and sender from the task, stage from the label) happens
//! here, once.

use super::{stage_bucket, ChainAccess, SendOutcome, StepOutcome};
use crate::faults::MAX_INJECTED_SECS;
use crate::protocol::{ProtocolError, Stage, TxRecord};
use sc_chain::{Receipt, TxError, Wallet};
use sc_primitives::{Address, H256, U256};

/// Most submission attempts per task. Far above any fault budget, so
/// exhaustion implies a deterministic failure, not bad luck.
pub const MAX_ATTEMPTS: u32 = 64;

/// First retry backoff in seconds (doubles, capped at
/// [`MAX_INJECTED_SECS`]).
pub const BACKOFF_BASE_SECS: u64 = 15;

/// What one [`TxLog::poll`] concluded. Every variant but
/// [`Sent::Hold`] leaves the log idle again.
#[derive(Debug)]
pub enum Sent {
    /// Mined and recorded; here is the receipt (possibly a revert — the
    /// phase decides what a failure means).
    Landed(Receipt),
    /// Still in flight: yield this outcome to the scheduler and poll
    /// again when it steps the session next.
    Hold(StepOutcome),
    /// The contract window closed (or attempts ran out) before the
    /// transaction could land. Nothing was recorded.
    Missed,
    /// The node rejected the transaction deterministically. Nothing was
    /// recorded.
    Rejected(TxError),
}

/// One transaction being pushed toward the chain through faults and
/// deadlines. Create it when a protocol phase needs a send and hand it
/// to the session's [`TxLog`], which polls it every step until it
/// resolves.
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

    /// Makes at most one submission attempt (or checks on an in-flight
    /// queued transaction) and reports how to proceed. Generic over the
    /// chain capability, so the same retry machine drives a full-node
    /// port or a light relay.
    fn poll(&mut self, chain: &mut (dyn ChainAccess + '_)) -> Sent {
        if let Some(hash) = self.in_flight {
            // Receipt first: on a multi-node chain a transaction can be
            // mined via a *gossiped* block and still show up in the
            // eviction log when the pool prunes its now-stale nonce. A
            // mined transaction is done — a routed rejection for it is a
            // stale price signal, not a failure.
            if let Some(r) = chain.receipt(hash) {
                self.in_flight = None;
                let _ = chain.take_rejection(hash);
                return Sent::Landed(r);
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
                    other => return Sent::Rejected(other),
                }
            }
            if chain.tx_known(hash) {
                return Sent::Hold(StepOutcome::Pending);
            }
            // The transaction vanished: a reorg orphaned it and the new
            // branch didn't re-include it. Fall through to resubmission
            // against the new canonical chain, still bounded by the
            // deadline and the attempt cap.
            self.in_flight = None;
        }
        if let Some(d) = self.deadline {
            if chain.now() >= d {
                return Sent::Missed;
            }
        }
        if self.attempts >= MAX_ATTEMPTS {
            // Unreachable while MAX_ATTEMPTS exceeds every fault budget,
            // but bounded regardless: a task can stall, never hang.
            return Sent::Missed;
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
                Sent::Hold(StepOutcome::Pending)
            }
            SendOutcome::Transient => {
                // The injected failure consumed fault budget; wait it out
                // and try again.
                let at = chain.now() + self.backoff;
                self.backoff = (self.backoff * 2).min(MAX_INJECTED_SECS);
                Sent::Hold(StepOutcome::WaitUntil(at))
            }
            SendOutcome::HeldFor(secs) => {
                // A mining delay holds only this session back; the
                // submission itself is still owed, without a re-roll.
                self.attempts -= 1;
                self.skip_fault_roll = true;
                Sent::Hold(StepOutcome::WaitUntil(chain.now() + secs))
            }
        }
    }

    /// Raises the bid to `new_price` (never lowering it) and backs off
    /// before resubmitting. Consumes an attempt, so a sender that keeps
    /// losing the fee market stalls deterministically instead of
    /// spinning.
    fn reprice(&mut self, chain: &(dyn ChainAccess + '_), new_price: U256) -> Sent {
        let current = self.gas_price.unwrap_or_else(|| chain.default_gas_price());
        self.gas_price = Some(if new_price > current {
            new_price
        } else {
            current
        });
        let at = chain.now() + self.backoff;
        self.backoff = (self.backoff * 2).min(MAX_INJECTED_SECS);
        Sent::Hold(StepOutcome::WaitUntil(at))
    }
}

/// The transaction a session has in flight and the record of those that
/// landed — the send/record half every protocol phase shares.
#[derive(Default)]
pub struct TxLog {
    task: Option<TxTask>,
    txs: Vec<TxRecord>,
}

impl TxLog {
    /// True while nothing is in flight — the only time a phase may
    /// build its transaction, so calldata (signed copies, commitments,
    /// range proofs) is computed once per send, not once per poll.
    pub fn idle(&self) -> bool {
        self.task.is_none()
    }

    /// Puts `task` in flight. The log must be [idle](TxLog::idle).
    pub fn start(&mut self, task: TxTask) {
        assert!(self.idle(), "one transaction in flight at a time");
        self.task = Some(task);
    }

    /// Every transaction that landed, in order.
    pub fn txs(&self) -> &[TxRecord] {
        &self.txs
    }

    /// Polls the transaction in flight. A landed receipt is recorded
    /// under the task's label and sender, in the stage its label
    /// belongs to ([`stage_bucket`]).
    pub fn poll(&mut self, chain: &mut (dyn ChainAccess + '_)) -> Sent {
        let task = self.task.as_mut().expect("a transaction in flight");
        let sent = task.poll(chain);
        match &sent {
            Sent::Hold(_) => return sent,
            Sent::Landed(r) => self.txs.push(TxRecord {
                stage: match stage_bucket(task.label) {
                    0 => Stage::DeploySign,
                    1 | 2 => Stage::SubmitChallenge,
                    _ => Stage::DisputeResolve,
                },
                label: task.label.to_string(),
                sender: task.wallet.address,
                gas_used: r.gas_used,
                success: r.success,
            }),
            Sent::Missed | Sent::Rejected(_) => {}
        }
        self.task = None;
        sent
    }

    /// [`TxLog::poll`] for a send the protocol cannot continue without:
    /// `Ok(Ok(receipt))` once it landed *and* succeeded, `Ok(Err(hold))`
    /// while it is in flight; a revert, a missed window or a rejection
    /// is the [`ProtocolError`] that fails the session.
    pub fn poll_must(
        &mut self,
        chain: &mut (dyn ChainAccess + '_),
    ) -> Result<Result<Receipt, StepOutcome>, ProtocolError> {
        let label = self.task.as_ref().expect("a transaction in flight").label;
        match self.poll(chain) {
            Sent::Landed(r) if r.success => Ok(Ok(r)),
            Sent::Landed(_) | Sent::Missed => Err(ProtocolError::TxFailed(label.into())),
            Sent::Hold(hold) => Ok(Err(hold)),
            Sent::Rejected(e) => Err(ProtocolError::TxFailed(format!("{label}: {e}"))),
        }
    }

    /// [`TxLog::poll_must`] for a phase with nothing to read off the
    /// receipt: once the send landed, moves `phase` to `next`.
    pub(crate) fn land_then<P>(
        &mut self,
        chain: &mut (dyn ChainAccess + '_),
        phase: &mut P,
        next: P,
    ) -> Result<StepOutcome, ProtocolError> {
        Ok(match self.poll_must(chain)? {
            Ok(_) => {
                *phase = next;
                StepOutcome::Progress
            }
            Err(hold) => hold,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ChainReader, TxSubmitter};
    use sc_chain::ProofVerifyError;
    use std::collections::{HashMap, HashSet, VecDeque};

    const DEFAULT_PRICE: u64 = 10;

    /// A scripted chain. Submissions answer from `faults` while it has
    /// entries and are queued under a fresh hash otherwise; receipts,
    /// rejections and the set of hashes the chain still knows are
    /// tables the test edits between polls, and the clock is a field.
    #[derive(Default)]
    struct Script {
        now: u64,
        faults: VecDeque<SendOutcome>,
        /// `(gas_price, roll_fault)` of every submission, in order.
        submitted: Vec<(Option<U256>, bool)>,
        queued: Vec<H256>,
        known: HashSet<H256>,
        receipts: HashMap<H256, Receipt>,
        rejections: HashMap<H256, TxError>,
    }

    impl Script {
        /// The hash of the latest queued submission.
        fn last(&self) -> H256 {
            *self.queued.last().expect("something was queued")
        }

        fn mine(&mut self, hash: H256, success: bool, gas_used: u64) {
            self.receipts.insert(
                hash,
                Receipt {
                    tx_hash: hash,
                    block_number: 1,
                    tx_index: 0,
                    success,
                    gas_used,
                    contract_address: None,
                    logs: Vec::new(),
                    output: Vec::new(),
                    failure: None,
                },
            );
        }
    }

    impl ChainReader for Script {
        fn now(&self) -> u64 {
            self.now
        }
        fn block_timestamp(&self, _number: u64) -> u64 {
            self.now
        }
        fn verified_storage_at(&mut self, _a: Address, _k: U256) -> Result<U256, ProofVerifyError> {
            Ok(U256::ZERO)
        }
        fn receipt(&mut self, hash: H256) -> Option<Receipt> {
            self.receipts.get(&hash).cloned()
        }
        fn tx_known(&self, hash: H256) -> bool {
            self.known.contains(&hash)
        }
    }

    impl TxSubmitter for Script {
        fn submit(
            &mut self,
            _wallet: &Wallet,
            _to: Option<Address>,
            _value: U256,
            _data: Vec<u8>,
            _gas_limit: u64,
            gas_price: Option<U256>,
            roll_fault: bool,
        ) -> SendOutcome {
            self.submitted.push((gas_price, roll_fault));
            self.faults.pop_front().unwrap_or_else(|| {
                let hash = H256([self.queued.len() as u8 + 1; 32]);
                self.queued.push(hash);
                self.known.insert(hash);
                SendOutcome::Queued(hash)
            })
        }
        fn take_rejection(&mut self, hash: H256) -> Option<TxError> {
            self.rejections.remove(&hash)
        }
        fn default_gas_price(&self) -> U256 {
            U256::from_u64(DEFAULT_PRICE)
        }
    }

    fn task(label: &'static str, deadline: Option<u64>) -> TxTask {
        let to = Some(Address([7; 20]));
        let wallet = Wallet::from_seed("retry-test");
        TxTask::new(
            label,
            wallet,
            to,
            U256::ZERO,
            vec![1, 2, 3],
            100_000,
            deadline,
        )
    }

    /// A log with `label` queued on `chain` (one poll made).
    fn in_flight(chain: &mut Script, label: &'static str, deadline: Option<u64>) -> TxLog {
        let mut log = TxLog::default();
        log.start(task(label, deadline));
        assert!(matches!(log.poll(chain), Sent::Hold(StepOutcome::Pending)));
        log
    }

    #[test]
    fn a_landed_receipt_is_recorded_once_and_clears_the_slot() {
        let sender = Wallet::from_seed("retry-test").address;
        let mut chain = Script::default();
        for (label, success, stage) in [
            ("deploy onChain", true, Stage::DeploySign),
            ("deposit", true, Stage::SubmitChallenge),
            ("finalize", true, Stage::SubmitChallenge),
            ("challenge", false, Stage::DisputeResolve),
        ] {
            let mut log = in_flight(&mut chain, label, None);
            assert!(!log.idle() && log.txs().is_empty());
            chain.mine(chain.last(), success, 21_000);
            assert!(matches!(log.poll(&mut chain), Sent::Landed(r) if r.success == success));
            assert!(log.idle(), "{label}: the slot is free for the next phase");
            let [tx] = log.txs() else {
                panic!("{label}: recorded {:?}", log.txs())
            };
            assert_eq!((tx.label.as_str(), tx.sender), (label, sender));
            assert_eq!(
                (tx.stage, tx.gas_used, tx.success),
                (stage, 21_000, success)
            );
        }
    }

    #[test]
    fn holds_record_nothing_and_keep_the_slot() {
        let mut chain = Script {
            now: 1_000,
            faults: [SendOutcome::Transient, SendOutcome::Transient].into(),
            ..Script::default()
        };
        let mut log = TxLog::default();
        log.start(task("deposit", None));
        // Two injected transients back off 15 s, then 30 s; the third
        // attempt queues and stays pending while the chain knows it.
        for wait in [1_015, 1_030] {
            assert!(
                matches!(log.poll(&mut chain), Sent::Hold(StepOutcome::WaitUntil(t)) if t == wait)
            );
        }
        for _ in 0..3 {
            assert!(matches!(
                log.poll(&mut chain),
                Sent::Hold(StepOutcome::Pending)
            ));
        }
        assert_eq!(
            chain.submitted.len(),
            3,
            "a known transaction is not resent"
        );
        assert!(!log.idle() && log.txs().is_empty());
    }

    #[test]
    fn a_held_submission_resumes_without_a_new_attempt_or_fault_roll() {
        let mut chain = Script {
            now: 500,
            faults: [SendOutcome::HeldFor(40)].into(),
            ..Script::default()
        };
        let mut log = TxLog::default();
        log.start(task("deposit", None));
        assert!(matches!(
            log.poll(&mut chain),
            Sent::Hold(StepOutcome::WaitUntil(540))
        ));
        assert_eq!(
            log.task.as_ref().unwrap().attempts,
            0,
            "a hold is not an attempt"
        );
        assert!(matches!(
            log.poll(&mut chain),
            Sent::Hold(StepOutcome::Pending)
        ));
        assert_eq!(log.task.as_ref().unwrap().attempts, 1);
        // The held submission's fault was drawn once: rolled on the first
        // submit, not on the resumed one.
        assert_eq!(chain.submitted, [(None, true), (None, false)]);
    }

    #[test]
    fn fee_market_rejections_rebid_strictly_higher_and_never_lower() {
        let mut chain = Script::default();
        let mut log = in_flight(&mut chain, "deposit", None);
        let rejections = [
            TxError::Underpriced {
                required: U256::from_u64(25),
            },
            TxError::PoolFull {
                must_exceed: U256::from_u64(40),
            },
            TxError::Evicted,
            // A stale, lower price signal must not lower the bid.
            TxError::Underpriced {
                required: U256::from_u64(5),
            },
        ];
        for rejection in rejections {
            chain.rejections.insert(chain.last(), rejection);
            assert!(matches!(
                log.poll(&mut chain),
                Sent::Hold(StepOutcome::WaitUntil(_))
            ));
            assert!(matches!(
                log.poll(&mut chain),
                Sent::Hold(StepOutcome::Pending)
            ));
        }
        let bids: Vec<u64> = chain
            .submitted
            .iter()
            .map(|(price, _)| price.map_or(DEFAULT_PRICE, |p| p.low_u64()))
            .collect();
        // default, the required price, must_exceed + 25% + 1, own bid + 25% + 1, unchanged.
        assert_eq!(bids, [10, 25, 51, 64, 64]);
        assert!(!log.idle() && log.txs().is_empty());
    }

    #[test]
    fn a_vanished_transaction_is_resubmitted() {
        let mut chain = Script::default();
        let mut log = in_flight(&mut chain, "deposit", None);
        // A reorg orphaned it: no receipt, no rejection, not pooled.
        let orphan = chain.last();
        chain.known.remove(&orphan);
        assert!(matches!(
            log.poll(&mut chain),
            Sent::Hold(StepOutcome::Pending)
        ));
        assert_eq!(chain.submitted.len(), 2);
        assert_ne!(chain.last(), orphan);
        chain.mine(chain.last(), true, 30_000);
        assert!(matches!(log.poll(&mut chain), Sent::Landed(_)));
        assert_eq!(log.txs().len(), 1);
    }

    #[test]
    fn a_closed_window_is_missed_and_unrecorded() {
        // Closed before the first attempt: nothing is even submitted.
        let mut chain = Script {
            now: 100,
            ..Script::default()
        };
        let mut log = TxLog::default();
        log.start(task("reassign", Some(100)));
        assert!(matches!(log.poll(&mut chain), Sent::Missed));
        assert!(chain.submitted.is_empty());
        assert!(log.idle() && log.txs().is_empty());

        // Closed while an orphaned transaction waited for resubmission.
        let mut chain = Script::default();
        let mut log = in_flight(&mut chain, "reassign", Some(100));
        chain.known.clear();
        chain.now = 100;
        assert!(matches!(log.poll(&mut chain), Sent::Missed));
        assert_eq!(chain.submitted.len(), 1);
        assert!(log.idle() && log.txs().is_empty());
    }

    #[test]
    fn a_must_land_send_fails_the_session_on_revert_miss_and_rejection() {
        let failed = |what: &str| Err(ProtocolError::TxFailed(what.into()));

        let mut chain = Script::default();
        let mut log = in_flight(&mut chain, "settle", Some(100));
        assert_eq!(log.poll_must(&mut chain), Ok(Err(StepOutcome::Pending)));
        chain.mine(chain.last(), true, 50_000);
        assert!(matches!(log.poll_must(&mut chain), Ok(Ok(r)) if r.gas_used == 50_000));

        // A revert is paid for, so it is recorded — and fails the session.
        let mut log = in_flight(&mut chain, "settle", Some(100));
        chain.mine(chain.last(), false, 40_000);
        assert_eq!(log.poll_must(&mut chain), failed("settle"));
        assert!(matches!(log.txs(), [tx] if !tx.success && tx.gas_used == 40_000));

        let mut log = in_flight(&mut chain, "settle", Some(100));
        chain.known.clear();
        chain.now = 100;
        assert_eq!(log.poll_must(&mut chain), failed("settle"));
        assert!(log.txs().is_empty());

        let mut log = in_flight(&mut chain, "settle", None);
        chain
            .rejections
            .insert(chain.last(), TxError::InsufficientFunds);
        assert_eq!(
            log.poll_must(&mut chain),
            failed("settle: insufficient funds for gas * price + value")
        );
        assert!(log.txs().is_empty());
    }
}
