//! The session engine: protocol drivers as resumable state machines.
//!
//! Each protocol variant ([`betting`], [`challenge`], [`settle_later`])
//! is a state machine that makes *one bounded unit of progress per
//! [`Session::step`] call* and yields whenever it must wait for the
//! clock or for a block. The machinery they share lives here: the one
//! send path ([`retry`] — deadline-driven retry with capped backoff
//! inside a [`TxLog`] that also records what landed, so a phase only
//! decides *what* to send and what each [`Sent`] result means), the
//! signature re-post/verify exchange ([`sign`]), and the chain-access
//! boundary — [`ChainReader`] + [`TxSubmitter`], implemented by the
//! full-node [`NodePort`] and the stateless [`light::LightPort`].
//!
//! Yielding is what makes multi-tenancy possible: a
//! [`NetworkScheduler`](crate::net::NetworkScheduler) interleaves N
//! heterogeneous sessions (each under its own
//! [`FaultPlan`](crate::faults::FaultPlan) and whisper topic namespace)
//! over a [`Network`](crate::net::Network) of one or more nodes,
//! batching every session's pending transactions into shared blocks.
//! [`spec`] holds the session specifications the scheduler is built
//! from and the report it hands back.

pub mod betting;
pub mod challenge;
pub mod light;
pub mod retry;
pub mod settle_later;
pub mod sign;
pub mod spec;

pub use betting::BettingSession;
pub use challenge::ChallengeSession;
pub use light::{LightPort, LightStats};
pub use retry::{Sent, TxLog, TxTask, BACKOFF_BASE_SECS, MAX_ATTEMPTS};
pub use settle_later::{SettleLaterCrash, SettleLaterOutcome, SettleLaterSession, SettleLaterSpec};
pub use sign::{SignExchange, MAX_SIGN_ROUNDS, SIGN_ROUND_SECS};
pub use spec::{BettingSpec, ChallengeSpec, SessionReport, SessionSpec};

use crate::faults::{ChainFaults, PoolFault, SubmitFault, WhisperFaults};
use crate::protocol::{ProtocolError, TxRecord};
use crate::whisper::{Envelope, Whisper};
use sc_chain::{
    ProofVerifyError, Receipt, SignedTransaction, Testnet, Transaction, TxError, Wallet,
};
use sc_primitives::{Address, H256, U256};
use std::any::Any;
use std::collections::HashMap;

/// What one [`Session::step`] call achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The machine advanced and can be stepped again immediately.
    Progress,
    /// A transaction was queued for the next block; step again after
    /// the block is mined.
    Pending,
    /// Nothing to do until the chain clock reaches this timestamp.
    WaitUntil(u64),
    /// The session reached a terminal outcome.
    Done,
}

/// Result of one [`TxSubmitter::submit`] attempt.
pub enum SendOutcome {
    /// The transaction joined the round's outbox; poll
    /// [`ChainReader::receipt`] after the next block.
    Queued(H256),
    /// An injected transient failure ate the submission; back off and
    /// retry.
    Transient,
    /// An injected mining or admission delay: retry after this many
    /// seconds *without* a new fault roll. The delay is a session-local
    /// wait, so one session's bad luck never moves the shared clock.
    HeldFor(u64),
}

/// The read half of the chain-access boundary: everything a session
/// needs to *observe* the chain. A full-node port answers from its own
/// state; a [`light::LightPort`] answers only what it can check against
/// a tracked header — which is why the mutating `&mut self` receivers
/// exist even for reads (a light reader fetches and verifies witnesses,
/// and may pull missing headers, on the way to an answer).
pub trait ChainReader {
    /// The timestamp the next block will carry.
    fn now(&self) -> u64;

    /// Timestamp of the block a receipt landed in (head's timestamp if
    /// the number is somehow unknown, which cannot happen for a mined
    /// receipt).
    fn block_timestamp(&self, number: u64) -> u64;

    /// The one storage read: the value is only returned after a Merkle
    /// proof for the slot checked out against the head header's
    /// `state_root` commitment.
    fn verified_storage_at(&mut self, a: Address, key: U256) -> Result<U256, ProofVerifyError>;

    /// Receipt of a previously queued transaction, once mined on the
    /// canonical chain. A reorg that orphans the transaction makes the
    /// receipt disappear again; a light port additionally refuses
    /// receipts it cannot prove included under a tracked header.
    fn receipt(&mut self, hash: H256) -> Option<Receipt>;

    /// True while the chain still knows about a queued transaction:
    /// mined (receipt), pooled (awaiting a block), or queued in this
    /// round's outbox. `false` means a reorg orphaned it *and* the new
    /// branch didn't re-include it — the task must resubmit.
    fn tx_known(&self, hash: H256) -> bool;
}

/// The write half of the chain-access boundary: submitting transactions
/// and observing their admission fate. Sessions never mint: every
/// participant is funded at genesis, because an out-of-band mint on one
/// node would desynchronize replay verification of its blocks on every
/// other node.
pub trait TxSubmitter {
    /// Submits one transaction through the session's fault schedule.
    /// `gas_price: None` bids the chain's default; tasks re-pricing
    /// after a fee-market rejection pass their raised bid. `roll_fault`
    /// is false when resuming after [`SendOutcome::HeldFor`] (that
    /// submission's fault was already drawn).
    #[allow(clippy::too_many_arguments)] // mirrors the Transaction fields
    fn submit(
        &mut self,
        wallet: &Wallet,
        to: Option<Address>,
        value: U256,
        data: Vec<u8>,
        gas_limit: u64,
        gas_price: Option<U256>,
        roll_fault: bool,
    ) -> SendOutcome;

    /// Takes the admission error routed back for a queued transaction,
    /// if its batch flush rejected it.
    fn take_rejection(&mut self, hash: H256) -> Option<TxError>;

    /// The gas price the chain's convenience senders assume — the
    /// starting bid for fee-market re-pricing.
    fn default_gas_price(&self) -> U256;
}

/// The full capability set a session steps against: reads + submission.
/// Blanket-implemented, so any `ChainReader + TxSubmitter` — a
/// [`NodePort`] or a [`light::LightPort`] — is a `dyn ChainAccess`
/// without further ceremony.
pub trait ChainAccess: ChainReader + TxSubmitter {}

impl<T: ChainReader + TxSubmitter + ?Sized> ChainAccess for T {}

/// Draws one submission's chain fault, then its pool fault (separate
/// streams and budgets). `Some` is the outcome that ends the attempt
/// before anything is signed.
pub(crate) fn roll_submit_faults(faults: &mut ChainFaults) -> Option<SendOutcome> {
    match faults.pre_submit() {
        SubmitFault::None => {}
        SubmitFault::Transient(_) => return Some(SendOutcome::Transient),
        SubmitFault::MiningDelay(secs) => return Some(SendOutcome::HeldFor(secs)),
    }
    match faults.pre_pool() {
        PoolFault::None => None,
        PoolFault::DroppedGossip => Some(SendOutcome::Transient),
        PoolFault::DelayedAdmission(secs) => Some(SendOutcome::HeldFor(secs)),
    }
}

/// One transaction in a round's outbox, tagged with its sender (so
/// nonce assignment for the wallet's next transaction in the same round
/// does not need to re-recover signers) and its hash (computed once
/// when signed; [`ChainReader::tx_known`] and the scheduler's flush
/// reuse it).
#[derive(Clone)]
pub struct QueuedTx {
    /// The signer.
    pub from: Address,
    /// `tx.hash()`.
    pub hash: H256,
    /// The signed transaction.
    pub tx: SignedTransaction,
}

/// Self-signs one transaction and queues it into the round's outbox.
/// `nonce` is the sender's next nonce as the chain sees it; this
/// wallet's queued-but-unflushed transactions are counted on top.
#[allow(clippy::too_many_arguments)] // mirrors the Transaction fields
pub(crate) fn sign_and_queue(
    outbox: &mut Vec<QueuedTx>,
    wallet: &Wallet,
    nonce: u64,
    gas_price: U256,
    gas_limit: u64,
    to: Option<Address>,
    value: U256,
    data: Vec<u8>,
) -> SendOutcome {
    let queued = outbox.iter().filter(|q| q.from == wallet.address).count() as u64;
    let tx = Transaction {
        nonce: nonce + queued,
        gas_price,
        gas_limit,
        to,
        value,
        data,
    };
    let signed = tx.sign(&wallet.key);
    let hash = signed.hash();
    outbox.push(QueuedTx {
        from: wallet.address,
        hash,
        tx: signed,
    });
    SendOutcome::Queued(hash)
}

/// Full-node chain access: the session is homed on one node of a
/// [`Network`](crate::net::Network) and trusts that node's state.
/// Submissions are self-signed against the mempool-aware nonce and
/// queued into the node's round outbox; the scheduler flushes every
/// session's queue into one `submit_batch` call. The home chain's head
/// can *move backwards* when a heavier fork arrives, so verified reads
/// re-prove against whatever the current head commits, and
/// [`ChainReader::tx_known`] lets a task detect that its queued
/// transaction was orphaned by a reorg (no receipt, no longer pooled)
/// and resubmit instead of waiting forever.
pub struct NodePort<'a> {
    /// The home node's chain.
    pub net: &'a mut Testnet,
    /// This session's chain fault schedule.
    pub faults: &'a mut ChainFaults,
    /// The round's per-node transaction queue.
    pub outbox: &'a mut Vec<QueuedTx>,
    /// Admission errors from the last flush, routed back by tx hash.
    pub rejections: &'a mut HashMap<H256, TxError>,
}

impl ChainReader for NodePort<'_> {
    fn now(&self) -> u64 {
        self.net.now()
    }

    fn block_timestamp(&self, number: u64) -> u64 {
        self.net
            .block(number)
            .map_or_else(|| self.net.head().timestamp, |b| b.timestamp)
    }

    /// Fetches a Merkle proof for the slot and checks it against the
    /// **head header's** `state_root` — exactly what a stateless light
    /// client does — instead of trusting the node's storage map. Live
    /// state the head does not commit (an unsealed mint, say) fails to
    /// verify rather than being anchored to the root the proof itself
    /// claims. The proof is fetched *fresh* on every call, which is
    /// what makes reads reorg-safe: after a rollback-and-replay it
    /// re-proves against exactly what the current head commits.
    fn verified_storage_at(&mut self, a: Address, key: U256) -> Result<U256, ProofVerifyError> {
        let proof = self.net.prove_storage(a, key);
        proof.verify(self.net.head().state_root)?;
        Ok(proof.value)
    }

    fn receipt(&mut self, hash: H256) -> Option<Receipt> {
        self.net.receipt(hash).cloned()
    }

    fn tx_known(&self, hash: H256) -> bool {
        self.net.receipt(hash).is_some()
            || self.net.tx_is_pending(hash)
            || self.outbox.iter().any(|q| q.hash == hash)
    }
}

impl TxSubmitter for NodePort<'_> {
    fn submit(
        &mut self,
        wallet: &Wallet,
        to: Option<Address>,
        value: U256,
        data: Vec<u8>,
        gas_limit: u64,
        gas_price: Option<U256>,
        roll_fault: bool,
    ) -> SendOutcome {
        if roll_fault {
            if let Some(held) = roll_submit_faults(self.faults) {
                return held;
            }
        }
        sign_and_queue(
            self.outbox,
            wallet,
            self.net.effective_nonce(wallet.address),
            gas_price.unwrap_or(self.net.config().default_gas_price),
            gas_limit,
            to,
            value,
            data,
        )
    }

    fn take_rejection(&mut self, hash: H256) -> Option<TxError> {
        self.rejections.remove(&hash)
    }

    fn default_gas_price(&self) -> U256 {
        self.net.config().default_gas_price
    }
}

/// How a session reaches the off-chain message bus: the shared bus,
/// through the session's own fault schedule.
pub struct BusPort<'a> {
    /// The shared bus.
    pub bus: &'a mut Whisper,
    /// This session's whisper fault schedule.
    pub faults: &'a mut WhisperFaults,
}

impl BusPort<'_> {
    /// Publishes through the session's fault schedule.
    pub fn post(&mut self, from: Address, topic: &str, payload: Vec<u8>) {
        self.faults.post(self.bus, from, topic, payload);
    }

    /// Polls unseen messages through the session's fault schedule.
    pub fn poll(&mut self, reader: Address, topic: &str) -> Vec<Envelope> {
        self.faults.poll(self.bus, reader, topic)
    }
}

/// Everything a session may touch during one step.
///
/// The chain is a capability object, not a concrete port: sessions are
/// generic over *how* they reach the chain (a [`NodePort`] or a
/// stateless [`light::LightPort`]) and can only do what [`ChainReader`]
/// + [`TxSubmitter`] allow.
pub struct SessionCtx<'a> {
    /// The chain, behind whichever capability stack homes this session.
    pub chain: &'a mut (dyn ChainAccess + 'a),
    /// The message bus, through this session's fault schedule.
    pub bus: BusPort<'a>,
}

/// A protocol session the scheduler can drive to completion. `Any`, so
/// [`NetworkScheduler::session`](crate::net::NetworkScheduler::session)
/// can hand a caller its typed machine back out of the scheduler's boxed
/// slot. What a session did on-chain is read
/// off [`Session::txs`]; the scheduler derives a report's gas totals,
/// stage breakdown and `(label, success)` trace from it.
pub trait Session: Any {
    /// Makes one bounded unit of progress.
    fn step(&mut self, ctx: &mut SessionCtx<'_>) -> Result<StepOutcome, ProtocolError>;

    /// Short human label for the terminal outcome (`None` until done).
    fn outcome_label(&self) -> Option<&'static str>;

    /// Every on-chain transaction this session landed, in order (its
    /// [`TxLog`]'s record).
    fn txs(&self) -> &[TxRecord];

    /// Off-chain messages this session attempted to post (pre-fault).
    fn messages_posted(&self) -> usize;
}

/// The `Start` phase every machine shares: pins the start time
/// `start_delay` seconds after the first step and holds the session
/// (`Some(wait)`) until the chain clock `now` reaches it.
pub(crate) fn hold_for_start(
    start_at: &mut Option<u64>,
    start_delay: u64,
    now: u64,
) -> Option<StepOutcome> {
    let start = *start_at.get_or_insert(now + start_delay);
    (now < start).then_some(StepOutcome::WaitUntil(start))
}

/// Declared gas limit for the dispute-resolution call. Its execution
/// cost grows linearly with the reveal weight (~290 gas per unit
/// measured), so the estimate scales the same way with headroom rather
/// than declaring the whole block — the packer budgets blocks by
/// *declared* gas, so honest estimates are what let disputes
/// share blocks. Capped at the default block gas limit so the
/// transaction stays admissible at any weight.
pub(crate) fn dispute_gas_limit(weight: u64) -> u64 {
    150_000_u64
        .saturating_add(weight.saturating_mul(350))
        .min(8_000_000)
}

/// The address the miner-enforced resolution instance was deployed to,
/// as the on-chain contract's `deployedAddr` slot stores it — read
/// *light-client style*: verified against the head header's
/// `state_root` rather than trusted from the node's storage map.
pub(crate) fn deployed_instance(
    chain: &mut (dyn ChainAccess + '_),
    onchain: Address,
    slot: u64,
) -> Result<Address, ProtocolError> {
    chain
        .verified_storage_at(onchain, U256::from_u64(slot))
        .map(Address::from_u256)
        .map_err(|e| ProtocolError::StateUnverified(format!("deployedAddr: {e}")))
}

/// Names of the four stage-gas buckets, index-aligned with
/// [`stage_bucket`] and [`SessionReport::stage_gas`].
pub const STAGE_NAMES: [&str; 4] = ["deploy", "deposit", "submit", "dispute"];

/// Buckets a transaction label into the four-stage gas breakdown the
/// benches report: initial on-chain deployment, deposits, voluntary
/// settlement (result submission, refunds, reassignment, finalize),
/// and the dispute path (challenges, verified-instance deployment,
/// miner-enforced resolution).
pub fn stage_bucket(label: &str) -> usize {
    if label.starts_with("deploy on") {
        0
    } else if label.starts_with("deposit") || label == "activate" {
        1
    } else if matches!(
        label,
        "submitResult"
            | "reassign"
            | "refundRoundOne"
            | "refundRoundTwo"
            | "finalize"
            | "reclaimNoSubmission"
            | "settle"
            | "withdraw"
            | "reclaim"
    ) {
        2
    } else {
        // "challenge", "returnDisputeResolution", "deployVerifiedInstance"
        // (honest or forged) and anything unclassified: the dispute path.
        3
    }
}
