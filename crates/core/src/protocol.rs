//! The four-stage hybrid on/off-chain protocol engine (Fig. 2).
//!
//! Drives a complete betting game between two participants on the chain
//! simulator:
//!
//! 1. **Split/generate** — compile the on/off-chain pair; build the
//!    off-chain initcode with the private bet baked in.
//! 2. **Deploy/sign** — deploy the on-chain contract; exchange
//!    signatures over `keccak256(offchain bytecode)` via Whisper; each
//!    honest participant verifies the full signed copy *before* any
//!    deposit (Byzantine signers are caught here and the game aborts).
//! 3. **Submit/challenge** — deposits; off-chain evaluation of
//!    `reveal()`; the honest loser concedes via `reassign()`.
//! 4. **Dispute/resolve** — if the loser stalls past T3, the winner
//!    submits the signed copy to `deployVerifiedInstance`, the verified
//!    instance is CREATEd on-chain, and `returnDisputeResolution` makes
//!    miners recompute `reveal()` and enforce the transfer.
//!
//! The event loop itself is
//! [`BettingSession`](crate::session::BettingSession): a resumable
//! state machine over the T1–T3 deadlines whose every wait — signature
//! rounds, retry backoff, contract windows — is yielded to the
//! [`NetworkScheduler`](crate::net::NetworkScheduler) it runs on, built
//! from a [`BettingSpec`](crate::session::BettingSpec) alone or among N
//! other sessions. This module holds the protocol's vocabulary: stages,
//! outcomes, errors and the per-transaction record every session keeps.

use sc_primitives::Address;
use std::fmt;

/// Protocol stages (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Classify functions, generate the pair, build off-chain initcode.
    SplitGenerate,
    /// Deploy the on-chain contract; exchange and verify signed copies.
    DeploySign,
    /// Deposits, off-chain execution, voluntary settlement.
    SubmitChallenge,
    /// Signed-copy submission and miner-enforced resolution.
    DisputeResolve,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::SplitGenerate => "split/generate",
            Stage::DeploySign => "deploy/sign",
            Stage::SubmitChallenge => "submit/challenge",
            Stage::DisputeResolve => "dispute/resolve",
        };
        write!(f, "{s}")
    }
}

/// One on-chain transaction made by the protocol.
#[derive(Debug, Clone)]
pub struct TxRecord {
    /// Stage it belongs to.
    pub stage: Stage,
    /// What it was (e.g. `"deployVerifiedInstance"`).
    pub label: String,
    /// Who sent it.
    pub sender: Address,
    /// Gas charged.
    pub gas_used: u64,
    /// Whether it succeeded.
    pub success: bool,
}

/// How the game ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Aborted during deploy/sign (bad or missing signatures); no funds
    /// were ever at risk.
    AbortedAtSigning,
    /// Dissolved via refunds (a participant never deposited).
    Refunded,
    /// The loser conceded; settled without revealing anything.
    SettledHonestly,
    /// Settled through the dispute/resolve stage.
    SettledByDispute,
}

/// Gas of the first successful transaction with this label.
pub fn gas_of(txs: &[TxRecord], label: &str) -> Option<u64> {
    txs.iter()
        .find(|t| t.label == label && t.success)
        .map(|t| t.gas_used)
}

/// Gas attributable to one stage.
pub fn stage_gas(txs: &[TxRecord], stage: Stage) -> u64 {
    txs.iter()
        .filter(|t| t.stage == stage)
        .map(|t| t.gas_used)
        .sum()
}

/// Protocol-level failures (distinct from failed-but-expected txs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A transaction that must succeed was rejected or reverted.
    TxFailed(String),
    /// The verified instance address was not recorded on-chain.
    NoVerifiedInstance,
    /// A state read could not be authenticated against the chain's
    /// `state_root` commitment (bad Merkle proof or value mismatch).
    StateUnverified(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::TxFailed(l) => write!(f, "required transaction failed: {l}"),
            ProtocolError::NoVerifiedInstance => write!(f, "deployedAddr not set"),
            ProtocolError::StateUnverified(l) => {
                write!(f, "state read failed Merkle verification: {l}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}
