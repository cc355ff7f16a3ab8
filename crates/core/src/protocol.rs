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
//! The event loop itself is [`BettingSession`]: a resumable
//! state machine over the T1–T3 deadlines whose every wait — signature
//! rounds, retry backoff, contract windows — is yielded to the
//! scheduler. [`BettingGame`] is the typed single-game front-end: one
//! such machine alone on a 1-node [`NetworkScheduler`], with the full
//! [`ProtocolReport`] (per-transaction sender and gas) handed back. The
//! same machine shares a network with N other sessions when built from
//! a [`SessionSpec`](crate::session::SessionSpec) instead.

use crate::faults::{ChainFaults, FaultPlan, WhisperFaults};
use crate::net::NetworkScheduler;
use crate::participant::Participant;
use crate::session::{BettingSession, BettingSessionParams};
use crate::whisper::Whisper;
use sc_chain::Testnet;
use sc_contracts::{BetSecrets, OffChainContract, OnChainContract};
use sc_primitives::{Address, U256};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Whisper topic used to exchange signatures.
pub const SIGNATURE_TOPIC: &str = "betting/signed-copy";

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

/// Full record of one protocol run.
#[derive(Debug, Clone)]
pub struct ProtocolReport {
    /// Every on-chain transaction, in order.
    pub txs: Vec<TxRecord>,
    /// The game's outcome.
    pub outcome: Outcome,
    /// True iff the dispute path ran.
    pub dispute: bool,
    /// Result of the off-chain computation (true → Bob wins).
    pub winner_is_bob: bool,
    /// Bytes of off-chain contract code that became publicly visible
    /// on-chain (0 on the honest path; the privacy metric of Fig. 1).
    pub offchain_bytes_revealed: usize,
    /// Off-chain messages exchanged (Whisper traffic).
    pub offchain_messages: usize,
}

/// The gas queries every report type answers from its `txs` field —
/// one definition for [`ProtocolReport`] and
/// [`ChallengeReport`](crate::challenge_protocol::ChallengeReport).
macro_rules! gas_queries {
    ($report:ty) => {
        impl $report {
            /// Total gas across all transactions (miner-executed work).
            pub fn total_gas(&self) -> u64 {
                self.txs.iter().map(|t| t.gas_used).sum()
            }

            /// Gas of the first successful transaction with this label.
            pub fn gas_of(&self, label: &str) -> Option<u64> {
                self.txs
                    .iter()
                    .find(|t| t.label == label && t.success)
                    .map(|t| t.gas_used)
            }

            /// Total gas units sent by one address (successful or not —
            /// failed transactions are paid for too).
            pub fn gas_spent_by(&self, who: Address) -> u64 {
                self.txs
                    .iter()
                    .filter(|t| t.sender == who)
                    .map(|t| t.gas_used)
                    .sum()
            }
        }
    };
}
pub(crate) use gas_queries;

gas_queries!(ProtocolReport);

impl ProtocolReport {
    /// Gas attributable to one stage.
    pub fn stage_gas(&self, stage: Stage) -> u64 {
        self.txs
            .iter()
            .filter(|t| t.stage == stage)
            .map(|t| t.gas_used)
            .sum()
    }
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

/// Configuration of one betting game.
#[derive(Clone, Debug)]
pub struct GameConfig {
    /// Phase length in seconds between T0→T1→T2→T3.
    pub phase_seconds: u64,
    /// The private bet.
    pub secrets: BetSecrets,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            phase_seconds: 3600,
            secrets: BetSecrets {
                secret_a: U256::from_u64(0xa11ce),
                secret_b: U256::from_u64(0xb0b),
                weight: 64,
            },
        }
    }
}

/// The protocol engine for one two-party betting game: a
/// [`BettingSession`] alone on a 1-node network, both participants
/// funded with 1000 ether at genesis. Session state — participants,
/// timeline, the deployed address, the agreed bytecode — is reachable
/// directly through [`Deref`].
pub struct BettingGame {
    sched: NetworkScheduler,
}

impl Deref for BettingGame {
    type Target = BettingSession;
    fn deref(&self) -> &BettingSession {
        self.sched.machine()
    }
}

impl DerefMut for BettingGame {
    fn deref_mut(&mut self) -> &mut BettingSession {
        self.sched.machine_mut()
    }
}

impl BettingGame {
    /// Stage 1 — split/generate on a perfect network: sets up the
    /// chain, compiles both contracts and builds the off-chain initcode.
    pub fn new(alice: Participant, bob: Participant, config: GameConfig) -> BettingGame {
        BettingGame::with_faults(alice, bob, config, &FaultPlan::none())
    }

    /// Stage 1 under a fault schedule: same setup, but every whisper
    /// message and chain submission passes through the seeded fault
    /// injectors.
    pub fn with_faults(
        alice: Participant,
        bob: Participant,
        config: GameConfig,
        plan: &FaultPlan,
    ) -> BettingGame {
        let wallets = [alice.wallet.address, bob.wallet.address];
        let session = BettingSession::new(BettingSessionParams {
            alice,
            bob,
            config,
            topic: SIGNATURE_TOPIC.into(),
            contracts: (OnChainContract::new(), OffChainContract::new()),
            start_delay: 0,
        });
        BettingGame {
            sched: NetworkScheduler::solo(Box::new(session), "betting", plan, wallets),
        }
    }

    /// Runs the complete game and produces the report.
    pub fn run(mut self) -> Result<(BettingGame, ProtocolReport), ProtocolError> {
        self.sched.run();
        if let Some(e) = self.sched.failure() {
            return Err(e.clone());
        }
        let report = self.report(self.whisper().history(SIGNATURE_TOPIC).len());
        Ok((self, report))
    }

    /// The game's chain.
    pub fn net(&self) -> &Testnet {
        self.sched.network().node(0)
    }

    /// Mutable access to the game's chain (post-run probing: extra
    /// wallets, hostile calls).
    pub fn net_mut(&mut self) -> &mut Testnet {
        self.sched.network_mut().node_mut(0)
    }

    /// The off-chain message bus.
    pub fn whisper(&self) -> &Whisper {
        self.sched.network().bus()
    }

    /// The chain fault schedule's state (injected-fault log, budgets).
    pub fn chain_faults(&self) -> &ChainFaults {
        self.sched.faults().0
    }

    /// The whisper fault schedule's state (injected-fault log, budgets).
    pub fn whisper_faults(&self) -> &WhisperFaults {
        self.sched.faults().1
    }
}
