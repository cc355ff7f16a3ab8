//! What a scheduler run is built from and what it hands back: one
//! [`SessionSpec`] per session going in, one [`SessionReport`] per
//! session coming out.
//!
//! Determinism: wallets derive from the spec's seats or, by default,
//! the slot id (`SessionSpec::wallets`), each spec carries its own
//! fault seed, and contracts are compiled once per variant and cloned
//! into each session — two runs from identical specs build identical
//! machines.

use super::{BettingSession, ChallengeSession, Session, SettleLaterSession, SettleLaterSpec};
use crate::challenge_protocol::{CrashPoint, SubmitStrategy, WatchStrategy};
use crate::seat::Strategy;
use sc_chain::Wallet;
use sc_contracts::challenge::ChallengeContracts;
use sc_contracts::confidential::ConfidentialContracts;
use sc_contracts::{BetSecrets, OffChainContract, OnChainContract};
use sc_primitives::U256;

/// The private bet a spec carries unless it sets its own.
const DEFAULT_SECRETS: BetSecrets = BetSecrets {
    secret_a: U256::from_u64(0xa11ce),
    secret_b: U256::from_u64(0xb0b),
    weight: 64,
};

/// Specification of one betting-variant session.
#[derive(Debug, Clone)]
pub struct BettingSpec {
    /// Participant 0's strategy.
    pub alice: Strategy,
    /// Participant 1's strategy.
    pub bob: Strategy,
    /// The private bet.
    pub secrets: BetSecrets,
    /// Seconds between T0→T1→T2→T3.
    pub phase_seconds: u64,
    /// `Some(seed)` injects that deterministic fault schedule.
    pub fault_seed: Option<u64>,
    /// Seconds after scheduler start before this session begins.
    pub start_delay: u64,
    /// Wallet seeds of participants 0 and 1; `None` seats the slot's
    /// own `s{id}-alice` / `s{id}-bob`.
    pub seats: Option<[&'static str; 2]>,
}

impl Default for BettingSpec {
    fn default() -> Self {
        BettingSpec {
            alice: Strategy::Honest,
            bob: Strategy::Honest,
            secrets: DEFAULT_SECRETS,
            phase_seconds: 3600,
            fault_seed: None,
            start_delay: 0,
            seats: None,
        }
    }
}

/// Specification of one challenge-variant session.
#[derive(Debug, Clone)]
pub struct ChallengeSpec {
    /// The private bet.
    pub secrets: BetSecrets,
    /// Challenge window in seconds.
    pub window: u64,
    /// What the representative submits.
    pub submit: SubmitStrategy,
    /// What the watcher does during the window.
    pub watch: WatchStrategy,
    /// Whether (and when) the representative crashes.
    pub crash: CrashPoint,
    /// `Some(seed)` injects that deterministic fault schedule.
    pub fault_seed: Option<u64>,
    /// Seconds after scheduler start before this session begins.
    pub start_delay: u64,
    /// Wallet seeds of the representative and the watcher; `None` seats
    /// the slot's own `s{id}-alice` / `s{id}-bob`.
    pub seats: Option<[&'static str; 2]>,
}

impl Default for ChallengeSpec {
    fn default() -> Self {
        ChallengeSpec {
            secrets: DEFAULT_SECRETS,
            window: 1800,
            submit: SubmitStrategy::Truthful,
            watch: WatchStrategy::Vigilant,
            crash: CrashPoint::None,
            fault_seed: None,
            start_delay: 0,
            seats: None,
        }
    }
}

/// One session to multiplex: which protocol variant, with which knobs.
#[derive(Debug, Clone)]
pub enum SessionSpec {
    /// A four-stage betting game.
    Betting(BettingSpec),
    /// A submit/challenge game.
    Challenge(ChallengeSpec),
    /// A confidential channel settled later by voucher.
    SettleLater(SettleLaterSpec),
}

impl SessionSpec {
    /// The two wallets the session in slot `id` plays with: its spec's
    /// seats, else the slot's own. The one derivation both genesis
    /// funding and the session's participants come from.
    pub(crate) fn wallets(&self, id: usize) -> [Wallet; 2] {
        let seats = match self {
            SessionSpec::Betting(s) => s.seats,
            SessionSpec::Challenge(s) => s.seats,
            SessionSpec::SettleLater(_) => None,
        };
        match seats {
            Some(seeds) => seeds.map(Wallet::from_seed),
            None => ["alice", "bob"].map(|p| Wallet::from_seed(&format!("s{id}-{p}"))),
        }
    }
}

/// Terminal record of one multiplexed session. `PartialEq` because the
/// light-session acceptance test compares whole reports bit-for-bit
/// against a full-node run under the same seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Slot index (also the wallet-seed and topic namespace).
    pub id: usize,
    /// `"betting"`, `"challenge"` or `"settle-later"`.
    pub kind: &'static str,
    /// Outcome label, `None` if the session failed.
    pub outcome: Option<&'static str>,
    /// Protocol error, for failed sessions.
    pub error: Option<String>,
    /// Gas charged across every transaction the session sent.
    pub total_gas: u64,
    /// Gas per protocol stage `[deploy, deposit, submit, dispute]`
    /// (see [`super::stage_bucket`]); sums to `total_gas`.
    pub stage_gas: [u64; 4],
    /// `(label, success)` of every on-chain transaction, in order.
    pub txs: Vec<(String, bool)>,
    /// Off-chain messages the session attempted to post.
    pub messages_posted: usize,
}

/// Compiled contracts shared across sessions of one run (compiled once
/// per variant, cloned into each session that needs them).
#[derive(Default)]
pub(crate) struct ContractCache {
    betting: Option<(OnChainContract, OffChainContract)>,
    challenge: Option<ChallengeContracts>,
    confidential: Option<ConfidentialContracts>,
}

/// Builds one session state machine from its spec.
///
/// `wallets` are the ones [`SessionSpec::wallets`] derived for its slot
/// (funded at genesis); `topic` namespaces the session's off-chain
/// traffic on the shared bus.
///
/// Returns the boxed machine, its kind label, and the fault seed.
pub(crate) fn build_session(
    spec: SessionSpec,
    wallets: [Wallet; 2],
    topic: String,
    contracts: &mut ContractCache,
) -> (Box<dyn Session>, &'static str, Option<u64>) {
    match spec {
        SessionSpec::Betting(s) => {
            let pair = contracts
                .betting
                .get_or_insert_with(|| (OnChainContract::new(), OffChainContract::new()));
            let seed = s.fault_seed;
            let session = BettingSession::new(s, wallets, topic, pair.clone());
            (Box::new(session), "betting", seed)
        }
        SessionSpec::Challenge(s) => {
            let pair = contracts
                .challenge
                .get_or_insert_with(ChallengeContracts::new);
            let seed = s.fault_seed;
            let session = ChallengeSession::new(s, wallets, topic, pair.clone());
            (Box::new(session), "challenge", seed)
        }
        SessionSpec::SettleLater(s) => {
            let contract = contracts
                .confidential
                .get_or_insert_with(ConfidentialContracts::new);
            let seed = s.fault_seed;
            let session = SettleLaterSession::new(s, wallets, topic, contract.clone());
            (Box::new(session), "settle-later", seed)
        }
    }
}
