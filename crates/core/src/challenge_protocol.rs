//! Protocol engine for the submit/challenge variant (extension).
//!
//! Implements the paper's stage-3 narrative literally: after T2 a
//! *representative* submits the off-chain result on-chain; a challenge
//! window follows during which the counterparty can contest it with the
//! signed copy; an uncontested result finalizes cheaply, a contested one
//! is recomputed by the miners and the liar's security deposit pays the
//! challenger's costs.
//!
//! The driver tolerates infrastructure faults and a crashing
//! representative: on-chain sends retry transient failures with capped
//! backoff; a challenge that misses its window degrades to the finalize
//! path; and if the representative crashes before submitting, the
//! counterparty escalates after the stale deadline (`T2 + window`) —
//! a watching participant forces the miner-enforced resolution via
//! `challenge()`, a sleeping one at least reclaims their own funds via
//! `reclaimNoSubmission()`.
//!
//! The event loop is [`ChallengeSession`]; [`ChallengeGame`] is the
//! typed single-game front-end: one such machine alone on a 1-node
//! [`NetworkScheduler`]. `with_faults()` builds it, `run_with_crash()`
//! binds the behaviours and drives it to its terminal outcome.

use crate::faults::{ChainFaults, FaultPlan};
use crate::net::NetworkScheduler;
use crate::participant::Participant;
use crate::protocol::{gas_queries, TxRecord};
use crate::session::{ChallengeSession, ChallengeSessionParams};
use sc_chain::Testnet;
use sc_contracts::challenge::ChallengeContracts;
use sc_contracts::BetSecrets;
use sc_primitives::Address;

/// What the representative does at submission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitStrategy {
    /// Submits the true off-chain result.
    Truthful,
    /// Submits the inverted result (hoping the window expires quietly).
    False,
}

/// What the counterparty does during the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchStrategy {
    /// Checks the submission against the off-chain result and challenges
    /// iff it is wrong.
    Vigilant,
    /// Never checks (models an offline participant).
    Asleep,
    /// Challenges even truthful submissions (frivolous).
    Frivolous,
}

/// Whether (and when) the representative crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The representative stays up the whole game.
    None,
    /// Crashes after deposits but before submitting any result — the
    /// counterparty must escalate past the stale deadline.
    BeforeSubmit,
    /// Crashes right after submitting — someone else must finalize.
    AfterSubmit,
}

/// Outcome of a challenge-variant game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChallengeOutcome {
    /// The submission stood and was finalized after the window.
    FinalizedUnchallenged,
    /// A challenge ran; miners enforced the recomputed truth.
    ResolvedByChallenge,
    /// A false submission expired unchallenged — the watcher slept and
    /// the lie stands (the residual risk the paper's design accepts).
    LieStood,
    /// No result was ever submitted; past the stale deadline the
    /// participants took their own stakes back.
    ReclaimedStale,
}

/// Report of one challenge-variant run.
#[derive(Debug, Clone)]
pub struct ChallengeReport {
    /// Every on-chain transaction, in order.
    pub txs: Vec<TxRecord>,
    /// How it ended.
    pub outcome: ChallengeOutcome,
    /// True off-chain result.
    pub winner_is_bob: bool,
    /// Bytes of the off-chain contract published (0 without a challenge).
    pub offchain_bytes_revealed: usize,
}

gas_queries!(ChallengeReport);

/// The challenge-variant game driver: a [`ChallengeSession`] alone on
/// a 1-node network, both participants funded with 1000 ether at
/// genesis. Session state — participants, the deployed address, the
/// signed bytecode, the timeline — is reachable directly through
/// [`std::ops::Deref`].
pub struct ChallengeGame {
    sched: NetworkScheduler,
}

impl std::ops::Deref for ChallengeGame {
    type Target = ChallengeSession;
    fn deref(&self) -> &ChallengeSession {
        self.sched.machine()
    }
}

impl std::ops::DerefMut for ChallengeGame {
    fn deref_mut(&mut self) -> &mut ChallengeSession {
        self.sched.machine_mut()
    }
}

impl ChallengeGame {
    /// A game on a perfect chain. Alice is the representative; Bob
    /// watches.
    pub fn new(secrets: BetSecrets, window: u64) -> ChallengeGame {
        ChallengeGame::with_faults(secrets, window, &FaultPlan::none())
    }

    /// Same game under a seeded fault schedule. Sends retry transient
    /// failures; the fault budgets guarantee deposits land before T1.
    pub fn with_faults(secrets: BetSecrets, window: u64, plan: &FaultPlan) -> ChallengeGame {
        let alice = Participant::honest("alice");
        let bob = Participant::honest("bob");
        let wallets = [alice.wallet.address, bob.wallet.address];
        let session = ChallengeSession::new(ChallengeSessionParams {
            alice,
            bob,
            secrets,
            window,
            contracts: ChallengeContracts::new(),
            start_delay: 0,
            submit: SubmitStrategy::Truthful,
            watch: WatchStrategy::Vigilant,
            crash: CrashPoint::None,
        });
        ChallengeGame {
            sched: NetworkScheduler::solo(Box::new(session), "challenge", plan, wallets),
        }
    }

    /// Runs the submit/challenge flow with the given behaviours and no
    /// crash.
    pub fn run(
        self,
        submit: SubmitStrategy,
        watch: WatchStrategy,
    ) -> (ChallengeGame, ChallengeReport) {
        self.run_with_crash(submit, watch, CrashPoint::None)
    }

    /// Runs the flow (deploy, both deposits, then submission and window)
    /// with the representative possibly crashing at the given point.
    /// Always terminates in a valid [`ChallengeOutcome`]: every send on
    /// these paths is mandatory, so a protocol failure panics
    /// (unreachable under any seeded fault plan's finite budgets).
    pub fn run_with_crash(
        mut self,
        submit: SubmitStrategy,
        watch: WatchStrategy,
        crash: CrashPoint,
    ) -> (ChallengeGame, ChallengeReport) {
        self.set_behaviour(submit, watch, crash);
        self.sched.run();
        if let Some(e) = self.sched.failure() {
            panic!("mandatory challenge-protocol send must land within the fault budget: {e}");
        }
        let report = self.report();
        (self, report)
    }

    /// The game's chain.
    pub fn net(&self) -> &Testnet {
        self.sched.network().node(0)
    }

    /// Mutable access to the game's chain (post-run probing: proofs,
    /// extra transactions).
    pub fn net_mut(&mut self) -> &mut Testnet {
        self.sched.network_mut().node_mut(0)
    }

    /// The chain fault schedule's state (injected-fault log, budgets).
    pub fn chain_faults(&self) -> &ChainFaults {
        self.sched.faults().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_primitives::{ether, U256};

    fn secrets_bob_wins() -> BetSecrets {
        let mut s = BetSecrets {
            secret_a: U256::from_u64(9),
            secret_b: U256::from_u64(10),
            weight: 16,
        };
        while !s.winner_is_bob() {
            s.secret_a = s.secret_a.wrapping_add(U256::ONE);
        }
        s
    }

    #[test]
    fn truthful_submission_finalizes() {
        let game = ChallengeGame::new(secrets_bob_wins(), 1800);
        let bob_addr = game.bob.wallet.address;
        let (game, report) = game.run(SubmitStrategy::Truthful, WatchStrategy::Vigilant);
        assert_eq!(report.outcome, ChallengeOutcome::FinalizedUnchallenged);
        assert_eq!(report.offchain_bytes_revealed, 0, "privacy preserved");
        assert!(game.net().balance_of(bob_addr) > ether(1000));
    }

    #[test]
    fn false_submission_caught_by_vigilant_watcher() {
        let game = ChallengeGame::new(secrets_bob_wins(), 1800);
        let alice_addr = game.alice.wallet.address;
        let bob_addr = game.bob.wallet.address;
        let (game, report) = game.run(SubmitStrategy::False, WatchStrategy::Vigilant);
        assert_eq!(report.outcome, ChallengeOutcome::ResolvedByChallenge);
        assert!(
            report.offchain_bytes_revealed > 0,
            "dispute published the code"
        );
        // Bob got pot + both security deposits; the liar lost both.
        assert!(game.net().balance_of(bob_addr) > ether(1001));
        assert!(game.net().balance_of(alice_addr) < ether(999));
    }

    #[test]
    fn false_submission_stands_if_watcher_sleeps() {
        // The design's residual risk, made visible.
        let game = ChallengeGame::new(secrets_bob_wins(), 1800);
        let alice_addr = game.alice.wallet.address;
        let (game, report) = game.run(SubmitStrategy::False, WatchStrategy::Asleep);
        assert_eq!(report.outcome, ChallengeOutcome::LieStood);
        assert!(
            game.net().balance_of(alice_addr) > ether(1000),
            "the unwatched lie profits — participants must stay online"
        );
    }

    #[test]
    fn frivolous_challenge_still_resolves_truthfully() {
        let game = ChallengeGame::new(secrets_bob_wins(), 1800);
        let bob_addr = game.bob.wallet.address;
        let (game, report) = game.run(SubmitStrategy::Truthful, WatchStrategy::Frivolous);
        assert_eq!(report.outcome, ChallengeOutcome::ResolvedByChallenge);
        // Truth still wins: Bob is the true winner even though his
        // challenge was pointless (he burned gas for nothing).
        assert!(game.net().balance_of(bob_addr) > ether(1000));
    }

    #[test]
    fn unchallenged_path_is_cheaper_than_challenge_path() {
        let (_g1, quiet) = ChallengeGame::new(secrets_bob_wins(), 1800)
            .run(SubmitStrategy::Truthful, WatchStrategy::Vigilant);
        let (_g2, fought) = ChallengeGame::new(secrets_bob_wins(), 1800)
            .run(SubmitStrategy::False, WatchStrategy::Vigilant);
        assert!(
            fought.total_gas() > quiet.total_gas() + 150_000,
            "challenge {} vs quiet {}",
            fought.total_gas(),
            quiet.total_gas()
        );
    }

    #[test]
    fn crashed_representative_cannot_hold_a_watcher_hostage() {
        let game = ChallengeGame::new(secrets_bob_wins(), 1800);
        let bob_addr = game.bob.wallet.address;
        let (game, report) = game.run_with_crash(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::BeforeSubmit,
        );
        assert_eq!(report.outcome, ChallengeOutcome::ResolvedByChallenge);
        // The true winner collected the pot despite the crash.
        assert!(game.net().balance_of(bob_addr) > ether(1000));
    }

    #[test]
    fn sleeping_parties_reclaim_after_a_silent_representative() {
        let game = ChallengeGame::new(secrets_bob_wins(), 1800);
        let alice_addr = game.alice.wallet.address;
        let bob_addr = game.bob.wallet.address;
        let (game, report) = game.run_with_crash(
            SubmitStrategy::Truthful,
            WatchStrategy::Asleep,
            CrashPoint::BeforeSubmit,
        );
        assert_eq!(report.outcome, ChallengeOutcome::ReclaimedStale);
        // Both took back exactly their stake + security deposit (gas
        // aside): nobody won, nobody is stuck.
        for a in [alice_addr, bob_addr] {
            let bal = game.net().balance_of(a);
            assert!(bal > ether(1000).wrapping_sub(ether(1) / U256::from_u64(100)));
            assert!(bal <= ether(1000));
        }
        assert_eq!(game.net().balance_of(game.onchain), U256::ZERO);
    }

    #[test]
    fn crash_after_submit_is_finalized_by_the_watcher() {
        let game = ChallengeGame::new(secrets_bob_wins(), 1800);
        let bob_addr = game.bob.wallet.address;
        let (game, report) = game.run_with_crash(
            SubmitStrategy::Truthful,
            WatchStrategy::Asleep,
            CrashPoint::AfterSubmit,
        );
        assert_eq!(report.outcome, ChallengeOutcome::FinalizedUnchallenged);
        // Bob (the finalizer and true winner) collected.
        assert!(game.net().balance_of(bob_addr) > ether(1000));
        let finalize = report.txs.iter().find(|t| t.label == "finalize").unwrap();
        assert_eq!(finalize.sender, bob_addr, "the watcher finalized");
    }
}
