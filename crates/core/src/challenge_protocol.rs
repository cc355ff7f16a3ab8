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
//! This module holds the variant's vocabulary; the event loop is
//! [`ChallengeSession`](crate::session::ChallengeSession), run from a
//! [`ChallengeSpec`](crate::session::ChallengeSpec) like every session.

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
    /// The deploy/sign exchange did not complete before T1 closed in:
    /// the game ended before any deposit.
    AbortedAtSigning,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkScheduler;
    use crate::session::{ChallengeSession, ChallengeSpec, Session, SessionReport, SessionSpec};
    use sc_chain::{PoolConfig, Testnet};
    use sc_contracts::BetSecrets;
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

    /// One game with `alice` (the representative) and `bob` (the
    /// watcher) seated, alone on a 1-node scheduler, run to its end
    /// without a protocol error.
    fn play(
        submit: SubmitStrategy,
        watch: WatchStrategy,
        crash: CrashPoint,
    ) -> (NetworkScheduler, SessionReport) {
        let spec = ChallengeSpec {
            secrets: secrets_bob_wins(),
            submit,
            watch,
            crash,
            seats: Some(["alice", "bob"]),
            ..ChallengeSpec::default()
        };
        let sessions = vec![SessionSpec::Challenge(spec)];
        let mut sched = NetworkScheduler::new(sessions, 1, PoolConfig::default(), None);
        let report = sched.run().remove(0);
        assert_eq!(report.error, None);
        (sched, report)
    }

    fn game(sched: &NetworkScheduler) -> &ChallengeSession {
        sched.session(0).expect("a challenge game")
    }

    fn chain(sched: &NetworkScheduler) -> &Testnet {
        sched.network().node(0)
    }

    #[test]
    fn truthful_submission_finalizes() {
        let (sched, _report) = play(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        );
        let game = game(&sched);
        assert_eq!(
            game.outcome(),
            Some(ChallengeOutcome::FinalizedUnchallenged)
        );
        assert_eq!(game.offchain_bytes_revealed, 0, "privacy preserved");
        assert!(chain(&sched).balance_of(game.seats[1].address()) > ether(1000));
    }

    #[test]
    fn false_submission_caught_by_vigilant_watcher() {
        let (sched, _report) = play(
            SubmitStrategy::False,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        );
        let (game, chain) = (game(&sched), chain(&sched));
        assert_eq!(game.outcome(), Some(ChallengeOutcome::ResolvedByChallenge));
        assert!(
            game.offchain_bytes_revealed > 0,
            "dispute published the code"
        );
        // Bob got pot + both security deposits; the liar lost both.
        assert!(chain.balance_of(game.seats[1].address()) > ether(1001));
        assert!(chain.balance_of(game.seats[0].address()) < ether(999));
    }

    #[test]
    fn false_submission_stands_if_watcher_sleeps() {
        // The design's residual risk, made visible.
        let (sched, _report) = play(
            SubmitStrategy::False,
            WatchStrategy::Asleep,
            CrashPoint::None,
        );
        let game = game(&sched);
        assert_eq!(game.outcome(), Some(ChallengeOutcome::LieStood));
        assert!(
            chain(&sched).balance_of(game.seats[0].address()) > ether(1000),
            "the unwatched lie profits — participants must stay online"
        );
    }

    #[test]
    fn frivolous_challenge_still_resolves_truthfully() {
        let (sched, _report) = play(
            SubmitStrategy::Truthful,
            WatchStrategy::Frivolous,
            CrashPoint::None,
        );
        let game = game(&sched);
        assert_eq!(game.outcome(), Some(ChallengeOutcome::ResolvedByChallenge));
        // Truth still wins: Bob is the true winner even though his
        // challenge was pointless (he burned gas for nothing).
        assert!(chain(&sched).balance_of(game.seats[1].address()) > ether(1000));
    }

    #[test]
    fn unchallenged_path_is_cheaper_than_challenge_path() {
        let (_, quiet) = play(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        );
        let (_, fought) = play(
            SubmitStrategy::False,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        );
        assert!(
            fought.total_gas > quiet.total_gas + 150_000,
            "challenge {} vs quiet {}",
            fought.total_gas,
            quiet.total_gas
        );
    }

    #[test]
    fn crashed_representative_cannot_hold_a_watcher_hostage() {
        let (sched, _report) = play(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::BeforeSubmit,
        );
        let game = game(&sched);
        assert_eq!(game.outcome(), Some(ChallengeOutcome::ResolvedByChallenge));
        // The true winner collected the pot despite the crash.
        assert!(chain(&sched).balance_of(game.seats[1].address()) > ether(1000));
    }

    #[test]
    fn sleeping_parties_reclaim_after_a_silent_representative() {
        let (sched, _report) = play(
            SubmitStrategy::Truthful,
            WatchStrategy::Asleep,
            CrashPoint::BeforeSubmit,
        );
        let (game, chain) = (game(&sched), chain(&sched));
        assert_eq!(game.outcome(), Some(ChallengeOutcome::ReclaimedStale));
        // Both took back exactly their stake + security deposit (gas
        // aside): nobody won, nobody is stuck.
        for a in [game.seats[0].address(), game.seats[1].address()] {
            let bal = chain.balance_of(a);
            assert!(bal > ether(1000).wrapping_sub(ether(1) / U256::from_u64(100)));
            assert!(bal <= ether(1000));
        }
        assert_eq!(chain.balance_of(game.onchain), U256::ZERO);
    }

    #[test]
    fn crash_after_submit_is_finalized_by_the_watcher() {
        let (sched, _report) = play(
            SubmitStrategy::Truthful,
            WatchStrategy::Asleep,
            CrashPoint::AfterSubmit,
        );
        let game = game(&sched);
        let bob_addr = game.seats[1].address();
        assert_eq!(
            game.outcome(),
            Some(ChallengeOutcome::FinalizedUnchallenged)
        );
        // Bob (the finalizer and true winner) collected.
        assert!(chain(&sched).balance_of(bob_addr) > ether(1000));
        let finalize = game.txs().iter().find(|t| t.label == "finalize").unwrap();
        assert_eq!(finalize.sender, bob_addr, "the watcher finalized");
    }
}
