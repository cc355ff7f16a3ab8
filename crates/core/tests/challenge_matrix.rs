//! The full submit/challenge strategy matrix: every combination of
//! SubmitStrategy × WatchStrategy × CrashPoint terminates in exactly the
//! expected outcome, and ether is conserved in every cell — including
//! the design's accepted residual risk (`LieStood`). Each game runs
//! alone on a 1-node scheduler with `alice` (the representative) and
//! `bob` (the watcher) seated.

use sc_chain::{PoolConfig, Testnet};
use sc_contracts::challenge::CHALLENGE_DEPLOYED_ADDR_SLOT;
use sc_contracts::BetSecrets;
use sc_core::{
    check_conservation, ChallengeOutcome, ChallengeSession, ChallengeSpec, CrashPoint,
    NetworkScheduler, Session, SessionReport, SessionSpec, SubmitStrategy, WatchStrategy,
};
use sc_primitives::{ether, U256};

fn secrets_bob_wins() -> BetSecrets {
    let mut s = BetSecrets {
        secret_a: U256::from_u64(21),
        secret_b: U256::from_u64(22),
        weight: 16,
    };
    while !s.winner_is_bob() {
        s.secret_a = s.secret_a.wrapping_add(U256::ONE);
    }
    s
}

/// One game run to its end without a protocol error.
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
    let mut sched = NetworkScheduler::new(
        vec![SessionSpec::Challenge(spec)],
        1,
        PoolConfig::default(),
        None,
    );
    let report = sched.run().remove(0);
    assert_eq!(
        report.error, None,
        "cell ({submit:?}, {watch:?}, {crash:?})"
    );
    (sched, report)
}

/// The game's machine after the run.
fn game(sched: &NetworkScheduler) -> &ChallengeSession {
    sched.session(0).expect("a challenge game")
}

fn chain(sched: &NetworkScheduler) -> &Testnet {
    sched.network().node(0)
}

fn run_cell(submit: SubmitStrategy, watch: WatchStrategy, crash: CrashPoint) -> ChallengeOutcome {
    let (sched, _report) = play(submit, watch, crash);
    let game = game(&sched);
    check_conservation(chain(&sched)).unwrap_or_else(|e| {
        panic!("cell ({submit:?}, {watch:?}, {crash:?}): {e}");
    });
    // Every recorded tx has a sender who is one of the two participants.
    for tx in game.txs() {
        assert!(
            tx.sender == game.seats[0].address() || tx.sender == game.seats[1].address(),
            "unknown sender in {:?}",
            tx.label
        );
    }
    game.outcome().expect("terminal outcome")
}

/// Acceptance for the authenticated-state loop: after a disputed game,
/// the `deployedAddr` slot the driver consumed light-client style is
/// provable against the head header's `state_root`, while a forged
/// value or a tampered Merkle path is rejected.
#[test]
fn dispute_winner_slot_proves_against_header_root() {
    let (mut sched, _report) = play(
        SubmitStrategy::False,
        WatchStrategy::Vigilant,
        CrashPoint::None,
    );
    assert_eq!(
        game(&sched).outcome(),
        Some(ChallengeOutcome::ResolvedByChallenge)
    );

    let onchain = game(&sched).onchain;
    let slot = U256::from_u64(CHALLENGE_DEPLOYED_ADDR_SLOT);
    let trusted = chain(&sched).storage_at(onchain, slot);
    assert_ne!(trusted, U256::ZERO, "challenge() recorded deployedAddr");

    let proof = sched.network_mut().node_mut(0).prove_storage(onchain, slot);
    let header_root = chain(&sched).head().state_root;
    assert_eq!(proof.root, header_root, "proof anchors to the sealed head");
    assert_eq!(proof.value, trusted);
    proof.verify(header_root).expect("honest witness verifies");

    // A forged winner address cannot satisfy the commitment…
    let mut forged = proof.clone();
    forged.value = forged.value.wrapping_add(U256::ONE);
    assert!(forged.verify(header_root).is_err());
    // …and neither can a tampered Merkle path.
    let mut cut = proof.clone();
    cut.storage_proof.last_mut().unwrap()[0] ^= 0x01;
    assert!(cut.verify(header_root).is_err());
}

#[test]
fn no_crash_matrix() {
    use ChallengeOutcome::*;
    use SubmitStrategy::*;
    use WatchStrategy::*;
    let expectations = [
        (Truthful, Vigilant, FinalizedUnchallenged),
        (Truthful, Asleep, FinalizedUnchallenged),
        (Truthful, Frivolous, ResolvedByChallenge),
        (False, Vigilant, ResolvedByChallenge),
        // The paper's residual risk: an unwatched lie stands.
        (False, Asleep, LieStood),
        (False, Frivolous, ResolvedByChallenge),
    ];
    for (submit, watch, expected) in expectations {
        let got = run_cell(submit, watch, CrashPoint::None);
        assert_eq!(got, expected, "cell ({submit:?}, {watch:?})");
    }
}

#[test]
fn crash_before_submit_matrix() {
    use ChallengeOutcome::*;
    use SubmitStrategy::*;
    use WatchStrategy::*;
    // The submit strategy is irrelevant — the representative crashed
    // before acting on it. What matters is whether the counterparty
    // escalates (forced resolution) or merely reclaims.
    let expectations = [
        (Truthful, Vigilant, ResolvedByChallenge),
        (Truthful, Asleep, ReclaimedStale),
        (Truthful, Frivolous, ResolvedByChallenge),
        (False, Vigilant, ResolvedByChallenge),
        (False, Asleep, ReclaimedStale),
        (False, Frivolous, ResolvedByChallenge),
    ];
    for (submit, watch, expected) in expectations {
        let got = run_cell(submit, watch, CrashPoint::BeforeSubmit);
        assert_eq!(got, expected, "cell ({submit:?}, {watch:?}, BeforeSubmit)");
    }
}

#[test]
fn crash_after_submit_matrix() {
    use ChallengeOutcome::*;
    use SubmitStrategy::*;
    use WatchStrategy::*;
    // The submission is on-chain before the crash, so the matrix looks
    // like the no-crash one — except the watcher must finalize.
    let expectations = [
        (Truthful, Vigilant, FinalizedUnchallenged),
        (Truthful, Asleep, FinalizedUnchallenged),
        (Truthful, Frivolous, ResolvedByChallenge),
        (False, Vigilant, ResolvedByChallenge),
        (False, Asleep, LieStood),
        (False, Frivolous, ResolvedByChallenge),
    ];
    for (submit, watch, expected) in expectations {
        let got = run_cell(submit, watch, CrashPoint::AfterSubmit);
        assert_eq!(got, expected, "cell ({submit:?}, {watch:?}, AfterSubmit)");
    }
}

#[test]
fn lie_stood_cell_conserves_ether_and_pays_the_liar() {
    // The LieStood cell deserves its own close look: the lie profits,
    // the sleeping honest winner eats the stake — but no wei is created
    // or destroyed, and the honest floor (deposit + gas) still bounds
    // the loss.
    let (sched, _report) = play(
        SubmitStrategy::False,
        WatchStrategy::Asleep,
        CrashPoint::None,
    );
    let (game, chain) = (game(&sched), chain(&sched));
    assert_eq!(game.outcome(), Some(ChallengeOutcome::LieStood));
    check_conservation(chain).unwrap();
    // The liar pocketed Bob's stake…
    assert!(chain.balance_of(game.seats[0].address()) > ether(1000));
    // …and Bob lost at most stake + security deposit (he spent gas only
    // on his own deposit).
    let floor = ether(1000)
        .wrapping_sub(sc_contracts::challenge::stake())
        .wrapping_sub(sc_contracts::challenge::security_deposit());
    let bob_final = chain.balance_of(game.seats[1].address());
    assert!(bob_final >= floor.wrapping_sub(ether(1) / U256::from_u64(100)));
}
