//! Light-client session suite: the same protocol sessions, run without
//! a full node.
//!
//! The acceptance property of the light-session refactor is
//! **observational equivalence**: a mixed betting / challenge /
//! settle-later scheduler run in which *every* session lives on a
//! [`LightPort`] — headers pulled from the relay, every read
//! witness-verified against the head `state_root`, inclusion confirmed against
//! `receipts_root` — must produce session reports **bit-identical** to
//! the same specs on full-node ports under the same seed, on a quiet
//! network and under pinned chaos seeds alike. Statelessness costs
//! witness bytes, never behaviour.
//!
//! On top of equivalence the suite checks the reorg contract (a forced
//! partition heals through fork choice on the header clients and the
//! sessions re-prove/resubmit across it), per-seed determinism of the
//! light mode itself, and that the witness counters actually move.

use sc_chain::PoolConfig;
use sc_core::{
    check_conservation, check_state_commitments, BettingSpec, ChallengeSpec, NetworkScheduler,
    SessionReport, SessionSpec, SettleLaterSpec, Strategy, SubmitStrategy, WatchStrategy,
};

const NODES: usize = 3;

/// Mixed session load: an honest bet, a byzantine bet, a truthful and a
/// false-submission challenge, and a settle-later channel — two slots
/// carrying their own seeded chain/whisper fault schedules.
fn mixed_specs(seed: u64) -> Vec<SessionSpec> {
    vec![
        SessionSpec::Betting(BettingSpec::default()),
        SessionSpec::Betting(BettingSpec {
            alice: Strategy::SilentLoser,
            fault_seed: Some(seed ^ 0x1),
            start_delay: 600,
            ..BettingSpec::default()
        }),
        SessionSpec::Challenge(ChallengeSpec::default()),
        SessionSpec::Challenge(ChallengeSpec {
            submit: SubmitStrategy::False,
            watch: WatchStrategy::Vigilant,
            fault_seed: Some(seed ^ 0x2),
            start_delay: 1200,
            ..ChallengeSpec::default()
        }),
        SessionSpec::SettleLater(SettleLaterSpec {
            start_delay: 300,
            ..SettleLaterSpec::default()
        }),
    ]
}

fn assert_all_settled(reports: &[SessionReport]) {
    for r in reports {
        assert!(
            r.outcome.is_some(),
            "session {} ({}) failed: {:?}",
            r.id,
            r.kind,
            r.error
        );
    }
}

/// Full run of the mixed load in one mode; returns the reports.
fn run_mode(seed: Option<u64>, light: bool) -> Vec<SessionReport> {
    let specs = mixed_specs(seed.unwrap_or(0));
    let mut sched = if light {
        NetworkScheduler::new_light(specs, NODES, PoolConfig::default(), seed)
    } else {
        NetworkScheduler::new(specs, NODES, PoolConfig::default(), seed)
    };
    let reports = sched.run();
    let net = sched.network();
    assert!(net.converged(), "heads diverged: {:?}", net.heads());
    for i in 0..net.len() {
        check_conservation(net.node(i)).unwrap();
        check_state_commitments(net.node(i)).unwrap();
    }
    if light {
        let stats = sched.light_stats();
        assert!(stats.proofs_verified > 0, "no witness was ever verified");
        assert!(stats.receipts_verified > 0, "no inclusion was ever proven");
        assert!(stats.witness_bytes > 0);
        if seed.is_none() {
            // Witness traffic is a pure function of the protocol's read
            // pattern: a rise means reads got heavier or proofs fatter.
            // 15,373 bytes over the five sessions, 3,075 per session.
            assert_eq!(stats.witness_bytes, 15_373, "quiet-run witness bytes");
        }
    }
    reports
}

#[test]
fn light_run_is_bit_identical_to_full_node_run_on_a_quiet_network() {
    let full = run_mode(None, false);
    let light = run_mode(None, true);
    assert_all_settled(&full);
    assert_eq!(full, light, "light reports diverged from full-node reports");
}

#[test]
#[ignore = "widest sweep of the suite; run in release by the CI light-client step"]
fn light_run_is_bit_identical_to_full_node_run_under_chaos_seeds() {
    // Chaos seeds draw link faults *and* per-session chain, whisper and
    // light faults. Light faults are liveness-only by construction, so
    // even with them firing the reports must not move.
    for seed in [0x5EED_C0FF_EE15_600Du64, 0xD157_EDBE_EF00] {
        let full = run_mode(Some(seed), false);
        let light = run_mode(Some(seed), true);
        assert_eq!(
            full, light,
            "light reports diverged from full-node reports under seed {seed:#x}"
        );
    }
}

#[test]
fn light_runs_are_bit_identical_per_seed() {
    let a = run_mode(Some(0x11A5_7EED), true);
    let b = run_mode(Some(0x11A5_7EED), true);
    assert_eq!(a, b);
}

#[test]
fn light_sessions_survive_a_forced_partition_and_reorg() {
    // A partition forced before the run forks the chain under the
    // sessions; healing reorgs both the full nodes and — through the
    // header pull on its next read — every light client. Sessions must
    // re-prove and resubmit across the reorg and still settle cleanly.
    let mut sched = NetworkScheduler::new_light(mixed_specs(0), 4, PoolConfig::default(), None);
    sched.network_mut().force_partition(vec![0, 1], 6);
    let reports = sched.run();
    assert_all_settled(&reports);
    let net = sched.network();
    assert!(net.converged(), "heads diverged: {:?}", net.heads());
    assert!(net.stats().reorgs > 0, "partition healed without a reorg");
    for i in 0..net.len() {
        check_conservation(net.node(i)).unwrap();
        check_state_commitments(net.node(i)).unwrap();
    }
    // The reorged run must still be behaviourally equal to a full-node
    // run under the identical forced partition.
    let mut full = NetworkScheduler::new(mixed_specs(0), 4, PoolConfig::default(), None);
    full.network_mut().force_partition(vec![0, 1], 6);
    let full_reports = full.run();
    assert_eq!(full_reports, reports);
}

#[test]
fn witness_traffic_is_attributed_per_session() {
    let mut sched = NetworkScheduler::new_light(mixed_specs(0), NODES, PoolConfig::default(), None);
    let reports = sched.run();
    assert_all_settled(&reports);
    let per_session = sched.light_stats_by_session();
    assert_eq!(per_session.len(), reports.len());
    // Every session did at least some verified reading or receipt
    // confirmation — nobody rode for free on another slot's client.
    for (i, s) in per_session.iter().enumerate() {
        assert!(
            s.proofs_verified + s.receipts_verified > 0,
            "session {i} verified nothing"
        );
        assert!(s.witness_bytes > 0, "session {i} downloaded no witnesses");
    }
    let total = sched.light_stats();
    assert_eq!(
        total.witness_bytes,
        per_session.iter().map(|s| s.witness_bytes).sum::<u64>()
    );
}
