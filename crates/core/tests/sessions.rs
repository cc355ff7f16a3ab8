//! Session-engine suite: N heterogeneous sessions multiplexed over one
//! node must behave exactly like the same sessions run alone.
//!
//! Properties:
//!
//! * **Interleaving is invisible** — a session's outcome and observable
//!   transaction trace are the same whether it shares the chain with
//!   arbitrary other sessions or runs solo (proptest over random mixes).
//! * **Determinism** — identical spec lists (fault seeds included)
//!   produce bit-identical reports, stats and chain heads.
//! * **Conservation** — a shared chain carrying mixed honest/Byzantine
//!   sessions under seeded fault schedules still conserves ether
//!   globally, and every session terminates in a valid outcome.
//! * **Batching is real** — at 256 concurrent sessions the mean number
//!   of admitted transactions per shared block exceeds 1.
//!
//! There is one way to run a session, alone or not: a spec list on a
//! scheduler. A single game is a 1-spec list, so "solo" below means
//! exactly what every single-game caller runs.

use proptest::collection::vec;
use proptest::prelude::*;
use sc_chain::{PoolConfig, Testnet};
use sc_contracts::BetSecrets;
use sc_core::{
    check_conservation, check_state_commitments, BettingSpec, ChallengeSpec, CrashPoint,
    NetworkScheduler, SessionReport, SessionSpec, SettleLaterCrash, SettleLaterSpec, Strategy,
    SubmitStrategy, WatchStrategy,
};
use sc_crypto::keccak256;
use sc_primitives::U256;

/// The single-node scheduler every test here runs on.
fn one_node(specs: Vec<SessionSpec>) -> NetworkScheduler {
    NetworkScheduler::new(specs, 1, PoolConfig::default(), None)
}

fn chain(sched: &NetworkScheduler) -> &Testnet {
    sched.network().node(0)
}

/// Non-empty canonical blocks and the transactions in them.
fn block_counts(node: &Testnet) -> (u64, u64) {
    (1..=node.head().number)
        .filter_map(|n| node.block(n))
        .filter(|b| !b.transactions.is_empty())
        .fold((0, 0), |(blocks, txs), b| {
            (blocks + 1, txs + b.transactions.len() as u64)
        })
}

fn secrets_bob_wins() -> BetSecrets {
    let mut s = BetSecrets {
        secret_a: U256::from_u64(41),
        secret_b: U256::from_u64(42),
        weight: 16,
    };
    while !s.winner_is_bob() {
        s.secret_a = s.secret_a.wrapping_add(U256::ONE);
    }
    s
}

/// The 10 behavioural cells random mixes draw from: every betting
/// strategy pair the chaos matrix exercises plus representative
/// challenge cells (honest, lying, sleeping, crashed).
fn spec_cell(code: u8, fault_seed: Option<u64>, start_delay: u64) -> SessionSpec {
    let secrets = secrets_bob_wins();
    let betting = |alice, bob| {
        SessionSpec::Betting(BettingSpec {
            alice,
            bob,
            secrets,
            fault_seed,
            start_delay,
            ..BettingSpec::default()
        })
    };
    let challenge = |submit, watch, crash| {
        SessionSpec::Challenge(ChallengeSpec {
            secrets,
            submit,
            watch,
            crash,
            fault_seed,
            start_delay,
            ..ChallengeSpec::default()
        })
    };
    match code % 10 {
        0 => betting(Strategy::Honest, Strategy::Honest),
        1 => betting(Strategy::SilentLoser, Strategy::Honest),
        2 => betting(Strategy::ForgingLoser, Strategy::Honest),
        3 => betting(Strategy::Honest, Strategy::NoShow),
        4 => betting(Strategy::Honest, Strategy::RefusesToSign),
        5 => betting(Strategy::SignsTampered, Strategy::Honest),
        6 => challenge(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        ),
        7 => challenge(
            SubmitStrategy::False,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        ),
        8 => challenge(
            SubmitStrategy::False,
            WatchStrategy::Asleep,
            CrashPoint::None,
        ),
        _ => challenge(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::BeforeSubmit,
        ),
    }
}

/// The parts of a report that must not depend on who else shared the
/// chain: kind, outcome, error, `(label, success)` trace, messages —
/// not gas (wallets derive from the slot id, so gas varies benignly).
type Observable = (
    String,
    Option<String>,
    Option<String>,
    Vec<(String, bool)>,
    usize,
);

fn observable(r: &SessionReport) -> Observable {
    (
        r.kind.to_string(),
        r.outcome.map(str::to_string),
        r.error.clone(),
        r.txs.clone(),
        r.messages_posted,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any random mix of sessions, interleaved over one shared chain,
    /// ends outcome-for-outcome and trace-for-trace the same as each
    /// session run on its own scheduler. (Fault-free: injected faults
    /// are drawn against session-local submission sequences, so their
    /// *schedules* are only comparable within one mode.)
    #[test]
    fn interleaved_matches_sequential_outcomes(
        cells in vec((0u8..10, 0u64..180), 2..5)
    ) {
        let specs: Vec<SessionSpec> = cells
            .iter()
            .map(|&(code, delay)| spec_cell(code, None, delay))
            .collect();

        let interleaved = one_node(specs.clone()).run();

        for (i, spec) in specs.into_iter().enumerate() {
            let solo = one_node(vec![spec]).run();
            prop_assert_eq!(
                observable(&interleaved[i]),
                observable(&solo[0]),
                "session {} diverged between interleaved and solo runs",
                i
            );
        }
    }
}

/// Identical specs (fault seeds included) ⇒ bit-identical scheduler
/// runs: reports, chain head, block/tx counts. This is what makes a
/// multi-session failure reproducible from its spec list alone.
#[test]
fn scheduler_runs_are_deterministic() {
    let specs: Vec<SessionSpec> = (0..8u8)
        .map(|i| spec_cell(i, Some(0xC0FFEE ^ u64::from(i)), u64::from(i) * 37))
        .collect();

    let run = || {
        let mut sched = one_node(specs.clone());
        let reports: Vec<_> = sched.run().iter().map(observable).collect();
        (
            reports,
            chain(&sched).head().hash,
            block_counts(chain(&sched)),
        )
    };
    assert_eq!(run(), run(), "scheduler run not deterministic");
}

/// Mixed honest/Byzantine sessions under seeded fault schedules on one
/// shared chain: every session terminates in a valid outcome and the
/// chain conserves ether globally (Σ balances == minted supply).
#[test]
fn shared_chain_conserves_ether_under_mixed_byzantine_load() {
    let specs: Vec<SessionSpec> = (0..12u8)
        .map(|i| {
            let seed = (i % 3 != 0).then_some(0x5EED_0000_u64 + u64::from(i));
            spec_cell(i, seed, u64::from(i) * 61)
        })
        .collect();

    let mut sched = one_node(specs);
    let reports = sched.run();

    for r in &reports {
        assert!(
            r.error.is_none(),
            "session {} ({}) failed: {:?}",
            r.id,
            r.kind,
            r.error
        );
        assert!(r.outcome.is_some(), "session {} has no outcome", r.id);
    }
    check_conservation(chain(&sched)).unwrap();
    check_state_commitments(chain(&sched)).unwrap();
}

/// The scale target: 256 concurrent mixed sessions over one shared
/// chain, with real block sharing (mean admitted txs per block > 1).
/// Run in release by the CI session smoke:
/// `cargo test --release -p sc-core --test sessions -- --ignored`.
#[test]
#[ignore = "256-session scale run; run in release by the CI session smoke"]
fn sessions_share_blocks_at_scale_256() {
    let specs: Vec<SessionSpec> = (0..256u16)
        .map(|i| {
            let code = (i % 10) as u8;
            let seed = (i % 4 == 0).then_some(0xAB5_0000_u64 + u64::from(i));
            // Staggered starts spread load; 40 distinct offsets still
            // leave ~6 sessions per offset contending for each block.
            spec_cell(code, seed, u64::from(i % 40) * 30)
        })
        .collect();

    let mut sched = one_node(specs);
    let reports = sched.run();
    let (blocks, txs) = block_counts(chain(&sched));

    assert_eq!(reports.len(), 256);
    for r in &reports {
        assert!(
            r.error.is_none() && r.outcome.is_some(),
            "session {} ({}): outcome {:?}, error {:?}",
            r.id,
            r.kind,
            r.outcome,
            r.error
        );
    }
    check_conservation(chain(&sched)).unwrap();
    check_state_commitments(chain(&sched)).unwrap();
    assert!(
        txs > blocks,
        "sessions did not share blocks: {txs} txs over {blocks} blocks"
    );
    // Sanity: the mix genuinely hits every outcome family.
    let outcomes: std::collections::BTreeSet<_> =
        reports.iter().filter_map(|r| r.outcome).collect();
    assert!(outcomes.len() >= 5, "outcome mix too narrow: {outcomes:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any random mix of sessions (fault seeds included) run twice
    /// produces bit-identical reports, chain heads and pool statistics.
    /// The fee market adds ordering and eviction decisions, but never a
    /// source of nondeterminism.
    #[test]
    fn random_mixes_run_twice_identically(
        cells in vec((0u8..10, 0u64..180, 0u8..2), 2..6)
    ) {
        let specs: Vec<SessionSpec> = cells
            .iter()
            .enumerate()
            .map(|(i, &(code, delay, faulty))| {
                let seed = (faulty == 1).then_some(0xD00_0000_u64 + i as u64);
                spec_cell(code, seed, delay)
            })
            .collect();

        let run = || {
            let mut sched = one_node(specs.clone());
            let reports: Vec<_> = sched.run().iter().map(observable).collect();
            (
                reports,
                chain(&sched).head().hash,
                block_counts(chain(&sched)),
                sched.pool_evicted(),
            )
        };
        prop_assert_eq!(run(), run(), "scheduler run not deterministic");
    }
}

/// N = 16 with a quarter of the sessions fault-seeded: every session
/// terminates validly, its stage gas sums to its total gas, the chain
/// conserves ether and re-verifies its commitments, and the sessions
/// share blocks.
#[test]
fn sixteen_sessions_settle_conserve_and_account_stage_gas() {
    let specs: Vec<SessionSpec> = (0..16u8)
        .map(|i| {
            let seed = (i % 4 == 0).then_some(0xF00D_0000_u64 + u64::from(i));
            spec_cell(i % 10, seed, u64::from(i % 2) * 30)
        })
        .collect();

    let mut sched = one_node(specs);
    let reports = sched.run();

    for r in &reports {
        assert!(
            r.error.is_none() && r.outcome.is_some(),
            "session {} ({}): outcome {:?}, error {:?}",
            r.id,
            r.kind,
            r.outcome,
            r.error
        );
        let staged: u64 = r.stage_gas.iter().sum();
        assert_eq!(staged, r.total_gas, "stage gas must sum to total gas");
    }
    check_conservation(chain(&sched)).unwrap();
    check_state_commitments(chain(&sched)).unwrap();
    let (blocks, txs) = block_counts(chain(&sched));
    assert!(
        txs > blocks,
        "16 sessions must share blocks: {txs} txs over {blocks} blocks"
    );
}

/// Clock-jump regression: when one session sleeps toward a *far* wake
/// target (a huge start delay) while another runs on a *tight* phase
/// schedule, the scheduler's idle jump must stop at the nearer
/// deadline. An overshoot would blow the tight session past its
/// contract windows (deposits after T1 bounce, refunds replace
/// settlement), which would surface as a diverged trace vs its solo
/// run.
#[test]
fn clock_jump_never_overshoots_a_nearer_deadline() {
    let tight = SessionSpec::Betting(BettingSpec {
        secrets: secrets_bob_wins(),
        phase_seconds: 120,
        ..BettingSpec::default()
    });
    let distant = SessionSpec::Betting(BettingSpec {
        secrets: secrets_bob_wins(),
        start_delay: 50_000,
        ..BettingSpec::default()
    });
    let specs = vec![tight.clone(), distant.clone()];

    let solo_tight = one_node(vec![tight]).run();
    let solo_distant = one_node(vec![distant]).run();
    assert_eq!(
        solo_tight[0].outcome,
        Some("settled-honestly"),
        "the tight schedule must still be honestly settleable solo"
    );

    let reports = one_node(specs).run();
    assert_eq!(
        observable(&reports[0]),
        observable(&solo_tight[0]),
        "tight-deadline session diverged: the idle clock jump overshot its phase window"
    );
    assert_eq!(
        observable(&reports[1]),
        observable(&solo_distant[0]),
        "delayed session diverged"
    );
}

/// The fixed mixed run the cross-commit pins replay: the ten random-mix
/// cells, every challenge submit × watch pair, two crashed
/// representatives and four settle-later channels. Every odd slot runs
/// under its own fault schedule, and starts are staggered so sessions
/// meet the chain in different phases.
fn pinned_mix() -> Vec<SessionSpec> {
    let secrets = secrets_bob_wins();
    let mut cells: Vec<SessionSpec> = (0..10u8).map(|c| spec_cell(c, None, 0)).collect();
    for submit in [SubmitStrategy::Truthful, SubmitStrategy::False] {
        for watch in [
            WatchStrategy::Vigilant,
            WatchStrategy::Asleep,
            WatchStrategy::Frivolous,
        ] {
            cells.push(SessionSpec::Challenge(ChallengeSpec {
                secrets,
                submit,
                watch,
                ..ChallengeSpec::default()
            }));
        }
    }
    for (watch, crash) in [
        (WatchStrategy::Asleep, CrashPoint::BeforeSubmit),
        (WatchStrategy::Asleep, CrashPoint::AfterSubmit),
    ] {
        cells.push(SessionSpec::Challenge(ChallengeSpec {
            secrets,
            watch,
            crash,
            ..ChallengeSpec::default()
        }));
    }
    for (exchange_voucher, crash, double_submit) in [
        (true, SettleLaterCrash::None, false),
        (true, SettleLaterCrash::AAfterCosign, false),
        (true, SettleLaterCrash::None, true),
        (false, SettleLaterCrash::None, false),
    ] {
        cells.push(SessionSpec::SettleLater(SettleLaterSpec {
            exchange_voucher,
            crash,
            double_submit,
            range_bits: 8, // halves the proving cost; 30 + 12 units fit
            ..SettleLaterSpec::default()
        }));
    }
    cells
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            let seed = (i % 2 == 1).then_some(0x901D_0000_u64 + i as u64);
            let delay = (i as u64 % 5) * 45;
            match &mut spec {
                SessionSpec::Betting(s) => (s.fault_seed, s.start_delay) = (seed, delay),
                SessionSpec::Challenge(s) => (s.fault_seed, s.start_delay) = (seed, delay),
                SessionSpec::SettleLater(s) => (s.fault_seed, s.start_delay) = (seed, delay),
            }
            spec
        })
        .collect()
}

/// Runs `specs` once on one quiet node and once on four nodes whose
/// first two are cut off for six rounds; keccak of each run's reports,
/// in that order.
fn pinned_digests(specs: Vec<SessionSpec>) -> [String; 2] {
    let digest =
        |reports: &[SessionReport]| keccak256(format!("{reports:?}").as_bytes()).to_string();
    let quiet = one_node(specs.clone()).run();
    let mut cut = NetworkScheduler::new(specs, 4, PoolConfig::default(), None);
    cut.network_mut().force_partition(vec![0, 1], 6);
    [digest(&quiet), digest(&cut.run())]
}

/// Cross-commit pin: the full `Debug` rendering of every report of
/// [`pinned_mix`], hashed. The two same-build determinism tests above
/// cannot see a refactor that changes what a session sends, records or
/// reports; this one can. The constants change only when a session's
/// observable behaviour is meant to.
#[test]
fn mixed_run_reports_are_pinned() {
    let specs = pinned_mix();
    assert_eq!(specs.len(), 22);
    let [quiet, partitioned] = pinned_digests(specs);
    assert_eq!(
        quiet, "0xf98a4b737ad9ed0f3e5874ba403d350bc54b9587da199ed786185a6264c2828b",
        "one quiet node"
    );
    assert_eq!(
        partitioned, "0xab53630523db420de4191893723f631c8b15fbca24ecb33120e2dc446ebc27dd",
        "four nodes, forced partition"
    );
}

/// [`pinned_mix`] without its challenge cells: the betting and
/// settle-later reports alone, each cell keeping its fault seed and
/// start delay. A change to the challenge variant must leave these
/// digests where they are.
#[test]
fn betting_and_settle_later_reports_are_pinned() {
    let specs: Vec<SessionSpec> = pinned_mix()
        .into_iter()
        .filter(|s| !matches!(s, SessionSpec::Challenge(_)))
        .collect();
    assert_eq!(specs.len(), 10);
    let [quiet, partitioned] = pinned_digests(specs);
    assert_eq!(
        quiet, "0xa114942415644d6bb5d9a4008761fb8edf88b88a491a8c6b4d0a13564f99ad04",
        "one quiet node"
    );
    assert_eq!(
        partitioned, "0x5c87c97211f5eef9ba854004008af089366d98e531f36ffcc7b4bb13b87fc049",
        "four nodes, forced partition"
    );
}

/// A settle-later spec whose voucher can never be built or proven is
/// refused at its first step, before the channel is deployed or a stake
/// leaves a wallet — it must not panic the scheduler (and every other
/// session with it) in the voucher arithmetic, nor fund a contract it
/// can then neither settle nor reach `reclaim` on.
#[test]
fn unsettleable_settle_later_specs_are_refused_before_any_transaction() {
    let good = SettleLaterSpec {
        range_bits: 8,
        ..SettleLaterSpec::default()
    };
    let bad = [
        // Moves more out of A's claim than A staked.
        (
            "delta_units",
            SettleLaterSpec {
                delta_units: good.units_a + 1,
                ..good.clone()
            },
        ),
        // B's final claim overflows the unit type.
        (
            "units_b",
            SettleLaterSpec {
                units_b: u64::MAX,
                range_bits: 64,
                ..good.clone()
            },
        ),
        // A's deposit has no range proof at this width.
        (
            "units_a",
            SettleLaterSpec {
                units_a: 1 << 8,
                ..good.clone()
            },
        ),
    ];
    let mut specs: Vec<SessionSpec> = bad
        .iter()
        .map(|(_, spec)| SessionSpec::SettleLater(spec.clone()))
        .collect();
    specs.push(SessionSpec::SettleLater(good));

    let mut sched = one_node(specs);
    let reports = sched.run();

    for ((field, _), r) in bad.iter().zip(&reports) {
        let error = r.error.as_deref().unwrap_or_default();
        assert!(error.contains(field), "session {}: error {error:?}", r.id);
        assert_eq!(r.outcome, None, "session {}", r.id);
        assert!(r.txs.is_empty(), "session {} sent {:?}", r.id, r.txs);
        assert_eq!(r.total_gas, 0, "session {}", r.id);
    }
    let neighbour = &reports[bad.len()];
    assert_eq!(neighbour.error, None);
    assert_eq!(neighbour.outcome, Some("settled"));
    check_conservation(chain(&sched)).unwrap();
}
