//! Settle-later session suite: the confidential channel driven end to
//! end by the session engine — deposits committed under Pedersen
//! commitments, the outcome co-signed off-chain as a voucher, and the
//! chain touched again only when somebody submits it.
//!
//! Properties:
//!
//! * **Happy path** — deploy → fund → committed deposits → activate →
//!   off-chain voucher exchange → delayed settle → both withdrawals,
//!   with the expected transaction trace.
//! * **Crash resilience** — a party that goes dark after co-signing
//!   loses nothing: the counterparty submits the same voucher alone.
//! * **Replay safety** — both parties submitting the same voucher
//!   settle exactly once; the second submission reverts on the burned
//!   nullifier.
//! * **Timeout degradation** — a session that never completes the
//!   exchange reclaims both stakes after the deadline.
//! * **Composition** — settle-later sessions interleave with betting
//!   and challenge sessions on one node, and run over the multi-node
//!   network, conserving ether everywhere and staying bit-identical per
//!   seed.

use sc_chain::{PoolConfig, Testnet, Wallet};
use sc_core::{
    check_conservation, check_state_commitments, BettingSpec, ChallengeSpec, NetworkScheduler,
    SessionReport, SessionSpec, SettleLaterCrash, SettleLaterSession, SettleLaterSpec, Topic,
};

/// The single-node scheduler every single-chain test here runs on.
fn one_node(specs: Vec<SessionSpec>) -> NetworkScheduler {
    NetworkScheduler::new(specs, 1, PoolConfig::default(), None)
}

fn chain(sched: &NetworkScheduler) -> &Testnet {
    sched.network().node(0)
}

fn settle_later(tweak: impl FnOnce(&mut SettleLaterSpec)) -> SessionSpec {
    let mut spec = SettleLaterSpec::default();
    tweak(&mut spec);
    SessionSpec::SettleLater(spec)
}

fn run_single(spec: SessionSpec) -> (SessionReport, NetworkScheduler) {
    let mut sched = one_node(vec![spec]);
    let mut reports = sched.run();
    (reports.remove(0), sched)
}

fn labels(r: &SessionReport) -> Vec<&str> {
    r.txs.iter().map(|(l, _)| l.as_str()).collect()
}

#[test]
fn happy_path_settles_by_voucher_and_withdraws() {
    let (r, sched) = run_single(settle_later(|_| {}));

    assert_eq!(r.error, None, "session failed: {:?}", r.error);
    assert_eq!(r.outcome, Some("settled"));
    assert_eq!(r.kind, "settle-later");
    assert_eq!(
        labels(&r),
        vec![
            "deploy onConfidentialDeposit",
            "deposit stake",
            "deposit stake",
            "depositCommitted",
            "depositCommitted",
            "activate",
            "settle",
            "withdraw",
            "withdraw",
        ]
    );
    assert!(r.txs.iter().all(|(_, ok)| *ok), "trace: {:?}", r.txs);
    // The voucher travelled off-chain: at least one exchange round of
    // two posts, and no outcome data in any on-chain submission until
    // the settle itself.
    assert!(r.messages_posted >= 2);
    let staged: u64 = r.stage_gas.iter().sum();
    assert_eq!(staged, r.total_gas, "stage gas must sum to total");
    assert!(r.stage_gas[0] > 0 && r.stage_gas[1] > 0 && r.stage_gas[2] > 0);
    check_conservation(chain(&sched)).unwrap();
    check_state_commitments(chain(&sched)).unwrap();
}

#[test]
fn crashed_cosigner_is_settled_by_the_counterparty() {
    let (r, sched) = run_single(settle_later(|s| {
        s.crash = SettleLaterCrash::AAfterCosign;
    }));

    assert_eq!(r.error, None, "session failed: {:?}", r.error);
    assert_eq!(r.outcome, Some("settled"));
    // B alone submits and withdraws; A's share stays claimable in the
    // contract, so exactly one settle and one withdraw appear.
    let trace = labels(&r);
    assert_eq!(trace.iter().filter(|l| **l == "settle").count(), 1);
    assert_eq!(trace.iter().filter(|l| **l == "withdraw").count(), 1);
    assert!(r.txs.iter().all(|(_, ok)| *ok), "trace: {:?}", r.txs);
    check_conservation(chain(&sched)).unwrap();
}

#[test]
fn double_submission_settles_exactly_once() {
    let (r, sched) = run_single(settle_later(|s| {
        s.double_submit = true;
    }));

    assert_eq!(r.error, None, "session failed: {:?}", r.error);
    assert_eq!(r.outcome, Some("settled-double-submit"));
    let settles: Vec<bool> = r
        .txs
        .iter()
        .filter(|(l, _)| l == "settle")
        .map(|(_, ok)| *ok)
        .collect();
    assert_eq!(
        settles,
        vec![true, false],
        "first submission wins, the replay must revert on the nullifier"
    );
    // Both parties still withdraw their voucher outputs.
    let trace = labels(&r);
    assert_eq!(trace.iter().filter(|l| **l == "withdraw").count(), 2);
    check_conservation(chain(&sched)).unwrap();
}

#[test]
fn no_voucher_degrades_to_reclaim_after_deadline() {
    let (r, sched) = run_single(settle_later(|s| {
        s.exchange_voucher = false;
        s.deadline_secs = 1800;
    }));

    assert_eq!(r.error, None, "session failed: {:?}", r.error);
    assert_eq!(r.outcome, Some("reclaimed-unsettled"));
    let trace = labels(&r);
    assert_eq!(trace.iter().filter(|l| **l == "settle").count(), 0);
    assert_eq!(trace.iter().filter(|l| **l == "reclaim").count(), 2);
    assert!(r.txs.iter().all(|(_, ok)| *ok), "trace: {:?}", r.txs);
    check_conservation(chain(&sched)).unwrap();
}

/// Settle-later sessions interleaved with betting and challenge games
/// on one shared chain: everyone terminates validly and the chain
/// conserves ether.
#[test]
fn composes_with_other_session_kinds_on_a_shared_chain() {
    let mut sched = one_node(vec![
        SessionSpec::Betting(BettingSpec::default()),
        settle_later(|s| s.start_delay = 120),
        SessionSpec::Challenge(ChallengeSpec::default()),
        settle_later(|s| {
            s.double_submit = true;
            s.fault_seed = Some(0xC0FF_EE00_u64);
            s.start_delay = 300;
        }),
    ]);
    let reports = sched.run();
    for r in &reports {
        assert!(
            r.error.is_none() && r.outcome.is_some(),
            "session {} ({}) failed: {:?}",
            r.id,
            r.kind,
            r.error
        );
    }
    assert_eq!(reports[1].outcome, Some("settled"));
    assert_eq!(reports[3].outcome, Some("settled-double-submit"));
    check_conservation(chain(&sched)).unwrap();
    check_state_commitments(chain(&sched)).unwrap();
}

/// Whisper faults on the voucher exchange delay but never corrupt the
/// settlement (signatures that fail recovery are ignored; re-posts get
/// through), and seeded runs stay bit-identical.
#[test]
fn faulted_runs_settle_and_are_deterministic() {
    let specs = || {
        (0..4u64)
            .map(|i| {
                settle_later(|s| {
                    s.fault_seed = Some(0x5E77_1E00 + i);
                    s.start_delay = i * 90;
                    s.double_submit = i % 2 == 1;
                })
            })
            .collect::<Vec<_>>()
    };

    let run = || {
        let mut sched = one_node(specs());
        let reports = sched.run();
        for r in &reports {
            assert!(
                r.error.is_none() && r.outcome.is_some(),
                "session {} failed: {:?}",
                r.id,
                r.error
            );
        }
        check_conservation(chain(&sched)).unwrap();
        let fingerprint: Vec<String> = reports
            .iter()
            .map(|r| {
                format!(
                    "{}:{:?}:{:?}:{:?}",
                    r.id, r.outcome, r.txs, r.messages_posted
                )
            })
            .collect();
        (fingerprint, chain(&sched).head().hash)
    };
    assert_eq!(
        run(),
        run(),
        "seeded settle-later runs must be bit-identical"
    );
}

/// The voucher is signed once per party and the same bytes re-posted
/// every round: on a bus that drops copies, every envelope each party
/// posted is its signature over the voucher, and signing afresh gives
/// those bytes again (RFC 6979).
#[test]
fn re_posted_voucher_signatures_are_byte_identical() {
    // Seed 120's whisper schedule drops three copies and delays two but
    // corrupts none; the exchange runs four rounds.
    let (r, sched) = run_single(settle_later(|s| s.fault_seed = Some(120)));
    assert_eq!(r.outcome, Some("settled"), "{:?}", r.error);
    let injected = sched.faults(0).1.injected_faults();
    assert!(injected.iter().any(|f| f.starts_with("drop")));
    assert!(!injected.iter().any(|f| f.starts_with("corrupt")));
    assert_eq!(r.messages_posted, 8);

    let session: &SettleLaterSession = sched.session(0).expect("a settle-later session");
    let signed = session.signed_voucher(0).expect("the exchange completed");
    assert_eq!(
        session.signed_voucher(1),
        Some(signed),
        "both seats hold one pair"
    );
    let [a, b] = ["alice", "bob"].map(|p| Wallet::from_seed(&format!("s0-{p}")));
    assert_eq!(signed, signed.voucher.co_sign(&a.key, &b.key));
    let topic = Topic::node_session(0, 0, "signed-copy");
    let history = sched.network().bus().history(&topic);
    for (who, sig) in [(a.address, signed.sig_a), (b.address, signed.sig_b)] {
        let posted: Vec<_> = history.iter().filter(|env| env.from == who).collect();
        assert!(posted.len() > 1, "several copies reached the bus");
        assert!(posted.iter().all(|env| env.payload == sig.to_bytes()));
    }
    assert!(history
        .iter()
        .all(|env| env.from == a.address || env.from == b.address));
}

/// Settle-later over the 4-node gossiping network, mixed with the other
/// session kinds: every session terminates, every node converges and
/// conserves ether. This is the session-engine half of the cross-node
/// story; the raw double-submit race across a partition lives in the
/// `network_chaos` suite.
#[test]
fn runs_over_the_multi_node_network() {
    let specs = vec![
        settle_later(|_| {}),
        SessionSpec::Betting(BettingSpec {
            start_delay: 240,
            ..BettingSpec::default()
        }),
        settle_later(|s| {
            s.crash = SettleLaterCrash::AAfterCosign;
            s.fault_seed = Some(0xD15C_0001);
            s.start_delay = 480;
        }),
        settle_later(|s| {
            s.double_submit = true;
            s.start_delay = 720;
        }),
    ];

    let mut sched = NetworkScheduler::new(specs, 4, PoolConfig::default(), Some(0xD15C_0002));
    let reports = sched.run();
    for r in &reports {
        assert!(
            r.error.is_none() && r.outcome.is_some(),
            "session {} ({}) failed: {:?}",
            r.id,
            r.kind,
            r.error
        );
    }
    assert_eq!(reports[0].outcome, Some("settled"));
    assert_eq!(reports[2].outcome, Some("settled"));
    assert_eq!(reports[3].outcome, Some("settled-double-submit"));

    let net = sched.network();
    assert!(net.converged(), "heads: {:?}", net.heads());
    for i in 0..net.len() {
        check_conservation(net.node(i)).unwrap_or_else(|e| panic!("conservation on node {i}: {e}"));
        check_state_commitments(net.node(i))
            .unwrap_or_else(|e| panic!("commitments on node {i}: {e}"));
    }
}
