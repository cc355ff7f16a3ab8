//! R1 — robustness ablation: what does resilience cost?
//!
//! Runs the same honest betting game on a perfect network and under
//! seeded fault schedules, and compares on-chain gas, transaction
//! counts and wall-clock time. The retry/backoff driver's overhead on
//! the happy path should be zero (identical ledger); under faults the
//! extra cost is bounded by the schedule's finite fault budgets.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::{fmt_gas, secrets_bob_wins};
use sc_chain::PoolConfig;
use sc_core::{BettingSpec, NetworkScheduler, SessionSpec};

/// The honest game alone on one node, under the fault schedule of
/// `fault_seed` (`None`: a perfect network).
fn run_with_plan(fault_seed: Option<u64>) -> (u64, usize, usize) {
    let spec = BettingSpec {
        secrets: secrets_bob_wins(64),
        fault_seed,
        seats: Some(["alice", "bob"]),
        ..BettingSpec::default()
    };
    let sessions = vec![SessionSpec::Betting(spec)];
    let mut sched = NetworkScheduler::new(sessions, 1, PoolConfig::default(), None);
    let report = sched.run().remove(0);
    assert_eq!(report.error, None, "game terminates");
    let (chain, whisper) = sched.faults(0);
    let injected = chain.injected_faults().len() + whisper.injected_faults().len();
    (report.total_gas, report.txs.len(), injected)
}

fn print_ablation() {
    println!();
    println!("=== R1 — retry/backoff overhead under injected faults ===");
    let (clean_gas, clean_txs, _) = run_with_plan(None);
    println!(
        "  perfect network : {} gas over {clean_txs} txs",
        fmt_gas(clean_gas)
    );

    for seed in [0x00C0_FFEEu64, 0x0BAD_F00D, 0x5EED_0001, 0x5EED_0002] {
        let (gas, txs, injected) = run_with_plan(Some(seed));
        println!(
            "  seed {seed:#018x}: {} gas over {txs} txs ({injected} faults injected, \
             gas delta {:+})",
            fmt_gas(gas),
            gas as i64 - clean_gas as i64,
        );
        // Transient failures are rejected before execution, so they are
        // gas-free; the ledger only ever records landed transactions.
        // Severe schedules may degrade the game (abort/refund) with a
        // shorter ledger, but something always lands.
        assert!(txs >= 1, "the driver always reaches the chain");
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_ablation();
    let mut group = c.benchmark_group("retry_overhead");
    group.bench_function("honest_game/perfect", |b| b.iter(|| run_with_plan(None)));
    group.bench_function("honest_game/faulted", |b| {
        b.iter(|| run_with_plan(Some(0x5EED_0001)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
