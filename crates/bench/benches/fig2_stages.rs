//! E3 — reproduces the mechanism of **Fig. 2**: per-stage cost of the
//! four-stage protocol, honest path vs dispute path, plus the privacy
//! ledger (bytes of off-chain contract revealed on-chain).

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::{fmt_gas, run_game};
use sc_core::{stage_gas, Session, Stage, Strategy};

fn print_fig2() {
    let honest = run_game(Strategy::Honest, Strategy::Honest, 256);
    let dispute = run_game(Strategy::SilentLoser, Strategy::Honest, 256);

    println!();
    println!("=== Fig. 2 — per-stage gas, honest path vs dispute path (weight 256) ===");
    println!("  {:<18} {:>14} {:>14}", "stage", "honest", "dispute");
    for stage in [
        Stage::DeploySign,
        Stage::SubmitChallenge,
        Stage::DisputeResolve,
    ] {
        println!(
            "  {:<18} {:>14} {:>14}",
            stage.to_string(),
            fmt_gas(stage_gas(honest.game().txs(), stage)),
            fmt_gas(stage_gas(dispute.game().txs(), stage))
        );
    }
    println!(
        "  {:<18} {:>14} {:>14}",
        "TOTAL",
        fmt_gas(honest.report.total_gas),
        fmt_gas(dispute.report.total_gas)
    );
    println!();
    println!("  privacy: off-chain bytes revealed on-chain");
    println!(
        "    honest path : {:>6} bytes (out of {})",
        honest.game().offchain_bytes_revealed,
        honest.game().offchain_bytecode.len()
    );
    println!(
        "    dispute path: {:>6} bytes (out of {})",
        dispute.game().offchain_bytes_revealed,
        dispute.game().offchain_bytecode.len()
    );
    println!(
        "  off-chain (Whisper) messages: honest {}, dispute {}",
        honest.report.messages_posted, dispute.report.messages_posted
    );
    let honest_cache = honest.sched.network().node(0).analysis_cache().stats();
    let dispute_cache = dispute.sched.network().node(0).analysis_cache().stats();
    println!("  EVM analysis cache (jumpdest bitmaps memoised across frames):");
    println!(
        "    honest path : {:>4} hits / {:>3} misses ({:.0}% hit ratio)",
        honest_cache.hits,
        honest_cache.misses,
        honest_cache.hit_ratio() * 100.0
    );
    println!(
        "    dispute path: {:>4} hits / {:>3} misses ({:.0}% hit ratio)",
        dispute_cache.hits,
        dispute_cache.misses,
        dispute_cache.hit_ratio() * 100.0
    );
    println!();

    // Shape assertions.
    assert_eq!(stage_gas(honest.game().txs(), Stage::DisputeResolve), 0);
    assert_eq!(honest.game().offchain_bytes_revealed, 0);
    assert_eq!(
        dispute.game().offchain_bytes_revealed,
        dispute.game().offchain_bytecode.len()
    );
    assert!(dispute.report.total_gas > honest.report.total_gas);
    assert!(
        dispute_cache.hits > 0,
        "dispute re-execution should reuse memoised analyses"
    );
}

fn bench(c: &mut Criterion) {
    print_fig2();
    let mut group = c.benchmark_group("fig2");
    group.sample_size(10);
    group.bench_function("honest_path", |b| {
        b.iter(|| {
            run_game(Strategy::Honest, Strategy::Honest, 256)
                .report
                .total_gas
        })
    });
    group.bench_function("dispute_path", |b| {
        b.iter(|| {
            run_game(Strategy::SilentLoser, Strategy::Honest, 256)
                .report
                .total_gas
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
