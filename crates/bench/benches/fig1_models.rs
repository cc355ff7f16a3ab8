//! E2 — reproduces the quantitative claim behind **Fig. 1**: comparing
//! the all-on-chain execution model with the hybrid on/off-chain model.
//!
//! The paper's figure is a schematic; its claim is that in the hybrid
//! model miners only execute the light/public functions while the
//! heavy/private ones (`reveal()`, weight w) run off-chain. We measure
//! miner-executed gas for the *whole* game under both models as w grows:
//! the all-on-chain curve grows linearly in w, the hybrid (honest-path)
//! curve is flat.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::{fmt_gas, run_game, run_monolithic};
use sc_core::Strategy;

fn print_fig1() {
    println!();
    println!("=== Fig. 1 — miner-executed gas: all-on-chain vs hybrid (honest path) ===");
    println!(
        "  {:>8} {:>16} {:>16} {:>10}",
        "weight", "all-on-chain", "hybrid", "ratio"
    );
    let weights = [0u64, 10, 100, 1_000, 10_000];
    let mut hybrid_series = Vec::new();
    let mut mono_series = Vec::new();
    for &w in &weights {
        let mono = run_monolithic(w).total();
        let hybrid = run_game(Strategy::Honest, Strategy::Honest, w)
            .report
            .total_gas;
        println!(
            "  {:>8} {:>16} {:>16} {:>9.2}x",
            w,
            fmt_gas(mono),
            fmt_gas(hybrid),
            mono as f64 / hybrid as f64
        );
        hybrid_series.push(hybrid);
        mono_series.push(mono);
    }
    println!();

    // Shape assertions.
    let hybrid_spread = hybrid_series.iter().max().unwrap() - hybrid_series.iter().min().unwrap();
    assert_eq!(hybrid_spread, 0, "hybrid honest-path gas is flat in w");
    assert!(
        mono_series.last().unwrap() > &(mono_series[0] + 100_000),
        "all-on-chain grows with w"
    );
    assert!(
        mono_series.last().unwrap() > hybrid_series.last().unwrap(),
        "hybrid wins at high weight"
    );
}

fn bench(c: &mut Criterion) {
    print_fig1();
    let mut group = c.benchmark_group("fig1");
    group.sample_size(10);
    group.bench_function("hybrid_honest_game", |b| {
        b.iter(|| {
            run_game(Strategy::Honest, Strategy::Honest, 1_000)
                .report
                .total_gas
        })
    });
    group.bench_function("all_on_chain_game", |b| {
        b.iter(|| run_monolithic(1_000).total())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
