//! A3 — ablation: expected hybrid cost vs dispute probability, and the
//! crossover against the all-on-chain baseline.
//!
//! The hybrid model's expected miner-gas for one game is
//! `E[hybrid] = honest_cost + p · dispute_extra` where p is the dispute
//! probability. The all-on-chain cost is flat in p but grows with the
//! reveal weight w. For every w there is a crossover probability p*
//! above which splitting stops paying off; the paper's claim is that
//! real disputes are rare (p ≈ 0), where hybrid always wins.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::{fmt_gas, run_game, run_monolithic};
use sc_core::Strategy;

struct Costs {
    honest: u64,
    dispute: u64,
    monolithic: u64,
}

fn measure(weight: u64) -> Costs {
    Costs {
        honest: run_game(Strategy::Honest, Strategy::Honest, weight)
            .report
            .total_gas,
        dispute: run_game(Strategy::SilentLoser, Strategy::Honest, weight)
            .report
            .total_gas,
        monolithic: run_monolithic(weight).total(),
    }
}

fn expected_hybrid(c: &Costs, p: f64) -> f64 {
    c.honest as f64 + p * (c.dispute - c.honest) as f64
}

/// The dispute probability at which hybrid = all-on-chain (clamped to
/// [0, 1]; >1 means hybrid wins even with certain disputes).
fn crossover(c: &Costs) -> f64 {
    let extra = (c.dispute - c.honest) as f64;
    if c.monolithic <= c.honest {
        return 0.0;
    }
    ((c.monolithic - c.honest) as f64 / extra).min(1.0)
}

fn print_ablation() {
    println!();
    println!("=== A3 — expected miner gas vs dispute probability ===");
    let weights = [0u64, 100, 1_000, 10_000];
    let probs = [0.0f64, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0];

    for &w in &weights {
        let c = measure(w);
        println!(
            "  weight {w}: honest {} | dispute {} | all-on-chain {} | crossover p* = {:.3}",
            fmt_gas(c.honest),
            fmt_gas(c.dispute),
            fmt_gas(c.monolithic),
            crossover(&c)
        );
        print!("    E[hybrid](p):");
        for &p in &probs {
            print!(" p={p}: {}", fmt_gas(expected_hybrid(&c, p) as u64));
        }
        println!();
    }
    println!();

    // Shape assertions:
    let c0 = measure(0);
    let c_big = measure(10_000);
    // Reproduction finding: with a *trivial* reveal, the hybrid model
    // LOSES even at p=0 — the padded dispute machinery inflates the
    // on-chain contract's deployment beyond the whole monolithic game.
    // Splitting pays only when the off-chained computation is heavy,
    // which is exactly the regime the paper motivates.
    assert!(
        expected_hybrid(&c0, 0.0) > c0.monolithic as f64,
        "padding overhead should dominate at weight 0"
    );
    assert!(expected_hybrid(&c_big, 0.0) < c_big.monolithic as f64);
    // Crossover moves up with weight: heavier reveal ⇒ hybrid tolerates
    // more disputes.
    assert!(crossover(&c_big) >= crossover(&c0));
    // With a heavy reveal, hybrid wins even if EVERY game disputes
    // (the dispute path executes reveal once, the monolithic path also
    // pays deploy of the whole contract).
    assert!(
        expected_hybrid(&c_big, 1.0) < (c_big.monolithic as f64) * 1.2,
        "heavy-reveal dispute path within 20% of monolithic even at p=1"
    );
}

fn bench(c: &mut Criterion) {
    print_ablation();
    let mut group = c.benchmark_group("ablation_dispute_rate");
    group.sample_size(10);
    group.bench_function("measure_cost_triple_w1000", |b| b.iter(|| measure(1_000)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
