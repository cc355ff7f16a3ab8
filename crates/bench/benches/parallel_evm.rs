//! S4 — optimistic parallel execution: one packed block sealed by the
//! serial executor and by the Block-STM-style parallel executor.
//!
//! Prints the comparison at N ∈ {1, 16, 256} for the conflict-light and
//! conflict-heavy workloads, then Criterion-times the parallel N = 16
//! seal. Single-shot wall clock: a table to read, not a number to gate.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::parallel_evm::{measure, measure_point, Workload};
use sc_bench::print_gas_table;

fn print_comparison() {
    let report = measure();
    let rows: Vec<(&str, String)> = report
        .points
        .iter()
        .map(|p| {
            let label: &str = match (p.workload, p.n) {
                (Workload::ConflictLight, 1) => "light  N = 1",
                (Workload::ConflictLight, 16) => "light  N = 16",
                (Workload::ConflictLight, _) => "light  N = 256",
                (Workload::ConflictHeavy, 1) => "heavy  N = 1",
                (Workload::ConflictHeavy, 16) => "heavy  N = 16",
                (Workload::ConflictHeavy, _) => "heavy  N = 256",
            };
            (
                label,
                format!(
                    "serial {:>8.2} ms, parallel {:>8.2} ms \
                     ({:.2}x, {} spec / {} reexec)",
                    p.cached_serial_ns as f64 / 1e6,
                    p.parallel_ns as f64 / 1e6,
                    p.speedup(),
                    p.speculative,
                    p.reexecuted,
                ),
            )
        })
        .collect();
    print_gas_table(
        &format!(
            "S4 — parallel seal vs serial seal ({} workers)",
            report.workers
        ),
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    print_comparison();
    let mut group = c.benchmark_group("parallel_evm");
    group.sample_size(10);
    group.bench_function("parallel/light_16", |b| {
        b.iter(|| measure_point(Workload::ConflictLight, 16))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
