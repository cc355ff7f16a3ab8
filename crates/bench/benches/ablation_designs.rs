//! A4 — ablation: the two stage-3 designs compared.
//!
//! The paper's published contracts settle by *loser concession*
//! (`reassign()`); the paper's text describes *representative submission
//! with a challenge period*. Both are implemented in this repository —
//! this bench quantifies the trade:
//!
//! * concession needs one tx on the happy path but cannot finalize
//!   without the loser's cooperation (hence the T3 deadline);
//! * submit/challenge finalizes unilaterally after the window but costs
//!   an extra tx and a larger on-chain contract, and adds the
//!   watch-or-lose liveness assumption.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::{fmt_gas, run_game, secrets_bob_wins};
use sc_chain::PoolConfig;
use sc_core::{
    gas_of, ChallengeSession, ChallengeSpec, NetworkScheduler, Session, SessionReport, SessionSpec,
    Strategy, SubmitStrategy, WatchStrategy,
};

/// One submit/challenge game (vigilant watcher, `alice`/`bob` seated)
/// alone on one node: its report and the scheduler holding its machine.
fn challenge_game(submit: SubmitStrategy, weight: u64) -> (SessionReport, NetworkScheduler) {
    let spec = ChallengeSpec {
        secrets: secrets_bob_wins(weight),
        submit,
        watch: WatchStrategy::Vigilant,
        seats: Some(["alice", "bob"]),
        ..ChallengeSpec::default()
    };
    let sessions = vec![SessionSpec::Challenge(spec)];
    let mut sched = NetworkScheduler::new(sessions, 1, PoolConfig::default(), None);
    let report = sched.run().remove(0);
    assert_eq!(report.error, None, "protocol run");
    (report, sched)
}

fn print_ablation() {
    let weight = 256;

    // Concession design (the paper's Algorithms 2–6).
    let honest = run_game(Strategy::Honest, Strategy::Honest, weight);
    let disputed = run_game(Strategy::SilentLoser, Strategy::Honest, weight);

    // Submit/challenge design (extension).
    let (quiet, quiet_sched) = challenge_game(SubmitStrategy::Truthful, weight);
    let (fought, _) = challenge_game(SubmitStrategy::False, weight);
    let quiet_txs = quiet_sched
        .session::<ChallengeSession>(0)
        .expect("a challenge game")
        .txs();

    println!();
    println!("=== A4 — stage-3 designs: concession vs submit/challenge (weight {weight}) ===");
    println!("  {:<44} {:>14}", "path", "total gas");
    println!(
        "  {:<44} {:>14}",
        "concession, honest (deploy+deposits+reassign)",
        fmt_gas(honest.report.total_gas)
    );
    println!(
        "  {:<44} {:>14}",
        "concession, disputed (+verified instance)",
        fmt_gas(disputed.report.total_gas)
    );
    println!(
        "  {:<44} {:>14}",
        "submit/challenge, unchallenged (+finalize)",
        fmt_gas(quiet.total_gas)
    );
    println!(
        "  {:<44} {:>14}",
        "submit/challenge, challenged (+penalty)",
        fmt_gas(fought.total_gas)
    );
    println!();
    println!(
        "  happy-path premium of the challenge design: {} gas",
        fmt_gas(quiet.total_gas.saturating_sub(honest.report.total_gas))
    );
    println!("  unlike concession, the challenge design finalizes without the loser: ");
    println!(
        "  submitResult {} + finalize {} gas",
        fmt_gas(gas_of(quiet_txs, "submitResult").unwrap_or(0)),
        fmt_gas(gas_of(quiet_txs, "finalize").unwrap_or(0))
    );
    println!();

    // Shape assertions.
    assert!(
        quiet.total_gas > honest.report.total_gas,
        "the challenge design pays a happy-path premium"
    );
    assert!(fought.total_gas > quiet.total_gas + 150_000);
    assert!(disputed.report.total_gas > honest.report.total_gas + 150_000);
}

fn bench(c: &mut Criterion) {
    print_ablation();
    let mut group = c.benchmark_group("ablation_designs");
    group.sample_size(10);
    group.bench_function("challenge_design_unchallenged", |b| {
        b.iter(|| challenge_game(SubmitStrategy::Truthful, 256).0.total_gas)
    });
    group.bench_function("challenge_design_fought", |b| {
        b.iter(|| challenge_game(SubmitStrategy::False, 256).0.total_gas)
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
