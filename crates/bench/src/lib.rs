//! Shared harness for the paper-reproduction benchmarks.
//!
//! Each Criterion bench target regenerates one table or figure of the
//! paper (see DESIGN.md §4) or one ablation of it. Gas numbers are
//! deterministic — they are computed once and printed as a paper-style
//! table; Criterion then times the underlying end-to-end operation.
//!
//! This crate measures no performance claim and writes no artifact:
//! wall-clock numbers with repeats and spread come from the one ruler,
//! `src/bin/e2e_bench` (see `/BENCHMARK.json`), and deterministic figures
//! are pinned by `#[test]`s in the crate that owns the behaviour.

#![warn(missing_docs)]

use sc_chain::{PoolConfig, Testnet};
use sc_contracts::{BetSecrets, MonolithicContract, Timeline};
use sc_core::{BettingSpec, NetworkScheduler, SessionReport, SessionSpec, Strategy};
use sc_primitives::{ether, U256};

/// A full betting game run alone on a 1-node scheduler, for inspection.
pub struct GameRun {
    /// The session's report (gas per stage, messages posted).
    pub report: SessionReport,
    /// The scheduler after the run: its node's chain and the machine.
    pub sched: NetworkScheduler,
}

impl GameRun {
    /// The game's machine (participants, signed copy, privacy ledger).
    pub fn game(&self) -> &sc_core::BettingSession {
        self.sched.session(0).expect("a betting game")
    }
}

/// Runs a complete two-party game with the given strategies and reveal
/// weight, `alice`/`bob` seated. Secrets are adjusted so Bob wins
/// (making Alice the loser).
pub fn run_game(alice: Strategy, bob: Strategy, weight: u64) -> GameRun {
    let spec = BettingSpec {
        alice,
        bob,
        secrets: secrets_bob_wins(weight),
        seats: Some(["alice", "bob"]),
        ..BettingSpec::default()
    };
    let sessions = vec![SessionSpec::Betting(spec)];
    let mut sched = NetworkScheduler::new(sessions, 1, PoolConfig::default(), None);
    let report = sched.run().remove(0);
    assert_eq!(report.error, None, "protocol run");
    GameRun { report, sched }
}

/// Secrets with the given weight whose mixed parity favours Bob.
pub fn secrets_bob_wins(weight: u64) -> BetSecrets {
    let mut s = BetSecrets {
        secret_a: U256::from_u64(0x5eed),
        secret_b: U256::from_u64(0xfeed),
        weight,
    };
    while !s.winner_is_bob() {
        s.secret_a = s.secret_a.wrapping_add(U256::ONE);
    }
    s
}

/// Gas ledger for a full all-on-chain (monolithic) game.
pub struct MonolithicRun {
    /// Gas of the deployment transaction.
    pub deploy_gas: u64,
    /// Gas of each deposit.
    pub deposit_gas: Vec<u64>,
    /// Gas of the `settle()` call (includes on-chain `reveal()`).
    pub settle_gas: u64,
}

impl MonolithicRun {
    /// Total miner-executed gas.
    pub fn total(&self) -> u64 {
        self.deploy_gas + self.deposit_gas.iter().sum::<u64>() + self.settle_gas
    }
}

/// Runs the all-on-chain baseline end to end and returns its gas ledger.
pub fn run_monolithic(weight: u64) -> MonolithicRun {
    let secrets = secrets_bob_wins(weight);
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(1000));
    let bob = net.funded_wallet("bob", ether(1000));
    let tl = Timeline::starting_at(net.now(), 3600);
    let mono = MonolithicContract::new();
    let r = net
        .deploy(
            &alice,
            mono.initcode(alice.address, bob.address, tl, secrets),
            U256::ZERO,
            7_900_000,
        )
        .expect("deploy");
    assert!(r.success, "monolithic deploy: {:?}", r.failure);
    let deploy_gas = r.gas_used;
    let addr = r.contract_address.unwrap();

    let mut deposit_gas = Vec::new();
    for w in [&alice, &bob] {
        let r = net
            .execute(w, addr, ether(1), mono.deposit(), 300_000)
            .expect("deposit");
        assert!(r.success);
        deposit_gas.push(r.gas_used);
    }
    net.advance_time(2 * 3600 + 60);
    let r = net
        .execute(&alice, addr, U256::ZERO, mono.settle(), 7_900_000)
        .expect("settle");
    assert!(r.success, "settle: {:?}", r.failure);
    MonolithicRun {
        deploy_gas,
        deposit_gas,
        settle_gas: r.gas_used,
    }
}

/// Pretty-prints a two-column gas table in the paper's style.
pub fn print_gas_table(title: &str, rows: &[(&str, String)]) {
    println!();
    println!("=== {title} ===");
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in rows {
        println!("  {k:<width$}  {v}");
    }
    println!();
}

/// Formats gas with thousands separators.
pub fn fmt_gas(gas: u64) -> String {
    let s = gas.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_gas_groups_digits() {
        assert_eq!(fmt_gas(0), "0");
        assert_eq!(fmt_gas(999), "999");
        assert_eq!(fmt_gas(225_082), "225,082");
        assert_eq!(fmt_gas(37_745), "37,745");
        assert_eq!(fmt_gas(1_234_567), "1,234,567");
    }

    #[test]
    fn harness_runs_both_models() {
        let hybrid = run_game(Strategy::Honest, Strategy::Honest, 8);
        assert_eq!(hybrid.report.outcome, Some("settled-honestly"));
        let mono = run_monolithic(8);
        assert!(mono.settle_gas > 21_000);
        assert!(mono.total() > hybrid.report.total_gas / 2);
    }
}
