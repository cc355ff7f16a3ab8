//! The paper's betting game on the honest path (Table I, rules 1–4):
//! both participants follow the agreed off-chain contract, the loser
//! concedes, and nothing about the bet is ever revealed on-chain.
//!
//! Run with: `cargo run --example betting_honest`

use onoffchain::chain::PoolConfig;
use onoffchain::contracts::BetSecrets;
use onoffchain::core::{
    stage_gas, BettingSession, BettingSpec, NetworkScheduler, Outcome, Session, SessionSpec, Stage,
};
use onoffchain::primitives::{ether, U256};

fn main() {
    let secrets = BetSecrets {
        secret_a: U256::from_u64(0x5eed),
        secret_b: U256::from_u64(0xfeed),
        weight: 5_000, // a deliberately expensive private reveal()
    };
    println!("== split/generate ==");
    println!(
        "private bet: secretA={}, secretB={}, reveal weight={} iterations",
        secrets.secret_a, secrets.secret_b, secrets.weight
    );

    let spec = BettingSpec {
        secrets,
        seats: Some(["alice", "bob"]),
        ..BettingSpec::default()
    };
    let mut sched = NetworkScheduler::new(
        vec![SessionSpec::Betting(spec)],
        1,
        PoolConfig::default(),
        None,
    );
    let game: &BettingSession = sched.session(0).expect("a betting game");
    println!(
        "off-chain contract initcode: {} bytes (signed, never published on the honest path)",
        game.offchain_bytecode.len()
    );
    let alice = game.seats[0].address();
    let bob = game.seats[1].address();

    let report = sched.run().remove(0);
    assert_eq!(report.error, None, "protocol");
    let game: &BettingSession = sched.session(0).expect("a betting game");
    let chain = sched.network().node(0);

    println!("\n== transaction ledger ==");
    for tx in game.txs() {
        println!(
            "  [{}] {:<24} {:>9} gas  {}",
            tx.stage,
            tx.label,
            tx.gas_used,
            if tx.success { "ok" } else { "REVERTED" }
        );
    }

    println!("\n== outcome ==");
    assert_eq!(game.outcome(), Some(Outcome::SettledHonestly));
    let winner = if secrets.winner_is_bob() {
        "Bob"
    } else {
        "Alice"
    };
    println!("winner (computed privately, enforced by concession): {winner}");
    println!(
        "alice balance: {} wei, bob balance: {} wei",
        chain.balance_of(alice),
        chain.balance_of(bob)
    );
    println!(
        "off-chain bytes revealed on-chain: {} (privacy preserved)",
        game.offchain_bytes_revealed
    );
    println!(
        "dispute machinery gas: {} (never ran)",
        stage_gas(game.txs(), Stage::DisputeResolve)
    );
    println!(
        "total miner-executed gas: {} — the {}-iteration reveal() cost the miners nothing",
        report.total_gas, secrets.weight
    );
    assert!(chain.balance_of(if secrets.winner_is_bob() { bob } else { alice }) > ether(1000));
}
