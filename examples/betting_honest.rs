//! The paper's betting game on the honest path (Table I, rules 1–4):
//! both participants follow the agreed off-chain contract, the loser
//! concedes, and nothing about the bet is ever revealed on-chain.
//!
//! Run with: `cargo run --example betting_honest`

use onoffchain::contracts::BetSecrets;
use onoffchain::core::{BettingGame, GameConfig, Outcome, Participant, Stage};
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

    let game = BettingGame::new(
        Participant::honest("alice"),
        Participant::honest("bob"),
        GameConfig {
            phase_seconds: 3600,
            secrets,
        },
    );
    println!(
        "off-chain contract initcode: {} bytes (signed, never published on the honest path)",
        game.offchain_bytecode.len()
    );
    let alice = game.alice.wallet.address;
    let bob = game.bob.wallet.address;

    let (game, report) = game.run().expect("protocol");

    println!("\n== transaction ledger ==");
    for tx in &report.txs {
        println!(
            "  [{}] {:<24} {:>9} gas  {}",
            tx.stage,
            tx.label,
            tx.gas_used,
            if tx.success { "ok" } else { "REVERTED" }
        );
    }

    println!("\n== outcome ==");
    assert_eq!(report.outcome, Outcome::SettledHonestly);
    let winner = if report.winner_is_bob { "Bob" } else { "Alice" };
    println!("winner (computed privately, enforced by concession): {winner}");
    println!(
        "alice balance: {} wei, bob balance: {} wei",
        game.net().balance_of(alice),
        game.net().balance_of(bob)
    );
    println!(
        "off-chain bytes revealed on-chain: {} (privacy preserved)",
        report.offchain_bytes_revealed
    );
    println!(
        "dispute machinery gas: {} (never ran)",
        report.stage_gas(Stage::DisputeResolve)
    );
    println!(
        "total miner-executed gas: {} — the {}-iteration reveal() cost the miners nothing",
        report.total_gas(),
        secrets.weight
    );
    assert!(
        game.net()
            .balance_of(if report.winner_is_bob { bob } else { alice })
            > ether(1000)
    );
}
