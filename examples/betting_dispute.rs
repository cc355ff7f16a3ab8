//! The paper's dispute path (Table I, rule 5): the loser goes silent, so
//! after T3 the winner reveals the signed copy, the on-chain contract
//! verifies both signatures with `ecrecover`, CREATEs the verified
//! instance, and the miners recompute `reveal()` to enforce the true
//! result.
//!
//! Run with: `cargo run --example betting_dispute`

use onoffchain::contracts::{BetSecrets, DEPLOYED_ADDR_SLOT};
use onoffchain::core::{BettingGame, GameConfig, Outcome, Participant, Strategy};
use onoffchain::evm::contract_address;
use onoffchain::primitives::{Address, U256};

fn main() {
    // Pick secrets whose mixed parity makes Bob the winner, so the
    // silent loser is Alice.
    let mut secrets = BetSecrets {
        secret_a: U256::from_u64(1234),
        secret_b: U256::from_u64(5678),
        weight: 2_000,
    };
    while !secrets.winner_is_bob() {
        secrets.secret_a = secrets.secret_a.wrapping_add(U256::ONE);
    }

    let game = BettingGame::new(
        Participant::with_strategy("alice", Strategy::SilentLoser),
        Participant::with_strategy("bob", Strategy::Honest),
        GameConfig {
            phase_seconds: 3600,
            secrets,
        },
    );
    println!("Alice will lose — and refuse to concede.");
    println!(
        "signed copy: {} bytes of bytecode + 2 signatures over keccak256(bytecode)",
        game.offchain_bytecode.len()
    );
    let copy = game.signed_copy();
    println!(
        "  keccak256(bytecode) = {}",
        onoffchain::core::bytecode_hash(&copy.bytecode)
    );
    for (i, sig) in copy.signatures.iter().enumerate() {
        println!("  signature {i}: v={}, r={}, s={}", sig.v, sig.r, sig.s);
    }

    let (game, report) = game.run().expect("protocol");

    println!("\n== transaction ledger ==");
    for tx in &report.txs {
        println!(
            "  [{}] {:<26} {:>9} gas  {}",
            tx.stage,
            tx.label,
            tx.gas_used,
            if tx.success { "ok" } else { "REVERTED" }
        );
    }

    assert_eq!(report.outcome, Outcome::SettledByDispute);
    let onchain = game.onchain_addr.unwrap();
    let instance = Address::from_u256(
        game.net()
            .storage_at(onchain, U256::from_u64(DEPLOYED_ADDR_SLOT)),
    );
    println!("\n== dispute resolution ==");
    println!("on-chain contract:  {onchain}");
    println!("verified instance:  {instance}");
    println!(
        "  (the unique CREATE link: instance == contract_address(onChain, nonce 1) = {})",
        contract_address(onchain, 1)
    );
    assert_eq!(instance, contract_address(onchain, 1));
    println!(
        "verified instance runtime code: {} bytes now public on-chain",
        game.net().code_at(instance).len()
    );
    println!(
        "privacy cost of the dispute: {} bytes of the off-chain contract revealed",
        report.offchain_bytes_revealed
    );
    println!(
        "\nBob (the honest winner) holds {} wei — both deposits, enforced by miners",
        game.net().balance_of(game.bob.wallet.address)
    );
    println!(
        "Alice (the dishonest loser) holds {} wei",
        game.net().balance_of(game.alice.wallet.address)
    );
}
