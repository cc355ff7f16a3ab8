//! The paper's dispute path (Table I, rule 5): the loser goes silent, so
//! after T3 the winner reveals the signed copy, the on-chain contract
//! verifies both signatures with `ecrecover`, CREATEs the verified
//! instance, and the miners recompute `reveal()` to enforce the true
//! result.
//!
//! Run with: `cargo run --example betting_dispute`

use onoffchain::chain::{PoolConfig, Wallet};
use onoffchain::contracts::{BetSecrets, DEPLOYED_ADDR_SLOT};
use onoffchain::core::{
    BettingSession, BettingSpec, NetworkScheduler, Outcome, Session, SessionSpec, SignedCopy,
    Strategy,
};
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

    let spec = BettingSpec {
        alice: Strategy::SilentLoser,
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
    println!("Alice will lose — and refuse to concede.");
    println!(
        "signed copy: {} bytes of bytecode + 2 signatures over keccak256(bytecode)",
        game.offchain_bytecode.len()
    );
    // Each side signs with its own key; the example holds both seeds.
    let [alice, bob] = ["alice", "bob"].map(Wallet::from_seed);
    let copy = SignedCopy::create(game.offchain_bytecode.clone(), &[&alice.key, &bob.key]);
    println!(
        "  keccak256(bytecode) = {}",
        onoffchain::core::bytecode_hash(&copy.bytecode)
    );
    for (i, sig) in copy.signatures.iter().enumerate() {
        println!("  signature {i}: v={}, r={}, s={}", sig.v, sig.r, sig.s);
    }

    let report = sched.run().remove(0);
    assert_eq!(report.error, None, "protocol");
    let game: &BettingSession = sched.session(0).expect("a betting game");
    let chain = sched.network().node(0);

    println!("\n== transaction ledger ==");
    for tx in game.txs() {
        println!(
            "  [{}] {:<26} {:>9} gas  {}",
            tx.stage,
            tx.label,
            tx.gas_used,
            if tx.success { "ok" } else { "REVERTED" }
        );
    }

    assert_eq!(game.outcome(), Some(Outcome::SettledByDispute));
    let onchain = game.onchain;
    let instance =
        Address::from_u256(chain.storage_at(onchain, U256::from_u64(DEPLOYED_ADDR_SLOT)));
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
        chain.code_at(instance).len()
    );
    println!(
        "privacy cost of the dispute: {} bytes of the off-chain contract revealed",
        game.offchain_bytes_revealed
    );
    println!(
        "\nBob (the honest winner) holds {} wei — both deposits, enforced by miners",
        chain.balance_of(game.seats[1].address())
    );
    println!(
        "Alice (the dishonest loser) holds {} wei",
        chain.balance_of(game.seats[0].address())
    );
}
