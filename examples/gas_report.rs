//! Prints the paper-reproduction gas report: Table II, the model
//! comparison behind Fig. 1, and the automatic split plan that the
//! split/generate stage produces for the monolithic betting contract.
//!
//! Run with: `cargo run --release --example gas_report`

use onoffchain::chain::{PoolConfig, Testnet};
use onoffchain::contracts::{
    BetSecrets, MonolithicContract, OnChainContract, Timeline, MONOLITHIC_SRC,
};
use onoffchain::core::{
    gas_of, split, BettingSession, BettingSpec, NetworkScheduler, Session, SessionReport,
    SessionSpec, Strategy,
};
use onoffchain::lang::parse;
use onoffchain::primitives::{ether, U256};

fn secrets(weight: u64) -> BetSecrets {
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

/// One betting game with `alice`/`bob` seated, alone on a 1-node
/// scheduler.
fn game(alice: Strategy, weight: u64) -> NetworkScheduler {
    let spec = BettingSpec {
        alice,
        secrets: secrets(weight),
        seats: Some(["alice", "bob"]),
        ..BettingSpec::default()
    };
    NetworkScheduler::new(
        vec![SessionSpec::Betting(spec)],
        1,
        PoolConfig::default(),
        None,
    )
}

/// Runs a one-game scheduler to its end.
fn run(sched: &mut NetworkScheduler) -> SessionReport {
    let report = sched.run().remove(0);
    assert_eq!(report.error, None, "protocol");
    report
}

fn betting(sched: &NetworkScheduler) -> &BettingSession {
    sched.session(0).expect("a betting game")
}

fn monolithic_total(weight: u64) -> u64 {
    let s = secrets(weight);
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(1000));
    let bob = net.funded_wallet("bob", ether(1000));
    let tl = Timeline::starting_at(net.now(), 3600);
    let mono = MonolithicContract::new();
    let r = net
        .deploy(
            &alice,
            mono.initcode(alice.address, bob.address, tl, s),
            U256::ZERO,
            7_900_000,
        )
        .unwrap();
    let addr = r.contract_address.unwrap();
    let mut total = r.gas_used;
    for w in [&alice, &bob] {
        total += net
            .execute(w, addr, ether(1), mono.deposit(), 300_000)
            .unwrap()
            .gas_used;
    }
    net.advance_time(2 * 3600 + 60);
    total += net
        .execute(&alice, addr, U256::ZERO, mono.settle(), 7_900_000)
        .unwrap()
        .gas_used;
    total
}

fn main() {
    println!("# Split plan (split/generate stage on the monolithic contract)\n");
    let program = parse(MONOLITHIC_SRC).expect("parses");
    let plan = split(&program.contracts[0]);
    println!("{}", plan.report());

    println!("# Table II — dispute extra functions (paper: 225,082 + reveal() / 37,745)\n");
    let mut dispute = game(Strategy::SilentLoser, 64);
    run(&mut dispute);
    let txs = betting(&dispute).txs();
    println!(
        "  deployVerifiedInstance():  {:>9} gas",
        gas_of(txs, "deployVerifiedInstance").unwrap()
    );
    println!(
        "  returnDisputeResolution(): {:>9} gas (includes reveal @ weight 64)",
        gas_of(txs, "returnDisputeResolution").unwrap()
    );

    println!("\n# Fig. 1 — whole-game miner gas, all-on-chain vs hybrid honest path\n");
    println!("  {:>8} {:>14} {:>14}", "weight", "monolithic", "hybrid");
    for w in [0u64, 100, 1_000, 10_000] {
        let honest = run(&mut game(Strategy::Honest, w));
        println!(
            "  {:>8} {:>14} {:>14}",
            w,
            monolithic_total(w),
            honest.total_gas
        );
    }
    println!(
        "\nhybrid is flat in reveal weight; the all-on-chain model pays for it in every node."
    );

    println!("\n# Per-opcode breakdown of deployVerifiedInstance (EVM profiler)\n");
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(1000));
    let bob = net.funded_wallet("bob", ether(1000));
    let tl = Timeline::starting_at(net.now(), 3600);
    let on = OnChainContract::new();
    let onchain = net
        .deploy(
            &alice,
            on.initcode(alice.address, bob.address, tl),
            onoffchain::primitives::U256::ZERO,
            5_000_000,
        )
        .unwrap()
        .contract_address
        .unwrap();
    for w in [&alice, &bob] {
        net.execute(w, onchain, ether(1), on.deposit(), 300_000)
            .unwrap();
    }
    net.advance_time(4 * 3600);
    let copy = betting(&game(Strategy::Honest, 64)).signed_copy();
    let data =
        on.deploy_verified_instance(&copy.bytecode, &copy.signatures[0], &copy.signatures[1]);
    let (profile, exec_gas) = net.profile_call(
        bob.address,
        onchain,
        onoffchain::primitives::U256::ZERO,
        data,
        7_000_000,
    );
    println!("  {:<12} {:>8} {:>12}", "opcode", "count", "gas");
    for (name, count, gas) in profile.rows().into_iter().take(12) {
        println!("  {name:<12} {count:>8} {gas:>12}");
    }
    println!("  (execution gas {exec_gas}; calldata + tx base excluded)");
}
