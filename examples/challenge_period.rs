//! The submit/challenge extension: the paper's stage-3 narrative with a
//! representative submission, a challenge window and security-deposit
//! penalties — including the liveness caveat (a lie stands if nobody
//! watches).
//!
//! Run with: `cargo run --example challenge_period`

use onoffchain::chain::PoolConfig;
use onoffchain::contracts::BetSecrets;
use onoffchain::core::{
    ChallengeOutcome, ChallengeSession, ChallengeSpec, NetworkScheduler, Session, SessionSpec,
    SubmitStrategy, WatchStrategy,
};
use onoffchain::primitives::{ether, U256};

fn secrets() -> BetSecrets {
    let mut s = BetSecrets {
        secret_a: U256::from_u64(3),
        secret_b: U256::from_u64(4),
        weight: 128,
    };
    while !s.winner_is_bob() {
        s.secret_a = s.secret_a.wrapping_add(U256::ONE);
    }
    s
}

fn show(title: &str, submit: SubmitStrategy, watch: WatchStrategy) -> ChallengeOutcome {
    println!("\n== {title} ==");
    let spec = ChallengeSpec {
        secrets: secrets(),
        submit,
        watch,
        seats: Some(["alice", "bob"]),
        ..ChallengeSpec::default()
    };
    let mut sched = NetworkScheduler::new(
        vec![SessionSpec::Challenge(spec)],
        1,
        PoolConfig::default(),
        None,
    );
    let report = sched.run().remove(0);
    assert_eq!(report.error, None, "protocol");
    let game: &ChallengeSession = sched.session(0).expect("a challenge game");
    let chain = sched.network().node(0);
    let outcome = game.outcome().expect("terminal outcome");
    let alice = game.seats[0].address();
    let bob = game.seats[1].address();
    for tx in game.txs() {
        println!(
            "  {:<26} {:>9} gas  {}",
            tx.label,
            tx.gas_used,
            if tx.success { "ok" } else { "REVERTED" }
        );
    }
    println!("  outcome: {outcome:?}");
    println!(
        "  alice: {} | bob: {} (start 1000 ether each)",
        chain.balance_of(alice),
        chain.balance_of(bob)
    );
    println!(
        "  off-chain bytes revealed: {}",
        game.offchain_bytes_revealed
    );
    outcome
}

fn main() {
    println!("Bob wins the private bet in every scenario below; Alice is the");
    println!("representative who submits the result on-chain.");

    let o = show(
        "truthful submission, vigilant watcher",
        SubmitStrategy::Truthful,
        WatchStrategy::Vigilant,
    );
    assert_eq!(o, ChallengeOutcome::FinalizedUnchallenged);

    let o = show(
        "FALSE submission, vigilant watcher (penalty!)",
        SubmitStrategy::False,
        WatchStrategy::Vigilant,
    );
    assert_eq!(o, ChallengeOutcome::ResolvedByChallenge);

    let o = show(
        "FALSE submission, sleeping watcher (the residual risk)",
        SubmitStrategy::False,
        WatchStrategy::Asleep,
    );
    assert_eq!(o, ChallengeOutcome::LieStood);

    println!("\nTakeaway: the challenge design finalizes without the loser's");
    println!("cooperation and makes lying unprofitable against anyone online —");
    println!("but unlike the concession design it assumes participants watch");
    println!("the chain during the window. The security deposit (0.1 ether)");
    println!("funds the honest challenger's dispute gas, as §IV of the paper");
    println!("recommends.");

    let _ = ether(0);
}
