//! Runs the protocol under every combination of participant strategies
//! and prints the outcome matrix — the incentive argument of the paper
//! made executable: no Byzantine strategy profits.
//!
//! Run with: `cargo run --example byzantine_matrix`

use onoffchain::chain::PoolConfig;
use onoffchain::contracts::BetSecrets;
use onoffchain::core::{
    BettingSession, BettingSpec, NetworkScheduler, Outcome, SessionSpec, Strategy,
};
use onoffchain::primitives::{ether, U256};

fn secrets_bob_wins() -> BetSecrets {
    let mut s = BetSecrets {
        secret_a: U256::from_u64(77),
        secret_b: U256::from_u64(88),
        weight: 64,
    };
    while !s.winner_is_bob() {
        s.secret_a = s.secret_a.wrapping_add(U256::ONE);
    }
    s
}

fn outcome_label(o: Outcome) -> &'static str {
    match o {
        Outcome::AbortedAtSigning => "abort@sign",
        Outcome::Refunded => "refunded",
        Outcome::SettledHonestly => "honest",
        Outcome::SettledByDispute => "dispute",
    }
}

fn main() {
    // Alice is the loser in every game (Bob's secrets win), so
    // loser-side strategies are exercised through her.
    let alice_strategies = [
        Strategy::Honest,
        Strategy::RefusesToSign,
        Strategy::SignsTampered,
        Strategy::SilentLoser,
        Strategy::ForgingLoser,
        Strategy::NoShow,
    ];

    println!(
        "{:<16} {:>12} {:>16} {:>16} {:>10}",
        "alice (loser)", "outcome", "alice Δwei", "bob Δwei", "gas"
    );
    for a_strat in alice_strategies {
        let spec = BettingSpec {
            alice: a_strat,
            secrets: secrets_bob_wins(),
            seats: Some(["alice", "bob"]),
            ..BettingSpec::default()
        };
        let mut sched = NetworkScheduler::new(
            vec![SessionSpec::Betting(spec)],
            1,
            PoolConfig::default(),
            None,
        );
        let report = sched.run().remove(0);
        assert_eq!(report.error, None, "protocol");
        let game: &BettingSession = sched.session(0).expect("a betting game");
        let chain = sched.network().node(0);
        let outcome = game.outcome().expect("terminal outcome");
        let alice_addr = game.seats[0].address();
        let bob_addr = game.seats[1].address();
        let delta = |addr| {
            let now = chain.balance_of(addr);
            let start = ether(1000);
            if now >= start {
                format!("+{}", now.wrapping_sub(start))
            } else {
                format!("-{}", start.wrapping_sub(now))
            }
        };
        println!(
            "{:<16} {:>12} {:>16} {:>16} {:>10}",
            format!("{a_strat:?}"),
            outcome_label(outcome),
            delta(alice_addr),
            delta(bob_addr),
            report.total_gas
        );

        // The incentive invariant: whatever Alice tries, she never ends
        // up with more than she would by playing honestly, and the
        // honest Bob never loses his stake.
        match outcome {
            Outcome::SettledHonestly | Outcome::SettledByDispute => {
                assert!(
                    chain.balance_of(bob_addr) > ether(1000),
                    "honest winner must profit"
                );
                assert!(chain.balance_of(alice_addr) < ether(1000), "loser must pay");
            }
            Outcome::AbortedAtSigning | Outcome::Refunded => {
                // Nobody's deposit is stuck in the contract.
                assert_eq!(chain.balance_of(game.onchain), U256::ZERO);
            }
        }
    }
    println!();
    println!("Invariant held in every row: deviation never beats honesty,");
    println!("and the honest counterparty's funds are never stranded.");
}
