//! End-to-end protocol tests: the full four-stage game on the chain
//! simulator, honest and Byzantine.

use sc_chain::{PoolConfig, Testnet, Wallet};
use sc_contracts::BetSecrets;
use sc_core::{
    gas_of, sign_bytecode, stage_gas, BettingSession, BettingSpec, NetworkScheduler, Outcome,
    Session, SessionReport, SessionSpec, SignedCopy, Stage, Strategy, Topic,
};
use sc_primitives::{ether, U256};

/// One game with `alice`/`bob` seated, alone on a 1-node scheduler and
/// run to its end without a protocol error.
fn play(alice: Strategy, bob: Strategy, secrets: BetSecrets) -> (NetworkScheduler, SessionReport) {
    let spec = BettingSpec {
        alice,
        bob,
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
    let report = sched.run().remove(0);
    assert_eq!(report.error, None);
    (sched, report)
}

/// The game's machine after the run.
fn game(sched: &NetworkScheduler) -> &BettingSession {
    sched.session(0).expect("a betting game")
}

fn chain(sched: &NetworkScheduler) -> &Testnet {
    sched.network().node(0)
}

/// Secrets where Bob wins (parity 1 after mixing).
fn bob_wins_secrets() -> BetSecrets {
    let mut s = BetSecrets {
        secret_a: U256::from_u64(7),
        secret_b: U256::from_u64(8),
        weight: 16,
    };
    // Search a nearby secret so the mixed parity favours Bob.
    while !s.winner_is_bob() {
        s.secret_a = s.secret_a.wrapping_add(U256::ONE);
    }
    s
}

/// Secrets where Alice wins.
fn alice_wins_secrets() -> BetSecrets {
    let mut s = BetSecrets {
        secret_a: U256::from_u64(100),
        secret_b: U256::from_u64(200),
        weight: 16,
    };
    while s.winner_is_bob() {
        s.secret_a = s.secret_a.wrapping_add(U256::ONE);
    }
    s
}

#[test]
fn honest_game_settles_without_revealing_anything() {
    let secrets = bob_wins_secrets();
    let (sched, report) = play(Strategy::Honest, Strategy::Honest, secrets);
    let game = game(&sched);

    assert_eq!(game.outcome(), Some(Outcome::SettledHonestly));
    assert!(secrets.winner_is_bob());
    // Privacy: zero bytes of the off-chain contract touched the chain.
    assert_eq!(game.offchain_bytes_revealed, 0);
    // The dispute machinery never ran.
    assert_eq!(stage_gas(game.txs(), Stage::DisputeResolve), 0);
    // Bob ended up richer by ~1 ether (minus his own gas).
    let bob_balance = chain(&sched).balance_of(game.seats[1].address());
    assert!(bob_balance > ether(1000));
    // The on-chain contract is drained.
    assert_eq!(chain(&sched).balance_of(game.onchain), U256::ZERO);
    // Off-chain communication happened (two signatures).
    assert_eq!(report.messages_posted, 2);
}

#[test]
fn dispute_path_enforces_true_result() {
    // Bob wins; Alice (the loser) goes silent.
    let secrets = bob_wins_secrets();
    let (sched, _report) = play(Strategy::SilentLoser, Strategy::Honest, secrets);
    let game = game(&sched);
    let alice_addr = game.seats[0].address();
    let bob_addr = game.seats[1].address();

    assert_eq!(game.outcome(), Some(Outcome::SettledByDispute));
    // The true result (Bob wins) was enforced by the miners.
    let bob_balance = chain(&sched).balance_of(bob_addr);
    assert!(
        bob_balance > ether(1000),
        "winner must receive both deposits despite the silent loser"
    );
    let alice_balance = chain(&sched).balance_of(alice_addr);
    assert!(alice_balance < ether(1000), "loser lost the deposit");
    // Privacy cost of the dispute: the entire bytecode is now public.
    assert_eq!(game.offchain_bytes_revealed, game.offchain_bytecode.len());
    assert!(game.offchain_bytes_revealed > 500);
    // Both extra functions ran and have recorded gas.
    assert!(gas_of(game.txs(), "deployVerifiedInstance").is_some());
    assert!(gas_of(game.txs(), "returnDisputeResolution").is_some());
}

#[test]
fn dispute_resolves_for_alice_as_winner_too() {
    let secrets = alice_wins_secrets();
    // Alice honest winner; Bob silent loser.
    let (sched, _report) = play(Strategy::Honest, Strategy::SilentLoser, secrets);
    let game = game(&sched);
    assert_eq!(game.outcome(), Some(Outcome::SettledByDispute));
    assert!(!secrets.winner_is_bob());
    assert!(chain(&sched).balance_of(game.seats[0].address()) > ether(1000));
}

#[test]
fn forged_bytecode_is_rejected_on_chain() {
    let secrets = bob_wins_secrets();
    let (sched, _report) = play(Strategy::ForgingLoser, Strategy::Honest, secrets);
    let game = game(&sched);

    assert_eq!(game.outcome(), Some(Outcome::SettledByDispute));
    // The forged submission is recorded as a failed tx.
    let forged = game
        .txs()
        .iter()
        .find(|t| t.label == "deployVerifiedInstance (forged)")
        .expect("forged attempt recorded");
    assert!(!forged.success);
    assert!(
        forged.gas_used > 0,
        "the forger pays for the failed attempt"
    );
    // Justice still prevails.
    assert!(chain(&sched).balance_of(game.seats[1].address()) > ether(1000));
}

#[test]
fn tampered_signature_aborts_before_any_deposit() {
    let secrets = bob_wins_secrets();
    let (sched, _report) = play(Strategy::SignsTampered, Strategy::Honest, secrets);
    let (game, chain) = (game(&sched), chain(&sched));

    assert_eq!(game.outcome(), Some(Outcome::AbortedAtSigning));
    // No deposits ever reached the contract.
    assert_eq!(chain.balance_of(game.onchain), U256::ZERO);
    // Nobody lost more than deploy gas.
    assert!(chain.balance_of(game.seats[1].address()) == ether(1000));
    assert!(
        chain.balance_of(game.seats[0].address()) < ether(1000),
        "deployer paid gas"
    );
}

#[test]
fn refusing_to_sign_aborts() {
    let secrets = bob_wins_secrets();
    let (sched, report) = play(Strategy::Honest, Strategy::RefusesToSign, secrets);
    let game = game(&sched);
    let alice_addr = game.seats[0].address();
    assert_eq!(game.outcome(), Some(Outcome::AbortedAtSigning));
    // Alice re-posts every signing round until the deadline; Bob never
    // posts anything.
    assert!(report.messages_posted >= 1);
    let topic = Topic::node_session(0, 0, "signed-copy");
    let history = sched.network().bus().history(&topic);
    assert!(!history.is_empty());
    assert!(
        history.iter().all(|env| env.from == alice_addr),
        "only Alice ever posted a signature"
    );
}

/// Each side signs once and re-posts the same bytes every round: every
/// copy Alice posts against a refusing Bob is exactly her signature over
/// the agreed bytecode. RFC 6979 makes a fresh signature the same bytes,
/// which is what makes signing once invisible on the bus.
#[test]
fn re_posted_signatures_are_byte_identical() {
    let (sched, report) = play(
        Strategy::Honest,
        Strategy::RefusesToSign,
        bob_wins_secrets(),
    );
    let game = game(&sched);
    let topic = Topic::node_session(0, 0, "signed-copy");
    let history = sched.network().bus().history(&topic);
    let alice = Wallet::from_seed("alice");
    let signature = sign_bytecode(&alice.key, &game.offchain_bytecode).to_bytes();
    assert!(history.len() > 1, "the exchange ran several rounds");
    assert_eq!(history.len(), report.messages_posted);
    assert!(history.iter().all(|env| env.payload == signature));
}

#[test]
fn no_show_leads_to_refund() {
    let secrets = bob_wins_secrets();
    let (sched, _report) = play(Strategy::Honest, Strategy::NoShow, secrets);
    let (game, chain) = (game(&sched), chain(&sched));
    assert_eq!(game.outcome(), Some(Outcome::Refunded));
    // Alice got her ether back (minus gas).
    let spent = ether(1000).wrapping_sub(chain.balance_of(game.seats[0].address()));
    assert!(
        spent < ether(1) / U256::from_u64(100),
        "alice only lost gas, not the deposit: spent {spent}"
    );
    assert_eq!(chain.balance_of(game.onchain), U256::ZERO);
}

#[test]
fn table2_gas_shape_holds() {
    // The paper's Table II: deployVerifiedInstance = 225082 + reveal();
    // returnDisputeResolution = 37745. Absolute values differ (MiniSol is
    // not solc) but the structure must hold: deploy dominated by code
    // deposit + 2 ecrecover + CREATE, return an order of magnitude less.
    let secrets = bob_wins_secrets();
    let (sched, _report) = play(Strategy::SilentLoser, Strategy::Honest, secrets);
    let txs = game(&sched).txs();
    let deploy_gas = gas_of(txs, "deployVerifiedInstance").unwrap();
    let return_gas = gas_of(txs, "returnDisputeResolution").unwrap();
    // Same order as the paper: a couple hundred k vs a few tens of k.
    assert!(
        (100_000..600_000).contains(&deploy_gas),
        "deployVerifiedInstance gas {deploy_gas}"
    );
    assert!(
        (20_000..120_000).contains(&return_gas),
        "returnDisputeResolution gas {return_gas}"
    );
    assert!(
        deploy_gas > 3 * return_gas,
        "deploy ({deploy_gas}) must dominate return ({return_gas})"
    );
    // The exact Table II figures for these secrets: nothing that only
    // changes how a session is constructed or driven may move them.
    assert_eq!(deploy_gas, 275_335, "deployVerifiedInstance gas");
    assert_eq!(return_gas, 24_575, "returnDisputeResolution gas");
}

#[test]
fn honest_path_is_much_cheaper_than_dispute_path() {
    let secrets = bob_wins_secrets();
    let (honest, _) = play(Strategy::Honest, Strategy::Honest, secrets);
    let (dispute, _) = play(Strategy::SilentLoser, Strategy::Honest, secrets);
    let (honest, dispute) = (game(&honest).txs(), game(&dispute).txs());
    let honest_settle = stage_gas(honest, Stage::SubmitChallenge);
    let dispute_total =
        stage_gas(dispute, Stage::SubmitChallenge) + stage_gas(dispute, Stage::DisputeResolve);
    assert!(
        dispute_total > honest_settle + 150_000,
        "dispute {dispute_total} vs honest {honest_settle}"
    );
}

#[test]
fn dispute_cost_scales_with_reveal_weight() {
    let mut gas_at_weight = Vec::new();
    for weight in [0u64, 2000] {
        let mut secrets = BetSecrets {
            secret_a: U256::from_u64(3),
            secret_b: U256::from_u64(4),
            weight,
        };
        while !secrets.winner_is_bob() {
            secrets.secret_a = secrets.secret_a.wrapping_add(U256::ONE);
        }
        let (sched, _report) = play(Strategy::SilentLoser, Strategy::Honest, secrets);
        gas_at_weight.push(gas_of(game(&sched).txs(), "returnDisputeResolution").unwrap());
    }
    // Paper: "deployVerifiedInstance = 225082 + reveal()" — in our pair,
    // reveal() executes inside returnDisputeResolution, so that is where
    // the weight lands.
    assert!(
        gas_at_weight[1] > gas_at_weight[0] + 50_000,
        "reveal weight must surface in the dispute cost: {gas_at_weight:?}"
    );
}

#[test]
fn verified_instance_is_linked_to_its_creator() {
    // After a dispute, the instance recorded in deployedAddr must be a
    // contract created BY the on-chain contract (the unique-link
    // authorization of Algorithm 5/6).
    let secrets = bob_wins_secrets();
    let (sched, _report) = play(Strategy::SilentLoser, Strategy::Honest, secrets);
    let onchain = game(&sched).onchain;
    let instance = sc_primitives::Address::from_u256(
        chain(&sched).storage_at(onchain, U256::from_u64(sc_contracts::DEPLOYED_ADDR_SLOT)),
    );
    assert!(!instance.is_zero());
    // CREATE address derivation: keccak(rlp([onchain, nonce=1])).
    assert_eq!(instance, sc_evm::contract_address(onchain, 1));
    // And the instance's code is the off-chain contract's runtime.
    assert!(!chain(&sched).code_at(instance).is_empty());
}

#[test]
fn outsider_cannot_enforce_resolution_directly() {
    // An attacker calling enforceDisputeResolution directly (not via the
    // verified instance) must be rejected by deployedAddrOnly.
    let secrets = bob_wins_secrets();
    let (mut sched, _report) = play(Strategy::Honest, Strategy::Honest, secrets);
    let onchain = game(&sched).onchain;
    let data = game(&sched)
        .onchain_abi
        .compiled
        .calldata(
            "enforceDisputeResolution",
            &[sc_primitives::abi::Value::Bool(true)],
        )
        .unwrap();
    let chain = sched.network_mut().node_mut(0);
    let mallory = chain.funded_wallet("mallory", ether(10));
    let r = chain
        .execute(&mallory, onchain, U256::ZERO, data, 500_000)
        .unwrap();
    assert!(!r.success, "deployedAddrOnly must reject outsiders");
}

#[test]
fn full_tx_ledger_is_recorded() {
    let secrets = bob_wins_secrets();
    let (sched, report) = play(Strategy::SilentLoser, Strategy::Honest, secrets);
    let txs = game(&sched).txs();
    let labels: Vec<&str> = txs.iter().map(|t| t.label.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "deploy onChain",
            "deposit",
            "deposit",
            "deployVerifiedInstance",
            "returnDisputeResolution"
        ]
    );
    assert!(report.total_gas > 0);
    assert_eq!(
        report.total_gas,
        stage_gas(txs, Stage::DeploySign)
            + stage_gas(txs, Stage::SubmitChallenge)
            + stage_gas(txs, Stage::DisputeResolve)
    );
}

#[test]
fn gas_profile_of_deploy_verified_instance() {
    // Decompose the dispute deploy per-opcode with the EVM profiler: the
    // cost drivers must be CREATE (base + code deposit), the child
    // constructor's SSTOREs, the two STATICCALLs to ecrecover, and
    // KECCAK256. A completed game supplies the signed copy; the deploy is
    // then profiled against a freshly rebuilt pre-dispute state.
    let secrets = bob_wins_secrets();
    let (sched, _report) = play(Strategy::SilentLoser, Strategy::Honest, secrets);

    let mut net = sc_chain::Testnet::new();
    let alice = net.funded_wallet("alice", ether(1000));
    let bob = net.funded_wallet("bob", ether(1000));
    let tl = sc_contracts::Timeline::starting_at(net.now(), 3600);
    let on = sc_contracts::OnChainContract::new();
    let onchain = net
        .deploy(
            &alice,
            on.initcode(alice.address, bob.address, tl),
            U256::ZERO,
            5_000_000,
        )
        .unwrap()
        .contract_address
        .unwrap();
    for w in [&alice, &bob] {
        assert!(
            net.execute(w, onchain, ether(1), on.deposit(), 300_000)
                .unwrap()
                .success
        );
    }
    net.advance_time(4 * 3600);

    let bytecode = game(&sched).offchain_bytecode.clone();
    let copy = SignedCopy::create(bytecode, &[&alice.key, &bob.key]);
    let data =
        on.deploy_verified_instance(&copy.bytecode, &copy.signatures[0], &copy.signatures[1]);
    let (profile, exec_gas) = net.profile_call(bob.address, onchain, U256::ZERO, data, 7_000_000);

    assert_eq!(profile.total_gas(), exec_gas, "profiler is exhaustive");
    // CREATE's exclusive cost = 32,000 base + the 200/byte code deposit.
    let create_gas = profile.gas_of(sc_evm::Op::Create);
    assert!(
        create_gas > 80_000,
        "CREATE {create_gas} carries base + code deposit"
    );
    // The constructor's storage writes run in the child frame and are
    // tallied at SSTORE (participants, secrets, weight → ≥5 slots).
    assert!(profile.count_of(sc_evm::Op::SStore) >= 5);
    // Exactly two ecrecover STATICCALLs.
    assert_eq!(profile.count_of(sc_evm::Op::StaticCall), 2);
    assert!(profile.gas_of(sc_evm::Op::StaticCall) >= 2 * 3_000);
    // keccak over the whole bytecode ran once in the verification.
    assert!(profile.count_of(sc_evm::Op::Keccak256) >= 1);
}
