//! Stress and robustness: long chains, many games on one chain instance,
//! multi-transaction blocks, and adversarial calldata fuzzing.

use onoffchain::chain::{Testnet, Transaction, Wallet, WorldState};
use onoffchain::contracts::{BetSecrets, OnChainContract, Timeline};
use onoffchain::core::SignedCopy;
use onoffchain::evm::Host;
use onoffchain::primitives::{ether, Address, U256};
use std::time::Instant;

#[test]
fn fifty_sequential_games_on_one_chain() {
    // One chain instance hosts 50 consecutive betting games; every game
    // settles by dispute; state stays consistent throughout.
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10_000));
    let bob = net.funded_wallet("bob", ether(10_000));
    let on = OnChainContract::new();
    let off = onoffchain::contracts::OffChainContract::new();

    for round in 0..50u64 {
        let tl = Timeline::starting_at(net.now(), 600);
        let onchain = net
            .deploy(
                &alice,
                on.initcode(alice.address, bob.address, tl),
                U256::ZERO,
                5_000_000,
            )
            .unwrap()
            .contract_address
            .unwrap_or_else(|| panic!("round {round}: deploy"));
        for w in [&alice, &bob] {
            let r = net
                .execute(w, onchain, ether(1), on.deposit(), 300_000)
                .unwrap();
            assert!(r.success, "round {round}: deposit");
        }
        let mut secrets = BetSecrets {
            secret_a: U256::from_u64(round),
            secret_b: U256::from_u64(round * 31 + 7),
            weight: 8,
        };
        while !secrets.winner_is_bob() {
            secrets.secret_a = secrets.secret_a.wrapping_add(U256::ONE);
        }
        let bytecode = off.initcode(alice.address, bob.address, secrets);
        let copy = SignedCopy::create(bytecode, &[&alice.key, &bob.key]);

        let now = net.now();
        net.advance_time(tl.t3 - now + 60);
        let data =
            on.deploy_verified_instance(&copy.bytecode, &copy.signatures[0], &copy.signatures[1]);
        let r = net
            .execute(&bob, onchain, U256::ZERO, data, 7_900_000)
            .unwrap();
        assert!(r.success, "round {round}: dispute deploy {:?}", r.failure);
        let instance = Address::from_u256(net.storage_at(
            onchain,
            U256::from_u64(onoffchain::contracts::DEPLOYED_ADDR_SLOT),
        ));
        let r = net
            .execute(
                &bob,
                instance,
                U256::ZERO,
                off.return_dispute_resolution(onchain),
                7_900_000,
            )
            .unwrap();
        assert!(r.success, "round {round}: resolution");
        assert_eq!(
            net.balance_of(onchain),
            U256::ZERO,
            "round {round}: drained"
        );
    }
    // 50 games × (deploy + 2 deposits + 2 dispute txs) = 250 blocks + genesis.
    assert_eq!(net.head().number, 250);
    // Bob won every pot; Alice paid every pot. Gas went to the coinbase.
    assert!(net.balance_of(bob.address) > ether(10_040));
    assert!(net.balance_of(alice.address) < ether(9_960));
    let total = net
        .balance_of(alice.address)
        .wrapping_add(net.balance_of(bob.address))
        .wrapping_add(net.balance_of(net.config().coinbase));
    assert_eq!(total, ether(20_000), "wei conserved across 250 blocks");
}

#[test]
fn one_block_with_many_interacting_transactions() {
    // Queue deploy-less txs from 8 senders in a single block and verify
    // ordering, nonces, and balances.
    let mut net = Testnet::new();
    let wallets: Vec<Wallet> = (0..8)
        .map(|i| net.funded_wallet(&format!("s{i}"), ether(10)))
        .collect();
    let sink = Address([0x99; 20]);
    // Each sender queues 5 transfers of 0.1 ether before any block is
    // mined.
    for w in &wallets {
        for k in 0..5u64 {
            let tx = Transaction {
                nonce: k,
                gas_price: onoffchain::primitives::gwei(1),
                gas_limit: 21_000,
                to: Some(sink),
                value: ether(1) / U256::from_u64(10),
                data: vec![],
            };
            net.submit(tx.sign(&w.key)).expect("queued");
        }
    }
    let block = net.mine_block();
    assert_eq!(block.transactions.len(), 40);
    assert_eq!(block.gas_used, 40 * 21_000);
    assert_eq!(net.balance_of(sink), ether(4));
    for w in &wallets {
        assert_eq!(net.nonce_of(w.address), 5);
    }
}

#[test]
fn random_calldata_never_breaks_the_contract() {
    // Adversarial fuzz: throw structured garbage at the on-chain betting
    // contract. Every call must cleanly succeed or revert — storage
    // stays coherent, no deposits are mintable from garbage.
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(100));
    let bob = net.funded_wallet("bob", ether(100));
    let attacker = net.funded_wallet("mallory", ether(100));
    let on = OnChainContract::new();
    let tl = Timeline::starting_at(net.now(), 3600);
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

    // Deterministic pseudo-random calldata: real selectors with mangled
    // args, plus pure noise.
    let selectors: Vec<[u8; 4]> = [
        "deposit",
        "refundRoundOne",
        "refundRoundTwo",
        "reassign",
        "deployVerifiedInstance",
        "enforceDisputeResolution",
    ]
    .iter()
    .map(|f| on.compiled.analyzed.selector_of(f).unwrap())
    .collect();
    let mut seed = 0x1234_5678_9abc_def0u64;
    let mut rand_byte = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u8
    };
    for i in 0..120 {
        let mut data = Vec::new();
        if i % 3 != 0 {
            data.extend_from_slice(&selectors[i % selectors.len()]);
        }
        let arg_len = (i * 13) % 300;
        for _ in 0..arg_len {
            data.push(rand_byte());
        }
        let value = if i % 7 == 0 { ether(1) } else { U256::ZERO };
        let r = net
            .execute(&attacker, onchain, value, data, 7_000_000)
            .expect("admitted");
        // Nothing an outsider sends may move funds out of the contract.
        assert_eq!(
            net.balance_of(onchain),
            ether(2),
            "iteration {i}: deposits must be untouchable"
        );
        let _ = r;
    }
    // The legitimate flow still works afterwards.
    net.advance_time(2 * 3600 + 60);
    let r = net
        .execute(&alice, onchain, U256::ZERO, on.reassign(), 300_000)
        .unwrap();
    assert!(
        r.success,
        "contract still functional after the fuzz barrage"
    );
}

#[test]
fn long_chain_blockhash_window_holds() {
    let mut net = Testnet::new();
    for _ in 0..300 {
        net.mine_block();
    }
    assert_eq!(net.head().number, 300);
    // Hash linkage intact across the whole chain.
    for n in 1..=300 {
        let b = net.block(n).unwrap();
        assert_eq!(b.parent_hash, net.block(n - 1).unwrap().hash);
    }
}

/// The scale target: 1024 heterogeneous sessions multiplexed over one
/// node with the fee-market mempool packing blocks. Expensive (minutes
/// in release), so it is ignored in the default run and exercised by
/// the scheduled CI stress job:
/// `cargo test --release -- --ignored scale_1024`.
#[test]
#[ignore = "scheduled stress job: minutes of wall clock at N = 1024"]
fn scale_1024_sessions_settle_and_share_blocks() {
    use onoffchain::core::{
        check_conservation, BettingSpec, ChallengeSpec, CrashPoint, NetworkScheduler, SessionSpec,
        Strategy, SubmitStrategy, WatchStrategy,
    };
    use onoffchain::mempool::PoolConfig;

    let mut secrets = BetSecrets {
        secret_a: U256::from_u64(41),
        secret_b: U256::from_u64(42),
        weight: 16,
    };
    while !secrets.winner_is_bob() {
        secrets.secret_a = secrets.secret_a.wrapping_add(U256::ONE);
    }

    let specs: Vec<SessionSpec> = (0..1024u32)
        .map(|i| {
            let fault_seed = (i % 4 == 0).then_some(0x1024_0000_u64 + u64::from(i));
            let start_delay = u64::from(i % 128) * 30;
            match i % 10 {
                0 => SessionSpec::Betting(BettingSpec {
                    secrets,
                    fault_seed,
                    start_delay,
                    ..BettingSpec::default()
                }),
                1 => SessionSpec::Betting(BettingSpec {
                    alice: Strategy::SilentLoser,
                    secrets,
                    fault_seed,
                    start_delay,
                    ..BettingSpec::default()
                }),
                2 => SessionSpec::Betting(BettingSpec {
                    alice: Strategy::ForgingLoser,
                    secrets,
                    fault_seed,
                    start_delay,
                    ..BettingSpec::default()
                }),
                3 => SessionSpec::Betting(BettingSpec {
                    bob: Strategy::NoShow,
                    secrets,
                    fault_seed,
                    start_delay,
                    ..BettingSpec::default()
                }),
                4 => SessionSpec::Betting(BettingSpec {
                    bob: Strategy::RefusesToSign,
                    secrets,
                    fault_seed,
                    start_delay,
                    ..BettingSpec::default()
                }),
                5 => SessionSpec::Betting(BettingSpec {
                    alice: Strategy::SignsTampered,
                    secrets,
                    fault_seed,
                    start_delay,
                    ..BettingSpec::default()
                }),
                6 => SessionSpec::Challenge(ChallengeSpec {
                    secrets,
                    fault_seed,
                    start_delay,
                    ..ChallengeSpec::default()
                }),
                7 => SessionSpec::Challenge(ChallengeSpec {
                    secrets,
                    submit: SubmitStrategy::False,
                    fault_seed,
                    start_delay,
                    ..ChallengeSpec::default()
                }),
                8 => SessionSpec::Challenge(ChallengeSpec {
                    secrets,
                    submit: SubmitStrategy::False,
                    watch: WatchStrategy::Asleep,
                    fault_seed,
                    start_delay,
                    ..ChallengeSpec::default()
                }),
                _ => SessionSpec::Challenge(ChallengeSpec {
                    secrets,
                    crash: CrashPoint::BeforeSubmit,
                    fault_seed,
                    start_delay,
                    ..ChallengeSpec::default()
                }),
            }
        })
        .collect();

    let mut sched = NetworkScheduler::new(specs, 1, PoolConfig::default(), None);
    let reports = sched.run();

    assert_eq!(reports.len(), 1024);
    for r in &reports {
        assert!(
            r.error.is_none() && r.outcome.is_some(),
            "session {} ({}): outcome {:?}, error {:?}",
            r.id,
            r.kind,
            r.outcome,
            r.error
        );
    }
    let node = sched.network().node(0);
    check_conservation(node).unwrap();
    let blocks = node.head().number;
    let txs: usize = (1..=blocks)
        .filter_map(|n| node.block(n))
        .map(|b| b.transactions.len())
        .sum();
    // The miner seals whenever its pool has work, so density is set by
    // the stagger (8 sessions per 30 s offset): 2.8 txs/block measured.
    assert!(
        txs as f64 / blocks as f64 > 2.0,
        "sessions must share blocks at scale: {txs} txs over {blocks} blocks"
    );
}

// splitmix64 so the address set doesn't correlate with map layout.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}
fn acct(i: u64) -> Address {
    let mut a = [0u8; 20];
    a[..8].copy_from_slice(&mix(i).to_be_bytes());
    a[8..16].copy_from_slice(&mix(i ^ 0xabcd).to_be_bytes());
    Address(a)
}
fn populate(n: u64) -> WorldState {
    let mut s = WorldState::new();
    for i in 0..n {
        s.mint(acct(i), U256::from_u64(i + 1));
        if i % 16 == 0 {
            s.set_storage(acct(i), U256::from_u64(i % 4), U256::from_u64(i + 7));
        }
    }
    s.clear_tx_scratch();
    s
}
fn mean_read_ns(s: &WorldState, n: u64, reads: u64) -> f64 {
    let start = Instant::now();
    let mut sink = U256::ZERO;
    for r in 0..reads {
        sink = sink.wrapping_add(s.storage(acct(mix(r) % n), U256::from_u64(r % 4)));
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    ns / reads as f64
}

/// Smoke-scale version of the million-account read check below: 16x
/// more accounts must not multiply flat-read latency (generous 3x
/// bound — one wall-clock ratio inside one process).
#[test]
fn flat_reads_do_not_scale_with_account_count() {
    let small_ns = mean_read_ns(&populate(5_000), 5_000, 200_000);
    let large_ns = mean_read_ns(&populate(80_000), 80_000, 200_000);
    assert!(
        large_ns <= small_ns * 3.0,
        "flat read latency scaled with state: {small_ns:.1}ns @ 5k -> {large_ns:.1}ns @ 80k"
    );
}

/// The flat-state engine at full paper scale: a million funded accounts
/// (every 16th holding storage) built, folded, churned a block at a
/// time and snapshot-round-tripped. Expensive (a trie fold
/// over 10^6 accounts), so it is ignored in the default run and
/// exercised by the scheduled CI stress job:
/// `cargo test --release -- --ignored million_account`.
#[test]
#[ignore = "scheduled stress job: million-account state build, churn and snapshot"]
fn million_account_state_reads_flat_and_snapshot_round_trips() {
    const N: u64 = 1_000_000;
    let mut s = populate(N);
    assert_eq!(s.account_count(), N as usize);

    // Flat reads must not scale with account count: the full-scale
    // state vs a 10k control, generous 3x bound (shared CI machines).
    let small = populate(10_000);
    let small_ns = mean_read_ns(&small, 10_000, 2_000_000);
    let big_ns = mean_read_ns(&s, N, 2_000_000);
    assert!(
        big_ns <= small_ns * 3.0,
        "reads scaled with state: {small_ns:.1}ns @ 10k -> {big_ns:.1}ns @ 1M"
    );

    // One full fold over the million accounts, then churn 256 blocks
    // with a fold per block, as sealing does.
    s.state_root();
    for b in 0..256u64 {
        for w in 0..16u64 {
            s.set_storage(
                acct(mix(b * 16 + w) % 512),
                U256::from_u64(mix(b + w) % 64),
                U256::from_u64(b + w + 1),
            );
        }
        s.clear_tx_scratch();
        s.state_root();
    }

    // Snapshot round-trip at full scale: the flat content alone must
    // reproduce the exact commitment.
    let churned_root = s.state_root();
    let blob = s.export_snapshot();
    let mut imported = WorldState::import_snapshot(&blob).expect("canonical million-account blob");
    assert_eq!(imported.account_count(), N as usize);
    assert_eq!(
        imported.state_root(),
        churned_root,
        "imported fold lands on the identical root"
    );
}
