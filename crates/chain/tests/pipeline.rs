//! Determinism tests for the block pipeline: batch admission must be
//! observably identical to `submit` one by one, every mined block must
//! replay on a follower (block import is the serial reference executor:
//! it re-derives every sender and refuses a header it cannot
//! reproduce), and a warm analysis cache must change nothing but
//! wall-clock time.

mod common;

use common::assert_follower_replays;
use sc_chain::{
    Block, ChainConfig, Header, ImportError, ImportOutcome, SignedTransaction, Testnet,
    Transaction, TxError, Wallet,
};
use sc_evm::contract_address;
use sc_primitives::{ether, gwei, Address, H256, U256};

/// Runtime code `SSTORE(0, 42); STOP`, preceded by initcode returning it.
const STORE_INITCODE: [u8; 15] = [
    0x65, 0x60, 0x2a, 0x60, 0x00, 0x55, 0x00, // PUSH6 <runtime>
    0x60, 0x00, 0x52, // MSTORE at 0
    0x60, 0x06, 0x60, 0x1a, 0xf3, // RETURN(26, 6)
];

/// Runtime code `RETURN(0, 0)` — state-independent, so every call costs
/// exactly the same gas regardless of prior calls.
const PURE_INITCODE: [u8; 14] = [
    0x64, 0x60, 0x00, 0x60, 0x00, 0xf3, // PUSH5 <runtime>
    0x60, 0x00, 0x52, // MSTORE at 0
    0x60, 0x05, 0x60, 0x1b, 0xf3, // RETURN(27, 5)
];

fn transfer(nonce: u64, to: Address, wei: u64, gas_limit: u64) -> Transaction {
    Transaction {
        nonce,
        gas_price: gwei(1),
        gas_limit,
        to: Some(to),
        value: U256::from_u64(wei),
        data: vec![],
    }
}

/// Three wallets and their genesis allocation: two rich, one nearly
/// broke.
fn genesis() -> (Vec<Wallet>, Vec<(Address, U256)>) {
    let wallets: Vec<Wallet> = ["pipe-rich-0", "pipe-rich-1", "pipe-poor"]
        .iter()
        .map(|seed| Wallet::from_seed(seed))
        .collect();
    let alloc = vec![
        (wallets[0].address, ether(50)),
        (wallets[1].address, ether(50)),
        (wallets[2].address, U256::from_u64(30_000)),
    ];
    (wallets, alloc)
}

/// A fresh chain holding the [`genesis`] allocation.
fn fresh_net() -> (Testnet, Vec<Wallet>) {
    let (wallets, alloc) = genesis();
    (
        Testnet::with_genesis(ChainConfig::default(), &alloc),
        wallets,
    )
}

/// A hand-built child of `head` whose hash commits the given fields,
/// as a peer that skipped sealing would gossip it. The state root is
/// the head's: a block that moves no state.
fn hand_built_child(
    head: &Block,
    timestamp: u64,
    receipts_root: H256,
    gas_used: u64,
    transactions: Vec<SignedTransaction>,
) -> Block {
    let tx_hashes = transactions.iter().map(SignedTransaction::hash).collect();
    Block {
        header: Header::new(
            head.number + 1,
            timestamp,
            head.hash,
            head.state_root,
            receipts_root,
            gas_used,
            tx_hashes,
        ),
        transactions,
    }
}

/// A batch mixing every admission outcome: valid transfers from two
/// senders, a contract creation, a call to the created contract, a
/// tampered signature, a replayed nonce, a future nonce the pool holds
/// back, and an underfunded sender.
fn mixed_batch(wallets: &[Wallet]) -> Vec<SignedTransaction> {
    let (rich0, rich1, poor) = (&wallets[0], &wallets[1], &wallets[2]);
    let sink = Address([0x77; 20]);
    let contract = contract_address(rich0.address, 1);

    let create = Transaction {
        nonce: 1,
        gas_price: gwei(1),
        gas_limit: 200_000,
        to: None,
        value: U256::ZERO,
        data: STORE_INITCODE.to_vec(),
    };
    let call = Transaction {
        nonce: 2,
        gas_price: gwei(1),
        gas_limit: 120_000,
        to: Some(contract),
        value: U256::ZERO,
        data: vec![],
    };

    let mut bad_sig = transfer(0, sink, 5, 21_000).sign(&rich1.key);
    bad_sig.signature.v ^= 0x40; // tampered: recovery id no longer 27/28

    vec![
        transfer(0, sink, 1, 21_000).sign(&rich0.key),
        create.sign(&rich0.key),
        call.sign(&rich0.key),
        bad_sig,
        transfer(0, rich0.address, 7, 21_000).sign(&rich1.key),
        transfer(0, sink, 8, 21_000).sign(&rich1.key), // slot taken, no bump → reject
        transfer(5, sink, 9, 21_000).sign(&rich1.key), // nonce gap → held, not mined
        transfer(1, sink, 11, 21_000).sign(&rich1.key),
        transfer(0, sink, 1, 21_000).sign(&poor.key), // cannot cover gas → reject
    ]
}

/// Everything a block observer could compare between two runs.
#[derive(Debug, PartialEq)]
struct Observation {
    outcomes: Vec<Result<H256, TxError>>,
    block: Block,
    receipts: Vec<sc_chain::Receipt>,
    balances: Vec<U256>,
    nonces: Vec<u64>,
    contract_storage: U256,
}

fn observe(net: &Testnet, wallets: &[Wallet], outcomes: Vec<Result<H256, TxError>>) -> Observation {
    let head = net.head().clone();
    let receipts = net
        .receipts_in_block(head.number)
        .into_iter()
        .cloned()
        .collect();
    Observation {
        outcomes,
        receipts,
        balances: wallets.iter().map(|w| net.balance_of(w.address)).collect(),
        nonces: wallets.iter().map(|w| net.nonce_of(w.address)).collect(),
        contract_storage: net.storage_at(contract_address(wallets[0].address, 1), U256::ZERO),
        block: head,
    }
}

#[test]
fn batch_pipeline_is_observably_identical_to_serial_reference() {
    let (mut serial_net, wallets) = fresh_net();
    let txs = mixed_batch(&wallets);

    let serial_outcomes: Vec<_> = txs.iter().map(|t| serial_net.submit(t.clone())).collect();
    serial_net.mine_block();
    let serial = observe(&serial_net, &wallets, serial_outcomes);

    let (mut batch_net, _) = fresh_net();
    let batch_outcomes = batch_net.submit_batch(txs);
    batch_net.mine_block();
    let batch = observe(&batch_net, &wallets, batch_outcomes);

    assert_eq!(serial, batch);
    assert_follower_replays(&batch_net, fresh_net().0);

    // Sanity on the mix itself: the rejects rejected, the gapped nonce
    // waits in the pool, the contract ran.
    assert_eq!(serial.outcomes[3], Err(TxError::BadSignature));
    assert!(matches!(
        serial.outcomes[5],
        Err(TxError::Underpriced { .. })
    ));
    assert!(matches!(
        serial.outcomes[8],
        Err(TxError::InsufficientFunds)
    ));
    assert_eq!(serial.outcomes.iter().filter(|o| o.is_ok()).count(), 6);
    assert_eq!(serial.block.transactions.len(), 5);
    assert_eq!(batch_net.pending_count(), 1, "nonce 5 waits for 2..=4");
    assert_eq!(serial.contract_storage, U256::from_u64(42));
    assert!(serial.receipts.iter().all(|r| r.success));
}

#[test]
fn warm_analysis_cache_changes_gas_and_results_in_no_way() {
    let (mut net, _) = fresh_net();
    let owner = net.funded_wallet("cache-owner", ether(10));

    let deploy = net
        .deploy(&owner, PURE_INITCODE.to_vec(), U256::ZERO, 200_000)
        .expect("deploy");
    assert!(deploy.success);
    let contract = deploy.contract_address.unwrap();

    // First call analyses the runtime code cold; later calls must hit the
    // cache and be byte-identical in every receipt field that matters.
    let cold = net
        .execute(&owner, contract, U256::ZERO, vec![], 120_000)
        .expect("cold call");
    let cold_stats = net.analysis_cache().stats();

    let mut warm_receipts = Vec::new();
    for _ in 0..4 {
        warm_receipts.push(
            net.execute(&owner, contract, U256::ZERO, vec![], 120_000)
                .expect("warm call"),
        );
    }
    let warm_stats = net.analysis_cache().stats();

    for warm in &warm_receipts {
        assert_eq!(warm.success, cold.success);
        assert_eq!(warm.gas_used, cold.gas_used, "warm cache altered gas");
        assert_eq!(warm.output, cold.output);
        assert_eq!(warm.logs, cold.logs);
    }
    assert_eq!(
        warm_stats.misses, cold_stats.misses,
        "warm calls must not re-analyse"
    );
    assert!(warm_stats.hits >= cold_stats.hits + 4);
}

#[test]
fn empty_and_reject_only_batches_mine_empty_blocks() {
    let (mut net, wallets) = fresh_net();
    assert!(net.submit_batch(vec![]).is_empty());
    let block = net.mine_block();
    assert!(block.transactions.is_empty());

    // A batch where every entry is rejected must leave state untouched.
    let mut bad = transfer(0, Address([0x77; 20]), 1, 21_000).sign(&wallets[0].key);
    bad.signature.v ^= 0x40;
    let outcomes = net.submit_batch(vec![
        bad,
        transfer(0, Address([0x77; 20]), 1, 20_999).sign(&wallets[0].key),
    ]);
    assert_eq!(outcomes[0], Err(TxError::BadSignature));
    assert!(matches!(
        outcomes[1],
        Err(TxError::IntrinsicGasTooLow { .. })
    ));
    let before: Vec<_> = wallets.iter().map(|w| net.balance_of(w.address)).collect();
    let block = net.mine_block();
    assert!(block.transactions.is_empty());
    let after: Vec<_> = wallets.iter().map(|w| net.balance_of(w.address)).collect();
    assert_eq!(before, after);
}

/// Regression: `execute`/`deploy` used to index the receipt map right
/// after one `mine_block` and panicked when the pack left their
/// transaction behind. Two higher-priced full-block transactions fill
/// the next two blocks; the convenience transaction lands in the third.
#[test]
fn execute_mines_until_its_transaction_lands() {
    let (mut net, wallets) = fresh_net();
    let limit = net.config().block_gas_limit;
    for w in &wallets[..2] {
        let hog = Transaction {
            gas_price: gwei(2),
            ..transfer(0, Address([0x77; 20]), 1, limit)
        };
        net.submit(hog.sign(&w.key)).expect("hog admitted");
    }
    let owner = net.funded_wallet("late", ether(1));
    let receipt = net
        .execute(
            &owner,
            Address([0x78; 20]),
            U256::from_u64(5),
            vec![],
            21_000,
        )
        .expect("mined behind the two hogs");
    assert!(receipt.success);
    assert_eq!(receipt.block_number, 3);
    assert_eq!(net.block(1).unwrap().transactions.len(), 1);
    assert_eq!(net.block(2).unwrap().transactions.len(), 1);
    assert_eq!(net.pending_count(), 0);
}

/// Import bounds the block, not just each transaction: a block that
/// burned more gas than the local block gas limit is refused before
/// anything executes, and the refusal leaves no trace.
#[test]
fn import_enforces_the_block_gas_limit() {
    let (wallets, alloc) = genesis();
    let roomy = ChainConfig {
        block_gas_limit: 16_000_000,
        ..ChainConfig::default()
    };
    let mut miner = Testnet::with_genesis(roomy, &alloc);
    // Two transfers carrying 62 kB of non-zero calldata cost 4.237 M
    // intrinsic gas each: one block under the roomy limit, over the
    // default 8 M.
    for nonce in 0..2 {
        let heavy = Transaction {
            data: vec![0xff; 62_000],
            ..transfer(nonce, Address([0x77; 20]), 1, 21_000 + 68 * 62_000)
        };
        miner.submit(heavy.sign(&wallets[0].key)).expect("admitted");
    }
    let fat = miner.mine_block();
    assert_eq!(fat.transactions.len(), 2);
    assert!(fat.gas_used > ChainConfig::default().block_gas_limit);

    let mut twin = Testnet::with_genesis(ChainConfig::default(), &alloc);
    let (clock, balance) = (twin.now(), twin.balance_of(wallets[0].address));
    assert!(matches!(
        twin.import_block(fat),
        Err(ImportError::InvalidBlock { reason }) if reason.contains("block gas limit")
    ));
    assert_eq!(twin.head().number, 0);
    assert_eq!(twin.now(), clock);
    assert_eq!(twin.balance_of(wallets[0].address), balance);
    assert_eq!(twin.nonce_of(wallets[0].address), 0);
    assert_eq!(twin.side_block_count(), 0, "refused block is not kept");

    // The twin is not wedged: a block within its limit still extends it.
    let mut honest = Testnet::with_genesis(ChainConfig::default(), &alloc);
    honest
        .execute(
            &wallets[1],
            Address([0x77; 20]),
            U256::from_u64(1),
            vec![],
            21_000,
        )
        .expect("mined");
    assert_eq!(
        twin.import_block(honest.head().clone()),
        Ok(ImportOutcome::Extended)
    );
}

/// Regression: import used to accept any timestamp and then set the
/// node's clock to it, so one gossiped block dated at or before its
/// parent moved `TIMESTAMP` — and every T1–T3 / challenge-window check
/// it feeds — backwards. A well-formed empty child of the head that
/// does not advance the clock is now refused without a trace.
#[test]
fn import_refuses_a_block_whose_timestamp_does_not_advance() {
    let sink = Address([0x77; 20]);
    let (mut miner, wallets) = fresh_net();
    miner
        .execute(&wallets[1], sink, U256::from_u64(1), vec![], 21_000)
        .expect("mined");
    let (mut twin, _) = fresh_net();
    assert_eq!(
        twin.import_block(miner.head().clone()),
        Ok(ImportOutcome::Extended)
    );

    let head = twin.head().clone();
    let (clock, root) = (twin.now(), twin.prove_account(sink).root);
    let empty_receipts = sc_chain::receipts_root(&[]);
    for timestamp in [head.timestamp, head.timestamp - 3_000] {
        let backdated = hand_built_child(&head, timestamp, empty_receipts, 0, vec![]);
        assert_eq!(
            twin.import_block(backdated),
            Err(ImportError::InvalidBlock {
                reason: "timestamp does not advance"
            })
        );
        assert_eq!(twin.head(), &head);
        assert_eq!(twin.now(), clock);
        assert_eq!(twin.prove_account(sink).root, root);
        assert_eq!(twin.side_block_count(), 0, "refused block is not kept");
    }

    // The honest empty child carries the same roots four seconds on.
    assert_eq!(
        twin.import_block(miner.mine_block()),
        Ok(ImportOutcome::Extended)
    );
    assert_eq!(twin.head().timestamp, head.timestamp + 4);
}

/// Regression: a miner must not seal what its followers refuse.
/// Admission checks each transaction's upfront cost against the state of
/// the moment and the pool knows nothing of balances, so two 0.6-ether
/// transfers from a 1-ether wallet are both admitted and packed. The
/// seal used to execute the second unpaid (a panic in debug; in release
/// a block every follower rejects at its slot re-check). Now the seal
/// applies that same re-check and leaves the transaction out — whether
/// the two share a block or a tight gas limit spills the second into
/// the next one.
#[test]
fn seal_leaves_out_what_the_sender_can_no_longer_afford() {
    let owner = Wallet::from_seed("pipe-overdraft");
    let alloc = [(owner.address, ether(1))];
    let sink = Address([0x77; 20]);
    for block_gas_limit in [ChainConfig::default().block_gas_limit, 30_000] {
        let config = ChainConfig {
            block_gas_limit,
            ..ChainConfig::default()
        };
        let mut net = Testnet::with_genesis(config.clone(), &alloc);
        let [first, second] = [0, 1].map(|nonce| {
            let tx = transfer(nonce, sink, 600_000_000_000_000_000, 21_000);
            net.submit(tx.sign(&owner.key)).expect("affordable alone")
        });

        let block = net.mine_block();
        assert_eq!(block.transactions.len(), 1);
        assert_eq!(block.transactions[0].hash(), first);
        if net.tx_is_pending(second) {
            assert!(net.mine_block().transactions.is_empty(), "spilled");
        }
        assert_follower_replays(&net, Testnet::with_genesis(config, &alloc));

        assert!(net.receipt(second).is_none());
        assert!(!net.tx_is_pending(second));
        assert_eq!(net.drain_evicted(), vec![second]);
        assert_eq!(net.nonce_of(owner.address), 1);
        let held = [owner.address, sink, net.config().coinbase]
            .iter()
            .fold(U256::ZERO, |sum, &a| sum.wrapping_add(net.balance_of(a)));
        assert_eq!(held, net.total_minted());
    }
}

/// Regression: the upfront cost `gas_limit × gas_price + value` is built
/// from outside input and must not wrap. With `gas_limit = 2¹⁵` and
/// `gas_price = 2²⁴¹` the product is ≡ 0 mod 2²⁵⁶ (and a `value` of
/// 2²⁵⁶ − fee does the same to the sum), so a zero-balance wallet used
/// to be admitted at the top of the fee market and mined for free in
/// release, while in debug the miner — and every follower importing the
/// block — panicked settling the gas. Now admission refuses it, and so
/// does import when a peer that skipped admission gossips it in a block.
#[test]
fn wrapped_upfront_cost_is_refused_at_admission_and_at_the_slot() {
    let broke = Wallet::from_seed("pipe-wrapped-fee");
    let sink = Address([0x77; 20]);
    let fee = U256::from_u64(21_000).wrapping_mul(gwei(1));
    let wrapped = [
        Transaction {
            gas_price: U256::from_u64(1) << 241,
            ..transfer(0, sink, 0, 32_768)
        },
        Transaction {
            value: U256::ZERO.wrapping_sub(fee),
            ..transfer(0, sink, 0, 21_000)
        },
    ];
    for tx in wrapped {
        let free = tx.sign(&broke.key);
        let mut net = Testnet::new();
        assert_eq!(net.submit(free.clone()), Err(TxError::InsufficientFunds));
        assert_eq!(
            net.submit_batch(vec![free.clone()]),
            vec![Err(TxError::InsufficientFunds)]
        );

        let head = net.head().clone();
        let forged = hand_built_child(&head, net.now(), head.receipts_root, 21_000, vec![free]);
        assert_eq!(
            net.import_block(forged),
            Err(ImportError::InvalidBlock {
                reason: "sender cannot cover upfront cost"
            })
        );
        assert_eq!(net.head().number, 0);
    }
}
