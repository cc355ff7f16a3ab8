//! Seal ≡ import on *adversarial* blocks: many transactions hammering
//! the same account and the same storage slot, read-modify-write
//! chains, deploys and reverts mixed in, several transactions per
//! sender. Two oracles: a follower importing the chain block by block
//! (import is the reference executor — it re-derives every sender and
//! accepts only matching gas and roots), and a twin chain fed the same
//! operations, which must seal the same block — hash, `state_root`,
//! `receipts_root`, gas, every receipt, every log.

mod common;

use common::assert_follower_replays;
use proptest::prelude::*;
use sc_chain::{ChainConfig, Testnet, Transaction, Wallet};
use sc_primitives::{ether, Address, U256};

/// Runtime that stores calldata word 1 at the slot named by calldata
/// word 0.
const STORE_RUNTIME: [u8; 8] = [0x60, 0x20, 0x35, 0x60, 0x00, 0x35, 0x55, 0x00];

/// Runtime that increments slot 0: `PUSH1 0 SLOAD PUSH1 1 ADD PUSH1 0
/// SSTORE STOP` — every call reads *and* writes the same hot slot.
const RMW_RUNTIME: [u8; 10] = [0x60, 0x00, 0x54, 0x60, 0x01, 0x01, 0x60, 0x00, 0x55, 0x00];

/// Runtime that always reverts with empty data.
const REVERT_RUNTIME: [u8; 5] = [0x60, 0x00, 0x60, 0x00, 0xfd];

/// Runtime that emits one empty LOG0 entry.
const LOG_RUNTIME: [u8; 6] = [0x60, 0x00, 0x60, 0x00, 0xa0, 0x00];

const SENDERS: usize = 6;

/// One transaction of the adversarial block.
#[derive(Debug, Clone, Copy)]
struct Op {
    sender: usize,
    kind: Kind,
    wei: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Plain transfer into one shared hot account.
    TransferHot,
    /// Plain transfer into a sender-specific cold account.
    TransferCold,
    /// `store(0, wei)` — every such tx writes the same slot of the same
    /// contract.
    StoreHotSlot,
    /// `store(sender-disjoint slot, wei)` — same contract, disjoint
    /// slots.
    StoreColdSlot,
    /// Read-modify-write of the shared counter slot.
    Incr,
    /// Call into the always-reverting contract.
    Revert,
    /// Call into the log emitter.
    Log,
    /// Deploy a fresh contract (initcode returning the store runtime).
    Deploy,
}

const KINDS: [Kind; 8] = [
    Kind::TransferHot,
    Kind::TransferCold,
    Kind::StoreHotSlot,
    Kind::StoreColdSlot,
    Kind::Incr,
    Kind::Revert,
    Kind::Log,
    Kind::Deploy,
];

fn arb_op() -> impl Strategy<Value = Op> {
    (0usize..SENDERS, 0usize..KINDS.len(), 1u64..1_000_000_000).prop_map(|(sender, k, wei)| Op {
        sender,
        kind: KINDS[k],
        wei,
    })
}

fn arb_block() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 1..32)
}

fn store_calldata(slot: u64, value: u64) -> Vec<u8> {
    let mut data = Vec::with_capacity(64);
    data.extend_from_slice(&U256::from_u64(slot).to_be_bytes());
    data.extend_from_slice(&U256::from_u64(value).to_be_bytes());
    data
}

struct Fixture {
    net: Testnet,
    wallets: Vec<Wallet>,
    store: Address,
    rmw: Address,
    reverter: Address,
    logger: Address,
}

/// A chain whose genesis funds the senders and the deployer.
fn genesis() -> (Testnet, Vec<Wallet>, Wallet) {
    let wallets: Vec<Wallet> = (0..SENDERS)
        .map(|i| Wallet::from_seed(&format!("w{i}")))
        .collect();
    let deployer = Wallet::from_seed("deployer");
    let alloc: Vec<_> = wallets
        .iter()
        .chain([&deployer])
        .map(|w| (w.address, ether(100)))
        .collect();
    let net = Testnet::with_genesis(ChainConfig::default(), &alloc);
    (net, wallets, deployer)
}

/// Boots a chain and deploys the four fixture contracts (each in its
/// own setup block).
fn fixture() -> Fixture {
    let (mut net, wallets, deployer) = genesis();
    let mut deploy = |runtime: &[u8]| {
        let r = net
            .deploy(
                &deployer,
                sc_evm::wrap_initcode(runtime),
                U256::ZERO,
                200_000,
            )
            .expect("fixture deploy admitted");
        assert!(r.success, "fixture deploy failed: {:?}", r.failure);
        r.contract_address.expect("created")
    };
    let store = deploy(&STORE_RUNTIME);
    let rmw = deploy(&RMW_RUNTIME);
    let reverter = deploy(&REVERT_RUNTIME);
    let logger = deploy(&LOG_RUNTIME);
    Fixture {
        net,
        wallets,
        store,
        rmw,
        reverter,
        logger,
    }
}

type Sealed = (Fixture, sc_chain::Block, Vec<Option<sc_chain::Receipt>>);

/// [`seal`], then the whole chain replayed on a fresh follower.
fn run(ops: &[Op]) -> Sealed {
    let sealed = seal(ops);
    assert_follower_replays(&sealed.0.net, genesis().0);
    sealed
}

/// Submits the whole adversarial op list to a fresh chain, mines ONE
/// block, and returns everything observable.
fn seal(ops: &[Op]) -> Sealed {
    let mut fx = fixture();
    let mut hashes = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let w = &fx.wallets[op.sender];
        let nonce = fx.net.effective_nonce(w.address);
        let price = sc_primitives::gwei(1);
        let tx = match op.kind {
            Kind::TransferHot => Transaction {
                nonce,
                gas_price: price,
                gas_limit: 21_000,
                to: Some(Address([0x99; 20])),
                value: U256::from_u64(op.wei),
                data: vec![],
            },
            Kind::TransferCold => Transaction {
                nonce,
                gas_price: price,
                gas_limit: 21_000,
                to: Some(Address([0xa0 + op.sender as u8; 20])),
                value: U256::from_u64(op.wei),
                data: vec![],
            },
            Kind::StoreHotSlot => Transaction {
                nonce,
                gas_price: price,
                gas_limit: 80_000,
                to: Some(fx.store),
                value: U256::ZERO,
                data: store_calldata(0, op.wei),
            },
            Kind::StoreColdSlot => Transaction {
                nonce,
                gas_price: price,
                gas_limit: 80_000,
                to: Some(fx.store),
                value: U256::ZERO,
                data: store_calldata(64 + (op.sender as u64) * 1024 + i as u64, op.wei),
            },
            Kind::Incr => Transaction {
                nonce,
                gas_price: price,
                gas_limit: 80_000,
                to: Some(fx.rmw),
                value: U256::ZERO,
                data: vec![],
            },
            Kind::Revert => Transaction {
                nonce,
                gas_price: price,
                gas_limit: 80_000,
                to: Some(fx.reverter),
                value: U256::ZERO,
                data: vec![],
            },
            Kind::Log => Transaction {
                nonce,
                gas_price: price,
                gas_limit: 80_000,
                to: Some(fx.logger),
                value: U256::ZERO,
                data: vec![],
            },
            Kind::Deploy => Transaction {
                nonce,
                gas_price: price,
                gas_limit: 200_000,
                to: None,
                value: U256::ZERO,
                data: sc_evm::wrap_initcode(&STORE_RUNTIME),
            },
        };
        hashes.push(fx.net.submit(tx.sign(&w.key)).ok());
    }
    let block = fx.net.mine_block();
    let receipts = hashes
        .iter()
        .map(|h| h.and_then(|h| fx.net.receipt(h).cloned()))
        .collect();
    (fx, block, receipts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: one adversarial block replays on a
    /// follower, and a second fresh chain fed the same operations seals
    /// it identically in every observable way.
    #[test]
    fn mixed_block_replays_on_a_follower(ops in arb_block()) {
        let (fx, block, receipts) = run(&ops);
        let (twin, twin_block, twin_receipts) = seal(&ops);

        prop_assert_eq!(block.hash, twin_block.hash, "block hash diverged");
        prop_assert_eq!(block.state_root, twin_block.state_root);
        prop_assert_eq!(block.receipts_root, twin_block.receipts_root);
        prop_assert_eq!(block.gas_used, twin_block.gas_used);
        prop_assert_eq!(&receipts, &twin_receipts, "receipts diverged");
        prop_assert_eq!(
            fx.net.logs(0, block.number, None),
            twin.net.logs(0, block.number, None),
            "logs diverged"
        );

        let report = fx.net.last_seal_report().expect("sealed at least once");
        prop_assert_eq!(report.txs, block.transactions.len());
    }
}

/// N read-modify-write transactions on one slot from N senders: every
/// increment lands exactly once.
#[test]
fn hot_slot_increments_land_exactly_once_each() {
    let ops: Vec<Op> = (0..SENDERS)
        .map(|sender| Op {
            sender,
            kind: Kind::Incr,
            wei: 1,
        })
        .collect();
    let (fx, block, _) = run(&ops);
    assert_eq!(block.transactions.len(), SENDERS);
    assert_eq!(
        fx.net.storage_at(fx.rmw, U256::ZERO),
        U256::from_u64(SENDERS as u64)
    );
}

/// Same-sender nonce chains: every transaction after a sender's first
/// needs the nonce the previous one bumped, and all of them land in
/// nonce order in one block.
#[test]
fn nonce_chain_from_one_sender_lands_in_order_in_one_block() {
    for n in 2..12 {
        let ops: Vec<Op> = (0..n)
            .map(|i| Op {
                sender: 0,
                kind: KINDS[i % KINDS.len()],
                wei: 1 + i as u64,
            })
            .collect();
        let (fx, block, _) = run(&ops);
        let nonces: Vec<u64> = block.transactions.iter().map(|t| t.tx.nonce).collect();
        assert_eq!(nonces, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(fx.net.nonce_of(fx.wallets[0].address), n as u64);
    }
}
