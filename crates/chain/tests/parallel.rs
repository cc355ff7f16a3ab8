//! Serial ≡ parallel equivalence: a block mined by the optimistic
//! parallel executor must be byte-for-byte what the serial executor
//! produces — block hash, `state_root`, `receipts_root`, gas, every
//! receipt, every log — on *adversarial, conflict-heavy* blocks: many
//! transactions hammering the same account and the same storage slot,
//! read-modify-write chains, deploys and reverts mixed in, several
//! transactions per sender. Two oracles: a twin chain sealing the same
//! block under [`ExecMode::Serial`], and a follower importing the
//! parallel chain block by block (import is the reference executor).

mod common;

use common::assert_follower_replays;
use proptest::prelude::*;
use sc_chain::{ChainConfig, ExecMode, Testnet, Transaction, Wallet};
use sc_primitives::{ether, Address, U256};

/// Runtime that stores calldata word 1 at the slot named by calldata
/// word 0 (same contract as the `parallel_evm` bench).
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

/// A chain in `mode` whose genesis funds the senders and the deployer.
fn genesis(mode: ExecMode) -> (Testnet, Vec<Wallet>, Wallet) {
    let wallets: Vec<Wallet> = (0..SENDERS)
        .map(|i| Wallet::from_seed(&format!("w{i}")))
        .collect();
    let deployer = Wallet::from_seed("deployer");
    let alloc: Vec<_> = wallets
        .iter()
        .chain([&deployer])
        .map(|w| (w.address, ether(100)))
        .collect();
    let config = ChainConfig {
        exec: mode,
        ..ChainConfig::default()
    };
    (Testnet::with_genesis(config, &alloc), wallets, deployer)
}

/// Boots a chain in `mode` and deploys the four fixture contracts
/// (each in its own setup block).
fn fixture(mode: ExecMode) -> Fixture {
    let (mut net, wallets, deployer) = genesis(mode);
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

/// Submits the whole adversarial op list, mines ONE block under `mode`,
/// and returns the digest of everything observable. A parallel chain is
/// also replayed on a follower.
fn run(ops: &[Op], mode: ExecMode) -> (Fixture, sc_chain::Block, Vec<Option<sc_chain::Receipt>>) {
    let mut fx = fixture(mode);
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
    if mode == ExecMode::Parallel {
        assert_follower_replays(&fx.net, genesis(ExecMode::Serial).0);
    }
    let receipts = hashes
        .iter()
        .map(|h| h.and_then(|h| fx.net.receipt(h).cloned()))
        .collect();
    (fx, block, receipts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: one conflict-heavy block, mined by the
    /// optimistic parallel executor vs the serial one, is byte-for-byte
    /// identical in every observable way.
    #[test]
    fn parallel_block_equals_serial_reference(ops in arb_block()) {
        let (pfx, pblock, preceipts) = run(&ops, ExecMode::Parallel);
        let (sfx, sblock, sreceipts) = run(&ops, ExecMode::Serial);

        prop_assert_eq!(pblock.hash, sblock.hash, "block hash diverged");
        prop_assert_eq!(pblock.state_root, sblock.state_root);
        prop_assert_eq!(pblock.receipts_root, sblock.receipts_root);
        prop_assert_eq!(pblock.gas_used, sblock.gas_used);
        prop_assert_eq!(&preceipts, &sreceipts, "receipts diverged");

        let head = pblock.number;
        prop_assert_eq!(
            pfx.net.logs(0, head, None),
            sfx.net.logs(0, head, None),
            "logs diverged"
        );
        for (pw, sw) in pfx.wallets.iter().zip(&sfx.wallets) {
            prop_assert_eq!(pfx.net.balance_of(pw.address), sfx.net.balance_of(sw.address));
            prop_assert_eq!(pfx.net.nonce_of(pw.address), sfx.net.nonce_of(sw.address));
        }
        prop_assert_eq!(
            pfx.net.balance_of(pfx.net.config().coinbase),
            sfx.net.balance_of(sfx.net.config().coinbase),
            "coinbase fees diverged"
        );
        prop_assert_eq!(
            pfx.net.storage_at(pfx.store, U256::ZERO),
            sfx.net.storage_at(sfx.store, U256::ZERO)
        );
        prop_assert_eq!(
            pfx.net.storage_at(pfx.rmw, U256::ZERO),
            sfx.net.storage_at(sfx.rmw, U256::ZERO)
        );

        // The report accounts for every transaction in the block.
        let report = pfx.net.last_seal_report().expect("sealed at least once");
        prop_assert_eq!(report.mode, ExecMode::Parallel);
        prop_assert_eq!(report.txs, pblock.transactions.len());
        prop_assert_eq!(report.speculative + report.reexecuted, report.txs);
    }

    /// Same-sender nonce chains: every tx after a sender's first reads
    /// the nonce the previous one bumped, so chains re-execute — and
    /// still land byte-identical.
    #[test]
    fn nonce_chains_from_one_sender_stay_identical(n in 2usize..12) {
        let ops: Vec<Op> = (0..n)
            .map(|i| Op {
                sender: 0,
                kind: KINDS[i % KINDS.len()],
                wei: 1 + i as u64,
            })
            .collect();
        let (pfx, pblock, _) = run(&ops, ExecMode::Parallel);
        let (_, sblock, _) = run(&ops, ExecMode::Serial);
        prop_assert_eq!(pblock.hash, sblock.hash);
        let report = pfx.net.last_seal_report().expect("sealed");
        // The first tx in the chain speculates against the true base
        // state and commits; later ones conflict on the sender nonce
        // and balance.
        prop_assert!(
            report.reexecuted >= report.txs.saturating_sub(1).min(1),
            "chained txs must conflict: {:?}",
            report
        );
    }
}

/// Deterministic conflict accounting: N read-modify-write txs on one
/// slot from distinct senders — the first commits speculatively, every
/// other conflicts, regardless of thread scheduling.
#[test]
fn rmw_hot_slot_conflicts_are_deterministic() {
    let ops: Vec<Op> = (0..SENDERS)
        .map(|sender| Op {
            sender,
            kind: Kind::Incr,
            wei: 1,
        })
        .collect();
    let (pfx, pblock, _) = run(&ops, ExecMode::Parallel);
    let (_, sblock, _) = run(&ops, ExecMode::Serial);
    assert_eq!(pblock.hash, sblock.hash);
    assert_eq!(
        pfx.net.storage_at(pfx.rmw, U256::ZERO),
        U256::from_u64(SENDERS as u64),
        "every increment landed exactly once"
    );
    let report = pfx.net.last_seal_report().expect("sealed");
    assert_eq!(report.txs, SENDERS);
    assert_eq!(report.speculative, 1, "only the first RMW validates");
    assert_eq!(report.reexecuted, SENDERS - 1);
}

/// Disjoint workload: distinct senders, distinct slots, distinct
/// recipients — everything commits speculatively.
#[test]
fn disjoint_block_commits_fully_speculatively() {
    let ops: Vec<Op> = (0..SENDERS)
        .map(|sender| Op {
            sender,
            kind: if sender % 2 == 0 {
                Kind::StoreColdSlot
            } else {
                Kind::TransferCold
            },
            wei: 10 + sender as u64,
        })
        .collect();
    let (pfx, pblock, _) = run(&ops, ExecMode::Parallel);
    let (_, sblock, _) = run(&ops, ExecMode::Serial);
    assert_eq!(pblock.hash, sblock.hash);
    let report = pfx.net.last_seal_report().expect("sealed");
    assert_eq!(report.txs, SENDERS);
    assert_eq!(
        report.speculative, SENDERS,
        "no conflicts in disjoint block"
    );
    assert_eq!(report.reexecuted, 0);
}
