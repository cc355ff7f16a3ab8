//! Property tests for the chain: value conservation, nonce monotonicity
//! and determinism under random transaction workloads.

mod common;
#[path = "../../primitives/tests/reference/rlp.rs"]
mod rlp_reference;

use common::assert_follower_replays;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rlp_reference::{self as reference, Item};
use sc_chain::{
    encode_account, AccountProof, Block, ChainConfig, Header, HeaderClient, ImportOutcome,
    ReceiptProof, SignedTransaction, StorageProof, Testnet, Transaction, Wallet, WireError,
    WorldState,
};
use sc_crypto::{keccak256, Keccak256};
use sc_evm::Host;
use sc_primitives::rlp::{DecodeError, Rlp};
use sc_primitives::{ether, Address, H256, U256};
use std::sync::OnceLock;

#[derive(Debug, Clone)]
struct Op {
    from: usize,
    to: usize,
    wei: u64,
    gas_limit: u64,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0usize..4, 0usize..4, 0u64..2_000_000_000, 21_000u64..60_000).prop_map(
        |(from, to, wei, gas_limit)| Op {
            from,
            to,
            wei,
            gas_limit,
        },
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 0..24)
}

/// How a batch entry should be constructed: valid, corrupted into an
/// admission reject, or given a future nonce the pool holds back (and
/// that a later valid entry may collide with) — the batch pipeline
/// must mirror serial submits exactly on all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchKind {
    Valid,
    BadSig,
    BadNonce,
}

#[derive(Debug, Clone)]
struct BatchOp {
    op: Op,
    kind: BatchKind,
}

fn arb_batch_ops() -> impl Strategy<Value = Vec<BatchOp>> {
    proptest::collection::vec(
        (arb_op(), 0u8..10).prop_map(|(op, k)| BatchOp {
            op,
            kind: match k {
                0 => BatchKind::BadSig,
                1 => BatchKind::BadNonce,
                _ => BatchKind::Valid,
            },
        }),
        0..24,
    )
}

fn wallets() -> Vec<Wallet> {
    (0..4)
        .map(|i| Wallet::from_seed(&format!("w{i}")))
        .collect()
}

fn total_supply(net: &Testnet, wallets: &[Wallet]) -> U256 {
    let mut sum = net.balance_of(net.config().coinbase);
    for w in wallets {
        sum = sum.wrapping_add(net.balance_of(w.address));
    }
    sum
}

/// Accounts of a random small state: `(address byte, balance, code
/// length, slots)`. Balance and code may both be zero (a storage-only
/// entry, or nothing at all), addresses and slot keys may repeat.
type SnapshotAccounts = Vec<(u8, u64, usize, Vec<(u64, u64)>)>;

fn arb_snapshot_accounts() -> impl Strategy<Value = SnapshotAccounts> {
    let slots = proptest::collection::vec((0u64..6, 1u64..4), 0..4);
    proptest::collection::vec((0u8..6, 0u64..3, 0usize..3, slots), 0..5)
}

/// Applies one mutation to a snapshot blob. Kinds 0–2 swap, duplicate
/// or drop an item of the account list or of one account's slot list
/// (`i` picks the list, `j` the positions); 3 flips a bit; 4 truncates.
fn mutate_snapshot(blob: &mut Vec<u8>, (kind, i, j): (u8, usize, usize)) {
    if kind == 3 {
        let at = i % blob.len().max(1);
        if let Some(byte) = blob.get_mut(at) {
            *byte ^= 1 << (j % 8);
        }
        return;
    }
    if kind == 4 {
        blob.truncate(i % (blob.len() + 1));
        return;
    }
    // An earlier flip or truncation may have left nothing to restructure.
    let Ok(Item::List(mut entries)) = reference::decode(blob) else {
        return;
    };
    let pick = i % (entries.len() + 1);
    let list = if pick == entries.len() {
        &mut entries
    } else {
        match &mut entries[pick] {
            Item::List(fields) => match fields.get_mut(4) {
                Some(Item::List(slots)) => slots,
                _ => return,
            },
            Item::Bytes(_) => return,
        }
    };
    if list.is_empty() {
        return;
    }
    let (x, y) = (j % list.len(), (j / list.len()) % list.len());
    match kind {
        0 => list.swap(x, y),
        1 => list.insert(y, list[x].clone()),
        _ => drop(list.remove(x)),
    }
    *blob = reference::encode_list(&entries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The snapshot decode boundary: whatever bytes arrive, import never
    /// panics, and a blob it accepts is exactly the blob the resulting
    /// state exports — there is one encoding per state, so two nodes
    /// that accept the same bytes hold the same state and vice versa.
    #[test]
    fn snapshot_import_accepts_only_what_it_would_export(
        accounts in arb_snapshot_accounts(),
        mutations in proptest::collection::vec((0u8..5, 0usize..4096, 0usize..4096), 0..3),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut state = WorldState::new();
        for (a, balance, code_len, slots) in &accounts {
            let a = Address([*a; 20]);
            state.mint(a, U256::from_u64(*balance));
            if *code_len > 0 {
                state.install_code(a, vec![0x5b; *code_len]);
            }
            for (k, v) in slots {
                state.set_storage(a, U256::from_u64(*k), U256::from_u64(*v));
            }
        }
        let mut blob = state.export_snapshot();
        prop_assert!(WorldState::import_snapshot(&blob).is_ok(), "own export refused");
        for m in mutations {
            mutate_snapshot(&mut blob, m);
        }
        for input in [blob, noise] {
            if let Ok(imported) = WorldState::import_snapshot(&input) {
                prop_assert_eq!(imported.export_snapshot(), input);
            }
        }
    }
}

/// The encodings the wire property starts from: a sealed block holding
/// a call with calldata and a create, its header, and its first
/// transaction. Built once: signing is the slow part.
fn wire_samples() -> &'static [Vec<u8>; 3] {
    static SAMPLES: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let ws = wallets();
        let alloc: Vec<_> = ws.iter().map(|w| (w.address, ether(10))).collect();
        let mut net = Testnet::with_genesis(ChainConfig::default(), &alloc);
        for (i, to) in [Some(ws[1].address), None].into_iter().enumerate() {
            let tx = Transaction {
                nonce: 0,
                gas_price: sc_primitives::gwei(1),
                gas_limit: 100_000,
                to,
                value: U256::from_u64(7),
                data: vec![0x60, 0x00, 0x60, 0x00, 0xf3],
            };
            net.submit(tx.sign(&ws[i].key)).unwrap();
        }
        let block = net.mine_block();
        assert_eq!(block.transactions.len(), 2);
        [
            block.encode(),
            header_of(&block).encode(),
            block.transactions[0].encode(),
        ]
    })
}

/// The header a light client is served for `block`, rebuilt from the
/// block's fields and the hashes of the bodies it carries.
fn header_of(block: &Block) -> Header {
    Header::new(
        block.number,
        block.timestamp,
        block.parent_hash,
        block.state_root,
        block.receipts_root,
        block.gas_used,
        block
            .transactions
            .iter()
            .map(SignedTransaction::hash)
            .collect(),
    )
}

/// The wire format as a cross-commit gate, like `determinism.rs`: the
/// bytes a sealed block and its header travel as, and the identity a
/// receiver derives from them, are pinned.
#[test]
fn wire_encodings_are_pinned() {
    let [block, header, _] = wire_samples();
    assert_eq!(
        format!("{}", keccak256(block)),
        "0x1f50623af8fcd5983277746a35d4f176c8be69c37450021d8a2d0c4c657208b1",
        "block encoding diverged"
    );
    assert_eq!(
        format!("{}", keccak256(header)),
        "0x833391f247ed781dca0707247db3b669754e033847fe72edf809c573b1985aaa",
        "header encoding diverged"
    );
    let decoded = Block::decode(block).unwrap();
    assert_eq!(
        format!("{}", decoded.hash),
        "0x833391f247ed781dca0707247db3b669754e033847fe72edf809c573b1985aaa",
        "decoded block hash diverged"
    );
    assert_eq!(Header::decode(header).unwrap().hash, decoded.hash);
}

/// One byte mutation: `(kind, position, byte)`. Half the bytes are zero,
/// the one value that makes an integer field non-canonical in place.
fn arb_byte_mutation() -> impl Strategy<Value = (u8, usize, u8)> {
    (0u8..3, 0usize..4096, prop_oneof![Just(0u8), any::<u8>()])
}

/// One case of the wire property: sample `pick`, after one byte
/// overwritten (kind 0), inserted (1) or deleted (2), and `noise`, fed to
/// every gossip decoder. None may panic, and each input a decoder
/// accepts is exactly what the decoded value encodes back to.
fn wire_case(
    pick: usize,
    (kind, at, byte): (u8, usize, u8),
    noise: &[u8],
) -> Result<(), TestCaseError> {
    let sample = &wire_samples()[pick];
    let mut mutated = sample.clone();
    let at = at % (mutated.len() + 1);
    match kind {
        0 if at < mutated.len() => mutated[at] = byte,
        1 => mutated.insert(at, byte),
        _ if at < mutated.len() => drop(mutated.remove(at)),
        _ => {}
    }
    for input in [&sample[..], &mutated[..], noise] {
        if let Ok(block) = Block::decode(input) {
            prop_assert_eq!(block.encode(), input);
        }
        if let Ok(header) = Header::decode(input) {
            prop_assert_eq!(header.encode(), input);
        }
        if let Ok(tx) = SignedTransaction::decode(input) {
            prop_assert_eq!(tx.encode(), input);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The gossip decode boundary, in the shape of the snapshot property
    /// above: no byte string panics `Block`, `Header` or
    /// `SignedTransaction` decoding, and accepted frames re-encode to
    /// themselves — so a node may re-flood the bytes that arrived.
    #[test]
    fn wire_decoders_accept_only_what_they_would_encode(
        pick in 0usize..3,
        mutation in arb_byte_mutation(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        wire_case(pick, mutation, &noise)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The release sweep of the wire property.
    #[test]
    #[ignore = "10,000 cases; run in release"]
    fn wire_sweep_10000_cases(
        pick in 0usize..3,
        mutation in arb_byte_mutation(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        wire_case(pick, mutation, &noise)?;
    }
}

/// A frame of nested lists of at least `min_len` bytes, each list
/// holding only the next: the header lengths are worked out from the
/// innermost `0xc0` outwards, then written outermost first.
fn nested_lists(min_len: usize) -> Vec<u8> {
    let mut headers = Vec::new();
    let mut len = 1;
    while len < min_len {
        let header = if len < 56 {
            vec![0xc0 + len as u8]
        } else {
            let be = (len as u64).to_be_bytes();
            let skip = be.iter().take_while(|&&b| b == 0).count();
            [&[0xf7 + (8 - skip) as u8][..], &be[skip..]].concat()
        };
        len += header.len();
        headers.push(header);
    }
    let mut frame: Vec<u8> = headers.into_iter().rev().flatten().collect();
    frame.push(0xc0);
    frame
}

#[test]
fn deeply_nested_frames_are_refused_not_overflowed() {
    let frame = nested_lists(1 << 20);
    assert!(frame.len() >= 1 << 20);
    assert_eq!(Rlp::new(&frame), Err(DecodeError::TooDeep));
    let too_deep = WireError::Rlp(DecodeError::TooDeep);
    assert_eq!(Block::decode(&frame).unwrap_err(), too_deep);
    assert_eq!(Header::decode(&frame).unwrap_err(), too_deep);
    assert_eq!(SignedTransaction::decode(&frame).unwrap_err(), too_deep);
}

/// One byte of `base` overwritten, inserted or deleted, or `base`
/// truncated, at a seeded position. Half the written bytes are zero.
fn mutate_bytes(base: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let mut b = base.to_vec();
    let at = rng.below(b.len() as u64 + 1) as usize;
    let byte = if rng.below(2) == 0 {
        0
    } else {
        rng.next_u32() as u8
    };
    match rng.below(4) {
        0 if at < b.len() => b[at] = byte,
        1 => b.insert(at, byte),
        2 if at < b.len() => drop(b.remove(at)),
        _ => b.truncate(at),
    }
    b
}

/// The other side of `wire_encodings_are_pinned`: *which* verdict every
/// decoder returns on a seeded corpus of rejected and accepted inputs —
/// the gossip samples, a snapshot blob, account leaves and slot values
/// behind Merkle paths, and the witnesses' nodes, each after single-byte
/// overwrites, inserts, deletes and truncations, plus nested-list frames.
/// The `Debug` of every result (field names in `WireError::Malformed`
/// included) goes into one keccak, so a decoder that changes an error
/// for the same bytes moves the pin.
#[test]
fn decoder_verdicts_are_pinned() {
    let mut rng = TestRng::new(46);
    let mut digest = Keccak256::new();
    let mut verdicts = 0usize;
    let mut verdict = |v: String| {
        digest.update(v.as_bytes());
        digest.update(&[0]);
        verdicts += 1;
    };

    let mut state = WorldState::new();
    for i in 1..6u8 {
        let a = Address([i; 20]);
        state.mint(a, U256::from_u64(u64::from(i) << 40));
        state.install_code(a, vec![0x5b; usize::from(i) * 11]);
        for k in 0..u64::from(i) {
            state.set_storage(a, U256::from_u64(k * 300), U256::from_u64(k + 1));
        }
    }
    let snapshot = state.export_snapshot();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for base in wire_samples().iter().chain([&snapshot]) {
        frames.push(base.clone());
        for _ in 0..400 {
            frames.push(mutate_bytes(base, &mut rng));
        }
    }
    for len in (0..120).chain([1 << 10, 1 << 16]) {
        let frame = nested_lists(len);
        frames.push(mutate_bytes(&frame, &mut rng));
        frames.push(frame);
    }
    for f in &frames {
        verdict(format!("{:?}", Block::decode(f)));
        verdict(format!("{:?}", Header::decode(f)));
        verdict(format!("{:?}", SignedTransaction::decode(f)));
        let imported = WorldState::import_snapshot(f).map(|s| keccak256(&s.export_snapshot()));
        verdict(format!("{imported:?}"));
        let key = &f[..f.len().min(3)];
        let walked = sc_trie::verify_proof(keccak256(f), key, std::slice::from_ref(f));
        verdict(format!("{walked:?}"));
    }

    // Account leaves and slot values behind honest Merkle paths, so the
    // leaf decoders see the mutated bytes.
    let (address, slot) = (Address([0x5a; 20]), U256::from_u64(9));
    let leaf = encode_account(
        3,
        U256::from_u64(1 << 50),
        H256([0x11; 32]),
        H256([0x22; 32]),
    );
    let slot_value = vec![0x83, 1, 2, 3];
    for _ in 0..300 {
        let mut accounts = sc_trie::SecureTrie::new();
        accounts.insert(address.as_bytes(), mutate_bytes(&leaf, &mut rng));
        let root = accounts.root();
        let witness = AccountProof {
            address,
            nonce: 3,
            balance: U256::from_u64(1 << 50),
            root,
            account_proof: accounts.prove(address.as_bytes()),
        };
        verdict(format!("{:?}", witness.proven_parts(root)));
        verdict(format!("{:?}", witness.verify(root)));

        let mut slots = sc_trie::SecureTrie::new();
        slots.insert(&slot.to_be_bytes(), mutate_bytes(&slot_value, &mut rng));
        let storage_root = slots.root();
        let mut accounts = sc_trie::SecureTrie::new();
        accounts.insert(
            address.as_bytes(),
            encode_account(1, U256::ONE, storage_root, H256([0x22; 32])),
        );
        let root = accounts.root();
        let witness = StorageProof {
            address,
            slot,
            value: U256::from_u64(0x010203),
            root,
            account_proof: accounts.prove(address.as_bytes()),
            storage_proof: slots.prove(&slot.to_be_bytes()),
        };
        verdict(format!("{:?}", witness.proven_value(root)));
        verdict(format!("{:?}", witness.verify(root)));
    }

    // The witnesses' own nodes, mutated in place.
    let w = witnesses();
    for round in 0..600usize {
        let mutation = (
            rng.below(7) as u8,
            rng.below(64) as usize,
            rng.below(1024) as usize,
            rng.next_u32() as u8,
        );
        let noise = mutate_bytes(&frames[round % frames.len()], &mut rng);
        let mut storage = w.storage[round % w.storage.len()].clone();
        if round % 2 == 0 {
            mutate_path(&mut storage.account_proof, mutation, &noise);
        } else {
            mutate_path(&mut storage.storage_proof, mutation, &noise);
        }
        verdict(format!("{:?}", storage.proven_value(w.state_root)));
        verdict(format!("{:?}", storage.verify(w.state_root)));
        let mut account = w.accounts[round % w.accounts.len()].clone();
        mutate_path(&mut account.account_proof, mutation, &noise);
        verdict(format!("{:?}", account.verify(w.state_root)));
        let mut receipt = w.receipts[round % w.receipts.len()].clone();
        mutate_path(&mut receipt.proof, mutation, &noise);
        verdict(format!("{:?}", receipt.verify(w.receipts_root)));
        let key = receipt
            .proof
            .first()
            .map_or(&[][..], |n| &n[..n.len().min(2)]);
        let walked = sc_trie::verify_proof(w.receipts_root, key, &receipt.proof);
        verdict(format!("{walked:?}"));
    }

    assert!(verdicts >= 2_000 * 5, "{verdicts} verdicts");
    assert_eq!(
        format!("{}", digest.finalize()),
        "0xb0f12a9623b44ce3c8404b31ddfd66b25169ad1e2e190399b9f151be5b2569b9",
        "a decoder's verdict moved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn value_is_conserved(ops in arb_ops()) {
        let mut net = Testnet::new();
        let ws = wallets();
        for w in &ws {
            net.faucet(w.address, ether(10));
        }
        let initial = total_supply(&net, &ws);
        for op in &ops {
            let from = &ws[op.from];
            let tx = Transaction {
                nonce: net.nonce_of(from.address),
                gas_price: sc_primitives::gwei(1),
                gas_limit: op.gas_limit,
                to: Some(ws[op.to].address),
                value: U256::from_u64(op.wei),
                data: vec![],
            };
            // Some submissions are legitimately rejected (balance); both
            // paths must conserve value.
            let _ = net.submit(tx.sign(&from.key));
            net.mine_block();
        }
        prop_assert_eq!(total_supply(&net, &ws), initial, "wei created or destroyed");
    }

    #[test]
    fn nonces_count_accepted_transactions(ops in arb_ops()) {
        let mut net = Testnet::new();
        let ws = wallets();
        for w in &ws {
            net.faucet(w.address, ether(10));
        }
        let mut accepted = [0u64; 4];
        for op in &ops {
            let from = &ws[op.from];
            let tx = Transaction {
                nonce: net.nonce_of(from.address),
                gas_price: sc_primitives::gwei(1),
                gas_limit: op.gas_limit,
                to: Some(ws[op.to].address),
                value: U256::from_u64(op.wei),
                data: vec![],
            };
            if net.submit(tx.sign(&from.key)).is_ok() {
                accepted[op.from] += 1;
            }
            net.mine_block();
        }
        for (i, w) in ws.iter().enumerate() {
            prop_assert_eq!(net.nonce_of(w.address), accepted[i]);
        }
    }

    #[test]
    fn batch_admission_matches_serial_reference(ops in arb_batch_ops()) {
        // Pre-sign one batch: per-sender sequential nonces, with some
        // entries corrupted (tampered signature / nonce 7 ahead).
        let build_txs = || {
            let ws = wallets();
            let mut next_nonce = [0u64; 4];
            ops.iter()
                .map(|op| {
                    let from = &ws[op.op.from];
                    let nonce = match op.kind {
                        BatchKind::BadNonce => next_nonce[op.op.from] + 7,
                        _ => {
                            let n = next_nonce[op.op.from];
                            next_nonce[op.op.from] += 1;
                            n
                        }
                    };
                    let tx = Transaction {
                        nonce,
                        gas_price: sc_primitives::gwei(1),
                        gas_limit: op.op.gas_limit,
                        to: Some(ws[op.op.to].address),
                        value: U256::from_u64(op.op.wei),
                        data: vec![],
                    };
                    let mut signed = tx.sign(&from.key);
                    if op.kind == BatchKind::BadSig {
                        signed.signature.v ^= 0x40;
                    }
                    signed
                })
                .collect::<Vec<_>>()
        };

        let fresh = || {
            let alloc: Vec<_> = wallets().iter().map(|w| (w.address, ether(10))).collect();
            Testnet::with_genesis(ChainConfig::default(), &alloc)
        };

        let mut serial_net = fresh();
        let serial: Vec<_> = build_txs()
            .into_iter()
            .map(|t| serial_net.submit(t))
            .collect();
        let serial_block = serial_net.mine_block();

        let mut batch_net = fresh();
        let batch = batch_net.submit_batch(build_txs());
        let batch_block = batch_net.mine_block();

        prop_assert_eq!(&serial, &batch, "admission outcomes diverged");
        prop_assert_eq!(serial_block.hash, batch_block.hash, "blocks diverged");
        // The reference executor — a follower re-deriving every sender
        // and replaying serially — reproduces the block.
        assert_follower_replays(&batch_net, fresh());
        for w in &wallets() {
            prop_assert_eq!(
                serial_net.balance_of(w.address),
                batch_net.balance_of(w.address)
            );
            prop_assert_eq!(serial_net.nonce_of(w.address), batch_net.nonce_of(w.address));
        }
    }

    #[test]
    fn workload_is_deterministic(ops in arb_ops()) {
        let run = |ops: &[Op]| {
            let mut net = Testnet::new();
            let ws = wallets();
            for w in &ws {
                net.faucet(w.address, ether(10));
            }
            for op in ops {
                let from = &ws[op.from];
                let tx = Transaction {
                    nonce: net.nonce_of(from.address),
                    gas_price: sc_primitives::gwei(1),
                    gas_limit: op.gas_limit,
                    to: Some(ws[op.to].address),
                    value: U256::from_u64(op.wei),
                    data: vec![],
                };
                let _ = net.submit(tx.sign(&from.key));
                net.mine_block();
            }
            (
                ws.iter().map(|w| net.balance_of(w.address)).collect::<Vec<_>>(),
                net.head().hash,
            )
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }
}

/// A fork tree: per branch `(parent, fork, len)`. Branch `i > 0` copies
/// the first `fork` blocks of branch `parent` (both taken modulo what
/// exists), then seals `len` blocks of its own.
fn arb_fork_tree() -> impl Strategy<Value = Vec<(usize, u64, u64)>> {
    proptest::collection::vec((0usize..3, 0u64..4, 1u64..4), 2..4)
}

/// Seals the fork tree on honest nodes sharing one genesis: branch `i`
/// imports its prefix, then seals one transfer from wallet `i` per
/// block, so no two branches seal the same block. Returns every
/// distinct block above genesis, ordered by hash.
fn fork_tree(specs: &[(usize, u64, u64)]) -> Vec<Block> {
    let ws = wallets();
    let mut chains: Vec<Vec<Block>> = Vec::new();
    for (i, &(parent, fork, len)) in specs.iter().enumerate() {
        let mut net = fork_genesis();
        if i > 0 {
            let prefix = &chains[parent % i];
            let fork = fork as usize % (prefix.len() + 1);
            for block in &prefix[..fork] {
                assert_eq!(net.import_block(block.clone()), Ok(ImportOutcome::Extended));
            }
        }
        for nonce in 0..len {
            let tx = Transaction {
                nonce,
                gas_price: sc_primitives::gwei(1),
                gas_limit: 21_000,
                to: Some(ws[3].address),
                value: U256::from_u64(1 + nonce),
                data: vec![],
            };
            net.submit(tx.sign(&ws[i].key)).unwrap();
            assert_eq!(net.mine_block().transactions.len(), 1);
        }
        chains.push(
            (1..=net.head().number)
                .map(|n| net.block(n).unwrap().clone())
                .collect(),
        );
    }
    let mut blocks: Vec<Block> = chains.into_iter().flatten().collect();
    blocks.sort_by_key(|b| b.hash.0);
    blocks.dedup_by_key(|b| b.hash);
    blocks
}

/// The genesis every node of a fork tree shares.
fn fork_genesis() -> Testnet {
    let alloc: Vec<_> = wallets().iter().map(|w| (w.address, ether(10))).collect();
    Testnet::with_genesis(ChainConfig::default(), &alloc)
}

/// One case of the arrival-order property: every block of a fork tree,
/// plus `dups` repeats, reaches a fresh follower as a block and a fresh
/// light client as a header, in the order `keys` sorts them into. Both
/// must end on the highest tip (ties to the smaller hash) whatever the
/// order, and the follower must hold exactly that tip's state.
fn arrival_case(
    specs: &[(usize, u64, u64)],
    keys: &[u64],
    dups: &[usize],
) -> Result<(), TestCaseError> {
    let blocks = fork_tree(specs);
    let best = blocks
        .iter()
        .max_by(|a, b| a.number.cmp(&b.number).then(b.hash.0.cmp(&a.hash.0)))
        .expect("every branch seals a block");
    let mut deliveries: Vec<(u64, usize)> = (0..blocks.len())
        .chain(dups.iter().map(|d| d % blocks.len()))
        .zip(keys)
        .map(|(i, &key)| (key, i))
        .collect();
    deliveries.sort_unstable();

    let mut follower = fork_genesis();
    let mut client = HeaderClient::new(header_of(follower.head()));
    for (_, i) in deliveries {
        let block = &blocks[i];
        prop_assert!(follower.import_block(block.clone()).is_ok());
        prop_assert!(client.import_header(header_of(block)).is_ok());
    }
    prop_assert_eq!(follower.head().hash, best.hash);
    prop_assert_eq!(client.head().hash, best.hash);
    prop_assert_eq!(follower.state.state_root(), best.state_root);
    let side = blocks.len() - best.number as usize;
    prop_assert_eq!(follower.side_block_count(), side);
    prop_assert_eq!(client.side_count(), side);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fork choice does not depend on arrival order: a full node and a
    /// light client fed the same tree, shuffled and with repeats, pick
    /// the same head.
    #[test]
    fn fork_choice_is_independent_of_arrival_order(
        specs in arb_fork_tree(),
        keys in proptest::collection::vec(any::<u64>(), 16),
        dups in proptest::collection::vec(0usize..64, 0..6),
    ) {
        arrival_case(&specs, &keys, &dups)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The release sweep of the arrival-order property.
    #[test]
    #[ignore = "1,000 cases; run in release"]
    fn fork_choice_sweep_1000_cases(
        specs in arb_fork_tree(),
        keys in proptest::collection::vec(any::<u64>(), 16),
        dups in proptest::collection::vec(0usize..64, 0..6),
    ) {
        arrival_case(&specs, &keys, &dups)?;
    }
}

/// Honest witnesses the proof-bytes property mutates: storage proofs of
/// a present and an absent slot, account proofs of a present and an
/// absent account, and receipt proofs out of a receipts trie whose
/// short entries inline into their parents.
struct Witnesses {
    state_root: sc_primitives::H256,
    storage: Vec<StorageProof>,
    accounts: Vec<AccountProof>,
    receipts_root: sc_primitives::H256,
    receipts: Vec<ReceiptProof>,
}

fn witnesses() -> &'static Witnesses {
    static WITNESSES: OnceLock<Witnesses> = OnceLock::new();
    WITNESSES.get_or_init(|| {
        let mut state = WorldState::new();
        for i in 0..300u64 {
            let mut a = [0u8; 20];
            a[..8].copy_from_slice(&i.to_be_bytes());
            state.mint(Address(a), U256::from_u64(1 + i * 7919));
        }
        let contract = Address([0xcc; 20]);
        state.install_code(contract, vec![0x5b, 0x00]);
        for slot in 0..64u64 {
            state.set_storage(contract, U256::from_u64(slot), U256::from_u64(slot + 1));
        }
        state.clear_tx_scratch();
        let state_root = state.state_root();
        let storage = vec![
            state.prove_storage(contract, U256::from_u64(5)),
            state.prove_storage(contract, U256::from_u64(1_000)),
        ];
        let accounts = vec![
            state.prove_account(Address([0; 20])),
            state.prove_account(Address([0xab; 20])),
        ];

        let receipt = |i: u64| vec![0xc0 + (i % 40) as u8; 1 + (i as usize * 5) % 48];
        let key = |i: u64| reference::encode(&Item::u64(i));
        let mut trie = sc_trie::Trie::new();
        for i in 0..40 {
            trie.insert(&key(i), receipt(i));
        }
        let receipts_root = trie.root();
        let receipts = [0, 3, 17, 39]
            .into_iter()
            .map(|i| ReceiptProof {
                tx_hash: keccak256(&key(i)),
                block_number: 1,
                tx_index: i,
                receipt_rlp: receipt(i),
                proof: trie.prove(&key(i)),
            })
            .collect();
        Witnesses {
            state_root,
            storage,
            accounts,
            receipts_root,
            receipts,
        }
    })
}

/// One change to a Merkle path: a byte overwritten (kind 0), inserted
/// (1) or deleted (2), the node truncated (3), replaced by `noise` (4),
/// dropped (5) or `noise` appended (6), at node `node` and byte `at`
/// (both taken modulo the sizes).
fn mutate_path(
    path: &mut Vec<Vec<u8>>,
    (kind, node, at, byte): (u8, usize, usize, u8),
    noise: &[u8],
) {
    if path.is_empty() || kind == 6 {
        path.push(noise.to_vec());
        return;
    }
    let i = node % path.len();
    let n = &mut path[i];
    let at = at % (n.len() + 1);
    match kind {
        0 if at < n.len() => n[at] = byte,
        1 => n.insert(at, byte),
        2 if at < n.len() => drop(n.remove(at)),
        3 => n.truncate(at),
        4 => *n = noise.to_vec(),
        5 => drop(path.remove(i)),
        _ => {}
    }
}

fn arb_path_mutation() -> impl Strategy<Value = (u8, usize, usize, u8)> {
    (0u8..7, 0usize..64, 0usize..1024, any::<u8>())
}

/// One case of the proof-bytes property. Every verifier runs on the
/// mutated witness and on an arbitrary node list whose first entry is
/// taken as the root (so the walk decodes it). None may panic, and a
/// mutated honest witness either fails or proves exactly what the
/// honest one proves.
fn proof_bytes_case(
    pick: usize,
    mutation: (u8, usize, usize, u8),
    noise: &[Vec<u8>],
) -> Result<(), TestCaseError> {
    let w = witnesses();
    let first = noise.first().map_or(&[][..], Vec::as_slice);
    let garbage_root = keccak256(first);
    let garbage: Vec<Vec<u8>> = noise.to_vec();
    let one = noise.last().map_or(&[][..], Vec::as_slice);

    let honest = &w.storage[pick % w.storage.len()];
    let mut forged = honest.clone();
    if pick.is_multiple_of(2) {
        mutate_path(&mut forged.account_proof, mutation, one);
    } else {
        mutate_path(&mut forged.storage_proof, mutation, one);
    }
    let proven = honest.proven_value(w.state_root).unwrap();
    if let Ok(v) = forged.proven_value(w.state_root) {
        prop_assert_eq!(v, proven);
    }
    prop_assert_eq!(
        forged.verify(w.state_root).is_ok(),
        forged.proven_value(w.state_root).is_ok()
    );
    forged.account_proof = garbage.clone();
    forged.storage_proof = garbage.clone();
    let _ = forged.verify(garbage_root);
    let _ = forged.proven_value(garbage_root);

    let honest = &w.accounts[pick % w.accounts.len()];
    let mut forged = honest.clone();
    mutate_path(&mut forged.account_proof, mutation, one);
    let proven = honest.proven_parts(w.state_root).unwrap();
    if let Ok(parts) = forged.proven_parts(w.state_root) {
        prop_assert_eq!(parts, proven);
    }
    forged.account_proof = garbage.clone();
    let _ = forged.proven_parts(garbage_root);

    let honest = &w.receipts[pick % w.receipts.len()];
    let mut forged = honest.clone();
    mutate_path(&mut forged.proof, mutation, one);
    let key = reference::encode(&Item::u64(honest.tx_index));
    if let Ok(leaf) = sc_trie::verify_proof(w.receipts_root, &key, &forged.proof) {
        prop_assert_eq!(leaf, Some(honest.receipt_rlp.clone()));
    }
    let _ = forged.verify(w.receipts_root);
    let mut receipt = vec![forged.receipt_rlp.clone()];
    mutate_path(&mut receipt, mutation, one);
    forged.receipt_rlp = receipt.pop().unwrap_or_default();
    if forged.verify(w.receipts_root).is_ok() {
        prop_assert_eq!(&forged.receipt_rlp, &honest.receipt_rlp);
    }
    forged.proof = garbage.clone();
    let _ = forged.verify(garbage_root);
    let _ = sc_trie::verify_proof(garbage_root, &key, &garbage);
    let _ = sc_trie::verify_proof(garbage_root, first, &garbage);
    Ok(())
}

/// Arbitrary node lists: random bytes, half of them behind a list
/// header (some announcing more than follows), so the walk gets past
/// the first RLP byte.
fn arb_nodes() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..80)).prop_map(
            |(head, mut body)| {
                if head % 2 == 0 {
                    let len = if head % 4 == 0 {
                        body.len()
                    } else {
                        head as usize / 4
                    };
                    body.insert(0, 0xc0 + len.min(55) as u8);
                }
                body
            },
        ),
        0..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The proof decode boundary: no node list panics `verify_proof`,
    /// `StorageProof::{verify, proven_value}`,
    /// `AccountProof::proven_parts` or `ReceiptProof::verify`, and a
    /// mutated honest proof never verifies to a different value.
    #[test]
    fn proof_verifiers_survive_arbitrary_and_mutated_bytes(
        pick in 0usize..16,
        mutation in arb_path_mutation(),
        noise in arb_nodes(),
    ) {
        proof_bytes_case(pick, mutation, &noise)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The release sweep of the proof-bytes property.
    #[test]
    #[ignore = "10,000 cases; run in release"]
    fn proof_bytes_sweep_10000_cases(
        pick in 0usize..16,
        mutation in arb_path_mutation(),
        noise in arb_nodes(),
    ) {
        proof_bytes_case(pick, mutation, &noise)?;
    }
}
