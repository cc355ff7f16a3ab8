//! Determinism pins: golden block hashes, state roots and storage
//! proofs captured from the storage engine, asserted bit-identical on
//! every future engine revision.
//!
//! The values below were recorded on the pre-overlay engine (PR 7's
//! `WorldState` folding dirty sets straight into the tries). The flat
//! overlay refactor — and anything after it — must reproduce them
//! byte for byte: a changed pin means the engine no longer commits the
//! same authenticated state, which would fork every existing chain.
//!
//! The workload deliberately crosses every engine surface: a genesis
//! allocation, contract creation, storage writes and overwrites,
//! zeroing a slot, plain transfers, a rollback + divergent re-mine,
//! and a storage proof against the head commitment.

use sc_chain::{ChainConfig, Testnet, Wallet};
use sc_crypto::keccak256;
use sc_primitives::{ether, Address, U256};

/// Runtime that stores calldata word 1 at the slot named by calldata
/// word 0: `PUSH1 32 CALLDATALOAD PUSH1 0 CALLDATALOAD SSTORE STOP`.
const SSTORE_RUNTIME: [u8; 8] = [0x60, 0x20, 0x35, 0x60, 0x00, 0x35, 0x55, 0x00];

fn sstore_initcode() -> Vec<u8> {
    let mut code = vec![0x67];
    code.extend_from_slice(&SSTORE_RUNTIME);
    code.extend_from_slice(&[0x60, 0x00, 0x52, 0x60, 0x08, 0x60, 0x18, 0xf3]);
    code
}

fn store_calldata(key: U256, value: U256) -> Vec<u8> {
    let mut data = Vec::with_capacity(64);
    data.extend_from_slice(&key.to_be_bytes());
    data.extend_from_slice(&value.to_be_bytes());
    data
}

/// Drives the pinned workload and returns
/// `(net, store_contract_address)` at the final head.
fn pinned_workload() -> (Testnet, Address) {
    let alice = Wallet::from_seed("pin-alice");
    let bob = Wallet::from_seed("pin-bob");
    let alloc = [(alice.address, ether(100)), (bob.address, ether(100))];
    let mut net = Testnet::with_genesis(ChainConfig::default(), &alloc);

    let r = net
        .deploy(&alice, sstore_initcode(), U256::ZERO, 100_000)
        .expect("deploy");
    assert!(r.success, "deploy failed: {:?}", r.failure);
    let store = r.contract_address.expect("created");

    // Storage writes: fresh slots, an overwrite, and a zeroing.
    for (slot, value) in [(1u64, 0xa1u64), (2, 0xa2), (1, 0xb1), (2, 0)] {
        let r = net
            .execute(
                &alice,
                store,
                U256::ZERO,
                store_calldata(U256::from_u64(slot), U256::from_u64(value)),
                60_000,
            )
            .expect("store");
        assert!(r.success, "store failed: {:?}", r.failure);
    }

    // Plain transfer between the wallets.
    net.execute(&bob, alice.address, ether(3), Vec::new(), 21_000)
        .expect("transfer");

    // A rollback + divergent re-mine: rollback must restore the exact
    // parent boundary, and the replacement block must hash the same as
    // if the orphaned block never existed.
    let r = net
        .execute(
            &bob,
            store,
            U256::ZERO,
            store_calldata(U256::from_u64(7), U256::from_u64(0x77)),
            60_000,
        )
        .expect("store");
    assert!(r.success);
    let orphaned = net.rollback_head_block().expect("rollback");
    assert_eq!(net.storage_at(store, U256::from_u64(7)), U256::ZERO);
    let r = net
        .execute(
            &bob,
            store,
            U256::ZERO,
            store_calldata(U256::from_u64(8), U256::from_u64(0x88)),
            60_000,
        )
        .expect("store");
    assert!(r.success);
    assert_ne!(net.head().hash, orphaned.hash, "divergent re-mine");

    (net, store)
}

#[test]
fn golden_chain_commitments_replay_bit_identically() {
    let (mut net, store) = pinned_workload();
    let head = net.head().clone();

    assert_eq!(head.number, 7, "workload shape changed");
    assert_eq!(
        format!("{}", head.hash),
        "0xc4da10aeee643942414aa698fae10bd8e9a653200e8635bbac93a19976f1a069",
        "head block hash diverged from the pinned engine"
    );
    assert_eq!(
        format!("{}", head.state_root),
        "0x36a25f768eb14a596a3cbabf689ada9279881ad4edf16240d948f8163559ad04",
        "state root diverged from the pinned engine"
    );
    assert_eq!(
        format!("{}", head.receipts_root),
        "0x19f7cf5d2bb182fe08a7265c7054339a6181ebbc2419a1a0e94256ec59b3696d",
        "receipts root diverged from the pinned engine"
    );

    // The storage proof for the overwritten slot: anchored to the head
    // root, its witness bytes are part of the pinned surface too (a
    // light client replays exactly these nodes).
    let proof = net.prove_storage(store, U256::ONE);
    assert_eq!(proof.value, U256::from_u64(0xb1));
    assert_eq!(proof.root, head.state_root, "proof anchors to the head");
    proof.verify(head.state_root).expect("proof verifies");
    let mut witness = Vec::new();
    for node in proof.account_proof.iter().chain(&proof.storage_proof) {
        witness.extend_from_slice(node);
    }
    assert_eq!(
        format!("{}", keccak256(&witness)),
        "0xb0e79d7fb44d64507b6bedb055a5b0326e1b6da403f1bc2a0e707cc6a7e8d0db",
        "proof witness bytes diverged from the pinned engine"
    );

    // Zeroed slot proves exclusion under the same root.
    let gone = net.prove_storage(store, U256::from_u64(2));
    assert_eq!(gone.value, U256::ZERO);
    gone.verify(head.state_root)
        .expect("exclusion proof verifies");
}

#[test]
fn golden_run_is_rerun_stable() {
    let (mut a, _) = pinned_workload();
    let (mut b, _) = pinned_workload();
    assert_eq!(a.head().hash, b.head().hash);
    assert_eq!(a.state.state_root(), b.state.state_root());
}

/// Prints the pin values (run with `--nocapture` to recapture after an
/// intentional, consensus-breaking format change).
#[test]
fn print_pins() {
    let (mut net, store) = pinned_workload();
    let head = net.head().clone();
    let proof = net.prove_storage(store, U256::ONE);
    let mut witness = Vec::new();
    for node in proof.account_proof.iter().chain(&proof.storage_proof) {
        witness.extend_from_slice(node);
    }
    println!("PIN head.number    = {}", head.number);
    println!("PIN head.hash      = {}", head.hash);
    println!("PIN state_root     = {}", head.state_root);
    println!("PIN receipts_root  = {}", head.receipts_root);
    println!("PIN proof_digest   = {}", keccak256(&witness));
}

/// A seeded fold workload on a bare [`WorldState`]: mints, storage
/// writes and zeroings, accounts emptied by a transfer of their whole
/// balance (their storage tries drop) and resurrected by a later mint
/// (the tries rebuild from the flat slots). Returns one keccak over
/// every fold's root, every proof's nodes and the final snapshot.
fn world_state_churn_digest() -> sc_primitives::H256 {
    use sc_chain::WorldState;
    use sc_crypto::Keccak256;
    use sc_evm::host::Host;

    let mut seed = 0x0077_6f72_6c64_u64;
    let mut next = move |n: u64| {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    };
    let account = |i: u64| Address([i as u8 + 1; 20]);
    let sink = Address([0xee; 20]);
    let mut s = WorldState::new();
    s.mint(sink, U256::ONE);
    let mut digest = Keccak256::new();
    let absorb = |digest: &mut Keccak256, nodes: &[Vec<u8>]| {
        digest.update(&(nodes.len() as u64).to_be_bytes());
        for node in nodes {
            digest.update(&(node.len() as u64).to_be_bytes());
            digest.update(node);
        }
    };
    for _round in 0..24 {
        for _ in 0..40 {
            let a = account(next(40));
            match next(8) {
                0..=2 => s.mint(a, U256::from_u64(1 + next(1 << 40))),
                3..=5 => {
                    let value = if next(4) == 0 { 0 } else { next(u64::MAX) };
                    s.set_storage(a, U256::from_u64(next(12)), U256::from_u64(value));
                }
                _ => {
                    let balance = s.balance(a);
                    assert!(s.transfer(a, sink, balance));
                }
            }
        }
        s.clear_tx_scratch();
        let root = s.state_root();
        digest.update(root.as_bytes());
        for _ in 0..3 {
            let a = account(next(41));
            let proof = s.prove_storage(a, U256::from_u64(next(12)));
            proof.verify(root).expect("storage proof verifies");
            let proven = proof.proven_value(root).expect("storage proof replays");
            digest.update(&proven.to_be_bytes());
            absorb(&mut digest, &proof.account_proof);
            absorb(&mut digest, &proof.storage_proof);
            let proof = s.prove_account(account(next(41)));
            proof.verify(root).expect("account proof verifies");
            absorb(&mut digest, &proof.account_proof);
        }
    }
    digest.update(&s.export_snapshot());
    digest.finalize()
}

#[test]
fn world_state_churn_with_deaths_and_resurrections_is_pinned() {
    assert_eq!(
        format!("{}", world_state_churn_digest()),
        "0xa604487cce64240c822c32ccc38d10ae4401974d57e489111fceb9cde1dc111a",
        "a fold root, proof or snapshot byte diverged from the pinned engine"
    );
}
