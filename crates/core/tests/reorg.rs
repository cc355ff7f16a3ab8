//! Reorg regression suite: rollback, heavier-fork replay, and the
//! `BLOCKHASH` window across a reorg boundary.
//!
//! These tests drive [`Testnet`]'s history/undo machinery through the
//! shapes a gossiping network produces — multi-block rollbacks, forks
//! replayed from a peer, orphaned transactions — and pin the invariants
//! that must survive every one of them: ether conservation, the
//! header's `state_root`/`receipts_root` commitments, and the 256-entry
//! `BLOCKHASH` window tracking the *canonical* branch only.

use sc_chain::{ChainConfig, ImportOutcome, Testnet, Wallet};
use sc_core::{check_conservation, check_state_commitments};
use sc_primitives::{ether, Address, H256, U256};

/// Two nodes with identical genesis (the same two wallets allocated the
/// same amounts), so blocks sealed on one replay verbatim on the other.
fn twins() -> (Testnet, Testnet, Wallet, Wallet) {
    let alice = Wallet::from_seed("reorg-alice");
    let carol = Wallet::from_seed("reorg-carol");
    let alloc = [(alice.address, ether(10)), (carol.address, ether(10))];
    let mk = || Testnet::with_genesis(ChainConfig::default(), &alloc);
    (mk(), mk(), alice, carol)
}

fn transfer(net: &mut Testnet, from: &Wallet, to: Address, wei: u64) {
    net.execute(from, to, U256::from_u64(wei), Vec::new(), 21_000)
        .expect("transfer mines");
}

#[test]
fn rollback_restores_state_across_four_blocks() {
    let (mut net, _, alice, carol) = twins();
    let sink = Address([0x51; 20]);

    // Four blocks, alternating senders; snapshot the observable state
    // after each seal.
    let mut snaps = vec![(
        net.head().hash,
        net.balance_of(sink),
        net.nonce_of(alice.address),
        net.nonce_of(carol.address),
        net.now(),
    )];
    for i in 0..4u64 {
        let (from, wei) = if i % 2 == 0 {
            (&alice, 1_000 + i)
        } else {
            (&carol, 2_000 + i)
        };
        transfer(&mut net, from, sink, wei);
        snaps.push((
            net.head().hash,
            net.balance_of(sink),
            net.nonce_of(alice.address),
            net.nonce_of(carol.address),
            net.now(),
        ));
    }
    assert_eq!(net.head().number, 4);

    // Unwind block by block; every snapshot must come back exactly, and
    // the chain's own commitments must keep verifying at every depth.
    for depth in (0..4).rev() {
        let popped = net.rollback_head_block().expect("history covers this");
        assert_eq!(popped.number, depth as u64 + 1);
        let (hash, sink_bal, a_nonce, c_nonce, now) = snaps[depth];
        assert_eq!(net.head().hash, hash, "head at depth {depth}");
        assert_eq!(net.balance_of(sink), sink_bal, "balance at depth {depth}");
        assert_eq!(net.nonce_of(alice.address), a_nonce);
        assert_eq!(net.nonce_of(carol.address), c_nonce);
        assert_eq!(net.now(), now, "clock at depth {depth}");
        check_conservation(&net).unwrap();
        if depth > 0 {
            // Genesis itself can't verify: its header commits the empty
            // tries, and block 1 is the first to commit the allocation.
            check_state_commitments(&net).unwrap();
        }
    }
    assert_eq!(net.head().number, 0);
    // At genesis the undo stack is spent; a further rollback refuses.
    assert!(net.rollback_head_block().is_none());
}

#[test]
fn heavier_fork_replays_with_conservation_and_commitments() {
    let (mut a, mut b, alice, carol) = twins();
    let sink = Address([0x52; 20]);

    // Shared prefix: block 1 sealed on A, replayed on B.
    transfer(&mut a, &alice, sink, 500);
    assert_eq!(
        b.import_block(a.block(1).unwrap().clone()).unwrap(),
        ImportOutcome::Extended
    );

    // Fork: A seals one block, B seals two — B's branch is heavier.
    transfer(&mut a, &alice, sink, 111);
    transfer(&mut b, &carol, sink, 222);
    transfer(&mut b, &carol, sink, 333);
    let orphaned_head = a.head().hash;

    // Equal heights tiebreak on the smaller hash, so importing B's
    // block 2 either parks it as a side block or reorgs immediately;
    // either way, once block 3 arrives B's branch has strictly greater
    // height and must win, orphaning alice's fork-only transfer.
    let mut reverted_total = 0;
    let mut orphans = Vec::new();
    for n in 2..=3 {
        match a.import_block(b.block(n).unwrap().clone()).unwrap() {
            ImportOutcome::Side | ImportOutcome::Extended => {}
            ImportOutcome::Reorged {
                reverted,
                orphaned_txs,
                ..
            } => {
                reverted_total += reverted;
                orphans.extend(orphaned_txs);
            }
            other => panic!("unexpected import outcome {other:?}"),
        }
    }
    assert_eq!(reverted_total, 1, "exactly one block rolled back");
    assert_eq!(orphans.len(), 1, "alice's 111-wei transfer orphaned");
    assert_eq!(a.head().hash, b.head().hash, "A adopted B's branch");
    assert_ne!(a.head().hash, orphaned_head);

    // Alice's fork-only transfer is gone from the canonical state: her
    // nonce rolled back and the sink holds only the canonical sums.
    assert_eq!(a.nonce_of(alice.address), 1);
    assert_eq!(a.balance_of(sink), U256::from_u64(500 + 222 + 333));

    check_conservation(&a).unwrap();
    check_state_commitments(&a).unwrap();
    check_conservation(&b).unwrap();
    check_state_commitments(&b).unwrap();

    // The orphaned transfer resubmits cleanly against the new branch
    // and both nodes converge again.
    transfer(&mut a, &alice, sink, 111);
    assert_eq!(a.balance_of(sink), U256::from_u64(500 + 222 + 333 + 111));
    assert_eq!(
        b.import_block(a.block(4).unwrap().clone()).unwrap(),
        ImportOutcome::Extended
    );
    assert_eq!(a.head().hash, b.head().hash);
    check_state_commitments(&a).unwrap();
    check_state_commitments(&b).unwrap();
}

#[test]
fn four_block_reorg_replays_a_five_block_branch() {
    let (mut a, mut b, alice, carol) = twins();
    let sink = Address([0x53; 20]);

    // Shared prefix of one block.
    transfer(&mut a, &alice, sink, 1);
    b.import_block(a.block(1).unwrap().clone()).unwrap();

    // A builds four fork blocks, B builds five.
    for i in 0..4 {
        transfer(&mut a, &alice, sink, 10 + i);
    }
    for i in 0..5 {
        transfer(&mut b, &carol, sink, 20 + i);
    }

    let mut last = ImportOutcome::AlreadyKnown;
    for n in 2..=6 {
        last = a.import_block(b.block(n).unwrap().clone()).unwrap();
    }
    match last {
        ImportOutcome::Reorged {
            reverted,
            applied,
            orphaned_txs,
        } => {
            assert_eq!(reverted, 4);
            assert_eq!(applied, 5);
            assert_eq!(orphaned_txs.len(), 4);
        }
        other => panic!("expected a depth-4 reorg, got {other:?}"),
    }
    assert_eq!(a.head().hash, b.head().hash);
    assert_eq!(a.nonce_of(alice.address), 1, "fork nonces rolled back");
    assert_eq!(
        a.balance_of(sink),
        U256::from_u64(1 + 20 + 21 + 22 + 23 + 24)
    );
    check_conservation(&a).unwrap();
    check_state_commitments(&a).unwrap();
}

#[test]
fn blockhash_window_tracks_the_canonical_branch_after_a_reorg() {
    let (mut a, mut b, alice, carol) = twins();
    let sink = Address([0x54; 20]);

    // Shared block 1, then a fork at height 2: the two branches commit
    // *different* block-2 hashes.
    transfer(&mut a, &alice, sink, 5);
    b.import_block(a.block(1).unwrap().clone()).unwrap();
    transfer(&mut a, &alice, sink, 6);
    transfer(&mut b, &carol, sink, 7);
    transfer(&mut b, &carol, sink, 8);
    let orphaned_b2 = a.block(2).unwrap().hash;
    let canonical_b2 = b.block(2).unwrap().hash;
    assert_ne!(orphaned_b2, canonical_b2);

    a.import_block(b.block(2).unwrap().clone()).unwrap();
    match a.import_block(b.block(3).unwrap().clone()).unwrap() {
        ImportOutcome::Reorged { reverted: 1, .. } => {}
        other => panic!("expected a reorg, got {other:?}"),
    }

    // A contract whose constructor stores BLOCKHASH(2) into slot 0:
    // PUSH1 2, BLOCKHASH, PUSH1 0, SSTORE, STOP. Executed *after* the
    // reorg, it must observe the adopted branch's block 2, not the
    // orphaned one the node originally sealed.
    let initcode = vec![0x60, 0x02, 0x40, 0x60, 0x00, 0x55, 0x00];
    let receipt = a.deploy(&alice, initcode, U256::ZERO, 200_000).unwrap();
    assert!(receipt.success);
    let recorder = receipt.contract_address.unwrap();
    let seen = a.storage_at(recorder, U256::ZERO);
    assert_eq!(H256::from_u256(seen), canonical_b2);
    assert_ne!(H256::from_u256(seen), orphaned_b2);
    check_state_commitments(&a).unwrap();
}

/// The genesis allocation sits under the first undo layer: a reorg all
/// the way down to block 1 rolls the node's own first block back and
/// must leave every genesis-funded balance — and the minted total —
/// exactly where genesis put them, or the heavier branch could not pay
/// for its own replay.
#[test]
fn genesis_allocation_survives_a_reorg_to_block_one() {
    let (mut a, mut b, alice, carol) = twins();
    let sink = Address([0x55; 20]);

    // No shared prefix: A mines one block from genesis, B mines two.
    transfer(&mut a, &alice, sink, 100);
    transfer(&mut b, &carol, sink, 200);
    transfer(&mut b, &carol, sink, 300);

    let mut reverted_total = 0;
    for n in 1..=2 {
        if let ImportOutcome::Reorged { reverted, .. } =
            a.import_block(b.block(n).unwrap().clone()).unwrap()
        {
            reverted_total += reverted;
        }
    }
    assert_eq!(reverted_total, 1, "A rolled its own block 1 back");
    assert_eq!(a.head().hash, b.head().hash, "A sits on the heavier head");
    assert_eq!(a.head().number, 2);

    // Alice never transacted on the adopted branch: her balance is the
    // untouched allocation. Carol paid 500 wei plus two transfers' gas.
    assert_eq!(a.balance_of(alice.address), ether(10));
    assert_eq!(a.nonce_of(alice.address), 0);
    assert_eq!(a.balance_of(carol.address), b.balance_of(carol.address));
    assert_eq!(a.balance_of(sink), U256::from_u64(500));
    assert_eq!(a.total_minted(), ether(20), "minted == allocation sum");
    check_conservation(&a).unwrap();
    check_state_commitments(&a).unwrap();
}
