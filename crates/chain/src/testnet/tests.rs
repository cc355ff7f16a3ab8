//! Unit tests of the `testnet` module (`#[cfg(test)] mod tests;` in `mod.rs`),
//! kept in one module so each keeps the name earlier test reports know it by.

use super::*;
use crate::block::{self, FailureReason};
use crate::tx::SignedTransaction;
use sc_primitives::{ether, gwei};

#[test]
fn simple_transfer_charges_exact_gas() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    let bob = Wallet::from_seed("bob");
    let receipt = net
        .execute(&alice, bob.address, ether(1), vec![], 100_000)
        .unwrap();
    assert!(receipt.success);
    assert_eq!(receipt.gas_used, 21_000, "plain transfer is exactly Gtx");
    assert_eq!(net.balance_of(bob.address), ether(1));
    let spent = ether(10).wrapping_sub(net.balance_of(alice.address));
    let expected = ether(1).wrapping_add(U256::from_u64(21_000).wrapping_mul(gwei(1)));
    assert_eq!(spent, expected);
}

#[test]
fn miner_earns_the_fee() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    let coinbase = net.config().coinbase;
    net.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
        .unwrap();
    assert_eq!(
        net.balance_of(coinbase),
        U256::from_u64(21_000).wrapping_mul(gwei(1))
    );
}

#[test]
fn nonce_sequencing_and_rejection() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    net.submit(transfer_tx(0, gwei(1), 21_000).sign(&alice.key))
        .unwrap();
    net.mine_block();
    // Nonce 0 is consumed: replaying it is the one nonce error left.
    let err = net
        .submit(transfer_tx(0, gwei(2), 21_000).sign(&alice.key))
        .unwrap_err();
    assert_eq!(
        err,
        TxError::BadNonce {
            expected: 1,
            got: 0
        }
    );
    // Nonce 5 is four ahead: admitted, held, not minable yet.
    net.submit(transfer_tx(5, gwei(1), 21_000).sign(&alice.key))
        .unwrap();
    assert!(net.mine_block().transactions.is_empty());
    assert_eq!(net.pending_count(), 1);
    assert_eq!(net.effective_nonce(alice.address), 1, "gap not skipped");
}

#[test]
fn pending_txs_count_toward_nonce() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    for i in 0..3 {
        let tx = transfer_tx(i, gwei(1), 21_000);
        net.submit(tx.sign(&alice.key)).unwrap();
    }
    let block = net.mine_block();
    assert_eq!(block.transactions.len(), 3);
    assert_eq!(net.nonce_of(alice.address), 3);
}

#[test]
fn intrinsic_gas_enforced() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    let tx = Transaction {
        data: vec![0xff; 10], // 21 000 is too low: data costs extra
        ..transfer_tx(0, gwei(1), 21_000)
    };
    let err = net.submit(tx.sign(&alice.key)).unwrap_err();
    assert_eq!(
        err,
        TxError::IntrinsicGasTooLow {
            required: 21_000 + 68 * 10
        }
    );
}

#[test]
fn insufficient_funds_rejected_at_submit() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", U256::from_u64(1000));
    let tx = transfer_tx(0, gwei(1), 21_000);
    assert_eq!(
        net.submit(tx.sign(&alice.key)).unwrap_err(),
        TxError::InsufficientFunds
    );
}

#[test]
fn timestamps_advance_per_block_and_by_request() {
    let mut net = Testnet::new();
    let t0 = net.head().timestamp;
    let b1 = net.mine_block();
    assert_eq!(b1.timestamp, t0 + 4);
    net.advance_time(3600);
    let b2 = net.mine_block();
    assert_eq!(b2.timestamp, t0 + 4 + 3600 + 4);
}

#[test]
fn deploy_runs_initcode_and_records_address() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    let runtime = vec![0x60, 0x2a, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3]; // returns 42
    let initcode = sc_evm::wrap_initcode(&runtime);
    let receipt = net.deploy(&alice, initcode, U256::ZERO, 200_000).unwrap();
    assert!(receipt.success);
    let addr = receipt.contract_address.unwrap();
    assert_eq!(net.code_at(addr), runtime);
    // Call it read-only.
    let out = net.call(alice.address, addr, vec![]);
    assert!(!out.reverted);
    assert_eq!(U256::from_be_slice(&out.output), U256::from_u64(42));
    // Gas: intrinsic(create, data) + exec + deposit — sanity: > 53000.
    assert!(receipt.gas_used > 53_000);
}

#[test]
fn failed_tx_still_charges_gas_and_bumps_nonce() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    // Deploy a contract that always reverts.
    let runtime = vec![0x60, 0x00, 0x60, 0x00, 0xfd];
    let target = deploy_runtime(&mut net, &alice, &runtime);
    let before = net.balance_of(alice.address);
    let receipt = net
        .execute(&alice, target, U256::ZERO, vec![], 100_000)
        .unwrap();
    assert!(!receipt.success);
    assert!(matches!(receipt.failure, Some(FailureReason::Reverted(_))));
    assert!(net.balance_of(alice.address) < before, "gas was charged");
    assert_eq!(net.nonce_of(alice.address), 2);
}

#[test]
fn refund_capped_at_half_of_gas_used() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    // Contract: SSTORE(0,1) on first call; SSTORE(0,0) on second call
    // clears and earns a 15000 refund, but gas_used/2 caps it.
    // code: PUSH1 0 SLOAD ISZERO PUSH1 1 AND ... simpler: calldata
    // selects the value: SSTORE(0, CALLDATALOAD(0)).
    let runtime = vec![0x60, 0x00, 0x35, 0x60, 0x00, 0x55, 0x00];
    let target = deploy_runtime(&mut net, &alice, &runtime);
    let one = U256::ONE.to_be_bytes().to_vec();
    let r1 = net
        .execute(&alice, target, U256::ZERO, one, 100_000)
        .unwrap();
    assert!(r1.success);
    let zero = U256::ZERO.to_be_bytes().to_vec();
    let r2 = net
        .execute(&alice, target, U256::ZERO, zero, 100_000)
        .unwrap();
    assert!(r2.success);
    // Without refund r2 would use 21000 + 32*4 (zero calldata) + exec:
    // PUSH1+CALLDATALOAD+PUSH1 (3 gas each) + SSTORE-reset (5000).
    // The 15000 clear refund is capped to half of that.
    let pre_refund = 21_000 + 32 * 4 + 3 + 3 + 3 + 5_000;
    assert_eq!(r2.gas_used, pre_refund - pre_refund / 2);
}

#[test]
fn eth_call_does_not_mutate_state() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    // Contract that SSTOREs then returns.
    let runtime = vec![0x60, 0x07, 0x60, 0x00, 0x55, 0x00];
    let target = deploy_runtime(&mut net, &alice, &runtime);
    net.call(alice.address, target, vec![]);
    assert_eq!(net.storage_at(target, U256::ZERO), U256::ZERO);
}

#[test]
fn eth_call_reports_reverts() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    // PUSH1 42 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 REVERT: reverts with
    // the same 32 bytes a successful return would carry.
    let runtime = vec![0x60, 0x2a, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xfd];
    let target = deploy_runtime(&mut net, &alice, &runtime);
    let out = net.call(alice.address, target, vec![]);
    assert!(out.reverted, "success flag must survive eth_call");
    assert_eq!(U256::from_be_slice(&out.output), U256::from_u64(42));
}

#[test]
fn address_filtered_logs_use_the_commit_time_index() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    // PUSH1 0 PUSH1 0 LOG0: emits one empty log from the contract.
    let runtime = vec![0x60, 0x00, 0x60, 0x00, 0xa0, 0x00];
    let a = deploy_runtime(&mut net, &alice, &runtime);
    let b = deploy_runtime(&mut net, &alice, &runtime);
    // a logs in two blocks, b in one, with log-free blocks between.
    net.execute(&alice, a, U256::ZERO, vec![], 100_000).unwrap();
    net.mine_block();
    net.execute(&alice, b, U256::ZERO, vec![], 100_000).unwrap();
    net.execute(&alice, a, U256::ZERO, vec![], 100_000).unwrap();
    let head = net.head().number;

    // The index answers exactly what the linear scan would.
    let linear = |addr: Address| {
        let mut out = Vec::new();
        for n in 0..=head {
            for r in net.receipts_in_block(n) {
                out.extend(r.logs.iter().filter(|l| l.address == addr).cloned());
            }
        }
        out
    };
    assert_eq!(net.logs(0, head, Some(a)), linear(a));
    assert_eq!(net.logs(0, head, Some(b)), linear(b));
    assert_eq!(net.logs(0, head, Some(a)).len(), 2);
    assert_eq!(net.logs(0, head, Some(b)).len(), 1);
    // Range bounds respected (a's second log only).
    let last = net.logs(head, head, Some(a));
    assert_eq!(last.len(), 1);
    // Unfiltered query still sees everything.
    assert_eq!(net.logs(0, head, None).len(), 3);
    // Unknown address: empty, no scan.
    assert!(net.logs(0, head, Some(Address([0xee; 20]))).is_empty());
}

#[test]
fn block_hashes_linked() {
    let mut net = Testnet::new();
    let b1 = net.mine_block();
    let b2 = net.mine_block();
    assert_eq!(b2.parent_hash, b1.hash);
    assert_eq!(net.block(1).unwrap().hash, b1.hash);
}

#[test]
fn blockhash_window_is_bounded_to_256() {
    let mut net = Testnet::new();
    for _ in 0..300 {
        net.mine_block();
    }
    let head = net.head().number;
    assert_eq!(head, 300);
    assert_eq!(
        net.state.block_hash(head - 257),
        H256::ZERO,
        "hash 257 blocks back has left the BLOCKHASH window"
    );
    assert_eq!(net.state.block_hash(head - 256), H256::ZERO);
    assert_ne!(
        net.state.block_hash(head - 255),
        H256::ZERO,
        "youngest 256 ancestors stay visible"
    );
    assert_eq!(
        net.state.block_hash(head - 255),
        net.block(head - 255).unwrap().hash
    );
    assert_eq!(net.state.block_hashes.len(), 256, "map stays bounded");
}

#[test]
fn mined_blocks_commit_state_and_receipts_roots() {
    // Sealed headers carry real roots that move with state and match
    // an independent recomputation.
    let mut net = Testnet::new();
    assert_eq!(net.head().state_root, sc_trie::empty_root());
    assert_eq!(net.head().receipts_root, sc_trie::empty_root());

    let alice = net.funded_wallet("alice", ether(10));
    let receipt = net
        .execute(
            &alice,
            Address([9; 20]),
            U256::from_u64(123),
            vec![],
            21_000,
        )
        .unwrap();
    let block = net.block(receipt.block_number).unwrap().clone();
    assert_ne!(block.state_root, sc_trie::empty_root(), "state moved");
    assert_ne!(block.state_root, H256::ZERO);
    assert_ne!(block.receipts_root, sc_trie::empty_root(), "1 receipt");
    assert_eq!(
        block.receipts_root,
        block::receipts_root(net.receipts_in_block(block.number).into_iter()),
        "header matches recomputed receipts trie"
    );
    assert_eq!(
        block.state_root,
        net.state.state_root(),
        "nothing changed since seal: folded root is the header root"
    );

    // An empty block re-commits the same state root.
    let empty = net.mine_block();
    assert_eq!(empty.state_root, block.state_root);
    assert_eq!(empty.receipts_root, sc_trie::empty_root());
}

#[test]
fn storage_proof_verifies_against_header_root() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    // PUSH1 42 PUSH1 1 SSTORE STOP as constructor: writes slot 1.
    let initcode = vec![0x60, 0x2a, 0x60, 0x01, 0x55, 0x00];
    let target = net
        .deploy(&alice, initcode, U256::ZERO, 200_000)
        .unwrap()
        .contract_address
        .unwrap();
    let header_root = net.head().state_root;

    let proof = net.prove_storage(target, U256::ONE);
    assert_eq!(proof.value, U256::from_u64(42));
    assert_eq!(proof.root, header_root, "proof anchors to the head header");
    proof.verify(header_root).expect("honest proof verifies");

    let mut forged = proof.clone();
    forged.value = U256::from_u64(43);
    assert!(
        forged.verify(header_root).is_err(),
        "tampered value rejected against the header root"
    );
}

#[test]
fn submit_batch_matches_serial_submits() {
    let make_txs = |net: &mut Testnet| -> Vec<SignedTransaction> {
        let alice = net.funded_wallet("alice", ether(10));
        (0..10u64)
            .map(|i| {
                // Every third entry re-uses the previous entry's nonce at
                // the same price → refused as underpriced, and later
                // entries must account for the earlier refusals.
                let nonce = if i % 3 == 2 { i - i / 3 - 1 } else { i - i / 3 };
                Transaction {
                    value: U256::from_u64(i),
                    ..transfer_tx(nonce, gwei(1), 21_000)
                }
                .sign(&alice.key)
            })
            .collect()
    };

    let mut serial_net = Testnet::new();
    let txs = make_txs(&mut serial_net);
    let serial: Vec<_> = txs.into_iter().map(|t| serial_net.submit(t)).collect();

    let mut batch_net = Testnet::new();
    let txs = make_txs(&mut batch_net);
    let batch = batch_net.submit_batch(txs);

    assert_eq!(batch, serial);
    assert_eq!(batch.iter().filter(|r| r.is_ok()).count(), 7);
    assert!(matches!(batch[2], Err(TxError::Underpriced { .. })));
    assert_eq!(
        serial_net.mine_block().hash,
        batch_net.mine_block().hash,
        "identical admission ⇒ identical block"
    );
}

#[test]
fn submit_batch_rejects_tampered_signature() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    let mut signed = transfer_tx(0, gwei(1), 21_000).sign(&alice.key);
    signed.signature.v = 26; // invalid recovery id
    let out = net.submit_batch(vec![signed]);
    assert_eq!(out, vec![Err(TxError::BadSignature)]);
}

/// Queues one transfer per entry of `gwei_prices` (alice and bob
/// alternating), mines them into one block, and has a fresh follower
/// with the same genesis replay it: import re-derives every sender, so
/// `Extended` means the seal's cached senders and fee-ordered pack
/// agree with the reference executor on gas and both roots.
fn mined_block_replays_on_a_follower(gwei_prices: &[u64]) {
    let senders = ["alice", "bob"].map(Wallet::from_seed);
    let alloc = [0, 1].map(|i| (senders[i].address, ether(10)));
    let mut miner = Testnet::with_genesis(ChainConfig::default(), &alloc);
    for (i, &price) in gwei_prices.iter().enumerate() {
        let w = &senders[i % 2];
        let tx = Transaction {
            value: U256::from_u64(i as u64),
            data: vec![i as u8; i],
            ..transfer_tx(miner.effective_nonce(w.address), gwei(price), 50_000)
        };
        miner.submit(tx.sign(&w.key)).unwrap();
    }
    let block = miner.mine_block();
    assert_eq!(block.transactions.len(), gwei_prices.len());

    let mut follower = Testnet::with_genesis(ChainConfig::default(), &alloc);
    assert_eq!(
        follower.import_block(block.clone()),
        Ok(ImportOutcome::Extended)
    );
    assert_eq!(follower.head().hash, block.hash);
    for t in &block.transactions {
        assert_eq!(miner.receipt(t.hash()), follower.receipt(t.hash()));
    }
}

#[test]
fn serial_and_pipelined_mining_agree() {
    mined_block_replays_on_a_follower(&[1, 1, 1, 1, 1]);
}

#[test]
fn analysis_cache_warms_across_calls() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    // Contract with a jump, so analysis actually matters.
    let runtime = vec![0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00]; // JUMP over INVALID
    let target = deploy_runtime(&mut net, &alice, &runtime);
    let after_deploy = net.analysis_cache().stats();
    for _ in 0..5 {
        let r = net
            .execute(&alice, target, U256::ZERO, vec![], 100_000)
            .unwrap();
        assert!(r.success);
    }
    let stats = net.analysis_cache().stats();
    // Deploy analysed only the initcode; the first call analyses the
    // runtime code (one miss), and every later call reuses it.
    assert_eq!(
        stats.misses,
        after_deploy.misses + 1,
        "runtime code analysed exactly once"
    );
    assert!(
        stats.hits >= after_deploy.hits + 4,
        "subsequent calls hit the cache"
    );
}

#[test]
fn derive_rejects_malformed_signature_instead_of_panicking() {
    // Import re-derives senders from raw gossiped transactions; a
    // signature that does not recover must surface as a typed error,
    // never a crash.
    let alice = Wallet::from_seed("alice");
    let mut signed = transfer_tx(0, gwei(1), 21_000).sign(&alice.key);
    signed.signature.v = 26; // invalid recovery id
    assert_eq!(
        Testnet::new().derive(signed).err(),
        Some(TxError::BadSignature)
    );
}

#[test]
fn ether_is_conserved_across_blocks() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    let bob = net.funded_wallet("bob", ether(5));
    assert_eq!(net.total_minted(), ether(15));
    assert_eq!(net.state.total_balance(), ether(15));
    // Transfers, a deploy, and a failed call all just move value.
    net.execute(&alice, bob.address, ether(1), vec![], 100_000)
        .unwrap();
    let runtime = vec![0x60, 0x00, 0x60, 0x00, 0xfd]; // always reverts
    let target = deploy_runtime(&mut net, &alice, &runtime);
    net.execute(&alice, target, U256::ZERO, vec![], 100_000)
        .unwrap();
    assert_eq!(
        net.state.total_balance(),
        net.total_minted(),
        "no wei created or destroyed"
    );
}

#[test]
fn pending_count_tracks_the_mempool() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    assert_eq!(net.pending_count(), 0);
    let tx = transfer_tx(0, gwei(1), 21_000);
    net.submit(tx.sign(&alice.key)).unwrap();
    assert_eq!(net.pending_count(), 1);
    net.mine_block();
    assert_eq!(net.pending_count(), 0);
}

/// Deploys `runtime` behind the standard initcode wrapper, in a block
/// of its own, and returns the contract's address.
fn deploy_runtime(net: &mut Testnet, from: &Wallet, runtime: &[u8]) -> Address {
    let initcode = sc_evm::wrap_initcode(runtime);
    let receipt = net.deploy(from, initcode, U256::ZERO, 200_000).unwrap();
    receipt.contract_address.expect("deploy succeeded")
}

fn transfer_tx(nonce: u64, price: U256, gas_limit: u64) -> Transaction {
    Transaction {
        nonce,
        gas_price: price,
        gas_limit,
        to: Some(Address([9; 20])),
        value: U256::from_u64(1),
        data: vec![],
    }
}

#[test]
fn pooled_mining_packs_under_the_block_gas_limit() {
    let mut net = Testnet::with_config(ChainConfig {
        block_gas_limit: 50_000,
        ..ChainConfig::default()
    });
    let alice = net.funded_wallet("alice", ether(10));
    let bob = net.funded_wallet("bob", ether(10));
    let carol = net.funded_wallet("carol", ether(10));
    for w in [&alice, &bob, &carol] {
        net.submit(transfer_tx(0, gwei(1), 21_000).sign(&w.key))
            .unwrap();
    }
    assert_eq!(net.pending_count(), 3);
    // Only two 21k transfers fit under 50k; the third waits.
    let b1 = net.mine_block();
    assert_eq!(b1.transactions.len(), 2);
    assert_eq!(net.pending_count(), 1);
    let b2 = net.mine_block();
    assert_eq!(b2.transactions.len(), 1);
    assert_eq!(net.pending_count(), 0);
}

#[test]
fn pooled_mining_orders_by_fee_and_keeps_nonce_order() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    let bob = net.funded_wallet("bob", ether(10));
    // Alice's nonce 0 is cheap, nonce 1 expensive; bob in between.
    net.submit(transfer_tx(0, gwei(1), 21_000).sign(&alice.key))
        .unwrap();
    net.submit(transfer_tx(1, gwei(9), 21_000).sign(&alice.key))
        .unwrap();
    net.submit(transfer_tx(0, gwei(5), 21_000).sign(&bob.key))
        .unwrap();
    let block = net.mine_block();
    let senders: Vec<Address> = block
        .transactions
        .iter()
        .map(|t| t.sender().unwrap())
        .collect();
    assert_eq!(senders, vec![bob.address, alice.address, alice.address]);
    assert_eq!(net.nonce_of(alice.address), 2);
}

#[test]
fn pooled_replacement_needs_the_bump_and_future_nonces_wait() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    net.submit(transfer_tx(0, gwei(100), 21_000).sign(&alice.key))
        .unwrap();
    // Same nonce, +9%: refused with the required price.
    let err = net
        .submit(transfer_tx(0, gwei(109), 21_000).sign(&alice.key))
        .unwrap_err();
    assert_eq!(
        err,
        TxError::Underpriced {
            required: gwei(110)
        }
    );
    // +10%: accepted; the displaced hash surfaces via drain_evicted.
    let old_hash = transfer_tx(0, gwei(100), 21_000).sign(&alice.key).hash();
    net.submit(transfer_tx(0, gwei(110), 21_000).sign(&alice.key))
        .unwrap();
    assert_eq!(net.drain_evicted(), vec![old_hash]);
    // A future nonce pools but cannot mine until the gap fills.
    net.submit(transfer_tx(2, gwei(1), 21_000).sign(&alice.key))
        .unwrap();
    let block = net.mine_block();
    assert_eq!(block.transactions.len(), 1, "nonce 2 waits for nonce 1");
    assert_eq!(net.pending_count(), 1);
    net.submit(transfer_tx(1, gwei(1), 21_000).sign(&alice.key))
        .unwrap();
    assert_eq!(net.mine_block().transactions.len(), 2);
    assert_eq!(net.nonce_of(alice.address), 3);
}

#[test]
fn pooled_effective_nonce_tracks_the_contiguous_run() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    assert_eq!(net.effective_nonce(alice.address), 0);
    net.submit(transfer_tx(0, gwei(1), 21_000).sign(&alice.key))
        .unwrap();
    net.submit(transfer_tx(1, gwei(1), 21_000).sign(&alice.key))
        .unwrap();
    assert_eq!(net.effective_nonce(alice.address), 2);
    net.mine_block();
    assert_eq!(net.effective_nonce(alice.address), 2);
}

#[test]
fn pooled_capacity_eviction_routes_the_victim_hash() {
    let mut net = Testnet::with_config(ChainConfig {
        pool: PoolConfig {
            capacity: 2,
            ..PoolConfig::default()
        },
        ..ChainConfig::default()
    });
    let alice = net.funded_wallet("alice", ether(10));
    let bob = net.funded_wallet("bob", ether(10));
    let carol = net.funded_wallet("carol", ether(10));
    let cheap = transfer_tx(0, gwei(1), 21_000).sign(&alice.key);
    let cheap_hash = cheap.hash();
    net.submit(cheap).unwrap();
    net.submit(transfer_tx(0, gwei(5), 21_000).sign(&bob.key))
        .unwrap();
    // Too cheap to displace anyone.
    let err = net
        .submit(transfer_tx(0, gwei(1), 21_000).sign(&carol.key))
        .unwrap_err();
    assert_eq!(
        err,
        TxError::PoolFull {
            must_exceed: gwei(1)
        }
    );
    // Rich enough: alice's cheap tx is displaced.
    net.submit(transfer_tx(0, gwei(2), 21_000).sign(&carol.key))
        .unwrap();
    assert_eq!(net.drain_evicted(), vec![cheap_hash]);
    assert_eq!(net.pending_count(), 2);
}

#[test]
fn pooled_serial_and_cached_mining_agree() {
    // Distinct prices: the pack reorders by fee, the follower must
    // still reproduce the block.
    mined_block_replays_on_a_follower(&[1, 2, 3, 4]);
}

#[test]
fn create_tx_failure_consumes_nonce() {
    let mut net = Testnet::new();
    let alice = net.funded_wallet("alice", ether(10));
    // Initcode that immediately reverts.
    let initcode = vec![0x60, 0x00, 0x60, 0x00, 0xfd];
    let receipt = net.deploy(&alice, initcode, U256::ZERO, 100_000).unwrap();
    assert!(!receipt.success);
    assert!(receipt.contract_address.is_none());
    assert_eq!(net.nonce_of(alice.address), 1);
}

/// Two nodes with identical genesis (same allocation, same config) —
/// the fixture every import/reorg test builds on.
fn twin_nets() -> (Testnet, Testnet) {
    let alloc = ["alice", "carol"].map(|seed| (Wallet::from_seed(seed).address, ether(10)));
    let mk = || Testnet::with_genesis(ChainConfig::default(), &alloc);
    (mk(), mk())
}

/// `block` with its header rebuilt over its (edited) fields and the
/// hashes of its bodies, as a peer forging a consistent block would.
fn recommit(block: Block) -> Block {
    let h = &block.header;
    let tx_hashes = block.transactions.iter().map(SignedTransaction::hash);
    Block {
        header: Header::new(
            h.number,
            h.timestamp,
            h.parent_hash,
            h.state_root,
            h.receipts_root,
            h.gas_used,
            tx_hashes.collect(),
        ),
        transactions: block.transactions,
    }
}

#[test]
fn import_refuses_a_header_that_lists_other_bodies() {
    // A hand-built block may carry a well-formed header whose hash
    // commits its fields while its bodies are another block's: import
    // checks the bodies against the header's transaction hashes too.
    let (mut miner, mut follower) = twin_nets();
    let alice = Wallet::from_seed("alice");
    miner
        .submit(transfer_tx(0, gwei(1), 21_000).sign(&alice.key))
        .unwrap();
    let mut forged = miner.mine_block();
    forged.transactions[0] = transfer_tx(0, gwei(2), 21_000).sign(&alice.key);
    assert!(forged.hash_commits_fields());
    assert_eq!(
        follower.import_block(forged),
        Err(ImportError::InvalidBlock {
            reason: "hash does not commit the contents"
        })
    );
    assert_eq!(follower.side_block_count(), 0);
}

#[test]
fn a_pooled_twin_does_not_lend_its_sender_to_a_block() {
    // T and T′ share every signing field; T is alice's, T′ carol's. The
    // follower pools T, then imports an honest block sealing T′.
    let (mut miner, mut follower) = twin_nets();
    let alice = Wallet::from_seed("alice");
    let carol = Wallet::from_seed("carol");
    let fields = transfer_tx(0, gwei(1), 21_000);
    follower.submit(fields.clone().sign(&alice.key)).unwrap();
    miner.submit(fields.sign(&carol.key)).unwrap();
    let block = miner.mine_block();
    assert_eq!(follower.import_block(block), Ok(ImportOutcome::Extended));
    assert_eq!(follower.head().hash, miner.head().hash);
    assert_eq!(follower.nonce_of(carol.address), 1, "carol paid");
    assert_eq!(follower.nonce_of(alice.address), 0);
    assert_eq!(follower.balance_of(alice.address), ether(10));
    assert_eq!(follower.pending_count(), 1, "alice's T still waits");
}

#[test]
fn a_pooled_twin_does_not_vouch_for_a_malformed_signature() {
    // The honest block sealing T, with T swapped for a copy whose
    // signature cannot recover and the hash recommitted: the follower
    // that pooled T must still recover the copy, and refuse it.
    let (mut miner, mut follower) = twin_nets();
    let signed = transfer_tx(0, gwei(1), 21_000).sign(&Wallet::from_seed("alice").key);
    let hash = follower.submit(signed.clone()).unwrap();
    miner.submit(signed).unwrap();
    let mut forged = miner.mine_block();
    forged.transactions[0].signature.v = 26; // invalid recovery id
    let forged = recommit(forged);
    assert_eq!(
        follower.import_block(forged),
        Err(ImportError::InvalidBlock {
            reason: "signature does not recover"
        })
    );
    assert_eq!(follower.head().number, 0);
    assert!(follower.tx_is_pending(hash));
}

#[test]
fn a_transaction_mined_before_it_is_gossiped_is_refused_on_its_nonce() {
    let (mut miner, mut follower) = twin_nets();
    let signed = transfer_tx(0, gwei(1), 21_000).sign(&Wallet::from_seed("alice").key);
    miner.submit(signed.clone()).unwrap();
    let block = miner.mine_block();
    assert_eq!(follower.import_block(block), Ok(ImportOutcome::Extended));
    assert_eq!(
        follower.submit(signed),
        Err(TxError::BadNonce {
            expected: 1,
            got: 0
        })
    );
}

#[test]
fn a_transaction_gossiped_before_its_block_leaves_the_pool_on_import() {
    let (mut miner, mut follower) = twin_nets();
    let signed = transfer_tx(0, gwei(1), 21_000).sign(&Wallet::from_seed("alice").key);
    let hash = follower.submit(signed.clone()).unwrap();
    miner.submit(signed).unwrap();
    let block = miner.mine_block();
    assert_eq!(follower.import_block(block), Ok(ImportOutcome::Extended));
    assert_eq!(follower.pending_count(), 0);
    assert_eq!(follower.receipt(hash), miner.receipt(hash));
}

#[test]
fn an_orphaned_transaction_is_admitted_again_after_rollback() {
    let (mut net, _) = twin_nets();
    let signed = transfer_tx(0, gwei(1), 21_000).sign(&Wallet::from_seed("alice").key);
    let hash = net.submit(signed.clone()).unwrap();
    net.mine_block();
    net.rollback_head_block().expect("block 1 rolls back");
    assert_eq!(net.submit(signed), Ok(hash));
    assert!(net.tx_is_pending(hash));
    assert_eq!(net.mine_block().transactions.len(), 1);
    assert!(net.receipt(hash).is_some());
}

#[test]
fn import_extends_peer_and_replays_identically() {
    let (mut a, mut b) = twin_nets();
    let alice = Wallet::from_seed("alice");
    a.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
        .unwrap();
    let block = a.head().clone();
    assert_eq!(
        b.import_block(block.clone()).unwrap(),
        ImportOutcome::Extended
    );
    assert_eq!(b.head().hash, a.head().hash);
    assert_eq!(b.balance_of(Address([9; 20])), ether(1));
    assert_eq!(b.nonce_of(alice.address), 1);
    // Receipts materialize on the importer too.
    let tx_hash = block.transactions[0].hash();
    assert!(b.receipt(tx_hash).is_some());
    // A second delivery (gossip echo) dedups.
    assert_eq!(b.import_block(block).unwrap(), ImportOutcome::AlreadyKnown);
}

#[test]
fn import_rejects_tampered_blocks() {
    let (mut a, mut b) = twin_nets();
    let alice = Wallet::from_seed("alice");
    a.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
        .unwrap();
    let good = a.head().clone();

    // Content tampered without recomputing the hash: caught by the
    // hash check before any execution.
    let mut forged = good.clone();
    forged.header.gas_used += 1;
    assert!(matches!(
        b.import_block(forged),
        Err(ImportError::InvalidBlock { reason }) if reason.contains("hash")
    ));

    // Root tampered *with* a recomputed hash: replay catches the
    // dishonest commitment, and the failed import leaves no trace.
    let mut forged = good.clone();
    forged.header.state_root = H256([0xee; 32]);
    let forged = recommit(forged);
    assert!(matches!(
        b.import_block(forged),
        Err(ImportError::InvalidBlock { reason }) if reason.contains("state root")
    ));
    assert_eq!(b.head().number, 0, "failed import must not advance");
    assert_eq!(b.balance_of(Address([9; 20])), U256::ZERO);
    assert_eq!(b.nonce_of(alice.address), 0);

    // The honest original still imports cleanly afterwards.
    assert_eq!(b.import_block(good).unwrap(), ImportOutcome::Extended);
}

#[test]
fn rollback_restores_state_receipts_and_clock() {
    let (mut net, _) = twin_nets();
    let alice = Wallet::from_seed("alice");
    let t0 = net.head().timestamp;
    let r = net
        .execute(&alice, Address([9; 20]), ether(2), vec![], 100_000)
        .unwrap();
    let minted = net.total_minted();

    let orphan = net
        .rollback_head_block()
        .expect("block 1 has an undo layer");
    assert_eq!(orphan.number, 1);
    assert_eq!(net.head().number, 0);
    assert_eq!(net.head().timestamp, t0);
    assert_eq!(net.balance_of(alice.address), ether(10));
    assert_eq!(net.balance_of(Address([9; 20])), U256::ZERO);
    assert_eq!(net.nonce_of(alice.address), 0);
    assert!(net.receipt(r.tx_hash).is_none());
    assert_eq!(net.total_minted(), minted, "genesis allocation stays");
    assert!(net.rollback_head_block().is_none(), "genesis stays");

    // The chain keeps working: the same transfer mines again.
    net.execute(&alice, Address([9; 20]), ether(2), vec![], 100_000)
        .unwrap();
    assert_eq!(net.balance_of(Address([9; 20])), ether(2));
}

#[test]
fn heavier_fork_reorgs_and_reports_orphaned_txs() {
    let (mut a, mut b) = twin_nets();
    let alice = Wallet::from_seed("alice");
    let carol = Wallet::from_seed("carol");
    // a mines one block paying bob; b mines two blocks paying dave.
    a.execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
        .unwrap();
    b.execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
        .unwrap();
    b.execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
        .unwrap();
    let orphaned_hash = a.head().transactions[0].hash();
    let b1 = b.block(1).unwrap().clone();
    let b2 = b.block(2).unwrap().clone();

    // b2 arrives first: detached, parked on the side.
    assert_eq!(a.import_block(b2.clone()).unwrap(), ImportOutcome::Side);
    // b1 fills the gap; the two-block branch beats height 1.
    match a.import_block(b1).unwrap() {
        ImportOutcome::Reorged {
            reverted,
            applied,
            orphaned_txs,
        } => {
            assert_eq!((reverted, applied), (1, 2));
            assert_eq!(orphaned_txs.len(), 1);
            assert_eq!(orphaned_txs[0].hash(), orphaned_hash);
        }
        other => panic!("expected reorg, got {other:?}"),
    }
    assert_eq!(a.head().hash, b2.hash);
    assert_eq!(a.balance_of(Address([0xda; 20])), ether(2));
    assert_eq!(a.balance_of(Address([0xb0; 20])), U256::ZERO);
    assert!(a.receipt(orphaned_hash).is_none());
    assert_eq!(a.side_block_count(), 1, "a's old head is now an orphan");
    assert_eq!(a.state.total_balance(), a.total_minted());
    // The orphaned transfer is still valid on the new chain —
    // alice's nonce rolled back with it — so resubmission lands.
    assert_eq!(a.nonce_of(alice.address), 0);
    a.execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
        .unwrap();
    assert_eq!(a.balance_of(Address([0xb0; 20])), ether(1));
}

#[test]
fn equal_height_forks_converge_on_the_smaller_hash() {
    let (mut a, mut b) = twin_nets();
    let alice = Wallet::from_seed("alice");
    let carol = Wallet::from_seed("carol");
    a.execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
        .unwrap();
    b.execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
        .unwrap();
    let block_a = a.head().clone();
    let block_b = b.head().clone();
    assert_eq!(block_a.number, block_b.number);
    let a_out = a.import_block(block_b.clone()).unwrap();
    let b_out = b.import_block(block_a.clone()).unwrap();
    // Exactly one side switches — the one holding the larger hash.
    if block_a.hash.0 < block_b.hash.0 {
        assert_eq!(a_out, ImportOutcome::Side);
        assert!(matches!(b_out, ImportOutcome::Reorged { .. }));
    } else {
        assert!(matches!(a_out, ImportOutcome::Reorged { .. }));
        assert_eq!(b_out, ImportOutcome::Side);
    }
    assert_eq!(a.head().hash, b.head().hash, "fork choice converges");
}

#[test]
fn rollback_unindexes_every_orphaned_receipt() {
    let (mut net, _) = twin_nets();
    let alice = Wallet::from_seed("alice");
    let carol = Wallet::from_seed("carol");
    let hashes: Vec<H256> = [(&alice, 0), (&alice, 1), (&carol, 0)]
        .into_iter()
        .map(|(w, nonce)| {
            net.submit(transfer_tx(nonce, gwei(1), 21_000).sign(&w.key))
                .unwrap()
        })
        .collect();
    let block = net.mine_block();
    assert_eq!(block.transactions.len(), 3);
    assert!(hashes.iter().all(|&h| net.receipt(h).is_some()));

    net.rollback_head_block().expect("block 1 rolls back");
    for h in &hashes {
        assert!(
            net.receipt(*h).is_none(),
            "orphaned receipt {h} still indexed"
        );
    }
    assert!(net.receipts_in_block(1).is_empty());
    assert!(net.prove_receipt(hashes[0]).is_none());

    // A different block 1 takes the orphans' heights and indices: the
    // old hashes must still find nothing, not the newcomers' receipts.
    let dave = Address([0xda; 20]);
    let fresh: Vec<H256> = [&carol, &alice]
        .into_iter()
        .map(|w| {
            let tx = Transaction {
                to: Some(dave),
                ..transfer_tx(0, gwei(2), 21_000)
            };
            net.submit(tx.sign(&w.key)).unwrap()
        })
        .collect();
    assert_eq!(net.mine_block().number, 1);
    for h in &hashes {
        assert!(
            net.receipt(*h).is_none(),
            "orphan {h} resolved after re-mine"
        );
    }
    for h in fresh {
        assert_eq!(net.receipt(h).map(|r| r.tx_hash), Some(h));
    }
}

#[test]
fn receipts_in_block_come_back_in_tx_index_order() {
    let mut net = Testnet::new();
    let senders: Vec<Wallet> = (0..6)
        .map(|i| net.funded_wallet(&format!("sender-{i}"), ether(1)))
        .collect();
    // Prices rise with the sender index, so the fee market packs them in
    // the reverse of arrival order.
    for (i, w) in senders.iter().enumerate() {
        net.submit(transfer_tx(0, gwei(1 + i as u64), 21_000).sign(&w.key))
            .unwrap();
    }
    let block = net.mine_block();
    let receipts = net.receipts_in_block(block.number);
    assert_eq!(receipts.len(), senders.len());
    for (i, (r, tx)) in receipts.iter().zip(&block.transactions).enumerate() {
        assert_eq!(r.tx_index, i);
        assert_eq!(
            r.tx_hash,
            tx.hash(),
            "receipt {i} matches the block's tx {i}"
        );
        assert_eq!(net.receipt(r.tx_hash).map(|r| r.tx_index), Some(i));
    }
    assert!(net.receipts_in_block(block.number + 1).is_empty());
}

#[test]
fn receipt_proofs_verify_after_a_reorg() {
    let (mut a, mut b) = twin_nets();
    let alice = Wallet::from_seed("alice");
    let carol = Wallet::from_seed("carol");
    let orphaned = a
        .execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
        .unwrap()
        .tx_hash;
    let mut winners = Vec::new();
    for _ in 0..2 {
        let r = b
            .execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
            .unwrap();
        winners.push(r.tx_hash);
    }
    for n in 1..=2 {
        a.import_block(b.block(n).unwrap().clone()).unwrap();
    }
    assert_eq!(a.head().hash, b.head().hash, "a reorged onto b's branch");
    assert!(a.prove_receipt(orphaned).is_none());
    for h in winners {
        let proof = a.prove_receipt(h).expect("canonical tx has a proof");
        let header = a.block(proof.block_number).unwrap();
        assert_eq!(proof.verify(header.receipts_root), Ok(()));
        assert_eq!(a.receipt(h).unwrap().block_number, proof.block_number);
    }
    // The orphan lands again on the new chain, in a fresh block.
    let again = a
        .execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
        .unwrap();
    assert_eq!(again.tx_hash, orphaned);
    let proof = a.prove_receipt(orphaned).unwrap();
    assert_eq!(proof.block_number, 3);
    assert_eq!(proof.verify(a.head().receipts_root), Ok(()));
}
