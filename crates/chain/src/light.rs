//! Light client: verified headers only, no state, no transaction bodies.
//!
//! A [`HeaderClient`] starts from a trusted genesis header and follows
//! the chain by importing gossiped headers. Every import re-derives the
//! header hash from its fields (never trusting the wire), checks chain
//! linkage, and runs the same fork choice as a full node — height first,
//! smaller hash as the tiebreak — so a fleet of light clients converges
//! on the same head as the full nodes feeding them, reorgs included.
//!
//! Storage reads are served by checking a [`StorageProof`] against the
//! `state_root` of the tracked head ([`HeaderClient::verified_storage`]),
//! which is the paper's "stateless verifier" role: a session participant
//! that holds no chain state but still refuses unproven answers.

use crate::block::Header;
use crate::fork_choice::{Backdated, ChainStore};
use crate::proof::{AccountProof, ProofVerifyError, ReceiptProof, StorageProof};
use sc_primitives::{H256, U256};

/// Outcome of a header import that did not error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeaderImport {
    /// The header (or its hash) was already tracked.
    AlreadyKnown,
    /// The header extended the canonical head.
    Extended,
    /// Stored on a side branch (or still detached); head unchanged.
    Side,
    /// A competing branch won fork choice and became canonical.
    Reorged {
        /// Headers removed from the canonical chain.
        reverted: u64,
        /// Headers that replaced them.
        applied: u64,
    },
}

/// Why a header import was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeaderImportError {
    /// The header's `hash` field does not match a hash recomputed from
    /// its contents (only possible for hand-built headers — the wire
    /// decoder always recomputes).
    HashMismatch,
    /// The header is dated at or before a parent the client holds — the
    /// full node's import rule. It is not stored.
    TimestampDoesNotAdvance,
}

impl std::fmt::Display for HeaderImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderImportError::HashMismatch => {
                write!(f, "header hash does not commit the contents")
            }
            HeaderImportError::TimestampDoesNotAdvance => {
                write!(f, "header timestamp does not advance")
            }
        }
    }
}

impl std::error::Error for HeaderImportError {}

/// A light client tracking verified headers only.
#[derive(Clone, Debug)]
pub struct HeaderClient {
    /// The canonical header chain from the trusted start, and every
    /// side header.
    headers: ChainStore<Header>,
}

impl HeaderClient {
    /// Starts a client from a trusted genesis (or checkpoint) header.
    pub fn new(genesis: Header) -> HeaderClient {
        HeaderClient {
            headers: ChainStore::new(genesis),
        }
    }

    /// The tracked canonical head.
    pub fn head(&self) -> &Header {
        self.headers.head()
    }

    /// Height of the tracked head.
    pub fn height(&self) -> u64 {
        self.head().number
    }

    /// Canonical header at `number`, if tracked.
    pub fn header(&self, number: u64) -> Option<&Header> {
        self.headers.get(number)
    }

    /// Canonical header lookup by hash.
    pub fn header_by_hash(&self, hash: H256) -> Option<&Header> {
        self.headers.by_hash(hash)
    }

    /// Number of non-canonical headers currently stored.
    pub fn side_count(&self) -> usize {
        self.headers.side_len()
    }

    /// Imports one header: verifies its hash commits its contents,
    /// stores it, and moves the head when fork choice prefers the
    /// branch it completes. Detached headers are retained and reconnect
    /// automatically once the gap fills. Headers carry no state, so a
    /// reorg is a truncate-and-extend of the canonical chain.
    pub fn import_header(&mut self, header: Header) -> Result<HeaderImport, HeaderImportError> {
        if !header.hash_commits_fields() {
            return Err(HeaderImportError::HashMismatch);
        }
        let stored = self
            .headers
            .insert(header)
            .map_err(|Backdated| HeaderImportError::TimestampDoesNotAdvance)?;
        if !stored {
            return Ok(HeaderImport::AlreadyKnown);
        }
        let Some((fork, branch)) = self.headers.best_branch() else {
            return Ok(HeaderImport::Side);
        };
        let reverted = self.height() - fork;
        while self.height() > fork {
            let orphan = self.headers.pop().expect("above the fork");
            self.headers.park(orphan);
        }
        let applied = branch.len() as u64;
        for h in branch {
            self.headers.push(h);
        }
        Ok(match reverted {
            0 => HeaderImport::Extended,
            _ => HeaderImport::Reorged { reverted, applied },
        })
    }

    /// Checks a storage proof against the tracked head's `state_root`,
    /// returning the proven value. This is the only read path a light
    /// client has — no proof, no answer.
    pub fn verified_storage(&self, proof: &StorageProof) -> Result<U256, ProofVerifyError> {
        proof.verify(self.head().state_root)?;
        Ok(proof.value)
    }

    /// Checks an account proof against the tracked head's `state_root`,
    /// returning the proven `(nonce, balance)`. A light *submitter*
    /// uses this to bound its own nonce and funds without trusting the
    /// relay's account map.
    pub fn verified_account(&self, proof: &AccountProof) -> Result<(u64, U256), ProofVerifyError> {
        proof.verify(self.head().state_root)?;
        Ok((proof.nonce, proof.balance))
    }

    /// Confirms transaction inclusion from headers alone: the claimed
    /// block must be a *tracked canonical* header, that header must
    /// commit the transaction hash, and the receipt's Merkle path must
    /// check out against the header's `receipts_root`. After a reorg
    /// orphans the block, the header at that height changes and the
    /// same witness is rejected — which is exactly what forces a light
    /// session to resubmit.
    pub fn verified_receipt(&self, proof: &ReceiptProof) -> Result<(), ProofVerifyError> {
        let header = self
            .header(proof.block_number)
            .ok_or(ProofVerifyError::UntrackedHeader(proof.block_number))?;
        if !header.tx_hashes.contains(&proof.tx_hash) {
            return Err(ProofVerifyError::TxNotCommitted(proof.tx_hash));
        }
        proof.verify(header.receipts_root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::Testnet;
    use crate::tx::Wallet;
    use sc_primitives::{ether, Address};

    /// A chain with a deployed contract holding `42` in slot 1, plus the
    /// proof for that slot anchored at the head.
    fn chain_with_storage() -> (Testnet, Address, StorageProof) {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        // `PUSH1 42 PUSH1 1 SSTORE STOP` as initcode.
        let initcode = vec![0x60, 0x2a, 0x60, 0x01, 0x55, 0x00];
        let receipt = net.deploy(&alice, initcode, U256::ZERO, 200_000).unwrap();
        let contract = receipt.contract_address.unwrap();
        let proof = net.prove_storage(contract, U256::ONE);
        (net, contract, proof)
    }

    #[test]
    fn follows_headers_and_verifies_storage() {
        let (mut net, contract, proof) = chain_with_storage();
        let alice = Wallet::from_seed("alice");
        net.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
            .unwrap();

        let mut client = HeaderClient::new(net.block(0).unwrap().header.clone());
        for n in 1..=net.head().number {
            let out = client
                .import_header(net.block(n).unwrap().header.clone())
                .unwrap();
            assert_eq!(out, HeaderImport::Extended);
        }
        assert_eq!(client.height(), net.head().number);
        assert_eq!(client.head().hash, net.head().hash);

        // The proof was anchored at block 1; it still checks out against
        // that header's root.
        proof.verify(client.header(1).unwrap().state_root).unwrap();
        assert!(client.header(99).is_none());
        // Against the head's root it must fail (alice's transfer moved
        // the account trie): a light client never accepts stale proofs,
        // and the re-proved read goes through.
        assert!(client.verified_storage(&proof).is_err());
        let fresh = net.prove_storage(contract, U256::ONE);
        assert_eq!(client.verified_storage(&fresh), Ok(U256::from_u64(42)));
    }

    #[test]
    fn out_of_order_headers_connect_and_tampering_is_rejected() {
        let (mut net, _, _) = chain_with_storage();
        let alice = Wallet::from_seed("alice");
        for _ in 0..3 {
            net.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
                .unwrap();
        }
        let mut client = HeaderClient::new(net.block(0).unwrap().header.clone());
        // Newest-first delivery: everything parks, then block 1 connects
        // the whole branch at once.
        for n in [4u64, 3, 2] {
            assert_eq!(
                client
                    .import_header(net.block(n).unwrap().header.clone())
                    .unwrap(),
                HeaderImport::Side
            );
        }
        assert_eq!(
            client
                .import_header(net.block(1).unwrap().header.clone())
                .unwrap(),
            HeaderImport::Extended
        );
        assert_eq!(client.height(), 4);
        assert_eq!(client.side_count(), 0);

        // A header whose hash doesn't commit its fields is refused.
        let mut forged = net.block(2).unwrap().header.clone();
        forged.gas_used += 1;
        assert_eq!(
            client.import_header(forged),
            Err(HeaderImportError::HashMismatch)
        );

        // A well-formed child of the head dated at or before it is
        // refused and not kept, so anything built on it is detached; the
        // honest child still extends.
        let head = client.head().clone();
        let child_at = |parent: &Header, timestamp| {
            Header::new(
                parent.number + 1,
                timestamp,
                parent.hash,
                parent.state_root,
                parent.receipts_root,
                0,
                vec![],
            )
        };
        let backdated_times = [head.timestamp, head.timestamp - 3_000];
        for (detached, timestamp) in backdated_times.into_iter().enumerate() {
            let backdated = child_at(&head, timestamp);
            let grandchild = child_at(&backdated, head.timestamp + 8);
            assert_eq!(
                client.import_header(backdated),
                Err(HeaderImportError::TimestampDoesNotAdvance)
            );
            assert_eq!(
                client.side_count(),
                detached,
                "the refused header is not kept"
            );
            assert_eq!(
                client.import_header(grandchild).unwrap(),
                HeaderImport::Side
            );
            assert_eq!(client.head().hash, head.hash);
        }
        assert_eq!(
            client
                .import_header(child_at(&head, head.timestamp + 4))
                .unwrap(),
            HeaderImport::Extended
        );
    }

    #[test]
    fn header_reorg_tracks_the_heavier_fork() {
        // Two full nodes diverge; the light client hears fork A first,
        // then the heavier fork B, and must switch.
        let mk = || {
            let mut net = Testnet::new();
            net.funded_wallet("alice", ether(10));
            net.funded_wallet("carol", ether(10));
            net
        };
        let (mut a, mut b) = (mk(), mk());
        let alice = Wallet::from_seed("alice");
        let carol = Wallet::from_seed("carol");
        a.execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
            .unwrap();
        b.execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
            .unwrap();
        b.execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
            .unwrap();

        let mut client = HeaderClient::new(a.block(0).unwrap().header.clone());
        assert_eq!(
            client
                .import_header(a.block(1).unwrap().header.clone())
                .unwrap(),
            HeaderImport::Extended
        );
        // Equal height: whether the client switches now depends only on
        // the hash tiebreak, so accept both shapes…
        let mid = client
            .import_header(b.block(1).unwrap().header.clone())
            .unwrap();
        assert!(matches!(
            mid,
            HeaderImport::Side
                | HeaderImport::Reorged {
                    reverted: 1,
                    applied: 1
                }
        ));
        // …but once fork B is strictly heavier, the client must be on it.
        let out = client
            .import_header(b.block(2).unwrap().header.clone())
            .unwrap();
        match mid {
            HeaderImport::Side => assert_eq!(
                out,
                HeaderImport::Reorged {
                    reverted: 1,
                    applied: 2
                }
            ),
            _ => assert_eq!(out, HeaderImport::Extended),
        }
        assert_eq!(client.head().hash, b.head().hash);
        assert_eq!(client.side_count(), 1, "fork A's header is orphaned");
    }

    #[test]
    fn a_checkpoint_started_client_follows_from_its_checkpoint() {
        // Regression: the client indexed its trusted header at height 0
        // whatever its number, so a client started past genesis could
        // neither find it by hash nor connect the header after it.
        let (mut net, _, _) = chain_with_storage();
        let alice = Wallet::from_seed("alice");
        for _ in 0..3 {
            net.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
                .unwrap();
        }
        let checkpoint = net.block(2).unwrap().header.clone();
        let mut client = HeaderClient::new(checkpoint.clone());
        assert_eq!(client.header_by_hash(checkpoint.hash), Some(&checkpoint));
        for n in 3..=net.head().number {
            let header = net.block(n).unwrap().header.clone();
            assert_eq!(client.import_header(header), Ok(HeaderImport::Extended));
        }
        assert_eq!(client.head().hash, net.head().hash);
        assert!(client.header(1).is_none(), "nothing below the checkpoint");
    }

    #[test]
    fn thousand_light_clients_smoke() {
        let (mut net, _, proof) = chain_with_storage();
        let alice = Wallet::from_seed("alice");
        for _ in 0..4 {
            net.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
                .unwrap();
        }
        let headers: Vec<Header> = (0..=net.head().number)
            .map(|n| net.block(n).unwrap().header.clone())
            .collect();
        let head_hash = net.head().hash;

        for i in 0..1000 {
            let mut client = HeaderClient::new(headers[0].clone());
            // Half the fleet receives headers in order, half reversed —
            // both must converge on the same verified head.
            if i % 2 == 0 {
                for h in &headers[1..] {
                    client.import_header(h.clone()).unwrap();
                }
            } else {
                for h in headers[1..].iter().rev() {
                    client.import_header(h.clone()).unwrap();
                }
            }
            assert_eq!(client.head().hash, head_hash);
            assert_eq!(client.side_count(), 0);
            // Every client refuses the stale proof at its head but
            // accepts it against the header it was anchored to.
            assert!(client.verified_storage(&proof).is_err());
            proof.verify(client.header(1).unwrap().state_root).unwrap();
        }
    }

    /// A client tracking `net`'s full canonical chain.
    fn synced_client(net: &Testnet) -> HeaderClient {
        let mut client = HeaderClient::new(net.block(0).unwrap().header.clone());
        for n in 1..=net.head().number {
            client
                .import_header(net.block(n).unwrap().header.clone())
                .unwrap();
        }
        client
    }

    #[test]
    fn receipt_inclusion_verifies_and_forgeries_are_rejected() {
        let (mut net, contract, _) = chain_with_storage();
        let alice = Wallet::from_seed("alice");
        let r = net
            .execute(&alice, contract, U256::ZERO, vec![], 100_000)
            .unwrap();
        let client = synced_client(&net);

        let proof = net.prove_receipt(r.tx_hash).expect("mined tx has a proof");
        client.verified_receipt(&proof).expect("honest inclusion");

        // Unknown height: typed error, no trusted root to check against.
        let mut forged = proof.clone();
        forged.block_number = 99;
        assert_eq!(
            client.verified_receipt(&forged),
            Err(ProofVerifyError::UntrackedHeader(99))
        );
        // A tx hash the header never committed.
        let mut forged = proof.clone();
        forged.tx_hash = H256([0xab; 32]);
        assert_eq!(
            client.verified_receipt(&forged),
            Err(ProofVerifyError::TxNotCommitted(H256([0xab; 32])))
        );
        // A doctored receipt payload (claiming success bits it never
        // had) breaks the leaf match.
        let mut forged = proof.clone();
        forged.receipt_rlp[0] ^= 0x01;
        assert!(client.verified_receipt(&forged).is_err());
        // A claimed index the root commits a different receipt at.
        let mut forged = proof.clone();
        forged.tx_index += 1;
        assert!(client.verified_receipt(&forged).is_err());
    }

    #[test]
    fn forged_account_witness_is_rejected_typed() {
        let (mut net, _, _) = chain_with_storage();
        let alice = Wallet::from_seed("alice");
        let client = synced_client(&net);
        let proof = net.prove_account(alice.address);
        assert!(proof.nonce > 0, "alice deployed, so her nonce moved");
        let (nonce, balance) = client.verified_account(&proof).unwrap();
        assert_eq!((nonce, balance), (proof.nonce, proof.balance));

        // Tampered balance and nonce: path verifies, claim does not.
        let mut forged = proof.clone();
        forged.balance = forged.balance.wrapping_add(U256::ONE);
        assert!(matches!(
            client.verified_account(&forged),
            Err(ProofVerifyError::AccountMismatch { .. })
        ));
        let mut forged = proof.clone();
        forged.nonce += 1;
        assert!(matches!(
            client.verified_account(&forged),
            Err(ProofVerifyError::AccountMismatch { .. })
        ));
        // The honest proof is anchored to the head and to no other root.
        assert!(proof.verify(client.header(0).unwrap().state_root).is_err());
    }

    /// Every structurally-corrupted witness must surface a typed error —
    /// never a panic — no matter which byte an adversarial relay mangles.
    #[test]
    fn malformed_witness_corpus_yields_typed_errors() {
        let (mut net, contract, _) = chain_with_storage();
        let alice = Wallet::from_seed("alice");
        let r = net
            .execute(&alice, contract, U256::ZERO, vec![], 100_000)
            .unwrap();
        let client = synced_client(&net);
        // Taken after the last block, so each witness verifies against
        // the head untouched: a mutation below fails for what it
        // corrupts, not for being stale.
        let storage_proof = net.prove_storage(contract, U256::ONE);
        let account_proof = net.prove_account(alice.address);
        let receipt_proof = net.prove_receipt(r.tx_hash).unwrap();
        assert_eq!(
            client.verified_storage(&storage_proof),
            Ok(U256::from_u64(42))
        );
        client.verified_account(&account_proof).unwrap();
        client.verified_receipt(&receipt_proof).unwrap();

        // Corrupt every byte of every path node, plus truncations and
        // node swaps — all must decode to Err, none may panic.
        let mut corpus = 0usize;
        for i in 0..storage_proof.account_proof.len() {
            for bit in [0x01u8, 0x80] {
                let mut p = storage_proof.clone();
                for b in p.account_proof[i].iter_mut() {
                    *b ^= bit;
                }
                assert!(client.verified_storage(&p).is_err());
                corpus += 1;
            }
        }
        for i in 0..account_proof.account_proof.len() {
            let mut p = account_proof.clone();
            p.account_proof[i] = vec![0xc0]; // replaced by an empty list
            assert!(client.verified_account(&p).is_err());
            corpus += 1;
        }
        let mut p = account_proof.clone();
        p.account_proof.clear(); // truncated to nothing
        assert!(client.verified_account(&p).is_err());
        let mut p = storage_proof.clone();
        p.storage_proof.reverse(); // nodes out of path order still hash-checked
        p.value = p.value.wrapping_add(U256::ONE);
        assert!(client.verified_storage(&p).is_err());
        for i in 0..receipt_proof.proof.len() {
            let mut p = receipt_proof.clone();
            p.proof[i] = vec![0xff; 3];
            assert!(client.verified_receipt(&p).is_err());
            corpus += 1;
        }
        let mut p = receipt_proof.clone();
        p.receipt_rlp = vec![]; // empty consensus payload
        assert!(client.verified_receipt(&p).is_err());
        assert!(corpus >= 4, "corpus exercised {corpus} mutations");
    }

    #[test]
    fn stale_witness_is_rejected_after_reorg() {
        // The client follows fork A, proves a read against A's head,
        // then reorgs to fork B: the witness anchored to A's root must
        // be rejected at the new head, and a fresh proof from B's chain
        // must verify. This is the re-prove obligation a light session
        // discharges after every reorg.
        let mk = || {
            let mut net = Testnet::new();
            net.funded_wallet("alice", ether(10));
            net.funded_wallet("carol", ether(10));
            net
        };
        let (mut a, mut b) = (mk(), mk());
        let alice = Wallet::from_seed("alice");
        let carol = Wallet::from_seed("carol");
        a.execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
            .unwrap();
        b.execute(&carol, Address([0xda; 20]), ether(2), vec![], 100_000)
            .unwrap();
        b.execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
            .unwrap();

        let mut client = HeaderClient::new(a.block(0).unwrap().header.clone());
        client
            .import_header(a.block(1).unwrap().header.clone())
            .unwrap();
        // An account witness whose value genuinely differs between the
        // forks: fork A paid 0xb0, fork B never did.
        let stale_account = a.prove_account(Address([0xb0; 20]));
        client
            .verified_account(&stale_account)
            .expect("fresh on fork A");

        // Fork B is heavier: the client must switch…
        client
            .import_header(b.block(1).unwrap().header.clone())
            .unwrap();
        let out = client
            .import_header(b.block(2).unwrap().header.clone())
            .unwrap();
        assert!(matches!(
            out,
            HeaderImport::Reorged { .. } | HeaderImport::Extended
        ));
        assert_eq!(client.head().hash, b.head().hash);
        // …and the stale fork-A witness must now be rejected, while a
        // fresh fork-B witness for the same account verifies.
        assert!(client.verified_account(&stale_account).is_err());
        let fresh = b.prove_account(Address([0xb0; 20]));
        assert_eq!(
            client.verified_account(&fresh).unwrap(),
            (0, U256::ZERO),
            "fork B never paid 0xb0"
        );
    }
}
