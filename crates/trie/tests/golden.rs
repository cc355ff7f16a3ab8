//! Golden-vector tests against the canonical Ethereum MPT roots
//! (ethereum/tests `TrieTests` and the Yellow Paper's worked example),
//! plus end-to-end proof checks: inclusion, exclusion, and tamper
//! rejection.

use sc_crypto::Keccak256;
use sc_primitives::H256;
use sc_trie::{empty_root, verify_proof, verify_secure_proof, SecureTrie, Trie};

fn h(hex: &str) -> H256 {
    H256::from_hex(hex).unwrap()
}

#[test]
fn empty_trie_root_is_keccak_of_rlp_empty_string() {
    assert_eq!(
        empty_root(),
        h("0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421")
    );
    assert_eq!(Trie::new().root(), empty_root());
    assert_eq!(SecureTrie::new().root(), empty_root());
}

#[test]
fn golden_foo_food() {
    // ethereum/tests TrieTests/trietest.json "foo".
    let mut t = Trie::new();
    t.insert(b"foo", b"bar".to_vec());
    t.insert(b"food", b"bass".to_vec());
    assert_eq!(
        t.root(),
        h("0x17beaa1648bafa633cda809c90c04af50fc8aed3cb40d16efbddee6fdf63c4c3")
    );
}

#[test]
fn golden_dogglesworth() {
    // The Yellow Paper's worked example (also TrieTests "dogs").
    let mut t = Trie::new();
    t.insert(b"doe", b"reindeer".to_vec());
    t.insert(b"dog", b"puppy".to_vec());
    t.insert(b"dogglesworth", b"cat".to_vec());
    assert_eq!(
        t.root(),
        h("0x8aad789dff2f538bca5d8ea56e8abe10f4c7ba3a5dea95fea4cd6e7c3a1168d3")
    );
}

#[test]
fn golden_empty_values_act_as_deletes() {
    // ethereum/tests TrieTests/trietest.json "emptyValues": inserting
    // the empty string removes the key, and the surviving set {do,
    // horse, doge, dog} hits the published root.
    let ops: &[(&[u8], &[u8])] = &[
        (b"do", b"verb"),
        (b"ether", b"wei"),
        (b"horse", b"stallion"),
        (b"shaman", b"horse"),
        (b"doge", b"coin"),
        (b"ether", b""),
        (b"dog", b"puppy"),
        (b"shaman", b""),
    ];
    let expected = h("0x5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84");

    let mut t = Trie::new();
    for (k, v) in ops {
        t.insert(k, v.to_vec());
    }
    assert_eq!(t.root(), expected);
    assert_eq!(t.get(b"ether"), None);
    assert_eq!(t.get(b"dog"), Some(b"puppy".as_slice()));

    // Same content inserted in a different order gives the same root.
    let mut t2 = Trie::new();
    for (k, v) in [
        (b"dog".as_slice(), b"puppy".as_slice()),
        (b"doge", b"coin"),
        (b"do", b"verb"),
        (b"horse", b"stallion"),
    ] {
        t2.insert(k, v.to_vec());
    }
    assert_eq!(t2.root(), expected);
}

#[test]
fn delete_restores_previous_root() {
    let mut t = Trie::new();
    t.insert(b"doe", b"reindeer".to_vec());
    t.insert(b"dog", b"puppy".to_vec());
    let before = t.root();
    t.insert(b"dogglesworth", b"cat".to_vec());
    assert_ne!(t.root(), before);
    assert!(t.remove(b"dogglesworth"));
    assert_eq!(t.root(), before);
    assert!(!t.remove(b"dogglesworth"), "double delete is a no-op");
    assert!(t.remove(b"dog"));
    assert!(t.remove(b"doe"));
    assert_eq!(t.root(), empty_root());
    assert!(t.is_empty());
}

#[test]
fn proofs_inclusion_exclusion_and_tampering() {
    let mut t = Trie::new();
    let pairs: &[(&[u8], &[u8])] = &[
        (b"do", b"verb"),
        (b"dog", b"puppy"),
        (b"doge", b"coin"),
        (b"horse", b"stallion"),
    ];
    for (k, v) in pairs {
        t.insert(k, v.to_vec());
    }
    let root = t.root();

    // Inclusion: every present key proves its own value.
    for (k, v) in pairs {
        let proof = t.prove(k);
        assert_eq!(verify_proof(root, k, &proof).unwrap(), Some(v.to_vec()));
    }

    // Exclusion: a proof for an absent key verifies to None — whether
    // the walk diverges mid-path, dead-ends in a branch, or overshoots
    // a leaf.
    for absent in [b"cat".as_slice(), b"dogs", b"horsey", b"d"] {
        let proof = t.prove(absent);
        assert_eq!(verify_proof(root, absent, &proof).unwrap(), None);
    }

    // Tampering: flip one byte anywhere in the proof and verification
    // must fail (a hash link on the path breaks).
    let proof = t.prove(b"dog");
    for i in 0..proof.len() {
        for j in 0..proof[i].len() {
            let mut forged = proof.clone();
            forged[i][j] ^= 0x01;
            assert!(
                verify_proof(root, b"dog", &forged).map_or(true, |v| v != Some(b"puppy".to_vec())),
                "tampered proof (node {i}, byte {j}) must not verify the original value"
            );
        }
    }

    // A proof verified against the wrong root is rejected outright.
    assert!(verify_proof(H256::ZERO, b"dog", &proof).is_err());
}

#[test]
fn secure_trie_proofs_roundtrip() {
    let mut t = SecureTrie::new();
    for i in 0u8..32 {
        t.insert(&[i; 20], vec![i + 1; 4]);
    }
    let root = t.root();
    let proof = t.prove(&[7u8; 20]);
    assert_eq!(
        verify_secure_proof(root, &[7u8; 20], &proof).unwrap(),
        Some(vec![8u8; 4])
    );
    let absent = t.prove(&[99u8; 20]);
    assert_eq!(
        verify_secure_proof(root, &[99u8; 20], &absent).unwrap(),
        None
    );
}

#[test]
fn empty_trie_proves_exclusion_with_empty_proof() {
    let mut t = Trie::new();
    let proof = t.prove(b"anything");
    assert!(proof.is_empty());
    assert_eq!(
        verify_proof(empty_root(), b"anything", &proof).unwrap(),
        None
    );
}

#[test]
fn incremental_root_matches_fresh_rebuild_under_churn() {
    // Interleave root() calls with writes so cached node refs are
    // exercised and invalidated repeatedly, then compare against a
    // trie built in one pass.
    let mut t = Trie::new();
    for i in 0u64..200 {
        t.insert(&i.to_be_bytes(), i.to_string().into_bytes());
        if i % 7 == 0 {
            t.root();
        }
        if i % 3 == 0 {
            t.remove(&(i / 2).to_be_bytes());
        }
    }
    // Rebuild from observed content: get() walks the in-memory tree, so
    // this cross-checks hashing against structure.
    let mut fresh = Trie::new();
    for i in 0u64..200 {
        if let Some(v) = t.get(&i.to_be_bytes()) {
            fresh.insert(&i.to_be_bytes(), v.to_vec());
        }
    }
    assert_eq!(t.root(), fresh.root());
}

/// SplitMix64: a seeded, dependency-free stream for the churn pins.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `len` bytes, each from a four-letter alphabet when `narrow`, so
    /// keys and values share prefixes and nodes stay short enough to
    /// inline.
    fn bytes(&mut self, len: usize, narrow: bool) -> Vec<u8> {
        const ALPHABET: [u8; 4] = [0x00, 0x01, 0x10, 0xab];
        (0..len)
            .map(|_| {
                let b = self.next() as u8;
                if narrow {
                    ALPHABET[(b & 3) as usize]
                } else {
                    b
                }
            })
            .collect()
    }
}

/// Feeds one proof into the digest, node count and node lengths
/// included, so a moved node boundary moves the digest.
fn absorb_proof(digest: &mut Keccak256, proof: &[Vec<u8>]) {
    digest.update(&(proof.len() as u64).to_be_bytes());
    for node in proof {
        digest.update(&(node.len() as u64).to_be_bytes());
        digest.update(node);
    }
}

/// A churn script over raw keys of 0–40 bytes with values of 1–40
/// bytes, so nodes straddle the 32-byte inline limit; deletes collapse
/// branches and merge extensions, and a final drain empties the trie.
/// Returns one keccak over every intermediate root and every proof.
fn raw_churn_digest() -> H256 {
    let mut rng = Mix(0x7269_6521);
    let pool: Vec<Vec<u8>> = (0..240)
        .map(|_| {
            let len = rng.below(41) as usize;
            let narrow = len <= 6 || rng.below(2) == 0;
            let mut key = rng.bytes(len.min(4), true);
            key.extend(rng.bytes(len.saturating_sub(4), narrow));
            key
        })
        .collect();
    let mut trie = Trie::new();
    let mut digest = Keccak256::new();
    let check = |trie: &mut Trie, digest: &mut Keccak256, rng: &mut Mix| {
        let root = trie.root();
        digest.update(root.as_bytes());
        for _ in 0..3 {
            let key = if rng.below(4) == 0 {
                let len = rng.below(41) as usize;
                rng.bytes(len, true)
            } else {
                pool[rng.below(pool.len() as u64) as usize].clone()
            };
            let proof = trie.prove(&key);
            let expected = trie.get(&key).map(<[u8]>::to_vec);
            assert_eq!(verify_proof(root, &key, &proof).unwrap(), expected);
            absorb_proof(digest, &proof);
        }
    };
    for step in 0..3_000u32 {
        let key = &pool[rng.below(pool.len() as u64) as usize];
        if rng.below(3) == 0 {
            trie.remove(key);
        } else {
            let len = 1 + rng.below(40) as usize;
            let narrow = rng.below(2) == 0;
            trie.insert(key, rng.bytes(len, narrow));
        }
        if step % 17 == 0 {
            check(&mut trie, &mut digest, &mut rng);
        }
    }
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for (i, &k) in order.iter().enumerate() {
        trie.remove(&pool[k]);
        if i % 7 == 0 {
            check(&mut trie, &mut digest, &mut rng);
        }
    }
    assert_eq!(trie.root(), empty_root());
    digest.finalize()
}

/// The secure-trie half of the churn pins: 5,000 keys, then rounds of
/// updates and deletes with a root and a batch of proofs after each.
fn secure_churn_digest() -> H256 {
    let mut rng = Mix(0x7365_6375_7265);
    let mut trie = SecureTrie::new();
    let mut digest = Keccak256::new();
    let value = |rng: &mut Mix| {
        let len = 1 + rng.below(33) as usize;
        rng.bytes(len, false)
    };
    for i in 0u64..5_000 {
        trie.insert(&i.to_be_bytes(), value(&mut rng));
    }
    for round in 0..12 {
        if round > 0 {
            for _ in 0..400 {
                let key = rng.below(5_500).to_be_bytes();
                if rng.below(4) == 0 {
                    trie.remove(&key);
                } else {
                    trie.insert(&key, value(&mut rng));
                }
            }
        }
        let root = trie.root();
        digest.update(root.as_bytes());
        for _ in 0..16 {
            let key = rng.below(5_500).to_be_bytes();
            let proof = trie.prove(&key);
            let expected = trie.get(&key).map(<[u8]>::to_vec);
            assert_eq!(verify_secure_proof(root, &key, &proof).unwrap(), expected);
            absorb_proof(&mut digest, &proof);
        }
    }
    digest.finalize()
}

#[test]
fn raw_trie_churn_roots_and_proofs_are_pinned() {
    assert_eq!(raw_churn_digest(), h(RAW_CHURN_DIGEST));
}

#[test]
fn secure_trie_churn_roots_and_proofs_are_pinned() {
    assert_eq!(secure_churn_digest(), h(SECURE_CHURN_DIGEST));
}

/// keccak over every root and proof of [`raw_churn_digest`]'s script.
const RAW_CHURN_DIGEST: &str = "0xcdf287896ccc66d5374599314e46e2f2136581adeea805d490f95627396296ca";
/// keccak over every root and proof of [`secure_churn_digest`]'s script.
const SECURE_CHURN_DIGEST: &str =
    "0x952f30b9ff09eb7d5e36cbd8d9fced0ab28933ecb8e8496cbf0f26fa93afe0bc";
