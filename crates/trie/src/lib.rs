//! A secure Merkle-Patricia trie (MPT) over [`sc_primitives::rlp`] and
//! keccak-256 — the authenticated key/value store behind the chain's
//! `state_root` and `receipts_root` commitments.
//!
//! The layout is the Yellow Paper's (Appendix D): leaf / extension /
//! branch nodes, hex-prefix path packing, and node references that
//! inline encodings shorter than 32 bytes. Two entry points:
//!
//! * [`Trie`] — raw byte keys, used for the receipts trie (keyed by
//!   `rlp(index)`).
//! * [`SecureTrie`] — keys pre-hashed with keccak-256, used for the
//!   account trie (keyed by `keccak(address)`) and per-account storage
//!   tries (keyed by `keccak(slot)`), so adversarial keys cannot craft
//!   deep unbalanced paths.
//!
//! Roots are *incremental*: every node memoises its RLP reference and a
//! mutation invalidates only the path it touched, so folding a block's
//! worth of writes re-hashes just the dirty spine ([`Trie::root`]).
//! [`Trie::prove`] extracts the hash-referenced nodes along a lookup
//! path and [`verify_proof`] replays them statelessly against a root —
//! for both inclusion and exclusion.

mod nibbles;
mod node;
mod proof;

pub use nibbles::{hp_decode, hp_encode, to_nibbles};
pub use proof::{verify_proof, ProofError};

use node::{Child, Entry};
use sc_crypto::keccak256;
use sc_primitives::H256;
use std::sync::OnceLock;

/// Root hash of the empty trie: `keccak256(rlp(""))` =
/// `0x56e81f17…b421`.
pub fn empty_root() -> H256 {
    static ROOT: OnceLock<H256> = OnceLock::new();
    *ROOT.get_or_init(|| keccak256(&[0x80]))
}

/// A Merkle-Patricia trie over raw byte keys.
///
/// Inserting an empty value removes the key — Ethereum's convention,
/// which keeps "zero storage slot" and "absent storage slot"
/// indistinguishable under one root.
#[derive(Debug, Clone, Default)]
pub struct Trie {
    root: Child,
}

impl Trie {
    /// An empty trie (root = [`empty_root`]).
    pub fn new() -> Trie {
        Trie::default()
    }

    /// True when the trie holds no keys.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Binds `key` to `value`; an empty `value` deletes the key.
    pub fn insert(&mut self, key: &[u8], value: impl Into<Vec<u8>>) {
        let value = value.into();
        if value.is_empty() {
            self.remove(key);
            return;
        }
        nibbles::with_nibbles(key, |n| match self.root.as_mut() {
            Some(root) => root.insert(n, value),
            None => self.root = Some(Entry::leaf(n, value)),
        });
    }

    /// Deletes `key`, returning whether it was present.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let Some(root) = self.root.as_mut() else {
            return false;
        };
        match nibbles::with_nibbles(key, |n| root.remove(n)) {
            None => false,
            Some(gone) => {
                if gone {
                    self.root = None;
                }
                true
            }
        }
    }

    /// Looks up `key` in the in-memory tree (no hashing involved).
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let root = self.root.as_ref()?;
        nibbles::with_nibbles(key, |n| root.get(n))
    }

    /// The Merkle root. Incremental: only nodes dirtied since the last
    /// call are re-encoded and re-hashed.
    pub fn root(&mut self) -> H256 {
        match self.root.as_mut() {
            None => empty_root(),
            Some(root) => root.hash(),
        }
    }
}

/// A trie whose keys are keccak-256 hashed before insertion — the
/// "secure" trie Ethereum uses for accounts and storage.
#[derive(Debug, Clone, Default)]
pub struct SecureTrie {
    inner: Trie,
}

impl SecureTrie {
    /// An empty secure trie.
    pub fn new() -> SecureTrie {
        SecureTrie::default()
    }

    /// True when the trie holds no keys.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Binds `keccak(key)` to `value`; an empty `value` deletes.
    pub fn insert(&mut self, key: &[u8], value: impl Into<Vec<u8>>) {
        self.inner.insert(keccak256(key).as_bytes(), value);
    }

    /// Deletes `key`, returning whether it was present.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        self.inner.remove(keccak256(key).as_bytes())
    }

    /// Looks up `key`.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.inner.get(keccak256(key).as_bytes())
    }

    /// The Merkle root (see [`Trie::root`]).
    pub fn root(&mut self) -> H256 {
        self.inner.root()
    }

    /// Merkle proof for `key` (see [`Trie::prove`]); verify with
    /// [`verify_secure_proof`].
    pub fn prove(&mut self, key: &[u8]) -> Vec<Vec<u8>> {
        self.inner.prove(keccak256(key).as_bytes())
    }
}

/// [`verify_proof`] for a [`SecureTrie`]: hashes `key` first.
pub fn verify_secure_proof(
    root: H256,
    key: &[u8],
    proof: &[Vec<u8>],
) -> Result<Option<Vec<u8>>, ProofError> {
    verify_proof(root, keccak256(key).as_bytes(), proof)
}
