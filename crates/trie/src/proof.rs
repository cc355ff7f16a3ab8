//! Stateless Merkle-proof verification.
//!
//! A proof is the list of RLP-encoded nodes a light verifier needs to
//! walk from the root commitment to the key: every hash-referenced node
//! on the path (inlined nodes travel inside their parent's encoding).
//! Verification resolves each reference against the keccak-256 of the
//! supplied nodes, so a tampered node or value changes a hash somewhere
//! on the path and the walk fails. The same walk proves *exclusion*:
//! when the path ends in an empty slot or diverges from the stored
//! partial path, the proof demonstrates the key is absent.

use crate::nibbles::{hp_decode, to_nibbles, with_nibbles};
use crate::node::{encode_buffer, Node};
use crate::{empty_root, Trie};
use sc_crypto::keccak256;
use sc_primitives::rlp::Rlp;
use sc_primitives::H256;
use std::fmt;

/// Why a proof failed to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// A node's RLP did not decode, or decoded to an impossible shape.
    BadNode,
    /// The walk hit a hash reference with no matching node in the proof.
    MissingNode(H256),
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::BadNode => write!(f, "malformed trie node in proof"),
            ProofError::MissingNode(h) => write!(f, "proof is missing node {h}"),
        }
    }
}

impl std::error::Error for ProofError {}

impl Trie {
    /// Merkle proof for `key`: the RLP encodings of every
    /// hash-referenced node on the lookup path, root first. Works for
    /// present keys (inclusion) and absent keys (exclusion) alike; the
    /// empty trie proves every exclusion with an empty proof.
    pub fn prove(&mut self, key: &[u8]) -> Vec<Vec<u8>> {
        let mut proof = Vec::new();
        let Some(root) = self.root.as_mut() else {
            return proof;
        };
        let mut buf = encode_buffer();
        proof.push(root.encode(&mut buf));
        with_nibbles(key, |n| {
            let mut cur = root;
            let mut at = 0usize;
            loop {
                let next = match &mut cur.node {
                    Node::Leaf { .. } => return,
                    Node::Extension { path, child } => {
                        if !path.is_prefix_of(&n[at..]) {
                            return;
                        }
                        at += path.len();
                        child
                    }
                    Node::Branch { children, .. } => {
                        let Some(&idx) = n.get(at) else {
                            return;
                        };
                        at += 1;
                        match children[idx as usize].as_mut() {
                            Some(child) => child,
                            None => return,
                        }
                    }
                };
                if next.is_hash_referenced(&mut buf) {
                    proof.push(next.encode(&mut buf));
                }
                cur = next;
            }
        });
        proof
    }
}

/// Verifies a Merkle proof for `key` against a trie `root`.
///
/// Returns `Ok(Some(value))` when the proof shows the key bound to
/// `value` (inclusion), `Ok(None)` when it shows the key absent
/// (exclusion), and `Err` when the proof is malformed or incomplete —
/// which includes any tampering with a node or value, since that breaks
/// a hash link back to the root.
pub fn verify_proof(
    root: H256,
    key: &[u8],
    proof: &[Vec<u8>],
) -> Result<Option<Vec<u8>>, ProofError> {
    if root == empty_root() {
        return Ok(None);
    }
    let by_hash: Vec<(H256, &[u8])> = proof
        .iter()
        .map(|enc| (keccak256(enc), enc.as_slice()))
        .collect();
    let n = to_nibbles(key);
    let mut at = 0usize;
    let mut node = find(root, &by_hash)?;
    loop {
        let mut items = node.iter();
        let reference = match node.iter().count() {
            2 => {
                let (Some(hp), Some(target)) = (items.next(), items.next()) else {
                    return Err(ProofError::BadNode);
                };
                if hp.is_list() {
                    return Err(ProofError::BadNode);
                }
                let (path, is_leaf) = hp_decode(hp.as_bytes())?;
                if is_leaf {
                    if target.is_list() {
                        return Err(ProofError::BadNode);
                    }
                    return Ok((n[at..] == path[..]).then(|| target.as_bytes().to_vec()));
                }
                if path.is_empty() {
                    return Err(ProofError::BadNode); // canonical extensions never have empty paths
                }
                if !n[at..].starts_with(&path) {
                    return Ok(None); // path diverges: proven absent
                }
                at += path.len();
                target
            }
            17 => {
                // Slot 16 holds the value of a key that ends here.
                let slot = n.get(at).map_or(16, |&nibble| nibble as usize);
                let Some(child) = items.nth(slot) else {
                    return Err(ProofError::BadNode);
                };
                if at == n.len() {
                    if child.is_list() {
                        return Err(ProofError::BadNode);
                    }
                    let value = child.as_bytes();
                    return Ok((!value.is_empty()).then(|| value.to_vec()));
                }
                at += 1;
                child
            }
            _ => return Err(ProofError::BadNode),
        };
        node = match resolve(reference, &by_hash)? {
            Some(node) => node,
            None => return Ok(None), // empty slot: proven absent
        };
    }
}

/// Resolves a child reference: an inline list stands for itself, a
/// 32-byte string names a proof node by hash, the empty string is an
/// empty slot.
fn resolve<'a>(
    reference: Rlp<'a>,
    by_hash: &[(H256, &'a [u8])],
) -> Result<Option<Rlp<'a>>, ProofError> {
    match reference.as_bytes() {
        _ if reference.is_list() => Ok(Some(reference)),
        [] => Ok(None),
        b => find(
            b.try_into().map(H256).map_err(|_| ProofError::BadNode)?,
            by_hash,
        )
        .map(Some),
    }
}

/// The proof node whose keccak-256 is `hash`, validated.
fn find<'a>(hash: H256, by_hash: &[(H256, &'a [u8])]) -> Result<Rlp<'a>, ProofError> {
    let (_, enc) = by_hash
        .iter()
        .find(|(h, _)| *h == hash)
        .ok_or(ProofError::MissingNode(hash))?;
    Rlp::new(enc).map_err(|_| ProofError::BadNode)
}
