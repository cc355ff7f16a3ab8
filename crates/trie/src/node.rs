//! The in-memory node tree behind [`crate::Trie`].
//!
//! Nodes follow the Yellow Paper's three shapes — leaf, extension and
//! 17-slot branch — and every node carries a cached RLP *reference*:
//! its encoding when that is shorter than 32 bytes, else the keccak-256
//! of the encoding. A node encodes straight into one reused byte buffer:
//! its list header comes from lengths known up front (33 bytes for a
//! hash reference, the inline length, 1 for an empty slot), its path is
//! already stored in hex-prefix form, and a clean child's reference is
//! copied from its cache. Mutations walk down by `&mut`, clear the
//! caches along the touched path only, and rebuild a node only where
//! the shape changes, so recomputing the root after a batch of writes
//! re-hashes just the dirty spine (the "dirty-node cache" the block
//! sealer relies on).

use crate::nibbles::hp_encode;
use sc_crypto::keccak256;
use sc_primitives::rlp;
use sc_primitives::H256;
use std::mem;

/// A leaf's or extension's partial path, stored as the hex-prefix bytes
/// its encoding carries (Yellow Paper Appendix C): one byte per two
/// nibbles behind a flag byte, instead of one byte per nibble.
#[derive(Debug, Clone, Default)]
pub(crate) struct Path(Box<[u8]>);

impl Path {
    fn new(nibbles: &[u8], is_leaf: bool) -> Path {
        Path(hp_encode(nibbles, is_leaf).into_boxed_slice())
    }

    /// `prefix` followed by `rest`, flagged as a leaf or extension path.
    fn joined(prefix: &[u8], rest: &Path, is_leaf: bool) -> Path {
        let mut nibbles = prefix.to_vec();
        nibbles.extend(rest.nibbles());
        Path::new(&nibbles, is_leaf)
    }

    /// Index of the first path nibble in the packed bytes: an odd path
    /// keeps it in the flag byte's low half.
    fn offset(&self) -> usize {
        if self.0.first().is_some_and(|f| f & 0x10 != 0) {
            1
        } else {
            2
        }
    }

    /// Number of nibbles.
    pub(crate) fn len(&self) -> usize {
        (2 * self.0.len()).saturating_sub(self.offset())
    }

    fn nibbles(&self) -> impl Iterator<Item = u8> + '_ {
        let off = self.offset();
        (off..off + self.len()).map(|j| nibble(&self.0, j))
    }

    /// Length of the prefix this path shares with the nibble path `n`.
    fn common_prefix(&self, n: &[u8]) -> usize {
        self.nibbles().zip(n).take_while(|(a, b)| a == *b).count()
    }

    /// True when `n` starts with this path.
    pub(crate) fn is_prefix_of(&self, n: &[u8]) -> bool {
        self.len() <= n.len() && self.common_prefix(n) == self.len()
    }

    /// True when `n` is exactly this path.
    fn matches(&self, n: &[u8]) -> bool {
        self.len() == n.len() && self.is_prefix_of(n)
    }
}

/// The `j`-th nibble of `bytes`, high half first.
fn nibble(bytes: &[u8], j: usize) -> u8 {
    let b = bytes[j / 2];
    if j.is_multiple_of(2) {
        b >> 4
    } else {
        b & 0x0f
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Terminates a path with a value.
    Leaf { path: Path, value: Vec<u8> },
    /// Shares a run of nibbles common to every key below it.
    Extension { path: Path, child: Box<Entry> },
    /// One slot per nibble plus a value for keys ending here.
    Branch {
        children: Box<[Child; 16]>,
        value: Option<Vec<u8>>,
    },
}

/// A node plus its memoised RLP reference.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) node: Node,
    /// `None` while dirty; recomputed lazily by [`Entry::cached`].
    cached_ref: Option<NodeRef>,
}

/// A memoised reference, held inline: nearly every node of a large trie
/// is hash-referenced, and the rest encode to under 32 bytes.
#[derive(Debug, Clone, Copy)]
enum NodeRef {
    /// keccak-256 of an encoding of 32 bytes or more.
    Hash(H256),
    /// An encoding shorter than 32 bytes (its length, then its bytes):
    /// the node itself.
    Inline(u8, [u8; 31]),
}

impl NodeRef {
    /// Bytes the reference takes inside its parent's encoding.
    fn len(&self) -> usize {
        match self {
            NodeRef::Hash(_) => 33,
            NodeRef::Inline(len, _) => *len as usize,
        }
    }

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            NodeRef::Hash(h) => {
                out.push(0x80 + 32);
                out.extend_from_slice(h.as_bytes());
            }
            NodeRef::Inline(len, bytes) => out.extend_from_slice(&bytes[..*len as usize]),
        }
    }
}

pub(crate) type Child = Option<Box<Entry>>;

/// A buffer for one walk's encodings. Children are folded before their
/// parent writes a byte, so it never holds more than one node.
pub(crate) fn encode_buffer() -> Vec<u8> {
    Vec::with_capacity(1024)
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl Entry {
    fn new(node: Node) -> Box<Entry> {
        Box::new(Entry {
            node,
            cached_ref: None,
        })
    }

    pub(crate) fn leaf(n: &[u8], value: Vec<u8>) -> Box<Entry> {
        Entry::new(Node::Leaf {
            path: Path::new(n, true),
            value,
        })
    }

    /// Moves the node out, leaving an empty leaf (which allocates
    /// nothing) until the caller stores the rebuilt node back.
    fn take_node(&mut self) -> Node {
        mem::replace(
            &mut self.node,
            Node::Leaf {
                path: Path::default(),
                value: Vec::new(),
            },
        )
    }

    /// Appends this node's RLP encoding to `out`, first folding every
    /// dirty child to its reference (each child encodes at the end of
    /// `out` and truncates back before this node writes its header).
    fn encode_into(&mut self, out: &mut Vec<u8>) {
        match &mut self.node {
            Node::Leaf { path, value } => {
                rlp::put_list_header(rlp::bytes_len(&path.0) + rlp::bytes_len(value), out);
                rlp::put_bytes(&path.0, out);
                rlp::put_bytes(value, out);
            }
            Node::Extension { path, child } => {
                let child = child.cached(out);
                rlp::put_list_header(rlp::bytes_len(&path.0) + child.len(), out);
                rlp::put_bytes(&path.0, out);
                child.put(out);
            }
            Node::Branch { children, value } => {
                let value = value.as_deref().unwrap_or_default();
                let mut refs = [None; 16];
                let mut payload = rlp::bytes_len(value);
                for (r, slot) in refs.iter_mut().zip(children.iter_mut()) {
                    *r = slot.as_mut().map(|c| c.cached(out));
                    payload += r.map_or(1, |r| r.len());
                }
                rlp::put_list_header(payload, out);
                for r in refs {
                    match r {
                        Some(r) => r.put(out),
                        None => out.push(0x80),
                    }
                }
                rlp::put_bytes(value, out);
            }
        }
    }

    /// Full RLP encoding of this node, as a proof carries it.
    pub(crate) fn encode(&mut self, buf: &mut Vec<u8>) -> Vec<u8> {
        let start = buf.len();
        self.encode_into(buf);
        let enc = buf[start..].to_vec();
        buf.truncate(start);
        enc
    }

    /// keccak-256 of this node's encoding: the root hash when this node
    /// is the root. A clean node answers from its cache, no buffer made.
    pub(crate) fn hash(&mut self) -> H256 {
        let r = match self.cached_ref {
            Some(r) => r,
            None => self.cached(&mut encode_buffer()),
        };
        match r {
            NodeRef::Hash(h) => h,
            NodeRef::Inline(len, bytes) => keccak256(&bytes[..len as usize]),
        }
    }

    /// True when a parent refers to this node by hash — i.e. when the
    /// node contributes its own entry to a Merkle proof.
    pub(crate) fn is_hash_referenced(&mut self, buf: &mut Vec<u8>) -> bool {
        matches!(self.cached(buf), NodeRef::Hash(_))
    }

    /// The reference a parent embeds, computed first when dirty: the
    /// encoding itself when shorter than 32 bytes, else its keccak-256.
    /// `buf` is scratch space, left as it was found.
    fn cached(&mut self, buf: &mut Vec<u8>) -> NodeRef {
        if let Some(r) = self.cached_ref {
            return r;
        }
        let start = buf.len();
        self.encode_into(buf);
        let enc = &buf[start..];
        let r = if enc.len() < 32 {
            let mut bytes = [0u8; 31];
            bytes[..enc.len()].copy_from_slice(enc);
            NodeRef::Inline(enc.len() as u8, bytes)
        } else {
            NodeRef::Hash(keccak256(enc))
        };
        buf.truncate(start);
        self.cached_ref = Some(r);
        r
    }

    pub(crate) fn get<'a>(&'a self, n: &[u8]) -> Option<&'a [u8]> {
        match &self.node {
            Node::Leaf { path, value } => path.matches(n).then_some(value.as_slice()),
            Node::Extension { path, child } => {
                if path.is_prefix_of(n) {
                    child.get(&n[path.len()..])
                } else {
                    None
                }
            }
            Node::Branch { children, value } => match n.split_first() {
                None => value.as_deref(),
                Some((&i, rest)) => children[i as usize].as_ref()?.get(rest),
            },
        }
    }

    /// Binds the nibble path `n` below this node to `value`. Caches are
    /// cleared along the walk; a node is rebuilt only where the shape
    /// changes (a leaf split or an extension divergence), and untouched
    /// siblings keep their caches.
    pub(crate) fn insert(&mut self, n: &[u8], value: Vec<u8>) {
        self.cached_ref = None;
        self.node = match self.take_node() {
            Node::Leaf { path, .. } if path.matches(n) => Node::Leaf { path, value },
            Node::Leaf { path, value: old } => split_leaf(&path, old, n, value),
            Node::Extension { path, mut child } if path.is_prefix_of(n) => {
                child.insert(&n[path.len()..], value);
                Node::Extension { path, child }
            }
            Node::Extension { path, child } => split_extension(&path, child, n, value),
            Node::Branch {
                mut children,
                value: here,
            } => match n.split_first() {
                None => Node::Branch {
                    children,
                    value: Some(value),
                },
                Some((&i, rest)) => {
                    match &mut children[i as usize] {
                        Some(c) => c.insert(rest, value),
                        slot => *slot = Some(Entry::leaf(rest, value)),
                    }
                    Node::Branch {
                        children,
                        value: here,
                    }
                }
            },
        };
    }

    /// Removes the value at nibble path `n` below this node. `None` when
    /// the key is absent: the tree, caches included, is untouched.
    /// `Some(true)` when this node goes with it (its parent drops it);
    /// `Some(false)` when it survives, its cache cleared and its shape
    /// restored (a branch left with one reference collapses, an
    /// extension over a leaf or extension absorbs its path).
    pub(crate) fn remove(&mut self, n: &[u8]) -> Option<bool> {
        match &mut self.node {
            Node::Leaf { path, .. } => return path.matches(n).then_some(true),
            Node::Extension { path, child } => {
                if !path.is_prefix_of(n) {
                    return None;
                }
                if child.remove(&n[path.len()..])? {
                    // A canonical extension's child is a branch, which
                    // one removal never empties; were it gone, the
                    // extension would go with it.
                    return Some(true);
                }
            }
            Node::Branch { children, value } => match n.split_first() {
                None => {
                    value.take()?;
                }
                Some((&i, rest)) => {
                    let slot = &mut children[i as usize];
                    if slot.as_mut()?.remove(rest)? {
                        *slot = None;
                    }
                }
            },
        }
        self.cached_ref = None;
        match restore_shape(self.take_node()) {
            Some(node) => {
                self.node = node;
                Some(false)
            }
            None => Some(true),
        }
    }
}

/// The node that separates a leaf from a new key `n` after their shared
/// prefix: a branch holding both.
fn split_leaf(path: &Path, old: Vec<u8>, n: &[u8], value: Vec<u8>) -> Node {
    let old_path: Vec<u8> = path.nibbles().collect();
    let cp = common_prefix(&old_path, n);
    let mut children: Box<[Child; 16]> = Default::default();
    let mut here = None;
    if old_path.len() == cp {
        here = Some(old);
    } else {
        children[old_path[cp] as usize] = Some(Entry::leaf(&old_path[cp + 1..], old));
    }
    branch_at(cp, children, here, n, value)
}

/// The node that replaces an extension whose path `n` leaves part-way:
/// a branch at the first differing nibble, with the extension's
/// remainder pushed under it.
fn split_extension(path: &Path, child: Box<Entry>, n: &[u8], value: Vec<u8>) -> Node {
    let ext: Vec<u8> = path.nibbles().collect();
    let cp = common_prefix(&ext, n);
    let mut children: Box<[Child; 16]> = Default::default();
    children[ext[cp] as usize] = Some(if ext.len() == cp + 1 {
        child
    } else {
        Entry::new(Node::Extension {
            path: Path::new(&ext[cp + 1..], false),
            child,
        })
    });
    branch_at(cp, children, None, n, value)
}

/// A branch at nibble `cp` of `n` that adds `n`'s leaf (or, when `n`
/// ends there, its value) to `children` and `here`, under an extension
/// over `n[..cp]` when that is non-empty.
fn branch_at(
    cp: usize,
    mut children: Box<[Child; 16]>,
    mut here: Option<Vec<u8>>,
    n: &[u8],
    value: Vec<u8>,
) -> Node {
    if n.len() == cp {
        here = Some(value);
    } else {
        children[n[cp] as usize] = Some(Entry::leaf(&n[cp + 1..], value));
    }
    let branch = Node::Branch {
        children,
        value: here,
    };
    if cp == 0 {
        return branch;
    }
    Node::Extension {
        path: Path::new(&n[..cp], false),
        child: Entry::new(branch),
    }
}

/// Folds `prefix` onto a subtree that lost its parent branch slot or
/// extension: leaf and extension children absorb the prefix into their
/// own path, a branch child gets an extension above it and keeps its
/// cache.
fn merge_prefix(prefix: &[u8], mut child: Box<Entry>) -> Node {
    match child.take_node() {
        Node::Leaf { path, value } => Node::Leaf {
            path: Path::joined(prefix, &path, true),
            value,
        },
        Node::Extension { path, child } => Node::Extension {
            path: Path::joined(prefix, &path, false),
            child,
        },
        branch => {
            child.node = branch;
            Node::Extension {
                path: Path::new(prefix, false),
                child,
            }
        }
    }
}

/// Restores the canonical shape of a node after a removal below it;
/// `None` when nothing is left.
fn restore_shape(node: Node) -> Option<Node> {
    match node {
        Node::Extension { path, child } if !matches!(child.node, Node::Branch { .. }) => {
            let prefix: Vec<u8> = path.nibbles().collect();
            Some(merge_prefix(&prefix, child))
        }
        Node::Branch {
            mut children,
            value,
        } => {
            let live = children.iter().filter(|c| c.is_some()).count();
            match (live, value) {
                (0, None) => None,
                (0, Some(value)) => Some(Node::Leaf {
                    path: Path::new(&[], true),
                    value,
                }),
                (1, None) => children
                    .iter_mut()
                    .enumerate()
                    .find_map(|(i, c)| Some(merge_prefix(&[i as u8], c.take()?))),
                (_, value) => Some(Node::Branch { children, value }),
            }
        }
        node => Some(node),
    }
}
