//! The in-memory node tree behind [`crate::Trie`].
//!
//! Nodes follow the Yellow Paper's three shapes — leaf, extension and
//! 17-slot branch — and every node carries a cached RLP *reference*:
//! the inline item when its encoding is shorter than 32 bytes, else the
//! keccak-256 of the encoding. Mutations clear the caches along the
//! touched path only, so recomputing the root after a batch of writes
//! re-hashes just the dirty spine (the "dirty-node cache" the block
//! sealer relies on).

use crate::nibbles::hp_encode;
use sc_crypto::keccak256;
use sc_primitives::rlp::{self, Item};
use sc_primitives::H256;

#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Terminates a path with a value.
    Leaf { path: Vec<u8>, value: Vec<u8> },
    /// Shares a run of nibbles common to every key below it.
    Extension { path: Vec<u8>, child: Box<Entry> },
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
    /// `None` while dirty; recomputed lazily by [`Entry::node_ref`].
    cached_ref: Option<NodeRef>,
}

/// A memoised reference. The hash is held inline, not as the 32-byte
/// heap buffer of an [`Item::Bytes`]: nearly every node of a large trie
/// is hash-referenced, and the entry is no bigger for it.
#[derive(Debug, Clone)]
enum NodeRef {
    /// keccak-256 of an encoding of 32 bytes or more.
    Hash(H256),
    /// An encoding shorter than 32 bytes: the node itself.
    Inline(Item),
}

impl NodeRef {
    fn item(&self) -> Item {
        match self {
            NodeRef::Hash(h) => Item::Bytes(h.as_bytes().to_vec()),
            NodeRef::Inline(item) => item.clone(),
        }
    }
}

pub(crate) type Child = Option<Box<Entry>>;

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

    fn restore(node: Node, cached_ref: Option<NodeRef>) -> Box<Entry> {
        Box::new(Entry { node, cached_ref })
    }

    fn leaf(path: &[u8], value: Vec<u8>) -> Box<Entry> {
        Entry::new(Node::Leaf {
            path: path.to_vec(),
            value,
        })
    }

    /// This node as an RLP item (children folded to their references).
    fn item(&mut self) -> Item {
        match &mut self.node {
            Node::Leaf { path, value } => Item::List(vec![
                Item::Bytes(hp_encode(path, true)),
                Item::Bytes(value.clone()),
            ]),
            Node::Extension { path, child } => {
                Item::List(vec![Item::Bytes(hp_encode(path, false)), child.node_ref()])
            }
            Node::Branch { children, value } => {
                let mut items = Vec::with_capacity(17);
                for slot in children.iter_mut() {
                    items.push(match slot {
                        Some(c) => c.node_ref(),
                        None => Item::Bytes(Vec::new()),
                    });
                }
                items.push(Item::Bytes(value.clone().unwrap_or_default()));
                Item::List(items)
            }
        }
    }

    /// Full RLP encoding of this node.
    pub(crate) fn encode(&mut self) -> Vec<u8> {
        let item = self.item();
        rlp::encode(&item)
    }

    /// The reference a parent embeds: the node itself when the encoding
    /// is shorter than 32 bytes, otherwise its keccak-256 hash.
    pub(crate) fn node_ref(&mut self) -> Item {
        self.cached().item()
    }

    /// True when a parent refers to this node by hash — i.e. when the
    /// node contributes its own entry to a Merkle proof.
    pub(crate) fn is_hash_referenced(&mut self) -> bool {
        matches!(self.cached(), NodeRef::Hash(_))
    }

    /// The memoised reference, computed first when dirty.
    fn cached(&mut self) -> &NodeRef {
        let r = match self.cached_ref.take() {
            Some(r) => r,
            None => {
                let item = self.item();
                let enc = rlp::encode(&item);
                if enc.len() < 32 {
                    NodeRef::Inline(item)
                } else {
                    NodeRef::Hash(keccak256(&enc))
                }
            }
        };
        self.cached_ref.insert(r)
    }

    pub(crate) fn get<'a>(&'a self, n: &[u8]) -> Option<&'a [u8]> {
        match &self.node {
            Node::Leaf { path, value } => (path.as_slice() == n).then_some(value.as_slice()),
            Node::Extension { path, child } => n
                .strip_prefix(path.as_slice())
                .and_then(|rest| child.get(rest)),
            Node::Branch { children, value } => match n.split_first() {
                None => value.as_deref(),
                Some((&i, rest)) => children[i as usize].as_ref()?.get(rest),
            },
        }
    }
}

/// Inserts `value` at nibble path `n`, returning the new subtree root.
/// Nodes along the insertion path are rebuilt with cleared ref caches;
/// untouched siblings keep theirs.
pub(crate) fn insert(entry: Child, n: &[u8], value: Vec<u8>) -> Box<Entry> {
    let Some(e) = entry else {
        return Entry::leaf(n, value);
    };
    match e.node {
        Node::Leaf { path, value: old } => {
            if path.as_slice() == n {
                return Entry::new(Node::Leaf { path, value });
            }
            let cp = common_prefix(&path, n);
            split_into_branch(cp, (&path, old), n, value)
        }
        Node::Extension { path, child } => {
            let cp = common_prefix(&path, n);
            if cp == path.len() {
                let child = insert(Some(child), &n[cp..], value);
                return Entry::new(Node::Extension { path, child });
            }
            // Diverge: push the extension's remainder under a branch.
            let mut children: Box<[Child; 16]> = Default::default();
            children[path[cp] as usize] = Some(if path.len() == cp + 1 {
                child
            } else {
                Entry::new(Node::Extension {
                    path: path[cp + 1..].to_vec(),
                    child,
                })
            });
            let mut bvalue = None;
            if n.len() == cp {
                bvalue = Some(value);
            } else {
                children[n[cp] as usize] = Some(Entry::leaf(&n[cp + 1..], value));
            }
            wrap_prefix(
                &path[..cp],
                Entry::new(Node::Branch {
                    children,
                    value: bvalue,
                }),
            )
        }
        Node::Branch {
            mut children,
            value: v,
        } => match n.split_first() {
            None => Entry::new(Node::Branch {
                children,
                value: Some(value),
            }),
            Some((&i, rest)) => {
                let slot = children[i as usize].take();
                children[i as usize] = Some(insert(slot, rest, value));
                Entry::new(Node::Branch { children, value: v })
            }
        },
    }
}

/// Builds the branch that separates an old leaf from a new key after
/// their shared prefix of length `cp`.
fn split_into_branch(cp: usize, old: (&[u8], Vec<u8>), n: &[u8], value: Vec<u8>) -> Box<Entry> {
    let mut children: Box<[Child; 16]> = Default::default();
    let mut bvalue = None;
    for (path, val) in [(old.0, old.1), (n, value)] {
        if path.len() == cp {
            bvalue = Some(val);
        } else {
            children[path[cp] as usize] = Some(Entry::leaf(&path[cp + 1..], val));
        }
    }
    wrap_prefix(
        &n[..cp],
        Entry::new(Node::Branch {
            children,
            value: bvalue,
        }),
    )
}

/// Prefixes `entry` with an extension when the shared path is non-empty.
fn wrap_prefix(prefix: &[u8], entry: Box<Entry>) -> Box<Entry> {
    if prefix.is_empty() {
        entry
    } else {
        Entry::new(Node::Extension {
            path: prefix.to_vec(),
            child: entry,
        })
    }
}

/// Folds `prefix` onto a subtree that lost its parent branch slot: leaf
/// and extension children absorb the prefix into their own path, branch
/// children get a fresh extension above them.
fn merge_prefix(mut prefix: Vec<u8>, child: Box<Entry>) -> Box<Entry> {
    match child.node {
        Node::Leaf { path, value } => {
            prefix.extend_from_slice(&path);
            Entry::new(Node::Leaf {
                path: prefix,
                value,
            })
        }
        Node::Extension { path, child } => {
            prefix.extend_from_slice(&path);
            Entry::new(Node::Extension {
                path: prefix,
                child,
            })
        }
        Node::Branch { .. } => Entry::new(Node::Extension {
            path: prefix,
            child,
        }),
    }
}

/// Removes the value at `n`; returns the surviving subtree and the
/// removed value. When the key was absent the tree — including its ref
/// caches — is returned untouched.
pub(crate) fn remove(entry: Child, n: &[u8]) -> (Child, Option<Vec<u8>>) {
    let Some(e) = entry else {
        return (None, None);
    };
    let Entry { node, cached_ref } = *e;
    match node {
        Node::Leaf { path, value } => {
            if path.as_slice() == n {
                (None, Some(value))
            } else {
                (
                    Some(Entry::restore(Node::Leaf { path, value }, cached_ref)),
                    None,
                )
            }
        }
        Node::Extension { path, child } => {
            let Some(rest) = n.strip_prefix(path.as_slice()).map(<[u8]>::to_vec) else {
                return (
                    Some(Entry::restore(Node::Extension { path, child }, cached_ref)),
                    None,
                );
            };
            let (sub, removed) = remove(Some(child), &rest);
            match (sub, removed) {
                (Some(sub), None) => (
                    Some(Entry::restore(
                        Node::Extension { path, child: sub },
                        cached_ref,
                    )),
                    None,
                ),
                (None, removed) => (None, removed),
                (Some(sub), removed) => (Some(merge_prefix(path, sub)), removed),
            }
        }
        Node::Branch {
            mut children,
            value,
        } => match n.split_first() {
            None => match value {
                None => (
                    Some(Entry::restore(Node::Branch { children, value }, cached_ref)),
                    None,
                ),
                Some(v) => (collapse_branch(children, None), Some(v)),
            },
            Some((&i, rest)) => {
                let slot = children[i as usize].take();
                let (sub, removed) = remove(slot, rest);
                children[i as usize] = sub;
                if removed.is_none() {
                    (
                        Some(Entry::restore(Node::Branch { children, value }, cached_ref)),
                        None,
                    )
                } else {
                    (collapse_branch(children, value), removed)
                }
            }
        },
    }
}

/// Restores the branch invariant (≥ 2 references) after a removal by
/// demoting a branch left with a single reference.
fn collapse_branch(mut children: Box<[Child; 16]>, value: Option<Vec<u8>>) -> Child {
    let live: Vec<usize> = (0..16).filter(|&i| children[i].is_some()).collect();
    match (live.len(), value) {
        (0, None) => None,
        (0, Some(v)) => Some(Entry::leaf(&[], v)),
        (1, None) => {
            let child = children[live[0]].take().expect("slot checked live");
            Some(merge_prefix(vec![live[0] as u8], child))
        }
        (_, value) => Some(Entry::new(Node::Branch { children, value })),
    }
}
