//! An independent reference for the trie's commitments: an `Item`-tree
//! encoder that builds every node from scratch out of a sorted
//! key/value map on each call (no caches, no mutation, no buffer), so
//! the incremental trie's roots and proofs are held to it byte for
//! byte.

#[path = "../../../primitives/tests/reference/rlp.rs"]
mod rlp;

use rlp::Item;
use sc_crypto::keccak256;
use sc_primitives::H256;
use sc_trie::{empty_root, hp_encode, to_nibbles};
use std::collections::BTreeMap;

/// `(nibble path, value)` pairs, sorted by path.
type Pairs<'a> = [(Vec<u8>, &'a [u8])];

fn pairs(map: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<(Vec<u8>, &[u8])> {
    map.iter()
        .map(|(k, v)| (to_nibbles(k), v.as_slice()))
        .collect()
}

/// The shape of the node that holds `group` at `depth`.
enum Shape {
    Leaf,
    /// An extension over this many shared nibbles.
    Extension(usize),
    Branch,
}

fn shape(group: &Pairs, depth: usize) -> Shape {
    if group.len() == 1 {
        return Shape::Leaf;
    }
    // Sorted: what the first and last paths share, every path shares.
    let (first, last) = (&group[0].0[depth..], &group[group.len() - 1].0[depth..]);
    match first.iter().zip(last).take_while(|(a, b)| a == b).count() {
        0 => Shape::Branch,
        shared => Shape::Extension(shared),
    }
}

/// The pairs under slot `nibble` of a branch at `depth`.
fn slot<'g, 'a>(group: &'g Pairs<'a>, depth: usize, nibble: u8) -> &'g Pairs<'a> {
    let below = |bound: u8| group.partition_point(|(k, _)| k.get(depth).is_none_or(|&x| x < bound));
    let end = if nibble == 15 {
        group.len()
    } else {
        below(nibble + 1)
    };
    &group[below(nibble)..end]
}

fn node(group: &Pairs, depth: usize) -> Item {
    match shape(group, depth) {
        Shape::Leaf => Item::List(vec![
            Item::Bytes(hp_encode(&group[0].0[depth..], true)),
            Item::Bytes(group[0].1.to_vec()),
        ]),
        Shape::Extension(shared) => Item::List(vec![
            Item::Bytes(hp_encode(&group[0].0[depth..depth + shared], false)),
            reference(node(group, depth + shared)),
        ]),
        Shape::Branch => {
            let mut items: Vec<Item> = (0..16)
                .map(|i| match slot(group, depth, i) {
                    [] => Item::Bytes(Vec::new()),
                    sub => reference(node(sub, depth + 1)),
                })
                .collect();
            let here = group.iter().find(|(k, _)| k.len() == depth);
            items.push(Item::Bytes(here.map_or(Vec::new(), |(_, v)| v.to_vec())));
            Item::List(items)
        }
    }
}

/// What a parent embeds: the node itself when its encoding is shorter
/// than 32 bytes, else the keccak-256 of the encoding.
fn reference(item: Item) -> Item {
    let enc = rlp::encode(&item);
    if enc.len() < 32 {
        item
    } else {
        Item::Bytes(keccak256(&enc).as_bytes().to_vec())
    }
}

/// Root of the trie holding exactly `map`.
pub fn root(map: &BTreeMap<Vec<u8>, Vec<u8>>) -> H256 {
    let pairs = pairs(map);
    if pairs.is_empty() {
        return empty_root();
    }
    keccak256(&rlp::encode(&node(&pairs, 0)))
}

/// Proof for `key`: the root's encoding, then that of every
/// hash-referenced node on the key's path.
pub fn prove(map: &BTreeMap<Vec<u8>, Vec<u8>>, key: &[u8]) -> Vec<Vec<u8>> {
    let pairs = pairs(map);
    if pairs.is_empty() {
        return Vec::new();
    }
    let key = to_nibbles(key);
    let (mut group, mut depth) = (&pairs[..], 0);
    let mut proof = vec![rlp::encode(&node(group, depth))];
    loop {
        match shape(group, depth) {
            Shape::Leaf => return proof,
            Shape::Extension(shared) => {
                if !key[depth..].starts_with(&group[0].0[depth..depth + shared]) {
                    return proof;
                }
                depth += shared;
            }
            Shape::Branch => {
                let Some(&nibble) = key.get(depth) else {
                    return proof;
                };
                group = slot(group, depth, nibble);
                depth += 1;
                if group.is_empty() {
                    return proof;
                }
            }
        }
        let enc = rlp::encode(&node(group, depth));
        if enc.len() >= 32 {
            proof.push(enc);
        }
    }
}
