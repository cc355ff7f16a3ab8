//! Property tests: random insert/delete sequences applied incrementally
//! (with interleaved root computations, so the dirty-node cache is
//! exercised) must agree with a trie rebuilt in one pass from the sorted
//! surviving content and, byte for byte in every root and proof, with
//! the independent `Item`-tree [`reference`] encoder — and every
//! surviving key must carry a verifiable Merkle proof.

mod reference;

use proptest::prelude::*;
use sc_trie::{empty_root, verify_proof, Trie};
use std::collections::{BTreeMap, BTreeSet};

/// One step of a workload. Keys are drawn from a tiny alphabet with
/// short lengths so runs collide on prefixes and exercise branch
/// splits, extension divergence, and collapse-on-delete.
#[derive(Debug, Clone)]
struct Op {
    key: Vec<u8>,
    /// Empty value doubles as a delete (Ethereum's convention).
    value: Vec<u8>,
    /// Ask for the root mid-sequence to exercise cache invalidation.
    root_after: bool,
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(0x00u8), Just(0x01), Just(0x10), Just(0x11), Just(0xff)],
        0..5,
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        arb_key(),
        proptest::collection::vec(any::<u8>(), 0..6),
        any::<bool>(),
    )
        .prop_map(|(key, value, root_after)| Op {
            key,
            value,
            root_after,
        })
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 0..48)
}

/// Keys of mixed lengths: short ones from the tiny alphabet, and
/// 30–40-byte ones (secure-trie length and past it) that share a short
/// alphabet prefix before diverging.
fn arb_mixed_key() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_key(),
        (arb_key(), proptest::collection::vec(any::<u8>(), 30..41)).prop_map(
            |(mut prefix, tail)| {
                prefix.extend(tail);
                prefix.truncate(40);
                prefix
            }
        ),
    ]
}

/// Values of up to 40 bytes, so nodes straddle the 32-byte inline
/// limit; an empty value deletes.
fn arb_mixed_op() -> impl Strategy<Value = Op> {
    (
        arb_mixed_key(),
        proptest::collection::vec(any::<u8>(), 0..41),
        any::<bool>(),
    )
        .prop_map(|(key, value, root_after)| Op {
            key,
            value,
            root_after,
        })
}

fn arb_mixed_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_mixed_op(), 0..64)
}

/// Applies `ops` incrementally (with interleaved roots, so the
/// dirty-node cache is exercised) and holds the trie to the sorted map:
/// content key by key, and every interleaved root, the final root and
/// every proof byte for byte against the [`reference`] encoder.
fn check_against_reference(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut trie = Trie::new();
    let mut map: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    for op in ops {
        if op.value.is_empty() {
            let removed = trie.remove(&op.key);
            prop_assert_eq!(removed, map.remove(&op.key).is_some());
        } else {
            trie.insert(&op.key, op.value.clone());
            map.insert(op.key.clone(), op.value.clone());
        }
        if op.root_after {
            prop_assert_eq!(trie.root(), reference::root(&map));
        }
    }

    // Content agrees key by key.
    for (k, v) in &map {
        prop_assert_eq!(trie.get(k), Some(v.as_slice()));
    }
    prop_assert_eq!(trie.is_empty(), map.is_empty());

    // The incrementally-maintained root equals a one-pass rebuild and
    // the reference's root of the sorted surviving content.
    let mut rebuilt = Trie::new();
    for (k, v) in &map {
        rebuilt.insert(k, v.clone());
    }
    let root = trie.root();
    prop_assert_eq!(root, rebuilt.root());
    prop_assert_eq!(root, reference::root(&map));
    if map.is_empty() {
        prop_assert_eq!(root, empty_root());
    }

    // Every surviving key proves its value against the root, with the
    // reference's bytes; every other key of the script, and one no
    // script draws, proves exclusion.
    let keys: BTreeSet<&Vec<u8>> = ops.iter().map(|op| &op.key).collect();
    for key in keys {
        let proof = trie.prove(key);
        prop_assert_eq!(&proof, &reference::prove(&map, key));
        prop_assert_eq!(
            verify_proof(root, key, &proof).unwrap(),
            map.get(key).cloned()
        );
    }
    let absent = vec![0x42u8, 0x42, 0x42, 0x42, 0x42, 0x42];
    let proof = trie.prove(&absent);
    prop_assert_eq!(&proof, &reference::prove(&map, &absent));
    prop_assert_eq!(verify_proof(root, &absent, &proof).unwrap(), None);
    Ok(())
}

proptest! {
    #[test]
    fn random_ops_agree_with_sorted_rebuild(ops in arb_ops()) {
        check_against_reference(&ops)?;
    }
}

proptest! {
    // Each case rebuilds the reference from scratch at every root; the
    // release sweep below runs the bulk of the cases.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mixed_length_ops_match_the_reference_encoder(ops in arb_mixed_ops()) {
        check_against_reference(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The release sweep of the reference property.
    #[test]
    #[ignore = "2,000 cases; run in release"]
    fn reference_sweep_2000_cases(ops in arb_mixed_ops()) {
        check_against_reference(&ops)?;
    }
}
