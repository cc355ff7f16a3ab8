//! Property tests for the flat-state overlay engine: whatever sequence
//! of mutations, seals and rollbacks runs, the flat reads and the trie
//! commitments must describe the same world.
//!
//! * Every storage proof generated at the current root proves exactly
//!   the value the flat overlay answers.
//! * Rolling back a sealed layer restores the prior root bit for bit.
//! * The canonical snapshot round-trips: export → import → fold lands
//!   on the identical root, and re-export reproduces identical bytes —
//!   i.e. the flat content alone determines the commitment.

use proptest::prelude::*;
use sc_chain::WorldState;
use sc_evm::host::Host;
use sc_primitives::{Address, H256, U256};

#[derive(Debug, Clone)]
enum Step {
    /// Faucet-style mint (out-of-band balance write).
    Mint { who: u8, wei: u64 },
    /// Storage write; `val == 0` deletes the slot.
    Store { who: u8, slot: u8, val: u64 },
    /// Nonce bump (journaled mutator).
    Bump { who: u8 },
    /// Seal a "block": fold the root, close the undo layer.
    Seal,
    /// Roll the newest sealed layer back (no-op when none remain).
    Rollback,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..4, 1u64..1_000_000).prop_map(|(who, wei)| Step::Mint { who, wei }),
        (0u8..4, 0u8..6, 0u64..50).prop_map(|(who, slot, val)| Step::Store { who, slot, val }),
        (0u8..4, 0u8..6, 0u64..50).prop_map(|(who, slot, val)| Step::Store { who, slot, val }),
        (0u8..4).prop_map(|who| Step::Bump { who }),
        Just(Step::Seal),
        Just(Step::Seal),
        Just(Step::Rollback),
    ]
}

fn addr(b: u8) -> Address {
    Address([b + 1; 20])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn overlay_reads_match_trie_commitments(
        steps in proptest::collection::vec(arb_step(), 1..60)
    ) {
        let mut s = WorldState::new();
        s.begin_undo_layer();
        let base_root = s.state_root();
        // Stacks of sealed layers and the roots they sealed at.
        let mut layers = Vec::new();
        let mut roots: Vec<H256> = Vec::new();

        for step in &steps {
            match *step {
                Step::Mint { who, wei } => s.mint(addr(who), U256::from_u64(wei)),
                Step::Store { who, slot, val } => {
                    s.set_storage(addr(who), U256::from_u64(slot as u64), U256::from_u64(val));
                    s.clear_tx_scratch();
                }
                Step::Bump { who } => {
                    s.bump_nonce(addr(who));
                    s.clear_tx_scratch();
                }
                Step::Seal => {
                    roots.push(s.state_root());
                    layers.push(s.take_undo_layer());
                }
                Step::Rollback => {
                    if let Some(layer) = layers.pop() {
                        // Open writes since the seal first, then the
                        // sealed block's own layer — newest first.
                        let open = s.take_undo_layer();
                        s.apply_undo(open);
                        s.apply_undo(layer);
                        roots.pop();
                        let expect = roots.last().copied().unwrap_or(base_root);
                        prop_assert_eq!(
                            s.state_root(),
                            expect,
                            "rollback must restore the prior commitment"
                        );
                    }
                }
            }
        }

        // Trie-backed reads (via proof replay) agree with flat reads on
        // every (account, slot) the workload could have touched.
        let root = s.state_root();
        for who in 0u8..4 {
            let exists = s.account_exists(addr(who));
            for slot in 0u8..6 {
                let key = U256::from_u64(slot as u64);
                let flat = s.storage(addr(who), key);
                // A non-existent account is absent from the account
                // trie, so the root commits all its slots to zero even
                // though the overlay retains them for resurrection —
                // the same semantics the account-map engine had — and
                // the proof claims what the root commits.
                let committed = if exists { flat } else { U256::ZERO };
                let proof = s.prove_storage(addr(who), key);
                prop_assert_eq!(proof.value, committed, "proof claims the committed value");
                prop_assert_eq!(proof.verify(root), Ok(()), "honest proof verifies");
            }
        }

        // Snapshot round-trip: flat content alone determines the root.
        let blob = s.export_snapshot();
        let mut imported = WorldState::import_snapshot(&blob).expect("canonical blob");
        prop_assert_eq!(imported.state_root(), root, "imported fold matches");
        prop_assert_eq!(imported.export_snapshot(), blob, "re-export is bit-identical");
    }
}
