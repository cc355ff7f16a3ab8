//! Property-based tests for the primitive types against reference models.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use sc_primitives::abi::{self, Type, Value};
use sc_primitives::rlp::{self, Rlp, MAX_DEPTH};
use sc_primitives::{hex, Address, H256, U256};

#[path = "reference/rlp.rs"]
mod reference;

use reference::Item;

fn arb_u256() -> impl Strategy<Value = U256> {
    // Mix of full-range words and small/structured values so limb
    // boundaries get exercised.
    prop_oneof![
        any::<[u64; 4]>().prop_map(U256),
        any::<u64>().prop_map(U256::from_u64),
        any::<u64>().prop_map(|v| U256([0, 0, 0, v])),
        Just(U256::ZERO),
        Just(U256::ONE),
        Just(U256::MAX),
    ]
}

/// Words built limb by limb from 0, 1, 2^63, 2^64 − 1 and random limbs,
/// so every partial product and carry lands on a limb boundary.
fn arb_boundary_u256() -> impl Strategy<Value = U256> {
    (any::<[u8; 4]>(), any::<[u64; 4]>()).prop_map(|(pick, random)| {
        U256(std::array::from_fn(|i| match pick[i] % 5 {
            0 => 0,
            1 => 1,
            2 => 1 << 63,
            3 => u64::MAX,
            _ => random[i],
        }))
    })
}

proptest! {
    // ----- U256 vs u128 reference model -----

    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = U256::from_u64(a).wrapping_add(U256::from_u64(b));
        prop_assert_eq!(sum, U256::from_u128(a as u128 + b as u128));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = U256::from_u64(a).wrapping_mul(U256::from_u64(b));
        prop_assert_eq!(prod, U256::from_u128(a as u128 * b as u128));
    }

    #[test]
    #[allow(clippy::manual_checked_ops)]
    fn div_rem_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        let (q, r) = U256::from_u128(a).div_rem(U256::from_u128(b));
        if b == 0 {
            prop_assert_eq!(q, U256::ZERO);
            prop_assert_eq!(r, U256::ZERO);
        } else {
            prop_assert_eq!(q, U256::from_u128(a / b));
            prop_assert_eq!(r, U256::from_u128(a % b));
        }
    }

    // ----- algebraic laws on the full domain -----

    #[test]
    fn add_is_commutative(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    }

    #[test]
    fn add_sub_roundtrip(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
    }

    #[test]
    fn mul_is_commutative(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_mul(b), b.wrapping_mul(a));
    }

    /// The low-half multiply agrees with the low word of the full one.
    #[test]
    fn wrapping_mul_is_the_low_half_of_full_mul(a in arb_boundary_u256(), b in arb_boundary_u256()) {
        prop_assert_eq!(a.wrapping_mul(b), a.full_mul(b).0);
    }

    #[test]
    fn mul_distributes_over_add(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
        let left = a.wrapping_mul(b.wrapping_add(c));
        let right = a.wrapping_mul(b).wrapping_add(a.wrapping_mul(c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn div_rem_reconstructs(a in arb_u256(), b in arb_u256()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(b);
        prop_assert!(r < b);
        prop_assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
    }

    #[test]
    fn shifts_compose(a in arb_u256(), n in 0u32..256, m in 0u32..256) {
        let both = a.shl_bits(n).shl_bits(m);
        let once = if n as u64 + m as u64 >= 256 { U256::ZERO } else { a.shl_bits(n + m) };
        prop_assert_eq!(both, once);
    }

    #[test]
    fn shr_then_shl_masks_low_bits(a in arb_u256(), n in 0u32..256) {
        let v = a.shr_bits(n).shl_bits(n);
        let mask = if n == 0 { U256::MAX } else { U256::MAX.shl_bits(n) };
        prop_assert_eq!(v, a & mask);
    }

    #[test]
    fn neg_is_involution(a in arb_u256()) {
        prop_assert_eq!(a.neg().neg(), a);
    }

    #[test]
    fn sdiv_smod_reconstruct(a in arb_u256(), b in arb_u256()) {
        prop_assume!(!b.is_zero());
        // a == sdiv(a,b) * b + smod(a,b)  (all wrapping two's-complement)
        let q = a.sdiv(b);
        let r = a.smod(b);
        prop_assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
    }

    #[test]
    fn mulmod_matches_naive_when_small(a in any::<u64>(), b in any::<u64>(), m in 1u64..) {
        let got = U256::from_u64(a).mulmod(U256::from_u64(b), U256::from_u64(m));
        let expect = ((a as u128 * b as u128) % m as u128) as u64;
        prop_assert_eq!(got, U256::from_u64(expect));
    }

    #[test]
    fn addmod_matches_naive_when_small(a in any::<u64>(), b in any::<u64>(), m in 1u64..) {
        let got = U256::from_u64(a).addmod(U256::from_u64(b), U256::from_u64(m));
        let expect = ((a as u128 + b as u128) % m as u128) as u64;
        prop_assert_eq!(got, U256::from_u64(expect));
    }

    #[test]
    fn be_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(a.to_be_bytes()), a);
        prop_assert_eq!(U256::from_be_slice(&a.to_be_bytes_trimmed()), a);
    }

    #[test]
    fn dec_string_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_dec_str(&a.to_dec_string()).unwrap(), a);
    }

    #[test]
    fn hex_string_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_hex_str(&format!("{a:x}")).unwrap(), a);
    }

    // ----- hex -----

    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    // ----- RLP -----

    #[test]
    fn rlp_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut enc = Vec::new();
        rlp::put_bytes(&data, &mut enc);
        prop_assert_eq!(&enc, &reference::encode(&Item::Bytes(data.clone())));
        prop_assert_eq!(Rlp::new(&enc).unwrap().as_bytes(), &data[..]);
    }

    #[test]
    fn rlp_uint_roundtrip(a in arb_u256()) {
        let mut enc = Vec::new();
        rlp::put_bytes(rlp::trim_uint(&a.to_be_bytes()), &mut enc);
        prop_assert_eq!(&enc, &reference::encode(&Item::uint(a)));
        prop_assert_eq!(Rlp::new(&enc).unwrap().as_uint(), Some(a));
    }

    #[test]
    fn rlp_list_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..40)) {
        let mut enc = Vec::new();
        rlp::put_list(&mut enc, |out| {
            for &v in &vals {
                rlp::put_bytes(rlp::trim_uint(&U256::from_u64(v).to_be_bytes()), out);
            }
        });
        let item = Item::List(vals.into_iter().map(Item::u64).collect());
        prop_assert_eq!(&enc, &reference::encode(&item));
        same(Rlp::new(&enc).unwrap(), &item)?;
    }

    #[test]
    fn rlp_view_matches_the_reference(input in arb_rlp_input()) {
        view_case(&input)?;
    }

    // ----- ABI -----

    #[test]
    fn abi_roundtrip(
        n in arb_u256(),
        flag in any::<bool>(),
        addr in any::<[u8; 20]>(),
        h in any::<[u8; 32]>(),
        blob in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let vals = vec![
            Value::Uint(n),
            Value::Bytes(blob),
            Value::Bool(flag),
            Value::Address(Address(addr)),
            Value::Bytes32(H256(h)),
        ];
        let enc = abi::encode(&vals);
        let dec = abi::decode(
            &[Type::Uint, Type::Bytes, Type::Bool, Type::Address, Type::Bytes32],
            &enc,
        ).unwrap();
        prop_assert_eq!(dec, vals);
    }

    #[test]
    fn abi_two_dynamic_args(
        a in proptest::collection::vec(any::<u8>(), 0..100),
        b in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let vals = vec![Value::Bytes(a), Value::Uint(U256::ONE), Value::Bytes(b)];
        let enc = abi::encode(&vals);
        let dec = abi::decode(&[Type::Bytes, Type::Uint, Type::Bytes], &enc).unwrap();
        prop_assert_eq!(dec, vals);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The release sweep of the view property.
    #[test]
    #[ignore = "10,000 cases; run in release"]
    fn rlp_view_sweep_10000_cases(input in arb_rlp_input()) {
        view_case(&input)?;
    }
}

/// A byte-string leaf: empty, one byte either side of 0x80, short, or
/// long enough for a long-form header.
fn leaf(rng: &mut TestRng) -> Item {
    let len = match rng.below(5) {
        0 => 0,
        1 | 2 => 1,
        3 => 2 + rng.below(54) as usize,
        _ => 56 + rng.below(200) as usize,
    };
    let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
    if len == 1 && rng.below(2) == 0 {
        bytes[0] &= 0x7f;
    }
    Item::Bytes(bytes)
}

/// A tree of exactly `depth` nested lists around a leaf, each list with
/// up to three shallow siblings beside the deep one.
fn tree(rng: &mut TestRng, depth: usize) -> Item {
    if depth == 0 {
        return leaf(rng);
    }
    let mut items = vec![tree(rng, depth - 1)];
    for _ in 0..rng.below(4) {
        let shallow = rng.below(depth.min(3) as u64) as usize;
        items.insert(
            rng.below(items.len() as u64 + 1) as usize,
            tree(rng, shallow),
        );
    }
    Item::List(items)
}

/// A byte for a mutation to write: mostly one that makes a header
/// long-form or a length non-canonical.
fn arb_header_byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(0x81), Just(0xb8), Just(0xf8), any::<u8>()]
}

/// The view property's inputs: arbitrary bytes behind a header-like
/// first byte (kind 0), the encoding
/// of a random tree nesting up to `MAX_DEPTH + 1` lists (1), or a frame
/// of lists each holding only the next around one leaf (2) — the last
/// two after one byte overwritten, inserted or deleted, or a truncation,
/// unless the mutation kind is 4. Half the depths sit at the bound.
fn arb_rlp_input() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..3,
        any::<u64>(),
        prop_oneof![0usize..=MAX_DEPTH + 1, MAX_DEPTH - 1..=MAX_DEPTH + 1],
        proptest::collection::vec(any::<u8>(), 0..64),
        (0u8..5, 0usize..4096, arb_header_byte()),
    )
        .prop_map(|(kind, seed, depth, noise, (mutation, at, byte))| {
            let mut rng = TestRng::new(seed);
            let mut enc = match kind {
                0 => return [vec![byte], noise].concat(),
                1 => reference::encode(&tree(&mut rng, depth)),
                _ => {
                    let inner = leaf(&mut rng);
                    let frame = (0..depth).fold(inner, |inner, _| Item::List(vec![inner]));
                    reference::encode(&frame)
                }
            };
            let at = at % (enc.len() + 1);
            match mutation {
                0 if at < enc.len() => enc[at] = byte,
                1 => enc.insert(at, byte),
                2 if at < enc.len() => drop(enc.remove(at)),
                3 => enc.truncate(at),
                _ => {}
            }
            enc
        })
}

/// `Rlp::new` fails exactly when the reference decoder does, with the
/// same error, and a view it returns stands for the reference tree.
fn view_case(input: &[u8]) -> Result<(), TestCaseError> {
    match (Rlp::new(input), reference::decode(input)) {
        (Ok(view), Ok(item)) => same(view, &item),
        (view, item) => {
            prop_assert_eq!(view.err(), item.err());
            Ok(())
        }
    }
}

/// Walking `view` rebuilds `item`: the same shape and bytes all the way
/// down, and every node reads as the same integer.
fn same(view: Rlp, item: &Item) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.as_uint(), item.as_uint());
    match item {
        Item::Bytes(b) => prop_assert!(!view.is_list() && view.as_bytes() == &b[..]),
        Item::List(items) => {
            prop_assert!(view.is_list());
            prop_assert_eq!(view.iter().count(), items.len());
            for (v, i) in view.iter().zip(items) {
                same(v, i)?;
            }
        }
    }
    Ok(())
}
