//! Golden vectors pinning the confidential subsystem's wire artifacts:
//! the derived generator `H`, commitment bytes for fixed `(v, r)`,
//! range-proof bytes, voucher digests and nullifier hashes. These
//! values are consensus — contracts store commitments by these exact
//! coordinates and registry keys are these exact nullifiers — so any
//! drift is a hard break, not a refactor.
//!
//! Plus a proptest oracle for the homomorphism: the sum of commitments
//! is the commitment of the sums.

use proptest::prelude::*;
use sc_confidential::pedersen::generator_h;
use sc_confidential::{nullifier, CommitmentBackend, PedersenBackend, SettlementVoucher};
use sc_crypto::ecdsa::PrivateKey;
use sc_crypto::secp256k1::{n, scalar};
use sc_crypto::{keccak256, Keccak256};
use sc_primitives::{Address, H256, U256};

fn u(hex: &str) -> U256 {
    U256::from_hex_str(hex).unwrap()
}

#[test]
fn golden_generator_h() {
    let h = generator_h().to_affine().unwrap();
    assert_eq!(
        h.x,
        u("ef96f4af945747f025e5ed9c092d0edf332fadb677c6ce66b898f199b3dbf9aa")
    );
    assert_eq!(
        h.y,
        u("12925d27420cbaa4cbf15bec4fcdd7e373dd6eff2cf1a5093446c3a0cf41d434")
    );
}

#[test]
fn golden_commitment_bytes() {
    let b = PedersenBackend;
    let c = b.commit(U256::from_u64(42), U256::from_u64(7));
    assert_eq!(
        c.x(),
        u("c8e962bae3e994e21b089585e5966390f6d4583350c6da6cabb3cad4760b2319")
    );
    assert_eq!(
        c.y(),
        u("8726491adaf2b66a391512fa6d8bffc022bab3a0c9cc46da56e447de30984154")
    );
    let mut expected = [0u8; 64];
    expected[..32].copy_from_slice(&c.x().to_be_bytes());
    expected[32..].copy_from_slice(&c.y().to_be_bytes());
    assert_eq!(c.to_bytes(), expected);

    // commit(0, 1) is H itself — the blinding base, unmixed.
    let h = generator_h().to_affine().unwrap();
    let c01 = b.commit(U256::ZERO, U256::ONE);
    assert_eq!((c01.x(), c01.y()), (h.x, h.y));
}

#[test]
fn golden_nullifier_hashes() {
    assert_eq!(
        nullifier(&[]),
        H256::from_hex("9fa3056eca02cbb7170e21500ef54a9be2654351f5305dd6750b16a369de9318").unwrap()
    );
    assert_eq!(
        nullifier(&[1]),
        H256::from_hex("a48b359fe3a86ba798ef4a864e4d094f8c4df34f2414ad76ae9a3cef5564211a").unwrap()
    );
}

#[test]
fn golden_voucher_digest_and_nullifier() {
    let b = PedersenBackend;
    let voucher = SettlementVoucher {
        contract: Address::from_u256(U256::from_u64(0xc0ffee)),
        out_a: b.commit(U256::from_u64(30), U256::from_u64(5)),
        out_b: b.commit(U256::from_u64(12), U256::from_u64(6)),
    };
    assert_eq!(
        voucher.digest(),
        H256::from_hex("5c7e0d3cf6448ae25b505d52b100a23c0698b287c963365cc1f2206847fb4255").unwrap()
    );
    let signed = voucher.co_sign(
        &PrivateKey::from_seed("voucher-alice"),
        &PrivateKey::from_seed("voucher-bob"),
    );
    assert_eq!(
        signed.nullifier(),
        H256::from_hex("924b06e5385ebb483d86c94bdc3c4466e27b5af82efca88ae8d6556fc3855f2a").unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The homomorphic oracle: Σ commit(v_i, r_i) == commit(Σv_i, Σr_i)
    /// with the sums taken mod the group order.
    #[test]
    fn homomorphic_sum_matches_commitment_of_sums(
        vals in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..8)
    ) {
        let b = PedersenBackend;
        let mut acc = sc_confidential::Commitment::ZERO;
        let mut v_sum = U256::ZERO;
        let mut r_sum = U256::ZERO;
        for &(v, r) in &vals {
            let v = U256::from_u64(v);
            let r = U256::from_u64(r);
            acc = b.add(&acc, &b.commit(v, r));
            v_sum = scalar::add(v_sum, v);
            r_sum = scalar::add(r_sum, r);
        }
        prop_assert_eq!(acc, b.commit(v_sum, r_sum));
    }
}

proptest! {
    // Range proofs cost ~100 scalar muls per case; keep the sweep small
    // so tier-1 stays fast (the unit tests cover the edge widths).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Range proofs round-trip for arbitrary 16-bit values and verify
    /// only against their own commitment.
    #[test]
    fn range_proof_roundtrip_16_bit(v in any::<u16>(), r in any::<u64>()) {
        let b = PedersenBackend;
        let v = U256::from_u64(v as u64);
        let r = U256::from_u64(r);
        let proof = b.prove_range(v, r, 16).unwrap();
        let c = b.commit(v, r);
        prop_assert!(b.verify_range(&c, 16, proof.as_bytes()));
        let other = b.commit(v.wrapping_add(U256::ONE), r);
        prop_assert!(!b.verify_range(&other, 16, proof.as_bytes()));
    }
}

/// `keccak256` of `prove_range(v, r, bits)`'s wire bytes. Deposit
/// calldata carries these bytes, so transaction and block hashes move
/// with them: any prover change must keep them byte for byte.
#[test]
fn golden_range_proof_bytes() {
    let b = PedersenBackend;
    let cases = [
        // One bit, value 0, blinding 0: C and its only bit commitment
        // are the identity.
        (
            U256::ZERO,
            U256::ZERO,
            1,
            "99c84b70f324e807fbe202999b48d7da60470b6bc7afaff48c855d283a2d0e70",
        ),
        (
            U256::from_u64(1),
            U256::from_u64(2),
            8,
            "b67f1c514474e81872904a9fe8de31a9620f262f69b3a7edfe9293a8b28be234",
        ),
        (
            U256::from_u64(65535),
            U256::from_u64(11),
            16,
            "6514a9fe46106cb193bd542bc1036ac0352d20cc5785d9b28d095394ab0f1c57",
        ),
        // A full 64-bit value under a full-width 256-bit blinding.
        (
            U256::from_u64(0xfedc_ba98_7654_3210),
            u("f1e2d3c4b5a6978869504132231405f6e7d8c9bab0a1928374655647382910ff"),
            64,
            "5a7a1f4498bcaa11fdc3cbef99abf8004b9ed9be30d961f3537918561e9ae655",
        ),
        // Blinding n reduces to 0 before anything is derived from it:
        // the identity again, and the first case's bytes.
        (
            U256::ZERO,
            n(),
            1,
            "99c84b70f324e807fbe202999b48d7da60470b6bc7afaff48c855d283a2d0e70",
        ),
    ];
    for (v, r, bits, expected) in cases {
        let proof = b.prove_range(v, r, bits).expect("value fits");
        assert!(b.verify_range(&b.commit(v, r), bits, proof.as_bytes()));
        assert_eq!(
            keccak256(proof.as_bytes()),
            H256::from_hex(expected).unwrap(),
            "v = {v:x}, r = {r:x}, bits = {bits}"
        );
    }
}

/// `2^(32t) − 1`, `2^(32t)`, `2^(32t) + 1` and `127·2^(32t)` for
/// t = 1..7; every 32-bit piece `0xffffffff` (2^256 − 1) and n − 1;
/// pieces alternating between `0xffffffff` and 1, in both phases; and
/// ten seeded draws below n: the scalars where a fixed-base recoding
/// splits.
fn tooth_boundary_scalars() -> Vec<U256> {
    let mut ks = Vec::new();
    for t in 1..8 {
        let tooth = U256::ONE.shl_bits(32 * t);
        ks.extend([
            tooth.wrapping_sub(U256::ONE),
            tooth,
            tooth.wrapping_add(U256::ONE),
            U256::from_u64(127).shl_bits(32 * t),
        ]);
    }
    ks.extend([
        U256::MAX,
        n().wrapping_sub(U256::ONE),
        U256([0x0000_0001_ffff_ffff; 4]),
        U256([0xffff_ffff_0000_0001; 4]),
    ]);
    // splitmix64, seeded.
    let mut state = 0x7007_4b0d_u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..10 {
        ks.push(scalar::reduce(U256([next(), next(), next(), next()])));
    }
    ks
}

/// One keccak over the encodings of `commit(v, k)` with each
/// tooth-boundary scalar `k` as the blinding (under a fixed 64-bit
/// `v`) and as both value and blinding, then over one 64-bit range
/// proof under such a blinding.
#[test]
fn golden_commitments_and_range_proof_at_tooth_boundaries() {
    let b = PedersenBackend;
    let v = U256::from_u64(0xfedc_ba98_7654_3210);
    let mut hasher = Keccak256::new();
    for k in tooth_boundary_scalars() {
        hasher.update(&b.commit(v, k).to_bytes());
        hasher.update(&b.commit(k, k).to_bytes());
    }
    let r = U256([0x0000_0001_ffff_ffff; 4]);
    let proof = b.prove_range(v, r, 64).expect("value fits");
    assert!(b.verify_range(&b.commit(v, r), 64, proof.as_bytes()));
    hasher.update(proof.as_bytes());
    assert_eq!(
        hasher.finalize(),
        H256::from_hex("75e266a529945c6009ad43f1bdff19d31aaa3e0634dbc6f0abf799bf0d78aa10").unwrap()
    );
}
