//! Golden vectors pinning fixed-base products at the scalars where a
//! recoding splits: `k·G` and an RFC 6979 signature under the key `k`,
//! for `k` at every 32-bit boundary of the scalar and ten seeded draws.
//! Public keys, signatures and so every transaction hash are these
//! bytes, so a change to the multiplication engine must keep them.

use sc_crypto::ecdsa::PrivateKey;
use sc_crypto::secp256k1::{n, scalar, Point};
use sc_crypto::{keccak256, Keccak256};
use sc_primitives::{H256, U256};

/// `2^(32t) − 1`, `2^(32t)`, `2^(32t) + 1` and `127·2^(32t)` for
/// t = 1..7; every 32-bit piece `0xffffffff` (2^256 − 1) and n − 1;
/// pieces alternating between `0xffffffff` and 1, in both phases; and
/// ten seeded draws below n.
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

/// One keccak over `k·G`'s affine `x ‖ y` for every scalar, then over
/// `PrivateKey::from_u256(k).sign(d)`'s 65 bytes for every scalar that
/// is a valid key (all but 2^256 − 1).
#[test]
fn golden_mul_g_and_signatures_at_tooth_boundaries() {
    let digest = keccak256(b"sc-crypto tooth-boundary pin");
    let mut hasher = Keccak256::new();
    let mut signed = 0;
    for k in tooth_boundary_scalars() {
        let a = Point::mul_g(k)
            .to_affine()
            .expect("no scalar here is 0 mod n");
        hasher.update(&a.x.to_be_bytes());
        hasher.update(&a.y.to_be_bytes());
    }
    for k in tooth_boundary_scalars() {
        if let Ok(key) = PrivateKey::from_u256(k) {
            hasher.update(&key.sign(digest).to_bytes());
            signed += 1;
        }
    }
    assert_eq!(signed, 41);
    assert_eq!(
        hasher.finalize(),
        H256::from_hex("b0b99eaef239afa939f8311016df36a725b286ebf7d56842ca6cfeb962e5b67b").unwrap()
    );
}
