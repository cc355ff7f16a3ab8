//! A bounded range argument: the committed value lies in `[0, 2^bits)`.
//!
//! Classic bit-decomposition construction. The prover commits to each
//! bit, `C_i = b_i·G + r_i·H`, choosing the bit blindings so that
//! `Σ 2^i·C_i = C`; the verifier re-checks that linear relation, which
//! leaves only "each `C_i` hides 0 or 1" to prove. That disjunction is
//! a per-bit Chaum-Pedersen OR proof (CDS composition): the prover
//! simulates the false branch, answers the true branch honestly, and
//! splits a Fiat-Shamir challenge `e = e_0 + e_1` between them — each
//! branch must satisfy `z_j·H == A_j + e_j·Y_j` with `Y_0 = C_i` and
//! `Y_1 = C_i − G`.
//!
//! The verifier checks all `2·bits` branch equations and the
//! recomposition at once: it weighs each branch equation with its own
//! 128-bit weight, hashed from the whole statement and proof, and
//! accepts iff the weighted sum — one multi-scalar pass over G, H,
//! every `C_i`, `A_0`, `A_1` and `C` — is the identity. A proof with
//! any false equation passes one try with probability at most `2^−127`.
//!
//! The proof is a fixed 288 bytes per bit
//! (`C_i ‖ A_0 ‖ A_1 ‖ e_0 ‖ z_0 ‖ z_1`), so calldata cost scales
//! linearly with the bound — which is why deposits use scaled units and
//! a 16-bit default rather than full 64-bit amounts.

use crate::pedersen::{
    decode_point, encode_affine, h_table, scalar_sub, Commitment, PedersenBackend,
};
use sc_crypto::keccak::Keccak256;
use sc_crypto::secp256k1::{lincomb, n, scalar, BaseTable, Point};
use sc_primitives::U256;

/// Serialized size of one per-bit entry.
pub const BYTES_PER_BIT: usize = 288;

/// The points of an entry, `C_i ‖ A_0 ‖ A_1`: what its challenge hashes.
const POINT_BYTES: usize = 192;

/// Largest supported bit width.
pub const MAX_BITS: u32 = 64;

/// Default bit width for deposits (values are in scaled units).
pub const DEFAULT_BITS: u32 = 16;

/// A serialized range proof for a specific bit width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeProof {
    bits: u32,
    bytes: Vec<u8>,
}

impl RangeProof {
    /// The bit width this proof was produced for.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The wire bytes (what goes into calldata).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the proof into its wire bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Deterministic hash-to-scalar for prover-side nonces and simulated
/// branch values. These only need to be unpredictable to outsiders, and
/// determinism keeps every fixture and golden vector reproducible.
fn h2s(tag: &[u8], r: U256, i: u64) -> U256 {
    hash_to_scalar(&[tag, &r.to_be_bytes(), &i.to_be_bytes()])
}

/// The per-bit Fiat-Shamir challenge, bound to the *full* per-bit
/// statement: the outer commitment's encoding `c`, the proof width, the
/// bit index and the entry's encoded points `C_i ‖ A_0 ‖ A_1`. Binding
/// `C_i` is soundness-critical — if the challenge were independent of
/// `C_i`, a prover could fix `e` first and then solve either branch for
/// a `C_i` of its choosing (e.g. `e_0 = 0`, `A_0 = z_0·H` makes branch
/// 0 hold for *any* `C_i`), forging per-bit proofs for non-bit values.
fn challenge(c: &[u8; 64], bits: u32, i: u64, points: &[u8]) -> U256 {
    hash_to_scalar(&[
        b"sc-range-chal-v2",
        c,
        &bits.to_be_bytes(),
        &i.to_be_bytes(),
        points,
    ])
}

/// `keccak(parts[0] ‖ parts[1] ‖ …)` reduced mod n, streamed.
fn hash_to_scalar(parts: &[&[u8]]) -> U256 {
    let mut hasher = Keccak256::new();
    for part in parts {
        hasher.update(part);
    }
    scalar::reduce(hasher.finalize().to_u256())
}

/// Produces a proof that `commit(value, blinding)` hides a value in
/// `[0, 2^bits)`. Returns `None` for unsupported widths or out-of-range
/// values.
pub fn prove(
    backend: &PedersenBackend,
    value: U256,
    blinding: U256,
    bits: u32,
) -> Option<RangeProof> {
    use crate::CommitmentBackend;

    if bits == 0 || bits > MAX_BITS || value.bits() > bits {
        return None;
    }
    let r = scalar::reduce(blinding);
    let c = backend.commit(value, r).to_bytes();
    let g = BaseTable::generator();
    let h = h_table();

    // Bit blindings: r_1..r_{bits-1} are hash-derived, r_0 closes the
    // linear relation Σ 2^i·r_i = r.
    let mut bit_r = vec![U256::ZERO; bits as usize];
    let mut acc = U256::ZERO;
    for (i, slot) in bit_r.iter_mut().enumerate().skip(1) {
        let ri = h2s(b"sc-range-blind-v1", r, i as u64);
        *slot = ri;
        let pow2 = U256::ONE.shl_bits(i as u32);
        acc = scalar::add(acc, scalar::mul(pow2, ri));
    }
    bit_r[0] = scalar_sub(r, acc);

    // Every point of every entry is a fixed-base pass. The simulated
    // branch answers `z_sim·H − e_sim·Y_sim` with `Y_sim = C_i` when the
    // bit is 1 and `C_i − G` when it is 0; expanding `C_i` makes it
    // `(z_sim − e_sim·r_i)·H ∓ e_sim·G`.
    let mut points = Vec::with_capacity(3 * bits as usize);
    let mut nonces = Vec::with_capacity(bits as usize);
    for (i, &ri) in bit_r.iter().enumerate() {
        let b = value.bit(i as u32);
        let ci = lincomb(&[(g, U256::from_u64(b as u64)), (h, ri)], &[]);
        let e_sim = h2s(b"sc-range-sim-e-v1", ri, i as u64);
        let z_sim = h2s(b"sc-range-sim-z-v1", ri, i as u64);
        let k = h2s(b"sc-range-nonce-v1", ri, i as u64);
        let g_sim = if b { scalar::neg(e_sim) } else { e_sim };
        let a_sim = lincomb(
            &[(h, scalar_sub(z_sim, scalar::mul(e_sim, ri))), (g, g_sim)],
            &[],
        );
        let a_real = h.mul(k);
        let (a0, a1) = if b { (a_sim, a_real) } else { (a_real, a_sim) };
        points.extend([ci, a0, a1]);
        nonces.push((e_sim, z_sim, k));
    }
    let affine = Point::batch_to_affine(&points);

    let mut bytes = Vec::with_capacity(bits as usize * BYTES_PER_BIT);
    for (i, ((&ri, (e_sim, z_sim, k)), entry)) in bit_r
        .iter()
        .zip(nonces)
        .zip(affine.chunks_exact(3))
        .enumerate()
    {
        let at = bytes.len();
        for &a in entry {
            bytes.extend_from_slice(&encode_affine(a));
        }
        let e = challenge(&c, bits, i as u64, &bytes[at..]);
        let e_real = scalar_sub(e, e_sim);
        let z_real = scalar::add(k, scalar::mul(e_real, ri));
        let (e0, z0, z1) = if value.bit(i as u32) {
            (e_sim, z_sim, z_real)
        } else {
            (e_real, z_real, z_sim)
        };
        bytes.extend_from_slice(&e0.to_be_bytes());
        bytes.extend_from_slice(&z0.to_be_bytes());
        bytes.extend_from_slice(&z1.to_be_bytes());
    }
    Some(RangeProof { bits, bytes })
}

/// Verifies a serialized range proof against a commitment. Rejects any
/// malformed input (wrong length, off-curve or non-canonical points,
/// non-canonical scalars) — never panics. This is the routine the
/// `RANGE_VERIFY` precompile runs on raw calldata.
///
/// With the weight `w_{i,j}` of bit `i`'s branch `j` the low 128 bits,
/// bit 0 set, of `keccak("sc-range-batch-v1" ‖ C ‖ bits ‖ proof ‖
/// 2i + j)`, the proof is accepted iff
///
/// ```text
/// Σ_i w_{i,0}·(z_{i,0}·H − e_{i,0}·C_i − A_{i,0})
///   + w_{i,1}·(z_{i,1}·H − e_{i,1}·(C_i − G) − A_{i,1})
///   + Σ_i 2^i·C_i − C  ==  O
/// ```
///
/// gathered per base into one [`lincomb`]: `Σ w_{i,1}·e_{i,1}` on G,
/// `Σ w_{i,0}·z_{i,0} + w_{i,1}·z_{i,1}` on H,
/// `2^i − w_{i,0}·e_{i,0} − w_{i,1}·e_{i,1}` on each `C_i`, the 128-bit
/// `w_{i,j}` on each `−A_{i,j}`, and 1 on `−C`.
pub fn verify(c: &Commitment, bits: u32, proof: &[u8]) -> bool {
    if bits == 0 || bits > MAX_BITS {
        return false;
    }
    if proof.len() != bits as usize * BYTES_PER_BIT {
        return false;
    }
    let c_bytes = c.to_bytes();
    // The weights are odd (so never zero) 128-bit values. Hashing the
    // whole proof keeps a prover from choosing errors that cancel under
    // weights it knows in advance.
    let mut prefix = Keccak256::new();
    for part in [
        b"sc-range-batch-v1".as_slice(),
        &c_bytes,
        &bits.to_be_bytes(),
        proof,
    ] {
        prefix.update(part);
    }
    let weight = |j: u64| {
        let mut hasher = prefix.clone();
        hasher.update(&j.to_be_bytes());
        U256::from_u128(hasher.finalize().to_u256().low_u128() | 1)
    };
    let (mut g_k, mut h_k) = (U256::ZERO, U256::ZERO);
    let mut var = Vec::with_capacity(3 * bits as usize + 1);
    for (i, entry) in proof.chunks_exact(BYTES_PER_BIT).enumerate() {
        let Ok(ci) = decode_point(&entry[..64]) else {
            return false;
        };
        let Ok(a0) = decode_point(&entry[64..128]) else {
            return false;
        };
        let Ok(a1) = decode_point(&entry[128..POINT_BYTES]) else {
            return false;
        };
        let e0 = U256::from_be_slice(&entry[192..224]);
        let z0 = U256::from_be_slice(&entry[224..256]);
        let z1 = U256::from_be_slice(&entry[256..288]);
        if e0 >= n() || z0 >= n() || z1 >= n() {
            return false;
        }
        // `decode_point` accepts only canonical encodings, so these are
        // the bytes the prover hashed.
        let e = challenge(&c_bytes, bits, i as u64, &entry[..POINT_BYTES]);
        let e1 = scalar_sub(e, e0);
        let (w0, w1) = (weight(2 * i as u64), weight(2 * i as u64 + 1));
        g_k = scalar::add(g_k, scalar::mul(w1, e1));
        h_k = scalar::add(h_k, scalar::add(scalar::mul(w0, z0), scalar::mul(w1, z1)));
        let spent = scalar::add(scalar::mul(w0, e0), scalar::mul(w1, e1));
        var.push((ci, scalar_sub(U256::ONE.shl_bits(i as u32), spent)));
        var.push((a0.negate(), w0));
        var.push((a1.negate(), w1));
    }
    var.push((c.0.negate(), U256::ONE));
    lincomb(&[(BaseTable::generator(), g_k), (h_table(), h_k)], &var).is_infinity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pedersen::{encode_point, generator_h, points_equal};
    use crate::CommitmentBackend;

    /// The challenge of an entry given as points.
    fn challenge(c: &Commitment, bits: u32, i: u64, ci: &Point, a0: &Point, a1: &Point) -> U256 {
        let points = [encode_point(ci), encode_point(a0), encode_point(a1)].concat();
        super::challenge(&c.to_bytes(), bits, i, &points)
    }

    #[test]
    fn roundtrip_various_values() {
        let b = PedersenBackend;
        for (v, r, bits) in [
            (0u64, 1u64, 8u32),
            (1, 2, 8),
            (255, 3, 8),
            (42, 7, 16),
            (65535, 11, 16),
        ] {
            let v = U256::from_u64(v);
            let r = U256::from_u64(r);
            let proof = b.prove_range(v, r, bits).unwrap();
            let c = b.commit(v, r);
            assert!(
                b.verify_range(&c, bits, proof.as_bytes()),
                "v fits {bits} bits"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_value_at_prove_time() {
        let b = PedersenBackend;
        assert!(b.prove_range(U256::from_u64(256), U256::ONE, 8).is_none());
        assert!(b.prove_range(U256::ONE, U256::ONE, 0).is_none());
        assert!(b.prove_range(U256::ONE, U256::ONE, 65).is_none());
    }

    #[test]
    fn challenge_binding_blocks_per_bit_forgery() {
        // Regression for weak Fiat-Shamir: before `C_i` was bound into
        // the challenge, a prover could set `e0 = 0` with `A0 = z0·H`
        // (branch 0 then holds for ANY `C_i`), fix `A1 = u·G + a·H`,
        // learn `e`, and back-solve branch 1 with
        //   `C_i = (1 − u/e)·G + ((z1 − a)/e)·H`,
        // a per-bit "proof" of the attacker-known non-bit value
        // `1 − u/e`; a k-list match on the sum relation then stitches
        // such entries into a passing proof for an out-of-range
        // commitment. With `C_i` hashed the back-solve is circular:
        // the `C_i` the equations accept changes the challenge it was
        // solved against.
        let backend = PedersenBackend;
        let g = Point::generator();
        let h = generator_h();
        let bits = 2u32;

        // Target: C hides 5, outside [0, 4).
        let r_c = U256::from_u64(77);
        let c = backend.commit(U256::from_u64(5), r_c);

        // Honest entry for bit index 1 (bit value 1, blinding r1).
        let r1 = U256::from_u64(33);
        let ci1 = g.add(&h.mul_scalar(r1));
        let (e0_1, z0_1) = (U256::from_u64(11), U256::from_u64(22));
        let a0_1 = h.mul_scalar(z0_1).add(&ci1.mul_scalar(e0_1).negate());
        let k = U256::from_u64(44);
        let a1_1 = h.mul_scalar(k);
        let e_1 = challenge(&c, bits, 1, &ci1, &a0_1, &a1_1);
        let z1_1 = scalar::add(k, scalar::mul(scalar_sub(e_1, e0_1), r1));

        // The sum relation then forces entry 0 to commit to 3:
        // C_0 = C − 2·C_1.
        let ci0_needed = c.0.add(&ci1.mul_scalar(U256::from_u64(2)).negate());

        // Forge entry 0 the pre-fix way.
        let z0_f = U256::from_u64(55);
        let a0_f = h.mul_scalar(z0_f);
        let (u, a) = (U256::from_u64(66), U256::from_u64(88));
        let a1_f = g.mul_scalar(u).add(&h.mul_scalar(a));
        let z1_f = U256::from_u64(99);

        // The attacker now needs `e` before choosing `C_0` — but `C_0`
        // is hashed. Guess the point the sum check needs, then
        // back-solve branch 1 under that challenge.
        let e_f = challenge(&c, bits, 0, &ci0_needed, &a0_f, &a1_f);
        let e_inv = scalar::inv(e_f);
        let v_solved = scalar_sub(U256::ONE, scalar::mul(u, e_inv));
        let rho = scalar::mul(scalar_sub(z1_f, a), e_inv);
        let ci0_solved = g.mul_scalar(v_solved).add(&h.mul_scalar(rho));

        // The circle does not close: the accepted point differs from
        // the guessed one, so re-hashing it shifts the challenge.
        assert!(!points_equal(&ci0_solved, &ci0_needed));
        assert_ne!(
            challenge(&c, bits, 0, &ci0_solved, &a0_f, &a1_f),
            e_f,
            "substituting the solved C_0 must shift the challenge"
        );

        // Either spelling of the forged entry fails verification.
        for ci0 in [ci0_needed, ci0_solved] {
            let mut proof = Vec::with_capacity(2 * BYTES_PER_BIT);
            for pt in [&ci0, &a0_f, &a1_f] {
                proof.extend_from_slice(&encode_point(pt));
            }
            proof.extend_from_slice(&U256::ZERO.to_be_bytes()); // e0 = 0
            proof.extend_from_slice(&z0_f.to_be_bytes());
            proof.extend_from_slice(&z1_f.to_be_bytes());
            for pt in [&ci1, &a0_1, &a1_1] {
                proof.extend_from_slice(&encode_point(pt));
            }
            proof.extend_from_slice(&e0_1.to_be_bytes());
            proof.extend_from_slice(&z0_1.to_be_bytes());
            proof.extend_from_slice(&z1_1.to_be_bytes());
            assert!(!verify(&c, bits, &proof), "forged proof must be rejected");
        }
    }

    #[test]
    fn rejects_wrong_commitment_and_tampered_proof() {
        let b = PedersenBackend;
        let (v, r) = (U256::from_u64(42), U256::from_u64(9));
        let proof = b.prove_range(v, r, 8).unwrap();
        let other = b.commit(U256::from_u64(43), r);
        assert!(!b.verify_range(&other, 8, proof.as_bytes()));

        // Any single flipped byte must invalidate the proof.
        let c = b.commit(v, r);
        let mut tampered = proof.as_bytes().to_vec();
        tampered[100] ^= 1;
        assert!(!b.verify_range(&c, 8, &tampered));

        // Truncated / oversized / wrong-width inputs fail cleanly.
        assert!(!b.verify_range(&c, 8, &proof.as_bytes()[..proof.as_bytes().len() - 1]));
        assert!(!b.verify_range(&c, 16, proof.as_bytes()));
        assert!(!b.verify_range(&c, 8, &[]));
    }
}
