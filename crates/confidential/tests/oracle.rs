//! The range argument against the per-equation reference it started as.
//!
//! `reference` below keeps the prover and verifier the crate shipped
//! before the batched check: the prover multiplies the simulated
//! branch's `Y` as a variable point and normalises every point on its
//! own, and the verifier checks each bit's two branch equations in
//! their own pass, compares each result with `A_j` in affine form, and
//! recomposes `Σ 2^i·C_i` by Horner's rule. The product must write the
//! same bytes, and its one weighted multi-scalar check must reach the
//! same verdict on valid, tampered and malformed proofs alike.
//!
//! Tier-1 runs a few dozen cases; the `#[ignore]`d sweep runs 2,000
//! (`cargo test --release -p sc-confidential --test oracle --
//! --include-ignored`).

use sc_confidential::range::BYTES_PER_BIT;
use sc_confidential::{Commitment, CommitmentBackend, PedersenBackend};
use sc_crypto::keccak256;
use sc_crypto::secp256k1::{n, scalar};
use sc_primitives::U256;

/// The per-equation range argument, as the crate first wrote it.
mod reference {
    use sc_confidential::pedersen::{decode_point, encode_point, h_table};
    use sc_confidential::{Commitment, CommitmentBackend, PedersenBackend};
    use sc_crypto::keccak::keccak256;
    use sc_crypto::secp256k1::{lincomb, n, scalar, Point};
    use sc_primitives::U256;

    const MAX_BITS: u32 = 64;
    const BYTES_PER_BIT: usize = 288;

    fn points_equal(a: &Point, b: &Point) -> bool {
        a.to_affine() == b.to_affine()
    }

    fn scalar_sub(a: U256, b: U256) -> U256 {
        scalar::add(a, n().wrapping_sub(scalar::reduce(b)))
    }

    fn h2s(tag: &[u8], r: U256, i: u64) -> U256 {
        let mut buf = Vec::with_capacity(tag.len() + 40);
        buf.extend_from_slice(tag);
        buf.extend_from_slice(&r.to_be_bytes());
        buf.extend_from_slice(&i.to_be_bytes());
        scalar::reduce(keccak256(&buf).to_u256())
    }

    fn challenge(c: &Commitment, bits: u32, i: u64, ci: &Point, a0: &Point, a1: &Point) -> U256 {
        let mut buf = Vec::with_capacity(16 + 64 + 4 + 8 + 64 * 3);
        buf.extend_from_slice(b"sc-range-chal-v2");
        buf.extend_from_slice(&c.to_bytes());
        buf.extend_from_slice(&bits.to_be_bytes());
        buf.extend_from_slice(&i.to_be_bytes());
        buf.extend_from_slice(&encode_point(ci));
        buf.extend_from_slice(&encode_point(a0));
        buf.extend_from_slice(&encode_point(a1));
        scalar::reduce(keccak256(&buf).to_u256())
    }

    pub fn prove(value: U256, blinding: U256, bits: u32) -> Option<Vec<u8>> {
        if bits == 0 || bits > MAX_BITS || value.bits() > bits {
            return None;
        }
        let r = scalar::reduce(blinding);
        let c = PedersenBackend.commit(value, r);
        let g = Point::generator();
        let h = h_table();

        let mut bit_r = vec![U256::ZERO; bits as usize];
        let mut acc = U256::ZERO;
        for (i, slot) in bit_r.iter_mut().enumerate().skip(1) {
            let ri = h2s(b"sc-range-blind-v1", r, i as u64);
            *slot = ri;
            let pow2 = U256::ONE.shl_bits(i as u32);
            acc = scalar::add(acc, scalar::mul(pow2, ri));
        }
        bit_r[0] = scalar_sub(r, acc);

        let mut bytes = Vec::with_capacity(bits as usize * BYTES_PER_BIT);
        for (i, &ri) in bit_r.iter().enumerate() {
            let b = value.bit(i as u32);
            let ci = {
                let rh = h.mul(ri);
                if b {
                    g.add(&rh)
                } else {
                    rh
                }
            };
            let e_sim = h2s(b"sc-range-sim-e-v1", ri, i as u64);
            let z_sim = h2s(b"sc-range-sim-z-v1", ri, i as u64);
            let y_sim = if b { ci } else { ci.add(&g.negate()) };
            let a_sim = lincomb(&[(h, z_sim)], &[(y_sim.negate(), e_sim)]);
            let k = h2s(b"sc-range-nonce-v1", ri, i as u64);
            let a_real = h.mul(k);

            let (a0, a1) = if b { (a_sim, a_real) } else { (a_real, a_sim) };
            let e = challenge(&c, bits, i as u64, &ci, &a0, &a1);
            let e_real = scalar_sub(e, e_sim);
            let z_real = scalar::add(k, scalar::mul(e_real, ri));
            let (e0, z0, z1) = if b {
                (e_sim, z_sim, z_real)
            } else {
                (e_real, z_real, z_sim)
            };
            bytes.extend_from_slice(&encode_point(&ci));
            bytes.extend_from_slice(&encode_point(&a0));
            bytes.extend_from_slice(&encode_point(&a1));
            bytes.extend_from_slice(&e0.to_be_bytes());
            bytes.extend_from_slice(&z0.to_be_bytes());
            bytes.extend_from_slice(&z1.to_be_bytes());
        }
        Some(bytes)
    }

    pub fn verify(c: &Commitment, bits: u32, proof: &[u8]) -> bool {
        if bits == 0 || bits > MAX_BITS {
            return false;
        }
        if proof.len() != bits as usize * BYTES_PER_BIT {
            return false;
        }
        let g_neg = Point::generator().negate();
        let h = h_table();
        let mut bit_commitments = Vec::with_capacity(bits as usize);
        for i in 0..bits as usize {
            let entry = &proof[i * BYTES_PER_BIT..(i + 1) * BYTES_PER_BIT];
            let Ok(ci) = decode_point(&entry[..64]) else {
                return false;
            };
            let Ok(a0) = decode_point(&entry[64..128]) else {
                return false;
            };
            let Ok(a1) = decode_point(&entry[128..192]) else {
                return false;
            };
            let e0 = U256::from_be_slice(&entry[192..224]);
            let z0 = U256::from_be_slice(&entry[224..256]);
            let z1 = U256::from_be_slice(&entry[256..288]);
            if e0 >= n() || z0 >= n() || z1 >= n() {
                return false;
            }
            let e = challenge(c, bits, i as u64, &ci, &a0, &a1);
            let e1 = scalar_sub(e, e0);
            if !points_equal(&lincomb(&[(h, z0)], &[(ci.negate(), e0)]), &a0) {
                return false;
            }
            let y1 = ci.add(&g_neg);
            if !points_equal(&lincomb(&[(h, z1)], &[(y1.negate(), e1)]), &a1) {
                return false;
            }
            bit_commitments.push(ci);
        }
        let sum = bit_commitments
            .iter()
            .rev()
            .fold(Point::INFINITY, |acc, ci| acc.double().add(ci));
        points_equal(&sum, &c.0)
    }
}

/// splitmix64: a seeded stream of test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, m: u64) -> u64 {
        self.next() % m
    }

    /// A value that fits `bits` bits, a third of the time at an edge.
    fn value(&mut self, bits: u32) -> U256 {
        let max = if bits == 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        U256::from_u64(match self.below(6) {
            0 => 0,
            1 => max,
            _ => self.next() & max,
        })
    }

    /// Any 256-bit blinding; the prover reduces it mod n.
    fn blinding(&mut self) -> U256 {
        match self.below(8) {
            0 => U256::ZERO,
            1 => n(),
            _ => U256([self.next(), self.next(), self.next(), self.next()]),
        }
    }
}

const WIDTHS: [u32; 6] = [1, 2, 8, 16, 32, 64];

/// Field offsets within an entry: `C_i`, `A_0`, `A_1`, `e_0`, `z_0`,
/// `z_1`.
const FIELDS: [(usize, usize); 6] = [
    (0, 64),
    (64, 128),
    (128, 192),
    (192, 224),
    (224, 256),
    (256, 288),
];

/// Both verifiers on one input: they must agree, and the verdict is
/// returned so a caller can pin it too.
fn agree(c: &Commitment, bits: u32, proof: &[u8], what: &str) -> bool {
    let product = PedersenBackend.verify_range(c, bits, proof);
    let expected = reference::verify(c, bits, proof);
    assert_eq!(product, expected, "{what}: batched vs per-equation");
    product
}

/// Writes `v` as the 32-byte scalar at `at`.
fn put_scalar(proof: &mut [u8], at: usize, v: U256) {
    proof[at..at + 32].copy_from_slice(&v.to_be_bytes());
}

fn scalar_at(proof: &[u8], at: usize) -> U256 {
    U256::from_be_slice(&proof[at..at + 32])
}

/// One case: prove at a seeded width, compare the bytes with the
/// reference, then put both verifiers through the valid proof and every
/// tampering below.
fn check_case(rng: &mut Rng, bits: u32) {
    let backend = PedersenBackend;
    let (v, r) = (rng.value(bits), rng.blinding());
    let label = format!("v = {v:x}, r = {r:x}, bits = {bits}");
    let proof = backend.prove_range(v, r, bits).expect("the value fits");
    let proof = proof.as_bytes();
    assert_eq!(
        Some(proof.to_vec()),
        reference::prove(v, r, bits),
        "{label}: bytes"
    );
    let c = backend.commit(v, r);
    assert!(agree(&c, bits, proof, &label), "{label}: valid proof");

    let entry = rng.below(bits as u64) as usize;
    let base = entry * BYTES_PER_BIT;

    // One flipped bit in each field of one entry.
    for (f, &(from, to)) in FIELDS.iter().enumerate() {
        let mut bad = proof.to_vec();
        let bit = rng.below(8 * (to - from) as u64) as usize;
        bad[base + from + bit / 8] ^= 1 << (bit % 8);
        let what = format!("{label}: bit {bit} of field {f} in entry {entry}");
        assert!(!agree(&c, bits, &bad, &what), "{what}");
    }

    // Two entries swapped.
    if bits > 1 {
        let other = (entry + 1 + rng.below(bits as u64 - 1) as usize) % bits as usize;
        let mut bad = proof.to_vec();
        let (lo, hi) = (entry.min(other), entry.max(other));
        let (head, tail) = bad.split_at_mut(hi * BYTES_PER_BIT);
        head[lo * BYTES_PER_BIT..(lo + 1) * BYTES_PER_BIT]
            .swap_with_slice(&mut tail[..BYTES_PER_BIT]);
        let what = format!("{label}: entries {lo} and {hi} swapped");
        assert!(!agree(&c, bits, &bad, &what), "{what}");
    }

    // A wrong commitment, a wrong width, a truncated and an empty proof.
    let other = backend.commit(v.wrapping_add(U256::ONE), r);
    assert!(!agree(&other, bits, proof, &format!("{label}: v + 1")));
    assert!(!agree(&c, bits + 1, proof, &format!("{label}: bits + 1")));
    assert!(!agree(&c, bits - 1, proof, &format!("{label}: bits − 1")));
    let cut = &proof[..proof.len() - 1 - rng.below(BYTES_PER_BIT as u64) as usize];
    assert!(!agree(&c, bits, cut, &format!("{label}: truncated")));
    assert!(!agree(&c, bits, &[], &format!("{label}: empty")));

    // Identity points, one field at a time and the whole proof.
    for (f, &(from, to)) in FIELDS[..3].iter().enumerate() {
        let mut bad = proof.to_vec();
        if bad[base + from..base + to].iter().all(|&b| b == 0) {
            continue; // already the identity (C_0 of commit(0, 0))
        }
        bad[base + from..base + to].fill(0);
        let what = format!("{label}: point {f} of entry {entry} zeroed");
        assert!(!agree(&c, bits, &bad, &what), "{what}");
    }
    let zeros = vec![0u8; proof.len()];
    let zero_ok = agree(&c, bits, &zeros, &format!("{label}: all zeros"));
    assert!(!zero_ok, "{label}: all zeros");
    assert!(!agree(
        &Commitment::ZERO,
        bits,
        &zeros,
        &format!("{label}: all zeros against the identity")
    ));

    // Each scalar set to n.
    for (f, &(from, _)) in FIELDS[3..].iter().enumerate() {
        let mut bad = proof.to_vec();
        put_scalar(&mut bad, base + from, n());
        let what = format!("{label}: scalar {f} of entry {entry} = n");
        assert!(!agree(&c, bits, &bad, &what), "{what}");
    }
}

/// Opposite errors in `z_0` of bits 0 and 1. The challenges hash no
/// `z`, so the two branch equations err by `δ_0·H` and `δ_1·H`, which a
/// weighting `w` cancels when `w_0·δ_0 + w_2·δ_1 = 0` (`w_j` weighs
/// equation `j`; bit `i`'s branch 0 is equation `2i`). Each forgery
/// below is built to cancel under one weighting a verifier could get
/// wrong — all weights equal, and weights hashed from everything but
/// the proof — and must be refused: the real weights hash the whole
/// proof, `z` included.
fn check_opposite_errors_do_not_cancel(rng: &mut Rng, bits: u32) {
    let backend = PedersenBackend;
    let (v, r) = (rng.value(bits), rng.blinding());
    let proof = backend.prove_range(v, r, bits).unwrap().into_bytes();
    let c = backend.commit(v, r);
    let unbound = |j: u64| {
        let mut buf = b"sc-range-batch-v1".to_vec();
        buf.extend_from_slice(&c.to_bytes());
        buf.extend_from_slice(&bits.to_be_bytes());
        buf.extend_from_slice(&j.to_be_bytes());
        U256::from_u128(keccak256(&buf).to_u256().low_u128() | 1)
    };
    let weightings = [
        ("equal weights", U256::ONE, U256::ONE),
        ("weights without the proof", unbound(0), unbound(2)),
    ];
    for (name, w0, w2) in weightings {
        let (z0_bit0, z0_bit1) = (FIELDS[4].0, BYTES_PER_BIT + FIELDS[4].0);
        let mut bad = proof.clone();
        put_scalar(
            &mut bad,
            z0_bit0,
            scalar::add(scalar_at(&proof, z0_bit0), w2),
        );
        put_scalar(
            &mut bad,
            z0_bit1,
            scalar::add(scalar_at(&proof, z0_bit1), scalar::neg(w0)),
        );
        let what = format!("errors cancelling under {name}, v = {v:x}, bits = {bits}");
        assert!(!agree(&c, bits, &bad, &what), "{what}");
    }
}

#[test]
fn batched_verifier_and_fixed_base_prover_match_the_reference() {
    let mut rng = Rng(1);
    for bits in WIDTHS {
        for _ in 0..3 {
            check_case(&mut rng, bits);
        }
    }
}

#[test]
fn identity_bit_commitments_prove_and_verify_alike() {
    // commit(0, 0) and commit(0, n) at one bit: C and C_0 are the
    // identity, which both verifiers must accept.
    for r in [U256::ZERO, n()] {
        let proof = PedersenBackend.prove_range(U256::ZERO, r, 1).unwrap();
        assert_eq!(proof.as_bytes()[..64], [0u8; 64]);
        assert_eq!(
            Some(proof.as_bytes().to_vec()),
            reference::prove(U256::ZERO, r, 1)
        );
        assert!(agree(&Commitment::ZERO, 1, proof.as_bytes(), "identity"));
    }
}

#[test]
fn opposite_errors_in_two_entries_do_not_cancel() {
    let mut rng = Rng(2);
    for bits in [2, 8, 16, 64] {
        check_opposite_errors_do_not_cancel(&mut rng, bits);
    }
}

/// The release sweep: 2,000 cases over the six widths.
#[test]
#[ignore = "2,000 cases; run in release"]
fn sweep_2000_cases() {
    let mut rng = Rng(0x5ec0_0033);
    for i in 0..2_000 {
        let bits = WIDTHS[i % WIDTHS.len()];
        check_case(&mut rng, bits);
        if bits > 1 {
            check_opposite_errors_do_not_cancel(&mut rng, bits);
        }
    }
}
