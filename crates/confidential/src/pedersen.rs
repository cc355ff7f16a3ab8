//! Pedersen commitments `C = v·G + r·H` on secp256k1.
//!
//! `H` is derived nothing-up-my-sleeve by try-and-increment hash-to-curve:
//! keccak a domain tag plus a counter until the digest is the x
//! coordinate of a curve point, then take the even-`y` lift. Nobody
//! knows `log_G H`, so commitments are binding; `r` uniform makes them
//! hiding.

use std::sync::OnceLock;

use crate::CommitmentBackend;
use sc_crypto::keccak::keccak256;
use sc_crypto::secp256k1::{fe, lincomb, n, p, scalar, Affine, BaseTable, Point};
use sc_primitives::U256;

/// Domain tag for the try-and-increment derivation of `H`.
pub const H_DOMAIN: &[u8] = b"sc-pedersen-H-v1";

/// The second generator `H`, derived deterministically from [`H_DOMAIN`].
pub fn generator_h() -> Point {
    Point::from_affine(h_table().base())
}

/// `H`'s fixed-base table (64 odd multiples of each of the eight teeth
/// `2^(32t)·H`, 32 KiB), derived and built once: every `·H` in
/// commitments and range proofs runs over it.
pub fn h_table() -> &'static BaseTable {
    static H: OnceLock<BaseTable> = OnceLock::new();
    H.get_or_init(|| {
        for ctr in 0u64.. {
            let mut buf = Vec::with_capacity(H_DOMAIN.len() + 8);
            buf.extend_from_slice(H_DOMAIN);
            buf.extend_from_slice(&ctr.to_be_bytes());
            let x = keccak256(&buf).to_u256();
            if let Some(a) = Affine::lift_x(x, false) {
                return BaseTable::new(a);
            }
        }
        unreachable!("try-and-increment terminates with overwhelming probability")
    })
}

/// A Pedersen commitment — a point on secp256k1 (possibly the identity,
/// e.g. `commit(0, 0)`).
#[derive(Clone, Copy, Debug)]
pub struct Commitment(pub Point);

impl PartialEq for Commitment {
    fn eq(&self, other: &Self) -> bool {
        points_equal(&self.0, &other.0)
    }
}
impl Eq for Commitment {}

/// Jacobian-coordinate-independent point equality, without inverting:
/// `(X₁, Y₁, Z₁)` and `(X₂, Y₂, Z₂)` are one point iff
/// `X₁·Z₂² = X₂·Z₁²` and `Y₁·Z₂³ = Y₂·Z₁³`.
pub(crate) fn points_equal(a: &Point, b: &Point) -> bool {
    match (a.is_infinity(), b.is_infinity()) {
        (false, false) => {
            let (za2, zb2) = (fe::sq(a.z), fe::sq(b.z));
            fe::mul(a.x, zb2) == fe::mul(b.x, za2)
                && fe::mul(a.y, fe::mul(zb2, b.z)) == fe::mul(b.y, fe::mul(za2, a.z))
        }
        (a_inf, b_inf) => a_inf == b_inf,
    }
}

impl Commitment {
    /// The identity commitment (`commit(0, 0)`).
    pub const ZERO: Commitment = Commitment(Point::INFINITY);

    /// Canonical 64-byte wire encoding `x || y`; the identity encodes
    /// as all zeros.
    pub fn to_bytes(&self) -> [u8; 64] {
        encode_point(&self.0)
    }

    /// Decodes and validates a 64-byte encoding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Commitment, DecodeError> {
        decode_point(bytes).map(Commitment)
    }

    /// The affine x coordinate (0 for the identity).
    pub fn x(&self) -> U256 {
        self.0.to_affine().map_or(U256::ZERO, |a| a.x)
    }

    /// The affine y coordinate (0 for the identity).
    pub fn y(&self) -> U256 {
        self.0.to_affine().map_or(U256::ZERO, |a| a.y)
    }
}

/// Why a 64-byte point encoding was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input is not exactly 64 bytes; carries the actual length.
    Length(usize),
    /// A coordinate is `>= p` — a non-canonical field encoding.
    NonCanonical,
    /// The coordinates do not satisfy the curve equation.
    NotOnCurve,
}

/// Encodes a point as `x || y` (64 bytes); the identity as all zeros.
pub fn encode_point(pt: &Point) -> [u8; 64] {
    encode_affine(pt.to_affine())
}

/// [`encode_point`] of an already normalised point (`None` for the
/// identity).
pub(crate) fn encode_affine(a: Option<Affine>) -> [u8; 64] {
    let mut out = [0u8; 64];
    if let Some(a) = a {
        out[..32].copy_from_slice(&a.x.to_be_bytes());
        out[32..].copy_from_slice(&a.y.to_be_bytes());
    }
    out
}

/// Decodes a 64-byte `x || y` encoding, enforcing canonical field
/// elements and curve membership. All-zeros decodes to the identity.
pub fn decode_point(bytes: &[u8]) -> Result<Point, DecodeError> {
    if bytes.len() != 64 {
        return Err(DecodeError::Length(bytes.len()));
    }
    let x = U256::from_be_slice(&bytes[..32]);
    let y = U256::from_be_slice(&bytes[32..]);
    if x.is_zero() && y.is_zero() {
        return Ok(Point::INFINITY);
    }
    if x >= p() || y >= p() {
        return Err(DecodeError::NonCanonical);
    }
    let a = Affine { x, y };
    if !a.is_on_curve() {
        return Err(DecodeError::NotOnCurve);
    }
    Ok(Point::from_affine(a))
}

/// `(a - b) mod n` over the scalar field.
pub(crate) fn scalar_sub(a: U256, b: U256) -> U256 {
    scalar::add(a, n().wrapping_sub(scalar::reduce(b)))
}

/// The sigma-protocol Pedersen backend — the concrete
/// [`CommitmentBackend`] the precompiles and benches use.
#[derive(Clone, Copy, Debug, Default)]
pub struct PedersenBackend;

impl CommitmentBackend for PedersenBackend {
    fn commit(&self, value: U256, blinding: U256) -> Commitment {
        let v = scalar::reduce(value);
        let r = scalar::reduce(blinding);
        Commitment(lincomb(&[(BaseTable::generator(), v), (h_table(), r)], &[]))
    }

    fn verify_opening(&self, c: &Commitment, value: U256, blinding: U256) -> bool {
        self.commit(value, blinding) == *c
    }

    fn add(&self, a: &Commitment, b: &Commitment) -> Commitment {
        Commitment(a.0.add(&b.0))
    }

    fn sub(&self, a: &Commitment, b: &Commitment) -> Commitment {
        Commitment(a.0.add(&b.0.negate()))
    }

    fn prove_range(&self, value: U256, blinding: U256, bits: u32) -> Option<crate::RangeProof> {
        crate::range::prove(self, value, blinding, bits)
    }

    fn verify_range(&self, c: &Commitment, bits: u32, proof: &[u8]) -> bool {
        crate::range::verify(c, bits, proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_is_on_curve_and_independent_of_g() {
        let h = generator_h().to_affine().unwrap();
        assert!(h.is_on_curve());
        let g = Point::generator().to_affine().unwrap();
        assert_ne!(h.x, g.x, "H must not share an x coordinate with G");
        assert!(!h.y.bit(0), "derivation takes the even-y lift");
    }

    #[test]
    fn commit_is_binding_on_inputs() {
        let b = PedersenBackend;
        let c = b.commit(U256::from_u64(42), U256::from_u64(7));
        assert!(b.verify_opening(&c, U256::from_u64(42), U256::from_u64(7)));
        assert!(!b.verify_opening(&c, U256::from_u64(43), U256::from_u64(7)));
        assert!(!b.verify_opening(&c, U256::from_u64(42), U256::from_u64(8)));
    }

    #[test]
    fn homomorphic_add_and_sub() {
        let b = PedersenBackend;
        let c1 = b.commit(U256::from_u64(10), U256::from_u64(111));
        let c2 = b.commit(U256::from_u64(32), U256::from_u64(222));
        let sum = b.commit(U256::from_u64(42), U256::from_u64(333));
        assert_eq!(b.add(&c1, &c2), sum);
        assert!(b.verify_sum(&c1, &c2, &sum));
        assert_eq!(b.sub(&sum, &c2), c1);
    }

    #[test]
    fn encoding_round_trips_and_rejects_junk() {
        let b = PedersenBackend;
        let c = b.commit(U256::from_u64(5), U256::from_u64(6));
        let bytes = c.to_bytes();
        assert_eq!(Commitment::from_bytes(&bytes).unwrap(), c);
        assert_eq!(
            Commitment::from_bytes(&bytes[..63]),
            Err(DecodeError::Length(63))
        );
        assert_eq!(Commitment::ZERO.to_bytes(), [0u8; 64]);
        assert_eq!(
            Commitment::from_bytes(&[0u8; 64]).unwrap(),
            Commitment::ZERO
        );

        // Off-curve: valid x, y+1.
        let mut bad = bytes;
        bad[63] = bad[63].wrapping_add(1);
        assert_eq!(Commitment::from_bytes(&bad), Err(DecodeError::NotOnCurve));

        // Non-canonical: x = p (on-curve x + p would not fit, but p itself
        // must be rejected before any curve check).
        let mut noncanon = [0u8; 64];
        noncanon[..32].copy_from_slice(&p().to_be_bytes());
        noncanon[63] = 1;
        assert_eq!(
            Commitment::from_bytes(&noncanon),
            Err(DecodeError::NonCanonical)
        );
    }

    #[test]
    fn points_compare_across_jacobian_representations() {
        let g = Point::generator();
        let three = g.mul_scalar(U256::from_u64(3));
        let three_again = g.double().add(&g);
        assert_ne!(three.z, three_again.z, "two representations of 3G");
        assert!(points_equal(&three, &three_again));
        assert!(
            !points_equal(&three, &three_again.negate()),
            "same x, other y"
        );
        assert!(!points_equal(&three, &g.double()));
        assert!(points_equal(&Point::INFINITY, &g.add(&g.negate())));
        assert!(!points_equal(&Point::INFINITY, &three));
        assert!(!points_equal(&three, &Point::INFINITY));
    }

    #[test]
    fn blinding_wraps_mod_n() {
        let b = PedersenBackend;
        let r = U256::from_u64(99);
        let c1 = b.commit(U256::from_u64(1), r);
        let c2 = b.commit(U256::from_u64(1), r.wrapping_add(n()));
        assert_eq!(c1, c2);
    }
}
