//! The secp256k1 elliptic curve: y² = x³ + 7 over F_p.
//!
//! Field arithmetic, Jacobian-coordinate point arithmetic and one
//! scalar-multiplication engine — everything ECDSA ([`crate::ecdsa`])
//! and `sc-confidential`'s Pedersen commitments need.
//!
//! * **Field.** `p = 2²⁵⁶ − 2³² − 977`, so `2²⁵⁶ ≡ 0x1_0000_03D1 (mod p)`.
//!   [`fe::mul`] and [`fe::sq`] fold the 512-bit product's high half
//!   back with that one-word constant, fold the ≤ 34-bit carry once
//!   more and finish with one conditional subtract. The scalar field
//!   keeps the generic fold of [`crate::modmath::mul_mod`] (a handful of
//!   scalar products per signature). Both fields invert with the binary
//!   extended Euclid of [`crate::modmath::inv_mod`]; square roots run a
//!   fixed addition chain for `(p + 1)/4`.
//! * **Scalar multiplication.** Every product — `k·P`, `k·G`,
//!   `a·G + b·P`, a Pedersen `v·G + r·H` — is one call of [`lincomb`], a
//!   Strauss–Shamir pass: each scalar is recoded in width-w NAF, then a
//!   single run of ≤ 257 doublings adds each nonzero digit's table point
//!   to one accumulator. A variable point gets w = 5 over a Jacobian
//!   table of its 8 odd multiples, built per call. A fixed base
//!   ([`BaseTable`]: G through [`Point::mul_g`], `sc-confidential`'s H)
//!   gets w = 8 over 64 affine odd multiples of `B` and 64 of
//!   `2^128·B` (8 KiB) built once, added with the cheaper mixed
//!   Jacobian + affine formula: its scalar is recoded as two 128-bit
//!   halves, so a pass over fixed bases alone (signing, public keys,
//!   commitments) runs ≤ 129 doublings. ECDSA recovery and verification
//!   are each one pass with a variable point ([`Point::mul_add_g`]), so
//!   they keep the full length.
//!
//! The implementation favours clarity and determinism over constant-time
//! hardening — wNAF recoding, table lookups and both inversions branch on
//! secret data: this stack signs simulated testnet transactions, not
//! production keys.

use crate::modmath::{add_mod, inv_mod, mul_mod, sub_mod};
use sc_primitives::U256;
use std::sync::OnceLock;

/// The base field prime `p = 2^256 - 2^32 - 977`.
const P: U256 = U256([
    0xffff_fffe_ffff_fc2f,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
]);

/// The group order `n`.
const N: U256 = U256([
    0xbfd2_5e8c_d036_4141,
    0xbaae_dce6_af48_a03b,
    0xffff_ffff_ffff_fffe,
    0xffff_ffff_ffff_ffff,
]);

/// The base field prime `p = 2^256 - 2^32 - 977`.
pub fn p() -> U256 {
    P
}

/// The group order `n`.
pub fn n() -> U256 {
    N
}

/// Base-field operations (mod p). Inputs must be reduced (`< p`);
/// every output is.
pub mod fe {
    use super::*;

    /// `2^256 mod p = 2^32 + 977`: the one-word folding constant.
    const FOLD: u64 = 0x1_0000_03d1;

    /// `(a + b) mod p`.
    #[inline]
    pub fn add(a: U256, b: U256) -> U256 {
        add_mod(a, b, P)
    }
    /// `(a - b) mod p`.
    #[inline]
    pub fn sub(a: U256, b: U256) -> U256 {
        sub_mod(a, b, P)
    }
    /// `-a mod p`.
    #[inline]
    pub fn neg(a: U256) -> U256 {
        sub_mod(U256::ZERO, a, P)
    }
    /// `(a * b) mod p`.
    pub fn mul(a: U256, b: U256) -> U256 {
        let (a, b) = (a.0, b.0);
        let mut w = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = a[i] as u128 * b[j] as u128 + w[i + j] as u128 + carry;
                w[i + j] = t as u64;
                carry = t >> 64;
            }
            w[i + 4] = carry as u64;
        }
        reduce(w)
    }
    /// `a² mod p`: the six cross products are computed once and doubled.
    pub fn sq(a: U256) -> U256 {
        let a = a.0;
        let mut w = [0u64; 8];
        for i in 0..3 {
            let mut carry = 0u128;
            for j in i + 1..4 {
                let t = a[i] as u128 * a[j] as u128 + w[i + j] as u128 + carry;
                w[i + j] = t as u64;
                carry = t >> 64;
            }
            w[i + 4] = carry as u64;
        }
        // The cross terms sum below 2^511, so doubling drops no bit.
        let mut top = 0;
        for limb in w.iter_mut() {
            let v = *limb;
            *limb = (v << 1) | top;
            top = v >> 63;
        }
        let mut carry = 0u128;
        for i in 0..4 {
            let square = a[i] as u128 * a[i] as u128;
            let t = w[2 * i] as u128 + (square as u64) as u128 + carry;
            w[2 * i] = t as u64;
            let t = w[2 * i + 1] as u128 + (square >> 64) + (t >> 64);
            w[2 * i + 1] = t as u64;
            carry = t >> 64;
        }
        reduce(w)
    }

    /// Reduces a 512-bit product `lo + hi·2^256` modulo p.
    #[inline]
    fn reduce(w: [u64; 8]) -> U256 {
        // lo + hi·FOLD: 256 bits plus a fifth word of at most 34 bits.
        let mut r = [0u64; 4];
        let mut carry = 0u128;
        for i in 0..4 {
            let t = w[i + 4] as u128 * FOLD as u128 + w[i] as u128 + carry;
            r[i] = t as u64;
            carry = t >> 64;
        }
        // The fifth word is another multiple of 2^256: fold it once more.
        let t = carry * FOLD as u128 + r[0] as u128;
        r[0] = t as u64;
        let mut carry = (t >> 64) as u64;
        for limb in r.iter_mut().skip(1) {
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            carry = c as u64;
        }
        let mut r = U256(r);
        if carry != 0 {
            // Wrapped past 2^256, so what is left is below 2^67 and one
            // more FOLD cannot carry out.
            r = r.wrapping_add(U256::from_u64(FOLD));
        }
        if r >= P {
            r.wrapping_sub(P)
        } else {
            r
        }
    }

    /// `a⁻¹ mod p` (0 for 0).
    pub fn inv(a: U256) -> U256 {
        inv_mod(a, P)
    }
    /// Square root mod p if one exists. `p ≡ 3 mod 4`, so the candidate
    /// is `a^((p+1)/4)`, computed with libsecp256k1's addition chain:
    /// the exponent's binary form is runs of ones of lengths 223, 22 and
    /// 2, so 253 squarings and 13 multiplications reach it.
    pub fn sqrt(a: U256) -> Option<U256> {
        let sqn = |x: U256, k: u32| (0..k).fold(x, |acc, _| sq(acc));
        // xk = a^(2^k − 1)
        let x2 = mul(sq(a), a);
        let x3 = mul(sq(x2), a);
        let x6 = mul(sqn(x3, 3), x3);
        let x9 = mul(sqn(x6, 3), x3);
        let x11 = mul(sqn(x9, 2), x2);
        let x22 = mul(sqn(x11, 11), x11);
        let x44 = mul(sqn(x22, 22), x22);
        let x88 = mul(sqn(x44, 44), x44);
        let x176 = mul(sqn(x88, 88), x88);
        let x220 = mul(sqn(x176, 44), x44);
        let x223 = mul(sqn(x220, 3), x3);
        let t = mul(sqn(x223, 23), x22);
        let t = mul(sqn(t, 6), x2);
        let root = sqn(t, 2);
        (sq(root) == a).then_some(root)
    }
}

/// Scalar-field operations (mod n).
pub mod scalar {
    use super::*;

    /// `2^256 mod n = 2^256 − n`, the folding constant for scalar-field
    /// reduction.
    const FOLD: U256 = U256([0x402d_a173_2fc9_bebf, 0x4551_2319_50b7_5fc4, 1, 0]);

    /// `(a + b) mod n`.
    pub fn add(a: U256, b: U256) -> U256 {
        add_mod(a, b, N)
    }
    /// `-a mod n`.
    pub fn neg(a: U256) -> U256 {
        sub_mod(U256::ZERO, a, N)
    }
    /// `(a * b) mod n`.
    pub fn mul(a: U256, b: U256) -> U256 {
        mul_mod(a, b, N, FOLD)
    }
    /// `a⁻¹ mod n` (0 for 0).
    pub fn inv(a: U256) -> U256 {
        inv_mod(a, N)
    }
    /// Reduces an arbitrary 256-bit value mod n.
    pub fn reduce(a: U256) -> U256 {
        if a >= N {
            a.wrapping_sub(N)
        } else {
            a
        }
    }
    /// True iff `1 ≤ a < n`.
    pub fn is_valid_nonzero(a: U256) -> bool {
        !a.is_zero() && a < N
    }
}

/// A curve point in Jacobian coordinates; `z == 0` encodes infinity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Point {
    /// Jacobian X (affine x = X / Z²).
    pub x: U256,
    /// Jacobian Y (affine y = Y / Z³).
    pub y: U256,
    /// Jacobian Z.
    pub z: U256,
}

/// An affine curve point (never infinity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Affine {
    /// Affine x coordinate.
    pub x: U256,
    /// Affine y coordinate.
    pub y: U256,
}

/// The generator G in affine form.
const G: Affine = Affine {
    x: U256([
        0x59f2_815b_16f8_1798,
        0x029b_fcdb_2dce_28d9,
        0x55a0_6295_ce87_0b07,
        0x79be_667e_f9dc_bbac,
    ]),
    y: U256([
        0x9c47_d08f_fb10_d4b8,
        0xfd17_b448_a685_5419,
        0x5da4_fbfc_0e11_08a8,
        0x483a_da77_26a3_c465,
    ]),
};

impl Point {
    /// The point at infinity (group identity).
    pub const INFINITY: Point = Point {
        x: U256::ZERO,
        y: U256::ZERO,
        z: U256::ZERO,
    };

    /// The generator point G.
    pub fn generator() -> Point {
        Point::from_affine(G)
    }

    /// Lifts an affine point to Jacobian coordinates.
    pub fn from_affine(a: Affine) -> Point {
        Point {
            x: a.x,
            y: a.y,
            z: U256::ONE,
        }
    }

    /// True iff this is the identity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Normalizes to affine coordinates; `None` for infinity.
    pub fn to_affine(&self) -> Option<Affine> {
        if self.is_infinity() {
            return None;
        }
        let zinv = fe::inv(self.z);
        let zinv2 = fe::sq(zinv);
        let zinv3 = fe::mul(zinv2, zinv);
        Some(Affine {
            x: fe::mul(self.x, zinv2),
            y: fe::mul(self.y, zinv3),
        })
    }

    /// Normalizes every point with one field inversion (Montgomery's
    /// trick: invert the product of the `Z`s, then peel each `Z⁻¹` off
    /// it); `None` for each infinity.
    pub fn batch_to_affine(points: &[Point]) -> Vec<Option<Affine>> {
        // prefix[i] = Π Z_j over the finite points j ≤ i.
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = U256::ONE;
        for pt in points {
            if !pt.is_infinity() {
                acc = fe::mul(acc, pt.z);
            }
            prefix.push(acc);
        }
        let mut inv = fe::inv(acc);
        let mut out = vec![None; points.len()];
        for (i, pt) in points.iter().enumerate().rev() {
            if pt.is_infinity() {
                continue;
            }
            // inv = 1 / prefix[i], so this peels off Z_i⁻¹.
            let before = if i == 0 { U256::ONE } else { prefix[i - 1] };
            let zinv = fe::mul(inv, before);
            inv = fe::mul(inv, pt.z);
            let zinv2 = fe::sq(zinv);
            out[i] = Some(Affine {
                x: fe::mul(pt.x, zinv2),
                y: fe::mul(pt.y, fe::mul(zinv2, zinv)),
            });
        }
        out
    }

    /// Point doubling (a = 0 short-Weierstrass formulas).
    pub fn double(&self) -> Point {
        if self.is_infinity() || self.y.is_zero() {
            return Point::INFINITY;
        }
        let a = fe::sq(self.x);
        let b = fe::sq(self.y);
        let c = fe::sq(b);
        // D = 2·((X+B)² − A − C)
        let xb = fe::sq(fe::add(self.x, b));
        let d = {
            let t = fe::sub(fe::sub(xb, a), c);
            fe::add(t, t)
        };
        let e = fe::add(fe::add(a, a), a); // 3A
        let f = fe::sq(e);
        let x3 = fe::sub(f, fe::add(d, d));
        let c8 = {
            let c2 = fe::add(c, c);
            let c4 = fe::add(c2, c2);
            fe::add(c4, c4)
        };
        let y3 = fe::sub(fe::mul(e, fe::sub(d, x3)), c8);
        let z3 = {
            let yz = fe::mul(self.y, self.z);
            fe::add(yz, yz)
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition.
    pub fn add(&self, other: &Point) -> Point {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = fe::sq(self.z);
        let z2z2 = fe::sq(other.z);
        let u1 = fe::mul(self.x, z2z2);
        let u2 = fe::mul(other.x, z1z1);
        let s1 = fe::mul(self.y, fe::mul(other.z, z2z2));
        let s2 = fe::mul(other.y, fe::mul(self.z, z1z1));
        let h = fe::sub(u2, u1);
        let r = fe::sub(s2, s1);
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return Point::INFINITY; // P + (-P)
        }
        let hh = fe::sq(h);
        let hhh = fe::mul(h, hh);
        let v = fe::mul(u1, hh);
        let x3 = fe::sub(fe::sub(fe::sq(r), hhh), fe::add(v, v));
        let y3 = fe::sub(fe::mul(r, fe::sub(v, x3)), fe::mul(s1, hhh));
        let z3 = fe::mul(fe::mul(self.z, other.z), h);
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition of an affine point: [`Point::add`] with `Z₂ = 1`,
    /// which saves the second operand's two `Z` powers.
    fn add_affine(&self, q: &Affine) -> Point {
        if self.is_infinity() {
            return Point::from_affine(*q);
        }
        let z1z1 = fe::sq(self.z);
        let u2 = fe::mul(q.x, z1z1);
        let s2 = fe::mul(q.y, fe::mul(self.z, z1z1));
        let h = fe::sub(u2, self.x);
        let r = fe::sub(s2, self.y);
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return Point::INFINITY; // P + (-P)
        }
        let hh = fe::sq(h);
        let hhh = fe::mul(h, hh);
        let v = fe::mul(self.x, hh);
        let x3 = fe::sub(fe::sub(fe::sq(r), hhh), fe::add(v, v));
        let y3 = fe::sub(fe::mul(r, fe::sub(v, x3)), fe::mul(self.y, hhh));
        let z3 = fe::mul(self.z, h);
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Additive inverse.
    pub fn negate(&self) -> Point {
        if self.is_infinity() {
            return *self;
        }
        Point {
            x: self.x,
            y: fe::neg(self.y),
            z: self.z,
        }
    }

    /// `k·self` for a variable point (one [`lincomb`] term).
    pub fn mul_scalar(&self, k: U256) -> Point {
        lincomb(&[], &[(*self, k)])
    }

    /// `k·G` over the generator's fixed-base table.
    pub fn mul_g(k: U256) -> Point {
        BaseTable::generator().mul(k)
    }

    /// `a·G + b·p` in one Strauss–Shamir pass — the shape of both ECDSA
    /// verification and public-key recovery.
    pub fn mul_add_g(a: U256, b: U256, p: &Point) -> Point {
        lincomb(&[(BaseTable::generator(), a)], &[(*p, b)])
    }
}

impl Affine {
    /// True iff the coordinates satisfy y² = x³ + 7 (mod p).
    pub fn is_on_curve(&self) -> bool {
        let y2 = fe::sq(self.y);
        let x3 = fe::mul(fe::sq(self.x), self.x);
        y2 == fe::add(x3, U256::from_u64(7))
    }

    /// Recovers the point with the given x coordinate and y parity, if the
    /// x coordinate lies on the curve.
    pub fn lift_x(x: U256, y_is_odd: bool) -> Option<Affine> {
        if x >= P {
            return None;
        }
        let rhs = fe::add(fe::mul(fe::sq(x), x), U256::from_u64(7));
        let mut y = fe::sqrt(rhs)?;
        if y.bit(0) != y_is_odd {
            y = fe::neg(y);
        }
        Some(Affine { x, y })
    }

    /// Uncompressed SEC1 serialization: `0x04 || x || y` (65 bytes).
    pub fn to_uncompressed(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[0] = 0x04;
        out[1..33].copy_from_slice(&self.x.to_be_bytes());
        out[33..].copy_from_slice(&self.y.to_be_bytes());
        out
    }
}

/// wNAF width for a fixed base: digits up to ±127, one table entry per
/// odd magnitude.
const FIXED_WINDOW: u32 = 8;
/// Entries of each half of a fixed-base table: the odd multiples
/// `1·B … 127·B`.
const FIXED_TABLE_LEN: usize = 1 << (FIXED_WINDOW - 2);
/// wNAF width for a variable point: its table is rebuilt on every call,
/// so it stays small (8 entries, digits up to ±15).
const VAR_WINDOW: u32 = 5;
/// Entries of a variable point's table: `1·P … 15·P`.
const VAR_TABLE_LEN: usize = 1 << (VAR_WINDOW - 2);
/// Digits of a 256-bit scalar's wNAF: one past the top bit for the
/// final carry.
const NAF_LEN: usize = 257;
/// A fixed-base scalar is split at this bit: `k = lo + hi·2^128`.
const HALF_BITS: u32 = 128;
/// Digits of a 128-bit half's wNAF, again one past the top bit.
const HALF_NAF_LEN: usize = HALF_BITS as usize + 1;

/// The odd multiples `B, 3B, …, 127B` of a fixed base `B` and
/// `B', 3B', …, 127B'` of `B' = 2^128·B`, in affine form (2 × 64
/// points, 8 KiB). Built once per base, it lets [`lincomb`] recode that
/// base's scalar as two 128-bit halves at width 8: ~28 mixed additions
/// per 256-bit scalar, against ~43 full ones at the variable width of
/// 5, and a pass over fixed bases alone needs only ≤ 129 doublings.
pub struct BaseTable {
    odd: [Affine; FIXED_TABLE_LEN],
    odd_hi: [Affine; FIXED_TABLE_LEN],
}

impl BaseTable {
    /// Tabulates `base`, which must be a curve point (a validated
    /// encoding or [`Affine::lift_x`]'s output): the group has prime
    /// order, so no odd multiple below 128 of it or of `2^128·base` is
    /// infinity.
    pub fn new(base: Affine) -> BaseTable {
        let b = Point::from_affine(base);
        let b_hi = (0..HALF_BITS).fold(b, |acc, _| acc.double());
        let mut points = Vec::with_capacity(2 * FIXED_TABLE_LEN);
        for start in [b, b_hi] {
            let twice = start.double();
            let mut acc = start;
            for _ in 0..FIXED_TABLE_LEN {
                points.push(acc);
                acc = acc.add(&twice);
            }
        }
        let affine: Vec<Affine> = Point::batch_to_affine(&points)
            .into_iter()
            .map(|a| a.expect("odd multiples of a curve point below the prime order are finite"))
            .collect();
        BaseTable {
            odd: affine[..FIXED_TABLE_LEN].try_into().expect("one half"),
            odd_hi: affine[FIXED_TABLE_LEN..]
                .try_into()
                .expect("the other half"),
        }
    }

    /// The generator's table, built on first use.
    pub fn generator() -> &'static BaseTable {
        static TABLE: OnceLock<BaseTable> = OnceLock::new();
        TABLE.get_or_init(|| BaseTable::new(G))
    }

    /// The tabulated base `B`.
    pub fn base(&self) -> Affine {
        self.odd[0]
    }

    /// `k·B`.
    pub fn mul(&self, k: U256) -> Point {
        lincomb(&[(self, k)], &[])
    }
}

/// `d·Q` for an odd wNAF digit `d`, from `Q`'s odd multiples.
fn lookup(odd: &[Affine; FIXED_TABLE_LEN], d: i8) -> Affine {
    let a = odd[(d.unsigned_abs() / 2) as usize];
    if d < 0 {
        Affine {
            x: a.x,
            y: fe::neg(a.y),
        }
    } else {
        a
    }
}

/// `Σ kᵢ·Bᵢ + Σ kⱼ·Pⱼ` over fixed-base tables `Bᵢ` and variable points
/// `Pⱼ`, in one Strauss–Shamir pass: every scalar is recoded in wNAF
/// (width 8 for a table, 5 for a point), and one run of doublings from
/// the highest nonzero digit down adds each term's digit from its table.
/// A fixed scalar is recoded as two 128-bit halves, the high one over
/// the table of `2^128·B`, so its digits stop at bit 128 and a pass
/// with no variable point runs ≤ 129 doublings. Scalars are any 256-bit
/// values, not only reduced ones. This is the crate's one
/// scalar-multiplication path.
pub fn lincomb(fixed: &[(&BaseTable, U256)], var: &[(Point, U256)]) -> Point {
    let fixed_nafs: Vec<[[i8; HALF_NAF_LEN]; 2]> = fixed
        .iter()
        .map(|&(_, k)| {
            let lo = U256([k.0[0], k.0[1], 0, 0]);
            let hi = U256([k.0[2], k.0[3], 0, 0]);
            [wnaf(lo, FIXED_WINDOW), wnaf(hi, FIXED_WINDOW)]
        })
        .collect();
    let var_terms: Vec<([Point; VAR_TABLE_LEN], [i8; NAF_LEN])> = var
        .iter()
        .map(|&(p, k)| (odd_multiples(p), wnaf(k, VAR_WINDOW)))
        .collect();
    let top = fixed_nafs
        .iter()
        .flat_map(|halves| halves.iter().map(|naf| naf.as_slice()))
        .chain(var_terms.iter().map(|(_, naf)| naf.as_slice()))
        .filter_map(|naf| naf.iter().rposition(|&d| d != 0))
        .max();
    let Some(top) = top else {
        return Point::INFINITY;
    };
    let mut acc = Point::INFINITY;
    for i in (0..=top).rev() {
        acc = acc.double();
        if i < HALF_NAF_LEN {
            for (&(table, _), [lo, hi]) in fixed.iter().zip(&fixed_nafs) {
                if lo[i] != 0 {
                    acc = acc.add_affine(&lookup(&table.odd, lo[i]));
                }
                if hi[i] != 0 {
                    acc = acc.add_affine(&lookup(&table.odd_hi, hi[i]));
                }
            }
        }
        for (table, naf) in &var_terms {
            let d = naf[i];
            if d != 0 {
                let q = table[(d.unsigned_abs() / 2) as usize];
                acc = acc.add(&if d < 0 { q.negate() } else { q });
            }
        }
    }
    acc
}

/// `P, 3P, …, 15P` in Jacobian form (all infinity for infinity).
fn odd_multiples(p: Point) -> [Point; VAR_TABLE_LEN] {
    let twice = p.double();
    let mut out = [p; VAR_TABLE_LEN];
    for i in 1..VAR_TABLE_LEN {
        out[i] = out[i - 1].add(&twice);
    }
    out
}

/// Width-`w` NAF of `k < 2^(L−1)`, least significant digit first: every
/// nonzero digit is odd, below `2^(w−1)` in magnitude, and followed by
/// at least `w − 1` zeros, and `Σ dᵢ·2ⁱ = k`. (libsecp256k1's
/// recoding, with the final carry kept as digit `L − 1` instead of
/// negating the scalar.)
fn wnaf<const L: usize>(k: U256, w: u32) -> [i8; L] {
    let bits = L as u32 - 1;
    let mut naf = [0i8; L];
    let mut carry = 0u64;
    let mut bit = 0u32;
    while bit < bits {
        if k.bit(bit) as u64 == carry {
            bit += 1;
            continue;
        }
        let width = w.min(bits - bit);
        // Odd, so at most 2^w − 1: a top bit set means "subtract 2^w
        // here, carry one into the next window".
        let word = window(k, bit, width) + carry;
        carry = (word >> (w - 1)) & 1;
        naf[bit as usize] = (word as i64 - ((carry as i64) << w)) as i8;
        bit += width;
    }
    naf[bits as usize] = carry as i8;
    naf
}

/// Bits `at .. at + width` of `k` (`width < 64`, `at + width ≤ 256`).
fn window(k: U256, at: u32, width: u32) -> u64 {
    let limb = (at / 64) as usize;
    let shift = at % 64;
    let mut v = k.0[limb] >> shift;
    if shift + width > 64 {
        v |= k.0[limb + 1] << (64 - shift);
    }
    v & ((1 << width) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_on_curve() {
        let g = Point::generator().to_affine().unwrap();
        assert!(g.is_on_curve());
    }

    #[test]
    fn generator_has_order_n() {
        let g = Point::generator();
        assert!(g.mul_scalar(n()).is_infinity());
        assert!(!g.mul_scalar(n().wrapping_sub(U256::ONE)).is_infinity());
    }

    #[test]
    fn double_matches_add() {
        let g = Point::generator();
        assert_eq!(
            g.double().to_affine().unwrap(),
            g.add(&g).to_affine().unwrap()
        );
    }

    #[test]
    fn known_multiples_of_g() {
        // 2G from the canonical secp256k1 tables.
        let two_g = Point::generator().mul_scalar(U256::from_u64(2));
        let a = two_g.to_affine().unwrap();
        assert_eq!(
            format!("{:x}", a.x),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
        assert_eq!(
            format!("{:x}", a.y),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"
        );
        // 3G
        let three_g = Point::generator().mul_scalar(U256::from_u64(3));
        let a = three_g.to_affine().unwrap();
        assert_eq!(
            format!("{:x}", a.x),
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"
        );
    }

    #[test]
    fn add_inverse_is_infinity() {
        let g = Point::generator();
        assert!(g.add(&g.negate()).is_infinity());
    }

    #[test]
    fn infinity_is_identity() {
        let g = Point::generator();
        assert_eq!(g.add(&Point::INFINITY).to_affine(), g.to_affine());
        assert_eq!(Point::INFINITY.add(&g).to_affine(), g.to_affine());
        assert!(Point::INFINITY.double().is_infinity());
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = Point::generator();
        let a = U256::from_u64(123456789);
        let b = U256::from_u64(987654321);
        let lhs = g.mul_scalar(a).add(&g.mul_scalar(b));
        let rhs = g.mul_scalar(a.wrapping_add(b));
        assert_eq!(lhs.to_affine(), rhs.to_affine());
    }

    #[test]
    fn lift_x_finds_both_parities() {
        let g = Point::generator().to_affine().unwrap();
        let even = Affine::lift_x(g.x, false).unwrap();
        let odd = Affine::lift_x(g.x, true).unwrap();
        assert!(even.is_on_curve() && odd.is_on_curve());
        assert_ne!(even.y, odd.y);
        assert!(!even.y.bit(0));
        assert!(odd.y.bit(0));
        // One of them is G itself.
        assert!(even.y == g.y || odd.y == g.y);
    }

    #[test]
    fn lift_x_rejects_non_residue() {
        // x = 5 gives x³+7 = 132; check behaviour is consistent with sqrt.
        let x = U256::from_u64(5);
        let lifted = Affine::lift_x(x, false);
        if let Some(pt) = lifted {
            assert!(pt.is_on_curve());
        }
        // x >= p is always rejected.
        assert!(Affine::lift_x(p(), false).is_none());
    }

    #[test]
    fn field_sqrt_roundtrip() {
        let v = U256::from_u64(1234567);
        let sq = fe::sq(v);
        let root = fe::sqrt(sq).unwrap();
        assert!(root == v || root == sub_mod(U256::ZERO, v, p()));
    }

    #[test]
    fn wnaf_digits_are_sparse_odd_and_sum_to_the_scalar() {
        let ks = [
            U256::ZERO,
            U256::ONE,
            U256::MAX,
            n().wrapping_sub(U256::ONE),
            U256::from_hex_str("8000000000000000000000000000000000000000000000000000000000000000")
                .unwrap(),
            U256([
                0x0123_4567_89ab_cdef,
                0xfedc_ba98_7654_3210,
                0xf0f0_f0f0,
                1 << 63,
            ]),
        ];
        for k in ks {
            for w in [VAR_WINDOW, FIXED_WINDOW] {
                let naf: [i8; NAF_LEN] = wnaf(k, w);
                // Σ dᵢ·2ⁱ, split into a positive and a negative part.
                let (mut pos, mut neg) = (U256::ZERO, U256::ZERO);
                let mut last: Option<usize> = None;
                for (i, &d) in naf.iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    assert!(d % 2 != 0 && d.unsigned_abs() < 1 << (w - 1), "digit {d}");
                    if let Some(prev) = last {
                        assert!(i - prev >= w as usize, "digits {prev} and {i} too close");
                    }
                    last = Some(i);
                    // Digit 256 is only ever the final carry of 1.
                    let term = U256::from_u64(d.unsigned_abs() as u64).shl_bits(i as u32);
                    if d > 0 {
                        pos = pos.wrapping_add(term);
                    } else {
                        neg = neg.wrapping_add(term);
                    }
                }
                assert_eq!(pos.wrapping_sub(neg), k, "w = {w}");
            }
            // The fixed-base halves: digits 0..=128, the carry at 128.
            for half in [U256([k.0[0], k.0[1], 0, 0]), U256([k.0[2], k.0[3], 0, 0])] {
                let naf: [i8; HALF_NAF_LEN] = wnaf(half, FIXED_WINDOW);
                let (mut pos, mut neg) = (U256::ZERO, U256::ZERO);
                for (i, &d) in naf.iter().enumerate().filter(|(_, &d)| d != 0) {
                    assert!(d % 2 != 0 && d.unsigned_abs() < 1 << (FIXED_WINDOW - 1));
                    let term = U256::from_u64(d.unsigned_abs() as u64).shl_bits(i as u32);
                    if d > 0 {
                        pos = pos.wrapping_add(term);
                    } else {
                        neg = neg.wrapping_add(term);
                    }
                }
                assert_eq!(pos.wrapping_sub(neg), half, "half of {k:x}");
            }
        }
    }

    #[test]
    fn fixed_base_tables_hold_the_odd_multiples() {
        let t = BaseTable::generator();
        assert_eq!(std::mem::size_of::<BaseTable>(), 2 * 64 * 64, "8 KiB");
        for (i, (a, a_hi)) in t.odd.iter().zip(&t.odd_hi).enumerate() {
            let k = U256::from_u64(2 * i as u64 + 1);
            assert_eq!(Some(*a), Point::generator().mul_scalar(k).to_affine());
            let k_hi = k.shl_bits(HALF_BITS);
            assert_eq!(Some(*a_hi), Point::generator().mul_scalar(k_hi).to_affine());
        }
    }

    #[test]
    fn batch_normalisation_matches_one_at_a_time() {
        let g = Point::generator();
        let points = [
            Point::INFINITY,
            g,
            g.double(),
            Point::INFINITY,
            g.mul_scalar(U256::from_u64(12345)),
            g.double().add(&g),
            Point::INFINITY,
        ];
        let one_by_one: Vec<_> = points.iter().map(Point::to_affine).collect();
        assert_eq!(Point::batch_to_affine(&points), one_by_one);
        assert!(Point::batch_to_affine(&[]).is_empty());
        assert_eq!(Point::batch_to_affine(&[Point::INFINITY]), vec![None]);
    }
}
