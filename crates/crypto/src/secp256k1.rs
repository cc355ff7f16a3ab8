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
//!   scalar products per signature). Both fields invert with the
//!   Bernstein–Yang divsteps of [`crate::modmath::inv_mod`]; square
//!   roots run a fixed addition chain for `(p + 1)/4`.
//! * **Scalar multiplication.** Every product — `k·P`, `k·G`,
//!   `a·G + b·P`, a Pedersen `v·G + r·H` — is one call of [`lincomb`], a
//!   Strauss–Shamir pass: each scalar is recoded in width-w NAF as
//!   pieces, then a single run of doublings adds each nonzero digit's
//!   table point to one accumulator. A fixed base ([`BaseTable`]: G
//!   through [`Point::mul_g`], `sc-confidential`'s H) gets w = 8 over 64
//!   affine odd multiples of each of eight teeth `2^(32t)·B` (32 KiB)
//!   built once, added with the cheaper mixed Jacobian + affine formula.
//!   With no variable point its scalar is cut into eight 32-bit pieces,
//!   one per tooth, and the pass runs ≤ 33 doublings; beside one it is
//!   cut as `lo + hi·2^128` over teeth 0 and 4. A variable point gets
//!   w = 5 over a Jacobian table of its 8 odd multiples, built per
//!   call; a scalar of 129 bits or more splits with the curve's
//!   endomorphism as `k1 + k2·λ`, the second half over the same table
//!   with every `X` times β. So ECDSA recovery and verification
//!   ([`Point::mul_add_g`]) run ≤ 129 doublings, not 257.
//!
//! The implementation favours clarity and determinism over constant-time
//! hardening — wNAF recoding, table lookups and the divstep inversion
//! of both fields branch on secret data: this stack signs simulated
//! testnet transactions, not production keys.

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
/// Entries of each tooth of a fixed-base table: the odd multiples
/// `1·B … 127·B`.
const FIXED_TABLE_LEN: usize = 1 << (FIXED_WINDOW - 2);
/// Bits between a fixed-base table's teeth: tooth `t` is `2^(32t)·B`.
const TOOTH_BITS: u32 = 32;
/// Teeth of a fixed-base table, one per 32-bit piece of a scalar.
const TEETH: usize = 256 / TOOTH_BITS as usize;
/// wNAF width for a variable point: its table is rebuilt on every call,
/// so it stays small (8 entries, digits up to ±15).
const VAR_WINDOW: u32 = 5;
/// Entries of a variable point's table: `1·P … 15·P`.
const VAR_TABLE_LEN: usize = 1 << (VAR_WINDOW - 2);
/// Beside a variable point every scalar is recoded in halves below
/// `2^128`: a fixed-base one as `lo + hi·2^128`, a variable one as
/// `k1 + k2·λ`.
const HALF_BITS: u32 = 128;
/// Digits of a recoded piece: room for a 128-bit half and its final
/// carry.
const HALF_NAF_LEN: usize = HALF_BITS as usize + 1;

/// λ, a cube root of unity mod n: `λ·(x, y) = (β·x, y)` on the curve.
/// This constant and the five below are libsecp256k1's
/// (`secp256k1_scalar_split_lambda`); the tests check they agree.
const LAMBDA: U256 = U256([
    0xdf02_967c_1b23_bd72,
    0x122e_22ea_2081_6678,
    0xa526_1c02_8812_645a,
    0x5363_ad4c_c05c_30e0,
]);
/// β, the cube root of unity mod p that pairs with [`LAMBDA`].
const BETA: U256 = U256([
    0xc139_6c28_7195_01ee,
    0x9cf0_4975_12f5_8995,
    0x6e64_479e_ac34_34e9,
    0x7ae9_6a2b_657c_0710,
]);
/// `g1 = round(2^384·b2 / n)` and `g2 = round(2^384·(−b1) / n)`, for the
/// lattice basis `(a1, b1), (a2, b2)` of the pairs `(x, y)` with
/// `x + y·λ ≡ 0 (mod n)`.
const G1: U256 = U256([
    0xe893_209a_45db_b031,
    0x3daa_8a14_71e8_ca7f,
    0xe86c_90e4_9284_eb15,
    0x3086_d221_a7d4_6bcd,
]);
const G2: U256 = U256([
    0x1571_b4ae_8ac4_7f71,
    0x2212_08ac_9df5_06c6,
    0x6f54_7fa9_0abf_e4c4,
    0xe443_7ed6_010e_8828,
]);
/// `−b1` (a 128-bit value) and `−b2 mod n`.
const MINUS_B1: U256 = U256([0x6f54_7fa9_0abf_e4c3, 0xe443_7ed6_010e_8828, 0, 0]);
const MINUS_B2: U256 = U256([
    0xd765_cda8_3db1_562c,
    0x8a28_0ac5_0774_346d,
    0xffff_ffff_ffff_fffe,
    0xffff_ffff_ffff_ffff,
]);

/// The odd multiples `1·B_t, 3·B_t, …, 127·B_t` of the eight teeth
/// `B_t = 2^(32t)·B` of a fixed base `B`, in affine form (8 × 64
/// points, 32 KiB). Built once per base, it lets [`lincomb`] recode
/// that base's scalar at width 8: ~28–32 mixed additions per 256-bit
/// scalar, against ~43 full ones at the variable width of 5. A pass
/// over fixed bases alone cuts the scalar into eight 32-bit pieces, one
/// per tooth, and runs ≤ 33 doublings; beside a variable point it cuts
/// two 128-bit halves over teeth 0 and 4.
pub struct BaseTable {
    teeth: [[Affine; FIXED_TABLE_LEN]; TEETH],
}

impl BaseTable {
    /// Tabulates `base`, which must be a curve point (a validated
    /// encoding or [`Affine::lift_x`]'s output): the group has prime
    /// order, so no odd multiple below 128 of any tooth `2^(32t)·base`
    /// is infinity.
    pub fn new(base: Affine) -> BaseTable {
        let mut tooth = Point::from_affine(base);
        let mut points = Vec::with_capacity(TEETH * FIXED_TABLE_LEN);
        for _ in 0..TEETH {
            let twice = tooth.double();
            let mut acc = tooth;
            for _ in 0..FIXED_TABLE_LEN {
                points.push(acc);
                acc = acc.add(&twice);
            }
            tooth = (1..TOOTH_BITS).fold(twice, |acc, _| acc.double());
        }
        let affine: Vec<Affine> = Point::batch_to_affine(&points)
            .into_iter()
            .map(|a| a.expect("odd multiples of a curve point below the prime order are finite"))
            .collect();
        BaseTable {
            teeth: std::array::from_fn(|t| {
                affine[t * FIXED_TABLE_LEN..][..FIXED_TABLE_LEN]
                    .try_into()
                    .expect("one tooth")
            }),
        }
    }

    /// The generator's table, built on first use.
    pub fn generator() -> &'static BaseTable {
        static TABLE: OnceLock<BaseTable> = OnceLock::new();
        TABLE.get_or_init(|| BaseTable::new(G))
    }

    /// The tabulated base `B`.
    pub fn base(&self) -> Affine {
        self.teeth[0][0]
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
/// (width 8 for a table, 5 for a point) as pieces, and one run of
/// doublings from the highest nonzero digit down adds each piece's
/// digit from its table. With no variable point, a fixed scalar is cut
/// into eight 32-bit pieces, piece `t` over tooth `2^(32t)·B`, so the
/// pass runs ≤ 33 doublings. Beside a variable point it is cut as
/// `lo + hi·2^128` over teeth 0 and 4: the variable halves need ≤ 129
/// doublings anyway, and two pieces carry fewer digits than eight. A
/// variable scalar is reduced mod n; below 2^128 it is recoded as it
/// is, and otherwise it splits as `k1 + k2·λ` (`split_lambda`), the
/// second half over `λ·Pⱼ`'s table. Scalars are any 256-bit values, not
/// only reduced ones. This is the crate's one scalar-multiplication
/// path.
///
/// Each `Pⱼ` must be a curve point or infinity: `(x, y) ↦ (β·x, y)` is
/// multiplication by λ only on the curve (checked in debug builds).
/// Every product source is one already — [`Affine::lift_x`],
/// `sc-confidential`'s `decode_point`, and every multiple of G.
pub fn lincomb(fixed: &[(&BaseTable, U256)], var: &[(Point, U256)]) -> Point {
    let piece_bits = if var.is_empty() {
        TOOTH_BITS
    } else {
        HALF_BITS
    };
    let mut fixed_terms: Vec<(&[Affine; FIXED_TABLE_LEN], [i8; HALF_NAF_LEN])> =
        Vec::with_capacity(fixed.len() * TEETH);
    for &(table, k) in fixed {
        for at in (0..256).step_by(piece_bits as usize) {
            let piece = k.shl_bits(256 - at - piece_bits).shr_bits(256 - piece_bits);
            let tooth = &table.teeth[(at / TOOTH_BITS) as usize];
            fixed_terms.push((tooth, wnaf(piece, FIXED_WINDOW, piece_bits)));
        }
    }
    let mut var_terms: Vec<([Point; VAR_TABLE_LEN], [i8; HALF_NAF_LEN])> =
        Vec::with_capacity(2 * var.len());
    for &(p, k) in var {
        debug_assert!(is_on_curve_jacobian(&p), "lincomb term off the curve");
        let table = odd_multiples(p);
        let k = scalar::reduce(k);
        // A scalar that is already half width is recoded as it is:
        // splitting it would double its additions.
        if k.bits() <= HALF_BITS {
            var_terms.push((table, wnaf(k, VAR_WINDOW, HALF_BITS)));
            continue;
        }
        let [k1, k2] = split_lambda(k);
        let lambda_table = table.map(|q| Point {
            x: fe::mul(q.x, BETA),
            ..q
        });
        var_terms.push((table, signed_wnaf(k1)));
        var_terms.push((lambda_table, signed_wnaf(k2)));
    }
    let top = fixed_terms
        .iter()
        .map(|(_, naf)| naf)
        .chain(var_terms.iter().map(|(_, naf)| naf))
        .filter_map(|naf| naf.iter().rposition(|&d| d != 0))
        .max();
    let Some(top) = top else {
        return Point::INFINITY;
    };
    let mut acc = Point::INFINITY;
    for i in (0..=top).rev() {
        acc = acc.double();
        for (tooth, naf) in &fixed_terms {
            if naf[i] != 0 {
                acc = acc.add_affine(&lookup(tooth, naf[i]));
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

/// `[k1, k2]` with `k1 + k2·λ ≡ k (mod n)` for a reduced `k`, each
/// within 2^128 of 0 mod n, by libsecp256k1's rounding:
/// `c_j = round(k·g_j / 2^384)`, `k2 = c1·(−b1) + c2·(−b2)` and
/// `k1 = k − k2·λ`.
fn split_lambda(k: U256) -> [U256; 2] {
    let c1 = mul_shift_384(k, G1);
    let c2 = mul_shift_384(k, G2);
    let k2 = scalar::add(scalar::mul(c1, MINUS_B1), scalar::mul(c2, MINUS_B2));
    let k1 = sub_mod(k, scalar::mul(k2, LAMBDA), N);
    [k1, k2]
}

/// `round(k·g / 2^384)`: the product's bits from 384 up, plus bit 383.
fn mul_shift_384(k: U256, g: U256) -> U256 {
    let (_, hi) = k.full_mul(g);
    let c = hi.shr_bits(128);
    if hi.bit(127) {
        c.wrapping_add(U256::ONE)
    } else {
        c
    }
}

/// The variable-width wNAF of a split half `r` (mod n). A half above
/// n/2 stands for `−(n − r)`, so it is recoded as `n − r` with every
/// digit negated.
fn signed_wnaf(r: U256) -> [i8; HALF_NAF_LEN] {
    let neg = scalar::neg(r);
    if neg < r {
        wnaf(neg, VAR_WINDOW, HALF_BITS).map(|d| -d)
    } else {
        wnaf(r, VAR_WINDOW, HALF_BITS)
    }
}

/// `Y² = X³ + 7·Z⁶`, the curve equation in Jacobian form; true for
/// infinity.
fn is_on_curve_jacobian(p: &Point) -> bool {
    if p.is_infinity() {
        return true;
    }
    let z2 = fe::sq(p.z);
    let z6 = fe::mul(fe::sq(z2), z2);
    let rhs = fe::add(fe::mul(fe::sq(p.x), p.x), fe::mul(z6, U256::from_u64(7)));
    fe::sq(p.y) == rhs
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

/// Width-`w` NAF of `k < 2^bits` (`bits ≤ 128`), least significant
/// digit first: every nonzero digit is odd, below `2^(w−1)` in
/// magnitude, and followed by at least `w − 1` zeros, and
/// `Σ dᵢ·2ⁱ = k`. (libsecp256k1's recoding, with the final carry kept
/// as digit `bits` instead of negating the scalar.)
fn wnaf(k: U256, w: u32, bits: u32) -> [i8; HALF_NAF_LEN] {
    debug_assert!(k.bits() <= bits, "{k:x} has more than {bits} bits");
    let mut naf = [0i8; HALF_NAF_LEN];
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
        // Every recoding is of a half below 2^128 (digits 0..=128, the
        // final carry at 128) or of a 32-bit piece (digits 0..=32, the
        // final carry at 32).
        let halves = |k: U256| [U256([k.0[0], k.0[1], 0, 0]), U256([k.0[2], k.0[3], 0, 0])];
        let pieces = |k: U256| (0..8).map(move |t| U256::from_u64(window(k, 32 * t, 32)));
        for k in ks {
            let recodings = halves(k)
                .map(|half| (half, HALF_BITS))
                .into_iter()
                .chain(pieces(k).map(|piece| (piece, TOOTH_BITS)));
            for (piece, bits) in recodings {
                for w in [VAR_WINDOW, FIXED_WINDOW] {
                    let naf = wnaf(piece, w, bits);
                    assert!(naf[bits as usize + 1..].iter().all(|&d| d == 0));
                    // Σ dᵢ·2ⁱ, split into a positive and a negative part.
                    let (mut pos, mut neg) = (U256::ZERO, U256::ZERO);
                    let mut last: Option<usize> = None;
                    for (i, &d) in naf.iter().enumerate().filter(|(_, &d)| d != 0) {
                        assert!(d % 2 != 0 && d.unsigned_abs() < 1 << (w - 1), "digit {d}");
                        if let Some(prev) = last {
                            assert!(i - prev >= w as usize, "digits {prev} and {i} too close");
                        }
                        last = Some(i);
                        let term = U256::from_u64(d.unsigned_abs() as u64).shl_bits(i as u32);
                        if d > 0 {
                            pos = pos.wrapping_add(term);
                        } else {
                            neg = neg.wrapping_add(term);
                        }
                    }
                    assert_eq!(pos.wrapping_sub(neg), piece, "w = {w}, piece of {k:x}");
                }
            }
        }
    }

    fn hex(s: &str) -> U256 {
        U256::from_hex_str(s).expect("hex")
    }

    #[test]
    fn endomorphism_constants_agree() {
        let cube = |x: U256, mul: fn(U256, U256) -> U256| mul(mul(x, x), x);
        assert_eq!(cube(BETA, fe::mul), U256::ONE, "β³ = 1 mod p");
        assert_eq!(cube(LAMBDA, scalar::mul), U256::ONE, "λ³ = 1 mod n");
        assert_ne!(BETA, U256::ONE);
        assert_ne!(LAMBDA, U256::ONE);
        // mul_g is fixed-base, so it never splits: an independent λ·G.
        let lambda_g = Point::mul_g(LAMBDA).to_affine().unwrap();
        let beta_g = Affine {
            x: fe::mul(G.x, BETA),
            y: G.y,
        };
        assert_eq!(lambda_g, beta_g);
        // The lattice vectors (a1, b1) and (a2, b2) behind −b1, −b2 and
        // g1, g2: a1 = b2 and a2 = a1 − b1, both x + y·λ ≡ 0 (mod n).
        let b2 = scalar::neg(MINUS_B2);
        let b1 = scalar::neg(MINUS_B1);
        let a1 = b2;
        let a2 = scalar::add(a1, MINUS_B1);
        assert_eq!(scalar::add(a1, scalar::mul(b1, LAMBDA)), U256::ZERO);
        assert_eq!(scalar::add(a2, scalar::mul(b2, LAMBDA)), U256::ZERO);
        // g1 = round(2^384·b2 / n) and g2 = round(2^384·(−b1) / n): the
        // 512-bit g·n lies within n/2 of numerator·2^384.
        for (g, numerator) in [(G1, b2), (G2, MINUS_B1)] {
            let (lo, hi) = g.full_mul(N);
            let target_hi = numerator.shl_bits(128);
            let half_n = N.shr_bits(1);
            if hi == target_hi {
                assert!(lo <= half_n, "g = {g:x} rounds up too far");
            } else {
                assert_eq!(hi.wrapping_add(U256::ONE), target_hi, "g = {g:x}");
                assert!(
                    U256::ZERO.wrapping_sub(lo) <= half_n,
                    "g = {g:x} rounds down too far"
                );
            }
        }
    }

    /// Scalars where the rounding bit 383 of `k·g1` (first two) or
    /// `k·g2` (last two) is set but not that of `(k − 1)·g_j`.
    fn rounding_flips() -> [(U256, U256); 4] {
        [
            (
                "2a342063ee95071831addb3fec8e91f8cf00d33ebf8e322101d1ae6946df093a",
                G1,
            ),
            (
                "546840c7dd2a0e30635bb67fdbc045ec88d316a89af4433da1139bb50d",
                G1,
            ),
            (
                "11f1b49aafb812989d9baa890b593e6390390318655302176a99f9de01",
                G2,
            ),
            (
                "8f8da4d57dc094c4ecdd5448564dbc0b704b2f2cb87dd36279255f9c2a71c17d",
                G2,
            ),
        ]
        .map(|(k, g)| (hex(k), g))
    }

    #[test]
    fn lambda_split_halves_are_short_and_recombine() {
        let bit383 = |k: U256, g: U256| k.full_mul(g).1.bit(127);
        let mut ks = vec![
            U256::ZERO,
            U256::ONE,
            LAMBDA,
            LAMBDA.wrapping_add(U256::ONE),
            LAMBDA.wrapping_sub(U256::ONE),
            n().wrapping_sub(LAMBDA),
            n().wrapping_sub(U256::ONE),
            U256::ONE.shl_bits(128).wrapping_sub(U256::ONE),
            U256::ONE.shl_bits(128),
            U256::ONE.shl_bits(128).wrapping_add(U256::ONE),
        ];
        for (k, g) in rounding_flips() {
            assert!(bit383(k, g) && !bit383(k.wrapping_sub(U256::ONE), g));
            ks.extend([k.wrapping_sub(U256::ONE), k]);
        }
        // splitmix64, seeded.
        let mut state = 0x1a3b_da5e_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..500 {
            ks.push(scalar::reduce(U256([next(), next(), next(), next()])));
        }
        let short = |r: U256| r.bits() <= HALF_BITS || scalar::neg(r).bits() <= HALF_BITS;
        for k in ks {
            let [k1, k2] = split_lambda(k);
            assert!(short(k1) && short(k2), "halves of {k:x}: {k1:x}, {k2:x}");
            assert_eq!(scalar::add(k1, scalar::mul(k2, LAMBDA)), k, "k = {k:x}");
        }
    }

    #[test]
    fn split_scalar_muls_match_the_fixed_base_product() {
        // A variable G and a full-width scalar takes the split path; the
        // fixed-base table of G never does.
        let g = Point::generator();
        let mut ks = vec![LAMBDA, n().wrapping_sub(U256::ONE), U256::MAX];
        ks.extend(rounding_flips().map(|(k, _)| k));
        for k in ks {
            assert_eq!(
                g.mul_scalar(k).to_affine(),
                Point::mul_g(k).to_affine(),
                "k = {k:x}"
            );
        }
        // One term recoded whole, one split, in the same pass.
        let (short, full) = (U256::ONE.shl_bits(127), LAMBDA);
        let expected = Point::mul_g(scalar::add(short, full));
        assert_eq!(
            lincomb(&[], &[(g, short), (g, full)]).to_affine(),
            expected.to_affine()
        );
    }

    #[test]
    fn on_curve_check_in_jacobian_form() {
        let g = Point::generator();
        for p in [g, g.double(), g.mul_scalar(LAMBDA), Point::INFINITY] {
            assert!(is_on_curve_jacobian(&p));
        }
        let off = Point {
            y: fe::add(g.y, U256::ONE),
            ..g
        };
        assert!(!is_on_curve_jacobian(&off));
    }

    #[test]
    fn fixed_base_tables_hold_the_odd_multiples() {
        let t = BaseTable::generator();
        assert_eq!(std::mem::size_of::<BaseTable>(), 8 * 64 * 64, "32 KiB");
        for (tooth, odd) in t.teeth.iter().enumerate() {
            for (i, a) in odd.iter().enumerate() {
                let k = U256::from_u64(2 * i as u64 + 1).shl_bits(TOOTH_BITS * tooth as u32);
                assert_eq!(
                    Some(*a),
                    Point::generator().mul_scalar(k).to_affine(),
                    "{k:x}"
                );
            }
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
