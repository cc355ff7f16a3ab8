//! The secp256k1 arithmetic against a reference that shares none of it.
//!
//! `reference` below is the textbook implementation the crate started
//! from: the generic fold of a 512-bit product modulo any `m > 2^255`,
//! Fermat inversion and square roots by square-and-multiply, Jacobian
//! points multiplied by MSB-first double-and-add, and recovery as three
//! separate scalar multiplications. Every property draws its inputs from
//! a seeded stream and compares the product's answer with the
//! reference's, so a failure names the case that reproduces it.
//!
//! Tier-1 runs a few cases per property; the `#[ignore]`d sweep runs
//! 2,000 of each (`cargo test --release -p sc-crypto --test oracle --
//! --include-ignored`).

use sc_crypto::ecdsa::{recover_pubkey, EcdsaError, PrivateKey, Signature};
use sc_crypto::keccak256;
use sc_crypto::modmath::inv_mod;
use sc_crypto::secp256k1::{fe, lincomb, n, p, scalar, Affine, BaseTable, Point};
use sc_primitives::{Address, H256, U256};

/// The textbook arithmetic the optimized code must agree with.
mod reference {
    use sc_primitives::U256;

    pub fn p() -> U256 {
        sc_crypto::secp256k1::p()
    }
    pub fn n() -> U256 {
        sc_crypto::secp256k1::n()
    }

    pub fn add_mod(a: U256, b: U256, m: U256) -> U256 {
        let (sum, carry) = a.overflowing_add(b);
        if carry || sum >= m {
            sum.wrapping_sub(m)
        } else {
            sum
        }
    }

    pub fn sub_mod(a: U256, b: U256, m: U256) -> U256 {
        let (diff, borrow) = a.overflowing_sub(b);
        if borrow {
            diff.wrapping_add(m)
        } else {
            diff
        }
    }

    /// `(a * b) mod m` for `m > 2^255`: fold `hi·2^256 ≡ hi·(2^256 − m)`
    /// until the high word is gone.
    pub fn mul_mod(a: U256, b: U256, m: U256) -> U256 {
        let r = U256::ZERO.wrapping_sub(m);
        let (mut lo, mut hi) = a.full_mul(b);
        while !hi.is_zero() {
            let (l2, h2) = hi.full_mul(r);
            let (sum, carry) = lo.overflowing_add(l2);
            lo = sum;
            hi = if carry {
                h2.wrapping_add(U256::ONE)
            } else {
                h2
            };
        }
        if lo >= m {
            lo.wrapping_sub(m)
        } else {
            lo
        }
    }

    /// `a^e mod m` by square-and-multiply.
    pub fn pow_mod(a: U256, e: U256, m: U256) -> U256 {
        let mut acc = U256::ONE;
        for i in (0..e.bits()).rev() {
            acc = mul_mod(acc, acc, m);
            if e.bit(i) {
                acc = mul_mod(acc, a, m);
            }
        }
        acc
    }

    /// Fermat: `a^(m−2)`, zero for zero.
    pub fn inv(a: U256, m: U256) -> U256 {
        if a.is_zero() {
            return U256::ZERO;
        }
        pow_mod(a, m.wrapping_sub(U256::from_u64(2)), m)
    }

    pub fn sqrt(a: U256) -> Option<U256> {
        let root = pow_mod(a, p().wrapping_add(U256::ONE).shr_bits(2), p());
        (mul_mod(root, root, p()) == a).then_some(root)
    }

    fn fadd(a: U256, b: U256) -> U256 {
        add_mod(a, b, p())
    }
    fn fsub(a: U256, b: U256) -> U256 {
        sub_mod(a, b, p())
    }
    fn fmul(a: U256, b: U256) -> U256 {
        mul_mod(a, b, p())
    }

    /// A Jacobian point; `z == 0` is infinity.
    #[derive(Clone, Copy)]
    pub struct Pt {
        x: U256,
        y: U256,
        z: U256,
    }

    impl Pt {
        pub const INFINITY: Pt = Pt {
            x: U256::ZERO,
            y: U256::ZERO,
            z: U256::ZERO,
        };

        pub fn affine(x: U256, y: U256) -> Pt {
            Pt { x, y, z: U256::ONE }
        }

        pub fn generator() -> Pt {
            let g = sc_crypto::secp256k1::Point::generator();
            Pt::affine(g.x, g.y)
        }

        pub fn to_affine(self) -> Option<(U256, U256)> {
            if self.z.is_zero() {
                return None;
            }
            let zinv = inv(self.z, p());
            let zinv2 = fmul(zinv, zinv);
            Some((fmul(self.x, zinv2), fmul(self.y, fmul(zinv2, zinv))))
        }

        pub fn negate(self) -> Pt {
            Pt {
                y: sub_mod(U256::ZERO, self.y, p()),
                ..self
            }
        }

        pub fn double(self) -> Pt {
            if self.z.is_zero() || self.y.is_zero() {
                return Pt::INFINITY;
            }
            let a = fmul(self.x, self.x);
            let b = fmul(self.y, self.y);
            let c = fmul(b, b);
            let xb = fadd(self.x, b);
            let t = fsub(fsub(fmul(xb, xb), a), c);
            let d = fadd(t, t);
            let e = fadd(fadd(a, a), a);
            let x3 = fsub(fmul(e, e), fadd(d, d));
            let c2 = fadd(c, c);
            let c4 = fadd(c2, c2);
            let y3 = fsub(fmul(e, fsub(d, x3)), fadd(c4, c4));
            let yz = fmul(self.y, self.z);
            Pt {
                x: x3,
                y: y3,
                z: fadd(yz, yz),
            }
        }

        pub fn add(self, o: Pt) -> Pt {
            if self.z.is_zero() {
                return o;
            }
            if o.z.is_zero() {
                return self;
            }
            let z1z1 = fmul(self.z, self.z);
            let z2z2 = fmul(o.z, o.z);
            let u1 = fmul(self.x, z2z2);
            let u2 = fmul(o.x, z1z1);
            let s1 = fmul(self.y, fmul(o.z, z2z2));
            let s2 = fmul(o.y, fmul(self.z, z1z1));
            let h = fsub(u2, u1);
            let r = fsub(s2, s1);
            if h.is_zero() {
                return if r.is_zero() {
                    self.double()
                } else {
                    Pt::INFINITY
                };
            }
            let hh = fmul(h, h);
            let hhh = fmul(h, hh);
            let v = fmul(u1, hh);
            let x3 = fsub(fsub(fmul(r, r), hhh), fadd(v, v));
            let y3 = fsub(fmul(r, fsub(v, x3)), fmul(s1, hhh));
            Pt {
                x: x3,
                y: y3,
                z: fmul(fmul(self.z, o.z), h),
            }
        }

        /// Double-and-add, most significant bit first.
        pub fn mul(self, k: U256) -> Pt {
            let mut acc = Pt::INFINITY;
            for i in (0..k.bits()).rev() {
                acc = acc.double();
                if k.bit(i) {
                    acc = acc.add(self);
                }
            }
            acc
        }
    }

    /// ECDSA recovery as three scalar multiplications:
    /// `Q = r⁻¹·(s·R − z·G)`, `None` where the product refuses.
    pub fn recover(digest: [u8; 32], v: u8, r: U256, s: U256) -> Option<(U256, U256)> {
        let in_range = |x: U256| !x.is_zero() && x < n();
        if (v != 27 && v != 28) || !in_range(r) || !in_range(s) {
            return None;
        }
        if r >= p() {
            return None;
        }
        let rhs = fadd(fmul(fmul(r, r), r), U256::from_u64(7));
        let mut y = sqrt(rhs)?;
        if y.bit(0) != (v == 28) {
            y = sub_mod(U256::ZERO, y, p());
        }
        let z = U256::from_be_bytes(digest);
        let z = if z >= n() { z.wrapping_sub(n()) } else { z };
        let sr = Pt::affine(r, y).mul(s);
        let zg = Pt::generator().mul(z);
        sr.add(zg.negate()).mul(inv(r, n())).to_affine()
    }
}

use reference::Pt;

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

    fn u256(&mut self) -> U256 {
        U256([self.next(), self.next(), self.next(), self.next()])
    }

    /// A value below `m`, biased towards the edges: a quarter of draws
    /// sit within 2^64 of 0 or of `m`.
    fn below(&mut self, m: U256) -> U256 {
        let small = U256::from_u64(self.next());
        match self.next() % 8 {
            0 => small.min(m.wrapping_sub(U256::ONE)),
            1 => m
                .wrapping_sub(U256::ONE)
                .wrapping_sub(small.min(m.wrapping_sub(U256::ONE))),
            _ => {
                let v = self.u256();
                if v >= m {
                    v.wrapping_sub(m)
                } else {
                    v
                }
            }
        }
    }
}

fn affine_of(pt: &Point) -> Option<(U256, U256)> {
    pt.to_affine().map(|a| (a.x, a.y))
}

/// Field values every property starts from: 0, 1, p − 1 and values
/// at and above 2^255.
fn field_edges() -> Vec<U256> {
    let top = U256::ONE.shl_bits(255);
    vec![
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        p().wrapping_sub(U256::ONE),
        p().wrapping_sub(U256::from_u64(2)),
        top,
        top.wrapping_add(U256::ONE),
        U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]),
        U256([0, 0, 0, u64::MAX]),
    ]
}

/// Scalars every multiplication property is checked at: 0, 1, 2,
/// n − 1, n, n + 1 and 2^256 − 1 (the engine takes any 256-bit scalar),
/// and the edges of a fixed-only pass's 32-bit pieces: `2^(32t) − 1`,
/// `2^(32t)`, `2^(32t) + 1` and `127·2^(32t)` for t = 1..7, and pieces
/// alternating between `0xffffffff` and 1 (every piece `0xffffffff` is
/// 2^256 − 1).
fn scalar_edges() -> Vec<U256> {
    let mut edges = vec![
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        U256::from_u64(127),
        U256::from_u64(128),
        n().wrapping_sub(U256::ONE),
        n(),
        n().wrapping_add(U256::ONE),
        U256::MAX,
        U256([0x0000_0001_ffff_ffff; 4]),
        U256([0xffff_ffff_0000_0001; 4]),
    ];
    for t in 1..8 {
        let tooth = U256::ONE.shl_bits(32 * t);
        edges.extend([
            tooth.wrapping_sub(U256::ONE),
            tooth,
            tooth.wrapping_add(U256::ONE),
            U256::from_u64(127).shl_bits(32 * t),
        ]);
    }
    edges
}

/// Products whose first fold leaves a fifth word `c` with the low 256
/// bits at or above `2^256 − c·(2^32 + 977)`, so the second fold carries
/// out once more: `a·2^255` with `a = 2·⌊(3·2^255 − 1)/(2^32 + 977)⌋ + 1`.
/// (Random operands reach that window with probability ~2^−189.)
fn double_carry_pair() -> (U256, U256) {
    let a = U256::from_hex_str("2fffff48d002bb1e2593e1f2969eb12f2c5dcaf7ae0c64c0c2b37c58f")
        .expect("hex");
    (a, U256::ONE.shl_bits(255))
}

fn check_field(rng: &mut Rng) {
    let (a, b) = double_carry_pair();
    assert_eq!(fe::mul(a, b), reference::mul_mod(a, b, p()), "double carry");
    let mut values = field_edges();
    values.push(rng.below(p()));
    values.push(rng.below(p()));
    let b = rng.below(p());
    for a in values {
        assert_eq!(
            fe::mul(a, b),
            reference::mul_mod(a, b, p()),
            "mul {a:x} {b:x}"
        );
        assert_eq!(fe::mul(b, a), fe::mul(a, b), "mul commutes at {a:x}");
        assert_eq!(fe::sq(a), reference::mul_mod(a, a, p()), "sq {a:x}");
        assert_eq!(fe::add(a, b), reference::add_mod(a, b, p()));
        assert_eq!(fe::sub(a, b), reference::sub_mod(a, b, p()));
        assert_eq!(fe::sqrt(a), reference::sqrt(a), "sqrt {a:x}");
    }
}

/// Inputs where an inverter's carries and limb splits turn over:
/// `2^k` and `m − 2^k` for every `step`-th k in 0..256, the signed-62
/// limb boundaries `2^(62j) − 1`, `2^(62j)` and `2^(62j) + 1` for
/// j = 1..4, and the unreduced `m`, `m + 1` and `2^256 − 1`.
fn inverse_edges(m: U256, step: usize) -> Vec<U256> {
    let mut edges: Vec<U256> = (0..256u32)
        .step_by(step)
        .flat_map(|k| {
            let bit = U256::ONE.shl_bits(k);
            [bit, m.wrapping_sub(bit)]
        })
        .collect();
    for j in 1..5 {
        let limb = U256::ONE.shl_bits(62 * j);
        edges.extend([
            limb.wrapping_sub(U256::ONE),
            limb,
            limb.wrapping_add(U256::ONE),
        ]);
    }
    edges.extend([m, m.wrapping_add(U256::ONE), U256::MAX]);
    edges
}

/// `inv_mod(a, m)` equals Fermat on `a` reduced once, and multiplies
/// back to 1 unless `a ≡ 0`.
fn check_inverse(a: U256, m: U256) {
    let reduced = if a >= m { a.wrapping_sub(m) } else { a };
    let inv = inv_mod(a, m);
    assert_eq!(inv, reference::inv(reduced, m), "inv {a:x} mod {m:x}");
    if !reduced.is_zero() {
        assert_eq!(
            reference::mul_mod(reduced, inv, m),
            U256::ONE,
            "{a:x} · inv mod {m:x}"
        );
    }
}

fn check_inverses(rng: &mut Rng) {
    for m in [p(), n()] {
        let mut values = field_edges();
        values.push(m.wrapping_sub(U256::ONE));
        values.push(rng.below(m));
        values.push(rng.below(m));
        for a in values {
            check_inverse(a, m);
        }
    }
    let a = rng.below(p());
    assert_eq!(fe::inv(a), reference::inv(a, p()));
    let k = rng.below(n());
    assert_eq!(scalar::inv(k), reference::inv(k, n()));
}

/// Scalars at the split of a fixed-base scalar beside a variable point,
/// recoded as `lo + hi·2^128` over teeth 0 and 4: each half alone, the
/// last value below the split and the first at it, and n − 1.
fn split_edges(rng: &mut Rng) -> Vec<U256> {
    let split = U256::ONE.shl_bits(128);
    vec![
        U256([0, 0, rng.next(), rng.next() >> 1]), // low half 0
        U256([rng.next(), rng.next(), 0, 0]),      // high half 0
        split.wrapping_sub(U256::ONE),
        split,
        split.wrapping_add(U256::ONE),
        U256([0, 0, u64::MAX, u64::MAX]), // 2^256 − 2^128
        n().wrapping_sub(U256::ONE),
    ]
}

/// Scalars at the edges of a variable point's split `k ≡ k1 + k2·λ`:
/// λ (the cube root of unity mod n) and its neighbours, n − λ, and
/// unreduced values at or above n whose reduction is below 2^128, so
/// they must be recoded whole (a width test made before the reduction
/// would split them).
fn lambda_edges() -> Vec<U256> {
    let l = U256::from_hex_str("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72")
        .expect("hex");
    vec![
        l,
        l.wrapping_add(U256::ONE),
        l.wrapping_sub(U256::ONE),
        n().wrapping_sub(l),
        n().wrapping_add(U256::from_u64(5)),
        n().wrapping_add(U256::ONE.shl_bits(128).wrapping_sub(U256::ONE)),
    ]
}

/// A curve point with a known discrete log `d`, on both sides.
fn known_point(rng: &mut Rng) -> (Pt, Point) {
    let d = rng.below(n()).max(U256::ONE);
    let ref_p = Pt::generator().mul(d);
    let (x, y) = ref_p.to_affine().expect("d < n");
    (ref_p, Point::from_affine(Affine { x, y }))
}

/// Two variable terms in one pass, the shape of range verification: a
/// full-width scalar (split along λ) beside a scalar below 2^128
/// (recoded whole), with and without a fixed base, and a pair that
/// cancels to infinity.
fn check_mixed_width_terms(rng: &mut Rng) {
    let (ref_p, pt) = known_point(rng);
    let (ref_q, qt) = known_point(rng);
    let mut fulls = lambda_edges();
    fulls.extend([n().wrapping_sub(U256::ONE), rng.below(n()), rng.u256()]);
    // Odd, so nonzero and invertible.
    let short = U256::from_u128(rng.next() as u128 | (rng.next() as u128) << 64 | 1);
    let g_k = rng.below(n());
    for k in fulls {
        let expected = ref_p.mul(k).add(ref_q.mul(short));
        assert_eq!(
            affine_of(&lincomb(&[], &[(pt, k), (qt, short)])),
            expected.to_affine(),
            "k·P + w·Q, k = {k:x}, w = {short:x}"
        );
        assert_eq!(
            affine_of(&lincomb(
                &[(BaseTable::generator(), g_k)],
                &[(qt, short), (pt, k)]
            )),
            expected.add(Pt::generator().mul(g_k)).to_affine(),
            "g·G + w·Q + k·P, k = {k:x}, w = {short:x}"
        );
        // w·Q' with Q' = −(k / w)·P cancels k·P exactly.
        let k_over_w = reference::mul_mod(k, reference::inv(short, n()), n());
        let c = reference::sub_mod(U256::ZERO, k_over_w, n());
        let Some((x, y)) = ref_p.mul(c).to_affine() else {
            continue; // k ≡ 0: nothing to cancel
        };
        let cancel = Point::from_affine(Affine { x, y });
        assert!(
            lincomb(&[], &[(pt, k), (cancel, short)]).is_infinity(),
            "k·P − k·P, k = {k:x}"
        );
    }
}

fn check_scalar_mul(rng: &mut Rng) {
    // A variable point with a known discrete log, so both sides start
    // from the same group element.
    let (ref_p, pt) = known_point(rng);
    let p_table = BaseTable::new(Affine { x: pt.x, y: pt.y });
    let mut scalars = scalar_edges();
    scalars.extend(split_edges(rng));
    scalars.extend(lambda_edges());
    scalars.push(rng.below(n()));
    scalars.push(rng.u256());
    let b = rng.below(n());
    let (gb, pb) = (Pt::generator().mul(b), ref_p.mul(b));
    let g = BaseTable::generator();
    for &a in &scalars {
        let (ga, pa) = (Pt::generator().mul(a), ref_p.mul(a));
        // Commit-shaped: two fixed bases, no variable point, so both
        // scalars run as eight 32-bit pieces over ≤ 33 doublings.
        assert_eq!(
            affine_of(&lincomb(&[(g, a), (&p_table, b)], &[])),
            ga.add(pb).to_affine(),
            "a·G + b·P over two tables, a = {a:x}"
        );
        assert_eq!(
            affine_of(&lincomb(&[(g, b), (&p_table, a)], &[])),
            gb.add(pa).to_affine(),
            "b·G + a·P over two tables, a = {a:x}"
        );
        assert_eq!(
            affine_of(&pt.mul_scalar(a)),
            pa.to_affine(),
            "k·P, k = {a:x}"
        );
        assert_eq!(
            affine_of(&Point::mul_g(a)),
            ga.to_affine(),
            "k·G, k = {a:x}"
        );
        assert_eq!(
            affine_of(&Point::mul_add_g(a, b, &pt)),
            ga.add(pb).to_affine(),
            "a·G + b·P, a = {a:x}"
        );
        // An infinite variable term adds nothing, but it turns the pass
        // mixed: `a` is recoded as two halves instead of eight pieces.
        assert_eq!(
            affine_of(&lincomb(&[(g, a)], &[(Point::INFINITY, rng.u256())])),
            affine_of(&lincomb(&[(g, a)], &[])),
            "halves against pieces, a = {a:x}"
        );
    }
    // Two tables of G in a fixed-only pass. `c = 2^(32(t+1)) − 2^(32t)`
    // is piece t = 0xffffffff, recoded as −1 at bit 0 and a carry digit
    // 1 at bit 32 over tooth t; 32 doublings later, in the last
    // iteration, that carry has grown to `2^32·2^(32t)·G`, exactly the
    // point the first digit of `d = 2^(32(t+1))` adds over tooth t + 1,
    // so the mixed addition meets its own operand and must double.
    let g2 = BaseTable::new(Point::generator().to_affine().expect("finite"));
    for t in 0..7 {
        let d = U256::ONE.shl_bits(32 * (t + 1));
        let c = d.wrapping_sub(U256::ONE.shl_bits(32 * t));
        assert_eq!(
            affine_of(&lincomb(&[(&g2, d), (g, c)], &[])),
            Pt::generator().mul(c.wrapping_add(d)).to_affine(),
            "carry out of tooth {t} meets tooth {}",
            t + 1
        );
    }
    // a = n − b: the two halves cancel, the pass must end at infinity.
    let b = rng.below(n()).max(U256::ONE);
    let a = n().wrapping_sub(b);
    assert!(Point::mul_add_g(a, b, &Point::generator()).is_infinity());
    // P = G: the generator's table and the variable table hold the same
    // points, so an add can meet its own operand and must double — or
    // its negation and must vanish. With `b = n + d` (even, so no digit
    // at bit 0) the accumulator reaches bit 0 holding `d·G`, exactly the
    // point the fixed digit `d` of `a = d` adds in mixed form; `b = n − 1`
    // leaves it holding `−G` there.
    let n_plus = |d: u64| n().wrapping_add(U256::from_u64(d));
    let cases = [
        (b, b),
        (U256::ONE, U256::ONE),
        (rng.below(n()), b),
        (U256::ONE, n_plus(1)),
        (U256::from_u64(3), n_plus(3)),
        (U256::from_u64(127), n_plus(127)),
        (U256::ONE, n().wrapping_sub(U256::ONE)),
    ];
    for (a, b) in cases {
        let expected = Pt::generator()
            .mul(a)
            .add(Pt::generator().mul(b))
            .to_affine();
        assert_eq!(
            affine_of(&Point::mul_add_g(a, b, &Point::generator())),
            expected,
            "a·G + b·G, a = {a:x}, b = {b:x}"
        );
    }
    // P = infinity contributes nothing.
    assert_eq!(
        affine_of(&Point::mul_add_g(b, rng.u256(), &Point::INFINITY)),
        Pt::generator().mul(b).to_affine()
    );
    assert!(Point::INFINITY.mul_scalar(rng.u256()).is_infinity());
}

fn check_recovery(rng: &mut Rng) {
    let key = PrivateKey::from_u256(rng.below(n()).max(U256::ONE)).unwrap();
    let digest = H256::from_u256(rng.u256());
    let sig = key.sign(digest);
    let expected = reference::recover(digest.0, sig.v, sig.r.to_u256(), sig.s.to_u256());
    assert_eq!(expected, Some((key.public_key().0.x, key.public_key().0.y)));
    let got = recover_pubkey(digest, &sig).map(|k| (k.0.x, k.0.y)).ok();
    assert_eq!(got, expected, "recover, digest {digest}");
    assert!(key.public_key().verify(digest, &sig));

    // An arbitrary (v, r, s) under another digest: whatever the
    // reference answers — a key, or a refusal — the product answers too.
    let forged = Signature {
        v: 27 + (rng.next() % 2) as u8,
        r: H256::from_u256(rng.below(n())),
        s: H256::from_u256(rng.below(n())),
    };
    let other = H256::from_u256(rng.u256());
    let expected = reference::recover(other.0, forged.v, forged.r.to_u256(), forged.s.to_u256());
    let got = recover_pubkey(other, &forged).map(|k| (k.0.x, k.0.y)).ok();
    assert_eq!(got, expected, "recover of forged {forged:?}");

    // A digest that puts Q at infinity: with R = k·G, z = s·k makes
    // s·R − z·G vanish.
    let k = rng.below(n()).max(U256::ONE);
    let nonce = Point::mul_g(k).to_affine().unwrap();
    if nonce.x < n() {
        let s = rng.below(n()).max(U256::ONE);
        let sig = Signature {
            v: 27 + nonce.y.bit(0) as u8,
            r: H256::from_u256(nonce.x),
            s: H256::from_u256(s),
        };
        let z = H256::from_u256(scalar::mul(s, k));
        assert_eq!(
            reference::recover(z.0, sig.v, nonce.x, s),
            None,
            "the reference agrees Q is infinity"
        );
        assert_eq!(recover_pubkey(z, &sig), Err(EcdsaError::RecoveryFailed));
    }
}

/// The first `x ≥ start` that is not the x coordinate of a curve point.
fn no_lift_from(start: u64) -> U256 {
    (start..)
        .map(U256::from_u64)
        .find(|&x| Affine::lift_x(x, false).is_none())
        .expect("half of all x have no lift")
}

#[test]
fn field_mul_sq_and_sqrt_match_the_generic_fold() {
    let mut rng = Rng(1);
    for _ in 0..8 {
        check_field(&mut rng);
    }
}

#[test]
fn inv_mod_matches_fermat_in_both_fields() {
    let mut rng = Rng(2);
    for _ in 0..4 {
        check_inverses(&mut rng);
    }
}

#[test]
fn inv_mod_matches_fermat_at_power_and_limb_edges() {
    for m in [p(), n()] {
        for a in inverse_edges(m, 8) {
            check_inverse(a, m);
        }
    }
}

#[test]
fn scalar_muls_match_double_and_add() {
    let mut rng = Rng(3);
    check_scalar_mul(&mut rng);
}

#[test]
fn mixed_width_variable_terms_match_double_and_add() {
    let mut rng = Rng(5);
    check_mixed_width_terms(&mut rng);
}

#[test]
fn recovery_matches_the_three_mul_formula() {
    let mut rng = Rng(4);
    for _ in 0..3 {
        check_recovery(&mut rng);
    }
    // An r whose x has no curve point fails recovery on both sides.
    let r = no_lift_from(5);
    let sig = Signature {
        v: 27,
        r: H256::from_u256(r),
        s: H256::from_u256(U256::ONE),
    };
    let digest = keccak256(b"no lift");
    assert_eq!(reference::recover(digest.0, 27, r, U256::ONE), None);
    assert_eq!(
        recover_pubkey(digest, &sig),
        Err(EcdsaError::RecoveryFailed)
    );
}

#[test]
fn ecrecover_precompile_matches_the_reference_on_malformed_inputs() {
    let key = PrivateKey::from_seed("alice");
    let digest = keccak256(b"the bytecode");
    let sig = key.sign(digest);
    let word = |v: U256| v.to_be_bytes();
    let input = |h: H256, v: [u8; 32], r: [u8; 32], s: [u8; 32]| [h.0, v, r, s].concat();
    let v27 = word(U256::from_u64(sig.v as u64));
    let (r, s) = (sig.r.0, sig.s.0);
    let mut high_v = v27;
    high_v[0] = 1; // v ≡ 27 in the low byte only
    let mut corpus: Vec<Vec<u8>> = vec![
        Vec::new(),                                               // all zeros once padded
        input(digest, v27, r, s),                                 // the valid signature
        input(digest, v27, r, s)[..100].to_vec(),                 // truncated: s padded with zeros
        [input(digest, v27, r, s), vec![0xab; 57]].concat(),      // oversized: tail ignored
        input(digest, word(U256::from_u64(29)), r, s),            // v out of range
        input(digest, high_v, r, s),                              // v not a small word
        input(digest, v27, [0; 32], s),                           // r = 0
        input(digest, v27, r, [0; 32]),                           // s = 0
        input(digest, v27, word(n()), s),                         // r = n
        input(digest, v27, r, word(n())),                         // s = n
        input(digest, v27, word(p()), s),                         // r ≥ n and ≥ p
        input(digest, v27, word(no_lift_from(5)), s),             // r with no curve point
        input(digest, v27, r, word(n().wrapping_sub(U256::ONE))), // high s
    ];
    let mut flipped = input(digest, v27, r, s);
    flipped[63] ^= 1; // the other parity: another key or none
    corpus.push(flipped);

    let ecrecover = {
        let mut a = [0u8; 20];
        a[19] = 1;
        Address(a)
    };
    for (i, bytes) in corpus.iter().enumerate() {
        let mut padded = [0u8; 128];
        let take = bytes.len().min(128);
        padded[..take].copy_from_slice(&bytes[..take]);
        let v_word = U256::from_be_slice(&padded[32..64]);
        let expected = match v_word.to_u64() {
            Some(v @ 27..=28) => reference::recover(
                padded[..32].try_into().unwrap(),
                v as u8,
                U256::from_be_slice(&padded[64..96]),
                U256::from_be_slice(&padded[96..128]),
            ),
            _ => None,
        };
        let expected = expected.map_or_else(Vec::new, |(x, y)| {
            let mut xy = [0u8; 64];
            xy[..32].copy_from_slice(&x.to_be_bytes());
            xy[32..].copy_from_slice(&y.to_be_bytes());
            let mut out = vec![0u8; 32];
            out[12..].copy_from_slice(&keccak256(&xy).0[12..]);
            out
        });
        let got = sc_evm::precompile::run(ecrecover, bytes, 100_000).expect("enough gas");
        assert_eq!(got.output, expected, "corpus entry {i}");
        assert_eq!(got.gas_cost, 3_000);
    }
    // The valid entry recovers the signer.
    let got = sc_evm::precompile::run(ecrecover, &corpus[1], 100_000).unwrap();
    assert_eq!(&got.output[12..], key.address().as_bytes());
}

#[test]
fn pow_edge_cases() {
    let p = p();
    assert_eq!(
        reference::pow_mod(U256::from_u64(5), U256::ZERO, p),
        U256::ONE
    );
    assert_eq!(
        reference::pow_mod(U256::from_u64(5), U256::ONE, p),
        U256::from_u64(5)
    );
    // Fermat's little theorem: a^(p-1) == 1
    assert_eq!(
        reference::pow_mod(U256::from_u64(123456789), p.wrapping_sub(U256::ONE), p),
        U256::ONE
    );
}

/// The release sweep: every inverse edge, then every property above,
/// 2,000 cases each.
#[test]
#[ignore = "2,000 cases per property; run in release"]
fn sweep_2000_cases() {
    for m in [p(), n()] {
        for a in inverse_edges(m, 1) {
            check_inverse(a, m);
        }
    }
    let mut rng = Rng(0x5ec0_0001);
    for _ in 0..2_000 {
        check_field(&mut rng);
        check_inverses(&mut rng);
        check_scalar_mul(&mut rng);
        check_mixed_width_terms(&mut rng);
        check_recovery(&mut rng);
    }
}
