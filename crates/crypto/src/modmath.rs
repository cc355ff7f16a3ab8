//! Arithmetic modulo large primes close to 2^256.
//!
//! Shared by the secp256k1 base field `p` and scalar field `n`. The
//! generic reduction exploits that both moduli satisfy `m > 2^255`, so
//! `2^256 ≡ (2^256 - m) (mod m)` with `2^256 - m` small (≤ 129 bits),
//! letting a 512-bit product fold down in a couple of iterations. (The
//! base field has its own one-word fold in [`crate::secp256k1::fe`].)
//! Both fields invert with [`inv_mod`], Bernstein–Yang divsteps ("Fast
//! constant-time gcd computation and modular inversion", TCHES 2019)
//! in the variable-time, signed 62-bit limb form of libsecp256k1's
//! `modinv64`.

use sc_primitives::U256;

/// `(a + b) mod m`, assuming `a, b < m`.
#[inline]
pub fn add_mod(a: U256, b: U256, m: U256) -> U256 {
    let (sum, carry) = a.overflowing_add(b);
    if carry || sum >= m {
        sum.wrapping_sub(m)
    } else {
        sum
    }
}

/// `(a - b) mod m`, assuming `a, b < m`.
#[inline]
pub fn sub_mod(a: U256, b: U256, m: U256) -> U256 {
    let (diff, borrow) = a.overflowing_sub(b);
    if borrow {
        diff.wrapping_add(m)
    } else {
        diff
    }
}

/// `(a * b) mod m`, assuming `a, b < m` and `m > 2^255`.
///
/// `r` must equal `2^256 mod m` (i.e. `2^256 - m` since `m > 2^255`).
pub fn mul_mod(a: U256, b: U256, m: U256, r: U256) -> U256 {
    let (mut lo, mut hi) = a.full_mul(b);
    // Fold the high word: hi·2^256 + lo ≡ hi·r + lo (mod m).
    while !hi.is_zero() {
        let (l2, h2) = hi.full_mul(r);
        let (sum, carry) = lo.overflowing_add(l2);
        lo = sum;
        // A carry out of the low word is another 2^256 ≡ r.
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

/// Modular inverse of `a` for an odd prime `m > 2^255` (only ever
/// `p` or `n`), by Bernstein–Yang divsteps. Any 256-bit `a` is
/// accepted (it is reduced once first); returns zero when `a ≡ 0`
/// (callers must treat that as "no inverse").
///
/// The layout is libsecp256k1's `secp256k1_modinv64_var`: `f = m`,
/// `g = a`, `d = 0`, `e = 1` in five signed 62-bit limbs, with
/// `d·a ≡ f` and `e·a ≡ g (mod m)` throughout. Each round works out 62
/// divsteps on the low limbs of `f` and `g` alone (`divsteps_62_var`),
/// then applies them to all four numbers as one matrix (`update_de`,
/// `apply_matrix`). Once `g = 0`, `f = ±gcd = ±1` and `±d` is the
/// inverse. `m⁻¹ mod 2^62`, which keeps `d` and `e` exact under the
/// matrix's division by 2^62, is derived per call.
///
/// Variable-time: the number and kind of steps depend on `a`.
pub fn inv_mod(a: U256, m: U256) -> U256 {
    let a = if a >= m { a.wrapping_sub(m) } else { a };
    if a.is_zero() {
        return U256::ZERO;
    }
    let modulus = to_signed62(m);
    let m_inv62 = inv_2_62(m.low_u64());
    let (mut d, mut e): (Signed62, Signed62) = ([0; 5], [1, 0, 0, 0, 0]);
    let (mut f, mut g) = (modulus, to_signed62(a));
    // η = −δ of the divstep; δ starts at 1.
    let mut eta = -1;
    while g != [0; 5] {
        let t;
        (eta, t) = divsteps_62_var(eta, f[0] as u64, g[0] as u64);
        update_de(&mut d, &mut e, &t, &modulus, m_inv62);
        apply_matrix(&mut f, &mut g, &t, &modulus, 0, 0);
    }
    normalize_62(&mut d, f[4], &modulus);
    let inv = from_signed62(d);
    debug_assert!(inv < m, "the inverse is reduced");
    inv
}

/// `Σ v[i]·2^(62i)`, least significant limb first. Between steps a
/// limb may be negative; the top one carries the sign.
type Signed62 = [i64; 5];

/// The low 62 bits.
const M62: u64 = u64::MAX >> 2;

/// 62 divsteps as one matrix scaled by 2^62: they take `(f, g)` to
/// `(u·f + v·g, q·f + r·g) / 2^62`.
struct Trans {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

fn to_signed62(a: U256) -> Signed62 {
    let l = a.0;
    [
        (l[0] & M62) as i64,
        ((l[0] >> 62 | l[1] << 2) & M62) as i64,
        ((l[1] >> 60 | l[2] << 4) & M62) as i64,
        ((l[2] >> 58 | l[3] << 6) & M62) as i64,
        (l[3] >> 56) as i64,
    ]
}

/// The inverse of [`to_signed62`] for limbs already normalized: the
/// low four in `[0, 2^62)`, the top one below 2^8.
fn from_signed62(v: Signed62) -> U256 {
    debug_assert!(v[..4].iter().all(|&x| x as u64 <= M62) && (0..256).contains(&v[4]));
    let l = v.map(|x| x as u64);
    U256([
        l[0] | l[1] << 62,
        l[1] >> 2 | l[2] << 60,
        l[2] >> 4 | l[3] << 58,
        l[3] >> 6 | l[4] << 56,
    ])
}

/// `m⁻¹ mod 2^62` for odd `m` (only its low word matters). `3m ⊕ 2` is
/// right in the low 5 bits, and each Newton step `x·(2 − m·x)` doubles
/// that, so four reach 80.
fn inv_2_62(m: u64) -> u64 {
    let mut x = m.wrapping_mul(3) ^ 2;
    for _ in 0..4 {
        x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
    }
    x & M62
}

/// 62 divsteps on the low 64 bits of `f` (odd) and `g`, from `eta`;
/// returns the new `eta` and the steps' matrix. A run of zero bits in
/// `g` is a run of halvings done at once; otherwise, after a swap when
/// `eta < 0`, the multiple of `f` that clears up to 6 (or 4) low bits
/// of `g` is added in one go. `f`, `g` and the matrix entries are kept
/// mod 2^64, so their operations wrap.
fn divsteps_62_var(mut eta: i64, f0: u64, g0: u64) -> (i64, Trans) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut i = 62;
    loop {
        // A sentinel bit at i counts the zeros only up to the steps left.
        let zeros = (g | u64::MAX << i).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        i -= zeros;
        if i == 0 {
            break;
        }
        debug_assert!(f & 1 == 1 && g & 1 == 1);
        let (w, mask);
        if eta < 0 {
            // Swap: (f, g) becomes (g, −f).
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            // No more than i bits are left, and no more than eta + 1
            // before eta's sign flips again. f·(f² − 2) ≡ −f⁻¹ (mod 64).
            let limit = (eta + 1).min(i64::from(i)) as u32;
            mask = (u64::MAX >> (64 - limit)) & 63;
            w = f
                .wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask;
        } else {
            // f + (((f + 1) & 4) << 1) ≡ f⁻¹ (mod 16).
            let limit = (eta + 1).min(i64::from(i)) as u32;
            mask = (u64::MAX >> (64 - limit)) & 15;
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            w = f_inv.wrapping_neg().wrapping_mul(g) & mask;
        }
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
        debug_assert_eq!(g & mask, 0, "the multiple of f clears g's low bits");
    }
    let t = Trans {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    debug_assert_eq!(
        (i128::from(t.u) * i128::from(t.r) - i128::from(t.v) * i128::from(t.q)).abs(),
        1 << 62,
        "62 divsteps scale the determinant by 2^62"
    );
    (eta, t)
}

/// `(d, e) ← (t·(d, e) + m·(md, me)) / 2^62`, with `md` and `me` chosen
/// so the division is exact: the matrix applied mod m. `d` and `e` stay
/// in `(−2m, m)`.
fn update_de(d: &mut Signed62, e: &mut Signed62, t: &Trans, m: &Signed62, m_inv62: u64) {
    // Start md, me at [u, q] if d is negative plus [v, r] if e is, which
    // keeps the results above −2m, then cancel the low 62 bits.
    let (sd, se) = (d[4] >> 63, e[4] >> 63);
    let mut md = (t.u & sd) + (t.v & se);
    let mut me = (t.q & sd) + (t.r & se);
    let low = |a: i64, b: i64| {
        (a as u64)
            .wrapping_mul(d[0] as u64)
            .wrapping_add((b as u64).wrapping_mul(e[0] as u64))
    };
    md -= (m_inv62.wrapping_mul(low(t.u, t.v)).wrapping_add(md as u64) & M62) as i64;
    me -= (m_inv62.wrapping_mul(low(t.q, t.r)).wrapping_add(me as u64) & M62) as i64;
    apply_matrix(d, e, t, m, md, me);
}

/// `(x, y) ← (t·(x, y) + m·(mx, my)) / 2^62`, whose low 62 bits must be
/// zero. With `mx = my = 0` this is the update of `f` and `g`, exact
/// because the divsteps cleared those bits.
fn apply_matrix(x: &mut Signed62, y: &mut Signed62, t: &Trans, m: &Signed62, mx: i64, my: i64) {
    let (u, v, q, r) = (
        i128::from(t.u),
        i128::from(t.v),
        i128::from(t.q),
        i128::from(t.r),
    );
    let (mx, my) = (i128::from(mx), i128::from(my));
    let mut cx = u * i128::from(x[0]) + v * i128::from(y[0]) + i128::from(m[0]) * mx;
    let mut cy = q * i128::from(x[0]) + r * i128::from(y[0]) + i128::from(m[0]) * my;
    debug_assert!(
        cx as u64 & M62 == 0 && cy as u64 & M62 == 0,
        "the 62 bits dropped are zero"
    );
    cx >>= 62;
    cy >>= 62;
    for k in 1..5 {
        cx += u * i128::from(x[k]) + v * i128::from(y[k]) + i128::from(m[k]) * mx;
        cy += q * i128::from(x[k]) + r * i128::from(y[k]) + i128::from(m[k]) * my;
        x[k - 1] = (cx as u64 & M62) as i64;
        y[k - 1] = (cy as u64 & M62) as i64;
        cx >>= 62;
        cy >>= 62;
    }
    x[4] = cx as i64;
    y[4] = cy as i64;
}

/// Takes `x` in `(−2m, m)` to `x·sign(s) mod m` in `[0, m)` with every
/// limb in `[0, 2^62)`.
fn normalize_62(x: &mut Signed62, s: i64, m: &Signed62) {
    // Add m if x is negative, then negate if s is: now in (−m, m).
    let add = x[4] >> 63;
    let neg = s >> 63;
    for k in 0..5 {
        x[k] = ((x[k] + (m[k] & add)) ^ neg) - neg;
    }
    propagate_62(x);
    // Add m once more if still negative: now in [0, m).
    let add = x[4] >> 63;
    for k in 0..5 {
        x[k] += m[k] & add;
    }
    propagate_62(x);
}

/// Carries every limb's bits above 62 into the next.
fn propagate_62(x: &mut Signed62) {
    for k in 0..4 {
        x[k + 1] += x[k] >> 62;
        x[k] &= M62 as i64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // secp256k1 base field prime, convenient as a realistic modulus.
    fn p() -> U256 {
        U256::from_hex_str("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap()
    }

    fn r() -> U256 {
        // 2^256 - p = 2^32 + 977
        U256::from_u64((1 << 32) + 977)
    }

    // secp256k1 group order.
    fn n() -> U256 {
        U256::from_hex_str("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
            .unwrap()
    }

    #[test]
    fn add_wraps_modulus() {
        let a = p().wrapping_sub(U256::ONE);
        assert_eq!(add_mod(a, U256::ONE, p()), U256::ZERO);
        assert_eq!(add_mod(a, U256::from_u64(5), p()), U256::from_u64(4));
    }

    #[test]
    fn sub_borrows_modulus() {
        assert_eq!(
            sub_mod(U256::ZERO, U256::ONE, p()),
            p().wrapping_sub(U256::ONE)
        );
    }

    #[test]
    fn mul_small_values() {
        assert_eq!(
            mul_mod(U256::from_u64(1 << 40), U256::from_u64(1 << 40), p(), r()),
            U256::from_u64(1).shl_bits(80)
        );
    }

    #[test]
    fn mul_large_values_reduce() {
        // (p-1)^2 mod p == 1
        let a = p().wrapping_sub(U256::ONE);
        assert_eq!(mul_mod(a, a, p(), r()), U256::ONE);
    }

    #[test]
    fn inverse_of_small_values_multiplies_back_to_one() {
        for v in [2u64, 3, 977, 0xdeadbeef] {
            let a = U256::from_u64(v);
            let inv = inv_mod(a, p());
            assert_eq!(mul_mod(a, inv, p(), r()), U256::ONE);
        }
        assert_eq!(inv_mod(U256::ZERO, p()), U256::ZERO);
    }

    #[test]
    fn inverse_of_the_modulus_and_its_neighbours() {
        let m = p();
        assert_eq!(inv_mod(m, m), U256::ZERO, "m ≡ 0 has no inverse");
        assert_eq!(inv_mod(U256::ONE, m), U256::ONE);
        let minus_one = m.wrapping_sub(U256::ONE);
        assert_eq!(inv_mod(minus_one, m), minus_one);
        // 2^256 − 1 ≡ 2^32 + 976: reduced once, then inverted.
        let inv = inv_mod(U256::MAX, m);
        assert_eq!(
            mul_mod(U256::from_u64((1 << 32) + 976), inv, m, r()),
            U256::ONE
        );
    }

    #[test]
    fn signed62_round_trips_at_every_limb_boundary() {
        let mut values = vec![U256::ZERO, U256::ONE, U256::MAX, p(), n()];
        for j in 1..5 {
            let limb = U256::ONE.shl_bits(62 * j);
            values.extend([
                limb.wrapping_sub(U256::ONE),
                limb,
                limb.wrapping_add(U256::ONE),
            ]);
            let mut alone = [0; 5];
            alone[j as usize] = 1;
            assert_eq!(to_signed62(limb), alone, "2^(62·{j}) is limb {j} alone");
        }
        for x in values {
            let v = to_signed62(x);
            assert!(v.iter().all(|&l| (0..=M62 as i64).contains(&l)), "{x:x}");
            assert_eq!(from_signed62(v), x, "{x:x}");
        }
    }

    #[test]
    fn modulus_times_its_inverse_is_one_mod_2_62() {
        for m in [p().low_u64(), n().low_u64(), 1, 3, u64::MAX, 1 << 63 | 1] {
            assert_eq!(m.wrapping_mul(inv_2_62(m)) & M62, 1, "{m:x}");
        }
    }
}
