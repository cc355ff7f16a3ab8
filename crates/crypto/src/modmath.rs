//! Arithmetic modulo large primes close to 2^256.
//!
//! Shared by the secp256k1 base field `p` and scalar field `n`. The
//! generic reduction exploits that both moduli satisfy `m > 2^255`, so
//! `2^256 ≡ (2^256 - m) (mod m)` with `2^256 - m` small (≤ 129 bits),
//! letting a 512-bit product fold down in a couple of iterations. (The
//! base field has its own one-word fold in [`crate::secp256k1::fe`].)

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

/// Modular inverse of `a` for an odd prime `m > 2^255`, by the binary
/// extended Euclidean algorithm. Any 256-bit `a` is accepted (it is
/// reduced once first); returns zero when `a ≡ 0` (callers must treat
/// that as "no inverse").
///
/// Variable-time: the number and kind of steps depend on `a`.
pub fn inv_mod(a: U256, m: U256) -> U256 {
    let a = if a >= m { a.wrapping_sub(m) } else { a };
    if a.is_zero() {
        return U256::ZERO;
    }
    // Invariants: x1·a ≡ u and x2·a ≡ v (mod m); gcd(u, v) = 1.
    let (mut u, mut v) = (a, m);
    let (mut x1, mut x2) = (U256::ONE, U256::ZERO);
    while u != U256::ONE && v != U256::ONE {
        while !u.bit(0) {
            u = shr1(u, false);
            x1 = half_mod(x1, m);
        }
        while !v.bit(0) {
            v = shr1(v, false);
            x2 = half_mod(x2, m);
        }
        if u >= v {
            u = u.wrapping_sub(v);
            x1 = sub_mod(x1, x2, m);
        } else {
            v = v.wrapping_sub(u);
            x2 = sub_mod(x2, x1, m);
        }
    }
    if u == U256::ONE {
        x1
    } else {
        x2
    }
}

/// `x / 2 mod m` for odd `m` and `x < m`: an odd `x` becomes the even
/// `x + m` first, whose 257th bit comes back in at the top.
#[inline]
fn half_mod(x: U256, m: U256) -> U256 {
    if x.bit(0) {
        let (sum, carry) = x.overflowing_add(m);
        shr1(sum, carry)
    } else {
        shr1(x, false)
    }
}

/// `x >> 1` with `top` shifted in as bit 255.
#[inline]
fn shr1(x: U256, top: bool) -> U256 {
    let l = x.0;
    U256([
        (l[0] >> 1) | (l[1] << 63),
        (l[1] >> 1) | (l[2] << 63),
        (l[2] >> 1) | (l[3] << 63),
        (l[3] >> 1) | ((top as u64) << 63),
    ])
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
    fn fermat_inverse() {
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
}
