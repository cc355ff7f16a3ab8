//! Fixed-width 256-bit unsigned integer with EVM semantics.
//!
//! All arithmetic wraps modulo 2^256, matching the EVM's word semantics.
//! Signed operations (`sdiv`, `smod`, `slt`, …) interpret the word as
//! two's-complement, again matching the EVM.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Not, Rem, Shl, Shr, Sub};

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
///
/// `limbs[0]` is the least-significant limb.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

/// Error returned when parsing a [`U256`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseU256Error {
    /// The input was empty.
    Empty,
    /// The input contained a character invalid for the radix.
    InvalidDigit(char),
    /// The value does not fit in 256 bits.
    Overflow,
}

impl fmt::Display for ParseU256Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseU256Error::Empty => write!(f, "empty string"),
            ParseU256Error::InvalidDigit(c) => write!(f, "invalid digit {c:?}"),
            ParseU256Error::Overflow => write!(f, "value does not fit in 256 bits"),
        }
    }
}

impl std::error::Error for ParseU256Error {}

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value `1`.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Constructs from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Constructs from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Returns the low 64 bits, discarding the rest.
    #[inline]
    pub const fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Returns the low 128 bits, discarding the rest.
    #[inline]
    pub const fn low_u128(&self) -> u128 {
        (self.0[0] as u128) | ((self.0[1] as u128) << 64)
    }

    /// Returns `Some(u64)` if the value fits in 64 bits.
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        if self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0 {
            Some(self.0[0])
        } else {
            None
        }
    }

    /// Returns `Some(usize)` if the value fits in a `usize`.
    #[inline]
    pub fn to_usize(&self) -> Option<usize> {
        self.to_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// True iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Value of bit `i` (little-endian bit order); bits ≥ 256 read as 0.
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Wrapping addition; also returns the carry-out.
    #[inline]
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
        }
        (U256(out), carry)
    }

    /// Wrapping subtraction; also returns the borrow-out.
    #[inline]
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
        }
        (U256(out), borrow)
    }

    /// Wrapping addition modulo 2^256.
    #[inline]
    pub fn wrapping_add(self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction modulo 2^256.
    #[inline]
    pub fn wrapping_sub(self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Checked addition: `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction: `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Saturating subtraction, clamping at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).unwrap_or(U256::ZERO)
    }

    /// Full 256×256→512-bit multiplication, returned as (low, high).
    #[inline]
    pub fn full_mul(self, rhs: U256) -> (U256, U256) {
        let mut w = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let t = (self.0[i] as u128) * (rhs.0[j] as u128) + (w[i + j] as u128) + carry;
                w[i + j] = t as u64;
                carry = t >> 64;
            }
            w[i + 4] = carry as u64;
        }
        (
            U256([w[0], w[1], w[2], w[3]]),
            U256([w[4], w[5], w[6], w[7]]),
        )
    }

    /// Wrapping multiplication modulo 2^256: only the ten limb products
    /// that land below 2^256, with no 512-bit buffer.
    #[inline]
    pub fn wrapping_mul(self, rhs: U256) -> U256 {
        let mut out = [0u64; 4];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 - i {
                let t = (self.0[i] as u128) * (rhs.0[j] as u128) + (out[i + j] as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
        }
        U256(out)
    }

    /// Checked multiplication: `None` on overflow.
    #[inline]
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        let (lo, hi) = self.full_mul(rhs);
        if hi.is_zero() {
            Some(lo)
        } else {
            None
        }
    }

    /// Quotient and remainder; EVM convention: division by zero yields zero.
    pub fn div_rem(self, rhs: U256) -> (U256, U256) {
        if rhs.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        if self < rhs {
            return (U256::ZERO, self);
        }
        if rhs.bits() <= 64 && self.bits() <= 64 {
            let (q, r) = (self.0[0] / rhs.0[0], self.0[0] % rhs.0[0]);
            return (U256::from_u64(q), U256::from_u64(r));
        }
        // Schoolbook binary long division. Adequate: the interpreter's hot
        // paths (gas math) stay in the fast 64-bit case above.
        let shift = self.bits() - rhs.bits();
        let mut remainder = self;
        let mut quotient = U256::ZERO;
        let mut divisor = rhs.shl_bits(shift);
        for s in (0..=shift).rev() {
            if remainder >= divisor {
                remainder = remainder.wrapping_sub(divisor);
                quotient = quotient.set_bit(s);
            }
            divisor = divisor.shr_bits(1);
        }
        (quotient, remainder)
    }

    /// Returns a copy with bit `i` set.
    fn set_bit(mut self, i: u32) -> U256 {
        self.0[(i / 64) as usize] |= 1u64 << (i % 64);
        self
    }

    /// Logical left shift by `n` bits; shifts ≥ 256 yield zero.
    #[inline]
    pub fn shl_bits(self, n: u32) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            out[i] = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U256(out)
    }

    /// Logical right shift by `n` bits; shifts ≥ 256 yield zero.
    #[inline]
    pub fn shr_bits(self, n: u32) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in 0..4 - limb_shift {
            out[i] = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                out[i] |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U256(out)
    }

    /// Arithmetic (sign-extending) right shift, per the EVM `SAR` opcode.
    pub fn sar_bits(self, n: u32) -> U256 {
        let negative = self.bit(255);
        if n >= 256 {
            return if negative { U256::MAX } else { U256::ZERO };
        }
        let shifted = self.shr_bits(n);
        if negative && n > 0 {
            // Fill the vacated high bits with ones.
            let mask = U256::MAX.shl_bits(256 - n);
            shifted | mask
        } else {
            shifted
        }
    }

    /// Modular exponentiation by squaring, modulo 2^256 (EVM `EXP`).
    pub fn wrapping_pow(self, mut exp: U256) -> U256 {
        let mut base = self;
        let mut acc = U256::ONE;
        while !exp.is_zero() {
            if exp.bit(0) {
                acc = acc.wrapping_mul(base);
            }
            base = base.wrapping_mul(base);
            exp = exp.shr_bits(1);
        }
        acc
    }

    /// `(a + b) mod m` with intermediate 512-bit precision (EVM `ADDMOD`).
    pub fn addmod(self, b: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        let (sum, carry) = self.overflowing_add(b);
        if !carry {
            return sum.div_rem(m).1;
        }
        // sum + 2^256: reduce via 512-bit remainder computed limb-wise.
        u512_rem(&[sum.0[0], sum.0[1], sum.0[2], sum.0[3], 1, 0, 0, 0], m)
    }

    /// `(a * b) mod m` with intermediate 512-bit precision (EVM `MULMOD`).
    pub fn mulmod(self, b: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        let (lo, hi) = self.full_mul(b);
        if hi.is_zero() {
            return lo.div_rem(m).1;
        }
        u512_rem(
            &[
                lo.0[0], lo.0[1], lo.0[2], lo.0[3], hi.0[0], hi.0[1], hi.0[2], hi.0[3],
            ],
            m,
        )
    }

    /// Interprets the word as two's-complement; true iff negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.bit(255)
    }

    /// Two's-complement negation. (Named after the EVM operation; the
    /// `Neg` trait is not implemented because unsigned negation is
    /// intentionally explicit.)
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> U256 {
        (!self).wrapping_add(U256::ONE)
    }

    /// Absolute value under two's-complement interpretation.
    #[inline]
    pub fn abs_signed(self) -> U256 {
        if self.is_negative() {
            self.neg()
        } else {
            self
        }
    }

    /// Signed division per EVM `SDIV` (truncated toward zero; x/0 = 0).
    pub fn sdiv(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        let q = self.abs_signed().div_rem(rhs.abs_signed()).0;
        if self.is_negative() != rhs.is_negative() {
            q.neg()
        } else {
            q
        }
    }

    /// Signed remainder per EVM `SMOD` (sign follows the dividend; x%0 = 0).
    pub fn smod(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        let r = self.abs_signed().div_rem(rhs.abs_signed()).1;
        if self.is_negative() {
            r.neg()
        } else {
            r
        }
    }

    /// Signed less-than under two's-complement interpretation (EVM `SLT`).
    #[inline]
    pub fn slt(self, rhs: U256) -> bool {
        match (self.is_negative(), rhs.is_negative()) {
            (true, false) => true,
            (false, true) => false,
            _ => self < rhs,
        }
    }

    /// Sign-extends from byte position `k` (EVM `SIGNEXTEND` semantics:
    /// `k` counts bytes from the least-significant end, 0-based).
    pub fn signextend(self, k: U256) -> U256 {
        match k.to_u64() {
            Some(k) if k < 31 => {
                let bit = (k as u32) * 8 + 7;
                if self.bit(bit) {
                    self | U256::MAX.shl_bits(bit + 1)
                } else {
                    self & !(U256::MAX.shl_bits(bit + 1))
                }
            }
            _ => self,
        }
    }

    /// Extracts byte `i` where byte 0 is the most significant (EVM `BYTE`).
    pub fn byte(self, i: U256) -> U256 {
        match i.to_u64() {
            Some(i) if i < 32 => {
                let be = self.to_be_bytes();
                U256::from_u64(be[i as usize] as u64)
            }
            _ => U256::ZERO,
        }
    }

    /// Big-endian 32-byte serialization.
    #[inline]
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[32 - 8 * (i + 1)..32 - 8 * i].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Deserializes from exactly 32 big-endian bytes.
    #[inline]
    pub fn from_be_bytes(bytes: [u8; 32]) -> U256 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut l = [0u8; 8];
            l.copy_from_slice(&bytes[32 - 8 * (i + 1)..32 - 8 * i]);
            limbs[i] = u64::from_be_bytes(l);
        }
        U256(limbs)
    }

    /// Deserializes from up to 32 big-endian bytes (shorter inputs are
    /// left-padded with zeros, as in RLP and calldata decoding).
    #[inline]
    pub fn from_be_slice(bytes: &[u8]) -> U256 {
        assert!(bytes.len() <= 32, "more than 32 bytes for a U256");
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        U256::from_be_bytes(buf)
    }

    /// Minimal big-endian serialization: no leading zero bytes, empty for 0.
    pub fn to_be_bytes_trimmed(&self) -> Vec<u8> {
        let be = self.to_be_bytes();
        let first = be.iter().position(|&b| b != 0).unwrap_or(32);
        be[first..].to_vec()
    }

    /// Parses a decimal string.
    pub fn from_dec_str(s: &str) -> Result<U256, ParseU256Error> {
        if s.is_empty() {
            return Err(ParseU256Error::Empty);
        }
        let mut acc = U256::ZERO;
        let ten = U256::from_u64(10);
        for c in s.chars() {
            let d = c.to_digit(10).ok_or(ParseU256Error::InvalidDigit(c))?;
            acc = acc
                .checked_mul(ten)
                .and_then(|a| a.checked_add(U256::from_u64(d as u64)))
                .ok_or(ParseU256Error::Overflow)?;
        }
        Ok(acc)
    }

    /// Parses a hex string, with or without a `0x` prefix.
    pub fn from_hex_str(s: &str) -> Result<U256, ParseU256Error> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() {
            return Err(ParseU256Error::Empty);
        }
        if s.len() > 64 {
            return Err(ParseU256Error::Overflow);
        }
        let mut acc = U256::ZERO;
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(ParseU256Error::InvalidDigit(c))?;
            acc = acc.shl_bits(4) | U256::from_u64(d as u64);
        }
        Ok(acc)
    }

    /// Formats as a decimal string.
    pub fn to_dec_string(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut digits = Vec::new();
        let mut v = *self;
        let ten = U256::from_u64(10);
        while !v.is_zero() {
            let (q, r) = v.div_rem(ten);
            digits.push(b'0' + r.low_u64() as u8);
            v = q;
        }
        digits.reverse();
        String::from_utf8(digits).expect("ascii digits")
    }
}

/// Remainder of a 512-bit little-endian-limbed value modulo a U256.
fn u512_rem(limbs: &[u64; 8], m: U256) -> U256 {
    // Process from the most-significant bit down, tracking value mod m.
    let mut rem = U256::ZERO;
    for i in (0..8).rev() {
        for b in (0..64).rev() {
            // rem = rem * 2 + bit, reduced mod m.
            let (mut doubled, carry) = rem.overflowing_add(rem);
            if carry || doubled >= m {
                doubled = doubled.wrapping_sub(m);
            }
            rem = doubled;
            if (limbs[i] >> b) & 1 == 1 {
                let (next, carry) = rem.overflowing_add(U256::ONE);
                rem = if carry || next >= m {
                    next.wrapping_sub(m)
                } else {
                    next
                };
            }
        }
    }
    rem
}

impl Ord for U256 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for U256 {
    type Output = U256;
    fn add(self, rhs: U256) -> U256 {
        self.wrapping_add(rhs)
    }
}

impl Sub for U256 {
    type Output = U256;
    fn sub(self, rhs: U256) -> U256 {
        self.wrapping_sub(rhs)
    }
}

impl Mul for U256 {
    type Output = U256;
    fn mul(self, rhs: U256) -> U256 {
        self.wrapping_mul(rhs)
    }
}

impl Div for U256 {
    type Output = U256;
    fn div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).0
    }
}

impl Rem for U256 {
    type Output = U256;
    fn rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).1
    }
}

impl Not for U256 {
    type Output = U256;
    #[inline]
    fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl BitAnd for U256 {
    type Output = U256;
    #[inline]
    fn bitand(self, rhs: U256) -> U256 {
        U256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for U256 {
    type Output = U256;
    #[inline]
    fn bitor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for U256 {
    type Output = U256;
    #[inline]
    fn bitxor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, n: u32) -> U256 {
        self.shl_bits(n)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, n: u32) -> U256 {
        self.shr_bits(n)
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl From<u32> for U256 {
    fn from(v: u32) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<u8> for U256 {
    fn from(v: u8) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<bool> for U256 {
    #[inline]
    fn from(v: bool) -> Self {
        if v {
            U256::ONE
        } else {
            U256::ZERO
        }
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{self:x})")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dec_string())
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut started = false;
        for i in (0..4).rev() {
            if started {
                write!(f, "{:016x}", self.0[i])?;
            } else if self.0[i] != 0 {
                write!(f, "{:x}", self.0[i])?;
                started = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = U256([u64::MAX, 0, 0, 0]);
        assert_eq!(a.wrapping_add(U256::ONE), U256([0, 1, 0, 0]));
    }

    #[test]
    fn add_wraps_at_2_pow_256() {
        assert_eq!(U256::MAX.wrapping_add(U256::ONE), U256::ZERO);
        assert!(U256::MAX.overflowing_add(U256::ONE).1);
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = U256([0, 1, 0, 0]);
        assert_eq!(a.wrapping_sub(U256::ONE), U256([u64::MAX, 0, 0, 0]));
    }

    #[test]
    fn sub_wraps_below_zero() {
        assert_eq!(U256::ZERO.wrapping_sub(U256::ONE), U256::MAX);
    }

    #[test]
    fn mul_small_values() {
        assert_eq!(u(7).wrapping_mul(u(6)), u(42));
    }

    #[test]
    fn mul_carries_into_high_limbs() {
        // (2^128-1)^2 = 2^256 - 2^129 + 1 still fits in 256 bits.
        let a = U256::from_u128(u128::MAX);
        let (lo, hi) = a.full_mul(a);
        assert_eq!(lo, U256::ONE.wrapping_sub(U256::ONE.shl_bits(129)));
        assert_eq!(hi, U256::ZERO);
        // MAX^2 = 2^512 - 2^257 + 1: low word 1, high word 2^256 - 2.
        let (lo, hi) = U256::MAX.full_mul(U256::MAX);
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256::MAX.wrapping_sub(U256::ONE));
    }

    #[test]
    fn div_rem_basics() {
        assert_eq!(u(100).div_rem(u(7)), (u(14), u(2)));
        assert_eq!(u(7).div_rem(u(100)), (u(0), u(7)));
        assert_eq!(u(7).div_rem(u(0)), (u(0), u(0)), "EVM: div by zero is 0");
    }

    #[test]
    fn div_rem_wide_values() {
        let a = U256::from_hex_str("ffffffffffffffffffffffffffffffffffffffffffffffff").unwrap();
        let b = U256::from_hex_str("fedcba9876543210").unwrap();
        let (q, r) = a.div_rem(b);
        assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
        assert!(r < b);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        assert_eq!(u(3).wrapping_pow(u(5)), u(243));
        assert_eq!(u(2).wrapping_pow(u(256)), U256::ZERO, "wraps mod 2^256");
        assert_eq!(u(0).wrapping_pow(u(0)), U256::ONE, "EVM: 0**0 == 1");
    }

    #[test]
    fn addmod_handles_carry_past_256_bits() {
        // (MAX + MAX) mod 10: 2^257 - 2 mod 10
        let r = U256::MAX.addmod(U256::MAX, u(10));
        // 2^257 mod 10 = 2 * (2^256 mod 10). 2^256 mod 10 = 6 → 12 mod 10 = 2; minus 2 → 0
        assert_eq!(r, u(0));
        assert_eq!(u(7).addmod(u(5), u(9)), u(3));
        assert_eq!(u(7).addmod(u(5), u(0)), u(0), "EVM: mod 0 is 0");
    }

    #[test]
    fn mulmod_uses_512_bit_intermediate() {
        // MAX * MAX mod MAX == 0
        assert_eq!(U256::MAX.mulmod(U256::MAX, U256::MAX), U256::ZERO);
        // MAX * MAX mod (MAX - 1): MAX ≡ 1, so result is 1
        let m = U256::MAX.wrapping_sub(U256::ONE);
        assert_eq!(U256::MAX.mulmod(U256::MAX, m), U256::ONE);
        assert_eq!(u(7).mulmod(u(5), u(9)), u(8));
    }

    #[test]
    fn shifts() {
        assert!(U256::ONE.shl_bits(255).bit(255));
        assert_eq!(U256::ONE.shl_bits(256), U256::ZERO);
        assert_eq!(U256::MAX.shr_bits(255), U256::ONE);
        assert_eq!(u(0b1010).shr_bits(1), u(0b101));
        assert_eq!(u(0b1010).shl_bits(2), u(0b101000));
    }

    #[test]
    fn sar_sign_extends() {
        let minus_one = U256::MAX;
        assert_eq!(minus_one.sar_bits(5), minus_one);
        assert_eq!(minus_one.sar_bits(300), minus_one);
        assert_eq!(u(16).sar_bits(2), u(4));
        let min = U256::ONE.shl_bits(255);
        assert_eq!(min.sar_bits(255), U256::MAX);
    }

    #[test]
    fn signed_division() {
        let minus_six = u(6).neg();
        assert_eq!(minus_six.sdiv(u(2)), u(3).neg());
        assert_eq!(minus_six.sdiv(u(2).neg()), u(3));
        assert_eq!(u(7).neg().sdiv(u(2)), u(3).neg(), "truncates toward zero");
        assert_eq!(
            u(7).neg().smod(u(2)),
            U256::ONE.neg(),
            "sign follows dividend"
        );
        assert_eq!(u(7).smod(u(2).neg()), U256::ONE);
    }

    #[test]
    fn sdiv_overflow_case() {
        // EVM edge case: MIN / -1 == MIN (wraps).
        let min = U256::ONE.shl_bits(255);
        assert_eq!(min.sdiv(U256::MAX), min);
    }

    #[test]
    fn slt_orders_two_complement() {
        assert!(U256::MAX.slt(U256::ZERO), "-1 < 0");
        assert!(U256::ZERO.slt(U256::ONE));
        assert!(!U256::ONE.slt(U256::MAX), "1 > -1");
    }

    #[test]
    fn signextend_byte_semantics() {
        // 0xff at byte 0 sign-extends to -1
        assert_eq!(u(0xff).signextend(u(0)), U256::MAX);
        // 0x7f stays positive
        assert_eq!(u(0x7f).signextend(u(0)), u(0x7f));
        // k >= 31 leaves the value unchanged
        assert_eq!(u(0xff).signextend(u(31)), u(0xff));
        assert_eq!(u(0xff).signextend(U256::MAX), u(0xff));
    }

    #[test]
    fn byte_extraction_is_big_endian() {
        let v =
            U256::from_hex_str("0102030000000000000000000000000000000000000000000000000000000000")
                .unwrap();
        assert_eq!(v.byte(u(0)), u(1));
        assert_eq!(v.byte(u(1)), u(2));
        assert_eq!(v.byte(u(2)), u(3));
        assert_eq!(v.byte(u(31)), u(0));
        assert_eq!(v.byte(u(32)), u(0), "out of range reads 0");
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256::from_hex_str("deadbeefcafebabe0123456789abcdef").unwrap();
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        assert_eq!(U256::from_be_slice(&v.to_be_bytes_trimmed()), v);
        assert_eq!(U256::ZERO.to_be_bytes_trimmed(), Vec::<u8>::new());
    }

    #[test]
    fn dec_string_roundtrip() {
        for s in [
            "0",
            "1",
            "42",
            "115792089237316195423570985008687907853269984665640564039457584007913129639935",
        ] {
            assert_eq!(U256::from_dec_str(s).unwrap().to_dec_string(), s);
        }
        assert_eq!(
            U256::from_dec_str(
                "115792089237316195423570985008687907853269984665640564039457584007913129639936"
            ),
            Err(ParseU256Error::Overflow)
        );
        assert_eq!(U256::from_dec_str(""), Err(ParseU256Error::Empty));
        assert_eq!(
            U256::from_dec_str("12a"),
            Err(ParseU256Error::InvalidDigit('a'))
        );
    }

    #[test]
    fn hex_string_roundtrip() {
        let v = U256::from_hex_str("0xDeadBeef").unwrap();
        assert_eq!(v, u(0xdeadbeef));
        assert_eq!(format!("{v:x}"), "deadbeef");
        assert!(U256::from_hex_str(&"f".repeat(65)).is_err());
    }

    #[test]
    fn ordering_compares_high_limbs_first() {
        let big = U256([0, 0, 0, 1]);
        let small = U256([u64::MAX, u64::MAX, u64::MAX, 0]);
        assert!(big > small);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(u(3).saturating_sub(u(5)), U256::ZERO);
        assert_eq!(u(5).saturating_sub(u(3)), u(2));
    }
}
