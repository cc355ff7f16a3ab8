//! Fixed-size byte-array types: 20-byte addresses and 32-byte hashes.

use crate::hex;
use crate::u256::U256;
use std::fmt;

/// A 160-bit Ethereum-style account address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 20]);

/// A 256-bit hash (keccak digest, storage key, …).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct H256(pub [u8; 32]);

impl Address {
    /// The zero address, used by the EVM for "no address".
    pub const ZERO: Address = Address([0u8; 20]);

    /// Builds an address from the low 20 bytes of a hash (Ethereum's
    /// convention for deriving addresses from keccak digests).
    pub fn from_h256(h: H256) -> Address {
        let mut a = [0u8; 20];
        a.copy_from_slice(&h.0[12..]);
        Address(a)
    }

    /// Widens to a 256-bit word (left-padded with zeros), the EVM stack
    /// representation of an address.
    #[inline]
    pub fn to_u256(&self) -> U256 {
        let mut buf = [0u8; 32];
        buf[12..].copy_from_slice(&self.0);
        U256::from_be_bytes(buf)
    }

    /// Truncates a 256-bit word to its low 20 bytes, the inverse of
    /// [`Address::to_u256`]. High bytes are discarded, as the EVM does.
    #[inline]
    pub fn from_u256(v: U256) -> Address {
        let be = v.to_be_bytes();
        let mut a = [0u8; 20];
        a.copy_from_slice(&be[12..]);
        Address(a)
    }

    /// Parses from hex, with or without `0x` prefix; must be 40 nibbles.
    pub fn from_hex(s: &str) -> Result<Address, hex::FromHexError> {
        let bytes = hex::decode(s)?;
        if bytes.len() != 20 {
            return Err(hex::FromHexError::InvalidLength(bytes.len()));
        }
        let mut a = [0u8; 20];
        a.copy_from_slice(&bytes);
        Ok(Address(a))
    }

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// True iff this is the zero address.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 20]
    }
}

impl H256 {
    /// The all-zero hash.
    pub const ZERO: H256 = H256([0u8; 32]);

    /// Reinterprets as a 256-bit big-endian integer.
    #[inline]
    pub fn to_u256(&self) -> U256 {
        U256::from_be_bytes(self.0)
    }

    /// Builds from a 256-bit integer (big-endian).
    #[inline]
    pub fn from_u256(v: U256) -> H256 {
        H256(v.to_be_bytes())
    }

    /// Parses from hex, with or without `0x` prefix; must be 64 nibbles.
    pub fn from_hex(s: &str) -> Result<H256, hex::FromHexError> {
        let bytes = hex::decode(s)?;
        if bytes.len() != 32 {
            return Err(hex::FromHexError::InvalidLength(bytes.len()));
        }
        let mut h = [0u8; 32];
        h.copy_from_slice(&bytes);
        Ok(H256(h))
    }

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", hex::encode(&self.0))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl fmt::Debug for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", hex::encode(&self.0))
    }
}

impl fmt::Display for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_u256_roundtrip() {
        let a = Address::from_hex("0x00112233445566778899aabbccddeeff00112233").unwrap();
        assert_eq!(Address::from_u256(a.to_u256()), a);
    }

    #[test]
    fn address_from_u256_truncates_high_bytes() {
        let v = U256::MAX;
        let a = Address::from_u256(v);
        assert_eq!(a.0, [0xff; 20]);
    }

    #[test]
    fn h256_u256_roundtrip() {
        let h = H256::from_hex(&"ab".repeat(32)).unwrap();
        assert_eq!(H256::from_u256(h.to_u256()), h);
    }

    #[test]
    fn address_from_h256_takes_low_20_bytes() {
        let mut h = [0u8; 32];
        for (i, b) in h.iter_mut().enumerate() {
            *b = i as u8;
        }
        let a = Address::from_h256(H256(h));
        assert_eq!(a.0[0], 12);
        assert_eq!(a.0[19], 31);
    }

    #[test]
    fn hex_parsing_validates_length() {
        assert!(Address::from_hex("0x0011").is_err());
        assert!(H256::from_hex("0x0011").is_err());
    }

    #[test]
    fn display_is_prefixed_hex() {
        assert_eq!(Address::ZERO.to_string(), format!("0x{}", "00".repeat(20)));
    }
}
