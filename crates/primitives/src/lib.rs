//! Foundational value types for the on/off-chain smart-contract stack.
//!
//! This crate is dependency-free and provides:
//!
//! * [`U256`] — 256-bit wrapping arithmetic with EVM semantics (signed
//!   division, `ADDMOD`/`MULMOD` with 512-bit intermediates, shifts, …).
//! * [`Address`] / [`H256`] — 20-byte accounts and 32-byte hashes.
//! * [`hex`] — minimal hex codec.
//! * [`rlp`] — canonical Recursive Length Prefix encoding (transaction
//!   payloads, contract-address derivation).
//! * [`abi`] — Solidity-compatible calldata encoding (head/tail scheme,
//!   dynamic `bytes` support for shipping contract bytecode as an argument).

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // limb/lane loops index two arrays in lockstep

pub mod abi;
pub mod hash;
pub mod hex;
pub mod rlp;
pub mod u256;

pub use hash::{Address, H256};
pub use u256::U256;

/// One ether, in wei (10^18), the unit the betting contract deposits in.
pub const ETHER: u128 = 1_000_000_000_000_000_000;

/// Converts a whole number of ether to wei as a [`U256`].
pub fn ether(n: u64) -> U256 {
    U256::from_u128(ETHER).wrapping_mul(U256::from_u64(n))
}

/// Converts a whole number of gwei (10^9 wei) to a [`U256`].
pub fn gwei(n: u64) -> U256 {
    U256::from_u64(1_000_000_000).wrapping_mul(U256::from_u64(n))
}

// Lets the test tree's reference codec, included into the unit tests,
// name this crate as every other includer does.
#[cfg(test)]
extern crate self as sc_primitives;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ether_conversion() {
        assert_eq!(ether(1), U256::from_u128(ETHER));
        assert_eq!(ether(2), U256::from_u128(2 * ETHER));
        assert_eq!(gwei(1), U256::from_u64(1_000_000_000));
    }
}
