//! Cryptographic primitives built from scratch for the on/off-chain stack.
//!
//! * [`keccak`] — Keccak-256 (Ethereum variant) plus Solidity function
//!   selectors.
//! * [`sha256`] — SHA-256 / HMAC-SHA256 (RFC 6979 nonces, 0x02 precompile).
//! * [`secp256k1`] — field, scalar and Jacobian point arithmetic, and the
//!   one scalar-multiplication engine (wNAF, fixed-base tables,
//!   Strauss–Shamir) every signature and commitment runs on.
//! * [`modmath`] — modular add/sub, the generic 512-bit fold and the
//!   Bernstein–Yang divstep inverse shared by both fields.
//! * [`ecdsa`] — Ethereum-convention ECDSA: deterministic signing, low-s
//!   normalization, and the `ecrecover` operation that powers both
//!   transaction sender recovery and the paper's signed-copy verification.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // limb/lane loops index two arrays in lockstep

pub mod ecdsa;
pub mod keccak;
pub mod modmath;
pub mod secp256k1;
pub mod sha256;

pub use ecdsa::{recover_address, recover_pubkey, EcdsaError, PrivateKey, PublicKey, Signature};
pub use keccak::{keccak256, selector, Keccak256};
pub use sha256::{hmac_sha256, Sha256};
