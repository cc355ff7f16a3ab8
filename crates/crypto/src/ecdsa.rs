//! ECDSA over secp256k1 with Ethereum conventions.
//!
//! * Deterministic nonces per RFC 6979 (HMAC-SHA256), so the signed copies
//!   exchanged in the deploy/sign stage are byte-reproducible.
//! * Low-s normalization (EIP-2): `s ≤ n/2` always; the recovery id `v`
//!   is the Ethereum-style `27 + y-parity`.
//! * [`recover_address`] mirrors the EVM `ecrecover` precompile exactly — the same
//!   function backs both off-chain signature checks and the on-chain
//!   `deployVerifiedInstance` verification.
//!
//! Signing and key derivation multiply over the generator's fixed-base
//! table ([`Point::mul_g`]), a pass of eight 32-bit pieces and ≤ 33
//! doublings. Recovery computes `Q = (−z·r⁻¹)·G + (s·r⁻¹)·R` and
//! verification `u₁·G + u₂·Q`, each as one Strauss–Shamir pass
//! ([`Point::mul_add_g`]) after a single scalar inversion; the pass
//! splits the variable point's scalar with the curve's endomorphism and
//! G's into two 128-bit halves, so it runs ≤ 129 doublings. The λ split
//! needs `R` and `Q` on the curve: `R` comes from [`Affine::lift_x`],
//! and [`PublicKey::verify`] refuses a key that is not. Like the curve
//! arithmetic under it, none of this is constant-time.

use crate::keccak::keccak256;
use crate::secp256k1::{n, scalar, Affine, Point};
use crate::sha256::hmac_sha256;
use sc_primitives::{Address, H256, U256};
use std::fmt;

/// A secp256k1 private key (a nonzero scalar).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PrivateKey(U256);

/// A secp256k1 public key (an affine curve point).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublicKey(pub Affine);

/// An Ethereum-style recoverable signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Recovery id, 27 or 28 (Ethereum convention).
    pub v: u8,
    /// The x coordinate of the nonce point, mod n.
    pub r: H256,
    /// The proof scalar, low-s normalized.
    pub s: H256,
}

/// Errors from signing, verification or recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcdsaError {
    /// Private key scalar outside `[1, n)`.
    InvalidPrivateKey,
    /// r or s out of range, or v not 27/28.
    InvalidSignature,
    /// Signature did not recover to a valid curve point.
    RecoveryFailed,
}

impl fmt::Display for EcdsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcdsaError::InvalidPrivateKey => write!(f, "private key out of range"),
            EcdsaError::InvalidSignature => write!(f, "malformed signature"),
            EcdsaError::RecoveryFailed => write!(f, "public key recovery failed"),
        }
    }
}

impl std::error::Error for EcdsaError {}

impl fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "PrivateKey(…)")
    }
}

impl PrivateKey {
    /// Wraps a scalar, validating it is in `[1, n)`.
    pub fn from_u256(k: U256) -> Result<PrivateKey, EcdsaError> {
        if scalar::is_valid_nonzero(k) {
            Ok(PrivateKey(k))
        } else {
            Err(EcdsaError::InvalidPrivateKey)
        }
    }

    /// Parses a 32-byte big-endian scalar.
    pub fn from_bytes(b: [u8; 32]) -> Result<PrivateKey, EcdsaError> {
        Self::from_u256(U256::from_be_bytes(b))
    }

    /// Deterministically derives a key from a seed label. Handy for tests
    /// and simulations ("alice", "bob", …); NOT for real key material.
    pub fn from_seed(seed: &str) -> PrivateKey {
        let mut h = keccak256(seed.as_bytes()).to_u256();
        loop {
            if scalar::is_valid_nonzero(h) {
                return PrivateKey(h);
            }
            h = keccak256(&h.to_be_bytes()).to_u256();
        }
    }

    /// The raw scalar.
    pub fn secret_scalar(&self) -> U256 {
        self.0
    }

    /// Derives the public key `d·G`.
    pub fn public_key(&self) -> PublicKey {
        let point = Point::mul_g(self.0);
        PublicKey(point.to_affine().expect("nonzero scalar times G"))
    }

    /// The Ethereum address of this key: `keccak(pubkey)[12..]`.
    pub fn address(&self) -> Address {
        self.public_key().address()
    }

    /// Signs a 32-byte message digest with an RFC 6979 deterministic nonce.
    pub fn sign(&self, digest: H256) -> Signature {
        let z = bits2int_mod_n(digest);
        let mut extra_iter = 0u32;
        loop {
            let k = rfc6979_nonce(self.0, digest, extra_iter);
            let rp = Point::mul_g(k);
            let Some(raff) = rp.to_affine() else {
                extra_iter += 1;
                continue;
            };
            let r = scalar::reduce(raff.x);
            if r.is_zero() {
                extra_iter += 1;
                continue;
            }
            let kinv = scalar::inv(k);
            let s = scalar::mul(kinv, scalar::add(z, scalar::mul(r, self.0)));
            if s.is_zero() {
                extra_iter += 1;
                continue;
            }
            let mut y_odd = raff.y.bit(0);
            let s = if is_high_s(s) {
                // Low-s normalize; negating s flips which candidate nonce
                // point recovery finds, so flip the parity bit too.
                y_odd = !y_odd;
                n().wrapping_sub(s)
            } else {
                s
            };
            return Signature {
                v: 27 + y_odd as u8,
                r: H256::from_u256(r),
                s: H256::from_u256(s),
            };
        }
    }
}

impl PublicKey {
    /// Ethereum address: low 20 bytes of `keccak256(x || y)`.
    pub fn address(&self) -> Address {
        let ser = self.0.to_uncompressed();
        Address::from_h256(keccak256(&ser[1..]))
    }

    /// Verifies a signature over a digest (ignores `v`). A key off the
    /// curve verifies nothing: the field is public, so any caller can
    /// build one, and the verification pass is only sound on the curve.
    pub fn verify(&self, digest: H256, sig: &Signature) -> bool {
        let r = sig.r.to_u256();
        let s = sig.s.to_u256();
        if !scalar::is_valid_nonzero(r) || !scalar::is_valid_nonzero(s) || !self.0.is_on_curve() {
            return false;
        }
        let z = bits2int_mod_n(digest);
        let sinv = scalar::inv(s);
        let u1 = scalar::mul(z, sinv);
        let u2 = scalar::mul(r, sinv);
        let point = Point::mul_add_g(u1, u2, &Point::from_affine(self.0));
        match point.to_affine() {
            Some(a) => scalar::reduce(a.x) == r,
            None => false,
        }
    }
}

impl Signature {
    /// True iff `s` is in the low half of the scalar range (EIP-2).
    pub fn is_low_s(&self) -> bool {
        !is_high_s(self.s.to_u256())
    }

    /// Serializes as the 65-byte `r || s || v` wire format.
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..32].copy_from_slice(self.r.as_bytes());
        out[32..64].copy_from_slice(self.s.as_bytes());
        out[64] = self.v;
        out
    }

    /// Parses the 65-byte `r || s || v` wire format.
    pub fn from_bytes(b: &[u8]) -> Result<Signature, EcdsaError> {
        if b.len() != 65 {
            return Err(EcdsaError::InvalidSignature);
        }
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&b[..32]);
        s.copy_from_slice(&b[32..64]);
        Ok(Signature {
            v: b[64],
            r: H256(r),
            s: H256(s),
        })
    }
}

fn is_high_s(s: U256) -> bool {
    s > n().shr_bits(1)
}

/// Converts a digest to a scalar: take the leftmost 256 bits, reduce mod n.
fn bits2int_mod_n(digest: H256) -> U256 {
    let v = digest.to_u256();
    if v >= n() {
        v.wrapping_sub(n())
    } else {
        v
    }
}

/// RFC 6979 §3.2 nonce derivation (HMAC-SHA256), with the retry counter
/// folded in as extra entropy per §3.6 for the (never observed) case where
/// a candidate k is rejected downstream.
fn rfc6979_nonce(key: U256, digest: H256, extra_iter: u32) -> U256 {
    let x = key.to_be_bytes();
    let h1 = bits2int_mod_n(digest).to_be_bytes();

    let mut v = [0x01u8; 32];
    let mut k = [0x00u8; 32];

    let mut msg = Vec::with_capacity(32 + 1 + 32 + 32 + 4);
    msg.extend_from_slice(&v);
    msg.push(0x00);
    msg.extend_from_slice(&x);
    msg.extend_from_slice(&h1);
    if extra_iter > 0 {
        msg.extend_from_slice(&extra_iter.to_be_bytes());
    }
    k = hmac_sha256(&k, &msg);
    v = hmac_sha256(&k, &v);

    let mut msg = Vec::with_capacity(32 + 1 + 32 + 32 + 4);
    msg.extend_from_slice(&v);
    msg.push(0x01);
    msg.extend_from_slice(&x);
    msg.extend_from_slice(&h1);
    if extra_iter > 0 {
        msg.extend_from_slice(&extra_iter.to_be_bytes());
    }
    k = hmac_sha256(&k, &msg);
    v = hmac_sha256(&k, &v);

    loop {
        v = hmac_sha256(&k, &v);
        let candidate = U256::from_be_bytes(v);
        if scalar::is_valid_nonzero(candidate) {
            return candidate;
        }
        let mut msg = v.to_vec();
        msg.push(0x00);
        k = hmac_sha256(&k, &msg);
        v = hmac_sha256(&k, &v);
    }
}

/// Recovers the signer's public key from a digest and signature, mirroring
/// the EVM `ecrecover` precompile. Accepts `v ∈ {27, 28}`.
pub fn recover_pubkey(digest: H256, sig: &Signature) -> Result<PublicKey, EcdsaError> {
    if sig.v != 27 && sig.v != 28 {
        return Err(EcdsaError::InvalidSignature);
    }
    let r = sig.r.to_u256();
    let s = sig.s.to_u256();
    if !scalar::is_valid_nonzero(r) || !scalar::is_valid_nonzero(s) {
        return Err(EcdsaError::InvalidSignature);
    }
    let y_odd = sig.v == 28;
    let rpoint = Affine::lift_x(r, y_odd).ok_or(EcdsaError::RecoveryFailed)?;
    let z = bits2int_mod_n(digest);
    // Q = r⁻¹·(s·R − z·G) = (−z·r⁻¹)·G + (s·r⁻¹)·R, one pass.
    let rinv = scalar::inv(r);
    let u1 = scalar::mul(scalar::neg(z), rinv);
    let u2 = scalar::mul(s, rinv);
    let q = Point::mul_add_g(u1, u2, &Point::from_affine(rpoint));
    let qaff = q.to_affine().ok_or(EcdsaError::RecoveryFailed)?;
    Ok(PublicKey(qaff))
}

/// Recovers the signer's Ethereum address (the `ecrecover` result).
pub fn recover_address(digest: H256, sig: &Signature) -> Result<Address, EcdsaError> {
    Ok(recover_pubkey(digest, sig)?.address())
}

/// Recovers many addresses, in input order: exactly what per-entry
/// [`recover_address`] calls return, one after another on the calling
/// thread (DESIGN.md §5e says why there is no fan-out).
pub fn recover_addresses_batch(items: &[(H256, Signature)]) -> Vec<Result<Address, EcdsaError>> {
    items
        .iter()
        .map(|(digest, sig)| recover_address(*digest, sig))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use sc_primitives::hex;

    fn key_one() -> PrivateKey {
        PrivateKey::from_u256(U256::ONE).unwrap()
    }

    #[test]
    fn pubkey_of_one_is_generator() {
        let pk = key_one().public_key();
        let g = Point::generator().to_affine().unwrap();
        assert_eq!(pk.0, g);
    }

    #[test]
    fn known_ethereum_address() {
        // Widely-published vector: privkey 0x..01 ->
        // address 0x7e5f4552091a69125d5dfcb7b8c2659029395bdf
        assert_eq!(
            key_one().address().to_string(),
            "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"
        );
        // privkey 0x..02 -> 0x2b5ad5c4795c026514f8317c7a215e218dccd6cf
        let k2 = PrivateKey::from_u256(U256::from_u64(2)).unwrap();
        assert_eq!(
            k2.address().to_string(),
            "0x2b5ad5c4795c026514f8317c7a215e218dccd6cf"
        );
    }

    #[test]
    fn rfc6979_satoshi_vector() {
        // RFC 6979 test vector popularized by Bitcoin tooling:
        // key = 1, msg = "Satoshi Nakamoto" (SHA-256 digest).
        let digest = H256(sha256(b"Satoshi Nakamoto"));
        let sig = key_one().sign(digest);
        assert_eq!(
            hex::encode(sig.r.as_bytes()),
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        );
        assert_eq!(
            hex::encode(sig.s.as_bytes()),
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"
        );
    }

    #[test]
    fn rfc6979_simple_vector() {
        // key = 1, msg = "Everything should be made as simple as possible, but not simpler."
        let digest = H256(sha256(
            b"Everything should be made as simple as possible, but not simpler.",
        ));
        let sig = key_one().sign(digest);
        assert_eq!(
            hex::encode(sig.r.as_bytes()),
            "33a69cd2065432a30f3d1ce4eb0d59b8ab58c74f27c41a7fdb5696ad4e6108c9"
        );
        assert_eq!(
            hex::encode(sig.s.as_bytes()),
            "6f807982866f785d3f6418d24163ddae117b7db4d5fdf0071de069fa54342262"
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = PrivateKey::from_seed("alice");
        let digest = keccak256(b"the off-chain contract bytecode");
        let sig = key.sign(digest);
        assert!(key.public_key().verify(digest, &sig));
        assert!(!key.public_key().verify(keccak256(b"other"), &sig));
    }

    #[test]
    fn recover_matches_signer() {
        for seed in ["alice", "bob", "carol", "dave"] {
            let key = PrivateKey::from_seed(seed);
            let digest = keccak256(seed.as_bytes());
            let sig = key.sign(digest);
            assert_eq!(recover_address(digest, &sig).unwrap(), key.address());
        }
    }

    #[test]
    fn recover_rejects_bad_v() {
        let key = PrivateKey::from_seed("alice");
        let digest = keccak256(b"msg");
        let mut sig = key.sign(digest);
        sig.v = 29;
        assert_eq!(
            recover_address(digest, &sig),
            Err(EcdsaError::InvalidSignature)
        );
    }

    #[test]
    fn recover_with_flipped_v_gives_wrong_address() {
        let key = PrivateKey::from_seed("alice");
        let digest = keccak256(b"msg");
        let mut sig = key.sign(digest);
        sig.v = if sig.v == 27 { 28 } else { 27 };
        // Either recovery fails or it produces a different address; both
        // mean the forged signature does not authenticate.
        if let Ok(addr) = recover_address(digest, &sig) {
            assert_ne!(addr, key.address())
        }
    }

    #[test]
    fn signatures_are_low_s() {
        for i in 1u64..40 {
            let key = PrivateKey::from_u256(U256::from_u64(i)).unwrap();
            let digest = keccak256(&i.to_be_bytes());
            let sig = key.sign(digest);
            assert!(sig.is_low_s(), "signature {i} not low-s normalized");
            assert_eq!(recover_address(digest, &sig).unwrap(), key.address());
        }
    }

    #[test]
    fn signature_wire_roundtrip() {
        let key = PrivateKey::from_seed("alice");
        let sig = key.sign(keccak256(b"m"));
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(Signature::from_bytes(&[0u8; 64]).is_err());
    }

    #[test]
    fn zero_and_overrange_keys_rejected() {
        assert!(PrivateKey::from_u256(U256::ZERO).is_err());
        assert!(PrivateKey::from_u256(n()).is_err());
        assert!(PrivateKey::from_u256(n().wrapping_sub(U256::ONE)).is_ok());
    }

    #[test]
    fn tampered_signature_fails_verification() {
        let key = PrivateKey::from_seed("alice");
        let digest = keccak256(b"payload");
        let sig = key.sign(digest);
        let mut bad_r = sig;
        bad_r.r = H256::from_u256(sig.r.to_u256().wrapping_add(U256::ONE));
        assert!(!key.public_key().verify(digest, &bad_r));
        let mut bad_s = sig;
        bad_s.s = H256::from_u256(sig.s.to_u256().wrapping_add(U256::ONE));
        assert!(!key.public_key().verify(digest, &bad_s));
    }

    #[test]
    fn off_curve_key_verifies_nothing() {
        let key = PrivateKey::from_seed("alice");
        let digest = keccak256(b"m");
        let sig = key.sign(digest);
        let mut off = key.public_key();
        off.0.y = crate::secp256k1::fe::add(off.0.y, U256::ONE);
        assert!(!off.0.is_on_curve());
        assert!(!off.verify(digest, &sig));
        // (0, 0) is no curve point either: it encodes infinity
        // elsewhere, never a key.
        let zero = Affine {
            x: U256::ZERO,
            y: U256::ZERO,
        };
        assert!(!PublicKey(zero).verify(digest, &sig));
        assert!(key.public_key().verify(digest, &sig));
    }

    #[test]
    fn zero_r_or_s_rejected_everywhere() {
        let key = PrivateKey::from_seed("alice");
        let digest = keccak256(b"m");
        let sig = Signature {
            v: 27,
            r: H256::ZERO,
            s: H256::from_u256(U256::ONE),
        };
        assert!(!key.public_key().verify(digest, &sig));
        assert!(recover_address(digest, &sig).is_err());
    }

    #[test]
    fn batch_recovery_matches_serial_with_mixed_validity() {
        // Two dozen entries with bad signatures sprinkled in, so error
        // positions are checked too.
        let items: Vec<(H256, Signature)> = (0..24u64)
            .map(|i| {
                let key = PrivateKey::from_seed(&format!("signer-{i}"));
                let digest = keccak256(&i.to_be_bytes());
                let mut sig = key.sign(digest);
                if i % 5 == 0 {
                    sig.v = 29; // invalid recovery id
                }
                (digest, sig)
            })
            .collect();
        let serial: Vec<_> = items.iter().map(|(d, s)| recover_address(*d, s)).collect();
        let batch = recover_addresses_batch(&items);
        assert_eq!(batch, serial);
        assert!(batch.iter().filter(|r| r.is_err()).count() == 5);
    }

    #[test]
    fn batch_recovery_small_input_stays_correct() {
        let key = PrivateKey::from_seed("solo");
        let digest = keccak256(b"one");
        let sig = key.sign(digest);
        let out = recover_addresses_batch(&[(digest, sig)]);
        assert_eq!(out, vec![Ok(key.address())]);
        assert!(recover_addresses_batch(&[]).is_empty());
    }
}
