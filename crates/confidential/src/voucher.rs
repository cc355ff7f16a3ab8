//! Off-chain settlement vouchers and their nullifiers.
//!
//! A voucher fixes the outcome of an off-chain session as a pair of
//! output commitments, co-signed by both participants. Either party can
//! submit it on-chain later; the contract derives one nullifier per
//! voucher digest and records it, so the first submission wins and
//! every replay reverts — a nullifier-instead-of-nonce design that
//! keeps settlement order-independent across nodes.
//!
//! The digest is a chain of two-word keccaks ([`hash2`]) rather than
//! one hash over a concatenation, because MiniSol has no byte-string
//! concatenation: the contract recomputes the exact same chain with its
//! `hash2` builtin, word by word.

use crate::pedersen::Commitment;
use sc_crypto::ecdsa::{recover_address, PrivateKey, Signature};
use sc_crypto::keccak::keccak256;
use sc_primitives::{Address, H256};

/// Domain tag mixed into every voucher digest.
pub const VOUCHER_DOMAIN: &[u8] = b"sc-settle-voucher-v1";

/// Domain tag prefixed to every nullifier preimage.
pub const NULLIFIER_DOMAIN: &[u8] = b"sc-nullifier-v1";

/// `keccak256(a ‖ b)` over two 32-byte words — the primitive the
/// MiniSol `hash2` builtin exposes, used here so Rust and contract
/// digests agree bit for bit.
pub fn hash2(a: H256, b: H256) -> H256 {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(a.as_bytes());
    buf[32..].copy_from_slice(b.as_bytes());
    keccak256(&buf)
}

/// The domain-separated nullifier of arbitrary input — what the
/// `NULLIFIER` precompile computes over its calldata.
pub fn nullifier(data: &[u8]) -> H256 {
    let mut buf = Vec::with_capacity(NULLIFIER_DOMAIN.len() + data.len());
    buf.extend_from_slice(NULLIFIER_DOMAIN);
    buf.extend_from_slice(data);
    keccak256(&buf)
}

/// An unsigned settlement voucher: the session's contract and the two
/// output commitments the parties agreed on off-chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SettlementVoucher {
    /// The `ConfidentialDeposit` instance being settled.
    pub contract: Address,
    /// Party A's output commitment.
    pub out_a: Commitment,
    /// Party B's output commitment.
    pub out_b: Commitment,
}

impl SettlementVoucher {
    /// The signing digest: a [`hash2`] chain over the domain tag, the
    /// contract address and both commitments' coordinates, mirrored
    /// exactly by the contract's `voucherDigest`.
    pub fn digest(&self) -> H256 {
        // `to_bytes` is `x ‖ y` from one normalisation, so its halves
        // are the two words `hash2` takes.
        let coords = |c: &Commitment| {
            let xy = c.to_bytes();
            let word = |half: &[u8]| H256(half.try_into().expect("32 bytes"));
            hash2(word(&xy[..32]), word(&xy[32..]))
        };
        let domain = keccak256(VOUCHER_DOMAIN);
        let d1 = hash2(domain, H256::from_u256(self.contract.to_u256()));
        hash2(hash2(d1, coords(&self.out_a)), coords(&self.out_b))
    }

    /// Signs the digest with a participant key.
    pub fn sign(&self, key: &PrivateKey) -> Signature {
        key.sign(self.digest())
    }

    /// Co-signs with both keys, producing a submittable voucher.
    pub fn co_sign(self, key_a: &PrivateKey, key_b: &PrivateKey) -> SignedVoucher {
        SignedVoucher {
            sig_a: self.sign(key_a),
            sig_b: self.sign(key_b),
            voucher: self,
        }
    }
}

/// A voucher carrying both participants' signatures — everything either
/// party needs to settle on-chain, whenever they come back online.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignedVoucher {
    /// The voucher body.
    pub voucher: SettlementVoucher,
    /// Party A's signature over the digest.
    pub sig_a: Signature,
    /// Party B's signature over the digest.
    pub sig_b: Signature,
}

impl SignedVoucher {
    /// The voucher's nullifier: one per digest, so one settlement per
    /// voucher no matter who submits or how often.
    pub fn nullifier(&self) -> H256 {
        nullifier(self.voucher.digest().as_bytes())
    }

    /// True iff both signatures recover to the expected participants.
    pub fn verify(&self, party_a: Address, party_b: Address) -> bool {
        let digest = self.voucher.digest();
        recover_address(digest, &self.sig_a).is_ok_and(|a| a == party_a)
            && recover_address(digest, &self.sig_b).is_ok_and(|b| b == party_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommitmentBackend, PedersenBackend};
    use sc_primitives::U256;

    fn sample() -> SettlementVoucher {
        let b = PedersenBackend;
        SettlementVoucher {
            contract: Address::from_u256(U256::from_u64(0xc0ffee)),
            out_a: b.commit(U256::from_u64(30), U256::from_u64(5)),
            out_b: b.commit(U256::from_u64(12), U256::from_u64(6)),
        }
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let v = sample();
        assert_eq!(v.digest(), v.digest());
        let mut w = v;
        w.contract = Address::from_u256(U256::from_u64(0xdead));
        assert_ne!(v.digest(), w.digest());
        let mut x = v;
        x.out_a = x.out_b;
        assert_ne!(v.digest(), x.digest());
    }

    #[test]
    fn co_sign_verifies_and_binds_parties() {
        let ka = PrivateKey::from_seed("voucher-alice");
        let kb = PrivateKey::from_seed("voucher-bob");
        let signed = sample().co_sign(&ka, &kb);
        assert!(signed.verify(ka.address(), kb.address()));
        assert!(!signed.verify(kb.address(), ka.address()));
    }

    #[test]
    fn nullifier_is_digest_scoped() {
        let ka = PrivateKey::from_seed("voucher-alice");
        let kb = PrivateKey::from_seed("voucher-bob");
        let signed = sample().co_sign(&ka, &kb);
        assert_eq!(
            signed.nullifier(),
            nullifier(signed.voucher.digest().as_bytes())
        );
        let mut other = sample();
        other.out_a = PedersenBackend.commit(U256::from_u64(31), U256::from_u64(5));
        assert_ne!(signed.nullifier(), nullifier(other.digest().as_bytes()));
    }
}
