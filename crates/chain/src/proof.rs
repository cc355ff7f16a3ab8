//! Light verification of storage against a block's `state_root`.
//!
//! A [`StorageProof`] carries the two Merkle paths a stateless verifier
//! needs: the account's inclusion proof in the state trie (which
//! commits the account's `storage_root`) and the slot's proof in that
//! storage trie. [`StorageProof::verify`] replays both against a root
//! taken from a block header — no access to the world state required,
//! which is exactly what the paper's challenge stage needs: a
//! participant can check what the chain committed to without trusting
//! the representative's node.

use crate::block::receipt_key;
use crate::wire;
use sc_primitives::rlp::Rlp;
use sc_primitives::{Address, H256, U256};
use sc_trie::{verify_proof, verify_secure_proof, ProofError};
use std::fmt;

/// Why a witness ([`StorageProof`], [`AccountProof`] or
/// [`ReceiptProof`]) failed to check out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofVerifyError {
    /// A Merkle path was malformed or incomplete (includes tampering —
    /// a modified node breaks a hash link to the root).
    Trie(ProofError),
    /// The account leaf did not decode as `[nonce, balance,
    /// storage_root, code_hash]`.
    BadAccount,
    /// Both paths verified, but against a different value than claimed.
    ValueMismatch {
        /// What the root actually commits the slot to.
        proven: U256,
        /// What the proof claimed.
        claimed: U256,
    },
    /// The account path verified, but the root commits different
    /// account fields than the witness claims (a tampered balance or
    /// nonce).
    AccountMismatch {
        /// Nonce the root actually commits.
        proven_nonce: u64,
        /// Balance the root actually commits.
        proven_balance: U256,
        /// Nonce the witness claimed.
        claimed_nonce: u64,
        /// Balance the witness claimed.
        claimed_balance: U256,
    },
    /// The header the receipt claims inclusion in does not commit the
    /// transaction hash at all.
    TxNotCommitted(H256),
    /// The receipts root commits a different receipt (or none) at the
    /// claimed index than the witness carries.
    ReceiptMismatch,
    /// The verifier holds no header for this block number, so there is
    /// no trusted root to check the proof against.
    UntrackedHeader(u64),
}

impl fmt::Display for ProofVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofVerifyError::Trie(e) => write!(f, "storage proof rejected: {e}"),
            ProofVerifyError::BadAccount => write!(f, "malformed account leaf in storage proof"),
            ProofVerifyError::ValueMismatch { proven, claimed } => write!(
                f,
                "storage proof value mismatch: root commits {proven}, claimed {claimed}"
            ),
            ProofVerifyError::AccountMismatch {
                proven_nonce,
                proven_balance,
                claimed_nonce,
                claimed_balance,
            } => write!(
                f,
                "account proof mismatch: root commits nonce {proven_nonce} balance \
                 {proven_balance}, claimed nonce {claimed_nonce} balance {claimed_balance}"
            ),
            ProofVerifyError::TxNotCommitted(h) => {
                write!(f, "header does not commit transaction {h}")
            }
            ProofVerifyError::ReceiptMismatch => {
                write!(f, "receipts root commits a different receipt than claimed")
            }
            ProofVerifyError::UntrackedHeader(n) => {
                write!(f, "no tracked header for block {n}")
            }
        }
    }
}

impl std::error::Error for ProofVerifyError {}

impl From<ProofError> for ProofVerifyError {
    fn from(e: ProofError) -> Self {
        ProofVerifyError::Trie(e)
    }
}

/// A self-contained storage witness: address, slot, claimed value, and
/// the account + storage Merkle paths, plus the state root the prover
/// anchored to (so a verifier can compare it against a block header
/// before replaying the paths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageProof {
    /// Account whose storage is being proven.
    pub address: Address,
    /// Storage slot.
    pub slot: U256,
    /// Claimed slot value ([`U256::ZERO`] for exclusion proofs).
    pub value: U256,
    /// The state root the prover generated this proof against.
    pub root: H256,
    /// Merkle path of the account in the state trie.
    pub account_proof: Vec<Vec<u8>>,
    /// Merkle path of the slot in the account's storage trie.
    pub storage_proof: Vec<Vec<u8>>,
}

impl StorageProof {
    /// Replays the proof against `state_root` and returns the value the
    /// root actually commits the slot to. An account proven absent, or
    /// a slot proven absent in its storage trie, commits to zero.
    pub fn proven_value(&self, state_root: H256) -> Result<U256, ProofVerifyError> {
        let account =
            verify_secure_proof(state_root, self.address.as_bytes(), &self.account_proof)?;
        let Some(account) = account else {
            // Account exclusion: every slot of a nonexistent account is
            // zero, and there is no storage root to walk.
            return Ok(U256::ZERO);
        };
        let storage_root = decode_storage_root(&account).ok_or(ProofVerifyError::BadAccount)?;
        let value =
            verify_secure_proof(storage_root, &self.slot.to_be_bytes(), &self.storage_proof)?;
        match value {
            None => Ok(U256::ZERO),
            Some(enc) => Rlp::new(&enc)
                .ok()
                .and_then(|value| value.as_uint())
                .ok_or(ProofVerifyError::BadAccount),
        }
    }

    /// Verifies that `state_root` commits `self.slot` to `self.value`.
    pub fn verify(&self, state_root: H256) -> Result<(), ProofVerifyError> {
        let proven = self.proven_value(state_root)?;
        if proven == self.value {
            Ok(())
        } else {
            Err(ProofVerifyError::ValueMismatch {
                proven,
                claimed: self.value,
            })
        }
    }

    /// Bytes of Merkle-path data this witness carries — what a light
    /// client actually downloads per read (the bench's
    /// witness-bytes-per-session metric).
    pub fn witness_bytes(&self) -> usize {
        path_bytes(&self.account_proof) + path_bytes(&self.storage_proof)
    }
}

/// A self-contained *account* witness: address, claimed nonce and
/// balance, and the account's Merkle path in the state trie. This is
/// the top level of the two-level state witness on its own — what a
/// light submitter needs to check its own nonce and funds against a
/// header's `state_root` without trusting the relay's account map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountProof {
    /// Account being proven.
    pub address: Address,
    /// Claimed nonce (0 for exclusion proofs).
    pub nonce: u64,
    /// Claimed balance ([`U256::ZERO`] for exclusion proofs).
    pub balance: U256,
    /// The state root the prover generated this proof against.
    pub root: H256,
    /// Merkle path of the account in the state trie.
    pub account_proof: Vec<Vec<u8>>,
}

impl AccountProof {
    /// Replays the path against `state_root` and returns the `(nonce,
    /// balance)` the root actually commits. An account proven absent
    /// commits `(0, 0)`.
    pub fn proven_parts(&self, state_root: H256) -> Result<(u64, U256), ProofVerifyError> {
        let account =
            verify_secure_proof(state_root, self.address.as_bytes(), &self.account_proof)?;
        match account {
            None => Ok((0, U256::ZERO)),
            Some(enc) => decode_account_parts(&enc).ok_or(ProofVerifyError::BadAccount),
        }
    }

    /// Verifies that `state_root` commits exactly the claimed nonce and
    /// balance.
    pub fn verify(&self, state_root: H256) -> Result<(), ProofVerifyError> {
        let (proven_nonce, proven_balance) = self.proven_parts(state_root)?;
        if proven_nonce == self.nonce && proven_balance == self.balance {
            Ok(())
        } else {
            Err(ProofVerifyError::AccountMismatch {
                proven_nonce,
                proven_balance,
                claimed_nonce: self.nonce,
                claimed_balance: self.balance,
            })
        }
    }

    /// Bytes of Merkle-path data this witness carries.
    pub fn witness_bytes(&self) -> usize {
        path_bytes(&self.account_proof)
    }
}

/// A receipt-inclusion witness: the consensus encoding of one receipt
/// plus its Merkle path in the block's receipts trie (keyed by RLP
/// transaction index, exactly as [`crate::block::receipts_root`] builds
/// it). A light client confirms a submitted transaction landed by
/// checking this against the `receipts_root` of a *tracked* header —
/// the relay can withhold a receipt, but cannot fabricate one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiptProof {
    /// Transaction whose receipt is proven.
    pub tx_hash: H256,
    /// Block the receipt claims inclusion in.
    pub block_number: u64,
    /// Index of the transaction within that block.
    pub tx_index: u64,
    /// The receipt's consensus encoding (`[status, gas_used, logs]`).
    pub receipt_rlp: Vec<u8>,
    /// Merkle path of the receipt in the block's receipts trie.
    pub proof: Vec<Vec<u8>>,
}

impl ReceiptProof {
    /// Verifies that `receipts_root` commits exactly `self.receipt_rlp`
    /// at `self.tx_index`.
    pub fn verify(&self, receipts_root: H256) -> Result<(), ProofVerifyError> {
        match verify_proof(receipts_root, &receipt_key(self.tx_index), &self.proof)? {
            Some(leaf) if leaf == self.receipt_rlp => Ok(()),
            _ => Err(ProofVerifyError::ReceiptMismatch),
        }
    }

    /// Bytes of Merkle-path data this witness carries (plus the receipt
    /// payload itself, which the verifier must download too).
    pub fn witness_bytes(&self) -> usize {
        path_bytes(&self.proof) + self.receipt_rlp.len()
    }
}

/// Total encoded bytes of one Merkle path.
fn path_bytes(path: &[Vec<u8>]) -> usize {
    path.iter().map(Vec::len).sum()
}

/// Pulls `(nonce, balance)` out of an RLP `[nonce, balance,
/// storage_root, code_hash]` account leaf.
pub(crate) fn decode_account_parts(account_rlp: &[u8]) -> Option<(u64, U256)> {
    let [nonce, balance, _, _] = wire::fields(Rlp::new(account_rlp).ok()?.iter())?;
    Some((nonce.as_uint()?.to_u64()?, balance.as_uint()?))
}

/// Pulls `storage_root` out of an RLP `[nonce, balance, storage_root,
/// code_hash]` account leaf.
pub(crate) fn decode_storage_root(account_rlp: &[u8]) -> Option<H256> {
    let [_, _, root, _] = wire::fields(Rlp::new(account_rlp).ok()?.iter())?;
    wire::as_h256(root, "account: storage_root").ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::WorldState;
    use sc_evm::host::Host;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    /// Builds a state with a couple of storage-bearing contracts and
    /// some plain accounts.
    fn populated_state() -> WorldState {
        let mut s = WorldState::new();
        for i in 1u8..5 {
            s.mint(addr(i), U256::from_u64(1_000_000 + i as u64));
        }
        s.install_code(addr(10), vec![0x5b, 0x00]);
        s.set_storage(addr(10), U256::from_u64(7), U256::from_u64(0xdead));
        s.set_storage(addr(10), U256::from_u64(8), U256::from_u64(0xbeef));
        s.install_code(addr(11), vec![0x5b, 0x01]);
        s.set_storage(addr(11), U256::from_u64(7), U256::from_u64(42));
        s.clear_tx_scratch();
        s
    }

    #[test]
    fn storage_proof_roundtrip() {
        let mut s = populated_state();
        let root = s.state_root();
        let proof = s.prove_storage(addr(10), U256::from_u64(7));
        assert_eq!(proof.root, root);
        assert_eq!(proof.value, U256::from_u64(0xdead));
        proof.verify(root).expect("honest proof verifies");
        assert_eq!(proof.proven_value(root).unwrap(), U256::from_u64(0xdead));
    }

    #[test]
    fn tampered_value_is_rejected() {
        let mut s = populated_state();
        let root = s.state_root();
        let mut proof = s.prove_storage(addr(10), U256::from_u64(7));
        proof.value = U256::from_u64(0xdeaf);
        match proof.verify(root) {
            Err(ProofVerifyError::ValueMismatch { proven, claimed }) => {
                assert_eq!(proven, U256::from_u64(0xdead));
                assert_eq!(claimed, U256::from_u64(0xdeaf));
            }
            other => panic!("expected ValueMismatch, got {other:?}"),
        }
    }

    #[test]
    fn tampered_nodes_are_rejected() {
        let mut s = populated_state();
        let root = s.state_root();
        let honest = s.prove_storage(addr(10), U256::from_u64(7));
        for (which, len) in [
            (0, honest.account_proof.len()),
            (1, honest.storage_proof.len()),
        ] {
            for i in 0..len {
                let mut forged = honest.clone();
                let nodes = if which == 0 {
                    &mut forged.account_proof
                } else {
                    &mut forged.storage_proof
                };
                nodes[i][0] ^= 0x01;
                assert!(
                    forged.verify(root).is_err(),
                    "forged node {i} in proof part {which} must not verify"
                );
            }
        }
    }

    #[test]
    fn absent_slot_and_absent_account_prove_zero() {
        let mut s = populated_state();
        let root = s.state_root();

        // Slot never written: exclusion in the storage trie.
        let proof = s.prove_storage(addr(10), U256::from_u64(99));
        assert_eq!(proof.value, U256::ZERO);
        proof.verify(root).expect("slot exclusion verifies");

        // Account never touched: exclusion in the account trie.
        let proof = s.prove_storage(addr(0xee), U256::from_u64(7));
        assert_eq!(proof.value, U256::ZERO);
        proof.verify(root).expect("account exclusion verifies");
    }

    #[test]
    fn proof_against_stale_root_fails() {
        let mut s = populated_state();
        let old_root = s.state_root();
        s.set_storage(addr(10), U256::from_u64(7), U256::from_u64(1234));
        s.clear_tx_scratch();
        let proof = s.prove_storage(addr(10), U256::from_u64(7));
        assert_ne!(proof.root, old_root);
        // Against the new root the new value verifies…
        proof.verify(proof.root).expect("fresh proof verifies");
        // …but the same paths cannot satisfy the old commitment.
        assert!(proof.verify(old_root).is_err());
    }

    #[test]
    fn account_proof_roundtrip_and_forgery_rejected() {
        let mut s = populated_state();
        let root = s.state_root();
        let proof = s.prove_account(addr(1));
        assert_eq!(proof.root, root);
        assert_eq!(proof.balance, U256::from_u64(1_000_001));
        proof.verify(root).expect("honest account proof verifies");
        assert_eq!(
            proof.proven_parts(root).unwrap(),
            (0, U256::from_u64(1_000_001))
        );
        assert!(proof.witness_bytes() > 0);

        // Tampered balance: the path still verifies, the claim does not.
        let mut forged = proof.clone();
        forged.balance = U256::from_u64(9_999_999);
        match forged.verify(root) {
            Err(ProofVerifyError::AccountMismatch {
                proven_balance,
                claimed_balance,
                ..
            }) => {
                assert_eq!(proven_balance, U256::from_u64(1_000_001));
                assert_eq!(claimed_balance, U256::from_u64(9_999_999));
            }
            other => panic!("expected AccountMismatch, got {other:?}"),
        }
        // Tampered nonce, same story.
        let mut forged = proof.clone();
        forged.nonce = 7;
        assert!(matches!(
            forged.verify(root),
            Err(ProofVerifyError::AccountMismatch { .. })
        ));
        // A flipped path node breaks the hash chain outright.
        let mut forged = proof.clone();
        forged.account_proof[0][0] ^= 0x01;
        assert!(matches!(
            forged.verify(root),
            Err(ProofVerifyError::Trie(_))
        ));
    }

    #[test]
    fn absent_account_proves_zero_nonce_and_balance() {
        let mut s = populated_state();
        let root = s.state_root();
        let proof = s.prove_account(addr(0xee));
        assert_eq!((proof.nonce, proof.balance), (0, U256::ZERO));
        proof.verify(root).expect("account exclusion verifies");
    }

    #[test]
    fn state_root_reflects_account_encoding() {
        // Two states that differ only in one nonce must produce
        // different roots; identical states must agree.
        let mut a = populated_state();
        let mut b = populated_state();
        assert_eq!(a.state_root(), b.state_root());
        b.bump_nonce(addr(1));
        b.clear_tx_scratch();
        assert_ne!(a.state_root(), b.state_root());
    }
}
