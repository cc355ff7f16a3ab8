//! Transactions: RLP signing payloads, ECDSA signatures, sender recovery.

use crate::wire::{self, WireError};
use sc_crypto::ecdsa::{recover_address, EcdsaError, PrivateKey, Signature};
use sc_crypto::keccak256;
use sc_primitives::rlp::{self, Rlp};
use sc_primitives::{Address, H256, U256};

/// An unsigned transaction (pre-EIP-155 payload shape, matching the era of
/// the paper's toolchain).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Sender's account nonce.
    pub nonce: u64,
    /// Price per unit of gas, in wei.
    pub gas_price: U256,
    /// Gas limit for the whole transaction.
    pub gas_limit: u64,
    /// Recipient; `None` creates a contract.
    pub to: Option<Address>,
    /// Wei transferred (or endowed to the new contract).
    pub value: U256,
    /// Calldata or initcode.
    pub data: Vec<u8>,
}

impl Transaction {
    /// True for contract-creation transactions.
    pub fn is_create(&self) -> bool {
        self.to.is_none()
    }

    /// Appends the six signing fields as list items.
    fn put_fields(&self, out: &mut Vec<u8>) {
        wire::put_uint(self.nonce, out);
        wire::put_uint(self.gas_price, out);
        wire::put_uint(self.gas_limit, out);
        rlp::put_bytes(self.to.as_ref().map_or(&[], Address::as_bytes), out);
        wire::put_uint(self.value, out);
        rlp::put_bytes(&self.data, out);
    }

    /// The digest that gets signed: `keccak(rlp([nonce, gasPrice,
    /// gasLimit, to, value, data]))`.
    pub fn signing_hash(&self) -> H256 {
        let mut out = Vec::new();
        rlp::put_list(&mut out, |out| self.put_fields(out));
        keccak256(&out)
    }

    /// Signs with a private key, producing a [`SignedTransaction`].
    pub fn sign(self, key: &PrivateKey) -> SignedTransaction {
        let sig = key.sign(self.signing_hash());
        SignedTransaction {
            tx: self,
            signature: sig,
        }
    }
}

/// A signed transaction ready for submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedTransaction {
    /// The payload.
    pub tx: Transaction,
    /// The sender's recoverable signature.
    pub signature: Signature,
}

impl SignedTransaction {
    /// Recovers the sender address from the signature.
    pub fn sender(&self) -> Result<Address, EcdsaError> {
        if !self.signature.is_low_s() {
            // EIP-2: high-s signatures are invalid in transactions.
            return Err(EcdsaError::InvalidSignature);
        }
        recover_address(self.tx.signing_hash(), &self.signature)
    }

    /// Transaction hash: keccak of the full signed RLP.
    pub fn hash(&self) -> H256 {
        keccak256(&self.encode())
    }

    /// Appends the nine-item signed RLP — the six signing fields
    /// followed by `v, r, s` — so a block can embed whole transactions
    /// in its own wire encoding.
    pub(crate) fn put(&self, out: &mut Vec<u8>) {
        rlp::put_list(out, |out| {
            self.tx.put_fields(out);
            wire::put_uint(u64::from(self.signature.v), out);
            wire::put_uint(self.signature.r.to_u256(), out);
            wire::put_uint(self.signature.s.to_u256(), out);
        });
    }

    /// Canonical wire bytes: the same RLP the transaction hash commits
    /// to, so `keccak(encode())` is the transaction identity on every
    /// node that decodes it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Decodes wire bytes produced by [`SignedTransaction::encode`].
    ///
    /// Only the shape is validated here; the sender is *not* recovered
    /// (importers call [`SignedTransaction::sender`] themselves, so a
    /// forged signature surfaces as an invalid-sender error, never as a
    /// trusted address).
    pub fn decode(bytes: &[u8]) -> Result<SignedTransaction, WireError> {
        SignedTransaction::from_rlp(Rlp::new(bytes)?)
    }

    /// Decodes one transaction from a validated RLP view.
    pub(crate) fn from_rlp(item: Rlp<'_>) -> Result<SignedTransaction, WireError> {
        let items: [Rlp; 9] = wire::fields(wire::as_list(item, "tx: expected list")?)
            .ok_or(WireError::Malformed("tx: expected 9 fields"))?;
        let v = wire::as_u64(items[6], "tx: v")?;
        if v > u8::MAX as u64 {
            return Err(WireError::Malformed("tx: v out of range"));
        }
        Ok(SignedTransaction {
            tx: Transaction {
                nonce: wire::as_u64(items[0], "tx: nonce")?,
                gas_price: wire::as_uint(items[1], "tx: gas_price")?,
                gas_limit: wire::as_u64(items[2], "tx: gas_limit")?,
                to: wire::as_opt_address(items[3], "tx: to")?,
                value: wire::as_uint(items[4], "tx: value")?,
                data: wire::as_bytes(items[5], "tx: data")?.to_vec(),
            },
            signature: Signature {
                v: v as u8,
                r: H256::from_u256(wire::as_uint(items[7], "tx: r")?),
                s: H256::from_u256(wire::as_uint(items[8], "tx: s")?),
            },
        })
    }
}

/// A convenience wrapper pairing a key with its address.
#[derive(Clone)]
pub struct Wallet {
    /// The signing key.
    pub key: PrivateKey,
    /// Cached address of `key`.
    pub address: Address,
}

impl std::fmt::Debug for Wallet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Wallet({})", self.address)
    }
}

impl Wallet {
    /// Wraps an existing key.
    pub fn new(key: PrivateKey) -> Wallet {
        Wallet {
            address: key.address(),
            key,
        }
    }

    /// Deterministic test wallet from a seed label ("alice", "bob", …).
    pub fn from_seed(seed: &str) -> Wallet {
        Wallet::new(PrivateKey::from_seed(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlp_reference::{self as reference, Item};

    fn sample_tx() -> Transaction {
        Transaction {
            nonce: 3,
            gas_price: sc_primitives::gwei(1),
            gas_limit: 100_000,
            to: Some(Address([0xaa; 20])),
            value: sc_primitives::ether(1),
            data: vec![1, 2, 3],
        }
    }

    #[test]
    fn sender_recovery_roundtrip() {
        let w = Wallet::from_seed("alice");
        let signed = sample_tx().sign(&w.key);
        assert_eq!(signed.sender().unwrap(), w.address);
    }

    #[test]
    fn tampering_changes_recovered_sender() {
        let w = Wallet::from_seed("alice");
        let mut signed = sample_tx().sign(&w.key);
        signed.tx.value = sc_primitives::ether(2);
        if let Ok(a) = signed.sender() {
            assert_ne!(a, w.address)
        }
    }

    #[test]
    fn create_tx_has_empty_to() {
        let tx = Transaction {
            to: None,
            ..sample_tx()
        };
        assert!(tx.is_create());
        // The RLP `to` field must be the empty string, not 20 zero bytes.
        let enc = tx.sign(&Wallet::from_seed("alice").key).encode();
        let Ok(Item::List(items)) = reference::decode(&enc) else {
            panic!("expected list");
        };
        assert_eq!(items[3], Item::bytes(Vec::new()));
    }

    #[test]
    fn hash_is_signature_dependent() {
        let alice = Wallet::from_seed("alice");
        let bob = Wallet::from_seed("bob");
        let h1 = sample_tx().sign(&alice.key).hash();
        let h2 = sample_tx().sign(&bob.key).hash();
        assert_ne!(h1, h2);
    }

    #[test]
    fn signing_hash_is_stable() {
        // Determinism pin: the same payload always hashes identically.
        assert_eq!(sample_tx().signing_hash(), sample_tx().signing_hash());
    }

    #[test]
    fn wire_roundtrip_preserves_identity() {
        let alice = Wallet::from_seed("alice");
        for tx in [
            sample_tx(),
            Transaction {
                to: None,
                value: U256::ZERO,
                data: vec![],
                ..sample_tx()
            },
        ] {
            let signed = tx.sign(&alice.key);
            let decoded = SignedTransaction::decode(&signed.encode()).unwrap();
            assert_eq!(decoded, signed);
            assert_eq!(decoded.hash(), signed.hash());
            assert_eq!(decoded.sender().unwrap(), alice.address);
        }
    }

    #[test]
    fn wire_decode_rejects_malformed() {
        let signed = sample_tx().sign(&Wallet::from_seed("alice").key);
        let mut bytes = signed.encode();
        bytes.push(0x00);
        assert!(matches!(
            SignedTransaction::decode(&bytes),
            Err(WireError::Rlp(_))
        ));
        // An 8-item list (missing s) decodes as RLP but fails the schema.
        let Ok(Item::List(mut items)) = reference::decode(&signed.encode()) else {
            panic!("expected list");
        };
        items.pop();
        assert!(matches!(
            SignedTransaction::decode(&reference::encode_list(&items)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn wallet_seeds_are_distinct() {
        assert_ne!(
            Wallet::from_seed("alice").address,
            Wallet::from_seed("bob").address
        );
    }
}
