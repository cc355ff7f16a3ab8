//! Blocks, headers, and transaction receipts.

use crate::tx::SignedTransaction;
use crate::wire::{self, WireError};
use sc_crypto::keccak256;
use sc_evm::host::LogEntry;
use sc_evm::VmError;
use sc_primitives::rlp::{self, Rlp};
use sc_primitives::{Address, H256};
use std::ops::Deref;

/// Why a transaction failed (mirrors what a node's RPC would surface).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureReason {
    /// Execution reverted, with the revert payload.
    Reverted(Vec<u8>),
    /// A hard VM error.
    VmError(VmError),
    /// Value transfer lacked funds at execution time.
    InsufficientBalance,
}

/// Execution receipt for one transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// Hash of the transaction.
    pub tx_hash: H256,
    /// Block that included it.
    pub block_number: u64,
    /// Index within the block.
    pub tx_index: usize,
    /// True iff execution succeeded.
    pub success: bool,
    /// Gas charged to the sender (after refunds).
    pub gas_used: u64,
    /// Address of the created contract, for creation transactions.
    pub contract_address: Option<Address>,
    /// Logs emitted.
    pub logs: Vec<LogEntry>,
    /// Return data (or revert payload).
    pub output: Vec<u8>,
    /// Failure detail when `success` is false.
    pub failure: Option<FailureReason>,
}

/// A mined block: its header and the transaction bodies whose hashes
/// the header commits. Reads of header fields go through `Deref`, so
/// `block.number` is `block.header.number`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The header: every commitment, and the block's identity.
    pub header: Header,
    /// Included transactions, in the order `header.tx_hashes` lists.
    pub transactions: Vec<SignedTransaction>,
}

impl Deref for Block {
    type Target = Header;

    fn deref(&self) -> &Header {
        &self.header
    }
}

impl AsRef<Header> for Block {
    fn as_ref(&self) -> &Header {
        &self.header
    }
}

/// A block header on its own: the commitments without the transaction
/// bodies. This is everything a light client tracks — enough to verify
/// chain linkage (`parent_hash`), pick between forks (height with hash
/// tiebreak), and check storage proofs against `state_root`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Header {
    /// Height.
    pub number: u64,
    /// Unix timestamp.
    pub timestamp: u64,
    /// Hash of the parent block.
    pub parent_hash: H256,
    /// Root of the account trie after executing this block — the
    /// commitment light verifiers check storage proofs against.
    pub state_root: H256,
    /// Root of the trie over this block's RLP-encoded receipts, keyed
    /// by `rlp(index)`.
    pub receipts_root: H256,
    /// Total gas used by the block.
    pub gas_used: u64,
    /// Hashes of the included transactions, in order. The block hash
    /// commits to these, so a header can't silently claim a different
    /// body than the full block it summarizes.
    pub tx_hashes: Vec<H256>,
    /// This header's hash: keccak of [`Header::encode`], always
    /// recomputed locally, never trusted from the wire.
    pub hash: H256,
}

impl AsRef<Header> for Header {
    fn as_ref(&self) -> &Header {
        self
    }
}

impl Header {
    /// Builds a header from its fields, computing the hash.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        number: u64,
        timestamp: u64,
        parent_hash: H256,
        state_root: H256,
        receipts_root: H256,
        gas_used: u64,
        tx_hashes: Vec<H256>,
    ) -> Header {
        let mut header = Header {
            number,
            timestamp,
            parent_hash,
            state_root,
            receipts_root,
            gas_used,
            tx_hashes,
            hash: H256::ZERO,
        };
        header.hash = keccak256(&header.encode());
        header
    }

    /// True iff `hash` commits the other fields: always so for a header
    /// built by [`Header::new`] or decoded from the wire, so only a
    /// hand-built one can fail.
    pub(crate) fn hash_commits_fields(&self) -> bool {
        keccak256(&self.encode()) == self.hash
    }

    /// Canonical wire bytes of the seven hashed fields — the bytes the
    /// hash is the keccak of. The hash itself is never serialized.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(|out| {
            for h in &self.tx_hashes {
                rlp::put_bytes(h.as_bytes(), out);
            }
        })
    }

    /// The list a header and a block share: the six scalar fields, then
    /// the list `txs` appends (hashes for a header, bodies for a block).
    fn encode_with(&self, txs: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        rlp::put_list(&mut out, |out| {
            wire::put_uint(self.number, out);
            wire::put_uint(self.timestamp, out);
            rlp::put_bytes(self.parent_hash.as_bytes(), out);
            rlp::put_bytes(self.state_root.as_bytes(), out);
            rlp::put_bytes(self.receipts_root.as_bytes(), out);
            wire::put_uint(self.gas_used, out);
            rlp::put_list(out, txs);
        });
        out
    }

    /// Decodes wire bytes produced by [`Header::encode`], recomputing
    /// the hash from the decoded fields.
    pub fn decode(bytes: &[u8]) -> Result<Header, WireError> {
        let (header, _) =
            Header::decode_with(bytes, |it| wire::as_h256(it, "header: tx hash"), |h| *h)?;
        Ok(header)
    }

    /// Decodes the list [`Header::encode_with`] writes: `tx` decodes
    /// each entry of the seventh item, `tx_hash` names its hash for the
    /// header built once from the result.
    fn decode_with<T>(
        bytes: &[u8],
        tx: impl Fn(Rlp<'_>) -> Result<T, WireError>,
        tx_hash: impl Fn(&T) -> H256,
    ) -> Result<(Header, Vec<T>), WireError> {
        let items: [Rlp; 7] =
            wire::fields(wire::as_list(Rlp::new(bytes)?, "header: expected list")?)
                .ok_or(WireError::Malformed("header: expected 7 fields"))?;
        let txs = wire::as_list(items[6], "header: transactions")?
            .map(tx)
            .collect::<Result<Vec<T>, WireError>>()?;
        let header = Header::new(
            wire::as_u64(items[0], "header: number")?,
            wire::as_u64(items[1], "header: timestamp")?,
            wire::as_h256(items[2], "header: parent_hash")?,
            wire::as_h256(items[3], "header: state_root")?,
            wire::as_h256(items[4], "header: receipts_root")?,
            wire::as_u64(items[5], "header: gas_used")?,
            txs.iter().map(tx_hash).collect(),
        );
        Ok((header, txs))
    }
}

impl Block {
    /// Canonical wire bytes: the six scalar header fields followed by
    /// the full transaction bodies (each as its signed nine-item RLP).
    pub fn encode(&self) -> Vec<u8> {
        self.header.encode_with(|out| {
            for tx in &self.transactions {
                tx.put(out);
            }
        })
    }

    /// Decodes wire bytes produced by [`Block::encode`], building the
    /// header from the decoded fields and the bodies' hashes — so a
    /// gossiped block's identity is always locally derived, never
    /// trusted.
    pub fn decode(bytes: &[u8]) -> Result<Block, WireError> {
        let (header, transactions) =
            Header::decode_with(bytes, SignedTransaction::from_rlp, SignedTransaction::hash)?;
        Ok(Block {
            header,
            transactions,
        })
    }
}

impl Receipt {
    /// Canonical RLP of the receipt's consensus fields — `[status,
    /// gas_used, logs]` with each log as `[address, topics, data]` —
    /// the leaf committed into a block's receipts trie. (Indexing
    /// fields like `tx_hash` stay out: the trie key `rlp(index)`
    /// already fixes the position.)
    pub fn rlp_encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        rlp::put_list(&mut out, |out| {
            wire::put_uint(u64::from(self.success), out);
            wire::put_uint(self.gas_used, out);
            rlp::put_list(out, |out| {
                for log in &self.logs {
                    rlp::put_list(out, |out| {
                        rlp::put_bytes(log.address.as_bytes(), out);
                        rlp::put_list(out, |out| {
                            for topic in &log.topics {
                                rlp::put_bytes(topic.as_bytes(), out);
                            }
                        });
                        rlp::put_bytes(&log.data, out);
                    });
                }
            });
        });
        out
    }
}

/// The receipts trie's key for the receipt at `index`: `rlp(index)`.
pub(crate) fn receipt_key(index: u64) -> Vec<u8> {
    let mut key = Vec::new();
    wire::put_uint(index, &mut key);
    key
}

/// Root of the trie over a block's receipts, keyed by `rlp(index)` —
/// the `receipts_root` sealed into the header. Receipts must be passed
/// in transaction order with `tx_index` already assigned.
pub fn receipts_root<'a>(receipts: impl IntoIterator<Item = &'a Receipt>) -> H256 {
    let mut trie = sc_trie::Trie::new();
    for r in receipts {
        trie.insert(&receipt_key(r.tx_index as u64), r.rlp_encode());
    }
    trie.root()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_trie::empty_root;

    fn hash_with(number: u64, timestamp: u64, state_root: H256, gas: u64) -> H256 {
        Header::new(
            number,
            timestamp,
            H256::ZERO,
            state_root,
            empty_root(),
            gas,
            vec![],
        )
        .hash
    }

    #[test]
    fn block_hash_depends_on_contents() {
        let h1 = hash_with(1, 100, empty_root(), 0);
        assert_ne!(h1, hash_with(2, 100, empty_root(), 0), "number");
        assert_ne!(h1, hash_with(1, 101, empty_root(), 0), "timestamp");
        assert_ne!(h1, hash_with(1, 100, H256::ZERO, 0), "state root");
        assert_ne!(h1, hash_with(1, 100, empty_root(), 21_000), "gas used");
        assert_eq!(h1, hash_with(1, 100, empty_root(), 0));
    }

    #[test]
    fn header_matches_block_and_roundtrips() {
        use crate::tx::{Transaction, Wallet};
        use sc_primitives::U256;
        let alice = Wallet::from_seed("alice");
        let tx = Transaction {
            nonce: 0,
            gas_price: sc_primitives::gwei(1),
            gas_limit: 21_000,
            to: Some(Address([0x11; 20])),
            value: U256::ONE,
            data: vec![],
        }
        .sign(&alice.key);
        let header = Header::new(
            7,
            1000,
            H256([3; 32]),
            H256([4; 32]),
            empty_root(),
            21_000,
            vec![tx.hash()],
        );
        let block = Block {
            header: header.clone(),
            transactions: vec![tx],
        };
        let decoded_header = Header::decode(&header.encode()).unwrap();
        assert_eq!(decoded_header, header);
        let decoded_block = Block::decode(&block.encode()).unwrap();
        assert_eq!(decoded_block, block);
        assert_eq!(decoded_block.hash, block.hash, "identity re-derived");
    }

    #[test]
    fn decode_recomputes_hash_from_contents() {
        // Tampering with an encoded block changes the locally derived
        // hash — a peer can't forward a block under a false identity.
        let block = Block {
            header: Header::new(1, 50, H256([9; 32]), H256([2; 32]), empty_root(), 0, vec![]),
            transactions: vec![],
        };
        let mut tampered = block.clone();
        tampered.header.state_root = H256([5; 32]); // keep the stale hash field
        let decoded = Block::decode(&tampered.encode()).unwrap();
        assert_ne!(decoded.hash, block.hash);
        assert_eq!(
            decoded.hash,
            Header::new(1, 50, H256([9; 32]), H256([5; 32]), empty_root(), 0, vec![]).hash
        );
    }

    #[test]
    fn receipts_root_commits_contents_and_order() {
        let receipt = |i: usize, gas: u64| Receipt {
            tx_hash: H256::ZERO,
            block_number: 1,
            tx_index: i,
            success: true,
            gas_used: gas,
            contract_address: None,
            logs: vec![],
            output: vec![],
            failure: None,
        };
        assert_eq!(receipts_root([]), empty_root());
        let a = [receipt(0, 21_000), receipt(1, 30_000)];
        let b = [receipt(0, 21_000), receipt(1, 30_001)];
        let swapped = [receipt(0, 30_000), receipt(1, 21_000)];
        assert_eq!(receipts_root(a.iter()), receipts_root(a.iter()));
        assert_ne!(receipts_root(a.iter()), receipts_root(b.iter()), "gas");
        assert_ne!(
            receipts_root(a.iter()),
            receipts_root(swapped.iter()),
            "order"
        );
        // Status and logs are committed too.
        let mut failed = a.clone();
        failed[1].success = false;
        assert_ne!(receipts_root(a.iter()), receipts_root(failed.iter()));
    }
}
