//! Transaction admission: signature recovery, the stateless checks and
//! the pool's fee market. Everything between a signed transaction
//! arriving and the miner packing it lives here.

use super::Testnet;
use crate::tx::{SignedTransaction, Transaction};
use sc_evm::{gas, Host};
use sc_mempool::{PoolError, TxMeta};
use sc_primitives::{Address, H256, U256};
use std::fmt;

/// Transaction admission errors (mempool-level rejections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// Signature did not recover.
    BadSignature,
    /// The chain already consumed this nonce. (One *above* the account's
    /// next nonce is no error: the pool holds it until the gap fills.)
    BadNonce {
        /// Nonce required by the account state.
        expected: u64,
        /// Nonce carried by the transaction.
        got: u64,
    },
    /// Balance cannot cover `value + gas_limit * gas_price`.
    InsufficientFunds,
    /// `gas_limit` below the intrinsic cost of the payload.
    IntrinsicGasTooLow {
        /// The computed intrinsic cost.
        required: u64,
    },
    /// `gas_limit` above the block gas limit.
    ExceedsBlockGasLimit,
    /// The sender's nonce slot is already taken in the pool and this
    /// transaction did not offer the required replacement fee bump.
    Underpriced {
        /// The minimum gas price a replacement must offer.
        required: U256,
    },
    /// The pool is full and this fee does not beat the cheapest
    /// resident's.
    PoolFull {
        /// The gas price the transaction must exceed to be admitted.
        must_exceed: U256,
    },
    /// The transaction was admitted earlier but displaced before it
    /// could be mined (capacity eviction or a same-nonce replacement).
    /// Re-submitting at a higher fee is the remedy.
    Evicted,
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::BadSignature => write!(f, "invalid signature"),
            TxError::BadNonce { expected, got } => {
                write!(f, "bad nonce: expected {expected}, got {got}")
            }
            TxError::InsufficientFunds => write!(f, "insufficient funds for gas * price + value"),
            TxError::IntrinsicGasTooLow { required } => {
                write!(f, "intrinsic gas too low: need {required}")
            }
            TxError::ExceedsBlockGasLimit => write!(f, "gas limit exceeds block gas limit"),
            TxError::Underpriced { required } => {
                write!(f, "replacement underpriced: need gas price >= {required}")
            }
            TxError::PoolFull { must_exceed } => {
                write!(f, "transaction pool full: need gas price > {must_exceed}")
            }
            TxError::Evicted => write!(f, "transaction evicted from the pool"),
        }
    }
}

impl std::error::Error for TxError {}

/// A transaction admitted to the pool, with the derivations made at
/// admission time cached alongside it.
///
/// Sender recovery (~an ECDSA scalar-mul) and the two keccaks are paid
/// once here; sealing and [`Testnet::effective_nonce`] read the cached
/// fields instead of re-deriving per transaction.
pub(super) struct PendingTx {
    pub(super) signed: SignedTransaction,
    pub(super) sender: Address,
    pub(super) hash: H256,
    pub(super) intrinsic: u64,
}

impl Testnet {
    /// Derives every cached field from the raw transaction, at admission
    /// and at block import alike. The sender is one this node recovered
    /// itself: the pool's or the receipt index's entry under the same
    /// transaction hash, which commits `v, r, s`, or else a fresh
    /// recovery. Nothing a peer says about senders is taken on faith.
    /// A signature that does not recover (or is high-s) is a typed
    /// [`TxError`], never a panic: a malformed gossiped transaction must
    /// not crash the node.
    pub(super) fn derive(&self, signed: SignedTransaction) -> Result<PendingTx, TxError> {
        let hash = signed.hash();
        let known = self
            .pool
            .sender_of(hash)
            .or_else(|| self.receipt_index.get(&hash).map(|&(_, _, sender)| sender));
        let sender = match known {
            Some(sender) => sender,
            None => signed.sender().map_err(|_| TxError::BadSignature)?,
        };
        Ok(PendingTx {
            sender,
            hash,
            intrinsic: gas::tx_intrinsic_gas(&signed.tx.data, signed.tx.is_create()),
            signed,
        })
    }
}

/// What a transaction must hold before it runs: `gas_limit × gas_price
/// + value`. The fields are outside input, so the sum is checked:
/// `None` is a cost no balance can cover.
pub(super) fn upfront_cost(tx: &Transaction) -> Option<U256> {
    U256::from_u64(tx.gas_limit)
        .checked_mul(tx.gas_price)?
        .checked_add(tx.value)
}

impl Testnet {
    /// Validates a signed transaction and admits it to the pool.
    pub fn submit(&mut self, signed: SignedTransaction) -> Result<H256, TxError> {
        self.admit(self.derive(signed)?)
    }

    /// Validates and admits a whole batch in order: per-entry results
    /// are exactly what [`Testnet::submit`]ing each transaction would
    /// return, since that is what it does.
    pub fn submit_batch(&mut self, txs: Vec<SignedTransaction>) -> Vec<Result<H256, TxError>> {
        txs.into_iter().map(|signed| self.submit(signed)).collect()
    }

    /// State-dependent half of admission, once the sender is recovered.
    ///
    /// The nonce rule is "not yet mined", not "exactly next": the pool
    /// holds future nonces until the gap fills. The pool's fee market
    /// gets the final word — a taken nonce slot demands the replacement
    /// bump, a full pool demands a fee above the cheapest resident's.
    fn admit(&mut self, ptx: PendingTx) -> Result<H256, TxError> {
        let tx = &ptx.signed.tx;
        let base = self.state.nonce(ptx.sender);
        if tx.nonce < base {
            return Err(TxError::BadNonce {
                expected: base,
                got: tx.nonce,
            });
        }
        if tx.gas_limit > self.config.block_gas_limit {
            return Err(TxError::ExceedsBlockGasLimit);
        }
        if tx.gas_limit < ptx.intrinsic {
            return Err(TxError::IntrinsicGasTooLow {
                required: ptx.intrinsic,
            });
        }
        if upfront_cost(tx).is_none_or(|cost| self.state.balance(ptx.sender) < cost) {
            return Err(TxError::InsufficientFunds);
        }
        let hash = ptx.hash;
        let meta = TxMeta {
            sender: ptx.sender,
            nonce: tx.nonce,
            gas_price: tx.gas_price,
            gas_limit: tx.gas_limit,
            hash,
        };
        match self.pool.insert(meta, ptx, self.time) {
            Ok(_) => Ok(hash),
            Err(PoolError::Underpriced { required }) => Err(TxError::Underpriced { required }),
            Err(PoolError::Full { must_exceed }) => Err(TxError::PoolFull { must_exceed }),
        }
    }

    /// Next nonce accounting for pooled transactions — what a
    /// self-signing client must use for its next submission: the
    /// account nonce advanced past the sender's contiguous run of
    /// pooled nonces. Public so session engines batching transactions
    /// from many senders can sign against the pool-aware nonce.
    pub fn effective_nonce(&self, sender: Address) -> u64 {
        self.pool.next_nonce(sender, self.state.nonce(sender))
    }

    /// Number of transactions admitted but not yet mined (fault-injection
    /// hook: lets wrappers observe what a dropped/delayed block holds).
    pub fn pending_count(&self) -> usize {
        self.pool.len()
    }

    /// True when the transaction sits in the pool, not yet mined.
    pub fn tx_is_pending(&self, hash: H256) -> bool {
        self.pool.contains(hash)
    }

    /// Hashes displaced from the pool (replacement, capacity eviction)
    /// or left out of a block at the seal since the last drain.
    pub fn drain_evicted(&mut self) -> Vec<H256> {
        let mut gone = self.pool.drain_evicted();
        gone.append(&mut self.refused);
        gone
    }

    /// Drops pooled transactions whose nonce the canonical chain has
    /// already consumed — mined via an imported block, or made stale by
    /// a reorg. Pruned hashes land in the pool's evicted log, so
    /// callers draining evictions must check for a receipt first (a
    /// mined-elsewhere transaction is *done*, not displaced).
    pub fn prune_pool(&mut self) {
        let state = &self.state;
        self.pool.prune(|a| state.nonce(a));
    }
}
