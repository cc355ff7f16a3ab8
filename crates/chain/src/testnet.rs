//! A single-node Ethereum-style test network ("Kovan simulator").
//!
//! Deterministic, in-process, instant-sealing: every submitted transaction
//! lands in the next mined block, blocks carry a controllable timestamp
//! (the paper's betting windows T0..T3 are driven by `block.timestamp`),
//! and gas accounting follows the Yellow-Paper rules end to end:
//! intrinsic gas, execution, the refund cap of `gas_used / 2`, and miner
//! payment.

use crate::block::{self, Block, FailureReason, Receipt};
use crate::parallel::{self, ExecMode, SealReport};
use crate::proof::{AccountProof, ReceiptProof, StorageProof};
use crate::state::{DiffLayer, WorldState};
use crate::tx::{SignedTransaction, Transaction, Wallet};
use sc_crypto::ecdsa::recover_addresses_batch;
use sc_evm::gas;
use sc_evm::host::{BlockEnv, Env, Host, TxEnv};
use sc_evm::{AnalysisCache, CallParams, Evm};
use sc_mempool::{Mempool, PoolConfig, PoolError, TxMeta};
use sc_primitives::{Address, H256, U256};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Transaction admission errors (mempool-level rejections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// Signature did not recover.
    BadSignature,
    /// Nonce does not match the account's next nonce.
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
    /// Pooled mode: a same-nonce replacement did not offer the
    /// required fee bump.
    Underpriced {
        /// The minimum gas price a replacement must offer.
        required: U256,
    },
    /// Pooled mode: the pool is full and this fee does not beat the
    /// cheapest resident's.
    PoolFull {
        /// The gas price the transaction must exceed to be admitted.
        must_exceed: U256,
    },
    /// Pooled mode: the transaction was admitted earlier but displaced
    /// before it could be mined (capacity eviction or a same-nonce
    /// replacement). Re-submitting at a higher fee is the remedy.
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

/// Why [`Testnet::import_block`] refused a gossiped block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportError {
    /// Replaying the block's transactions did not reproduce the header:
    /// a signature failed to recover, an admission rule was violated,
    /// or the recomputed `state_root` / `receipts_root` / gas total
    /// disagreed with what the header claims.
    InvalidBlock {
        /// Which check failed.
        reason: &'static str,
    },
    /// Adopting the block's branch would roll back below the oldest
    /// undo layer this chain still holds (or history tracking is off).
    TooDeep,
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::InvalidBlock { reason } => write!(f, "invalid block: {reason}"),
            ImportError::TooDeep => write!(f, "reorg deeper than retained history"),
        }
    }
}

impl std::error::Error for ImportError {}

/// What [`Testnet::import_block`] did with a gossiped block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportOutcome {
    /// The block was already canonical or already stored as a side
    /// block — nothing changed. (Receivers use this to stop flooding.)
    AlreadyKnown,
    /// Stored as a side block; the canonical head did not change
    /// (lighter branch, or its ancestry has not connected yet).
    Side,
    /// The block extended the canonical head directly.
    Extended,
    /// A heavier branch won fork choice: `reverted` canonical blocks
    /// were rolled back and `applied` branch blocks replayed.
    Reorged {
        /// Canonical blocks rolled back.
        reverted: u64,
        /// Branch blocks applied in their place.
        applied: u64,
        /// Transactions that were in the reverted blocks but not in the
        /// new branch — no receipt exists for them any more, and their
        /// senders must resubmit.
        orphaned_txs: Vec<SignedTransaction>,
    },
}

/// Result of a read-only [`Testnet::call`].
///
/// A reverted `eth_call` used to be indistinguishable from a successful
/// one returning the same bytes; the flag makes the distinction typed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallResult {
    /// Return data (revert data when `reverted`).
    pub output: Vec<u8>,
    /// True iff execution did not complete successfully (explicit
    /// `REVERT` or a VM error such as out-of-gas).
    pub reverted: bool,
}

/// Configuration of the simulated network.
#[derive(Clone, Debug)]
pub struct ChainConfig {
    /// Seconds between blocks (Kovan used 4s).
    pub block_interval: u64,
    /// Block gas limit.
    pub block_gas_limit: u64,
    /// Miner beneficiary.
    pub coinbase: Address,
    /// Genesis timestamp.
    pub genesis_timestamp: u64,
    /// Gas price assumed by the convenience senders.
    pub default_gas_price: U256,
    /// Whether sealed blocks carry real `state_root` / `receipts_root`
    /// commitments (the default). Disabling skips the trie folds and
    /// seals zero roots — only the root-overhead benchmark should do
    /// this, as it breaks every proof and commitment invariant.
    pub commit_roots: bool,
    /// When set, arms the state engine's pruning archive with this
    /// retention window: each sealed block's changed trie spines are
    /// committed into a refcounted node store, historical storage
    /// proofs within the window are served by
    /// [`Testnet::prove_storage_at`], and nodes no retained root
    /// reaches are freed as the window slides. `None` (the default)
    /// keeps the archive off — live tries only, no extra memory.
    /// Requires `commit_roots`.
    pub prune_window: Option<usize>,
    /// How blocks execute their transactions. The default honours the
    /// `SC_EXEC_MODE` environment variable (see [`ExecMode::from_env`])
    /// and is [`ExecMode::Serial`] when unset, so the chaos suite and
    /// every existing test keep the reference executor unless CI
    /// explicitly opts a whole process into [`ExecMode::Parallel`].
    pub exec: ExecMode,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            block_interval: 4,
            block_gas_limit: 8_000_000,
            coinbase: Address([0xc0; 20]),
            genesis_timestamp: 1_550_000_000, // Feb 2019, the paper's era
            default_gas_price: sc_primitives::gwei(1),
            commit_roots: true,
            prune_window: None,
            exec: ExecMode::from_env(),
        }
    }
}

/// A transaction admitted to the mempool, with the derivations made at
/// admission time cached alongside it.
///
/// Sender recovery (~an ECDSA scalar-mul) and the two keccaks are paid
/// once here; the mining commit phase and [`Testnet::effective_nonce`]
/// read the cached fields instead of re-deriving per transaction (the
/// seed re-recovered the sender O(pending) times per submit).
pub(crate) struct PendingTx {
    pub(crate) signed: SignedTransaction,
    pub(crate) sender: Address,
    pub(crate) hash: H256,
    pub(crate) intrinsic: u64,
}

impl PendingTx {
    /// Re-derives every cached field from the raw transaction, serially.
    /// This is the reference path: `mine_block_serial` rebuilds its
    /// pending set through here so the determinism suite can assert the
    /// cached/parallel pipeline changes nothing observable.
    ///
    /// A transaction whose signature no longer recovers is a typed
    /// [`TxError`], never a panic: admission validates before queueing, so
    /// the error is unreachable from the public API, but a malformed
    /// transaction handed to the reference path must not crash the node.
    fn derive(signed: SignedTransaction) -> Result<PendingTx, TxError> {
        let sender = signed.sender().map_err(|_| TxError::BadSignature)?;
        Ok(PendingTx {
            sender,
            hash: signed.hash(),
            intrinsic: gas::tx_intrinsic_gas(&signed.tx.data, signed.tx.is_create()),
            signed,
        })
    }
}

/// The simulated chain.
pub struct Testnet {
    /// World state (public for inspection in tests and benchmarks).
    pub state: WorldState,
    config: ChainConfig,
    blocks: Vec<Block>,
    pending: Vec<PendingTx>,
    receipts: HashMap<H256, Receipt>,
    /// Per-address log index: for each emitting address, the ascending
    /// list of block numbers holding at least one of its logs. Updated
    /// at commit time so address-filtered [`Testnet::logs`] queries
    /// touch only the relevant blocks instead of scanning the chain.
    log_index: HashMap<Address, Vec<u64>>,
    /// The fee market, when pooled mining is enabled: transactions are
    /// admitted here instead of `pending`, and the miner *packs* a block
    /// under the gas limit instead of taking everything. `None` keeps
    /// the historical behaviour (every admitted tx lands in the next
    /// block) bit-for-bit.
    pool: Option<Mempool<PendingTx>>,
    time: u64,
    /// Wei ever created through the faucet. Since the EVM only moves
    /// value, `state.total_balance()` must equal this after every block —
    /// the conservation invariant the fault-injection suite asserts.
    minted: U256,
    /// Jumpdest analyses shared by every EVM this chain spins up, so a
    /// contract's bitmap is computed once across all blocks and calls.
    analysis_cache: Arc<AnalysisCache>,
    /// Executor statistics of the most recently sealed block.
    last_seal: Option<SealReport>,
    /// Canonical hash → height index, maintained through seals and
    /// reorgs so gossip dedup and fork-point walks are O(1) per block.
    canon_index: HashMap<H256, u64>,
    /// Blocks received via gossip that are not canonical (competing
    /// branches, or blocks whose ancestry has not connected yet),
    /// keyed by hash. Canonical blocks that a reorg orphans move here
    /// so a counter-reorg can restore them without re-gossip.
    side_blocks: HashMap<H256, Block>,
    /// Per-block undo layers and rollback bookkeeping, when
    /// [`Testnet::enable_history`] has armed reorg support.
    history: Option<HistoryTracking>,
}

/// Rollback bookkeeping for one sealed block: the state undo layer plus
/// the chain-level values (`minted`, clock) as they stood when the
/// layer opened, i.e. right after the parent sealed.
struct BlockUndoRec {
    undo: DiffLayer,
    minted_before: U256,
    time_before: u64,
}

/// Reorg support state: one undo record per block sealed since history
/// was enabled, newest last, plus the open-layer snapshot values.
struct HistoryTracking {
    undo_stack: Vec<BlockUndoRec>,
    /// `minted` when the currently open undo layer began.
    open_minted: U256,
    /// The clock when the currently open undo layer began.
    open_time: u64,
}

impl Testnet {
    /// Boots a chain with the default configuration.
    pub fn new() -> Self {
        Self::with_config(ChainConfig::default())
    }

    /// Boots a chain with a custom configuration.
    pub fn with_config(config: ChainConfig) -> Self {
        // Genesis commits the empty tries: nothing exists yet.
        let genesis = Block {
            number: 0,
            timestamp: config.genesis_timestamp,
            parent_hash: H256::ZERO,
            hash: Block::compute_hash(
                0,
                config.genesis_timestamp,
                H256::ZERO,
                sc_trie::empty_root(),
                sc_trie::empty_root(),
                0,
                &[],
            ),
            state_root: sc_trie::empty_root(),
            receipts_root: sc_trie::empty_root(),
            transactions: Vec::new(),
            gas_used: 0,
        };
        let mut state = WorldState::new();
        if let Some(window) = config.prune_window {
            debug_assert!(config.commit_roots, "pruning archive needs commit_roots");
            state.enable_pruning(window);
            // Archive the genesis commitment (the empty tries) so the
            // window starts populated at block 0.
            state.state_root();
            state.commit_archive();
        }
        state.block_hashes.insert(0, genesis.hash);
        let canon_index = HashMap::from([(genesis.hash, 0)]);
        Testnet {
            state,
            time: config.genesis_timestamp,
            config,
            blocks: vec![genesis],
            pending: Vec::new(),
            pool: None,
            receipts: HashMap::new(),
            log_index: HashMap::new(),
            minted: U256::ZERO,
            analysis_cache: Arc::new(AnalysisCache::new()),
            last_seal: None,
            canon_index,
            side_blocks: HashMap::new(),
            history: None,
        }
    }

    /// The shared code-analysis cache (hit/miss stats for benchmarks).
    pub fn analysis_cache(&self) -> &Arc<AnalysisCache> {
        &self.analysis_cache
    }

    /// The chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Current head block.
    pub fn head(&self) -> &Block {
        self.blocks.last().expect("genesis always present")
    }

    /// Merkle proof that `(address, slot)` holds its current value,
    /// anchored to the current folded state root. Immediately after a
    /// block seals (and until the next faucet mint or write) that root
    /// *is* the head header's `state_root`, so the proof lets a light
    /// verifier check the slot against the chain's own commitment —
    /// see [`StorageProof::verify`].
    pub fn prove_storage(&mut self, address: Address, slot: U256) -> StorageProof {
        debug_assert!(
            self.config.commit_roots,
            "storage proofs need commit_roots enabled"
        );
        self.state.prove_storage(address, slot)
    }

    /// Merkle proof that `(address, slot)` held its value at block
    /// `number` — served statelessly from the pruning archive, so it
    /// works for any canonical block whose root is still inside the
    /// retention window. `None` when the block is unknown, pruning is
    /// off ([`ChainConfig::prune_window`]), or the root has slid out of
    /// the window.
    pub fn prove_storage_at(
        &self,
        number: u64,
        address: Address,
        slot: U256,
    ) -> Option<StorageProof> {
        let root = self.block(number)?.state_root;
        self.state.prove_storage_at(root, address, slot).ok()
    }

    /// Merkle proof that `address` holds its current nonce and balance,
    /// anchored to the current folded state root (see
    /// [`Testnet::prove_storage`] for the anchoring rule). This is what
    /// a light submitter requests from its relay to cross-check nonce
    /// advice against the chain's own commitment.
    pub fn prove_account(&mut self, address: Address) -> AccountProof {
        debug_assert!(
            self.config.commit_roots,
            "account proofs need commit_roots enabled"
        );
        self.state.prove_account(address)
    }

    /// Merkle proof that `address` held its nonce and balance at block
    /// `number` — served statelessly from the pruning archive like
    /// [`Testnet::prove_storage_at`]. `None` when the block is unknown,
    /// pruning is off, or the root slid out of the retention window.
    pub fn prove_account_at(&self, number: u64, address: Address) -> Option<AccountProof> {
        let root = self.block(number)?.state_root;
        self.state.prove_account_at(root, address).ok()
    }

    /// Receipt-inclusion proof for a mined transaction: the receipt's
    /// consensus encoding plus its Merkle path in the block's receipts
    /// trie, verifiable against that header's `receipts_root` by a
    /// verifier holding nothing but headers
    /// ([`crate::light::HeaderClient::verified_receipt`]). `None` while
    /// the transaction is not mined on the canonical chain.
    pub fn prove_receipt(&self, tx_hash: H256) -> Option<ReceiptProof> {
        let receipt = self.receipt(tx_hash)?;
        let (block_number, tx_index) = (receipt.block_number, receipt.tx_index as u64);
        let receipt_rlp = receipt.rlp_encode();
        let mut trie = sc_trie::Trie::new();
        for r in self.receipts_in_block(block_number) {
            trie.insert(
                &sc_primitives::rlp::encode(&sc_primitives::rlp::Item::u64(r.tx_index as u64)),
                r.rlp_encode(),
            );
        }
        let proof = trie.prove(&sc_primitives::rlp::encode(&sc_primitives::rlp::Item::u64(
            tx_index,
        )));
        Some(ReceiptProof {
            tx_hash,
            block_number,
            tx_index,
            receipt_rlp,
            proof,
        })
    }

    /// Block by number.
    pub fn block(&self, number: u64) -> Option<&Block> {
        self.blocks.get(number as usize)
    }

    /// Receipt by transaction hash.
    pub fn receipt(&self, tx_hash: H256) -> Option<&Receipt> {
        self.receipts.get(&tx_hash)
    }

    /// All receipts in a block, in transaction order.
    pub fn receipts_in_block(&self, number: u64) -> Vec<&Receipt> {
        let Some(block) = self.block(number) else {
            return Vec::new();
        };
        let mut out: Vec<&Receipt> = block
            .transactions
            .iter()
            .filter_map(|t| self.receipts.get(&t.hash()))
            .collect();
        out.sort_by_key(|r| r.tx_index);
        out
    }

    /// Log query in the spirit of `eth_getLogs`: all logs in the block
    /// range `[from, to]`, optionally filtered by emitting address.
    ///
    /// Address-filtered queries go through the per-address index built
    /// at commit time, visiting only blocks that actually hold logs from
    /// that address — O(matching blocks), not O(chain length) — so
    /// session watchers polling for their contract's events stay cheap
    /// on a long shared chain.
    pub fn logs(&self, from: u64, to: u64, address: Option<Address>) -> Vec<sc_evm::LogEntry> {
        let to = to.min(self.head().number);
        let mut out = Vec::new();
        let mut scan = |n: u64, address: Option<Address>| {
            for receipt in self.receipts_in_block(n) {
                for log in &receipt.logs {
                    if address.is_none_or(|a| a == log.address) {
                        out.push(log.clone());
                    }
                }
            }
        };
        match address {
            Some(a) => {
                let blocks = self.log_index.get(&a).map_or(&[][..], Vec::as_slice);
                let start = blocks.partition_point(|&n| n < from);
                for &n in blocks[start..].iter().take_while(|&&n| n <= to) {
                    scan(n, address);
                }
            }
            None => {
                for n in from..=to {
                    scan(n, None);
                }
            }
        }
        out
    }

    /// The timestamp the *next* block will carry.
    pub fn now(&self) -> u64 {
        self.time + self.config.block_interval
    }

    /// Jumps the clock forward (models waiting for T1/T2/T3).
    pub fn advance_time(&mut self, seconds: u64) {
        self.time += seconds;
    }

    /// Mints balance (faucet / genesis allocation).
    pub fn faucet(&mut self, a: Address, amount: U256) {
        self.minted = self.minted.wrapping_add(amount);
        self.state.mint(a, amount);
    }

    /// Total wei ever minted through [`Testnet::faucet`]. Everything else
    /// the chain does is a transfer, so `state.total_balance()` must equal
    /// this at every block boundary (ether conservation).
    pub fn total_minted(&self) -> U256 {
        self.minted
    }

    /// Number of transactions admitted but not yet mined (fault-injection
    /// hook: lets wrappers observe what a dropped/delayed block holds).
    /// Counts the pool's residents in pooled mode.
    pub fn pending_count(&self) -> usize {
        self.pending.len() + self.pool.as_ref().map_or(0, Mempool::len)
    }

    /// Switches the chain to pooled mining: admissions go through a
    /// [`Mempool`] fee market and [`Testnet::mine_block`] *packs* a block
    /// under the configured block gas limit instead of sealing everything
    /// pending. Anything already queued migrates into the pool.
    pub fn enable_pool(&mut self, config: PoolConfig) {
        let mut pool = Mempool::new(config);
        let now = self.time;
        for ptx in self.pending.drain(..) {
            let meta = TxMeta {
                sender: ptx.sender,
                nonce: ptx.signed.tx.nonce,
                gas_price: ptx.signed.tx.gas_price,
                gas_limit: ptx.signed.tx.gas_limit,
                hash: ptx.hash,
            };
            // Already admitted once; nonce slots are distinct by
            // construction, so migration cannot fail.
            let admitted = pool.insert(meta, ptx, now);
            debug_assert!(admitted.is_ok(), "migrating distinct nonces cannot clash");
        }
        self.pool = Some(pool);
    }

    /// True when [`Testnet::enable_pool`] has switched this chain to
    /// pooled mining.
    pub fn pool_enabled(&self) -> bool {
        self.pool.is_some()
    }

    /// Hashes displaced from the pool (replacement, capacity eviction)
    /// since the last drain. Empty in outbox mode.
    pub fn drain_evicted(&mut self) -> Vec<H256> {
        self.pool
            .as_mut()
            .map(Mempool::drain_evicted)
            .unwrap_or_default()
    }

    /// Creates a funded deterministic wallet.
    pub fn funded_wallet(&mut self, seed: &str, balance: U256) -> Wallet {
        let w = Wallet::from_seed(seed);
        self.faucet(w.address, balance);
        w
    }

    /// Next valid nonce for an address (pending txs not counted).
    pub fn nonce_of(&self, a: Address) -> u64 {
        self.state.nonce(a)
    }

    /// Balance lookup.
    pub fn balance_of(&self, a: Address) -> U256 {
        self.state.balance(a)
    }

    /// Deployed code lookup.
    pub fn code_at(&self, a: Address) -> Vec<u8> {
        self.state.code(a).as_ref().clone()
    }

    /// Storage lookup.
    pub fn storage_at(&self, a: Address, key: U256) -> U256 {
        self.state.storage(a, key)
    }

    /// Validates and enqueues a signed transaction.
    pub fn submit(&mut self, signed: SignedTransaction) -> Result<H256, TxError> {
        let sender = signed.sender().map_err(|_| TxError::BadSignature)?;
        let intrinsic = gas::tx_intrinsic_gas(&signed.tx.data, signed.tx.is_create());
        self.admit(signed, sender, intrinsic)
    }

    /// Validates and enqueues a whole batch, recovering senders in
    /// parallel across CPU cores.
    ///
    /// Per-entry results are exactly what [`Testnet::submit`]ing each
    /// transaction in order would return: sender recovery is a pure
    /// function (fanned out via [`recover_addresses_batch`]), and the
    /// state-dependent checks — nonce sequencing, balance, block gas
    /// limit — run in the sequential admission loop below, so an entry
    /// sees every earlier entry's admission just like serial submits.
    pub fn submit_batch(&mut self, txs: Vec<SignedTransaction>) -> Vec<Result<H256, TxError>> {
        // Cheap serial pass: signing digests + intrinsic gas (pure, O(data)).
        let digests: Vec<_> = txs
            .iter()
            .map(|s| (s.tx.signing_hash(), s.signature))
            .collect();
        let intrinsics: Vec<u64> = txs
            .iter()
            .map(|s| gas::tx_intrinsic_gas(&s.tx.data, s.tx.is_create()))
            .collect();

        // Parallel pass: the expensive curve recoveries.
        let senders = recover_addresses_batch(&digests);

        // Sequential admission: order-sensitive, state-dependent checks.
        txs.into_iter()
            .zip(senders)
            .zip(intrinsics)
            .map(|((signed, sender), intrinsic)| {
                // EIP-2 low-s: checked here (not in the recovery kernel) to
                // mirror `SignedTransaction::sender` exactly.
                if !signed.signature.is_low_s() {
                    return Err(TxError::BadSignature);
                }
                let sender = sender.map_err(|_| TxError::BadSignature)?;
                self.admit(signed, sender, intrinsic)
            })
            .collect()
    }

    /// State-dependent half of admission, shared by the serial and batch
    /// submit paths. `sender` and `intrinsic` were derived by the caller.
    fn admit(
        &mut self,
        signed: SignedTransaction,
        sender: Address,
        intrinsic: u64,
    ) -> Result<H256, TxError> {
        if self.pool.is_some() {
            return self.admit_pooled(signed, sender, intrinsic);
        }
        let expected = self.effective_nonce(sender);
        if signed.tx.nonce != expected {
            return Err(TxError::BadNonce {
                expected,
                got: signed.tx.nonce,
            });
        }
        if signed.tx.gas_limit > self.config.block_gas_limit {
            return Err(TxError::ExceedsBlockGasLimit);
        }
        if signed.tx.gas_limit < intrinsic {
            return Err(TxError::IntrinsicGasTooLow {
                required: intrinsic,
            });
        }
        let upfront = U256::from_u64(signed.tx.gas_limit)
            .wrapping_mul(signed.tx.gas_price)
            .wrapping_add(signed.tx.value);
        if self.state.balance(sender) < upfront {
            return Err(TxError::InsufficientFunds);
        }
        let hash = signed.hash();
        self.pending.push(PendingTx {
            signed,
            sender,
            hash,
            intrinsic,
        });
        Ok(hash)
    }

    /// Pooled admission: the stateless checks are identical to outbox
    /// mode, but the nonce rule relaxes from "exactly next" to "not yet
    /// mined" (the pool holds future nonces until the gap fills), and
    /// the pool's fee market gets the final word — a taken nonce slot
    /// demands the replacement bump, a full pool demands a fee above
    /// the cheapest resident's.
    fn admit_pooled(
        &mut self,
        signed: SignedTransaction,
        sender: Address,
        intrinsic: u64,
    ) -> Result<H256, TxError> {
        let base = self.state.nonce(sender);
        if signed.tx.nonce < base {
            return Err(TxError::BadNonce {
                expected: base,
                got: signed.tx.nonce,
            });
        }
        if signed.tx.gas_limit > self.config.block_gas_limit {
            return Err(TxError::ExceedsBlockGasLimit);
        }
        if signed.tx.gas_limit < intrinsic {
            return Err(TxError::IntrinsicGasTooLow {
                required: intrinsic,
            });
        }
        let upfront = U256::from_u64(signed.tx.gas_limit)
            .wrapping_mul(signed.tx.gas_price)
            .wrapping_add(signed.tx.value);
        if self.state.balance(sender) < upfront {
            return Err(TxError::InsufficientFunds);
        }
        let hash = signed.hash();
        let meta = TxMeta {
            sender,
            nonce: signed.tx.nonce,
            gas_price: signed.tx.gas_price,
            gas_limit: signed.tx.gas_limit,
            hash,
        };
        let ptx = PendingTx {
            signed,
            sender,
            hash,
            intrinsic,
        };
        let now = self.time;
        let pool = self.pool.as_mut().expect("pooled admission path");
        match pool.insert(meta, ptx, now) {
            Ok(_) => Ok(hash),
            Err(PoolError::Underpriced { required }) => Err(TxError::Underpriced { required }),
            Err(PoolError::Full { must_exceed }) => Err(TxError::PoolFull { must_exceed }),
        }
    }

    /// Next nonce accounting for queued pending transactions — what a
    /// self-signing client must use for its next submission. Public so
    /// session engines batching transactions from many senders can sign
    /// against the mempool-aware nonce. In pooled mode this advances
    /// past the sender's contiguous run of pooled nonces.
    pub fn effective_nonce(&self, sender: Address) -> u64 {
        let base = self.state.nonce(sender);
        let queued = self.pending.iter().filter(|t| t.sender == sender).count() as u64;
        match &self.pool {
            Some(pool) => pool.next_nonce(sender, base + queued),
            None => base + queued,
        }
    }

    /// The transactions the next block will hold: everything pending in
    /// outbox mode; in pooled mode, a greedy fee-priority pack under the
    /// block gas limit (per-sender nonce order preserved, leftovers stay
    /// pooled for later blocks).
    fn take_minable(&mut self) -> Vec<PendingTx> {
        match self.pool.as_mut() {
            Some(pool) => {
                let state = &self.state;
                pool.pack(self.config.block_gas_limit, |a| state.nonce(a))
                    .into_iter()
                    .map(|(_, ptx)| ptx)
                    .collect()
            }
            None => std::mem::take(&mut self.pending),
        }
    }

    /// Mines the next block and returns it: all pending transactions in
    /// outbox mode, a fee-priority pack under the block gas limit in
    /// pooled mode.
    ///
    /// The expensive pre-execution work (sender recovery, tx hashing,
    /// intrinsic gas) was cached on each [`PendingTx`] at admission, so
    /// this is purely the sequential commit phase.
    pub fn mine_block(&mut self) -> Block {
        let txs = self.take_minable();
        let mode = self.config.exec;
        self.seal_block(txs, mode)
    }

    /// Reference mining path: ignores every admission-time cache and
    /// re-derives senders, hashes and intrinsic gas serially from the raw
    /// transactions before committing.
    ///
    /// Exists for the determinism suite — a block mined here must be
    /// byte-identical to [`Testnet::mine_block`]'s over the same pending
    /// set — and as the baseline for the pipeline benchmarks.
    pub fn mine_block_serial(&mut self) -> Block {
        let txs: Vec<PendingTx> = self
            .take_minable()
            .into_iter()
            .filter_map(|p| PendingTx::derive(p.signed).ok())
            .collect();
        self.seal_block(txs, ExecMode::Serial)
    }

    /// Executor statistics of the most recently mined block (`None`
    /// before the first seal). Benches and tests read the speculation /
    /// re-execution split here to assert conflict behaviour.
    pub fn last_seal_report(&self) -> Option<SealReport> {
        self.last_seal
    }

    /// Commit phase shared by both mining paths: executes the block's
    /// transactions under `mode`, then seals the header.
    fn seal_block(&mut self, txs: Vec<PendingTx>, mode: ExecMode) -> Block {
        self.time += self.config.block_interval;
        let number = self.head().number + 1;
        let timestamp = self.time;
        let parent_hash = self.head().hash;

        let (mut receipts, speculative, reexecuted) = match mode {
            ExecMode::Parallel => self.execute_block_parallel(&txs, number, timestamp),
            ExecMode::Serial => {
                let receipts = txs
                    .iter()
                    .map(|ptx| self.execute_transaction(ptx, number, timestamp))
                    .collect();
                (receipts, 0, 0)
            }
        };
        self.last_seal = Some(SealReport {
            mode,
            txs: txs.len(),
            speculative,
            reexecuted,
        });
        let mut block_gas = 0u64;
        for (index, receipt) in receipts.iter_mut().enumerate() {
            receipt.tx_index = index;
            block_gas += receipt.gas_used;
        }

        // Fold the block's writes into the authenticated tries once,
        // here — not per op — and seal the commitments into the header.
        let (state_root, receipts_root) = if self.config.commit_roots {
            (
                self.state.state_root(),
                block::receipts_root(receipts.iter()),
            )
        } else {
            (H256::ZERO, H256::ZERO)
        };

        let txs: Vec<SignedTransaction> = txs.into_iter().map(|p| p.signed).collect();
        let block = Block {
            number,
            timestamp,
            parent_hash,
            hash: Block::compute_hash(
                number,
                timestamp,
                parent_hash,
                state_root,
                receipts_root,
                block_gas,
                &txs,
            ),
            state_root,
            receipts_root,
            transactions: txs,
            gas_used: block_gas,
        };
        self.commit_block(&block, receipts);
        block
    }

    /// Commit tail shared by local sealing and gossip import: indexes
    /// the block and its receipts, maintains the 256-entry `BLOCKHASH`
    /// window, and closes the block's undo layer when history tracking
    /// is armed.
    fn commit_block(&mut self, block: &Block, receipts: Vec<Receipt>) {
        let number = block.number;
        if self.config.commit_roots {
            // Archive this seal's trie spines (and slide the pruning
            // window). No-op unless `prune_window` armed the archive.
            self.state.commit_archive();
        }
        self.state.block_hashes.insert(number, block.hash);
        // BLOCKHASH only reaches 256 ancestors: retire the hash that
        // just left the window so the map stays bounded.
        if number >= 256 {
            self.state.block_hashes.remove(&(number - 256));
        }
        for r in receipts {
            for log in &r.logs {
                let blocks = self.log_index.entry(log.address).or_default();
                if blocks.last() != Some(&number) {
                    blocks.push(number);
                }
            }
            self.receipts.insert(r.tx_hash, r);
        }
        self.canon_index.insert(block.hash, number);
        self.blocks.push(block.clone());
        if let Some(h) = &mut self.history {
            h.undo_stack.push(BlockUndoRec {
                undo: self.state.take_undo_layer(),
                minted_before: h.open_minted,
                time_before: h.open_time,
            });
            h.open_minted = self.minted;
            h.open_time = self.time;
        }
    }

    /// Optimistic parallel block execution: speculate every transaction
    /// concurrently over the pre-block state, then commit in block
    /// order — validated speculations apply their buffered write sets,
    /// conflicting ones re-execute serially at their slot. Returns the
    /// receipts plus the speculative/re-executed split.
    fn execute_block_parallel(
        &mut self,
        txs: &[PendingTx],
        number: u64,
        timestamp: u64,
    ) -> (Vec<Receipt>, usize, usize) {
        let outcomes = parallel::speculate_block(
            &self.state,
            &self.config,
            &self.analysis_cache,
            txs,
            number,
            timestamp,
        );
        let coinbase = self.config.coinbase;
        let mut receipts = Vec::with_capacity(txs.len());
        let mut speculative = 0;
        let mut reexecuted = 0;
        for (ptx, outcome) in txs.iter().zip(outcomes) {
            match outcome.try_commit(&mut self.state, coinbase) {
                Some(receipt) => {
                    speculative += 1;
                    receipts.push(receipt);
                }
                None => {
                    reexecuted += 1;
                    receipts.push(self.execute_transaction(ptx, number, timestamp));
                }
            }
        }
        (receipts, speculative, reexecuted)
    }

    /// Executes one transaction against the state (validation and sender
    /// recovery already done at admission; the cached derivations on the
    /// [`PendingTx`] are consumed here, not recomputed).
    fn execute_transaction(
        &mut self,
        ptx: &PendingTx,
        block_number: u64,
        timestamp: u64,
    ) -> Receipt {
        let tx = &ptx.signed.tx;
        let sender = ptx.sender;
        let tx_hash = ptx.hash;

        // Buy gas.
        let gas_cost = U256::from_u64(tx.gas_limit).wrapping_mul(tx.gas_price);
        let paid = self.state.transfer(sender, self.config.coinbase, gas_cost);
        debug_assert!(paid, "upfront balance validated at submit");

        let exec_gas = tx.gas_limit - ptx.intrinsic;

        let env = Env {
            block: BlockEnv {
                number: block_number,
                timestamp,
                coinbase: self.config.coinbase,
                difficulty: U256::from_u64(1),
                gas_limit: self.config.block_gas_limit,
            },
            tx: TxEnv {
                origin: sender,
                gas_price: tx.gas_price,
            },
        };

        // Dispatch on the literal `to` field: `None` is a create, `Some`
        // a call. (Matching here instead of `is_create()` + `expect`
        // makes a malformed transaction structurally unrepresentable —
        // there is no path on which a missing recipient can panic.)
        let (success, gas_left, output, contract_address, failure) = match tx.to {
            None => {
                let mut evm = Evm::new(&mut self.state, env)
                    .with_analysis_cache(Arc::clone(&self.analysis_cache));
                let out = evm.create(sender, tx.value, tx.data.clone(), exec_gas);
                let failure = if out.success {
                    None
                } else if let Some(err) = out.error.clone() {
                    Some(FailureReason::VmError(err))
                } else if !out.output.is_empty() || out.gas_left > 0 {
                    Some(FailureReason::Reverted(out.output.clone()))
                } else {
                    Some(FailureReason::InsufficientBalance)
                };
                (out.success, out.gas_left, out.output, out.address, failure)
            }
            Some(to) => {
                // Nonce bump happens before execution for calls (creates
                // bump inside the EVM so the address derivation sees the
                // old nonce).
                self.state.bump_nonce(sender);
                let mut evm = Evm::new(&mut self.state, env)
                    .with_analysis_cache(Arc::clone(&self.analysis_cache));
                let out = evm.call(CallParams::transact(
                    sender,
                    to,
                    tx.value,
                    tx.data.clone(),
                    exec_gas,
                ));
                let failure = if out.success {
                    None
                } else if out.reverted {
                    Some(FailureReason::Reverted(out.output.clone()))
                } else if let Some(err) = out.error.clone() {
                    Some(FailureReason::VmError(err))
                } else {
                    Some(FailureReason::InsufficientBalance)
                };
                (out.success, out.gas_left, out.output, None, failure)
            }
        };

        // Settle gas: refund capped at half of what was used.
        let (logs, refund_counter) = self.state.clear_tx_scratch();
        let gas_used_pre_refund = tx.gas_limit - gas_left;
        let refund = refund_counter.min(gas_used_pre_refund / 2);
        let gas_used = gas_used_pre_refund - refund;
        let reimbursement = U256::from_u64(tx.gas_limit - gas_used).wrapping_mul(tx.gas_price);
        let repaid = self
            .state
            .transfer(self.config.coinbase, sender, reimbursement);
        debug_assert!(repaid, "coinbase holds the upfront payment");

        // For creates, a failed execution must still bump the sender nonce
        // (the EVM bumps it inside create(); on hard pre-flight failures it
        // may not have run — normalize here).
        if tx.is_create() && self.state.nonce(sender) == tx.nonce {
            self.state.bump_nonce(sender);
        }

        Receipt {
            tx_hash,
            block_number,
            tx_index: 0,
            success,
            gas_used,
            contract_address: if success { contract_address } else { None },
            logs: if success { logs } else { Vec::new() },
            output,
            failure,
        }
    }

    // ---- convenience API (sign + submit + mine in one shot) ----

    /// Sends a call transaction from `wallet` and mines it immediately.
    pub fn execute(
        &mut self,
        wallet: &Wallet,
        to: Address,
        value: U256,
        data: Vec<u8>,
        gas_limit: u64,
    ) -> Result<Receipt, TxError> {
        let tx = Transaction {
            nonce: self.effective_nonce(wallet.address),
            gas_price: self.config.default_gas_price,
            gas_limit,
            to: Some(to),
            value,
            data,
        };
        let hash = self.submit(tx.sign(&wallet.key))?;
        self.mine_block();
        Ok(self.receipts[&hash].clone())
    }

    /// Deploys a contract from initcode and mines immediately.
    pub fn deploy(
        &mut self,
        wallet: &Wallet,
        initcode: Vec<u8>,
        value: U256,
        gas_limit: u64,
    ) -> Result<Receipt, TxError> {
        let tx = Transaction {
            nonce: self.effective_nonce(wallet.address),
            gas_price: self.config.default_gas_price,
            gas_limit,
            to: None,
            value,
            data: initcode,
        };
        let hash = self.submit(tx.sign(&wallet.key))?;
        self.mine_block();
        Ok(self.receipts[&hash].clone())
    }

    /// Dry-runs a transaction under a gas profiler: executes exactly like
    /// a value-bearing call (including storage writes) but rolls all
    /// state back, returning the per-opcode gas breakdown and the
    /// execution-gas consumption (intrinsic gas not included).
    pub fn profile_call(
        &mut self,
        from: Address,
        to: Address,
        value: U256,
        data: Vec<u8>,
        gas: u64,
    ) -> (sc_evm::GasProfiler, u64) {
        let env = Env {
            block: BlockEnv {
                number: self.head().number + 1,
                timestamp: self.now(),
                coinbase: self.config.coinbase,
                difficulty: U256::from_u64(1),
                gas_limit: self.config.block_gas_limit,
            },
            tx: TxEnv {
                origin: from,
                gas_price: U256::ZERO,
            },
        };
        let snapshot = self.state.snapshot();
        let mut profiler = sc_evm::GasProfiler::new();
        let out = Evm::with_inspector(&mut self.state, env, &mut profiler)
            .with_analysis_cache(Arc::clone(&self.analysis_cache))
            .call(CallParams::transact(from, to, value, data, gas));
        self.state.revert(snapshot);
        self.state.clear_tx_scratch();
        (profiler, gas - out.gas_left)
    }

    /// Read-only call (like `eth_call`): state changes are discarded.
    /// The EVM success flag is preserved — a reverted call comes back
    /// with `reverted: true` instead of masquerading as output bytes.
    pub fn call(&mut self, from: Address, to: Address, data: Vec<u8>) -> CallResult {
        let env = Env {
            block: BlockEnv {
                number: self.head().number + 1,
                timestamp: self.now(),
                coinbase: self.config.coinbase,
                difficulty: U256::from_u64(1),
                gas_limit: self.config.block_gas_limit,
            },
            tx: TxEnv {
                origin: from,
                gas_price: U256::ZERO,
            },
        };
        let snapshot = self.state.snapshot();
        let mut evm =
            Evm::new(&mut self.state, env).with_analysis_cache(Arc::clone(&self.analysis_cache));
        let out = evm.call(CallParams {
            caller: from,
            address: to,
            code_address: to,
            apparent_value: U256::ZERO,
            transfer_value: None,
            data,
            gas: self.config.block_gas_limit,
            is_static: false,
        });
        self.state.revert(snapshot);
        self.state.clear_tx_scratch();
        CallResult {
            reverted: !out.success,
            output: out.output,
        }
    }

    // ---- multi-node support: history, block import, fork choice ----

    /// Arms reorg support: from now on every sealed or imported block
    /// closes a per-block state undo layer, so the chain can roll back
    /// to any block boundary after this call. Multi-node operation
    /// requires it — [`Testnet::import_block`] refuses to run unarmed,
    /// because an import that failed halfway could not restore state.
    pub fn enable_history(&mut self) {
        if self.history.is_some() {
            return;
        }
        self.state.begin_undo_layer();
        self.history = Some(HistoryTracking {
            undo_stack: Vec::new(),
            open_minted: self.minted,
            open_time: self.time,
        });
    }

    /// True once [`Testnet::enable_history`] has armed reorg support.
    pub fn history_enabled(&self) -> bool {
        self.history.is_some()
    }

    /// How many blocks the chain can currently roll back (the undo
    /// layers retained since history was enabled).
    pub fn rollback_capacity(&self) -> usize {
        self.history.as_ref().map_or(0, |h| h.undo_stack.len())
    }

    /// Number of non-canonical blocks currently stored (competing
    /// branches and reorg orphans) — the numerator of an orphan-rate
    /// metric.
    pub fn side_block_count(&self) -> usize {
        self.side_blocks.len()
    }

    /// Canonical block lookup by hash.
    pub fn block_by_hash(&self, hash: H256) -> Option<&Block> {
        self.canon_index.get(&hash).and_then(|&n| self.block(n))
    }

    /// True when the transaction is queued locally (outbox or pool)
    /// but not yet mined.
    pub fn tx_is_pending(&self, hash: H256) -> bool {
        self.pending.iter().any(|p| p.hash == hash)
            || self.pool.as_ref().is_some_and(|p| p.contains(hash))
    }

    /// Drops pooled transactions whose nonce the canonical chain has
    /// already consumed — mined via an imported block, or made stale by
    /// a reorg. Pruned hashes land in the pool's evicted log, so
    /// callers draining evictions must check for a receipt first (a
    /// mined-elsewhere transaction is *done*, not displaced).
    pub fn prune_pool(&mut self) {
        if let Some(mut pool) = self.pool.take() {
            pool.prune(|a| self.state.nonce(a));
            self.pool = Some(pool);
        }
    }

    /// Longest-chain fork choice: the higher block wins; equal heights
    /// break toward the smaller hash, so both sides of a healed
    /// partition pick the same winner without negotiating. (Every block
    /// has difficulty 1 here, so height *is* total difficulty.)
    fn preferred(number: u64, hash: H256, over_number: u64, over_hash: H256) -> bool {
        number > over_number || (number == over_number && hash.0 < over_hash.0)
    }

    /// Rolls the canonical head back one block, restoring state,
    /// `minted`, the clock, receipts, the log index and the 256-entry
    /// `BLOCKHASH` window to the parent's seal boundary. Out-of-band
    /// writes since the head sealed (faucet mints) roll back too.
    ///
    /// Returns the orphaned block, or `None` at genesis / when history
    /// tracking holds no layer for the head. The block is *not* moved
    /// to the side store — callers decide its fate.
    pub fn rollback_head_block(&mut self) -> Option<Block> {
        if self.blocks.len() <= 1 {
            return None;
        }
        let rec = self.history.as_mut()?.undo_stack.pop()?;
        // Undo writes made since the head sealed, then the head block's
        // own layer (newest first).
        let open = self.state.take_undo_layer();
        self.state.apply_undo(open);
        self.state.apply_undo(rec.undo);
        // The rolled-back seal's archive record is orphaned with it.
        self.state.rollback_archive();
        self.minted = rec.minted_before;
        self.time = rec.time_before;
        if let Some(h) = &mut self.history {
            h.open_minted = rec.minted_before;
            h.open_time = rec.time_before;
        }

        let block = self.blocks.pop().expect("non-genesis head");
        self.canon_index.remove(&block.hash);
        self.state.block_hashes.remove(&block.number);
        if block.number >= 256 {
            // The seal pruned this ancestor out of the window; restore it.
            let n = block.number - 256;
            let hash = self.blocks[n as usize].hash;
            self.state.block_hashes.insert(n, hash);
        }
        for t in &block.transactions {
            if let Some(r) = self.receipts.remove(&t.hash()) {
                for log in &r.logs {
                    if let Some(blocks) = self.log_index.get_mut(&log.address) {
                        if blocks.last() == Some(&block.number) {
                            blocks.pop();
                        }
                    }
                }
            }
        }
        Some(block)
    }

    /// Imports a gossiped block: verifies its hash commits its
    /// contents, stores it, and runs fork choice. A block on the best
    /// branch is replayed transaction by transaction with the
    /// `state_root` / `receipts_root` / gas commitments re-verified
    /// against the header; a heavier competing branch triggers a
    /// rollback-and-replay reorg. Requires [`Testnet::enable_history`].
    pub fn import_block(&mut self, block: Block) -> Result<ImportOutcome, ImportError> {
        if self.history.is_none() {
            return Err(ImportError::TooDeep);
        }
        let computed = Block::compute_hash(
            block.number,
            block.timestamp,
            block.parent_hash,
            block.state_root,
            block.receipts_root,
            block.gas_used,
            &block.transactions,
        );
        if computed != block.hash {
            return Err(ImportError::InvalidBlock {
                reason: "hash does not commit the contents",
            });
        }
        if self.canon_index.contains_key(&block.hash) || self.side_blocks.contains_key(&block.hash)
        {
            return Ok(ImportOutcome::AlreadyKnown);
        }
        // Uniform store-then-adopt: a direct head child is simply a
        // depth-0 "reorg" (nothing reverted, one block applied), and the
        // same walk picks up previously detached descendants that this
        // block just connected.
        self.side_blocks.insert(block.hash, block);
        match self.try_adopt_best()? {
            Some((0, _, _)) => Ok(ImportOutcome::Extended),
            Some((reverted, applied, orphaned_txs)) => Ok(ImportOutcome::Reorged {
                reverted,
                applied,
                orphaned_txs,
            }),
            None => Ok(ImportOutcome::Side),
        }
    }

    /// Walks `tip`'s ancestry through the side-block store until it
    /// meets the canonical chain. Returns the fork height and the
    /// branch oldest-first; `None` while the ancestry is detached (a
    /// gap gossip has not filled yet) or height-inconsistent.
    fn connected_branch(&self, tip: &Block) -> Option<(u64, Vec<Block>)> {
        let mut rev: Vec<&Block> = vec![tip];
        let mut cur = tip;
        loop {
            if let Some(&n) = self.canon_index.get(&cur.parent_hash) {
                if n + 1 != cur.number {
                    return None;
                }
                return Some((n, rev.into_iter().rev().cloned().collect()));
            }
            let parent = self.side_blocks.get(&cur.parent_hash)?;
            if parent.number + 1 != cur.number {
                return None;
            }
            rev.push(parent);
            cur = parent;
        }
    }

    /// Finds the best connected side tip and adopts its branch when
    /// fork choice prefers it over the head. Returns `Some((reverted,
    /// applied, orphaned_txs))` when the head moved. The ordering
    /// (height, then smaller hash) is total, so the winner is
    /// independent of store iteration order — determinism holds.
    fn try_adopt_best(
        &mut self,
    ) -> Result<Option<(u64, u64, Vec<SignedTransaction>)>, ImportError> {
        let head = (self.head().number, self.head().hash);
        let mut best: Option<(u64, Vec<Block>)> = None;
        for tip in self.side_blocks.values() {
            if !Self::preferred(tip.number, tip.hash, head.0, head.1) {
                continue;
            }
            if let Some(found) = self.connected_branch(tip) {
                let better = match &best {
                    None => true,
                    Some((_, b)) => {
                        let cur = b.last().expect("branch never empty");
                        Self::preferred(tip.number, tip.hash, cur.number, cur.hash)
                    }
                };
                if better {
                    best = Some(found);
                }
            }
        }
        let Some((fork, branch)) = best else {
            return Ok(None);
        };
        self.adopt_branch(fork, branch).map(Some)
    }

    /// Rolls back to `fork` and replays `branch` (oldest-first). On a
    /// replay failure the half-applied branch is unwound and the
    /// original chain re-applied, so state is exactly as before.
    fn adopt_branch(
        &mut self,
        fork: u64,
        branch: Vec<Block>,
    ) -> Result<(u64, u64, Vec<SignedTransaction>), ImportError> {
        let depth = self.head().number - fork;
        let feasible = self
            .history
            .as_ref()
            .is_some_and(|h| h.undo_stack.len() as u64 >= depth);
        if !feasible {
            return Err(ImportError::TooDeep);
        }
        let mut orphans = Vec::with_capacity(depth as usize);
        for _ in 0..depth {
            orphans.push(self.rollback_head_block().expect("depth checked"));
        }
        orphans.reverse(); // oldest first
        for (i, b) in branch.iter().enumerate() {
            if let Err(e) = self.apply_block(b) {
                // Invalid branch: unwind the part that applied and
                // restore the original chain.
                for _ in 0..i {
                    self.rollback_head_block()
                        .expect("applied blocks have undo layers");
                }
                for ob in &orphans {
                    self.apply_block(ob)
                        .expect("previously canonical blocks replay");
                }
                self.side_blocks.remove(&b.hash);
                return Err(e);
            }
        }
        for b in &branch {
            self.side_blocks.remove(&b.hash);
        }
        let new_txs: std::collections::HashSet<H256> = branch
            .iter()
            .flat_map(|b| b.transactions.iter().map(SignedTransaction::hash))
            .collect();
        let mut orphaned_txs = Vec::new();
        for ob in orphans {
            for t in &ob.transactions {
                if !new_txs.contains(&t.hash()) {
                    orphaned_txs.push(t.clone());
                }
            }
            self.side_blocks.insert(ob.hash, ob);
        }
        // Pooled nonces the new chain consumed are stale now.
        self.prune_pool();
        Ok((depth, branch.len() as u64, orphaned_txs))
    }

    /// Replays one block on top of the current head: transactions
    /// re-validated (signature, nonce sequence, gas bounds, upfront
    /// balance) and re-executed, commitments re-verified against the
    /// header. Atomic — on any failure the open undo layer rewinds
    /// every write the attempt made.
    fn apply_block(&mut self, block: &Block) -> Result<(), ImportError> {
        debug_assert!(self.history.is_some(), "imports require history");
        let fail = |reason| ImportError::InvalidBlock { reason };
        let head = self.head();
        if block.parent_hash != head.hash || block.number != head.number + 1 {
            return Err(fail("does not extend the head"));
        }
        // Sender recovery is pure: derive before touching state.
        let mut ptxs = Vec::with_capacity(block.transactions.len());
        for tx in &block.transactions {
            let ptx =
                PendingTx::derive(tx.clone()).map_err(|_| fail("signature does not recover"))?;
            ptxs.push(ptx);
        }
        let (number, timestamp) = (block.number, block.timestamp);
        self.time = timestamp;
        let mut receipts = Vec::with_capacity(ptxs.len());
        let mut error = None;
        for ptx in &ptxs {
            let tx = &ptx.signed.tx;
            if tx.nonce != self.state.nonce(ptx.sender) {
                error = Some("nonce out of sequence");
                break;
            }
            if tx.gas_limit < ptx.intrinsic || tx.gas_limit > self.config.block_gas_limit {
                error = Some("gas limit out of bounds");
                break;
            }
            let upfront = U256::from_u64(tx.gas_limit)
                .wrapping_mul(tx.gas_price)
                .wrapping_add(tx.value);
            if self.state.balance(ptx.sender) < upfront {
                error = Some("sender cannot cover upfront cost");
                break;
            }
            // Serial replay: the parallel executor is equivalence-gated
            // to this path, so roots match however the miner sealed.
            receipts.push(self.execute_transaction(ptx, number, timestamp));
        }
        let mut block_gas = 0u64;
        for (index, receipt) in receipts.iter_mut().enumerate() {
            receipt.tx_index = index;
            block_gas += receipt.gas_used;
        }
        if error.is_none() && block_gas != block.gas_used {
            error = Some("gas total mismatch");
        }
        if error.is_none() && self.config.commit_roots {
            if self.state.state_root() != block.state_root {
                error = Some("state root mismatch");
            } else if block::receipts_root(receipts.iter()) != block.receipts_root {
                error = Some("receipts root mismatch");
            }
        }
        if let Some(reason) = error {
            // Atomic failure: rewind everything the attempt wrote
            // (including out-of-band writes the open layer held).
            let open = self.state.take_undo_layer();
            self.state.apply_undo(open);
            if let Some(h) = &self.history {
                self.minted = h.open_minted;
                self.time = h.open_time;
            }
            return Err(fail(reason));
        }
        self.commit_block(block, receipts);
        Ok(())
    }
}

impl Default for Testnet {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_primitives::ether;

    #[test]
    fn simple_transfer_charges_exact_gas() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        let bob = Wallet::from_seed("bob");
        let receipt = net
            .execute(&alice, bob.address, ether(1), vec![], 100_000)
            .unwrap();
        assert!(receipt.success);
        assert_eq!(receipt.gas_used, 21_000, "plain transfer is exactly Gtx");
        assert_eq!(net.balance_of(bob.address), ether(1));
        let spent = ether(10).wrapping_sub(net.balance_of(alice.address));
        let expected =
            ether(1).wrapping_add(U256::from_u64(21_000).wrapping_mul(sc_primitives::gwei(1)));
        assert_eq!(spent, expected);
    }

    #[test]
    fn miner_earns_the_fee() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        let coinbase = net.config().coinbase;
        net.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
            .unwrap();
        assert_eq!(
            net.balance_of(coinbase),
            U256::from_u64(21_000).wrapping_mul(sc_primitives::gwei(1))
        );
    }

    #[test]
    fn nonce_sequencing_and_rejection() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        let tx = Transaction {
            nonce: 5,
            gas_price: sc_primitives::gwei(1),
            gas_limit: 21_000,
            to: Some(Address([9; 20])),
            value: U256::ZERO,
            data: vec![],
        };
        let err = net.submit(tx.sign(&alice.key)).unwrap_err();
        assert_eq!(
            err,
            TxError::BadNonce {
                expected: 0,
                got: 5
            }
        );
    }

    #[test]
    fn pending_txs_count_toward_nonce() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        for i in 0..3 {
            let tx = Transaction {
                nonce: i,
                gas_price: sc_primitives::gwei(1),
                gas_limit: 21_000,
                to: Some(Address([9; 20])),
                value: U256::from_u64(1),
                data: vec![],
            };
            net.submit(tx.sign(&alice.key)).unwrap();
        }
        let block = net.mine_block();
        assert_eq!(block.transactions.len(), 3);
        assert_eq!(net.nonce_of(alice.address), 3);
    }

    #[test]
    fn intrinsic_gas_enforced() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        let tx = Transaction {
            nonce: 0,
            gas_price: sc_primitives::gwei(1),
            gas_limit: 21_000, // too low: data costs extra
            to: Some(Address([9; 20])),
            value: U256::ZERO,
            data: vec![0xff; 10],
        };
        let err = net.submit(tx.sign(&alice.key)).unwrap_err();
        assert_eq!(
            err,
            TxError::IntrinsicGasTooLow {
                required: 21_000 + 68 * 10
            }
        );
    }

    #[test]
    fn insufficient_funds_rejected_at_submit() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", U256::from_u64(1000));
        let tx = Transaction {
            nonce: 0,
            gas_price: sc_primitives::gwei(1),
            gas_limit: 21_000,
            to: Some(Address([9; 20])),
            value: U256::ZERO,
            data: vec![],
        };
        assert_eq!(
            net.submit(tx.sign(&alice.key)).unwrap_err(),
            TxError::InsufficientFunds
        );
    }

    #[test]
    fn timestamps_advance_per_block_and_by_request() {
        let mut net = Testnet::new();
        let t0 = net.head().timestamp;
        let b1 = net.mine_block();
        assert_eq!(b1.timestamp, t0 + 4);
        net.advance_time(3600);
        let b2 = net.mine_block();
        assert_eq!(b2.timestamp, t0 + 4 + 3600 + 4);
    }

    #[test]
    fn deploy_runs_initcode_and_records_address() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        let runtime = vec![0x60, 0x2a, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3]; // returns 42
        let initcode = sc_evm::wrap_initcode(&runtime);
        let receipt = net.deploy(&alice, initcode, U256::ZERO, 200_000).unwrap();
        assert!(receipt.success);
        let addr = receipt.contract_address.unwrap();
        assert_eq!(net.code_at(addr), runtime);
        // Call it read-only.
        let out = net.call(alice.address, addr, vec![]);
        assert!(!out.reverted);
        assert_eq!(U256::from_be_slice(&out.output), U256::from_u64(42));
        // Gas: intrinsic(create, data) + exec + deposit — sanity: > 53000.
        assert!(receipt.gas_used > 53_000);
    }

    #[test]
    fn failed_tx_still_charges_gas_and_bumps_nonce() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        // Deploy a contract that always reverts.
        let runtime = vec![0x60, 0x00, 0x60, 0x00, 0xfd];
        let initcode = sc_evm::wrap_initcode(&runtime);
        let r = net.deploy(&alice, initcode, U256::ZERO, 200_000).unwrap();
        let target = r.contract_address.unwrap();
        let before = net.balance_of(alice.address);
        let receipt = net
            .execute(&alice, target, U256::ZERO, vec![], 100_000)
            .unwrap();
        assert!(!receipt.success);
        assert!(matches!(receipt.failure, Some(FailureReason::Reverted(_))));
        assert!(net.balance_of(alice.address) < before, "gas was charged");
        assert_eq!(net.nonce_of(alice.address), 2);
    }

    #[test]
    fn refund_capped_at_half_of_gas_used() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        // Contract: SSTORE(0,1) on first call; SSTORE(0,0) on second call
        // clears and earns a 15000 refund, but gas_used/2 caps it.
        // code: PUSH1 0 SLOAD ISZERO PUSH1 1 AND ... simpler: calldata
        // selects the value: SSTORE(0, CALLDATALOAD(0)).
        let runtime = vec![0x60, 0x00, 0x35, 0x60, 0x00, 0x55, 0x00];
        let initcode = sc_evm::wrap_initcode(&runtime);
        let target = net
            .deploy(&alice, initcode, U256::ZERO, 200_000)
            .unwrap()
            .contract_address
            .unwrap();
        let one = U256::ONE.to_be_bytes().to_vec();
        let r1 = net
            .execute(&alice, target, U256::ZERO, one, 100_000)
            .unwrap();
        assert!(r1.success);
        let zero = U256::ZERO.to_be_bytes().to_vec();
        let r2 = net
            .execute(&alice, target, U256::ZERO, zero, 100_000)
            .unwrap();
        assert!(r2.success);
        // Without refund r2 would use 21000 + 32*4 (zero calldata) + exec:
        // PUSH1+CALLDATALOAD+PUSH1 (3 gas each) + SSTORE-reset (5000).
        // The 15000 clear refund is capped to half of that.
        let pre_refund = 21_000 + 32 * 4 + 3 + 3 + 3 + 5_000;
        assert_eq!(r2.gas_used, pre_refund - pre_refund / 2);
    }

    #[test]
    fn eth_call_does_not_mutate_state() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        // Contract that SSTOREs then returns.
        let runtime = vec![0x60, 0x07, 0x60, 0x00, 0x55, 0x00];
        let initcode = sc_evm::wrap_initcode(&runtime);
        let target = net
            .deploy(&alice, initcode, U256::ZERO, 200_000)
            .unwrap()
            .contract_address
            .unwrap();
        net.call(alice.address, target, vec![]);
        assert_eq!(net.storage_at(target, U256::ZERO), U256::ZERO);
    }

    #[test]
    fn eth_call_reports_reverts() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        // PUSH1 42 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 REVERT: reverts with
        // the same 32 bytes a successful return would carry.
        let runtime = vec![0x60, 0x2a, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xfd];
        let initcode = sc_evm::wrap_initcode(&runtime);
        let target = net
            .deploy(&alice, initcode, U256::ZERO, 200_000)
            .unwrap()
            .contract_address
            .unwrap();
        let out = net.call(alice.address, target, vec![]);
        assert!(out.reverted, "success flag must survive eth_call");
        assert_eq!(U256::from_be_slice(&out.output), U256::from_u64(42));
    }

    #[test]
    fn address_filtered_logs_use_the_commit_time_index() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        // PUSH1 0 PUSH1 0 LOG0: emits one empty log from the contract.
        let runtime = vec![0x60, 0x00, 0x60, 0x00, 0xa0, 0x00];
        let initcode = sc_evm::wrap_initcode(&runtime);
        let deploy = |net: &mut Testnet| {
            net.deploy(&alice, initcode.clone(), U256::ZERO, 200_000)
                .unwrap()
                .contract_address
                .unwrap()
        };
        let a = deploy(&mut net);
        let b = deploy(&mut net);
        // a logs in two blocks, b in one, with log-free blocks between.
        net.execute(&alice, a, U256::ZERO, vec![], 100_000).unwrap();
        net.mine_block();
        net.execute(&alice, b, U256::ZERO, vec![], 100_000).unwrap();
        net.execute(&alice, a, U256::ZERO, vec![], 100_000).unwrap();
        let head = net.head().number;

        // The index answers exactly what the linear scan would.
        let linear = |addr: Address| {
            let mut out = Vec::new();
            for n in 0..=head {
                for r in net.receipts_in_block(n) {
                    out.extend(r.logs.iter().filter(|l| l.address == addr).cloned());
                }
            }
            out
        };
        assert_eq!(net.logs(0, head, Some(a)), linear(a));
        assert_eq!(net.logs(0, head, Some(b)), linear(b));
        assert_eq!(net.logs(0, head, Some(a)).len(), 2);
        assert_eq!(net.logs(0, head, Some(b)).len(), 1);
        // Range bounds respected (a's second log only).
        let last = net.logs(head, head, Some(a));
        assert_eq!(last.len(), 1);
        // Unfiltered query still sees everything.
        assert_eq!(net.logs(0, head, None).len(), 3);
        // Unknown address: empty, no scan.
        assert!(net.logs(0, head, Some(Address([0xee; 20]))).is_empty());
    }

    #[test]
    fn block_hashes_linked() {
        let mut net = Testnet::new();
        let b1 = net.mine_block();
        let b2 = net.mine_block();
        assert_eq!(b2.parent_hash, b1.hash);
        assert_eq!(net.block(1).unwrap().hash, b1.hash);
    }

    #[test]
    fn blockhash_window_is_bounded_to_256() {
        let mut net = Testnet::new();
        for _ in 0..300 {
            net.mine_block();
        }
        let head = net.head().number;
        assert_eq!(head, 300);
        assert_eq!(
            net.state.block_hash(head - 257),
            H256::ZERO,
            "hash 257 blocks back has left the BLOCKHASH window"
        );
        assert_eq!(net.state.block_hash(head - 256), H256::ZERO);
        assert_ne!(
            net.state.block_hash(head - 255),
            H256::ZERO,
            "youngest 256 ancestors stay visible"
        );
        assert_eq!(
            net.state.block_hash(head - 255),
            net.block(head - 255).unwrap().hash
        );
        assert_eq!(net.state.block_hashes.len(), 256, "map stays bounded");
    }

    #[test]
    fn mined_blocks_commit_state_and_receipts_roots() {
        // Both mining paths (outbox and pooled) must seal real roots
        // that move with state and match an independent recomputation.
        for pooled in [false, true] {
            let mut net = Testnet::new();
            if pooled {
                net.enable_pool(PoolConfig::default());
            }
            assert_eq!(net.head().state_root, sc_trie::empty_root());
            assert_eq!(net.head().receipts_root, sc_trie::empty_root());

            let alice = net.funded_wallet("alice", ether(10));
            let receipt = net
                .execute(
                    &alice,
                    Address([9; 20]),
                    U256::from_u64(123),
                    vec![],
                    21_000,
                )
                .unwrap();
            let block = net.block(receipt.block_number).unwrap().clone();
            assert_ne!(block.state_root, sc_trie::empty_root(), "state moved");
            assert_ne!(block.state_root, H256::ZERO);
            assert_ne!(block.receipts_root, sc_trie::empty_root(), "1 receipt");
            assert_eq!(
                block.receipts_root,
                block::receipts_root(net.receipts_in_block(block.number).into_iter()),
                "header matches recomputed receipts trie (pooled={pooled})"
            );
            assert_eq!(
                block.state_root,
                net.state.state_root(),
                "nothing changed since seal: folded root is the header root"
            );

            // An empty block re-commits the same state root.
            let empty = net.mine_block();
            assert_eq!(empty.state_root, block.state_root);
            assert_eq!(empty.receipts_root, sc_trie::empty_root());
        }
    }

    #[test]
    fn storage_proof_verifies_against_header_root() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        // PUSH1 42 PUSH1 1 SSTORE STOP as constructor: writes slot 1.
        let initcode = vec![0x60, 0x2a, 0x60, 0x01, 0x55, 0x00];
        let target = net
            .deploy(&alice, initcode, U256::ZERO, 200_000)
            .unwrap()
            .contract_address
            .unwrap();
        let header_root = net.head().state_root;

        let proof = net.prove_storage(target, U256::ONE);
        assert_eq!(proof.value, U256::from_u64(42));
        assert_eq!(proof.root, header_root, "proof anchors to the head header");
        proof.verify(header_root).expect("honest proof verifies");

        let mut forged = proof.clone();
        forged.value = U256::from_u64(43);
        assert!(
            forged.verify(header_root).is_err(),
            "tampered value rejected against the header root"
        );
    }

    #[test]
    fn submit_batch_matches_serial_submits() {
        let make_txs = |net: &mut Testnet| -> (Wallet, Vec<SignedTransaction>) {
            let alice = net.funded_wallet("alice", ether(10));
            let txs = (0..10u64)
                .map(|i| {
                    Transaction {
                        // Every third nonce is wrong → rejected, and later
                        // entries must account for the earlier rejections.
                        nonce: if i % 3 == 2 { i + 100 } else { i - i / 3 },
                        gas_price: sc_primitives::gwei(1),
                        gas_limit: 21_000,
                        to: Some(Address([9; 20])),
                        value: U256::from_u64(1),
                        data: vec![],
                    }
                    .sign(&alice.key)
                })
                .collect();
            (alice, txs)
        };

        let mut serial_net = Testnet::new();
        let (_, txs) = make_txs(&mut serial_net);
        let serial: Vec<_> = txs
            .clone()
            .into_iter()
            .map(|t| serial_net.submit(t))
            .collect();

        let mut batch_net = Testnet::new();
        let (_, txs) = make_txs(&mut batch_net);
        let batch = batch_net.submit_batch(txs);

        assert_eq!(batch, serial);
        assert_eq!(batch.iter().filter(|r| r.is_ok()).count(), 7);
        assert_eq!(
            serial_net.mine_block().hash,
            batch_net.mine_block().hash,
            "identical admission ⇒ identical block"
        );
    }

    #[test]
    fn submit_batch_rejects_tampered_signature() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        let mut signed = Transaction {
            nonce: 0,
            gas_price: sc_primitives::gwei(1),
            gas_limit: 21_000,
            to: Some(Address([9; 20])),
            value: U256::ZERO,
            data: vec![],
        }
        .sign(&alice.key);
        signed.signature.v = 26; // invalid recovery id
        let out = net.submit_batch(vec![signed]);
        assert_eq!(out, vec![Err(TxError::BadSignature)]);
    }

    #[test]
    fn serial_and_pipelined_mining_agree() {
        let build = |net: &mut Testnet| {
            let alice = net.funded_wallet("alice", ether(10));
            let bob = net.funded_wallet("bob", ether(10));
            for (i, w) in [&alice, &bob, &alice, &bob, &alice].iter().enumerate() {
                let tx = Transaction {
                    nonce: net.effective_nonce(w.address),
                    gas_price: sc_primitives::gwei(1),
                    gas_limit: 50_000,
                    to: Some(Address([9; 20])),
                    value: U256::from_u64(i as u64),
                    data: vec![i as u8; i],
                };
                net.submit(tx.sign(&w.key)).unwrap();
            }
        };
        let mut fast = Testnet::new();
        build(&mut fast);
        let fast_block = fast.mine_block();

        let mut reference = Testnet::new();
        build(&mut reference);
        let ref_block = reference.mine_block_serial();

        assert_eq!(fast_block.hash, ref_block.hash);
        assert_eq!(fast_block.gas_used, ref_block.gas_used);
        for t in &fast_block.transactions {
            let a = fast.receipt(t.hash()).unwrap();
            let b = reference.receipt(t.hash()).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn analysis_cache_warms_across_calls() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        // Contract with a jump, so analysis actually matters.
        let runtime = vec![0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00]; // JUMP over INVALID
        let initcode = sc_evm::wrap_initcode(&runtime);
        let target = net
            .deploy(&alice, initcode, U256::ZERO, 200_000)
            .unwrap()
            .contract_address
            .unwrap();
        let after_deploy = net.analysis_cache().stats();
        for _ in 0..5 {
            let r = net
                .execute(&alice, target, U256::ZERO, vec![], 100_000)
                .unwrap();
            assert!(r.success);
        }
        let stats = net.analysis_cache().stats();
        // Deploy analysed only the initcode; the first call analyses the
        // runtime code (one miss), and every later call reuses it.
        assert_eq!(
            stats.misses,
            after_deploy.misses + 1,
            "runtime code analysed exactly once"
        );
        assert!(
            stats.hits >= after_deploy.hits + 4,
            "subsequent calls hit the cache"
        );
    }

    #[test]
    fn derive_rejects_malformed_signature_instead_of_panicking() {
        // The reference mining path re-derives senders from raw
        // transactions; a signature that stopped recovering must surface
        // as a typed error, never a crash.
        let alice = Wallet::from_seed("alice");
        let mut signed = Transaction {
            nonce: 0,
            gas_price: sc_primitives::gwei(1),
            gas_limit: 21_000,
            to: Some(Address([9; 20])),
            value: U256::ZERO,
            data: vec![],
        }
        .sign(&alice.key);
        signed.signature.v = 26; // invalid recovery id
        assert_eq!(PendingTx::derive(signed).err(), Some(TxError::BadSignature));
    }

    #[test]
    fn ether_is_conserved_across_blocks() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        let bob = net.funded_wallet("bob", ether(5));
        assert_eq!(net.total_minted(), ether(15));
        assert_eq!(net.state.total_balance(), ether(15));
        // Transfers, a deploy, and a failed call all just move value.
        net.execute(&alice, bob.address, ether(1), vec![], 100_000)
            .unwrap();
        let runtime = vec![0x60, 0x00, 0x60, 0x00, 0xfd]; // always reverts
        let initcode = sc_evm::wrap_initcode(&runtime);
        let target = net
            .deploy(&alice, initcode, U256::ZERO, 200_000)
            .unwrap()
            .contract_address
            .unwrap();
        net.execute(&alice, target, U256::ZERO, vec![], 100_000)
            .unwrap();
        assert_eq!(
            net.state.total_balance(),
            net.total_minted(),
            "no wei created or destroyed"
        );
    }

    #[test]
    fn pending_count_tracks_the_mempool() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        assert_eq!(net.pending_count(), 0);
        let tx = Transaction {
            nonce: 0,
            gas_price: sc_primitives::gwei(1),
            gas_limit: 21_000,
            to: Some(Address([9; 20])),
            value: U256::ZERO,
            data: vec![],
        };
        net.submit(tx.sign(&alice.key)).unwrap();
        assert_eq!(net.pending_count(), 1);
        net.mine_block();
        assert_eq!(net.pending_count(), 0);
    }

    fn transfer_tx(nonce: u64, price: U256, gas_limit: u64) -> Transaction {
        Transaction {
            nonce,
            gas_price: price,
            gas_limit,
            to: Some(Address([9; 20])),
            value: U256::from_u64(1),
            data: vec![],
        }
    }

    #[test]
    fn pooled_mining_packs_under_the_block_gas_limit() {
        let mut net = Testnet::with_config(ChainConfig {
            block_gas_limit: 50_000,
            ..ChainConfig::default()
        });
        net.enable_pool(PoolConfig::default());
        let alice = net.funded_wallet("alice", ether(10));
        let bob = net.funded_wallet("bob", ether(10));
        let carol = net.funded_wallet("carol", ether(10));
        for w in [&alice, &bob, &carol] {
            net.submit(transfer_tx(0, sc_primitives::gwei(1), 21_000).sign(&w.key))
                .unwrap();
        }
        assert_eq!(net.pending_count(), 3);
        // Only two 21k transfers fit under 50k; the third waits.
        let b1 = net.mine_block();
        assert_eq!(b1.transactions.len(), 2);
        assert_eq!(net.pending_count(), 1);
        let b2 = net.mine_block();
        assert_eq!(b2.transactions.len(), 1);
        assert_eq!(net.pending_count(), 0);
    }

    #[test]
    fn pooled_mining_orders_by_fee_and_keeps_nonce_order() {
        let mut net = Testnet::new();
        net.enable_pool(PoolConfig::default());
        let alice = net.funded_wallet("alice", ether(10));
        let bob = net.funded_wallet("bob", ether(10));
        // Alice's nonce 0 is cheap, nonce 1 expensive; bob in between.
        net.submit(transfer_tx(0, sc_primitives::gwei(1), 21_000).sign(&alice.key))
            .unwrap();
        net.submit(transfer_tx(1, sc_primitives::gwei(9), 21_000).sign(&alice.key))
            .unwrap();
        net.submit(transfer_tx(0, sc_primitives::gwei(5), 21_000).sign(&bob.key))
            .unwrap();
        let block = net.mine_block();
        let senders: Vec<Address> = block
            .transactions
            .iter()
            .map(|t| t.sender().unwrap())
            .collect();
        assert_eq!(senders, vec![bob.address, alice.address, alice.address]);
        assert_eq!(net.nonce_of(alice.address), 2);
    }

    #[test]
    fn pooled_replacement_needs_the_bump_and_future_nonces_wait() {
        let mut net = Testnet::new();
        net.enable_pool(PoolConfig::default());
        let alice = net.funded_wallet("alice", ether(10));
        net.submit(transfer_tx(0, sc_primitives::gwei(100), 21_000).sign(&alice.key))
            .unwrap();
        // Same nonce, +9%: refused with the required price.
        let err = net
            .submit(transfer_tx(0, sc_primitives::gwei(109), 21_000).sign(&alice.key))
            .unwrap_err();
        assert_eq!(
            err,
            TxError::Underpriced {
                required: sc_primitives::gwei(110)
            }
        );
        // +10%: accepted; the displaced hash surfaces via drain_evicted.
        let old_hash = transfer_tx(0, sc_primitives::gwei(100), 21_000)
            .sign(&alice.key)
            .hash();
        net.submit(transfer_tx(0, sc_primitives::gwei(110), 21_000).sign(&alice.key))
            .unwrap();
        assert_eq!(net.drain_evicted(), vec![old_hash]);
        // A future nonce pools but cannot mine until the gap fills.
        net.submit(transfer_tx(2, sc_primitives::gwei(1), 21_000).sign(&alice.key))
            .unwrap();
        let block = net.mine_block();
        assert_eq!(block.transactions.len(), 1, "nonce 2 waits for nonce 1");
        assert_eq!(net.pending_count(), 1);
        net.submit(transfer_tx(1, sc_primitives::gwei(1), 21_000).sign(&alice.key))
            .unwrap();
        assert_eq!(net.mine_block().transactions.len(), 2);
        assert_eq!(net.nonce_of(alice.address), 3);
    }

    #[test]
    fn pooled_effective_nonce_tracks_the_contiguous_run() {
        let mut net = Testnet::new();
        net.enable_pool(PoolConfig::default());
        let alice = net.funded_wallet("alice", ether(10));
        assert_eq!(net.effective_nonce(alice.address), 0);
        net.submit(transfer_tx(0, sc_primitives::gwei(1), 21_000).sign(&alice.key))
            .unwrap();
        net.submit(transfer_tx(1, sc_primitives::gwei(1), 21_000).sign(&alice.key))
            .unwrap();
        assert_eq!(net.effective_nonce(alice.address), 2);
        net.mine_block();
        assert_eq!(net.effective_nonce(alice.address), 2);
    }

    #[test]
    fn pooled_capacity_eviction_routes_the_victim_hash() {
        let mut net = Testnet::new();
        net.enable_pool(PoolConfig {
            capacity: 2,
            ..PoolConfig::default()
        });
        let alice = net.funded_wallet("alice", ether(10));
        let bob = net.funded_wallet("bob", ether(10));
        let carol = net.funded_wallet("carol", ether(10));
        let cheap = transfer_tx(0, sc_primitives::gwei(1), 21_000).sign(&alice.key);
        let cheap_hash = cheap.hash();
        net.submit(cheap).unwrap();
        net.submit(transfer_tx(0, sc_primitives::gwei(5), 21_000).sign(&bob.key))
            .unwrap();
        // Too cheap to displace anyone.
        let err = net
            .submit(transfer_tx(0, sc_primitives::gwei(1), 21_000).sign(&carol.key))
            .unwrap_err();
        assert_eq!(
            err,
            TxError::PoolFull {
                must_exceed: sc_primitives::gwei(1)
            }
        );
        // Rich enough: alice's cheap tx is displaced.
        net.submit(transfer_tx(0, sc_primitives::gwei(2), 21_000).sign(&carol.key))
            .unwrap();
        assert_eq!(net.drain_evicted(), vec![cheap_hash]);
        assert_eq!(net.pending_count(), 2);
    }

    #[test]
    fn enable_pool_migrates_queued_transactions() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        net.submit(transfer_tx(0, sc_primitives::gwei(1), 21_000).sign(&alice.key))
            .unwrap();
        net.enable_pool(PoolConfig::default());
        assert!(net.pool_enabled());
        assert_eq!(net.pending_count(), 1);
        assert_eq!(net.effective_nonce(alice.address), 1);
        assert_eq!(net.mine_block().transactions.len(), 1);
    }

    #[test]
    fn pooled_serial_and_cached_mining_agree() {
        let build = |net: &mut Testnet| {
            net.enable_pool(PoolConfig::default());
            let alice = net.funded_wallet("alice", ether(10));
            let bob = net.funded_wallet("bob", ether(10));
            for (i, w) in [&alice, &bob, &alice, &bob].iter().enumerate() {
                let tx = Transaction {
                    nonce: net.effective_nonce(w.address),
                    gas_price: sc_primitives::gwei(1 + i as u64),
                    gas_limit: 50_000,
                    to: Some(Address([9; 20])),
                    value: U256::from_u64(i as u64),
                    data: vec![i as u8; i],
                };
                net.submit(tx.sign(&w.key)).unwrap();
            }
        };
        let mut fast = Testnet::new();
        build(&mut fast);
        let fast_block = fast.mine_block();

        let mut reference = Testnet::new();
        build(&mut reference);
        let ref_block = reference.mine_block_serial();

        assert_eq!(fast_block.hash, ref_block.hash);
        assert_eq!(fast_block.gas_used, ref_block.gas_used);
    }

    #[test]
    fn parallel_blocks_match_serial_and_report_conflicts() {
        let run = |exec: ExecMode| {
            let mut net = Testnet::with_config(ChainConfig {
                exec,
                ..ChainConfig::default()
            });
            let wallets: Vec<Wallet> = (0..6)
                .map(|i| net.funded_wallet(&format!("w{i}"), ether(10)))
                .collect();
            // Disjoint transfers (speculate cleanly) plus two txs
            // hitting the same recipient (the second conflicts on the
            // recipient balance) and a contract deploy.
            for (i, w) in wallets.iter().enumerate().take(4) {
                let tx = Transaction {
                    nonce: 0,
                    gas_price: sc_primitives::gwei(1),
                    gas_limit: 21_000,
                    to: Some(Address([10 + i as u8; 20])),
                    value: U256::from_u64(100 + i as u64),
                    data: vec![],
                };
                net.submit(tx.sign(&w.key)).unwrap();
            }
            for w in &wallets[4..] {
                let tx = Transaction {
                    nonce: 0,
                    gas_price: sc_primitives::gwei(1),
                    gas_limit: 21_000,
                    to: Some(Address([0x77; 20])),
                    value: U256::from_u64(5),
                    data: vec![],
                };
                net.submit(tx.sign(&w.key)).unwrap();
            }
            let deployer = net.funded_wallet("deployer", ether(10));
            let initcode = sc_evm::wrap_initcode(&[0x60, 0x2a, 0x60, 0x00, 0x55, 0x00]);
            let tx = Transaction {
                nonce: 0,
                gas_price: sc_primitives::gwei(1),
                gas_limit: 200_000,
                to: None,
                value: U256::ZERO,
                data: initcode,
            };
            net.submit(tx.sign(&deployer.key)).unwrap();
            let block = net.mine_block();
            (block, net)
        };

        let (pb, pnet) = run(ExecMode::Parallel);
        let (sb, snet) = run(ExecMode::Serial);
        assert_eq!(pb.hash, sb.hash, "parallel block is byte-identical");
        assert_eq!(pb.state_root, sb.state_root);
        assert_eq!(pb.receipts_root, sb.receipts_root);
        assert_eq!(pb.gas_used, sb.gas_used);
        for t in &pb.transactions {
            assert_eq!(pnet.receipt(t.hash()), snet.receipt(t.hash()));
        }

        let report = pnet.last_seal_report().unwrap();
        assert_eq!(report.mode, ExecMode::Parallel);
        assert_eq!(report.txs, 7);
        assert_eq!(report.speculative + report.reexecuted, report.txs);
        assert!(
            report.speculative >= 5,
            "disjoint txs commit speculatively: {report:?}"
        );
        assert!(
            report.reexecuted >= 1,
            "second tx into the shared recipient conflicts: {report:?}"
        );
        let serial_report = snet.last_seal_report().unwrap();
        assert_eq!(serial_report.mode, ExecMode::Serial);
        assert_eq!(serial_report.speculative, 0);
    }

    #[test]
    fn create_tx_failure_consumes_nonce() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        // Initcode that immediately reverts.
        let initcode = vec![0x60, 0x00, 0x60, 0x00, 0xfd];
        let receipt = net.deploy(&alice, initcode, U256::ZERO, 100_000).unwrap();
        assert!(!receipt.success);
        assert!(receipt.contract_address.is_none());
        assert_eq!(net.nonce_of(alice.address), 1);
    }

    /// Two nodes with identical genesis state (same funding, same
    /// config), histories armed — the fixture every import/reorg test
    /// builds on.
    fn twin_nets() -> (Testnet, Testnet) {
        let mk = || {
            let mut net = Testnet::new();
            net.funded_wallet("alice", ether(10));
            net.funded_wallet("carol", ether(10));
            net.enable_history();
            net
        };
        (mk(), mk())
    }

    #[test]
    fn import_extends_peer_and_replays_identically() {
        let (mut a, mut b) = twin_nets();
        let alice = Wallet::from_seed("alice");
        a.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
            .unwrap();
        let block = a.head().clone();
        assert_eq!(
            b.import_block(block.clone()).unwrap(),
            ImportOutcome::Extended
        );
        assert_eq!(b.head().hash, a.head().hash);
        assert_eq!(b.balance_of(Address([9; 20])), ether(1));
        assert_eq!(b.nonce_of(alice.address), 1);
        // Receipts materialize on the importer too.
        let tx_hash = block.transactions[0].hash();
        assert!(b.receipt(tx_hash).is_some());
        // A second delivery (gossip echo) dedups.
        assert_eq!(b.import_block(block).unwrap(), ImportOutcome::AlreadyKnown);
    }

    #[test]
    fn import_rejects_tampered_blocks() {
        let (mut a, mut b) = twin_nets();
        let alice = Wallet::from_seed("alice");
        a.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
            .unwrap();
        let good = a.head().clone();

        // Content tampered without recomputing the hash: caught by the
        // hash check before any execution.
        let mut forged = good.clone();
        forged.gas_used += 1;
        assert!(matches!(
            b.import_block(forged),
            Err(ImportError::InvalidBlock { reason }) if reason.contains("hash")
        ));

        // Root tampered *with* a recomputed hash: replay catches the
        // dishonest commitment, and the failed import leaves no trace.
        let mut forged = good.clone();
        forged.state_root = H256([0xee; 32]);
        forged.hash = Block::compute_hash(
            forged.number,
            forged.timestamp,
            forged.parent_hash,
            forged.state_root,
            forged.receipts_root,
            forged.gas_used,
            &forged.transactions,
        );
        assert!(matches!(
            b.import_block(forged),
            Err(ImportError::InvalidBlock { reason }) if reason.contains("state root")
        ));
        assert_eq!(b.head().number, 0, "failed import must not advance");
        assert_eq!(b.balance_of(Address([9; 20])), U256::ZERO);
        assert_eq!(b.nonce_of(alice.address), 0);

        // The honest original still imports cleanly afterwards.
        assert_eq!(b.import_block(good).unwrap(), ImportOutcome::Extended);
    }

    #[test]
    fn rollback_restores_state_receipts_and_clock() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        net.enable_history();
        let t0 = net.head().timestamp;
        let r = net
            .execute(&alice, Address([9; 20]), ether(2), vec![], 100_000)
            .unwrap();
        let minted = net.total_minted();

        let orphan = net.rollback_head_block().expect("one layer retained");
        assert_eq!(orphan.number, 1);
        assert_eq!(net.head().number, 0);
        assert_eq!(net.head().timestamp, t0);
        assert_eq!(net.balance_of(alice.address), ether(10));
        assert_eq!(net.balance_of(Address([9; 20])), U256::ZERO);
        assert_eq!(net.nonce_of(alice.address), 0);
        assert!(net.receipt(r.tx_hash).is_none());
        assert_eq!(net.total_minted(), minted, "mints predate the block");
        assert_eq!(net.rollback_capacity(), 0);
        assert!(net.rollback_head_block().is_none(), "genesis stays");

        // The chain keeps working: the same transfer mines again.
        net.execute(&alice, Address([9; 20]), ether(2), vec![], 100_000)
            .unwrap();
        assert_eq!(net.balance_of(Address([9; 20])), ether(2));
    }

    #[test]
    fn heavier_fork_reorgs_and_reports_orphaned_txs() {
        let (mut a, mut b) = twin_nets();
        let alice = Wallet::from_seed("alice");
        let carol = Wallet::from_seed("carol");
        // a mines one block paying bob; b mines two blocks paying dave.
        a.execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
            .unwrap();
        b.execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
            .unwrap();
        b.execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
            .unwrap();
        let orphaned_hash = a.head().transactions[0].hash();
        let b1 = b.block(1).unwrap().clone();
        let b2 = b.block(2).unwrap().clone();

        // b2 arrives first: detached, parked on the side.
        assert_eq!(a.import_block(b2.clone()).unwrap(), ImportOutcome::Side);
        // b1 fills the gap; the two-block branch beats height 1.
        match a.import_block(b1).unwrap() {
            ImportOutcome::Reorged {
                reverted,
                applied,
                orphaned_txs,
            } => {
                assert_eq!((reverted, applied), (1, 2));
                assert_eq!(orphaned_txs.len(), 1);
                assert_eq!(orphaned_txs[0].hash(), orphaned_hash);
            }
            other => panic!("expected reorg, got {other:?}"),
        }
        assert_eq!(a.head().hash, b2.hash);
        assert_eq!(a.balance_of(Address([0xda; 20])), ether(2));
        assert_eq!(a.balance_of(Address([0xb0; 20])), U256::ZERO);
        assert!(a.receipt(orphaned_hash).is_none());
        assert_eq!(a.side_block_count(), 1, "a's old head is now an orphan");
        assert_eq!(a.state.total_balance(), a.total_minted());
        // The orphaned transfer is still valid on the new chain —
        // alice's nonce rolled back with it — so resubmission lands.
        assert_eq!(a.nonce_of(alice.address), 0);
        a.execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
            .unwrap();
        assert_eq!(a.balance_of(Address([0xb0; 20])), ether(1));
    }

    #[test]
    fn equal_height_forks_converge_on_the_smaller_hash() {
        let (mut a, mut b) = twin_nets();
        let alice = Wallet::from_seed("alice");
        let carol = Wallet::from_seed("carol");
        a.execute(&alice, Address([0xb0; 20]), ether(1), vec![], 100_000)
            .unwrap();
        b.execute(&carol, Address([0xda; 20]), ether(1), vec![], 100_000)
            .unwrap();
        let block_a = a.head().clone();
        let block_b = b.head().clone();
        assert_eq!(block_a.number, block_b.number);
        let a_out = a.import_block(block_b.clone()).unwrap();
        let b_out = b.import_block(block_a.clone()).unwrap();
        // Exactly one side switches — the one holding the larger hash.
        if block_a.hash.0 < block_b.hash.0 {
            assert_eq!(a_out, ImportOutcome::Side);
            assert!(matches!(b_out, ImportOutcome::Reorged { .. }));
        } else {
            assert!(matches!(a_out, ImportOutcome::Reorged { .. }));
            assert_eq!(b_out, ImportOutcome::Side);
        }
        assert_eq!(a.head().hash, b.head().hash, "fork choice converges");
    }

    #[test]
    fn import_requires_history() {
        let (mut a, mut b) = twin_nets();
        let alice = Wallet::from_seed("alice");
        a.execute(&alice, Address([9; 20]), ether(1), vec![], 100_000)
            .unwrap();
        let mut cold = Testnet::new();
        cold.funded_wallet("alice", ether(10));
        cold.funded_wallet("carol", ether(10));
        assert!(matches!(
            cold.import_block(a.head().clone()),
            Err(ImportError::TooDeep)
        ));
        // And the armed twin accepts the very same block.
        assert_eq!(
            b.import_block(a.head().clone()).unwrap(),
            ImportOutcome::Extended
        );
    }
}
