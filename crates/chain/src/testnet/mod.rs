//! An Ethereum-style test-network node ("Kovan simulator"): one is a
//! whole single-node chain, `sc_core::net::Network` runs N of the same.
//!
//! Deterministic, in-process, instant-sealing: admitted transactions
//! wait in a fee-market pool, each mined block packs from it under the
//! block gas limit, closes an undo layer and commits real `state_root`
//! / `receipts_root` tries. Blocks carry a controllable timestamp (the
//! paper's betting windows T0..T3 are driven by `block.timestamp`), and
//! gas accounting follows the Yellow-Paper rules end to end: intrinsic
//! gas, execution, the refund cap of `gas_used / 2`, and miner payment.
//!
//! This file holds the type, its construction, queries and the sign +
//! submit + mine conveniences; `admit` admission to the pool, `seal`
//! packing and the one execution core, `import` undo history and replay
//! of gossiped blocks (the reference executor) on the branch the shared
//! fork choice (`crate::fork_choice`) names.

mod admit;
mod import;
mod seal;

pub use admit::TxError;
pub use import::{ImportError, ImportOutcome};
pub use seal::SealReport;

use crate::block::{receipt_key, Block, Header, Receipt};
use crate::fork_choice::ChainStore;
use crate::proof::{AccountProof, ReceiptProof, StorageProof};
use crate::state::WorldState;
use crate::tx::{Transaction, Wallet};
use admit::PendingTx;
use import::BlockUndoRec;
use sc_evm::host::{BlockEnv, Env, TxEnv};
use sc_evm::{AnalysisCache, CallParams, Evm, Host};
use sc_mempool::{Mempool, PoolConfig};
use sc_primitives::{Address, H256, U256};
use std::collections::HashMap;
use std::rc::Rc;

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
    /// The fee market: pool capacity and same-nonce replacement bump.
    pub pool: PoolConfig,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            block_interval: 4,
            block_gas_limit: 8_000_000,
            coinbase: Address([0xc0; 20]),
            genesis_timestamp: 1_550_000_000, // Feb 2019, the paper's era
            default_gas_price: sc_primitives::gwei(1),
            pool: PoolConfig::default(),
        }
    }
}

/// The simulated chain.
pub struct Testnet {
    /// World state (public for inspection in tests and benchmarks).
    pub state: WorldState,
    config: ChainConfig,
    /// The canonical chain from genesis, and every side block gossip
    /// or a reorg left behind.
    chain: ChainStore<Block>,
    /// Each canonical block's receipts in transaction order, indexed by
    /// height beside the canonical chain.
    receipts: Vec<Vec<Receipt>>,
    /// Canonical transaction hash → (height, index) into `receipts`, and
    /// the sender this node derived for the transaction.
    receipt_index: HashMap<H256, (u64, u32, Address)>,
    /// Per-address log index: for each emitting address, the ascending
    /// list of block numbers holding at least one of its logs. Updated
    /// at commit time so address-filtered [`Testnet::logs`] queries
    /// touch only the relevant blocks instead of scanning the chain.
    log_index: HashMap<Address, Vec<u64>>,
    /// The fee market: every admitted transaction waits here until the
    /// miner packs it into a block under the gas limit.
    pool: Mempool<PendingTx>,
    /// Packed transactions the seal left out because they no longer
    /// passed the admission rules at their slot; drained with the
    /// pool's evictions.
    refused: Vec<H256>,
    time: u64,
    /// Wei ever created through the genesis allocation and the faucet.
    /// Since the EVM only moves value, `state.total_balance()` must
    /// equal this after every block — the conservation invariant the
    /// fault-injection suite asserts.
    minted: U256,
    /// Jumpdest analyses shared by every EVM this chain spins up, so a
    /// contract's bitmap is computed once across all blocks and calls.
    analysis_cache: Rc<AnalysisCache>,
    /// Report of the most recently sealed block.
    last_seal: Option<SealReport>,
    /// One undo record per block above genesis, newest last: the chain
    /// can roll back to any block boundary, never below genesis.
    undo_stack: Vec<BlockUndoRec>,
    /// `minted` when the currently open undo layer began.
    open_minted: U256,
}

impl Testnet {
    /// Boots a chain with the default configuration.
    pub fn new() -> Self {
        Self::with_config(ChainConfig::default())
    }

    /// Boots a chain with a custom configuration.
    pub fn with_config(config: ChainConfig) -> Self {
        Self::with_genesis(config, &[])
    }

    /// Boots a chain whose genesis state holds `alloc`. The first undo
    /// layer opens after it, so this is the only funding no reorg can
    /// touch (a [`Testnet::faucet`] mint rolls back with the block it
    /// landed in) — the sound way to fund nodes that import each
    /// other's blocks.
    pub fn with_genesis(config: ChainConfig, alloc: &[(Address, U256)]) -> Self {
        // Genesis commits the empty tries: block 1 commits `alloc`.
        let empty = sc_trie::empty_root();
        let genesis = Block {
            header: Header::new(
                0,
                config.genesis_timestamp,
                H256::ZERO,
                empty,
                empty,
                0,
                vec![],
            ),
            transactions: Vec::new(),
        };
        let mut state = WorldState::new();
        let mut minted = U256::ZERO;
        for &(address, amount) in alloc {
            minted = minted.wrapping_add(amount);
            state.mint(address, amount);
        }
        state.block_hashes.insert(0, genesis.hash);
        state.begin_undo_layer();
        Testnet {
            state,
            time: config.genesis_timestamp,
            pool: Mempool::new(config.pool.clone()),
            refused: Vec::new(),
            undo_stack: Vec::new(),
            open_minted: minted,
            config,
            chain: ChainStore::new(genesis),
            receipts: vec![Vec::new()],
            receipt_index: HashMap::new(),
            log_index: HashMap::new(),
            minted,
            analysis_cache: Rc::new(AnalysisCache::new()),
            last_seal: None,
        }
    }

    /// The shared code-analysis cache (hit/miss stats for benchmarks).
    pub fn analysis_cache(&self) -> &AnalysisCache {
        &self.analysis_cache
    }

    /// The chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Current head block.
    pub fn head(&self) -> &Block {
        self.chain.head()
    }

    /// Merkle proof that `(address, slot)` holds its current value,
    /// anchored to the current folded state root. Immediately after a
    /// block seals (and until the next faucet mint or write) that root
    /// *is* the head header's `state_root`, so the proof lets a light
    /// verifier check the slot against the chain's own commitment —
    /// see [`StorageProof::verify`].
    pub fn prove_storage(&mut self, address: Address, slot: U256) -> StorageProof {
        self.state.prove_storage(address, slot)
    }

    /// Merkle proof that `address` holds its current nonce and balance,
    /// anchored to the current folded state root (see
    /// [`Testnet::prove_storage`] for the anchoring rule). This is what
    /// a light submitter requests from its relay to cross-check nonce
    /// advice against the chain's own commitment.
    pub fn prove_account(&mut self, address: Address) -> AccountProof {
        self.state.prove_account(address)
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
            trie.insert(&receipt_key(r.tx_index as u64), r.rlp_encode());
        }
        let proof = trie.prove(&receipt_key(tx_index));
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
        self.chain.get(number)
    }

    /// Receipt by transaction hash.
    pub fn receipt(&self, tx_hash: H256) -> Option<&Receipt> {
        let &(number, index, _) = self.receipt_index.get(&tx_hash)?;
        self.receipts.get(number as usize)?.get(index as usize)
    }

    /// All receipts in a block, in transaction order.
    pub fn receipts_in_block(&self, number: u64) -> Vec<&Receipt> {
        self.receipts
            .get(number as usize)
            .map_or_else(Vec::new, |rs| rs.iter().collect())
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

    /// Mints balance out of band, into the block being built.
    pub fn faucet(&mut self, a: Address, amount: U256) {
        self.minted = self.minted.wrapping_add(amount);
        self.state.mint(a, amount);
    }

    /// Total wei ever minted through the genesis allocation and
    /// [`Testnet::faucet`]. Everything else the chain does is a
    /// transfer, so `state.total_balance()` must equal this at every
    /// block boundary (ether conservation).
    pub fn total_minted(&self) -> U256 {
        self.minted
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

    // ---- convenience API (sign + submit + mine in one shot) ----

    /// Sends a call transaction from `wallet` and mines until it lands.
    pub fn execute(
        &mut self,
        wallet: &Wallet,
        to: Address,
        value: U256,
        data: Vec<u8>,
        gas_limit: u64,
    ) -> Result<Receipt, TxError> {
        self.send_and_mine(wallet, Some(to), value, data, gas_limit)
    }

    /// Deploys a contract from initcode and mines until it lands.
    pub fn deploy(
        &mut self,
        wallet: &Wallet,
        initcode: Vec<u8>,
        value: U256,
        gas_limit: u64,
    ) -> Result<Receipt, TxError> {
        self.send_and_mine(wallet, None, value, initcode, gas_limit)
    }

    /// Signs at the pool-aware nonce and the default gas price, submits,
    /// and mines until the receipt exists — higher-priced pooled
    /// transactions may fill the blocks ahead. An empty block first
    /// means the pool displaced ours: [`TxError::Evicted`].
    fn send_and_mine(
        &mut self,
        wallet: &Wallet,
        to: Option<Address>,
        value: U256,
        data: Vec<u8>,
        gas_limit: u64,
    ) -> Result<Receipt, TxError> {
        let tx = Transaction {
            nonce: self.effective_nonce(wallet.address),
            gas_price: self.config.default_gas_price,
            gas_limit,
            to,
            value,
            data,
        };
        let hash = self.submit(tx.sign(&wallet.key))?;
        loop {
            let block = self.mine_block();
            if let Some(receipt) = self.receipt(hash) {
                return Ok(receipt.clone());
            }
            if block.transactions.is_empty() {
                return Err(TxError::Evicted);
            }
        }
    }

    /// What an EVM run sees as block `number` at `timestamp`.
    fn env(&self, number: u64, timestamp: u64, origin: Address, gas_price: U256) -> Env {
        Env {
            block: BlockEnv {
                number,
                timestamp,
                coinbase: self.config.coinbase,
                difficulty: U256::from_u64(1),
                gas_limit: self.config.block_gas_limit,
            },
            tx: TxEnv { origin, gas_price },
        }
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
        let env = self.env(self.head().number + 1, self.now(), from, U256::ZERO);
        let snapshot = self.state.snapshot();
        let mut profiler = sc_evm::GasProfiler::new();
        let out = Evm::with_inspector(&mut self.state, env, &mut profiler)
            .with_analysis_cache(Rc::clone(&self.analysis_cache))
            .call(CallParams::transact(from, to, value, data, gas));
        self.state.revert(snapshot);
        self.state.clear_tx_scratch();
        (profiler, gas - out.gas_left)
    }

    /// Read-only call (like `eth_call`): state changes are discarded.
    /// The EVM success flag is preserved — a reverted call comes back
    /// with `reverted: true` instead of masquerading as output bytes.
    pub fn call(&mut self, from: Address, to: Address, data: Vec<u8>) -> CallResult {
        let env = self.env(self.head().number + 1, self.now(), from, U256::ZERO);
        let snapshot = self.state.snapshot();
        let mut evm =
            Evm::new(&mut self.state, env).with_analysis_cache(Rc::clone(&self.analysis_cache));
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
}

impl Default for Testnet {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests;
