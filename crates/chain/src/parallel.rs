//! Optimistic parallel block execution (Block-STM-style).
//!
//! The serial seal path executes a block's transactions one after
//! another against the live [`WorldState`]. This module runs the same
//! transactions **speculatively and concurrently** over shared
//! snapshot views of the pre-block state, then commits them *in block
//! order* with value-based validation:
//!
//! 1. **Speculate** — every transaction executes against its own
//!    [`SpeculativeHost`] wrapping `&WorldState`. The wrapper buffers
//!    writes and records every base read with the value observed.
//!    Transactions never see each other; the fan-out uses
//!    `std::thread::scope` chunks like the signature-recovery batch.
//! 2. **Validate + commit** — walking the block in order, each
//!    transaction's recorded reads are replayed against the *live*
//!    state (which now contains every earlier transaction's effects).
//!    If all values still match, the speculative execution is exactly
//!    what serial execution would have produced — execution is a
//!    deterministic function of its base reads — and the buffered
//!    write set is applied directly. On any mismatch (or a poisoned
//!    read the wrapper could not track), the transaction re-executes
//!    serially at its slot, which is the serial semantics by
//!    definition.
//!
//! Either way every transaction's effects are byte-for-byte the serial
//! result, so the sealed block (state root, receipts root, gas, logs,
//! hash) is identical to a serial seal's regardless of thread
//! scheduling — which every follower re-proves by replaying it serially.
//!
//! **Coinbase fees.** Every transaction pays the miner, so the
//! coinbase balance changes at every slot — tracked as a read it would
//! serialize the whole block. Instead the gas settlement is expressed
//! as a *commutative fee delta* (`gas_used × gas_price`, credited at
//! commit); the coinbase balance itself is registered as *volatile* in
//! the wrapper, so any other read of it (a transfer to the miner, a
//! `BALANCE` opcode on the coinbase) poisons the speculation and falls
//! back to serial re-execution.

use crate::block::{FailureReason, Receipt};
use crate::state::WorldState;
use crate::testnet::{ChainConfig, PendingTx};
use sc_evm::host::{BlockEnv, Env, TxEnv};
use sc_evm::spec::{ReadRecord, SpeculativeHost, WriteSet};
use sc_evm::{AnalysisCache, CallParams, Evm, Host};
use sc_primitives::{Address, U256};
use std::sync::{Arc, OnceLock};

/// How a chain executes the transactions inside a block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One transaction after another against the live state (the
    /// reference semantics, and the default).
    #[default]
    Serial,
    /// Optimistic concurrent speculation with in-order validation and
    /// serial re-execution of conflicting transactions. Produces
    /// byte-identical blocks.
    Parallel,
}

impl ExecMode {
    /// The mode selected by the `SC_EXEC_MODE` environment variable
    /// (`parallel` opts in; anything else is [`ExecMode::Serial`]).
    /// Cached after the first read so a chain's behaviour cannot change
    /// mid-process. This is how CI flips whole suites to the parallel
    /// executor without touching each test's config.
    pub fn from_env() -> ExecMode {
        static MODE: OnceLock<ExecMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("SC_EXEC_MODE") {
            Ok(v) if v.eq_ignore_ascii_case("parallel") => ExecMode::Parallel,
            _ => ExecMode::Serial,
        })
    }
}

/// What happened while sealing the most recent block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SealReport {
    /// Executor that sealed the block.
    pub mode: ExecMode,
    /// Transactions in the block.
    pub txs: usize,
    /// Transactions whose speculative execution validated and committed
    /// directly.
    pub speculative: usize,
    /// Transactions that conflicted (or poisoned) and re-executed
    /// serially in commit order.
    pub reexecuted: usize,
}

/// One transaction's speculative execution: the receipt it would
/// produce plus everything needed to decide whether it may commit.
pub(crate) struct SpecOutcome {
    /// `None` when speculation bailed out before executing (e.g. the
    /// sender could not buy gas against the snapshot).
    receipt: Option<Receipt>,
    reads: Vec<ReadRecord>,
    writes: WriteSet,
    /// Net wei owed to the coinbase: `gas_used × gas_price`.
    fee_delta: U256,
    poisoned: bool,
}

impl SpecOutcome {
    /// Commits the speculation iff every recorded read still holds
    /// against the live state: applies the write set and the coinbase
    /// fee, returning the receipt. `None` demands serial re-execution.
    pub(crate) fn try_commit(self, state: &mut WorldState, coinbase: Address) -> Option<Receipt> {
        let receipt = self.receipt?;
        if self.poisoned || !self.reads.iter().all(|r| r.still_holds(state)) {
            return None;
        }
        for (a, v) in self.writes.balances {
            state.set_balance_raw(a, v);
        }
        for (a, v) in self.writes.nonces {
            state.set_nonce_raw(a, v);
        }
        for (a, (code, hash)) in self.writes.codes {
            state.set_code_raw(a, code, hash);
        }
        for ((a, k), v) in self.writes.storage {
            state.set_storage_raw(a, k, v);
        }
        state.add_balance_raw(coinbase, self.fee_delta);
        Some(receipt)
    }

    fn bailed() -> SpecOutcome {
        SpecOutcome {
            receipt: None,
            reads: Vec::new(),
            writes: WriteSet::default(),
            fee_delta: U256::ZERO,
            poisoned: true,
        }
    }
}

/// Blocks below this many transactions speculate inline on the calling
/// thread — the scoped-thread setup would cost more than it saves.
const PARALLEL_EXEC_THRESHOLD: usize = 4;

/// Speculatively executes every transaction of a block concurrently
/// over the shared pre-block state. Outcomes come back in block order;
/// nothing is committed.
pub(crate) fn speculate_block(
    state: &WorldState,
    config: &ChainConfig,
    cache: &Arc<AnalysisCache>,
    txs: &[PendingTx],
    block_number: u64,
    timestamp: u64,
) -> Vec<SpecOutcome> {
    let speculate =
        |ptx: &PendingTx| execute_spec(state, config, cache, ptx, block_number, timestamp);

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    if txs.len() < PARALLEL_EXEC_THRESHOLD || workers < 2 {
        return txs.iter().map(speculate).collect();
    }

    let chunk_len = txs.len().div_ceil(workers);
    let mut outcomes: Vec<Option<SpecOutcome>> = Vec::new();
    outcomes.resize_with(txs.len(), || None);
    std::thread::scope(|scope| {
        for (inputs, outputs) in txs.chunks(chunk_len).zip(outcomes.chunks_mut(chunk_len)) {
            scope.spawn(|| {
                for (ptx, out) in inputs.iter().zip(outputs.iter_mut()) {
                    *out = Some(speculate(ptx));
                }
            });
        }
    });
    outcomes
        .into_iter()
        .map(|o| o.expect("every chunk slot filled"))
        .collect()
}

/// Executes one transaction speculatively against a snapshot view,
/// mirroring `Testnet::execute_transaction` operation for operation —
/// with the gas settlement's coinbase legs replaced by the commutative
/// fee delta.
fn execute_spec(
    state: &WorldState,
    config: &ChainConfig,
    cache: &Arc<AnalysisCache>,
    ptx: &PendingTx,
    block_number: u64,
    timestamp: u64,
) -> SpecOutcome {
    let tx = &ptx.signed.tx;
    let sender = ptx.sender;
    let mut host = SpeculativeHost::new(state).with_volatile_balance(config.coinbase);

    // Buy gas. Serial transfers `gas_limit × gas_price` to the
    // coinbase; here the sender is debited in the overlay and the
    // coinbase leg becomes part of the fee delta. A sender who cannot
    // pay against the snapshot (an earlier in-block tx drained them)
    // bails to serial re-execution, which is the authoritative
    // semantics for that corner.
    let gas_cost = U256::from_u64(tx.gas_limit).wrapping_mul(tx.gas_price);
    if sender == config.coinbase {
        return SpecOutcome::bailed();
    }
    let sender_bal = host.balance(sender);
    if sender_bal < gas_cost {
        return SpecOutcome::bailed();
    }
    host.write_balance(sender, sender_bal.wrapping_sub(gas_cost));

    let exec_gas = tx.gas_limit - ptx.intrinsic;
    let env = Env {
        block: BlockEnv {
            number: block_number,
            timestamp,
            coinbase: config.coinbase,
            difficulty: U256::from_u64(1),
            gas_limit: config.block_gas_limit,
        },
        tx: TxEnv {
            origin: sender,
            gas_price: tx.gas_price,
        },
    };

    let (success, gas_left, output, contract_address, failure) = match tx.to {
        None => {
            let mut evm = Evm::new(&mut host, env).with_analysis_cache(Arc::clone(cache));
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
            host.bump_nonce(sender);
            let mut evm = Evm::new(&mut host, env).with_analysis_cache(Arc::clone(cache));
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

    // Settle gas: refund capped at half of what was used, the unused
    // remainder reimbursed to the sender, the burned fee owed to the
    // coinbase as the commutative delta.
    let (logs, refund_counter) = host.take_tx_scratch();
    let gas_used_pre_refund = tx.gas_limit - gas_left;
    let refund = refund_counter.min(gas_used_pre_refund / 2);
    let gas_used = gas_used_pre_refund - refund;
    let reimbursement = U256::from_u64(tx.gas_limit - gas_used).wrapping_mul(tx.gas_price);
    let sender_bal = host.balance(sender);
    host.write_balance(sender, sender_bal.wrapping_add(reimbursement));
    let fee_delta = gas_cost.wrapping_sub(reimbursement);

    // For creates, a failed execution must still bump the sender nonce
    // (mirrors the serial normalization).
    if tx.is_create() && host.nonce(sender) == tx.nonce {
        host.bump_nonce(sender);
    }

    let receipt = Receipt {
        tx_hash: ptx.hash,
        block_number,
        tx_index: 0,
        success,
        gas_used,
        contract_address: if success { contract_address } else { None },
        logs: if success { logs } else { Vec::new() },
        output,
        failure,
    };
    let (reads, writes, poisoned) = host.into_parts();
    SpecOutcome {
        receipt: Some(receipt),
        reads,
        writes,
        fee_delta,
        poisoned,
    }
}
