//! Block building: packing the pool, the one execution core that both
//! sealing and import run, and the commit tail that indexes a block.

use super::admit::{upfront_cost, PendingTx};
use super::import::BlockUndoRec;
use super::Testnet;
use crate::block::{self, Block, FailureReason, Header, Receipt};
use crate::tx::SignedTransaction;
use sc_evm::host::Host;
use sc_evm::{CallParams, Evm};
use sc_primitives::{Address, H256, U256};
use std::rc::Rc;

/// What executing a block's transactions determined: the receipts plus
/// every header field that commits to the execution.
pub(super) struct Executed {
    /// The transactions that ran, in block order.
    pub(super) txs: Vec<PendingTx>,
    pub(super) receipts: Vec<Receipt>,
    pub(super) gas_used: u64,
    pub(super) state_root: H256,
    pub(super) receipts_root: H256,
}

/// What the most recent seal did. The two counters are always 0 and
/// stay only because `src/bin/e2e_bench/src/drive.rs` reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SealReport {
    /// Transactions in the block.
    pub txs: usize,
    /// Always 0: the one executor speculates nothing.
    pub speculative: usize,
    /// Always 0, likewise.
    pub reexecuted: usize,
}

impl Testnet {
    /// Mines the next block and returns it: a greedy fee-priority pack
    /// of the pool under the block gas limit (per-sender nonce order
    /// preserved, leftovers stay pooled for later blocks).
    ///
    /// The expensive pre-execution work (sender recovery, tx hashing,
    /// intrinsic gas) was cached on each `PendingTx` at admission, so
    /// this is purely the sequential commit phase.
    pub fn mine_block(&mut self) -> Block {
        let state = &self.state;
        let packed: Vec<PendingTx> = self
            .pool
            .pack(self.config.block_gas_limit, |a| state.nonce(a))
            .into_iter()
            .map(|(_, ptx)| ptx)
            .collect();

        self.time += self.config.block_interval;
        let number = self.head().number + 1;
        let timestamp = self.time;
        let parent_hash = self.head().hash;

        let executed = self
            .execute_block(packed, number, timestamp, true)
            .expect("sealing leaves a refused transaction out");
        self.last_seal = Some(SealReport {
            txs: executed.txs.len(),
            speculative: 0,
            reexecuted: 0,
        });

        let tx_hashes = executed.txs.iter().map(|p| p.hash).collect();
        let (transactions, senders): (Vec<SignedTransaction>, Vec<Address>) = executed
            .txs
            .into_iter()
            .map(|p| (p.signed, p.sender))
            .unzip();
        let header = Header::new(
            number,
            timestamp,
            parent_hash,
            executed.state_root,
            executed.receipts_root,
            executed.gas_used,
            tx_hashes,
        );
        let block = Block {
            header,
            transactions,
        };
        self.commit_block(&block, executed.receipts, senders);
        block
    }

    /// The report of the most recently mined block (`None` before the
    /// first seal).
    pub fn last_seal_report(&self) -> Option<SealReport> {
        self.last_seal
    }

    /// The execution core: runs `txs` as block `number` at `timestamp`
    /// on the current state, one after another, numbers the receipts,
    /// sums the gas and folds the block's writes into the tries once,
    /// not per op. Sealing builds a header from the result; import
    /// compares it to one — the same loop, so every follower re-proves
    /// every seal.
    ///
    /// Every transaction is re-checked at its slot — admission saw an
    /// earlier state, and the pool knows nothing of balances. Import
    /// (`sealing == false`) refuses the block: `Err` names the rule
    /// broken, the writes so far left in the open undo layer for the
    /// caller to rewind. Sealing leaves the transaction out,
    /// unexecuted, its hash joining [`Testnet::drain_evicted`] — the
    /// sender's later nonces then fail the same check.
    pub(super) fn execute_block(
        &mut self,
        txs: Vec<PendingTx>,
        number: u64,
        timestamp: u64,
        sealing: bool,
    ) -> Result<Executed, &'static str> {
        let mut included = Vec::with_capacity(txs.len());
        let mut receipts = Vec::with_capacity(txs.len());
        let mut gas_used = 0u64;
        for ptx in txs {
            if let Err(rule) = self.recheck_at_slot(&ptx) {
                if !sealing {
                    return Err(rule);
                }
                self.refused.push(ptx.hash);
                continue;
            }
            let mut receipt = self.execute_transaction(&ptx, number, timestamp);
            receipt.tx_index = receipts.len();
            gas_used += receipt.gas_used;
            receipts.push(receipt);
            included.push(ptx);
        }
        Ok(Executed {
            txs: included,
            gas_used,
            state_root: self.state.state_root(),
            receipts_root: block::receipts_root(receipts.iter()),
            receipts,
        })
    }

    /// The admission rules, re-evaluated against the state a
    /// transaction actually meets inside its block.
    fn recheck_at_slot(&self, ptx: &PendingTx) -> Result<(), &'static str> {
        let tx = &ptx.signed.tx;
        if tx.nonce != self.state.nonce(ptx.sender) {
            return Err("nonce out of sequence");
        }
        if tx.gas_limit < ptx.intrinsic || tx.gas_limit > self.config.block_gas_limit {
            return Err("gas limit out of bounds");
        }
        if upfront_cost(tx).is_none_or(|cost| self.state.balance(ptx.sender) < cost) {
            return Err("sender cannot cover upfront cost");
        }
        Ok(())
    }

    /// Commit tail shared by local sealing and gossip import: indexes
    /// the block and its receipts, each beside the sender this node
    /// derived for it, maintains the 256-entry `BLOCKHASH` window, and
    /// closes the block's undo layer.
    pub(super) fn commit_block(
        &mut self,
        block: &Block,
        receipts: Vec<Receipt>,
        senders: impl IntoIterator<Item = Address>,
    ) {
        let number = block.number;
        self.state.block_hashes.insert(number, block.hash);
        // BLOCKHASH only reaches 256 ancestors: retire the hash that
        // just left the window so the map stays bounded.
        if number >= 256 {
            self.state.block_hashes.remove(&(number - 256));
        }
        for ((index, r), sender) in receipts.iter().enumerate().zip(senders) {
            for log in &r.logs {
                let blocks = self.log_index.entry(log.address).or_default();
                if blocks.last() != Some(&number) {
                    blocks.push(number);
                }
            }
            self.receipt_index
                .insert(r.tx_hash, (number, index as u32, sender));
        }
        debug_assert_eq!(
            self.receipts.len() as u64,
            number,
            "receipts sit beside blocks"
        );
        self.receipts.push(receipts);
        self.chain.push(block.clone());
        debug_assert_eq!(self.time, block.timestamp, "a seal leaves the clock on it");
        self.undo_stack.push(BlockUndoRec {
            undo: self.state.take_undo_layer(),
            minted_before: self.open_minted,
        });
        self.open_minted = self.minted;
    }

    /// Executes one transaction against the state (validation and sender
    /// recovery already done; the cached derivations on the
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

        // Buy gas. `recheck_at_slot` bounded `gas_limit × gas_price` by
        // the sender's balance, so neither this product nor the smaller
        // reimbursement below can wrap.
        let gas_cost = U256::from_u64(tx.gas_limit).wrapping_mul(tx.gas_price);
        let paid = self.state.transfer(sender, self.config.coinbase, gas_cost);
        debug_assert!(paid, "upfront cost re-checked at this slot");

        let exec_gas = tx.gas_limit - ptx.intrinsic;
        let env = self.env(block_number, timestamp, sender, tx.gas_price);

        // Dispatch on the literal `to` field: `None` is a create, `Some`
        // a call. (Matching here instead of `is_create()` + `expect`
        // makes a malformed transaction structurally unrepresentable —
        // there is no path on which a missing recipient can panic.)
        let (success, gas_left, output, contract_address, failure) = match tx.to {
            None => {
                let mut evm = Evm::new(&mut self.state, env)
                    .with_analysis_cache(Rc::clone(&self.analysis_cache));
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
                    .with_analysis_cache(Rc::clone(&self.analysis_cache));
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
}
