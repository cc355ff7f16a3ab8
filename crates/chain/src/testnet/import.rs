//! Multi-node support: per-block undo history, gossiped-block import
//! through the shared fork choice, and rollback/replay reorgs.

use super::Testnet;
use crate::block::Block;
use crate::fork_choice::Backdated;
use crate::state::DiffLayer;
use crate::tx::SignedTransaction;
use sc_primitives::{H256, U256};
use std::fmt;

/// Why [`Testnet::import_block`] refused a gossiped block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportError {
    /// Replaying the block's transactions did not reproduce the header:
    /// a signature failed to recover, an admission rule or the block
    /// gas limit was violated, or the recomputed `state_root` /
    /// `receipts_root` / gas total disagreed with the header's claim.
    InvalidBlock {
        /// Which check failed.
        reason: &'static str,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ImportError::InvalidBlock { reason } = self;
        write!(f, "invalid block: {reason}")
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

/// Rollback bookkeeping for one sealed block: the state undo layer plus
/// `minted` as it stood when the layer opened, i.e. right after the
/// parent sealed. (The clock at that moment is the parent's timestamp.)
pub(super) struct BlockUndoRec {
    pub(super) undo: DiffLayer,
    pub(super) minted_before: U256,
}

impl Testnet {
    /// Number of non-canonical blocks currently stored (competing
    /// branches and reorg orphans) — the numerator of an orphan-rate
    /// metric.
    pub fn side_block_count(&self) -> usize {
        self.chain.side_len()
    }

    /// Canonical block lookup by hash.
    pub fn block_by_hash(&self, hash: H256) -> Option<&Block> {
        self.chain.by_hash(hash)
    }

    /// Rolls the canonical head back one block, restoring state,
    /// `minted`, the clock, receipts, the log index and the 256-entry
    /// `BLOCKHASH` window to the parent's seal boundary. Out-of-band
    /// writes since the head sealed (faucet mints) roll back too.
    ///
    /// Returns the orphaned block, or `None` at genesis. The block is
    /// *not* moved to the side store — callers decide its fate.
    pub fn rollback_head_block(&mut self) -> Option<Block> {
        debug_assert_eq!(self.undo_stack.len() as u64, self.head().number);
        let rec = self.undo_stack.pop()?;
        // Undo writes made since the head sealed, then the head block's
        // own layer (newest first).
        let open = self.state.take_undo_layer();
        self.state.apply_undo(open);
        self.state.apply_undo(rec.undo);
        self.minted = rec.minted_before;
        self.open_minted = rec.minted_before;

        let block = self.chain.pop().expect("non-genesis head");
        self.time = self.head().timestamp;
        self.state.block_hashes.remove(&block.number);
        if block.number >= 256 {
            // The seal pruned this ancestor out of the window; restore it.
            let n = block.number - 256;
            let hash = self.chain.get(n).expect("canonical ancestor").hash;
            self.state.block_hashes.insert(n, hash);
        }
        for r in self.receipts.pop().expect("receipts sit beside blocks") {
            self.receipt_index.remove(&r.tx_hash);
            for log in &r.logs {
                if let Some(blocks) = self.log_index.get_mut(&log.address) {
                    if blocks.last() == Some(&block.number) {
                        blocks.pop();
                    }
                }
            }
        }
        Some(block)
    }

    /// Imports a gossiped block: verifies its hash commits its header
    /// fields and the bodies it arrived with, stores it, and runs fork
    /// choice. A block on the best branch is replayed transaction by
    /// transaction with the `state_root` / `receipts_root` / gas
    /// commitments re-verified against the header; a heavier competing
    /// branch triggers a rollback-and-replay reorg.
    pub fn import_block(&mut self, block: Block) -> Result<ImportOutcome, ImportError> {
        let bodies = block.transactions.iter().map(SignedTransaction::hash);
        if !block.tx_hashes.iter().copied().eq(bodies) || !block.hash_commits_fields() {
            return Err(ImportError::InvalidBlock {
                reason: "hash does not commit the contents",
            });
        }
        let stored = self
            .chain
            .insert(block)
            .map_err(|Backdated| ImportError::InvalidBlock {
                reason: "timestamp does not advance",
            })?;
        if !stored {
            return Ok(ImportOutcome::AlreadyKnown);
        }
        // Uniform store-then-adopt: a direct head child is simply a
        // depth-0 "reorg" (nothing reverted, one block applied), and the
        // same walk picks up previously detached descendants that this
        // block just connected.
        let Some((fork, branch)) = self.chain.best_branch() else {
            return Ok(ImportOutcome::Side);
        };
        Ok(match self.adopt_branch(fork, branch)? {
            (0, _, _) => ImportOutcome::Extended,
            (reverted, applied, orphaned_txs) => ImportOutcome::Reorged {
                reverted,
                applied,
                orphaned_txs,
            },
        })
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
        let mut orphans = Vec::with_capacity(depth as usize);
        for _ in 0..depth {
            let orphan = self.rollback_head_block();
            orphans.push(orphan.expect("every block above genesis has an undo layer"));
        }
        orphans.reverse(); // oldest first
        for (i, b) in branch.iter().enumerate() {
            if let Err(e) = self.apply_block(b) {
                // Invalid branch: unwind the part that applied and
                // restore the original chain.
                for _ in 0..i {
                    let applied = self.rollback_head_block();
                    self.chain
                        .park(applied.expect("applied blocks have undo layers"));
                }
                for ob in &orphans {
                    self.apply_block(ob)
                        .expect("previously canonical blocks replay");
                }
                self.chain.discard(b.hash);
                return Err(e);
            }
        }
        let new_txs: std::collections::HashSet<H256> = branch
            .iter()
            .flat_map(|b| b.tx_hashes.iter().copied())
            .collect();
        let mut orphaned_txs = Vec::new();
        for ob in orphans {
            for (hash, t) in ob.tx_hashes.iter().zip(&ob.transactions) {
                if !new_txs.contains(hash) {
                    orphaned_txs.push(t.clone());
                }
            }
            self.chain.park(ob);
        }
        // Pooled nonces the new chain consumed are stale now.
        self.prune_pool();
        Ok((depth, branch.len() as u64, orphaned_txs))
    }

    /// Replays one block on top of the current head as the reference
    /// executor: senders derived (`Testnet::derive`), transactions
    /// re-checked and re-executed serially, and the block accepted only
    /// if the gas total and both roots match the header whose hash
    /// commits them. Atomic — a failure rewinds every write through the
    /// undo layer.
    fn apply_block(&mut self, block: &Block) -> Result<(), ImportError> {
        let fail = |reason| ImportError::InvalidBlock { reason };
        let head = self.head();
        if block.parent_hash != head.hash || block.number != head.number + 1 {
            return Err(fail("does not extend the head"));
        }
        // `TIMESTAMP` feeds every deadline check: the clock only moves forward.
        if block.timestamp <= head.timestamp {
            return Err(fail("timestamp does not advance"));
        }
        // Honest miners pack under the limit: nothing can burn more.
        if block.gas_used > self.config.block_gas_limit {
            return Err(fail("gas used exceeds the block gas limit"));
        }
        // Sender derivation reads no world state: derive before touching it.
        let mut ptxs = Vec::with_capacity(block.transactions.len());
        for tx in &block.transactions {
            let ptx = self
                .derive(tx.clone())
                .map_err(|_| fail("signature does not recover"))?;
            ptxs.push(ptx);
        }
        self.time = block.timestamp;
        let verdict = self
            .execute_block(ptxs, block.number, block.timestamp, false)
            .and_then(|executed| {
                if executed.gas_used != block.gas_used {
                    Err("gas total mismatch")
                } else if executed.state_root != block.state_root {
                    Err("state root mismatch")
                } else if executed.receipts_root != block.receipts_root {
                    Err("receipts root mismatch")
                } else {
                    Ok(executed)
                }
            });
        match verdict {
            Ok(executed) => {
                let senders = executed.txs.iter().map(|ptx| ptx.sender);
                self.commit_block(block, executed.receipts, senders);
                Ok(())
            }
            Err(reason) => {
                // Atomic failure: rewind everything the attempt wrote
                // (including out-of-band writes the open layer held).
                let open = self.state.take_undo_layer();
                self.state.apply_undo(open);
                self.minted = self.open_minted;
                self.time = self.head().timestamp;
                Err(fail(reason))
            }
        }
    }
}
