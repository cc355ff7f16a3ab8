//! Journaled world state over the flat [`StateOverlay`]: the chain's
//! implementation of [`sc_evm::Host`], plus the seal-time trie fold,
//! head-anchored proofs, and deterministic snapshot export/import.
//!
//! Reads and writes never touch a Merkle trie — they hit the overlay's
//! flat maps and mark dirty sets. [`WorldState::state_root`] reconciles
//! the authenticated tries from those sets once per block (batched).
//! Proofs anchor to the current root of those live tries; history is
//! the chain's per-block [`DiffLayer`] undo stack.

use crate::overlay::{empty_code, StateOverlay};
use crate::wire;
use sc_crypto::keccak256;
use sc_evm::host::{Host, LogEntry};
use sc_primitives::rlp::{self, Rlp};
use sc_primitives::{Address, H256, U256};
use sc_trie::SecureTrie;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

pub use crate::overlay::{empty_code_hash, Account, DiffLayer};

/// Canonical RLP account encoding committed into the account trie:
/// `[nonce, balance, storage_root, code_hash]`, written straight into
/// one exactly-sized buffer.
pub fn encode_account(nonce: u64, balance: U256, storage_root: H256, code_hash: H256) -> Vec<u8> {
    let nonce = U256::from_u64(nonce).to_be_bytes();
    let nonce = rlp::trim_uint(&nonce);
    let balance = balance.to_be_bytes();
    let balance = rlp::trim_uint(&balance);
    let payload = rlp::bytes_len(nonce) + rlp::bytes_len(balance) + 2 * 33;
    let mut out = Vec::with_capacity(rlp::header_len(payload) + payload);
    rlp::put_list_header(payload, &mut out);
    for field in [
        nonce,
        balance,
        storage_root.as_bytes(),
        code_hash.as_bytes(),
    ] {
        rlp::put_bytes(field, &mut out);
    }
    out
}

/// Canonical RLP storage-value encoding committed into storage tries:
/// the big-endian integer with leading zeros trimmed.
pub fn encode_storage_value(value: U256) -> Vec<u8> {
    let value = value.to_be_bytes();
    let value = rlp::trim_uint(&value);
    let mut out = Vec::with_capacity(rlp::bytes_len(value));
    rlp::put_bytes(value, &mut out);
    out
}

/// Reversible operations recorded while executing a transaction.
enum JournalOp {
    Balance(Address, U256),
    Nonce(Address, u64),
    Storage(Address, U256, U256),
    Code(Address, Arc<Vec<u8>>, H256),
    AccountCreated(Address),
    Log,
    Refund(u64),
}

/// Why a snapshot blob was rejected by [`WorldState::import_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The RLP envelope or an account entry did not decode to the
    /// expected shape.
    Malformed,
    /// Accounts were not strictly ascending by address, or one's slots
    /// by key (the canonical form [`WorldState::export_snapshot`]
    /// emits), so the blob cannot round-trip deterministically.
    Unordered,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Malformed => write!(f, "malformed state snapshot"),
            SnapshotError::Unordered => write!(f, "snapshot entries not in canonical order"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The full world state with a transaction-scoped journal.
///
/// Mutations during EVM execution are journaled so nested call frames can
/// roll back precisely; [`WorldState::clear_tx_scratch`] resets the
/// journal, log buffer and refund counter between transactions.
#[derive(Default)]
pub struct WorldState {
    /// Flat account/storage maps — the only thing reads ever touch.
    overlay: StateOverlay,
    /// Logs emitted by the transaction currently executing.
    pub tx_logs: Vec<LogEntry>,
    /// Gas refund accumulated by the current transaction.
    pub tx_refund: u64,
    journal: Vec<JournalOp>,
    /// Hashes of past blocks for `BLOCKHASH` (maintained by the chain,
    /// which bounds it to the EVM's 256-block window).
    pub block_hashes: HashMap<u64, H256>,
    /// Secure trie over `[nonce, balance, storage_root, code_hash]`
    /// accounts, keyed by `keccak(address)`. Kept in sync lazily: the
    /// dirty sets below record what changed and [`WorldState::state_root`]
    /// folds them in one pass per block.
    account_trie: SecureTrie,
    /// Per-account storage tries keyed by `keccak(slot)`. An account
    /// destroyed or emptied by a block has its trie *dropped* at the
    /// next fold (it no longer contributes to the root); a later
    /// resurrection rebuilds it from the overlay's flat slots.
    storage_tries: HashMap<Address, SecureTrie>,
    /// Accounts whose trie entry is stale. Marking is conservative —
    /// reverts don't unmark — because the fold reconciles against the
    /// live account anyway; re-folding an unchanged value is a no-op.
    dirty_accounts: HashSet<Address>,
    /// Storage slots whose trie entry is stale.
    dirty_storage: HashMap<Address, HashSet<U256>>,
}

impl WorldState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read-only account view.
    pub fn account(&self, a: Address) -> Option<&Account> {
        self.overlay.account(a)
    }

    /// Mints `amount` wei to an address outside any journal (genesis
    /// allocation / faucet).
    pub fn mint(&mut self, a: Address, amount: U256) {
        let acct = self.overlay.account_mut(a);
        acct.balance = acct.balance.wrapping_add(amount);
        self.dirty_accounts.insert(a);
    }

    /// Installs code directly (genesis-style; bypasses the journal).
    pub fn install_code(&mut self, a: Address, code: Vec<u8>) {
        let acct = self.overlay.account_mut(a);
        acct.code_hash = keccak256(&code);
        acct.code = Arc::new(code);
        if acct.nonce == 0 {
            acct.nonce = 1;
        }
        self.dirty_accounts.insert(a);
    }

    /// Drops per-transaction scratch (journal, logs, refund). Called by the
    /// chain between transactions once effects are final.
    pub fn clear_tx_scratch(&mut self) -> (Vec<LogEntry>, u64) {
        self.journal.clear();
        let refund = self.tx_refund;
        self.tx_refund = 0;
        (std::mem::take(&mut self.tx_logs), refund)
    }

    /// Number of existing accounts (diagnostics).
    pub fn account_count(&self) -> usize {
        self.overlay.account_count()
    }

    /// Sum of every account's balance — the whole world's wei. The EVM
    /// and the gas settlement only ever *move* value, so this must equal
    /// the chain's total minted supply after every block (the ether
    /// conservation invariant checked by the chaos suite).
    pub fn total_balance(&self) -> U256 {
        self.overlay.total_balance()
    }

    /// Marks one storage slot (and its account) stale in the tries.
    fn touch_storage(&mut self, a: Address, key: U256) {
        self.dirty_storage.entry(a).or_default().insert(key);
        self.dirty_accounts.insert(a);
    }

    /// Starts undo recording with a fresh, empty layer. Until
    /// [`WorldState::end_undo`], the first touch of every account and
    /// slot records its prior value.
    pub fn begin_undo_layer(&mut self) {
        self.overlay.begin_recording();
    }

    /// Closes the open undo layer and returns it, immediately opening a
    /// fresh one (recording stays on). The chain calls this at each
    /// seal, stacking one layer per block.
    pub fn take_undo_layer(&mut self) -> DiffLayer {
        self.overlay.take_layer()
    }

    /// Stops undo recording and discards any open layer.
    pub fn end_undo(&mut self) {
        self.overlay.stop_recording();
    }

    /// True while an undo layer is open.
    pub fn recording_undo(&self) -> bool {
        self.overlay.recording()
    }

    /// Applies an undo layer: every recorded prior is restored, and the
    /// dirty sets are marked so the next [`WorldState::state_root`] fold
    /// reconciles the tries.
    ///
    /// The restore itself is *not* recorded into any open layer — the
    /// caller sequences layers (it pops them newest-first).
    pub fn apply_undo(&mut self, undo: DiffLayer) {
        let (accounts, slots) = self.overlay.apply_layer(undo);
        for a in accounts {
            self.dirty_accounts.insert(a);
        }
        for (a, k) in slots {
            self.touch_storage(a, k);
        }
    }

    /// Every address ever touched, for independent state-root audits.
    /// Includes addresses whose account has since become empty — callers
    /// filter on [`Account::exists`] exactly like the fold does.
    pub fn addresses(&self) -> Vec<Address> {
        self.overlay.addresses()
    }

    /// Folds every dirty slot and account into the authenticated tries
    /// and returns the account-trie root — the `state_root` a sealed
    /// block commits to. Called once per block (not per op): between
    /// folds the dirty sets batch arbitrarily many writes, and the
    /// trie's node caches make each fold proportional to what changed.
    ///
    /// Idempotent: folding with empty dirty sets just re-reads the
    /// cached root.
    pub fn state_root(&mut self) -> H256 {
        for (a, mut keys) in std::mem::take(&mut self.dirty_storage) {
            self.dirty_accounts.insert(a);
            let trie = match self.storage_tries.entry(a) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    // No cached trie (fresh account, or dropped when
                    // the account was destroyed): fold every live
                    // slot so the rebuild is complete, not just the
                    // dirty subset.
                    keys.extend(self.overlay.slot_keys(a));
                    e.insert(SecureTrie::new())
                }
            };
            for key in keys {
                let k = key.to_be_bytes();
                let v = self.overlay.storage(a, key);
                if v.is_zero() {
                    trie.remove(&k);
                } else {
                    trie.insert(&k, encode_storage_value(v));
                }
            }
            // An emptied trie is dropped, not retained: it contributes
            // nothing to any root and would otherwise pin node memory.
            if trie.is_empty() {
                self.storage_tries.remove(&a);
            }
        }
        for a in std::mem::take(&mut self.dirty_accounts) {
            let meta = self
                .overlay
                .account(a)
                .map(|acct| (acct.exists(), acct.nonce, acct.balance, acct.code_hash));
            match meta {
                Some((true, nonce, balance, code_hash)) => {
                    let root = self.live_storage_root(a);
                    self.account_trie.insert(
                        a.as_bytes(),
                        encode_account(nonce, balance, root, code_hash),
                    );
                }
                _ => {
                    self.account_trie.remove(a.as_bytes());
                    // A destroyed/emptied account's storage trie no
                    // longer backs any commitment: drop it so long runs
                    // don't accumulate dead tries. Its flat slots stay
                    // in the overlay (absent-account semantics), and a
                    // resurrection rebuilds the trie from them.
                    self.storage_tries.remove(&a);
                }
            }
        }
        self.account_trie.root()
    }

    /// The storage root backing `a`'s next account-trie entry, read
    /// from the live trie (memoized — free when clean). When no trie is
    /// cached but the overlay holds slots (a resurrected account), the
    /// trie is rebuilt from the flat map first.
    fn live_storage_root(&mut self, a: Address) -> H256 {
        if let Some(t) = self.storage_tries.get_mut(&a) {
            return t.root();
        }
        let entries = self.overlay.entries(a);
        if entries.is_empty() {
            return sc_trie::empty_root();
        }
        let mut t = SecureTrie::new();
        for (k, v) in entries {
            t.insert(&k.to_be_bytes(), encode_storage_value(v));
        }
        let root = t.root();
        self.storage_tries.insert(a, t);
        root
    }

    /// Merkle proof that `(a, key)` holds its current value under the
    /// current [`WorldState::state_root`] (the fold runs first, so the
    /// proof anchors to the root the *next* sealed block would commit —
    /// identical to the head block's root whenever nothing changed since
    /// it sealed).
    pub fn prove_storage(&mut self, a: Address, key: U256) -> crate::proof::StorageProof {
        let root = self.state_root();
        let account_proof = self.account_trie.prove(a.as_bytes());
        let storage_proof = self
            .storage_tries
            .get_mut(&a)
            .map(|t| t.prove(&key.to_be_bytes()))
            .unwrap_or_default();
        // Claim what the root commits, as `prove_account` does: an
        // emptied account's flat slots outlive its trie (a resurrection
        // restores them), but until then every slot of it proves 0.
        let value = if self.account_exists(a) {
            self.storage(a, key)
        } else {
            U256::ZERO
        };
        crate::proof::StorageProof {
            address: a,
            slot: key,
            value,
            root,
            account_proof,
            storage_proof,
        }
    }

    /// Merkle proof that `a` currently holds its nonce and balance
    /// under the current [`WorldState::state_root`] — the single-level
    /// account counterpart of [`WorldState::prove_storage`], with the
    /// same anchoring rule (the fold runs first).
    pub fn prove_account(&mut self, a: Address) -> crate::proof::AccountProof {
        let root = self.state_root();
        let account_proof = self.account_trie.prove(a.as_bytes());
        // Mirror exactly what the fold commits: only existing accounts
        // have a leaf; everything else proves the (0, 0) exclusion.
        let (nonce, balance) = self
            .overlay
            .account(a)
            .filter(|m| m.exists())
            .map(|m| (m.nonce, m.balance))
            .unwrap_or((0, U256::ZERO));
        crate::proof::AccountProof {
            address: a,
            nonce,
            balance,
            root,
            account_proof,
        }
    }

    // ---- snapshots ----

    /// Serialises the live state into the canonical snapshot blob: an
    /// RLP list of `[address, nonce, balance, code, [[slot, value]…]]`
    /// entries, strictly ascending by address with slots ascending, so
    /// two nodes holding the same state always emit identical bytes.
    /// Accounts that neither exist nor hold slots are omitted.
    pub fn export_snapshot(&self) -> Vec<u8> {
        let mut addrs = self.overlay.addresses();
        addrs.sort_unstable();
        let mut out = Vec::new();
        rlp::put_list(&mut out, |out| {
            for a in addrs {
                let meta = self.overlay.account(a);
                let entries = self.overlay.entries(a);
                if !meta.is_some_and(Account::exists) && entries.is_empty() {
                    continue;
                }
                let (nonce, balance, code) = meta.map_or((0, U256::ZERO, &[][..]), |m| {
                    (m.nonce, m.balance, m.code.as_slice())
                });
                rlp::put_list(out, |out| {
                    rlp::put_bytes(a.as_bytes(), out);
                    wire::put_uint(nonce, out);
                    wire::put_uint(balance, out);
                    rlp::put_bytes(code, out);
                    rlp::put_list(out, |out| {
                        for (k, v) in entries {
                            rlp::put_list(out, |out| {
                                wire::put_uint(k, out);
                                wire::put_uint(v, out);
                            });
                        }
                    });
                });
            }
        });
        out
    }

    /// Rebuilds a state from a snapshot blob. Everything is marked
    /// dirty, so the first [`WorldState::state_root`] reconstructs the
    /// tries — importing a node's snapshot and folding must reproduce
    /// the exporter's root bit for bit. Accepts only the canonical form
    /// [`WorldState::export_snapshot`] emits (addresses and slot keys
    /// strictly ascending, no entry without account or slot), so an
    /// accepted blob re-exports to the same bytes.
    pub fn import_snapshot(data: &[u8]) -> Result<WorldState, SnapshotError> {
        let entries = match Rlp::new(data) {
            Ok(entries) if entries.is_list() => entries,
            _ => return Err(SnapshotError::Malformed),
        };
        let mut state = WorldState::new();
        let mut last: Option<Address> = None;
        for entry in entries.iter() {
            let Some([addr, nonce, balance, code, slots]) = wire::fields(entry.iter()) else {
                return Err(SnapshotError::Malformed);
            };
            let Ok(Some(a)) = wire::as_opt_address(addr, "snapshot: address") else {
                return Err(SnapshotError::Malformed);
            };
            if last.is_some_and(|prev| prev >= a) {
                return Err(SnapshotError::Unordered);
            }
            last = Some(a);
            let nonce = nonce
                .as_uint()
                .and_then(|v| v.to_u64())
                .ok_or(SnapshotError::Malformed)?;
            let balance = balance.as_uint().ok_or(SnapshotError::Malformed)?;
            let Ok(code) = wire::as_bytes(code, "snapshot: code") else {
                return Err(SnapshotError::Malformed);
            };
            let exists = nonce != 0 || !balance.is_zero() || !code.is_empty();
            if exists {
                let acct = state.overlay.account_mut(a);
                acct.nonce = nonce;
                acct.balance = balance;
                if !code.is_empty() {
                    acct.code_hash = keccak256(code);
                    acct.code = Arc::new(code.to_vec());
                }
            }
            state.dirty_accounts.insert(a);
            if !slots.is_list() || (!exists && slots.iter().next().is_none()) {
                return Err(SnapshotError::Malformed);
            }
            let mut last_key = None;
            for slot in slots.iter() {
                let Some([k, v]) = wire::fields(slot.iter()) else {
                    return Err(SnapshotError::Malformed);
                };
                let k = k.as_uint().ok_or(SnapshotError::Malformed)?;
                let v = v.as_uint().ok_or(SnapshotError::Malformed)?;
                if v.is_zero() {
                    return Err(SnapshotError::Malformed);
                }
                if last_key.replace(k).is_some_and(|prev| prev >= k) {
                    return Err(SnapshotError::Unordered);
                }
                state.overlay.set_storage(a, k, v);
                state.touch_storage(a, k);
            }
        }
        Ok(state)
    }
}

impl Host for WorldState {
    fn balance(&self, a: Address) -> U256 {
        self.overlay
            .account(a)
            .map_or(U256::ZERO, |acct| acct.balance)
    }

    fn code(&self, a: Address) -> Arc<Vec<u8>> {
        self.overlay
            .account(a)
            .map_or_else(empty_code, |acct| acct.code.clone())
    }

    fn storage(&self, a: Address, key: U256) -> U256 {
        self.overlay.storage(a, key)
    }

    fn set_storage(&mut self, a: Address, key: U256, value: U256) {
        let prev = self.overlay.storage(a, key);
        self.journal.push(JournalOp::Storage(a, key, prev));
        self.overlay.set_storage(a, key, value);
        self.touch_storage(a, key);
    }

    fn nonce(&self, a: Address) -> u64 {
        self.overlay.account(a).map_or(0, |acct| acct.nonce)
    }

    fn bump_nonce(&mut self, a: Address) {
        let acct = self.overlay.account_mut(a);
        let prev = acct.nonce;
        acct.nonce = prev + 1;
        self.journal.push(JournalOp::Nonce(a, prev));
        self.dirty_accounts.insert(a);
    }

    fn account_exists(&self, a: Address) -> bool {
        self.overlay.account(a).is_some_and(Account::exists)
    }

    fn create_contract(&mut self, a: Address) -> bool {
        let acct = self.overlay.account_mut(a);
        if acct.nonce != 0 || !acct.code.is_empty() {
            return false;
        }
        // Journal the storage this creation evicts *before* the
        // `AccountCreated` marker: `revert` pops in reverse, so the
        // created-account teardown (nonce = 0, storage cleared) runs
        // first and the evicted slots are restored on top of it.
        let evicted = self.overlay.entries(a);
        for &(k, v) in &evicted {
            self.journal.push(JournalOp::Storage(a, k, v));
        }
        self.journal.push(JournalOp::AccountCreated(a));
        self.overlay.account_mut(a).nonce = 1;
        for (k, _) in evicted {
            self.overlay.set_storage(a, k, U256::ZERO);
            self.touch_storage(a, k);
        }
        self.dirty_accounts.insert(a);
        true
    }

    fn code_hash(&self, a: Address) -> H256 {
        self.overlay
            .account(a)
            .map_or_else(empty_code_hash, |acct| acct.code_hash)
    }

    fn set_code(&mut self, a: Address, code: Vec<u8>) {
        let prev = self.code(a);
        let prev_hash = self.code_hash(a);
        self.journal.push(JournalOp::Code(a, prev, prev_hash));
        let acct = self.overlay.account_mut(a);
        acct.code_hash = keccak256(&code);
        acct.code = Arc::new(code);
        self.dirty_accounts.insert(a);
    }

    fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        let from_bal = self.balance(from);
        if from_bal < value {
            return false;
        }
        if from == to {
            // Self-transfer: only the balance check matters.
            return true;
        }
        self.journal.push(JournalOp::Balance(from, from_bal));
        let to_bal = self.balance(to);
        self.journal.push(JournalOp::Balance(to, to_bal));
        self.overlay.account_mut(from).balance = from_bal.wrapping_sub(value);
        self.overlay.account_mut(to).balance = to_bal.wrapping_add(value);
        self.dirty_accounts.insert(from);
        self.dirty_accounts.insert(to);
        true
    }

    fn snapshot(&mut self) -> usize {
        self.journal.len()
    }

    fn revert(&mut self, snapshot: usize) {
        while self.journal.len() > snapshot {
            match self.journal.pop().expect("journal entry") {
                JournalOp::Balance(a, v) => self.overlay.account_mut(a).balance = v,
                JournalOp::Nonce(a, v) => self.overlay.account_mut(a).nonce = v,
                JournalOp::Storage(a, k, v) => self.overlay.set_storage(a, k, v),
                JournalOp::Code(a, c, h) => {
                    let acct = self.overlay.account_mut(a);
                    acct.code = c;
                    acct.code_hash = h;
                }
                JournalOp::AccountCreated(a) => {
                    self.overlay.account_mut(a).nonce = 0;
                    for (k, _) in self.overlay.entries(a) {
                        self.overlay.set_storage(a, k, U256::ZERO);
                    }
                }
                JournalOp::Log => {
                    self.tx_logs.pop();
                }
                JournalOp::Refund(prev) => self.tx_refund = prev,
            }
        }
    }

    fn log(&mut self, entry: LogEntry) {
        self.journal.push(JournalOp::Log);
        self.tx_logs.push(entry);
    }

    fn block_hash(&self, number: u64) -> H256 {
        self.block_hashes
            .get(&number)
            .copied()
            .unwrap_or(H256::ZERO)
    }

    fn add_refund(&mut self, amount: u64) {
        self.journal.push(JournalOp::Refund(self.tx_refund));
        self.tx_refund += amount;
    }

    fn storage_entries(&self, a: Address) -> Vec<(U256, U256)> {
        self.overlay.entries(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{receipt_key, Block, Header, Receipt};
    use crate::rlp_reference::{self as reference, Item};
    use crate::tx::{SignedTransaction, Transaction, Wallet};

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    /// The reference items of a transaction's six signing fields.
    fn tx_fields(tx: &Transaction) -> Vec<Item> {
        vec![
            Item::u64(tx.nonce),
            Item::uint(tx.gas_price),
            Item::u64(tx.gas_limit),
            Item::bytes(tx.to.map_or(Vec::new(), |a| a.0.to_vec())),
            Item::uint(tx.value),
            Item::bytes(tx.data.clone()),
        ]
    }

    /// The reference item of a signed transaction: its nine fields.
    fn tx_item(signed: &SignedTransaction) -> Item {
        let mut items = tx_fields(&signed.tx);
        items.push(Item::u64(signed.signature.v as u64));
        items.push(Item::uint(signed.signature.r.to_u256()));
        items.push(Item::uint(signed.signature.s.to_u256()));
        Item::List(items)
    }

    /// The reference encoding of a header's fields around `txs`.
    fn header_items(h: &Header, txs: Vec<Item>) -> Vec<Item> {
        vec![
            Item::u64(h.number),
            Item::u64(h.timestamp),
            Item::bytes(h.parent_hash.0.to_vec()),
            Item::bytes(h.state_root.0.to_vec()),
            Item::bytes(h.receipts_root.0.to_vec()),
            Item::u64(h.gas_used),
            Item::List(txs),
        ]
    }

    #[test]
    fn direct_encoders_match_the_item_encoding() {
        let (root, code) = (H256([0x11; 32]), H256([0x22; 32]));
        for (nonce, balance) in [
            (0u64, U256::ZERO),
            (1, U256::ONE),
            (127, U256::from_u64(128)),
            (128, U256::MAX),
            (u64::MAX, U256::from_u64(1 << 40)),
        ] {
            let items = [
                Item::u64(nonce),
                Item::uint(balance),
                Item::bytes(root.as_bytes().to_vec()),
                Item::bytes(code.as_bytes().to_vec()),
            ];
            assert_eq!(
                encode_account(nonce, balance, root, code),
                reference::encode_list(&items)
            );
            assert_eq!(
                encode_storage_value(balance),
                reference::encode(&Item::uint(balance))
            );
            let sender = Address([nonce as u8; 20]);
            let created = reference::encode_list(&[Item::address(sender), Item::u64(nonce)]);
            assert_eq!(
                sc_evm::contract_address(sender, nonce),
                Address::from_h256(keccak256(&created))
            );
            assert_eq!(receipt_key(nonce), reference::encode(&Item::u64(nonce)));
        }

        // A call with long calldata, a create and an empty call, sealed
        // into a header and a block.
        let alice = Wallet::from_seed("alice");
        let txs: Vec<SignedTransaction> = [
            (Some(addr(7)), vec![0xab; 300], U256::MAX),
            (None, vec![0x60, 0x00, 0xf3], U256::ZERO),
            (Some(addr(8)), vec![], U256::ONE),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (to, data, value))| {
            let tx = Transaction {
                nonce: i as u64 * 200,
                gas_price: sc_primitives::gwei(3),
                gas_limit: 1_000_000,
                to,
                value,
                data,
            };
            assert_eq!(
                tx.signing_hash(),
                keccak256(&reference::encode_list(&tx_fields(&tx)))
            );
            tx.sign(&alice.key)
        })
        .collect();
        for tx in &txs {
            assert_eq!(tx.encode(), reference::encode(&tx_item(tx)));
            assert_eq!(tx.hash(), keccak256(&reference::encode(&tx_item(tx))));
        }
        let header = Header::new(
            9,
            1_700_000_000,
            H256([3; 32]),
            root,
            code,
            21_000 * 3,
            txs.iter().map(SignedTransaction::hash).collect(),
        );
        let hashes = txs.iter().map(|tx| Item::bytes(tx.hash().0.to_vec()));
        let header_rlp = reference::encode_list(&header_items(&header, hashes.collect()));
        assert_eq!(header.encode(), header_rlp);
        assert_eq!(header.hash, keccak256(&header_rlp));
        let block = Block {
            header: header.clone(),
            transactions: txs.clone(),
        };
        let bodies = txs.iter().map(tx_item).collect();
        assert_eq!(
            block.encode(),
            reference::encode_list(&header_items(&header, bodies))
        );

        // A receipt with several multi-topic logs, one with a long payload.
        let receipt = Receipt {
            tx_hash: H256::ZERO,
            block_number: 9,
            tx_index: 2,
            success: true,
            gas_used: 70_000,
            contract_address: None,
            logs: (0..3u8)
                .map(|i| LogEntry {
                    address: addr(i),
                    topics: (0..=i).map(|t| H256([t; 32])).collect(),
                    data: vec![i; 40 * i as usize],
                })
                .collect(),
            output: vec![],
            failure: None,
        };
        let logs = receipt
            .logs
            .iter()
            .map(|log| {
                Item::List(vec![
                    Item::address(log.address),
                    Item::List(
                        log.topics
                            .iter()
                            .map(|t| Item::bytes(t.0.to_vec()))
                            .collect(),
                    ),
                    Item::bytes(log.data.clone()),
                ])
            })
            .collect();
        assert_eq!(
            receipt.rlp_encode(),
            reference::encode_list(&[Item::u64(1), Item::u64(70_000), Item::List(logs)])
        );

        // A snapshot: an account with code and slots, a plain account and
        // a storage-only one.
        let mut s = WorldState::new();
        s.mint(addr(1), U256::MAX);
        s.install_code(addr(1), vec![0x5b; 70]);
        s.set_storage(addr(1), U256::ONE, U256::from_u64(5));
        s.set_storage(addr(1), U256::MAX, U256::MAX);
        s.bump_nonce(addr(2));
        s.set_storage(addr(3), U256::from_u64(300), U256::ONE);
        let entry = |a: u8, nonce: u64, balance: U256, code: Vec<u8>, slots: &[(U256, U256)]| {
            Item::List(vec![
                Item::address(addr(a)),
                Item::u64(nonce),
                Item::uint(balance),
                Item::bytes(code),
                Item::List(
                    slots
                        .iter()
                        .map(|&(k, v)| Item::List(vec![Item::uint(k), Item::uint(v)]))
                        .collect(),
                ),
            ])
        };
        let entries = [
            entry(
                1,
                s.nonce(addr(1)),
                U256::MAX,
                vec![0x5b; 70],
                &[(U256::ONE, U256::from_u64(5)), (U256::MAX, U256::MAX)],
            ),
            entry(2, 1, U256::ZERO, vec![], &[]),
            entry(
                3,
                0,
                U256::ZERO,
                vec![],
                &[(U256::from_u64(300), U256::ONE)],
            ),
        ];
        assert_eq!(s.export_snapshot(), reference::encode_list(&entries));
    }

    #[test]
    fn mint_and_balance() {
        let mut s = WorldState::new();
        s.mint(addr(1), U256::from_u64(100));
        s.mint(addr(1), U256::from_u64(20));
        assert_eq!(s.balance(addr(1)), U256::from_u64(120));
    }

    #[test]
    fn journal_roundtrip_across_all_ops() {
        let mut s = WorldState::new();
        s.mint(addr(1), U256::from_u64(100));
        let snap = s.snapshot();
        s.transfer(addr(1), addr(2), U256::from_u64(30));
        s.bump_nonce(addr(1));
        s.set_storage(addr(3), U256::ONE, U256::from_u64(9));
        s.create_contract(addr(4));
        s.set_code(addr(4), vec![1, 2, 3]);
        s.log(LogEntry {
            address: addr(4),
            topics: vec![],
            data: vec![],
        });
        s.add_refund(15_000);
        s.revert(snap);
        assert_eq!(s.balance(addr(1)), U256::from_u64(100));
        assert_eq!(s.balance(addr(2)), U256::ZERO);
        assert_eq!(s.nonce(addr(1)), 0);
        assert_eq!(s.storage(addr(3), U256::ONE), U256::ZERO);
        assert!(!s.account_exists(addr(4)));
        assert!(s.code(addr(4)).is_empty());
        assert!(s.tx_logs.is_empty());
        assert_eq!(s.tx_refund, 0);
    }

    #[test]
    fn storage_revert_to_zero_removes_entry() {
        let mut s = WorldState::new();
        let snap = s.snapshot();
        s.set_storage(addr(1), U256::ONE, U256::from_u64(5));
        s.revert(snap);
        assert!(s.storage_entries(addr(1)).is_empty());
    }

    #[test]
    fn clear_tx_scratch_returns_logs_and_refund() {
        let mut s = WorldState::new();
        s.log(LogEntry {
            address: addr(1),
            topics: vec![],
            data: vec![7],
        });
        s.add_refund(42);
        let (logs, refund) = s.clear_tx_scratch();
        assert_eq!(logs.len(), 1);
        assert_eq!(refund, 42);
        assert_eq!(s.tx_refund, 0);
        assert!(s.tx_logs.is_empty());
    }

    #[test]
    fn code_hash_tracks_code_through_writes_and_reverts() {
        let mut s = WorldState::new();
        assert_eq!(s.code_hash(addr(1)), empty_code_hash(), "EOA hash");

        s.install_code(addr(1), vec![0x5b, 0x00]);
        assert_eq!(s.code_hash(addr(1)), keccak256(&[0x5b, 0x00]));

        let snap = s.snapshot();
        s.set_code(addr(1), vec![0x60, 0x01]);
        assert_eq!(s.code_hash(addr(1)), keccak256(&[0x60, 0x01]));
        s.revert(snap);
        assert_eq!(
            s.code_hash(addr(1)),
            keccak256(&[0x5b, 0x00]),
            "revert restores hash"
        );

        let snap = s.snapshot();
        s.set_code(addr(2), vec![0xfe]);
        s.revert(snap);
        assert_eq!(
            s.code_hash(addr(2)),
            empty_code_hash(),
            "fresh account reverts to empty"
        );
    }

    #[test]
    fn create_contract_revert_restores_evicted_storage() {
        // Regression: creating over a storage-bearing address cleared
        // the old slots without journaling them, so a reverted creation
        // lost them forever.
        let mut s = WorldState::new();
        s.set_storage(addr(7), U256::ONE, U256::from_u64(111));
        s.set_storage(addr(7), U256::from_u64(2), U256::from_u64(222));
        s.clear_tx_scratch();

        let snap = s.snapshot();
        assert!(s.create_contract(addr(7)), "nonce 0, no code: creatable");
        assert_eq!(
            s.storage(addr(7), U256::ONE),
            U256::ZERO,
            "creation evicts pre-existing storage"
        );
        // The constructor writes something of its own before failing.
        s.set_storage(addr(7), U256::from_u64(3), U256::from_u64(333));
        s.revert(snap);

        assert_eq!(s.nonce(addr(7)), 0, "creation undone");
        assert_eq!(
            s.storage(addr(7), U256::ONE),
            U256::from_u64(111),
            "evicted slot restored"
        );
        assert_eq!(
            s.storage(addr(7), U256::from_u64(2)),
            U256::from_u64(222),
            "evicted slot restored"
        );
        assert_eq!(
            s.storage(addr(7), U256::from_u64(3)),
            U256::ZERO,
            "constructor write undone"
        );
    }

    #[test]
    fn state_root_folds_dirty_sets_and_matches_rebuild() {
        let mut s = WorldState::new();
        s.mint(addr(1), U256::from_u64(500));
        s.set_storage(addr(2), U256::ONE, U256::from_u64(9));
        s.install_code(addr(2), vec![0x00]);
        s.clear_tx_scratch();
        let r1 = s.state_root();
        assert_eq!(r1, s.state_root(), "fold is idempotent");

        // Rebuild the same logical state from scratch: roots agree.
        let mut fresh = WorldState::new();
        fresh.set_storage(addr(2), U256::ONE, U256::from_u64(9));
        fresh.install_code(addr(2), vec![0x00]);
        fresh.mint(addr(1), U256::from_u64(500));
        fresh.clear_tx_scratch();
        assert_eq!(fresh.state_root(), r1, "write order is immaterial");

        // Zeroing the slot and a revert-restored write both reconcile.
        let snap = s.snapshot();
        s.set_storage(addr(2), U256::ONE, U256::from_u64(10));
        s.revert(snap);
        s.clear_tx_scratch();
        assert_eq!(s.state_root(), r1, "reverted write leaves root unchanged");
        s.set_storage(addr(2), U256::ONE, U256::ZERO);
        s.clear_tx_scratch();
        assert_ne!(s.state_root(), r1);
        let mut only_account = WorldState::new();
        only_account.install_code(addr(2), vec![0x00]);
        only_account.mint(addr(1), U256::from_u64(500));
        assert_eq!(
            s.state_root(),
            only_account.state_root(),
            "zeroed slot equals never-written slot"
        );
    }

    #[test]
    fn undo_layer_restores_accounts_and_root() {
        let mut s = WorldState::new();
        s.mint(addr(1), U256::from_u64(500));
        s.install_code(addr(2), vec![0x00]);
        s.set_storage(addr(2), U256::ONE, U256::from_u64(9));
        s.clear_tx_scratch();
        let baseline_root = s.state_root();
        let baseline_total = s.total_balance();

        s.begin_undo_layer();
        // A "block" of mixed writes: existing accounts, fresh accounts,
        // storage overwrite + delete, code swap, account creation.
        s.transfer(addr(1), addr(3), U256::from_u64(100));
        s.bump_nonce(addr(1));
        s.set_storage(addr(2), U256::ONE, U256::from_u64(77));
        s.set_storage(addr(2), U256::from_u64(2), U256::from_u64(5));
        s.set_code(addr(2), vec![0x60, 0x01]);
        s.create_contract(addr(4));
        s.set_storage(addr(4), U256::ONE, U256::from_u64(1));
        s.mint(addr(5), U256::from_u64(3));
        s.clear_tx_scratch();
        assert_ne!(s.state_root(), baseline_root);

        let undo = s.take_undo_layer();
        assert!(!undo.is_empty());
        s.apply_undo(undo);
        assert_eq!(s.state_root(), baseline_root, "root restored exactly");
        assert_eq!(s.total_balance(), baseline_total);
        assert_eq!(s.balance(addr(1)), U256::from_u64(500));
        assert_eq!(s.nonce(addr(1)), 0);
        assert_eq!(s.storage(addr(2), U256::ONE), U256::from_u64(9));
        assert_eq!(s.storage(addr(2), U256::from_u64(2)), U256::ZERO);
        assert_eq!(s.code(addr(2)).as_slice(), &[0x00]);
        assert!(!s.account_exists(addr(3)));
        assert!(!s.account_exists(addr(4)));
        assert!(!s.account_exists(addr(5)));
    }

    #[test]
    fn undo_layers_stack_per_block() {
        let mut s = WorldState::new();
        s.mint(addr(1), U256::from_u64(10));
        let root0 = s.state_root();

        s.begin_undo_layer();
        s.mint(addr(1), U256::from_u64(1));
        let root1 = s.state_root();
        let layer1 = s.take_undo_layer();
        s.mint(addr(2), U256::from_u64(2));
        let layer2 = s.take_undo_layer();

        // Pop newest-first, like a reorg rollback does.
        s.apply_undo(layer2);
        assert_eq!(s.state_root(), root1);
        s.apply_undo(layer1);
        assert_eq!(s.state_root(), root0);
        assert_eq!(s.balance(addr(1)), U256::from_u64(10));
    }

    #[test]
    fn undo_recording_off_by_default_and_after_end() {
        let mut s = WorldState::new();
        assert!(!s.recording_undo());
        s.mint(addr(1), U256::ONE);
        assert!(s.take_undo_layer().is_empty(), "nothing recorded when off");
        s.begin_undo_layer();
        assert!(s.recording_undo());
        s.end_undo();
        s.mint(addr(1), U256::ONE);
        assert!(s.take_undo_layer().is_empty());
    }

    #[test]
    fn undo_restores_revert_evicted_creation_storage() {
        // The journal revert path rewrites state without extra hooks;
        // the undo layer must still capture the priors (first-touch
        // recording fires on the *mutator* calls that preceded the
        // revert).
        let mut s = WorldState::new();
        s.set_storage(addr(7), U256::ONE, U256::from_u64(111));
        s.clear_tx_scratch();
        let root = s.state_root();

        s.begin_undo_layer();
        let snap = s.snapshot();
        s.create_contract(addr(7));
        s.set_storage(addr(7), U256::from_u64(3), U256::from_u64(333));
        s.revert(snap);
        s.clear_tx_scratch();
        let undo = s.take_undo_layer();
        s.apply_undo(undo);
        assert_eq!(s.state_root(), root);
        assert_eq!(s.storage(addr(7), U256::ONE), U256::from_u64(111));
    }

    #[test]
    fn storage_entries_lists_nonzero_slots() {
        let mut s = WorldState::new();
        assert!(s.storage_entries(addr(1)).is_empty());
        s.set_storage(addr(1), U256::ONE, U256::from_u64(5));
        s.set_storage(addr(1), U256::from_u64(2), U256::ZERO);
        let entries = s.storage_entries(addr(1));
        assert_eq!(entries, vec![(U256::ONE, U256::from_u64(5))]);
    }

    #[test]
    fn exists_semantics() {
        let mut s = WorldState::new();
        assert!(!s.account_exists(addr(9)));
        s.mint(addr(9), U256::ONE);
        assert!(s.account_exists(addr(9)));
        s.mint(addr(8), U256::ZERO);
        assert!(
            !s.account_exists(addr(8)),
            "zero-balance touch is not existence"
        );
    }

    #[test]
    fn emptied_account_drops_its_storage_trie_but_resurrects_exactly() {
        let mut s = WorldState::new();
        s.mint(addr(1), U256::from_u64(5));
        s.set_storage(addr(1), U256::ONE, U256::from_u64(42));
        s.clear_tx_scratch();
        let funded_root = s.state_root();
        assert_eq!(s.storage_tries.len(), 1);

        // Empty the account: its trie must be dropped at the next fold…
        s.transfer(addr(1), addr(2), U256::from_u64(5));
        s.transfer(addr(2), addr(3), U256::from_u64(5));
        s.clear_tx_scratch();
        // …empty addr(2) too so only addr(3) exists.
        s.state_root();
        assert!(
            !s.storage_tries.contains_key(&addr(1)),
            "destroyed account's storage trie is dropped"
        );

        // Resurrect: the trie is rebuilt from the flat slots and the
        // root matches the original funded state exactly.
        s.transfer(addr(3), addr(1), U256::from_u64(5));
        s.clear_tx_scratch();
        assert_eq!(
            s.state_root(),
            funded_root,
            "resurrection rebuilds the trie"
        );
        assert_eq!(s.storage(addr(1), U256::ONE), U256::from_u64(42));
    }

    #[test]
    fn an_emptied_accounts_slots_prove_zero_until_it_resurrects() {
        let mut s = WorldState::new();
        s.mint(addr(1), U256::from_u64(5));
        s.set_storage(addr(1), U256::ONE, U256::from_u64(42));
        s.clear_tx_scratch();
        s.state_root();

        s.transfer(addr(1), addr(2), U256::from_u64(5));
        s.clear_tx_scratch();
        let root = s.state_root();
        let proof = s.prove_storage(addr(1), U256::ONE);
        assert_eq!(proof.value, U256::ZERO);
        assert_eq!(proof.verify(root), Ok(()));

        s.transfer(addr(2), addr(1), U256::from_u64(5));
        s.clear_tx_scratch();
        let root = s.state_root();
        let proof = s.prove_storage(addr(1), U256::ONE);
        assert_eq!(proof.value, U256::from_u64(42));
        assert_eq!(proof.verify(root), Ok(()));
    }

    #[test]
    fn resurrection_with_same_block_storage_write_rebuilds_fully() {
        // The dropped-trie rebuild must cover *all* live slots, not just
        // the block's dirty ones.
        let mut s = WorldState::new();
        s.mint(addr(1), U256::ONE);
        s.set_storage(addr(1), U256::ONE, U256::from_u64(11));
        s.set_storage(addr(1), U256::from_u64(2), U256::from_u64(22));
        s.clear_tx_scratch();
        s.state_root();
        s.transfer(addr(1), addr(9), U256::ONE);
        s.clear_tx_scratch();
        s.state_root(); // drops addr(1)'s trie

        s.mint(addr(1), U256::ONE);
        s.set_storage(addr(1), U256::from_u64(3), U256::from_u64(33));
        s.clear_tx_scratch();
        let root = s.state_root();

        let mut fresh = WorldState::new();
        fresh.mint(addr(1), U256::ONE);
        fresh.mint(addr(9), U256::ONE);
        fresh.set_storage(addr(1), U256::ONE, U256::from_u64(11));
        fresh.set_storage(addr(1), U256::from_u64(2), U256::from_u64(22));
        fresh.set_storage(addr(1), U256::from_u64(3), U256::from_u64(33));
        fresh.clear_tx_scratch();
        assert_eq!(fresh.state_root(), root);
    }

    #[test]
    fn snapshot_roundtrip_is_deterministic_and_root_preserving() {
        let mut s = WorldState::new();
        s.mint(addr(1), U256::from_u64(1_000_000));
        s.install_code(addr(2), vec![0x5b, 0x00]);
        for i in 1..40u64 {
            s.set_storage(addr(2), U256::from_u64(i * 7), U256::from_u64(i));
        }
        s.bump_nonce(addr(1));
        // A storage-only address (no metadata) must survive the trip.
        s.set_storage(addr(9), U256::ONE, U256::from_u64(3));
        s.clear_tx_scratch();
        let root = s.state_root();

        let blob = s.export_snapshot();
        assert_eq!(blob, s.export_snapshot(), "export is deterministic");
        let mut imported = WorldState::import_snapshot(&blob).expect("round-trip");
        assert_eq!(imported.state_root(), root, "imported fold matches");
        assert_eq!(imported.export_snapshot(), blob, "re-export is identical");
        assert_eq!(imported.balance(addr(1)), U256::from_u64(1_000_000));
        assert_eq!(imported.nonce(addr(1)), 1);
        assert_eq!(imported.code(addr(2)).as_slice(), &[0x5b, 0x00]);
        assert_eq!(imported.storage(addr(9), U256::ONE), U256::from_u64(3));
    }

    #[test]
    fn snapshot_rejects_garbage_and_unordered_blobs() {
        assert!(matches!(
            WorldState::import_snapshot(&[0xff, 0x00]),
            Err(SnapshotError::Malformed)
        ));
        let mut s = WorldState::new();
        s.mint(addr(2), U256::ONE);
        s.mint(addr(1), U256::ONE);
        let blob = s.export_snapshot();
        // Reverse the two account entries: decode must refuse the
        // non-canonical order.
        let Ok(Item::List(mut entries)) = reference::decode(&blob) else {
            panic!("snapshot decodes");
        };
        entries.swap(0, 1);
        let swapped = reference::encode_list(&entries);
        assert!(matches!(
            WorldState::import_snapshot(&swapped),
            Err(SnapshotError::Unordered)
        ));

        // The canonical form binds inside an entry too: slots out of
        // order or repeated, and an entry for an account that neither
        // exists nor holds a slot, would re-export to different bytes.
        let slot = |k: u64, v: u64| Item::List(vec![Item::u64(k), Item::u64(v)]);
        let entry = |balance: u64, slots: Vec<Item>| {
            reference::encode_list(&[Item::List(vec![
                Item::address(addr(1)),
                Item::u64(0),
                Item::u64(balance),
                Item::bytes(vec![]),
                Item::List(slots),
            ])])
        };
        for (blob, want) in [
            (
                entry(1, vec![slot(2, 9), slot(1, 9)]),
                SnapshotError::Unordered,
            ),
            (
                entry(1, vec![slot(1, 8), slot(1, 9)]),
                SnapshotError::Unordered,
            ),
            (entry(0, vec![]), SnapshotError::Malformed),
        ] {
            assert_eq!(WorldState::import_snapshot(&blob).err(), Some(want));
        }
        // A storage-only entry in slot order is the canonical form.
        let ok = entry(0, vec![slot(1, 8), slot(2, 9)]);
        let imported = WorldState::import_snapshot(&ok).expect("canonical");
        assert_eq!(imported.export_snapshot(), ok);
    }
}
