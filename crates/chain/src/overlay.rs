//! Flat state overlay: the storage engine's hot read/write surface.
//!
//! Every Host read and write hits two flat hash maps — account metadata
//! keyed by address and storage keyed by `(address, slot)` — so a read
//! costs one probe regardless of how many accounts or slots exist, and
//! nothing here touches a Merkle trie. The authenticated tries are
//! reconciled from the dirty sets only at `seal_block`
//! ([`crate::state::WorldState::state_root`]); this module owns pure
//! key-value state.
//!
//! Reorg support is a property of the same structure rather than a
//! bolt-on: while recording, the first touch of an account or slot
//! captures its prior value into the open layer, so rolling a
//! block back is "apply the top layer" — the whole-account snapshot
//! machinery the previous engine stacked next to its storage maps is
//! gone.
//!
//! The maps hash with `FoldState`, a folded multiply keyed once per
//! process, instead of std's SipHash: every SLOAD is a probe here.

use sc_crypto::keccak256;
use sc_primitives::{Address, H256, U256};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

/// `keccak256("")` — the code hash of every codeless account.
pub fn empty_code_hash() -> H256 {
    static EMPTY: OnceLock<H256> = OnceLock::new();
    *EMPTY.get_or_init(|| keccak256(&[]))
}

/// The one empty code buffer every codeless account shares, so an EOA
/// costs no allocation of its own.
pub fn empty_code() -> Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    EMPTY.get_or_init(Arc::default).clone()
}

/// Account metadata: EOA (no code) or contract account. Storage lives
/// in the overlay's flat map and its root in the state's tries, not
/// here — an `Account` is a few words, so diff layers can snapshot it
/// by value cheaply.
#[derive(Clone, Debug)]
pub struct Account {
    /// Transaction / creation counter.
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Runtime code (empty for EOAs).
    pub code: Arc<Vec<u8>>,
    /// `keccak256(code)`, maintained on every code write so the EVM's
    /// analysis-cache key costs a field read instead of a hash.
    pub code_hash: H256,
}

impl Default for Account {
    fn default() -> Self {
        Account {
            nonce: 0,
            balance: U256::ZERO,
            code: empty_code(),
            code_hash: empty_code_hash(),
        }
    }
}

impl Account {
    /// True iff the account is distinguishable from a nonexistent one.
    pub fn exists(&self) -> bool {
        self.nonce != 0 || !self.balance.is_zero() || !self.code.is_empty()
    }
}

/// One block's worth of first-touch priors: every account and storage
/// slot the block touched, paired with its value *before* the first
/// touch (`None` / [`U256::ZERO`] when it did not exist yet). Applying
/// the layer restores the overlay exactly as it was when the layer
/// opened — the primitive reorg rollback is built on.
///
/// Priors are recorded once per key per layer, so applying is
/// order-independent and a block that rewrites one slot a thousand
/// times costs one entry. A closed layer is only ever applied whole,
/// never probed, so it is two exact-size vectors: a node keeps one per
/// block above genesis.
#[derive(Debug, Default)]
pub struct DiffLayer {
    pub(crate) accounts: Vec<(Address, Option<Account>)>,
    pub(crate) storage: Vec<((Address, U256), U256)>,
}

impl DiffLayer {
    /// Number of distinct accounts and slots this layer snapshotted.
    pub fn len(&self) -> usize {
        self.accounts.len() + self.storage.len()
    }

    /// True when the layer recorded no touches at all.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty() && self.storage.is_empty()
    }
}

/// The layer being recorded: maps, so each key's first touch is the one
/// kept. [`StateOverlay::take_layer`] drains it into a [`DiffLayer`].
#[derive(Default)]
struct OpenLayer {
    accounts: HashMap<Address, Option<Account>, FoldState>,
    storage: HashMap<(Address, U256), U256, FoldState>,
}

/// The flat state overlay: account metadata plus a single
/// `(address, slot) → value` map holding every live (nonzero) storage
/// word, with an optional open layer capturing priors for rollback.
///
/// The `slots` directory mirrors the flat map's keys per address in
/// sorted order, so enumerations (`entries`, trie rebuilds, snapshot
/// export) are deterministic without ever sorting the hot map.
#[derive(Default)]
pub struct StateOverlay {
    accounts: HashMap<Address, Account, FoldState>,
    storage: HashMap<(Address, U256), U256, FoldState>,
    slots: HashMap<Address, BTreeSet<U256>, FoldState>,
    recording: bool,
    open: OpenLayer,
}

impl StateOverlay {
    /// An empty overlay, recording off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read-only account metadata. `None` covers both never-touched
    /// addresses and storage-only addresses (slots written but no
    /// metadata ever set).
    pub fn account(&self, a: Address) -> Option<&Account> {
        self.accounts.get(&a)
    }

    /// Mutable account metadata, created as the default (nonexistent)
    /// account on first access. Records the prior into the open layer.
    pub fn account_mut(&mut self, a: Address) -> &mut Account {
        if self.recording {
            if let Entry::Vacant(e) = self.open.accounts.entry(a) {
                e.insert(self.accounts.get(&a).cloned());
            }
        }
        self.accounts.entry(a).or_default()
    }

    /// One flat probe: the slot's value, zero when absent.
    pub fn storage(&self, a: Address, key: U256) -> U256 {
        self.storage.get(&(a, key)).copied().unwrap_or(U256::ZERO)
    }

    /// Writes a slot (zero deletes), recording the prior into the open
    /// layer and maintaining the per-address slot directory.
    pub fn set_storage(&mut self, a: Address, key: U256, value: U256) {
        if self.recording {
            if let Entry::Vacant(e) = self.open.storage.entry((a, key)) {
                e.insert(self.storage.get(&(a, key)).copied().unwrap_or(U256::ZERO));
            }
        }
        self.set_storage_unrecorded(a, key, value);
    }

    /// The raw write shared with layer application (which must never
    /// re-record what it restores).
    fn set_storage_unrecorded(&mut self, a: Address, key: U256, value: U256) {
        if value.is_zero() {
            if self.storage.remove(&(a, key)).is_some() {
                if let Some(set) = self.slots.get_mut(&a) {
                    set.remove(&key);
                    if set.is_empty() {
                        self.slots.remove(&a);
                    }
                }
            }
        } else {
            self.storage.insert((a, key), value);
            self.slots.entry(a).or_default().insert(key);
        }
    }

    /// Every live (nonzero) slot of `a`, ascending by slot.
    pub fn entries(&self, a: Address) -> Vec<(U256, U256)> {
        self.slots.get(&a).map_or_else(Vec::new, |set| {
            set.iter().map(|k| (*k, self.storage[&(a, *k)])).collect()
        })
    }

    /// The live slot keys of `a`, ascending.
    pub fn slot_keys(&self, a: Address) -> Vec<U256> {
        self.slots
            .get(&a)
            .map_or_else(Vec::new, |set| set.iter().copied().collect())
    }

    /// True when `a` holds at least one live slot.
    pub fn has_slots(&self, a: Address) -> bool {
        self.slots.contains_key(&a)
    }

    /// Starts recording with a fresh, empty open layer.
    pub fn begin_recording(&mut self) {
        self.recording = true;
        self.open = OpenLayer::default();
    }

    /// Closes the open layer and returns it; recording continues into a
    /// fresh layer (the maps keep their capacity for the next block).
    /// Returns an empty layer when recording is off.
    pub fn take_layer(&mut self) -> DiffLayer {
        DiffLayer {
            accounts: self.open.accounts.drain().collect(),
            storage: self.open.storage.drain().collect(),
        }
    }

    /// Stops recording and discards the open layer.
    pub fn stop_recording(&mut self) {
        self.recording = false;
        self.open = OpenLayer::default();
    }

    /// True while an open layer is recording priors.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Applies a layer: every recorded prior is written back, restoring
    /// the overlay to the instant the layer opened. Returns the touched
    /// accounts and slot keys so the caller can mark its trie dirty
    /// sets. The restore is *not* recorded into any open layer — the
    /// caller sequences layers (it pops them newest-first).
    pub fn apply_layer(&mut self, layer: DiffLayer) -> (Vec<Address>, Vec<(Address, U256)>) {
        let mut accounts = Vec::with_capacity(layer.accounts.len());
        for (a, before) in layer.accounts {
            match before {
                Some(acct) => {
                    self.accounts.insert(a, acct);
                }
                None => {
                    self.accounts.remove(&a);
                }
            }
            accounts.push(a);
        }
        let mut slots = Vec::with_capacity(layer.storage.len());
        for ((a, k), v) in layer.storage {
            self.set_storage_unrecorded(a, k, v);
            slots.push((a, k));
        }
        (accounts, slots)
    }

    /// Every address ever touched: metadata holders plus storage-only
    /// addresses. Includes addresses whose account has since become
    /// empty — callers filter on [`Account::exists`].
    pub fn addresses(&self) -> Vec<Address> {
        let mut out: Vec<Address> = self.accounts.keys().copied().collect();
        out.extend(self.slots.keys().filter(|a| !self.accounts.contains_key(a)));
        out
    }

    /// Number of existing accounts (diagnostics).
    pub fn account_count(&self) -> usize {
        self.accounts.values().filter(|a| a.exists()).count()
    }

    /// Sum of every account's balance — the whole world's wei, for the
    /// conservation invariant.
    pub fn total_balance(&self) -> U256 {
        self.accounts
            .values()
            .fold(U256::ZERO, |acc, a| acc.wrapping_add(a.balance))
    }

    /// Number of live storage words across all accounts (diagnostics).
    pub fn storage_len(&self) -> usize {
        self.storage.len()
    }
}

/// The overlay maps' hasher state: one secret key per process, drawn
/// from std's `RandomState`, so which slot keys collide cannot be worked
/// out ahead of a run and iteration order still differs between
/// processes, as it does under SipHash. It has no setter.
#[derive(Clone, Copy)]
struct FoldState {
    key: u64,
}

impl Default for FoldState {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        FoldState {
            key: *KEY.get_or_init(|| RandomState::new().hash_one(0u64)),
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.key,
            key: self.key,
        }
    }
}

/// Folds 16 key bytes per 64×64→128-bit multiply, the product's two
/// halves xored: an `(Address, U256)` key is six multiplies, against
/// SipHash-1-3's rounds over 52 bytes.
struct FoldHasher {
    acc: u64,
    key: u64,
}

/// π's first fraction bits: the multiplier for lone words (length
/// prefixes), which have no partner word.
const LONE: u64 = 0x243f_6a88_85a3_08d3;

#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let product = u128::from(x) * u128::from(y);
    (product as u64) ^ ((product >> 64) as u64)
}

impl FoldHasher {
    #[inline]
    fn fold(&mut self, chunk: [u8; 16]) {
        let v = u128::from_le_bytes(chunk);
        self.acc = folded_multiply(self.acc ^ v as u64, self.key ^ (v >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (chunks, rest) = bytes.as_chunks::<16>();
        for chunk in chunks {
            self.fold(*chunk);
        }
        if !rest.is_empty() {
            let mut buf = [0u8; 16];
            buf[..rest.len()].copy_from_slice(rest);
            self.fold(buf);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.acc = folded_multiply(self.acc ^ x, self.key ^ LONE);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    #[test]
    fn flat_reads_and_slot_directory() {
        let mut o = StateOverlay::new();
        assert_eq!(o.storage(addr(1), U256::ONE), U256::ZERO);
        o.set_storage(addr(1), U256::from_u64(9), U256::from_u64(90));
        o.set_storage(addr(1), U256::ONE, U256::from_u64(10));
        assert_eq!(o.storage(addr(1), U256::ONE), U256::from_u64(10));
        assert_eq!(
            o.entries(addr(1)),
            vec![
                (U256::ONE, U256::from_u64(10)),
                (U256::from_u64(9), U256::from_u64(90)),
            ],
            "entries are slot-ascending"
        );
        o.set_storage(addr(1), U256::ONE, U256::ZERO);
        assert_eq!(o.entries(addr(1)).len(), 1);
        o.set_storage(addr(1), U256::from_u64(9), U256::ZERO);
        assert!(!o.has_slots(addr(1)), "empty directory entries are dropped");
        assert_eq!(o.storage_len(), 0);
    }

    #[test]
    fn layer_restores_first_touch_priors() {
        let mut o = StateOverlay::new();
        o.account_mut(addr(1)).balance = U256::from_u64(100);
        o.set_storage(addr(1), U256::ONE, U256::from_u64(7));

        o.begin_recording();
        o.account_mut(addr(1)).balance = U256::from_u64(50);
        o.account_mut(addr(1)).nonce = 3; // second touch: no re-record
        o.account_mut(addr(2)).balance = U256::from_u64(5);
        o.set_storage(addr(1), U256::ONE, U256::from_u64(8));
        o.set_storage(addr(1), U256::ONE, U256::from_u64(9));
        o.set_storage(addr(2), U256::from_u64(2), U256::from_u64(22));
        let layer = o.take_layer();
        assert_eq!(layer.len(), 2 + 2, "one prior per touched key");

        let (accounts, slots) = o.apply_layer(layer);
        assert_eq!(accounts.len(), 2);
        assert_eq!(slots.len(), 2);
        assert_eq!(o.account(addr(1)).unwrap().balance, U256::from_u64(100));
        assert_eq!(o.account(addr(1)).unwrap().nonce, 0);
        assert!(o.account(addr(2)).is_none(), "created account removed");
        assert_eq!(o.storage(addr(1), U256::ONE), U256::from_u64(7));
        assert_eq!(o.storage(addr(2), U256::from_u64(2)), U256::ZERO);
        assert!(!o.has_slots(addr(2)));
    }

    #[test]
    fn recording_off_records_nothing() {
        let mut o = StateOverlay::new();
        o.account_mut(addr(1)).balance = U256::ONE;
        o.set_storage(addr(1), U256::ONE, U256::ONE);
        assert!(o.take_layer().is_empty());
        o.begin_recording();
        assert!(o.recording());
        o.stop_recording();
        o.account_mut(addr(1)).balance = U256::from_u64(2);
        assert!(o.take_layer().is_empty());
    }

    #[test]
    fn addresses_cover_storage_only_accounts() {
        let mut o = StateOverlay::new();
        o.account_mut(addr(1)).balance = U256::ONE;
        o.set_storage(addr(2), U256::ONE, U256::from_u64(5));
        let mut addrs = o.addresses();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![addr(1), addr(2)]);
        assert_eq!(o.account_count(), 1, "storage-only address never exists");
    }
}
