//! Code analysis and its cross-execution cache.
//!
//! Before interpreting a byte of code the EVM must know which offsets are
//! valid `JUMPDEST`s (offsets inside PUSH immediates are not). That scan
//! is `O(len(code))` and, in the seed interpreter, re-ran for **every
//! frame** — every outer call, every nested `CALL`/`DELEGATECALL`, and
//! every dispute-path re-execution paid it again for byte-identical code.
//!
//! [`AnalysisCache`] memoizes the scan keyed by `keccak256(code)`, so a
//! contract's bitmap is computed once per unique bytecode and shared
//! (via `Rc`) across frames, transactions and blocks. The chain keeps
//! one cache per [`Testnet`](../../sc_chain/testnet/struct.Testnet.html)
//! and threads it into each [`crate::Evm`]; hit/miss counters make the
//! effect measurable (`examples/gas_report.rs` prints them for Fig. 2).
//!
//! Caching is purely an interpreter-speed optimisation: analysis is a
//! deterministic pure function of the code, so a warm cache can never
//! change an execution result (asserted by `sc-chain`'s determinism
//! suite).

use crate::opcode::analyze_jumpdests;
use sc_primitives::H256;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// The result of statically analysing one bytecode blob.
///
/// Currently just the `JUMPDEST` validity bitmap; the struct exists so
/// future analyses (gas-block metering, stack-height checks) extend the
/// same cache entry instead of adding parallel maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeAnalysis {
    jumpdests: Vec<bool>,
}

impl CodeAnalysis {
    /// Analyses `code` from scratch (no caching).
    pub fn analyze(code: &[u8]) -> Self {
        CodeAnalysis {
            jumpdests: analyze_jumpdests(code),
        }
    }

    /// True iff `pc` is a valid jump target in the analysed code.
    #[inline]
    pub fn is_jumpdest(&self, pc: usize) -> bool {
        self.jumpdests.get(pc).copied().unwrap_or(false)
    }

    /// Length of the analysed code in bytes.
    pub fn code_len(&self) -> usize {
        self.jumpdests.len()
    }
}

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the analysis.
    pub misses: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The default [`AnalysisCache::capacity`]: far above any realistic
/// count of distinct live bytecodes, small enough that an adversary
/// deploying throwaway contracts cannot grow the map without bound.
pub const DEFAULT_ANALYSIS_CAPACITY: usize = 4096;

/// Entries plus their insertion order.
#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<H256, Rc<CodeAnalysis>>,
    /// Insertion order, oldest first — the FIFO eviction queue.
    order: VecDeque<H256>,
}

/// A *bounded* memo of [`CodeAnalysis`] keyed by `keccak256(code)`. The
/// node that owns it is single-threaded, so it takes no lock.
///
/// Keying by content hash (not by pointer identity) means two
/// deployments of the same bytecode — e.g. the on-chain copy and a
/// dispute-path re-deployment — share one entry. The chain already knows
/// each account's code hash (it is cached on the account record), so
/// lookups cost a `HashMap` probe, not a keccak.
///
/// The cache holds at most [`AnalysisCache::capacity`] bytecodes
/// (default [`DEFAULT_ANALYSIS_CAPACITY`]), evicting oldest-first once
/// full, so a long-lived node that sees an unbounded stream of distinct
/// deployments keeps a bounded footprint.
#[derive(Debug)]
pub struct AnalysisCache {
    inner: RefCell<CacheInner>,
    capacity: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
}

impl Default for AnalysisCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_ANALYSIS_CAPACITY)
    }
}

impl AnalysisCache {
    /// Creates an empty cache holding at most
    /// [`DEFAULT_ANALYSIS_CAPACITY`] bytecodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` bytecodes
    /// (min 1). When full, the oldest entry is evicted first; a
    /// re-requested evictee is simply re-analysed and re-admitted, so
    /// the bound only ever costs speed, never correctness.
    pub fn with_capacity(capacity: usize) -> Self {
        AnalysisCache {
            inner: RefCell::default(),
            capacity: capacity.max(1),
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
        }
    }

    /// Maximum number of distinct bytecodes retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted to enforce the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Returns the analysis for `code`, computing and memoizing it on
    /// first sight of `code_hash`.
    ///
    /// The caller is trusted that `code_hash == keccak256(code)`; the
    /// chain maintains that invariant on its account records.
    pub fn get_or_analyze(&self, code_hash: H256, code: &[u8]) -> Rc<CodeAnalysis> {
        let mut inner = self.inner.borrow_mut();
        if let Some(hit) = inner.entries.get(&code_hash) {
            self.hits.set(self.hits.get() + 1);
            return Rc::clone(hit);
        }
        self.misses.set(self.misses.get() + 1);
        let analysis = Rc::new(CodeAnalysis::analyze(code));
        inner.entries.insert(code_hash, Rc::clone(&analysis));
        inner.order.push_back(code_hash);
        if inner.entries.len() > self.capacity {
            let oldest = inner.order.pop_front().expect("order tracks entries");
            inner.entries.remove(&oldest);
            self.evictions.set(self.evictions.get() + 1);
        }
        analysis
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Number of distinct bytecodes cached.
    pub fn len(&self) -> usize {
        self.inner.borrow().entries.len()
    }

    /// True iff no bytecode has been analysed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and zeroes the counters (bench cold starts).
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.entries.clear();
        inner.order.clear();
        self.hits.set(0);
        self.misses.set(0);
        self.evictions.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_crypto::keccak256;

    #[test]
    fn analysis_matches_raw_scan() {
        // PUSH2 0x5b5b JUMPDEST: only offset 3 is a real JUMPDEST.
        let code = [0x61, 0x5b, 0x5b, 0x5b];
        let a = CodeAnalysis::analyze(&code);
        assert!(!a.is_jumpdest(0));
        assert!(!a.is_jumpdest(1));
        assert!(!a.is_jumpdest(2));
        assert!(a.is_jumpdest(3));
        assert!(!a.is_jumpdest(4), "out of bounds is not a jumpdest");
        assert_eq!(a.code_len(), 4);
    }

    #[test]
    fn cache_hits_after_first_analysis() {
        let cache = AnalysisCache::new();
        let code = vec![0x5b, 0x00];
        let hash = keccak256(&code);
        let first = cache.get_or_analyze(hash, &code);
        let second = cache.get_or_analyze(hash, &code);
        assert!(
            Rc::ptr_eq(&first, &second),
            "second lookup shares the entry"
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_code_gets_distinct_entries() {
        let cache = AnalysisCache::new();
        let a = vec![0x5b];
        let b = vec![0x00];
        cache.get_or_analyze(keccak256(&a), &a);
        cache.get_or_analyze(keccak256(&b), &b);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn clear_resets_entries_and_stats() {
        let cache = AnalysisCache::new();
        let code = vec![0x5b];
        let hash = keccak256(&code);
        cache.get_or_analyze(hash, &code);
        cache.get_or_analyze(hash, &code);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0 });
    }

    #[test]
    fn hit_ratio_bounds() {
        let s = CacheStats { hits: 0, misses: 0 };
        assert_eq!(s.hit_ratio(), 0.0);
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn capacity_bounds_the_cache_with_fifo_eviction() {
        // Regression: the cache grew one entry per distinct bytecode
        // forever, so an adversarial deployment stream was an unbounded
        // memory leak in every long-lived node.
        let cache = AnalysisCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let codes: Vec<Vec<u8>> = (0u8..5).map(|i| vec![0x5b, 0x60, i]).collect();
        let hashes: Vec<H256> = codes.iter().map(|c| keccak256(c)).collect();
        for (h, c) in hashes.iter().zip(&codes) {
            cache.get_or_analyze(*h, c);
            assert!(cache.len() <= 2, "capacity is a hard bound");
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 3, "oldest three were displaced");

        // The two newest survive (hits); an evictee re-analyses (miss)
        // with an identical result — the bound never changes answers.
        let before = cache.stats();
        cache.get_or_analyze(hashes[4], &codes[4]);
        cache.get_or_analyze(hashes[3], &codes[3]);
        assert_eq!(cache.stats().hits, before.hits + 2);
        let readmitted = cache.get_or_analyze(hashes[0], &codes[0]);
        assert_eq!(cache.stats().misses, before.misses + 1);
        assert_eq!(*readmitted, CodeAnalysis::analyze(&codes[0]));
        assert_eq!(cache.len(), 2);

        cache.clear();
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.capacity(), 2, "clear keeps the bound");
    }
}
