//! A deterministic transaction pool and fee market.
//!
//! On a real chain the paper's on-chain side competes for block space
//! like any other contract, so the reproduction needs what every node
//! has: a pool that *orders* (per-sender nonce queues), *prices* (a
//! fee-priority heap with replacement and eviction rules) and *packs*
//! (greedy fill under a block gas limit, nonce order preserved).
//!
//! Everything is bit-deterministic. Ties in the fee market are broken
//! by arrival sequence, iteration is over ordered maps, and no clock or
//! randomness is consulted: the same admission sequence always yields
//! the same packed block sequence, which is what the session engine's
//! determinism proptests rely on.
//!
//! The pool is generic over its payload `T` (the signed transaction
//! plus whatever the chain caches alongside it) and depends only on
//! `sc-primitives`, so `sc-chain` can own a `Mempool<PendingTx>`
//! without a dependency cycle. Signature checks, intrinsic gas and
//! balance validation stay in the chain's admission path; the pool
//! handles ordering, pricing and capacity.

#![warn(missing_docs)]

use sc_primitives::{Address, H256, U256};
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Configuration of a [`Mempool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum transactions held; admission past this evicts the
    /// lowest-fee queue tail (or rejects the newcomer if it *is* the
    /// lowest fee).
    pub capacity: usize,
    /// Minimum fee increase, in percent, for a same-nonce replacement
    /// to be accepted (the classic anti-spam bump; 10 on mainnet-era
    /// clients).
    pub replacement_bump_percent: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            capacity: 4096,
            replacement_bump_percent: 10,
        }
    }
}

/// The pool-relevant fields of a transaction, extracted once by the
/// chain's admission path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxMeta {
    /// Recovered sender.
    pub sender: Address,
    /// Sender's nonce carried by the transaction.
    pub nonce: u64,
    /// Offered price per unit of gas — the fee-market priority.
    pub gas_price: U256,
    /// Gas limit; packing counts this (not the eventual `gas_used`)
    /// against the block gas limit, exactly like a real miner must.
    pub gas_limit: u64,
    /// Transaction hash (eviction routing and replacement accounting).
    pub hash: H256,
}

/// Why the pool refused a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A same-nonce replacement did not offer the required fee bump.
    Underpriced {
        /// The minimum gas price that would have been accepted.
        required: U256,
    },
    /// The pool is full and the newcomer's fee is not above the
    /// cheapest resident's.
    Full {
        /// The gas price the newcomer must exceed to displace anyone.
        must_exceed: U256,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Underpriced { required } => {
                write!(f, "replacement underpriced: need gas price >= {required}")
            }
            PoolError::Full { must_exceed } => {
                write!(f, "pool full: need gas price > {must_exceed}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// What [`Mempool::insert`] did with an admitted transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admitted {
    /// Queued into a previously empty nonce slot.
    Queued,
    /// Replaced the same-nonce transaction with this hash (the old
    /// transaction also lands in the evicted log for routing).
    Replaced(H256),
    /// Queued, and made room by evicting this other transaction.
    EvictedOther(H256),
    /// The identical transaction was already pooled; nothing changed.
    AlreadyPooled,
}

/// One resident transaction.
#[derive(Debug, Clone)]
struct Entry<T> {
    meta: TxMeta,
    payload: T,
    /// Admission sequence number — the deterministic FIFO tie-break.
    seq: u64,
}

/// A packing candidate: the lowest-nonce *ready* transaction of one
/// sender. Max-heap order: higher gas price first, then earlier
/// arrival (lower seq), then lower sender address — a total order, so
/// packing is deterministic.
struct Candidate {
    price: U256,
    seq: u64,
    sender: Address,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.price
            .cmp(&other.price)
            .then(other.seq.cmp(&self.seq))
            .then(other.sender.0.cmp(&self.sender.0))
    }
}

/// The pool: per-sender nonce-ordered queues under one fee market.
pub struct Mempool<T> {
    config: PoolConfig,
    /// Sender → (nonce → entry). `BTreeMap` at both levels keeps every
    /// iteration order deterministic.
    senders: BTreeMap<Address, BTreeMap<u64, Entry<T>>>,
    by_hash: HashMap<H256, (Address, u64)>,
    next_seq: u64,
    len: usize,
    /// Hashes displaced since the last [`Mempool::drain_evicted`] —
    /// by replacement, capacity eviction, or nonce pruning. The owner
    /// routes these back to whoever is waiting on the transaction.
    evicted: Vec<H256>,
}

impl<T> Mempool<T> {
    /// An empty pool under the given configuration.
    pub fn new(config: PoolConfig) -> Mempool<T> {
        Mempool {
            config,
            senders: BTreeMap::new(),
            by_hash: HashMap::new(),
            next_seq: 0,
            len: 0,
            evicted: Vec::new(),
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Transactions currently pooled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if this hash is currently pooled.
    pub fn contains(&self, hash: H256) -> bool {
        self.by_hash.contains_key(&hash)
    }

    /// The sender recorded when this hash was admitted, while it is
    /// pooled.
    pub fn sender_of(&self, hash: H256) -> Option<Address> {
        self.by_hash.get(&hash).map(|&(sender, _)| sender)
    }

    /// The next nonce a self-signing sender should use: `base` (the
    /// account nonce) advanced past the contiguous run of its pooled
    /// transactions.
    pub fn next_nonce(&self, sender: Address, base: u64) -> u64 {
        let Some(queue) = self.senders.get(&sender) else {
            return base;
        };
        let mut next = base;
        while queue.contains_key(&next) {
            next += 1;
        }
        next
    }

    /// Hashes displaced since the last drain (replacement, eviction,
    /// pruning), in displacement order.
    pub fn drain_evicted(&mut self) -> Vec<H256> {
        std::mem::take(&mut self.evicted)
    }

    /// The minimum gas price a newcomer must exceed when the pool is
    /// full: the cheapest evictable queue tail (price, then newest
    /// arrival). `None` while the pool has room.
    fn cheapest_tail(&self) -> Option<(Address, u64, U256, u64)> {
        let mut worst: Option<(Address, u64, U256, u64)> = None;
        for (&sender, queue) in &self.senders {
            let (&nonce, entry) = queue.last_key_value().expect("queues are never empty");
            let key = (entry.meta.gas_price, entry.seq);
            let replace = match worst {
                None => true,
                // Lower price is worse; among equal prices the newest
                // (highest seq) goes first.
                Some((_, _, wp, ws)) => key.0 < wp || (key.0 == wp && key.1 > ws),
            };
            if replace {
                worst = Some((sender, nonce, key.0, key.1));
            }
        }
        worst
    }

    /// Admits a transaction: replacement if the nonce slot is taken
    /// (requires the configured fee bump), eviction of the cheapest
    /// queue tail if the pool is full. The caller has already done the
    /// chain-level validation (signature, intrinsic gas, balance,
    /// nonce ≥ account nonce). `_now` is the chain timestamp at
    /// admission; nothing in the pool is time-driven (ordering is price
    /// then admission sequence), so it is accepted and not stored.
    pub fn insert(&mut self, meta: TxMeta, payload: T, _now: u64) -> Result<Admitted, PoolError> {
        if self.by_hash.contains_key(&meta.hash) {
            return Ok(Admitted::AlreadyPooled);
        }

        // Same-nonce replacement: the fee market's anti-spam rule.
        if let Some(old) = self
            .senders
            .get(&meta.sender)
            .and_then(|q| q.get(&meta.nonce))
        {
            let bump = U256::from_u64(100 + self.config.replacement_bump_percent);
            let (scaled, _) = old
                .meta
                .gas_price
                .wrapping_mul(bump)
                .div_rem(U256::from_u64(100));
            if meta.gas_price < scaled {
                return Err(PoolError::Underpriced { required: scaled });
            }
            let old_hash = old.meta.hash;
            self.by_hash.remove(&old_hash);
            self.evicted.push(old_hash);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.by_hash.insert(meta.hash, (meta.sender, meta.nonce));
            self.senders
                .get_mut(&meta.sender)
                .expect("checked")
                .insert(meta.nonce, Entry { meta, payload, seq });
            return Ok(Admitted::Replaced(old_hash));
        }

        // Capacity: evict the cheapest queue tail, or bounce the
        // newcomer if nothing resident is cheaper.
        let mut evicted_other = None;
        if self.len >= self.config.capacity {
            let (sender, nonce, price, _) = self.cheapest_tail().expect("full pool is non-empty");
            if meta.gas_price <= price {
                return Err(PoolError::Full { must_exceed: price });
            }
            let queue = self.senders.get_mut(&sender).expect("tail exists");
            let victim = queue.remove(&nonce).expect("tail exists");
            if queue.is_empty() {
                self.senders.remove(&sender);
            }
            self.by_hash.remove(&victim.meta.hash);
            self.evicted.push(victim.meta.hash);
            self.len -= 1;
            evicted_other = Some(victim.meta.hash);
        }

        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_hash.insert(meta.hash, (meta.sender, meta.nonce));
        self.senders
            .entry(meta.sender)
            .or_default()
            .insert(meta.nonce, Entry { meta, payload, seq });
        self.len += 1;
        Ok(match evicted_other {
            Some(h) => Admitted::EvictedOther(h),
            None => Admitted::Queued,
        })
    }

    /// Drops every transaction whose nonce fell below its sender's
    /// account nonce (mined elsewhere or otherwise stale); dropped
    /// hashes join the evicted log.
    pub fn prune(&mut self, mut account_nonce: impl FnMut(Address) -> u64) {
        let senders: Vec<Address> = self.senders.keys().copied().collect();
        for sender in senders {
            let base = account_nonce(sender);
            let queue = self.senders.get_mut(&sender).expect("listed");
            let stale: Vec<u64> = queue.range(..base).map(|(&n, _)| n).collect();
            for n in stale {
                let entry = queue.remove(&n).expect("listed");
                self.by_hash.remove(&entry.meta.hash);
                self.evicted.push(entry.meta.hash);
                self.len -= 1;
            }
            if queue.is_empty() {
                self.senders.remove(&sender);
            }
        }
    }

    /// Greedily packs one block: repeatedly takes the highest-priority
    /// *ready* transaction (each sender's lowest pooled nonce, and only
    /// if it equals the account nonce advanced by what is already
    /// packed) whose gas limit still fits under `gas_limit`. A sender
    /// whose next transaction does not fit is skipped for the rest of
    /// the block — taking a later nonce first would break nonce order.
    ///
    /// Returns the packed transactions in block order; they are removed
    /// from the pool. Total declared gas never exceeds `gas_limit`.
    pub fn pack(
        &mut self,
        gas_limit: u64,
        mut account_nonce: impl FnMut(Address) -> u64,
    ) -> Vec<(TxMeta, T)> {
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        let mut next_wanted: BTreeMap<Address, u64> = BTreeMap::new();
        for (&sender, queue) in &self.senders {
            let base = account_nonce(sender);
            if let Some(entry) = queue.get(&base) {
                heap.push(Candidate {
                    price: entry.meta.gas_price,
                    seq: entry.seq,
                    sender,
                });
                next_wanted.insert(sender, base);
            }
        }

        let mut packed = Vec::new();
        let mut gas_used = 0u64;
        while let Some(c) = heap.pop() {
            let nonce = next_wanted[&c.sender];
            let entry = self
                .senders
                .get(&c.sender)
                .and_then(|q| q.get(&nonce))
                .expect("candidate tracks the queue");
            if gas_used + entry.meta.gas_limit > gas_limit {
                // Skip this sender for the rest of the block.
                continue;
            }
            let queue = self.senders.get_mut(&c.sender).expect("candidate");
            let entry = queue.remove(&nonce).expect("candidate");
            self.by_hash.remove(&entry.meta.hash);
            self.len -= 1;
            gas_used += entry.meta.gas_limit;
            // The sender's next contiguous nonce becomes ready.
            if let Some(next) = queue.get(&(nonce + 1)) {
                heap.push(Candidate {
                    price: next.meta.gas_price,
                    seq: next.seq,
                    sender: c.sender,
                });
                next_wanted.insert(c.sender, nonce + 1);
            } else if queue.is_empty() {
                self.senders.remove(&c.sender);
            }
            packed.push((entry.meta, entry.payload));
        }
        packed
    }

    /// Every pooled transaction's metadata, in (sender, nonce) order —
    /// for inspection and the conservation proptests.
    pub fn iter_meta(&self) -> impl Iterator<Item = &TxMeta> {
        self.senders
            .values()
            .flat_map(|q| q.values())
            .map(|e| &e.meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    fn hash(b: u8, n: u64) -> H256 {
        let mut h = [0u8; 32];
        h[0] = b;
        h[31] = n as u8;
        h[30] = (n >> 8) as u8;
        H256(h)
    }

    fn meta(sender: u8, nonce: u64, price: u64, gas: u64) -> TxMeta {
        TxMeta {
            sender: addr(sender),
            nonce,
            gas_price: U256::from_u64(price),
            gas_limit: gas,
            hash: hash(sender, nonce * 1000 + price),
        }
    }

    fn pool(capacity: usize) -> Mempool<u8> {
        Mempool::new(PoolConfig {
            capacity,
            ..PoolConfig::default()
        })
    }

    #[test]
    fn packs_by_price_then_arrival() {
        let mut p = pool(16);
        p.insert(meta(1, 0, 5, 21_000), 0, 0).unwrap();
        p.insert(meta(2, 0, 9, 21_000), 0, 0).unwrap();
        p.insert(meta(3, 0, 5, 21_000), 0, 0).unwrap();
        let packed = p.pack(1_000_000, |_| 0);
        let senders: Vec<u8> = packed.iter().map(|(m, _)| m.sender.0[0]).collect();
        // Highest price first; the two 5-gwei txs in arrival order.
        assert_eq!(senders, vec![2, 1, 3]);
        assert!(p.is_empty());
    }

    #[test]
    fn per_sender_nonce_order_survives_any_prices() {
        let mut p = pool(16);
        // Sender 1's nonce 0 is cheap, nonce 1 expensive: nonce order
        // must still win over price order.
        p.insert(meta(1, 0, 1, 21_000), 0, 0).unwrap();
        p.insert(meta(1, 1, 100, 21_000), 0, 0).unwrap();
        p.insert(meta(2, 0, 50, 21_000), 0, 0).unwrap();
        let packed = p.pack(1_000_000, |_| 0);
        let order: Vec<(u8, u64)> = packed
            .iter()
            .map(|(m, _)| (m.sender.0[0], m.nonce))
            .collect();
        assert_eq!(order, vec![(2, 0), (1, 0), (1, 1)]);
    }

    #[test]
    fn packing_respects_the_gas_limit() {
        let mut p = pool(16);
        for s in 1..=5u8 {
            p.insert(meta(s, 0, u64::from(s), 40_000), 0, 0).unwrap();
        }
        let packed = p.pack(100_000, |_| 0);
        assert_eq!(packed.len(), 2, "only two 40k txs fit under 100k");
        let declared: u64 = packed.iter().map(|(m, _)| m.gas_limit).sum();
        assert!(declared <= 100_000);
        assert_eq!(p.len(), 3, "the rest stay pooled for the next block");
    }

    #[test]
    fn smaller_tx_fills_the_gap_a_big_one_left() {
        let mut p = pool(16);
        p.insert(meta(1, 0, 10, 90_000), 0, 0).unwrap();
        p.insert(meta(2, 0, 9, 90_000), 0, 0).unwrap(); // won't fit
        p.insert(meta(3, 0, 1, 10_000), 0, 0).unwrap(); // will
        let packed = p.pack(100_000, |_| 0);
        let senders: Vec<u8> = packed.iter().map(|(m, _)| m.sender.0[0]).collect();
        assert_eq!(senders, vec![1, 3]);
    }

    #[test]
    fn future_nonces_wait_for_the_gap_to_fill() {
        let mut p = pool(16);
        p.insert(meta(1, 1, 100, 21_000), 0, 0).unwrap(); // gap at 0
        assert_eq!(p.pack(1_000_000, |_| 0).len(), 0);
        assert_eq!(p.len(), 1);
        p.insert(meta(1, 0, 1, 21_000), 0, 0).unwrap();
        let packed = p.pack(1_000_000, |_| 0);
        let nonces: Vec<u64> = packed.iter().map(|(m, _)| m.nonce).collect();
        assert_eq!(nonces, vec![0, 1]);
    }

    #[test]
    fn replacement_requires_the_bump() {
        let mut p = pool(16);
        p.insert(meta(1, 0, 100, 21_000), 0, 0).unwrap();
        // 109 < 110: refused.
        let err = p.insert(meta(1, 0, 109, 21_000), 1, 0).unwrap_err();
        assert_eq!(
            err,
            PoolError::Underpriced {
                required: U256::from_u64(110)
            }
        );
        // 110 = exactly +10%: accepted, old hash displaced.
        let old_hash = hash(1, 100);
        let got = p.insert(meta(1, 0, 110, 21_000), 2, 0).unwrap();
        assert_eq!(got, Admitted::Replaced(old_hash));
        assert_eq!(p.len(), 1);
        assert_eq!(p.drain_evicted(), vec![old_hash]);
        let packed = p.pack(1_000_000, |_| 0);
        assert_eq!(packed[0].1, 2, "the replacement's payload won");
    }

    #[test]
    fn resubmitting_the_identical_tx_is_idempotent() {
        let mut p = pool(16);
        let m = meta(1, 0, 5, 21_000);
        assert_eq!(p.insert(m.clone(), 0, 0).unwrap(), Admitted::Queued);
        assert_eq!(p.insert(m, 0, 0).unwrap(), Admitted::AlreadyPooled);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn sender_of_answers_only_while_pooled() {
        let mut p = pool(16);
        let m = meta(1, 0, 5, 21_000);
        assert_eq!(p.sender_of(m.hash), None);
        p.insert(m.clone(), 0, 0).unwrap();
        assert_eq!(p.sender_of(m.hash), Some(addr(1)));
        p.pack(1_000_000, |_| 0);
        assert_eq!(p.sender_of(m.hash), None, "packed is no longer pooled");
    }

    #[test]
    fn full_pool_evicts_the_cheapest_tail() {
        let mut p = pool(3);
        p.insert(meta(1, 0, 5, 21_000), 0, 0).unwrap();
        p.insert(meta(2, 0, 3, 21_000), 0, 0).unwrap();
        p.insert(meta(3, 0, 7, 21_000), 0, 0).unwrap();
        // Too cheap to displace anyone (3 is the floor; ties bounce).
        let err = p.insert(meta(4, 0, 3, 21_000), 0, 0).unwrap_err();
        assert_eq!(
            err,
            PoolError::Full {
                must_exceed: U256::from_u64(3)
            }
        );
        // Rich enough: sender 2's tx (cheapest) is evicted.
        let got = p.insert(meta(4, 0, 4, 21_000), 0, 0).unwrap();
        assert_eq!(got, Admitted::EvictedOther(hash(2, 3)));
        assert_eq!(p.len(), 3);
        assert_eq!(p.drain_evicted(), vec![hash(2, 3)]);
        assert!(!p.contains(hash(2, 3)));
    }

    #[test]
    fn eviction_takes_queue_tails_never_creates_gaps() {
        let mut p = pool(3);
        // Sender 1 queues nonces 0..=1 at equal price; the *tail* (1)
        // must be the victim, keeping the queue contiguous.
        p.insert(meta(1, 0, 5, 21_000), 0, 0).unwrap();
        p.insert(meta(1, 1, 5, 21_000), 0, 0).unwrap();
        p.insert(meta(2, 0, 9, 21_000), 0, 0).unwrap();
        p.insert(meta(3, 0, 6, 21_000), 0, 0).unwrap();
        assert_eq!(p.len(), 3);
        let evicted = p.drain_evicted();
        assert_eq!(evicted, vec![hash(1, 1005)], "the nonce-1 tail went");
        let packed = p.pack(1_000_000, |_| 0);
        assert_eq!(packed.len(), 3, "no gap: everything remaining packs");
    }

    #[test]
    fn prune_drops_stale_nonces() {
        let mut p = pool(16);
        p.insert(meta(1, 0, 5, 21_000), 0, 0).unwrap();
        p.insert(meta(1, 1, 5, 21_000), 0, 0).unwrap();
        p.insert(meta(2, 0, 5, 21_000), 0, 0).unwrap();
        // Sender 1's account nonce advanced to 1 behind the pool's back.
        p.prune(|a| if a == addr(1) { 1 } else { 0 });
        assert_eq!(p.len(), 2);
        assert_eq!(p.drain_evicted(), vec![hash(1, 5)]);
        assert_eq!(p.next_nonce(addr(1), 1), 2);
    }

    #[test]
    fn next_nonce_tracks_the_contiguous_run() {
        let mut p = pool(16);
        assert_eq!(p.next_nonce(addr(1), 7), 7);
        p.insert(meta(1, 7, 5, 21_000), 0, 0).unwrap();
        p.insert(meta(1, 8, 5, 21_000), 0, 0).unwrap();
        p.insert(meta(1, 10, 5, 21_000), 0, 0).unwrap(); // gap at 9
        assert_eq!(p.next_nonce(addr(1), 7), 9, "stops at the gap");
    }
}
