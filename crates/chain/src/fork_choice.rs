//! The one fork choice, shared by the full node (which stores blocks)
//! and the light client (which stores headers): a store holding the
//! canonical chain and every side item, which names the branch to be on.
//! Adopting it stays with the caller — a node rolls back and replays, a
//! light client truncates and extends.

use crate::block::Header;
use sc_primitives::H256;
use std::collections::HashMap;

/// [`ChainStore::insert`] refused an item dated at or before a parent
/// the store holds: the clock only moves forward.
pub(crate) struct Backdated;

/// Longest-chain fork choice: the higher item wins, equal heights break
/// toward the smaller hash. (Every block has difficulty 1, so height
/// *is* total difficulty.) The order is total, so both sides of a healed
/// partition pick the same winner whatever order their stores iterate.
fn preferred(item: &Header, over: &Header) -> bool {
    item.number > over.number || (item.number == over.number && item.hash.0 < over.hash.0)
}

/// The canonical chain plus side items, keyed by their headers.
#[derive(Clone, Debug)]
pub(crate) struct ChainStore<T> {
    /// Oldest first: `canon[i]` sits at height `base + i` (a light
    /// client may start from a checkpoint).
    canon: Vec<T>,
    base: u64,
    /// Canonical hash → height.
    index: HashMap<H256, u64>,
    /// Non-canonical items by hash: competing branches, reorg orphans,
    /// and detached items waiting for their parent.
    side: HashMap<H256, T>,
}

impl<T: AsRef<Header>> ChainStore<T> {
    /// A store whose canonical chain is the trusted `root` alone.
    pub(crate) fn new(root: T) -> Self {
        let header = root.as_ref();
        ChainStore {
            base: header.number,
            index: HashMap::from([(header.hash, header.number)]),
            canon: vec![root],
            side: HashMap::new(),
        }
    }

    pub(crate) fn head(&self) -> &T {
        self.canon.last().expect("the root is never popped")
    }

    pub(crate) fn get(&self, number: u64) -> Option<&T> {
        self.canon.get(number.checked_sub(self.base)? as usize)
    }

    pub(crate) fn by_hash(&self, hash: H256) -> Option<&T> {
        self.get(*self.index.get(&hash)?)
    }

    pub(crate) fn side_len(&self) -> usize {
        self.side.len()
    }

    /// The item with `hash`, canonical or side.
    fn held(&self, hash: H256) -> Option<&Header> {
        let item = self.by_hash(hash).or_else(|| self.side.get(&hash));
        item.map(AsRef::as_ref)
    }

    /// Stores an arriving item as a side item; `Ok(false)` if already
    /// held. The insert rule: an item dated at or before a parent the
    /// store holds is refused, and not stored.
    pub(crate) fn insert(&mut self, item: T) -> Result<bool, Backdated> {
        let header = item.as_ref();
        if self.held(header.hash).is_some() {
            return Ok(false);
        }
        let parent = self.held(header.parent_hash);
        if parent.is_some_and(|p| header.timestamp <= p.timestamp) {
            return Err(Backdated);
        }
        self.side.insert(header.hash, item);
        Ok(true)
    }

    /// The height where `tip`'s ancestry, walked through the side items,
    /// meets the canonical chain. `None` while detached, or if a link
    /// skips a height or does not advance the clock (which the insert
    /// rule misses when a child arrives before its parent).
    fn fork_height(&self, tip: &Header) -> Option<u64> {
        let mut cur = tip;
        loop {
            let parent = self.held(cur.parent_hash)?;
            if parent.number + 1 != cur.number || cur.timestamp <= parent.timestamp {
                return None;
            }
            if self.index.contains_key(&parent.hash) {
                return Some(parent.number);
            }
            cur = parent;
        }
    }

    /// The best connected side branch, if fork choice prefers its tip
    /// over the head: the fork height and the branch oldest first.
    /// Candidates are walked by reference; only the winner is cloned.
    pub(crate) fn best_branch(&self) -> Option<(u64, Vec<T>)>
    where
        T: Clone,
    {
        let mut best: Option<(&Header, u64)> = None;
        for tip in self.side.values().map(AsRef::as_ref) {
            let bar = best.map_or(self.head().as_ref(), |(header, _)| header);
            if preferred(tip, bar) {
                if let Some(fork) = self.fork_height(tip) {
                    best = Some((tip, fork));
                }
            }
        }
        let (tip, fork) = best?;
        let mut branch = Vec::with_capacity((tip.number - fork) as usize);
        let mut hash = tip.hash;
        while let Some(item) = self.side.get(&hash) {
            hash = item.as_ref().parent_hash;
            branch.push(item.clone());
        }
        branch.reverse();
        Some((fork, branch))
    }

    /// Makes `item`, a child of the head, the head; it leaves the side
    /// items if it was one.
    pub(crate) fn push(&mut self, item: T) {
        let header = item.as_ref();
        self.side.remove(&header.hash);
        self.index.insert(header.hash, header.number);
        self.canon.push(item);
    }

    /// Takes the head off the canonical chain (`None` at the root) and
    /// does not keep it: see [`ChainStore::park`].
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.canon.len() == 1 {
            return None;
        }
        let item = self.canon.pop()?;
        self.index.remove(&item.as_ref().hash);
        Some(item)
    }

    /// Keeps a popped item as a side item, so a counter-reorg can bring
    /// it back without re-gossip.
    pub(crate) fn park(&mut self, item: T) {
        self.side.insert(item.as_ref().hash, item);
    }

    pub(crate) fn discard(&mut self, hash: H256) {
        self.side.remove(&hash);
    }
}
