//! A deterministic N-node network: gossip, partitions, fork choice and
//! reorg-safe sessions.
//!
//! [`Network`] owns N independent [`Testnet`] nodes that share *nothing*
//! but the wire: blocks and pooled transactions travel between them as
//! canonical RLP frames over the in-process Whisper bus, each node's
//! inbox namespaced under [`Topic::node_scoped`] so the network layer
//! alone decides what crosses between nodes — which is what makes
//! injected partitions enforceable. Every node derives every identity
//! locally (hashes recomputed; a sender is recovered once per node and
//! then looked up under the signature-committing transaction hash) and
//! replays every imported block against its own state, so a byzantine
//! frame is rejected by construction, not by trust.
//!
//! Faults come from the seeded [`LinkFaults`] stream (site 4 of the
//! [`FaultPlan`]): whole-network partitions that cut the node set in two
//! for a bounded number of rounds, and per-frame delivery delays. Both
//! sides of a cut keep mining — competing miners are elected per round,
//! one per partition side — so healing produces genuine forks that the
//! longest-chain rule (height first, smaller hash as the tiebreak)
//! resolves into one canonical chain on every node, with
//! [`Testnet::import_block`] rolling back and replaying via per-block
//! undo layers.
//!
//! [`NetworkScheduler`] runs protocol sessions *on top of* that chaos:
//! each session is homed on one node, talks to it through a
//! [`NodePort`] (or, stateless, a [`LightPort`]), and survives reorgs
//! because verified reads re-prove against the current head and
//! orphaned transactions are detected
//! ([`ChainReader::tx_known`](crate::session::ChainReader::tx_known))
//! and resubmitted — graceful degradation, still bounded by the
//! protocol's own deadlines. A 1-node network is the single-chain case:
//! no links, no forks, the same scheduler.
//!
//! Determinism: node stepping, frame delivery (sorted by `(deliver_at,
//! seq)`), miner election (`round % n`), fault draws and clock sync are
//! all fixed-order, so two runs from the same specs and seed produce
//! bit-identical chains on every node.

use crate::faults::{ChainFaults, FaultPlan, LightFaults, LinkFaults, Partition, WhisperFaults};
use crate::protocol::ProtocolError;
use crate::session::spec::{build_session, ContractCache};
use crate::session::{
    stage_bucket, BusPort, ChainAccess, LightPort, LightStats, NodePort, QueuedTx, Session,
    SessionCtx, SessionReport, SessionSpec, StepOutcome,
};
use crate::whisper::{Topic, Whisper};
use sc_chain::{
    Block, ChainConfig, HeaderClient, ImportOutcome, PoolConfig, SignedTransaction, Testnet,
    TxError,
};
use sc_primitives::{ether, Address, H256, U256};
use std::any::Any;
use std::collections::HashMap;

/// Rounds before a network run declares itself stalled and panics with
/// a state dump. Every round makes progress (a frame delivered, a block
/// mined, a session stepped, or a clock jump), so even heavily
/// partitioned runs finish in a few thousand.
const MAX_ROUNDS: u64 = 2_000_000;

/// Rounds a heal must stick before the next cut may start — long
/// enough for the queued cross-cut frames to deliver and the reorg to
/// resolve.
const FAULTS_COOLDOWN: u64 = 8;

/// The reader address node `i` polls its bus inbox with, and the sender
/// attribution on its outbound frames. Purely diagnostic — frames are
/// self-verifying — but keeps per-node bus cursors separate.
fn node_addr(i: usize) -> Address {
    let mut b = [0xeeu8; 20];
    b[18] = (i >> 8) as u8;
    b[19] = i as u8;
    Address(b)
}

/// One queued gossip frame: who sent what to whom, and the earliest
/// round it may be posted into the receiver's inbox.
struct Frame {
    deliver_at: u64,
    seq: u64,
    from: usize,
    to: usize,
    /// `true` for a block frame, `false` for a transaction frame.
    block: bool,
    bytes: Vec<u8>,
}

/// Aggregate statistics of one network run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Blocks sealed across all miners (including blocks later orphaned).
    pub blocks_sealed: u64,
    /// Gossip frames queued onto links.
    pub frames_sent: u64,
    /// Gossip frames delivered into inboxes.
    pub frames_delivered: u64,
    /// Imports that extended a node's canonical chain in place.
    pub imports_extended: u64,
    /// Imports parked as side blocks (fork building or parent missing).
    pub imports_side: u64,
    /// Imports the receiver already had (flood dedup).
    pub imports_known: u64,
    /// Imports rejected as invalid (tampered or unreplayable frames).
    pub imports_rejected: u64,
    /// Reorgs executed (a node switched to a heavier fork).
    pub reorgs: u64,
    /// Deepest single reorg (blocks rolled back).
    pub max_reorg_depth: u64,
    /// Transactions orphaned by reorgs and resubmitted to the pool.
    pub orphans_resubmitted: u64,
    /// Partitions injected by the fault schedule (or forced by tests).
    pub partitions: u64,
}

/// N gossiping chain nodes under one seeded link-fault schedule.
///
/// The network owns the nodes, the bus and the frame queue;
/// [`Network::round`] advances everything one deterministic step. Use it
/// directly for chain-only experiments (benchmarks, reorg tests) or
/// through [`NetworkScheduler`] to run protocol sessions on top.
pub struct Network {
    nodes: Vec<Testnet>,
    bus: Whisper,
    faults: LinkFaults,
    frames: Vec<Frame>,
    partition: Option<Partition>,
    /// No new partition is drawn before this round — a heal must stick
    /// long enough for the reorg to resolve before the next cut.
    cooldown_until: u64,
    /// Stops drawing new partitions (set once the workload settles so
    /// the network can converge).
    quiescing: bool,
    round: u64,
    seq: u64,
    /// Per node: set when a seal packed nothing despite a non-empty
    /// pool (unminable remainder); cleared on any pool change. Stops a
    /// stuck pool from sealing empty blocks forever.
    mine_blocked: Vec<bool>,
    stats: NetStats,
}

impl Network {
    /// Builds `n` nodes with identical genesis (same [`sc_chain::ChainConfig`],
    /// same pool configuration) under the link-fault schedule of `plan`.
    /// `genesis_funding` is every node's genesis allocation — the only
    /// sound place to fund wallets in a multi-node world, because an
    /// out-of-band mint on one node would break replay verification of
    /// its blocks everywhere else.
    pub fn new(
        n: usize,
        plan: &FaultPlan,
        pool: PoolConfig,
        genesis_funding: &[(Address, U256)],
    ) -> Network {
        assert!(n >= 1, "a network needs at least one node");
        let config = ChainConfig {
            pool,
            ..ChainConfig::default()
        };
        let nodes = (0..n)
            .map(|_| Testnet::with_genesis(config.clone(), genesis_funding))
            .collect();
        Network {
            nodes,
            bus: Whisper::new(),
            faults: LinkFaults::new(plan),
            frames: Vec::new(),
            partition: None,
            cooldown_until: 0,
            quiescing: false,
            round: 0,
            seq: 0,
            mine_blocked: vec![false; n],
            stats: NetStats::default(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a zero-node network (never constructed; for clippy).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to node `i`'s chain (invariant checks, assertions).
    pub fn node(&self, i: usize) -> &Testnet {
        &self.nodes[i]
    }

    /// Mutable access to node `i`'s chain (test setup: submitting
    /// transactions directly to one node's pool).
    pub fn node_mut(&mut self, i: usize) -> &mut Testnet {
        self.mine_blocked[i] = false;
        &mut self.nodes[i]
    }

    /// The shared bus, read-only: gossip inboxes and every session's
    /// whisper topics (session `id` homed on node `h` signs on
    /// `Topic::node_session(h, id, "signed-copy")`).
    pub fn bus(&self) -> &Whisper {
        &self.bus
    }

    /// Current round number.
    pub fn round_number(&self) -> u64 {
        self.round
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Head hashes of every node, in node order.
    pub fn heads(&self) -> Vec<H256> {
        self.nodes.iter().map(|n| n.head().hash).collect()
    }

    /// True when every node agrees on one canonical head.
    pub fn converged(&self) -> bool {
        self.nodes
            .windows(2)
            .all(|w| w[0].head().hash == w[1].head().hash)
    }

    /// True while gossip frames are still in flight.
    pub fn frames_in_flight(&self) -> bool {
        !self.frames.is_empty()
    }

    /// The partition currently cutting the network, if any.
    pub fn active_partition(&self) -> Option<&Partition> {
        self.partition.as_ref()
    }

    /// Stops drawing new partitions from the fault schedule (frames in
    /// flight and the active partition still play out). Called by the
    /// scheduler once every session settled, so the network converges
    /// instead of forking forever.
    pub fn quiesce(&mut self) {
        self.quiescing = true;
    }

    /// Forces a partition for `rounds` rounds, regardless of the fault
    /// schedule: `side_a` on one side, everyone else on the other.
    /// Deterministic-by-construction hook for reorg regression tests and
    /// convergence benchmarks; panics on a degenerate cut (an empty
    /// side, an index that names no node, or a node listed twice).
    pub fn force_partition(&mut self, side_a: Vec<usize>, rounds: u64) {
        let n = self.nodes.len();
        assert!(
            !side_a.is_empty() && side_a.len() < n,
            "a partition needs two non-empty sides"
        );
        assert!(
            side_a.iter().all(|&i| i < n),
            "partition side {side_a:?} names a node outside 0..{n}"
        );
        assert!(
            side_a
                .iter()
                .enumerate()
                .all(|(k, i)| !side_a[..k].contains(i)),
            "partition side {side_a:?} lists a node twice"
        );
        self.stats.partitions += 1;
        self.partition = Some(Partition {
            side_a,
            heal_at: self.round + rounds,
        });
    }

    /// True while `a` and `b` are on opposite sides of the active cut.
    fn cut(&self, a: usize, b: usize) -> bool {
        match &self.partition {
            Some(p) if self.round < p.heal_at => p.side_a.contains(&a) != p.side_a.contains(&b),
            _ => false,
        }
    }

    /// Queues `bytes` from `from` to every other node, applying the
    /// link-fault schedule: a per-frame injected delay, and a hold until
    /// the heal round if the link is currently cut (gossip is queued at
    /// the cut, not lost — healing replays both sides' history).
    fn broadcast(&mut self, from: usize, block: bool, bytes: Vec<u8>) {
        for to in 0..self.nodes.len() {
            if to == from {
                continue;
            }
            let mut deliver_at = self.round + 1 + self.faults.link_delay();
            if self.cut(from, to) {
                let heal = self.partition.as_ref().map_or(0, |p| p.heal_at);
                deliver_at = deliver_at.max(heal);
            }
            self.seq += 1;
            self.stats.frames_sent += 1;
            self.frames.push(Frame {
                deliver_at,
                seq: self.seq,
                from,
                to,
                block,
                bytes: bytes.clone(),
            });
        }
    }

    /// Manages the partition lifecycle for this round: heals an expired
    /// cut (starting the cooldown) and rolls for a new one when allowed.
    fn partition_step(&mut self) {
        if let Some(p) = &self.partition {
            if self.round >= p.heal_at {
                self.cooldown_until = self.round + FAULTS_COOLDOWN;
                self.partition = None;
            }
        }
        if self.partition.is_none() && !self.quiescing && self.round >= self.cooldown_until {
            if let Some(p) = self.faults.maybe_partition(self.round, self.nodes.len()) {
                self.stats.partitions += 1;
                self.partition = Some(p);
            }
        }
    }

    /// Posts every frame whose delivery round arrived into its
    /// receiver's bus inbox, in `(deliver_at, seq)` order. A frame whose
    /// link got cut again since it was queued is re-held until the new
    /// heal round.
    fn deliver_due(&mut self) {
        let round = self.round;
        let mut due: Vec<Frame> = Vec::new();
        let mut rest: Vec<Frame> = Vec::new();
        for f in self.frames.drain(..) {
            if f.deliver_at <= round {
                due.push(f);
            } else {
                rest.push(f);
            }
        }
        self.frames = rest;
        due.sort_by_key(|f| (f.deliver_at, f.seq));
        for mut f in due {
            if self.cut(f.from, f.to) {
                f.deliver_at = self.partition.as_ref().map_or(round + 1, |p| p.heal_at);
                self.frames.push(f);
                continue;
            }
            let topic = if f.block {
                Topic::node_scoped(f.to, "blocks")
            } else {
                Topic::node_scoped(f.to, "txs")
            };
            self.stats.frames_delivered += 1;
            self.bus.post(node_addr(f.from), &topic, f.bytes);
        }
    }

    /// Drains every node's bus inbox: decodes and imports gossiped
    /// blocks (re-flooding head-improving ones so late joiners catch up
    /// even off the direct path), resubmits transactions orphaned by a
    /// reorg, and admits gossiped transactions into the local pool.
    /// Invalid frames are counted and dropped — a byzantine peer can
    /// waste bandwidth, never corrupt state.
    fn process_inboxes(&mut self) {
        let n = self.nodes.len();
        for i in 0..n {
            let me = node_addr(i);
            let blocks = self.bus.poll(me, &Topic::node_scoped(i, "blocks"));
            for env in blocks {
                let block = match Block::decode(&env.payload) {
                    Ok(b) => b,
                    Err(_) => {
                        self.stats.imports_rejected += 1;
                        continue;
                    }
                };
                self.import_on(i, block, env.payload);
            }
            let txs = self.bus.poll(me, &Topic::node_scoped(i, "txs"));
            for env in txs {
                let tx = match SignedTransaction::decode(&env.payload) {
                    Ok(tx) => tx,
                    Err(_) => continue,
                };
                // Admission errors are expected here: the tx may already
                // be mined locally, stale after a reorg, or outbid. The
                // origin node still holds it; rejection is not loss.
                if self.nodes[i].submit(tx).is_ok() {
                    self.mine_blocked[i] = false;
                }
            }
        }
    }

    /// Imports one block on node `i`, updating stats, resubmitting
    /// reorg orphans and re-flooding the block when it improved the
    /// node's head. `bytes` is the frame the block arrived in: the
    /// decoder accepts only canonical RLP, so they are exactly what
    /// `block.encode()` would produce.
    fn import_on(&mut self, i: usize, block: Block, bytes: Vec<u8>) {
        match self.nodes[i].import_block(block) {
            Ok(ImportOutcome::AlreadyKnown) => self.stats.imports_known += 1,
            Ok(ImportOutcome::Side) => self.stats.imports_side += 1,
            Ok(ImportOutcome::Extended) => {
                self.stats.imports_extended += 1;
                self.mine_blocked[i] = false;
                self.broadcast(i, true, bytes);
            }
            Ok(ImportOutcome::Reorged {
                reverted,
                orphaned_txs,
                ..
            }) => {
                self.stats.reorgs += 1;
                self.stats.max_reorg_depth = self.stats.max_reorg_depth.max(reverted);
                self.mine_blocked[i] = false;
                if !orphaned_txs.is_empty() {
                    self.stats.orphans_resubmitted += orphaned_txs.len() as u64;
                    // Back into the fee market; errors (already mined on
                    // the new branch, stale nonce) mean nothing to redo.
                    for result in self.nodes[i].submit_batch(orphaned_txs) {
                        let _ = result;
                    }
                }
                self.broadcast(i, true, bytes);
            }
            Err(_) => self.stats.imports_rejected += 1,
        }
    }

    /// Elects this round's miners: the primary rotates round-robin, and
    /// while a partition is active the lowest-indexed node on the *other*
    /// side mines too, so both halves build competing history and the
    /// heal exercises a real reorg.
    fn elect_miners(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let primary = (self.round % n as u64) as usize;
        let mut miners = vec![primary];
        if let Some(p) = &self.partition {
            if self.round < p.heal_at {
                let primary_in_a = p.side_a.contains(&primary);
                if let Some(secondary) = (0..n).find(|i| p.side_a.contains(i) != primary_in_a) {
                    miners.push(secondary);
                }
            }
        }
        miners
    }

    /// Mines on every elected node whose pool has work, broadcasting
    /// each sealed block. While a partition is active the elected miners
    /// seal even with an empty pool — competing (possibly empty) blocks
    /// on both sides are exactly what makes healing a real fork-choice
    /// event instead of a no-op. A seal that packs nothing despite a
    /// non-empty pool marks the pool unminable (stale remainder) until
    /// it changes, so the chain never grows empty blocks forever.
    fn mine(&mut self) {
        let forking = matches!(&self.partition, Some(p) if self.round < p.heal_at);
        for i in self.elect_miners() {
            let has_work = self.nodes[i].pending_count() > 0 && !self.mine_blocked[i];
            if !has_work && !forking {
                continue;
            }
            if forking && !has_work {
                // Two sides sealing empty blocks from the same parent at
                // the same timestamp would seal *identical* blocks — no
                // fork at all. A per-miner clock skew keeps competing
                // seals distinct (the end-of-round sync re-aligns).
                self.nodes[i].advance_time(1 + i as u64);
            }
            let block = self.nodes[i].mine_block();
            self.stats.blocks_sealed += 1;
            if block.transactions.is_empty() {
                self.nodes[i].prune_pool();
                if self.nodes[i].pending_count() > 0 {
                    self.mine_blocked[i] = true;
                }
            }
            self.broadcast(i, true, block.encode());
        }
    }

    /// Synchronizes every node's clock to the network maximum. Chain
    /// clocks move when blocks seal and when imports adopt a branch's
    /// timestamps; pulling every node up to the max keeps session
    /// deadlines monotonic across the whole network.
    fn sync_clocks(&mut self) {
        let max = self.nodes.iter().map(|n| n.now()).max().unwrap_or(0);
        for node in &mut self.nodes {
            let now = node.now();
            if max > now {
                node.advance_time(max - now);
            }
        }
    }

    /// One full network round without sessions — the whole loop for
    /// chain-only benchmarks.
    pub fn round(&mut self) {
        self.round_with(|_| {});
    }

    /// The one round order: counters, partition lifecycle, frame
    /// delivery, inbox processing, `between` (where
    /// `NetworkScheduler::tick` steps its sessions), mining, clock sync.
    fn round_with(&mut self, between: impl FnOnce(&mut Network)) {
        self.round += 1;
        self.stats.rounds += 1;
        self.partition_step();
        self.deliver_due();
        self.process_inboxes();
        between(self);
        self.mine();
        self.sync_clocks();
    }
}

/// Where one networked session slot stands between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetSlotState {
    Runnable,
    Waiting(u64),
    Pending,
    Done,
    Failed,
}

/// One session homed on a node, plus its private fault state. In light
/// mode the slot additionally carries its own [`HeaderClient`] — the
/// session's entire view of the chain — plus the light-fault schedule
/// and witness-traffic counters.
struct NetSlot {
    session: Box<dyn Session>,
    kind: &'static str,
    home: usize,
    chain_faults: ChainFaults,
    whisper_faults: WhisperFaults,
    /// `Some` in light mode: the session steps through a [`LightPort`]
    /// wrapping this client, with the home node demoted to an untrusted
    /// witness relay.
    client: Option<HeaderClient>,
    light_faults: LightFaults,
    light_stats: LightStats,
    state: NetSlotState,
    error: Option<ProtocolError>,
}

impl NetSlot {
    /// A runnable slot homed on node `home`, its fault schedules seeded
    /// from `plan`.
    fn new(
        session: Box<dyn Session>,
        kind: &'static str,
        home: usize,
        plan: &FaultPlan,
        client: Option<HeaderClient>,
    ) -> NetSlot {
        NetSlot {
            session,
            kind,
            home,
            chain_faults: ChainFaults::new(plan),
            whisper_faults: WhisperFaults::new(plan),
            client,
            light_faults: LightFaults::new(plan),
            light_stats: LightStats::default(),
            state: NetSlotState::Runnable,
            error: None,
        }
    }
}

/// Drives protocol sessions over a gossiping [`Network`] of one or more
/// nodes.
///
/// Each session is homed on node `id % nodes` and reaches the chain
/// through a [`NodePort`] (self-sign, queue, flush into `submit_batch`)
/// against a head that can move backwards under reorgs. Wallets are
/// pre-funded at genesis on every node (1000 ether per participant) so
/// no session ever mints out-of-band, and no wallet sits in two
/// sessions; whisper traffic is namespaced per node *and* per session
/// via [`Topic::node_session`].
pub struct NetworkScheduler {
    network: Network,
    slots: Vec<NetSlot>,
    rejections: HashMap<H256, TxError>,
    pool_evicted: u64,
}

impl NetworkScheduler {
    /// Builds `nodes` chain nodes and homes one session per spec on
    /// them round-robin. `net_fault_seed` seeds the link-fault schedule
    /// (`None` = a quiet network); per-session chain/whisper faults come
    /// from each spec's own `fault_seed`. Panics if two sessions seat
    /// one wallet: they would share its nonce sequence, and genesis
    /// would fund it twice.
    pub fn new(
        specs: Vec<SessionSpec>,
        nodes: usize,
        pool: PoolConfig,
        net_fault_seed: Option<u64>,
    ) -> NetworkScheduler {
        NetworkScheduler::build(specs, nodes, pool, net_fault_seed, false)
    }

    /// Like [`NetworkScheduler::new`], but every session runs
    /// *stateless*: it owns a [`HeaderClient`] seeded with its home
    /// node's genesis header, pulls the headers it is missing from that
    /// node before every read, and reaches the chain through a
    /// [`LightPort`] — every read witness-verified, inclusion confirmed
    /// against `receipts_root`, the home node demoted to an untrusted
    /// relay.
    /// Same specs + same seeds produce reports bit-identical to
    /// [`NetworkScheduler::new`]'s.
    pub fn new_light(
        specs: Vec<SessionSpec>,
        nodes: usize,
        pool: PoolConfig,
        net_fault_seed: Option<u64>,
    ) -> NetworkScheduler {
        NetworkScheduler::build(specs, nodes, pool, net_fault_seed, true)
    }

    fn build(
        specs: Vec<SessionSpec>,
        nodes: usize,
        pool: PoolConfig,
        net_fault_seed: Option<u64>,
        light: bool,
    ) -> NetworkScheduler {
        let link_plan = match net_fault_seed {
            Some(seed) => FaultPlan::from_seed(seed),
            None => FaultPlan::none(),
        };
        let wallets: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(id, s)| s.wallets(id))
            .collect();
        let mut seated = HashMap::new();
        let mut funding = Vec::new();
        for (id, pair) in wallets.iter().enumerate() {
            for w in pair {
                if let Some(prev) = seated.insert(w.address, id) {
                    panic!("sessions {prev} and {id} both seat wallet {}", w.address);
                }
                funding.push((w.address, ether(1000)));
            }
        }
        let network = Network::new(nodes, &link_plan, pool, &funding);
        let mut contracts = ContractCache::default();
        let slots = specs
            .into_iter()
            .zip(wallets)
            .enumerate()
            .map(|(id, (spec, wallets))| {
                let home = id % nodes;
                let (session, kind, seed) = build_session(
                    spec,
                    wallets,
                    Topic::node_session(home, id as u64, "signed-copy"),
                    &mut contracts,
                );
                let plan = match seed {
                    Some(seed) => FaultPlan::from_seed(seed),
                    None => FaultPlan::none(),
                };
                // A light client trusts exactly one thing: its home
                // node's genesis header. Everything after is verified.
                let client = light.then(|| {
                    let genesis = network.nodes[home].block(0).expect("genesis");
                    HeaderClient::new(genesis.header.clone())
                });
                NetSlot::new(session, kind, home, &plan, client)
            })
            .collect();
        NetworkScheduler {
            network,
            slots,
            rejections: HashMap::new(),
            pool_evicted: 0,
        }
    }

    /// Session `id`'s machine, typed: `None` if there is no such slot
    /// or it holds another kind of session.
    pub fn session<S: Session>(&self, id: usize) -> Option<&S> {
        let session: &dyn Any = &*self.slots.get(id)?.session;
        session.downcast_ref()
    }

    /// Session `id`'s chain and whisper fault state (injected-fault
    /// logs, remaining budgets).
    pub fn faults(&self, id: usize) -> (&ChainFaults, &WhisperFaults) {
        (&self.slots[id].chain_faults, &self.slots[id].whisper_faults)
    }

    /// The underlying network (invariant checks, stats, head
    /// assertions after a run).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable network access, for tests that force partitions or
    /// inject frames around a scheduler run.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Fleet-wide witness-traffic totals (all zero outside light mode).
    pub fn light_stats(&self) -> LightStats {
        let mut total = LightStats::default();
        for slot in &self.slots {
            total.absorb(&slot.light_stats);
        }
        total
    }

    /// Per-slot witness-traffic counters, in slot order.
    pub fn light_stats_by_session(&self) -> Vec<LightStats> {
        self.slots.iter().map(|s| s.light_stats).collect()
    }

    /// Transactions displaced from any node's pool and routed back for
    /// re-pricing.
    pub fn pool_evicted(&self) -> u64 {
        self.pool_evicted
    }

    /// True once every slot reached a terminal state.
    fn all_settled(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.state, NetSlotState::Done | NetSlotState::Failed))
    }

    /// The soonest wake target among waiting slots.
    fn earliest_wait(&self) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|s| match s.state {
                NetSlotState::Waiting(t) => Some(t),
                _ => None,
            })
            .min()
    }

    /// One scheduler round: the network's round with the sessions
    /// stepped between inbox processing and mining (`step_sessions`).
    /// When the whole network is then idle (no frames, no pooled work,
    /// every session asleep), the clocks jump to the earliest wake
    /// target so hour-long contract windows cost nothing.
    fn tick(&mut self) {
        let NetworkScheduler {
            network,
            slots,
            rejections,
            pool_evicted,
        } = self;
        network.round_with(|network| {
            Self::step_sessions(network, slots, rejections, pool_evicted);
        });

        let pooled: usize = self.network.nodes.iter().map(|n| n.pending_count()).sum();
        if pooled == 0 && self.network.frames.is_empty() {
            // Pending slots can only be waiting on a routed rejection or
            // an orphaned transaction — release them to observe it.
            let mut released = false;
            for slot in &mut self.slots {
                if slot.state == NetSlotState::Pending {
                    slot.state = NetSlotState::Runnable;
                    released = true;
                }
            }
            if !released {
                // Everyone is asleep: jump every clock to the earliest
                // wake target.
                if let Some(target) = self.earliest_wait() {
                    for node in &mut self.network.nodes {
                        let now = node.now();
                        if target > now {
                            node.advance_time(target - now);
                        }
                    }
                }
            }
        }
    }

    /// Wakes slots whose wait is over, steps every runnable slot, then
    /// flushes per-node outboxes, routing admission errors back and
    /// gossiping what was admitted.
    fn step_sessions(
        network: &mut Network,
        slots: &mut [NetSlot],
        rejections: &mut HashMap<H256, TxError>,
        pool_evicted: &mut u64,
    ) {
        let now_by_node: Vec<u64> = network.nodes.iter().map(|n| n.now()).collect();
        for slot in slots.iter_mut() {
            if matches!(slot.state, NetSlotState::Waiting(t) if now_by_node[slot.home] >= t) {
                slot.state = NetSlotState::Runnable;
            }
        }

        // Step every runnable slot in fixed index order, each against
        // its home node, queueing into that node's round outbox.
        let n = network.nodes.len();
        let mut outboxes: Vec<Vec<QueuedTx>> = vec![Vec::new(); n];
        {
            let Network { nodes, bus, .. } = network;
            for slot in slots.iter_mut() {
                while slot.state == NetSlotState::Runnable {
                    // Full-node slots step through a `NodePort` against
                    // their home chain; light slots step through a
                    // `LightPort` wrapping their own header client, with
                    // that same home chain demoted to an untrusted
                    // witness relay. Both are `dyn ChainAccess`, so the
                    // session cannot tell which it got.
                    let (mut light, mut full);
                    let chain: &mut dyn ChainAccess = match slot.client.as_mut() {
                        Some(client) => {
                            light = LightPort {
                                client,
                                relay: &mut nodes[slot.home],
                                faults: &mut slot.chain_faults,
                                light_faults: &mut slot.light_faults,
                                outbox: &mut outboxes[slot.home],
                                rejections,
                                stats: &mut slot.light_stats,
                            };
                            &mut light
                        }
                        None => {
                            full = NodePort {
                                net: &mut nodes[slot.home],
                                faults: &mut slot.chain_faults,
                                outbox: &mut outboxes[slot.home],
                                rejections,
                            };
                            &mut full
                        }
                    };
                    let step = slot.session.step(&mut SessionCtx {
                        chain,
                        bus: BusPort {
                            bus,
                            faults: &mut slot.whisper_faults,
                        },
                    });
                    match step {
                        Ok(StepOutcome::Progress) => {}
                        Ok(StepOutcome::Pending) => slot.state = NetSlotState::Pending,
                        Ok(StepOutcome::WaitUntil(t)) => slot.state = NetSlotState::Waiting(t),
                        Ok(StepOutcome::Done) => slot.state = NetSlotState::Done,
                        Err(e) => {
                            slot.state = NetSlotState::Failed;
                            slot.error = Some(e);
                        }
                    }
                }
            }
        }

        // Flush each node's outbox into its own pool, route admission
        // errors back by hash, and gossip what was admitted.
        for (i, outbox) in outboxes.into_iter().enumerate() {
            if outbox.is_empty() {
                continue;
            }
            let (hashes, txs): (Vec<H256>, Vec<SignedTransaction>) =
                outbox.into_iter().map(|q| (q.hash, q.tx)).unzip();
            let encoded: Vec<Vec<u8>> = txs.iter().map(|tx| tx.encode()).collect();
            let results = network.nodes[i].submit_batch(txs);
            for ((hash, bytes), result) in hashes.into_iter().zip(encoded).zip(results) {
                match result {
                    Ok(_) => {
                        network.mine_blocked[i] = false;
                        network.broadcast(i, false, bytes);
                    }
                    Err(e) => {
                        rejections.insert(hash, e);
                    }
                }
            }
            for hash in network.nodes[i].drain_evicted() {
                rejections.insert(hash, TxError::Evicted);
                *pool_evicted += 1;
            }
        }
    }

    /// Drives every session to completion *and* the network to one
    /// canonical head, then returns the session reports in slot order.
    /// Once the last session settles the fault schedule stops cutting
    /// new partitions, so convergence is guaranteed; panics (with a
    /// state dump) only if the round budget runs out — a liveness bug,
    /// never a legitimate schedule.
    pub fn run(&mut self) -> Vec<SessionReport> {
        loop {
            if self.all_settled() {
                self.network.quiesce();
                if self.network.converged() && self.network.frames.is_empty() {
                    break;
                }
            }
            self.tick();
            assert!(
                self.network.round < MAX_ROUNDS,
                "network scheduler stalled after {} rounds; slot states: {:?}; heads: {:?}",
                self.network.round,
                self.slots.iter().map(|s| s.state).collect::<Vec<_>>(),
                self.network.heads()
            );
        }
        self.slots
            .iter()
            .enumerate()
            .map(|(id, slot)| {
                let txs = slot.session.txs();
                let mut stage_gas = [0u64; 4];
                for t in txs {
                    stage_gas[stage_bucket(&t.label)] += t.gas_used;
                }
                SessionReport {
                    id,
                    kind: slot.kind,
                    outcome: slot.session.outcome_label(),
                    error: slot.error.as_ref().map(ProtocolError::to_string),
                    total_gas: stage_gas.iter().sum(),
                    stage_gas,
                    txs: txs.iter().map(|t| (t.label.clone(), t.success)).collect(),
                    messages_posted: slot.session.messages_posted(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::{check_conservation, check_state_commitments};
    use crate::session::BettingSpec;

    fn betting_specs(n: usize) -> Vec<SessionSpec> {
        (0..n)
            .map(|_| SessionSpec::Betting(BettingSpec::default()))
            .collect()
    }

    #[test]
    fn sessions_complete_and_nodes_converge_on_a_quiet_network() {
        let mut sched = NetworkScheduler::new(betting_specs(4), 3, PoolConfig::default(), None);
        let reports = sched.run();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(
                r.outcome.is_some(),
                "session {} failed: {:?}",
                r.id,
                r.error
            );
        }
        let net = sched.network();
        assert!(net.converged(), "heads diverged: {:?}", net.heads());
        assert!(net.node(0).head().number > 0, "no blocks were mined");
        for i in 0..net.len() {
            check_conservation(net.node(i)).unwrap();
            check_state_commitments(net.node(i)).unwrap();
        }
        // Gossip actually moved blocks: every node knows every receipt.
        assert!(net.stats().imports_extended + net.stats().reorgs > 0);
    }

    #[test]
    fn forced_partition_forks_and_heals_into_one_chain() {
        for nodes in [4, 8] {
            let mut sched =
                NetworkScheduler::new(betting_specs(4), nodes, PoolConfig::default(), None);
            sched.network.force_partition((0..nodes / 2).collect(), 6);
            // Fork choice is a pure function of the round protocol: the
            // queued cross-cut frames land at the heal and every node
            // must be on one head within two rounds of it.
            while sched.network.active_partition().is_some() {
                sched.tick();
            }
            let healed = sched.network.round_number();
            while !sched.network.converged() {
                sched.tick();
            }
            let rounds = sched.network.round_number() - healed;
            assert!(rounds <= 2, "{nodes} nodes: {rounds} rounds to one head");

            let reports = sched.run();
            let net = sched.network();
            assert!(net.converged(), "heads diverged: {:?}", net.heads());
            for r in &reports {
                assert!(
                    r.outcome.is_some(),
                    "session {} failed: {:?}",
                    r.id,
                    r.error
                );
            }
            for i in 0..net.len() {
                check_conservation(net.node(i)).unwrap();
                check_state_commitments(net.node(i)).unwrap();
            }
            // Both sides mined during the cut, so healing must have forced
            // at least one node through a reorg — and a two-sided cut
            // orphans at most the losing side's blocks.
            let stats = net.stats();
            assert!(stats.reorgs > 0, "partition healed without a reorg");
            let orphaned = stats.blocks_sealed - net.node(0).head().number;
            assert!(
                orphaned * 10 <= stats.blocks_sealed * 6,
                "{nodes} nodes: {orphaned} of {} sealed blocks orphaned",
                stats.blocks_sealed
            );
        }
    }

    #[test]
    #[should_panic(expected = "names a node outside")]
    fn forced_partition_rejects_an_index_that_names_no_node() {
        let mut net = Network::new(4, &FaultPlan::none(), PoolConfig::default(), &[]);
        net.force_partition(vec![5], 40);
    }

    #[test]
    #[should_panic(expected = "lists a node twice")]
    fn forced_partition_rejects_a_repeated_index() {
        let mut net = Network::new(4, &FaultPlan::none(), PoolConfig::default(), &[]);
        net.force_partition(vec![1, 1, 1], 40);
    }

    #[test]
    #[should_panic(expected = "sessions 0 and 1 both seat wallet")]
    fn a_wallet_seated_in_two_sessions_is_refused() {
        let seated = |seats| {
            SessionSpec::Betting(BettingSpec {
                seats: Some(seats),
                ..BettingSpec::default()
            })
        };
        let specs = vec![seated(["alice", "bob"]), seated(["carol", "alice"])];
        NetworkScheduler::new(specs, 1, PoolConfig::default(), None);
    }

    #[test]
    fn runs_are_bit_identical_per_seed() {
        let run = || {
            let mut sched = NetworkScheduler::new(
                betting_specs(3),
                3,
                PoolConfig::default(),
                Some(0x5EED_0001),
            );
            let reports = sched.run();
            let outcomes: Vec<_> = reports.iter().map(|r| r.outcome).collect();
            (sched.network().heads(), sched.network().stats(), outcomes)
        };
        let (heads_a, stats_a, outcomes_a) = run();
        let (heads_b, stats_b, outcomes_b) = run();
        assert_eq!(heads_a, heads_b);
        assert_eq!(stats_a, stats_b);
        assert_eq!(outcomes_a, outcomes_b);
    }

    #[test]
    fn byzantine_frames_waste_bandwidth_but_never_corrupt_state() {
        let mut sched = NetworkScheduler::new(betting_specs(2), 2, PoolConfig::default(), None);
        // Garbage and a structurally-valid-but-unsigned frame into both
        // inboxes before the run.
        for i in 0..2 {
            sched.network.bus.post(
                node_addr(9),
                &Topic::node_scoped(i, "blocks"),
                vec![0xff; 40],
            );
            sched
                .network
                .bus
                .post(node_addr(9), &Topic::node_scoped(i, "txs"), vec![0xc0]);
        }
        let reports = sched.run();
        for r in &reports {
            assert!(
                r.outcome.is_some(),
                "session {} failed: {:?}",
                r.id,
                r.error
            );
        }
        let net = sched.network();
        assert!(net.converged());
        assert!(net.stats().imports_rejected >= 2);
        for i in 0..net.len() {
            check_conservation(net.node(i)).unwrap();
            check_state_commitments(net.node(i)).unwrap();
        }
    }
}
