//! Deterministic fault injection for the off-chain bus and the chain.
//!
//! Everything here is driven by one `u64` seed: the seed fixes a
//! [`FaultPlan`] (which faults, at what rates, within what budget), and
//! the plan seeds one xorshift stream per injection site. Re-running
//! with the same seed replays the identical fault schedule, message
//! order, and timing — a chaos-suite failure is reproducible from the
//! single printed number.
//!
//! Two properties make the harness compatible with liveness proofs:
//!
//! * **Finite budgets.** Every injected fault consumes from a per-site
//!   budget drawn from the seed (whisper ≤ 24, chain ≤ 12). Once a
//!   budget is spent the site behaves perfectly, so any retry loop
//!   with more attempts than the budget is guaranteed to terminate.
//! * **Bounded time.** Injected mining delays and the drivers' retry
//!   backoffs are capped (≤ [`MAX_INJECTED_SECS`] per fault) so the
//!   worst-case injected wall-clock stays well inside one T1–T3 phase
//!   window; a fault schedule can cost a participant money (a missed
//!   deadline degrades to the refund or dispute path) but can never
//!   wedge a stage.

use crate::whisper::{Envelope, Whisper};
use sc_primitives::Address;

/// Upper bound on the seconds any single injected fault (mining delay)
/// or driver backoff may add to the clock.
pub const MAX_INJECTED_SECS: u64 = 120;

/// `xorshift64*`-style PRNG: tiny, seedable, and good enough to spread
/// fault schedules. The raw seed passes through SplitMix64 first so
/// adjacent seeds (0, 1, 2, …) still produce unrelated streams.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

/// SplitMix64 step: the standard seed-scrambler (also used to derive
/// independent per-site streams from one master seed).
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl XorShift64 {
    /// Seeds the generator (any seed is fine, including 0).
    pub fn new(seed: u64) -> XorShift64 {
        let mut s = seed;
        let scrambled = splitmix64(&mut s);
        XorShift64 {
            // xorshift has a fixed point at 0; SplitMix64 maps exactly
            // one input there, so nudge it.
            state: if scrambled == 0 { 0x1 } else { scrambled },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seed-derived schedule: which faults fire, how often, and the
/// total number allowed at each site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The master seed the plan (and all streams) derive from.
    pub seed: u64,
    /// Per-post chance (‰) a whisper message is silently dropped.
    pub drop_permille: u32,
    /// Per-post chance (‰) a message is delivered twice.
    pub duplicate_permille: u32,
    /// Per-post chance (‰) one payload byte is flipped in transit.
    pub corrupt_permille: u32,
    /// Per-post chance (‰) delivery is held back a few polls.
    pub delay_permille: u32,
    /// Per-poll chance (‰) fresh messages arrive shuffled.
    pub reorder_permille: u32,
    /// Polls a delayed message is held for (1..=4).
    pub max_delay_polls: u32,
    /// Per-submission chance (‰) the node reports a transient failure.
    pub submit_fail_permille: u32,
    /// Per-submission chance (‰) mining is preceded by a clock jump.
    pub mining_delay_permille: u32,
    /// Size of an injected mining delay in seconds (≤ [`MAX_INJECTED_SECS`]).
    pub max_mining_delay_secs: u64,
    /// Total whisper faults allowed before the bus turns perfect.
    pub whisper_fault_budget: u32,
    /// Total chain faults allowed before the node turns perfect.
    pub chain_fault_budget: u32,
    /// Per-submission chance (‰) a transaction's gossip is dropped
    /// before it reaches the pool.
    pub gossip_drop_permille: u32,
    /// Per-submission chance (‰) pool admission is delayed.
    pub admission_delay_permille: u32,
    /// Size of an injected admission delay in seconds
    /// (≤ [`MAX_INJECTED_SECS`]).
    pub max_admission_delay_secs: u64,
    /// Total pool faults allowed before admission turns perfect.
    pub pool_fault_budget: u32,
    /// Per-round chance (‰) a network partition starts (multi-node
    /// runs only).
    pub partition_permille: u32,
    /// Longest a partition may last, in gossip rounds (4..=15 — long
    /// enough to force competing chains, short enough that the reorg
    /// stays within retained undo history).
    pub max_partition_rounds: u64,
    /// Per-message chance (‰) a link holds a gossiped frame back extra
    /// rounds (multi-node runs only).
    pub link_delay_permille: u32,
    /// Longest an injected link delay may hold a frame, in rounds
    /// (1..=3).
    pub max_link_delay_rounds: u64,
    /// Total link faults (partitions + delays) allowed before every
    /// link turns perfect.
    pub link_fault_budget: u32,
    /// Per-fetch chance (‰) a witness requested from the relay is
    /// dropped in transit (light sessions only — the port refetches).
    pub proof_drop_permille: u32,
    /// Total dropped proofs allowed before the relay turns perfect.
    pub light_fault_budget: u32,
}

impl FaultPlan {
    /// The fault-free plan: every site behaves perfectly.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_permille: 0,
            duplicate_permille: 0,
            corrupt_permille: 0,
            delay_permille: 0,
            reorder_permille: 0,
            max_delay_polls: 0,
            submit_fail_permille: 0,
            mining_delay_permille: 0,
            max_mining_delay_secs: 0,
            whisper_fault_budget: 0,
            chain_fault_budget: 0,
            gossip_drop_permille: 0,
            admission_delay_permille: 0,
            max_admission_delay_secs: 0,
            pool_fault_budget: 0,
            partition_permille: 0,
            max_partition_rounds: 0,
            link_delay_permille: 0,
            max_link_delay_rounds: 0,
            link_fault_budget: 0,
            proof_drop_permille: 0,
            light_fault_budget: 0,
        }
    }

    /// Derives a complete fault schedule from one seed. Rates are
    /// aggressive (every site can fire) but budgets are finite and
    /// delays capped, so every driver loop still terminates within its
    /// phase window.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed;
        FaultPlan {
            seed,
            drop_permille: (splitmix64(&mut s) % 301) as u32,
            duplicate_permille: (splitmix64(&mut s) % 201) as u32,
            corrupt_permille: (splitmix64(&mut s) % 201) as u32,
            delay_permille: (splitmix64(&mut s) % 301) as u32,
            reorder_permille: (splitmix64(&mut s) % 401) as u32,
            max_delay_polls: (splitmix64(&mut s) % 4 + 1) as u32,
            submit_fail_permille: (splitmix64(&mut s) % 301) as u32,
            mining_delay_permille: (splitmix64(&mut s) % 301) as u32,
            max_mining_delay_secs: splitmix64(&mut s) % MAX_INJECTED_SECS + 1,
            whisper_fault_budget: (splitmix64(&mut s) % 25) as u32,
            chain_fault_budget: (splitmix64(&mut s) % 13) as u32,
            // Pool faults draw *after* every pre-existing field: the
            // sequential SplitMix64 stream means appending here leaves
            // all earlier seed-derived values — and therefore every
            // pinned chaos-suite outcome — bit-identical.
            gossip_drop_permille: (splitmix64(&mut s) % 201) as u32,
            admission_delay_permille: (splitmix64(&mut s) % 201) as u32,
            max_admission_delay_secs: splitmix64(&mut s) % MAX_INJECTED_SECS + 1,
            pool_fault_budget: (splitmix64(&mut s) % 9) as u32,
            // Link-level faults (multi-node) draw after *every* earlier
            // field — the same append-only contract as the pool block
            // above, so all pinned single-node chaos outcomes replay
            // bit-identically.
            partition_permille: (splitmix64(&mut s) % 81) as u32,
            max_partition_rounds: splitmix64(&mut s) % 12 + 4,
            link_delay_permille: (splitmix64(&mut s) % 151) as u32,
            max_link_delay_rounds: splitmix64(&mut s) % 3 + 1,
            link_fault_budget: (splitmix64(&mut s) % 7) as u32,
            // Light-session faults draw last — the same append-only
            // contract again, so every pinned single-node *and*
            // multi-node chaos outcome replays bit-identically.
            proof_drop_permille: (splitmix64(&mut s) % 201) as u32,
            light_fault_budget: (splitmix64(&mut s) % 9) as u32,
        }
    }

    /// An independent PRNG stream for one injection site.
    fn stream(&self, site: u64) -> XorShift64 {
        XorShift64::new(self.seed ^ site.wrapping_mul(0xa076_1d64_78bd_642f))
    }
}

/// A whisper message held back by a delay fault.
#[derive(Debug, Clone)]
struct DelayedMsg {
    from: Address,
    topic: String,
    payload: Vec<u8>,
    /// Polls of the topic remaining until release.
    remaining_polls: u32,
}

/// The per-session whisper fault state: PRNG stream, budget, held-back
/// messages and the injected-fault log — everything except the bus
/// itself. Operates on a *borrowed* [`Whisper`], so N sessions can each
/// run their own fault schedule against one shared bus.
pub struct WhisperFaults {
    rng: XorShift64,
    plan: FaultPlan,
    budget: u32,
    delayed: Vec<DelayedMsg>,
    injected: Vec<String>,
}

impl WhisperFaults {
    /// Fault state for one bus (or one session's view of a shared bus).
    pub fn new(plan: &FaultPlan) -> WhisperFaults {
        WhisperFaults {
            rng: plan.stream(1),
            plan: plan.clone(),
            budget: plan.whisper_fault_budget,
            delayed: Vec::new(),
            injected: Vec::new(),
        }
    }

    /// Publishes a message through the fault schedule, possibly
    /// injecting one fault. One PRNG draw decides the fault band so
    /// schedules replay exactly.
    pub fn post(&mut self, bus: &mut Whisper, from: Address, topic: &str, payload: Vec<u8>) {
        if self.budget == 0 {
            bus.post(from, topic, payload);
            return;
        }
        let p = &self.plan;
        let (drop_to, dup_to, corrupt_to, delay_to) = (
            p.drop_permille,
            p.drop_permille + p.duplicate_permille,
            p.drop_permille + p.duplicate_permille + p.corrupt_permille,
            p.drop_permille + p.duplicate_permille + p.corrupt_permille + p.delay_permille,
        );
        let roll = self.rng.below(1000) as u32;
        if roll < drop_to {
            self.budget -= 1;
            self.injected.push(format!("drop {topic}"));
            // The message vanishes.
        } else if roll < dup_to {
            self.budget -= 1;
            self.injected.push(format!("duplicate {topic}"));
            bus.post(from, topic, payload.clone());
            bus.post(from, topic, payload);
        } else if roll < corrupt_to && !payload.is_empty() {
            self.budget -= 1;
            self.injected.push(format!("corrupt {topic}"));
            let mut mangled = payload;
            let i = self.rng.below(mangled.len() as u64) as usize;
            mangled[i] ^= 0x40;
            bus.post(from, topic, mangled);
        } else if roll < delay_to {
            self.budget -= 1;
            self.injected.push(format!("delay {topic}"));
            let polls = self.rng.below(self.plan.max_delay_polls.max(1) as u64) as u32 + 1;
            self.delayed.push(DelayedMsg {
                from,
                topic: topic.to_string(),
                payload,
                remaining_polls: polls,
            });
        } else {
            bus.post(from, topic, payload);
        }
    }

    /// Polls for unseen messages, releasing due delayed messages first
    /// and possibly shuffling the fresh batch.
    pub fn poll(&mut self, bus: &mut Whisper, reader: Address, topic: &str) -> Vec<Envelope> {
        // Age the held-back messages on this topic; release the due ones
        // into the bus so normal cursor bookkeeping applies.
        let mut due = Vec::new();
        self.delayed.retain_mut(|d| {
            if d.topic != topic {
                return true;
            }
            d.remaining_polls -= 1;
            if d.remaining_polls == 0 {
                due.push((d.from, d.topic.clone(), std::mem::take(&mut d.payload)));
                false
            } else {
                true
            }
        });
        for (from, t, payload) in due {
            bus.post(from, &t, payload);
        }

        let mut fresh = bus.poll(reader, topic);
        if fresh.len() > 1 && self.budget > 0 {
            let roll = self.rng.below(1000) as u32;
            if roll < self.plan.reorder_permille {
                self.budget -= 1;
                self.injected.push(format!("reorder {topic}"));
                for i in (1..fresh.len()).rev() {
                    let j = self.rng.below(i as u64 + 1) as usize;
                    fresh.swap(i, j);
                }
            }
        }
        fresh
    }

    /// Messages currently held back by delay faults.
    pub fn pending_delayed(&self) -> usize {
        self.delayed.len()
    }

    /// Human-readable log of every fault injected so far.
    pub fn injected_faults(&self) -> &[String] {
        &self.injected
    }

    /// Whisper fault budget still unspent.
    pub fn remaining_budget(&self) -> u32 {
        self.budget
    }
}

/// One pre-submission fault decision drawn from a [`ChainFaults`]
/// schedule. The chain ports turn a delay into a session-local wait so
/// one session's bad luck cannot move a shared chain's time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitFault {
    /// No fault: submit normally.
    None,
    /// The submission is eaten by a transient failure.
    Transient(&'static str),
    /// Mining is delayed by this many seconds, then the submission
    /// proceeds without a new fault roll.
    MiningDelay(u64),
}

/// One pool-level fault decision drawn from a [`ChainFaults`] schedule.
/// Both variants manifest through machinery the drivers already survive: a dropped
/// gossip looks like a transient submission failure, a delayed
/// admission like an injected hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolFault {
    /// No fault: the transaction reaches the pool normally.
    None,
    /// The gossip carrying the transaction is dropped before the pool
    /// sees it.
    DroppedGossip,
    /// Admission is held back by this many seconds.
    DelayedAdmission(u64),
}

/// The per-session chain fault state: PRNG stream, budget and the
/// injected-fault log — separate from any particular chain so N
/// sessions can each run their own schedule against one shared node.
pub struct ChainFaults {
    rng: XorShift64,
    /// Pool faults draw from their own stream so they never perturb
    /// the submit-fault schedule existing chaos pins depend on.
    pool_rng: XorShift64,
    plan: FaultPlan,
    budget: u32,
    pool_budget: u32,
    injected: Vec<String>,
}

impl ChainFaults {
    /// Fault state for one chain (or one session's view of a shared one).
    pub fn new(plan: &FaultPlan) -> ChainFaults {
        ChainFaults {
            rng: plan.stream(2),
            pool_rng: plan.stream(3),
            plan: plan.clone(),
            budget: plan.chain_fault_budget,
            pool_budget: plan.pool_fault_budget,
            injected: Vec::new(),
        }
    }

    /// Draws one pre-submission fault decision, consuming budget when a
    /// fault fires. One roll decides the band so schedules replay
    /// exactly.
    pub fn pre_submit(&mut self) -> SubmitFault {
        if self.budget == 0 {
            return SubmitFault::None;
        }
        let roll = self.rng.below(1000) as u32;
        if roll < self.plan.submit_fail_permille {
            self.budget -= 1;
            self.injected.push("submit failure".into());
            return SubmitFault::Transient("submission dropped by the node");
        }
        if roll < self.plan.submit_fail_permille + self.plan.mining_delay_permille {
            self.budget -= 1;
            let secs = self
                .rng
                .below(self.plan.max_mining_delay_secs.clamp(1, MAX_INJECTED_SECS))
                + 1;
            self.injected.push(format!("mining delayed {secs}s"));
            return SubmitFault::MiningDelay(secs);
        }
        SubmitFault::None
    }

    /// Draws one pool-level fault decision, consuming pool budget when
    /// a fault fires. Separate stream and budget from
    /// [`ChainFaults::pre_submit`], so the submit schedule replays
    /// identically whether or not pool faults are drawn.
    pub fn pre_pool(&mut self) -> PoolFault {
        if self.pool_budget == 0 {
            return PoolFault::None;
        }
        let roll = self.pool_rng.below(1000) as u32;
        if roll < self.plan.gossip_drop_permille {
            self.pool_budget -= 1;
            self.injected.push("gossip dropped".into());
            return PoolFault::DroppedGossip;
        }
        if roll < self.plan.gossip_drop_permille + self.plan.admission_delay_permille {
            self.pool_budget -= 1;
            let secs = self.pool_rng.below(
                self.plan
                    .max_admission_delay_secs
                    .clamp(1, MAX_INJECTED_SECS),
            ) + 1;
            self.injected.push(format!("admission delayed {secs}s"));
            return PoolFault::DelayedAdmission(secs);
        }
        PoolFault::None
    }

    /// Human-readable log of every fault injected so far.
    pub fn injected_faults(&self) -> &[String] {
        &self.injected
    }

    /// Chain fault budget still unspent.
    pub fn remaining_budget(&self) -> u32 {
        self.budget
    }
}

/// A network partition drawn from a [`LinkFaults`] schedule: nodes in
/// `side_a` cannot exchange gossip with the rest until `heal_at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Node indices on one side of the cut (the complement forms the
    /// other side). Never empty, never all nodes.
    pub side_a: Vec<usize>,
    /// First round in which traffic flows across the cut again.
    pub heal_at: u64,
}

/// The per-network link fault state: PRNG stream, budget and the
/// injected-fault log for partitions and per-link delivery delays.
/// Drawn from its own stream (site 4), so arming a multi-node network
/// never perturbs the whisper, chain or pool schedules existing chaos
/// pins depend on.
pub struct LinkFaults {
    rng: XorShift64,
    plan: FaultPlan,
    budget: u32,
    injected: Vec<String>,
}

impl LinkFaults {
    /// Link fault state for one network.
    pub fn new(plan: &FaultPlan) -> LinkFaults {
        LinkFaults {
            rng: plan.stream(4),
            plan: plan.clone(),
            budget: plan.link_fault_budget,
            injected: Vec::new(),
        }
    }

    /// Rolls for a partition starting this round. On a hit, cuts the
    /// `nodes` indices into two non-empty sides and returns the cut
    /// with its heal round; duration is 4..=`max_partition_rounds`
    /// rounds so both sides mine competing blocks but the eventual
    /// reorg stays within retained history.
    pub fn maybe_partition(&mut self, round: u64, nodes: usize) -> Option<Partition> {
        if self.budget == 0 || nodes < 2 {
            return None;
        }
        let roll = self.rng.below(1000) as u32;
        if roll >= self.plan.partition_permille {
            return None;
        }
        self.budget -= 1;
        let span = self.plan.max_partition_rounds.max(4) - 3; // 4..=max
        let duration = self.rng.below(span) + 4;
        // A random cut point keeps both sides non-empty.
        let cut = self.rng.below(nodes as u64 - 1) as usize + 1;
        let side_a: Vec<usize> = (0..cut).collect();
        self.injected
            .push(format!("partition {side_a:?} for {duration} rounds"));
        Some(Partition {
            side_a,
            heal_at: round + duration,
        })
    }

    /// Rolls for an injected delivery delay on one gossiped frame.
    /// Returns the extra rounds the link holds the frame (0 = deliver
    /// normally).
    pub fn link_delay(&mut self) -> u64 {
        if self.budget == 0 {
            return 0;
        }
        let roll = self.rng.below(1000) as u32;
        if roll >= self.plan.link_delay_permille {
            return 0;
        }
        self.budget -= 1;
        let extra = self.rng.below(self.plan.max_link_delay_rounds.max(1)) + 1;
        self.injected.push(format!("link delayed {extra} rounds"));
        extra
    }

    /// Human-readable log of every link fault injected so far.
    pub fn injected_faults(&self) -> &[String] {
        &self.injected
    }

    /// Link fault budget still unspent.
    pub fn remaining_budget(&self) -> u32 {
        self.budget
    }
}

/// Per-session light-client fault state: witnesses dropped in transit.
/// Drawn from its own stream (site 5), so arming a light fleet never
/// perturbs the whisper, chain, pool or link schedules existing chaos
/// pins depend on. A drop is a *liveness* fault by construction — the
/// port refetches — so a light session under this schedule reaches the
/// same outcome as its full-node twin, just with more wire traffic.
pub struct LightFaults {
    rng: XorShift64,
    plan: FaultPlan,
    budget: u32,
    injected: Vec<String>,
}

impl LightFaults {
    /// Light fault state for one session.
    pub fn new(plan: &FaultPlan) -> LightFaults {
        LightFaults {
            rng: plan.stream(5),
            plan: plan.clone(),
            budget: plan.light_fault_budget,
            injected: Vec::new(),
        }
    }

    /// Rolls for a witness fetch being dropped in transit (the port
    /// must request it again).
    pub fn drop_proof(&mut self) -> bool {
        if self.budget == 0 {
            return false;
        }
        let roll = self.rng.below(1000) as u32;
        if roll >= self.plan.proof_drop_permille {
            return false;
        }
        self.budget -= 1;
        self.injected.push("witness dropped in transit".to_string());
        true
    }

    /// Human-readable log of every light fault injected so far.
    pub fn injected_faults(&self) -> &[String] {
        &self.injected
    }

    /// Light fault budget still unspent.
    pub fn remaining_budget(&self) -> u32 {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    #[test]
    fn xorshift_is_deterministic_and_spreads() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let mut c = XorShift64::new(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        assert_ne!(xs, zs, "adjacent seeds diverge");
        // below() stays in range.
        for n in [1u64, 2, 7, 1000] {
            assert!(a.below(n) < n);
        }
    }

    #[test]
    fn plans_replay_from_the_seed() {
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
        assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
        // Budgets and delays respect the liveness bounds.
        for seed in 0..256u64 {
            let p = FaultPlan::from_seed(seed);
            assert!(p.whisper_fault_budget <= 24);
            assert!(p.chain_fault_budget <= 12);
            assert!(p.max_mining_delay_secs <= MAX_INJECTED_SECS);
            assert!((1..=4).contains(&p.max_delay_polls));
        }
    }

    #[test]
    fn faultless_plan_is_transparent() {
        let (mut bus, mut w) = (Whisper::new(), WhisperFaults::new(&FaultPlan::none()));
        w.post(&mut bus, addr(1), "t", vec![1, 2, 3]);
        w.post(&mut bus, addr(2), "t", vec![4]);
        let got = w.poll(&mut bus, addr(3), "t");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, vec![1, 2, 3]);
        assert_eq!(got[1].payload, vec![4]);
        assert!(w.injected_faults().is_empty());
        assert_eq!(bus.message_count(), 2);
    }

    #[test]
    fn whisper_faults_are_deterministic_and_budgeted() {
        let plan = FaultPlan::from_seed(0x5eed);
        let run = |plan: &FaultPlan| {
            let (mut bus, mut w) = (Whisper::new(), WhisperFaults::new(plan));
            let mut seen = Vec::new();
            for i in 0..200u8 {
                w.post(&mut bus, addr(1), "t", vec![i]);
                for e in w.poll(&mut bus, addr(2), "t") {
                    seen.push(e.payload);
                }
            }
            // Drain any remaining delayed messages.
            for _ in 0..8 {
                for e in w.poll(&mut bus, addr(2), "t") {
                    seen.push(e.payload);
                }
            }
            (seen, w.injected_faults().to_vec())
        };
        let (seen_a, faults_a) = run(&plan);
        let (seen_b, faults_b) = run(&plan);
        assert_eq!(seen_a, seen_b, "same seed, same delivery");
        assert_eq!(faults_a, faults_b, "same seed, same fault log");
        assert!(
            faults_a.len() as u32 <= plan.whisper_fault_budget,
            "budget caps the fault count"
        );
        // After the budget is spent the bus is perfect again: a fresh
        // message round-trips untouched.
        let (mut bus, mut w) = (Whisper::new(), WhisperFaults::new(&plan));
        for i in 0..200u8 {
            w.post(&mut bus, addr(1), "t", vec![i]);
            w.poll(&mut bus, addr(2), "t");
        }
        assert_eq!(w.remaining_budget(), 0, "aggressive plan spends it all");
        w.post(&mut bus, addr(1), "t", vec![0xaa]);
        let got = w.poll(&mut bus, addr(2), "t");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, vec![0xaa]);
    }

    #[test]
    fn delayed_messages_are_eventually_released() {
        let plan = FaultPlan {
            seed: 7,
            delay_permille: 1000,
            max_delay_polls: 3,
            whisper_fault_budget: 1,
            ..FaultPlan::none()
        };
        let (mut bus, mut w) = (Whisper::new(), WhisperFaults::new(&plan));
        w.post(&mut bus, addr(1), "t", vec![9]);
        assert_eq!(w.pending_delayed(), 1);
        let mut polls = 0;
        loop {
            polls += 1;
            if !w.poll(&mut bus, addr(2), "t").is_empty() {
                break;
            }
            assert!(polls <= 4, "must release within max_delay_polls");
        }
        assert_eq!(w.pending_delayed(), 0);
    }

    #[test]
    fn submit_faults_inject_then_recover() {
        let plan = FaultPlan {
            seed: 11,
            submit_fail_permille: 1000,
            chain_fault_budget: 2,
            ..FaultPlan::none()
        };
        let mut faults = ChainFaults::new(&plan);
        // First two submissions are eaten; every later one goes through
        // (budget spent).
        let draws: Vec<SubmitFault> = (0..4).map(|_| faults.pre_submit()).collect();
        assert!(matches!(draws[0], SubmitFault::Transient(_)));
        assert!(matches!(draws[1], SubmitFault::Transient(_)));
        assert_eq!(draws[2..], [SubmitFault::None, SubmitFault::None]);
        assert_eq!(faults.remaining_budget(), 0);
    }

    #[test]
    fn mining_delay_is_bounded_and_logged() {
        let plan = FaultPlan {
            seed: 13,
            mining_delay_permille: 1000,
            max_mining_delay_secs: 50,
            chain_fault_budget: 1,
            ..FaultPlan::none()
        };
        let mut faults = ChainFaults::new(&plan);
        match faults.pre_submit() {
            SubmitFault::MiningDelay(secs) => assert!((1..=50).contains(&secs), "{secs}"),
            other => panic!("expected a mining delay, drew {other:?}"),
        }
        assert_eq!(faults.pre_submit(), SubmitFault::None);
        assert_eq!(faults.injected_faults().len(), 1);
    }

    #[test]
    fn pool_faults_replay_and_never_perturb_the_chain_stream() {
        for seed in [1u64, 0x5eed, 0xdead_beef] {
            let plan = FaultPlan::from_seed(seed);
            assert!(plan.pool_fault_budget <= 8);
            assert!(plan.max_admission_delay_secs <= MAX_INJECTED_SECS);
            // Same seed ⇒ same pool fault schedule.
            let mut a = ChainFaults::new(&plan);
            let mut b = ChainFaults::new(&plan);
            let xs: Vec<PoolFault> = (0..64).map(|_| a.pre_pool()).collect();
            let ys: Vec<PoolFault> = (0..64).map(|_| b.pre_pool()).collect();
            assert_eq!(xs, ys);
            assert!(
                xs.iter().filter(|f| **f != PoolFault::None).count() as u32
                    <= plan.pool_fault_budget
            );
            // Drawing pool faults must not shift the submit schedule.
            let mut with_pool = ChainFaults::new(&plan);
            let mut without = ChainFaults::new(&plan);
            for _ in 0..16 {
                let _ = with_pool.pre_pool();
            }
            let ps: Vec<SubmitFault> = (0..32).map(|_| with_pool.pre_submit()).collect();
            let qs: Vec<SubmitFault> = (0..32).map(|_| without.pre_submit()).collect();
            assert_eq!(ps, qs, "pool stream is independent of the submit stream");
        }
    }

    #[test]
    fn link_draws_never_perturb_earlier_fields() {
        // Golden pin: the fifteen pre-existing plan fields for three
        // seeds, captured before the link-fault fields were appended.
        // If any of these move, every pinned chaos seed in the suite
        // replays differently — the append-only contract is broken.
        let golden: [(u64, [u64; 15]); 3] = [
            (
                0x5EED_C0FF_EE15_600D,
                [
                    227, 41, 44, 139, 231, 3, 181, 153, 103, 8, 2, 123, 155, 86, 4,
                ],
            ),
            (
                0x5eed,
                [6, 125, 53, 102, 98, 3, 215, 248, 36, 21, 6, 154, 82, 114, 3],
            ),
            (
                0x1,
                [107, 7, 63, 280, 87, 1, 196, 178, 1, 0, 7, 133, 56, 83, 4],
            ),
        ];
        for (seed, want) in golden {
            let p = FaultPlan::from_seed(seed);
            let got = [
                p.drop_permille as u64,
                p.duplicate_permille as u64,
                p.corrupt_permille as u64,
                p.delay_permille as u64,
                p.reorder_permille as u64,
                p.max_delay_polls as u64,
                p.submit_fail_permille as u64,
                p.mining_delay_permille as u64,
                p.max_mining_delay_secs,
                p.whisper_fault_budget as u64,
                p.chain_fault_budget as u64,
                p.gossip_drop_permille as u64,
                p.admission_delay_permille as u64,
                p.max_admission_delay_secs,
                p.pool_fault_budget as u64,
            ];
            assert_eq!(got, want, "seed {seed:#x}: pre-link fields moved");
        }
        // And the appended fields respect their documented ranges.
        for seed in 0..256u64 {
            let p = FaultPlan::from_seed(seed);
            assert!(p.partition_permille <= 80);
            assert!((4..=15).contains(&p.max_partition_rounds));
            assert!(p.link_delay_permille <= 150);
            assert!((1..=3).contains(&p.max_link_delay_rounds));
            assert!(p.link_fault_budget <= 6);
        }
    }

    #[test]
    fn light_draws_never_perturb_earlier_fields() {
        // Golden pin for the next append: the five link fields for the
        // same three seeds, captured before the light-fault fields were
        // appended. Breaking these breaks every pinned multi-node chaos
        // seed.
        let golden: [(u64, [u64; 5]); 3] = [
            (0x5EED_C0FF_EE15_600D, [12, 14, 27, 3, 5]),
            (0x5eed, [21, 13, 36, 1, 3]),
            (0x1, [77, 7, 95, 3, 1]),
        ];
        for (seed, want) in golden {
            let p = FaultPlan::from_seed(seed);
            let got = [
                p.partition_permille as u64,
                p.max_partition_rounds,
                p.link_delay_permille as u64,
                p.max_link_delay_rounds,
                p.link_fault_budget as u64,
            ];
            assert_eq!(got, want, "seed {seed:#x}: pre-light fields moved");
        }
        // The light fields respect their documented ranges, and the
        // schedule is budgeted: rates can be high, injections cannot be
        // unbounded.
        for seed in 0..256u64 {
            let p = FaultPlan::from_seed(seed);
            assert!(p.proof_drop_permille <= 200);
            assert!(p.light_fault_budget <= 8);
        }
        let plan = FaultPlan {
            proof_drop_permille: 1000,
            ..FaultPlan::from_seed(0x5eed)
        };
        let mut lf = LightFaults::new(&plan);
        let fired = (0..128).filter(|_| lf.drop_proof()).count() as u32;
        assert_eq!(fired, plan.light_fault_budget);
        assert_eq!(lf.remaining_budget(), 0);
        assert_eq!(lf.injected_faults().len(), fired as usize);
        // Replays of the same plan draw the identical schedule.
        let replay = |plan: &FaultPlan| {
            let mut lf = LightFaults::new(plan);
            (0..32).map(|_| lf.drop_proof()).collect::<Vec<_>>()
        };
        assert_eq!(replay(&plan), replay(&plan));
    }

    #[test]
    fn link_faults_replay_are_budgeted_and_cut_both_sides() {
        for seed in [1u64, 0x5eed, 0xdead_beef] {
            let plan = FaultPlan {
                // Force high rates so the budget actually gets exercised.
                partition_permille: 500,
                link_delay_permille: 500,
                ..FaultPlan::from_seed(seed)
            };
            let run = |plan: &FaultPlan| {
                let mut lf = LinkFaults::new(plan);
                let mut events = Vec::new();
                for round in 0..64u64 {
                    if let Some(p) = lf.maybe_partition(round, 4) {
                        events.push(format!("p {:?} {}", p.side_a, p.heal_at));
                        assert!(!p.side_a.is_empty() && p.side_a.len() < 4);
                        assert!(
                            (4..=plan.max_partition_rounds).contains(&(p.heal_at - round)),
                            "duration within bounds"
                        );
                    }
                    let d = lf.link_delay();
                    assert!(d <= plan.max_link_delay_rounds);
                    if d > 0 {
                        events.push(format!("d {d}"));
                    }
                }
                (events, lf.remaining_budget())
            };
            let (ea, ba) = run(&plan);
            let (eb, bb) = run(&plan);
            assert_eq!(ea, eb, "same seed, same link schedule");
            assert_eq!(ba, bb);
            assert!(ea.len() as u32 <= plan.link_fault_budget);
            // A spent budget means perfect links forever after.
            if ba == 0 {
                let mut lf = LinkFaults::new(&plan);
                for round in 0..64u64 {
                    lf.maybe_partition(round, 4);
                    lf.link_delay();
                }
                assert!(lf.maybe_partition(64, 4).is_none());
                assert_eq!(lf.link_delay(), 0);
            }
        }
    }
}
