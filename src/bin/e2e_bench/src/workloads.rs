//! The six workloads: untimed set-up → warm-up → timed iterations →
//! checks.
//!
//! One client — this thread — drives every workload in a closed loop.
//! An untraced run measures for `seconds` in *iterations*: each is one
//! throughput repeat (the whole batch) followed by one latency pass
//! (every operation of the workload once, alone on an idle system).
//! Interleaving makes both kinds of metric see the same machine states
//! — this shared VM drifts by ±20 % over seconds — and every reported
//! timing is the **median over the iterations**. A traced run does
//! untraced/traced/untraced repeats, the replay and light-client
//! passes and the kernels, and reports the per-layer metrics and the
//! attribution. Sizes are frozen in [`Sizes`], never scaled to the
//! clock: a faster machine does more iterations of the same work.

use crate::drive::{self, SessionRun, Topology};
use crate::gen::{self, SessionPlan, Sizes};
use crate::metrics;
use crate::stats::{self, Summary};
use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    pub trace: bool,
    /// 1/8 sizes, one repeat, one set-up.
    pub quick: bool,
}

impl Config {
    pub fn sizes(&self) -> Sizes {
        if self.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        }
    }

    /// Iterations (and digested repeats) a run never does fewer of.
    pub fn min_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Builds the workload's state with `build`, several times in an
    /// untraced run — at least three, and up to nine while they are
    /// cheap enough to fit one second — pushing each wall time onto
    /// `setup_s` (whose median is the metric) and keeping only the last
    /// instance alive: two at once would double the peak RSS.
    fn set_up<T>(&self, setup_s: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
        let clock = Instant::now();
        loop {
            let built = sample(setup_s, &mut build);
            let enough =
                setup_s.len() >= 9 || (setup_s.len() >= 3 && clock.elapsed().as_secs_f64() >= 1.0);
            if self.quick || self.trace || enough {
                return built;
            }
            drop(built);
        }
    }
}

/// Runs one set-up, pushing its wall time in seconds onto `setup_s`.
fn sample<T>(setup_s: &mut Vec<f64>, build: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let built = build();
    setup_s.push(started.elapsed().as_secs_f64());
    built
}

/// One reported end-to-end metric: the value plus the spread of the
/// iterations behind it.
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub summary: Summary,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Violated checks; empty on a correct run.
    pub problems: Vec<String>,
    /// keccak over reports, head hashes and counts: identical for two
    /// runs of one seed.
    pub digest: [u8; 32],
    pub end_to_end: Vec<Reported>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        assert!(metrics::layer(name).is_some(), "undeclared metric {name}");
        self.per_layer.insert(name, value);
    }
}

pub fn run(workload: &str, cfg: &Config) -> Option<Outcome> {
    let sizes = cfg.sizes();
    let mut out = match workload {
        "mixed256" | "dispute_heavy96" | "confidential32" | "net4_partition" => {
            sessions(workload, cfg, &sizes)
        }
        "chain_pipeline" => pipeline(cfg, &sizes),
        "state_bulk" => state(cfg, &sizes),
        _ => return None,
    };
    if cfg.trace {
        // Every declared per-layer metric is present on every workload;
        // 0 means the workload does not exercise that layer.
        for m in &metrics::PER_LAYER {
            out.per_layer.entry(m.name).or_insert(0.0);
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the timed iterations of an untraced run collected.
#[derive(Default)]
struct Iterations {
    ops_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
}

impl Iterations {
    /// Runs `step` (one throughput repeat plus one latency pass,
    /// returning ops/s and the pass's latency samples) until `seconds`
    /// are spent, at least `min` times. Stops at the iteration boundary
    /// nearest the budget rather than always overshooting it.
    fn run(cfg: &Config, mut step: impl FnMut(usize) -> (f64, Vec<f64>)) -> Iterations {
        let mut it = Iterations::default();
        let clock = Instant::now();
        loop {
            let started = Instant::now();
            let (ops_per_s, latency_ms) = step(it.ops_per_s.len());
            it.ops_per_s.push(ops_per_s);
            it.p50_ms.push(stats::percentile(&latency_ms, 50));
            let spent = clock.elapsed().as_secs_f64();
            let next_ends = spent + started.elapsed().as_secs_f64() / 2.0;
            if it.ops_per_s.len() >= cfg.min_repeats() && next_ends >= cfg.seconds {
                return it;
            }
        }
    }

    fn end_to_end(&self, setup_s: &[f64]) -> Vec<Reported> {
        let median_of = |name, v: &[f64]| Reported {
            name,
            value: stats::median(v),
            summary: stats::summarize(v),
        };
        vec![
            median_of("ops_per_s", &self.ops_per_s),
            median_of("op_ms_p50", &self.p50_ms),
            median_of("peak_rss_mb", &[peak_rss_mb()]),
            median_of("setup_s", setup_s),
        ]
    }
}

/// Runs every kernel for its time slice (at least three calls; one in
/// a quick run) and returns the declared values by name.
fn kernels(out: &mut Outcome, cfg: &Config) -> BTreeMap<&'static str, f64> {
    let (slice, min_calls) = if cfg.quick {
        (0.01, 1)
    } else {
        ((cfg.seconds / 80.0).clamp(0.05, 0.3), 3)
    };
    let (kernels, counts) = drive::kernels();
    let mut values: BTreeMap<&'static str, f64> = counts.into_iter().collect();
    for mut k in kernels {
        let (ns_per_op, _) = trace::timed(k.name, || {
            let started = Instant::now();
            let mut ns_per_op = Vec::new();
            while ns_per_op.len() < min_calls || started.elapsed().as_secs_f64() < slice {
                ns_per_op.push((k.run)() as f64 / k.ops);
            }
            ns_per_op
        });
        let median = stats::median(&ns_per_op);
        values.insert(
            k.name,
            if k.inverse {
                k.scale / median
            } else {
                median / k.scale
            },
        );
    }
    for (&name, &value) in &values {
        out.layer(name, value);
    }
    values
}

/// Group times in nanoseconds → `attr.*` shares of `total_ns`.
struct Attribution {
    crypto: f64,
    evm: f64,
    state_trie: f64,
    mempool: f64,
    session_engine: f64,
    net_proofs: f64,
}

impl Attribution {
    fn report(&self, out: &mut Outcome, total_ns: f64) {
        let groups = [
            ("attr.crypto_share", self.crypto),
            ("attr.evm_share", self.evm),
            ("attr.state_trie_share", self.state_trie),
            ("attr.mempool_share", self.mempool),
            ("attr.session_engine_share", self.session_engine),
            ("attr.net_proofs_share", self.net_proofs),
        ];
        let mut sum = 0.0;
        for (name, ns) in groups {
            let share = ns.max(0.0) / total_ns;
            sum += share;
            out.layer(name, share);
        }
        out.layer("attr.unattributed_share", 1.0 - sum);
    }
}

/// Finishes a traced run: overhead, span count, spans.
fn finish_trace(out: &mut Outcome, traced_ns: u64, untraced_ns: &[u64]) {
    let base = untraced_ns.iter().map(|&n| n as f64).sum::<f64>() / untraced_ns.len() as f64;
    out.layer("trace.overhead_share", traced_ns as f64 / base - 1.0);
    trace::set_enabled(false, 0);
    out.spans = trace::take();
    out.layer("trace.spans", out.spans.len() as f64);
}

/// The latency samples of a traced run's untraced passes. The tail
/// percentile lives here, not among the end-to-end metrics: a pass of
/// 32–96 operations has too few samples beyond p95 to bound it, and on
/// this machine it is the noisiest number the benchmark produces.
fn latency_layers(out: &mut Outcome, samples_ms: &[f64]) {
    out.layer("bench.op_ms_p50", stats::percentile(samples_ms, 50));
    out.layer("bench.op_ms_p95", stats::percentile(samples_ms, 95));
    out.layer("bench.latency_samples", samples_ms.len() as f64);
}

// ---------------------------------------------------------------------
// Session workloads
// ---------------------------------------------------------------------

fn session_plans(workload: &str, seed: u64, sizes: &Sizes) -> Vec<SessionPlan> {
    match workload {
        "mixed256" => gen::mixed_plans(seed, sizes.mixed_sessions, sizes.mixed_weight),
        "dispute_heavy96" => gen::dispute_plans(seed, sizes.dispute_sessions, sizes.dispute_weight),
        "confidential32" => gen::confidential_plans(seed, sizes.confidential_sessions),
        _ => gen::mixed_plans(seed, sizes.net_sessions, sizes.mixed_weight),
    }
}

fn session_topology(workload: &str, seed: u64, sizes: &Sizes) -> Topology {
    if workload == "net4_partition" {
        Topology {
            nodes: sizes.net_nodes,
            link_seed: Some(crate::rng::SplitMix64::fork(seed, "net/links").next_u64()),
            cut_rounds: sizes.net_cut_rounds,
            light: false,
        }
    } else {
        Topology::single()
    }
}

/// keccak over everything one session run is expected to reproduce.
fn session_digest(run: &SessionRun) -> [u8; 32] {
    let mut bytes = Vec::new();
    for s in &run.sessions {
        bytes.extend_from_slice(&s.fingerprint);
    }
    for h in &run.heads {
        bytes.extend_from_slice(h);
    }
    bytes.extend_from_slice(format!("{:?}", run.net).as_bytes());
    for n in [run.canonical_blocks, run.canonical_txs, run.canonical_gas] {
        bytes.extend_from_slice(&n.to_be_bytes());
    }
    drive::digest(&bytes)
}

/// Counts one run's sessions into the outcome and checks its
/// invariants.
fn check_session_run(out: &mut Outcome, what: &str, run: &SessionRun) {
    out.attempted += run.sessions.len() as u64;
    out.failed += run.sessions.iter().filter(|s| !s.ok).count() as u64;
    for v in &run.violations {
        out.problems.push(format!("{what}: {v}"));
    }
}

/// One latency pass: every plan alone on a fresh network; the latency
/// of a session is the wall time of its `run()`.
fn solo_pass(out: &mut Outcome, plans: &[SessionPlan], topo: Topology) -> Vec<f64> {
    plans
        .iter()
        .map(|plan| {
            let (mut net, _) = drive::session_net(std::slice::from_ref(plan), topo);
            let solo = drive::session_run(&mut net);
            check_session_run(out, "solo", &solo);
            ms(solo.run_ns)
        })
        .collect()
}

fn sessions(workload: &str, cfg: &Config, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let topo = session_topology(workload, cfg.seed, sizes);
    // A solo session runs on the same kind of network, uncut.
    let solo_topo = Topology {
        cut_rounds: 0,
        ..topo
    };
    let mut setup_s = Vec::new();
    // Set-up is plan generation plus the scheduler constructor. Every
    // repeat needs a fresh scheduler, so every repeat adds a sample to
    // the ones taken here.
    let build = || {
        let plans = session_plans(workload, cfg.seed, sizes);
        drive::session_net(&plans, topo)
    };
    drop(cfg.set_up(&mut setup_s, build));

    // Warm-up: an eighth of the workload, untimed.
    let plans = session_plans(workload, cfg.seed, sizes);
    let (mut warm, _) = drive::session_net(&plans[..(plans.len() / 8).max(1)], topo);
    check_session_run(&mut out, "warm-up", &drive::session_run(&mut warm));
    drop(warm);

    // Each iteration: the whole batch, then every session alone on a
    // fresh network, fault-free, so the sample set has the same
    // composition for every seed and every machine speed.
    let solo_plans: Vec<SessionPlan> = plans
        .iter()
        .map(|p| SessionPlan {
            fault_seed: None,
            ..p.clone()
        })
        .collect();
    if cfg.trace {
        sessions_traced(workload, cfg, topo, &plans, &build, &mut out);
        let solo = solo_pass(&mut out, &solo_plans, solo_topo);
        latency_layers(&mut out, &solo);
        return out;
    }
    let it = Iterations::run(cfg, |i| {
        let (mut net, _) = sample(&mut setup_s, build);
        let run = drive::session_run(&mut net);
        drop(net);
        check_session_run(&mut out, "repeat", &run);
        let digest = session_digest(&run);
        if i == 0 {
            out.digest = digest;
            if workload == "net4_partition" {
                out.check(
                    run.net.reorgs >= 1 && run.net.orphans_resubmitted >= 1,
                    || format!("the forced cut did not bite: {:?}", run.net),
                );
            }
        }
        out.check(digest == out.digest, || {
            format!("repeat {i} produced a different result digest")
        });
        let settled = run.sessions.iter().filter(|s| s.ok).count();
        (
            settled as f64 / secs(run.run_ns),
            solo_pass(&mut out, &solo_plans, solo_topo),
        )
    });
    out.end_to_end = it.end_to_end(&setup_s);
    out
}

fn sessions_traced(
    workload: &str,
    cfg: &Config,
    topo: Topology,
    plans: &[SessionPlan],
    build: &impl Fn() -> (drive::SessionNet, u64),
    out: &mut Outcome,
) {
    // Untraced, traced, untraced: the neighbours are the overhead base.
    let mut untraced_ns = Vec::new();
    let mut traced = None;
    for repeat in 0..3u32 {
        trace::set_enabled(repeat == 1, repeat);
        let (mut net, new_ns) = build();
        let run = drive::session_run(&mut net);
        check_session_run(out, "repeat", &run);
        let digest = session_digest(&run);
        if repeat == 0 {
            out.digest = digest;
        }
        out.check(digest == out.digest, || {
            format!("repeat {repeat} produced a different result digest")
        });
        if repeat == 1 {
            traced = Some((net, new_ns, run));
        } else {
            untraced_ns.push(run.run_ns);
        }
    }
    let (net, new_ns, run) = traced.expect("the traced repeat ran");
    trace::set_enabled(true, 1);

    let n = run.sessions.len() as f64;
    let sum = |f: &dyn Fn(&drive::SessionResult) -> u64| -> f64 {
        run.sessions.iter().map(f).sum::<u64>() as f64
    };
    let disputed = run.sessions.iter().filter(|s| s.stage_gas[3] > 0).count() as f64;
    let txs_sent = sum(&|s| s.txs as u64);
    let messages = sum(&|s| s.messages as u64);
    out.layer("core.new_ms", ms(new_ns));
    out.layer("core.run_ms", ms(run.run_ns));
    out.layer("core.rounds", run.net.rounds as f64);
    out.layer("core.blocks_sealed", run.net.blocks_sealed as f64);
    out.layer(
        "core.txs_per_block",
        run.canonical_txs as f64 / run.canonical_blocks.max(1) as f64,
    );
    out.layer("core.messages_per_session", messages / n);
    out.layer("core.txs_per_session", txs_sent / n);
    out.layer("core.pool_evicted", run.net.pool_evicted as f64);
    out.layer("core.gas_per_session", sum(&|s| s.total_gas) / n);
    out.layer("core.disputed_sessions", disputed);
    out.layer(
        "core.dispute_gas_per_dispute",
        if disputed > 0.0 {
            sum(&|s| s.stage_gas[3]) / disputed
        } else {
            0.0
        },
    );
    out.layer(
        "core.net.frames_per_session",
        run.net.frames_delivered as f64 / n,
    );
    out.layer("core.net.reorgs", run.net.reorgs as f64);
    out.layer("core.net.max_reorg_depth", run.net.max_reorg_depth as f64);
    out.layer(
        "core.net.orphans_resubmitted",
        run.net.orphans_resubmitted as f64,
    );
    out.layer("core.net.imports_rejected", run.net.imports_rejected as f64);

    if workload == "net4_partition" {
        out.check(
            run.net.reorgs >= 1 && run.net.orphans_resubmitted >= 1,
            || format!("the forced cut did not bite: {:?}", run.net),
        );
        // One light pass: same plans, seed and cut, every session
        // stateless. Reports must equal the full-node run bit for bit.
        let (mut light_net, _) = drive::session_net(
            plans,
            Topology {
                light: true,
                ..topo
            },
        );
        let light = drive::session_run(&mut light_net);
        check_session_run(out, "light pass", &light);
        out.check(light.sessions == run.sessions, || {
            "light-pass session reports differ from the full-node reports".to_string()
        });
        out.layer(
            "core.light.proofs_per_session",
            light.net.proofs_verified as f64 / n,
        );
        out.layer(
            "core.light.receipts_per_session",
            light.net.receipts_verified as f64 / n,
        );
        out.layer("core.light.proofs_dropped", light.net.proofs_dropped as f64);
        out.layer(
            "core.light.witness_bytes_per_session",
            light.net.witness_bytes as f64 / n,
        );
        out.layer("core.light.run_ms", ms(light.run_ns));
    }

    let replay = drive::replay(&net);
    out.check(replay.ok, || {
        "replaying node 0's chain into a fresh node did not reproduce its head".to_string()
    });
    out.layer("replay.import_ms", ms(replay.import_ns));
    out.layer("replay.recover_ms", ms(replay.recover_ns));
    out.layer("replay.txs", replay.txs as f64);
    out.layer("replay.gas", replay.gas as f64);

    let k = kernels(out, cfg);
    let nodes = topo.nodes as f64;
    let public = run
        .sessions
        .iter()
        .filter(|s| s.kind != "settle-later")
        .count() as f64;
    let settle = n - public;
    let weight = plans.first().map_or(0, |p| p.weight) as f64;
    let exec_ns = replay.import_ns.saturating_sub(replay.recover_ns) as f64;
    let trie_ns = exec_ns.min(
        (3.0 * run.canonical_txs as f64 + run.canonical_blocks as f64)
            * k["trie.incremental_root_us_per_key"]
            * 1e3,
    );
    Attribution {
        crypto: txs_sent * (k["crypto.sign_us"] + k["crypto.recover_batch_us_per_sig"]) * 1e3
            + (nodes - 1.0) * txs_sent * k["crypto.recover_us"] * 1e3
            + (nodes - 1.0) * replay.recover_ns as f64
            + public * k["core.signed_copy_us"] * 1e3
            + settle
                * (2.0 * k["confidential.range_prove_ms"] * 1e6
                    + k["confidential.voucher_cosign_us"] * 1e3),
        evm: nodes * (exec_ns - trie_ns),
        state_trie: nodes * trie_ns,
        mempool: nodes * txs_sent * k["mempool.insert_ns"]
            + run.canonical_txs as f64 * k["mempool.pack_ns_per_tx"],
        session_engine: messages * k["core.whisper_roundtrip_us"] * 1e3
            + 2.0 * public * weight * k["contracts.native_reveal_ns_per_iter"],
        net_proofs: run.net.frames_delivered as f64 * k["primitives.rlp_roundtrip_ns_per_tx"],
    }
    .report(out, run.run_ns as f64);
    finish_trace(out, run.run_ns, &untraced_ns);
}

// ---------------------------------------------------------------------
// chain_pipeline
// ---------------------------------------------------------------------

/// Iterations summed into each of the untraced / traced / untraced
/// groups of a traced `chain_pipeline` or `state_bulk` run, whose single
/// iterations are too short to compare.
fn trace_group(cfg: &Config) -> usize {
    if cfg.quick {
        1
    } else {
        4
    }
}

/// Per-pass numbers the digest covers: only what one seed reproduces.
fn pass_digest_bytes(pass: &drive::PipelinePass, bytes: &mut Vec<u8>) {
    bytes.extend_from_slice(&pass.head);
    for n in [pass.txs, pass.blocks, pass.gas, pass.failed] {
        bytes.extend_from_slice(&n.to_be_bytes());
    }
}

fn check_pass(out: &mut Outcome, what: &str, pass: &drive::PipelinePass) {
    out.attempted += pass.txs;
    out.failed += pass.failed;
    out.check(pass.heads_equal, || {
        format!("{what}: producer and follower heads differ")
    });
}

fn pipeline(cfg: &Config, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    // Iteration `i`'s batch and its single transactions, signed in
    // submission order (nonces are assigned at signing).
    let sign = |p: &mut drive::Pipeline, i: u64| {
        let batch = gen::pipeline_batch(cfg.seed, 2 * i, sizes.pipeline_txs, sizes);
        let solo = gen::pipeline_batch(cfg.seed, 2 * i + 1, sizes.pipeline_solo_txs, sizes);
        (
            drive::pipeline_sign(p, &batch),
            drive::pipeline_sign(p, &solo),
        )
    };
    let mut setup_s = Vec::new();
    let (mut p, warm, first) = cfg.set_up(&mut setup_s, || {
        let mut p = drive::pipeline_setup(cfg.seed, sizes);
        let warm = gen::pipeline_batch(cfg.seed, u64::MAX, sizes.pipeline_txs / 4, sizes);
        let warm = drive::pipeline_sign(&mut p, &warm);
        let first = sign(&mut p, 0);
        (p, warm, first)
    });
    check_pass(&mut out, "warm-up", &drive::pipeline_batch(&mut p, warm));

    // One iteration: a batch through admit → seal → import, then each
    // single transaction through the idle chain. The chain continues
    // across iterations, so only a prefix every run reaches is digested.
    let mut first = Some(first);
    let mut digested = Vec::new();
    let mut iteration = |out: &mut Outcome, i: usize, traced: bool| {
        let (batch, solo) = first.take().unwrap_or_else(|| sign(&mut p, i as u64));
        trace::set_enabled(traced, i as u32);
        let pass = drive::pipeline_batch(&mut p, batch);
        check_pass(out, "batch", &pass);
        let latency_ms: Vec<f64> = solo
            .into_iter()
            .map(|tx| {
                let single = drive::pipeline_solo(&mut p, tx);
                check_pass(out, "solo", &single);
                ms(single.pass_ns)
            })
            .collect();
        trace::set_enabled(false, 0);
        if i < cfg.min_repeats() {
            pass_digest_bytes(&pass, &mut digested);
        }
        (pass, latency_ms)
    };

    if cfg.trace {
        // Untraced, traced, untraced groups of batches.
        let mut groups = Vec::new();
        let mut untraced_ms = Vec::new();
        for g in 0..3 {
            let mut sum = drive::PipelinePass::default();
            for j in 0..trace_group(cfg) {
                let (pass, latency_ms) = iteration(&mut out, g * trace_group(cfg) + j, g == 1);
                if g != 1 {
                    untraced_ms.extend(latency_ms);
                }
                sum.txs += pass.txs;
                sum.pass_ns += pass.pass_ns;
                sum.admit_ns += pass.admit_ns;
                sum.seal_ns += pass.seal_ns;
                sum.import_ns += pass.import_ns;
                sum.blocks += pass.blocks;
                sum.gas += pass.gas;
                sum.speculative += pass.speculative;
                sum.reexecuted += pass.reexecuted;
            }
            groups.push(sum);
        }
        latency_layers(&mut out, &untraced_ms);
        pipeline_layers(&mut out, cfg, &groups[1]);
        finish_trace(
            &mut out,
            groups[1].pass_ns,
            &[groups[0].pass_ns, groups[2].pass_ns],
        );
    } else {
        let it = Iterations::run(cfg, |i| {
            let (pass, latency_ms) = iteration(&mut out, i, false);
            (pass.txs as f64 / secs(pass.pass_ns), latency_ms)
        });
        out.end_to_end = it.end_to_end(&setup_s);
    }
    out.digest = drive::digest(&digested);
    out
}

fn pipeline_layers(out: &mut Outcome, cfg: &Config, pass: &drive::PipelinePass) {
    let txs = pass.txs as f64;
    let total = pass.pass_ns as f64;
    out.layer("chain.admit_us_per_tx", pass.admit_ns as f64 / txs / 1e3);
    out.layer("chain.seal_us_per_tx", pass.seal_ns as f64 / txs / 1e3);
    out.layer("chain.import_us_per_tx", pass.import_ns as f64 / txs / 1e3);
    out.layer("chain.txs_per_block", txs / pass.blocks.max(1) as f64);
    out.layer("chain.speculative_share", pass.speculative as f64 / txs);
    out.layer("chain.reexecuted_share", pass.reexecuted as f64 / txs);
    out.layer("chain.gas_per_tx", pass.gas as f64 / txs);
    out.layer("chain.admit_share", pass.admit_ns as f64 / total);
    out.layer("chain.seal_share", pass.seal_ns as f64 / total);
    out.layer("chain.import_share", pass.import_ns as f64 / total);

    trace::set_enabled(true, 2);
    let k = kernels(out, cfg);
    // A formula never claims more than the direct span it lives in.
    // Admission is batch sender recovery plus pool insertion; the
    // follower recovers every sender again, serially; producer and
    // follower each execute and fold every transaction (a transfer
    // touches two accounts, a store two accounts and a slot).
    let (admit, seal, import) = (
        pass.admit_ns as f64,
        pass.seal_ns as f64,
        pass.import_ns as f64,
    );
    let admit_recover = admit.min(txs * k["crypto.recover_batch_us_per_sig"] * 1e3);
    let follower_recover = import.min(txs * k["crypto.recover_us"] * 1e3);
    let trie_ns =
        seal.min((2.5 * txs + pass.blocks as f64) * k["trie.incremental_root_us_per_key"] * 1e3);
    let follower_trie = trie_ns.min(import - follower_recover);
    Attribution {
        crypto: admit_recover + follower_recover,
        evm: (seal - trie_ns) + (import - follower_recover - follower_trie),
        state_trie: trie_ns + follower_trie,
        mempool: (admit - admit_recover)
            .min(txs * (k["mempool.insert_ns"] + k["mempool.pack_ns_per_tx"])),
        session_engine: 0.0,
        net_proofs: 0.0,
    }
    .report(out, total);
}

// ---------------------------------------------------------------------
// state_bulk
// ---------------------------------------------------------------------

/// Timings and counts of one churn-then-read iteration (or a sum of
/// several).
#[derive(Default)]
struct StateRepeat {
    write_ns: u64,
    fold_ns: u64,
    prove_account_ns: u64,
    prove_storage_ns: u64,
    verify_account_ns: u64,
    verify_storage_ns: u64,
    account_reads: u64,
    storage_reads: u64,
    witness_bytes: u64,
    proof_nodes: u64,
    wall_ns: u64,
    rounds: u64,
    read_ms: Vec<f64>,
}

impl StateRepeat {
    fn absorb(&mut self, o: StateRepeat) {
        self.write_ns += o.write_ns;
        self.fold_ns += o.fold_ns;
        self.prove_account_ns += o.prove_account_ns;
        self.prove_storage_ns += o.prove_storage_ns;
        self.verify_account_ns += o.verify_account_ns;
        self.verify_storage_ns += o.verify_storage_ns;
        self.account_reads += o.account_reads;
        self.storage_reads += o.storage_reads;
        self.witness_bytes += o.witness_bytes;
        self.proof_nodes += o.proof_nodes;
        self.wall_ns += o.wall_ns;
        self.rounds += o.rounds;
        self.read_ms.extend(o.read_ms);
    }
}

fn state_repeat(
    s: &mut drive::StateBulk,
    cfg: &Config,
    sizes: &Sizes,
    repeat: u64,
    out: &mut Outcome,
) -> StateRepeat {
    let rounds = gen::churn_rounds(cfg.seed, repeat, sizes);
    let reads = gen::proof_reads(cfg.seed, repeat, sizes);
    let mut r = StateRepeat {
        rounds: rounds.len() as u64,
        ..StateRepeat::default()
    };
    let started = Instant::now();
    for round in &rounds {
        let (write_ns, fold_ns) = drive::state_churn(s, round);
        r.write_ns += write_ns;
        r.fold_ns += fold_ns;
    }
    for read in reads {
        let o = drive::state_read(s, read);
        out.attempted += 1;
        out.failed += u64::from(!o.ok);
        match read {
            gen::ProofRead::Account { .. } => {
                r.prove_account_ns += o.prove_ns;
                r.verify_account_ns += o.verify_ns;
                r.account_reads += 1;
            }
            gen::ProofRead::Storage { .. } => {
                r.prove_storage_ns += o.prove_ns;
                r.verify_storage_ns += o.verify_ns;
                r.storage_reads += 1;
            }
        }
        r.witness_bytes += o.witness_bytes;
        r.proof_nodes += o.nodes;
        r.read_ms.push(ms(o.prove_ns + o.verify_ns));
    }
    r.wall_ns = started.elapsed().as_nanos() as u64;
    r
}

fn state(cfg: &Config, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let (mut s, cold_fold_ns) = cfg.set_up(&mut setup_s, || drive::state_setup(cfg.seed, sizes));

    // Warm-up: one iteration of its own input family.
    state_repeat(&mut s, cfg, sizes, u64::MAX, &mut out);

    let updates_per_round = (sizes.state_writes + sizes.state_bumps) as f64;
    // The state continues across iterations, so only a prefix every run
    // reaches is digested.
    let mut roots = Vec::new();
    let mut iteration = |s: &mut drive::StateBulk, out: &mut Outcome, i: usize| {
        let r = state_repeat(s, cfg, sizes, i as u64, out);
        if i < cfg.min_repeats() {
            roots.extend_from_slice(&drive::state_root(s));
        }
        r
    };
    if cfg.trace {
        // Untraced, traced, untraced groups of iterations.
        let mut groups = Vec::new();
        for g in 0..3 {
            trace::set_enabled(g == 1, g as u32);
            let mut sum = StateRepeat::default();
            for j in 0..trace_group(cfg) {
                sum.absorb(iteration(&mut s, &mut out, g * trace_group(cfg) + j));
            }
            groups.push(sum);
        }
        trace::set_enabled(true, 1);
        let untraced_ms: Vec<f64> = [&groups[0], &groups[2]]
            .iter()
            .flat_map(|g| g.read_ms.iter().copied())
            .collect();
        latency_layers(&mut out, &untraced_ms);
        state_layers(
            &mut out,
            cfg,
            &s,
            &groups[1],
            cold_fold_ns,
            updates_per_round,
        );
        finish_trace(
            &mut out,
            groups[1].wall_ns,
            &[groups[0].wall_ns, groups[2].wall_ns],
        );
    } else {
        let it = Iterations::run(cfg, |i| {
            let r = iteration(&mut s, &mut out, i);
            (
                updates_per_round * r.rounds as f64 / secs(r.write_ns + r.fold_ns),
                r.read_ms,
            )
        });
        out.end_to_end = it.end_to_end(&setup_s);
    }
    out.digest = drive::digest(&roots);
    out
}

fn state_layers(
    out: &mut Outcome,
    cfg: &Config,
    s: &drive::StateBulk,
    r: &StateRepeat,
    cold_fold_ns: u64,
    updates_per_round: f64,
) {
    let updates = updates_per_round * r.rounds as f64;
    let reads = (r.account_reads + r.storage_reads) as f64;
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    out.layer("chain.state_write_ns", r.write_ns as f64 / updates);
    out.layer("chain.fold_ms_per_round", ms(r.fold_ns) / r.rounds as f64);
    out.layer(
        "chain.prove_account_us",
        per(r.prove_account_ns, r.account_reads) / 1e3,
    );
    out.layer(
        "chain.prove_storage_us",
        per(r.prove_storage_ns, r.storage_reads) / 1e3,
    );
    out.layer(
        "chain.verify_account_us",
        per(r.verify_account_ns, r.account_reads) / 1e3,
    );
    out.layer(
        "chain.verify_storage_us",
        per(r.verify_storage_ns, r.storage_reads) / 1e3,
    );
    out.layer(
        "chain.state_updates_per_s",
        updates / secs(r.write_ns + r.fold_ns),
    );
    let read_ns =
        r.prove_account_ns + r.prove_storage_ns + r.verify_account_ns + r.verify_storage_ns;
    out.layer("chain.proof_reads_per_s", reads / secs(read_ns));
    out.layer(
        "chain.witness_bytes_per_read",
        r.witness_bytes as f64 / reads,
    );
    out.layer("chain.proof_nodes_per_read", r.proof_nodes as f64 / reads);
    let wall = r.wall_ns as f64;
    out.layer("chain.write_share", r.write_ns as f64 / wall);
    out.layer("chain.fold_share", r.fold_ns as f64 / wall);
    out.layer(
        "chain.prove_share",
        (r.prove_account_ns + r.prove_storage_ns) as f64 / wall,
    );
    out.layer(
        "chain.verify_share",
        (r.verify_account_ns + r.verify_storage_ns) as f64 / wall,
    );
    out.layer("chain.cold_fold_ms", ms(cold_fold_ns));

    let (export_ns, import_ns, bytes, reproduced) = drive::state_snapshot(s);
    out.check(reproduced, || {
        "re-importing the exported snapshot did not reproduce the state root".to_string()
    });
    out.layer("chain.snapshot_export_ms", ms(export_ns));
    out.layer("chain.snapshot_import_ms", ms(import_ns));
    out.layer("chain.snapshot_bytes", bytes as f64);

    kernels(out, cfg);
    Attribution {
        crypto: 0.0,
        evm: 0.0,
        state_trie: (r.write_ns + r.fold_ns + read_ns) as f64,
        mempool: 0.0,
        session_engine: 0.0,
        net_proofs: 0.0,
    }
    .report(out, wall);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Outcome::layer` refuses undeclared names at run time; this is
    /// the other half: nothing declared is left without an emitter.
    #[test]
    fn every_declared_per_layer_metric_has_an_emitter() {
        let sources = [include_str!("workloads.rs"), include_str!("drive.rs")];
        for m in &metrics::PER_LAYER {
            let literal = format!("\"{}\"", m.name);
            assert!(
                sources.iter().any(|s| s.contains(&literal)),
                "{} is declared but never emitted",
                m.name
            );
        }
        let emitted: Vec<&str> = Iterations {
            ops_per_s: vec![1.0],
            p50_ms: vec![1.0],
        }
        .end_to_end(&[1.0])
        .iter()
        .map(|m| m.name)
        .collect();
        let declared: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(emitted, declared);
    }

    /// The whole session path at the smallest size: two sessions (one
    /// honest, one disputed) settle, pass every invariant, replay into
    /// a fresh node, and repeat bit for bit; another seed differs.
    #[test]
    fn two_sessions_settle_replay_and_repeat_exactly() {
        let run_once = |seed: u64| {
            let plans = gen::mixed_plans(seed, 2, 16);
            let (mut net, _) = drive::session_net(&plans, Topology::single());
            let run = drive::session_run(&mut net);
            let mut out = Outcome::default();
            check_session_run(&mut out, "test", &run);
            assert!(out.correct(), "{:?}", out.problems);
            assert_eq!((out.attempted, out.failed), (2, 0));
            assert!(
                run.sessions[1].stage_gas[3] > 0,
                "the silent loser is disputed"
            );
            assert!(drive::replay(&net).ok);
            session_digest(&run)
        };
        let first = run_once(1);
        assert_eq!(first, run_once(1));
        assert_ne!(first, run_once(2));
    }

    #[test]
    fn iterations_stop_near_the_budget_and_report_medians() {
        let cfg = Config {
            seed: 1,
            seconds: 0.02,
            trace: false,
            quick: false,
        };
        let it = Iterations::run(&cfg, |i| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            (10.0 + i as f64, vec![1.0, 2.0, 3.0])
        });
        assert!(it.ops_per_s.len() >= 3, "never fewer than three iterations");
        assert!(it.ops_per_s.len() < 30, "stops once the budget is spent");
        assert!(it.p50_ms.iter().all(|&p| p == 2.0));
        let e2e = it.end_to_end(&[0.5, 0.7, 0.6]);
        assert_eq!(e2e[0].value, stats::median(&it.ops_per_s));
        assert_eq!(e2e[3].value, 0.6);
    }
}
