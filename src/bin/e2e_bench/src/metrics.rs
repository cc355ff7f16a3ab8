//! The declared surface of the benchmark: workloads, end-to-end
//! metrics with their regression bounds, and per-layer metrics with the
//! end-to-end number each is expected to move. `/BENCHMARK.json` is
//! this table serialised (`e2e_bench --manifest`); a unit test keeps
//! the two equal, and another keeps every run's output equal to the
//! declared names.

use crate::json::Json;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "src/bin/e2e_bench/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["src/bin/e2e_bench"];
/// Seconds one run measures for; also the default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "mixed256",
        why: "256 sessions over ten honest/Byzantine cells on one node: tx signing and admission ecrecover dominate, EVM/trie/mempool do little, so an executor change predicts no move here",
    },
    Workload {
        name: "dispute_heavy96",
        why: "96 sessions that all end in dispute with reveal() at weight 20000 (6 Mgas per dispute): EVM interpretation is about half the run, the only workload an interpreter change can show on",
    },
    Workload {
        name: "confidential32",
        why: "32 settle-later sessions: range prove/verify and precompile 0x0C dominate, which every other workload bypasses",
    },
    Workload {
        name: "net4_partition",
        why: "96 mixed sessions on 4 gossiping nodes with a forced 40-round cut: import/replay on followers, fork choice, reorg and orphan resubmission; same mix as mixed256, so the ratio prices replication",
    },
    Workload {
        name: "chain_pipeline",
        why: "512 pre-signed txs per batch through submit_batch, mine_block and follower import_block over 200k accounts, then single txs: the block pipeline without the session engine",
    },
    Workload {
        name: "state_bulk",
        why: "WorldState alone, 200k accounts: churn rounds folded to a root, then proof reads verified; no signatures, no EVM, so trie writes and reads sit side by side",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What it is on each kind of workload (README table).
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "closed-loop throughput, median over the iterations: sessions settled per second of run() (session workloads), txs per second of admit+seal+import (chain_pipeline), state updates per second of write+fold (state_bulk)",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "per latency pass the median latency of one operation alone on an idle system, then the median over the iterations: run() of one session on a fresh network (session workloads), submit→mine→import of one tx (chain_pipeline), prove+verify of one read (state_bulk)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of the per-workload process",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median set-up time: input generation, contract compilation inside the scheduler constructor, genesis funding, cold fold, pre-signing",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly for one seed: compared with zero tolerance.
    pub exact: bool,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn time(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        moves,
    }
}

const fn rate(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
        moves,
    }
}

const fn count(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        moves,
    }
}

const PIPELINE: &str = "ops_per_s on chain_pipeline";
const STATE: &str = "ops_per_s / op_ms_p50 on state_bulk";
const SESSIONS: &str = "ops_per_s on the four session workloads";
const NET4: &str = "net4_partition only";
const LIGHT: &str = "core.light.witness_bytes_per_session (net4_partition light pass)";
const CRYPTO: &str = "ops_per_s on all four session workloads and chain_pipeline";
const CONF: &str = "ops_per_s on confidential32 only";
const DISPUTE: &str = "ops_per_s on dispute_heavy96; predicted flat on mixed256";
const TRIE: &str = "state_bulk metrics, chain.seal_us_per_tx";
const MEMPOOL: &str = "chain.admit_us_per_tx / chain.seal_us_per_tx; predicted flat elsewhere";
const ATTR: &str = "share of the traced run, by formula (README)";

pub const PER_LAYER: [Layer; 94] = [
    // Direct spans: the benchmark makes the call itself.
    time("chain.admit_us_per_tx", "us", PIPELINE),
    time("chain.seal_us_per_tx", "us", PIPELINE),
    time(
        "chain.import_us_per_tx",
        "us",
        "ops_per_s on chain_pipeline; also net4_partition (x3 followers), not mixed256",
    ),
    count("chain.txs_per_block", "count", PIPELINE),
    rate("chain.speculative_share", "ratio", PIPELINE),
    count("chain.reexecuted_share", "ratio", PIPELINE),
    count("chain.gas_per_tx", "gas", PIPELINE),
    rate(
        "chain.admit_share",
        "ratio",
        "direct span share of one chain_pipeline pass",
    ),
    rate(
        "chain.seal_share",
        "ratio",
        "direct span share of one chain_pipeline pass",
    ),
    rate(
        "chain.import_share",
        "ratio",
        "direct span share of one chain_pipeline pass",
    ),
    time("chain.state_write_ns", "ns", STATE),
    time(
        "chain.fold_ms_per_round",
        "ms",
        "ops_per_s on state_bulk; also chain.seal_us_per_tx",
    ),
    time("chain.prove_account_us", "us", STATE),
    time("chain.prove_storage_us", "us", STATE),
    time("chain.verify_account_us", "us", STATE),
    time("chain.verify_storage_us", "us", STATE),
    rate("chain.state_updates_per_s", "1/s", STATE),
    rate("chain.proof_reads_per_s", "1/s", STATE),
    count(
        "chain.witness_bytes_per_read",
        "bytes",
        "light-client bandwidth on state_bulk",
    ),
    count("chain.proof_nodes_per_read", "count", STATE),
    rate(
        "chain.write_share",
        "ratio",
        "direct span share of one state_bulk repeat",
    ),
    rate(
        "chain.fold_share",
        "ratio",
        "direct span share of one state_bulk repeat",
    ),
    rate(
        "chain.prove_share",
        "ratio",
        "direct span share of one state_bulk repeat",
    ),
    rate(
        "chain.verify_share",
        "ratio",
        "direct span share of one state_bulk repeat",
    ),
    time(
        "chain.cold_fold_ms",
        "ms",
        "setup_s on state_bulk / chain_pipeline",
    ),
    time(
        "chain.snapshot_export_ms",
        "ms",
        "setup_s on state_bulk (snapshot sync)",
    ),
    time(
        "chain.snapshot_import_ms",
        "ms",
        "setup_s on state_bulk (snapshot sync)",
    ),
    count(
        "chain.snapshot_bytes",
        "bytes",
        "setup_s on state_bulk (snapshot sync)",
    ),
    // The session engine, read from its public reports.
    time("core.new_ms", "ms", "setup_s on the session workloads"),
    time("core.run_ms", "ms", SESSIONS),
    count("core.rounds", "count", SESSIONS),
    count("core.blocks_sealed", "count", SESSIONS),
    count("core.txs_per_block", "count", SESSIONS),
    count("core.messages_per_session", "count", SESSIONS),
    count("core.txs_per_session", "count", SESSIONS),
    count("core.pool_evicted", "count", SESSIONS),
    count(
        "core.gas_per_session",
        "gas",
        "what a participant pays; the four session workloads",
    ),
    count(
        "core.dispute_gas_per_dispute",
        "gas",
        "the paper's Table II quantity; mixed256, dispute_heavy96",
    ),
    count("core.disputed_sessions", "count", SESSIONS),
    count("core.net.frames_per_session", "count", NET4),
    count("core.net.reorgs", "count", NET4),
    count("core.net.max_reorg_depth", "count", NET4),
    count("core.net.orphans_resubmitted", "count", NET4),
    count("core.net.imports_rejected", "count", NET4),
    count("core.light.proofs_per_session", "count", LIGHT),
    count("core.light.receipts_per_session", "count", LIGHT),
    count("core.light.proofs_dropped", "count", LIGHT),
    count(
        "core.light.witness_bytes_per_session",
        "bytes",
        "light-client bandwidth on net4_partition",
    ),
    time("core.light.run_ms", "ms", LIGHT),
    // Replay spans: the produced chain without the session engine.
    time(
        "replay.import_ms",
        "ms",
        "ops_per_s on net4_partition (x nodes)",
    ),
    time(
        "replay.recover_ms",
        "ms",
        "ops_per_s on net4_partition (x nodes)",
    ),
    count("replay.txs", "count", SESSIONS),
    count("replay.gas", "gas", SESSIONS),
    // Kernels: seeded fixed inputs, 256-bit scalars and blindings.
    time("crypto.sign_us", "us", CRYPTO),
    time("crypto.recover_us", "us", CRYPTO),
    time("crypto.recover_batch_us_per_sig", "us", CRYPTO),
    time("crypto.verify_us", "us", CRYPTO),
    rate(
        "crypto.keccak_mb_s",
        "MB/s",
        "as crypto.*; also ops_per_s on state_bulk",
    ),
    time("confidential.commit_us", "us", CONF),
    time("confidential.range_prove_ms", "ms", CONF),
    time("confidential.range_verify_ms", "ms", CONF),
    time("confidential.voucher_cosign_us", "us", CONF),
    time("evm.range_precompile_ms", "ms", CONF),
    time("evm.ecrecover_precompile_us", "us", DISPUTE),
    rate("evm.reveal_mgas_per_s", "Mgas/s", DISPUTE),
    time("evm.analysis_cold_us", "us", DISPUTE),
    time("evm.analysis_warm_ns", "ns", DISPUTE),
    time("trie.bulk_insert_root_ns_per_key", "ns", TRIE),
    time("trie.incremental_root_us_per_key", "us", TRIE),
    time("trie.prove_us", "us", TRIE),
    time("trie.verify_us", "us", TRIE),
    count("trie.proof_nodes_mean", "count", TRIE),
    time("mempool.insert_ns", "ns", MEMPOOL),
    time("mempool.pack_ns_per_tx", "ns", MEMPOOL),
    time("mempool.replace_ns", "ns", MEMPOOL),
    time(
        "primitives.rlp_roundtrip_ns_per_tx",
        "ns",
        "crypto.*, chain.import_us_per_tx",
    ),
    time("primitives.u256_mulmod_ns", "ns", "crypto.*"),
    time(
        "lang.compile_betting_ms",
        "ms",
        "setup_s on the session workloads",
    ),
    time(
        "contracts.generate_pair_ms",
        "ms",
        "setup_s on the session workloads",
    ),
    time(
        "contracts.native_reveal_ns_per_iter",
        "ns",
        "op_ms_p50 on dispute_heavy96",
    ),
    time(
        "core.signed_copy_us",
        "us",
        "op_ms_p50 and setup_s on the session workloads",
    ),
    time(
        "core.whisper_roundtrip_us",
        "us",
        "op_ms_p50 on the session workloads",
    ),
    // Latency samples of the traced run's untraced passes.
    time(
        "bench.op_ms_p50",
        "ms",
        "op_ms_p50 of the same workload (one pass instead of the median over passes)",
    ),
    time(
        "bench.op_ms_p95",
        "ms",
        "tail of the same samples; unbounded because a pass of 32-96 operations cannot support it",
    ),
    count(
        "bench.latency_samples",
        "count",
        "samples behind bench.op_ms_p50 / bench.op_ms_p95",
    ),
    // Attribution of the traced run.
    rate("attr.crypto_share", "ratio", ATTR),
    rate("attr.evm_share", "ratio", ATTR),
    rate("attr.state_trie_share", "ratio", ATTR),
    rate("attr.mempool_share", "ratio", ATTR),
    rate("attr.session_engine_share", "ratio", ATTR),
    rate("attr.net_proofs_share", "ratio", ATTR),
    time(
        "attr.unattributed_share",
        "ratio",
        "what the formulas do not explain; exact self-time waits for spans inside the product",
    ),
    time(
        "trace.overhead_share",
        "ratio",
        "traced repeat / untraced repeats - 1; must stay near 0",
    ),
    count(
        "trace.spans",
        "count",
        "spans recorded by the traced repeat, replay and kernels",
    ),
];

/// `BENCHMARK.json`, exactly the keys the contract allows.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    Json::obj(vec![
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_limits_follow_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(!m.moves.is_empty(), "{} names what it should move", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    #[test]
    fn committed_manifest_equals_the_table() {
        let committed = crate::json::parse(include_str!("../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `e2e_bench --manifest > BENCHMARK.json`"
        );
        let keys: Vec<&str> = committed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(manifest().to_pretty().len() < 64 * 1024);
    }
}
