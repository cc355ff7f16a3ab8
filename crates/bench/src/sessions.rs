//! Measures the session engine's multiplexing throughput: N mixed
//! honest/Byzantine sessions driven by one
//! [`NetworkScheduler`](sc_core::NetworkScheduler) over a single node.
//!
//! For each N the workload is the same behavioural mix the session test
//! suite uses (all six betting strategy pairs plus four challenge
//! cells, a quarter of the sessions under seeded fault schedules,
//! staggered starts). Reported per point: wall-clock sessions/sec, mean
//! gas per session, and the block-sharing ratio (admitted txs per
//! shared block — above 1 means batching is real). The numbers land in
//! `BENCH_sessions.json` at the repository root.

use sc_chain::PoolConfig;
use sc_core::{
    BettingSpec, ChallengeSpec, CrashPoint, NetworkScheduler, SessionSpec, Strategy,
    SubmitStrategy, WatchStrategy,
};
use std::time::Instant;

use crate::secrets_bob_wins;

/// One behavioural cell of the benchmark mix (same ten cells the
/// session test suite randomises over).
fn spec_cell(code: u8, fault_seed: Option<u64>, start_delay: u64) -> SessionSpec {
    let secrets = secrets_bob_wins(16);
    let betting = |alice, bob| {
        SessionSpec::Betting(BettingSpec {
            alice,
            bob,
            secrets,
            fault_seed,
            start_delay,
            ..BettingSpec::default()
        })
    };
    let challenge = |submit, watch, crash| {
        SessionSpec::Challenge(ChallengeSpec {
            secrets,
            submit,
            watch,
            crash,
            fault_seed,
            start_delay,
            ..ChallengeSpec::default()
        })
    };
    match code % 10 {
        0 => betting(Strategy::Honest, Strategy::Honest),
        1 => betting(Strategy::SilentLoser, Strategy::Honest),
        2 => betting(Strategy::ForgingLoser, Strategy::Honest),
        3 => betting(Strategy::Honest, Strategy::NoShow),
        4 => betting(Strategy::Honest, Strategy::RefusesToSign),
        5 => betting(Strategy::SignsTampered, Strategy::Honest),
        6 => challenge(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        ),
        7 => challenge(
            SubmitStrategy::False,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        ),
        8 => challenge(
            SubmitStrategy::False,
            WatchStrategy::Asleep,
            CrashPoint::None,
        ),
        _ => challenge(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::BeforeSubmit,
        ),
    }
}

/// The benchmark workload: `n` sessions cycling through all ten cells,
/// a quarter of them fault-seeded. Starts are staggered over
/// `max(1, n/8)` 30-second offsets, so ~8 sessions contend for each
/// block at every scale.
pub fn mixed_specs(n: usize) -> Vec<SessionSpec> {
    let offsets = (n / 8).max(1);
    (0..n)
        .map(|i| {
            let code = (i % 10) as u8;
            let seed = (i % 4 == 0).then_some(0xBE4C_0000_u64 + i as u64);
            spec_cell(code, seed, ((i % offsets) as u64) * 30)
        })
        .collect()
}

/// One measured point of a session throughput curve.
#[derive(Debug, Clone)]
pub struct SessionsPoint {
    /// Concurrent sessions multiplexed over the shared chain.
    pub sessions: usize,
    /// Wall-clock nanoseconds for the full scheduler run.
    pub elapsed_ns: u128,
    /// Mean gas charged per session (all transactions it sent).
    pub mean_gas_per_session: u64,
    /// Non-empty blocks on the node's canonical chain.
    pub blocks_mined: u64,
    /// Transactions in those blocks.
    pub txs_mined: u64,
}

impl SessionsPoint {
    /// Runs `specs` to completion on a quiet 1-node network and
    /// measures the run, asserting every session terminates in a valid
    /// outcome first; block counts are read off the node's canonical
    /// chain.
    pub fn measure(specs: Vec<SessionSpec>) -> SessionsPoint {
        let sessions = specs.len();
        let mut sched = NetworkScheduler::new(specs, 1, PoolConfig::default(), None);
        let start = Instant::now();
        let reports = sched.run();
        let elapsed_ns = start.elapsed().as_nanos();

        let mut total_gas = 0u64;
        for r in &reports {
            assert!(
                r.error.is_none() && r.outcome.is_some(),
                "session {} ({}) did not settle: {:?}",
                r.id,
                r.kind,
                r.error
            );
            total_gas += r.total_gas;
        }
        let node = sched.network().node(0);
        let (mut blocks_mined, mut txs_mined) = (0u64, 0u64);
        for block in (1..=node.head().number).filter_map(|n| node.block(n)) {
            if !block.transactions.is_empty() {
                blocks_mined += 1;
                txs_mined += block.transactions.len() as u64;
            }
        }
        SessionsPoint {
            sessions,
            elapsed_ns,
            mean_gas_per_session: total_gas / sessions.max(1) as u64,
            blocks_mined,
            txs_mined,
        }
    }

    /// Completed sessions per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        self.sessions as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    /// Mean admitted transactions per shared block (the batching ratio).
    pub fn mean_txs_per_block(&self) -> f64 {
        self.txs_mined as f64 / self.blocks_mined.max(1) as f64
    }

    /// The point as one JSON object of a `"points"` array.
    pub(crate) fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"sessions\": {},\n",
                "      \"elapsed_ns\": {},\n",
                "      \"sessions_per_sec\": {:.3},\n",
                "      \"mean_gas_per_session\": {},\n",
                "      \"blocks_mined\": {},\n",
                "      \"txs_mined\": {},\n",
                "      \"mean_txs_per_block\": {:.3}\n",
                "    }}"
            ),
            self.sessions,
            self.elapsed_ns,
            self.sessions_per_sec(),
            self.mean_gas_per_session,
            self.blocks_mined,
            self.txs_mined,
            self.mean_txs_per_block(),
        )
    }
}

/// Wall-clock results of the sessions measurement across all N.
#[derive(Debug, Clone)]
pub struct SessionsReport {
    /// One point per measured N, in ascending order.
    pub points: Vec<SessionsPoint>,
}

impl SessionsReport {
    /// Serialises the report as a small JSON object (hand-rolled: the
    /// workspace is std-only by design).
    pub fn to_json(&self) -> String {
        let points = self
            .points
            .iter()
            .map(SessionsPoint::to_json)
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n  \"bench\": \"sessions\",\n  \"points\": [\n{points}\n  ]\n}}\n")
    }
}

/// Runs one scheduler over `n` mixed sessions and measures it.
pub fn measure_point(n: usize) -> SessionsPoint {
    SessionsPoint::measure(mixed_specs(n))
}

/// Measures the full throughput curve at N ∈ {1, 16, 256}.
pub fn measure() -> SessionsReport {
    SessionsReport {
        points: [1, 16, 256].into_iter().map(measure_point).collect(),
    }
}

/// Path of the JSON artifact at the repository root.
pub fn artifact_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sessions.json")
}

/// Runs the measurement, writes `BENCH_sessions.json` at the repo root
/// and returns the report.
pub fn run_and_write() -> std::io::Result<SessionsReport> {
    let report = measure();
    std::fs::write(artifact_path(), report.to_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_16_sessions() {
        let p = measure_point(16);
        assert_eq!(p.sessions, 16);
        assert!(p.elapsed_ns > 0);
        assert!(
            p.mean_gas_per_session > 21_000,
            "sessions reached the chain"
        );
        assert!(
            p.mean_txs_per_block() > 1.0,
            "16 sessions must share blocks: {} txs over {} blocks",
            p.txs_mined,
            p.blocks_mined
        );
    }

    #[test]
    fn json_shape() {
        let r = SessionsReport {
            points: vec![SessionsPoint {
                sessions: 2,
                elapsed_ns: 1_000_000_000,
                mean_gas_per_session: 50_000,
                blocks_mined: 4,
                txs_mined: 10,
            }],
        };
        let json = r.to_json();
        assert!(json.contains("\"sessions_per_sec\": 2.000"));
        assert!(json.contains("\"mean_txs_per_block\": 2.500"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
