//! Measures the block-pipeline optimisations end to end: parallel batch
//! admission vs serial submits, and cold vs warm code-analysis cache.
//!
//! Every comparison first asserts the two paths produce **identical
//! observable results** (admission outcomes, block hash, gas) — these are
//! perf knobs, not consensus changes — then times them. The numbers land
//! in `BENCH_pipeline.json` at the repository root so CI and the paper
//! artifacts can track regressions.

use sc_chain::{ChainConfig, SignedTransaction, Testnet, Transaction, TxError, Wallet};
use sc_evm::AnalysisCache;
use sc_primitives::{ether, gwei, Address, H256, U256};
use std::sync::Arc;
use std::time::Instant;

/// How many wallets sign the admission workload (senders interleave, so
/// nonce sequencing inside the batch is exercised).
const WALLETS: usize = 8;

/// Wall-clock results of one pipeline measurement run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Transactions per admission batch.
    pub tx_count: usize,
    /// Nanoseconds to admit the batch via per-tx [`Testnet::submit`].
    pub serial_admission_ns: u128,
    /// Nanoseconds to admit the same batch via [`Testnet::submit_batch`].
    pub batch_admission_ns: u128,
    /// Worker threads the batch path could fan out to.
    pub threads: usize,
    /// Bytes of synthetic code used for the analysis measurement.
    pub analysis_code_len: usize,
    /// Nanoseconds per cold analysis (empty cache each lookup).
    pub cold_analysis_ns: u128,
    /// Nanoseconds per warm lookup (cache pre-populated).
    pub warm_analysis_ns: u128,
}

impl PipelineReport {
    /// serial / batch admission time (>1 means the batch path wins).
    pub fn admission_speedup(&self) -> f64 {
        self.serial_admission_ns as f64 / self.batch_admission_ns.max(1) as f64
    }

    /// cold / warm analysis time (>1 means the warm cache wins).
    pub fn analysis_speedup(&self) -> f64 {
        self.cold_analysis_ns as f64 / self.warm_analysis_ns.max(1) as f64
    }

    /// Serialises the report as a small JSON object (hand-rolled: the
    /// workspace is std-only by design).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"pipeline\",\n",
                "  \"tx_count\": {},\n",
                "  \"threads\": {},\n",
                "  \"serial_admission_ns\": {},\n",
                "  \"batch_admission_ns\": {},\n",
                "  \"admission_speedup\": {:.3},\n",
                "  \"analysis_code_len\": {},\n",
                "  \"cold_analysis_ns\": {},\n",
                "  \"warm_analysis_ns\": {},\n",
                "  \"analysis_speedup\": {:.3}\n",
                "}}\n"
            ),
            self.tx_count,
            self.threads,
            self.serial_admission_ns,
            self.batch_admission_ns,
            self.admission_speedup(),
            self.analysis_code_len,
            self.cold_analysis_ns,
            self.warm_analysis_ns,
            self.analysis_speedup(),
        )
    }
}

/// A chain pre-funded with the benchmark wallets, plus a signed batch of
/// `n` interleaved transfers ready to admit.
fn admission_workload(n: usize) -> (Testnet, Vec<SignedTransaction>) {
    let mut net = Testnet::with_config(ChainConfig::default());
    let wallets: Vec<Wallet> = (0..WALLETS)
        .map(|i| net.funded_wallet(&format!("pipeline-{i}"), ether(100)))
        .collect();
    let mut next_nonce = [0u64; WALLETS];
    let txs = (0..n)
        .map(|i| {
            let w = i % WALLETS;
            let tx = Transaction {
                nonce: next_nonce[w],
                gas_price: gwei(1),
                gas_limit: 21_000,
                to: Some(Address([0x99; 20])),
                value: U256::from_u64(i as u64 + 1),
                data: vec![],
            };
            next_nonce[w] += 1;
            tx.sign(&wallets[w].key)
        })
        .collect();
    (net, txs)
}

/// Admits `txs` one by one, returning outcomes plus the mined block hash.
fn admit_serial(
    net: &mut Testnet,
    txs: Vec<SignedTransaction>,
) -> (Vec<Result<H256, TxError>>, H256) {
    let outcomes: Vec<_> = txs.into_iter().map(|t| net.submit(t)).collect();
    (outcomes, net.mine_block().hash)
}

/// Admits `txs` via the parallel batch path, returning the same shape.
fn admit_batch(
    net: &mut Testnet,
    txs: Vec<SignedTransaction>,
) -> (Vec<Result<H256, TxError>>, H256) {
    let outcomes = net.submit_batch(txs);
    (outcomes, net.mine_block().hash)
}

/// Times serial vs batch admission of an `n`-transaction workload,
/// asserting both paths agree before trusting either number.
pub fn measure_admission(n: usize, rounds: usize) -> (u128, u128) {
    // Equivalence gate first (untimed).
    let (mut net_a, txs) = admission_workload(n);
    let (mut net_b, _) = admission_workload(n);
    let (serial_out, serial_hash) = admit_serial(&mut net_a, txs.clone());
    let (batch_out, batch_hash) = admit_batch(&mut net_b, txs);
    assert_eq!(serial_out, batch_out, "admission outcomes diverged");
    assert_eq!(serial_hash, batch_hash, "mined blocks diverged");

    let mut best_serial = u128::MAX;
    let mut best_batch = u128::MAX;
    for _ in 0..rounds {
        let (mut net, txs) = admission_workload(n);
        let start = Instant::now();
        let _ = admit_serial(&mut net, txs);
        best_serial = best_serial.min(start.elapsed().as_nanos());

        let (mut net, txs) = admission_workload(n);
        let start = Instant::now();
        let _ = admit_batch(&mut net, txs);
        best_batch = best_batch.min(start.elapsed().as_nanos());
    }
    (best_serial, best_batch)
}

/// Synthetic bytecode alternating `JUMPDEST`s and `PUSH2` immediates, the
/// worst case for the analyser (every push must be skipped).
pub fn analysis_workload(len: usize) -> Vec<u8> {
    let mut code = Vec::with_capacity(len);
    while code.len() + 4 <= len {
        code.extend_from_slice(&[0x5b, 0x61, 0x5b, 0x5b]); // JUMPDEST, PUSH2 0x5b5b
    }
    code.resize(len, 0x5b);
    code
}

/// Times cold (cleared cache) vs warm (pre-populated) analysis lookups of
/// the same code, asserting the warm result is the same analysis.
pub fn measure_analysis(code_len: usize, rounds: usize) -> (u128, u128) {
    let code = analysis_workload(code_len);
    let hash = sc_crypto::keccak256(&code);
    let cache = Arc::new(AnalysisCache::new());

    let reference = cache.get_or_analyze(hash, &code);

    let mut best_cold = u128::MAX;
    let mut best_warm = u128::MAX;
    for _ in 0..rounds {
        cache.clear();
        let start = Instant::now();
        let cold = cache.get_or_analyze(hash, &code);
        best_cold = best_cold.min(start.elapsed().as_nanos());
        assert_eq!(*cold, *reference);

        let start = Instant::now();
        let warm = cache.get_or_analyze(hash, &code);
        best_warm = best_warm.min(start.elapsed().as_nanos());
        assert!(Arc::ptr_eq(&warm, &cold), "warm lookup must hit");
    }
    (best_cold, best_warm)
}

/// Runs the full pipeline measurement with default sizes.
pub fn measure(tx_count: usize, rounds: usize) -> PipelineReport {
    let (serial_admission_ns, batch_admission_ns) = measure_admission(tx_count, rounds);
    let analysis_code_len = 16 * 1024;
    let (cold_analysis_ns, warm_analysis_ns) = measure_analysis(analysis_code_len, 64);
    PipelineReport {
        tx_count,
        serial_admission_ns,
        batch_admission_ns,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        analysis_code_len,
        cold_analysis_ns,
        warm_analysis_ns,
    }
}

/// Path of the JSON artifact at the repository root.
pub fn artifact_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json")
}

/// Runs the measurement, writes `BENCH_pipeline.json` at the repo root
/// and returns the report.
pub fn run_and_write() -> std::io::Result<PipelineReport> {
    let report = measure(96, 3);
    std::fs::write(artifact_path(), report.to_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_paths_agree_and_time() {
        let (serial, batch) = measure_admission(16, 1);
        assert!(serial > 0 && batch > 0);
    }

    #[test]
    fn analysis_warm_beats_cold() {
        let (cold, warm) = measure_analysis(16 * 1024, 16);
        assert!(
            warm < cold,
            "warm lookup ({warm} ns) should beat cold analysis ({cold} ns)"
        );
    }

    #[test]
    fn workload_code_shape() {
        let code = analysis_workload(1000);
        assert_eq!(code.len(), 1000);
        let analysis = sc_evm::CodeAnalysis::analyze(&code);
        assert!(analysis.is_jumpdest(0));
        assert!(!analysis.is_jumpdest(2), "inside PUSH2 immediate");
    }

    #[test]
    fn json_shape() {
        let r = PipelineReport {
            tx_count: 4,
            serial_admission_ns: 100,
            batch_admission_ns: 50,
            threads: 2,
            analysis_code_len: 8,
            cold_analysis_ns: 10,
            warm_analysis_ns: 2,
        };
        let json = r.to_json();
        assert!(json.contains("\"admission_speedup\": 2.000"));
        assert!(json.contains("\"analysis_speedup\": 5.000"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
