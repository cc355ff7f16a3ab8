//! Measures what optimistic parallel execution buys at the seal: the
//! same packed block committed by [`Testnet::mine_block`] under
//! [`ExecMode::Serial`] and under [`ExecMode::Parallel`] (Block-STM-style
//! speculation plus in-order validation), admission caches hot in both.
//!
//! Two workloads per N: *conflict-light* (every sender writes its own
//! storage slot — the whole block validates speculatively) and
//! *conflict-heavy* (every transaction read-modify-writes slot 0 of one
//! contract — only the first speculation survives, the rest re-execute
//! serially). The two blocks are asserted byte-identical before any
//! number is reported. `benches/parallel_evm.rs` prints the table: it is
//! the one comparison `e2e_bench` cannot make (the ruler measures the
//! default executor and refuses `SC_EXEC_MODE`). The speedup is serial
//! over parallel — the strongest baseline — and a single-shot
//! wall-clock ratio, so nothing gates on it; the deterministic
//! conflict-light abort rate is pinned by
//! `chain/tests/parallel.rs::disjoint_block_commits_fully_speculatively`.

use sc_chain::{ChainConfig, ExecMode, SealReport, Testnet, Transaction};
use sc_primitives::{gwei, U256};
use std::time::Instant;

/// Runtime that stores calldata word 1 at the slot named by calldata
/// word 0.
const STORE_RUNTIME: [u8; 8] = [0x60, 0x20, 0x35, 0x60, 0x00, 0x35, 0x55, 0x00];

/// Runtime that increments slot 0 — `PUSH1 0 SLOAD PUSH1 1 ADD PUSH1 0
/// SSTORE STOP` — so every call both reads and writes the same hot
/// slot: the worst case for speculation.
const RMW_RUNTIME: [u8; 10] = [0x60, 0x00, 0x54, 0x60, 0x01, 0x01, 0x60, 0x00, 0x55, 0x00];

/// The two block shapes measured at every N.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Disjoint senders, disjoint slots — zero conflicts.
    ConflictLight,
    /// Every transaction read-modify-writes the same slot.
    ConflictHeavy,
}

/// One (workload, N) measurement.
#[derive(Debug, Clone)]
pub struct ParallelPoint {
    /// Transactions in the measured block.
    pub n: usize,
    /// Which block shape was mined.
    pub workload: Workload,
    /// Seal time of the serial executor, nanoseconds.
    pub cached_serial_ns: u128,
    /// Seal time of the parallel executor, nanoseconds.
    pub parallel_ns: u128,
    /// Transactions whose speculation validated and committed directly.
    pub speculative: usize,
    /// Transactions that conflicted and re-executed in commit order.
    pub reexecuted: usize,
    /// Worker threads available to the speculation fan-out.
    pub workers: usize,
}

impl ParallelPoint {
    /// Serial seal time over parallel seal time.
    pub fn speedup(&self) -> f64 {
        self.cached_serial_ns as f64 / self.parallel_ns.max(1) as f64
    }

    /// Fraction of the block that conflicted (0.0 for a fully
    /// speculative block).
    pub fn abort_rate(&self) -> f64 {
        self.reexecuted as f64 / (self.speculative + self.reexecuted).max(1) as f64
    }
}

/// Results of the parallel-execution measurement across all points.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Worker threads the fan-out could use.
    pub workers: usize,
    /// Every (workload, N) point, conflict-light first, N ascending.
    pub points: Vec<ParallelPoint>,
}

/// Initcode deploying an arbitrary short runtime (≤ 32 bytes).
fn initcode(runtime: &[u8]) -> Vec<u8> {
    sc_evm::wrap_initcode(runtime)
}

/// `store(slot, value)` calldata for [`STORE_RUNTIME`].
fn store_calldata(slot: u64, value: u64) -> Vec<u8> {
    let mut data = Vec::with_capacity(64);
    data.extend_from_slice(&U256::from_u64(slot).to_be_bytes());
    data.extend_from_slice(&U256::from_u64(value).to_be_bytes());
    data
}

/// Boots one chain in `mode`, deploys the workload contract and queues
/// the block's transactions without mining them.
fn prepare(mode: ExecMode, workload: Workload, n: usize) -> Testnet {
    let mut net = Testnet::with_config(ChainConfig {
        exec: mode,
        // All N calls must land in ONE block — the unit this bench
        // times — so the limit scales with the widest point.
        block_gas_limit: 64_000_000,
        ..ChainConfig::default()
    });
    let deployer = net.funded_wallet("deployer", sc_primitives::ether(10));
    let runtime: &[u8] = match workload {
        Workload::ConflictLight => &STORE_RUNTIME,
        Workload::ConflictHeavy => &RMW_RUNTIME,
    };
    let r = net
        .deploy(&deployer, initcode(runtime), U256::ZERO, 200_000)
        .expect("workload contract deploy admitted");
    assert!(r.success, "workload deploy failed: {:?}", r.failure);
    let target = r.contract_address.expect("created");

    for i in 0..n {
        let w = net.funded_wallet(&format!("w{i}"), sc_primitives::ether(1));
        let data = match workload {
            Workload::ConflictLight => store_calldata(i as u64, 0x1000 + i as u64),
            Workload::ConflictHeavy => Vec::new(),
        };
        let tx = Transaction {
            nonce: 0,
            gas_price: gwei(1),
            gas_limit: 80_000,
            to: Some(target),
            value: U256::ZERO,
            data,
        };
        net.submit(tx.sign(&w.key)).expect("bench tx admitted");
    }
    net
}

/// Measures one (workload, N): two identically-prepared chains, one
/// timed seal each, blocks asserted byte-identical before reporting.
pub fn measure_point(workload: Workload, n: usize) -> ParallelPoint {
    let mut cached = prepare(ExecMode::Serial, workload, n);
    let mut parallel = prepare(ExecMode::Parallel, workload, n);

    let start = Instant::now();
    let cached_block = cached.mine_block();
    let cached_serial_ns = start.elapsed().as_nanos();

    let start = Instant::now();
    let par_block = parallel.mine_block();
    let parallel_ns = start.elapsed().as_nanos();

    assert_eq!(cached_block.hash, par_block.hash, "parallel seal diverged");
    assert_eq!(cached_block.transactions.len(), n, "block dropped txs");

    let SealReport {
        speculative,
        reexecuted,
        ..
    } = parallel.last_seal_report().expect("sealed");
    ParallelPoint {
        n,
        workload,
        cached_serial_ns,
        parallel_ns,
        speculative,
        reexecuted,
        workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

/// Measures both workloads at N ∈ {1, 16, 256}.
pub fn measure() -> ParallelReport {
    let mut points = Vec::new();
    for workload in [Workload::ConflictLight, Workload::ConflictHeavy] {
        for n in [1usize, 16, 256] {
            points.push(measure_point(workload, n));
        }
    }
    ParallelReport {
        workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_point_is_fully_speculative() {
        let p = measure_point(Workload::ConflictLight, 8);
        assert_eq!(p.n, 8);
        assert_eq!(p.speculative, 8);
        assert_eq!(p.reexecuted, 0);
        assert_eq!(p.abort_rate(), 0.0);
        assert!(p.cached_serial_ns > 0 && p.parallel_ns > 0);
    }

    #[test]
    fn heavy_point_conflicts_everywhere_but_first() {
        let p = measure_point(Workload::ConflictHeavy, 8);
        assert_eq!(p.speculative, 1, "only the first RMW validates");
        assert_eq!(p.reexecuted, 7);
        assert!(p.abort_rate() > 0.8);
    }
}
