//! Measures the confidential settle-later stack on three axes:
//!
//! * **Crypto throughput** — Pedersen commits and range-proof
//!   prove/verify per second, straight against [`PedersenBackend`].
//! * **On-chain gas** — the full confidential channel lifecycle
//!   (deploy, public stakes, committed deposits with range proofs,
//!   activation, voucher settle, withdrawals) measured transaction by
//!   transaction, next to the all-on-chain monolithic betting baseline.
//!   This is the price of hiding the amounts: every commitment check
//!   runs through the verifier precompiles instead of plain arithmetic.
//! * **Session throughput** — N settle-later sessions multiplexed by
//!   the [`NetworkScheduler`](sc_core::NetworkScheduler) over one node
//!   at N ∈ {1, 16, 256}, the same curve the `sessions` bench draws for
//!   the public protocols.
//!
//! The numbers land in `BENCH_confidential.json` at the repository
//! root; the gas figures are deterministic and gated by `bench_check`.

use crate::run_monolithic;
use crate::sessions::SessionsPoint;
use sc_chain::Testnet;
use sc_confidential::{CommitmentBackend, PedersenBackend, SettlementVoucher};
use sc_contracts::confidential::{ConfidentialContracts, ConfidentialParams};
use sc_core::{SessionSpec, SettleLaterCrash, SettleLaterSpec};
use sc_crypto::secp256k1::{n as curve_order, scalar};
use sc_primitives::{ether, U256};
use std::time::Instant;

/// Wall-clock throughput of the commitment backend.
#[derive(Debug, Clone)]
pub struct CryptoPoint {
    /// Mean nanoseconds per Pedersen commit.
    pub commit_ns: u128,
    /// Mean nanoseconds to prove a 16-bit range.
    pub range_prove_ns: u128,
    /// Mean nanoseconds to verify a 16-bit range proof.
    pub range_verify_ns: u128,
}

impl CryptoPoint {
    /// Commits per wall-clock second.
    pub fn commits_per_sec(&self) -> f64 {
        1e9 / self.commit_ns.max(1) as f64
    }

    /// Range-proof verifications per wall-clock second.
    pub fn range_verifies_per_sec(&self) -> f64 {
        1e9 / self.range_verify_ns.max(1) as f64
    }
}

/// Gas ledger of one full confidential channel, next to the
/// all-on-chain baseline.
#[derive(Debug, Clone)]
pub struct LifecycleGas {
    /// Contract deployment.
    pub deploy_gas: u64,
    /// One public stake (`fund()`).
    pub fund_gas: u64,
    /// One committed deposit (commitment + 16-bit range proof through
    /// the verifier precompiles).
    pub deposit_committed_gas: u64,
    /// Activation (homomorphic sum + pot opening check).
    pub activate_gas: u64,
    /// Voucher settlement (two `ecrecover`s, sum check, nullifier).
    pub settle_gas: u64,
    /// One withdrawal by opening.
    pub withdraw_gas: u64,
    /// Monolithic all-on-chain betting game, total gas (the public
    /// baseline the paper's Table 2 starts from).
    pub monolithic_total_gas: u64,
}

impl LifecycleGas {
    /// Total miner-executed gas of the confidential channel (both
    /// parties' stakes, deposits and withdrawals).
    pub fn total(&self) -> u64 {
        self.deploy_gas
            + 2 * self.fund_gas
            + 2 * self.deposit_committed_gas
            + self.activate_gas
            + self.settle_gas
            + 2 * self.withdraw_gas
    }

    /// Confidential-channel gas over the monolithic baseline.
    pub fn ratio_vs_monolithic(&self) -> f64 {
        self.total() as f64 / self.monolithic_total_gas.max(1) as f64
    }
}

/// Full results of the confidential measurement.
#[derive(Debug, Clone)]
pub struct ConfidentialReport {
    /// Commitment-backend throughput.
    pub crypto: CryptoPoint,
    /// Per-transaction gas ledger plus the public baseline.
    pub lifecycle: LifecycleGas,
    /// Session throughput at N ∈ {1, 16, 256}.
    pub points: Vec<SessionsPoint>,
}

impl ConfidentialReport {
    /// Serialises the report as a small JSON object (hand-rolled: the
    /// workspace is std-only by design).
    pub fn to_json(&self) -> String {
        let crypto = format!(
            concat!(
                "  \"crypto\": {{\n",
                "    \"commit_ns\": {},\n",
                "    \"commits_per_sec\": {:.1},\n",
                "    \"range_prove_ns\": {},\n",
                "    \"range_verify_ns\": {},\n",
                "    \"range_verifies_per_sec\": {:.1}\n",
                "  }}"
            ),
            self.crypto.commit_ns,
            self.crypto.commits_per_sec(),
            self.crypto.range_prove_ns,
            self.crypto.range_verify_ns,
            self.crypto.range_verifies_per_sec(),
        );
        let l = &self.lifecycle;
        let lifecycle = format!(
            concat!(
                "  \"lifecycle\": {{\n",
                "    \"deploy_gas\": {},\n",
                "    \"fund_gas\": {},\n",
                "    \"deposit_committed_gas\": {},\n",
                "    \"activate_gas\": {},\n",
                "    \"settle_gas\": {},\n",
                "    \"withdraw_gas\": {},\n",
                "    \"total_gas\": {},\n",
                "    \"monolithic_total_gas\": {},\n",
                "    \"gas_ratio_vs_monolithic\": {:.3}\n",
                "  }}"
            ),
            l.deploy_gas,
            l.fund_gas,
            l.deposit_committed_gas,
            l.activate_gas,
            l.settle_gas,
            l.withdraw_gas,
            l.total(),
            l.monolithic_total_gas,
            l.ratio_vs_monolithic(),
        );
        let points = self
            .points
            .iter()
            .map(SessionsPoint::to_json)
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"bench\": \"confidential\",\n{crypto},\n{lifecycle},\n  \"points\": [\n{points}\n  ]\n}}\n"
        )
    }
}

/// Times the commitment backend: commits, 16-bit range prove, verify.
pub fn measure_crypto() -> CryptoPoint {
    let backend = PedersenBackend;
    let reps = 64u64;

    let start = Instant::now();
    for i in 0..reps {
        let c = backend.commit(U256::from_u64(i), U256::from_u64(0xB11D + i));
        std::hint::black_box(c);
    }
    let commit_ns = start.elapsed().as_nanos() / u128::from(reps);

    let prove_reps = 8u64;
    let start = Instant::now();
    for i in 0..prove_reps {
        let p = backend
            .prove_range(U256::from_u64(1000 + i), U256::from_u64(0xB11D + i), 16)
            .expect("in range");
        std::hint::black_box(p);
    }
    let range_prove_ns = start.elapsed().as_nanos() / u128::from(prove_reps);

    let c = backend.commit(U256::from_u64(1000), U256::from_u64(0xB11D));
    let proof = backend
        .prove_range(U256::from_u64(1000), U256::from_u64(0xB11D), 16)
        .expect("in range");
    let start = Instant::now();
    for _ in 0..prove_reps {
        assert!(backend.verify_range(&c, 16, proof.as_bytes()));
    }
    let range_verify_ns = start.elapsed().as_nanos() / u128::from(prove_reps);

    CryptoPoint {
        commit_ns,
        range_prove_ns,
        range_verify_ns,
    }
}

/// Runs one confidential channel end to end on a fresh chain and
/// records each transaction's gas, plus the monolithic baseline.
pub fn measure_lifecycle() -> LifecycleGas {
    let contracts = ConfidentialContracts::new();
    let backend = PedersenBackend;
    let mut net = Testnet::new();
    let alice = net.funded_wallet("conf-bench-alice", ether(1000));
    let bob = net.funded_wallet("conf-bench-bob", ether(1000));
    let p = ConfidentialParams {
        units_a: 30,
        units_b: 12,
        unit_scale: U256::from_u64(1_000_000_000),
        range_bits: 16,
        deadline: net.now() + 7200,
    };

    let r = net
        .deploy(
            &alice,
            contracts.initcode(alice.address, bob.address, p),
            U256::ZERO,
            5_000_000,
        )
        .unwrap();
    assert!(r.success, "deploy reverted");
    let deploy_gas = r.gas_used;
    let contract = r.contract_address.unwrap();

    let send = |net: &mut Testnet, w, value, data, gas| {
        let r = net.execute(w, contract, value, data, gas).unwrap();
        assert!(r.success, "bench transaction reverted: {:?}", r.failure);
        r.gas_used
    };

    let fund_gas = send(
        &mut net,
        &alice,
        p.stake_wei(p.units_a),
        contracts.fund(),
        300_000,
    );
    send(
        &mut net,
        &bob,
        p.stake_wei(p.units_b),
        contracts.fund(),
        300_000,
    );

    let r_a = scalar::reduce(U256::from_u64(0xC0FF));
    let r_b = curve_order().wrapping_sub(r_a);
    let c_a = backend.commit(U256::from_u64(p.units_a), r_a);
    let c_b = backend.commit(U256::from_u64(p.units_b), r_b);
    let proof_a = backend
        .prove_range(U256::from_u64(p.units_a), r_a, p.range_bits)
        .unwrap();
    let proof_b = backend
        .prove_range(U256::from_u64(p.units_b), r_b, p.range_bits)
        .unwrap();
    let deposit_committed_gas = send(
        &mut net,
        &alice,
        U256::ZERO,
        contracts.deposit_committed(&c_a, p.range_bits, proof_a.as_bytes()),
        2_500_000,
    );
    send(
        &mut net,
        &bob,
        U256::ZERO,
        contracts.deposit_committed(&c_b, p.range_bits, proof_b.as_bytes()),
        2_500_000,
    );
    let activate_gas = send(
        &mut net,
        &alice,
        U256::ZERO,
        contracts.activate(&backend.add(&c_a, &c_b)),
        600_000,
    );

    let out_ra = scalar::reduce(U256::from_u64(0xFACE));
    let out_rb = curve_order().wrapping_sub(out_ra);
    let voucher = SettlementVoucher {
        contract,
        out_a: backend.commit(U256::from_u64(21), out_ra),
        out_b: backend.commit(U256::from_u64(21), out_rb),
    };
    let signed = voucher.co_sign(&alice.key, &bob.key);
    let settle_gas = send(
        &mut net,
        &bob,
        U256::ZERO,
        contracts.settle(&signed),
        1_500_000,
    );
    let withdraw_gas = send(
        &mut net,
        &alice,
        U256::ZERO,
        contracts.withdraw(U256::from_u64(21), out_ra),
        600_000,
    );
    send(
        &mut net,
        &bob,
        U256::ZERO,
        contracts.withdraw(U256::from_u64(21), out_rb),
        600_000,
    );

    LifecycleGas {
        deploy_gas,
        fund_gas,
        deposit_committed_gas,
        activate_gas,
        settle_gas,
        withdraw_gas,
        monolithic_total_gas: run_monolithic(16).total(),
    }
}

/// The benchmark workload: `n` settle-later sessions cycling through
/// the behavioural cells (plain, double-submit, crashed co-signer), a
/// quarter of them fault-seeded, starts staggered like the public
/// session bench.
pub fn settle_specs(n: usize) -> Vec<SessionSpec> {
    let offsets = (n / 8).max(1);
    (0..n)
        .map(|i| {
            let mut spec = SettleLaterSpec {
                start_delay: ((i % offsets) as u64) * 30,
                fault_seed: (i % 4 == 0).then_some(0xC04F_0000_u64 + i as u64),
                ..SettleLaterSpec::default()
            };
            match i % 3 {
                1 => spec.double_submit = true,
                2 => spec.crash = SettleLaterCrash::AAfterCosign,
                _ => {}
            }
            SessionSpec::SettleLater(spec)
        })
        .collect()
}

/// Runs one scheduler over `n` settle-later sessions and measures it.
pub fn measure_point(n: usize) -> SessionsPoint {
    SessionsPoint::measure(settle_specs(n))
}

/// Measures all three axes (session curve at N ∈ {1, 16, 256}).
pub fn measure() -> ConfidentialReport {
    ConfidentialReport {
        crypto: measure_crypto(),
        lifecycle: measure_lifecycle(),
        points: [1, 16, 256].into_iter().map(measure_point).collect(),
    }
}

/// Path of the JSON artifact at the repository root.
pub fn artifact_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_confidential.json")
}

/// Runs the measurement, writes `BENCH_confidential.json` at the repo
/// root and returns the report.
pub fn run_and_write() -> std::io::Result<ConfidentialReport> {
    let report = measure();
    std::fs::write(artifact_path(), report.to_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_gas_is_deterministic_and_plausible() {
        let a = measure_lifecycle();
        let b = measure_lifecycle();
        assert_eq!(a.deploy_gas, b.deploy_gas);
        assert_eq!(a.deposit_committed_gas, b.deposit_committed_gas);
        assert_eq!(a.settle_gas, b.settle_gas);
        // A committed deposit carries a 16-bit range proof through the
        // precompiles; it must cost visibly more than a public stake.
        assert!(a.deposit_committed_gas > a.fund_gas);
        assert!(a.total() > a.deploy_gas);
        assert!(a.ratio_vs_monolithic() > 0.0);
    }

    #[test]
    fn smoke_4_sessions() {
        let p = measure_point(4);
        assert_eq!(p.sessions, 4);
        assert!(p.elapsed_ns > 0);
        assert!(
            p.mean_gas_per_session > 21_000,
            "sessions reached the chain"
        );
    }

    #[test]
    fn json_shape() {
        let r = ConfidentialReport {
            crypto: CryptoPoint {
                commit_ns: 1000,
                range_prove_ns: 2000,
                range_verify_ns: 500,
            },
            lifecycle: LifecycleGas {
                deploy_gas: 1_000_000,
                fund_gas: 30_000,
                deposit_committed_gas: 200_000,
                activate_gas: 60_000,
                settle_gas: 90_000,
                withdraw_gas: 40_000,
                monolithic_total_gas: 1_000_000,
            },
            points: vec![SessionsPoint {
                sessions: 2,
                elapsed_ns: 1_000_000_000,
                mean_gas_per_session: 50_000,
                blocks_mined: 4,
                txs_mined: 10,
            }],
        };
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"confidential\""));
        assert!(json.contains("\"deposit_committed_gas\": 200000"));
        assert!(json.contains("\"total_gas\": 1690000"));
        assert!(json.contains("\"gas_ratio_vs_monolithic\": 1.690"));
        assert!(json.contains("\"sessions_per_sec\": 2.000"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        crate::regress::parse(&json).expect("artifact parses");
    }
}
