//! Seeded input generators. Everything here is plain data: no product
//! type appears, so `drive.rs` stays the only file that touches the
//! crates under test. Sizes are frozen constants — never auto-scaled —
//! so two runs of one seed do identical work.

use crate::rng::SplitMix64;

/// Frozen workload sizes. `full()` is what `BENCHMARK.json` measures;
/// `quick()` is the 1/8 smoke size behind `--quick`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sizes {
    pub mixed_sessions: usize,
    pub mixed_weight: u64,
    pub dispute_sessions: usize,
    /// `reveal()` iterations: the dispute transaction lands at ~6.05 M
    /// gas, the heaviest that still fits the default 8 M block.
    pub dispute_weight: u64,
    pub confidential_sessions: usize,
    pub net_sessions: usize,
    pub net_nodes: usize,
    pub net_cut_rounds: u64,
    pub pipeline_accounts: usize,
    pub pipeline_wallets: usize,
    pub pipeline_contracts: usize,
    pub pipeline_slots: u64,
    pub pipeline_txs: usize,
    pub pipeline_solo_txs: usize,
    pub state_accounts: usize,
    pub state_contracts: usize,
    pub state_slots: usize,
    pub state_key_space: u64,
    pub state_rounds: usize,
    pub state_writes: usize,
    pub state_bumps: usize,
    pub state_reads: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            mixed_sessions: 256,
            mixed_weight: 16,
            dispute_sessions: 96,
            dispute_weight: 20_000,
            confidential_sessions: 32,
            net_sessions: 96,
            net_nodes: 4,
            net_cut_rounds: 40,
            pipeline_accounts: 200_000,
            pipeline_wallets: 512,
            pipeline_contracts: 16,
            pipeline_slots: 65_536,
            pipeline_txs: 512,
            pipeline_solo_txs: 64,
            state_accounts: 200_000,
            state_contracts: 64,
            state_slots: 1_024,
            state_key_space: 4_096,
            state_rounds: 8,
            state_writes: 2_048,
            state_bumps: 512,
            state_reads: 2_048,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            mixed_sessions: 32,
            mixed_weight: 16,
            dispute_sessions: 12,
            dispute_weight: 20_000,
            confidential_sessions: 4,
            net_sessions: 12,
            net_nodes: 4,
            net_cut_rounds: 40,
            pipeline_accounts: 25_000,
            pipeline_wallets: 64,
            pipeline_contracts: 16,
            pipeline_slots: 65_536,
            pipeline_txs: 64,
            pipeline_solo_txs: 8,
            state_accounts: 25_000,
            state_contracts: 64,
            state_slots: 128,
            state_key_space: 512,
            state_rounds: 1,
            state_writes: 2_048,
            state_bumps: 512,
            state_reads: 256,
        }
    }

    /// `(name, value)` pairs for the `env` block of `results.json`.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("mixed_sessions", self.mixed_sessions as u64),
            ("mixed_weight", self.mixed_weight),
            ("dispute_sessions", self.dispute_sessions as u64),
            ("dispute_weight", self.dispute_weight),
            ("confidential_sessions", self.confidential_sessions as u64),
            ("net_sessions", self.net_sessions as u64),
            ("net_nodes", self.net_nodes as u64),
            ("net_cut_rounds", self.net_cut_rounds),
            ("pipeline_accounts", self.pipeline_accounts as u64),
            ("pipeline_wallets", self.pipeline_wallets as u64),
            ("pipeline_contracts", self.pipeline_contracts as u64),
            ("pipeline_slots", self.pipeline_slots),
            ("pipeline_txs", self.pipeline_txs as u64),
            ("pipeline_solo_txs", self.pipeline_solo_txs as u64),
            ("state_accounts", self.state_accounts as u64),
            ("state_contracts", self.state_contracts as u64),
            ("state_slots", self.state_slots as u64),
            ("state_key_space", self.state_key_space),
            ("state_rounds", self.state_rounds as u64),
            ("state_writes", self.state_writes as u64),
            ("state_bumps", self.state_bumps as u64),
            ("state_reads", self.state_reads as u64),
        ]
    }
}

/// A betting participant's behaviour (mirrors the product's strategy
/// set one to one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Play {
    Honest,
    RefusesToSign,
    SignsTampered,
    SilentLoser,
    ForgingLoser,
    NoShow,
}

/// One behavioural cell of a session workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    Betting {
        alice: Play,
        bob: Play,
    },
    Challenge {
        false_submit: bool,
        vigilant: bool,
        crash_before_submit: bool,
    },
    SettleLater {
        double_submit: bool,
        cosigner_crash: bool,
    },
}

/// Everything needed to build one session, as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    pub cell: Cell,
    /// Full-width secrets; `drive` nudges `secret_a` until participant 1
    /// wins, so the strategy seated as participant 0 is the loser.
    pub secret_a: [u8; 32],
    pub secret_b: [u8; 32],
    pub weight: u64,
    pub fault_seed: Option<u64>,
    pub start_delay: u64,
}

/// The ten cells of the mixed workload: six betting strategy pairs and
/// four challenge cells — the same behavioural mix the session test
/// suite randomises over.
const MIXED_CELLS: [Cell; 10] = [
    Cell::Betting {
        alice: Play::Honest,
        bob: Play::Honest,
    },
    Cell::Betting {
        alice: Play::SilentLoser,
        bob: Play::Honest,
    },
    Cell::Betting {
        alice: Play::ForgingLoser,
        bob: Play::Honest,
    },
    Cell::Betting {
        alice: Play::Honest,
        bob: Play::NoShow,
    },
    Cell::Betting {
        alice: Play::Honest,
        bob: Play::RefusesToSign,
    },
    Cell::Betting {
        alice: Play::SignsTampered,
        bob: Play::Honest,
    },
    Cell::Challenge {
        false_submit: false,
        vigilant: true,
        crash_before_submit: false,
    },
    Cell::Challenge {
        false_submit: true,
        vigilant: true,
        crash_before_submit: false,
    },
    Cell::Challenge {
        false_submit: true,
        vigilant: false,
        crash_before_submit: false,
    },
    Cell::Challenge {
        false_submit: false,
        vigilant: true,
        crash_before_submit: true,
    },
];

/// Cells that always end in the dispute path.
const DISPUTE_CELLS: [Cell; 3] = [
    Cell::Betting {
        alice: Play::SilentLoser,
        bob: Play::Honest,
    },
    Cell::Betting {
        alice: Play::ForgingLoser,
        bob: Play::Honest,
    },
    Cell::Challenge {
        false_submit: true,
        vigilant: true,
        crash_before_submit: false,
    },
];

const SETTLE_CELLS: [Cell; 3] = [
    Cell::SettleLater {
        double_submit: false,
        cosigner_crash: false,
    },
    Cell::SettleLater {
        double_submit: true,
        cosigner_crash: false,
    },
    Cell::SettleLater {
        double_submit: false,
        cosigner_crash: true,
    },
];

/// `n` sessions cycling `cells`. Secrets, fault seeds and start offsets
/// are drawn from independent streams of `seed`; starts are staggered
/// over `max(1, n/8)` 30-second offsets so ~8 sessions contend for each
/// block at every size. `fault_every = 0` injects no faults.
fn plans(
    seed: u64,
    family: &str,
    cells: &[Cell],
    n: usize,
    weight: u64,
    fault_every: usize,
) -> Vec<SessionPlan> {
    let mut secrets = SplitMix64::fork(seed, &format!("{family}/secrets"));
    let mut faults = SplitMix64::fork(seed, &format!("{family}/faults"));
    let mut starts = SplitMix64::fork(seed, &format!("{family}/starts"));
    let offsets = (n / 8).max(1) as u64;
    (0..n)
        .map(|i| {
            let fault_draw = faults.next_u64();
            SessionPlan {
                cell: cells[i % cells.len()],
                secret_a: secrets.word(),
                secret_b: secrets.word(),
                weight,
                fault_seed: (fault_every != 0 && i % fault_every == 0).then_some(fault_draw),
                start_delay: starts.below(offsets) * 30,
            }
        })
        .collect()
}

pub fn mixed_plans(seed: u64, n: usize, weight: u64) -> Vec<SessionPlan> {
    plans(seed, "mixed", &MIXED_CELLS, n, weight, 4)
}

pub fn dispute_plans(seed: u64, n: usize, weight: u64) -> Vec<SessionPlan> {
    plans(seed, "dispute", &DISPUTE_CELLS, n, weight, 0)
}

pub fn confidential_plans(seed: u64, n: usize) -> Vec<SessionPlan> {
    plans(seed, "confidential", &SETTLE_CELLS, n, 0, 4)
}

/// One pre-signed-to-be transaction of the pipeline workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxPlan {
    /// Index of the sending wallet.
    pub wallet: usize,
    pub gas_price_gwei: u64,
    pub kind: TxKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxKind {
    /// Value transfer to population account `to`.
    Transfer { to: usize, wei: u64 },
    /// `store(slot, value)` on store contract `contract`.
    Store {
        contract: usize,
        slot: u64,
        value: u64,
    },
}

/// `n` transactions for pipeline batch `batch`: half transfers to random
/// population accounts, half `store(slot, value)` over
/// `contracts × slots`. Gas prices are 1–8 gwei so packing order differs
/// from arrival order. Nonces are assigned by `drive` in arrival order.
pub fn pipeline_batch(seed: u64, batch: u64, n: usize, sizes: &Sizes) -> Vec<TxPlan> {
    let mut rng = SplitMix64::fork(seed, &format!("pipeline/batch{batch}"));
    (0..n)
        .map(|i| {
            let wallet = rng.below(sizes.pipeline_wallets as u64) as usize;
            let gas_price_gwei = 1 + rng.below(8);
            let kind = if i % 2 == 0 {
                TxKind::Transfer {
                    to: rng.below(sizes.pipeline_accounts as u64) as usize,
                    wei: 1 + rng.below(1_000_000),
                }
            } else {
                TxKind::Store {
                    contract: rng.below(sizes.pipeline_contracts as u64) as usize,
                    slot: rng.below(sizes.pipeline_slots),
                    value: 1 + rng.below(u64::MAX - 1),
                }
            };
            TxPlan {
                wallet,
                gas_price_gwei,
                kind,
            }
        })
        .collect()
}

/// One churn round of the state workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnRound {
    /// `(contract, slot, value)`; `value` is never zero, so a write
    /// never deletes.
    pub writes: Vec<(usize, u64, u64)>,
    /// `(account, wei)` balance bumps.
    pub bumps: Vec<(usize, u64)>,
}

pub fn churn_rounds(seed: u64, repeat: u64, sizes: &Sizes) -> Vec<ChurnRound> {
    let mut rng = SplitMix64::fork(seed, &format!("state/churn{repeat}"));
    (0..sizes.state_rounds)
        .map(|_| ChurnRound {
            writes: (0..sizes.state_writes)
                .map(|_| {
                    (
                        rng.below(sizes.state_contracts as u64) as usize,
                        rng.below(sizes.state_key_space),
                        1 + rng.below(u64::MAX - 1),
                    )
                })
                .collect(),
            bumps: (0..sizes.state_bumps)
                .map(|_| {
                    (
                        rng.below(sizes.state_accounts as u64) as usize,
                        1 + rng.below(1_000),
                    )
                })
                .collect(),
        })
        .collect()
}

/// One proof read of the state workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofRead {
    /// Account `index`; `absent` asks for an address outside the
    /// population (an exclusion proof).
    Account { index: usize, absent: bool },
    /// Slot `slot` of contract `contract`; `absent` asks for a slot
    /// outside the key space.
    Storage {
        contract: usize,
        slot: u64,
        absent: bool,
    },
}

/// Half account reads, half storage reads, one in eight an absent key.
pub fn proof_reads(seed: u64, repeat: u64, sizes: &Sizes) -> Vec<ProofRead> {
    let mut rng = SplitMix64::fork(seed, &format!("state/reads{repeat}"));
    (0..sizes.state_reads)
        .map(|i| {
            let absent = rng.below(8) == 0;
            if i % 2 == 0 {
                ProofRead::Account {
                    index: rng.below(sizes.state_accounts as u64) as usize,
                    absent,
                }
            } else {
                ProofRead::Storage {
                    contract: rng.below(sizes.state_contracts as u64) as usize,
                    slot: rng.below(sizes.state_key_space),
                    absent,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_seed_sensitive() {
        let sizes = Sizes::quick();
        assert_eq!(mixed_plans(1, 40, 16), mixed_plans(1, 40, 16));
        assert_ne!(mixed_plans(1, 40, 16), mixed_plans(2, 40, 16));
        assert_eq!(
            pipeline_batch(1, 0, 64, &sizes),
            pipeline_batch(1, 0, 64, &sizes)
        );
        assert_ne!(
            pipeline_batch(1, 0, 64, &sizes),
            pipeline_batch(2, 0, 64, &sizes)
        );
        assert_ne!(
            pipeline_batch(1, 0, 64, &sizes),
            pipeline_batch(1, 1, 64, &sizes)
        );
        assert_eq!(churn_rounds(1, 0, &sizes), churn_rounds(1, 0, &sizes));
        assert_ne!(churn_rounds(1, 0, &sizes), churn_rounds(2, 0, &sizes));
        assert_eq!(proof_reads(1, 0, &sizes), proof_reads(1, 0, &sizes));
        assert_ne!(proof_reads(1, 0, &sizes), proof_reads(2, 0, &sizes));
    }

    #[test]
    fn mixed_cycles_all_ten_cells_with_a_quarter_faulted() {
        let plans = mixed_plans(1, 40, 16);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.cell, MIXED_CELLS[i % 10]);
            assert_eq!(p.fault_seed.is_some(), i % 4 == 0);
            assert!(p.start_delay % 30 == 0 && p.start_delay < 5 * 30);
        }
        assert!(dispute_plans(1, 12, 20_000)
            .iter()
            .all(|p| p.fault_seed.is_none()));
    }

    #[test]
    fn reads_mix_kinds_and_absent_keys() {
        let reads = proof_reads(1, 0, &Sizes::quick());
        let absent = reads
            .iter()
            .filter(|r| match r {
                ProofRead::Account { absent, .. } | ProofRead::Storage { absent, .. } => *absent,
            })
            .count();
        assert!(absent > reads.len() / 16 && absent < reads.len() / 4);
        let accounts = reads
            .iter()
            .filter(|r| matches!(r, ProofRead::Account { .. }))
            .count();
        assert_eq!(accounts, reads.len() / 2);
    }
}
