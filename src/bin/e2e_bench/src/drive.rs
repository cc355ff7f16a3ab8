//! Every call into the product lives in this file.
//!
//! The benchmark measures each layer from outside, through public
//! functions only, and only through the surface the roadmap names as
//! the *target shape*: `NetworkScheduler` / `Network` with N ≥ 1 nodes,
//! the `Testnet` node handle reached through a network, `WorldState`,
//! `HeaderClient`-backed light sessions, `sc_core::invariants`, and the
//! leaf crates' free functions. Nothing slated for deletion (the
//! single-chain scheduler, chain ports, legacy game wrappers, the
//! serial reference miner, pool/history/pruning switches, executor
//! modes) is referenced, so a simplification PR that removes them
//! cannot break the ruler. When the product's surface changes, this is
//! the one file to edit.
//!
//! Every call is wrapped in [`trace::timed`]: the returned wall time
//! feeds the direct-span metrics, and a traced run records the same
//! calls as spans.

use crate::gen::{Cell, ChurnRound, Play, ProofRead, SessionPlan, Sizes, TxKind, TxPlan};
use crate::rng::SplitMix64;
use crate::trace::timed;
use sc_chain::{
    Block, ImportOutcome, PoolConfig, SignedTransaction, Testnet, Transaction, Wallet, WorldState,
};
use sc_confidential::{CommitmentBackend, PedersenBackend, SettlementVoucher};
use sc_contracts::{
    BetSecrets, OffChainContract, OnChainContract, MONOLITHIC_SRC, OFFCHAIN_SRC, ONCHAIN_SRC,
};
use sc_core::{
    check_conservation, check_state_commitments, generate_pair, BettingSpec, ChallengeSpec,
    CrashPoint, FaultPlan, Network, NetworkScheduler, SessionReport, SessionSpec, SettleLaterCrash,
    SettleLaterSpec, SignedCopy, Strategy, SubmitStrategy, Topic, WatchStrategy, Whisper,
};
use sc_crypto::ecdsa::{recover_address, recover_addresses_batch, PrivateKey, Signature};
use sc_crypto::keccak256;
use sc_crypto::secp256k1::scalar;
use sc_evm::{AnalysisCache, Host};
use sc_mempool::{Mempool, TxMeta};
use sc_primitives::{ether, gwei, Address, H256, U256};
use sc_trie::{verify_secure_proof, SecureTrie};

/// keccak-256, for the benchmark's own result digests.
pub fn digest(bytes: &[u8]) -> [u8; 32] {
    keccak256(bytes).0
}

// ---------------------------------------------------------------------
// Session workloads: mixed256, dispute_heavy96, confidential32,
// net4_partition
// ---------------------------------------------------------------------

fn play(p: Play) -> Strategy {
    match p {
        Play::Honest => Strategy::Honest,
        Play::RefusesToSign => Strategy::RefusesToSign,
        Play::SignsTampered => Strategy::SignsTampered,
        Play::SilentLoser => Strategy::SilentLoser,
        Play::ForgingLoser => Strategy::ForgingLoser,
        Play::NoShow => Strategy::NoShow,
    }
}

/// Secrets from the plan, nudged until participant 1 wins so the
/// strategy seated as participant 0 plays the loser's part.
fn secrets(plan: &SessionPlan) -> BetSecrets {
    let mut s = BetSecrets {
        secret_a: U256::from_be_bytes(plan.secret_a),
        secret_b: U256::from_be_bytes(plan.secret_b),
        weight: plan.weight,
    };
    while !s.winner_is_bob() {
        s.secret_a = s.secret_a.wrapping_add(U256::ONE);
    }
    s
}

fn spec(plan: &SessionPlan) -> SessionSpec {
    match plan.cell {
        Cell::Betting { alice, bob } => SessionSpec::Betting(BettingSpec {
            alice: play(alice),
            bob: play(bob),
            secrets: secrets(plan),
            fault_seed: plan.fault_seed,
            start_delay: plan.start_delay,
            ..BettingSpec::default()
        }),
        Cell::Challenge {
            false_submit,
            vigilant,
            crash_before_submit,
        } => SessionSpec::Challenge(ChallengeSpec {
            secrets: secrets(plan),
            submit: if false_submit {
                SubmitStrategy::False
            } else {
                SubmitStrategy::Truthful
            },
            watch: if vigilant {
                WatchStrategy::Vigilant
            } else {
                WatchStrategy::Asleep
            },
            crash: if crash_before_submit {
                CrashPoint::BeforeSubmit
            } else {
                CrashPoint::None
            },
            fault_seed: plan.fault_seed,
            start_delay: plan.start_delay,
            ..ChallengeSpec::default()
        }),
        Cell::SettleLater {
            double_submit,
            cosigner_crash,
        } => SessionSpec::SettleLater(SettleLaterSpec {
            double_submit,
            crash: if cosigner_crash {
                SettleLaterCrash::AAfterCosign
            } else {
                SettleLaterCrash::None
            },
            fault_seed: plan.fault_seed,
            start_delay: plan.start_delay,
            ..SettleLaterSpec::default()
        }),
    }
}

/// How a session workload reaches the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub nodes: usize,
    /// Seed of the link-fault schedule; `None` is a quiet network.
    pub link_seed: Option<u64>,
    /// Rounds nodes `{0, 1}` are cut off from the rest before the run.
    pub cut_rounds: u64,
    /// Stateless sessions: every read witness-verified.
    pub light: bool,
}

impl Topology {
    pub fn single() -> Topology {
        Topology {
            nodes: 1,
            link_seed: None,
            cut_rounds: 0,
            light: false,
        }
    }
}

/// One session's terminal record, as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionResult {
    /// `"betting"`, `"challenge"` or `"settle-later"`.
    pub kind: &'static str,
    /// A valid outcome and no protocol error.
    pub ok: bool,
    pub total_gas: u64,
    /// `[deploy, deposit, submit, dispute]`.
    pub stage_gas: [u64; 4],
    /// On-chain transactions the session sent.
    pub txs: usize,
    /// Range-verified deposits among them (precompile 0x0C runs).
    pub committed_deposits: usize,
    pub messages: usize,
    /// keccak over the whole report, so two runs can be compared
    /// bit for bit without keeping product types around.
    pub fingerprint: [u8; 32],
}

fn session_result(r: &SessionReport) -> SessionResult {
    SessionResult {
        kind: r.kind,
        ok: r.outcome.is_some() && r.error.is_none(),
        total_gas: r.total_gas,
        stage_gas: r.stage_gas,
        txs: r.txs.len(),
        committed_deposits: r
            .txs
            .iter()
            .filter(|(label, ok)| *ok && label == "depositCommitted")
            .count(),
        messages: r.messages_posted,
        fingerprint: digest(format!("{r:?}").as_bytes()),
    }
}

/// Counters read from the network and light-client reports after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    pub rounds: u64,
    pub blocks_sealed: u64,
    pub frames_delivered: u64,
    pub reorgs: u64,
    pub max_reorg_depth: u64,
    pub orphans_resubmitted: u64,
    pub imports_rejected: u64,
    pub pool_evicted: u64,
    pub proofs_verified: u64,
    pub receipts_verified: u64,
    pub proofs_dropped: u64,
    pub witness_bytes: u64,
}

/// A scheduler over its network, before or after `run()`.
pub struct SessionNet {
    sched: NetworkScheduler,
    sessions: usize,
}

/// What one `run()` produced.
pub struct SessionRun {
    pub run_ns: u64,
    pub sessions: Vec<SessionResult>,
    pub net: NetCounters,
    /// Head hash of every node.
    pub heads: Vec<[u8; 32]>,
    pub canonical_blocks: u64,
    pub canonical_txs: u64,
    pub canonical_gas: u64,
    /// `converged()`, conservation and state commitments on every node;
    /// each entry is one violated check.
    pub violations: Vec<String>,
}

/// Builds the scheduler (compiles the contracts, funds every wallet at
/// genesis on every node) and applies the forced cut. Returns the
/// constructor's wall time.
pub fn session_net(plans: &[SessionPlan], topo: Topology) -> (SessionNet, u64) {
    let specs: Vec<SessionSpec> = plans.iter().map(spec).collect();
    let sessions = specs.len();
    let (mut sched, new_ns) = timed("core.new", || {
        if topo.light {
            NetworkScheduler::new_light(specs, topo.nodes, PoolConfig::default(), topo.link_seed)
        } else {
            NetworkScheduler::new(specs, topo.nodes, PoolConfig::default(), topo.link_seed)
        }
    });
    if topo.cut_rounds > 0 {
        sched
            .network_mut()
            .force_partition(vec![0, 1], topo.cut_rounds);
    }
    (SessionNet { sched, sessions }, new_ns)
}

/// Drives every session to completion and the network to one head,
/// then gathers the reports, counters and invariant checks.
pub fn session_run(net: &mut SessionNet) -> SessionRun {
    let (reports, run_ns) = timed("core.run", || net.sched.run());
    let network = net.sched.network();
    let stats = network.stats();
    let light = net.sched.light_stats();
    let mut violations = Vec::new();
    if !network.converged() {
        violations.push("network did not converge on one head".to_string());
    }
    for i in 0..network.len() {
        if let Err(e) = check_conservation(network.node(i)) {
            violations.push(format!("node {i}: {e}"));
        }
        if let Err(e) = check_state_commitments(network.node(i)) {
            violations.push(format!("node {i}: {e}"));
        }
    }
    let (mut blocks, mut txs, mut gas) = (0, 0, 0);
    for b in canonical_blocks(network.node(0)) {
        if !b.transactions.is_empty() {
            blocks += 1;
        }
        txs += b.transactions.len() as u64;
        gas += b.gas_used;
    }
    SessionRun {
        run_ns,
        sessions: reports.iter().map(session_result).collect(),
        net: NetCounters {
            rounds: stats.rounds,
            blocks_sealed: stats.blocks_sealed,
            frames_delivered: stats.frames_delivered,
            reorgs: stats.reorgs,
            max_reorg_depth: stats.max_reorg_depth,
            orphans_resubmitted: stats.orphans_resubmitted,
            imports_rejected: stats.imports_rejected,
            pool_evicted: net.sched.pool_evicted(),
            proofs_verified: light.proofs_verified,
            receipts_verified: light.receipts_verified,
            proofs_dropped: light.proofs_dropped,
            witness_bytes: light.witness_bytes,
        },
        heads: (0..network.len())
            .map(|i| network.node(i).head().hash.0)
            .collect(),
        canonical_blocks: blocks,
        canonical_txs: txs,
        canonical_gas: gas,
        violations,
    }
}

fn canonical_blocks(node: &Testnet) -> impl Iterator<Item = &Block> {
    (1..=node.head().number).filter_map(|n| node.block(n))
}

/// What the produced chain costs to verify and execute without the
/// session engine.
pub struct Replay {
    /// Importing node 0's canonical chain into a fresh, identically
    /// funded node.
    pub import_ns: u64,
    /// `recover_address` over every canonical transaction.
    pub recover_ns: u64,
    pub txs: u64,
    pub gas: u64,
    /// The fresh node ended on the same head.
    pub ok: bool,
}

pub fn replay(net: &SessionNet) -> Replay {
    let source = net.sched.network().node(0);
    let blocks: Vec<Block> = canonical_blocks(source).cloned().collect();
    // The scheduler's genesis allocation: 1000 ether per participant.
    let funding: Vec<(Address, U256)> = (0..net.sessions)
        .flat_map(|id| {
            [
                Wallet::from_seed(&format!("s{id}-alice")),
                Wallet::from_seed(&format!("s{id}-bob")),
            ]
        })
        .map(|w| (w.address, ether(1000)))
        .collect();
    let mut fresh = Network::new(1, &FaultPlan::none(), PoolConfig::default(), &funding);

    let ((), recover_ns) = timed("replay.recover", || {
        for tx in blocks.iter().flat_map(|b| &b.transactions) {
            std::hint::black_box(recover_address(tx.tx.signing_hash(), &tx.signature).ok());
        }
    });
    let txs = blocks.iter().map(|b| b.transactions.len() as u64).sum();
    let gas = blocks.iter().map(|b| b.gas_used).sum();
    let (extended, import_ns) = timed("replay.import", || {
        let node = fresh.node_mut(0);
        blocks
            .into_iter()
            .all(|b| matches!(node.import_block(b), Ok(ImportOutcome::Extended)))
    });
    Replay {
        import_ns,
        recover_ns,
        txs,
        gas,
        ok: extended && fresh.node(0).head().hash == source.head().hash,
    }
}

// ---------------------------------------------------------------------
// chain_pipeline: batch admission → sealing → follower import
// ---------------------------------------------------------------------

/// 8-byte runtime `SSTORE(calldata[0..32], calldata[32..64])`, wrapped
/// in initcode that returns it.
const STORE_INITCODE: [u8; 17] = [
    0x67, 0x60, 0x20, 0x35, 0x60, 0x00, 0x35, 0x55, 0x00, 0x60, 0x00, 0x52, 0x60, 0x08, 0x60, 0x18,
    0xf3,
];

/// Seeded population addresses.
struct Population(u64);

impl Population {
    fn new(seed: u64, family: &str) -> Population {
        Population(SplitMix64::fork(seed, family).next_u64())
    }

    fn address(&self, i: usize) -> Address {
        let mut rng = SplitMix64::new(self.0 ^ (i as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
        let mut a = [0u8; 20];
        a[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
        a[8..16].copy_from_slice(&rng.next_u64().to_be_bytes());
        a[16..].copy_from_slice(&rng.next_u64().to_be_bytes()[..4]);
        Address(a)
    }
}

/// A two-node network: node 0 admits and seals, node 1 follows.
pub struct Pipeline {
    net: Network,
    wallets: Vec<Wallet>,
    nonces: Vec<u64>,
    contracts: Vec<Address>,
    population: Population,
}

/// Timings and checks of one pipeline pass.
#[derive(Debug, Clone, Default)]
pub struct PipelinePass {
    pub txs: u64,
    /// Wall time of admit + seal + import together.
    pub pass_ns: u64,
    pub admit_ns: u64,
    pub seal_ns: u64,
    pub import_ns: u64,
    pub blocks: u64,
    pub gas: u64,
    /// Transactions the executor committed straight from speculation /
    /// had to re-execute (from the seal reports).
    pub speculative: u64,
    pub reexecuted: u64,
    /// Rejected at admission, rejected at import, or mined unsuccessfully.
    pub failed: u64,
    pub heads_equal: bool,
    /// Head hash of the producing node.
    pub head: [u8; 32],
}

pub fn pipeline_setup(seed: u64, sizes: &Sizes) -> Pipeline {
    let population = Population::new(seed, "pipeline/population");
    let wallets: Vec<Wallet> = (0..sizes.pipeline_wallets)
        .map(|i| Wallet::from_seed(&format!("pipeline-{seed}-{i}")))
        .collect();
    let mut funding: Vec<(Address, U256)> = (0..sizes.pipeline_accounts)
        .map(|i| (population.address(i), ether(1)))
        .collect();
    funding.extend(wallets.iter().map(|w| (w.address, ether(1000))));
    let pool = PoolConfig {
        capacity: 65_536,
        ..PoolConfig::default()
    };
    let (mut net, _) = timed("chain.genesis", || {
        Network::new(2, &FaultPlan::none(), pool, &funding)
    });

    let mut contracts = Vec::with_capacity(sizes.pipeline_contracts);
    let mut nonces = vec![0u64; wallets.len()];
    for _ in 0..sizes.pipeline_contracts {
        let receipt = net
            .node_mut(0)
            .deploy(&wallets[0], STORE_INITCODE.to_vec(), U256::ZERO, 100_000)
            .expect("store contract deploys");
        assert!(receipt.success, "store contract deploy reverted");
        contracts.push(receipt.contract_address.expect("created"));
        nonces[0] += 1;
        let block = net.node(0).head().clone();
        net.node_mut(1)
            .import_block(block)
            .expect("follower imports the deploy block");
    }
    Pipeline {
        net,
        wallets,
        nonces,
        contracts,
        population,
    }
}

/// Signs `plans` in arrival order (untimed by the caller: users sign on
/// their own machines).
pub fn pipeline_sign(p: &mut Pipeline, plans: &[TxPlan]) -> Vec<SignedTransaction> {
    plans
        .iter()
        .map(|plan| {
            let nonce = p.nonces[plan.wallet];
            p.nonces[plan.wallet] += 1;
            let (to, value, data, gas_limit) = match plan.kind {
                TxKind::Transfer { to, wei } => (
                    p.population.address(to),
                    U256::from_u64(wei),
                    Vec::new(),
                    21_000,
                ),
                TxKind::Store {
                    contract,
                    slot,
                    value,
                } => {
                    let mut data = Vec::with_capacity(64);
                    data.extend_from_slice(&U256::from_u64(slot).to_be_bytes());
                    data.extend_from_slice(&U256::from_u64(value).to_be_bytes());
                    (p.contracts[contract], U256::ZERO, data, 60_000)
                }
            };
            Transaction {
                nonce,
                gas_price: gwei(plan.gas_price_gwei),
                gas_limit,
                to: Some(to),
                value,
                data,
            }
            .sign(&p.wallets[plan.wallet].key)
        })
        .collect()
}

/// Seals until the pool is empty, folding the seal reports into `pass`.
fn pipeline_seal(p: &mut Pipeline, pass: &mut PipelinePass) -> Vec<Block> {
    let (blocks, seal_ns) = timed("chain.seal", || {
        let node = p.net.node_mut(0);
        let mut blocks = Vec::new();
        while node.pending_count() > 0 {
            let block = node.mine_block();
            if block.transactions.is_empty() {
                break;
            }
            if let Some(report) = node.last_seal_report() {
                pass.speculative += report.speculative as u64;
                pass.reexecuted += report.reexecuted as u64;
            }
            blocks.push(block);
        }
        blocks
    });
    pass.seal_ns = seal_ns;
    blocks
}

/// Imports `blocks` on the follower, counting the ones it refuses.
fn pipeline_import(p: &mut Pipeline, blocks: &[Block], pass: &mut PipelinePass) {
    let (rejected, import_ns) = timed("chain.import", || {
        let follower = p.net.node_mut(1);
        blocks
            .iter()
            .filter(|b| {
                !matches!(
                    follower.import_block((*b).clone()),
                    Ok(ImportOutcome::Extended)
                )
            })
            .count()
    });
    pass.import_ns = import_ns;
    pass.failed += rejected as u64;
}

/// The benchmark's own checks, outside the timed pass: every receipt
/// successful, nothing left pooled, both heads equal.
fn pipeline_check(p: &Pipeline, blocks: &[Block], pass: &mut PipelinePass) {
    for b in blocks {
        pass.blocks += 1;
        pass.gas += b.gas_used;
        for tx in &b.transactions {
            let ok = p.net.node(0).receipt(tx.hash()).is_some_and(|r| r.success);
            pass.failed += u64::from(!ok);
        }
    }
    pass.failed += p.net.node(0).pending_count() as u64;
    pass.head = p.net.node(0).head().hash.0;
    pass.heads_equal = p.net.converged();
}

/// One batch: `submit_batch` on node 0, `mine_block` until the pool is
/// empty, `import_block` of each block on node 1.
pub fn pipeline_batch(p: &mut Pipeline, txs: Vec<SignedTransaction>) -> PipelinePass {
    let mut pass = PipelinePass {
        txs: txs.len() as u64,
        ..PipelinePass::default()
    };
    let (blocks, pass_ns) = timed("chain.pass", || {
        let (results, admit_ns) = timed("chain.admit", || p.net.node_mut(0).submit_batch(txs));
        pass.admit_ns = admit_ns;
        pass.failed += results.iter().filter(|r| r.is_err()).count() as u64;
        let blocks = pipeline_seal(p, &mut pass);
        pipeline_import(p, &blocks, &mut pass);
        blocks
    });
    pass.pass_ns = pass_ns;
    pipeline_check(p, &blocks, &mut pass);
    pass
}

/// One transaction alone on an idle chain: `submit` → `mine_block` →
/// `import_block`; `pass_ns` is its end-to-end latency.
pub fn pipeline_solo(p: &mut Pipeline, tx: SignedTransaction) -> PipelinePass {
    let mut pass = PipelinePass {
        txs: 1,
        ..PipelinePass::default()
    };
    let (blocks, pass_ns) = timed("chain.solo", || {
        let (admitted, admit_ns) = timed("chain.admit", || p.net.node_mut(0).submit(tx));
        pass.admit_ns = admit_ns;
        pass.failed += u64::from(admitted.is_err());
        let blocks = pipeline_seal(p, &mut pass);
        pipeline_import(p, &blocks, &mut pass);
        blocks
    });
    pass.pass_ns = pass_ns;
    pipeline_check(p, &blocks, &mut pass);
    pass
}

// ---------------------------------------------------------------------
// state_bulk: WorldState alone — writes, folds, proofs, snapshots
// ---------------------------------------------------------------------

pub struct StateBulk {
    state: WorldState,
    accounts: Population,
    contracts: Vec<Address>,
    root: H256,
}

/// Populates the state and folds it cold. Returns the cold fold's wall
/// time.
pub fn state_setup(seed: u64, sizes: &Sizes) -> (StateBulk, u64) {
    let accounts = Population::new(seed, "state/accounts");
    let contract_addrs = Population::new(seed, "state/contracts");
    let mut values = SplitMix64::fork(seed, "state/genesis-values");
    let mut state = WorldState::new();
    for i in 0..sizes.state_accounts {
        state.mint(
            accounts.address(i),
            U256::from_u64(1 + values.below(1 << 40)),
        );
    }
    let contracts: Vec<Address> = (0..sizes.state_contracts)
        .map(|c| contract_addrs.address(c))
        .collect();
    for &c in &contracts {
        state.mint(c, U256::ONE);
        for slot in 0..sizes.state_slots as u64 {
            state.set_storage(
                c,
                U256::from_u64(slot),
                U256::from_u64(1 + values.below(u64::MAX - 1)),
            );
        }
    }
    state.clear_tx_scratch();
    let (root, cold_fold_ns) = timed("chain.cold_fold", || state.state_root());
    (
        StateBulk {
            state,
            accounts,
            contracts,
            root,
        },
        cold_fold_ns,
    )
}

/// One churn round: the writes, then the fold. Returns
/// `(write_ns, fold_ns)`.
pub fn state_churn(s: &mut StateBulk, round: &ChurnRound) -> (u64, u64) {
    let ((), write_ns) = timed("chain.state_write", || {
        for &(contract, slot, value) in &round.writes {
            s.state.set_storage(
                s.contracts[contract],
                U256::from_u64(slot),
                U256::from_u64(value),
            );
        }
        for &(account, wei) in &round.bumps {
            s.state
                .mint(s.accounts.address(account), U256::from_u64(wei));
        }
        s.state.clear_tx_scratch();
    });
    let (root, fold_ns) = timed("chain.fold", || s.state.state_root());
    s.root = root;
    (write_ns, fold_ns)
}

/// One proof read's timings and verdict.
#[derive(Debug, Clone, Copy)]
pub struct ReadOutcome {
    pub prove_ns: u64,
    pub verify_ns: u64,
    pub witness_bytes: u64,
    /// Trie nodes in the witness.
    pub nodes: u64,
    /// The proof verified against the current root and its value equals
    /// a direct read.
    pub ok: bool,
}

/// Addresses and slots no generator ever populates.
fn absent_address(index: usize) -> Address {
    let mut a = [0xab; 20];
    a[12..].copy_from_slice(&(index as u64).to_be_bytes());
    Address(a)
}

pub fn state_read(s: &mut StateBulk, read: ProofRead) -> ReadOutcome {
    match read {
        ProofRead::Account { index, absent } => {
            let address = if absent {
                absent_address(index)
            } else {
                s.accounts.address(index)
            };
            let (proof, prove_ns) = timed("chain.prove_account", || s.state.prove_account(address));
            let (proven, verify_ns) = timed("chain.verify_account", || proof.proven_parts(s.root));
            let direct = s
                .state
                .account(address)
                .map_or((0, U256::ZERO), |a| (a.nonce, a.balance));
            ReadOutcome {
                prove_ns,
                verify_ns,
                witness_bytes: proof.witness_bytes() as u64,
                nodes: proof.account_proof.len() as u64,
                ok: proof.root == s.root
                    && proven.is_ok_and(|p| p == direct && p == (proof.nonce, proof.balance))
                    && (absent == (direct == (0, U256::ZERO))),
            }
        }
        ProofRead::Storage {
            contract,
            slot,
            absent,
        } => {
            let address = s.contracts[contract];
            let key = if absent {
                U256::MAX.wrapping_sub(U256::from_u64(slot))
            } else {
                U256::from_u64(slot)
            };
            let (proof, prove_ns) = timed("chain.prove_storage", || {
                s.state.prove_storage(address, key)
            });
            let (proven, verify_ns) = timed("chain.verify_storage", || proof.proven_value(s.root));
            let direct = s.state.storage(address, key);
            ReadOutcome {
                prove_ns,
                verify_ns,
                witness_bytes: proof.witness_bytes() as u64,
                nodes: (proof.account_proof.len() + proof.storage_proof.len()) as u64,
                ok: proof.root == s.root
                    && proven.is_ok_and(|v| v == direct && v == proof.value)
                    && (!absent || direct == U256::ZERO),
            }
        }
    }
}

/// Current root, for result digests.
pub fn state_root(s: &StateBulk) -> [u8; 32] {
    s.root.0
}

/// Snapshot round trip: `(export_ns, import_ns, bytes, root reproduced)`.
/// The import time includes the refold that rebuilds the tries.
pub fn state_snapshot(s: &StateBulk) -> (u64, u64, u64, bool) {
    let (blob, export_ns) = timed("chain.snapshot_export", || s.state.export_snapshot());
    let (root, import_ns) = timed("chain.snapshot_import", || {
        WorldState::import_snapshot(&blob).map(|mut state| state.state_root())
    });
    (
        export_ns,
        import_ns,
        blob.len() as u64,
        root.is_ok_and(|r| r == s.root),
    )
}

// ---------------------------------------------------------------------
// Kernels: seeded fixed inputs, full-width (256-bit) scalars everywhere
// ---------------------------------------------------------------------

/// One micro-measurement: each `run` performs `ops` operations and
/// returns the nanoseconds they took (set-up inside `run` is excluded).
/// The reported value is `scale / median_ns_per_op` when `inverse` (a
/// rate) and `median_ns_per_op / scale` otherwise (a time).
pub struct Kernel {
    pub name: &'static str,
    pub ops: f64,
    pub scale: f64,
    pub inverse: bool,
    pub run: Box<dyn FnMut() -> u64>,
}

/// Wall time of `f`, unrecorded: a kernel is one span around all of its
/// calls (opened by the caller), not one per call.
fn clock<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed().as_nanos() as u64)
}

fn time_kernel(
    name: &'static str,
    unit_ns: f64,
    ops: usize,
    mut op: impl FnMut() + 'static,
) -> Kernel {
    Kernel {
        name,
        ops: ops as f64,
        scale: unit_ns,
        inverse: false,
        run: Box::new(move || clock(&mut op).1),
    }
}

const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;

/// A valid full-width private key from the stream.
fn seeded_key(rng: &mut SplitMix64) -> PrivateKey {
    loop {
        if let Ok(k) = PrivateKey::from_bytes(rng.word()) {
            return k;
        }
    }
}

/// A full-width scalar in `[0, n)`.
fn seeded_scalar(rng: &mut SplitMix64) -> U256 {
    scalar::reduce(U256::from_be_bytes(rng.word()))
}

fn precompile(id: u64) -> Address {
    Address::from_u256(U256::from_u64(id))
}

/// `(kernels, counts)`: the timed kernels plus the exact counts that
/// fall out of their set-up. Inputs are fixed — the kernel seed is a
/// constant, not the workload seed — so kernel numbers compare across
/// workloads and seeds.
pub fn kernels() -> (Vec<Kernel>, Vec<(&'static str, f64)>) {
    const BATCH: usize = 16;
    let mut rng = SplitMix64::fork(0x5eed, "kernels");
    let mut out = Vec::new();
    let mut counts = Vec::new();

    // --- sc-crypto ---
    let keys: Vec<PrivateKey> = (0..BATCH).map(|_| seeded_key(&mut rng)).collect();
    let digests: Vec<H256> = (0..BATCH).map(|_| H256(rng.word())).collect();
    let sigs: Vec<Signature> = keys.iter().zip(&digests).map(|(k, d)| k.sign(*d)).collect();
    let pubkeys: Vec<_> = keys.iter().map(PrivateKey::public_key).collect();
    let addresses: Vec<Address> = keys.iter().map(PrivateKey::address).collect();
    {
        let (keys, digests) = (keys.clone(), digests.clone());
        out.push(time_kernel("crypto.sign_us", US, BATCH, move || {
            for (k, d) in keys.iter().zip(&digests) {
                std::hint::black_box(k.sign(*d));
            }
        }));
    }
    {
        let (digests, sigs, addresses) = (digests.clone(), sigs.clone(), addresses.clone());
        out.push(time_kernel("crypto.recover_us", US, BATCH, move || {
            for ((d, s), a) in digests.iter().zip(&sigs).zip(&addresses) {
                assert_eq!(recover_address(*d, s).ok(), Some(*a));
            }
        }));
    }
    {
        let items: Vec<(H256, Signature)> =
            digests.iter().copied().zip(sigs.iter().copied()).collect();
        out.push(time_kernel(
            "crypto.recover_batch_us_per_sig",
            US,
            BATCH,
            move || {
                std::hint::black_box(recover_addresses_batch(&items));
            },
        ));
    }
    {
        let (digests, sigs) = (digests.clone(), sigs.clone());
        out.push(time_kernel("crypto.verify_us", US, BATCH, move || {
            for ((p, d), s) in pubkeys.iter().zip(&digests).zip(&sigs) {
                assert!(p.verify(*d, s));
            }
        }));
    }
    {
        let buf: Vec<u8> = (0..65_536).map(|_| rng.next_u64() as u8).collect();
        // bytes per ns × 1e3 = MB/s.
        out.push(Kernel {
            name: "crypto.keccak_mb_s",
            ops: buf.len() as f64,
            scale: 1e3,
            inverse: true,
            run: Box::new(move || clock(|| std::hint::black_box(keccak256(&buf))).1),
        });
    }

    // --- sc-confidential, and the precompiles over it ---
    let backend = PedersenBackend;
    let bits = sc_confidential::range::DEFAULT_BITS;
    let openings: Vec<(U256, U256)> = (0..BATCH)
        .map(|_| (seeded_scalar(&mut rng), seeded_scalar(&mut rng)))
        .collect();
    {
        let openings = openings.clone();
        out.push(time_kernel(
            "confidential.commit_us",
            US,
            BATCH,
            move || {
                for &(v, r) in &openings {
                    std::hint::black_box(backend.commit(v, r));
                }
            },
        ));
    }
    let in_range = U256::from_u64(rng.below(1 << bits));
    let blinding = seeded_scalar(&mut rng);
    let commitment = backend.commit(in_range, blinding);
    let range_proof = backend
        .prove_range(in_range, blinding, bits)
        .expect("value is in range");
    out.push(time_kernel(
        "confidential.range_prove_ms",
        MS,
        1,
        move || {
            std::hint::black_box(backend.prove_range(in_range, blinding, bits));
        },
    ));
    {
        let proof = range_proof.as_bytes().to_vec();
        out.push(time_kernel(
            "confidential.range_verify_ms",
            MS,
            1,
            move || assert!(backend.verify_range(&commitment, bits, &proof)),
        ));
    }
    {
        let voucher = SettlementVoucher {
            contract: addresses[2],
            out_a: backend.commit(openings[0].0, openings[0].1),
            out_b: backend.commit(openings[1].0, openings[1].1),
        };
        let (ka, kb) = (keys[0], keys[1]);
        let (aa, ab) = (addresses[0], addresses[1]);
        out.push(time_kernel(
            "confidential.voucher_cosign_us",
            US,
            1,
            move || assert!(voucher.co_sign(&ka, &kb).verify(aa, ab)),
        ));
    }
    {
        let mut input = commitment.to_bytes().to_vec();
        input.extend_from_slice(&U256::from_u64(u64::from(bits)).to_be_bytes());
        input.extend_from_slice(range_proof.as_bytes());
        out.push(time_kernel("evm.range_precompile_ms", MS, 1, move || {
            let r =
                sc_evm::precompile::run(precompile(12), &input, u64::MAX).expect("gas suffices");
            assert_eq!(r.output.last(), Some(&1), "range proof accepted");
        }));
    }
    {
        let mut input = digests[0].0.to_vec();
        input.extend_from_slice(&U256::from_u64(u64::from(sigs[0].v)).to_be_bytes());
        input.extend_from_slice(&sigs[0].r.0);
        input.extend_from_slice(&sigs[0].s.0);
        let expect = addresses[0];
        out.push(time_kernel(
            "evm.ecrecover_precompile_us",
            US,
            1,
            move || {
                let r =
                    sc_evm::precompile::run(precompile(1), &input, u64::MAX).expect("gas suffices");
                assert_eq!(&r.output[12..], expect.as_bytes());
            },
        ));
    }

    // --- sc-evm ---
    {
        // reveal() at the dispute workload's weight, off-chain through
        // `Testnet::call`. The same call sent once as a transaction
        // gives the gas the interpreter burns.
        let weight = Sizes::full().dispute_weight;
        let (alice, bob) = (Wallet::new(keys[3]), Wallet::new(keys[4]));
        let funding = [(alice.address, ether(1000)), (bob.address, ether(1000))];
        let mut net = Network::new(1, &FaultPlan::none(), PoolConfig::default(), &funding);
        let offchain = OffChainContract::new();
        let secrets = BetSecrets {
            secret_a: seeded_scalar(&mut rng),
            secret_b: seeded_scalar(&mut rng),
            weight,
        };
        let node = net.node_mut(0);
        let deployed = node
            .deploy(
                &alice,
                offchain.initcode(alice.address, bob.address, secrets),
                U256::ZERO,
                5_000_000,
            )
            .expect("off-chain contract deploys");
        let contract = deployed.contract_address.expect("created");
        let data = offchain.return_dispute_resolution(bob.address);
        let tx = Transaction {
            nonce: 1,
            gas_price: gwei(1),
            gas_limit: 7_900_000,
            to: Some(contract),
            value: U256::ZERO,
            data: data.clone(),
        }
        .sign(&alice.key);
        let hash = node.submit(tx).expect("admitted");
        node.mine_block();
        let gas = node.receipt(hash).expect("mined").gas_used;
        assert!(gas > 200 * weight, "reveal() ran: {gas} gas");
        // gas per ns × 1e3 = Mgas/s.
        out.push(Kernel {
            name: "evm.reveal_mgas_per_s",
            ops: gas as f64,
            scale: 1e3,
            inverse: true,
            run: Box::new(move || {
                let node = net.node_mut(0);
                clock(|| std::hint::black_box(node.call(alice.address, contract, data.clone()))).1
            }),
        });
    }
    {
        let code = OnChainContract::new().compiled.runtime;
        let hash = keccak256(&code);
        let cache = AnalysisCache::new();
        let (cold_code, cold_cache) = (code.clone(), AnalysisCache::new());
        out.push(time_kernel("evm.analysis_cold_us", US, 1, move || {
            cold_cache.clear();
            std::hint::black_box(cold_cache.get_or_analyze(hash, &cold_code));
        }));
        cache.get_or_analyze(hash, &code);
        out.push(time_kernel("evm.analysis_warm_ns", NS, 1_000, move || {
            for _ in 0..1_000 {
                std::hint::black_box(cache.get_or_analyze(hash, &code));
            }
        }));
    }

    // --- sc-trie ---
    {
        const KEYS: usize = 100_000;
        const UPDATES: usize = 256;
        let keys: Vec<[u8; 32]> = (0..KEYS).map(|_| rng.word()).collect();
        let mut trie = SecureTrie::new();
        for k in &keys {
            trie.insert(k, k.to_vec());
        }
        let root = trie.root();
        let probes: Vec<[u8; 32]> = (0..UPDATES)
            .map(|_| keys[rng.below(KEYS as u64) as usize])
            .collect();
        let proofs: Vec<Vec<Vec<u8>>> = probes.iter().map(|k| trie.prove(k)).collect();
        counts.push((
            "trie.proof_nodes_mean",
            proofs.iter().map(Vec::len).sum::<usize>() as f64 / UPDATES as f64,
        ));
        {
            let keys = keys.clone();
            out.push(time_kernel(
                "trie.bulk_insert_root_ns_per_key",
                NS,
                KEYS,
                move || {
                    let mut t = SecureTrie::new();
                    for k in &keys {
                        t.insert(k, k.to_vec());
                    }
                    std::hint::black_box(t.root());
                },
            ));
        }
        {
            let (mut t, probes) = (trie.clone(), probes.clone());
            let mut round = 0u64;
            out.push(time_kernel(
                "trie.incremental_root_us_per_key",
                US,
                UPDATES,
                move || {
                    round += 1;
                    for k in &probes {
                        t.insert(k, round.to_be_bytes().to_vec());
                    }
                    std::hint::black_box(t.root());
                },
            ));
        }
        {
            let (mut t, probes) = (trie, probes.clone());
            out.push(time_kernel("trie.prove_us", US, UPDATES, move || {
                for k in &probes {
                    std::hint::black_box(t.prove(k));
                }
            }));
        }
        out.push(time_kernel("trie.verify_us", US, UPDATES, move || {
            for (k, p) in probes.iter().zip(&proofs) {
                assert_eq!(
                    verify_secure_proof(root, k, p).ok().flatten().as_deref(),
                    Some(&k[..])
                );
            }
        }));
    }

    // --- sc-mempool: 1024 senders × 8 nonces ---
    {
        const SENDERS: usize = 1_024;
        const DEPTH: u64 = 8;
        let mut metas: Vec<TxMeta> = Vec::with_capacity(SENDERS * DEPTH as usize);
        for s in 0..SENDERS {
            let mut sender = [0u8; 20];
            sender[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
            sender[12..].copy_from_slice(&(s as u64).to_be_bytes());
            let price = 1 + rng.below(8);
            for nonce in 0..DEPTH {
                metas.push(TxMeta {
                    sender: Address(sender),
                    nonce,
                    gas_price: gwei(price),
                    gas_limit: 21_000,
                    hash: H256(rng.word()),
                });
            }
        }
        let config = PoolConfig {
            capacity: 65_536,
            ..PoolConfig::default()
        };
        let fill = move |metas: &[TxMeta]| {
            let mut pool: Mempool<u32> = Mempool::new(config.clone());
            for (i, m) in metas.iter().enumerate() {
                pool.insert(m.clone(), i as u32, 0).expect("admitted");
            }
            pool
        };
        {
            let (metas, fill) = (metas.clone(), fill.clone());
            out.push(time_kernel(
                "mempool.insert_ns",
                NS,
                metas.len(),
                move || {
                    std::hint::black_box(fill(&metas).len());
                },
            ));
        }
        {
            let (metas, fill) = (metas.clone(), fill.clone());
            let per_block = 8_000_000 / 21_000;
            out.push(Kernel {
                name: "mempool.pack_ns_per_tx",
                ops: per_block as f64,
                scale: NS,
                inverse: false,
                run: Box::new(move || {
                    let mut pool = fill(&metas);
                    let (packed, ns) = clock(|| pool.pack(8_000_000, |_| 0));
                    assert_eq!(packed.len(), per_block);
                    ns
                }),
            });
        }
        {
            let bumped: Vec<TxMeta> = metas
                .iter()
                .step_by(DEPTH as usize)
                .map(|m| TxMeta {
                    gas_price: m.gas_price.wrapping_mul(U256::from_u64(2)),
                    hash: H256(rng.word()),
                    ..m.clone()
                })
                .collect();
            out.push(Kernel {
                name: "mempool.replace_ns",
                ops: SENDERS as f64,
                scale: NS,
                inverse: false,
                run: Box::new(move || {
                    let mut pool = fill(&metas);
                    clock(|| {
                        for m in &bumped {
                            pool.insert(m.clone(), 0, 0).expect("replacement accepted");
                        }
                    })
                    .1
                }),
            });
        }
    }

    // --- sc-primitives ---
    {
        let tx = Transaction {
            nonce: 7,
            gas_price: gwei(3),
            gas_limit: 60_000,
            to: Some(addresses[5]),
            value: seeded_scalar(&mut rng),
            data: rng.word().to_vec(),
        }
        .sign(&keys[5]);
        out.push(time_kernel(
            "primitives.rlp_roundtrip_ns_per_tx",
            NS,
            100,
            move || {
                for _ in 0..100 {
                    let back = SignedTransaction::decode(&tx.encode()).expect("round trip");
                    std::hint::black_box(back);
                }
            },
        ));
    }
    {
        let words: Vec<(U256, U256)> = (0..100)
            .map(|_| {
                (
                    U256::from_be_bytes(rng.word()),
                    U256::from_be_bytes(rng.word()),
                )
            })
            .collect();
        let modulus = sc_crypto::secp256k1::p();
        out.push(time_kernel(
            "primitives.u256_mulmod_ns",
            NS,
            100,
            move || {
                for &(a, b) in &words {
                    std::hint::black_box(a.mulmod(b, modulus));
                }
            },
        ));
    }

    // --- sc-lang, sc-contracts, sc-core ---
    out.push(time_kernel("lang.compile_betting_ms", MS, 1, || {
        std::hint::black_box(sc_lang::compile(ONCHAIN_SRC, "onChain").expect("compiles"));
        std::hint::black_box(sc_lang::compile(OFFCHAIN_SRC, "offChain").expect("compiles"));
    }));
    out.push(time_kernel("contracts.generate_pair_ms", MS, 1, || {
        let program = sc_lang::parse(MONOLITHIC_SRC).expect("parses");
        std::hint::black_box(generate_pair(&program.contracts[0]).expect("splits"));
    }));
    {
        let secrets = BetSecrets {
            secret_a: seeded_scalar(&mut rng),
            secret_b: seeded_scalar(&mut rng),
            weight: 16,
        };
        let bytecode = OffChainContract::new().initcode(addresses[6], addresses[7], secrets);
        let (ka, kb) = (keys[6], keys[7]);
        let parties = [addresses[6], addresses[7]];
        out.push(time_kernel("core.signed_copy_us", US, 1, move || {
            let copy = SignedCopy::create(bytecode.clone(), &[&ka, &kb]);
            assert!(copy.verify(&parties).is_ok());
        }));
        let heavy = BetSecrets {
            weight: 10_000,
            ..secrets
        };
        out.push(time_kernel(
            "contracts.native_reveal_ns_per_iter",
            NS,
            10_000,
            move || {
                std::hint::black_box(std::hint::black_box(heavy).winner_is_bob());
            },
        ));
    }
    {
        let payload = rng.word().to_vec();
        let (from, to) = (addresses[8], addresses[9]);
        let mut session = 0u64;
        out.push(time_kernel(
            "core.whisper_roundtrip_us",
            US,
            100,
            move || {
                // A fresh bus per call keeps topic history from growing.
                let mut bus = Whisper::new();
                session += 1;
                let topic = Topic::scoped(session, "signed-copy");
                for _ in 0..100 {
                    bus.post(from, &topic, payload.clone());
                    assert_eq!(bus.poll(to, &topic).len(), 1);
                }
            },
        ));
    }
    (out, counts)
}
