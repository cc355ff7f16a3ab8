//! Stateless chain access: sessions driven from a light client.
//!
//! A [`LightPort`] is the other way a session reaches the chain, beside
//! the full-node [`NodePort`](super::NodePort): the session holds **no
//! chain state at all**. Its view of the chain is a [`HeaderClient`] —
//! verified headers only — and every answer it accepts is checked
//! against a commitment in a tracked header before it reaches the
//! session:
//!
//! * storage reads verify a [`sc_chain::StorageProof`] against the head's
//!   `state_root` ([`HeaderClient::verified_storage`]);
//! * its own nonce is floored by an account witness
//!   ([`HeaderClient::verified_account`]) instead of trusting the
//!   relay's account map;
//! * transaction inclusion is confirmed by a receipt witness against a
//!   tracked header's `receipts_root`
//!   ([`HeaderClient::verified_receipt`]) — the relay can *withhold* a
//!   receipt (liveness), but cannot fabricate one (safety).
//!
//! The untrusted full node the witnesses come from is the **relay**.
//! In the simulation it is a direct `&mut Testnet` borrow of the
//! session's home node; the trust boundary is that nothing read from it
//! is believed until a proof anchors it to a header the client tracks.
//!
//! ## Reorg behaviour
//!
//! The client runs the same fork choice as a full node, so when the
//! relay reorgs, the client's head follows and previously fetched
//! witnesses for orphaned blocks stop verifying. Because the port
//! fetches a *fresh* witness on every read, a session simply re-proves
//! against the new canonical head; a queued transaction orphaned by the
//! reorg loses its receipt witness, [`ChainReader::tx_known`] turns
//! false, and the retry task resubmits — exactly the
//! [`NodePort`](super::NodePort) contract.
//!
//! ## Headers are pulled, never pushed
//!
//! Nothing delivers headers to the client unasked. Every call that
//! touches it — a storage read, a receipt lookup, a submission — first
//! walks the relay's canonical chain back to the last header the client
//! tracks and imports the gap, so each answer is checked against the
//! relay's head at exactly the point a full-node session would read its
//! own. The one client read that does not pull,
//! [`ChainReader::block_timestamp`], is only asked about a block whose
//! receipt was just proven.
//!
//! ## Fault model keeps traces bit-identical
//!
//! Light-specific faults ([`LightFaults`]) are witness drops only, and
//! *liveness-only*: a dropped witness is refetched in the same call (the
//! drop is budget-bounded, so the loop terminates). Sessions therefore
//! observe the identical sequence of answers they would on a full-node
//! port under the same seed — which is what lets the scheduler's
//! light-mode reports be compared bit-for-bit against full-node runs —
//! while the refetch machinery still gets exercised and counted in
//! [`LightStats`].

use super::{roll_submit_faults, sign_and_queue, ChainReader, QueuedTx, SendOutcome, TxSubmitter};
use crate::faults::{ChainFaults, LightFaults};
use sc_chain::{HeaderClient, ProofVerifyError, Receipt, Testnet, TxError, Wallet};
use sc_primitives::{Address, H256, U256};
use std::collections::HashMap;

/// Witness-traffic counters for one light session — the observable cost
/// of statelessness (the bench's witness-bytes-per-session metric).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LightStats {
    /// Headers imported from the relay — the only way the client
    /// learns one.
    pub headers_pulled: u64,
    /// State witnesses (storage + account) fetched and verified.
    pub proofs_verified: u64,
    /// Receipt-inclusion witnesses verified against a tracked header.
    pub receipts_verified: u64,
    /// Witness fetches dropped in transit by the fault injector and
    /// refetched.
    pub proofs_dropped: u64,
    /// Total Merkle-path bytes downloaded across all verified
    /// witnesses.
    pub witness_bytes: u64,
}

impl LightStats {
    /// Folds another session's counters into this one (fleet totals).
    pub fn absorb(&mut self, other: &LightStats) {
        self.headers_pulled += other.headers_pulled;
        self.proofs_verified += other.proofs_verified;
        self.receipts_verified += other.receipts_verified;
        self.proofs_dropped += other.proofs_dropped;
        self.witness_bytes += other.witness_bytes;
    }
}

/// Chain access for a stateless session: a [`HeaderClient`] view plus
/// an untrusted relay node that serves witnesses and forwards
/// transactions. Implements [`ChainReader`] + [`TxSubmitter`], so a
/// `&mut LightPort` is a `dyn ChainAccess` like a
/// [`NodePort`](super::NodePort) — the session machines cannot tell the
/// difference.
pub struct LightPort<'a> {
    /// The session's own verified-header view of the chain.
    pub client: &'a mut HeaderClient,
    /// The untrusted full node witnesses and submissions go through.
    pub relay: &'a mut Testnet,
    /// This session's chain fault schedule — the *same* streams a
    /// full-node port rolls, in the same order, so pinned chaos seeds
    /// replay unchanged.
    pub faults: &'a mut ChainFaults,
    /// Light-specific (liveness-only) fault schedule.
    pub light_faults: &'a mut LightFaults,
    /// The round's per-node transaction queue (shared with every other
    /// session homed on the relay).
    pub outbox: &'a mut Vec<QueuedTx>,
    /// Admission errors from the last flush, routed back by tx hash.
    pub rejections: &'a mut HashMap<H256, TxError>,
    /// Witness-traffic counters.
    pub stats: &'a mut LightStats,
}

impl LightPort<'_> {
    /// The one header walk: back along the relay's canonical chain from
    /// its head to the first header the client already tracks, then the
    /// gap imported oldest-first. Covers plain growth and a reorg alike
    /// (the walk crosses the fork point, so the imported branch wins
    /// fork choice on the client too). A no-op when heads agree.
    fn sync(&mut self) {
        let relay: &Testnet = self.relay;
        let mut missing = Vec::new();
        let mut cur = Some(relay.head());
        while let Some(block) = cur.filter(|b| self.client.header_by_hash(b.hash).is_none()) {
            missing.push(&block.header);
            cur = relay.block_by_hash(block.parent_hash);
        }
        for h in missing.into_iter().rev() {
            if self.client.import_header(h.clone()).is_ok() {
                self.stats.headers_pulled += 1;
            }
        }
    }

    /// One witness fetch through the fault injector: every drop costs
    /// light-fault budget and forces a refetch, so the loop is bounded
    /// by the budget and the *last* fetch always delivers.
    fn fetch<T>(&mut self, mut fetch: impl FnMut(&mut Testnet) -> T) -> T {
        let mut witness = fetch(self.relay);
        while self.light_faults.drop_proof() {
            self.stats.proofs_dropped += 1;
            witness = fetch(self.relay);
        }
        witness
    }
}

impl ChainReader for LightPort<'_> {
    /// The clock is ambient simulation time, not a proven quantity —
    /// the relay answers it, like any RPC node answers `now` queries
    /// for a wall-clock-less embedded client.
    fn now(&self) -> u64 {
        self.relay.now()
    }

    /// From the client's tracked headers; falls back to the head's
    /// timestamp for an untracked height, mirroring the full-node port.
    fn block_timestamp(&self, number: u64) -> u64 {
        self.client
            .header(number)
            .map_or_else(|| self.client.head().timestamp, |h| h.timestamp)
    }

    /// Fetches a fresh storage witness from the relay and accepts the
    /// value only if its Merkle path checks out against the **client
    /// head's** `state_root` — strict anchoring, no fallback: a witness
    /// for any other root (a stale pre-reorg proof, a forged branch) is
    /// a typed error, never a value.
    fn verified_storage_at(&mut self, a: Address, key: U256) -> Result<U256, ProofVerifyError> {
        self.sync();
        let proof = self.fetch(|relay| relay.prove_storage(a, key));
        let value = self.client.verified_storage(&proof)?;
        self.stats.proofs_verified += 1;
        self.stats.witness_bytes += proof.witness_bytes() as u64;
        Ok(value)
    }

    /// A receipt is only surfaced once the relay can *prove* inclusion:
    /// the claimed block must be a tracked canonical header committing
    /// the transaction hash, and the receipt's Merkle path must check
    /// out against that header's `receipts_root`. Until then the answer
    /// is `None` and the retry task simply polls again — withholding is
    /// a liveness fault, not a forgery vector. The returned receipt's
    /// consensus encoding must equal the proven leaf byte-for-byte, so
    /// the relay cannot attach a doctored receipt to a valid path.
    fn receipt(&mut self, hash: H256) -> Option<Receipt> {
        self.sync();
        let proof = self.fetch(|relay| relay.prove_receipt(hash))?;
        self.client.verified_receipt(&proof).ok()?;
        let receipt = self.relay.receipt(hash)?.clone();
        if receipt.rlp_encode() != proof.receipt_rlp {
            return None;
        }
        self.stats.receipts_verified += 1;
        self.stats.witness_bytes += proof.witness_bytes() as u64;
        Some(receipt)
    }

    /// Advisory liveness signal, answered by the relay like the node
    /// port answers from its own pool. A lying relay could at worst
    /// trigger a spurious resubmission, which admission dedups by
    /// nonce — safety never rests on this answer.
    fn tx_known(&self, hash: H256) -> bool {
        self.relay.receipt(hash).is_some()
            || self.relay.tx_is_pending(hash)
            || self.outbox.iter().any(|q| q.hash == hash)
    }
}

impl TxSubmitter for LightPort<'_> {
    /// Rolls the *same* fault streams in the same order as the node
    /// port, then self-signs and queues into the relay's outbox. The nonce is the relay's mempool-aware advice, floored
    /// by the client-verified account witness — on an honest relay the
    /// advice already covers the proven nonce (it includes pooled
    /// transactions), so the choice is invisible; a relay advising a
    /// *stale* nonce is overridden by the proof.
    fn submit(
        &mut self,
        wallet: &Wallet,
        to: Option<Address>,
        value: U256,
        data: Vec<u8>,
        gas_limit: u64,
        gas_price: Option<U256>,
        roll_fault: bool,
    ) -> SendOutcome {
        if roll_fault {
            if let Some(held) = roll_submit_faults(self.faults) {
                return held;
            }
        }
        self.sync();
        let advised = self.relay.effective_nonce(wallet.address);
        let address = wallet.address;
        let proof = self.fetch(|relay| relay.prove_account(address));
        let floor = match self.client.verified_account(&proof) {
            Ok((nonce, _balance)) => {
                self.stats.proofs_verified += 1;
                self.stats.witness_bytes += proof.witness_bytes() as u64;
                nonce
            }
            // An unanchorable account witness cannot *raise* the nonce;
            // fall back to the advice alone (admission rejects a wrong
            // guess deterministically, so this is liveness, not safety).
            Err(_) => 0,
        };
        sign_and_queue(
            self.outbox,
            wallet,
            advised.max(floor),
            gas_price.unwrap_or(self.relay.config().default_gas_price),
            gas_limit,
            to,
            value,
            data,
        )
    }

    fn take_rejection(&mut self, hash: H256) -> Option<TxError> {
        self.rejections.remove(&hash)
    }

    fn default_gas_price(&self) -> U256 {
        self.relay.config().default_gas_price
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::session::{ChainAccess, NodePort};
    use sc_primitives::ether;

    /// A funded chain, a synced client, and the session wallet.
    fn rig() -> (Testnet, HeaderClient, Wallet) {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("alice", ether(10));
        let client = HeaderClient::new(net.block(0).unwrap().header.clone());
        (net, client, alice)
    }

    fn plan_with_light_faults() -> FaultPlan {
        FaultPlan {
            proof_drop_permille: 1000,
            light_fault_budget: 3,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn light_port_submits_and_proves_receipt_end_to_end() {
        let (mut net, mut client, alice) = rig();
        let plan = FaultPlan::none();
        let mut faults = ChainFaults::new(&plan);
        let mut light_faults = LightFaults::new(&plan);
        let mut outbox = Vec::new();
        let mut rejections = HashMap::new();
        let mut stats = LightStats::default();

        // `PUSH1 42 PUSH1 1 SSTORE STOP` as initcode.
        let initcode = vec![0x60, 0x2a, 0x60, 0x01, 0x55, 0x00];
        let hash = {
            let mut port = LightPort {
                client: &mut client,
                relay: &mut net,
                faults: &mut faults,
                light_faults: &mut light_faults,
                outbox: &mut outbox,
                rejections: &mut rejections,
                stats: &mut stats,
            };
            match port.submit(&alice, None, U256::ZERO, initcode, 200_000, None, true) {
                SendOutcome::Queued(h) => h,
                _ => panic!("light submission queues"),
            }
        };

        // Flush the outbox the way the scheduler would and mine.
        let batch: Vec<_> = outbox.drain(..).map(|q| q.tx).collect();
        let results = net.submit_batch(batch);
        assert!(results.iter().all(|r| r.is_ok()));
        net.mine_block();

        let mut port = LightPort {
            client: &mut client,
            relay: &mut net,
            faults: &mut faults,
            light_faults: &mut light_faults,
            outbox: &mut outbox,
            rejections: &mut rejections,
            stats: &mut stats,
        };
        // The receipt is only surfaced with a verified inclusion proof.
        let receipt = port.receipt(hash).expect("mined and provable");
        assert!(receipt.success);
        let contract = receipt.contract_address.expect("deployment");
        // And the read back is the proven value.
        assert_eq!(
            port.verified_storage_at(contract, U256::ONE).unwrap(),
            U256::from_u64(42)
        );
        assert!(stats.receipts_verified >= 1);
        // Only the storage witness: the submission's account witness
        // cannot verify here, because `rig`'s genesis header commits the
        // empty state root while `funded_wallet` minted alice unsealed
        // (`AccountMismatch`, so the port falls back to the advice).
        assert_eq!(stats.proofs_verified, 1);
        assert!(stats.witness_bytes > 0);
        assert!(stats.headers_pulled >= 1);
    }

    #[test]
    fn dropped_witnesses_are_refetched_within_the_call() {
        let (mut net, mut client, alice) = rig();
        let plan = plan_with_light_faults();
        let chain_plan = FaultPlan::none();
        let mut faults = ChainFaults::new(&chain_plan);
        let mut light_faults = LightFaults::new(&plan);
        let mut outbox = Vec::new();
        let mut rejections = HashMap::new();
        let mut stats = LightStats::default();
        let mut port = LightPort {
            client: &mut client,
            relay: &mut net,
            faults: &mut faults,
            light_faults: &mut light_faults,
            outbox: &mut outbox,
            rejections: &mut rejections,
            stats: &mut stats,
        };
        // 100% drop rate, budget 3: the first read burns the entire
        // budget on refetches and still answers.
        let balance_slot = U256::from_u64(7);
        let v = port
            .verified_storage_at(alice.address, balance_slot)
            .expect("refetch loop is budget-bounded and then delivers");
        assert_eq!(v, U256::ZERO);
        assert_eq!(stats.proofs_dropped, 3);
        assert_eq!(light_faults.remaining_budget(), 0);
    }

    #[test]
    fn light_port_is_a_chain_access_object() {
        // The coercion the scheduler relies on: &mut LightPort is a
        // &mut dyn ChainAccess exactly like &mut NodePort.
        let (mut net, mut client, _alice) = rig();
        let plan = FaultPlan::none();
        let mut faults = ChainFaults::new(&plan);
        let mut light_faults = LightFaults::new(&plan);
        let mut outbox = Vec::new();
        let mut rejections = HashMap::new();
        let mut stats = LightStats::default();
        {
            let mut port = LightPort {
                client: &mut client,
                relay: &mut net,
                faults: &mut faults,
                light_faults: &mut light_faults,
                outbox: &mut outbox,
                rejections: &mut rejections,
                stats: &mut stats,
            };
            let access: &mut dyn ChainAccess = &mut port;
            // The client tracks only genesis, its head: an untracked
            // height falls back to the head's timestamp.
            assert_eq!(access.block_timestamp(u64::MAX), access.block_timestamp(0));
        }
        let mut port = NodePort {
            net: &mut net,
            faults: &mut faults,
            outbox: &mut outbox,
            rejections: &mut rejections,
        };
        let access: &mut dyn ChainAccess = &mut port;
        let _ = access.now();
    }

    #[test]
    fn node_port_verifies_reads_against_the_head_header_only() {
        let (mut net, _client, alice) = rig();
        // `PUSH1 42 PUSH1 1 SSTORE STOP` as initcode, mined.
        let initcode = vec![0x60, 0x2a, 0x60, 0x01, 0x55, 0x00];
        let receipt = net.deploy(&alice, initcode, U256::ZERO, 200_000).unwrap();
        let contract = receipt.contract_address.expect("deployment");
        // An unsealed mint moves the live state root away from the one
        // the head header commits.
        net.faucet(Address([0x77; 20]), ether(1));
        let plan = FaultPlan::none();
        let mut faults = ChainFaults::new(&plan);
        let mut outbox = Vec::new();
        let mut rejections = HashMap::new();
        let mut port = NodePort {
            net: &mut net,
            faults: &mut faults,
            outbox: &mut outbox,
            rejections: &mut rejections,
        };
        // A proof of live state must not verify against a root no
        // header commits.
        assert!(matches!(
            port.verified_storage_at(contract, U256::ONE),
            Err(ProofVerifyError::Trie(sc_trie::ProofError::MissingNode(_)))
        ));
    }
}
