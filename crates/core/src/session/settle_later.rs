//! The confidential settle-later protocol as a resumable state machine.
//!
//! Two parties open a confidential channel on the
//! [`confidentialDeposit`](sc_contracts::confidential) contract: public
//! stakes, committed claims (Pedersen commitment + range proof, no
//! amount in calldata), and an activation step that pins the
//! conservation anchor. The *outcome* never touches the chain while
//! both parties are live — they exchange a co-signed
//! [`SettlementVoucher`] over whisper, and **either** participant
//! (including one that crashed right after co-signing and came back, or
//! one stranded behind a partition) submits it on-chain later. The
//! contract burns one nullifier per voucher digest, so a double
//! submission — same voucher from both parties, possibly racing across
//! nodes — settles exactly once and every replay reverts.
//!
//! The machine seats both parties, mirroring the other session
//! variants: each seat signs the voucher with its own key, crash and
//! double-submit behaviour are spec knobs routed at the settle phase,
//! whisper faults stress the voucher exchange, and an exchange that
//! never completes degrades to the post-deadline reclaim path.

use super::sign::{Cutoff, SignExchange};
use super::{hold_for_start, Sent, Session, SessionCtx, StepOutcome, TxLog, TxTask};
use crate::protocol::{ProtocolError, TxRecord};
use crate::seat::{Seat, Strategy};
use sc_chain::Wallet;
use sc_confidential::range::MAX_BITS;
use sc_confidential::{CommitmentBackend, PedersenBackend, SettlementVoucher, SignedVoucher};
use sc_contracts::confidential::{ConfidentialContracts, ConfidentialParams};
use sc_crypto::keccak256;
use sc_crypto::secp256k1::{n as curve_order, scalar};
use sc_primitives::{Address, U256};

/// Whether (and which) participant crashes after co-signing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SettleLaterCrash {
    /// Both parties stay up.
    #[default]
    None,
    /// Party A goes dark right after the voucher exchange: B submits
    /// the voucher alone and A never withdraws (their share stays
    /// claimable in the contract).
    AAfterCosign,
}

/// Specification of one settle-later session.
#[derive(Debug, Clone)]
pub struct SettleLaterSpec {
    /// Party A's stake in units.
    pub units_a: u64,
    /// Party B's stake in units.
    pub units_b: u64,
    /// Units the voucher moves from A to B.
    pub delta_units: u64,
    /// Wei per unit.
    pub unit_scale: u64,
    /// Range-proof width for deposit commitments.
    pub range_bits: u32,
    /// `false` skips the voucher exchange entirely: the channel times
    /// out and both parties reclaim their stakes.
    pub exchange_voucher: bool,
    /// Crash behaviour after co-signing.
    pub crash: SettleLaterCrash,
    /// Both parties submit the same voucher (the second lands as a
    /// nullifier revert).
    pub double_submit: bool,
    /// Seconds between co-signing and the on-chain submission — the
    /// "later" in settle-later.
    pub settle_delay: u64,
    /// Reclaim deadline, seconds after deployment.
    pub deadline_secs: u64,
    /// `Some(seed)` injects that deterministic fault schedule.
    pub fault_seed: Option<u64>,
    /// Seconds after scheduler start before this session begins.
    pub start_delay: u64,
}

impl Default for SettleLaterSpec {
    fn default() -> Self {
        SettleLaterSpec {
            units_a: 30,
            units_b: 12,
            delta_units: 9,
            unit_scale: 1_000_000_000, // 1 gwei per unit
            range_bits: 16,
            exchange_voucher: true,
            crash: SettleLaterCrash::None,
            double_submit: false,
            settle_delay: 900,
            deadline_secs: 7200,
            fault_seed: None,
            start_delay: 0,
        }
    }
}

/// Terminal outcome of a settle-later session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleLaterOutcome {
    /// The voucher landed (submitted by whoever was up) and every live
    /// party withdrew its opening.
    Settled,
    /// Both parties submitted; the first won the nullifier, the
    /// replay reverted, withdrawals still went through.
    SettledDoubleSubmit,
    /// No voucher ever completed; both stakes were reclaimed after the
    /// deadline.
    ReclaimedUnsettled,
}

/// Where the machine is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Wait out the staggered start.
    Start,
    /// Deploy the confidential-deposit contract.
    Deploy,
    /// Public stake of participant `0`/`1`.
    Fund(usize),
    /// Committed claim (+ range proof) of participant `0`/`1`.
    Deposit(usize),
    /// Pin the conservation anchor.
    Activate,
    /// Off-chain voucher co-signing over whisper.
    Exchange,
    /// Hold the co-signed voucher off-chain for `settle_delay`.
    SettleHold,
    /// Submission `idx` of the submitter list (double submit = 2).
    Settle(usize),
    /// Withdrawal of participant `0`/`1` (crashed parties skip).
    Withdraw(usize),
    /// No voucher: wait out the reclaim deadline.
    AwaitDeadline,
    /// Post-deadline stake reclamation of participant `0`/`1`.
    Reclaim(usize),
    /// Terminal.
    Done,
}

/// One confidential settle-later channel as a pollable state machine.
pub struct SettleLaterSession {
    contracts: ConfidentialContracts,
    seats: [Seat; 2],
    spec: SettleLaterSpec,
    topic: String,
    /// Deployed contract address.
    pub onchain: Address,
    params: Option<ConfidentialParams>,
    phase: Phase,
    log: TxLog,
    exchange: Option<SignExchange>,
    /// The voucher both seats sign, fixed when the exchange starts.
    voucher: Option<SettlementVoucher>,
    start_at: Option<u64>,
    settle_at: u64,
    outcome: Option<SettleLaterOutcome>,
}

/// A session-deterministic blinding scalar: every run derives the same
/// commitments from the same topic, which is what keeps chaos replays
/// bit-identical.
fn derive_blinding(topic: &str, tag: &str) -> U256 {
    let mut buf = Vec::with_capacity(topic.len() + tag.len() + 1);
    buf.extend_from_slice(topic.as_bytes());
    buf.push(b'|');
    buf.extend_from_slice(tag.as_bytes());
    scalar::reduce(keccak256(&buf).to_u256())
}

impl SettleLaterSession {
    /// Builds the machine at its start state. Both wallets must be
    /// funded at genesis; `topic` scopes the voucher exchange.
    pub fn new(
        spec: SettleLaterSpec,
        wallets: [Wallet; 2],
        topic: String,
        contracts: ConfidentialContracts,
    ) -> SettleLaterSession {
        SettleLaterSession {
            contracts,
            seats: wallets.map(|wallet| Seat::new(wallet, Strategy::Honest)),
            spec,
            topic,
            onchain: Address::ZERO,
            params: None,
            phase: Phase::Start,
            log: TxLog::default(),
            exchange: None,
            voucher: None,
            start_at: None,
            settle_at: 0,
            outcome: None,
        }
    }

    /// The terminal outcome, once the session is done.
    pub fn outcome(&self) -> Option<SettleLaterOutcome> {
        self.outcome
    }

    /// The co-signed voucher as seat `reader` holds it: the voucher
    /// with the signature pair its side of the exchange verified, once
    /// it holds both.
    pub fn signed_voucher(&self, reader: usize) -> Option<SignedVoucher> {
        let [sig_a, sig_b] = self.exchange.as_ref()?.signatures(reader)?;
        Some(SignedVoucher {
            voucher: self.voucher?,
            sig_a,
            sig_b,
        })
    }

    /// The channel parameters, fixed at deploy time.
    fn channel(&self) -> ConfidentialParams {
        self.params.expect("channel deployed")
    }

    /// Each seat's blinding for `tag` (`"in-a"`: the deposits,
    /// `"out-a"`: the voucher's outputs): A's derives from the topic,
    /// B's cancels it, so each pair of commitments sums to its units·G.
    fn blindings(&self, tag: &str) -> [U256; 2] {
        let ra = derive_blinding(&self.topic, tag);
        [ra, curve_order().wrapping_sub(ra)]
    }

    /// Refuses a spec that could never settle, naming the field at
    /// fault: the voucher must not move more than A staked, and each
    /// side's larger amount (A's deposit, B's final claim — so both
    /// deposits and both final claims) needs a range proof at
    /// `range_bits`. Checked before anything is sent: past that point
    /// both stakes would sit in a contract this session can neither
    /// settle nor reclaim from.
    fn check_spec(&self) -> Result<(), ProtocolError> {
        let spec = &self.spec;
        let fits = |units: u64| {
            (1..=MAX_BITS).contains(&spec.range_bits)
                && u64::BITS - units.leading_zeros() <= spec.range_bits
        };
        let fault = if spec.delta_units > spec.units_a {
            "delta_units exceeds units_a"
        } else if !fits(spec.units_a) {
            "units_a does not fit range_bits"
        } else if !spec.units_b.checked_add(spec.delta_units).is_some_and(fits) {
            "units_b + delta_units overflows or does not fit range_bits"
        } else {
            return Ok(());
        };
        Err(ProtocolError::TxFailed(format!("spec: {fault}")))
    }

    /// The final split the voucher encodes ([`Self::check_spec`] ruled
    /// out under- and overflow).
    fn final_units(&self) -> [u64; 2] {
        [
            self.spec.units_a - self.spec.delta_units,
            self.spec.units_b + self.spec.delta_units,
        ]
    }

    /// The settlement voucher both parties sign.
    fn voucher(&self) -> SettlementVoucher {
        let backend = PedersenBackend;
        let [va, vb] = self.final_units();
        let [ra, rb] = self.blindings("out-a");
        SettlementVoucher {
            contract: self.onchain,
            out_a: backend.commit(U256::from_u64(va), ra),
            out_b: backend.commit(U256::from_u64(vb), rb),
        }
    }

    /// Starts the voucher exchange: the voucher is built and hashed
    /// once, each seat signs it with its own key, and the exchange
    /// re-posts both signatures every round.
    fn start_exchange(&mut self) -> SignExchange {
        let voucher = self.voucher();
        let digest = voucher.digest();
        self.voucher = Some(voucher);
        SignExchange::new(
            digest,
            self.seats.each_ref().map(Seat::address),
            self.seats.each_ref().map(|s| Some(s.sign(digest))),
        )
    }

    /// The seats that submit the voucher at the settle phase, in order.
    fn submitters(&self) -> &'static [usize] {
        match (self.spec.crash, self.spec.double_submit) {
            (SettleLaterCrash::AAfterCosign, _) => &[1],
            (SettleLaterCrash::None, true) => &[0, 1],
            (SettleLaterCrash::None, false) => &[0],
        }
    }

    fn finish(&mut self, outcome: SettleLaterOutcome) -> StepOutcome {
        self.outcome = Some(outcome);
        self.phase = Phase::Done;
        StepOutcome::Done
    }
}

impl Session for SettleLaterSession {
    /// Makes one bounded unit of progress.
    fn step(&mut self, ctx: &mut SessionCtx<'_>) -> Result<StepOutcome, ProtocolError> {
        match self.phase {
            Phase::Start => {
                let now = ctx.chain.now();
                if let Some(wait) = hold_for_start(&mut self.start_at, self.spec.start_delay, now) {
                    return Ok(wait);
                }
                self.check_spec()?;
                self.phase = Phase::Deploy;
                Ok(StepOutcome::Progress)
            }

            Phase::Deploy => {
                if self.log.idle() {
                    let p = *self.params.get_or_insert(ConfidentialParams {
                        units_a: self.spec.units_a,
                        units_b: self.spec.units_b,
                        unit_scale: U256::from_u64(self.spec.unit_scale),
                        range_bits: self.spec.range_bits,
                        deadline: ctx.chain.now() + self.spec.deadline_secs,
                    });
                    let initcode = self.contracts.initcode(
                        self.seats[0].address(),
                        self.seats[1].address(),
                        p,
                    );
                    self.log.start(TxTask::new(
                        "deploy onConfidentialDeposit",
                        self.seats[0].wallet.clone(),
                        None,
                        U256::ZERO,
                        initcode,
                        5_000_000,
                        None,
                    ));
                }
                match self.log.poll_must(ctx.chain)? {
                    Ok(r) => {
                        self.onchain = r.contract_address.expect("created");
                        self.phase = Phase::Fund(0);
                        Ok(StepOutcome::Progress)
                    }
                    Err(hold) => Ok(hold),
                }
            }

            Phase::Fund(idx) => {
                if idx >= 2 {
                    self.phase = Phase::Deposit(0);
                    return Ok(StepOutcome::Progress);
                }
                if self.log.idle() {
                    let p = self.channel();
                    let units = [p.units_a, p.units_b][idx];
                    self.log.start(TxTask::new(
                        "deposit stake",
                        self.seats[idx].wallet.clone(),
                        Some(self.onchain),
                        p.stake_wei(units),
                        self.contracts.fund(),
                        300_000,
                        Some(p.deadline),
                    ));
                }
                self.log
                    .land_then(ctx.chain, &mut self.phase, Phase::Fund(idx + 1))
            }

            Phase::Deposit(idx) => {
                if idx >= 2 {
                    self.phase = Phase::Activate;
                    return Ok(StepOutcome::Progress);
                }
                if self.log.idle() {
                    let p = self.channel();
                    let backend = PedersenBackend;
                    let units = [p.units_a, p.units_b][idx];
                    let r = self.blindings("in-a")[idx];
                    let c = backend.commit(U256::from_u64(units), r);
                    let proof = backend
                        .prove_range(U256::from_u64(units), r, p.range_bits)
                        .expect("check_spec: the stake fits the range width");
                    let data = self
                        .contracts
                        .deposit_committed(&c, p.range_bits, proof.as_bytes());
                    self.log.start(self.seats[idx].call(
                        "depositCommitted",
                        self.onchain,
                        data,
                        2_500_000,
                        Some(p.deadline),
                    ));
                }
                self.log
                    .land_then(ctx.chain, &mut self.phase, Phase::Deposit(idx + 1))
            }

            Phase::Activate => {
                if self.log.idle() {
                    let p = self.channel();
                    let backend = PedersenBackend;
                    let [r_a, r_b] = self.blindings("in-a");
                    let c_a = backend.commit(U256::from_u64(p.units_a), r_a);
                    let c_b = backend.commit(U256::from_u64(p.units_b), r_b);
                    let sum = backend.add(&c_a, &c_b);
                    self.log.start(self.seats[0].call(
                        "activate",
                        self.onchain,
                        self.contracts.activate(&sum),
                        600_000,
                        Some(p.deadline),
                    ));
                }
                self.log
                    .land_then(ctx.chain, &mut self.phase, Phase::Exchange)
            }

            Phase::Exchange => {
                if !self.spec.exchange_voucher {
                    self.phase = Phase::AwaitDeadline;
                    return Ok(StepOutcome::Progress);
                }
                if self.exchange.is_none() {
                    self.exchange = Some(self.start_exchange());
                }
                // One exchange round: both parties re-post their voucher
                // signature, then absorb whatever the faulty bus
                // delivered. A round late in the channel still runs.
                let (now, deadline) = (ctx.chain.now(), self.channel().deadline);
                let ex = self.exchange.as_mut().expect("exchange started");
                if let Some(t) =
                    ex.step(&mut ctx.bus, &self.topic, now, deadline, Cutoff::AfterRound)
                {
                    return Ok(StepOutcome::WaitUntil(t));
                }
                // Without a complete exchange the bus ate every copy: no
                // co-signed voucher exists, fall back to the timeout path.
                self.phase = if ex.complete() {
                    self.settle_at = now + self.spec.settle_delay;
                    Phase::SettleHold
                } else {
                    Phase::AwaitDeadline
                };
                Ok(StepOutcome::Progress)
            }

            Phase::SettleHold => {
                // The voucher lives off-chain; nobody is in a hurry. A
                // crash in this window is exactly what settle-later
                // absorbs: the voucher is all either party needs.
                let now = ctx.chain.now();
                if now < self.settle_at {
                    return Ok(StepOutcome::WaitUntil(self.settle_at));
                }
                self.phase = Phase::Settle(0);
                Ok(StepOutcome::Progress)
            }

            Phase::Settle(idx) => {
                let submitters = self.submitters();
                if idx >= submitters.len() {
                    self.phase = Phase::Withdraw(0);
                    return Ok(StepOutcome::Progress);
                }
                if self.log.idle() {
                    let seat = submitters[idx];
                    let signed = self
                        .signed_voucher(seat)
                        .expect("settling follows a completed exchange");
                    self.log.start(self.seats[seat].call(
                        "settle",
                        self.onchain,
                        self.contracts.settle(&signed),
                        1_500_000,
                        None,
                    ));
                }
                if idx == 0 {
                    // The first submission must land and succeed.
                    return self
                        .log
                        .land_then(ctx.chain, &mut self.phase, Phase::Settle(1));
                }
                // The replay must land and *revert*: the nullifier is
                // burned. A second success would be a double settlement —
                // a protocol violation, not bad luck.
                match self.log.poll(ctx.chain) {
                    Sent::Hold(hold) => return Ok(hold),
                    Sent::Landed(r) if r.success => {
                        return Err(ProtocolError::TxFailed("voucher settled twice".into()));
                    }
                    Sent::Landed(_) | Sent::Missed | Sent::Rejected(_) => {}
                }
                self.phase = Phase::Settle(idx + 1);
                Ok(StepOutcome::Progress)
            }

            Phase::Withdraw(idx) => {
                if idx >= 2 {
                    let outcome = if self.spec.double_submit {
                        SettleLaterOutcome::SettledDoubleSubmit
                    } else {
                        SettleLaterOutcome::Settled
                    };
                    return Ok(self.finish(outcome));
                }
                if idx == 0 && self.spec.crash == SettleLaterCrash::AAfterCosign {
                    // A is still dark; their share stays claimable.
                    self.phase = Phase::Withdraw(1);
                    return Ok(StepOutcome::Progress);
                }
                if self.log.idle() {
                    let v = self.final_units()[idx];
                    let r = self.blindings("out-a")[idx];
                    self.log.start(self.seats[idx].call(
                        "withdraw",
                        self.onchain,
                        self.contracts.withdraw(U256::from_u64(v), r),
                        600_000,
                        None,
                    ));
                }
                self.log
                    .land_then(ctx.chain, &mut self.phase, Phase::Withdraw(idx + 1))
            }

            Phase::AwaitDeadline => {
                let deadline = self.channel().deadline;
                let now = ctx.chain.now();
                if now < deadline {
                    return Ok(StepOutcome::WaitUntil(deadline + 60));
                }
                self.phase = Phase::Reclaim(0);
                Ok(StepOutcome::Progress)
            }

            Phase::Reclaim(idx) => {
                if idx >= 2 {
                    return Ok(self.finish(SettleLaterOutcome::ReclaimedUnsettled));
                }
                if self.log.idle() {
                    self.log.start(self.seats[idx].call(
                        "reclaim",
                        self.onchain,
                        self.contracts.reclaim(),
                        300_000,
                        None,
                    ));
                }
                self.log
                    .land_then(ctx.chain, &mut self.phase, Phase::Reclaim(idx + 1))
            }

            Phase::Done => Ok(StepOutcome::Done),
        }
    }

    fn outcome_label(&self) -> Option<&'static str> {
        self.outcome.map(|o| match o {
            SettleLaterOutcome::Settled => "settled",
            SettleLaterOutcome::SettledDoubleSubmit => "settled-double-submit",
            SettleLaterOutcome::ReclaimedUnsettled => "reclaimed-unsettled",
        })
    }

    fn txs(&self) -> &[TxRecord] {
        self.log.txs()
    }

    fn messages_posted(&self) -> usize {
        self.exchange.as_ref().map_or(0, SignExchange::posts)
    }
}
