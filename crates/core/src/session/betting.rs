//! The four-stage betting protocol as a resumable state machine.
//!
//! Each phase of Fig. 2 is a state, each `step` makes one bounded unit
//! of progress, and every wait — signature rounds, retry backoff, the
//! T1–T3 windows — is surfaced as [`StepOutcome::WaitUntil`] instead of
//! advancing a privately-owned clock. The degradation lattice is
//! unchanged: missed signatures abort before any deposit, missed
//! deposits dissolve into round-two refunds, a missed `reassign`
//! escalates to the dispute stage, and the dispute stage always lands
//! because its window is unbounded.

use super::sign::{Cutoff, SignExchange};
use super::{hold_for_start, BettingSpec, Sent, Session, SessionCtx, StepOutcome, TxLog, TxTask};
use crate::protocol::{Outcome, ProtocolError, TxRecord};
use crate::seat::{Seat, Strategy};
use crate::signedcopy::bytecode_hash;
use sc_chain::Wallet;
use sc_contracts::{BetSecrets, OffChainContract, OnChainContract, Timeline, DEPLOYED_ADDR_SLOT};
use sc_primitives::{ether, Address, U256};

/// Where the machine is in Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Wait out the staggered start, fix the timeline.
    Start,
    /// Alice deploys the on-chain contract (deadline T1).
    Deploy,
    /// Signature exchange rounds until complete or T1 closes in.
    Signing,
    /// Deposit of participant `0`/`1`, in order (deadline T1).
    Deposit(usize),
    /// Deposits incomplete: wait out T1 before round-two refunds.
    RefundWait,
    /// Round-two refund of participant `0`/`1` (deadline T2).
    Refund(usize),
    /// Wait out T2, then route on the loser's strategy.
    AwaitT2,
    /// The honest loser concedes (deadline T3).
    Reassign,
    /// Wait out T3 before the dispute stage.
    AwaitT3,
    /// The forging loser tries a self-signed fake copy (must revert).
    Forged,
    /// The winner submits the true signed copy (unbounded window).
    SubmitCopy,
    /// `returnDisputeResolution` on the verified instance.
    Resolve,
    /// Terminal.
    Done,
}

/// One betting game as a pollable state machine.
pub struct BettingSession {
    /// Compiled on-chain contract + ABI.
    pub onchain_abi: OnChainContract,
    /// Compiled off-chain contract + ABI.
    pub offchain_abi: OffChainContract,
    /// Participants 0 and 1.
    pub seats: [Seat; 2],
    /// The game's windows (placeholder until the session starts).
    pub timeline: Timeline,
    /// Deployed on-chain contract (zero until the deploy lands).
    pub onchain: Address,
    /// The agreed off-chain initcode.
    pub offchain_bytecode: Vec<u8>,
    /// Bytes of the off-chain contract made public on-chain (0 on the
    /// honest path; the privacy metric of Fig. 1).
    pub offchain_bytes_revealed: usize,
    phase_seconds: u64,
    secrets: BetSecrets,
    topic: String,
    start_delay: u64,
    start_at: Option<u64>,
    phase: Phase,
    log: TxLog,
    sign: Option<SignExchange>,
    deposits_made: [bool; 2],
    outcome: Option<Outcome>,
}

impl BettingSession {
    /// Stage 1 — split/generate: builds the off-chain initcode with the
    /// private bet baked in and parks the machine at its start state.
    /// Both wallets must be funded at genesis; `topic` scopes the
    /// signature exchange on a shared bus, and the timeline is fixed
    /// from the chain clock at the first step after `start_delay`.
    pub fn new(
        spec: BettingSpec,
        [alice, bob]: [Wallet; 2],
        topic: String,
        (onchain_abi, offchain_abi): (OnChainContract, OffChainContract),
    ) -> BettingSession {
        let offchain_bytecode = offchain_abi.initcode(alice.address, bob.address, spec.secrets);
        BettingSession {
            onchain_abi,
            offchain_abi,
            seats: [Seat::new(alice, spec.alice), Seat::new(bob, spec.bob)],
            timeline: Timeline::starting_at(0, spec.phase_seconds),
            onchain: Address::ZERO,
            offchain_bytecode,
            offchain_bytes_revealed: 0,
            phase_seconds: spec.phase_seconds,
            secrets: spec.secrets,
            topic,
            start_delay: spec.start_delay,
            start_at: None,
            phase: Phase::Start,
            log: TxLog::default(),
            sign: None,
            deposits_made: [false, false],
            outcome: None,
        }
    }

    /// The terminal outcome, once the session is done.
    pub fn outcome(&self) -> Option<Outcome> {
        self.outcome
    }

    fn finish(&mut self, outcome: Outcome) -> StepOutcome {
        self.outcome = Some(outcome);
        self.phase = Phase::Done;
        StepOutcome::Done
    }

    /// The winner's seat index.
    fn winner(&self) -> usize {
        usize::from(self.secrets.winner_is_bob())
    }

    fn loser(&self) -> &Seat {
        &self.seats[1 - self.winner()]
    }
}

impl Session for BettingSession {
    /// Makes one bounded unit of progress through Fig. 2.
    fn step(&mut self, ctx: &mut SessionCtx<'_>) -> Result<StepOutcome, ProtocolError> {
        match self.phase {
            Phase::Start => {
                let now = ctx.chain.now();
                if let Some(wait) = hold_for_start(&mut self.start_at, self.start_delay, now) {
                    return Ok(wait);
                }
                self.timeline = Timeline::starting_at(now, self.phase_seconds);
                self.phase = Phase::Deploy;
                Ok(StepOutcome::Progress)
            }

            Phase::Deploy => {
                if self.log.idle() {
                    let initcode = self.onchain_abi.initcode(
                        self.seats[0].address(),
                        self.seats[1].address(),
                        self.timeline,
                    );
                    self.log.start(TxTask::new(
                        "deploy onChain",
                        self.seats[0].wallet.clone(),
                        None,
                        U256::ZERO,
                        initcode,
                        1_400_000,
                        Some(self.timeline.t1),
                    ));
                }
                match self.log.poll(ctx.chain) {
                    Sent::Landed(r) => {
                        let Some(onchain) = r.contract_address.filter(|_| r.success) else {
                            return Err(ProtocolError::TxFailed("deploy onChain".into()));
                        };
                        self.onchain = onchain;
                        self.phase = Phase::Signing;
                        Ok(StepOutcome::Progress)
                    }
                    Sent::Hold(hold) => Ok(hold),
                    Sent::Missed => Ok(self.finish(Outcome::AbortedAtSigning)),
                    Sent::Rejected(e) => {
                        Err(ProtocolError::TxFailed(format!("deploy onChain: {e}")))
                    }
                }
            }

            Phase::Signing => {
                // No round starts that could not finish before T1: out
                // of time or rounds, the game aborts before any funds
                // are at risk.
                let ex = self.sign.get_or_insert_with(|| {
                    SignExchange::over_copy(&self.seats, &self.offchain_bytecode)
                });
                let (now, t1) = (ctx.chain.now(), self.timeline.t1);
                match ex.step(&mut ctx.bus, &self.topic, now, t1, Cutoff::BeforeRound) {
                    Some(t) => Ok(StepOutcome::WaitUntil(t)),
                    None if ex.complete() => {
                        self.phase = Phase::Deposit(0);
                        Ok(StepOutcome::Progress)
                    }
                    None => Ok(self.finish(Outcome::AbortedAtSigning)),
                }
            }

            Phase::Deposit(idx) => {
                if idx >= 2 {
                    self.phase = if self.deposits_made == [true, true] {
                        Phase::AwaitT2
                    } else {
                        Phase::RefundWait
                    };
                    return Ok(StepOutcome::Progress);
                }
                let seat = &self.seats[idx];
                if matches!(seat.strategy, Strategy::NoShow) {
                    self.phase = Phase::Deposit(idx + 1);
                    return Ok(StepOutcome::Progress);
                }
                if self.log.idle() {
                    self.log.start(TxTask::new(
                        "deposit",
                        seat.wallet.clone(),
                        Some(self.onchain),
                        ether(1),
                        self.onchain_abi.deposit(),
                        300_000,
                        Some(self.timeline.t1),
                    ));
                }
                match self.log.poll(ctx.chain) {
                    Sent::Hold(hold) => return Ok(hold),
                    Sent::Landed(r) => self.deposits_made[idx] = r.success,
                    // A deposit that cannot land just stays unmade; the
                    // refund path handles the dissolution.
                    Sent::Missed | Sent::Rejected(_) => {}
                }
                self.phase = Phase::Deposit(idx + 1);
                Ok(StepOutcome::Progress)
            }

            Phase::RefundWait => {
                // Move into (T1, T2).
                let now = ctx.chain.now();
                if now <= self.timeline.t1 {
                    return Ok(StepOutcome::WaitUntil(self.timeline.t1 + 60));
                }
                self.phase = Phase::Refund(0);
                Ok(StepOutcome::Progress)
            }

            Phase::Refund(idx) => {
                if idx >= 2 {
                    return Ok(self.finish(Outcome::Refunded));
                }
                if !self.deposits_made[idx] {
                    self.phase = Phase::Refund(idx + 1);
                    return Ok(StepOutcome::Progress);
                }
                if self.log.idle() {
                    self.log.start(self.seats[idx].call(
                        "refundRoundTwo",
                        self.onchain,
                        self.onchain_abi.refund_round_two(),
                        300_000,
                        Some(self.timeline.t2),
                    ));
                }
                if let Sent::Hold(hold) = self.log.poll(ctx.chain) {
                    return Ok(hold);
                }
                // Landed or not: a refund that misses its window leaves
                // the wei in the contract; the depositor is still no
                // worse off than deposit-minus-gas.
                self.phase = Phase::Refund(idx + 1);
                Ok(StepOutcome::Progress)
            }

            Phase::AwaitT2 => {
                // Off-chain execution: both parties privately evaluate
                // reveal(); no chain interaction, which is the point.
                // Then move into (T2, T3) and route on the loser.
                let now = ctx.chain.now();
                if now <= self.timeline.t2 {
                    return Ok(StepOutcome::WaitUntil(self.timeline.t2 + 60));
                }
                self.phase = if self.loser().strategy.disputes_result() {
                    Phase::AwaitT3
                } else {
                    Phase::Reassign
                };
                Ok(StepOutcome::Progress)
            }

            Phase::Reassign => {
                if self.log.idle() {
                    self.log.start(self.loser().call(
                        "reassign",
                        self.onchain,
                        self.onchain_abi.reassign(),
                        300_000,
                        Some(self.timeline.t3),
                    ));
                }
                match self.log.poll(ctx.chain) {
                    Sent::Landed(r) if r.success => Ok(self.finish(Outcome::SettledHonestly)),
                    // A reverted reassign (e.g. a mining delay pushed the
                    // block past T3) or one that missed T3 outright: the
                    // winner can always enforce via the dispute path.
                    Sent::Landed(_) | Sent::Missed => {
                        self.phase = Phase::AwaitT3;
                        Ok(StepOutcome::Progress)
                    }
                    Sent::Hold(hold) => Ok(hold),
                    Sent::Rejected(e) => Err(ProtocolError::TxFailed(format!("reassign: {e}"))),
                }
            }

            Phase::AwaitT3 => {
                let now = ctx.chain.now();
                if now <= self.timeline.t3 {
                    return Ok(StepOutcome::WaitUntil(self.timeline.t3 + 60));
                }
                self.phase = if matches!(self.loser().strategy, Strategy::ForgingLoser) {
                    Phase::Forged
                } else {
                    Phase::SubmitCopy
                };
                Ok(StepOutcome::Progress)
            }

            Phase::Forged => {
                // The dishonest loser tries a forged bytecode first: a
                // copy whose baked-in secrets favour them, signed only by
                // themselves (they cannot produce the winner's signature).
                if self.log.idle() {
                    let loser = self.loser();
                    let mut forged = self.offchain_bytecode.clone();
                    let last = forged.len() - 1;
                    forged[last] ^= 0x01;
                    let own_sig = loser.sign(bytecode_hash(&forged));
                    let data = self
                        .onchain_abi
                        .deploy_verified_instance(&forged, &own_sig, &own_sig);
                    self.log.start(loser.call(
                        "deployVerifiedInstance (forged)",
                        self.onchain,
                        data,
                        600_000,
                        None,
                    ));
                }
                match self.log.poll(ctx.chain) {
                    Sent::Hold(hold) => return Ok(hold),
                    Sent::Landed(r) => assert!(
                        !r.success,
                        "forged bytecode must fail on-chain signature verification"
                    ),
                    // The forgery never landing is no loss to anyone.
                    Sent::Missed | Sent::Rejected(_) => {}
                }
                self.phase = Phase::SubmitCopy;
                Ok(StepOutcome::Progress)
            }

            Phase::SubmitCopy => {
                // The honest winner submits the true signed copy: the
                // bytecode with the signature pair its own side of the
                // exchange verified. The window is unbounded, so with a
                // finite fault budget this always lands eventually.
                if self.log.idle() {
                    let winner = self.winner();
                    let [sig_a, sig_b] = self
                        .sign
                        .as_ref()
                        .and_then(|ex| ex.signatures(winner))
                        .expect("deposits follow a completed exchange");
                    self.offchain_bytes_revealed = self.offchain_bytecode.len();
                    let data = self.onchain_abi.deploy_verified_instance(
                        &self.offchain_bytecode,
                        &sig_a,
                        &sig_b,
                    );
                    self.log.start(self.seats[winner].call(
                        "deployVerifiedInstance",
                        self.onchain,
                        data,
                        600_000,
                        None,
                    ));
                }
                match self.log.poll(ctx.chain) {
                    Sent::Landed(r) if r.success => {
                        self.phase = Phase::Resolve;
                        Ok(StepOutcome::Progress)
                    }
                    Sent::Hold(hold) => Ok(hold),
                    _ => Err(ProtocolError::TxFailed("deployVerifiedInstance".into())),
                }
            }

            Phase::Resolve => {
                if self.log.idle() {
                    // Read deployedAddr from the on-chain contract's
                    // storage; anyone certified can then trigger the
                    // miner-enforced resolution.
                    let instance =
                        super::deployed_instance(ctx.chain, self.onchain, DEPLOYED_ADDR_SLOT)?;
                    if instance.is_zero() {
                        return Err(ProtocolError::NoVerifiedInstance);
                    }
                    self.log.start(self.seats[self.winner()].call(
                        "returnDisputeResolution",
                        instance,
                        self.offchain_abi.return_dispute_resolution(self.onchain),
                        super::dispute_gas_limit(self.secrets.weight),
                        None,
                    ));
                }
                match self.log.poll(ctx.chain) {
                    Sent::Landed(r) if r.success => Ok(self.finish(Outcome::SettledByDispute)),
                    Sent::Hold(hold) => Ok(hold),
                    _ => Err(ProtocolError::TxFailed("returnDisputeResolution".into())),
                }
            }

            Phase::Done => Ok(StepOutcome::Done),
        }
    }

    fn outcome_label(&self) -> Option<&'static str> {
        self.outcome.map(|o| match o {
            Outcome::AbortedAtSigning => "aborted-at-signing",
            Outcome::Refunded => "refunded",
            Outcome::SettledHonestly => "settled-honestly",
            Outcome::SettledByDispute => "settled-by-dispute",
        })
    }

    fn txs(&self) -> &[TxRecord] {
        self.log.txs()
    }

    fn messages_posted(&self) -> usize {
        self.sign.as_ref().map_or(0, SignExchange::posts)
    }
}
