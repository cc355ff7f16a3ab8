//! The submit/challenge protocol variant as a resumable state machine.
//!
//! Setup (deploy, the betting game's signature exchange, stake +
//! security deposits, wait out T2), then the representative's
//! submission, the challenge window, and the escalation paths for a
//! crashed representative (forced resolution for a watching
//! counterparty, stake reclamation for a sleeping one).

use super::sign::{Cutoff, SignExchange};
use super::{hold_for_start, ChallengeSpec, Sent, Session, SessionCtx, StepOutcome, TxLog, TxTask};
use crate::challenge_protocol::{ChallengeOutcome, CrashPoint, SubmitStrategy, WatchStrategy};
use crate::protocol::{ProtocolError, TxRecord};
use crate::seat::{Seat, Strategy};
use sc_chain::Wallet;
use sc_contracts::challenge::{
    security_deposit, stake, ChallengeContracts, CHALLENGE_DEPLOYED_ADDR_SLOT,
};
use sc_contracts::{BetSecrets, Timeline};
use sc_primitives::{Address, U256};

/// Where the machine is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Wait out the staggered start, fix the timeline.
    Start,
    /// Alice deploys the on-chain challenge contract.
    Deploy,
    /// Signature exchange rounds until complete or T1 closes in.
    Signing,
    /// Deposit (stake + security deposit) of participant `0`/`1`.
    Deposit(usize),
    /// Wait out T2 so results can be submitted, then route on the
    /// behaviours.
    AwaitT2,
    /// Crashed representative: wait out the stale deadline.
    StaleWait,
    /// The watcher forces resolution with the signed copy.
    StaleChallenge,
    /// `returnDisputeResolution` after a stale-deadline challenge.
    StaleResolve,
    /// Sleeping parties reclaim their own funds, `bob` then `alice`.
    Reclaim(usize),
    /// The representative submits the (possibly false) result.
    Submit,
    /// The watcher challenges inside the window.
    Challenge,
    /// `returnDisputeResolution` after an in-window challenge.
    ChallengeResolve,
    /// Wait out the unchallenged window.
    FinalizeWait,
    /// Whoever is still up finalizes.
    Finalize,
    /// Terminal.
    Done,
}

/// One challenge-variant game as a pollable state machine.
pub struct ChallengeSession {
    /// Compiled contract pair.
    pub contracts: ChallengeContracts,
    /// The representative who submits (0) and the watcher (1).
    pub seats: [Seat; 2],
    /// Deployed on-chain contract.
    pub onchain: Address,
    /// The signed off-chain initcode.
    pub bytecode: Vec<u8>,
    /// The game's T1/T2 windows (T3 unused by this variant).
    pub timeline: Timeline,
    /// Bytes of the off-chain contract made public (0 without a
    /// challenge).
    pub offchain_bytes_revealed: usize,
    secrets: BetSecrets,
    topic: String,
    window: u64,
    submit: SubmitStrategy,
    watch: WatchStrategy,
    crash: CrashPoint,
    start_delay: u64,
    start_at: Option<u64>,
    phase: Phase,
    log: TxLog,
    sign: Option<SignExchange>,
    proposed_at: u64,
    outcome: Option<ChallengeOutcome>,
}

impl ChallengeSession {
    /// Builds the machine at its start state (nothing touched the chain
    /// yet; the off-chain initcode is derived immediately). `wallets`
    /// are the representative's and the watcher's, both funded at
    /// genesis; `topic` scopes the signature exchange on a shared bus,
    /// and the timeline is fixed from the chain clock at the first step
    /// after `start_delay`.
    pub fn new(
        spec: ChallengeSpec,
        wallets: [Wallet; 2],
        topic: String,
        contracts: ChallengeContracts,
    ) -> ChallengeSession {
        let [alice, bob] = &wallets;
        let bytecode = contracts.offchain_initcode(alice.address, bob.address, spec.secrets);
        ChallengeSession {
            contracts,
            seats: wallets.map(|wallet| Seat::new(wallet, Strategy::Honest)),
            onchain: Address::ZERO,
            bytecode,
            timeline: Timeline::starting_at(0, 3600),
            offchain_bytes_revealed: 0,
            secrets: spec.secrets,
            topic,
            window: spec.window,
            submit: spec.submit,
            watch: spec.watch,
            crash: spec.crash,
            start_delay: spec.start_delay,
            start_at: None,
            phase: Phase::Start,
            log: TxLog::default(),
            sign: None,
            proposed_at: 0,
            outcome: None,
        }
    }

    /// The terminal outcome, once the session is done.
    pub fn outcome(&self) -> Option<ChallengeOutcome> {
        self.outcome
    }

    fn finish(&mut self, outcome: ChallengeOutcome) -> StepOutcome {
        self.outcome = Some(outcome);
        self.phase = Phase::Done;
        StepOutcome::Done
    }

    fn claimed(&self) -> bool {
        let truth = self.secrets.winner_is_bob();
        match self.submit {
            SubmitStrategy::Truthful => truth,
            SubmitStrategy::False => !truth,
        }
    }

    /// The watcher's challenge with the bytecode and the signature pair
    /// its side of the exchange verified.
    fn challenge_task(&self, deadline: Option<u64>) -> TxTask {
        let [sig_a, sig_b] = self
            .sign
            .as_ref()
            .and_then(|ex| ex.signatures(1))
            .expect("deposits follow a completed exchange");
        self.seats[1].call(
            "challenge",
            self.onchain,
            self.contracts.challenge(&self.bytecode, &sig_a, &sig_b),
            600_000,
            deadline,
        )
    }
}

impl Session for ChallengeSession {
    /// Makes one bounded unit of progress.
    fn step(&mut self, ctx: &mut SessionCtx<'_>) -> Result<StepOutcome, ProtocolError> {
        match self.phase {
            Phase::Start => {
                let now = ctx.chain.now();
                if let Some(wait) = hold_for_start(&mut self.start_at, self.start_delay, now) {
                    return Ok(wait);
                }
                self.timeline = Timeline::starting_at(now, 3600);
                self.phase = Phase::Deploy;
                Ok(StepOutcome::Progress)
            }

            Phase::Deploy => {
                if self.log.idle() {
                    let initcode = self.contracts.onchain_initcode(
                        self.seats[0].address(),
                        self.seats[1].address(),
                        self.timeline,
                        self.window,
                    );
                    self.log.start(TxTask::new(
                        "deploy onChainChallenge",
                        self.seats[0].wallet.clone(),
                        None,
                        U256::ZERO,
                        initcode,
                        1_700_000,
                        None,
                    ));
                }
                match self.log.poll_must(ctx.chain)? {
                    Ok(r) => {
                        self.onchain = r.contract_address.expect("created");
                        self.phase = Phase::Signing;
                        Ok(StepOutcome::Progress)
                    }
                    Err(hold) => Ok(hold),
                }
            }

            Phase::Signing => {
                let ex = self
                    .sign
                    .get_or_insert_with(|| SignExchange::over_copy(&self.seats, &self.bytecode));
                let (now, t1) = (ctx.chain.now(), self.timeline.t1);
                match ex.step(&mut ctx.bus, &self.topic, now, t1, Cutoff::BeforeRound) {
                    Some(t) => Ok(StepOutcome::WaitUntil(t)),
                    None if ex.complete() => {
                        self.phase = Phase::Deposit(0);
                        Ok(StepOutcome::Progress)
                    }
                    None => Ok(self.finish(ChallengeOutcome::AbortedAtSigning)),
                }
            }

            Phase::Deposit(idx) => {
                if idx >= 2 {
                    self.phase = Phase::AwaitT2;
                    return Ok(StepOutcome::Progress);
                }
                if self.log.idle() {
                    self.log.start(TxTask::new(
                        "deposit",
                        self.seats[idx].wallet.clone(),
                        Some(self.onchain),
                        stake().wrapping_add(security_deposit()),
                        self.contracts.deposit(),
                        400_000,
                        Some(self.timeline.t1),
                    ));
                }
                self.log
                    .land_then(ctx.chain, &mut self.phase, Phase::Deposit(idx + 1))
            }

            Phase::AwaitT2 => {
                // Move past T2 so results can be submitted.
                let now = ctx.chain.now();
                if now <= self.timeline.t2 {
                    return Ok(StepOutcome::WaitUntil(self.timeline.t2 + 60));
                }
                // A crashed representative never submits; everyone else
                // does.
                self.phase = if self.crash == CrashPoint::BeforeSubmit {
                    Phase::StaleWait
                } else {
                    Phase::Submit
                };
                Ok(StepOutcome::Progress)
            }

            Phase::StaleWait => {
                // No result ever arrives; the counterparty waits out the
                // stale deadline, then escalates per its watch strategy.
                let stale_deadline = self.timeline.t2 + self.window;
                let now = ctx.chain.now();
                if now <= stale_deadline {
                    return Ok(StepOutcome::WaitUntil(stale_deadline + 60));
                }
                self.phase = match self.watch {
                    WatchStrategy::Vigilant | WatchStrategy::Frivolous => Phase::StaleChallenge,
                    WatchStrategy::Asleep => Phase::Reclaim(0),
                };
                Ok(StepOutcome::Progress)
            }

            Phase::StaleChallenge => {
                // Force the miner-enforced resolution with the signed
                // copy — the crashed side's stake is not a hostage.
                if self.log.idle() {
                    self.log.start(self.challenge_task(None));
                }
                match self.log.poll_must(ctx.chain)? {
                    Ok(_) => {
                        self.offchain_bytes_revealed = self.bytecode.len();
                        self.phase = Phase::StaleResolve;
                        Ok(StepOutcome::Progress)
                    }
                    Err(hold) => Ok(hold),
                }
            }

            Phase::StaleResolve | Phase::ChallengeResolve => {
                if self.log.idle() {
                    let instance = super::deployed_instance(
                        ctx.chain,
                        self.onchain,
                        CHALLENGE_DEPLOYED_ADDR_SLOT,
                    )?;
                    self.log.start(self.seats[1].call(
                        "returnDisputeResolution",
                        instance,
                        self.contracts.return_dispute_resolution(self.onchain),
                        super::dispute_gas_limit(self.secrets.weight),
                        None,
                    ));
                }
                match self.log.poll_must(ctx.chain)? {
                    Ok(_) => Ok(self.finish(ChallengeOutcome::ResolvedByChallenge)),
                    Err(hold) => Ok(hold),
                }
            }

            Phase::Reclaim(idx) => {
                if idx >= 2 {
                    return Ok(self.finish(ChallengeOutcome::ReclaimedStale));
                }
                if self.log.idle() {
                    // The watcher first, then the (restarted) representative.
                    self.log.start(self.seats[1 - idx].call(
                        "reclaimNoSubmission",
                        self.onchain,
                        self.contracts.reclaim_no_submission(),
                        400_000,
                        None,
                    ));
                }
                self.log
                    .land_then(ctx.chain, &mut self.phase, Phase::Reclaim(idx + 1))
            }

            Phase::Submit => {
                if self.log.idle() {
                    self.log.start(self.seats[0].call(
                        "submitResult",
                        self.onchain,
                        self.contracts.submit_result(self.claimed()),
                        400_000,
                        None,
                    ));
                }
                match self.log.poll_must(ctx.chain)? {
                    Ok(r) => {
                        // The challenge window opens at the block that
                        // mined the submission (mining delays included).
                        self.proposed_at = ctx.chain.block_timestamp(r.block_number);
                        let wants_challenge = match self.watch {
                            WatchStrategy::Vigilant => {
                                self.claimed() != self.secrets.winner_is_bob()
                            }
                            WatchStrategy::Asleep => false,
                            WatchStrategy::Frivolous => true,
                        };
                        self.phase = if wants_challenge {
                            Phase::Challenge
                        } else {
                            Phase::FinalizeWait
                        };
                        Ok(StepOutcome::Progress)
                    }
                    Err(hold) => Ok(hold),
                }
            }

            Phase::Challenge => {
                // Bob challenges with the signed copy inside the window.
                // This send is *not* mandatory: a challenge that cannot
                // land before the window closes (injected delays), is
                // rejected outright, or lands reverted degrades to the
                // finalize path.
                if self.log.idle() {
                    self.log
                        .start(self.challenge_task(Some(self.proposed_at + self.window)));
                }
                self.phase = match self.log.poll(ctx.chain) {
                    Sent::Hold(hold) => return Ok(hold),
                    Sent::Landed(r) if r.success => {
                        self.offchain_bytes_revealed = self.bytecode.len();
                        Phase::ChallengeResolve
                    }
                    Sent::Landed(_) | Sent::Missed | Sent::Rejected(_) => Phase::FinalizeWait,
                };
                Ok(StepOutcome::Progress)
            }

            Phase::FinalizeWait => {
                // Window passes quietly (or the challenge missed it).
                let window_end = self.proposed_at + self.window;
                let now = ctx.chain.now();
                if now <= window_end {
                    return Ok(StepOutcome::WaitUntil(window_end + 60));
                }
                self.phase = Phase::Finalize;
                Ok(StepOutcome::Progress)
            }

            Phase::Finalize => {
                if self.log.idle() {
                    // Whoever is still up finalizes — the crashed
                    // representative cannot, the watcher can.
                    let finalizer = usize::from(self.crash == CrashPoint::AfterSubmit);
                    self.log.start(self.seats[finalizer].call(
                        "finalize",
                        self.onchain,
                        self.contracts.finalize(),
                        300_000,
                        None,
                    ));
                }
                match self.log.poll_must(ctx.chain)? {
                    Ok(_) => {
                        let outcome = if self.claimed() == self.secrets.winner_is_bob() {
                            ChallengeOutcome::FinalizedUnchallenged
                        } else {
                            ChallengeOutcome::LieStood
                        };
                        Ok(self.finish(outcome))
                    }
                    Err(hold) => Ok(hold),
                }
            }

            Phase::Done => Ok(StepOutcome::Done),
        }
    }

    fn outcome_label(&self) -> Option<&'static str> {
        self.outcome.map(|o| match o {
            ChallengeOutcome::FinalizedUnchallenged => "finalized-unchallenged",
            ChallengeOutcome::ResolvedByChallenge => "resolved-by-challenge",
            ChallengeOutcome::LieStood => "lie-stood",
            ChallengeOutcome::ReclaimedStale => "reclaimed-stale",
            ChallengeOutcome::AbortedAtSigning => "aborted-at-signing",
        })
    }

    fn txs(&self) -> &[TxRecord] {
        self.log.txs()
    }

    fn messages_posted(&self) -> usize {
        self.sign.as_ref().map_or(0, SignExchange::posts)
    }
}
