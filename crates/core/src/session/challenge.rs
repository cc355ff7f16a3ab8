//! The submit/challenge protocol variant as a resumable state machine.
//!
//! Setup (deploy, stake + security deposits, wait out T2), then the
//! representative's submission, the challenge window, and the
//! escalation paths for a crashed representative (forced resolution for
//! a watching counterparty, stake reclamation for a sleeping one).

use super::{hold_for_start, ChallengeSpec, Sent, Session, SessionCtx, StepOutcome, TxLog, TxTask};
use crate::challenge_protocol::{ChallengeOutcome, CrashPoint, SubmitStrategy, WatchStrategy};
use crate::participant::{Participant, Strategy};
use crate::protocol::{ProtocolError, TxRecord};
use crate::signedcopy::SignedCopy;
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
    /// Participant 0 (also the representative who submits).
    pub alice: Participant,
    /// Participant 1 (the watcher).
    pub bob: Participant,
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
    window: u64,
    submit: SubmitStrategy,
    watch: WatchStrategy,
    crash: CrashPoint,
    start_delay: u64,
    start_at: Option<u64>,
    phase: Phase,
    log: TxLog,
    proposed_at: u64,
    outcome: Option<ChallengeOutcome>,
}

impl ChallengeSession {
    /// Builds the machine at its start state (nothing touched the chain
    /// yet; the off-chain initcode is derived immediately). `wallets`
    /// are the representative's and the watcher's, both funded at
    /// genesis; the timeline is fixed from the chain clock at the first
    /// step after `start_delay`.
    pub fn new(
        spec: ChallengeSpec,
        [alice, bob]: [Wallet; 2],
        contracts: ChallengeContracts,
    ) -> ChallengeSession {
        let bytecode = contracts.offchain_initcode(alice.address, bob.address, spec.secrets);
        let honest = |wallet| Participant {
            wallet,
            strategy: Strategy::Honest,
        };
        ChallengeSession {
            contracts,
            alice: honest(alice),
            bob: honest(bob),
            onchain: Address::ZERO,
            bytecode,
            timeline: Timeline::starting_at(0, 3600),
            offchain_bytes_revealed: 0,
            secrets: spec.secrets,
            window: spec.window,
            submit: spec.submit,
            watch: spec.watch,
            crash: spec.crash,
            start_delay: spec.start_delay,
            start_at: None,
            phase: Phase::Start,
            log: TxLog::default(),
            proposed_at: 0,
            outcome: None,
        }
    }

    /// The fully signed copy of the off-chain contract.
    pub fn signed_copy(&self) -> SignedCopy {
        SignedCopy::create(
            self.bytecode.clone(),
            &[&self.alice.wallet.key, &self.bob.wallet.key],
        )
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
                        self.alice.wallet.address,
                        self.bob.wallet.address,
                        self.timeline,
                        self.window,
                    );
                    self.log.start(TxTask::new(
                        "deploy onChainChallenge",
                        self.alice.wallet.clone(),
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
                        self.phase = Phase::Deposit(0);
                        Ok(StepOutcome::Progress)
                    }
                    Err(hold) => Ok(hold),
                }
            }

            Phase::Deposit(idx) => {
                if idx >= 2 {
                    self.phase = Phase::AwaitT2;
                    return Ok(StepOutcome::Progress);
                }
                if self.log.idle() {
                    let depositor = if idx == 0 { &self.alice } else { &self.bob };
                    self.log.start(TxTask::new(
                        "deposit",
                        depositor.wallet.clone(),
                        Some(self.onchain),
                        stake().wrapping_add(security_deposit()),
                        self.contracts.deposit(),
                        400_000,
                        Some(self.timeline.t1),
                    ));
                }
                match self.log.poll_must(ctx.chain)? {
                    Ok(_) => {
                        self.phase = Phase::Deposit(idx + 1);
                        Ok(StepOutcome::Progress)
                    }
                    Err(hold) => Ok(hold),
                }
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
                    let copy = self.signed_copy();
                    let data = self.contracts.challenge(
                        &copy.bytecode,
                        &copy.signatures[0],
                        &copy.signatures[1],
                    );
                    self.log.start(TxTask::new(
                        "challenge",
                        self.bob.wallet.clone(),
                        Some(self.onchain),
                        U256::ZERO,
                        data,
                        600_000,
                        None,
                    ));
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
                    self.log.start(TxTask::new(
                        "returnDisputeResolution",
                        self.bob.wallet.clone(),
                        Some(instance),
                        U256::ZERO,
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
                    let claimant = if idx == 0 { &self.bob } else { &self.alice };
                    self.log.start(TxTask::new(
                        "reclaimNoSubmission",
                        claimant.wallet.clone(),
                        Some(self.onchain),
                        U256::ZERO,
                        self.contracts.reclaim_no_submission(),
                        400_000,
                        None,
                    ));
                }
                match self.log.poll_must(ctx.chain)? {
                    Ok(_) => {
                        self.phase = Phase::Reclaim(idx + 1);
                        Ok(StepOutcome::Progress)
                    }
                    Err(hold) => Ok(hold),
                }
            }

            Phase::Submit => {
                if self.log.idle() {
                    self.log.start(TxTask::new(
                        "submitResult",
                        self.alice.wallet.clone(),
                        Some(self.onchain),
                        U256::ZERO,
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
                    let copy = self.signed_copy();
                    let data = self.contracts.challenge(
                        &copy.bytecode,
                        &copy.signatures[0],
                        &copy.signatures[1],
                    );
                    self.log.start(TxTask::new(
                        "challenge",
                        self.bob.wallet.clone(),
                        Some(self.onchain),
                        U256::ZERO,
                        data,
                        600_000,
                        Some(self.proposed_at + self.window),
                    ));
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
                    let finalizer = if self.crash == CrashPoint::AfterSubmit {
                        &self.bob
                    } else {
                        &self.alice
                    };
                    self.log.start(TxTask::new(
                        "finalize",
                        finalizer.wallet.clone(),
                        Some(self.onchain),
                        U256::ZERO,
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
        })
    }

    fn txs(&self) -> &[TxRecord] {
        self.log.txs()
    }

    fn messages_posted(&self) -> usize {
        0 // this variant exchanges no off-chain messages in-protocol
    }
}
