//! The paper's contribution: scalable and privacy-preserving on/off-chain
//! smart contracts.
//!
//! * [`splitter`] — split/generate: function classification
//!   (light/public vs heavy/private), static gas estimation, and the
//!   padding plan for the dispute extra-functions.
//! * [`signedcopy`] — the signed copy of the off-chain contract:
//!   `(bytecode, {(v,r,s)})` construction and verification (Algorithm 4
//!   and the off-chain mirror of Algorithm 5's checks).
//! * [`whisper`] — the off-chain message bus used in deploy/sign.
//! * [`seat`] — one seat per party: its own wallet and an honest or
//!   Byzantine strategy; the only code that signs with the seat's key.
//! * [`protocol`] — the four-stage betting game's vocabulary: stages,
//!   outcomes, errors and the per-transaction record (sender, gas) every
//!   session keeps.
//! * [`challenge_protocol`] — extension: the vocabulary of the paper's
//!   submit/challenge stage implemented literally (representative
//!   submission, challenge window, security-deposit penalties, escalation
//!   past the stale deadline after a crash).
//! * [`faults`] — deterministic fault injection: a seeded PRNG schedule
//!   of message drops/duplicates/reorders/corruption/delays, transient
//!   chain and pool failures, link cuts and dropped witnesses.
//! * [`session`] — the session engine: every protocol as a resumable
//!   state machine over one chain-access boundary (a full-node
//!   [`NodePort`] or a stateless [`LightPort`]).
//! * [`net`] — the network: N ≥ 1 gossiping chain nodes under seeded
//!   partitions and link delays, longest-chain fork choice with
//!   reorgs, and the [`NetworkScheduler`] that multiplexes sessions
//!   over it with shared blocks — the one way a session runs: every
//!   caller, a single game included, hands it a [`SessionSpec`] that
//!   seats its own participants.
//! * [`invariants`] — post-run checks (ether conservation, the honest
//!   participant floor, header Merkle-root commitments) used by the
//!   chaos suite.

#![warn(missing_docs)]

pub mod challenge_protocol;
pub mod faults;
pub mod generate;
pub mod invariants;
pub mod net;
pub mod protocol;
pub mod seat;
pub mod session;
pub mod signedcopy;
pub mod splitter;
pub mod whisper;

pub use challenge_protocol::{ChallengeOutcome, CrashPoint, SubmitStrategy, WatchStrategy};
pub use faults::{
    ChainFaults, FaultPlan, LightFaults, LinkFaults, Partition, SubmitFault, WhisperFaults,
    XorShift64, MAX_INJECTED_SECS,
};
pub use generate::{generate_pair, GenerateError, GeneratedPair};
pub use invariants::{
    check_conservation, check_honest_floor, check_state_commitments, gas_spent_by,
    InvariantViolation,
};
pub use net::{NetStats, Network, NetworkScheduler};
pub use protocol::{gas_of, stage_gas, Outcome, ProtocolError, Stage, TxRecord};
pub use seat::{Seat, Strategy};
pub use session::{
    stage_bucket, BettingSession, BettingSpec, BusPort, ChainAccess, ChainReader, ChallengeSession,
    ChallengeSpec, LightPort, LightStats, NodePort, Session, SessionCtx, SessionReport,
    SessionSpec, SettleLaterCrash, SettleLaterOutcome, SettleLaterSession, SettleLaterSpec,
    StepOutcome, TxSubmitter, STAGE_NAMES,
};
pub use signedcopy::{bytecode_hash, sign_bytecode, SignedCopy, SignedCopyError};
pub use splitter::{classify_function, split, Classification, FunctionClass, SplitPlan};
pub use whisper::{Envelope, Topic, Whisper};
