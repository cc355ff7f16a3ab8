//! The deploy/sign signature exchange as a resumable sub-machine.
//!
//! Bounded rounds of re-post + poll until both participants hold a
//! valid signature from each side. Candidates count only if they claim
//! the right sender *and* cryptographically recover to them, so dropped,
//! duplicated, corrupted and deliberately tampered messages are all
//! absorbed the same way: by waiting for a later round to deliver a good
//! copy. The posting half lives in the betting session (it is
//! strategy-dependent); this type owns the collection state.

use super::BusPort;
use crate::signedcopy::SignedCopy;
use sc_crypto::ecdsa::{recover_address, Signature};
use sc_primitives::{Address, H256};

/// Simulated seconds between signature-exchange rounds.
pub const SIGN_ROUND_SECS: u64 = 30;

/// Signature-exchange rounds before an honest participant gives up.
/// Exceeds any whisper fault budget's ability to suppress a re-posted
/// signature, and `16 × 30s` stays well inside the pre-T1 phase.
pub const MAX_SIGN_ROUNDS: u32 = 16;

/// Collection state of one two-party signature exchange:
/// `seen[reader][signer]` is the valid signature `reader` holds from
/// `signer`, once one arrived.
pub struct SignExchange {
    digest: H256,
    expected: [Address; 2],
    seen: [[Option<Signature>; 2]; 2],
    rounds_run: u32,
}

impl SignExchange {
    /// Starts an exchange over `digest` between the two `expected`
    /// signers (who are also the two readers).
    pub fn new(digest: H256, expected: [Address; 2]) -> SignExchange {
        SignExchange {
            digest,
            expected,
            seen: [[None, None], [None, None]],
            rounds_run: 0,
        }
    }

    /// Rounds completed so far.
    pub fn rounds_run(&self) -> u32 {
        self.rounds_run
    }

    /// Completes one post+poll round: polls the topic for both readers
    /// and absorbs every candidate that verifies. Corruption and
    /// tampering both fail the recovery check and are simply ignored.
    pub fn round(&mut self, bus: &mut BusPort<'_>, topic: &str) {
        for (reader, me) in self.expected.into_iter().enumerate() {
            for env in bus.poll(me, topic) {
                let Ok(sig) = Signature::from_bytes(&env.payload) else {
                    continue; // truncated or corrupted beyond parsing
                };
                for (i, &who) in self.expected.iter().enumerate() {
                    if env.from == who
                        && self.seen[reader][i].is_none()
                        && recover_address(self.digest, &sig) == Ok(who)
                    {
                        self.seen[reader][i] = Some(sig);
                    }
                }
            }
        }
        self.rounds_run += 1;
    }

    /// True once every reader holds a signature from every signer.
    pub fn complete(&self) -> bool {
        self.seen.iter().flatten().all(Option::is_some)
    }

    /// Runs each participant's assembled copy through full
    /// [`SignedCopy::verify`] (the off-chain mirror of
    /// `deployVerifiedInstance`'s checks).
    pub fn copies_verify(&self, bytecode: &[u8]) -> bool {
        self.seen.iter().all(|assembled| {
            let copy = SignedCopy {
                bytecode: bytecode.to_vec(),
                signatures: assembled.iter().copied().flatten().collect(),
            };
            copy.verify(&self.expected).is_ok()
        })
    }
}
