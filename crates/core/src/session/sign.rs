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

    /// True once every reader holds a signature from every signer. Each
    /// recovered to its signer over the digest when it arrived, so each
    /// reader's assembled copy of the bytecode behind the digest already
    /// passes [`SignedCopy::verify`](crate::signedcopy::SignedCopy::verify).
    pub fn complete(&self) -> bool {
        self.seen.iter().flatten().all(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, WhisperFaults};
    use crate::signedcopy::{bytecode_hash, sign_bytecode, SignedCopy};
    use crate::whisper::Whisper;
    use sc_crypto::ecdsa::PrivateKey;

    #[test]
    fn a_completed_exchange_assembles_verifying_copies() {
        let keys = [PrivateKey::from_seed("alice"), PrivateKey::from_seed("bob")];
        let expected = [keys[0].address(), keys[1].address()];
        let bytecode = vec![0x60, 0x2a, 0x60, 0x00, 0x52];
        let mut bus = Whisper::new();
        let mut faults = WhisperFaults::new(&FaultPlan::none());
        let mut port = BusPort {
            bus: &mut bus,
            faults: &mut faults,
        };
        // A foreign signature and garbage are absorbed without counting.
        let outsider = PrivateKey::from_seed("mallory");
        port.post(
            expected[1],
            "t",
            sign_bytecode(&outsider, &bytecode).to_bytes().to_vec(),
        );
        port.post(expected[0], "t", vec![0xff; 3]);
        for (key, &from) in keys.iter().zip(&expected) {
            port.post(from, "t", sign_bytecode(key, &bytecode).to_bytes().to_vec());
        }

        let mut ex = SignExchange::new(bytecode_hash(&bytecode), expected);
        ex.round(&mut port, "t");
        assert!(ex.complete());
        for assembled in &ex.seen {
            let copy = SignedCopy {
                bytecode: bytecode.clone(),
                signatures: assembled.iter().copied().flatten().collect(),
            };
            assert_eq!(copy.verify(&expected), Ok(()));
        }
    }
}
