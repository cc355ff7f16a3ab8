//! The deploy/sign signature exchange as a resumable sub-machine.
//!
//! Bounded rounds of re-post + poll until both participants hold a
//! valid signature from each side. Candidates count only if they claim
//! the right sender *and* cryptographically recover to them, so dropped,
//! duplicated, corrupted and deliberately tampered messages are all
//! absorbed the same way: by waiting for a later round to deliver a good
//! copy.
//!
//! Each seat signs once, with its own key, when the exchange starts,
//! and every round re-posts those same bytes: the exchange holds
//! signatures and the bus view, never a key. Each distinct payload is
//! recovered once: the verdict is kept for the life of the exchange, so
//! both readers and every later round reuse it. Signing is RFC 6979, so
//! a re-signed copy would have been the same bytes; neither saving
//! changes what the bus carries. One exchange serves both seats: whisper
//! delay faults release held messages per `poll` call, so one exchange
//! per seat would replay a fault schedule differently.

use super::BusPort;
use crate::seat::Seat;
use crate::signedcopy::bytecode_hash;
use sc_crypto::ecdsa::{recover_address, Signature};
use sc_primitives::{Address, H256};

/// Simulated seconds between signature-exchange rounds.
pub const SIGN_ROUND_SECS: u64 = 30;

/// Signature-exchange rounds before an honest participant gives up. A
/// plan's budget of up to 24 whisper faults stops an honest exchange
/// only by losing all 16 of one signer's posts, which no plan in the
/// 10,000-case `prop` sweep did; `16 × 30s` stays inside the pre-T1 phase.
pub const MAX_SIGN_ROUNDS: u32 = 16;

/// When a signing phase's deadline stops it.
pub(crate) enum Cutoff {
    /// No round starts within one round of the deadline (deploy/sign:
    /// deposits must still land before T1).
    BeforeRound,
    /// A late step still runs its round, but no wait follows it (the
    /// settle-later voucher: the deadline only opens the reclaim path).
    AfterRound,
}

/// State of one two-party signature exchange: what each seat posts,
/// and `seen[reader][signer]`, the valid signature `reader` holds from
/// `signer` once one arrived.
pub struct SignExchange {
    digest: H256,
    expected: [Address; 2],
    posted: [Option<Signature>; 2],
    /// The recovered signer of every distinct signature a reader had to
    /// check (`None`: recovery failed). Keyed by the parsed signature,
    /// which is the payload byte for byte: `Signature::from_bytes`
    /// accepts exactly 65 bytes and keeps each one.
    verdicts: Vec<(Signature, Option<Address>)>,
    seen: [[Option<Signature>; 2]; 2],
    rounds_run: u32,
}

impl SignExchange {
    /// Starts an exchange over `digest` between the two `expected`
    /// signers (who are also the two readers). Every round, seat `i`
    /// posts `posted[i]` as `expected[i]`, or nothing if it is `None`.
    pub fn new(digest: H256, expected: [Address; 2], posted: [Option<Signature>; 2]) -> Self {
        SignExchange {
            digest,
            expected,
            posted,
            verdicts: Vec::new(),
            seen: [[None, None], [None, None]],
            rounds_run: 0,
        }
    }

    /// Starts a deploy/sign exchange over `bytecode` between `seats`:
    /// each seat signs it once, for itself, per its strategy.
    pub(crate) fn over_copy(seats: &[Seat; 2], bytecode: &[u8]) -> Self {
        let digest = bytecode_hash(bytecode);
        SignExchange::new(
            digest,
            seats.each_ref().map(Seat::address),
            seats.each_ref().map(|s| s.copy_signature(bytecode, digest)),
        )
    }

    /// Rounds completed so far.
    pub fn rounds_run(&self) -> u32 {
        self.rounds_run
    }

    /// Messages posted so far (before bus faults): every round posts
    /// each seat's signature once.
    pub fn posts(&self) -> usize {
        self.rounds_run as usize * self.posted.iter().flatten().count()
    }

    /// Signature recoveries run so far: one per distinct payload that
    /// claimed a signer whose slot some reader still had open
    /// (diagnostics; pins the recover-once behaviour in tests).
    pub fn recoveries(&self) -> usize {
        self.verdicts.len()
    }

    /// Completes one post+poll round: both seats post their signatures,
    /// then both readers poll the topic and absorb every candidate that
    /// verifies. Corruption and tampering both fail the recovery check
    /// and are simply ignored.
    pub fn round(&mut self, bus: &mut BusPort<'_>, topic: &str) {
        for (&from, sig) in self.expected.iter().zip(&self.posted) {
            if let Some(sig) = sig {
                bus.post(from, topic, sig.to_bytes().to_vec());
            }
        }
        let expected = self.expected;
        for (reader, me) in expected.into_iter().enumerate() {
            for env in bus.poll(me, topic) {
                let Ok(sig) = Signature::from_bytes(&env.payload) else {
                    continue; // truncated or corrupted beyond parsing
                };
                for (i, &who) in expected.iter().enumerate() {
                    if env.from == who
                        && self.seen[reader][i].is_none()
                        && self.signer(sig) == Some(who)
                    {
                        self.seen[reader][i] = Some(sig);
                    }
                }
            }
        }
        self.rounds_run += 1;
    }

    /// One step of a signing phase at chain time `now`: the time to
    /// step again, or `None` once the exchange is [complete](Self::complete)
    /// or given up. It gives up within one round of `deadline`, before
    /// or after that step's round per `cutoff`, and after the
    /// [`MAX_SIGN_ROUNDS`]th round.
    pub(crate) fn step(
        &mut self,
        bus: &mut BusPort<'_>,
        topic: &str,
        now: u64,
        deadline: u64,
        cutoff: Cutoff,
    ) -> Option<u64> {
        let late = now + SIGN_ROUND_SECS >= deadline;
        if late && matches!(cutoff, Cutoff::BeforeRound) {
            return None;
        }
        self.round(bus, topic);
        let over = late || self.complete() || self.rounds_run >= MAX_SIGN_ROUNDS;
        (!over).then_some(now + SIGN_ROUND_SECS)
    }

    /// Who `sig` recovers to over the digest, recovered on first sight
    /// and remembered after.
    fn signer(&mut self, sig: Signature) -> Option<Address> {
        if let Some(&(_, who)) = self.verdicts.iter().find(|(s, _)| *s == sig) {
            return who;
        }
        let who = recover_address(self.digest, &sig).ok();
        self.verdicts.push((sig, who));
        who
    }

    /// True once every reader holds a signature from every signer. Each
    /// recovered to its signer over the digest when it arrived, so each
    /// reader's assembled copy of the bytecode behind the digest already
    /// passes [`SignedCopy::verify`](crate::signedcopy::SignedCopy::verify).
    pub fn complete(&self) -> bool {
        self.seen.iter().flatten().all(Option::is_some)
    }

    /// The signatures `reader` holds, in signer order, once it holds
    /// both: the verified pair that reader can take on-chain.
    pub fn signatures(&self, reader: usize) -> Option<[Signature; 2]> {
        match self.seen[reader] {
            [Some(a), Some(b)] => Some([a, b]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, WhisperFaults};
    use crate::signedcopy::{bytecode_hash, sign_bytecode, SignedCopy};
    use crate::whisper::Whisper;
    use sc_crypto::ecdsa::PrivateKey;

    const BYTECODE: [u8; 5] = [0x60, 0x2a, 0x60, 0x00, 0x52];

    fn keys() -> [PrivateKey; 2] {
        [PrivateKey::from_seed("alice"), PrivateKey::from_seed("bob")]
    }

    fn honest(keys: &[PrivateKey; 2]) -> [Option<Signature>; 2] {
        keys.each_ref().map(|k| Some(sign_bytecode(k, &BYTECODE)))
    }

    /// Runs `rounds` rounds of an exchange over [`BYTECODE`] on a bus
    /// under `plan`, after `pre` posted whatever it likes.
    fn run(
        plan: &FaultPlan,
        posted: [Option<Signature>; 2],
        rounds: u32,
        pre: impl FnOnce(&mut BusPort<'_>),
    ) -> SignExchange {
        let keys = keys();
        let mut bus = Whisper::new();
        let mut faults = WhisperFaults::new(plan);
        let mut port = BusPort {
            bus: &mut bus,
            faults: &mut faults,
        };
        pre(&mut port);
        let expected = [keys[0].address(), keys[1].address()];
        let mut ex = SignExchange::new(bytecode_hash(&BYTECODE), expected, posted);
        for _ in 0..rounds {
            ex.round(&mut port, "t");
        }
        ex
    }

    #[test]
    fn a_completed_exchange_assembles_verifying_copies() {
        let keys = keys();
        let expected = [keys[0].address(), keys[1].address()];
        // A foreign signature and garbage are absorbed without counting.
        let ex = run(&FaultPlan::none(), honest(&keys), 1, |port| {
            let outsider = PrivateKey::from_seed("mallory");
            let foreign = sign_bytecode(&outsider, &BYTECODE).to_bytes().to_vec();
            port.post(expected[1], "t", foreign);
            port.post(expected[0], "t", vec![0xff; 3]);
        });
        assert!(ex.complete());
        assert_eq!(ex.posts(), 2);
        for reader in 0..2 {
            let copy = SignedCopy {
                bytecode: BYTECODE.to_vec(),
                signatures: ex.signatures(reader).expect("complete").to_vec(),
            };
            assert_eq!(copy.verify(&expected), Ok(()));
            assert_eq!(
                copy,
                SignedCopy::create(BYTECODE.to_vec(), &[&keys[0], &keys[1]])
            );
        }
    }

    #[test]
    fn an_honest_exchange_recovers_each_signature_once() {
        let keys = keys();
        // Lossless: two payloads, two recoveries, though each reader
        // checks both.
        let ex = run(&FaultPlan::none(), honest(&keys), 1, |_| {});
        assert!(ex.complete());
        assert_eq!(ex.recoveries(), 2);

        // Every envelope delivered twice: the copies hit the verdicts
        // (or an already-filled slot), never a second recovery.
        let duplicating = FaultPlan {
            duplicate_permille: 1000,
            whisper_fault_budget: u32::MAX,
            ..FaultPlan::none()
        };
        let ex = run(&duplicating, honest(&keys), 1, |_| {});
        assert!(ex.complete());
        assert_eq!(ex.recoveries(), 2);
    }

    #[test]
    fn re_posts_against_a_refusing_signer_recover_once() {
        let keys = keys();
        let [alice, _] = honest(&keys);
        let ex = run(&FaultPlan::none(), [alice, None], MAX_SIGN_ROUNDS, |_| {});
        assert!(!ex.complete());
        assert_eq!(ex.rounds_run(), MAX_SIGN_ROUNDS);
        assert_eq!(ex.posts(), MAX_SIGN_ROUNDS as usize);
        assert_eq!(ex.recoveries(), 1);
    }

    #[test]
    fn each_distinct_corrupted_payload_costs_one_recovery() {
        let keys = keys();
        let expected = [keys[0].address(), keys[1].address()];
        let [_, bob] = honest(&keys);
        let good = sign_bytecode(&keys[0], &BYTECODE).to_bytes();
        // Alice never posts her real signature, so her slot stays open
        // and every corrupted copy claiming her reaches a recovery.
        let corrupted = |k: usize| {
            let mut bytes = good;
            bytes[k] ^= 0x40;
            bytes.to_vec()
        };
        for distinct in 0..4 {
            let ex = run(&FaultPlan::none(), [None, bob], 2, |port| {
                for k in 0..distinct {
                    // Each twice: the repeat is free.
                    port.post(expected[0], "t", corrupted(k));
                    port.post(expected[0], "t", corrupted(k));
                }
            });
            assert!(!ex.complete());
            assert_eq!(ex.recoveries(), 1 + distinct, "{distinct} corrupted");
        }
    }
}
