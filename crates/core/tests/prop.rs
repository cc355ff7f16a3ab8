//! Property tests for the deploy/sign signature exchange's envelope.
//!
//! A two-seat [`SignExchange`] runs its rounds on a bus under an
//! arbitrary whisper [`FaultPlan`], while arbitrary payloads are posted
//! between rounds under either seat's address or a stranger's: raw
//! bytes, truncated or bit-flipped honest signatures, an outsider's
//! signature over the same digest, and one seat's honest signature
//! replayed under the other seat's address. Whatever arrives:
//!
//! * nothing panics;
//! * a reader's assembled pair only ever holds signatures that recover
//!   to the expected signers over the digest;
//! * when both seats post their honest signatures, the exchange
//!   completes within [`MAX_SIGN_ROUNDS`] rounds.

use proptest::prelude::*;
use sc_core::session::{SignExchange, MAX_SIGN_ROUNDS};
use sc_core::{bytecode_hash, sign_bytecode, BusPort, FaultPlan, Whisper, WhisperFaults};
use sc_crypto::ecdsa::{recover_address, PrivateKey, Signature};
use sc_primitives::Address;
use std::sync::OnceLock;

const BYTECODE: [u8; 7] = [0x60, 0x2a, 0x60, 0x00, 0x52, 0x60, 0x20];
const TOPIC: &str = "signed-copy";

/// One payload posted between rounds: `(round, from, kind, arg, noise)`.
/// `from` 0 and 1 claim a seat's address, 2 a stranger's; `kind` picks
/// the payload (see [`payload`]).
type Injection = (u32, u8, u8, u16, Vec<u8>);

/// The seats, and every signature a case can post, made once: each
/// seat's honest one, each seat's over a tampered copy, and an
/// outsider's over the real bytecode.
struct Cast {
    seats: [Address; 2],
    honest: [Signature; 2],
    tampered: [Signature; 2],
    outsider: Signature,
}

fn cast() -> &'static Cast {
    static CAST: OnceLock<Cast> = OnceLock::new();
    CAST.get_or_init(|| {
        let keys = ["alice", "bob"].map(PrivateKey::from_seed);
        let mut tampered = BYTECODE;
        tampered[BYTECODE.len() - 1] ^= 0xff;
        Cast {
            seats: keys.each_ref().map(PrivateKey::address),
            honest: keys.each_ref().map(|k| sign_bytecode(k, &BYTECODE)),
            tampered: keys.each_ref().map(|k| sign_bytecode(k, &tampered)),
            outsider: sign_bytecode(&PrivateKey::from_seed("mallory"), &BYTECODE),
        }
    })
}

/// The bytes an [`Injection`] posts.
fn payload(kind: u8, arg: u16, noise: &[u8]) -> Vec<u8> {
    let honest = cast().honest[usize::from(arg % 2)].to_bytes();
    match kind {
        0 => noise.to_vec(),
        1 => honest[..usize::from(arg) % honest.len()].to_vec(),
        2 => {
            let mut flipped = honest;
            let bit = usize::from(arg) % (8 * flipped.len());
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped.to_vec()
        }
        3 => cast().outsider.to_bytes().to_vec(),
        _ => honest.to_vec(),
    }
}

/// What seat `i` posts every round for a `choice` in `0..5`: its
/// honest signature (0–2), nothing (3), or a signature over a tampered
/// copy (4).
fn posted(i: usize, choice: u8) -> Option<Signature> {
    match choice {
        0..=2 => Some(cast().honest[i]),
        3 => None,
        _ => Some(cast().tampered[i]),
    }
}

/// Runs [`MAX_SIGN_ROUNDS`] rounds under `FaultPlan::from_seed(plan)`
/// with the injections posted before their rounds, checking every
/// reader's pair after every round. Returns the round (1-based) after
/// which the exchange first completed.
fn exchange_case(
    plan: u64,
    choices: [u8; 2],
    injections: &[Injection],
) -> Result<Option<u32>, TestCaseError> {
    let digest = bytecode_hash(&BYTECODE);
    let expected = cast().seats;
    let stranger = PrivateKey::from_seed("stranger").address();
    let mut bus = Whisper::new();
    let mut faults = WhisperFaults::new(&FaultPlan::from_seed(plan));
    let mut port = BusPort {
        bus: &mut bus,
        faults: &mut faults,
    };
    let posts = [posted(0, choices[0]), posted(1, choices[1])];
    let mut ex = SignExchange::new(digest, expected, posts);
    let mut completed = None;
    for round in 0..MAX_SIGN_ROUNDS {
        for (_, from, kind, arg, noise) in injections.iter().filter(|i| i.0 == round) {
            let from = expected
                .get(usize::from(*from))
                .copied()
                .unwrap_or(stranger);
            port.post(from, TOPIC, payload(*kind, *arg, noise));
        }
        ex.round(&mut port, TOPIC);
        for reader in 0..2 {
            let Some(pair) = ex.signatures(reader) else {
                continue;
            };
            for (sig, who) in pair.iter().zip(expected) {
                prop_assert_eq!(
                    recover_address(digest, sig).ok(),
                    Some(who),
                    "reader {} holds a signature that is not its signer's",
                    reader
                );
            }
        }
        if ex.complete() && completed.is_none() {
            completed = Some(round + 1);
        }
    }
    Ok(completed)
}

fn check(plan: u64, choices: [u8; 2], injections: &[Injection]) -> Result<(), TestCaseError> {
    let completed = exchange_case(plan, choices, injections)?;
    if choices.iter().all(|&c| c <= 2) {
        prop_assert!(
            completed.is_some(),
            "plan {:#x}: both seats honest, still incomplete after {} rounds",
            plan,
            MAX_SIGN_ROUNDS
        );
    }
    Ok(())
}

fn injections() -> impl Strategy<Value = Vec<Injection>> {
    proptest::collection::vec(
        (
            0..MAX_SIGN_ROUNDS,
            0u8..3,
            0u8..5,
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..80),
        ),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exchange_holds_only_its_signers_signatures(
        plan in any::<u64>(),
        a in 0u8..5,
        b in 0u8..5,
        injections in injections(),
    ) {
        check(plan, [a, b], &injections)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The release sweep of the envelope property.
    #[test]
    #[ignore = "10,000 cases; run in release"]
    fn exchange_sweep_10000_cases(
        plan in any::<u64>(),
        a in 0u8..5,
        b in 0u8..5,
        injections in injections(),
    ) {
        check(plan, [a, b], &injections)?;
    }
}
