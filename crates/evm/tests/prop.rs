//! Property tests for the EVM: no panic on arbitrary bytecode, gas
//! determinism, assembler/disassembler agreement, and a keccak pin over
//! the outcomes of seeded boundary-heavy programs.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sc_crypto::Keccak256;
use sc_evm::host::{Env, Host, MockHost};
use sc_evm::{disassemble, CallOutcome, CallParams, Evm, Inspector};
use sc_primitives::{ether, Address, U256};

fn run_raw(code: Vec<u8>, data: Vec<u8>, gas: u64) -> sc_evm::CallOutcome {
    let mut host = MockHost::new();
    host.install(Address([0xcc; 20]), code);
    host.fund(Address([0x01; 20]), ether(10));
    Evm::new(&mut host, Env::default()).call(CallParams::transact(
        Address([0x01; 20]),
        Address([0xcc; 20]),
        U256::ZERO,
        data,
        gas,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fuzz smoke: completely random bytecode must never panic the
    /// interpreter — it either runs, reverts, or fails with a VmError,
    /// and never spends more gas than provided.
    #[test]
    fn arbitrary_bytecode_never_panics(
        code in proptest::collection::vec(any::<u8>(), 0..512),
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let out = run_raw(code, data, 200_000);
        prop_assert!(out.gas_left <= 200_000);
    }

    /// The same program and input always produce the same result, output
    /// and gas (interpreter determinism).
    #[test]
    fn execution_is_deterministic(
        code in proptest::collection::vec(any::<u8>(), 0..256),
        data in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let a = run_raw(code.clone(), data.clone(), 100_000);
        let b = run_raw(code, data, 100_000);
        prop_assert_eq!(a.success, b.success);
        prop_assert_eq!(a.gas_left, b.gas_left);
        prop_assert_eq!(a.output, b.output);
    }

    /// Giving MORE gas never changes a successful run's result or its
    /// gas consumption.
    #[test]
    fn extra_gas_is_neutral_for_successful_runs(
        code in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let small = run_raw(code.clone(), vec![], 60_000);
        // Random bytecode usually fails; the property only constrains the
        // successful runs (conditioning via assume would starve the test).
        if small.success {
            let big = run_raw(code, vec![], 6_000_000);
            prop_assert!(big.success);
            prop_assert_eq!(big.output, small.output);
            prop_assert_eq!(6_000_000 - big.gas_left, 60_000 - small.gas_left);
        }
    }

    /// Disassembling random bytes covers every byte exactly once and in
    /// order.
    #[test]
    fn disassembly_covers_all_bytes(code in proptest::collection::vec(any::<u8>(), 0..512)) {
        let instrs = disassemble(&code);
        let mut expected = 0usize;
        for ins in &instrs {
            prop_assert_eq!(ins.offset, expected);
            expected += 1 + ins.immediate.len();
        }
        prop_assert_eq!(expected, code.len());
    }

    /// A failed (non-revert) frame must leave no state behind: storage
    /// writes before an INVALID opcode roll back.
    #[test]
    fn failed_frames_leave_no_state(slot in any::<u64>(), value in 1u64..) {
        // SSTORE(slot, value); INVALID
        let mut code = Vec::new();
        code.push(0x7f); // PUSH32 value
        code.extend_from_slice(&U256::from_u64(value).to_be_bytes());
        code.push(0x7f); // PUSH32 slot
        code.extend_from_slice(&U256::from_u64(slot).to_be_bytes());
        code.extend_from_slice(&[0x55, 0xfe]); // SSTORE, INVALID

        let mut host = MockHost::new();
        host.install(Address([0xcc; 20]), code);
        host.fund(Address([0x01; 20]), ether(10));
        let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
            Address([0x01; 20]),
            Address([0xcc; 20]),
            U256::ZERO,
            vec![],
            100_000,
        ));
        prop_assert!(!out.success);
        prop_assert_eq!(
            host.storage(Address([0xcc; 20]), U256::from_u64(slot)),
            U256::ZERO
        );
    }
}

/// SplitMix64: the seeded stream behind the pinned program generator, so
/// the pin depends on nothing but this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A word at a limb or sign boundary, or now and then a random one.
    fn word(&mut self) -> U256 {
        let two64 = U256([0, 1, 0, 0]);
        let words = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(u64::MAX),
            two64,
            U256::ONE.shl_bits(255),
            U256::MAX,
        ];
        if self.below(8) == 0 {
            U256([self.next(), self.next(), self.next(), self.next()])
        } else {
            self.pick(&words)
        }
    }

    /// A memory or calldata offset: mostly small, now and then near 2^64
    /// or past it.
    fn offset(&mut self) -> U256 {
        match self.below(16) {
            0 => self.word(),
            1 => U256::from_u64(self.pick(&[u64::MAX - 31, u64::MAX - 7, u64::MAX])),
            _ => U256::from_u64(self.pick(&[0, 1, 31, 32, 33, 64, 100, 1 << 16])),
        }
    }
}

/// Builds one program: a stack prologue, 1–24 snippets, an ending.
struct Program {
    code: Vec<u8>,
    /// Positions of PUSH2 placeholders waiting for the next JUMPDEST.
    fixups: Vec<usize>,
    /// Results kept so far, at memory word 0, 1, 2, …
    kept: u64,
}

impl Program {
    /// `PUSHn` carrying the low `n` bytes of `v`.
    fn push_n(&mut self, n: usize, v: U256) {
        self.code.push(0x5f + n as u8);
        self.code.extend_from_slice(&v.to_be_bytes()[32 - n..]);
    }

    /// The narrowest `PUSHn` that holds `v`.
    fn push(&mut self, v: U256) {
        self.push_n(v.to_be_bytes_trimmed().len().max(1), v);
    }

    /// `base - d` (`sub`) or `base + d`, with `base` the one-byte
    /// MSIZE/CALLDATASIZE opcode: offsets relative to an edge.
    fn edge(&mut self, rng: &mut Rng, base: u8) {
        self.code.push(base);
        let d = rng.pick(&[0u64, 1, 16, 31, 32, 33, 64]);
        self.push(U256::from_u64(d));
        if rng.below(2) == 0 {
            self.code.extend_from_slice(&[0x90, 0x03]); // SWAP1 SUB
        } else {
            self.code.push(0x01); // ADD
        }
    }

    fn offset(&mut self, rng: &mut Rng, edge_base: u8) {
        if rng.below(3) == 0 {
            self.edge(rng, edge_base);
        } else {
            let v = rng.offset();
            self.push(v);
        }
    }

    /// Now and then stores the word on top of the stack at the next
    /// free result word, where a final RETURN or REVERT shows it.
    fn keep(&mut self, rng: &mut Rng) {
        if rng.below(2) == 0 {
            self.push(U256::from_u64(32 * self.kept));
            self.code.push(0x52); // MSTORE
            self.kept += 1;
        }
    }

    fn jumpdest(&mut self) {
        let here = self.code.len() as u16;
        for at in self.fixups.drain(..) {
            self.code[at..at + 2].copy_from_slice(&here.to_be_bytes());
        }
        self.code.push(0x5b);
    }

    fn snippet(&mut self, rng: &mut Rng) {
        match rng.below(10) {
            // PUSH1–PUSH32 of a boundary word.
            0 => {
                let (n, v) = (rng.below(32) as usize + 1, rng.word());
                self.push_n(n, v);
                self.keep(rng);
            }
            // Arithmetic and comparison over boundary words.
            1 | 2 => {
                let (a, b) = (rng.word(), rng.word());
                self.push(a);
                self.push(b);
                let op = rng.pick(&[0x01, 0x02, 0x03, 0x10, 0x11, 0x14, 0x15]);
                self.code.push(op); // ADD MUL SUB LT GT EQ ISZERO
                self.keep(rng);
            }
            // DUP1–DUP16 / SWAP1–SWAP16 at whatever height we are.
            3 => {
                let op = rng.pick(&[0x80u8, 0x90]) + rng.below(16) as u8;
                self.code.push(op);
            }
            // MSTORE / MSTORE8 / MLOAD inside, at, across and past the edge.
            4 | 5 => {
                let op = rng.pick(&[0x51, 0x52, 0x53]); // MLOAD MSTORE MSTORE8
                if op != 0x51 {
                    let v = rng.word();
                    self.push(v);
                }
                self.offset(rng, 0x59);
                self.code.push(op);
                if op == 0x51 {
                    self.keep(rng);
                }
            }
            // CALLDATALOAD at boundary offsets.
            6 => {
                self.offset(rng, 0x36);
                self.code.push(0x35);
                self.keep(rng);
            }
            // SLOAD / SSTORE over a few slots (slot 1 starts non-zero).
            7 => {
                let key = U256::from_u64(rng.below(3));
                if rng.below(2) == 0 {
                    let v = rng.pick(&[U256::ZERO, U256::from_u64(9), U256::MAX]);
                    self.push(v);
                    self.push(key);
                    self.code.push(0x55);
                } else {
                    self.push(key);
                    self.code.push(0x54);
                    self.keep(rng);
                }
            }
            // JUMP / JUMPI: forward to the next JUMPDEST, or to a bad target.
            8 => {
                let jumpi = rng.below(2) == 0;
                if jumpi && rng.below(2) == 0 {
                    let cond = rng.pick(&[U256::ZERO, U256::ONE, U256::MAX]);
                    self.push(cond);
                }
                if rng.below(4) == 0 {
                    let bad = rng.pick(&[0u64, 1, 0xffff, u64::MAX]);
                    self.push(U256::from_u64(bad));
                } else {
                    self.code.extend_from_slice(&[0x61, 0, 0]);
                    self.fixups.push(self.code.len() - 2);
                }
                self.code.push(if jumpi { 0x57 } else { 0x56 });
            }
            _ => {
                if rng.below(2) == 0 {
                    self.jumpdest();
                } else {
                    self.code.push(0x50); // POP
                }
            }
        }
        if rng.below(8) == 0 {
            self.code.push(0x50);
        }
    }

    fn generate(rng: &mut Rng) -> Program {
        let mut p = Program {
            code: Vec::new(),
            fixups: Vec::new(),
            kept: 0,
        };
        // Stack height for the DUP/SWAP edges: 0, 1, 1023, 1024 or a few.
        let height = rng.pick(&[0, 1, 1023, 1024, 2, 5, 17, 40]);
        p.code.resize(height, 0x58); // PC
        if height >= 1023 {
            // DUP or SWAP right at the limit, then room for the rest.
            p.code.push(rng.pick(&[0x80u8, 0x90]) + rng.below(16) as u8);
            p.code.extend_from_slice(&[0x50; 8]);
        }
        for _ in 0..=rng.below(24) {
            p.snippet(rng);
        }
        if !p.fixups.is_empty() {
            p.jumpdest();
        }
        match rng.below(6) {
            0 => p.code.push(0x00),
            1 => p.code.push(0xfe),
            // RETURN / REVERT over all of memory or some range of it.
            2 | 3 => {
                if rng.below(2) == 0 {
                    p.code.extend_from_slice(&[0x59, 0x60, 0x00]); // MSIZE PUSH1 0
                } else {
                    let len = rng.pick(&[0u64, 1, 32, 33, 1 << 16]);
                    p.push(U256::from_u64(len));
                    p.offset(rng, 0x59);
                }
                p.code.push(if rng.below(2) == 0 { 0xf3 } else { 0xfd });
            }
            // A push cut short by the end of code.
            4 => {
                let n = rng.below(32) as usize + 1;
                p.code.push(0x5f + n as u8);
                for _ in 0..rng.below(n as u64) {
                    p.code.push(rng.next() as u8);
                }
            }
            _ => {} // falls off the end: an implicit STOP
        }
        p
    }
}

/// Remembers the gas before the last instruction the top frame ran.
struct LastStep(u64);

impl Inspector for LastStep {
    fn step(&mut self, _depth: usize, _pc: usize, _op: u8, gas_before: u64) {
        self.0 = gas_before;
    }
}

/// Runs `code` under `Evm::with_inspector` and feeds its `(success,
/// gas_left, output, error, reverted, refund, touched storage)` to
/// `hasher`. It runs again under `Evm::new`, the loop compiled without
/// an inspector, which must end the same way; that run is not hashed.
fn absorb(
    hasher: &mut Keccak256,
    code: &[u8],
    data: &[u8],
    gas: u64,
    inspector: &mut LastStep,
) -> CallOutcome {
    let contract = Address([0xcc; 20]);
    let fresh_host = || {
        let mut host = MockHost::new();
        host.install(contract, code.to_vec());
        host.fund(Address([0x01; 20]), ether(10));
        host.storages
            .insert((contract, U256::ONE), U256::from_u64(5));
        host
    };
    let params = CallParams::transact(
        Address([0x01; 20]),
        contract,
        U256::ZERO,
        data.to_vec(),
        gas,
    );
    let mut host = fresh_host();
    let out = Evm::with_inspector(&mut host, Env::default(), inspector).call(params.clone());
    let mut plain_host = fresh_host();
    let plain = Evm::new(&mut plain_host, Env::default()).call(params);
    assert_eq!(plain, out, "uninspected run ends differently");
    assert_eq!(plain_host.refund, host.refund, "uninspected refund differs");
    assert_eq!(
        plain_host.storages, host.storages,
        "uninspected storage differs"
    );

    hasher.update(&[out.success as u8, out.reverted as u8]);
    hasher.update(&out.gas_left.to_be_bytes());
    hasher.update(&(out.output.len() as u64).to_be_bytes());
    hasher.update(&out.output);
    hasher.update(format!("{:?};", out.error).as_bytes());
    hasher.update(&host.refund.to_be_bytes());
    let mut slots: Vec<_> = host.storages.into_iter().collect();
    slots.sort();
    for ((_, key), value) in slots {
        hasher.update(&key.to_be_bytes());
        hasher.update(&value.to_be_bytes());
    }
    out
}

/// Runs `programs` seeded programs, each under a large budget and then
/// one unit below, exactly at and one above what it needed: all of its
/// gas for a clean end, the gas before its failing instruction for an
/// error. Returns the keccak of every outcome, in order.
fn outcome_digest(seed: u64, programs: usize) -> String {
    const BUDGET: u64 = 1_000_000;
    let mut rng = Rng(seed);
    let mut hasher = Keccak256::new();
    for _ in 0..programs {
        let code = Program::generate(&mut rng).code;
        let len = rng.pick(&[0usize, 1, 31, 32, 33, 40, 64]);
        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let mut last = LastStep(BUDGET);
        let out = absorb(&mut hasher, &code, &data, BUDGET, &mut last);
        let need = BUDGET
            - match out.error {
                None => out.gas_left,
                Some(_) => last.0,
            };
        for gas in [need.saturating_sub(1), need, need + 1] {
            absorb(&mut hasher, &code, &data, gas, &mut LastStep(0));
        }
    }
    hasher.finalize().to_string()
}

/// Every gas unit, error, output byte and storage write of 2,000 seeded
/// programs, pinned by one hash. The programs lean on what the
/// interpreter's fast paths touch: PUSH1–PUSH32 (truncated at the end of
/// code too), DUP/SWAP at stack heights 0, 1, 1023 and 1024, memory
/// inside, at, across and past its edge, ADD/MUL/LT/GT over limb and sign
/// boundaries, forward and invalid jumps, CALLDATALOAD near 2^64 and
/// SLOAD/SSTORE; results are kept in memory words that the final RETURN
/// or REVERT shows. Run in debug, an unchecked overflow panics here.
#[test]
fn interpreter_outcomes_are_pinned() {
    assert_eq!(
        outcome_digest(1, 2_000),
        "0xab1f851b7e01c5cce8ac53900f1372cb2add644fa76c249ef42648a36930abc4"
    );
}

/// The same pin over 20,000 programs from another seed (release CI).
#[test]
#[ignore = "release sweep: cargo test --release -p sc-evm --test prop -- --include-ignored"]
fn interpreter_sweep_20000_programs() {
    assert_eq!(
        outcome_digest(2, 20_000),
        "0x8f3d827791051a843fc1ea70cbc291c66c8abfa6357bb73534b810508b4daacb"
    );
}

/// A precompile address, an input, and the output it must return.
type HonestInput = (u64, Vec<u8>, Vec<u8>);

/// Honest inputs for the precompiles the confidential and dispute paths
/// call, each with the word it must return: a signature for 0x01, an
/// opening for 0x09, a homomorphic sum for 0x0A, a nullifier preimage for
/// 0x0B and a 16-bit range proof for 0x0C. Built once: proving is slow.
fn honest_precompile_inputs() -> &'static [HonestInput; 5] {
    use sc_confidential::{nullifier, CommitmentBackend, PedersenBackend};
    static INPUTS: std::sync::OnceLock<[HonestInput; 5]> = std::sync::OnceLock::new();
    INPUTS.get_or_init(|| {
        let word = |b: bool| U256::from_u64(b as u64).to_be_bytes().to_vec();
        let key = sc_crypto::ecdsa::PrivateKey::from_seed("alice");
        let digest = sc_crypto::keccak256(b"the off-chain bytecode");
        let sig = key.sign(digest);
        let signed = [
            digest.as_bytes(),
            &U256::from_u64(sig.v as u64).to_be_bytes(),
            sig.r.as_bytes(),
            sig.s.as_bytes(),
        ]
        .concat();
        let recovered = [&[0u8; 12][..], key.address().as_bytes()].concat();

        let pedersen = PedersenBackend;
        let (v, r) = (U256::from_u64(40_000), U256::from_u64(0x5eed));
        let c = pedersen.commit(v, r);
        let opening = [&c.to_bytes()[..], &v.to_be_bytes(), &r.to_be_bytes()].concat();
        let c2 = pedersen.commit(U256::from_u64(2), U256::from_u64(3));
        let total = pedersen.add(&c, &c2);
        let sum = [c.to_bytes(), c2.to_bytes(), total.to_bytes()].concat();
        let proof = pedersen.prove_range(v, r, 16).expect("in range");
        let range = [
            &c.to_bytes()[..],
            &U256::from_u64(16).to_be_bytes(),
            proof.as_bytes(),
        ]
        .concat();
        let preimage = b"voucher digest".to_vec();
        let hashed = nullifier(&preimage).as_bytes().to_vec();
        [
            (1, signed, recovered),
            (9, opening, word(true)),
            (10, sum, word(true)),
            (11, preimage, hashed),
            (12, range, word(true)),
        ]
    })
}

/// Input lengths on each side of a field boundary of the precompile at
/// `address`: the 32-byte words of 0x01's padded input, 0x09's and 0x0A's
/// fixed sizes, 0x0B's words, and 0x0C's point, width word and per-bit
/// proof entries.
fn field_boundaries(address: u64) -> Vec<usize> {
    let per_bit = sc_confidential::range::BYTES_PER_BIT;
    match address {
        1 => vec![0, 32, 64, 96, 128],
        9 => vec![64, 96, 128],
        10 => vec![64, 128, 192],
        11 => vec![0, 32, 64],
        _ => vec![64, 96, 96 + per_bit, 96 + 2 * per_bit],
    }
}

/// One case of the precompile property: either arbitrary bytes of a
/// length beside a field boundary (for 0x0C, half the time under a
/// width word that matches the length), or an honest input after one
/// byte overwritten, inserted or deleted. Nothing may panic, and a second
/// run with exactly the gas the first charged returns the same output.
fn precompile_case(
    pick: usize,
    (arbitrary, boundary, offset): (bool, usize, usize),
    (kind, at, byte): (u8, usize, u8),
    noise: &[u8],
) -> Result<(), TestCaseError> {
    let (address, honest, _) = &honest_precompile_inputs()[pick % 5];
    let input = if arbitrary {
        let bounds = field_boundaries(*address);
        let len = (bounds[boundary % bounds.len()] + offset % 3).saturating_sub(1);
        let mut input: Vec<u8> = noise.iter().copied().cycle().take(len).collect();
        if *address == 12 && kind % 2 == 0 && len >= 96 {
            let bits = (len - 96) / sc_confidential::range::BYTES_PER_BIT;
            input[64..96].copy_from_slice(&U256::from_u64(bits as u64).to_be_bytes());
        }
        input
    } else {
        let mut input = honest.clone();
        let at = at % (input.len() + 1);
        match kind % 3 {
            0 if at < input.len() => input[at] ^= byte | 1,
            1 => input.insert(at, byte),
            _ if at < input.len() => drop(input.remove(at)),
            _ => {}
        }
        input
    };
    let precompile = Address::from_u256(U256::from_u64(*address));
    let first = sc_evm::precompile::run(precompile, &input, 100_000_000).expect("gas suffices");
    let again = sc_evm::precompile::run(precompile, &input, first.gas_cost)
        .expect("the charged gas suffices");
    prop_assert_eq!(again.gas_cost, first.gas_cost);
    prop_assert_eq!(again.output, first.output);
    Ok(())
}

fn arb_precompile_input() -> impl Strategy<Value = (bool, usize, usize)> {
    (any::<bool>(), 0usize..8, 0usize..3)
}

fn arb_precompile_mutation() -> impl Strategy<Value = (u8, usize, u8)> {
    (any::<u8>(), 0usize..8192, any::<u8>())
}

/// Each honest input returns its true word.
#[test]
fn honest_precompile_inputs_return_the_true_word() {
    for (address, input, word) in honest_precompile_inputs() {
        let precompile = Address::from_u256(U256::from_u64(*address));
        let out = sc_evm::precompile::run(precompile, input, 100_000_000).unwrap();
        assert_eq!(&out.output, word, "precompile {address:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The precompile input boundary (0x01 and 0x09–0x0C): no byte string
    /// panics a precompile, and the gas and output are a function of the
    /// input alone.
    #[test]
    fn precompiles_survive_arbitrary_and_mutated_inputs(
        pick in 0usize..5,
        shape in arb_precompile_input(),
        mutation in arb_precompile_mutation(),
        noise in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        precompile_case(pick, shape, mutation, &noise)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The release sweep of the precompile property.
    #[test]
    #[ignore = "10,000 cases; run in release"]
    fn precompile_sweep_10000_cases(
        pick in 0usize..5,
        shape in arb_precompile_input(),
        mutation in arb_precompile_mutation(),
        noise in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        precompile_case(pick, shape, mutation, &noise)?;
    }
}
