//! Property tests for the EVM: no panic on arbitrary bytecode, gas
//! determinism, assembler/disassembler agreement, and a keccak pin over
//! the outcomes of seeded boundary-heavy programs.

use proptest::prelude::*;
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
