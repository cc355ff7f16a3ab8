//! Systematic opcode-level tests: every arithmetic/comparison/bitwise
//! opcode against edge-value tables, plus environment and flow opcodes.

use sc_evm::host::{Env, MockHost};
use sc_evm::{Asm, CallParams, Evm, Op};
use sc_primitives::{ether, Address, U256};

const CONTRACT: Address = Address([0xcc; 20]);
const CALLER: Address = Address([0xee; 20]);

/// Builds a program that pushes `args` (first arg pushed last, i.e. on
/// top), runs `op`, and returns the single result word.
fn unop_program(op: Op, args: &[U256]) -> Vec<u8> {
    let mut a = Asm::new();
    for &arg in args.iter().rev() {
        a.push(arg);
    }
    a.op(op);
    a.push_u64(0).op(Op::MStore);
    a.push_u64(32).push_u64(0).op(Op::Return);
    a.assemble().expect("assembles")
}

fn run(code: Vec<u8>) -> U256 {
    let mut host = MockHost::new();
    host.install(CONTRACT, code);
    host.fund(CALLER, ether(1));
    let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
        CALLER,
        CONTRACT,
        U256::ZERO,
        vec![],
        5_000_000,
    ));
    assert!(out.success, "program failed: {:?}", out.error);
    U256::from_be_slice(&out.output)
}

fn eval(op: Op, args: &[U256]) -> U256 {
    run(unop_program(op, args))
}

fn u(v: u64) -> U256 {
    U256::from_u64(v)
}

#[test]
fn arithmetic_table() {
    let max = U256::MAX;
    let min_i256 = U256::ONE.shl_bits(255);
    #[rustfmt::skip]
    let cases: Vec<(Op, Vec<U256>, U256)> = vec![
        (Op::Add, vec![u(2), u(3)], u(5)),
        (Op::Add, vec![max, U256::ONE], U256::ZERO),
        (Op::Sub, vec![u(10), u(3)], u(7)),
        (Op::Sub, vec![u(3), u(10)], U256::ZERO.wrapping_sub(u(7))),
        (Op::Mul, vec![u(7), u(6)], u(42)),
        (Op::Mul, vec![max, u(2)], max.wrapping_sub(U256::ONE)),
        (Op::Div, vec![u(100), u(7)], u(14)),
        (Op::Div, vec![u(100), U256::ZERO], U256::ZERO),
        (Op::SDiv, vec![U256::ZERO.wrapping_sub(u(8)), u(2)], U256::ZERO.wrapping_sub(u(4))),
        (Op::SDiv, vec![min_i256, max], min_i256), // MIN / -1 wraps
        (Op::Mod, vec![u(100), u(7)], u(2)),
        (Op::Mod, vec![u(100), U256::ZERO], U256::ZERO),
        (Op::SMod, vec![U256::ZERO.wrapping_sub(u(8)), u(3)], U256::ZERO.wrapping_sub(u(2))),
        (Op::AddMod, vec![max, max, u(10)], u(0)),
        (Op::MulMod, vec![max, max, max], U256::ZERO),
        (Op::Exp, vec![u(3), u(5)], u(243)),
        (Op::Exp, vec![u(2), u(256)], U256::ZERO),
        (Op::SignExtend, vec![u(0), u(0xff)], max),
        (Op::SignExtend, vec![u(0), u(0x7f)], u(0x7f)),
    ];
    for (op, args, expect) in cases {
        assert_eq!(eval(op, &args), expect, "{op:?} {args:?}");
    }
}

#[test]
fn comparison_table() {
    let max = U256::MAX; // -1 in two's complement
    #[rustfmt::skip]
    let cases: Vec<(Op, Vec<U256>, U256)> = vec![
        (Op::Lt, vec![u(1), u(2)], U256::ONE),
        (Op::Lt, vec![u(2), u(1)], U256::ZERO),
        (Op::Lt, vec![u(1), u(1)], U256::ZERO),
        (Op::Gt, vec![u(2), u(1)], U256::ONE),
        (Op::SLt, vec![max, U256::ZERO], U256::ONE),   // -1 < 0
        (Op::SLt, vec![U256::ZERO, max], U256::ZERO),
        (Op::SGt, vec![U256::ZERO, max], U256::ONE),   // 0 > -1
        (Op::Eq, vec![u(5), u(5)], U256::ONE),
        (Op::Eq, vec![u(5), u(6)], U256::ZERO),
        (Op::IsZero, vec![U256::ZERO], U256::ONE),
        (Op::IsZero, vec![u(3)], U256::ZERO),
    ];
    for (op, args, expect) in cases {
        assert_eq!(eval(op, &args), expect, "{op:?} {args:?}");
    }
}

#[test]
fn bitwise_table() {
    let max = U256::MAX;
    #[rustfmt::skip]
    let cases: Vec<(Op, Vec<U256>, U256)> = vec![
        (Op::And, vec![u(0b1100), u(0b1010)], u(0b1000)),
        (Op::Or, vec![u(0b1100), u(0b1010)], u(0b1110)),
        (Op::Xor, vec![u(0b1100), u(0b1010)], u(0b0110)),
        (Op::Not, vec![U256::ZERO], max),
        (Op::Byte, vec![u(31), u(0xff)], u(0xff)),
        (Op::Byte, vec![u(0), u(0xff)], U256::ZERO),
        (Op::Byte, vec![u(32), max], U256::ZERO),
        (Op::Shl, vec![u(1), u(1)], u(2)),
        (Op::Shl, vec![u(256), u(1)], U256::ZERO),
        (Op::Shr, vec![u(1), u(4)], u(2)),
        (Op::Shr, vec![u(300), max], U256::ZERO),
        (Op::Sar, vec![u(1), max], max),           // -1 >> 1 == -1
        (Op::Sar, vec![u(2), u(16)], u(4)),
        (Op::Sar, vec![u(999), max], max),
    ];
    for (op, args, expect) in cases {
        assert_eq!(eval(op, &args), expect, "{op:?} {args:?}");
    }
}

#[test]
fn stack_manipulation() {
    // DUP and SWAP at depth: push 1..=16, then DUP16 must fetch the 1.
    let mut a = Asm::new();
    for i in 1..=16u64 {
        a.push_u64(i);
    }
    a.op(Op::Dup16);
    a.push_u64(0).op(Op::MStore);
    a.push_u64(32).push_u64(0).op(Op::Return);
    assert_eq!(run(a.assemble().unwrap()), U256::ONE);

    // SWAP16: top swaps with the 17th item.
    let mut a = Asm::new();
    a.push_u64(99); // will become top after swap
    for i in 1..=16u64 {
        a.push_u64(i);
    }
    a.op(Op::Swap16);
    a.push_u64(0).op(Op::MStore);
    a.push_u64(32).push_u64(0).op(Op::Return);
    assert_eq!(run(a.assemble().unwrap()), U256::from_u64(99));
}

#[test]
fn memory_opcodes() {
    // MSTORE8 writes one byte; MSIZE tracks word-aligned growth.
    let mut a = Asm::new();
    a.push_u64(0xab).push_u64(100).op(Op::MStore8); // expands to 128
    a.op(Op::MSize);
    a.push_u64(0).op(Op::MStore);
    a.push_u64(32).push_u64(0).op(Op::Return);
    assert_eq!(run(a.assemble().unwrap()), U256::from_u64(128));
}

#[test]
fn calldataload_near_the_top_of_the_address_space_reads_zero() {
    // Regression: the load summed `offset + i` unchecked, so an offset
    // near 2^64 panicked a debug node and wrapped to calldata[0..] on a
    // release node. Every offset past the end must read as zero.
    let load = |offset: u64| {
        let mut a = Asm::new();
        a.push_u64(offset).op(Op::CallDataLoad);
        a.push_u64(0).op(Op::MStore);
        a.push_u64(32).push_u64(0).op(Op::Return);
        let mut host = MockHost::new();
        host.install(CONTRACT, a.assemble().unwrap());
        host.fund(CALLER, ether(1));
        let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
            CALLER,
            CONTRACT,
            U256::ZERO,
            vec![0xab; 40],
            100_000,
        ));
        assert!(out.success, "offset {offset:#x}: {:?}", out.error);
        out.output
    };
    for offset in [u64::MAX, u64::MAX - 7, u64::MAX - 31, 40] {
        assert_eq!(load(offset), [0u8; 32], "offset {offset:#x}");
    }
    // A load straddling the end keeps the bytes that exist.
    let mut straddle = [0u8; 32];
    straddle[..16].fill(0xab);
    assert_eq!(load(24), straddle);
}

#[test]
fn environment_opcodes() {
    let mut host = MockHost::new();
    let code = {
        // Return CALLER ^ ADDRESS ^ ORIGIN ^ CALLVALUE as a smoke value:
        // simpler: return CALLER.
        let mut a = Asm::new();
        a.op(Op::Caller);
        a.push_u64(0).op(Op::MStore);
        a.push_u64(32).push_u64(0).op(Op::Return);
        a.assemble().unwrap()
    };
    host.install(CONTRACT, code);
    host.fund(CALLER, ether(1));
    let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
        CALLER,
        CONTRACT,
        U256::ZERO,
        vec![],
        100_000,
    ));
    assert_eq!(U256::from_be_slice(&out.output), CALLER.to_u256());
}

#[test]
fn block_env_opcodes() {
    let mut env = Env::default();
    env.block.number = 777;
    env.block.timestamp = 888;
    env.block.gas_limit = 999_999;
    env.block.coinbase = Address([0xc0; 20]);
    for (op, expect) in [
        (Op::Number, u(777)),
        (Op::Timestamp, u(888)),
        (Op::GasLimit, u(999_999)),
        (Op::Coinbase, Address([0xc0; 20]).to_u256()),
        (Op::Difficulty, U256::ONE),
    ] {
        let mut a = Asm::new();
        a.op(op);
        a.push_u64(0).op(Op::MStore);
        a.push_u64(32).push_u64(0).op(Op::Return);
        let mut host = MockHost::new();
        host.install(CONTRACT, a.assemble().unwrap());
        host.fund(CALLER, ether(1));
        let out = Evm::new(&mut host, env.clone()).call(CallParams::transact(
            CALLER,
            CONTRACT,
            U256::ZERO,
            vec![],
            100_000,
        ));
        assert_eq!(U256::from_be_slice(&out.output), expect, "{op:?}");
    }
}

#[test]
fn log_opcodes_record_topics_and_data() {
    // LOG2 with topics 7, 9 over 3 bytes of data.
    let mut a = Asm::new();
    a.push_u64(0xabcdef).push_u64(0).op(Op::MStore); // data at 29..32
    a.push_u64(9).push_u64(7); // topics (topic1 pushed last → popped first)
    a.push_u64(3).push_u64(29); // len, offset → pops offset first
                                // stack now: [9, 7, 3, 29] top=29. LOG pops offset, len, then topics.
    a.op(Op::Log2);
    a.op(Op::Stop);
    let mut host = MockHost::new();
    host.install(CONTRACT, a.assemble().unwrap());
    host.fund(CALLER, ether(1));
    let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
        CALLER,
        CONTRACT,
        U256::ZERO,
        vec![],
        100_000,
    ));
    assert!(out.success, "{:?}", out.error);
    assert_eq!(host.logs.len(), 1);
    let log = &host.logs[0];
    assert_eq!(log.address, CONTRACT);
    assert_eq!(log.topics.len(), 2);
    assert_eq!(log.topics[0].to_u256(), u(7));
    assert_eq!(log.topics[1].to_u256(), u(9));
    assert_eq!(log.data, vec![0xab, 0xcd, 0xef]);
}

#[test]
fn gas_opcode_reports_remaining() {
    // GAS right at the start: gas_limit - 2 (the GAS op itself).
    let mut a = Asm::new();
    a.op(Op::Gas);
    a.push_u64(0).op(Op::MStore);
    a.push_u64(32).push_u64(0).op(Op::Return);
    let mut host = MockHost::new();
    host.install(CONTRACT, a.assemble().unwrap());
    host.fund(CALLER, ether(1));
    let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
        CALLER,
        CONTRACT,
        U256::ZERO,
        vec![],
        50_000,
    ));
    assert_eq!(U256::from_be_slice(&out.output), u(50_000 - 2));
}

#[test]
fn pc_opcode() {
    // PUSH1 x (2 bytes) then PC at offset 2.
    let mut a = Asm::new();
    a.push_u64(0).op(Op::Pop);
    a.op(Op::Pc);
    a.push_u64(0).op(Op::MStore);
    a.push_u64(32).push_u64(0).op(Op::Return);
    assert_eq!(run(a.assemble().unwrap()), u(3));
}

#[test]
fn extcodesize_and_extcodecopy() {
    let other = Address([0xbb; 20]);
    let other_code = vec![0x11, 0x22, 0x33, 0x44, 0x55];
    // EXTCODESIZE(other) and the first 4 bytes via EXTCODECOPY.
    let mut a = Asm::new();
    a.push_address(other);
    a.op(Op::ExtCodeSize);
    a.push_u64(0).op(Op::MStore);
    // EXTCODECOPY(other, dest=32, src=1, len=4)
    a.push_u64(4).push_u64(1).push_u64(32);
    a.push_address(other);
    a.op(Op::ExtCodeCopy);
    a.push_u64(64).push_u64(0).op(Op::Return);
    let mut host = MockHost::new();
    host.install(CONTRACT, a.assemble().unwrap());
    host.install(other, other_code);
    host.fund(CALLER, ether(1));
    let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
        CALLER,
        CONTRACT,
        U256::ZERO,
        vec![],
        100_000,
    ));
    assert!(out.success, "{:?}", out.error);
    assert_eq!(U256::from_be_slice(&out.output[..32]), u(5));
    assert_eq!(&out.output[32..36], &[0x22, 0x33, 0x44, 0x55]);
}

#[test]
fn blockhash_window() {
    let mut env = Env::default();
    env.block.number = 300;
    // Hash of block 299 is available; block 10 (>256 back) is zero;
    // future blocks are zero.
    for (n, zero) in [(299u64, false), (10, true), (300, true), (301, true)] {
        let mut a = Asm::new();
        a.push_u64(n);
        a.op(Op::BlockHash);
        a.push_u64(0).op(Op::MStore);
        a.push_u64(32).push_u64(0).op(Op::Return);
        let mut host = MockHost::new();
        host.install(CONTRACT, a.assemble().unwrap());
        host.fund(CALLER, ether(1));
        let out = Evm::new(&mut host, env.clone()).call(CallParams::transact(
            CALLER,
            CONTRACT,
            U256::ZERO,
            vec![],
            100_000,
        ));
        let h = U256::from_be_slice(&out.output);
        assert_eq!(h.is_zero(), zero, "block {n}");
    }
}

#[test]
fn selfdestruct_sweeps_balance() {
    let beneficiary = Address([0x77; 20]);
    let mut a = Asm::new();
    a.push_address(beneficiary);
    a.op(Op::SelfDestruct);
    let mut host = MockHost::new();
    host.install(CONTRACT, a.assemble().unwrap());
    host.fund(CONTRACT, ether(3));
    host.fund(CALLER, ether(1));
    let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
        CALLER,
        CONTRACT,
        U256::ZERO,
        vec![],
        100_000,
    ));
    assert!(out.success, "{:?}", out.error);
    assert_eq!(host.balances[&beneficiary], ether(3));
    assert_eq!(host.refund, 24_000);
}

#[test]
fn callcode_runs_foreign_code_in_own_storage() {
    // Library stores 7 at slot 0; CALLCODE must write OUR storage.
    let library = {
        let mut a = Asm::new();
        a.push_u64(7).push_u64(0).op(Op::SStore).op(Op::Stop);
        a.assemble().unwrap()
    };
    let lib_addr = Address([0xbb; 20]);
    let mut a = Asm::new();
    a.push_u64(0).push_u64(0).push_u64(0).push_u64(0); // out/in
    a.push_u64(0); // value
    a.push_address(lib_addr);
    a.op(Op::Gas);
    a.op(Op::CallCode);
    a.op(Op::Pop).op(Op::Stop);
    let mut host = MockHost::new();
    host.install(CONTRACT, a.assemble().unwrap());
    host.install(lib_addr, library);
    host.fund(CALLER, ether(1));
    let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
        CALLER,
        CONTRACT,
        U256::ZERO,
        vec![],
        200_000,
    ));
    assert!(out.success, "{:?}", out.error);
    use sc_evm::host::Host;
    assert_eq!(host.storage(CONTRACT, U256::ZERO), u(7));
    assert_eq!(host.storage(lib_addr, U256::ZERO), U256::ZERO);
}

#[test]
fn gas_costs_per_family_pinned() {
    // One representative per gas tier, measured end-to-end: run the op
    // in isolation and compare consumed gas against the schedule.
    let measure = |ops: &dyn Fn(&mut Asm)| {
        let mut a = Asm::new();
        ops(&mut a);
        a.op(Op::Stop);
        let code = a.assemble().unwrap();
        let mut host = MockHost::new();
        host.install(CONTRACT, code);
        host.fund(CALLER, ether(1));
        let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
            CALLER,
            CONTRACT,
            U256::ZERO,
            vec![],
            1_000_000,
        ));
        assert!(out.success, "{:?}", out.error);
        1_000_000 - out.gas_left
    };
    // Two pushes (3 each) + ADD (3) = 9.
    assert_eq!(
        measure(&|a: &mut Asm| {
            a.push_u64(1).push_u64(2).op(Op::Add).op(Op::Pop);
        }),
        3 + 3 + 3 + 2
    );
    // MUL is "low" = 5.
    assert_eq!(
        measure(&|a: &mut Asm| {
            a.push_u64(1).push_u64(2).op(Op::Mul).op(Op::Pop);
        }),
        3 + 3 + 5 + 2
    );
    // ADDMOD is "mid" = 8.
    assert_eq!(
        measure(&|a: &mut Asm| {
            a.push_u64(1)
                .push_u64(2)
                .push_u64(3)
                .op(Op::AddMod)
                .op(Op::Pop);
        }),
        3 + 3 + 3 + 8 + 2
    );
    // BALANCE = 400.
    assert_eq!(
        measure(&|a: &mut Asm| {
            a.push_u64(0).op(Op::Balance).op(Op::Pop);
        }),
        3 + 400 + 2
    );
    // SLOAD = 200.
    assert_eq!(
        measure(&|a: &mut Asm| {
            a.push_u64(0).op(Op::SLoad).op(Op::Pop);
        }),
        3 + 200 + 2
    );
    // KECCAK256 of one word: 30 + 6 + memory 3.
    assert_eq!(
        measure(&|a: &mut Asm| {
            a.push_u64(32).push_u64(0).op(Op::Keccak256).op(Op::Pop);
        }),
        3 + 3 + 30 + 6 + 3 + 2
    );
}

#[test]
fn call_stipend_cannot_write_storage() {
    // The 2300-gas stipend of a value transfer is enough to receive but
    // not to SSTORE — the classic reentrancy-era invariant. A receiver
    // whose code stores on receipt makes plain transfers to it fail.
    let receiver = {
        let mut a = Asm::new();
        a.push_u64(1).push_u64(0).op(Op::SStore).op(Op::Stop);
        a.assemble().unwrap()
    };
    let recv_addr = Address([0xbb; 20]);
    // Sender: CALL(gas=0, to=recv, value=1 ether, no data) then return
    // the success flag.
    let mut a = Asm::new();
    a.push_u64(0).push_u64(0).push_u64(0).push_u64(0); // out/in
    a.push(ether(1)); // value
    a.push_address(recv_addr); // to
    a.push_u64(0); // gas: stipend only
    a.op(Op::Call);
    a.push_u64(0).op(Op::MStore);
    a.push_u64(32).push_u64(0).op(Op::Return);
    let mut host = MockHost::new();
    host.install(recv_addr, receiver);
    host.install(CONTRACT, a.assemble().unwrap());
    host.fund(CONTRACT, ether(5));
    host.fund(CALLER, ether(1));
    let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
        CALLER,
        CONTRACT,
        U256::ZERO,
        vec![],
        500_000,
    ));
    assert!(out.success, "{:?}", out.error);
    assert_eq!(
        U256::from_be_slice(&out.output),
        U256::ZERO,
        "the 2300 stipend must not afford an SSTORE"
    );
    use sc_evm::host::Host;
    assert_eq!(host.storage(recv_addr, U256::ZERO), U256::ZERO);
    assert_eq!(
        host.balance(recv_addr),
        U256::ZERO,
        "failed call reverted the value"
    );
}

#[test]
fn value_call_to_fresh_account_pays_newaccount_surcharge() {
    // Same transfer, existing vs nonexistent recipient: the difference is
    // exactly G_newaccount = 25,000.
    let run_transfer = |to: Address, fund_target: bool| -> u64 {
        let mut a = Asm::new();
        a.push_u64(0).push_u64(0).push_u64(0).push_u64(0);
        a.push_u64(1); // 1 wei
        a.push_address(to);
        a.push_u64(0);
        a.op(Op::Call);
        a.op(Op::Pop).op(Op::Stop);
        let mut host = MockHost::new();
        host.install(CONTRACT, a.assemble().unwrap());
        host.fund(CONTRACT, ether(1));
        host.fund(CALLER, ether(1));
        if fund_target {
            host.fund(to, U256::ONE);
        }
        let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
            CALLER,
            CONTRACT,
            U256::ZERO,
            vec![],
            500_000,
        ));
        assert!(out.success);
        500_000 - out.gas_left
    };
    let fresh = run_transfer(Address([0x71; 20]), false);
    let existing = run_transfer(Address([0x72; 20]), true);
    assert_eq!(fresh - existing, 25_000);
}
