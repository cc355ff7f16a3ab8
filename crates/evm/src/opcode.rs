//! EVM opcode definitions and classification.

/// All implemented EVM opcodes (Byzantium-era instruction set, the fork
/// contemporary with the paper's Solidity ^0.4.24 target, plus the
/// Constantinople shift opcodes which MiniSol's codegen uses).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // names mirror the Yellow Paper mnemonics
pub enum Op {
    Stop = 0x00,
    Add = 0x01,
    Mul = 0x02,
    Sub = 0x03,
    Div = 0x04,
    SDiv = 0x05,
    Mod = 0x06,
    SMod = 0x07,
    AddMod = 0x08,
    MulMod = 0x09,
    Exp = 0x0a,
    SignExtend = 0x0b,

    Lt = 0x10,
    Gt = 0x11,
    SLt = 0x12,
    SGt = 0x13,
    Eq = 0x14,
    IsZero = 0x15,
    And = 0x16,
    Or = 0x17,
    Xor = 0x18,
    Not = 0x19,
    Byte = 0x1a,
    Shl = 0x1b,
    Shr = 0x1c,
    Sar = 0x1d,

    Keccak256 = 0x20,

    Address = 0x30,
    Balance = 0x31,
    Origin = 0x32,
    Caller = 0x33,
    CallValue = 0x34,
    CallDataLoad = 0x35,
    CallDataSize = 0x36,
    CallDataCopy = 0x37,
    CodeSize = 0x38,
    CodeCopy = 0x39,
    GasPrice = 0x3a,
    ExtCodeSize = 0x3b,
    ExtCodeCopy = 0x3c,
    ReturnDataSize = 0x3d,
    ReturnDataCopy = 0x3e,

    BlockHash = 0x40,
    Coinbase = 0x41,
    Timestamp = 0x42,
    Number = 0x43,
    Difficulty = 0x44,
    GasLimit = 0x45,

    Pop = 0x50,
    MLoad = 0x51,
    MStore = 0x52,
    MStore8 = 0x53,
    SLoad = 0x54,
    SStore = 0x55,
    Jump = 0x56,
    JumpI = 0x57,
    Pc = 0x58,
    MSize = 0x59,
    Gas = 0x5a,
    JumpDest = 0x5b,

    Push1 = 0x60,
    Push2 = 0x61,
    Push3 = 0x62,
    Push4 = 0x63,
    Push5 = 0x64,
    Push6 = 0x65,
    Push7 = 0x66,
    Push8 = 0x67,
    Push9 = 0x68,
    Push10 = 0x69,
    Push11 = 0x6a,
    Push12 = 0x6b,
    Push13 = 0x6c,
    Push14 = 0x6d,
    Push15 = 0x6e,
    Push16 = 0x6f,
    Push17 = 0x70,
    Push18 = 0x71,
    Push19 = 0x72,
    Push20 = 0x73,
    Push21 = 0x74,
    Push22 = 0x75,
    Push23 = 0x76,
    Push24 = 0x77,
    Push25 = 0x78,
    Push26 = 0x79,
    Push27 = 0x7a,
    Push28 = 0x7b,
    Push29 = 0x7c,
    Push30 = 0x7d,
    Push31 = 0x7e,
    Push32 = 0x7f,

    Dup1 = 0x80,
    Dup2 = 0x81,
    Dup3 = 0x82,
    Dup4 = 0x83,
    Dup5 = 0x84,
    Dup6 = 0x85,
    Dup7 = 0x86,
    Dup8 = 0x87,
    Dup9 = 0x88,
    Dup10 = 0x89,
    Dup11 = 0x8a,
    Dup12 = 0x8b,
    Dup13 = 0x8c,
    Dup14 = 0x8d,
    Dup15 = 0x8e,
    Dup16 = 0x8f,

    Swap1 = 0x90,
    Swap2 = 0x91,
    Swap3 = 0x92,
    Swap4 = 0x93,
    Swap5 = 0x94,
    Swap6 = 0x95,
    Swap7 = 0x96,
    Swap8 = 0x97,
    Swap9 = 0x98,
    Swap10 = 0x99,
    Swap11 = 0x9a,
    Swap12 = 0x9b,
    Swap13 = 0x9c,
    Swap14 = 0x9d,
    Swap15 = 0x9e,
    Swap16 = 0x9f,

    Log0 = 0xa0,
    Log1 = 0xa1,
    Log2 = 0xa2,
    Log3 = 0xa3,
    Log4 = 0xa4,

    Create = 0xf0,
    Call = 0xf1,
    CallCode = 0xf2,
    Return = 0xf3,
    DelegateCall = 0xf4,
    StaticCall = 0xfa,
    Revert = 0xfd,
    Invalid = 0xfe,
    SelfDestruct = 0xff,
}

/// [`Op::from_byte`]'s answer for every byte, filled at compile time
/// from [`Op::decode`], so decoding a step is one load.
const DECODE: [Option<Op>; 256] = {
    let mut table = [None; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = Op::decode(b as u8);
        b += 1;
    }
    table
};

impl Op {
    /// Decodes a byte; `None` for unassigned opcodes.
    #[inline]
    pub fn from_byte(b: u8) -> Option<Op> {
        DECODE[b as usize]
    }

    /// The byte-to-opcode map [`DECODE`] is built from.
    const fn decode(b: u8) -> Option<Op> {
        use Op::*;
        Some(match b {
            0x00 => Stop,
            0x01 => Add,
            0x02 => Mul,
            0x03 => Sub,
            0x04 => Div,
            0x05 => SDiv,
            0x06 => Mod,
            0x07 => SMod,
            0x08 => AddMod,
            0x09 => MulMod,
            0x0a => Exp,
            0x0b => SignExtend,
            0x10 => Lt,
            0x11 => Gt,
            0x12 => SLt,
            0x13 => SGt,
            0x14 => Eq,
            0x15 => IsZero,
            0x16 => And,
            0x17 => Or,
            0x18 => Xor,
            0x19 => Not,
            0x1a => Byte,
            0x1b => Shl,
            0x1c => Shr,
            0x1d => Sar,
            0x20 => Keccak256,
            0x30 => Address,
            0x31 => Balance,
            0x32 => Origin,
            0x33 => Caller,
            0x34 => CallValue,
            0x35 => CallDataLoad,
            0x36 => CallDataSize,
            0x37 => CallDataCopy,
            0x38 => CodeSize,
            0x39 => CodeCopy,
            0x3a => GasPrice,
            0x3b => ExtCodeSize,
            0x3c => ExtCodeCopy,
            0x3d => ReturnDataSize,
            0x3e => ReturnDataCopy,
            0x40 => BlockHash,
            0x41 => Coinbase,
            0x42 => Timestamp,
            0x43 => Number,
            0x44 => Difficulty,
            0x45 => GasLimit,
            0x50 => Pop,
            0x51 => MLoad,
            0x52 => MStore,
            0x53 => MStore8,
            0x54 => SLoad,
            0x55 => SStore,
            0x56 => Jump,
            0x57 => JumpI,
            0x58 => Pc,
            0x59 => MSize,
            0x5a => Gas,
            0x5b => JumpDest,
            0x60..=0x7f => return Some(PUSH_TABLE[(b - 0x60) as usize]),
            0x80..=0x8f => return Some(DUP_TABLE[(b - 0x80) as usize]),
            0x90..=0x9f => return Some(SWAP_TABLE[(b - 0x90) as usize]),
            0xa0 => Log0,
            0xa1 => Log1,
            0xa2 => Log2,
            0xa3 => Log3,
            0xa4 => Log4,
            0xf0 => Create,
            0xf1 => Call,
            0xf2 => CallCode,
            0xf3 => Return,
            0xf4 => DelegateCall,
            0xfa => StaticCall,
            0xfd => Revert,
            0xfe => Invalid,
            0xff => SelfDestruct,
            _ => return None,
        })
    }

    /// The `PUSHn` opcode for `1 ≤ n ≤ 32`.
    pub fn push(n: usize) -> Op {
        assert!((1..=32).contains(&n), "PUSH width {n} out of range");
        PUSH_TABLE[n - 1]
    }

    /// The `DUPn` opcode for `1 ≤ n ≤ 16`.
    pub fn dup(n: usize) -> Op {
        assert!((1..=16).contains(&n), "DUP depth {n} out of range");
        DUP_TABLE[n - 1]
    }

    /// The `SWAPn` opcode for `1 ≤ n ≤ 16`.
    pub fn swap(n: usize) -> Op {
        assert!((1..=16).contains(&n), "SWAP depth {n} out of range");
        SWAP_TABLE[n - 1]
    }

    /// For `PUSHn`, the number of immediate bytes that follow; 0 otherwise.
    #[inline]
    pub fn push_bytes(&self) -> usize {
        let b = *self as u8;
        if (0x60..=0x7f).contains(&b) {
            (b - 0x60 + 1) as usize
        } else {
            0
        }
    }

    /// The Yellow-Paper mnemonic.
    pub fn mnemonic(&self) -> String {
        let b = *self as u8;
        match b {
            0x60..=0x7f => format!("PUSH{}", b - 0x60 + 1),
            0x80..=0x8f => format!("DUP{}", b - 0x80 + 1),
            0x90..=0x9f => format!("SWAP{}", b - 0x90 + 1),
            0xa0..=0xa4 => format!("LOG{}", b - 0xa0),
            _ => format!("{self:?}").to_uppercase(),
        }
    }
}

const PUSH_TABLE: [Op; 32] = [
    Op::Push1,
    Op::Push2,
    Op::Push3,
    Op::Push4,
    Op::Push5,
    Op::Push6,
    Op::Push7,
    Op::Push8,
    Op::Push9,
    Op::Push10,
    Op::Push11,
    Op::Push12,
    Op::Push13,
    Op::Push14,
    Op::Push15,
    Op::Push16,
    Op::Push17,
    Op::Push18,
    Op::Push19,
    Op::Push20,
    Op::Push21,
    Op::Push22,
    Op::Push23,
    Op::Push24,
    Op::Push25,
    Op::Push26,
    Op::Push27,
    Op::Push28,
    Op::Push29,
    Op::Push30,
    Op::Push31,
    Op::Push32,
];

const DUP_TABLE: [Op; 16] = [
    Op::Dup1,
    Op::Dup2,
    Op::Dup3,
    Op::Dup4,
    Op::Dup5,
    Op::Dup6,
    Op::Dup7,
    Op::Dup8,
    Op::Dup9,
    Op::Dup10,
    Op::Dup11,
    Op::Dup12,
    Op::Dup13,
    Op::Dup14,
    Op::Dup15,
    Op::Dup16,
];

const SWAP_TABLE: [Op; 16] = [
    Op::Swap1,
    Op::Swap2,
    Op::Swap3,
    Op::Swap4,
    Op::Swap5,
    Op::Swap6,
    Op::Swap7,
    Op::Swap8,
    Op::Swap9,
    Op::Swap10,
    Op::Swap11,
    Op::Swap12,
    Op::Swap13,
    Op::Swap14,
    Op::Swap15,
    Op::Swap16,
];

/// Marks the positions of valid `JUMPDEST`s, skipping PUSH immediates.
pub fn analyze_jumpdests(code: &[u8]) -> Vec<bool> {
    let mut valid = vec![false; code.len()];
    let mut pc = 0usize;
    while pc < code.len() {
        let byte = code[pc];
        if byte == Op::JumpDest as u8 {
            valid[pc] = true;
        }
        if (0x60..=0x7f).contains(&byte) {
            pc += (byte - 0x60 + 1) as usize;
        }
        pc += 1;
    }
    valid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_for_all_assigned() {
        for b in 0u16..=255 {
            if let Some(op) = Op::from_byte(b as u8) {
                assert_eq!(op as u8, b as u8, "{op:?}");
            }
        }
    }

    /// Every byte decodes to nothing or to the op it names, exactly the
    /// `Op` variants decode, PUSH widths sit on 0x60–0x7f alone, and the
    /// interpreter rejects each unassigned byte with its own value.
    #[test]
    fn decode_is_exhaustive() {
        use crate::exec::{CallParams, Evm, VmError};
        use crate::host::{Env, MockHost};
        use sc_primitives::{Address, U256};

        // 12 arithmetic, 14 compare/bitwise, KECCAK256, 15 environment,
        // 6 block, 12 stack/memory/flow, 32 PUSH, 16 DUP, 16 SWAP, 5 LOG
        // and 9 system ops.
        const VARIANTS: usize = 138;
        let mut assigned = 0;
        for b in 0..=u8::MAX {
            let Some(op) = Op::from_byte(b) else {
                let mut host = MockHost::new();
                host.install(Address([0xcc; 20]), vec![b]);
                let out = Evm::new(&mut host, Env::default()).call(CallParams::transact(
                    Address([1; 20]),
                    Address([0xcc; 20]),
                    U256::ZERO,
                    vec![],
                    1_000,
                ));
                assert_eq!(out.error, Some(VmError::InvalidOpcode(b)));
                continue;
            };
            assert_eq!(op as u8, b, "{op:?}");
            let push = (1..=32).contains(&op.push_bytes());
            assert_eq!(push, (0x60..=0x7f).contains(&b), "{op:?}");
            assigned += 1;
        }
        assert_eq!(assigned, VARIANTS);
    }

    #[test]
    fn push_dup_swap_tables() {
        assert_eq!(Op::push(1), Op::Push1);
        assert_eq!(Op::push(32), Op::Push32);
        assert_eq!(Op::dup(16), Op::Dup16);
        assert_eq!(Op::swap(7), Op::Swap7);
        assert_eq!(Op::Push5.push_bytes(), 5);
        assert_eq!(Op::Add.push_bytes(), 0);
    }

    #[test]
    #[should_panic]
    fn push_zero_panics() {
        Op::push(0);
    }

    #[test]
    fn unassigned_bytes_are_none() {
        assert_eq!(Op::from_byte(0x0c), None);
        assert_eq!(Op::from_byte(0x21), None);
        assert_eq!(Op::from_byte(0xf5), None); // CREATE2 not implemented
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Op::Push20.mnemonic(), "PUSH20");
        assert_eq!(Op::Dup3.mnemonic(), "DUP3");
        assert_eq!(Op::Log2.mnemonic(), "LOG2");
        assert_eq!(Op::Keccak256.mnemonic(), "KECCAK256");
    }

    #[test]
    fn jumpdest_analysis_skips_push_data() {
        // PUSH2 0x5b5b JUMPDEST: only offset 3 is a real JUMPDEST.
        let code = [0x61, 0x5b, 0x5b, 0x5b];
        let valid = analyze_jumpdests(&code);
        assert_eq!(valid, vec![false, false, false, true]);
    }

    #[test]
    fn jumpdest_analysis_truncated_push() {
        // PUSH32 with only 2 bytes of immediate: must not panic.
        let code = [0x7f, 0x5b, 0x5b];
        let valid = analyze_jumpdests(&code);
        assert!(!valid.iter().any(|&v| v));
    }
}
