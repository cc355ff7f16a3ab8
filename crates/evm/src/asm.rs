//! A programmatic EVM assembler with labels, plus a disassembler.
//!
//! The MiniSol code generator emits through [`Asm`]; the disassembler
//! backs debugging and the privacy analysis in the benchmarks (how many
//! instructions of the off-chain contract become publicly visible after a
//! dispute).

use crate::opcode::Op;
use sc_primitives::{hex, Address, U256};
use std::collections::HashMap;
use std::fmt;

/// Errors raised during assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// Code grew beyond the PUSH2 label-addressing range.
    CodeTooLarge(usize),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label {l:?}"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label {l:?}"),
            AsmError::CodeTooLarge(n) => write!(f, "code too large for PUSH2 labels: {n} bytes"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
enum Item {
    Op(Op),
    /// PUSHn with explicit immediate.
    Push(Vec<u8>),
    /// PUSH2 of a label's resolved offset.
    PushLabel(String),
    /// Marks a JUMPDEST and binds a label to it.
    Label(String),
    /// Raw bytes (embedded data, e.g. a sub-contract's initcode).
    Raw(Vec<u8>),
}

/// An assembly program under construction.
#[derive(Default, Debug, Clone)]
pub struct Asm {
    items: Vec<Item>,
}

/// Process-global counter so [`Asm::fresh_label`] names stay unique even
/// when separately-built programs are stitched together with
/// [`Asm::append`].
static NEXT_LABEL: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

impl Asm {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a bare opcode.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.items.push(Item::Op(op));
        self
    }

    /// Appends several opcodes.
    pub fn ops(&mut self, ops: &[Op]) -> &mut Self {
        for &o in ops {
            self.op(o);
        }
        self
    }

    /// Pushes a constant with the minimal PUSH width (PUSH1 0 for zero).
    pub fn push(&mut self, v: U256) -> &mut Self {
        let bytes = v.to_be_bytes_trimmed();
        let bytes = if bytes.is_empty() { vec![0] } else { bytes };
        self.items.push(Item::Push(bytes));
        self
    }

    /// Pushes a `u64` constant.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push(U256::from_u64(v))
    }

    /// Pushes a 20-byte address constant (always PUSH20).
    pub fn push_address(&mut self, a: Address) -> &mut Self {
        self.items.push(Item::Push(a.as_bytes().to_vec()));
        self
    }

    /// Generates a fresh label name, unique process-wide.
    pub fn fresh_label(&mut self, hint: &str) -> String {
        let n = NEXT_LABEL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        format!("{hint}_{n}")
    }

    /// Binds `label` here and emits the `JUMPDEST`.
    pub fn label(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::Label(label.to_string()));
        self
    }

    /// Pushes the address of `label` (resolved at assembly time).
    pub fn push_label(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::PushLabel(label.to_string()));
        self
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: &str) -> &mut Self {
        self.push_label(label).op(Op::Jump)
    }

    /// Conditional jump (consumes the condition already on the stack).
    pub fn jumpi(&mut self, label: &str) -> &mut Self {
        self.push_label(label).op(Op::JumpI)
    }

    /// Embeds raw bytes (not disassembled as code).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.items.push(Item::Raw(bytes.to_vec()));
        self
    }

    /// Appends another program's items.
    pub fn append(&mut self, other: Asm) -> &mut Self {
        self.items.extend(other.items);
        self
    }

    /// Assembles to bytecode, resolving labels with fixed PUSH2 operands.
    pub fn assemble(&self) -> Result<Vec<u8>, AsmError> {
        // Pass 1: compute item offsets.
        let mut offsets = HashMap::new();
        let mut pc = 0usize;
        for item in &self.items {
            match item {
                Item::Op(_) => pc += 1,
                Item::Push(bytes) => pc += 1 + bytes.len(),
                Item::PushLabel(_) => pc += 3, // PUSH2 hi lo
                Item::Label(name) => {
                    if offsets.insert(name.clone(), pc).is_some() {
                        return Err(AsmError::DuplicateLabel(name.clone()));
                    }
                    pc += 1; // JUMPDEST
                }
                Item::Raw(bytes) => pc += bytes.len(),
            }
        }
        if pc > u16::MAX as usize {
            return Err(AsmError::CodeTooLarge(pc));
        }
        // Pass 2: emit.
        let mut out = Vec::with_capacity(pc);
        for item in &self.items {
            match item {
                Item::Op(op) => out.push(*op as u8),
                Item::Push(bytes) => {
                    out.push(Op::push(bytes.len()) as u8);
                    out.extend_from_slice(bytes);
                }
                Item::PushLabel(name) => {
                    let target = *offsets
                        .get(name)
                        .ok_or_else(|| AsmError::UndefinedLabel(name.clone()))?;
                    out.push(Op::Push2 as u8);
                    out.extend_from_slice(&(target as u16).to_be_bytes());
                }
                Item::Label(_) => out.push(Op::JumpDest as u8),
                Item::Raw(bytes) => out.extend_from_slice(bytes),
            }
        }
        Ok(out)
    }
}

/// Wraps runtime code in minimal initcode that deploys it verbatim.
///
/// Layout: `PUSH2 len, PUSH2 off, PUSH1 0, CODECOPY, PUSH2 len, PUSH1 0,
/// RETURN, <runtime>`. Constructor logic, when needed, is prepended by the
/// MiniSol compiler instead of using this helper.
pub fn wrap_initcode(runtime: &[u8]) -> Vec<u8> {
    let body = "runtime_body";
    let mut a = Asm::new();
    a.push_u64(runtime.len() as u64);
    a.push_label(body);
    a.push_u64(0);
    a.op(Op::CodeCopy);
    a.push_u64(runtime.len() as u64);
    a.push_u64(0);
    a.op(Op::Return);
    // Bind the label at the end so PUSH2 resolves to the byte where the
    // runtime will start, then swap the marker JUMPDEST for the runtime.
    a.label(body);
    let mut code = a.assemble().expect("static initcode assembles");
    code.pop();
    code.extend_from_slice(runtime);
    code
}

/// One disassembled instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instruction {
    /// Byte offset within the code.
    pub offset: usize,
    /// The opcode, or `None` for an unassigned byte.
    pub op: Option<Op>,
    /// PUSH immediate bytes, if any.
    pub immediate: Vec<u8>,
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Some(op) if !self.immediate.is_empty() => {
                write!(
                    f,
                    "{:04x}: {} 0x{}",
                    self.offset,
                    op.mnemonic(),
                    hex::encode(&self.immediate)
                )
            }
            Some(op) => write!(f, "{:04x}: {}", self.offset, op.mnemonic()),
            None => write!(f, "{:04x}: <invalid>", self.offset),
        }
    }
}

/// Disassembles bytecode into instructions (PUSH immediates attached).
pub fn disassemble(code: &[u8]) -> Vec<Instruction> {
    let mut out = Vec::new();
    let mut pc = 0usize;
    while pc < code.len() {
        let byte = code[pc];
        let op = Op::from_byte(byte);
        let n = op.map_or(0, |o| o.push_bytes());
        let end = (pc + 1 + n).min(code.len());
        out.push(Instruction {
            offset: pc,
            op,
            immediate: code[pc + 1..end].to_vec(),
        });
        pc = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CallParams, Evm};
    use crate::host::{Env, Host, MockHost};

    #[test]
    fn push_widths_are_minimal() {
        let mut a = Asm::new();
        a.push_u64(0).push_u64(1).push_u64(256).push(U256::MAX);
        let code = a.assemble().unwrap();
        assert_eq!(code[0], Op::Push1 as u8);
        assert_eq!(code[2], Op::Push1 as u8);
        assert_eq!(code[4], Op::Push2 as u8);
        assert_eq!(code[7], Op::Push32 as u8);
        assert_eq!(code.len(), 2 + 2 + 3 + 33);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Asm::new();
        a.jump("end");
        a.label("loop");
        a.jump("loop"); // backward ref (never executed)
        a.label("end");
        a.op(Op::Stop);
        let code = a.assemble().unwrap();
        // Layout: PUSH2 xx xx JUMP | JUMPDEST PUSH2 xx xx JUMP | JUMPDEST STOP
        assert_eq!(code[0], Op::Push2 as u8);
        let end = u16::from_be_bytes([code[1], code[2]]) as usize;
        assert_eq!(code[end], Op::JumpDest as u8);
        assert_eq!(code[end + 1], Op::Stop as u8);
        let loop_off = u16::from_be_bytes([code[6], code[7]]) as usize;
        assert_eq!(code[loop_off], Op::JumpDest as u8);
        assert_eq!(loop_off, 4);
    }

    #[test]
    fn undefined_and_duplicate_labels_error() {
        let mut a = Asm::new();
        a.jump("nowhere");
        assert_eq!(
            a.assemble(),
            Err(AsmError::UndefinedLabel("nowhere".into()))
        );
        let mut b = Asm::new();
        b.label("x").label("x");
        assert_eq!(b.assemble(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut a = Asm::new();
        let l1 = a.fresh_label("if");
        let l2 = a.fresh_label("if");
        assert_ne!(l1, l2);
    }

    #[test]
    fn assembled_program_runs() {
        // if (5 < 7) return 1 else return 0
        let mut a = Asm::new();
        a.push_u64(7).push_u64(5); // LT pops a=5, b=7 computing 5 < 7
        a.op(Op::Lt);
        a.jumpi("true");
        a.push_u64(0);
        a.jump("ret");
        a.label("true");
        a.push_u64(1);
        a.label("ret");
        a.push_u64(0).op(Op::MStore);
        a.push_u64(32).push_u64(0).op(Op::Return);
        let code = a.assemble().unwrap();

        let mut host = MockHost::new();
        host.install(Address([0xcc; 20]), code);
        host.fund(Address([1; 20]), sc_primitives::ether(1));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.call(CallParams::transact(
            Address([1; 20]),
            Address([0xcc; 20]),
            U256::ZERO,
            vec![],
            100_000,
        ));
        assert!(out.success, "{:?}", out.error);
        assert_eq!(U256::from_be_slice(&out.output), U256::ONE);
    }

    #[test]
    fn wrap_initcode_deploys_exact_runtime() {
        let runtime = vec![0x60, 0x01, 0x60, 0x02, 0x01, 0x00]; // arbitrary
        let init = wrap_initcode(&runtime);
        let mut host = MockHost::new();
        host.fund(Address([1; 20]), sc_primitives::ether(1));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.create(Address([1; 20]), U256::ZERO, init, 200_000);
        assert!(out.success, "{:?}", out.error);
        assert_eq!(*host.code(out.address.unwrap()), runtime);
    }

    #[test]
    fn wrap_initcode_empty_runtime() {
        let init = wrap_initcode(&[]);
        let mut host = MockHost::new();
        host.fund(Address([1; 20]), sc_primitives::ether(1));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.create(Address([1; 20]), U256::ZERO, init, 200_000);
        assert!(out.success);
        assert!(host.code(out.address.unwrap()).is_empty());
    }

    #[test]
    fn disassembler_roundtrip() {
        let mut a = Asm::new();
        a.push_u64(0xdead).op(Op::Pop).label("l").jump("l");
        let code = a.assemble().unwrap();
        let instrs = disassemble(&code);
        assert_eq!(instrs[0].op, Some(Op::Push2));
        assert_eq!(instrs[0].immediate, vec![0xde, 0xad]);
        assert_eq!(instrs[1].op, Some(Op::Pop));
        assert_eq!(instrs[2].op, Some(Op::JumpDest));
        assert_eq!(instrs[3].op, Some(Op::Push2));
        assert_eq!(instrs[4].op, Some(Op::Jump));
        // Display formatting sanity.
        assert!(instrs[0].to_string().contains("PUSH2 0xdead"));
    }

    #[test]
    fn disassembler_handles_truncated_push_and_invalid() {
        let instrs = disassemble(&[0x7f, 0x01, 0x02]); // PUSH32 with 2 bytes
        assert_eq!(instrs.len(), 1);
        assert_eq!(instrs[0].immediate, vec![0x01, 0x02]);
        let instrs = disassemble(&[0x0c]);
        assert_eq!(instrs[0].op, None);
    }
}
