//! The EVM executor: interpreter loop plus the CREATE/CALL machinery.
//!
//! Semantics target the Byzantium fork (the era of the paper's Kovan
//! deployment): EIP-150 gas repricing and the 63/64 forwarding rule,
//! EIP-2 low-s/create-deposit rules, `REVERT`/`RETURNDATA`, and the
//! Constantinople shift opcodes.

use crate::analysis::{AnalysisCache, CodeAnalysis};
use crate::gas::{self, g};
use crate::host::{Env, Host, LogEntry};
use crate::inspect::{Inspector, NoInspector};
use crate::memory::Memory;
use crate::opcode::Op;
use crate::precompile;
use sc_crypto::keccak256;
use sc_primitives::rlp;
use sc_primitives::{Address, H256, U256};
use std::fmt;
use std::rc::Rc;

/// Maximum runtime code size (EIP-170).
pub const MAX_CODE_SIZE: usize = 24_576;

/// Execution failures. `Revert` is *not* an error — it is a distinct
/// outcome carrying data and remaining gas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Gas exhausted.
    OutOfGas,
    /// Pop from an empty stack.
    StackUnderflow,
    /// Push beyond 1024 entries.
    StackOverflow,
    /// Jump target is not a `JUMPDEST`.
    InvalidJump(usize),
    /// Unassigned or explicitly invalid opcode.
    InvalidOpcode(u8),
    /// State mutation inside `STATICCALL`.
    StaticViolation,
    /// `RETURNDATACOPY` beyond the return buffer.
    ReturnDataOutOfBounds,
    /// Created runtime code exceeds [`MAX_CODE_SIZE`].
    CodeSizeLimit,
    /// Address collision on CREATE.
    CreateCollision,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfGas => write!(f, "out of gas"),
            VmError::StackUnderflow => write!(f, "stack underflow"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::InvalidJump(pc) => write!(f, "invalid jump destination {pc}"),
            VmError::InvalidOpcode(b) => write!(f, "invalid opcode 0x{b:02x}"),
            VmError::StaticViolation => write!(f, "state mutation in static context"),
            VmError::ReturnDataOutOfBounds => write!(f, "return data access out of bounds"),
            VmError::CodeSizeLimit => write!(f, "created code exceeds size limit"),
            VmError::CreateCollision => write!(f, "contract address collision"),
        }
    }
}

impl std::error::Error for VmError {}

/// Outcome of a message call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutcome {
    /// True iff execution completed without revert or error.
    pub success: bool,
    /// Gas remaining (returned to the caller).
    pub gas_left: u64,
    /// Return or revert data.
    pub output: Vec<u8>,
    /// Set when the frame failed with a hard error.
    pub error: Option<VmError>,
    /// True when the frame executed `REVERT` (distinct from errors:
    /// remaining gas is preserved).
    pub reverted: bool,
}

impl CallOutcome {
    fn failure(error: VmError) -> Self {
        CallOutcome {
            success: false,
            gas_left: 0,
            output: Vec::new(),
            error: Some(error),
            reverted: false,
        }
    }
}

/// Outcome of contract creation.
#[derive(Debug, Clone)]
pub struct CreateOutcome {
    /// True iff the contract was deployed.
    pub success: bool,
    /// Gas remaining.
    pub gas_left: u64,
    /// The deployed address when successful.
    pub address: Option<Address>,
    /// Revert data when the initcode reverted.
    pub output: Vec<u8>,
    /// Hard error, if any.
    pub error: Option<VmError>,
}

/// Parameters of a message call.
#[derive(Debug, Clone)]
pub struct CallParams {
    /// `msg.sender` seen by the callee.
    pub caller: Address,
    /// Storage/balance context and `ADDRESS` value.
    pub address: Address,
    /// Where the executed code is loaded from (differs from `address`
    /// under `DELEGATECALL`/`CALLCODE`).
    pub code_address: Address,
    /// `msg.value` seen by the callee.
    pub apparent_value: U256,
    /// Wei actually moved (None for delegate/static calls).
    pub transfer_value: Option<U256>,
    /// Calldata.
    pub data: Vec<u8>,
    /// Gas provided to the callee.
    pub gas: u64,
    /// Static (read-only) context flag.
    pub is_static: bool,
}

impl CallParams {
    /// A plain value-bearing call, as a transaction would make.
    pub fn transact(caller: Address, to: Address, value: U256, data: Vec<u8>, gas: u64) -> Self {
        CallParams {
            caller,
            address: to,
            code_address: to,
            apparent_value: value,
            transfer_value: Some(value),
            data,
            gas,
            is_static: false,
        }
    }
}

/// Derives a contract address: `keccak(rlp([sender, nonce]))[12..]`.
pub fn contract_address(sender: Address, nonce: u64) -> Address {
    let mut enc = Vec::with_capacity(32); // at most 1 + 21 + 9 bytes
    rlp::put_list(&mut enc, |out| {
        rlp::put_bytes(sender.as_bytes(), out);
        rlp::put_bytes(rlp::trim_uint(&U256::from_u64(nonce).to_be_bytes()), out);
    });
    Address::from_h256(keccak256(&enc))
}

/// The EVM executor, generic over the state backend and the inspector
/// its loop calls: one source loop, compiled once for [`NoInspector`]
/// (every node's execution, no per-step hook) and once for a borrowed
/// `dyn` [`Inspector`] (profiling and tracing).
pub struct Evm<'a, H: Host, I: Inspector = NoInspector> {
    /// State backend.
    pub host: &'a mut H,
    /// Block/tx environment.
    pub env: Env,
    depth: usize,
    inspector: I,
    cache: Rc<AnalysisCache>,
}

enum FrameResult {
    Stopped,
    Returned(Vec<u8>),
    Reverted(Vec<u8>),
    Failed(VmError),
}

/// A pop or peek below the bottom of the stack. Zero-sized, so a stack
/// read returns its word without an error payload beside it; `try_vm!`
/// and `?` turn it into [`VmError::StackUnderflow`].
struct Underflow;

impl From<Underflow> for VmError {
    #[inline]
    fn from(_: Underflow) -> VmError {
        VmError::StackUnderflow
    }
}

/// A frame's mutable state. Its code and jumpdest map are borrowed by
/// the interpreter loop beside it, not reached through the frame.
struct Frame {
    pc: usize,
    stack: Vec<U256>,
    memory: Memory,
    gas: u64,
    address: Address,
    caller: Address,
    value: U256,
    data: Vec<u8>,
    is_static: bool,
    return_data: Vec<u8>,
}

impl Frame {
    fn new(params: CallParams) -> Frame {
        Frame {
            pc: 0,
            stack: Vec::with_capacity(64),
            memory: Memory::new(),
            gas: params.gas,
            address: params.address,
            caller: params.caller,
            value: params.apparent_value,
            data: params.data,
            is_static: params.is_static,
            return_data: Vec::new(),
        }
    }

    #[inline]
    fn use_gas(&mut self, amount: u64) -> Result<(), VmError> {
        if self.gas < amount {
            self.gas = 0;
            return Err(VmError::OutOfGas);
        }
        self.gas -= amount;
        Ok(())
    }

    #[inline]
    fn pop(&mut self) -> Result<U256, Underflow> {
        self.stack.pop().ok_or(Underflow)
    }

    #[inline]
    fn push(&mut self, v: U256) -> Result<(), VmError> {
        if self.stack.len() >= g::STACK_LIMIT {
            return Err(VmError::StackOverflow);
        }
        self.stack.push(v);
        Ok(())
    }

    #[inline]
    fn peek(&self, depth_from_top: usize) -> Result<U256, Underflow> {
        let len = self.stack.len();
        if depth_from_top >= len {
            return Err(Underflow);
        }
        Ok(self.stack[len - 1 - depth_from_top])
    }

    /// Charges memory expansion for the byte range `[offset, offset+len)`
    /// and expands. Returns the usize offset (0 when len is 0).
    #[inline]
    fn charge_memory(&mut self, offset: U256, len: U256) -> Result<usize, VmError> {
        let len = len.to_usize().ok_or(VmError::OutOfGas)?;
        if len == 0 {
            return Ok(0);
        }
        let offset = offset.to_usize().ok_or(VmError::OutOfGas)?;
        let end = offset.checked_add(len).ok_or(VmError::OutOfGas)?;
        if end <= self.memory.len() {
            // Inside memory already: the expansion would cost 0.
            return Ok(offset);
        }
        let new_words = gas::words(end as u64);
        let cost = gas::memory_expansion_cost(self.memory.words(), new_words);
        self.use_gas(cost)?;
        self.memory.expand(offset, len);
        Ok(offset)
    }
}

impl<'a, H: Host> Evm<'a, H> {
    /// Creates an executor over a host and environment.
    pub fn new(host: &'a mut H, env: Env) -> Self {
        Evm {
            host,
            env,
            depth: 0,
            inspector: NoInspector,
            cache: Rc::new(AnalysisCache::new()),
        }
    }
}

impl<'a, H: Host> Evm<'a, H, &'a mut dyn Inspector> {
    /// Creates an executor with an [`Inspector`] attached (step tracing /
    /// gas profiling).
    pub fn with_inspector(host: &'a mut H, env: Env, inspector: &'a mut dyn Inspector) -> Self {
        Evm {
            host,
            env,
            depth: 0,
            inspector,
            cache: Rc::new(AnalysisCache::new()),
        }
    }
}

impl<'a, H: Host, I: Inspector> Evm<'a, H, I> {
    /// Replaces the (per-executor, private) analysis cache with a shared
    /// one, so jumpdest bitmaps persist across transactions and blocks.
    /// Chainable: `Evm::new(..).with_analysis_cache(cache)`.
    #[must_use]
    pub fn with_analysis_cache(mut self, cache: Rc<AnalysisCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Executes a message call (top-level or nested).
    pub fn call(&mut self, params: CallParams) -> CallOutcome {
        if self.depth > g::MAX_DEPTH {
            // Depth failures refund the provided gas to the caller.
            return CallOutcome {
                success: false,
                gas_left: params.gas,
                output: Vec::new(),
                error: Some(VmError::OutOfGas),
                reverted: false,
            };
        }
        let snapshot = self.host.snapshot();

        if let Some(value) = params.transfer_value {
            if !self.host.transfer(params.caller, params.address, value) {
                self.host.revert(snapshot);
                return CallOutcome {
                    success: false,
                    gas_left: params.gas,
                    output: Vec::new(),
                    error: None,
                    reverted: false,
                };
            }
        }

        if precompile::is_precompile(params.code_address) {
            return match precompile::run(params.code_address, &params.data, params.gas) {
                Some(res) => CallOutcome {
                    success: true,
                    gas_left: params.gas - res.gas_cost,
                    output: res.output,
                    error: None,
                    reverted: false,
                },
                None => {
                    self.host.revert(snapshot);
                    CallOutcome::failure(VmError::OutOfGas)
                }
            };
        }

        let code = self.host.code(params.code_address);
        if code.is_empty() {
            // Plain transfer or call to an EOA: trivially succeeds.
            return CallOutcome {
                success: true,
                gas_left: params.gas,
                output: Vec::new(),
                error: None,
                reverted: false,
            };
        }

        // The account's cached code hash makes this a map probe, not a
        // keccak; the bitmap itself is shared across frames and blocks.
        let analysis = self
            .cache
            .get_or_analyze(self.host.code_hash(params.code_address), &code);
        let mut frame = Box::new(Frame::new(params));
        self.depth += 1;
        let result = self.run(&mut frame, &code, &analysis);
        self.depth -= 1;

        match result {
            FrameResult::Stopped => CallOutcome {
                success: true,
                gas_left: frame.gas,
                output: Vec::new(),
                error: None,
                reverted: false,
            },
            FrameResult::Returned(output) => CallOutcome {
                success: true,
                gas_left: frame.gas,
                output,
                error: None,
                reverted: false,
            },
            FrameResult::Reverted(output) => {
                self.host.revert(snapshot);
                CallOutcome {
                    success: false,
                    gas_left: frame.gas,
                    output,
                    error: None,
                    reverted: true,
                }
            }
            FrameResult::Failed(err) => {
                self.host.revert(snapshot);
                CallOutcome::failure(err)
            }
        }
    }

    /// Creates a contract: consumes the creator's current nonce, runs the
    /// initcode, charges the code deposit and installs the runtime code.
    pub fn create(
        &mut self,
        caller: Address,
        value: U256,
        init_code: Vec<u8>,
        gas_limit: u64,
    ) -> CreateOutcome {
        if self.depth > g::MAX_DEPTH {
            return CreateOutcome {
                success: false,
                gas_left: gas_limit,
                address: None,
                output: Vec::new(),
                error: Some(VmError::OutOfGas),
            };
        }
        if self.host.balance(caller) < value {
            return CreateOutcome {
                success: false,
                gas_left: gas_limit,
                address: None,
                output: Vec::new(),
                error: None,
            };
        }

        let nonce = self.host.nonce(caller);
        self.host.bump_nonce(caller);
        let address = contract_address(caller, nonce);

        let snapshot = self.host.snapshot();
        if !self.host.create_contract(address) {
            self.host.revert(snapshot);
            return CreateOutcome {
                success: false,
                gas_left: 0,
                address: None,
                output: Vec::new(),
                error: Some(VmError::CreateCollision),
            };
        }
        if !self.host.transfer(caller, address, value) {
            self.host.revert(snapshot);
            return CreateOutcome {
                success: false,
                gas_left: gas_limit,
                address: None,
                output: Vec::new(),
                error: None,
            };
        }

        let params = CallParams {
            caller,
            address,
            code_address: address,
            apparent_value: value,
            transfer_value: None,
            data: Vec::new(),
            gas: gas_limit,
            is_static: false,
        };
        // Initcode has no account to look a hash up on; hash it once here
        // so repeated deployments of the same initcode (dispute-path
        // re-deployments in particular) still share one analysis.
        let analysis = self.cache.get_or_analyze(keccak256(&init_code), &init_code);
        let mut frame = Box::new(Frame::new(params));
        self.depth += 1;
        let result = self.run(&mut frame, &init_code, &analysis);
        self.depth -= 1;

        match result {
            FrameResult::Stopped | FrameResult::Returned(_) => {
                let runtime = match result {
                    FrameResult::Returned(code) => code,
                    _ => Vec::new(),
                };
                if runtime.len() > MAX_CODE_SIZE {
                    self.host.revert(snapshot);
                    return CreateOutcome {
                        success: false,
                        gas_left: 0,
                        address: None,
                        output: Vec::new(),
                        error: Some(VmError::CodeSizeLimit),
                    };
                }
                let deposit = g::CODEDEPOSIT * runtime.len() as u64;
                if frame.gas < deposit {
                    // EIP-2: insufficient gas for the deposit fails creation.
                    self.host.revert(snapshot);
                    return CreateOutcome {
                        success: false,
                        gas_left: 0,
                        address: None,
                        output: Vec::new(),
                        error: Some(VmError::OutOfGas),
                    };
                }
                frame.gas -= deposit;
                self.host.set_code(address, runtime);
                CreateOutcome {
                    success: true,
                    gas_left: frame.gas,
                    address: Some(address),
                    output: Vec::new(),
                    error: None,
                }
            }
            FrameResult::Reverted(output) => {
                self.host.revert(snapshot);
                CreateOutcome {
                    success: false,
                    gas_left: frame.gas,
                    address: None,
                    output,
                    error: None,
                }
            }
            FrameResult::Failed(err) => {
                self.host.revert(snapshot);
                CreateOutcome {
                    success: false,
                    gas_left: 0,
                    address: None,
                    output: Vec::new(),
                    error: Some(err),
                }
            }
        }
    }

    fn run(&mut self, f: &mut Frame, code: &[u8], analysis: &CodeAnalysis) -> FrameResult {
        let result = self.run_inner(f, code, analysis);
        self.inspector.exit_frame(self.depth, f.gas);
        result
    }

    #[allow(clippy::too_many_lines)]
    fn run_inner(&mut self, f: &mut Frame, code: &[u8], analysis: &CodeAnalysis) -> FrameResult {
        macro_rules! try_vm {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(err) => return FrameResult::Failed(err.into()),
                }
            };
        }

        loop {
            let Some(&byte) = code.get(f.pc) else {
                // Running off the end of code is an implicit STOP.
                return FrameResult::Stopped;
            };
            let Some(op) = Op::from_byte(byte) else {
                return FrameResult::Failed(VmError::InvalidOpcode(byte));
            };
            self.inspector.step(self.depth, f.pc, byte, f.gas);
            f.pc += 1;

            match op {
                Op::Stop => return FrameResult::Stopped,

                // ---- arithmetic ----
                Op::Add => try_vm!(self.binop(f, g::VERYLOW, |a, b| a.wrapping_add(b))),
                Op::Mul => try_vm!(self.binop(f, g::LOW, |a, b| a.wrapping_mul(b))),
                Op::Sub => try_vm!(self.binop(f, g::VERYLOW, |a, b| a.wrapping_sub(b))),
                Op::Div => try_vm!(self.binop(f, g::LOW, |a, b| a.div_rem(b).0)),
                Op::SDiv => try_vm!(self.binop(f, g::LOW, |a, b| a.sdiv(b))),
                Op::Mod => try_vm!(self.binop(f, g::LOW, |a, b| a.div_rem(b).1)),
                Op::SMod => try_vm!(self.binop(f, g::LOW, |a, b| a.smod(b))),
                Op::AddMod => try_vm!(self.ternop(f, g::MID, |a, b, m| a.addmod(b, m))),
                Op::MulMod => try_vm!(self.ternop(f, g::MID, |a, b, m| a.mulmod(b, m))),
                Op::Exp => {
                    let base = try_vm!(f.pop());
                    let exponent = try_vm!(f.pop());
                    try_vm!(f.use_gas(gas::exp_cost(exponent)));
                    try_vm!(f.push(base.wrapping_pow(exponent)));
                }
                Op::SignExtend => try_vm!(self.binop(f, g::LOW, |k, v| v.signextend(k))),

                // ---- comparison / bitwise ----
                Op::Lt => try_vm!(self.binop(f, g::VERYLOW, |a, b| U256::from(a < b))),
                Op::Gt => try_vm!(self.binop(f, g::VERYLOW, |a, b| U256::from(a > b))),
                Op::SLt => try_vm!(self.binop(f, g::VERYLOW, |a, b| U256::from(a.slt(b)))),
                Op::SGt => try_vm!(self.binop(f, g::VERYLOW, |a, b| U256::from(b.slt(a)))),
                Op::Eq => try_vm!(self.binop(f, g::VERYLOW, |a, b| U256::from(a == b))),
                Op::IsZero => {
                    try_vm!(f.use_gas(g::VERYLOW));
                    let a = try_vm!(f.pop());
                    try_vm!(f.push(U256::from(a.is_zero())));
                }
                Op::And => try_vm!(self.binop(f, g::VERYLOW, |a, b| a & b)),
                Op::Or => try_vm!(self.binop(f, g::VERYLOW, |a, b| a | b)),
                Op::Xor => try_vm!(self.binop(f, g::VERYLOW, |a, b| a ^ b)),
                Op::Not => {
                    try_vm!(f.use_gas(g::VERYLOW));
                    let a = try_vm!(f.pop());
                    try_vm!(f.push(!a));
                }
                Op::Byte => try_vm!(self.binop(f, g::VERYLOW, |i, v| v.byte(i))),
                Op::Shl => try_vm!(self.binop(f, g::VERYLOW, |n, v| {
                    v.shl_bits(n.to_u64().map_or(256, |x| x.min(256)) as u32)
                })),
                Op::Shr => try_vm!(self.binop(f, g::VERYLOW, |n, v| {
                    v.shr_bits(n.to_u64().map_or(256, |x| x.min(256)) as u32)
                })),
                Op::Sar => try_vm!(self.binop(f, g::VERYLOW, |n, v| {
                    v.sar_bits(n.to_u64().map_or(256, |x| x.min(256)) as u32)
                })),

                // ---- hashing ----
                Op::Keccak256 => {
                    let offset = try_vm!(f.pop());
                    let len = try_vm!(f.pop());
                    let word_count = gas::words(len.to_u64().unwrap_or(u64::MAX));
                    try_vm!(f.use_gas(
                        g::KECCAK256.saturating_add(g::KECCAK256WORD.saturating_mul(word_count))
                    ));
                    let off = try_vm!(f.charge_memory(offset, len));
                    let data = f.memory.slice(off, len.to_usize().unwrap_or(0));
                    let hash = keccak256(data);
                    try_vm!(f.push(hash.to_u256()));
                }

                // ---- environment ----
                Op::Address => {
                    try_vm!(f.use_gas(g::BASE));
                    let a = f.address.to_u256();
                    try_vm!(f.push(a));
                }
                Op::Balance => {
                    try_vm!(f.use_gas(g::BALANCE));
                    let a = Address::from_u256(try_vm!(f.pop()));
                    let b = self.host.balance(a);
                    try_vm!(f.push(b));
                }
                Op::Origin => {
                    try_vm!(f.use_gas(g::BASE));
                    let a = self.env.tx.origin.to_u256();
                    try_vm!(f.push(a));
                }
                Op::Caller => {
                    try_vm!(f.use_gas(g::BASE));
                    let a = f.caller.to_u256();
                    try_vm!(f.push(a));
                }
                Op::CallValue => {
                    try_vm!(f.use_gas(g::BASE));
                    let v = f.value;
                    try_vm!(f.push(v));
                }
                Op::CallDataLoad => {
                    try_vm!(f.use_gas(g::VERYLOW));
                    let offset = try_vm!(f.pop());
                    // Reads past the end (any offset near 2^64 included)
                    // are zero-padded, as in CALLDATACOPY.
                    let src = tail(&f.data, offset.to_usize().unwrap_or(usize::MAX));
                    let mut buf = [0u8; 32];
                    let n = src.len().min(32);
                    buf[..n].copy_from_slice(&src[..n]);
                    try_vm!(f.push(U256::from_be_bytes(buf)));
                }
                Op::CallDataSize => {
                    try_vm!(f.use_gas(g::BASE));
                    let n = U256::from_u64(f.data.len() as u64);
                    try_vm!(f.push(n));
                }
                Op::CallDataCopy => {
                    let (dst, src, len) = (try_vm!(f.pop()), try_vm!(f.pop()), try_vm!(f.pop()));
                    try_vm!(self.copy_to_memory(f, dst, src, len, CopySource::CallData));
                }
                Op::CodeSize => {
                    try_vm!(f.use_gas(g::BASE));
                    let n = U256::from_u64(code.len() as u64);
                    try_vm!(f.push(n));
                }
                Op::CodeCopy => {
                    let (dst, src, len) = (try_vm!(f.pop()), try_vm!(f.pop()), try_vm!(f.pop()));
                    try_vm!(self.copy_to_memory(f, dst, src, len, CopySource::Code(code)));
                }
                Op::GasPrice => {
                    try_vm!(f.use_gas(g::BASE));
                    let p = self.env.tx.gas_price;
                    try_vm!(f.push(p));
                }
                Op::ExtCodeSize => {
                    try_vm!(f.use_gas(g::EXTCODE));
                    let a = Address::from_u256(try_vm!(f.pop()));
                    let n = U256::from_u64(self.host.code(a).len() as u64);
                    try_vm!(f.push(n));
                }
                Op::ExtCodeCopy => {
                    let a = Address::from_u256(try_vm!(f.pop()));
                    let (dst, src, len) = (try_vm!(f.pop()), try_vm!(f.pop()), try_vm!(f.pop()));
                    try_vm!(self.copy_to_memory(f, dst, src, len, CopySource::ExtCode(a)));
                }
                Op::ReturnDataSize => {
                    try_vm!(f.use_gas(g::BASE));
                    let n = U256::from_u64(f.return_data.len() as u64);
                    try_vm!(f.push(n));
                }
                Op::ReturnDataCopy => {
                    let (dst, src, len) = (try_vm!(f.pop()), try_vm!(f.pop()), try_vm!(f.pop()));
                    // Unlike the other copies, OOB reads are a hard error.
                    let src_usize = src.to_usize().ok_or(VmError::ReturnDataOutOfBounds);
                    let src_usize = try_vm!(src_usize);
                    let len_usize = len.to_usize().ok_or(VmError::ReturnDataOutOfBounds);
                    let len_usize = try_vm!(len_usize);
                    if src_usize.saturating_add(len_usize) > f.return_data.len() {
                        return FrameResult::Failed(VmError::ReturnDataOutOfBounds);
                    }
                    try_vm!(self.copy_to_memory(f, dst, src, len, CopySource::ReturnData));
                }

                // ---- block ----
                Op::BlockHash => {
                    try_vm!(f.use_gas(g::BLOCKHASH));
                    let n = try_vm!(f.pop());
                    let current = self.env.block.number;
                    let hash = match n.to_u64() {
                        Some(num) if num < current && current - num <= 256 => {
                            self.host.block_hash(num)
                        }
                        _ => H256::ZERO,
                    };
                    try_vm!(f.push(hash.to_u256()));
                }
                Op::Coinbase => {
                    try_vm!(f.use_gas(g::BASE));
                    let a = self.env.block.coinbase.to_u256();
                    try_vm!(f.push(a));
                }
                Op::Timestamp => {
                    try_vm!(f.use_gas(g::BASE));
                    let t = U256::from_u64(self.env.block.timestamp);
                    try_vm!(f.push(t));
                }
                Op::Number => {
                    try_vm!(f.use_gas(g::BASE));
                    let n = U256::from_u64(self.env.block.number);
                    try_vm!(f.push(n));
                }
                Op::Difficulty => {
                    try_vm!(f.use_gas(g::BASE));
                    let d = self.env.block.difficulty;
                    try_vm!(f.push(d));
                }
                Op::GasLimit => {
                    try_vm!(f.use_gas(g::BASE));
                    let l = U256::from_u64(self.env.block.gas_limit);
                    try_vm!(f.push(l));
                }

                // ---- stack/memory/storage/flow ----
                Op::Pop => {
                    try_vm!(f.use_gas(g::BASE));
                    try_vm!(f.pop());
                }
                Op::MLoad => {
                    try_vm!(f.use_gas(g::VERYLOW));
                    let offset = try_vm!(f.pop());
                    let off = try_vm!(f.charge_memory(offset, U256::from_u64(32)));
                    let v = f.memory.load_word(off);
                    try_vm!(f.push(v));
                }
                Op::MStore => {
                    try_vm!(f.use_gas(g::VERYLOW));
                    let offset = try_vm!(f.pop());
                    let value = try_vm!(f.pop());
                    let off = try_vm!(f.charge_memory(offset, U256::from_u64(32)));
                    f.memory.store_word(off, value);
                }
                Op::MStore8 => {
                    try_vm!(f.use_gas(g::VERYLOW));
                    let offset = try_vm!(f.pop());
                    let value = try_vm!(f.pop());
                    let off = try_vm!(f.charge_memory(offset, U256::ONE));
                    f.memory.store_byte(off, value.low_u64() as u8);
                }
                Op::SLoad => {
                    try_vm!(f.use_gas(g::SLOAD));
                    let key = try_vm!(f.pop());
                    let v = self.host.storage(f.address, key);
                    try_vm!(f.push(v));
                }
                Op::SStore => {
                    if f.is_static {
                        return FrameResult::Failed(VmError::StaticViolation);
                    }
                    let key = try_vm!(f.pop());
                    let value = try_vm!(f.pop());
                    let current = self.host.storage(f.address, key);
                    let cost = if current.is_zero() && !value.is_zero() {
                        g::SSET
                    } else {
                        g::SRESET
                    };
                    try_vm!(f.use_gas(cost));
                    if !current.is_zero() && value.is_zero() {
                        self.host.add_refund(g::SCLEAR_REFUND);
                    }
                    self.host.set_storage(f.address, key, value);
                }
                Op::Jump => {
                    try_vm!(f.use_gas(g::MID));
                    let dest = try_vm!(f.pop());
                    try_vm!(do_jump(f, analysis, dest));
                }
                Op::JumpI => {
                    try_vm!(f.use_gas(g::HIGH));
                    let dest = try_vm!(f.pop());
                    let cond = try_vm!(f.pop());
                    if !cond.is_zero() {
                        try_vm!(do_jump(f, analysis, dest));
                    }
                }
                Op::Pc => {
                    try_vm!(f.use_gas(g::BASE));
                    let pc = U256::from_u64((f.pc - 1) as u64);
                    try_vm!(f.push(pc));
                }
                Op::MSize => {
                    try_vm!(f.use_gas(g::BASE));
                    let n = U256::from_u64(f.memory.len() as u64);
                    try_vm!(f.push(n));
                }
                Op::Gas => {
                    try_vm!(f.use_gas(g::BASE));
                    let gas = U256::from_u64(f.gas);
                    try_vm!(f.push(gas));
                }
                Op::JumpDest => {
                    try_vm!(f.use_gas(g::JUMPDEST));
                }

                // ---- push/dup/swap ----
                #[rustfmt::skip]
                Op::Push1 | Op::Push2 | Op::Push3 | Op::Push4 | Op::Push5 | Op::Push6
                | Op::Push7 | Op::Push8 | Op::Push9 | Op::Push10 | Op::Push11 | Op::Push12
                | Op::Push13 | Op::Push14 | Op::Push15 | Op::Push16 | Op::Push17 | Op::Push18
                | Op::Push19 | Op::Push20 | Op::Push21 | Op::Push22 | Op::Push23 | Op::Push24
                | Op::Push25 | Op::Push26 | Op::Push27 | Op::Push28 | Op::Push29 | Op::Push30
                | Op::Push31 | Op::Push32 => {
                    try_vm!(f.use_gas(g::VERYLOW));
                    let n = (byte - 0x5f) as usize;
                    let v = match code.get(f.pc..f.pc + n) {
                        // PUSH1–PUSH8: the immediate fits one limb.
                        Some(imm) if n <= 8 => {
                            U256::from_u64(imm.iter().fold(0, |v, &b| (v << 8) | u64::from(b)))
                        }
                        _ => {
                            let end = (f.pc + n).min(code.len());
                            let slice = &code[f.pc..end];
                            // Truncated push data reads as zero-padded (right).
                            let mut buf = [0u8; 32];
                            buf[32 - n..32 - n + slice.len()].copy_from_slice(slice);
                            U256::from_be_bytes(buf)
                        }
                    };
                    f.pc += n;
                    try_vm!(f.push(v));
                }
                #[rustfmt::skip]
                Op::Dup1 | Op::Dup2 | Op::Dup3 | Op::Dup4 | Op::Dup5 | Op::Dup6 | Op::Dup7
                | Op::Dup8 | Op::Dup9 | Op::Dup10 | Op::Dup11 | Op::Dup12 | Op::Dup13
                | Op::Dup14 | Op::Dup15 | Op::Dup16 => {
                    try_vm!(f.use_gas(g::VERYLOW));
                    let depth = (byte - 0x80) as usize;
                    let v = try_vm!(f.peek(depth));
                    try_vm!(f.push(v));
                }
                #[rustfmt::skip]
                Op::Swap1 | Op::Swap2 | Op::Swap3 | Op::Swap4 | Op::Swap5 | Op::Swap6
                | Op::Swap7 | Op::Swap8 | Op::Swap9 | Op::Swap10 | Op::Swap11 | Op::Swap12
                | Op::Swap13 | Op::Swap14 | Op::Swap15 | Op::Swap16 => {
                    try_vm!(f.use_gas(g::VERYLOW));
                    let depth = (byte - 0x90 + 1) as usize;
                    let len = f.stack.len();
                    if depth >= len {
                        return FrameResult::Failed(VmError::StackUnderflow);
                    }
                    f.stack.swap(len - 1, len - 1 - depth);
                }

                // ---- logging ----
                Op::Log0 | Op::Log1 | Op::Log2 | Op::Log3 | Op::Log4 => {
                    if f.is_static {
                        return FrameResult::Failed(VmError::StaticViolation);
                    }
                    let topic_count = (byte - 0xa0) as usize;
                    let offset = try_vm!(f.pop());
                    let len = try_vm!(f.pop());
                    let mut topics = Vec::with_capacity(topic_count);
                    for _ in 0..topic_count {
                        topics.push(H256::from_u256(try_vm!(f.pop())));
                    }
                    let data_len = len.to_u64().unwrap_or(u64::MAX);
                    try_vm!(f.use_gas(
                        g::LOG
                            .saturating_add(g::LOGTOPIC.saturating_mul(topic_count as u64))
                            .saturating_add(g::LOGDATA.saturating_mul(data_len))
                    ));
                    let off = try_vm!(f.charge_memory(offset, len));
                    let data = f.memory.slice(off, len.to_usize().unwrap_or(0)).to_vec();
                    self.host.log(LogEntry {
                        address: f.address,
                        topics,
                        data,
                    });
                }

                // ---- system ----
                Op::Create => {
                    if f.is_static {
                        return FrameResult::Failed(VmError::StaticViolation);
                    }
                    let value = try_vm!(f.pop());
                    let offset = try_vm!(f.pop());
                    let len = try_vm!(f.pop());
                    try_vm!(f.use_gas(g::CREATE));
                    let off = try_vm!(f.charge_memory(offset, len));
                    let init = f.memory.slice(off, len.to_usize().unwrap_or(0)).to_vec();

                    let child_gas = gas::max_call_gas(f.gas);
                    try_vm!(f.use_gas(child_gas));
                    let outcome = self.create(f.address, value, init, child_gas);
                    f.gas += outcome.gas_left;
                    f.return_data = outcome.output.clone();
                    let pushed = match outcome.address {
                        Some(a) if outcome.success => a.to_u256(),
                        _ => U256::ZERO,
                    };
                    try_vm!(f.push(pushed));
                }
                Op::Call | Op::CallCode | Op::DelegateCall | Op::StaticCall => {
                    try_vm!(self.do_call(f, op));
                }
                Op::Return => {
                    let offset = try_vm!(f.pop());
                    let len = try_vm!(f.pop());
                    let off = try_vm!(f.charge_memory(offset, len));
                    let out = f.memory.slice(off, len.to_usize().unwrap_or(0)).to_vec();
                    return FrameResult::Returned(out);
                }
                Op::Revert => {
                    let offset = try_vm!(f.pop());
                    let len = try_vm!(f.pop());
                    let off = try_vm!(f.charge_memory(offset, len));
                    let out = f.memory.slice(off, len.to_usize().unwrap_or(0)).to_vec();
                    return FrameResult::Reverted(out);
                }
                Op::Invalid => {
                    return FrameResult::Failed(VmError::InvalidOpcode(0xfe));
                }
                Op::SelfDestruct => {
                    if f.is_static {
                        return FrameResult::Failed(VmError::StaticViolation);
                    }
                    try_vm!(f.use_gas(5_000));
                    let beneficiary = Address::from_u256(try_vm!(f.pop()));
                    let balance = self.host.balance(f.address);
                    if !balance.is_zero() && !self.host.account_exists(beneficiary) {
                        try_vm!(f.use_gas(g::NEWACCOUNT));
                    }
                    self.host.transfer(f.address, beneficiary, balance);
                    // Simplification: code removal at tx end is not
                    // modelled; the refund and balance sweep are.
                    self.host.add_refund(24_000);
                    return FrameResult::Stopped;
                }
            }
        }
    }

    fn binop(
        &mut self,
        f: &mut Frame,
        cost: u64,
        op: impl FnOnce(U256, U256) -> U256,
    ) -> Result<(), VmError> {
        f.use_gas(cost)?;
        let a = f.pop()?;
        let b = f.pop()?;
        f.push(op(a, b))
    }

    fn ternop(
        &mut self,
        f: &mut Frame,
        cost: u64,
        op: impl FnOnce(U256, U256, U256) -> U256,
    ) -> Result<(), VmError> {
        f.use_gas(cost)?;
        let a = f.pop()?;
        let b = f.pop()?;
        let c = f.pop()?;
        f.push(op(a, b, c))
    }

    fn copy_to_memory(
        &mut self,
        f: &mut Frame,
        dst: U256,
        src: U256,
        len: U256,
        source: CopySource<'_>,
    ) -> Result<(), VmError> {
        let base_cost = match source {
            CopySource::ExtCode(_) => g::EXTCODE,
            _ => g::VERYLOW,
        };
        let word_count = gas::words(len.to_u64().unwrap_or(u64::MAX));
        f.use_gas(base_cost.saturating_add(g::COPYWORD.saturating_mul(word_count)))?;
        let dst_off = f.charge_memory(dst, len)?;
        let len = len.to_usize().unwrap_or(0);
        if len == 0 {
            return Ok(());
        }
        let src_off = src.to_usize().unwrap_or(usize::MAX);
        let buf: Vec<u8> = match source {
            CopySource::CallData => tail(&f.data, src_off).to_vec(),
            CopySource::Code(code) => tail(code, src_off).to_vec(),
            CopySource::ReturnData => tail(&f.return_data, src_off).to_vec(),
            CopySource::ExtCode(a) => tail(&self.host.code(a), src_off).to_vec(),
        };
        f.memory.copy_padded(dst_off, len, &buf);
        Ok(())
    }

    fn do_call(&mut self, f: &mut Frame, op: Op) -> Result<(), VmError> {
        let gas_req = f.pop()?;
        let to = Address::from_u256(f.pop()?);
        let value = match op {
            Op::Call | Op::CallCode => f.pop()?,
            _ => U256::ZERO,
        };
        let in_off = f.pop()?;
        let in_len = f.pop()?;
        let out_off = f.pop()?;
        let out_len = f.pop()?;

        if f.is_static && op == Op::Call && !value.is_zero() {
            return Err(VmError::StaticViolation);
        }

        // Static base + value surcharge + new-account surcharge.
        let mut cost = g::CALL;
        let transfers_value = op == Op::Call && !value.is_zero();
        if !value.is_zero() && matches!(op, Op::Call | Op::CallCode) {
            cost += g::CALLVALUE;
        }
        if transfers_value && !self.host.account_exists(to) && !precompile::is_precompile(to) {
            cost += g::NEWACCOUNT;
        }
        f.use_gas(cost)?;

        // Memory for both regions.
        let in_offset = f.charge_memory(in_off, in_len)?;
        let out_offset = f.charge_memory(out_off, out_len)?;
        let input = f
            .memory
            .slice(in_offset, in_len.to_usize().unwrap_or(0))
            .to_vec();

        // EIP-150: forward at most 63/64 of what remains.
        let cap = gas::max_call_gas(f.gas);
        let mut child_gas = match gas_req.to_u64() {
            Some(g) => g.min(cap),
            None => cap,
        };
        f.use_gas(child_gas)?;
        if !value.is_zero() && matches!(op, Op::Call | Op::CallCode) {
            child_gas += g::CALLSTIPEND;
        }

        let params = match op {
            Op::Call => CallParams {
                caller: f.address,
                address: to,
                code_address: to,
                apparent_value: value,
                transfer_value: Some(value),
                data: input,
                gas: child_gas,
                is_static: f.is_static,
            },
            Op::CallCode => CallParams {
                caller: f.address,
                address: f.address,
                code_address: to,
                apparent_value: value,
                // Value moves from self to self: balance check only.
                transfer_value: Some(value),
                data: input,
                gas: child_gas,
                is_static: f.is_static,
            },
            Op::DelegateCall => CallParams {
                caller: f.caller,
                address: f.address,
                code_address: to,
                apparent_value: f.value,
                transfer_value: None,
                data: input,
                gas: child_gas,
                is_static: f.is_static,
            },
            Op::StaticCall => CallParams {
                caller: f.address,
                address: to,
                code_address: to,
                apparent_value: U256::ZERO,
                transfer_value: None,
                data: input,
                gas: child_gas,
                is_static: true,
            },
            _ => unreachable!("do_call only handles call-family ops"),
        };

        let outcome = self.call(params);
        f.gas += outcome.gas_left;
        // Copy output into the caller-designated region (truncated).
        let out_len_usize = out_len.to_usize().unwrap_or(0);
        if out_len_usize > 0 {
            let n = outcome.output.len().min(out_len_usize);
            if n > 0 {
                f.memory.copy_padded(out_offset, n, &outcome.output[..n]);
            }
        }
        f.return_data = outcome.output;
        f.push(U256::from(outcome.success))
    }
}

enum CopySource<'c> {
    CallData,
    Code(&'c [u8]),
    ReturnData,
    ExtCode(Address),
}

#[inline]
fn do_jump(f: &mut Frame, analysis: &CodeAnalysis, dest: U256) -> Result<(), VmError> {
    let Some(pc) = dest.to_usize() else {
        return Err(VmError::InvalidJump(usize::MAX));
    };
    if !analysis.is_jumpdest(pc) {
        return Err(VmError::InvalidJump(pc));
    }
    f.pc = pc;
    Ok(())
}

/// Returns `data[offset..]`, or empty when offset is past the end.
#[inline]
fn tail(data: &[u8], offset: usize) -> &[u8] {
    data.get(offset..).unwrap_or(&[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::MockHost;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    /// Runs raw code in a one-off contract with the given calldata.
    fn run_code(code: Vec<u8>, data: Vec<u8>, gas: u64) -> (CallOutcome, MockHost) {
        let mut host = MockHost::new();
        host.install(addr(0xcc), code);
        host.fund(addr(0xee), sc_primitives::ether(10));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.call(CallParams::transact(
            addr(0xee),
            addr(0xcc),
            U256::ZERO,
            data,
            gas,
        ));
        (out, host)
    }

    // Convenience: PUSH1 x
    fn push1(x: u8) -> Vec<u8> {
        vec![0x60, x]
    }

    #[test]
    fn add_and_return() {
        // PUSH1 2, PUSH1 3, ADD, PUSH1 0, MSTORE, PUSH1 32, PUSH1 0, RETURN
        let mut code = Vec::new();
        code.extend(push1(2));
        code.extend(push1(3));
        code.push(0x01);
        code.extend(push1(0));
        code.push(0x52);
        code.extend(push1(32));
        code.extend(push1(0));
        code.push(0xf3);
        let (out, _) = run_code(code, vec![], 100_000);
        assert!(out.success);
        assert_eq!(U256::from_be_slice(&out.output), U256::from_u64(5));
    }

    #[test]
    fn gas_accounting_simple_sequence() {
        // PUSH1 PUSH1 ADD = 3 + 3 + 3 = 9 gas, then implicit stop.
        let mut code = Vec::new();
        code.extend(push1(1));
        code.extend(push1(2));
        code.push(0x01);
        let (out, _) = run_code(code, vec![], 1_000);
        assert!(out.success);
        assert_eq!(out.gas_left, 1_000 - 9);
    }

    #[test]
    fn out_of_gas_consumes_everything() {
        let mut code = Vec::new();
        code.extend(push1(1));
        code.extend(push1(2));
        code.push(0x01);
        let (out, _) = run_code(code, vec![], 8);
        assert!(!out.success);
        assert_eq!(out.gas_left, 0);
        assert_eq!(out.error, Some(VmError::OutOfGas));
    }

    #[test]
    fn stack_underflow_detected() {
        let (out, _) = run_code(vec![0x01], vec![], 1_000); // ADD on empty stack
        assert_eq!(out.error, Some(VmError::StackUnderflow));
    }

    #[test]
    fn invalid_jump_detected() {
        // PUSH1 3, JUMP — target 3 is not a JUMPDEST.
        let code = vec![0x60, 0x03, 0x56, 0x00];
        let (out, _) = run_code(code, vec![], 1_000);
        assert_eq!(out.error, Some(VmError::InvalidJump(3)));
    }

    #[test]
    fn jump_to_jumpdest_works() {
        // PUSH1 4, JUMP, INVALID, JUMPDEST, STOP
        let code = vec![0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00];
        let (out, _) = run_code(code, vec![], 1_000);
        assert!(out.success, "error: {:?}", out.error);
    }

    #[test]
    fn jump_into_push_data_rejected() {
        // PUSH1 1 — byte at pc=1 is 0x5b but inside push data; JUMP there must fail.
        // code: PUSH1 0x5b (pc0..1), PUSH1 1 (pc2..3), JUMP(pc4)
        let code = vec![0x60, 0x5b, 0x60, 0x01, 0x56];
        let (out, _) = run_code(code, vec![], 1_000);
        assert_eq!(out.error, Some(VmError::InvalidJump(1)));
    }

    #[test]
    fn calldata_load_and_size() {
        // CALLDATASIZE, PUSH1 0, MSTORE, CALLDATALOAD(0) at 32, return both
        // Simpler: return CALLDATALOAD(0)
        let code = vec![
            0x60, 0x00, 0x35, // PUSH1 0, CALLDATALOAD
            0x60, 0x00, 0x52, // MSTORE at 0
            0x60, 0x20, 0x60, 0x00, 0xf3, // RETURN 32 bytes
        ];
        let mut data = vec![0u8; 32];
        data[31] = 42;
        let (out, _) = run_code(code, data, 100_000);
        assert_eq!(U256::from_be_slice(&out.output), U256::from_u64(42));
    }

    #[test]
    fn storage_write_read_and_gas() {
        // SSTORE(0, 7) then return SLOAD(0)
        let code = vec![
            0x60, 0x07, 0x60, 0x00, 0x55, // PUSH1 7, PUSH1 0, SSTORE
            0x60, 0x00, 0x54, // SLOAD
            0x60, 0x00, 0x52, // MSTORE
            0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let (out, host) = run_code(code, vec![], 100_000);
        assert!(out.success);
        assert_eq!(U256::from_be_slice(&out.output), U256::from_u64(7));
        assert_eq!(host.storage(addr(0xcc), U256::ZERO), U256::from_u64(7));
        // Gas: 3+3+20000 (sset) + 3+200 (sload) + 3+3 (mstore) + 3+3 = 20224
        assert_eq!(out.gas_left, 100_000 - 20_224);
    }

    #[test]
    fn sstore_clear_adds_refund() {
        // SSTORE(0,5); SSTORE(0,0)
        let code = vec![0x60, 0x05, 0x60, 0x00, 0x55, 0x60, 0x00, 0x60, 0x00, 0x55];
        let (out, host) = run_code(code, vec![], 100_000);
        assert!(out.success);
        assert_eq!(host.refund, 15_000);
    }

    #[test]
    fn revert_rolls_back_state_but_keeps_gas() {
        // SSTORE(0, 7); REVERT(0,0)
        let code = vec![
            0x60, 0x07, 0x60, 0x00, 0x55, // SSTORE
            0x60, 0x00, 0x60, 0x00, 0xfd, // REVERT
        ];
        let (out, host) = run_code(code, vec![], 100_000);
        assert!(!out.success);
        assert!(out.reverted);
        assert!(out.gas_left > 0, "revert preserves remaining gas");
        assert_eq!(host.storage(addr(0xcc), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn keccak_opcode_matches_library() {
        // Store "abc" via MSTORE8s, hash 3 bytes at offset 0.
        let code = vec![
            0x60, b'a', 0x60, 0x00, 0x53, // MSTORE8(0,'a')
            0x60, b'b', 0x60, 0x01, 0x53, 0x60, b'c', 0x60, 0x02, 0x53, 0x60, 0x03, 0x60, 0x00,
            0x20, // KECCAK256(0,3)
            0x60, 0x00, 0x52, // MSTORE
            0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let (out, _) = run_code(code, vec![], 100_000);
        assert_eq!(out.output, keccak256(b"abc").as_bytes());
    }

    #[test]
    fn timestamp_exposed() {
        let mut host = MockHost::new();
        host.install(
            addr(0xcc),
            vec![0x42, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3],
        );
        host.fund(addr(0xee), sc_primitives::ether(1));
        let mut env = Env::default();
        env.block.timestamp = 123_456;
        let mut evm = Evm::new(&mut host, env);
        let out = evm.call(CallParams::transact(
            addr(0xee),
            addr(0xcc),
            U256::ZERO,
            vec![],
            100_000,
        ));
        assert_eq!(U256::from_be_slice(&out.output), U256::from_u64(123_456));
    }

    #[test]
    fn plain_value_transfer_to_eoa() {
        let mut host = MockHost::new();
        host.fund(addr(1), sc_primitives::ether(5));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.call(CallParams::transact(
            addr(1),
            addr(2),
            sc_primitives::ether(2),
            vec![],
            100_000,
        ));
        assert!(out.success);
        assert_eq!(out.gas_left, 100_000, "EOA call consumes no exec gas");
        assert_eq!(host.balance(addr(2)), sc_primitives::ether(2));
    }

    #[test]
    fn insufficient_balance_fails_without_consuming_gas() {
        let mut host = MockHost::new();
        host.fund(addr(1), U256::from_u64(10));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.call(CallParams::transact(
            addr(1),
            addr(2),
            sc_primitives::ether(1),
            vec![],
            100_000,
        ));
        assert!(!out.success);
        assert_eq!(out.gas_left, 100_000);
        assert_eq!(host.balance(addr(2)), U256::ZERO);
    }

    #[test]
    fn create_deploys_runtime_code() {
        // Initcode returning 2 bytes of runtime code [0x60, 0x00]:
        // PUSH1 0x60 PUSH1 0 MSTORE8; PUSH1 0x00 PUSH1 1 MSTORE8; RETURN(0,2)
        let init = vec![
            0x60, 0x60, 0x60, 0x00, 0x53, // runtime[0] = 0x60
            0x60, 0x00, 0x60, 0x01, 0x53, // runtime[1] = 0x00
            0x60, 0x02, 0x60, 0x00, 0xf3,
        ];
        let mut host = MockHost::new();
        host.fund(addr(1), sc_primitives::ether(1));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.create(addr(1), U256::ZERO, init, 200_000);
        assert!(out.success, "error: {:?}", out.error);
        let deployed = out.address.unwrap();
        assert_eq!(*host.code(deployed), vec![0x60, 0x00]);
        assert_eq!(host.nonce(addr(1)), 1, "creator nonce bumped");
        assert_eq!(deployed, contract_address(addr(1), 0));
        assert_eq!(host.nonce(deployed), 1, "EIP-161 contract nonce");
    }

    #[test]
    fn create_charges_code_deposit() {
        // Initcode returning 10 zero bytes: deposit = 2000 gas.
        let init = vec![0x60, 0x0a, 0x60, 0x00, 0xf3]; // RETURN(0, 10)
        let mut host = MockHost::new();
        host.fund(addr(1), sc_primitives::ether(1));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.create(addr(1), U256::ZERO, init.clone(), 100_000);
        assert!(out.success);
        // exec: 3+3+memory(1 word => 3)... easier: compare against a
        // zero-deposit run of the same initcode.
        let out2 = Evm::new(&mut host, Env::default()).create(
            addr(1),
            U256::ZERO,
            vec![0x60, 0x00, 0x60, 0x00, 0xf3], // RETURN(0,0)
            100_000,
        );
        assert!(out2.success);
        let exec_cost_deposit = 100_000 - out.gas_left;
        let exec_cost_no_deposit = 100_000 - out2.gas_left;
        // The 10-byte run pays 3 gas for memory expansion + 200*10 deposit.
        assert_eq!(exec_cost_deposit - exec_cost_no_deposit, 2_000 + 3);
    }

    #[test]
    fn create_failure_reverts_and_consumes_gas() {
        // Initcode that REVERTs.
        let init = vec![0x60, 0x00, 0x60, 0x00, 0xfd];
        let mut host = MockHost::new();
        host.fund(addr(1), sc_primitives::ether(1));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.create(addr(1), sc_primitives::ether(1), init, 100_000);
        assert!(!out.success);
        assert!(out.address.is_none());
        assert_eq!(
            host.balance(addr(1)),
            sc_primitives::ether(1),
            "value returned"
        );
        assert_eq!(host.nonce(addr(1)), 1, "nonce bump survives failed create");
    }

    #[test]
    fn nested_call_failure_reverts_only_callee() {
        // Callee: SSTORE(0,1) then INVALID → its write must roll back.
        let callee = vec![0x60, 0x01, 0x60, 0x00, 0x55, 0xfe];
        // Caller: SSTORE(0,9); CALL(gas=0xffff, to=0xbb, value=0, in 0/0, out 0/0); STOP
        let caller = vec![
            0x60, 0x09, 0x60, 0x00, 0x55, // own SSTORE
            0x60, 0x00, 0x60, 0x00, // out
            0x60, 0x00, 0x60, 0x00, // in
            0x60, 0x00, // value
            0x73, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb,
            0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, // PUSH20 callee
            0x61, 0xff, 0xff, // PUSH2 gas
            0xf1, // CALL
            0x00,
        ];
        let mut host = MockHost::new();
        host.install(addr(0xbb), callee);
        host.install(addr(0xaa), caller);
        host.fund(addr(1), sc_primitives::ether(1));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.call(CallParams::transact(
            addr(1),
            addr(0xaa),
            U256::ZERO,
            vec![],
            500_000,
        ));
        assert!(
            out.success,
            "caller survives callee failure: {:?}",
            out.error
        );
        assert_eq!(host.storage(addr(0xaa), U256::ZERO), U256::from_u64(9));
        assert_eq!(host.storage(addr(0xbb), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn staticcall_blocks_sstore() {
        // Callee tries SSTORE.
        let callee = vec![0x60, 0x01, 0x60, 0x00, 0x55, 0x00];
        // Caller STATICCALLs callee and returns the success flag.
        let caller = vec![
            0x60, 0x00, 0x60, 0x00, // out
            0x60, 0x00, 0x60, 0x00, // in
            0x73, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb,
            0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0x61, 0xff, 0xff, 0xfa, // STATICCALL
            0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let mut host = MockHost::new();
        host.install(addr(0xbb), callee);
        host.install(addr(0xaa), caller);
        host.fund(addr(1), sc_primitives::ether(1));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.call(CallParams::transact(
            addr(1),
            addr(0xaa),
            U256::ZERO,
            vec![],
            500_000,
        ));
        assert!(out.success);
        assert_eq!(
            U256::from_be_slice(&out.output),
            U256::ZERO,
            "static violation surfaces as callee failure"
        );
        assert_eq!(host.storage(addr(0xbb), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn ecrecover_via_call() {
        use sc_crypto::ecdsa::PrivateKey;
        let key = PrivateKey::from_seed("alice");
        let digest = keccak256(b"bytecode");
        let sig = key.sign(digest);
        // Build calldata hash||v||r||s and CALLDATACOPY it to memory,
        // then CALL precompile 1 and return its 32-byte output.
        let code = vec![
            // CALLDATACOPY(0, 0, 128)
            0x60, 0x80, 0x60, 0x00, 0x60, 0x00, 0x37,
            // CALL(gas=0xffff, to=1, value=0, in=0..128, out=128..160)
            0x60, 0x20, 0x60, 0x80, // out len/off -> pushed in reverse below
            0x60, 0x80, 0x60, 0x00, // in len/off
            0x60, 0x00, // value
            0x60, 0x01, // to
            0x61, 0xff, 0xff, // gas
            0xf1, 0x50, // pop success flag
            // RETURN(128, 32)
            0x60, 0x20, 0x60, 0x80, 0xf3,
        ];
        // Careful: CALL pops gas,to,value,inoff,inlen,outoff,outlen - so
        // push order must be outlen,outoff,inlen,inoff,value,to,gas.
        // The code above pushes: 0x20(outlen),0x80(outoff),0x80(inlen)...
        // wait — need inoff/inlen order: pops are in_off then in_len.
        // Pushed (last first): gas,to,value,in_off,in_len,out_off,out_len.
        // So push order is out_len, out_off, in_len, in_off, value, to, gas.
        // Above: 0x20, 0x80 (out), 0x80, 0x00 (in len=0x80? off=0) — that
        // pushes in_len=0x80 then in_off=0x00: correct.
        let mut data = Vec::new();
        data.extend_from_slice(digest.as_bytes());
        let mut v = [0u8; 32];
        v[31] = sig.v;
        data.extend_from_slice(&v);
        data.extend_from_slice(sig.r.as_bytes());
        data.extend_from_slice(sig.s.as_bytes());
        let (out, _) = run_code(code, data, 200_000);
        assert!(out.success);
        assert_eq!(&out.output[12..], key.address().as_bytes());
    }

    #[test]
    fn contract_address_derivation_vector() {
        // Known mainnet-style vector: sender 0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0
        // nonce 0 -> 0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d
        let sender = Address::from_hex("0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0").unwrap();
        assert_eq!(
            contract_address(sender, 0).to_string(),
            "0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d"
        );
        assert_eq!(
            contract_address(sender, 1).to_string(),
            "0x343c43a37d37dff08ae8c4a11544c718abb4fcf8"
        );
    }

    #[test]
    fn exp_dynamic_gas() {
        // PUSH1 2 (exponent... careful: EXP pops base then exponent).
        // Stack order: push exponent first? EXP pops base, exponent.
        // We want 3**5: push 5 (exp) then 3 (base): pops base=3, exp=5.
        let code = vec![
            0x60, 0x05, 0x60, 0x03, 0x0a, // EXP
            0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let (out, _) = run_code(code, vec![], 100_000);
        assert_eq!(U256::from_be_slice(&out.output), U256::from_u64(243));
        // gas: 3 + 3 + (10 + 50*1) + 3 + 3 + 3 + 3 = 78; mem expansion 3
        assert_eq!(out.gas_left, 100_000 - 81);
    }

    #[test]
    fn call_depth_limit_enforced() {
        // A contract that calls itself forever. With the 63/64 rule gas
        // decays geometrically, so recursion ends by gas starvation after
        // a few hundred frames (each frame's inner-call failure is
        // swallowed by pushing 0). Host recursion is real, so give the
        // test thread a deep stack, as a node embedding this EVM would.
        let self_addr = addr(0xcc);
        let mut code = vec![
            0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, // out/in/value
            0x73,
        ];
        code.extend_from_slice(self_addr.as_bytes());
        code.extend_from_slice(&[0x5a, 0xf1, 0x00]); // GAS, CALL, STOP
        let handle = std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(move || run_code(code, vec![], 10_000_000).0)
            .expect("spawn");
        let out = handle.join().expect("join");
        assert!(out.success);
    }

    #[test]
    fn returndatacopy_out_of_bounds_fails() {
        // No call made: return_data empty; RETURNDATACOPY(0,0,1) must fail.
        let code = vec![0x60, 0x01, 0x60, 0x00, 0x60, 0x00, 0x3e];
        let (out, _) = run_code(code, vec![], 100_000);
        assert_eq!(out.error, Some(VmError::ReturnDataOutOfBounds));
    }

    #[test]
    fn delegatecall_uses_caller_storage() {
        // Library: SSTORE(0, CALLER) — stores msg.sender.
        let library = vec![0x33, 0x60, 0x00, 0x55, 0x00];
        // Proxy delegatecalls the library.
        let proxy = vec![
            0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, // out/in
            0x73, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb,
            0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0x61, 0xff, 0xff, 0xf4,
            0x00, // DELEGATECALL, STOP
        ];
        let mut host = MockHost::new();
        host.install(addr(0xbb), library);
        host.install(addr(0xaa), proxy);
        host.fund(addr(1), sc_primitives::ether(1));
        let mut evm = Evm::new(&mut host, Env::default());
        let out = evm.call(CallParams::transact(
            addr(1),
            addr(0xaa),
            U256::ZERO,
            vec![],
            500_000,
        ));
        assert!(out.success);
        // Storage written in the PROXY's space, and CALLER is the original EOA.
        assert_eq!(host.storage(addr(0xaa), U256::ZERO), addr(1).to_u256());
        assert_eq!(host.storage(addr(0xbb), U256::ZERO), U256::ZERO);
    }
}
