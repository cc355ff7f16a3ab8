//! A from-scratch Ethereum Virtual Machine.
//!
//! Substrate for the on/off-chain smart-contract reproduction: the paper's
//! enforcement mechanism needs real in-EVM `keccak256`, `ecrecover` and raw
//! `CREATE`-from-bytecode semantics, plus Yellow-Paper gas metering so that
//! the Table II gas measurements are meaningful.
//!
//! * [`analysis`] — jumpdest analysis and its cross-execution cache.
//! * [`opcode`] — the Byzantium+shifts instruction set.
//! * [`gas`] — the gas schedule and dynamic-cost formulas.
//! * [`host`] — the state-backend trait ([`host::Host`]) and a mock.
//! * [`memory`] — word-granular EVM memory.
//! * [`exec`] — the interpreter and CREATE/CALL machinery ([`exec::Evm`]).
//! * [`precompile`] — `ecrecover`, `sha256`, `identity`.
//! * [`asm`] — label-aware assembler and disassembler.
//! * [`inspect`] — step tracing and per-opcode gas profiling.

#![warn(missing_docs)]

pub mod analysis;
pub mod asm;
pub mod exec;
pub mod gas;
pub mod host;
pub mod inspect;
pub mod memory;
pub mod opcode;
pub mod precompile;

pub use analysis::{AnalysisCache, CacheStats, CodeAnalysis, DEFAULT_ANALYSIS_CAPACITY};
pub use asm::{disassemble, wrap_initcode, Asm};
pub use exec::{contract_address, CallOutcome, CallParams, CreateOutcome, Evm, VmError};
pub use host::{BlockEnv, Env, Host, LogEntry, MockHost, TxEnv};
pub use inspect::{GasProfiler, Inspector, NoInspector};
pub use opcode::Op;
