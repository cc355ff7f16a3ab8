//! Execution inspection: a step hook on the interpreter plus a gas
//! profiler that attributes gas to opcodes.
//!
//! Used to decompose protocol costs (e.g. where `deployVerifiedInstance`
//! spends its 275k gas) and for debugging generated code.

use crate::opcode::Op;
use std::collections::HashMap;

/// Observer of interpreter execution. All methods have defaults, so an
/// implementation only overrides what it needs.
pub trait Inspector {
    /// Called before each instruction executes.
    ///
    /// `depth` is the call depth (1 = the outermost frame), `pc` the
    /// instruction offset, `gas_before` the frame's remaining gas before
    /// the instruction is charged.
    #[inline]
    fn step(&mut self, depth: usize, pc: usize, op: u8, gas_before: u64) {
        let _ = (depth, pc, op, gas_before);
    }

    /// Called when a frame finishes, with its remaining gas.
    #[inline]
    fn exit_frame(&mut self, depth: usize, gas_left: u64) {
        let _ = (depth, gas_left);
    }
}

/// The inspector of [`crate::Evm::new`]: zero-sized, its hooks empty, so
/// the loop compiled for it carries no per-step hook at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoInspector;

impl Inspector for NoInspector {}

impl<T: Inspector + ?Sized> Inspector for &mut T {
    #[inline]
    fn step(&mut self, depth: usize, pc: usize, op: u8, gas_before: u64) {
        (**self).step(depth, pc, op, gas_before);
    }

    #[inline]
    fn exit_frame(&mut self, depth: usize, gas_left: u64) {
        (**self).exit_frame(depth, gas_left);
    }
}

/// Per-opcode gas totals. Attribution is *exclusive*: a `CALL`/`CREATE`
/// instruction is charged only its own cost (base fees, memory, the
/// `CREATE` code deposit); the child frame's instructions are tallied at
/// their own depth. The per-opcode totals therefore sum exactly to the
/// transaction's execution gas.
#[derive(Default)]
pub struct GasProfiler {
    /// op byte → (executions, attributed gas).
    totals: HashMap<u8, (u64, u64)>,
    /// Pending (op, gas_before) per call depth.
    pending: Vec<Option<(u8, u64)>>,
    /// Gas consumed by child frames under the current pending op, per
    /// depth of the *parent*.
    child_gas: Vec<u64>,
    /// Gas at the first step of the frame currently running at a depth.
    frame_start: Vec<Option<u64>>,
}

impl GasProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total gas attributed across all opcodes.
    pub fn total_gas(&self) -> u64 {
        self.totals.values().map(|(_, g)| g).sum()
    }

    /// Gas attributed to one opcode.
    pub fn gas_of(&self, op: Op) -> u64 {
        self.totals.get(&(op as u8)).map_or(0, |(_, g)| *g)
    }

    /// Execution count of one opcode.
    pub fn count_of(&self, op: Op) -> u64 {
        self.totals.get(&(op as u8)).map_or(0, |(c, _)| *c)
    }

    /// `(mnemonic, count, gas)` rows sorted by gas, descending.
    pub fn rows(&self) -> Vec<(String, u64, u64)> {
        let mut rows: Vec<(String, u64, u64)> = self
            .totals
            .iter()
            .map(|(&b, &(count, gas))| {
                let name = Op::from_byte(b).map_or_else(|| format!("0x{b:02x}"), |o| o.mnemonic());
                (name, count, gas)
            })
            .collect();
        rows.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)));
        rows
    }

    fn ensure_depth(&mut self, depth: usize) {
        if self.pending.len() < depth {
            self.pending.resize(depth, None);
            self.child_gas.resize(depth, 0);
            self.frame_start.resize(depth, None);
        }
    }

    fn settle(&mut self, depth: usize, gas_now: u64) {
        if let Some(slot) = self.pending.get_mut(depth - 1) {
            if let Some((op, gas_before)) = slot.take() {
                // Subtract what child frames consumed under this op so
                // the attribution is exclusive.
                let child = std::mem::take(&mut self.child_gas[depth - 1]);
                let entry = self.totals.entry(op).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += gas_before.saturating_sub(gas_now).saturating_sub(child);
            }
        }
    }
}

impl Inspector for GasProfiler {
    fn step(&mut self, depth: usize, _pc: usize, op: u8, gas_before: u64) {
        self.ensure_depth(depth);
        if self.frame_start[depth - 1].is_none() {
            self.frame_start[depth - 1] = Some(gas_before);
        }
        // The previous instruction at this depth ran to completion
        // (child frames included); attribute its exclusive cost now.
        self.settle(depth, gas_before);
        self.pending[depth - 1] = Some((op, gas_before));
    }

    fn exit_frame(&mut self, depth: usize, gas_left: u64) {
        self.ensure_depth(depth);
        self.settle(depth, gas_left);
        // Report this frame's total consumption to the parent's pending
        // op, which will deduct it.
        let start = self.frame_start[depth - 1].take().unwrap_or(gas_left);
        if depth >= 2 {
            self.child_gas[depth - 2] += start.saturating_sub(gas_left);
        }
        self.pending.truncate(depth - 1);
        self.child_gas.truncate(depth.max(1) - 1);
        self.frame_start.truncate(depth.max(1) - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CallParams, Evm};
    use crate::host::{Env, MockHost};
    use sc_primitives::{ether, Address, U256};

    fn profile(code: Vec<u8>) -> GasProfiler {
        let mut host = MockHost::new();
        host.install(Address([0xcc; 20]), code);
        host.fund(Address([1; 20]), ether(1));
        let mut profiler = GasProfiler::new();
        let out = Evm::with_inspector(&mut host, Env::default(), &mut profiler).call(
            CallParams::transact(
                Address([1; 20]),
                Address([0xcc; 20]),
                U256::ZERO,
                vec![],
                1_000_000,
            ),
        );
        assert!(out.success, "{:?}", out.error);
        profiler
    }

    #[test]
    fn attributes_simple_sequence_exactly() {
        // PUSH1 1, PUSH1 2, ADD, POP, STOP
        let p = profile(vec![0x60, 0x01, 0x60, 0x02, 0x01, 0x50, 0x00]);
        assert_eq!(p.gas_of(Op::Push1), 6);
        assert_eq!(p.count_of(Op::Push1), 2);
        assert_eq!(p.gas_of(Op::Add), 3);
        assert_eq!(p.gas_of(Op::Pop), 2);
        assert_eq!(p.gas_of(Op::Stop), 0);
        assert_eq!(p.total_gas(), 11);
    }

    #[test]
    fn sstore_dominates_where_expected() {
        // PUSH1 7 PUSH1 0 SSTORE STOP
        let p = profile(vec![0x60, 0x07, 0x60, 0x00, 0x55, 0x00]);
        assert_eq!(p.gas_of(Op::SStore), 20_000);
        assert_eq!(p.total_gas(), 20_006);
        let rows = p.rows();
        assert_eq!(rows[0].0, "SSTORE", "sorted by gas");
    }

    #[test]
    fn call_attribution_is_exclusive_and_totals_are_exact() {
        // Callee burns gas: PUSH1 7 PUSH1 0 SSTORE STOP (20,006).
        let callee = vec![0x60, 0x07, 0x60, 0x00, 0x55, 0x00];
        // Caller CALLs the callee then stops.
        let mut caller = vec![
            0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, // out/in/value
            0x73,
        ];
        caller.extend_from_slice(&[0xbb; 20]);
        caller.extend_from_slice(&[0x5a, 0xf1, 0x50, 0x00]); // GAS CALL POP STOP

        let mut host = MockHost::new();
        host.install(Address([0xbb; 20]), callee);
        host.install(Address([0xcc; 20]), caller);
        host.fund(Address([1; 20]), ether(1));
        let mut profiler = GasProfiler::new();
        let out = Evm::with_inspector(&mut host, Env::default(), &mut profiler).call(
            CallParams::transact(
                Address([1; 20]),
                Address([0xcc; 20]),
                U256::ZERO,
                vec![],
                1_000_000,
            ),
        );
        assert!(out.success);
        // CALL is charged only its base fee; the callee's work is tallied
        // at the callee's opcodes.
        assert_eq!(profiler.gas_of(Op::Call), 700);
        assert_eq!(profiler.gas_of(Op::SStore), 20_000);
        // Exclusive attribution sums to the true consumption.
        assert_eq!(profiler.total_gas(), 1_000_000 - out.gas_left);
    }

    #[test]
    fn total_matches_frame_consumption() {
        // A loop: counter from 100 down to 0.
        let mut a = crate::Asm::new();
        a.push_u64(100);
        a.label("loop");
        a.push_u64(1)
            .op(Op::Dup2)
            .op(Op::Sub)
            .op(Op::Swap1)
            .op(Op::Pop);
        a.op(Op::Dup1);
        a.jumpi("loop");
        a.op(Op::Stop);
        let code = a.assemble().unwrap();
        let mut host = MockHost::new();
        host.install(Address([0xcc; 20]), code);
        host.fund(Address([1; 20]), ether(1));
        let mut profiler = GasProfiler::new();
        let out = Evm::with_inspector(&mut host, Env::default(), &mut profiler).call(
            CallParams::transact(
                Address([1; 20]),
                Address([0xcc; 20]),
                U256::ZERO,
                vec![],
                1_000_000,
            ),
        );
        assert!(out.success);
        assert_eq!(
            profiler.total_gas(),
            1_000_000 - out.gas_left,
            "profiler totals must equal actual frame consumption"
        );
    }

    #[test]
    fn no_inspector_means_no_overhead_difference_in_results() {
        let code = vec![0x60, 0x07, 0x60, 0x00, 0x55, 0x00];
        let mut host = MockHost::new();
        host.install(Address([0xcc; 20]), code.clone());
        host.fund(Address([1; 20]), ether(1));
        let plain = Evm::new(&mut host, Env::default()).call(CallParams::transact(
            Address([1; 20]),
            Address([0xcc; 20]),
            U256::ZERO,
            vec![],
            1_000_000,
        ));
        let p = profile(code);
        assert_eq!(1_000_000 - plain.gas_left, p.total_gas());
    }
}
