//! Per-thread control-flow graphs over the `tvm` ISA.
//!
//! A thread's CFG is the set of pcs reachable from its entry, with edges
//! induced by `jmp`/branch/`call`/`ret` and straight-line fallthrough.
//! Calls are handled *context-insensitively*: `ret` gets an edge to the
//! return site of **every** reachable `call` in the thread. That merges
//! calling contexts (a sound over-approximation — the machine's real call
//! stack always returns to one of those sites) and keeps the graph finite
//! without function-boundary information, which the ISA does not have.

use std::collections::BTreeSet;

use tvm::isa::Instr;
use tvm::program::Program;

/// Whether the instruction at `pc` logs a sequencer (paper §3.2); pcs past
/// the program text do not.
pub(crate) fn is_sequencer(program: &Program, pc: usize) -> bool {
    program.instr(pc).is_some_and(Instr::is_sequencer_point)
}

/// The control-flow graph of one thread.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// The thread's entry pc.
    pub entry: usize,
    /// Every pc reachable from the entry.
    pub reachable: BTreeSet<usize>,
    /// Return sites: `call_pc + 1` for every reachable `call`.
    pub ret_targets: BTreeSet<usize>,
    len: usize,
}

impl Cfg {
    /// Builds the CFG of the thread entering at `entry`.
    #[must_use]
    pub fn build(program: &Program, entry: usize) -> Self {
        let len = program.len();
        let mut cfg = Cfg { entry, reachable: BTreeSet::new(), ret_targets: BTreeSet::new(), len };
        if entry >= len {
            return cfg;
        }
        let mut rets: BTreeSet<usize> = BTreeSet::new();
        let mut work = vec![entry];
        while let Some(pc) = work.pop() {
            if !cfg.reachable.insert(pc) {
                continue;
            }
            if matches!(program.instr(pc), Some(Instr::Ret)) {
                rets.insert(pc);
            }
            if let Some(Instr::Call { .. }) = program.instr(pc) {
                // A new return site makes every known `ret` grow an edge.
                if cfg.ret_targets.insert(pc + 1) {
                    for &r in &rets {
                        cfg.reachable.remove(&r);
                        work.push(r);
                    }
                }
            }
            work.extend(cfg.successors(program, pc));
        }
        cfg
    }

    /// Successor pcs of `pc` (already filtered to in-range targets; a pc one
    /// past the end of the program terminates the thread).
    #[must_use]
    pub fn successors(&self, program: &Program, pc: usize) -> Vec<usize> {
        let Some(instr) = program.instr(pc) else { return Vec::new() };
        let succs = match *instr {
            Instr::Jump { target } => vec![target],
            Instr::Branch { target, .. } => vec![target, pc + 1],
            Instr::Call { target } => vec![target],
            Instr::Ret => self.ret_targets.iter().copied().collect(),
            Instr::Halt => Vec::new(),
            _ => vec![pc + 1],
        };
        succs.into_iter().filter(|&s| s < self.len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::isa::{Cond, Reg};
    use tvm::ProgramBuilder;

    #[test]
    fn straight_line_reaches_everything() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        b.movi(Reg::R1, 1).movi(Reg::R2, 2).halt();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.reachable, (0..3).collect());
    }

    #[test]
    fn ret_returns_to_every_call_site() {
        // Two call sites of one function; the second call is only reachable
        // *through* the first ret, so the ret must be revisited when the
        // second return site appears.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let f = b.fresh_label("f");
        b.call(f).call(f).halt();
        b.label(f).movi(Reg::R1, 1).ret();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.ret_targets, [1, 2].into_iter().collect());
        // call, call, halt, movi, ret: all five reachable.
        assert_eq!(cfg.reachable, (0..5).collect());
        let ret_pc = 4;
        assert_eq!(cfg.successors(&p, ret_pc), vec![1, 2]);
    }

    #[test]
    fn branch_to_self_terminates() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let top = b.fresh_label("top");
        b.label(top).branch(Cond::Eq, Reg::R0, Reg::R15, top).halt();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.reachable, (0..2).collect());
        assert_eq!(cfg.successors(&p, 0), vec![0, 1]);
    }

    #[test]
    fn code_after_halt_is_unreachable() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        b.halt().movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.reachable, [0].into_iter().collect());
    }

    #[test]
    fn ret_without_call_has_no_successors() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        b.ret();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.reachable, [0].into_iter().collect());
        assert!(cfg.successors(&p, 0).is_empty());
    }

    #[test]
    fn branch_target_past_end_is_termination() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let end = b.fresh_label("end");
        b.branch(Cond::Eq, Reg::R0, Reg::R15, end).movi(Reg::R1, 1).label(end);
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        // The taken edge leaves the program; only the fallthrough is a node.
        assert_eq!(cfg.successors(&p, 0), vec![1]);
    }
}
