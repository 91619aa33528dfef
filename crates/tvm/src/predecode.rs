//! The program as the hot interpreter loops read it: the [`Program`] plus
//! its sequencer-point flags.
//!
//! Every stage of the replay-analysis pipeline — native execution,
//! recording, replay, and dual-order classification — bottoms out in
//! [`crate::exec::step`], which dispatches over the program's own [`Instr`]
//! stream. An `Instr` is already compact (16 bytes: registers are `u8`
//! indices, jump/branch/call targets absolute instruction indices; the
//! `instr_is_compact` test pins it), so a second copy of the instruction
//! set would buy nothing. The one per-pc property the loops test on every
//! step is whether the instruction logs a sequencer (paper §3.2), and
//! [`DecodedProgram`] precomputes it into a parallel array, replacing a
//! `match` with one byte load.
//!
//! A `DecodedProgram` is built once per program and shared behind an [`Arc`]
//! by the interpreter, the scheduler, the recorder, the replayer, and the
//! classification virtual processor.

use std::sync::Arc;

use crate::isa::Instr;
use crate::program::Program;

/// A program with its sequencer-point flags; see the module docs.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tvm::predecode::DecodedProgram;
/// use tvm::{ProgramBuilder, isa::Reg};
///
/// let mut b = ProgramBuilder::new();
/// b.thread("main");
/// b.movi(Reg::R0, 1).fence().halt();
/// let decoded = Arc::new(DecodedProgram::new(Arc::new(b.build())));
/// assert_eq!(decoded.len(), 3);
/// assert!(decoded.is_sequencer_point(1));
/// assert!(!decoded.is_sequencer_point(2));
/// ```
#[derive(Debug)]
pub struct DecodedProgram {
    program: Arc<Program>,
    sequencer: Vec<bool>,
}

impl DecodedProgram {
    /// Computes `program`'s sequencer-point flags in one pass.
    #[must_use]
    pub fn new(program: Arc<Program>) -> Self {
        let sequencer = program.instrs().iter().map(Instr::is_sequencer_point).collect();
        DecodedProgram { program, sequencer }
    }

    /// The source program.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The instruction at `pc`, or `None` past the end.
    #[inline]
    #[must_use]
    pub fn instr(&self, pc: usize) -> Option<&Instr> {
        self.program.instrs().get(pc)
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sequencer.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sequencer.is_empty()
    }

    /// Whether the instruction at `pc` logs a sequencer. Out-of-range pcs
    /// are not sequencer points.
    #[inline]
    #[must_use]
    pub fn is_sequencer_point(&self, pc: usize) -> bool {
        self.sequencer.get(pc).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::{BinOp, Cond, Reg, RmwOp, SysCall};

    /// A program exercising every instruction variant.
    fn kitchen_sink() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        let func = b.fresh_label("func");
        let top = b.fresh_label("top");
        b.movi(Reg::R1, 7)
            .mov(Reg::R2, Reg::R1)
            .bin(BinOp::Add, Reg::R3, Reg::R1, Reg::R2)
            .bini(BinOp::Xor, Reg::R4, Reg::R3, 0xff)
            .store(Reg::R3, Reg::R15, 0x10)
            .load(Reg::R5, Reg::R15, 0x10)
            .atomic_rmw(RmwOp::Add, Reg::R6, Reg::R15, 0x10, Reg::R1)
            .cas(Reg::R7, Reg::R15, 0x10, Reg::R6, Reg::R1)
            .fence()
            .label(top)
            .branch(Cond::Ne, Reg::R0, Reg::R0, top)
            .call(func)
            .syscall(SysCall::Nop)
            .halt();
        b.label(func).ret();
        Arc::new(b.build())
    }

    #[test]
    fn decoded_roundtrips() {
        let program = kitchen_sink();
        let decoded = DecodedProgram::new(program.clone());
        assert_eq!(decoded.len(), program.len());
        for (pc, instr) in program.instrs().iter().enumerate() {
            assert_eq!(decoded.instr(pc), Some(instr), "pc {pc}");
        }
        assert!(decoded.instr(program.len()).is_none());
    }

    #[test]
    fn flags_match_instr_predicates() {
        let program = kitchen_sink();
        let decoded = DecodedProgram::new(program.clone());
        for (pc, instr) in program.instrs().iter().enumerate() {
            assert_eq!(decoded.is_sequencer_point(pc), instr.is_sequencer_point(), "pc {pc}");
        }
        assert!(!decoded.is_sequencer_point(program.len()), "out of range");
    }

    /// `step` dispatches over `Instr` directly; that is only as cheap as a
    /// dedicated dispatch record while an `Instr` stays this small.
    #[test]
    fn instr_is_compact() {
        assert_eq!(std::mem::size_of::<Instr>(), 16);
    }
}
