//! The interpreter: single-instruction stepping with full observability.
//!
//! [`step`] is the workspace's one instruction body. It executes one
//! [`Instr`] of the program over a thread's [`ThreadSnapshot`], with the
//! memory values and system-call results a [`Source`] supplies. The machine
//! runs it over its own memory and output stream ([`Machine::step_into`],
//! [`Machine::step_native`]); crate `idna-replay` runs it over a thread's
//! log (the replayer), a replayed region read back (the virtual processor's
//! oracle phase, time travel) and the virtual processor's memory (its live
//! phases).
//!
//! Every instruction the machine executes produces a [`StepInfo`]
//! describing its memory accesses, sequencer assignment, system-call
//! result, fault, and output. Recording (crate `idna-replay`) and the
//! online race-detector baselines hang off the [`Observer`] trait. The seed
//! interpreter, [`Machine::step_into_reference`], is a second body over
//! [`Instr`] written against the machine directly; it stays as the
//! differential-testing oracle for [`step`].

use std::convert::Infallible;

use crate::isa::{Instr, Reg, SysCall};
use crate::machine::{Fault, Machine, OutputRecord, ThreadSnapshot, ThreadStatus, MAX_CALL_DEPTH};
use crate::memory::Memory;
use crate::predecode::DecodedProgram;

/// Kind of a memory access.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
}

impl AccessKind {
    /// Whether this access is a write.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One dynamic memory access.
///
/// For a read, `value` is the value observed; for a write, the value stored.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemAccessEvent {
    pub addr: u64,
    pub value: u64,
    pub kind: AccessKind,
}

/// Result of a system call, as observed by a recorder.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SyscallEvent {
    pub call: SysCall,
    /// The value returned in `r0`.
    pub ret: u64,
}

/// Everything that happened while executing one instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct StepInfo {
    /// Thread that executed.
    pub tid: usize,
    /// Machine-wide instruction count before this step (a global timestamp).
    pub global_step: u64,
    /// Thread-local instruction count before this step.
    pub thread_step: u64,
    /// Static program counter of the executed instruction.
    pub pc: usize,
    /// The instruction itself.
    pub instr: Instr,
    /// Memory accesses performed, in execution order.
    pub accesses: Vec<MemAccessEvent>,
    /// Sequencer timestamp, when the instruction is a sequencer point.
    pub sequencer: Option<u64>,
    /// System-call result, when the instruction is a system call.
    pub syscall: Option<SyscallEvent>,
    /// Value appended to the output stream, for `sys.print`.
    pub output: Option<u64>,
    /// Fault raised by this instruction, if any. The thread is terminated.
    pub fault: Option<Fault>,
    /// Whether this instruction halted the thread.
    pub halted: bool,
    /// Sequencer timestamp logged at thread termination (halt or fault).
    pub end_sequencer: Option<u64>,
    /// Whether the instruction was a `sys.yield` scheduling hint.
    pub yielded: bool,
}

/// Observer of machine execution, called after every instruction.
///
/// The machine reference passed to [`Observer::on_step`] reflects the state
/// *after* the instruction executed.
pub trait Observer {
    /// Called once before execution starts.
    fn on_start(&mut self, _machine: &Machine) {}
    /// Called after every executed instruction.
    fn on_step(&mut self, _machine: &Machine, _info: &StepInfo) {}
}

/// The do-nothing observer. `()` can be used wherever an [`Observer`] is
/// required but no observation is wanted.
impl Observer for () {}

/// Destination of the machine's per-step side observations (memory
/// accesses, syscall results, output, yields). The machine's [`Source`] is
/// generic over this, so the unobserved native path
/// ([`Machine::step_native`]) monomorphizes the event plumbing away while
/// running the same body, [`step`], as the recorded path.
trait StepSink {
    fn access(&mut self, ev: MemAccessEvent);
    fn syscall(&mut self, ev: SyscallEvent);
    fn output(&mut self, value: u64);
    fn yielded(&mut self);
}

impl StepSink for StepInfo {
    #[inline]
    fn access(&mut self, ev: MemAccessEvent) {
        self.accesses.push(ev);
    }
    #[inline]
    fn syscall(&mut self, ev: SyscallEvent) {
        self.syscall = Some(ev);
    }
    #[inline]
    fn output(&mut self, value: u64) {
        self.output = Some(value);
    }
    #[inline]
    fn yielded(&mut self) {
        self.yielded = true;
    }
}

/// Sink for the native fast path: drops everything except the yield hint,
/// which the scheduler needs for preemption.
struct NativeSink {
    yielded: bool,
}

impl StepSink for NativeSink {
    #[inline]
    fn access(&mut self, _ev: MemAccessEvent) {}
    #[inline]
    fn syscall(&mut self, _ev: SyscallEvent) {}
    #[inline]
    fn output(&mut self, _value: u64) {}
    #[inline]
    fn yielded(&mut self) {
        self.yielded = true;
    }
}

/// What a scheduler reads of one step: just enough to maintain its
/// runnable set and preempt on yields. [`Machine::step_native`] returns it,
/// and the scheduler reads the same off an observed step's [`StepInfo`].
#[derive(Copy, Clone, Debug)]
pub struct NativeOutcome {
    /// The instruction was a `sys.yield` scheduling hint.
    pub yielded: bool,
    /// The thread terminated (halted or faulted) on this step.
    pub ended: bool,
    /// Fault raised by this instruction, if any.
    pub fault: Option<Fault>,
}

impl StepInfo {
    /// A placeholder value for use with [`Machine::step_into`], which
    /// overwrites every field. Reusing one `StepInfo` across steps avoids
    /// re-allocating the access buffer on every instruction.
    #[must_use]
    pub fn placeholder() -> Self {
        StepInfo {
            tid: 0,
            global_step: 0,
            thread_step: 0,
            pc: 0,
            instr: Instr::Halt,
            accesses: Vec::new(),
            sequencer: None,
            syscall: None,
            output: None,
            fault: None,
            halted: false,
            end_sequencer: None,
            yielded: false,
        }
    }

    /// What a scheduler reads of this step.
    pub(crate) fn outcome(&self) -> NativeOutcome {
        NativeOutcome {
            yielded: self.yielded,
            ended: self.halted || self.fault.is_some(),
            fault: self.fault,
        }
    }
}

impl Machine {
    /// Executes one instruction on thread `tid` and reports what happened.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not [`ThreadStatus::Ready`].
    pub fn step(&mut self, tid: usize) -> StepInfo {
        let mut info = StepInfo::placeholder();
        self.step_into(tid, &mut info);
        info
    }

    /// Like [`Machine::step`], but reuses `info`'s buffers instead of
    /// allocating. Every field of `info` is overwritten.
    ///
    /// Runs the one instruction body, [`step`]; the seed interpreter is
    /// retained as [`Machine::step_into_reference`] and the two are pinned
    /// step-for-step identical by the `predecode_equiv` suite.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not [`ThreadStatus::Ready`].
    pub fn step_into(&mut self, tid: usize, info: &mut StepInfo) {
        let pc = self.begin_step(tid, info);
        info.instr = self.program().instr(pc).copied().unwrap_or(Instr::Halt);

        // Sequencers are logged when the synchronization instruction or
        // system call executes (paper §3.2); we assign the timestamp before
        // the instruction's effects so the instruction begins a new
        // sequencing region. The program's sequencer flags answer the
        // per-step predicate with one byte load.
        if self.decoded().is_sequencer_point(pc) {
            info.sequencer = Some(self.take_seq());
        }

        let stepped = self.step_body(tid, info.thread_step, info);
        self.finish_step(tid, stepped, info);
    }

    /// The seed interpreter: fetches [`Instr`] from the [`Program`] and
    /// dispatches over it. Kept as the differential-testing oracle for
    /// [`step`]; production callers go through [`Machine::step_into`].
    ///
    /// [`Program`]: crate::program::Program
    ///
    /// # Panics
    ///
    /// Panics if the thread is not [`ThreadStatus::Ready`].
    pub fn step_into_reference(&mut self, tid: usize, info: &mut StepInfo) {
        let pc = self.begin_step(tid, info);

        let Some(&instr) = self.program().instr(pc) else {
            info.instr = Instr::Halt;
            self.finish_step(tid, Stepped::Faulted(Fault::PcOutOfRange { pc }), info);
            return;
        };
        info.instr = instr;
        info.sequencer = instr.is_sequencer_point().then(|| self.take_seq());

        let stepped = match self.execute(tid, pc, &instr, info) {
            Ok(Some(next)) => {
                self.thread_mut(tid).set_pc(next);
                Stepped::Next
            }
            Ok(None) => Stepped::Halted,
            Err(fault) => Stepped::Faulted(fault),
        };
        self.finish_step(tid, stepped, info);
    }

    /// Executes one instruction on thread `tid` without materializing a
    /// [`StepInfo`]: the native fast path for unobserved runs. Machine
    /// state evolves exactly as under [`Machine::step_into`] (same counters,
    /// sequencer timestamps, memory effects, and output stream); only the
    /// per-step event report is elided, which is what makes this the
    /// baseline for the pipeline's overhead ratios.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not [`ThreadStatus::Ready`].
    pub fn step_native(&mut self, tid: usize) -> NativeOutcome {
        assert!(self.thread(tid).status().is_ready(), "stepping a thread that is not ready: {tid}");
        let pc = self.thread(tid).pc();
        self.bump_global_step();
        let instr_index = self.thread_mut(tid).bump_steps();
        if self.decoded().is_sequencer_point(pc) {
            self.take_seq();
        }

        let mut sink = NativeSink { yielded: false };
        match self.step_body(tid, instr_index, &mut sink) {
            Stepped::Next => NativeOutcome { yielded: sink.yielded, ended: false, fault: None },
            Stepped::Halted => {
                self.terminate(tid, ThreadStatus::Halted);
                NativeOutcome { yielded: false, ended: true, fault: None }
            }
            Stepped::Faulted(fault) => {
                self.terminate(tid, ThreadStatus::Faulted(fault));
                NativeOutcome { yielded: false, ended: true, fault: Some(fault) }
            }
        }
    }

    /// Runs [`step`] on thread `tid` over the machine's memory and output
    /// stream, reporting to `sink`.
    #[inline]
    fn step_body<K: StepSink>(&mut self, tid: usize, instr_index: u64, sink: &mut K) -> Stepped {
        let (decoded, snap, mem, output) = self.step_parts(tid);
        let mut src = MachineSource { mem, output, tid, sink };
        let Ok(stepped) = step(decoded, snap, instr_index, &mut src);
        stepped
    }

    /// Shared step prologue: bumps counters and resets `info`. Returns the
    /// pc about to execute.
    fn begin_step(&mut self, tid: usize, info: &mut StepInfo) -> usize {
        assert!(self.thread(tid).status().is_ready(), "stepping a thread that is not ready: {tid}");
        let pc = self.thread(tid).pc();
        info.tid = tid;
        info.global_step = self.bump_global_step();
        info.thread_step = self.thread_mut(tid).bump_steps();
        info.pc = pc;
        info.accesses.clear();
        info.sequencer = None;
        info.syscall = None;
        info.output = None;
        info.fault = None;
        info.halted = false;
        info.end_sequencer = None;
        info.yielded = false;
        pc
    }

    /// Shared step epilogue: terminates the thread when it halted or
    /// faulted.
    fn finish_step(&mut self, tid: usize, stepped: Stepped, info: &mut StepInfo) {
        match stepped {
            Stepped::Next => {}
            Stepped::Halted => {
                info.halted = true;
                info.end_sequencer = Some(self.terminate(tid, ThreadStatus::Halted));
            }
            Stepped::Faulted(fault) => {
                info.fault = Some(fault);
                info.end_sequencer = Some(self.terminate(tid, ThreadStatus::Faulted(fault)));
            }
        }
    }

    fn terminate(&mut self, tid: usize, status: ThreadStatus) -> u64 {
        let ts = self.take_seq();
        let t = self.thread_mut(tid);
        t.set_status(status);
        t.set_end_seq(ts);
        ts
    }

    /// The reference instruction body over [`Instr`]. Returns the next pc,
    /// or `None` to halt.
    fn execute(
        &mut self,
        tid: usize,
        pc: usize,
        instr: &Instr,
        info: &mut StepInfo,
    ) -> Result<Option<usize>, Fault> {
        let next = pc + 1;
        match *instr {
            Instr::MovImm { dst, imm } => {
                self.thread_mut(tid).set_reg(dst, imm);
                Ok(Some(next))
            }
            Instr::Mov { dst, src } => {
                let v = self.thread(tid).reg(src);
                self.thread_mut(tid).set_reg(dst, v);
                Ok(Some(next))
            }
            Instr::Bin { op, dst, lhs, rhs } => {
                let l = self.thread(tid).reg(lhs);
                let r = self.thread(tid).reg(rhs);
                let v = op.apply(l, r).ok_or(Fault::DivideByZero)?;
                self.thread_mut(tid).set_reg(dst, v);
                Ok(Some(next))
            }
            Instr::BinImm { op, dst, lhs, imm } => {
                let l = self.thread(tid).reg(lhs);
                let v = op.apply(l, imm).ok_or(Fault::DivideByZero)?;
                self.thread_mut(tid).set_reg(dst, v);
                Ok(Some(next))
            }
            Instr::Load { dst, base, offset } => {
                let addr = self.thread(tid).reg(base).wrapping_add(offset as u64);
                let v = self.memory().read(addr)?;
                info.access(MemAccessEvent { addr, value: v, kind: AccessKind::Read });
                self.thread_mut(tid).set_reg(dst, v);
                Ok(Some(next))
            }
            Instr::Store { src, base, offset } => {
                let addr = self.thread(tid).reg(base).wrapping_add(offset as u64);
                let v = self.thread(tid).reg(src);
                self.memory_mut().write(addr, v)?;
                info.access(MemAccessEvent { addr, value: v, kind: AccessKind::Write });
                Ok(Some(next))
            }
            Instr::AtomicRmw { op, dst, base, offset, src } => {
                let addr = self.thread(tid).reg(base).wrapping_add(offset as u64);
                let old = self.memory().read(addr)?;
                info.access(MemAccessEvent { addr, value: old, kind: AccessKind::Read });
                let operand = self.thread(tid).reg(src);
                let new = op.apply(old, operand);
                self.memory_mut().write(addr, new)?;
                info.access(MemAccessEvent { addr, value: new, kind: AccessKind::Write });
                self.thread_mut(tid).set_reg(dst, old);
                Ok(Some(next))
            }
            Instr::AtomicCas { dst, base, offset, expected, new } => {
                let addr = self.thread(tid).reg(base).wrapping_add(offset as u64);
                let old = self.memory().read(addr)?;
                info.access(MemAccessEvent { addr, value: old, kind: AccessKind::Read });
                let exp = self.thread(tid).reg(expected);
                let success = old == exp;
                if success {
                    let nv = self.thread(tid).reg(new);
                    self.memory_mut().write(addr, nv)?;
                    info.access(MemAccessEvent { addr, value: nv, kind: AccessKind::Write });
                }
                self.thread_mut(tid).set_reg(dst, u64::from(success));
                Ok(Some(next))
            }
            Instr::Fence => Ok(Some(next)),
            Instr::Jump { target } => Ok(Some(target)),
            Instr::Branch { cond, lhs, rhs, target } => {
                let l = self.thread(tid).reg(lhs);
                let r = self.thread(tid).reg(rhs);
                Ok(Some(if cond.eval(l, r) { target } else { next }))
            }
            Instr::Call { target } => {
                let t = self.thread_mut(tid);
                if t.call_stack().len() >= MAX_CALL_DEPTH {
                    return Err(Fault::CallStackOverflow);
                }
                t.call_stack_mut().push(next);
                Ok(Some(target))
            }
            Instr::Ret => {
                let t = self.thread_mut(tid);
                let ret = t.call_stack_mut().pop().ok_or(Fault::CallStackUnderflow)?;
                Ok(Some(ret))
            }
            Instr::Syscall { call } => {
                let arg = self.thread(tid).reg(Reg::R0);
                let (_, _, mem, output) = self.step_parts(tid);
                let ret = do_syscall(mem, output, tid, call, arg, info)?;
                self.thread_mut(tid).set_reg(Reg::R0, ret);
                info.syscall(SyscallEvent { call, ret });
                Ok(Some(next))
            }
            Instr::Halt => Ok(None),
        }
    }
}

/// Where one step's memory values and system-call results come from, and
/// where its effects go: the machine's memory and output stream while a
/// program runs or is recorded, and in crate `idna-replay` a thread's log,
/// a replayed region read back, or the virtual processor's memory.
pub trait Source {
    /// Why the source cannot go on; sources that cannot fail use
    /// [`Infallible`].
    type Error;

    /// The value the load at `pc` reads from `addr`.
    fn load(&mut self, instr_index: u64, pc: usize, addr: u64) -> Trapped<u64, Self::Error>;

    /// The store at `pc` writes `value` to `addr`.
    fn store(
        &mut self,
        instr_index: u64,
        pc: usize,
        addr: u64,
        value: u64,
    ) -> Trapped<(), Self::Error>;

    /// An atomic read-modify-write of `addr`: returns the value read, after
    /// storing `new(old)` when that is `Some`.
    fn update(
        &mut self,
        instr_index: u64,
        pc: usize,
        addr: u64,
        new: impl FnOnce(u64) -> Option<u64>,
    ) -> Trapped<u64, Self::Error> {
        let old = self.load(instr_index, pc, addr)?;
        if let Some(value) = new(old) {
            self.store(instr_index, pc, addr, value)?;
        }
        Ok(old)
    }

    /// The result of system call `call`, made with `arg` in `r0`.
    fn syscall(&mut self, instr_index: u64, call: SysCall, arg: u64) -> Trapped<u64, Self::Error>;
}

/// Why a [`Source`] supplied no value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Trap<E> {
    /// The instruction faults, so the snapshot is left as it was.
    Fault(Fault),
    /// The source cannot go on.
    Fail(E),
}

/// A [`Source`]'s value, or the trap that takes its place.
pub type Trapped<T, E> = Result<T, Trap<E>>;

/// How one step ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Stepped {
    /// The instruction completed; the snapshot is at the next one.
    Next,
    /// The thread halted.
    Halted,
    /// The instruction faulted, so the snapshot is left as it was.
    Faulted(Fault),
}

/// Executes the instruction at `snap.pc`, the thread's dynamic instruction
/// `instr_index`, with the values `src` supplies: the one instruction body
/// the machine, the replayer, the virtual processor's phases and time
/// travel share. A pc past the program text faults
/// [`Fault::PcOutOfRange`].
///
/// # Errors
///
/// Propagates the source's error when it cannot go on.
#[inline]
pub fn step<S: Source>(
    decoded: &DecodedProgram,
    snap: &mut ThreadSnapshot,
    instr_index: u64,
    src: &mut S,
) -> Result<Stepped, S::Error> {
    match execute(decoded, snap, instr_index, src) {
        Ok(stepped) => Ok(stepped),
        Err(Trap::Fault(fault)) => Ok(Stepped::Faulted(fault)),
        Err(Trap::Fail(error)) => Err(error),
    }
}

/// [`step`]'s instruction body; the instruction's own faults trap like the
/// source's.
#[inline]
fn execute<S: Source>(
    decoded: &DecodedProgram,
    snap: &mut ThreadSnapshot,
    instr_index: u64,
    src: &mut S,
) -> Trapped<Stepped, S::Error> {
    let pc = snap.pc;
    let Some(&instr) = decoded.instr(pc) else {
        return Err(Trap::Fault(Fault::PcOutOfRange { pc }));
    };
    let regs = &mut snap.regs;
    let at = |base: Reg, offset: i64| regs[base.index()].wrapping_add(offset as u64);
    let divide_by_zero = Trap::Fault(Fault::DivideByZero);
    let mut next = pc + 1;
    match instr {
        Instr::MovImm { dst, imm } => regs[dst.index()] = imm,
        Instr::Mov { dst, src } => regs[dst.index()] = regs[src.index()],
        Instr::Bin { op, dst, lhs, rhs } => {
            regs[dst.index()] =
                op.apply(regs[lhs.index()], regs[rhs.index()]).ok_or(divide_by_zero)?;
        }
        Instr::BinImm { op, dst, lhs, imm } => {
            regs[dst.index()] = op.apply(regs[lhs.index()], imm).ok_or(divide_by_zero)?;
        }
        Instr::Load { dst, base, offset } => {
            regs[dst.index()] = src.load(instr_index, pc, at(base, offset))?;
        }
        Instr::Store { src: value, base, offset } => {
            src.store(instr_index, pc, at(base, offset), regs[value.index()])?;
        }
        Instr::AtomicRmw { op, dst, base, offset, src: operand } => {
            let operand = regs[operand.index()];
            let old =
                src.update(instr_index, pc, at(base, offset), |old| Some(op.apply(old, operand)))?;
            regs[dst.index()] = old;
        }
        Instr::AtomicCas { dst, base, offset, expected, new } => {
            let (expected, new) = (regs[expected.index()], regs[new.index()]);
            let old = src.update(instr_index, pc, at(base, offset), |old| {
                (old == expected).then_some(new)
            })?;
            regs[dst.index()] = u64::from(old == expected);
        }
        Instr::Fence => {}
        Instr::Jump { target } => next = target,
        Instr::Branch { cond, lhs, rhs, target } => {
            if cond.eval(regs[lhs.index()], regs[rhs.index()]) {
                next = target;
            }
        }
        Instr::Call { target } => {
            if snap.call_stack.len() >= MAX_CALL_DEPTH {
                return Err(Trap::Fault(Fault::CallStackOverflow));
            }
            snap.call_stack.push(next);
            next = target;
        }
        Instr::Ret => next = snap.call_stack.pop().ok_or(Trap::Fault(Fault::CallStackUnderflow))?,
        Instr::Syscall { call } => {
            let r0 = Reg::R0.index();
            regs[r0] = src.syscall(instr_index, call, regs[r0])?;
        }
        Instr::Halt => return Ok(Stepped::Halted),
    }
    snap.pc = next;
    Ok(Stepped::Next)
}

/// The machine's [`Source`]: its memory and output stream, each access,
/// system call, output and yield reported to a [`StepSink`].
struct MachineSource<'m, K> {
    mem: &'m mut Memory,
    output: &'m mut Vec<OutputRecord>,
    tid: usize,
    sink: &'m mut K,
}

impl<K: StepSink> Source for MachineSource<'_, K> {
    type Error = Infallible;

    #[inline]
    fn load(&mut self, _: u64, _: usize, addr: u64) -> Trapped<u64, Infallible> {
        let value = self.mem.read(addr).map_err(Trap::Fault)?;
        self.sink.access(MemAccessEvent { addr, value, kind: AccessKind::Read });
        Ok(value)
    }

    #[inline]
    fn store(&mut self, _: u64, _: usize, addr: u64, value: u64) -> Trapped<(), Infallible> {
        self.mem.write(addr, value).map_err(Trap::Fault)?;
        self.sink.access(MemAccessEvent { addr, value, kind: AccessKind::Write });
        Ok(())
    }

    #[inline]
    fn syscall(&mut self, _: u64, call: SysCall, arg: u64) -> Trapped<u64, Infallible> {
        let ret = do_syscall(self.mem, self.output, self.tid, call, arg, self.sink)
            .map_err(Trap::Fault)?;
        self.sink.syscall(SyscallEvent { call, ret });
        Ok(ret)
    }
}

/// Runs system call `call` for thread `tid` with `arg` in `r0` and returns
/// its result.
fn do_syscall<K: StepSink>(
    mem: &mut Memory,
    output: &mut Vec<OutputRecord>,
    tid: usize,
    call: SysCall,
    arg: u64,
    sink: &mut K,
) -> Result<u64, Fault> {
    match call {
        SysCall::Alloc => mem.alloc(arg),
        SysCall::Free => mem.free(arg).map(|()| 0),
        SysCall::Print => {
            output.push(OutputRecord { tid, value: arg });
            sink.output(arg);
            Ok(arg)
        }
        SysCall::Tid => Ok(tid as u64),
        SysCall::Yield => {
            sink.yielded();
            Ok(0)
        }
        SysCall::Nop => Ok(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::{BinOp, Cond, RmwOp};
    use std::sync::Arc;

    fn run_single(b: ProgramBuilder) -> Machine {
        let mut m = Machine::new(Arc::new(b.build()));
        while !m.finished() {
            let runnable = m.runnable();
            m.step(runnable[0]);
        }
        m
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 6).movi(Reg::R2, 7).bin(BinOp::Mul, Reg::R0, Reg::R1, Reg::R2).halt();
        let m = run_single(b);
        assert_eq!(m.thread(0).reg(Reg::R0), 42);
        assert_eq!(m.thread(0).status(), ThreadStatus::Halted);
        assert!(m.thread(0).end_seq().is_some());
    }

    #[test]
    fn load_store_roundtrip_produces_events() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 0x20)
            .movi(Reg::R2, 5)
            .store(Reg::R2, Reg::R1, 0)
            .load(Reg::R3, Reg::R1, 0)
            .halt();
        let mut m = Machine::new(Arc::new(b.build()));
        m.step(0); // movi
        m.step(0); // movi
        let st = m.step(0);
        assert_eq!(
            st.accesses,
            vec![MemAccessEvent { addr: 0x20, value: 5, kind: AccessKind::Write }]
        );
        let ld = m.step(0);
        assert_eq!(
            ld.accesses,
            vec![MemAccessEvent { addr: 0x20, value: 5, kind: AccessKind::Read }]
        );
        assert_eq!(m.thread(0).reg(Reg::R3), 5);
    }

    #[test]
    fn atomic_rmw_emits_sequencer_and_both_accesses() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 0x30)
            .movi(Reg::R2, 3)
            .atomic_rmw(RmwOp::Add, Reg::R0, Reg::R1, 0, Reg::R2)
            .halt();
        let mut m = Machine::new(Arc::new(b.build()));
        m.step(0);
        m.step(0);
        let info = m.step(0);
        assert!(info.sequencer.is_some());
        assert_eq!(info.accesses.len(), 2);
        assert_eq!(info.accesses[0].kind, AccessKind::Read);
        assert_eq!(info.accesses[0].value, 0);
        assert_eq!(info.accesses[1].kind, AccessKind::Write);
        assert_eq!(info.accesses[1].value, 3);
        assert_eq!(m.thread(0).reg(Reg::R0), 0); // old value
        assert_eq!(m.memory().peek(0x30), 3);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 0x40)
            .movi(Reg::R2, 0) // expected
            .movi(Reg::R3, 9) // new
            .cas(Reg::R4, Reg::R1, 0, Reg::R2, Reg::R3)
            .cas(Reg::R5, Reg::R1, 0, Reg::R2, Reg::R3)
            .halt();
        let m = run_single(b);
        assert_eq!(m.thread(0).reg(Reg::R4), 1, "first CAS succeeds");
        assert_eq!(m.thread(0).reg(Reg::R5), 0, "second CAS fails, value changed");
        assert_eq!(m.memory().peek(0x40), 9);
    }

    #[test]
    fn branch_and_jump_control_flow() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        let done = b.fresh_label("done");
        b.movi(Reg::R0, 1)
            .movi(Reg::R1, 1)
            .branch(Cond::Eq, Reg::R0, Reg::R1, done)
            .movi(Reg::R2, 99) // skipped
            .label(done)
            .movi(Reg::R3, 7)
            .halt();
        let m = run_single(b);
        assert_eq!(m.thread(0).reg(Reg::R2), 0);
        assert_eq!(m.thread(0).reg(Reg::R3), 7);
    }

    #[test]
    fn call_and_ret() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        let func = b.fresh_label("func");
        b.call(func).print(Reg::R0).halt();
        b.label(func).movi(Reg::R0, 123).ret();
        let m = run_single(b);
        assert_eq!(m.output(), &[OutputRecord { tid: 0, value: 123 }]);
    }

    #[test]
    fn ret_on_empty_stack_faults() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.ret();
        let m = run_single(b);
        assert_eq!(m.thread(0).status(), ThreadStatus::Faulted(Fault::CallStackUnderflow));
    }

    #[test]
    fn div_by_zero_faults() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 4).movi(Reg::R2, 0).bin(BinOp::Div, Reg::R0, Reg::R1, Reg::R2).halt();
        let m = run_single(b);
        assert_eq!(m.thread(0).status(), ThreadStatus::Faulted(Fault::DivideByZero));
    }

    #[test]
    fn syscalls_allocate_print_tid() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R0, 2)
            .syscall(SysCall::Alloc)
            .mov(Reg::R5, Reg::R0)
            .movi(Reg::R1, 11)
            .store(Reg::R1, Reg::R5, 0)
            .load(Reg::R0, Reg::R5, 0)
            .syscall(SysCall::Print)
            .mov(Reg::R0, Reg::R5)
            .syscall(SysCall::Free)
            .syscall(SysCall::Tid)
            .halt();
        let m = run_single(b);
        assert_eq!(m.output()[0].value, 11);
        assert_eq!(m.thread(0).reg(Reg::R0), 0); // tid 0
        assert_eq!(m.memory().live_allocations(), 0);
    }

    #[test]
    fn use_after_free_faults() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R0, 1)
            .syscall(SysCall::Alloc)
            .mov(Reg::R5, Reg::R0)
            .syscall(SysCall::Free)
            .load(Reg::R1, Reg::R5, 0)
            .halt();
        let m = run_single(b);
        assert!(matches!(m.thread(0).status(), ThreadStatus::Faulted(Fault::UseAfterFree { .. })));
    }

    #[test]
    fn pc_out_of_range_faults() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R0, 1); // no halt: falls off the end
        let m = run_single(b);
        assert!(matches!(m.thread(0).status(), ThreadStatus::Faulted(Fault::PcOutOfRange { .. })));
    }

    #[test]
    fn sequencer_timestamps_are_unique_and_monotonic() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.fence().fence().syscall(SysCall::Nop).halt();
        let mut m = Machine::new(Arc::new(b.build()));
        let a = m.step(0).sequencer.unwrap();
        let b2 = m.step(0).sequencer.unwrap();
        let c = m.step(0).sequencer.unwrap();
        assert!(a < b2 && b2 < c);
        let end = m.step(0).end_sequencer.unwrap();
        assert!(c < end);
    }
}
