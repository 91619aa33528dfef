//! Machine state: threads, registers, faults, and the machine container.

use std::fmt;
use std::sync::Arc;

use crate::isa::{Reg, NUM_REGS};
use crate::memory::Memory;
use crate::predecode::DecodedProgram;
use crate::program::Program;

/// Maximum call-stack depth per thread.
pub const MAX_CALL_DEPTH: usize = 256;

/// A machine fault. Faults terminate the faulting thread (only), mirroring a
/// crashing access violation in the paper's setting.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Access to an address that is neither a global nor inside a live heap
    /// allocation.
    InvalidAccess { addr: u64 },
    /// Access to memory that has been freed.
    UseAfterFree { addr: u64 },
    /// `free` of an address that is not a live allocation base (including
    /// double frees).
    InvalidFree { addr: u64 },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Call-stack overflow (runaway recursion).
    CallStackOverflow,
    /// `ret` with an empty call stack.
    CallStackUnderflow,
    /// The program counter left the program text.
    PcOutOfRange { pc: usize },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::InvalidAccess { addr } => write!(f, "invalid access to {addr:#x}"),
            Fault::UseAfterFree { addr } => write!(f, "use after free at {addr:#x}"),
            Fault::InvalidFree { addr } => write!(f, "invalid free of {addr:#x}"),
            Fault::DivideByZero => write!(f, "divide by zero"),
            Fault::CallStackOverflow => write!(f, "call stack overflow"),
            Fault::CallStackUnderflow => write!(f, "return with empty call stack"),
            Fault::PcOutOfRange { pc } => write!(f, "program counter out of range: {pc}"),
        }
    }
}

impl std::error::Error for Fault {}

/// Life-cycle state of a thread.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Can execute instructions.
    Ready,
    /// Executed `halt`.
    Halted,
    /// Terminated by a fault.
    Faulted(Fault),
}

impl ThreadStatus {
    /// Whether the thread can still run.
    #[must_use]
    pub fn is_ready(self) -> bool {
        matches!(self, ThreadStatus::Ready)
    }
}

/// The architectural state of one thread at an instruction boundary:
/// registers, pc and call stack. [`crate::exec::step`] executes one
/// instruction over it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadSnapshot {
    pub regs: [u64; NUM_REGS],
    pub pc: usize,
    pub call_stack: Vec<usize>,
}

impl ThreadSnapshot {
    /// Reads one register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }
}

/// One thread of a [`Machine`]: its architectural state plus life cycle.
#[derive(Clone, Debug)]
pub struct ThreadState {
    tid: usize,
    snap: ThreadSnapshot,
    status: ThreadStatus,
    /// Number of instructions this thread has executed.
    steps: u64,
    /// Timestamp of the sequencer logged at thread start.
    start_seq: u64,
    /// Timestamp of the sequencer logged when the thread terminated.
    end_seq: Option<u64>,
}

impl ThreadState {
    pub(crate) fn new(tid: usize, entry: usize, args: &[u64], start_seq: u64) -> Self {
        let mut regs = [0u64; NUM_REGS];
        for (i, &a) in args.iter().take(NUM_REGS).enumerate() {
            regs[i] = a;
        }
        ThreadState {
            tid,
            snap: ThreadSnapshot { regs, pc: entry, call_stack: Vec::new() },
            status: ThreadStatus::Ready,
            steps: 0,
            start_seq,
            end_seq: None,
        }
    }

    /// The thread id.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The register file.
    #[must_use]
    pub fn regs(&self) -> &[u64; NUM_REGS] {
        &self.snap.regs
    }

    /// Reads one register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.snap.reg(r)
    }

    pub(crate) fn set_reg(&mut self, r: Reg, v: u64) {
        self.snap.regs[r.index()] = v;
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> usize {
        self.snap.pc
    }

    pub(crate) fn set_pc(&mut self, pc: usize) {
        self.snap.pc = pc;
    }

    /// The call stack of return addresses.
    #[must_use]
    pub fn call_stack(&self) -> &[usize] {
        &self.snap.call_stack
    }

    pub(crate) fn call_stack_mut(&mut self) -> &mut Vec<usize> {
        &mut self.snap.call_stack
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> ThreadStatus {
        self.status
    }

    pub(crate) fn set_status(&mut self, s: ThreadStatus) {
        self.status = s;
    }

    /// Instructions executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    pub(crate) fn bump_steps(&mut self) -> u64 {
        let s = self.steps;
        self.steps += 1;
        s
    }

    /// Timestamp of the thread-start sequencer.
    #[must_use]
    pub fn start_seq(&self) -> u64 {
        self.start_seq
    }

    /// Timestamp of the thread-end sequencer, once terminated.
    #[must_use]
    pub fn end_seq(&self) -> Option<u64> {
        self.end_seq
    }

    pub(crate) fn set_end_seq(&mut self, ts: u64) {
        self.end_seq = Some(ts);
    }
}

/// One value printed by a thread via [`SysCall::Print`].
///
/// [`SysCall::Print`]: crate::isa::SysCall::Print
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct OutputRecord {
    pub tid: usize,
    pub value: u64,
}

/// A complete machine: program, shared memory, threads, output.
///
/// # Examples
///
/// ```
/// use tvm::builder::ProgramBuilder;
/// use tvm::machine::Machine;
/// use tvm::scheduler::{RunConfig, SchedulePolicy};
///
/// let mut b = ProgramBuilder::new();
/// b.thread("main");
/// b.movi(tvm::isa::Reg::R0, 41)
///  .addi(tvm::isa::Reg::R0, tvm::isa::Reg::R0, 1)
///  .print(tvm::isa::Reg::R0)
///  .halt();
/// let program = b.build();
/// let mut m = Machine::new(program.into());
/// tvm::scheduler::run(&mut m, &RunConfig::round_robin(100), &mut ());
/// assert_eq!(m.output()[0].value, 42);
/// # let _ = SchedulePolicy::Random { seed: 0 };
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    decoded: Arc<DecodedProgram>,
    mem: Memory,
    threads: Vec<ThreadState>,
    output: Vec<OutputRecord>,
    global_step: u64,
    next_seq: u64,
}

impl Machine {
    /// Creates a machine for `program` with all threads ready at their
    /// entry points, globals initialized, and thread-start sequencers
    /// assigned in thread-id order.
    ///
    /// The program's [`DecodedProgram`] is built as part of construction;
    /// when several machines (or pipeline stages) execute the same program,
    /// build one and share it via [`Machine::with_decoded`].
    #[must_use]
    pub fn new(program: Arc<Program>) -> Self {
        Machine::with_decoded(Arc::new(DecodedProgram::new(program)))
    }

    /// Creates a machine over an already built [`DecodedProgram`], sharing
    /// it across machines.
    #[must_use]
    pub fn with_decoded(decoded: Arc<DecodedProgram>) -> Self {
        let program = decoded.program();
        let mut mem = Memory::new();
        for (&addr, &val) in program.globals() {
            mem.write(addr, val).expect("global initializer outside globals region");
        }
        let mut next_seq = 0;
        let threads = program
            .threads()
            .iter()
            .enumerate()
            .map(|(tid, spec)| {
                let ts = next_seq;
                next_seq += 1;
                ThreadState::new(tid, spec.entry, &spec.args, ts)
            })
            .collect();
        Machine { decoded, mem, threads, output: Vec::new(), global_step: 0, next_seq }
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        self.decoded.program()
    }

    /// The program with its sequencer-point flags.
    #[must_use]
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.decoded
    }

    /// Shared memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    pub(crate) fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// All threads.
    #[must_use]
    pub fn threads(&self) -> &[ThreadState] {
        &self.threads
    }

    /// One thread's state.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn thread(&self, tid: usize) -> &ThreadState {
        &self.threads[tid]
    }

    pub(crate) fn thread_mut(&mut self, tid: usize) -> &mut ThreadState {
        &mut self.threads[tid]
    }

    /// What one step of thread `tid` works on, borrowed apart: the
    /// program, the thread's snapshot, memory and the output stream.
    pub(crate) fn step_parts(
        &mut self,
        tid: usize,
    ) -> (&DecodedProgram, &mut ThreadSnapshot, &mut Memory, &mut Vec<OutputRecord>) {
        (&self.decoded, &mut self.threads[tid].snap, &mut self.mem, &mut self.output)
    }

    /// Thread ids that are still ready to run.
    #[must_use]
    pub fn runnable(&self) -> Vec<usize> {
        self.threads.iter().filter(|t| t.status().is_ready()).map(ThreadState::tid).collect()
    }

    /// Whether every thread has terminated (halted or faulted).
    #[must_use]
    pub fn finished(&self) -> bool {
        self.threads.iter().all(|t| !t.status().is_ready())
    }

    /// The output stream produced by `sys.print` so far.
    #[must_use]
    pub fn output(&self) -> &[OutputRecord] {
        &self.output
    }

    /// Total instructions executed across all threads.
    #[must_use]
    pub fn global_step(&self) -> u64 {
        self.global_step
    }

    pub(crate) fn bump_global_step(&mut self) -> u64 {
        let s = self.global_step;
        self.global_step += 1;
        s
    }

    /// Next (unassigned) sequencer timestamp.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub(crate) fn take_seq(&mut self) -> u64 {
        let ts = self.next_seq;
        self.next_seq += 1;
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;
    use crate::program::ThreadSpec;
    use std::collections::HashMap;

    fn machine_with(threads: usize) -> Machine {
        let instrs = vec![Instr::Halt];
        let specs = (0..threads)
            .map(|i| ThreadSpec { name: format!("t{i}"), entry: 0, args: vec![i as u64] })
            .collect();
        let p = Program::from_parts(instrs, specs, HashMap::new(), HashMap::new());
        Machine::new(Arc::new(p))
    }

    #[test]
    fn start_sequencers_are_assigned_in_tid_order() {
        let m = machine_with(3);
        assert_eq!(m.thread(0).start_seq(), 0);
        assert_eq!(m.thread(1).start_seq(), 1);
        assert_eq!(m.thread(2).start_seq(), 2);
        assert_eq!(m.next_seq(), 3);
    }

    #[test]
    fn args_land_in_low_registers() {
        let m = machine_with(2);
        assert_eq!(m.thread(1).reg(Reg::R0), 1);
        assert_eq!(m.thread(1).reg(Reg::R1), 0);
    }

    #[test]
    fn runnable_and_finished() {
        let mut m = machine_with(2);
        assert_eq!(m.runnable(), vec![0, 1]);
        assert!(!m.finished());
        m.thread_mut(0).set_status(ThreadStatus::Halted);
        m.thread_mut(1).set_status(ThreadStatus::Faulted(Fault::DivideByZero));
        assert!(m.runnable().is_empty());
        assert!(m.finished());
    }

    #[test]
    fn globals_are_loaded() {
        let mut globals = HashMap::new();
        globals.insert(8u64, 99u64);
        let p = Program::from_parts(
            vec![Instr::Halt],
            vec![ThreadSpec { name: "t".into(), entry: 0, args: vec![] }],
            HashMap::new(),
            globals,
        );
        let m = Machine::new(Arc::new(p));
        assert_eq!(m.memory().peek(8), 99);
    }

    #[test]
    fn fault_display_is_informative() {
        assert_eq!(Fault::DivideByZero.to_string(), "divide by zero");
        assert!(Fault::InvalidAccess { addr: 0xdead }.to_string().contains("dead"));
    }
}
