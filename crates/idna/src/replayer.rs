//! The replayer (paper §3.3): re-executes a recorded run one sequencing
//! region at a time, in global sequencer order, and produces a
//! [`ReplayTrace`] — the complete, queryable history the race detector and
//! the classification virtual processor operate on.
//!
//! Replay runs the machine's own instruction body, [`tvm::exec::step`],
//! with a [`Source`] that reads load values and system-call results from
//! the thread's log, so a replay reproduces the recorded run instruction
//! for instruction. `RegionValues` reads a replayed region back the same
//! way, for time travel and the virtual processor's oracle phase.

use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

use tvm::exec::{step, AccessKind, Source, Stepped, Trap, Trapped};
use tvm::fasthash::FastHashMap;
use tvm::isa::SysCall;
use tvm::machine::Fault;
pub use tvm::machine::ThreadSnapshot;
use tvm::pagestore::PagedWords;
use tvm::predecode::DecodedProgram;
use tvm::program::Program;

use crate::damage::TraceDamage;
use crate::event::{EndStatus, ReplayLog, ThreadEvent, ThreadLog};
use crate::region::{regions_of, Region, RegionId};

/// One replayed dynamic memory access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceAccess {
    /// The thread's dynamic instruction index.
    pub instr_index: u64,
    /// Static program counter of the instruction.
    pub pc: usize,
    pub addr: u64,
    /// Value read (for reads) or stored (for writes).
    pub value: u64,
    pub kind: AccessKind,
}

/// One replayed system call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceSyscall {
    pub instr_index: u64,
    pub call: SysCall,
    /// The (logged) return value.
    pub ret: u64,
}

/// A fully replayed sequencing region.
#[derive(Clone, Debug)]
pub struct ReplayedRegion {
    pub region: Region,
    /// Position in the global replay order; region `p` sees the versioned
    /// memory at version `p` and contributes writes at version `p + 1`.
    pub version: u32,
    /// Architectural state on region entry.
    pub entry: ThreadSnapshot,
    /// Architectural state on region exit (the recorded live-out the paper's
    /// classifier compares against).
    pub exit: ThreadSnapshot,
    /// All memory accesses, in execution order.
    pub accesses: Vec<TraceAccess>,
    /// All system calls, in execution order.
    pub syscalls: Vec<TraceSyscall>,
    /// Values printed during the region.
    pub outputs: Vec<u64>,
}

/// Memory history indexed by replay version, used to reconstruct the live-in
/// image of any region (paper §4.2: "the virtual processor is initialized
/// with the live-in memory values").
#[derive(Clone, Debug, Default)]
pub(crate) struct VersionedMemory {
    writes: FastHashMap<u64, Vec<(u32, u64)>>,
}

impl VersionedMemory {
    /// Records a write at `version`.
    pub fn record(&mut self, version: u32, addr: u64, value: u64) {
        self.writes.entry(addr).or_default().push((version, value));
    }

    /// The last value written to `addr` at or before `version`, if any.
    #[must_use]
    pub fn value_at(&self, addr: u64, version: u32) -> Option<u64> {
        let hist = self.writes.get(&addr)?;
        let idx = hist.partition_point(|&(v, _)| v <= version);
        (idx > 0).then(|| hist[idx - 1].1)
    }
}

/// Heap liveness of one address at some replay version.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum HeapState {
    /// Never covered by a recorded allocation: the replayer knows nothing
    /// about it (an *unknown address* in the paper's replay-failure sense).
    Unknown,
    /// Inside a live allocation with the given base.
    Live { base: u64 },
    /// Inside an allocation that has been freed.
    Freed { base: u64 },
}

/// History of heap allocations and frees observed during replay.
#[derive(Clone, Debug, Default)]
pub(crate) struct HeapHistory {
    /// `(version, base, size)` for every `sys.alloc`.
    pub allocs: Vec<(u32, u64, u64)>,
    /// `(version, base)` for every `sys.free`.
    pub frees: Vec<(u32, u64)>,
}

impl HeapHistory {
    /// The size of the allocation with the given base, if one was recorded.
    #[must_use]
    pub fn size_of(&self, base: u64) -> Option<u64> {
        self.allocs.iter().find(|&&(_, b, _)| b == base).map(|&(_, _, s)| s)
    }

    /// Heap state of `addr` considering only events at or before `version`.
    #[must_use]
    pub fn state_at(&self, addr: u64, version: u32) -> HeapState {
        let mut best: Option<(u32, HeapState)> = None;
        for &(v, base, size) in &self.allocs {
            if v <= version
                && base <= addr
                && addr < base + size
                && best.is_none_or(|(bv, _)| v >= bv)
            {
                best = Some((v, HeapState::Live { base }));
            }
        }
        for &(v, base) in &self.frees {
            if v <= version {
                if let Some(size) = self.size_of(base) {
                    if base <= addr && addr < base + size && best.is_none_or(|(bv, _)| v >= bv) {
                        best = Some((v, HeapState::Freed { base }));
                    }
                }
            }
        }
        best.map_or(HeapState::Unknown, |(_, s)| s)
    }
}

/// The complete replayed history of one recorded execution.
#[derive(Clone, Debug)]
pub struct ReplayTrace {
    decoded: Arc<DecodedProgram>,
    /// Regions in replay (version) order.
    regions: Vec<ReplayedRegion>,
    /// `region_pos[tid][index]` = position of that region in `regions`.
    region_pos: Vec<Vec<usize>>,
    /// Per-thread recorded code footprints (sorted pcs).
    footprints: Vec<Vec<usize>>,
    /// Per-thread names.
    thread_names: Vec<String>,
    /// Per-thread end statuses.
    statuses: Vec<EndStatus>,
    /// Versioned shared-memory history.
    pub(crate) memory: VersionedMemory,
    /// Heap allocation history.
    pub(crate) heap: HeapHistory,
    /// Total instructions in the recorded run.
    pub total_instructions: u64,
    /// Damage horizon for logs decoded in tolerant mode; `None` for clean
    /// logs. The virtual processor's live-in fetches consult it.
    damage: Option<TraceDamage>,
}

impl ReplayTrace {
    /// All regions in replay order.
    #[must_use]
    pub fn regions(&self) -> &[ReplayedRegion] {
        &self.regions
    }

    /// Looks up a region by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this trace.
    #[must_use]
    pub fn region(&self, id: RegionId) -> &ReplayedRegion {
        &self.regions[self.region_pos[id.tid][id.index]]
    }

    /// The architectural state of thread `tid` just *before* it executed
    /// dynamic instruction `instr_index` (paper §1: time travel over the
    /// recording), or `None` when the thread never reached it. One past
    /// the thread's last instruction is its final state.
    ///
    /// Every region stores its entry snapshot, so the state is
    /// re-executed forward from the entry of the region that holds the
    /// instruction, with the values the replay recorded there.
    ///
    /// # Panics
    ///
    /// Panics if re-executing the recorded region faults, which would
    /// mean the trace disagrees with its own program.
    #[must_use]
    pub fn state_before(&self, tid: usize, instr_index: u64) -> Option<ThreadSnapshot> {
        let positions = self.region_pos.get(tid)?;
        // A thread's regions partition its instruction stream in order.
        let i = positions.partition_point(|&p| self.regions[p].region.end_instr <= instr_index);
        let Some(&p) = positions.get(i) else {
            let last = &self.regions[*positions.last()?];
            return (instr_index == last.region.end_instr).then(|| last.exit.clone());
        };
        let region = &self.regions[p];
        let mut snap = region.entry.clone();
        let mut values = RegionValues::new(region);
        for index in region.region.start_instr..instr_index {
            let Ok(stepped) = step(&self.decoded, &mut snap, index, &mut values);
            match stepped {
                Stepped::Next => {}
                Stepped::Halted => break,
                Stepped::Faulted(fault) => {
                    panic!("time travel re-faulted at pc {}: {fault}", snap.pc)
                }
            }
        }
        Some(snap)
    }

    /// The program this trace replays.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        self.decoded.program()
    }

    /// The program this trace replays, with its sequencer-point flags; the
    /// classification virtual processor steps over it directly.
    #[must_use]
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.decoded
    }

    /// Number of threads.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.footprints.len()
    }

    /// A thread's name.
    #[must_use]
    pub fn thread_name(&self, tid: usize) -> &str {
        &self.thread_names[tid]
    }

    /// A thread's recorded end status.
    #[must_use]
    pub fn thread_status(&self, tid: usize) -> EndStatus {
        self.statuses[tid]
    }

    /// Whether `pc` is in `tid`'s recorded code footprint.
    #[must_use]
    pub fn in_footprint(&self, tid: usize, pc: usize) -> bool {
        self.footprints[tid].binary_search(&pc).is_ok()
    }

    /// The damage horizon for a tolerantly decoded log; `None` when the
    /// log decoded clean.
    #[must_use]
    pub fn damage(&self) -> Option<&TraceDamage> {
        self.damage.as_ref()
    }

    /// Attaches a damage horizon (the pipeline's statically refined
    /// profile of a tolerantly decoded log). An empty profile clears it —
    /// clean logs carry no damage state at all.
    pub fn set_damage(&mut self, damage: TraceDamage) {
        self.damage = if damage.is_empty() { None } else { Some(damage) };
    }
}

/// Replay failed because the log is inconsistent with the program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A system call executed with no matching logged result (truncated or
    /// corrupted log).
    SyscallDesync { tid: usize, instr_index: u64 },
    /// A logged event was never consumed, or was consumed out of order.
    EventDesync { tid: usize },
    /// The thread did not reach its recorded end state.
    IncompleteReplay { tid: usize, expected_instrs: u64, replayed: u64 },
    /// The log references a thread the program does not have.
    ThreadMismatch { threads_in_log: usize, threads_in_program: usize },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::SyscallDesync { tid, instr_index } => {
                write!(
                    f,
                    "thread {tid}: system call at instruction {instr_index} has no logged result"
                )
            }
            ReplayError::EventDesync { tid } => write!(f, "thread {tid}: log events out of sync"),
            ReplayError::IncompleteReplay { tid, expected_instrs, replayed } => write!(
                f,
                "thread {tid}: replayed {replayed} of {expected_instrs} recorded instructions"
            ),
            ReplayError::ThreadMismatch { threads_in_log, threads_in_program } => {
                write!(f, "log has {threads_in_log} threads but program has {threads_in_program}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Per-thread replay cursor.
struct RThread<'a> {
    snap: ThreadSnapshot,
    instr: u64,
    regions: Vec<Region>,
    next_region: usize,
    finished: bool,
    values: LogValues<'a>,
}

impl<'a> RThread<'a> {
    fn new(log: &'a ThreadLog) -> Self {
        let mut load_events = Vec::new();
        let mut sys_events = Vec::new();
        for ev in &log.events {
            match *ev {
                ThreadEvent::Load { load_index, value } => load_events.push((load_index, value)),
                ThreadEvent::SyscallRet { sys_index, value } => sys_events.push((sys_index, value)),
                ThreadEvent::Sequencer { .. } => {}
            }
        }
        RThread {
            snap: ThreadSnapshot { regs: log.start_regs, pc: log.start_pc, call_stack: Vec::new() },
            instr: 0,
            regions: regions_of(log),
            next_region: 0,
            finished: false,
            values: LogValues {
                log,
                image: PagedWords::new(),
                loads: 0,
                sys: 0,
                load_events,
                load_cursor: 0,
                sys_events,
                sys_cursor: 0,
            },
        }
    }
}

/// A thread's logged values and the cursors that consume them.
struct LogValues<'a> {
    log: &'a ThreadLog,
    image: PagedWords,
    loads: u64,
    sys: u64,
    load_events: Vec<(u64, u64)>,
    load_cursor: usize,
    sys_events: Vec<(u64, u64)>,
    sys_cursor: usize,
}

impl LogValues<'_> {
    /// Load-value policy, mirroring the recorder exactly.
    fn load_value(&mut self, addr: u64) -> u64 {
        let idx = self.loads;
        self.loads += 1;
        let value = if self.load_events.get(self.load_cursor).is_some_and(|&(i, _)| i == idx) {
            let v = self.load_events[self.load_cursor].1;
            self.load_cursor += 1;
            v
        } else {
            self.image.get(addr)
        };
        self.image.set(addr, value);
        value
    }
}

/// Replays a recorded execution into a [`ReplayTrace`].
///
/// # Errors
///
/// Returns a [`ReplayError`] when the log cannot have been produced by
/// `program` (corruption, truncation, mismatched binaries).
pub fn replay(program: &Arc<Program>, log: &ReplayLog) -> Result<ReplayTrace, ReplayError> {
    replay_with(&Arc::new(DecodedProgram::new(program.clone())), log)
}

/// [`replay`], but reusing an already built [`DecodedProgram`] — the
/// pipeline builds one and shares it across all stages.
///
/// # Errors
///
/// Returns a [`ReplayError`] when the log cannot have been produced by the
/// decoded program.
pub fn replay_with(
    decoded: &Arc<DecodedProgram>,
    log: &ReplayLog,
) -> Result<ReplayTrace, ReplayError> {
    let program = decoded.program();
    if log.threads.len() != program.threads().len() {
        return Err(ReplayError::ThreadMismatch {
            threads_in_log: log.threads.len(),
            threads_in_program: program.threads().len(),
        });
    }
    let mut threads: Vec<RThread> = log.threads.iter().map(RThread::new).collect();
    let mut initial_memory = VersionedMemory::default();
    // The program's global initializers are the version-0 memory image; the
    // virtual processor's live-in lookups depend on them.
    for (&addr, &value) in program.globals() {
        initial_memory.record(0, addr, value);
    }
    let mut trace = ReplayTrace {
        decoded: decoded.clone(),
        regions: Vec::new(),
        region_pos: threads.iter().map(|t| vec![usize::MAX; t.regions.len()]).collect(),
        footprints: log.threads.iter().map(|t| t.footprint.clone()).collect(),
        thread_names: log.threads.iter().map(|t| t.name.clone()).collect(),
        statuses: log.threads.iter().map(|t| t.end_status).collect(),
        memory: initial_memory,
        heap: HeapHistory::default(),
        total_instructions: log.total_instructions,
        damage: None,
    };

    // Paper §3.3: replay one sequencing region at a time, always the pending
    // region with the smallest starting sequencer.
    loop {
        let next = threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.next_region < t.regions.len())
            .min_by_key(|(_, t)| t.regions[t.next_region].start_ts);
        let Some((tid, _)) = next else { break };
        let region = threads[tid].regions[threads[tid].next_region];
        threads[tid].next_region += 1;
        let version = trace.regions.len() as u32;
        let replayed = replay_region(decoded, &mut threads[tid], region, version, &mut trace)?;
        trace.region_pos[tid][region.id.index] = trace.regions.len();
        trace.regions.push(replayed);
    }

    for (tid, t) in threads.iter().enumerate() {
        let v = &t.values;
        if t.instr != v.log.end_instr {
            return Err(ReplayError::IncompleteReplay {
                tid,
                expected_instrs: v.log.end_instr,
                replayed: t.instr,
            });
        }
        if v.load_cursor != v.load_events.len() || v.sys_cursor != v.sys_events.len() {
            return Err(ReplayError::EventDesync { tid });
        }
    }
    Ok(trace)
}

fn replay_region(
    decoded: &DecodedProgram,
    t: &mut RThread<'_>,
    region: Region,
    version: u32,
    trace: &mut ReplayTrace,
) -> Result<ReplayedRegion, ReplayError> {
    let entry = t.snap.clone();
    let mut rec = FromLog {
        values: &mut t.values,
        heap: &mut trace.heap,
        version,
        accesses: Vec::new(),
        syscalls: Vec::new(),
        outputs: Vec::new(),
    };
    while t.instr < region.end_instr && !t.finished {
        let instr_index = t.instr;
        t.instr += 1;
        // A halt or a fault ends the thread where the recording ended it.
        t.finished = step(decoded, &mut t.snap, instr_index, &mut rec)? != Stepped::Next;
    }
    let FromLog { accesses, syscalls, outputs, .. } = rec;
    // Publish this region's writes into the versioned global image.
    for acc in &accesses {
        if acc.kind.is_write() {
            trace.memory.record(version + 1, acc.addr, acc.value);
        }
    }
    Ok(ReplayedRegion { region, version, entry, exit: t.snap.clone(), accesses, syscalls, outputs })
}

/// The replayer's source: the thread's log, read the way the recorder
/// wrote it, building the region's accesses, system calls, outputs and
/// heap history as it goes.
struct FromLog<'r, 'a> {
    values: &'r mut LogValues<'a>,
    heap: &'r mut HeapHistory,
    version: u32,
    accesses: Vec<TraceAccess>,
    syscalls: Vec<TraceSyscall>,
    outputs: Vec<u64>,
}

impl FromLog<'_, '_> {
    /// The thread's memory fault, when its log says it ended at this
    /// instruction with one: the access never completed, so no value was
    /// logged.
    fn recorded_fault(&self, instr_index: u64) -> Trapped<(), ReplayError> {
        let log = self.values.log;
        match log.end_status {
            EndStatus::Faulted(
                fault @ (Fault::InvalidAccess { .. }
                | Fault::UseAfterFree { .. }
                | Fault::InvalidFree { .. }),
            ) if instr_index + 1 == log.end_instr => Err(Trap::Fault(fault)),
            _ => Ok(()),
        }
    }
}

impl Source for FromLog<'_, '_> {
    type Error = ReplayError;

    fn load(&mut self, instr_index: u64, pc: usize, addr: u64) -> Trapped<u64, ReplayError> {
        self.recorded_fault(instr_index)?;
        let value = self.values.load_value(addr);
        self.accesses.push(TraceAccess { instr_index, pc, addr, value, kind: AccessKind::Read });
        Ok(value)
    }

    fn store(
        &mut self,
        instr_index: u64,
        pc: usize,
        addr: u64,
        value: u64,
    ) -> Trapped<(), ReplayError> {
        self.recorded_fault(instr_index)?;
        self.values.image.set(addr, value);
        self.accesses.push(TraceAccess { instr_index, pc, addr, value, kind: AccessKind::Write });
        Ok(())
    }

    fn syscall(&mut self, instr_index: u64, call: SysCall, arg: u64) -> Trapped<u64, ReplayError> {
        // The recorded run faulted in this system call (e.g. a double
        // free); no result was logged.
        self.recorded_fault(instr_index)?;
        let v = &mut *self.values;
        let idx = v.sys;
        v.sys += 1;
        let Some(&(_, ret)) = v.sys_events.get(v.sys_cursor).filter(|&&(i, _)| i == idx) else {
            return Err(Trap::Fail(ReplayError::SyscallDesync { tid: v.log.tid, instr_index }));
        };
        v.sys_cursor += 1;
        match call {
            // Heap effects, like memory writes, become visible at version +
            // 1: a region's own effects are not part of its live-in image
            // (the virtual processor re-executes them).
            SysCall::Alloc => self.heap.allocs.push((self.version + 1, ret, arg.max(1))),
            SysCall::Free => self.heap.frees.push((self.version + 1, arg)),
            SysCall::Print => self.outputs.push(arg),
            SysCall::Tid | SysCall::Yield | SysCall::Nop => {}
        }
        self.syscalls.push(TraceSyscall { instr_index, call, ret });
        Ok(ret)
    }
}

/// A replayed region's recorded values, read back in execution order.
/// Stepping with them re-executes the region exactly as the replay did.
#[derive(Copy, Clone, Debug)]
pub(crate) struct RegionValues<'a> {
    pub(crate) region: &'a ReplayedRegion,
    /// The next recorded access.
    pub(crate) access: usize,
    /// The next recorded system call.
    pub(crate) sys: usize,
}

impl<'a> RegionValues<'a> {
    /// The values of `region`, from its entry.
    pub(crate) fn new(region: &'a ReplayedRegion) -> Self {
        RegionValues { region, access: 0, sys: 0 }
    }
}

impl Source for RegionValues<'_> {
    type Error = Infallible;

    fn load(&mut self, _: u64, _: usize, _: u64) -> Trapped<u64, Infallible> {
        let acc = self.region.accesses[self.access];
        debug_assert_eq!(acc.kind, AccessKind::Read);
        self.access += 1;
        Ok(acc.value)
    }

    fn store(&mut self, _: u64, _: usize, _: u64, _: u64) -> Trapped<(), Infallible> {
        self.access += 1;
        Ok(())
    }

    fn syscall(&mut self, _: u64, call: SysCall, _: u64) -> Trapped<u64, Infallible> {
        let sys = self.region.syscalls[self.sys];
        debug_assert_eq!(sys.call, call);
        self.sys += 1;
        Ok(sys.ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record;
    use std::collections::{BTreeMap, BTreeSet};
    use tvm::isa::{Cond, Reg};
    use tvm::scheduler::RunConfig;
    use tvm::ProgramBuilder;

    fn record_and_replay(
        b: ProgramBuilder,
        cfg: RunConfig,
    ) -> (Arc<Program>, ReplayTrace, crate::recorder::Recording) {
        let program: Arc<Program> = Arc::new(b.build());
        let rec = record(&program, &cfg);
        let trace = replay(&program, &rec.log).expect("replay should succeed");
        (program, trace, rec)
    }

    #[test]
    fn single_thread_replay_matches_recording() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 5)
            .store(Reg::R1, Reg::R15, 0x10)
            .load(Reg::R2, Reg::R15, 0x10)
            .fence()
            .addi(Reg::R2, Reg::R2, 1)
            .print(Reg::R2)
            .halt();
        let (_, trace, rec) = record_and_replay(b, RunConfig::round_robin(100));
        // Two regions: before the fence, and after (print is also a seq point).
        let final_region = trace.regions().last().unwrap();
        let machine_thread = rec.machine.thread(0);
        assert_eq!(
            &final_region.exit.regs,
            machine_thread.regs(),
            "replayed registers match recorded"
        );
        // The printed value appears in a region output.
        let outputs: Vec<u64> = trace.regions().iter().flat_map(|r| r.outputs.clone()).collect();
        assert_eq!(outputs, vec![6]);
    }

    #[test]
    fn cross_thread_values_replay_correctly() {
        let mut b = ProgramBuilder::new();
        b.thread("waiter");
        let spin = b.fresh_label("spin");
        b.label(spin)
            .load(Reg::R1, Reg::R15, 0x8)
            .branch(Cond::Eq, Reg::R1, Reg::R15, spin)
            .print(Reg::R1)
            .halt();
        b.thread("setter");
        b.movi(Reg::R1, 7).store(Reg::R1, Reg::R15, 0x8).halt();
        let (_, trace, rec) = record_and_replay(b, RunConfig::round_robin(3));
        let outputs: Vec<u64> = trace.regions().iter().flat_map(|r| r.outputs.clone()).collect();
        assert_eq!(outputs, vec![7], "waiter replays the published value");
        // Final register state of both threads matches the machine.
        for tid in 0..2 {
            let last = trace.regions().iter().rfind(|r| r.region.id.tid == tid).unwrap();
            assert_eq!(&last.exit.regs, rec.machine.thread(tid).regs());
        }
    }

    #[test]
    fn regions_are_replayed_in_timestamp_order() {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            b.fence().fence().halt();
        }
        let (_, trace, _) = record_and_replay(b, RunConfig::round_robin(1));
        let starts: Vec<u64> = trace.regions().iter().map(|r| r.region.start_ts).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        // Versions are assigned in replay order.
        for (i, r) in trace.regions().iter().enumerate() {
            assert_eq!(r.version as usize, i);
        }
    }

    #[test]
    fn versioned_memory_reconstructs_snapshots() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 1)
            .store(Reg::R1, Reg::R15, 0x8)
            .fence()
            .movi(Reg::R1, 2)
            .store(Reg::R1, Reg::R15, 0x8)
            .halt();
        let (_, trace, _) = record_and_replay(b, RunConfig::round_robin(100));
        // Region 0 wrote 1 (version 1), region 1 wrote 2 (version 2).
        assert_eq!(trace.memory.value_at(0x8, 0), None);
        assert_eq!(trace.memory.value_at(0x8, 1), Some(1));
        assert_eq!(trace.memory.value_at(0x8, 2), Some(2));
    }

    #[test]
    fn value_at_matches_a_model_of_every_version() {
        // Three threads over initialized globals, each writing overlapping
        // words in three regions. The live-in image at version `v` is the
        // globals plus the writes of every region below `v`, applied in
        // version order.
        let mut b = ProgramBuilder::new();
        b.global(0x8, 100).global(0x10, 200).global(0x18, 300);
        for (t, name, own) in [(0, "a", 0x20), (1, "b", 0x28), (2, "c", 0x30)] {
            b.thread(name);
            b.movi(Reg::R1, 10 + t)
                .store(Reg::R1, Reg::R15, 0x8)
                .store(Reg::R1, Reg::R15, own)
                .fence()
                .movi(Reg::R1, 20 + t)
                .store(Reg::R1, Reg::R15, 0x10)
                .store(Reg::R1, Reg::R15, 0x8)
                .fence()
                .movi(Reg::R1, 30 + t)
                .store(Reg::R1, Reg::R15, 0x20)
                .halt();
        }
        let program: Arc<Program> = Arc::new(b.build());
        let never_written = 0x40;
        for config in [RunConfig::round_robin(1), RunConfig::round_robin(4), RunConfig::random(3)] {
            let rec = record(&program, &config);
            let trace = replay(&program, &rec.log).expect("replay");
            assert_eq!(trace.regions().len(), 9);
            let mut image: BTreeMap<u64, u64> =
                program.globals().iter().map(|(&addr, &value)| (addr, value)).collect();
            let addrs: BTreeSet<u64> = image
                .keys()
                .copied()
                .chain(trace.regions().iter().flat_map(|r| r.accesses.iter().map(|a| a.addr)))
                .collect();
            for version in 0..=trace.regions().len() as u32 {
                for &addr in &addrs {
                    assert_eq!(
                        trace.memory.value_at(addr, version),
                        image.get(&addr).copied(),
                        "{config:?}: {addr:#x} at version {version}"
                    );
                }
                assert_eq!(trace.memory.value_at(never_written, version), None);
                if let Some(region) = trace.regions().get(version as usize) {
                    assert_eq!(region.version, version);
                    for acc in region.accesses.iter().filter(|a| a.kind.is_write()) {
                        image.insert(acc.addr, acc.value);
                    }
                }
            }
        }
    }

    #[test]
    fn heap_history_tracks_alloc_and_free() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R0, 2)
            .syscall(SysCall::Alloc)
            .mov(Reg::R5, Reg::R0)
            .movi(Reg::R1, 9)
            .store(Reg::R1, Reg::R5, 0)
            .mov(Reg::R0, Reg::R5)
            .syscall(SysCall::Free)
            .halt();
        let (_, trace, _) = record_and_replay(b, RunConfig::round_robin(100));
        assert_eq!(trace.heap.allocs.len(), 1);
        assert_eq!(trace.heap.frees.len(), 1);
        let (alloc_version, base, size) = trace.heap.allocs[0];
        assert_eq!(size, 2);
        assert_eq!(trace.heap.state_at(base, alloc_version), HeapState::Live { base });
        let (free_version, _) = trace.heap.frees[0];
        assert_eq!(trace.heap.state_at(base + 1, free_version), HeapState::Freed { base });
        assert_eq!(trace.heap.state_at(base + 5, free_version), HeapState::Unknown);
    }

    #[test]
    fn region_lookup_by_id() {
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.fence().halt();
        b.thread("b");
        b.halt();
        let (_, trace, _) = record_and_replay(b, RunConfig::round_robin(1));
        let r = trace.region(RegionId { tid: 0, index: 1 });
        assert_eq!(r.region.id, RegionId { tid: 0, index: 1 });
        assert_eq!(trace.thread_name(1), "b");
    }

    #[test]
    fn corrupted_log_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R0, 1).syscall(SysCall::Alloc).halt();
        let program: Arc<Program> = Arc::new(b.build());
        let mut rec = record(&program, &RunConfig::round_robin(100));
        // Drop the syscall result from the log.
        rec.log.threads[0].events.retain(|e| !matches!(e, ThreadEvent::SyscallRet { .. }));
        let err = replay(&program, &rec.log).unwrap_err();
        assert!(matches!(err, ReplayError::SyscallDesync { tid: 0, .. }), "{err}");
    }

    #[test]
    fn thread_count_mismatch_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.halt();
        let program: Arc<Program> = Arc::new(b.build());
        let mut rec = record(&program, &RunConfig::round_robin(100));
        rec.log.threads.push(rec.log.threads[0].clone());
        assert!(matches!(replay(&program, &rec.log), Err(ReplayError::ThreadMismatch { .. })));
    }

    #[test]
    fn state_before_reconstructs_register_history() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 10) // instr 0
            .addi(Reg::R1, Reg::R1, 5) // instr 1
            .store(Reg::R1, Reg::R15, 0x8) // instr 2
            .fence() // instr 3 (sequencer)
            .load(Reg::R2, Reg::R15, 0x8) // instr 4
            .halt(); // instr 5
        let (_, trace, _) = record_and_replay(b, RunConfig::round_robin(100));
        assert_eq!(trace.state_before(0, 0).unwrap().regs[1], 0);
        assert_eq!(trace.state_before(0, 1).unwrap().regs[1], 10);
        assert_eq!(trace.state_before(0, 2).unwrap().regs[1], 15);
        assert_eq!(trace.state_before(0, 5).unwrap().regs[2], 15, "load value recovered");
        assert!(trace.state_before(0, 100).is_none());
        assert!(trace.state_before(1, 0).is_none(), "no such thread");
    }

    #[test]
    fn state_before_steps_back_one_instruction() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 1).movi(Reg::R1, 2).movi(Reg::R1, 3).halt();
        let (_, trace, rec) = record_and_replay(b, RunConfig::round_robin(100));
        assert_eq!(trace.state_before(0, 2).unwrap().regs[1], 2);
        assert_eq!(trace.state_before(0, 1).unwrap().regs[1], 1);
        assert_eq!(trace.state_before(0, 0).unwrap().regs[1], 0);
        // One past the last instruction is the thread's final state.
        let end = rec.log.threads[0].end_instr;
        assert_eq!(trace.state_before(0, end).as_ref(), Some(&trace.regions()[0].exit));
    }

    #[test]
    fn cross_thread_values_are_visible_backwards() {
        let mut b = ProgramBuilder::new();
        b.thread("waiter");
        let spin = b.fresh_label("spin");
        b.label(spin).load(Reg::R1, Reg::R15, 0x8).branch(Cond::Eq, Reg::R1, Reg::R15, spin).halt();
        b.thread("setter");
        b.movi(Reg::R1, 42).store(Reg::R1, Reg::R15, 0x8).halt();
        let (_, trace, rec) = record_and_replay(b, RunConfig::round_robin(2));
        // At the waiter's last instruction (halt), r1 holds the published 42.
        let end = rec.log.threads[0].end_instr;
        assert_eq!(trace.state_before(0, end - 1).unwrap().regs[1], 42);
    }

    #[test]
    fn faulting_recording_replays_to_fault_point() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R0, 1)
            .syscall(SysCall::Alloc)
            .mov(Reg::R5, Reg::R0)
            .syscall(SysCall::Free)
            .load(Reg::R1, Reg::R5, 0) // use after free: faults
            .halt();
        let program: Arc<Program> = Arc::new(b.build());
        let rec = record(&program, &RunConfig::round_robin(100));
        assert!(matches!(rec.log.threads[0].end_status, EndStatus::Faulted(_)));
        let trace = replay(&program, &rec.log).expect("faulting runs still replay");
        let total: u64 = trace.regions().iter().map(|r| r.region.instr_count()).sum();
        assert_eq!(total, rec.log.threads[0].end_instr);
    }
}
