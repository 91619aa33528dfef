//! The recorder: an [`Observer`] implementing iDNA's load-based
//! checkpointing (paper §3.1–3.2): per thread, a load value is logged only
//! when it differs from the thread's replay image.

use std::collections::BTreeSet;

use tvm::exec::{Observer, StepInfo};
use tvm::machine::{Machine, ThreadStatus};
use tvm::pagestore::PagedWords;
use tvm::predecode::DecodedProgram;
use tvm::program::Program;
use tvm::scheduler::{run, RunConfig, RunSummary};
use tvm::AccessKind;

use crate::event::{EndStatus, ReplayLog, ThreadEvent, ThreadLog};

use std::sync::Arc;

#[derive(Debug, Default)]
struct RecThread {
    name: String,
    start_regs: [u64; tvm::isa::NUM_REGS],
    start_pc: usize,
    start_ts: u64,
    events: Vec<ThreadEvent>,
    /// The thread's *replay image* (paper §3.1): the memory values the
    /// replayer will be able to reproduce from this thread's own history,
    /// unwritten addresses reading as zero like `tvm` memory. A load value
    /// is logged only when it differs from the image (first accesses of
    /// non-zero memory, and values changed externally between this
    /// thread's accesses). This single rule captures every source of
    /// non-determinism: other threads, "DMA"-like system effects,
    /// everything — exactly the property iDNA relies on. The replayer
    /// keeps the same image to read the values back.
    image: PagedWords,
    loads: u64,
    syscalls: u64,
    instrs: u64,
    footprint: BTreeSet<usize>,
    end: Option<(u64, EndStatus)>,
}

/// Records a machine execution into a [`ReplayLog`].
///
/// # Examples
///
/// ```
/// use idna_replay::recorder::record;
/// use tvm::{ProgramBuilder, RunConfig};
/// use tvm::isa::Reg;
///
/// let mut b = ProgramBuilder::new();
/// b.thread("main");
/// b.movi(Reg::R0, 5).print(Reg::R0).halt();
/// let recording = record(&b.build().into(), &RunConfig::round_robin(8));
/// assert!(recording.summary.completed);
/// assert_eq!(recording.log.threads.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    threads: Vec<RecThread>,
    total: u64,
    max_ts: u64,
}

impl Recorder {
    /// Creates an empty recorder; it populates itself via [`Observer`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the recorder and produces the log.
    ///
    /// Threads that never terminated (recording truncated by the step
    /// budget) receive synthetic end sequencers past every observed
    /// timestamp, so their final sequencing regions overlap everything that
    /// follows — a safe over-approximation.
    #[must_use]
    pub fn into_log(mut self) -> ReplayLog {
        let mut synth_ts = self.max_ts + 1;
        let threads = self
            .threads
            .drain(..)
            .enumerate()
            .map(|(tid, t)| {
                let (end_ts, end_status) = t.end.unwrap_or_else(|| {
                    let ts = synth_ts;
                    synth_ts += 1;
                    (ts, EndStatus::Truncated)
                });
                ThreadLog {
                    tid,
                    name: t.name,
                    start_regs: t.start_regs,
                    start_pc: t.start_pc,
                    start_ts: t.start_ts,
                    events: t.events,
                    end_instr: t.instrs,
                    end_ts,
                    end_status,
                    footprint: t.footprint.into_iter().collect(),
                }
            })
            .collect();
        ReplayLog { threads, total_instructions: self.total }
    }
}

impl Observer for Recorder {
    fn on_start(&mut self, machine: &Machine) {
        self.threads = machine
            .threads()
            .iter()
            .map(|t| {
                let spec = &machine.program().threads()[t.tid()];
                self.max_ts = self.max_ts.max(t.start_seq());
                RecThread {
                    name: spec.name.clone(),
                    start_regs: *t.regs(),
                    start_pc: t.pc(),
                    start_ts: t.start_seq(),
                    ..RecThread::default()
                }
            })
            .collect();
    }

    fn on_step(&mut self, machine: &Machine, info: &StepInfo) {
        self.total += 1;
        let t = &mut self.threads[info.tid];
        t.instrs += 1;
        t.footprint.insert(info.pc);

        if let Some(ts) = info.sequencer {
            self.max_ts = self.max_ts.max(ts);
            t.events.push(ThreadEvent::Sequencer { instr_index: info.thread_step, ts });
        }

        for acc in &info.accesses {
            match acc.kind {
                AccessKind::Read => {
                    let load_index = t.loads;
                    t.loads += 1;
                    let known = t.image.get(acc.addr);
                    if known != acc.value {
                        t.events.push(ThreadEvent::Load { load_index, value: acc.value });
                    }
                    t.image.set(acc.addr, acc.value);
                }
                AccessKind::Write => {
                    t.image.set(acc.addr, acc.value);
                }
            }
        }

        if let Some(sys) = info.syscall {
            let sys_index = t.syscalls;
            t.syscalls += 1;
            // System-call results are always logged: they are the VM's
            // "system interactions" and may be non-deterministic (the heap
            // allocator is shared across threads).
            t.events.push(ThreadEvent::SyscallRet { sys_index, value: sys.ret });
        }

        if let Some(ts) = info.end_sequencer {
            self.max_ts = self.max_ts.max(ts);
            let status = match machine.thread(info.tid).status() {
                ThreadStatus::Halted => EndStatus::Halted,
                ThreadStatus::Faulted(f) => EndStatus::Faulted(f),
                ThreadStatus::Ready => unreachable!("end sequencer on a ready thread"),
            };
            t.end = Some((ts, status));
        }
    }
}

/// The result of [`record`].
#[derive(Debug)]
pub struct Recording {
    /// The replay log.
    pub log: ReplayLog,
    /// The scheduler's run summary.
    pub summary: RunSummary,
    /// The machine in its final state (ground truth for replay fidelity
    /// tests and live-out comparison).
    pub machine: Machine,
}

/// Runs `program` under `config` while recording, and returns the log
/// together with the final machine state.
#[must_use]
pub fn record(program: &Arc<Program>, config: &RunConfig) -> Recording {
    record_with(&Arc::new(DecodedProgram::new(program.clone())), config)
}

/// [`record`], but reusing an already built [`DecodedProgram`] — the
/// pipeline builds one and shares it across native execution, recording,
/// replay, and classification.
#[must_use]
pub fn record_with(decoded: &Arc<DecodedProgram>, config: &RunConfig) -> Recording {
    let mut machine = Machine::with_decoded(decoded.clone());
    let mut recorder = Recorder::new();
    let summary = run(&mut machine, config, &mut recorder);
    Recording { log: recorder.into_log(), summary, machine }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tvm::isa::{BinOp, Cond, Reg, RmwOp, SysCall};
    use tvm::pagestore::PAGE_WORDS;
    use tvm::ProgramBuilder;

    use crate::replayer::replay;

    #[test]
    fn single_thread_log_shape() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        // st 5 -> [0x10]; ld from [0x10] (reproducible, not logged);
        // ld from [0x18] (zero, not logged); atomic (sequencer); halt.
        b.movi(Reg::R1, 5)
            .store(Reg::R1, Reg::R15, 0x10)
            .load(Reg::R2, Reg::R15, 0x10)
            .load(Reg::R3, Reg::R15, 0x18)
            .atomic_rmw(RmwOp::Add, Reg::R4, Reg::R15, 0x10, Reg::R1)
            .halt();
        let rec = record(&b.build().into(), &RunConfig::round_robin(100));
        let t = &rec.log.threads[0];
        let loads: Vec<_> =
            t.events.iter().filter(|e| matches!(e, ThreadEvent::Load { .. })).collect();
        assert!(loads.is_empty(), "all loads reproducible locally: {loads:?}");
        let seqs: Vec<_> =
            t.events.iter().filter(|e| matches!(e, ThreadEvent::Sequencer { .. })).collect();
        assert_eq!(seqs.len(), 1, "one atomic => one sequencer");
        assert_eq!(t.end_status, EndStatus::Halted);
        assert_eq!(t.end_instr, 6);
    }

    #[test]
    fn cross_thread_write_forces_load_logging() {
        // Thread a spins until thread b publishes a value; the loads that
        // observe b's store cannot be reproduced locally and must be logged.
        let mut b = ProgramBuilder::new();
        b.thread("waiter");
        let spin = b.fresh_label("spin");
        b.label(spin).load(Reg::R1, Reg::R15, 0x8).branch(Cond::Eq, Reg::R1, Reg::R15, spin).halt();
        b.thread("setter");
        b.movi(Reg::R1, 3).store(Reg::R1, Reg::R15, 0x8).halt();
        let rec = record(&b.build().into(), &RunConfig::round_robin(2));
        let waiter = &rec.log.threads[0];
        let logged: Vec<u64> = waiter
            .events
            .iter()
            .filter_map(|e| match e {
                ThreadEvent::Load { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(logged, vec![3], "exactly the externally-produced value is logged");
    }

    #[test]
    fn syscall_results_are_always_logged() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R0, 2).syscall(SysCall::Alloc).syscall(SysCall::Tid).halt();
        let rec = record(&b.build().into(), &RunConfig::round_robin(100));
        let sys: Vec<_> = rec.log.threads[0]
            .events
            .iter()
            .filter(|e| matches!(e, ThreadEvent::SyscallRet { .. }))
            .collect();
        assert_eq!(sys.len(), 2);
    }

    #[test]
    fn truncated_threads_get_synthetic_ends() {
        let mut b = ProgramBuilder::new();
        b.thread("spin");
        let top = b.fresh_label("top");
        b.label(top).jump(top);
        let rec = record(&b.build().into(), &RunConfig::round_robin(1).with_max_steps(10));
        let t = &rec.log.threads[0];
        assert_eq!(t.end_status, EndStatus::Truncated);
        assert!(t.end_ts > t.start_ts);
        assert_eq!(t.end_instr, 10);
    }

    #[test]
    fn footprint_covers_executed_pcs_only() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        let skip = b.fresh_label("skip");
        b.jump(skip).movi(Reg::R1, 9).label(skip).halt();
        let rec = record(&b.build().into(), &RunConfig::round_robin(100));
        let t = &rec.log.threads[0];
        assert!(t.in_footprint(0));
        assert!(!t.in_footprint(1), "skipped instruction not in footprint");
        assert!(t.in_footprint(2));
    }

    #[test]
    fn faulting_thread_records_fault_status() {
        let mut b = ProgramBuilder::new();
        b.thread("main");
        b.movi(Reg::R1, 1).bini(tvm::isa::BinOp::Div, Reg::R0, Reg::R1, 0).halt();
        let rec = record(&b.build().into(), &RunConfig::round_robin(100));
        assert!(matches!(rec.log.threads[0].end_status, EndStatus::Faulted(_)));
    }

    /// The recorder's rule run over a `HashMap` image: per thread, the
    /// `(load_index, value)` of every load that differs from the image.
    #[derive(Default)]
    struct HashMapImages {
        images: Vec<HashMap<u64, u64>>,
        loads: Vec<u64>,
        logged: Vec<Vec<(u64, u64)>>,
    }

    impl Observer for HashMapImages {
        fn on_start(&mut self, machine: &Machine) {
            let n = machine.threads().len();
            self.images = vec![HashMap::new(); n];
            self.loads = vec![0; n];
            self.logged = vec![Vec::new(); n];
        }

        fn on_step(&mut self, _machine: &Machine, info: &StepInfo) {
            let image = &mut self.images[info.tid];
            for acc in &info.accesses {
                if acc.kind == AccessKind::Read {
                    let load_index = self.loads[info.tid];
                    self.loads[info.tid] += 1;
                    if image.get(&acc.addr).copied().unwrap_or(0) != acc.value {
                        self.logged[info.tid].push((load_index, acc.value));
                    }
                }
                image.insert(acc.addr, acc.value);
            }
        }
    }

    fn logged_loads(log: &ReplayLog) -> Vec<Vec<(u64, u64)>> {
        log.threads
            .iter()
            .map(|t| {
                t.events
                    .iter()
                    .filter_map(|e| match *e {
                        ThreadEvent::Load { load_index, value } => Some((load_index, value)),
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn image_matches_hashmap_model() {
        // Two threads race on shared globals and each overwrites its own
        // heap block: the paged images must log exactly the loads a
        // `HashMap` image would, under every schedule.
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            let top = b.fresh_label(&format!("{name}_top"));
            b.movi(Reg::R0, PAGE_WORDS as u64)
                .syscall(SysCall::Alloc)
                .movi(Reg::R1, 0)
                .movi(Reg::R3, 300)
                .label(top)
                .bini(BinOp::Mul, Reg::R2, Reg::R1, 37)
                .andi(Reg::R2, Reg::R2, 0xff)
                .load(Reg::R4, Reg::R2, 0)
                .add(Reg::R4, Reg::R4, Reg::R1)
                .store(Reg::R4, Reg::R2, 0)
                .andi(Reg::R5, Reg::R1, PAGE_WORDS as u64 - 1)
                .add(Reg::R5, Reg::R5, Reg::R0)
                .load(Reg::R6, Reg::R5, 0)
                .store(Reg::R4, Reg::R5, 0)
                .addi(Reg::R1, Reg::R1, 1)
                .branch(Cond::Ne, Reg::R1, Reg::R3, top)
                .halt();
        }
        let program = Arc::new(b.build());
        let (mut logged, mut loads) = (0, 0);
        for seed in 0..10 {
            let config = RunConfig::random(seed).with_max_steps(100_000);
            let mut model = HashMapImages::default();
            tvm::run(&mut Machine::new(program.clone()), &config, &mut model);
            let rec = record(&program, &config);
            assert_eq!(logged_loads(&rec.log), model.logged, "seed {seed}");
            logged += model.logged.iter().map(Vec::len).sum::<usize>();
            loads += model.loads.iter().sum::<u64>();
        }
        assert!(logged > 0 && (logged as u64) < loads, "{logged} of {loads} loads logged");
    }

    #[test]
    fn many_pages_survive_table_growth() {
        // One thread writes 1000 distinct pages, forcing several grow()
        // cycles, then reads each back: the recorder's image must know
        // every value (nothing logged) and the replayer's must return it.
        const PAGES: u64 = 1000;
        let stride = PAGE_WORDS as u64;
        let mut b = ProgramBuilder::new();
        b.thread("pages");
        let fill = b.fresh_label("fill");
        let check = b.fresh_label("check");
        b.movi(Reg::R1, 0)
            .movi(Reg::R2, 1)
            .movi(Reg::R3, PAGES * stride)
            .label(fill)
            .store(Reg::R2, Reg::R1, 0)
            .addi(Reg::R1, Reg::R1, stride)
            .addi(Reg::R2, Reg::R2, 1)
            .branch(Cond::Ne, Reg::R1, Reg::R3, fill)
            .movi(Reg::R1, 0)
            .label(check)
            .load(Reg::R4, Reg::R1, 0)
            .addi(Reg::R1, Reg::R1, stride)
            .branch(Cond::Ne, Reg::R1, Reg::R3, check)
            .halt();
        let program = Arc::new(b.build());
        let rec = record(&program, &RunConfig::round_robin(1).with_max_steps(100_000));
        assert_eq!(logged_loads(&rec.log), vec![Vec::new()], "the image lost a page");
        let trace = replay(&program, &rec.log).expect("replay");
        let reads: Vec<(u64, u64)> = trace
            .regions()
            .iter()
            .flat_map(|r| &r.accesses)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| (a.addr, a.value))
            .collect();
        let want: Vec<(u64, u64)> = (0..PAGES).map(|i| (i * stride, i + 1)).collect();
        assert_eq!(reads, want);
    }
}
