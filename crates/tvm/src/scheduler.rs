//! Deterministic, seeded thread scheduling.
//!
//! Everything in the pipeline depends on executions being *reproducible*:
//! the same program, policy, and seed always produce the same interleaving,
//! so recorded logs, detected races, and classification outcomes are stable
//! across runs. Distinct seeds produce distinct interleavings, which is how
//! the evaluation corpus varies race instances across its 20 executions.

use crate::exec::{NativeOutcome, Observer, StepInfo};
use crate::machine::{Fault, Machine};
use crate::rng::SplitMix64;

/// How the next thread to execute is chosen.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum SchedulePolicy {
    /// Rotate through runnable threads, `quantum` instructions each.
    RoundRobin { quantum: u64 },
    /// Choose a uniformly random runnable thread before *every* instruction.
    /// Maximally racy; useful to shake out rare interleavings.
    Random { seed: u64 },
    /// Choose a random runnable thread and run it for a random quantum in
    /// `min_quantum ..= max_quantum` instructions.
    Chunked { seed: u64, min_quantum: u64, max_quantum: u64 },
}

/// Configuration for [`run`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RunConfig {
    pub policy: SchedulePolicy,
    /// Upper bound on total executed instructions (guards against livelock
    /// in spin loops).
    pub max_steps: u64,
}

impl RunConfig {
    /// Default bound on executed instructions.
    pub const DEFAULT_MAX_STEPS: u64 = 10_000_000;

    /// Round-robin scheduling with the given quantum.
    #[must_use]
    pub fn round_robin(quantum: u64) -> Self {
        RunConfig {
            policy: SchedulePolicy::RoundRobin { quantum: quantum.max(1) },
            max_steps: Self::DEFAULT_MAX_STEPS,
        }
    }

    /// Per-instruction random scheduling.
    #[must_use]
    pub fn random(seed: u64) -> Self {
        RunConfig { policy: SchedulePolicy::Random { seed }, max_steps: Self::DEFAULT_MAX_STEPS }
    }

    /// Random thread choice with random quanta.
    #[must_use]
    pub fn chunked(seed: u64, min_quantum: u64, max_quantum: u64) -> Self {
        assert!(min_quantum >= 1 && max_quantum >= min_quantum, "invalid quantum range");
        RunConfig {
            policy: SchedulePolicy::Chunked { seed, min_quantum, max_quantum },
            max_steps: Self::DEFAULT_MAX_STEPS,
        }
    }

    /// Replaces the step bound.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }
}

/// Result of a [`run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Total instructions executed.
    pub steps: u64,
    /// Whether every thread terminated before `max_steps` was reached.
    pub completed: bool,
    /// Faults raised, as `(tid, fault)` pairs in occurrence order.
    pub faults: Vec<(usize, Fault)>,
}

struct Picker {
    policy: SchedulePolicy,
    rng: SplitMix64,
    current: Option<usize>,
    remaining: u64,
}

impl Picker {
    fn new(policy: SchedulePolicy) -> Self {
        let seed = match policy {
            SchedulePolicy::Random { seed } | SchedulePolicy::Chunked { seed, .. } => seed,
            SchedulePolicy::RoundRobin { .. } => 0,
        };
        Picker { policy, rng: SplitMix64::new(seed), current: None, remaining: 0 }
    }

    /// Picks the next thread from the non-empty `runnable` set.
    #[inline]
    fn pick(&mut self, runnable: &[usize]) -> usize {
        debug_assert!(!runnable.is_empty());
        // Keep running the current thread while its quantum lasts. The run
        // loop preempts (zeroing `remaining`) whenever the current thread
        // halts, faults, or yields — and only the stepping thread can leave
        // the runnable set — so a live quantum implies `cur` is still
        // runnable and no membership scan is needed on the per-instruction
        // fast path.
        if let Some(cur) = self.current {
            if self.remaining > 0 {
                debug_assert!(runnable.contains(&cur));
                self.remaining -= 1;
                return cur;
            }
        }
        self.pick_fresh(runnable)
    }

    /// Starts a fresh quantum: chooses the thread and quantum per policy.
    fn pick_fresh(&mut self, runnable: &[usize]) -> usize {
        let (tid, quantum) = match self.policy {
            SchedulePolicy::RoundRobin { quantum } => {
                let next = match self.current {
                    Some(cur) => runnable.iter().copied().find(|&t| t > cur).unwrap_or(runnable[0]),
                    None => runnable[0],
                };
                (next, quantum)
            }
            SchedulePolicy::Random { .. } => (runnable[self.rng.next_index(runnable.len())], 1),
            SchedulePolicy::Chunked { min_quantum, max_quantum, .. } => {
                let tid = runnable[self.rng.next_index(runnable.len())];
                (tid, self.rng.next_in(min_quantum, max_quantum))
            }
        };
        self.current = Some(tid);
        self.remaining = quantum.saturating_sub(1);
        tid
    }

    fn preempt(&mut self) {
        self.remaining = 0;
    }
}

/// Runs `machine` to completion (or until `max_steps`), reporting every
/// instruction to `observer`.
///
/// Execution is fully deterministic for a given `(program, config)` pair.
pub fn run(machine: &mut Machine, config: &RunConfig, observer: &mut dyn Observer) -> RunSummary {
    run_observed(machine, config, observer, Machine::step_into)
}

/// [`run`], but stepping through the retained seed interpreter
/// ([`Machine::step_into_reference`]) instead of the one instruction body.
///
/// Exists for differential testing: the `predecode_equiv` suite pins the
/// two paths step-for-step identical.
pub fn run_reference(
    machine: &mut Machine,
    config: &RunConfig,
    observer: &mut dyn Observer,
) -> RunSummary {
    run_observed(machine, config, observer, Machine::step_into_reference)
}

/// [`run`] without an observer, stepping through [`Machine::step_native`]:
/// no [`StepInfo`] is materialized, so this is the fastest way to execute a
/// program and the native baseline the pipeline's overhead ratios divide
/// by. Scheduling decisions are identical to [`run`]'s, so outputs, faults,
/// and the step count all match.
pub fn run_native(machine: &mut Machine, config: &RunConfig) -> RunSummary {
    run_loop(machine, config, Machine::step_native)
}

fn run_observed(
    machine: &mut Machine,
    config: &RunConfig,
    observer: &mut dyn Observer,
    step: impl Fn(&mut Machine, usize, &mut StepInfo),
) -> RunSummary {
    observer.on_start(machine);
    let mut info = StepInfo::placeholder();
    run_loop(machine, config, |machine, tid| {
        step(machine, tid, &mut info);
        observer.on_step(machine, &info);
        info.outcome()
    })
}

/// The scheduler's one loop: picks a thread, runs `step` on it, and keeps
/// the runnable set and the picker's quantum up to date from what the step
/// reports.
#[inline]
fn run_loop(
    machine: &mut Machine,
    config: &RunConfig,
    mut step: impl FnMut(&mut Machine, usize) -> NativeOutcome,
) -> RunSummary {
    let mut picker = Picker::new(config.policy);
    let mut steps = 0;
    let mut faults = Vec::new();
    // Maintain the runnable set incrementally: recomputing it on every
    // instruction dominates the cost of "native" execution otherwise.
    let mut runnable = machine.runnable();
    while !runnable.is_empty() && steps < config.max_steps {
        let tid = picker.pick(&runnable);
        let out = step(machine, tid);
        steps += 1;
        if let Some(fault) = out.fault {
            faults.push((tid, fault));
        }
        if out.yielded {
            picker.preempt();
        }
        if out.ended {
            runnable.retain(|&t| t != tid);
            picker.preempt();
        }
    }
    RunSummary { steps, completed: runnable.is_empty(), faults }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::{Cond, Reg, SysCall};
    use std::sync::Arc;

    /// Two threads each print their tid three times.
    fn two_printers() -> Arc<crate::program::Program> {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            for _ in 0..3 {
                b.syscall(SysCall::Tid).syscall(SysCall::Print);
            }
            b.halt();
        }
        Arc::new(b.build())
    }

    #[test]
    fn round_robin_interleaves_on_quantum() {
        let p = two_printers();
        let mut m = Machine::new(p);
        let summary = run(&mut m, &RunConfig::round_robin(2), &mut ());
        assert!(summary.completed);
        assert!(summary.faults.is_empty());
        // Quantum 2: each (tid, print) pair alternates between threads.
        let tids: Vec<usize> = m.output().iter().map(|o| o.tid).collect();
        assert_eq!(tids, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let p = two_printers();
        let mut m1 = Machine::new(p.clone());
        let mut m2 = Machine::new(p.clone());
        run(&mut m1, &RunConfig::random(7), &mut ());
        run(&mut m2, &RunConfig::random(7), &mut ());
        assert_eq!(m1.output(), m2.output());
        let mut m3 = Machine::new(p);
        run(&mut m3, &RunConfig::random(8), &mut ());
        // Different seed usually differs; both are legal schedules, so only
        // assert the run completed.
        assert!(m3.finished());
    }

    #[test]
    fn chunked_policy_is_deterministic_per_seed() {
        let p = two_printers();
        let mut m1 = Machine::new(p.clone());
        let mut m2 = Machine::new(p);
        run(&mut m1, &RunConfig::chunked(3, 1, 4), &mut ());
        run(&mut m2, &RunConfig::chunked(3, 1, 4), &mut ());
        assert_eq!(m1.output(), m2.output());
    }

    #[test]
    fn max_steps_stops_livelock() {
        let mut b = ProgramBuilder::new();
        b.thread("spin");
        let top = b.fresh_label("top");
        b.label(top).jump(top);
        let mut m = Machine::new(Arc::new(b.build()));
        let summary = run(&mut m, &RunConfig::round_robin(1).with_max_steps(100), &mut ());
        assert!(!summary.completed);
        assert_eq!(summary.steps, 100);
    }

    #[test]
    fn yield_forces_a_switch() {
        let mut b = ProgramBuilder::new();
        // Thread a yields after its first print; thread b prints once.
        b.thread("a");
        b.syscall(SysCall::Tid)
            .syscall(SysCall::Print)
            .syscall(SysCall::Yield)
            .syscall(SysCall::Tid)
            .syscall(SysCall::Print)
            .halt();
        b.thread("b");
        b.syscall(SysCall::Tid).syscall(SysCall::Print).halt();
        let mut m = Machine::new(Arc::new(b.build()));
        run(&mut m, &RunConfig::round_robin(1000), &mut ());
        let tids: Vec<usize> = m.output().iter().map(|o| o.tid).collect();
        assert_eq!(tids, vec![0, 1, 0], "yield hands the cpu to thread b");
    }

    #[test]
    fn native_path_matches_observed_run() {
        // Same schedule decisions, outputs, and summary whether or not a
        // StepInfo is materialized — including across yields and faults.
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.syscall(SysCall::Tid)
            .syscall(SysCall::Print)
            .syscall(SysCall::Yield)
            .syscall(SysCall::Tid)
            .syscall(SysCall::Print)
            .halt();
        b.thread("b");
        b.syscall(SysCall::Tid).syscall(SysCall::Print).ret(); // ret faults: empty stack
        let p: Arc<crate::program::Program> = Arc::new(b.build());
        for config in [RunConfig::round_robin(2), RunConfig::random(5), RunConfig::chunked(3, 1, 4)]
        {
            let mut observed = Machine::new(p.clone());
            let mut native = Machine::new(p.clone());
            let s1 = run(&mut observed, &config, &mut ());
            let s2 = run_native(&mut native, &config);
            assert_eq!(s1, s2, "{config:?}");
            assert_eq!(observed.output(), native.output(), "{config:?}");
            for tid in 0..2 {
                assert_eq!(observed.thread(tid).status(), native.thread(tid).status());
                assert_eq!(observed.thread(tid).end_seq(), native.thread(tid).end_seq());
            }
        }
    }

    #[test]
    fn spinlock_handoff_completes_under_round_robin() {
        // Thread a stores a flag; thread b spins until it sees it.
        let mut b = ProgramBuilder::new();
        b.thread("setter");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 0x10).halt();
        b.thread("waiter");
        let spin = b.fresh_label("spin");
        b.label(spin)
            .load(Reg::R2, Reg::R15, 0x10)
            .branch(Cond::Eq, Reg::R2, Reg::R15, spin)
            .halt();
        let mut m = Machine::new(Arc::new(b.build()));
        let summary = run(&mut m, &RunConfig::round_robin(4), &mut ());
        assert!(summary.completed);
    }
}
