//! Replay-fidelity verification: proves a replay trace reproduces the
//! recorded execution.
//!
//! Deterministic replay is the foundation the whole classification pipeline
//! stands on, so the crate ships a checker that re-executes the program
//! live under the original schedule and compares the replayed history
//! against it — per-thread final register files, termination statuses,
//! output streams, and instruction counts. A failed check means a
//! recorder/replayer bug, never a property of the analyzed program.

use tvm::machine::{Machine, ThreadStatus};
use tvm::program::Program;
use tvm::scheduler::{run, RunConfig};

use crate::event::EndStatus;
use crate::replayer::ReplayTrace;

use std::fmt;
use std::sync::Arc;

/// One discrepancy between the live re-execution and the replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    pub tid: usize,
    pub what: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread {}: {}", self.tid, self.what)
    }
}

/// Result of [`verify_fidelity`].
#[derive(Clone, Debug, Default)]
pub struct FidelityReport {
    pub threads_checked: usize,
    pub mismatches: Vec<Mismatch>,
}

impl FidelityReport {
    /// Whether the replay reproduced the execution exactly.
    #[must_use]
    pub fn is_faithful(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for FidelityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_faithful() {
            write!(f, "replay fidelity verified across {} threads", self.threads_checked)
        } else {
            writeln!(f, "replay fidelity FAILED ({} mismatches):", self.mismatches.len())?;
            for m in &self.mismatches {
                writeln!(f, "  {m}")?;
            }
            Ok(())
        }
    }
}

/// Re-executes `program` live under `config` (the schedule the recording
/// used) and compares the outcome against the replayed `trace`.
#[must_use]
pub fn verify_fidelity(
    program: &Arc<Program>,
    trace: &ReplayTrace,
    config: &RunConfig,
) -> FidelityReport {
    let mut machine = Machine::new(program.clone());
    run(&mut machine, config, &mut ());
    let mut report =
        FidelityReport { threads_checked: trace.thread_count(), ..FidelityReport::default() };

    for tid in 0..trace.thread_count() {
        let Some(last) = trace.regions().iter().rfind(|r| r.region.id.tid == tid) else {
            report.mismatches.push(Mismatch { tid, what: "no replayed regions".into() });
            continue;
        };
        let live = machine.thread(tid);
        if &last.exit.regs != live.regs() {
            report.mismatches.push(Mismatch {
                tid,
                what: format!(
                    "final registers differ (replayed {:?} vs live {:?})",
                    last.exit.regs,
                    live.regs()
                ),
            });
        }
        let total: u64 = trace
            .regions()
            .iter()
            .filter(|r| r.region.id.tid == tid)
            .map(|r| r.region.instr_count())
            .sum();
        if total != live.steps() {
            report.mismatches.push(Mismatch {
                tid,
                what: format!("instruction counts differ ({total} vs {})", live.steps()),
            });
        }
        let status_matches = matches!(
            (trace.thread_status(tid), live.status()),
            (EndStatus::Halted, ThreadStatus::Halted) | (EndStatus::Truncated, ThreadStatus::Ready)
        ) || matches!(
            (trace.thread_status(tid), live.status()),
            (EndStatus::Faulted(a), ThreadStatus::Faulted(b)) if a == b
        );
        if !status_matches {
            report.mismatches.push(Mismatch {
                tid,
                what: format!(
                    "statuses differ ({:?} vs {:?})",
                    trace.thread_status(tid),
                    live.status()
                ),
            });
        }
        let replayed_output: Vec<u64> = trace
            .regions()
            .iter()
            .filter(|r| r.region.id.tid == tid)
            .flat_map(|r| r.outputs.iter().copied())
            .collect();
        let live_output: Vec<u64> =
            machine.output().iter().filter(|o| o.tid == tid).map(|o| o.value).collect();
        if replayed_output != live_output {
            report.mismatches.push(Mismatch {
                tid,
                what: format!("outputs differ ({replayed_output:?} vs {live_output:?})"),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record;
    use crate::replayer::replay;
    use tvm::isa::{Reg, SysCall};
    use tvm::ProgramBuilder;

    fn racy_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).print(Reg::R1).halt();
        b.thread("b");
        b.load(Reg::R2, Reg::R15, 8).movi(Reg::R0, 3).syscall(SysCall::Print).halt();
        Arc::new(b.build())
    }

    #[test]
    fn faithful_replay_verifies() {
        let program = racy_program();
        for seed in 0..6u64 {
            let cfg = RunConfig::chunked(seed, 1, 3);
            let rec = record(&program, &cfg);
            let trace = replay(&program, &rec.log).unwrap();
            let report = verify_fidelity(&program, &trace, &cfg);
            assert!(report.is_faithful(), "seed {seed}: {report}");
            assert!(report.to_string().contains("verified"));
        }
    }

    #[test]
    fn wrong_schedule_is_detected() {
        let program = racy_program();
        let rec = record(&program, &RunConfig::round_robin(1));
        let trace = replay(&program, &rec.log).unwrap();
        // Verifying against a different schedule may or may not diverge for
        // this tiny program; pick one that definitely changes the reader's
        // observed value: run reader before writer.
        let report = verify_fidelity(&program, &trace, &RunConfig::round_robin(100));
        // Under rr(1) the reader interleaves; under rr(100) thread a runs
        // to completion first, so the reader sees 1 instead of 0 (or vice
        // versa). Either way registers differ.
        assert!(!report.is_faithful(), "{report}");
        assert!(report.to_string().contains("FAILED"));
    }

    #[test]
    fn recording_is_deterministic() {
        // Two recordings under one schedule give byte-identical logs: the
        // determinism property everything else relies on.
        let program = racy_program();
        for config in [RunConfig::chunked(5, 1, 4), RunConfig::random(11)] {
            assert_eq!(record(&program, &config).log, record(&program, &config).log);
        }
    }
}
