//! Feeding lockset warnings through the replay classifier (paper §2.2.2):
//!
//! > "Our analysis can also be used for analyzing the data races reported
//! > by a lockset based algorithm and its variations. The analysis should
//! > be able to filter out the benign data races and also the false
//! > positives produced by those algorithms."
//!
//! This module takes the location-based warnings of the Eraser baseline,
//! materializes concrete access pairs from the replay trace (including
//! pairs the happens-before detector would never emit because the accesses
//! are *ordered*), and classifies each pair with the virtual processor.
//! The E-A3 experiment quantifies how much of the lockset noise the
//! classifier removes.

use std::collections::BTreeMap;

use idna_replay::replayer::ReplayTrace;
use idna_replay::vproc::{AccessSite, Vproc, VprocConfig};
use replay_race::classify::{classify_instance, InstanceOutcome};
use replay_race::detect::{RaceInstance, StaticRaceId};
use tvm::exec::AccessKind;

use crate::baselines::lockset::LocksetWarning;

/// Whether a candidate pair is a real (unordered) race by the
/// happens-before standard, or ordered (a lockset false positive).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HbStatus {
    Unordered,
    Ordered,
}

/// One classified lockset candidate.
#[derive(Clone, Debug)]
pub struct FeedResult {
    pub id: StaticRaceId,
    pub addr: u64,
    pub hb: HbStatus,
    pub outcome: InstanceOutcome,
}

/// Summary of a lockset-feed run.
#[derive(Clone, Debug, Default)]
pub struct FeedSummary {
    pub warnings: usize,
    pub candidate_pairs: usize,
    pub ordered_pairs: usize,
    /// Pairs the classifier filtered (both orders converged).
    pub filtered: usize,
    /// Pairs flagged as potentially harmful (state change or replay
    /// failure).
    pub flagged: usize,
    pub results: Vec<FeedResult>,
}

/// Materializes and classifies access pairs for each lockset warning.
///
/// For every warned address, the first conflicting access pair of each
/// distinct static identity is classified (bounded work; the goal is
/// per-warning triage, not instance statistics).
#[must_use]
pub fn classify_lockset_warnings(
    trace: &ReplayTrace,
    warnings: &[LocksetWarning],
    config: VprocConfig,
) -> FeedSummary {
    let mut summary = FeedSummary { warnings: warnings.len(), ..FeedSummary::default() };
    let vproc = Vproc::new(trace, config);
    for warning in warnings {
        // Collect every access to the warned address, across all regions.
        let mut sites: Vec<AccessSite> = Vec::new();
        for region in trace.regions() {
            for acc in &region.accesses {
                if acc.addr == warning.addr {
                    sites.push(AccessSite {
                        region: region.region.id,
                        instr_index: acc.instr_index,
                        pc: acc.pc,
                        addr: acc.addr,
                        kind: acc.kind,
                    });
                }
            }
        }
        // One representative pair per static identity.
        let mut seen: BTreeMap<StaticRaceId, ()> = BTreeMap::new();
        for (i, a) in sites.iter().enumerate() {
            for b in &sites[i + 1..] {
                if a.tid() == b.tid() {
                    continue;
                }
                if a.kind != AccessKind::Write && b.kind != AccessKind::Write {
                    continue;
                }
                let id = StaticRaceId::new(a.pc, b.pc);
                if seen.insert(id, ()).is_some() {
                    continue;
                }
                let ra = trace.region(a.region).region;
                let rb = trace.region(b.region).region;
                let hb = if ra.overlaps(&rb) { HbStatus::Unordered } else { HbStatus::Ordered };
                let instance = RaceInstance { a: *a, b: *b };
                let classified = classify_instance(&vproc, &instance);
                summary.candidate_pairs += 1;
                if hb == HbStatus::Ordered {
                    summary.ordered_pairs += 1;
                }
                if classified.outcome == InstanceOutcome::NoStateChange {
                    summary.filtered += 1;
                } else {
                    summary.flagged += 1;
                }
                summary.results.push(FeedResult {
                    id,
                    addr: warning.addr,
                    hb,
                    outcome: classified.outcome,
                });
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::LocksetDetector;
    use idna_replay::recorder::record;
    use idna_replay::replayer::replay;
    use std::sync::Arc;
    use tvm::isa::{Cond, Reg, RmwOp};
    use tvm::scheduler::RunConfig;
    use tvm::{Machine, Program, ProgramBuilder};

    fn feed(b: ProgramBuilder, cfg: RunConfig) -> FeedSummary {
        let program: Arc<Program> = Arc::new(b.build());
        let mut machine = Machine::new(program.clone());
        let mut lockset = LocksetDetector::new();
        tvm::run(&mut machine, &cfg, &mut lockset);
        let warnings: Vec<_> = lockset.warnings().iter().cloned().collect();
        let rec = record(&program, &cfg);
        let trace = replay(&program, &rec.log).unwrap();
        classify_lockset_warnings(&trace, &warnings, VprocConfig::default())
    }

    #[test]
    fn benign_redundant_write_warning_is_filtered() {
        let mut b = ProgramBuilder::new();
        b.global(8, 7);
        for name in ["a", "b"] {
            b.thread(name);
            b.movi(Reg::R1, 7).store(Reg::R1, Reg::R15, 8).halt();
        }
        let summary = feed(b, RunConfig::round_robin(1));
        assert_eq!(summary.warnings, 1);
        assert!(summary.candidate_pairs >= 1);
        assert_eq!(summary.flagged, 0, "{summary:?}");
        assert_eq!(summary.filtered, summary.candidate_pairs);
    }

    #[test]
    fn harmful_conflicting_write_warning_is_flagged() {
        let mut b = ProgramBuilder::new();
        for (name, v) in [("a", 1u64), ("b", 2u64)] {
            b.thread(name);
            b.movi(Reg::R1, v).store(Reg::R1, Reg::R15, 8).halt();
        }
        let summary = feed(b, RunConfig::round_robin(1));
        assert!(summary.flagged >= 1, "{summary:?}");
    }

    #[test]
    fn ordered_handoff_false_positive_is_materialized_as_ordered() {
        // The lockset FP: a correct atomic-flag handoff. The pair exists in
        // the trace but the regions are ordered; the summary distinguishes
        // it.
        let mut b = ProgramBuilder::new();
        b.thread("producer");
        b.movi(Reg::R1, 9)
            .store(Reg::R1, Reg::R15, 8)
            .movi(Reg::R2, 1)
            .atomic_rmw(RmwOp::Add, Reg::R3, Reg::R15, 16, Reg::R2)
            .halt();
        b.thread("consumer");
        let spin = b.fresh_label("spin");
        b.label(spin)
            .movi(Reg::R2, 0)
            .atomic_rmw(RmwOp::Add, Reg::R1, Reg::R15, 16, Reg::R2)
            .branch(Cond::Eq, Reg::R1, Reg::R15, spin)
            .movi(Reg::R4, 5)
            .store(Reg::R4, Reg::R15, 8)
            .halt();
        let summary = feed(b, RunConfig::round_robin(2));
        assert_eq!(summary.warnings, 1);
        assert!(summary.ordered_pairs >= 1, "{summary:?}");
    }
}
