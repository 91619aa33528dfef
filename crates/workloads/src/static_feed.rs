//! Feeding *static* race warnings through the replay classifier.
//!
//! This is the static-analysis twin of [`lockset_feed`](crate::lockset_feed):
//! `racecheck::analyze` produces statically-may-race pc pairs without
//! executing the program; this module materializes a concrete access pair
//! for each warning from a recorded trace and classifies it with the
//! virtual processor. The E-SC2 experiment compares the precision of the
//! static warnings alone against static + replay-classification, mirroring
//! the paper's argument that the classifier is a back end for *any* race
//! front end (§2.2.2).
//!
//! A warning can fail to materialize when the executed schedule never
//! reaches one of its pcs (or never produces a cross-thread conflicting
//! pair). Those warnings stay flagged — static analysis claims them, and
//! nothing was observed to refute the claim.

use std::collections::BTreeMap;
use std::sync::Arc;

use idna_replay::replayer::ReplayTrace;
use idna_replay::vproc::{AccessSite, Vproc, VprocConfig};
use racecheck::CandidateSet;
use replay_race::classify::{classify_instance, InstanceOutcome};
use replay_race::detect::{detect_races, DetectorConfig, RaceInstance, StaticRaceId};
use tvm::exec::AccessKind;

use crate::lockset_feed::HbStatus;

/// Materialized instances examined per warning before concluding "no
/// state change". The paper's evidence accumulates across instances
/// (§4.3); a single representative can under-report a harmful race whose
/// first dynamic instance happens to leave state unchanged.
pub const MAX_INSTANCES_PER_WARNING: usize = 64;

/// One materialized and classified static warning.
#[derive(Clone, Debug)]
pub struct StaticFeedResult {
    pub id: StaticRaceId,
    /// The concrete racing address of the deciding instance.
    pub addr: u64,
    pub hb: HbStatus,
    /// The worst outcome over the examined instances.
    pub outcome: InstanceOutcome,
    /// Instances examined (capped at [`MAX_INSTANCES_PER_WARNING`]).
    pub instances: usize,
}

/// Summary of a static-feed run over one trace.
#[derive(Clone, Debug, Default)]
pub struct StaticFeedSummary {
    /// Static candidate pairs fed in.
    pub warnings: usize,
    /// Warnings with a concrete conflicting access pair in the trace.
    pub materialized: usize,
    /// Warnings never observed in this execution.
    pub unmaterialized: usize,
    /// Materialized warnings the classifier filtered (no state change).
    pub filtered: usize,
    /// Materialized warnings flagged as potentially harmful.
    pub flagged: usize,
    /// Per-materialized-warning results.
    pub results: Vec<StaticFeedResult>,
    /// The static ids that never materialized.
    pub unmaterialized_ids: Vec<StaticRaceId>,
}

/// Predicted-vs-replayed agreement over materialized warnings: the E-SC3
/// confusion matrix between the idiom pass's pre-replay verdicts
/// ([`racecheck::idioms`]) and the replay classifier's outcomes.
/// Unmaterialized warnings are out of scope — replay produced no verdict
/// to agree or disagree with.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticConfusion {
    /// Predicted benign; every replayed instance left state unchanged.
    pub agree_benign: usize,
    /// Predicted harmful (no idiom matched); replay exposed the race.
    pub agree_harmful: usize,
    /// Predicted benign but replay exposed the race — the dangerous cell;
    /// high-confidence entries here veto
    /// [`TrustStatic`](replay_race::classify::TrustStatic) graduation.
    pub static_optimistic: usize,
    /// Predicted harmful but replay saw no state change — triage waste,
    /// never a soundness problem.
    pub static_pessimistic: usize,
}

impl StaticConfusion {
    /// Folds one materialized warning into the matrix.
    pub fn record(&mut self, predicted_benign: bool, replay_benign: bool) {
        match (predicted_benign, replay_benign) {
            (true, true) => self.agree_benign += 1,
            (false, false) => self.agree_harmful += 1,
            (true, false) => self.static_optimistic += 1,
            (false, true) => self.static_pessimistic += 1,
        }
    }

    /// Materialized warnings folded in.
    #[must_use]
    pub fn total(&self) -> usize {
        self.agree_benign + self.agree_harmful + self.static_optimistic + self.static_pessimistic
    }

    /// Fraction of materialized warnings where prediction and replay agree
    /// (1.0 when nothing materialized).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn agreement(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            (self.agree_benign + self.agree_harmful) as f64 / self.total() as f64
        }
    }
}

/// Materializes concrete access pairs for each static candidate and
/// classifies them by replaying both orders.
///
/// Warnings the happens-before detector observes are materialized from
/// its instances — exactly the pairs the dynamic pipeline classifies, up
/// to [`MAX_INSTANCES_PER_WARNING`] each. Warnings the detector never
/// reports (the schedule kept their accesses ordered) fall back to the
/// first cross-thread conflicting pair in trace order. A warning is
/// flagged as soon as one instance exposes a state change or replay
/// failure, and filtered only when every examined instance leaves state
/// unchanged.
#[must_use]
pub fn classify_static_warnings(
    trace: &ReplayTrace,
    candidates: &CandidateSet,
    config: VprocConfig,
) -> StaticFeedSummary {
    let mut summary = StaticFeedSummary { warnings: candidates.len(), ..Default::default() };

    // The detector, pre-filtered to the candidate set, materializes every
    // warning that races in this schedule.
    let detector = DetectorConfig { prefilter: Some(Arc::new(candidates.clone())) };
    let detected = detect_races(trace, &detector);

    // Index the trace's accesses by pc for the ordered fallback.
    let mut by_pc: BTreeMap<usize, Vec<AccessSite>> = BTreeMap::new();
    for region in trace.regions() {
        for acc in &region.accesses {
            if !candidates.monitors(acc.pc) {
                continue;
            }
            by_pc.entry(acc.pc).or_default().push(AccessSite {
                region: region.region.id,
                instr_index: acc.instr_index,
                pc: acc.pc,
                addr: acc.addr,
                kind: acc.kind,
            });
        }
    }

    let vproc = Vproc::new(trace, config);
    for (pc_lo, pc_hi) in candidates.iter() {
        let id = StaticRaceId::new(pc_lo, pc_hi);
        let mut instances: Vec<RaceInstance> =
            detected.instances_of(id).take(MAX_INSTANCES_PER_WARNING).cloned().collect();
        if instances.is_empty() {
            instances.extend(materialize_fallback(&by_pc, pc_lo, pc_hi));
        }
        if instances.is_empty() {
            summary.unmaterialized += 1;
            summary.unmaterialized_ids.push(id);
            continue;
        }
        summary.materialized += 1;
        let mut examined = 0;
        let mut deciding = &instances[0];
        let mut outcome = InstanceOutcome::NoStateChange;
        for instance in &instances {
            examined += 1;
            let classified = classify_instance(&vproc, instance);
            if classified.outcome != InstanceOutcome::NoStateChange {
                deciding = instance;
                outcome = classified.outcome;
                break;
            }
        }
        if outcome == InstanceOutcome::NoStateChange {
            summary.filtered += 1;
        } else {
            summary.flagged += 1;
        }
        let ra = trace.region(deciding.a.region).region;
        let rb = trace.region(deciding.b.region).region;
        let hb = if ra.overlaps(&rb) { HbStatus::Unordered } else { HbStatus::Ordered };
        summary.results.push(StaticFeedResult {
            id,
            addr: deciding.addr(),
            hb,
            outcome,
            instances: examined,
        });
    }
    summary
}

/// First cross-thread conflicting pair of accesses at the two pcs on a
/// common address — the fallback for warnings the detector never reports
/// in this schedule.
fn materialize_fallback(
    by_pc: &BTreeMap<usize, Vec<AccessSite>>,
    pc_lo: usize,
    pc_hi: usize,
) -> Option<RaceInstance> {
    let (lo, hi) = (by_pc.get(&pc_lo)?, by_pc.get(&pc_hi)?);
    for a in lo {
        for b in hi {
            if a.tid() == b.tid() || a.addr != b.addr {
                continue;
            }
            if a.kind != AccessKind::Write && b.kind != AccessKind::Write {
                continue;
            }
            // Same-pc pairs (pc_lo == pc_hi) would otherwise pair an access
            // with itself; tid inequality already rules that out.
            return Some(RaceInstance { a: *a, b: *b });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use idna_replay::recorder::record;
    use idna_replay::replayer::replay;
    use std::sync::Arc;
    use tvm::isa::Reg;
    use tvm::scheduler::RunConfig;
    use tvm::{Program, ProgramBuilder};

    fn feed(b: ProgramBuilder, cfg: RunConfig) -> StaticFeedSummary {
        let program: Arc<Program> = Arc::new(b.build());
        let candidates = racecheck::analyze(&program).candidates;
        let rec = record(&program, &cfg);
        let trace = replay(&program, &rec.log).unwrap();
        classify_static_warnings(&trace, &candidates, VprocConfig::default())
    }

    #[test]
    fn benign_redundant_write_is_filtered() {
        let mut b = ProgramBuilder::new();
        b.global(8, 7);
        for name in ["a", "b"] {
            b.thread(name);
            b.movi(Reg::R1, 7).store(Reg::R1, Reg::R15, 8).halt();
        }
        let summary = feed(b, RunConfig::round_robin(1));
        assert_eq!(summary.warnings, 1);
        assert_eq!(summary.materialized, 1);
        assert_eq!(summary.filtered, 1, "{summary:?}");
    }

    #[test]
    fn harmful_conflicting_write_is_flagged() {
        let mut b = ProgramBuilder::new();
        for (name, v) in [("a", 1u64), ("b", 2u64)] {
            b.thread(name);
            b.movi(Reg::R1, v).store(Reg::R1, Reg::R15, 8).halt();
        }
        let summary = feed(b, RunConfig::round_robin(1));
        assert_eq!(summary.warnings, 1);
        assert!(summary.flagged >= 1, "{summary:?}");
    }

    #[test]
    fn unreached_code_stays_an_unmaterialized_warning() {
        // Thread b only writes the shared word when its tid is zero;
        // statically the tid is any of [0, threads), so the store is
        // reachable, but dynamically thread b is tid 1 and always skips,
        // so the warning cannot materialize.
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
        b.thread("b");
        let skip = b.fresh_label("skip");
        b.syscall(tvm::isa::SysCall::Tid)
            .branch(tvm::isa::Cond::Ne, Reg::R0, Reg::R15, skip)
            .store(Reg::R0, Reg::R15, 8)
            .label(skip)
            .halt();
        let summary = feed(b, RunConfig::round_robin(1));
        assert_eq!(summary.warnings, 1);
        assert_eq!(summary.unmaterialized, 1, "{summary:?}");
        assert!(summary.results.is_empty());
    }
}
