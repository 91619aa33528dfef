//! A hybrid dynamic detector (paper §2.2.2: "it is also possible to combine
//! these two algorithms to get coverage close to a lockset algorithm, and
//! at the same time reduce false positives using happens-before
//! relations").
//!
//! The hybrid runs the Eraser lockset stage as a cheap *candidate filter*
//! and confirms candidates with vector-clock happens-before: a race is
//! reported only when the lockset stage flagged the location **and** the
//! accesses are genuinely concurrent. This removes the lockset stage's
//! false positives (correct happens-before-only synchronization) while
//! keeping its location-based coverage as a cost filter.

use std::collections::BTreeSet;

use replay_race::detect::StaticRaceId;
use tvm::exec::{Observer, StepInfo};
use tvm::machine::Machine;

use crate::baselines::{LocksetDetector, VcDetector};

/// The hybrid lockset + happens-before detector; attach as an [`Observer`].
///
/// # Examples
///
/// ```
/// use workloads::baselines::HybridDetector;
/// use tvm::{Machine, ProgramBuilder, RunConfig};
/// use tvm::isa::Reg;
///
/// let mut b = ProgramBuilder::new();
/// b.thread("a");
/// b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
/// b.thread("b");
/// b.movi(Reg::R1, 2).store(Reg::R1, Reg::R15, 8).halt();
/// let mut m = Machine::new(b.build().into());
/// let mut det = HybridDetector::new();
/// tvm::run(&mut m, &RunConfig::round_robin(1), &mut det);
/// assert_eq!(det.races().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct HybridDetector {
    vc: VcDetector,
    lockset: LocksetDetector,
}

impl HybridDetector {
    /// Creates an empty detector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Races confirmed by both stages: flagged by the lockset heuristic on
    /// some address *and* observed concurrent by the vector clocks on that
    /// address.
    #[must_use]
    pub fn races(&self) -> BTreeSet<StaticRaceId> {
        let warned: BTreeSet<u64> = self.lockset.warnings().iter().map(|w| w.addr).collect();
        self.vc
            .races()
            .iter()
            .filter(|id| {
                self.vc
                    .race_addrs(**id)
                    .is_some_and(|addrs| addrs.iter().any(|a| warned.contains(a)))
            })
            .copied()
            .collect()
    }

    /// Lockset warnings the happens-before stage refuted — the false
    /// positives the hybrid suppresses.
    #[must_use]
    pub fn refuted_warnings(&self) -> usize {
        let vc_addrs: BTreeSet<u64> = self
            .vc
            .races()
            .iter()
            .filter_map(|id| self.vc.race_addrs(*id))
            .flatten()
            .copied()
            .collect();
        self.lockset.warnings().iter().filter(|w| !vc_addrs.contains(&w.addr)).count()
    }

    /// The inner vector-clock stage.
    #[must_use]
    pub fn vc(&self) -> &VcDetector {
        &self.vc
    }

    /// The inner lockset stage.
    #[must_use]
    pub fn lockset(&self) -> &LocksetDetector {
        &self.lockset
    }
}

impl Observer for HybridDetector {
    fn on_start(&mut self, machine: &Machine) {
        self.vc.on_start(machine);
        self.lockset.on_start(machine);
    }

    fn on_step(&mut self, machine: &Machine, info: &StepInfo) {
        self.vc.on_step(machine, info);
        self.lockset.on_step(machine, info);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::isa::{Cond, Reg, RmwOp};
    use tvm::scheduler::RunConfig;
    use tvm::{Machine, ProgramBuilder};

    fn detect(b: ProgramBuilder, cfg: RunConfig) -> HybridDetector {
        let mut m = Machine::new(b.build().into());
        let mut det = HybridDetector::new();
        tvm::run(&mut m, &cfg, &mut det);
        det
    }

    #[test]
    fn plain_race_is_confirmed_by_both_stages() {
        let mut b = ProgramBuilder::new();
        for (name, v) in [("a", 1u64), ("b", 2u64)] {
            b.thread(name);
            b.movi(Reg::R1, v).store(Reg::R1, Reg::R15, 8).halt();
        }
        let det = detect(b, RunConfig::round_robin(1));
        assert_eq!(det.races().len(), 1);
        assert_eq!(det.refuted_warnings(), 0);
    }

    #[test]
    fn ordered_handoff_is_refuted() {
        // Data handed off through an atomic flag: the lockset stage warns
        // (no common lock), the vector clocks prove the ordering, so the
        // hybrid stays silent — the §2.2.2 win.
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
        let det = detect(b, RunConfig::round_robin(2));
        assert!(det.races().is_empty(), "{:?}", det.races());
        assert!(det.refuted_warnings() >= 1, "the lockset FP must be counted as refuted");
    }

    #[test]
    fn locked_accesses_stay_silent() {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            let acquire = b.fresh_label(&format!("{name}_acq"));
            b.label(acquire)
                .movi(Reg::R10, 0)
                .movi(Reg::R11, 1)
                .cas(Reg::R12, Reg::R15, 0x40, Reg::R10, Reg::R11)
                .branch(Cond::Eq, Reg::R12, Reg::R15, acquire)
                .load(Reg::R1, Reg::R15, 8)
                .addi(Reg::R1, Reg::R1, 1)
                .store(Reg::R1, Reg::R15, 8)
                .movi(Reg::R10, 0)
                .atomic_rmw(RmwOp::Xchg, Reg::R12, Reg::R15, 0x40, Reg::R10)
                .halt();
        }
        let det = detect(b, RunConfig::round_robin(3));
        assert!(det.races().is_empty());
        assert!(det.lockset().warnings().is_empty());
    }
}
