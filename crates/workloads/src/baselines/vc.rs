//! Online vector-clock happens-before race detection (the classic
//! alternative to the paper's region-based offline detector).
//!
//! Atomic instructions act as acquire+release on the memory word they
//! touch; a fence acts as acquire+release on a global synchronization
//! object. Plain accesses are checked against FastTrack-style epochs.
//!
//! Differences from the paper's detector (by design, for ablation E-A1):
//!
//! * it runs online, paying its cost during execution;
//! * atomic accesses are pure synchronization, never reported as racing —
//!   the region detector can report a plain access racing with an atomic in
//!   an overlapping region;
//! * it is more precise about cross-thread ordering (per-object clocks
//!   instead of one global sequencer order), so it can find races the
//!   region detector's over-synchronization hides.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use replay_race::detect::StaticRaceId;
use tvm::exec::{AccessKind, Observer, StepInfo};
use tvm::isa::Instr;
use tvm::machine::Machine;

/// A vector clock over thread ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// A zero clock sized for `threads` threads.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        VectorClock(vec![0; threads])
    }

    /// The component for `tid`.
    #[must_use]
    pub fn get(&self, tid: usize) -> u64 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    /// Increments `tid`'s component.
    pub fn tick(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    /// Componentwise maximum.
    pub fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            self.0[i] = self.0[i].max(v);
        }
    }

    /// Whether `self` happens before or equals `other` (componentwise ≤).
    #[must_use]
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.0.iter().enumerate().all(|(i, &v)| v <= other.get(i))
    }

    /// Partial order: `Less`/`Greater` for strict happens-before, `Equal`
    /// for equal clocks, `None` for concurrent.
    #[must_use]
    pub fn partial_cmp_hb(&self, other: &VectorClock) -> Option<Ordering> {
        match (self.leq(other), other.leq(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

/// FastTrack-style epoch: `(clock value, tid, pc)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Epoch {
    clock: u64,
    tid: usize,
    pc: usize,
}

#[derive(Clone, Debug, Default)]
struct LocationState {
    last_write: Option<Epoch>,
    /// Per-thread read epochs since the last write.
    reads: HashMap<usize, Epoch>,
}

/// Sync-object key for the fence pseudo-object.
const FENCE_OBJECT: u64 = u64::MAX;

/// The online vector-clock detector; attach as an [`Observer`] while the
/// machine runs.
///
/// # Examples
///
/// ```
/// use workloads::baselines::VcDetector;
/// use tvm::{Machine, ProgramBuilder, RunConfig};
/// use tvm::isa::Reg;
///
/// let mut b = ProgramBuilder::new();
/// b.thread("a");
/// b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
/// b.thread("b");
/// b.load(Reg::R2, Reg::R15, 8).halt();
/// let mut m = Machine::new(b.build().into());
/// let mut det = VcDetector::new();
/// tvm::run(&mut m, &RunConfig::round_robin(1), &mut det);
/// assert_eq!(det.races().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct VcDetector {
    clocks: Vec<VectorClock>,
    sync: HashMap<u64, VectorClock>,
    locations: HashMap<u64, LocationState>,
    races: BTreeSet<StaticRaceId>,
    /// Addresses each race was observed on (used by the hybrid detector).
    race_addrs: std::collections::BTreeMap<StaticRaceId, BTreeSet<u64>>,
    race_events: u64,
}

impl VcDetector {
    /// Creates an empty detector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Unique racing static-instruction pairs found.
    #[must_use]
    pub fn races(&self) -> &BTreeSet<StaticRaceId> {
        &self.races
    }

    /// Total racy access events (the dynamic count).
    #[must_use]
    pub fn race_events(&self) -> u64 {
        self.race_events
    }

    /// The addresses a race was observed on.
    #[must_use]
    pub fn race_addrs(&self, id: StaticRaceId) -> Option<&BTreeSet<u64>> {
        self.race_addrs.get(&id)
    }

    fn report(&mut self, pc_a: usize, pc_b: usize, addr: u64) {
        let id = StaticRaceId::new(pc_a, pc_b);
        self.races.insert(id);
        self.race_addrs.entry(id).or_default().insert(addr);
        self.race_events += 1;
    }

    fn on_sync(&mut self, tid: usize, object: u64) {
        let entry = self.sync.entry(object).or_insert_with(|| VectorClock::new(self.clocks.len()));
        // acquire: thread joins the object's clock
        self.clocks[tid].join(entry);
        // release: object takes the thread's clock
        let snapshot = self.clocks[tid].clone();
        *self.sync.get_mut(&object).expect("just inserted") = snapshot;
        self.clocks[tid].tick(tid);
    }

    fn on_read(&mut self, tid: usize, pc: usize, addr: u64) {
        let vc = self.clocks[tid].clone();
        let loc = self.locations.entry(addr).or_default();
        let mut racy = None;
        if let Some(w) = loc.last_write {
            if w.tid != tid && w.clock > vc.get(w.tid) {
                racy = Some(w.pc);
            }
        }
        loc.reads.insert(tid, Epoch { clock: vc.get(tid), tid, pc });
        if let Some(wpc) = racy {
            self.report(wpc, pc, addr);
        }
    }

    fn on_write(&mut self, tid: usize, pc: usize, addr: u64) {
        let vc = self.clocks[tid].clone();
        let loc = self.locations.entry(addr).or_default();
        let mut racy_pcs = Vec::new();
        if let Some(w) = loc.last_write {
            if w.tid != tid && w.clock > vc.get(w.tid) {
                racy_pcs.push(w.pc);
            }
        }
        for (&rtid, r) in &loc.reads {
            if rtid != tid && r.clock > vc.get(rtid) {
                racy_pcs.push(r.pc);
            }
        }
        loc.last_write = Some(Epoch { clock: vc.get(tid), tid, pc });
        loc.reads.clear();
        for other in racy_pcs {
            self.report(other, pc, addr);
        }
    }
}

impl Observer for VcDetector {
    fn on_start(&mut self, machine: &Machine) {
        let n = machine.threads().len();
        self.clocks = (0..n)
            .map(|tid| {
                let mut vc = VectorClock::new(n);
                vc.tick(tid);
                vc
            })
            .collect();
    }

    fn on_step(&mut self, _machine: &Machine, info: &StepInfo) {
        let tid = info.tid;
        match &info.instr {
            Instr::AtomicRmw { .. } | Instr::AtomicCas { .. } => {
                // The accessed word is the synchronization object.
                if let Some(acc) = info.accesses.first() {
                    self.on_sync(tid, acc.addr);
                }
            }
            Instr::Fence => self.on_sync(tid, FENCE_OBJECT),
            Instr::Syscall { .. } => {
                // System calls do not synchronize threads; local step only.
                self.clocks[tid].tick(tid);
            }
            _ => {
                for acc in &info.accesses {
                    match acc.kind {
                        AccessKind::Read => self.on_read(tid, info.pc, acc.addr),
                        AccessKind::Write => self.on_write(tid, info.pc, acc.addr),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::isa::{Cond, Reg, RmwOp};
    use tvm::scheduler::RunConfig;
    use tvm::{Machine, ProgramBuilder};

    fn detect(b: ProgramBuilder, cfg: RunConfig) -> VcDetector {
        let mut m = Machine::new(b.build().into());
        let mut det = VcDetector::new();
        tvm::run(&mut m, &cfg, &mut det);
        det
    }

    #[test]
    fn clock_algebra() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(0);
        b.tick(1);
        assert_eq!(a.partial_cmp_hb(&b), None, "concurrent");
        let mut j = a.clone();
        j.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(j.partial_cmp_hb(&j), Some(Ordering::Equal));
        assert_eq!(a.partial_cmp_hb(&j), Some(Ordering::Less));
        assert_eq!(j.partial_cmp_hb(&a), Some(Ordering::Greater));
    }

    #[test]
    fn unsynchronized_write_read_is_a_race() {
        let mut b = ProgramBuilder::new();
        b.thread("w");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
        b.thread("r");
        b.load(Reg::R2, Reg::R15, 8).halt();
        let det = detect(b, RunConfig::round_robin(1));
        assert_eq!(det.races().len(), 1);
    }

    #[test]
    fn atomic_handoff_is_race_free() {
        let mut b = ProgramBuilder::new();
        b.thread("producer");
        b.movi(Reg::R1, 9)
            .store(Reg::R1, Reg::R15, 8)
            .movi(Reg::R2, 1)
            .atomic_rmw(RmwOp::Xchg, Reg::R3, Reg::R15, 16, Reg::R2)
            .halt();
        b.thread("consumer");
        let spin = b.fresh_label("spin");
        b.label(spin)
            .movi(Reg::R2, 0)
            .atomic_rmw(RmwOp::Or, Reg::R1, Reg::R15, 16, Reg::R2)
            .branch(Cond::Eq, Reg::R1, Reg::R15, spin)
            .load(Reg::R4, Reg::R15, 8)
            .halt();
        let det = detect(b, RunConfig::round_robin(2));
        assert!(det.races().is_empty(), "{:?}", det.races());
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut b = ProgramBuilder::new();
        b.global(8, 3);
        for name in ["a", "b"] {
            b.thread(name);
            b.load(Reg::R1, Reg::R15, 8).halt();
        }
        let det = detect(b, RunConfig::round_robin(1));
        assert!(det.races().is_empty());
    }

    #[test]
    fn write_write_race_detected_even_with_later_sync() {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            b.movi(Reg::R1, 1)
                .store(Reg::R1, Reg::R15, 8)
                .movi(Reg::R2, 1)
                .atomic_rmw(RmwOp::Add, Reg::R3, Reg::R15, 16, Reg::R2)
                .halt();
        }
        let det = detect(b, RunConfig::round_robin(2));
        assert_eq!(det.races().len(), 1);
    }

    #[test]
    fn race_events_count_dynamic_occurrences() {
        let mut b = ProgramBuilder::new();
        b.thread("w");
        let top = b.fresh_label("top");
        b.movi(Reg::R2, 3)
            .movi(Reg::R1, 1)
            .label(top)
            .store(Reg::R1, Reg::R15, 8)
            .subi(Reg::R2, Reg::R2, 1)
            .branch(Cond::Ne, Reg::R2, Reg::R15, top)
            .halt();
        b.thread("r");
        let rtop = b.fresh_label("rtop");
        b.movi(Reg::R3, 3)
            .label(rtop)
            .load(Reg::R1, Reg::R15, 8)
            .subi(Reg::R3, Reg::R3, 1)
            .branch(Cond::Ne, Reg::R3, Reg::R15, rtop)
            .halt();
        let det = detect(b, RunConfig::round_robin(1));
        assert_eq!(det.races().len(), 1, "one unique static race");
        assert!(det.race_events() >= 1);
    }
}
