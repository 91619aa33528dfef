//! The Eraser lockset algorithm (Savage et al., TOCS 1997) as an online
//! baseline.
//!
//! Eraser checks that every shared location is consistently protected by at
//! least one common lock. It is a *heuristic*: unlike happens-before
//! detectors it can flag correctly synchronized code (false positives) —
//! the paper's motivation for building on happens-before instead
//! (§2.2.2).
//!
//! # Lock inference
//!
//! The VM has no lock primitives, so locks follow the standard spin-lock
//! idiom, which the detector recognizes structurally:
//!
//! * **acquire**: an atomic CAS or exchange on address `L` that observes 0
//!   and stores a non-zero value,
//! * **release**: an atomic exchange/store of 0 to a currently held `L`.

use std::collections::{BTreeSet, HashMap, HashSet};

use tvm::exec::{AccessKind, Observer, StepInfo};
use tvm::isa::Instr;
use tvm::machine::Machine;

/// Eraser's per-location state machine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LocationState {
    /// Never accessed.
    Virgin,
    /// Accessed by exactly one thread so far.
    Exclusive { tid: usize },
    /// Read by multiple threads, never written after sharing.
    Shared,
    /// Written by multiple threads (or written after sharing).
    SharedModified,
}

/// One lockset warning: a location accessed in shared-modified state with an
/// empty candidate lockset.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LocksetWarning {
    pub addr: u64,
    /// The access that emptied the lockset / fired the warning.
    pub pc: usize,
    /// The previously recorded accessor of the location (best-effort
    /// attribution of "the other side").
    pub prior_pc: Option<usize>,
}

#[derive(Clone, Debug)]
struct LocationInfo {
    state: LocationState,
    /// Candidate lockset; `None` means "all locks" (not yet constrained).
    candidates: Option<BTreeSet<u64>>,
    last_pc: Option<usize>,
    warned: bool,
}

impl Default for LocationInfo {
    fn default() -> Self {
        LocationInfo {
            state: LocationState::Virgin,
            candidates: None,
            last_pc: None,
            warned: false,
        }
    }
}

/// The Eraser-style lockset detector; attach as an [`Observer`].
#[derive(Debug, Default)]
pub struct LocksetDetector {
    /// Locks currently held by each thread.
    held: Vec<BTreeSet<u64>>,
    locations: HashMap<u64, LocationInfo>,
    warnings: BTreeSet<LocksetWarning>,
    /// Addresses ever used as locks (excluded from data checking).
    lock_addrs: HashSet<u64>,
}

impl LocksetDetector {
    /// Creates an empty detector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All warnings, deduplicated by `(addr, pc, prior_pc)`.
    #[must_use]
    pub fn warnings(&self) -> &BTreeSet<LocksetWarning> {
        &self.warnings
    }

    /// Number of distinct warned locations.
    #[must_use]
    pub fn warned_locations(&self) -> usize {
        self.warnings.iter().map(|w| w.addr).collect::<BTreeSet<_>>().len()
    }

    fn on_access(&mut self, tid: usize, pc: usize, addr: u64, kind: AccessKind) {
        if self.lock_addrs.contains(&addr) {
            return;
        }
        let held = &self.held[tid];
        let info = self.locations.entry(addr).or_default();
        // State transition.
        info.state = match (info.state, kind) {
            (LocationState::Virgin, _) => LocationState::Exclusive { tid },
            (LocationState::Exclusive { tid: owner }, _) if owner == tid => info.state,
            (LocationState::Exclusive { .. }, AccessKind::Read) => LocationState::Shared,
            (LocationState::Exclusive { .. }, AccessKind::Write) => LocationState::SharedModified,
            (LocationState::Shared, AccessKind::Read) => LocationState::Shared,
            (LocationState::Shared, AccessKind::Write) => LocationState::SharedModified,
            (LocationState::SharedModified, _) => LocationState::SharedModified,
        };
        // Eraser refines the candidate lockset on *every* access ("C(v) is
        // initialized to the set of all locks" at first access), but only
        // warns in the shared-modified state.
        match &mut info.candidates {
            None => info.candidates = Some(held.clone()),
            Some(c) => {
                c.retain(|l| held.contains(l));
            }
        }
        let empty = info.candidates.as_ref().is_some_and(BTreeSet::is_empty);
        if empty && info.state == LocationState::SharedModified && !info.warned {
            info.warned = true;
            let warning = LocksetWarning { addr, pc, prior_pc: info.last_pc };
            self.warnings.insert(warning);
        }
        info.last_pc = Some(pc);
    }
}

impl Observer for LocksetDetector {
    fn on_start(&mut self, machine: &Machine) {
        self.held = vec![BTreeSet::new(); machine.threads().len()];
    }

    fn on_step(&mut self, _machine: &Machine, info: &StepInfo) {
        let tid = info.tid;
        match &info.instr {
            Instr::AtomicCas { .. } | Instr::AtomicRmw { op: tvm::isa::RmwOp::Xchg, .. } => {
                // Structural lock recognition.
                if let (Some(read), write) = (info.accesses.first(), info.accesses.get(1)) {
                    let addr = read.addr;
                    match write {
                        Some(w) if read.value == 0 && w.value != 0 => {
                            // acquire
                            self.lock_addrs.insert(addr);
                            self.held[tid].insert(addr);
                        }
                        Some(w) if w.value == 0 && self.held[tid].contains(&addr) => {
                            // release
                            self.held[tid].remove(&addr);
                        }
                        _ => {}
                    }
                }
            }
            Instr::AtomicRmw { .. } | Instr::Fence | Instr::Syscall { .. } => {
                // Other atomics/syscalls are neither locks nor data for
                // Eraser's purposes.
            }
            _ => {
                for acc in &info.accesses {
                    self.on_access(tid, info.pc, acc.addr, acc.kind);
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

    fn detect(b: ProgramBuilder, cfg: RunConfig) -> LocksetDetector {
        let mut m = Machine::new(b.build().into());
        let mut det = LocksetDetector::new();
        tvm::run(&mut m, &cfg, &mut det);
        det
    }

    /// Emits `lock(L); <body>; unlock(L)` around the body emitter.
    fn with_lock(b: &mut ProgramBuilder, lock_addr: i64, body: impl FnOnce(&mut ProgramBuilder)) {
        let acquire = b.fresh_label("acquire");
        b.label(acquire)
            .movi(Reg::R10, 0)
            .movi(Reg::R11, 1)
            .cas(Reg::R12, Reg::R15, lock_addr, Reg::R10, Reg::R11)
            .branch(Cond::Eq, Reg::R12, Reg::R15, acquire);
        body(b);
        b.movi(Reg::R10, 0).atomic_rmw(RmwOp::Xchg, Reg::R12, Reg::R15, lock_addr, Reg::R10);
    }

    #[test]
    fn consistently_locked_access_is_clean() {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            with_lock(&mut b, 0x40, |b| {
                b.load(Reg::R1, Reg::R15, 8).addi(Reg::R1, Reg::R1, 1).store(Reg::R1, Reg::R15, 8);
            });
            b.halt();
        }
        let det = detect(b, RunConfig::round_robin(3));
        assert!(det.warnings().is_empty(), "{:?}", det.warnings());
    }

    #[test]
    fn unlocked_shared_write_warns() {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
        }
        let det = detect(b, RunConfig::round_robin(1));
        assert_eq!(det.warned_locations(), 1);
    }

    #[test]
    fn inconsistent_lock_usage_warns() {
        // Thread a uses lock 0x40, thread b uses lock 0x48: intersection
        // empty once shared-modified.
        let mut b = ProgramBuilder::new();
        b.thread("a");
        with_lock(&mut b, 0x40, |b| {
            b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8);
        });
        b.halt();
        b.thread("b");
        with_lock(&mut b, 0x48, |b| {
            b.movi(Reg::R1, 2).store(Reg::R1, Reg::R15, 8);
        });
        b.halt();
        let det = detect(b, RunConfig::round_robin(3));
        assert_eq!(det.warned_locations(), 1);
    }

    /// The canonical Eraser **false positive**: serialized-by-happens-before
    /// handoff without locks. The happens-before detector (with atomics)
    /// stays silent; Eraser warns.
    #[test]
    fn sync_handoff_is_a_lockset_false_positive() {
        let mut b = ProgramBuilder::new();
        b.thread("producer");
        b.movi(Reg::R1, 9)
            .store(Reg::R1, Reg::R15, 8) // unlocked data write
            .movi(Reg::R2, 1)
            .atomic_rmw(RmwOp::Add, Reg::R3, Reg::R15, 16, Reg::R2) // flag (not a lock idiom)
            .halt();
        b.thread("consumer");
        let spin = b.fresh_label("spin");
        b.label(spin)
            .movi(Reg::R2, 0)
            .atomic_rmw(RmwOp::Add, Reg::R1, Reg::R15, 16, Reg::R2)
            .branch(Cond::Eq, Reg::R1, Reg::R15, spin)
            .movi(Reg::R4, 5)
            .store(Reg::R4, Reg::R15, 8) // unlocked data write, but ordered
            .halt();
        let det = detect(b, RunConfig::round_robin(2));
        assert_eq!(det.warned_locations(), 1, "Eraser flags the ordered handoff");
    }

    #[test]
    fn exclusive_then_shared_read_does_not_warn() {
        let mut b = ProgramBuilder::new();
        b.global(8, 7);
        b.thread("writer_once");
        b.movi(Reg::R1, 3).store(Reg::R1, Reg::R15, 8).halt();
        b.thread("reader");
        b.load(Reg::R1, Reg::R15, 8).halt();
        // Write happens in Exclusive state; the later read moves it to
        // Shared (not SharedModified) — Eraser stays silent.
        let det = detect(b, RunConfig::round_robin(100));
        assert!(det.warnings().is_empty());
    }
}
