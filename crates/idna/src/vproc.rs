//! The virtual processor (paper §4.2): replays the two sequencing regions
//! involved in a data race under **both** orders of the racing memory
//! operations, producing comparable live-outs.
//!
//! Execution proceeds in three phases:
//!
//! 1. **Oracle phase** — each thread is replayed *from the log* (via the
//!    recorded access values) up to, but not including, its racing
//!    instruction ("we replay both threads for the region up until we get to
//!    the data race instruction in each thread"). It steps through the
//!    replayer's own recorded-value stepper over the region's accesses and
//!    system calls, so it re-executes exactly what the replay did.
//! 2. **Order phase** — the two racing instructions execute *live*, in the
//!    prescribed order.
//! 3. **Completion phase** — both threads run live, round-robin, until each
//!    reaches the end of its sequencing region (the next synchronization
//!    instruction or system call), halts, or faults.
//!
//! Live execution reads memory copy-on-first-use from the live-in image
//! (the versioned memory at the earlier region's entry). Reads of addresses
//! the recording never saw, or control flow leaving the recorded code
//! footprint, are **replay failures** (§4.2.1).
//!
//! # Shared-prefix batched replay
//!
//! Most pair replays of the same region pair differ only in *where* the
//! racing instructions sit; the oracle phase up to the racing indexes is
//! identical work re-done per pair. [`Vproc::run_batch`] executes that
//! common prefix **once** per side, parks a cheap [fork-point
//! checkpoint](ThreadSnapshot) at every distinct racing index (a checkpoint
//! chain when the indexes are spread across the region), and resolves each
//! pair by resuming phases 2–3 from the nearest checkpoint. Memory state is
//! forked with an undo log — the virtual memory journals every touched
//! word and rolls back after each pair instead of deep-copying — and
//! live-in fetches go through the trace's materialized [`LiveInIndex`]
//! (one binary search) rather than a versioned-memory history scan. The
//! batch engine is bit-for-bit equivalent to looping [`Vproc::run_pair`];
//! `tests/batch_equiv.rs` in the workspace root pins that. Work saved is
//! accounted in [`BatchStats`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::fmt;

use tvm::exec::AccessKind;
use tvm::fasthash::FastHashMap;
use tvm::isa::{Reg, SysCall, NUM_REGS};
use tvm::machine::{Fault, MAX_CALL_DEPTH};
use tvm::memory::{GLOBAL_LIMIT, HEAP_BASE};
use tvm::predecode::Decoded;

use crate::image::LiveInIndex;
use crate::region::RegionId;
use crate::replayer::{
    step_recorded, HeapState, Recorded, RegionValues, ReplayTrace, ReplayedRegion, Stepped,
    ThreadSnapshot,
};

/// Synthetic heap range for allocations performed during divergent live
/// execution (far above anything the recorded run could have produced).
const VPROC_FRESH_BASE: u64 = 1 << 40;

/// One side of a data race: a dynamic memory access in a replayed region.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct AccessSite {
    /// The sequencing region containing the access.
    pub region: RegionId,
    /// The thread-local dynamic instruction index of the access.
    pub instr_index: u64,
    /// Static pc of the racing instruction.
    pub pc: usize,
    /// Address the race is on.
    pub addr: u64,
    /// Whether this side reads or writes.
    pub kind: AccessKind,
}

impl AccessSite {
    /// The thread this access belongs to.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.region.tid
    }
}

/// Which racing access executes first.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PairOrder {
    /// Site `a`'s instruction executes before site `b`'s.
    AThenB,
    /// Site `b`'s instruction executes before site `a`'s.
    BThenA,
}

impl PairOrder {
    /// Both orders, in canonical order.
    pub const BOTH: [PairOrder; 2] = [PairOrder::AThenB, PairOrder::BThenA];

    /// The opposite order.
    #[must_use]
    pub fn flipped(self) -> PairOrder {
        match self {
            PairOrder::AThenB => PairOrder::BThenA,
            PairOrder::BThenA => PairOrder::AThenB,
        }
    }
}

/// Why an alternative replay could not be completed (paper §4.2.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ReplayFailure {
    /// A load touched an address never seen when the log was taken.
    UnknownLoad { addr: u64 },
    /// A store touched an address never seen when the log was taken.
    UnknownStore { addr: u64 },
    /// A free of an allocation the recording knows nothing about.
    UnknownFree { addr: u64 },
    /// Control flow reached code outside the thread's recorded footprint.
    UnrecordedControlFlow { tid: usize, pc: usize },
    /// The replay did not converge within the step budget (e.g. a spin loop
    /// whose exit condition never arrives in this ordering).
    BudgetExhausted,
    /// A live-in value (or heap state) the replay needed was lost to log
    /// damage: the log decoded in tolerant mode and a damaged thread may
    /// have written the fetched state. Not in the paper — the §4 rule
    /// still applies: a failed replay cannot demonstrate benignity.
    LogDamage,
}

impl fmt::Display for ReplayFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayFailure::UnknownLoad { addr } => {
                write!(f, "load of unrecorded address {addr:#x}")
            }
            ReplayFailure::UnknownStore { addr } => {
                write!(f, "store to unrecorded address {addr:#x}")
            }
            ReplayFailure::UnknownFree { addr } => {
                write!(f, "free of unrecorded address {addr:#x}")
            }
            ReplayFailure::UnrecordedControlFlow { tid, pc } => {
                write!(f, "thread {tid} reached unrecorded code at pc {pc}")
            }
            ReplayFailure::BudgetExhausted => write!(f, "replay step budget exhausted"),
            ReplayFailure::LogDamage => write!(f, "live-in state lost to log damage"),
        }
    }
}

impl std::error::Error for ReplayFailure {}

/// Virtual-processor options.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct VprocConfig {
    /// Total instruction budget per replay (both threads, all phases).
    pub step_budget: u64,
    /// Paper §4.2.1 extension: instead of failing on loads of unrecorded
    /// addresses, return the zero-fill value and keep replaying. Used by the
    /// `ablation_permissive` experiment.
    pub permissive_unknown_loads: bool,
    /// Paper §4.2.1 extension: allow the alternative replay to execute code
    /// outside the thread's recorded footprint ("execute down unseen control
    /// paths"). iDNA could not do this without logging more code; our
    /// substrate has the whole program, so the ablation can quantify the
    /// paper's prediction that the six replayer-limitation races become
    /// No-State-Change — and what it costs in missed harmful races.
    pub permissive_control_flow: bool,
}

impl Default for VprocConfig {
    fn default() -> Self {
        VprocConfig {
            step_budget: 100_000,
            permissive_unknown_loads: false,
            permissive_control_flow: false,
        }
    }
}

impl VprocConfig {
    /// The fully permissive configuration (both §4.2.1 extensions on).
    #[must_use]
    pub fn permissive() -> Self {
        VprocConfig {
            permissive_unknown_loads: true,
            permissive_control_flow: true,
            ..VprocConfig::default()
        }
    }
}

/// Work accounting for the shared-prefix batch engine.
///
/// Counters accumulate inside a [`Vproc`] and are drained with
/// [`Vproc::take_stats`]; the classifier sums them across workers (u64
/// addition commutes, so the totals are deterministic at any job count).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Multi-pair batches executed through the fork-point engine.
    pub batches: u64,
    /// Pairs resolved by forking from a shared-prefix checkpoint.
    pub forks: u64,
    /// Region prefix executions actually performed: 2 per [`Vproc::run_pair`]
    /// and 2 per multi-pair batch. The unbatched engine would have performed
    /// `2 × (run_pair calls + forks)`; the difference is the saving.
    pub prefix_executions: u64,
    /// Oracle instructions *not* re-executed thanks to prefix sharing: the
    /// sum of every forked pair's oracle distance minus the one prefix the
    /// batch actually ran.
    pub prefix_instrs_saved: u64,
    /// Live-in fetches answered by the materialized per-region
    /// [`LiveInIndex`].
    pub live_in_index_hits: u64,
}

impl BatchStats {
    /// Adds `other`'s counters into `self`.
    pub fn absorb(&mut self, other: BatchStats) {
        self.batches += other.batches;
        self.forks += other.forks;
        self.prefix_executions += other.prefix_executions;
        self.prefix_instrs_saved += other.prefix_instrs_saved;
        self.live_in_index_hits += other.live_in_index_hits;
    }
}

/// The live-out of one thread after its region finished in the virtual
/// processor: architectural state (registers, pc, call stack), fault, and
/// output. It holds no step count, so two interleavings that converge to
/// the same state after different spin counts are the *same result* in
/// the paper's sense.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadLiveOut {
    pub tid: usize,
    pub regs: [u64; tvm::isa::NUM_REGS],
    pub pc: usize,
    pub call_stack: Vec<usize>,
    pub fault: Option<Fault>,
    pub outputs: Vec<u64>,
}

/// The complete live-out of a dual-region replay: both threads'
/// architectural state plus the memory and heap effects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairLiveOut {
    /// Live-out of site `a`'s thread.
    pub a: ThreadLiveOut,
    /// Live-out of site `b`'s thread.
    pub b: ThreadLiveOut,
    /// Final value of every address written during the replay.
    pub writes: BTreeMap<u64, u64>,
    /// Heap bases freed during the replay.
    pub freed: BTreeSet<u64>,
    /// Heap bases allocated during the replay.
    pub allocated: BTreeSet<u64>,
}

impl PairLiveOut {
    /// Whether either thread faulted during the replay.
    #[must_use]
    pub fn any_fault(&self) -> bool {
        self.a.fault.is_some() || self.b.fault.is_some()
    }

    /// Whether this live-out reproduces the *recorded* exits of both
    /// regions — used to label which of the two orders is the original one
    /// in race reports.
    #[must_use]
    pub fn matches_recorded(&self, trace: &ReplayTrace, a: &AccessSite, b: &AccessSite) -> bool {
        let ra = trace.region(a.region);
        let rb = trace.region(b.region);
        thread_matches(&self.a, ra) && thread_matches(&self.b, rb)
    }
}

fn thread_matches(out: &ThreadLiveOut, region: &ReplayedRegion) -> bool {
    out.fault.is_none()
        && out.regs == region.exit.regs
        && out.pc == region.exit.pc
        && out.call_stack == region.exit.call_stack
        && out.outputs == region.outputs
}

/// One state mutation performed by the oracle phase.
///
/// The oracle never *reads* virtual-processor memory — it only populates it
/// from recorded access values — so a side's whole oracle phase can be
/// captured once as a stream of these and re-applied per pair as a cheap
/// map replay instead of instruction re-execution.
#[derive(Copy, Clone, Debug)]
enum OracleOp {
    /// First-use copy-in of a recorded read value (`or_insert` semantics).
    CopyIn { addr: u64, value: u64 },
    /// A store / RMW / successful-CAS write.
    Write { addr: u64, value: u64 },
    /// A recorded allocation (base comes from the syscall log).
    Alloc { base: u64, size: u64 },
    /// A recorded free.
    Free { base: u64 },
}

/// One entry of the fork undo log; rolling back pops these in reverse.
#[derive(Copy, Clone, Debug)]
enum UndoOp {
    /// `writes[addr]` changed; `prev` is the displaced value, if any.
    Write { addr: u64, prev: Option<u64> },
    /// `vallocs[base]` changed (and `vfreed` may have dropped `base`).
    Alloc { base: u64, prev_size: Option<u64>, was_freed: bool },
    /// `base` entered `vfreed`.
    FreeMark { base: u64 },
    /// The fresh-allocation cursor advanced from `prev`.
    Fresh { prev: u64 },
}

/// Memory as seen by the virtual processor: local writes over the live-in
/// image, with unknown-address detection.
struct VMem<'a> {
    trace: &'a ReplayTrace,
    base_version: u32,
    /// Starting timestamp of the base region: live-in fetches are ordered
    /// relative to it, so it is what damage horizons are compared against.
    base_ts: u64,
    /// Materialized live-in image at `base_version` (sorted table, one
    /// binary search per fetch).
    live_in: &'a LiveInIndex,
    writes: FastHashMap<u64, u64>,
    /// Allocations made during this replay: base -> size.
    vallocs: FastHashMap<u64, u64>,
    /// Bases freed during this replay.
    vfreed: BTreeSet<u64>,
    fresh: u64,
    permissive: bool,
    /// Fetches answered by `live_in`, drained into [`BatchStats`].
    index_hits: u64,
    /// When set, mutations are journaled here so a batch fork can roll
    /// back to the shared prefix instead of rebuilding the maps.
    undo: Option<Vec<UndoOp>>,
    /// When set, oracle mutations are *recorded* here instead of applied —
    /// the batch prefix runs in this mode so one execution yields a
    /// replayable per-side op stream.
    record: Option<Vec<OracleOp>>,
}

enum Mem {
    Value(u64),
    Fault(Fault),
    Fail(ReplayFailure),
}

impl<'a> VMem<'a> {
    fn new(trace: &'a ReplayTrace, base_version: u32, permissive: bool) -> Self {
        let base_ts = trace.regions().get(base_version as usize).map_or(0, |r| r.region.start_ts);
        VMem {
            trace,
            base_version,
            base_ts,
            live_in: trace.live_in_index(base_version),
            writes: FastHashMap::default(),
            vallocs: FastHashMap::default(),
            vfreed: BTreeSet::new(),
            fresh: VPROC_FRESH_BASE,
            permissive,
            index_hits: 0,
            undo: None,
            record: None,
        }
    }

    /// The live-in value at `addr` through the materialized index.
    #[inline]
    fn live_in_value(&mut self, addr: u64) -> u64 {
        self.index_hits += 1;
        self.live_in.get(addr).unwrap_or(0)
    }

    /// Applies `writes[addr] = value`, journaling the displaced value.
    fn write_word(&mut self, addr: u64, value: u64) {
        let prev = self.writes.insert(addr, value);
        if let Some(journal) = &mut self.undo {
            journal.push(UndoOp::Write { addr, prev });
        }
    }

    /// First-use copy-in: `writes.entry(addr).or_insert(value)`.
    fn copy_in(&mut self, addr: u64, value: u64) {
        if self.writes.contains_key(&addr) {
            return;
        }
        self.writes.insert(addr, value);
        if let Some(journal) = &mut self.undo {
            journal.push(UndoOp::Write { addr, prev: None });
        }
    }

    /// Marks `base` freed, journaling the transition.
    fn mark_freed(&mut self, base: u64) {
        if self.vfreed.insert(base) {
            if let Some(journal) = &mut self.undo {
                journal.push(UndoOp::FreeMark { base });
            }
        }
    }

    /// Oracle-phase copy-in (recorded when in record mode).
    fn oracle_copy_in(&mut self, addr: u64, value: u64) {
        match &mut self.record {
            Some(ops) => ops.push(OracleOp::CopyIn { addr, value }),
            None => self.copy_in(addr, value),
        }
    }

    /// Oracle-phase write (recorded when in record mode).
    fn oracle_write(&mut self, addr: u64, value: u64) {
        match &mut self.record {
            Some(ops) => ops.push(OracleOp::Write { addr, value }),
            None => self.write_word(addr, value),
        }
    }

    /// Oracle-phase allocation mirror (recorded when in record mode).
    fn oracle_alloc(&mut self, base: u64, size: u64) {
        match &mut self.record {
            Some(ops) => ops.push(OracleOp::Alloc { base, size }),
            None => {
                self.alloc(Some(base), size);
            }
        }
    }

    /// Oracle-phase free mirror (recorded when in record mode).
    fn oracle_free(&mut self, base: u64) {
        match &mut self.record {
            Some(ops) => ops.push(OracleOp::Free { base }),
            None => self.mark_freed(base),
        }
    }

    /// Number of oracle ops recorded so far (checkpoint cut points).
    fn recorded_len(&self) -> usize {
        self.record.as_ref().map_or(0, Vec::len)
    }

    /// Re-applies a slice of recorded oracle ops to the live maps.
    fn apply_ops(&mut self, ops: &[OracleOp]) {
        for &op in ops {
            match op {
                OracleOp::CopyIn { addr, value } => self.copy_in(addr, value),
                OracleOp::Write { addr, value } => self.write_word(addr, value),
                OracleOp::Alloc { base, size } => {
                    self.alloc(Some(base), size);
                }
                OracleOp::Free { base } => self.mark_freed(base),
            }
        }
    }

    /// Rolls the journaled state back to `mark`, undoing in reverse.
    fn rollback_to(&mut self, mark: usize) {
        let Some(mut journal) = self.undo.take() else { return };
        while journal.len() > mark {
            match journal.pop().expect("journal shorter than mark") {
                UndoOp::Write { addr, prev } => match prev {
                    Some(v) => {
                        self.writes.insert(addr, v);
                    }
                    None => {
                        self.writes.remove(&addr);
                    }
                },
                UndoOp::Alloc { base, prev_size, was_freed } => {
                    match prev_size {
                        Some(s) => {
                            self.vallocs.insert(base, s);
                        }
                        None => {
                            self.vallocs.remove(&base);
                        }
                    }
                    if was_freed {
                        self.vfreed.insert(base);
                    }
                }
                UndoOp::FreeMark { base } => {
                    self.vfreed.remove(&base);
                }
                UndoOp::Fresh { prev } => self.fresh = prev,
            }
        }
        self.undo = Some(journal);
    }

    /// Whether a live-in fetch of `addr` could be wrong because a damaged
    /// thread's writes (or heap traffic) were lost — in which case the
    /// replay must fail with [`ReplayFailure::LogDamage`] rather than
    /// compute live-outs from state the recording no longer vouches for.
    fn damage_tainted(&self, addr: u64) -> bool {
        let Some(damage) = self.trace.damage() else { return false };
        if addr < GLOBAL_LIMIT {
            damage.taints_global(addr, self.base_ts)
        } else if addr >= HEAP_BASE {
            damage.taints_heap(self.base_ts)
        } else {
            false
        }
    }

    fn size_of(&self, base: u64) -> Option<u64> {
        self.vallocs.get(&base).copied().or_else(|| self.trace.heap.size_of(base))
    }

    /// Whether `addr` lies inside a range freed during this replay.
    fn in_vfreed(&self, addr: u64) -> Option<u64> {
        self.vfreed
            .iter()
            .copied()
            .find(|&base| base <= addr && self.size_of(base).is_some_and(|s| addr < base + s))
    }

    /// Whether `addr` lies inside a range allocated during this replay.
    fn in_valloc(&self, addr: u64) -> bool {
        self.vallocs.iter().any(|(&base, &size)| base <= addr && addr < base + size)
    }

    fn load(&mut self, addr: u64) -> Mem {
        if let Some(&v) = self.writes.get(&addr) {
            return Mem::Value(v);
        }
        if addr < GLOBAL_LIMIT {
            // The versioned-memory fetch below reads recorded history; if
            // log damage could have cost us a write that feeds it, the
            // fetch is unanswerable.
            if self.damage_tainted(addr) {
                return Mem::Fail(ReplayFailure::LogDamage);
            }
            return Mem::Value(self.live_in_value(addr));
        }
        if addr < HEAP_BASE {
            return Mem::Fault(Fault::InvalidAccess { addr });
        }
        if self.in_vfreed(addr).is_some() {
            return Mem::Fault(Fault::UseAfterFree { addr });
        }
        if self.in_valloc(addr) {
            return Mem::Value(0);
        }
        // Past the pair-local allocations we depend on the recorded heap
        // history, which lost heap traffic invalidates wholesale.
        if self.damage_tainted(addr) {
            return Mem::Fail(ReplayFailure::LogDamage);
        }
        match self.trace.heap.state_at(addr, self.base_version) {
            HeapState::Live { .. } => Mem::Value(self.live_in_value(addr)),
            HeapState::Freed { .. } => Mem::Fault(Fault::UseAfterFree { addr }),
            HeapState::Unknown => {
                if self.permissive {
                    Mem::Value(0)
                } else {
                    Mem::Fail(ReplayFailure::UnknownLoad { addr })
                }
            }
        }
    }

    fn store(&mut self, addr: u64, value: u64) -> Mem {
        if addr >= GLOBAL_LIMIT {
            if addr < HEAP_BASE {
                return Mem::Fault(Fault::InvalidAccess { addr });
            }
            if self.in_vfreed(addr).is_some() {
                return Mem::Fault(Fault::UseAfterFree { addr });
            }
            if !self.in_valloc(addr) {
                if self.damage_tainted(addr) {
                    // Lost heap traffic: liveness of this address at the
                    // base version can no longer be judged.
                    return Mem::Fail(ReplayFailure::LogDamage);
                }
                match self.trace.heap.state_at(addr, self.base_version) {
                    HeapState::Live { .. } => {}
                    HeapState::Freed { .. } => return Mem::Fault(Fault::UseAfterFree { addr }),
                    HeapState::Unknown => {
                        if !self.permissive {
                            return Mem::Fail(ReplayFailure::UnknownStore { addr });
                        }
                    }
                }
            }
        }
        self.write_word(addr, value);
        Mem::Value(value)
    }

    fn alloc(&mut self, recorded_base: Option<u64>, size: u64) -> u64 {
        let size = size.max(1);
        let base = match recorded_base {
            Some(b) => b,
            None => {
                let b = self.fresh;
                if let Some(journal) = &mut self.undo {
                    journal.push(UndoOp::Fresh { prev: b });
                }
                self.fresh += size + 1;
                b
            }
        };
        let prev_size = self.vallocs.insert(base, size);
        let was_freed = self.vfreed.remove(&base);
        if let Some(journal) = &mut self.undo {
            journal.push(UndoOp::Alloc { base, prev_size, was_freed });
        }
        base
    }

    fn free(&mut self, base: u64) -> Mem {
        if self.vfreed.contains(&base) {
            // Double free: the paper's Figure 2 bug, observed.
            return Mem::Fault(Fault::InvalidFree { addr: base });
        }
        if self.vallocs.contains_key(&base) {
            self.mark_freed(base);
            return Mem::Value(0);
        }
        if self.damage_tainted(base) {
            return Mem::Fail(ReplayFailure::LogDamage);
        }
        match self.trace.heap.state_at(base, self.base_version) {
            HeapState::Live { base: b } if b == base => {
                self.mark_freed(base);
                Mem::Value(0)
            }
            HeapState::Live { .. } => Mem::Fault(Fault::InvalidFree { addr: base }),
            HeapState::Freed { .. } => Mem::Fault(Fault::InvalidFree { addr: base }),
            HeapState::Unknown => Mem::Fail(ReplayFailure::UnknownFree { addr: base }),
        }
    }
}

/// A fork point parked during a batch's shared-prefix execution: enough to
/// rebuild a [`VThread`] exactly as the unbatched oracle phase would have
/// left it at this racing index.
///
/// Outputs are *not* stored: the oracle reproduces the recording exactly,
/// so the thread's output buffer at the checkpoint is a prefix of
/// `region.outputs` and only its length is kept.
#[derive(Clone, Debug)]
struct Checkpoint {
    snap: ThreadSnapshot,
    instr: u64,
    access_cursor: usize,
    sys_cursor: usize,
    outputs_len: usize,
    /// Oracle-op stream position: ops `[..ops_len]` rebuild this side's
    /// memory effect up to the checkpoint.
    ops_len: usize,
    done: bool,
}

/// Reusable per-[`Vproc`] working state — the pooled scratch behind both
/// [`Vproc::run_pair`] and [`Vproc::run_batch`].
///
/// The seed implementation cloned `region.entry` (registers, pc, and a
/// freshly allocated call stack) for each thread on every replay — twice
/// per race instance for the two pair orders, and again for every instance
/// of the same static race. The arena keeps one copy per thread slot and
/// overwrites it in place, so steady-state replays allocate nothing for
/// snapshots or outputs. The batch engine extends the pool with per-side
/// checkpoint chains, recorded oracle-op streams, stop lists, and the fork
/// undo journal; all of it is capacity-reused across batches (and, because
/// each classifier worker owns its `Vproc`, across that worker's whole run).
#[derive(Debug)]
struct SnapshotArena {
    snaps: [ThreadSnapshot; 2],
    outputs: [Vec<u64>; 2],
    checkpoints: [Vec<Checkpoint>; 2],
    ops: [Vec<OracleOp>; 2],
    stops: [Vec<u64>; 2],
    journal: Vec<UndoOp>,
}

impl Default for SnapshotArena {
    fn default() -> Self {
        let blank = ThreadSnapshot { regs: [0; NUM_REGS], pc: 0, call_stack: Vec::new() };
        SnapshotArena {
            snaps: [blank.clone(), blank],
            outputs: [Vec::new(), Vec::new()],
            checkpoints: [Vec::new(), Vec::new()],
            ops: [Vec::new(), Vec::new()],
            stops: [Vec::new(), Vec::new()],
            journal: Vec::new(),
        }
    }
}

impl SnapshotArena {
    /// Resets both snapshot slots from the region entries and hands out the
    /// working borrows.
    fn checkout(
        &mut self,
        entry_a: &ThreadSnapshot,
        entry_b: &ThreadSnapshot,
    ) -> [(&mut ThreadSnapshot, &mut Vec<u64>); 2] {
        let [sa, sb] = &mut self.snaps;
        let [oa, ob] = &mut self.outputs;
        for (slot, entry) in [(&mut *sa, entry_a), (&mut *sb, entry_b)] {
            slot.regs = entry.regs;
            slot.pc = entry.pc;
            slot.call_stack.clear();
            slot.call_stack.extend_from_slice(&entry.call_stack);
        }
        oa.clear();
        ob.clear();
        [(sa, oa), (sb, ob)]
    }
}

/// Per-thread virtual-processor state. The snapshot and output buffers are
/// borrowed from the [`SnapshotArena`] and live only for one `run_pair`.
struct VThread<'a, 's> {
    tid: usize,
    /// The region's recorded values, with the oracle's cursors into them.
    values: RegionValues<'a>,
    snap: &'s mut ThreadSnapshot,
    /// Absolute thread-local instruction index about to execute. Only the
    /// oracle phase reads it, so only the oracle step advances it.
    instr: u64,
    racing_index: u64,
    outputs: &'s mut Vec<u64>,
    fault: Option<Fault>,
    done: bool,
}

impl<'a, 's> VThread<'a, 's> {
    fn new(
        region: &'a ReplayedRegion,
        racing_index: u64,
        (snap, outputs): (&'s mut ThreadSnapshot, &'s mut Vec<u64>),
    ) -> Self {
        VThread {
            tid: region.region.id.tid,
            values: RegionValues::new(region),
            snap,
            instr: region.region.start_instr,
            racing_index,
            outputs,
            fault: None,
            done: false,
        }
    }

    /// Rebuilds a thread exactly as the oracle phase would have left it at
    /// the checkpointed racing index, reusing the arena slot's allocations.
    fn from_checkpoint(
        region: &'a ReplayedRegion,
        racing_index: u64,
        cp: &Checkpoint,
        (snap, outputs): (&'s mut ThreadSnapshot, &'s mut Vec<u64>),
    ) -> Self {
        snap.regs = cp.snap.regs;
        snap.pc = cp.snap.pc;
        snap.call_stack.clear();
        snap.call_stack.extend_from_slice(&cp.snap.call_stack);
        outputs.clear();
        outputs.extend_from_slice(&region.outputs[..cp.outputs_len]);
        VThread {
            tid: region.region.id.tid,
            values: RegionValues { region, access: cp.access_cursor, sys: cp.sys_cursor },
            snap,
            instr: cp.instr,
            racing_index,
            outputs,
            fault: None,
            done: cp.done,
        }
    }

    fn reg(&self, r: Reg) -> u64 {
        self.snap.regs[r.index()]
    }

    /// Register read by predecoded (raw) index.
    fn reg_i(&self, i: u8) -> u64 {
        self.snap.regs[i as usize]
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        self.snap.regs[r.index()] = v;
    }

    /// Register write by predecoded (raw) index.
    fn set_reg_i(&mut self, i: u8, v: u64) {
        self.snap.regs[i as usize] = v;
    }

    fn live_out(&self) -> ThreadLiveOut {
        ThreadLiveOut {
            tid: self.tid,
            regs: self.snap.regs,
            pc: self.snap.pc,
            call_stack: self.snap.call_stack.clone(),
            fault: self.fault,
            outputs: self.outputs.clone(),
        }
    }
}

/// The virtual processor: replays racing region pairs under chosen orders.
///
/// # Examples
///
/// See the crate-level documentation and the `replay-race` crate's
/// classification pipeline, which drives this type for every race instance.
#[derive(Debug)]
pub struct Vproc<'a> {
    trace: &'a ReplayTrace,
    config: VprocConfig,
    /// Pooled scratch; see [`SnapshotArena`]. The `RefCell` keeps `run_pair`
    /// and `run_batch` callable through `&self` (each classifier worker owns
    /// its own `Vproc`, so there is no sharing to guard).
    scratch: RefCell<SnapshotArena>,
    /// Batch-engine work counters, drained by [`Vproc::take_stats`].
    stats: Cell<BatchStats>,
}

impl<'a> Vproc<'a> {
    /// Creates a virtual processor over a replayed trace.
    #[must_use]
    pub fn new(trace: &'a ReplayTrace, config: VprocConfig) -> Self {
        Vproc {
            trace,
            config,
            scratch: RefCell::new(SnapshotArena::default()),
            stats: Cell::new(BatchStats::default()),
        }
    }

    /// The trace this virtual processor replays.
    #[must_use]
    pub fn trace(&self) -> &ReplayTrace {
        self.trace
    }

    /// Drains the accumulated batch/fork/live-in counters.
    pub fn take_stats(&self) -> BatchStats {
        self.stats.take()
    }

    fn bump(&self, f: impl FnOnce(&mut BatchStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Replays the regions of `a` and `b` with the racing instructions in
    /// the given order.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayFailure`] when the replay leaves recorded ground
    /// (unknown addresses, unrecorded control flow) or exceeds the step
    /// budget. Machine *faults* are not errors: they complete the replay and
    /// appear in the live-out (a fault difference between the two orders is
    /// a state change — the paper's Figure 2 scenario).
    ///
    /// # Panics
    ///
    /// Panics if the two sites are in the same thread (not a data race).
    pub fn run_pair(
        &self,
        a: &AccessSite,
        b: &AccessSite,
        order: PairOrder,
    ) -> Result<PairLiveOut, ReplayFailure> {
        assert_ne!(a.tid(), b.tid(), "racing accesses must be in different threads");
        let ra = self.trace.region(a.region);
        let rb = self.trace.region(b.region);
        let base_version = ra.version.min(rb.version);
        let mut vmem = VMem::new(self.trace, base_version, self.config.permissive_unknown_loads);
        let result = self.run_pair_in(a, b, order, ra, rb, &mut vmem);
        self.bump(|s| {
            s.prefix_executions += 2;
            s.live_in_index_hits += vmem.index_hits;
        });
        result
    }

    fn run_pair_in(
        &self,
        a: &AccessSite,
        b: &AccessSite,
        order: PairOrder,
        ra: &'a ReplayedRegion,
        rb: &'a ReplayedRegion,
        vmem: &mut VMem<'_>,
    ) -> Result<PairLiveOut, ReplayFailure> {
        let mut scratch = self.scratch.borrow_mut();
        let [slot_a, slot_b] = scratch.checkout(&ra.entry, &rb.entry);
        let mut threads =
            [VThread::new(ra, a.instr_index, slot_a), VThread::new(rb, b.instr_index, slot_b)];
        let mut budget = self.config.step_budget;

        // Phase 1: oracle-replay each thread up to its racing instruction,
        // earlier-replayed region first so its writes are applied first.
        let phase_a_order: [usize; 2] = if ra.version <= rb.version { [0, 1] } else { [1, 0] };
        for idx in phase_a_order {
            let t = &mut threads[idx];
            while t.instr < t.racing_index {
                if budget == 0 {
                    return Err(ReplayFailure::BudgetExhausted);
                }
                budget -= 1;
                step_oracle(self.trace, t, vmem);
            }
        }

        self.run_phases_2_3(&mut threads, vmem, budget, order)?;
        Ok(collect_live_out(&threads, vmem))
    }

    /// Phases 2–3: the racing instructions live in the prescribed order,
    /// then both threads round-robin to their region ends. Shared verbatim
    /// by the unbatched and fork-resumed paths — equivalence depends on it.
    fn run_phases_2_3(
        &self,
        threads: &mut [VThread<'_, '_>; 2],
        vmem: &mut VMem<'_>,
        mut budget: u64,
        order: PairOrder,
    ) -> Result<(), ReplayFailure> {
        // Phase 2: the racing instructions, live, in the prescribed order.
        let exec_order: [usize; 2] = match order {
            PairOrder::AThenB => [0, 1],
            PairOrder::BThenA => [1, 0],
        };
        for idx in exec_order {
            if budget == 0 {
                return Err(ReplayFailure::BudgetExhausted);
            }
            budget -= 1;
            if !threads[idx].done {
                step_live(
                    self.trace,
                    &mut threads[idx],
                    vmem,
                    self.config.permissive_control_flow,
                )?;
            }
        }

        // Phase 3: run both threads round-robin to their region ends.
        while threads.iter().any(|t| !t.done) {
            #[allow(clippy::needless_range_loop)] // vmem is borrowed inside the body
            for idx in 0..2 {
                let done_check = {
                    let t = &mut threads[idx];
                    if t.done {
                        continue;
                    }
                    // Region end: the next instruction would log a sequencer
                    // (one predecoded-flag byte load; out-of-range pcs are
                    // not sequencer points, matching the seed's lookup).
                    self.trace.decoded().is_sequencer_point(t.snap.pc)
                };
                if done_check {
                    threads[idx].done = true;
                    continue;
                }
                if budget == 0 {
                    return Err(ReplayFailure::BudgetExhausted);
                }
                budget -= 1;
                step_live(
                    self.trace,
                    &mut threads[idx],
                    vmem,
                    self.config.permissive_control_flow,
                )?;
            }
        }
        Ok(())
    }

    /// Replays every pair of a batch — all sharing one `(region_a,
    /// region_b)` pair — under `order`, executing the common oracle prefix
    /// once and forking each pair from the checkpoint at its racing
    /// indexes.
    ///
    /// Bit-for-bit equivalent to calling [`Vproc::run_pair`] on each pair
    /// in sequence; results come back in input order. Singleton batches
    /// simply delegate to [`Vproc::run_pair`].
    ///
    /// # Panics
    ///
    /// Panics if the pairs do not all share the first pair's region pair,
    /// or if the two sites are in the same thread (not a data race).
    pub fn run_batch(
        &self,
        pairs: &[(AccessSite, AccessSite)],
        order: PairOrder,
    ) -> Vec<Result<PairLiveOut, ReplayFailure>> {
        let Some((first_a, first_b)) = pairs.first() else { return Vec::new() };
        if pairs.len() == 1 {
            return vec![self.run_pair(first_a, first_b, order)];
        }
        assert!(
            pairs.iter().all(|(a, b)| a.region == first_a.region && b.region == first_b.region),
            "batch must share one region pair"
        );
        assert_ne!(first_a.tid(), first_b.tid(), "racing accesses must be in different threads");
        let ra = self.trace.region(first_a.region);
        let rb = self.trace.region(first_b.region);

        // Price every pair up front: a pair whose oracle distance alone
        // reaches the budget fails exactly like the unbatched engine would
        // (phase 2 always needs at least one step of headroom), without
        // executing anything.
        let budget = self.config.step_budget;
        let mut results: Vec<Option<Result<PairLiveOut, ReplayFailure>>> = vec![None; pairs.len()];
        let mut survivors: Vec<usize> = Vec::with_capacity(pairs.len());
        for (i, (a, b)) in pairs.iter().enumerate() {
            let pa = ra.region.instr_offset(a.instr_index) + rb.region.instr_offset(b.instr_index);
            if pa >= budget {
                results[i] = Some(Err(ReplayFailure::BudgetExhausted));
            } else {
                survivors.push(i);
            }
        }
        if survivors.len() <= 1 {
            // Nothing to share; resolve any lone survivor the plain way.
            if let Some(&i) = survivors.first() {
                results[i] = Some(self.run_pair(&pairs[i].0, &pairs[i].1, order));
            }
            return results.into_iter().map(|r| r.expect("every slot filled")).collect();
        }

        let base_version = ra.version.min(rb.version);
        let mut vmem = VMem::new(self.trace, base_version, self.config.permissive_unknown_loads);
        let mut scratch = self.scratch.borrow_mut();
        let arena = &mut *scratch;

        // The checkpoint chain: distinct racing indexes per side, sorted.
        let [stops_a, stops_b] = &mut arena.stops;
        stops_a.clear();
        stops_b.clear();
        for &i in &survivors {
            stops_a.push(pairs[i].0.instr_index);
            stops_b.push(pairs[i].1.instr_index);
        }
        for stops in [&mut *stops_a, &mut *stops_b] {
            stops.sort_unstable();
            stops.dedup();
        }

        // Execute each side's oracle prefix once, in record mode, parking a
        // checkpoint at every stop.
        let [cps_a, cps_b] = &mut arena.checkpoints;
        let [ops_a, ops_b] = &mut arena.ops;
        let [snap_a, snap_b] = &mut arena.snaps;
        let [out_a, out_b] = &mut arena.outputs;
        for (region, stops, cps, ops, snap, out) in [
            (ra, &mut *stops_a, &mut *cps_a, &mut *ops_a, &mut *snap_a, &mut *out_a),
            (rb, &mut *stops_b, &mut *cps_b, &mut *ops_b, &mut *snap_b, &mut *out_b),
        ] {
            cps.clear();
            ops.clear();
            vmem.record = Some(std::mem::take(ops));
            run_prefix(self.trace, region, stops, &mut vmem, (snap, out), cps);
            *ops = vmem.record.take().expect("record mode still on");
        }

        // The first-applied side is the earlier-replayed region, matching
        // the unbatched phase-1 order; its effect up to its earliest stop
        // is shared by every pair, so apply it once, un-journaled.
        let a_first = ra.version <= rb.version;
        let (first_ops, second_ops) = if a_first { (&*ops_a, &*ops_b) } else { (&*ops_b, &*ops_a) };
        let base_len = if a_first { cps_a[0].ops_len } else { cps_b[0].ops_len };
        vmem.apply_ops(&first_ops[..base_len]);
        arena.journal.clear();
        vmem.undo = Some(std::mem::take(&mut arena.journal));

        let mut total_oracle = 0u64;
        for &i in &survivors {
            let (a, b) = &pairs[i];
            let off_a = ra.region.instr_offset(a.instr_index);
            let off_b = rb.region.instr_offset(b.instr_index);
            total_oracle += off_a + off_b;
            let cp_a = &cps_a[stops_a.binary_search(&a.instr_index).expect("stop parked")];
            let cp_b = &cps_b[stops_b.binary_search(&b.instr_index).expect("stop parked")];
            // Memory: the first side's delta past the shared base, then the
            // second side in full — the unbatched phase-1 sequence.
            let (first_cp, second_cp) = if a_first { (cp_a, cp_b) } else { (cp_b, cp_a) };
            vmem.apply_ops(&first_ops[base_len..first_cp.ops_len]);
            vmem.apply_ops(&second_ops[..second_cp.ops_len]);
            let mut threads = [
                VThread::from_checkpoint(ra, a.instr_index, cp_a, (&mut *snap_a, &mut *out_a)),
                VThread::from_checkpoint(rb, b.instr_index, cp_b, (&mut *snap_b, &mut *out_b)),
            ];
            let res = self
                .run_phases_2_3(&mut threads, &mut vmem, budget - (off_a + off_b), order)
                .map(|()| collect_live_out(&threads, &vmem));
            results[i] = Some(res);
            vmem.rollback_to(0);
        }

        // Return the journal to the pool and settle the books.
        arena.journal = vmem.undo.take().expect("undo mode still on");
        let prefix_cost = ra.region.instr_offset(*stops_a.last().expect("survivors have stops"))
            + rb.region.instr_offset(*stops_b.last().expect("survivors have stops"));
        self.bump(|s| {
            s.batches += 1;
            s.forks += survivors.len() as u64;
            s.prefix_executions += 2;
            s.prefix_instrs_saved += total_oracle - prefix_cost;
            s.live_in_index_hits += vmem.index_hits;
        });
        results.into_iter().map(|r| r.expect("every slot filled")).collect()
    }
}

/// Collects both threads' live-outs plus the memory/heap effect, leaving
/// the virtual memory intact (the batch engine rolls it back afterwards).
fn collect_live_out(threads: &[VThread<'_, '_>; 2], vmem: &VMem<'_>) -> PairLiveOut {
    let [ta, tb] = threads;
    PairLiveOut {
        a: ta.live_out(),
        b: tb.live_out(),
        writes: vmem.writes.iter().map(|(&addr, &v)| (addr, v)).collect(),
        freed: vmem.vfreed.clone(),
        allocated: vmem.vallocs.keys().copied().collect(),
    }
}

/// Executes one side's oracle prefix from the region entry to the last
/// stop, parking a [`Checkpoint`] at every stop index. The virtual memory
/// must be in record mode: nothing is applied, and each checkpoint stores
/// its cut point into the recorded op stream.
fn run_prefix(
    trace: &ReplayTrace,
    region: &ReplayedRegion,
    stops: &[u64],
    vmem: &mut VMem<'_>,
    (snap, outputs): (&mut ThreadSnapshot, &mut Vec<u64>),
    checkpoints: &mut Vec<Checkpoint>,
) {
    snap.regs = region.entry.regs;
    snap.pc = region.entry.pc;
    snap.call_stack.clear();
    snap.call_stack.extend_from_slice(&region.entry.call_stack);
    outputs.clear();
    let last = *stops.last().expect("batch has at least one stop");
    let mut t = VThread::new(region, last, (snap, outputs));
    let mut si = 0;
    loop {
        while si < stops.len() && t.instr == stops[si] {
            checkpoints.push(Checkpoint {
                snap: t.snap.clone(),
                instr: t.instr,
                access_cursor: t.values.access,
                sys_cursor: t.values.sys,
                outputs_len: t.outputs.len(),
                ops_len: vmem.recorded_len(),
                done: t.done,
            });
            si += 1;
        }
        if si == stops.len() {
            break;
        }
        step_oracle(trace, &mut t, vmem);
    }
}

/// Oracle step: re-executes one instruction with the region's recorded
/// values (this cannot diverge), mirroring its memory and heap effects into
/// the virtual memory.
fn step_oracle(trace: &ReplayTrace, t: &mut VThread<'_, '_>, vmem: &mut VMem<'_>) {
    let instr_index = t.instr;
    t.instr += 1;
    let mut oracle = Oracle { values: &mut t.values, outputs: &mut *t.outputs, vmem };
    let Ok(stepped) = step_recorded(trace.decoded(), t.snap, instr_index, &mut oracle);
    match stepped {
        Stepped::Next => {}
        Stepped::Halted => t.done = true,
        Stepped::Faulted => panic!("oracle replay re-faulted at pc {}", t.snap.pc),
    }
}

/// The oracle phase's source: a region's recorded values, each mirrored
/// into the virtual memory (or its recorded op stream) as it is read.
struct Oracle<'t, 'a, 'm> {
    values: &'t mut RegionValues<'a>,
    outputs: &'t mut Vec<u64>,
    vmem: &'t mut VMem<'m>,
}

impl Recorded for Oracle<'_, '_, '_> {
    type Error = Infallible;

    fn load(&mut self, instr_index: u64, pc: usize, addr: u64) -> u64 {
        let value = self.values.load(instr_index, pc, addr);
        self.vmem.oracle_copy_in(addr, value); // first-use copy-in
        value
    }

    fn store(&mut self, instr_index: u64, pc: usize, addr: u64, value: u64) {
        self.values.store(instr_index, pc, addr, value);
        self.vmem.oracle_write(addr, value);
    }

    /// One op per atomic: the write when it stored, else the copy-in of the
    /// value it read.
    fn update(
        &mut self,
        instr_index: u64,
        pc: usize,
        addr: u64,
        new: impl FnOnce(u64) -> Option<u64>,
    ) -> u64 {
        let old = self.values.load(instr_index, pc, addr);
        match new(old) {
            Some(value) => self.store(instr_index, pc, addr, value),
            None => self.vmem.oracle_copy_in(addr, old),
        }
        old
    }

    fn syscall(&mut self, instr_index: u64, call: SysCall, arg: u64) -> Result<u64, Infallible> {
        let ret = self.values.syscall(instr_index, call, arg)?;
        match call {
            SysCall::Alloc => self.vmem.oracle_alloc(ret, arg.max(1)),
            // The recorded free succeeded; mirror it.
            SysCall::Free => self.vmem.oracle_free(arg),
            SysCall::Print => self.outputs.push(arg),
            SysCall::Tid | SysCall::Yield | SysCall::Nop => {}
        }
        Ok(ret)
    }
}

/// Live step: execute one instruction against the virtual-processor memory.
fn step_live(
    trace: &ReplayTrace,
    t: &mut VThread<'_, '_>,
    vmem: &mut VMem<'_>,
    allow_unrecorded_cf: bool,
) -> Result<(), ReplayFailure> {
    let pc = t.snap.pc;
    if !allow_unrecorded_cf && !trace.in_footprint(t.tid, pc) {
        return Err(ReplayFailure::UnrecordedControlFlow { tid: t.tid, pc });
    }
    let Some(&op) = trace.decoded().op(pc) else {
        t.fault = Some(Fault::PcOutOfRange { pc });
        t.done = true;
        return Ok(());
    };
    let next = pc + 1;

    let fault = |t: &mut VThread<'_, '_>, f: Fault| {
        t.fault = Some(f);
        t.done = true;
    };

    macro_rules! mem_value {
        ($t:ident, $e:expr) => {
            match $e {
                Mem::Value(v) => v,
                Mem::Fault(f) => {
                    fault($t, f);
                    return Ok(());
                }
                Mem::Fail(failure) => return Err(failure),
            }
        };
    }

    match op {
        Decoded::MovImm { dst, imm } => {
            t.set_reg_i(dst, imm);
            t.snap.pc = next;
        }
        Decoded::Mov { dst, src } => {
            let v = t.reg_i(src);
            t.set_reg_i(dst, v);
            t.snap.pc = next;
        }
        Decoded::Bin { op, dst, lhs, rhs } => match op.apply(t.reg_i(lhs), t.reg_i(rhs)) {
            Some(v) => {
                t.set_reg_i(dst, v);
                t.snap.pc = next;
            }
            None => fault(t, Fault::DivideByZero),
        },
        Decoded::BinImm { op, dst, lhs, imm } => match op.apply(t.reg_i(lhs), imm) {
            Some(v) => {
                t.set_reg_i(dst, v);
                t.snap.pc = next;
            }
            None => fault(t, Fault::DivideByZero),
        },
        Decoded::Load { dst, base, offset } => {
            let addr = t.reg_i(base).wrapping_add(offset as u64);
            let v = mem_value!(t, vmem.load(addr));
            t.set_reg_i(dst, v);
            t.snap.pc = next;
        }
        Decoded::Store { src, base, offset } => {
            let addr = t.reg_i(base).wrapping_add(offset as u64);
            let v = t.reg_i(src);
            mem_value!(t, vmem.store(addr, v));
            t.snap.pc = next;
        }
        Decoded::AtomicRmw { op, dst, base, offset, src } => {
            let addr = t.reg_i(base).wrapping_add(offset as u64);
            let old = mem_value!(t, vmem.load(addr));
            let new = op.apply(old, t.reg_i(src));
            mem_value!(t, vmem.store(addr, new));
            t.set_reg_i(dst, old);
            t.snap.pc = next;
        }
        Decoded::AtomicCas { dst, base, offset, expected, new } => {
            let addr = t.reg_i(base).wrapping_add(offset as u64);
            let old = mem_value!(t, vmem.load(addr));
            let success = old == t.reg_i(expected);
            if success {
                let nv = t.reg_i(new);
                mem_value!(t, vmem.store(addr, nv));
            }
            t.set_reg_i(dst, u64::from(success));
            t.snap.pc = next;
        }
        Decoded::Fence => t.snap.pc = next,
        Decoded::Jump { target } => t.snap.pc = target as usize,
        Decoded::Branch { cond, lhs, rhs, target } => {
            t.snap.pc = if cond.eval(t.reg_i(lhs), t.reg_i(rhs)) { target as usize } else { next };
        }
        Decoded::Call { target } => {
            if t.snap.call_stack.len() >= MAX_CALL_DEPTH {
                fault(t, Fault::CallStackOverflow);
            } else {
                t.snap.call_stack.push(next);
                t.snap.pc = target as usize;
            }
        }
        Decoded::Ret => match t.snap.call_stack.pop() {
            Some(ret) => t.snap.pc = ret,
            None => fault(t, Fault::CallStackUnderflow),
        },
        Decoded::Syscall { call } => {
            // Re-use the recorded result when the recorded syscall stream is
            // still aligned (same call kind at the cursor); otherwise the
            // execution has diverged and results are synthesized.
            let v = &mut t.values;
            let recorded = v.region.syscalls.get(v.sys).filter(|s| s.call == call).map(|s| s.ret);
            if recorded.is_some() {
                v.sys += 1;
            }
            let ret = match call {
                SysCall::Alloc => {
                    let size = t.reg(Reg::R0).max(1);
                    vmem.alloc(recorded, size)
                }
                SysCall::Free => {
                    let base = t.reg(Reg::R0);
                    mem_value!(t, vmem.free(base));
                    0
                }
                SysCall::Print => {
                    let v = t.reg(Reg::R0);
                    t.outputs.push(v);
                    v
                }
                SysCall::Tid => t.tid as u64,
                SysCall::Yield | SysCall::Nop => 0,
            };
            t.set_reg(Reg::R0, ret);
            t.snap.pc = next;
        }
        Decoded::Halt => {
            t.done = true;
        }
    }
    Ok(())
}
