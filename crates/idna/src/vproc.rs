//! The virtual processor (paper §4.2): replays the two sequencing regions
//! involved in a data race under **both** orders of the racing memory
//! operations, producing comparable live-outs.
//!
//! Execution proceeds in three phases. Every phase steps through the
//! machine's own instruction body, [`tvm::exec::step`], as the replayer
//! does; only the source of each value differs.
//!
//! 1. **Oracle phase** — each thread is replayed *from the log* (via the
//!    recorded access values) up to, but not including, its racing
//!    instruction ("we replay both threads for the region up until we get to
//!    the data race instruction in each thread"). Its source reads the
//!    region's recorded accesses and system calls, so it re-executes exactly
//!    what the replay did. It never reads the virtual memory: it records
//!    each memory and heap effect as an op, and a side's ops are applied
//!    once that side reaches its racing instruction.
//! 2. **Order phase** — the two racing instructions execute *live*, in the
//!    prescribed order.
//! 3. **Completion phase** — both threads run live, round-robin, until each
//!    reaches the end of its sequencing region (the next synchronization
//!    instruction or system call), halts, or faults.
//!
//! The live phases' source is the virtual memory: it reads copy-on-first-use
//! from the live-in image (the versioned memory at the earlier region's
//! entry) and raises the machine's memory faults. Reads of addresses the
//! recording never saw, or control flow leaving the recorded code
//! footprint, are **replay failures** (§4.2.1). The live phases never
//! execute a system call — every system call is a sequencer point, the
//! completion phase stops before one, and the order phase executes only a
//! racing access — so they change nothing but memory words.
//!
//! # One prefix for both orders
//!
//! The oracle phase does not depend on the order, and most pairs of one
//! region pair differ only in *where* the racing instructions sit.
//! [`Vproc::run_unit`] resolves every pair of a region pair under both
//! orders in one call. Each side's oracle prefix runs **once**, parking a
//! cheap [fork-point checkpoint](ThreadSnapshot) at every distinct racing
//! index (a checkpoint chain when the indexes spread across the region).
//! Each pair applies its phase-1 memory once, replays a-then-b and then
//! b-then-a from its checkpoints, and compares the two against the live
//! state: the exits in their arena slots, and the words each order's live
//! phases wrote, merged by address. Memory is forked with an undo log — the
//! virtual memory journals every touched word and rolls back between the
//! orders and after each pair instead of deep-copying. A [`PairLiveOut`] is
//! built only for a pair the caller keeps. A live-in fetch reads the
//! trace's versioned memory history at the base version.
//!
//! [`Vproc::run_pair`] replays one order of one pair from scratch; it is the
//! reference. `run_unit`'s outcomes equal [`PairOutcome::of`] two `run_pair`
//! results, and its kept live-outs equal them (`tests/vproc_unit.rs` here
//! and `tests/batch_equiv.rs` in the workspace root pin both). Work saved is
//! accounted in [`BatchStats`].

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::fmt;

use tvm::exec::{step, AccessKind, Source, Stepped, Trap, Trapped};
use tvm::fasthash::FastHashMap;
use tvm::isa::{SysCall, NUM_REGS};
use tvm::machine::{Fault, ThreadSnapshot};
use tvm::memory::{GLOBAL_LIMIT, HEAP_BASE};

use crate::region::RegionId;
use crate::replayer::{HeapState, RegionValues, ReplayTrace, ReplayedRegion};

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
            ReplayFailure::UnrecordedControlFlow { tid, pc } => {
                write!(f, "thread {tid} reached unrecorded code at pc {pc}")
            }
            ReplayFailure::BudgetExhausted => write!(f, "replay step budget exhausted"),
            ReplayFailure::LogDamage => write!(f, "live-in state lost to log damage"),
        }
    }
}

impl std::error::Error for ReplayFailure {}

/// Total instruction budget per replay (both threads, all phases).
pub const STEP_BUDGET: u64 = 100_000;

/// Virtual-processor options.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VprocConfig {
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

impl VprocConfig {
    /// The fully permissive configuration (both §4.2.1 extensions on).
    #[must_use]
    pub fn permissive() -> Self {
        VprocConfig { permissive_unknown_loads: true, permissive_control_flow: true }
    }
}

/// Work accounting for the replay engines.
///
/// Counters accumulate inside a [`Vproc`] and are drained with
/// [`Vproc::take_stats`]; the classifier sums them across workers (u64
/// addition commutes, so the totals are deterministic at any job count).
/// A pair is *inside the budget* when its oracle distance (both sides'
/// instructions from region entry to the racing access) is below
/// [`STEP_BUDGET`]; [`Vproc::run_unit`] fails the others without executing
/// anything.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Multi-pair units: one per [`Vproc::run_unit`] call with at least two
    /// pairs inside the budget.
    pub batches: u64,
    /// Order replays of those units' pairs resumed from a shared-prefix
    /// checkpoint: two per pair inside the budget, one per order.
    pub forks: u64,
    /// Region prefix executions actually performed: 2 per [`Vproc::run_pair`]
    /// and 2 per [`Vproc::run_unit`] call with a pair inside the budget —
    /// each side's prefix runs once for every pair and both orders.
    pub prefix_executions: u64,
    /// Oracle instructions *not* executed thanks to the shared prefix: for
    /// each `run_unit` call, twice the sum of its pairs' oracle distances
    /// (what one `run_pair` per order and pair executes) minus the prefix it
    /// actually ran (each side to its last racing index, once).
    pub prefix_instrs_saved: u64,
    /// Live-in fetches answered from the versioned history.
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
/// architectural state plus the memory effect. The heap is not part of it:
/// only phase 1's oracle ops allocate or free (the live phases execute no
/// system call), so both orders of a pair always end with the same heap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairLiveOut {
    /// Live-out of site `a`'s thread.
    pub a: ThreadLiveOut,
    /// Live-out of site `b`'s thread.
    pub b: ThreadLiveOut,
    /// Final value of every address written during the replay.
    pub writes: BTreeMap<u64, u64>,
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
        self.a.exit().matches(trace.region(a.region))
            && self.b.exit().matches(trace.region(b.region))
    }
}

impl ThreadLiveOut {
    fn exit(&self) -> Exit<'_> {
        Exit {
            regs: &self.regs,
            pc: self.pc,
            call_stack: &self.call_stack,
            fault: self.fault,
            outputs: &self.outputs,
        }
    }
}

/// One pair replayed under both orders: what classification reads of the
/// two live-outs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PairOutcome {
    /// Per order, a-then-b first: whether the replay reproduced both
    /// regions' recorded exits ([`PairLiveOut::matches_recorded`]), or why
    /// it failed.
    pub orders: [Result<bool, ReplayFailure>; 2],
    /// Whether both orders completed with equal live-outs.
    pub same: bool,
}

impl PairOutcome {
    /// The outcome of a pair's two [`Vproc::run_pair`] results, a-then-b
    /// first — the reference [`Vproc::run_unit`] computes in place.
    #[must_use]
    pub fn of(
        trace: &ReplayTrace,
        a: &AccessSite,
        b: &AccessSite,
        [fwd, rev]: &[Result<PairLiveOut, ReplayFailure>; 2],
    ) -> Self {
        let recorded = |r: &Result<PairLiveOut, ReplayFailure>| {
            r.as_ref().map(|out| out.matches_recorded(trace, a, b)).map_err(|&f| f)
        };
        PairOutcome {
            orders: [recorded(fwd), recorded(rev)],
            same: matches!((fwd, rev), (Ok(x), Ok(y)) if x == y),
        }
    }
}

/// One state mutation performed by the oracle phase.
///
/// The oracle never *reads* virtual-processor memory — it only populates it
/// from recorded access values — so it records a side's whole oracle phase
/// as a stream of these, and the stream is applied once per pair as a
/// cheap map replay instead of instruction re-execution.
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
}

/// Memory as seen by the virtual processor: local writes over the live-in
/// image, with unknown-address detection.
struct VMem<'a> {
    trace: &'a ReplayTrace,
    base_version: u32,
    /// Starting timestamp of the base region: live-in fetches are ordered
    /// relative to it, so it is what damage horizons are compared against.
    base_ts: u64,
    writes: FastHashMap<u64, u64>,
    /// Allocations made during this replay: base -> size.
    vallocs: FastHashMap<u64, u64>,
    /// Bases freed during this replay.
    vfreed: BTreeSet<u64>,
    permissive: bool,
    /// Live-in fetches, drained into [`BatchStats`].
    index_hits: u64,
    /// When set, mutations are journaled here so a batch fork can roll
    /// back to the shared prefix instead of rebuilding the maps.
    undo: Option<Vec<UndoOp>>,
}

impl<'a> VMem<'a> {
    fn new(trace: &'a ReplayTrace, base_version: u32, permissive: bool) -> Self {
        let base_ts = trace.regions().get(base_version as usize).map_or(0, |r| r.region.start_ts);
        VMem {
            trace,
            base_version,
            base_ts,
            writes: FastHashMap::default(),
            vallocs: FastHashMap::default(),
            vfreed: BTreeSet::new(),
            permissive,
            index_hits: 0,
            undo: None,
        }
    }

    /// The live-in value at `addr`: the recorded history's value at the
    /// base version, zero when the recording never wrote it.
    #[inline]
    fn live_in_value(&mut self, addr: u64) -> u64 {
        self.index_hits += 1;
        self.trace.memory.value_at(addr, self.base_version).unwrap_or(0)
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

    /// Applies a slice of recorded oracle ops to the live maps.
    fn apply_ops(&mut self, ops: &[OracleOp]) {
        for &op in ops {
            match op {
                OracleOp::CopyIn { addr, value } => self.copy_in(addr, value),
                OracleOp::Write { addr, value } => self.write_word(addr, value),
                OracleOp::Alloc { base, size } => self.alloc(base, size),
                OracleOp::Free { base } => self.mark_freed(base),
            }
        }
    }

    /// The journal's length: a mark to roll back to.
    fn journal_len(&self) -> usize {
        self.undo.as_ref().map_or(0, Vec::len)
    }

    /// Lists into `out` every word written since the journal was at
    /// `mark`, sorted by address, with its value at `mark` and now.
    fn written_since(&self, mark: usize, out: &mut Vec<Written>) {
        out.clear();
        let journal = self.undo.as_deref().expect("undo mode on");
        out.extend(journal[mark..].iter().map(|&op| match op {
            UndoOp::Write { addr, prev } => Written { addr, before: prev, after: 0 },
            UndoOp::Alloc { .. } | UndoOp::FreeMark { .. } => {
                unreachable!("the live phases execute no system call, so they write only words")
            }
        }));
        // A stable sort keeps each address's first write first, and its
        // displaced value is the value at `mark`.
        out.sort_by_key(|w| w.addr);
        out.dedup_by_key(|w| w.addr);
        for w in out.iter_mut() {
            w.after = self.writes[&w.addr];
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
    fn in_vfreed(&self, addr: u64) -> bool {
        self.vfreed
            .iter()
            .any(|&base| base <= addr && self.size_of(base).is_some_and(|s| addr < base + s))
    }

    /// Whether `addr` lies inside a range allocated during this replay.
    fn in_valloc(&self, addr: u64) -> bool {
        self.vallocs.iter().any(|(&base, &size)| base <= addr && addr < base + size)
    }

    /// The heap-access rule for a word past the globals, shared by `load`
    /// and `store`: whether the recorded history holds the word live at
    /// the base version. A word allocated in this replay is pair-local,
    /// and so is an unknown one when permissive; `unknown` is the failure
    /// for an unknown word otherwise.
    fn heap_live(&self, addr: u64, unknown: ReplayFailure) -> Trapped<bool, ReplayFailure> {
        if addr < HEAP_BASE {
            return Err(Trap::Fault(Fault::InvalidAccess { addr }));
        }
        if self.in_vfreed(addr) {
            return Err(Trap::Fault(Fault::UseAfterFree { addr }));
        }
        if self.in_valloc(addr) {
            return Ok(false);
        }
        // Past the pair-local allocations we depend on the recorded heap
        // history, which lost heap traffic invalidates wholesale.
        if self.damage_tainted(addr) {
            return Err(Trap::Fail(ReplayFailure::LogDamage));
        }
        match self.trace.heap.state_at(addr, self.base_version) {
            HeapState::Live { .. } => Ok(true),
            HeapState::Freed { .. } => Err(Trap::Fault(Fault::UseAfterFree { addr })),
            HeapState::Unknown if self.permissive => Ok(false),
            HeapState::Unknown => Err(Trap::Fail(unknown)),
        }
    }

    fn load(&mut self, addr: u64) -> Trapped<u64, ReplayFailure> {
        if let Some(&v) = self.writes.get(&addr) {
            return Ok(v);
        }
        if addr < GLOBAL_LIMIT {
            // The versioned-memory fetch below reads recorded history; if
            // log damage could have cost us a write that feeds it, the
            // fetch is unanswerable.
            if self.damage_tainted(addr) {
                return Err(Trap::Fail(ReplayFailure::LogDamage));
            }
            return Ok(self.live_in_value(addr));
        }
        if self.heap_live(addr, ReplayFailure::UnknownLoad { addr })? {
            Ok(self.live_in_value(addr))
        } else {
            Ok(0)
        }
    }

    fn store(&mut self, addr: u64, value: u64) -> Trapped<(), ReplayFailure> {
        if addr >= GLOBAL_LIMIT {
            self.heap_live(addr, ReplayFailure::UnknownStore { addr })?;
        }
        self.write_word(addr, value);
        Ok(())
    }

    /// Applies a recorded allocation of `size` words at `base`, journaling
    /// the displaced state.
    fn alloc(&mut self, base: u64, size: u64) {
        let prev_size = self.vallocs.insert(base, size.max(1));
        let was_freed = self.vfreed.remove(&base);
        if let Some(journal) = &mut self.undo {
            journal.push(UndoOp::Alloc { base, prev_size, was_freed });
        }
    }
}

/// A fork point parked during a unit's shared-prefix execution: enough to
/// rebuild a [`VThread`] exactly as [`Vproc::run_pair`]'s oracle phase
/// would have left it at this racing index.
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

/// A word the live phases of one order wrote: its value before them
/// (`None` when the virtual memory did not hold it yet) and after.
#[derive(Copy, Clone, Debug)]
struct Written {
    addr: u64,
    before: Option<u64>,
    after: u64,
}

impl Written {
    /// Whether the word ends holding its value from before the live phases
    /// — what an order that never wrote it leaves there.
    fn unchanged(&self) -> bool {
        self.before == Some(self.after)
    }
}

/// Reusable per-[`Vproc`] working state — the pooled scratch behind both
/// [`Vproc::run_pair`] and [`Vproc::run_unit`].
///
/// The seed implementation cloned `region.entry` (registers, pc, and a
/// freshly allocated call stack) for each thread on every replay. The arena
/// keeps one copy per thread slot and overwrites it in place, so
/// steady-state replays allocate nothing for snapshots or outputs. Both
/// engines record the oracle's op streams into the pool; `run_unit` extends
/// it with per-side checkpoint chains, stop lists, the fork undo journal
/// and each order's written words. All of it is capacity-reused across
/// replays (and, because each classifier worker owns its `Vproc`, across
/// that worker's whole run).
#[derive(Debug, Default)]
struct SnapshotArena {
    /// Thread slots, `[order][side]`: `run_pair` uses order 0; `run_unit`
    /// keeps a-then-b's exits in order 0 while b-then-a runs in order 1.
    snaps: [[ThreadSnapshot; 2]; 2],
    outputs: [[Vec<u64>; 2]; 2],
    checkpoints: [Vec<Checkpoint>; 2],
    ops: [Vec<OracleOp>; 2],
    stops: [Vec<u64>; 2],
    journal: Vec<UndoOp>,
    /// Per order, the words its live phases wrote, sorted by address.
    written: [Vec<Written>; 2],
}

/// Overwrites `snap` with `from`, reusing its call-stack allocation.
fn reset_snapshot(snap: &mut ThreadSnapshot, from: &ThreadSnapshot) {
    snap.regs = from.regs;
    snap.pc = from.pc;
    snap.call_stack.clear();
    snap.call_stack.extend_from_slice(&from.call_stack);
}

/// A thread's exit as the live-out comparison reads it, borrowed from a
/// [`ThreadLiveOut`] or from a thread still in its arena slot. The thread id
/// is left out: both orders of a pair replay the same two threads.
#[derive(PartialEq)]
struct Exit<'s> {
    regs: &'s [u64; NUM_REGS],
    pc: usize,
    call_stack: &'s [usize],
    fault: Option<Fault>,
    outputs: &'s [u64],
}

impl Exit<'_> {
    /// Whether this exit reproduces `region`'s recorded exit.
    fn matches(&self, region: &ReplayedRegion) -> bool {
        self.fault.is_none()
            && *self.regs == region.exit.regs
            && self.pc == region.exit.pc
            && self.call_stack == region.exit.call_stack
            && self.outputs == region.outputs
    }
}

/// Per-thread virtual-processor state. The snapshot and output buffers are
/// borrowed from the [`SnapshotArena`] and live only for one pair replay.
struct VThread<'a, 's> {
    tid: usize,
    /// The region's recorded values, with the oracle's cursors into them.
    values: RegionValues<'a>,
    snap: &'s mut ThreadSnapshot,
    /// Absolute thread-local instruction index about to execute. Only the
    /// oracle's source reads it, so only the oracle step advances it.
    instr: u64,
    outputs: &'s mut Vec<u64>,
    fault: Option<Fault>,
    done: bool,
}

impl<'a, 's> VThread<'a, 's> {
    /// A thread at its region's entry, in the arena slot `(snap, outputs)`.
    fn new(
        region: &'a ReplayedRegion,
        (snap, outputs): (&'s mut ThreadSnapshot, &'s mut Vec<u64>),
    ) -> Self {
        reset_snapshot(snap, &region.entry);
        outputs.clear();
        VThread {
            tid: region.region.id.tid,
            values: RegionValues::new(region),
            snap,
            instr: region.region.start_instr,
            outputs,
            fault: None,
            done: false,
        }
    }

    /// Rebuilds a thread exactly as the oracle phase would have left it at
    /// the checkpointed racing index, reusing the arena slot's allocations.
    fn from_checkpoint(
        region: &'a ReplayedRegion,
        cp: &Checkpoint,
        (snap, outputs): (&'s mut ThreadSnapshot, &'s mut Vec<u64>),
    ) -> Self {
        reset_snapshot(snap, &cp.snap);
        outputs.clear();
        outputs.extend_from_slice(&region.outputs[..cp.outputs_len]);
        VThread {
            tid: region.region.id.tid,
            values: RegionValues { region, access: cp.access_cursor, sys: cp.sys_cursor },
            snap,
            instr: cp.instr,
            outputs,
            fault: None,
            done: cp.done,
        }
    }

    fn exit(&self) -> Exit<'_> {
        Exit {
            regs: &self.snap.regs,
            pc: self.snap.pc,
            call_stack: &self.snap.call_stack,
            fault: self.fault,
            outputs: self.outputs,
        }
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
    /// and `run_unit` callable through `&self` (each classifier worker owns
    /// its own `Vproc`, so there is no sharing to guard).
    scratch: RefCell<SnapshotArena>,
    /// Engine work counters, drained by [`Vproc::take_stats`].
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
        let SnapshotArena {
            snaps: [[snap_a, snap_b], _],
            outputs: [[out_a, out_b], _],
            ops: [ops, _],
            ..
        } = &mut *scratch;
        let mut threads = [VThread::new(ra, (snap_a, out_a)), VThread::new(rb, (snap_b, out_b))];
        let racing_index = [a.instr_index, b.instr_index];
        let mut budget = STEP_BUDGET;

        // Phase 1: oracle-replay each thread up to its racing instruction
        // and apply its effects, earlier-replayed region first so its
        // writes are applied first.
        let phase_a_order: [usize; 2] = if ra.version <= rb.version { [0, 1] } else { [1, 0] };
        for idx in phase_a_order {
            let t = &mut threads[idx];
            ops.clear();
            while t.instr < racing_index[idx] {
                if budget == 0 {
                    return Err(ReplayFailure::BudgetExhausted);
                }
                budget -= 1;
                step_oracle(self.trace, t, ops);
            }
            vmem.apply_ops(ops);
        }

        self.run_phases_2_3(&mut threads, vmem, budget, order)?;
        Ok(collect_live_out(&threads, vmem))
    }

    /// Phases 2–3: the racing instructions live in the prescribed order,
    /// then both threads round-robin to their region ends. Shared verbatim
    /// by `run_pair` and the fork-resumed orders of `run_unit` —
    /// equivalence depends on it.
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
                    // (one sequencer-flag byte load; out-of-range pcs are
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

    /// Resolves every pair of a unit — all sharing one `(region_a,
    /// region_b)` pair — under both orders, running each side's oracle
    /// prefix once for all of them.
    ///
    /// Each side's prefix runs to its last racing index, parking a
    /// checkpoint at every racing index on the way. Each pair then applies
    /// its phase-1 ops once and replays a-then-b and b-then-a from its
    /// checkpoints, rolling the memory back to the phase-1 state in
    /// between, and the two orders are compared against the live state.
    /// `keep(i, &outcome)` is asked once per pair, in input order; the
    /// pair's two live-outs are built only when it answers yes and both
    /// orders completed.
    ///
    /// Every outcome equals [`PairOutcome::of`] the pair's two
    /// [`Vproc::run_pair`] results, and kept live-outs equal those results;
    /// both come back in input order.
    ///
    /// # Panics
    ///
    /// Panics if the pairs do not all share the first pair's region pair,
    /// or if the two sites are in the same thread (not a data race).
    pub fn run_unit(
        &self,
        pairs: &[(AccessSite, AccessSite)],
        mut keep: impl FnMut(usize, &PairOutcome) -> bool,
    ) -> Vec<(PairOutcome, Option<Box<[PairLiveOut; 2]>>)> {
        let Some((first_a, first_b)) = pairs.first() else { return Vec::new() };
        assert!(
            pairs.iter().all(|(a, b)| a.region == first_a.region && b.region == first_b.region),
            "a unit must share one region pair"
        );
        assert_ne!(first_a.tid(), first_b.tid(), "racing accesses must be in different threads");
        let ra = self.trace.region(first_a.region);
        let rb = self.trace.region(first_b.region);
        let distance = |(a, b): &(AccessSite, AccessSite)| {
            ra.region.instr_offset(a.instr_index) + rb.region.instr_offset(b.instr_index)
        };

        let mut scratch = self.scratch.borrow_mut();
        let SnapshotArena {
            snaps: [[snap_xa, snap_xb], [snap_ya, snap_yb]],
            outputs: [[out_xa, out_xb], [out_ya, out_yb]],
            checkpoints: [cps_a, cps_b],
            ops: [ops_a, ops_b],
            stops: [stops_a, stops_b],
            journal,
            written: [written_x, written_y],
        } = &mut *scratch;

        // The checkpoint chain: distinct racing indexes per side, sorted,
        // of the pairs inside the budget. A pair whose oracle distance
        // alone reaches the budget fails in both orders exactly like
        // `run_pair` would (phase 2 always needs at least one step of
        // headroom), without executing anything.
        stops_a.clear();
        stops_b.clear();
        for (a, b) in pairs.iter().filter(|&pair| distance(pair) < STEP_BUDGET) {
            stops_a.push(a.instr_index);
            stops_b.push(b.instr_index);
        }
        let survivors = stops_a.len() as u64;
        for stops in [&mut *stops_a, &mut *stops_b] {
            stops.sort_unstable();
            stops.dedup();
        }

        // Execute each side's oracle prefix once, recording its ops and
        // parking a checkpoint at every stop.
        for (region, stops, cps, ops, snap, out) in [
            (ra, &*stops_a, &mut *cps_a, &mut *ops_a, &mut *snap_xa, &mut *out_xa),
            (rb, &*stops_b, &mut *cps_b, &mut *ops_b, &mut *snap_xb, &mut *out_xb),
        ] {
            cps.clear();
            ops.clear();
            if !stops.is_empty() {
                run_prefix(self.trace, region, stops, ops, (snap, out), cps);
            }
        }

        // The first-applied side is the earlier-replayed region, matching
        // `run_pair`'s phase-1 order; its effect up to its earliest stop is
        // shared by every pair, so apply it once, un-journaled.
        let base_version = ra.version.min(rb.version);
        let mut vmem = VMem::new(self.trace, base_version, self.config.permissive_unknown_loads);
        let a_first = ra.version <= rb.version;
        let (first_ops, second_ops) = if a_first { (&*ops_a, &*ops_b) } else { (&*ops_b, &*ops_a) };
        let first_cps = if a_first { &*cps_a } else { &*cps_b };
        let base_len = first_cps.first().map_or(0, |cp| cp.ops_len);
        vmem.apply_ops(&first_ops[..base_len]);
        journal.clear();
        vmem.undo = Some(std::mem::take(journal));

        let mut resolved = Vec::with_capacity(pairs.len());
        let mut total_oracle = 0u64;
        for (i, pair) in pairs.iter().enumerate() {
            let distance = distance(pair);
            if distance >= STEP_BUDGET {
                let failed = Err(ReplayFailure::BudgetExhausted);
                let outcome = PairOutcome { orders: [failed; 2], same: false };
                keep(i, &outcome);
                resolved.push((outcome, None));
                continue;
            }
            total_oracle += distance;
            let (a, b) = pair;
            let cp_a = &cps_a[stops_a.binary_search(&a.instr_index).expect("stop parked")];
            let cp_b = &cps_b[stops_b.binary_search(&b.instr_index).expect("stop parked")];
            // Memory: the first side's delta past the shared base, then the
            // second side in full — `run_pair`'s phase-1 sequence.
            let (first_cp, second_cp) = if a_first { (cp_a, cp_b) } else { (cp_b, cp_a) };
            vmem.apply_ops(&first_ops[base_len..first_cp.ops_len]);
            vmem.apply_ops(&second_ops[..second_cp.ops_len]);
            let phase_1 = vmem.journal_len();
            let budget = STEP_BUDGET - distance;

            // a-then-b, whose exits stay in the order-0 slots and whose
            // written words are listed before the memory rolls back.
            let mut x = [
                VThread::from_checkpoint(ra, cp_a, (&mut *snap_xa, &mut *out_xa)),
                VThread::from_checkpoint(rb, cp_b, (&mut *snap_xb, &mut *out_xb)),
            ];
            let fwd = self.run_phases_2_3(&mut x, &mut vmem, budget, PairOrder::AThenB);
            if fwd.is_ok() {
                vmem.written_since(phase_1, written_x);
            }
            vmem.rollback_to(phase_1);
            // b-then-a, from the same checkpoints and phase-1 state.
            let mut y = [
                VThread::from_checkpoint(ra, cp_a, (&mut *snap_ya, &mut *out_ya)),
                VThread::from_checkpoint(rb, cp_b, (&mut *snap_yb, &mut *out_yb)),
            ];
            let rev = self.run_phases_2_3(&mut y, &mut vmem, budget, PairOrder::BThenA);
            if rev.is_ok() {
                vmem.written_since(phase_1, written_y);
            }

            let recorded =
                |t: &[VThread<'_, '_>; 2]| t[0].exit().matches(ra) && t[1].exit().matches(rb);
            let completed = fwd.is_ok() && rev.is_ok();
            let outcome = PairOutcome {
                orders: [fwd.map(|()| recorded(&x)), rev.map(|()| recorded(&y))],
                same: completed
                    && x[0].exit() == y[0].exit()
                    && x[1].exit() == y[1].exit()
                    && same_memory(written_x, written_y),
            };
            let kept = (keep(i, &outcome) && completed).then(|| {
                // b-then-a is the live state; a-then-b is its exits over the
                // phase-1 memory with its written words applied on top.
                let rev = collect_live_out(&y, &vmem);
                vmem.rollback_to(phase_1);
                let mut fwd = collect_live_out(&x, &vmem);
                fwd.writes.extend(written_x.iter().map(|w| (w.addr, w.after)));
                Box::new([fwd, rev])
            });
            vmem.rollback_to(0);
            resolved.push((outcome, kept));
        }

        // Return the journal to the pool and settle the books.
        *journal = vmem.undo.take().expect("undo mode still on");
        if let (Some(&last_a), Some(&last_b)) = (stops_a.last(), stops_b.last()) {
            let prefix_cost = ra.region.instr_offset(last_a) + rb.region.instr_offset(last_b);
            let shared = survivors > 1;
            self.bump(|s| {
                s.batches += u64::from(shared);
                s.forks += if shared { 2 * survivors } else { 0 };
                s.prefix_executions += 2;
                s.prefix_instrs_saved += 2 * total_oracle - prefix_cost;
                s.live_in_index_hits += vmem.index_hits;
            });
        }
        resolved
    }
}

/// Whether two orders that started from one phase-1 state end with equal
/// memory, given the words each one's live phases wrote (sorted by
/// address): a word both wrote must end equal, and a word only one wrote
/// must still hold its phase-1 value, which the other order left there.
/// One merge pass over the two lists.
fn same_memory(x: &[Written], y: &[Written]) -> bool {
    let (mut i, mut j) = (0, 0);
    loop {
        let next = match (x.get(i), y.get(j)) {
            (None, None) => return true,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(wx), Some(wy)) => wx.addr.cmp(&wy.addr),
        };
        let same = match next {
            Ordering::Equal => x[i].after == y[j].after,
            Ordering::Less => x[i].unchanged(),
            Ordering::Greater => y[j].unchanged(),
        };
        if !same {
            return false;
        }
        i += usize::from(next != Ordering::Greater);
        j += usize::from(next != Ordering::Less);
    }
}

/// Collects both threads' live-outs plus the memory effect, leaving
/// the virtual memory intact (`run_unit` rolls it back afterwards).
fn collect_live_out(threads: &[VThread<'_, '_>; 2], vmem: &VMem<'_>) -> PairLiveOut {
    let [ta, tb] = threads;
    PairLiveOut {
        a: ta.live_out(),
        b: tb.live_out(),
        writes: vmem.writes.iter().map(|(&addr, &v)| (addr, v)).collect(),
    }
}

/// Executes one side's oracle prefix from the region entry to the last
/// stop, recording its effects into `ops` and parking a [`Checkpoint`] at
/// every stop index, with its cut point into `ops`.
fn run_prefix(
    trace: &ReplayTrace,
    region: &ReplayedRegion,
    stops: &[u64],
    ops: &mut Vec<OracleOp>,
    slot: (&mut ThreadSnapshot, &mut Vec<u64>),
    checkpoints: &mut Vec<Checkpoint>,
) {
    let mut t = VThread::new(region, slot);
    let mut si = 0;
    loop {
        while si < stops.len() && t.instr == stops[si] {
            checkpoints.push(Checkpoint {
                snap: t.snap.clone(),
                instr: t.instr,
                access_cursor: t.values.access,
                sys_cursor: t.values.sys,
                outputs_len: t.outputs.len(),
                ops_len: ops.len(),
                done: t.done,
            });
            si += 1;
        }
        if si == stops.len() {
            break;
        }
        step_oracle(trace, &mut t, ops);
    }
}

/// Oracle step: re-executes one instruction with the region's recorded
/// values (this cannot diverge), recording its memory and heap effects.
fn step_oracle(trace: &ReplayTrace, t: &mut VThread<'_, '_>, ops: &mut Vec<OracleOp>) {
    let instr_index = t.instr;
    t.instr += 1;
    let mut oracle = Oracle { values: &mut t.values, outputs: &mut *t.outputs, ops };
    let Ok(stepped) = step(trace.decoded(), t.snap, instr_index, &mut oracle);
    match stepped {
        Stepped::Next => {}
        Stepped::Halted => t.done = true,
        Stepped::Faulted(fault) => panic!("oracle replay re-faulted at pc {}: {fault}", t.snap.pc),
    }
}

/// The oracle phase's source: a region's recorded values, each recorded as
/// an [`OracleOp`] as it is read.
struct Oracle<'t, 'a> {
    values: &'t mut RegionValues<'a>,
    outputs: &'t mut Vec<u64>,
    ops: &'t mut Vec<OracleOp>,
}

impl Source for Oracle<'_, '_> {
    type Error = Infallible;

    fn load(&mut self, instr_index: u64, pc: usize, addr: u64) -> Trapped<u64, Infallible> {
        let value = self.values.load(instr_index, pc, addr)?;
        self.ops.push(OracleOp::CopyIn { addr, value }); // first-use copy-in
        Ok(value)
    }

    fn store(
        &mut self,
        instr_index: u64,
        pc: usize,
        addr: u64,
        value: u64,
    ) -> Trapped<(), Infallible> {
        self.values.store(instr_index, pc, addr, value)?;
        self.ops.push(OracleOp::Write { addr, value });
        Ok(())
    }

    /// One op per atomic: the write when it stored, else the copy-in of the
    /// value it read.
    fn update(
        &mut self,
        instr_index: u64,
        pc: usize,
        addr: u64,
        new: impl FnOnce(u64) -> Option<u64>,
    ) -> Trapped<u64, Infallible> {
        let old = self.values.load(instr_index, pc, addr)?;
        match new(old) {
            Some(value) => self.store(instr_index, pc, addr, value)?,
            None => self.ops.push(OracleOp::CopyIn { addr, value: old }),
        }
        Ok(old)
    }

    fn syscall(&mut self, instr_index: u64, call: SysCall, arg: u64) -> Trapped<u64, Infallible> {
        let ret = self.values.syscall(instr_index, call, arg)?;
        match call {
            SysCall::Alloc => self.ops.push(OracleOp::Alloc { base: ret, size: arg.max(1) }),
            // The recorded free succeeded; mirror it.
            SysCall::Free => self.ops.push(OracleOp::Free { base: arg }),
            SysCall::Print => self.outputs.push(arg),
            SysCall::Tid | SysCall::Yield | SysCall::Nop => {}
        }
        Ok(ret)
    }
}

/// Live step: executes one instruction against the virtual memory, once the
/// pc passes the recorded-footprint check.
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
    let mut live = Live { vmem };
    match step(trace.decoded(), t.snap, t.instr, &mut live)? {
        Stepped::Next => {}
        Stepped::Halted => t.done = true,
        Stepped::Faulted(fault) => {
            t.fault = Some(fault);
            t.done = true;
        }
    }
    Ok(())
}

/// The live phases' source: the virtual memory.
struct Live<'t, 'm> {
    vmem: &'t mut VMem<'m>,
}

impl Source for Live<'_, '_> {
    type Error = ReplayFailure;

    fn load(&mut self, _: u64, _: usize, addr: u64) -> Trapped<u64, ReplayFailure> {
        self.vmem.load(addr)
    }

    fn store(&mut self, _: u64, _: usize, addr: u64, value: u64) -> Trapped<(), ReplayFailure> {
        self.vmem.store(addr, value)
    }

    fn syscall(&mut self, _: u64, call: SysCall, _: u64) -> Trapped<u64, ReplayFailure> {
        unreachable!(
            "the live phases executed {call:?}: every system call is a sequencer point, \
             the completion phase stops before one, and the order phase executes only a \
             racing access, which the replayer never records for a system call"
        )
    }
}
