//! Forward abstract interpretation of one thread.
//!
//! The engine runs a classic worklist fixpoint over the thread's CFG. The
//! per-pc state is the abstract register file ([`AbsVal`] intervals with a
//! heap-pointer taint), the *must*-held set of spin locks, and a one-shot
//! "pending acquire" fact that lets the immediately following conditional
//! branch split into a lock-held edge and a retry edge.
//!
//! # Spin-lock idioms
//!
//! The corpus (and the Eraser baseline in `replay-race`) builds locks from
//! two shapes, both recognized here when the lock address is one exact
//! global `L`:
//!
//! * **CAS acquire** — `cas f, [L], e, n` with `e` provably 0 and `n`
//!   provably non-zero, followed by a branch on `f` against zero (`f != 0`
//!   means the CAS succeeded).
//! * **Exchange acquire** — `lock.xchg old, [L], s` with `s` provably
//!   non-zero, followed by a branch on `old` against zero (`old == 0` means
//!   the caller took the lock).
//! * **Release** — `lock.xchg _, [L], z` (or a CAS storing `z`) with `z`
//!   provably 0.
//!
//! Everything that does not match keeps the lockset unchanged — missing an
//! acquire can only *shrink* must-locksets, which only *grows* the candidate
//! pair set, preserving soundness.

use std::collections::{BTreeMap, BTreeSet};

use tvm::isa::{BinOp, Cond, Instr, Reg, RmwOp, SysCall, NUM_REGS};
use tvm::program::Program;

use crate::cfg::{def_of, Cfg};
use crate::domain::{AbsLoc, AbsVal};

/// Iterations of state change at one pc before interval widening kicks in.
const WIDEN_AFTER: u32 = 8;

/// Which register of a just-executed acquire attempt holds the evidence of
/// success.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PendingKind {
    /// The register is the CAS success flag: non-zero means acquired.
    CasFlag,
    /// The register is the exchanged-out old value: zero means acquired.
    XchgOld,
}

/// An acquire attempt awaiting confirmation by the next branch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Pending {
    /// The lock's global address.
    pub lock: u64,
    /// The register the following branch must test.
    pub flag: Reg,
    /// How to read the flag.
    pub kind: PendingKind,
}

/// A remembered guard definition `reg = src <op> imm`, used to refine
/// `src`'s interval when a later branch tests `reg` against zero. Only the
/// two shapes whose zero-test tells us something exact about `src` are
/// tracked: `sub` (wrapping, so `reg == 0 ⟺ src == imm`) and `div`
/// (unsigned, so `reg == 0 ⟺ src < imm`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RegDef {
    /// [`BinOp::Sub`] or [`BinOp::Div`] (with a non-zero immediate).
    pub op: BinOp,
    /// The operand register the zero-test constrains.
    pub src: Reg,
    /// The immediate operand.
    pub imm: u64,
}

/// The abstract state flowing along CFG edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct State {
    /// Abstract value of every register.
    pub regs: [AbsVal; NUM_REGS],
    /// Locks that are held on **every** path reaching this point.
    pub locks: BTreeSet<u64>,
    /// Acquire attempt made by the immediately preceding instruction.
    pub pending: Option<Pending>,
    /// Guard definition still valid for each register (see [`RegDef`]).
    pub defs: [Option<RegDef>; NUM_REGS],
}

impl State {
    /// The entry state of a thread: registers are zeroed, then the spec's
    /// args are loaded into `r0..` (mirroring `ThreadState::new`).
    #[must_use]
    pub fn entry(args: &[u64]) -> Self {
        let mut regs = [AbsVal::ZERO; NUM_REGS];
        for (i, &a) in args.iter().take(NUM_REGS).enumerate() {
            regs[i] = AbsVal::constant(a);
        }
        State { regs, locks: BTreeSet::new(), pending: None, defs: [None; NUM_REGS] }
    }

    pub(crate) fn reg(&self, r: Reg) -> AbsVal {
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: AbsVal) {
        self.regs[r.index()] = v;
    }

    /// Joins `other` into `self`, returning whether anything changed.
    /// Registers join upward, locksets intersect (must-analysis), and a
    /// pending acquire survives only when both sides agree on it.
    pub fn join_from(&mut self, other: &State) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(other.regs.iter()) {
            let joined = mine.join(*theirs);
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
        }
        let held = self.locks.len();
        self.locks.retain(|lock| other.locks.contains(lock));
        changed |= self.locks.len() != held;
        if self.pending != other.pending && self.pending.is_some() {
            self.pending = None;
            changed = true;
        }
        for (mine, theirs) in self.defs.iter_mut().zip(other.defs.iter()) {
            if mine != theirs && mine.is_some() {
                *mine = None;
                changed = true;
            }
        }
        changed
    }

    /// Widens interval bounds that have kept moving against the registers
    /// `old` held before the join.
    fn widen_from(&mut self, old: &[AbsVal; NUM_REGS]) {
        for (mine, prev) in self.regs.iter_mut().zip(old.iter()) {
            *mine = AbsVal::widen(*prev, *mine);
        }
    }
}

/// A memory access the transfer function saw at one pc.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessFact {
    /// The abstract location touched.
    pub loc: AbsLoc,
    /// Whether the access can read.
    pub reads: bool,
    /// Whether the access can write.
    pub writes: bool,
    /// Whether the instruction is a sequencer point (atomic).
    pub atomic: bool,
    /// Abstract value the access stores, for writes whose stored value is
    /// directly visible (plain stores and `xchg`). `None` for pure reads and
    /// for writes whose stored value depends on the memory word (CAS,
    /// arithmetic RMWs).
    pub stored: Option<AbsVal>,
}

/// A lock-discipline event the transfer function recognized at one pc.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LockEvent {
    /// An acquire-shaped atomic on the lock at this global address.
    Acquire(u64),
    /// A release-shaped atomic. The flag records whether the must-lockset
    /// held the lock here — releasing a lock one does not hold breaks mutual
    /// exclusion, and demotes the lock.
    Release {
        /// The lock's global address.
        lock: u64,
        /// Whether the in-state proves the lock was held.
        held: bool,
    },
}

/// Everything `transfer` produces for one (pc, in-state) pair.
#[derive(Clone, Debug, Default)]
pub struct Transfer {
    /// Successor pcs with their out-states.
    pub succs: Vec<(usize, State)>,
    /// The memory access performed here, if any.
    pub access: Option<AccessFact>,
    /// The lock-discipline event recognized here, if any.
    pub event: Option<LockEvent>,
    /// The exact global a load looked up in the stable-global map, if any:
    /// the only way the transfer depends on that map.
    pub(crate) lookup: Option<u64>,
}

/// Abstractly executes the instruction at `pc` on `state`, with no
/// stable-global knowledge.
#[must_use]
pub fn transfer(program: &Program, cfg: &Cfg, pc: usize, state: &State) -> Transfer {
    let mut out = Transfer::default();
    transfer_into(program, cfg, pc, state, &BTreeMap::new(), &mut out);
    out
}

/// Abstractly executes the instruction at `pc` on `state` into `out`, which
/// it clears first, so a fixpoint reuses one successor vector for every
/// visit.
///
/// `consts` maps *stable globals* — words provably written by no reachable
/// instruction of any thread — to their initial values; loads from them
/// produce the exact constant instead of `Top`. Branch edges whose
/// refinement is contradictory (the tested interval provably excludes the
/// edge's outcome) are dropped entirely, so code behind them stays
/// unreached in the fixpoint.
///
/// Successors one past the end of the program (thread termination) are
/// dropped, matching [`Cfg::successors`].
fn transfer_into(
    program: &Program,
    cfg: &Cfg,
    pc: usize,
    state: &State,
    consts: &BTreeMap<u64, u64>,
    out: &mut Transfer,
) {
    out.succs.clear();
    out.access = None;
    out.event = None;
    out.lookup = None;
    let Some(instr) = program.instr(pc) else { return };
    let len = program.len();
    let mut next = state.clone();
    next.pending = None;

    match *instr {
        Instr::MovImm { dst, imm } => next.set_reg(dst, AbsVal::constant(imm)),
        Instr::Mov { dst, src } => next.set_reg(dst, state.reg(src)),
        Instr::Bin { op, dst, lhs, rhs } => {
            next.set_reg(dst, AbsVal::binop(op, state.reg(lhs), state.reg(rhs)));
        }
        Instr::BinImm { op, dst, lhs, imm } => {
            next.set_reg(dst, AbsVal::binop(op, state.reg(lhs), AbsVal::constant(imm)));
        }
        Instr::Load { dst, base, offset } => {
            let loc = AbsLoc::resolve(state.reg(base), offset);
            out.access =
                Some(AccessFact { loc, reads: true, writes: false, atomic: false, stored: None });
            out.lookup = loc.exact_global();
            let loaded = out
                .lookup
                .and_then(|g| consts.get(&g))
                .map_or(AbsVal::Top, |&v| AbsVal::constant(v));
            next.set_reg(dst, loaded);
        }
        Instr::Store { src, base, offset } => {
            out.access = Some(AccessFact {
                loc: AbsLoc::resolve(state.reg(base), offset),
                reads: false,
                writes: true,
                atomic: false,
                stored: Some(state.reg(src)),
            });
        }
        Instr::AtomicRmw { op, dst, base, offset, src } => {
            let loc = AbsLoc::resolve(state.reg(base), offset);
            let stored = if op == RmwOp::Xchg { Some(state.reg(src)) } else { None };
            out.access = Some(AccessFact { loc, reads: true, writes: true, atomic: true, stored });
            if op == RmwOp::Xchg {
                if let Some(lock) = loc.exact_global() {
                    let stored = state.reg(src);
                    if stored.as_const() == Some(0) {
                        out.event =
                            Some(LockEvent::Release { lock, held: state.locks.contains(&lock) });
                        next.locks.remove(&lock);
                    } else if stored.is_nonzero() {
                        out.event = Some(LockEvent::Acquire(lock));
                        next.pending =
                            Some(Pending { lock, flag: dst, kind: PendingKind::XchgOld });
                    }
                }
            }
            next.set_reg(dst, AbsVal::Top);
        }
        Instr::AtomicCas { dst, base, offset, expected, new } => {
            let loc = AbsLoc::resolve(state.reg(base), offset);
            out.access =
                Some(AccessFact { loc, reads: true, writes: true, atomic: true, stored: None });
            if let Some(lock) = loc.exact_global() {
                let (exp, new) = (state.reg(expected), state.reg(new));
                if exp.as_const() == Some(0) && new.is_nonzero() {
                    out.event = Some(LockEvent::Acquire(lock));
                    next.pending = Some(Pending { lock, flag: dst, kind: PendingKind::CasFlag });
                } else if exp.is_nonzero() && new.as_const() == Some(0) {
                    // Conditional release: on success the word becomes 0.
                    out.event =
                        Some(LockEvent::Release { lock, held: state.locks.contains(&lock) });
                    next.locks.remove(&lock);
                }
            }
            // The flag is 0 on failure, 1 on success.
            next.set_reg(dst, AbsVal::Int { lo: 0, hi: 1 });
        }
        Instr::Syscall { call } => {
            let ret = match call {
                SysCall::Alloc => AbsVal::HeapPtr { site: Some(pc) },
                SysCall::Free | SysCall::Yield | SysCall::Nop => AbsVal::ZERO,
                // `sys.print` returns the value it printed (r0 unchanged).
                SysCall::Print => state.reg(Reg::R0),
                SysCall::Tid => {
                    let threads = program.threads().len() as u64;
                    AbsVal::Int { lo: 0, hi: threads.saturating_sub(1) }
                }
            };
            next.set_reg(Reg::R0, ret);
        }
        Instr::Fence | Instr::Halt | Instr::Jump { .. } | Instr::Call { .. } | Instr::Ret => {}
        Instr::Branch { .. } => {} // handled below, with edge refinement
    }

    // Guard-definition bookkeeping: a write to `dst` kills `dst`'s own def
    // and any def constraining `dst`; a fresh `sub`/`div`-by-immediate
    // records one (unless it overwrites its own operand, which the zero-test
    // would then no longer constrain).
    if let Some(dst) = def_of(instr) {
        for def in &mut next.defs {
            if def.is_some_and(|d| d.src == dst) {
                *def = None;
            }
        }
        next.defs[dst.index()] = match *instr {
            Instr::BinImm { op: op @ (BinOp::Sub | BinOp::Div), dst, lhs, imm }
                if lhs != dst && (op == BinOp::Sub || imm != 0) =>
            {
                Some(RegDef { op, src: lhs, imm })
            }
            _ => None,
        };
    }

    match *instr {
        Instr::Jump { target } | Instr::Call { target } => {
            push_succ(out, target, next, len);
        }
        Instr::Ret => {
            for &t in &cfg.ret_targets {
                push_succ(out, t, next.clone(), len);
            }
        }
        Instr::Halt => {}
        Instr::Branch { cond, lhs, rhs, target } => {
            let (taken, fall) = branch_states(state, next, cond, lhs, rhs);
            if let Some(taken) = taken {
                push_succ(out, target, taken, len);
            }
            if let Some(fall) = fall {
                push_succ(out, pc + 1, fall, len);
            }
        }
        _ => push_succ(out, pc + 1, next, len),
    }
}

fn push_succ(out: &mut Transfer, pc: usize, state: State, len: usize) {
    if pc < len {
        out.succs.push((pc, state));
    }
}

/// Splits a branch into (taken, fallthrough) states: confirms a pending
/// lock acquire when the branch tests the acquire's flag register against a
/// provably zero register, and refines intervals from `reg == 0` /
/// `reg != 0` facts (including through a remembered [`RegDef`] guard). An
/// edge whose refinement is contradictory — the tested register provably
/// cannot take the edge's outcome — is returned as `None` and never
/// propagated, so provably-dead code (an enable gate's off branch) stays
/// outside the fixpoint.
fn branch_states(
    in_state: &State,
    base: State,
    cond: Cond,
    lhs: Reg,
    rhs: Reg,
) -> (Option<State>, Option<State>) {
    let mut taken = base.clone();
    let mut fall = base;
    // Identify `reg <cond> zero` (either operand order).
    let zero_side = |r: Reg| in_state.reg(r).as_const() == Some(0);
    let reg = if zero_side(rhs) {
        Some(lhs)
    } else if zero_side(lhs) {
        Some(rhs)
    } else {
        None
    };
    let (Some(reg), Cond::Eq | Cond::Ne) = (reg, cond) else {
        // Not a zero test, or an unordered comparison: stay conservative.
        return (Some(taken), Some(fall));
    };
    let eq_edge_taken = cond == Cond::Eq;

    if let Some(p) = in_state.pending {
        if reg == p.flag {
            // CAS flag: zero = failure. Exchanged old value: zero = success.
            let acquired_on_eq = matches!(p.kind, PendingKind::XchgOld);
            let acquired_edge_taken = eq_edge_taken == acquired_on_eq;
            if acquired_edge_taken {
                taken.locks.insert(p.lock);
            } else {
                fall.locks.insert(p.lock);
            }
        }
    }

    let def = in_state.defs[reg.index()];
    let (zero_state, nonzero_state) =
        if eq_edge_taken { (&mut taken, &mut fall) } else { (&mut fall, &mut taken) };
    let zero_ok = refine_zero(zero_state, reg, def);
    let nonzero_ok = refine_nonzero(nonzero_state, reg, def);
    let (taken_ok, fall_ok) =
        if eq_edge_taken { (zero_ok, nonzero_ok) } else { (nonzero_ok, zero_ok) };
    (taken_ok.then_some(taken), fall_ok.then_some(fall))
}

/// Applies `reg == 0` to `state`: the register itself is zero, and a guard
/// definition pins its operand (`src - imm == 0 ⟹ src == imm`;
/// `src / imm == 0 ⟹ src < imm`). Returns whether the edge is feasible.
fn refine_zero(state: &mut State, reg: Reg, def: Option<RegDef>) -> bool {
    clamp_reg(state, reg, 0, 0)
        && match def {
            Some(RegDef { op: BinOp::Sub, src, imm }) => clamp_reg(state, src, imm, imm),
            Some(RegDef { op: BinOp::Div, src, imm }) => clamp_reg(state, src, 0, imm - 1),
            _ => true,
        }
}

/// Applies `reg != 0` to `state` (`src - imm != 0 ⟹ src != imm`;
/// `src / imm != 0 ⟹ src >= imm`). Returns whether the edge is feasible.
fn refine_nonzero(state: &mut State, reg: Reg, def: Option<RegDef>) -> bool {
    exclude_reg(state, reg, 0)
        && match def {
            Some(RegDef { op: BinOp::Sub, src, imm }) => exclude_reg(state, src, imm),
            Some(RegDef { op: BinOp::Div, src, imm }) => clamp_reg(state, src, imm, u64::MAX),
            _ => true,
        }
}

/// Intersects a register with `[lo, hi]`. An empty intersection proves the
/// refining edge infeasible: the state is left unrefined and `false` is
/// returned so the caller drops the edge.
fn clamp_reg(state: &mut State, r: Reg, lo: u64, hi: u64) -> bool {
    match state.regs[r.index()].clamp(lo, hi) {
        Some(v) => {
            state.regs[r.index()] = v;
            true
        }
        None => false,
    }
}

/// Removes an endpoint value from a register's interval (same infeasible-
/// edge contract as [`clamp_reg`]).
fn exclude_reg(state: &mut State, r: Reg, v: u64) -> bool {
    match state.regs[r.index()].exclude(v) {
        Some(nv) => {
            state.regs[r.index()] = nv;
            true
        }
        None => false,
    }
}

/// What the fixpoint knows at one pc it reached.
#[derive(Clone, Debug)]
pub struct Reached {
    /// The pc.
    pub pc: usize,
    /// Its in-state.
    pub state: State,
    /// The memory access the pc's last transfer saw. A pc whose state
    /// changes is queued again, so that transfer ran on the final `state`.
    pub access: Option<AccessFact>,
    /// The lock-discipline event the pc's last transfer recognized.
    pub event: Option<LockEvent>,
    /// Joins that changed `state`; widening starts after [`WIDEN_AFTER`].
    changes: u32,
}

/// The fixpoint of one thread: the in-state of every pc it reached.
#[derive(Clone, Debug)]
pub struct ThreadFlow {
    /// One entry per reached pc, ascending by pc.
    reached: Vec<Reached>,
    /// Every global the run's loads looked up in the stable-global map. The
    /// run is a deterministic function of the answers those lookups got, so
    /// a map that answers the same for each of them yields the same run.
    pub(crate) lookups: BTreeSet<u64>,
    /// The run's fixpoint work: visits, joins and widenings.
    pub(crate) work: FixpointWork,
}

impl ThreadFlow {
    /// The in-state at `pc`, or `None` when the fixpoint never reached it.
    #[must_use]
    pub fn state(&self, pc: usize) -> Option<&State> {
        let i = self.reached.binary_search_by_key(&pc, |r| r.pc).ok()?;
        Some(&self.reached[i].state)
    }

    /// Every reached pc's facts, ascending by pc.
    pub fn iter(&self) -> std::slice::Iter<'_, Reached> {
        self.reached.iter()
    }
}

/// Exact counts of the work one fixpoint run did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct FixpointWork {
    /// Transfers run: one per worklist pop.
    pub(crate) visits: u64,
    /// Out-states joined into a pc's existing state.
    pub(crate) joins: u64,
    /// Widenings applied on retreating edges.
    pub(crate) widenings: u64,
}

/// Runs the worklist fixpoint for the thread entering at `cfg.entry` with
/// the given spec args and no stable-global knowledge.
#[must_use]
pub fn fixpoint(program: &Program, cfg: &Cfg, args: &[u64]) -> ThreadFlow {
    fixpoint_with(program, cfg, args, &BTreeMap::new())
}

/// [`fixpoint`] with a stable-global constant map: loads of a global in
/// `consts` produce its value, which can prove branch edges dead. pcs only
/// reachable through contradictory branch edges receive no state — they
/// are semantically dead for this program's initial globals. The flow
/// records which globals the run looked up in `consts`
/// (`ThreadFlow::lookups`).
///
/// The reached pcs live in an arena in the order the fixpoint first reached
/// them, found through a table indexed by the pc's CFG slot; the arena is
/// sorted by pc once the worklist drains.
#[must_use]
pub fn fixpoint_with(
    program: &Program,
    cfg: &Cfg,
    args: &[u64],
    consts: &BTreeMap<u64, u64>,
) -> ThreadFlow {
    let mut reached: Vec<Reached> = Vec::new();
    let mut index: Vec<Option<u32>> = vec![None; cfg.reachable.len()];
    let mut lookups: BTreeSet<u64> = BTreeSet::new();
    let mut counts = FixpointWork::default();
    let mut work: Vec<usize> = Vec::new();
    let mut transfer = Transfer::default();
    if let Some(entry) = cfg.slot(cfg.entry) {
        reach(&mut reached, &mut index, entry, cfg.entry, State::entry(args));
        work.push(entry);
    }
    while let Some(slot) = work.pop() {
        let pc = cfg.reachable[slot];
        let at = index[slot].expect("queued slot has a state") as usize;
        counts.visits += 1;
        transfer_into(program, cfg, pc, &reached[at].state, consts, &mut transfer);
        reached[at].access = transfer.access;
        reached[at].event = transfer.event;
        lookups.extend(transfer.lookup);
        for &(succ, ref out) in &transfer.succs {
            // `reachable` is ascending, so a reachable `pc + 1` sits in the
            // next slot.
            let succ_slot = if succ == pc + 1 {
                slot + 1
            } else {
                cfg.slot(succ).expect("a successor of a reachable pc is reachable")
            };
            let Some(existing) = index[succ_slot] else {
                reach(&mut reached, &mut index, succ_slot, succ, out.clone());
                work.push(succ_slot);
                continue;
            };
            let existing = &mut reached[existing as usize];
            counts.joins += 1;
            // Widen only across retreating edges. Every cycle in pc space
            // closes with one (`succ <= pc`), so this still guarantees
            // termination, while straight-line states inside a loop keep
            // the bounds a guard refined out of the widened loop-head
            // state. Only a widening reads the registers before the join.
            let before = if succ <= pc && existing.changes >= WIDEN_AFTER {
                Some(existing.state.regs)
            } else {
                None
            };
            if existing.state.join_from(out) {
                existing.changes += 1;
                if let Some(before) = before {
                    existing.state.widen_from(&before);
                    counts.widenings += 1;
                }
                work.push(succ_slot);
            }
        }
    }
    reached.sort_unstable_by_key(|r| r.pc);
    ThreadFlow { reached, lookups, work: counts }
}

/// Adds a first-reached pc's entry to the arena and its slot's index.
fn reach(
    reached: &mut Vec<Reached>,
    index: &mut [Option<u32>],
    slot: usize,
    pc: usize,
    state: State,
) {
    index[slot] = Some(u32::try_from(reached.len()).expect("fewer than 2^32 reached pcs"));
    reached.push(Reached { pc, state, access: None, event: None, changes: 0 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::ProgramBuilder;

    fn flow_of(b: ProgramBuilder, entry: usize) -> (Program, Cfg, ThreadFlow) {
        let p = b.build();
        let args = p.threads().iter().find(|t| t.entry == entry).map_or(vec![], |t| t.args.clone());
        let cfg = Cfg::build(&p, entry);
        let flow = fixpoint(&p, &cfg, &args);
        (p, cfg, flow)
    }

    #[test]
    fn constants_propagate_and_loops_terminate() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let top = b.fresh_label("top");
        b.movi(Reg::R2, 10)
            .movi(Reg::R1, 0)
            .label(top)
            .addi(Reg::R1, Reg::R1, 1)
            .branch(Cond::Ne, Reg::R1, Reg::R2, top)
            .halt();
        // The fixpoint must terminate (widening) with the loop-invariant
        // bound still a known constant; the widened counter may go to Top.
        let (_, _, flow) = flow_of(b, 0);
        let at_branch = flow.state(3).unwrap();
        assert_eq!(at_branch.regs[2].as_const(), Some(10));
    }

    #[test]
    fn cas_spinlock_is_held_after_the_retry_branch() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let spin = b.fresh_label("spin");
        b.movi(Reg::R10, 0)
            .movi(Reg::R11, 1)
            .label(spin)
            .cas(Reg::R12, Reg::R15, 0x40, Reg::R10, Reg::R11)
            .branch(Cond::Eq, Reg::R12, Reg::R15, spin)
            .store(Reg::R1, Reg::R15, 0x8) // critical section
            .movi(Reg::R10, 0)
            .atomic_rmw(RmwOp::Xchg, Reg::R12, Reg::R15, 0x40, Reg::R10)
            .store(Reg::R1, Reg::R15, 0x8) // after release
            .halt();
        let (_, _, flow) = flow_of(b, 0);
        assert!(flow.state(4).unwrap().locks.contains(&0x40), "critical section holds the lock");
        assert!(!flow.state(7).unwrap().locks.contains(&0x40), "released after xchg 0");
    }

    #[test]
    fn xchg_spinlock_is_recognized() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let spin = b.fresh_label("spin");
        b.movi(Reg::R11, 1)
            .label(spin)
            .atomic_rmw(RmwOp::Xchg, Reg::R12, Reg::R15, 0x40, Reg::R11)
            .branch(Cond::Ne, Reg::R12, Reg::R15, spin)
            .store(Reg::R1, Reg::R15, 0x8)
            .halt();
        let (_, _, flow) = flow_of(b, 0);
        assert!(flow.state(3).unwrap().locks.contains(&0x40));
    }

    #[test]
    fn unconfirmed_acquire_adds_no_lock() {
        // CAS without a branch on its flag: the analysis must not assume the
        // lock was taken.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        b.movi(Reg::R10, 0)
            .movi(Reg::R11, 1)
            .cas(Reg::R12, Reg::R15, 0x40, Reg::R10, Reg::R11)
            .store(Reg::R1, Reg::R15, 0x8)
            .halt();
        let (_, _, flow) = flow_of(b, 0);
        assert!(flow.state(3).unwrap().locks.is_empty());
    }

    #[test]
    fn div_guard_bounds_a_widened_loop_counter() {
        // Top-tested loop: `while r5 / 8 == 0 { load 0x200 + r5; r5 += 1 }`.
        // Widening sends the counter to [0, u64::MAX] at the loop head, but
        // the division guard refines the in-loop copy back to [0, 7], so the
        // load's address stays a bounded global range instead of Unknown.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let top = b.fresh_label("top");
        let done = b.fresh_label("done");
        b.movi(Reg::R5, 0)
            .label(top)
            .bini(BinOp::Div, Reg::R3, Reg::R5, 8)
            .branch(Cond::Ne, Reg::R3, Reg::R15, done)
            .movi(Reg::R7, 0x200)
            .add(Reg::R7, Reg::R7, Reg::R5)
            .load(Reg::R6, Reg::R7, 0)
            .addi(Reg::R5, Reg::R5, 1)
            .jump(top)
            .label(done)
            .halt();
        let (p, cfg, flow) = flow_of(b, 0);
        let t = transfer(&p, &cfg, 5, flow.state(5).unwrap());
        assert_eq!(t.access.unwrap().loc, AbsLoc::Global { lo: 0x200, hi: 0x207 });
    }

    #[test]
    fn sub_guard_pins_an_equality_exit() {
        // r5 is unknown (loaded from memory); `if r5 - 3 == 0` pins r5 to
        // exactly 3 on the taken edge.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let hit = b.fresh_label("hit");
        b.load(Reg::R5, Reg::R15, 0x20)
            .bini(BinOp::Sub, Reg::R3, Reg::R5, 3)
            .branch(Cond::Eq, Reg::R3, Reg::R15, hit)
            .halt()
            .label(hit)
            .halt();
        let (_, _, flow) = flow_of(b, 0);
        assert_eq!(flow.state(4).unwrap().regs[5].as_const(), Some(3));
    }

    #[test]
    fn code_behind_a_contradictory_zero_test_gets_no_state() {
        // `r1` is 1, so the `beq r1, 0` edge to the store is infeasible: the
        // CFG reaches the store, but the fixpoint does not, and the analysis
        // harvests no access there.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let dead = b.fresh_label("dead");
        b.movi(Reg::R1, 1)
            .branch(Cond::Eq, Reg::R1, Reg::R15, dead)
            .halt()
            .label(dead)
            .store(Reg::R1, Reg::R15, 8)
            .halt();
        let (p, cfg, flow) = flow_of(b, 0);
        assert!(cfg.contains(3));
        assert!(flow.state(3).is_none());
        assert_eq!(flow.iter().map(|r| r.pc).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(flow.iter().all(|r| r.access.is_none()));
        assert!(crate::analyze(&p).threads[0].accesses.is_empty());
    }

    #[test]
    fn join_reports_a_lockset_that_shrank_in_place() {
        let mut held = State::entry(&[]);
        held.locks = [0x40, 0x48].into_iter().collect();
        let mut fewer = held.clone();
        fewer.locks.remove(&0x48);
        assert!(held.join_from(&fewer), "dropping 0x48 is a change");
        assert_eq!(held.locks, fewer.locks);
        assert!(!held.join_from(&fewer), "an equal lockset is no change");
        let mut none = held.clone();
        none.locks.clear();
        assert!(held.join_from(&none));
        assert!(held.locks.is_empty());
    }

    #[test]
    fn each_reached_pc_keeps_its_transfer_on_the_final_state() {
        // A loop whose counter widens, with a lock taken and released: the
        // access and lock event the fixpoint kept for each pc are what a
        // fresh transfer of its final state sees.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let spin = b.fresh_label("spin");
        let top = b.fresh_label("top");
        b.movi(Reg::R10, 0)
            .movi(Reg::R11, 1)
            .label(spin)
            .cas(Reg::R12, Reg::R15, 0x40, Reg::R10, Reg::R11)
            .branch(Cond::Eq, Reg::R12, Reg::R15, spin)
            .movi(Reg::R5, 0x100)
            .label(top)
            .store(Reg::R1, Reg::R5, 0)
            .addi(Reg::R5, Reg::R5, 8)
            .branch(Cond::Ne, Reg::R5, Reg::R15, top)
            .movi(Reg::R10, 0)
            .atomic_rmw(RmwOp::Xchg, Reg::R12, Reg::R15, 0x40, Reg::R10)
            .halt();
        let (p, cfg, flow) = flow_of(b, 0);
        assert!(flow.iter().any(|r| r.event.is_some()) && flow.iter().any(|r| r.access.is_some()));
        for r in flow.iter() {
            let t = transfer(&p, &cfg, r.pc, &r.state);
            assert_eq!((r.access, r.event), (t.access, t.event), "pc {}", r.pc);
        }
    }

    #[test]
    fn alloc_taints_r0_as_heap() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        b.movi(Reg::R0, 4).syscall(SysCall::Alloc).store(Reg::R1, Reg::R0, 8).halt();
        let (p, cfg, flow) = flow_of(b, 0);
        let t = transfer(&p, &cfg, 2, flow.state(2).unwrap());
        assert_eq!(t.access.unwrap().loc, AbsLoc::Heap { site: Some(1) });
    }
}
