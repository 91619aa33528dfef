//! Benign-idiom recognition: predicting the replay classifier's verdict.
//!
//! The paper's Table 2 buckets almost every benign race into a handful of
//! syntactic/dataflow idioms. This pass re-derives those buckets *statically*
//! from the same per-thread CFGs and abstract states the candidate-pair
//! analysis already computes, tagging each [`crate::RaceWarning`] with a
//! [`PredictedVerdict`] before any execution happens.
//!
//! # Recognizers (Table 2 rows)
//!
//! * [`Idiom::SpinWait`] — *user constructed synchronization*: a plain load
//!   inside a self-loop whose exit guard compares the raced word against a
//!   provable zero, paired with a cross-thread plain store of a value that
//!   terminates the spin (polarity-matched: an `eq`-guarded wait-for-nonzero
//!   needs a provably non-zero store; a `ne`-guarded wait-for-zero needs a
//!   stored zero). Distinct from CAS/xchg locks, which `absint` recognizes
//!   and the lockset pruning already removes.
//! * [`Idiom::DoubleCheck`] — a racy load guarding a region that re-tests
//!   the loaded value and then re-stores a provable constant to the *same*
//!   address, paired with a write of that same constant.
//! * [`Idiom::RedundantWrite`] — both sides store a provably equal constant,
//!   or both write a global that is *single-valued*: every write program-wide
//!   stores the same constant the image initializes it to.
//! * [`Idiom::DisjointBits`] — a plain load whose consumed-bit mask is
//!   provably disjoint from the other side's written-bit mask. Restricted to
//!   load-vs-write pairs: two masked read-modify-write *stores* can still
//!   diverge under reordering (the preserved bits of the later store were
//!   read before the earlier store landed), so write/write pairs stay
//!   [`Idiom::Unknown`].
//! * [`Idiom::Unknown`] — no idiom matched; predicted harmful. The pass is
//!   conservative: every imprecision lands here.
//!
//! Confidence is [`Confidence::High`] only where the recognizer's proof
//! obligation covers the replay classifier's convergence argument
//! (spin-wait, redundant write, disjoint bits). Double checks stay
//! [`Confidence::Low`]: whether the *recorded* execution took the cold
//! initialization path — which replays as a failure — is invisible
//! statically.

use std::collections::{BTreeMap, BTreeSet};

use tvm::isa::{BinOp, Cond, Instr, Reg, RmwOp, NUM_REGS};
use tvm::program::Program;

use crate::absint::{AccessFact, ThreadFlow};
use crate::analysis::{Access, ThreadSummary};
use crate::cfg::{def_of, PcSet};
use crate::domain::{AbsLoc, AbsVal};

/// Instructions examined by the short forward/backward scans.
const SCAN_BOUND: usize = 16;

/// Instructions examined by the longer linear scans (guarded regions,
/// consumed-bit tracking).
const LONG_SCAN_BOUND: usize = 64;

/// A Table 2 benign-race idiom (or the absence of one).
///
/// The `Ord` order is the recognizer priority: when one warning aggregates
/// access pairs matching *different* idioms, [`PredictedVerdict::combine`]
/// keeps the later (weaker) one.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Idiom {
    /// User-constructed synchronization: spin-wait on a flag word.
    SpinWait,
    /// Double-checked initialization.
    DoubleCheck,
    /// Both sides write a provably equal value.
    RedundantWrite,
    /// Provably non-overlapping bit manipulation.
    DisjointBits,
    /// No idiom recognized: predicted harmful.
    Unknown,
}

impl Idiom {
    /// Stable lowercase label used by the text and JSON reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Idiom::SpinWait => "spin-wait",
            Idiom::DoubleCheck => "double-check",
            Idiom::RedundantWrite => "redundant-write",
            Idiom::DisjointBits => "disjoint-bits",
            Idiom::Unknown => "unknown",
        }
    }
}

/// How sure the recognizer is that replay will agree.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// The idiom is plausible but the convergence argument has a statically
    /// invisible precondition.
    Low,
    /// The recognizer's proof covers the replay convergence argument.
    High,
}

impl Confidence {
    /// Stable lowercase label used by the text and JSON reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Confidence::Low => "low",
            Confidence::High => "high",
        }
    }
}

/// The static prediction attached to one [`crate::RaceWarning`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PredictedVerdict {
    /// The matched idiom ([`Idiom::Unknown`] when none).
    pub idiom: Idiom,
    /// Recognition confidence.
    pub confidence: Confidence,
}

impl PredictedVerdict {
    /// The conservative default: no idiom, predicted harmful.
    pub const UNKNOWN: PredictedVerdict =
        PredictedVerdict { idiom: Idiom::Unknown, confidence: Confidence::Low };

    /// Whether the prediction is *benign* (any idiom matched).
    #[must_use]
    pub fn benign(self) -> bool {
        self.idiom != Idiom::Unknown
    }

    /// Whether the prediction is benign at high confidence — the only grade
    /// `TrustStatic::SkipAgreedBenign` may act on.
    #[must_use]
    pub fn high_confidence_benign(self) -> bool {
        self.benign() && self.confidence == Confidence::High
    }

    /// Folds two per-pair predictions into one per-warning prediction.
    /// Commutative, associative, and idempotent: equal idioms keep the lower
    /// confidence; any [`Idiom::Unknown`] contribution wins (conservative);
    /// two different benign idioms keep the lower-priority one at
    /// [`Confidence::Low`].
    #[must_use]
    pub fn combine(self, other: Self) -> Self {
        if self.idiom == other.idiom {
            PredictedVerdict {
                idiom: self.idiom,
                confidence: self.confidence.min(other.confidence),
            }
        } else if !self.benign() || !other.benign() {
            PredictedVerdict::UNKNOWN
        } else {
            PredictedVerdict { idiom: self.idiom.max(other.idiom), confidence: Confidence::Low }
        }
    }
}

/// Which stored value terminates a recognized spin.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SpinPolarity {
    /// The guard re-spins on zero (`beq …, 0, spin`): any non-zero store
    /// releases the waiter.
    WaitNonzero,
    /// The guard re-spins on non-zero (`bne …, 0, spin`): a zero store
    /// releases the waiter.
    WaitZero,
}

/// Per-access dataflow facts the pair recognizers consume.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessIdiom {
    /// Abstract value written, when directly visible (plain store, `xchg`).
    pub stored: Option<AbsVal>,
    /// Bits this write may change; `u64::MAX` when unknown, `0` for reads.
    pub write_mask: u64,
    /// Bits of the loaded word the continuation may consume; `u64::MAX`
    /// when unknown, `0` for pure writes.
    pub read_mask: u64,
    /// For loads: the self-loop spin guard on the loaded value, if any.
    pub spin_guard: Option<SpinPolarity>,
    /// For loads: the constant the guarded zero-path re-stores to the same
    /// address, if the double-check shape matched.
    pub check_store: Option<u64>,
}

impl Default for AccessIdiom {
    fn default() -> Self {
        AccessIdiom {
            stored: None,
            write_mask: u64::MAX,
            read_mask: u64::MAX,
            spin_guard: None,
            check_store: None,
        }
    }
}

fn is_control(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Branch { .. } | Instr::Jump { .. } | Instr::Call { .. } | Instr::Ret | Instr::Halt
    )
}

/// Every pc control can reach other than by falling through from `pc - 1`:
/// branch/jump/call targets, call return points (`ret` lands there), and
/// thread entries. Backward scans must not step across one.
pub(crate) fn control_barriers(program: &Program) -> PcSet {
    let mut barriers = PcSet::new(program.len());
    for t in program.threads() {
        barriers.insert(t.entry);
    }
    for pc in 0..program.len() {
        match program.instr(pc) {
            Some(&Instr::Jump { target } | &Instr::Branch { target, .. }) => {
                barriers.insert(target);
            }
            Some(&Instr::Call { target }) => {
                barriers.insert(target);
                barriers.insert(pc + 1);
            }
            _ => {}
        }
    }
    barriers
}

/// The `eq`/`ne` branch that tests a loaded register against zero.
#[derive(Copy, Clone)]
struct ZeroTest {
    pc: usize,
    cond: Cond,
    target: usize,
}

/// Finds the `eq`/`ne` zero-test on `reg` within the next few straight-line
/// instructions. Bails on any control transfer or redefinition of `reg`
/// first.
fn find_zero_test(program: &Program, flow: &ThreadFlow, pc: usize, reg: Reg) -> Option<ZeroTest> {
    for p in pc + 1..(pc + 1 + SCAN_BOUND).min(program.len()) {
        let instr = program.instr(p)?;
        if let Instr::Branch { cond, lhs, rhs, target } = *instr {
            let (Cond::Eq | Cond::Ne) = cond else { return None };
            let other = if lhs == reg {
                rhs
            } else if rhs == reg {
                lhs
            } else {
                return None;
            };
            let state = flow.state(p)?;
            if state.reg(other).as_const() != Some(0) {
                return None;
            }
            return Some(ZeroTest { pc: p, cond, target });
        }
        if is_control(instr) || def_of(instr) == Some(reg) {
            return None;
        }
    }
    None
}

/// Recognizes the spin-wait shape for the load at `pc`, whose value `test`
/// zero-tests: the test's taken edge retreats to (or before) the load
/// itself.
fn spin_guard(test: ZeroTest, pc: usize) -> Option<SpinPolarity> {
    (test.target <= pc).then_some(if test.cond == Cond::Eq {
        SpinPolarity::WaitNonzero
    } else {
        SpinPolarity::WaitZero
    })
}

/// Recognizes the double-check shape for a load from `[base + offset]`
/// whose value `test` zero-tests: the zero edge re-stores a provable
/// constant to the same `[base + offset]` operand before any further
/// control transfer. Returns that constant.
fn check_store(
    program: &Program,
    flow: &ThreadFlow,
    test: ZeroTest,
    base: Reg,
    offset: i64,
) -> Option<u64> {
    // `beq v, 0, t` goes to `t` when the value was zero; `bne` falls through.
    let start = if test.cond == Cond::Eq { test.target } else { test.pc + 1 };
    for p in start..start + LONG_SCAN_BOUND {
        let instr = program.instr(p)?;
        match *instr {
            Instr::Store { src, base: b, offset: o } if b == base && o == offset => {
                return flow.state(p)?.reg(src).as_const();
            }
            Instr::Store { .. } => {}
            _ if is_control(instr) => return None,
            _ => {
                if def_of(instr) == Some(base) {
                    return None;
                }
            }
        }
    }
    None
}

/// Bits the plain store at `store_pc` may change, relative to the current
/// memory word: walks the stored register's definition chain backward to a
/// load of the *same* `[base + offset]` operand, accumulating `and`-mask
/// keeps and `or`/`xor` set-bounds. Any step across a control barrier, an
/// intervening memory write, or an unrecognized producer gives `u64::MAX`.
fn store_write_mask(
    program: &Program,
    flow: &ThreadFlow,
    barriers: &PcSet,
    store_pc: usize,
    src: Reg,
    base: Reg,
    offset: i64,
) -> u64 {
    let mut cur = src;
    // Bits of the loaded word the stored value provably preserves.
    let mut same = u64::MAX;
    let mut p = store_pc;
    for _ in 0..SCAN_BOUND {
        if p == 0 || barriers.contains(p) {
            return u64::MAX;
        }
        p -= 1;
        let Some(instr) = program.instr(p) else { return u64::MAX };
        if def_of(instr) == Some(cur) {
            match *instr {
                Instr::Load { base: b, offset: o, .. } if b == base && o == offset => {
                    return !same;
                }
                Instr::Mov { src: s, .. } => cur = s,
                Instr::BinImm { op: BinOp::And, lhs, imm, .. } => {
                    same &= imm;
                    cur = lhs;
                }
                Instr::BinImm { op: BinOp::Or | BinOp::Xor, lhs, imm, .. } => {
                    same &= !imm;
                    cur = lhs;
                }
                Instr::Bin { op: BinOp::Or | BinOp::Xor, lhs, rhs, .. } => {
                    let set = flow.state(p).map_or(u64::MAX, |s| s.reg(rhs).may_set_mask());
                    same &= !set;
                    cur = lhs;
                }
                _ => return u64::MAX,
            }
        } else if is_control(instr)
            || matches!(
                instr,
                Instr::Store { .. } | Instr::AtomicRmw { .. } | Instr::AtomicCas { .. }
            )
            || def_of(instr) == Some(base)
        {
            return u64::MAX;
        }
    }
    u64::MAX
}

/// Bits of the word loaded at `pc` the continuation may consume. Carries a
/// per-register mask forward through copies and `and`-masks; every other
/// consumer exposes the carried bits, and any control transfer, atomic, or
/// syscall pessimistically exposes everything still carried (carried
/// registers are live-outs of the straight-line region).
fn load_read_mask(program: &Program, pc: usize, dst: Reg) -> u64 {
    let mut carried = [0u64; NUM_REGS];
    carried[dst.index()] = u64::MAX;
    let mut exposed = 0u64;
    let carried_union = |carried: &[u64; NUM_REGS]| carried.iter().fold(0u64, |acc, &m| acc | m);
    for p in pc + 1..pc + 1 + LONG_SCAN_BOUND {
        if carried.iter().all(|&m| m == 0) {
            return exposed;
        }
        let Some(instr) = program.instr(p) else { break };
        match *instr {
            Instr::MovImm { dst, .. } => carried[dst.index()] = 0,
            Instr::Mov { dst, src } => carried[dst.index()] = carried[src.index()],
            Instr::BinImm { op: BinOp::And, dst, lhs, imm } => {
                carried[dst.index()] = carried[lhs.index()] & imm;
            }
            Instr::BinImm { dst, lhs, .. } => {
                exposed |= carried[lhs.index()];
                carried[dst.index()] = 0;
            }
            Instr::Bin { dst, lhs, rhs, .. } => {
                exposed |= carried[lhs.index()] | carried[rhs.index()];
                carried[dst.index()] = 0;
            }
            Instr::Load { dst, base, .. } => {
                exposed |= carried[base.index()];
                carried[dst.index()] = 0;
            }
            Instr::Store { src, base, .. } => {
                exposed |= carried[src.index()] | carried[base.index()];
            }
            _ => return exposed | carried_union(&carried),
        }
    }
    exposed | carried_union(&carried)
}

/// Computes the per-access idiom facts for the access `fact` at `pc`.
pub(crate) fn access_facts(
    program: &Program,
    flow: &ThreadFlow,
    barriers: &PcSet,
    pc: usize,
    fact: &AccessFact,
) -> AccessIdiom {
    let mut out = AccessIdiom {
        stored: fact.stored,
        write_mask: if fact.writes { u64::MAX } else { 0 },
        read_mask: if fact.reads { u64::MAX } else { 0 },
        spin_guard: None,
        check_store: None,
    };
    match program.instr(pc) {
        Some(&Instr::Load { dst, base, offset }) => {
            if let Some(test) = find_zero_test(program, flow, pc, dst) {
                out.spin_guard = spin_guard(test, pc);
                out.check_store = check_store(program, flow, test, base, offset);
            }
            out.read_mask = load_read_mask(program, pc, dst);
        }
        Some(&Instr::Store { src, base, offset }) => {
            out.write_mask = store_write_mask(program, flow, barriers, pc, src, base, offset);
        }
        Some(&Instr::AtomicRmw { op, src, .. }) => {
            let stored = flow.state(pc).map_or(AbsVal::Top, |s| s.reg(src));
            out.write_mask = match op {
                RmwOp::And => stored.as_const().map_or(u64::MAX, |c| !c),
                RmwOp::Or | RmwOp::Xor => stored.may_set_mask(),
                RmwOp::Add | RmwOp::Sub | RmwOp::Xchg => u64::MAX,
            };
        }
        _ => {}
    }
    out
}

/// Globals whose every *resolved* write stores the image's initial
/// constant, plus whether any write in the program escaped resolution.
///
/// When `unresolved_writes` is false the membership proof is airtight: the
/// word provably never changes, so any racing pair on it is order-invariant
/// at [`Confidence::High`]. An unresolved write may alias any global, so it
/// cannot be ruled out as a third party that changes the word between the
/// racing pair — membership then only supports [`Confidence::Low`]. Range
/// writes disable the globals they cover outright (their stored values are
/// loop-carried, never one constant).
#[derive(Clone, Debug, Default)]
pub struct SingleValued {
    constant_globals: BTreeSet<u64>,
    unresolved_writes: bool,
}

impl SingleValued {
    /// The confidence the single-valued argument supports for `addr`, or
    /// `None` when some resolved write changes the word.
    fn confidence_for(&self, addr: u64) -> Option<Confidence> {
        self.constant_globals.contains(&addr).then_some(if self.unresolved_writes {
            Confidence::Low
        } else {
            Confidence::High
        })
    }

    #[cfg(test)]
    pub(crate) fn proven(&self) -> BTreeSet<u64> {
        if self.unresolved_writes {
            BTreeSet::new()
        } else {
            self.constant_globals.clone()
        }
    }
}

pub(crate) fn single_valued_globals(program: &Program, threads: &[ThreadSummary]) -> SingleValued {
    let mut candidates: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    let mut killed_ranges: Vec<(u64, u64)> = Vec::new();
    let mut unresolved_writes = false;
    for access in threads.iter().flat_map(|t| &t.accesses).filter(|a| a.writes) {
        match access.loc {
            AbsLoc::Unknown => unresolved_writes = true,
            AbsLoc::Heap { .. } => {}
            AbsLoc::Global { lo, hi } if lo == hi => {
                let stored = access.idiom.stored.and_then(AbsVal::as_const);
                let entry = candidates.entry(lo).or_insert(stored);
                if *entry != stored || stored.is_none() {
                    *entry = None;
                }
            }
            AbsLoc::Global { lo, hi } => killed_ranges.push((lo, hi)),
            AbsLoc::Above { lo } => killed_ranges.push((lo, u64::MAX)),
        }
    }
    let constant_globals = candidates
        .into_iter()
        .filter_map(|(addr, stored)| {
            let stored = stored?;
            let initial = program.globals().get(&addr).copied().unwrap_or(0);
            (stored == initial && !killed_ranges.iter().any(|&(lo, hi)| lo <= addr && addr <= hi))
                .then_some(addr)
        })
        .collect();
    SingleValued { constant_globals, unresolved_writes }
}

fn plain_load(a: &Access) -> bool {
    a.reads && !a.writes && !a.atomic
}

fn plain_store(a: &Access) -> bool {
    a.writes && !a.reads && !a.atomic
}

fn spin_wait(load: &Access, store: &Access) -> Option<PredictedVerdict> {
    if !plain_load(load) || !plain_store(store) {
        return None;
    }
    let stored = store.idiom.stored?;
    let released = match load.idiom.spin_guard? {
        SpinPolarity::WaitNonzero => stored.is_nonzero(),
        SpinPolarity::WaitZero => stored.as_const() == Some(0),
    };
    released.then_some(PredictedVerdict { idiom: Idiom::SpinWait, confidence: Confidence::High })
}

fn double_check(load: &Access, write: &Access) -> Option<PredictedVerdict> {
    if !plain_load(load) || !write.writes {
        return None;
    }
    let constant = load.idiom.check_store?;
    (write.idiom.stored.and_then(AbsVal::as_const) == Some(constant))
        .then_some(PredictedVerdict { idiom: Idiom::DoubleCheck, confidence: Confidence::Low })
}

fn redundant_write(
    a: &Access,
    b: &Access,
    single_valued: &SingleValued,
) -> Option<PredictedVerdict> {
    if plain_store(a) && plain_store(b) {
        let (va, vb) =
            (a.idiom.stored.and_then(AbsVal::as_const), b.idiom.stored.and_then(AbsVal::as_const));
        if let (Some(x), Some(y)) = (va, vb) {
            if x == y {
                // Two stores of the same constant commute no matter what
                // other writes exist, so this is High even when the program
                // has unresolved writes elsewhere.
                return Some(PredictedVerdict {
                    idiom: Idiom::RedundantWrite,
                    confidence: Confidence::High,
                });
            }
        }
    }
    // Any access pair on a single-valued global is order-invariant: every
    // write anywhere in the program stores the word's initial constant, so
    // a racing load reads that constant and a racing write re-stores it in
    // either order. (Candidate pairs always contain a write; the read side,
    // if any, need not be one.) The confidence tracks the strength of the
    // single-valued proof: Low when an unresolved write might be a third
    // party that changes the word.
    if let (Some(ga), Some(gb)) = (a.loc.exact_global(), b.loc.exact_global()) {
        if ga == gb {
            if let Some(confidence) = single_valued.confidence_for(ga) {
                return Some(PredictedVerdict { idiom: Idiom::RedundantWrite, confidence });
            }
        }
    }
    None
}

fn disjoint_bits(load: &Access, write: &Access) -> Option<PredictedVerdict> {
    if !plain_load(load) || !write.writes {
        return None;
    }
    (load.idiom.read_mask & write.idiom.write_mask == 0)
        .then_some(PredictedVerdict { idiom: Idiom::DisjointBits, confidence: Confidence::High })
}

/// Classifies one surviving candidate access pair against the Table 2
/// recognizers, in priority order.
#[must_use]
pub fn classify_pair(a: &Access, b: &Access, single_valued: &SingleValued) -> PredictedVerdict {
    spin_wait(a, b)
        .or_else(|| spin_wait(b, a))
        .or_else(|| double_check(a, b))
        .or_else(|| double_check(b, a))
        .or_else(|| redundant_write(a, b, single_valued))
        .or_else(|| disjoint_bits(a, b))
        .or_else(|| disjoint_bits(b, a))
        .unwrap_or(PredictedVerdict::UNKNOWN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::asm::assemble;

    fn analysis_of(src: &str) -> crate::Analysis {
        crate::analyze(&assemble(src).expect("test program assembles"))
    }

    fn only_warning(a: &crate::Analysis) -> &crate::RaceWarning {
        assert_eq!(a.warnings.len(), 1, "{:?}", a.warnings);
        &a.warnings[0]
    }

    #[test]
    fn combine_is_idempotent_commutative_and_conservative() {
        let spin = PredictedVerdict { idiom: Idiom::SpinWait, confidence: Confidence::High };
        let rw = PredictedVerdict { idiom: Idiom::RedundantWrite, confidence: Confidence::High };
        let unknown = PredictedVerdict::UNKNOWN;
        assert_eq!(spin.combine(spin), spin);
        assert_eq!(spin.combine(unknown), unknown);
        assert_eq!(unknown.combine(spin), unknown);
        assert_eq!(
            spin.combine(rw),
            PredictedVerdict { idiom: Idiom::RedundantWrite, confidence: Confidence::Low }
        );
        assert_eq!(spin.combine(rw), rw.combine(spin));
    }

    #[test]
    fn spin_wait_flag_predicts_benign() {
        let a = analysis_of(
            ".thread waiter\n\
             spin:\n  ld r1, [r15+32]\n  beq r1, r15, spin\n  halt\n\
             .thread setter\n  movi r1, 1\n  st [r15+32], r1\n  halt\n",
        );
        let w = only_warning(&a);
        assert_eq!(w.predicted.idiom, Idiom::SpinWait, "{w:?}");
        assert!(w.predicted.high_confidence_benign());
        assert_eq!(a.stats.predicted_benign, 1);
    }

    #[test]
    fn zero_storing_partner_fails_the_spin_polarity() {
        // The waiter spins until the flag is non-zero, but the partner
        // stores zero: pairing them would deadlock, not synchronize. (The
        // word starts at 5 so the zero store isn't a single-valued
        // redundant write either.)
        let a = analysis_of(
            ".global 0x20 5\n\
             .thread waiter\n\
             spin:\n  ld r1, [r15+32]\n  beq r1, r15, spin\n  halt\n\
             .thread setter\n  st [r15+32], r15\n  halt\n",
        );
        assert_eq!(only_warning(&a).predicted.idiom, Idiom::Unknown);
    }

    #[test]
    fn wait_for_zero_spin_matches_a_zero_store() {
        let a = analysis_of(
            ".thread waiter\n\
             spin:\n  ld r1, [r15+32]\n  bne r1, r15, spin\n  halt\n\
             .thread setter\n  st [r15+32], r15\n  halt\n",
        );
        assert_eq!(only_warning(&a).predicted.idiom, Idiom::SpinWait);
    }

    #[test]
    fn double_check_predicts_benign_at_low_confidence() {
        let a = analysis_of(
            ".global 0x20 0\n\
             .thread checker\n  ld r1, [r15+32]\n  bne r1, r15, done\n  movi r2, 1\n  \
             st [r15+32], r2\ndone:\n  halt\n\
             .thread setter\n  movi r2, 1\n  st [r15+32], r2\n  halt\n",
        );
        // Warnings: (checker load, setter store), (checker store, setter
        // store). The load-side pair is the double check.
        let w = a
            .warnings
            .iter()
            .find(|w| w.predicted.idiom == Idiom::DoubleCheck)
            .expect("double check recognized");
        assert_eq!(w.predicted.confidence, Confidence::Low);
        assert!(!w.predicted.high_confidence_benign());
    }

    #[test]
    fn equal_constant_stores_are_redundant_writes() {
        let a = analysis_of(
            ".thread a\n  movi r1, 29\n  st [r15+32], r1\n  halt\n\
             .thread b\n  movi r3, 29\n  st [r15+32], r3\n  halt\n",
        );
        let w = only_warning(&a);
        assert_eq!(w.predicted.idiom, Idiom::RedundantWrite);
        assert!(w.predicted.high_confidence_benign());
    }

    #[test]
    fn different_constant_stores_stay_unknown() {
        let a = analysis_of(
            ".thread a\n  movi r1, 29\n  st [r15+32], r1\n  halt\n\
             .thread b\n  movi r3, 30\n  st [r15+32], r3\n  halt\n",
        );
        assert_eq!(only_warning(&a).predicted.idiom, Idiom::Unknown);
    }

    #[test]
    fn disjoint_bit_fields_predict_benign() {
        // Writer flips only the low byte; reader consumes only bits 8..16.
        let src = ".global 0x20 0xab00\n\
             .thread writer\n  movi r1, 5\n  ld r2, [r15+32]\n  andi r2, r2, -256\n  \
             or r2, r2, r1\n  st [r15+32], r2\n  halt\n\
             .thread reader\n  ld r1, [r15+32]\n  andi r1, r1, 65280\n  sys.print\n  halt\n";
        let a = analysis_of(src);
        let pairs: Vec<_> = a.warnings.iter().map(|w| (w.lo.pc, w.hi.pc, w.predicted)).collect();
        // (writer store, reader load) must be disjoint-bits; the writer's
        // own load pairs read/write with the store of the *other* side only
        // via the single store here, also disjoint from the reader.
        assert!(
            a.warnings.iter().any(|w| w.predicted.idiom == Idiom::DisjointBits
                && w.predicted.high_confidence_benign()),
            "{pairs:?}"
        );
    }

    #[test]
    fn overlapping_masks_stay_unknown() {
        let src = ".global 0x20 0\n\
             .thread writer\n  movi r1, 5\n  ld r2, [r15+32]\n  andi r2, r2, -256\n  \
             or r2, r2, r1\n  st [r15+32], r2\n  halt\n\
             .thread reader\n  ld r1, [r15+32]\n  andi r1, r1, 255\n  sys.print\n  halt\n";
        let a = analysis_of(src);
        let store_load = a
            .warnings
            .iter()
            .find(|w| w.lo.writes != w.hi.writes)
            .expect("store/load warning exists");
        assert_eq!(store_load.predicted.idiom, Idiom::Unknown, "{store_load:?}");
    }

    #[test]
    fn single_valued_global_makes_writes_redundant_via_xchg() {
        // Both sides exchange the same constant the image initializes, so
        // the word provably never changes even though xchg captures the old
        // value.
        let a = analysis_of(
            ".global 0x20 7\n\
             .thread a\n  movi r1, 7\n  st [r15+32], r1\n  halt\n\
             .thread b\n  movi r1, 7\n  st [r15+32], r1\n  sys.nop\n  halt\n",
        );
        assert_eq!(only_warning(&a).predicted.idiom, Idiom::RedundantWrite);
    }

    #[test]
    fn single_valued_global_covers_racing_loads() {
        // The writer stores the word's initial constant, so a racing load
        // reads that constant in either order — benign without being a
        // store/store pair.
        let a = analysis_of(
            ".global 0x20 81\n\
             .thread w\n  movi r1, 81\n  st [r15+32], r1\n  halt\n\
             .thread r\n  ld r1, [r15+32]\n  sys.print\n  halt\n",
        );
        let w = only_warning(&a);
        assert_eq!(w.predicted.idiom, Idiom::RedundantWrite, "{w:?}");
        assert!(w.predicted.high_confidence_benign());
    }

    #[test]
    fn non_initial_constant_is_not_single_valued() {
        // Both sides store 7 but the image holds 0: the *pair* is still a
        // redundant write (equal constants), but the single-valued set must
        // be empty — a reader elsewhere could see 0 or 7.
        let p = assemble(
            ".global 0x20 0\n\
             .thread a\n  movi r1, 7\n  st [r15+32], r1\n  halt\n\
             .thread b\n  movi r1, 7\n  st [r15+32], r1\n  halt\n",
        )
        .unwrap();
        let a = crate::analyze(&p);
        assert!(single_valued_globals(&p, &a.threads).proven().is_empty());
        assert_eq!(only_warning(&a).predicted.idiom, Idiom::RedundantWrite);
    }

    #[test]
    fn rmw_disables_single_valued() {
        let p = assemble(
            ".global 0x20 7\n\
             .thread a\n  movi r1, 7\n  st [r15+32], r1\n  halt\n\
             .thread b\n  movi r1, 1\n  lock.add r2, [r15+32], r1\n  halt\n",
        )
        .unwrap();
        let a = crate::analyze(&p);
        assert!(single_valued_globals(&p, &a.threads).proven().is_empty());
    }

    #[test]
    fn unresolved_write_downgrades_single_valued_to_low() {
        // Thread `u` walks a pointer in a loop, so the abstract domain loses
        // its store address. That store *might* alias the status word, so
        // the write/read pair on it drops from High to Low confidence —
        // still predicted benign, but never trusted for replay skipping.
        let a = analysis_of(
            ".global 0x20 7\n\
             .thread w\n  movi r1, 7\n  st [r15+32], r1\n  halt\n\
             .thread r\n  ld r1, [r15+32]\n  sys.print\n  halt\n\
             .thread u\n  movi r2, 0x100\n\
             loop:\n  st [r2+0], r15\n  addi r2, r2, 8\n  subi r3, r2, 0x140\n\
               bne r3, r15, loop\n  halt\n",
        );
        let wr = a
            .warnings
            .iter()
            .find(|w| w.predicted.idiom == Idiom::RedundantWrite)
            .expect("write/read warning");
        assert_eq!(wr.predicted.confidence, Confidence::Low, "{wr:?}");
        assert!(!wr.predicted.high_confidence_benign());
    }
}
