//! Static may-happen-in-parallel (MHP) analysis over sequencer-point
//! regions and validated flag handoffs (`DESIGN.md` §D11).
//!
//! The dynamic detector orders *regions*: the stretches of a thread's
//! execution between consecutive sequencer points (atomics, fences,
//! syscalls). Two regions order exactly when one ends before the other
//! begins in the recorded sequencer total order. This pass reconstructs
//! that graph statically:
//!
//! 1. **Reachability sweeps** — the acquire side's post-region, every
//!    dominance query and the release-cycle check are sweeps of one
//!    helper, `Cfg::reach`, in which a pc the sweep may not leave cuts the
//!    paths through it. Sequencer points that may not be left bound
//!    regions; an acquire that may not be left shows what it dominates.
//!    The release side's pre-region is its own fixpoint.
//! 2. **Handoff recognition** — a *release site* is an atomic that
//!    provably stores a non-zero constant to one exact global flag word
//!    (`xchg`/`lock.or` of a non-zero constant, or a `cas 0 -> nonzero`).
//!    An *acquire site* is an identity atomic read (`lock.or`/`add`/`sub`/
//!    `xor` with a provably-zero operand) followed by a zero-test branch
//!    whose zero edge spins straight back to the atomic and whose non-zero
//!    edge exits the loop.
//! 3. **Validation** — a handoff edge is trusted only when the flag word
//!    starts at zero, the release site is the *only* non-identity write to
//!    the word anywhere in the program, the release can execute at most
//!    once (it is not on a CFG cycle and is reachable by exactly one
//!    thread), and the spin exits on non-zero. Each violated rule demotes
//!    the flag with a recorded [`Demotion`] reason, mirroring the
//!    spin-lock pass.
//! 4. **Closure** — validated edges `release -> acquire` compose: an
//!    acquire chains to a later release in its own thread when the
//!    acquire's atomic dominates that release. The transitive closure over
//!    these anchors yields the cross-thread order used by the
//!    `StaticallyOrdered` prune rule.
//!
//! # Soundness
//!
//! For a validated flag `w`: `w` starts 0, the release `R` is the only
//! instruction that can make it non-zero, and the spin's identity atomics
//! write back what they read. So the *successful* (loop-exiting) execution
//! of the acquire atomic observes a value only `R` can have produced and
//! therefore follows `R` in the recorded sequencer order — in **every**
//! execution. A pc `P` whose region provably *ends at `R`* (every path
//! from `P` reaches `R` as its first sequencer, with no sequencer-free
//! exit or cycle in between) then orders before any pc `Q` whose region
//! provably *starts at the acquire* (every path to `Q` has the acquire as
//! its last sequencer). Both sides degrade conservatively: any pc that
//! fails the proof simply stays unordered, which only keeps candidate
//! pairs alive.

use std::collections::{BTreeMap, BTreeSet};

use tvm::isa::{Cond, Instr, Reg, RmwOp};
use tvm::program::Program;

use crate::absint::{Reached, ThreadFlow};
use crate::analysis::{rogue_write, Demotion, ThreadSummary};
use crate::cfg::{def_of, is_sequencer, Cfg, PcSet};

/// Instructions scanned past the acquire atomic for its zero-test branch,
/// and followed along the spin back-edge.
const SPIN_SCAN_BOUND: usize = 16;

/// One validated (or demoted) flag-handoff word.
#[derive(Clone, Debug)]
pub struct HandoffReport {
    /// The flag word's global address.
    pub addr: u64,
    /// The unique release site, when exactly one was recognized.
    pub release_site: Option<usize>,
    /// Validated acquire-spin atomics (pc of the identity RMW).
    pub acquire_sites: BTreeSet<usize>,
    /// `None` when the handoff is trustworthy, else the first demotion.
    pub demoted: Option<Demotion>,
}

impl HandoffReport {
    /// Whether order edges through this flag may prune candidate pairs.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.demoted.is_none() && self.release_site.is_some() && !self.acquire_sites.is_empty()
    }
}

/// One trusted cross-thread order edge: everything in the release's
/// pre-region happens before everything in the acquire's post-region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderEdge {
    /// The flag word the edge synchronizes on.
    pub addr: u64,
    /// The release atomic's pc.
    pub release_pc: usize,
    /// Thread index (into `program.threads()`) executing the release.
    pub release_thread: usize,
    /// The acquire atomic's pc.
    pub acquire_pc: usize,
    /// Thread index executing the acquire spin.
    pub acquire_thread: usize,
}

/// The full order analysis: validated handoffs, closed edges, and the
/// pre/post regions backing the [`OrderAnalysis::statically_ordered`]
/// query.
#[derive(Clone, Debug, Default)]
pub struct OrderAnalysis {
    /// Every recognized flag-handoff word, valid or demoted, by address.
    pub handoffs: Vec<HandoffReport>,
    /// Validated, transitively closed order edges.
    pub edges: Vec<OrderEdge>,
    /// `spans[i]` holds, per direct or chained edge `i`, the release-side
    /// pre-region and acquire-side post-region pc sets.
    spans: Vec<OrderSpan>,
}

/// One closed edge's pruning span: pcs of the release thread whose region
/// ends at the chain's head, and pcs of the acquire thread whose region
/// starts at the chain's tail.
#[derive(Clone, Debug)]
struct OrderSpan {
    release_thread: usize,
    pre: PcSet,
    acquire_thread: usize,
    post: PcSet,
}

impl OrderAnalysis {
    /// Whether the access at `pc_a` in thread `ta` provably happens before
    /// the access at `pc_b` in thread `tb` in every execution.
    #[must_use]
    pub fn statically_ordered(&self, ta: usize, pc_a: usize, tb: usize, pc_b: usize) -> bool {
        if ta == tb {
            return false;
        }
        self.spans.iter().any(|s| {
            s.release_thread == ta
                && s.acquire_thread == tb
                && s.pre.contains(pc_a)
                && s.post.contains(pc_b)
        })
    }

    /// Whether the two accesses may happen in parallel (the MHP matrix
    /// entry). Symmetric by construction.
    #[must_use]
    pub fn may_happen_in_parallel(&self, ta: usize, pc_a: usize, tb: usize, pc_b: usize) -> bool {
        !(self.statically_ordered(ta, pc_a, tb, pc_b)
            || self.statically_ordered(tb, pc_b, ta, pc_a))
    }
}

/// A recognized release-shaped atomic store of a non-zero constant.
#[derive(Clone, Debug)]
struct ReleaseSite {
    pc: usize,
    thread: usize,
}

/// A structurally validated acquire spin.
#[derive(Clone, Debug)]
struct AcquireSite {
    pc: usize,
    thread: usize,
}

/// Builds the order analysis. `cfgs`, `flows` and `threads` hold each
/// `ThreadSpec`'s (by index) CFG, fixpoint flow and access summary; the
/// accesses feed the rogue-write scan.
#[must_use]
pub fn analyze_order(
    program: &Program,
    cfgs: &[Cfg],
    flows: &[ThreadFlow],
    threads: &[ThreadSummary],
) -> OrderAnalysis {
    let mut releases: BTreeMap<u64, Vec<ReleaseSite>> = BTreeMap::new();
    let mut acquires: BTreeMap<u64, Vec<AcquireSite>> = BTreeMap::new();
    let mut exit_on_zero: BTreeMap<u64, usize> = BTreeMap::new();

    for (ti, flow) in flows.iter().enumerate() {
        for &Reached { pc, ref state, .. } in flow.iter() {
            if let Some(addr) = release_shape(program, pc, state) {
                releases.entry(addr).or_default().push(ReleaseSite { pc, thread: ti });
            }
            match acquire_shape(program, flow, pc, state) {
                AcquireShape::Spin(addr) => {
                    acquires.entry(addr).or_default().push(AcquireSite { pc, thread: ti });
                }
                AcquireShape::ExitOnZero(addr) => {
                    exit_on_zero.entry(addr).or_insert(pc);
                }
                AcquireShape::None => {}
            }
        }
    }

    // Validate each flag word that has at least one spin acquire or
    // release-shaped store paired with a spin elsewhere.
    let words: BTreeSet<u64> = acquires.keys().chain(exit_on_zero.keys()).copied().collect();
    let mut handoffs = Vec::new();
    let mut edges = Vec::new();
    let mut spans = Vec::new();
    for &addr in &words {
        let rel = releases.get(&addr).cloned().unwrap_or_default();
        let acq = acquires.get(&addr).cloned().unwrap_or_default();
        let mut demoted = None;

        if let Some(&pc) = exit_on_zero.get(&addr) {
            demoted = Some(Demotion::ExitOnZero { pc });
        }
        if demoted.is_none() {
            if let Some(&value) = program.globals().get(&addr) {
                if value != 0 {
                    demoted = Some(Demotion::NonzeroInit { value });
                }
            }
        }
        if demoted.is_none() && rel.len() > 1 {
            demoted = Some(Demotion::RogueWrite { pc: rel[1].pc });
        }
        if demoted.is_none() {
            if let Some(r) = rel.first() {
                demoted = validate_release(program, cfgs, r);
            }
        }
        if demoted.is_none() {
            // Any other may-write to the flag word breaks the "only the
            // release makes it non-zero" invariant. The spin atomics are
            // identity writes and the release is the sanctioned one.
            demoted = rogue_write(threads, addr, |pc| {
                acq.iter().any(|a| a.pc == pc) || rel.first().is_some_and(|r| r.pc == pc)
            });
        }

        let release = rel.first().cloned();
        // A spin on a flag the same thread releases can never order
        // cross-thread work; drop such acquires.
        let acq: Vec<AcquireSite> = acq
            .into_iter()
            .filter(|a| release.as_ref().is_none_or(|r| r.thread != a.thread))
            .collect();
        let report = HandoffReport {
            addr,
            release_site: release.as_ref().map(|r| r.pc),
            acquire_sites: acq.iter().map(|a| a.pc).collect(),
            demoted,
        };
        if report.valid() {
            let r = release.expect("valid handoff has a release");
            for a in &acq {
                edges.push(OrderEdge {
                    addr,
                    release_pc: r.pc,
                    release_thread: r.thread,
                    acquire_pc: a.pc,
                    acquire_thread: a.thread,
                });
            }
        }
        handoffs.push(report);
    }

    // Transitive closure: an acquire chains to a release in its own thread
    // when the acquire's atomic dominates the release (every entry path to
    // the release passes through the spin, whose only way out is a
    // successful non-zero read).
    let direct = edges.clone();
    let mut closed: BTreeSet<(usize, usize, usize, usize)> = BTreeSet::new();
    let mut work: Vec<OrderEdge> = direct.clone();
    while let Some(e) = work.pop() {
        if !closed.insert((e.release_thread, e.release_pc, e.acquire_thread, e.acquire_pc)) {
            continue;
        }
        for next in &direct {
            if next.release_thread == e.acquire_thread
                && dominates(program, &cfgs[e.acquire_thread], e.acquire_pc, next.release_pc)
            {
                work.push(OrderEdge {
                    addr: next.addr,
                    release_pc: e.release_pc,
                    release_thread: e.release_thread,
                    acquire_pc: next.acquire_pc,
                    acquire_thread: next.acquire_thread,
                });
            }
        }
    }

    for &(rt, rp, at, ap) in &closed {
        let pre = pre_region(program, &cfgs[rt], rp);
        if pre.is_empty() {
            continue;
        }
        let post = post_region(program, &cfgs[at], ap);
        if !post.is_empty() {
            spans.push(OrderSpan { release_thread: rt, pre, acquire_thread: at, post });
        }
    }

    OrderAnalysis { handoffs, edges, spans }
}

/// Whether the atomic at `pc` provably stores a non-zero constant to one
/// exact global word, returning that word.
fn release_shape(program: &Program, pc: usize, state: &crate::absint::State) -> Option<u64> {
    match *program.instr(pc)? {
        Instr::AtomicRmw { op: RmwOp::Xchg | RmwOp::Or, base, offset, src, .. } => {
            let addr = crate::domain::AbsLoc::resolve(state.reg(base), offset).exact_global()?;
            state.reg(src).as_const().filter(|&v| v != 0).map(|_| addr)
        }
        Instr::AtomicCas { base, offset, expected, new, .. } => {
            let addr = crate::domain::AbsLoc::resolve(state.reg(base), offset).exact_global()?;
            (state.reg(expected).as_const() == Some(0) && state.reg(new).is_nonzero())
                .then_some(addr)
        }
        _ => None,
    }
}

/// The structural classification of a candidate spin at `pc`.
enum AcquireShape {
    /// A validated spin: identity atomic read, zero edge back to the
    /// atomic, non-zero edge out. Carries the flag word.
    Spin(u64),
    /// The loop exits when the flag reads *zero* — the inverted polarity
    /// gives no ordering and demotes the word.
    ExitOnZero(u64),
    None,
}

/// Recognizes an acquire-shaped spin: `lock.or/add/sub/xor dst, [w], z`
/// with `z` provably 0, followed (through register-only straight-line
/// code) by a branch testing `dst` against zero whose zero edge returns to
/// the atomic.
fn acquire_shape(
    program: &Program,
    flow: &ThreadFlow,
    pc: usize,
    state: &crate::absint::State,
) -> AcquireShape {
    let Some(&Instr::AtomicRmw {
        op: RmwOp::Or | RmwOp::Add | RmwOp::Sub | RmwOp::Xor,
        dst,
        base,
        offset,
        src,
    }) = program.instr(pc)
    else {
        return AcquireShape::None;
    };
    let Some(addr) = crate::domain::AbsLoc::resolve(state.reg(base), offset).exact_global() else {
        return AcquireShape::None;
    };
    if state.reg(src).as_const() != Some(0) {
        return AcquireShape::None;
    }
    // Scan straight-line register-only code for the zero test of `dst`.
    let mut at = pc + 1;
    for _ in 0..SPIN_SCAN_BOUND {
        match program.instr(at) {
            Some(&Instr::Branch { cond: cond @ (Cond::Eq | Cond::Ne), lhs, rhs, target }) => {
                let Some(bstate) = flow.state(at) else { return AcquireShape::None };
                let zero = |r: Reg| bstate.reg(r).as_const() == Some(0);
                let tests_dst = (lhs == dst && zero(rhs)) || (rhs == dst && zero(lhs));
                if !tests_dst {
                    return AcquireShape::None;
                }
                // `eq` takes the zero edge to `target`; `ne` falls through
                // to it.
                let (zero_edge, nonzero_edge) =
                    if cond == Cond::Eq { (target, at + 1) } else { (at + 1, target) };
                if !register_only_path(program, zero_edge, pc) {
                    // The zero edge leaves the loop: spinning stops on a
                    // zero read, so the exit proves nothing.
                    if register_only_path(program, nonzero_edge, pc) {
                        return AcquireShape::ExitOnZero(addr);
                    }
                    return AcquireShape::None;
                }
                return AcquireShape::Spin(addr);
            }
            Some(i) if register_only(i) && def_of(i) != Some(dst) => at += 1,
            _ => return AcquireShape::None,
        }
    }
    AcquireShape::None
}

/// Follows straight-line register-only code (plus unconditional jumps)
/// from `from`, returning whether it reaches `to` within the scan bound.
fn register_only_path(program: &Program, mut from: usize, to: usize) -> bool {
    for _ in 0..SPIN_SCAN_BOUND {
        if from == to {
            return true;
        }
        match program.instr(from) {
            Some(&Instr::Jump { target }) => from = target,
            Some(i) if register_only(i) => from += 1,
            _ => return false,
        }
    }
    false
}

/// Whether the instruction touches only registers (no memory, no control
/// joins, no sequencing).
fn register_only(i: &Instr) -> bool {
    matches!(i, Instr::MovImm { .. } | Instr::Mov { .. } | Instr::Bin { .. } | Instr::BinImm { .. })
}

/// Release-site validation: must execute at most once (not on a CFG
/// cycle) and be reachable by exactly one thread.
fn validate_release(program: &Program, cfgs: &[Cfg], r: &ReleaseSite) -> Option<Demotion> {
    let owners = cfgs.iter().filter(|cfg| cfg.contains(r.pc)).count();
    if owners != 1 {
        return Some(Demotion::RepeatableRelease { pc: r.pc });
    }
    let cfg = &cfgs[r.thread];
    // On a cycle iff the release is reachable from its own successors.
    let cycle = cfg.reach(program, cfg.successors(program, r.pc), |_| true).contains(r.pc);
    cycle.then_some(Demotion::RepeatableRelease { pc: r.pc })
}

/// The release's pre-region: pcs from which **every** maximal path reaches
/// a sequencer point, and the first one reached is always the release.
/// Computed as a least fixpoint, so sequencer-free cycles (which could
/// postpone the region's end forever) conservatively stay out.
fn pre_region(program: &Program, cfg: &Cfg, release: usize) -> PcSet {
    let mut ok = PcSet::new(program.len());
    let mut changed = true;
    while changed {
        changed = false;
        for &pc in &cfg.reachable {
            if ok.contains(pc) {
                continue;
            }
            let good = if is_sequencer(program, pc) {
                pc == release
            } else {
                let mut succs = cfg.successors(program, pc).peekable();
                succs.peek().is_some() && succs.all(|s| ok.contains(s))
            };
            if good {
                ok.insert(pc);
                changed = true;
            }
        }
    }
    ok
}

/// The acquire's post-region: pcs whose region provably starts at or after
/// the spin's *successful* exit. A pc qualifies when neither the entry nor
/// a sequencer the acquire does not dominate reaches it along a
/// sequencer-free path — so the last sequencer before it is always the
/// acquire itself or a sequencer the acquire *dominates*. A dominated
/// sequencer's nearest preceding acquire occurrence is always the
/// successful one (the spin's only non-revisiting exit is the non-zero
/// edge), so by induction its own region start also follows the release.
/// The acquire pc itself is excluded — its failed iterations are points
/// that may precede the release.
fn post_region(program: &Program, cfg: &Cfg, acquire: usize) -> PcSet {
    // The pcs reachable without passing the acquire: every sequencer among
    // them other than the acquire is one it does not dominate.
    let around = cfg.reach(program, [cfg.entry], |pc| pc != acquire);
    let undominated = around.iter().filter(|&s| s != acquire && is_sequencer(program, s));
    let seeds = undominated.flat_map(|s| cfg.successors(program, s)).chain([cfg.entry]);
    let early = cfg.reach(program, seeds, |pc| !is_sequencer(program, pc));
    let mut post = PcSet::new(program.len());
    for &pc in &cfg.reachable {
        if pc != acquire && !early.contains(pc) {
            post.insert(pc);
        }
    }
    post
}

/// Whether every path from the thread entry to `target` passes through
/// `dom`: a sweep from the entry that may not leave `dom` misses `target`.
fn dominates(program: &Program, cfg: &Cfg, dom: usize, target: usize) -> bool {
    dom != target
        && cfg.contains(target)
        && !cfg.reach(program, [cfg.entry], |pc| pc != dom).contains(target)
}

#[cfg(test)]
mod tests {
    use tvm::asm::assemble;
    use tvm::program::Program;

    use crate::analysis::Demotion;

    fn prog(src: &str) -> Program {
        assemble(src).expect("test program assembles")
    }

    const VALID_HANDOFF: &str = "\
.thread producer
  movi r1, 42
  st [r15+8], r1
  movi r2, 1
  xchg r3, [r15+16], r2
  halt
.thread consumer
spin:
  movi r2, 0
  lock.or r1, [r15+16], r2
  beq r1, r15, spin
  ld r4, [r15+8]
  halt
";

    #[test]
    fn valid_handoff_orders_publish_before_consume() {
        let a = crate::analyze(&prog(VALID_HANDOFF));
        assert_eq!(a.order.handoffs.len(), 1);
        let h = &a.order.handoffs[0];
        assert_eq!(h.addr, 0x10);
        assert!(h.valid(), "{h:?}");
        assert_eq!(a.order.edges.len(), 1);
        // store at pc 1 orders before load at pc 9: the pair is pruned.
        assert!(!a.candidates.contains(1, 8), "{:?}", a.candidates.iter().collect::<Vec<_>>());
        assert_eq!(a.stats.pruned_statically_ordered, 1);
        assert!(a.order.statically_ordered(0, 1, 1, 8));
        assert!(!a.order.statically_ordered(1, 8, 0, 1));
        assert!(!a.order.may_happen_in_parallel(0, 1, 1, 8));
    }

    #[test]
    fn rogue_write_demotes_the_handoff() {
        let src =
            format!("{VALID_HANDOFF}.thread rogue\n  movi r2, 2\n  st [r15+16], r2\n  halt\n");
        let a = crate::analyze(&prog(&src));
        let h = &a.order.handoffs[0];
        assert!(matches!(h.demoted, Some(Demotion::RogueWrite { .. })), "{h:?}");
        assert!(a.candidates.contains(1, 8), "demoted handoff must not prune");
    }

    #[test]
    fn second_release_site_demotes_the_handoff() {
        let src = format!(
            "{VALID_HANDOFF}.thread rogue\n  movi r2, 2\n  xchg r3, [r15+16], r2\n  halt\n"
        );
        let a = crate::analyze(&prog(&src));
        let h = &a.order.handoffs[0];
        assert!(matches!(h.demoted, Some(Demotion::RogueWrite { .. })), "{h:?}");
        assert!(a.candidates.contains(1, 8));
    }

    #[test]
    fn nonzero_initial_flag_demotes_the_handoff() {
        let src = format!(".global 0x10 1\n{VALID_HANDOFF}");
        let a = crate::analyze(&prog(&src));
        let h = &a.order.handoffs[0];
        assert!(matches!(h.demoted, Some(Demotion::NonzeroInit { value: 1 })), "{h:?}");
        assert!(a.candidates.contains(1, 8));
    }

    #[test]
    fn exit_on_zero_spin_demotes_the_handoff() {
        // The consumer leaves the loop when the flag reads *zero*: the spin
        // proves nothing about the producer.
        let src = "\
.thread producer
  movi r1, 42
  st [r15+8], r1
  movi r2, 1
  xchg r3, [r15+16], r2
  halt
.thread consumer
spin:
  movi r2, 0
  lock.or r1, [r15+16], r2
  bne r1, r15, spin
  ld r4, [r15+8]
  halt
";
        let a = crate::analyze(&prog(src));
        let h = &a.order.handoffs[0];
        assert!(matches!(h.demoted, Some(Demotion::ExitOnZero { .. })), "{h:?}");
        assert!(a.candidates.contains(1, 8));
    }

    #[test]
    fn release_in_a_loop_demotes_the_handoff() {
        // The producer re-publishes in a loop: a later release may follow
        // the consumer's successful read, so pre-region ordering fails.
        let src = "\
.thread producer
top:
  movi r1, 42
  st [r15+8], r1
  movi r2, 1
  xchg r3, [r15+16], r2
  jmp top
.thread consumer
spin:
  movi r2, 0
  lock.or r1, [r15+16], r2
  beq r1, r15, spin
  ld r4, [r15+8]
  halt
";
        let a = crate::analyze(&prog(src));
        let h = &a.order.handoffs[0];
        assert!(matches!(h.demoted, Some(Demotion::RepeatableRelease { .. })), "{h:?}");
        assert!(a.candidates.contains(1, 8));
    }

    #[test]
    fn work_after_the_release_is_not_ordered() {
        // The producer writes the data word again *after* releasing: that
        // second store's region does not end at the release, so it must
        // stay a candidate against the consumer's load.
        let src = "\
.thread producer
  movi r1, 42
  st [r15+8], r1
  movi r2, 1
  xchg r3, [r15+16], r2
  movi r1, 43
  st [r15+8], r1
  halt
.thread consumer
spin:
  movi r2, 0
  lock.or r1, [r15+16], r2
  beq r1, r15, spin
  ld r4, [r15+8]
  halt
";
        let a = crate::analyze(&prog(src));
        assert!(a.order.handoffs[0].valid());
        // Pre-release store pruned, post-release store kept.
        assert!(!a.candidates.contains(1, 10));
        assert!(a.candidates.contains(5, 10));
    }

    #[test]
    fn work_before_the_acquire_is_not_ordered() {
        // The consumer reads the data word once before spinning: that read
        // races with the producer's store.
        let src = "\
.thread producer
  movi r1, 42
  st [r15+8], r1
  movi r2, 1
  xchg r3, [r15+16], r2
  halt
.thread consumer
  ld r5, [r15+8]
spin:
  movi r2, 0
  lock.or r1, [r15+16], r2
  beq r1, r15, spin
  ld r4, [r15+8]
  halt
";
        let a = crate::analyze(&prog(src));
        assert!(a.order.handoffs[0].valid());
        assert!(a.candidates.contains(1, 5), "pre-spin read must stay");
        assert!(!a.candidates.contains(1, 9), "post-spin read is ordered");
    }

    #[test]
    fn a_spin_at_the_thread_entry_dominates_every_later_sequencer() {
        // The consumer's first instruction is the spin's atomic (registers
        // start at zero), so every path to the fence passes the acquire:
        // both loads, before and after the fence, are ordered.
        let src = "\
.thread producer
  movi r1, 42
  st [r15+8], r1
  movi r2, 1
  xchg r3, [r15+16], r2
  halt
.thread consumer
spin:
  lock.or r1, [r15+16], r2
  beq r1, r15, spin
  ld r4, [r15+8]
  fence
  ld r5, [r15+8]
  halt
";
        let a = crate::analyze(&prog(src));
        assert!(a.order.handoffs[0].valid());
        for load in [7, 9] {
            assert!(a.order.statically_ordered(0, 1, 1, load), "load at pc {load}");
            assert!(!a.candidates.contains(1, load), "load at pc {load}");
        }
    }

    #[test]
    fn a_fence_on_a_path_around_the_spin_keeps_the_load_after_it() {
        // An unknown flag can skip the spin and reach the fence, so the
        // fence may be the last sequencer before the load with no
        // successful acquire behind it.
        let src = "\
.thread producer
  movi r1, 42
  st [r15+8], r1
  movi r2, 1
  xchg r3, [r15+16], r2
  halt
.thread consumer
  ld r6, [r15+24]
  bne r6, r15, skip
spin:
  movi r2, 0
  lock.or r1, [r15+16], r2
  beq r1, r15, spin
skip:
  fence
  ld r4, [r15+8]
  halt
";
        let a = crate::analyze(&prog(src));
        assert!(a.order.handoffs[0].valid());
        assert!(!a.order.statically_ordered(0, 1, 1, 11));
        assert!(a.candidates.contains(1, 11), "the load after the bypassed fence must stay");
    }

    #[test]
    fn a_fence_the_spin_dominates_keeps_the_pcs_after_it_in_the_post_region() {
        let src = "\
.thread producer
  movi r1, 42
  st [r15+8], r1
  movi r2, 1
  xchg r3, [r15+16], r2
  halt
.thread consumer
spin:
  movi r2, 0
  lock.or r1, [r15+16], r2
  beq r1, r15, spin
  fence
  ld r4, [r15+8]
  halt
";
        let a = crate::analyze(&prog(src));
        assert!(a.order.handoffs[0].valid());
        assert!(a.order.statically_ordered(0, 1, 1, 9));
        assert!(!a.candidates.contains(1, 9), "the load after the dominated fence is ordered");
    }

    #[test]
    fn handoff_chain_closes_transitively() {
        // t0 releases f1; t1 waits on f1 then releases f2; t2 waits on f2.
        // t0's store must order before t2's load through the chain.
        let src = "\
.thread t0
  movi r1, 42
  st [r15+8], r1
  movi r2, 1
  xchg r3, [r15+16], r2
  halt
.thread t1
spin1:
  movi r2, 0
  lock.or r1, [r15+16], r2
  beq r1, r15, spin1
  movi r2, 1
  xchg r3, [r15+24], r2
  halt
.thread t2
spin2:
  movi r2, 0
  lock.or r1, [r15+24], r2
  beq r1, r15, spin2
  ld r4, [r15+8]
  halt
";
        let a = crate::analyze(&prog(src));
        assert_eq!(a.order.handoffs.len(), 2);
        assert!(a.order.handoffs.iter().all(super::HandoffReport::valid));
        assert!(a.order.statically_ordered(0, 1, 2, 14));
        assert!(!a.candidates.contains(1, 14), "chained handoff must prune");
    }

    #[test]
    fn mhp_matrix_is_symmetric_on_the_valid_handoff() {
        let a = crate::analyze(&prog(VALID_HANDOFF));
        let pcs: Vec<(usize, usize)> = a
            .threads
            .iter()
            .enumerate()
            .flat_map(|(ti, t)| t.accesses.iter().map(move |acc| (ti, acc.pc)).collect::<Vec<_>>())
            .collect();
        for &(ta, pa) in &pcs {
            for &(tb, pb) in &pcs {
                assert_eq!(
                    a.order.may_happen_in_parallel(ta, pa, tb, pb),
                    a.order.may_happen_in_parallel(tb, pb, ta, pa),
                    "MHP must be symmetric for ({ta},{pa}) vs ({tb},{pb})"
                );
            }
        }
    }
}
