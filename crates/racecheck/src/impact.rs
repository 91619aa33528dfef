//! Value-impact (taint) analysis: can a racy value reach observable state?
//!
//! The replay classifier calls a race benign when executing its two regions
//! in either order leaves the *compared* state identical: the regions'
//! register live-outs, every memory word they write, and the output stream.
//! This pass answers the same question statically, per candidate pair. Seed
//! taint at every value the opposite region can perturb, push it forward
//! through the register dataflow, and see whether it can still be alive
//! anywhere the replay comparison looks.
//!
//! # Region-wide seeding
//!
//! The replay compares whole *regions* (sequencer-point-delimited spans),
//! not single instructions, so proving the nominal racing load dead is not
//! enough: any other access in the same region whose cell the opposite
//! region writes also observes order-dependent values. `pair_impact`
//! therefore seeds taint at **every** cross-region conflicting access of the
//! pair's two region blocks. A pair is `Unreachable` only when every such
//! seed dies before reaching a sink and every cross-region write/write cell
//! converges to one known constant.
//!
//! # Sinks
//!
//! * **Proven** — a resolved dataflow path carries the racy value into
//!   state the replay compares byte-for-byte: a store operand or address, an
//!   atomic's operand, or the `r0` operand of an output-carrying syscall
//!   (`print`/`alloc`/`free`).
//! * **Possible** — the analysis widens instead of tracking further: a
//!   tainted branch condition (control divergence), taint alive at a region
//!   boundary (sequencer point, `halt`, thread end — register live-outs are
//!   compared there), a `ret`-carried value crossing the context-insensitive
//!   call boundary, a load through a tainted address, or a divisor whose
//!   taint could flip a fault. `Possible` never skips replays: the widening
//!   means we could not finish the proof either way.
//! * **Unreachable** — no seed survives to any sink: both replay orders are
//!   guaranteed to produce identical live-outs, i.e. No-State-Change.

use std::cell::OnceCell;
use std::collections::VecDeque;

use tvm::isa::{BinOp, Instr, Reg, SysCall};
use tvm::program::Program;

use crate::analysis::{Access, ThreadSummary};
use crate::cfg::{is_sequencer, Cfg};

/// How far a racy value can provably travel toward observable state.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reach {
    /// Every order-dependent value dies before anything the replay
    /// comparison looks at: the pair must replay to No-State-Change.
    Unreachable,
    /// The taint walk had to widen (control divergence, region-boundary
    /// live-out, call boundary, unresolved address) — the value *may* be
    /// observable, so the race must still be replayed.
    Possible,
    /// A resolved dataflow path carries the racy value into compared state
    /// (a memory write or an output operand).
    Proven,
}

impl Reach {
    /// Stable lint-schema tag for the reach tier.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Reach::Unreachable => "unreachable",
            Reach::Possible => "possible",
            Reach::Proven => "proven",
        }
    }
}

impl std::fmt::Display for Reach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// The impact verdict attached to each static race warning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImpactVerdict {
    /// The reach tier, folded over every contributing access pair.
    pub reach: Reach,
    /// A minimal pc-chain witness from a racy access to the sink that
    /// decided `reach`; empty for `Unreachable`.
    pub sink_chain: Vec<usize>,
}

impl ImpactVerdict {
    /// The bottom element: nothing observable, no witness.
    pub const UNREACHABLE: ImpactVerdict =
        ImpactVerdict { reach: Reach::Unreachable, sink_chain: Vec::new() };

    fn sink(reach: Reach, sink_chain: Vec<usize>) -> ImpactVerdict {
        ImpactVerdict { reach, sink_chain }
    }

    /// Folds two verdicts: the higher reach wins, ties keep the existing
    /// witness so warning aggregation is order-stable.
    #[must_use]
    pub fn combine(self, other: ImpactVerdict) -> ImpactVerdict {
        if other.reach > self.reach {
            other
        } else {
            self
        }
    }

    /// [`ImpactVerdict::combine`] with a borrowed verdict, cloned only when
    /// it wins.
    fn fold(&mut self, other: &ImpactVerdict) {
        if other.reach > self.reach {
            self.clone_from(other);
        }
    }
}

impl Default for ImpactVerdict {
    fn default() -> Self {
        ImpactVerdict::UNREACHABLE
    }
}

fn bit(r: Reg) -> u16 {
    1 << r.index()
}

/// Computes pair impact verdicts over the per-thread CFGs. Read-taint walks
/// are memoized per access, so the cross-product loop pays the walk once
/// per racy load, not once per pair.
pub(crate) struct ImpactAnalyzer<'a> {
    program: &'a Program,
    cfgs: &'a [Cfg],
    threads: &'a [ThreadSummary],
    /// Per thread, what pairs ask about its accesses, filled the first time
    /// a pair in that thread asks.
    accesses: Vec<OnceCell<AccessImpact>>,
}

/// What the impact pass knows about one thread's accesses, indexed like
/// [`ThreadSummary::accesses`].
struct AccessImpact {
    /// Each access's region block. A block is the set of pcs connected
    /// without crossing a sequencer point — a static over-approximation of
    /// any dynamic replay region through those pcs. Sequencer pcs are
    /// singleton blocks (they bound regions and form single-instruction
    /// regions of their own).
    blocks: Vec<usize>,
    /// Each read's taint verdict, once a pair asks for it.
    reads: Vec<OnceCell<ImpactVerdict>>,
}

impl<'a> ImpactAnalyzer<'a> {
    pub(crate) fn new(program: &'a Program, cfgs: &'a [Cfg], threads: &'a [ThreadSummary]) -> Self {
        let accesses = threads.iter().map(|_| OnceCell::new()).collect();
        ImpactAnalyzer { program, cfgs, threads, accesses }
    }

    /// The thread's access table, partitioning the thread into region
    /// blocks on first use.
    fn thread(&self, thread: usize) -> &AccessImpact {
        self.accesses[thread].get_or_init(|| {
            let cfg = &self.cfgs[thread];
            let slots = region_blocks(self.program, cfg);
            let accesses = &self.threads[thread].accesses;
            let slot = |a: &Access| cfg.slot(a.pc).expect("an access sits at a reachable pc");
            AccessImpact {
                blocks: accesses.iter().map(|a| slots[slot(a)]).collect(),
                reads: accesses.iter().map(|_| OnceCell::new()).collect(),
            }
        })
    }

    /// The impact verdict for the access pair `(ia, ib)`, each an index into
    /// its thread's accesses: fold the taint components of every
    /// cross-region conflict between the two region blocks.
    pub(crate) fn pair_impact(&self, ta: usize, ia: usize, tb: usize, ib: usize) -> ImpactVerdict {
        let mut verdict = ImpactVerdict::UNREACHABLE;
        for (kx, x) in self.block_mates(ta, ia) {
            for (ky, y) in self.block_mates(tb, ib) {
                if !x.loc.may_alias(y.loc) || (!x.writes && !y.writes) {
                    continue;
                }
                if x.writes && y.writes {
                    if let Some(w) = write_conflict(x, y) {
                        verdict = verdict.combine(w);
                    }
                }
                if x.reads && y.writes {
                    verdict.fold(self.read_component(ta, kx));
                }
                if y.reads && x.writes {
                    verdict.fold(self.read_component(tb, ky));
                }
                if verdict.reach == Reach::Proven {
                    return verdict;
                }
            }
        }
        verdict
    }

    /// The accesses of `thread` in the region block of its `k`th access,
    /// each with its index.
    fn block_mates(&self, thread: usize, k: usize) -> impl Iterator<Item = (usize, &Access)> {
        let blocks = &self.thread(thread).blocks;
        let accesses = self.threads[thread].accesses.iter().enumerate();
        accesses.filter(move |&(i, _)| blocks[i] == blocks[k])
    }

    /// The taint component of one order-dependent *read*, the `k`th access
    /// of `thread`: where can the captured value still be observed?
    fn read_component(&self, thread: usize, k: usize) -> &ImpactVerdict {
        self.thread(thread).reads[k].get_or_init(|| {
            let access = &self.threads[thread].accesses[k];
            if access.atomic {
                // An atomic's captured value (`lock.*` old word, `cas`
                // success flag) is a register live-out of its own
                // single-instruction region: observable at the boundary
                // immediately.
                ImpactVerdict::sink(Reach::Possible, vec![access.pc])
            } else {
                self.taint_walk(thread, access.pc)
            }
        })
    }

    /// Forward taint walk from a racy plain load: seed the destination
    /// register and push the taint mask through the CFG until every path
    /// kills it (Unreachable) or some path hits a sink.
    fn taint_walk(&self, thread: usize, seed_pc: usize) -> ImpactVerdict {
        let cfg = &self.cfgs[thread];
        let Some(&Instr::Load { dst, .. }) = self.program.instr(seed_pc) else {
            return ImpactVerdict::sink(Reach::Possible, vec![seed_pc]);
        };
        let slot = |pc: usize| cfg.slot(pc).expect("a successor of a reachable pc is reachable");
        // Per slot: the taint mask reaching the pc, and the pc it was first
        // reached from (`NO_PARENT` until then). The queue holds slots.
        const NO_PARENT: usize = usize::MAX;
        let mut masks: Vec<u16> = vec![0; cfg.reachable.len()];
        let mut parent: Vec<usize> = vec![NO_PARENT; cfg.reachable.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for s in cfg.successors(self.program, seed_pc) {
            let s = slot(s);
            masks[s] = bit(dst);
            parent[s] = seed_pc;
            queue.push_back(s);
        }
        if queue.is_empty() {
            // The load is the last instruction: its value is live at thread
            // termination, where register live-outs are compared.
            return ImpactVerdict::sink(Reach::Possible, vec![seed_pc]);
        }
        let chain = |parent: &[usize], sink: usize| {
            let mut chain = vec![sink];
            let mut cur = sink;
            while cur != seed_pc {
                cur = parent[slot(cur)];
                chain.push(cur);
            }
            chain.reverse();
            chain
        };
        // The best soft (Possible) sink seen so far; hard Proven sinks
        // return immediately.
        let mut widened: Option<usize> = None;
        let soften = |widened: &mut Option<usize>, pc: usize| {
            widened.get_or_insert(pc);
        };
        while let Some(at) = queue.pop_front() {
            let pc = cfg.reachable[at];
            let m = masks[at];
            let tainted = |r: Reg| m & bit(r) != 0;
            let out = match self.program.instr(pc) {
                None => {
                    soften(&mut widened, pc);
                    continue;
                }
                Some(&Instr::MovImm { dst, .. }) => m & !bit(dst),
                Some(&Instr::Mov { dst, src }) => {
                    if tainted(src) {
                        m | bit(dst)
                    } else {
                        m & !bit(dst)
                    }
                }
                Some(&Instr::Bin { op, dst, lhs, rhs }) => {
                    if matches!(op, BinOp::Div | BinOp::Rem) && tainted(rhs) {
                        // An order-dependent divisor can flip a divide fault.
                        soften(&mut widened, pc);
                        continue;
                    }
                    if tainted(lhs) || tainted(rhs) {
                        m | bit(dst)
                    } else {
                        m & !bit(dst)
                    }
                }
                Some(&Instr::BinImm { dst, lhs, .. }) => {
                    if tainted(lhs) {
                        m | bit(dst)
                    } else {
                        m & !bit(dst)
                    }
                }
                Some(&Instr::Load { dst, base, .. }) => {
                    if tainted(base) {
                        // Loading through an order-dependent address: the
                        // access itself may fault in one order, and the
                        // loaded value is unknowable — widen and keep going.
                        soften(&mut widened, pc);
                        m | bit(dst)
                    } else {
                        m & !bit(dst)
                    }
                }
                Some(&Instr::Store { src, base, .. }) => {
                    if tainted(src) || tainted(base) {
                        // Memory the replay compares byte-for-byte.
                        return ImpactVerdict::sink(Reach::Proven, chain(&parent, pc));
                    }
                    m
                }
                Some(&Instr::AtomicRmw { src, base, .. }) => {
                    if tainted(src) || tainted(base) {
                        return ImpactVerdict::sink(Reach::Proven, chain(&parent, pc));
                    }
                    // Region boundary with taint alive: live-outs compared.
                    soften(&mut widened, pc);
                    continue;
                }
                Some(&Instr::AtomicCas { base, expected, new, .. }) => {
                    if tainted(base) || tainted(expected) || tainted(new) {
                        return ImpactVerdict::sink(Reach::Proven, chain(&parent, pc));
                    }
                    soften(&mut widened, pc);
                    continue;
                }
                Some(&Instr::Fence) => {
                    soften(&mut widened, pc);
                    continue;
                }
                Some(&Instr::Syscall { call }) => {
                    if matches!(call, SysCall::Print | SysCall::Alloc | SysCall::Free)
                        && m & bit(Reg::R0) != 0
                    {
                        // The `r0` operand lands in the output stream or
                        // decides an allocator effect.
                        return ImpactVerdict::sink(Reach::Proven, chain(&parent, pc));
                    }
                    soften(&mut widened, pc);
                    continue;
                }
                Some(&Instr::Branch { lhs, rhs, .. }) => {
                    if tainted(lhs) || tainted(rhs) {
                        // Control divergence: the two orders may execute
                        // different code, which the walk cannot follow.
                        soften(&mut widened, pc);
                        continue;
                    }
                    m
                }
                Some(&Instr::Jump { .. }) | Some(&Instr::Call { .. }) => m,
                Some(&Instr::Ret) => {
                    // A live value crossing the context-insensitive call
                    // boundary: widen to Unknown, soundly.
                    soften(&mut widened, pc);
                    continue;
                }
                Some(&Instr::Halt) => {
                    // Thread end: register live-outs are compared.
                    soften(&mut widened, pc);
                    continue;
                }
            };
            if out == 0 {
                continue;
            }
            let mut fell_off = true;
            for s in cfg.successors(self.program, pc) {
                fell_off = false;
                let s = slot(s);
                if masks[s] | out != masks[s] {
                    masks[s] |= out;
                    if parent[s] == NO_PARENT {
                        parent[s] = pc;
                    }
                    queue.push_back(s);
                }
            }
            if fell_off {
                // Fell off the program with taint alive.
                soften(&mut widened, pc);
            }
        }
        match widened {
            Some(pc) => ImpactVerdict::sink(Reach::Possible, chain(&parent, pc)),
            None => ImpactVerdict::UNREACHABLE,
        }
    }
}

/// The write/write component for one cross-region aliasing cell: `None`
/// when the final memory value provably converges (both sides are plain
/// stores of the same known constant), otherwise a sink verdict.
fn write_conflict(x: &Access, y: &Access) -> Option<ImpactVerdict> {
    match (plain_store_const(x), plain_store_const(y)) {
        (Some(cx), Some(cy)) if cx == cy => None,
        (Some(_), Some(_)) => {
            // Two different known constants: whichever region's store lands
            // last decides the compared memory word.
            Some(ImpactVerdict::sink(Reach::Proven, vec![x.pc]))
        }
        _ => Some(ImpactVerdict::sink(Reach::Possible, vec![x.pc])),
    }
}

/// The constant a plain (non-atomic, write-only) store writes, when the
/// abstract interpretation resolved it.
fn plain_store_const(a: &Access) -> Option<u64> {
    if a.atomic || a.reads || !a.writes {
        return None;
    }
    a.idiom.stored.and_then(|v| v.as_const())
}

/// Partitions a thread's reachable pcs into region blocks: connected
/// components of the CFG with sequencer points removed (each sequencer pc
/// is its own singleton block). Returns each slot's block id, the pc of
/// the block's root.
fn region_blocks(program: &Program, cfg: &Cfg) -> Vec<usize> {
    let pcs = &cfg.reachable;
    let mut uf: Vec<usize> = (0..pcs.len()).collect();
    fn find(uf: &mut [usize], mut i: usize) -> usize {
        while uf[i] != i {
            uf[i] = uf[uf[i]];
            i = uf[i];
        }
        i
    }
    for (a, &pc) in pcs.iter().enumerate() {
        if is_sequencer(program, pc) {
            continue;
        }
        for s in cfg.successors(program, pc) {
            if is_sequencer(program, s) {
                continue;
            }
            if let Some(b) = cfg.slot(s) {
                let (ra, rb) = (find(&mut uf, a), find(&mut uf, b));
                uf[ra] = rb;
            }
        }
    }
    (0..pcs.len()).map(|i| pcs[find(&mut uf, i)]).collect()
}

#[cfg(test)]
mod tests {
    use tvm::asm::assemble;

    use crate::Reach;

    fn warning_reaches(src: &str) -> Vec<(usize, usize, Reach, Vec<usize>)> {
        let program = assemble(src).expect("test program assembles");
        let a = crate::analyze(&program);
        a.warnings
            .iter()
            .map(|w| (w.lo.pc, w.hi.pc, w.impact.reach, w.impact.sink_chain.clone()))
            .collect()
    }

    #[test]
    fn dead_load_is_unreachable() {
        // The racy load's value is overwritten before anything observes it,
        // and the writer stores a constant the reader's region never reads
        // back: both orders converge.
        let reaches = warning_reaches(
            ".thread writer\n  movi r1, 5\n  st [r15+32], r1\n  halt\n\
             .thread reader\n  ld r1, [r15+32]\n  movi r1, 0\n  halt\n",
        );
        assert_eq!(reaches.len(), 1);
        let (_, _, reach, chain) = &reaches[0];
        assert_eq!(*reach, Reach::Unreachable, "{reaches:?}");
        assert!(chain.is_empty());
    }

    #[test]
    fn printed_load_is_proven_with_chain() {
        let reaches = warning_reaches(
            ".thread writer\n  movi r1, 7\n  st [r15+32], r1\n  halt\n\
             .thread reader\n  ld r0, [r15+32]\n  sys.print\n  halt\n",
        );
        assert_eq!(reaches.len(), 1);
        let (_, _, reach, chain) = &reaches[0];
        assert_eq!(*reach, Reach::Proven, "{reaches:?}");
        // The witness runs from the racy load (pc 3) to the print (pc 4).
        assert_eq!(chain, &vec![3, 4]);
    }

    #[test]
    fn stored_load_is_proven() {
        let reaches = warning_reaches(
            ".thread writer\n  movi r1, 7\n  st [r15+32], r1\n  halt\n\
             .thread reader\n  ld r1, [r15+32]\n  st [r15+40], r1\n  halt\n",
        );
        assert!(
            reaches.iter().all(|(_, _, r, _)| *r == Reach::Proven),
            "store forwards the racy value: {reaches:?}"
        );
    }

    #[test]
    fn branched_load_is_possible() {
        let reaches = warning_reaches(
            ".thread writer\n  movi r1, 1\n  st [r15+32], r1\n  halt\n\
             .thread reader\n  ld r1, [r15+32]\n  beq r1, r15, done\ndone:\n  movi r1, 0\n  halt\n",
        );
        assert_eq!(reaches.len(), 1);
        assert_eq!(reaches[0].2, Reach::Possible, "{reaches:?}");
    }

    #[test]
    fn live_at_halt_is_possible() {
        let reaches = warning_reaches(
            ".thread writer\n  movi r1, 5\n  st [r15+32], r1\n  halt\n\
             .thread reader\n  ld r1, [r15+32]\n  halt\n",
        );
        assert_eq!(reaches.len(), 1);
        assert_eq!(reaches[0].2, Reach::Possible, "register live-out at halt: {reaches:?}");
    }

    #[test]
    fn same_constant_write_write_is_unreachable() {
        let reaches = warning_reaches(
            ".thread a\n  movi r1, 9\n  st [r15+32], r1\n  halt\n\
             .thread b\n  movi r2, 9\n  st [r15+32], r2\n  halt\n",
        );
        assert_eq!(reaches.len(), 1);
        assert_eq!(reaches[0].2, Reach::Unreachable, "{reaches:?}");
    }

    #[test]
    fn different_constant_write_write_is_proven() {
        let reaches = warning_reaches(
            ".thread a\n  movi r1, 1\n  st [r15+32], r1\n  halt\n\
             .thread b\n  movi r2, 2\n  st [r15+32], r2\n  halt\n",
        );
        assert_eq!(reaches.len(), 1);
        assert_eq!(reaches[0].2, Reach::Proven, "{reaches:?}");
    }

    #[test]
    fn region_mate_conflict_blocks_unreachable() {
        // The nominal racy load is dead, but another load in the *same
        // region* reads a cell the writer's region also stores — its value
        // survives to the halt, so the pair cannot be Unreachable.
        let reaches = warning_reaches(
            ".thread writer\n  movi r1, 5\n  st [r15+32], r1\n  st [r15+40], r1\n  halt\n\
             .thread reader\n  ld r1, [r15+32]\n  movi r1, 0\n  ld r2, [r15+40]\n  halt\n",
        );
        assert!(!reaches.is_empty());
        assert!(
            reaches.iter().all(|(_, _, r, _)| *r != Reach::Unreachable),
            "the region-mate load keeps the pair observable: {reaches:?}"
        );
    }

    #[test]
    fn sequencer_bounds_the_region() {
        // Same shape, but a fence separates the dead racy load from the
        // region that observes the second cell: the dead load's region has
        // no other conflict with the writer's region, so its pair is
        // Unreachable again, while the second region's pair stays
        // observable (its value is live at the halt).
        let reaches = warning_reaches(
            ".thread writer\n  movi r1, 5\n  st [r15+32], r1\n  st [r15+40], r1\n  halt\n\
             .thread reader\n  ld r1, [r15+32]\n  movi r1, 0\n  fence\n  ld r2, [r15+40]\n  halt\n",
        );
        let dead = reaches.iter().find(|(lo, _, _, _)| *lo == 1).expect("dead-load pair");
        assert_eq!(dead.2, Reach::Unreachable, "{reaches:?}");
        let live = reaches.iter().find(|(lo, _, _, _)| *lo == 2).expect("live pair");
        assert_eq!(live.2, Reach::Possible, "{reaches:?}");
    }

    #[test]
    fn atomic_capture_is_possible() {
        // xchg captures the old flag word into a register at a region
        // boundary: never Unreachable, even if the register dies.
        let reaches = warning_reaches(
            ".thread a\n  movi r1, 1\n  st [r15+32], r1\n  halt\n\
             .thread b\n  movi r2, 2\n  xchg r3, [r15+32], r2\n  movi r3, 0\n  halt\n",
        );
        assert!(!reaches.is_empty());
        assert!(
            reaches.iter().all(|(_, _, r, _)| *r != Reach::Unreachable),
            "atomic captures are region live-outs: {reaches:?}"
        );
    }

    #[test]
    fn combine_keeps_the_higher_reach() {
        use crate::impact::ImpactVerdict;
        let unreachable = ImpactVerdict::UNREACHABLE;
        let possible = ImpactVerdict { reach: Reach::Possible, sink_chain: vec![1] };
        let proven = ImpactVerdict { reach: Reach::Proven, sink_chain: vec![2, 3] };
        assert_eq!(unreachable.clone().combine(possible.clone()), possible);
        assert_eq!(possible.clone().combine(proven.clone()), proven);
        assert_eq!(proven.clone().combine(possible.clone()), proven);
        assert_eq!(unreachable.clone().combine(unreachable.clone()), unreachable);
    }
}
