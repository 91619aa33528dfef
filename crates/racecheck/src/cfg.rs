//! Per-thread control-flow graphs over the `tvm` ISA.
//!
//! A thread's CFG is the set of pcs reachable from its entry, with edges
//! induced by `jmp`/branch/`call`/`ret` and straight-line fallthrough.
//! Calls are handled *context-insensitively*: `ret` gets an edge to the
//! return site of **every** reachable `call` in the thread. That merges
//! calling contexts (a sound over-approximation — the machine's real call
//! stack always returns to one of those sites) and keeps the graph finite
//! without function-boundary information, which the ISA does not have.

use tvm::isa::{Instr, Reg};
use tvm::program::Program;

/// Whether the instruction at `pc` logs a sequencer (paper §3.2); pcs past
/// the program text do not.
pub(crate) fn is_sequencer(program: &Program, pc: usize) -> bool {
    program.instr(pc).is_some_and(Instr::is_sequencer_point)
}

/// The register an instruction writes, if any (`sys.*` clobbers `r0`).
pub(crate) fn def_of(instr: &Instr) -> Option<Reg> {
    match *instr {
        Instr::MovImm { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::BinImm { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::AtomicRmw { dst, .. }
        | Instr::AtomicCas { dst, .. } => Some(dst),
        Instr::Syscall { .. } => Some(Reg::R0),
        _ => None,
    }
}

/// A set of pcs as a bitmap, one bit per pc.
#[derive(Clone, Debug)]
pub(crate) struct PcSet {
    words: Vec<u64>,
}

impl PcSet {
    /// An empty set sized for the pcs `0..len` (it grows past them).
    pub(crate) fn new(len: usize) -> Self {
        PcSet { words: vec![0; len.div_ceil(64)] }
    }

    /// Adds `pc`, returning whether it was new.
    pub(crate) fn insert(&mut self, pc: usize) -> bool {
        let (word, bit) = (pc / 64, 1u64 << (pc % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let new = self.words[word] & bit == 0;
        self.words[word] |= bit;
        new
    }

    pub(crate) fn remove(&mut self, pc: usize) {
        if let Some(word) = self.words.get_mut(pc / 64) {
            *word &= !(1u64 << (pc % 64));
        }
    }

    pub(crate) fn contains(&self, pc: usize) -> bool {
        self.words.get(pc / 64).is_some_and(|word| word & (1u64 << (pc % 64)) != 0)
    }

    /// The number of pcs in the set.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|word| word.count_ones() as usize).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&word| word == 0)
    }

    /// The pcs in the set, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

/// The control-flow graph of one thread.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// The thread's entry pc.
    pub entry: usize,
    /// Every pc reachable from the entry, ascending. A pc's index here is
    /// its *slot* ([`Cfg::slot`]): the analysis keeps its per-thread tables
    /// in slot-indexed vectors.
    pub reachable: Vec<usize>,
    /// Return sites, ascending: `call_pc + 1` for every reachable `call`.
    pub ret_targets: Vec<usize>,
    len: usize,
}

impl Cfg {
    /// Builds the CFG of the thread entering at `entry`.
    #[must_use]
    pub fn build(program: &Program, entry: usize) -> Self {
        let len = program.len();
        let mut cfg = Cfg { entry, reachable: Vec::new(), ret_targets: Vec::new(), len };
        if entry >= len {
            return cfg;
        }
        let mut seen = PcSet::new(len);
        let mut rets: Vec<usize> = Vec::new();
        let mut work = vec![entry];
        while let Some(pc) = work.pop() {
            if !seen.insert(pc) {
                continue;
            }
            match program.instr(pc) {
                Some(Instr::Ret) if !rets.contains(&pc) => rets.push(pc),
                // A new return site makes every known `ret` grow an edge.
                Some(Instr::Call { .. }) if !cfg.ret_targets.contains(&(pc + 1)) => {
                    cfg.ret_targets.push(pc + 1);
                    for &r in &rets {
                        seen.remove(r);
                        work.push(r);
                    }
                }
                _ => {}
            }
            work.extend(cfg.successors(program, pc));
        }
        cfg.ret_targets.sort_unstable();
        cfg.reachable = seen.iter().collect();
        cfg
    }

    /// The slot of `pc`: its index in [`Cfg::reachable`], or `None` when the
    /// thread cannot reach it. A binary search; no corpus thread reaches more
    /// than a few dozen pcs.
    #[must_use]
    pub fn slot(&self, pc: usize) -> Option<usize> {
        self.reachable.binary_search(&pc).ok()
    }

    /// Whether the thread can reach `pc`.
    #[must_use]
    pub fn contains(&self, pc: usize) -> bool {
        self.slot(pc).is_some()
    }

    /// Every pc reached from `seeds` along the CFG's edges. A seed is reached
    /// whatever `leave` says; a reached pc's successors are followed only
    /// when `leave` accepts it, so a rejected pc is reached but not left.
    pub(crate) fn reach(
        &self,
        program: &Program,
        seeds: impl IntoIterator<Item = usize>,
        leave: impl Fn(usize) -> bool,
    ) -> PcSet {
        let mut seen = PcSet::new(self.len);
        let mut work: Vec<usize> = seeds.into_iter().filter(|&pc| seen.insert(pc)).collect();
        while let Some(pc) = work.pop() {
            if leave(pc) {
                work.extend(self.successors(program, pc).filter(|&succ| seen.insert(succ)));
            }
        }
        seen
    }

    /// Successor pcs of `pc` (already filtered to in-range targets; a pc one
    /// past the end of the program terminates the thread). A `ret`'s
    /// successors are the return sites, ascending.
    #[must_use]
    pub fn successors(&self, program: &Program, pc: usize) -> Successors<'_> {
        const NONE: usize = usize::MAX;
        let (fixed, rets): ([usize; 2], &[usize]) = match program.instr(pc) {
            Some(&(Instr::Jump { target } | Instr::Call { target })) => ([target, NONE], &[]),
            Some(&Instr::Branch { target, .. }) => ([target, pc + 1], &[]),
            Some(Instr::Ret) => ([NONE, NONE], &self.ret_targets),
            None | Some(Instr::Halt) => ([NONE, NONE], &[]),
            Some(_) => ([pc + 1, NONE], &[]),
        };
        Successors { fixed, next: 0, rets: rets.iter(), len: self.len }
    }
}

/// The successor pcs of one instruction, from [`Cfg::successors`]. It
/// borrows the CFG's return sites rather than allocating.
#[derive(Clone, Debug)]
pub struct Successors<'a> {
    /// A jump, call or branch target and a fallthrough; `usize::MAX` (past
    /// any program) where there is none.
    fixed: [usize; 2],
    next: usize,
    rets: std::slice::Iter<'a, usize>,
    len: usize,
}

impl Iterator for Successors<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while let Some(&pc) = self.fixed.get(self.next) {
            self.next += 1;
            if pc < self.len {
                return Some(pc);
            }
        }
        let len = self.len;
        self.rets.by_ref().copied().find(|&pc| pc < len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::isa::{Cond, Reg};
    use tvm::ProgramBuilder;

    #[test]
    fn straight_line_reaches_everything() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        b.movi(Reg::R1, 1).movi(Reg::R2, 2).halt();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.reachable, vec![0, 1, 2]);
    }

    #[test]
    fn ret_returns_to_every_call_site() {
        // Two call sites of one function; the second call is only reachable
        // *through* the first ret, so the ret must be revisited when the
        // second return site appears.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let f = b.fresh_label("f");
        b.call(f).call(f).halt();
        b.label(f).movi(Reg::R1, 1).ret();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.ret_targets, vec![1, 2]);
        // call, call, halt, movi, ret: all five reachable.
        assert_eq!(cfg.reachable, vec![0, 1, 2, 3, 4]);
        let ret_pc = 4;
        assert_eq!(cfg.successors(&p, ret_pc).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn branch_to_self_terminates() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let top = b.fresh_label("top");
        b.label(top).branch(Cond::Eq, Reg::R0, Reg::R15, top).halt();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.reachable, vec![0, 1]);
        assert_eq!(cfg.successors(&p, 0).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn code_after_halt_is_unreachable() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        b.halt().movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.reachable, vec![0]);
    }

    #[test]
    fn ret_without_call_has_no_successors() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        b.ret();
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.reachable, vec![0]);
        assert_eq!(cfg.successors(&p, 0).next(), None);
    }

    #[test]
    fn a_return_site_past_the_end_is_no_successor() {
        // The call is the last instruction, so its return site is the
        // program's length: the ret has no successor, and the thread ends
        // there.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let f = b.fresh_label("f");
        let main = b.fresh_label("main");
        b.jump(main).label(f).movi(Reg::R1, 1).ret().label(main).call(f);
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.ret_targets, vec![p.len()]);
        assert_eq!(cfg.reachable, vec![0, 1, 2, 3]);
        assert_eq!(cfg.successors(&p, 2).next(), None);
        assert_eq!(cfg.successors(&p, 3).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn slots_index_the_reachable_pcs() {
        // pcs 2 and 3 sit behind a jump; pc 6 is past the end.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let top = b.fresh_label("top");
        let skip = b.fresh_label("skip");
        b.label(top).branch(Cond::Eq, Reg::R1, Reg::R15, skip).jump(skip);
        b.movi(Reg::R1, 1).halt();
        b.label(skip).movi(Reg::R2, 2).jump(top);
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        assert_eq!(cfg.reachable, vec![0, 1, 4, 5]);
        for (slot, &pc) in cfg.reachable.iter().enumerate() {
            assert_eq!(cfg.slot(pc), Some(slot));
            assert!(cfg.contains(pc));
        }
        for pc in [2, 3, 6, usize::MAX] {
            assert_eq!(cfg.slot(pc), None, "pc {pc}");
            assert!(!cfg.contains(pc));
        }
    }

    #[test]
    fn pc_sets_insert_remove_and_iterate_in_order() {
        let mut set = PcSet::new(10);
        assert!(set.insert(3));
        assert!(!set.insert(3));
        assert!(set.insert(64));
        assert!(set.insert(200), "a pc past the sized range grows the set");
        set.remove(64);
        set.remove(1000);
        assert!(set.contains(3) && set.contains(200));
        assert!(!set.contains(64) && !set.contains(1000));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 200]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        set.remove(3);
        set.remove(200);
        assert!(set.is_empty(), "a set grown past its range and emptied again is empty");
    }

    #[test]
    fn reach_leaves_only_accepted_pcs_and_stops_at_cycles_and_halts() {
        // A loop (pcs 0-1), a halt, and a pc past the halt.
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let top = b.fresh_label("top");
        b.label(top).movi(Reg::R1, 1).branch(Cond::Eq, Reg::R1, Reg::R15, top);
        b.halt().movi(Reg::R2, 2);
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        let pcs = |set: PcSet| set.iter().collect::<Vec<_>>();
        assert_eq!(pcs(cfg.reach(&p, [0], |_| true)), vec![0, 1, 2], "pc 3 is past the halt");
        assert_eq!(pcs(cfg.reach(&p, [0], |pc| pc != 0)), vec![0], "a rejected seed is not left");
        assert_eq!(pcs(cfg.reach(&p, [0], |pc| pc != 1)), vec![0, 1], "nor is a rejected pc");
        assert_eq!(pcs(cfg.reach(&p, [1], |_| true)), vec![0, 1, 2], "the loop reaches pc 2");
    }

    #[test]
    fn branch_target_past_end_is_termination() {
        let mut b = ProgramBuilder::new();
        b.thread("t");
        let end = b.fresh_label("end");
        b.branch(Cond::Eq, Reg::R0, Reg::R15, end).movi(Reg::R1, 1).label(end);
        let p = b.build();
        let cfg = Cfg::build(&p, 0);
        // The taken edge leaves the program; only the fallthrough is a node.
        assert_eq!(cfg.successors(&p, 0).collect::<Vec<_>>(), vec![1]);
    }
}
