//! The whole-program analysis: per-thread access summaries, lock
//! validation, and cross-thread candidate-pair generation.
//!
//! # Soundness contract
//!
//! The dynamic detector (`replay-race`'s happens-before pass) reports a pair
//! of pcs only when two *different threads* touch the *same address*, at
//! least one side *writes*, and the two accesses' replay regions are
//! *unordered*. A pair is pruned here only when one of those conditions is
//! statically refuted:
//!
//! * the abstract locations cannot alias (`Global` interval disjointness,
//!   `Global` vs `Heap`),
//! * both sides only read,
//! * both sides are sequencer points — two atomics always order in the
//!   region graph (`RegionIndex::unordered_with` returns `false` for a
//!   point/point pair),
//! * both sides hold a common *valid* spin lock — the lock's acquire and
//!   release are sequencer points bounding the access's region, and the
//!   validity rules guarantee occupancy windows are disjoint, so the
//!   regions order.
//! * the pair is provably ordered in every execution by a validated
//!   flag-handoff chain (`crate::order`): the release's sequencer point
//!   always precedes the acquire's successful read, so the two regions
//!   order point-to-point in the dynamic region graph.
//!
//! Anything the abstract interpretation cannot resolve lands in the
//! `Unknown` location, which aliases everything; unknown pairs are kept.

use std::collections::{BTreeMap, BTreeSet};

use tvm::program::{Program, ThreadSpec};

use crate::absint::{fixpoint_with, LockEvent, ThreadFlow};
use crate::cfg::{Cfg, PcSet};
use crate::domain::AbsLoc;
use crate::idioms::{self, AccessIdiom, PredictedVerdict};
use crate::impact::{ImpactAnalyzer, ImpactVerdict, Reach};
use crate::order::{analyze_order, OrderAnalysis};

/// One statically observed memory access in one thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// The instruction performing the access.
    pub pc: usize,
    /// Where it may touch memory.
    pub loc: AbsLoc,
    /// Whether it can read.
    pub reads: bool,
    /// Whether it can write.
    pub writes: bool,
    /// Whether the instruction is a sequencer point.
    pub atomic: bool,
    /// Valid locks held on every path reaching the access.
    pub locks: BTreeSet<u64>,
    /// Dataflow facts for the benign-idiom recognizers.
    pub idiom: AccessIdiom,
}

/// The access summary of one `ThreadSpec`.
#[derive(Clone, Debug)]
pub struct ThreadSummary {
    /// The thread's name from the program.
    pub name: String,
    /// Its entry pc.
    pub entry: usize,
    /// Number of reachable pcs in its CFG.
    pub reachable: usize,
    /// All memory accesses at reachable pcs.
    pub accesses: Vec<Access>,
}

/// Why a lock or flag-handoff candidate was demoted to "not trusted".
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Demotion {
    /// A write to the lock or flag word from outside the recognized
    /// acquire/release sites — the word's invariant cannot be trusted.
    RogueWrite {
        /// The offending write's pc.
        pc: usize,
    },
    /// A release site reached without provably holding the lock — mutual
    /// exclusion is broken.
    ReleaseWithoutHold {
        /// The offending release's pc.
        pc: usize,
    },
    /// A handoff flag whose initial global value is non-zero: the spin can
    /// exit before the release ever runs.
    NonzeroInit {
        /// The flag word's initial value.
        value: u64,
    },
    /// A spin loop that exits when the flag reads *zero* — the inverted
    /// polarity proves nothing about the releasing thread.
    ExitOnZero {
        /// The spin's zero-test branch (or its atomic) pc.
        pc: usize,
    },
    /// A handoff release that may execute more than once (it sits on a CFG
    /// cycle or is reachable by several threads), so "after the spin" does
    /// not pin *which* release the acquire observed.
    RepeatableRelease {
        /// The release's pc.
        pc: usize,
    },
}

impl Demotion {
    /// Stable lint-schema tag for the demotion reason.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Demotion::RogueWrite { .. } => "rogue_write",
            Demotion::ReleaseWithoutHold { .. } => "release_without_hold",
            Demotion::NonzeroInit { .. } => "nonzero_init",
            Demotion::ExitOnZero { .. } => "exit_on_zero",
            Demotion::RepeatableRelease { .. } => "repeatable_release",
        }
    }

    /// The pc evidence carried by the demotion, when it has one.
    #[must_use]
    pub fn pc(&self) -> Option<usize> {
        match *self {
            Demotion::RogueWrite { pc }
            | Demotion::ReleaseWithoutHold { pc }
            | Demotion::ExitOnZero { pc }
            | Demotion::RepeatableRelease { pc } => Some(pc),
            Demotion::NonzeroInit { .. } => None,
        }
    }
}

/// Why an access pair was statically refuted. [`Analysis::pruned`] reports
/// exactly one reason per pruned `(pc_lo, pc_hi)` pair (the first rule that
/// fired), and no reason for pairs that stay candidates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PruneReason {
    /// The abstract locations cannot alias.
    NoAlias,
    /// Neither side writes.
    ReadRead,
    /// Both sides are sequencer points.
    AtomicAtomic,
    /// Both sides hold a common valid spin lock.
    CommonLock,
    /// A validated handoff chain orders the pair in every execution.
    StaticallyOrdered,
}

impl PruneReason {
    /// Stable lint-schema tag for the prune reason.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            PruneReason::NoAlias => "no_alias",
            PruneReason::ReadRead => "read_read",
            PruneReason::AtomicAtomic => "atomic_atomic",
            PruneReason::CommonLock => "common_lock",
            PruneReason::StaticallyOrdered => "statically_ordered",
        }
    }
}

/// Everything the analysis learned about one spin-lock candidate.
#[derive(Clone, Debug)]
pub struct LockReport {
    /// The lock word's global address.
    pub addr: u64,
    /// pcs of recognized acquire-shaped atomics.
    pub acquire_sites: BTreeSet<usize>,
    /// pcs of recognized release-shaped atomics.
    pub release_sites: BTreeSet<usize>,
    /// `None` when the lock is valid, else the first demotion reason.
    pub demoted: Option<Demotion>,
}

impl LockReport {
    /// Whether accesses under this lock may be pruned.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.demoted.is_none()
    }
}

/// One side of a [`RaceWarning`].
#[derive(Clone, Debug, Default)]
pub struct WarningSide {
    /// The access pc.
    pub pc: usize,
    /// The threads (indices into [`Analysis::threads`]) that can execute
    /// this access.
    pub threads: BTreeSet<usize>,
    /// The abstract locations seen at this pc.
    pub locs: BTreeSet<AbsLoc>,
    /// Whether any contributing access writes.
    pub writes: bool,
    /// Whether any contributing access is a sequencer point.
    pub atomic: bool,
}

/// A statically-may-race warning, aggregated over every access pair that
/// maps to the same normalized `(pc_lo, pc_hi)` static id.
#[derive(Clone, Debug)]
pub struct RaceWarning {
    /// The lower-pc side.
    pub lo: WarningSide,
    /// The higher-pc side.
    pub hi: WarningSide,
    /// Whether any contributing location was `Unknown` (unresolved address).
    pub unresolved: bool,
    /// The idiom pass's predicted replay verdict, folded over every
    /// contributing access pair.
    pub predicted: PredictedVerdict,
    /// The value-impact verdict: can the racy value reach observable
    /// state? Folded over every contributing access pair (worst wins).
    pub impact: ImpactVerdict,
}

/// The set of statically-may-race pc pairs, the interface consumed by the
/// detector pre-filter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CandidateSet {
    pairs: BTreeSet<(usize, usize)>,
    monitored: BTreeSet<usize>,
}

impl CandidateSet {
    /// Whether the (unordered) pc pair is a candidate.
    #[must_use]
    pub fn contains(&self, pc_a: usize, pc_b: usize) -> bool {
        let key = (pc_a.min(pc_b), pc_a.max(pc_b));
        self.pairs.contains(&key)
    }

    /// Whether the pc participates in any candidate pair. Accesses at
    /// non-monitored pcs can never be part of a reported race.
    #[must_use]
    pub fn monitors(&self, pc: usize) -> bool {
        self.monitored.contains(&pc)
    }

    /// Number of candidate pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair survived.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates the normalized pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pairs.iter().copied()
    }

    /// Iterates the monitored pcs (every pc in some candidate pair).
    pub fn monitored(&self) -> impl Iterator<Item = usize> + '_ {
        self.monitored.iter().copied()
    }

    fn insert(&mut self, pc_a: usize, pc_b: usize) {
        let key = (pc_a.min(pc_b), pc_a.max(pc_b));
        self.pairs.insert(key);
        self.monitored.insert(pc_a);
        self.monitored.insert(pc_b);
    }
}

/// Aggregate counters describing the analysis and its pruning power.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Threads analyzed.
    pub threads: usize,
    /// Distinct reachable pcs across all threads.
    pub reachable_pcs: usize,
    /// Distinct reachable pcs that touch memory.
    pub memory_pcs: usize,
    /// Distinct pcs in at least one candidate pair.
    pub monitored_pcs: usize,
    /// Candidate pairs emitted.
    pub candidate_pairs: usize,
    /// Accesses whose address the abstract interpretation could not resolve.
    pub unknown_accesses: usize,
    /// Spin-lock candidates recognized (valid or not).
    pub lock_candidates: usize,
    /// Candidates that survived validation.
    pub valid_locks: usize,
    /// Flag-handoff words recognized by the order pass (valid or not).
    pub handoff_candidates: usize,
    /// Handoff words that survived validation.
    pub valid_handoffs: usize,
    /// Cross-thread order edges after transitive closure.
    pub order_edges: usize,
    /// Access pairs pruned because the locations cannot alias.
    pub pruned_no_alias: u64,
    /// Access pairs pruned because neither side writes.
    pub pruned_read_read: u64,
    /// Access pairs pruned because both sides are sequencer points.
    pub pruned_atomic_atomic: u64,
    /// Access pairs pruned because both sides hold a common valid lock.
    pub pruned_common_lock: u64,
    /// Access pairs pruned because a validated handoff chain orders them.
    pub pruned_statically_ordered: u64,
    /// Warnings whose predicted verdict is benign (any idiom matched).
    pub predicted_benign: usize,
    /// Warnings whose racy value provably cannot reach observable state.
    pub impact_unreachable: usize,
    /// Warnings where the impact walk widened before deciding.
    pub impact_possible: usize,
    /// Warnings with a resolved dataflow path into observable state.
    pub impact_proven: usize,
}

/// Exact counts of the work one [`analyze`] call did, each counted where
/// that work happens. They are a deterministic function of the program, so
/// a change that claims the same analysis for less time can show it makes
/// the same visits. The lint report does not render them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisWork {
    /// Per-thread fixpoint runs, re-runs of the stable-global rounds
    /// included.
    pub thread_runs: u64,
    /// Transfers the fixpoints ran: one per worklist pop.
    pub fixpoint_visits: u64,
    /// Out-states joined into a pc's existing state.
    pub joins: u64,
    /// Interval widenings applied on retreating edges.
    pub widenings: u64,
    /// Cross-thread access pairs put through the prune rules.
    pub access_pairs: u64,
}

impl AnalysisWork {
    fn add_run(&mut self, flow: &ThreadFlow) {
        self.thread_runs += 1;
        self.fixpoint_visits += flow.work.visits;
        self.joins += flow.work.joins;
        self.widenings += flow.work.widenings;
    }
}

impl std::ops::AddAssign for AnalysisWork {
    fn add_assign(&mut self, other: Self) {
        self.thread_runs += other.thread_runs;
        self.fixpoint_visits += other.fixpoint_visits;
        self.joins += other.joins;
        self.widenings += other.widenings;
        self.access_pairs += other.access_pairs;
    }
}

/// The full result of [`analyze`].
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Per-`ThreadSpec` summaries, in program order.
    pub threads: Vec<ThreadSummary>,
    /// Spin-lock candidates, sorted by address.
    pub locks: Vec<LockReport>,
    /// May-race warnings, sorted by `(pc_lo, pc_hi)`.
    pub warnings: Vec<RaceWarning>,
    /// The candidate pairs for the detector pre-filter.
    pub candidates: CandidateSet,
    /// The static order analysis: handoffs, edges, and the MHP query.
    pub order: OrderAnalysis,
    /// Aggregate counters, including how many access pairs each prune rule
    /// refuted; [`Analysis::pruned`] names the reason per pc pair.
    pub stats: AnalysisStats,
    /// How much work the analysis did.
    pub work: AnalysisWork,
}

/// One thread's fixpoint run and what the analysis harvests from it.
struct ThreadRun {
    flow: ThreadFlow,
    summary: ThreadSummary,
    /// Lock-discipline events, in pc order.
    events: Vec<(usize, LockEvent)>,
}

/// Runs one thread's fixpoint, with loads of the globals in `consts` folded
/// to their pinned values, and harvests its accesses and lock events from
/// the facts each reached pc's last transfer saw.
fn run_thread(
    program: &Program,
    spec: &ThreadSpec,
    cfg: &Cfg,
    barriers: &PcSet,
    consts: &BTreeMap<u64, u64>,
) -> ThreadRun {
    let flow = fixpoint_with(program, cfg, &spec.args, consts);
    let mut accesses = Vec::new();
    let mut events = Vec::new();
    for r in flow.iter() {
        if let Some(a) = r.access {
            accesses.push(Access {
                pc: r.pc,
                loc: a.loc,
                reads: a.reads,
                writes: a.writes,
                atomic: a.atomic,
                locks: BTreeSet::new(), // masked by validity below
                idiom: idioms::access_facts(program, &flow, barriers, r.pc, &a),
            });
        }
        events.extend(r.event.map(|e| (r.pc, e)));
    }
    let summary = ThreadSummary {
        name: spec.name.clone(),
        entry: spec.entry,
        reachable: cfg.reachable.len(),
        accesses,
    };
    ThreadRun { flow, summary, events }
}

/// The first write, in thread order, that may touch the global word at
/// `addr` from a pc `allowed` does not accept: it breaks the word's
/// invariant, whether the word is a lock or a handoff flag.
pub(crate) fn rogue_write(
    threads: &[ThreadSummary],
    addr: u64,
    allowed: impl Fn(usize) -> bool,
) -> Option<Demotion> {
    let word = AbsLoc::Global { lo: addr, hi: addr };
    let a = threads
        .iter()
        .flat_map(|t| &t.accesses)
        .find(|a| a.writes && !allowed(a.pc) && a.loc.may_alias(word))?;
    Some(Demotion::RogueWrite { pc: a.pc })
}

/// The globals no reachable access of any thread may write: their initial
/// image value is the value every load observes.
fn stable_globals(program: &Program, runs: &[ThreadRun]) -> BTreeMap<u64, u64> {
    let written: BTreeSet<AbsLoc> =
        runs.iter().flat_map(|r| &r.summary.accesses).filter(|a| a.writes).map(|a| a.loc).collect();
    program
        .globals()
        .iter()
        .filter(|&(&addr, _)| {
            let word = AbsLoc::Global { lo: addr, hi: addr };
            !written.iter().any(|loc| loc.may_alias(word))
        })
        .map(|(&addr, &value)| (addr, value))
        .collect()
}

/// The first prune rule that refutes the access pair `a` (thread `i`) /
/// `b` (thread `j`), or `None` when the pair may race. The rules are tried
/// in a fixed order, so every caller names the same reason for a pair.
fn prune_reason(
    order: &OrderAnalysis,
    i: usize,
    a: &Access,
    j: usize,
    b: &Access,
) -> Option<PruneReason> {
    if !a.loc.may_alias(b.loc) {
        Some(PruneReason::NoAlias)
    } else if !a.writes && !b.writes {
        Some(PruneReason::ReadRead)
    } else if a.atomic && b.atomic {
        Some(PruneReason::AtomicAtomic)
    } else if a.locks.intersection(&b.locks).next().is_some() {
        Some(PruneReason::CommonLock)
    } else if order.statically_ordered(i, a.pc, j, b.pc)
        || order.statically_ordered(j, b.pc, i, a.pc)
    {
        Some(PruneReason::StaticallyOrdered)
    } else {
        None
    }
}

/// Statically analyzes every thread of the program and cross-products the
/// summaries into may-race candidate pairs.
#[must_use]
pub fn analyze(program: &Program) -> Analysis {
    analyze_with(program, true)
}

/// [`analyze`] with the `StaticallyOrdered` prune rule disabled — the PR 2
/// baseline, kept as the comparison point for precision/overhead reports.
#[must_use]
pub fn analyze_without_order(program: &Program) -> Analysis {
    analyze_with(program, false)
}

fn analyze_with(program: &Program, use_order: bool) -> Analysis {
    let barriers = idioms::control_barriers(program);
    let specs = program.threads();
    // A thread's CFG depends only on the program and its entry pc, so it is
    // built once, outside the constant loop below.
    let cfgs: Vec<Cfg> = specs.iter().map(|spec| Cfg::build(program, spec.entry)).collect();

    // Stable-global constant propagation: a global word no reachable
    // instruction of any thread may write holds its image value forever, so
    // loads of it fold to constants — which can prove branch edges dead (a
    // configuration gate's off path), which removes the dead code's writes,
    // which can stabilize further globals. The iteration is *optimistic*
    // (greatest fixpoint): start from "every global is stable" and shed the
    // ones some surviving write may touch until the set is self-consistent.
    //
    // Soundness of the circular justification is by a first-write argument:
    // suppose some concrete execution wrote a word the final set calls
    // stable, and take the earliest such write. Up to that event every
    // folded load observed exactly its image value, so the abstract facts
    // over-approximate the whole prefix — including the writing
    // instruction, whose access fact then contradicts the word's
    // stability. The step function is antitone-free (fewer consts ⇒ more
    // reachable writes ⇒ fewer stable words), so the downward iteration
    // terminates in at most |globals| rounds.
    //
    // A later round re-runs only the threads that looked up a global the new
    // map answers differently for. This is exact: a thread's run depends on
    // the map only through its loads' lookups (`ThreadFlow::lookups`), so a
    // thread whose lookups all get the same answers would re-run to the very
    // same flow, accesses and lock events.
    let mut consts: BTreeMap<u64, u64> =
        program.globals().iter().map(|(&addr, &value)| (addr, value)).collect();
    let mut work = AnalysisWork::default();
    let mut runs: Vec<ThreadRun> = specs
        .iter()
        .zip(&cfgs)
        .map(|(spec, cfg)| run_thread(program, spec, cfg, &barriers, &consts))
        .inspect(|run| work.add_run(&run.flow))
        .collect();
    loop {
        let stable = stable_globals(program, &runs);
        if stable == consts {
            break;
        }
        for ((run, spec), cfg) in runs.iter_mut().zip(specs).zip(&cfgs) {
            if run.flow.lookups.iter().any(|g| stable.get(g) != consts.get(g)) {
                *run = run_thread(program, spec, cfg, &barriers, &stable);
                work.add_run(&run.flow);
            }
        }
        consts = stable;
    }

    // Gather lock events in thread order, so the first unheld release of a
    // lock is the one a thread-by-thread scan meets first.
    let mut acquires: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    let mut releases: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    let mut unheld_releases: BTreeMap<u64, usize> = BTreeMap::new();
    for &(pc, event) in runs.iter().flat_map(|r| &r.events) {
        match event {
            LockEvent::Acquire(lock) => {
                acquires.entry(lock).or_default().insert(pc);
            }
            LockEvent::Release { lock, held } => {
                releases.entry(lock).or_default().insert(pc);
                if !held {
                    unheld_releases.entry(lock).or_insert(pc);
                }
            }
        }
    }
    let mut reachable_pcs = PcSet::new(program.len());
    let mut memory_pcs = PcSet::new(program.len());
    for r in &runs {
        for reached in r.flow.iter() {
            reachable_pcs.insert(reached.pc);
            if reached.access.is_some() {
                memory_pcs.insert(reached.pc);
            }
        }
    }
    let (mut threads, flows): (Vec<ThreadSummary>, Vec<ThreadFlow>) =
        runs.into_iter().map(|r| (r.summary, r.flow)).unzip();

    // Validate lock candidates: a lock is trustworthy only if its word is
    // written exclusively by recognized acquire/release sites and every
    // release provably holds it.
    let mut locks: Vec<LockReport> = Vec::new();
    for (&addr, acq) in &acquires {
        let rel = releases.get(&addr).cloned().unwrap_or_default();
        let demoted = unheld_releases
            .get(&addr)
            .map(|&pc| Demotion::ReleaseWithoutHold { pc })
            .or_else(|| rogue_write(&threads, addr, |pc| acq.contains(&pc) || rel.contains(&pc)));
        locks.push(LockReport { addr, acquire_sites: acq.clone(), release_sites: rel, demoted });
    }
    let valid: BTreeSet<u64> = locks.iter().filter(|l| l.valid()).map(|l| l.addr).collect();

    // Mask every access's lockset down to the valid locks. The accesses
    // were harvested in the flow's pc order, one per reached pc that has
    // one.
    for (t, flow) in threads.iter_mut().zip(&flows) {
        let held = flow.iter().filter(|reached| reached.access.is_some());
        for (a, reached) in t.accesses.iter_mut().zip(held) {
            a.locks = reached.state.locks.intersection(&valid).copied().collect();
        }
    }

    // Validate flag handoffs before the cross-product so the
    // `StaticallyOrdered` rule can consult the closed order edges.
    let order = if use_order {
        analyze_order(program, &cfgs, &flows, &threads)
    } else {
        OrderAnalysis::default()
    };

    // Cross-product per-thread summaries into candidate pairs.
    let single_valued = idioms::single_valued_globals(program, &threads);
    let mut candidates = CandidateSet::default();
    let mut stats = AnalysisStats {
        threads: threads.len(),
        reachable_pcs: reachable_pcs.len(),
        memory_pcs: memory_pcs.len(),
        lock_candidates: locks.len(),
        valid_locks: valid.len(),
        handoff_candidates: order.handoffs.len(),
        valid_handoffs: order.handoffs.iter().filter(|h| h.valid()).count(),
        order_edges: order.edges.len(),
        unknown_accesses: threads
            .iter()
            .flat_map(|t| &t.accesses)
            .filter(|a| a.loc == AbsLoc::Unknown)
            .count(),
        ..AnalysisStats::default()
    };
    let mut warnings: BTreeMap<(usize, usize), RaceWarning> = BTreeMap::new();
    let impact = ImpactAnalyzer::new(program, &cfgs, &threads);
    for (i, ta) in threads.iter().enumerate() {
        for (j, tb) in threads.iter().enumerate().skip(i + 1) {
            for (ia, a) in ta.accesses.iter().enumerate() {
                for (ib, b) in tb.accesses.iter().enumerate() {
                    work.access_pairs += 1;
                    if let Some(reason) = prune_reason(&order, i, a, j, b) {
                        let counter = match reason {
                            PruneReason::NoAlias => &mut stats.pruned_no_alias,
                            PruneReason::ReadRead => &mut stats.pruned_read_read,
                            PruneReason::AtomicAtomic => &mut stats.pruned_atomic_atomic,
                            PruneReason::CommonLock => &mut stats.pruned_common_lock,
                            PruneReason::StaticallyOrdered => &mut stats.pruned_statically_ordered,
                        };
                        *counter += 1;
                        continue;
                    }
                    candidates.insert(a.pc, b.pc);
                    let predicted = idioms::classify_pair(a, b, &single_valued);
                    let reach = impact.pair_impact(i, ia, j, ib);
                    record_warning(&mut warnings, (i, a), (j, b), predicted, reach);
                }
            }
        }
    }
    stats.candidate_pairs = candidates.len();
    stats.monitored_pcs = candidates.monitored.len();

    // The BTreeMap already iterates by `(pc_lo, pc_hi)`, but the emission
    // order is part of the lint JSON contract: sort explicitly by
    // `(pc_lo, pc_hi, addr class)` so it never silently inherits whatever
    // the aggregation map happens to be.
    let mut warnings: Vec<RaceWarning> = warnings.into_values().collect();
    warnings.sort_by_key(|w| (w.lo.pc, w.hi.pc, addr_class(w)));
    stats.predicted_benign = warnings.iter().filter(|w| w.predicted.benign()).count();
    stats.impact_unreachable =
        warnings.iter().filter(|w| w.impact.reach == Reach::Unreachable).count();
    stats.impact_possible = warnings.iter().filter(|w| w.impact.reach == Reach::Possible).count();
    stats.impact_proven = warnings.iter().filter(|w| w.impact.reach == Reach::Proven).count();

    Analysis { threads, locks, warnings, candidates, order, stats, work }
}

/// Ordering class of a warning's addresses: resolved globals sort before
/// heap locations, unresolved addresses last.
fn addr_class(w: &RaceWarning) -> u8 {
    if w.unresolved {
        2
    } else if w.lo.locs.iter().chain(&w.hi.locs).any(|l| matches!(l, AbsLoc::Heap { .. })) {
        1
    } else {
        0
    }
}

impl Analysis {
    /// Why each refuted `(pc_lo, pc_hi)` pair was pruned: the reason the
    /// cross product met first for that pair. A pair pruned for one access
    /// combination may surface as a candidate through another; only fully
    /// refuted pairs appear. Computed on each call by walking the thread
    /// summaries again, so bind the result rather than calling this in a
    /// loop.
    #[must_use]
    pub fn pruned(&self) -> BTreeMap<(usize, usize), PruneReason> {
        let mut pruned = BTreeMap::new();
        for (i, ta) in self.threads.iter().enumerate() {
            for (j, tb) in self.threads.iter().enumerate().skip(i + 1) {
                for a in &ta.accesses {
                    for b in &tb.accesses {
                        let key = (a.pc.min(b.pc), a.pc.max(b.pc));
                        if self.candidates.pairs.contains(&key) {
                            continue;
                        }
                        if let Some(reason) = prune_reason(&self.order, i, a, j, b) {
                            pruned.entry(key).or_insert(reason);
                        }
                    }
                }
            }
        }
        pruned
    }
}

/// Folds one candidate access pair, each access with its thread's index,
/// into the warning for its `(pc_lo, pc_hi)` id.
fn record_warning(
    warnings: &mut BTreeMap<(usize, usize), RaceWarning>,
    (ta, a): (usize, &Access),
    (tb, b): (usize, &Access),
    predicted: PredictedVerdict,
    impact: ImpactVerdict,
) {
    let key = (a.pc.min(b.pc), a.pc.max(b.pc));
    let w = warnings.entry(key).or_insert_with(|| RaceWarning {
        lo: WarningSide { pc: key.0, ..WarningSide::default() },
        hi: WarningSide { pc: key.1, ..WarningSide::default() },
        unresolved: false,
        predicted,
        impact: ImpactVerdict::UNREACHABLE,
    });
    w.predicted = w.predicted.combine(predicted);
    w.impact = std::mem::take(&mut w.impact).combine(impact);
    w.unresolved |= a.loc == AbsLoc::Unknown || b.loc == AbsLoc::Unknown;
    // Tie-break equal pcs by putting `a` on the low side so both sides of a
    // same-pc pair (one function run by two threads) are populated.
    let (lo, hi) = if a.pc <= b.pc { ((ta, a), (tb, b)) } else { ((tb, b), (ta, a)) };
    for ((thread, acc), s) in [(lo, &mut w.lo), (hi, &mut w.hi)] {
        s.threads.insert(thread);
        s.locs.insert(acc.loc);
        s.writes |= acc.writes;
        s.atomic |= acc.atomic;
    }
}
