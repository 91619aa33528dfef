//! Happens-before data-race detection over a replayed trace (paper §3.4).
//!
//! Two memory operations race when they are executed by different threads in
//! *overlapping* sequencing regions, touch the same address, and at least
//! one is a write. Because overlap is defined by the total order on
//! sequencer timestamps, every reported race is a pair of genuinely
//! unordered conflicting accesses — **no false positives**, the property the
//! paper builds its tool on.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use idna_replay::replayer::{ReplayTrace, ReplayedRegion};
use idna_replay::vproc::AccessSite;
use racecheck::CandidateSet;
use tvm::exec::AccessKind;

/// Identity of a *static* data race: the unordered pair of static
/// instructions involved (paper §5.1: "a data race between the same two
/// static instructions").
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StaticRaceId {
    /// The smaller of the two pcs.
    pub pc_lo: usize,
    /// The larger of the two pcs.
    pub pc_hi: usize,
}

impl StaticRaceId {
    /// Builds the identity from two pcs, normalizing the order.
    #[must_use]
    pub fn new(pc_a: usize, pc_b: usize) -> Self {
        StaticRaceId { pc_lo: pc_a.min(pc_b), pc_hi: pc_a.max(pc_b) }
    }
}

impl fmt::Display for StaticRaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "race({}, {})", self.pc_lo, self.pc_hi)
    }
}

/// One dynamic instance of a data race: two conflicting accesses in
/// overlapping regions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RaceInstance {
    pub a: AccessSite,
    pub b: AccessSite,
}

impl RaceInstance {
    /// The static race this instance belongs to.
    #[must_use]
    pub fn static_id(&self) -> StaticRaceId {
        StaticRaceId::new(self.a.pc, self.b.pc)
    }

    /// The racing address.
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.a.addr
    }
}

/// Bound on instances collected per (static race, region pair); loops can
/// otherwise produce quadratic blowup. The bound is per static race so that
/// a high-frequency race (e.g. a spin loop) cannot starve detection of other
/// races on the same address.
pub const MAX_INSTANCES_PER_REGION_PAIR: usize = 64;

/// Detector options.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Static pre-filter from `racecheck::analyze`: accesses at pcs outside
    /// every candidate pair are not indexed, and pc pairs outside the set
    /// are never checked for overlap. Because the candidate set
    /// over-approximates what happens-before can report, the detected races
    /// are identical with and without the filter — only the cost counters
    /// differ (`tests/static_soundness.rs` pins this).
    pub prefilter: Option<Arc<CandidateSet>>,
}

/// Result of race detection over one trace.
#[derive(Clone, Debug, Default)]
pub struct DetectedRaces {
    /// All race instances, in detection order.
    pub instances: Vec<RaceInstance>,
    /// Instance indices grouped by static race.
    pub by_static: BTreeMap<StaticRaceId, Vec<usize>>,
    /// Number of region pairs that overlapped (a cost metric).
    pub overlapping_region_pairs: u64,
    /// Accesses inserted into the per-region address index (a cost metric).
    pub indexed_accesses: u64,
    /// Accesses skipped by the static pre-filter (zero without a filter).
    pub skipped_accesses: u64,
}

impl DetectedRaces {
    /// Number of unique static races.
    #[must_use]
    pub fn unique_races(&self) -> usize {
        self.by_static.len()
    }

    /// Number of dynamic race instances.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Iterates instances of one static race.
    pub fn instances_of(&self, id: StaticRaceId) -> impl Iterator<Item = &RaceInstance> + '_ {
        self.by_static.get(&id).into_iter().flatten().map(|&i| &self.instances[i])
    }
}

/// Per-region index of accesses by address, split into reads and writes.
struct RegionIndex<'a> {
    region: &'a ReplayedRegion,
    /// Sorted by address so pair enumeration order is deterministic and,
    /// in particular, independent of how many accesses a pre-filter kept.
    by_addr: BTreeMap<u64, (Vec<usize>, Vec<usize>)>,
    /// For each access, `Some(ts)` when the access's instruction is itself a
    /// sequencer point (an atomic): the access happens exactly *at* that
    /// timestamp rather than floating in the region.
    point_ts: Vec<Option<u64>>,
}

impl<'a> RegionIndex<'a> {
    fn new(
        trace: &ReplayTrace,
        region: &'a ReplayedRegion,
        config: &DetectorConfig,
        out: &mut DetectedRaces,
    ) -> Self {
        let mut by_addr: BTreeMap<u64, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        let mut point_ts = Vec::with_capacity(region.accesses.len());
        for (i, acc) in region.accesses.iter().enumerate() {
            // `point_ts` stays index-aligned with `region.accesses` even when
            // the pre-filter keeps an access out of the address index.
            let is_sync = trace.decoded().is_sequencer_point(acc.pc);
            // A sequencer-point instruction is the first instruction of its
            // region; its sequencer timestamp is the region's start.
            point_ts.push(is_sync.then_some(region.region.start_ts));
            if config.prefilter.as_ref().is_some_and(|f| !f.monitors(acc.pc)) {
                out.skipped_accesses += 1;
                continue;
            }
            out.indexed_accesses += 1;
            let entry = by_addr.entry(acc.addr).or_default();
            match acc.kind {
                AccessKind::Read => entry.0.push(i),
                AccessKind::Write => entry.1.push(i),
            }
        }
        RegionIndex { region, by_addr, point_ts }
    }

    /// Whether accesses `i` (of self) and `j` (of other) are *unordered* by
    /// the sequencer order. Two sequencer-point accesses are always ordered
    /// by their own timestamps (there is a synchronization operation between
    /// them by definition); a point access is unordered with a region access
    /// only when the point falls strictly inside the region's interval.
    fn unordered_with(&self, i: usize, other: &RegionIndex<'_>, j: usize) -> bool {
        match (self.point_ts[i], other.point_ts[j]) {
            (Some(_), Some(_)) => false,
            (Some(x), None) => other.region.region.start_ts < x && x < other.region.region.end_ts,
            (None, Some(y)) => self.region.region.start_ts < y && y < self.region.region.end_ts,
            (None, None) => true, // region overlap already established
        }
    }

    fn site(&self, idx: usize) -> AccessSite {
        let acc = self.region.accesses[idx];
        AccessSite {
            region: self.region.region.id,
            instr_index: acc.instr_index,
            pc: acc.pc,
            addr: acc.addr,
            kind: acc.kind,
        }
    }
}

/// Runs happens-before race detection over a trace.
///
/// Regions are swept in replay order (sorted by starting timestamp); an
/// active window holds regions whose interval may still overlap later ones.
///
/// # Examples
///
/// ```
/// use replay_race::detect::{detect_races, DetectorConfig};
/// use idna_replay::{recorder::record, replayer::replay};
/// use tvm::{ProgramBuilder, RunConfig};
/// use tvm::isa::Reg;
///
/// let mut b = ProgramBuilder::new();
/// b.thread("a");
/// b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
/// b.thread("b");
/// b.load(Reg::R2, Reg::R15, 8).halt();
/// let program: std::sync::Arc<tvm::Program> = b.build().into();
/// let rec = record(&program, &RunConfig::round_robin(1));
/// let trace = replay(&program, &rec.log)?;
/// let races = detect_races(&trace, &DetectorConfig::default());
/// assert_eq!(races.unique_races(), 1);
/// # Ok::<(), idna_replay::replayer::ReplayError>(())
/// ```
#[must_use]
pub fn detect_races(trace: &ReplayTrace, config: &DetectorConfig) -> DetectedRaces {
    let mut detected = DetectedRaces::default();
    let mut active: Vec<RegionIndex<'_>> = Vec::new();
    // Trace regions are already in start_ts order.
    for region in trace.regions() {
        active.retain(|idx| !idx.region.region.happens_before(&region.region));
        if region.accesses.is_empty() {
            // Still participates in the window? An empty region can never
            // race; skip inserting it but it also cannot order anything we
            // have not already ordered via retain.
            continue;
        }
        let idx = RegionIndex::new(trace, region, config, &mut detected);
        for other in &active {
            if !idx.region.region.overlaps(&other.region.region) {
                continue;
            }
            detected.overlapping_region_pairs += 1;
            collect_pair(&idx, other, config, &mut detected);
        }
        active.push(idx);
    }
    detected
}

fn collect_pair(
    ra: &RegionIndex<'_>,
    rb: &RegionIndex<'_>,
    config: &DetectorConfig,
    out: &mut DetectedRaces,
) {
    // Iterate the smaller region's map. Sizing by total accesses rather
    // than indexed accesses keeps the choice — and with it the emission
    // order — identical with and without a pre-filter.
    let (small, large, small_is_a) = if ra.region.accesses.len() <= rb.region.accesses.len() {
        (ra, rb, true)
    } else {
        (rb, ra, false)
    };
    for (addr, (s_reads, s_writes)) in &small.by_addr {
        let Some((l_reads, l_writes)) = large.by_addr.get(addr) else { continue };
        // Budget applies per static race, so one hot pc pair cannot starve
        // detection of other pc pairs on the same address.
        let mut budgets: HashMap<StaticRaceId, usize> = HashMap::new();
        let mut emit = |i_small: usize, i_large: usize, out: &mut DetectedRaces| {
            let id = StaticRaceId::new(
                small.region.accesses[i_small].pc,
                large.region.accesses[i_large].pc,
            );
            if config.prefilter.as_ref().is_some_and(|f| !f.contains(id.pc_lo, id.pc_hi)) {
                return;
            }
            let budget = budgets.entry(id).or_insert(MAX_INSTANCES_PER_REGION_PAIR);
            if *budget == 0 || !small.unordered_with(i_small, large, i_large) {
                return;
            }
            *budget -= 1;
            let (sa, sb) = if small_is_a {
                (small.site(i_small), large.site(i_large))
            } else {
                (large.site(i_large), small.site(i_small))
            };
            let instance = RaceInstance { a: sa, b: sb };
            let idx = out.instances.len();
            out.by_static.entry(instance.static_id()).or_default().push(idx);
            out.instances.push(instance);
        };
        // write × write
        for &w1 in s_writes {
            for &w2 in l_writes {
                emit(w1, w2, out);
            }
        }
        // write × read
        for &w in s_writes {
            for &r in l_reads {
                emit(w, r, out);
            }
        }
        // read × write
        for &r in s_reads {
            for &w in l_writes {
                emit(r, w, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idna_replay::recorder::record;
    use idna_replay::replayer::replay;
    use std::sync::Arc;
    use tvm::isa::{Reg, RmwOp};
    use tvm::scheduler::RunConfig;
    use tvm::{Program, ProgramBuilder};

    fn run(b: ProgramBuilder, cfg: RunConfig) -> DetectedRaces {
        let program: Arc<Program> = Arc::new(b.build());
        let rec = record(&program, &cfg);
        let trace = replay(&program, &rec.log).unwrap();
        detect_races(&trace, &DetectorConfig::default())
    }

    #[test]
    fn write_read_conflict_is_detected() {
        let mut b = ProgramBuilder::new();
        b.thread("w");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
        b.thread("r");
        b.load(Reg::R2, Reg::R15, 8).halt();
        let races = run(b, RunConfig::round_robin(1));
        assert_eq!(races.unique_races(), 1);
        assert_eq!(races.instance_count(), 1);
        let inst = &races.instances[0];
        assert_ne!(inst.a.tid(), inst.b.tid());
        assert_eq!(inst.addr(), 8);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut b = ProgramBuilder::new();
        b.global(8, 42);
        for name in ["a", "b"] {
            b.thread(name);
            b.load(Reg::R1, Reg::R15, 8).halt();
        }
        let races = run(b, RunConfig::round_robin(1));
        assert_eq!(races.unique_races(), 0);
    }

    #[test]
    fn different_addresses_do_not_race() {
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
        b.thread("b");
        b.movi(Reg::R1, 2).store(Reg::R1, Reg::R15, 16).halt();
        let races = run(b, RunConfig::round_robin(1));
        assert_eq!(races.unique_races(), 0);
    }

    #[test]
    fn synchronized_accesses_do_not_race() {
        // Thread a writes, then releases via an atomic; thread b spins on
        // the atomic, then reads. The sequencers order the regions, so the
        // data accesses do not overlap... but note the spin loop itself is
        // atomic (no plain-load race).
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.movi(Reg::R1, 9)
            .store(Reg::R1, Reg::R15, 8) // data
            .movi(Reg::R2, 1)
            .atomic_rmw(RmwOp::Xchg, Reg::R3, Reg::R15, 16, Reg::R2) // release
            .halt();
        b.thread("b");
        let spin = b.fresh_label("spin");
        b.label(spin)
            .movi(Reg::R2, 0)
            .atomic_rmw(RmwOp::Or, Reg::R1, Reg::R15, 16, Reg::R2) // acquire
            .branch(tvm::isa::Cond::Eq, Reg::R1, Reg::R15, spin)
            .load(Reg::R4, Reg::R15, 8) // data
            .halt();
        let races = run(b, RunConfig::round_robin(2));
        assert_eq!(
            races.unique_races(),
            0,
            "properly synchronized handoff must not be reported: {:?}",
            races.by_static.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn unsynchronized_flag_handoff_is_a_race() {
        // The classic benign "user constructed synchronization": plain
        // store/load on a flag. The happens-before detector reports it
        // (paper §5.4 category 1).
        let mut b = ProgramBuilder::new();
        b.thread("setter");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 8).halt();
        b.thread("waiter");
        let spin = b.fresh_label("spin");
        b.label(spin)
            .load(Reg::R1, Reg::R15, 8)
            .branch(tvm::isa::Cond::Eq, Reg::R1, Reg::R15, spin)
            .halt();
        let races = run(b, RunConfig::round_robin(1));
        assert_eq!(races.unique_races(), 1);
    }

    #[test]
    fn instances_are_grouped_by_static_pcs() {
        // The same static store races with the same static load in a loop:
        // one unique race, many instances.
        let mut b = ProgramBuilder::new();
        b.thread("w");
        let wtop = b.fresh_label("wtop");
        b.movi(Reg::R2, 8)
            .label(wtop)
            .store(Reg::R2, Reg::R15, 8)
            .subi(Reg::R2, Reg::R2, 1)
            .branch(tvm::isa::Cond::Ne, Reg::R2, Reg::R15, wtop)
            .halt();
        b.thread("r");
        let rtop = b.fresh_label("rtop");
        b.movi(Reg::R3, 8)
            .label(rtop)
            .load(Reg::R1, Reg::R15, 8)
            .subi(Reg::R3, Reg::R3, 1)
            .branch(tvm::isa::Cond::Ne, Reg::R3, Reg::R15, rtop)
            .halt();
        let races = run(b, RunConfig::round_robin(3));
        assert_eq!(races.unique_races(), 1, "{:?}", races.by_static.keys().collect::<Vec<_>>());
        assert!(races.instance_count() > 1);
    }

    #[test]
    fn instance_cap_bounds_blowup() {
        let mut b = ProgramBuilder::new();
        b.thread("w");
        let wtop = b.fresh_label("wtop");
        b.movi(Reg::R2, 200)
            .label(wtop)
            .store(Reg::R2, Reg::R15, 8)
            .subi(Reg::R2, Reg::R2, 1)
            .branch(tvm::isa::Cond::Ne, Reg::R2, Reg::R15, wtop)
            .halt();
        b.thread("r");
        let rtop = b.fresh_label("rtop");
        b.movi(Reg::R3, 200)
            .label(rtop)
            .load(Reg::R1, Reg::R15, 8)
            .subi(Reg::R3, Reg::R3, 1)
            .branch(tvm::isa::Cond::Ne, Reg::R3, Reg::R15, rtop)
            .halt();
        let program: Arc<Program> = Arc::new(b.build());
        let rec = record(&program, &RunConfig::round_robin(7));
        let trace = replay(&program, &rec.log).unwrap();
        let capped = detect_races(&trace, &DetectorConfig::default());
        // One overlapping region pair: its 200 × 200 conflicts fill the cap.
        assert_eq!(capped.overlapping_region_pairs, 1);
        assert_eq!(capped.instance_count(), MAX_INSTANCES_PER_REGION_PAIR);
    }

    #[test]
    fn prefilter_preserves_races_and_skips_private_accesses() {
        // A racy flag handoff plus a thread-private store: the static
        // candidate set monitors the handoff pcs only, so the filtered run
        // indexes fewer accesses but reports the identical races.
        let mut b = ProgramBuilder::new();
        b.thread("setter");
        b.movi(Reg::R1, 1)
            .store(Reg::R1, Reg::R15, 8)
            .store(Reg::R1, Reg::R15, 64) // private: no other thread touches 64
            .halt();
        b.thread("waiter");
        let spin = b.fresh_label("spin");
        b.label(spin)
            .load(Reg::R1, Reg::R15, 8)
            .branch(tvm::isa::Cond::Eq, Reg::R1, Reg::R15, spin)
            .halt();
        let program: Arc<Program> = Arc::new(b.build());
        let rec = record(&program, &RunConfig::round_robin(1));
        let trace = replay(&program, &rec.log).unwrap();
        let unfiltered = detect_races(&trace, &DetectorConfig::default());
        let candidates = Arc::new(racecheck::analyze(&program).candidates);
        let filtered = detect_races(&trace, &DetectorConfig { prefilter: Some(candidates) });
        assert_eq!(filtered.instances, unfiltered.instances);
        assert_eq!(filtered.by_static, unfiltered.by_static);
        assert!(filtered.skipped_accesses > 0, "the private store is never indexed");
        assert!(filtered.indexed_accesses < unfiltered.indexed_accesses);
    }

    #[test]
    fn static_race_id_normalizes() {
        assert_eq!(StaticRaceId::new(9, 3), StaticRaceId::new(3, 9));
        assert_eq!(StaticRaceId::new(3, 9).to_string(), "race(3, 9)");
    }
}
