//! Replay-based classification of data races (paper §4, §5.2).
//!
//! For every dynamic race instance, the classifier replays the two involved
//! sequencing regions twice in the virtual processor — once per order of the
//! racing operations — and compares the live-outs:
//!
//! * identical live-outs → **No-State-Change**,
//! * different live-outs → **State-Change**,
//! * either replay failed → **Replay-Failure**.
//!
//! A *static* race is then classified from all its instances (§5.2.1): it is
//! No-State-Change (and therefore **potentially benign**) only when *every*
//! instance is; any State-Change instance puts it in the State-Change group;
//! the remaining races with at least one failure form the Replay-Failure
//! group. State-Change and Replay-Failure races are **potentially harmful**
//! and are the ones handed to developers.
//!
//! # Execution engine
//!
//! Dual-order replays dominate the pipeline cost (the paper's 280×
//! overhead), and every replay is independent: a [`Vproc`] is a read-only
//! view of the trace. The engine therefore
//!
//! 1. **plans** the analyzed instances sequentially (a deterministic walk
//!    over `detected.by_static`) and groups them into *units*: every
//!    instance on one racing region pair under [`BatchMode::Shared`], one
//!    instance under [`BatchMode::Off`];
//! 2. **resolves** the units in one worker loop, inline at
//!    [`ClassifierConfig::jobs`] 1 and on scoped threads otherwise: a
//!    worker pulls a unit from a shared cursor and resolves every instance
//!    of it under both orders with one [`Vproc::run_unit`] call, which
//!    runs each side's oracle prefix once for every instance and both
//!    orders and compares the orders in place; under [`BatchMode::Off`]
//!    the unit's one instance replays through two [`Vproc::run_pair`]
//!    calls instead, the paper-literal reference;
//! 3. **assembles** the per-race outcomes sequentially, folding the
//!    resolved instances in plan order.
//!
//! Because which replays run — and what each returns — is fixed during
//! planning, the result is bit-for-bit identical at any job count, batched
//! or not.
//!
//! Live-outs are built only for a race's first exposing instance in a
//! unit, when it is State-Change; assembly keeps the pair of each race's
//! first exposing instance ([`ClassifiedRace::exposing_live_outs`]), so
//! the report renders the difference without replaying anything.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use tvm::fasthash::FastHashMap;

use idna_replay::region::RegionId;
use idna_replay::replayer::ReplayTrace;
use idna_replay::vproc::{
    AccessSite, BatchStats, PairLiveOut, PairOrder, PairOutcome, ReplayFailure, Vproc, VprocConfig,
};
use racecheck::{PredictedVerdict, Reach};

use crate::detect::{DetectedRaces, RaceInstance, StaticRaceId};

/// Outcome of replaying both orders of one race instance.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InstanceOutcome {
    /// Both orders completed with identical live-outs.
    NoStateChange,
    /// Both orders completed but the live-outs differ.
    StateChange,
    /// At least one order could not be replayed.
    ReplayFailure(ReplayFailure),
}

impl InstanceOutcome {
    /// Whether this instance outcome marks the race potentially harmful.
    #[must_use]
    pub fn is_harmful_signal(self) -> bool {
        !matches!(self, InstanceOutcome::NoStateChange)
    }
}

/// One classified race instance.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClassifiedInstance {
    pub instance: RaceInstance,
    pub outcome: InstanceOutcome,
    /// Which order reproduced the recorded execution, when identifiable —
    /// the "original order" of the paper's race reports.
    pub original_order: Option<PairOrder>,
}

/// Table 1 row: the aggregate outcome group of a static race (§5.2.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OutcomeGroup {
    /// Every instance was No-State-Change.
    NoStateChange,
    /// At least one instance was State-Change.
    StateChange,
    /// No State-Change instance, at least one Replay-Failure.
    ReplayFailure,
}

/// Table 1 column: the tool's verdict.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    PotentiallyBenign,
    PotentiallyHarmful,
}

impl OutcomeGroup {
    /// The verdict implied by the group (paper §5.2.2).
    #[must_use]
    pub fn verdict(self) -> Verdict {
        match self {
            OutcomeGroup::NoStateChange => Verdict::PotentiallyBenign,
            OutcomeGroup::StateChange | OutcomeGroup::ReplayFailure => Verdict::PotentiallyHarmful,
        }
    }
}

/// Instance statistics for one static race (the data behind Figures 3–5).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceCounts {
    /// Instances detected.
    pub detected: usize,
    /// Instances analyzed (bounded by the per-race budget).
    pub analyzed: usize,
    pub no_state_change: usize,
    pub state_change: usize,
    pub replay_failure: usize,
}

impl InstanceCounts {
    /// Instances that exposed the race (State-Change or Replay-Failure) —
    /// the dark bars of Figure 4.
    #[must_use]
    pub fn exposing(&self) -> usize {
        self.state_change + self.replay_failure
    }

    /// The outcome group these counts put a static race in (§5.2.1).
    fn group(&self) -> OutcomeGroup {
        if self.state_change > 0 {
            OutcomeGroup::StateChange
        } else if self.replay_failure > 0 {
            OutcomeGroup::ReplayFailure
        } else {
            OutcomeGroup::NoStateChange
        }
    }
}

/// A fully classified static race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassifiedRace {
    pub id: StaticRaceId,
    pub group: OutcomeGroup,
    pub verdict: Verdict,
    pub counts: InstanceCounts,
    /// The classified instances (up to the analysis budget), in detection
    /// order. The first harmful-signal instance, if any, is the reproducible
    /// scenario quoted in reports.
    pub instances: Vec<ClassifiedInstance>,
    /// The a-then-b and b-then-a live-outs of the first exposing instance
    /// when that instance is State-Change — the evidence the report's
    /// difference line renders. `None` for every other race.
    pub exposing_live_outs: Option<Box<[PairLiveOut; 2]>>,
}

impl ClassifiedRace {
    /// The first instance whose outcome signals harm, if any — the scenario
    /// a developer should replay first.
    #[must_use]
    pub fn first_exposing_instance(&self) -> Option<&ClassifiedInstance> {
        self.instances.iter().find(|i| i.outcome.is_harmful_signal())
    }
}

/// Whether planned instances sharing a racing region pair replay together
/// through the shared-prefix engine ([`Vproc::run_unit`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum BatchMode {
    /// Every planned instance is a unit of its own, replayed from scratch
    /// by two [`Vproc::run_pair`] calls, one per order — the paper-literal
    /// reference the shared engine is checked against.
    Off,
    /// Planned instances are grouped by racing region pair during the
    /// planner's sequential walk; each group is one [`Vproc::run_unit`]
    /// call, which executes the group's common oracle prefix once for
    /// every instance and both orders and forks per pair and order. The
    /// classification is byte-identical to `Off` at any job count (pinned
    /// by `tests/batch_equiv.rs`); only the cost changes.
    #[default]
    Shared,
}

/// How much the classifier trusts the static passes' predictions
/// ([`racecheck::idioms`] and [`racecheck::impact`]). **Ablation-only
/// knob**: the default runs every replay; the skip tiers trade replays for
/// trust in the static analyses, and graduate from ablation status only
/// while they produce zero verdict flips on the corpus (pinned by
/// `tests/static_idioms.rs` and `tests/static_impact.rs`, measured in
/// EXPERIMENTS.md E-SC3/E-SC4).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum TrustStatic {
    /// Ignore static predictions; classify every race by replay.
    #[default]
    Off,
    /// Skip dual-order replays for races whose static prediction is benign
    /// at high confidence, recording them as No-State-Change with zero
    /// analyzed instances.
    SkipAgreedBenign,
    /// Skip dual-order replays for races whose impact verdict is
    /// [`Reach::Unreachable`] — the taint pass proved neither order's value
    /// can reach anything the replay comparison looks at, so the race must
    /// replay to No-State-Change. `Possible` never skips: it means the walk
    /// widened before finishing the proof.
    SkipUnreachable,
    /// Both skip tiers at once: a race is skipped when *either* tier
    /// clears it.
    SkipBoth,
}

impl TrustStatic {
    /// Parses a CLI-style mode name. The combined tier accepts the comma
    /// form in either order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unrecognized input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(TrustStatic::Off),
            "skip-benign" => Ok(TrustStatic::SkipAgreedBenign),
            "skip-unreachable" => Ok(TrustStatic::SkipUnreachable),
            "skip-benign,skip-unreachable" | "skip-unreachable,skip-benign" => {
                Ok(TrustStatic::SkipBoth)
            }
            other => Err(format!(
                "trust-static mode must be off, skip-benign, skip-unreachable, \
                 or skip-benign,skip-unreachable, got {other:?}"
            )),
        }
    }

    /// Whether high-confidence benign idiom predictions skip replay.
    #[must_use]
    pub fn skips_benign(self) -> bool {
        matches!(self, TrustStatic::SkipAgreedBenign | TrustStatic::SkipBoth)
    }

    /// Whether proven-unreachable impact verdicts skip replay.
    #[must_use]
    pub fn skips_unreachable(self) -> bool {
        matches!(self, TrustStatic::SkipUnreachable | TrustStatic::SkipBoth)
    }
}

/// One static race's prediction bundle, as handed to the classifier: the
/// idiom pass's replay-verdict prediction plus the impact pass's reach
/// tier. Advisory under [`TrustStatic::Off`]; the skip tiers each consult
/// their half.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StaticPrediction {
    /// The D9 idiom prediction.
    pub predicted: PredictedVerdict,
    /// The D13 value-impact reach tier.
    pub reach: Reach,
}

impl StaticPrediction {
    /// Whether the configured trust tier lets this prediction skip the
    /// race's dual-order replays.
    #[must_use]
    pub fn skips_under(&self, trust: TrustStatic) -> bool {
        (trust.skips_benign() && self.predicted.high_confidence_benign())
            || (trust.skips_unreachable() && self.reach == Reach::Unreachable)
    }
}

/// Maximum instances analyzed per static race; further instances are
/// counted but not replayed. The paper analyzed thousands of instances for
/// some races (§5.3); this bound keeps large corpora tractable.
pub const MAX_INSTANCES_PER_RACE: usize = 2_000;

/// Classifier options.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassifierConfig {
    /// Virtual-processor options (permissive modes).
    pub vproc: VprocConfig,
    /// Worker threads replaying race instances. `0` (the default) uses the
    /// machine's available parallelism; `1` runs the replays inline on the
    /// calling thread, exactly as the original single-threaded classifier
    /// did. Results are identical at every setting.
    pub jobs: usize,
    /// Which static predictions may skip replay: high-confidence benign
    /// idioms, proven-unreachable impact verdicts, both, or neither
    /// (default [`TrustStatic::Off`]; see the type's ablation caveat).
    pub trust_static: TrustStatic,
    /// Shared-prefix replay batching (default [`BatchMode::Shared`]).
    pub batching: BatchMode,
}

impl ClassifierConfig {
    /// The worker count actually used: `jobs`, or the machine's available
    /// parallelism when `jobs` is 0.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.jobs
        }
    }
}

/// The result of classifying every detected race in one trace.
#[derive(Clone, Debug, Default)]
pub struct ClassificationResult {
    /// Classified races, keyed by static identity.
    pub races: BTreeMap<StaticRaceId, ClassifiedRace>,
    /// Virtual-processor replays executed: two per analyzed instance, the
    /// cost metric of the overhead experiment.
    pub vproc_replays: u64,
    /// Replay-engine counters, summed over every worker's [`Vproc`]:
    /// multi-pair units (at most one per unit), order replays forked from
    /// checkpoints, prefix executions (two per unit, or two per
    /// [`Vproc::run_pair`]), oracle instructions saved, and live-in
    /// fetches answered from the versioned history (see [`BatchStats`]).
    /// All zero under [`BatchMode::Off`] except the prefix-execution and
    /// live-in counters, which `run_pair` also feeds. The CLI's stats
    /// block, `--replay-stats` and the benches all read the counters here.
    pub batch_stats: BatchStats,
    /// Races recorded benign on static authority alone (zero replays),
    /// under the [`TrustStatic`] skip tiers (`skip-benign` idiom
    /// agreement and/or `skip-unreachable` impact proofs). Always 0 with
    /// trust off.
    pub static_skipped_races: u64,
    /// Races with at least one instance that failed replay because the
    /// log decoded tolerantly and damage cost the replay a needed live-in
    /// (`ReplayFailure::LogDamage`). These are potentially harmful by the
    /// paper's replay-failure rule; the counter separates "harmful
    /// because the evidence was damaged" from "harmful on clean
    /// evidence". Always 0 for strict (clean) decodes.
    pub log_damaged_races: u64,
}

impl ClassificationResult {
    /// Races with the given verdict, in static-id order.
    pub fn with_verdict(&self, verdict: Verdict) -> impl Iterator<Item = &ClassifiedRace> + '_ {
        self.races.values().filter(move |r| r.verdict == verdict)
    }

    /// Count of races in each outcome group: `(no_state_change,
    /// state_change, replay_failure)` — Table 1's row totals.
    #[must_use]
    pub fn group_counts(&self) -> (usize, usize, usize) {
        let mut nsc = 0;
        let mut sc = 0;
        let mut rf = 0;
        for race in self.races.values() {
            match race.group {
                OutcomeGroup::NoStateChange => nsc += 1,
                OutcomeGroup::StateChange => sc += 1,
                OutcomeGroup::ReplayFailure => rf += 1,
            }
        }
        (nsc, sc, rf)
    }
}

/// Classifies one instance from the outcome of its two orders — the
/// comparison half of [`classify_instance`], shared with the unit engine.
fn combine_outcomes(instance: &RaceInstance, pair: &PairOutcome) -> ClassifiedInstance {
    let (outcome, original_order) = match pair.orders {
        [Ok(x), Ok(y)] => {
            let original = if x {
                Some(PairOrder::AThenB)
            } else if y {
                Some(PairOrder::BThenA)
            } else {
                None
            };
            let outcome = if pair.same {
                InstanceOutcome::NoStateChange
            } else {
                InstanceOutcome::StateChange
            };
            (outcome, original)
        }
        [Ok(x), Err(f)] => (InstanceOutcome::ReplayFailure(f), x.then_some(PairOrder::AThenB)),
        [Err(f), Ok(y)] => (InstanceOutcome::ReplayFailure(f), y.then_some(PairOrder::BThenA)),
        [Err(f), Err(_)] => (InstanceOutcome::ReplayFailure(f), None),
    };
    ClassifiedInstance { instance: *instance, outcome, original_order }
}

/// Replays both orders of one instance from scratch, one
/// [`Vproc::run_pair`] call each — the paper-literal reference the unit
/// engine is checked against.
fn replay_both_orders(
    vproc: &Vproc<'_>,
    instance: &RaceInstance,
) -> (PairOutcome, [Result<PairLiveOut, ReplayFailure>; 2]) {
    let (a, b) = (&instance.a, &instance.b);
    let live_outs = PairOrder::BOTH.map(|order| vproc.run_pair(a, b, order));
    (PairOutcome::of(vproc.trace(), a, b, &live_outs), live_outs)
}

/// Classifies one race instance by replaying both orders.
#[must_use]
pub fn classify_instance(vproc: &Vproc<'_>, instance: &RaceInstance) -> ClassifiedInstance {
    combine_outcomes(instance, &replay_both_orders(vproc, instance).0)
}

/// One planned instance resolved where it replayed, with the two live-outs
/// kept when it is the first exposing instance of its race in its unit and
/// is State-Change.
type Resolved = (ClassifiedInstance, Option<Box<[PairLiveOut; 2]>>);

/// Groups the planned instances into units of replay work: indices into
/// `planned`, in plan order within each unit. Under [`BatchMode::Shared`] a
/// unit is every instance on one racing region pair, and units appear in
/// first-instance order; under [`BatchMode::Off`] every instance is a unit
/// of its own. The grouping, like everything else in the plan, is
/// deterministic.
fn form_units(planned: &[(usize, RaceInstance)], batching: BatchMode) -> Vec<Vec<usize>> {
    if batching == BatchMode::Off {
        return (0..planned.len()).map(|i| vec![i]).collect();
    }
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut index: FastHashMap<(RegionId, RegionId), usize> = FastHashMap::default();
    for (i, (_, instance)) in planned.iter().enumerate() {
        let unit = *index.entry((instance.a.region, instance.b.region)).or_insert_with(|| {
            units.push(Vec::new());
            units.len() - 1
        });
        units[unit].push(i);
    }
    units
}

/// Replays both orders of one unit and resolves each instance on the spot:
/// one [`Vproc::run_unit`] call under [`BatchMode::Shared`], and the unit's
/// one instance through two [`Vproc::run_pair`] calls under
/// [`BatchMode::Off`]. A unit's instances are in plan order, so a race's
/// instances in it are contiguous; the live-outs are kept only for each
/// race's first exposing instance in the unit, and only when that instance
/// is State-Change.
fn run_unit(
    vproc: &Vproc<'_>,
    planned: &[(usize, RaceInstance)],
    unit: &[usize],
    batching: BatchMode,
    pairs: &mut Vec<(AccessSite, AccessSite)>,
) -> Vec<Resolved> {
    let mut exposed_race = None;
    let mut keep = |i: usize, pair: &PairOutcome| {
        let (race, instance) = &planned[unit[i]];
        let outcome = combine_outcomes(instance, pair).outcome;
        if !outcome.is_harmful_signal() || exposed_race == Some(*race) {
            return false;
        }
        exposed_race = Some(*race);
        outcome == InstanceOutcome::StateChange
    };
    let resolved = if batching == BatchMode::Off {
        let &[i] = unit else { unreachable!("an unbatched unit is one instance") };
        let (outcome, live_outs) = replay_both_orders(vproc, &planned[i].1);
        let kept = match (keep(0, &outcome), live_outs) {
            (true, [Ok(fwd), Ok(rev)]) => Some(Box::new([fwd, rev])),
            _ => None,
        };
        vec![(outcome, kept)]
    } else {
        pairs.clear();
        pairs.extend(unit.iter().map(|&i| (planned[i].1.a, planned[i].1.b)));
        vproc.run_unit(pairs, keep)
    };
    unit.iter()
        .zip(resolved)
        .map(|(&i, (outcome, kept))| (combine_outcomes(&planned[i].1, &outcome), kept))
        .collect()
}

/// Runs every unit on `workers` threads (inline when 1): one loop, in
/// which a worker owns a [`Vproc`], pulls units from a shared cursor and
/// writes each resolved instance into its plan-index slot, so the output
/// order — and therefore the classification — is independent of
/// scheduling. Also returns the summed batch-engine counters of every
/// worker (u64 addition commutes, so the totals are deterministic too).
fn run_units(
    trace: &ReplayTrace,
    vproc_config: VprocConfig,
    planned: &[(usize, RaceInstance)],
    units: &[Vec<usize>],
    batching: BatchMode,
    workers: usize,
) -> (Vec<Resolved>, BatchStats) {
    let slots: Vec<OnceLock<Resolved>> = planned.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        let vproc = Vproc::new(trace, vproc_config);
        let mut pairs = Vec::new();
        while let Some(unit) = units.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let resolved = run_unit(&vproc, planned, unit, batching, &mut pairs);
            for (&i, resolved) in unit.iter().zip(resolved) {
                slots[i].set(resolved).expect("each plan index is in one unit");
            }
        }
        vproc.take_stats()
    };
    let stats = if workers <= 1 || units.len() <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..workers.min(units.len())).map(|_| scope.spawn(work)).collect();
            let mut stats = BatchStats::default();
            for handle in handles {
                stats.absorb(handle.join().expect("a classifier worker panicked"));
            }
            stats
        })
    };
    let resolved = slots.into_iter().map(|slot| slot.into_inner().expect("every unit ran"));
    (resolved.collect(), stats)
}

/// Converts a [`racecheck`] analysis's per-warning predictions (idiom
/// verdict + impact reach) to the classifier's [`StaticRaceId`] keying, for
/// [`classify_races_with`].
#[must_use]
pub fn predictions_by_id(
    analysis: &racecheck::Analysis,
) -> BTreeMap<StaticRaceId, StaticPrediction> {
    analysis
        .warnings
        .iter()
        .map(|w| {
            let id = StaticRaceId::new(w.lo.pc, w.hi.pc);
            (id, StaticPrediction { predicted: w.predicted, reach: w.impact.reach })
        })
        .collect()
}

/// Classifies every detected race in `trace`.
///
/// The work fans out over [`ClassifierConfig::jobs`] threads and, under
/// [`BatchMode::Shared`], shares each region pair's replay prefix; both
/// knobs change only the cost, never the classification.
///
/// `predictions` is consulted only under the [`TrustStatic`] skip tiers:
/// races the idiom pass predicts benign at high confidence
/// (`skip-benign`), or whose racy value the impact pass proves
/// unobservable (`skip-unreachable`), are recorded No-State-Change without
/// planning any replays. With trust off (or `predictions` `None`) the map
/// is ignored.
#[must_use]
pub fn classify_races_with(
    trace: &ReplayTrace,
    detected: &DetectedRaces,
    config: &ClassifierConfig,
    predictions: Option<&BTreeMap<StaticRaceId, StaticPrediction>>,
) -> ClassificationResult {
    let mut result = ClassificationResult::default();

    // Phase 1: plan. A sequential walk fixes which instances replay, so
    // the outcome cannot depend on worker scheduling. A race's planned
    // instances are contiguous; a race a trust tier skips plans none and
    // so assembles as No-State-Change.
    let mut planned: Vec<(usize, RaceInstance)> = Vec::new();
    let mut races: Vec<(StaticRaceId, usize, usize)> = Vec::new();
    for (&id, indices) in &detected.by_static {
        let skipped = predictions
            .and_then(|m| m.get(&id))
            .is_some_and(|p| p.skips_under(config.trust_static));
        result.static_skipped_races += u64::from(skipped);
        let budget = if skipped { 0 } else { MAX_INSTANCES_PER_RACE };
        let race = races.len();
        let before = planned.len();
        planned.extend(indices.iter().take(budget).map(|&idx| (race, detected.instances[idx])));
        races.push((id, indices.len(), planned.len() - before));
    }

    // Phase 2: replay both orders of every unit and resolve its instances
    // where they replayed.
    let units = form_units(&planned, config.batching);
    let (resolved, batch_stats) =
        run_units(trace, config.vproc, &planned, &units, config.batching, config.effective_jobs());
    result.vproc_replays = 2 * planned.len() as u64;
    result.batch_stats = batch_stats;

    // Phase 3: assemble, sequentially and in static-id order, folding the
    // resolved instances in plan order. The race's first exposing instance
    // is also its first in its unit, so its live-outs were kept when it is
    // State-Change.
    let mut resolved = resolved.into_iter();
    for (id, detected_count, analyzed) in races {
        let mut counts =
            InstanceCounts { detected: detected_count, analyzed, ..InstanceCounts::default() };
        let mut instances = Vec::with_capacity(analyzed);
        let mut exposing_live_outs = None;
        for (ci, kept) in resolved.by_ref().take(analyzed) {
            if ci.outcome.is_harmful_signal() && counts.exposing() == 0 {
                exposing_live_outs = kept;
            }
            match ci.outcome {
                InstanceOutcome::NoStateChange => counts.no_state_change += 1,
                InstanceOutcome::StateChange => counts.state_change += 1,
                InstanceOutcome::ReplayFailure(_) => counts.replay_failure += 1,
            }
            instances.push(ci);
        }
        let group = counts.group();
        let race = ClassifiedRace {
            id,
            group,
            verdict: group.verdict(),
            counts,
            instances,
            exposing_live_outs,
        };
        if race_touches_log_damage(&race) {
            result.log_damaged_races += 1;
        }
        result.races.insert(id, race);
    }
    result
}

/// Merges classifications of the same program across several executions
/// (paper §4.3: "several instances of the same data race should be found in
/// the same execution or across different test scenarios").
///
/// A race is potentially benign only if every instance in every execution
/// was No-State-Change. Replay counters are summed, and each race keeps the
/// live-outs of its first exposing instance across all executions.
#[must_use]
pub fn merge_classifications(results: &[ClassificationResult]) -> ClassificationResult {
    let mut merged = ClassificationResult::default();
    for result in results {
        merged.vproc_replays += result.vproc_replays;
        merged.batch_stats.absorb(result.batch_stats);
        merged.static_skipped_races += result.static_skipped_races;
        for (id, race) in &result.races {
            merged
                .races
                .entry(*id)
                .and_modify(|existing| {
                    if existing.first_exposing_instance().is_none() {
                        existing.exposing_live_outs.clone_from(&race.exposing_live_outs);
                    }
                    existing.counts.detected += race.counts.detected;
                    existing.counts.analyzed += race.counts.analyzed;
                    existing.counts.no_state_change += race.counts.no_state_change;
                    existing.counts.state_change += race.counts.state_change;
                    existing.counts.replay_failure += race.counts.replay_failure;
                    existing.instances.extend(race.instances.iter().copied());
                    existing.group = existing.counts.group();
                    existing.verdict = existing.group.verdict();
                })
                .or_insert_with(|| race.clone());
        }
    }
    // Recompute rather than sum: the same race seen in several executions
    // must count once.
    merged.log_damaged_races =
        merged.races.values().filter(|r| race_touches_log_damage(r)).count() as u64;
    merged
}

/// Whether any analyzed instance of the race failed replay on log damage.
fn race_touches_log_damage(race: &ClassifiedRace) -> bool {
    race.instances
        .iter()
        .any(|i| i.outcome == InstanceOutcome::ReplayFailure(ReplayFailure::LogDamage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_races, DetectorConfig};
    use idna_replay::recorder::record;
    use idna_replay::replayer::replay;
    use std::sync::Arc;
    use tvm::isa::Reg;
    use tvm::scheduler::RunConfig;
    use tvm::{Program, ProgramBuilder};

    fn classify_program(b: ProgramBuilder, cfg: RunConfig) -> ClassificationResult {
        let program: Arc<Program> = Arc::new(b.build());
        let rec = record(&program, &cfg);
        let trace = replay(&program, &rec.log).unwrap();
        let detected = detect_races(&trace, &DetectorConfig::default());
        classify_races_with(&trace, &detected, &ClassifierConfig::default(), None)
    }

    #[test]
    fn redundant_write_is_potentially_benign() {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            b.movi(Reg::R1, 7).store(Reg::R1, Reg::R15, 0x20).halt();
        }
        let result = classify_program(b, RunConfig::round_robin(1));
        assert_eq!(result.races.len(), 1);
        let race = result.races.values().next().unwrap();
        assert_eq!(race.group, OutcomeGroup::NoStateChange);
        assert_eq!(race.verdict, Verdict::PotentiallyBenign);
        assert!(race.exposing_live_outs.is_none(), "benign races keep no live-outs");
    }

    #[test]
    fn conflicting_write_is_potentially_harmful() {
        let mut b = ProgramBuilder::new();
        for (name, val) in [("a", 1u64), ("b", 2u64)] {
            b.thread(name);
            b.movi(Reg::R1, val).store(Reg::R1, Reg::R15, 0x20).halt();
        }
        let result = classify_program(b, RunConfig::round_robin(1));
        let race = result.races.values().next().unwrap();
        assert_eq!(race.group, OutcomeGroup::StateChange);
        assert_eq!(race.verdict, Verdict::PotentiallyHarmful);
        assert!(race.first_exposing_instance().is_some());
        let [x, y] = race.exposing_live_outs.as_deref().expect("State-Change keeps its evidence");
        assert_ne!(x, y, "the kept live-outs are the two differing orders");
    }

    #[test]
    fn read_write_race_identifies_the_original_order() {
        let mut b = ProgramBuilder::new();
        b.thread("w");
        b.movi(Reg::R1, 5).store(Reg::R1, Reg::R15, 0x30).halt();
        b.thread("r");
        b.load(Reg::R2, Reg::R15, 0x30).halt();
        let result = classify_program(b, RunConfig::round_robin(1));
        let race = result.races.values().next().unwrap();
        assert_eq!(race.group, OutcomeGroup::StateChange);
        let ci = &race.instances[0];
        assert!(ci.original_order.is_some(), "one order matches the recording");
    }

    #[test]
    fn one_state_change_instance_dominates_many_benign_ones() {
        // Thread a stores the same value 7 in a loop; thread b stores a
        // different value once. Many instances are order-insensitive, but
        // any state-change instance forces the StateChange group.
        let mut b = ProgramBuilder::new();
        b.thread("a");
        let top = b.fresh_label("top");
        b.movi(Reg::R2, 5)
            .movi(Reg::R1, 7)
            .label(top)
            .store(Reg::R1, Reg::R15, 0x20)
            .subi(Reg::R2, Reg::R2, 1)
            .branch(tvm::isa::Cond::Ne, Reg::R2, Reg::R15, top)
            .halt();
        b.thread("b");
        b.movi(Reg::R1, 9).store(Reg::R1, Reg::R15, 0x20).halt();
        let result = classify_program(b, RunConfig::round_robin(2));
        // Whatever the instance mix, any SC instance forces StateChange.
        for race in result.races.values() {
            if race.counts.state_change > 0 {
                assert_eq!(race.group, OutcomeGroup::StateChange);
            }
        }
    }

    #[test]
    fn merge_makes_harmful_dominate_across_executions() {
        let mut benign = ClassificationResult::default();
        let id = StaticRaceId::new(1, 2);
        benign.races.insert(
            id,
            ClassifiedRace {
                id,
                group: OutcomeGroup::NoStateChange,
                verdict: Verdict::PotentiallyBenign,
                counts: InstanceCounts {
                    detected: 3,
                    analyzed: 3,
                    no_state_change: 3,
                    ..InstanceCounts::default()
                },
                instances: vec![],
                exposing_live_outs: None,
            },
        );
        let mut harmful = ClassificationResult::default();
        harmful.races.insert(
            id,
            ClassifiedRace {
                id,
                group: OutcomeGroup::StateChange,
                verdict: Verdict::PotentiallyHarmful,
                counts: InstanceCounts {
                    detected: 1,
                    analyzed: 1,
                    state_change: 1,
                    ..InstanceCounts::default()
                },
                instances: vec![],
                exposing_live_outs: None,
            },
        );
        let merged = merge_classifications(&[benign, harmful]);
        let race = &merged.races[&id];
        assert_eq!(race.group, OutcomeGroup::StateChange);
        assert_eq!(race.counts.detected, 4);
        assert_eq!(race.counts.exposing(), 1);
    }

    #[test]
    fn merge_sums_replay_accounting() {
        let one = ClassificationResult { vproc_replays: 10, ..ClassificationResult::default() };
        let two = ClassificationResult { vproc_replays: 4, ..ClassificationResult::default() };
        assert_eq!(merge_classifications(&[one, two]).vproc_replays, 14);
    }

    #[test]
    fn merge_keeps_the_first_exposing_live_outs() {
        let mut b = ProgramBuilder::new();
        for (name, val) in [("a", 1u64), ("b", 2u64)] {
            b.thread(name);
            b.movi(Reg::R1, val).store(Reg::R1, Reg::R15, 0x20).halt();
        }
        let harmful = classify_program(b, RunConfig::round_robin(1));
        let (&id, race) = harmful.races.iter().next().unwrap();
        assert!(race.exposing_live_outs.is_some());
        let mut benign = ClassificationResult::default();
        let group = OutcomeGroup::NoStateChange;
        benign.races.insert(
            id,
            ClassifiedRace {
                id,
                group,
                verdict: group.verdict(),
                counts: InstanceCounts::default(),
                instances: vec![],
                exposing_live_outs: None,
            },
        );
        // The first exposing instance may come from a later execution…
        let merged = merge_classifications(&[benign, harmful.clone()]);
        assert_eq!(merged.races[&id].exposing_live_outs, race.exposing_live_outs);
        // …and a later execution never displaces it.
        let mut later = harmful.clone();
        later.races.get_mut(&id).unwrap().exposing_live_outs = None;
        let merged = merge_classifications(&[harmful.clone(), later]);
        assert_eq!(merged.races[&id].exposing_live_outs, race.exposing_live_outs);
    }

    #[test]
    fn group_counts_partition_races() {
        let mut b = ProgramBuilder::new();
        // Benign redundant write on 0x20, harmful conflicting write on 0x28.
        b.thread("a");
        b.movi(Reg::R1, 7)
            .store(Reg::R1, Reg::R15, 0x20)
            .movi(Reg::R2, 1)
            .store(Reg::R2, Reg::R15, 0x28)
            .halt();
        b.thread("b");
        b.movi(Reg::R1, 7)
            .store(Reg::R1, Reg::R15, 0x20)
            .movi(Reg::R2, 2)
            .store(Reg::R2, Reg::R15, 0x28)
            .halt();
        let result = classify_program(b, RunConfig::round_robin(1));
        let (nsc, sc, rf) = result.group_counts();
        assert_eq!(nsc + sc + rf, result.races.len());
        assert!(sc >= 1, "the conflicting write must be state-change");
    }

    #[test]
    fn trust_static_skips_high_confidence_benign_predictions() {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            b.movi(Reg::R1, 7).store(Reg::R1, Reg::R15, 0x20).halt();
        }
        let program: Arc<Program> = Arc::new(b.build());
        let cfg = RunConfig::round_robin(1);
        let rec = record(&program, &cfg);
        let trace = replay(&program, &rec.log).unwrap();
        let detected = detect_races(&trace, &DetectorConfig::default());
        let baseline = classify_races_with(&trace, &detected, &ClassifierConfig::default(), None);
        assert_eq!(baseline.static_skipped_races, 0);
        let (&id, base_race) = baseline.races.iter().next().unwrap();
        assert!(base_race.counts.analyzed > 0);

        let benign = StaticPrediction {
            predicted: PredictedVerdict {
                idiom: racecheck::Idiom::RedundantWrite,
                confidence: racecheck::Confidence::High,
            },
            reach: Reach::Possible,
        };
        let predictions: BTreeMap<StaticRaceId, StaticPrediction> = [(id, benign)].into();
        let trusted = ClassifierConfig {
            trust_static: TrustStatic::SkipAgreedBenign,
            ..ClassifierConfig::default()
        };
        let result = classify_races_with(&trace, &detected, &trusted, Some(&predictions));
        assert_eq!(result.static_skipped_races, 1);
        assert_eq!(result.vproc_replays, 0, "the only race was skipped");
        let race = &result.races[&id];
        assert_eq!(race.verdict, Verdict::PotentiallyBenign);
        assert_eq!(race.group, OutcomeGroup::NoStateChange);
        assert_eq!(race.counts.analyzed, 0);
        assert_eq!(race.counts.detected, base_race.counts.detected);
        assert!(race.instances.is_empty());

        // With trust off the same prediction map changes nothing.
        let off = classify_races_with(
            &trace,
            &detected,
            &ClassifierConfig::default(),
            Some(&predictions),
        );
        assert_eq!(off.static_skipped_races, 0);
        assert_eq!(off.vproc_replays, baseline.vproc_replays);
        assert_eq!(off.races[&id].counts.analyzed, base_race.counts.analyzed);
    }

    #[test]
    fn trust_static_ignores_low_confidence_and_harmful_predictions() {
        let mut b = ProgramBuilder::new();
        for (name, val) in [("a", 1u64), ("b", 2u64)] {
            b.thread(name);
            b.movi(Reg::R1, val).store(Reg::R1, Reg::R15, 0x20).halt();
        }
        let program: Arc<Program> = Arc::new(b.build());
        let cfg = RunConfig::round_robin(1);
        let rec = record(&program, &cfg);
        let trace = replay(&program, &rec.log).unwrap();
        let detected = detect_races(&trace, &DetectorConfig::default());
        let &id = detected.by_static.keys().next().unwrap();
        let low = PredictedVerdict {
            idiom: racecheck::Idiom::DoubleCheck,
            confidence: racecheck::Confidence::Low,
        };
        for predicted in [low, PredictedVerdict::UNKNOWN] {
            let prediction = StaticPrediction { predicted, reach: Reach::Proven };
            let predictions: BTreeMap<StaticRaceId, StaticPrediction> = [(id, prediction)].into();
            let trusted = ClassifierConfig {
                trust_static: TrustStatic::SkipAgreedBenign,
                ..ClassifierConfig::default()
            };
            let result = classify_races_with(&trace, &detected, &trusted, Some(&predictions));
            assert_eq!(result.static_skipped_races, 0, "{prediction:?} must still replay");
            assert!(result.races[&id].counts.analyzed > 0);
        }
    }

    #[test]
    fn trust_static_skip_unreachable_skips_on_impact_authority() {
        // A dead racy load: the reader *consumes* the value (so the idiom
        // pass's read-mask recognizers see a live read and match nothing)
        // but every derived register dies before the halt — only the impact
        // pass proves the race unobservable.
        let mut b = ProgramBuilder::new();
        b.thread("w");
        b.movi(Reg::R1, 5).store(Reg::R1, Reg::R15, 0x20).halt();
        b.thread("r");
        b.load(Reg::R1, Reg::R15, 0x20)
            .add(Reg::R2, Reg::R1, Reg::R1)
            .movi(Reg::R1, 0)
            .movi(Reg::R2, 0)
            .halt();
        let program: Arc<Program> = Arc::new(b.build());
        let cfg = RunConfig::round_robin(1);
        let rec = record(&program, &cfg);
        let trace = replay(&program, &rec.log).unwrap();
        let detected = detect_races(&trace, &DetectorConfig::default());
        let predictions = predictions_by_id(&racecheck::analyze(&program));
        let (&id, prediction) = predictions.iter().next().unwrap();
        assert_eq!(prediction.reach, Reach::Unreachable);
        assert!(!prediction.predicted.high_confidence_benign(), "no idiom matches a dead load");

        let baseline = classify_races_with(&trace, &detected, &ClassifierConfig::default(), None);
        assert_eq!(baseline.races[&id].group, OutcomeGroup::NoStateChange, "soundness");

        // skip-benign alone must NOT skip it (the idiom half says nothing)…
        let benign_only = ClassifierConfig {
            trust_static: TrustStatic::SkipAgreedBenign,
            ..ClassifierConfig::default()
        };
        let result = classify_races_with(&trace, &detected, &benign_only, Some(&predictions));
        assert_eq!(result.static_skipped_races, 0);

        // …while skip-unreachable (and the combined tier) skips on impact
        // authority with the same verdict and zero replays.
        for trust in [TrustStatic::SkipUnreachable, TrustStatic::SkipBoth] {
            let trusted = ClassifierConfig { trust_static: trust, ..ClassifierConfig::default() };
            let result = classify_races_with(&trace, &detected, &trusted, Some(&predictions));
            assert_eq!(result.static_skipped_races, 1, "{trust:?}");
            assert_eq!(result.vproc_replays, 0, "{trust:?}");
            let race = &result.races[&id];
            assert_eq!(race.group, OutcomeGroup::NoStateChange);
            assert_eq!(race.verdict, Verdict::PotentiallyBenign);
            assert_eq!(race.counts.analyzed, 0);
            assert_eq!(race.counts.detected, baseline.races[&id].counts.detected);
        }
    }

    #[test]
    fn skip_unreachable_never_skips_possible_or_proven() {
        let prediction = |reach| StaticPrediction { predicted: PredictedVerdict::UNKNOWN, reach };
        for reach in [Reach::Possible, Reach::Proven] {
            assert!(!prediction(reach).skips_under(TrustStatic::SkipUnreachable), "{reach:?}");
            assert!(!prediction(reach).skips_under(TrustStatic::SkipBoth), "{reach:?}");
        }
        assert!(prediction(Reach::Unreachable).skips_under(TrustStatic::SkipUnreachable));
        assert!(!prediction(Reach::Unreachable).skips_under(TrustStatic::Off));
        assert!(!prediction(Reach::Unreachable).skips_under(TrustStatic::SkipAgreedBenign));
    }

    #[test]
    fn merge_sums_static_skip_accounting() {
        let one = ClassificationResult { static_skipped_races: 2, ..Default::default() };
        let two = ClassificationResult { static_skipped_races: 1, ..Default::default() };
        assert_eq!(merge_classifications(&[one, two]).static_skipped_races, 3);
    }

    #[test]
    fn parse_trust_static_names() {
        assert_eq!(TrustStatic::parse("off").unwrap(), TrustStatic::Off);
        assert_eq!(TrustStatic::parse("skip-benign").unwrap(), TrustStatic::SkipAgreedBenign);
        assert_eq!(TrustStatic::parse("skip-unreachable").unwrap(), TrustStatic::SkipUnreachable);
        assert_eq!(
            TrustStatic::parse("skip-benign,skip-unreachable").unwrap(),
            TrustStatic::SkipBoth
        );
        assert_eq!(
            TrustStatic::parse("skip-unreachable,skip-benign").unwrap(),
            TrustStatic::SkipBoth
        );
        assert!(TrustStatic::parse("always").is_err());
    }

    #[test]
    fn units_group_by_region_pair_in_plan_order() {
        let site = |tid: usize, index: usize, instr: u64| AccessSite {
            region: RegionId { tid, index },
            instr_index: instr,
            pc: 0,
            addr: 0x20,
            kind: tvm::exec::AccessKind::Write,
        };
        let planned = vec![
            (0, RaceInstance { a: site(0, 0, 1), b: site(1, 0, 1) }),
            (0, RaceInstance { a: site(0, 1, 9), b: site(1, 0, 1) }),
            (1, RaceInstance { a: site(0, 0, 2), b: site(1, 0, 3) }),
            (2, RaceInstance { a: site(0, 1, 4), b: site(1, 0, 2) }),
        ];
        let units = form_units(&planned, BatchMode::Shared);
        assert_eq!(units, vec![vec![0, 2], vec![1, 3]], "one unit per region pair, plan order");
        let singletons = form_units(&planned, BatchMode::Off);
        assert_eq!(singletons, vec![vec![0], vec![1], vec![2], vec![3]], "Off: one per instance");
    }

    #[test]
    fn batching_off_matches_shared_batching() {
        // A looping writer racing a one-shot writer yields several instances
        // on one region pair — exactly the shape batching accelerates.
        let build = || {
            let mut b = ProgramBuilder::new();
            b.thread("a");
            let top = b.fresh_label("top");
            b.movi(Reg::R2, 6)
                .movi(Reg::R1, 7)
                .label(top)
                .store(Reg::R1, Reg::R15, 0x20)
                .subi(Reg::R2, Reg::R2, 1)
                .branch(tvm::isa::Cond::Ne, Reg::R2, Reg::R15, top)
                .halt();
            b.thread("b");
            b.movi(Reg::R1, 9).store(Reg::R1, Reg::R15, 0x20).halt();
            b
        };
        let program: Arc<Program> = Arc::new(build().build());
        let cfg = RunConfig::round_robin(2);
        let rec = record(&program, &cfg);
        let trace = replay(&program, &rec.log).unwrap();
        let detected = detect_races(&trace, &DetectorConfig::default());
        let batched = classify_races_with(&trace, &detected, &ClassifierConfig::default(), None);
        let unbatched = classify_races_with(
            &trace,
            &detected,
            &ClassifierConfig { batching: BatchMode::Off, ..ClassifierConfig::default() },
            None,
        );
        assert_eq!(batched.races, unbatched.races);
        assert_eq!(batched.vproc_replays, unbatched.vproc_replays);
        assert!(batched.batch_stats.batches > 0, "the loop instances must share a batch");
        assert!(batched.batch_stats.prefix_executions < unbatched.batch_stats.prefix_executions);
        assert_eq!(unbatched.batch_stats.batches, 0);
        assert_eq!(unbatched.batch_stats.forks, 0);
    }

    #[test]
    fn merge_sums_batch_accounting() {
        let one = ClassificationResult {
            batch_stats: BatchStats {
                batches: 2,
                forks: 5,
                prefix_executions: 4,
                prefix_instrs_saved: 100,
                live_in_index_hits: 7,
            },
            ..ClassificationResult::default()
        };
        let two = ClassificationResult {
            batch_stats: BatchStats { batches: 1, forks: 2, ..BatchStats::default() },
            ..ClassificationResult::default()
        };
        let merged = merge_classifications(&[one, two]);
        assert_eq!(merged.batch_stats.batches, 3);
        assert_eq!(merged.batch_stats.forks, 7);
        assert_eq!(merged.batch_stats.prefix_instrs_saved, 100);
        assert_eq!(merged.batch_stats.live_in_index_hits, 7);
    }
}
