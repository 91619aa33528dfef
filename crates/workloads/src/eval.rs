//! Corpus evaluation: regenerates the paper's Table 1, Table 2, and
//! Figures 3–5 by running the full pipeline over the 20 executions and
//! joining the merged classification with the ground-truth manifests.
//!
//! [`run_static_eval`] is the E-SC2 companion: it runs the *static*
//! race analyzer (`racecheck`) over the corpus program, feeds its
//! warnings through the replay classifier on every execution, and
//! reports precision/recall of the static warnings alone against
//! static + replay-classification.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use idna_replay::vproc::VprocConfig;
use replay_race::classify::{
    merge_classifications, predictions_by_id, ClassificationResult, ClassifierConfig, OutcomeGroup,
    StaticPrediction, TrustStatic, Verdict,
};
use replay_race::detect::{DetectorConfig, StaticRaceId};
use replay_race::pipeline::{run_pipeline, PipelineConfig, PipelineResult};
use replay_race::InstanceOutcome;

use crate::corpus::{corpus_executions, corpus_manifest, corpus_program};
use crate::static_feed::{classify_static_warnings, StaticConfusion};
use crate::truth::{BenignCategory, TrueVerdict, TruthTable};

/// Per-execution summary kept for reporting.
#[derive(Debug)]
pub struct ExecutionOutcome {
    pub name: &'static str,
    pub instructions: u64,
    pub unique_races: usize,
    pub race_instances: usize,
    pub raw_log_bytes: usize,
    pub compressed_log_bytes: usize,
}

/// Everything the corpus run produces.
#[derive(Debug)]
pub struct CorpusReport {
    /// Classification merged across all executions (paper §4.3: instance
    /// evidence accumulates across test scenarios).
    pub merged: ClassificationResult,
    /// Ground truth resolved against the corpus program.
    pub truth: TruthTable,
    pub executions: Vec<ExecutionOutcome>,
    /// Races detected that the manifests do not cover (should be empty).
    pub unexpected: Vec<StaticRaceId>,
    /// Total instructions across all executions.
    pub total_instructions: u64,
}

impl CorpusReport {
    /// Races detected across the corpus.
    #[must_use]
    pub fn detected_races(&self) -> usize {
        self.merged.races.len()
    }

    /// Planted races that no execution detected (dynamic coverage gaps).
    #[must_use]
    pub fn missing_races(&self) -> Vec<(StaticRaceId, TrueVerdict)> {
        self.truth.iter().filter(|(id, _)| !self.merged.races.contains_key(id)).collect()
    }

    /// Total dynamic race instances detected.
    #[must_use]
    pub fn total_instances(&self) -> usize {
        self.merged.races.values().map(|r| r.counts.detected).sum()
    }
}

/// Runs the full corpus (20 executions), classifies, merges, and joins with
/// ground truth.
///
/// # Panics
///
/// Panics if a freshly recorded log fails to replay (a pipeline bug).
#[must_use]
pub fn run_corpus() -> CorpusReport {
    run_corpus_with(&ClassifierConfig::default())
}

/// [`run_corpus`] with explicit classifier options — the hook for the
/// parallelism/batching ablations, which must hold the corpus fixed while
/// varying only the engine knobs.
///
/// # Panics
///
/// Panics if a freshly recorded log fails to replay (a pipeline bug).
#[must_use]
pub fn run_corpus_with(classifier: &ClassifierConfig) -> CorpusReport {
    run_corpus_with_predictions(classifier, None)
}

/// [`run_corpus_with`], threading an optional static-prediction map into
/// every execution's classifier — the E-SC3 trust ablation entry point.
///
/// # Panics
///
/// Panics if a freshly recorded log fails to replay (a pipeline bug).
#[must_use]
pub fn run_corpus_with_predictions(
    classifier: &ClassifierConfig,
    predictions: Option<Arc<BTreeMap<StaticRaceId, StaticPrediction>>>,
) -> CorpusReport {
    let executions = corpus_executions();
    let mut results = Vec::new();
    let mut outcomes = Vec::new();
    let mut total_instructions = 0;
    let mut program_for_truth = None;
    for exec in &executions {
        let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
        let program = corpus_program(&enabled);
        let config = PipelineConfig {
            run: exec.schedule,
            detector: DetectorConfig::default(),
            classifier: *classifier,
            static_predictions: predictions.clone(),
            measure_native: false,
        };
        let PipelineResult { detected, classification, log_size, instructions, .. } =
            run_pipeline(&program, &config).expect("corpus recording must replay");
        total_instructions += instructions;
        outcomes.push(ExecutionOutcome {
            name: exec.name,
            instructions,
            unique_races: detected.unique_races(),
            race_instances: detected.instance_count(),
            raw_log_bytes: log_size.raw_bytes,
            compressed_log_bytes: log_size.compressed_bytes,
        });
        results.push(classification);
        program_for_truth.get_or_insert(program);
    }
    let merged = merge_classifications(&results);
    let truth = TruthTable::resolve(
        program_for_truth.as_ref().expect("at least one execution"),
        &corpus_manifest(),
    );
    let unexpected =
        merged.races.keys().filter(|id| truth.verdict(**id).is_none()).copied().collect();
    CorpusReport { merged, truth, executions: outcomes, unexpected, total_instructions }
}

/// Table 1: outcome groups × (tool verdict, manual verdict).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Table1 {
    /// `[group][real]`: group 0=NoStateChange, 1=StateChange,
    /// 2=ReplayFailure; real 0=benign, 1=harmful.
    pub cells: [[usize; 2]; 3],
}

impl Table1 {
    /// Computes Table 1 from a corpus run.
    #[must_use]
    pub fn compute(report: &CorpusReport) -> Self {
        let mut cells = [[0usize; 2]; 3];
        for race in report.merged.races.values() {
            let Some(verdict) = report.truth.verdict(race.id) else { continue };
            let g = match race.group {
                OutcomeGroup::NoStateChange => 0,
                OutcomeGroup::StateChange => 1,
                OutcomeGroup::ReplayFailure => 2,
            };
            let r = usize::from(verdict.is_harmful());
            cells[g][r] += 1;
        }
        Table1 { cells }
    }

    /// Total races in the table.
    #[must_use]
    pub fn total(&self) -> usize {
        self.cells.iter().flatten().sum()
    }

    /// Races the tool classifies potentially benign (the No-State-Change
    /// row).
    #[must_use]
    pub fn potentially_benign(&self) -> usize {
        self.cells[0][0] + self.cells[0][1]
    }

    /// Races the tool classifies potentially harmful.
    #[must_use]
    pub fn potentially_harmful(&self) -> usize {
        self.total() - self.potentially_benign()
    }

    /// Harmful races misclassified as potentially benign — the paper
    /// reports **zero** and so must we for the corpus.
    #[must_use]
    pub fn missed_harmful(&self) -> usize {
        self.cells[0][1]
    }

    /// Really-benign races classified potentially harmful (triage waste).
    #[must_use]
    pub fn benign_flagged_harmful(&self) -> usize {
        self.cells[1][0] + self.cells[2][0]
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: Data Race Classification")?;
        writeln!(
            f,
            "{:<16} {:>18} {:>18} {:>7}",
            "", "Potentially Benign", "Potentially Harmful", "Total"
        )?;
        writeln!(
            f,
            "{:<16} {:>9} {:>8} {:>9} {:>8} {:>7}",
            "", "RealBen", "RealHarm", "RealBen", "RealHarm", ""
        )?;
        let rows = [("No State Change", 0), ("State Change", 1), ("Replay Failure", 2)];
        for (label, g) in rows {
            let (ben, harm) = (self.cells[g][0], self.cells[g][1]);
            if g == 0 {
                writeln!(
                    f,
                    "{label:<16} {ben:>9} {harm:>8} {:>9} {:>8} {:>7}",
                    "-",
                    "-",
                    ben + harm
                )?;
            } else {
                writeln!(
                    f,
                    "{label:<16} {:>9} {:>8} {ben:>9} {harm:>8} {:>7}",
                    "-",
                    "-",
                    ben + harm
                )?;
            }
        }
        let pb = self.potentially_benign();
        let ph = self.potentially_harmful();
        let benign_ph = self.benign_flagged_harmful();
        let harm_ph = ph - benign_ph;
        writeln!(
            f,
            "{:<16} {:>9} {:>8} {:>9} {:>8} {:>7}",
            "Total",
            self.cells[0][0],
            self.cells[0][1],
            benign_ph,
            harm_ph,
            self.total()
        )?;
        writeln!(f, "(tool: {pb} potentially benign, {ph} potentially harmful)")
    }
}

/// Table 2: real-benign races by category.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table2 {
    pub counts: std::collections::BTreeMap<BenignCategory, usize>,
}

impl Table2 {
    /// Computes Table 2 over the detected, really-benign races.
    #[must_use]
    pub fn compute(report: &CorpusReport) -> Self {
        let mut counts = std::collections::BTreeMap::new();
        for race in report.merged.races.values() {
            if let Some(TrueVerdict::Benign(cat)) = report.truth.verdict(race.id) {
                *counts.entry(cat).or_insert(0) += 1;
            }
        }
        Table2 { counts }
    }

    /// Total benign races.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2: Benign Data Races")?;
        for cat in BenignCategory::ALL {
            writeln!(f, "{:<36} {:>4}", cat.label(), self.counts.get(&cat).copied().unwrap_or(0))?;
        }
        writeln!(f, "{:<36} {:>4}", "Total", self.total())
    }
}

/// One bar of Figures 3–5: a race with its instance statistics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FigureBar {
    pub race: StaticRaceId,
    /// Instances analyzed across all executions.
    pub instances: usize,
    /// Instances that exposed the race (state change or replay failure).
    pub exposing: usize,
}

/// A figure: per-race instance statistics for one subset of races.
#[derive(Clone, Debug)]
pub struct Figure {
    pub title: &'static str,
    pub bars: Vec<FigureBar>,
}

impl Figure {
    /// Figure 3: races classified potentially benign (all instances are
    /// No-State-Change).
    #[must_use]
    pub fn figure3(report: &CorpusReport) -> Self {
        Self::collect(report, "Figure 3: instances of potentially-benign races", |v, verdict| {
            v == Verdict::PotentiallyBenign && !verdict.is_harmful()
        })
    }

    /// Figure 4: potentially harmful and really harmful.
    #[must_use]
    pub fn figure4(report: &CorpusReport) -> Self {
        Self::collect(report, "Figure 4: instances of real-harmful races", |v, verdict| {
            v == Verdict::PotentiallyHarmful && verdict.is_harmful()
        })
    }

    /// Figure 5: potentially harmful but really benign (the
    /// misclassifications).
    #[must_use]
    pub fn figure5(report: &CorpusReport) -> Self {
        Self::collect(report, "Figure 5: instances of misclassified benign races", |v, verdict| {
            v == Verdict::PotentiallyHarmful && !verdict.is_harmful()
        })
    }

    fn collect(
        report: &CorpusReport,
        title: &'static str,
        keep: impl Fn(Verdict, TrueVerdict) -> bool,
    ) -> Self {
        let mut bars: Vec<FigureBar> = report
            .merged
            .races
            .values()
            .filter_map(|race| {
                let verdict = report.truth.verdict(race.id)?;
                keep(race.verdict, verdict).then_some(FigureBar {
                    race: race.id,
                    instances: race.counts.analyzed,
                    exposing: race.counts.exposing(),
                })
            })
            .collect();
        bars.sort_by(|a, b| b.instances.cmp(&a.instances).then(a.race.cmp(&b.race)));
        Figure { title, bars }
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        for bar in &self.bars {
            writeln!(
                f,
                "  {:<16} instances={:<6} exposing={:<6} {}",
                bar.race.to_string(),
                bar.instances,
                bar.exposing,
                "#".repeat(bar.instances.min(60))
            )?;
        }
        if self.bars.is_empty() {
            writeln!(f, "  (none)")?;
        }
        Ok(())
    }
}

/// Flagged/total counters over the planted races, for one triage policy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PrecisionRecall {
    /// Really-harmful planted races the policy flags.
    pub flagged_harmful: usize,
    /// Really-benign planted races the policy flags (triage waste).
    pub flagged_benign: usize,
    /// Really-harmful planted races in total.
    pub harmful_total: usize,
    /// Really-benign planted races in total.
    pub benign_total: usize,
}

impl PrecisionRecall {
    /// Planted races the policy flags.
    #[must_use]
    pub fn flagged(&self) -> usize {
        self.flagged_harmful + self.flagged_benign
    }

    /// Fraction of flagged races that are really harmful (1.0 when
    /// nothing is flagged).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn precision(&self) -> f64 {
        if self.flagged() == 0 {
            1.0
        } else {
            self.flagged_harmful as f64 / self.flagged() as f64
        }
    }

    /// Fraction of really-harmful races the policy flags (1.0 when there
    /// are none to find).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn recall(&self) -> f64 {
        if self.harmful_total == 0 {
            1.0
        } else {
            self.flagged_harmful as f64 / self.harmful_total as f64
        }
    }
}

/// E-SC2: the static analyzer's warnings joined with ground truth, alone
/// and after replay classification.
#[derive(Clone, Debug)]
pub struct StaticEval {
    /// Counters from the full-program (every instance enabled) analysis.
    pub stats: racecheck::AnalysisStats,
    /// Distinct static candidate pairs across the per-execution analyses.
    pub candidates: usize,
    /// Distinct pairs the order pass pruned in some execution.
    pub order_pruned: usize,
    /// Candidate pairs summed over the 20 per-execution analyses — the
    /// work the detector pre-filter actually monitors.
    pub aggregate_pairs: usize,
    /// The same sum with the statically-ordered rule disabled (the PR 2
    /// baseline the order pass is measured against).
    pub aggregate_pairs_no_order: usize,
    /// Monitored pcs summed over the per-execution analyses.
    pub aggregate_monitored: usize,
    /// Monitored pcs without the statically-ordered rule.
    pub aggregate_monitored_no_order: usize,
    /// Candidate pairs that are planted races (covered by ground truth).
    pub covered: usize,
    /// Candidate pairs with no ground-truth entry (conservative
    /// over-approximation outside the planted set).
    pub outside_truth: usize,
    /// Outside-truth pairs still flagged after replay classification.
    pub outside_truth_flagged: usize,
    /// Planted races in total.
    pub truth_races: usize,
    /// Flagging everything the static analysis reports.
    pub static_alone: PrecisionRecall,
    /// Static warnings filtered through the replay classifier: a warning
    /// survives if some execution's classifier flags it, or if no
    /// execution ever materializes it (nothing refuted the claim).
    pub combined: PrecisionRecall,
    /// Covered warnings no execution materialized (they stay flagged).
    pub covered_unmaterialized: usize,
    /// Covered warnings the classifier filtered (no state change in every
    /// materializing execution).
    pub covered_filtered: usize,
    /// E-SC3: idiom-pass predictions vs replay verdicts over materialized
    /// warnings (any confidence).
    pub confusion: StaticConfusion,
    /// E-SC3: the same matrix restricted to high-confidence benign
    /// predictions plus all predicted-harmful warnings — the population
    /// [`TrustStatic::SkipAgreedBenign`] acts on. Its `static_optimistic`
    /// cell must stay zero for the mode to graduate from ablation status.
    pub confusion_high: StaticConfusion,
    /// Warnings the idiom pass predicts benign (at any confidence).
    pub predicted_benign: usize,
    /// Warnings predicted benign at high confidence.
    pub predicted_benign_high: usize,
    /// Detected replay-benign races whose warning matched *no* idiom —
    /// recall gaps of the recognizers (E-SC3 reports these).
    pub replay_benign_unpredicted: usize,
    /// E-SC4: warnings the value-impact pass proves can never reach
    /// observable state.
    pub impact_unreachable_warnings: usize,
    /// E-SC4: impact-unreachable warnings some execution materialized —
    /// each one is a direct replay check of the unreachability proof.
    pub impact_unreachable_materialized: usize,
    /// E-SC4 soundness: materialized impact-unreachable warnings the
    /// replay classifier *flagged* (anything but No-State-Change). A
    /// non-zero count means the taint pass's proof is wrong — the
    /// `skip-unreachable` trust tier must never graduate while this is
    /// non-zero.
    pub impact_unreachable_flagged: usize,
}

/// Runs the static analyzer over each execution's program (the corpus
/// instruction stream is identical across enable sets; only the gate
/// globals differ, and the analysis folds them, so disabled instances'
/// code is provably dead per execution), feeds each execution's candidate
/// pairs through the replay classifier, and joins the union of the
/// per-execution candidate sets with ground truth.
///
/// # Panics
///
/// Panics if a freshly recorded log fails to replay (a pipeline bug).
#[must_use]
pub fn run_static_eval() -> StaticEval {
    let executions = corpus_executions();
    let full: BTreeSet<&str> = executions.iter().flat_map(|e| e.enabled.iter().copied()).collect();
    let analysis = racecheck::analyze(&corpus_program(&full));
    let truth = TruthTable::resolve(&corpus_program(&full), &corpus_manifest());

    // Evidence accumulated across executions, keyed by static id.
    let mut materialized: BTreeSet<StaticRaceId> = BTreeSet::new();
    let mut flagged: BTreeSet<StaticRaceId> = BTreeSet::new();
    let mut union: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut order_pruned: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut aggregate_pairs = 0;
    let mut aggregate_pairs_no_order = 0;
    let mut aggregate_monitored = 0;
    let mut aggregate_monitored_no_order = 0;
    for exec in &executions {
        let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
        let program = corpus_program(&enabled);
        let exec_analysis = racecheck::analyze(&program);
        let no_order = racecheck::analyze_without_order(&program);
        union.extend(exec_analysis.candidates.iter());
        aggregate_pairs += exec_analysis.stats.candidate_pairs;
        aggregate_pairs_no_order += no_order.stats.candidate_pairs;
        aggregate_monitored += exec_analysis.stats.monitored_pcs;
        aggregate_monitored_no_order += no_order.stats.monitored_pcs;
        order_pruned.extend(
            exec_analysis
                .pruned()
                .into_iter()
                .filter(|&(_, r)| r == racecheck::PruneReason::StaticallyOrdered)
                .map(|(k, _)| k),
        );
        let rec = record(&program, &exec.schedule);
        let trace = replay(&program, &rec.log).expect("corpus recording must replay");
        let summary =
            classify_static_warnings(&trace, &exec_analysis.candidates, VprocConfig::default());
        for result in &summary.results {
            materialized.insert(result.id);
            if result.outcome != InstanceOutcome::NoStateChange {
                flagged.insert(result.id);
            }
        }
    }
    let survives = |id: &StaticRaceId| flagged.contains(id) || !materialized.contains(id);

    // E-SC3: fold every materialized warning into the predicted-vs-replayed
    // confusion matrices. A warning missing from the prediction map (never
    // the case for candidate pairs, but stay total) counts as predicted
    // harmful.
    let predictions = predictions_by_id(&analysis);
    let mut confusion = StaticConfusion::default();
    let mut confusion_high = StaticConfusion::default();
    for id in &materialized {
        let p = predictions.get(id).map_or(racecheck::PredictedVerdict::UNKNOWN, |p| p.predicted);
        let replay_benign = !flagged.contains(id);
        confusion.record(p.benign(), replay_benign);
        if !p.benign() || p.high_confidence_benign() {
            confusion_high.record(p.benign(), replay_benign);
        }
    }
    let predicted_benign = predictions.values().filter(|p| p.predicted.benign()).count();
    let predicted_benign_high =
        predictions.values().filter(|p| p.predicted.high_confidence_benign()).count();
    let replay_benign_unpredicted = materialized
        .iter()
        .filter(|id| {
            !flagged.contains(id) && !predictions.get(id).is_some_and(|p| p.predicted.benign())
        })
        .count();

    // E-SC4: cross-validate the value-impact pass against the replay
    // verdicts. An impact-unreachable warning that any execution flags is
    // a refuted proof — a soundness bug in the taint pass.
    let unreachable = |id: &StaticRaceId| {
        predictions.get(id).is_some_and(|p| p.reach == racecheck::Reach::Unreachable)
    };
    let impact_unreachable_warnings =
        predictions.values().filter(|p| p.reach == racecheck::Reach::Unreachable).count();
    let impact_unreachable_materialized = materialized.iter().filter(|id| unreachable(id)).count();
    let impact_unreachable_flagged =
        materialized.iter().filter(|id| unreachable(id) && flagged.contains(id)).count();

    let mut static_alone = PrecisionRecall::default();
    let mut combined = PrecisionRecall::default();
    let mut covered = 0;
    let mut covered_unmaterialized = 0;
    let mut covered_filtered = 0;
    for (id, verdict) in truth.iter() {
        let harmful = verdict.is_harmful();
        if harmful {
            static_alone.harmful_total += 1;
            combined.harmful_total += 1;
        } else {
            static_alone.benign_total += 1;
            combined.benign_total += 1;
        }
        if !union.contains(&(id.pc_lo, id.pc_hi)) {
            continue;
        }
        covered += 1;
        if harmful {
            static_alone.flagged_harmful += 1;
        } else {
            static_alone.flagged_benign += 1;
        }
        if !materialized.contains(&id) {
            covered_unmaterialized += 1;
        } else if !flagged.contains(&id) {
            covered_filtered += 1;
        }
        if survives(&id) {
            if harmful {
                combined.flagged_harmful += 1;
            } else {
                combined.flagged_benign += 1;
            }
        }
    }

    let mut outside_truth = 0;
    let mut outside_truth_flagged = 0;
    for &(pc_a, pc_b) in &union {
        let id = StaticRaceId::new(pc_a, pc_b);
        if truth.verdict(id).is_some() {
            continue;
        }
        outside_truth += 1;
        if survives(&id) {
            outside_truth_flagged += 1;
        }
    }

    StaticEval {
        candidates: union.len(),
        order_pruned: order_pruned.len(),
        aggregate_pairs,
        aggregate_pairs_no_order,
        aggregate_monitored,
        aggregate_monitored_no_order,
        stats: analysis.stats,
        covered,
        outside_truth,
        outside_truth_flagged,
        truth_races: truth.len(),
        static_alone,
        combined,
        covered_unmaterialized,
        covered_filtered,
        confusion,
        confusion_high,
        predicted_benign,
        predicted_benign_high,
        replay_benign_unpredicted,
        impact_unreachable_warnings,
        impact_unreachable_materialized,
        impact_unreachable_flagged,
    }
}

/// E-SC3/E-SC4 trust ablation: the corpus classified with every replay
/// run versus each trust tier — [`TrustStatic::SkipAgreedBenign`] (skip
/// races the idiom pass predicts benign at high confidence),
/// [`TrustStatic::SkipUnreachable`] (skip races the value-impact pass
/// proves can't reach observable state), and both combined.
#[derive(Debug)]
pub struct TrustAblation {
    /// Corpus run with trust off (replay everything).
    pub baseline: CorpusReport,
    /// Corpus run trusting high-confidence benign predictions.
    pub trusted: CorpusReport,
    /// Corpus run trusting impact-unreachability proofs.
    pub unreachable: CorpusReport,
    /// Corpus run trusting both (the deepest skip tier).
    pub combined: CorpusReport,
    /// Race ids whose merged verdict differs between the baseline and
    /// *any* trusted run. Must be empty for the modes to graduate from
    /// ablation status.
    pub verdict_flips: Vec<StaticRaceId>,
}

impl TrustAblation {
    /// Virtual-processor replays saved by trusting the idiom pass.
    #[must_use]
    pub fn replays_saved(&self) -> u64 {
        self.baseline.merged.vproc_replays.saturating_sub(self.trusted.merged.vproc_replays)
    }

    /// Virtual-processor replays saved by trusting the impact pass alone.
    #[must_use]
    pub fn replays_saved_unreachable(&self) -> u64 {
        self.baseline.merged.vproc_replays.saturating_sub(self.unreachable.merged.vproc_replays)
    }

    /// Virtual-processor replays saved by trusting both passes.
    #[must_use]
    pub fn replays_saved_combined(&self) -> u64 {
        self.baseline.merged.vproc_replays.saturating_sub(self.combined.merged.vproc_replays)
    }

    /// Race skips across all executions under skip-benign (one race can
    /// be skipped in several executions).
    #[must_use]
    pub fn skipped_races(&self) -> u64 {
        self.trusted.merged.static_skipped_races
    }
}

/// Runs the trust ablation: one corpus pass with the default classifier,
/// then one per trust tier ([`TrustStatic::SkipAgreedBenign`],
/// [`TrustStatic::SkipUnreachable`], [`TrustStatic::SkipBoth`]), all fed
/// by a single static analysis of the corpus program.
///
/// # Panics
///
/// Panics if a freshly recorded log fails to replay (a pipeline bug).
#[must_use]
pub fn run_trust_ablation() -> TrustAblation {
    let executions = corpus_executions();
    let full: BTreeSet<&str> = executions.iter().flat_map(|e| e.enabled.iter().copied()).collect();
    let predictions = Arc::new(predictions_by_id(&racecheck::analyze(&corpus_program(&full))));
    let baseline = run_corpus_with(&ClassifierConfig::default());
    let run_tier = |trust: TrustStatic| {
        let config = ClassifierConfig { trust_static: trust, ..ClassifierConfig::default() };
        run_corpus_with_predictions(&config, Some(Arc::clone(&predictions)))
    };
    let trusted = run_tier(TrustStatic::SkipAgreedBenign);
    let unreachable = run_tier(TrustStatic::SkipUnreachable);
    let combined = run_tier(TrustStatic::SkipBoth);
    let mut verdict_flips: BTreeSet<StaticRaceId> = BTreeSet::new();
    for report in [&trusted, &unreachable, &combined] {
        verdict_flips.extend(baseline.merged.races.iter().filter_map(|(id, race)| {
            report.merged.races.get(id).is_none_or(|t| t.verdict != race.verdict).then_some(*id)
        }));
    }
    let verdict_flips = verdict_flips.into_iter().collect();
    TrustAblation { baseline, trusted, unreachable, combined, verdict_flips }
}

impl fmt::Display for TrustAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E-SC3/E-SC4 ablation: trust-static tiers vs off")?;
        for (label, report) in [
            ("off", &self.baseline),
            ("skip-benign", &self.trusted),
            ("skip-unreachable", &self.unreachable),
            ("combined", &self.combined),
        ] {
            writeln!(
                f,
                "  {:<18} races={:<3} vproc replays={:<5} statically skipped={}",
                label,
                report.merged.races.len(),
                report.merged.vproc_replays,
                report.merged.static_skipped_races
            )?;
        }
        writeln!(
            f,
            "  replays saved: skip-benign {} | skip-unreachable {} | combined {}",
            self.replays_saved(),
            self.replays_saved_unreachable(),
            self.replays_saved_combined()
        )?;
        if self.verdict_flips.is_empty() {
            writeln!(f, "  verdict flips: none")
        } else {
            writeln!(f, "  verdict flips: {:?}", self.verdict_flips)
        }
    }
}

impl fmt::Display for StaticEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E-SC2: static warnings vs static + replay classification")?;
        writeln!(
            f,
            "  static candidates: {} ({} on planted races, {} elsewhere)",
            self.candidates, self.covered, self.outside_truth
        )?;
        writeln!(
            f,
            "  order pruning (per-execution totals): pairs {} -> {}, \
             monitored pcs {} -> {} ({} distinct pairs proven ordered)",
            self.aggregate_pairs_no_order,
            self.aggregate_pairs,
            self.aggregate_monitored_no_order,
            self.aggregate_monitored,
            self.order_pruned
        )?;
        writeln!(
            f,
            "  planted races: {} ({} harmful, {} benign)",
            self.truth_races, self.static_alone.harmful_total, self.static_alone.benign_total
        )?;
        writeln!(
            f,
            "  {:<22} {:>8} {:>8} {:>8} {:>10} {:>7}",
            "", "flagged", "harmful", "benign", "precision", "recall"
        )?;
        for (label, pr) in
            [("static alone", self.static_alone), ("static + classifier", self.combined)]
        {
            writeln!(
                f,
                "  {:<22} {:>8} {:>8} {:>8} {:>10.2} {:>7.2}",
                label,
                pr.flagged(),
                pr.flagged_harmful,
                pr.flagged_benign,
                pr.precision(),
                pr.recall()
            )?;
        }
        writeln!(
            f,
            "  (classifier filtered {} of the covered warnings; {} never materialized \
             and stay flagged; {} of {} elsewhere-warnings still flagged)",
            self.covered_filtered,
            self.covered_unmaterialized,
            self.outside_truth_flagged,
            self.outside_truth
        )?;
        writeln!(f, "E-SC3: idiom predictions vs replay verdicts (materialized warnings)")?;
        writeln!(
            f,
            "  predicted benign: {} warnings ({} at high confidence)",
            self.predicted_benign, self.predicted_benign_high
        )?;
        for (label, c) in
            [("all predictions", self.confusion), ("trusted population", self.confusion_high)]
        {
            writeln!(
                f,
                "  {:<22} agree-benign={:<4} agree-harmful={:<4} optimistic={:<4} \
                 pessimistic={:<4} agreement={:.2}",
                label,
                c.agree_benign,
                c.agree_harmful,
                c.static_optimistic,
                c.static_pessimistic,
                c.agreement()
            )?;
        }
        writeln!(
            f,
            "  ({} replay-benign races matched no idiom — recognizer recall gaps)",
            self.replay_benign_unpredicted
        )?;
        writeln!(f, "E-SC4: value-impact proofs vs replay verdicts")?;
        writeln!(
            f,
            "  impact-unreachable warnings: {} ({} materialized, {} refuted by replay)",
            self.impact_unreachable_warnings,
            self.impact_unreachable_materialized,
            self.impact_unreachable_flagged
        )
    }
}
