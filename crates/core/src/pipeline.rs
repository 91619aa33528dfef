//! The end-to-end pipeline: native run → record → replay → detect →
//! classify → report, with phase timings for the paper's §5.1 overhead
//! study.
//!
//! [`analyze_log`] is the half that starts from a recorded log: the one
//! path to a report, which `racerep races`, `racerep classify` (through
//! [`run_pipeline`]) and the classification service all take.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use idna_replay::codec::{strip_damaged, with_log_writer, DecodeReport, LogSizeReport};
use idna_replay::damage::{ThreadDamage, TraceDamage};
use idna_replay::event::ReplayLog;
use idna_replay::recorder::record_with;
use idna_replay::replayer::{replay_with, ReplayError, ReplayTrace};
use racecheck::domain::AbsLoc;
use tvm::isa::{Instr, SysCall};
use tvm::machine::Machine;
use tvm::predecode::DecodedProgram;
use tvm::program::Program;
use tvm::scheduler::{run_native, RunConfig};

use crate::classify::{
    classify_races_with, predictions_by_id, ClassificationResult, ClassifierConfig,
    StaticPrediction, TrustStatic,
};
use crate::detect::{detect_races, DetectedRaces, DetectorConfig, StaticRaceId};
use crate::report::Report;
use idna_replay::vproc::BatchStats;

/// Pipeline options.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Scheduler policy and step budget for the recorded run.
    pub run: RunConfig,
    pub detector: DetectorConfig,
    pub classifier: ClassifierConfig,
    /// Static predictions (idiom verdict + impact reach) keyed by race id,
    /// consulted only under the [`crate::classify::TrustStatic`] skip
    /// tiers, and used as given. `None` (the default) derives them from
    /// the program's static analysis when a skip tier is set.
    pub static_predictions: Option<Arc<BTreeMap<StaticRaceId, StaticPrediction>>>,
    /// Whether to run the program once *without* recording to obtain the
    /// native-execution baseline for the overhead ratios.
    pub measure_native: bool,
}

impl PipelineConfig {
    /// A pipeline configuration with the given scheduler.
    #[must_use]
    pub fn new(run: RunConfig) -> Self {
        PipelineConfig {
            run,
            detector: DetectorConfig::default(),
            classifier: ClassifierConfig::default(),
            static_predictions: None,
            measure_native: true,
        }
    }
}

/// Wall-clock duration of each pipeline phase.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTimings {
    /// Native execution, no instrumentation.
    pub native: Duration,
    /// Execution with the recorder attached.
    pub record: Duration,
    /// Replay of the log into a trace.
    pub replay: Duration,
    /// Happens-before race detection over the trace.
    pub detect: Duration,
    /// Dual-order classification of every race instance.
    pub classify: Duration,
    /// Building the developer report ([`Report::build`]).
    pub report: Duration,
    /// Shared-prefix batch-engine counters for the classify phase.
    pub batching: BatchStats,
}

impl PhaseTimings {
    /// Slowdown of a phase relative to native execution (paper §5.1 reports
    /// record ≈6×, replay ≈10×, detection ≈45×, classification ≈280×).
    #[must_use]
    pub fn overhead(&self, phase: Duration) -> f64 {
        let native = self.native.as_secs_f64();
        if native <= 0.0 {
            return f64::NAN;
        }
        phase.as_secs_f64() / native
    }
}

/// Everything the pipeline produces for one recorded execution.
#[derive(Debug)]
pub struct PipelineResult {
    /// The replayed trace (kept for report drill-down and time travel).
    pub trace: ReplayTrace,
    /// Detected races.
    pub detected: DetectedRaces,
    /// Classification of every race.
    pub classification: ClassificationResult,
    /// The developer-facing report.
    pub report: Report,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Log-size metrics.
    pub log_size: LogSizeReport,
    /// Whether the recorded run finished within its step budget.
    pub run_completed: bool,
    /// Total instructions in the recorded run.
    pub instructions: u64,
}

/// Runs the complete pipeline on one program.
///
/// # Errors
///
/// Returns [`ReplayError`] when the freshly recorded log fails to replay —
/// which indicates a bug in the recorder/replayer pair, not in the analyzed
/// program.
///
/// # Examples
///
/// ```
/// use replay_race::pipeline::{run_pipeline, PipelineConfig};
/// use tvm::{ProgramBuilder, RunConfig};
/// use tvm::isa::Reg;
///
/// let mut b = ProgramBuilder::new();
/// b.thread("w");
/// b.movi(Reg::R1, 5).store(Reg::R1, Reg::R15, 0x30).halt();
/// b.thread("r");
/// b.load(Reg::R2, Reg::R15, 0x30).halt();
/// let result = run_pipeline(&b.build().into(), &PipelineConfig::new(RunConfig::round_robin(1)))?;
/// assert_eq!(result.detected.unique_races(), 1);
/// # Ok::<(), idna_replay::replayer::ReplayError>(())
/// ```
pub fn run_pipeline(
    program: &Arc<Program>,
    config: &PipelineConfig,
) -> Result<PipelineResult, ReplayError> {
    // Predecode once; native execution, recording, replay, and the
    // classification virtual processor all share this flat instruction
    // stream (decode time is deliberately outside the phase timers — it is
    // a one-time cost per program, not per stage).
    let decoded = Arc::new(DecodedProgram::new(program.clone()));

    let mut native = Duration::ZERO;
    if config.measure_native {
        let start = Instant::now();
        let mut machine = Machine::with_decoded(decoded.clone());
        run_native(&mut machine, &config.run);
        native = start.elapsed();
    }

    let start = Instant::now();
    let recording = record_with(&decoded, &config.run);
    let record = start.elapsed();

    let log_size = with_log_writer(|writer| writer.measure(&recording.log));

    // A fresh recording is undamaged: its decode report is the clean one.
    let LogAnalysis { trace, detected, classification, report, timings } = analyze_log(
        &decoded,
        &recording.log,
        &DecodeReport::default(),
        &config.detector,
        &config.classifier,
        config.static_predictions.as_deref(),
    )?;

    Ok(PipelineResult {
        trace,
        detected,
        classification,
        report,
        timings: PhaseTimings { native, record, ..timings },
        log_size,
        run_completed: recording.summary.completed,
        instructions: recording.summary.steps,
    })
}

/// Everything [`analyze_log`] produces for one recorded log.
#[derive(Debug)]
pub struct LogAnalysis {
    /// The replayed trace, carrying the damage profile of a damaged log.
    pub trace: ReplayTrace,
    /// Detected races.
    pub detected: DetectedRaces,
    /// Classification of every race.
    pub classification: ClassificationResult,
    /// The developer-facing report.
    pub report: Report,
    /// Replay, detect, classify and report times, and the batching
    /// counters; `native` and `record` stay zero.
    pub timings: PhaseTimings,
}

/// Analyzes one recorded log of `decoded`'s program: replay → [damage
/// profile] → detect → [static predictions] → classify → report.
///
/// `decode` is the decoder's report for `log`; only a tolerant decode
/// shows damage. A damaged log is profiled against the static analysis,
/// so races whose evidence was lost come back as replay failures, and a
/// replay its salvaged bytes derail is retried with the damaged threads
/// stripped to placeholders. Under a trust tier, `static_predictions` is
/// used as given, and `None` derives them from the static analysis. That
/// analysis runs at most once, only when needed, and in no timed phase.
///
/// # Errors
///
/// Returns [`ReplayError`] when the log (or, if damaged, its stripped
/// form) does not replay against the program.
pub fn analyze_log(
    decoded: &Arc<DecodedProgram>,
    log: &ReplayLog,
    decode: &DecodeReport,
    detector: &DetectorConfig,
    classifier: &ClassifierConfig,
    static_predictions: Option<&BTreeMap<StaticRaceId, StaticPrediction>>,
) -> Result<LogAnalysis, ReplayError> {
    let program = decoded.program();
    let damaged = !decode.is_clean();
    let mut timings = PhaseTimings::default();

    let start = Instant::now();
    let mut trace = match replay_with(decoded, log) {
        Ok(trace) => trace,
        // Checksums detect damage but do not localize it, so a salvaged
        // prefix can hold corrupted values. Placeholder-only damaged
        // threads always replay: each thread replays from its own log.
        Err(_) if damaged => replay_with(decoded, &strip_damaged(log, decode))?,
        Err(e) => return Err(e),
    };
    timings.replay = start.elapsed();

    let static_analysis = OnceCell::new();
    let analysis = || static_analysis.get_or_init(|| racecheck::analyze(program));
    if damaged {
        trace.set_damage(damage_profile(program, analysis(), decode));
    }

    let start = Instant::now();
    let detected = detect_races(&trace, detector);
    timings.detect = start.elapsed();

    let derived = (static_predictions.is_none() && classifier.trust_static != TrustStatic::Off)
        .then(|| predictions_by_id(analysis()));
    let predictions = static_predictions.or(derived.as_ref());
    let start = Instant::now();
    let classification = classify_races_with(&trace, &detected, classifier, predictions);
    timings.classify = start.elapsed();
    timings.batching = classification.batch_stats;

    let start = Instant::now();
    let report = Report::build(&trace, &classification);
    timings.report = start.elapsed();

    Ok(LogAnalysis { trace, detected, classification, report, timings })
}

/// Refines a tolerant decode's damage report into a per-thread damage
/// horizon using `analysis`, the static analysis of `program`: a damaged
/// thread only taints the global addresses it may write (and the heap only
/// if it can reach heap traffic), so races between intact threads on
/// unrelated state keep their clean verdicts. Falls back to "may write
/// anything" for a damaged thread the analysis cannot bound.
fn damage_profile(
    program: &Program,
    analysis: &racecheck::Analysis,
    report: &DecodeReport,
) -> TraceDamage {
    if report.is_clean() {
        return TraceDamage::default();
    }
    // Lost alloc/free syscalls corrupt the replayed heap history for every
    // thread, so heap trust requires the *program* to be heap-free — the
    // per-thread summaries do not cover syscall reachability.
    let program_uses_heap = program.instrs().iter().any(|i| {
        matches!(
            i,
            Instr::Syscall { call: SysCall::Alloc } | Instr::Syscall { call: SysCall::Free }
        )
    });
    let threads = report
        .frames
        .iter()
        .filter(|f| !f.status.is_intact())
        .map(|f| {
            let Some(summary) = analysis.threads.get(f.tid) else {
                // A frame slot the program has no thread for: the log and
                // program disagree, trust nothing.
                return ThreadDamage {
                    tid: f.tid,
                    trusted_ts: f.trusted_ts,
                    may_write: None,
                    may_heap: true,
                };
            };
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            let mut may_heap = program_uses_heap;
            let mut unbounded = false;
            for access in summary.accesses.iter().filter(|a| a.writes) {
                match access.loc {
                    AbsLoc::Global { lo, hi } => ranges.push((lo, hi)),
                    AbsLoc::Above { lo } => {
                        ranges.push((lo, u64::MAX));
                        may_heap = true;
                    }
                    AbsLoc::Heap { .. } => may_heap = true,
                    AbsLoc::Unknown => {
                        unbounded = true;
                        may_heap = true;
                    }
                }
            }
            ranges.sort_unstable();
            ranges.dedup();
            ThreadDamage {
                tid: f.tid,
                trusted_ts: f.trusted_ts,
                may_write: if unbounded { None } else { Some(ranges) },
                may_heap,
            }
        })
        .collect();
    TraceDamage::new(threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Verdict;
    use tvm::isa::Reg;
    use tvm::ProgramBuilder;

    #[test]
    fn pipeline_end_to_end() {
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 0x20).halt();
        b.thread("b");
        b.movi(Reg::R1, 2).store(Reg::R1, Reg::R15, 0x20).halt();
        let result =
            run_pipeline(&b.build().into(), &PipelineConfig::new(RunConfig::round_robin(1)))
                .unwrap();
        assert!(result.run_completed);
        assert_eq!(result.detected.unique_races(), 1);
        assert_eq!(result.classification.with_verdict(Verdict::PotentiallyHarmful).count(), 1);
        assert_eq!(result.report.races.len(), 1);
        assert!(result.log_size.raw_bytes > 0);
        assert!(result.instructions > 0);
    }

    #[test]
    fn pipeline_without_native_baseline() {
        let mut b = ProgramBuilder::new();
        b.thread("only");
        b.movi(Reg::R0, 1).halt();
        let mut cfg = PipelineConfig::new(RunConfig::round_robin(1));
        cfg.measure_native = false;
        let result = run_pipeline(&b.build().into(), &cfg).unwrap();
        assert_eq!(result.timings.native, Duration::default());
        assert!(result.timings.overhead(result.timings.record).is_nan());
    }
}
