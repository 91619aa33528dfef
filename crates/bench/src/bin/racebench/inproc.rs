//! The in-process workloads: the `classify`/`races` path on the
//! paper-scale browser, and the `races --trust-static` path over the
//! pinned corpus.

use std::collections::BTreeSet;
use std::sync::Arc;

use idna_replay::codec::{with_log_writer, DecodeMode};
use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use replay_race::classify::{
    classify_races_with, merge_classifications, predictions_by_id, BatchMode, ClassifierConfig,
    TrustStatic, Verdict,
};
use replay_race::detect::{detect_races, DetectorConfig};
use replay_race::pipeline::{run_pipeline, PipelineConfig, PipelineResult};
use replay_race::report::Report;
use serviced::container::{log_from_bytes_mode, log_to_bytes_with};
use tvm::machine::Machine;
use tvm::predecode::DecodedProgram;
use tvm::scheduler::{run_native, RunConfig};
use tvm::Program;
use workloads::browser::{browser_program, BrowserConfig};
use workloads::corpus::{corpus_executions, corpus_manifest, corpus_program};
use workloads::truth::TruthTable;

use crate::harness::{Scale, Workload};
use crate::trace::OpTrace;

/// The seed whose browser recording the pinned counts below describe.
pub const DEFAULT_SEED: u64 = 7;

/// Paper-scale browser under `chunked(7, 1, 8)`: unique races, dynamic
/// instances, and races per outcome group (no state change, state change,
/// replay failure).
pub const PINNED_BROWSER: (usize, usize, (usize, usize, usize)) = (583, 8_068, (56, 527, 0));

/// Races the 20 corpus executions detect between them.
pub const PINNED_CORPUS_RACES: usize = 82;

/// Browser schedules per run. Ops cycle through them: a run's peak heap is
/// then the largest of eight recordings', and its latency does not hinge on
/// how many races one schedule happens to expose. With one schedule per
/// run, the peak heap of ten seeds split 24.9 / 27.9 MiB by recording.
const BROWSER_SCHEDULES: u64 = 8;

/// Classifier threads in a timed op. One, so that an op runs on one core
/// like the calibration walk its time is scaled by (see `speed.rs`): with a
/// second thread the op's time also hangs on what other tenants run on the
/// second core, which one walk does not see.
const CLASSIFIER_JOBS: usize = 1;

/// The step budget every recorded run gets.
const MAX_STEPS: u64 = 50_000_000;

/// The `k`-th schedule derived from `seed`; the first is `chunked(seed, 1, 8)`.
#[must_use]
pub fn schedule(seed: u64, k: u64) -> RunConfig {
    let derived = if k == 0 { seed } else { tvm::rng::SplitMix64::new(seed ^ k).next_u64() };
    RunConfig::chunked(derived, 1, 8).with_max_steps(MAX_STEPS)
}

/// One recording run down the one-shot analysis path, a span per layer:
/// record → encode → decode → replay → detect → [static analysis] →
/// classify → report JSON. Static analysis runs only under a trust-static
/// tier, as `racerep races --trust-static` runs it.
///
/// # Errors
///
/// A log that fails to decode or replay.
pub fn races_path(
    t: &mut OpTrace<'_>,
    program: &Arc<Program>,
    run: &RunConfig,
    classifier: &ClassifierConfig,
) -> Result<String, String> {
    let recording = t.time("idna.recorder.record", || record(program, run));
    t.note(0, &[("idna.recorder.instructions", recording.summary.steps)]);
    let container = t.time("idna.codec.encode", || {
        with_log_writer(|writer| log_to_bytes_with(&recording.log, run, writer))
    });
    t.note(container.len(), &[("idna.codec.container_bytes", container.len() as u64)]);
    let (log, _, _) =
        t.time("idna.codec.decode", || log_from_bytes_mode(&container, DecodeMode::Strict))?;
    let trace =
        t.time("idna.replayer.replay", || replay(program, &log)).map_err(|e| e.to_string())?;
    let detected =
        t.time("core.detect.detect", || detect_races(&trace, &DetectorConfig::default()));
    t.note(
        0,
        &[
            ("core.detect.races", detected.unique_races() as u64),
            ("core.detect.instances", detected.instance_count() as u64),
        ],
    );
    let predictions = if classifier.trust_static == TrustStatic::Off {
        None
    } else {
        let (pairs, warnings, predictions) = t.time("racecheck.analyze", || {
            let analysis = racecheck::analyze(program);
            (analysis.stats.candidate_pairs, analysis.warnings.len(), predictions_by_id(&analysis))
        });
        t.note(
            0,
            &[("racecheck.candidate_pairs", pairs as u64), ("racecheck.warnings", warnings as u64)],
        );
        Some(predictions)
    };
    let classification = t.time("core.classify.classify", || {
        classify_races_with(&trace, &detected, classifier, predictions.as_ref())
    });
    let batching = classification.batch_stats;
    t.note(
        0,
        &[
            ("core.classify.vproc_replays", classification.vproc_replays),
            ("core.classify.region_executions", batching.prefix_executions),
            ("core.classify.forks", batching.forks),
            ("core.classify.prefix_instrs_saved", batching.prefix_instrs_saved),
            ("core.classify.static_skipped_races", classification.static_skipped_races),
        ],
    );
    let json = t.time("core.report.report", || {
        Report::build(&trace, &classification).to_json_value().to_string_pretty()
    });
    t.note(json.len(), &[("core.report.json_bytes", json.len() as u64)]);
    Ok(json)
}

/// The reference run: the same recording classified by the other engine
/// path (unbatched, one thread) through `run_pipeline`.
///
/// # Errors
///
/// A recording that fails to replay.
pub fn reference(
    program: &Arc<Program>,
    run: &RunConfig,
    trust_static: TrustStatic,
) -> Result<PipelineResult, String> {
    let classifier = ClassifierConfig {
        jobs: 1,
        batching: BatchMode::Off,
        trust_static,
        ..ClassifierConfig::default()
    };
    let static_predictions = (trust_static != TrustStatic::Off)
        .then(|| Arc::new(predictions_by_id(&racecheck::analyze(program))));
    let config = PipelineConfig {
        run: *run,
        detector: DetectorConfig::default(),
        classifier,
        static_predictions,
        measure_native: false,
    };
    run_pipeline(program, &config).map_err(|e| format!("reference replay: {e}"))
}

/// The reference report JSON, as `races --format json` prints it.
#[must_use]
pub fn report_json(result: &PipelineResult) -> String {
    result.report.to_json_value().to_string_pretty()
}

fn native_steps(decoded: &Arc<DecodedProgram>, run: &RunConfig) -> u64 {
    run_native(&mut Machine::with_decoded(Arc::clone(decoded)), run).steps
}

fn mismatch(what: &str, got: &str, want: &str) -> String {
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    format!(
        "{what} differs from the reference at byte {at} ({} vs {} bytes)",
        got.len(),
        want.len()
    )
}

/// `browser-oneshot`: `racerep classify` on the paper-scale browser.
pub struct BrowserOneshot {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    /// Schedule and reference report JSON, per pool entry.
    inputs: Vec<(RunConfig, String)>,
    classifier: ClassifierConfig,
}

impl BrowserOneshot {
    /// Builds the program and, per pool schedule, the reference report.
    ///
    /// # Errors
    ///
    /// A reference that fails to replay or, for the default seed, whose
    /// counts differ from [`PINNED_BROWSER`].
    pub fn setup(scale: Scale, seed: u64) -> Result<Self, String> {
        let config = match scale {
            Scale::Full => BrowserConfig::paper_scale(),
            Scale::Smoke => BrowserConfig::default(),
        };
        let program = browser_program(&config);
        let mut inputs = Vec::new();
        for k in 0..BROWSER_SCHEDULES {
            let run = schedule(seed, k);
            let result = reference(&program, &run, TrustStatic::Off)?;
            if scale == Scale::Full && seed == DEFAULT_SEED && k == 0 {
                let got = (
                    result.detected.unique_races(),
                    result.detected.instance_count(),
                    result.classification.group_counts(),
                );
                if got != PINNED_BROWSER {
                    return Err(format!(
                        "browser seed {seed}: got {got:?}, pinned {PINNED_BROWSER:?}"
                    ));
                }
            }
            inputs.push((run, report_json(&result)));
        }
        let decoded = Arc::new(DecodedProgram::new(Arc::clone(&program)));
        let classifier = ClassifierConfig { jobs: CLASSIFIER_JOBS, ..ClassifierConfig::default() };
        Ok(BrowserOneshot { program, decoded, inputs, classifier })
    }
}

impl Workload for BrowserOneshot {
    type Input = usize;
    type Output = String;

    fn input(&self, index: u64) -> Result<usize, String> {
        Ok((index % self.inputs.len() as u64) as usize)
    }

    fn op(&self, &input: &usize, t: &mut OpTrace<'_>) -> Result<String, String> {
        races_path(t, &self.program, &self.inputs[input].0, &self.classifier)
    }

    fn check(&self, input: usize, output: String) -> Result<(), String> {
        let want = &self.inputs[input].1;
        if &output == want {
            Ok(())
        } else {
            Err(mismatch("browser report", &output, want))
        }
    }

    fn native_run(&self, index: u64) -> u64 {
        native_steps(&self.decoded, &self.inputs[(index % self.inputs.len() as u64) as usize].0)
    }
}

/// One corpus execution and its reference report.
struct CorpusRun {
    name: &'static str,
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    run: RunConfig,
    reference: String,
}

/// `corpus-triage`: `racerep races --trust-static skip-benign,skip-unreachable`
/// on every pinned corpus execution; one op is a sweep over all of them.
pub struct CorpusTriage {
    runs: Vec<CorpusRun>,
    classifier: ClassifierConfig,
}

/// Corpus executions in the smoke run.
const SMOKE_EXECUTIONS: usize = 3;

impl CorpusTriage {
    /// Builds every execution's program and reference report, and checks
    /// the merged references against the ground truth. The corpus
    /// schedules are pinned by its manifest, so there is no seed.
    ///
    /// # Errors
    ///
    /// A reference that fails to replay, a race outside the manifest, a
    /// harmful race classified benign, or a race count other than
    /// [`PINNED_CORPUS_RACES`].
    pub fn setup(scale: Scale) -> Result<Self, String> {
        let mut executions = corpus_executions();
        if scale == Scale::Smoke {
            executions.truncate(SMOKE_EXECUTIONS);
        }
        let mut runs = Vec::new();
        let mut classifications = Vec::new();
        for exec in &executions {
            let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
            let program = corpus_program(&enabled);
            let result = reference(&program, &exec.schedule, TrustStatic::SkipBoth)?;
            runs.push(CorpusRun {
                name: exec.name,
                decoded: Arc::new(DecodedProgram::new(Arc::clone(&program))),
                program,
                run: exec.schedule,
                reference: report_json(&result),
            });
            classifications.push(result.classification);
        }
        // Every execution shares one instruction stream, so one resolution
        // of the ground truth covers them all.
        let merged = merge_classifications(&classifications);
        let truth = TruthTable::resolve(&runs[0].program, &corpus_manifest());
        let unexpected = merged.races.keys().filter(|id| truth.verdict(**id).is_none()).count();
        let missed: Vec<String> = merged
            .with_verdict(Verdict::PotentiallyBenign)
            .filter(|race| truth.verdict(race.id).is_some_and(|v| v.is_harmful()))
            .map(|race| race.id.to_string())
            .collect();
        if unexpected != 0 || !missed.is_empty() {
            return Err(format!(
                "corpus: {unexpected} race(s) outside the manifest, harmful races classified benign: {missed:?}"
            ));
        }
        if scale == Scale::Full && merged.races.len() != PINNED_CORPUS_RACES {
            return Err(format!(
                "corpus: {} races detected, pinned {PINNED_CORPUS_RACES}",
                merged.races.len()
            ));
        }
        let classifier = ClassifierConfig {
            jobs: CLASSIFIER_JOBS,
            trust_static: TrustStatic::SkipBoth,
            ..ClassifierConfig::default()
        };
        Ok(CorpusTriage { runs, classifier })
    }
}

impl Workload for CorpusTriage {
    type Input = ();
    type Output = Vec<String>;

    fn input(&self, _index: u64) -> Result<(), String> {
        Ok(())
    }

    fn op(&self, (): &(), t: &mut OpTrace<'_>) -> Result<Vec<String>, String> {
        self.runs
            .iter()
            .map(|run| races_path(t, &run.program, &run.run, &self.classifier))
            .collect()
    }

    fn check(&self, (): (), output: Vec<String>) -> Result<(), String> {
        for (run, got) in self.runs.iter().zip(&output) {
            if got != &run.reference {
                return Err(mismatch(run.name, got, &run.reference));
            }
        }
        Ok(())
    }

    fn native_run(&self, index: u64) -> u64 {
        let run = &self.runs[(index % self.runs.len() as u64) as usize];
        native_steps(&run.decoded, &run.run)
    }
}
