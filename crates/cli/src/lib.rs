//! # racerep — command-line front end for `replay-race`
//!
//! Drives the record/replay race-classification pipeline over programs in
//! the [`tvm::asm`] text format:
//!
//! ```text
//! racerep run       prog.tasm [--schedule S] [--max-steps N] [--stats]
//! racerep record    prog.tasm -o run.idna [--schedule S]
//! racerep replay    prog.tasm run.idna
//! racerep races     prog.tasm run.idna [--format text|json] [--permissive]
//!                   [--triage-db db.json] [--jobs N] [--replay-stats]
//!                   [--trust-static MODE] [--tolerant]
//! racerep classify  prog.tasm [--schedule S] [--format text|json] [--jobs N]
//!                   [--trust-static MODE]
//! racerep lint      prog.tasm [--format text|json] [--fail-on none|harmful|warnings]
//! racerep triage    db.json <benign|harmful> <pc_lo> <pc_hi> [note...]
//! racerep loginfo   run.idna
//! racerep doctor    run.idna
//! racerep disasm    prog.tasm
//! racerep serve     [--addr HOST:PORT] [--workers N] [--queue N] [--cache-dir DIR]
//!                   [--permissive] [--trust-static MODE]
//! racerep submit    prog.tasm run.idna [--addr HOST:PORT] [--format text|json]
//!                   [--fail-on none|harmful|warnings]
//! racerep svc-stats    [--addr HOST:PORT] [--format text|json]
//! racerep svc-shutdown [--addr HOST:PORT]
//! ```
//!
//! Schedules: `rr:<quantum>`, `random:<seed>`, `chunked:<seed>:<min>:<max>`.
//!
//! `lint` runs the `racecheck` static analyzer — CFG construction, abstract
//! interpretation, lockset recognition, order analysis — and prints the
//! statically-may-race warnings without executing the program at all.
//! `--format json` emits the machine-readable report documented in the
//! README. `--fail-on` makes lint usable as a CI gate: exit 1 when any
//! warning (`warnings`) or any warning not predicted benign (`harmful`)
//! survives the analysis; the default (`none`) always exits 0. The
//! `harmful` gate also lets a warning pass when the value-impact pass
//! proves the race can never reach observable state (impact
//! `unreachable`) — a race with no witness cannot corrupt anything.
//!
//! `--jobs N` sets the classifier's worker-thread count (0 or omitted =
//! available parallelism, 1 = single-threaded); it changes the cost of
//! the classification, never the classification. The CLI replays with
//! the shared-prefix engine; the paper-literal reference engine
//! ([`BatchMode::Off`](replay_race::classify::BatchMode::Off)) gives
//! byte-identical reports and is reached through
//! [`ClassifierConfig::batching`]. `--replay-stats` on
//! `races` appends the replay-engine counters — vproc replays and the
//! batch/fork/prefix figures — to the text report, or as a `replay_stats`
//! object in `--format json`.
//!
//! `--trust-static MODE` (ablation) lets `races`, `classify` and `serve` skip
//! dual-order replays on static authority, recording the skipped races as
//! No-State-Change without running them. `skip-benign` trusts the idiom
//! pass's high-confidence benign predictions; `skip-unreachable` trusts
//! the value-impact pass's proof that a race can never reach observable
//! state; `skip-benign,skip-unreachable` (either order) combines both
//! tiers. The default (`off`) replays everything.
//!
//! `--tolerant` lets `races` ingest a damaged log: intact checksummed
//! frames are salvaged, damage is profiled against the static analysis,
//! and races whose evidence was lost are reported as replay failures
//! (potentially harmful) instead of aborting the whole run. `doctor`
//! prints per-frame integrity diagnostics for a log file without needing
//! the program.
//!
//! `serve` runs the racerepd classification service (DESIGN.md D14): a
//! long-lived server with a bounded job queue, a worker pool, and a
//! persistent report cache under `--cache-dir` (one record per
//! program, log and analysis options). It honors `--permissive` and
//! `--trust-static` as `races` does, and its records are keyed on both.
//! `races`, `classify` and the service all run the one analysis path,
//! [`replay_race::pipeline::analyze_log`].
//! `submit` classifies a recorded workload through it — the JSON output
//! is byte-identical to one-shot `races --format json`, the text trailer
//! says whether the cache answered, and `--fail-on harmful` gates the
//! exit code on the remote verdicts like `lint` does. `svc-stats` and
//! `svc-shutdown` fetch the counters and drain the server.
//!
//! The library half exists so the command implementations are unit-testable
//! without spawning processes.

use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minijson::Json;

use idna_replay::codec::{decode_log_mode, frame_spans, with_log_writer, DecodeMode, DecodeReport};
use idna_replay::event::ReplayLog;
use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use idna_replay::vproc::VprocConfig;
use replay_race::classify::{ClassificationResult, ClassifierConfig, TrustStatic, Verdict};
use replay_race::detect::DetectorConfig;
use replay_race::pipeline::{analyze_log, run_pipeline, PipelineConfig};
use replay_race::report::Report;
use replay_race::triage::{ManualVerdict, TriageDb};
use serviced::container::{split_layers, LayerFault};
use tvm::asm::{assemble, disassemble_annotated};
use tvm::machine::Machine;
use tvm::predecode::DecodedProgram;
use tvm::program::Program;
use tvm::scheduler::{run_native, RunConfig};

/// A CLI error: message plus the exit code to use.
#[derive(Debug)]
pub struct CliError {
    pub message: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError { message: message.into() })
}

/// Parses `flag`'s numeric value `v`.
fn parse_number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError> {
    v.parse().map_err(|_| CliError { message: format!("bad {flag} {v:?}") })
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError { message: format!("io error: {e}") }
    }
}

/// Parses a schedule spec: `rr:<quantum>`, `random:<seed>`, or
/// `chunked:<seed>:<min>:<max>`.
///
/// # Errors
///
/// Returns a [`CliError`] for malformed specs.
pub fn parse_schedule(spec: &str) -> Result<RunConfig, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<u64, CliError> {
        s.parse::<u64>().map_err(|_| CliError { message: format!("bad number {s:?} in schedule") })
    };
    match parts.as_slice() {
        ["rr", q] => Ok(RunConfig::round_robin(num(q)?)),
        ["random", seed] => Ok(RunConfig::random(num(seed)?)),
        ["chunked", seed, min, max] => {
            let (seed, min, max) = (num(seed)?, num(min)?, num(max)?);
            if min == 0 || max < min {
                return err("chunked schedule needs 1 <= min <= max");
            }
            Ok(RunConfig::chunked(seed, min, max))
        }
        _ => err(format!(
            "unknown schedule {spec:?} (expected rr:<q>, random:<seed>, chunked:<seed>:<min>:<max>)"
        )),
    }
}

/// Loads and assembles a program file.
///
/// # Errors
///
/// Returns a [`CliError`] on io or assembly failure.
pub fn load_program(path: &Path) -> Result<Arc<Program>, CliError> {
    let src = fs::read_to_string(path)
        .map_err(|e| CliError { message: format!("cannot read {}: {e}", path.display()) })?;
    let program = assemble(&src).map_err(|e| {
        // `file:line: message` (the grep/editor-friendly shape), with the
        // offending source line quoted underneath.
        let mut message = format!("{}:{}: {}", path.display(), e.line, e.message);
        if let Some(bad) = src.lines().nth(e.line.saturating_sub(1)) {
            let bad = bad.trim_end();
            if !bad.trim().is_empty() {
                message.push_str(&format!("\n  {} | {}", e.line, bad));
            }
        }
        CliError { message }
    })?;
    if program.threads().is_empty() {
        return err(format!("{}: program has no threads", path.display()));
    }
    Ok(Arc::new(program))
}

/// Reads and decodes a log file in the given [`DecodeMode`], returning the
/// decoder's [`DecodeReport`] alongside the log and its schedule.
///
/// # Errors
///
/// Returns a [`CliError`] on io or decode failure.
pub fn load_log(
    path: &Path,
    mode: DecodeMode,
) -> Result<(ReplayLog, RunConfig, DecodeReport), CliError> {
    let bytes = fs::read(path)
        .map_err(|e| CliError { message: format!("cannot read {}: {e}", path.display()) })?;
    serviced::container::log_from_bytes_mode(&bytes, mode).map_err(|message| CliError { message })
}

/// `racerep run`: executes the program natively and renders the outcome.
/// With `stats`, re-runs the program under a timing harness and appends
/// wall-clock and throughput (Minstr/s) figures.
///
/// # Errors
///
/// Propagates load failures.
pub fn cmd_run(path: &Path, schedule: RunConfig, stats: bool) -> Result<String, CliError> {
    let program = load_program(path)?;
    let decoded = Arc::new(DecodedProgram::new(program));
    let mut machine = Machine::with_decoded(decoded.clone());
    let summary = run_native(&mut machine, &schedule);
    let mut out = String::new();
    out.push_str(&format!(
        "{} instructions, {}\n",
        summary.steps,
        if summary.completed { "completed" } else { "step budget exhausted" }
    ));
    for rec in machine.output() {
        out.push_str(&format!("thread {} printed {}\n", rec.tid, rec.value));
    }
    for (tid, fault) in &summary.faults {
        out.push_str(&format!("thread {tid} FAULTED: {fault}\n"));
    }
    if stats {
        // One warm-up run, then the median of five timed runs.
        const RUNS: usize = 5;
        let mut times: Vec<Duration> = (0..=RUNS)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box({
                    let mut machine = Machine::with_decoded(decoded.clone());
                    run_native(&mut machine, &schedule)
                });
                start.elapsed()
            })
            .skip(1)
            .collect();
        times.sort_unstable();
        let median = times[RUNS / 2];
        #[allow(clippy::cast_precision_loss)]
        let minstr_per_s = summary.steps as f64 / median.as_secs_f64() / 1e6;
        out.push_str(&format!(
            "stats: {} instructions, median {median:?} over {RUNS} runs, {minstr_per_s:.1} Minstr/s\n",
            summary.steps,
        ));
    }
    Ok(out)
}

/// `racerep record`: records an execution and writes the log file.
///
/// # Errors
///
/// Propagates load and io failures.
pub fn cmd_record(path: &Path, out_path: &Path, schedule: RunConfig) -> Result<String, CliError> {
    let program = load_program(path)?;
    let recording = record(&program, &schedule);
    let (bytes, sizes) = with_log_writer(|writer| {
        let bytes = serviced::container::log_to_bytes_with(&recording.log, &schedule, writer);
        (bytes, writer.measure(&recording.log))
    });
    fs::write(out_path, &bytes)?;
    Ok(format!(
        "recorded {} instructions across {} threads\nwrote {} ({} bytes; {:.3} bits/instr raw, {:.3} compressed)\n",
        recording.summary.steps,
        recording.log.threads.len(),
        out_path.display(),
        bytes.len(),
        sizes.bits_per_instr_raw(),
        sizes.bits_per_instr_compressed(),
    ))
}

/// `racerep replay`: replays a log against its program and reports
/// fidelity statistics.
///
/// # Errors
///
/// Fails if the log does not replay against the program.
pub fn cmd_replay(path: &Path, log_path: &Path) -> Result<String, CliError> {
    let program = load_program(path)?;
    let (log, schedule, _) = load_log(log_path, DecodeMode::Strict)?;
    let trace = replay(&program, &log).map_err(|e| CliError { message: e.to_string() })?;
    let mut out = format!(
        "replayed {} instructions, {} sequencing regions across {} threads\n",
        trace.total_instructions,
        trace.regions().len(),
        trace.thread_count(),
    );
    let fidelity = idna_replay::verify::verify_fidelity(&program, &trace, &schedule);
    out.push_str(&format!("{fidelity}\n"));
    for tid in 0..trace.thread_count() {
        let regions = trace.regions().iter().filter(|r| r.region.id.tid == tid).count();
        out.push_str(&format!(
            "  thread {tid} ({}): {} regions, status {:?}\n",
            trace.thread_name(tid),
            regions,
            trace.thread_status(tid)
        ));
    }
    Ok(out)
}

/// Renders the replay-engine counters — vproc replays, batching — as
/// report-trailer text (for `races --replay-stats` and the `classify`
/// stats block).
fn replay_stats_text(classification: &ClassificationResult) -> String {
    let batching = classification.batch_stats;
    format!(
        "{} vproc replays\n\
         batching: {} batch(es), {} forked resume(s), {} prefix execution(s), \
         {} prefix instrs saved, {} live-in index hits\n",
        classification.vproc_replays,
        batching.batches,
        batching.forks,
        batching.prefix_executions,
        batching.prefix_instrs_saved,
        batching.live_in_index_hits,
    )
}

/// The JSON document `races` and `classify` print: the report is the
/// root, and with `replay_stats` the same counters as
/// [`replay_stats_text`] follow as a `replay_stats` sibling of "races".
fn report_json(
    report: &Report,
    classification: &ClassificationResult,
    replay_stats: bool,
) -> String {
    let mut doc = report.to_json_value();
    if replay_stats {
        let batching = classification.batch_stats;
        let stats = Json::obj(vec![
            ("vproc_replays", Json::from(classification.vproc_replays)),
            (
                "batching",
                Json::obj(vec![
                    ("batches", Json::from(batching.batches)),
                    ("forks", Json::from(batching.forks)),
                    ("prefix_executions", Json::from(batching.prefix_executions)),
                    ("prefix_instrs_saved", Json::from(batching.prefix_instrs_saved)),
                    ("live_in_index_hits", Json::from(batching.live_in_index_hits)),
                ]),
            ),
        ]);
        if let Json::Obj(fields) = &mut doc {
            fields.push(("replay_stats".into(), stats));
        }
    }
    doc.to_string_pretty()
}

/// `racerep races`: detects and classifies the races in a recorded log and
/// renders the developer report, through
/// [`replay_race::pipeline::analyze_log`].
///
/// With `tolerant`, a damaged log degrades instead of failing: intact
/// frames are salvaged, and races whose evidence was lost come back as
/// replay failures (potentially harmful). The text report then opens with
/// a damage banner.
///
/// # Errors
///
/// Fails if the log does not replay against the program.
pub fn cmd_races(
    path: &Path,
    log_path: &Path,
    json: bool,
    classifier: &ClassifierConfig,
    triage_db: Option<&Path>,
    tolerant: bool,
    replay_stats: bool,
) -> Result<String, CliError> {
    let program = load_program(path)?;
    let mode = if tolerant { DecodeMode::Tolerant } else { DecodeMode::Strict };
    let (log, _schedule, decode_report) = load_log(log_path, mode)?;
    let analysis = analyze_log(
        &Arc::new(DecodedProgram::new(program)),
        &log,
        &decode_report,
        &DetectorConfig::default(),
        classifier,
        None,
    )
    .map_err(|e| CliError { message: e.to_string() })?;
    let mut out = if json {
        report_json(&analysis.report, &analysis.classification, replay_stats)
    } else {
        let mut text = String::new();
        if !decode_report.is_clean() {
            text.push_str(&format!(
                "!!! log damage: {} of {} frame(s) damaged, {} byte(s) dropped (decoded with --tolerant)\n\n",
                decode_report.damaged_frames(),
                decode_report.frames.len(),
                decode_report.bytes_dropped,
            ));
        }
        text.push_str(&analysis.report.to_text());
        if replay_stats {
            text.push('\n');
            text.push_str(&replay_stats_text(&analysis.classification));
        }
        text
    };
    if let Some(db_path) = triage_db {
        let db = TriageDb::load(db_path).map_err(|e| CliError { message: e.to_string() })?;
        let queue = db.queue(&analysis.classification);
        out.push('\n');
        out.push_str(&queue.to_string());
    }
    Ok(out)
}

/// `racerep triage`: records a manual verdict for a race in the database.
///
/// # Errors
///
/// Fails on bad verdicts or io errors.
pub fn cmd_triage(
    db_path: &Path,
    verdict: &str,
    pc_lo: usize,
    pc_hi: usize,
    note: &str,
) -> Result<String, CliError> {
    let verdict = match verdict {
        "benign" => ManualVerdict::ConfirmedBenign,
        "harmful" => ManualVerdict::ConfirmedHarmful,
        other => return err(format!("verdict must be benign or harmful, got {other:?}")),
    };
    let mut db = TriageDb::load(db_path).map_err(|e| CliError { message: e.to_string() })?;
    let id = replay_race::detect::StaticRaceId::new(pc_lo, pc_hi);
    db.mark(id, verdict, note);
    db.save(db_path).map_err(|e| CliError { message: e.to_string() })?;
    Ok(format!("marked {id} in {} ({} races triaged)\n", db_path.display(), db.len()))
}

/// `racerep classify`: the whole pipeline in one shot (record in memory,
/// then triage).
///
/// # Errors
///
/// Propagates load failures; a fresh recording always replays.
pub fn cmd_classify(
    path: &Path,
    schedule: RunConfig,
    json: bool,
    classifier: &ClassifierConfig,
    replay_stats: bool,
) -> Result<String, CliError> {
    let program = load_program(path)?;
    // `classify` prints no phase timings, so it skips the native baseline.
    let config = PipelineConfig {
        classifier: *classifier,
        measure_native: false,
        ..PipelineConfig::new(schedule)
    };
    let result =
        run_pipeline(&program, &config).map_err(|e| CliError { message: e.to_string() })?;
    Ok(if json {
        report_json(&result.report, &result.classification, replay_stats)
    } else {
        let mut out = result.report.to_text();
        out.push_str(&format!(
            "\n{} instructions, {} dynamic race instances, log {:.3} bits/instr\n",
            result.instructions,
            result.detected.instance_count(),
            result.log_size.bits_per_instr_raw(),
        ));
        out.push_str(&replay_stats_text(&result.classification));
        if result.classification.static_skipped_races > 0 {
            out.push_str(&format!(
                "{} race(s) recorded benign on static authority (no replays)\n",
                result.classification.static_skipped_races,
            ));
        }
        out
    })
}

/// `racerep loginfo`: decodes a log file and prints its statistics.
///
/// # Errors
///
/// Fails on io or decode errors.
pub fn cmd_loginfo(log_path: &Path) -> Result<String, CliError> {
    let (log, _, _) = load_log(log_path, DecodeMode::Strict)?;
    let sizes = with_log_writer(|writer| writer.measure(&log));
    let mut out = format!(
        "{} threads, {} instructions, {} events, {} sequencers\n",
        log.threads.len(),
        log.total_instructions,
        log.event_count(),
        log.sequencer_count(),
    );
    out.push_str(&format!(
        "encoded {} bytes ({:.3} bits/instr), compressed {} bytes ({:.3} bits/instr)\n",
        sizes.raw_bytes,
        sizes.bits_per_instr_raw(),
        sizes.compressed_bytes,
        sizes.bits_per_instr_compressed(),
    ));
    for t in &log.threads {
        out.push_str(&format!(
            "  thread {} ({}): {} instructions, {} events, end {:?}\n",
            t.tid,
            t.name,
            t.end_instr,
            t.events.len(),
            t.end_status
        ));
    }
    Ok(out)
}

/// `racerep doctor`: integrity diagnostics for a log file. Walks the
/// container layer by layer (magic, schedule header, compression, frame
/// table, per-frame checksums) and reports what is intact and what was
/// lost, without needing the program. A damaged log is a diagnosis, not
/// an error: doctor succeeds and prints the damage.
///
/// # Errors
///
/// Fails only when the file cannot be read at all.
pub fn cmd_doctor(log_path: &Path) -> Result<String, CliError> {
    let bytes = fs::read(log_path)
        .map_err(|e| CliError { message: format!("cannot read {}: {e}", log_path.display()) })?;
    let mut out = format!("{}: {} bytes\n", log_path.display(), bytes.len());
    let fail = |mut out: String, what: &str, detail: String| {
        out.push_str(&format!("  {what}: FAIL — {detail}\n"));
        out.push_str("verdict: container damaged before the frame layer; nothing salvageable\n");
        Ok(out)
    };
    let split = split_layers(&bytes);
    if split.as_ref().err() != Some(&LayerFault::Magic) {
        out.push_str("  container magic: ok\n");
    }
    let header_len = match &split {
        Ok(layers) => Some(layers.header_len),
        Err(LayerFault::Compression { header_len, .. }) => Some(*header_len),
        Err(_) => None,
    };
    if let Some(hlen) = header_len {
        out.push_str(&format!("  schedule header: ok ({hlen} bytes)\n"));
    }
    let layers = match split {
        Ok(layers) => layers,
        Err(fault) => {
            let (what, detail) = match fault {
                LayerFault::Magic => ("container magic", "not a racerep log file".into()),
                LayerFault::LengthField => ("schedule header", "truncated length field".into()),
                LayerFault::ShortHeader { declared } => {
                    ("schedule header", format!("{declared} bytes declared, fewer present"))
                }
                LayerFault::Schedule(e) => ("schedule header", e),
                LayerFault::Compression { error, .. } => ("compression", error),
            };
            return fail(out, what, detail);
        }
    };
    out.push_str(&format!(
        "  compression: ok ({} bytes compressed, {} bytes raw)\n",
        layers.compressed_len,
        layers.raw.len(),
    ));
    let (log, report) = match decode_log_mode(&layers.raw, DecodeMode::Tolerant) {
        Ok(decoded) => decoded,
        Err(e) => return fail(out, "log header", e.to_string()),
    };
    let spans = frame_spans(&layers.raw);
    out.push_str(&format!(
        "  log format: v{}, {} frame(s) spanning {} byte(s)\n",
        report.format_version,
        report.frames.len(),
        spans.iter().map(|s| s.end - s.start).sum::<usize>(),
    ));
    for f in &report.frames {
        let t = &log.threads[f.tid];
        out.push_str(&format!(
            "  frame {}: {} payload byte(s), {}\n",
            f.tid, f.payload_len, f.status,
        ));
        if f.status.is_intact() {
            out.push_str(&format!(
                "    thread {} ({}): {} instructions, {} events, end {:?}\n",
                t.tid,
                t.name,
                t.end_instr,
                t.events.len(),
                t.end_status,
            ));
        } else {
            out.push_str(&format!(
                "    salvaged {} event(s) through instruction {} (ts {}); live-ins untrusted\n",
                f.salvaged_events, t.end_instr, f.trusted_ts,
            ));
        }
    }
    if report.is_clean() {
        out.push_str("verdict: log is clean\n");
    } else {
        out.push_str(&format!(
            "verdict: {} of {} frame(s) damaged, {} byte(s) dropped — `races --tolerant` classifies what survives\n",
            report.damaged_frames(),
            report.frames.len(),
            report.bytes_dropped,
        ));
    }
    Ok(out)
}

/// `racerep disasm`: assembles and disassembles a program (normalizing it),
/// annotating every instruction with its pc and `*`/`m`/`o` markers for
/// sequencer points, memory-touching instructions, and observable sinks
/// (syscalls whose operands escape to the outside world).
///
/// # Errors
///
/// Propagates load failures.
pub fn cmd_disasm(path: &Path) -> Result<String, CliError> {
    let program = load_program(path)?;
    Ok(disassemble_annotated(&program))
}

/// What surviving lint warnings should fail the process (exit code 1).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum FailOn {
    /// Always exit 0 (the default): lint is informational.
    #[default]
    None,
    /// Exit 1 when any warning is *not* predicted benign — unless the
    /// value-impact pass proves it can never reach observable state.
    Harmful,
    /// Exit 1 when any warning survives at all.
    Warnings,
}

impl FailOn {
    /// Parses a `--fail-on` mode.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown modes.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(FailOn::None),
            "harmful" => Ok(FailOn::Harmful),
            "warnings" => Ok(FailOn::Warnings),
            other => Err(format!("fail-on mode must be none, harmful, or warnings, got {other:?}")),
        }
    }
}

/// `racerep lint`: runs the static race analyzer over the program — no
/// execution, no recording — and renders its warnings. Returns the report
/// plus the exit code the `fail_on` gate selects.
///
/// # Errors
///
/// Propagates load failures.
pub fn cmd_lint(path: &Path, json: bool, fail_on: FailOn) -> Result<(String, i32), CliError> {
    let program = load_program(path)?;
    let analysis = racecheck::analyze(&program);
    let text = if json {
        let mut text = racecheck::render_json(&analysis).to_string_pretty();
        text.push('\n');
        text
    } else {
        racecheck::render_text(&analysis)
    };
    let gate_tripped = match fail_on {
        FailOn::None => false,
        FailOn::Harmful => analysis
            .warnings
            .iter()
            .any(|w| !w.predicted.benign() && w.impact.reach != racecheck::Reach::Unreachable),
        FailOn::Warnings => !analysis.warnings.is_empty(),
    };
    Ok((text, i32::from(gate_tripped)))
}

// --- Service mode -----------------------------------------------------------

/// `racerep serve`: boots the persistent classification service and blocks
/// until a `svc-shutdown` request (or SIGINT/SIGTERM on unix) drains it.
///
/// The listening line is printed before the accept loop starts so scripts
/// can wait for readiness on stdout.
///
/// The server honors the classifier options as `races` does, including
/// `--trust-static`, and keys its report records on them.
///
/// # Errors
///
/// Fails when the address cannot be bound or the cache directory is
/// unusable.
pub fn cmd_serve(config: serviced::ServerConfig) -> Result<String, CliError> {
    let server = serviced::Server::bind(config).map_err(|message| CliError { message })?;
    let addr = server.local_addr().map_err(|message| CliError { message })?;
    println!("racerepd listening on {addr}");
    server.run().map_err(|message| CliError { message })?;
    Ok(format!("racerepd on {addr} drained and exited\n"))
}

/// `racerep submit`: classifies a recorded workload through a running
/// service. The JSON output is byte-identical to one-shot
/// `racerep races --format json` on the same program and log; text mode
/// renders the same report plus a service trailer. With `--fail-on
/// harmful` the exit code gates on the remote verdicts like `lint` does.
///
/// # Errors
///
/// Fails on io errors, connection failures, or server-side errors.
pub fn cmd_submit(
    path: &Path,
    log_path: &Path,
    addr: &str,
    json: bool,
    fail_on: FailOn,
) -> Result<(String, i32), CliError> {
    let source = fs::read_to_string(path)
        .map_err(|e| CliError { message: format!("cannot read {}: {e}", path.display()) })?;
    let container = fs::read(log_path)
        .map_err(|e| CliError { message: format!("cannot read {}: {e}", log_path.display()) })?;
    let response = serviced::client::submit(addr, &source, &container, 20)
        .map_err(|message| CliError { message })?;
    let report_value = response
        .get("report")
        .ok_or_else(|| CliError { message: "response missing \"report\"".into() })?;
    let report = replay_race::report::Report::from_json(&report_value.to_string_compact())
        .map_err(|message| CliError { message })?;
    let gate_tripped = match fail_on {
        FailOn::None => false,
        FailOn::Harmful => report.races.iter().any(|r| r.verdict == Verdict::PotentiallyHarmful),
        FailOn::Warnings => !report.races.is_empty(),
    };
    let out = if json {
        report_value.to_string_pretty()
    } else {
        let replays = response.get("replays").and_then(Json::as_u64).unwrap_or(0);
        let hit = response.get("store_hits").and_then(Json::as_u64).unwrap_or(0) > 0;
        let disposition = if hit { "served from the cache" } else { "classified afresh" };
        let mut text = report.to_text();
        text.push_str(&format!("\nservice: report {disposition}, {replays} replay(s) executed\n"));
        text
    };
    Ok((out, i32::from(gate_tripped)))
}

/// `racerep svc-stats`: fetches and renders the service counters.
///
/// # Errors
///
/// Fails on connection or protocol errors.
pub fn cmd_svc_stats(addr: &str, json: bool) -> Result<String, CliError> {
    let doc = serviced::client::stats(addr).map_err(|message| CliError { message })?;
    if json {
        return Ok(doc.to_string_pretty());
    }
    let num = |path: &[&str]| -> u64 {
        let mut cur = &doc;
        for key in path {
            match cur.get(key) {
                Some(next) => cur = next,
                None => return 0,
            }
        }
        cur.as_u64().unwrap_or(0)
    };
    let mut out = format!(
        "racerepd at {addr}: up {}s, {} worker(s), queue {}/{}\n",
        num(&["uptime_ms"]) / 1000,
        num(&["workers"]),
        num(&["queue_depth"]),
        num(&["queue_capacity"]),
    );
    out.push_str(&format!(
        "jobs: {} accepted, {} rejected, {} completed, {} failed\n",
        num(&["jobs", "accepted"]),
        num(&["jobs", "rejected"]),
        num(&["jobs", "completed"]),
        num(&["jobs", "failed"]),
    ));
    if doc.get("cache").is_some() {
        out.push_str(&format!(
            "cache: {} report record(s) ({} bytes), {} hit(s), {} miss(es), {} write(s)\n",
            num(&["cache", "entries"]),
            num(&["cache", "disk_bytes"]),
            num(&["cache", "persisted_hits"]),
            num(&["cache", "misses"]),
            num(&["cache", "persisted_writes"]),
        ));
    } else {
        out.push_str("cache: disabled (no --cache-dir)\n");
    }
    out.push_str(&format!(
        "phase_ns: decode {} replay {} detect {} classify {} report {}\n",
        num(&["phase_ns", "decode"]),
        num(&["phase_ns", "replay"]),
        num(&["phase_ns", "detect"]),
        num(&["phase_ns", "classify"]),
        num(&["phase_ns", "report"]),
    ));
    Ok(out)
}

/// `racerep svc-shutdown`: asks the service to drain and exit.
///
/// # Errors
///
/// Fails on connection or protocol errors.
pub fn cmd_svc_shutdown(addr: &str) -> Result<String, CliError> {
    serviced::client::shutdown(addr).map_err(|message| CliError { message })?;
    Ok(format!("racerepd at {addr} draining\n"))
}

/// Top-level argument dispatch; returns the text to print.
///
/// # Errors
///
/// Returns usage or command errors for the binary to report.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    dispatch_with_status(args).map(|(text, _)| text)
}

/// [`dispatch`] plus the process exit code (0 unless a `--fail-on` gate
/// tripped — a tripped gate still returns its report as `Ok`).
///
/// # Errors
///
/// Returns usage or command errors for the binary to report.
pub fn dispatch_with_status(args: &[String]) -> Result<(String, i32), CliError> {
    let mut schedule = RunConfig::round_robin(2);
    let mut json = false;
    let mut permissive = false;
    let mut stats = false;
    let mut tolerant = false;
    let mut out_path: Option<String> = None;
    let mut triage_db: Option<String> = None;
    let mut max_steps: Option<u64> = None;
    let mut jobs: usize = 0;
    let mut replay_stats = false;
    let mut trust_static = TrustStatic::default();
    let mut fail_on = FailOn::default();
    let mut addr = String::from("127.0.0.1:7199");
    let mut workers: usize = 2;
    let mut queue: usize = 64;
    let mut cache_dir: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();

    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        // The flag's value: the next argument, or `missing` as the error.
        let mut value =
            |missing: &str| rest.next().ok_or_else(|| CliError { message: missing.into() });
        match arg.as_str() {
            "--schedule" | "-s" => schedule = parse_schedule(value("--schedule needs a value")?)?,
            "--max-steps" => {
                max_steps = Some(parse_number("--max-steps", value("--max-steps needs a value")?)?);
            }
            "-o" | "--output" => out_path = Some(value("-o needs a path")?.clone()),
            "--format" => {
                json = match value("--format needs text or json")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return err(format!("--format must be text or json, got {other:?}")),
                };
            }
            "--permissive" => permissive = true,
            "--stats" => stats = true,
            "--tolerant" => tolerant = true,
            "--jobs" | "-j" => jobs = parse_number("--jobs", value("--jobs needs a count")?)?,
            "--replay-stats" => replay_stats = true,
            "--trust-static" => {
                trust_static = TrustStatic::parse(value("--trust-static needs a mode")?)
                    .map_err(|message| CliError { message })?;
            }
            "--fail-on" => {
                fail_on = FailOn::parse(value("--fail-on needs a mode")?)
                    .map_err(|message| CliError { message })?;
            }
            "--triage-db" => triage_db = Some(value("--triage-db needs a path")?.clone()),
            "--addr" => addr = value("--addr needs host:port")?.clone(),
            "--workers" => workers = parse_number("--workers", value("--workers needs a count")?)?,
            "--queue" => queue = parse_number("--queue", value("--queue needs a depth")?)?,
            "--cache-dir" => cache_dir = Some(value("--cache-dir needs a path")?.clone()),
            other if other.starts_with('-') => {
                return err(format!("unknown flag {other:?}"));
            }
            _ => positional.push(arg),
        }
    }
    if let Some(ms) = max_steps {
        schedule = schedule.with_max_steps(ms);
    }
    let vproc = if permissive { VprocConfig::permissive() } else { VprocConfig::default() };
    let classifier = ClassifierConfig { vproc, jobs, trust_static, ..ClassifierConfig::default() };

    let usage = "usage: racerep <run|record|replay|races|classify|lint|triage|loginfo|doctor|disasm|serve|submit|svc-stats|svc-shutdown> ...";
    let Some((&cmd, rest)) = positional.split_first() else {
        return err(usage);
    };
    let arg = |n: usize, what: &str| -> Result<&Path, CliError> {
        rest.get(n)
            .map(|s| Path::new(s.as_str()))
            .ok_or_else(|| CliError { message: format!("{cmd}: missing {what}") })
    };
    let ok = |r: Result<String, CliError>| r.map(|text| (text, 0));
    match cmd.as_str() {
        "run" => ok(cmd_run(arg(0, "program path")?, schedule, stats)),
        "record" => {
            let out =
                out_path.ok_or_else(|| CliError { message: "record: missing -o <log>".into() })?;
            ok(cmd_record(arg(0, "program path")?, Path::new(&out), schedule))
        }
        "replay" => ok(cmd_replay(arg(0, "program path")?, arg(1, "log path")?)),
        "races" => ok(cmd_races(
            arg(0, "program path")?,
            arg(1, "log path")?,
            json,
            &classifier,
            triage_db.as_deref().map(Path::new),
            tolerant,
            replay_stats,
        )),
        "classify" => {
            ok(cmd_classify(arg(0, "program path")?, schedule, json, &classifier, replay_stats))
        }
        "lint" => cmd_lint(arg(0, "program path")?, json, fail_on),
        "triage" => {
            let parse_pc = |n: usize, what: &str| -> Result<usize, CliError> {
                rest.get(n)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError { message: format!("triage: bad or missing {what}") })
            };
            let note: String = rest
                .get(4..)
                .unwrap_or(&[])
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            ok(cmd_triage(
                arg(0, "db path")?,
                rest.get(1).map(|s| s.as_str()).unwrap_or(""),
                parse_pc(2, "pc_lo")?,
                parse_pc(3, "pc_hi")?,
                &note,
            ))
        }
        "loginfo" => ok(cmd_loginfo(arg(0, "log path")?)),
        "doctor" => ok(cmd_doctor(arg(0, "log path")?)),
        "disasm" => ok(cmd_disasm(arg(0, "program path")?)),
        "serve" => ok(cmd_serve(serviced::ServerConfig {
            addr,
            workers,
            queue_capacity: queue,
            cache_dir: cache_dir.map(std::path::PathBuf::from),
            classifier,
        })),
        "submit" => cmd_submit(arg(0, "program path")?, arg(1, "log path")?, &addr, json, fail_on),
        "svc-stats" => ok(cmd_svc_stats(&addr, json)),
        "svc-shutdown" => ok(cmd_svc_shutdown(&addr)),
        other => err(format!("unknown command {other:?}\n{usage}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_race::classify::BatchMode;
    use serviced::container::FILE_MAGIC;
    use std::path::PathBuf;

    fn temp_file(name: &str, contents: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("racerep_test_{}_{name}", std::process::id()));
        fs::write(&path, contents).unwrap();
        path
    }

    const RACY: &str = "
.thread writer
  movi r1, 1
  st [r15+32], r1
  halt
.thread reader
  ld r2, [r15+32]
  halt
";

    #[test]
    fn parse_schedules() {
        assert!(matches!(
            parse_schedule("rr:4").unwrap().policy,
            tvm::SchedulePolicy::RoundRobin { quantum: 4 }
        ));
        assert!(matches!(
            parse_schedule("random:9").unwrap().policy,
            tvm::SchedulePolicy::Random { seed: 9 }
        ));
        assert!(matches!(
            parse_schedule("chunked:1:2:5").unwrap().policy,
            tvm::SchedulePolicy::Chunked { seed: 1, min_quantum: 2, max_quantum: 5 }
        ));
        assert!(parse_schedule("bogus").is_err());
        assert!(parse_schedule("chunked:1:5:2").is_err());
    }

    #[test]
    fn run_and_classify_roundtrip() {
        let prog = temp_file("racy.tasm", RACY);
        let out = cmd_run(&prog, RunConfig::round_robin(1), false).unwrap();
        assert!(out.contains("completed"));
        assert!(!out.contains("stats:"));
        let out = cmd_run(&prog, RunConfig::round_robin(1), true).unwrap();
        assert!(out.contains("stats:"), "{out}");
        assert!(out.contains("Minstr/s"), "{out}");
        let report = cmd_classify(
            &prog,
            RunConfig::round_robin(1),
            false,
            &ClassifierConfig::default(),
            false,
        )
        .unwrap();
        assert!(report.contains("POTENTIALLY HARMFUL"), "{report}");
        let json = cmd_classify(
            &prog,
            RunConfig::round_robin(1),
            true,
            &ClassifierConfig::default(),
            false,
        )
        .unwrap();
        assert!(json.contains("\"verdict\""));
        let _ = fs::remove_file(prog);
    }

    #[test]
    fn record_replay_races_roundtrip() {
        let prog = temp_file("racy2.tasm", RACY);
        let log = std::env::temp_dir().join(format!("racerep_test_{}.idna", std::process::id()));
        let msg = cmd_record(&prog, &log, RunConfig::round_robin(1)).unwrap();
        assert!(msg.contains("recorded"));
        let info = cmd_loginfo(&log).unwrap();
        assert!(info.contains("2 threads"), "{info}");
        let rep = cmd_replay(&prog, &log).unwrap();
        assert!(rep.contains("sequencing regions"));
        assert!(rep.contains("fidelity verified"), "{rep}");
        let races = cmd_races(&prog, &log, false, &ClassifierConfig::default(), None, false, false)
            .unwrap();
        assert!(races.contains("data race report"));
        // With a triage database: first everything is new, then suppressed.
        let db = std::env::temp_dir().join(format!("racerep_db_{}.json", std::process::id()));
        let _ = fs::remove_file(&db);
        let with_queue =
            cmd_races(&prog, &log, false, &ClassifierConfig::default(), Some(&db), false, false)
                .unwrap();
        assert!(with_queue.contains("triage queue: 1 new"), "{with_queue}");
        // Mark the race benign; resolve the pcs from the report is overkill
        // here — mark via the id printed in the queue line.
        let id_line = with_queue.lines().find(|l| l.contains("NEW")).unwrap().trim().to_string();
        let nums: Vec<usize> = id_line
            .chars()
            .map(|c| if c.is_ascii_digit() { c } else { ' ' })
            .collect::<String>()
            .split_whitespace()
            .map(|s| s.parse().unwrap())
            .collect();
        let msg = cmd_triage(&db, "benign", nums[0], nums[1], "known ok").unwrap();
        assert!(msg.contains("1 races triaged"));
        let after =
            cmd_races(&prog, &log, false, &ClassifierConfig::default(), Some(&db), false, false)
                .unwrap();
        assert!(after.contains("triage queue: 0 new"), "{after}");
        assert!(after.contains("1 suppressed"), "{after}");
        let _ = fs::remove_file(db);
        let _ = fs::remove_file(prog);
        let _ = fs::remove_file(log);
    }

    #[test]
    fn replay_stats_flag_prints_batching_counters() {
        let prog = temp_file("rstats.tasm", RACY);
        let log = std::env::temp_dir().join(format!("racerep_rstats_{}.idna", std::process::id()));
        cmd_record(&prog, &log, RunConfig::round_robin(1)).unwrap();
        // Off by default: the report alone.
        let plain = cmd_races(&prog, &log, false, &ClassifierConfig::default(), None, false, false)
            .unwrap();
        assert!(!plain.contains("batching:"), "{plain}");
        // Text: the counters follow the report.
        let text =
            cmd_races(&prog, &log, false, &ClassifierConfig::default(), None, false, true).unwrap();
        assert!(text.contains("vproc replays\n"), "{text}");
        assert!(text.contains("batching:"), "{text}");
        assert!(text.contains("live-in index hits"), "{text}");
        // RACY's one instance replays both orders from one prefix per side.
        assert!(text.contains(", 2 prefix execution(s), "), "{text}");
        // JSON: a replay_stats sibling of races, with the batching object.
        let json =
            cmd_races(&prog, &log, true, &ClassifierConfig::default(), None, false, true).unwrap();
        let doc = Json::parse(&json).unwrap();
        let stats = doc.field("replay_stats").unwrap();
        assert!(stats.field("vproc_replays").unwrap().as_u64().is_some());
        let batching = stats.field("batching").unwrap();
        for key in
            ["batches", "forks", "prefix_executions", "prefix_instrs_saved", "live_in_index_hits"]
        {
            assert!(batching.field(key).unwrap().as_u64().is_some(), "missing {key}");
        }
        // Plain JSON omits the object entirely.
        let json =
            cmd_races(&prog, &log, true, &ClassifierConfig::default(), None, false, false).unwrap();
        assert!(Json::parse(&json).unwrap().field("replay_stats").is_err());
        // Unbatched, each order replays its own prefixes.
        let off = ClassifierConfig { batching: BatchMode::Off, ..ClassifierConfig::default() };
        let out = cmd_races(&prog, &log, false, &off, None, false, true).unwrap();
        let unbatched = "batching: 0 batch(es), 0 forked resume(s), 4 prefix execution(s), ";
        assert!(out.contains(unbatched), "{out}");
        // The engine is a library setting, and `--format json` is the one
        // spelling of JSON: dispatch knows neither `--batch` nor `--json`.
        for flag in ["--batch", "--json"] {
            let args = ["races", &prog.display().to_string(), &log.display().to_string(), flag];
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let e = dispatch(&args).unwrap_err();
            assert!(e.message.contains(&format!("unknown flag {flag:?}")), "{}", e.message);
        }
        let _ = fs::remove_file(prog);
        let _ = fs::remove_file(log);
    }

    #[test]
    fn dispatch_reports_usage_errors() {
        let e = dispatch(&[]).unwrap_err();
        assert!(e.message.contains("usage"));
        let e = dispatch(&["frobnicate".into()]).unwrap_err();
        assert!(e.message.contains("unknown command"));
        let e = dispatch(&["run".into()]).unwrap_err();
        assert!(e.message.contains("missing program path"));
        let e = dispatch(&["run".into(), "--bogus".into()]).unwrap_err();
        assert!(e.message.contains("unknown flag"));
    }

    #[test]
    fn log_container_rejects_garbage() {
        for garbage in [&b"nope"[..], b"IDNAFIL2ga"] {
            assert!(serviced::container::log_from_bytes_mode(garbage, DecodeMode::Strict).is_err());
        }
    }

    #[test]
    fn doctor_reports_a_clean_log() {
        let prog = temp_file("doc.tasm", RACY);
        let log = std::env::temp_dir().join(format!("racerep_doc_{}.idna", std::process::id()));
        cmd_record(&prog, &log, RunConfig::round_robin(1)).unwrap();
        let text = cmd_doctor(&log).unwrap();
        assert!(text.contains("container magic: ok"), "{text}");
        assert!(text.contains("log format: v2, 2 frame(s)"), "{text}");
        assert!(text.contains("verdict: log is clean"), "{text}");
        let _ = fs::remove_file(prog);
        let _ = fs::remove_file(log);
    }

    #[test]
    fn doctor_diagnoses_a_damaged_container() {
        let text_path = temp_file("docbad.idna", "IDNAFIL2 not actually a log");
        let text = cmd_doctor(&text_path).unwrap();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("nothing salvageable"), "{text}");
        let _ = fs::remove_file(text_path);
    }

    /// Builds a container whose *second* frame payload has one flipped bit,
    /// returning the path it was written to.
    fn corrupted_container(tag: &str) -> (PathBuf, PathBuf) {
        let prog = temp_file(&format!("{tag}.tasm"), RACY);
        let program = load_program(&prog).unwrap();
        let schedule = RunConfig::round_robin(1);
        let recording = record(&program, &schedule);
        let mut raw = idna_replay::codec::encode_log(&recording.log);
        let spans = frame_spans(&raw);
        assert_eq!(spans.len(), 2);
        // Flip a bit inside the second frame's payload, past its header.
        raw[spans[1].start + 12 + 2] ^= 0x40;
        let mut container = Vec::from(&FILE_MAGIC[..]);
        let sched_json =
            serviced::container::schedule_to_json(&schedule).to_string_compact().into_bytes();
        container.extend(u32::try_from(sched_json.len()).unwrap().to_le_bytes());
        container.extend(sched_json);
        container.extend(idna_replay::codec::compress(&raw));
        let log_path =
            std::env::temp_dir().join(format!("racerep_{tag}_{}.idna", std::process::id()));
        fs::write(&log_path, &container).unwrap();
        (prog, log_path)
    }

    #[test]
    fn tolerant_races_degrade_on_a_corrupt_frame() {
        let (prog, log_path) = corrupted_container("tol");
        // Strict ingestion refuses the damaged log outright.
        assert!(load_log(&log_path, DecodeMode::Strict).is_err());
        let e =
            cmd_races(&prog, &log_path, false, &ClassifierConfig::default(), None, false, false)
                .unwrap_err();
        assert!(e.message.contains("checksum"), "{}", e.message);
        // Tolerant ingestion salvages the intact frame and reports damage.
        let (_log, _sched, report) = load_log(&log_path, DecodeMode::Tolerant).unwrap();
        assert_eq!(report.damaged_frames(), 1);
        let out =
            cmd_races(&prog, &log_path, false, &ClassifierConfig::default(), None, true, false)
                .unwrap();
        assert!(out.contains("!!! log damage: 1 of 2 frame(s) damaged"), "{out}");
        assert!(out.contains("data race report"), "{out}");
        // Doctor names the damaged frame and points at --tolerant.
        let text = cmd_doctor(&log_path).unwrap();
        assert!(text.contains("checksum"), "{text}");
        assert!(text.contains("races --tolerant"), "{text}");
        // The dispatch layer understands the flag.
        let args: Vec<String> = vec![
            "races".into(),
            prog.display().to_string(),
            log_path.display().to_string(),
            "--tolerant".into(),
        ];
        assert!(dispatch(&args).is_ok());
        let _ = fs::remove_file(prog);
        let _ = fs::remove_file(log_path);
    }

    #[test]
    fn disasm_normalizes() {
        let prog = temp_file("d.tasm", RACY);
        let text = cmd_disasm(&prog).unwrap();
        assert!(text.contains(".thread writer"));
        assert!(text.contains("st [r15+32], r1"));
        // The annotation markers: pc comments, `m` on the store.
        assert!(text.contains("; @1 m"), "{text}");
        // Round-trips through the assembler.
        assert!(tvm::asm::assemble(&text).is_ok());
        let _ = fs::remove_file(prog);
    }

    #[test]
    fn lint_reports_candidates_without_running() {
        let prog = temp_file("lint.tasm", RACY);
        let (text, code) = cmd_lint(&prog, false, FailOn::None).unwrap();
        assert!(text.contains("may-race candidate"), "{text}");
        assert_eq!(code, 0);
        let (json, _) = cmd_lint(&prog, true, FailOn::None).unwrap();
        let doc = Json::parse(&json).unwrap();
        let stats = doc.field("stats").unwrap();
        assert_eq!(stats.field("candidate_pairs").unwrap().as_u64(), Some(1));
        assert!(!doc.field("warnings").unwrap().as_arr().unwrap().is_empty());
        let _ = fs::remove_file(prog);
    }

    #[test]
    fn lint_fail_on_gates_the_exit_code() {
        // RACY's store/load pair matches no benign idiom, so it trips both
        // the harmful and warnings gates.
        let prog = temp_file("lintgate.tasm", RACY);
        let (_, code) = cmd_lint(&prog, false, FailOn::Harmful).unwrap();
        assert_eq!(code, 1);
        let (_, code) = cmd_lint(&prog, false, FailOn::Warnings).unwrap();
        assert_eq!(code, 1);
        let _ = fs::remove_file(prog);

        // A redundant-write pair is predicted benign: `harmful` passes,
        // `warnings` still gates.
        let benign = "\
.global 0x20 7
.thread a
  movi r1, 7
  st [r15+32], r1
  halt
.thread b
  movi r1, 7
  st [r15+32], r1
  halt
";
        let prog = temp_file("lintgate2.tasm", benign);
        let (_, code) = cmd_lint(&prog, false, FailOn::Harmful).unwrap();
        assert_eq!(code, 0);
        let (_, code) = cmd_lint(&prog, false, FailOn::Warnings).unwrap();
        assert_eq!(code, 1);
        // Race-free programs pass every gate.
        let _ = fs::remove_file(prog);
        let prog = temp_file("lintgate3.tasm", ".thread a\n  movi r1, 1\n  halt\n");
        let (_, code) = cmd_lint(&prog, false, FailOn::Warnings).unwrap();
        assert_eq!(code, 0);
        let _ = fs::remove_file(prog);

        // Dispatch surfaces the gate's code and rejects bad modes.
        let prog = temp_file("lintgate4.tasm", RACY);
        let args: Vec<String> =
            vec!["lint".into(), prog.display().to_string(), "--fail-on".into(), "harmful".into()];
        let (_, code) = dispatch_with_status(&args).unwrap();
        assert_eq!(code, 1);
        let args: Vec<String> =
            vec!["lint".into(), prog.display().to_string(), "--fail-on".into(), "sometimes".into()];
        let e = dispatch_with_status(&args).unwrap_err();
        assert!(e.message.contains("fail-on mode"), "{}", e.message);
        let _ = fs::remove_file(prog);
    }

    #[test]
    fn dispatch_understands_format_and_lint() {
        let prog = temp_file("lintfmt.tasm", RACY);
        let args: Vec<String> =
            vec!["lint".into(), prog.display().to_string(), "--format".into(), "json".into()];
        let out = dispatch(&args).unwrap();
        assert!(Json::parse(&out).is_ok(), "{out}");
        let args: Vec<String> =
            vec!["lint".into(), prog.display().to_string(), "--format".into(), "yaml".into()];
        let e = dispatch(&args).unwrap_err();
        assert!(e.message.contains("--format must be text or json"));
        let _ = fs::remove_file(prog);
    }

    #[test]
    fn trust_static_flag_skips_replays_for_predicted_benign_races() {
        // Two threads redundantly store the same constant the global
        // already holds: spot-on for the redundant-write recognizer.
        let src = "\
.global 0x20 7
.thread a
  movi r1, 7
  st [r15+32], r1
  halt
.thread b
  movi r1, 7
  st [r15+32], r1
  halt
";
        let prog = temp_file("trust.tasm", src);
        let trusted = ClassifierConfig {
            trust_static: TrustStatic::SkipAgreedBenign,
            ..ClassifierConfig::default()
        };
        let out = cmd_classify(&prog, RunConfig::round_robin(1), false, &trusted, false).unwrap();
        assert!(out.contains("recorded benign on static authority"), "{out}");
        assert!(out.contains("potentially benign"), "{out}");
        assert!(out.contains("0 vproc replays"), "{out}");
        // The default config replays instead of skipping.
        let out = cmd_classify(
            &prog,
            RunConfig::round_robin(1),
            false,
            &ClassifierConfig::default(),
            false,
        )
        .unwrap();
        assert!(!out.contains("static authority"), "{out}");
        // Flag parsing: bad modes are reported.
        let args: Vec<String> = vec![
            "classify".into(),
            prog.display().to_string(),
            "--trust-static".into(),
            "maybe".into(),
        ];
        let e = dispatch(&args).unwrap_err();
        assert!(e.message.contains("trust-static mode"), "{}", e.message);
        let _ = fs::remove_file(prog);
    }

    /// A race whose value is consumed and then discarded: no benign idiom
    /// matches (the read is live), but the value-impact pass proves the
    /// tainted registers are dead before anything observable.
    const DEAD_IMPACT: &str = "\
.thread w
  movi r1, 5
  st [r15+32], r1
  halt
.thread r
  ld r1, [r15+32]
  add r2, r1, r1
  movi r1, 0
  movi r2, 0
  halt
";

    #[test]
    fn trust_static_skip_unreachable_skips_dead_impact_races() {
        let prog = temp_file("trustimpact.tasm", DEAD_IMPACT);
        let trusted = ClassifierConfig {
            trust_static: TrustStatic::SkipUnreachable,
            ..ClassifierConfig::default()
        };
        let out = cmd_classify(&prog, RunConfig::round_robin(1), false, &trusted, false).unwrap();
        assert!(out.contains("recorded benign on static authority"), "{out}");
        assert!(out.contains("0 vproc replays"), "{out}");
        // skip-benign alone does not cover it: the load is live, so no
        // idiom predicts benign at high confidence.
        let benign_only = ClassifierConfig {
            trust_static: TrustStatic::SkipAgreedBenign,
            ..ClassifierConfig::default()
        };
        let out =
            cmd_classify(&prog, RunConfig::round_robin(1), false, &benign_only, false).unwrap();
        assert!(!out.contains("static authority"), "{out}");
        // The combined spelling parses through dispatch.
        let args: Vec<String> = vec![
            "classify".into(),
            prog.display().to_string(),
            "--trust-static".into(),
            "skip-benign,skip-unreachable".into(),
        ];
        assert!(dispatch(&args).is_ok());
        let _ = fs::remove_file(prog);
    }

    #[test]
    fn lint_fail_on_harmful_passes_impact_unreachable_warnings() {
        let prog = temp_file("lintimpact.tasm", DEAD_IMPACT);
        // The warning is predicted harmful but impact-unreachable…
        let (json, _) = cmd_lint(&prog, true, FailOn::None).unwrap();
        let doc = Json::parse(&json).unwrap();
        let w = &doc.field("warnings").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.field("predicted").unwrap().as_str(), Some("harmful"), "{json}");
        assert_eq!(w.field("impact").unwrap().as_str(), Some("unreachable"), "{json}");
        // …so the harmful gate passes while the warnings gate still trips.
        let (_, code) = cmd_lint(&prog, false, FailOn::Harmful).unwrap();
        assert_eq!(code, 0);
        let (_, code) = cmd_lint(&prog, false, FailOn::Warnings).unwrap();
        assert_eq!(code, 1);
        let _ = fs::remove_file(prog);
    }

    #[test]
    fn load_errors_point_at_the_source_line() {
        let prog = temp_file("bad.tasm", ".thread t\n  movi r1, 1\n  frobnicate r1\n  halt\n");
        let e = load_program(&prog).unwrap_err();
        let expect = format!("{}:3: ", prog.display());
        assert!(e.message.contains(&expect), "{}", e.message);
        assert!(e.message.contains("3 |   frobnicate r1"), "{}", e.message);
        let _ = fs::remove_file(prog);
    }
}
