//! `racebench`: the end-to-end benchmark of the replay-race pipeline and
//! service, one command over four workloads, with a traced mode that
//! splits each op into its layers.
//!
//! ```sh
//! cargo run --release -p bench --bin racebench -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]
//! cargo run --release -p bench --bin racebench -- trace-summary DIR/trace-NAME.jsonl
//! ```
//!
//! Each workload prints its metrics by name with their units, then, as the
//! last line of standard output, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics,
//! traced runs the per-layer ones. The in-process workloads' times are
//! scaled to a reference machine speed (see `speed.rs`); the wall-clock
//! figures are printed alongside. Without `--workload` every workload runs in a child process
//! of its own, so set-up time and peak memory stay per workload. The exit
//! code is 1 when any op's output was wrong. See README.md for the
//! workloads, the metrics and the layer map.

mod harness;
mod heap;
mod inproc;
mod service;
mod speed;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use minijson::Json;

use harness::{
    closed_loop, native, peak_rss_mb, percentile, repeated_setup, Length, Scale, Workload,
};
use inproc::{BrowserOneshot, CorpusTriage, DEFAULT_SEED};
use service::Service;
use speed::{scaled, Calibrator, REFERENCE_MS};
use trace::Span;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// The workloads, in the order a full run takes them.
const WORKLOADS: &[&str] = &["browser-oneshot", "corpus-triage", "service-warm", "service-cold"];

/// Metrics of an untraced run, with units. Times are scaled to the
/// reference speed on the workloads that scale (see `Workload::SCALED`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// Metrics of a traced run, with units. Times are mean self time per op,
/// scaled by the run's `racebench.time_scale` (1 on the workloads that do
/// not scale); counts are means per op. A layer a workload never calls
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("idna.recorder.record_ms", "ms"),
    ("idna.recorder.instructions", "count"),
    ("idna.codec.encode_ms", "ms"),
    ("idna.codec.decode_ms", "ms"),
    ("idna.codec.container_bytes", "bytes"),
    ("idna.replayer.replay_ms", "ms"),
    ("core.detect.detect_ms", "ms"),
    ("core.detect.races", "count"),
    ("core.detect.instances", "count"),
    ("racecheck.analyze_ms", "ms"),
    ("racecheck.candidate_pairs", "count"),
    ("racecheck.warnings", "count"),
    ("core.classify.classify_ms", "ms"),
    ("core.classify.vproc_replays", "count"),
    ("core.classify.region_executions", "count"),
    ("core.classify.forks", "count"),
    ("core.classify.prefix_instrs_saved", "count"),
    ("core.classify.replays_per_instance", "ratio"),
    ("core.classify.static_skipped_races", "count"),
    ("core.report.report_ms", "ms"),
    ("core.report.json_bytes", "bytes"),
    ("tvm.native_ms", "ms"),
    ("tvm.native_minstr_s", "Minstr/s"),
    ("serviced.client.request_bytes", "bytes"),
    ("serviced.server.decode_ms", "ms"),
    ("serviced.server.replay_ms", "ms"),
    ("serviced.server.detect_ms", "ms"),
    ("serviced.server.classify_ms", "ms"),
    ("serviced.server.report_ms", "ms"),
    ("serviced.server.residual_ms", "ms"),
    ("serviced.server.rejected", "count"),
    ("serviced.server.failed", "count"),
    ("serviced.cache.mem_hits", "count"),
    ("serviced.cache.persisted_hits", "count"),
    ("serviced.cache.misses", "count"),
    ("serviced.cache.lookups_per_submit", "count"),
    ("serviced.cache.mem_hit_ratio", "ratio"),
    ("serviced.cache.persisted_writes", "count"),
    ("serviced.cache.disk_bytes", "bytes"),
    ("racebench.trace_overhead", "%"),
    ("racebench.time_scale", "ratio"),
];

/// Set-ups per run; `setup_s` is their median. A single set-up's time
/// varies by up to a third from run to run.
const SETUPS: usize = 3;

/// Untimed ops before the timed phase.
const WARMUP_OPS: u64 = 2;

/// Timed ops per workload in smoke mode.
const SMOKE_OPS: u64 = 3;

/// Minimum length of the native-run loop behind `tvm.native_*`.
const NATIVE_LOOP: Duration = Duration::from_millis(200);

/// Run options.
#[derive(Clone, Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    smoke: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 28.0,
            trace: false,
            trace_dir: PathBuf::from(service::SCRATCH),
            smoke: false,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                options.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    options.workload = Some(value.clone());
                }
                "--workload" => {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
                }
                "--seed" => options.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => options.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    options.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--trace-dir" => options.trace_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(options)
    }

    fn child_args(&self, workload: &str) -> Vec<String> {
        let mut args = vec![
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
            "--trace-dir".into(),
            self.trace_dir.display().to_string(),
        ];
        if self.smoke {
            args.push("--smoke".into());
        }
        args
    }
}

/// What one workload run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Name, value, unit — in [`END_TO_END`] or [`PER_LAYER`] order.
    metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed ahead of the result.
    notes: Vec<String>,
    /// Per-layer metric names this workload actually measured.
    measured: BTreeSet<String>,
    spans: Vec<Span>,
}

impl Outcome {
    fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.as_str(),
                    Json::obj(vec![
                        ("value", Json::from(*value)),
                        ("unit", Json::str(unit.as_str())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn run_workload(name: &str, options: &Options) -> Result<Outcome, String> {
    let scale = if options.smoke { Scale::Smoke } else { Scale::Full };
    let seed = options.seed;
    match name {
        "browser-oneshot" => measure(name, options, || BrowserOneshot::setup(scale, seed)),
        "corpus-triage" => measure(name, options, || CorpusTriage::setup(scale)),
        "service-warm" => measure(name, options, || Service::setup(scale, seed, true)),
        "service-cold" => measure(name, options, || Service::setup(scale, seed, false)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn measure<W: Workload>(
    name: &str,
    options: &Options,
    setup: impl Fn() -> Result<W, String>,
) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut calibrator = Calibrator::new();
    // Smoke mode still sets up twice, so it covers tearing a set-up down.
    let (setups, length, warmup) = if options.smoke {
        (2, Length::Ops(SMOKE_OPS), 1)
    } else {
        (SETUPS, Length::Seconds(options.seconds), WARMUP_OPS)
    };
    let (workload, setup_seconds) = repeated_setup(setups, &mut calibrator, setup)?;
    let (measured, finish) =
        closed_loop(&workload, &mut calibrator, name, length, warmup, options.trace, origin)?;
    let mut errors = measured.errors.clone();
    errors.extend(finish.errors);
    let attempted = measured.samples.len() as u64;
    let wall_ms: Vec<f64> = measured.samples.iter().map(|s| s.ms).collect();
    let walks: Vec<f64> = measured.samples.iter().map(|s| s.walk_ms).collect();
    // The factor that scales the run as a whole, for what is not timed per op.
    let (scaled_ms, time_scale) = if W::SCALED {
        (scaled(&measured.timings()), REFERENCE_MS / percentile(&walks, 0.5))
    } else {
        (wall_ms.clone(), 1.0)
    };
    let mut notes = vec![
        format!(
            "{name}: {attempted} ops from 1 client, {} failed (failed_ratio {})",
            measured.failed,
            measured.failed as f64 / attempted.max(1) as f64,
        ),
        format!(
            "{name}: wall-clock latency p50 {:.3} ms, p90 {:.3} ms; calibration walk p50 {:.4} ms \
             against {REFERENCE_MS} ms; times scaled by {time_scale:.4}",
            percentile(&wall_ms, 0.5),
            percentile(&wall_ms, 0.9),
            percentile(&walks, 0.5),
        ),
    ];
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let (names, mut measured_names) = if options.trace {
        let folds = trace::fold(&measured.spans);
        if let Some(fold) = folds.get(name) {
            for layer in fold.layers.keys() {
                values.insert(format!("{layer}_ms"), fold.self_ms_per_op(layer));
            }
            for counter in fold.counts.keys() {
                values.insert(counter.clone(), fold.count_per_op(counter));
            }
            notes.push(format!(
                "{name}: layer spans cover {:.2}% of traced op time",
                fold.coverage() * 100.0
            ));
        }
        let instances = values.get("core.detect.instances").copied().unwrap_or(0.0);
        if instances > 0.0 {
            let replays = values.get("core.classify.vproc_replays").copied().unwrap_or(0.0);
            values.insert("core.classify.replays_per_instance".into(), replays / instances);
        }
        for (metric, value) in &finish.metrics {
            values.insert((*metric).to_string(), *value);
        }
        let (native_ms, native_minstr_s) = native(&workload, NATIVE_LOOP);
        values.insert("tvm.native_ms".into(), native_ms);
        values.insert("tvm.native_minstr_s".into(), native_minstr_s);
        for (metric, unit) in PER_LAYER {
            let scale = match *unit {
                "ms" => time_scale,
                "Minstr/s" => 1.0 / time_scale,
                _ => continue,
            };
            values.entry((*metric).to_string()).and_modify(|v| *v *= scale);
        }
        let half = |traced: bool| -> Vec<f64> {
            let ops = measured.samples.iter().zip(&scaled_ms);
            ops.filter(|(s, _)| s.traced == traced).map(|(_, &ms)| ms).collect()
        };
        let (untraced, traced) = (half(false), half(true));
        let (untraced_p50, traced_p50) = (percentile(&untraced, 0.5), percentile(&traced, 0.5));
        if untraced_p50 > 0.0 {
            let overhead = (traced_p50 - untraced_p50) / untraced_p50 * 100.0;
            values.insert("racebench.trace_overhead".into(), overhead);
        }
        values.insert("racebench.time_scale".into(), time_scale);
        notes.push(format!(
            "{name}: latency_p50_ms {untraced_p50:.3} untraced ({} ops), {traced_p50:.3} traced ({} ops)",
            untraced.len(),
            traced.len(),
        ));
        (PER_LAYER, values.keys().cloned().collect())
    } else {
        values.insert("setup_s".into(), percentile(&setup_seconds, 0.5));
        values.insert("latency_p50_ms".into(), percentile(&scaled_ms, 0.5));
        values.insert("latency_p90_ms".into(), percentile(&scaled_ms, 0.9));
        values.insert("peak_heap_mb".into(), measured.peak_heap_mb);
        notes.push(format!(
            "{name}: latency over {attempted} samples; scaled set-ups {setup_seconds:?} s; \
             peak resident set {:.1} MiB",
            peak_rss_mb(),
        ));
        (END_TO_END, BTreeSet::new())
    };
    measured_names.retain(|n| names.iter().any(|(m, _)| m == n));
    let metrics = names
        .iter()
        .map(|(metric, unit)| {
            (metric.to_string(), values.get(*metric).copied().unwrap_or(0.0), unit.to_string())
        })
        .collect();
    Ok(Outcome {
        attempted,
        failed: measured.failed,
        errors,
        metrics,
        notes,
        measured: measured_names,
        spans: measured.spans,
    })
}

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, options: &Options) -> Result<i32, String> {
    let outcome = run_workload(name, options)?;
    for note in &outcome.notes {
        println!("{note}");
    }
    for error in &outcome.errors {
        println!("{name}: FAILED {error}");
    }
    for (metric, value, unit) in &outcome.metrics {
        println!("{name}: {metric} = {value} {unit}");
    }
    if options.trace {
        let off_path: Vec<&str> =
            PER_LAYER.iter().map(|(n, _)| *n).filter(|n| !outcome.measured.contains(*n)).collect();
        println!("{name}: layers off this workload's path, reported as 0: {}", off_path.join(", "));
        std::fs::create_dir_all(&options.trace_dir)
            .map_err(|e| format!("cannot create {}: {e}", options.trace_dir.display()))?;
        let path = options.trace_dir.join(format!("trace-{name}.jsonl"));
        let mut text = String::new();
        for span in &outcome.spans {
            text.push_str(&span.to_json().to_string_compact());
            text.push('\n');
        }
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("{name}: op-log of {} spans in {}", outcome.spans.len(), path.display());
    }
    println!("{}", outcome.result_json().to_string_compact());
    Ok(i32::from(outcome.failed != 0))
}

/// Runs every workload, each in a child process of this binary, and
/// prints a combined result whose metric names are prefixed with the
/// workload's.
fn run_all(options: &Options) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let output = Command::new(&exe)
            .args(options.child_args(name))
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let result = Json::parse(last)
            .map_err(|_| format!("{name} exited with {} and printed no result", output.status))?;
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (metric, value) in result.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
            metrics.push((format!("{name}.{metric}"), value.clone()));
        }
    }
    let metrics = metrics.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let doc = Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", doc.to_string_compact());
    Ok(i32::from(!correct))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trace-summary") => match args.get(1) {
            Some(path) => trace::summary(std::path::Path::new(path)).map(|text| {
                print!("{text}");
                0
            }),
            None => Err("trace-summary needs the op-log path".into()),
        },
        _ => Options::parse(&args).and_then(|options| match &options.workload {
            Some(name) => run_one(name, &options),
            None => run_all(&options),
        }),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("racebench: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units `BENCHMARK.json` at the repository root
    /// lists under `key`. The path is relative to this file, so it holds
    /// under both manifests that build it.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn listed(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        assert_eq!(declared("end_to_end"), listed(END_TO_END));
        assert_eq!(declared("per_layer"), listed(PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
        }
    }

    #[test]
    fn smoke_runs_every_workload_correctly_and_traces_nest() {
        let mut measured_anywhere = BTreeSet::new();
        for name in WORKLOADS {
            for trace in [false, true] {
                let options = Options {
                    workload: Some(name.to_string()),
                    seed: DEFAULT_SEED,
                    seconds: 0.0,
                    trace,
                    trace_dir: PathBuf::from(service::SCRATCH),
                    smoke: true,
                };
                let outcome = run_workload(name, &options).expect("workload runs");
                assert_eq!(
                    (outcome.attempted, outcome.failed),
                    (SMOKE_OPS, 0),
                    "{name}: {:?}",
                    outcome.errors
                );
                let want = if trace { PER_LAYER } else { END_TO_END };
                let got: Vec<&str> = outcome.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
                assert_eq!(got, want.iter().map(|(n, _)| *n).collect::<Vec<_>>(), "{name}");
                trace::check_nesting(&outcome.spans).expect("spans nest");
                assert_eq!(outcome.spans.is_empty(), !trace, "{name}: spans only when traced");
                measured_anywhere.extend(outcome.measured);
            }
        }
        let unmeasured: Vec<&str> =
            PER_LAYER.iter().map(|(n, _)| *n).filter(|n| !measured_anywhere.contains(*n)).collect();
        assert!(unmeasured.is_empty(), "no workload measures {unmeasured:?}");
    }
}
