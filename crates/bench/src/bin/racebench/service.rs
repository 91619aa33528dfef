//! The service workloads: an in-process `racerepd` server on an ephemeral
//! port, driven over TCP by one closed-loop client.
//!
//! `service-warm` resubmits the one recording the server classified during
//! set-up (the store read path); `service-cold` submits a never-seen
//! recording every time (the store write path). The server's cache
//! directory lives under `.racebench/` in the working directory and is
//! removed, with the server stopped and its port released, on every exit
//! path that unwinds.

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use idna_replay::codec::LogWriter;
use idna_replay::recorder::record;
use minijson::Json;
use replay_race::classify::TrustStatic;
use serviced::{client, Server, ServerConfig};
use tvm::machine::Machine;
use tvm::predecode::DecodedProgram;
use tvm::scheduler::{run_native, RunConfig};
use tvm::Program;
use workloads::browser::{browser_program, BrowserConfig};

use crate::harness::{Finish, Scale, Workload};
use crate::inproc::{reference, report_json, schedule};
use crate::trace::OpTrace;

/// Where scratch state (service cache directories) goes.
pub const SCRATCH: &str = ".racebench";

/// The mid-size browser both service workloads submit. A submit of it
/// looks up 5.6k–6.2k pair outcomes, always more than the server's default
/// 4,096-entry memory layer holds, so warm lookups read the segment files
/// on every seed rather than on some seeds only.
fn service_browser(scale: Scale) -> BrowserConfig {
    match scale {
        Scale::Full => BrowserConfig { fetchers: 6, parsers: 6, jobs: 32, work: 32 },
        Scale::Smoke => BrowserConfig::default(),
    }
}

/// Removes cache directories left behind by benchmark processes that no
/// longer exist (killed before they could clean up).
fn sweep_stale(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.strip_prefix("svc-")?.split('-').next())
        else {
            continue;
        };
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// A running server. Dropping it drains the server, joins its thread
/// (releasing the port) and deletes its cache directory.
struct ServerGuard {
    addr: String,
    dir: PathBuf,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl ServerGuard {
    fn start() -> Result<ServerGuard, String> {
        static STARTED: AtomicU64 = AtomicU64::new(0);
        let root = Path::new(SCRATCH);
        sweep_stale(root);
        let n = STARTED.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("svc-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut guard = ServerGuard { addr: String::new(), dir, thread: None };
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: Some(guard.dir.clone()),
            ..ServerConfig::default()
        })?;
        guard.addr = server.local_addr()?.to_string();
        guard.thread = Some(std::thread::spawn(move || server.run()));
        Ok(guard)
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = client::shutdown(&self.addr);
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One recording, ready to submit.
pub struct Submission {
    run: RunConfig,
    request: Json,
    request_bytes: u64,
}

/// The report a `result` response carries, as one-shot `races --format
/// json` prints it, plus the response's `replays` and `store_hits`.
fn unpack(response: &Json) -> Result<(String, u64, u64), String> {
    match response.get("type").and_then(Json::as_str) {
        Some("result") => {}
        Some("busy") => return Err("rejected: server busy".into()),
        other => return Err(format!("unexpected response type {other:?}")),
    }
    let report = response.get("report").ok_or("response carries no report")?.to_string_pretty();
    let count = |key| response.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok((report, count("replays"), count("store_hits")))
}

fn hash_of(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

fn log_hash(request: &Json) -> u64 {
    hash_of(request.get("log").and_then(Json::as_str).unwrap_or_default())
}

enum Mode {
    /// The primed recording and its reference report.
    Warm(Box<(Submission, String)>),
    /// The next schedule index and the logs the server has seen; what the
    /// server answered for each fresh schedule, checked against references
    /// once the timed phase is over.
    Cold { fresh: Mutex<(u64, HashSet<u64>)>, answered: Mutex<Vec<(RunConfig, u64)>> },
}

/// `service-warm` and `service-cold`.
pub struct Service {
    seed: u64,
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    source: String,
    mode: Mode,
    stats_at_begin: Mutex<Option<Json>>,
    server: ServerGuard,
}

impl Service {
    /// Starts a server and primes it with one recording, the seed's first
    /// schedule. The warm client resubmits it; the cold client never does,
    /// but priming fills the server's in-memory cache layer, so cold
    /// submits are timed at steady state.
    ///
    /// # Errors
    ///
    /// A server that cannot start, or a priming submit that fails or
    /// disagrees with its reference.
    pub fn setup(scale: Scale, seed: u64, warm: bool) -> Result<Service, String> {
        let built = browser_program(&service_browser(scale));
        // The server assembles the submitted source: record and check
        // against the same assembled program.
        let source = tvm::asm::disassemble_annotated(&built);
        let program = Arc::new(tvm::asm::assemble(&source).map_err(|e| e.message)?);
        let decoded = Arc::new(DecodedProgram::new(Arc::clone(&program)));
        let server = ServerGuard::start()?;
        let mut service = Service {
            seed,
            program,
            decoded,
            source,
            mode: Mode::Cold { fresh: Mutex::default(), answered: Mutex::default() },
            stats_at_begin: Mutex::new(None),
            server,
        };
        let submission = service.submission(schedule(seed, 0));
        let want = report_json(&reference(&service.program, &submission.run, TrustStatic::Off)?);
        let (got, _, _) = unpack(&client::request(&service.server.addr, &submission.request)?)?;
        if got != want {
            return Err("priming submit: report differs from the reference".into());
        }
        service.mode = if warm {
            Mode::Warm(Box::new((submission, want)))
        } else {
            let seen = HashSet::from([log_hash(&submission.request)]);
            Mode::Cold { fresh: Mutex::new((1, seen)), answered: Mutex::default() }
        };
        Ok(service)
    }

    fn submission(&self, run: RunConfig) -> Submission {
        let recording = record(&self.program, &run);
        let container =
            serviced::container::log_to_bytes_with(&recording.log, &run, &mut LogWriter::new());
        let request = client::submit_request(&self.source, &container);
        let request_bytes = request.to_string_compact().len() as u64;
        Submission { run, request, request_bytes }
    }

    /// A recording whose log this server has never seen.
    fn fresh_submission(&self, fresh: &Mutex<(u64, HashSet<u64>)>) -> Submission {
        loop {
            let k = {
                let mut state = fresh.lock().expect("no panics under the schedule lock");
                state.0 += 1;
                state.0 - 1
            };
            let submission = self.submission(schedule(self.seed, k));
            let hash = log_hash(&submission.request);
            if fresh.lock().expect("no panics under the schedule lock").1.insert(hash) {
                return submission;
            }
        }
    }

    fn stats(&self) -> Result<Json, String> {
        client::stats(&self.server.addr)
    }
}

/// Input of one service op: the primed recording (warm) or a fresh one (cold).
pub enum ServiceInput {
    Primed,
    Fresh(Submission),
}

impl Workload for Service {
    type Input = ServiceInput;
    type Output = Json;

    /// A submit's work runs on a server worker thread, which the scheduler
    /// may put on the other core than the client's calibration walk. Over
    /// ten runs in a stretch of heavy tenant load, scaling by the walk
    /// spread these workloads' median latencies by 13–15%; unscaled, by
    /// 2.5–5.6%.
    const SCALED: bool = false;

    fn input(&self, _index: u64) -> Result<ServiceInput, String> {
        Ok(match &self.mode {
            Mode::Warm(_) => ServiceInput::Primed,
            Mode::Cold { fresh, .. } => ServiceInput::Fresh(self.fresh_submission(fresh)),
        })
    }

    fn op(&self, input: &ServiceInput, t: &mut OpTrace<'_>) -> Result<Json, String> {
        let submission = match (input, &self.mode) {
            (ServiceInput::Primed, Mode::Warm(primed)) => &primed.0,
            (ServiceInput::Fresh(submission), _) => submission,
            (ServiceInput::Primed, Mode::Cold { .. }) => unreachable!("cold inputs are fresh"),
        };
        let response = t.time("serviced.client.request", || {
            client::request(&self.server.addr, &submission.request)
        })?;
        let replays = response.get("replays").and_then(Json::as_u64).unwrap_or(0);
        t.note(
            submission.request_bytes as usize,
            &[
                ("serviced.client.request_bytes", submission.request_bytes),
                ("core.classify.vproc_replays", replays),
            ],
        );
        Ok(response)
    }

    fn check(&self, input: ServiceInput, response: Json) -> Result<(), String> {
        let (report, replays, store_hits) = unpack(&response)?;
        match (input, &self.mode) {
            (ServiceInput::Primed, Mode::Warm(primed)) => {
                if report != primed.1 {
                    return Err("warm report differs from the reference".into());
                }
                if replays != 0 {
                    return Err(format!("warm submit ran {replays} vproc replays, expected 0"));
                }
            }
            (ServiceInput::Fresh(submission), Mode::Cold { answered, .. }) => {
                if store_hits != 0 {
                    return Err(format!(
                        "cold submit hit the store {store_hits} times, expected 0"
                    ));
                }
                answered
                    .lock()
                    .expect("no panics under the answer lock")
                    .push((submission.run, hash_of(&report)));
            }
            _ => unreachable!("inputs come from this workload's mode"),
        }
        Ok(())
    }

    fn begin(&self) -> Result<(), String> {
        *self.stats_at_begin.lock().expect("single-threaded hook") = Some(self.stats()?);
        Ok(())
    }

    fn end(&self, mean_latency_ms: f64) -> Result<Finish, String> {
        let before = self
            .stats_at_begin
            .lock()
            .expect("single-threaded hook")
            .take()
            .ok_or("end before begin")?;
        let after = self.stats()?;
        let delta = |path: &[&str]| -> f64 {
            let read = |doc: &Json| {
                path.iter().try_fold(doc, |d, k| d.get(k)).and_then(Json::as_u64).unwrap_or(0)
            };
            read(&after).saturating_sub(read(&before)) as f64
        };
        let jobs = delta(&["jobs", "completed"]).max(1.0);
        let phase_ms = |phase| delta(&["phase_ns", phase]) / 1e6 / jobs;
        let phases = ["decode", "replay", "detect", "classify", "report"].map(phase_ms);
        let cache = |key| delta(&["cache", key]);
        let lookups = cache("mem_hits") + cache("persisted_hits") + cache("misses");
        let mut finish = Finish {
            metrics: vec![
                ("serviced.server.decode_ms", phases[0]),
                ("serviced.server.replay_ms", phases[1]),
                ("serviced.server.detect_ms", phases[2]),
                ("serviced.server.classify_ms", phases[3]),
                ("serviced.server.report_ms", phases[4]),
                ("serviced.server.residual_ms", mean_latency_ms - phases.iter().sum::<f64>()),
                ("serviced.server.rejected", delta(&["jobs", "rejected"])),
                ("serviced.server.failed", delta(&["jobs", "failed"])),
                ("serviced.cache.mem_hits", cache("mem_hits") / jobs),
                ("serviced.cache.persisted_hits", cache("persisted_hits") / jobs),
                ("serviced.cache.misses", cache("misses") / jobs),
                ("serviced.cache.lookups_per_submit", lookups / jobs),
                (
                    "serviced.cache.mem_hit_ratio",
                    if lookups > 0.0 { cache("mem_hits") / lookups } else { 0.0 },
                ),
                ("serviced.cache.persisted_writes", cache("persisted_writes") / jobs),
                ("serviced.cache.disk_bytes", cache("disk_bytes") / jobs),
            ],
            ..Finish::default()
        };
        if let Mode::Cold { answered, .. } = &self.mode {
            let answered =
                std::mem::take(&mut *answered.lock().expect("no panics under the answer lock"));
            for (run, got) in answered {
                let want =
                    hash_of(&report_json(&reference(&self.program, &run, TrustStatic::Off)?));
                if got != want {
                    finish.late_failures += 1;
                    finish
                        .errors
                        .push(format!("cold report for {run:?} differs from the reference"));
                }
            }
        }
        Ok(finish)
    }

    fn native_run(&self, _index: u64) -> u64 {
        let run = schedule(self.seed, 0);
        run_native(&mut Machine::with_decoded(Arc::clone(&self.decoded)), &run).steps
    }
}
