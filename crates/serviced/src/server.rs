//! The racerepd server: accept loop, bounded job queue, worker pool, and
//! graceful drain.
//!
//! # Shape
//!
//! One acceptor thread (the caller of [`Server::run`]) owns the listener
//! and blocks in `accept`, so a request is read the moment it connects;
//! cheap requests (`stats`, `shutdown`) are answered inline, `submit`
//! requests go through explicit admission control into a bounded queue.
//! When the queue is full the client is told to come back
//! (`retry_after_ms`), never silently buffered — under overload the server
//! sheds load instead of growing without bound.
//!
//! Worker threads pop jobs and run the one analysis path from a log to a
//! report, [`analyze_log`], with `jobs = 1`: each worker *is* one engine
//! lane, so a pool of N workers classifies N submissions concurrently
//! without oversubscribing, and each worker's single [`Vproc`] reuses its
//! snapshot arena across every replay of a job. With a cache directory, a
//! worker looks the workload up in the [`ReportCache`] as soon as the
//! program is assembled and the log base64-decoded: a hit answers with the
//! record's report text, spliced into the response frame unparsed, and
//! zero virtual-processor executions; a miss renders its report once and
//! sends that text to both its new record and the response.
//!
//! Drain (SIGTERM/ctrl-c on unix, or a protocol `shutdown` request) stops
//! the accept loop, lets the workers finish every queued job, and
//! returns. The acceptor answers `shutdown` itself and stops; a signal is
//! noticed by a watcher thread, which releases the blocked `accept` with
//! one connection of its own. A connection accepted once drain has begun
//! is closed unread.
//!
//! [`Vproc`]: idna_replay::vproc::Vproc
//! [`analyze_log`]: replay_race::pipeline::analyze_log

use std::io::Write as _;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use minijson::Json;
use replay_race::classify::ClassifierConfig;
use replay_race::detect::DetectorConfig;
use replay_race::pipeline::analyze_log;
use tvm::asm::assemble;
use tvm::predecode::DecodedProgram;

use crate::cache::{ReportCache, WorkloadKey};
use crate::container::log_from_bytes_mode;
use crate::proto::{b64_decode, frame_parts, read_frame, write_frame, ProtoError};
use idna_replay::codec::DecodeMode;

/// Server options (the `racerep serve` flags).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7199` (port 0 picks an ephemeral
    /// port; see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads classifying submissions concurrently.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected with a
    /// retry hint.
    pub queue_capacity: usize,
    /// Directory for the persistent report cache; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// The classification engine configuration, honored as `racerep races`
    /// honors it. `jobs` is forced to 1 per worker — the pool is the
    /// parallelism.
    pub classifier: ClassifierConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7199".into(),
            workers: 2,
            queue_capacity: 64,
            cache_dir: None,
            classifier: ClassifierConfig::default(),
        }
    }
}

/// Monotone counters exposed through the `stats` request.
#[derive(Default, Debug)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    /// Per-phase wall-clock nanos, summed across jobs, from each job's
    /// `PhaseTimings`; `decode` also covers assembly and base64, and
    /// `report` the render and record write.
    decode_ns: AtomicU64,
    replay_ns: AtomicU64,
    detect_ns: AtomicU64,
    classify_ns: AtomicU64,
    report_ns: AtomicU64,
}

/// One queued submission: the parsed request plus the stream to answer on.
struct Job {
    stream: TcpStream,
    doc: Json,
}

struct Shared {
    config: ServerConfig,
    queue: Mutex<std::collections::VecDeque<Job>>,
    available: Condvar,
    draining: AtomicBool,
    counters: Counters,
    cache: Option<ReportCache>,
    started: Instant,
}

/// A running classification service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Milliseconds a rejected client should wait before retrying.
const RETRY_AFTER_MS: u64 = 250;

/// How often the watcher looks for a drain signal, and how long the
/// acceptor backs off after a failed `accept` (so an error such as EMFILE
/// cannot spin a core).
const POLL: Duration = Duration::from_millis(25);

#[cfg(unix)]
mod signals {
    //! Minimal SIGINT/SIGTERM latching without any crate dependency: the
    //! process's C runtime already links `signal`, and the handler only
    //! stores to a static atomic (async-signal-safe).
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        DRAIN_REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn requested() -> bool {
        DRAIN_REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

impl Server {
    /// Binds the listener and opens the persistent cache.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the cache directory is
    /// unusable.
    pub fn bind(mut config: ServerConfig) -> Result<Server, String> {
        config.workers = config.workers.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        config.classifier.jobs = 1;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let cache = match &config.cache_dir {
            Some(dir) => Some(
                ReportCache::open(dir)
                    .map_err(|e| format!("cannot open cache at {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(std::collections::VecDeque::new()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            cache,
            started: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0 to the ephemeral port picked).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Runs the accept loop until drain, then finishes queued jobs and
    /// returns. Installs SIGINT/SIGTERM latches on unix.
    ///
    /// # Errors
    ///
    /// Fails only on listener-level errors; per-connection failures are
    /// answered on the wire and logged to the counters.
    pub fn run(self) -> Result<(), String> {
        signals::install();
        let wake = wake_addr(&self.listener).map_err(|e| e.to_string())?;
        let shared = self.shared;
        std::thread::scope(|scope| {
            for _ in 0..shared.config.workers {
                let shared = Arc::clone(&shared);
                scope.spawn(move || worker_loop(&shared));
            }
            let watcher = scope.spawn(|| watch_signals(&shared, wake));
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if shared.draining.load(Ordering::SeqCst) {
                            break;
                        }
                        handle_connection(&shared, stream);
                        if shared.draining.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    // Transient accept errors (aborted handshakes, fd
                    // exhaustion) should not kill the service.
                    Err(_) => std::thread::sleep(POLL),
                }
            }
            // Drain: stop the watcher and wake every worker; each exits
            // once the queue is dry.
            watcher.thread().unpark();
            shared.available.notify_all();
        });
        Ok(())
    }
}

/// Where a connection reaches `listener`: its own address, with an
/// unspecified IP (`0.0.0.0`, `::`) mapped to loopback.
fn wake_addr(listener: &TcpListener) -> std::io::Result<SocketAddr> {
    let mut addr = listener.local_addr()?;
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    Ok(addr)
}

/// Turns a SIGINT/SIGTERM into drain: sets `draining`, then connects to
/// the listener once so the acceptor, blocked in `accept`, sees it.
/// Returns when draining, however it began; the acceptor unparks it when
/// a `shutdown` request ends the loop.
fn watch_signals(shared: &Shared, wake: SocketAddr) {
    while !shared.draining.load(Ordering::SeqCst) {
        if signals::requested() {
            shared.draining.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            return;
        }
        std::thread::park_timeout(POLL);
    }
}

/// Reads one request frame and dispatches it. `stats` and `shutdown` are
/// answered inline; `submit` goes through admission control.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(30))).ok();
    let doc = match read_frame(&mut stream) {
        Ok(doc) => doc,
        Err(e) => {
            respond_error(&mut stream, &e.message);
            return;
        }
    };
    match doc.get("type").and_then(Json::as_str) {
        Some("stats") => {
            let _ = write_frame(&mut stream, &stats_json(shared));
        }
        Some("shutdown") => {
            shared.draining.store(true, Ordering::SeqCst);
            let _ = write_frame(&mut stream, &Json::obj(vec![("type", Json::str("ok"))]));
        }
        Some("submit") => {
            let mut queue = shared.queue.lock().unwrap();
            if queue.len() >= shared.config.queue_capacity {
                drop(queue);
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut stream,
                    &Json::obj(vec![
                        ("type", Json::str("busy")),
                        ("retry_after_ms", Json::from(RETRY_AFTER_MS)),
                    ]),
                );
                return;
            }
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            queue.push_back(Job { stream, doc });
            drop(queue);
            shared.available.notify_one();
        }
        other => {
            respond_error(&mut stream, &format!("unknown request type {other:?}"));
        }
    }
}

fn respond_error(stream: &mut TcpStream, message: &str) {
    let _ = write_frame(
        stream,
        &Json::obj(vec![("type", Json::str("error")), ("message", Json::str(message))]),
    );
    let _ = stream.flush();
}

/// Worker: pop, classify, answer. Exits when draining and the queue is
/// empty (in-flight jobs always finish).
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _timeout) =
                    shared.available.wait_timeout(queue, Duration::from_millis(100)).unwrap();
                queue = q;
            }
        };
        let Some(Job { mut stream, doc }) = job else { return };
        let answer = run_submission(shared, &doc);
        drop(doc);
        match answer {
            Ok(answer) => {
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                // The frame holds a copy of the report: free the record
                // before the client can be handed the bytes.
                let frame = result_frame(&answer);
                drop(answer);
                match frame {
                    Ok(frame) => {
                        let _ = stream.write_all(&frame);
                    }
                    Err(e) => respond_error(&mut stream, &e.message),
                }
            }
            Err(message) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                respond_error(&mut stream, &message);
            }
        }
    }
}

/// A classified submission.
struct Answer {
    /// The report, compact JSON text: what one-shot `racerep races
    /// --format json` prints, before pretty-printing.
    report: String,
    /// Virtual-processor replays run for it.
    replays: u64,
    /// 1 when a report record answered it, else 0.
    store_hits: u64,
}

/// The `result` response frame for `answer`, with the report text
/// spliced in unparsed: the bytes equal [`write_frame`] of the `{type,
/// report, replays, store_hits}` document.
fn result_frame(answer: &Answer) -> Result<Vec<u8>, ProtoError> {
    let tail = format!(",\"replays\":{},\"store_hits\":{}}}", answer.replays, answer.store_hits);
    frame_parts(&[b"{\"type\":\"result\",\"report\":", answer.report.as_bytes(), tail.as_bytes()])
}

/// Classifies one submission: assemble, decode strictly, then run
/// [`analyze_log`] and render the same report JSON as one-shot `racerep
/// races --format json`. With a cache, a stored report for the same
/// workload answers right after assembly and base64 decoding; a fresh
/// report is persisted before the answer goes out.
fn run_submission(shared: &Shared, doc: &Json) -> Result<Answer, String> {
    let counters = &shared.counters;
    let source = doc
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| String::from("submit needs a \"program\" field (tasm source)"))?;
    let log_b64 = doc
        .get("log")
        .and_then(Json::as_str)
        .ok_or_else(|| String::from("submit needs a \"log\" field (base64 log container)"))?;
    let classifier = shared.config.classifier;

    let start = Instant::now();
    let program =
        assemble(source).map_err(|e| format!("program line {}: {}", e.line, e.message))?;
    if program.threads().is_empty() {
        return Err("program has no threads".into());
    }
    let program = Arc::new(program);
    let container = b64_decode(log_b64).map_err(|e: ProtoError| e.message)?;
    let cache = shared
        .cache
        .as_ref()
        .map(|cache| (cache, WorkloadKey::new(&program, &container, &classifier)));
    if let Some(report) = cache.as_ref().and_then(|(cache, key)| cache.lookup(key)) {
        counters.decode_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        return Ok(Answer { report, replays: 0, store_hits: 1 });
    }
    let (log, _schedule, decode) = log_from_bytes_mode(&container, DecodeMode::Strict)?;
    let decoded = Arc::new(DecodedProgram::new(program));
    counters.decode_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);

    let analysis =
        analyze_log(&decoded, &log, &decode, &DetectorConfig::default(), &classifier, None)
            .map_err(|e| e.to_string())?;
    let timings = analysis.timings;
    counters.replay_ns.fetch_add(timings.replay.as_nanos() as u64, Ordering::Relaxed);
    counters.detect_ns.fetch_add(timings.detect.as_nanos() as u64, Ordering::Relaxed);
    counters.classify_ns.fetch_add(timings.classify.as_nanos() as u64, Ordering::Relaxed);

    let start = Instant::now();
    let report = analysis.report.to_json_value().to_string_compact();
    if let Some((cache, key)) = &cache {
        // A failed write (disk full) degrades the cache, not the job.
        let _ = cache.insert(key, &report);
    }
    let report_time = timings.report + start.elapsed();
    counters.report_ns.fetch_add(report_time.as_nanos() as u64, Ordering::Relaxed);

    Ok(Answer { report, replays: analysis.classification.vproc_replays, store_hits: 0 })
}

/// The `stats` response document.
fn stats_json(shared: &Shared) -> Json {
    let c = &shared.counters;
    let queue_depth = shared.queue.lock().unwrap().len();
    let load = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
    let mut fields = vec![
        ("type", Json::str("stats")),
        ("uptime_ms", Json::from(shared.started.elapsed().as_millis() as u64)),
        ("workers", Json::from(shared.config.workers)),
        ("queue_depth", Json::from(queue_depth)),
        ("queue_capacity", Json::from(shared.config.queue_capacity)),
        (
            "jobs",
            Json::obj(vec![
                ("accepted", load(&c.accepted)),
                ("rejected", load(&c.rejected)),
                ("completed", load(&c.completed)),
                ("failed", load(&c.failed)),
            ]),
        ),
        (
            "phase_ns",
            Json::obj(vec![
                ("decode", load(&c.decode_ns)),
                ("replay", load(&c.replay_ns)),
                ("detect", load(&c.detect_ns)),
                ("classify", load(&c.classify_ns)),
                ("report", load(&c.report_ns)),
            ]),
        ),
    ];
    if let Some(cache) = &shared.cache {
        let s = cache.counts();
        fields.push((
            "cache",
            Json::obj(vec![
                ("entries", Json::from(s.entries)),
                ("disk_bytes", Json::from(s.disk_bytes)),
                ("persisted_hits", Json::from(s.persisted_hits)),
                ("misses", Json::from(s.misses)),
                ("persisted_writes", Json::from(s.persisted_writes)),
            ]),
        ));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::read_frame;

    /// A spliced `result` frame is byte-identical to writing the envelope
    /// document, so a client cannot tell a record's text from a fresh
    /// render.
    #[test]
    fn spliced_result_frame_equals_the_envelope_document() {
        let report = Json::obj(vec![
            (
                "races",
                Json::Arr(vec![Json::obj(vec![
                    ("mark_a", Json::str("a \"quoted\" ✓ \\ mark\n")),
                    ("pc", Json::from(u64::MAX)),
                    ("scenario", Json::Null),
                ])]),
            ),
            ("log_damaged_races", Json::from(0u64)),
        ]);
        for (replays, store_hits) in [(0u64, 1u64), (16_136, 0)] {
            let answer = Answer { report: report.to_string_compact(), replays, store_hits };
            let spliced = result_frame(&answer).unwrap();
            let envelope = Json::obj(vec![
                ("type", Json::str("result")),
                ("report", report.clone()),
                ("replays", Json::from(replays)),
                ("store_hits", Json::from(store_hits)),
            ]);
            let mut written = Vec::new();
            write_frame(&mut written, &envelope).unwrap();
            assert_eq!(spliced, written);
            assert_eq!(read_frame(&mut spliced.as_slice()).unwrap(), envelope);
        }
    }
}
