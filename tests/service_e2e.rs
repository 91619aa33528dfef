//! End-to-end test of the racerepd classification service: boots a server
//! on an ephemeral port, submits workloads from four concurrent client
//! threads, and checks every response is byte-identical to the one-shot
//! `racerep races --format json` report. A second server generation over
//! the same cache directory then proves warm submissions are answered from
//! their report records with zero virtual-processor replays, and a third,
//! permissive server over that directory proves the records are keyed on
//! the replay options. A matrix over every sample program, two schedules
//! and three trust tiers states the rule whole: every one-shot and
//! service path gives the same report bytes. Further tests pin the front
//! end: round trips wait on no accept poll, and a hostile, deeply nested
//! frame is refused without taking the service down.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idna_replay::vproc::VprocConfig;
use minijson::Json;
use racerep::{cmd_races, cmd_record, cmd_submit, parse_schedule, FailOn};
use replay_race::classify::{BatchMode, ClassifierConfig, TrustStatic};
use serviced::proto::{payload_checksum, read_frame, FRAME_MAGIC, PROTO_VERSION};
use serviced::{client, Server, ServerConfig, WorkloadKey};

fn sample(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/asm").join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("racerepd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One prepared workload: program source + recorded log container, plus
/// the expected one-shot report JSON.
struct Workload {
    name: String,
    log_path: PathBuf,
    source: String,
    container: Vec<u8>,
    expected_json: String,
}

fn prepare(work: &Path, name: &str, schedule: &str, classifier: &ClassifierConfig) -> Workload {
    let program_path = sample(name);
    let log_path = work.join(format!("{name}-{schedule}.idna"));
    cmd_record(&program_path, &log_path, parse_schedule(schedule).unwrap()).unwrap();
    let expected_json =
        cmd_races(&program_path, &log_path, true, classifier, None, false, false).unwrap();
    Workload {
        name: name.into(),
        source: std::fs::read_to_string(&program_path).unwrap(),
        container: std::fs::read(&log_path).unwrap(),
        log_path,
        expected_json,
    }
}

fn boot(
    cache_dir: &Path,
    classifier: ClassifierConfig,
) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_capacity: 16,
        cache_dir: Some(cache_dir.to_path_buf()),
        classifier,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn service_matches_one_shot_and_serves_warm_resubmits_from_cache() {
    let work = temp_dir("work");
    let cache_dir = temp_dir("cache");
    let workloads: Vec<Workload> = [
        ("handoff.tasm", "rr:2"),
        ("stats.tasm", "rr:2"),
        ("refcount.tasm", "chunked:3:1:6"),
        ("idiom_double_check.tasm", "rr:2"),
    ]
    .into_iter()
    .map(|(name, schedule)| prepare(&work, name, schedule, &ClassifierConfig::default()))
    .collect();
    let workloads = Arc::new(workloads);

    // Generation 1 (cold): four concurrent clients, one workload each.
    let (addr, handle) = boot(&cache_dir, ClassifierConfig::default());
    std::thread::scope(|scope| {
        for w in workloads.iter() {
            let addr = addr.clone();
            scope.spawn(move || {
                let response = client::submit(&addr, &w.source, &w.container, 40).unwrap();
                assert_eq!(
                    response.get("type").and_then(Json::as_str),
                    Some("result"),
                    "{}: {response:?}",
                    w.name
                );
                let got = response.get("report").unwrap().to_string_pretty();
                assert_eq!(got, w.expected_json, "{}: cold response differs from one-shot", w.name);
                assert_eq!(count(&response, "store_hits"), 0, "{}: cold submit hit", w.name);
            });
        }
    });
    let stats = client::stats(&addr).unwrap();
    let completed = stats.get("jobs").unwrap().get("completed").and_then(Json::as_u64).unwrap();
    assert_eq!(completed, workloads.len() as u64);

    // Graceful drain: the run() thread exits cleanly after `shutdown`.
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");

    // Generation 2 (warm): a fresh process-equivalent over the same cache
    // directory. Every report must come from its record on disk: zero
    // vproc replays, one store hit, byte-identical reports.
    let (addr, handle) = boot(&cache_dir, ClassifierConfig::default());
    for w in workloads.iter() {
        let response = client::submit(&addr, &w.source, &w.container, 40).unwrap();
        let got = response.get("report").unwrap().to_string_pretty();
        assert_eq!(got, w.expected_json, "{}: warm response differs from one-shot", w.name);
        assert_eq!(count(&response, "replays"), 0, "{}: warm submission must not replay", w.name);
        assert_eq!(count(&response, "store_hits"), 1, "{}: warm submit missed", w.name);
    }
    let stats = client::stats(&addr).unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(count(cache, "persisted_hits"), workloads.len() as u64);
    assert_eq!(count(cache, "entries"), workloads.len() as u64, "one record per workload");

    // refcount.tasm on rr:1 replays differently under permissive control
    // flow (ReplayFailure by default, StateChange permissive). The default
    // server records its report; a permissive server over the same
    // directory must classify afresh, not serve that record.
    let default = prepare(&work, "refcount.tasm", "rr:1", &ClassifierConfig::default());
    let permissive_config =
        ClassifierConfig { vproc: VprocConfig::permissive(), ..ClassifierConfig::default() };
    let permissive = prepare(&work, "refcount.tasm", "rr:1", &permissive_config);
    assert_eq!(default.container, permissive.container);
    assert_ne!(default.expected_json, permissive.expected_json);
    let response = client::submit(&addr, &default.source, &default.container, 40).unwrap();
    assert_eq!(response.get("report").unwrap().to_string_pretty(), default.expected_json);
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");

    let (addr, handle) = boot(&cache_dir, permissive_config);
    for store_hits in [0, 1] {
        let response =
            client::submit(&addr, &permissive.source, &permissive.container, 40).unwrap();
        let got = response.get("report").unwrap().to_string_pretty();
        assert_eq!(got, permissive.expected_json, "permissive server served the wrong record");
        assert_eq!(count(&response, "store_hits"), store_hits);
    }
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");

    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

fn count(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("{key} missing in {doc:?}"))
}

/// The north star's rule as one matrix: a report depends only on the
/// program, the log and the analysis options. For every sample program,
/// two schedules and three trust tiers, five paths give the same bytes:
/// `races` at jobs 1 unbatched, `races` at jobs 0 batched, `races
/// --tolerant` on the clean log, a cold submit to an unbatched server, and
/// a warm submit to a batched server booted after the first one drained.
/// One cache directory serves every tier, so a record keyed without the
/// tier would answer another tier's submit. `handoff.tasm` and
/// `idiom_spin_wait.tasm` assemble to the same program, so a cold submit
/// hits exactly when its workload identity was already submitted.
#[test]
fn every_path_gives_one_report_per_program_log_and_trust_tier() {
    let work = temp_dir("matrix");
    let cache_dir = temp_dir("matrix-cache");
    let mut programs: Vec<String> = std::fs::read_dir(sample(""))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".tasm"))
        .collect();
    programs.sort();
    let mut submitted = BTreeSet::new();
    for tier in ["off", "skip-benign", "skip-benign,skip-unreachable"] {
        let trust_static = TrustStatic::parse(tier).unwrap();
        let unbatched = ClassifierConfig {
            jobs: 1,
            batching: BatchMode::Off,
            trust_static,
            ..ClassifierConfig::default()
        };
        let batched = ClassifierConfig {
            jobs: 0,
            batching: BatchMode::Shared,
            trust_static,
            ..ClassifierConfig::default()
        };
        let cells: Vec<(String, Workload)> = programs
            .iter()
            .flat_map(|name| ["rr:2", "chunked:3:1:6"].map(|schedule| (name, schedule)))
            .map(|(name, schedule)| {
                let label = format!("{name}/{schedule}/{tier}");
                (label, prepare(&work, name, schedule, &unbatched))
            })
            .collect();
        for (label, w) in &cells {
            let program_path = sample(&w.name);
            for (classifier, tolerant, path) in
                [(&batched, false, "jobs 0, batched"), (&unbatched, true, "--tolerant")]
            {
                let got =
                    cmd_races(&program_path, &w.log_path, true, classifier, None, tolerant, false)
                        .unwrap();
                assert_eq!(got, w.expected_json, "{label}: races ({path}) differs");
            }
        }

        let (addr, handle) = boot(&cache_dir, unbatched);
        for (label, w) in &cells {
            let program = tvm::asm::assemble(&w.source).unwrap();
            let key = WorkloadKey::new(&program, &w.container, &unbatched);
            let seen = !submitted.insert(key.file_name());
            let response = client::submit(&addr, &w.source, &w.container, 40).unwrap();
            let got = response.get("report").unwrap().to_string_pretty();
            assert_eq!(got, w.expected_json, "{label}: cold submit differs");
            assert_eq!(count(&response, "store_hits"), u64::from(seen), "{label}: cold submit");
        }
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().expect("server drains cleanly");

        let (addr, handle) = boot(&cache_dir, batched);
        for (label, w) in &cells {
            let response = client::submit(&addr, &w.source, &w.container, 40).unwrap();
            let got = response.get("report").unwrap().to_string_pretty();
            assert_eq!(got, w.expected_json, "{label}: warm submit differs");
            assert_eq!(count(&response, "store_hits"), 1, "{label}: warm submit missed");
            assert_eq!(count(&response, "replays"), 0, "{label}: warm submit replayed");
        }
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().expect("server drains cleanly");
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `racerep submit --fail-on harmful` gates the exit code on the remote
/// verdicts, exactly like `lint` gates on static warnings.
#[test]
fn submit_fail_on_harmful_sets_the_exit_code() {
    let work = temp_dir("failon");
    let cache_dir = temp_dir("failon-cache");
    let (addr, handle) = boot(&cache_dir, ClassifierConfig::default());

    // stats.tasm: racy counters classify potentially harmful (the paper's
    // approximate-computation pattern).
    let harmful_prog = sample("stats.tasm");
    let harmful_log = work.join("stats.idna");
    cmd_record(&harmful_prog, &harmful_log, parse_schedule("rr:2").unwrap()).unwrap();
    let (_, code) = cmd_submit(&harmful_prog, &harmful_log, &addr, false, FailOn::Harmful).unwrap();
    assert_eq!(code, 1, "harmful verdicts must trip --fail-on harmful");
    let (_, code) = cmd_submit(&harmful_prog, &harmful_log, &addr, true, FailOn::None).unwrap();
    assert_eq!(code, 0, "fail-on none never gates");

    // handoff.tasm: the flag handoff filters benign, so the gate stays
    // open.
    let benign_prog = sample("handoff.tasm");
    let benign_log = work.join("handoff.idna");
    cmd_record(&benign_prog, &benign_log, parse_schedule("rr:2").unwrap()).unwrap();
    let (_, code) = cmd_submit(&benign_prog, &benign_log, &addr, false, FailOn::Harmful).unwrap();
    assert_eq!(code, 0, "benign-only reports must not trip the gate");

    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The acceptor blocks in `accept`, so a round trip costs its own work and
/// no poll interval: 40 sequential `stats` requests take well under
/// 400 ms, where an acceptor sleeping 25 ms between polls needs about a
/// second.
#[test]
fn sequential_round_trips_wait_on_no_accept_poll() {
    let cache_dir = temp_dir("latency-cache");
    let (addr, handle) = boot(&cache_dir, ClassifierConfig::default());
    client::stats(&addr).unwrap();
    let start = Instant::now();
    for _ in 0..40 {
        client::stats(&addr).unwrap();
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(400), "40 stats round trips took {elapsed:?}");
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A frame with valid magic, length and checksum whose payload opens
/// 200,000 arrays is answered with an `error` (the parser caps nesting)
/// instead of overflowing the acceptor's stack; the service keeps
/// answering, byte-identically to one-shot `races`.
#[test]
fn a_deeply_nested_frame_is_refused_and_the_service_keeps_serving() {
    let work = temp_dir("nested");
    let cache_dir = temp_dir("nested-cache");
    let workload = prepare(&work, "stats.tasm", "rr:2", &ClassifierConfig::default());
    let (addr, handle) = boot(&cache_dir, ClassifierConfig::default());

    let payload = vec![b'['; 200_000];
    let mut frame = FRAME_MAGIC.to_vec();
    frame.push(PROTO_VERSION);
    frame.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    frame.extend_from_slice(&payload_checksum(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&frame).unwrap();
    let response = read_frame(&mut stream).unwrap();
    assert_eq!(response.get("type").and_then(Json::as_str), Some("error"), "{response:?}");
    let message = response.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("nesting"), "{message}");

    client::stats(&addr).expect("stats answers after the hostile frame");
    let response = client::submit(&addr, &workload.source, &workload.container, 40).unwrap();
    assert_eq!(response.get("report").unwrap().to_string_pretty(), workload.expected_json);
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
