//! SIGTERM drains a running server: jobs admitted before the signal are
//! answered, and `Server::run` returns promptly although the acceptor is
//! blocked in `accept`. A test binary of its own, because the signal latch
//! is process-global and never resets.

#![cfg(unix)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use idna_replay::codec::LogWriter;
use idna_replay::recorder::record;
use minijson::Json;
use serviced::{client, Server, ServerConfig};
use tvm::scheduler::RunConfig;

const SUBMISSIONS: u64 = 4;

fn counter(stats: &Json, key: &str) -> u64 {
    stats.get("jobs").and_then(|jobs| jobs.get(key)).and_then(Json::as_u64).unwrap()
}

#[test]
fn sigterm_drains_queued_jobs_and_returns_promptly() {
    // stats.tasm with its two racy loops run 100 times instead of 4, so a
    // job takes long enough (milliseconds) that jobs are still queued when
    // the signal lands.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm/stats.tasm");
    let source = std::fs::read_to_string(path).unwrap().replace("movi r7, 4", "movi r7, 100");
    let program = Arc::new(tvm::asm::assemble(&source).unwrap());
    let containers: Vec<Vec<u8>> = (0..SUBMISSIONS)
        .map(|seed| {
            let run = RunConfig::chunked(seed, 1, 8);
            let recording = record(&program, &run);
            serviced::container::log_to_bytes_with(&recording.log, &run, &mut LogWriter::new())
        })
        .collect();

    // One worker, so submissions queue behind each other.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let running = std::thread::spawn(move || {
        let result = server.run();
        (result, Instant::now())
    });
    // `stats` answers only once `run` has installed the signal handler.
    client::stats(&addr).unwrap();

    std::thread::scope(|scope| {
        let submits: Vec<_> = containers
            .iter()
            .map(|container| {
                let (addr, source) = (&addr, &source);
                scope.spawn(move || client::submit(addr, source, container, 40))
            })
            .collect();
        while counter(&client::stats(&addr).unwrap(), "accepted") < SUBMISSIONS {
            std::thread::sleep(Duration::from_millis(1));
        }
        let signalled = Instant::now();
        let kill = std::process::Command::new("kill")
            .args(["-TERM", &std::process::id().to_string()])
            .status()
            .unwrap();
        assert!(kill.success());
        let (result, returned) = running.join().unwrap();
        result.expect("the server drains cleanly");
        let drain = returned.duration_since(signalled);
        assert!(drain < Duration::from_secs(2), "run() returned {drain:?} after SIGTERM");
        for submit in submits {
            let response = submit.join().unwrap().expect("an admitted job is answered");
            assert_eq!(response.get("type").and_then(Json::as_str), Some("result"));
            assert!(response.get("report").and_then(|r| r.get("races")).is_some());
        }
    });
}
