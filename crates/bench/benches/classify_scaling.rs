//! Scaling study of the classification engine: classify wall-time at 1→N
//! worker threads on the browser workload, with a built-in check that
//! every job count produces the same classification (the engine's
//! determinism contract).

use bench::timing::Samples;

use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use replay_race::classify::{classify_races_with, ClassifierConfig};
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::scheduler::RunConfig;
use workloads::browser::{browser_program, BrowserConfig};

fn main() {
    let cfg = BrowserConfig { fetchers: 3, parsers: 2, jobs: 8, work: 24 };
    let program = browser_program(&cfg);
    let recording = record(&program, &RunConfig::chunked(7, 1, 8).with_max_steps(10_000_000));
    let trace = replay(&program, &recording.log).expect("replay");
    let detected = detect_races(&trace, &DetectorConfig::default());
    let instances = detected.instance_count() as u64;
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "classify_scaling: {} races, {instances} instances, {available} hardware threads",
        detected.unique_races()
    );

    let classify = |jobs: usize| {
        let config = ClassifierConfig { jobs, ..ClassifierConfig::default() };
        classify_races_with(&trace, &detected, &config, None)
    };

    let baseline_result = classify(1);
    let baseline = Samples::take(|| classify(1));

    let mut job_counts = vec![1usize, 2, 4];
    if !job_counts.contains(&available) {
        job_counts.push(available);
    }
    for &jobs in &job_counts {
        let result = classify(jobs);
        let m = Samples::take(|| classify(jobs));
        let speedup = baseline.median().as_secs_f64() / m.median().as_secs_f64();
        println!(
            "classify/jobs={jobs:<2} {}  speedup {speedup:>5.2}x  replays {:>6}",
            m.describe(),
            result.vproc_replays,
        );
        // Determinism contract: job count never changes the result.
        assert_eq!(
            result.races, baseline_result.races,
            "classification must be identical at jobs={jobs}"
        );
    }
}
