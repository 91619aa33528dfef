//! E-A5: the static pre-filter ablation. `racecheck::analyze` runs once
//! over the browser workload with zero execution; its candidate set then
//! restricts the happens-before detector to statically-may-race pcs. By
//! soundness the detected races are identical — the ablation measures what
//! the filter saves: accesses indexed and detection wall-clock.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_static_prefilter
//! ```

use std::sync::Arc;

use bench::timing::Samples;
use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::scheduler::RunConfig;
use workloads::browser::{browser_program, BrowserConfig};

fn main() {
    let cfg = BrowserConfig::paper_scale();
    eprintln!("browser workload: {} threads, {} jobs ...", cfg.threads(), cfg.jobs);
    let program = browser_program(&cfg);
    let run = RunConfig::chunked(7, 1, 8).with_max_steps(50_000_000);

    let analyze = Samples::take(|| racecheck::analyze(&program));
    let analysis = racecheck::analyze(&program);
    let candidates = Arc::new(analysis.candidates);

    let rec = record(&program, &run);
    let trace = replay(&program, &rec.log).expect("fresh recording must replay");

    let unfiltered_cfg = DetectorConfig::default();
    let filtered_cfg = DetectorConfig { prefilter: Some(Arc::clone(&candidates)) };

    let unfiltered = detect_races(&trace, &unfiltered_cfg);
    let filtered = detect_races(&trace, &filtered_cfg);
    assert_eq!(
        unfiltered.instances, filtered.instances,
        "the pre-filter must not change detection results"
    );
    assert_eq!(unfiltered.by_static, filtered.by_static);

    let t_unfiltered = Samples::take(|| detect_races(&trace, &unfiltered_cfg));
    let t_filtered = Samples::take(|| detect_races(&trace, &filtered_cfg));

    let s = &analysis.stats;
    println!(
        "static analysis: {} threads, {} reachable pcs, {} memory pcs, {} monitored",
        s.threads, s.reachable_pcs, s.memory_pcs, s.monitored_pcs
    );
    println!(
        "candidate pairs: {} ({} unknown-address accesses kept conservatively)",
        s.candidate_pairs, s.unknown_accesses
    );
    println!("analyze(): {} (zero execution)", analyze.describe());
    println!();
    println!(
        "detected: {} unique races, {} instances (identical with and without the filter)",
        unfiltered.unique_races(),
        unfiltered.instance_count()
    );
    let total = filtered.indexed_accesses + filtered.skipped_accesses;
    #[allow(clippy::cast_precision_loss)]
    let access_cut = 100.0 * filtered.skipped_accesses as f64 / total.max(1) as f64;
    println!(
        "monitored accesses: {} of {} indexed ({} skipped, -{access_cut:.1}%)",
        filtered.indexed_accesses, total, filtered.skipped_accesses
    );
    let speedup = t_unfiltered.median().as_secs_f64() / t_filtered.median().as_secs_f64();
    println!("detection time, unfiltered: {}", t_unfiltered.describe());
    println!("detection time, filtered:   {} ({speedup:.2}x)", t_filtered.describe());
}
