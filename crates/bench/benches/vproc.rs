//! Microbenchmark of the virtual processor: the cost of one dual-order
//! replay (the unit of work behind the paper's 280× analysis overhead),
//! both as two `run_pair` replays and as the `run_unit` call classification
//! makes.

use bench::timing::Samples;

use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use idna_replay::vproc::{PairOrder, Vproc, VprocConfig};
use replay_race::classify::classify_instance;
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::scheduler::RunConfig;
use workloads::browser::{browser_program, BrowserConfig};

fn main() {
    let cfg = BrowserConfig { fetchers: 3, parsers: 2, jobs: 8, work: 24 };
    let program = browser_program(&cfg);
    let recording = record(&program, &RunConfig::chunked(7, 1, 8).with_max_steps(10_000_000));
    let trace = replay(&program, &recording.log).expect("replay");
    let detected = detect_races(&trace, &DetectorConfig::default());
    assert!(!detected.instances.is_empty(), "browser must have race instances");
    let instance = detected.instances[0];
    let vproc = Vproc::new(&trace, VprocConfig::default());
    // The unit classification replays `instance` in: every detected instance
    // on its racing region pair.
    let unit: Vec<_> = detected
        .instances
        .iter()
        .filter(|i| (i.a.region, i.b.region) == (instance.a.region, instance.b.region))
        .map(|i| (i.a, i.b))
        .collect();

    let report = |name: &str, m: Samples| println!("vproc/{name:<36} {}", m.describe());
    report(
        "single_order_replay",
        Samples::take(|| vproc.run_pair(&instance.a, &instance.b, PairOrder::AThenB)),
    );
    report("classify_instance_both_orders", Samples::take(|| classify_instance(&vproc, &instance)));
    report("run_unit_one_instance", Samples::take(|| vproc.run_unit(&unit[..1], |_, _| false)));
    report(
        &format!("run_unit_region_pair_{}_instances", unit.len()),
        Samples::take(|| vproc.run_unit(&unit, |_, _| false)),
    );
}
