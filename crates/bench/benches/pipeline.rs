//! Microbenchmarks of each pipeline phase (the §5.1 overheads, measured
//! precisely): native execution, recording, replay, detection,
//! classification.

use bench::timing::Samples;

use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use replay_race::classify::{classify_races_with, ClassifierConfig};
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::scheduler::{run, RunConfig};
use tvm::Machine;
use workloads::browser::{browser_program, BrowserConfig};

fn main() {
    let cfg = BrowserConfig { fetchers: 3, parsers: 2, jobs: 8, work: 24 };
    let program = browser_program(&cfg);
    let schedule = RunConfig::chunked(7, 1, 8).with_max_steps(10_000_000);

    // Shared inputs for the later phases.
    let recording = record(&program, &schedule);
    let instructions = recording.summary.steps;
    let trace = replay(&program, &recording.log).expect("replay");
    let detected = detect_races(&trace, &DetectorConfig::default());

    let report = |name: &str, m: Samples| {
        let rate = m.per_second(instructions) / 1e6;
        println!("pipeline/{name:<10} {}  {rate:.1} Minstr/s", m.describe());
    };
    report(
        "native",
        Samples::take(|| {
            let mut machine = Machine::new(program.clone());
            run(&mut machine, &schedule, &mut ())
        }),
    );
    report("record", Samples::take(|| record(&program, &schedule)));
    report("replay", Samples::take(|| replay(&program, &recording.log).expect("replay")));
    report("detect", Samples::take(|| detect_races(&trace, &DetectorConfig::default())));
    report(
        "classify",
        Samples::take(|| {
            classify_races_with(&trace, &detected, &ClassifierConfig::default(), None)
        }),
    );
}
