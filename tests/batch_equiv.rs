//! Equivalence guarantees of the shared-prefix batched replay engine
//! (`DESIGN.md` §D12): for every corpus pattern and for a seeded fuzz
//! population of generated programs, classifying with
//! [`BatchMode::Shared`] is bit-for-bit identical to the unbatched
//! engine at any job count — same races, same outcomes, same replay
//! accounting. Batching may only change *cost*, never results. The corpus
//! matrix also checks each race's kept live-outs against replays made
//! outside the engine.

use std::collections::BTreeSet;
use std::sync::Arc;

use bench::genprog;
use idna_replay::recorder::record;
use idna_replay::replayer::{replay, ReplayTrace};
use idna_replay::vproc::{PairOrder, Vproc};
use replay_race::classify::{
    classify_races_with, BatchMode, ClassificationResult, ClassifierConfig, InstanceOutcome,
};
use replay_race::detect::{detect_races, DetectedRaces, DetectorConfig};
use tvm::rng::SplitMix64;
use tvm::scheduler::RunConfig;
use workloads::corpus::{corpus_program, instance_ids};

/// Records and replays one corpus pattern in isolation.
fn pattern_trace(id: &str, schedule: &RunConfig) -> (ReplayTrace, DetectedRaces) {
    let enabled: BTreeSet<&str> = [id].into_iter().collect();
    let program = corpus_program(&enabled);
    let recording = record(&program, schedule);
    let trace = replay(&program, &recording.log).expect("fresh recordings replay");
    let detected = detect_races(&trace, &DetectorConfig::default());
    (trace, detected)
}

fn classify_with(
    trace: &ReplayTrace,
    detected: &DetectedRaces,
    jobs: usize,
    batching: BatchMode,
) -> ClassificationResult {
    let config = ClassifierConfig { jobs, batching, ..ClassifierConfig::default() };
    classify_races_with(trace, detected, &config, None)
}

/// Byte-equality of everything the classification *means*: the races with
/// their instance outcomes and kept live-outs, plus the replay accounting.
/// The batch counters are cost telemetry and deliberately excluded.
fn assert_identical(a: &ClassificationResult, b: &ClassificationResult, what: &str) {
    assert_eq!(a.races, b.races, "{what}: classified races differ");
    assert_eq!(a.vproc_replays, b.vproc_replays, "{what}: replay counts differ");
    assert_eq!(a.log_damaged_races, b.log_damaged_races, "{what}: damage accounting differs");
}

/// Checks every race's kept live-outs against replays made outside the
/// engine: when the first exposing instance is State-Change they are its
/// two orders as a fresh [`Vproc`] replays them, and otherwise there are
/// none.
fn assert_kept_live_outs_replay(trace: &ReplayTrace, result: &ClassificationResult, what: &str) {
    let vproc = Vproc::new(trace, ClassifierConfig::default().vproc);
    for (id, race) in &result.races {
        let kept = race.exposing_live_outs.as_deref();
        match race.first_exposing_instance() {
            Some(ci) if ci.outcome == InstanceOutcome::StateChange => {
                let (a, b) = (&ci.instance.a, &ci.instance.b);
                let fwd = vproc.run_pair(a, b, PairOrder::AThenB).expect("State-Change replays");
                let rev = vproc.run_pair(a, b, PairOrder::BThenA).expect("State-Change replays");
                assert_eq!(kept, Some(&[fwd, rev]), "{what}: {id} kept the wrong live-outs");
            }
            _ => assert_eq!(kept, None, "{what}: {id} kept live-outs it does not expose"),
        }
    }
}

/// The schedules the corpus matrix runs under (mirrors
/// `classify_determinism`): one deterministic round-robin and one
/// chunked-random interleaving.
fn schedules() -> Vec<RunConfig> {
    vec![
        RunConfig::round_robin(2).with_max_steps(400_000),
        RunConfig::chunked(9, 1, 6).with_max_steps(400_000),
    ]
}

#[test]
fn every_pattern_classifies_identically_batched_and_unbatched() {
    for id in instance_ids() {
        for schedule in schedules() {
            let (trace, detected) = pattern_trace(id, &schedule);
            let unbatched = classify_with(&trace, &detected, 1, BatchMode::Off);
            assert_eq!(unbatched.batch_stats.batches, 0, "{id}: Off must not batch");
            assert_eq!(unbatched.batch_stats.forks, 0, "{id}: Off must not fork");
            assert_kept_live_outs_replay(&trace, &unbatched, &format!("{id} unbatched"));
            let mut counters = Vec::new();
            for jobs in [1, 2, 0] {
                let batched = classify_with(&trace, &detected, jobs, BatchMode::Shared);
                assert_identical(&unbatched, &batched, &format!("{id} jobs={jobs}"));
                assert_kept_live_outs_replay(&trace, &batched, &format!("{id} jobs={jobs}"));
                counters.push(batched.batch_stats);
            }
            // The cost counters themselves are deterministic at any job
            // count: batches form in the planner's sequential walk.
            assert_eq!(counters[0], counters[1], "{id}: batch counters differ at jobs=2");
            assert_eq!(counters[0], counters[2], "{id}: batch counters differ at jobs=0");
        }
    }
}

#[test]
fn generated_programs_classify_identically_batched_and_unbatched() {
    // Seeded differential fuzz over handoff-shaped programs: racy flag
    // and data traffic with loops, so racing indexes spread across each
    // region and the checkpoint chain actually gets exercised.
    let mut rng = SplitMix64::new(0xBA7C4);
    let mut batches = 0u64;
    let mut forks = 0u64;
    for round in 0..300u64 {
        let program = Arc::new(genprog::generate(&mut rng));
        // One schedule per round keeps the loop fast while still covering
        // both schedule families over the population.
        let schedule = &genprog::schedules(round)[(round % 2) as usize];
        let recording = record(&program, schedule);
        let trace = replay(&program, &recording.log).expect("generated programs replay");
        let detected = detect_races(&trace, &DetectorConfig::default());
        let unbatched = classify_with(&trace, &detected, 1, BatchMode::Off);
        for jobs in [1, 2] {
            let batched = classify_with(&trace, &detected, jobs, BatchMode::Shared);
            assert_identical(&unbatched, &batched, &format!("round {round} jobs={jobs}"));
            batches += batched.batch_stats.batches;
            forks += batched.batch_stats.forks;
        }
    }
    assert!(batches > 0, "the fuzz population never formed a batch");
    assert!(forks > 0, "the fuzz population never forked from a checkpoint");
}
