//! Determinism guarantees of the parallel classification engine: for every
//! workloads pattern, the classification is bit-for-bit identical at any
//! job count, every analyzed instance costs exactly two replays, merging
//! split classifications equals classifying everything at once, and the
//! engine's work counters on the corpus executions are exact.

use std::collections::BTreeSet;

use idna_replay::recorder::record;
use idna_replay::replayer::{replay, ReplayTrace};
use idna_replay::vproc::BatchStats;
use replay_race::classify::{
    classify_races_with, merge_classifications, BatchMode, ClassificationResult, ClassifierConfig,
};
use replay_race::detect::{detect_races, DetectedRaces, DetectorConfig};
use tvm::scheduler::RunConfig;
use workloads::corpus::{corpus_executions, corpus_program, instance_ids};

/// Records and replays one corpus pattern in isolation.
fn pattern_trace(id: &str, schedule: &RunConfig) -> (ReplayTrace, DetectedRaces) {
    execution_trace(&[id], schedule)
}

/// Records and replays the corpus program with the given patterns enabled.
fn execution_trace(enabled: &[&str], schedule: &RunConfig) -> (ReplayTrace, DetectedRaces) {
    let enabled: BTreeSet<&str> = enabled.iter().copied().collect();
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
) -> ClassificationResult {
    let config = ClassifierConfig { jobs, ..ClassifierConfig::default() };
    classify_races_with(trace, detected, &config, None)
}

/// Full bit-for-bit equality of two classifications (races, instance
/// outcomes, kept live-outs, replay accounting).
fn assert_identical(a: &ClassificationResult, b: &ClassificationResult, what: &str) {
    assert_eq!(a.races, b.races, "{what}: classified races differ");
    assert_eq!(a.vproc_replays, b.vproc_replays, "{what}: replay counts differ");
}

/// The schedules the matrix runs under: one deterministic round-robin and
/// one chunked-random interleaving for scheduling diversity.
fn schedules() -> Vec<RunConfig> {
    vec![
        RunConfig::round_robin(2).with_max_steps(400_000),
        RunConfig::chunked(9, 1, 6).with_max_steps(400_000),
    ]
}

#[test]
fn every_pattern_classifies_identically_at_any_job_count() {
    for id in instance_ids() {
        for schedule in schedules() {
            let (trace, detected) = pattern_trace(id, &schedule);
            let sequential = classify_with(&trace, &detected, 1);
            for jobs in [2, 0] {
                let parallel = classify_with(&trace, &detected, jobs);
                assert_identical(&sequential, &parallel, &format!("{id} jobs={jobs}"));
            }
        }
    }
}

#[test]
fn vproc_replays_are_two_per_analyzed_instance() {
    // The detector emits each dynamic access pair once, so no two planned
    // replays share an identity: every analyzed instance costs exactly its
    // two orders, and a cache keyed on that identity could never hit.
    for id in instance_ids() {
        for schedule in schedules() {
            let (trace, detected) = pattern_trace(id, &schedule);
            for jobs in [1, 2, 0] {
                let result = classify_with(&trace, &detected, jobs);
                let analyzed: usize = result.races.values().map(|r| r.counts.analyzed).sum();
                assert_eq!(result.vproc_replays, 2 * analyzed as u64, "{id} jobs={jobs}");
            }
        }
    }
}

/// Splits detected races into two halves per static race, preserving the
/// per-race instance order (the first ⌈n/2⌉ instances, then the rest).
fn split_detected(detected: &DetectedRaces) -> (DetectedRaces, DetectedRaces) {
    let mut first =
        DetectedRaces { instances: detected.instances.clone(), ..DetectedRaces::default() };
    let mut second =
        DetectedRaces { instances: detected.instances.clone(), ..DetectedRaces::default() };
    for (id, indices) in &detected.by_static {
        let mid = indices.len().div_ceil(2);
        first.by_static.insert(*id, indices[..mid].to_vec());
        if indices.len() > mid {
            second.by_static.insert(*id, indices[mid..].to_vec());
        }
    }
    (first, second)
}

#[test]
fn merging_split_executions_equals_classifying_everything_at_once() {
    // §4.3 accounting reconciliation: classifying two halves of the
    // instance evidence and merging must equal classifying it all at once —
    // including the replay counter and each race's kept live-outs.
    for id in ["ax_s1", "us_h1", "hf_rc", "rw2"] {
        let schedule = RunConfig::chunked(9, 1, 6).with_max_steps(400_000);
        let (trace, detected) = pattern_trace(id, &schedule);
        let whole = classify_with(&trace, &detected, 2);
        let (first, second) = split_detected(&detected);
        let merged = merge_classifications(&[
            classify_with(&trace, &first, 2),
            classify_with(&trace, &second, 2),
        ]);
        assert_identical(&whole, &merged, id);
    }
}

#[test]
fn engine_counters_are_exact_on_the_corpus_executions() {
    // Summed over the 20 pinned executions with trust off. Shared: one
    // `run_unit` per region pair runs each side's prefix once for both
    // orders — 70 multi-pair units plus 42 single-instance units, two
    // prefix executions each. Off: two `run_pair` calls per instance, each
    // running both prefixes. Both replay the same 2,318 orders.
    let traces: Vec<_> = corpus_executions()
        .iter()
        .map(|exec| execution_trace(&exec.enabled, &exec.schedule))
        .collect();
    let shared = BatchStats {
        batches: 70,
        forks: 2_234,
        prefix_executions: 224,
        prefix_instrs_saved: 94_444,
        live_in_index_hits: 141,
    };
    let unbatched =
        BatchStats { prefix_executions: 4_636, live_in_index_hits: 141, ..BatchStats::default() };
    for jobs in [1, 2] {
        for (batching, expected) in [(BatchMode::Shared, shared), (BatchMode::Off, unbatched)] {
            let config = ClassifierConfig { jobs, batching, ..ClassifierConfig::default() };
            let mut replays = 0;
            let mut stats = BatchStats::default();
            for (trace, detected) in &traces {
                let result = classify_races_with(trace, detected, &config, None);
                replays += result.vproc_replays;
                stats.absorb(result.batch_stats);
            }
            assert_eq!(replays, 2_318, "{batching:?} jobs={jobs}");
            assert_eq!(stats, expected, "{batching:?} jobs={jobs}");
        }
    }
}
