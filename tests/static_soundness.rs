//! Soundness of the static race analyzer against the dynamic detector.
//!
//! `racecheck::analyze` promises a conservative over-approximation: every
//! race the happens-before detector can report must already be in the
//! static candidate set. These tests pin that claim over the whole corpus
//! — all planted race patterns, each execution run under its own schedule
//! *and* an alternate schedule — and verify that using the candidate set
//! as a detector pre-filter changes cost counters only, never verdicts.

use std::collections::BTreeSet;
use std::sync::Arc;

use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use idna_replay::vproc::VprocConfig;
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::scheduler::RunConfig;
use workloads::corpus::{corpus_executions, corpus_program};
use workloads::eval::run_static_eval;
use workloads::static_feed::classify_static_warnings;

/// An alternate schedule that differs from the execution's pinned one, so
/// each pattern is exercised under two genuinely different interleavings.
fn alternate_schedule(index: usize) -> RunConfig {
    let seed = 1000 + index as u64;
    if index.is_multiple_of(2) {
        RunConfig::chunked(seed, 1, 4).with_max_steps(400_000)
    } else {
        RunConfig::round_robin(1 + index as u64 % 3).with_max_steps(400_000)
    }
}

#[test]
fn every_dynamic_race_is_a_static_candidate_and_the_prefilter_is_exact() {
    let executions = corpus_executions();
    let full: BTreeSet<&str> = executions.iter().flat_map(|e| e.enabled.iter().copied()).collect();
    let candidates = Arc::new(racecheck::analyze(&corpus_program(&full)).candidates);

    let mut dynamic_races = 0usize;
    let mut total_skipped = 0u64;
    for (index, exec) in executions.iter().enumerate() {
        let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
        let program = corpus_program(&enabled);
        for schedule in [exec.schedule, alternate_schedule(index)] {
            let rec = record(&program, &schedule);
            let trace = replay(&program, &rec.log).expect("corpus recording must replay");

            let unfiltered = detect_races(&trace, &DetectorConfig::default());
            for instance in &unfiltered.instances {
                let id = instance.static_id();
                assert!(
                    candidates.contains(id.pc_lo, id.pc_hi),
                    "{}: dynamic race {id} not in the static candidate set (unsound)",
                    exec.name
                );
            }
            dynamic_races += unfiltered.instances.len();

            let filtered_config = DetectorConfig { prefilter: Some(Arc::clone(&candidates)) };
            let filtered = detect_races(&trace, &filtered_config);
            assert_eq!(
                filtered.instances, unfiltered.instances,
                "{}: pre-filter changed the detected instances",
                exec.name
            );
            assert_eq!(
                filtered.by_static, unfiltered.by_static,
                "{}: pre-filter changed the per-race grouping",
                exec.name
            );
            assert_eq!(
                filtered.indexed_accesses + filtered.skipped_accesses,
                unfiltered.indexed_accesses,
                "{}: pre-filter dropped accesses without accounting for them",
                exec.name
            );
            total_skipped += filtered.skipped_accesses;
        }
    }
    assert!(dynamic_races > 0, "the corpus must exercise dynamic races");
    assert!(total_skipped > 0, "the pre-filter should skip some private accesses");
}

#[test]
fn order_pruning_is_sound_per_execution() {
    // The statically-ordered prune rule runs on the per-execution
    // programs (the inputs the detector pre-filter analyzes). For every
    // execution, under its pinned schedule *and* an alternate one: the
    // per-execution candidate set still covers every dynamic race — in
    // particular, no pair the order pass proved ordered ever races.
    let executions = corpus_executions();
    let mut order_pruned_somewhere = 0usize;
    for (index, exec) in executions.iter().enumerate() {
        let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
        let program = corpus_program(&enabled);
        let analysis = racecheck::analyze(&program);
        let base = racecheck::analyze_without_order(&program);

        // The order pass only ever shrinks the candidate set, and a pair
        // is pruned or a candidate, never both.
        for (lo, hi) in analysis.candidates.iter() {
            assert!(
                base.candidates.contains(lo, hi),
                "{}: order pass added candidate ({lo}, {hi})",
                exec.name
            );
        }
        let pruned = analysis.pruned();
        for (&(lo, hi), reason) in &pruned {
            assert!(
                !analysis.candidates.contains(lo, hi),
                "{}: ({lo}, {hi}) both pruned ({}) and a candidate",
                exec.name,
                reason.tag()
            );
        }
        order_pruned_somewhere += analysis.stats.pruned_statically_ordered as usize;

        // May-happen-in-parallel is symmetric over the memory pcs.
        let threads = program.threads().len();
        let pcs: Vec<usize> = analysis.candidates.monitored().collect();
        for ta in 0..threads {
            for tb in 0..threads {
                for &pc_a in &pcs {
                    for &pc_b in &pcs {
                        assert_eq!(
                            analysis.order.may_happen_in_parallel(ta, pc_a, tb, pc_b),
                            analysis.order.may_happen_in_parallel(tb, pc_b, ta, pc_a),
                            "{}: MHP asymmetric for t{ta}:{pc_a} vs t{tb}:{pc_b}",
                            exec.name
                        );
                    }
                }
            }
        }

        for schedule in [exec.schedule, alternate_schedule(index)] {
            let rec = record(&program, &schedule);
            let trace = replay(&program, &rec.log).expect("corpus recording must replay");
            let detected = detect_races(&trace, &DetectorConfig::default());
            for instance in &detected.instances {
                let id = instance.static_id();
                assert!(
                    analysis.candidates.contains(id.pc_lo, id.pc_hi),
                    "{}: dynamic race {id} missing from the per-execution candidates \
                     (pruned: {:?})",
                    exec.name,
                    pruned.get(&(id.pc_lo, id.pc_hi))
                );
            }
        }
    }
    assert!(order_pruned_somewhere > 0, "no execution exercised the order prune rule");
}

#[test]
fn static_feed_classifies_corpus_warnings() {
    let executions = corpus_executions();
    let exec = &executions[0];
    let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
    let program = corpus_program(&enabled);
    let candidates = racecheck::analyze(&program).candidates;

    let rec = record(&program, &exec.schedule);
    let trace = replay(&program, &rec.log).expect("corpus recording must replay");
    let summary = classify_static_warnings(&trace, &candidates, VprocConfig::default());
    assert_eq!(summary.warnings, candidates.len());
    assert_eq!(summary.materialized + summary.unmaterialized, summary.warnings);
    assert_eq!(summary.filtered + summary.flagged, summary.materialized);
    assert!(summary.materialized > 0, "{}: no warning materialized", exec.name);
}

#[test]
fn static_lint_of_the_corpus_program_smokes() {
    let executions = corpus_executions();
    let full: BTreeSet<&str> = executions.iter().flat_map(|e| e.enabled.iter().copied()).collect();
    let analysis = racecheck::analyze(&corpus_program(&full));
    assert!(!analysis.warnings.is_empty());
    assert_eq!(analysis.stats.candidate_pairs, analysis.candidates.len());

    let text = racecheck::render_text(&analysis);
    assert!(text.contains("candidate pair"), "{text}");
    let json = racecheck::render_json(&analysis).to_string_pretty();
    let parsed = minijson::Json::parse(&json).expect("lint json must parse");
    assert_eq!(
        parsed.get("stats").and_then(|s| s.get("candidate_pairs")).and_then(|v| v.as_u64()),
        Some(analysis.stats.candidate_pairs as u64)
    );
}

#[test]
fn static_eval_never_misses_a_harmful_race() {
    let eval = run_static_eval();
    assert_eq!(
        eval.static_alone.flagged_harmful, eval.static_alone.harmful_total,
        "static analysis missed a planted harmful race: {eval:?}"
    );
    assert_eq!(
        eval.combined.flagged_harmful, eval.combined.harmful_total,
        "replay classification filtered a planted harmful race: {eval:?}"
    );
    assert!(
        eval.combined.flagged_benign <= eval.static_alone.flagged_benign,
        "classification must not add benign flags: {eval:?}"
    );
    assert!(eval.covered > 0);
    println!("{eval}");
}
