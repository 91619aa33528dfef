//! Cross-validation of the value-impact taint pass against the replay
//! classifier (the tentpole invariants of DESIGN.md D13):
//!
//! 1. **Zero-flip**: skipping replays for impact-unreachable warnings —
//!    alone (`TrustStatic::SkipUnreachable`) or combined with the idiom
//!    tier (`TrustStatic::SkipBoth`) — leaves every race's verdict and
//!    outcome group byte-identical to trust-off, over every corpus
//!    pattern under two schedules and both batch modes.
//! 2. **Soundness**: no race the pass proves `Unreachable` is ever
//!    classified anything but No-State-Change by replay.
//! 3. **Savings**: corpus-wide, the combined tier skips strictly more
//!    vproc replays than the PR 4 idiom tier's 282.

use std::collections::BTreeSet;

use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use replay_race::classify::{
    classify_races_with, predictions_by_id, BatchMode, ClassifierConfig, OutcomeGroup, TrustStatic,
};
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::scheduler::RunConfig;
use workloads::corpus::{corpus_program, instance_ids};
use workloads::eval::run_trust_ablation;

fn schedules() -> Vec<RunConfig> {
    vec![
        RunConfig::round_robin(2).with_max_steps(400_000),
        RunConfig::chunked(9, 1, 6).with_max_steps(400_000),
    ]
}

#[test]
fn skip_unreachable_never_changes_a_verdict_or_group() {
    let mut skipped_somewhere = 0u64;
    for id in instance_ids() {
        let enabled: BTreeSet<&str> = [id].into_iter().collect();
        let program = corpus_program(&enabled);
        let predictions = predictions_by_id(&racecheck::analyze(&program));
        for schedule in schedules() {
            let recording = record(&program, &schedule);
            let trace = replay(&program, &recording.log).expect("fresh recordings replay");
            let detected = detect_races(&trace, &DetectorConfig::default());
            for batching in [BatchMode::Off, BatchMode::Shared] {
                let baseline = classify_races_with(
                    &trace,
                    &detected,
                    &ClassifierConfig { batching, ..ClassifierConfig::default() },
                    None,
                );
                for trust in [TrustStatic::SkipUnreachable, TrustStatic::SkipBoth] {
                    let config = ClassifierConfig {
                        trust_static: trust,
                        batching,
                        ..ClassifierConfig::default()
                    };
                    let trusted =
                        classify_races_with(&trace, &detected, &config, Some(&predictions));
                    assert_eq!(
                        baseline.races.keys().collect::<Vec<_>>(),
                        trusted.races.keys().collect::<Vec<_>>(),
                        "{id}/{trust:?}/{batching:?}: trusting proofs added or dropped races"
                    );
                    for (race_id, base) in &baseline.races {
                        let t = &trusted.races[race_id];
                        assert_eq!(
                            base.verdict, t.verdict,
                            "{id}/{trust:?}/{batching:?}: {race_id} verdict flipped"
                        );
                        assert_eq!(
                            base.group, t.group,
                            "{id}/{trust:?}/{batching:?}: {race_id} group changed"
                        );
                    }
                    assert!(
                        trusted.vproc_replays <= baseline.vproc_replays,
                        "{id}/{trust:?}/{batching:?}: trusting proofs added replays"
                    );
                    skipped_somewhere += trusted.static_skipped_races;
                }
            }
        }
    }
    assert!(skipped_somewhere > 0, "the corpus must exercise the skip-unreachable path");
}

#[test]
fn impact_unreachable_races_always_replay_to_no_state_change() {
    let mut checked = 0usize;
    for id in instance_ids() {
        let enabled: BTreeSet<&str> = [id].into_iter().collect();
        let program = corpus_program(&enabled);
        let predictions = predictions_by_id(&racecheck::analyze(&program));
        for schedule in schedules() {
            let recording = record(&program, &schedule);
            let trace = replay(&program, &recording.log).expect("fresh recordings replay");
            let detected = detect_races(&trace, &DetectorConfig::default());
            let result = classify_races_with(&trace, &detected, &ClassifierConfig::default(), None);
            for (race_id, race) in &result.races {
                if predictions
                    .get(race_id)
                    .is_some_and(|p| p.reach == racecheck::Reach::Unreachable)
                {
                    assert_eq!(
                        race.group,
                        OutcomeGroup::NoStateChange,
                        "{id}: {race_id} proven impact-unreachable but replay observed {:?} — \
                         the taint pass is unsound",
                        race.group
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "the corpus must materialize impact-unreachable races");
}

#[test]
fn combined_trust_tier_beats_the_idiom_tier_alone() {
    let ablation = run_trust_ablation();
    assert!(
        ablation.verdict_flips.is_empty(),
        "a trust tier flipped verdicts: {:?}",
        ablation.verdict_flips
    );
    for (label, report) in
        [("skip-unreachable", &ablation.unreachable), ("combined", &ablation.combined)]
    {
        assert_eq!(
            ablation.baseline.merged.races.keys().collect::<Vec<_>>(),
            report.merged.races.keys().collect::<Vec<_>>(),
            "{label}: trusting proofs must not add or drop races"
        );
    }
    assert!(
        ablation.replays_saved_unreachable() > 0,
        "the impact tier must save replays on its own"
    );
    assert!(
        ablation.replays_saved_combined() >= ablation.replays_saved(),
        "combining tiers must never save less than the idiom tier alone"
    );
    // The PR 4 idiom tier saved 282 vproc replays on the then-current
    // corpus; the combined tier must beat that bar on today's.
    assert!(
        ablation.replays_saved_combined() > 282,
        "combined tier saved only {} vproc replays",
        ablation.replays_saved_combined()
    );
}
