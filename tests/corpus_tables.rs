//! The headline regression test: the 18-execution corpus must reproduce
//! the paper's Table 1 and Table 2 **exactly** — plus the eight planted
//! idiom-exemplar races (`us_x1`/`dc_x1`/`rw_x1`/`db_x1`, all real-benign
//! No-State-Change) that exercise the Table 2 recognizers end-to-end —
//! with the soundness property the paper emphasizes: no harmful race is
//! ever filtered out as potentially benign.

use std::collections::BTreeSet;

use racecheck::{Confidence, Idiom};
use replay_race::classify::{predictions_by_id, OutcomeGroup};
use workloads::corpus::{corpus_executions, corpus_program};
use workloads::eval::{run_corpus, Figure, Table1, Table2};
use workloads::truth::{BenignCategory, HarmfulKind, TrueVerdict};

#[test]
fn corpus_reproduces_the_paper() {
    let report = run_corpus();

    // Every detected race is covered by the ground-truth manifests and
    // every planted race was dynamically detected.
    assert!(report.unexpected.is_empty(), "unplanted races: {:?}", report.unexpected);
    assert!(
        report.missing_races().is_empty(),
        "undetected planted races: {:?}",
        report.missing_races()
    );

    // Table 1 (paper §5.2.2): the paper's 68 unique races — 32
    // No-State-Change (all real-benign), 17 State-Change (15 benign + 2
    // harmful), 19 Replay-Failure (14 benign + 5 harmful) — plus the 8
    // idiom-exemplar races, the broken-handoff exemplar (`ho_x2`), and the
    // dead-value impact exemplars (`im_x1` plus the three `im_x3` scratch
    // words), all No-State-Change benign (32 + 8 + 1 + 4 = 45), plus the
    // sink-reaching impact exemplar (`im_x2`), State-Change harmful
    // (2 + 1 = 3).
    let t1 = Table1::compute(&report);
    assert_eq!(t1.cells, [[45, 0], [15, 3], [14, 5]], "Table 1 mismatch:\n{t1}");
    assert_eq!(t1.total(), 82);
    assert_eq!(t1.potentially_benign(), 45);
    assert_eq!(t1.potentially_harmful(), 37);

    // The paper's headline soundness result: every harmful race was
    // classified potentially harmful.
    assert_eq!(t1.missed_harmful(), 0, "a harmful race was filtered as benign");

    // And the headline productivity result: over half of the real benign
    // races are filtered out.
    let real_benign = 45 + t1.benign_flagged_harmful();
    assert!(45 * 2 >= real_benign, "less than half of the benign races were filtered");

    // Table 2 (paper §5.4): the paper's 61 benign races plus the 8
    // exemplars (+1 user-sync, +2 double-check, +3 redundant-write,
    // +2 disjoint-bits), the broken atomic handoff (+1 user-sync), and
    // the dead-value impact exemplars (+4 both-values-valid).
    let t2 = Table2::compute(&report);
    let expect = [
        (BenignCategory::UserConstructedSync, 10),
        (BenignCategory::DoubleCheck, 5),
        (BenignCategory::BothValuesValid, 9),
        (BenignCategory::RedundantWrite, 16),
        (BenignCategory::DisjointBitManipulation, 11),
        (BenignCategory::ApproximateComputation, 23),
    ];
    for (cat, count) in expect {
        assert_eq!(
            t2.counts.get(&cat).copied().unwrap_or(0),
            count,
            "Table 2 mismatch for {cat}:\n{t2}"
        );
    }
    assert_eq!(t2.total(), 74);

    // Figures 3-5 partition the 82 races: 45 + 8 + 29.
    let f3 = Figure::figure3(&report);
    let f4 = Figure::figure4(&report);
    let f5 = Figure::figure5(&report);
    assert_eq!(f3.bars.len(), 45, "Figure 3 bar count");
    assert_eq!(f4.bars.len(), 8, "Figure 4 bar count");
    assert_eq!(f5.bars.len(), 29, "Figure 5 bar count");

    // Figure 3: potentially-benign races never exposed anything.
    assert!(f3.bars.iter().all(|b| b.exposing == 0));
    // Figures 4/5: flagged races have at least one exposing instance.
    assert!(f4.bars.iter().all(|b| b.exposing >= 1));
    assert!(f5.bars.iter().all(|b| b.exposing >= 1));
    // Figure 4's lesson: some harmful race has many instances of which only
    // a fraction exposes it (the paper's "one in ten").
    assert!(
        f4.bars.iter().any(|b| b.instances >= 20 && b.exposing * 2 <= b.instances),
        "expected a harmful race with mostly-benign instances: {f4}"
    );
}

#[test]
fn idiom_exemplars_are_benign_and_statically_predicted() {
    // The four exemplar instances mirror examples/asm/idiom_*.tasm. Each
    // planted race must (a) carry the planted Table 2 ground truth, (b) be
    // replay-classified No-State-Change, and (c) be tagged by the matching
    // static recognizer at the expected confidence.
    let report = run_corpus();
    let executions = corpus_executions();
    let full: BTreeSet<&str> = executions.iter().flat_map(|e| e.enabled.iter().copied()).collect();
    let program = corpus_program(&full);
    let predictions = predictions_by_id(&racecheck::analyze(&program));

    let expect = [
        (
            "us_x1.set_flag",
            "us_x1.wait_flag",
            BenignCategory::UserConstructedSync,
            Idiom::SpinWait,
            Confidence::High,
        ),
        (
            "dc_x1.outer_check",
            "dc_x1.init_flag",
            BenignCategory::DoubleCheck,
            Idiom::DoubleCheck,
            Confidence::Low,
        ),
        (
            "dc_x1.init_flag",
            "dc_x1.init_flag",
            BenignCategory::DoubleCheck,
            Idiom::RedundantWrite,
            Confidence::High,
        ),
        (
            "rw_x1.write0",
            "rw_x1.write1",
            BenignCategory::RedundantWrite,
            Idiom::RedundantWrite,
            Confidence::High,
        ),
        // The corpus program contains one statically unresolved store (the
        // bv_w1 producer's moving buffer pointer), so the single-valued
        // proof behind write/read redundant-write pairs is downgraded to
        // Low corpus-wide. The standalone exemplar
        // examples/asm/idiom_redundant_write.tasm stays High.
        (
            "rw_x1.write0",
            "rw_x1.read0",
            BenignCategory::RedundantWrite,
            Idiom::RedundantWrite,
            Confidence::Low,
        ),
        (
            "rw_x1.write1",
            "rw_x1.read0",
            BenignCategory::RedundantWrite,
            Idiom::RedundantWrite,
            Confidence::Low,
        ),
        (
            "db_x1.write_low_byte",
            "db_x1.read_high_byte0",
            BenignCategory::DisjointBitManipulation,
            Idiom::DisjointBits,
            Confidence::High,
        ),
        (
            "db_x1.write_low_byte",
            "db_x1.read_high_byte1",
            BenignCategory::DisjointBitManipulation,
            Idiom::DisjointBits,
            Confidence::High,
        ),
    ];
    for (mark_a, mark_b, category, idiom, confidence) in expect {
        let pc_a = program.mark(mark_a).unwrap_or_else(|| panic!("mark {mark_a} missing"));
        let pc_b = program.mark(mark_b).unwrap_or_else(|| panic!("mark {mark_b} missing"));
        let id = replay_race::detect::StaticRaceId::new(pc_a, pc_b);

        assert_eq!(
            report.truth.verdict(id),
            Some(TrueVerdict::Benign(category)),
            "ground truth for ({mark_a}, {mark_b})"
        );
        let race = report
            .merged
            .races
            .get(&id)
            .unwrap_or_else(|| panic!("race ({mark_a}, {mark_b}) never detected"));
        assert_eq!(
            race.group,
            OutcomeGroup::NoStateChange,
            "replay verdict for ({mark_a}, {mark_b})"
        );

        let p = predictions
            .get(&id)
            .unwrap_or_else(|| panic!("no static prediction for ({mark_a}, {mark_b})"));
        assert_eq!(p.predicted.idiom, idiom, "idiom for ({mark_a}, {mark_b})");
        assert_eq!(p.predicted.confidence, confidence, "confidence for ({mark_a}, {mark_b})");
    }
}

#[test]
fn handoff_exemplars_round_trip() {
    // The two atomic-handoff instances pin the static order pass (D11)
    // against the dynamic ground truth, from both directions. The static
    // half runs on the per-execution programs — the exact inputs the
    // detector pre-filter analyzes, where the configuration gates of
    // disabled instances fold to zero and their code is provably dead.
    let report = run_corpus();
    let executions = corpus_executions();

    let race_id = |program: &tvm::program::Program, a: &str, b: &str| {
        let pc_a = program.mark(a).unwrap_or_else(|| panic!("mark {a} missing"));
        let pc_b = program.mark(b).unwrap_or_else(|| panic!("mark {b} missing"));
        replay_race::detect::StaticRaceId::new(pc_a, pc_b)
    };

    // ho_x1 (validated handoff), analyzed per-execution: the data pair is
    // proven ordered — pruned with the statically-ordered reason, no
    // candidate, and indeed never dynamically detected anywhere.
    let e01 = executions.iter().find(|e| e.name == "e01_shell_startup").expect("e01");
    assert!(e01.enabled.contains(&"ho_x1"));
    let program = corpus_program(&e01.enabled.iter().copied().collect());
    let analysis = racecheck::analyze(&program);
    let valid = race_id(&program, "ho_x1.publish", "ho_x1.consume");
    let key = (valid.pc_lo, valid.pc_hi);
    assert_eq!(
        analysis.pruned().get(&key),
        Some(&racecheck::PruneReason::StaticallyOrdered),
        "ho_x1 data pair must be pruned as statically ordered"
    );
    assert!(!analysis.candidates.contains(key.0, key.1));
    assert_eq!(analysis.stats.valid_handoffs, 1);
    assert!(analysis.stats.order_edges >= 1);
    assert!(report.truth.verdict(valid).is_none(), "ho_x1 plants no races");
    assert!(!report.merged.races.contains_key(&valid), "ho_x1 data pair detected dynamically");

    // On the full program the same pair must stay a candidate: bv_w1's
    // statically unresolved buffer store may hit the flag word, and the
    // order pass records that demotion instead of guessing.
    let full: BTreeSet<&str> = executions.iter().flat_map(|e| e.enabled.iter().copied()).collect();
    let full_program = corpus_program(&full);
    let full_analysis = racecheck::analyze(&full_program);
    let full_key = {
        let id = race_id(&full_program, "ho_x1.publish", "ho_x1.consume");
        (id.pc_lo, id.pc_hi)
    };
    assert!(full_analysis.candidates.contains(full_key.0, full_key.1));

    // ho_x2 (rogue second release), analyzed per-execution: the handoff is
    // demoted, the pair stays a candidate, and the race really happens —
    // benign, No-State-Change.
    let e04 = executions.iter().find(|e| e.name == "e04_media_scan").expect("e04");
    assert!(e04.enabled.contains(&"ho_x2"));
    let program = corpus_program(&e04.enabled.iter().copied().collect());
    let analysis = racecheck::analyze(&program);
    let broken = race_id(&program, "ho_x2.publish", "ho_x2.consume");
    assert!(analysis.candidates.contains(broken.pc_lo, broken.pc_hi));
    assert!(
        analysis.order.handoffs.iter().any(|h| h.demoted.is_some_and(|d| d.tag() == "rogue_write")),
        "ho_x2 flag word must be demoted for its rogue second release"
    );
    assert_eq!(
        report.truth.verdict(broken),
        Some(TrueVerdict::Benign(BenignCategory::UserConstructedSync)),
        "ground truth for (ho_x2.publish, ho_x2.consume)"
    );
    let race = report.merged.races.get(&broken).expect("ho_x2 race never detected");
    assert_eq!(race.group, OutcomeGroup::NoStateChange);
}

#[test]
fn impact_exemplars_round_trip() {
    // The two value-impact instances (DESIGN.md D13) pin the taint pass
    // against the dynamic ground truth from both directions: the
    // dead-value race is proven unreachable and replays No-State-Change;
    // the sink-reaching race is proven to hit the output stream and the
    // replay really observes the divergence.
    let report = run_corpus();
    let executions = corpus_executions();
    let full: BTreeSet<&str> = executions.iter().flat_map(|e| e.enabled.iter().copied()).collect();
    let program = corpus_program(&full);
    let analysis = racecheck::analyze(&program);
    let race_id = |a: &str, b: &str| {
        let pc_a = program.mark(a).unwrap_or_else(|| panic!("mark {a} missing"));
        let pc_b = program.mark(b).unwrap_or_else(|| panic!("mark {b} missing"));
        replay_race::detect::StaticRaceId::new(pc_a, pc_b)
    };
    let impact = |id: replay_race::detect::StaticRaceId| {
        analysis
            .warnings
            .iter()
            .find(|w| w.lo.pc == id.pc_lo && w.hi.pc == id.pc_hi)
            .map(|w| w.impact.clone())
            .unwrap_or_else(|| panic!("no warning for {id}"))
    };

    let dead = race_id("im_x1.dead_store", "im_x1.dead_load");
    assert_eq!(
        report.truth.verdict(dead),
        Some(TrueVerdict::Benign(BenignCategory::BothValuesValid)),
        "ground truth for im_x1"
    );
    let race = report.merged.races.get(&dead).expect("im_x1 race never detected");
    assert_eq!(race.group, OutcomeGroup::NoStateChange);
    assert_eq!(impact(dead).reach, racecheck::Reach::Unreachable);

    let sink = race_id("im_x2.sink_store", "im_x2.sink_load");
    assert_eq!(
        report.truth.verdict(sink),
        Some(TrueVerdict::Harmful(HarmfulKind::RacyPublication)),
        "ground truth for im_x2"
    );
    let race = report.merged.races.get(&sink).expect("im_x2 race never detected");
    assert_eq!(race.group, OutcomeGroup::StateChange);
    let sink_impact = impact(sink);
    assert_eq!(sink_impact.reach, racecheck::Reach::Proven);
    assert!(!sink_impact.sink_chain.is_empty(), "proven impact carries its witness chain");
}

#[test]
fn corpus_is_deterministic() {
    // The whole evaluation is replay-based and seeded: two runs must agree
    // bit for bit.
    let a = run_corpus();
    let b = run_corpus();
    assert_eq!(Table1::compute(&a), Table1::compute(&b));
    assert_eq!(Table2::compute(&a), Table2::compute(&b));
    assert_eq!(a.total_instructions, b.total_instructions);
    for (x, y) in a.merged.races.values().zip(b.merged.races.values()) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.group, y.group);
        assert_eq!(x.counts, y.counts);
    }
}
