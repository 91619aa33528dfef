//! Pins the `racerep lint --format json` output of every sample program in
//! `examples/asm/` against its committed golden file, locking both the
//! extended schema (`idiom`, `predicted`, `confidence`, `impact`,
//! `sink_chain`, `pruned_pairs`) and the stable warning order (sorted by
//! `(pc_lo, pc_hi)`, i.e. lowest address class first).
//!
//! It also pins each program's race report (`racerep classify --schedule
//! rr:2 --format json`): verdicts, replay-failure kinds, the difference
//! between the two orders, the original order, and the register context
//! that time travel recovers. Each report is checked under the default
//! engine and under the paper-literal reference engine on one worker.
//!
//! To refresh after an intentional schema or analysis change:
//!
//! ```sh
//! for f in examples/asm/*.tasm; do
//!   cargo run -p racerep -- lint "$f" --format json \
//!     > "examples/asm/golden/$(basename "$f" .tasm).lint.json"
//!   cargo run -p racerep -- classify "$f" --schedule rr:2 --format json \
//!     > "examples/asm/golden/$(basename "$f" .tasm).races.json"
//! done
//! ```

use std::path::PathBuf;

use racerep::{cmd_classify, cmd_lint, parse_schedule, FailOn};
use replay_race::{BatchMode, ClassifierConfig};

const EXEMPLARS: [(&str, &str, &str); 4] = [
    ("idiom_spin_wait", "spin-wait", "high"),
    ("idiom_double_check", "double-check", "low"),
    ("idiom_redundant_write", "redundant-write", "high"),
    ("idiom_disjoint_bits", "disjoint-bits", "high"),
];

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

/// The names of the sample programs in `examples/asm/`, sorted.
fn sample_programs() -> Vec<String> {
    let mut samples: Vec<String> = std::fs::read_dir(repo_path("examples/asm"))
        .expect("examples/asm is readable")
        .filter_map(|e| {
            let name = e.expect("directory entry").file_name().into_string().ok()?;
            name.strip_suffix(".tasm").map(str::to_owned)
        })
        .collect();
    samples.sort();
    assert!(!samples.is_empty(), "no sample programs in examples/asm");
    samples
}

#[test]
fn lint_json_matches_committed_goldens() {
    for name in &sample_programs() {
        let asm = repo_path(&format!("examples/asm/{name}.tasm"));
        let golden = repo_path(&format!("examples/asm/golden/{name}.lint.json"));
        let (out, _) = cmd_lint(&asm, true, FailOn::None).unwrap_or_else(|e| panic!("{name}: {e}"));
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{name}: golden file unreadable: {e}"));
        assert_eq!(
            out, expected,
            "{name}: lint JSON drifted from examples/asm/golden/{name}.lint.json — \
             if intentional, regenerate the goldens (see this file's header)"
        );
    }
}

#[test]
fn races_json_matches_committed_goldens() {
    let schedule = || parse_schedule("rr:2").expect("rr:2 parses");
    // The default engine, and the paper-literal reference engine on one
    // worker: the report depends on neither.
    let reference =
        ClassifierConfig { jobs: 1, batching: BatchMode::Off, ..ClassifierConfig::default() };
    for name in &sample_programs() {
        let asm = repo_path(&format!("examples/asm/{name}.tasm"));
        let golden = repo_path(&format!("examples/asm/golden/{name}.races.json"));
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{name}: golden file unreadable: {e}"));
        for config in [ClassifierConfig::default(), reference] {
            let out = cmd_classify(&asm, schedule(), true, &config, false)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                out, expected,
                "{name} ({:?} engine, jobs {}): race report drifted from \
                 examples/asm/golden/{name}.races.json — if intentional, regenerate the \
                 goldens (see this file's header)",
                config.batching, config.jobs
            );
        }
    }
}

#[test]
fn handoff_exemplars_lint_as_designed() {
    // The valid handoff is statically race-free: one validated handoff,
    // one order edge, the data pair pruned as statically ordered, no
    // warnings. The broken one keeps its warning and records why the
    // handoff proof failed.
    let (out, _) =
        cmd_lint(&repo_path("examples/asm/handoff_valid.tasm"), true, FailOn::Warnings).unwrap();
    let json = minijson::Json::parse(&out).expect("lint json parses");
    let arr = |k: &str| json.get(k).and_then(|v| v.as_arr()).map(<[_]>::len).expect(k);
    assert_eq!(arr("warnings"), 0);
    assert_eq!(arr("order_edges"), 1);
    let stat = |k: &str| json.get("stats").and_then(|s| s.get(k)).and_then(|v| v.as_u64());
    assert_eq!(stat("valid_handoffs"), Some(1));
    assert_eq!(stat("pruned_statically_ordered"), Some(1));

    let (out, _) =
        cmd_lint(&repo_path("examples/asm/handoff_broken.tasm"), true, FailOn::None).unwrap();
    let json = minijson::Json::parse(&out).expect("lint json parses");
    assert!(!json.get("warnings").and_then(|v| v.as_arr()).expect("warnings").is_empty());
    assert_eq!(json.get("order_edges").and_then(|v| v.as_arr()).map(<[_]>::len), Some(0));
    let handoffs = json.get("handoffs").and_then(|v| v.as_arr()).expect("handoffs");
    assert!(
        handoffs.iter().any(|h| h.get("status").and_then(|s| s.as_str()) == Some("rogue_write")),
        "broken handoff must record the rogue-write demotion: {out}"
    );
}

#[test]
fn impact_exemplars_lint_as_designed() {
    // Both impact exemplars race a plain store against a live load, so no
    // benign idiom matches — the reach tier is what distinguishes them.
    // The dead one is proven unreachable (and the `harmful` gate lets it
    // pass); the sink one carries a pc-chain witness to the print.
    let (out, code) =
        cmd_lint(&repo_path("examples/asm/impact_dead.tasm"), true, FailOn::Harmful).unwrap();
    assert_eq!(code, 0, "unreachable impact must pass the harmful gate");
    let json = minijson::Json::parse(&out).expect("lint json parses");
    let w = &json.get("warnings").and_then(|v| v.as_arr()).expect("warnings")[0];
    assert_eq!(w.get("predicted").and_then(|v| v.as_str()), Some("harmful"));
    assert_eq!(w.get("impact").and_then(|v| v.as_str()), Some("unreachable"));
    assert_eq!(w.get("sink_chain").and_then(|v| v.as_arr()).map(<[_]>::len), Some(0));

    let (out, code) =
        cmd_lint(&repo_path("examples/asm/impact_sink.tasm"), true, FailOn::Harmful).unwrap();
    assert_eq!(code, 1, "a proven sink must keep gating");
    let json = minijson::Json::parse(&out).expect("lint json parses");
    let w = &json.get("warnings").and_then(|v| v.as_arr()).expect("warnings")[0];
    assert_eq!(w.get("impact").and_then(|v| v.as_str()), Some("proven"));
    let chain = w.get("sink_chain").and_then(|v| v.as_arr()).expect("sink_chain");
    assert!(!chain.is_empty(), "proven impact must carry its witness chain: {out}");
}

#[test]
fn golden_warnings_carry_the_expected_idiom_and_are_sorted() {
    for (name, idiom, confidence) in EXEMPLARS {
        let (out, _) =
            cmd_lint(&repo_path(&format!("examples/asm/{name}.tasm")), true, FailOn::None).unwrap();
        let json = minijson::Json::parse(&out).expect("lint json parses");
        let warnings = json.get("warnings").and_then(|w| w.as_arr()).expect("warnings array");
        assert!(!warnings.is_empty(), "{name}: no warnings");

        // Every exemplar's warnings are tagged benign, the intended idiom
        // appears at its intended confidence, and the emission order is the
        // sorted (pc_lo, pc_hi) order the schema promises.
        let mut prev = (0u64, 0u64);
        let mut intended = false;
        for w in warnings {
            let key = |k: &str| w.get(k).and_then(|v| v.as_u64()).expect("pc field");
            let s = |k: &str| w.get(k).and_then(|v| v.as_str()).expect("tag field").to_owned();
            let here = (key("pc_lo"), key("pc_hi"));
            assert!(prev <= here, "{name}: warnings out of order: {prev:?} then {here:?}");
            prev = here;
            assert_eq!(s("predicted"), "benign", "{name}: {here:?}");
            intended |= s("idiom") == idiom && s("confidence") == confidence;
        }
        assert!(intended, "{name}: no warning tagged ({idiom}, {confidence})");
    }
}
