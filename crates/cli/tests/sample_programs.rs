//! Drives `racerep` end-to-end over the shipped sample programs in
//! `examples/asm/`.

use std::path::PathBuf;

use idna_replay::vproc::VprocConfig;
use minijson::Json;
use racerep::{cmd_classify, cmd_disasm, cmd_races, cmd_record, cmd_run, parse_schedule};
use replay_race::classify::ClassifierConfig;

fn sample(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/asm").join(name)
}

#[test]
fn samples_assemble_and_run() {
    for name in ["refcount.tasm", "handoff.tasm", "stats.tasm"] {
        let path = sample(name);
        let out = cmd_run(&path, parse_schedule("rr:2").unwrap(), false)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.contains("completed"), "{name}: {out}");
        // Disassembly round-trips through the assembler.
        let disasm = cmd_disasm(&path).unwrap();
        assert!(tvm::asm::assemble(&disasm).is_ok(), "{name} disassembly must reassemble");
    }
}

#[test]
fn refcount_sample_is_flagged_harmful_under_an_adversarial_schedule() {
    let path = sample("refcount.tasm");
    for seed in 0..32u64 {
        let spec = format!("chunked:{seed}:1:6");
        let report = cmd_classify(
            &path,
            parse_schedule(&spec).unwrap(),
            false,
            &ClassifierConfig::default(),
            false,
        )
        .unwrap();
        if report.contains("POTENTIALLY HARMFUL") {
            assert!(
                report.contains("w1_") || report.contains("w2_") || report.contains("st [r15+16]"),
                "the refcount instructions appear in the report:\n{report}"
            );
            return;
        }
    }
    panic!("no schedule exposed the refcount bug");
}

#[test]
fn handoff_sample_is_filtered_benign() {
    let path = sample("handoff.tasm");
    let report = cmd_classify(
        &path,
        parse_schedule("rr:2").unwrap(),
        false,
        &ClassifierConfig::default(),
        false,
    )
    .unwrap();
    assert!(report.contains("potentially benign"), "{report}");
    assert!(!report.contains("POTENTIALLY HARMFUL"), "{report}");
}

#[test]
fn stats_sample_is_flagged_like_the_paper() {
    // Approximate computation: really benign, flagged potentially harmful.
    let path = sample("stats.tasm");
    let report = cmd_classify(
        &path,
        parse_schedule("rr:2").unwrap(),
        false,
        &ClassifierConfig::default(),
        false,
    )
    .unwrap();
    assert!(report.contains("POTENTIALLY HARMFUL"), "{report}");
}

#[test]
fn permissive_refcount_report_shows_the_memory_difference() {
    // On rr:1 both refcount races are State-Change under permissive
    // control flow. Their difference line must come from the live-outs the
    // permissive classification kept, not from a re-replay under default
    // options (which fails on the unrecorded branch).
    let path = sample("refcount.tasm");
    let log = std::env::temp_dir()
        .join(format!("racerep_sample_refcount_rr1_{}.idna", std::process::id()));
    cmd_record(&path, &log, parse_schedule("rr:1").unwrap()).unwrap();
    let permissive =
        ClassifierConfig { vproc: VprocConfig::permissive(), ..ClassifierConfig::default() };
    let json = cmd_races(&path, &log, true, &permissive, None, false, false).unwrap();
    let _ = std::fs::remove_file(&log);
    let doc = Json::parse(&json).unwrap();
    let differences: Vec<&str> = doc
        .field("races")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|race| race.get("group").and_then(Json::as_str) == Some("StateChange"))
        .map(|race| race.field("scenario").unwrap().field("difference").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(differences.len(), 2, "{json}");
    for difference in differences {
        assert!(difference.starts_with("memory differs at [0x10]="), "{difference}");
    }
}
