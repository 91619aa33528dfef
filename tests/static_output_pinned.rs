//! Byte-for-byte pin of the static analyzer's output on the corpus.
//!
//! For each of the 20 corpus executions and the full corpus program, three
//! renderings are digested: the pretty lint JSON and the lint text of
//! `racecheck::analyze`, and the pretty lint JSON of
//! `racecheck::analyze_without_order`. The digests must equal the pinned
//! ones, so any change to what the analysis reports — stats, locks,
//! handoffs, order edges, `pruned_pairs`, warnings, or their order — fails
//! here. A deliberate change to the analysis re-pins the table from the
//! failure message.
//!
//! The same test pins the analysis's work counters (`Analysis::work`)
//! summed over the 20 executions: a change that claims to make the
//! analysis cheaper without changing what it proves must leave them equal.
//!
//! The digest is FNV-1a-64, written out below rather than taken from
//! `std::hash::DefaultHasher`, whose algorithm may change between Rust
//! releases.

use std::collections::BTreeSet;

use racecheck::AnalysisWork;
use tvm::program::Program;
use workloads::corpus::{corpus_executions, corpus_program};

/// `[lint JSON, lint text, lint JSON without the order pass]` per program.
const PINNED: &[(&str, [u64; 3])] = &[
    ("e01_shell_startup", [0x2353856d93e0ad6a, 0xd18e2f6e709ba4b0, 0xdbdf2cb8c92572cc]),
    ("e02_settings_service", [0xd1dbb5e24fb2259d, 0x2b518f826b752ca3, 0xd1dbb5e24fb2259d]),
    ("e03_page_load", [0x55c7f5aed5a693e2, 0x2e08f9b6bf9241ce, 0x7bd32d19261d45be]),
    ("e04_media_scan", [0x9303e9c438cf5250, 0xbfb3a18210ee5fd5, 0x0192056a976a0790]),
    ("e05_session_teardown", [0x0b0bb4acaf6c8be5, 0x0c7bedafdab1efb0, 0xbbf01a05d8be4a72]),
    ("e06_theme_switch", [0xe9e1cd7dd9f67e9d, 0x4c761a6e1f1329b9, 0xe9e1cd7dd9f67e9d]),
    ("e07_indexer", [0x11dad807aa489db3, 0x243c960053b0de30, 0x11dad807aa489db3]),
    ("e08_download_manager", [0xdd0e67d47d61b3b7, 0xf69953b69c900abb, 0xdd0e67d47d61b3b7]),
    ("e09_font_cache", [0xc88fd03aacc54059, 0x25cbe5d711b51ebd, 0xc88fd03aacc54059]),
    ("e10_history_flush", [0x91e4fc26febfcc1a, 0xa0abfcb24966c0e6, 0x91e4fc26febfcc1a]),
    ("e11_favicon_fetch", [0xff4bd65f910c8e41, 0xa4f9a41759277f1e, 0xff4bd65f910c8e41]),
    ("e12_print_spooler", [0x059e3b5fb18ce287, 0x7c7c1b0b0a24b804, 0x059e3b5fb18ce287]),
    ("e13_tab_close", [0x6fdb236b467ea7d8, 0x3f124d27454eeb02, 0x93147e624662d2ec]),
    ("e14_cache_eviction", [0xbe96d15421afa03a, 0x549458602553727b, 0xbe96d15421afa03a]),
    ("e15_form_autofill", [0x55c7f5aed5a693e2, 0x2e08f9b6bf9241ce, 0x7bd32d19261d45be]),
    ("e16_update_check", [0x273d9af255422fcd, 0x2cdedca4f292f4f3, 0x273d9af255422fcd]),
    ("e17_gc_pass", [0xc1d786bce639c947, 0x86573758008645fd, 0x409838a7a4974158]),
    ("e18_stress_mix", [0x0b92eb6c441571fc, 0x8b79546d32a0aa76, 0x3b9b9da60418d930]),
    ("e19_impact_probe", [0x5416b4d83a935a56, 0x2011fb5c4a8e0735, 0x5416b4d83a935a56]),
    ("e20_impact_sweep", [0xab822f040a43507d, 0x126df8328bbcd3d4, 0xab822f040a43507d]),
    ("full_corpus", [0x55c7f5aed5a693e2, 0x2e08f9b6bf9241ce, 0x7bd32d19261d45be]),
];

/// `Analysis::work` of `racecheck::analyze`, summed over the 20 corpus
/// executions (the full corpus program not included).
const PINNED_WORK: AnalysisWork = AnalysisWork {
    thread_runs: 2_544,
    fixpoint_visits: 19_917,
    joins: 4_485,
    widenings: 25,
    access_pairs: 225_936,
};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The program's three digests, and the work `analyze` did on it.
fn digests(program: &Program) -> ([u64; 3], AnalysisWork) {
    let analysis = racecheck::analyze(program);
    let without_order = racecheck::analyze_without_order(program);
    let digests = [
        fnv1a64(racecheck::render_json(&analysis).to_string_pretty().as_bytes()),
        fnv1a64(racecheck::render_text(&analysis).as_bytes()),
        fnv1a64(racecheck::render_json(&without_order).to_string_pretty().as_bytes()),
    ];
    (digests, analysis.work)
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn analyzer_output_on_the_corpus_is_pinned() {
    let executions = corpus_executions();
    let full: BTreeSet<&str> = executions.iter().flat_map(|e| e.enabled.iter().copied()).collect();
    let mut work = AnalysisWork::default();
    let mut got: Vec<(&str, [u64; 3])> = executions
        .iter()
        .map(|e| {
            let (digests, w) = digests(&corpus_program(&e.enabled.iter().copied().collect()));
            work += w;
            (e.name, digests)
        })
        .collect();
    got.push(("full_corpus", digests(&corpus_program(&full)).0));

    let table: String = got
        .iter()
        .map(|(name, [json, text, unordered])| {
            format!("    (\"{name}\", [{json:#018x}, {text:#018x}, {unordered:#018x}]),\n")
        })
        .collect();
    assert!(got == PINNED, "analyzer output changed; the digests now read:\n{table}");
    assert_eq!(work, PINNED_WORK, "the analysis's work on the corpus changed");
}
