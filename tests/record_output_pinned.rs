//! Byte-for-byte pin of what recording produces on the corpus and the
//! paper-scale browser.
//!
//! For each of the 20 corpus executions and the seed-7 paper-scale browser
//! (`chunked(7, 1, 8)`), three things are pinned: the digest of the encoded
//! log (`encode_log(&record(..).log)`), the step count of a native run
//! under the same schedule, and the digest of the native run's output
//! stream. Any change to what the interpreter executes, the order it
//! executes it in, or what the recorder logs fails here. A deliberate
//! change re-pins the table from the failure message.
//!
//! The digest is FNV-1a-64, written out below rather than taken from
//! `std::hash::DefaultHasher`, whose algorithm may change between Rust
//! releases.

use std::sync::Arc;

use idna_replay::codec::encode_log;
use idna_replay::recorder::record;
use tvm::machine::Machine;
use tvm::program::Program;
use tvm::scheduler::{run_native, RunConfig};
use workloads::browser::{browser_program, BrowserConfig};
use workloads::corpus::{corpus_executions, corpus_program};

/// `(name, log digest, encoded log bytes, native steps, output digest)`.
type Pin = (&'static str, u64, usize, u64, u64);

const PINNED: &[Pin] = &[
    ("e01_shell_startup", 0x1751132602dc7143, 6757, 575, 0x1a0f9b8614ca4012),
    ("e02_settings_service", 0x5e895fc1671d756a, 6729, 574, 0x3c9a8e1828c2e6a6),
    ("e03_page_load", 0xb4f58f7a09ccc45c, 6690, 589, 0x245887f7cc427da3),
    ("e04_media_scan", 0x2ed323f9a43ca85c, 6869, 624, 0x7bafb74291492b34),
    ("e05_session_teardown", 0x5ea501ac3427938a, 6753, 562, 0xcda94054327b7ee6),
    ("e06_theme_switch", 0x143d64fd5fb84a7f, 6672, 637, 0x5baf55143fceedc2),
    ("e07_indexer", 0x7030a6939ca9aaf8, 6695, 509, 0xb1a685cdd5a04f94),
    ("e08_download_manager", 0x0377b93e793fbdbd, 6724, 653, 0xa75afb1dc512c928),
    ("e09_font_cache", 0x297009d70151e0be, 6697, 511, 0xb988a0af5c71541a),
    ("e10_history_flush", 0xafb98f8af8507a8e, 6695, 555, 0xcc27106ae2927b55),
    ("e11_favicon_fetch", 0xc10886a190cac9a3, 6662, 494, 0x29cb98c772cc9954),
    ("e12_print_spooler", 0xc36ddce8ff4b1557, 6659, 520, 0xcbf29ce484222325),
    ("e13_tab_close", 0x7c87f6b085c288c0, 6727, 593, 0xa82e397d06f0d9b5),
    ("e14_cache_eviction", 0x83e2dc4bd99fd9eb, 6710, 506, 0x3c9a8e1828c2e6a6),
    ("e15_form_autofill", 0xac6f5bd4f7e7e0ec, 6665, 529, 0x22d6d5aca040547a),
    ("e16_update_check", 0xeb2ca37916a8a018, 6730, 557, 0x3e3b9fd2a93f7c5b),
    ("e17_gc_pass", 0xa959a711e489a737, 6854, 733, 0xb30490007ed56603),
    ("e18_stress_mix", 0x9d21f6ea31a874cc, 6920, 794, 0x85ee1bebccf1f67c),
    ("e19_impact_probe", 0xb2d0801a9facb1af, 6556, 387, 0xf2d945a4230be5ca),
    ("e20_impact_sweep", 0xfaeaf429f58d538e, 6586, 448, 0xcbf29ce484222325),
    ("browser_seed7", 0x8bb7a348749563f6, 6920, 35864, 0x985ee91d391fdd73),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn pin(name: &'static str, program: &Arc<Program>, config: &RunConfig) -> Pin {
    let log = encode_log(&record(program, config).log);
    let mut machine = Machine::new(program.clone());
    let steps = run_native(&mut machine, config).steps;
    let output: Vec<u8> = machine
        .output()
        .iter()
        .flat_map(|o| [(o.tid as u64).to_le_bytes(), o.value.to_le_bytes()])
        .flatten()
        .collect();
    (name, fnv1a64(&log), log.len(), steps, fnv1a64(&output))
}

#[test]
fn recorded_logs_and_native_runs_are_pinned() {
    let mut got: Vec<Pin> = corpus_executions()
        .iter()
        .map(|e| pin(e.name, &corpus_program(&e.enabled.iter().copied().collect()), &e.schedule))
        .collect();
    let browser = browser_program(&BrowserConfig::paper_scale());
    got.push(pin("browser_seed7", &browser, &RunConfig::chunked(7, 1, 8)));

    let table: String = got
        .iter()
        .map(|(name, log, bytes, steps, out)| {
            format!("    (\"{name}\", {log:#018x}, {bytes}, {steps}, {out:#018x}),\n")
        })
        .collect();
    assert!(got == PINNED, "recorded output changed; the pins now read:\n{table}");
}
