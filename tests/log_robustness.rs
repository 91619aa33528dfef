//! Corruption-robustness suite for log ingestion (`DESIGN.md` §D10).
//!
//! Three contracts, checked with seeded corruption so failures reproduce
//! from the printed case label alone:
//!
//! 1. Decoding — strict or tolerant — never panics on corrupted bytes,
//!    only `Ok` or `CodecError`.
//! 2. A tolerant decode never lies: frames reported intact are
//!    byte-identical to what was recorded.
//! 3. Degraded classification never flips a verdict. Races untouched by
//!    the damage classify exactly as on the clean log; races whose
//!    evidence was lost come back as replay failures (`LogDamage`),
//!    never as a silently different verdict.
//!
//! The `corrupt_logs` bench binary sweeps the full corpus with more
//! corruptor classes; this suite keeps a fast deterministic core in the
//! tier-1 test run.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use idna_replay::codec::{decode_log_mode, encode_log, frame_spans, DecodeMode, DecodeReport};
use idna_replay::recorder::record;
use idna_replay::vproc::ReplayFailure;
use replay_race::classify::{ClassifierConfig, InstanceOutcome, OutcomeGroup};
use replay_race::detect::DetectorConfig;
use replay_race::pipeline::analyze_log;
use tvm::isa::Reg;
use tvm::predecode::DecodedProgram;
use tvm::program::Program;
use tvm::rng::SplitMix64;
use tvm::scheduler::RunConfig;
use tvm::ProgramBuilder;
use workloads::corpus::{corpus_program, instance_ids};

/// Frame header size in the v2 container (u32 length + u64 checksum).
const FRAME_HEADER: usize = 12;

/// Records one corpus pattern in isolation and returns its encoded log.
fn pattern_log(id: &str) -> (idna_replay::event::ReplayLog, Vec<u8>) {
    let program = corpus_program(&BTreeSet::from([id]));
    let schedule = RunConfig::round_robin(2).with_max_steps(400_000);
    let recording = record(&program, &schedule);
    let raw = encode_log(&recording.log);
    (recording.log, raw)
}

/// A deterministic sample of corpus patterns — enough to cover the frame
/// shapes (many threads, heap traffic, faults) without recording all of
/// them in the tier-1 run.
fn sampled_patterns() -> Vec<&'static str> {
    instance_ids().into_iter().step_by(9).collect()
}

/// Asserts both decode modes handle `bytes` without panicking, and that a
/// tolerant `Ok` only reports byte-identical frames as intact.
fn check_decode_contract(bytes: &[u8], original: &idna_replay::event::ReplayLog, label: &str) {
    let strict =
        catch_unwind(AssertUnwindSafe(|| decode_log_mode(bytes, DecodeMode::Strict).map(|_| ())));
    assert!(strict.is_ok(), "{label}: strict decode panicked");
    let tolerant = catch_unwind(AssertUnwindSafe(|| decode_log_mode(bytes, DecodeMode::Tolerant)));
    let Ok(tolerant) = tolerant else { panic!("{label}: tolerant decode panicked") };
    if let Ok((log, report)) = tolerant {
        for frame in report.frames.iter().filter(|f| f.status.is_intact()) {
            assert_eq!(
                Some(&log.threads[frame.tid]),
                original.threads.get(frame.tid),
                "{label}: frame {} reported intact but differs from the recording",
                frame.tid
            );
        }
    }
}

#[test]
fn bit_flips_never_panic_and_never_fool_the_decoder() {
    for id in sampled_patterns() {
        let (original, raw) = pattern_log(id);
        let mut rng = SplitMix64::new(0xf11b);
        for i in 0..raw.len() {
            let mut mutant = raw.clone();
            mutant[i] ^= 1 << rng.next_below(8);
            check_decode_contract(&mutant, &original, &format!("{id} flip @{i}"));
        }
    }
}

#[test]
fn truncations_never_panic_and_salvage_the_intact_prefix() {
    for id in sampled_patterns() {
        let (original, raw) = pattern_log(id);
        let spans = frame_spans(&raw);
        assert!(!spans.is_empty(), "{id}: a v2 log has frames");
        // Every frame boundary (and one byte around it), plus a byte-level
        // stride so mid-frame and mid-header cuts are covered too.
        let mut cuts: Vec<usize> =
            spans.iter().flat_map(|s| [s.start.saturating_sub(1), s.start, s.start + 1]).collect();
        cuts.extend((0..raw.len()).step_by(23));
        for cut in cuts {
            let mutant = &raw[..cut.min(raw.len())];
            check_decode_contract(mutant, &original, &format!("{id} cut @{cut}"));
        }
        // Cutting exactly at frame k's start keeps frames 0..k intact.
        for (k, span) in spans.iter().enumerate() {
            let (_, report) = decode_log_mode(&raw[..span.start], DecodeMode::Tolerant)
                .unwrap_or_else(|e| panic!("{id}: boundary cut at frame {k} must salvage: {e}"));
            assert!(
                report.frames.iter().take(k).all(|f| f.status.is_intact()),
                "{id}: frames before the cut at frame {k} must stay intact"
            );
            assert!(
                report.frames.iter().skip(k).all(|f| !f.status.is_intact()),
                "{id}: frames at/after the cut at frame {k} must be reported damaged"
            );
        }
    }
}

#[test]
fn single_frame_damage_leaves_every_other_thread_identical() {
    let (original, raw) = pattern_log("hf_rc");
    let spans = frame_spans(&raw);
    for (k, span) in spans.iter().enumerate() {
        let mut mutant = raw.clone();
        // Flip a payload byte well inside frame k (skip its 12-byte header).
        mutant[span.start + FRAME_HEADER + 2] ^= 0x10;
        let (log, report) =
            decode_log_mode(&mutant, DecodeMode::Tolerant).expect("one bad frame must salvage");
        assert_eq!(report.damaged_frames(), 1, "frame {k}");
        assert!(!report.frames[k].status.is_intact(), "frame {k} must be the damaged one");
        for (tid, thread) in log.threads.iter().enumerate() {
            if tid != k {
                assert_eq!(thread, &original.threads[tid], "thread {tid} (damaged frame {k})");
            }
        }
    }
}

/// Five threads: reader `a` races writers `b`/`c` on global `0x20`, and
/// reader `d` races writer `e` on the disjoint global `0x40`. Damaging
/// c's frame must push the a–b race to `LogDamage` (c's lost write taints
/// `0x20`) while leaving the d–e verdict untouched.
fn two_island_program() -> Arc<Program> {
    // Each reader's racing load is its *first* access to the address. A
    // pair replay oracle-replays both prefixes first and copies recorded
    // load values into its overlay, so any earlier same-address access on
    // either side would satisfy the live load from trusted recorded
    // values and never touch the damage-tainted global history.
    let mut b = ProgramBuilder::new();
    b.thread("a");
    b.load(Reg::R2, Reg::R15, 0x20).halt();
    b.thread("b");
    b.movi(Reg::R1, 2).store(Reg::R1, Reg::R15, 0x20).halt();
    b.thread("c");
    b.movi(Reg::R1, 3).store(Reg::R1, Reg::R15, 0x20).halt();
    b.thread("d");
    b.load(Reg::R2, Reg::R15, 0x40).halt();
    b.thread("e");
    b.movi(Reg::R1, 5).store(Reg::R1, Reg::R15, 0x40).halt();
    Arc::new(b.build())
}

#[test]
fn degraded_classification_never_flips_undamaged_verdicts() {
    let program = two_island_program();
    let schedule = RunConfig::round_robin(1);
    let recording = record(&program, &schedule);
    let raw = encode_log(&recording.log);
    // Both runs take the production path from a decoded log to a report.
    let decoded = Arc::new(DecodedProgram::new(Arc::clone(&program)));
    let analyze = |log, report: &DecodeReport| {
        let config = ClassifierConfig::default();
        analyze_log(&decoded, log, report, &DetectorConfig::default(), &config, None)
    };

    // Clean baseline.
    let clean =
        analyze(&recording.log, &DecodeReport::default()).expect("clean replay").classification;
    assert_eq!(clean.log_damaged_races, 0);

    // Corrupt thread c's frame at its tid varint: the checksum rejects the
    // frame and the salvager sees a tid/slot mismatch, so c degrades to a
    // placeholder (its write of 0x20 is lost entirely).
    let spans = frame_spans(&raw);
    let mut mutant = raw.clone();
    mutant[spans[2].start + FRAME_HEADER] ^= 0x01;
    let (log, report) = decode_log_mode(&mutant, DecodeMode::Tolerant).expect("salvage");
    assert_eq!(report.damaged_frames(), 1);
    assert!(log.threads[2].events.is_empty(), "c must degrade to a placeholder");

    // Tolerant analysis: replay (falling back to placeholder threads),
    // the damage profile, detect, classify.
    let damaged = analyze(&log, &report).expect("tolerant replay").classification;

    let touches_damage = |race: &replay_race::classify::ClassifiedRace| {
        race.instances
            .iter()
            .any(|i| i.outcome == InstanceOutcome::ReplayFailure(ReplayFailure::LogDamage))
    };
    let mut damaged_count = 0u64;
    let mut preserved = 0u64;
    for (id, race) in &damaged.races {
        if touches_damage(race) {
            damaged_count += 1;
            assert_eq!(race.group, OutcomeGroup::ReplayFailure, "{id}");
        } else {
            let baseline = clean
                .races
                .get(id)
                .unwrap_or_else(|| panic!("{id}: race without damage must exist in the clean run"));
            assert_eq!(race.verdict, baseline.verdict, "{id}: verdict flipped under damage");
            assert_eq!(race.group, baseline.group, "{id}: group flipped under damage");
            preserved += 1;
        }
    }
    // The a–b race survives detection (both threads intact) but classifies
    // LogDamage because c's lost write taints 0x20; the d–e race on 0x40
    // is untouched and must classify identically to the clean run.
    assert!(damaged_count >= 1, "the race on the tainted global must surface as LogDamage");
    assert!(preserved >= 1, "the disjoint race must keep its clean verdict");
    assert_eq!(damaged.log_damaged_races, damaged_count);
}
