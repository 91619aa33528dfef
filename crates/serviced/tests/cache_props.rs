//! Property tests for the persistent report cache: seeded workloads get
//! one record file each, a hit serves exactly the compact report text
//! inserted, and every way a record can go wrong on disk — truncation at
//! any byte, a flipped bit, a file under another identity's name or
//! another trust tier's, a record of an earlier format version, a report
//! that is not JSON, a leftover segment of the old per-pair format, a
//! stray tmp file — must read back as a miss, never as an error or a
//! wrong report.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use idna_replay::vproc::VprocConfig;
use minijson::Json;
use replay_race::classify::{ClassifierConfig, TrustStatic};
use serviced::cache::{ReportCache, WorkloadKey, RECORD_MAGIC};

/// xorshift64* — deterministic, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A report-shaped document with escapes, unicode and large integers.
fn report(rng: &mut Rng) -> Json {
    let races = (0..1 + rng.below(4))
        .map(|_| {
            Json::obj(vec![
                ("pc_lo", Json::from(rng.below(500))),
                ("pc_hi", Json::from(rng.next())),
                (
                    "verdict",
                    Json::str(["PotentiallyBenign", "PotentiallyHarmful"][rng.below(2) as usize]),
                ),
                (
                    "difference",
                    Json::str(format!(
                        "memory differs at [{:#x}]=\"{}\" ✓\n",
                        rng.below(64),
                        rng.next()
                    )),
                ),
                (
                    "scenario",
                    if rng.below(2) == 0 { Json::Null } else { Json::Arr(vec![Json::from(true)]) },
                ),
            ])
        })
        .collect();
    Json::obj(vec![("races", Json::Arr(races)), ("log_damaged_races", Json::from(rng.below(3)))])
}

/// Distinct workloads: programs, logs and options all vary. Each report is
/// its compact text, as the server renders it.
fn seeded_entries(seed: u64, n: usize) -> Vec<(WorkloadKey, String)> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|i| {
            let source =
                format!(".thread t{i}\n  movi r1, {}\n  st [r15+8], r1\n  halt\n", rng.next());
            let program = tvm::asm::assemble(&source).unwrap();
            let log: Vec<u8> = (0..16 + rng.below(48)).map(|_| rng.next() as u8).collect();
            let vproc =
                if rng.below(2) == 0 { VprocConfig::default() } else { VprocConfig::permissive() };
            let classifier = ClassifierConfig { vproc, ..ClassifierConfig::default() };
            (WorkloadKey::new(&program, &log, &classifier), report(&mut rng).to_string_compact())
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("racerepd-cache-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn filled(dir: &Path, entries: &[(WorkloadKey, String)]) -> ReportCache {
    let cache = ReportCache::open(dir).unwrap();
    for (key, report) in entries {
        assert!(cache.insert(key, report).unwrap(), "a fresh workload writes a record");
    }
    cache
}

/// Cut each record at *every* byte boundary: only the whole file serves,
/// and it serves the original report.
#[test]
fn truncation_at_every_byte_is_a_miss() {
    let entries = seeded_entries(0x5eed_cafe, 3);
    let dir = temp_dir("truncate");
    let cache = filled(&dir, &entries);
    for (key, report) in &entries {
        let path = dir.join(key.file_name());
        let full = std::fs::read(&path).unwrap();
        assert!(full.starts_with(RECORD_MAGIC));
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(cache.lookup(key), None, "cut at byte {cut} of {}", full.len());
        }
        std::fs::write(&path, &full).unwrap();
        assert_eq!(cache.lookup(key).as_deref(), Some(report.as_str()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped bit anywhere in a record — magic, checksum, identity,
/// options, program or report — turns it into a miss; the cache heals by
/// rewriting the record on the next insert.
#[test]
fn bit_flip_never_serves_damaged_values() {
    let entries = seeded_entries(0xfeed_beef, 4);
    let dir = temp_dir("bitflip");
    let cache = filled(&dir, &entries);
    let mut rng = Rng(0x0dd_b17 | 1);
    for _ in 0..200 {
        let (key, report) = &entries[rng.below(entries.len() as u64) as usize];
        let path = dir.join(key.file_name());
        let full = std::fs::read(&path).unwrap();
        let mut damaged = full.clone();
        damaged[rng.below(full.len() as u64) as usize] ^= 1 << rng.below(8);
        std::fs::write(&path, &damaged).unwrap();
        assert_eq!(cache.lookup(key), None, "a damaged record must not serve");
        assert!(cache.insert(key, report).unwrap(), "a damaged record is rewritten");
        assert_eq!(std::fs::read(&path).unwrap(), full);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reopened cache serves every record, and re-inserting writes nothing.
#[test]
fn reopen_roundtrip_and_idempotent_insert() {
    let entries = seeded_entries(0xd1ce_f00d, 12);
    let dir = temp_dir("reopen");
    drop(filled(&dir, &entries));
    let cache = ReportCache::open(&dir).unwrap();
    for (key, report) in &entries {
        assert_eq!(cache.lookup(key).as_deref(), Some(report.as_str()));
    }
    let counts = cache.counts();
    assert_eq!(counts.entries, entries.len() as u64, "one record per workload");
    assert_eq!((counts.persisted_hits, counts.misses), (entries.len() as u64, 0));
    let bytes: Vec<Vec<u8>> =
        entries.iter().map(|(key, _)| std::fs::read(dir.join(key.file_name())).unwrap()).collect();
    for (key, report) in &entries {
        assert!(!cache.insert(key, report).unwrap(), "an existing record is kept");
    }
    assert_eq!(cache.counts().persisted_writes, 0);
    assert_eq!(cache.counts().disk_bytes, counts.disk_bytes);
    for ((key, _), before) in entries.iter().zip(&bytes) {
        assert_eq!(&std::fs::read(dir.join(key.file_name())).unwrap(), before);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A whole, valid record copied under another workload's file name is a
/// miss for that workload: the identity, options, log length and program
/// stored inside must match the request, not just the file name.
#[test]
fn a_record_under_another_identity_is_a_miss() {
    let entries = seeded_entries(0xabad_1dea, 6);
    let dir = temp_dir("identity");
    let cache = filled(&dir, &entries);
    let originals: Vec<Vec<u8>> =
        entries.iter().map(|(key, _)| std::fs::read(dir.join(key.file_name())).unwrap()).collect();
    for (i, (key, _)) in entries.iter().enumerate() {
        let other = &originals[(i + 1) % entries.len()];
        std::fs::write(dir.join(key.file_name()), other).unwrap();
        assert_eq!(cache.lookup(key), None, "entry {i} served another workload's report");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record of an earlier format version is a miss even when every other
/// byte is intact: version 1 records may quote another mark name for a pc
/// that carries several, version 2 records carry no trust tier, and
/// version 3 records carry the step and instance budgets, which are now
/// constants.
#[test]
fn a_previous_version_record_is_a_miss() {
    let entries = seeded_entries(0x2e2e_a1a1, 3);
    let dir = temp_dir("version");
    let cache = filled(&dir, &entries);
    for (key, report) in &entries {
        let path = dir.join(key.file_name());
        let full = std::fs::read(&path).unwrap();
        for magic in [b"RRREPRT1", b"RRREPRT2", b"RRREPRT3"] {
            let mut old = full.clone();
            old[..8].copy_from_slice(magic);
            std::fs::write(&path, &old).unwrap();
            assert_eq!(cache.lookup(key), None, "an {magic:?} record served");
            assert!(cache.insert(key, report).unwrap(), "the old record is replaced");
            assert_eq!(std::fs::read(&path).unwrap(), full);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trust tier decides which races are recorded benign without replay,
/// so it is part of a workload's identity: one program and log key four
/// different records under the four tiers, and a record inserted under
/// one tier is a miss under each of the other three — also when it is
/// copied to that tier's file name.
#[test]
fn the_trust_tier_is_part_of_a_workloads_identity() {
    let program =
        tvm::asm::assemble(".thread t\n  movi r1, 1\n  st [r15+8], r1\n  halt\n").unwrap();
    let log = b"one log container".to_vec();
    let keys: Vec<WorkloadKey> = [
        TrustStatic::Off,
        TrustStatic::SkipAgreedBenign,
        TrustStatic::SkipUnreachable,
        TrustStatic::SkipBoth,
    ]
    .into_iter()
    .map(|trust_static| {
        WorkloadKey::new(&program, &log, &ClassifierConfig { trust_static, ..Default::default() })
    })
    .collect();
    let names: BTreeSet<String> = keys.iter().map(WorkloadKey::file_name).collect();
    assert_eq!(names.len(), keys.len(), "two tiers share an identity");
    let report = report(&mut Rng(0x7135_7a71)).to_string_compact();
    for (i, key) in keys.iter().enumerate() {
        let dir = temp_dir(&format!("tier{i}"));
        let cache = ReportCache::open(&dir).unwrap();
        assert!(cache.insert(key, &report).unwrap());
        let record = std::fs::read(dir.join(key.file_name())).unwrap();
        for (j, other) in keys.iter().enumerate().filter(|&(j, _)| j != i) {
            assert_eq!(cache.lookup(other), None, "tier {i}'s record answered tier {j}");
            std::fs::write(dir.join(other.file_name()), &record).unwrap();
            assert_eq!(cache.lookup(other), None, "tier {i}'s record, renamed, answered tier {j}");
        }
        assert_eq!(cache.lookup(key).as_deref(), Some(report.as_str()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A record whose checksum holds but whose report is not one well-formed
/// JSON document never serves; a valid insert replaces it.
#[test]
fn a_record_holding_malformed_json_is_a_miss() {
    let entries = seeded_entries(0xbad_150e, 2);
    let dir = temp_dir("malformed");
    let cache = ReportCache::open(&dir).unwrap();
    for (key, report) in &entries {
        for bad in ["", "{", "{\"races\":[1,]}", "[] []", &report[..report.len() - 1]] {
            assert!(cache.insert(key, bad).unwrap(), "a record that does not serve is rewritten");
            assert_eq!(cache.lookup(key), None, "served {bad:?}");
        }
        assert!(cache.insert(key, report).unwrap());
        assert_eq!(cache.lookup(key).as_deref(), Some(report.as_str()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment of the per-pair replay format this cache replaced is left
/// alone and never read: it counts as no entry and answers nothing.
#[test]
fn old_replay_segments_are_ignored() {
    let entries = seeded_entries(0x01d5_e6e5, 2);
    let dir = temp_dir("segments");
    let segment = dir.join("cache-000000.rrc");
    let mut old = b"RRCACHE1".to_vec();
    old.extend_from_slice(&[7u8; 300]);
    std::fs::write(&segment, &old).unwrap();
    let cache = ReportCache::open(&dir).unwrap();
    assert_eq!(cache.counts().entries, 0);
    for (key, report) in &entries {
        assert_eq!(cache.lookup(key), None);
        assert!(cache.insert(key, report).unwrap());
        assert_eq!(cache.lookup(key).as_deref(), Some(report.as_str()));
    }
    assert_eq!(cache.counts().entries, entries.len() as u64);
    assert_eq!(std::fs::read(&segment).unwrap(), old, "the old segment is not touched");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tmp file left by a crash mid-write never serves — even one holding a
/// complete record — and opening the cache deletes it.
#[test]
fn stray_tmp_files_are_ignored() {
    let entries = seeded_entries(0x7e4b_7e4b, 1);
    let (key, report) = &entries[0];
    let dir = temp_dir("tmp");
    let record = dir.join(key.file_name());
    let stray = dir.join(format!("{}-1-0.tmp", key.file_name()));
    assert!(ReportCache::open(&dir).unwrap().insert(key, report).unwrap());
    std::fs::rename(&record, &stray).unwrap();
    let cache = ReportCache::open(&dir).unwrap();
    assert!(!stray.exists(), "open deletes stray tmp files");
    assert_eq!(cache.lookup(key), None);
    assert_eq!(cache.counts().entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
