//! The persistent report cache: one record file per classified workload.
//!
//! A submission's report is a pure function of the assembled program, the
//! submitted log container bytes, and the classifier options that can
//! change it: the virtual processor's permissive flags and the static trust
//! tier (worker count and batching never change a report; the step and
//! instance budgets are constants). The cache binds exactly those
//! inputs into a [`WorkloadKey`] and keeps, per workload, one file
//! `DIR/<32 hex digits>.rrr` holding the finished report JSON, so a hit
//! skips log decode, replay, detection, classification and rendering.
//!
//! # Record format
//!
//! ```text
//! magic "RRREPRT4" ‖ checksum [16] ‖ identity [16] ‖ permissive flags u8 ‖
//! trust tier flags u8 ‖ log length u64 ‖ program length u64 ‖ program ‖
//! report JSON (compact)
//! ```
//!
//! Integers are little-endian. The program is its canonical disassembly
//! ([`tvm::asm::disassemble`]: instructions, threads, marks and globals,
//! everything a report can quote). The identity is a 128-bit digest of
//! program, log bytes and options; the checksum is the same digest over
//! everything after it. A record is served only when magic, checksum,
//! identity, options, log length and program bytes all match the request
//! and the report is UTF-8 and well-formed JSON; anything else — a torn or
//! flipped file, a record copied under another identity's name, a segment
//! file of the per-pair format this replaced — is a miss, never an error
//! or a wrong report. A hit returns the report as the record's own text,
//! checked by [`Json::validate`] but never parsed into a tree, so the
//! server answers with those bytes as they are.
//!
//! # Durability
//!
//! A record is written once, before the server answers: to a uniquely
//! named `.tmp` file, synced, renamed into place, and the directory
//! synced. A client holding its answer therefore always hits on
//! resubmission, and a crash leaves either no record or a whole one, plus
//! at most a stray tmp file that [`ReportCache::open`] deletes. Records
//! are never appended to or rewritten; a damaged one is replaced by the
//! next successful classification of its workload.

use std::fs;
use std::hash::{DefaultHasher, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use minijson::Json;
use replay_race::classify::ClassifierConfig;
use tvm::Program;

/// Record-file magic: `RR` report record, format version `4`. Bump the
/// version whenever the record layout changes or a pipeline change alters
/// any report, or records written by an older build keep serving its
/// bytes. Version 2 reports quote a pc that carries several marks by its
/// smallest name. Version 3 adds the trust-tier byte to the options, as
/// the service now honors `--trust-static`. Version 4 drops the step and
/// instance budgets from the options, as both are constants.
pub const RECORD_MAGIC: &[u8; 8] = b"RRREPRT4";

/// Record file extension.
const RECORD_EXT: &str = "rrr";

/// Temporary-file extension; stray ones are deleted on open.
const TMP_EXT: &str = "tmp";

/// A cache failure (io, or a directory that cannot be prepared).
#[derive(Debug)]
pub struct CacheError {
    pub message: String,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError { message: format!("cache io error: {e}") }
    }
}

/// A 128-bit digest from std alone: two domain-separated passes of
/// `DefaultHasher` (SipHash with fixed keys, so stable across processes)
/// over length-prefixed parts. A toolchain that changed the hasher would
/// only turn every record into a miss.
fn digest128(parts: &[&[u8]]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (domain, half) in out.chunks_exact_mut(8).enumerate() {
        let mut h = DefaultHasher::new();
        h.write_u8(domain as u8);
        for part in parts {
            h.write_u64(part.len() as u64);
            h.write(part);
        }
        half.copy_from_slice(&h.finish().to_le_bytes());
    }
    out
}

/// One submitted workload's identity: everything its report depends on.
#[derive(Clone, Debug)]
pub struct WorkloadKey {
    identity: [u8; 16],
    /// The record bytes after the checksum and before the report: identity,
    /// options, log length, program length and program.
    header: Vec<u8>,
}

impl WorkloadKey {
    /// Binds an assembled program, the raw log container bytes and the
    /// classifier options that can change the report.
    #[must_use]
    pub fn new(program: &Program, log: &[u8], classifier: &ClassifierConfig) -> Self {
        let program = tvm::asm::disassemble(program);
        let (vproc, trust) = (classifier.vproc, classifier.trust_static);
        let options = [
            u8::from(vproc.permissive_unknown_loads) | u8::from(vproc.permissive_control_flow) << 1,
            u8::from(trust.skips_benign()) | u8::from(trust.skips_unreachable()) << 1,
        ];
        let identity = digest128(&[program.as_bytes(), log, &options]);
        let mut header = Vec::with_capacity(16 + options.len() + 16 + program.len());
        header.extend_from_slice(&identity);
        header.extend_from_slice(&options);
        header.extend_from_slice(&(log.len() as u64).to_le_bytes());
        header.extend_from_slice(&(program.len() as u64).to_le_bytes());
        header.extend_from_slice(program.as_bytes());
        WorkloadKey { identity, header }
    }

    /// The record's file name: the identity in hex plus the extension.
    #[must_use]
    pub fn file_name(&self) -> String {
        let hex: String = self.identity.iter().map(|b| format!("{b:02x}")).collect();
        format!("{hex}.{RECORD_EXT}")
    }

    /// The full record for `report`, compact JSON text.
    fn encode(&self, report: &str) -> Vec<u8> {
        let body_start = RECORD_MAGIC.len() + 16;
        let mut record = Vec::with_capacity(body_start + self.header.len() + report.len());
        record.extend_from_slice(RECORD_MAGIC);
        record.extend_from_slice(&[0; 16]);
        record.extend_from_slice(&self.header);
        record.extend_from_slice(report.as_bytes());
        let checksum = digest128(&[&record[body_start..]]);
        record[RECORD_MAGIC.len()..body_start].copy_from_slice(&checksum);
        record
    }

    /// The report text a record holds for this workload, in the record's
    /// own buffer, or `None` when the bytes fail any check.
    fn decode(&self, mut record: Vec<u8>) -> Option<String> {
        let rest = record.strip_prefix(RECORD_MAGIC)?;
        let (checksum, body) = rest.split_at_checked(16)?;
        if checksum != digest128(&[body]) || !body.starts_with(&self.header) {
            return None;
        }
        record.drain(..RECORD_MAGIC.len() + 16 + self.header.len());
        let report = String::from_utf8(record).ok()?;
        Json::validate(&report).ok()?;
        Some(report)
    }
}

/// Counters the service surfaces through `svc-stats`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Record files in the directory.
    pub entries: u64,
    /// Their total size.
    pub disk_bytes: u64,
    /// Lookups a record answered.
    pub persisted_hits: u64,
    /// Lookups no valid record answered.
    pub misses: u64,
    /// Records written.
    pub persisted_writes: u64,
}

/// The persistent report cache. See the module docs for the format and
/// the crash-consistency argument.
#[derive(Debug)]
pub struct ReportCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    /// Makes tmp-file names unique within the process.
    tmp_seq: AtomicU64,
}

impl ReportCache {
    /// Opens (or creates) the cache rooted at `dir`, deleting stray tmp
    /// files a crash mid-write left behind.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or listed.
    pub fn open(dir: &Path) -> Result<Self, CacheError> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == TMP_EXT) {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(ReportCache {
            dir: dir.to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    fn path(&self, key: &WorkloadKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    fn read(&self, key: &WorkloadKey) -> Option<String> {
        key.decode(fs::read(self.path(key)).ok()?)
    }

    /// The workload's report as compact JSON text, when a valid record
    /// holds it.
    #[must_use]
    pub fn lookup(&self, key: &WorkloadKey) -> Option<String> {
        let found = self.read(key);
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Persists the workload's report, its compact JSON text, unless a
    /// valid record already holds it; returns whether a record was written.
    /// The record is synced and in place when this returns.
    ///
    /// # Errors
    ///
    /// Fails on io errors. The record is then not known to be durable, and
    /// the next miss on the key writes it again.
    pub fn insert(&self, key: &WorkloadKey, report: &str) -> Result<bool, CacheError> {
        if self.read(key).is_some() {
            return Ok(false);
        }
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp =
            self.dir.join(format!("{}-{}-{seq}.{TMP_EXT}", key.file_name(), std::process::id()));
        // The directory is synced after the rename so the new entry, not
        // just the file's bytes, survives a power loss.
        let written = fs::File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(&key.encode(report))?;
                file.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, self.path(key)))
            .and_then(|()| fs::File::open(&self.dir)?.sync_all());
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// The counters, with entries and bytes counted from the directory.
    #[must_use]
    pub fn counts(&self) -> CacheCounts {
        let mut counts = CacheCounts {
            persisted_hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            persisted_writes: self.writes.load(Ordering::Relaxed),
            ..CacheCounts::default()
        };
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            if entry.path().extension().is_some_and(|e| e == RECORD_EXT) {
                counts.entries += 1;
                counts.disk_bytes += entry.metadata().map_or(0, |m| m.len());
            }
        }
        counts
    }
}
