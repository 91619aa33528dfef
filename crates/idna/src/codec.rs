//! Binary encoding and compression of replay logs.
//!
//! The paper reports ≈0.8 bits per executed instruction for raw iDNA logs
//! and ≈0.3 after zip compression (§5.1). This module provides the two
//! stages for our logs:
//!
//! 1. a compact **binary encoding** — varints with per-stream delta
//!    compression for the monotone indices,
//! 2. an **LZSS** pass (4 KiB window) standing in for the zip utility.
//!
//! [`measure`] computes the bits-per-instruction metrics for the E-LOG
//! experiment.
//!
//! # Framing and corruption tolerance
//!
//! Format version 2 wraps every per-thread log in a checksummed frame:
//! a 4-byte little-endian payload length and an 8-byte [`FastHasher`]
//! checksum, followed by the thread payload. The length lets a decoder
//! skip a frame it cannot read; the checksum tells it whether the frame
//! is worth reading at all. [`decode_log_mode`] in
//! [`DecodeMode::Tolerant`] salvages every intact frame of a damaged
//! log, truncates damaged frames at their last intact sequencer (so the
//! result is a self-consistent shorter recording the replayer accepts
//! unchanged), and substitutes empty placeholder threads for frames
//! that are lost entirely. The accompanying [`DecodeReport`] records
//! which frames survived; `replay_race::pipeline::analyze_log` turns it
//! into the damage horizon the virtual processor uses to map races
//! touching lost state to replay failures. Version-1 logs (no framing)
//! still decode.
//!
//! [`FastHasher`]: tvm::fasthash::FastHasher

use std::fmt;
use std::hash::Hasher;
use std::ops::Range;

use tvm::fasthash::FastHasher;
use tvm::isa::NUM_REGS;
use tvm::machine::Fault;

use crate::event::{EndStatus, ReplayLog, ThreadEvent, ThreadLog};

const MAGIC: &[u8; 4] = b"IDNL";
/// Current format: per-thread checksummed frames.
const FORMAT_VERSION: u8 = 2;
/// The pre-framing flat format; still decoded.
const LEGACY_VERSION: u8 = 1;
/// Bytes of frame header: u32 LE payload length + u64 LE checksum.
const FRAME_HEADER: usize = 12;
/// Upper bound on any single eager `Vec` reservation while decoding
/// untrusted bytes (the allocation-bomb guard); vectors grow normally
/// past it when the input really does hold that much data.
const MAX_PREALLOC: usize = 1 << 20;
/// Largest thread count a tolerant decode will honor when the container
/// is too short to hold all its frames: missing slots degrade to
/// placeholder threads, and this bounds how many can be fabricated from a
/// corrupted count field.
const MAX_TOLERANT_THREADS: usize = 1 << 12;

/// Decoding failed: the byte stream is not a valid encoded log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    pub message: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log decode error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

fn cerr<T>(message: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError { message: message.into() })
}

// --- byte cursor ------------------------------------------------------------

/// A read cursor over a byte slice (the decoding twin of `Vec<u8>`).
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn has_remaining(&self) -> bool {
        self.pos < self.bytes.len()
    }

    fn get_u8(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    fn get_u16(&mut self) -> u16 {
        let v = u16::from_be_bytes([self.bytes[self.pos], self.bytes[self.pos + 1]]);
        self.pos += 2;
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().expect("4 bytes"));
        self.pos += 4;
        v
    }

    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().expect("8 bytes"));
        self.pos += 8;
        v
    }

    fn take(&mut self, len: usize) -> &'a [u8] {
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        s
    }
}

// --- varint primitives ----------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(buf: &mut Reader<'_>) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return cerr("truncated varint");
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return cerr("varint overflow");
        }
        // The tenth byte lands at shift 63 and may only contribute bit 63:
        // anything above would be silently shifted out of the u64.
        if shift == 63 && (byte & 0x7f) > 1 {
            return cerr("varint overflow");
        }
        // `put_varint` never emits a trailing zero byte (it stops at the
        // top non-zero group), so each value has exactly one encoding and
        // round-trips byte-for-byte.
        if byte == 0 && shift > 0 {
            return cerr("non-canonical varint");
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut Reader<'_>) -> Result<String, CodecError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return cerr("truncated string");
    }
    String::from_utf8(buf.take(len).to_vec())
        .map_err(|_| CodecError { message: "bad utf-8".into() })
}

fn put_fault(buf: &mut Vec<u8>, f: Fault) {
    match f {
        Fault::InvalidAccess { addr } => {
            buf.push(0);
            put_varint(buf, addr);
        }
        Fault::UseAfterFree { addr } => {
            buf.push(1);
            put_varint(buf, addr);
        }
        Fault::InvalidFree { addr } => {
            buf.push(2);
            put_varint(buf, addr);
        }
        Fault::DivideByZero => buf.push(3),
        Fault::CallStackOverflow => buf.push(4),
        Fault::CallStackUnderflow => buf.push(5),
        Fault::PcOutOfRange { pc } => {
            buf.push(6);
            put_varint(buf, pc as u64);
        }
    }
}

fn get_fault(buf: &mut Reader<'_>) -> Result<Fault, CodecError> {
    if !buf.has_remaining() {
        return cerr("truncated fault");
    }
    Ok(match buf.get_u8() {
        0 => Fault::InvalidAccess { addr: get_varint(buf)? },
        1 => Fault::UseAfterFree { addr: get_varint(buf)? },
        2 => Fault::InvalidFree { addr: get_varint(buf)? },
        3 => Fault::DivideByZero,
        4 => Fault::CallStackOverflow,
        5 => Fault::CallStackUnderflow,
        6 => Fault::PcOutOfRange { pc: get_varint(buf)? as usize },
        t => return cerr(format!("bad fault tag {t}")),
    })
}

// --- log encoding -----------------------------------------------------------

/// Encodes a log into the compact binary form.
///
/// Allocates a fresh buffer per call; repeated encoders (report building,
/// `loginfo`) should hold a [`LogWriter`] instead.
#[must_use]
pub fn encode_log(log: &ReplayLog) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_log_into(log, &mut buf);
    buf
}

/// Encodes a log into the caller's buffer (cleared first). The reusable
/// twin of [`encode_log`].
pub fn encode_log_into(log: &ReplayLog, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(MAGIC);
    buf.push(FORMAT_VERSION);
    put_varint(buf, log.total_instructions);
    put_varint(buf, log.threads.len() as u64);
    for t in &log.threads {
        // Frame header first as a fixed-width placeholder, patched once the
        // payload length and checksum are known, so the encode stays a
        // single pass into one buffer.
        let header = buf.len();
        buf.extend_from_slice(&[0u8; FRAME_HEADER]);
        let payload_start = buf.len();
        encode_thread(buf, t);
        let payload_len =
            u32::try_from(buf.len() - payload_start).expect("thread frame under 4 GiB");
        let checksum = frame_checksum(&buf[payload_start..]);
        buf[header..header + 4].copy_from_slice(&payload_len.to_le_bytes());
        buf[header + 4..header + FRAME_HEADER].copy_from_slice(&checksum.to_le_bytes());
    }
}

/// Encodes a log in the legacy unframed version-1 layout. Kept so the
/// decode path for archived logs stays pinned by tests; new logs should
/// always use [`encode_log`].
#[must_use]
pub fn encode_log_v1(log: &ReplayLog) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.push(LEGACY_VERSION);
    put_varint(&mut buf, log.total_instructions);
    put_varint(&mut buf, log.threads.len() as u64);
    for t in &log.threads {
        encode_thread(&mut buf, t);
    }
    buf
}

/// Checksum of one frame payload: length-prefixed so a truncated payload
/// spliced with another frame's bytes cannot collide trivially.
fn frame_checksum(payload: &[u8]) -> u64 {
    let mut h = FastHasher::default();
    h.write_u64(payload.len() as u64);
    h.write(payload);
    h.finish()
}

fn encode_thread(buf: &mut Vec<u8>, t: &ThreadLog) {
    put_varint(buf, t.tid as u64);
    put_str(buf, &t.name);
    for r in t.start_regs {
        put_varint(buf, r);
    }
    put_varint(buf, t.start_pc as u64);
    put_varint(buf, t.start_ts);
    put_varint(buf, t.end_instr);
    put_varint(buf, t.end_ts);
    match t.end_status {
        EndStatus::Halted => buf.push(0),
        EndStatus::Truncated => buf.push(1),
        EndStatus::Faulted(f) => {
            buf.push(2);
            put_fault(buf, f);
        }
    }
    // Footprint: sorted pcs, delta-encoded.
    put_varint(buf, t.footprint.len() as u64);
    let mut prev = 0u64;
    for &pc in &t.footprint {
        put_varint(buf, pc as u64 - prev);
        prev = pc as u64;
    }
    // Events: per-stream delta encoding of the monotone indices.
    put_varint(buf, t.events.len() as u64);
    let (mut prev_load, mut prev_sys, mut prev_instr, mut prev_ts) = (0u64, 0u64, 0u64, 0u64);
    for ev in &t.events {
        match *ev {
            ThreadEvent::Load { load_index, value } => {
                buf.push(0);
                put_varint(buf, load_index - prev_load);
                prev_load = load_index;
                put_varint(buf, value);
            }
            ThreadEvent::SyscallRet { sys_index, value } => {
                buf.push(1);
                put_varint(buf, sys_index - prev_sys);
                prev_sys = sys_index;
                put_varint(buf, value);
            }
            ThreadEvent::Sequencer { instr_index, ts } => {
                buf.push(2);
                put_varint(buf, instr_index - prev_instr);
                prev_instr = instr_index;
                put_varint(buf, ts - prev_ts);
                prev_ts = ts;
            }
        }
    }
}

/// How [`decode_log_mode`] treats damage.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DecodeMode {
    /// Any damage is a [`CodecError`] (the [`decode_log`] behavior).
    Strict,
    /// Salvage every intact frame; damaged frames degrade to their intact
    /// prefix or an empty placeholder, recorded in the [`DecodeReport`].
    Tolerant,
}

/// What became of one per-thread frame during decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameStatus {
    /// Checksum matched and the payload decoded cleanly; fully trusted.
    Intact,
    /// The stored checksum disagrees with the payload bytes.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// The container ran out of bytes inside this frame.
    Truncated,
    /// The checksum matched (or the format has none) but the payload did
    /// not decode; carries the decode error.
    Malformed(String),
    /// A frame that should exist past the point where the container ended.
    Missing,
}

impl FrameStatus {
    /// Whether this frame survived undamaged.
    #[must_use]
    pub fn is_intact(&self) -> bool {
        matches!(self, FrameStatus::Intact)
    }
}

impl fmt::Display for FrameStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameStatus::Intact => write!(f, "intact"),
            FrameStatus::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch (stored {expected:#018x}, computed {actual:#018x})")
            }
            FrameStatus::Truncated => write!(f, "truncated"),
            FrameStatus::Malformed(msg) => write!(f, "malformed: {msg}"),
            FrameStatus::Missing => write!(f, "missing"),
        }
    }
}

/// Per-frame decode outcome, one entry per thread slot of the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameInfo {
    /// Thread slot in the log (genuine logs record threads in tid order).
    pub tid: usize,
    /// Payload bytes present in the container for this frame.
    pub payload_len: usize,
    /// What became of the frame.
    pub status: FrameStatus,
    /// Events recovered from a damaged frame's intact prefix.
    pub salvaged_events: usize,
    /// Global timestamp up to which the decoded thread is trusted:
    /// `end_ts` for intact frames, 0 for damaged ones (a checksum covers
    /// the whole payload, so it cannot vouch for a salvaged prefix).
    pub trusted_ts: u64,
}

/// What tolerant decoding kept and dropped; [`decode_log_mode`] returns
/// one alongside every decoded log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodeReport {
    /// Format version of the container.
    pub format_version: u8,
    /// One entry per thread slot.
    pub frames: Vec<FrameInfo>,
    /// Bytes belonging to damaged or missing frames (or trailing garbage),
    /// i.e. not covered by any intact frame.
    pub bytes_dropped: usize,
}

impl DecodeReport {
    /// Whether every frame decoded intact and no bytes were dropped.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.bytes_dropped == 0 && self.frames.iter().all(|f| f.status.is_intact())
    }

    /// Number of frames that did not decode intact.
    #[must_use]
    pub fn damaged_frames(&self) -> usize {
        self.frames.iter().filter(|f| !f.status.is_intact()).count()
    }
}

/// Decodes a log previously produced by [`encode_log`].
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated or corrupted input.
pub fn decode_log(bytes: &[u8]) -> Result<ReplayLog, CodecError> {
    Ok(decode_log_mode(bytes, DecodeMode::Strict)?.0)
}

/// Decodes a log in the given [`DecodeMode`]; understands the current
/// framed format and the legacy unframed version 1.
///
/// # Errors
///
/// In strict mode, any damage; in tolerant mode, only an unreadable
/// container header.
pub fn decode_log_mode(
    bytes: &[u8],
    mode: DecodeMode,
) -> Result<(ReplayLog, DecodeReport), CodecError> {
    let mut buf = Reader::new(bytes);
    if buf.remaining() < 5 {
        return cerr("input too short");
    }
    if buf.take(4) != MAGIC {
        return cerr("bad magic");
    }
    let version = buf.get_u8();
    match version {
        LEGACY_VERSION => decode_body_v1(buf, mode),
        FORMAT_VERSION => decode_body_v2(buf, mode),
        v => cerr(format!("unsupported format version {v}")),
    }
}

/// Thread-count sanity check before any reservation: a count the input
/// cannot possibly hold (every thread costs at least a frame header) is
/// corruption, rejected before it can size an allocation.
fn check_nthreads(nthreads: usize, remaining: usize) -> Result<(), CodecError> {
    if nthreads > 1 << 20 || nthreads > remaining / 8 + 1 {
        return cerr("implausible thread count");
    }
    Ok(())
}

/// An empty stand-in for a thread whose frame was lost: zero instructions
/// executed, so the replayer runs it trivially and every region of the
/// real thread is treated as lost.
fn placeholder_thread(slot: usize) -> ThreadLog {
    ThreadLog {
        tid: slot,
        name: format!("lost-{slot}"),
        start_regs: [0; NUM_REGS],
        start_pc: 0,
        start_ts: 0,
        events: Vec::new(),
        end_instr: 0,
        end_ts: 0,
        end_status: EndStatus::Truncated,
        footprint: Vec::new(),
    }
}

fn decode_body_v1(
    mut buf: Reader<'_>,
    mode: DecodeMode,
) -> Result<(ReplayLog, DecodeReport), CodecError> {
    let total_instructions = get_varint(&mut buf)?;
    let nthreads = get_varint(&mut buf)? as usize;
    check_nthreads(nthreads, buf.remaining())?;
    let mut threads = Vec::with_capacity(nthreads.min(MAX_PREALLOC));
    let mut report =
        DecodeReport { format_version: LEGACY_VERSION, frames: Vec::new(), bytes_dropped: 0 };
    for slot in 0..nthreads {
        let start = buf.pos;
        match decode_thread(&mut buf) {
            Ok(mut t) => {
                t.tid = slot;
                report.frames.push(FrameInfo {
                    tid: slot,
                    payload_len: buf.pos - start,
                    status: FrameStatus::Intact,
                    salvaged_events: 0,
                    trusted_ts: t.end_ts,
                });
                threads.push(t);
            }
            Err(e) => {
                if mode == DecodeMode::Strict {
                    return Err(e);
                }
                // No framing in v1: once one thread is unreadable there is
                // no way to find the start of the next, so the rest of the
                // stream is lost.
                report.bytes_dropped += buf.bytes.len() - start;
                report.frames.push(FrameInfo {
                    tid: slot,
                    payload_len: buf.bytes.len() - start,
                    status: FrameStatus::Malformed(e.message),
                    salvaged_events: 0,
                    trusted_ts: 0,
                });
                threads.push(placeholder_thread(slot));
                for rest in slot + 1..nthreads {
                    report.frames.push(FrameInfo {
                        tid: rest,
                        payload_len: 0,
                        status: FrameStatus::Missing,
                        salvaged_events: 0,
                        trusted_ts: 0,
                    });
                    threads.push(placeholder_thread(rest));
                }
                let rem = buf.remaining();
                buf.take(rem);
                break;
            }
        }
    }
    if buf.has_remaining() {
        if mode == DecodeMode::Strict {
            return cerr("trailing bytes");
        }
        report.bytes_dropped += buf.remaining();
    }
    Ok((ReplayLog { threads, total_instructions }, report))
}

fn decode_body_v2(
    mut buf: Reader<'_>,
    mode: DecodeMode,
) -> Result<(ReplayLog, DecodeReport), CodecError> {
    let total_instructions = get_varint(&mut buf)?;
    let nthreads = get_varint(&mut buf)? as usize;
    match mode {
        DecodeMode::Strict => check_nthreads(nthreads, buf.remaining())?,
        // A truncated container legitimately holds fewer bytes than its
        // thread count implies (the missing slots become placeholders), so
        // tolerant decoding keeps only an absolute cap: a count beyond it
        // means the header itself is corrupt and nothing is trustworthy.
        DecodeMode::Tolerant => {
            if nthreads > MAX_TOLERANT_THREADS {
                return cerr("implausible thread count");
            }
        }
    }
    let mut threads = Vec::with_capacity(nthreads.min(MAX_PREALLOC));
    let mut report =
        DecodeReport { format_version: FORMAT_VERSION, frames: Vec::new(), bytes_dropped: 0 };
    // Once the container ends mid-frame there is no trusting any later
    // length field; every remaining slot is reported missing.
    let mut rest_lost = false;
    for slot in 0..nthreads {
        if rest_lost {
            report.frames.push(FrameInfo {
                tid: slot,
                payload_len: 0,
                status: FrameStatus::Missing,
                salvaged_events: 0,
                trusted_ts: 0,
            });
            threads.push(placeholder_thread(slot));
            continue;
        }
        if buf.remaining() < FRAME_HEADER {
            if mode == DecodeMode::Strict {
                return cerr(format!("truncated frame header for thread {slot}"));
            }
            report.bytes_dropped += buf.remaining();
            let rem = buf.remaining();
            buf.take(rem);
            report.frames.push(FrameInfo {
                tid: slot,
                payload_len: 0,
                status: FrameStatus::Truncated,
                salvaged_events: 0,
                trusted_ts: 0,
            });
            threads.push(placeholder_thread(slot));
            rest_lost = true;
            continue;
        }
        let declared_len = buf.get_u32_le() as usize;
        let stored_sum = buf.get_u64_le();
        let truncated = declared_len > buf.remaining();
        if truncated && mode == DecodeMode::Strict {
            return cerr(format!("truncated frame payload for thread {slot}"));
        }
        let payload = if truncated {
            let rem = buf.remaining();
            buf.take(rem)
        } else {
            buf.take(declared_len)
        };
        let actual_sum = frame_checksum(payload);
        let status = if truncated {
            rest_lost = true;
            FrameStatus::Truncated
        } else if actual_sum != stored_sum {
            if mode == DecodeMode::Strict {
                return cerr(format!(
                    "checksum mismatch for thread {slot} (stored {stored_sum:#018x}, \
                     computed {actual_sum:#018x})"
                ));
            }
            FrameStatus::ChecksumMismatch { expected: stored_sum, actual: actual_sum }
        } else {
            // Checksum verified: the payload must decode cleanly, exactly
            // fill the frame, and belong to this slot — a checksum-valid
            // frame at the wrong slot (e.g. a duplicated extent) is
            // another thread's data and must not be trusted here.
            let mut pbuf = Reader::new(payload);
            let err = match decode_thread(&mut pbuf) {
                Ok(t) if !pbuf.has_remaining() && t.tid == slot => {
                    report.frames.push(FrameInfo {
                        tid: slot,
                        payload_len: payload.len(),
                        status: FrameStatus::Intact,
                        salvaged_events: 0,
                        trusted_ts: t.end_ts,
                    });
                    threads.push(t);
                    continue;
                }
                Ok(t) if !pbuf.has_remaining() => {
                    CodecError { message: format!("frame at slot {slot} carries thread {}", t.tid) }
                }
                Ok(_) => CodecError { message: "frame payload has trailing bytes".into() },
                Err(e) => e,
            };
            if mode == DecodeMode::Strict {
                return Err(err);
            }
            FrameStatus::Malformed(err.message)
        };
        report.bytes_dropped += FRAME_HEADER + payload.len();
        let (thread, salvaged_events) = match salvage_thread(payload, slot) {
            Some((t, n)) => (t, n),
            None => (placeholder_thread(slot), 0),
        };
        report.frames.push(FrameInfo {
            tid: slot,
            payload_len: payload.len(),
            status,
            salvaged_events,
            trusted_ts: 0,
        });
        threads.push(thread);
    }
    if buf.has_remaining() {
        if mode == DecodeMode::Strict {
            return cerr("trailing bytes");
        }
        report.bytes_dropped += buf.remaining();
    }
    Ok((ReplayLog { threads, total_instructions }, report))
}

/// Replaces every thread whose frame was not intact with an empty
/// placeholder. The fallback when a salvaged prefix turns out not to
/// replay after all (a silently corrupted value can steer control flow
/// off the recorded footprint — the checksum detects the damage but
/// cannot localize it within the frame).
#[must_use]
pub fn strip_damaged(log: &ReplayLog, report: &DecodeReport) -> ReplayLog {
    let mut out = log.clone();
    for frame in &report.frames {
        if !frame.status.is_intact() {
            if let Some(t) = out.threads.get_mut(frame.tid) {
                *t = placeholder_thread(frame.tid);
            }
        }
    }
    out
}

/// Byte ranges (frame header + payload) of the per-thread frames of an
/// encoded log — the corruption harness and `doctor` use them to aim
/// frame-level mutations and truncations. Best-effort: stops at the
/// first frame that runs off the end; empty for version-1 logs, which
/// have no framing.
#[must_use]
pub fn frame_spans(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut buf = Reader::new(bytes);
    if buf.remaining() < 5 || buf.take(4) != MAGIC || buf.get_u8() != FORMAT_VERSION {
        return Vec::new();
    }
    let (Ok(_), Ok(nthreads)) = (get_varint(&mut buf), get_varint(&mut buf)) else {
        return Vec::new();
    };
    let mut spans = Vec::new();
    for _ in 0..nthreads.min(1 << 20) {
        if buf.remaining() < FRAME_HEADER {
            break;
        }
        let start = buf.pos;
        let len = buf.get_u32_le() as usize;
        let _checksum = buf.get_u64_le();
        if len > buf.remaining() {
            break;
        }
        buf.take(len);
        spans.push(start..buf.pos);
    }
    spans
}

/// Per-stream delta state for the tagged event encoding; factored out so
/// strict decoding and salvage share one implementation.
#[derive(Default)]
struct EventDecoder {
    prev_load: u64,
    prev_sys: u64,
    prev_instr: u64,
    prev_ts: u64,
}

impl EventDecoder {
    fn next(&mut self, buf: &mut Reader<'_>) -> Result<ThreadEvent, CodecError> {
        if !buf.has_remaining() {
            return cerr("truncated event");
        }
        Ok(match buf.get_u8() {
            0 => {
                self.prev_load = add_delta(self.prev_load, get_varint(buf)?)?;
                ThreadEvent::Load { load_index: self.prev_load, value: get_varint(buf)? }
            }
            1 => {
                self.prev_sys = add_delta(self.prev_sys, get_varint(buf)?)?;
                ThreadEvent::SyscallRet { sys_index: self.prev_sys, value: get_varint(buf)? }
            }
            2 => {
                self.prev_instr = add_delta(self.prev_instr, get_varint(buf)?)?;
                self.prev_ts = add_delta(self.prev_ts, get_varint(buf)?)?;
                ThreadEvent::Sequencer { instr_index: self.prev_instr, ts: self.prev_ts }
            }
            t => return cerr(format!("bad event tag {t}")),
        })
    }
}

/// Checked delta accumulation: adversarial deltas must surface as a
/// [`CodecError`], not a debug panic or a silent release-mode wrap.
fn add_delta(prev: u64, delta: u64) -> Result<u64, CodecError> {
    prev.checked_add(delta).map_or_else(|| cerr("delta overflow"), Ok)
}

/// The fixed leading fields of an encoded thread.
struct ThreadHeader {
    tid: usize,
    name: String,
    start_regs: [u64; NUM_REGS],
    start_pc: usize,
    start_ts: u64,
    end_instr: u64,
    end_ts: u64,
    end_status: EndStatus,
}

fn decode_thread_header(buf: &mut Reader<'_>) -> Result<ThreadHeader, CodecError> {
    let tid = get_varint(buf)? as usize;
    let name = get_str(buf)?;
    let mut start_regs = [0u64; NUM_REGS];
    for r in &mut start_regs {
        *r = get_varint(buf)?;
    }
    let start_pc = get_varint(buf)? as usize;
    let start_ts = get_varint(buf)?;
    let end_instr = get_varint(buf)?;
    let end_ts = get_varint(buf)?;
    let end_status = match buf.has_remaining().then(|| buf.get_u8()) {
        Some(0) => EndStatus::Halted,
        Some(1) => EndStatus::Truncated,
        Some(2) => EndStatus::Faulted(get_fault(buf)?),
        Some(t) => return cerr(format!("bad end status {t}")),
        None => return cerr("truncated end status"),
    };
    Ok(ThreadHeader { tid, name, start_regs, start_pc, start_ts, end_instr, end_ts, end_status })
}

fn decode_footprint(buf: &mut Reader<'_>) -> Result<Vec<usize>, CodecError> {
    let fp_len = get_varint(buf)? as usize;
    if fp_len > 1 << 28 {
        return cerr("implausible footprint length");
    }
    let mut footprint = Vec::with_capacity(fp_len.min(MAX_PREALLOC));
    let mut prev = 0u64;
    for _ in 0..fp_len {
        prev = add_delta(prev, get_varint(buf)?)?;
        footprint.push(prev as usize);
    }
    Ok(footprint)
}

fn decode_thread(buf: &mut Reader<'_>) -> Result<ThreadLog, CodecError> {
    let h = decode_thread_header(buf)?;
    let footprint = decode_footprint(buf)?;
    let ev_len = get_varint(buf)? as usize;
    if ev_len > 1 << 30 {
        return cerr("implausible event count");
    }
    let mut events = Vec::with_capacity(ev_len.min(MAX_PREALLOC));
    let mut dec = EventDecoder::default();
    for _ in 0..ev_len {
        events.push(dec.next(buf)?);
    }
    Ok(ThreadLog {
        tid: h.tid,
        name: h.name,
        start_regs: h.start_regs,
        start_pc: h.start_pc,
        start_ts: h.start_ts,
        events,
        end_instr: h.end_instr,
        end_ts: h.end_ts,
        end_status: h.end_status,
        footprint,
    })
}

/// Best-effort decode of a damaged frame payload: the fixed header, then
/// events until the first structural error, truncated at the last decoded
/// sequencer so the salvaged thread is a self-consistent shorter
/// recording (every kept load/syscall event belongs to a completed
/// region, so the replayer accepts it unchanged). Returns the thread and
/// the number of salvaged events, or `None` when even the header is
/// unreadable.
fn salvage_thread(payload: &[u8], slot: usize) -> Option<(ThreadLog, usize)> {
    let mut buf = Reader::new(payload);
    let h = decode_thread_header(&mut buf).ok()?;
    if h.tid != slot {
        // Another thread's frame (duplicated or shifted extent): its
        // header and events describe a different program thread, so
        // nothing in it is salvageable for this slot.
        return None;
    }
    // A damaged footprint leaves the event stream's start unknown; give up
    // on events but keep the header.
    let (footprint, ev_readable) = match decode_footprint(&mut buf) {
        Ok(fp) => (fp, true),
        Err(_) => (Vec::new(), false),
    };
    let mut events = Vec::new();
    let mut last_seq: Option<(usize, u64, u64)> = None;
    if ev_readable {
        if let Ok(ev_len) = get_varint(&mut buf) {
            let mut dec = EventDecoder::default();
            for _ in 0..ev_len.min(1 << 30) {
                match dec.next(&mut buf) {
                    Ok(ev) => {
                        if let ThreadEvent::Sequencer { instr_index, ts } = ev {
                            last_seq = Some((events.len(), instr_index, ts));
                        }
                        events.push(ev);
                    }
                    Err(_) => break,
                }
            }
        }
    }
    let (end_instr, end_ts) = match last_seq {
        Some((idx, instr_index, ts)) => {
            events.truncate(idx + 1);
            (instr_index, ts)
        }
        None => {
            events.clear();
            (0, h.start_ts)
        }
    };
    let salvaged = events.len();
    Some((
        ThreadLog {
            tid: slot,
            name: h.name,
            start_regs: h.start_regs,
            start_pc: h.start_pc,
            start_ts: h.start_ts,
            events,
            end_instr,
            end_ts,
            end_status: EndStatus::Truncated,
            footprint,
        },
        salvaged,
    ))
}

// --- LZSS compression -------------------------------------------------------

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;

/// LZSS-compresses a byte stream (4 KiB window), standing in for the zip
/// pass of the paper's log-size study.
///
/// Allocates the match-finding hash chains per call; repeated compressors
/// should hold a [`LogWriter`] (or call [`compress_into`]) instead.
#[must_use]
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(input, &mut Vec::new(), &mut Vec::new(), &mut out);
    out
}

/// [`compress`] into caller-owned buffers. `heads`/`prevs` are the match
/// finder's hash-chain scratch (any previous contents are overwritten);
/// `out` is cleared and receives the compressed stream.
pub fn compress_into(input: &[u8], heads: &mut Vec<i64>, prevs: &mut Vec<i64>, out: &mut Vec<u8>) {
    out.clear();
    put_varint(out, input.len() as u64);
    let mut i = 0usize;
    // Token group: a flag byte describing the next 8 tokens (bit set =
    // back-reference), then the tokens.
    let mut flags = 0u8;
    let mut nflags = 0u32;
    let mut group = Vec::new();
    // Hash chain on 3-byte prefixes for match finding. `heads` must be
    // reset between runs (stale heads would alias old chains); `prevs`
    // entries are always written before they are read, so only the length
    // matters.
    heads.clear();
    heads.resize(1 << 14, -1);
    if prevs.len() < input.len().max(1) {
        prevs.resize(input.len().max(1), -1);
    }
    let hash = |a: u8, b: u8, c: u8| -> usize {
        ((usize::from(a) << 6) ^ (usize::from(b) << 3) ^ usize::from(c)) & ((1 << 14) - 1)
    };

    let flush_group = |out: &mut Vec<u8>, flags: &mut u8, nflags: &mut u32, group: &mut Vec<u8>| {
        if *nflags > 0 {
            out.push(*flags);
            out.extend_from_slice(group);
            *flags = 0;
            *nflags = 0;
            group.clear();
        }
    };

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash(input[i], input[i + 1], input[i + 2]);
            let mut cand = heads[h];
            let mut tries = 32;
            while cand >= 0 && tries > 0 {
                let c = cand as usize;
                if i - c > WINDOW {
                    break;
                }
                let limit = (input.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < limit && input[c + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                }
                cand = prevs[c];
                tries -= 1;
            }
        }
        if best_len >= MIN_MATCH {
            // Back-reference token: 12-bit distance, 4-bit (len - 3).
            flags |= 1 << nflags;
            let token = (((best_dist - 1) as u16) << 4) | ((best_len - MIN_MATCH) as u16);
            group.extend_from_slice(&token.to_be_bytes());
            // Insert hash entries for the covered positions.
            for k in i..i + best_len {
                if k + MIN_MATCH <= input.len() {
                    let h = hash(input[k], input[k + 1], input[k + 2]);
                    prevs[k] = heads[h];
                    heads[h] = k as i64;
                }
            }
            i += best_len;
        } else {
            group.push(input[i]);
            if i + MIN_MATCH <= input.len() {
                let h = hash(input[i], input[i + 1], input[i + 2]);
                prevs[i] = heads[h];
                heads[h] = i as i64;
            }
            i += 1;
        }
        nflags += 1;
        if nflags == 8 {
            flush_group(out, &mut flags, &mut nflags, &mut group);
        }
    }
    flush_group(out, &mut flags, &mut nflags, &mut group);
}

/// Decompresses a [`compress`] stream.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut buf = Reader::new(input);
    let expected = get_varint(&mut buf)? as usize;
    // Every compressed byte expands to at most MAX_MATCH output bytes (a
    // 2-byte back-reference token yields up to 18), so a header claiming
    // more than that is corrupt — reject it before it can size an
    // allocation, and clamp the reservation regardless so a small input
    // can never demand gigabytes up front.
    if expected > input.len().saturating_mul(MAX_MATCH) {
        return cerr("implausible decompressed size");
    }
    let mut out = Vec::with_capacity(expected.min(MAX_PREALLOC));
    while out.len() < expected {
        if !buf.has_remaining() {
            return cerr("truncated compressed stream");
        }
        let flags = buf.get_u8();
        for bit in 0..8 {
            if out.len() >= expected {
                break;
            }
            if flags & (1 << bit) != 0 {
                if buf.remaining() < 2 {
                    return cerr("truncated back-reference");
                }
                let token = buf.get_u16();
                let dist = (token >> 4) as usize + 1;
                let len = (token & 0xf) as usize + MIN_MATCH;
                if dist > out.len() {
                    return cerr("back-reference before start");
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            } else {
                if !buf.has_remaining() {
                    return cerr("truncated literal");
                }
                out.push(buf.get_u8());
            }
        }
    }
    // A genuine stream's final token lands exactly on the header length;
    // a back-reference running past it means the stream is corrupt.
    if out.len() != expected {
        return cerr("decompressed stream overshoots header length");
    }
    Ok(out)
}

// --- measurement ------------------------------------------------------------

/// Log-size metrics for the paper's §5.1 study.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LogSizeReport {
    pub raw_bytes: usize,
    pub compressed_bytes: usize,
    pub instructions: u64,
}

impl LogSizeReport {
    /// Raw bits per executed instruction (paper: ≈0.8).
    #[must_use]
    pub fn bits_per_instr_raw(&self) -> f64 {
        (self.raw_bytes as f64 * 8.0) / self.instructions.max(1) as f64
    }

    /// Compressed bits per executed instruction (paper: ≈0.3).
    #[must_use]
    pub fn bits_per_instr_compressed(&self) -> f64 {
        (self.compressed_bytes as f64 * 8.0) / self.instructions.max(1) as f64
    }

    /// Megabytes needed to record one billion instructions (paper: ≈96 MB).
    #[must_use]
    pub fn mb_per_billion_instrs(&self) -> f64 {
        self.bits_per_instr_raw() / 8.0 * 1e9 / 1e6
    }
}

/// Measures a log's encoded and compressed sizes.
#[must_use]
pub fn measure(log: &ReplayLog) -> LogSizeReport {
    LogWriter::new().measure(log)
}

// --- reusable writer --------------------------------------------------------

/// A reusable log encoder/compressor.
///
/// Holds the raw and compressed output buffers plus the LZSS match finder's
/// hash-chain scratch, so repeated encodes (report building, `loginfo`, the
/// log-size study) stop reallocating: after the first call, encoding a log
/// of similar size allocates nothing.
///
/// # Examples
///
/// ```
/// use idna_replay::codec::{decode_log, decompress, LogWriter};
/// use idna_replay::event::ReplayLog;
///
/// let log = ReplayLog { threads: Vec::new(), total_instructions: 0 };
/// let mut writer = LogWriter::new();
/// let compressed = writer.encode_compressed(&log).to_vec();
/// let raw = decompress(&compressed)?;
/// assert_eq!(decode_log(&raw)?, log);
/// # Ok::<(), idna_replay::codec::CodecError>(())
/// ```
#[derive(Debug, Default)]
pub struct LogWriter {
    raw: Vec<u8>,
    compressed: Vec<u8>,
    heads: Vec<i64>,
    prevs: Vec<i64>,
}

impl LogWriter {
    /// An empty writer; buffers grow to fit on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `log` into the writer's raw buffer and returns it. The
    /// reusable equivalent of [`encode_log`].
    pub fn encode(&mut self, log: &ReplayLog) -> &[u8] {
        encode_log_into(log, &mut self.raw);
        &self.raw
    }

    /// Encodes and LZSS-compresses `log`, returning the compressed stream.
    /// The reusable equivalent of `compress(&encode_log(log))`.
    pub fn encode_compressed(&mut self, log: &ReplayLog) -> &[u8] {
        encode_log_into(log, &mut self.raw);
        compress_into(&self.raw, &mut self.heads, &mut self.prevs, &mut self.compressed);
        &self.compressed
    }

    /// [`measure`] without per-call allocation (after warmup).
    pub fn measure(&mut self, log: &ReplayLog) -> LogSizeReport {
        self.encode_compressed(log);
        LogSizeReport {
            raw_bytes: self.raw.len(),
            compressed_bytes: self.compressed.len(),
            instructions: log.total_instructions,
        }
    }
}

thread_local! {
    /// Per-thread [`LogWriter`] scratch for [`with_log_writer`]. One writer
    /// per thread — never a process-wide global — so concurrent encoders
    /// (the classification service's worker pool, parallel tests) can reuse
    /// scratch without sharing buffers mid-encode.
    static SCRATCH_WRITER: std::cell::RefCell<LogWriter> =
        std::cell::RefCell::new(LogWriter::new());
}

/// Runs `f` with this thread's reusable [`LogWriter`] scratch.
///
/// Call sites that used to hold a long-lived writer (or allocate a fresh one
/// per encode) can route through here instead: each OS thread owns exactly
/// one scratch writer, so repeated encodes on a thread stop reallocating
/// while concurrent threads never contend or interleave buffers. Output is
/// byte-identical to a fresh `LogWriter::new()` — the scratch holds no
/// state that leaks between encodes.
///
/// # Panics
///
/// Panics if `f` re-enters `with_log_writer` on the same thread (the
/// scratch is singular per thread).
pub fn with_log_writer<T>(f: impl FnOnce(&mut LogWriter) -> T) -> T {
    SCRATCH_WRITER.with(|w| f(&mut w.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> ReplayLog {
        let t = ThreadLog {
            tid: 0,
            name: "main".into(),
            start_regs: [7; NUM_REGS],
            start_pc: 3,
            start_ts: 0,
            events: vec![
                ThreadEvent::Load { load_index: 2, value: 99 },
                ThreadEvent::Sequencer { instr_index: 5, ts: 4 },
                ThreadEvent::SyscallRet { sys_index: 0, value: 0x10_0000 },
                ThreadEvent::Load { load_index: 9, value: u64::MAX },
                ThreadEvent::Sequencer { instr_index: 11, ts: 9 },
            ],
            end_instr: 20,
            end_ts: 12,
            end_status: EndStatus::Faulted(Fault::UseAfterFree { addr: 0x10_0001 }),
            footprint: vec![0, 1, 2, 5, 9],
        };
        ReplayLog { threads: vec![t], total_instructions: 20 }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let log = sample_log();
        let bytes = encode_log(&log);
        let decoded = decode_log(&bytes).unwrap();
        assert_eq!(log, decoded);
    }

    /// Two threads hammering the shared scratch entry point concurrently
    /// must each produce exactly what a fresh writer produces — the
    /// regression this guards is a process-global scratch interleaving
    /// buffers between server workers.
    #[test]
    fn scratch_writer_is_per_thread() {
        let logs = [sample_log(), two_thread_log()];
        let handles: Vec<_> = logs
            .into_iter()
            .map(|log| {
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let scratch = with_log_writer(|w| w.encode_compressed(&log).to_vec());
                        let fresh = LogWriter::new().encode_compressed(&log).to_vec();
                        assert_eq!(scratch, fresh, "scratch output diverged from fresh writer");
                        let report = with_log_writer(|w| w.measure(&log));
                        assert_eq!(report, LogWriter::new().measure(&log));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_log(b"").is_err());
        assert!(decode_log(b"NOPE\x01\x00").is_err());
        let mut bytes = encode_log(&sample_log());
        bytes.truncate(bytes.len() - 3);
        assert!(decode_log(&bytes).is_err());
        let mut bytes = encode_log(&sample_log());
        bytes.push(0);
        assert!(decode_log(&bytes).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut bytes = encode_log(&sample_log());
        bytes[4] = 99;
        let err = decode_log(&bytes).unwrap_err();
        assert!(err.message.contains("version"));
    }

    fn two_thread_log() -> ReplayLog {
        let mut log = sample_log();
        let mut t1 = log.threads[0].clone();
        t1.tid = 1;
        t1.name = "worker".into();
        log.threads.push(t1);
        log
    }

    #[test]
    fn legacy_v1_decode_roundtrip() {
        let log = two_thread_log();
        let bytes = encode_log_v1(&log);
        assert_eq!(bytes[4], LEGACY_VERSION);
        let (decoded, report) = decode_log_mode(&bytes, DecodeMode::Strict).unwrap();
        assert_eq!(decoded, log);
        assert_eq!(report.format_version, LEGACY_VERSION);
        assert!(report.is_clean());
    }

    #[test]
    fn frame_spans_cover_the_container_tail() {
        let log = two_thread_log();
        let bytes = encode_log(&log);
        let spans = frame_spans(&bytes);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.last().unwrap().end, bytes.len());
        for span in &spans {
            assert!(span.len() > FRAME_HEADER);
        }
        assert!(frame_spans(&encode_log_v1(&log)).is_empty(), "v1 has no frames");
    }

    #[test]
    fn tolerant_decode_survives_one_corrupt_frame() {
        let log = two_thread_log();
        let bytes = encode_log(&log);
        let spans = frame_spans(&bytes);
        let mut corrupt = bytes.clone();
        // Flip a byte well inside thread 0's payload.
        let mid = spans[0].start + FRAME_HEADER + spans[0].len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(decode_log(&corrupt).unwrap_err().message.contains("checksum"));
        let (decoded, report) = decode_log_mode(&corrupt, DecodeMode::Tolerant).unwrap();
        assert_eq!(report.damaged_frames(), 1);
        assert!(matches!(report.frames[0].status, FrameStatus::ChecksumMismatch { .. }));
        assert!(report.frames[1].status.is_intact());
        assert!(report.bytes_dropped > 0);
        // The intact frame decodes byte-identically.
        assert_eq!(decoded.threads[1], log.threads[1]);
        // The damaged thread is truncated at its last surviving sequencer,
        // never extended past the recorded end.
        let t0 = &decoded.threads[0];
        assert!(t0.end_instr <= log.threads[0].end_instr);
        assert_eq!(t0.end_status, EndStatus::Truncated);
    }

    #[test]
    fn tolerant_decode_reports_truncated_tail() {
        let log = two_thread_log();
        let bytes = encode_log(&log);
        let spans = frame_spans(&bytes);
        // Cut inside the second frame's payload.
        let cut = spans[1].start + FRAME_HEADER + 3;
        let (decoded, report) = decode_log_mode(&bytes[..cut], DecodeMode::Tolerant).unwrap();
        assert!(report.frames[0].status.is_intact());
        assert_eq!(report.frames[1].status, FrameStatus::Truncated);
        assert_eq!(decoded.threads[0], log.threads[0]);
        // Cut at the frame boundary: the whole second frame is gone.
        let (_, report) = decode_log_mode(&bytes[..spans[1].start], DecodeMode::Tolerant).unwrap();
        assert_eq!(report.frames[1].status, FrameStatus::Truncated);
        // Strict mode rejects both.
        assert!(decode_log(&bytes[..cut]).is_err());
        assert!(decode_log(&bytes[..spans[1].start]).is_err());
    }

    #[test]
    fn strip_damaged_leaves_placeholders() {
        let log = two_thread_log();
        let bytes = encode_log(&log);
        let spans = frame_spans(&bytes);
        let mut corrupt = bytes.clone();
        corrupt[spans[0].start + FRAME_HEADER + 8] ^= 0x01;
        let (decoded, report) = decode_log_mode(&corrupt, DecodeMode::Tolerant).unwrap();
        let stripped = strip_damaged(&decoded, &report);
        assert_eq!(stripped.threads[0].end_instr, 0);
        assert!(stripped.threads[0].events.is_empty());
        assert_eq!(stripped.threads[1], log.threads[1]);
    }

    #[test]
    fn varint_rejects_non_canonical_and_overflow() {
        // 0x80 0x00 would decode to 0 but is not what put_varint emits.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert!(get_varint(&mut r).unwrap_err().message.contains("non-canonical"));
        // Ten bytes whose final byte sets bits above bit 63.
        let mut r = Reader::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]);
        assert!(get_varint(&mut r).unwrap_err().message.contains("overflow"));
        // u64::MAX is the canonical ten-byte maximum and still decodes.
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        let mut r = Reader::new(&max);
        assert_eq!(get_varint(&mut r).unwrap(), u64::MAX);
    }

    #[test]
    fn decompress_rejects_implausible_header() {
        // A tiny input claiming a 4 GiB decompressed size must fail fast
        // without reserving anything close to that.
        let mut bad = Vec::new();
        put_varint(&mut bad, 1 << 32);
        bad.push(0);
        assert!(decompress(&bad).unwrap_err().message.contains("implausible"));
    }

    #[test]
    fn decode_rejects_implausible_thread_count() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(FORMAT_VERSION);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 1 << 19); // plausible cap, implausible for 0 payload bytes
        assert!(decode_log(&bytes).unwrap_err().message.contains("implausible"));
        assert!(
            decode_log_mode(&bytes, DecodeMode::Tolerant).is_err(),
            "header damage is unrecoverable"
        );
    }

    #[test]
    fn compress_roundtrip_on_repetitive_data() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 7) as u8).collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 2,
            "repetitive data compresses well: {} vs {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn compress_roundtrip_on_incompressible_data() {
        // Pseudo-random bytes.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn compress_roundtrip_empty_and_tiny() {
        for data in [&b""[..], &b"a"[..], &b"ab"[..], &b"aaa"[..], &b"aaaaaaaaaaaa"[..]] {
            let c = compress(data);
            assert_eq!(decompress(&c).unwrap(), data, "roundtrip for {data:?}");
        }
    }

    #[test]
    fn decompress_rejects_bad_backref() {
        // varint len 4, flag byte with bit0 set, bogus back-reference.
        let bad = vec![4u8, 0x01, 0xff, 0xff];
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn measure_reports_consistent_metrics() {
        let log = sample_log();
        let report = measure(&log);
        assert_eq!(report.instructions, 20);
        assert!(report.raw_bytes > 0);
        let bpi = report.bits_per_instr_raw();
        assert!((bpi - report.raw_bytes as f64 * 8.0 / 20.0).abs() < 1e-9);
    }
}
