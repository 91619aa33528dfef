//! The on-disk log container format, shared by the one-shot CLI and the
//! classification service.
//!
//! A log file is the [`FILE_MAGIC`] followed by a length-prefixed schedule
//! header (compact JSON, so `racerep replay` can verify fidelity against
//! the recorded schedule) and the LZSS-compressed encoded log. This module
//! used to live in the CLI crate; it moved here so the service can decode
//! submitted logs without depending on the command-line front end.
//! [`split_layers`] is the one parser of that layout: the loaders and
//! `racerep doctor` both call it.

use std::fmt;

use idna_replay::codec::{decode_log_mode, decompress, DecodeMode, DecodeReport, LogWriter};
use idna_replay::event::ReplayLog;
use minijson::Json;
use tvm::scheduler::{RunConfig, SchedulePolicy};

/// Log-file magic (followed by the schedule header and the compressed log).
pub const FILE_MAGIC: &[u8; 8] = b"IDNAFIL2";

/// Serializes a replay log plus the schedule that produced it into the
/// container format.
#[must_use]
pub fn log_to_bytes_with(log: &ReplayLog, schedule: &RunConfig, writer: &mut LogWriter) -> Vec<u8> {
    let mut out = Vec::from(&FILE_MAGIC[..]);
    let schedule_json = schedule_to_json(schedule).to_string_compact().into_bytes();
    out.extend(u32::try_from(schedule_json.len()).expect("tiny header").to_le_bytes());
    out.extend(schedule_json);
    out.extend_from_slice(writer.encode_compressed(log));
    out
}

/// Renders a schedule as JSON for the log-file header.
#[must_use]
pub fn schedule_to_json(schedule: &RunConfig) -> Json {
    let policy = match schedule.policy {
        SchedulePolicy::RoundRobin { quantum } => {
            Json::obj(vec![("kind", Json::str("RoundRobin")), ("quantum", Json::from(quantum))])
        }
        SchedulePolicy::Random { seed } => {
            Json::obj(vec![("kind", Json::str("Random")), ("seed", Json::from(seed))])
        }
        SchedulePolicy::Chunked { seed, min_quantum, max_quantum } => Json::obj(vec![
            ("kind", Json::str("Chunked")),
            ("seed", Json::from(seed)),
            ("min_quantum", Json::from(min_quantum)),
            ("max_quantum", Json::from(max_quantum)),
        ]),
    };
    Json::obj(vec![("policy", policy), ("max_steps", Json::from(schedule.max_steps))])
}

/// Parses the log-file header's schedule.
///
/// # Errors
///
/// Returns a message for unknown policies or missing fields.
pub fn schedule_from_json(doc: &Json) -> Result<RunConfig, String> {
    let u64_field = |obj: &Json, key: &str| -> Result<u64, String> {
        obj.field(key)?.as_u64().ok_or_else(|| format!("{key} must be an integer"))
    };
    let policy = doc.field("policy")?;
    let policy = match policy.field("kind")?.as_str() {
        Some("RoundRobin") => SchedulePolicy::RoundRobin { quantum: u64_field(policy, "quantum")? },
        Some("Random") => SchedulePolicy::Random { seed: u64_field(policy, "seed")? },
        Some("Chunked") => SchedulePolicy::Chunked {
            seed: u64_field(policy, "seed")?,
            min_quantum: u64_field(policy, "min_quantum")?,
            max_quantum: u64_field(policy, "max_quantum")?,
        },
        other => return Err(format!("unknown schedule policy {other:?}")),
    };
    Ok(RunConfig { policy, max_steps: u64_field(doc, "max_steps")? })
}

/// A log container split into its layers.
#[derive(Debug)]
pub struct Layers {
    /// The schedule the log was recorded under.
    pub schedule: RunConfig,
    /// The schedule header's length in bytes.
    pub header_len: usize,
    /// The compressed payload's length in bytes.
    pub compressed_len: usize,
    /// The payload, decompressed: the encoded log.
    pub raw: Vec<u8>,
}

/// The first layer of a log container that failed to parse, outermost
/// first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayerFault {
    /// The file does not start with [`FILE_MAGIC`].
    Magic,
    /// Fewer than four bytes follow the magic, so the schedule header has
    /// no length field.
    LengthField,
    /// The file ends inside the schedule header.
    ShortHeader {
        /// The header length the length field declares.
        declared: usize,
    },
    /// The schedule header is not a schedule.
    Schedule(String),
    /// The payload does not decompress; every layer outside it parsed.
    Compression {
        /// The schedule header's length in bytes.
        header_len: usize,
        /// The decompressor's error.
        error: String,
    },
}

impl fmt::Display for LayerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerFault::Magic => f.write_str("not a racerep log file (bad magic)"),
            LayerFault::LengthField => f.write_str("truncated log file header"),
            LayerFault::ShortHeader { .. } => f.write_str("truncated schedule header"),
            LayerFault::Schedule(e) => write!(f, "bad schedule header: {e}"),
            LayerFault::Compression { error, .. } => f.write_str(error),
        }
    }
}

/// Splits a log container into its layers: the magic, the length-prefixed
/// schedule header and the compressed payload.
///
/// # Errors
///
/// Names the first layer that fails to parse.
pub fn split_layers(bytes: &[u8]) -> Result<Layers, LayerFault> {
    let payload = bytes.strip_prefix(&FILE_MAGIC[..]).ok_or(LayerFault::Magic)?;
    let (len, rest) = payload.split_first_chunk::<4>().ok_or(LayerFault::LengthField)?;
    let header_len = u32::from_le_bytes(*len) as usize;
    if rest.len() < header_len {
        return Err(LayerFault::ShortHeader { declared: header_len });
    }
    let (header, compressed) = rest.split_at(header_len);
    let schedule = std::str::from_utf8(header)
        .map_err(|e| e.to_string())
        .and_then(|h| Json::parse(h).map_err(|e| e.to_string()))
        .and_then(|doc| schedule_from_json(&doc))
        .map_err(LayerFault::Schedule)?;
    let raw = decompress(compressed)
        .map_err(|e| LayerFault::Compression { header_len, error: e.to_string() })?;
    Ok(Layers { schedule, header_len, compressed_len: compressed.len(), raw })
}

/// Parses the container format with an explicit [`DecodeMode`], returning
/// the decoder's [`DecodeReport`] alongside the log. The container framing
/// (magic, schedule header, compression) must be intact even in tolerant
/// mode — only the per-thread frames inside the compressed payload can
/// degrade.
///
/// # Errors
///
/// Returns a message on bad magic or a corrupt payload (strict), or when
/// not even one salvageable byte of log survives (tolerant).
pub fn log_from_bytes_mode(
    bytes: &[u8],
    mode: DecodeMode,
) -> Result<(ReplayLog, RunConfig, DecodeReport), String> {
    let layers = split_layers(bytes).map_err(|fault| fault.to_string())?;
    let (log, report) = decode_log_mode(&layers.raw, mode).map_err(|e| e.to_string())?;
    Ok((log, layers.schedule, report))
}
