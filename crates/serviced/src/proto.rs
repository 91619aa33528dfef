//! The racerepd wire protocol: length-prefixed, checksummed JSON frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +------+-----+------------+---------------+------------------+
//! | RRSV | ver | len u32 LE | check u64 LE  | payload (JSON)   |
//! +------+-----+------------+---------------+------------------+
//! ```
//!
//! `check` is the [`FastHasher`] digest of the payload bytes — the same
//! hasher the v2 log format uses for its per-thread frame checksums, and
//! versioned the same way: the magic pins the container shape, the version
//! byte pins the payload schema, and a reader that sees either it does not
//! recognize refuses the frame rather than guessing. A frame is at most
//! [`MAX_FRAME`] bytes; anything larger is rejected before allocation, so a
//! corrupt length field cannot balloon the server.
//!
//! Binary operands (the submitted log container) travel inside the JSON as
//! base64 — the protocol stays a single self-describing text payload per
//! frame, which keeps the framing code independent of the request schema.

use std::hash::Hasher;
use std::io::{Read, Write};

use minijson::Json;
use tvm::fasthash::FastHasher;

/// Frame magic: `RRSV` = racerep service.
pub const FRAME_MAGIC: &[u8; 4] = b"RRSV";

/// Protocol version; bumped whenever the payload schema changes shape.
pub const PROTO_VERSION: u8 = 1;

/// Upper bound on one frame's payload (64 MiB).
pub const MAX_FRAME: usize = 64 << 20;

/// A protocol failure: framing damage, version skew, or malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    pub message: String,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError { message: format!("io error: {e}") }
    }
}

fn perr<T>(message: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError { message: message.into() })
}

/// The checksum the frame header carries for `payload`.
#[must_use]
pub fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = FastHasher::default();
    h.write(payload);
    h.finish()
}

/// Bytes before the payload: magic, version, length and checksum.
const HEADER_LEN: usize = 4 + 1 + 4 + 8;

/// Writes one frame carrying `doc` (compact JSON) to `w`.
///
/// # Errors
///
/// Propagates io failures; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, doc: &Json) -> Result<(), ProtoError> {
    let frame = frame_parts(&[doc.to_string_compact().as_bytes()])?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// The frame whose payload is `parts` concatenated, which the caller
/// guarantees is one JSON document. It is assembled in a single buffer and
/// its length and checksum filled in over the contiguous payload, so the
/// bytes equal [`write_frame`] of the parsed document whenever `parts` is
/// that document's compact rendering.
///
/// # Errors
///
/// Rejects payloads over [`MAX_FRAME`].
pub(crate) fn frame_parts(parts: &[&[u8]]) -> Result<Vec<u8>, ProtoError> {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    if len > MAX_FRAME {
        return perr(format!("frame payload {len} bytes exceeds {MAX_FRAME}"));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + len);
    frame.extend_from_slice(FRAME_MAGIC);
    frame.push(PROTO_VERSION);
    frame.extend_from_slice(&u32::try_from(len).expect("bounded above").to_le_bytes());
    frame.extend_from_slice(&[0; 8]);
    for part in parts {
        frame.extend_from_slice(part);
    }
    let check = payload_checksum(&frame[HEADER_LEN..]);
    frame[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&check.to_le_bytes());
    Ok(frame)
}

/// Reads one frame from `r` and parses its JSON payload.
///
/// # Errors
///
/// Fails on truncated streams, bad magic, version skew, checksum mismatch,
/// oversized frames, and malformed JSON.
pub fn read_frame(r: &mut impl Read) -> Result<Json, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if &header[..4] != FRAME_MAGIC {
        return perr("bad frame magic (not a racerepd peer?)");
    }
    if header[4] != PROTO_VERSION {
        return perr(format!("protocol version {} (this build speaks {PROTO_VERSION})", header[4]));
    }
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return perr(format!("frame payload {len} bytes exceeds {MAX_FRAME}"));
    }
    let want = u64::from_le_bytes(header[9..17].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if payload_checksum(&payload) != want {
        return perr("frame checksum mismatch (payload damaged in transit)");
    }
    let text = std::str::from_utf8(&payload)
        .map_err(|e| ProtoError { message: format!("frame payload is not UTF-8: {e}") })?;
    Json::parse(text).map_err(|e| ProtoError { message: format!("frame payload: {e}") })
}

// --- base64 -----------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 (with padding) for binary operands inside JSON payloads.
#[must_use]
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let enc = |shift: u32| B64[(n >> shift) as usize & 0x3f] as char;
        out.push(enc(18));
        out.push(enc(12));
        out.push(if chunk.len() > 1 { enc(6) } else { '=' });
        out.push(if chunk.len() > 2 { enc(0) } else { '=' });
    }
    out
}

/// Decodes [`b64_encode`]'s output.
///
/// # Errors
///
/// Fails on characters outside the alphabet or a malformed tail.
pub fn b64_decode(text: &str) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let mut acc = 0u32;
    let mut bits = 0u32;
    for c in text.bytes() {
        if c == b'=' {
            break;
        }
        let v = match c {
            b'A'..=b'Z' => c - b'A',
            b'a'..=b'z' => c - b'a' + 26,
            b'0'..=b'9' => c - b'0' + 52,
            b'+' => 62,
            b'/' => 63,
            _ => return perr(format!("invalid base64 byte {c:#04x}")),
        };
        acc = (acc << 6) | u32::from(v);
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let doc = Json::obj(vec![("type", Json::str("stats")), ("n", Json::from(42u64))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got.to_string_compact(), doc.to_string_compact());
    }

    #[test]
    fn frame_rejects_damage() {
        let doc = Json::str("hello");
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        // Flip one payload byte: the checksum must catch it.
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");
        // Version skew is refused before the payload is read.
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        buf[4] = 9;
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.message.contains("version"), "{err}");
    }

    #[test]
    fn base64_roundtrip() {
        for len in 0..40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let text = b64_encode(&bytes);
            assert_eq!(b64_decode(&text).unwrap(), bytes, "len {len}");
        }
        assert!(b64_decode("a b").is_err());
    }
}
