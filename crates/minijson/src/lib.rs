//! A small, self-contained JSON library: a value type, a strict parser
//! with an allocation-free validating twin ([`Json::validate`]), and
//! compact/pretty printers.
//!
//! The workspace builds in fully offline environments, so it cannot pull
//! `serde`/`serde_json` from a registry. The handful of places that need
//! JSON (race reports, triage databases, log-file headers) convert to and
//! from [`Json`] by hand instead; this crate gives them one shared,
//! well-tested value model.
//!
//! Integers are carried as `i128` so every `u64` and `i64` round-trips
//! exactly; floats use the shortest `{:?}` rendering, which round-trips
//! `f64` in Rust.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Any integer literal without a fraction or exponent.
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object keys keep insertion order (reports read better that way).
    Obj(Vec<(String, Json)>),
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so the cap bounds its stack on hostile
/// input; the documents this workspace writes nest at most 7 levels.
pub const MAX_DEPTH: usize = 128;

/// A parse failure with byte offset and description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document; trailing non-whitespace, and arrays and
    /// objects nested deeper than [`MAX_DEPTH`], are errors.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::<true>::new(text).document()
    }

    /// Checks that `text` is a document [`Json::parse`] accepts, without
    /// building it: a well-formed document is checked with no heap
    /// allocation, so a caller holding JSON text can vouch for it and pass
    /// the text on as is.
    pub fn validate(text: &str) -> Result<(), JsonError> {
        Parser::<false>::new(text).document().map(drop)
    }

    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Json::get`] but returns an error naming the missing key.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|i| u64::try_from(i).ok())
    }

    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i128().and_then(|i| usize::try_from(i).ok())
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            #[allow(clippy::cast_precision_loss)]
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders the document without whitespace.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the document with two-space indentation.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(i128::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(i128::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}
impl<K: Into<String>, V: Into<Json>> From<BTreeMap<K, V>> for Json {
    fn from(map: BTreeMap<K, V>) -> Json {
        Json::Obj(map.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{:?}` is the shortest representation that round-trips f64.
        let s = format!("{f:?}");
        out.push_str(&s);
    } else {
        // JSON has no inf/nan; null is the conventional fallback.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The parser behind [`Json::parse`] (`BUILD`) and [`Json::validate`]
/// (`!BUILD`): one grammar walk. Without `BUILD` every string, array and
/// object comes back as an empty placeholder that never touched the heap,
/// so the two accept exactly the same documents.
struct Parser<'a, const BUILD: bool> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a, const BUILD: bool> Parser<'a, BUILD> {
    fn new(text: &'a str) -> Self {
        Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    /// One whole document; trailing non-whitespace is an error.
    fn document(mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(value)
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            if BUILD {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if BUILD {
                pairs.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run of plain bytes, multi-byte UTF-8 included, ends at a
            // quote, a backslash or a control byte: all ASCII, so the run
            // is whole characters and copies in one step.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            if BUILD {
                out.push_str(&self.text[start..self.pos]);
            }
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => self.escape(&mut out)?,
                _ => return Err(self.err("control character in string")),
            }
        }
    }

    /// The escape after a backslash, appended to `out` when building.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        let c = match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("invalid escape")),
        };
        if BUILD {
            out.push(c);
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        // Exact while at most 18 digits: 10^18 - 1 < u64::MAX.
        let mut magnitude = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - digits_start;
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>().map(Json::Float).map_err(|_| self.err("invalid number"))
        } else if (1..=18).contains(&digits) {
            let magnitude = i128::from(magnitude);
            Ok(Json::Int(if negative { -magnitude } else { magnitude }))
        } else {
            // No digits (a lone `-`), or too many for the exact fast path.
            text.parse::<i128>().map(Json::Int).map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "18446744073709551615", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text);
        }
    }

    #[test]
    fn u64_round_trips_exactly() {
        let v = Json::from(u64::MAX);
        let back = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_round_trip() {
        for f in [0.5, -1.25e-3, 1e100, f64::MIN_POSITIVE] {
            let v = Json::Float(f);
            let back = Json::parse(&v.to_string_compact()).unwrap();
            assert_eq!(back.as_f64(), Some(f));
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let doc = Json::obj(vec![
            ("name", Json::str("race \"a\"\n")),
            ("ids", Json::from(vec![1u64, 2, 3])),
            ("none", Json::Null),
            ("inner", Json::obj(vec![("ok", Json::Bool(true))])),
        ]);
        for rendered in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(Json::parse(&rendered).unwrap(), doc);
        }
    }

    #[test]
    fn pretty_printing_is_indented() {
        let doc = Json::obj(vec![("a", Json::from(vec![1u64]))]);
        assert_eq!(doc.to_string_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse("\"\\u0041\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("A😀"));
        let raw = Json::parse("\"héllo\"").unwrap();
        assert_eq!(raw.as_str(), Some("héllo"));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
    }

    #[test]
    fn object_lookup_and_accessors() {
        let doc = Json::parse("{\"k\": 42, \"s\": \"v\", \"f\": 1.5}").unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_usize), Some(42));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("v"));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(1.5));
        assert!(doc.get("missing").is_none());
        assert!(doc.field("missing").is_err());
    }
}
