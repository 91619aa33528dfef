//! Property tests for the minijson parser: seeded documents round-trip
//! through both printers, `validate` accepts exactly what `parse` accepts
//! (on every document and on seeded truncations and byte flips of each),
//! integers take the fast path only where it is exact, inputs the parser
//! always rejected stay rejected, and nesting is capped at `MAX_DEPTH`.

use minijson::{Json, MAX_DEPTH};

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

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Integers on both sides of the 18-digit fast path and at the ends of
/// `i128`.
const INTS: &[i128] = &[
    0,
    -1,
    7,
    999_999_999_999_999_999,                             // 18 digits
    -999_999_999_999_999_999,                            // 18 digits
    1_000_000_000_000_000_000,                           // 19 digits
    -9_999_999_999_999_999_999,                          // 19 digits
    18_446_744_073_709_551_615,                          // u64::MAX, 20 digits
    100_000_000_000_000_000_000_000_000_000_000_000_000, // 39 digits
    i128::MAX,
    i128::MIN,
];

const FLOATS: &[f64] = &[0.5, -0.0, -1.25e-3, 1e100, 6.02214076e23, f64::MIN_POSITIVE, f64::MAX];

/// A listed float, or any finite one.
fn float(rng: &mut Rng) -> f64 {
    let random = f64::from_bits(rng.next());
    if rng.below(2) == 0 || !random.is_finite() {
        *rng.pick(FLOATS)
    } else {
        random
    }
}

/// Characters that exercise every string path: plain ASCII, the escaped
/// ASCII set, control bytes, and 2-, 3- and 4-byte UTF-8.
const CHARS: &[char] =
    &['a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '✓', '😀', '𝄞'];

fn string(rng: &mut Rng) -> String {
    (0..rng.below(12)).map(|_| *rng.pick(CHARS)).collect()
}

fn document(rng: &mut Rng, depth: u32) -> Json {
    let leaf = depth == 0 || rng.below(3) == 0;
    match rng.below(if leaf { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Int(if rng.below(2) == 0 {
            *rng.pick(INTS)
        } else {
            i128::from(rng.next() as i64) >> rng.below(64)
        }),
        3 => Json::Float(float(rng)),
        4 => Json::Str(string(rng)),
        5 => Json::Arr((0..rng.below(5)).map(|_| document(rng, depth - 1)).collect()),
        _ => {
            Json::Obj((0..rng.below(5)).map(|_| (string(rng), document(rng, depth - 1))).collect())
        }
    }
}

/// `s` as a JSON string literal that escapes characters at random: as the
/// printer does, as short escapes (`\/`, `\b`, `\f`), or as `\u` escapes —
/// surrogate pairs beyond the basic plane.
fn escaped(rng: &mut Rng, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match (c, rng.below(3)) {
            ('"', _) => out.push_str("\\\""),
            ('\\', _) => out.push_str("\\\\"),
            ('/', 0) => out.push_str("\\/"),
            ('\u{8}', _) => out.push_str("\\b"),
            ('\u{c}', _) => out.push_str("\\f"),
            (c, _) if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04X}", c as u32));
            }
            (c, 1) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
            (c, _) => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The texts each seeded document is checked as.
fn renderings(doc: &Json) -> [String; 2] {
    [doc.to_string_compact(), doc.to_string_pretty()]
}

/// `validate` must accept and reject exactly what `parse` does, failing
/// at the same byte with the same message.
fn assert_agree(text: &str) {
    assert_eq!(
        Json::validate(text),
        Json::parse(text).map(drop),
        "validate and parse disagree on {text:?}"
    );
}

#[test]
fn seeded_documents_round_trip_compact_and_pretty() {
    let mut rng = Rng(0x6a50_2d0c | 1);
    for _ in 0..400 {
        let doc = document(&mut rng, 5);
        for text in renderings(&doc) {
            assert_eq!(Json::parse(&text).as_ref(), Ok(&doc), "{text}");
            assert_eq!(Json::validate(&text), Ok(()), "{text}");
        }
    }
    for (i, int) in INTS.iter().enumerate() {
        let doc = Json::Int(*int);
        assert_eq!(Json::parse(&doc.to_string_compact()), Ok(doc), "INTS[{i}]");
    }
    assert_eq!(Json::parse("-0"), Ok(Json::Int(0)));
    assert_eq!(Json::parse("-0.0"), Ok(Json::Float(-0.0)));
}

#[test]
fn escaped_strings_parse_to_their_characters() {
    let mut rng = Rng(0x0e5c_a9e5 | 1);
    for _ in 0..2_000 {
        let s = string(&mut rng);
        let text = escaped(&mut rng, &s);
        assert_eq!(Json::parse(&text), Ok(Json::Str(s)), "{text}");
        assert_agree(&text);
    }
    assert_eq!(Json::parse("\"\\ud834\\udd1e\\u00e9\\/\""), Ok(Json::str("𝄞é/")));
}

/// Integer literals of 1 to 41 digits parse exactly as `str::parse::<i128>`
/// reads them, on both sides of the 18-digit fast path.
#[test]
fn integers_parse_exactly_as_i128() {
    let mut rng = Rng(0x1_2818 | 1);
    for _ in 0..4_000 {
        let digits = 1 + rng.below(41);
        let mut text: String =
            (0..digits).map(|_| char::from(b'0' + rng.below(10) as u8)).collect();
        if rng.below(2) == 0 {
            text.insert(0, '-');
        }
        let want = text.parse::<i128>().ok().map(Json::Int);
        assert_eq!(Json::parse(&text).ok(), want, "{text}");
        assert_agree(&text);
    }
}

#[test]
fn validate_agrees_with_parse_on_truncations_and_byte_flips() {
    let mut rng = Rng(0xf11b_5eed | 1);
    for _ in 0..200 {
        let doc = document(&mut rng, 4);
        for text in renderings(&doc) {
            assert_agree(&text);
            let bytes = text.as_bytes();
            for _ in 0..20 {
                let cut = rng.below(bytes.len() as u64 + 1) as usize;
                assert_agree(&String::from_utf8_lossy(&bytes[..cut]));
                let mut flipped = bytes.to_vec();
                if !flipped.is_empty() {
                    let at = rng.below(flipped.len() as u64) as usize;
                    flipped[at] ^= 1 << rng.below(8);
                }
                assert_agree(&String::from_utf8_lossy(&flipped));
            }
        }
    }
}

/// Inputs the parser has always rejected stay rejected by both entry
/// points.
#[test]
fn malformed_inputs_stay_rejected() {
    for text in [
        "",
        " ",
        "-",
        "--1",
        "1e",
        "[1,]",
        "[1 2]",
        "12 34",
        "{",
        "[",
        "{\"a\" 1}",
        "{\"a\":1,}",
        "{1:2}",
        "tru",
        "nul",
        "\"abc",
        "\"a\u{1}b\"",
        "\"tab\there\"",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\ud800\"",
        "\"\\ud800\\u0041\"",
        "\"\\udc00\"",
        "170141183460469231731687303715884105728",
        "-170141183460469231731687303715884105729",
        "1701411834604692317316873037158841057270",
    ] {
        assert!(Json::parse(text).is_err(), "parse accepted {text:?}");
        assert!(Json::validate(text).is_err(), "validate accepted {text:?}");
    }
}

fn nested(depth: usize) -> String {
    let mut text = "[".repeat(depth);
    text.push_str(&"]".repeat(depth));
    text
}

#[test]
fn nesting_is_capped() {
    assert_eq!(MAX_DEPTH, 128);
    for depth in [1, MAX_DEPTH] {
        let text = nested(depth);
        assert!(Json::parse(&text).is_ok(), "depth {depth}");
        assert_eq!(Json::validate(&text), Ok(()), "depth {depth}");
    }
    let text = nested(MAX_DEPTH + 1);
    let err = Json::parse(&text).unwrap_err();
    assert_eq!(err.offset, MAX_DEPTH, "the error points at the first bracket too deep");
    assert!(err.message.contains("nesting"), "{err}");
    assert_eq!(Json::validate(&text), Err(err));
    // Objects count toward the same cap, mixed with arrays.
    let mixed = "{\"k\":[".repeat(65) + &"]}".repeat(65);
    assert!(Json::parse(&mixed).is_err());
    assert!(Json::validate(&mixed).is_err());
}

/// A million open brackets is an error, not a stack overflow, on a thread
/// with a 2 MiB stack (the default for spawned threads).
#[test]
fn a_million_open_brackets_is_an_error_on_a_small_stack() {
    let text = "[".repeat(1_000_000);
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            assert!(Json::parse(&text).is_err());
            assert!(Json::validate(&text).is_err());
        })
        .unwrap()
        .join()
        .unwrap();
}
