//! Tiny hand-rolled JSON reader/writer.
//!
//! The workspace builds offline (no serde); the machine-readable
//! artefacts — flow specifications, per-stage statistics,
//! `target/table1.json` — are flat records of strings and numbers, so a
//! minimal escaping writer plus a recursive descent parser is all that
//! is needed. This module started life in
//! `pd-bench`; it moved here (gaining [`Json::parse`]) when the flow
//! pipeline needed to *read* specifications, and `pd-bench` now re-exports
//! it.

use std::fmt;
use std::fmt::Write as _;

/// A JSON syntax error: the byte offset where parsing failed plus a
/// message. [`Json::parse`] reports the *first* error; the offset indexes
/// the original byte slice, so callers can point at the offending spot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document where parsing failed.
    pub pos: usize,
    /// What went wrong at that offset.
    pub msg: String,
}

impl JsonError {
    fn new(pos: usize, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Documents nested deeper than this are rejected by [`Json::parse`]
/// rather than risking stack exhaustion in the recursive-descent parser
/// (a `[[[[…` bomb would otherwise abort the process).
const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value assembled imperatively or parsed from text.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialise as `null`).
    Num(f64),
    /// A string (escaped on write).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object values.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key of an object value (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a finite number.
    ///
    /// A non-finite `Json::Num` (possible only by constructing the
    /// variant directly — [`From<f64>`] and the parser never produce one)
    /// yields `None`, matching the writer, which emits it as `null`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] (byte offset + message) for the first
    /// syntax error; trailing non-whitespace after the document, nesting
    /// deeper than 128 levels, and non-finite numbers (`1e999`) are also
    /// errors.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new(pos, "trailing characters after document"));
        }
        Ok(value)
    }

    /// Serialises with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&token) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::new(
            *pos,
            format!("expected {:?}", token as char),
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth >= MAX_PARSE_DEPTH {
        return Err(JsonError::new(
            *pos,
            format!("nesting deeper than {MAX_PARSE_DEPTH} levels"),
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::new(bytes.len(), "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(JsonError::new(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::new(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| JsonError::new(start, "invalid UTF-8 in number"))?;
            let n: f64 = text
                .parse()
                .map_err(|_| JsonError::new(start, format!("invalid literal {text:?}")))?;
            // str::parse accepts overflowing literals like 1e999 by
            // saturating to infinity, which Json::Num cannot represent
            // (the writer would emit it as null).
            if !n.is_finite() {
                return Err(JsonError::new(
                    start,
                    format!("number {text:?} overflows an f64"),
                ));
            }
            Ok(Json::Num(n))
        }
    }
}

/// Reads the four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| JsonError::new(at, "truncated \\u escape"))?;
    u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|_| JsonError::new(at, "bad \\u escape"))?,
        16,
    )
    .map_err(|_| JsonError::new(at, "bad \\u escape"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::new(bytes.len(), "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate must pair with a following
                        // \uDC00..\uDFFF escape (JSON encodes non-BMP
                        // characters as UTF-16 surrogate pairs).
                        if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u".as_slice()) {
                                return Err(JsonError::new(*pos, "unpaired high surrogate"));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(JsonError::new(*pos, "invalid low surrogate"));
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| JsonError::new(*pos, "invalid \\u escape"))?,
                        );
                    }
                    _ => return Err(JsonError::new(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences intact).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| JsonError::new(start, "invalid UTF-8"))?,
                );
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<f64> for Json {
    /// A non-finite value (NaN, ±∞) has no JSON representation; it
    /// becomes an explicit `Json::Null` at construction time instead of
    /// degrading to `null` silently at write time (which would not
    /// round-trip through [`Json::parse`] as a number either way).
    fn from(n: f64) -> Json {
        if n.is_finite() {
            Json::Num(n)
        } else {
            Json::Null
        }
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::Json;
    use proptest as pt;

    #[test]
    fn escapes_and_nests() {
        let j = Json::obj(vec![
            ("name", Json::from("a\"b\\c\nd")),
            (
                "xs",
                Json::Arr(vec![Json::from(1.5), Json::Null, Json::from(true)]),
            ),
            ("n", Json::from(3usize)),
        ]);
        let s = j.pretty();
        assert!(s.contains("\\\"b\\\\c\\n"), "{s}");
        assert!(s.contains("1.5"));
        assert!(s.contains("null"));
        assert!(s.contains("\"n\": 3"));
    }

    #[test]
    fn integers_have_no_fraction() {
        assert_eq!(Json::Num(42.0).pretty(), "42");
        assert_eq!(Json::Num(0.25).pretty(), "0.25");
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let j = Json::obj(vec![
            ("s", Json::from("quote \" slash \\ nl \n done")),
            (
                "nums",
                Json::Arr(vec![Json::from(1usize), Json::from(-2.5), Json::Null]),
            ),
            ("flag", Json::from(false)),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn parse_accepts_compact_documents() {
        let j = Json::parse(r#"{"a":[1,2,{"b":true}],"c":null}"#).unwrap();
        assert_eq!(j.get("c"), Some(&Json::Null));
        let arr = j.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_errors_carry_byte_positions() {
        let e = Json::parse(r#"{"a": 1, }"#).unwrap_err();
        assert_eq!(e.pos, 9, "{e}");
        let e = Json::parse("12 34").unwrap_err();
        assert_eq!(e.pos, 3, "{e}");
        assert!(e.to_string().starts_with("byte 3:"), "{e}");
    }

    #[test]
    fn parse_rejects_overflowing_numbers() {
        // str::parse::<f64> maps 1e999 to infinity instead of failing;
        // the parser must not let that masquerade as a finite datum.
        let e = Json::parse("1e999").unwrap_err();
        assert!(e.msg.contains("overflows"), "{e}");
        assert!(Json::parse("-1e999").is_err());
        assert!(Json::parse("1e308").is_ok(), "large but finite is fine");
    }

    #[test]
    fn parse_caps_nesting_depth_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        // A document at a comfortable depth still parses.
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok());
    }

    /// Random JSON tree over every constructor, depth-bounded. Numbers go
    /// through `From<f64>` — including NaN/±∞ injections, which normalise
    /// to `Json::Null` — so the generated value is always representable.
    fn random_json(rng: &mut pt::TestRng, depth: usize) -> Json {
        let choices = if depth == 0 { 4 } else { 6 };
        match rng.below(choices) {
            0 => Json::Null,
            1 => Json::from(rng.below(2) == 1),
            2 => {
                let raw = match rng.below(6) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => (rng.below(2_000_001) as f64) - 1_000_000.0,
                    _ => ((rng.below(64_000_001) as f64) - 32_000_000.0) / 1024.0,
                };
                Json::from(raw)
            }
            3 => {
                let len = rng.below(12) as usize;
                let s: String = (0..len)
                    .map(|_| {
                        // Mix ASCII, escapes, control chars, and non-ASCII.
                        match rng.below(8) {
                            0 => '"',
                            1 => '\\',
                            2 => '\n',
                            3 => '\u{7}',
                            4 => 'µ',
                            5 => '😀',
                            _ => (b'a' + (rng.below(26) as u8)) as char,
                        }
                    })
                    .collect();
                Json::Str(s)
            }
            4 => {
                let len = rng.below(5) as usize;
                Json::Arr((0..len).map(|_| random_json(rng, depth - 1)).collect())
            }
            _ => {
                let len = rng.below(5) as usize;
                Json::Obj(
                    (0..len)
                        .map(|i| (format!("k{i}"), random_json(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    #[test]
    fn writer_parser_round_trip_property() {
        let mut rng = pt::TestRng::new(pt::seed_for("writer_parser_round_trip_property"));
        for case in 0..200 {
            let doc = random_json(&mut rng, 3);
            let text = doc.pretty();
            let back = Json::parse(&text)
                .unwrap_or_else(|e| panic!("case {case}: {e}\ndocument:\n{text}"));
            assert_eq!(back, doc, "case {case} did not round-trip:\n{text}");
        }
    }

    #[test]
    fn non_finite_numbers_round_trip_as_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let j = Json::obj(vec![("area_um2", Json::from(bad))]);
            assert_eq!(j.get("area_um2"), Some(&Json::Null));
            let text = j.pretty();
            assert_eq!(Json::parse(&text).unwrap(), j, "{text}");
        }
        // A hand-constructed non-finite Num still writes as null and is
        // invisible to as_num, so it cannot masquerade as data.
        let sneaky = Json::Num(f64::NAN);
        assert_eq!(sneaky.pretty(), "null");
        assert_eq!(sneaky.as_num(), None);
    }

    #[test]
    fn parse_handles_unicode_and_escapes() {
        let j = Json::parse(r#""µm² A ok""#).unwrap();
        assert_eq!(j.as_str(), Some("µm² A ok"));
        let j = Json::parse("\"\\u0041\\t\"").unwrap();
        assert_eq!(j.as_str(), Some("A\t"));
        // Non-BMP characters arrive as UTF-16 surrogate pairs.
        let j = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(j.as_str(), Some("😀"));
        assert!(
            Json::parse("\"\\ud83d\"").is_err(),
            "unpaired high surrogate"
        );
        assert!(
            Json::parse("\"\\ud83d\\u0041\"").is_err(),
            "bad low surrogate"
        );
    }
}
