//! A minimal JSON value: hand-rolled writer and parser.
//!
//! The build resolves no third-party crates, so every JSON surface (the
//! wire protocol, `--json` results, metrics snapshots) is produced and
//! consumed by this ~200-line module instead of serde. It covers objects,
//! arrays, strings, integers, floats, booleans and null, with strict
//! escaping.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; `f64` would lose precision above 2^53).
    Int(i64),
    /// A float. Non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an i64 (exact integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an f64 (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) => {
                if x.is_finite() {
                    // Guarantee a float shape so parsing round-trips the type.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                write!(f, "\"{buf}\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(k.len());
                    escape_into(&mut buf, k);
                    write!(f, "\"{buf}\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape
                    // (neither byte occurs inside a UTF-8 sequence). Only
                    // the run is validated: validating the rest of the
                    // document per character made parsing quadratic.
                    let rest = &self.bytes[self.pos..];
                    let run = (rest.iter())
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(rest.len());
                    out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| "invalid utf-8")?);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("q\"1\"\nline".into())),
            ("n".into(), Json::Int(-42)),
            ("x".into(), Json::Float(1.5)),
            ("whole".into(), Json::Float(2.0)),
            ("flag".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "arr".into(),
                Json::Arr(vec![
                    Json::Int(1),
                    Json::Str("two".into()),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc, "{text}");
    }

    #[test]
    fn integers_stay_exact() {
        let big = 9_007_199_254_740_993i64; // 2^53 + 1, not representable in f64
        let text = Json::Obj(vec![("v".into(), Json::Int(big))]).to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("v").unwrap().as_i64(), Some(big));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parsing_is_linear_in_the_document() {
        // 2 MiB of strings: the per-character revalidation this replaced
        // took minutes here.
        let rows = (0..2048).map(|i| Json::Str(format!("{i}é\\\"{}", "y".repeat(1020))));
        let doc = Json::Arr(rows.collect());
        let t = std::time::Instant::now();
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        assert!(t.elapsed().as_secs() < 5, "{:?}", t.elapsed());
    }

    #[test]
    fn control_chars_escape() {
        let text = Json::Str("a\u{1}b".into()).to_string();
        assert_eq!(text, "\"a\\u0001b\"");
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some("a\u{1}b"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    fn roundtrip(doc: &Json) -> Json {
        let line = doc.to_string();
        Json::parse(&line).unwrap_or_else(|err| panic!("parse {line}: {err}"))
    }

    #[test]
    fn control_characters_in_strings_survive() {
        // Every ASCII control character, plus the JSON two-char escapes.
        let mut hostile = String::new();
        for b in 0u8..0x20 {
            hostile.push(b as char);
        }
        hostile.push_str("\"quoted\" back\\slash /slash");
        let doc = Json::Obj(vec![("text".into(), Json::Str(hostile))]);
        let line = doc.to_string();
        // The serialized text stays a single line (embedded \n escaped).
        assert_eq!(line.lines().count(), 1, "{line:?}");
        assert!(line.contains("\\n") && line.contains("\\t"), "{line}");
        assert!(line.contains("\\u0000"), "{line}");
        assert_eq!(roundtrip(&doc), doc);
    }

    #[test]
    fn unicode_escapes_and_multibyte_text_survive() {
        let doc = Json::Obj(vec![
            ("table".into(), Json::Str("ítem — 商品 🛒".into())),
            ("note".into(), Json::Str("\u{1} bell \u{7}".into())),
        ]);
        assert_eq!(roundtrip(&doc), doc);
        // Escaped unicode in the input parses to the same scalar values.
        let parsed = Json::parse("\"\\u00e9\\u0001\"").unwrap();
        assert_eq!(parsed.as_str(), Some("é\u{1}"));
        // Surrogate-free astral plane text survives via raw UTF-8 bytes.
        let line = Json::Str("🛒".into()).to_string();
        assert_eq!(Json::parse(&line).unwrap().as_str(), Some("🛒"));
    }

    #[test]
    fn hostile_object_keys_round_trip() {
        let doc = Json::Obj(vec![
            ("weird \"key\"\n".into(), Json::Int(1)),
            ("".into(), Json::Str(String::new())),
        ]);
        assert_eq!(roundtrip(&doc), doc);
    }

    #[test]
    fn malformed_json_text_errors() {
        for input in [
            "{",
            "{\"ts_us\":}",
            "\"unterminated",
            "{\"a\":\"\\u00\"}",
            "nullish",
            "[1,2",
        ] {
            assert!(Json::parse(input).is_err(), "{input:?} should fail");
        }
    }
}
