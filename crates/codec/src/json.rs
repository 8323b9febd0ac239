//! A minimal, dependency-free JSON value: parser and writer.
//!
//! The workspace deliberately carries no serialization dependency, so
//! this ~300-line implementation is the one JSON emitter everything
//! shares: the sweep server's wire protocol (`nplus-server` re-exports
//! this module), the sweep/replay report writers, and the recording
//! exporter. Two properties matter here more than features:
//!
//! * **No panics on untrusted input.** The parser is the first thing a
//!   served request hits; every malformed byte sequence is an `Err`
//!   with an offset, and nesting depth is capped so a hostile payload
//!   cannot blow the stack.
//! * **No `NaN`/`Infinity` ever reaches the output.** JSON has no
//!   literal for them; sweep statistics legitimately produce `NaN`
//!   (undefined fairness, zero-airtime runs), and the writer emits
//!   `null` for every non-finite float — the honest encoding of "this
//!   statistic is undefined".
//!
//! Integers are kept exact through an [`Json::Int`] variant (i64 range
//! — covers every seed/count the protocol carries) rather than routed
//! through `f64`, so large seeds cannot silently alias cache keys.

use std::fmt::Write as _;

/// A parsed JSON value. Object member order is preserved (a `Vec`, not
/// a map): writers produce deterministic output and `diff`-able files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — also what every non-finite float serializes to.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token without fractional part, kept exact.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source/insertion order.
    Obj(Vec<(String, Json)>),
}

/// Maximum container nesting the parser accepts.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Looks up a member of an object; `None` for absent keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (exact integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer; `None` for
    /// negative, fractional or non-numeric values.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// [`as_u64`](Json::as_u64) narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON (no whitespace). Non-finite floats
    /// become `null`; integers print exactly; `f64` uses the shortest
    /// round-trippable decimal form.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience constructor for a float member: finite values stay
/// numbers, `NaN`/`Inf` become [`Json::Null`] *as a value* (not just at
/// write time), so comparisons on parsed responses behave.
pub fn json_f64(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document from `input` (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
/// A one-line message with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            self.err(&format!("expected {token:?}"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        match self.peek() {
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.err("expected a string key");
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return self.err("expected ':'");
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: expect the \uXXXX low
                                // half immediately after.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return self.err("missing low surrogate");
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return self.err("invalid low surrogate");
                                }
                                let cp = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        _ => return self.err("invalid escape"),
                    }
                }
                Some(c) if c < 0x20 => return self.err("control character in string"),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so this is
                    // always a char boundary walk).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                    // `rest` is non-empty (peek saw a byte), so a scalar
                    // exists; a typed error keeps the parser panic-free
                    // even if that invariant ever breaks.
                    let Some(c) = s.chars().next() else {
                        return self.err("truncated string");
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads exactly 4 hex digits at the current position, advancing
    /// past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos;
        let end = start + 4;
        if end > self.bytes.len() {
            return self.err("truncated unicode escape");
        }
        let digits = &self.bytes[start..end];
        // Fold the nibbles directly — no str round-trip, no panic path.
        let mut v: u32 = 0;
        for &d in digits {
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return self.err("invalid unicode escape"),
            };
            v = (v << 4) | nibble;
        }
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The scanned range is ASCII sign/digit/exponent bytes only.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if !fractional {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("invalid number {text:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_values() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "1.5",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"x\"}}",
        ];
        for case in cases {
            let v = parse(case).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(v.to_string_compact(), case, "roundtrip {case}");
        }
        // Whitespace tolerated on parse, normalized on write.
        let v = parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.to_string_compact(), "{\"a\":[1,2]}");
    }

    #[test]
    fn integers_stay_exact_and_large_seeds_do_not_alias() {
        let v = parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v, Json::Int(9007199254740993));
        assert_eq!(v.as_u64(), Some(9007199254740993));
        assert_eq!(v.to_string_compact(), "9007199254740993");
        // Fractional numbers refuse integer access.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), Json::Null);
        assert_eq!(json_f64(2.5), Json::Num(2.5));
        let obj = Json::Obj(vec![
            ("ok".to_string(), Json::Num(1.25)),
            ("undefined".to_string(), json_f64(f64::NAN)),
        ]);
        assert_eq!(obj.to_string_compact(), "{\"ok\":1.25,\"undefined\":null}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse(r#""a\"b\\c\nd\te\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\teA\u{e9}"));
        // Surrogate pair.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Writer escapes controls and quotes; reparse agrees.
        let original = Json::Str("line\nquote\" back\\ tab\t".to_string());
        let text = original.to_string_compact();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn malformed_input_is_an_err_never_a_panic() {
        for bad in [
            "",
            "nul",
            "tru",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12",
            "\"\\ud800\"",
            "1.2.3",
            "--5",
            "[1]trailing",
            "nan",
            "Infinity",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        // Depth bomb: error, not stack overflow.
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn object_access_helpers() {
        let v = parse("{\"cmd\":\"sweep\",\"seeds\":[1,2],\"deep\":{\"x\":true}}").unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("sweep"));
        assert_eq!(
            v.get("seeds").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(
            v.get("deep")
                .and_then(|d| d.get("x"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("anything").is_none());
    }
}
