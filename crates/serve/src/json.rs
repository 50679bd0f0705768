//! A minimal std-only JSON value type: strict recursive-descent parser
//! plus a compact single-line writer.
//!
//! The serve protocol is newline-delimited JSON from untrusted peers, so
//! the parser is written for hostility rather than speed: typed errors
//! with byte offsets (never a panic), a nesting-depth cap against stack
//! exhaustion, and an input-length cap enforced by the caller. `klest-obs`
//! has a JSON *writer* for run reports; requests additionally need a
//! *reader*, which lives here so the dependency stays one-way.

use std::fmt;

/// Maximum nesting depth accepted by [`parse`]. Protocol messages are
/// flat objects; anything deeper than this is hostile or broken input.
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up `key` in an object (first match wins); `None` for
    /// non-objects and absent keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()
            .and_then(|members| members.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    }

    /// Renders the value as compact single-line JSON (no spaces, no
    /// trailing newline) — the wire format of serve responses.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Round-trippable shortest form, like the obs writer.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A typed parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] with a byte offset for malformed input, over-deep
/// nesting (> 16 levels) or trailing garbage. Never panics.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        let end = self.pos + literal.len();
        if self.bytes.len() >= end && &self.bytes[self.pos..end] == literal.as_bytes() {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{literal}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
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
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let second = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&second) {
                                        let combined =
                                            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(first)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str so the
                    // bytes are valid UTF-8; find the char boundary.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = &self.bytes[self.pos..end];
        let mut value = 0u32;
        for &d in digits {
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            value = value * 16 + nibble;
        }
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError {
                offset: start,
                message: "invalid number".to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_object() {
        let v = parse(r#"{"id":"q1","samples":128,"warm":true,"extra":null}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("q1"));
        assert_eq!(v.get("samples").and_then(Json::as_f64), Some(128.0));
        assert_eq!(v.get("warm").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("extra"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_arrays_and_numbers() {
        let v = parse(r#"[1, -2.5, 1e3, [true, "x"]]"#).unwrap();
        match v {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1], Json::Num(-2.5));
                assert_eq!(items[2], Json::Num(1000.0));
                assert_eq!(
                    items[3],
                    Json::Arr(vec![Json::Bool(true), Json::Str("x".into())])
                );
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\n\tAé""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\n\tA\u{e9}".into()));
        // Surrogate pair (U+1F600).
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v, Json::Str("\u{1F600}".into()));
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        for bad in [
            "",
            "{",
            "}",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1,,2]",
            "tru",
            "nul",
            "\"unterminated",
            r#""bad \q escape""#,
            r#""\ud800""#, // lone high surrogate
            "1.2.3",
            "1e",
            "nan",
            "{\"a\":1} trailing",
            "\u{0001}",
        ] {
            let e = parse(bad).expect_err(bad);
            assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn depth_bomb_is_rejected() {
        let bomb = "[".repeat(200) + &"]".repeat(200);
        let e = parse(&bomb).unwrap_err();
        assert!(e.message.contains("deep"), "{e}");
        // At the cap it still parses.
        let ok = "[".repeat(16) + &"]".repeat(16);
        parse(&ok).unwrap();
    }

    #[test]
    fn compact_writer_round_trips() {
        let v = Json::Obj(vec![
            ("id".into(), Json::Str("a\"b\n".into())),
            ("n".into(), Json::Num(2.5)),
            ("flag".into(), Json::Bool(false)),
            ("arr".into(), Json::Arr(vec![Json::Null, Json::Num(1.0)])),
        ]);
        let s = v.to_compact_string();
        assert!(!s.contains('\n'), "single line: {s}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact_string(), "null");
    }
}
