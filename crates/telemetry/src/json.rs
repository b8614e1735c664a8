//! Hand-rolled JSON: a [`Value`] tree, a compact serializer
//! (`Display`), a minimal recursive-descent [`parse`]r, and JSONL
//! helpers. The workspace deliberately carries no serde; this module is
//! the single place JSON syntax is known.

use std::fmt;

/// A JSON value. Objects keep insertion order (emission is
/// deterministic), and integers stay exact — `u64` counters never round
/// through `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer, emitted exactly.
    UInt(u64),
    /// Negative-capable integer, emitted exactly.
    Int(i64),
    /// Floating-point number. Non-finite values emit as `null`.
    Float(f64),
    /// String (escaped on emission).
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object: ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Member lookup on objects (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            Value::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `i64` when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(v) => Some(v),
            Value::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Float(v) => Some(v),
            Value::UInt(v) => Some(v as f64),
            Value::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{0008}' => f.write_str("\\b")?,
            '\u{000C}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::UInt(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) if v.is_finite() => write!(f, "{v}"),
            Value::Float(_) => f.write_str("null"),
            Value::Str(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap a single hostile line of `[[[[…`
/// overflows the stack and aborts the process; real documents nest a
/// handful of levels.
pub const MAX_DEPTH: usize = 128;

/// What kind of input [`parse`] rejected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input is not well-formed JSON.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// Why [`parse`] rejected its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// What kind of problem it is.
    pub kind: ParseErrorKind,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(v)
}

/// Parses a JSONL stream: one document per non-empty line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Value>, ParseError> {
    text.lines().filter(|l| !l.trim().is_empty()).map(parse).collect()
}

/// A leniently parsed JSONL stream: the records that parsed, plus the
/// torn tail (if any) that was truncated away.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonlStream {
    /// Every record up to the first unparseable trailing line.
    pub records: Vec<Value>,
    /// Non-empty lines dropped from the tail (`0` for a clean stream).
    /// A partially flushed writer tears at most the final line, so this
    /// is normally `0` or `1`; callers surface it so a truncation never
    /// passes silently.
    pub truncated: usize,
    /// The parse error of the first dropped line, kept for reporting.
    pub tail_error: Option<ParseError>,
}

/// Parses a JSONL stream leniently: a torn *tail* is truncated and
/// reported instead of failing the whole stream.
///
/// Daemon clients replay session streams that may have been cut
/// mid-line (a killed process, a partially flushed file). Every line up
/// to the tear parses strictly — the lenience never masks corruption in
/// the middle of a stream.
///
/// # Errors
///
/// [`ParseError`] of the offending line when an unparseable line is
/// followed by a *parseable* one: that is interior corruption, not a
/// torn tail, and truncating it would silently drop records. Strict
/// consumers (tests, `verify`) should keep using [`parse_jsonl`].
pub fn parse_jsonl_lossy(text: &str) -> Result<JsonlStream, ParseError> {
    let mut records = Vec::new();
    let mut tail: Option<ParseError> = None;
    let mut truncated = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match parse(line) {
            Ok(v) => match tail {
                // A good line after a bad one is interior corruption,
                // not a torn tail: fail strictly.
                Some(err) => return Err(err),
                None => records.push(v),
            },
            Err(e) => {
                if tail.is_none() {
                    tail = Some(e);
                }
                truncated += 1;
            }
        }
    }
    Ok(JsonlStream { records, truncated, tail_error: tail })
}

/// Serializes a value as one JSONL line (no interior newlines possible:
/// the serializer escapes them).
pub fn to_jsonl_line(value: &Value) -> String {
    let mut s = value.to_string();
    s.push('\n');
    s
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, reason: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, kind: ParseErrorKind::Syntax, reason: reason.into() }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError {
                offset: self.pos,
                kind: ParseErrorKind::TooDeep,
                reason: format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("non-ascii in \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let cp = 0x10000
                                        + ((u32::from(hi) - 0xD800) << 10)
                                        + (u32::from(lo) - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.error("lone low surrogate"));
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are guaranteed valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    if (c as u32) < 0x20 {
                        return Err(self.error("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.error("expected digit"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number chars are ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "-17", "3.5", "\"hi\""] {
            let v = parse(text).expect(text);
            assert_eq!(v.to_string(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn integers_stay_exact() {
        let v = parse("18446744073709551615").expect("u64::MAX");
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = parse("-9223372036854775808").expect("i64::MIN");
        assert_eq!(v.as_i64(), Some(i64::MIN));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Value::str("a\"b\\c\nd\te\u{0008}\u{000C}\u{0001}§λ");
        let text = original.to_string();
        assert_eq!(parse(&text).expect("parses"), original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""§""#).unwrap(), Value::str("§"));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(parse(r#""😀""#).unwrap(), Value::str("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":true},"e":[]}"#;
        let v = parse(text).expect("parses");
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("c").and_then(|c| c.get("d")).and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(Value::as_array).map(<[Value]>::len), Some(3));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "01x",
            "\"unterminated",
            "{\"a\":1} extra",
            "[1 2]",
            "nul",
        ] {
            assert!(parse(text).is_err(), "should reject {text:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error_not_a_stack_overflow() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert_eq!(err.offset, MAX_DEPTH);
        // Unterminated and far deeper: still the typed error, at once.
        let hostile = format!("{{\"type\":\"submit\",\"x\":{}", "[".repeat(1_000_000));
        assert_eq!(parse(&hostile).unwrap_err().kind, ParseErrorKind::TooDeep);
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&objects).unwrap_err().kind, ParseErrorKind::TooDeep);
        assert_eq!(parse("[1,]").unwrap_err().kind, ParseErrorKind::Syntax);
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Value::Float(f64::NAN).to_string(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn jsonl_streams_parse_per_line() {
        let stream = "{\"trial\":0}\n\n{\"trial\":1}\n";
        let docs = parse_jsonl(stream).expect("parses");
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[1].get("trial").and_then(Value::as_u64), Some(1));
        let line = to_jsonl_line(&docs[0]);
        assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
    }

    #[test]
    fn jsonl_empty_stream_parses_to_nothing() {
        assert_eq!(parse_jsonl("").expect("empty"), vec![]);
        assert_eq!(parse_jsonl("\n\n  \n").expect("blank lines"), vec![]);
    }

    #[test]
    fn jsonl_truncated_final_line_is_an_error() {
        // A crashed writer leaves a half-record on the last line; the
        // stream as a whole must be rejected, not silently shortened.
        let stream = "{\"trial\":0}\n{\"trial\":1,\"cyc";
        let err = parse_jsonl(stream).expect_err("truncated record");
        assert!(err.reason.contains("unterminated") || err.reason.contains("expected"), "{err}");
    }

    #[test]
    fn jsonl_interleaved_non_json_is_an_error() {
        let stream = "{\"trial\":0}\nlog: something human-readable\n{\"trial\":1}\n";
        assert!(parse_jsonl(stream).is_err());
        // Same stream with the stray line removed parses fine.
        let clean = "{\"trial\":0}\n{\"trial\":1}\n";
        assert_eq!(parse_jsonl(clean).expect("clean stream").len(), 2);
    }

    #[test]
    fn lossy_jsonl_truncates_and_reports_a_torn_tail() {
        // The same half-flushed stream the strict parser rejects: the
        // lenient parser keeps the complete records and surfaces the
        // drop count so a replaying daemon client degrades gracefully.
        let stream = "{\"trial\":0}\n{\"trial\":1}\n{\"trial\":2,\"cyc";
        let out = parse_jsonl_lossy(stream).expect("lenient parse");
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[1].get("trial").and_then(Value::as_u64), Some(1));
        assert_eq!(out.truncated, 1);
        assert!(out.tail_error.is_some());
        // Strict mode still refuses the same stream.
        assert!(parse_jsonl(stream).is_err());
    }

    #[test]
    fn lossy_jsonl_passes_clean_streams_through() {
        let clean = "{\"trial\":0}\n{\"trial\":1}\n";
        let out = parse_jsonl_lossy(clean).expect("clean stream");
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.truncated, 0);
        assert!(out.tail_error.is_none());
        let empty = parse_jsonl_lossy("\n \n").expect("blank stream");
        assert!(empty.records.is_empty() && empty.truncated == 0);
    }

    #[test]
    fn lossy_jsonl_still_rejects_interior_corruption() {
        // A bad line *followed by a good one* is not a torn tail — the
        // lenience must not silently drop records from the middle.
        let stream = "{\"trial\":0}\nlog: human noise\n{\"trial\":1}\n";
        let err = parse_jsonl_lossy(stream).expect_err("interior corruption");
        assert!(!err.reason.is_empty());
    }

    #[test]
    fn object_lookup_misses_cleanly() {
        let v = parse(r#"{"a":1}"#).unwrap();
        assert!(v.get("missing").is_none());
        assert!(Value::Null.get("a").is_none());
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(1.0));
    }
}
