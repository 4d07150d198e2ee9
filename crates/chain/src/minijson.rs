//! A minimal JSON reader/writer for the workspace's `BENCH_*.json`
//! artifacts and solver trace streams.
//!
//! The workspace has no JSON dependency (it builds offline), and the
//! bench exports are machine-written with a known shape, so a
//! small recursive-descent parser covering the full JSON grammar is all
//! `bench_compare` needs. It accepts exactly the JSON grammar — strict
//! number forms (no `1.`, `01` or empty exponents), exactly four hex
//! digits per `\u` escape, paired surrogates — and reports errors by
//! byte offset. Plain integer tokens are preserved exactly
//! ([`Value::Integer`], full `u64`/`i64` range): the job-server wire
//! format carries 64-bit seeds that an `f64` payload would silently
//! round above 2^53. The matching emitter is [`Value`]'s
//! [`Display`](fmt::Display) impl: compact (no insignificant
//! whitespace), escapes only what JSON requires, and writes non-finite
//! numbers as `null` so every emitted document re-parses.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Objects keep their keys sorted (`BTreeMap`), so
/// iteration order is deterministic.
///
/// Numbers come in two shapes: [`Integer`](Value::Integer) for number
/// tokens with no fraction or exponent (exact up to the full `u64`/`i64`
/// range — an `f64` payload would silently round above 2^53, fatal for
/// 64-bit job seeds), and [`Number`](Value::Number) for everything else.
/// [`as_f64`](Value::as_f64) reads both, so float-oriented consumers
/// never need to distinguish them.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number written with a fraction or exponent (or too large for
    /// `i128`), carried as `f64`.
    Number(f64),
    /// A number written as a plain integer, carried exactly. `i128`
    /// spans both `i64` and `u64` without a sign compromise.
    Integer(i128),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys sorted.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Builds an object from key/value pairs (a repeated key keeps its
    /// last value).
    pub fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// Wraps a `u64` losslessly (e.g. a 64-bit chain seed).
    pub fn from_u64(n: u64) -> Value {
        Value::Integer(n as i128)
    }

    /// Wraps an `i64` losslessly.
    pub fn from_i64(n: i64) -> Value {
        Value::Integer(n as i128)
    }

    /// The value under `key`, when this is an object holding one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number of either shape
    /// (integers convert with `as f64`, rounding above 2^53 — use
    /// [`as_u64`](Self::as_u64)/[`as_i64`](Self::as_i64) where the low
    /// bits matter).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Integer(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The exact unsigned payload, when this is an integer in `u64`
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Integer(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The exact signed payload, when this is an integer in `i64`
    /// range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key→value map, when this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Number(n) if n.is_finite() => write!(f, "{n}"),
            // JSON has no NaN/Infinity literal; emit null so the
            // document stays parseable.
            Value::Number(_) => f.write_str("null"),
            Value::Integer(n) => write!(f, "{n}"),
            Value::String(s) => write_escaped(f, s),
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
            Value::Object(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\u{0008}' => f.write_str("\\b")?,
            '\u{000C}' => f.write_str("\\f")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure: what was expected and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
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
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            let scalar = match code {
                                // High surrogate: a low surrogate escape
                                // must follow to form one supplementary
                                // character.
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err(
                                            self.error("high surrogate not followed by \\u escape")
                                        );
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(
                                            self.error("high surrogate not followed by \\u escape")
                                        );
                                    }
                                    self.pos += 1;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.error(
                                            "high surrogate followed by non-low surrogate",
                                        ));
                                    }
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.error("lone low surrogate in \\u escape"))
                                }
                                _ => code,
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.error("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (cursor already past
    /// the `u`) and returns the code unit. Exactly four ASCII hex
    /// digits are required: delegating straight to `from_str_radix`
    /// would also accept a sign (`"\u+041"`), which JSON forbids.
    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut code = 0u32;
        for &b in hex {
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.error("bad \\u escape")),
            };
            code = (code << 4) | u32::from(digit);
        }
        self.pos += 4;
        Ok(code)
    }

    /// Scans one number token, enforcing the JSON grammar
    /// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`): a digit is
    /// required after `.` and after the exponent marker, and a leading
    /// zero cannot be followed by more digits. Leaning on the f64
    /// parser alone would admit `1.`, `01` and `1.e5`.
    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.error("leading zeros are not allowed"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected a digit")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        // Plain integers keep their exact value (`f64` rounds above
        // 2^53); outlandishly long digit strings past `i128` fall back
        // to the nearest f64, like every JSON reader with finite
        // precision.
        if integral {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Value::Integer(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Integer(42));
        assert_eq!(parse("-3.5e2").unwrap(), Value::Number(-350.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Value::String("a\nbA".to_string())
        );
    }

    #[test]
    fn number_grammar_accept_reject_table() {
        // Accepted: exactly the JSON number grammar.
        for (text, expect) in [
            ("0", Value::Integer(0)),
            ("-0", Value::Integer(0)),
            ("10", Value::Integer(10)),
            ("-250", Value::Integer(-250)),
            ("0.5", Value::Number(0.5)),
            ("1.25", Value::Number(1.25)),
            ("1e3", Value::Number(1000.0)),
            ("1E3", Value::Number(1000.0)),
            ("1e+3", Value::Number(1000.0)),
            ("2.5e-1", Value::Number(0.25)),
            ("0e0", Value::Number(0.0)),
        ] {
            assert_eq!(parse(text).unwrap(), expect, "on {text:?}");
        }
        // Rejected: common non-JSON forms the old scanner let the f64
        // parser rescue (or mis-handle).
        for bad in [
            "1.", "01", "007", "-01", ".5", "-.5", "1.e5", "1e", "1e+", "1E-", "+1", "-", "--1",
            "0x1f", "1_000", "NaN", "Infinity",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // The same forms nested in structures are rejected too.
        for bad in ["[01]", "{\"a\": 1.}", "[1, 2.e1]"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_round_trip_exactly_at_u64_and_i64_extremes() {
        for n in [0u64, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let doc = Value::from_u64(n);
            let back = parse(&doc.to_string()).unwrap();
            assert_eq!(back.as_u64(), Some(n), "u64 {n} must survive the wire");
        }
        for n in [i64::MIN, -1, i64::MAX] {
            let doc = Value::from_i64(n);
            let back = parse(&doc.to_string()).unwrap();
            assert_eq!(back.as_i64(), Some(n), "i64 {n} must survive the wire");
        }
        // The motivating failure: a 64-bit seed through an f64 payload
        // loses the low bits; through Integer it does not.
        assert_ne!(((1u64 << 63) + 1) as f64 as u64, (1u64 << 63) + 1);
        let seed = parse("18446744073709551615").unwrap();
        assert_eq!(seed, Value::Integer(u64::MAX as i128));
        assert_eq!(seed.as_u64(), Some(u64::MAX));
        // Fractions/exponents stay floats; integers beyond i128 degrade
        // to the nearest f64 rather than failing.
        assert_eq!(parse("42.0").unwrap(), Value::Number(42.0));
        assert!(matches!(
            parse("340282366920938463463374607431768211457").unwrap(),
            Value::Number(_)
        ));
        // Out-of-range accessors answer None instead of wrapping.
        assert_eq!(Value::Integer(-1).as_u64(), None);
        assert_eq!(Value::Integer(u64::MAX as i128).as_i64(), None);
        assert_eq!(Value::Number(7.0).as_u64(), None);
    }

    #[test]
    fn hex_escape_requires_exactly_four_hex_digits() {
        // The regression: `u32::from_str_radix` tolerates a sign, so
        // `"\u+041"` used to parse as 'A'.
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u00 1""#,
            r#""\u00g1""#,
            r#""\u004""#,
            r#""\u""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse(r#""\u0041""#).unwrap(),
            Value::String("A".into()),
            "the well-formed escape still decodes"
        );
        assert_eq!(
            parse("\"\\uFFfd\"").unwrap(),
            Value::String("\u{FFFD}".into()),
            "mixed-case hex digits are fine"
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc =
            parse(r#"{"results": [{"config": "a", "ns": 1.5}, {"config": "b"}], "n": 2}"#).unwrap();
        let results = doc.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("config").and_then(Value::as_str), Some("a"));
        assert_eq!(results[0].get("ns").and_then(Value::as_f64), Some(1.5));
        assert_eq!(doc.get("n").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "1 2", "\"unterminated", "nul"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn decodes_surrogate_pairs() {
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("😀".to_string()));
        assert_eq!(
            parse(r#""a𝄞b""#).unwrap(),
            Value::String("a\u{1D11E}b".to_string()),
            "G clef, mixed with ASCII neighbours"
        );
    }

    #[test]
    fn rejects_lone_and_malformed_surrogates() {
        for bad in [
            r#""\uD83D""#,       // lone high at end of string
            r#""\uD83Dx""#,      // high followed by plain char
            r#""\uD83D\n""#,     // high followed by non-u escape
            r#""\uD83D\uD83D""#, // high followed by another high
            r#""\uDE00""#,       // lone low
            r#""\uD83D\uDE0""#,  // truncated low
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn emits_compact_json_that_reparses() {
        let doc = parse(r#"{"name": "träce \"x\"", "vals": [1, -2.5, null, true], "emoji": "😀"}"#)
            .unwrap();
        let emitted = doc.to_string();
        assert!(!emitted.contains(": "), "emitter must be compact");
        assert_eq!(parse(&emitted).unwrap(), doc, "write→read round trip");
    }

    #[test]
    fn emitter_escapes_and_nulls_non_finite() {
        let mut map = BTreeMap::new();
        map.insert(
            "s".to_string(),
            Value::String("a\"b\\c\n\u{0001}".to_string()),
        );
        map.insert("nan".to_string(), Value::Number(f64::NAN));
        map.insert("inf".to_string(), Value::Number(f64::INFINITY));
        let doc = Value::Object(map);
        let emitted = doc.to_string();
        assert_eq!(emitted, r#"{"inf":null,"nan":null,"s":"a\"b\\c\n\u0001"}"#);
        let back = parse(&emitted).unwrap();
        assert_eq!(back.get("nan"), Some(&Value::Null));
        assert_eq!(
            back.get("s").and_then(Value::as_str),
            Some("a\"b\\c\n\u{0001}")
        );
    }

    #[test]
    fn roundtrips_the_kernel_bench_shape() {
        let doc = parse(concat!(
            "{\n  \"benchmark\": \"site_kernel\",\n  \"host_cores\": 8,\n",
            "  \"results\": [\n",
            "    {\"config\": \"binary/M8\", \"naive_ns_per_site\": 253.43, ",
            "\"fused_ns_per_site\": 106.23, \"speedup\": 2.386}\n  ]\n}\n"
        ))
        .unwrap();
        let results = doc.get("results").and_then(Value::as_array).unwrap();
        let entry = results[0].as_object().unwrap();
        assert_eq!(entry["config"].as_str(), Some("binary/M8"));
        assert_eq!(entry["fused_ns_per_site"].as_f64(), Some(106.23));
    }
}
