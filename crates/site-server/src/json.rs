//! A minimal JSON value, writer, and recursive-descent parser.
//!
//! The query surface is line-delimited JSON and the workspace is
//! offline (no serde_json), so this module implements exactly the
//! subset the RPC layer needs: the six JSON value kinds, strict parsing
//! with a recursion-depth cap, and escaping that keeps every document
//! on one line (control characters are `\u` escaped, so newline framing
//! stays unambiguous — the same discipline as the XML wire writer).
//!
//! Every malformed input is a typed [`JsonError`]; the parser faces
//! untrusted client bytes and must never panic.

use std::fmt;

/// Maximum nesting depth the parser accepts. Query documents are flat;
/// the cap exists so hostile input cannot exhaust the stack.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON document.
    ///
    /// # Errors
    ///
    /// [`NonFiniteNumber`] if any number in the document is NaN or
    /// infinite. JSON has no spelling for those values; the old writer
    /// emitted `NaN`/`inf` via `format!` (an unparseable document on
    /// the wire), so serialization now refuses them with a typed error
    /// the RPC layer can turn into an honest error frame.
    pub fn to_json(&self) -> Result<String, NonFiniteNumber> {
        let mut out = String::new();
        self.write(&mut out)?;
        Ok(out)
    }

    fn write(&self, out: &mut String) -> Result<(), NonFiniteNumber> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if !n.is_finite() {
                    return Err(NonFiniteNumber { value: *n });
                }
                out.push_str(&format!("{n}"));
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out)?;
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parses one JSON document, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for any syntax violation, over-deep
    /// nesting, or bytes after the document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::at(parser.pos, "trailing bytes after document"));
        }
        Ok(value)
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// A document that cannot be serialized: it contains a NaN or
/// infinite number, which JSON has no spelling for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFiniteNumber {
    /// The offending value.
    pub value: f64,
}

impl fmt::Display for NonFiniteNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "non-finite number {} cannot be serialized as JSON",
            self.value
        )
    }
}

impl std::error::Error for NonFiniteNumber {}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub detail: String,
}

impl JsonError {
    fn at(at: usize, detail: impl Into<String>) -> Self {
        Self {
            at,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                self.pos,
                format!("expected {:?}", expected as char),
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("expected {text}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::at(
                self.pos,
                format!("unexpected byte {:?}", other as char),
            )),
            None => Err(JsonError::at(self.pos, "unexpected end of document")),
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
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
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
                                .and_then(|b| std::str::from_utf8(b).ok())
                                .ok_or_else(|| JsonError::at(start, "short \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::at(start, "bad \\u escape"))?;
                            // Surrogates are rejected rather than paired:
                            // the wire protocol never emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| JsonError::at(start, "non-scalar \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at(start, "unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(JsonError::at(self.pos, "raw control character in string"));
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // backslash or control byte in one step. All three
                    // are ASCII, so the run of a `&str` ends on a char
                    // boundary and is valid UTF-8 on its own.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    let end = self.pos + run;
                    let plain = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| JsonError::at(self.pos, "invalid UTF-8 in string"))?;
                    out.push_str(plain);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at(start, "invalid number bytes"))?;
        let value: f64 = text
            .parse()
            .map_err(|_| JsonError::at(start, format!("bad number {text:?}")))?;
        if !value.is_finite() {
            return Err(JsonError::at(start, "non-finite number"));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    #[test]
    fn round_trips_structured_documents() {
        let doc = Json::Obj(vec![
            ("token".into(), Json::Str("s3cr3t".into())),
            ("method".into(), Json::Str("location_of".into())),
            (
                "params".into(),
                Json::Obj(vec![("epc".into(), Json::Str("AA00".into()))]),
            ),
            ("n".into(), Json::Num(2.5)),
            ("flag".into(), Json::Bool(true)),
            (
                "list".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Str("x".into())]),
            ),
        ]);
        let text = doc.to_json().expect("finite document");
        assert!(!text.contains('\n'), "one frame per line: {text:?}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn strings_with_control_characters_stay_single_line() {
        let doc = Json::Str("a\nb\r\tc\u{1}\"quoted\"\\slash".into());
        let text = doc.to_json().expect("finite document");
        assert!(text.chars().all(|c| !c.is_control()), "{text:?}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn unicode_round_trips() {
        let doc = Json::Str("zoné-λ-📦".into());
        assert_eq!(Json::parse(&doc.to_json().expect("finite")).unwrap(), doc);
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "01x",
            "{\"a\":1}garbage",
            "nan",
            "\"\\q\"",
            "\"\\u12\"",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_cap_rejects_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).expect_err("over-deep");
        assert!(err.to_string().contains("deep"));
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_numbers_are_typed_serialization_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Json::Num(bad).to_json().expect_err("must refuse");
            assert!(err.to_string().contains("non-finite"), "{err}");
            // Nested occurrences are caught too, not just top level.
            let nested = Json::Obj(vec![(
                "rows".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(bad)]),
            )]);
            let err = nested.to_json().expect_err("nested must refuse");
            assert_eq!(err.value.to_bits(), bad.to_bits());
        }
        assert!(Json::Num(1.5e308).to_json().is_ok(), "finite extremes pass");
    }

    #[test]
    fn accessors_cover_the_rpc_shapes() {
        let doc = Json::parse(r#"{"ok":true,"zone":2,"name":"dock"}"#).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("zone").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("dock"));
        assert!(doc.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }

    #[test]
    fn long_multibyte_strings_parse_in_linear_time() {
        // The server parses a request line before it checks the token,
        // so a line up to the 64 KiB cap must parse in time linear in
        // its length, whatever characters it holds.
        let token = "é".repeat(32_000);
        let line = format!(r#"{{"token":"{token}","method":"counters"}}"#);
        let started = Instant::now();
        let doc = Json::parse(&line).expect("valid document");
        let elapsed = started.elapsed();
        assert_eq!(
            doc.get("token").and_then(Json::as_str),
            Some(token.as_str())
        );
        assert!(elapsed < Duration::from_millis(100), "took {elapsed:?}");
    }

    /// String text: printable ASCII (quotes and backslashes included),
    /// every control character, and multi-byte characters.
    const TEXT: &str = "[ -~\u{0}-\u{1f}\u{7f}\u{85}\u{2028}éλ📦]{0,16}";

    fn arb_leaf() -> impl Strategy<Value = Json> {
        prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<f64>().prop_map(Json::Num),
            (0usize..6)
                .prop_map(|i| Json::Num([-0.0, 5e-324, 1e-300, 1e300, f64::MAX, -f64::MAX][i])),
            TEXT.prop_map(Json::Str),
        ]
    }

    /// Documents up to four containers deep, wrapped in up to
    /// `MAX_DEPTH - 4` more, so the deepest reach the cap exactly.
    fn arb_json() -> impl Strategy<Value = Json> {
        let tree = arb_leaf().prop_recursive(4, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
                proptest::collection::vec((TEXT, inner), 0..4).prop_map(Json::Obj),
            ]
        });
        (tree, 0..=MAX_DEPTH - 4, any::<u32>()).prop_map(|(mut doc, wraps, kinds)| {
            for level in 0..wraps {
                doc = if (kinds >> level) & 1 == 0 {
                    Json::Arr(vec![doc])
                } else {
                    Json::Obj(vec![("k".into(), doc)])
                };
            }
            doc
        })
    }

    proptest! {
        /// Arbitrary text parses or fails with a typed error; it never
        /// panics.
        #[test]
        fn parse_never_panics(input in "[ -~\u{0}-\u{1f}\u{7f}éλ📦]{0,128}") {
            let _ = Json::parse(&input);
        }

        /// Quote, brace, bracket and backslash soup: still no panics.
        #[test]
        fn parse_survives_delimiter_soup(input in "[\"{}\\[\\]\\\\:,0-9eE.+\\-ntrfalsu ]{0,128}") {
            let _ = Json::parse(&input);
        }

        /// Every document the writer serializes parses back to itself.
        #[test]
        fn written_documents_parse_back(doc in arb_json()) {
            let text = doc.to_json().expect("finite document");
            prop_assert!(!text.contains('\n'), "{:?}", text);
            prop_assert_eq!(Json::parse(&text).expect("own output parses"), doc);
        }
    }
}
