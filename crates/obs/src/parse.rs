//! A recursive-descent JSON parser matching the writer in [`crate::json`].
//!
//! The forensics analyzer replays JSONL journals produced by this crate's
//! own writer, and the journal round-trip tests need
//! serialize → parse → identical structures. The build is air-gapped (no
//! `serde_json`), so this is the read side of the hand-rolled JSON pair.
//!
//! Numbers are mapped the same way the writer emits them: integral values
//! that fit `i64` become [`JsonValue::Int`], larger unsigned values become
//! [`JsonValue::UInt`], everything else becomes [`JsonValue::Float`] — so
//! `parse(value.render())` reproduces the original [`JsonValue`] for every
//! document the writer can produce.

use crate::json::JsonValue;

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing whitespace is allowed,
/// trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
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

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
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
            Err(self.error(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(entries)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items: Vec<JsonValue> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and the run contains no escapes,
                // so the byte slice is valid UTF-8 too.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid utf-8 in string"))?,
                );
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let unit = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: must be followed by \uXXXX low.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired high surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(code)
                        } else if (0xDC00..0xE000).contains(&unit) {
                            None
                        } else {
                            char::from_u32(unit)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.error("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut value: u32 = 0;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.error("expected 4 hex digits")),
            };
            value = value * 16 + d;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(JsonValue::Float(x)),
            _ => Err(ParseError {
                offset: start,
                message: format!("invalid number {text:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_writer_output() {
        let doc = JsonValue::object()
            .field("name", "aqua")
            .field("replicas", 7u64)
            .field("big", u64::MAX)
            .field("neg", -3i64)
            .field("ratio", 0.5)
            .field("two", 2.0)
            .field("tags", vec!["a", "b"])
            .field("nested", JsonValue::object().field("ok", true))
            .field("missing", Option::<u64>::None)
            .build();
        let parsed = parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        // Pretty output parses back to the same document too.
        assert_eq!(parse(&doc.render_pretty()).unwrap(), doc);
    }

    #[test]
    fn round_trips_escapes() {
        let doc = JsonValue::from("a\"b\\c\nd\u{1}é✓");
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn parses_surrogate_pairs() {
        assert_eq!(parse(r#""😀""#).unwrap(), JsonValue::from("\u{1F600}"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1,}"#).is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("01x").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse(r#""\ud800""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = parse(r#"{"a":{"b":[1,2.5,"x",true,null]},"n":-7}"#).unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(arr.as_array().unwrap().len(), 5);
        assert_eq!(arr.as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(arr.as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(arr.as_array().unwrap()[2].as_str(), Some("x"));
        assert_eq!(arr.as_array().unwrap()[3].as_bool(), Some(true));
        assert!(matches!(arr.as_array().unwrap()[4], JsonValue::Null));
        assert!(matches!(doc.get("n"), Some(JsonValue::Int(-7))));
        assert_eq!(doc.get("n").unwrap().as_u64(), None);
        assert!(doc.get("zzz").is_none());
    }
}
