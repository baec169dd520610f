//! A tiny hand-rolled JSON document model.
//!
//! The observability layer emits JSONL journal lines and JSON metric
//! snapshots; since the build environment has no crates.io access, this
//! module replaces `serde_json` for the whole workspace. The read side —
//! needed by the forensics analyzer to replay journals — lives in
//! [`crate::parse`].

use std::fmt::Write as _;

/// An owned JSON document fragment.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integers; also carries unsigned values `<= i64::MAX`.
    Int(i64),
    /// Unsigned values above `i64::MAX`.
    UInt(u64),
    /// Finite floats (non-finite values render as `null`).
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// Insertion-ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Starts an object builder.
    pub fn object() -> JsonObject {
        JsonObject {
            entries: Vec::new(),
        }
    }

    /// Looks up `key` in an object; `None` for other variants or missing
    /// keys. If a key appears more than once the first entry wins.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (non-negative `Int`
    /// or `UInt`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            JsonValue::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as a float; integers widen losslessly where possible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(x) => Some(*x),
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders as a single line (JSONL-friendly).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Renders with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(x) => write_float(out, *x),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{}` gives the shortest representation that round-trips; append
        // `.0` so integral floats stay floats for strict readers.
        let mut s = format!("{x}");
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        out.push_str(&s);
    } else {
        // JSON has no NaN/Infinity.
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Fluent builder for [`JsonValue::Object`].
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// Appends one key/value pair.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> Self {
        self.entries.push((key.into(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.entries)
    }
}

impl From<JsonObject> for JsonValue {
    fn from(builder: JsonObject) -> Self {
        builder.build()
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<i32> for JsonValue {
    fn from(v: i32) -> Self {
        JsonValue::Int(v.into())
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        match i64::try_from(v) {
            Ok(i) => JsonValue::Int(i),
            Err(_) => JsonValue::UInt(v),
        }
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Int(v.into())
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::from(v as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(inner) => inner.into(),
            None => JsonValue::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_compact() {
        let doc = JsonValue::object()
            .field("name", "aqua")
            .field("replicas", 7u64)
            .field("ratio", 0.5)
            .field("tags", vec!["a", "b"])
            .field("nested", JsonValue::object().field("ok", true))
            .field("missing", Option::<u64>::None)
            .build();
        assert_eq!(
            doc.render(),
            r#"{"name":"aqua","replicas":7,"ratio":0.5,"tags":["a","b"],"nested":{"ok":true},"missing":null}"#
        );
    }

    #[test]
    fn escapes_control_and_quotes() {
        let doc = JsonValue::from("a\"b\\c\nd\u{1}");
        assert_eq!(doc.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_round_trip_and_infinities_are_null() {
        assert_eq!(JsonValue::from(2.0).render(), "2.0");
        assert_eq!(JsonValue::from(0.1).render(), "0.1");
        assert_eq!(JsonValue::from(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).render(), "null");
    }

    #[test]
    fn big_unsigned_preserved() {
        assert_eq!(JsonValue::from(u64::MAX).render(), u64::MAX.to_string());
    }

    #[test]
    fn pretty_output_is_indented() {
        let doc = JsonValue::object()
            .field("a", 1u64)
            .field("b", vec![1u64, 2])
            .build();
        let pretty = doc.render_pretty();
        assert!(pretty.contains("\n  \"a\": 1"), "got: {pretty}");
        assert!(pretty.ends_with('}'));
    }
}
