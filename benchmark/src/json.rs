//! A small JSON value: enough to read `weather.json`, `manifest.json` and the
//! benchmark's own results files, and to write the latter. Kept inside the
//! benchmark so that no JSON code of the repository is part of its frozen
//! surface.

use crate::error::{BenchError, Result};
use std::fmt::Write;

/// A parsed JSON document. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers up to 2^53 are exact.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

/// Nesting limit: hostile input cannot overflow the parser's stack.
const MAX_DEPTH: usize = 64;

impl Value {
    /// Parse a complete document; `what` names it in the error.
    pub fn parse(what: &str, text: &str) -> Result<Value> {
        let mut p = Parser {
            what,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a count, if it is a non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15)
            .map(|n| n as u64)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Required numeric member of an object; `what` names the document.
    pub fn need_f64(&self, what: &str, key: &str) -> Result<f64> {
        self.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| BenchError::parse(what, format!("missing number \"{key}\"")))
    }

    /// Required count member of an object.
    pub fn need_u64(&self, what: &str, key: &str) -> Result<u64> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| BenchError::parse(what, format!("missing count \"{key}\"")))
    }

    /// Required string member of an object.
    pub fn need_str<'a>(&'a self, what: &str, key: &str) -> Result<&'a str> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| BenchError::parse(what, format!("missing string \"{key}\"")))
    }

    /// Required array member of an object.
    pub fn need_arr<'a>(&'a self, what: &str, key: &str) -> Result<&'a [Value]> {
        self.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| BenchError::parse(what, format!("missing array \"{key}\"")))
    }

    /// Render on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render indented, two spaces per level, with a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let newline = |out: &mut String, level: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * level));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN or infinity; a reader sees a missing number.
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            // Arrays of scalars (sample lists) stay on one line.
            Value::Arr(items) => {
                let flat = items
                    .iter()
                    .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)));
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat && indent.is_some() { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, level + 1);
                    }
                    v.write(out, indent, level + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, level);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, level + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, level + 1);
                }
                if !members.is_empty() {
                    newline(out, level);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Build an object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

struct Parser<'a> {
    what: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: &str) -> BenchError {
        BenchError::parse(self.what, format!("{detail} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&byte);
        self.pos += hit as usize;
        hit
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.eat(b']') {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                if self.eat(b'}') {
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return Err(self.err("expected a member name"));
                    }
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(self.err("expected ':'"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    if self.eat(b'}') {
                        return Ok(Value::Obj(members));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| self.err("expected a value"))
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote, checked by the caller
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate halves cannot stand alone; the files
                            // read here never contain them.
                            let c = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WEATHER: &str = r#"{
  "schema": "halfback-weather-v1",
  "scheme": "TCP",
  "flows_started": 219118,
  "fct_ms_mean": 129.672,
  "machine": { "rss_mb": 80 }
}"#;

    #[test]
    fn reads_the_documents_the_benchmark_reads() {
        let v = Value::parse("weather.json", WEATHER).unwrap();
        assert_eq!(v.need_u64("w", "flows_started").unwrap(), 219_118);
        assert_eq!(v.need_f64("w", "fct_ms_mean").unwrap(), 129.672);
        assert_eq!(v.need_str("w", "scheme").unwrap(), "TCP");
        assert!(v.need_u64("w", "fct_ms_mean").is_err(), "not a count");
        assert!(v.need_u64("w", "absent").is_err());
    }

    #[test]
    fn round_trips_through_both_renderings() {
        let v = obj([
            ("name", "a \"quoted\"\nline".into()),
            ("n", 3u64.into()),
            ("x", 0.125.into()),
            ("ok", true.into()),
            ("none", Value::Null),
            ("samples", Value::Arr(vec![1.5.into(), 2.5.into()])),
            ("nested", Value::Arr(vec![obj([("k", Value::Arr(vec![]))])])),
            ("empty", obj([])),
        ]);
        assert_eq!(Value::parse("t", &v.render()).unwrap(), v);
        assert_eq!(Value::parse("t", &v.render_pretty()).unwrap(), v);
        assert!(!v.render().contains('\n'));
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        for n in 0..WEATHER.len() {
            if WEATHER.is_char_boundary(n) {
                assert!(
                    Value::parse("weather.json", &WEATHER[..n]).is_err(),
                    "prefix of {n} bytes parsed"
                );
            }
        }
    }

    #[test]
    fn hostile_documents_are_errors() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1}x",
            "nul",
            "\"\\q\"",
            "\"\\u12\"",
            "1e999",
            "--",
            "{1:2}",
        ] {
            assert!(Value::parse("t", bad).is_err(), "'{bad}' parsed");
        }
        let deep = "[".repeat(10_000);
        assert!(Value::parse("t", &deep).is_err());
    }
}
