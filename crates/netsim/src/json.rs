//! The one JSON writer and reader: every artifact a run writes as JSON —
//! `manifest.json`, `weather.json`, the `--telemetry` and trace JSONL
//! files, the bench baselines — goes through [`Writer`], and every check
//! that reads one back goes through [`parse`]. Escaping, separators and
//! number text live here and nowhere else.
//!
//! No serde in this workspace, and the artifacts need only a subset:
//! objects, arrays, strings, finite numbers and booleans (the parser also
//! reads `null`). A container is
//! either pretty-printed with two-space indentation, so committed documents
//! diff cleanly, or written on one line with no spaces (`obj_line` /
//! `arr_line`): a JSONL record, or an inline value inside a pretty document
//! that a checker strips as one line. The parser is a small recursive-descent
//! reader for the same subset, with standard escape handling.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number; integers above 2^53 lose their low bits.
    Number(f64),
    /// A string, escapes decoded.
    String(String),
    /// An array, in document order.
    Array(Vec<Value>),
    /// BTreeMap keeps key order deterministic when re-serialized.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` for any other variant.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer. Usage follows the document structure:
///
/// ```
/// let mut w = netsim::json::Writer::new();
/// w.obj(|w| {
///     w.key("name").str("engine");
///     w.key("values").arr_line(|w| {
///         w.elem().u64(1);
///         w.elem().fixed(2.5, 3);
///     });
/// });
/// assert_eq!(w.finish(), "{\n  \"name\": \"engine\",\n  \"values\": [1,2.500]\n}\n");
/// ```
pub struct Writer {
    out: String,
    /// One entry per open container: whether it has a member yet (a comma
    /// is due before the next), and whether it is written on one line.
    open: Vec<(bool, bool)>,
}

impl Writer {
    /// An empty document; write one value into it.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Writer {
        Writer {
            out: String::new(),
            open: Vec::new(),
        }
    }

    /// Whether the innermost open container is written on one line.
    fn on_one_line(&self) -> bool {
        self.open.last().is_some_and(|&(_, line)| line)
    }

    fn begin_member(&mut self) {
        let depth = self.open.len();
        if let Some((has_member, line)) = self.open.last_mut() {
            if *has_member {
                self.out.push(',');
            }
            *has_member = true;
            if !*line {
                self.newline_at(depth);
            }
        }
    }

    fn newline_at(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn container(&mut self, line: bool, brackets: [char; 2], f: impl FnOnce(&mut Writer)) {
        let line = line || self.on_one_line();
        self.out.push(brackets[0]);
        self.open.push((false, line));
        f(self);
        let (has_member, _) = self.open.pop().expect("container is open");
        if has_member && !line {
            self.newline_at(self.open.len());
        }
        self.out.push(brackets[1]);
    }

    /// Start an object member; follow with one value call (`str`/`num`/...).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.begin_member();
        write_escaped(&mut self.out, k);
        self.out
            .push_str(if self.on_one_line() { ":" } else { ": " });
        self
    }

    /// Start an array element; follow with one value call.
    pub fn elem(&mut self) -> &mut Self {
        self.begin_member();
        self
    }

    /// Write an object value, one member a line; `f` fills in its members
    /// via [`Writer::key`]. Inside a one-line container it is one line too.
    pub fn obj(&mut self, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(false, ['{', '}'], f);
        self
    }

    /// Write an array value, one element a line; `f` fills in its elements
    /// via [`Writer::elem`]. Inside a one-line container it is one line too.
    pub fn arr(&mut self, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(false, ['[', ']'], f);
        self
    }

    /// [`Writer::obj`] on one line, with no spaces.
    pub fn obj_line(&mut self, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(true, ['{', '}'], f);
        self
    }

    /// [`Writer::arr`] on one line, with no spaces.
    pub fn arr_line(&mut self, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(true, ['[', ']'], f);
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        write_escaped(&mut self.out, s);
        self
    }

    /// The shortest text that reads back as `n`: integers print without a
    /// trailing `.0`. Finite numbers only.
    pub fn num(&mut self, n: f64) -> &mut Self {
        assert!(n.is_finite(), "non-finite number in JSON: {n}");
        let _ = write!(self.out, "{n}");
        self
    }

    /// `n` with exactly `digits` decimals. Finite numbers only.
    pub fn fixed(&mut self, n: f64, digits: usize) -> &mut Self {
        assert!(n.is_finite(), "non-finite number in JSON: {n}");
        let _ = write!(self.out, "{n:.digits$}");
        self
    }

    /// An exact integer (a count, an instant in nanoseconds).
    pub fn u64(&mut self, n: u64) -> &mut Self {
        let _ = write!(self.out, "{n}");
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// The document text, with a trailing newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse a JSON document. Errors carry a byte offset and a short message.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items between `open` and `close`, each read
    /// by `item`.
    fn items(
        &mut self,
        [open, close]: [u8; 2],
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        let mut map = BTreeMap::new();
        self.items([b'{', b'}'], |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Value::Object(map))
    }

    fn array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.items([b'[', b']'], |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // output; map them to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape: both are
                    // ASCII, so the run ends on a char boundary of the input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]);
                    s.push_str(run.expect("input is a &str"));
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_nested_document() {
        let mut w = Writer::new();
        w.obj(|w| {
            w.key("name").str("a \"quoted\"\nname");
            w.key("n").num(42.0);
            w.key("pi").num(3.25);
            w.key("flag").bool(true);
            w.key("list").arr(|w| {
                w.elem().num(1.0);
                w.elem().obj(|w| {
                    w.key("x").num(-2.5);
                });
                w.elem().arr(|_| {});
            });
        });
        let text = w.finish();
        let v = parse(&text).expect("parses");
        assert_eq!(
            v.get("name"),
            Some(&Value::String("a \"quoted\"\nname".to_string()))
        );
        assert_eq!(v.get("n"), Some(&Value::Number(42.0)));
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        match v.get("list") {
            Some(Value::Array(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[1].get("x"), Some(&Value::Number(-2.5)));
                assert_eq!(items[2], Value::Array(Vec::new()));
            }
            other => panic!("bad list: {other:?}"),
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut w = Writer::new();
        w.str("a\"b\\c\nd\te\rf\u{1}");
        assert_eq!(w.finish(), "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001\"\n");
    }

    #[test]
    fn line_containers_have_no_spaces_and_nest_on_their_line() {
        let mut w = Writer::new();
        w.obj(|w| {
            w.key("schemes").arr_line(|w| {
                w.elem().str("TCP");
                w.elem().str("Halfback");
            });
            w.key("machine").obj_line(|w| {
                w.key("jobs").u64(2);
                w.key("wall").obj(|w| {
                    w.key("ns").u64(u64::MAX);
                });
                w.key("empty").arr(|_| {});
            });
            w.key("figures").arr(|_| {});
        });
        assert_eq!(
            w.finish(),
            "{\n  \"schemes\": [\"TCP\",\"Halfback\"],\n  \"machine\": \
             {\"jobs\":2,\"wall\":{\"ns\":18446744073709551615},\"empty\":[]},\n  \
             \"figures\": []\n}\n"
        );
    }

    #[test]
    fn numbers_print_shortest_or_fixed() {
        let mut w = Writer::new();
        w.arr_line(|w| {
            w.elem().num(0.3);
            w.elem().num(1.0);
            w.elem().num(1e16);
            w.elem().fixed(35.0 / 69.0, 4);
            w.elem().fixed(2.0, 1);
            w.elem().fixed(1.25, 3);
        });
        assert_eq!(w.finish(), "[0.3,1,10000000000000000,0.5072,2.0,1.250]\n");
    }

    #[test]
    fn parser_handles_whitespace_escapes_and_exponents() {
        let v = parse(" { \"a\" : [ 1e3 , -4.5E-1, \"t\\tab\\u0041\" ] } ").unwrap();
        match v.get("a") {
            Some(Value::Array(items)) => {
                assert_eq!(items[0], Value::Number(1000.0));
                assert_eq!(items[1], Value::Number(-0.45));
                assert_eq!(items[2], Value::String("t\tabA".to_string()));
            }
            other => panic!("bad: {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nope").is_err());
    }
}
