//! A dependency-free JSON subset: a flat-object writer and parser.
//!
//! All serialisation in this workspace is hand-written. Trace events and
//! the report binary only need flat objects — string, number, boolean and
//! null values, no nesting — which keeps both directions small and
//! auditable.

/// Escapes a string for embedding inside a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Incremental writer for one flat JSON object.
#[derive(Debug, Default)]
pub(crate) struct ObjectWriter {
    buf: String,
    fields: usize,
}

impl ObjectWriter {
    /// Starts an empty object.
    pub(crate) fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            fields: 0,
        }
    }

    fn key(&mut self, key: &str) {
        if self.fields > 0 {
            self.buf.push(',');
        }
        self.fields += 1;
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Appends a string field.
    pub(crate) fn str_field(&mut self, key: &str, value: &str) {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
    }

    /// Appends an unsigned integer field.
    pub(crate) fn num_field(&mut self, key: &str, value: u64) {
        self.key(key);
        self.buf.push_str(&value.to_string());
    }

    /// Appends a `null` field.
    pub(crate) fn null_field(&mut self, key: &str) {
        self.key(key);
        self.buf.push_str("null");
    }

    /// Closes the object and returns the JSON text.
    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed flat JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A JSON number (parsed as `f64`; the exporters only emit u64s that
    /// fit the f64 mantissa for the ranges this workspace produces).
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

/// Parses one flat JSON object (no nested objects, no arrays) into
/// key/value pairs, preserving order. Returns a
/// human-readable error on malformed input — the report binary surfaces
/// these verbatim.
pub fn parse_flat_object(input: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
        return p.finish(out);
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.parse_value()?;
        out.push((key, value));
        p.skip_ws();
        match p.peek() {
            Some(b',') => {
                p.pos += 1;
            }
            Some(b'}') => {
                p.pos += 1;
                return p.finish(out);
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {}, found {:?}",
                    p.pos,
                    other.map(|b| b as char)
                ))
            }
        }
    }
}

/// Looks up a string value by key in a parsed object.
pub fn get_str<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    obj.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

/// Looks up a numeric value by key in a parsed object.
pub fn get_num(obj: &[(String, Value)], key: &str) -> Option<f64> {
    obj.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Value::Num(n) => Some(*n),
            _ => None,
        })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn finish(&mut self, out: Vec<(String, Value)>) -> Result<Vec<(String, Value)>, String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(out)
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let end = start + 4;
                            let hex = self
                                .bytes
                                .get(start..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // copied verbatim).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!(
                "expected value at byte {}, found {:?}",
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
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
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip() {
        let mut w = ObjectWriter::new();
        w.str_field("ev", "migrate");
        w.num_field("seq", 12);
        w.null_field("vpage");
        let text = w.finish();
        let obj = parse_flat_object(&text).unwrap();
        assert_eq!(get_str(&obj, "ev"), Some("migrate"));
        assert_eq!(get_num(&obj, "seq"), Some(12.0));
        assert_eq!(obj[2].1, Value::Null);
    }

    #[test]
    fn escapes_survive_round_trip() {
        let mut w = ObjectWriter::new();
        w.str_field("k", "a\"b\\c\nd\te");
        let text = w.finish();
        let obj = parse_flat_object(&text).unwrap();
        assert_eq!(get_str(&obj, "k"), Some("a\"b\\c\nd\te"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_flat_object("{").is_err());
        assert!(parse_flat_object("{\"a\":}").is_err());
        assert!(parse_flat_object("{\"a\":1} trailing").is_err());
        assert!(parse_flat_object("not json").is_err());
    }

    #[test]
    fn rejects_non_flat_arrays() {
        assert!(parse_flat_object(r#"{"a":[1]}"#).is_err());
        assert!(parse_flat_object(r#"{"a":[[1]]}"#).is_err());
        assert!(parse_flat_object(r#"{"a":["x"]}"#).is_err());
        assert!(parse_flat_object(r#"{"a":[1,"#).is_err());
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#).is_err());
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_flat_object("{}").unwrap().is_empty());
        assert!(parse_flat_object("  { }  ").unwrap().is_empty());
    }
}
