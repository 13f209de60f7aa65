//! Minimal JSON support for recording experiment provenance.
//!
//! The workspace builds fully offline, so instead of serde this module
//! provides a small JSON value type, a writer, a parser, and the
//! [`ToJson`]/[`FromJson`] traits that config and summary types
//! implement by hand. The emitted format matches what serde produced in
//! earlier revisions (externally tagged enums, struct-as-object), so
//! previously recorded `results/*.config.json` files stay readable.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close, colon) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * (depth + 1)),
                " ".repeat(w * depth),
                ": ",
            ),
            None => ("", String::new(), String::new(), ":"),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_string(out, k);
                    out.push_str(colon);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (with byte offset) on malformed
    /// input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl std::fmt::Display for Json {
    /// Serializes compactly; use [`Json::to_string_pretty`] for
    /// indented output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // `{}` prints the shortest representation that round-trips.
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"') | Some(b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // surrogate pairs are not needed for our data
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                None => return Err("unterminated string".to_string()),
                _ => unreachable!(),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

/// Types that can be reconstructed from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parse from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first field that failed.
    fn from_json(value: &Json) -> Result<Self, String>;
}

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, String> {
                value
                    .as_f64()
                    .map(|x| x as $t)
                    .ok_or_else(|| "expected number".to_string())
            }
        }
    )*};
}
num_to_json!(f64, u8, u16, u32, u64, usize);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, String> {
        value.as_bool().ok_or_else(|| "expected bool".to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, String> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// Fetch and parse a required object field.
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn field<T: FromJson>(obj: &Json, key: &str) -> Result<T, String> {
    let v = obj
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    T::from_json(v).map_err(|e| format!("field {key:?}: {e}"))
}

/// Fetch an optional object field (absent and `null` both map to `None`).
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn opt_field<T: FromJson>(obj: &Json, key: &str) -> Result<Option<T>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => T::from_json(v)
            .map(Some)
            .map_err(|e| format!("field {key:?}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_scalars() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Num(3.0), "3"),
            (Json::Num(0.25), "0.25"),
            (Json::Str("a\"b".into()), "\"a\\\"b\""),
        ] {
            assert_eq!(v.to_string(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn roundtrips_nested_structure() {
        let v = Json::Obj(vec![
            ("xs".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            (
                "inner".into(),
                Json::Obj(vec![("flag".into(), Json::Bool(false))]),
            ),
        ]);
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn float_precision_survives() {
        let x = 0.1 + 0.2; // a value needing full shortest-repr precision
        let v = Json::Num(x);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
    }

    #[test]
    fn field_helpers() {
        let v = Json::parse(r#"{"n": 5, "x": null}"#).unwrap();
        assert_eq!(field::<usize>(&v, "n").unwrap(), 5);
        assert_eq!(opt_field::<f64>(&v, "x").unwrap(), None);
        assert_eq!(opt_field::<f64>(&v, "missing").unwrap(), None);
        assert!(field::<usize>(&v, "missing").is_err());
        assert!(field::<bool>(&v, "n").is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\ttab \\ quote\" control\u{1}";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
