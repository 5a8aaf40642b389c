//! Offline stand-in for `serde_json`.
//!
//! Serializes the shim `serde`'s [`Value`] tree to JSON text and parses
//! JSON text back. Conventions shared with the shim `serde`:
//!
//! - non-finite floats serialize as `null` (upstream serde_json errors
//!   instead; the workspace round-trips NaN-bearing feature histories, so
//!   `null` → NaN on the way back in is the desired behaviour here);
//! - floats print via Rust's shortest-round-trip `{:?}` formatting, with
//!   a `.0` suffix guaranteed so integers and floats stay distinguishable.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Error produced by JSON serialization or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error::new(e.to_string())
    }
}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` as a pretty-printed JSON string (two-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    Ok(T::from_value(&parse(s)?)?)
}

/// Parse one JSON document into the data model.
fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new("trailing characters after JSON value"));
    }
    Ok(value)
}

// --- printing ---

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => {
            use fmt::Write;
            let _ = write!(out, "{n}");
        }
        Value::U64(n) => {
            use fmt::Write;
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                use fmt::Write;
                // `{:?}` is shortest-round-trip; it already appends `.0`
                // for integral values, keeping the float/int distinction.
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parsing ---

/// Deepest array/object nesting [`from_str`] accepts (upstream
/// serde_json's default). The parser recurses once per level, so the
/// bound turns hostile input into an error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_nested(Self::parse_array),
            Some(b'{') => self.parse_nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// Run `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn parse_nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
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
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
                None => return Err(Error::new("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, Error> {
        let esc = self
            .peek()
            .ok_or_else(|| Error::new("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.parse_hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    if !self.eat_literal("\\u") {
                        return Err(Error::new("unpaired surrogate"));
                    }
                    let lo = self.parse_hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(Error::new("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| Error::new("invalid unicode escape"))?
            }
            other => {
                return Err(Error::new(format!("invalid escape `\\{}`", other as char)));
            }
        })
    }

    /// Exactly four ASCII hex digits (no sign, unlike `from_str_radix`).
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| Error::new("invalid \\u escape digits"))?;
            code = code * 16 + digit;
        }
        self.pos = end;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            return text
                .parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::I64(n));
        }
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        // Integer too large for 64 bits: fall back to a float, as
        // upstream serde_json does with `arbitrary_precision` off.
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let v: Vec<i64> = from_str("[1, -2, 3]").unwrap();
        assert_eq!(v, vec![1, -2, 3]);
        assert_eq!(to_string(&v).unwrap(), "[1,-2,3]");
    }

    #[test]
    fn floats_keep_point_and_nan_becomes_null() {
        assert_eq!(to_string(&vec![1.0f64]).unwrap(), "[1.0]");
        let back: Vec<f64> = from_str(&to_string(&vec![f64::NAN]).unwrap()).unwrap();
        assert!(back[0].is_nan());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{8}\u{c}\u{1}é€𝄞";
        let json = to_string(&s.to_string()).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn pretty_shape() {
        let json = to_string_pretty(&vec![1i64, 2]).unwrap();
        assert_eq!(json, "[\n  1,\n  2\n]");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<i64>("1 x").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(from_str::<Vec<i64>>(&"[".repeat(1_000_000)).is_err());
        let deep_object = "{\"a\":".repeat(1_000_000);
        assert!(from_str::<std::collections::BTreeMap<String, i64>>(&deep_object).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str::<String>(r#""\u0041\u00e9""#).unwrap(), "Aé");
        assert!(from_str::<String>(r#""\u+041""#).is_err());
        assert!(from_str::<String>(r#""\u-041""#).is_err());
        assert!(from_str::<String>(r#""\u004""#).is_err());
    }
}
