//! A minimal, deterministic JSON value: writer and parser.
//!
//! The workspace is fully offline (no serde), and the harness needs
//! machine-readable output in exactly two places: the `repro --json`
//! reports and the explore subsystem's memo store. Both only require a
//! small, order-preserving value type whose rendering is byte-stable —
//! object keys keep insertion order, numbers print via Rust's
//! shortest-round-trip `f64` formatting, integers that no `f64` holds
//! exactly print all their digits, and non-finite numbers become `null`
//! (JSON has no encoding for them).

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so renders are
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers survive exactly up to 2^53.
    Num(f64),
    /// An unsigned integer no `f64` holds exactly (above 2^53), kept
    /// whole. Conversions from `u64` and `usize`, and the parser, make
    /// this variant only for such integers; every other number is a
    /// [`Json::Num`].
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number. An [`Json::Int`] reads
    /// as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
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
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    /// A [`Json::Num`] when an `f64` holds `x` exactly, else a
    /// [`Json::Int`].
    fn from(x: u64) -> Json {
        let f = x as f64;
        // Through u128: `u64::MAX as f64` rounds up to 2^64, which an
        // `as u64` cast would saturate back to `u64::MAX`.
        if f as u128 == u128::from(x) {
            Json::Num(f)
        } else {
            Json::Int(x)
        }
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::from(x as u64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's f64 Display is the shortest string that round-trips.
        let _ = write!(out, "{x}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Json, JsonParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(offset: usize, message: &str) -> JsonParseError {
    JsonParseError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, "unexpected token"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(err(*pos, "unexpected end of input"));
    };
    match b {
        b'n' => expect(bytes, pos, "null").map(|()| Json::Null),
        b't' => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        b'f' => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':'"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        _ => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(err(*pos, "unterminated string"));
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(err(*pos, "unterminated escape"));
                };
                *pos += 1;
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
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(err(*pos, "unknown escape")),
                }
            }
            _ => {
                // Consume one UTF-8 character.
                let s =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid UTF-8"))?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII slice");
    if let Ok(n) = text.parse::<u64>() {
        return Ok(Json::from(n));
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, "invalid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("name", "tp_small".into()),
            ("gain", 43.25.into()),
            ("entries", 16u64.into()),
            (
                "flags",
                Json::Arr(vec![true.into(), false.into(), Json::Null]),
            ),
            ("nested", Json::obj([("quote\"\\", "line\nbreak".into())])),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn rendering_is_deterministic_and_order_preserving() {
        let a = Json::obj([("b", 1u64.into()), ("a", 2u64.into())]);
        assert_eq!(a.render(), "{\"b\":1,\"a\":2}");
        assert_eq!(a.render(), a.clone().render());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(12_000.0).render(), "12000");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(-3.0).render(), "-3");
    }

    #[test]
    fn integers_above_2_pow_53_round_trip_exactly() {
        for n in [(1u64 << 53) + 1, 0x629a_f85f_ac46_19d6, u64::MAX] {
            let doc = Json::obj([("seed", n.into())]);
            let text = doc.render();
            assert_eq!(text, format!("{{\"seed\":{n}}}"));
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed, doc);
            assert_eq!(parsed.render(), text);
            assert_eq!(parsed.get("seed").and_then(Json::as_f64), Some(n as f64));
        }
        // Integers an f64 holds exactly stay plain numbers.
        for n in [0u64, 1 << 53, (1 << 53) + 2, 10_000_000_000_000_000_000] {
            assert_eq!(Json::from(n), Json::Num(n as f64));
            assert_eq!(parse(&n.to_string()).unwrap(), Json::Num(n as f64));
            assert_eq!(Json::from(n).render(), n.to_string());
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        let x = 18.300000000000004f64;
        let parsed = parse(&Json::Num(x).render()).unwrap();
        assert_eq!(parsed.as_f64(), Some(x));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\\x\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn getters_navigate_objects() {
        let doc = parse("{\"a\": {\"b\": [1, \"x\"]}}").unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(arr.as_arr().unwrap()[0].as_f64(), Some(1.0));
        assert_eq!(arr.as_arr().unwrap()[1].as_str(), Some("x"));
    }
}
