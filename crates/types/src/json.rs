//! A minimal JSON reader shared by every spec layer (design specs in
//! `fc_sim`, scenario specs in `fc_trace`).
//!
//! The container builds offline, so `serde_json` is unavailable (the
//! vendored `serde` is a marker shim). Specs are small, flat
//! documents; this parser covers exactly the JSON they use — objects,
//! arrays, strings with the common escapes, numbers, booleans, null —
//! and reports errors by byte offset.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integral specs stay exact below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field, with a path-flavored error.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The value as a u64 (must be a non-negative integral number).
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    /// The value as a u32.
    pub fn as_u32(&self) -> Result<u32, String> {
        u32::try_from(self.as_u64()?).map_err(|_| "integer out of u32 range".to_string())
    }

    /// The value as a usize.
    pub fn as_usize(&self) -> Result<usize, String> {
        usize::try_from(self.as_u64()?).map_err(|_| "integer out of usize range".to_string())
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    /// The value as an f64 (any JSON number).
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            JsonValue::Num(n) => Ok(*n),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }
}

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

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        // The matched bytes are pure ASCII, but a durable-store load
        // must degrade to `Err`, never panic, whatever the input.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        // JSON numbers start with a digit or `-`; Rust's f64 parser is
        // laxer (leading `+`, `.5`), so gate before delegating to it.
        if !matches!(text.as_bytes().first(), Some(b'0'..=b'9' | b'-')) {
            return Err(format!("bad number `{text}` at byte {start}"));
        }
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number `{text}` at byte {start}"))?;
        // `f64::from_str` accepts overlong digit strings by rounding to
        // infinity; JSON has no infinity, and a non-finite value would
        // silently corrupt anything persisted through the emitters.
        if !n.is_finite() {
            return Err(format!(
                "number `{text}` overflows double precision at byte {start}"
            ));
        }
        Ok(JsonValue::Num(n))
    }

    /// Reads the four hex digits of a `\u` escape, advancing past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape".to_string())?;
        let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
            .map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            match code {
                                // High surrogate: must pair with a low
                                // surrogate in an immediately following
                                // `\u` escape (UTF-16 encoding of a
                                // supplementary-plane char like 😀).
                                0xd800..=0xdbff => {
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                        return Err(format!(
                                            "lone high surrogate \\u{code:04x} at byte {}",
                                            self.pos
                                        ));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err(format!(
                                            "high surrogate \\u{code:04x} followed by \\u{low:04x}, not a low surrogate"
                                        ));
                                    }
                                    let scalar = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    out.push(
                                        char::from_u32(scalar)
                                            .expect("paired surrogates form a valid scalar"),
                                    );
                                }
                                0xdc00..=0xdfff => {
                                    return Err(format!(
                                        "lone low surrogate \\u{code:04x} at byte {}",
                                        self.pos
                                    ));
                                }
                                _ => out.push(
                                    char::from_u32(code)
                                        .expect("non-surrogate BMP code points are scalars"),
                                ),
                            }
                        }
                        other => return Err(format!("unknown escape `\\{}`", *other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (continuation bytes ride
                    // along with their leading byte).
                    let start = self.pos;
                    self.pos += 1;
                    while matches!(self.bytes.get(self.pos), Some(b) if b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes a string for a JSON value position.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// [`escape`], appending to `out` instead of allocating.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            JsonValue::parse(r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": false}}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_u64().unwrap(), 1);
        let arr = match v.field("b").unwrap() {
            JsonValue::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert!(arr[0].as_bool().unwrap());
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_str().unwrap(), "x\ny");
        assert!(!v.field("c").unwrap().field("d").unwrap().as_bool().unwrap());
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse(r#"{"a": }"#).is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn numbers_round_trip_exactly_below_2_53() {
        let v = JsonValue::parse("536870912").unwrap(); // 512 MB in bytes
        assert_eq!(v.as_u64().unwrap(), 536_870_912);
        assert!(JsonValue::parse("-3").unwrap().as_u64().is_err());
        assert!(JsonValue::parse("1.5").unwrap().as_u64().is_err());
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn unicode_strings_survive() {
        let v = JsonValue::parse(r#""héllo ✓""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo ✓");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        // 😀 is U+1F600, encoded in JSON \u escapes as a surrogate pair.
        let v = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
        // Raw UTF-8 and escaped forms agree.
        assert_eq!(JsonValue::parse(r#""😀""#).unwrap(), v);
        // Round trip: escape() emits raw UTF-8, which reparses identically.
        let reparsed = JsonValue::parse(&format!("\"{}\"", escape("mixed 😀 ✓ text"))).unwrap();
        assert_eq!(reparsed.as_str().unwrap(), "mixed 😀 ✓ text");
    }

    #[test]
    fn lone_surrogates_are_errors() {
        assert!(JsonValue::parse(r#""\ud83d""#).is_err()); // lone high
        assert!(JsonValue::parse(r#""\ude00""#).is_err()); // lone low
        assert!(JsonValue::parse(r#""\ud83dA""#).is_err()); // high + non-low
        assert!(JsonValue::parse(r#""\ud83dx""#).is_err()); // high + raw char
        assert!(JsonValue::parse(r#""\ud83d"#).is_err()); // high at EOF
    }

    #[test]
    fn malformed_numbers_error_instead_of_panicking() {
        assert!(JsonValue::parse("1e").is_err()); // truncated exponent
        assert!(JsonValue::parse("-").is_err()); // lone minus
        assert!(JsonValue::parse("1e999").is_err()); // overflows to inf
        let overlong = format!("1{}", "0".repeat(400)); // overlong digits
        assert!(JsonValue::parse(&overlong).is_err());
        assert!(JsonValue::parse("+5").is_err()); // JSON has no leading +
        assert!(JsonValue::parse("1.2.3").is_err());
        // Valid scientific notation still parses.
        assert_eq!(JsonValue::parse("1.5e3").unwrap().as_f64().unwrap(), 1500.0);
        assert_eq!(JsonValue::parse("-2.5").unwrap().as_f64().unwrap(), -2.5);
    }

    #[test]
    fn f64_round_trips_through_display() {
        // The durable store serializes f64 via Display (shortest
        // round-trip form); parse must recover the exact bits.
        for &x in &[0.1, 1.0 / 3.0, 123456.789e-12, f64::MAX, 5e-324] {
            let text = format!("{x}");
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "round trip of {text}");
        }
    }
}
