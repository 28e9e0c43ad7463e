//! Minimal hand-rolled JSON reader/writer.
//!
//! The build environment has no crates.io access (no `serde`), and the
//! sweep artifact layer needs to *reload* what it wrote — so this module
//! implements the small JSON subset the artifacts use: objects, arrays,
//! strings, numbers, booleans, `null`.
//!
//! Numbers keep their raw token ([`Json::Num`] stores the source text):
//! `u64` seeds/fingerprints round-trip exactly instead of being squeezed
//! through an `f64`, and `f64`s parse back to the bit pattern that
//! produced their shortest decimal form — which is what makes resumed
//! reports byte-identical to uninterrupted ones.

use crate::error::SweepError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    /// A number, kept as its raw token.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Result<&Json, SweepError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| SweepError::Parse(format!("missing key {key:?}"))),
            _ => Err(SweepError::Parse(format!(
                "expected object while looking up {key:?}"
            ))),
        }
    }

    pub(crate) fn as_f64(&self) -> Result<f64, SweepError> {
        match self {
            Json::Num(raw) => raw
                .parse::<f64>()
                .map_err(|_| SweepError::Parse(format!("bad number {raw:?}"))),
            _ => Err(SweepError::Parse("expected number".into())),
        }
    }

    pub(crate) fn as_u64(&self) -> Result<u64, SweepError> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| SweepError::Parse(format!("bad u64 {raw:?}"))),
            _ => Err(SweepError::Parse("expected integer".into())),
        }
    }

    pub(crate) fn as_usize(&self) -> Result<usize, SweepError> {
        Ok(self.as_u64()? as usize)
    }

    pub(crate) fn as_bool(&self) -> Result<bool, SweepError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(SweepError::Parse("expected bool".into())),
        }
    }

    pub(crate) fn as_str(&self) -> Result<&str, SweepError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(SweepError::Parse("expected string".into())),
        }
    }

    pub(crate) fn as_arr(&self) -> Result<&[Json], SweepError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(SweepError::Parse("expected array".into())),
        }
    }

    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub(crate) fn parse(text: &str) -> Result<Json, SweepError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(SweepError::Parse(format!(
            "trailing input at byte {}",
            p.pos
        )));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Result<u8, SweepError> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| SweepError::Parse("unexpected end of input".into()))
    }

    fn expect(&mut self, b: u8) -> Result<(), SweepError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(SweepError::Parse(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, SweepError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(SweepError::Parse(format!(
                "bad literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, SweepError> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(SweepError::Parse(format!(
                "unexpected {:?} at byte {}",
                c as char, self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<Json, SweepError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek()? == b'}' {
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
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                c => {
                    return Err(SweepError::Parse(format!(
                        "expected ',' or '}}', got {:?} at byte {}",
                        c as char, self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, SweepError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                c => {
                    return Err(SweepError::Parse(format!(
                        "expected ',' or ']', got {:?} at byte {}",
                        c as char, self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, SweepError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| {
                                    SweepError::Parse(format!(
                                        "bad \\u escape at byte {}",
                                        self.pos
                                    ))
                                })?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        c => {
                            return Err(SweepError::Parse(format!(
                                "bad escape {:?} at byte {}",
                                c as char, self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the plain run up to the next quote or escape in
                    // one go. Both are ASCII, so the run ends on a char
                    // boundary of the source text.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = self
                        .text
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| SweepError::Parse("invalid utf-8".into()))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, SweepError> {
        let start = self.pos;
        if self.peek()? == b'-' {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ascii")
            .to_string();
        // Validate now so `Num` tokens are always parseable later.
        raw.parse::<f64>()
            .map_err(|_| SweepError::Parse(format!("bad number {raw:?} at byte {start}")))?;
        Ok(Json::Num(raw))
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub(crate) fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` as a JSON number token.
///
/// Rust's shortest-roundtrip `Display` guarantees `token.parse::<f64>()`
/// recovers the exact bit pattern, which the resume path relies on.
///
/// # Panics
///
/// Panics on non-finite values — artifacts never contain them (absent
/// statistics are `null`).
pub(crate) fn fmt_f64(x: f64) -> String {
    assert!(x.is_finite(), "artifacts only hold finite numbers");
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_it_writes() {
        let doc = r#"{"a": [1, 2.5, null, true, "x\"y"], "b": {"c": -3e-2}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[0].as_u64().unwrap(),
            1
        );
        assert!(v.get("a").unwrap().as_arr().unwrap()[2].is_null());
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[4].as_str().unwrap(),
            "x\"y"
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_f64().unwrap(),
            -0.03
        );
    }

    #[test]
    fn u64_round_trips_exactly() {
        let big = u64::MAX - 3;
        let v = parse(&format!("{{\"s\": {big}}}")).unwrap();
        assert_eq!(v.get("s").unwrap().as_u64().unwrap(), big);
    }

    #[test]
    fn f64_shortest_form_round_trips_exactly() {
        for &x in &[0.1, 1.0 / 3.0, 123456.789, 2e-13, f64::MAX] {
            let token = fmt_f64(x);
            let v = parse(&token).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] extra").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn multibyte_runs_next_to_escapes_decode() {
        let doc = "\"αβ\\\"γ—\\n€x\\u00e9\\u2014z\"";
        assert_eq!(parse(doc).unwrap().as_str().unwrap(), "αβ\"γ—\n€xé—z");
        assert!(parse("\"αβ").is_err(), "unterminated string");
    }

    #[test]
    fn escapes_survive() {
        let mut out = String::new();
        push_str_escaped(&mut out, "a\"b\\c\nd\u{1}");
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\nd\u{1}");
    }
}
