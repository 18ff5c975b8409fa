//! The one JSON module: a parsed value type with a recursive-descent
//! parser, plus the writer pieces (string literals and numbers) that
//! every hand-rendered JSON document in the workspace goes through
//! (traces, manifests, cache lines, lease files, wire responses).
//!
//! The parser is deliberately separate code from the writers, so
//! round-trip tests (for example `subvt_exp::tracefmt`'s) catch
//! malformed output instead of mirroring a writer's bugs.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a bound a request line of `[`
/// overflows a connection thread's stack and aborts the daemon.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error.
/// Runs in time linear in `text.len()`.
///
/// # Errors
///
/// Returns a human-readable description with a byte offset.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let token = &self.text[start..self.pos];
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{token}` at byte {start}"))
    }

    /// Reads the string literal opening at `pos`, walking it one `char`
    /// at a time (the input is already valid UTF-8, so nothing is
    /// re-validated).
    fn string(&mut self) -> Result<String, String> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        let text = self.text;
        let mut chars = text[self.pos + 1..].chars();
        let at = |chars: &std::str::Chars<'_>| text.len() - chars.as_str().len();
        let mut out = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated string".to_owned()),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let rest = chars.as_str();
                        let hex = rest.get(..4).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        // Surrogates never occur in our writers; map them
                        // to the replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        chars = rest[4..].chars();
                    }
                    _ => return Err(format!("bad escape at byte {}", at(&chars) - 1)),
                },
                Some(c) => out.push(c),
            }
        }
        self.pos = at(&chars);
        Ok(out)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected , or ] at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected member name at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected : at byte {}", self.pos));
            }
            self.pos += 1;
            members.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected , or }} at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number (`null` for non-finite values,
/// which plain JSON cannot express).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `Display` omits the fraction for integral floats; that is
        // still a valid JSON number.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_the_grammar() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\n\"y","c":null,"d":true,"e":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"y"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn strings_keep_multibyte_text_and_decode_escapes() {
        let v = parse_json(r#"["µs → ok", "µ\t\/", "\ud800"]"#).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("µs → ok"));
        assert_eq!(items[1].as_str(), Some("µ\t/"));
        assert_eq!(items[2].as_str(), Some("\u{fffd}"));
        assert!(parse_json(r#""\u12""#).is_err());
        assert!(parse_json(r#""\q""#).is_err());
        assert!(parse_json(r#""open"#).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A quadratic scan (re-validating the rest of the document per
        // character) spends about 3e10 byte checks on this input.
        let body = "x".repeat(256 << 10);
        let text = format!("{{\"s\":\"{body}\",\"n\":1}}");
        let started = std::time::Instant::now();
        let v = parse_json(&text).unwrap();
        let took = started.elapsed();
        assert_eq!(
            v.get("s").and_then(Json::as_str).map(str::len),
            Some(256 << 10)
        );
        assert!(took.as_secs_f64() < 0.5, "parse took {took:?}");
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        assert!(parse_json(&"[".repeat(1 << 20))
            .unwrap_err()
            .contains("nesting"));
    }

    #[test]
    fn parses_nested_objects_with_escapes() {
        let text = r#"{"s":"a\"b\\c\nd\u0001","a":[null,true,-2.5],"n":42}"#;
        let value = Json::Obj(vec![
            ("s".into(), Json::Str("a\"b\\c\nd\u{1}".into())),
            (
                "a".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-2.5)]),
            ),
            ("n".into(), Json::Num(42.0)),
        ]);
        assert_eq!(parse_json(text).unwrap(), value);
    }

    #[test]
    fn as_u64_accepts_only_whole_non_negative_numbers() {
        let v = parse_json(r#"{"pid":42,"name":"x","neg":-1,"half":0.5}"#).unwrap();
        assert_eq!(v.get("pid").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("name").and_then(Json::as_u64), None);
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("half").and_then(Json::as_u64), None);
        assert_eq!(v.get("missing").and_then(Json::as_u64), None);
    }
}
