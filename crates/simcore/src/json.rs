//! The workspace's one JSON reader (there is no serde): enough of RFC 8259
//! to parse one value, nested objects and arrays included, into a
//! [`JsonValue`] tree.
//!
//! The trace export's checker (`trace::validate_json_line`) parses and
//! discards; the trace analyzer (`experiments analyze`) parses and then
//! requires a flat object.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A number that is a non-negative integer fitting `u64` (span ids,
    /// tick timestamps, counts).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string, escapes decoded.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
    /// An array.
    Array(Vec<JsonValue>),
    /// An object's members, in input order (duplicate keys kept).
    Object(Vec<(String, JsonValue)>),
}

/// Deepest nesting of objects and arrays [`parse`] accepts: the reader
/// recurses once per level, so deeper input is an error rather than a
/// stack overflow.
const MAX_DEPTH: usize = 128;

/// Parse `text` as exactly one JSON value; whitespace may surround it.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut r = Reader {
        text,
        pos: 0,
        depth: 0,
    };
    r.skip_ws();
    let value = r.parse_value()?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(format!("trailing content at byte {}", r.pos));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Objects and arrays open at `pos`.
    depth: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if c == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => self.parse_string().map(JsonValue::Str),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.parse_number(),
            Some(c) => Err(format!("unexpected byte {c:#04x} at {}", self.pos)),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            members.push((key, self.parse_value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening '"'
        let mut out = String::new();
        // Start of the run of plain bytes not yet copied to `out`. Runs end
        // only at ASCII bytes, so every slice is on a char boundary.
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(0x00..=0x1f) => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decode the escape after a backslash. A `\u` escape that is not a
    /// scalar value on its own (half of a surrogate pair) decodes to U+FFFD.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                self.pos += 4;
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("expected fraction digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("expected exponent digits at byte {}", self.pos));
            }
        }
        let token = &self.text[start..self.pos];
        Ok(match token.parse::<u64>() {
            Ok(u) => JsonValue::U64(u),
            Err(_) => JsonValue::F64(token.parse().expect("a JSON number parses as f64")),
        })
    }

    /// Consume a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use JsonValue::*;

    #[test]
    fn parses_every_kind_of_value() {
        let v = parse(r#" {"t":12,"x":-3,"f":0.5,"e":1e3,"s":"a\"b\u00e9\n","ok":true,"n":null,"a":[1,{"b":[]}]} "#)
            .unwrap();
        let Object(members) = v else {
            panic!("not an object: {v:?}")
        };
        let expect = [
            ("t", U64(12)),
            ("x", F64(-3.0)),
            ("f", F64(0.5)),
            ("e", F64(1000.0)),
            ("s", Str("a\"bé\n".into())),
            ("ok", Bool(true)),
            ("n", Null),
            (
                "a",
                Array(vec![U64(1), Object(vec![("b".into(), Array(vec![]))])]),
            ),
        ];
        assert_eq!(members.len(), expect.len());
        for ((k, v), (ek, ev)) in members.iter().zip(expect) {
            assert_eq!((k.as_str(), v), (ek, &ev));
        }
        assert_eq!(parse("\"é\\ud800\"").unwrap(), Str("é\u{fffd}".into()));
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            F64(1.8446744073709552e19)
        );
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":1.}",
            "{\"a\":1.e5}",
            "{\"a\":+1}",
            "{\"a\":\"x\u{1}y\"}",
            "\"tab\there\"",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"\\u12g4\"}",
            "{\"a\":1}{",
            "[1 2]",
            "{\"a\" 1}",
            "{1:2}",
            "tru",
            &"[".repeat(MAX_DEPTH + 1),
            &"[".repeat(1_000_000),
        ] {
            assert!(parse(bad).is_err(), "accepted invalid: {bad:?}");
        }
    }
}
