//! JSON value model and strict recursive-descent parser backing the shim's
//! [`Deserialize`](crate::Deserialize) implementation.
//!
//! Numbers are kept as their **raw source token** ([`JsonValue::Number`])
//! rather than eagerly converted to `f64`: the workspace round-trips `u64`
//! seeds above 2^53 and relies on Rust's shortest-roundtrip float printing,
//! so the only lossless strategy is to re-parse the original token with the
//! target type's own `FromStr`.
//!
//! The grammar is strict RFC 8259: no trailing commas, no comments, no bare
//! NaN/Infinity tokens, and nothing but whitespace after the top-level
//! value (trailing garbage is a [`JsonError::Syntax`] error, which the
//! malformed-input proptests pin).
//!
//! Parsing runs in time linear in the input: every byte is looked at a
//! bounded number of times, and a string's unescaped runs are copied as
//! whole slices. Arrays and objects may nest at most [`MAX_DEPTH`] (128)
//! levels deep; deeper input is a [`JsonError::Syntax`] error at the
//! opening bracket that crosses the limit, not a stack overflow.

use std::fmt;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its verbatim source token (see the module docs for why
    /// the token is not eagerly narrowed).
    Number(String),
    /// A string, with escapes already resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered `(key, value)` pairs (duplicate keys keep the
    /// first occurrence on lookup, like `serde_json`'s map behaviour).
    Object(Vec<(String, JsonValue)>),
}

/// A typed JSON parse / decode error.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The input violates the JSON grammar at byte `offset`.
    Syntax {
        /// Byte offset into the input where parsing failed.
        offset: usize,
        /// What the parser expected or found.
        message: String,
    },
    /// A value had the wrong JSON type for the target Rust type.
    Type {
        /// The JSON shape the target type needed.
        expected: &'static str,
        /// The JSON shape actually present.
        found: &'static str,
    },
    /// An array had the wrong number of elements for a fixed-arity target.
    Length {
        /// Required element count.
        expected: usize,
        /// Actual element count.
        found: usize,
    },
    /// An object was missing a required struct field.
    MissingField(&'static str),
    /// An enum tag did not name any variant of the target enum.
    UnknownVariant(String),
    /// A number token could not be parsed as the target numeric type.
    InvalidNumber {
        /// The offending token, verbatim.
        token: String,
        /// The Rust type it was being parsed as.
        target: &'static str,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::Type { expected, found } => {
                write!(f, "JSON type mismatch: expected {expected}, found {found}")
            }
            JsonError::Length { expected, found } => {
                write!(
                    f,
                    "JSON array length mismatch: expected {expected}, found {found}"
                )
            }
            JsonError::MissingField(name) => write!(f, "missing JSON object field `{name}`"),
            JsonError::UnknownVariant(tag) => write!(f, "unknown enum variant tag `{tag}`"),
            JsonError::InvalidNumber { token, target } => {
                write!(f, "JSON number `{token}` does not fit target type {target}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a complete JSON document (strict: whitespace-only suffix).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::Syntax {
                offset: p.pos,
                message: "trailing characters after top-level value".into(),
            });
        }
        Ok(v)
    }

    /// The value's JSON shape name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// Requires `null` (unit structs).
    pub fn expect_null(&self) -> Result<(), JsonError> {
        match self {
            JsonValue::Null => Ok(()),
            other => Err(JsonError::Type {
                expected: "null",
                found: other.kind(),
            }),
        }
    }

    /// Requires an object and returns its entries.
    pub fn expect_object(&self) -> Result<&[(String, JsonValue)], JsonError> {
        match self {
            JsonValue::Object(entries) => Ok(entries),
            other => Err(JsonError::Type {
                expected: "object",
                found: other.kind(),
            }),
        }
    }

    /// Requires an array and returns its elements.
    pub fn expect_array(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(JsonError::Type {
                expected: "array",
                found: other.kind(),
            }),
        }
    }

    /// Requires an array of exactly `n` elements (tuples, tuple structs,
    /// fixed-size arrays).
    pub fn expect_tuple(&self, n: usize) -> Result<&[JsonValue], JsonError> {
        let items = self.expect_array()?;
        if items.len() != n {
            return Err(JsonError::Length {
                expected: n,
                found: items.len(),
            });
        }
        Ok(items)
    }

    /// Looks up a required field of an object (first occurrence wins).
    pub fn field(&self, name: &'static str) -> Result<&JsonValue, JsonError> {
        self.expect_object()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or(JsonError::MissingField(name))
    }
}

/// The deepest array/object nesting [`JsonValue::parse`] accepts, the same
/// limit as `serde_json`. The parser recurses once per level, so the limit
/// keeps hostile input from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object, one level deeper, failing at its
    /// opening byte past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &'static str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // One scan over the run of bytes that need no decoding. It
            // starts after `"` or an escape and stops at `"`, `\`, a control
            // byte or the end of input, all ASCII, so the slice is valid
            // UTF-8 and the whole string costs one pass.
            let start = self.pos;
            self.pos += self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            out.push_str(&self.input[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..=0xDBFF).contains(&hi) {
            // High surrogate: a `\uDC00`..`\uDFFF` low surrogate must follow.
            if self.peek() != Some(b'\\') {
                return Err(self.err("high surrogate not followed by `\\u`"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.err("high surrogate not followed by `\\u`"));
            }
            self.pos += 1;
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else if (0xDC00..=0xDFFF).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Validates the RFC 8259 number grammar and captures the raw token.
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit in number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(JsonValue::Number(token))
    }
}
