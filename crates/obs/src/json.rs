//! Hand-rolled JSON, in the spirit of the graph crate's hand-rolled
//! binary IO: the report format needs serialization *and* parsing without
//! external crates (the container has no cargo registry).
//!
//! Two deliberate deviations from a general-purpose JSON library keep
//! round-trips exact, which the report tooling relies on
//! (serialize → parse → equal):
//!
//! * Integers and floats are distinct variants. A number token without
//!   `.`/`e`/`E` parses as [`Json::Int`]; everything else as
//!   [`Json::Num`], serialized with Rust's shortest-round-trip float
//!   formatting.
//! * Objects preserve insertion order (a `Vec` of pairs, not a hash map),
//!   so serialized reports are stable and diffable.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional or exponent part. Wide enough
    /// (`i128`) to hold the full `u64` counter range losslessly.
    Int(i128),
    /// A finite floating-point number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64` (integers only — floats are not truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `u64` (non-negative integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (accepts both numeric variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Lossless `u64` → `Json` (the `Int` variant is `i128`-wide).
    pub fn from_u64(v: u64) -> Json {
        Json::Int(v as i128)
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the on-disk report format.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        out.push('\n');
        out
    }
}

fn write_value(out: &mut String, v: &Json, indent: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Num(f) => {
            debug_assert!(f.is_finite(), "JSON cannot represent {f}");
            if f.is_finite() {
                // `{:?}` is Rust's shortest representation that parses
                // back to the same f64 — exact round-trips.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
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
                out.push('\n');
                push_indent(out, indent + 1);
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, indent + 1);
                write_string(out, k);
                out.push_str(": ");
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest container nesting [`parse`] accepts. Parsing recurses once
/// per nested array or object, so an unbounded depth would let a
/// hostile document overflow the stack; committed reports nest at most
/// 7 deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (rejects trailing garbage and
/// nesting deeper than [`MAX_DEPTH`]).
pub fn parse(input: &str) -> Result<Json, JsonError> {
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
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread character; always on a `char`
    /// boundary of `input`.
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one container a level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("more than {MAX_DEPTH} nested containers")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one character, decoded straight from the
                    // input at `pos` (a char boundary), in O(1).
                    let c = self
                        .input
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number"))
        } else {
            // Integers that overflow i128 fall back to f64 (lossy, but
            // only reachable with inputs this crate never writes).
            match text.parse::<i128>() {
                Ok(v) => Ok(Json::Int(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| self.err("invalid number")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.to_pretty_string();
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(&parsed, v, "round-trip mismatch for\n{text}");
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX as i128),
            Json::Int(i64::MIN as i128),
            Json::Int(u64::MAX as i128),
            Json::Num(0.5),
            Json::Num(-1.25e-9),
            Json::Num(1e300),
            Json::Str(String::new()),
            Json::Str("plain".into()),
            Json::Str("esc \"quotes\" \\ \n \t \r \u{1} snowman ☃".into()),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v = Json::Obj(vec![
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            (
                "nested".into(),
                Json::Arr(vec![
                    Json::Int(1),
                    Json::Num(2.5),
                    Json::Obj(vec![("k".into(), Json::Null)]),
                ]),
            ),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn int_float_distinction_survives() {
        assert_eq!(parse("1").unwrap(), Json::Int(1));
        assert_eq!(parse("1.0").unwrap(), Json::Num(1.0));
        assert_eq!(parse("1e0").unwrap(), Json::Num(1.0));
    }

    #[test]
    fn object_order_preserved() {
        let v = parse(r#"{"b": 1, "a": 2}"#).unwrap();
        match &v {
            Json::Obj(fields) => {
                assert_eq!(fields[0].0, "b");
                assert_eq!(fields[1].0, "a");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn surrogate_pair_escape() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v, Json::Str("😀".into()));
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in ["", "{", "[1,]", "tru", "\"abc", "1 2", r#"{"a" 1}"#, "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        // Objects count toward the same bound.
        let objects = r#"{"k":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
        let objects = r#"{"k":"#.repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(parse(&objects).is_ok());
    }

    #[test]
    fn million_deep_document_is_an_error_not_a_stack_overflow() {
        let doc = "[".repeat(1_000_000) + &"]".repeat(1_000_000);
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn mebibyte_string_roundtrips() {
        // Mixed 1-, 2- and 3-byte characters; parsing must stay linear
        // in the string's length.
        let s = "ab\u{e9}\u{2603}".repeat((1 << 20) / 7 + 1);
        assert!(s.len() >= 1 << 20);
        roundtrip(&Json::Str(s));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 3, "f": 0.5, "s": "x", "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::from_u64(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(Json::from_u64(u64::MAX).as_i64(), None);
    }
}
