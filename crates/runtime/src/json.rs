//! A minimal JSON reader — the in-tree replacement for `serde_json` on
//! the workspace's validators: the bench crate's baseline `--check` /
//! `--gate` and `trace_check`, and the lint crate's report checker all
//! parse with [`Json::parse`] and then assert their schemas by hand.
//!
//! Every validator takes an arbitrary path, so the reader treats its
//! input as untrusted: nesting deeper than [`MAX_DEPTH`] and objects
//! that repeat a key are rejected with a typed [`JsonError`], never a
//! stack overflow or a silent first-wins / last-wins lookup.

use std::fmt;

/// Deepest container nesting [`Json::parse`] accepts. Every document
/// the workspace produces nests at most four levels; the cap keeps the
/// recursive descent far from the stack limit on any input.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (keys are unique).
    Obj(Vec<(String, Json)>),
}

/// Why [`Json::parse`] rejected a document. `at` is a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed input: `expected` names what the grammar wanted.
    Syntax {
        /// Byte offset of the offending input.
        at: usize,
        /// What the parser expected there.
        expected: &'static str,
    },
    /// Containers nested deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the container that crossed the cap.
        at: usize,
    },
    /// An object repeats a key.
    DuplicateKey {
        /// Byte offset of the object holding the duplicate.
        at: usize,
        /// The repeated key.
        key: String,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { at, expected } => write!(f, "expected {expected} at byte {at}"),
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
            JsonError::DuplicateKey { at, key } => {
                write!(f, "duplicate key \"{key}\" in the object at byte {at}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

impl Json {
    /// Parses one complete JSON document (trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// The first syntax error, a container nested deeper than
    /// [`MAX_DEPTH`], or an object with a repeated key.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.syntax("end of input"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
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
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn syntax(&self, expected: &'static str) -> JsonError {
        JsonError::Syntax { at: self.pos, expected }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `ch` if it is next.
    fn eat(&mut self, ch: u8) -> bool {
        self.skip_ws();
        let hit = self.byte() == Some(ch);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b'{' | b'[') => {
                self.depth += 1;
                if self.depth > MAX_DEPTH {
                    return Err(JsonError::TooDeep { at: self.pos });
                }
                let v = if self.byte() == Some(b'{') { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.syntax("a value")),
        }
    }

    fn literal(&mut self, lit: &'static str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.syntax(lit))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| JsonError::Syntax { at: start, expected: "a number" })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go;
            // both are ASCII, so the slice ends on a char boundary.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
            let Some(run) = run else {
                self.pos = self.text.len();
                return Err(self.syntax("a closing quote"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.byte() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1; // backslash
            let esc = self.byte().ok_or_else(|| self.syntax("an escape"))?;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let code = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| self.syntax("four hex digits"))?;
                    self.pos += 4;
                    // Lone surrogates never appear in the workspace's
                    // output; map them to U+FFFD rather than failing.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.syntax("an escape")),
            });
            self.pos += 1;
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.syntax("',' or ']'"));
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.pos += 1; // {
        let mut pairs = Vec::new();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                if self.byte() != Some(b'"') {
                    return Err(self.syntax("an object key"));
                }
                let key = self.string()?;
                if !self.eat(b':') {
                    return Err(self.syntax("':'"));
                }
                pairs.push((key, self.value()?));
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.syntax("',' or '}'"));
                }
            }
        }
        // Sorting borrowed keys finds a repeat in O(k log k) without
        // cloning them, so a huge object cannot make this quadratic.
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(JsonError::DuplicateKey { at: start, key: dup[0].to_string() });
        }
        Ok(Json::Obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap(), &Json::Null);
        assert_eq!(v.get("e").unwrap(), &Json::Bool(true));
        assert_eq!(v.get("a").unwrap().as_arr().map(<[Json]>::len), Some(3));
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(Vec::new()));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(Vec::new()));
    }

    #[test]
    fn strings_decode_every_escape_and_keep_utf8() {
        let v = Json::parse(r#""q\" b\\ s\/ \r\b\f\t é \u0001 πλ""#).unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ s/ \r\u{8}\u{c}\t é \u{1} πλ"));
        assert!(Json::parse(r#""\x""#).is_err());
        assert!(Json::parse(r#""\u12""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "{} trailing",
            "\"unterminated",
            "tru",
            "+1",
            "1-",
            "[",
            "\"\\",
        ] {
            assert!(
                matches!(Json::parse(bad), Err(JsonError::Syntax { .. })),
                "{bad:?} -> {:?}",
                Json::parse(bad)
            );
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        assert_eq!(Json::parse(&deep), Err(JsonError::TooDeep { at: MAX_DEPTH }));
        let deep_obj = "{\"k\":".repeat(200_000);
        assert!(matches!(Json::parse(&deep_obj), Err(JsonError::TooDeep { .. })));
        // Exactly at the cap still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(matches!(Json::parse(&over), Err(JsonError::TooDeep { .. })));
    }

    #[test]
    fn duplicate_keys_are_a_typed_error() {
        assert_eq!(
            Json::parse(r#"{"count":0,"count":0}"#),
            Err(JsonError::DuplicateKey { at: 0, key: "count".into() })
        );
        let nested = Json::parse(r#"[{"a":1,"b":{"x":1,"y":2,"x":3}}]"#);
        assert_eq!(nested, Err(JsonError::DuplicateKey { at: 12, key: "x".into() }));
        // The same key in sibling objects is fine.
        assert!(Json::parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn errors_render_with_their_offset() {
        let e: String = Json::parse("[1,]").unwrap_err().into();
        assert_eq!(e, "expected a value at byte 3");
        let e = Json::parse(r#"{"k":1,"k":2}"#).unwrap_err().to_string();
        assert!(e.contains("duplicate key \"k\""), "{e}");
    }
}
