//! A minimal JSON reader/writer for the wire protocol.
//!
//! The protocol layer carries its own JSON: [`Json`], a tree for
//! small messages and the `stats` payload, whose `Display` is the
//! definition of the wire format (sorted keys, RFC 8259 escapes,
//! integral numbers without a fraction), and one recursive-descent
//! reader, [`parse`]. Only what the protocol needs is supported —
//! notably numbers round-trip through `f64`, which is exact for every
//! value the protocol sends (`u32` node values, bit patterns, counters
//! below 2^53).
//!
//! The reader's cost is linear in the line: a string is copied in whole
//! runs up to the next `"` or `\` (the input is already `&str`, so
//! nothing between them needs validating), and a plain integer of up to
//! 15 digits is accumulated directly instead of going through
//! `str::parse::<f64>`. Containers nest at most [`MAX_DEPTH`] deep;
//! past that the line is a typed [`ParseError`] ("nesting too deep"),
//! so no line from the wire can overflow a connection thread's stack.
//!
//! The grammar is written once, in the crate-private `Reader`:
//! [`parse`] drives it to build a tree, and [`crate::protocol`] drives
//! it directly for the two members whose element type the protocol
//! grammar fixes and whose size is unbounded — a reply's `values`
//! (`[u32]`) and a mutate request's `ops` — so a 131 072-value reply
//! becomes a `Vec<u32>` without 131 072 boxed `Json::Num`s in between.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integral values print without a fraction.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps emitted key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience: the value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Json::Num(f64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; the protocol never sends
                    // them, but degrade safely rather than emit garbage.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Appends `s` as a JSON string literal, spelled exactly as [`Json`]'s
/// `Display` spells a `Json::Str` — the protocol's direct encoder writes
/// bytes, not through `fmt` — copying whole runs between characters
/// that need an escape.
pub(crate) fn push_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&s.as_bytes()[run..i]);
        if escape.is_empty() {
            out.extend_from_slice(format!("\\u{b:04x}").as_bytes());
        } else {
            out.extend_from_slice(escape);
        }
        run = i + 1;
    }
    out.extend_from_slice(&s.as_bytes()[run..]);
    out.push(b'"');
}

/// Appends `n` exactly as `Json::from(n)` displays it: plain decimal
/// digits below 2^53, and above that the digits of the nearest `f64`
/// (the tree carries numbers as `f64`, and the wire format is the
/// tree's).
pub(crate) fn push_u64(out: &mut Vec<u8>, n: u64) {
    if n >= 1 << 53 {
        out.extend_from_slice((n as f64).to_string().as_bytes());
        return;
    }
    let mut buf = [b'0'; 16];
    let mut at = buf.len();
    let mut rest = n;
    loop {
        at -= 1;
        buf[at] += (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// A parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest container nesting [`parse`] accepts. The protocol's deepest
/// legal line (a `stats` reply) nests four levels; the limit exists so a
/// `[[[[...` line from the wire is a typed error, not a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error, and nesting past [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut r = Reader::new(input);
    let value = r.value()?;
    r.finish()?;
    Ok(value)
}

/// [`parse`] for a document whose top-level members are looked up by
/// key, except that the value of member `key` is consumed by `typed`
/// instead of being built into the tree. Returns the object without
/// that member (empty if the document is valid but not an object: no
/// key finds anything in it either way), and what `typed` made of the
/// member's last occurrence (the tree keeps the last duplicate too).
pub(crate) fn parse_except<T>(
    input: &str,
    key: &str,
    mut typed: impl FnMut(&mut Reader<'_>) -> Result<T, ParseError>,
) -> Result<(Json, Option<T>), ParseError> {
    let mut r = Reader::new(input);
    let mut map = BTreeMap::new();
    let mut member = None;
    r.object(|r, k| {
        if k == key {
            member = Some(typed(r)?);
        } else {
            let value = r.value()?;
            map.insert(k.into_owned(), value);
        }
        Ok(())
    })?;
    r.finish()?;
    Ok((Json::Obj(map), member))
}

/// The one JSON grammar: [`parse`] builds trees with it, and the
/// protocol layer drives it directly to read a member whose type the
/// schema fixes (`values`, `ops`) without a tree in between.
///
/// Every reading method expects the cursor on the first byte of a value
/// (the container loops skip whitespace) and leaves it just past it.
pub(crate) struct Reader<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(input: &'a str) -> Self {
        let mut r = Reader {
            input,
            pos: 0,
            depth: 0,
        };
        r.skip_ws();
        r
    }

    fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing content"));
        }
        Ok(())
    }

    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.input.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Reads any value into a tree.
    pub(crate) fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|r, key| {
                    let value = r.value()?;
                    map.insert(key.into_owned(), value);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            _ => Err(self.err("expected a value")),
        }
    }

    /// If the next value opens with `open`, reads the container: `item`
    /// is called with the cursor on each item, which it must consume.
    /// Any other value is read and dropped, and `false` returned.
    fn container(
        &mut self,
        (open, close): (u8, u8),
        expected: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        if self.peek() != Some(open) {
            self.value()?;
            return Ok(false);
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err(expected)),
                }
                self.skip_ws();
            }
        }
        self.depth -= 1;
        Ok(true)
    }

    /// If the next value is an object, hands each member's key to
    /// `member` with the cursor on the member's value, which `member`
    /// must consume. Any other value is read and dropped, and `false`
    /// returned.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        self.container((b'{', b'}'), "expected ',' or '}'", |r| {
            let key = r.string()?;
            r.skip_ws();
            r.expect(b':')?;
            r.skip_ws();
            member(r, key)
        })
    }

    /// If the next value is an array, calls `element` with the cursor
    /// on each element, which `element` must consume. Any other value
    /// is read and dropped, and `false` returned.
    pub(crate) fn array(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        self.container((b'[', b']'), "expected ',' or ']'", element)
    }

    /// Reads a string. The input is `&str`, so whole runs up to the
    /// next `"` or `\` are copied (or, with no escape at all, borrowed)
    /// without looking at the characters in between: time is linear in
    /// the string's length.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let bytes = self.input.as_bytes();
        let mut run = self.pos;
        let mut unescaped: Option<String> = None;
        loop {
            let Some(len) = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += len;
            // Both delimiters are ASCII, so the run ends on a character
            // boundary even when a multi-byte scalar precedes it.
            let chunk = &self.input[run..self.pos];
            self.pos += 1;
            if bytes[self.pos - 1] == b'"' {
                return Ok(match unescaped {
                    None => Cow::Borrowed(chunk),
                    Some(mut out) => {
                        out.push_str(chunk);
                        Cow::Owned(out)
                    }
                });
            }
            let out = unescaped.get_or_insert_with(String::new);
            out.push_str(chunk);
            out.push(self.escape()?);
            run = self.pos;
        }
    }

    /// Decodes one escape; the cursor is just past the backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
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
                self.pos += 1;
                let cp = self.hex4()?;
                // Surrogate pairs: accept, recombine.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                    } else {
                        None
                    }
                } else {
                    char::from_u32(cp)
                };
                return c.ok_or_else(|| self.err("invalid \\u escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let bytes = self.input.as_bytes();
        if self.pos + 4 > bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = bytes[self.pos];
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            cp = cp * 16 + digit;
            self.pos += 1;
        }
        Ok(cp)
    }

    /// Reads a number if the next value is one; consumes nothing
    /// otherwise.
    pub(crate) fn try_number(&mut self) -> Result<Option<f64>, ParseError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number().map(Some),
            _ => Ok(None),
        }
    }

    #[inline]
    fn number(&mut self) -> Result<f64, ParseError> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let digits_start = start + usize::from(negative);
        // The cursor stays in a local while digits are counted, so the
        // loop carries nothing through memory.
        let mut at = digits_start;
        let mut int: u64 = 0;
        while let Some(d @ b'0'..=b'9') = bytes.get(at) {
            int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            at += 1;
        }
        self.pos = at;
        if (1..=15).contains(&(at - digits_start))
            && !matches!(bytes.get(at), Some(b'.' | b'e' | b'E'))
        {
            // A plain integer below 10^15 < 2^53 is exact in `f64`: the
            // value `str::parse::<f64>` would produce, without its cost.
            let n = int as f64;
            return Ok(if negative { -n } else { n });
        }
        self.number_with_fraction(start)
    }

    /// The rest of [`Self::number`]: the cursor is past the integer
    /// digits of a number that began at `start`.
    #[cold]
    fn number_with_fraction(&mut self, start: usize) -> Result<f64, ParseError> {
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let v = obj([
            ("op", "query".into()),
            ("source", Json::Num(42.0)),
            ("values", Json::Arr(vec![0u32.into(), u32::MAX.into()])),
            ("ok", true.into()),
            ("none", Json::Null),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn u32_max_is_exact() {
        let text = Json::from(u32::MAX).to_string();
        assert_eq!(text, "4294967295");
        assert_eq!(parse(&text).unwrap().as_u64(), Some(u64::from(u32::MAX)));
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}\u{1F600}".into());
        let text = v.to_string();
        assert!(text.contains("\\\"") && text.contains("\\n") && text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), v);
        // Surrogate-pair escapes decode too.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
            "nul",
            "\"\\u12\"",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn numbers_parse_in_all_forms() {
        assert_eq!(parse("-0.5e2").unwrap().as_f64(), Some(-50.0));
        assert_eq!(parse("12").unwrap().as_u64(), Some(12));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
