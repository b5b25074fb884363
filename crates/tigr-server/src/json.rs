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
//! nothing between them needs validating), and a lone number that is a
//! plain integer is accumulated directly instead of going through
//! `str::parse::<f64>`. Containers nest at most [`MAX_DEPTH`] deep;
//! past that the line is a typed [`ParseError`] ("nesting too deep"),
//! so no line from the wire can overflow a connection thread's stack.
//!
//! Integers are handled a word at a time, with no branch on how many
//! digits they have. The writer counts a number's digits from its
//! leading zeros, forms eight ASCII digits in one `u64` by
//! multiply-shifts, and stores a `values` element as one fixed 16-byte
//! word plus a comma. The reader finds the elements of a `[u32]` member
//! from a 64-byte block's mask of non-digits and converts each with
//! three multiply-adds; an element off that path (spaced, signed,
//! fractional, out of range) alone goes through the number reader.
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
    // n < 2^53 < 10^16, so the high eight digits fit a `u32`.
    let high = (n / 100_000_000) as u32;
    let len = if high == 0 {
        digit_count(n as u32)
    } else {
        8 + digit_count(high)
    };
    out.extend_from_slice(&digit_word(n, len).to_le_bytes()[..len]);
}

/// Appends each of `values` and a comma after it: the elements of the
/// JSON array [`Json`]'s `Display` prints for them, each one's comma
/// included. Each value is one fixed 16-byte store of its digits and a
/// comma byte after them into a scratch block sized for the widest
/// spelling, the cursor advancing past the comma; a full block goes to
/// `out` in one copy of the bytes it holds.
pub(crate) fn push_u32_elements(out: &mut Vec<u8>, values: &[u32]) {
    const BLOCK: usize = 256;
    // Ten digits and a comma per value, and the last store's reach of
    // five bytes past its comma.
    let mut block = [0; 11 * BLOCK + 5];
    for chunk in values.chunks(BLOCK) {
        let mut at = 0;
        for &v in chunk {
            let len = digit_count(v);
            let word = block[at..]
                .first_chunk_mut::<16>()
                .expect("the block holds the widest spelling");
            *word = digit_word(v.into(), len).to_le_bytes();
            word[len] = b',';
            at += len + 1;
        }
        out.extend_from_slice(&block[..at]);
    }
}

/// `(n + DIGIT_COUNT[⌊log2 n⌋]) >> 32` is the number of decimal digits
/// of a `u32` `n`. Entry `i` is `(d + 1) << 32` less `10^d`, for the `d`
/// digits of `2^i`: the add carries into `d + 1` exactly when
/// `n ≥ 10^d`. Past `u32::MAX` no power of ten is reached, and the entry
/// is plain `d << 32`.
const DIGIT_COUNT: [u64; 32] = {
    let mut table = [0; 32];
    let mut i = 0;
    while i < 32 {
        let (mut digits, mut power) = (1, 10);
        while power <= 1 << i {
            digits += 1;
            power *= 10;
        }
        table[i] = if power > u32::MAX as u64 {
            digits << 32
        } else {
            ((digits + 1) << 32) - power
        };
        i += 1;
    }
    table
};

/// How many decimal digits `n` has (one for zero), without a branch.
#[inline]
fn digit_count(n: u32) -> usize {
    let log2 = 31 - (n | 1).leading_zeros();
    ((u64::from(n) + DIGIT_COUNT[log2 as usize]) >> 32) as usize
}

/// The digits of `n < 10^8` as eight ASCII bytes, zero-padded on the
/// left, the first digit in the low byte (so `to_le_bytes` spells them
/// in order). Each step splits every lane of the word in two with a
/// multiply-shift and halves the lane width: 4 + 4 digits in 32-bit
/// lanes, then 2 + 2 in 16-bit lanes, then 1 + 1 in bytes. No lane
/// carries into or borrows from the next, and the word is lanes, not a
/// number: the arithmetic is written wrapping, as in [`parse8`].
#[inline]
fn ascii8(n: u64) -> u64 {
    let x = (n / 10_000) | ((n % 10_000) << 32);
    // ⌊v · 10486 / 2^20⌋ = ⌊v / 100⌋ for every v < 10^4.
    let hundreds = (x.wrapping_mul(10_486) >> 20) & 0x0000_007f_0000_007f;
    let x = hundreds | (x.wrapping_sub(hundreds.wrapping_mul(100)) << 16);
    // ⌊v · 103 / 2^10⌋ = ⌊v / 10⌋ for every v < 100.
    let tens = (x.wrapping_mul(103) >> 10) & 0x000f_000f_000f_000f;
    let x = tens | (x.wrapping_sub(tens.wrapping_mul(10)) << 8);
    x | 0x3030_3030_3030_3030
}

/// The `len` digits of `n < 10^16` (`len` ≥ its digit count) in the low
/// bytes of a word, in order: sixteen zero-padded ASCII digits, shifted
/// past the padding.
#[inline]
fn digit_word(n: u64, len: usize) -> u128 {
    let padded = u128::from(ascii8(n / 100_000_000)) | (u128::from(ascii8(n % 100_000_000)) << 64);
    padded >> (8 * (16 - len))
}

/// Bit `i` set where byte `i` of `w` is not an ASCII digit. Per byte,
/// `b ^ b'0'` is the digit's value for a digit and at least 10 for any
/// other byte; adding `0x76` to its low seven bits sets the high bit from
/// 10 up without carrying into the next byte, and one multiply gathers
/// the eight high bits into the top byte.
fn non_digit_bits(w: u64) -> u64 {
    const ZEROS: u64 = u64::from_ne_bytes([b'0'; 8]);
    const LOW_SEVEN: u64 = u64::from_ne_bytes([0x7f; 8]);
    const TO_TEN: u64 = u64::from_ne_bytes([0x80 - 10; 8]);
    const HIGH_BITS: u64 = u64::from_ne_bytes([0x80; 8]);
    let x = w ^ ZEROS;
    let high = (((x & LOW_SEVEN) + TO_TEN) | x) & HIGH_BITS;
    ((high >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// For an element of `len` digits that ends a 10-byte window, the bytes
/// of the window that hold it: of the first two (as a little-endian
/// `u16`), and of the last eight (as a `u64`).
const ELEMENT_BYTES: [(u16, u64); 11] = {
    let mut masks = [(0, 0); 11];
    let mut len = 1;
    while len <= 10 {
        masks[len] = match len {
            ..=7 => (0, u64::MAX << (8 * (8 - len))),
            8 => (0, u64::MAX),
            9 => (0xff00, u64::MAX),
            _ => (0xffff, u64::MAX),
        };
        len += 1;
    }
    masks
};

/// The value of eight ASCII digits, the first in the low byte, in three
/// multiply-adds: pairs of digits, then pairs of pairs, then the halves.
fn parse8(w: u64) -> u64 {
    let w = ((w & 0x0f0f_0f0f_0f0f_0f0f).wrapping_mul((10 << 8) | 1)) >> 8;
    let w = ((w & 0x00ff_00ff_00ff_00ff).wrapping_mul((100 << 16) | 1)) >> 16;
    ((w & 0x0000_ffff_0000_ffff).wrapping_mul((10_000 << 32) | 1)) >> 32
}

/// Where [`u32_run`] stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum RunEnd {
    /// On the `]` that closes the array.
    Closed,
    /// On the first byte of an element the run does not own: more input
    /// cannot change that.
    Foreign,
    /// Short of a whole block past the last element read: more input may
    /// carry the run on.
    #[default]
    Short,
}

/// From `*at`, the first byte of an element of an array of `u32`s, reads
/// the run of elements spelled as plain digits directly followed by `,`
/// or `]` into `out`, and leaves `*at` on the first byte not read: the
/// closing `]`, or the first byte of the next element. Each step tests
/// eight bytes for non-digits, a 64-byte block at a time: every
/// non-digit ends an element, so the elements come off the block's mask
/// without a byte loop, and each converts from the window of bytes
/// before its end ([`digits_to`]). Only whole blocks are read, so `bytes`
/// may be a line that is still arriving.
pub(crate) fn u32_run(bytes: &[u8], at: &mut usize, out: &mut Vec<u32>) -> RunEnd {
    let mut block_at = *at;
    while let Some(block) = bytes.get(block_at..).and_then(<[u8]>::first_chunk::<64>) {
        let mut ends = 0;
        for (i, word) in block.as_chunks::<8>().0.iter().enumerate() {
            ends |= non_digit_bits(u64::from_le_bytes(*word)) << (8 * i);
        }
        while ends != 0 {
            let end = block_at + ends.trailing_zeros() as usize;
            ends &= ends - 1;
            let Some(value) = digits_to(bytes, *at, end) else {
                return RunEnd::Foreign;
            };
            out.push(value);
            if bytes[end] == b']' {
                *at = end;
                return RunEnd::Closed;
            }
            *at = end + 1;
        }
        block_at += 64;
    }
    RunEnd::Short
}

/// The element from `start` to the non-digit at `end`, if it is 1–10
/// digits up to `u32::MAX` ended by `,` or `]`. It is read from the ten
/// bytes before `end`, with the bytes before the element masked off: the
/// last eight by [`parse8`], the first two as the digits above 10^8.
fn digits_to(bytes: &[u8], start: usize, end: usize) -> Option<u32> {
    let len = end - start;
    if !(1..=10).contains(&len) || !matches!(bytes[end], b',' | b']') {
        return None;
    }
    let window = bytes.get(end.checked_sub(10)?..)?.first_chunk::<10>()?;
    let [tens, ones, low @ ..] = *window;
    let (keep_high, keep_low) = ELEMENT_BYTES[len];
    let high = u64::from(u16::from_le_bytes([tens, ones]) & keep_high & 0x0f0f);
    let value = ((high & 0xf) * 10 + (high >> 8)) * 100_000_000
        + parse8(u64::from_le_bytes(low) & keep_low);
    u32::try_from(value).ok()
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
    /// on each element, which `element` must consume. It may read the
    /// elements and commas after it too (the `values` reader does, with
    /// [`Self::u32_run`]) as long as it stops just past an element. Any
    /// other value is read and dropped, and `false` returned.
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

    /// With the cursor on an element of an array of `u32`s, reads the
    /// run of elements spelled as plain digits directly followed by `,`
    /// or `]` ([`u32_run`]). Returns `true` on the `]` that closes the
    /// array, and `false` on the first byte of an element the run does
    /// not own — anything but a plain integer of 1–10 digits up to
    /// `u32::MAX` followed by `,` or `]`, or one in the last 64 bytes of
    /// the input — which is the caller's to read.
    pub(crate) fn u32_run(&mut self, out: &mut Vec<u32>) -> bool {
        let closed = u32_run(self.input.as_bytes(), &mut self.pos, out) == RunEnd::Closed;
        if !closed {
            self.skip_ws();
        }
        closed
    }

    /// The cursor's byte offset into the input.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// Moves the cursor forward to `offset`, past input that was read
    /// already — by [`u32_run`] over the same bytes.
    pub(crate) fn skip_to(&mut self, offset: usize) {
        debug_assert!(offset >= self.pos && offset <= self.input.len());
        self.pos = offset;
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
    fn integers_are_spelled_at_every_digit_boundary() {
        let mut numbers = vec![0, u64::from(u32::MAX), (1 << 53) - 1];
        for k in 1..=15 {
            numbers.extend([10u64.pow(k) - 1, 10u64.pow(k)]);
        }
        for i in 1..53 {
            numbers.extend([(1u64 << i) - 1, 1 << i]);
        }
        for n in numbers {
            let text = n.to_string();
            if let Ok(small) = u32::try_from(n) {
                assert_eq!(digit_count(small), text.len(), "{n}");
            }
            let mut out = Vec::new();
            push_u64(&mut out, n);
            assert_eq!(out, text.as_bytes(), "{n}");
        }
    }

    #[test]
    fn non_digit_bits_flag_exactly_the_non_digits() {
        for b in 0..=u8::MAX {
            for at in 0..8 {
                let mut word = *b"01234567";
                word[at] = b;
                let want = if b.is_ascii_digit() { 0 } else { 1 << at };
                assert_eq!(
                    non_digit_bits(u64::from_le_bytes(word)),
                    want,
                    "{b:#x} at {at}"
                );
            }
        }
    }

    #[test]
    fn numbers_parse_in_all_forms() {
        assert_eq!(parse("-0.5e2").unwrap().as_f64(), Some(-50.0));
        assert_eq!(parse("12").unwrap().as_u64(), Some(12));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
