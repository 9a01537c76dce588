//! Minimal JSON parser and printer.
//!
//! Log records are stored as JSON text lines in the simulated HDFS, exactly
//! as the paper describes ("logs are stored as flat HDFS files in HV in a
//! text-based format such as JSON"). The HV scan operator plays the role of
//! Hive's SerDe by parsing each line through [`parse_json`].
//!
//! This is a deliberately small, strict recursive-descent parser: full
//! string escapes, RFC 8259 numbers (integers kept exact as `i64` when
//! possible), nested arrays/objects up to [`MAX_DEPTH`] levels, and precise
//! error offsets. It is not a general
//! serde backend — the sanctioned offline crate set includes `serde` but not
//! `serde_json`, and the stores only need `Value` round-trips.
//!
//! Beside it sits the fast path the columnar scan reads logs with, and
//! [`RawColumns`], which keeps every member of every line of a log as a
//! raw column in one pass, so that no later read of the log lexes a line
//! again. The pass reads a line one of two ways:
//!
//! - **Layout-keyed.** A log's lines share a layout. When a line holds the
//!   previous line's members — the same `"key":` bytes, in the same order —
//!   each value is lexed straight into its key's column with one typed push
//!   (a plain string's bytes with one `extend_from_slice`, an array of
//!   plain strings item by item into a list slot), and no key is lexed,
//!   compared by name or staged. A line that departs anywhere — another
//!   key, another order, a member more or less, whitespace before a colon,
//!   an escape, a value the column does not take as it stands — is taken
//!   back (every column truncated to the rows before it) and read the
//!   other way.
//! - **By key.** One walk over the line's top-level members
//!   (`walk_flat_line`) that builds no tree; each member is placed under
//!   its key, the last duplicate winning. A line outside the walk's subset
//!   (an escape in a key or a top-level string, a document that is no
//!   object) is parsed by [`parse_json`].
//!
//! Both ways find where a string ends eight bytes at a time: one SWAR test
//! per word marks every `"`, `\` and control byte exactly, and the first
//! mark is found by its trailing zeros, never by a loop over the bytes
//! before it. A string that holds a `\` or a control byte is outside the
//! subset, so the first mark ends a plain string or declines it.
//!
//! The guarantee is the strict parser's grammar, byte for byte: where
//! either way accepts a line, its columns are those [`parse_json`] gives
//! the line's object, and every line it declines goes to [`parse_json`]. A
//! number means the same on every path: all read it with one lexer.

use crate::batch::{ColBuilder, Column};
use crate::value::Value;
use miso_common::{pool, MisoError, Result};
use std::fmt::Write;
use std::sync::{Arc, Mutex};

/// Deepest container nesting a document may have: a scalar is depth 0, `[]`
/// depth 1, `[[]]` depth 2. The parser recurses once per level, so without
/// a cap a log line of a million `[` overflows the stack and aborts the
/// process; with it such a line is a classified parse error — one more
/// malformed line to skip.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document into a [`Value`].
///
/// Trailing non-whitespace input is an error: each log line must be exactly
/// one JSON value. So is nesting deeper than [`MAX_DEPTH`].
pub fn parse_json(input: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value::<true>(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Serializes a [`Value`] to compact JSON.
///
/// `Null`→`null`, strings are escaped, objects print in their canonical
/// (sorted) key order. Non-finite floats serialize as `null`, matching the
/// common lenient-writer behaviour.
pub fn to_json(value: &Value) -> String {
    let mut out = String::with_capacity(64);
    write_value(value, &mut out);
    out
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => write_bool(*b, out),
        Value::Int(i) => write_int(*i, out),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_bool(b: bool, out: &mut String) {
    out.push_str(if b { "true" } else { "false" });
}

fn write_int(i: i64, out: &mut String) {
    let _ = write!(out, "{i}");
}

/// A float in its shortest round-trip digits, with `.0` appended when they
/// read as an integer so it parses back as a float; `null` when not finite.
fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        let start = out.len();
        let _ = write!(out, "{f}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// A quoted string. Only ASCII bytes are escaped, so the text between them
/// is copied in runs.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes one JSON object member by member, straight to text, with no
/// [`Value`] in between: the bytes [`to_json`] gives the object of the same
/// members. Members must come in strictly ascending key order, the order
/// [`Value::object`] sorts them into (a debug build asserts it).
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    last: Option<&'static str>,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub(crate) fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, last: None }
    }

    fn key(&mut self, key: &'static str) -> &mut String {
        if let Some(last) = self.last {
            debug_assert!(last < key, "member `{key}` written after `{last}`");
            self.out.push(',');
        }
        self.last = Some(key);
        write_string(key, self.out);
        self.out.push(':');
        self.out
    }

    pub(crate) fn int(&mut self, key: &'static str, v: i64) {
        write_int(v, self.key(key));
    }

    pub(crate) fn float(&mut self, key: &'static str, v: f64) {
        write_float(v, self.key(key));
    }

    pub(crate) fn bool(&mut self, key: &'static str, v: bool) {
        write_bool(v, self.key(key));
    }

    pub(crate) fn str(&mut self, key: &'static str, v: &str) {
        write_string(v, self.key(key));
    }

    /// An array of strings.
    pub(crate) fn strs(&mut self, key: &'static str, items: &[&str]) {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(item, out);
        }
        out.push(']');
    }

    /// Closes the object.
    pub(crate) fn finish(self) {
        self.out.push('}');
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> MisoError {
        MisoError::Parse(format!("JSON at byte {}: {}", self.pos, msg))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    /// One value whose containers sit `depth` levels deep already. With
    /// `BUILD` off the same grammar is walked and checked but nothing is
    /// allocated: strings come back empty and containers as `Null`, for a
    /// caller that only wants to know where a valid value ends.
    fn parse_value<const BUILD: bool>(&mut self, depth: usize) -> Result<Value> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.parse_object::<BUILD>(depth + 1),
            Some(b'[') => self.parse_array::<BUILD>(depth + 1),
            Some(b'"') => Ok(Value::Str(self.parse_string::<BUILD>()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(&format!("unexpected byte `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{kw}`")))
        }
    }

    /// The members of an object at nesting level `depth`.
    fn parse_object<const BUILD: bool>(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string::<BUILD>()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value::<BUILD>(depth)?;
            if BUILD {
                fields.push((key, value));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
        Ok(if BUILD {
            Value::object(fields)
        } else {
            Value::Null
        })
    }

    /// The items of an array at nesting level `depth`.
    fn parse_array<const BUILD: bool>(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            let item = self.parse_value::<BUILD>(depth)?;
            if BUILD {
                items.push(item);
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
        Ok(if BUILD {
            Value::Array(items)
        } else {
            Value::Null
        })
    }

    fn parse_string<const BUILD: bool>(&mut self) -> Result<String> {
        self.expect(b'"')?;
        // Every escape is checked either way; only `BUILD` keeps the text.
        let mut out = Text::<BUILD>(String::new());
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out.0),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Handle surrogate pairs for completeness.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired high surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?,
                            );
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.error("unexpected low surrogate"));
                        } else {
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?,
                            );
                        }
                    }
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(b) => {
                    // Reassemble multi-byte UTF-8: since input is &str, bytes
                    // are valid UTF-8; collect the full codepoint.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(b);
                        let end = start + width;
                        if end > self.bytes.len() {
                            return Err(self.error("truncated UTF-8"));
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.error("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("expected 4 hex digits"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let (num, end) =
            lex_number(self.bytes, self.pos).ok_or_else(|| self.error("invalid number literal"))?;
        self.pos = end;
        Ok(num.to_value())
    }
}

/// The one number lexer, RFC 8259's grammar exactly —
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?` — for the strict
/// parser and the fast path alike: the number that starts at byte `pos` and
/// the offset just past it, an integer kept exact as `Int` when it fits
/// `i64` and anything else a `Float`. `None` where no number of the grammar
/// starts there (`-.5`, `1.`, `1.e5`). What follows is the caller's to
/// check, so `01` lexes as `0` and leaves the `1` to be refused.
fn lex_number(b: &[u8], mut pos: usize) -> Option<(FlatVal<'static>, usize)> {
    let start = pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        *pos > from
    };
    let negative = b.get(pos) == Some(&b'-');
    if negative {
        pos += 1;
    }
    // The integer part, summed as it is read — negated, so that `i64::MIN`
    // fits — and `None` once it leaves `i64`.
    let mut int = Some(0i64);
    match b.get(pos)? {
        b'0' => pos += 1,
        b'1'..=b'9' => {
            while let Some(&c @ b'0'..=b'9') = b.get(pos) {
                int = int.and_then(|v| v.checked_mul(10)?.checked_sub(i64::from(c - b'0')));
                pos += 1;
            }
        }
        _ => return None,
    }
    let integral = pos;
    if b.get(pos) == Some(&b'.') {
        pos += 1;
        digits(&mut pos).then_some(())?;
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        digits(&mut pos).then_some(())?;
    }
    let int = int.filter(|_| pos == integral);
    let num = match int.and_then(|v| if negative { Some(v) } else { v.checked_neg() }) {
        Some(i) => FlatVal::Int(i),
        // A fraction, an exponent or an integer past `i64`: a float.
        None => {
            let text = std::str::from_utf8(&b[start..pos]).expect("a number is ASCII");
            FlatVal::Float(text.parse::<f64>().ok()?)
        }
    };
    Some((num, pos))
}

/// The text of a string literal being parsed, kept only when `BUILD`.
struct Text<const BUILD: bool>(String);

impl<const BUILD: bool> Text<BUILD> {
    fn push(&mut self, c: char) {
        if BUILD {
            self.0.push(c);
        }
    }

    fn push_str(&mut self, s: &str) {
        if BUILD {
            self.0.push_str(s);
        }
    }
}

fn utf8_width(first_byte: u8) -> usize {
    match first_byte {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// A top-level field value from the zero-copy line fast path: strings
/// borrow from the input line instead of allocating, and an array or object
/// is carried as its raw text.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlatVal<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
    /// The text of an array or object the strict parser accepted where it
    /// stands in the line; [`FlatVal::to_value`] parses it.
    Nested(&'a str),
}

impl FlatVal<'_> {
    /// The equivalent owned [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            FlatVal::Null => Value::Null,
            FlatVal::Bool(b) => Value::Bool(*b),
            FlatVal::Int(i) => Value::Int(*i),
            FlatVal::Float(f) => Value::Float(*f),
            FlatVal::Str(s) => Value::Str((*s).to_string()),
            FlatVal::Nested(raw) => {
                parse_json(raw).expect("validated when parse_flat_line scanned the line")
            }
        }
    }
}

/// A `"`-delimited run at `pos` with no escapes and no control bytes, and
/// the offset just past its closing quote; multi-byte UTF-8 passes through
/// untouched (its bytes are all >= 0x80). The run is read eight bytes at a
/// time: the first byte of a word that is a `"`, a `\\` or a control byte
/// is where it stops, found by its mask's trailing zeros, never by looking
/// at the bytes before it one by one.
fn lex_simple_str(line: &str, pos: usize) -> Option<(&str, usize)> {
    let b = line.as_bytes();
    if b.get(pos) != Some(&b'"') {
        return None;
    }
    let start = pos + 1;
    let mut at = start;
    loop {
        let stops = stop_bytes(word_at(b, at));
        if stops != 0 {
            at += (stops.trailing_zeros() / 8) as usize;
            break;
        }
        at += 8;
    }
    // A stop past the end is the zero padding: an unterminated run.
    (b.get(at) == Some(&b'"')).then(|| {
        // `start..at` is bounded by ASCII quotes, so it is a char boundary.
        (&line[start..at], at + 1)
    })
}

/// The eight bytes of `b` from `at`, the first in the low byte; bytes past
/// the end read as zero.
#[inline]
fn word_at(b: &[u8], at: usize) -> u64 {
    match b.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
        None => {
            let mut word = [0u8; 8];
            let tail = b.get(at..).unwrap_or_default();
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    }
}

/// The high bit of every byte of `word` that stops a plain string: a `"`,
/// a `\\` or a control byte (below 0x20). Each byte is tested on its own —
/// no borrow crosses a byte — so the mask is exact.
#[inline]
fn stop_bytes(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const LOW: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // High bit set where the byte is at least `n`: its low seven bits plus
    // `0x80 − n` carry into bit 7, or bit 7 is set already.
    let at_least = |x: u64, n: u8| ((x & LOW) + ONES * u64::from(0x80 - n)) | x;
    let nonzero = |x: u64| ((x & LOW) + LOW) | x;
    let quote = nonzero(word ^ (ONES * u64::from(b'"')));
    let backslash = nonzero(word ^ (ONES * u64::from(b'\\')));
    !(quote & backslash & at_least(word, 0x20)) & !LOW
}

/// Moves `pos` past JSON whitespace.
fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

/// The array of plain strings — items [`lex_simple_str`] reads — that
/// starts at byte `pos` of `text`: each item handed to `item` in order, and
/// the offset just past the closing `]`. The strict parser accepts such an
/// array and ends it at the same byte, so where this answers there is no
/// need to ask it. `None` for any other value, after some items may have
/// been handed over.
fn lex_str_items<'a>(
    text: &'a str,
    mut pos: usize,
    mut item: impl FnMut(&'a str),
) -> Option<usize> {
    let b = text.as_bytes();
    if b.get(pos) != Some(&b'[') {
        return None;
    }
    pos += 1;
    skip_ws(b, &mut pos);
    if b.get(pos) == Some(&b']') {
        return Some(pos + 1);
    }
    loop {
        skip_ws(b, &mut pos);
        let (s, end) = lex_simple_str(text, pos)?;
        item(s);
        pos = end;
        skip_ws(b, &mut pos);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b']') => return Some(pos + 1),
            _ => return None,
        }
    }
}

/// The items of `raw`, an array's text, into `items` when every item is a
/// string `lex_simple_str` reads: what lets a reader keep such an array as
/// strings instead of building its tree. `Some` implies
/// `parse_json(raw) == Ok(Value::Array(items as Value::Str))`. `None` for
/// anything else — an escape, a number, a `null`, a nested container — with
/// `items` holding what was read before it.
fn lex_str_array<'a>(raw: &'a str, items: &mut Vec<&'a str>) -> Option<()> {
    items.clear();
    let end = lex_str_items(raw, 0, |s| items.push(s))?;
    (end == raw.len()).then_some(())
}

/// The one value lexer of the fast path: the top-level field value that
/// starts at byte `pos` of an object line, and the offset just past it.
/// `None` for anything outside the fast subset.
fn lex_value(line: &str, mut pos: usize) -> Option<(FlatVal<'_>, usize)> {
    let b = line.as_bytes();
    let val = match b.get(pos)? {
        b'"' => {
            let (s, end) = lex_simple_str(line, pos)?;
            pos = end;
            FlatVal::Str(s)
        }
        b'{' | b'[' => {
            let end = match lex_str_items(line, pos, |_| {}) {
                Some(end) => end,
                None => {
                    // This line's object is level 1 already.
                    let mut p = Parser { bytes: b, pos };
                    p.parse_value::<false>(1).ok()?;
                    p.pos
                }
            };
            // ASCII brackets bound the slice: char boundaries.
            let raw = &line[pos..end];
            pos = end;
            FlatVal::Nested(raw)
        }
        b't' if b[pos..].starts_with(b"true") => {
            pos += 4;
            FlatVal::Bool(true)
        }
        b'f' if b[pos..].starts_with(b"false") => {
            pos += 5;
            FlatVal::Bool(false)
        }
        b'n' if b[pos..].starts_with(b"null") => {
            pos += 4;
            FlatVal::Null
        }
        b'-' | b'0'..=b'9' => {
            let (num, end) = lex_number(b, pos)?;
            pos = end;
            num
        }
        _ => return None,
    };
    Some((val, pos))
}

/// The one walk over an object line's top-level members, in line order:
/// `member(key, value)`. `None` — possibly after some members were
/// reported — as soon as anything outside the fast subset appears; see
/// [`parse_flat_line`] for the subset and the guarantee.
fn walk_flat_line<'a>(line: &'a str, mut member: impl FnMut(&'a str, FlatVal<'a>)) -> Option<()> {
    let b = line.as_bytes();
    let mut pos = 0usize;
    let skip_ws = |pos: &mut usize| skip_ws(b, pos);
    skip_ws(&mut pos);
    if b.get(pos) != Some(&b'{') {
        return None;
    }
    pos += 1;
    skip_ws(&mut pos);
    if b.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(&mut pos);
            let (key, end) = lex_simple_str(line, pos)?;
            pos = end;
            skip_ws(&mut pos);
            if b.get(pos) != Some(&b':') {
                return None;
            }
            pos += 1;
            skip_ws(&mut pos);
            let (val, end) = lex_value(line, pos)?;
            member(key, val);
            pos = end;
            skip_ws(&mut pos);
            match b.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return None,
            }
        }
    }
    skip_ws(&mut pos);
    (pos == b.len()).then_some(())
}

/// Zero-copy fast parse of one JSON object line — the shape of every
/// generated log record: `{"key": value, ...}` with no string escapes at
/// the top level. A nested array or object is walked in place but not
/// built — an array of plain strings by `lex_str_items`, anything else by
/// the strict parser (escapes, depth cap and all): it comes back as
/// [`FlatVal::Nested`], its raw text, and costs a tree only if that field
/// is asked for and is not such an array.
///
/// Returns `None` as soon as anything outside the subset appears (a `\`
/// escape in a key or top-level string, a non-object top level, trailing
/// characters, a nested value the strict parser rejects…); the caller must
/// then fall back to [`parse_json`]. The guarantee is one-sided and exact:
/// `Some(fields)` implies
/// `parse_json(line) == Ok(Value::object(fields as owned values))`
/// with the same duplicate-key (last-wins) and number semantics — the
/// grammar is byte-for-byte the strict parser's.
pub fn parse_flat_line(line: &str) -> Option<Vec<(&str, FlatVal<'_>)>> {
    let mut fields = Vec::new();
    walk_flat_line(line, |key, val| fields.push((key, val)))?;
    Some(fields)
}

/// Every top-level field of a run of log lines, one raw column per key:
/// what one lexing pass over the lines keeps, so that no line is lexed
/// again, however many fields are read later and under whatever cast.
///
/// A row per well-formed line, in line order; a malformed line is counted
/// and skipped. Each column is the one a [`ColBuilder`] makes of the values
/// [`parse_json`] gives the line's object under that key — the last
/// duplicate wins, a key the line lacks (or a document that is no object)
/// is NULL — with an array of plain strings kept as a list slot and not
/// built as a tree. Keys are held in order of first sight, which no reader
/// depends on.
#[derive(Debug, Clone, Default)]
pub struct RawColumns {
    keys: Vec<String>,
    cols: Vec<Arc<Column>>,
    rows: usize,
    skipped: u64,
}

impl RawColumns {
    /// One serial pass over `lines`. A line that holds the previous line's
    /// members — the same `"key":` bytes in the same order — has each value
    /// lexed straight into its column (`Run::layout_line`); any other is
    /// walked by `walk_flat_line` and its members placed by key, or, outside
    /// the fast subset, parsed once by [`parse_json`], and dropped if that
    /// fails too. A key first seen mid-run is NULL on every row before.
    pub fn lex(lines: &[String]) -> RawColumns {
        let mut run = Run::default();
        for line in lines {
            if !run.layout_line(line) && !run.any_line(line) {
                run.skipped += 1;
                continue;
            }
            run.rows += 1;
            // The first line names nearly every key: room for all the rows.
            if run.rows == 1 {
                for b in &mut run.builders {
                    b.reserve(lines.len());
                }
            }
        }
        let cols = run.builders.into_iter().map(|b| Arc::new(b.finish()));
        RawColumns {
            keys: run.keys,
            cols: cols.collect(),
            rows: run.rows,
            skipped: run.skipped,
        }
    }

    /// Joins runs of consecutive lines, in order: the columns one pass over
    /// all of their lines keeps. Each key's parts are joined by
    /// [`Column::concat`], a run that lacks the key giving NULLs, one column
    /// a task on the worker pool, the largest first.
    pub fn concat(runs: Vec<RawColumns>) -> RawColumns {
        let mut keys: Vec<String> = Vec::new();
        for key in runs.iter().flat_map(|run| &run.keys) {
            if !keys.contains(key) {
                keys.push(key.clone());
            }
        }
        let mut parts: Vec<Vec<Column>> = keys.iter().map(|_| Vec::new()).collect();
        let (mut rows, mut skipped) = (0, 0);
        for run in runs {
            let mut cols: Vec<Option<Arc<Column>>> = run.cols.into_iter().map(Some).collect();
            for (key, parts) in keys.iter().zip(&mut parts) {
                let col = run.keys.iter().position(|k| k == key);
                let col = col.and_then(|slot| cols[slot].take());
                parts.push(col.map_or_else(|| nulls(run.rows), Arc::unwrap_or_clone));
            }
            rows += run.rows;
            skipped += run.skipped;
        }
        let mut order: Vec<usize> = (0..parts.len()).collect();
        let size = |k: &usize| parts[*k].iter().map(Column::approx_bytes).sum::<u64>();
        order.sort_by_cached_key(|k| std::cmp::Reverse(size(k)));
        let parts: Vec<Mutex<Vec<Column>>> = parts.into_iter().map(Mutex::new).collect();
        let mut joined = pool::run_batch(order.len(), |task| {
            let k = order[task];
            let parts = std::mem::take(&mut *parts[k].lock().expect("taking parts cannot panic"));
            (k, Arc::new(Column::concat(parts)))
        })
        .unwrap_or_else(|e| panic!("{e}"));
        joined.sort_unstable_by_key(|&(k, _)| k);
        RawColumns {
            keys,
            cols: joined.into_iter().map(|(_, col)| col).collect(),
            rows,
            skipped,
        }
    }

    /// Extends every column by `tail`'s, the columns of the lines that
    /// follow these: [`RawColumns::concat`] of the two.
    pub fn append(&mut self, tail: RawColumns) {
        *self = RawColumns::concat(vec![std::mem::take(self), tail]);
    }

    /// The raw column under `key`; `None` when no line has the key.
    pub fn column(&self, key: &str) -> Option<&Arc<Column>> {
        let slot = self.keys.iter().position(|k| k == key)?;
        Some(&self.cols[slot])
    }

    /// Distinct keys, one column each.
    pub fn width(&self) -> usize {
        self.keys.len()
    }

    /// Well-formed lines: every column's length.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Malformed lines, skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Footprint of the columns' cells ([`Column::approx_bytes`]).
    pub fn approx_bytes(&self) -> u64 {
        self.cols.iter().map(|c| c.approx_bytes()).sum()
    }
}

/// `n` NULL slots: the column a builder makes of them.
fn nulls(n: usize) -> Column {
    ColBuilder::Unknown(n).finish()
}

/// The state of one [`RawColumns::lex`] pass.
#[derive(Default)]
struct Run<'a> {
    keys: Vec<String>,
    builders: Vec<ColBuilder>,
    rows: usize,
    skipped: u64,
    /// The members of the last line read by key, in line order: each as the
    /// bytes `"key":` that open it, and its column. A log's lines share a
    /// layout, so the next line nearly always holds these bytes where they
    /// stood. Empty when that line had a key twice, or no member.
    layout: Vec<(String, usize)>,
    /// The columns `layout` lacks: NULL on a line that follows it.
    absent: Vec<usize>,
    /// A line's members and the value under each key, staged by
    /// [`Run::any_line`]; `items` is the list lexer's scratch.
    members: Vec<(&'a str, FlatVal<'a>)>,
    vals: Vec<FlatVal<'a>>,
    items: Vec<&'a str>,
}

impl<'a> Run<'a> {
    /// Reads `line` when it follows the layout: each member's value lexed
    /// and pushed at once into its column, with no key lexed, compared or
    /// staged. False — with every column as it was — at the first byte that
    /// departs from the layout or from the fast subset, or at a value the
    /// column cannot take as it stands (a type clash, a first non-NULL).
    fn layout_line(&mut self, line: &'a str) -> bool {
        let b = line.as_bytes();
        let Some(last) = self.layout.len().checked_sub(1) else {
            return false;
        };
        let mut pos = 0;
        skip_ws(b, &mut pos);
        if b.get(pos) != Some(&b'{') {
            return false;
        }
        pos += 1;
        for (m, (open, slot)) in self.layout.iter().enumerate() {
            skip_ws(b, &mut pos);
            let follows = b[pos..].starts_with(open.as_bytes())
                && {
                    pos += open.len();
                    skip_ws(b, &mut pos);
                    push_member(&mut self.builders[*slot], line, &mut pos)
                }
                && {
                    skip_ws(b, &mut pos);
                    b.get(pos) == Some(if m == last { &b'}' } else { &b',' })
                };
            if !follows {
                self.undo(m);
                return false;
            }
            pos += 1;
        }
        skip_ws(b, &mut pos);
        if pos != b.len() {
            self.undo(last);
            return false;
        }
        for &slot in &self.absent {
            self.builders[slot].push_null();
        }
        true
    }

    /// Takes back what [`Run::layout_line`] pushed for members `0..=m`.
    fn undo(&mut self, m: usize) {
        for (_, slot) in &self.layout[..=m] {
            self.builders[*slot].truncate(self.rows);
        }
    }

    /// Reads any line: walked by `walk_flat_line` and its members placed
    /// by key (the last duplicate wins), or parsed by [`parse_json`]. False
    /// for a line neither accepts.
    fn any_line(&mut self, line: &'a str) -> bool {
        self.members.clear();
        let members = &mut self.members;
        if walk_flat_line(line, |key, val| members.push((key, val))).is_some() {
            self.vals.clear();
            let mut distinct = true;
            for m in 0..self.members.len() {
                let (key, val) = self.members[m];
                let slot = match self.layout.get(m) {
                    Some(&(_, slot)) if self.keys[slot] == key => slot,
                    _ => self.slot_of(key),
                };
                self.vals.resize(self.keys.len(), FlatVal::Null);
                distinct &= self.members[..m].iter().all(|&(k, _)| k != key);
                self.vals[slot] = val;
            }
            self.vals.resize(self.keys.len(), FlatVal::Null);
            for (b, &val) in self.builders.iter_mut().zip(&self.vals) {
                push_raw(b, val, &mut self.items);
            }
            self.set_layout(distinct);
        } else if let Ok(doc) = parse_json(line) {
            if let Value::Object(fields) = &doc {
                for (key, _) in fields {
                    self.slot_of(key);
                }
            }
            for (key, b) in self.keys.iter().zip(&mut self.builders) {
                b.push_value(doc.get_field(key).cloned().unwrap_or(Value::Null));
            }
            // The layout stands, but a new key is absent from it.
            self.set_absent();
        } else {
            return false;
        }
        true
    }

    /// The column of `key`, opened NULL on the rows so far if it is new.
    fn slot_of(&mut self, key: &str) -> usize {
        self.keys.iter().position(|k| k == key).unwrap_or_else(|| {
            self.keys.push(key.to_string());
            self.builders.push(ColBuilder::Unknown(self.rows));
            self.keys.len() - 1
        })
    }

    /// Makes the members just placed the layout — each key's `"key":` and
    /// its column — when no key came twice; clears it otherwise.
    fn set_layout(&mut self, distinct: bool) {
        let n = if distinct { self.members.len() } else { 0 };
        self.layout.resize_with(n, Default::default);
        for ((open, slot), &(key, _)) in self.layout.iter_mut().zip(&self.members) {
            open.clear();
            open.push('"');
            open.push_str(key);
            open.push_str("\":");
            *slot = self
                .keys
                .iter()
                .position(|k| k == key)
                .expect("each member was placed");
        }
        self.set_absent();
    }

    /// The columns the layout lacks.
    fn set_absent(&mut self) {
        self.absent.clear();
        self.absent.extend(0..self.keys.len());
        self.absent
            .retain(|slot| self.layout.iter().all(|(_, s)| s != slot));
    }
}

/// Lexes the value at `*pos` straight into `b`, its column, and moves
/// `pos` past it: a `null` into any column, and otherwise a value of the
/// column's kind — a plain string one `extend_from_slice` into a string
/// column's text, an array of plain strings item by item into a list
/// column, a number that keeps an integer or float column's type, a
/// boolean — or any value into a column already `Mixed`. False, with `b`
/// maybe holding part of the value, for anything else.
fn push_member(b: &mut ColBuilder, line: &str, pos: &mut usize) -> bool {
    let bytes = line.as_bytes();
    let keyword = |kw: &[u8]| bytes[*pos..].starts_with(kw).then_some(*pos + kw.len());
    let end = if bytes.get(*pos) == Some(&b'n') {
        keyword(b"null").inspect(|_| b.push_null())
    } else {
        match b {
            ColBuilder::Str(v, _) => lex_simple_str(line, *pos).map(|(s, end)| {
                v.push(s);
                end
            }),
            ColBuilder::StrList(v, _) => {
                lex_str_items(line, *pos, |s| v.push_item(s)).inspect(|_| v.close())
            }
            ColBuilder::Int(v, _) => match lex_number(bytes, *pos) {
                Some((FlatVal::Int(i), end)) => {
                    v.push(i);
                    Some(end)
                }
                _ => None,
            },
            ColBuilder::Float(v, _) => match lex_number(bytes, *pos) {
                Some((FlatVal::Float(f), end)) => {
                    v.push(f);
                    Some(end)
                }
                _ => None,
            },
            ColBuilder::Bool(v, _) => {
                let (x, end) = match bytes.get(*pos) {
                    Some(b't') => (true, keyword(b"true")),
                    _ => (false, keyword(b"false")),
                };
                end.inspect(|_| v.push(x))
            }
            ColBuilder::Mixed(v) => lex_value(line, *pos).map(|(val, end)| {
                v.push(val.to_value());
                end
            }),
            ColBuilder::Unknown(_) => None,
        }
    };
    end.map(|end| *pos = end).is_some()
}

/// Pushes a fast-path value as is: a scalar onto its typed arm, an array of
/// plain strings lexed straight into a list slot (`items` being the lexer's
/// scratch), any other nested value as its tree.
fn push_raw<'a>(b: &mut ColBuilder, val: FlatVal<'a>, items: &mut Vec<&'a str>) {
    match val {
        FlatVal::Null => b.push_null(),
        FlatVal::Bool(x) => b.push_bool(x),
        FlatVal::Int(i) => b.push_i64(i),
        FlatVal::Float(f) => b.push_f64(f),
        FlatVal::Str(s) => b.push_str(s),
        FlatVal::Nested(raw) => match lex_str_array(raw, items) {
            Some(()) => b.push_strs(items.iter().copied()),
            None => b.push_value(val.to_value()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fields the fast path found, as the object the strict parser
    /// would build of them.
    fn flat_object(line: &str) -> Option<Value> {
        parse_flat_line(line).map(|flat| {
            Value::object(
                flat.iter()
                    .map(|(k, v)| ((*k).to_string(), v.to_value()))
                    .collect(),
            )
        })
    }

    /// `levels` arrays inside one another, as the value of field `a`.
    fn nested_line(levels: usize) -> String {
        format!("{{\"a\": {}{}}}", "[".repeat(levels), "]".repeat(levels))
    }

    /// The fast path must agree with the strict parser wherever it accepts,
    /// and decline (never mis-accept) everything else.
    #[test]
    fn flat_line_agrees_with_strict_parser() {
        let at_cap = nested_line(MAX_DEPTH - 1);
        let accepted = [
            r#"{}"#,
            r#"{"a": 1}"#,
            r#"  { "a" : -12 , "b" : "x y" , "c" : true , "d" : null }  "#,
            r#"{"f": 3.5, "g": 1e3, "h": -0.0, "i": 1.25, "j": 1E+2}"#,
            r#"{"dup": 1, "dup": 2}"#,
            r#"{"big": 99999999999999999999}"#,
            r#"{"uni": "héllo ✓"}"#,
            r#"{"empty": ""}"#,
            // Nested values ride along as raw text.
            r#"{"nested": {"a": 1}}"#,
            r#"{"arr": [1]}"#,
            r#"{"e": [], "o": {}, "ws": [ 1 , { "k" : [ ] } ] }"#,
            r#"{"a": [{"b": {"c": [1, 2.5, "x", null, true]}}], "z": 1}"#,
            r#"{"tags": ["a\"b", "c\\", "\u00e9\ud83d\ude00", "}", "]", "{["], "n": 2}"#,
            r#"{"o": {"k}": "]", "dup": 1, "dup": [2]}}"#,
            r#"{"dup": 1, "dup": {"x": [1]}}"#,
            r#"{"dup": [1], "dup": 2}"#,
            r#"{"deep": [[[[[[[[1]]]]]]]]}"#,
            at_cap.as_str(),
        ];
        for line in accepted {
            let flat =
                flat_object(line).unwrap_or_else(|| panic!("fast path should accept {line}"));
            assert_eq!(parse_json(line).unwrap(), flat, "disagreement on {line}");
        }
        let over_cap = nested_line(MAX_DEPTH);
        let declined = [
            r#"{"esc": "a\"b"}"#,
            r#"{"esc": "a\\b"}"#,
            r#"{"k\n": [1]}"#,
            r#"{"bad": tru}"#,
            r#"{"bad": 1x}"#,
            r#"{"bad": -}"#,
            r#"{"bad": 1e}"#,
            r#"{"bad": 1.}"#,
            r#"{"bad": 01}"#,
            r#"{"a": 1} trailing"#,
            r#"{"a": [1]} trailing"#,
            r#"{"a": 1"#,
            r#"{"a": [1, 2"#,
            r#"{"a": {"b": 1"#,
            r#"{"a": [1,]}"#,
            r#"{"a": [1 2]}"#,
            r#"{"a": {"b" 1}}"#,
            r#"{"a": {1: 2}}"#,
            r#"{"a": ["unterminated]}"#,
            r#"{"a": ["bad \x escape"]}"#,
            r#"{"a": ["\ud83d alone"]}"#,
            r#"{"a": [1e]}"#,
            r#"{"a": [tru]}"#,
            r#"{"a": [1]]}"#,
            r#"[1, 2]"#,
            r#"42"#,
            r#"{"a": 1,}"#,
            "{\"a\": [\"ctl\u{1}\"]}",
            "not json at all",
            "",
            over_cap.as_str(),
        ];
        for line in declined {
            assert!(parse_flat_line(line).is_none(), "should decline {line}");
        }
    }

    /// Wherever the fast path answers it equals the strict parser, and it
    /// never answers for a line the strict parser rejects — over every
    /// prefix and every one-byte edit of lines that mix nesting, escapes,
    /// brackets inside strings and duplicate keys.
    #[test]
    fn flat_line_never_accepts_what_the_strict_parser_rejects() {
        let seeds = [
            r#"{"id": 7, "tags": ["a", "b}"], "geo": {"lat": 1.5, "pt": [1, [2]]}, "t": "x"}"#,
            r#"{"a": [{"b": "\"]"}, null], "a": {"c": "\\"}, "n": -1e3}"#,
            r#" { "e" : [ ] , "o" : { } , "s" : "é" } "#,
        ];
        let mut checked = 0usize;
        let mut check = |line: &str| {
            let strict = parse_json(line);
            if let Some(flat) = flat_object(line) {
                assert_eq!(strict.ok(), Some(flat), "fast path disagrees on {line}");
            }
            checked += 1;
        };
        for seed in seeds {
            for (end, _) in seed.char_indices() {
                check(&seed[..end]);
            }
            for (at, c) in seed.char_indices() {
                for edit in ["", "[", "]", "{", "}", "\"", "\\", ",", ":", " ", "1"] {
                    let line = format!("{}{edit}{}", &seed[..at], &seed[at + c.len_utf8()..]);
                    check(&line);
                }
            }
            check(seed);
        }
        assert!(checked > 2000, "{checked} lines");
    }

    /// The column the strict parser gives `key` over `lines`: one builder
    /// fed each well-formed line's field, NULL where it is absent.
    fn strict_column(lines: &[String], key: &str) -> Column {
        let mut b = ColBuilder::new();
        for doc in lines.iter().filter_map(|line| parse_json(line).ok()) {
            b.push_value(doc.get_field(key).cloned().unwrap_or(Value::Null));
        }
        b.finish()
    }

    /// Every key any well-formed line of `lines` has, per the strict parser.
    fn strict_keys(lines: &[String]) -> Vec<String> {
        let mut keys: Vec<String> = Vec::new();
        for doc in lines.iter().filter_map(|line| parse_json(line).ok()) {
            if let Value::Object(fields) = doc {
                keys.extend(fields.into_iter().map(|(k, _)| k));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// `raw` holds exactly the strict parser's columns of `lines`: one per
    /// key, equal to [`strict_column`] (in `Debug` form, which tells signed
    /// zeros apart), with its row and skip counts.
    fn assert_strict(raw: &RawColumns, lines: &[String], what: &str) {
        let well_formed = lines.iter().filter(|l| parse_json(l).is_ok()).count();
        assert_eq!(raw.rows(), well_formed, "{what}: rows");
        assert_eq!(raw.skipped() as usize, lines.len() - well_formed, "{what}");
        let keys = strict_keys(lines);
        assert_eq!(raw.width(), keys.len(), "{what}: keys {keys:?}");
        for key in &keys {
            let got = raw
                .column(key)
                .unwrap_or_else(|| panic!("{what}: no `{key}`"));
            let want = strict_column(lines, key);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: `{key}`");
        }
        assert!(raw.column("absent").is_none(), "{what}");
    }

    /// The raw columns of one pass are the strict parser's fields — last
    /// duplicate wins, absent is NULL, a nested value is its tree or its
    /// list — over every prefix and every one-byte edit of the seed lines,
    /// lexed together so that layouts, strict and malformed lines mix; and
    /// so are the columns of the same lines lexed in runs and joined.
    #[test]
    fn raw_columns_agree_with_the_strict_parser() {
        let seeds = [
            r#"{"id": 7, "tags": ["a", "b}"], "geo": {"lat": 1.5, "pt": [1, [2]]}, "t": "x"}"#,
            r#"{"a": [{"b": "\"]"}, null], "a": {"c": "\\"}, "n": -1e3}"#,
            r#" { "e" : [ ] , "o" : { } , "s" : "é" } "#,
            r#"{"t": "esc\"aped", "id": 8, "n": 99999999999999999999}"#,
            r#"{"id": 1, "id": 2.5, "t": null, "t": true}"#,
        ];
        let mut lines: Vec<String> = Vec::new();
        for seed in seeds {
            lines.push(seed.to_string());
            lines.extend(seed.char_indices().map(|(end, _)| seed[..end].to_string()));
            for (at, c) in seed.char_indices() {
                for edit in ["", "[", "}", "\"", "\\", ",", ":", "1"] {
                    lines.push(format!(
                        "{}{edit}{}",
                        &seed[..at],
                        &seed[at + c.len_utf8()..]
                    ));
                }
            }
        }
        lines.extend(["42", "[1]", "\"id\"", "{}", "", "null"].map(String::from));
        assert!(lines.len() > 2000, "{} lines", lines.len());
        let raw = RawColumns::lex(&lines);
        assert!(raw.width() > 20 && raw.skipped() > 500);
        assert_strict(&raw, &lines, "one run");
        for run in [1, 7, 500, lines.len()] {
            let runs = lines.chunks(run).map(RawColumns::lex).collect();
            assert_strict(&RawColumns::concat(runs), &lines, &format!("runs of {run}"));
        }
    }

    /// A key is found again wherever it recurs in another layout, opened
    /// NULL on the rows before it is first seen — on a fast-path line or only
    /// on a strict one — and closed NULL on the rows after its run ends; a
    /// duplicate's last value wins; a type clash degrades the column. An
    /// append is the pass over both runs, and nothing lexes to nothing.
    #[test]
    fn raw_columns_keep_every_key_and_layout() {
        let lines: Vec<String> = [
            r#"{"a": 1, "b": "x"}"#,
            r#"{"a": 2, "b": "y"}"#,
            r#"{"b": "z", "a": 3}"#,
            "not json",
            r#"{"a": 4, "b": "w", "c": true}"#,
            r#"{"a": "\n", "e\u0073c": 0.5}"#,
            r#"{"a": 5, "a": 6}"#,
            r#"[1, 2]"#,
        ]
        .map(String::from)
        .to_vec();
        let raw = RawColumns::lex(&lines);
        assert_eq!((raw.width(), raw.rows(), raw.skipped()), (4, 7, 1));
        let ints = [1, 2, 3, 4].map(Value::Int);
        let a: Vec<Value> = ints
            .into_iter()
            .chain([Value::str("\n"), Value::Int(6), Value::Null])
            .collect();
        assert_eq!(**raw.column("a").unwrap(), Column::Mixed(a));
        let c = raw.column("c").unwrap();
        assert!(matches!(**c, Column::Bool(..)) && c.is_null(2) && !c.is_null(3));
        let esc = raw.column("esc").unwrap();
        assert_eq!(
            esc.value(4),
            Value::Float(0.5),
            "a key only a strict line has"
        );
        assert!((0..7).filter(|&i| i != 4).all(|i| esc.is_null(i)));
        assert_strict(&raw, &lines, "hand-made lines");
        let bytes: u64 = ["a", "b", "c", "esc"]
            .map(|k| raw.column(k).unwrap().approx_bytes())
            .iter()
            .sum();
        assert_eq!(raw.approx_bytes(), bytes);
        for cut in 0..=lines.len() {
            let mut grown = RawColumns::lex(&lines[..cut]);
            grown.append(RawColumns::lex(&lines[cut..]));
            assert_strict(&grown, &lines, &format!("cut at {cut}"));
        }
        let empty = RawColumns::lex(&[]);
        assert_eq!((empty.width(), empty.rows(), empty.skipped()), (0, 0, 0));
        assert_eq!(empty.approx_bytes(), 0);
    }

    /// Numbers follow RFC 8259 on both paths: a table of literals is read
    /// alike by the strict parser, as a fast-path member and inside a nested
    /// array, and the forbidden ones are refused by all three.
    #[test]
    fn numbers_follow_rfc_8259_on_both_paths() {
        let accepted = [
            ("0", Value::Int(0)),
            ("-0", Value::Int(0)),
            ("7", Value::Int(7)),
            ("-12", Value::Int(-12)),
            ("10", Value::Int(10)),
            ("9223372036854775807", Value::Int(i64::MAX)),
            ("-9223372036854775808", Value::Int(i64::MIN)),
            ("9223372036854775808", Value::Float(9223372036854775808.0)),
            ("-9223372036854775809", Value::Float(-9223372036854775809.0)),
            ("99999999999999999999", Value::Float(1e20)),
            ("0.5", Value::Float(0.5)),
            ("-0.0", Value::Float(-0.0)),
            ("10.25", Value::Float(10.25)),
            ("1e5", Value::Float(1e5)),
            ("1E+2", Value::Float(100.0)),
            ("25e-2", Value::Float(0.25)),
            ("0e0", Value::Float(0.0)),
            ("-2.5E-3", Value::Float(-0.0025)),
        ];
        for (lit, want) in accepted {
            let strict = parse_json(lit).unwrap_or_else(|e| panic!("{lit}: {e}"));
            assert_eq!(format!("{strict:?}"), format!("{want:?}"), "{lit}");
            let line = format!(r#"{{"a": {lit}}}"#);
            let flat = parse_flat_line(&line).unwrap_or_else(|| panic!("{line}"));
            assert_eq!(format!("{:?}", flat[0].1.to_value()), format!("{want:?}"));
            let nested = format!(r#"{{"a": [{lit}]}}"#);
            let flat = parse_flat_line(&nested).unwrap_or_else(|| panic!("{nested}"));
            assert_eq!(flat[0].1.to_value(), Value::Array(vec![want]), "{nested}");
        }
        let rejected = [
            "01", "-01", "00", "1.", "-.5", ".5", "1.e5", "+1", "-", "--1", "1e", "1e+", "1E-",
            "0x10", "1.5.2", "1e5.0", "0.", "01.5", "-0.e1", "Infinity", "NaN", "1_000", "- 1",
        ];
        for lit in rejected {
            assert!(parse_json(lit).is_err(), "strict parser accepts {lit}");
            let line = format!(r#"{{"a": {lit}}}"#);
            assert!(parse_flat_line(&line).is_none(), "fast path accepts {line}");
            assert!(parse_json(&line).is_err(), "strict parser accepts {line}");
            let nested = format!(r#"{{"a": [{lit}]}}"#);
            assert!(
                parse_flat_line(&nested).is_none(),
                "fast path accepts {nested}"
            );
        }
    }

    /// An array lexed as strings is the strict parser's array, and every
    /// array outside that subset is declined.
    #[test]
    fn str_arrays_agree_with_the_strict_parser() {
        let accepted = [
            "[]",
            "[ ]",
            r#"["coffee"]"#,
            r#"[ "a" , "" ,"é ✓", "}", "]", "[{" ]"#,
        ];
        let mut items = Vec::new();
        for raw in accepted {
            lex_str_array(raw, &mut items).unwrap_or_else(|| panic!("should accept {raw}"));
            let strs = items.iter().map(|s| Value::str(*s)).collect();
            assert_eq!(parse_json(raw).unwrap(), Value::Array(strs), "{raw}");
        }
        let declined = [
            r#"["a\"b"]"#,
            r#"["a\\b"]"#,
            r#"["a"b"]"#,
            r#"["a", 1]"#,
            "[null]",
            r#"[["pizza"]]"#,
            r#"[{"k": "v"}]"#,
            r#"{"k": "v"}"#,
            r#""bare""#,
            r#"["a",]"#,
            r#"["a"] "#,
            r#"["a""#,
            "",
        ];
        for raw in declined {
            assert!(
                lex_str_array(raw, &mut items).is_none(),
                "should decline {raw}"
            );
        }
    }

    /// Nesting is capped: a line of a million `[` is a parse error, not a
    /// stack overflow, and the cap is exact.
    #[test]
    fn nesting_is_capped() {
        let levels = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&levels(MAX_DEPTH)).is_ok());
        let err = parse_json(&levels(MAX_DEPTH + 1)).unwrap_err();
        assert!(matches!(err, MisoError::Parse(_)), "{err}");
        assert!(err.to_string().contains("nesting"), "{err}");
        assert!(parse_json(&"[".repeat(1_000_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(1_000_000)).is_err());
        assert!(parse_flat_line(&format!("{{\"a\": {}", "[".repeat(1_000_000))).is_none());
        // Objects and arrays count alike, and the cap is per branch.
        let mixed = format!("{}1{}", "{\"k\":[".repeat(64), "]}".repeat(64));
        assert!(parse_json(&mixed).is_ok());
        let mixed = format!("[{}1{}]", "{\"k\":[".repeat(64), "]}".repeat(64));
        assert!(parse_json(&mixed).is_err());
        let wide = format!("[{}]", vec![levels(MAX_DEPTH - 1); 3].join(","));
        assert!(parse_json(&wide).is_ok());
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), Value::Null);
        assert_eq!(parse_json("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_json("false").unwrap(), Value::Bool(false));
        assert_eq!(parse_json("42").unwrap(), Value::Int(42));
        assert_eq!(parse_json("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse_json("3.25").unwrap(), Value::Float(3.25));
        assert_eq!(parse_json("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"user":{"id":7,"tags":["a","b"]},"ok":true}"#).unwrap();
        assert_eq!(
            v.get_field("user").unwrap().get_field("id"),
            Some(&Value::Int(7))
        );
        assert_eq!(
            v.get_field("user").unwrap().get_field("tags"),
            Some(&Value::Array(vec![Value::str("a"), Value::str("b")]))
        );
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse_json("  { \"a\" : [ 1 , 2 ] }\n").unwrap();
        assert_eq!(
            v.get_field("a"),
            Some(&Value::Array(vec![Value::Int(1), Value::Int(2)]))
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("{} x").is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "tru",
            "01a",
            "-",
        ] {
            assert!(parse_json(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\slash\\ unicode: ünïcødé 好";
        let json = to_json(&Value::str(s));
        assert_eq!(parse_json(&json).unwrap(), Value::str(s));
    }

    #[test]
    fn surrogate_pairs() {
        // U+1F600 GRINNING FACE as escaped surrogate pair
        let v = parse_json(r#""😀""#).unwrap();
        assert_eq!(v, Value::str("\u{1F600}"));
        assert!(parse_json(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse_json(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn control_characters_must_be_escaped() {
        assert!(parse_json("\"a\nb\"").is_err());
        assert_eq!(parse_json(r#""a\nb""#).unwrap(), Value::str("a\nb"));
    }

    #[test]
    fn huge_integers_degrade_to_float() {
        let v = parse_json("99999999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn roundtrip_structures() {
        let original = Value::object(vec![
            ("id".into(), Value::Int(123)),
            ("score".into(), Value::Float(4.5)),
            ("name".into(), Value::str("caffè")),
            (
                "tags".into(),
                Value::Array(vec![Value::str("x"), Value::Null, Value::Bool(false)]),
            ),
            (
                "nested".into(),
                Value::object(vec![("k".into(), Value::Array(vec![]))]),
            ),
        ]);
        let text = to_json(&original);
        assert_eq!(parse_json(&text).unwrap(), original);
    }

    #[test]
    fn float_serialization_keeps_floatness() {
        let v = Value::Float(2.0);
        let text = to_json(&v);
        assert_eq!(text, "2.0");
        assert_eq!(parse_json(&text).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(to_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_json(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn object_writer_matches_to_json() {
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.bool("a", false);
        w.float("b", 2.0);
        w.float("c", f64::NAN);
        w.float("d", -0.25);
        w.int("e", -17);
        w.str("f", "q\"u\\o\nte\u{1}é 好");
        w.strs("g", &[]);
        w.strs("h", &["x", "y\t"]);
        w.finish();
        let value = Value::object(vec![
            (
                "h".into(),
                Value::Array(vec![Value::str("x"), Value::str("y\t")]),
            ),
            ("g".into(), Value::Array(vec![])),
            ("f".into(), Value::str("q\"u\\o\nte\u{1}é 好")),
            ("e".into(), Value::Int(-17)),
            ("d".into(), Value::Float(-0.25)),
            ("c".into(), Value::Float(f64::NAN)),
            ("b".into(), Value::Float(2.0)),
            ("a".into(), Value::Bool(false)),
        ]);
        assert_eq!(out, to_json(&value));
        let mut empty = String::new();
        ObjectWriter::new(&mut empty).finish();
        assert_eq!(empty, to_json(&Value::object(vec![])));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "member `a` written after `b`")]
    fn object_writer_rejects_keys_out_of_order() {
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.int("b", 1);
        w.int("a", 2);
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_json("{\"a\": @}").unwrap_err();
        assert!(err.to_string().contains("byte 6"), "{err}");
    }
}
