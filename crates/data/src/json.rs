//! Minimal JSON parser and printer.
//!
//! Log records are stored as JSON text lines in the simulated HDFS, exactly
//! as the paper describes ("logs are stored as flat HDFS files in HV in a
//! text-based format such as JSON"). The HV scan operator plays the role of
//! Hive's SerDe by parsing each line through [`parse_json`].
//!
//! This is a deliberately small, strict-enough recursive-descent parser:
//! full string escapes, numbers (integers kept exact as `i64` when possible),
//! nested arrays/objects up to [`MAX_DEPTH`] levels, and precise error
//! offsets. It is not a general
//! serde backend — the sanctioned offline crate set includes `serde` but not
//! `serde_json`, and the stores only need `Value` round-trips.
//!
//! Beside it sits the fast path the columnar scan reads logs with: one walk
//! over an object line's top-level members ([`parse_flat_line`]) that builds
//! no tree, one lexer for a member's value, and a [`LineIndex`] that records
//! where each value starts so that a log is walked once and read, field by
//! field, at those offsets afterwards.

use crate::value::Value;
use miso_common::{MisoError, Result};
use std::fmt::Write;

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
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number slice is ASCII");
        if text.is_empty() || text == "-" {
            return Err(self.error("invalid number"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.error("invalid float literal"))
        } else {
            // Keep integers exact when they fit; overflow falls back to f64.
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.error("invalid integer literal")),
            }
        }
    }
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
/// untouched (its bytes are all >= 0x80).
fn lex_simple_str(line: &str, pos: usize) -> Option<(&str, usize)> {
    let b = line.as_bytes();
    if b.get(pos) != Some(&b'"') {
        return None;
    }
    let start = pos + 1;
    let mut i = start;
    loop {
        match b.get(i)? {
            b'"' => break,
            b'\\' => return None,
            c if *c < 0x20 => return None,
            _ => i += 1,
        }
    }
    // `start..i` is bounded by ASCII quotes, so it is a char boundary.
    Some((&line[start..i], i + 1))
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
pub fn lex_str_array<'a>(raw: &'a str, items: &mut Vec<&'a str>) -> Option<()> {
    items.clear();
    let end = lex_str_items(raw, 0, |s| items.push(s))?;
    (end == raw.len()).then_some(())
}

/// The one value lexer of the fast path: the top-level field value that
/// starts at byte `pos` of an object line, and the offset just past it.
/// [`parse_flat_line`] lexes every value of a line with it and
/// [`LineIndex::for_each_line`] only the values it is asked for, at the
/// offsets the index recorded — so a value means the same whichever way it
/// was reached. `None` for anything outside the fast subset.
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
        c if *c == b'-' || c.is_ascii_digit() => {
            // Same number grammar as `Parser::parse_number`.
            let start = pos;
            if b.get(pos) == Some(&b'-') {
                pos += 1;
            }
            while matches!(b.get(pos), Some(c) if c.is_ascii_digit()) {
                pos += 1;
            }
            let mut is_float = false;
            if b.get(pos) == Some(&b'.') {
                is_float = true;
                pos += 1;
                while matches!(b.get(pos), Some(c) if c.is_ascii_digit()) {
                    pos += 1;
                }
            }
            if matches!(b.get(pos), Some(b'e' | b'E')) {
                is_float = true;
                pos += 1;
                if matches!(b.get(pos), Some(b'+' | b'-')) {
                    pos += 1;
                }
                while matches!(b.get(pos), Some(c) if c.is_ascii_digit()) {
                    pos += 1;
                }
            }
            let text = &line[start..pos];
            if text.is_empty() || text == "-" {
                return None;
            }
            if is_float {
                FlatVal::Float(text.parse::<f64>().ok()?)
            } else {
                match text.parse::<i64>() {
                    Ok(i) => FlatVal::Int(i),
                    Err(_) => FlatVal::Float(text.parse::<f64>().ok()?),
                }
            }
        }
        _ => return None,
    };
    Some((val, pos))
}

/// The one walk over an object line's top-level members, in line order:
/// `member(key, offset of the value, value)`. `None` — possibly after some
/// members were reported — as soon as anything outside the fast subset
/// appears; see [`parse_flat_line`] for the subset and the guarantee.
fn walk_flat_line<'a>(
    line: &'a str,
    mut member: impl FnMut(&'a str, usize, FlatVal<'a>),
) -> Option<()> {
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
            member(key, pos, val);
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
    walk_flat_line(line, |key, _, val| fields.push((key, val)))?;
    Some(fields)
}

/// How a [`LineIndex`] hands one well-formed line to its reader.
#[derive(Debug)]
pub enum IndexedLine<'a, 's> {
    /// A fast-path line: the value under each requested key, in request
    /// order ([`FlatVal::Null`] for a key the line lacks).
    Flat(&'s [FlatVal<'a>]),
    /// A line only the strict parser reads (an escape at the top level, a
    /// non-object document): [`parse_json`] accepts it.
    Strict(&'a str),
}

/// Where the top-level values of a run of log lines start, recorded by one
/// tokenizing pass so that a later reader lexes only the values it wants.
///
/// Per line: a *layout* — the line's top-level key sequence; a lookup
/// resolves duplicate keys to the last occurrence, as `Value::object` does —
/// and one `u32` value offset per member; or one of two marks, for a line
/// that only the strict parser accepts and for a malformed one. Generated
/// logs have one layout each, so a line costs `4 + 4 × members` bytes.
/// The index describes exactly the lines it was built from: reading it
/// against any other slice is a bug, and [`LineIndex::for_each_line`]
/// checks the length.
#[derive(Debug)]
pub struct LineIndex {
    /// Per line, an index into `layouts`, or [`STRICT`] / [`MALFORMED`].
    line_layout: Vec<u32>,
    /// Value offsets of the fast-path lines, concatenated in line order: a
    /// line of layout `l` owns the next `layouts[l].len()` of them.
    offsets: Vec<u32>,
    layouts: Vec<Vec<String>>,
    malformed: usize,
}

/// `line_layout` mark: well-formed, but outside the fast subset.
const STRICT: u32 = u32::MAX - 1;
/// `line_layout` mark: not JSON; every reader skips the line.
const MALFORMED: u32 = u32::MAX;

impl LineIndex {
    /// Tokenizes `lines`: every byte of every line is lexed here, once.
    pub fn build(lines: &[String]) -> LineIndex {
        let mut index = LineIndex {
            line_layout: Vec::with_capacity(lines.len()),
            offsets: Vec::new(),
            layouts: Vec::new(),
            malformed: 0,
        };
        let mut keys: Vec<&str> = Vec::new();
        // The layout of the previous fast-path line: the next one has it
        // too, nearly always.
        let mut last = 0usize;
        for line in lines {
            keys.clear();
            let first = index.offsets.len();
            let mut fits = true;
            let flat = walk_flat_line(line, |key, at, _| {
                keys.push(key);
                match u32::try_from(at) {
                    Ok(at) => index.offsets.push(at),
                    Err(_) => fits = false,
                }
            });
            if flat.is_some() && fits {
                let same = |layout: &Vec<String>| {
                    layout.iter().map(String::as_str).eq(keys.iter().copied())
                };
                if !index.layouts.get(last).is_some_and(same) {
                    last = index.layouts.iter().position(same).unwrap_or_else(|| {
                        index
                            .layouts
                            .push(keys.iter().map(|k| k.to_string()).collect());
                        index.layouts.len() - 1
                    });
                }
                // Far fewer layouts than `STRICT` fit in memory.
                index.line_layout.push(last as u32);
                continue;
            }
            index.offsets.truncate(first);
            if parse_json(line).is_ok() {
                index.line_layout.push(STRICT);
            } else {
                index.line_layout.push(MALFORMED);
                index.malformed += 1;
            }
        }
        index
    }

    /// Lines indexed, malformed ones included.
    pub fn len(&self) -> usize {
        self.line_layout.len()
    }

    /// True iff no line is indexed.
    pub fn is_empty(&self) -> bool {
        self.line_layout.is_empty()
    }

    /// Malformed lines among them — what a scan reports as skipped.
    pub fn malformed(&self) -> usize {
        self.malformed
    }

    /// Heap footprint of the index.
    pub fn approx_bytes(&self) -> u64 {
        let keys: usize = self.layouts.iter().flatten().map(|k| 24 + k.len()).sum();
        (4 * (self.line_layout.len() + self.offsets.len()) + keys) as u64
    }

    /// Calls `row` once per well-formed line of `lines`, in line order,
    /// with the values under `keys` lexed at the recorded offsets; no other
    /// byte of a fast-path line is read. `lines` must be the slice the
    /// index was built from.
    pub fn for_each_line<'a>(
        &self,
        lines: &'a [String],
        keys: &[&str],
        mut row: impl for<'s> FnMut(IndexedLine<'a, 's>),
    ) {
        assert_eq!(lines.len(), self.len(), "the index describes these lines");
        // Per layout, the member each key reads: its last occurrence.
        let slots: Vec<Vec<Option<usize>>> = self
            .layouts
            .iter()
            .map(|layout| {
                keys.iter()
                    .map(|key| layout.iter().rposition(|k| k == key))
                    .collect()
            })
            .collect();
        let mut vals: Vec<FlatVal<'a>> = Vec::with_capacity(keys.len());
        let mut first = 0usize;
        for (line, &layout) in lines.iter().zip(&self.line_layout) {
            match layout {
                MALFORMED => {}
                STRICT => row(IndexedLine::Strict(line)),
                layout => {
                    let layout = layout as usize;
                    vals.clear();
                    vals.extend(slots[layout].iter().map(|slot| match slot {
                        None => FlatVal::Null,
                        Some(member) => {
                            let at = self.offsets[first + member] as usize;
                            lex_value(line, at)
                                .expect("lexed at this offset when the index was built")
                                .0
                        }
                    }));
                    first += self.layouts[layout].len();
                    row(IndexedLine::Flat(&vals));
                }
            }
        }
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
            r#"{"f": 3.5, "g": 1e3, "h": -0.0, "i": 1., "j": 1E+2}"#,
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

    /// What a reader of `lines`' index gets under `keys`: one row of
    /// values per well-formed line.
    fn indexed_rows(lines: &[String], keys: &[&str]) -> Vec<Vec<Value>> {
        let index = LineIndex::build(lines);
        assert_eq!(index.len(), lines.len());
        let mut rows = Vec::new();
        index.for_each_line(lines, keys, |line| {
            rows.push(match line {
                IndexedLine::Flat(vals) => vals.iter().map(FlatVal::to_value).collect(),
                IndexedLine::Strict(line) => {
                    let doc = parse_json(line).expect("strict lines are well-formed");
                    let field = |k: &&str| doc.get_field(k).cloned().unwrap_or(Value::Null);
                    keys.iter().map(field).collect()
                }
            })
        });
        assert_eq!(rows.len() + index.malformed(), lines.len());
        rows
    }

    /// The same rows off the strict parser alone.
    fn strict_rows(lines: &[String], keys: &[&str]) -> Vec<Vec<Value>> {
        let docs = lines.iter().filter_map(|line| parse_json(line).ok());
        docs.map(|doc| {
            let field = |k: &&str| doc.get_field(k).cloned().unwrap_or(Value::Null);
            keys.iter().map(field).collect()
        })
        .collect()
    }

    /// Values read through the index are the fields of the strict parser's
    /// object — last duplicate wins, absent is NULL, a nested value is its
    /// tree — over every prefix and every one-byte edit of the seed lines,
    /// indexed together so that layouts, strict and malformed lines mix.
    #[test]
    fn indexed_reads_agree_with_the_strict_parser() {
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
        let keys = ["id", "t", "a", "geo", "tags", "n", "absent", "id"];
        let index = LineIndex::build(&lines);
        assert!(index.layouts.len() > 20 && index.malformed() > 500);
        assert!(index.line_layout.contains(&STRICT));
        assert_eq!(indexed_rows(&lines, &keys), strict_rows(&lines, &keys));
        assert_eq!(indexed_rows(&lines, &[]), strict_rows(&lines, &[]));
        for key in keys {
            assert_eq!(indexed_rows(&lines, &[key]), strict_rows(&lines, &[key]));
        }
    }

    /// One layout per key sequence, found again wherever it recurs; a line
    /// costs one mark and one offset per member.
    #[test]
    fn index_layouts_and_footprint() {
        let lines: Vec<String> = [
            r#"{"a": 1, "b": "x"}"#,
            r#"{"a": 2, "b": "y"}"#,
            r#"{"b": "z", "a": 3}"#,
            "not json",
            r#"{"a": 4, "b": "w"}"#,
            r#"{"a": "\n"}"#,
            r#"{"a": 5, "a": 6}"#,
        ]
        .map(String::from)
        .to_vec();
        let index = LineIndex::build(&lines);
        assert_eq!(index.line_layout, [0, 0, 1, MALFORMED, 0, STRICT, 2]);
        assert_eq!(index.layouts.len(), 3);
        assert_eq!(index.offsets.len(), 2 * 4 + 2);
        assert_eq!((index.len(), index.malformed()), (7, 1));
        let rows = indexed_rows(&lines, &["a"]);
        let ints = [1, 2, 3, 4].map(|i| vec![Value::Int(i)]);
        assert_eq!(rows[..4], ints);
        assert_eq!(rows[4..], [vec![Value::str("\n")], vec![Value::Int(6)]]);
        let empty = LineIndex::build(&[]);
        assert!(empty.is_empty() && empty.approx_bytes() == 0);
        empty.for_each_line(&[], &["a"], |_| panic!("no line"));
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
