//! A minimal, dependency-free JSON kernel: a streaming [`Writer`], a pull
//! [`Reader`], and the [`Json`] tree built on both.
//!
//! The wire protocol and snapshot artifacts encode and decode JSON *at
//! runtime*, and the service's cost per reply must be proportional to the
//! bytes it moves, not to the nodes a tree would hold (DESIGN.md §10.8).
//! So every shape the service emits is written straight into one `String`
//! through [`Writer`], and submit lines are decoded straight off the text
//! through [`Reader`]. The [`Json`] tree is the generic value for
//! everything else — CLI artifact loads, clients, tests; [`parse`] is the
//! same reader driven to completion, so the two decoders accept and
//! reject exactly the same texts. It supports exactly the JSON this
//! workspace emits: objects, arrays, strings with standard escapes,
//! booleans, null, and numbers. Integers are kept exact — `Time` and
//! `Dur` are `u64` microseconds (with `u64::MAX` as an "unset" sentinel),
//! which `f64` cannot represent.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::OnceLock;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (the common case for ids and
    /// microsecond timestamps).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keyed by `BTreeMap` so output is deterministic.
    Obj(BTreeMap<String, Json>),
    /// A value already in serialized form (see [`Json::encode`]).
    Raw(Box<Raw>),
}

/// Pre-encoded JSON text standing in for the value it spells. Serializing
/// it copies the text; the accessors parse it on first use, so a consumer
/// that inspects a streamed reply pays for the tree and the wire path
/// never does. Equality is textual (the encoders are canonical: compact,
/// sorted keys), and a `Raw` never equals a tree variant.
#[derive(Debug, Clone)]
pub struct Raw {
    text: String,
    tree: OnceLock<Json>,
}

impl PartialEq for Raw {
    fn eq(&self, other: &Raw) -> bool {
        self.text == other.text
    }
}

/// Why a JSON text failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Stream one value through a [`Writer`] and keep the text as the
    /// value — how every service shape is encoded.
    pub fn encode(write: impl FnOnce(&mut Writer)) -> Json {
        let mut w = Writer::new();
        write(&mut w);
        Json::Raw(Box::new(Raw { text: w.finish(), tree: OnceLock::new() }))
    }

    /// The compact serialized text, consuming the value: a streamed value
    /// hands over its buffer, a tree is written once into a fresh one.
    pub fn into_text(self) -> String {
        match self {
            Json::Raw(raw) => raw.text,
            tree => {
                let mut out = String::new();
                tree.write(&mut out);
                out
            }
        }
    }

    /// The tree behind the accessors: `self`, or a `Raw`'s parsed text.
    fn tree(&self) -> &Json {
        match self {
            Json::Raw(raw) => raw.tree.get_or_init(|| {
                let parsed = parse(&raw.text);
                debug_assert!(parsed.is_ok(), "streamed text must parse: {parsed:?}");
                parsed.unwrap_or(Json::Null)
            }),
            tree => tree,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self.tree() {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a `u64`, accepting exact non-negative integers only.
    pub fn as_u64(&self) -> Option<u64> {
        match *self.tree() {
            Json::U64(u) => Some(u),
            Json::I64(i) if i >= 0 => Some(i as u64),
            Json::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= 2f64.powi(53) => Some(f as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self.tree() {
            Json::U64(u) => Some(u as f64),
            Json::I64(i) => Some(i as f64),
            Json::F64(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self.tree() {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self.tree() {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self.tree() {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(u) => push_u64(out, *u),
            Json::I64(i) => push_i64(out, *i),
            Json::F64(f) => push_f64(out, *f),
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(raw) => out.push_str(&raw.text),
        }
    }
}

/// Serialization is via `Display`: compact JSON text, no whitespace,
/// stable (sorted) key order — `value.to_string()` gives one wire line.
/// ([`Json::into_text`] is the same text without the copy.)
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Raw(raw) => f.write_str(&raw.text),
            tree => {
                let mut out = String::new();
                tree.write(&mut out);
                f.write_str(&out)
            }
        }
    }
}

// ---------------------------------------------------------------- formatting
//
// The one spelling of every scalar, shared by the tree writer above and
// the streaming `Writer` below — the two cannot disagree on a byte.

fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [b'0'; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // ASCII digits: always valid UTF-8.
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

fn push_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        // JSON has no NaN/Infinity; null is the least-wrong encoding and
        // the decoder side treats a null number as invalid.
        out.push_str("null");
    } else if f == 0.0 && f.is_sign_negative() {
        // `{}` prints "-0", which reads back as the integer 0; the
        // fraction keeps it a float, sign included.
        out.push_str("-0.0");
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        // `{}` prints an integral float without a fraction or exponent:
        // the same digits as the integer, minus the float formatter.
        push_i64(out, f as i64);
    } else {
        let _ = write!(out, "{f}");
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so `plain..i` always cuts
    // on character boundaries.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

// -------------------------------------------------------------------- writer

/// An append-only JSON text writer: values go straight into one `String`,
/// no node is ever allocated, commas place themselves.
///
/// The contract the caller upholds (debug-asserted): an object's keys are
/// written in ascending byte order and need no escaping — the order a
/// `BTreeMap<String, Json>` iterates in, so streamed text is byte-identical
/// to the tree's and every artifact has one canonical spelling.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// The last key written in each open object.
    #[cfg(debug_assertions)]
    keys: Vec<&'static str>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// A value or key is about to start: it needs a comma unless it is
    /// the first thing in its container or follows its key. (A finished
    /// value never ends in one of these three bytes.)
    fn sep(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    /// Open an object.
    pub fn begin_obj(&mut self) -> &mut Writer {
        self.sep();
        self.out.push('{');
        #[cfg(debug_assertions)]
        self.keys.push("");
        self
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Writer {
        self.out.push('}');
        #[cfg(debug_assertions)]
        self.keys.pop();
        self
    }

    /// Open an array.
    pub fn begin_arr(&mut self) -> &mut Writer {
        self.sep();
        self.out.push('[');
        self
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Writer {
        self.out.push(']');
        self
    }

    /// Write the next key of the innermost object; its value follows.
    pub fn key(&mut self, key: &'static str) -> &mut Writer {
        #[cfg(debug_assertions)]
        {
            let last = self.keys.last_mut().expect("key() outside an object");
            assert!(*last < key, "keys must ascend: {last:?} then {key:?}");
            assert!(key.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\'), "{key:?}");
            *last = key;
        }
        self.sep();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self
    }

    /// Write an array: `each` writes one item.
    pub fn arr<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut Writer, T),
    ) -> &mut Writer {
        self.begin_arr();
        for item in items {
            each(self, item);
        }
        self.end_arr()
    }

    /// Write an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.sep();
        push_u64(&mut self.out, v);
        self
    }

    /// Write a float (`null` when not finite).
    pub fn f64(&mut self, v: f64) -> &mut Writer {
        self.sep();
        push_f64(&mut self.out, v);
        self
    }

    /// Write a bool.
    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Write `null`.
    pub fn null(&mut self) -> &mut Writer {
        self.sep();
        self.out.push_str("null");
        self
    }

    /// Write a string, escaped.
    pub fn str(&mut self, v: &str) -> &mut Writer {
        self.sep();
        push_escaped(&mut self.out, v);
        self
    }
}

// -------------------------------------------------------------------- reader

/// Recursion guard: protocol messages are shallow; anything deeper than
/// this is hostile or corrupt input, not data.
const MAX_DEPTH: usize = 64;

/// A pull parser over one JSON text: the caller asks for what it expects
/// next and nothing is built that it does not ask for. Syntax is checked
/// on everything the reader passes over, skipped values included, so a
/// decoder written against it rejects exactly the texts [`parse`] does.
///
/// Containers are entered with [`Reader::enter`] and walked with
/// [`Reader::next_key`] / [`Reader::next_item`]; `enter` and the
/// `*_or_skip` readers pass over a value of another type and say so,
/// which is what `tree.get(key).and_then(Json::as_…)` says of the same
/// text.
///
/// The first syntax error sticks: the reader jumps to the end of the
/// text, every later call comes back empty (`None`, `false`, the end of
/// every container), and [`Reader::finish`] reports the error. A decoder
/// reads straight through and asks once, at the end, whether what it
/// read can be trusted.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// The innermost container was just opened: no comma before the next
    /// key or item.
    fresh: bool,
    error: Option<JsonError>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, depth: 0, fresh: false, error: None }
    }

    /// Record the first error and move to the end of the text, where
    /// nothing more can be read.
    #[cold]
    fn fail(&mut self, msg: &str) {
        if self.error.is_none() {
            self.error = Some(JsonError { at: self.pos, msg: msg.to_string() });
        }
        self.pos = self.text.len();
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The document's one value has been read: only whitespace may follow.
    /// Reports the first syntax error met anywhere in the text.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            self.fail("trailing characters after JSON value");
        }
        self.error.take().map_or(Ok(()), Err)
    }

    /// The first byte of the next value, not consumed: `{`, `[`, `"`, `t`,
    /// `f`, `n`, `-` or a digit say what it is. `None` is a syntax error.
    #[inline]
    pub fn peek_value(&mut self) -> Option<u8> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            self.fail("nesting too deep");
        }
        match self.peek() {
            Some(b)
                if matches!(b, b'{' | b'[' | b'"' | b't' | b'f' | b'n' | b'-' | b'0'..=b'9') =>
            {
                Some(b)
            }
            Some(_) => {
                self.fail("unexpected character");
                None
            }
            None => {
                self.fail("unexpected end of input");
                None
            }
        }
    }

    fn literal(&mut self, lit: &str) {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
        } else {
            self.fail(&format!("expected '{lit}'"));
        }
    }

    /// Consume a container's opening bracket (the caller peeked it).
    #[inline]
    fn open(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
    }

    /// Step to the next member of the innermost container: false once its
    /// closing bracket is consumed.
    #[inline]
    fn step(&mut self, close: u8, expected: &str) -> bool {
        let fresh = std::mem::replace(&mut self.fresh, false);
        self.skip_ws();
        if self.eat(close) {
            self.depth = self.depth.saturating_sub(1);
            return false;
        }
        if !fresh && !self.eat(b',') {
            self.fail(expected);
            return false;
        }
        true
    }

    /// The next key of the open object, its `:` consumed — or `None` once
    /// the object is closed.
    #[inline]
    pub fn next_key(&mut self) -> Option<Cow<'a, str>> {
        if !self.step(b'}', "expected ',' or '}'") {
            return None;
        }
        self.skip_ws();
        let key = self.string();
        self.skip_ws();
        if !self.eat(b':') {
            self.fail("expected ':'");
            return None;
        }
        Some(key)
    }

    /// Whether the open array has another item — false once it is closed.
    #[inline]
    pub fn next_item(&mut self) -> bool {
        self.step(b']', "expected ',' or ']'")
    }

    /// Pass over the next value, checking its syntax.
    pub fn skip_value(&mut self) {
        self.value::<false>();
    }

    /// Enter the next value if `open` (`{` or `[`) starts it — walk it
    /// with `next_key` / `next_item`; pass over anything else.
    #[inline]
    pub fn enter(&mut self, open: u8) -> bool {
        if self.peek_value() == Some(open) {
            self.open();
            return true;
        }
        self.skip_value();
        false
    }

    /// The next value if it is a string.
    #[inline]
    pub fn str_or_skip(&mut self) -> Option<Cow<'a, str>> {
        if self.peek_value() == Some(b'"') {
            return Some(self.string());
        }
        self.skip_value();
        None
    }

    /// The next value if it is a number (read it with [`Json::as_u64`] or
    /// [`Json::as_f64`]), `Json::Null` after passing over anything else.
    #[inline]
    pub fn num_or_skip(&mut self) -> Json {
        if matches!(self.peek_value(), Some(b'-' | b'0'..=b'9')) {
            return self.number();
        }
        self.skip_value();
        Json::Null
    }

    /// Read a string (the caller saw its opening quote). Borrowed from
    /// the text unless it holds an escape.
    fn string(&mut self) -> Cow<'a, str> {
        if !self.eat(b'"') {
            self.fail("expected '\"'");
        }
        let mut owned: Option<String> = None;
        loop {
            // A run of plain bytes; it starts and ends next to ASCII, so
            // the slice cuts on character boundaries.
            let start = self.pos;
            let rest = &self.text.as_bytes()[start..];
            self.pos += rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(rest.len());
            let run = &self.text[start..self.pos];
            if self.eat(b'"') {
                return match owned {
                    None => Cow::Borrowed(run),
                    Some(s) => Cow::Owned(s + run),
                };
            }
            if !self.eat(b'\\') {
                self.fail("unterminated string");
                return Cow::Borrowed("");
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            let escape = self.peek();
            self.pos += usize::from(escape.is_some());
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape(),
                _ => {
                    self.pos -= usize::from(escape.is_some());
                    self.fail("invalid escape");
                    return Cow::Borrowed("");
                }
            });
        }
    }

    /// The character of a `\uXXXX` escape (positioned after the `u`),
    /// joining a surrogate pair `\uD8xx\uDCxx` into its one code point.
    fn unicode_escape(&mut self) -> char {
        let mut code = self.hex4();
        if (0xD800..0xDC00).contains(&code) {
            let paired = self.eat(b'\\') && self.eat(b'u');
            let low = if paired { self.hex4() } else { 0 };
            // Anything but a low half here would pair into a wrong
            // character (or underflow the subtraction).
            code = match low {
                0xDC00..0xE000 => 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                _ => u32::MAX,
            };
        }
        // A lone low half is not a character either.
        char::from_u32(code).unwrap_or_else(|| {
            self.fail("invalid \\u escape");
            char::REPLACEMENT_CHARACTER
        })
    }

    /// Exactly four hex digits, or `u32::MAX`.
    fn hex4(&mut self) -> u32 {
        let mut code = 0;
        for _ in 0..4 {
            match self.peek().and_then(|c| char::from(c).to_digit(16)) {
                Some(digit) => code = code * 16 + digit,
                None => return u32::MAX,
            }
            self.pos += 1;
        }
        code
    }

    /// Consume a run of ASCII digits: how many, and their value (exact up
    /// to 19 digits; wrapped beyond, where the caller re-parses).
    #[inline]
    fn digits(&mut self) -> (usize, u64) {
        let (start, mut value) = (self.pos, 0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        (self.pos - start, value)
    }

    /// Read a number by the JSON grammar: `-? (0 | [1-9][0-9]*) frac? exp?`.
    /// An integer that fits stays exact; anything else is an `f64`.
    fn number(&mut self) -> Json {
        let start = self.pos;
        let negative = self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let (int_digits, int) = self.digits();
        let mut valid = int_digits == 1 || (int_digits > 1 && !leading_zero);
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            valid &= self.digits().0 > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            valid &= self.digits().0 > 0;
        }
        let token = &self.text[start..self.pos];
        if valid && integral {
            // 19 digits cannot overflow; 20 can (and `u64::MAX`, the
            // "unset" sentinel, has 20).
            let exact = if int_digits < 20 { Some(int) } else { token.parse().ok() };
            match exact {
                Some(u) if !negative => return Json::U64(u),
                Some(u) if u <= i64::MIN.unsigned_abs() => {
                    return Json::I64(0i64.wrapping_sub_unsigned(u));
                }
                _ => {}
            }
        }
        match token.parse::<f64>() {
            Ok(f) if valid && f.is_finite() => Json::F64(f),
            _ => {
                self.fail("invalid number");
                Json::Null
            }
        }
    }

    /// Walk the next value, building its tree if `KEEP` (`Null` if not):
    /// one walker, so what is passed over is checked exactly as what is
    /// kept.
    fn value<const KEEP: bool>(&mut self) -> Json {
        let first = self.peek_value();
        match first {
            Some(b'{') => {
                self.open();
                // Collected, then bulk-built: `collect` sorts (a no-op on
                // the sorted keys this workspace writes) and keeps the
                // last of duplicate keys, as inserting one by one would.
                let mut members = Vec::new();
                while let Some(key) = self.next_key() {
                    let value = self.value::<KEEP>();
                    if KEEP {
                        members.push((key.into_owned(), value));
                    }
                }
                Json::Obj(members.into_iter().collect())
            }
            Some(b'[') => {
                self.open();
                let mut items = Vec::new();
                while self.next_item() {
                    let item = self.value::<KEEP>();
                    if KEEP {
                        items.push(item);
                    }
                }
                Json::Arr(items)
            }
            Some(b'"') if KEEP => Json::Str(self.string().into_owned()),
            Some(b'"') => {
                self.string();
                Json::Null
            }
            Some(b't' | b'f') => {
                self.literal(if first == Some(b't') { "true" } else { "false" });
                Json::Bool(first == Some(b't'))
            }
            Some(b'n') => {
                self.literal("null");
                Json::Null
            }
            Some(_) => self.number(),
            None => Json::Null,
        }
    }
}

/// Parse a complete JSON document. Trailing whitespace is allowed; trailing
/// garbage is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut reader = Reader::new(text);
    let value = reader.value::<true>();
    reader.finish().map(|()| value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_max_is_exact() {
        // Time::MAX microseconds — the "unset deadline" sentinel — must
        // survive a JSON round trip bit-exactly, which f64 cannot do.
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v, Json::U64(u64::MAX));
        assert_eq!(v.to_string(), "18446744073709551615");
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn nested_structure_roundtrips() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":-3.25,"e":{}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        let round = parse(&v.to_string()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""quote\" back\\ slash\/ tab\t ué pair😀""#).unwrap();
        assert_eq!(v.as_str(), Some("quote\" back\\ slash/ tab\t u\u{e9} pair\u{1F600}"));
        // Control characters in output are escaped so the line protocol
        // never emits a raw newline inside a message.
        let s = Json::Str("a\nb\u{1}".into()).to_string();
        assert!(!s.contains('\n'), "{s}");
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\nb\u{1}"));
    }

    #[test]
    fn errors_carry_position() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", "nan"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let e = parse("[1, oops]").unwrap_err();
        assert!(e.at >= 4, "{e}");
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
        // The bound counts open containers around a value, scalars too.
        assert!(parse(&("[".repeat(64) + &"]".repeat(64))).is_ok());
        assert!(parse(&("[".repeat(64) + "1" + &"]".repeat(64))).is_err());
    }

    #[test]
    fn number_accessors() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("3.0").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn surrogate_pairs_join_and_lone_halves_are_rejected() {
        // How `json.dumps` writes 😀 by default.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("\u{1F600}"));
        assert_eq!(parse(r#""a\uD83D\uDE00b""#).unwrap().as_str(), Some("a\u{1F600}b"));
        for bad in [
            r#""\ud83dx\ude00""#, // something between the halves
            r#""\ud83d""#,        // high half alone
            r#""\ude00""#,        // low half alone
            r#""\ud83d\u0041""#,  // high half, then not a low half
            r#""\ud83d\ud83d""#,  // two high halves (would underflow `lo - 0xDC00`)
            r#""\ud83d\u""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap().as_str(), Some("A\u{e9}"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u41""#, r#""\u004""#] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for bad in ["01", "-01", "00", "1.", ".5", "-.5", "1e", "1e+", "-", "+1", "1.e3", "0x10"] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
        assert_eq!(parse("0").unwrap(), Json::U64(0));
        assert_eq!(parse("-0").unwrap(), Json::I64(0));
        assert_eq!(parse("10").unwrap(), Json::U64(10));
        assert_eq!(parse("0.5e+1").unwrap(), Json::F64(5.0));
        assert_eq!(parse("1E2").unwrap(), Json::F64(100.0));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::I64(i64::MIN));
        assert_eq!(parse("-9223372036854775809").unwrap(), Json::F64(-9223372036854775809.0));
        assert_eq!(parse("18446744073709551616").unwrap(), Json::F64(18446744073709551616.0));
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = Json::F64(-0.0).to_string();
        assert_eq!(text, "-0.0");
        match parse(&text).unwrap() {
            Json::F64(f) => assert!(f == 0.0 && f.is_sign_negative()),
            other => panic!("{other:?}"),
        }
        assert_eq!(Json::F64(0.0).to_string(), "0");
    }

    #[test]
    fn floats_print_as_display_does() {
        let values = [
            400.0,
            -3.0,
            1e15,
            -1e15,
            999_999_999_999_999.0,
            1e21,
            0.1,
            650.25,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            2f64.powi(53),
        ];
        for f in values {
            assert_eq!(Json::F64(f).to_string(), format!("{f}"), "{f:e}");
            assert_eq!(parse(&Json::F64(f).to_string()).unwrap().as_f64(), Some(f), "{f:e}");
        }
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::F64(f).to_string(), "null");
        }
    }

    #[test]
    fn duplicate_keys_keep_the_last_and_unsorted_keys_sort() {
        let v = parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"a":2,"b":3}"#);
    }

    /// The tree a streamed text stands for, written node by node.
    fn sample_tree() -> Json {
        Json::obj(vec![
            ("a", Json::Arr(vec![Json::U64(u64::MAX), Json::F64(-0.0), Json::F64(f64::NAN)])),
            ("b", Json::obj(vec![])),
            ("c", Json::Arr(vec![])),
            ("d", Json::Str("q\"b\\n\nr\rt\tc\u{1}\u{1f}é😀".into())),
            ("e", Json::Arr(vec![Json::Bool(true), Json::Null, Json::Arr(vec![Json::U64(0)])])),
        ])
    }

    fn stream_sample(w: &mut Writer) {
        w.begin_obj();
        w.key("a").begin_arr().u64(u64::MAX).f64(-0.0).f64(f64::NAN).end_arr();
        w.key("b").begin_obj().end_obj();
        w.key("c").arr(std::iter::empty::<u64>(), |w, v| {
            w.u64(v);
        });
        w.key("d").str("q\"b\\n\nr\rt\tc\u{1}\u{1f}é😀");
        w.key("e")
            .begin_arr()
            .bool(true)
            .null()
            .arr([0], |w, v| {
                w.u64(v);
            })
            .end_arr();
        w.end_obj();
    }

    #[test]
    fn writer_text_is_the_trees_text() {
        let streamed = Json::encode(stream_sample);
        assert_eq!(streamed.to_string(), sample_tree().to_string());
        assert_eq!(streamed.clone().into_text(), sample_tree().into_text());
        // Embedded in a tree, the text is spliced in as it is.
        let wrapped = Json::Arr(vec![streamed, Json::U64(1)]);
        assert_eq!(wrapped.to_string(), format!("[{},1]", sample_tree()));
    }

    #[test]
    fn a_streamed_value_reads_like_its_tree() {
        let streamed = Json::encode(stream_sample);
        let d = streamed.get("d").and_then(Json::as_str);
        assert_eq!(d, sample_tree().get("d").and_then(Json::as_str));
        assert_eq!(streamed.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(streamed.get("zz"), None);
        let scalar = Json::encode(|w| {
            w.u64(7);
        });
        assert_eq!(
            (scalar.as_u64(), scalar.as_f64(), scalar.as_bool()),
            (Some(7), Some(7.0), None)
        );
        assert_eq!(
            scalar,
            Json::encode(|w| {
                w.u64(7);
            })
        );
        assert_ne!(scalar, Json::U64(7), "equality is textual, not structural");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "keys must ascend")]
    fn writer_refuses_descending_keys() {
        let mut w = Writer::new();
        w.begin_obj().key("b").u64(1).key("a").u64(2);
    }

    #[test]
    fn reader_walks_what_it_is_asked_for_and_checks_the_rest() {
        let text = r#" {"skip":{"x":[1,{"y":null}]},"n":3.0,"s":"a\tb","list":[1,"two",3],"n":4} "#;
        let mut r = Reader::new(text);
        assert!(r.enter(b'{'));
        let (mut n, mut s, mut list) = (None, None, Vec::new());
        while let Some(key) = r.next_key() {
            match key.as_ref() {
                "n" => n = r.num_or_skip().as_u64(),
                "s" => s = r.str_or_skip(),
                "list" => {
                    assert!(r.enter(b'['));
                    while r.next_item() {
                        list.push(r.num_or_skip().as_u64());
                    }
                }
                _ => r.skip_value(),
            }
        }
        r.finish().unwrap();
        assert_eq!(n, Some(4), "the last duplicate wins, as in the tree");
        assert_eq!(s.as_deref(), Some("a\tb"));
        assert_eq!(list, vec![Some(1), None, Some(3)]);

        // A value of another type is passed over, not an error …
        let mut r = Reader::new(r#"[{"a":1},"x",2.5,-1]"#);
        assert!(r.enter(b'['));
        for _ in 0..4 {
            assert!(r.next_item());
            assert_eq!(r.num_or_skip().as_u64(), None);
        }
        assert!(!r.next_item());
        r.finish().unwrap();
        // … but broken syntax inside a skipped value still is: the first
        // error sticks, every walk ends, and `finish` reports it.
        for bad in
            [r#"{"skip":[1,],"n":1}"#, r#"{"skip":{"a" 1}}"#, r#"{"skip":"\x"}"#, "{} x", "{"]
        {
            let mut r = Reader::new(bad);
            let mut seen = 0;
            assert!(r.enter(b'{'));
            while r.next_key().is_some() {
                r.skip_value();
                seen += 1;
            }
            assert!(seen <= 1, "{bad}: nothing is read past the error");
            assert_eq!(r.finish().unwrap_err(), parse(bad).unwrap_err(), "{bad}");
        }
    }
}
