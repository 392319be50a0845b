//! A small self-contained JSON value type with canonical serialization.
//!
//! crates.io (and therefore serde) is unreachable in the build
//! environment, so the simulation kernel carries its own serialization
//! substrate. It serves two distinct consumers — `flumen-sweep` hashes
//! canonical job specs with it, and [`crate::snapshot`] serializes live
//! simulation state with it — so two properties matter more here than
//! generality:
//!
//! * **Canonical output** — object keys are kept sorted ([`BTreeMap`])
//!   and floats print in Rust's shortest-roundtrip form, so the same
//!   value always serializes to the same bytes. Job content hashes are
//!   taken over this canonical form.
//! * **Total round-trip** — simulation outputs contain `inf` (saturated
//!   latency points), which strict JSON cannot express; the writer emits
//!   the JSON5-style tokens `Infinity`/`-Infinity`/`NaN` and the parser
//!   accepts them.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::Hash;

use flumen_units::Picojoules;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; `u64` counters round-trip exactly up
    /// to 2^53, far beyond any cycle count the simulator produces).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

/// A serialization/deserialization failure with a path-ish message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a required object field.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(m) => m
                .get(key)
                .ok_or_else(|| JsonError(format!("missing field `{key}`"))),
            _ => err(format!("expected object looking up `{key}`")),
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(x) => Ok(*x),
            _ => err("expected number"),
        }
    }

    /// The value as `u64` (must be a non-negative integer).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let x = self.as_f64()?;
        if x < 0.0 || x.fract() != 0.0 || !x.is_finite() {
            return err(format!("expected unsigned integer, got {x}"));
        }
        Ok(x as u64)
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as `u32`.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        Ok(self.as_u64()? as u32)
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => err("expected bool"),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => err("expected string"),
        }
    }

    /// The value as a slice of elements.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => err("expected array"),
        }
    }

    /// Serializes to the canonical single-line form (hash input).
    pub fn to_canonical(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Serializes with two-space indentation (cache files, manifests).
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(v) => {
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    e.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(v) if !v.is_empty() => {
                out.push_str("[\n");
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    e.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(m) if !m.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            _ => self.write(out),
        }
    }

    /// Parses a value from text. Arrays and objects nested deeper than
    /// [`MAX_DEPTH`] are an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_num(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
    } else if x == f64::INFINITY {
        out.push_str("Infinity");
    } else if x == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Integers print without the trailing ".0" `{:?}` would add.
        let _ = write!(out, "{}", x as i64);
    } else {
        // Shortest round-trip form; deterministic for a given bit pattern.
        let _ = write!(out, "{x:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let hostile input
/// overflow the stack — an abort `catch_unwind` cannot stop.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'N') if self.eat("NaN") => Ok(Json::Num(f64::NAN)),
            Some(b'I') if self.eat("Infinity") => Ok(Json::Num(f64::INFINITY)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-Infinity") => {
                self.pos += "-Infinity".len();
                Ok(Json::Num(f64::NEG_INFINITY))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Num(x)),
            Err(_) => err(format!("bad number `{text}` at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(c) = self.peek() else {
                return err("unterminated string");
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return err("truncated \\u escape");
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).unwrap();
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError(format!("bad \\u escape `{hex}`")))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return err(format!("bad escape `\\{}`", esc as char)),
                    }
                }
                _ => {
                    // Re-scan the full UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos - 1..])
                        .map_err(|_| JsonError("invalid utf-8".into()))?;
                    let ch = rest.chars().next().unwrap();
                    s.push(ch);
                    self.pos += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Conversion into [`Json`].
pub trait ToJson {
    /// Serializes `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from [`Json`].
pub trait FromJson: Sized {
    /// Deserializes a value.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64()
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for u64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_u64()
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for usize {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_usize()
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for u32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_u32()
    }
}

// The unit type rides as `null` so stateless components (e.g. a pure
// `comb` combinator with `S = ()`) can satisfy generic snapshot bounds
// without inventing a dummy state value.
impl ToJson for () {
    fn to_json(&self) -> Json {
        Json::Null
    }
}

impl FromJson for () {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(()),
            other => Err(JsonError(format!("expected null, got {other:?}"))),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.as_str()?.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let v: Vec<T> = FromJson::from_json(j)?;
        let got = v.len();
        v.try_into()
            .map_err(|_| JsonError(format!("expected array of length {N}, got {got}")))
    }
}

impl<T: ToJson> ToJson for VecDeque<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for VecDeque<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let arr = j.as_arr()?;
        let [a, b] = arr else {
            return err(format!("expected 2-element array, got {}", arr.len()));
        };
        Ok((A::from_json(a)?, B::from_json(b)?))
    }
}

// Hash maps serialize as a key-sorted array of `[key, value]` pairs so the
// canonical text is independent of hasher iteration order — a requirement
// for snapshot determinism (identical state must hash identically).
impl<K: ToJson + Ord, V: ToJson> ToJson for HashMap<K, V> {
    fn to_json(&self) -> Json {
        // Hash order never escapes: the pairs are sorted before any byte
        // of output is produced.
        let mut entries: Vec<(&K, &V)> = self.iter().collect(); // flumen-check: allow(det-hash-iter)
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Json::Arr(
            entries
                .into_iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}

impl<K: FromJson + Eq + Hash, V: FromJson> FromJson for HashMap<K, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()?.iter().map(<(K, V)>::from_json).collect()
    }
}

// BTreeMaps share the pair-array encoding (already key-sorted), so a
// field converted from HashMap to BTreeMap keeps byte-identical
// snapshots in both directions.
impl<K: ToJson, V: ToJson> ToJson for std::collections::BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}

impl<K: FromJson + Ord, V: FromJson> FromJson for std::collections::BTreeMap<K, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()?.iter().map(<(K, V)>::from_json).collect()
    }
}

/// Serializes a full-range `u64` (content hashes, RNG words) as a
/// fixed-width hex string. `Json::Num` holds an `f64` and silently loses
/// bits past 2^53, which is fine for cycle counters but corrupts hashes.
pub fn u64_hex(x: u64) -> Json {
    Json::Str(format!("{x:016x}"))
}

/// Parses a [`u64_hex`]-encoded value.
pub fn u64_from_hex(j: &Json) -> Result<u64, JsonError> {
    u64::from_str_radix(j.as_str()?, 16).map_err(|e| JsonError(format!("bad hex u64: {e}")))
}

/// Serializes a slice of full-range `u64` values (addresses, hashes) as an
/// array of fixed-width hex strings.
pub fn u64s_hex(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&x| u64_hex(x)).collect())
}

/// Parses an array written by [`u64s_hex`].
///
/// # Errors
///
/// Fails when the value is not an array of hex strings.
pub fn u64s_from_hex(j: &Json) -> Result<Vec<u64>, JsonError> {
    j.as_arr()?.iter().map(u64_from_hex).collect()
}

// Unit newtypes serialize as their raw numeric value: the canonical JSON
// text (and therefore every content-addressed job hash) is identical to the
// pre-`flumen-units` encoding. The unit lives in the *key* name (`_pj`
// suffix), not the value.
impl ToJson for Picojoules {
    fn to_json(&self) -> Json {
        Json::Num(self.value())
    }
}

impl FromJson for Picojoules {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Picojoules::new(j.as_f64()?))
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a plain struct, field by field.
///
/// Exported so every crate can bridge the types *it* owns (the orphan rule
/// keeps these impls next to the struct definitions, not centralized in one
/// downstream crate). Deserialization errors name the full
/// `Type.field: cause` path.
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([$(
                    (stringify!($field), $crate::json::ToJson::to_json(&self.$field)),
                )+])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                j: &$crate::json::Json,
            ) -> ::core::result::Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $($field: j
                        .get(stringify!($field))
                        .and_then($crate::json::FromJson::from_json)
                        .map_err(|e| {
                            $crate::json::JsonError(format!(
                                concat!(stringify!($ty), ".", stringify!($field), ": {}"),
                                e
                            ))
                        })?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_round_trip() {
        let v = Json::obj([
            ("b", Json::Num(1.5)),
            (
                "a",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Str("x\"y".into())]),
            ),
            ("n", Json::Num(-0.703)),
        ]);
        let text = v.to_canonical();
        // Keys sorted regardless of insertion order.
        assert!(text.starts_with("{\"a\""));
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn canonical_is_stable() {
        let make = || Json::obj([("x", Json::Num(0.1 + 0.2)), ("y", Json::Num(16384.0))]);
        assert_eq!(make().to_canonical(), make().to_canonical());
        assert_eq!(
            make().to_canonical(),
            "{\"x\":0.30000000000000004,\"y\":16384}"
        );
    }

    #[test]
    fn non_finite_numbers_round_trip() {
        let v = Json::Arr(vec![Json::Num(f64::INFINITY), Json::Num(f64::NEG_INFINITY)]);
        let parsed = Json::parse(&v.to_canonical()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr[0].as_f64().unwrap(), f64::INFINITY);
        assert_eq!(arr[1].as_f64().unwrap(), f64::NEG_INFINITY);
        let nan = Json::parse("NaN").unwrap();
        assert!(nan.as_f64().unwrap().is_nan());
    }

    #[test]
    fn large_counters_round_trip_exactly() {
        let cycles: u64 = 80_000_000_000;
        let j = cycles.to_json();
        assert_eq!(
            u64::from_json(&Json::parse(&j.to_canonical()).unwrap()).unwrap(),
            cycles
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").is_err());
        let obj = Json::obj([("a", Json::Num(1.0))]);
        assert!(obj.get("b").is_err());
        assert!(obj.get("a").unwrap().as_str().is_err());
        assert!(Json::Num(1.5).as_u64().is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow the stack without the bound.
        assert!(Json::parse(&deep(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line\nwith \"quotes\" \\ tab\t and unicode λβ";
        let j = Json::Str(s.into());
        assert_eq!(Json::parse(&j.to_canonical()).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn containers_round_trip() {
        let dq: VecDeque<u64> = VecDeque::from(vec![3, 1, 2]);
        let back: VecDeque<u64> = FromJson::from_json(&dq.to_json()).unwrap();
        assert_eq!(back, dq);

        let some: Option<u64> = Some(7);
        let none: Option<u64> = None;
        assert_eq!(Option::<u64>::from_json(&some.to_json()).unwrap(), some);
        assert_eq!(Option::<u64>::from_json(&none.to_json()).unwrap(), none);

        let pair: (u64, bool) = (9, true);
        assert_eq!(<(u64, bool)>::from_json(&pair.to_json()).unwrap(), pair);
        assert!(<(u64, bool)>::from_json(&Json::Arr(vec![Json::Num(1.0)])).is_err());
    }

    #[test]
    fn hash_maps_serialize_key_sorted() {
        let mut m: HashMap<u64, u64> = HashMap::new();
        for k in [42u64, 7, 19, 3] {
            m.insert(k, k * 10);
        }
        let text = m.to_json().to_canonical();
        assert_eq!(text, "[[3,30],[7,70],[19,190],[42,420]]");
        let back: HashMap<u64, u64> = FromJson::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }
}
