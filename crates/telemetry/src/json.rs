//! The workspace's one JSON module: reader, escaper, document writer and
//! baseline diff.
//!
//! The workspace vendors `serde` as a no-op shim (no derive, no formats),
//! so every JSON document the stack emits or gates — the `BENCH_*.json`
//! artifacts, the profile baseline, the metrics snapshot, the findings
//! documents and the Chrome traces — goes through this module:
//!
//! * [`parse`] is a recursive-descent reader for the full RFC 8259 grammar
//!   returning an owned [`Json`] tree;
//! * [`escape`] / [`quoted`] render a string as a JSON string literal;
//! * [`Doc`] writes the one document layout the artifacts share: a
//!   top-level object with one `"key": value` per line at two spaces, and
//!   arrays of pre-rendered compact rows at four spaces;
//! * [`diff`] compares a committed baseline against a run's document field
//!   by field and names every drift by its path.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Ordered map — baselines are written and diffed deterministically.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Field lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value's type name, as drift messages print it.
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

// ---- reader ----------------------------------------------------------------

/// Parse a complete JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text, i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != text.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self.s.get(self.i + 1..self.i + 5).ok_or_else(|| {
                                format!("truncated \\u escape at byte {}", self.i)
                            })?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.i))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.i
                            ))
                        }
                    }
                    self.i += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!(
                        "raw control character U+{c:04X} in string at byte {}",
                        self.i
                    ));
                }
                Some(_) => {
                    let c = self.s[self.i..].chars().next().expect("not at end of input");
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let s = &self.s[start..self.i];
        s.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {s:?}: {e}"))
    }
}

// ---- escaper ---------------------------------------------------------------

/// Escape `s` for embedding between double quotes: `\"`, `\\`, `\n`,
/// `\t`, and every other U+0000–U+001F as `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `s` as a complete JSON string literal, quotes included.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

// ---- writer ----------------------------------------------------------------

/// Writer for the document layout every artifact shares:
///
/// ```text
/// {
///   "schema": "ompx-bench-serve-v2",
///   "seed": 20260808,
///   "cells": [
///     {"app":"xsbench",…},
///     {"app":"rsbench",…}
///   ]
/// }
/// ```
///
/// The writer owns the braces, indentation and commas; callers render
/// values and rows themselves, keeping their own float formats.
pub struct Doc {
    out: String,
}

impl Default for Doc {
    fn default() -> Self {
        Doc { out: String::from("{") }
    }
}

impl Doc {
    /// An empty top-level object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        let _ = write!(self.out, "\n  {}: ", quoted(key));
    }

    /// A field whose value is already rendered JSON (a number, a literal,
    /// or a compact object or array).
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// A string field, escaped and quoted.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.field(key, quoted(value))
    }

    /// An array field: one pre-rendered row per line. An empty array
    /// renders as `[]`.
    pub fn rows<R: Display>(&mut self, key: &str, rows: impl IntoIterator<Item = R>) -> &mut Self {
        self.key(key);
        self.out.push('[');
        let mut any = false;
        for row in rows {
            let _ = write!(self.out, "{}\n    {row}", if any { "," } else { "" });
            any = true;
        }
        if any {
            self.out.push_str("\n  ");
        }
        self.out.push(']');
        self
    }

    /// Close the object and return the document (newline-terminated).
    pub fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.out);
        out.push_str("\n}\n");
        out
    }
}

// ---- baseline diff ---------------------------------------------------------

/// Diff a run's document against a committed baseline. Object key sets
/// and array lengths must match, strings and bools exactly, numbers to
/// 1e-9 relative (exact for every integer below 10⁹). Each drift is named
/// by its path: `rungs[3].verdicts.rejected: baseline 148, run 149`.
/// Empty result ⇒ the documents agree.
pub fn diff(want: &Json, got: &Json) -> Vec<String> {
    let mut drifts = Vec::new();
    diff_at("document", want, got, &mut drifts);
    drifts
}

fn diff_at(path: &str, want: &Json, got: &Json, drifts: &mut Vec<String>) {
    let child = |key: &str| {
        if path == "document" {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match (want, got) {
        (Json::Obj(w), Json::Obj(g)) => {
            for (k, wv) in w {
                match g.get(k) {
                    Some(gv) => diff_at(&child(k), wv, gv, drifts),
                    None => drifts.push(format!("{}: missing from run", child(k))),
                }
            }
            for k in g.keys().filter(|k| !w.contains_key(*k)) {
                drifts.push(format!("{}: not in baseline", child(k)));
            }
        }
        (Json::Arr(w), Json::Arr(g)) if w.len() != g.len() => {
            drifts.push(format!("{path}: baseline {} entries, run {}", w.len(), g.len()));
        }
        (Json::Arr(w), Json::Arr(g)) => {
            for (i, (wv, gv)) in w.iter().zip(g).enumerate() {
                diff_at(&format!("{path}[{i}]"), wv, gv, drifts);
            }
        }
        (Json::Num(a), Json::Num(b)) => {
            if (a - b).abs() > 1e-9 * a.abs().max(b.abs()) {
                drifts.push(format!("{path}: baseline {a}, run {b}"));
            }
        }
        (Json::Str(a), Json::Str(b)) => {
            if a != b {
                drifts.push(format!("{path}: baseline {a:?}, run {b:?}"));
            }
        }
        (Json::Bool(a), Json::Bool(b)) => {
            if a != b {
                drifts.push(format!("{path}: baseline {a}, run {b}"));
            }
        }
        (Json::Null, Json::Null) => {}
        _ => drifts.push(format!("{path}: baseline {}, run {}", want.kind(), got.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_baseline_shaped_document() {
        let doc = r#"{
            "schema": "ompx-prof-baseline-v1",
            "cells": [
                {"app": "xsbench", "checksum": "0xdeadbeef", "reported_seconds": 1.25e-3,
                 "occupancy_pct": 50.0, "bottleneck": "memlat", "excluded": false}
            ]
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("ompx-prof-baseline-v1"));
        let cells = v.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(c.get("app").and_then(Json::as_str), Some("xsbench"));
        assert_eq!(c.get("reported_seconds").and_then(Json::as_f64), Some(1.25e-3));
        assert_eq!(c.get("excluded"), Some(&Json::Bool(false)));
    }

    #[test]
    fn escapes_and_nesting() {
        let v = parse(r#"{"a": ["x\n\"y\"", {"b": null}], "n": -2.5E2}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_str(), Some("x\n\"y\""));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-250.0));
        assert_eq!(escape("a\"b\\c\nd\te\r\u{1}"), "a\\\"b\\\\c\\nd\\te\\u000d\\u0001");
        assert_eq!(quoted("é"), "\"é\"");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nope").is_err());
        assert!(parse(r#""\u12""#).is_err());
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        assert_eq!(
            parse("{\"k\": \"a\tb\"}"),
            Err("raw control character U+0009 in string at byte 8".to_string())
        );
        assert!(parse("\"\u{0}\"").is_err());
        assert!(parse("\"line\nbreak\"").is_err());
        // Escaped, the same characters are fine.
        assert_eq!(parse(r#""a\tb\u0000""#), Ok(Json::Str("a\tb\u{0}".into())));
    }

    #[test]
    fn writer_owns_layout_and_commas() {
        let doc = Doc::new()
            .str("schema", "x-v1")
            .field("n", 3)
            .rows("cells", ["{\"a\":1}", "{\"a\":2}"])
            .rows("empty", Vec::<String>::new())
            .field("ok", true)
            .finish();
        assert_eq!(
            doc,
            "{\n  \"schema\": \"x-v1\",\n  \"n\": 3,\n  \"cells\": [\n    {\"a\":1},\n    {\"a\":2}\n  ],\n  \"empty\": [],\n  \"ok\": true\n}\n"
        );
        assert!(parse(&doc).is_ok());
    }

    fn drifts(want: &str, got: &str) -> Vec<String> {
        diff(&parse(want).unwrap(), &parse(got).unwrap())
    }

    #[test]
    fn identical_documents_have_no_drift() {
        let doc = r#"{"a": [1, 2.5, {"b": "x", "c": true, "d": null}], "e": {}}"#;
        assert!(drifts(doc, doc).is_empty());
    }

    #[test]
    fn integer_drift_is_named_by_path() {
        assert_eq!(
            drifts(
                r#"{"rungs": [{}, {"verdicts": {"rejected": 148}}]}"#,
                r#"{"rungs": [{}, {"verdicts": {"rejected": 149}}]}"#
            ),
            ["rungs[1].verdicts.rejected: baseline 148, run 149"]
        );
        // 1e-9 relative is still exact just below 10^9.
        assert_eq!(drifts("999999999", "999999998").len(), 1);
    }

    #[test]
    fn float_drift_beyond_tolerance_is_reported() {
        assert_eq!(
            drifts(r#"{"x": 1.0e-3}"#, r#"{"x": 1.000001e-3}"#),
            ["x: baseline 0.001, run 0.001000001"]
        );
    }

    #[test]
    fn float_drift_within_tolerance_passes() {
        assert!(
            drifts(r#"{"x": 3.7130139097894164e0}"#, r#"{"x": 3.7130139097894170e0}"#).is_empty()
        );
        assert!(drifts(r#"{"x": 0e0}"#, r#"{"x": 0}"#).is_empty());
    }

    #[test]
    fn string_drift_is_reported() {
        assert_eq!(
            drifts(r#"{"kind": "a100"}"#, r#"{"kind": "mi250"}"#),
            [r#"kind: baseline "a100", run "mi250""#]
        );
    }

    #[test]
    fn bool_drift_is_reported() {
        assert_eq!(
            drifts(r#"{"d": [{"lost": true}]}"#, r#"{"d": [{"lost": false}]}"#),
            ["d[0].lost: baseline true, run false"]
        );
    }

    #[test]
    fn missing_key_is_reported() {
        assert_eq!(drifts(r#"{"a": 1, "b": 2}"#, r#"{"a": 1}"#), ["b: missing from run"]);
    }

    #[test]
    fn extra_key_is_reported() {
        assert_eq!(drifts(r#"{"a": {}}"#, r#"{"a": {"z": 0}}"#), ["a.z: not in baseline"]);
    }

    #[test]
    fn array_length_drift_is_reported() {
        assert_eq!(
            drifts(r#"{"points": [1, 2, 3]}"#, r#"{"points": [1, 2]}"#),
            ["points: baseline 3 entries, run 2"]
        );
    }

    #[test]
    fn type_mismatch_is_reported() {
        assert_eq!(drifts(r#"{"v": "1"}"#, r#"{"v": 1}"#), ["v: baseline string, run number"]);
        assert_eq!(drifts("[]", "{}"), ["document: baseline array, run object"]);
    }
}
