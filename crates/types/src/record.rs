//! One writer for every hand-rolled record: JSON objects and CSV rows.
//!
//! A [`Record`] writes its fields, in order, once, into a
//! [`RecordWriter`]; the writer renders them as JSON members, a CSV
//! header or a CSV row, appending to a single `String`. The CSV is the
//! record's scalar projection: every top-level scalar, plus
//! always-present nested objects flattened to dotted column names
//! (`plan.period`). Arrays and optional objects are JSON-only. Numbers
//! render identically in both (non-finite floats as `null`).

use std::fmt::{Display, Write as _};

use crate::json::escape_into;

/// A value that renders as one record.
pub trait Record {
    /// Writes the record's fields, in order, into `w`.
    fn write(&self, w: &mut RecordWriter<'_>);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Json,
    CsvHeader,
    CsvRow,
}

/// Renders one record's fields as JSON members, CSV header cells or
/// CSV row cells, appending to a single `String`.
pub struct RecordWriter<'a> {
    out: &'a mut String,
    mode: Mode,
    /// Documents: top-level members and object arrays one per line.
    pretty: bool,
    depth: usize,
    first: bool,
    /// Enclosing object names, for dotted CSV column names.
    path: Vec<&'static str>,
}

impl<'a> RecordWriter<'a> {
    fn new(out: &'a mut String, mode: Mode) -> Self {
        Self {
            out,
            mode,
            pretty: false,
            depth: 0,
            first: true,
            path: Vec::new(),
        }
    }

    /// Writes a field's separator and name; returns whether its value
    /// is wanted (header cells carry names only).
    fn key(&mut self, name: &'static str) -> bool {
        let first = std::mem::replace(&mut self.first, false);
        let pretty = self.pretty && self.depth == 0;
        self.out.push_str(match (first, self.mode, pretty) {
            (true, _, false) => "",
            (true, _, true) => "\n  ",
            (false, Mode::Json, true) => ",\n  ",
            (false, Mode::Json, false) => ", ",
            (false, _, _) => ",",
        });
        match self.mode {
            Mode::Json => {
                self.out.push('"');
                self.out.push_str(name);
                self.out.push_str("\": ");
            }
            Mode::CsvHeader => {
                for p in &self.path {
                    self.out.push_str(p);
                    self.out.push('.');
                }
                self.out.push_str(name);
            }
            Mode::CsvRow => {}
        }
        self.mode != Mode::CsvHeader
    }

    fn scalar(&mut self, name: &'static str, v: impl Display) {
        if self.key(name) {
            let _ = write!(self.out, "{v}");
        }
    }

    /// An unsigned integer field.
    pub fn u64(&mut self, name: &'static str, v: u64) {
        self.scalar(name, v);
    }

    /// An unsigned integer field that may be `null`.
    pub fn u64_or_null(&mut self, name: &'static str, v: Option<u64>) {
        match v {
            Some(v) => self.scalar(name, v),
            None => self.scalar(name, "null"),
        }
    }

    /// A float field (non-finite values render as `null`).
    pub fn f64(&mut self, name: &'static str, v: f64) {
        if v.is_finite() {
            self.scalar(name, v);
        } else {
            self.scalar(name, "null");
        }
    }

    /// A boolean field.
    pub fn bool(&mut self, name: &'static str, v: bool) {
        self.scalar(name, v);
    }

    /// A 64-bit hash as a 16-digit hex string.
    pub fn hex(&mut self, name: &'static str, v: u64) {
        let quote = if self.mode == Mode::Json { "\"" } else { "" };
        self.scalar(name, format_args!("{quote}{v:016x}{quote}"));
    }

    /// A string field: JSON-escaped, or CSV-quoted when it holds a
    /// separator or quote.
    pub fn text(&mut self, name: &'static str, v: &str) {
        if !self.key(name) {
            return;
        }
        if self.mode == Mode::Json {
            self.string(v);
        } else if v.contains([',', '"', '\n']) {
            let _ = write!(self.out, "\"{}\"", v.replace('"', "\"\""));
        } else {
            self.out.push_str(v);
        }
    }

    /// A string field that may be `null`.
    pub fn text_or_null(&mut self, name: &'static str, v: Option<&str>) {
        match v {
            Some(v) => self.text(name, v),
            None => self.scalar(name, "null"),
        }
    }

    /// An array of strings (JSON-only).
    pub fn texts<S: AsRef<str>>(&mut self, name: &'static str, items: impl IntoIterator<Item = S>) {
        self.array(name, items, |w, v| w.string(v.as_ref()));
    }

    /// An array of unsigned integers (JSON-only).
    pub fn u64s(&mut self, name: &'static str, items: impl IntoIterator<Item = u64>) {
        self.array(name, items, |w, v| {
            let _ = write!(w.out, "{v}");
        });
    }

    fn array<T>(
        &mut self,
        name: &'static str,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut Self, T),
    ) {
        if self.mode != Mode::Json {
            return;
        }
        self.key(name);
        self.out.push('[');
        for (i, v) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            item(self, v);
        }
        self.out.push(']');
    }

    /// An always-present nested object (dotted columns in the CSV).
    pub fn object(&mut self, name: &'static str, f: impl FnOnce(&mut Self)) {
        if self.mode == Mode::Json {
            self.key(name);
            self.nested(f);
        } else {
            self.path.push(name);
            f(self);
            self.path.pop();
        }
    }

    /// An optional nested object, `null` when absent (JSON-only).
    pub fn opt_object<T>(
        &mut self,
        name: &'static str,
        v: Option<T>,
        f: impl FnOnce(&mut Self, T),
    ) {
        if self.mode != Mode::Json {
            return;
        }
        self.key(name);
        match v {
            Some(v) => self.nested(|w| f(w, v)),
            None => self.out.push_str("null"),
        }
    }

    /// An array of objects, one per item (JSON-only).
    pub fn objects<T>(
        &mut self,
        name: &'static str,
        items: impl IntoIterator<Item = T>,
        mut f: impl FnMut(&mut Self, T),
    ) {
        if self.mode != Mode::Json {
            return;
        }
        let rows = self.pretty && self.depth == 0;
        self.key(name);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            self.out.push_str(match (rows, i) {
                (true, 0) => "\n    ",
                (true, _) => ",\n    ",
                (false, 0) => "",
                (false, _) => ", ",
            });
            self.nested(|w| f(w, item));
        }
        self.out.push_str(if rows { "\n  ]" } else { "]" });
    }

    fn string(&mut self, v: &str) {
        self.out.push('"');
        escape_into(self.out, v);
        self.out.push('"');
    }

    fn nested(&mut self, f: impl FnOnce(&mut Self)) {
        self.out.push('{');
        self.depth += 1;
        self.first = true;
        f(self);
        self.depth -= 1;
        self.first = false;
        self.out.push('}');
    }
}

/// Appends the fields `f` writes to `out` as one inline JSON object
/// (no trailing newline).
pub fn write_object(out: &mut String, f: impl FnOnce(&mut RecordWriter<'_>)) {
    RecordWriter::new(out, Mode::Json).nested(f);
}

/// Appends `r` to `out` as one inline JSON object.
pub fn write_json<R: Record + ?Sized>(out: &mut String, r: &R) {
    write_object(out, |w| r.write(w));
}

/// Renders the fields `f` writes as one inline JSON object.
pub fn json_object(f: impl FnOnce(&mut RecordWriter<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, f);
    out
}

/// Renders the fields `f` writes as a JSON document: one top-level
/// member per line (object arrays one object per line), nested objects
/// inline, and a trailing newline.
pub fn json_document(f: impl FnOnce(&mut RecordWriter<'_>)) -> String {
    let mut out = String::from("{");
    let mut w = RecordWriter::new(&mut out, Mode::Json);
    w.pretty = true;
    f(&mut w);
    out.push_str("\n}\n");
    out
}

/// Renders records as a JSON array, one object per line.
pub fn to_json<R: Record>(records: &[R]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        write_json(&mut out, r);
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// Renders records as CSV: their scalar projection, one row per record
/// under a header row (no records render empty).
pub fn to_csv<R: Record>(records: &[R]) -> String {
    let mut out = String::new();
    if let Some(first) = records.first() {
        first.write(&mut RecordWriter::new(&mut out, Mode::CsvHeader));
        out.push('\n');
    }
    for r in records {
        r.write(&mut RecordWriter::new(&mut out, Mode::CsvRow));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Point {
        name: &'static str,
        x: f64,
        hist: [u64; 2],
        inner: Option<u64>,
    }

    impl Record for Point {
        fn write(&self, w: &mut RecordWriter<'_>) {
            w.text("name", self.name);
            w.f64("x", self.x);
            w.object("plan", |w| {
                w.u64("period", 8);
                w.u64_or_null("window", self.inner);
            });
            w.u64s("hist", self.hist);
            w.opt_object("extra", self.inner, |w, v| w.u64("v", v));
        }
    }

    fn points() -> [Point; 2] {
        [
            Point {
                name: "a,\"b\"",
                x: 0.5,
                hist: [1, 2],
                inner: Some(3),
            },
            Point {
                name: "c",
                x: f64::NAN,
                hist: [0, 0],
                inner: None,
            },
        ]
    }

    #[test]
    fn json_renders_every_field_inline() {
        assert_eq!(
            to_json(&points()),
            "[\n  {\"name\": \"a,\\\"b\\\"\", \"x\": 0.5, \"plan\": {\"period\": 8, \
             \"window\": 3}, \"hist\": [1, 2], \"extra\": {\"v\": 3}},\n  \
             {\"name\": \"c\", \"x\": null, \"plan\": {\"period\": 8, \"window\": null}, \
             \"hist\": [0, 0], \"extra\": null}\n]\n"
        );
    }

    #[test]
    fn csv_is_the_scalar_projection() {
        assert_eq!(
            to_csv(&points()),
            "name,x,plan.period,plan.window\n\"a,\"\"b\"\"\",0.5,8,3\nc,null,8,null\n"
        );
        assert_eq!(to_csv::<Point>(&[]), "");
    }

    #[test]
    fn documents_put_members_and_rows_on_their_own_lines() {
        let doc = json_document(|w| {
            w.text("grid", "g");
            w.texts("tags", ["x", "y"]);
            w.objects("rows", [1u64, 2], |w, v| w.u64("v", v));
            w.objects("none", Vec::<u64>::new(), |w, v| w.u64("v", v));
        });
        assert_eq!(
            doc,
            "{\n  \"grid\": \"g\",\n  \"tags\": [\"x\", \"y\"],\n  \"rows\": [\n    \
             {\"v\": 1},\n    {\"v\": 2}\n  ],\n  \"none\": [\n  ]\n}\n"
        );
        assert_eq!(
            json_object(|w| w.text_or_null("grid", None)),
            "{\"grid\": null}"
        );
    }
}
