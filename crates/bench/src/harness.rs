//! The one bench harness: the only wall-clock read, the one
//! before/after [`Comparison`], and the one report writer every
//! component bench emits its `BENCH_*.json` through.
//!
//! A bench times its sides with [`timed`] and lists its results as a
//! [`Report`]: an ordered tree of scalars, flat [`Object`]s and arrays
//! of flat row objects. [`Report::to_json`] writes one layout — each
//! top-level field on its own line, each flat object on one line, each
//! array row on its own line. `scripts/perf_guard.sh` parses that layout
//! line by line (a section is `"name": {..., "speedup": N}` on one line),
//! so the types here, not the script, guarantee the shape it relies on.
//!
//! This is the one file in the bench crate that reads the *wall clock*,
//! and it does so on purpose: the benches measure real elapsed cost, and
//! the readings feed reports, never a simulated observable, so the
//! determinism fence does not apply.

use std::fmt;
use std::time::{Duration, Instant};

/// Runs `f` and returns its wall-clock duration with its output.
pub fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// One before/after pair with derived rates.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Operations timed on each side.
    pub ops: u64,
    /// Baseline (pre-optimization) elapsed seconds.
    pub baseline_s: f64,
    /// Optimized elapsed seconds.
    pub optimized_s: f64,
}

impl Comparison {
    /// Baseline operations per second.
    pub fn baseline_rate(&self) -> f64 {
        self.ops as f64 / self.baseline_s.max(1e-12)
    }

    /// Optimized operations per second.
    pub fn optimized_rate(&self) -> f64 {
        self.ops as f64 / self.optimized_s.max(1e-12)
    }

    /// Throughput ratio (optimized / baseline).
    pub fn speedup(&self) -> f64 {
        self.baseline_s / self.optimized_s.max(1e-12)
    }

    /// Elapsed-time ratio (optimized / baseline): near 1.0 means the
    /// optimized side's extra machinery is free.
    pub fn overhead_ratio(&self) -> f64 {
        self.optimized_s / self.baseline_s.max(1e-12)
    }

    /// `ops`, `unit`, then each side's seconds and rate under the given
    /// side names (`<baseline>_s`, `<optimized>_s`, `<baseline>_per_sec`,
    /// `<optimized>_per_sec`).
    pub fn sides(&self, unit: &str, baseline: &str, optimized: &str) -> Object {
        Object::new()
            .int("ops", self.ops)
            .str("unit", unit)
            .num(&format!("{baseline}_s"), self.baseline_s)
            .num(&format!("{optimized}_s"), self.optimized_s)
            .num(&format!("{baseline}_per_sec"), self.baseline_rate())
            .num(&format!("{optimized}_per_sec"), self.optimized_rate())
    }

    /// The speedup section `perf_guard.sh` gates on: the baseline and
    /// optimized sides, then `speedup`.
    pub fn section(&self, unit: &str) -> Object {
        self.sides(unit, "baseline", "optimized")
            .num("speedup", self.speedup())
    }
}

/// A leaf value.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// An integer count.
    Int(u64),
    /// A measurement, written with six decimals (`null` if not finite).
    Num(f64),
    /// A string.
    Str(String),
    /// A flag.
    Bool(bool),
}

/// A top-level report field.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// A scalar.
    Scalar(Scalar),
    /// A section: one flat object.
    Object(Object),
    /// A sweep or curve: one flat object per row.
    Rows(Vec<Object>),
}

impl From<Scalar> for Field {
    fn from(s: Scalar) -> Self {
        Field::Scalar(s)
    }
}

/// Ordered `key: value` fields; see [`Object`] and [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fields<V>(Vec<(String, V)>);

/// A flat object of scalars, written on one line.
pub type Object = Fields<Scalar>;

/// A whole bench report: the `"benchmark"` title, then its fields.
pub type Report = Fields<Field>;

impl<V: From<Scalar>> Fields<V> {
    fn push(mut self, key: &str, value: impl Into<V>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Appends an integer field.
    pub fn int(self, key: &str, v: u64) -> Self {
        self.push(key, Scalar::Int(v))
    }

    /// Appends a measurement field.
    pub fn num(self, key: &str, v: f64) -> Self {
        self.push(key, Scalar::Num(v))
    }

    /// Appends a string field.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.push(key, Scalar::Str(v.to_string()))
    }

    /// Appends a flag field.
    pub fn bool(self, key: &str, v: bool) -> Self {
        self.push(key, Scalar::Bool(v))
    }
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Fields(Vec::new())
    }

    /// Appends every field of `other`, in order.
    pub fn append(mut self, other: Object) -> Self {
        self.0.extend(other.0);
        self
    }
}

impl Default for Object {
    fn default() -> Self {
        Self::new()
    }
}

impl Report {
    /// A report whose first field is `"benchmark": <title>`.
    pub fn new(title: &str) -> Self {
        Fields(Vec::new()).str("benchmark", title)
    }

    /// Appends a one-line section.
    pub fn object(self, key: &str, section: Object) -> Self {
        self.push(key, Field::Object(section))
    }

    /// Appends an array with one row object per line.
    pub fn rows(self, key: &str, rows: Vec<Object>) -> Self {
        self.push(key, Field::Rows(rows))
    }

    /// The JSON document, in the layout described in the module docs.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(key, field)| {
                let value = match field {
                    Field::Scalar(s) => s.to_string(),
                    Field::Object(o) => o.to_string(),
                    Field::Rows(rows) => {
                        let rows: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
                        format!("[\n{}\n  ]", rows.join(",\n"))
                    }
                };
                format!("  {}: {value}", Quoted(key))
            })
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

/// A measurement with six decimals, or `null` if it is not finite.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "\"{}\"",
            self.0.replace('\\', "\\\\").replace('"', "\\\"")
        )
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Num(x) => f.write_str(&json_num(*x)),
            Scalar::Str(s) => write!(f, "{}", Quoted(s)),
            Scalar::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (key, value)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{}: {value}", Quoted(key))?;
        }
        f.write_str("}")
    }
}

/// Schema checks of an emitted report against its committed baseline.
#[cfg(test)]
pub(crate) mod schema {
    use super::Report;

    /// What one top-level field holds.
    #[derive(Debug, PartialEq)]
    enum Shape {
        Scalar,
        /// A one-line section, with its field names in order.
        Object(Vec<String>),
        /// An array whose rows all carry these field names, in order.
        Rows(Vec<String>),
    }

    /// Field names of a one-line flat object, in order.
    fn keys(object: &str) -> Vec<String> {
        assert!(
            object.starts_with('{') && object.ends_with('}'),
            "not a one-line object: {object}"
        );
        let chunks: Vec<&str> = object.split("\": ").collect();
        chunks[..chunks.len() - 1]
            .iter()
            .map(|c| c.rsplit('"').next().unwrap_or_default().to_string())
            .collect()
    }

    /// Reads a report's shape from its text, checking the line layout
    /// on the way: top-level fields one per line, sections on one line,
    /// array rows one per line.
    fn shape(json: &str) -> Vec<(String, Shape)> {
        let mut lines = json.lines();
        assert_eq!(lines.next(), Some("{"));
        let mut out = Vec::new();
        while let Some(line) = lines.next() {
            let Some(entry) = line.strip_prefix("  \"") else {
                assert_eq!(line, "}", "unexpected line");
                assert_eq!(lines.next(), None, "text after the document");
                break;
            };
            let (key, value) = entry.split_once("\": ").expect("a `key: value` line");
            let value = value.strip_suffix(',').unwrap_or(value);
            let shape = if value == "[" {
                let mut rows = Vec::new();
                for row in lines.by_ref() {
                    if row.starts_with("  ]") {
                        break;
                    }
                    let row = row.strip_prefix("    ").expect("rows indent by four");
                    rows.push(keys(row.strip_suffix(',').unwrap_or(row)));
                }
                rows.dedup();
                assert!(rows.len() <= 1, "rows of {key} differ: {rows:?}");
                Shape::Rows(rows.pop().unwrap_or_default())
            } else if value.starts_with('{') {
                Shape::Object(keys(value))
            } else {
                Shape::Scalar
            };
            out.push((key.to_string(), shape));
        }
        out
    }

    /// Asserts that `report` has the committed `BENCH_<name>.json`'s
    /// top-level keys, section field names and row field names, all in
    /// order and in the same line layout. The entries of the objects
    /// named in `data_objects` are data, not schema, and are ignored.
    pub(crate) fn assert_matches_baseline(report: &Report, name: &str, data_objects: &[&str]) {
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed baseline");
        let erase = |mut s: Vec<(String, Shape)>| {
            for (key, shape) in &mut s {
                if data_objects.contains(&key.as_str()) {
                    *shape = Shape::Object(Vec::new());
                }
            }
            s
        };
        assert_eq!(
            erase(shape(&report.to_json())),
            erase(shape(&committed)),
            "emitted schema drifted from {path}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_rates_and_speedup() {
        let c = Comparison {
            ops: 100,
            baseline_s: 10.0,
            optimized_s: 2.0,
        };
        assert!((c.baseline_rate() - 10.0).abs() < 1e-9);
        assert!((c.optimized_rate() - 50.0).abs() < 1e-9);
        assert!((c.speedup() - 5.0).abs() < 1e-9);
        assert!((c.overhead_ratio() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn writer_lays_out_fields_sections_and_rows_one_per_line() {
        let json = Report::new("t")
            .object("config", Object::new().int("n", 3).num("rate", 0.5))
            .int("count", 7)
            .rows(
                "curve",
                vec![
                    Object::new().num("x", 1.0).bool("ok", true),
                    Object::new().num("x", f64::NAN).bool("ok", false),
                ],
            )
            .object("empty", Object::new())
            .to_json();
        assert_eq!(
            json,
            concat!(
                "{\n",
                "  \"benchmark\": \"t\",\n",
                "  \"config\": {\"n\": 3, \"rate\": 0.500000},\n",
                "  \"count\": 7,\n",
                "  \"curve\": [\n",
                "    {\"x\": 1.000000, \"ok\": true},\n",
                "    {\"x\": null, \"ok\": false}\n",
                "  ],\n",
                "  \"empty\": {}\n",
                "}\n"
            )
        );
    }

    /// The contract `perf_guard.sh`'s `extract()` parses: a comparison
    /// section is one line, `"name": {...}`, with no nested braces and a
    /// numeric `"speedup"` field.
    #[test]
    fn comparison_sections_render_as_one_line_flat_objects_with_speedup() {
        let c = Comparison {
            ops: 10,
            baseline_s: 2.0,
            optimized_s: 0.5,
        };
        let json = Report::new("t")
            .object("config", Object::new().int("n", 1))
            .object("first_row", c.section("ops"))
            .object("second_row", c.section("probes"))
            .to_json();
        for name in ["first_row", "second_row"] {
            let prefix = format!("  \"{name}\": ");
            let lines: Vec<&str> = json.lines().filter(|l| l.starts_with(&prefix)).collect();
            assert_eq!(lines.len(), 1, "{name} spans lines:\n{json}");
            let body = &lines[0][prefix.len()..];
            let body = body.strip_suffix(',').unwrap_or(body);
            let inner = body
                .strip_prefix('{')
                .and_then(|b| b.strip_suffix('}'))
                .expect("an object");
            assert!(!inner.contains(['{', '}']), "nested object in {body}");
            let speedup = inner
                .split("\"speedup\": ")
                .nth(1)
                .expect("a speedup field");
            assert_eq!(speedup.parse::<f64>().ok(), Some(4.0));
        }
    }
}
