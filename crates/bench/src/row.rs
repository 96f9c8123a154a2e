//! The one JSON writer behind every `BENCH_*.json` file and every
//! `pacds shard|churn|dataplane --json` line.
//!
//! A [`Row`] is an ordered list of `"key": value` pairs. It serialises to
//! one compact line ([`Row::json`]); [`file`] wraps a list of rows
//! in the header every bench file carries: `benchmark`, `description`,
//! `unit`, `machine_threads`, any extra keys, then `results`.
//!
//! Hand-written: the bench crate deliberately takes no serde dependency.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i128),
    /// Shortest round-trip form; NaN and infinities write `null`.
    Num(f64),
    /// Fixed number of decimals; NaN and infinities write `null`.
    Fixed(f64, usize),
    Str(String),
    Bool(bool),
    List(Vec<Value>),
    Obj(Row),
    Null,
}

/// An ordered JSON object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(&'static str, Value)>);

impl Row {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key: v`.
    pub fn with(mut self, key: &'static str, v: impl Into<Value>) -> Self {
        self.0.push((key, v.into()));
        self
    }

    /// Appends `key: v` rounded to `digits` decimals.
    pub fn fixed(self, key: &'static str, v: f64, digits: usize) -> Self {
        self.with(key, Value::Fixed(v, digits))
    }

    /// Appends every pair of `other`.
    pub fn extend(mut self, other: Row) -> Self {
        self.0.extend(other.0);
        self
    }

    /// The number under `key`; NaN when absent or not a number.
    pub fn num(&self, key: &str) -> f64 {
        match self.0.iter().find(|(k, _)| *k == key) {
            Some((_, Value::Int(v))) => *v as f64,
            Some((_, Value::Num(v) | Value::Fixed(v, _))) => *v,
            _ => f64::NAN,
        }
    }

    /// The row as one compact JSON line (no trailing newline).
    pub fn json(&self) -> String {
        let mut out = String::new();
        Value::Obj(self.clone()).write(&mut out);
        out
    }
}

impl Value {
    fn write(&self, out: &mut String) {
        match self {
            Value::Int(v) => write!(out, "{v}").unwrap(),
            Value::Num(v) if v.is_finite() => write!(out, "{v}").unwrap(),
            Value::Fixed(v, d) if v.is_finite() => write!(out, "{v:.d$}").unwrap(),
            Value::Num(_) | Value::Fixed(..) | Value::Null => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Bool(b) => write!(out, "{b}").unwrap(),
            Value::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(row) => {
                out.push('{');
                for (i, (k, v)) in row.0.iter().enumerate() {
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
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! value_from {
    ($($t:ty => $variant:ident($conv:expr)),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant($conv(v))
            }
        }
    )*};
}
value_from! {
    u32 => Int(i128::from),
    u64 => Int(i128::from),
    usize => Int(|v| v as i128),
    f64 => Num(f64::from),
    bool => Bool(bool::from),
    &str => Str(str::to_string),
    Row => Obj(Row::from),
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

/// Cores the bench box offers; wall-clock rows depend on it.
pub fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A whole bench file: the common header, `extra` keys after it, then
/// `results` one row per line. Lists of objects among the extras are
/// written one object per line as well.
pub fn file(
    benchmark: &str,
    description: &str,
    unit: &str,
    extra: Row,
    results: Vec<Row>,
) -> String {
    let header = Row::new()
        .with("benchmark", benchmark)
        .with("description", description)
        .with("unit", unit)
        .with("machine_threads", machine_threads())
        .extend(extra)
        .with("results", results);
    let mut out = String::from("{\n");
    for (i, (k, v)) in header.0.iter().enumerate() {
        out.push_str("  ");
        write_str(&mut out, k);
        out.push_str(": ");
        match v {
            Value::List(items) if items.iter().all(|v| matches!(v, Value::Obj(_))) => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    item.write(&mut out);
                    out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            }
            v => v.write(&mut out),
        }
        out.push_str(if i + 1 < header.0.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Writes `text` to `path`, reporting the path on stderr.
pub fn write(path: &str, text: &str) -> Result<(), crate::Error> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_files_write_json() {
        let row = Row::new()
            .with("n", 400usize)
            .with("radius", 25.0)
            .with("whole_graph_s", f64::NAN)
            .fixed("ratio", 1.0 / 3.0, 3)
            .with("tiles", vec![1u64, 2])
            .with("q", "a\"b");
        let line =
            r#"{"n":400,"radius":25,"whole_graph_s":null,"ratio":0.333,"tiles":[1,2],"q":"a\"b"}"#;
        assert_eq!(row.json(), line);
        let text = file(
            "b",
            "d",
            "ns",
            Row::new().with("gate", true),
            vec![row.clone(), row],
        );
        let threads = machine_threads();
        let head = format!(
            "{{\n  \"benchmark\": \"b\",\n  \"description\": \"d\",\n  \"unit\": \"ns\",\n  \
             \"machine_threads\": {threads},\n  \"gate\": true,\n"
        );
        assert_eq!(
            text,
            format!("{head}  \"results\": [\n    {line},\n    {line}\n  ]\n}}\n")
        );
    }
}
