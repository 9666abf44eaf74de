//! The one bench artifact format: a provenance header plus flat rows.
//!
//! Every `BENCH_*.json` file is
//!
//! ```json
//! {
//!   "hardware_threads": 2, "commit": "unknown", "generated_at": "unknown",
//!   "rows": [
//!     {"name": "table_speedup_vs_scan", "value": 2.7894, "unit": "x", "better": "higher", "floor": 1.0},
//!     {"name": "workloads.serve-into.p99_micros", "value": 1.814, "unit": "us", "better": "lower"}
//!   ]
//! }
//! ```
//!
//! Row names flatten the measurement's path (`sweep.16conns.p99_micros`).
//! `better` says how [`crate::ratchet::compare`] treats the row: `higher` /
//! `lower` rows are gated against the committed value, `true` rows are
//! invariants that must read 1, and `none` rows are recorded only. An
//! optional `floor` / `ceiling` binds the committed value absolutely.
//! Integers (counts, flags, u64 digests) are written without a decimal
//! point and read back exactly; they never pass through `f64`.

use crate::ratchet::{parse_json, Json};
use crate::RunMeta;
use std::path::PathBuf;

/// How the ratchet treats a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Gated: must not fall below the committed value's band.
    Higher,
    /// Gated: must not rise above the committed value's band.
    Lower,
    /// An invariant: the value must be exactly 1.
    True,
    /// Recorded only.
    None,
}

impl Better {
    /// The JSON spelling: `higher`, `lower`, `true`, or `none`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
            Better::True => "true",
            Better::None => "none",
        }
    }

    fn parse(s: &str) -> Option<Better> {
        [Better::Higher, Better::Lower, Better::True, Better::None]
            .into_iter()
            .find(|b| b.as_str() == s)
    }
}

/// A row's value: a measurement, or an exact integer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A measured quantity.
    Num(f64),
    /// A count, a 0/1 flag, or a u64 digest, held exactly.
    Exact(u64),
}

impl Value {
    /// The value as a float (exact integers above 2^53 round).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Num(v) => v,
            Value::Exact(v) => v as f64,
        }
    }
}

/// One bench measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Flattened metric path, unique within its artifact.
    pub name: String,
    /// The measured value.
    pub value: Value,
    /// Unit: `x` marks a same-process ratio (gated with the ratio band).
    pub unit: String,
    /// How the ratchet treats the row.
    pub better: Better,
    /// Absolute lower bound on the committed value.
    pub floor: Option<f64>,
    /// Absolute upper bound on the committed value.
    pub ceiling: Option<f64>,
}

impl Row {
    /// A measured value.
    pub fn num(name: impl Into<String>, value: f64, unit: &str, better: Better) -> Row {
        Row {
            name: name.into(),
            value: Value::Num(value),
            unit: unit.to_string(),
            better,
            floor: None,
            ceiling: None,
        }
    }

    /// A recorded-only exact integer: a count or a u64 digest.
    pub fn exact(name: impl Into<String>, value: u64, unit: &str) -> Row {
        Row {
            value: Value::Exact(value),
            ..Row::num(name, 0.0, unit, Better::None)
        }
    }

    /// A boolean as 0/1: [`Better::True`] for an invariant,
    /// [`Better::None`] for a recorded-only flag.
    pub fn flag(name: impl Into<String>, holds: bool, better: Better) -> Row {
        Row {
            value: Value::Exact(u64::from(holds)),
            ..Row::num(name, 0.0, "bool", better)
        }
    }

    /// Sets the absolute floor on the committed value.
    pub fn floor(self, floor: f64) -> Row {
        Row {
            floor: Some(floor),
            ..self
        }
    }

    /// Sets the absolute ceiling on the committed value.
    pub fn ceiling(self, ceiling: f64) -> Row {
        Row {
            ceiling: Some(ceiling),
            ..self
        }
    }
}

/// Serializes an artifact: the provenance header, then one row per line.
pub fn to_json(meta: &RunMeta, rows: &[Row]) -> String {
    let mut out = format!(
        "{{\n  \"hardware_threads\": {},\n  \"commit\": \"{}\",\n  \"generated_at\": \"{}\",\n  \"rows\": [\n",
        meta.hardware_threads, meta.commit, meta.generated_at
    );
    for (i, r) in rows.iter().enumerate() {
        let value = match r.value {
            // `{:?}` keeps a `.` or an exponent, so an integral float
            // never reads back as an exact integer.
            Value::Num(v) => format!("{v:?}"),
            Value::Exact(v) => v.to_string(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {value}, \"unit\": \"{}\", \"better\": \"{}\"",
            r.name,
            r.unit,
            r.better.as_str()
        ));
        for (key, bound) in [("floor", r.floor), ("ceiling", r.ceiling)] {
            if let Some(b) = bound {
                out.push_str(&format!(", \"{key}\": {b:?}"));
            }
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads the rows of an artifact written by [`to_json`].
pub fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = parse_json(text)?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'rows'")?;
    rows.iter()
        .map(|r| {
            let text_field = |key: &str| {
                r.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("row without a string '{key}': {r:?}"))
            };
            let name = text_field("name")?;
            let value = match r.get("value") {
                Some(Json::Int(v)) => Value::Exact(*v),
                Some(Json::Num(v)) => Value::Num(*v),
                _ => return Err(format!("row '{name}' without a numeric value")),
            };
            let better = Better::parse(text_field("better")?)
                .ok_or_else(|| format!("row '{name}' has an unknown 'better'"))?;
            Ok(Row {
                name: name.to_string(),
                value,
                unit: text_field("unit")?.to_string(),
                better,
                floor: r.get("floor").and_then(Json::as_f64),
                ceiling: r.get("ceiling").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Writes an artifact as `file` inside the bench directory
/// (`MBP_BENCH_DIR`, default `.`), creating the directory if needed, and
/// returns the path written.
pub fn write_artifact(file: &str, meta: &RunMeta, rows: &[Row]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(std::env::var("MBP_BENCH_DIR").unwrap_or_else(|_| ".".to_string()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, to_json(meta, rows))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attackbench, kernelbench, netbench, parbench, servebench, tracebench, walbench};
    use std::collections::BTreeMap;

    /// For every bench, a smoke run's rows cover the committed artifact's
    /// rows (what the ratchet needs), carry the same hard bounds (so a
    /// hand-edited committed file cannot drop a floor), and round-trip
    /// through the writer and reader.
    #[test]
    fn every_bench_covers_its_committed_rows_and_round_trips() {
        let _g = crate::obs_serial();
        let cases: Vec<(&str, &str, RunMeta, Vec<Row>)> = vec![
            {
                let b = parbench::run(1);
                (
                    parbench::FILE,
                    include_str!("../../../BENCH_parallel.json"),
                    b.meta.clone(),
                    b.rows(),
                )
            },
            {
                let b = servebench::run(256);
                (
                    servebench::FILE,
                    include_str!("../../../BENCH_serving.json"),
                    b.meta.clone(),
                    b.rows(),
                )
            },
            {
                let b = netbench::run(64);
                (
                    netbench::FILE,
                    include_str!("../../../BENCH_serve_net.json"),
                    b.meta.clone(),
                    b.rows(),
                )
            },
            {
                let b = kernelbench::run(1024);
                (
                    kernelbench::FILE,
                    include_str!("../../../BENCH_kernel.json"),
                    b.meta.clone(),
                    b.rows(),
                )
            },
            {
                let b = walbench::run(1_000);
                (
                    walbench::FILE,
                    include_str!("../../../BENCH_wal.json"),
                    b.meta.clone(),
                    b.rows(),
                )
            },
            {
                let b = attackbench::run(1_000);
                (
                    attackbench::FILE,
                    include_str!("../../../BENCH_testkit.json"),
                    b.meta.clone(),
                    b.rows(),
                )
            },
            {
                let b = tracebench::run_with_dim(256, 32);
                (
                    tracebench::FILE,
                    include_str!("../../../BENCH_trace.json"),
                    b.meta.clone(),
                    b.rows(),
                )
            },
        ];
        for (file, committed_text, meta, fresh) in cases {
            let committed = parse_rows(committed_text).expect("committed artifact parses");
            let by_name: BTreeMap<&str, &Row> =
                fresh.iter().map(|r| (r.name.as_str(), r)).collect();
            assert_eq!(
                by_name.len(),
                fresh.len(),
                "{file}: row names must be unique"
            );
            for c in &committed {
                let f = by_name
                    .get(c.name.as_str())
                    .unwrap_or_else(|| panic!("{file}: smoke run lacks committed row {}", c.name));
                assert_eq!(
                    (c.better, c.floor, c.ceiling),
                    (f.better, f.floor, f.ceiling),
                    "{file}: {} disagrees with the code",
                    c.name
                );
            }
            let bounded = fresh
                .iter()
                .filter(|r| r.floor.is_some() || r.ceiling.is_some());
            for f in bounded {
                assert!(
                    committed.iter().any(|c| c.name == f.name),
                    "{file}: bounded row {} missing from the committed artifact",
                    f.name
                );
            }
            let text = to_json(&meta, &fresh);
            assert_eq!(parse_rows(&text).as_ref(), Ok(&fresh), "{file}: round trip");
            let doc = parse_json(&text).expect("artifact parses");
            for key in ["hardware_threads", "commit", "generated_at"] {
                assert!(doc.get(key).is_some(), "{file}: header lacks {key}");
            }
        }
    }

    #[test]
    fn exact_and_integral_values_round_trip() {
        let rows = vec![
            Row::exact("digest", u64::MAX, "digest"),
            Row::num("integral", 2000.0, "1/s", Better::Higher).floor(1.0),
            Row::num("tiny", 1e-300, "s", Better::None),
            Row::flag("ok", true, Better::True),
        ];
        assert_eq!(parse_rows(&to_json(&RunMeta::from_env(), &rows)), Ok(rows));
    }
}
