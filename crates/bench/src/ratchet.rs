//! Bench ratchet: one comparator for every `BENCH_*.json` artifact.
//!
//! Artifacts are flat [`Row`] lists (see [`crate::row`]), and
//! [`compare`] applies four rules to them:
//!
//! 1. **Invariants.** A `true` row (`deterministic`, `clean`,
//!    `table_matches_scan`, …) must read 1 in the fresh run — no tolerance.
//! 2. **Bands.** A `higher` / `lower` row must stay within its band of the
//!    committed row with the same name. Rows with unit `x` are same-process
//!    ratios, largely machine-independent, and get `ratio_tolerance`
//!    (default 15%, `MBP_RATCHET_RATIO_TOL`). Every other unit — p99
//!    latencies, throughputs — depends on the machine and gets
//!    `p99_tolerance` (default 100%, a gross-regression guard,
//!    `MBP_RATCHET_TOL`).
//! 3. **Hard bounds.** A row's `floor` / `ceiling` binds the *committed*
//!    value: smoke re-runs time these ratios too noisily for an exact
//!    cutoff, and binding the committed artifact means a regression cannot
//!    be laundered by regenerating a worse baseline — the regeneration
//!    itself fails CI, while fresh runs stay inside the relative band.
//! 4. **Trace budgets.** Fresh tracing overhead must stay under the fixed
//!    [`TRACE_BUDGETS`]; the committed artifact carries the strict
//!    2% / 10% contract as ceilings (rule 3).
//!
//! A committed row missing from the fresh run fails. Artifacts are parsed
//! with a small self-contained JSON reader (the workspace is
//! dependency-free), so the comparator accepts any conforming document,
//! not just the exact text the writer produces.

use crate::row::{Better, Row, Value};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Minimal JSON value + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value (number, string, bool, null, array, or object).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A JSON number with a fraction or exponent, or an integer too large
    /// for `u64`.
    Num(f64),
    /// A JSON integer literal that fits a `u64`, held exactly.
    Int(u64),
    /// A JSON string (escapes decoded).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Field lookup on objects; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number (integers above 2^53 round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected literal '{lit}'")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or_else(|| self.err("short \\u escape"))?;
                            let v = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + v;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-by-byte.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                            end += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..end])
                                .map_err(|_| self.err("invalid utf-8"))?,
                        );
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Obj(map)),
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::Arr(items)),
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

/// Parses a JSON document into a [`Json`] value.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------------

/// Fresh tracing-overhead budgets (rule 4): single-core and shared
/// machines time the floor-vs-disabled delta too noisily for the strict
/// 2% / 10% contract, so the fresh re-measurement is a gross-regression
/// guard (catching e.g. an accidental syscall or allocation on the
/// disabled path).
pub const TRACE_BUDGETS: [(&str, f64); 2] =
    [("overhead_disabled", 0.25), ("overhead_enabled", 0.50)];

/// Tolerance bands for the ratchet.
#[derive(Debug, Clone, Copy)]
pub struct RatchetConfig {
    /// Allowed relative drop on same-process ratio rows (unit `x`).
    pub ratio_tolerance: f64,
    /// Allowed relative regression on every other gated row.
    pub p99_tolerance: f64,
}

impl Default for RatchetConfig {
    fn default() -> Self {
        RatchetConfig {
            ratio_tolerance: 0.15,
            p99_tolerance: 1.00,
        }
    }
}

impl RatchetConfig {
    /// Default bands, with `MBP_RATCHET_TOL` (a float, e.g. `1.0` = 100%)
    /// widening the absolute-latency band and `MBP_RATCHET_RATIO_TOL`
    /// widening the ratio band for slow or shared runners (single smoke
    /// runs on a time-sliced core swing same-process ratios by ±25%).
    pub fn from_env() -> Self {
        let tol = |name: &str, default: f64| {
            std::env::var(name)
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .filter(|v| v.is_finite() && *v >= 0.0)
                .unwrap_or(default)
        };
        let d = RatchetConfig::default();
        RatchetConfig {
            ratio_tolerance: tol("MBP_RATCHET_RATIO_TOL", d.ratio_tolerance),
            p99_tolerance: tol("MBP_RATCHET_TOL", d.p99_tolerance),
        }
    }
}

/// The ratchet verdict for one artifact.
#[derive(Debug, Clone, Default)]
pub struct RatchetReport {
    /// Checks performed.
    pub checks: usize,
    /// Human-readable failure descriptions (empty means pass).
    pub failures: Vec<String>,
}

impl RatchetReport {
    /// True when no check failed.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    /// One line per failed check, or `ratchet pass (N checks)`.
    pub fn render(&self) -> String {
        if self.pass() {
            format!("ratchet pass ({} checks)", self.checks)
        } else {
            let mut out = format!(
                "ratchet FAIL ({} of {} checks):\n",
                self.failures.len(),
                self.checks
            );
            for f in &self.failures {
                out.push_str("  - ");
                out.push_str(f);
                out.push('\n');
            }
            out
        }
    }
}

/// Diffs a fresh run against the committed artifact by the four rules in
/// the module docs. With `fresh = None` the committed artifact is audited
/// alone: its own invariants (rule 1) and hard bounds (rule 3).
pub fn compare(committed: &[Row], fresh: Option<&[Row]>, cfg: &RatchetConfig) -> RatchetReport {
    let mut report = RatchetReport::default();
    for row in fresh.unwrap_or(committed) {
        if row.better == Better::True {
            report.check(matches!(row.value, Value::Exact(1)), || {
                format!("{} must hold in the fresh run", row.name)
            });
        }
    }
    let fresh_by_name: BTreeMap<&str, &Row> = fresh
        .unwrap_or_default()
        .iter()
        .map(|r| (r.name.as_str(), r))
        .collect();
    for base in committed {
        let name = &base.name;
        let value = base.value.as_f64();
        if let Some(floor) = base.floor {
            report.check(value >= floor, || {
                format!("{name} below hard floor: committed {value:.4} < {floor:.4}")
            });
        }
        if let Some(ceiling) = base.ceiling {
            report.check(value <= ceiling, || {
                format!("{name} above hard ceiling: committed {value:.4} > {ceiling:.4}")
            });
        }
        if fresh.is_none() {
            continue;
        }
        let Some(now) = fresh_by_name.get(name.as_str()) else {
            report
                .failures
                .push(format!("{name} missing from fresh run"));
            continue;
        };
        let now = now.value.as_f64();
        let tol = if base.unit == "x" {
            cfg.ratio_tolerance
        } else {
            cfg.p99_tolerance
        };
        match base.better {
            Better::Higher => {
                let floor = value * (1.0 - tol);
                report.check(now >= floor, || {
                    format!("{name} regressed: fresh {now:.4} < floor {floor:.4} (baseline {value:.4}, tol {tol:.2})")
                });
            }
            Better::Lower => {
                let ceiling = value * (1.0 + tol);
                report.check(now <= ceiling, || {
                    format!("{name} regressed: fresh {now:.3} > ceiling {ceiling:.3} (baseline {value:.3}, tol {tol:.2})")
                });
            }
            Better::True | Better::None => {}
        }
    }
    for (name, budget) in TRACE_BUDGETS {
        if let Some(row) = fresh_by_name.get(name) {
            let now = row.value.as_f64();
            report.check(now <= budget, || {
                format!("{name} over budget: fresh {now:.4} > {budget:.2}")
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::parse_rows;

    fn committed(text: &str) -> Vec<Row> {
        parse_rows(text).expect("committed artifact parses")
    }

    fn serving() -> Vec<Row> {
        committed(include_str!("../../../BENCH_serving.json"))
    }
    fn serve_net() -> Vec<Row> {
        committed(include_str!("../../../BENCH_serve_net.json"))
    }
    fn kernel() -> Vec<Row> {
        committed(include_str!("../../../BENCH_kernel.json"))
    }
    fn wal() -> Vec<Row> {
        committed(include_str!("../../../BENCH_wal.json"))
    }
    fn testkit() -> Vec<Row> {
        committed(include_str!("../../../BENCH_testkit.json"))
    }
    fn trace() -> Vec<Row> {
        committed(include_str!("../../../BENCH_trace.json"))
    }

    /// A copy of `rows` with the named row rewritten by `edit`.
    fn doctored(rows: &[Row], name: &str, edit: impl Fn(&mut Row)) -> Vec<Row> {
        let mut out = rows.to_vec();
        let row = out
            .iter_mut()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("row {name} present"));
        edit(row);
        out
    }

    fn self_compare(rows: &[Row]) -> RatchetReport {
        compare(rows, Some(rows), &RatchetConfig::default())
    }

    fn fails_naming(report: &RatchetReport, needles: &[&str]) -> bool {
        !report.pass()
            && report
                .failures
                .iter()
                .any(|f| needles.iter().all(|n| f.contains(n)))
    }

    #[test]
    fn parser_round_trips_committed_baselines() {
        let rows = serving();
        assert!(rows.iter().any(|r| r.name == "table_speedup_vs_scan"));
        assert_eq!(
            rows.iter()
                .filter(|r| r.name.ends_with(".p99_micros"))
                .count(),
            7
        );
        let rows = testkit();
        assert_eq!(
            rows.iter()
                .filter(|r| r.name.ends_with(".units_per_sec"))
                .count(),
            4
        );
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse_json(
            r#"{"a": [1, -2.5e-1, "x\"\\\n", 18446744073709551615], "b": {"c": true, "d": null}}"#,
        )
        .expect("parses");
        let a = doc.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(a[2].as_str(), Some("x\"\\\n"));
        assert_eq!(a[0], Json::Int(1));
        assert_eq!(a[1], Json::Num(-0.25));
        assert_eq!(a[3], Json::Int(u64::MAX), "integers stay exact");
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "{\"a\": }", "[1, 2", "{\"a\": 1} trailing", "\"open"] {
            assert!(parse_json(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn ratchet_passes_on_committed_baselines() {
        for rows in [serving(), testkit(), kernel(), serve_net(), wal()] {
            let report = self_compare(&rows);
            assert!(report.pass(), "{}", report.render());
        }
        let report = compare(&trace(), None, &RatchetConfig::default());
        assert!(report.pass(), "{}", report.render());
    }

    /// Each ratchet section performs the same number of checks as the
    /// per-artifact comparators it replaced (wal lost the two duplicate
    /// fsync sweep points), plus kernel's three DP solve-time rows.
    #[test]
    fn check_counts_per_section_are_pinned() {
        let cfg = RatchetConfig::default();
        assert_eq!(compare(&trace(), None, &cfg).checks, 3);
        assert_eq!(self_compare(&serving()).checks, 14);
        assert_eq!(self_compare(&serve_net()).checks, 9);
        assert_eq!(self_compare(&kernel()).checks, 23);
        assert_eq!(self_compare(&wal()).checks, 7);
        assert_eq!(self_compare(&testkit()).checks, 6);
        assert_eq!(compare(&[], Some(&trace()), &cfg).checks, 3);
    }

    /// Acceptance: the committed durability baseline must show recovery
    /// replaying at least as fast as live ingest (speedup ≥ 1.0), and a
    /// baseline doctored below that floor fails its own self-compare.
    #[test]
    fn wal_hard_floor_binds_the_committed_artifact() {
        let rows = wal();
        let speedup = rows
            .iter()
            .find(|r| r.name == "recovery_replay_speedup")
            .expect("ratio present");
        assert_eq!(speedup.floor, Some(1.0));
        assert!(
            speedup.value.as_f64() >= 1.0,
            "committed recovery_replay_speedup {:?} under the 1.0 floor",
            speedup.value
        );
        let bad = doctored(&rows, "recovery_replay_speedup", |r| {
            r.value = Value::Num(0.5)
        });
        let report = self_compare(&bad);
        assert!(
            fails_naming(&report, &["hard floor", "recovery_replay_speedup"]),
            "{}",
            report.render()
        );
    }

    /// Acceptance: the committed network baseline must show batch
    /// admission beating per-request dispatch at least 2x, and a baseline
    /// doctored below that floor fails its own self-compare.
    #[test]
    fn serve_net_hard_floor_binds_the_committed_artifact() {
        let rows = serve_net();
        let speedup = rows
            .iter()
            .find(|r| r.name == "batch_admission_speedup")
            .expect("ratio present");
        assert_eq!(speedup.floor, Some(2.0));
        assert!(speedup.value.as_f64() >= 2.0);
        let bad = doctored(&rows, "batch_admission_speedup", |r| {
            r.value = Value::Num(1.5)
        });
        let report = self_compare(&bad);
        assert!(
            fails_naming(&report, &["hard floor", "batch_admission_speedup"]),
            "{}",
            report.render()
        );
    }

    #[test]
    fn serve_net_ratchet_fails_on_broken_determinism_and_missing_point() {
        let cfg = RatchetConfig::default();
        let rows = serve_net();
        // A digest mismatch in the fresh run is always fatal.
        let broken = doctored(&rows, "per_request_matches_batched", |r| {
            r.value = Value::Exact(0)
        });
        let report = compare(&rows, Some(&broken), &cfg);
        assert!(fails_naming(&report, &["per_request_matches_batched"]));
        // A dropped sweep point is fatal too.
        let dropped: Vec<Row> = rows
            .iter()
            .map(|r| Row {
                name: r.name.replace("sweep.16conns.", "sweep.17conns."),
                ..r.clone()
            })
            .collect();
        let report = compare(&rows, Some(&dropped), &cfg);
        assert!(fails_naming(
            &report,
            &["sweep.16conns", "missing from fresh run"]
        ));
    }

    /// The committed serving artifact must clear the absolute hard floors —
    /// the compiled table beats the scan and the batch path beats the
    /// single-quote path 3x — not merely avoid regressing against itself.
    #[test]
    fn hard_floors_bind_regardless_of_baseline() {
        let rows = serving();
        for (name, floor) in [
            ("table_speedup_vs_scan", 1.0),
            ("batch_speedup_vs_single", 3.0),
        ] {
            let row = rows.iter().find(|r| r.name == name).expect("ratio present");
            assert_eq!(row.floor, Some(floor), "{name}");
            assert!(row.value.as_f64() >= floor, "committed {name} under floor");
        }
        // Committing a baseline doctored below the floor fails its own
        // self-compare (which CI runs on every change), even though the
        // relative band alone would pass a self-compare trivially — so a
        // worse baseline can never be laundered in.
        let bad = doctored(&rows, "table_speedup_vs_scan", |r| {
            r.value = Value::Num(0.9)
        });
        let report = self_compare(&bad);
        assert!(
            fails_naming(&report, &["hard floor", "table_speedup_vs_scan"]),
            "{}",
            report.render()
        );
    }

    #[test]
    fn kernel_ratchet_fails_on_throughput_and_consistency_regressions() {
        let cfg = RatchetConfig::default();
        let rows = kernel();
        // A consistency break is always fatal.
        let broken = doctored(&rows, "consistent", |r| r.value = Value::Exact(0));
        assert!(!compare(&rows, Some(&broken), &cfg).pass());
        // A collapsed grid speedup beyond tolerance is fatal.
        let slowed = doctored(&rows, "speedups.grid_vs_pp@512", |r| {
            r.value = Value::Num(r.value.as_f64() * 0.2)
        });
        let report = compare(&rows, Some(&slowed), &cfg);
        assert!(
            fails_naming(&report, &["grid_vs_pp@512"]),
            "{}",
            report.render()
        );
    }

    /// Acceptance: an injected p99 regression beyond tolerance fails the
    /// ratchet, and the failure names the regressed workload.
    #[test]
    fn ratchet_fails_on_injected_p99_regression() {
        let rows = serving();
        let name = "workloads.serve-into.p99_micros";
        let fresh = doctored(&rows, name, |r| {
            r.value = Value::Num(r.value.as_f64() * 10.0)
        });
        let report = compare(&rows, Some(&fresh), &RatchetConfig::default());
        assert!(fails_naming(&report, &[name]), "{}", report.render());
    }

    #[test]
    fn ratchet_fails_on_ratio_regression_and_missing_workload() {
        let rows = serving();
        let fresh: Vec<Row> = doctored(&rows, "table_speedup_vs_scan", |r| {
            r.value = Value::Num(0.0001)
        })
        .into_iter()
        .map(|r| Row {
            name: r.name.replace("pricing-table", "pricing-table-renamed"),
            ..r
        })
        .collect();
        let report = compare(&rows, Some(&fresh), &RatchetConfig::default());
        assert!(fails_naming(
            &report,
            &["table_speedup_vs_scan", "regressed"]
        ));
        assert!(fails_naming(
            &report,
            &["pricing-table", "missing from fresh run"]
        ));
    }

    #[test]
    fn wider_tolerance_forgives_small_regressions() {
        // Speedups sit comfortably above the hard floors so this test
        // exercises the relative bands in isolation.
        let base = vec![
            Row::num("table_speedup_vs_scan", 2.0, "x", Better::Higher).floor(1.0),
            Row::num("batch_speedup_vs_single", 4.0, "x", Better::Higher).floor(3.0),
            Row::flag("deterministic", true, Better::True),
            Row::num("workloads.w.p99_micros", 100.0, "us", Better::Lower),
        ];
        let fresh = doctored(&base, "table_speedup_vs_scan", |r| {
            r.value = Value::Num(1.8)
        });
        let fresh = doctored(&fresh, "workloads.w.p99_micros", |r| {
            r.value = Value::Num(140.0)
        });
        let loose = RatchetConfig {
            ratio_tolerance: 0.15,
            p99_tolerance: 0.50,
        };
        let report = compare(&base, Some(&fresh), &loose);
        assert!(report.pass(), "{}", report.render());
        let tight = RatchetConfig {
            ratio_tolerance: 0.05,
            p99_tolerance: 0.10,
        };
        let report = compare(&base, Some(&fresh), &tight);
        assert_eq!(
            report.failures.len(),
            2,
            "tight tolerance must catch both regressions: {}",
            report.render()
        );
    }

    #[test]
    fn trace_overhead_budgets_are_enforced() {
        let cfg = RatchetConfig::default();
        let run = |disabled: f64, enabled: f64| {
            vec![
                Row::num("overhead_disabled", disabled, "ratio", Better::Lower).ceiling(0.02),
                Row::num("overhead_enabled", enabled, "ratio", Better::Lower).ceiling(0.10),
                Row::flag("deterministic", true, Better::True),
            ]
        };
        // Committed: the strict 2% / 10% ceilings.
        let report = compare(&run(0.01, 0.06), None, &cfg);
        assert!(report.pass(), "{}", report.render());
        let report = compare(&run(0.01, 0.25), None, &cfg);
        assert!(fails_naming(&report, &["overhead_enabled", "ceiling"]));
        // Fresh: the fixed 25% / 50% budgets.
        let report = compare(&[], Some(&run(0.01, 0.25)), &cfg);
        assert!(report.pass(), "{}", report.render());
        let report = compare(&[], Some(&run(0.01, 0.60)), &cfg);
        assert!(fails_naming(&report, &["overhead_enabled", "budget"]));
    }
}
