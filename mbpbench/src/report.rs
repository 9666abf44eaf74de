//! The run's output: a human-readable table, then one JSON line.

use std::fmt::Write as _;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`us`, `ms`, `s`, `1/s`, `MB`, `count`, ...).
    pub unit: &'static str,
    /// Samples behind the value (0 when it is a single reading).
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed and the generator kept up.
    pub correct: bool,
    /// Operations attempted over the run.
    pub attempted: u64,
    /// Operations that failed (error frames, backpressure, timeouts).
    pub failed: u64,
    /// Metrics for the JSON line, in order.
    pub metrics: Vec<Metric>,
    /// Extra rows for the table only (workload-specific figures).
    pub extra: Vec<Metric>,
    /// Checks that failed, and other notes, for the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The human-readable table (several lines, no trailing newline).
    pub fn table(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:<26} {:>16} {:<6} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                out,
                "{:<26} {:>16.6} {:<6} {:>9}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out.trim_end().to_string()
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Shortest round-trip decimal form (all digits); non-finite values,
/// which JSON cannot carry, become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
