//! Segment-lookup microbench: branchy `partition_point` vs the compiled
//! [`SegmentIndex`] layouts.
//!
//! For each knot count (16 / 512 / 8192) the same query stream is resolved
//! four ways:
//!
//! * **pp-uniform** — `slice::partition_point` over a uniform knot grid
//!   (the pre-index serving code path);
//! * **grid** — the fixed-stride grid layout the index compiles for
//!   near-uniform knots (one multiply + two arithmetic fixups, no
//!   data-dependent branch);
//! * **pp-jittered** — `partition_point` over a non-uniform grid;
//! * **eytzinger** — the Eytzinger (BFS-ordered) layout with
//!   conditional-move descent, compiled for irregular knots.
//!
//! Before any timing, every query is cross-checked: both index layouts
//! must return *exactly* `partition_point`'s answer (`consistent`). Each
//! workload runs twice from identical state and must reproduce its digest
//! (`deterministic`). The `all` binary writes the result's rows to
//! [`FILE`]; the ratchet diffs per-layout throughput and the
//! grid/eytzinger-vs-partition-point speedup ratios against the committed
//! baseline.

use crate::row::{Better, Row};
use mbp_core::SegmentIndex;
use std::time::Instant;

/// The artifact's file name.
pub const FILE: &str = "BENCH_kernel.json";

/// Knot counts exercised by the sweep.
pub const SIZES: [usize; 3] = [16, 512, 8192];

/// One measured lookup workload.
#[derive(Debug, Clone)]
pub struct KernelWorkload {
    /// Workload label, `layout@knots`.
    pub name: String,
    /// Knots in the searched array.
    pub knots: usize,
    /// Lookups per run.
    pub lookups: usize,
    /// Wall seconds for the faster of the two runs.
    pub seconds: f64,
    /// Throughput derived from `seconds`.
    pub lookups_per_sec: f64,
    /// Index-sum digest of the first run.
    pub digest: f64,
    /// Whether the second run reproduced `digest` exactly.
    pub deterministic: bool,
}

/// A same-process throughput ratio (machine-independent).
#[derive(Debug, Clone)]
pub struct KernelSpeedup {
    /// Ratio label, e.g. `grid_vs_pp@512`.
    pub name: String,
    /// Index throughput ÷ `partition_point` throughput on the same keys.
    pub value: f64,
}

/// The full lookup-kernel baseline.
#[derive(Debug, Clone)]
pub struct KernelBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Per-workload measurements.
    pub workloads: Vec<KernelWorkload>,
    /// Grid / Eytzinger speedups over `partition_point`, per knot count.
    pub speedups: Vec<KernelSpeedup>,
    /// Both index layouts answered every query exactly like
    /// `partition_point` (checked outside the timed sections).
    pub consistent: bool,
    /// Every workload reproduced its digest on the second run.
    pub deterministic: bool,
}

/// Near-uniform keys: `1.0 + i·0.25`, eligible for the grid layout.
fn uniform_keys(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + i as f64 * 0.25).collect()
}

/// Irregular keys: strictly ascending with pseudo-random gaps, forcing the
/// Eytzinger layout.
fn jittered_keys(n: usize) -> Vec<f64> {
    let mut acc = 1.0;
    (0..n)
        .map(|i| {
            acc += 0.2 + ((i * 37 + 11) % 13) as f64 * 0.03;
            acc
        })
        .collect()
}

/// The deterministic query stream: a golden-ratio walk over a band 20%
/// wider than the key range (so below-first and above-last clamps are
/// exercised), with every seventh probe landing exactly on a knot.
fn queries(keys: &[f64], lookups: usize) -> Vec<f64> {
    let lo = keys.first().copied().unwrap_or(0.0);
    let hi = keys.last().copied().unwrap_or(1.0);
    let span = (hi - lo).max(1.0);
    (0..lookups)
        .map(|i| {
            if i % 7 == 0 {
                keys[i % keys.len()]
            } else {
                let frac = (i as f64 * 0.618_033_988_749_894_9).fract();
                lo - 0.1 * span + 1.2 * span * frac
            }
        })
        .collect()
}

/// Times `work` twice over the query stream; keeps the faster run.
fn measure(
    name: String,
    knots: usize,
    xs: &[f64],
    mut work: impl FnMut(f64) -> usize,
) -> KernelWorkload {
    let mut run = |xs: &[f64]| -> (f64, f64) {
        let t0 = Instant::now();
        let mut digest = 0usize;
        for &x in xs {
            digest = digest.wrapping_add(work(x));
        }
        (t0.elapsed().as_secs_f64(), digest as f64)
    };
    let (sec_a, digest_a) = run(xs);
    let (sec_b, digest_b) = run(xs);
    let seconds = sec_a.min(sec_b);
    KernelWorkload {
        name,
        knots,
        lookups: xs.len(),
        seconds,
        lookups_per_sec: if seconds > 0.0 {
            xs.len() as f64 / seconds
        } else {
            0.0
        },
        digest: digest_a,
        deterministic: digest_a == digest_b,
    }
}

/// Runs the full lookup sweep with `lookups` queries per workload.
pub fn run(lookups: usize) -> KernelBaseline {
    let _span = mbp_obs::span("mbp.bench.kernelbench");
    let lookups = lookups.max(1024);
    let mut workloads = Vec::new();
    let mut speedups = Vec::new();
    let mut consistent = true;

    for n in SIZES {
        let uniform = uniform_keys(n);
        let jittered = jittered_keys(n);
        let grid_idx = SegmentIndex::new(&uniform);
        let eytz_idx = SegmentIndex::new(&jittered);
        assert!(grid_idx.is_grid(), "uniform keys must compile to the grid");
        assert!(
            !eytz_idx.is_grid(),
            "jittered keys must compile to Eytzinger"
        );

        let qs_uniform = queries(&uniform, lookups);
        let qs_jittered = queries(&jittered, lookups);
        // Exactness cross-check on every query, outside the timed runs.
        consistent &= qs_uniform
            .iter()
            .all(|&x| grid_idx.upper_bound(&uniform, x) == uniform.partition_point(|&k| k <= x));
        consistent &= qs_jittered
            .iter()
            .all(|&x| eytz_idx.upper_bound(&jittered, x) == jittered.partition_point(|&k| k <= x));

        let pp_uniform = measure(format!("pp-uniform@{n}"), n, &qs_uniform, |x| {
            uniform.partition_point(|&k| k <= x)
        });
        let grid = measure(format!("grid@{n}"), n, &qs_uniform, |x| {
            grid_idx.upper_bound(&uniform, x)
        });
        let pp_jittered = measure(format!("pp-jittered@{n}"), n, &qs_jittered, |x| {
            jittered.partition_point(|&k| k <= x)
        });
        let eytz = measure(format!("eytzinger@{n}"), n, &qs_jittered, |x| {
            eytz_idx.upper_bound(&jittered, x)
        });

        let ratio = |num: &KernelWorkload, den: &KernelWorkload| {
            if den.lookups_per_sec > 0.0 {
                num.lookups_per_sec / den.lookups_per_sec
            } else {
                1.0
            }
        };
        speedups.push(KernelSpeedup {
            name: format!("grid_vs_pp@{n}"),
            value: ratio(&grid, &pp_uniform),
        });
        speedups.push(KernelSpeedup {
            name: format!("eytzinger_vs_pp@{n}"),
            value: ratio(&eytz, &pp_jittered),
        });
        workloads.extend([pp_uniform, grid, pp_jittered, eytz]);
    }

    let deterministic = workloads.iter().all(|w| w.deterministic);
    KernelBaseline {
        meta: crate::RunMeta::from_env(),
        workloads,
        speedups,
        consistent,
        deterministic,
    }
}

impl KernelBaseline {
    /// The baseline as artifact rows (`BENCH_kernel.json`).
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = vec![
            Row::flag("consistent", self.consistent, Better::True),
            Row::flag("deterministic", self.deterministic, Better::True),
        ];
        for s in &self.speedups {
            rows.push(Row::num(
                format!("speedups.{}", s.name),
                s.value,
                "x",
                Better::Higher,
            ));
        }
        for w in &self.workloads {
            let p = format!("workloads.{}", w.name);
            rows.extend([
                Row::exact(format!("{p}.knots"), w.knots as u64, "count"),
                Row::exact(format!("{p}.lookups"), w.lookups as u64, "count"),
                Row::num(format!("{p}.seconds"), w.seconds, "s", Better::None),
                Row::num(
                    format!("{p}.lookups_per_sec"),
                    w.lookups_per_sec,
                    "1/s",
                    Better::Higher,
                ),
                Row::num(format!("{p}.digest"), w.digest, "digest", Better::None),
                Row::flag(format!("{p}.deterministic"), w.deterministic, Better::None),
            ]);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_consistent_and_complete() {
        let b = run(2048);
        assert_eq!(b.workloads.len(), 4 * SIZES.len());
        assert_eq!(b.speedups.len(), 2 * SIZES.len());
        assert!(
            b.consistent,
            "an index layout diverged from partition_point"
        );
        assert!(b.deterministic, "a workload failed to reproduce its digest");
        assert!(b.workloads.iter().all(|w| w.lookups_per_sec > 0.0));
        assert!(b.speedups.iter().all(|s| s.value > 0.0));
    }
}
