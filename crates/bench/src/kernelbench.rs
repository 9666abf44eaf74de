//! Kernel microbench: segment lookups (branchy `partition_point` vs the
//! compiled [`SegmentIndex`] layouts) and the Theorem 10 DP.
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
//! (`deterministic`).
//!
//! The DP section solves the Figure 9/10 buyer population (concave values,
//! peaked demand) at each of [`DP_SIZES`] points [`DP_SOLVES`] times. It
//! records the median solve time and a digest of the prices' and the
//! objective's bits; every solve must reproduce the digest
//! (`deterministic`).
//!
//! The `all` binary writes the result's rows to [`FILE`]; the ratchet diffs
//! per-layout throughput, the grid/eytzinger-vs-partition-point speedup
//! ratios and the DP solve times against the committed baseline.

use crate::row::{Better, Row};
use mbp_core::codec::{digest_bytes, DIGEST_SEED};
use mbp_core::market::curves::{buyer_points, grid, DemandCurve, DemandShape};
use mbp_core::market::curves::{ValueCurve, ValueShape};
use mbp_core::revenue::{solve_bv_dp, BuyerPoint};
use mbp_core::SegmentIndex;
use std::hint::black_box;
use std::time::Instant;

/// The artifact's file name.
pub const FILE: &str = "BENCH_kernel.json";

/// Knot counts exercised by the sweep.
pub const SIZES: [usize; 3] = [16, 512, 8192];

/// DP point counts: the daemon's 2048-point limit and one size either side.
pub const DP_SIZES: [usize; 3] = [512, 2048, 4096];

/// Solves per DP size; the recorded time is their median.
pub const DP_SOLVES: usize = 5;

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

/// One timed Theorem 10 DP size.
#[derive(Debug, Clone)]
pub struct DpWorkload {
    /// Buyer points in the solved population.
    pub points: usize,
    /// Median wall milliseconds of the [`DP_SOLVES`] solves.
    pub solve_ms: f64,
    /// FNV-1a over the bits of the prices, then of the objective.
    pub digest: u64,
    /// Whether every solve reproduced `digest`.
    pub deterministic: bool,
}

/// The full kernel baseline.
#[derive(Debug, Clone)]
pub struct KernelBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Per-workload measurements.
    pub workloads: Vec<KernelWorkload>,
    /// Grid / Eytzinger speedups over `partition_point`, per knot count.
    pub speedups: Vec<KernelSpeedup>,
    /// Theorem 10 DP solves, one per [`DP_SIZES`] entry.
    pub dp: Vec<DpWorkload>,
    /// Both index layouts answered every query exactly like
    /// `partition_point` (checked outside the timed sections).
    pub consistent: bool,
    /// Every workload and every DP solve reproduced its digest.
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

/// The Figure 9/10 buyer population at `n` points.
fn dp_population(n: usize) -> Vec<BuyerPoint> {
    buyer_points(
        &grid(20.0, 100.0, n),
        &ValueCurve::new(ValueShape::Concave { power: 2.5 }, 2.0, 100.0),
        &DemandCurve::new(DemandShape::Peak {
            center: 0.5,
            width: 0.25,
        }),
    )
    .expect("bench grid is valid")
}

/// Times [`DP_SOLVES`] solves of the `n`-point population.
fn measure_dp(n: usize) -> DpWorkload {
    let points = dp_population(n);
    let mut ms = Vec::with_capacity(DP_SOLVES);
    let mut digests = Vec::with_capacity(DP_SOLVES);
    for _ in 0..DP_SOLVES {
        let t0 = Instant::now();
        let sol = black_box(solve_bv_dp(black_box(&points)));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let prices = sol.pricing.prices().iter().fold(DIGEST_SEED, |h, z| {
            digest_bytes(h, &z.to_bits().to_le_bytes())
        });
        digests.push(digest_bytes(prices, &sol.objective.to_bits().to_le_bytes()));
    }
    ms.sort_by(f64::total_cmp);
    DpWorkload {
        points: n,
        solve_ms: ms[DP_SOLVES / 2],
        digest: digests[0],
        deterministic: digests.iter().all(|&d| d == digests[0]),
    }
}

/// Runs the full lookup sweep with `lookups` queries per workload, then
/// the DP section.
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

    let dp: Vec<DpWorkload> = DP_SIZES.into_iter().map(measure_dp).collect();
    let deterministic =
        workloads.iter().all(|w| w.deterministic) && dp.iter().all(|d| d.deterministic);
    KernelBaseline {
        meta: crate::RunMeta::from_env(),
        workloads,
        speedups,
        dp,
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
        for d in &self.dp {
            let p = format!("dp@{}", d.points);
            rows.extend([
                Row::num(format!("{p}.solve_ms"), d.solve_ms, "ms", Better::Lower),
                Row::exact(format!("{p}.digest"), d.digest, "digest"),
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
        assert_eq!(b.dp.len(), DP_SIZES.len());
        assert!(
            b.consistent,
            "an index layout diverged from partition_point"
        );
        assert!(b.deterministic, "a workload failed to reproduce its digest");
        assert!(b.workloads.iter().all(|w| w.lookups_per_sec > 0.0));
        assert!(b.speedups.iter().all(|s| s.value > 0.0));
        assert!(b.dp.iter().all(|d| d.solve_ms > 0.0));
        // The DP's prices and objective are pinned bit for bit by the
        // digests in the committed artifact.
        let committed = crate::row::parse_rows(include_str!("../../../BENCH_kernel.json"))
            .expect("committed artifact parses");
        for d in &b.dp {
            let name = format!("dp@{}.digest", d.points);
            let row = committed
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("committed artifact lacks {name}"));
            assert_eq!(row.value, crate::row::Value::Exact(d.digest), "{name}");
        }
    }
}
