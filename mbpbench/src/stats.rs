//! Order statistics with their sample counts.
//!
//! A percentile is only reported where it is supported: the highest
//! percentile with at least [`MIN_TAIL`] samples beyond it. Failed
//! requests enter latency samples as `+∞`, so a refused request counts as
//! missing every latency limit.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summary of one latency sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples (failures included, as `+∞`).
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile, when supported.
    pub p90: Option<f64>,
    /// 99th percentile, when supported.
    pub p99: Option<f64>,
    /// The highest percentile (as a fraction) with [`MIN_TAIL`] samples
    /// beyond it; `0` when there are too few samples for any.
    pub max_supported: f64,
}

impl Summary {
    /// Summarises `samples` (reordered in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let max_supported = max_supported_quantile(n);
        let at = |q: f64| (q <= max_supported).then(|| quantile_sorted(samples, q));
        Summary {
            n,
            p50: quantile_sorted(samples, 0.5),
            p90: at(0.90),
            p99: at(0.99),
            max_supported,
        }
    }
}

/// The highest quantile of `n` samples with at least [`MIN_TAIL`]
/// samples strictly beyond it.
pub fn max_supported_quantile(n: usize) -> f64 {
    if n <= MIN_TAIL {
        0.0
    } else {
        (n - MIN_TAIL) as f64 / n as f64
    }
}
