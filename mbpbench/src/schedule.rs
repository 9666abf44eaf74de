//! Seeded open-loop arrival schedules and request streams.
//!
//! Everything here is a pure function of its seed: the same seed gives
//! the same due times and the same requests, so two runs (or two
//! commits) are driven by identical inputs, and the in-process replay
//! that checks the daemon's responses can regenerate them.

use mbp_core::market::PurchaseRequest;
use mbp_randx::seeded_rng;
use rand::Rng;

/// Due times, in nanoseconds from the phase start, of a Poisson process
/// with `rate_per_s` arrivals per second over `duration_ns`.
///
/// Inter-arrival gaps are exponential, drawn by inversion from the
/// seeded stream, so the schedule depends on nothing but its arguments.
pub fn poisson_due_ns(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = seeded_rng(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        // u is in [0, 1), so 1 - u is in (0, 1] and the log is finite.
        t += -(1.0 - u).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// What one request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Price without purchasing (`Quote` frame).
    Quote(PurchaseRequest),
    /// Purchase a noised instance (`Buy` frame).
    Buy(PurchaseRequest),
}

impl Op {
    /// The purchase request the operation carries.
    pub fn request(&self) -> PurchaseRequest {
        match *self {
            Op::Quote(r) | Op::Buy(r) => r,
        }
    }

    /// `true` for a purchase.
    pub fn is_buy(&self) -> bool {
        matches!(self, Op::Buy(_))
    }
}

/// The precision range `[lo, hi]` (inverse NCP) requests are drawn from.
#[derive(Debug, Clone, Copy)]
pub struct RequestRange {
    /// Lowest precision `1/δ` a request asks for.
    pub lo: f64,
    /// Highest precision `1/δ` a request asks for.
    pub hi: f64,
}

/// `n` requests with `quote_share` of them quotes, mixed evenly over the
/// three purchase modes of §3.2. Every request is satisfiable under any
/// listing whose grid covers `range`: an NCP, an error budget equal to
/// that NCP's expected square-loss error, or a positive price budget.
pub fn request_stream(seed: u64, n: usize, quote_share: f64, range: RequestRange) -> Vec<Op> {
    // Offset the seed so the mix is independent of the arrival stream
    // drawn from the same workload seed.
    let mut rng = seeded_rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    (0..n)
        .map(|_| {
            let x = range.lo + (range.hi - range.lo) * rng.gen::<f64>();
            let request = match rng.gen_range(0u32..3) {
                0 => PurchaseRequest::AtNcp(1.0 / x),
                // Square loss: the expected error at NCP δ is δ itself.
                1 => PurchaseRequest::ErrorBudget(1.0 / x),
                // Any positive budget buys some precision (prices rise
                // from the origin); scale it with x so the mix spans the
                // whole curve.
                _ => PurchaseRequest::PriceBudget(x),
            };
            if rng.gen::<f64>() < quote_share {
                Op::Quote(request)
            } else {
                Op::Buy(request)
            }
        })
        .collect()
}
