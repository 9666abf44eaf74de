//! Tracing-overhead baseline for the quote-serving path ([`FILE`]).
//!
//! Measures what the mbp-obs causal-tracing layer costs on the
//! zero-allocation serve path (`buy_listed_into`) against a
//! high-dimensional listing, where per-quote work is dominated by noise
//! sampling — the regime the overhead budgets are written for:
//!
//! * **serve-floor** — the purchase logic rebuilt from the public pieces
//!   (`PricingTable`, `PhiMemo`, `GaussianMechanism::perturb_into`) with
//!   no observability calls at all: the uninstrumented reference.
//! * **serve-obs-disabled** — the real broker path with observability
//!   fully disabled; every obs call is an inert relaxed load.
//!   `overhead_disabled` compares this against the floor and must stay
//!   within the ≤2% budget.
//! * **serve-obs-metrics** — observability enabled, tracing off: the
//!   pre-tracing production configuration (counters, gauges, span
//!   histograms). `overhead_metrics` compares this against
//!   `serve-obs-disabled`: what the metrics themselves cost. It is
//!   recorded, not gated.
//! * **serve-traced** — tracing on: span contexts, per-phase latency
//!   attribution, and flight-recorder writes on every quote.
//!   `overhead_enabled` compares this against `serve-obs-metrics` — the
//!   marginal cost of turning tracing on — and must stay within ≤10%.
//!
//! Every workload runs its quote stream twice from the same seed;
//! `deterministic` asserts both runs produced identical digests (tracing
//! never touches the pricing or noise streams).

use crate::row::{Better, Row};
use mbp_core::error::{ErrorTransform, SquareLossTransform};
use mbp_core::market::{Broker, PurchaseRequest, Sale};
use mbp_core::{GaussianMechanism, NoiseMechanism, PhiMemo, PricingFunction, PricingTable};
use mbp_linalg::Vector;
use mbp_ml::ModelKind;
use mbp_randx::{seeded_rng, MbpRng};
use std::time::Instant;

/// The artifact's file name.
pub const FILE: &str = "BENCH_trace.json";

/// Listing dimension for the committed baseline: large enough that noise
/// sampling dominates each quote, small enough to stay on the serial
/// (deterministic) sampling path.
const MODEL_DIM: usize = 1024;

/// One measured serve configuration.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    /// Workload label.
    pub name: &'static str,
    /// Quotes served in one run.
    pub quotes: usize,
    /// Wall seconds for the faster of the two runs.
    pub seconds: f64,
    /// Throughput derived from `seconds`.
    pub quotes_per_sec: f64,
    /// Scalar output digest of the first run.
    pub digest: f64,
    /// Whether the second run reproduced `digest` exactly.
    pub deterministic: bool,
}

/// The full tracing-overhead baseline.
#[derive(Debug, Clone)]
pub struct TraceBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Listing dimension.
    pub model_dim: usize,
    /// Quotes per workload run.
    pub quotes: usize,
    /// The four serve configurations, floor first.
    pub workloads: Vec<TraceWorkload>,
    /// Relative cost of the instrumented path with observability off,
    /// against the uninstrumented floor (`serve-obs-disabled` vs
    /// `serve-floor`). Budget: ≤ 0.02.
    pub overhead_disabled: f64,
    /// Relative cost of recording metrics, against the disabled path
    /// (`serve-obs-metrics` vs `serve-obs-disabled`). Recorded, not gated.
    pub overhead_metrics: f64,
    /// Marginal relative cost of turning tracing on, against the
    /// metrics-enabled path (`serve-traced` vs `serve-obs-metrics`).
    /// Budget: ≤ 0.10.
    pub overhead_enabled: f64,
    /// Spans the flight recorder captured during the traced run.
    pub spans_recorded: u64,
    /// Tail-latency exemplars held after the traced run.
    pub exemplars: usize,
    /// Every workload reproduced its digest on the second run.
    pub deterministic: bool,
}

fn timed(name: &'static str, quotes: usize, mut work: impl FnMut(usize) -> f64) -> TraceWorkload {
    let t0 = Instant::now();
    let digest_a = work(0);
    let first = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let digest_b = work(1);
    let second = t1.elapsed().as_secs_f64();
    let seconds = first.min(second);
    TraceWorkload {
        name,
        quotes,
        seconds,
        quotes_per_sec: if seconds > 0.0 {
            quotes as f64 / seconds
        } else {
            0.0
        },
        digest: digest_a,
        deterministic: digest_a == digest_b,
    }
}

/// Same √-shaped arbitrage-free curve as the serving baseline.
fn dense_pricing() -> PricingFunction {
    let grid: Vec<f64> = (1..=512).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free")
}

/// Same mixed request stream as the serving baseline (all satisfiable).
fn request_stream(n: usize) -> Vec<PurchaseRequest> {
    (0..n)
        .map(|i| match i % 3 {
            0 => PurchaseRequest::AtNcp(0.1 + (i % 37) as f64 * 0.05),
            1 => PurchaseRequest::ErrorBudget(0.5 + (i % 23) as f64 * 0.1),
            _ => PurchaseRequest::PriceBudget(12.0 + (i % 50) as f64),
        })
        .collect()
}

fn listed_broker(dim: usize, pricing: &PricingFunction) -> Broker {
    let mut rng = seeded_rng(0x7ace);
    // Rows ≪ dim is fine: the ridge term keeps the Gram SPD, and the
    // model's content is irrelevant here — only its dimension matters.
    let rows = (dim / 4).max(64);
    let data = mbp_data::synth::simulated1(rows, dim, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 0.1)
        .expect("training failed");
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing.clone(),
            Box::new(SquareLossTransform),
        )
        .expect("listing accepted");
    broker
}

/// The uninstrumented serve loop: the same resolve → price → perturb →
/// settle work as `buy_listed_into`, rebuilt from public pieces with no
/// observability anywhere.
struct Floor {
    table: PricingTable,
    phi: PhiMemo,
    mech: GaussianMechanism,
    weights: Vector,
    out: Vector,
    ledger: Vec<(f64, f64, f64)>,
}

impl Floor {
    fn new(broker: &Broker, pricing: &PricingFunction, quotes: usize) -> Self {
        let table = pricing.compile();
        let phi = PhiMemo::new(&SquareLossTransform, &table);
        let weights = broker
            .optimal_model(ModelKind::LinearRegression)
            .expect("supported")
            .weights()
            .clone();
        let out = weights.clone();
        Floor {
            table,
            phi,
            mech: GaussianMechanism,
            weights,
            out,
            ledger: Vec::with_capacity(quotes),
        }
    }

    fn quote(&mut self, request: PurchaseRequest, rng: &mut MbpRng) -> f64 {
        let ncp = match request {
            PurchaseRequest::AtNcp(delta) => delta,
            PurchaseRequest::ErrorBudget(err) => self
                .phi
                .ncp_for_error(&SquareLossTransform, err)
                .expect("request is satisfiable"),
            PurchaseRequest::PriceBudget(budget) => {
                let x = self
                    .table
                    .max_precision_for_budget(budget)
                    .expect("request is satisfiable");
                1.0 / x
            }
        };
        let price = self.table.price_for_ncp(ncp);
        let expected_error = SquareLossTransform.expected_error(ncp);
        self.mech
            .perturb_into(&self.weights, ncp, rng, &mut self.out);
        self.ledger.push((ncp, price, expected_error));
        price + ncp
    }
}

/// Runs the tracing-overhead baseline at the committed listing dimension.
pub fn run(quotes: usize) -> TraceBaseline {
    run_with_dim(quotes, MODEL_DIM)
}

/// Runs the baseline at an explicit listing dimension (tests use a small
/// one; the overhead ratios are only meaningful at serving-scale dims).
pub fn run_with_dim(quotes: usize, dim: usize) -> TraceBaseline {
    let quotes = quotes.max(256);
    let pricing = dense_pricing();
    let requests = request_stream(quotes);

    // Save and restore the process-global obs configuration.
    let was_enabled = mbp_obs::is_enabled();
    let prev_threshold_nanos = mbp_obs::slow_threshold_nanos();
    mbp_obs::set_tracing(false);
    mbp_obs::disable();

    // serve-floor: uninstrumented reference.
    let mut floors: Vec<(Floor, MbpRng)> = {
        let broker = listed_broker(dim, &pricing);
        (0..2)
            .map(|_| (Floor::new(&broker, &pricing, quotes), seeded_rng(0x5e1)))
            .collect()
    };
    let floor = timed("serve-floor", quotes, |run| {
        let (state, rng) = &mut floors[run];
        state.ledger.clear();
        let mut digest = 0.0;
        for &request in &requests {
            digest += state.quote(request, rng);
        }
        digest
    });
    drop(floors);

    // The three broker configurations share one serve closure.
    let serve = |name: &'static str| -> TraceWorkload {
        let mut brokers: Vec<(Broker, MbpRng, Sale)> = (0..2)
            .map(|_| {
                let mut broker = listed_broker(dim, &pricing);
                broker.reserve_ledger(quotes);
                let sale = Sale {
                    model: broker
                        .optimal_model(ModelKind::LinearRegression)
                        .expect("supported")
                        .clone(),
                    price: 0.0,
                    ncp: 0.0,
                    expected_error: 0.0,
                };
                (broker, seeded_rng(0x5e1), sale)
            })
            .collect();
        timed(name, quotes, |run| {
            let (broker, rng, sale) = &mut brokers[run];
            let mut digest = 0.0;
            for (i, &request) in requests.iter().enumerate() {
                mbp_obs::set_request_seed(i as u64);
                broker
                    .buy_listed_into(ModelKind::LinearRegression, request, rng, sale)
                    .expect("request is satisfiable");
                digest += sale.price + sale.ncp;
            }
            digest
        })
    };

    // serve-obs-disabled: real path, observability off.
    let obs_disabled = serve("serve-obs-disabled");

    // serve-obs-metrics: counters + span histograms on, tracing off.
    mbp_obs::enable();
    let obs_metrics = serve("serve-obs-metrics");

    // serve-traced: full causal tracing + flight recorder.
    mbp_obs::set_slow_threshold_micros(u64::MAX / 1_000);
    mbp_obs::set_tracing(true);
    let spans_before = mbp_obs::recorded_spans();
    let traced = serve("serve-traced");
    let spans_recorded = mbp_obs::recorded_spans().saturating_sub(spans_before);
    let exemplars = mbp_obs::exemplars().len();

    mbp_obs::set_tracing(false);
    mbp_obs::set_slow_threshold_micros(prev_threshold_nanos / 1_000);
    mbp_obs::set_enabled(was_enabled);

    let rel = |num: &TraceWorkload, den: &TraceWorkload| {
        if den.seconds > 0.0 {
            num.seconds / den.seconds - 1.0
        } else {
            0.0
        }
    };
    let overhead_disabled = rel(&obs_disabled, &floor);
    let overhead_metrics = rel(&obs_metrics, &obs_disabled);
    let overhead_enabled = rel(&traced, &obs_metrics);
    let workloads = vec![floor, obs_disabled, obs_metrics, traced];
    let deterministic = workloads.iter().all(|w| w.deterministic);

    TraceBaseline {
        meta: crate::RunMeta::from_env(),
        model_dim: dim,
        quotes,
        workloads,
        overhead_disabled,
        overhead_metrics,
        overhead_enabled,
        spans_recorded,
        exemplars,
        deterministic,
    }
}

impl TraceBaseline {
    /// The baseline as artifact rows (`BENCH_trace.json`). The overhead
    /// rows carry the committed contract as ceilings: ≤ 2% disabled,
    /// ≤ 10% enabled; `overhead_metrics` is recorded ungated.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = vec![
            Row::exact("model_dim", self.model_dim as u64, "count"),
            Row::exact("quotes", self.quotes as u64, "count"),
            Row::num(
                "overhead_disabled",
                self.overhead_disabled,
                "ratio",
                Better::Lower,
            )
            .ceiling(0.02),
            Row::num(
                "overhead_enabled",
                self.overhead_enabled,
                "ratio",
                Better::Lower,
            )
            .ceiling(0.10),
            Row::num(
                "overhead_metrics",
                self.overhead_metrics,
                "ratio",
                Better::None,
            ),
            Row::exact("spans_recorded", self.spans_recorded, "count"),
            Row::exact("exemplars", self.exemplars as u64, "count"),
            Row::flag("deterministic", self.deterministic, Better::True),
        ];
        for w in &self.workloads {
            let p = format!("workloads.{}", w.name);
            rows.extend([
                Row::exact(format!("{p}.quotes"), w.quotes as u64, "count"),
                Row::num(format!("{p}.seconds"), w.seconds, "s", Better::None),
                Row::num(
                    format!("{p}.quotes_per_sec"),
                    w.quotes_per_sec,
                    "1/s",
                    Better::None,
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
    fn smoke_run_is_deterministic_and_traced() {
        let _g = crate::obs_serial();
        let b = run_with_dim(256, 32);
        assert_eq!(b.workloads.len(), 4);
        assert!(b.workloads.iter().all(|w| w.quotes_per_sec > 0.0));
        assert!(b.deterministic, "a workload failed to reproduce its digest");
        // Every traced quote contributes a root span plus phase children.
        assert!(
            b.spans_recorded >= b.quotes as u64,
            "traced run recorded {} spans for {} quotes",
            b.spans_recorded,
            b.quotes
        );
        // The broker workloads serve the same stream: identical digests.
        assert_eq!(b.workloads[1].digest, b.workloads[2].digest);
        assert_eq!(b.workloads[2].digest, b.workloads[3].digest);
    }
}
