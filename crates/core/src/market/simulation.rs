//! Monte-Carlo market simulation: a stream of buyers drawn from the
//! seller's research curves purchases (or declines) against a pricing
//! function, validating that the revenue the optimizer *predicts* is the
//! revenue the market *realizes*.
//!
//! Each simulated buyer samples an accuracy preference from the demand
//! curve, a valuation from the value curve (optionally jittered to model
//! research error), and buys the model at their preferred precision iff
//! the listed price is within their valuation — exactly the buyer model of
//! Section 5's `T_bv` objective.

use crate::error::ErrorTransform;
use crate::market::agents::{Broker, MarketError, PurchaseRequest, Seller, Transaction};
use crate::pricing::PricingFunction;
use crate::revenue::{self, BuyerPoint};
use mbp_ml::ModelKind;
use mbp_randx::{seeded_rng, Categorical, Distribution, MbpRng, Normal, SeedStream};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Number of buyer arrivals to simulate.
    pub n_buyers: usize,
    /// Relative valuation jitter: each buyer's valuation is
    /// `v·(1 + jitter·N(0,1))`, clamped at 0. Zero reproduces the research
    /// curves exactly.
    pub valuation_jitter: f64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            n_buyers: 1000,
            valuation_jitter: 0.0,
        }
    }
}

/// Result of a simulated selling season.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Expected revenue per buyer predicted from the research curves
    /// (`Σ b_j·p(a_j)·1[p ≤ v_j]` with demand normalized to mass 1).
    pub predicted_revenue_per_buyer: f64,
    /// Average realized revenue per simulated buyer.
    pub realized_revenue_per_buyer: f64,
    /// Buyers who purchased.
    pub served: usize,
    /// Buyers who declined (price above their valuation).
    pub declined: usize,
    /// Affordability predicted from the curves.
    pub predicted_affordability: f64,
}

impl SimulationOutcome {
    /// Realized affordability ratio.
    pub fn realized_affordability(&self) -> f64 {
        let total = self.served + self.declined;
        if total == 0 {
            0.0
        } else {
            self.served as f64 / total as f64
        }
    }
}

/// The buyer model shared by every simulator: the research population,
/// its arrival distribution, and the pricing the buyers face.
struct Season<'a> {
    cfg: SimulationConfig,
    pricing: &'a PricingFunction,
    population: Vec<BuyerPoint>,
    arrivals: Categorical,
    jitter: Normal,
}

impl<'a> Season<'a> {
    /// # Panics
    /// Panics when `cfg.n_buyers == 0` or the jitter is negative.
    fn new(seller: &Seller, pricing: &'a PricingFunction, cfg: SimulationConfig) -> Self {
        assert!(cfg.n_buyers > 0, "need at least one buyer");
        assert!(
            cfg.valuation_jitter >= 0.0 && cfg.valuation_jitter.is_finite(),
            "jitter must be >= 0"
        );
        let population = seller.buyer_population();
        let demands: Vec<f64> = population.iter().map(|p| p.demand).collect();
        Season {
            cfg,
            pricing,
            arrivals: Categorical::new(&demands),
            population,
            jitter: Normal::new(0.0, 1.0),
        }
    }

    /// Draws one buyer arrival (and, with jitter, their valuation noise)
    /// from `rng`. Returns the purchase request when the listed price is
    /// within the buyer's valuation, `None` when they walk away.
    fn next_buyer(&self, rng: &mut MbpRng) -> Option<PurchaseRequest> {
        let point = &self.population[self.arrivals.sample(rng)];
        let valuation = if self.cfg.valuation_jitter > 0.0 {
            (point.valuation * (1.0 + self.cfg.valuation_jitter * self.jitter.sample(rng))).max(0.0)
        } else {
            point.valuation
        };
        let price = self.pricing.price_at(point.a);
        (price <= valuation + 1e-12).then(|| PurchaseRequest::AtNcp(1.0 / point.a))
    }

    /// Reports the season (counters and a completion event carrying the
    /// simulator-specific `extra` field) and assembles its outcome; every
    /// buyer not `served` declined.
    fn finish(
        &self,
        message: &str,
        extra: Option<(&'static str, String)>,
        served: usize,
        realized: f64,
    ) -> SimulationOutcome {
        let n_buyers = self.cfg.n_buyers;
        let declined = n_buyers - served;
        mbp_obs::counter_add("mbp.core.simulate.served", served as u64);
        mbp_obs::counter_add("mbp.core.simulate.declined", declined as u64);
        let mut fields = vec![("buyers", n_buyers.to_string())];
        fields.extend(extra);
        fields.extend([
            ("served", served.to_string()),
            ("declined", declined.to_string()),
            (
                "realized_per_buyer",
                format!("{:.6}", realized / n_buyers as f64),
            ),
        ]);
        mbp_obs::event(
            mbp_obs::Verbosity::Info,
            "mbp.core.simulate",
            message,
            &fields,
        );
        SimulationOutcome {
            predicted_revenue_per_buyer: revenue::revenue(self.pricing, &self.population),
            realized_revenue_per_buyer: realized / n_buyers as f64,
            served,
            declined,
            predicted_affordability: revenue::affordability(self.pricing, &self.population),
        }
    }
}

/// Runs a selling season for `kind` against `pricing`.
///
/// The broker must already support `kind`. Buyers who can afford their
/// preferred precision purchase through the normal [`Broker::buy`] path
/// (so the ledger and the released noisy instances are real); the rest
/// walk away.
///
/// # Panics
/// Panics when `cfg.n_buyers == 0` or the jitter is negative.
pub fn simulate_market(
    broker: &mut Broker,
    seller: &Seller,
    kind: ModelKind,
    pricing: &PricingFunction,
    transform: &dyn ErrorTransform,
    cfg: SimulationConfig,
    rng: &mut MbpRng,
) -> Result<SimulationOutcome, MarketError> {
    let season = Season::new(seller, pricing, cfg);
    let _span = mbp_obs::span("mbp.core.simulate");
    let ledger_before = broker.total_revenue();
    let mut served = 0usize;
    for _ in 0..cfg.n_buyers {
        if let Some(request) = season.next_buyer(rng) {
            broker.buy(kind, request, pricing, transform, rng)?;
            served += 1;
        }
    }
    let realized = broker.total_revenue() - ledger_before;
    Ok(season.finish("season complete", None, served, realized))
}

/// Runs a selling season against the *published* listing for `kind`,
/// submitting buyers in batches of `batch_size` through
/// [`Broker::buy_batch`] — the serving fast path: one listing lookup and
/// one compiled-table resolution per batch instead of per buyer.
///
/// The broker must already [`Broker::publish`] a listing for `kind`; its
/// pricing is used both to quote buyers and to compute the predicted
/// revenue. Randomness is rooted at `master_seed`, split into one stream
/// for buyer arrivals/valuations and one for release noise, so the full
/// outcome — counts, ledger sequence, revenue, and the released noise —
/// is identical for every `batch_size`.
///
/// # Panics
/// Panics when `cfg.n_buyers == 0`, `batch_size == 0`, or the jitter is
/// negative.
pub fn simulate_market_batched(
    broker: &mut Broker,
    seller: &Seller,
    kind: ModelKind,
    cfg: SimulationConfig,
    batch_size: usize,
    master_seed: u64,
) -> Result<SimulationOutcome, MarketError> {
    assert!(cfg.n_buyers > 0, "need at least one buyer");
    assert!(batch_size > 0, "batch size must be positive");
    let pricing = broker
        .listed_pricing(kind)
        .ok_or(MarketError::UnsupportedModel(kind))?
        .clone();
    let season = Season::new(seller, &pricing, cfg);
    let _span = mbp_obs::span("mbp.core.simulate");
    let mut seeds = SeedStream::new(master_seed);
    let mut buyer_rng = seeded_rng(seeds.next_seed());
    let mut noise_rng = seeded_rng(seeds.next_seed());
    let ledger_before = broker.total_revenue();
    broker.reserve_ledger(cfg.n_buyers);
    let mut requests: Vec<PurchaseRequest> = Vec::with_capacity(batch_size);
    let mut served = 0usize;
    let mut remaining = cfg.n_buyers;
    while remaining > 0 {
        let take = remaining.min(batch_size);
        requests.clear();
        requests.extend((0..take).filter_map(|_| season.next_buyer(&mut buyer_rng)));
        // The whole batched season is a pure function of `master_seed`, so
        // every batch's traces carry it as the replay seed: re-running the
        // season from a slow exemplar's seed reproduces the quote.
        mbp_obs::set_request_seed(master_seed);
        // A chunk where every buyer declined yields no requests; batch
        // entry points reject empty batches as a caller error, so skip.
        if !requests.is_empty() {
            for result in broker.buy_batch(kind, &requests, &mut noise_rng)? {
                result?;
                served += 1;
            }
        }
        remaining -= take;
    }
    let realized = broker.total_revenue() - ledger_before;
    Ok(season.finish(
        "batched season complete",
        Some(("batch_size", batch_size.to_string())),
        served,
        realized,
    ))
}

/// Buyers per shard in [`simulate_market_sharded`]. The shard layout is a
/// pure function of `n_buyers`, so outcomes are independent of the thread
/// count executing the shards.
pub const SHARD_BUYERS: usize = 512;

/// Per-shard partial outcome, merged in shard-index order.
struct ShardOutcome {
    served: usize,
    paid: f64,
    txs: Vec<Transaction>,
}

/// Runs a selling season with buyers sharded across the `mbp-par` pool.
///
/// Semantics match [`simulate_market`] except that randomness is rooted at
/// `master_seed` instead of a caller-held RNG: each fixed-size shard of
/// buyers draws from its own RNG derived through an [`mbp_randx::SeedStream`]
/// (seed `i` for shard `i`), quotes purchases against the shared `&Broker`
/// state, and the per-shard ledgers are settled into the broker in
/// shard-index order. Both the shard layout and the seed assignment depend
/// only on `(n_buyers, master_seed)`, so the outcome — counts, realized
/// revenue, and the exact ledger sequence — is identical at every thread
/// count, including fully sequential execution.
///
/// # Panics
/// Panics when `cfg.n_buyers == 0` or the jitter is negative.
pub fn simulate_market_sharded(
    broker: &mut Broker,
    seller: &Seller,
    kind: ModelKind,
    pricing: &PricingFunction,
    transform: &(dyn ErrorTransform + Sync),
    cfg: SimulationConfig,
    master_seed: u64,
) -> Result<SimulationOutcome, MarketError> {
    let season = Season::new(seller, pricing, cfg);
    let _span = mbp_obs::span("mbp.core.simulate");
    let n_shards = mbp_par::chunk_count(cfg.n_buyers, SHARD_BUYERS);
    mbp_obs::counter_add("mbp.core.simulate.shards", n_shards as u64);
    let mut seeds = SeedStream::new(master_seed);
    let shard_seeds: Vec<u64> = (0..n_shards).map(|_| seeds.next_seed()).collect();

    let shards: Vec<Result<ShardOutcome, MarketError>> = {
        let broker = &*broker;
        mbp_par::par_map_chunks(cfg.n_buyers, SHARD_BUYERS, |range| {
            let shard_seed = shard_seeds[range.start / SHARD_BUYERS];
            let mut rng = seeded_rng(shard_seed);
            let mut out = ShardOutcome {
                served: 0,
                paid: 0.0,
                txs: Vec::new(),
            };
            for _ in range {
                if let Some(request) = season.next_buyer(&mut rng) {
                    // A slow quote replays by re-running its whole shard
                    // (the shard RNG is shared by every buyer in it).
                    mbp_obs::set_request_seed(shard_seed);
                    let (sale, tx) = broker.quote(kind, request, pricing, transform, &mut rng)?;
                    out.paid += sale.price;
                    out.txs.push(tx);
                    out.served += 1;
                }
            }
            Ok(out)
        })
    };

    // Deterministic merge: shards settle in shard-index order, so the
    // ledger sequence and the floating-point revenue sum never depend on
    // which thread ran which shard.
    let mut served = 0usize;
    let mut realized = 0.0f64;
    for shard in shards {
        let shard = shard?;
        served += shard.served;
        realized += shard.paid;
        broker.settle(shard.txs);
    }
    Ok(season.finish(
        "sharded season complete",
        Some(("shards", n_shards.to_string())),
        served,
        realized,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SquareLossTransform;
    use crate::market::curves::{grid, DemandCurve, DemandShape, ValueCurve, ValueShape};
    use mbp_data::synth;
    use mbp_randx::seeded_rng;

    fn setup(seed: u64) -> (Seller, Broker) {
        let mut rng = seeded_rng(seed);
        let data = synth::simulated1(800, 4, 0.5, &mut rng).split(0.75, &mut rng);
        let seller = Seller::new(
            data.clone(),
            grid(10.0, 100.0, 10),
            ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 100.0),
            DemandCurve::new(DemandShape::Uniform),
        );
        let mut broker = Broker::new(data);
        broker
            .support(ModelKind::LinearRegression, 1e-6)
            .expect("train");
        (seller, broker)
    }

    #[test]
    fn realized_revenue_matches_prediction_without_jitter() {
        let (seller, mut broker) = setup(71);
        let pricing = broker.price_from_research(&seller).pricing;
        let mut rng = seeded_rng(72);
        let out = simulate_market(
            &mut broker,
            &seller,
            ModelKind::LinearRegression,
            &pricing,
            &SquareLossTransform,
            SimulationConfig {
                n_buyers: 4000,
                valuation_jitter: 0.0,
            },
            &mut rng,
        )
        .unwrap();
        let rel = (out.realized_revenue_per_buyer - out.predicted_revenue_per_buyer).abs()
            / out.predicted_revenue_per_buyer;
        assert!(
            rel < 0.05,
            "realized {} vs predicted {}",
            out.realized_revenue_per_buyer,
            out.predicted_revenue_per_buyer
        );
        let aff_gap = (out.realized_affordability() - out.predicted_affordability).abs();
        assert!(aff_gap < 0.03, "affordability gap {aff_gap}");
        assert_eq!(out.served + out.declined, 4000);
        assert_eq!(broker.ledger().len(), out.served);
    }

    #[test]
    fn jitter_serves_some_marginal_buyers_both_ways() {
        let (seller, mut broker) = setup(73);
        let pricing = broker.price_from_research(&seller).pricing;
        let mut rng = seeded_rng(74);
        let out = simulate_market(
            &mut broker,
            &seller,
            ModelKind::LinearRegression,
            &pricing,
            &SquareLossTransform,
            SimulationConfig {
                n_buyers: 2000,
                valuation_jitter: 0.3,
            },
            &mut rng,
        )
        .unwrap();
        // With jitter the outcome still lands in a sane band around the
        // prediction (prices sit at valuations, so jitter pushes marginal
        // buyers out roughly half the time).
        assert!(out.served > 0 && out.declined > 0);
        assert!(out.realized_revenue_per_buyer > 0.2 * out.predicted_revenue_per_buyer);
        assert!(out.realized_revenue_per_buyer < 1.5 * out.predicted_revenue_per_buyer);
    }

    #[test]
    fn higher_prices_reduce_realized_affordability() {
        let (seller, mut broker) = setup(75);
        let dp = broker.price_from_research(&seller).pricing;
        let expensive = PricingFunction::from_points(
            dp.grid().to_vec(),
            dp.prices().iter().map(|p| p * 3.0).collect(),
        )
        .unwrap();
        let mut rng = seeded_rng(76);
        let cheap_out = simulate_market(
            &mut broker,
            &seller,
            ModelKind::LinearRegression,
            &dp,
            &SquareLossTransform,
            SimulationConfig::default(),
            &mut rng,
        )
        .unwrap();
        let costly_out = simulate_market(
            &mut broker,
            &seller,
            ModelKind::LinearRegression,
            &expensive,
            &SquareLossTransform,
            SimulationConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(costly_out.realized_affordability() < cheap_out.realized_affordability());
    }

    #[test]
    fn sharded_simulation_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let (seller, mut broker) = setup(81);
            let pricing = broker.price_from_research(&seller).pricing;
            mbp_par::with_threads(threads, || {
                let out = simulate_market_sharded(
                    &mut broker,
                    &seller,
                    ModelKind::LinearRegression,
                    &pricing,
                    &SquareLossTransform,
                    SimulationConfig {
                        n_buyers: 3000,
                        valuation_jitter: 0.1,
                    },
                    4242,
                )
                .unwrap();
                let prices: Vec<f64> = broker.ledger().iter().map(|t| t.price).collect();
                (
                    out.served,
                    out.declined,
                    out.realized_revenue_per_buyer,
                    prices,
                )
            })
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        assert_eq!(one, two);
        assert_eq!(two, four);
        assert!(one.0 > 0, "some buyers must be served");
        assert_eq!(one.0 + one.1, 3000);
        assert_eq!(one.3.len(), one.0, "one ledger entry per served buyer");
    }

    #[test]
    fn sharded_simulation_tracks_prediction_like_the_sequential_path() {
        let (seller, mut broker) = setup(83);
        let pricing = broker.price_from_research(&seller).pricing;
        let out = simulate_market_sharded(
            &mut broker,
            &seller,
            ModelKind::LinearRegression,
            &pricing,
            &SquareLossTransform,
            SimulationConfig {
                n_buyers: 4000,
                valuation_jitter: 0.0,
            },
            97,
        )
        .unwrap();
        let rel = (out.realized_revenue_per_buyer - out.predicted_revenue_per_buyer).abs()
            / out.predicted_revenue_per_buyer;
        assert!(
            rel < 0.05,
            "realized {} vs predicted {}",
            out.realized_revenue_per_buyer,
            out.predicted_revenue_per_buyer
        );
        assert_eq!(broker.ledger().len(), out.served);
    }

    /// The batched season is a pure function of the master seed: every
    /// batch size yields the same counts, ledger, and revenue, and it
    /// tracks the research prediction like the sequential path.
    #[test]
    fn batched_simulation_is_invariant_to_batch_size() {
        let run = |batch_size: usize| {
            let (seller, mut broker) = setup(85);
            let pricing = broker.price_from_research(&seller).pricing;
            broker
                .publish(
                    ModelKind::LinearRegression,
                    pricing,
                    Box::new(SquareLossTransform),
                )
                .unwrap();
            let out = simulate_market_batched(
                &mut broker,
                &seller,
                ModelKind::LinearRegression,
                SimulationConfig {
                    n_buyers: 2000,
                    valuation_jitter: 0.1,
                },
                batch_size,
                5151,
            )
            .unwrap();
            let prices: Vec<f64> = broker.ledger().iter().map(|t| t.price).collect();
            (
                out.served,
                out.declined,
                out.realized_revenue_per_buyer,
                out.predicted_revenue_per_buyer,
                prices,
            )
        };
        let small = run(64);
        let medium = run(256);
        let whole = run(2000);
        assert_eq!(small, medium);
        assert_eq!(medium, whole);
        assert!(small.0 > 0, "some buyers must be served");
        assert_eq!(small.0 + small.1, 2000);
        assert_eq!(small.4.len(), small.0);
        // DP prices sit at valuations, so jitter pushes marginal buyers out
        // roughly half the time; the realized revenue lands in the same
        // sane band the sequential jittered season is held to.
        assert!(
            small.2 > 0.2 * small.3 && small.2 < 1.5 * small.3,
            "realized {} vs predicted {}",
            small.2,
            small.3
        );
    }

    #[test]
    fn batched_simulation_requires_a_listing() {
        let (seller, mut broker) = setup(86);
        let err = simulate_market_batched(
            &mut broker,
            &seller,
            ModelKind::LinearRegression,
            SimulationConfig::default(),
            128,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, MarketError::UnsupportedModel(_)));
    }

    #[test]
    #[should_panic(expected = "at least one buyer")]
    fn zero_buyers_panics() {
        let (seller, mut broker) = setup(77);
        let pricing = broker.price_from_research(&seller).pricing;
        let mut rng = seeded_rng(78);
        let _ = simulate_market(
            &mut broker,
            &seller,
            ModelKind::LinearRegression,
            &pricing,
            &SquareLossTransform,
            SimulationConfig {
                n_buyers: 0,
                valuation_jitter: 0.0,
            },
            &mut rng,
        );
    }
}
