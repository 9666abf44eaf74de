//! The seller, broker, and buyer agents and the purchase protocol.

use crate::error::ErrorTransform;
use crate::market::curves::{buyer_points, DemandCurve, ValueCurve};
use crate::market::durability::DurabilitySink;
use crate::mechanism::{GaussianMechanism, NoiseMechanism};
use crate::pricing::{BatchScratch, PhiMemo, PricingFunction, PricingTable};
use crate::revenue::{solve_bv_dp, BuyerPoint, RevenueSolution};
use mbp_data::TrainTest;
use mbp_linalg::Vector;
use mbp_ml::train::{gradient_descent, newton_logistic, RidgeSolver, TrainConfig};
use mbp_ml::{LinearModel, LogisticLoss, ModelKind, SmoothedHingeLoss};
use mbp_randx::MbpRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Static trace label for a model kind (the `listing` dimension of the
/// `(listing, mechanism, phase)` latency attribution; no per-quote
/// allocation).
pub(crate) fn kind_label(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::LinearRegression => "linear_regression",
        ModelKind::LogisticRegression => "logistic_regression",
        ModelKind::LinearSvm => "linear_svm",
    }
}

/// Errors raised by market interactions.
#[derive(Debug)]
pub enum MarketError {
    /// The requested model type is not on the broker's menu.
    UnsupportedModel(ModelKind),
    /// Training the optimal instance failed (e.g. singular Gram matrix).
    TrainingFailed(mbp_linalg::LinalgError),
    /// The requested expected error is unachievable (below the noiseless
    /// floor or outside the transform's range).
    UnachievableError(f64),
    /// The buyer's budget does not afford any positive-precision instance.
    InsufficientBudget(f64),
    /// Malformed request (e.g. non-positive NCP).
    BadRequest(String),
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::UnsupportedModel(kind) => {
                write!(f, "model {:?} is not on the broker's menu", kind)
            }
            MarketError::TrainingFailed(e) => write!(f, "training the optimal model failed: {e}"),
            MarketError::UnachievableError(e) => {
                write!(
                    f,
                    "expected error {e} is unachievable for this model/dataset"
                )
            }
            MarketError::InsufficientBudget(b) => {
                write!(f, "budget {b} cannot afford any model instance")
            }
            MarketError::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for MarketError {}

impl From<mbp_linalg::LinalgError> for MarketError {
    fn from(e: mbp_linalg::LinalgError) -> Self {
        MarketError::TrainingFailed(e)
    }
}

/// The seller: owns the dataset for sale and the market-research curves
/// (Figure 1(A), Figure 2(a)).
#[derive(Debug)]
pub struct Seller {
    /// The dataset `D = (D_train, D_test)` offered for sale.
    pub data: TrainTest,
    /// Inverse-NCP grid over which the market operates.
    pub grid: Vec<f64>,
    /// Market-research value curve.
    pub value_curve: ValueCurve,
    /// Market-research demand curve.
    pub demand_curve: DemandCurve,
}

impl Seller {
    /// Creates a seller listing.
    ///
    /// # Panics
    /// Panics when `grid` is empty or not strictly ascending — a listing
    /// with no sampleable market grid is a programming error, caught at
    /// construction rather than deep inside curve sampling.
    // LINT-SCOPE(reach-panic): sellers are built at simulation setup,
    // never on the serve path; the call-graph pass proves it.
    pub fn new(
        data: TrainTest,
        grid: Vec<f64>,
        value_curve: ValueCurve,
        demand_curve: DemandCurve,
    ) -> Self {
        if let Err(e) = super::curves::validate_grid(&grid) {
            panic!("invalid seller grid: {e}");
        }
        Seller {
            data,
            grid,
            value_curve,
            demand_curve,
        }
    }

    /// The buyer population implied by the research curves.
    // LINT-SCOPE(reach-panic): simulation-side population synthesis; the
    // grid was validated in `Seller::new` and no serve root reaches it.
    pub fn buyer_population(&self) -> Vec<BuyerPoint> {
        buyer_points(&self.grid, &self.value_curve, &self.demand_curve)
            .expect("seller grid validated at construction")
    }
}

/// A buyer with a budget (used by the examples; the protocol itself is
/// stateless and lives in [`Broker::buy`]).
#[derive(Debug, Clone)]
pub struct Buyer {
    /// Display name.
    pub name: String,
    /// Price budget.
    pub budget: f64,
}

impl Buyer {
    /// Creates a buyer.
    pub fn new(name: impl Into<String>, budget: f64) -> Self {
        assert!(budget >= 0.0 && budget.is_finite(), "budget must be >= 0");
        Buyer {
            name: name.into(),
            budget,
        }
    }
}

/// The buyer's three purchase options (Section 3.2, broker–buyer step 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PurchaseRequest {
    /// Pick a specific point on the price–error curve by its NCP.
    AtNcp(f64),
    /// "Cheapest instance with expected error ≤ ε̂."
    ErrorBudget(f64),
    /// "Most accurate instance with price ≤ p̂."
    PriceBudget(f64),
}

/// One fulfilled purchase.
#[derive(Debug, Clone)]
pub struct Sale {
    /// The released noisy model instance.
    pub model: LinearModel,
    /// Price charged.
    pub price: f64,
    /// NCP of the released instance.
    pub ncp: f64,
    /// Expected buyer-facing error at that NCP.
    pub expected_error: f64,
}

impl Sale {
    /// An unfilled sale whose zero-dimensional model buffer (no heap
    /// allocation) is replaced by the optimal instance on first release.
    fn blank(kind: ModelKind) -> Sale {
        Sale {
            model: LinearModel::new(kind, Vector::zeros(0)),
            price: 0.0,
            ncp: 0.0,
            expected_error: 0.0,
        }
    }
}

/// Reusable buffers for the purchase kernel ([`Broker::quote_batch_into`]).
///
/// The arena owns one [`Sale`] slot per request position plus the
/// per-request outcome, precision and price buffers. Slots are grown (and their model
/// buffers cloned) only when a batch is larger than any seen before;
/// after one warm-up batch at the steady-state size — and with ledger
/// capacity reserved via [`Broker::reserve_ledger`] — repeat batches
/// perform no heap allocation.
#[derive(Debug, Default)]
pub struct SaleArena {
    sales: Vec<Sale>,
    outcomes: Vec<Result<f64, MarketError>>,
    xs: Vec<f64>,
    prices: Vec<f64>,
    len: usize,
}

impl SaleArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        SaleArena::default()
    }

    /// A one-shot arena for a batch of `n` requests whose slots hold blank
    /// sales, so only the requests that succeed clone a model buffer.
    pub(crate) fn for_batch(kind: ModelKind, n: usize) -> Self {
        let mut arena = SaleArena::new();
        if n <= MAX_BATCH {
            arena.sales.resize_with(n, || Sale::blank(kind));
        }
        arena
    }

    /// Number of requests in the most recent batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no batch has been run (or the last batch was empty).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-request outcomes of the most recent batch, in request order:
    /// `Ok` borrows the arena-resident [`Sale`], `Err` the rejection.
    pub fn results(&self) -> impl Iterator<Item = Result<&Sale, &MarketError>> {
        self.outcomes
            .iter()
            .take(self.len)
            .zip(self.sales.iter())
            .map(|(outcome, sale)| match outcome {
                Ok(_) => Ok(sale),
                Err(e) => Err(e),
            })
    }

    /// The ledger entries of the most recent batch's sales, in request
    /// order.
    pub(crate) fn transactions(&self, kind: ModelKind) -> impl Iterator<Item = Transaction> + '_ {
        self.results().flatten().map(move |sale| Transaction {
            kind,
            ncp: sale.ncp,
            price: sale.price,
        })
    }

    /// Moves the most recent batch's outcomes out of the arena, in request
    /// order.
    pub(crate) fn into_results(self) -> Vec<Result<Sale, MarketError>> {
        self.sales
            .into_iter()
            .zip(self.outcomes)
            .take(self.len)
            .map(|(sale, outcome)| outcome.map(|_| sale))
            .collect()
    }
}

/// Ledger entry kept by the broker for revenue accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Model type sold.
    pub kind: ModelKind,
    /// NCP of the sold instance.
    pub ncp: f64,
    /// Price paid.
    pub price: f64,
}

/// A `(δ, expected error, price)` sample of the buyer-facing curve the
/// broker displays (Figure 1(C), step 2).
#[derive(Debug, Clone, Copy)]
pub struct PriceErrorPoint {
    /// Noise control parameter.
    pub ncp: f64,
    /// Expected error at this NCP.
    pub expected_error: f64,
    /// Price at this NCP.
    pub price: f64,
}

/// The buyer-facing price–error curve.
#[derive(Debug, Clone)]
pub struct PriceErrorCurve {
    /// Samples in ascending-NCP order.
    pub points: Vec<PriceErrorPoint>,
}

impl PriceErrorCurve {
    /// `true` when price is non-increasing and error non-decreasing along
    /// the curve — the shape the buyer should always see in a well-behaved
    /// market.
    pub fn is_well_formed(&self) -> bool {
        self.points
            .iter()
            .zip(self.points.iter().skip(1))
            .all(|(a, b)| {
                a.ncp <= b.ncp
                    && a.price >= b.price - 1e-9
                    && a.expected_error <= b.expected_error + 1e-9
            })
    }

    /// Cheapest price at which the curve offers expected error ≤ `err`,
    /// linearly interpolating price between samples. `None` when `err` is
    /// below the most accurate sampled point (or the curve is empty).
    pub fn price_for_error(&self, err: f64) -> Option<f64> {
        let first = self.points.first()?;
        // NaN budgets are unsatisfiable, like budgets below the curve floor.
        if err.is_nan() || err < first.expected_error {
            return None;
        }
        // Largest sampled NCP whose error is still within budget: errors are
        // non-decreasing along the curve, so partition on the error budget.
        let idx = self.points.partition_point(|p| p.expected_error <= err);
        // `first` is within budget, so the partition is never empty.
        debug_assert!(idx >= 1);
        let lo = self.points.get(idx.wrapping_sub(1))?;
        if idx == self.points.len() {
            return Some(lo.price);
        }
        let hi = self.points.get(idx)?;
        if hi.expected_error <= lo.expected_error {
            return Some(hi.price.min(lo.price));
        }
        let t = (err - lo.expected_error) / (hi.expected_error - lo.expected_error);
        Some(lo.price + t * (hi.price - lo.price))
    }
}

/// Maximum number of requests accepted by one batch call.
///
/// Every batch entry point — the kernel [`Broker::quote_batch_into`], its
/// adaptors [`Broker::buy_batch_into`] and [`Broker::buy_batch`], the
/// price-only [`Broker::price_batch`], and the `SharedBroker` wrappers —
/// rejects empty batches and batches larger than this cap with
/// [`MarketError::BadRequest`] before resolving the listing. The cap bounds
/// how much work a single caller can queue behind one shared read guard
/// (and, through `mbp-serve`, behind one connection's dispatch turn); the
/// empty-batch rejection turns a front-end bookkeeping bug into a typed
/// error instead of a silent no-op that still pays the listing lookup.
pub const MAX_BATCH: usize = 4096;

/// Shared admission check for all batch entry points: empty and oversized
/// batches are a caller error, reported before any listing state is read.
fn check_batch(requests: &[PurchaseRequest]) -> Result<(), MarketError> {
    if requests.is_empty() {
        return Err(MarketError::BadRequest(
            "empty batch: batch entry points require at least one request".to_string(),
        ));
    }
    if requests.len() > MAX_BATCH {
        return Err(MarketError::BadRequest(format!(
            "batch of {} requests exceeds the MAX_BATCH cap of {MAX_BATCH}",
            requests.len()
        )));
    }
    Ok(())
}

/// A priced-but-not-purchased resolution of one [`PurchaseRequest`]: the
/// quote path of the network protocol. No model is released, no noise is
/// drawn, and the ledger is untouched, so producing one consumes no RNG.
#[derive(Debug, Clone, Copy)]
pub struct PriceQuote {
    /// Resolved noise control parameter.
    pub ncp: f64,
    /// Price at that NCP under the published listing.
    pub price: f64,
    /// Expected buyer-facing error at that NCP.
    pub expected_error: f64,
}

struct MenuEntry {
    model: LinearModel,
    /// Ridge coefficient the instance was trained with. Re-supporting
    /// linear regression at a different ridge re-solves from the cached
    /// Gram factorization instead of being silently ignored.
    ridge: f64,
}

/// A published offer: the pricing function and error transform under which
/// a model type is currently for sale, plus the serving-side artifacts
/// compiled at publish time: the flat [`PricingTable`] and the memoized
/// error-inverse [`PhiMemo`]. Re-publishing replaces the whole listing, so
/// the compiled artifacts can never go stale.
struct Listing {
    pricing: PricingFunction,
    table: PricingTable,
    phi: PhiMemo,
    transform: Box<dyn ErrorTransform + Send + Sync>,
}

impl Listing {
    /// Passes 1–2 of the batch kernel into `arena`'s buffers: resolve every
    /// request to its NCP (consumes no RNG), recording the precision 1/δ of
    /// each, then price all precisions at once through
    /// [`PricingTable::price_at_batch`] (one segment lookup and one
    /// multiply-add per request, in request order).
    fn resolve_and_price(&self, requests: &[PurchaseRequest], arena: &mut SaleArena) {
        mbp_obs::counter_add("mbp.core.pricing.table_hit", requests.len() as u64);
        let pricing = PricePath::Table(&self.table);
        arena.len = requests.len();
        arena.outcomes.clear();
        arena.outcomes.reserve(requests.len());
        arena.xs.clear();
        arena.xs.reserve(requests.len());
        for &request in requests {
            let r = resolve_ncp(&pricing, Some(&self.phi), self.transform.as_ref(), request);
            arena.xs.push(r.as_ref().map_or(f64::NAN, |&d| 1.0 / d));
            arena.outcomes.push(r);
        }
        self.table
            .price_at_batch(&arena.xs, &mut BatchScratch::default(), &mut arena.prices);
    }
}

/// The broker: trains optimal instances (one-time cost), derives pricing,
/// and fulfills purchases by injecting fresh noise per sale.
pub struct Broker {
    data: TrainTest,
    mechanism: Box<dyn NoiseMechanism>,
    menu: HashMap<ModelKind, MenuEntry>,
    listings: HashMap<ModelKind, Listing>,
    ledger: Vec<Transaction>,
    /// Lazily-built ridge solver: the train-split Gram matrix is formed
    /// once, and Cholesky factors are cached per ridge value.
    ridge_solver: Option<RidgeSolver>,
    /// Optional write-ahead observer; see [`crate::market::durability`].
    /// Sale hooks fire at origination sites only, never in
    /// [`Broker::settle`] (the stripe-drain path would double-record).
    durability: Option<Arc<dyn DurabilitySink>>,
}

impl fmt::Debug for Broker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("mechanism", &self.mechanism.name())
            .field("menu_size", &self.menu.len())
            .field("ledger_len", &self.ledger.len())
            .finish()
    }
}

impl Broker {
    /// Creates a broker for `data` using the paper's Gaussian mechanism.
    pub fn new(data: TrainTest) -> Self {
        Broker::with_mechanism(data, Box::new(GaussianMechanism))
    }

    /// Creates a broker with a custom (unbiased, calibrated) mechanism.
    pub fn with_mechanism(data: TrainTest, mechanism: Box<dyn NoiseMechanism>) -> Self {
        Broker {
            data,
            mechanism,
            menu: HashMap::new(),
            listings: HashMap::new(),
            ledger: Vec::new(),
            ridge_solver: None,
            durability: None,
        }
    }

    /// Attaches a durability sink: every later support, publish, and
    /// completed sale is forwarded to `sink` at its origination site.
    ///
    /// Attach *after* replaying a recovered log into this broker, so the
    /// recovery replay itself is not appended back to the log it came
    /// from.
    pub fn set_durability(&mut self, sink: Arc<dyn DurabilitySink>) {
        self.durability = Some(sink);
    }

    /// Detaches the durability sink, returning it if one was attached.
    pub fn take_durability(&mut self) -> Option<Arc<dyn DurabilitySink>> {
        self.durability.take()
    }

    /// Publishes a standing offer for `kind`: later purchases can go
    /// through [`Broker::buy_listed`] without re-supplying the pricing and
    /// transform on every call. The model must already be on the menu.
    ///
    /// Publishing is where the serving fast path is built: the pricing
    /// function is compiled into a [`PricingTable`] and the transform's
    /// error-inverse is memoized into a [`PhiMemo`], so every subsequent
    /// quote against the listing is a table lookup.
    pub fn publish(
        &mut self,
        kind: ModelKind,
        pricing: PricingFunction,
        transform: Box<dyn ErrorTransform + Send + Sync>,
    ) -> Result<(), MarketError> {
        let _trace =
            mbp_obs::trace_root_hinted("mbp.core.publish", kind_label(kind), self.mechanism.name());
        if !self.menu.contains_key(&kind) {
            mbp_obs::inc("mbp.core.publish.rejected");
            return Err(MarketError::UnsupportedModel(kind));
        }
        let table = pricing.compile();
        let phi = PhiMemo::new(transform.as_ref(), &table);
        if let Some(sink) = &self.durability {
            sink.record_publish(kind, pricing.grid(), pricing.prices());
        }
        self.listings.insert(
            kind,
            Listing {
                pricing,
                table,
                phi,
                transform,
            },
        );
        mbp_obs::inc("mbp.core.publish.count");
        mbp_obs::event(
            mbp_obs::Verbosity::Info,
            "mbp.core.broker",
            "listing published",
            &[("kind", format!("{kind:?}"))],
        );
        Ok(())
    }

    /// The published listing for `kind` and the menu entry it sells.
    fn listed(&self, kind: ModelKind) -> Result<(&Listing, &MenuEntry), MarketError> {
        match (self.listings.get(&kind), self.menu.get(&kind)) {
            (Some(listing), Some(entry)) => Ok((listing, entry)),
            _ => Err(MarketError::UnsupportedModel(kind)),
        }
    }

    /// Fulfills a purchase against the *published* listing for `kind`,
    /// served from the compiled pricing table: [`Broker::buy_listed_into`]
    /// on a fresh [`Sale`].
    pub fn buy_listed(
        &mut self,
        kind: ModelKind,
        request: PurchaseRequest,
        rng: &mut MbpRng,
    ) -> Result<Sale, MarketError> {
        let mut sale = Sale::blank(kind);
        self.buy_listed_into(kind, request, rng, &mut sale)?;
        Ok(sale)
    }

    /// Single-request purchase against the published listing, written into
    /// `sale` (reusing its model buffer when the kind and dimension already
    /// match). After one warm-up call (and with ledger capacity reserved
    /// via [`Broker::reserve_ledger`]), steady-state successful purchases
    /// perform no heap allocation.
    pub fn buy_listed_into(
        &mut self,
        kind: ModelKind,
        request: PurchaseRequest,
        rng: &mut MbpRng,
        sale: &mut Sale,
    ) -> Result<(), MarketError> {
        let _span = mbp_obs::span("mbp.core.buy");
        let trace =
            mbp_obs::trace_root_hinted("mbp.core.buy", kind_label(kind), self.mechanism.name());
        let result = (|| {
            let lookup = trace.phase(mbp_obs::Phase::Lookup);
            let (listing, entry) = self.listed(kind)?;
            drop(lookup);
            mbp_obs::inc("mbp.core.pricing.table_hit");
            let tx = execute_purchase_into(
                entry,
                self.mechanism.as_ref(),
                &PricePath::Table(&listing.table),
                Some(&listing.phi),
                listing.transform.as_ref(),
                request,
                rng,
                sale,
                &trace,
            )?;
            let ledger = trace.phase(mbp_obs::Phase::Ledger);
            record_sales(self.durability.as_ref(), &mut self.ledger, [tx]);
            drop(ledger);
            Ok(())
        })();
        record_purchase_outcome(result.as_ref().map(|()| &*sale));
        result
    }

    /// The purchase kernel: runs a whole batch against the published
    /// listing for `kind` into `arena`, leaving the ledger untouched.
    ///
    /// The listing, menu entry, and compiled table are resolved once. Pass
    /// 1 resolves every request to its NCP (no RNG); pass 2 prices each
    /// precision from its own segment through
    /// [`PricingTable::price_at_batch`]; pass 3 draws
    /// noise into the arena's resident [`Sale`] slots strictly in request
    /// order (rejected requests draw nothing). Prices, noise draws, and
    /// RNG consumption are therefore bit-identical to a sequential
    /// [`Broker::buy_listed`] loop. Read per-request outcomes with
    /// [`SaleArena::results`]; the outer error fires only for a bad batch
    /// or when `kind` has no listing.
    ///
    /// Every other batch entry point is an adaptor over this one:
    /// [`Broker::buy_batch_into`] settles the arena's sales into the
    /// ledger, [`Broker::buy_batch`] moves them out, and the `SharedBroker`
    /// wrappers run it under a shared read guard and settle into a ledger
    /// stripe. After one warm-up batch at the steady-state size, repeat
    /// batches perform no heap allocation.
    pub fn quote_batch_into(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
        arena: &mut SaleArena,
    ) -> Result<(), MarketError> {
        check_batch(requests)?;
        let _span = mbp_obs::span("mbp.core.buy_batch");
        // The whole batch is driven by one RNG, so every per-request trace
        // root carries the batch's replay seed: a slow quote anywhere in
        // the batch is replayed by re-running the batch from that seed.
        let batch_seed = if mbp_obs::is_tracing() {
            mbp_obs::trace::take_request_seed()
        } else {
            0
        };
        let (listing, entry) = self.listed(kind)?;
        listing.resolve_and_price(requests, arena);
        // Grow the Sale pool to the batch size (warm-up cost only).
        while arena.sales.len() < requests.len() {
            arena.sales.push(Sale {
                model: entry.model.clone(),
                price: 0.0,
                ncp: 0.0,
                expected_error: 0.0,
            });
        }
        // Pass 3 — noise, strictly in request order.
        let mut served = 0u64;
        let mut revenue = 0.0;
        let slots = arena.outcomes.iter().zip(&arena.prices);
        for ((outcome, &price), sale) in slots.zip(arena.sales.iter_mut()) {
            let Ok(&ncp) = outcome.as_ref() else { continue };
            let trace = mbp_obs::trace_root(
                "mbp.core.buy",
                kind_label(kind),
                self.mechanism.name(),
                batch_seed,
            );
            release_into(
                entry,
                self.mechanism.as_ref(),
                listing.transform.as_ref(),
                ncp,
                price,
                rng,
                sale,
                &trace,
            );
            served += 1;
            revenue += price;
        }
        mbp_obs::counter_add("mbp.core.buy.count", served);
        mbp_obs::counter_add("mbp.core.buy.rejected", requests.len() as u64 - served);
        mbp_obs::gauge_add("mbp.core.revenue.total", revenue);
        Ok(())
    }

    /// Batch purchase into `arena`: the [`Broker::quote_batch_into`] kernel,
    /// then the successful sales settle into the ledger (and the durability
    /// sink) in request order. With ledger capacity reserved via
    /// [`Broker::reserve_ledger`], repeat batches perform no heap
    /// allocation.
    pub fn buy_batch_into(
        &mut self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
        arena: &mut SaleArena,
    ) -> Result<(), MarketError> {
        self.quote_batch_into(kind, requests, rng, arena)?;
        let _ledger = mbp_obs::phase_for(mbp_obs::Phase::Ledger, kind_label(kind), "-");
        record_sales(
            self.durability.as_ref(),
            &mut self.ledger,
            arena.transactions(kind),
        );
        Ok(())
    }

    /// Batch purchase returning owned sales: [`Broker::buy_batch_into`] on
    /// a fresh arena whose [`Sale`] slots are then moved out. Per-request
    /// failures are returned inline, in request order.
    pub fn buy_batch(
        &mut self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
    ) -> Result<Vec<Result<Sale, MarketError>>, MarketError> {
        let mut arena = SaleArena::for_batch(kind, requests.len());
        self.buy_batch_into(kind, requests, rng, &mut arena)?;
        Ok(arena.into_results())
    }

    /// Prices a batch of requests without purchasing: the network quote
    /// path. Passes 1–2 of the [`Broker::quote_batch_into`] kernel, but no
    /// model is released, no RNG is consumed, and the ledger is untouched —
    /// so a quote storm cannot perturb the noise stream of interleaved buys.
    pub fn price_batch(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
    ) -> Result<Vec<Result<PriceQuote, MarketError>>, MarketError> {
        check_batch(requests)?;
        let _span = mbp_obs::span("mbp.core.price_batch");
        let (listing, _) = self.listed(kind)?;
        let mut arena = SaleArena::new();
        listing.resolve_and_price(requests, &mut arena);
        Ok(arena
            .outcomes
            .into_iter()
            .zip(arena.prices)
            .map(|(r, price)| {
                r.map(|ncp| PriceQuote {
                    ncp,
                    price,
                    expected_error: listing.transform.expected_error(ncp),
                })
            })
            .collect())
    }

    /// Pre-allocates ledger capacity for `additional` upcoming
    /// transactions, so steady-state [`Broker::buy_listed_into`] pushes
    /// never reallocate.
    pub fn reserve_ledger(&mut self, additional: usize) {
        self.ledger.reserve(additional);
    }

    /// The published pricing for `kind`, if any.
    pub fn listed_pricing(&self, kind: ModelKind) -> Option<&PricingFunction> {
        self.listings.get(&kind).map(|l| &l.pricing)
    }

    /// The compiled pricing table for `kind`'s listing, if any.
    pub fn listed_table(&self, kind: ModelKind) -> Option<&PricingTable> {
        self.listings.get(&kind).map(|l| &l.table)
    }

    /// The dataset backing the market.
    pub fn data(&self) -> &TrainTest {
        &self.data
    }

    /// Adds `kind` to the menu, training the optimal instance `h*_λ(D)` on
    /// the train split (the broker's one-time cost).
    ///
    /// Iteratively-trained kinds (logistic, SVM) are idempotent per kind:
    /// repeat calls return the cached instance regardless of `ridge`.
    /// Linear regression instead caches at the factorization level: the
    /// Gram matrix `XᵀX/n` is formed once per broker, Cholesky factors are
    /// cached per ridge value, and re-supporting at a *different* ridge
    /// re-solves from the cached Gram (counted by
    /// `mbp.core.broker.factor_cache_hit`/`miss`) instead of being
    /// silently ignored.
    pub fn support(&mut self, kind: ModelKind, ridge: f64) -> Result<&LinearModel, MarketError> {
        let _span = mbp_obs::span("mbp.core.support");
        mbp_obs::inc("mbp.core.support.count");
        let cached_ridge = self.menu.get(&kind).map(|e| e.ridge);
        let needs_training = match (kind, cached_ridge) {
            (_, None) => true,
            (ModelKind::LinearRegression, Some(prev)) => prev.to_bits() != ridge.to_bits(),
            (_, Some(_)) => false,
        };
        if needs_training {
            mbp_obs::inc("mbp.core.support.trained");
            mbp_obs::event(
                mbp_obs::Verbosity::Info,
                "mbp.core.broker",
                "training optimal instance",
                &[("kind", format!("{kind:?}")), ("ridge", format!("{ridge}"))],
            );
            let weights = match kind {
                ModelKind::LinearRegression => {
                    // take/insert instead of is_none/as_mut so the solver is
                    // reachable without an `expect` between the two steps.
                    let solver = match self.ridge_solver.take() {
                        Some(s) => self.ridge_solver.insert(s),
                        None => self
                            .ridge_solver
                            .insert(RidgeSolver::new(&self.data.train)?),
                    };
                    if solver.has_factor(ridge) {
                        mbp_obs::inc("mbp.core.broker.factor_cache_hit");
                    } else {
                        mbp_obs::inc("mbp.core.broker.factor_cache_miss");
                    }
                    solver.solve(ridge)?
                }
                ModelKind::LogisticRegression => {
                    newton_logistic(
                        &LogisticLoss::ridge(ridge),
                        &self.data.train,
                        TrainConfig::default(),
                    )
                    .weights
                }
                ModelKind::LinearSvm => {
                    let mu = if ridge > 0.0 { ridge } else { 1e-3 };
                    gradient_descent(
                        &SmoothedHingeLoss::new(mu, 0.5),
                        &self.data.train,
                        TrainConfig::default(),
                    )
                    .weights
                }
            };
            self.menu.insert(
                kind,
                MenuEntry {
                    model: LinearModel::new(kind, weights),
                    ridge,
                },
            );
            // Only actual (re)training is durable: replaying the same
            // support sequence re-derives identical weights, and repeat
            // same-ridge calls add nothing to recovery.
            if let Some(sink) = &self.durability {
                sink.record_support(kind, ridge);
            }
        } else if kind == ModelKind::LinearRegression {
            // Same (kind, ridge) already on the menu: a pure cache hit.
            mbp_obs::inc("mbp.core.broker.factor_cache_hit");
        }
        self.menu
            .get(&kind)
            .map(|entry| &entry.model)
            .ok_or(MarketError::UnsupportedModel(kind))
    }

    /// Number of distinct ridge factorizations cached for linear
    /// regression (0 before the first [`Broker::support`] call).
    pub fn factor_cache_size(&self) -> usize {
        self.ridge_solver
            .as_ref()
            .map_or(0, RidgeSolver::factor_count)
    }

    /// The cached optimal instance for `kind`, if supported.
    pub fn optimal_model(&self, kind: ModelKind) -> Option<&LinearModel> {
        self.menu.get(&kind).map(|e| &e.model)
    }

    /// Derives the revenue-maximizing arbitrage-free pricing from a
    /// seller's market research (Figure 2(b)→(c): the Theorem 10 DP on the
    /// buyer population).
    pub fn price_from_research(&self, seller: &Seller) -> RevenueSolution {
        solve_bv_dp(&seller.buyer_population())
    }

    /// Builds the buyer-facing price–error curve for `kind` over `ncps`
    /// (step 2 of the broker–buyer interaction).
    pub fn price_error_curve(
        &self,
        kind: ModelKind,
        transform: &dyn ErrorTransform,
        pricing: &PricingFunction,
        ncps: &[f64],
    ) -> Result<PriceErrorCurve, MarketError> {
        if !self.menu.contains_key(&kind) {
            return Err(MarketError::UnsupportedModel(kind));
        }
        // Reject malformed grids up front: `price_for_ncp` requires a
        // positive finite NCP, and a NaN would previously panic the serve
        // path inside the pricing assert.
        if let Some(&bad) = ncps.iter().find(|d| !d.is_finite() || **d <= 0.0) {
            return Err(MarketError::BadRequest(format!(
                "NCP grid entries must be positive and finite, got {bad}"
            )));
        }
        let mut points: Vec<PriceErrorPoint> = ncps
            .iter()
            .map(|&ncp| PriceErrorPoint {
                ncp,
                expected_error: transform.expected_error(ncp),
                price: pricing.price_for_ncp(ncp),
            })
            .collect();
        points.sort_by(|a, b| a.ncp.total_cmp(&b.ncp));
        Ok(PriceErrorCurve { points })
    }

    /// Fulfills a purchase (steps 3–4) against a caller-supplied pricing
    /// function and transform: [`Broker::quote`], then the transaction
    /// settles into the ledger. This scan path is the reference the
    /// compiled-table listing path is tested against.
    pub fn buy(
        &mut self,
        kind: ModelKind,
        request: PurchaseRequest,
        pricing: &PricingFunction,
        transform: &dyn ErrorTransform,
        rng: &mut MbpRng,
    ) -> Result<Sale, MarketError> {
        let (sale, tx) = self.quote(kind, request, pricing, transform, rng)?;
        record_sales(self.durability.as_ref(), &mut self.ledger, [tx]);
        Ok(sale)
    }

    /// Read-only purchase execution: resolves the request to an NCP,
    /// charges `p̄(1/δ)` by scanning `pricing`, and returns a freshly-noised
    /// instance, leaving the ledger untouched and returning the
    /// [`Transaction`] for the caller to [`Broker::settle`]. This is the
    /// building block for sharded simulation and the striped concurrent
    /// broker, where many quotes run against `&Broker` in parallel and the
    /// ledger is merged in one deterministic step.
    pub fn quote(
        &self,
        kind: ModelKind,
        request: PurchaseRequest,
        pricing: &PricingFunction,
        transform: &dyn ErrorTransform,
        rng: &mut MbpRng,
    ) -> Result<(Sale, Transaction), MarketError> {
        let _span = mbp_obs::span("mbp.core.buy");
        let trace =
            mbp_obs::trace_root_hinted("mbp.core.buy", kind_label(kind), self.mechanism.name());
        let mut sale = Sale::blank(kind);
        let result = (|| {
            let lookup = trace.phase(mbp_obs::Phase::Lookup);
            let entry = self
                .menu
                .get(&kind)
                .ok_or(MarketError::UnsupportedModel(kind))?;
            drop(lookup);
            mbp_obs::inc("mbp.core.pricing.table_miss");
            execute_purchase_into(
                entry,
                self.mechanism.as_ref(),
                &PricePath::Scan(pricing),
                None,
                transform,
                request,
                rng,
                &mut sale,
                &trace,
            )
        })();
        record_purchase_outcome(result.as_ref().map(|_| &sale));
        result.map(|tx| (sale, tx))
    }

    /// Appends already-executed transactions to the ledger — the merge step
    /// for quotes produced by [`Broker::quote`]. Callers control the order,
    /// which is what makes sharded ledger merges deterministic.
    pub fn settle<I: IntoIterator<Item = Transaction>>(&mut self, txs: I) {
        self.ledger.extend(txs);
    }

    /// All completed transactions.
    pub fn ledger(&self) -> &[Transaction] {
        &self.ledger
    }

    /// Total revenue collected so far.
    pub fn total_revenue(&self) -> f64 {
        self.ledger.iter().map(|t| t.price).sum()
    }
}

/// The one origination site for sale records: forwards each transaction to
/// the durability sink (if any), then appends it to `ledger`, in order.
pub(crate) fn record_sales(
    sink: Option<&Arc<dyn DurabilitySink>>,
    ledger: &mut Vec<Transaction>,
    txs: impl IntoIterator<Item = Transaction>,
) {
    for tx in txs {
        if let Some(sink) = sink {
            sink.record_sale(&tx);
        }
        ledger.push(tx);
    }
}

/// Records the metrics for one purchase attempt: `mbp.core.buy.count` and
/// the running `mbp.core.revenue.total` gauge on success,
/// `mbp.core.buy.rejected` (plus an error event) on failure.
fn record_purchase_outcome(result: Result<&Sale, &MarketError>) {
    match result {
        Ok(sale) => {
            mbp_obs::inc("mbp.core.buy.count");
            mbp_obs::gauge_add("mbp.core.revenue.total", sale.price);
        }
        Err(e) => {
            mbp_obs::inc("mbp.core.buy.rejected");
            mbp_obs::event(
                mbp_obs::Verbosity::Error,
                "mbp.core.broker",
                "purchase rejected",
                &[("reason", e.to_string())],
            );
        }
    }
}

/// Which pricing backend a purchase is served from: the original
/// piecewise-linear scan, or the compiled table built at publish time.
/// Both answer the same queries with identical values (the table is
/// cross-checked against its source in debug builds).
enum PricePath<'a> {
    Scan(&'a PricingFunction),
    Table(&'a PricingTable),
}

impl PricePath<'_> {
    fn price_for_ncp(&self, ncp: f64) -> f64 {
        match self {
            PricePath::Scan(p) => p.price_for_ncp(ncp),
            PricePath::Table(t) => t.price_for_ncp(ncp),
        }
    }

    fn max_precision_for_budget(&self, b: f64) -> Option<f64> {
        match self {
            PricePath::Scan(p) => p.max_precision_for_budget(b),
            PricePath::Table(t) => t.max_precision_for_budget(b),
        }
    }

    fn grid_max(&self) -> f64 {
        let grid = match self {
            PricePath::Scan(p) => p.grid(),
            PricePath::Table(t) => t.knots(),
        };
        // Both sources validate non-empty grids at construction; an empty
        // grid degrades to 0.0, which resolves to InsufficientBudget.
        grid.last().copied().unwrap_or(0.0)
    }
}

/// Resolves a purchase request to the NCP of the instance to release.
/// The memoized error-inverse is used when the caller has one (listing
/// purchases); it answers identically to the transform's own inversion.
fn resolve_ncp(
    pricing: &PricePath<'_>,
    phi: Option<&PhiMemo>,
    transform: &dyn ErrorTransform,
    request: PurchaseRequest,
) -> Result<f64, MarketError> {
    match request {
        PurchaseRequest::AtNcp(d) => {
            if !(d > 0.0 && d.is_finite()) {
                return Err(MarketError::BadRequest(format!(
                    "NCP must be positive and finite, got {d}"
                )));
            }
            Ok(d)
        }
        PurchaseRequest::ErrorBudget(eps) => {
            let ncp = match phi {
                Some(memo) => memo.ncp_for_error(transform, eps),
                None => transform.ncp_for_error(eps),
            };
            ncp.filter(|&d| d > 0.0)
                .ok_or(MarketError::UnachievableError(eps))
        }
        PurchaseRequest::PriceBudget(budget) => {
            if !(budget >= 0.0 && budget.is_finite()) {
                return Err(MarketError::BadRequest(format!(
                    "budget must be non-negative, got {budget}"
                )));
            }
            let x = pricing
                .max_precision_for_budget(budget)
                .ok_or(MarketError::InsufficientBudget(budget))?;
            // Budgets at/above the saturation price buy the most precise
            // version on the menu grid (never the noiseless model: the
            // grid caps precision).
            let x = x.min(pricing.grid_max());
            if x <= 0.0 {
                return Err(MarketError::InsufficientBudget(budget));
            }
            Ok(1.0 / x)
        }
    }
}

/// Single-request purchase path shared by the listing and scan entry
/// points: resolves the request to an NCP, prices it, and releases a
/// freshly noised instance into `sale`.
#[allow(clippy::too_many_arguments)]
fn execute_purchase_into(
    entry: &MenuEntry,
    mechanism: &dyn NoiseMechanism,
    pricing: &PricePath<'_>,
    phi: Option<&PhiMemo>,
    transform: &dyn ErrorTransform,
    request: PurchaseRequest,
    rng: &mut MbpRng,
    sale: &mut Sale,
    trace: &mbp_obs::TraceRoot,
) -> Result<Transaction, MarketError> {
    let ncp = {
        let _p = trace.phase(mbp_obs::Phase::PhiInversion);
        resolve_ncp(pricing, phi, transform, request)?
    };
    let price = pricing.price_for_ncp(ncp);
    release_into(entry, mechanism, transform, ncp, price, rng, sale, trace);
    Ok(Transaction {
        kind: entry.model.kind(),
        ncp,
        price,
    })
}

/// The noise step of every purchase: writes `h*` plus fresh noise at `ncp`
/// into `sale`'s model buffer (cloning the optimal instance only when the
/// slot holds a different kind or dimension) and stamps the sale.
#[allow(clippy::too_many_arguments)]
fn release_into(
    entry: &MenuEntry,
    mechanism: &dyn NoiseMechanism,
    transform: &dyn ErrorTransform,
    ncp: f64,
    price: f64,
    rng: &mut MbpRng,
    sale: &mut Sale,
    trace: &mbp_obs::TraceRoot,
) {
    if sale.model.kind() != entry.model.kind() || sale.model.dim() != entry.model.dim() {
        sale.model = entry.model.clone();
    }
    let noise = trace.phase(mbp_obs::Phase::Noise);
    mechanism.perturb_into(entry.model.weights(), ncp, rng, sale.model.weights_mut());
    drop(noise);
    sale.price = price;
    sale.ncp = ncp;
    sale.expected_error = transform.expected_error(ncp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{LinRegSquareTransform, SquareLossTransform};
    use crate::market::concurrent::SharedBroker;
    use crate::market::curves::{grid, DemandShape, ValueShape};
    use mbp_data::synth;
    use mbp_randx::seeded_rng;

    fn market_data(seed: u64) -> TrainTest {
        let mut rng = seeded_rng(seed);
        let ds = synth::simulated1(600, 5, 0.5, &mut rng);
        ds.split(0.75, &mut rng)
    }

    fn simple_pricing() -> PricingFunction {
        let g: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let p: Vec<f64> = g.iter().map(|x| 10.0 * x.sqrt()).collect();
        PricingFunction::from_points(g, p).unwrap()
    }

    #[test]
    fn support_is_idempotent_one_time_cost() {
        let mut broker = Broker::new(market_data(1));
        let w1 = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        let w2 = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        assert_eq!(w1, w2);
        assert!(broker.optimal_model(ModelKind::LinearRegression).is_some());
        assert!(broker.optimal_model(ModelKind::LinearSvm).is_none());
    }

    #[test]
    fn buy_at_ncp_charges_curve_price() {
        let mut broker = Broker::new(market_data(2));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        let pricing = simple_pricing();
        let mut rng = seeded_rng(7);
        let sale = broker
            .buy(
                ModelKind::LinearRegression,
                PurchaseRequest::AtNcp(0.5),
                &pricing,
                &SquareLossTransform,
                &mut rng,
            )
            .unwrap();
        assert!((sale.price - pricing.price_for_ncp(0.5)).abs() < 1e-12);
        assert_eq!(sale.ncp, 0.5);
        assert_eq!(broker.ledger().len(), 1);
        assert!((broker.total_revenue() - sale.price).abs() < 1e-12);
    }

    #[test]
    fn error_budget_buys_cheapest_adequate_model() {
        let mut broker = Broker::new(market_data(3));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        let pricing = simple_pricing();
        let mut rng = seeded_rng(8);
        // With the identity transform, error budget 2.0 ⇒ δ = 2.0.
        let sale = broker
            .buy(
                ModelKind::LinearRegression,
                PurchaseRequest::ErrorBudget(2.0),
                &pricing,
                &SquareLossTransform,
                &mut rng,
            )
            .unwrap();
        assert!((sale.ncp - 2.0).abs() < 1e-12);
        assert!(sale.expected_error <= 2.0 + 1e-12);
    }

    #[test]
    fn price_budget_buys_most_accurate_affordable() {
        let mut broker = Broker::new(market_data(4));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        let pricing = simple_pricing();
        let mut rng = seeded_rng(9);
        let budget = 20.0; // p̄(x) = 10√x = 20 ⇒ x = 4 ⇒ δ = 0.25
        let sale = broker
            .buy(
                ModelKind::LinearRegression,
                PurchaseRequest::PriceBudget(budget),
                &pricing,
                &SquareLossTransform,
                &mut rng,
            )
            .unwrap();
        assert!(sale.price <= budget + 1e-9);
        assert!((sale.ncp - 0.25).abs() < 1e-9, "ncp {}", sale.ncp);
        // A huge budget buys the top-of-grid precision (x = 10).
        let sale = broker
            .buy(
                ModelKind::LinearRegression,
                PurchaseRequest::PriceBudget(1e6),
                &pricing,
                &SquareLossTransform,
                &mut rng,
            )
            .unwrap();
        assert!((sale.ncp - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unsupported_model_is_rejected() {
        let mut broker = Broker::new(market_data(5));
        let mut rng = seeded_rng(10);
        let err = broker
            .buy(
                ModelKind::LinearSvm,
                PurchaseRequest::AtNcp(1.0),
                &simple_pricing(),
                &SquareLossTransform,
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, MarketError::UnsupportedModel(_)));
    }

    #[test]
    fn unachievable_error_budget_is_rejected() {
        let data = market_data(6);
        let mut broker = Broker::new(data);
        let h = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        let transform = LinRegSquareTransform::new(&broker.data().test.clone(), &h);
        let mut rng = seeded_rng(11);
        // Ask for error below the noiseless floor.
        let err = broker
            .buy(
                ModelKind::LinearRegression,
                PurchaseRequest::ErrorBudget(transform.base() * 0.5),
                &simple_pricing(),
                &transform,
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, MarketError::UnachievableError(_)));
    }

    #[test]
    fn price_error_curve_is_well_formed() {
        let mut broker = Broker::new(market_data(12));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        let ncps: Vec<f64> = (1..=20).map(|i| i as f64 * 0.25).collect();
        let curve = broker
            .price_error_curve(
                ModelKind::LinearRegression,
                &SquareLossTransform,
                &simple_pricing(),
                &ncps,
            )
            .unwrap();
        assert_eq!(curve.points.len(), 20);
        assert!(curve.is_well_formed());
    }

    #[test]
    fn seller_research_to_pricing_pipeline() {
        let data = market_data(13);
        let seller = Seller::new(
            data,
            grid(20.0, 100.0, 9),
            ValueCurve::new(ValueShape::Concave { power: 2.0 }, 0.0, 100.0),
            DemandCurve::new(DemandShape::Uniform),
        );
        let broker = Broker::new(market_data(14));
        let sol = broker.price_from_research(&seller);
        // Resulting prices live on the seller's grid and are feasible.
        assert_eq!(sol.pricing.grid().len(), 9);
        assert!(sol.objective > 0.0);
    }

    #[test]
    fn published_listing_sells_without_resupplying_pricing() {
        let mut broker = Broker::new(market_data(21));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        let pricing = simple_pricing();
        broker
            .publish(
                ModelKind::LinearRegression,
                pricing.clone(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
        assert_eq!(
            broker.listed_pricing(ModelKind::LinearRegression).unwrap(),
            &pricing
        );
        let mut rng = seeded_rng(22);
        let sale = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::AtNcp(0.5),
                &mut rng,
            )
            .unwrap();
        assert!((sale.price - pricing.price_for_ncp(0.5)).abs() < 1e-12);
        assert_eq!(broker.ledger().len(), 1);
        // Unlisted model types are rejected.
        assert!(matches!(
            broker.buy_listed(ModelKind::LinearSvm, PurchaseRequest::AtNcp(1.0), &mut rng),
            Err(MarketError::UnsupportedModel(_))
        ));
        // Publishing an unsupported model is rejected.
        assert!(matches!(
            broker.publish(ModelKind::LinearSvm, pricing, Box::new(SquareLossTransform)),
            Err(MarketError::UnsupportedModel(_))
        ));
    }

    /// The compiled-table listing path answers every request kind with the
    /// same price, NCP, and released weights as the scan path fed the same
    /// RNG stream — the end-to-end guarantee behind the serving fast path.
    #[test]
    fn listed_table_path_is_bit_identical_to_scan_path() {
        let requests = [
            PurchaseRequest::AtNcp(0.5),
            PurchaseRequest::ErrorBudget(2.0),
            PurchaseRequest::PriceBudget(20.0),
            PurchaseRequest::PriceBudget(1e6),
        ];
        let pricing = simple_pricing();
        let mut scan = Broker::new(market_data(30));
        scan.support(ModelKind::LinearRegression, 0.0).unwrap();
        let mut listed = Broker::new(market_data(30));
        listed.support(ModelKind::LinearRegression, 0.0).unwrap();
        listed
            .publish(
                ModelKind::LinearRegression,
                pricing.clone(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
        let mut rng_a = seeded_rng(31);
        let mut rng_b = seeded_rng(31);
        for &request in &requests {
            let a = scan
                .buy(
                    ModelKind::LinearRegression,
                    request,
                    &pricing,
                    &SquareLossTransform,
                    &mut rng_a,
                )
                .unwrap();
            let b = listed
                .buy_listed(ModelKind::LinearRegression, request, &mut rng_b)
                .unwrap();
            assert_eq!(a.price, b.price, "{request:?}");
            assert_eq!(a.ncp, b.ncp, "{request:?}");
            assert_eq!(a.expected_error, b.expected_error, "{request:?}");
            assert_eq!(a.model.weights(), b.model.weights(), "{request:?}");
        }
    }

    /// Records the sale sequence a broker forwards to its durability sink.
    #[derive(Default)]
    struct SaleLog(std::sync::Mutex<Vec<Transaction>>);

    impl SaleLog {
        fn sales(&self) -> Vec<Transaction> {
            self.0.lock().unwrap().clone()
        }
    }

    impl DurabilitySink for SaleLog {
        fn record_sale(&self, tx: &Transaction) {
            self.0.lock().unwrap().push(tx.clone());
        }
        fn record_support(&self, _: ModelKind, _: f64) {}
        fn record_publish(&self, _: ModelKind, _: &[f64], _: &[f64]) {}
        fn record_epoch(&self, _: u64) {}
        fn record_rng_cursor(&self, _: u64, _: u64) {}
    }

    /// The scan reference and every table-served purchase entry point.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Scan,
        BuyListed,
        BuyListedInto,
        BuyBatch,
        BuyBatchInto,
        QuoteBatchIntoSettled,
        SharedBuyBatchInto,
    }

    /// One request's release as raw bits `(ncp, price, weights)`, or
    /// `None` for a rejection.
    type Release = Option<(u64, u64, Vec<u64>)>;

    fn release(sale: Result<&Sale, &MarketError>) -> Release {
        let sale = sale.ok()?;
        let weights = sale.model.weights().as_slice().iter().map(|w| w.to_bits());
        Some((sale.ncp.to_bits(), sale.price.to_bits(), weights.collect()))
    }

    /// A linear-regression listing under the analytic regression transform
    /// (so the affine φ memo is exercised), plus that transform.
    fn regression_listing() -> (Broker, LinRegSquareTransform) {
        let mut broker = Broker::new(market_data(32));
        let h = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        let transform = LinRegSquareTransform::new(&broker.data().test.clone(), &h);
        broker
            .publish(
                ModelKind::LinearRegression,
                simple_pricing(),
                Box::new(transform.clone()),
            )
            .unwrap();
        (broker, transform)
    }

    /// Runs `batches` (one stream, in order) through `entry` with a
    /// recording sink attached; returns the per-request releases, the
    /// reconciled ledger, and the sink's sale sequence.
    fn run_entry(
        entry: Entry,
        batches: &[&[PurchaseRequest]],
    ) -> (Vec<Release>, Vec<Transaction>, Vec<Transaction>) {
        let kind = ModelKind::LinearRegression;
        let (mut broker, transform) = regression_listing();
        let log = Arc::new(SaleLog::default());
        let mut rng = seeded_rng(33);
        let mut arena = SaleArena::new();
        let mut out = Vec::new();
        let stream = batches.iter().flat_map(|b| b.iter().copied());
        broker.set_durability(log.clone());
        let ledger = match entry {
            Entry::Scan => {
                let pricing = simple_pricing();
                for r in stream {
                    let sale = broker.buy(kind, r, &pricing, &transform, &mut rng);
                    out.push(release(sale.as_ref()));
                }
                broker.ledger().to_vec()
            }
            Entry::BuyListed => {
                for r in stream {
                    out.push(release(broker.buy_listed(kind, r, &mut rng).as_ref()));
                }
                broker.ledger().to_vec()
            }
            Entry::BuyListedInto => {
                let mut sale = Sale::blank(kind);
                for r in stream {
                    let outcome = broker.buy_listed_into(kind, r, &mut rng, &mut sale);
                    out.push(release(outcome.as_ref().map(|()| &sale)));
                }
                broker.ledger().to_vec()
            }
            Entry::BuyBatch => {
                for &batch in batches {
                    let sales = broker.buy_batch(kind, batch, &mut rng).unwrap();
                    out.extend(sales.iter().map(Result::as_ref).map(release));
                }
                broker.ledger().to_vec()
            }
            Entry::BuyBatchInto => {
                for &batch in batches {
                    broker
                        .buy_batch_into(kind, batch, &mut rng, &mut arena)
                        .unwrap();
                    assert_eq!(arena.len(), batch.len());
                    out.extend(arena.results().map(release));
                }
                broker.ledger().to_vec()
            }
            Entry::QuoteBatchIntoSettled => {
                for &batch in batches {
                    broker
                        .quote_batch_into(kind, batch, &mut rng, &mut arena)
                        .unwrap();
                    out.extend(arena.results().map(release));
                    for sale in arena.results().flatten() {
                        let tx = Transaction {
                            kind,
                            ncp: sale.ncp,
                            price: sale.price,
                        };
                        log.record_sale(&tx);
                        broker.settle([tx]);
                    }
                }
                broker.ledger().to_vec()
            }
            Entry::SharedBuyBatchInto => {
                let shared = SharedBroker::with_durability(broker, log.clone());
                for &batch in batches {
                    shared
                        .buy_batch_into(kind, batch, &mut rng, &mut arena)
                        .unwrap();
                    out.extend(arena.results().map(release));
                }
                shared.with_broker(|b| b.ledger().to_vec())
            }
        };
        (out, ledger, log.sales())
    }

    /// One mixed request stream, rejections included, yields bit-identical
    /// releases, an identical ledger, and an identical durable sale
    /// sequence through every purchase entry point — each table-served
    /// adaptor over the kernel, checked against the scan path.
    #[test]
    fn every_purchase_entry_point_matches_the_scan_reference() {
        let (broker, _) = regression_listing();
        let base = broker.optimal_model(ModelKind::LinearRegression).unwrap();
        let floor = LinRegSquareTransform::new(&broker.data().test.clone(), base.weights()).base();
        let batches: [&[PurchaseRequest]; 2] = [
            &[
                PurchaseRequest::AtNcp(0.5),
                PurchaseRequest::PriceBudget(5.0), // below p̄(x₁): on the ray
                PurchaseRequest::AtNcp(-1.0),      // rejected
                PurchaseRequest::ErrorBudget(floor + 0.7),
                PurchaseRequest::PriceBudget(0.0), // rejected: zero precision
                PurchaseRequest::ErrorBudget(floor * 0.5), // rejected: below floor
                PurchaseRequest::PriceBudget(1e6), // saturates at the grid top
            ],
            // Smaller follow-up batch: exercises warmed arena slots.
            &[
                PurchaseRequest::AtNcp(0.05),
                PurchaseRequest::ErrorBudget(floor + 3.0),
                PurchaseRequest::AtNcp(f64::NAN), // rejected
                PurchaseRequest::PriceBudget(25.0),
            ],
        ];
        let (reference, ledger, log) = run_entry(Entry::Scan, &batches);
        assert_eq!(reference.iter().filter(|r| r.is_none()).count(), 4);
        assert_eq!(ledger.len(), 7);
        assert_eq!(log, ledger);
        for entry in [
            Entry::BuyListed,
            Entry::BuyListedInto,
            Entry::BuyBatch,
            Entry::BuyBatchInto,
            Entry::QuoteBatchIntoSettled,
            Entry::SharedBuyBatchInto,
        ] {
            let (releases, entry_ledger, entry_log) = run_entry(entry, &batches);
            assert_eq!(releases, reference, "{entry:?}: releases");
            assert_eq!(entry_ledger, ledger, "{entry:?}: ledger");
            assert_eq!(entry_log, log, "{entry:?}: durable sales");
        }
        // Unknown kinds fail at the batch level, not per request.
        let (mut broker, _) = regression_listing();
        let mut rng = seeded_rng(34);
        let mut arena = SaleArena::new();
        let svm = ModelKind::LinearSvm;
        assert!(matches!(
            broker.buy_batch(svm, batches[0], &mut rng),
            Err(MarketError::UnsupportedModel(_))
        ));
        assert!(matches!(
            broker.buy_batch_into(svm, batches[0], &mut rng, &mut arena),
            Err(MarketError::UnsupportedModel(_))
        ));
        assert!(broker.ledger().is_empty());
    }

    /// The sorted-bin kernel must scatter results back into request order:
    /// a batch deliberately shuffled across every evaluation class (ray,
    /// interior segments, saturation, rejections) returns exactly what a
    /// sequential loop returns, position by position, bit for bit.
    #[test]
    fn batch_kernel_preserves_request_order_across_segments() {
        let mut seq = Broker::new(market_data(40));
        let mut bat = Broker::new(market_data(40));
        for broker in [&mut seq, &mut bat] {
            broker.support(ModelKind::LinearRegression, 0.0).unwrap();
            broker
                .publish(
                    ModelKind::LinearRegression,
                    simple_pricing(),
                    Box::new(SquareLossTransform),
                )
                .unwrap();
        }
        // simple_pricing has knots 1..=10: NCP 1/x walks every segment.
        // Shuffled so neighbouring requests land in different bins.
        let requests: Vec<PurchaseRequest> = [
            0.05,
            9.5,
            2.3,
            0.11,
            7.7,
            -3.0,
            1.0,
            4.2,
            0.5,
            12.0,
            3.9,
            0.09,
            6.1,
            5.5,
            8.8,
            2.0,
            1.4,
            0.25,
            f64::NAN,
            10.0,
        ]
        .into_iter()
        .map(PurchaseRequest::AtNcp)
        .collect();
        let mut rng_seq = seeded_rng(41);
        let mut rng_bat = seeded_rng(41);
        let sequential: Vec<Result<Sale, MarketError>> = requests
            .iter()
            .map(|&r| seq.buy_listed(ModelKind::LinearRegression, r, &mut rng_seq))
            .collect();
        let batched = bat
            .buy_batch(ModelKind::LinearRegression, &requests, &mut rng_bat)
            .unwrap();
        // Digest both sides in request order: any scatter misordering or
        // arithmetic drift changes the fold.
        let digest = |sales: &[Result<Sale, MarketError>]| -> u64 {
            sales.iter().enumerate().fold(0u64, |h, (i, r)| {
                let word = match r {
                    Ok(s) => s
                        .model
                        .weights()
                        .as_slice()
                        .iter()
                        .fold(s.price.to_bits() ^ s.ncp.to_bits(), |a, w| {
                            a.rotate_left(7) ^ w.to_bits()
                        }),
                    Err(_) => 0xDEAD,
                };
                h.rotate_left(11) ^ word ^ i as u64
            })
        };
        let seq_results: Vec<Result<Sale, MarketError>> = sequential;
        assert_eq!(seq_results.len(), batched.len());
        for (i, (s, b)) in seq_results.iter().zip(&batched).enumerate() {
            match (s, b) {
                (Ok(s), Ok(b)) => {
                    assert_eq!(s.price.to_bits(), b.price.to_bits(), "request {i}");
                    assert_eq!(s.ncp.to_bits(), b.ncp.to_bits(), "request {i}");
                    assert_eq!(s.model.weights(), b.model.weights(), "request {i}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("request {i}: outcome mismatch"),
            }
        }
        assert_eq!(digest(&seq_results), digest(&batched));
    }

    /// Linear regression re-supports at new ridges from the cached Gram
    /// factorization; returning to an earlier ridge reuses its factor and
    /// reproduces the exact same weights.
    #[test]
    fn support_caches_factorizations_across_ridges() {
        let mut broker = Broker::new(market_data(36));
        assert_eq!(broker.factor_cache_size(), 0);
        let w0 = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        assert_eq!(broker.factor_cache_size(), 1);
        let w1 = broker
            .support(ModelKind::LinearRegression, 0.5)
            .unwrap()
            .weights()
            .clone();
        assert_eq!(broker.factor_cache_size(), 2);
        assert_ne!(w0, w1, "different ridges must give different instances");
        // Round-trip back to the first ridge: solved from the cached
        // factor, bit-identical to the first training.
        let w0_again = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        assert_eq!(w0, w0_again);
        assert_eq!(broker.factor_cache_size(), 2);
    }

    /// Re-publishing swaps in a freshly compiled table: quotes served after
    /// the swap follow the new pricing, never a stale table.
    #[test]
    fn republish_invalidates_compiled_table() {
        let mut broker = Broker::new(market_data(37));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        let cheap = simple_pricing();
        broker
            .publish(
                ModelKind::LinearRegression,
                cheap.clone(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
        let mut rng = seeded_rng(38);
        let before = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::AtNcp(0.5),
                &mut rng,
            )
            .unwrap();
        assert_eq!(before.price, cheap.price_for_ncp(0.5));
        let pricey = PricingFunction::from_points(
            cheap.grid().to_vec(),
            cheap.prices().iter().map(|p| p * 3.0).collect(),
        )
        .unwrap();
        broker
            .publish(
                ModelKind::LinearRegression,
                pricey.clone(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
        let after = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::AtNcp(0.5),
                &mut rng,
            )
            .unwrap();
        assert_eq!(after.price, pricey.price_for_ncp(0.5));
        assert_eq!(
            broker
                .listed_table(ModelKind::LinearRegression)
                .unwrap()
                .max_price(),
            pricey.max_price()
        );
    }

    #[test]
    fn price_error_curve_inversion_interpolates() {
        let mut broker = Broker::new(market_data(39));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        let ncps: Vec<f64> = (1..=20).map(|i| i as f64 * 0.25).collect();
        let curve = broker
            .price_error_curve(
                ModelKind::LinearRegression,
                &SquareLossTransform,
                &simple_pricing(),
                &ncps,
            )
            .unwrap();
        // Identity transform: error == ncp. At a sampled point the price
        // matches exactly; between points it interpolates; below the most
        // accurate point it is unachievable.
        let p = &curve.points;
        assert_eq!(curve.price_for_error(p[3].expected_error), Some(p[3].price));
        let mid = curve
            .price_for_error(0.5 * (p[0].expected_error + p[1].expected_error))
            .unwrap();
        assert!(mid <= p[0].price && mid >= p[1].price);
        assert_eq!(curve.price_for_error(p[0].expected_error * 0.5), None);
        assert_eq!(
            curve.price_for_error(p.last().unwrap().expected_error + 10.0),
            Some(p.last().unwrap().price)
        );
    }

    #[test]
    fn sales_are_noisy_but_unbiased_around_h_star() {
        let mut broker = Broker::new(market_data(15));
        let h_star = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        let pricing = simple_pricing();
        let mut rng = seeded_rng(16);
        let mut mean = mbp_linalg::Vector::zeros(h_star.len());
        let reps = 3000;
        for _ in 0..reps {
            let sale = broker
                .buy(
                    ModelKind::LinearRegression,
                    PurchaseRequest::AtNcp(1.0),
                    &pricing,
                    &SquareLossTransform,
                    &mut rng,
                )
                .unwrap();
            mean.axpy(1.0 / reps as f64, sale.model.weights()).unwrap();
        }
        let bias = mean.sub(&h_star).unwrap().norm2();
        assert!(bias < 0.05, "bias {bias}");
        assert_eq!(broker.ledger().len(), reps);
    }
}
