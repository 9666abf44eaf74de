//! A thread-safe broker front-end with striped ledger state.
//!
//! A real marketplace serves many buyers concurrently. The expensive part of
//! a purchase — training the noisy instance and pricing it — only *reads*
//! broker state (menu, curve, data), so concurrent buys quote under a shared
//! `RwLock` read guard and never exclude each other. The only mutation a buy
//! performs is appending one [`Transaction`], which lands in one of
//! [`LEDGER_STRIPES`] independently locked stripes chosen round-robin, so
//! even the ledger push rarely collides. Maintenance operations
//! ([`SharedBroker::with_broker`]) take the write lock, drain the stripes
//! into the core ledger in stripe order, and get the fully reconciled broker.
//!
//! Contention (a buy arriving while maintenance holds the core lock, or two
//! buys landing on the same stripe mid-push) is counted both in the
//! process-global `mbp.core.sharedbroker.contention` counter and in a
//! handle-local counter ([`SharedBroker::contention_count`]) that tests can
//! read race-free. Under the pre-PR design every buy serialized behind one
//! global mutex; the stress test below shows the striped path records
//! strictly less contention on the same workload.

use crate::error::ErrorTransform;
use crate::market::agents::{
    kind_label, record_sales, Broker, MarketError, PurchaseRequest, Sale, SaleArena, Transaction,
};
use crate::market::durability::DurabilitySink;
use crate::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::MbpRng;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of independently locked ledger stripes.
///
/// Eight is comfortably above the thread counts the simulation and CLI use;
/// the round-robin assignment means two buys only share a stripe when they
/// are `LEDGER_STRIPES` purchases apart and racing on the push itself.
pub const LEDGER_STRIPES: usize = 8;

struct SharedState {
    /// Menu, pricing curve, training data, and the *reconciled* ledger.
    core: RwLock<Broker>,
    /// Unreconciled transactions, drained into `core` in stripe order by
    /// [`SharedBroker::with_broker`].
    stripes: [Mutex<Vec<Transaction>>; LEDGER_STRIPES],
    /// Round-robin cursor for stripe assignment.
    next_stripe: AtomicUsize,
    /// Handle-local mirror of `mbp.core.sharedbroker.contention`.
    contention: AtomicU64,
    /// Optional write-ahead observer for the striped buy paths. Sale
    /// records are emitted *while the stripe lock is held*, so the durable
    /// order within a stripe matches the stripe's settlement order and the
    /// lock hierarchy stays `stripe → sink` (the sink never takes broker
    /// locks; see [`DurabilitySink`]).
    durability: Option<Arc<dyn DurabilitySink>>,
}

/// A cloneable, thread-safe handle to a broker.
#[derive(Clone)]
pub struct SharedBroker {
    inner: Arc<SharedState>,
}

impl SharedBroker {
    /// Wraps a broker (train the menu with [`Broker::support`] first, or
    /// through [`SharedBroker::support`]).
    pub fn new(broker: Broker) -> Self {
        SharedBroker::wrap(broker, None)
    }

    /// Wraps a broker with a durability sink attached: the striped buy
    /// paths forward every settled transaction to `sink` under the stripe
    /// lock, and maintenance mutations (support/publish through the core
    /// write lock) are forwarded by the inner [`Broker`] itself.
    ///
    /// Call this *after* recovery has replayed an existing log into
    /// `broker`, so the replay is not re-recorded.
    pub fn with_durability(mut broker: Broker, sink: Arc<dyn DurabilitySink>) -> Self {
        broker.set_durability(Arc::clone(&sink));
        SharedBroker::wrap(broker, Some(sink))
    }

    fn wrap(broker: Broker, durability: Option<Arc<dyn DurabilitySink>>) -> Self {
        SharedBroker {
            inner: Arc::new(SharedState {
                core: RwLock::new(broker),
                stripes: std::array::from_fn(|_| Mutex::new(Vec::new())),
                next_stripe: AtomicUsize::new(0),
                contention: AtomicU64::new(0),
                durability,
            }),
        }
    }

    fn note_contention(&self) {
        self.inner.contention.fetch_add(1, Ordering::Relaxed);
        mbp_obs::inc("mbp.core.sharedbroker.contention");
    }

    /// Takes the shared read guard on the core broker, counting a contended
    /// acquisition (maintenance holding the write lock) when the
    /// uncontended `try_read` fails and attributing the blocking wait to
    /// the `lock_wait` trace phase under `kind`'s listing label.
    fn read_core(&self, kind: ModelKind) -> RwLockReadGuard<'_, Broker> {
        match self.inner.core.try_read() {
            Some(g) => g,
            None => {
                self.note_contention();
                let _wait = mbp_obs::phase_for(mbp_obs::Phase::LockWait, kind_label(kind), "-");
                self.inner.core.read()
            }
        }
    }

    /// Picks the next ledger stripe round-robin and locks it, counting a
    /// contended acquisition when the uncontended `try_lock` fails. The
    /// blocking wait on a contended stripe is attributed to the `lock_wait`
    /// trace phase under `label` (the listing being purchased).
    fn lock_next_stripe(
        &self,
        label: &'static str,
    ) -> parking_lot::MutexGuard<'_, Vec<Transaction>> {
        let idx = self.inner.next_stripe.fetch_add(1, Ordering::Relaxed) % LEDGER_STRIPES;
        // LINT-ALLOW(panic): idx < LEDGER_STRIPES by the modulo above.
        let stripe = &self.inner.stripes[idx];
        match stripe.try_lock() {
            Some(g) => g,
            None => {
                self.note_contention();
                let _wait = mbp_obs::phase_for(mbp_obs::Phase::LockWait, label, "-");
                stripe.lock()
            }
        }
    }

    /// Settles `txs` under a *single* acquisition of the next ledger
    /// stripe, forwarding each to the durability sink while the stripe is
    /// held.
    fn settle_in_stripe(&self, kind: ModelKind, txs: impl IntoIterator<Item = Transaction>) {
        let _settle = mbp_obs::phase_for(mbp_obs::Phase::Ledger, kind_label(kind), "-");
        let mut guard = self.lock_next_stripe(kind_label(kind));
        record_sales(self.inner.durability.as_ref(), &mut guard, txs);
    }

    /// Adds a model to the menu (delegates to [`Broker::support`]).
    pub fn support(&self, kind: ModelKind, ridge: f64) -> Result<(), MarketError> {
        self.inner.core.write().support(kind, ridge).map(|_| ())
    }

    /// Publishes a standing offer (delegates to [`Broker::publish`], which
    /// compiles the serving-side pricing table under the write lock).
    pub fn publish(
        &self,
        kind: ModelKind,
        pricing: PricingFunction,
        transform: Box<dyn ErrorTransform + Send + Sync>,
    ) -> Result<(), MarketError> {
        self.inner.core.write().publish(kind, pricing, transform)
    }

    /// Thread-safe batch purchase returning owned sales: an adaptor over
    /// [`SharedBroker::buy_batch_into`] on a fresh arena whose sales are
    /// moved out. Per-request failures are returned inline.
    pub fn buy_batch(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
    ) -> Result<Vec<Result<Sale, MarketError>>, MarketError> {
        let mut arena = SaleArena::for_batch(kind, requests.len());
        self.buy_batch_into(kind, requests, rng, &mut arena)?;
        Ok(arena.into_results())
    }

    /// Zero-allocation thread-safe batch purchase: the network serving
    /// path. The [`Broker::quote_batch_into`] kernel runs into `arena`
    /// under a shared read guard (one listing lookup, no ledger mutation),
    /// then the successful sales settle under a *single* stripe-lock
    /// acquisition, so lock traffic is amortized across the batch. Prices,
    /// noise draws, and RNG consumption are bit-identical to
    /// [`Broker::buy_batch_into`] on an unshared broker; only where the
    /// transactions park differs (a stripe instead of the core ledger), and
    /// [`SharedBroker::with_broker`] reconciles that.
    pub fn buy_batch_into(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
        arena: &mut SaleArena,
    ) -> Result<(), MarketError> {
        self.read_core(kind)
            .quote_batch_into(kind, requests, rng, arena)?;
        self.settle_in_stripe(kind, arena.transactions(kind));
        Ok(())
    }

    /// Zero-allocation thread-safe batched quote-only path (no purchase,
    /// no RNG, no ledger): resolves and prices every request into `arena`
    /// under a shared read guard via [`Broker::price_batch_into`].
    pub fn price_batch_into(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        arena: &mut SaleArena,
    ) -> Result<(), MarketError> {
        self.read_core(kind).price_batch_into(kind, requests, arena)
    }

    /// Thread-safe scan-path purchase; each calling thread supplies its own
    /// RNG.
    ///
    /// The quote (pricing + noise) runs under a shared read guard, so
    /// concurrent buys proceed in parallel; only the final ledger push takes
    /// a stripe lock. Contention (maintenance holding the core write lock
    /// when this purchase arrives, or a racing push on the same stripe) is
    /// counted in `mbp.core.sharedbroker.contention`.
    pub fn buy(
        &self,
        kind: ModelKind,
        request: PurchaseRequest,
        pricing: &PricingFunction,
        transform: &dyn ErrorTransform,
        rng: &mut MbpRng,
    ) -> Result<Sale, MarketError> {
        let (sale, tx) = self
            .read_core(kind)
            .quote(kind, request, pricing, transform, rng)?;
        self.settle_in_stripe(kind, [tx]);
        Ok(sale)
    }

    /// Total revenue collected so far (reconciled ledger plus the
    /// still-striped transactions).
    pub fn total_revenue(&self) -> f64 {
        let core = self.inner.core.read();
        let striped: f64 = self
            .inner
            .stripes
            .iter()
            .map(|s| s.lock().iter().map(|t| t.price).sum::<f64>())
            .sum();
        core.total_revenue() + striped
    }

    /// Number of completed transactions (reconciled plus striped).
    pub fn sales_count(&self) -> usize {
        let core = self.inner.core.read();
        let striped: usize = self.inner.stripes.iter().map(|s| s.lock().len()).sum();
        core.ledger().len() + striped
    }

    /// Number of contended lock acquisitions observed by this broker handle
    /// (mirrors the `mbp.core.sharedbroker.contention` obs counter but is
    /// scoped to this broker, so tests can compare workloads race-free).
    pub fn contention_count(&self) -> u64 {
        self.inner.contention.load(Ordering::Relaxed)
    }

    /// Runs `f` with exclusive access to the underlying broker (for
    /// maintenance operations that need more than one call atomically).
    ///
    /// Striped transactions are drained into the core ledger in stripe
    /// order before `f` runs, so `f` sees a fully reconciled broker.
    ///
    /// The drain completes *before* the write guard is taken: no code path
    /// in this module ever holds a stripe mutex and the core lock at the
    /// same time, so the lock hierarchy is trivially acyclic. A buy whose
    /// quote finishes between the drain and the write acquisition parks its
    /// transaction in a stripe until the next drain — the same visibility a
    /// buy landing right after `f` returns always had.
    pub fn with_broker<T>(&self, f: impl FnOnce(&mut Broker) -> T) -> T {
        let mut drained: Vec<Transaction> = Vec::new();
        for stripe in &self.inner.stripes {
            drained.append(&mut stripe.lock());
        }
        let mut core = self.inner.core.write();
        core.settle(drained.drain(..));
        f(&mut core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SquareLossTransform;
    use mbp_data::synth;
    use mbp_randx::{seeded_rng, SeedStream};
    use std::sync::Barrier;
    use std::thread;

    fn shared_broker(seed: u64) -> SharedBroker {
        let mut rng = seeded_rng(seed);
        let data = synth::simulated1(600, 4, 0.5, &mut rng).split(0.75, &mut rng);
        let sb = SharedBroker::new(Broker::new(data));
        sb.support(ModelKind::LinearRegression, 1e-6).unwrap();
        sb
    }

    fn plain_broker(seed: u64) -> Broker {
        let mut rng = seeded_rng(seed);
        let data = synth::simulated1(600, 4, 0.5, &mut rng).split(0.75, &mut rng);
        let mut b = Broker::new(data);
        b.support(ModelKind::LinearRegression, 1e-6).unwrap();
        b
    }

    fn pricing() -> PricingFunction {
        let g: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let p: Vec<f64> = g.iter().map(|x| 4.0 * x.sqrt()).collect();
        PricingFunction::from_points(g, p).unwrap()
    }

    #[test]
    fn concurrent_purchases_are_all_ledgered() {
        let sb = shared_broker(81);
        let pf = pricing();
        let mut seeds = SeedStream::new(82);
        let threads = 8;
        let per_thread = 50;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let sb = sb.clone();
                let pf = pf.clone();
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    let mut paid = 0.0;
                    for _ in 0..per_thread {
                        let sale = sb
                            .buy(
                                ModelKind::LinearRegression,
                                PurchaseRequest::AtNcp(0.5),
                                &pf,
                                &SquareLossTransform,
                                &mut rng,
                            )
                            .expect("purchase failed");
                        paid += sale.price;
                    }
                    paid
                })
            })
            .collect();
        let total_paid: f64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sb.sales_count(), threads * per_thread);
        assert!((sb.total_revenue() - total_paid).abs() < 1e-6);
    }

    #[test]
    fn concurrent_sales_have_distinct_noise() {
        let sb = shared_broker(83);
        let pf = pricing();
        let mut seeds = SeedStream::new(84);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sb = sb.clone();
                let pf = pf.clone();
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    sb.buy(
                        ModelKind::LinearRegression,
                        PurchaseRequest::AtNcp(1.0),
                        &pf,
                        &SquareLossTransform,
                        &mut rng,
                    )
                    .unwrap()
                    .model
                    .weights()
                    .clone()
                })
            })
            .collect();
        let models: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for i in 0..models.len() {
            for j in (i + 1)..models.len() {
                assert_ne!(models[i], models[j], "two sales shared a noise draw");
            }
        }
    }

    /// Satellite coverage: ≥4 threads buying concurrently; every served
    /// purchase lands in the ledger and revenue equals the sum of the
    /// per-thread receipts. With observability enabled, the buy counter
    /// and contention counter reflect the traffic (asserted with `>=`
    /// because the obs registry is process-global and other tests in this
    /// binary may record concurrently).
    #[test]
    fn four_thread_buys_reconcile_ledger_and_metrics() {
        mbp_obs::enable();
        let sb = shared_broker(91);
        let pf = pricing();
        let mut seeds = SeedStream::new(92);
        let threads = 4;
        let per_thread = 100;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let sb = sb.clone();
                let pf = pf.clone();
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    let mut receipts = Vec::with_capacity(per_thread);
                    for _ in 0..per_thread {
                        let sale = sb
                            .buy(
                                ModelKind::LinearRegression,
                                PurchaseRequest::AtNcp(0.5),
                                &pf,
                                &SquareLossTransform,
                                &mut rng,
                            )
                            .expect("purchase failed");
                        receipts.push(sale.price);
                    }
                    receipts
                })
            })
            .collect();
        let receipts: Vec<f64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(sb.sales_count(), threads * per_thread);
        assert_eq!(receipts.len(), threads * per_thread);
        let total_paid: f64 = receipts.iter().sum();
        assert!((sb.total_revenue() - total_paid).abs() < 1e-6);

        let snap = mbp_obs::snapshot();
        let bought = snap.counter("mbp.core.buy.count").unwrap_or(0);
        assert!(
            bought >= (threads * per_thread) as u64,
            "buy counter {bought} < {}",
            threads * per_thread
        );
        let buy_hist = snap.histogram("mbp.core.buy.seconds").expect("buy span");
        assert!(buy_hist.count >= (threads * per_thread) as u64);
        // Contention is scheduling-dependent; the counter only needs to
        // exist and be readable (zero is legitimate on an unloaded box).
        // obs stays enabled: a sibling test may be recording concurrently.
        let _ = snap.counter("mbp.core.sharedbroker.contention");
    }

    #[test]
    fn contended_mutex_increments_contention_counter() {
        mbp_obs::enable();
        let sb = shared_broker(93);
        let pf = pricing();
        let before = mbp_obs::snapshot()
            .counter("mbp.core.sharedbroker.contention")
            .unwrap_or(0);
        // Hold the core write lock on this thread (maintenance), then issue
        // a buy from another: the try_read fast path must miss and count it.
        let buyer = {
            let sb2 = sb.clone();
            let pf2 = pf.clone();
            sb.with_broker(|_broker| {
                let t = thread::spawn(move || {
                    let mut rng = seeded_rng(94);
                    sb2.buy(
                        ModelKind::LinearRegression,
                        PurchaseRequest::AtNcp(1.0),
                        &pf2,
                        &SquareLossTransform,
                        &mut rng,
                    )
                    .unwrap();
                });
                // Give the buyer thread time to hit the held lock.
                thread::sleep(std::time::Duration::from_millis(50));
                t
            })
        };
        buyer.join().unwrap();
        let after = mbp_obs::snapshot()
            .counter("mbp.core.sharedbroker.contention")
            .unwrap_or(0);
        assert!(after > before, "contention counter did not move");
        assert!(
            sb.contention_count() > 0,
            "handle-local counter did not move"
        );
        assert_eq!(sb.sales_count(), 1);
    }

    /// Concurrent batches land every transaction, match per-call revenue
    /// accounting, and take at most one stripe lock per batch (contention
    /// stays bounded by batch count, not purchase count).
    #[test]
    fn concurrent_buy_batches_are_all_ledgered() {
        let sb = shared_broker(97);
        sb.publish(
            ModelKind::LinearRegression,
            pricing(),
            Box::new(SquareLossTransform),
        )
        .unwrap();
        let mut seeds = SeedStream::new(98);
        let threads = 4;
        let batches_per_thread = 10;
        let batch: Vec<PurchaseRequest> = (1..=20)
            .map(|i| PurchaseRequest::AtNcp(i as f64 * 0.1))
            .collect();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let sb = sb.clone();
                let batch = batch.clone();
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    let mut paid = 0.0;
                    for _ in 0..batches_per_thread {
                        for sale in sb
                            .buy_batch(ModelKind::LinearRegression, &batch, &mut rng)
                            .expect("listing exists")
                        {
                            paid += sale.expect("all requests valid").price;
                        }
                    }
                    paid
                })
            })
            .collect();
        let total_paid: f64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sb.sales_count(), threads * batches_per_thread * batch.len());
        assert!((sb.total_revenue() - total_paid).abs() < 1e-6);
        // Unpublished kinds fail at the batch level.
        let mut rng = seeded_rng(99);
        assert!(matches!(
            sb.buy_batch(ModelKind::LinearSvm, &batch, &mut rng),
            Err(MarketError::UnsupportedModel(_))
        ));
    }

    #[test]
    fn with_broker_gives_atomic_access() {
        let sb = shared_broker(85);
        let (count, revenue) = sb.with_broker(|b| (b.ledger().len(), b.total_revenue()));
        assert_eq!(count, 0);
        assert_eq!(revenue, 0.0);
    }

    #[test]
    fn with_broker_reconciles_striped_transactions() {
        let sb = shared_broker(87);
        let pf = pricing();
        let mut rng = seeded_rng(88);
        let mut paid = Vec::new();
        for _ in 0..(2 * LEDGER_STRIPES + 3) {
            let sale = sb
                .buy(
                    ModelKind::LinearRegression,
                    PurchaseRequest::AtNcp(0.5),
                    &pf,
                    &SquareLossTransform,
                    &mut rng,
                )
                .unwrap();
            paid.push(sale.price);
        }
        // Before reconciliation the counts already include striped state.
        assert_eq!(sb.sales_count(), paid.len());
        let ledger_prices =
            sb.with_broker(|b| b.ledger().iter().map(|t| t.price).collect::<Vec<_>>());
        assert_eq!(ledger_prices.len(), paid.len());
        let mut a = ledger_prices.clone();
        let mut b = paid.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b, "reconciled ledger lost or altered a transaction");
        // After draining, counts and revenue are unchanged (now all in core).
        assert_eq!(sb.sales_count(), paid.len());
        assert!((sb.total_revenue() - paid.iter().sum::<f64>()).abs() < 1e-9);
    }

    /// Satellite: N threads × M buys reconcile to an exact ledger total,
    /// and the striped design records strictly less contention than the
    /// pre-PR single-global-mutex design on the same workload.
    ///
    /// Both runs overlap the buys with a "maintenance" phase that holds the
    /// broker before the buyers start: under one global mutex every buyer's
    /// first attempt is a guaranteed miss (the reference run counts at least
    /// one miss per thread by construction), while under the striped design
    /// the equivalent snapshot reads share the read lock with the quoting
    /// buyers and exclude nobody.
    #[test]
    fn striped_broker_contends_less_than_single_mutex() {
        let threads = 8usize;
        let per_thread = 24usize;
        let pf = pricing();

        // --- Reference: the pre-PR design, one global Mutex<Broker>. ---
        let mutex_contention = {
            let broker = Arc::new(Mutex::new(plain_broker(95)));
            let misses = Arc::new(AtomicU64::new(0));
            let start = Arc::new(Barrier::new(threads + 1));
            // Maintenance holds the only lock until every buyer thread has
            // recorded a miss, so the reference contention is >= threads.
            let guard = broker.lock();
            let mut seeds = SeedStream::new(96);
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let broker = Arc::clone(&broker);
                    let misses = Arc::clone(&misses);
                    let start = Arc::clone(&start);
                    let pf = pf.clone();
                    let seed = seeds.next_seed();
                    thread::spawn(move || {
                        let mut rng = seeded_rng(seed);
                        start.wait();
                        for _ in 0..per_thread {
                            let mut g = match broker.try_lock() {
                                Some(g) => g,
                                None => {
                                    misses.fetch_add(1, Ordering::Relaxed);
                                    broker.lock()
                                }
                            };
                            g.buy(
                                ModelKind::LinearRegression,
                                PurchaseRequest::AtNcp(0.5),
                                &pf,
                                &SquareLossTransform,
                                &mut rng,
                            )
                            .expect("purchase failed");
                        }
                    })
                })
                .collect();
            start.wait();
            while misses.load(Ordering::Relaxed) < threads as u64 {
                thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(guard);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(broker.lock().ledger().len(), threads * per_thread);
            misses.load(Ordering::Relaxed)
        };

        // --- Striped: same workload, maintenance is snapshot reads. ---
        let sb = shared_broker(95);
        let start = Arc::new(Barrier::new(threads + 1));
        let mut seeds = SeedStream::new(96);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let sb = sb.clone();
                let start = Arc::clone(&start);
                let pf = pf.clone();
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    start.wait();
                    let mut paid = 0.0;
                    for _ in 0..per_thread {
                        let sale = sb
                            .buy(
                                ModelKind::LinearRegression,
                                PurchaseRequest::AtNcp(0.5),
                                &pf,
                                &SquareLossTransform,
                                &mut rng,
                            )
                            .expect("purchase failed");
                        paid += sale.price;
                    }
                    paid
                })
            })
            .collect();
        start.wait();
        // Equivalent maintenance: revenue snapshots while the buys run.
        // These take the shared read lock, so they cannot stall a quote.
        for _ in 0..threads {
            let _ = sb.total_revenue();
            thread::sleep(std::time::Duration::from_millis(1));
        }
        let total_paid: f64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sb.sales_count(), threads * per_thread);
        assert!((sb.total_revenue() - total_paid).abs() < 1e-6);
        let striped_contention = sb.contention_count();

        assert!(
            mutex_contention >= threads as u64,
            "reference run should contend at least once per thread, got {mutex_contention}"
        );
        assert!(
            striped_contention < mutex_contention,
            "striped contention {striped_contention} >= single-mutex contention {mutex_contention}"
        );
    }
}
