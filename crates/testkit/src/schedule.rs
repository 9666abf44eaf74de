//! Deterministic schedule exploration for the concurrent broker.
//!
//! [`SharedBroker`] serves quotes under a shared read lock and lands
//! transactions in 8 independently locked ledger stripes; maintenance
//! drains the stripes under the write lock. The linearizability claim is
//! that *any* interleaving of `quote_batch`/`buy_batch`/re-publish/
//! reconcile operations is observationally equivalent to executing the
//! same operations, in linearization order, against a plain
//! single-threaded [`Broker`].
//!
//! This module checks that claim mechanically. A **virtual-time
//! scheduler** derives, from one 64-bit case seed, a set of 2–4 virtual
//! threads with randomized operation programs and an interleaving of
//! their steps; it executes the interleaving against a real
//! [`SharedBroker`] and then replays the identical linearization against
//! a reference [`Broker`] with bit-identical per-thread RNG streams. All
//! observations — sale prices (compared as exact bit patterns), error
//! variants, ledger counts — must match, and the final ledger multisets
//! must be identical. Small cases can also be **enumerated** exhaustively
//! over every interleaving.
//!
//! Seeded fault points pin graceful degradation: a maintenance closure
//! that panics mid-flight (the "poisoned stripe") must not lose settled
//! transactions or wedge later operations, and a reader racing a
//! re-publish must only ever observe one of the published curves, never a
//! torn listing.
//!
//! Any failure reproduces from the printed case seed alone via
//! [`run_case`].

use crate::crash::{append_corpus, load_corpus, CrashHarness, CrashSchedule};
use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, MarketError, PurchaseRequest, Sale};
use mbp_core::pricing::PricingFunction;
use mbp_data::synth;
use mbp_ml::ModelKind;
use mbp_randx::{seeded_rng, MbpRng, SeedStream};
use rand::Rng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Configuration of an exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleConfig {
    /// Master seed; every sampled case derives its own case seed from it.
    pub seed: u64,
    /// Number of sampled interleavings.
    pub interleavings: u64,
    /// Virtual threads per case (clamped to `2..=4`).
    pub threads: usize,
    /// Operations per virtual thread.
    pub ops_per_thread: usize,
    /// Inject seeded fault points (poisoned stripe, mid-publish reader).
    pub faults: bool,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            seed: 0x5c4e_d00d,
            interleavings: 1_000,
            threads: 3,
            ops_per_thread: 5,
            faults: false,
        }
    }
}

/// A linearizability divergence, reproducible from the seed alone.
#[derive(Debug, Clone)]
pub struct ScheduleFailure {
    /// The case seed: `run_case(case_seed, threads, ops_per_thread,
    /// faults)` reproduces the failure with no other state.
    pub case_seed: u64,
    /// Virtual threads in the failing case.
    pub threads: usize,
    /// Operations per thread in the failing case.
    pub ops_per_thread: usize,
    /// Step index at which the observation streams diverged.
    pub step: usize,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule case {} diverged at step {}: {} \
             [replay: mbp_testkit::schedule::run_case({}, {}, {}, faults)]",
            self.case_seed,
            self.step,
            self.detail,
            self.case_seed,
            self.threads,
            self.ops_per_thread
        )
    }
}

/// Outcome of an exploration run.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Interleavings executed.
    pub explored: u64,
    /// Total virtual-time steps executed across all interleavings.
    pub steps: u64,
    /// Divergences found (empty = linearizable over the sampled space).
    pub failures: Vec<ScheduleFailure>,
}

impl ScheduleReport {
    /// `true` when every sampled interleaving linearized.
    pub fn is_linearizable(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One virtual-thread operation.
#[derive(Debug, Clone)]
enum Op {
    /// Batch purchase against the published listing (compiled-table path).
    BuyBatch(Vec<PurchaseRequest>),
    /// Single purchase through the scan path with an explicit curve.
    BuyScan(PurchaseRequest),
    /// Re-publish the listing with curve `A` (0) or `B` (1).
    Republish(usize),
    /// Read `sales_count` / `total_revenue`.
    Snapshot,
    /// Drain the stripes into the core ledger and read its length.
    Reconcile,
    /// Fault point: a maintenance closure that panics mid-flight.
    PoisonStripe,
    /// Fault point: quote against the listing and check the observed
    /// price is exactly one published curve, never a torn mixture.
    ReaderProbe,
}

/// The two standing curves cases re-publish between.
fn curves() -> [PricingFunction; 2] {
    let grid: Vec<f64> = (1..=6).map(|i| i as f64).collect();
    let a: Vec<f64> = grid.iter().map(|x| 5.0 * x.sqrt()).collect();
    let b: Vec<f64> = grid.iter().map(|x| 7.0 * x.sqrt()).collect();
    [
        PricingFunction::from_points(grid.clone(), a).expect("curve A is valid"),
        PricingFunction::from_points(grid, b).expect("curve B is valid"),
    ]
}

fn random_request(rng: &mut MbpRng) -> PurchaseRequest {
    match rng.gen_range(0u32..4) {
        0 | 1 => PurchaseRequest::AtNcp(rng.gen_range(0.25..2.0)),
        2 => PurchaseRequest::ErrorBudget(rng.gen_range(0.5..3.0)),
        // Spans unaffordable (tiny) through saturating (large) budgets, so
        // error parity is exercised too.
        _ => PurchaseRequest::PriceBudget(rng.gen_range(0.0..15.0)),
    }
}

fn random_op(rng: &mut MbpRng, faults: bool) -> Op {
    let hi = if faults { 12 } else { 10 };
    match rng.gen_range(0u32..hi) {
        0..=3 => {
            let n = rng.gen_range(1usize..4);
            Op::BuyBatch((0..n).map(|_| random_request(rng)).collect())
        }
        4..=5 => Op::BuyScan(random_request(rng)),
        6..=7 => Op::Republish(rng.gen_range(0usize..2)),
        8 => Op::Snapshot,
        9 => Op::Reconcile,
        10 => Op::PoisonStripe,
        _ => Op::ReaderProbe,
    }
}

/// One observation in virtual time. Prices compare as exact bit patterns;
/// revenue sums compare within `1e-9` relative (stripe-order vs
/// chronological-order float summation legitimately differs in the last
/// ulps).
#[derive(Debug, Clone, PartialEq)]
enum Obs {
    Price(u64),
    Error(String),
    Count(usize),
    Revenue(f64),
    Text(String),
}

fn obs_eq(a: &Obs, b: &Obs) -> bool {
    match (a, b) {
        (Obs::Revenue(x), Obs::Revenue(y)) => (x - y).abs() <= 1e-9 * y.abs().max(1.0),
        _ => a == b,
    }
}

fn sale_obs(out: &mut Vec<Obs>, r: &Result<Sale, MarketError>) {
    match r {
        Ok(sale) => out.push(Obs::Price(sale.price.to_bits())),
        Err(e) => out.push(Obs::Error(format!("{e:?}"))),
    }
}

/// Builds the broker under test: a small synthetic dataset (quotes are
/// cheap, so tens of thousands of cases stay fast) with linear regression
/// on the menu and curve `A` published.
fn build_broker(data_seed: u64) -> Broker {
    let mut rng = seeded_rng(data_seed);
    let data = synth::simulated1(60, 3, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("linear regression is supported");
    broker
        .publish(
            ModelKind::LinearRegression,
            curves()[0].clone(),
            Box::new(SquareLossTransform),
        )
        .expect("publish succeeds");
    broker
}

/// Executes `programs` against the shared broker in the given
/// interleaving, collecting the observation stream.
fn run_shared(
    programs: &[Vec<Op>],
    order: &[usize],
    rng_seeds: &[u64],
    data_seed: u64,
) -> (Vec<Obs>, Vec<u64>) {
    let kind = ModelKind::LinearRegression;
    let sb = SharedBroker::new(build_broker(data_seed));
    let curves = curves();
    let mut rngs: Vec<MbpRng> = rng_seeds.iter().map(|&s| seeded_rng(s)).collect();
    let mut cursors = vec![0usize; programs.len()];
    let mut current = 0usize;
    let mut obs = Vec::new();
    for &t in order {
        let op = &programs[t][cursors[t]];
        cursors[t] += 1;
        match op {
            Op::BuyBatch(reqs) => {
                let results = sb.buy_batch(kind, reqs, &mut rngs[t]).expect("listed");
                for r in &results {
                    sale_obs(&mut obs, r);
                }
            }
            Op::BuyScan(req) => {
                let r = sb.buy(
                    kind,
                    *req,
                    &curves[current],
                    &SquareLossTransform,
                    &mut rngs[t],
                );
                sale_obs(&mut obs, &r);
            }
            Op::Republish(i) => {
                sb.publish(kind, curves[*i].clone(), Box::new(SquareLossTransform))
                    .expect("publish succeeds");
                current = *i;
                obs.push(Obs::Text(format!("publish {i}")));
            }
            Op::Snapshot => {
                obs.push(Obs::Count(sb.sales_count()));
                obs.push(Obs::Revenue(sb.total_revenue()));
            }
            Op::Reconcile => {
                let n = sb.with_broker(|b| b.ledger().len());
                obs.push(Obs::Count(n));
            }
            Op::PoisonStripe => {
                // A maintenance closure that dies mid-flight. The stripes
                // were already drained; the panic must neither lose those
                // transactions nor wedge the broker (parking_lot locks do
                // not poison).
                let prev = std::panic::take_hook();
                std::panic::set_hook(Box::new(|_| {}));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    sb.with_broker(|_| panic!("injected stripe poison"))
                }));
                std::panic::set_hook(prev);
                obs.push(Obs::Text(format!("poison panicked={}", result.is_err())));
                obs.push(Obs::Count(sb.sales_count()));
            }
            Op::ReaderProbe => {
                // A reader overlapping re-publishes: the quoted price must
                // be the table price of exactly the currently-published
                // curve — a torn listing would price off mixed knots.
                let results = sb
                    .buy_batch(kind, &[PurchaseRequest::AtNcp(1.0)], &mut rngs[t])
                    .expect("listed");
                let price = results[0].as_ref().expect("NCP 1.0 is valid").price;
                let expected = curves[current].price_at(1.0);
                obs.push(Obs::Text(format!(
                    "reader torn={}",
                    price.to_bits() != expected.to_bits()
                )));
                obs.push(Obs::Price(price.to_bits()));
            }
        }
    }
    let ledger: Vec<u64> = sb.with_broker(|b| {
        let mut prices: Vec<u64> = b.ledger().iter().map(|t| t.price.to_bits()).collect();
        prices.sort_unstable();
        prices
    });
    (obs, ledger)
}

/// Executes the identical linearization against a plain single-threaded
/// broker with bit-identical RNG streams — the reference history.
fn run_reference(
    programs: &[Vec<Op>],
    order: &[usize],
    rng_seeds: &[u64],
    data_seed: u64,
) -> (Vec<Obs>, Vec<u64>) {
    let kind = ModelKind::LinearRegression;
    let mut broker = build_broker(data_seed);
    let curves = curves();
    let mut rngs: Vec<MbpRng> = rng_seeds.iter().map(|&s| seeded_rng(s)).collect();
    let mut cursors = vec![0usize; programs.len()];
    let mut current = 0usize;
    let mut obs = Vec::new();
    for &t in order {
        let op = &programs[t][cursors[t]];
        cursors[t] += 1;
        match op {
            Op::BuyBatch(reqs) => {
                let results = broker.buy_batch(kind, reqs, &mut rngs[t]).expect("listed");
                for r in &results {
                    sale_obs(&mut obs, r);
                }
            }
            Op::BuyScan(req) => {
                let r = broker.buy(
                    kind,
                    *req,
                    &curves[current],
                    &SquareLossTransform,
                    &mut rngs[t],
                );
                sale_obs(&mut obs, &r);
            }
            Op::Republish(i) => {
                broker
                    .publish(kind, curves[*i].clone(), Box::new(SquareLossTransform))
                    .expect("publish succeeds");
                current = *i;
                obs.push(Obs::Text(format!("publish {i}")));
            }
            Op::Snapshot => {
                obs.push(Obs::Count(broker.ledger().len()));
                obs.push(Obs::Revenue(broker.total_revenue()));
            }
            Op::Reconcile => {
                obs.push(Obs::Count(broker.ledger().len()));
            }
            Op::PoisonStripe => {
                // The reference broker has no maintenance to fault; the
                // observable contract is only "nothing lost, not wedged".
                obs.push(Obs::Text("poison panicked=true".to_string()));
                obs.push(Obs::Count(broker.ledger().len()));
            }
            Op::ReaderProbe => {
                let results = broker
                    .buy_batch(kind, &[PurchaseRequest::AtNcp(1.0)], &mut rngs[t])
                    .expect("listed");
                let price = results[0].as_ref().expect("NCP 1.0 is valid").price;
                obs.push(Obs::Text("reader torn=false".to_string()));
                obs.push(Obs::Price(price.to_bits()));
            }
        }
    }
    let mut ledger: Vec<u64> = broker.ledger().iter().map(|t| t.price.to_bits()).collect();
    ledger.sort_unstable();
    (obs, ledger)
}

/// Derives programs, RNG seeds, and (optionally) a sampled interleaving
/// from one case seed; `forced_order` overrides the interleaving for
/// exhaustive enumeration.
fn case_inputs(
    case_seed: u64,
    threads: usize,
    ops_per_thread: usize,
    faults: bool,
    forced_order: Option<&[usize]>,
) -> (Vec<Vec<Op>>, Vec<u64>, Vec<usize>, u64) {
    let threads = threads.clamp(2, 4);
    let mut seeds = SeedStream::new(case_seed);
    let data_seed = seeds.next_seed();
    let mut program_rng = seeds.next_rng();
    let mut interleave_rng = seeds.next_rng();
    let rng_seeds: Vec<u64> = (0..threads).map(|_| seeds.next_seed()).collect();
    let programs: Vec<Vec<Op>> = (0..threads)
        .map(|_| {
            (0..ops_per_thread)
                .map(|_| random_op(&mut program_rng, faults))
                .collect()
        })
        .collect();
    let order = match forced_order {
        Some(o) => o.to_vec(),
        None => {
            let mut remaining: Vec<usize> = vec![ops_per_thread; threads];
            let mut order = Vec::with_capacity(threads * ops_per_thread);
            while remaining.iter().any(|&r| r > 0) {
                let live: Vec<usize> = (0..threads).filter(|&t| remaining[t] > 0).collect();
                let t = live[interleave_rng.gen_range(0..live.len())];
                remaining[t] -= 1;
                order.push(t);
            }
            order
        }
    };
    (programs, rng_seeds, order, data_seed)
}

fn check_case(
    case_seed: u64,
    threads: usize,
    ops_per_thread: usize,
    faults: bool,
    forced_order: Option<&[usize]>,
) -> Result<usize, ScheduleFailure> {
    let (programs, rng_seeds, order, data_seed) =
        case_inputs(case_seed, threads, ops_per_thread, faults, forced_order);
    let (shared_obs, shared_ledger) = run_shared(&programs, &order, &rng_seeds, data_seed);
    let (ref_obs, ref_ledger) = run_reference(&programs, &order, &rng_seeds, data_seed);
    let fail = |step: usize, detail: String| ScheduleFailure {
        case_seed,
        threads: threads.clamp(2, 4),
        ops_per_thread,
        step,
        detail,
    };
    if shared_obs.len() != ref_obs.len() {
        return Err(fail(
            shared_obs.len().min(ref_obs.len()),
            format!(
                "observation streams differ in length: shared {} vs reference {}",
                shared_obs.len(),
                ref_obs.len()
            ),
        ));
    }
    for (i, (s, r)) in shared_obs.iter().zip(&ref_obs).enumerate() {
        if !obs_eq(s, r) {
            return Err(fail(i, format!("shared observed {s:?}, reference {r:?}")));
        }
    }
    if shared_ledger != ref_ledger {
        return Err(fail(
            shared_obs.len(),
            format!(
                "final ledger multisets differ: shared {} txs vs reference {} txs",
                shared_ledger.len(),
                ref_ledger.len()
            ),
        ));
    }
    Ok(order.len())
}

/// Runs one schedule case from its seed alone and checks linearizability
/// against the reference broker. This is the replay entry point printed
/// in every [`ScheduleFailure`].
pub fn run_case(
    case_seed: u64,
    threads: usize,
    ops_per_thread: usize,
    faults: bool,
) -> Result<usize, ScheduleFailure> {
    check_case(case_seed, threads, ops_per_thread, faults, None)
}

/// Samples `cfg.interleavings` cases (each with its own derived seed,
/// thread programs, and interleaving) and checks every one. Thread count
/// cycles through `2..=cfg.threads` so every width is exercised.
pub fn explore(cfg: &ScheduleConfig) -> ScheduleReport {
    let _span = mbp_obs::span("mbp.testkit.schedule");
    let mut seeds = SeedStream::new(cfg.seed);
    let mut report = ScheduleReport {
        explored: 0,
        steps: 0,
        failures: Vec::new(),
    };
    let max_threads = cfg.threads.clamp(2, 4);
    for i in 0..cfg.interleavings {
        let case_seed = seeds.next_seed();
        let threads = 2 + (i as usize % (max_threads - 1));
        report.explored += 1;
        match run_case(case_seed, threads, cfg.ops_per_thread, cfg.faults) {
            Ok(steps) => report.steps += steps as u64,
            Err(f) => {
                report.failures.push(f);
                if report.failures.len() >= 5 {
                    break;
                }
            }
        }
    }
    mbp_obs::counter_add("mbp.testkit.schedule.cases", report.explored);
    report
}

/// Exhaustively enumerates *every* interleaving of one case's programs
/// (2 threads recommended; the count is the binomial coefficient) and
/// checks each. Complements [`explore`]'s sampling on small cases.
pub fn enumerate_case(
    case_seed: u64,
    threads: usize,
    ops_per_thread: usize,
    faults: bool,
) -> ScheduleReport {
    let threads = threads.clamp(2, 4);
    let mut report = ScheduleReport {
        explored: 0,
        steps: 0,
        failures: Vec::new(),
    };
    let mut order = Vec::with_capacity(threads * ops_per_thread);
    let mut remaining = vec![ops_per_thread; threads];
    enumerate_orders(
        case_seed,
        threads,
        ops_per_thread,
        faults,
        &mut order,
        &mut remaining,
        &mut report,
    );
    report
}

fn enumerate_orders(
    case_seed: u64,
    threads: usize,
    ops_per_thread: usize,
    faults: bool,
    order: &mut Vec<usize>,
    remaining: &mut Vec<usize>,
    report: &mut ScheduleReport,
) {
    if report.failures.len() >= 5 {
        return;
    }
    if remaining.iter().all(|&r| r == 0) {
        report.explored += 1;
        match check_case(case_seed, threads, ops_per_thread, faults, Some(order)) {
            Ok(steps) => report.steps += steps as u64,
            Err(f) => report.failures.push(f),
        }
        return;
    }
    for t in 0..threads {
        if remaining[t] == 0 {
            continue;
        }
        remaining[t] -= 1;
        order.push(t);
        enumerate_orders(
            case_seed,
            threads,
            ops_per_thread,
            faults,
            order,
            remaining,
            report,
        );
        order.pop();
        remaining[t] += 1;
    }
}

/// `true` when `sub` is a sub-multiset of `sup` (both are consumed as
/// scratch space).
fn is_sub_multiset(sub: &mut [(u64, u64)], sup: &mut [(u64, u64)]) -> bool {
    sub.sort_unstable();
    sup.sort_unstable();
    let mut i = 0;
    for s in sup.iter() {
        if i < sub.len() && sub[i] == *s {
            i += 1;
        }
    }
    i == sub.len()
}

/// Runs one concurrent **crash-fault** case: `threads` real buyer threads
/// hammer a [`SharedBroker`] wired to the harness's durability sink while
/// a killer thread crashes the log writer mid-group-commit at a seeded
/// point in the op stream. Durability may lose the buffered, un-synced
/// tail — but it must never invent, duplicate, or corrupt a sale, so the
/// recovered `(ncp, price)` bit-pattern multiset must be a sub-multiset
/// of the in-memory ledger.
///
/// Unlike [`run_case`], real threads race here, so the kill lands at a
/// nondeterministic instant; the checked property holds for *every*
/// landing point, and the seed still pins the op stream, the data, and
/// the scheduled kill trigger.
pub fn run_crash_case(
    case_seed: u64,
    threads: usize,
    ops_per_thread: usize,
    harness: &CrashHarness,
) -> Result<usize, ScheduleFailure> {
    let threads = threads.clamp(2, 4);
    let mut seeds = SeedStream::new(case_seed);
    let data_seed = seeds.next_seed();
    let total_ops = threads * ops_per_thread.max(1);
    let kill_after = 1 + (seeds.next_seed() as usize % total_ops);
    let rng_seeds: Vec<u64> = (0..threads).map(|_| seeds.next_seed()).collect();
    let case = (harness)(case_seed);
    let sb = SharedBroker::with_durability(build_broker(data_seed), Arc::clone(&case.sink));
    let progress = Arc::new(AtomicU64::new(0));

    let killer = {
        let progress = Arc::clone(&progress);
        let kill = Arc::clone(&case.kill);
        thread::spawn(move || {
            while progress.load(Ordering::Acquire) < kill_after as u64 {
                thread::yield_now();
            }
            kill();
        })
    };
    let buyers: Vec<_> = rng_seeds
        .iter()
        .map(|&rng_seed| {
            let sb = sb.clone();
            let progress = Arc::clone(&progress);
            let ops = ops_per_thread.max(1);
            thread::spawn(move || {
                let mut rng = seeded_rng(rng_seed);
                for _ in 0..ops {
                    let ncp = rng.gen_range(0.5..1.8);
                    let _ = sb.buy_batch(
                        ModelKind::LinearRegression,
                        &[PurchaseRequest::AtNcp(ncp)],
                        &mut rng,
                    );
                    progress.fetch_add(1, Ordering::Release);
                }
            })
        })
        .collect();
    for b in buyers {
        let _ = b.join();
    }
    let _ = killer.join(); // kill_after <= total_ops, so it always fires

    let mut recovered = (case.recovered_sales)();
    let mut in_mem: Vec<(u64, u64)> = sb.with_broker(|b| {
        b.ledger()
            .iter()
            .map(|t| (t.ncp.to_bits(), t.price.to_bits()))
            .collect()
    });
    let (rec_n, mem_n) = (recovered.len(), in_mem.len());
    if !is_sub_multiset(&mut recovered, &mut in_mem) {
        return Err(ScheduleFailure {
            case_seed,
            threads,
            ops_per_thread,
            step: rec_n,
            detail: format!(
                "recovered ledger is NOT a sub-multiset of the in-memory ledger \
                 ({rec_n} recovered vs {mem_n} in memory) \
                 [replay: mbp_testkit::schedule::run_crash_case({case_seed}, \
                 {threads}, {ops_per_thread}, harness)]"
            ),
        });
    }
    Ok(total_ops)
}

/// Samples `cfg.interleavings` concurrent crash cases through `harness`
/// (see [`run_crash_case`]). When `corpus` is given, persisted
/// `sched <seed>` schedules replay first and newly failing seeds are
/// appended — the same regression discipline as
/// [`crate::crash::explore_crashes`].
pub fn explore_crash(
    cfg: &ScheduleConfig,
    harness: &CrashHarness,
    corpus: Option<&Path>,
) -> ScheduleReport {
    let _span = mbp_obs::span("mbp.testkit.schedule.crash");
    let mut report = ScheduleReport {
        explored: 0,
        steps: 0,
        failures: Vec::new(),
    };
    let max_threads = cfg.threads.clamp(2, 4);
    if let Some(path) = corpus {
        for schedule in load_corpus(path).unwrap_or_default() {
            let CrashSchedule::Concurrent(seed) = schedule else {
                continue; // byte-level schedules need a geometry, not a harness
            };
            report.explored += 1;
            match run_crash_case(seed, max_threads, cfg.ops_per_thread, harness) {
                Ok(steps) => report.steps += steps as u64,
                Err(f) => report.failures.push(f),
            }
        }
    }
    let mut seeds = SeedStream::new(cfg.seed);
    for i in 0..cfg.interleavings {
        let case_seed = seeds.next_seed();
        let threads = 2 + (i as usize % (max_threads - 1).max(1));
        report.explored += 1;
        match run_crash_case(case_seed, threads, cfg.ops_per_thread, harness) {
            Ok(steps) => report.steps += steps as u64,
            Err(f) => {
                report.failures.push(f);
                if report.failures.len() >= 5 {
                    break;
                }
            }
        }
    }
    if let Some(path) = corpus {
        if !report.failures.is_empty() {
            let new: Vec<CrashSchedule> = report
                .failures
                .iter()
                .map(|f| CrashSchedule::Concurrent(f.case_seed))
                .collect();
            let _ = append_corpus(path, &new);
        }
    }
    mbp_obs::counter_add("mbp.testkit.schedule.crash.cases", report.explored);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread;

    #[test]
    fn sampled_interleavings_linearize() {
        let report = explore(&ScheduleConfig {
            seed: 11,
            interleavings: 300,
            threads: 4,
            ops_per_thread: 4,
            faults: false,
        });
        assert!(
            report.is_linearizable(),
            "{}",
            report.failures.first().expect("failure present")
        );
        assert_eq!(report.explored, 300);
        assert!(report.steps >= 300 * 2 * 4);
    }

    #[test]
    fn fault_injected_interleavings_still_linearize() {
        let report = explore(&ScheduleConfig {
            seed: 13,
            interleavings: 120,
            threads: 3,
            ops_per_thread: 5,
            faults: true,
        });
        assert!(
            report.is_linearizable(),
            "{}",
            report.failures.first().expect("failure present")
        );
    }

    #[test]
    fn exhaustive_enumeration_of_a_small_case() {
        // 2 threads x 3 ops: C(6, 3) = 20 interleavings, all checked.
        let report = enumerate_case(4242, 2, 3, false);
        assert_eq!(report.explored, 20);
        assert!(
            report.is_linearizable(),
            "{}",
            report.failures.first().expect("failure present")
        );
    }

    #[test]
    fn cases_replay_identically_from_their_seed() {
        let a = run_case(77, 3, 4, true);
        let b = run_case(77, 3, 4, true);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(x.detail, y.detail),
            (x, y) => panic!("replay diverged: {x:?} vs {y:?}"),
        }
    }

    /// An in-memory stand-in for a WAL sink with group-commit semantics:
    /// sales buffer locally and only "reach disk" every `group` records;
    /// `kill` drops the buffered tail and goes dead. This is the
    /// loss-model contract `run_crash_case` checks — the real WAL plugs
    /// in through the same harness from its own test suite.
    #[derive(Default)]
    struct FakeWalState {
        committed: Vec<(u64, u64)>,
        buffer: Vec<(u64, u64)>,
        dead: bool,
    }

    struct FakeWalSink {
        group: usize,
        state: std::sync::Mutex<FakeWalState>,
    }

    impl FakeWalSink {
        fn kill(&self) {
            let mut s = self.state.lock().unwrap();
            s.buffer.clear();
            s.dead = true;
        }

        fn committed(&self) -> Vec<(u64, u64)> {
            self.state.lock().unwrap().committed.clone()
        }
    }

    impl mbp_core::market::DurabilitySink for FakeWalSink {
        fn record_sale(&self, tx: &mbp_core::market::Transaction) {
            let mut s = self.state.lock().unwrap();
            if s.dead {
                return; // dead writer: appends fail silently, like a counted io error
            }
            s.buffer.push((tx.ncp.to_bits(), tx.price.to_bits()));
            if s.buffer.len() >= self.group {
                let buffered = std::mem::take(&mut s.buffer);
                s.committed.extend(buffered);
            }
        }
        fn record_support(&self, _: ModelKind, _: f64) {}
        fn record_publish(&self, _: ModelKind, _: &[f64], _: &[f64]) {}
        fn record_epoch(&self, _: u64) {}
        fn record_rng_cursor(&self, _: u64, _: u64) {}
    }

    #[test]
    fn concurrent_crash_cases_recover_a_sub_multiset() {
        let harness: CrashHarness = Arc::new(|_case_seed: u64| {
            let sink = Arc::new(FakeWalSink {
                group: 4,
                state: std::sync::Mutex::default(),
            });
            crate::crash::CrashCase {
                sink: sink.clone(),
                kill: {
                    let sink = sink.clone();
                    Arc::new(move || sink.kill())
                },
                recovered_sales: Arc::new(move || sink.committed()),
            }
        });
        let report = explore_crash(
            &ScheduleConfig {
                seed: 17,
                interleavings: 25,
                threads: 4,
                ops_per_thread: 6,
                faults: true,
            },
            &harness,
            None,
        );
        assert_eq!(report.explored, 25);
        assert!(
            report.failures.is_empty(),
            "{}",
            report.failures.first().expect("failure present")
        );
    }

    #[test]
    fn a_sink_that_invents_sales_fails_the_crash_explorer() {
        // Sabotage: the "recovery" returns one sale that never happened.
        let harness: CrashHarness = Arc::new(|_case_seed: u64| {
            let sink = Arc::new(FakeWalSink {
                group: 4,
                state: std::sync::Mutex::default(),
            });
            crate::crash::CrashCase {
                sink: sink.clone(),
                kill: {
                    let sink = sink.clone();
                    Arc::new(move || sink.kill())
                },
                recovered_sales: Arc::new(move || {
                    let mut sales = sink.committed();
                    sales.push((0xbad0_bad0, 0xbad0_bad0)); // phantom sale
                    sales
                }),
            }
        });
        let report = explore_crash(
            &ScheduleConfig {
                seed: 18,
                interleavings: 3,
                threads: 2,
                ops_per_thread: 4,
                faults: true,
            },
            &harness,
            None,
        );
        assert!(!report.failures.is_empty());
    }

    /// Real-thread companion to the virtual-time `ReaderProbe`: a reader
    /// hammers the listing while the main thread re-publishes; every
    /// observed quote must be the exact table price of curve A or curve B
    /// at the probed point — a torn listing would price off mixed state.
    /// A start barrier holds the re-publishes until the reader is quoting,
    /// and they go on until it has quoted under both curves, so the check
    /// never passes on an empty or one-curve sample.
    #[test]
    fn real_mid_publish_reader_never_sees_a_torn_listing() {
        let sb = SharedBroker::new(build_broker(2024));
        let [a, b] = curves();
        let (pa, pb) = (a.price_at(1.0), b.price_at(1.0));
        let stop = Arc::new(AtomicBool::new(false));
        let saw_b = Arc::new(AtomicBool::new(false));
        let started = Arc::new(Barrier::new(2));
        let reader = {
            let sb = sb.clone();
            let (stop, saw_b, started) =
                (Arc::clone(&stop), Arc::clone(&saw_b), Arc::clone(&started));
            thread::spawn(move || {
                let mut rng = seeded_rng(31);
                let mut seen = Vec::new();
                loop {
                    let r = sb
                        .buy_batch(
                            ModelKind::LinearRegression,
                            &[PurchaseRequest::AtNcp(1.0)],
                            &mut rng,
                        )
                        .expect("listed");
                    let price = r[0].as_ref().expect("valid NCP").price;
                    if price.to_bits() == pb.to_bits() {
                        saw_b.store(true, Ordering::Relaxed);
                    }
                    seen.push(price);
                    if seen.len() == 1 {
                        started.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                seen
            })
        };
        started.wait();
        // At least 200 re-publishes, then on until the reader has quoted
        // under curve B; the cap only bounds a reader starved of CPU.
        for i in 0..1_000_000 {
            if i >= 200 && saw_b.load(Ordering::Relaxed) {
                break;
            }
            let curve = if i % 2 == 0 { b.clone() } else { a.clone() };
            sb.publish(
                ModelKind::LinearRegression,
                curve,
                Box::new(SquareLossTransform),
            )
            .expect("publish succeeds");
        }
        stop.store(true, Ordering::Relaxed);
        let seen = reader.join().expect("reader thread");
        assert!(
            seen.iter().any(|p| p.to_bits() == pa.to_bits()),
            "no quote under curve A"
        );
        assert!(
            seen.iter().any(|p| p.to_bits() == pb.to_bits()),
            "no quote under curve B"
        );
        for price in seen {
            assert!(
                price.to_bits() == pa.to_bits() || price.to_bits() == pb.to_bits(),
                "torn quote {price}, expected {pa} or {pb}"
            );
        }
    }
}
