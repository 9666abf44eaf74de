//! Allocation discipline with observability enabled, tracing off and
//! verbosity at `Info`: the configuration `mbp-market serve` and the
//! repository benchmark run in.
//!
//! After one warm-up, which resolves every metric name into this thread's
//! handle caches and sizes the reused buffers, the serve path's
//! steady state must perform **zero heap allocations**: quote batches
//! (`SharedBroker::price_batch_into`), buy batches
//! (`SharedBroker::buy_batch_into`), and the recording calls themselves
//! (`span`, `inc`, `counter_add`, `observe`, gauges). A span below
//! `Trace` verbosity builds no event, and a cached handle needs no
//! registry lookup.
//!
//! This is its own binary because the enabled flag is process-global and
//! `alloc_discipline.rs` asserts it is off. Nothing here calls
//! `mbp_obs::reset`, which would invalidate the warmed handle caches of
//! sibling tests.

mod support;

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, PurchaseRequest, SaleArena};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use std::hint::black_box;
use support::measure_heap;

const KIND: ModelKind = ModelKind::LinearRegression;
const BATCH: usize = 32;
const BATCHES: usize = 16;

fn arm_obs() {
    mbp_obs::enable();
    mbp_obs::set_tracing(false);
    mbp_obs::set_verbosity(mbp_obs::Verbosity::Info);
}

fn listed_shared_broker(seed: u64) -> SharedBroker {
    let mut rng = seeded_rng(seed);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker.support(KIND, 1e-6).expect("training failed");
    let grid: Vec<f64> = (1..=512).map(|i| i as f64 * 0.5).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 8.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).expect("arbitrage-free");
    broker
        .publish(KIND, pricing, Box::new(SquareLossTransform))
        .expect("listing accepted");
    SharedBroker::new(broker)
}

/// Batches mixing all three request kinds, all satisfiable. Built before
/// any measured window: the discipline under test is the broker's batch
/// path, not the caller's argument marshalling.
fn batches() -> Vec<Vec<PurchaseRequest>> {
    let request = |i: usize| match i % 3 {
        0 => PurchaseRequest::AtNcp(0.1 + (i % 29) as f64 * 0.05),
        1 => PurchaseRequest::ErrorBudget(0.5 + (i % 17) as f64 * 0.1),
        _ => PurchaseRequest::PriceBudget(5.0 + (i % 40) as f64),
    };
    (0..BATCHES)
        .map(|b| (0..BATCH).map(|i| request(b * BATCH + i)).collect())
        .collect()
}

#[test]
fn steady_state_quote_batches_do_not_allocate_with_obs_enabled() {
    arm_obs();
    let shared = listed_shared_broker(0x0B5A);
    let batches = batches();
    let mut arena = SaleArena::new();
    for b in &batches {
        shared
            .price_batch_into(KIND, b, &mut arena)
            .expect("warm-up batch failed");
    }

    let heap = measure_heap(|| {
        for b in &batches {
            shared
                .price_batch_into(KIND, b, &mut arena)
                .expect("steady-state quote batch failed");
        }
    });
    assert_eq!(
        heap.allocations, 0,
        "{BATCHES} quote batches of {BATCH} with obs enabled performed {} heap allocations \
         ({} bytes at peak)",
        heap.allocations, heap.peak_bytes
    );
    assert_eq!(arena.quotes().count(), BATCH);
    assert!(arena.quotes().all(|q| q.is_ok_and(|q| q.price > 0.0)));
    let snap = mbp_obs::snapshot();
    assert!(snap.counter("mbp.core.pricing.table_hit") >= Some((2 * BATCHES * BATCH) as u64));
    assert!(snap.histogram("mbp.core.price_batch.seconds").is_some());
}

#[test]
fn steady_state_buy_batches_do_not_allocate_with_obs_enabled() {
    arm_obs();
    let shared = listed_shared_broker(0x0B5B);
    let batches = batches();
    let mut rng = seeded_rng(0x5e13);
    let mut arena = SaleArena::new();
    // The warm-up grows the arena's Sale slots and, batch by batch, each
    // round-robin ledger stripe; draining the stripes into the core ledger
    // keeps their capacity, and the core ledger is reserved.
    for b in &batches {
        shared
            .buy_batch_into(KIND, b, &mut rng, &mut arena)
            .expect("warm-up batch failed");
    }
    shared.with_broker(|broker| broker.reserve_ledger(BATCHES * BATCH));

    let heap = measure_heap(|| {
        for b in &batches {
            shared
                .buy_batch_into(KIND, b, &mut rng, &mut arena)
                .expect("steady-state buy batch failed");
        }
    });
    assert_eq!(
        heap.allocations, 0,
        "{BATCHES} buy batches of {BATCH} with obs enabled performed {} heap allocations \
         ({} bytes at peak)",
        heap.allocations, heap.peak_bytes
    );
    assert!(arena.results().all(|r| r.is_ok()));
    assert_eq!(shared.sales_count(), 2 * BATCHES * BATCH);
    let snap = mbp_obs::snapshot();
    assert!(snap.counter("mbp.core.buy.count") >= Some((2 * BATCHES * BATCH) as u64));
}

#[test]
fn recording_calls_do_not_allocate_with_obs_enabled() {
    arm_obs();
    let record = |i: u64| {
        let _outer = mbp_obs::span("mbp.test.alloc.outer");
        let _inner = mbp_obs::span("mbp.test.alloc.inner");
        mbp_obs::inc("mbp.test.alloc.count");
        mbp_obs::counter_add("mbp.test.alloc.bytes", black_box(i));
        mbp_obs::observe("mbp.test.alloc.size", black_box(i as f64));
        mbp_obs::gauge_set("mbp.test.alloc.level", black_box(i as f64));
        mbp_obs::gauge_add("mbp.test.alloc.total", 1.0);
    };
    // Warm up through the measured code itself: a name literal inlined
    // into several functions can sit at several addresses, each of which
    // resolves once into the handle cache.
    const CALLS: u64 = 1000;
    let rounds = || (0..CALLS).for_each(record);
    measure_heap(rounds);
    let heap = measure_heap(rounds);
    assert_eq!(
        heap.allocations, 0,
        "{CALLS} rounds of span/inc/counter_add/observe/gauge calls performed {} heap \
         allocations ({} bytes at peak)",
        heap.allocations, heap.peak_bytes
    );
    let snap = mbp_obs::snapshot();
    assert_eq!(snap.counter("mbp.test.alloc.count"), Some(2 * CALLS));
    let outer = snap
        .histogram("mbp.test.alloc.outer.seconds")
        .expect("span histogram");
    assert_eq!(outer.count, 2 * CALLS);
}
