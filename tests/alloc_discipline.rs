//! Allocation discipline for the quote-serving fast path and the
//! Theorem 10 DP.
//!
//! The steady-state buy path — `Broker::buy_listed_into` with a reused
//! [`Sale`] buffer, a pre-reserved ledger, and observability disabled —
//! must perform **zero heap allocations** per purchase: the compiled
//! pricing table answers price/NCP resolution by lookup, the mechanism
//! perturbs into the caller's buffer, and the ledger entry is plain `Copy`
//! data pushed into reserved capacity.
//!
//! Batch pricing (`PricingTable::price_at_batch`) must allocate nothing
//! into a warm output buffer, even with a fresh `BatchScratch` on every
//! call, as the quote path passes it.
//!
//! The Theorem 10 DP must run in linear memory: two rolling rows of values
//! plus one take/skip bit per cell, a fixed number of allocations whatever
//! the number of points.
//!
//! The counting allocator in `support/mod.rs` verifies this directly. CI
//! runs this test in the `MBP_THREADS=1` job. Observability stays disabled
//! in this binary; `alloc_obs_enabled.rs` holds the obs-enabled checks,
//! since the enabled flag is process-global.

mod support;

use mbp_core::error::SquareLossTransform;
use mbp_core::market::curves::{buyer_points, grid, DemandCurve, DemandShape};
use mbp_core::market::curves::{ValueCurve, ValueShape};
use mbp_core::market::{Broker, PurchaseRequest, Sale};
use mbp_core::pricing::{BatchScratch, PricingFunction};
use mbp_core::revenue::solve_bv_dp;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use std::hint::black_box;
use support::measure_heap;

#[test]
fn steady_state_buy_path_does_not_allocate() {
    // Observability stays disabled in this binary (the enabled path is
    // checked in `alloc_obs_enabled.rs`). The registry is inert by
    // default; this is just a guard against future test-harness changes.
    assert!(
        !mbp_obs::is_enabled(),
        "obs registry must be disabled for the allocation test"
    );

    let mut rng = seeded_rng(0xA110C);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed");
    let grid: Vec<f64> = (1..=64).map(|i| i as f64 * 0.5).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 8.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).expect("arbitrage-free");
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .expect("listing accepted");

    // All three request kinds, all satisfiable, cycled deterministically.
    let request = |i: usize| match i % 3 {
        0 => PurchaseRequest::AtNcp(0.1 + (i % 29) as f64 * 0.05),
        1 => PurchaseRequest::ErrorBudget(0.5 + (i % 17) as f64 * 0.1),
        _ => PurchaseRequest::PriceBudget(5.0 + (i % 40) as f64),
    };

    const WARMUP: usize = 8;
    const MEASURED: usize = 256;

    // Pre-size everything the steady state reuses: the ledger and the
    // Sale's model buffer (filled by the warm-up buys).
    broker.reserve_ledger(WARMUP + MEASURED);
    let mut rng = seeded_rng(0x5e11);
    let mut sale = Sale {
        model: broker
            .optimal_model(ModelKind::LinearRegression)
            .expect("supported")
            .clone(),
        price: 0.0,
        ncp: 0.0,
        expected_error: 0.0,
    };
    for i in 0..WARMUP {
        broker
            .buy_listed_into(ModelKind::LinearRegression, request(i), &mut rng, &mut sale)
            .expect("warm-up buy failed");
    }

    let allocations = measure_heap(|| {
        for i in WARMUP..WARMUP + MEASURED {
            broker
                .buy_listed_into(ModelKind::LinearRegression, request(i), &mut rng, &mut sale)
                .expect("steady-state buy failed");
        }
    })
    .allocations;
    assert_eq!(
        allocations, 0,
        "steady-state buy_listed_into performed {allocations} heap allocations over {MEASURED} buys"
    );

    // Sanity: the buys really happened and produced sane quotes.
    assert_eq!(broker.ledger().len(), WARMUP + MEASURED);
    assert!(sale.price > 0.0 && sale.ncp > 0.0);
    assert!(broker.total_revenue() > 0.0);
}

#[test]
fn steady_state_batch_path_does_not_allocate() {
    assert!(
        !mbp_obs::is_enabled(),
        "obs registry must be disabled for the allocation test"
    );

    let mut rng = seeded_rng(0xBA7C4);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed");
    let grid: Vec<f64> = (1..=64).map(|i| i as f64 * 0.5).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 8.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).expect("arbitrage-free");
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .expect("listing accepted");

    // Batches mix all three request kinds and sweep many knot segments.
    const BATCH: usize = 32;
    let request = |i: usize| match i % 3 {
        0 => PurchaseRequest::AtNcp(0.1 + (i % 29) as f64 * 0.05),
        1 => PurchaseRequest::ErrorBudget(0.5 + (i % 17) as f64 * 0.1),
        _ => PurchaseRequest::PriceBudget(5.0 + (i % 40) as f64),
    };
    let batch =
        |b: usize| -> Vec<PurchaseRequest> { (0..BATCH).map(|i| request(b * BATCH + i)).collect() };

    const WARMUP: usize = 4;
    const MEASURED: usize = 16;

    // Pre-size the reused state: ledger capacity for every settlement, and
    // the arena's Sale slots / scratch via the warm-up batches. Request
    // buffers are built outside the measured window — the discipline under
    // test is the broker's batch path, not the caller's argument marshalling.
    broker.reserve_ledger((WARMUP + MEASURED) * BATCH);
    let batches: Vec<Vec<PurchaseRequest>> = (0..WARMUP + MEASURED).map(batch).collect();
    let mut rng = seeded_rng(0x5e12);
    let mut arena = mbp_core::market::SaleArena::new();
    for b in batches.iter().take(WARMUP) {
        broker
            .buy_batch_into(ModelKind::LinearRegression, b, &mut rng, &mut arena)
            .expect("warm-up batch failed");
    }

    let allocations = measure_heap(|| {
        for b in batches.iter().skip(WARMUP) {
            broker
                .buy_batch_into(ModelKind::LinearRegression, b, &mut rng, &mut arena)
                .expect("steady-state batch failed");
        }
    })
    .allocations;
    assert_eq!(
        allocations, 0,
        "steady-state buy_batch_into performed {allocations} heap allocations over {MEASURED} batches of {BATCH}"
    );

    // Sanity: the batches really ran and sold.
    assert_eq!(arena.len(), BATCH);
    assert!(arena.results().all(|r| r.is_ok()));
    assert_eq!(broker.ledger().len(), (WARMUP + MEASURED) * BATCH);
    assert!(broker.total_revenue() > 0.0);
}

#[test]
fn batch_pricing_with_fresh_scratch_does_not_allocate() {
    assert!(
        !mbp_obs::is_enabled(),
        "obs registry must be disabled for the allocation test"
    );
    // The quote workload's 512-point listing size.
    let grid: Vec<f64> = (1..=512).map(|i| i as f64 * 0.5).collect();
    let prices = grid.iter().map(|x| 8.0 * x.sqrt()).collect();
    let table = PricingFunction::from_points(grid, prices)
        .expect("arbitrage-free")
        .compile();
    // Precisions below, across and above the knots, plus clamped ones.
    let mut xs: Vec<f64> = (0..64).map(|i| i as f64 * 4.1).collect();
    xs.extend([f64::NAN, -1.0, f64::INFINITY]);
    let mut out = Vec::with_capacity(xs.len());

    let allocations = measure_heap(|| {
        for len in [1, 8, 64, xs.len()] {
            for batch in xs.chunks(len) {
                table.price_at_batch(black_box(batch), &mut BatchScratch::default(), &mut out);
            }
        }
    })
    .allocations;
    assert_eq!(
        allocations, 0,
        "price_at_batch performed {allocations} heap allocations into a warm output buffer"
    );
    assert_eq!(out.len(), xs.len());
    assert!(xs
        .iter()
        .zip(&out)
        .all(|(&x, p)| p.to_bits() == table.price_at(x).to_bits()));
}

#[test]
fn theorem10_dp_memory_is_linear() {
    assert!(
        !mbp_obs::is_enabled(),
        "obs registry must be disabled for the allocation test"
    );
    // The Figure 9/10 population (concave values, peaked demand).
    let population = |n: usize| {
        buyer_points(
            &grid(20.0, 100.0, n),
            &ValueCurve::new(ValueShape::Concave { power: 2.5 }, 2.0, 100.0),
            &DemandCurve::new(DemandShape::Peak {
                center: 0.5,
                width: 0.25,
            }),
        )
        .expect("valid grid")
    };
    let solve = |n: usize| {
        let points = population(n);
        measure_heap(|| {
            black_box(solve_bv_dp(black_box(&points)));
        })
    };
    let small = solve(16);
    let large = solve(2048);
    // At 2048 points the take bits are 2048 rows of 33 words (0.54 MB);
    // the two value rows and the per-point vectors add about 0.13 MB.
    // The n × (n+1) tables this replaced peaked at 38 MB.
    assert!(
        large.peak_bytes < 1 << 20,
        "a 2048-point solve peaked at {} bytes of live heap",
        large.peak_bytes
    );
    assert!(
        large.allocations <= small.allocations,
        "allocations grow with n: {} at 2048 points, {} at 16",
        large.allocations,
        small.allocations
    );
}
