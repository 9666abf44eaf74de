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
//! The Theorem 10 DP must run in linear memory: two rolling rows of values
//! plus one take/skip bit per cell, a fixed number of allocations whatever
//! the number of points.
//!
//! A counting `#[global_allocator]` (wrapping `System`) verifies this
//! directly. The counters are toggled around the measured window so test
//! harness bookkeeping doesn't pollute them. CI runs this test in the
//! `MBP_THREADS=1` job. The armed flag and counters are **thread-local**:
//! libtest runs `#[test]` fns (and its own result-printing bookkeeping,
//! which allocates) on concurrent threads, so a process-global flag would
//! intermittently count a sibling thread's allocations inside a window.

use mbp_core::error::SquareLossTransform;
use mbp_core::market::curves::{buyer_points, grid, DemandCurve, DemandShape};
use mbp_core::market::curves::{ValueCurve, ValueShape};
use mbp_core::market::{Broker, PurchaseRequest, Sale};
use mbp_core::pricing::PricingFunction;
use mbp_core::revenue::solve_bv_dp;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts every `alloc`/`realloc` and tracks live heap bytes while armed;
/// delegates to [`System`].
struct CountingAlloc;

thread_local! {
    /// Per-thread armed flag: only the measuring thread counts.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Per-thread allocation count for the current armed window.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed since the window opened (negative
    /// when the window frees memory allocated before it).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` reached in the window.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` bytes to the armed window's live total and raises its peak.
/// `try_with` tolerates TLS teardown.
fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn armed() -> bool {
    ARMED.try_with(|a| a.get()).unwrap_or(false)
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method delegates directly to [`System`], which upholds the
// `GlobalAlloc` contract; the counter bookkeeping never touches the layout
// or the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`. The
    // thread-locals are const-initialized `Cell`s, so accessing them here
    // never allocates (no recursion); `try_with` tolerates TLS teardown.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            count_allocation();
            track(layout.size() as isize);
        }
        System.alloc(layout)
    }

    // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`; the
    // caller guarantees they came from this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if armed() {
            track(-(layout.size() as isize));
        }
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards all arguments unchanged to `System.realloc`; the
    // caller guarantees `ptr`/`layout` describe a live allocation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            count_allocation();
            track(new_size as isize - layout.size() as isize);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap use of one armed window.
struct HeapUse {
    /// `alloc` plus `realloc` calls.
    allocations: usize,
    /// Peak live bytes above the window's start.
    peak_bytes: isize,
}

/// Runs `f` with the counters armed and returns its heap use.
fn measure_heap(f: impl FnOnce()) -> HeapUse {
    ALLOCATIONS.with(|c| c.set(0));
    LIVE.with(|c| c.set(0));
    PEAK.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    HeapUse {
        allocations: ALLOCATIONS.with(|c| c.get()),
        peak_bytes: PEAK.with(|c| c.get()),
    }
}

#[test]
fn steady_state_buy_path_does_not_allocate() {
    // Observability must stay disabled: enabled metrics intern names and
    // would allocate. The registry is inert by default; this is just a
    // guard against future test-harness changes.
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

    // Batches mix all three request kinds and sweep many knot segments, so
    // the bin-and-scatter kernel exercises several bins per batch.
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
