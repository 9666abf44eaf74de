//! Property-based tests for the pricing core: Proposition 1 evaluation,
//! budget inversion, batch pricing, DP feasibility/optimality structure,
//! and baseline well-behavedness on random instances.

use mbp_core::arbitrage::audit;
use mbp_core::error::{DeltaMethodTransform, ErrorTransform, SquareLossTransform};
use mbp_core::market::MAX_BATCH;
use mbp_core::pricing::{BatchScratch, ErrorPricedView, PhiMemo, PricingFunction};
use mbp_core::revenue::{affordability, revenue, solve_bv_dp, Baseline, BuyerPoint};
use mbp_core::SegmentIndex;
use mbp_optim::isotonic::is_relaxed_feasible;
use proptest::prelude::*;

/// Random ascending positive grid + arbitrary non-negative prices.
fn grid_and_prices() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    prop::collection::vec((0.3..3.0f64, 0.0..50.0f64), 1..12).prop_map(|raw| {
        let mut a = 0.0;
        let mut grid = Vec::with_capacity(raw.len());
        let mut prices = Vec::with_capacity(raw.len());
        for (gap, p) in raw {
            a += gap;
            grid.push(a);
            prices.push(p);
        }
        (grid, prices)
    })
}

/// Adversarial strictly-ascending key sets for the segment index: exact
/// uniform lattices (compiled to the grid layout), uniform lattices with
/// sub- and super-tolerance jitter (straddling the grid-eligibility
/// boundary), and irregular gaps spanning six orders of magnitude
/// (compiled to Eytzinger).
fn adversarial_keys() -> impl Strategy<Value = Vec<f64>> {
    (
        0u32..3,
        prop::collection::vec((0u32..7, 1.0..10.0f64), 1..48),
        (1.0..100.0f64, 0.01..10.0f64),
        -12i32..-6,
    )
        .prop_map(|(mode, raw, (x0, h), mag)| match mode {
            // Irregular gaps spanning six orders of magnitude → Eytzinger.
            0 => {
                let mut a = 0.0;
                raw.iter()
                    .map(|&(g, m)| {
                        a += m * 10f64.powi(g as i32 - 3);
                        a
                    })
                    .collect()
            }
            // Exact uniform lattice → grid layout.
            1 => (0..raw.len()).map(|i| x0 + i as f64 * h).collect(),
            // Uniform lattice with alternating jitter around the
            // grid-eligibility tolerance (1e-9·h): sub-tolerance stays on
            // the grid, super-tolerance falls back to Eytzinger.
            _ => {
                let eps = h * 10f64.powi(mag);
                (0..raw.len())
                    .map(|i| x0 + i as f64 * h + if i % 2 == 0 { eps } else { -eps })
                    .collect()
            }
        })
}

/// Random monotone-valuation buyer instance.
fn buyer_instance() -> impl Strategy<Value = Vec<BuyerPoint>> {
    prop::collection::vec((0.5..4.0f64, 0.0..25.0f64, 0.05..2.0f64), 1..10).prop_map(|raw| {
        let mut a = 0.0;
        let mut v = 0.0;
        raw.into_iter()
            .map(|(gap, dv, b)| {
                a += gap;
                v += dv;
                BuyerPoint::new(a, v, b)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proposition 1 evaluation: the curve interpolates its grid points
    /// exactly, is continuous at the knots, rides the origin ray below the
    /// grid, and saturates above it.
    #[test]
    fn pricing_evaluation_interpolates((grid, prices) in grid_and_prices()) {
        let pf = PricingFunction::from_points(grid.clone(), prices.clone()).unwrap();
        for (x, p) in grid.iter().zip(&prices) {
            prop_assert!((pf.price_at(*x) - p).abs() < 1e-9);
            // Knot continuity from both sides.
            prop_assert!((pf.price_at(x * (1.0 + 1e-9)) - p).abs() < 1e-5);
            prop_assert!((pf.price_at(x * (1.0 - 1e-9)) - p).abs() < 1e-5);
        }
        prop_assert_eq!(pf.price_at(0.0), 0.0);
        let tail = grid.last().unwrap() * 10.0;
        prop_assert!((pf.price_at(tail) - prices.last().unwrap()).abs() < 1e-12);
        // Origin ray is proportional (only meaningful with >1 knot; the
        // single-knot constant curve is flat by construction).
        if grid.len() > 1 {
            let x0 = grid[0] * 0.5;
            prop_assert!((pf.price_at(x0) - prices[0] * 0.5).abs() < 1e-9);
        }
    }

    /// The compiled segment index is an exact drop-in for the branchy
    /// binary search: on every key layout — grid-eligible lattices,
    /// boundary-jittered lattices, and wildly irregular gaps — both
    /// `upper_bound` and `lower_bound` return bit-for-bit the same index
    /// as `slice::partition_point`, including on knot hits, one-ULP
    /// neighbors of knots, out-of-range probes, infinities, and NaN.
    #[test]
    fn segment_index_matches_partition_point(
        keys in adversarial_keys(),
        probes in prop::collection::vec(0.0..1.0f64, 0..24),
    ) {
        let idx = SegmentIndex::new(&keys);
        let lo = keys[0];
        let hi = *keys.last().unwrap();
        let span = (hi - lo).max(1.0);
        let mut xs = vec![
            lo - 0.5 * span,
            hi + 0.5 * span,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            0.0,
        ];
        for &k in &keys {
            xs.extend([k, k.next_down(), k.next_up()]);
        }
        for t in probes {
            xs.push(lo - 0.1 * span + 1.2 * span * t);
        }
        for x in xs {
            prop_assert_eq!(
                idx.upper_bound(&keys, x),
                keys.partition_point(|&k| k <= x),
                "upper_bound diverged at x={} (grid: {})", x, idx.is_grid()
            );
            prop_assert_eq!(
                idx.lower_bound(&keys, x),
                keys.partition_point(|&k| k < x),
                "lower_bound diverged at x={} (grid: {})", x, idx.is_grid()
            );
        }
    }

    /// Budget inversion round-trips on monotone curves: buying at the
    /// returned precision costs at most the budget, and any meaningfully
    /// higher precision costs strictly more.
    #[test]
    fn budget_inversion_is_tight((grid, mut prices) in grid_and_prices(), budget in 0.5..60.0f64) {
        // Make the curve strictly increasing so inversion is unambiguous.
        prices.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, p) in prices.iter_mut().enumerate() {
            *p += 0.25 * (i as f64 + 1.0);
        }
        let pf = PricingFunction::from_points(grid.clone(), prices).unwrap();
        match pf.max_precision_for_budget(budget) {
            None => prop_assert!(budget < pf.price_at(grid[0] * 1e-6) + 1e-9 || pf.prices()[0] > budget),
            Some(x) if x.is_infinite() => prop_assert!(budget >= pf.max_price() - 1e-9),
            Some(x) => {
                prop_assert!(pf.price_at(x) <= budget + 1e-6);
                let probe = (x * 1.01).min(grid.last().unwrap() * 2.0);
                if probe > x && probe <= *grid.last().unwrap() {
                    prop_assert!(pf.price_at(probe) >= budget - 1e-6);
                }
            }
        }
    }

    /// The DP always emits relaxed-feasible (hence arbitrage-free) prices
    /// that never exceed valuations at served points, and its revenue
    /// evaluation is consistent.
    #[test]
    fn dp_output_always_well_behaved(points in buyer_instance()) {
        let sol = solve_bv_dp(&points);
        let grid: Vec<f64> = points.iter().map(|p| p.a).collect();
        prop_assert!(is_relaxed_feasible(sol.pricing.prices(), &grid, 1e-7));
        prop_assert!((sol.objective - revenue(&sol.pricing, &points)).abs() < 1e-9);
        prop_assert!(sol.objective >= -1e-12);
        // Revenue never exceeds total surplus.
        let surplus: f64 = points.iter().map(|p| p.demand * p.valuation).sum();
        prop_assert!(sol.objective <= surplus + 1e-9);
        // Audit it on the instance grid.
        let report = audit(&sol.pricing, &grid, 4, 1e-5);
        prop_assert!(report.is_clean(), "{:?}", report);
    }

    /// The compiled table answers every evaluation form within 1e-12
    /// relative of the piecewise-linear scan on random (not necessarily
    /// monotone) curves: interior points, knots, the origin ray, the
    /// saturated tail, clamped non-positive inputs, NCP pricing, and
    /// budget inversion.
    #[test]
    fn compiled_table_agrees_with_scan(
        (grid, prices) in grid_and_prices(),
        budget in 0.0..80.0f64,
        delta in 0.01..20.0f64,
    ) {
        let pf = PricingFunction::from_points(grid.clone(), prices).unwrap();
        let table = pf.compile();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1.0);
        let x_last = *grid.last().unwrap();
        let mut queries = vec![0.0, -1.0, f64::NAN, grid[0] * 0.5, x_last * 4.0];
        for w in grid.windows(2) {
            queries.push(0.5 * (w[0] + w[1]));
        }
        queries.extend(grid.iter().copied());
        for x in queries {
            prop_assert!(
                close(table.price_at(x), pf.price_at(x)),
                "price_at({x}): {} vs {}", table.price_at(x), pf.price_at(x)
            );
        }
        prop_assert!(close(table.price_for_ncp(delta), pf.price_for_ncp(delta)));
        match (table.max_precision_for_budget(budget), pf.max_precision_for_budget(budget)) {
            (None, None) => {}
            (Some(a), Some(d)) => prop_assert!(
                a == d || close(a, d),
                "budget inversion at {budget}: {a} vs {d}"
            ),
            (a, d) => prop_assert!(false, "budget inversion shape differs: {a:?} vs {d:?}"),
        }
    }

    /// The memoized φ inverse round-trips the error transform and prices
    /// errors exactly like the uncached [`ErrorPricedView`], for both the
    /// affine fast path and the virtual-call fallback.
    #[test]
    fn phi_memo_matches_direct_inversion(
        (grid, mut prices) in grid_and_prices(),
        base in 0.0..5.0f64,
        trace in 0.1..10.0f64,
        delta in 0.0..8.0f64,
    ) {
        prices.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pf = PricingFunction::from_points(grid, prices).unwrap();
        let table = pf.compile();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1.0);
        let affine = DeltaMethodTransform::new(base, trace, 3);
        let identity = SquareLossTransform;
        let transforms: [&dyn ErrorTransform; 2] = [&affine, &identity];
        for t in transforms {
            let memo = PhiMemo::new(t, &table);
            let view = ErrorPricedView::new(&pf, t);
            // φ round-trip: inverting the forward map recovers δ.
            if let Some(d) = memo.ncp_for_error(t, t.expected_error(delta)) {
                prop_assert!((d - delta).abs() <= 1e-9 * delta.max(1.0));
            }
            // Price-for-error agreement across the whole range, including
            // below-base (unachievable), the saturation band, and the tail.
            for err in [base - 1.0, base, base + 1e-13, t.expected_error(delta),
                        t.expected_error(100.0), f64::INFINITY] {
                match (memo.price_for_error(t, &table, err), view.price_for_error(err)) {
                    (None, None) => {}
                    (Some(a), Some(d)) => prop_assert!(
                        close(a, d),
                        "{}: price_for_error({err}): {a} vs {d}", t.name()
                    ),
                    (a, d) => prop_assert!(
                        false,
                        "{}: price_for_error({err}) shape differs: {a:?} vs {d:?}", t.name()
                    ),
                }
            }
        }
    }

    /// Every baseline yields a well-behaved (monotone + subadditive on the
    /// grid) pricing function with affordability in [0, 1].
    #[test]
    fn baselines_always_well_behaved(points in buyer_instance()) {
        let grid: Vec<f64> = points.iter().map(|p| p.a).collect();
        for b in Baseline::ALL {
            let pf = b.pricing(&points);
            let report = audit(&pf, &grid, 4, 1e-5);
            prop_assert!(report.is_clean(), "{}: {:?}", b.name(), report);
            let a = affordability(&pf, &points);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&a));
        }
    }
}

/// Knot counts for the batch parity property: the single-knot constant
/// curve, the smallest curve with a segment, and the kernel bench sizes.
const BATCH_KNOTS: [usize; 5] = [1, 2, 16, 512, 8192];

/// Batch sizes for the batch parity property, up to the kernel's cap.
const BATCH_LENS: [usize; 5] = [0, 1, 8, 64, MAX_BATCH];

/// `n` ascending knots from `x0`: uniform steps of `h` (the grid layout),
/// or steps that cycle through 13 widths (the Eytzinger layout).
fn batch_knots(n: usize, uniform: bool, x0: f64, h: f64) -> Vec<f64> {
    let mut acc = x0;
    (0..n)
        .map(|i| {
            if uniform {
                x0 + i as f64 * h
            } else {
                acc += h * (0.2 + ((i * 37 + 11) % 13) as f64 * 0.3);
                acc
            }
        })
        .collect()
}

/// One precision of kind `kind` against `knots`, placed by `u ∈ [0, 1)`:
/// NaN, non-positive, below the first knot, at or above the last, exactly
/// on a knot, or strictly inside the knot range.
fn batch_query(knots: &[f64], kind: u32, u: f64) -> f64 {
    let (lo, hi) = (knots[0], knots[knots.len() - 1]);
    match kind {
        0 => f64::NAN,
        1 => [0.0, -0.0, -1e3 * u, f64::NEG_INFINITY][(u * 4.0) as usize],
        2 => lo * u,
        3 => [hi, hi * (1.0 + 3.0 * u), f64::INFINITY][(u * 3.0) as usize],
        4 => knots[(u * knots.len() as f64) as usize],
        _ => lo + (hi - lo) * u,
    }
}

proptest! {
    /// `price_at_batch` answers every request exactly like `price_at`, bit
    /// for bit and in request order, on both index layouts, from one knot
    /// to 8192 and from an empty batch to `MAX_BATCH`. CI also runs it in
    /// release with `PROPTEST_CASES=2000`.
    #[test]
    fn price_at_batch_matches_price_at_bit_for_bit(
        (knot_pick, uniform, len_pick) in (0u32..5, 0u32..2, 0u32..5),
        (x0, h, scale) in (0.01..10.0f64, 0.01..5.0f64, 0.1..100.0f64),
        draws in prop::collection::vec((0u32..6, 0.0..1.0f64), MAX_BATCH),
    ) {
        let n = BATCH_KNOTS[knot_pick as usize];
        let knots = batch_knots(n, uniform == 1, x0, h);
        if n >= 3 {
            prop_assert_eq!(SegmentIndex::new(&knots).is_grid(), uniform == 1);
        }
        // Non-monotone on purpose: the kernel must not assume a shape.
        let prices = knots
            .iter()
            .enumerate()
            .map(|(i, x)| scale * x.sqrt() + ((i * 7919) % 13) as f64)
            .collect();
        let table = PricingFunction::from_points(knots.clone(), prices).unwrap().compile();
        let xs: Vec<f64> = draws
            .iter()
            .take(BATCH_LENS[len_pick as usize])
            .map(|&(kind, u)| batch_query(&knots, kind, u))
            .collect();
        // A stale, longer `out` must be replaced, not appended to.
        let mut out = vec![f64::NAN; MAX_BATCH + 1];
        table.price_at_batch(&xs, &mut BatchScratch::default(), &mut out);
        prop_assert_eq!(out.len(), xs.len());
        for (i, (&x, &p)) in xs.iter().zip(&out).enumerate() {
            let single = table.price_at(x);
            prop_assert!(
                p.to_bits() == single.to_bits(),
                "request {i}: x = {x}: batch {p} vs price_at {single}"
            );
        }
    }
}
