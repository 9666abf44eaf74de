//! Criterion benchmarks behind Figures 9–10: revenue-optimization runtime
//! as the number of price points grows — the O(n²) DP vs the exponential
//! exact solver vs the naive baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mbp_core::market::curves::{
    buyer_points, grid, DemandCurve, DemandShape, ValueCurve, ValueShape,
};
use mbp_core::revenue::{
    solve_bv_dp, solve_bv_dp_fair, solve_bv_exact, solve_pi_l1, solve_pi_l2,
    solve_separable_concave, Baseline, BuyerPoint, PricePoint,
};
use mbp_optim::projgrad::SquaredInterpolation;
use std::hint::black_box;

fn population(n: usize) -> Vec<BuyerPoint> {
    let g = grid(20.0, 100.0, n);
    buyer_points(
        &g,
        &ValueCurve::new(ValueShape::Concave { power: 2.5 }, 2.0, 100.0),
        &DemandCurve::new(DemandShape::Peak {
            center: 0.5,
            width: 0.25,
        }),
    )
    .expect("bench grid is valid")
}

fn bench_dp_vs_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("revenue/dp_vs_exact");
    for n in [4usize, 6, 8, 10, 12] {
        let pts = population(n);
        group.bench_with_input(BenchmarkId::new("mbp_dp", n), &pts, |b, pts| {
            b.iter(|| solve_bv_dp(black_box(pts)))
        });
        group.bench_with_input(BenchmarkId::new("milp_exact", n), &pts, |b, pts| {
            b.iter(|| solve_bv_exact(black_box(pts), 2.0))
        });
    }
    group.finish();
}

fn bench_dp_scaling(c: &mut Criterion) {
    // The DP alone scales to thousands of points — show the quadratic
    // curve up to the serving daemon's 2048-point limit.
    let mut group = c.benchmark_group("revenue/dp_scaling");
    for n in [10usize, 50, 100, 200, 400, 2048] {
        let pts = population(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| solve_bv_dp(black_box(pts)))
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let pts = population(10);
    let mut group = c.benchmark_group("revenue/baselines_n10");
    for baseline in Baseline::ALL {
        group.bench_function(baseline.name(), |b| {
            b.iter(|| baseline.pricing(black_box(&pts)))
        });
    }
    group.finish();
}

fn bench_interpolation(c: &mut Criterion) {
    let mut group = c.benchmark_group("revenue/price_interpolation");
    for n in [5usize, 10, 20] {
        let pts: Vec<PricePoint> = (1..=n)
            .map(|i| PricePoint::new(i as f64, (i as f64).sqrt() * 8.0 + ((i % 3) as f64) * 4.0))
            .collect();
        group.bench_with_input(BenchmarkId::new("l2_dykstra", n), &pts, |b, pts| {
            b.iter(|| solve_pi_l2(black_box(pts)))
        });
        group.bench_with_input(BenchmarkId::new("l1_simplex", n), &pts, |b, pts| {
            b.iter(|| solve_pi_l1(black_box(pts)))
        });
    }
    group.finish();
}

fn bench_fairness(c: &mut Criterion) {
    // Ablation: the fairness-weighted DP costs the same as the plain one:
    // O(n^2) time, O(n) values plus n(n+1) bits.
    let pts = population(50);
    let mut group = c.benchmark_group("revenue/fairness_dp_n50");
    group.bench_function("lambda_0", |b| b.iter(|| solve_bv_dp(black_box(&pts))));
    group.bench_function("lambda_10", |b| {
        b.iter(|| solve_bv_dp_fair(black_box(&pts), 10.0))
    });
    group.finish();
}

fn bench_projgrad_vs_dykstra(c: &mut Criterion) {
    // Ablation for the T2_pi design choice: direct Dykstra projection vs
    // the generic projected-gradient solver on the same objective.
    let n = 20usize;
    let pts: Vec<PricePoint> = (1..=n)
        .map(|i| PricePoint::new(i as f64, (i as f64).sqrt() * 8.0 + ((i % 3) as f64) * 4.0))
        .collect();
    let grid: Vec<f64> = pts.iter().map(|p| p.a).collect();
    let targets: Vec<f64> = pts.iter().map(|p| p.target).collect();
    let mut group = c.benchmark_group("revenue/l2_ablation_n20");
    group.bench_function("dykstra_direct", |b| {
        b.iter(|| solve_pi_l2(black_box(&pts)))
    });
    group.bench_function("projected_gradient", |b| {
        b.iter(|| {
            let obj = SquaredInterpolation {
                targets: targets.clone(),
            };
            solve_separable_concave(&obj, black_box(&grid), &targets)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dp_vs_exact,
    bench_dp_scaling,
    bench_baselines,
    bench_interpolation,
    bench_fairness,
    bench_projgrad_vs_dykstra
);
criterion_main!(benches);
