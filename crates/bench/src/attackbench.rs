//! Verification-layer throughput baseline ([`FILE`]).
//!
//! Times the three mbp-testkit engines against a realistic dense curve so
//! regressions in verification throughput are visible next to the serving
//! and parallel baselines:
//!
//! * **attack-curve / attack-error-space** — randomized arbitrage trials
//!   per second against the arbitrage-free √-shaped curve (and through the
//!   identity error transform). A *clean* run is part of the contract: a
//!   found violation fails the baseline.
//! * **oracle** — differential pricing comparisons per second (scan vs
//!   compiled table vs Kahan-summed reference).
//! * **schedule** — linearizability cases per second on the concurrent
//!   broker at 2–4 virtual threads.
//!
//! Every phase runs twice from the same seed; `deterministic` asserts the
//! two runs produced identical work digests.

use crate::row::{Better, Row};
use mbp_core::error::SquareLossTransform;
use mbp_core::PricingFunction;
use mbp_testkit::{
    attack_curve, attack_error_space, check_pricing, explore, AttackConfig, OracleConfig,
    ScheduleConfig,
};
use std::time::Instant;

/// The artifact's file name.
pub const FILE: &str = "BENCH_testkit.json";

/// One timed verification phase.
#[derive(Debug, Clone)]
pub struct AttackPhase {
    /// Phase label.
    pub name: &'static str,
    /// Work units completed (trials, comparisons, or cases).
    pub units: u64,
    /// Wall seconds for the faster of the two runs.
    pub seconds: f64,
    /// Work units per second derived from `seconds`.
    pub units_per_sec: f64,
    /// Violations or divergences found (must be 0 on sound inputs).
    pub findings: u64,
    /// Both runs produced identical digests.
    pub deterministic: bool,
}

/// The full verification baseline.
#[derive(Debug, Clone)]
pub struct AttackBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Randomized attack trials per engine run.
    pub trials: u64,
    /// Per-phase measurements.
    pub phases: Vec<AttackPhase>,
    /// No engine found a violation or divergence (the inputs are sound).
    pub clean: bool,
    /// Every phase reproduced its digest on the second run.
    pub deterministic: bool,
}

fn timed(name: &'static str, mut work: impl FnMut() -> (u64, u64, f64)) -> AttackPhase {
    let t0 = Instant::now();
    let (units_a, findings_a, digest_a) = work();
    let first = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (units_b, findings_b, digest_b) = work();
    let second = t1.elapsed().as_secs_f64();
    let seconds = first.min(second);
    AttackPhase {
        name,
        units: units_a,
        seconds,
        units_per_sec: if seconds > 0.0 {
            units_a as f64 / seconds
        } else {
            0.0
        },
        findings: findings_a,
        deterministic: units_a == units_b && findings_a == findings_b && digest_a == digest_b,
    }
}

/// The benchmark curve: arbitrage-free `p̄(x) = 10·√x` on 128 knots.
fn bench_curve() -> PricingFunction {
    let grid: Vec<f64> = (1..=128).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free")
}

/// Runs the verification baseline with `trials` attack trials per engine.
pub fn run(trials: u64) -> AttackBaseline {
    let _span = mbp_obs::span("mbp.bench.attackbench");
    let trials = trials.max(1_000);
    let curve = bench_curve();

    let attack = timed("attack-curve", || {
        let report = attack_curve(
            &curve,
            &AttackConfig {
                seed: 0xbe_ac4,
                trials,
                ..AttackConfig::default()
            },
        );
        (
            report.trials,
            report.violations.len() as u64,
            report.checks as f64,
        )
    });

    let eps = timed("attack-error-space", || {
        let report = attack_error_space(
            &curve,
            &SquareLossTransform,
            &AttackConfig {
                seed: 0xbe_ac5,
                trials,
                ..AttackConfig::default()
            },
        );
        (
            report.trials,
            report.violations.len() as u64,
            report.checks as f64,
        )
    });

    let oracle = timed("oracle", || {
        let report = check_pricing(
            &curve,
            &OracleConfig {
                probes: trials as usize,
                ..OracleConfig::default()
            },
        );
        (
            report.comparisons,
            report.divergences.len() as u64,
            report.max_divergence,
        )
    });

    let cases = (trials / 20).clamp(50, 5_000);
    let schedule = timed("schedule", || {
        let report = explore(&ScheduleConfig {
            seed: 0xbe_ac6,
            interleavings: cases,
            threads: 4,
            ops_per_thread: 3,
            faults: false,
        });
        (
            report.explored,
            report.failures.len() as u64,
            report.steps as f64,
        )
    });

    let phases = vec![attack, eps, oracle, schedule];
    let clean = phases.iter().all(|p| p.findings == 0);
    let deterministic = phases.iter().all(|p| p.deterministic);
    AttackBaseline {
        meta: crate::RunMeta::from_env(),
        trials,
        phases,
        clean,
        deterministic,
    }
}

impl AttackBaseline {
    /// The baseline as artifact rows (`BENCH_testkit.json`).
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = vec![
            Row::exact("trials", self.trials, "count"),
            Row::flag("clean", self.clean, Better::True),
            Row::flag("deterministic", self.deterministic, Better::True),
        ];
        for p in &self.phases {
            let n = format!("phases.{}", p.name);
            rows.extend([
                Row::exact(format!("{n}.units"), p.units, "count"),
                Row::num(format!("{n}.seconds"), p.seconds, "s", Better::None),
                Row::num(
                    format!("{n}.units_per_sec"),
                    p.units_per_sec,
                    "1/s",
                    Better::Higher,
                ),
                Row::exact(format!("{n}.findings"), p.findings, "count"),
                Row::flag(format!("{n}.deterministic"), p.deterministic, Better::None),
            ]);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_clean_and_deterministic() {
        let b = run(1_000);
        assert_eq!(b.phases.len(), 4);
        assert!(b.clean, "an engine found a violation on sound inputs");
        assert!(b.deterministic, "a phase failed to reproduce its digest");
        assert!(b.phases.iter().all(|p| p.units_per_sec > 0.0));
    }
}
