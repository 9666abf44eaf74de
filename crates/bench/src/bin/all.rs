//! Runs the entire experiment suite — every paper table/figure plus the
//! extension experiments — and prints one combined report.
//!
//! `cargo run -p mbp-bench --release --bin all` regenerates everything
//! EXPERIMENTS.md records. The run is observability-instrumented: every
//! phase executes with the `mbp-obs` registry enabled, its wall time and
//! metrics snapshot are collected, and a combined JSON artifact is written
//! next to the report (`experiments/metrics.json`, overridable with
//! `MBP_METRICS_OUT`). The bench baselines write their `BENCH_*.json`
//! artifacts into `MBP_BENCH_DIR` (default `.`).

use mbp_bench::experiments::{
    adaptive_experiment, fairness_sweep, fig10, fig5, fig6, fig7, fig8, fig9,
    simulation_experiment, table3,
};
use mbp_bench::report::{fmt, fmt_secs, print_metrics, print_rows, print_table};
use mbp_bench::row::{write_artifact, Row};
use mbp_bench::{
    attackbench, env_usize, kernelbench, parbench, servebench, tracebench, walbench, Config,
    RunMeta,
};
use std::time::Instant;

/// One executed phase: its label, wall time, and the metrics it recorded.
struct PhaseRecord {
    name: &'static str,
    secs: f64,
    snapshot: mbp_obs::Snapshot,
}

/// Runs `f` with a clean metrics registry and captures its per-phase
/// snapshot (the registry is reset first, so each record holds only the
/// metrics that phase produced).
fn run_phase(records: &mut Vec<PhaseRecord>, name: &'static str, f: impl FnOnce()) {
    mbp_obs::reset();
    let t0 = Instant::now();
    f();
    records.push(PhaseRecord {
        name,
        secs: t0.elapsed().as_secs_f64(),
        snapshot: mbp_obs::snapshot(),
    });
}

/// Serializes the phase records as one JSON document.
fn phases_to_json(records: &[PhaseRecord]) -> String {
    let mut out = String::from("{\n  \"phases\": [\n");
    for (i, r) in records.iter().enumerate() {
        let metrics = mbp_obs::to_json(&r.snapshot)
            .lines()
            .collect::<Vec<_>>()
            .join("\n      ");
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"seconds\": {:.6},\n      \"metrics\": {}\n    }}{}\n",
            r.name,
            r.secs,
            metrics,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints a bench artifact's rows and writes the artifact.
fn emit(title: &str, file: &str, meta: &RunMeta, rows: &[Row]) {
    print_rows(&format!("{title} ({file})"), rows);
    match write_artifact(file, meta, rows) {
        Ok(path) => println!("{file} written to {}", path.display()),
        Err(e) => eprintln!("could not write {file}: {e}"),
    }
}

fn main() {
    let cfg = Config::from_env();
    mbp_obs::enable();
    println!(
        "# MBP full experiment suite (scale={}, reps={}, max_n={}, seed={})\n",
        cfg.scale, cfg.reps, cfg.max_n, cfg.seed
    );

    let mut phases: Vec<PhaseRecord> = Vec::new();

    run_phase(&mut phases, "table3", || {
        print_table(
            "Table 3: dataset statistics",
            &[
                "dataset", "task", "paper_n1", "paper_n2", "our_n1", "our_n2", "d",
            ],
            &table3(&cfg)
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        r.task.to_string(),
                        r.paper_n1.to_string(),
                        r.paper_n2.to_string(),
                        r.our_n1.to_string(),
                        r.our_n2.to_string(),
                        r.d.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "fig5", || {
        print_table(
            "Figure 5: pricing approaches on the worked example",
            &[
                "approach",
                "p(1)",
                "p(2)",
                "p(3)",
                "p(4)",
                "revenue",
                "afford",
                "arbitrage?",
            ],
            &fig5()
                .iter()
                .map(|r| {
                    let mut row = vec![r.approach.to_string()];
                    row.extend(r.prices.iter().map(|&p| fmt(p)));
                    row.push(fmt(r.revenue));
                    row.push(fmt(r.affordability));
                    row.push(if r.has_arbitrage { "YES" } else { "no" }.into());
                    row
                })
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "fig6", || {
        print_table(
            "Figure 6: expected test error vs 1/NCP",
            &["dataset", "error", "1/NCP", "expected_error"],
            &fig6(&cfg)
                .iter()
                .map(|p| {
                    vec![
                        p.dataset.clone(),
                        p.error_kind.to_string(),
                        fmt(p.inv_ncp),
                        fmt(p.expected_error),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "fig7-8", || {
        for scenario in fig7(&cfg).into_iter().chain(fig8(&cfg)) {
            print_table(
                &scenario.label,
                &["method", "revenue", "affordability"],
                &scenario
                    .outcomes
                    .iter()
                    .map(|o| vec![o.method.to_string(), fmt(o.revenue), fmt(o.affordability)])
                    .collect::<Vec<_>>(),
            );
        }
    });

    run_phase(&mut phases, "fig9-10", || {
        for scenario in fig9(&cfg).into_iter().chain(fig10(&cfg)) {
            print_table(
                &scenario.label,
                &["n", "method", "runtime", "revenue", "affordability"],
                &scenario
                    .rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.n.to_string(),
                            r.method.to_string(),
                            fmt_secs(r.runtime_s),
                            fmt(r.revenue),
                            fmt(r.affordability),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
    });

    run_phase(&mut phases, "fairness", || {
        print_table(
            "Extension: revenue vs affordability (fairness weight sweep)",
            &["lambda", "revenue", "affordability"],
            &fairness_sweep(&cfg)
                .iter()
                .map(|r| vec![fmt(r.lambda), fmt(r.revenue), fmt(r.affordability)])
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "simulation", || {
        print_table(
            "Extension: simulated selling season",
            &[
                "pricing",
                "predicted_rev",
                "realized_rev",
                "predicted_aff",
                "realized_aff",
                "served",
            ],
            &simulation_experiment(&cfg)
                .iter()
                .map(|r| {
                    vec![
                        r.label.clone(),
                        fmt(r.predicted_revenue),
                        fmt(r.realized_revenue),
                        fmt(r.predicted_affordability),
                        fmt(r.realized_affordability),
                        r.served.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "adaptive", || {
        let (rows, oracle) = adaptive_experiment(&cfg);
        print_table(
            &format!(
                "Extension: adaptive pricing (oracle revenue/buyer = {})",
                fmt(oracle)
            ),
            &["epoch", "revenue/buyer", "acceptance", "estimate_rmse"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.epoch.to_string(),
                        fmt(r.revenue_per_buyer),
                        fmt(r.acceptance_rate),
                        fmt(r.estimate_rmse),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    });

    // The bench baselines. Each writes its artifact into `MBP_BENCH_DIR`
    // (default `.`); the size knobs trade run time for sample count.
    run_phase(&mut phases, "parallel-baseline", || {
        let b = parbench::run(env_usize("MBP_PAR_REPS", 3).max(1));
        emit("Parallel baseline", parbench::FILE, &b.meta, &b.rows());
    });
    run_phase(&mut phases, "serving-baseline", || {
        let b = servebench::run(env_usize("MBP_SERVE_QUOTES", 20_000));
        emit("Serving baseline", servebench::FILE, &b.meta, &b.rows());
    });
    run_phase(&mut phases, "kernel-baseline", || {
        let b = kernelbench::run(env_usize("MBP_KERNEL_LOOKUPS", 2_000_000));
        emit(
            "Lookup kernel baseline",
            kernelbench::FILE,
            &b.meta,
            &b.rows(),
        );
    });
    run_phase(&mut phases, "wal-baseline", || {
        let b = walbench::run(env_usize("MBP_WAL_RECORDS", 200_000));
        emit(
            "WAL durability baseline",
            walbench::FILE,
            &b.meta,
            &b.rows(),
        );
    });
    run_phase(&mut phases, "testkit-baseline", || {
        let b = attackbench::run(env_usize("MBP_ATTACK_TRIALS", 20_000) as u64);
        emit(
            "Verification baseline",
            attackbench::FILE,
            &b.meta,
            &b.rows(),
        );
    });
    run_phase(&mut phases, "trace-overhead", || {
        let b = tracebench::run(env_usize("MBP_TRACE_QUOTES", 20_000));
        emit("Tracing overhead", tracebench::FILE, &b.meta, &b.rows());
    });

    // Static-analysis timing: the per-file rule pass and the full
    // interprocedural pass (workspace call graph + reach-panic /
    // taint-det / lock-graph) over this workspace, so an analyzer
    // slowdown shows up in the same ratchet as every other phase. Both
    // passes must come back clean against the checked-in baseline.
    run_phase(&mut phases, "lintbench", || {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let baseline = root.join("lint.toml");
        let rows: Vec<(&str, Result<mbp_lint::Report, std::io::Error>, f64)> =
            [("per-file rules", false), ("interprocedural", true)]
                .into_iter()
                .map(|(name, interproc)| {
                    let t0 = std::time::Instant::now();
                    let report = if interproc {
                        mbp_lint::run_interprocedural(&root, Some(&baseline), None)
                    } else {
                        mbp_lint::run(&root, Some(&baseline))
                    };
                    (name, report, t0.elapsed().as_secs_f64())
                })
                .collect();
        print_table(
            "Static analysis (mbp-lint over this workspace)",
            &["pass", "files", "findings", "clean", "runtime"],
            &rows
                .iter()
                .map(|(name, report, secs)| match report {
                    Ok(r) => vec![
                        name.to_string(),
                        r.files_scanned.to_string(),
                        r.findings.len().to_string(),
                        r.is_clean().to_string(),
                        fmt_secs(*secs),
                    ],
                    Err(e) => vec![
                        name.to_string(),
                        "-".to_string(),
                        format!("error: {e}"),
                        "false".to_string(),
                        fmt_secs(*secs),
                    ],
                })
                .collect::<Vec<_>>(),
        );
    });

    // Per-phase wall times and metric volume.
    print_table(
        "Observability: phase timings",
        &["phase", "runtime", "counters", "gauges", "histograms"],
        &phases
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    fmt_secs(r.secs),
                    r.snapshot.counters.len().to_string(),
                    r.snapshot.gauges.len().to_string(),
                    r.snapshot.histograms.len().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for r in &phases {
        if !r.snapshot.is_empty() {
            print_metrics(&format!("Metrics: {}", r.name), &r.snapshot);
        }
    }

    // Machine-readable artifact next to the report.
    let out_path =
        std::env::var("MBP_METRICS_OUT").unwrap_or_else(|_| "experiments/metrics.json".to_string());
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&out_path, phases_to_json(&phases)) {
        Ok(()) => println!("metrics artifact written to {out_path}"),
        Err(e) => eprintln!("could not write metrics artifact {out_path}: {e}"),
    }
}
