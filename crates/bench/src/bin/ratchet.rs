//! Bench ratchet entry point for CI: re-measures every ratcheted baseline
//! at smoke scale, diffs the fresh rows against the committed
//! `BENCH_*.json` artifacts with [`compare`], and exits non-zero when any
//! check fails.
//!
//! Knobs: `MBP_BASELINE_DIR` (where the committed artifacts live, default
//! `.`), `MBP_RATCHET_TOL` / `MBP_RATCHET_RATIO_TOL` (widen the
//! absolute and ratio bands for slow or shared runners), and
//! `MBP_SERVE_QUOTES` / `MBP_NET_REQUESTS` / `MBP_KERNEL_LOOKUPS` /
//! `MBP_WAL_RECORDS` / `MBP_ATTACK_TRIALS` / `MBP_TRACE_QUOTES`
//! (fresh-run sizes).

use mbp_bench::ratchet::{compare, RatchetConfig, RatchetReport};
use mbp_bench::row::{parse_rows, Row};
use mbp_bench::{attackbench, env_usize, kernelbench, netbench, servebench, tracebench, walbench};

fn report(label: &str, result: Result<RatchetReport, String>, failed: &mut bool) {
    match result {
        Ok(report) => {
            println!("[{label}] {}", report.render().trim_end());
            *failed |= !report.pass();
        }
        Err(e) => {
            println!("[{label}] ERROR: {e}");
            *failed = true;
        }
    }
}

fn main() {
    let dir = std::env::var("MBP_BASELINE_DIR").unwrap_or_else(|_| ".".to_string());
    let committed = |file: &str| -> Result<Vec<Row>, String> {
        let path = std::path::Path::new(&dir).join(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_rows(&text)
    };
    let cfg = RatchetConfig::from_env();
    let mut failed = false;

    mbp_obs::enable();

    // 1. The committed tracing artifact alone: its invariant and its
    // strict 2% / 10% overhead ceilings.
    report(
        "trace-budgets(committed)",
        committed(tracebench::FILE).map(|c| compare(&c, None, &cfg)),
        &mut failed,
    );

    // 2. Fresh smoke measurements against the committed baselines.
    type Measure = fn(usize) -> Vec<Row>;
    let sections: [(&str, &str, &str, usize, Measure); 5] = [
        (
            "serving",
            servebench::FILE,
            "MBP_SERVE_QUOTES",
            4_000,
            |n| servebench::run(n).rows(),
        ),
        ("serve-net", netbench::FILE, "MBP_NET_REQUESTS", 512, |n| {
            netbench::run(n).rows()
        }),
        (
            "kernel",
            kernelbench::FILE,
            "MBP_KERNEL_LOOKUPS",
            200_000,
            |n| kernelbench::run(n).rows(),
        ),
        ("wal", walbench::FILE, "MBP_WAL_RECORDS", 20_000, |n| {
            walbench::run(n).rows()
        }),
        (
            "testkit",
            attackbench::FILE,
            "MBP_ATTACK_TRIALS",
            2_000,
            |n| attackbench::run(n as u64).rows(),
        ),
    ];
    for (label, file, knob, default, run) in sections {
        let result = committed(file).map(|c| {
            let n = env_usize(knob, default);
            println!("measuring {label} baseline ({knob}={n})...");
            compare(&c, Some(&run(n)), &cfg)
        });
        report(label, result, &mut failed);
    }

    // 3. Fresh tracing overhead against the fixed budgets only: it is not
    // banded against the committed run.
    let quotes = env_usize("MBP_TRACE_QUOTES", 12_000);
    println!("measuring tracing overhead (MBP_TRACE_QUOTES={quotes})...");
    let fresh = tracebench::run(quotes).rows();
    report(
        "trace-overhead(fresh)",
        Ok(compare(&[], Some(&fresh), &cfg)),
        &mut failed,
    );

    if failed {
        println!("ratchet: FAIL");
        std::process::exit(1);
    }
    println!("ratchet: pass");
}
