//! `mbp-perfbench --workload <browse|buy-durable|reprice> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a table of the run's metrics, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer breakdown. Exits 0
//! whenever a result line was printed; a failed correctness check shows
//! as `"correct": false`.

use mbp_perfbench::workloads::{self, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mbp-perfbench --workload <browse|buy-durable|reprice> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match workloads::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => {
            let title = format!(
                "workload {} seed {} seconds {} trace {}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            println!("{}", outcome.table(&title));
            println!("{}", outcome.json());
        }
        Err(e) => {
            eprintln!("error: {} run failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}
