//! Network-serving saturation sweep for the `mbp-serve` daemon.
//!
//! Boots an in-process daemon on an ephemeral loopback port and drives it
//! with real TCP clients at 1/4/16/64 concurrent connections. Every client
//! replays a fixed per-connection request stream (seeded by its `Hello`
//! frame) in pipelined bursts, so the byte stream each client receives is
//! a pure function of the sweep point; each point runs twice and
//! `deterministic` asserts the response digests reproduce exactly.
//!
//! The headline ratio is **batch admission**: the daemon coalesces each
//! connection's pending same-listing buys into one `buy_batch_into` call.
//! `batch_admission_speedup` re-runs the saturation point with coalescing
//! disabled (one kernel dispatch per request — the classic
//! request-per-call server) and reports saturated RPS over that baseline.
//! Because batch admission cannot change results (the PR 7 kernel consumes
//! RNG purely in request order), the two modes must also produce
//! bit-identical response digests — `per_request_matches_batched` pins it.
//!
//! Bursts are kept far below the server's admission queue limit so
//! backpressure frames (which are timing-dependent) never enter the
//! response streams being digested.
//!
//! The `loadgen` binary writes the result's rows to [`FILE`].

use crate::row::{Better, Row};
use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, PurchaseRequest};
use mbp_core::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use mbp_serve::wire::{Request, Response};
use mbp_serve::{Client, ServerConfig};
use std::time::Instant;

/// The artifact's file name.
pub const FILE: &str = "BENCH_serve_net.json";

/// Pipelined requests per flush; far below the server queue limit so the
/// digested streams never contain timing-dependent backpressure frames.
const BURST: usize = 64;

/// Connection counts swept, in order.
pub const SWEEP_CONNS: [usize; 4] = [1, 4, 16, 64];

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct NetSweepPoint {
    /// Concurrent client connections.
    pub connections: usize,
    /// Total requests served across all connections in one run.
    pub requests: usize,
    /// Wall seconds for the faster of the two runs.
    pub seconds: f64,
    /// Requests per second derived from `seconds`.
    pub rps: f64,
    /// Median per-request latency in microseconds (burst-amortized, best
    /// of the two runs).
    pub p50_micros: f64,
    /// 99th-percentile per-request latency in microseconds.
    pub p99_micros: f64,
    /// Combined response digest of the first run (per-client FNV digests
    /// folded in connection order).
    pub digest: u64,
    /// Whether the second run reproduced `digest` exactly.
    pub deterministic: bool,
}

/// The full network-serving baseline (`BENCH_serve_net.json`).
#[derive(Debug, Clone)]
pub struct NetBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Fixed request-stream length per connection.
    pub requests_per_conn: usize,
    /// Batched-admission sweep over [`SWEEP_CONNS`].
    pub sweep: Vec<NetSweepPoint>,
    /// Highest RPS across the sweep.
    pub saturation_rps: f64,
    /// Connection count that achieved `saturation_rps`.
    pub saturation_conns: usize,
    /// RPS at `saturation_conns` with batch admission disabled (one
    /// kernel dispatch per request).
    pub per_request_rps: f64,
    /// `saturation_rps / per_request_rps` — the batch-admission win.
    pub batch_admission_speedup: f64,
    /// The per-request run reproduced the batched run's digest exactly
    /// (batch coalescing must never change responses).
    pub per_request_matches_batched: bool,
    /// Every sweep point (and the per-request run) reproduced its digest.
    pub deterministic: bool,
}

fn dense_pricing(points: usize) -> PricingFunction {
    let grid: Vec<f64> = (1..=points).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free")
}

fn listed_broker(seed: u64) -> Broker {
    let mut rng = seeded_rng(seed);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed");
    broker
        .publish(
            ModelKind::LinearRegression,
            dense_pricing(512),
            Box::new(SquareLossTransform),
        )
        .expect("listing accepted");
    broker
}

/// The per-connection request stream: all three request kinds, all
/// satisfiable, offset by connection index so streams differ per client.
fn conn_stream(conn: usize, n: usize) -> Vec<PurchaseRequest> {
    (0..n)
        .map(|i| match (conn + i) % 3 {
            0 => PurchaseRequest::AtNcp(0.1 + (i % 37) as f64 * 0.05),
            1 => PurchaseRequest::ErrorBudget(0.5 + (i % 23) as f64 * 0.1),
            _ => PurchaseRequest::PriceBudget(12.0 + (i % 50) as f64),
        })
        .collect()
}

struct RunResult {
    seconds: f64,
    latencies: Vec<f64>,
    digest: u64,
}

/// Boots a fresh daemon, drives `conns` clients through their streams, and
/// tears the daemon down. Returns wall time, burst-amortized per-request
/// latencies from every client, and the order-folded response digest.
fn drive(conns: usize, per_conn: usize, batch_admission: bool) -> RunResult {
    let shared = SharedBroker::new(listed_broker(0xA11));
    let cfg = ServerConfig {
        batch_admission,
        ..ServerConfig::default()
    };
    let handle = mbp_serve::start(shared, cfg).expect("server starts");
    let addr = handle.addr();

    let t0 = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let hello = client.hello(0xC0_0000 + c as u64).expect("hello");
                assert_eq!(hello, Response::HelloOk);
                let stream = conn_stream(c, per_conn);
                let mut latencies = Vec::with_capacity(per_conn.div_ceil(BURST));
                for burst in stream.chunks(BURST) {
                    let b0 = Instant::now();
                    for &request in burst {
                        client.enqueue(&Request::Buy {
                            kind: ModelKind::LinearRegression,
                            request,
                        });
                    }
                    client.flush().expect("flush");
                    for _ in 0..burst.len() {
                        let (_, resp) = client.recv().expect("recv");
                        assert!(
                            matches!(resp, Response::BuyOk { .. }),
                            "stream is satisfiable, got {resp:?}"
                        );
                    }
                    latencies.push(b0.elapsed().as_secs_f64() / burst.len() as f64);
                }
                (latencies, client.digest())
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut digest = mbp_serve::wire::DIGEST_SEED;
    for w in workers {
        let (lat, d) = w.join().expect("client thread");
        latencies.extend(lat);
        digest = mbp_serve::wire::digest_bytes(digest, &d.to_le_bytes());
    }
    let seconds = t0.elapsed().as_secs_f64();

    handle.shutdown();
    handle.wait();
    RunResult {
        seconds,
        latencies,
        digest,
    }
}

fn percentile_micros(latencies: &mut [f64], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(f64::total_cmp);
    let idx = ((latencies.len() as f64 * q) as usize).min(latencies.len() - 1);
    latencies[idx] * 1e6
}

/// Runs one sweep point twice from identical seeds, keeping the faster
/// run's wall time and the better tail, and checking digest equality.
fn measure_point(conns: usize, per_conn: usize, batch_admission: bool) -> NetSweepPoint {
    let mut first = drive(conns, per_conn, batch_admission);
    let mut second = drive(conns, per_conn, batch_admission);
    let requests = conns * per_conn;
    let seconds = first.seconds.min(second.seconds);
    let p50 = percentile_micros(&mut first.latencies, 0.50)
        .min(percentile_micros(&mut second.latencies, 0.50));
    let p99 = percentile_micros(&mut first.latencies, 0.99)
        .min(percentile_micros(&mut second.latencies, 0.99));
    NetSweepPoint {
        connections: conns,
        requests,
        seconds,
        rps: if seconds > 0.0 {
            requests as f64 / seconds
        } else {
            0.0
        },
        p50_micros: p50,
        p99_micros: p99,
        digest: first.digest,
        deterministic: first.digest == second.digest,
    }
}

/// Runs the full network sweep with `per_conn` requests per connection.
pub fn run(per_conn: usize) -> NetBaseline {
    let _span = mbp_obs::span("mbp.bench.netbench");
    let per_conn = per_conn.max(BURST);

    let sweep: Vec<NetSweepPoint> = SWEEP_CONNS
        .iter()
        .map(|&conns| measure_point(conns, per_conn, true))
        .collect();

    let best = sweep
        .iter()
        .max_by(|a, b| a.rps.total_cmp(&b.rps))
        .expect("sweep is non-empty");
    let saturation_rps = best.rps;
    let saturation_conns = best.connections;
    let batched_digest_at_best = best.digest;

    // The one-dispatch-per-request baseline at the saturation point.
    let per_request = measure_point(saturation_conns, per_conn, false);
    let per_request_rps = per_request.rps;
    let batch_admission_speedup = if per_request_rps > 0.0 {
        saturation_rps / per_request_rps
    } else {
        0.0
    };
    let per_request_matches_batched = per_request.digest == batched_digest_at_best;

    let deterministic = sweep.iter().all(|p| p.deterministic) && per_request.deterministic;

    NetBaseline {
        meta: crate::RunMeta::from_env(),
        requests_per_conn: per_conn,
        sweep,
        saturation_rps,
        saturation_conns,
        per_request_rps,
        batch_admission_speedup,
        per_request_matches_batched,
        deterministic,
    }
}

impl NetBaseline {
    /// The baseline as artifact rows (`BENCH_serve_net.json`). Digests
    /// are exact u64 rows.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = vec![
            Row::exact("requests_per_conn", self.requests_per_conn as u64, "count"),
            Row::num("saturation_rps", self.saturation_rps, "1/s", Better::Higher),
            Row::exact("saturation_conns", self.saturation_conns as u64, "count"),
            Row::num("per_request_rps", self.per_request_rps, "1/s", Better::None),
            Row::num(
                "batch_admission_speedup",
                self.batch_admission_speedup,
                "x",
                Better::Higher,
            )
            .floor(2.0),
            Row::flag(
                "per_request_matches_batched",
                self.per_request_matches_batched,
                Better::True,
            ),
            Row::flag("deterministic", self.deterministic, Better::True),
        ];
        for p in &self.sweep {
            let n = format!("sweep.{}conns", p.connections);
            rows.extend([
                Row::exact(format!("{n}.requests"), p.requests as u64, "count"),
                Row::num(format!("{n}.seconds"), p.seconds, "s", Better::None),
                Row::num(format!("{n}.rps"), p.rps, "1/s", Better::None),
                Row::num(format!("{n}.p50_micros"), p.p50_micros, "us", Better::None),
                Row::num(format!("{n}.p99_micros"), p.p99_micros, "us", Better::Lower),
                Row::exact(format!("{n}.digest"), p.digest, "digest"),
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
    fn smoke_sweep_is_deterministic_and_complete() {
        let b = run(64);
        assert_eq!(b.sweep.len(), SWEEP_CONNS.len());
        assert!(b.sweep.iter().all(|p| p.rps > 0.0));
        assert!(b.deterministic, "a sweep point failed to reproduce");
        assert!(
            b.per_request_matches_batched,
            "batch admission changed responses"
        );
        assert!(b.batch_admission_speedup > 0.0);
    }
}
