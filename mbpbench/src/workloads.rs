//! The three workloads and the metrics each run reports.
//!
//! A run sets the market up [`SETUP_REPEATS`] times (the last set-up
//! stays up), drives traffic, drains the daemon gracefully and — where a
//! log is attached — restarts from it, timed. The correctness checks then
//! run against in-process replays; they are not timed.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. Its
//! traffic is a sequence of rounds, each an open-loop segment at the
//! workload's fixed Poisson rate followed by a pipelined saturation
//! segment, and each metric is the median over the rounds: a stall of
//! the shared machine spoils a round, not the run.
//!
//! A traced run (`--trace 1`) drives an untraced open-loop reference
//! phase, then turns `mbp_obs` tracing on for an open-loop phase and a
//! saturation phase, and reports the per-layer breakdown.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mbp_core::arbitrage::audit;
use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, PurchaseRequest};
use mbp_core::pricing::{BatchScratch, PhiMemo, PricingFunction, PricingTable};
use mbp_data::TrainTest;
use mbp_obs::Snapshot;
use mbp_randx::seeded_rng;
use mbp_serve::wire::{Request, Response};
use mbp_serve::Client;
use rand::Rng;

use crate::client::{open_loop, saturate, Acked, Failures, OpenLoopResult, WireConn};
use crate::market::{self, Market, SetupTimes, WalMode, KIND, REQUEST_RANGE};
use crate::report::{Metric, Outcome};
use crate::schedule::{poisson_due_ns, request_stream, Op};
use crate::stats::{median, Summary};

/// Open-loop arrival rate of `browse`, requests per second.
pub const BROWSE_RATE: f64 = 20_000.0;
/// Open-loop arrival rate of `buy-durable`, requests per second.
pub const BUY_DURABLE_RATE: f64 = 20_000.0;
/// Open-loop arrival rate of the buyer in `reprice`, requests per second.
pub const REPRICE_RATE: f64 = 10_000.0;
/// How often the `reprice` seller publishes.
pub const REPRICE_INTERVAL: Duration = Duration::from_millis(100);
/// Requests kept in flight by the saturation segments.
pub const SATURATION_WINDOW: usize = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Target length of one round of an untraced run.
pub const ROUND_SECONDS: f64 = 2.0;
/// Share of a round spent in open loop; the rest saturates.
pub const OPEN_LOOP_SHARE: f64 = 0.7;
/// A run whose generator sent its median request later than this after
/// its due time could not keep to the schedule, and is invalid.
pub const LAG_P50_LIMIT_US: f64 = 100.0;
/// A run whose generator sent its p99 request later than this after its
/// due time was stalled too long to call its traffic open-loop, and is
/// invalid. Shorter stalls (the host preempting a virtual CPU for a
/// millisecond or two) are charged to the latencies, which are timed from
/// the due time.
pub const LAG_P99_LIMIT_US: f64 = 10_000.0;
/// A run whose generator sent at less than this share of the target rate
/// is invalid.
pub const MIN_RATE_SHARE: f64 = 0.98;
/// Length of the stream the saturation segments cycle through.
const SATURATION_STREAM: usize = 1 << 16;
/// Distinct curves in the seller's research schedule; it publishes them
/// in a cycle.
const RESEARCH_CURVES: usize = 32;
/// Arbitrage audit resolution for the published curves.
const AUDIT_RESOLUTION: u64 = 4;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 95% `Quote` / 5% `Buy`, no log, 512-point listing.
    Browse,
    /// 100% `Buy` with the write-ahead log attached.
    BuyDurable,
    /// `Buy` beside a seller that publishes a 2048-point DP curve.
    Reprice,
}

struct Spec {
    rate: f64,
    quote_share: f64,
    points: usize,
    /// The log is attached in every run.
    wal: bool,
    /// The log is attached in the traced run only, so the per-layer
    /// breakdown covers the WAL while the end-to-end figures stay off the
    /// disk.
    traced_wal: bool,
    reprice: bool,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "browse" => Some(Workload::Browse),
            "buy-durable" => Some(Workload::BuyDurable),
            "reprice" => Some(Workload::Reprice),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::BuyDurable => "buy-durable",
            Workload::Reprice => "reprice",
        }
    }

    fn spec(self) -> Spec {
        match self {
            Workload::Browse => Spec {
                rate: BROWSE_RATE,
                quote_share: 0.95,
                points: 512,
                wal: false,
                traced_wal: false,
                reprice: false,
            },
            Workload::BuyDurable => Spec {
                rate: BUY_DURABLE_RATE,
                quote_share: 0.0,
                points: 512,
                wal: true,
                traced_wal: true,
                reprice: false,
            },
            Workload::Reprice => Spec {
                rate: REPRICE_RATE,
                quote_share: 0.0,
                points: mbp_serve::wire::MAX_PUBLISH_POINTS,
                wal: false,
                traced_wal: true,
                reprice: true,
            },
        }
    }
}

/// Seed offsets that keep the streams drawn from one workload seed apart.
mod salt {
    pub const HELLO: u64 = 0x4845_4c4c_4f00_0001;
    pub const SATURATION: u64 = 0x5341_5455_5241_5445;
    pub const REFERENCE: u64 = 0x5245_4645_5245_4e43;
    pub const SELLER: u64 = 0x5345_4c4c_4552_0001;
}

/// The seed of round `r` of a run seeded `seed`.
fn round_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_add((r as u64) << 32)
}

/// One curve of the seller's schedule, researched ahead of the traffic.
struct Research {
    /// Research (moving the demand peak) plus the DP.
    research_s: f64,
    /// `Broker::price_from_research`.
    dp_s: f64,
    /// The curve to publish.
    pricing: PricingFunction,
}

/// The seller's schedule: [`RESEARCH_CURVES`] curves, each from research
/// whose demand peak has moved one seeded step from the last. The DP is
/// solved here, before the traffic starts, and timed: solved live, its
/// O(n²) tables (37 MB at 2048 points, allocated and freed per solve)
/// stall every thread of the process in page faults, which on a two-core
/// machine makes the open-loop generator send milliseconds late.
fn research_schedule(data: &TrainTest, seed: u64, points: usize) -> Vec<Research> {
    // The seller's own broker only runs the research DP; it never serves,
    // so it needs no support or listing.
    let broker = Broker::new(data.clone());
    let mut research = market::seller(data.clone(), points, 0.5);
    let mut rng = seeded_rng(seed ^ salt::SELLER);
    let mut peak = 0.5f64;
    (0..RESEARCH_CURVES)
        .map(|_| {
            peak = (peak + rng.gen_range(-0.15..0.15)).clamp(0.05, 0.95);
            let start = Instant::now();
            research.demand_curve = market::demand_peak(peak);
            let t = Instant::now();
            let pricing = broker.price_from_research(&research).pricing;
            Research {
                research_s: start.elapsed().as_secs_f64(),
                dp_s: t.elapsed().as_secs_f64(),
                pricing,
            }
        })
        .collect()
}

/// One seller publish, as the seller saw it.
struct Reprice {
    /// Index of the curve in the research schedule.
    curve: usize,
    /// Research start to `PublishOk`: the curve's research and DP time
    /// plus the live `Publish` round trip.
    total_s: f64,
    /// `false` when the daemon did not answer `PublishOk`.
    ok: bool,
}

/// The `reprice` seller: its own connection and thread. Every
/// [`REPRICE_INTERVAL`] it publishes the next curve of its schedule.
struct SellerThread {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<io::Result<Vec<Reprice>>>,
}

impl SellerThread {
    fn spawn(addr: SocketAddr, schedule: Arc<Vec<Research>>) -> SellerThread {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut client = Client::connect(addr)?;
            let mut out = Vec::new();
            let t0 = Instant::now();
            for k in 1u32.. {
                market::sleep_until(t0 + REPRICE_INTERVAL * k);
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                let curve = (k as usize - 1) % schedule.len();
                let research = &schedule[curve];
                let pricing = &research.pricing;
                let points = pricing
                    .grid()
                    .iter()
                    .copied()
                    .zip(pricing.prices().iter().copied())
                    .collect();
                let start = Instant::now();
                let (_, response) = client.call(&Request::Publish { kind: KIND, points })?;
                out.push(Reprice {
                    curve,
                    total_s: research.research_s + start.elapsed().as_secs_f64(),
                    ok: response == Response::PublishOk,
                });
            }
            Ok(out)
        });
        SellerThread { stop, handle }
    }

    fn finish(self) -> io::Result<Vec<Reprice>> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .map_err(|_| io::Error::other("seller thread panicked"))?
    }
}

/// Requests attempted and failed in one kind of phase.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCount {
    attempted: u64,
    failures: Failures,
}

impl PhaseCount {
    fn note(&self, name: &str) -> String {
        let f = self.failures;
        format!(
            "phase {name}: attempted {} failed {} (errors {}, backpressure {}, timeouts {})",
            self.attempted,
            f.total(),
            f.errors,
            f.backpressure,
            f.timeouts
        )
    }
}

/// A stretch of the buyer's request stream, kept for the replay.
enum Segment {
    /// Open-loop requests, in send order.
    Listed(Vec<Op>),
    /// The first `n` requests of the saturation stream, cycled.
    Cycled(usize),
}

/// The buyer's traffic over the whole run.
struct Traffic {
    conn: WireConn,
    sat_ops: Vec<Op>,
    segments: Vec<Segment>,
    acked: Vec<Acked>,
    open: PhaseCount,
    saturation: PhaseCount,
}

impl Traffic {
    /// Sends `ops` on the schedule `due`.
    fn open_loop(&mut self, due: &[u64], ops: Vec<Op>) -> io::Result<OpenLoopResult> {
        let r = open_loop(&mut self.conn, due, &ops)?;
        self.acked.extend_from_slice(&r.acked);
        self.open.attempted += r.attempted as u64;
        self.open.failures.add(r.failures);
        self.segments.push(Segment::Listed(ops));
        Ok(r)
    }

    /// Saturates for `seconds`; returns completed requests per second.
    fn saturate(&mut self, seconds: f64) -> io::Result<f64> {
        let r = saturate(
            &mut self.conn,
            &self.sat_ops,
            Duration::from_secs_f64(seconds),
            SATURATION_WINDOW,
        )?;
        self.acked.extend_from_slice(&r.acked);
        self.saturation.attempted += r.sent as u64;
        self.saturation.failures.add(r.failures);
        self.segments.push(Segment::Cycled(r.sent));
        Ok(r.completed as f64 / r.seconds)
    }

    /// Every request sent, in order.
    fn ops(&self) -> impl Iterator<Item = &Op> {
        let sat = &self.sat_ops;
        self.segments
            .iter()
            .flat_map(move |seg| -> Box<dyn Iterator<Item = &Op> + '_> {
                match seg {
                    Segment::Listed(ops) => Box::new(ops.iter()),
                    Segment::Cycled(n) => Box::new((0..*n).map(move |i| &sat[i % sat.len()])),
                }
            })
    }
}

/// Latency summaries of one open-loop segment, in µs.
struct Latencies {
    all: Summary,
    buys: Summary,
    quotes: Summary,
}

impl Latencies {
    fn of(r: &OpenLoopResult, ops: &[Op]) -> Latencies {
        let mut all = Vec::with_capacity(ops.len());
        let mut buys = Vec::new();
        let mut quotes = Vec::new();
        for (op, &ns) in ops.iter().zip(&r.latency_ns) {
            let us = ns / 1e3;
            all.push(us);
            if op.is_buy() {
                buys.push(us);
            } else {
                quotes.push(us);
            }
        }
        Latencies {
            all: Summary::of(&mut all),
            buys: Summary::of(&mut buys),
            quotes: Summary::of(&mut quotes),
        }
    }
}

/// The p99, or the highest supported percentile's value when a segment
/// has too few samples for a p99 (only with very short `--seconds`).
fn p99(s: &Summary) -> f64 {
    s.p99.or(s.p90).unwrap_or(s.p50)
}

/// Generator health pooled over every open-loop segment of a run.
#[derive(Default)]
struct Pacing {
    lag_us: Vec<f64>,
    sent: usize,
    span_s: f64,
}

impl Pacing {
    fn add(&mut self, r: &OpenLoopResult, due: &[u64]) {
        self.lag_us.extend(r.lag_ns.iter().map(|ns| ns / 1e3));
        self.sent += r.attempted;
        self.span_s += due.last().map_or(0.0, |&d| d as f64 / 1e9);
    }

    fn lag(&self) -> Summary {
        Summary::of(&mut self.lag_us.clone())
    }

    fn achieved_rate(&self) -> f64 {
        self.sent as f64 / self.span_s.max(f64::MIN_POSITIVE)
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn median_of(v: impl Iterator<Item = f64>) -> f64 {
    median(&v.collect::<Vec<_>>())
}

/// How long after its build a run waits before it starts. For up to a
/// minute after the build, the two-core machine it was measured on served
/// at half its usual saturation throughput (the build writes hundreds of
/// MB and keeps both cores busy); the first run after a build waits out
/// the rest of this time instead of measuring it.
const SETTLE_AFTER_BUILD: Duration = Duration::from_secs(90);

/// Sleeps until [`SETTLE_AFTER_BUILD`] has passed since this executable
/// was written.
fn settle_after_build() {
    let built = std::env::current_exe()
        .and_then(|exe| exe.metadata())
        .and_then(|meta| meta.modified());
    if let Ok(age) = built.map(|t| t.elapsed().unwrap_or(Duration::ZERO)) {
        if age < SETTLE_AFTER_BUILD {
            std::thread::sleep(SETTLE_AFTER_BUILD - age);
        }
    }
}

/// Runs `workload` once and reports its metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> io::Result<Outcome> {
    settle_after_build();
    crate::sys::flush_dirty_pages();
    mbp_obs::enable();
    mbp_obs::set_tracing(false);
    mbp_obs::reset();
    let wal_root = PathBuf::from(".bench_wal").join(format!(
        "{}-{}-{}",
        workload.name(),
        seed,
        std::process::id()
    ));
    let result = run_in(&workload.spec(), seed, seconds, trace, &wal_root);
    let _ = std::fs::remove_dir_all(&wal_root);
    // Remove the parent too when no other run is using it.
    let _ = std::fs::remove_dir(".bench_wal");
    result
}

fn run_in(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    wal_root: &Path,
) -> io::Result<Outcome> {
    let hello_seed = seed ^ salt::HELLO;

    // Set-up, repeated; the last one stays up for the traffic.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut market: Option<Market> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(m) = market.take() {
            market::drain(m.server);
        }
        let dir = wal_root.join(format!("setup-{k}"));
        let mode = match (spec.wal || (trace && spec.traced_wal), trace) {
            (false, _) => WalMode::Off,
            (true, false) => WalMode::Direct(dir),
            (true, true) => WalMode::Timed(dir),
        };
        let (m, times) = market::boot(seed, spec.points, &mode, hello_seed)?;
        setups.push(times);
        market = Some(m);
    }
    let Some(m) = market else {
        return Err(io::Error::other("no set-up ran"));
    };
    let Market {
        data,
        shared,
        pricing,
        server,
        buyer,
        wal,
    } = m;
    let schedule = spec
        .reprice
        .then(|| Arc::new(research_schedule(&data, seed, spec.points)));
    let seller = schedule
        .as_ref()
        .map(|s| SellerThread::spawn(server.addr(), Arc::clone(s)));

    let mut out = Outcome::default();
    let mut traffic = Traffic {
        conn: buyer,
        sat_ops: request_stream(
            seed ^ salt::SATURATION,
            SATURATION_STREAM,
            spec.quote_share,
            REQUEST_RANGE,
        ),
        segments: Vec::new(),
        acked: Vec::new(),
        open: PhaseCount::default(),
        saturation: PhaseCount::default(),
    };
    let mut pacing = Pacing::default();
    let mut rounds: Vec<(Latencies, f64)> = Vec::new();
    let mut peak_rss = f64::NAN;
    let mut layers = Vec::new();
    if trace {
        let due = poisson_due_ns(seed ^ salt::REFERENCE, spec.rate, (seconds * 0.3e9) as u64);
        let ops = request_stream(
            seed ^ salt::REFERENCE,
            due.len(),
            spec.quote_share,
            REQUEST_RANGE,
        );
        let contention0 = shared.contention_count();
        let r = traffic.open_loop(&due, ops.clone())?;
        let contention = shared.contention_count() - contention0;
        let reference = Latencies::of(&r, &ops);

        mbp_obs::reset();
        mbp_obs::set_tracing(true);
        let due = poisson_due_ns(seed, spec.rate, (seconds * 0.4e9) as u64);
        let ops = request_stream(seed, due.len(), spec.quote_share, REQUEST_RANGE);
        let r = traffic.open_loop(&due, ops.clone())?;
        pacing.add(&r, &due);
        let traced_snapshot = mbp_obs::snapshot();
        mbp_obs::reset();
        traffic.saturate(seconds * 0.3)?;
        let sat_snapshot = mbp_obs::snapshot();
        mbp_obs::set_tracing(false);
        mbp_obs::reset();
        let traced = Latencies::of(&r, &ops);
        layers = serve_core_layers(
            &traced_snapshot,
            &sat_snapshot,
            &r,
            &ops,
            &traced,
            &reference,
            contention,
            &pricing,
        );
    } else {
        let n = (seconds / ROUND_SECONDS).round().max(1.0) as usize;
        let round_s = seconds / n as f64;
        for r in 0..n {
            let s = round_seed(seed, r);
            let due = poisson_due_ns(s, spec.rate, (round_s * OPEN_LOOP_SHARE * 1e9) as u64);
            let ops = request_stream(s, due.len(), spec.quote_share, REQUEST_RANGE);
            let res = traffic.open_loop(&due, ops.clone())?;
            pacing.add(&res, &due);
            if r == 0 {
                // Read before any saturation: how many sales the ledger
                // and log hold after it depends on the throughput reached.
                peak_rss = market::peak_rss_mb();
            }
            let lat = Latencies::of(&res, &ops);
            let rps = traffic.saturate(round_s * (1.0 - OPEN_LOOP_SHARE))?;
            rounds.push((lat, rps));
        }
    }
    let reprices = match seller {
        Some(s) => s.finish()?,
        None => Vec::new(),
    };

    // Graceful drain, then the log's final sync and a timed restart.
    let digest = traffic.conn.digest();
    market::drain(server);
    let mut failures = Vec::new();
    let (wal_layers, restart) = match wal {
        Some(w) => {
            let (layers, restart) = close_wal(&w, &data, &mut failures)?;
            (layers, Some(restart))
        }
        None => (WalLayers::default(), None),
    };

    // Correctness checks (untimed).
    match &schedule {
        Some(schedule) => check_reprice(
            &mut failures,
            &pricing,
            schedule,
            &reprices,
            &traffic.acked,
            &shared,
        ),
        None => {
            let broker = market::listed_broker(&data, &pricing)?;
            let want = market::replay_digest(&broker, hello_seed, traffic.ops());
            if want != digest {
                failures.push(format!(
                    "response digest {digest:#x} != in-process replay {want:#x}"
                ));
            }
        }
    }
    if let Some(r) = &restart {
        let mut acked: Vec<(u64, u64)> = traffic
            .acked
            .iter()
            .map(|a| (a.ncp.to_bits(), a.price.to_bits()))
            .collect();
        acked.sort_unstable();
        if acked != r.sales {
            failures.push(format!(
                "recovered {} sales, the buyer was acked {}",
                r.sales.len(),
                acked.len()
            ));
        }
    }
    let lag = pacing.lag();
    let lag_p99 = p99(&lag);
    if !(lag.p50 <= LAG_P50_LIMIT_US && lag_p99 <= LAG_P99_LIMIT_US)
        || pacing.achieved_rate() < MIN_RATE_SHARE * spec.rate
    {
        failures.push(format!(
            "generator fell behind (lag p50 {:.1} us, p99 {lag_p99:.1} us, {:.0} of {:.0} req/s sent): latencies invalid",
            lag.p50,
            pacing.achieved_rate(),
            spec.rate
        ));
    }
    out.correct = failures.is_empty();
    out.notes
        .extend(failures.into_iter().map(|f| format!("FAILED: {f}")));

    let publishes = PhaseCount {
        attempted: reprices.len() as u64,
        failures: Failures {
            errors: reprices.iter().filter(|r| !r.ok).count() as u64,
            ..Failures::default()
        },
    };
    for (name, phase) in [
        ("open-loop", &traffic.open),
        ("saturation", &traffic.saturation),
        ("publish", &publishes),
    ] {
        out.attempted += phase.attempted;
        out.failed += phase.failures.total();
        out.notes.push(phase.note(name));
    }

    let median_setup = |f: fn(&SetupTimes) -> f64| median_of(setups.iter().map(f));
    let mut dp_ms: Vec<f64> = setups.iter().map(|s| s.dp_s * 1e3).collect();
    if let Some(schedule) = &schedule {
        dp_ms.extend(schedule.iter().map(|r| r.dp_s * 1e3));
    }
    if trace {
        out.metrics
            .push(metric("loadgen.lag_p99_us", lag_p99, "us", lag.n));
        out.metrics.push(metric(
            "loadgen.achieved_rps",
            pacing.achieved_rate(),
            "1/s",
            pacing.sent,
        ));
        out.metrics.push(metric(
            "loadgen.backpressure",
            (traffic.open.failures.backpressure + traffic.saturation.failures.backpressure) as f64,
            "count",
            0,
        ));
        out.metrics.extend(layers);
        out.metrics.push(metric(
            "core.publish_us",
            median_setup(|s| s.publish_s * 1e6),
            "us",
            setups.len(),
        ));
        out.metrics
            .push(metric("revenue.dp_ms", median(&dp_ms), "ms", dp_ms.len()));
        out.metrics.extend(wal_layers.metrics());
        out.metrics.push(metric(
            "ml.support_ms",
            median_setup(|s| s.support_s * 1e3),
            "ms",
            setups.len(),
        ));
    } else {
        let n_all: usize = rounds.iter().map(|(l, _)| l.all.n).sum();
        let n_buys: usize = rounds.iter().map(|(l, _)| l.buys.n).sum();
        let per_round = |f: fn(&(Latencies, f64)) -> f64| median_of(rounds.iter().map(f));
        out.metrics.push(metric(
            "req_p50_us",
            per_round(|r| r.0.all.p50),
            "us",
            n_all,
        ));
        out.metrics.push(metric(
            "buy_p50_us",
            per_round(|r| r.0.buys.p50),
            "us",
            n_buys,
        ));
        out.metrics
            .push(metric("sat_rps", per_round(|r| r.1), "1/s", rounds.len()));
        out.metrics.push(metric(
            "setup_s",
            median_setup(|s| s.total_s),
            "s",
            setups.len(),
        ));
        out.metrics.push(metric("peak_rss_mb", peak_rss, "MB", 1));

        // For the table only: tails too unsteady across runs to bound,
        // and workload-specific figures.
        out.extra.push(metric(
            "req_p99_us",
            per_round(|r| p99(&r.0.all)),
            "us",
            n_all,
        ));
        out.extra.push(metric(
            "buy_p99_us",
            per_round(|r| p99(&r.0.buys)),
            "us",
            n_buys,
        ));
        let n_quotes: usize = rounds.iter().map(|(l, _)| l.quotes.n).sum();
        if n_quotes > 0 {
            out.extra.push(metric(
                "quote_p50_us",
                per_round(|r| r.0.quotes.p50),
                "us",
                n_quotes,
            ));
            out.extra.push(metric(
                "quote_p99_us",
                per_round(|r| p99(&r.0.quotes)),
                "us",
                n_quotes,
            ));
        }
        out.extra
            .push(metric("loadgen.lag_p50_us", lag.p50, "us", lag.n));
        out.extra
            .push(metric("loadgen.lag_p99_us", lag_p99, "us", lag.n));
        out.extra.push(metric(
            "setup.data_s",
            median_setup(|s| s.data_s),
            "s",
            setups.len(),
        ));
        out.extra.push(metric(
            "setup.serve_s",
            median_setup(|s| s.serve_s),
            "s",
            setups.len(),
        ));
    }
    if !reprices.is_empty() {
        let mut ms: Vec<f64> = reprices.iter().map(|r| r.total_s * 1e3).collect();
        let s = Summary::of(&mut ms);
        out.extra.push(metric("reprice_p50_ms", s.p50, "ms", s.n));
        out.extra.push(metric(
            "reprice_p90_ms",
            s.p90.unwrap_or(f64::NAN),
            "ms",
            s.n,
        ));
    }
    if let Some(r) = &restart {
        out.extra
            .push(metric("recover_s", r.scan_s + r.apply_s, "s", 1));
    }
    Ok(out)
}

/// The WAL layer of one run; all zero when no log was attached.
#[derive(Debug, Default)]
struct WalLayers {
    record_sale_ns: f64,
    calls: u64,
    bytes_per_sale: f64,
    sync_ms: f64,
    io_errors: u64,
    recover_scan_s: f64,
    recover_apply_s: f64,
}

impl WalLayers {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric(
                "wal.record_sale_ns",
                self.record_sale_ns,
                "ns",
                self.calls as usize,
            ),
            metric("wal.calls", self.calls as f64, "count", 0),
            metric("wal.bytes_per_sale", self.bytes_per_sale, "B", 0),
            metric("wal.recover_scan_s", self.recover_scan_s, "s", 1),
            metric("wal.recover_apply_s", self.recover_apply_s, "s", 1),
            metric("wal.sync_ms", self.sync_ms, "ms", 1),
            metric("wal.io_errors", self.io_errors as f64, "count", 0),
        ]
    }
}

/// After the drain: the log's final (timed) sync, its health, and a timed
/// restart from its directory. A failed sync or a counted I/O error is a
/// failed check.
fn close_wal(
    w: &market::Wal,
    data: &TrainTest,
    failures: &mut Vec<String>,
) -> io::Result<(WalLayers, market::Restart)> {
    let mut layers = WalLayers::default();
    let t = Instant::now();
    let synced = w.durability.sync();
    layers.sync_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = synced {
        failures.push(format!("final wal sync failed: {e}"));
    }
    layers.io_errors = w.durability.io_error_count();
    if layers.io_errors != 0 {
        failures.push(format!("wal io_error_count = {}", layers.io_errors));
    }
    let logged = w.durability.sales_logged();
    layers.bytes_per_sale = market::dir_bytes(&w.dir) as f64 / logged.max(1) as f64;
    if let Some(t) = &w.timed {
        let (calls, ns) = t.sale_totals();
        layers.calls = calls;
        layers.record_sale_ns = ns as f64 / calls.max(1) as f64;
    }
    let restart = market::restart(&w.dir, data)?;
    layers.recover_scan_s = restart.scan_s;
    layers.recover_apply_s = restart.apply_s;
    Ok((layers, restart))
}

fn hist_sum(s: &Snapshot, name: &str) -> f64 {
    s.histogram(name).map_or(0.0, |h| h.sum)
}

fn phase_sum(s: &Snapshot, phase: &str) -> f64 {
    s.labeled
        .iter()
        .filter(|l| l.name == "mbp.trace.phase.seconds")
        .filter(|l| l.labels.iter().any(|(k, v)| k == "phase" && v == phase))
        .map(|l| l.hist.sum)
        .sum()
}

/// The serve and core layers of a traced run. Span totals are divided
/// by the requests of the phase, so each is that layer's busy time per
/// request; `serve.unattributed_us` is the client's median minus the
/// server-side total.
#[allow(clippy::too_many_arguments)]
fn serve_core_layers(
    traced: &Snapshot,
    saturation: &Snapshot,
    ol: &OpenLoopResult,
    ops: &[Op],
    traced_lat: &Latencies,
    reference_lat: &Latencies,
    contention: u64,
    pricing: &PricingFunction,
) -> Vec<Metric> {
    let n = ol.attempted.max(1) as f64;
    let buys = ops.iter().filter(|o| o.is_buy()).count().max(1) as f64;
    let per_req = |secs: f64| secs * 1e6 / n;
    let read = hist_sum(traced, "mbp.serve.read.seconds");
    let decode = hist_sum(traced, "mbp.serve.decode.seconds");
    let batch = hist_sum(traced, "mbp.serve.batch.seconds");
    let dispatch = hist_sum(traced, "mbp.serve.dispatch.seconds");
    let encode = hist_sum(traced, "mbp.serve.encode.seconds");
    let write = hist_sum(traced, "mbp.serve.write.seconds");
    let kernel = hist_sum(traced, "mbp.core.buy_batch.seconds")
        + hist_sum(traced, "mbp.core.price_batch.seconds");
    let ledger = phase_sum(traced, "ledger");
    let noise = phase_sum(traced, "noise");
    let lock_wait = phase_sum(traced, "lock_wait");
    let dispatch_self = (dispatch - batch - encode - kernel - ledger).max(0.0);
    let server_side = read + decode + dispatch + write;
    let (phi_us, lookup_us) = kernel_probe(pricing, ops);
    let batch_size = saturation
        .histogram("mbp.serve.batch_size")
        .map_or(0.0, |h| h.mean());
    vec![
        metric("serve.read_us", per_req(read), "us", ol.attempted),
        metric("serve.decode_us", per_req(decode), "us", ol.attempted),
        metric("serve.batch_us", per_req(batch), "us", ol.attempted),
        metric(
            "serve.dispatch_us",
            per_req(dispatch_self),
            "us",
            ol.attempted,
        ),
        metric("serve.encode_us", per_req(encode), "us", ol.attempted),
        metric("serve.write_us", per_req(write), "us", ol.attempted),
        metric(
            "serve.unattributed_us",
            traced_lat.all.p50 - per_req(server_side),
            "us",
            ol.attempted,
        ),
        metric("serve.batch_size_mean", batch_size, "count", 0),
        metric("core.lookup_us", lookup_us, "us", ol.attempted),
        metric("core.phi_us", phi_us, "us", ol.attempted),
        metric("core.noise_us", noise * 1e6 / buys, "us", buys as usize),
        metric("core.ledger_us", ledger * 1e6 / buys, "us", buys as usize),
        metric("core.lock_wait_us", per_req(lock_wait), "us", ol.attempted),
        metric("core.contention", contention as f64, "count", 0),
        metric(
            "obs.trace_overhead",
            traced_lat.all.p50 / reference_lat.all.p50,
            "ratio",
            traced_lat.all.n,
        ),
    ]
}

/// Times, from outside the daemon, the two halves of resolving `ops`
/// against the listing compiled from `pricing`: φ / budget inversion to a
/// precision, then the table lookup of its price — one request per call,
/// as an open-loop dispatch sees them. Returns µs per request
/// `(phi, lookup)`, the median of five passes.
fn kernel_probe(pricing: &PricingFunction, ops: &[Op]) -> (f64, f64) {
    let table: PricingTable = pricing.compile();
    let phi = PhiMemo::new(&SquareLossTransform, &table);
    let x_max = table.knots().last().copied().unwrap_or(f64::INFINITY);
    let mut xs = Vec::with_capacity(ops.len());
    let mut scratch = BatchScratch::default();
    let mut prices = Vec::new();
    let mut phi_us = Vec::new();
    let mut lookup_us = Vec::new();
    let mut sink = 0.0f64;
    let n = ops.len().max(1) as f64;
    for _ in 0..5 {
        xs.clear();
        let t = Instant::now();
        for op in ops {
            let x = match op.request() {
                PurchaseRequest::AtNcp(d) => Some(1.0 / d),
                PurchaseRequest::ErrorBudget(e) => {
                    phi.ncp_for_error(&SquareLossTransform, e).map(|d| 1.0 / d)
                }
                PurchaseRequest::PriceBudget(b) => {
                    table.max_precision_for_budget(b).map(|x| x.min(x_max))
                }
            };
            xs.push(x.unwrap_or(f64::NAN));
        }
        phi_us.push(t.elapsed().as_secs_f64() * 1e6 / n);
        let t = Instant::now();
        for x in &xs {
            table.price_at_batch(std::slice::from_ref(x), &mut scratch, &mut prices);
            sink += prices.first().copied().unwrap_or(0.0);
        }
        lookup_us.push(t.elapsed().as_secs_f64() * 1e6 / n);
    }
    std::hint::black_box(sink);
    (median(&phi_us), median(&lookup_us))
}

/// The `reprice` checks: every curve passes the arbitrage audit, every
/// `BuyOk` price is the price of its NCP under one of the live curves,
/// bit for bit, and the final listing is the last curve published.
fn check_reprice(
    failures: &mut Vec<String>,
    initial: &PricingFunction,
    schedule: &[Research],
    reprices: &[Reprice],
    acked: &[Acked],
    shared: &SharedBroker,
) {
    let Some(last) = reprices.last() else {
        failures.push("the seller published nothing".to_string());
        return;
    };
    let curves: Vec<&PricingFunction> = std::iter::once(initial)
        .chain(schedule.iter().map(|r| &r.pricing))
        .collect();
    for (i, c) in curves.iter().enumerate() {
        if !audit(c, c.grid(), AUDIT_RESOLUTION, 1e-9).is_clean() {
            failures.push(format!("curve {i} fails the arbitrage audit"));
        }
    }
    // Buys arrive in time order and curves in publish order, so each
    // price is checked first against the curve the previous one matched.
    let tables: Vec<PricingTable> = curves.iter().map(|c| c.compile()).collect();
    let mut at = 0usize;
    let mut unmatched = 0usize;
    for a in acked {
        let hit = |t: &PricingTable| t.price_for_ncp(a.ncp).to_bits() == a.price.to_bits();
        if hit(&tables[at]) {
            continue;
        }
        match (at..tables.len()).chain(0..at).find(|&i| hit(&tables[i])) {
            Some(i) => at = i,
            None => unmatched += 1,
        }
    }
    if unmatched > 0 {
        failures.push(format!("{unmatched} BuyOk prices match no published curve"));
    }
    let last = &schedule[last.curve].pricing;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let live = shared.with_broker(|b| {
        b.listed_pricing(KIND)
            .map(|p| (bits(p.grid()), bits(p.prices())))
    });
    if live != Some((bits(last.grid()), bits(last.prices()))) {
        failures.push("the final listing is not the last publish".to_string());
    }
}
