//! The market under test: the paper pipeline that lists a model, the
//! daemon that serves it, the optional write-ahead log, and the
//! in-process replays the correctness checks compare against.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::curves::{grid, DemandCurve, DemandShape, ValueCurve, ValueShape};
use mbp_core::market::{
    Broker, DurabilitySink, PurchaseRequest, SaleArena, Seller, Transaction, MAX_BATCH,
};
use mbp_core::pricing::PricingFunction;
use mbp_data::TrainTest;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use mbp_serve::wire::{
    digest_bytes, encode_buy_ok, encode_error, encode_quote_ok, encode_response, market_error_code,
    Response, DIGEST_SEED,
};
use mbp_serve::{ServerConfig, ServerHandle};
use mbp_wal::{Durability, WalConfig};

use crate::client::WireConn;
use crate::schedule::{Op, RequestRange};

/// The model kind every workload lists.
pub const KIND: ModelKind = ModelKind::LinearRegression;
/// Table 3 row whose shape (d = 90 regression) the dataset takes.
pub const DATASET: &str = "YearMSD";
/// Share of the paper's YearMSD size materialised (25,767 rows).
pub const DATA_SCALE: f64 = 0.05;
/// Ridge coefficient of the listed linear regression.
pub const RIDGE: f64 = 1e-6;
/// Precision range `[1/δ]` of the seller's market-research grid.
pub const GRID: (f64, f64) = (1.0, 129.0);
/// Requests ask for precisions strictly inside the grid.
pub const REQUEST_RANGE: RequestRange = RequestRange { lo: 1.5, hi: 128.0 };
/// Width of the demand peak in the seller's research.
const PEAK_WIDTH: f64 = 0.2;

/// Seconds spent in each step of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Data generation to the first connection ready (`Hello` answered).
    pub total_s: f64,
    /// `mbp_data::catalog::load`.
    pub data_s: f64,
    /// `SharedBroker::support`.
    pub support_s: f64,
    /// `Broker::price_from_research` (the `T_bv` DP).
    pub dp_s: f64,
    /// `SharedBroker::publish` (compiles the table and `SegmentIndex`).
    pub publish_s: f64,
    /// `mbp_serve::start` until the buyer's `Hello` is answered.
    pub serve_s: f64,
}

/// How a set-up attaches the write-ahead log.
#[derive(Debug, Clone)]
pub enum WalMode {
    /// No log: the daemon serves from memory.
    Off,
    /// `Durability` attached directly, as `mbp-market serve --wal`.
    Direct(PathBuf),
    /// `Durability` behind a [`TimedSink`] (traced runs only).
    Timed(PathBuf),
}

/// The attached log and, in traced runs, the sink that times it.
pub struct Wal {
    /// The log's directory.
    pub dir: PathBuf,
    /// The live log.
    pub durability: Arc<Durability>,
    /// The forwarding sink, when the run is traced.
    pub timed: Option<Arc<TimedSink>>,
}

/// A listed market served by a running daemon, with one buyer connected.
pub struct Market {
    /// The dataset for sale; replays and restarts rebuild from it.
    pub data: TrainTest,
    /// The broker handle the daemon serves.
    pub shared: SharedBroker,
    /// The listing the set-up published.
    pub pricing: PricingFunction,
    /// The running daemon.
    pub server: ServerHandle,
    /// The buyer's connection.
    pub buyer: WireConn,
    /// The write-ahead log, when attached.
    pub wal: Option<Wal>,
}

/// The seller's market research over `points` grid points, with the
/// demand peak at `peak ∈ [0, 1]` of the grid.
pub fn seller(data: TrainTest, points: usize, peak: f64) -> Seller {
    Seller::new(
        data,
        grid(GRID.0, GRID.1, points),
        ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 100.0),
        demand_peak(peak),
    )
}

/// A demand curve peaked at `peak` of the grid.
pub fn demand_peak(peak: f64) -> DemandCurve {
    DemandCurve::new(DemandShape::Peak {
        center: peak,
        width: PEAK_WIDTH,
    })
}

/// Runs the whole set-up once: YearMSD-shaped data, `support`, research,
/// the DP at `points` points, `publish`, the daemon on loopback, and the
/// buyer's `Hello` seeded with `hello_seed`.
pub fn boot(
    seed: u64,
    points: usize,
    wal: &WalMode,
    hello_seed: u64,
) -> io::Result<(Market, SetupTimes)> {
    let t0 = Instant::now();
    let spec = mbp_data::catalog::find(DATASET).ok_or_else(|| other("catalog lacks YearMSD"))?;
    let data = mbp_data::catalog::load(&spec, DATA_SCALE, seed);
    let data_s = t0.elapsed().as_secs_f64();
    let broker = Broker::new(data.clone());
    let (shared, wal) = match wal {
        WalMode::Off => (SharedBroker::new(broker), None),
        WalMode::Direct(dir) | WalMode::Timed(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            let (durability, _) = Durability::open(dir, WalConfig::default()).map_err(other)?;
            let timed = matches!(wal, WalMode::Timed(_))
                .then(|| Arc::new(TimedSink::new(Arc::clone(&durability))));
            let sink: Arc<dyn DurabilitySink> = match &timed {
                Some(t) => Arc::clone(t) as Arc<dyn DurabilitySink>,
                None => Arc::clone(&durability) as Arc<dyn DurabilitySink>,
            };
            let shared = SharedBroker::with_durability(broker, sink);
            let wal = Wal {
                dir: dir.clone(),
                durability,
                timed,
            };
            (shared, Some(wal))
        }
    };
    let t = Instant::now();
    shared.support(KIND, RIDGE).map_err(other)?;
    let support_s = t.elapsed().as_secs_f64();
    let research = seller(data.clone(), points, 0.5);
    let t = Instant::now();
    let solution = shared.with_broker(|b| b.price_from_research(&research));
    let dp_s = t.elapsed().as_secs_f64();
    let pricing = solution.pricing;
    let t = Instant::now();
    shared
        .publish(KIND, pricing.clone(), Box::new(SquareLossTransform))
        .map_err(other)?;
    let publish_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let server = mbp_serve::start(shared.clone(), ServerConfig::default())?;
    let buyer = WireConn::open(server.addr(), KIND, hello_seed)?;
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        data_s,
        support_s,
        dp_s,
        publish_s,
        serve_s: t.elapsed().as_secs_f64(),
    };
    let market = Market {
        data,
        shared,
        pricing,
        server,
        buyer,
        wal,
    };
    Ok((market, times))
}

fn other<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::other(e.to_string())
}

/// Forwarding [`DurabilitySink`] that times every sale hook of the log it
/// wraps. Attached only in traced runs; untraced runs attach the log
/// directly.
pub struct TimedSink {
    inner: Arc<Durability>,
    sale_ns: AtomicU64,
    sale_calls: AtomicU64,
}

impl TimedSink {
    /// Wraps `inner`.
    pub fn new(inner: Arc<Durability>) -> TimedSink {
        TimedSink {
            inner,
            sale_ns: AtomicU64::new(0),
            sale_calls: AtomicU64::new(0),
        }
    }

    /// `(calls, total ns)` spent in `record_sale`/`record_sales`.
    pub fn sale_totals(&self) -> (u64, u64) {
        (
            self.sale_calls.load(Ordering::Relaxed),
            self.sale_ns.load(Ordering::Relaxed),
        )
    }

    fn timed(&self, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        self.sale_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.sale_calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl DurabilitySink for TimedSink {
    fn record_sale(&self, tx: &Transaction) {
        self.timed(|| self.inner.record_sale(tx));
    }

    fn record_sales(&self, txs: &[Transaction]) {
        self.timed(|| self.inner.record_sales(txs));
    }

    fn record_support(&self, kind: ModelKind, ridge: f64) {
        self.inner.record_support(kind, ridge);
    }

    fn record_publish(&self, kind: ModelKind, grid: &[f64], prices: &[f64]) {
        self.inner.record_publish(kind, grid, prices);
    }

    fn record_epoch(&self, epoch: u64) {
        self.inner.record_epoch(epoch);
    }

    fn record_rng_cursor(&self, seed: u64, draws: u64) {
        self.inner.record_rng_cursor(seed, draws);
    }
}

/// A broker in the state the daemon started from: `data`, supported, and
/// listing `pricing`.
pub fn listed_broker(data: &TrainTest, pricing: &PricingFunction) -> io::Result<Broker> {
    let mut broker = Broker::new(data.clone());
    broker.support(KIND, RIDGE).map_err(other)?;
    broker
        .publish(KIND, pricing.clone(), Box::new(SquareLossTransform))
        .map_err(other)?;
    Ok(broker)
}

/// The response digest a connection must see for `ops` after
/// `Hello { seed: hello_seed }`: the ops are answered by an in-process
/// `broker` (a fresh copy of the daemon's start state) and encoded with
/// the wire codecs. Runs of same-verb ops are answered as one batch; the
/// batch kernel's results do not depend on how requests are chunked.
pub fn replay_digest<'a>(
    broker: &Broker,
    hello_seed: u64,
    ops: impl IntoIterator<Item = &'a Op>,
) -> u64 {
    let mut rng = seeded_rng(hello_seed);
    let mut arena = SaleArena::new();
    let mut out = Vec::new();
    encode_response(&mut out, 1, &Response::HelloOk);
    let mut digest = digest_bytes(DIGEST_SEED, &out);
    out.clear();
    let mut next_id = 2u32;
    let mut run: Vec<PurchaseRequest> = Vec::with_capacity(MAX_BATCH);
    let mut run_is_buy = false;
    let mut flush = |run: &mut Vec<PurchaseRequest>, buys: bool, out: &mut Vec<u8>| {
        if run.is_empty() {
            return;
        }
        if buys {
            let outcome = broker.quote_batch_into(KIND, run, &mut rng, &mut arena);
            for (i, result) in arena.results().enumerate() {
                let id = next_id + i as u32;
                match (&outcome, result) {
                    (Ok(()), Ok(sale)) => encode_buy_ok(
                        out,
                        id,
                        sale.ncp,
                        sale.price,
                        sale.expected_error,
                        sale.model.weights().as_slice(),
                    ),
                    (Ok(()), Err(e)) | (Err(e), _) => {
                        encode_error(out, id, market_error_code(e), &e.to_string())
                    }
                }
            }
        } else {
            match broker.price_batch(KIND, run) {
                Ok(quotes) => {
                    for (i, q) in quotes.iter().enumerate() {
                        let id = next_id + i as u32;
                        match q {
                            Ok(q) => encode_quote_ok(out, id, q.ncp, q.price, q.expected_error),
                            Err(e) => encode_error(out, id, market_error_code(e), &e.to_string()),
                        }
                    }
                }
                Err(e) => {
                    for i in 0..run.len() {
                        let id = next_id + i as u32;
                        encode_error(out, id, market_error_code(&e), &e.to_string());
                    }
                }
            }
        }
        next_id += run.len() as u32;
        run.clear();
    };
    for op in ops {
        if op.is_buy() != run_is_buy || run.len() == MAX_BATCH {
            flush(&mut run, run_is_buy, &mut out);
            digest = digest_bytes(digest, &out);
            out.clear();
            run_is_buy = op.is_buy();
        }
        run.push(op.request());
    }
    flush(&mut run, run_is_buy, &mut out);
    digest_bytes(digest, &out)
}

/// Stops the daemon gracefully (stop accepting, serve what is buffered,
/// flush, close) and waits for every server thread.
pub fn drain(server: ServerHandle) {
    server.shutdown();
    server.wait();
}

/// Total size of the files in `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What a timed restart of the log found and cost.
#[derive(Debug, Clone, Default)]
pub struct Restart {
    /// `Durability::open`: scan, verify and fold every segment.
    pub scan_s: f64,
    /// `RecoveredState::apply` into a fresh `Broker`.
    pub apply_s: f64,
    /// Recovered sales as `(ncp bits, price bits)`, sorted.
    pub sales: Vec<(u64, u64)>,
}

/// Reopens the log in `dir` and replays it into a fresh broker over
/// `data` — the sequence `mbp-market serve --wal` runs at start.
pub fn restart(dir: &Path, data: &TrainTest) -> io::Result<Restart> {
    let mut broker = Broker::new(data.clone());
    let t = Instant::now();
    let (durability, recovery) = Durability::open(dir, WalConfig::default()).map_err(other)?;
    let scan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    recovery.state.apply(&mut broker).map_err(other)?;
    let apply_s = t.elapsed().as_secs_f64();
    drop(durability);
    let mut sales: Vec<(u64, u64)> = broker
        .ledger()
        .iter()
        .map(|tx| (tx.ncp.to_bits(), tx.price.to_bits()))
        .collect();
    sales.sort_unstable();
    Ok(Restart {
        scan_s,
        apply_s,
        sales,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sleeps until `at` (returns at once when `at` has passed).
pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}
