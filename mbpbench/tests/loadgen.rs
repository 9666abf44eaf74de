//! Tests of the benchmark's own machinery: the seeded schedule, the
//! percentile summaries, and failure accounting on the wire.

use std::io::{Read, Write};
use std::net::TcpListener;

use mbp_core::market::PurchaseRequest;
use mbp_ml::ModelKind;
use mbp_perfbench::client::{open_loop, WireConn};
use mbp_perfbench::schedule::{poisson_due_ns, request_stream, Op, RequestRange};
use mbp_perfbench::stats::{max_supported_quantile, Summary, MIN_TAIL};
use mbp_perfbench::workloads::{BROWSE_RATE, REPRICE_INTERVAL, REPRICE_RATE};
use mbp_serve::wire::{
    decode_header, decode_request, encode_response, Request, Response, HEADER_LEN,
};

const RANGE: RequestRange = RequestRange { lo: 1.5, hi: 128.0 };

#[test]
fn poisson_schedule_is_a_pure_function_of_the_seed() {
    let a = poisson_due_ns(7, 20_000.0, 1_000_000_000);
    let b = poisson_due_ns(7, 20_000.0, 1_000_000_000);
    let c = poisson_due_ns(8, 20_000.0, 1_000_000_000);
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
    assert!(a.iter().all(|&t| t < 1_000_000_000));
    // 20,000 expected arrivals; a Poisson count has sd ≈ 141.
    assert!((19_300..20_700).contains(&a.len()), "{} arrivals", a.len());
}

#[test]
fn request_stream_is_a_pure_function_of_the_seed() {
    let a = request_stream(3, 10_000, 0.95, RANGE);
    assert_eq!(a, request_stream(3, 10_000, 0.95, RANGE));
    assert_ne!(a, request_stream(4, 10_000, 0.95, RANGE));
    let quotes = a.iter().filter(|op| !op.is_buy()).count();
    assert!((9_300..9_700).contains(&quotes), "{quotes} quotes of 10000");
    let all_buys = request_stream(3, 1_000, 0.0, RANGE);
    assert!(all_buys.iter().all(Op::is_buy));
}

#[test]
fn percentiles_report_sample_count_and_highest_supported_percentile() {
    let mut few: Vec<f64> = (1..=500).map(f64::from).collect();
    let s = Summary::of(&mut few);
    assert_eq!(s.n, 500);
    assert_eq!(s.max_supported, (500 - MIN_TAIL) as f64 / 500.0);
    assert_eq!(s.p50, 250.0);
    assert_eq!(s.p90, Some(450.0));
    assert_eq!(s.p99, None, "a p99 of 500 samples has only 5 beyond it");

    let mut many: Vec<f64> = (1..=2_000).rev().map(f64::from).collect();
    let s = Summary::of(&mut many);
    assert_eq!(s.n, 2_000);
    assert_eq!(s.p99, Some(1_980.0));
    assert!(s.max_supported >= 0.99);

    assert_eq!(max_supported_quantile(MIN_TAIL), 0.0);
    let mut with_failure = vec![1.0, 2.0, f64::INFINITY];
    assert_eq!(Summary::of(&mut with_failure).p50, 2.0);
}

/// A stand-in daemon on loopback: answers `Hello`, then answers every
/// quote with `QuoteOk`, after first sending one unsolicited
/// `Backpressure` frame.
fn fake_daemon(expected_quotes: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = Vec::new();
        let mut answered = 0usize;
        let mut chunk = [0u8; 4096];
        while answered < expected_quotes + 1 {
            let n = stream.read(&mut chunk).expect("read");
            assert!(n > 0, "client hung up early");
            buf.extend_from_slice(&chunk[..n]);
            let mut out = Vec::new();
            while let Ok(Some(h)) = decode_header(&buf) {
                let total = HEADER_LEN + h.payload_len as usize;
                if buf.len() < total {
                    break;
                }
                let req = decode_request(&h, &buf[HEADER_LEN..total]).expect("request");
                buf.drain(..total);
                match req {
                    Request::Hello { .. } => {
                        encode_response(&mut out, h.request_id, &Response::HelloOk)
                    }
                    Request::Quote { .. } => {
                        if answered == 1 {
                            encode_response(&mut out, 0, &Response::Backpressure);
                        }
                        encode_response(
                            &mut out,
                            h.request_id,
                            &Response::QuoteOk {
                                ncp: 0.5,
                                price: 1.0,
                                expected_error: 0.5,
                            },
                        );
                    }
                    other => panic!("unexpected request {other:?}"),
                }
                answered += 1;
            }
            stream.write_all(&out).expect("write");
        }
        // Stay connected until the client hangs up, as the daemon does.
        while stream.read(&mut chunk).is_ok_and(|n| n > 0) {}
    });
    (addr, handle)
}

#[test]
fn failure_counting_counts_an_injected_backpressure_frame() {
    let quotes = 20;
    let (addr, daemon) = fake_daemon(quotes);
    let mut conn = WireConn::open(addr, ModelKind::LinearRegression, 1).expect("connect");
    let due: Vec<u64> = (0..quotes as u64).map(|i| i * 100_000).collect();
    let ops = vec![Op::Quote(PurchaseRequest::AtNcp(0.5)); quotes];
    let r = open_loop(&mut conn, &due, &ops).expect("open loop");
    drop(conn);
    daemon.join().expect("daemon");
    assert_eq!(r.attempted, quotes);
    assert_eq!(r.failures.backpressure, 1);
    assert_eq!(r.failures.errors, 0);
    assert_eq!(r.failures.timeouts, 0);
    assert_eq!(
        r.failures.total(),
        1,
        "the frame counts against the attempts"
    );
    assert!(
        r.latency_ns.iter().all(|v| v.is_finite()),
        "every quote was answered"
    );
    assert_eq!(r.lag_ns.len(), quotes);
}

#[test]
fn fixed_rates_are_the_ones_written_into_benchmark_json() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let why = |name: &str| {
        let at = json.find(&format!("\"name\": \"{name}\"")).expect(name);
        let rest = &json[at..];
        let why = rest.find("\"why\"").expect("why");
        rest[why..].lines().next().unwrap_or("").to_string()
    };
    assert!(why("browse").contains(&format!("{} req/s", BROWSE_RATE as u64)));
    let reprice = why("reprice");
    assert!(reprice.contains(&format!("{} req/s", REPRICE_RATE as u64)));
    assert!(reprice.contains(&format!("every {} ms", REPRICE_INTERVAL.as_millis())));
}
