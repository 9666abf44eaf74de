//! Loopback integration: a real daemon on an ephemeral port, driven by
//! real client connections, checked bit-for-bit against an in-process
//! [`Broker`] reference.
//!
//! The determinism contract under test: each connection's noise RNG is
//! seeded by its `Hello` frame and the batch kernel consumes RNG purely
//! in request order, so however the server happens to coalesce a
//! connection's frames into batches, the responses — and the settled
//! ledger, as a multiset across connections — are bit-identical to
//! running the same per-client request streams through `Broker::buy_batch`
//! sequentially in-process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, PurchaseRequest};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use mbp_serve::wire::{ErrorCode, Request, Response};
use mbp_serve::{Client, ServerConfig};

const KIND: ModelKind = ModelKind::LinearRegression;
const N_CLIENTS: usize = 4;
const BURSTS: usize = 3;
const BURST_LEN: usize = 48;

fn pricing() -> PricingFunction {
    let grid: Vec<f64> = (1..=64).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free")
}

fn listed_broker(data_seed: u64) -> Broker {
    let mut rng = seeded_rng(data_seed);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker.support(KIND, 1e-6).expect("training failed");
    broker
        .publish(KIND, pricing(), Box::new(SquareLossTransform))
        .expect("listing accepted");
    broker
}

/// The per-client request stream: NCP picks, satisfiable and
/// unsatisfiable error budgets, generous and hopeless price budgets —
/// so both the sale path and the typed-rejection path cross the wire.
fn client_stream(client: usize) -> Vec<PurchaseRequest> {
    (0..BURSTS * BURST_LEN)
        .map(|i| match (client + i) % 4 {
            0 => PurchaseRequest::AtNcp(0.5 + (i % 29) as f64 * 0.11),
            1 => PurchaseRequest::ErrorBudget(0.4 + (i % 23) as f64 * 0.2),
            2 => PurchaseRequest::PriceBudget(8.0 + (i % 50) as f64),
            _ => PurchaseRequest::PriceBudget(0.001), // unaffordable
        })
        .collect()
}

fn client_seed(client: usize) -> u64 {
    9_000 + client as u64
}

/// Drives `N_CLIENTS` concurrent connections through a fresh server and
/// returns, per client, the (id, response) list and the response digest.
fn drive_server(cfg: ServerConfig) -> (Vec<Vec<(u32, Response)>>, Vec<u64>) {
    let shared = SharedBroker::new(listed_broker(7));
    let handle = mbp_serve::start(shared.clone(), cfg).expect("server starts");
    let addr = handle.addr();

    let workers: Vec<_> = (0..N_CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let hello = client.hello(client_seed(c)).expect("hello");
                assert_eq!(hello, Response::HelloOk);
                let stream = client_stream(c);
                let mut responses = Vec::with_capacity(stream.len());
                for burst in stream.chunks(BURST_LEN) {
                    let ids: Vec<u32> = burst
                        .iter()
                        .map(|&request| {
                            client.enqueue(&Request::Buy {
                                kind: KIND,
                                request,
                            })
                        })
                        .collect();
                    client.flush().expect("flush");
                    for &expected_id in &ids {
                        let (id, resp) = client.recv().expect("recv");
                        assert_eq!(id, expected_id, "responses arrive in request order");
                        responses.push((id, resp));
                    }
                }
                (responses, client.digest())
            })
        })
        .collect();

    let mut all_responses = Vec::new();
    let mut digests = Vec::new();
    for w in workers {
        let (responses, digest) = w.join().expect("client thread");
        all_responses.push(responses);
        digests.push(digest);
    }

    handle.shutdown();
    let _stats = handle.wait();

    // The network-settled ledger, reconciled, as a sorted multiset.
    let mut served_ledger: Vec<(u64, u64)> = shared.with_broker(|b| {
        b.ledger()
            .iter()
            .map(|t| (t.ncp.to_bits(), t.price.to_bits()))
            .collect()
    });
    served_ledger.sort_unstable();

    // In-process reference: same data seed, same per-client streams and
    // seeds, served sequentially through the plain batch kernel.
    let mut reference = listed_broker(7);
    for c in 0..N_CLIENTS {
        let mut rng = seeded_rng(client_seed(c));
        let stream = client_stream(c);
        let results = reference
            .buy_batch(KIND, &stream, &mut rng)
            .expect("listing exists");
        for ((_, resp), result) in all_responses
            .get(c)
            .expect("client responses")
            .iter()
            .zip(results.iter())
        {
            match (resp, result) {
                (
                    Response::BuyOk {
                        ncp,
                        price,
                        expected_error,
                        weights,
                    },
                    Ok(sale),
                ) => {
                    assert_eq!(ncp.to_bits(), sale.ncp.to_bits());
                    assert_eq!(price.to_bits(), sale.price.to_bits());
                    assert_eq!(expected_error.to_bits(), sale.expected_error.to_bits());
                    let expected: Vec<u64> = sale
                        .model
                        .weights()
                        .as_slice()
                        .iter()
                        .map(|w| w.to_bits())
                        .collect();
                    let got: Vec<u64> = weights.iter().map(|w| w.to_bits()).collect();
                    assert_eq!(got, expected, "released weights must be bit-identical");
                }
                (Response::Error { code, .. }, Err(e)) => {
                    assert_eq!(*code, mbp_serve::wire::market_error_code(e));
                }
                (resp, result) => {
                    panic!("client {c}: response {resp:?} disagrees with reference {result:?}")
                }
            }
        }
    }
    let mut reference_ledger: Vec<(u64, u64)> = reference
        .ledger()
        .iter()
        .map(|t| (t.ncp.to_bits(), t.price.to_bits()))
        .collect();
    reference_ledger.sort_unstable();
    assert_eq!(
        served_ledger, reference_ledger,
        "network-served ledger must be bit-identical to the in-process reference"
    );

    (all_responses, digests)
}

/// The acceptance-criterion test: network-served responses and ledger are
/// bit-identical to the in-process reference, and the whole exchange is
/// reproducible (same digests) across two independent server instances.
#[test]
fn network_served_ledger_is_bit_identical_to_in_process_reference() {
    let (_, digests_a) = drive_server(ServerConfig::default());
    let (_, digests_b) = drive_server(ServerConfig::default());
    assert_eq!(
        digests_a, digests_b,
        "response byte streams must be deterministic across runs"
    );
}

/// Batch admission must not change what clients see: per-request dispatch
/// (the loadgen baseline mode) produces bit-identical response streams.
#[test]
fn per_request_dispatch_is_bit_identical_to_batch_admission() {
    let (_, batched) = drive_server(ServerConfig::default());
    let per_request = ServerConfig {
        batch_admission: false,
        ..ServerConfig::default()
    };
    let (_, unbatched) = drive_server(per_request);
    assert_eq!(batched, unbatched);
}

#[test]
fn quote_frames_price_without_consuming_rng() {
    let shared = SharedBroker::new(listed_broker(7));
    let handle = mbp_serve::start(shared, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.hello(11).expect("hello"), Response::HelloOk);

    // Interleave quotes between buys; the buy stream must be bit-identical
    // to a reference that never quoted at all.
    let buys: Vec<PurchaseRequest> = (0..24)
        .map(|i| PurchaseRequest::AtNcp(0.6 + i as f64 * 0.1))
        .collect();
    let mut buy_responses = Vec::new();
    for &request in &buys {
        let (_, quote) = client
            .call(&Request::Quote {
                kind: KIND,
                request,
            })
            .expect("quote");
        let (_, buy) = client
            .call(&Request::Buy {
                kind: KIND,
                request,
            })
            .expect("buy");
        match (&quote, &buy) {
            (
                Response::QuoteOk {
                    ncp,
                    price,
                    expected_error,
                },
                Response::BuyOk {
                    ncp: bncp,
                    price: bprice,
                    expected_error: berr,
                    ..
                },
            ) => {
                assert_eq!(ncp.to_bits(), bncp.to_bits());
                assert_eq!(price.to_bits(), bprice.to_bits());
                assert_eq!(expected_error.to_bits(), berr.to_bits());
            }
            other => panic!("unexpected pair {other:?}"),
        }
        buy_responses.push(buy);
    }

    let mut reference = listed_broker(7);
    let mut rng = seeded_rng(11);
    let results = reference.buy_batch(KIND, &buys, &mut rng).expect("listed");
    for (resp, result) in buy_responses.iter().zip(results.iter()) {
        let (Response::BuyOk { ncp, .. }, Ok(sale)) = (resp, result) else {
            panic!("unexpected {resp:?} vs {result:?}");
        };
        assert_eq!(
            ncp.to_bits(),
            sale.ncp.to_bits(),
            "quotes must not perturb the noise stream"
        );
    }
    handle.shutdown();
    handle.wait();
}

#[test]
fn buy_before_hello_is_rejected_not_ready() {
    let shared = SharedBroker::new(listed_broker(3));
    let handle = mbp_serve::start(shared, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (_, resp) = client
        .call(&Request::Buy {
            kind: KIND,
            request: PurchaseRequest::AtNcp(1.0),
        })
        .expect("call");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotReady),
        other => panic!("expected NotReady, got {other:?}"),
    }
    assert_eq!(client.hello(5).expect("hello"), Response::HelloOk);
    let (_, resp) = client
        .call(&Request::Buy {
            kind: KIND,
            request: PurchaseRequest::AtNcp(1.0),
        })
        .expect("call");
    assert!(matches!(resp, Response::BuyOk { .. }), "{resp:?}");
    handle.shutdown();
    handle.wait();
}

#[test]
fn garbage_bytes_get_a_protocol_error_then_close() {
    let shared = SharedBroker::new(listed_broker(3));
    let handle = mbp_serve::start(shared, ServerConfig::default()).expect("server starts");
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    // Expect one error frame, then EOF.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match raw.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed before close: {e}"),
        }
    }
    let header = mbp_serve::wire::decode_header(&buf)
        .expect("well-formed response header")
        .expect("complete header");
    let resp = mbp_serve::wire::decode_response(&header, &buf[mbp_serve::wire::HEADER_LEN..])
        .expect("decodes");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    handle.shutdown();
    handle.wait();
}

#[test]
fn tiny_queue_limit_emits_backpressure_frames() {
    let shared = SharedBroker::new(listed_broker(3));
    let cfg = ServerConfig {
        queue_limit: 4,
        ..ServerConfig::default()
    };
    let handle = mbp_serve::start(shared, cfg).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.hello(21).expect("hello"), Response::HelloOk);

    const PIPELINED: usize = 64;
    let ids: Vec<u32> = (0..PIPELINED)
        .map(|i| {
            client.enqueue(&Request::Buy {
                kind: KIND,
                request: PurchaseRequest::AtNcp(0.5 + (i % 7) as f64 * 0.3),
            })
        })
        .collect();
    client.flush().expect("flush");

    let mut ok = 0usize;
    let mut backpressure = 0usize;
    let mut seen = Vec::new();
    while ok < PIPELINED {
        let (id, resp) = client.recv().expect("recv");
        match resp {
            Response::Backpressure => {
                assert_eq!(id, 0, "backpressure is unsolicited");
                backpressure += 1;
            }
            Response::BuyOk { .. } => {
                seen.push(id);
                ok += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(seen, ids, "every request answered, in order");
    assert!(
        backpressure >= 1,
        "64 pipelined frames against a queue of 4 must trigger backpressure"
    );
    handle.shutdown();
    handle.wait();
}

#[test]
fn publish_over_the_wire_replaces_the_listing() {
    let shared = SharedBroker::new(listed_broker(3));
    let handle = mbp_serve::start(shared, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.hello(31).expect("hello"), Response::HelloOk);

    let probe = Request::Quote {
        kind: KIND,
        request: PurchaseRequest::AtNcp(0.5),
    };
    let (_, before) = client.call(&probe).expect("quote");
    let Response::QuoteOk {
        price: old_price, ..
    } = before
    else {
        panic!("expected quote, got {before:?}");
    };

    // Double every price on the published curve.
    let points: Vec<(f64, f64)> = (1..=64)
        .map(|i| {
            let x = 1.0 + i as f64 * 0.25;
            (x, 20.0 * x.sqrt())
        })
        .collect();
    let (_, published) = client
        .call(&Request::Publish { kind: KIND, points })
        .expect("publish");
    assert_eq!(published, Response::PublishOk);

    let (_, after) = client.call(&probe).expect("quote");
    let Response::QuoteOk {
        price: new_price, ..
    } = after
    else {
        panic!("expected quote, got {after:?}");
    };
    assert!(
        (new_price - 2.0 * old_price).abs() < 1e-9,
        "republished curve must serve: {old_price} -> {new_price}"
    );

    // A malformed curve is rejected with a typed error, listing intact.
    let (_, rejected) = client
        .call(&Request::Publish {
            kind: KIND,
            points: Vec::new(),
        })
        .expect("publish");
    match rejected {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let (_, still) = client.call(&probe).expect("quote");
    assert!(matches!(still, Response::QuoteOk { .. }));
    handle.shutdown();
    handle.wait();
}

#[test]
fn shutdown_control_frame_drains_the_server() {
    let shared = SharedBroker::new(listed_broker(3));
    let handle = mbp_serve::start(shared, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.hello(41).expect("hello"), Response::HelloOk);
    let ack = client.shutdown_server().expect("shutdown");
    assert_eq!(ack, Response::ShutdownAck);
    assert!(handle.is_draining());
    let stats = handle.wait(); // must terminate
    assert!(stats.connections >= 1);
}

/// Runs `f` on a thread and fails the test unless it returns within
/// `limit` — a missed wake-up must fail, not hang the suite.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|e| panic!("not done within {limit:?}: {e}"))
}

/// Two handshaken connections on a two-worker server. Assignment is
/// round-robin in accept order, so each worker holds one.
fn one_idle_connection_per_worker() -> (mbp_serve::ServerHandle, Client, Client) {
    let shared = SharedBroker::new(listed_broker(3));
    let cfg = ServerConfig {
        io_threads: 2,
        ..ServerConfig::default()
    };
    let handle = mbp_serve::start(shared, cfg).expect("server starts");
    let mut a = Client::connect(handle.addr()).expect("connect");
    assert_eq!(a.hello(61).expect("hello"), Response::HelloOk);
    let mut b = Client::connect(handle.addr()).expect("connect");
    assert_eq!(b.hello(62).expect("hello"), Response::HelloOk);
    (handle, a, b)
}

#[test]
fn shutdown_wakes_io_workers_blocked_on_idle_connections() {
    // Default 30 s idle timeout: only the drain's wake-up ends these waits.
    let (handle, a, b) = one_idle_connection_per_worker();
    handle.shutdown();
    let stats = within(Duration::from_secs(2), move || handle.wait());
    assert_eq!(stats.connections, 2);
    drop((a, b));
}

#[test]
fn shutdown_frame_closes_an_idle_connection_on_the_other_worker() {
    let (handle, mut a, mut b) = one_idle_connection_per_worker();
    assert_eq!(
        a.shutdown_server().expect("shutdown"),
        Response::ShutdownAck
    );
    let eof = within(Duration::from_secs(2), move || b.recv());
    match eof {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        Ok(frame) => panic!("expected the server to hang up, got {frame:?}"),
    }
    within(Duration::from_secs(2), move || handle.wait());
}

#[test]
fn idle_connections_are_closed_after_the_timeout() {
    let shared = SharedBroker::new(listed_broker(3));
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let handle = mbp_serve::start(shared, cfg).expect("server starts");
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 64];
    // The server must hang up on its own; EOF manifests as Ok(0).
    let n = raw.read(&mut buf).expect("read");
    assert_eq!(n, 0, "idle connection must be closed by the server");
    handle.shutdown();
    handle.wait();
}

#[test]
fn metrics_side_port_serves_prometheus_text() {
    mbp_obs::enable();
    let shared = SharedBroker::new(listed_broker(3));
    let cfg = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let handle = mbp_serve::start(shared, cfg).expect("server starts");
    let maddr = handle.metrics_addr().expect("metrics port bound");

    // Generate some traffic so serve counters exist.
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.hello(51).expect("hello"), Response::HelloOk);
    let (_, resp) = client
        .call(&Request::Buy {
            kind: KIND,
            request: PurchaseRequest::AtNcp(1.0),
        })
        .expect("buy");
    assert!(matches!(resp, Response::BuyOk { .. }));

    let mut http = TcpStream::connect(maddr).expect("connect metrics");
    http.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut body = String::new();
    http.read_to_string(&mut body).expect("read");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    assert!(
        body.contains("mbp_serve_requests"),
        "scrape must expose serve counters: {body}"
    );

    let mut http = TcpStream::connect(maddr).expect("connect metrics");
    http.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    http.write_all(b"GET /other HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut other = String::new();
    http.read_to_string(&mut other).expect("read");
    assert!(other.starts_with("HTTP/1.0 404"), "{other}");

    // The metrics thread is blocked in poll(2) with no connection pending:
    // only the drain's wake-up lets the join below finish.
    std::thread::sleep(Duration::from_millis(50));
    handle.shutdown();
    within(Duration::from_secs(2), move || handle.wait());
}
