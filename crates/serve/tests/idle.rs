//! An idle connection must leave its IO worker blocked, not ticking.
//!
//! A test binary of its own: the `mbp-obs` registry is process-global,
//! so no other test's server may add to the counters read here.

use std::time::Duration;

use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::Broker;
use mbp_randx::seeded_rng;
use mbp_serve::wire::Response;
use mbp_serve::{Client, ServerConfig};

fn counter(name: &str) -> u64 {
    mbp_obs::snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn an_idle_connection_does_not_spin_the_io_loop() {
    mbp_obs::enable();
    let mut rng = seeded_rng(5);
    let data = mbp_data::synth::simulated1(40, 3, 0.5, &mut rng).split(0.75, &mut rng);
    let shared = SharedBroker::new(Broker::new(data));
    let handle = mbp_serve::start(shared, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.hello(5).expect("hello"), Response::HelloOk);

    let (waits, empty) = (
        counter("mbp.serve.io.waits"),
        counter("mbp.serve.io.empty_wakeups"),
    );
    std::thread::sleep(Duration::from_millis(300));
    let waits = counter("mbp.serve.io.waits") - waits;
    let empty = counter("mbp.serve.io.empty_wakeups") - empty;
    // A fixed-tick loop would wait thousands of times in this window.
    assert!(waits < 20, "{waits} waits over 300 ms of idleness");
    assert!(empty < 20, "{empty} empty wake-ups over 300 ms of idleness");

    // The connection still answers after the quiet spell.
    let (_, pong) = client.call(&mbp_serve::wire::Request::Ping).expect("ping");
    assert_eq!(pong, Response::Pong);
    handle.shutdown();
    handle.wait();
}
