//! SIGTERM drains a server whose threads are all blocked waiting.
//!
//! A test binary of its own: the handler and its flag are process-global,
//! and once a SIGTERM has been seen every SIGTERM-handling server in the
//! process drains.

use std::os::raw::c_int;
use std::time::Duration;

use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::Broker;
use mbp_randx::seeded_rng;
use mbp_serve::wire::Response;
use mbp_serve::{Client, ServerConfig};

extern "C" {
    fn raise(sig: c_int) -> c_int;
}

#[test]
fn sigterm_wakes_the_blocked_accept_thread_and_drains() {
    let mut rng = seeded_rng(9);
    let data = mbp_data::synth::simulated1(40, 3, 0.5, &mut rng).split(0.75, &mut rng);
    let cfg = ServerConfig {
        handle_sigterm: true,
        ..ServerConfig::default()
    };
    let handle =
        mbp_serve::start(SharedBroker::new(Broker::new(data)), cfg).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.hello(9).expect("hello"), Response::HelloOk);
    // Let the accept thread and the IO workers settle into their waits.
    std::thread::sleep(Duration::from_millis(50));

    // SAFETY: the server installed a SIGTERM handler above, so raising
    // the signal runs that handler instead of terminating the process.
    assert_eq!(unsafe { raise(15) }, 0);

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.wait());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("SIGTERM drained the server within 2 s");
    assert_eq!(stats.connections, 1);
    assert!(client.recv().is_err(), "the drain closed the connection");
}
