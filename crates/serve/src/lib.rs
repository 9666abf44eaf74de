//! `mbp-serve`: the marketplace's zero-dependency TCP front-end.
//!
//! PR 7 gave the broker a cache-resident batch kernel
//! (`quote_batch`/`buy_batch_into`); this crate puts a network in front
//! of it. A thread-per-core accept/IO loop (a dedicated
//! [`mbp_par::ThreadPool`]) serves a compact length-prefixed binary
//! protocol ([`wire`]) over [`SharedBroker`]: each connection drains all
//! pending requests from its socket and dispatches runs of same-listing
//! buys/quotes as *one* batch-kernel call (**batch admission**), with
//! bounded per-connection queues, explicit backpressure frames, idle
//! timeouts, and a graceful drain-then-shutdown on SIGTERM or a control
//! frame. A `GET /metrics` Prometheus side port exposes the live
//! `mbp-obs` registry (`mbp.serve.*` spans, counters, and gauges cover
//! every phase: read/decode/batch/dispatch/encode/write). Idle IO loops
//! block in `poll(2)` until a socket or a wake-up needs them, so the
//! crate is Unix only.
//!
//! Determinism contract: each connection's noise RNG is seeded by its
//! client's `Hello` frame, every connection is pinned to one IO worker,
//! and the PR 7 kernel consumes RNG purely in request order — so the
//! responses (and the settled ledger, up to transaction order across
//! connections) are bit-identical to an in-process `Broker` run, no
//! matter how frames coalesced into batches. The loopback tests and the
//! `loadgen` digest checks in `mbp-bench` pin exactly that.
//!
//! [`SharedBroker`]: mbp_core::market::concurrent::SharedBroker

pub mod client;
mod conn;
mod server;
pub mod wire;

pub use client::Client;
pub use server::{start, ServerConfig, ServerHandle, ServerStats};
