//! Open-loop wire benchmark for the `mbp-serve` pricing daemon.
//!
//! One run boots the real daemon in process on loopback
//! (`ServerConfig::default()`, obs enabled, tracing off — how
//! `mbp-market serve` runs), lists a model priced by the paper pipeline
//! (YearMSD-shaped catalog data → `SharedBroker::support` → seller
//! research → the `T_bv` DP → publish), and drives it with seeded Poisson
//! arrivals on one connection. Latency is timed from each request's *due*
//! time, so a stalled server also delays the requests queued behind the
//! stall. Pipelined closed-loop segments between the open-loop ones
//! measure saturation throughput.
//!
//! Three workloads ([`workloads::Workload`]) stress different layers:
//! `browse` (quotes: lookup, φ inversion and the IO loop), `buy-durable`
//! (noise, ledger stripes and the write-ahead log) and `reprice` (a
//! seller publishing DP-priced curves beside live buys).
//!
//! `--trace 1` runs the same workload with `mbp_obs` tracing on and a
//! forwarding [`market::TimedSink`] around the WAL, and reports the
//! per-layer breakdown: the program's own `mbp.serve.*` spans and
//! `mbp.trace.phase.seconds` histograms plus timings the benchmark takes
//! around its own calls into public functions. Nothing is traced inside
//! the program that is not traced there already.

pub mod client;
pub mod market;
pub mod report;
pub mod schedule;
pub mod stats;
mod sys;
pub mod workloads;
