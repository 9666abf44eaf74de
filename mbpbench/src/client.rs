//! The buyer side: one non-blocking connection driven by one thread.
//!
//! The daemon answers each connection in request order, so a response is
//! matched to the oldest outstanding request; the only frames outside
//! that order are the server's unsolicited `Backpressure` frames (request
//! id 0), which are counted as failures and left out of the response
//! digest because their timing is not reproducible.
//!
//! Two traffic loops share the connection:
//! * [`open_loop`] sends each request at its scheduled due time whether
//!   or not earlier ones have been answered, and times every response
//!   from that due time;
//! * [`saturate`] keeps a fixed window of requests in flight (closed
//!   loop) and counts completions per second.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mbp_ml::ModelKind;
use mbp_serve::wire::{
    decode_header, decode_response, digest_bytes, encode_request, frame_type, Request, Response,
    DIGEST_SEED, HEADER_LEN,
};

use crate::schedule::Op;
use crate::sys;

/// How long an answered phase waits for stragglers before counting the
/// still-outstanding requests as timed out.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(2);

/// A completed (`BuyOk`) sale as the buyer saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acked {
    /// Resolved noise control parameter.
    pub ncp: f64,
    /// Price paid.
    pub price: f64,
}

/// Failures of one phase, by cause. Every one counts against the
/// operations attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// `Error` frames answering a request.
    pub errors: u64,
    /// Unsolicited `Backpressure` frames.
    pub backpressure: u64,
    /// Requests still unanswered [`RESPONSE_TIMEOUT`] after the phase.
    pub timeouts: u64,
}

impl Failures {
    /// All failures of the phase.
    pub fn total(&self) -> u64 {
        self.errors + self.backpressure + self.timeouts
    }

    /// Adds another phase's failures.
    pub fn add(&mut self, other: Failures) {
        self.errors += other.errors;
        self.backpressure += other.backpressure;
        self.timeouts += other.timeouts;
    }
}

/// A decoded frame handed to a traffic loop, already matched to its request.
enum Event {
    Answer(u32, Response),
    Backpressure,
}

/// One client connection speaking the wire protocol without blocking.
pub struct WireConn {
    stream: TcpStream,
    kind: ModelKind,
    next_id: u32,
    out: Vec<u8>,
    out_pos: usize,
    in_buf: Vec<u8>,
    in_pos: usize,
    digest: u64,
}

impl WireConn {
    /// Connects, sends `Hello { seed }` and waits for `HelloOk`, then
    /// switches the socket to non-blocking mode.
    pub fn open(addr: SocketAddr, kind: ModelKind, seed: u64) -> io::Result<WireConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = WireConn {
            stream,
            kind,
            next_id: 0,
            out: Vec::new(),
            out_pos: 0,
            in_buf: Vec::new(),
            in_pos: 0,
            digest: DIGEST_SEED,
        };
        conn.push(&Request::Hello { seed });
        conn.stream.write_all(&conn.out)?;
        conn.out.clear();
        let mut events = Vec::new();
        while events.is_empty() {
            let mut chunk = [0u8; 256];
            let n = conn.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(eof());
            }
            conn.in_buf.extend_from_slice(&chunk[..n]);
            conn.parse(&mut events)?;
        }
        match events.first() {
            Some(Event::Answer(1, Response::HelloOk)) => {}
            _ => return Err(invalid("handshake was not answered with HelloOk")),
        }
        conn.stream.set_nonblocking(true)?;
        Ok(conn)
    }

    /// Rolling FNV-1a digest of every response frame received except
    /// `Backpressure` frames — the same fold as `mbp_serve::Client`.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The id the next request will carry.
    fn push(&mut self, request: &Request) -> u32 {
        self.next_id = self.next_id.wrapping_add(1);
        encode_request(&mut self.out, self.next_id, request);
        self.next_id
    }

    fn push_op(&mut self, op: &Op) -> u32 {
        let request = match *op {
            Op::Quote(request) => Request::Quote {
                kind: self.kind,
                request,
            },
            Op::Buy(request) => Request::Buy {
                kind: self.kind,
                request,
            },
        };
        self.push(&request)
    }

    /// Blocks until the socket has something to read (or room for
    /// pending output) or `until` passes. The buyer thread never spins,
    /// so on a small machine it does not take a core from the daemon.
    fn wait(&self, until: Instant) -> io::Result<()> {
        let timeout = until.saturating_duration_since(Instant::now());
        sys::wait_ready(&self.stream, self.out_pos < self.out.len(), timeout)
    }

    /// Writes what the socket takes without blocking; `true` on progress.
    fn pump_write(&mut self) -> io::Result<bool> {
        let mut progress = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(eof()),
                Ok(n) => {
                    self.out_pos += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(progress)
    }

    /// Reads what has arrived without blocking and decodes every complete
    /// frame into `events`; `true` on progress.
    fn pump_read(&mut self, events: &mut Vec<Event>) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        let mut progress = false;
        loop {
            match self.stream.read(&mut chunk) {
                // Answers that arrived before the close still count.
                Ok(0) if progress => break,
                Ok(0) => return Err(eof()),
                Ok(n) => {
                    self.in_buf.extend_from_slice(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if progress {
            self.parse(events)?;
        }
        Ok(progress)
    }

    fn parse(&mut self, events: &mut Vec<Event>) -> io::Result<()> {
        loop {
            let rest = &self.in_buf[self.in_pos..];
            let header = match decode_header(rest) {
                Ok(Some(h)) => h,
                Ok(None) => break,
                Err(e) => return Err(invalid(&e.message())),
            };
            let total = HEADER_LEN + header.payload_len as usize;
            if rest.len() < total {
                break;
            }
            let frame = &rest[..total];
            if header.frame_type == frame_type::BACKPRESSURE {
                events.push(Event::Backpressure);
            } else {
                self.digest = digest_bytes(self.digest, frame);
                let response = decode_response(&header, &frame[HEADER_LEN..])
                    .map_err(|e| invalid(&e.message()))?;
                events.push(Event::Answer(header.request_id, response));
            }
            self.in_pos += total;
        }
        if self.in_pos == self.in_buf.len() {
            self.in_buf.clear();
            self.in_pos = 0;
        } else if self.in_pos > 1 << 20 {
            self.in_buf.drain(..self.in_pos);
            self.in_pos = 0;
        }
        Ok(())
    }
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Per-request record of one open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopResult {
    /// Requests sent.
    pub attempted: usize,
    /// Latency from due time to response, ns, per request in send order;
    /// `+∞` for a request answered with an error or never answered.
    pub latency_ns: Vec<f64>,
    /// How late each request was sent relative to its due time, ns.
    pub lag_ns: Vec<f64>,
    /// Failures by cause.
    pub failures: Failures,
    /// Sent requests per second over the schedule's span.
    pub achieved_rate: f64,
    /// Every `BuyOk` received, in order.
    pub acked: Vec<Acked>,
}

/// Sends `ops[i]` at `start + due_ns[i]` for every `i`, reading answers as
/// they arrive, then waits up to [`RESPONSE_TIMEOUT`] for the rest.
pub fn open_loop(conn: &mut WireConn, due_ns: &[u64], ops: &[Op]) -> io::Result<OpenLoopResult> {
    assert!(ops.len() >= due_ns.len(), "one op per arrival");
    let n = due_ns.len();
    let mut res = OpenLoopResult {
        attempted: n,
        latency_ns: vec![f64::INFINITY; n],
        lag_ns: Vec::with_capacity(n),
        ..OpenLoopResult::default()
    };
    // (request id, index into the schedule), oldest first.
    let mut outstanding: VecDeque<(u32, usize)> = VecDeque::new();
    let mut events = Vec::new();
    sys::fine_timer_slack();
    let start = Instant::now();
    let mut next = 0usize;
    let mut deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let elapsed = now.duration_since(start).as_nanos() as u64;
        let mut progress = false;
        while next < n && due_ns[next] <= elapsed {
            let id = conn.push_op(&ops[next]);
            outstanding.push_back((id, next));
            res.lag_ns.push((elapsed - due_ns[next]) as f64);
            next += 1;
            progress = true;
        }
        progress |= conn.pump_write()?;
        if conn.pump_read(&mut events)? {
            progress = true;
            let done = Instant::now();
            for event in events.drain(..) {
                match event {
                    Event::Backpressure => res.failures.backpressure += 1,
                    Event::Answer(id, response) => {
                        let Some((want, idx)) = outstanding.pop_front() else {
                            return Err(invalid("answer without an outstanding request"));
                        };
                        if id != want {
                            return Err(invalid("answer out of request order"));
                        }
                        match response {
                            Response::BuyOk { ncp, price, .. } => {
                                res.acked.push(Acked { ncp, price });
                            }
                            Response::QuoteOk { .. } => {}
                            _ => {
                                res.failures.errors += 1;
                                continue;
                            }
                        }
                        let due = start + Duration::from_nanos(due_ns[idx]);
                        res.latency_ns[idx] = done.duration_since(due).as_nanos() as f64;
                    }
                }
            }
        }
        if next == n {
            if outstanding.is_empty() {
                break;
            }
            let limit = *deadline.get_or_insert(now + RESPONSE_TIMEOUT);
            if now >= limit {
                res.failures.timeouts += outstanding.len() as u64;
                break;
            }
        }
        if !progress {
            let wake = match due_ns.get(next) {
                Some(&due) => start + Duration::from_nanos(due),
                None => deadline.unwrap_or(now),
            };
            conn.wait(wake)?;
        }
    }
    let span_s = due_ns.last().map_or(0.0, |&d| d as f64 / 1e9);
    res.achieved_rate = if span_s > 0.0 { n as f64 / span_s } else { 0.0 };
    Ok(res)
}

/// Outcome of one closed-loop saturation phase.
#[derive(Debug, Clone, Default)]
pub struct SaturationResult {
    /// Requests sent (`ops[0..sent]`, cyclically).
    pub sent: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Failures by cause.
    pub failures: Failures,
    /// Seconds from the first send to the last answer.
    pub seconds: f64,
    /// Every `BuyOk` received, in order.
    pub acked: Vec<Acked>,
}

/// Keeps `window` requests in flight for `duration`, cycling through
/// `ops`, then collects the answers still in flight.
pub fn saturate(
    conn: &mut WireConn,
    ops: &[Op],
    duration: Duration,
    window: usize,
) -> io::Result<SaturationResult> {
    assert!(!ops.is_empty() && window > 0);
    sys::fine_timer_slack();
    let mut res = SaturationResult::default();
    let mut outstanding: VecDeque<u32> = VecDeque::new();
    let mut events = Vec::new();
    let start = Instant::now();
    let stop = start + duration;
    let mut deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let sending = now < stop;
        let mut progress = false;
        while sending && outstanding.len() < window {
            let id = conn.push_op(&ops[res.sent % ops.len()]);
            outstanding.push_back(id);
            res.sent += 1;
            progress = true;
        }
        progress |= conn.pump_write()?;
        if conn.pump_read(&mut events)? {
            progress = true;
            for event in events.drain(..) {
                match event {
                    Event::Backpressure => res.failures.backpressure += 1,
                    Event::Answer(id, response) => {
                        if outstanding.pop_front() != Some(id) {
                            return Err(invalid("answer out of request order"));
                        }
                        match response {
                            Response::BuyOk { ncp, price, .. } => {
                                res.acked.push(Acked { ncp, price });
                            }
                            Response::QuoteOk { .. } => {}
                            _ => {
                                res.failures.errors += 1;
                                continue;
                            }
                        }
                        res.completed += 1;
                    }
                }
            }
        }
        if !sending {
            if outstanding.is_empty() {
                break;
            }
            let limit = *deadline.get_or_insert(now + RESPONSE_TIMEOUT);
            if now >= limit {
                res.failures.timeouts += outstanding.len() as u64;
                break;
            }
        }
        if !progress {
            conn.wait(if sending {
                stop
            } else {
                deadline.unwrap_or(now)
            })?;
        }
    }
    res.seconds = start.elapsed().as_secs_f64();
    Ok(res)
}
