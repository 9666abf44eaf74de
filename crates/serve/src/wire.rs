//! The `mbp-serve` wire protocol: compact length-prefixed binary frames.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! | offset | size | field        | value                                  |
//! |--------|------|--------------|----------------------------------------|
//! | 0      | 2    | magic        | `b"MB"`                                |
//! | 2      | 1    | version      | [`VERSION`]                            |
//! | 3      | 1    | frame type   | request `0x01..`, response `0x81..`    |
//! | 4      | 4    | request id   | u32 LE, echoed on the response         |
//! | 8      | 4    | payload len  | u32 LE, at most [`MAX_PAYLOAD`]        |
//!
//! Request id `0` is reserved for unsolicited server frames
//! ([`Response::Backpressure`]). All integers and floats are
//! little-endian; floats travel as raw IEEE-754 bits, so a response
//! stream digests bit-identically across runs.
//!
//! This module is in the `mbp-lint` panic-freedom and determinism scopes:
//! decoding a hostile byte stream must never panic (no indexing, no
//! unwraps) and never consult ambient state (no clocks, no entropy).
//! Malformed input maps to a typed [`WireError`]; [`WireError::is_fatal`]
//! distinguishes framing corruption (close the connection) from
//! recoverable per-frame garbage (answer with an error frame and keep
//! going).

pub use mbp_core::codec::{digest_bytes, kind_from_u8, kind_to_u8, DIGEST_SEED, MAGIC0, MAGIC1};
use mbp_core::market::{MarketError, PurchaseRequest};
use mbp_ml::ModelKind;

/// Protocol version carried in every header.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 12;
/// Hard cap on a frame payload; anything larger is framing corruption.
pub const MAX_PAYLOAD: usize = 64 * 1024;
/// Hard cap on the number of `(knot, price)` points in a publish frame.
pub const MAX_PUBLISH_POINTS: usize = 2048;

/// Frame type tags. Requests set the high bit clear, responses set it.
pub mod frame_type {
    /// Client handshake: carries the connection's noise-RNG seed.
    pub const HELLO: u8 = 0x01;
    /// Price a request without purchasing (consumes no RNG).
    pub const QUOTE: u8 = 0x02;
    /// Purchase: releases a noised model instance.
    pub const BUY: u8 = 0x03;
    /// Replace the listing for a model kind.
    pub const PUBLISH: u8 = 0x04;
    /// Liveness probe.
    pub const PING: u8 = 0x05;
    /// Control frame: ask the server to drain and shut down.
    pub const SHUTDOWN: u8 = 0x06;

    /// Handshake accepted.
    pub const HELLO_OK: u8 = 0x81;
    /// Quote result: `(ncp, price, expected_error)`.
    pub const QUOTE_OK: u8 = 0x82;
    /// Purchase result: quote fields plus the released weights.
    pub const BUY_OK: u8 = 0x83;
    /// Listing replaced.
    pub const PUBLISH_OK: u8 = 0x84;
    /// Liveness answer.
    pub const PONG: u8 = 0x85;
    /// Typed error for one request (or the connection, id `0`).
    pub const ERROR: u8 = 0x86;
    /// Unsolicited: per-connection queue is full, stop sending.
    pub const BACKPRESSURE: u8 = 0x87;
    /// Drain acknowledged; connection closes after the flush.
    pub const SHUTDOWN_ACK: u8 = 0x88;
}

/// Typed error codes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed or unexpected bytes on the wire.
    Protocol = 1,
    /// [`MarketError::UnsupportedModel`].
    UnsupportedModel = 2,
    /// [`MarketError::TrainingFailed`].
    TrainingFailed = 3,
    /// [`MarketError::UnachievableError`].
    UnachievableError = 4,
    /// [`MarketError::InsufficientBudget`].
    InsufficientBudget = 5,
    /// [`MarketError::BadRequest`].
    BadRequest = 6,
    /// A buy arrived before the `Hello` handshake seeded the RNG.
    NotReady = 7,
    /// The server is draining and accepts no new work.
    ShuttingDown = 8,
}

impl ErrorCode {
    /// Wire byte for this code.
    pub fn as_u8(self) -> u8 {
        // LINT-ALLOW(cast): discriminants are 1..=8, all representable in u8
        self as u8
    }

    /// Parses a wire byte back into a code.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::Protocol),
            2 => Some(ErrorCode::UnsupportedModel),
            3 => Some(ErrorCode::TrainingFailed),
            4 => Some(ErrorCode::UnachievableError),
            5 => Some(ErrorCode::InsufficientBudget),
            6 => Some(ErrorCode::BadRequest),
            7 => Some(ErrorCode::NotReady),
            8 => Some(ErrorCode::ShuttingDown),
            _ => None,
        }
    }
}

/// Maps a broker-side rejection onto its wire code.
pub fn market_error_code(e: &MarketError) -> ErrorCode {
    match e {
        MarketError::UnsupportedModel(_) => ErrorCode::UnsupportedModel,
        MarketError::TrainingFailed(_) => ErrorCode::TrainingFailed,
        MarketError::UnachievableError(_) => ErrorCode::UnachievableError,
        MarketError::InsufficientBudget(_) => ErrorCode::InsufficientBudget,
        MarketError::BadRequest(_) => ErrorCode::BadRequest,
    }
}

/// A decoding failure. Fatal errors mean the byte stream itself can no
/// longer be trusted (bad magic, impossible length): the server answers
/// once with a protocol error and closes. Non-fatal errors are scoped to
/// one well-framed request and leave the connection usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Header magic bytes are wrong.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Payload length field exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Frame type byte is not a known request.
    UnknownFrameType(u8),
    /// Payload too short (or trailing bytes) for its frame type.
    BadPayload(u8),
    /// Model-kind byte not in the catalog.
    UnknownModelKind(u8),
    /// Purchase-request mode byte not in the catalog.
    UnknownRequestMode(u8),
    /// Publish point count exceeds [`MAX_PUBLISH_POINTS`].
    TooManyPoints(u32),
}

impl WireError {
    /// `true` when framing is corrupt and the connection must close.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            WireError::BadMagic | WireError::BadVersion(_) | WireError::Oversized(_)
        )
    }

    /// Human-readable message carried on the error frame.
    pub fn message(&self) -> String {
        match self {
            WireError::BadMagic => "bad frame magic".to_string(),
            WireError::BadVersion(v) => format!("unsupported protocol version {v}"),
            WireError::Oversized(n) => {
                format!("payload of {n} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})")
            }
            WireError::UnknownFrameType(t) => format!("unknown frame type 0x{t:02x}"),
            WireError::BadPayload(t) => format!("malformed payload for frame type 0x{t:02x}"),
            WireError::UnknownModelKind(k) => format!("unknown model kind {k}"),
            WireError::UnknownRequestMode(m) => format!("unknown purchase-request mode {m}"),
            WireError::TooManyPoints(n) => {
                format!("publish with {n} points exceeds MAX_PUBLISH_POINTS ({MAX_PUBLISH_POINTS})")
            }
        }
    }
}

/// A validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Frame type byte.
    pub frame_type: u8,
    /// Request id echoed on responses.
    pub request_id: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: seeds the connection's noise RNG.
    Hello {
        /// Seed for the per-connection noise stream.
        seed: u64,
    },
    /// Price one request without purchasing.
    Quote {
        /// Listing to quote against.
        kind: ModelKind,
        /// The point/budget being quoted.
        request: PurchaseRequest,
    },
    /// Purchase one noised instance.
    Buy {
        /// Listing to buy from.
        kind: ModelKind,
        /// The point/budget being bought.
        request: PurchaseRequest,
    },
    /// Replace the listing for `kind` with a new price curve (the error
    /// transform is fixed to square loss on the wire).
    Publish {
        /// Listing to replace.
        kind: ModelKind,
        /// `(knot, price)` pairs in ascending-knot order.
        points: Vec<(f64, f64)>,
    },
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and shut down.
    Shutdown,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk,
    /// Quote result.
    QuoteOk {
        /// Resolved noise control parameter.
        ncp: f64,
        /// Price at that NCP.
        price: f64,
        /// Expected error at that NCP.
        expected_error: f64,
    },
    /// Purchase result with the released model weights.
    BuyOk {
        /// Resolved noise control parameter.
        ncp: f64,
        /// Price paid.
        price: f64,
        /// Expected error at that NCP.
        expected_error: f64,
        /// Noised weight vector of the released instance.
        weights: Vec<f64>,
    },
    /// Listing replaced.
    PublishOk,
    /// Liveness answer.
    Pong,
    /// Typed rejection of one request.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        msg: String,
    },
    /// Unsolicited: stop sending until responses drain.
    Backpressure,
    /// Drain acknowledged.
    ShutdownAck,
}

fn request_mode(request: PurchaseRequest) -> (u8, f64) {
    match request {
        PurchaseRequest::AtNcp(v) => (0, v),
        PurchaseRequest::ErrorBudget(v) => (1, v),
        PurchaseRequest::PriceBudget(v) => (2, v),
    }
}

fn request_from_mode(mode: u8, value: f64) -> Option<PurchaseRequest> {
    match mode {
        0 => Some(PurchaseRequest::AtNcp(value)),
        1 => Some(PurchaseRequest::ErrorBudget(value)),
        2 => Some(PurchaseRequest::PriceBudget(value)),
        _ => None,
    }
}

/// Bounds-checked little-endian cursor over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let head = self.buf.get(..n)?;
        self.buf = self.buf.get(n..)?;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    fn u32(&mut self) -> Option<u32> {
        let raw = <[u8; 4]>::try_from(self.take(4)?).ok()?;
        Some(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Option<u64> {
        let raw = <[u8; 8]>::try_from(self.take(8)?).ok()?;
        Some(u64::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn done(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Writes the 12-byte header for a frame.
fn put_header(out: &mut Vec<u8>, frame_type: u8, request_id: u32, payload_len: usize) {
    debug_assert!(
        payload_len <= MAX_PAYLOAD,
        "encoder framed an oversized payload"
    );
    out.push(MAGIC0);
    out.push(MAGIC1);
    out.push(VERSION);
    out.push(frame_type);
    out.extend_from_slice(&request_id.to_le_bytes());
    // LINT-ALLOW(cast): every encoder frames at most MAX_PAYLOAD (64 KiB) bytes
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Parses (and validates) a header from the front of `buf`.
///
/// Returns `Ok(None)` when fewer than [`HEADER_LEN`] bytes are buffered.
pub fn decode_header(buf: &[u8]) -> Result<Option<Header>, WireError> {
    let Some(raw) = buf.get(..HEADER_LEN) else {
        return Ok(None);
    };
    let mut r = Reader { buf: raw };
    let (m0, m1) = (r.u8().unwrap_or(0), r.u8().unwrap_or(0));
    if m0 != MAGIC0 || m1 != MAGIC1 {
        return Err(WireError::BadMagic);
    }
    let version = r.u8().unwrap_or(0);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let frame_type = r.u8().unwrap_or(0);
    let request_id = r.u32().unwrap_or(0);
    let payload_len = r.u32().unwrap_or(0);
    if payload_len as usize > MAX_PAYLOAD {
        return Err(WireError::Oversized(payload_len));
    }
    Ok(Some(Header {
        frame_type,
        request_id,
        payload_len,
    }))
}

/// Decodes a request payload under an already-validated header.
pub fn decode_request(header: &Header, payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader { buf: payload };
    let t = header.frame_type;
    let parsed = match t {
        frame_type::HELLO => {
            let seed = r.u64().ok_or(WireError::BadPayload(t))?;
            Request::Hello { seed }
        }
        frame_type::QUOTE | frame_type::BUY => {
            let kind_byte = r.u8().ok_or(WireError::BadPayload(t))?;
            let kind = kind_from_u8(kind_byte).ok_or(WireError::UnknownModelKind(kind_byte))?;
            let mode = r.u8().ok_or(WireError::BadPayload(t))?;
            let value = r.f64().ok_or(WireError::BadPayload(t))?;
            let request =
                request_from_mode(mode, value).ok_or(WireError::UnknownRequestMode(mode))?;
            if t == frame_type::QUOTE {
                Request::Quote { kind, request }
            } else {
                Request::Buy { kind, request }
            }
        }
        frame_type::PUBLISH => {
            let kind_byte = r.u8().ok_or(WireError::BadPayload(t))?;
            let kind = kind_from_u8(kind_byte).ok_or(WireError::UnknownModelKind(kind_byte))?;
            let n = r.u32().ok_or(WireError::BadPayload(t))?;
            if n as usize > MAX_PUBLISH_POINTS {
                return Err(WireError::TooManyPoints(n));
            }
            let mut points = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let knot = r.f64().ok_or(WireError::BadPayload(t))?;
                let price = r.f64().ok_or(WireError::BadPayload(t))?;
                points.push((knot, price));
            }
            Request::Publish { kind, points }
        }
        frame_type::PING => Request::Ping,
        frame_type::SHUTDOWN => Request::Shutdown,
        other => return Err(WireError::UnknownFrameType(other)),
    };
    if !r.done() {
        return Err(WireError::BadPayload(t));
    }
    Ok(parsed)
}

/// Encodes the shared quote/buy payload: `kind u8, mode u8, value f64`.
fn encode_purchase(
    out: &mut Vec<u8>,
    frame: u8,
    request_id: u32,
    kind: ModelKind,
    request: PurchaseRequest,
) {
    let (mode, value) = request_mode(request);
    put_header(out, frame, request_id, 10);
    out.push(kind_to_u8(kind));
    out.push(mode);
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Encodes one request frame onto `out`.
pub fn encode_request(out: &mut Vec<u8>, request_id: u32, request: &Request) {
    match request {
        Request::Hello { seed } => {
            put_header(out, frame_type::HELLO, request_id, 8);
            out.extend_from_slice(&seed.to_le_bytes());
        }
        Request::Quote { kind, request } => {
            encode_purchase(out, frame_type::QUOTE, request_id, *kind, *request);
        }
        Request::Buy { kind, request } => {
            encode_purchase(out, frame_type::BUY, request_id, *kind, *request);
        }
        Request::Publish { kind, points } => {
            // Mirror the decoder's bound: a count past MAX_PUBLISH_POINTS
            // would be rejected anyway, and an unbounded count would wrap
            // the u32 length field in the header and desync every frame
            // encoded after this one.
            let n = points.len().min(MAX_PUBLISH_POINTS);
            put_header(out, frame_type::PUBLISH, request_id, 5 + 16 * n);
            out.push(kind_to_u8(*kind));
            // LINT-ALLOW(cast): n <= MAX_PUBLISH_POINTS (2048) by the cap above
            out.extend_from_slice(&(n as u32).to_le_bytes());
            for (knot, price) in points.iter().take(n) {
                out.extend_from_slice(&knot.to_bits().to_le_bytes());
                out.extend_from_slice(&price.to_bits().to_le_bytes());
            }
        }
        Request::Ping => put_header(out, frame_type::PING, request_id, 0),
        Request::Shutdown => put_header(out, frame_type::SHUTDOWN, request_id, 0),
    }
}

/// Encodes one response frame onto `out`.
pub fn encode_response(out: &mut Vec<u8>, request_id: u32, response: &Response) {
    match response {
        Response::HelloOk => put_header(out, frame_type::HELLO_OK, request_id, 0),
        Response::QuoteOk {
            ncp,
            price,
            expected_error,
        } => encode_quote_ok(out, request_id, *ncp, *price, *expected_error),
        Response::BuyOk {
            ncp,
            price,
            expected_error,
            weights,
        } => encode_buy_ok(out, request_id, *ncp, *price, *expected_error, weights),
        Response::PublishOk => put_header(out, frame_type::PUBLISH_OK, request_id, 0),
        Response::Pong => put_header(out, frame_type::PONG, request_id, 0),
        Response::Error { code, msg } => encode_error(out, request_id, *code, msg),
        Response::Backpressure => put_header(out, frame_type::BACKPRESSURE, request_id, 0),
        Response::ShutdownAck => put_header(out, frame_type::SHUTDOWN_ACK, request_id, 0),
    }
}

/// Encodes a quote result without building a [`Response`].
pub fn encode_quote_ok(out: &mut Vec<u8>, request_id: u32, ncp: f64, price: f64, expected: f64) {
    put_header(out, frame_type::QUOTE_OK, request_id, 24);
    out.extend_from_slice(&ncp.to_bits().to_le_bytes());
    out.extend_from_slice(&price.to_bits().to_le_bytes());
    out.extend_from_slice(&expected.to_bits().to_le_bytes());
}

/// Encodes a purchase result straight from borrowed weights — the serving
/// hot path writes arena-resident sales without intermediate allocation.
pub fn encode_buy_ok(
    out: &mut Vec<u8>,
    request_id: u32,
    ncp: f64,
    price: f64,
    expected: f64,
    weights: &[f64],
) {
    put_header(out, frame_type::BUY_OK, request_id, 28 + 8 * weights.len());
    out.extend_from_slice(&ncp.to_bits().to_le_bytes());
    out.extend_from_slice(&price.to_bits().to_le_bytes());
    out.extend_from_slice(&expected.to_bits().to_le_bytes());
    // LINT-ALLOW(cast): weights is a model coefficient vector, orders of magnitude below u32::MAX entries; a wrap needs a 4 GiB vector
    out.extend_from_slice(&(weights.len() as u32).to_le_bytes());
    for w in weights {
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
}

/// Encodes a typed error frame. Messages are truncated to keep the frame
/// within [`MAX_PAYLOAD`] (on a char boundary, so the payload stays valid
/// UTF-8).
pub fn encode_error(out: &mut Vec<u8>, request_id: u32, code: ErrorCode, msg: &str) {
    let mut cut = msg.len().min(u16::MAX as usize).min(MAX_PAYLOAD - 3);
    while cut > 0 && !msg.is_char_boundary(cut) {
        cut -= 1;
    }
    let body = msg.get(..cut).unwrap_or("");
    put_header(out, frame_type::ERROR, request_id, 3 + body.len());
    out.push(code.as_u8());
    // LINT-ALLOW(cast): body.len() <= cut <= u16::MAX by the min() above
    out.extend_from_slice(&(body.len() as u16).to_le_bytes());
    out.extend_from_slice(body.as_bytes());
}

/// Decodes a response payload under an already-validated header (the
/// client half of the protocol; servers never call this).
pub fn decode_response(header: &Header, payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader { buf: payload };
    let t = header.frame_type;
    let parsed = match t {
        frame_type::HELLO_OK => Response::HelloOk,
        frame_type::QUOTE_OK => Response::QuoteOk {
            ncp: r.f64().ok_or(WireError::BadPayload(t))?,
            price: r.f64().ok_or(WireError::BadPayload(t))?,
            expected_error: r.f64().ok_or(WireError::BadPayload(t))?,
        },
        frame_type::BUY_OK => {
            let ncp = r.f64().ok_or(WireError::BadPayload(t))?;
            let price = r.f64().ok_or(WireError::BadPayload(t))?;
            let expected_error = r.f64().ok_or(WireError::BadPayload(t))?;
            let n = r.u32().ok_or(WireError::BadPayload(t))?;
            let mut weights = Vec::with_capacity((n as usize).min(MAX_PAYLOAD / 8));
            for _ in 0..n {
                weights.push(r.f64().ok_or(WireError::BadPayload(t))?);
            }
            Response::BuyOk {
                ncp,
                price,
                expected_error,
                weights,
            }
        }
        frame_type::PUBLISH_OK => Response::PublishOk,
        frame_type::PONG => Response::Pong,
        frame_type::ERROR => {
            let code_byte = r.u8().ok_or(WireError::BadPayload(t))?;
            let code = ErrorCode::from_u8(code_byte).ok_or(WireError::BadPayload(t))?;
            let raw = <[u8; 2]>::try_from(r.take(2).ok_or(WireError::BadPayload(t))?)
                .map_err(|_| WireError::BadPayload(t))?;
            let len = u16::from_le_bytes(raw) as usize;
            let bytes = r.take(len).ok_or(WireError::BadPayload(t))?;
            let msg = std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadPayload(t))?
                .to_string();
            Response::Error { code, msg }
        }
        frame_type::BACKPRESSURE => Response::Backpressure,
        frame_type::SHUTDOWN_ACK => Response::ShutdownAck,
        other => return Err(WireError::UnknownFrameType(other)),
    };
    if !r.done() {
        return Err(WireError::BadPayload(t));
    }
    Ok(parsed)
}
