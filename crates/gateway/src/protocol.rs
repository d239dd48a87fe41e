//! The gateway wire protocol: length-prefixed, request-id-tagged frames
//! carrying a small streaming RPC vocabulary.
//!
//! # Framing
//!
//! ```text
//! | len: u32 LE | req_id: u64 LE | body: len bytes |
//! ```
//!
//! `req_id` is chosen by the client, must be unique among its in-flight
//! requests, and tags **every** frame of a request and of its response(s).
//! Requests on one connection may be pipelined and their response frames
//! interleaved — a client matches by id, never by arrival order. `len`
//! counts only the body and is capped at [`MAX_FRAME`].
//!
//! # Requests (first body byte = opcode)
//!
//! * `PUT_START name` — open an object for streaming ingest; followed by
//!   any number of `PUT_DATA` frames (raw payload bytes, any sizes — the
//!   server re-stripes) and one `PUT_END`, all under the same `req_id`.
//!   The single response ([`Response::Created`]) comes after `PUT_END`.
//! * `GET name` — the response is a *stream* under the request's id:
//!   [`Response::ObjectHeader`] (total length), one [`Response::Data`] per
//!   stripe in order, then [`Response::ObjectEnd`] carrying how many of
//!   those stripes were served degraded. A large object never exists in
//!   gateway memory at once — each `Data` frame is one stripe.
//! * `DELETE name`, `STAT name`, `METRICS` — single-frame round trips.
//!
//! # Statuses
//!
//! [`Response::NotFound`] and [`Response::Deleted`] mirror the store's
//! typed miss distinction ("never existed" vs "you deleted it");
//! [`Response::Busy`] is the explicit backpressure shed — the gateway is
//! at its admission limit and the client should back off and retry, the
//! request had no effect.
//!
//! The [`FrameDecoder`] is incremental (feed arbitrary byte arrivals,
//! frames fall out) because the reactor reads whatever the socket has;
//! the blocking [`read_frame`]/[`write_frame`] helpers serve the client
//! side and tests.
//!
//! # Payloads are lent, not copied
//!
//! A stripe crosses each side of the gateway wire once, by the kernel:
//!
//! * [`Request::decode_lending`] and [`Response::decode_lending`] parse a
//!   body and return a `PUT_DATA` / `Data` payload as a range of it, so
//!   the reactor hands a `PUT_DATA` frame's payload to the store, and the
//!   client hands a stripe to its sink, as a slice of the frame buffer.
//!   `decode` is lend-then-fill: one parser per direction.
//! * `read_frame_into` reads a frame into a caller-owned buffer that only
//!   grows and is never zeroed per frame; [`read_frame`] is a thin
//!   wrapper over it.
//! * `data_head` and `put_data_head` are a payload frame's header plus
//!   its tag byte, so the payload can follow straight from the stripe or
//!   the caller's slice. The bytes on the wire are exactly those of
//!   `write_frame(id, &msg.encode())`.

use std::io::{self, Read, Write};
use std::ops::Range;

use pbrs_obs::trace::TraceCtx;

/// Upper bound on one frame's body. Large enough for any stripe the store
/// ships (chunk sizes are ≤ a few MiB), small enough that a hostile
/// length prefix cannot size a huge allocation.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of framing overhead per message (length prefix + request id).
pub const FRAME_OVERHEAD: usize = 12;

/// Longest accepted object name on the wire.
pub const MAX_NAME: usize = 4096;

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

// Request opcodes.
const OP_PUT_START: u8 = 0x01;
const OP_PUT_DATA: u8 = 0x02;
const OP_PUT_END: u8 = 0x03;
const OP_GET: u8 = 0x04;
const OP_DELETE: u8 = 0x05;
const OP_STAT: u8 = 0x06;
const OP_METRICS: u8 = 0x07;
const OP_PROMETHEUS: u8 = 0x08;
const OP_TRACES: u8 = 0x09;
const OP_TRACED: u8 = 0x0A;

// Response status bytes.
const ST_CREATED: u8 = 0x81;
const ST_OBJ_HEADER: u8 = 0x82;
const ST_DATA: u8 = 0x83;
const ST_OBJ_END: u8 = 0x84;
const ST_STAT: u8 = 0x85;
const ST_METRICS: u8 = 0x86;
const ST_DELETED_OK: u8 = 0x87;
const ST_NOT_FOUND: u8 = 0x90;
const ST_DELETED: u8 = 0x91;
const ST_BUSY: u8 = 0x92;
const ST_ERR: u8 = 0x93;
const ST_PROMETHEUS: u8 = 0x94;
const ST_TRACES: u8 = 0x95;

/// One client→gateway message (the body of one request frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open object `name` for streaming ingest.
    PutStart {
        /// The object name to create.
        name: String,
    },
    /// Payload bytes of the open ingest under this request id.
    PutData {
        /// Raw object bytes (any size; the server re-stripes).
        data: Vec<u8>,
    },
    /// Ingest complete; commit and respond.
    PutEnd,
    /// Stream object `name` back stripe by stripe.
    Get {
        /// The object name to read.
        name: String,
    },
    /// Tombstone object `name`.
    Delete {
        /// The object name to delete.
        name: String,
    },
    /// Metadata of object `name`.
    Stat {
        /// The object name to look up.
        name: String,
    },
    /// The gateway's live counters.
    Metrics,
    /// Prometheus text exposition of gateway + store metrics.
    Prometheus,
    /// The flight recorder's retained trace trees, as JSON and Chrome
    /// trace_event text.
    Traces,
    /// An op under a client-supplied trace context: the gateway adopts
    /// `ctx` as the root's parent instead of minting a fresh trace id,
    /// so gateway spans join the caller's distributed trace. Strictly
    /// outermost and optional — a frame without it is the legacy wire,
    /// and an un-upgraded peer never sees this opcode.
    Traced {
        /// The caller's trace id and the span to parent the op under.
        ctx: TraceCtx,
        /// The wrapped request (never another `Traced`).
        inner: Box<Request>,
    },
}

impl Request {
    /// Serializes the request body (no framing).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::PutStart { name } => encode_named(OP_PUT_START, name),
            Request::PutData { data } => {
                let mut body = Vec::with_capacity(1 + data.len());
                body.push(OP_PUT_DATA);
                body.extend_from_slice(data);
                body
            }
            Request::PutEnd => vec![OP_PUT_END],
            Request::Get { name } => encode_named(OP_GET, name),
            Request::Delete { name } => encode_named(OP_DELETE, name),
            Request::Stat { name } => encode_named(OP_STAT, name),
            Request::Metrics => vec![OP_METRICS],
            Request::Prometheus => vec![OP_PROMETHEUS],
            Request::Traces => vec![OP_TRACES],
            Request::Traced { ctx, inner } => {
                let payload = inner.encode();
                let mut body = Vec::with_capacity(17 + payload.len());
                body.push(OP_TRACED);
                body.extend_from_slice(&ctx.trace.as_u64().to_le_bytes());
                body.extend_from_slice(&ctx.span.as_u64().to_le_bytes());
                body.extend_from_slice(&payload);
                body
            }
        }
    }

    /// Parses one request body: [`Request::decode_lending`] with a
    /// `PUT_DATA` payload copied into the request.
    ///
    /// # Errors
    ///
    /// As [`Request::decode_lending`].
    pub fn decode(body: &[u8]) -> io::Result<Request> {
        let (mut request, payload) = Request::decode_lending(body)?;
        if let Request::PutData { data } = request.innermost_mut() {
            *data = body[payload].to_vec();
        }
        Ok(request)
    }

    /// Parses one request body, lending rather than copying a `PUT_DATA`
    /// payload: the request comes back with empty `data`, and the payload
    /// is returned as a range of `body` — how the reactor hands an ingest
    /// piece from its frame to the store. The range always ends at
    /// `body.len()`, and is empty for every other request. A `Traced`
    /// wrapper lends its inner request's payload the same way.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an empty body, unknown opcode, or malformed
    /// fields — the gateway answers those with [`Response::Err`] rather
    /// than dropping the connection.
    pub fn decode_lending(body: &[u8]) -> io::Result<(Request, Range<usize>)> {
        let (&op, rest) = body.split_first().ok_or_else(|| invalid("empty request"))?;
        let end = body.len();
        let request = match op {
            OP_PUT_START => Request::PutStart {
                name: decode_name(rest)?,
            },
            OP_PUT_DATA => return Ok((Request::PutData { data: Vec::new() }, 1..end)),
            OP_PUT_END => {
                expect_empty(rest)?;
                Request::PutEnd
            }
            OP_GET => Request::Get {
                name: decode_name(rest)?,
            },
            OP_DELETE => Request::Delete {
                name: decode_name(rest)?,
            },
            OP_STAT => Request::Stat {
                name: decode_name(rest)?,
            },
            OP_METRICS => {
                expect_empty(rest)?;
                Request::Metrics
            }
            OP_PROMETHEUS => {
                expect_empty(rest)?;
                Request::Prometheus
            }
            OP_TRACES => {
                expect_empty(rest)?;
                Request::Traces
            }
            OP_TRACED => {
                const INNER: usize = 17;
                if body.len() < INNER {
                    return Err(invalid("truncated trace context"));
                }
                let ctx = TraceCtx::from_raw(le_u64(&rest[0..8]), le_u64(&rest[8..16]))
                    .ok_or_else(|| invalid("zero trace or span id"))?;
                // Refused before recursing, so a body of nested wrappers
                // cannot run the reactor out of stack.
                if body.get(INNER) == Some(&OP_TRACED) {
                    return Err(invalid("trace wrapper must be outermost"));
                }
                let (inner, payload) = Request::decode_lending(&body[INNER..])?;
                return Ok((
                    Request::Traced {
                        ctx,
                        inner: Box::new(inner),
                    },
                    payload.start + INNER..payload.end + INNER,
                ));
            }
            other => return Err(invalid(format!("unknown request opcode {other:#04x}"))),
        };
        Ok((request, end..end))
    }

    /// The request under any `Traced` wrapper.
    fn innermost_mut(&mut self) -> &mut Request {
        match self {
            Request::Traced { inner, .. } => inner.innermost_mut(),
            request => request,
        }
    }
}

/// One gateway→client message (the body of one response frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A `PUT` committed durably.
    Created {
        /// Total payload bytes stored.
        len: u64,
        /// Stripes written.
        stripes: u64,
    },
    /// First frame of a `GET` stream: the object's geometry.
    ObjectHeader {
        /// Total payload bytes about to be streamed.
        len: u64,
        /// `Data` frames that will follow.
        stripes: u64,
    },
    /// One stripe's payload of a `GET` stream (in stripe order).
    Data {
        /// The stripe's payload bytes (the last stripe may be short).
        data: Vec<u8>,
    },
    /// Last frame of a `GET` stream.
    ObjectEnd {
        /// How many of the streamed stripes were served degraded.
        degraded_stripes: u64,
    },
    /// `STAT` result.
    Stat {
        /// Total payload bytes.
        len: u64,
        /// Stripe count.
        stripes: u64,
    },
    /// `METRICS` result: a JSON object, schema documented in
    /// `OPERATIONS.md`.
    Metrics {
        /// UTF-8 JSON text.
        json: String,
    },
    /// `PROMETHEUS` result: text exposition format 0.0.4.
    Prometheus {
        /// UTF-8 exposition text.
        text: String,
    },
    /// `TRACES` result: the retained trace trees, rendered twice.
    Traces {
        /// Structured JSON (schema documented in `OPERATIONS.md`).
        json: String,
        /// Chrome trace_event JSON, loadable in Perfetto as-is.
        chrome: String,
    },
    /// A `DELETE` landed; the tombstone is durable.
    DeletedOk {
        /// Payload bytes the deleted object held.
        len: u64,
    },
    /// The name never existed.
    NotFound,
    /// The name existed and was deleted — distinguishable from
    /// [`Response::NotFound`] because the store keeps typed tombstones.
    Deleted,
    /// Backpressure shed: the gateway is at its admission limit. The
    /// request was not started; retry after backing off.
    Busy,
    /// Any other failure, with the store/gateway error text.
    Err {
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// Serializes the response body (no framing).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Created { len, stripes } => encode_two(ST_CREATED, *len, *stripes),
            Response::ObjectHeader { len, stripes } => encode_two(ST_OBJ_HEADER, *len, *stripes),
            Response::Data { data } => {
                let mut body = Vec::with_capacity(1 + data.len());
                body.push(ST_DATA);
                body.extend_from_slice(data);
                body
            }
            Response::ObjectEnd { degraded_stripes } => {
                let mut body = vec![ST_OBJ_END];
                body.extend_from_slice(&degraded_stripes.to_le_bytes());
                body
            }
            Response::Stat { len, stripes } => encode_two(ST_STAT, *len, *stripes),
            Response::Metrics { json } => {
                let mut body = vec![ST_METRICS];
                body.extend_from_slice(json.as_bytes());
                body
            }
            Response::Prometheus { text } => {
                let mut body = vec![ST_PROMETHEUS];
                body.extend_from_slice(text.as_bytes());
                body
            }
            Response::Traces { json, chrome } => {
                let mut body = Vec::with_capacity(5 + json.len() + chrome.len());
                body.push(ST_TRACES);
                // pbrs-lint: allow(wire-protocol) -- lossless: both renderings fit one frame (the retained buffer is bounded) and write_frame rejects over-cap bodies
                body.extend_from_slice(&(json.len() as u32).to_le_bytes());
                body.extend_from_slice(json.as_bytes());
                body.extend_from_slice(chrome.as_bytes());
                body
            }
            Response::DeletedOk { len } => {
                let mut body = vec![ST_DELETED_OK];
                body.extend_from_slice(&len.to_le_bytes());
                body
            }
            Response::NotFound => vec![ST_NOT_FOUND],
            Response::Deleted => vec![ST_DELETED],
            Response::Busy => vec![ST_BUSY],
            Response::Err { message } => {
                let mut body = vec![ST_ERR];
                body.extend_from_slice(message.as_bytes());
                body
            }
        }
    }

    /// Parses one response body: [`Response::decode_lending`] with a
    /// `Data` payload copied into the response.
    ///
    /// # Errors
    ///
    /// As [`Response::decode_lending`].
    pub fn decode(body: &[u8]) -> io::Result<Response> {
        let (mut response, payload) = Response::decode_lending(body)?;
        if let Response::Data { data } = &mut response {
            *data = body[payload].to_vec();
        }
        Ok(response)
    }

    /// Parses one response body, lending rather than copying a `Data`
    /// payload: the response comes back with empty `data`, and the stripe
    /// is returned as a range of `body` — how the client hands a stripe
    /// from its frame buffer to the sink. The range always ends at
    /// `body.len()`, and is empty for every other response.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an empty body, unknown status, or malformed
    /// fields.
    pub fn decode_lending(body: &[u8]) -> io::Result<(Response, Range<usize>)> {
        let (&st, rest) = body
            .split_first()
            .ok_or_else(|| invalid("empty response"))?;
        let end = body.len();
        let response = match st {
            ST_CREATED => {
                decode_two(rest).map(|(len, stripes)| Response::Created { len, stripes })?
            }
            ST_OBJ_HEADER => {
                decode_two(rest).map(|(len, stripes)| Response::ObjectHeader { len, stripes })?
            }
            ST_DATA => return Ok((Response::Data { data: Vec::new() }, 1..end)),
            ST_OBJ_END => Response::ObjectEnd {
                degraded_stripes: decode_u64(rest)?,
            },
            ST_STAT => decode_two(rest).map(|(len, stripes)| Response::Stat { len, stripes })?,
            ST_METRICS => Response::Metrics {
                json: String::from_utf8(rest.to_vec())
                    .map_err(|_| invalid("metrics payload is not UTF-8"))?,
            },
            ST_PROMETHEUS => Response::Prometheus {
                text: String::from_utf8(rest.to_vec())
                    .map_err(|_| invalid("prometheus payload is not UTF-8"))?,
            },
            ST_TRACES => {
                if rest.len() < 4 {
                    return Err(invalid("truncated traces payload"));
                }
                let json_len = le_u32(&rest[0..4]) as usize;
                let rest = &rest[4..];
                if rest.len() < json_len {
                    return Err(invalid("traces json length exceeds payload"));
                }
                let json = String::from_utf8(rest[..json_len].to_vec())
                    .map_err(|_| invalid("traces json is not UTF-8"))?;
                let chrome = String::from_utf8(rest[json_len..].to_vec())
                    .map_err(|_| invalid("traces chrome payload is not UTF-8"))?;
                Response::Traces { json, chrome }
            }
            ST_DELETED_OK => Response::DeletedOk {
                len: decode_u64(rest)?,
            },
            ST_NOT_FOUND => {
                expect_empty(rest)?;
                Response::NotFound
            }
            ST_DELETED => {
                expect_empty(rest)?;
                Response::Deleted
            }
            ST_BUSY => {
                expect_empty(rest)?;
                Response::Busy
            }
            ST_ERR => Response::Err {
                message: String::from_utf8_lossy(rest).into_owned(),
            },
            other => return Err(invalid(format!("unknown response status {other:#04x}"))),
        };
        Ok((response, end..end))
    }
}

fn encode_named(op: u8, name: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + name.len());
    body.push(op);
    body.extend_from_slice(name.as_bytes());
    body
}

fn decode_name(rest: &[u8]) -> io::Result<String> {
    if rest.is_empty() {
        return Err(invalid("empty object name"));
    }
    if rest.len() > MAX_NAME {
        return Err(invalid(format!("object name of {} bytes", rest.len())));
    }
    String::from_utf8(rest.to_vec()).map_err(|_| invalid("object name is not UTF-8"))
}

fn encode_two(st: u8, a: u64, b: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(17);
    body.push(st);
    body.extend_from_slice(&a.to_le_bytes());
    body.extend_from_slice(&b.to_le_bytes());
    body
}

fn decode_two(rest: &[u8]) -> io::Result<(u64, u64)> {
    if rest.len() != 16 {
        return Err(invalid(format!("expected 16 bytes, got {}", rest.len())));
    }
    Ok((le_u64(&rest[0..8]), le_u64(&rest[8..16])))
}

fn decode_u64(rest: &[u8]) -> io::Result<u64> {
    if rest.len() != 8 {
        return Err(invalid(format!("expected 8 bytes, got {}", rest.len())));
    }
    Ok(le_u64(rest))
}

/// Little-endian u32 from the first 4 bytes of `b`. Callers pass slices
/// whose length was already checked (fixed-size frame headers).
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Little-endian u64 from the first 8 bytes of `b`; same contract as
/// [`le_u32`].
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn expect_empty(rest: &[u8]) -> io::Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(invalid(format!("{} trailing bytes", rest.len())))
    }
}

/// Incremental frame parser: feed whatever the socket delivered, complete
/// `(req_id, body)` frames fall out. Partial frames are held across calls
/// — this is the reactor's read-side codec, and the fuzz tests' subject.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the buffered length prefix exceeds [`MAX_FRAME`]
    /// — the connection is poisoned and must be closed (resynchronising
    /// inside a byte stream is not possible).
    pub fn next_frame(&mut self) -> io::Result<Option<(u64, Vec<u8>)>> {
        if self.buf.len() < FRAME_OVERHEAD {
            return Ok(None);
        }
        let len = le_u32(&self.buf[0..4]) as usize;
        if len > MAX_FRAME {
            return Err(invalid(format!("frame length {len} exceeds MAX_FRAME")));
        }
        if self.buf.len() < FRAME_OVERHEAD + len {
            return Ok(None);
        }
        let req_id = le_u64(&self.buf[4..12]);
        let body = self.buf[FRAME_OVERHEAD..FRAME_OVERHEAD + len].to_vec();
        self.buf.drain(..FRAME_OVERHEAD + len);
        Ok(Some((req_id, body)))
    }
}

/// Serializes the framing header for a body of `len` bytes.
pub fn frame_header(req_id: u64, len: usize) -> [u8; FRAME_OVERHEAD] {
    let mut header = [0u8; FRAME_OVERHEAD];
    // pbrs-lint: allow(wire-protocol) -- lossless: write_frame rejects bodies over MAX_FRAME, and reactor responses are one bounded stream segment or small text
    header[0..4].copy_from_slice(&(len as u32).to_le_bytes());
    header[4..12].copy_from_slice(&req_id.to_le_bytes());
    header
}

/// Bytes of a payload frame ahead of its payload: the framing header
/// plus the `Data` status or `PUT_DATA` opcode.
pub(crate) const PAYLOAD_HEAD: usize = FRAME_OVERHEAD + 1;

fn payload_head(req_id: u64, tag: u8, payload_len: usize) -> [u8; PAYLOAD_HEAD] {
    let mut head = [0u8; PAYLOAD_HEAD];
    head[..FRAME_OVERHEAD].copy_from_slice(&frame_header(req_id, 1 + payload_len));
    head[FRAME_OVERHEAD] = tag;
    head
}

/// What precedes a `payload_len`-byte stripe in a [`Response::Data`]
/// frame; `data_head` followed by the stripe is byte for byte
/// `write_frame(req_id, &Response::Data { .. }.encode())`.
pub(crate) fn data_head(req_id: u64, payload_len: usize) -> [u8; PAYLOAD_HEAD] {
    payload_head(req_id, ST_DATA, payload_len)
}

/// What precedes a `payload_len`-byte piece in a [`Request::PutData`]
/// frame; the request-side twin of [`data_head`].
pub(crate) fn put_data_head(req_id: u64, payload_len: usize) -> [u8; PAYLOAD_HEAD] {
    payload_head(req_id, OP_PUT_DATA, payload_len)
}

/// Blocking frame write (client side and tests): header + body, flushed.
///
/// # Errors
///
/// `InvalidData` when `body` exceeds [`MAX_FRAME`]; otherwise transport
/// errors.
pub fn write_frame(w: &mut impl Write, req_id: u64, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(invalid(format!("frame body of {} bytes", body.len())));
    }
    w.write_all(&frame_header(req_id, body.len()))?;
    w.write_all(body)?;
    w.flush()
}

/// Blocking frame read (client side and tests).
///
/// # Errors
///
/// `InvalidData` for an over-cap length prefix; `UnexpectedEof` and other
/// transport errors pass through.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u64, Vec<u8>)> {
    let mut body = Vec::new();
    let (req_id, len) = read_frame_into(r, &mut body)?;
    body.truncate(len);
    Ok((req_id, body))
}

/// Blocking frame read into a caller-owned buffer: the body lands in the
/// first `len` bytes of `body`, which is grown to fit and never shrunk
/// or zeroed per frame. Returns `(req_id, len)`.
///
/// # Errors
///
/// `InvalidData` for an over-cap length prefix; `UnexpectedEof` and other
/// transport errors pass through.
pub(crate) fn read_frame_into(r: &mut impl Read, body: &mut Vec<u8>) -> io::Result<(u64, usize)> {
    let mut header = [0u8; FRAME_OVERHEAD];
    r.read_exact(&mut header)?;
    let len = le_u32(&header[0..4]) as usize;
    let req_id = le_u64(&header[4..12]);
    if len > MAX_FRAME {
        return Err(invalid(format!("frame length {len} exceeds MAX_FRAME")));
    }
    if body.len() < len {
        body.resize(len, 0);
    }
    r.read_exact(&mut body[..len])?;
    Ok((req_id, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::PutStart {
                name: "obj.bin".into(),
            },
            Request::PutData {
                data: vec![1, 2, 3, 0, 255],
            },
            Request::PutEnd,
            Request::Get { name: "x".into() },
            Request::Delete { name: "y".into() },
            Request::Stat { name: "z".into() },
            Request::Metrics,
            Request::Prometheus,
            Request::Traces,
            Request::Traced {
                ctx: TraceCtx::from_raw(0xDEAD, 0xBEEF).unwrap(),
                inner: Box::new(Request::Get { name: "x".into() }),
            },
        ];
        for case in cases {
            assert_eq!(Request::decode(&case.encode()).unwrap(), case, "{case:?}");
        }
    }

    #[test]
    fn traced_wrapper_is_strictly_outermost_and_validated() {
        let ctx = TraceCtx::from_raw(1, 2).unwrap();
        let nested = Request::Traced {
            ctx,
            inner: Box::new(Request::Traced {
                ctx,
                inner: Box::new(Request::Metrics),
            }),
        };
        assert!(Request::decode(&nested.encode()).is_err());

        // Zero ids are the wire's "absent" and never valid inside OP_TRACED.
        let mut zero = vec![OP_TRACED];
        zero.extend_from_slice(&0u64.to_le_bytes());
        zero.extend_from_slice(&2u64.to_le_bytes());
        zero.push(OP_METRICS);
        assert!(Request::decode(&zero).is_err());

        // Truncated context header.
        assert!(Request::decode(&[OP_TRACED, 1, 2, 3]).is_err());
    }

    #[test]
    fn deeply_nested_wrappers_are_refused_without_recursing() {
        // 1 MiB of trace wrappers: one recursion per wrapper would
        // overflow the stack long before the end of the body.
        let mut deep = Vec::new();
        while deep.len() < 1 << 20 {
            deep.push(OP_TRACED);
            deep.extend_from_slice(&1u64.to_le_bytes());
            deep.extend_from_slice(&1u64.to_le_bytes());
        }
        deep.push(OP_METRICS);
        assert!(Request::decode(&deep).is_err());
    }

    #[test]
    fn read_frame_into_reuses_the_buffer_without_stale_tails() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, &[7u8; 100]).unwrap();
        write_frame(&mut wire, 2, &[8u8; 10]).unwrap();
        let mut r = wire.as_slice();
        let mut body = Vec::new();
        assert_eq!(read_frame_into(&mut r, &mut body).unwrap(), (1, 100));
        let grown = body.as_ptr();
        assert_eq!(read_frame_into(&mut r, &mut body).unwrap(), (2, 10));
        assert_eq!(&body[..10], &[8u8; 10]);
        assert_eq!(
            (body.len(), body.as_ptr()),
            (100, grown),
            "kept, not reallocated"
        );
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Created {
                len: 123,
                stripes: 4,
            },
            Response::ObjectHeader {
                len: u64::MAX,
                stripes: 7,
            },
            Response::Data {
                data: vec![9; 1000],
            },
            Response::ObjectEnd {
                degraded_stripes: 2,
            },
            Response::Stat {
                len: 55,
                stripes: 1,
            },
            Response::Metrics {
                json: "{\"a\":1}".into(),
            },
            Response::Prometheus {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Response::Traces {
                json: "{\"traces\":[]}".into(),
                chrome: "{\"traceEvents\":[]}".into(),
            },
            Response::Traces {
                json: String::new(),
                chrome: String::new(),
            },
            Response::DeletedOk { len: 10 },
            Response::NotFound,
            Response::Deleted,
            Response::Busy,
            Response::Err {
                message: "boom".into(),
            },
        ];
        for case in cases {
            assert_eq!(Response::decode(&case.encode()).unwrap(), case, "{case:?}");
        }
    }

    #[test]
    fn decoder_handles_arbitrary_splits() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"first").unwrap();
        write_frame(&mut wire, 2, b"").unwrap();
        write_frame(&mut wire, 3, &vec![7u8; 300]).unwrap();
        // Feed one byte at a time: frames must still come out intact.
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        for &b in &wire {
            decoder.feed(&[b]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(
            frames,
            vec![(1, b"first".to_vec()), (2, Vec::new()), (3, vec![7u8; 300])]
        );
        assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn decoder_rejects_oversized_length() {
        let mut decoder = FrameDecoder::new();
        let mut hostile = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        hostile.extend_from_slice(&0u64.to_le_bytes());
        decoder.feed(&hostile);
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn garbage_bodies_are_decode_errors_not_panics() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF, 1, 2]).is_err());
        assert!(Response::decode(&[]).is_err());
        assert!(Response::decode(&[0x55]).is_err());
        // Truncated u64 fields.
        assert!(Response::decode(&[ST_CREATED, 1, 2, 3]).is_err());
        assert!(Response::decode(&[ST_OBJ_END, 1]).is_err());
    }
}
