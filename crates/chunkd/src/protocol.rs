//! The chunkd wire protocol: length-prefixed, request-tagged binary
//! frames over TCP.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! offset  size  field
//!      0     4  body length                      (u32 LE, ≤ MAX_FRAME)
//!      4     8  request id                       (u64 LE)
//!     12     …  body
//! ```
//!
//! A request body opens with a one-byte opcode followed by its fields; a
//! response body opens with a one-byte status ([`Response::Ok`] /
//! `Missing` / `Corrupt` / `Err`) followed by the op-specific payload.
//! Integers are little-endian; strings are a `u32` length plus UTF-8
//! bytes.
//!
//! The request id is what turns one connection into a *multiplexed* pipe:
//! a client may have any number of requests in flight on one socket (each
//! under a distinct id), the server answers each frame with the same id,
//! and whichever waiting caller reads a response off the socket hands it
//! to the caller registered under its id. Responses arrive in request
//! order today (the server handles a connection's frames sequentially),
//! but the contract is only "same id back" — a client must match by id,
//! never by arrival order, so the server is free to reorder. This is what lets every worker of a repair
//! or degraded read share one socket per remote disk with many overlapping
//! reads instead of one lock-step round trip at a time.
//!
//! The operation set mirrors [`pbrs_store::ChunkBackend`] one-to-one, and
//! that is the point: [`ReadRange`](Request::ReadRange) serves exactly the
//! helper byte ranges `ErasureCode::repair_reads` names (half-chunks for
//! Piggybacked-RS), so a degraded read or repair against a remote disk
//! ships only the bytes the rebuild consumes. [`Verify`](Request::Verify)
//! checks a chunk server-side and ships only the verdict.

use std::io::{self, IoSlice, Read, Write};
use std::time::Duration;

use pbrs_obs::trace::{SpanId, SpanRecord, TraceCtx, TraceId};
use pbrs_store::{ChunkId, ChunkStatus};

/// Hard upper bound on a frame body, protecting both ends from a corrupt
/// or hostile length prefix. Far above any real chunk (the store caps
/// chunk payloads at `u32::MAX`, but practical chunks are ≤ a few MiB).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

const OP_PING: u8 = 0;
const OP_ENSURE_OBJECT: u8 = 1;
const OP_REMOVE_OBJECT: u8 = 2;
const OP_WRITE_CHUNK: u8 = 3;
const OP_READ_CHUNK: u8 = 4;
const OP_READ_RANGE: u8 = 5;
const OP_VERIFY: u8 = 6;
const OP_SWEEP_TMP: u8 = 7;
const OP_DEADLINE: u8 = 8;
const OP_TRACE: u8 = 9;
const OP_FETCH_SPANS: u8 = 10;

/// The status byte of [`Response::Ok`]: the server writes it ahead of a
/// read payload it sends without encoding, and the client recognises a
/// payload it can read straight into the caller's buffer by it.
pub(crate) const STATUS_OK: u8 = 0;
const STATUS_MISSING: u8 = 1;
const STATUS_CORRUPT: u8 = 2;
const STATUS_ERR: u8 = 3;

/// One request to a chunk server. Operations mirror
/// [`pbrs_store::ChunkBackend`]; all are idempotent, which is what lets
/// the client transparently retry once over a fresh connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + disk-presence probe.
    Ping,
    /// Durably create the object's directory.
    EnsureObject {
        /// Object name (a validated path component).
        object: String,
    },
    /// Best-effort removal of the object's chunks.
    RemoveObject {
        /// Object name.
        object: String,
    },
    /// Write one chunk atomically and durably.
    WriteChunk {
        /// Object name.
        object: String,
        /// Chunk identity within the object.
        id: ChunkId,
        /// The chunk payload.
        payload: Vec<u8>,
    },
    /// Read and fully verify one chunk.
    ReadChunk {
        /// Object name.
        object: String,
        /// Chunk identity within the object.
        id: ChunkId,
        /// Expected payload length.
        len: u32,
    },
    /// Read a checksum-verified byte range of one chunk — the repair-read
    /// primitive (half-chunks for Piggybacked-RS helpers).
    ReadRange {
        /// Object name.
        object: String,
        /// Chunk identity within the object.
        id: ChunkId,
        /// Expected whole-payload length.
        chunk_len: u32,
        /// Byte offset of the range.
        offset: u32,
        /// Length of the range.
        len: u32,
    },
    /// Verify a chunk server-side; only the verdict crosses the wire.
    Verify {
        /// Object name.
        object: String,
        /// Chunk identity within the object.
        id: ChunkId,
        /// Expected payload length.
        chunk_len: u32,
    },
    /// Delete stale `*.tmp` crash leftovers older than `min_age`.
    SweepTmp {
        /// Minimum age before a tmp file counts as stale.
        min_age: Duration,
    },
    /// Wraps any other request with a deadline budget: the client's
    /// remaining patience, shipped so the server can refuse work it
    /// cannot finish in time (answering [`Response::Err`] with
    /// `"deadline exceeded"`) instead of burning disk on an answer nobody
    /// is waiting for. A new opcode rather than a trailing field so
    /// budget-less clients and servers interoperate unchanged.
    Deadline {
        /// Remaining budget in milliseconds.
        budget_ms: u32,
        /// The operation under the budget. Never itself a `Deadline`
        /// (nesting is rejected at decode).
        inner: Box<Request>,
    },
    /// Wraps any other request with the caller's trace context, so the
    /// server's span for this op joins the caller's tree. Mirrors
    /// [`Request::Deadline`]: a new opcode rather than a trailing field,
    /// so traceless legacy clients and un-upgraded servers interoperate
    /// unchanged. Always the **outermost** wrapper — it may wrap a
    /// `Deadline`, never another `Trace` (and a `Deadline` may not wrap
    /// a `Trace`); both are rejected at decode.
    Trace {
        /// The caller's context: trace id plus the span the server-side
        /// span should parent on.
        ctx: TraceCtx,
        /// The operation being traced.
        inner: Box<Request>,
    },
    /// Drains the server's finished-span export queue — the ship-back
    /// half of cross-process trace assembly. The gateway calls this when
    /// its `TRACES` verb runs, then merges the returned spans into its
    /// retained trees by trace id.
    FetchSpans,
}

/// One response from a chunk server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; `payload` is op-specific (chunk bytes for reads, encoded
    /// fields for ping/verify/sweep, empty otherwise).
    Ok {
        /// Op-specific payload bytes.
        payload: Vec<u8>,
    },
    /// The chunk (or file) does not exist.
    Missing,
    /// The chunk exists but cannot serve reads.
    Corrupt {
        /// What was wrong.
        reason: String,
    },
    /// The server failed to execute the request.
    Err {
        /// The server-side error text.
        message: String,
    },
}

impl Response {
    /// A `Missing`/`Corrupt` response as a [`ChunkStatus`], if it is one.
    pub fn as_chunk_status(&self) -> Option<ChunkStatus> {
        match self {
            Response::Missing => Some(ChunkStatus::Missing),
            Response::Corrupt { reason } => Some(ChunkStatus::Corrupt {
                reason: reason.clone(),
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Bytes of framing overhead per message (length prefix + request id).
pub const FRAME_OVERHEAD: u64 = 12;

/// Writes one frame (length prefix + request id + body) — the one frame
/// writer of both chunkd peers; [`write_frame_parts`] with a one-part
/// body.
///
/// # Errors
///
/// As [`write_frame_parts`].
pub fn write_frame(w: &mut impl Write, req_id: u64, body: &[u8]) -> io::Result<u64> {
    write_frame_parts(w, req_id, &[body])
}

/// Writes one frame whose body is the concatenation of `body` — how the
/// server answers a read with the status byte and the payload straight
/// from its read buffer, and the client sends a chunk write's encoded
/// fields and the payload straight from the stripe buffer: no assembled
/// copy. Header and parts go out as a single vectored write (one `writev`
/// on a socket), looping only when the writer accepts the frame in
/// pieces. Returns the total bytes put on the wire, for traffic
/// accounting.
///
/// # Errors
///
/// Propagates I/O failures (`WriteZero` if the writer stops accepting
/// bytes mid-frame); rejects bodies above [`MAX_FRAME`].
pub fn write_frame_parts(w: &mut impl Write, req_id: u64, body: &[&[u8]]) -> io::Result<u64> {
    let len: usize = body.iter().map(|part| part.len()).sum();
    if len > MAX_FRAME {
        return Err(invalid(format!("frame body of {len} bytes")));
    }
    let mut header = [0u8; FRAME_OVERHEAD as usize];
    // pbrs-lint: allow(wire-protocol) -- lossless: the MAX_FRAME guard above caps the length at 64 MiB
    header[..4].copy_from_slice(&(len as u32).to_le_bytes());
    header[4..].copy_from_slice(&req_id.to_le_bytes());
    let mut parts: Vec<IoSlice<'_>> = std::iter::once(&header[..])
        .chain(body.iter().copied())
        .map(IoSlice::new)
        .collect();
    let mut parts = &mut parts[..];
    let mut left = header.len() + len;
    while left > 0 {
        match w.write_vectored(parts) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "writer stopped accepting bytes mid-frame",
                ))
            }
            Ok(n) => {
                IoSlice::advance_slices(&mut parts, n);
                left -= n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()?;
    Ok(FRAME_OVERHEAD + len as u64)
}

/// Splits a frame header into `(request id, body length)`, rejecting
/// length prefixes above [`MAX_FRAME`] before anything is sized by them.
pub(crate) fn parse_header(header: &[u8; FRAME_OVERHEAD as usize]) -> io::Result<(u64, usize)> {
    let len = le_u32(&header[0..4]) as usize;
    if len > MAX_FRAME {
        return Err(invalid(format!("frame length {len} exceeds MAX_FRAME")));
    }
    Ok((le_u64(&header[4..12]), len))
}

/// Reads one frame. Returns the request id, the body, and the total bytes
/// taken off the wire.
///
/// # Errors
///
/// Propagates I/O failures (including `UnexpectedEof` mid-frame); rejects
/// length prefixes above [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<(u64, Vec<u8>, u64)> {
    let mut header = [0u8; FRAME_OVERHEAD as usize];
    r.read_exact(&mut header)?;
    let (req_id, len) = parse_header(&header)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((req_id, body, FRAME_OVERHEAD + len as u64))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Little-endian u32 from the first 4 bytes of `b`. Callers pass slices
/// whose length was already checked (fixed-size headers, [`Cursor::bytes`]).
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Little-endian u64 from the first 8 bytes of `b`; same contract as
/// [`le_u32`].
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

// ---------------------------------------------------------------------
// Body encoding
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    // pbrs-lint: allow(wire-protocol) -- lossless: any body holding the string is rejected above MAX_FRAME (64 MiB) at write time
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_id(out: &mut Vec<u8>, id: ChunkId) {
    out.extend_from_slice(&id.stripe.to_le_bytes());
    // pbrs-lint: allow(wire-protocol) -- lossless: shard indices are bounded by the stripe width (n + p), orders of magnitude below u32::MAX
    out.extend_from_slice(&(id.shard as u32).to_le_bytes());
}

/// A checked little-endian cursor over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, len: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| invalid("truncated message body".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(le_u32(self.bytes(4)?))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(le_u64(self.bytes(8)?))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| invalid("non-UTF-8 string".into()))
    }

    fn id(&mut self) -> io::Result<ChunkId> {
        Ok(ChunkId {
            stripe: self.u64()?,
            shard: self.u32()? as usize,
        })
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn finish(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(invalid("trailing bytes in message body".into()))
        }
    }
}

impl Request {
    /// Serialises the request into a frame body. A `WriteChunk` payload
    /// is the last field of the innermost request — the wrappers are pure
    /// prefixes — so the encoding of a request whose payload is empty,
    /// followed by the payload, is the encoding of the whole request: how
    /// the client sends a chunk without copying it into the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(OP_PING),
            Request::EnsureObject { object } => {
                out.push(OP_ENSURE_OBJECT);
                put_str(&mut out, object);
            }
            Request::RemoveObject { object } => {
                out.push(OP_REMOVE_OBJECT);
                put_str(&mut out, object);
            }
            Request::WriteChunk {
                object,
                id,
                payload,
            } => {
                out.push(OP_WRITE_CHUNK);
                put_str(&mut out, object);
                put_id(&mut out, *id);
                out.extend_from_slice(payload);
            }
            Request::ReadChunk { object, id, len } => {
                out.push(OP_READ_CHUNK);
                put_str(&mut out, object);
                put_id(&mut out, *id);
                out.extend_from_slice(&len.to_le_bytes());
            }
            Request::ReadRange {
                object,
                id,
                chunk_len,
                offset,
                len,
            } => {
                out.push(OP_READ_RANGE);
                put_str(&mut out, object);
                put_id(&mut out, *id);
                out.extend_from_slice(&chunk_len.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Request::Verify {
                object,
                id,
                chunk_len,
            } => {
                out.push(OP_VERIFY);
                put_str(&mut out, object);
                put_id(&mut out, *id);
                out.extend_from_slice(&chunk_len.to_le_bytes());
            }
            Request::SweepTmp { min_age } => {
                out.push(OP_SWEEP_TMP);
                // Millisecond precision: second truncation would turn a
                // sub-second min_age into "sweep everything".
                let millis = u64::try_from(min_age.as_millis()).unwrap_or(u64::MAX);
                out.extend_from_slice(&millis.to_le_bytes());
            }
            Request::Deadline { budget_ms, inner } => {
                out.push(OP_DEADLINE);
                out.extend_from_slice(&budget_ms.to_le_bytes());
                out.extend_from_slice(&inner.encode());
            }
            Request::Trace { ctx, inner } => {
                out.push(OP_TRACE);
                out.extend_from_slice(&ctx.trace.as_u64().to_le_bytes());
                out.extend_from_slice(&ctx.span.as_u64().to_le_bytes());
                out.extend_from_slice(&inner.encode());
            }
            Request::FetchSpans => out.push(OP_FETCH_SPANS),
        }
        out
    }

    /// Parses a request from a frame body: [`Request::decode_lending`]
    /// with a `WriteChunk`'s payload copied into the request.
    ///
    /// # Errors
    ///
    /// As [`Request::decode_lending`].
    pub fn decode(body: &[u8]) -> io::Result<Request> {
        let (mut request, tail) = Request::decode_lending(body)?;
        if let Request::WriteChunk { payload, .. } = request.innermost_mut() {
            *payload = tail.to_vec();
        }
        Ok(request)
    }

    /// Parses a request from a frame body, lending rather than copying a
    /// `WriteChunk`'s payload: the request comes back with an empty
    /// `payload`, and the payload is returned as the tail of `body` — how
    /// the server hands a chunk from its frame buffer to the disk. The
    /// tail is empty for every other request. Wrapped requests are
    /// handled the same way: the tail is the innermost `WriteChunk`'s.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for unknown opcodes, truncation, trailing
    /// bytes, a wrapper nested in its own kind, or a `Trace` that is not
    /// outermost.
    pub fn decode_lending(body: &[u8]) -> io::Result<(Request, &[u8])> {
        let mut c = Cursor::new(body);
        let mut tail: &[u8] = &[];
        let req = match c.u8()? {
            OP_PING => Request::Ping,
            OP_ENSURE_OBJECT => Request::EnsureObject { object: c.str()? },
            OP_REMOVE_OBJECT => Request::RemoveObject { object: c.str()? },
            OP_WRITE_CHUNK => {
                let (object, id) = (c.str()?, c.id()?);
                tail = c.rest();
                Request::WriteChunk {
                    object,
                    id,
                    payload: Vec::new(),
                }
            }
            OP_READ_CHUNK => Request::ReadChunk {
                object: c.str()?,
                id: c.id()?,
                len: c.u32()?,
            },
            OP_READ_RANGE => Request::ReadRange {
                object: c.str()?,
                id: c.id()?,
                chunk_len: c.u32()?,
                offset: c.u32()?,
                len: c.u32()?,
            },
            OP_VERIFY => Request::Verify {
                object: c.str()?,
                id: c.id()?,
                chunk_len: c.u32()?,
            },
            OP_SWEEP_TMP => Request::SweepTmp {
                min_age: Duration::from_millis(c.u64()?),
            },
            OP_DEADLINE => {
                let budget_ms = c.u32()?;
                let rest = c.rest();
                // Refused before recursing, so nesting depth — and stack
                // use — stays bounded whatever the body holds.
                match rest.first() {
                    Some(&OP_DEADLINE) => return Err(invalid("nested deadline wrapper".into())),
                    Some(&OP_TRACE) => {
                        return Err(invalid("trace wrapper must be outermost".into()))
                    }
                    _ => {}
                }
                let (inner, inner_tail) = Request::decode_lending(rest)?;
                tail = inner_tail;
                Request::Deadline {
                    budget_ms,
                    inner: Box::new(inner),
                }
            }
            OP_TRACE => {
                let trace = c.u64()?;
                let span = c.u64()?;
                let ctx = TraceCtx::from_raw(trace, span)
                    .ok_or_else(|| invalid("zero trace/span id in trace wrapper".into()))?;
                let rest = c.rest();
                if rest.first() == Some(&OP_TRACE) {
                    return Err(invalid("nested trace wrapper".into()));
                }
                let (inner, inner_tail) = Request::decode_lending(rest)?;
                tail = inner_tail;
                Request::Trace {
                    ctx,
                    inner: Box::new(inner),
                }
            }
            OP_FETCH_SPANS => Request::FetchSpans,
            other => return Err(invalid(format!("unknown opcode {other}"))),
        };
        c.finish()?;
        Ok((req, tail))
    }

    /// The operation under any `Trace` / `Deadline` wrappers.
    fn innermost_mut(&mut self) -> &mut Request {
        match self {
            Request::Deadline { inner, .. } | Request::Trace { inner, .. } => inner.innermost_mut(),
            op => op,
        }
    }
}

impl Response {
    /// Serialises the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok { payload } => {
                out.push(STATUS_OK);
                out.extend_from_slice(payload);
            }
            Response::Missing => out.push(STATUS_MISSING),
            Response::Corrupt { reason } => {
                out.push(STATUS_CORRUPT);
                put_str(&mut out, reason);
            }
            Response::Err { message } => {
                out.push(STATUS_ERR);
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Parses a response from a frame body.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for unknown status bytes or truncation.
    pub fn decode(body: &[u8]) -> io::Result<Response> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            STATUS_OK => Response::Ok {
                payload: c.rest().to_vec(),
            },
            STATUS_MISSING => Response::Missing,
            STATUS_CORRUPT => Response::Corrupt { reason: c.str()? },
            STATUS_ERR => Response::Err { message: c.str()? },
            other => return Err(invalid(format!("unknown status byte {other}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Op-specific Ok payloads (shared by server and client)
// ---------------------------------------------------------------------

/// Encodes a [`Request::Ping`] success payload.
pub fn encode_ping(disk_present: bool) -> Vec<u8> {
    vec![u8::from(disk_present)]
}

/// Decodes a [`Request::Ping`] success payload.
///
/// # Errors
///
/// Returns `InvalidData` on a malformed payload.
pub fn decode_ping(payload: &[u8]) -> io::Result<bool> {
    let mut c = Cursor::new(payload);
    let present = c.u8()? != 0;
    c.finish()?;
    Ok(present)
}

/// Encodes a [`Request::Verify`] success payload.
pub fn encode_verify(status: &ChunkStatus, bytes_read: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&bytes_read.to_le_bytes());
    match status {
        ChunkStatus::Healthy => out.push(0),
        ChunkStatus::Missing => out.push(1),
        ChunkStatus::Corrupt { reason } => {
            out.push(2);
            put_str(&mut out, reason);
        }
    }
    out
}

/// Decodes a [`Request::Verify`] success payload.
///
/// # Errors
///
/// Returns `InvalidData` on a malformed payload.
pub fn decode_verify(payload: &[u8]) -> io::Result<(ChunkStatus, u64)> {
    let mut c = Cursor::new(payload);
    let bytes_read = c.u64()?;
    let status = match c.u8()? {
        0 => ChunkStatus::Healthy,
        1 => ChunkStatus::Missing,
        2 => ChunkStatus::Corrupt { reason: c.str()? },
        other => return Err(invalid(format!("unknown chunk status {other}"))),
    };
    c.finish()?;
    Ok((status, bytes_read))
}

/// Encodes a [`Request::SweepTmp`] success payload.
pub fn encode_sweep(removed: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    // pbrs-lint: allow(wire-protocol) -- lossless: a sweep list anywhere near u32::MAX entries could not fit in a MAX_FRAME body
    out.extend_from_slice(&(removed.len() as u32).to_le_bytes());
    for path in removed {
        put_str(&mut out, path);
    }
    out
}

/// Decodes a [`Request::SweepTmp`] success payload.
///
/// # Errors
///
/// Returns `InvalidData` on a malformed payload.
pub fn decode_sweep(payload: &[u8]) -> io::Result<Vec<String>> {
    let mut c = Cursor::new(payload);
    let count = c.u32()? as usize;
    let mut removed = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        removed.push(c.str()?);
    }
    c.finish()?;
    Ok(removed)
}

/// Encodes a [`Request::FetchSpans`] success payload: the drained
/// finished spans, in drain order.
pub fn encode_spans(spans: &[SpanRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    // pbrs-lint: allow(wire-protocol) -- lossless: the export queue is bounded far below u32::MAX and the body below MAX_FRAME
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    for span in spans {
        out.extend_from_slice(&span.trace.as_u64().to_le_bytes());
        out.extend_from_slice(&span.id.as_u64().to_le_bytes());
        // Zero encodes "no parent".
        let parent = span.parent.map(SpanId::as_u64).unwrap_or(0);
        out.extend_from_slice(&parent.to_le_bytes());
        put_str(&mut out, &span.name);
        put_str(&mut out, &span.process);
        out.extend_from_slice(&span.start_us.to_le_bytes());
        out.extend_from_slice(&span.dur_us.to_le_bytes());
        // pbrs-lint: allow(wire-protocol) -- lossless: spans carry a handful of tags, nowhere near u32::MAX
        out.extend_from_slice(&(span.tags.len() as u32).to_le_bytes());
        for (k, v) in &span.tags {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
    }
    out
}

/// Decodes a [`Request::FetchSpans`] success payload.
///
/// # Errors
///
/// Returns `InvalidData` on truncation, trailing bytes, or a zero trace
/// or span id.
pub fn decode_spans(payload: &[u8]) -> io::Result<Vec<SpanRecord>> {
    let mut c = Cursor::new(payload);
    let count = c.u32()? as usize;
    let mut spans = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let trace =
            TraceId::new(c.u64()?).ok_or_else(|| invalid("zero trace id in span record".into()))?;
        let id =
            SpanId::new(c.u64()?).ok_or_else(|| invalid("zero span id in span record".into()))?;
        let parent = SpanId::new(c.u64()?);
        let name = c.str()?;
        let process = c.str()?;
        let start_us = c.u64()?;
        let dur_us = c.u64()?;
        let tag_count = c.u32()? as usize;
        let mut tags = Vec::with_capacity(tag_count.min(64));
        for _ in 0..tag_count {
            let k = c.str()?;
            let v = c.str()?;
            tags.push((k, v));
        }
        spans.push(SpanRecord {
            trace,
            id,
            parent,
            name,
            process,
            start_us,
            dur_us,
            tags,
        });
    }
    c.finish()?;
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: ChunkId = ChunkId {
        stripe: 42,
        shard: 7,
    };

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Ping,
            Request::EnsureObject {
                object: "obj".into(),
            },
            Request::RemoveObject {
                object: "obj".into(),
            },
            Request::WriteChunk {
                object: "obj".into(),
                id: ID,
                payload: (0..=255u8).collect(),
            },
            Request::ReadChunk {
                object: "obj".into(),
                id: ID,
                len: 4096,
            },
            Request::ReadRange {
                object: "obj".into(),
                id: ID,
                chunk_len: 4096,
                offset: 2048,
                len: 2048,
            },
            Request::Verify {
                object: "obj".into(),
                id: ID,
                chunk_len: 4096,
            },
            Request::SweepTmp {
                min_age: Duration::from_secs(60),
            },
            // Sub-second precision must survive the wire.
            Request::SweepTmp {
                min_age: Duration::from_millis(1500),
            },
            Request::Deadline {
                budget_ms: 250,
                inner: Box::new(Request::ReadRange {
                    object: "obj".into(),
                    id: ID,
                    chunk_len: 4096,
                    offset: 2048,
                    len: 2048,
                }),
            },
            Request::Trace {
                ctx: TraceCtx::from_raw(0x1234, 0x5678).unwrap(),
                inner: Box::new(Request::ReadChunk {
                    object: "obj".into(),
                    id: ID,
                    len: 4096,
                }),
            },
            // The canonical full stack: trace outermost, deadline inside.
            Request::Trace {
                ctx: TraceCtx::from_raw(0x1234, 0x5678).unwrap(),
                inner: Box::new(Request::Deadline {
                    budget_ms: 250,
                    inner: Box::new(Request::Ping),
                }),
            },
            Request::FetchSpans,
        ];
        for req in cases {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req, "{req:?}");
        }
    }

    /// One request of every operation opcode (the wrappers aside).
    fn every_op() -> Vec<Request> {
        let object = || "obj".to_string();
        vec![
            Request::Ping,
            Request::EnsureObject { object: object() },
            Request::RemoveObject { object: object() },
            Request::WriteChunk {
                object: object(),
                id: ID,
                payload: (0..24u8).collect(),
            },
            Request::ReadChunk {
                object: object(),
                id: ID,
                len: 4096,
            },
            Request::ReadRange {
                object: object(),
                id: ID,
                chunk_len: 4096,
                offset: 2048,
                len: 2048,
            },
            Request::Verify {
                object: object(),
                id: ID,
                chunk_len: 4096,
            },
            Request::SweepTmp {
                min_age: Duration::from_millis(1500),
            },
            Request::FetchSpans,
        ]
    }

    /// Each of [`every_op`], bare and inside `Trace(Deadline(..))`.
    fn every_request() -> Vec<Request> {
        every_op()
            .into_iter()
            .flat_map(|op| {
                let wrapped = Request::Trace {
                    ctx: TraceCtx::from_raw(0x1234, 0x5678).unwrap(),
                    inner: Box::new(Request::Deadline {
                        budget_ms: 250,
                        inner: Box::new(op.clone()),
                    }),
                };
                [op, wrapped]
            })
            .collect()
    }

    /// Checks `decode` and `decode_lending` against each other on `body`:
    /// both accept it or both refuse it, and what they accept is the same
    /// request — the lent tail is the write's payload, re-encoding the
    /// payload-less request and appending the tail gives `body` back
    /// byte for byte. Returns what `decode` made of it.
    fn decoders_agree(body: &[u8]) -> Option<Request> {
        let (decoded, lent) = (Request::decode(body), Request::decode_lending(body));
        assert_eq!(decoded.is_ok(), lent.is_ok(), "{body:?}");
        let (decoded, (mut head, tail)) = (decoded.ok()?, lent.unwrap());
        let mut wire = head.encode();
        wire.extend_from_slice(tail);
        assert_eq!(wire, body, "lent request + tail re-encodes to the body");
        match head.innermost_mut() {
            Request::WriteChunk { payload, .. } => {
                assert!(payload.is_empty(), "a lent payload stays in the body");
                *payload = tail.to_vec();
            }
            _ => assert!(tail.is_empty(), "only a write lends a tail: {head:?}"),
        }
        assert_eq!(head, decoded);
        Some(decoded)
    }

    #[test]
    fn both_decoders_agree_on_every_opcode_bare_and_wrapped() {
        for request in every_request() {
            let decoded = decoders_agree(&request.encode());
            assert_eq!(decoded, Some(request));
        }
    }

    #[test]
    fn both_decoders_are_total_under_byte_mutation() {
        let mut accepted = 0usize;
        for request in every_request() {
            let body = request.encode();
            // Every truncation, and one byte too many.
            for len in 0..body.len() {
                decoders_agree(&body[..len]);
            }
            let mut longer = body.clone();
            longer.push(0);
            decoders_agree(&longer);
            // Every value at every position.
            for at in 0..body.len() {
                for value in 0..=u8::MAX {
                    let mut mutated = body.clone();
                    mutated[at] = value;
                    accepted += usize::from(decoders_agree(&mutated).is_some());
                }
            }
        }
        // Payload and name bytes are free, so many mutants still parse.
        assert!(accepted > 0);
    }

    #[test]
    fn deeply_nested_wrappers_are_refused_without_recursing() {
        // 1 MiB of deadline openers: one recursion per wrapper would
        // overflow the stack long before the end of the body.
        let mut deep = Vec::new();
        while deep.len() < 1 << 20 {
            deep.push(OP_DEADLINE);
            deep.extend_from_slice(&1u32.to_le_bytes());
        }
        assert!(Request::decode(&deep).is_err());
        let mut traced = Vec::new();
        while traced.len() < 1 << 20 {
            traced.push(OP_TRACE);
            traced.extend_from_slice(&1u64.to_le_bytes());
            traced.extend_from_slice(&1u64.to_le_bytes());
        }
        assert!(Request::decode(&traced).is_err());
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Ok {
                payload: vec![1, 2, 3],
            },
            Response::Ok { payload: vec![] },
            Response::Missing,
            Response::Corrupt {
                reason: "payload checksum mismatch".into(),
            },
            Response::Err {
                message: "disk on fire".into(),
            },
        ];
        for resp in cases {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn ok_payload_helpers_round_trip() {
        assert!(decode_ping(&encode_ping(true)).unwrap());
        assert!(!decode_ping(&encode_ping(false)).unwrap());
        for status in [
            ChunkStatus::Healthy,
            ChunkStatus::Missing,
            ChunkStatus::Corrupt {
                reason: "why".into(),
            },
        ] {
            let (back, bytes) = decode_verify(&encode_verify(&status, 123)).unwrap();
            assert_eq!(back, status);
            assert_eq!(bytes, 123);
        }
        let removed = vec!["obj/a.tmp".to_string(), "b.tmp".to_string()];
        assert_eq!(decode_sweep(&encode_sweep(&removed)).unwrap(), removed);
        assert_eq!(
            decode_sweep(&encode_sweep(&[])).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        assert!(Request::decode(&[]).is_err(), "empty body");
        assert!(Request::decode(&[99]).is_err(), "unknown opcode");
        assert!(Response::decode(&[99]).is_err(), "unknown status");
        // Truncated string length.
        assert!(Request::decode(&[OP_ENSURE_OBJECT, 5, 0, 0, 0, b'a']).is_err());
        // Trailing garbage.
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
        // A deadline may wrap any op exactly once, never itself.
        let nested = Request::Deadline {
            budget_ms: 10,
            inner: Box::new(Request::Ping),
        };
        let mut doubled = vec![OP_DEADLINE];
        doubled.extend_from_slice(&20u32.to_le_bytes());
        doubled.extend_from_slice(&nested.encode());
        assert!(Request::decode(&doubled).is_err(), "nested deadline");
        // Trailing garbage inside the wrapped body is still rejected.
        let mut padded = nested.encode();
        padded.push(0);
        assert!(Request::decode(&padded).is_err());
    }

    #[test]
    fn trace_wrapper_is_strictly_outermost() {
        let ctx = TraceCtx::from_raw(7, 9).unwrap();
        // Trace in trace: rejected.
        let mut doubled = vec![OP_TRACE];
        doubled.extend_from_slice(&1u64.to_le_bytes());
        doubled.extend_from_slice(&2u64.to_le_bytes());
        doubled.extend_from_slice(
            &Request::Trace {
                ctx,
                inner: Box::new(Request::Ping),
            }
            .encode(),
        );
        assert!(Request::decode(&doubled).is_err(), "nested trace");
        // Deadline around trace: rejected (trace must be outermost).
        let mut inverted = vec![OP_DEADLINE];
        inverted.extend_from_slice(&10u32.to_le_bytes());
        inverted.extend_from_slice(
            &Request::Trace {
                ctx,
                inner: Box::new(Request::Ping),
            }
            .encode(),
        );
        assert!(Request::decode(&inverted).is_err(), "deadline around trace");
        // Zero ids are the "absent" encoding, never valid in an envelope.
        let mut zeroed = vec![OP_TRACE];
        zeroed.extend_from_slice(&0u64.to_le_bytes());
        zeroed.extend_from_slice(&2u64.to_le_bytes());
        zeroed.extend_from_slice(&Request::Ping.encode());
        assert!(Request::decode(&zeroed).is_err(), "zero trace id");
        // Truncated envelope header.
        assert!(Request::decode(&[OP_TRACE, 1, 2, 3]).is_err());
    }

    #[test]
    fn span_payloads_round_trip() {
        use pbrs_obs::trace::{SpanId, SpanRecord, TraceId};
        let spans = vec![
            SpanRecord {
                trace: TraceId::new(0xaaaa).unwrap(),
                id: SpanId::new(0xbbbb).unwrap(),
                parent: None,
                name: "read_chunk".into(),
                process: "chunkd:127.0.0.1:9000".into(),
                start_us: 1_700_000_000_000_000,
                dur_us: 321,
                tags: vec![],
            },
            SpanRecord {
                trace: TraceId::new(0xaaaa).unwrap(),
                id: SpanId::new(0xcccc).unwrap(),
                parent: SpanId::new(0xbbbb),
                name: "read_range".into(),
                process: "chunkd:127.0.0.1:9000".into(),
                start_us: 1_700_000_000_000_100,
                dur_us: 55,
                tags: vec![
                    ("object".into(), "obj".into()),
                    ("stripe".into(), "3".into()),
                ],
            },
        ];
        assert_eq!(decode_spans(&encode_spans(&spans)).unwrap(), spans);
        assert_eq!(decode_spans(&encode_spans(&[])).unwrap(), vec![]);
        // Truncation and trailing bytes are rejected.
        let body = encode_spans(&spans);
        assert!(decode_spans(&body[..body.len() - 1]).is_err());
        let mut padded = body.clone();
        padded.push(0);
        assert!(decode_spans(&padded).is_err());
        // A zero span id inside a record is rejected.
        let mut zeroed = encode_spans(&spans[..1]);
        zeroed[4 + 8..4 + 16].fill(0);
        assert!(decode_spans(&zeroed).is_err());
    }

    #[test]
    fn frames_round_trip_and_enforce_the_cap() {
        let mut wire = Vec::new();
        let sent = write_frame(&mut wire, 0xDEAD_BEEF, b"hello").unwrap();
        assert_eq!(sent, FRAME_OVERHEAD + 5);
        let (id, body, received) = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(id, 0xDEAD_BEEF);
        assert_eq!(body, b"hello");
        assert_eq!(received, FRAME_OVERHEAD + 5);
        // A hostile length prefix is rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        huge.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_frame(&mut huge.as_slice()).is_err());
    }
    /// A writer that takes at most `step` bytes per call — across the
    /// slices of a vectored write, like a socket with a nearly full send
    /// buffer — and counts its calls.
    struct Trickle {
        step: usize,
        wire: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.step - taken);
                self.wire.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_vectored_writes_still_deliver_whole_frames() {
        let body: Vec<u8> = (0..40u8).collect();
        let frame_len = FRAME_OVERHEAD as usize + body.len();
        // Every split: mid-header, at the header/body seam, mid-body, and
        // the whole frame in one call.
        for step in 1..=frame_len {
            let mut w = Trickle {
                step,
                wire: Vec::new(),
                calls: 0,
            };
            let sent = write_frame(&mut w, 77, &body).unwrap();
            assert_eq!(sent as usize, frame_len, "step {step}");
            assert_eq!(w.calls, frame_len.div_ceil(step), "step {step}");
            let (id, got, received) = read_frame(&mut w.wire.as_slice()).unwrap();
            assert_eq!((id, received as usize), (77, frame_len), "step {step}");
            assert_eq!(got, body, "step {step}");
        }
        // An empty body is a header-only frame, not a zero-length write.
        let mut w = Trickle {
            step: 5,
            wire: Vec::new(),
            calls: 0,
        };
        assert_eq!(write_frame(&mut w, 1, &[]).unwrap(), FRAME_OVERHEAD);
        assert_eq!(read_frame(&mut w.wire.as_slice()).unwrap().1, b"");
        // A writer that stops accepting bytes is an error, not a spin.
        let mut stuck = Trickle {
            step: 0,
            wire: Vec::new(),
            calls: 0,
        };
        let err = write_frame(&mut stuck, 1, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
