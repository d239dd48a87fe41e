//! The chunkd wire protocol: request-tagged binary frames over TCP.
//!
//! Framing is [`pbrs_wire`]'s: every message — request or response — is
//! one frame of a length prefix, a request id and a body, and a request
//! body may open with an envelope carrying the caller's trace context
//! ([`pbrs_wire::split_envelope`]). This module holds what is chunkd's
//! own: the opcode table and the messages.
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
//! checks a chunk server-side and ships only the verdict, and
//! [`WriteZeros`](Request::WriteZeros) writes a chunk of zeros from its
//! length alone: a short stripe's zero padding is read as a verdict and
//! written as a length, so none of its bytes cross the socket.

use std::io;
use std::time::Duration;

use pbrs_obs::trace::{SpanId, SpanRecord, TraceId};
use pbrs_store::{ChunkId, ChunkStatus};
use pbrs_wire::{invalid, Cursor};

const OP_PING: u8 = 0;
const OP_ENSURE_OBJECT: u8 = 1;
const OP_REMOVE_OBJECT: u8 = 2;
const OP_WRITE_CHUNK: u8 = 3;
const OP_READ_CHUNK: u8 = 4;
const OP_READ_RANGE: u8 = 5;
const OP_VERIFY: u8 = 6;
const OP_SWEEP_TMP: u8 = 7;
const OP_WRITE_ZEROS: u8 = 8;
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
    /// Write one chunk of `len` zero bytes, atomically and durably: the
    /// chunk a [`Request::WriteChunk`] of `len` zeros writes, with only the
    /// length on the wire.
    WriteZeros {
        /// Object name.
        object: String,
        /// Chunk identity within the object.
        id: ChunkId,
        /// Payload length in bytes.
        len: u32,
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

/// A [`ChunkId`]: stripe `u64`, then shard `u32`.
fn read_id(c: &mut Cursor<'_>) -> io::Result<ChunkId> {
    Ok(ChunkId {
        stripe: c.u64()?,
        shard: c.u32()? as usize,
    })
}

impl Request {
    /// Serialises the request into a frame body. A `WriteChunk` payload
    /// is its last field, so the encoding of a request whose payload is
    /// empty, followed by the payload, is the encoding of the whole
    /// request: how the client sends a chunk without copying it into the
    /// frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the request's encoding to `out`: how the client puts it
    /// behind an envelope in one buffer.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(OP_PING),
            Request::EnsureObject { object } => {
                out.push(OP_ENSURE_OBJECT);
                put_str(out, object);
            }
            Request::RemoveObject { object } => {
                out.push(OP_REMOVE_OBJECT);
                put_str(out, object);
            }
            Request::WriteChunk {
                object,
                id,
                payload,
            } => {
                out.push(OP_WRITE_CHUNK);
                put_str(out, object);
                put_id(out, *id);
                out.extend_from_slice(payload);
            }
            Request::WriteZeros { object, id, len } => {
                out.push(OP_WRITE_ZEROS);
                put_str(out, object);
                put_id(out, *id);
                out.extend_from_slice(&len.to_le_bytes());
            }
            Request::ReadChunk { object, id, len } => {
                out.push(OP_READ_CHUNK);
                put_str(out, object);
                put_id(out, *id);
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
                put_str(out, object);
                put_id(out, *id);
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
                put_str(out, object);
                put_id(out, *id);
                out.extend_from_slice(&chunk_len.to_le_bytes());
            }
            Request::SweepTmp { min_age } => {
                out.push(OP_SWEEP_TMP);
                // Millisecond precision: second truncation would turn a
                // sub-second min_age into "sweep everything".
                let millis = u64::try_from(min_age.as_millis()).unwrap_or(u64::MAX);
                out.extend_from_slice(&millis.to_le_bytes());
            }
            Request::FetchSpans => out.push(OP_FETCH_SPANS),
        }
    }

    /// Parses a request from a frame body, lending rather than copying a
    /// `WriteChunk`'s payload: the request comes back with an empty
    /// `payload`, and the payload is returned as the tail of `body` — how
    /// the server hands a chunk from its frame buffer to the disk. The
    /// tail is empty for every other request. `body` is the bare request,
    /// what [`pbrs_wire::split_envelope`] leaves.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for unknown opcodes (an envelope tag among
    /// them), truncation or trailing bytes.
    pub fn decode_lending(body: &[u8]) -> io::Result<(Request, &[u8])> {
        let mut c = Cursor::new(body);
        let mut tail: &[u8] = &[];
        let req = match c.u8()? {
            OP_PING => Request::Ping,
            OP_ENSURE_OBJECT => Request::EnsureObject { object: c.str()? },
            OP_REMOVE_OBJECT => Request::RemoveObject { object: c.str()? },
            OP_WRITE_CHUNK => {
                let (object, id) = (c.str()?, read_id(&mut c)?);
                tail = c.rest();
                Request::WriteChunk {
                    object,
                    id,
                    payload: Vec::new(),
                }
            }
            OP_WRITE_ZEROS => Request::WriteZeros {
                object: c.str()?,
                id: read_id(&mut c)?,
                len: c.u32()?,
            },
            OP_READ_CHUNK => Request::ReadChunk {
                object: c.str()?,
                id: read_id(&mut c)?,
                len: c.u32()?,
            },
            OP_READ_RANGE => Request::ReadRange {
                object: c.str()?,
                id: read_id(&mut c)?,
                chunk_len: c.u32()?,
                offset: c.u32()?,
                len: c.u32()?,
            },
            OP_VERIFY => Request::Verify {
                object: c.str()?,
                id: read_id(&mut c)?,
                chunk_len: c.u32()?,
            },
            OP_SWEEP_TMP => Request::SweepTmp {
                min_age: Duration::from_millis(c.u64()?),
            },
            OP_FETCH_SPANS => Request::FetchSpans,
            other => return Err(invalid(format!("unknown opcode {other:#04x}"))),
        };
        c.finish()?;
        Ok((req, tail))
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
            other => return Err(invalid(format!("unknown status byte {other:#04x}"))),
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
    let present = match c.u8()? {
        0 => false,
        1 => true,
        other => return Err(invalid(format!("disk presence byte {other}"))),
    };
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
            TraceId::new(c.u64()?).ok_or_else(|| invalid("zero trace id in span record"))?;
        let id = SpanId::new(c.u64()?).ok_or_else(|| invalid("zero span id in span record"))?;
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
    use pbrs_obs::trace::TraceCtx;
    use pbrs_wire::{
        encode_envelope, split_envelope, write_frame, write_frame_parts, OP_ENV_TRACE,
    };

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
            Request::WriteZeros {
                object: "obj".into(),
                id: ID,
                len: 4096,
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
            Request::FetchSpans,
        ];
        for req in cases {
            assert_eq!(decoded(&req.encode()), Some(req.clone()), "{req:?}");
        }
    }

    /// One request of every operation opcode.
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
            Request::WriteZeros {
                object: object(),
                id: ID,
                len: 4096,
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

    /// Each of [`every_op`] as a frame body: bare, and behind a trace
    /// envelope.
    fn every_request() -> Vec<(Request, Vec<u8>)> {
        let trace = TraceCtx::from_raw(0x1234, 0x5678);
        every_op()
            .into_iter()
            .flat_map(|op| {
                let mut wrapped = Vec::new();
                encode_envelope(trace, &mut wrapped);
                wrapped.extend_from_slice(&op.encode());
                [(op.clone(), op.encode()), (op, wrapped)]
            })
            .collect()
    }

    /// Splits the envelope off `body` as the server does, then decodes
    /// the rest with `decode_lending`: only a write lends a tail, and the
    /// envelope, the payload-less request and the tail re-encode to `body`
    /// byte for byte. Returns the request with the lent tail as its
    /// payload.
    fn decoded(body: &[u8]) -> Option<Request> {
        let (trace, bare) = split_envelope(body).ok()?;
        let (mut head, tail) = Request::decode_lending(bare).ok()?;
        let mut wire = Vec::new();
        encode_envelope(trace, &mut wire);
        wire.extend_from_slice(&head.encode());
        wire.extend_from_slice(tail);
        assert_eq!(
            wire, body,
            "envelope + lent request + tail re-encode to the body"
        );
        match &mut head {
            Request::WriteChunk { payload, .. } => {
                assert!(payload.is_empty(), "a lent payload stays in the body");
                *payload = tail.to_vec();
            }
            _ => assert!(tail.is_empty(), "only a write lends a tail: {head:?}"),
        }
        Some(head)
    }

    #[test]
    fn both_decoders_agree_on_every_opcode_bare_and_wrapped() {
        for (request, body) in every_request() {
            assert_eq!(decoded(&body), Some(request));
        }
    }

    /// Every truncation of `bytes`, `bytes` with one byte too many, and
    /// `bytes` with each position set to each value.
    fn mutants(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let truncations = (0..bytes.len()).map(|len| bytes[..len].to_vec());
        let longer = std::iter::once([bytes, &[0]].concat());
        let rewrites = (0..bytes.len()).flat_map(move |at| {
            (0..=u8::MAX).map(move |value| {
                let mut mutated = bytes.to_vec();
                mutated[at] = value;
                mutated
            })
        });
        truncations.chain(longer).chain(rewrites)
    }

    #[test]
    fn both_decoders_are_total_under_byte_mutation() {
        let mut accepted = 0usize;
        for (_, body) in every_request() {
            for mutated in mutants(&body) {
                accepted += usize::from(decoded(&mutated).is_some());
            }
        }
        // Payload and name bytes are free, so many mutants still parse.
        assert!(accepted > 0);
    }

    /// One response of every status, and one `Ok` payload of every shape
    /// the op-specific helpers encode.
    fn every_response() -> Vec<Response> {
        let spans = vec![SpanRecord {
            trace: TraceId::new(0xaaaa).unwrap(),
            id: SpanId::new(0xbbbb).unwrap(),
            parent: SpanId::new(0xcccc),
            name: "read_range".into(),
            process: "chunkd".into(),
            start_us: 17,
            dur_us: 5,
            tags: vec![("object".into(), "obj".into())],
        }];
        let corrupt = ChunkStatus::Corrupt {
            reason: "bad".into(),
        };
        [
            vec![1, 2, 3],
            Vec::new(),
            encode_ping(true),
            encode_ping(false),
            encode_verify(&ChunkStatus::Healthy, 9),
            encode_verify(&ChunkStatus::Missing, 0),
            encode_verify(&corrupt, 4096),
            encode_sweep(&["obj/a.tmp".into(), "b.tmp".into()]),
            encode_spans(&spans),
        ]
        .into_iter()
        .map(|payload| Response::Ok { payload })
        .chain([
            Response::Missing,
            Response::Corrupt {
                reason: "payload checksum mismatch".into(),
            },
            Response::Err {
                message: "disk on fire".into(),
            },
        ])
        .collect()
    }

    /// Runs the response decoder and every `Ok`-payload decoder on `body`:
    /// none panics, and whatever one accepts re-encodes to exactly the
    /// bytes it was given.
    fn response_decoders_reencode(body: &[u8]) -> usize {
        let mut accepted = 0;
        if let Ok(response) = Response::decode(body) {
            assert_eq!(response.encode(), body, "{response:?}");
            accepted += 1;
        }
        let Some(payload) = body.strip_prefix(&[STATUS_OK]) else {
            return accepted;
        };
        if let Ok(present) = decode_ping(payload) {
            assert_eq!(encode_ping(present), payload);
            accepted += 1;
        }
        if let Ok((status, bytes_read)) = decode_verify(payload) {
            assert_eq!(encode_verify(&status, bytes_read), payload);
            accepted += 1;
        }
        if let Ok(removed) = decode_sweep(payload) {
            assert_eq!(encode_sweep(&removed), payload);
            accepted += 1;
        }
        if let Ok(spans) = decode_spans(payload) {
            assert_eq!(encode_spans(&spans), payload);
            accepted += 1;
        }
        accepted
    }

    #[test]
    fn response_decoders_are_total_and_reencode_exactly() {
        let mut accepted = 0usize;
        for response in every_response() {
            let body = response.encode();
            assert!(response_decoders_reencode(&body) > 0, "{response:?}");
            for mutated in mutants(&body) {
                accepted += response_decoders_reencode(&mutated);
            }
        }
        assert!(accepted > 0);
    }

    #[test]
    fn responses_round_trip() {
        for resp in every_response() {
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
        let refused = |body: &[u8]| Request::decode_lending(body).is_err();
        assert!(refused(&[]), "empty body");
        assert!(refused(&[99]), "unknown opcode");
        assert!(Response::decode(&[99]).is_err(), "unknown status");
        // Truncated string length.
        assert!(refused(&[OP_ENSURE_OBJECT, 5, 0, 0, 0, b'a']));
        // Trailing garbage.
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(refused(&body));
        // An envelope tag is no opcode: a repeated trace tag is refused by
        // the request decoder, not read as a second envelope, and 0xE1
        // (the retired deadline tag) is an unknown opcode.
        for tag in [OP_ENV_TRACE, 0xE1] {
            let mut body = vec![tag, 1, 0, 0, 0];
            body.extend_from_slice(&Request::Ping.encode());
            assert!(refused(&body), "tag {tag:#04x}");
        }
    }

    #[test]
    fn span_payloads_round_trip() {
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

    /// Bare frames as the peers send them, byte for byte as recorded
    /// before the framing moved to `pbrs-wire`: a `ReadChunk`, a
    /// `WriteChunk` sent from a borrowed payload, and a read's `Ok`.
    #[test]
    fn bare_frames_keep_their_recorded_bytes() {
        let mut read = Vec::new();
        let request = Request::ReadChunk {
            object: "obj".into(),
            id: ID,
            len: 4096,
        };
        write_frame(&mut read, 7, &request.encode()).unwrap();
        assert_eq!(
            read,
            [
                24, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 4, 3, 0, 0, 0, 111, 98, 106, 42, 0, 0, 0, 0,
                0, 0, 0, 7, 0, 0, 0, 0, 16, 0, 0
            ]
        );
        let mut write = Vec::new();
        let fields = Request::WriteChunk {
            object: "obj".into(),
            id: ID,
            payload: Vec::new(),
        }
        .encode();
        write_frame_parts(&mut write, 8, &[&fields, &[1, 2, 3, 4, 5]]).unwrap();
        assert_eq!(
            write,
            [
                25, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 111, 98, 106, 42, 0, 0, 0, 0,
                0, 0, 0, 7, 0, 0, 0, 1, 2, 3, 4, 5
            ]
        );
        let mut ok = Vec::new();
        write_frame_parts(&mut ok, 9, &[&[STATUS_OK], &[9, 8, 7]]).unwrap();
        assert_eq!(ok, [4, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 9, 8, 7]);
    }
}
