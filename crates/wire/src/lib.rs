//! `pbrs-wire` — what the two network protocols share: chunkd's chunk
//! RPCs (`pbrs-chunkd`) and the gateway's object RPCs (`pbrs-gateway`).
//! Each protocol keeps its opcode table and its message types; the frame,
//! the checked body reader and the trace envelope are here, once.
//!
//! # Frames
//!
//! Every message of either protocol — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  body length   (u32 LE, ≤ MAX_FRAME)
//!      4     8  request id    (u64 LE)
//!     12     …  body
//! ```
//!
//! The request id tags every frame of a request and of its response(s),
//! and a peer matches by id, never by arrival order. [`parse_header`]
//! refuses a length above [`MAX_FRAME`] before anything is sized from it.
//! [`write_frame_parts`] sends the header and a body given in pieces as
//! one vectored write, so a payload goes out straight from the caller's
//! buffer; [`read_frame_into`] reads a body into a buffer that only grows
//! and is never zeroed per frame.
//!
//! # Bodies
//!
//! Integers are little-endian. A [`Cursor`] reads a body field by field,
//! and every read is checked: truncation, trailing bytes and non-UTF-8
//! strings are `InvalidData` errors, never panics.
//!
//! # The envelope
//!
//! A request body may open with an envelope: one optional tag carrying
//! the caller's trace context.
//!
//! ```text
//! [0xE0 trace id: u64, span id: u64]   optional
//! opcode, fields …                     the bare request
//! ```
//!
//! [`split_envelope`] reads at most one trace tag, and what is left is the
//! bare request. It does not loop or recurse: a second trace tag is
//! refused, so nesting cannot be expressed at all. The tag byte is no
//! opcode or status of either protocol, and a frame without an envelope
//! is byte for byte the bare request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, IoSlice, Read, Write};

use pbrs_obs::trace::TraceCtx;

/// Upper bound on a frame body, protecting both ends from a corrupt or
/// hostile length prefix. Far above any real chunk or stripe (practical
/// ones are a few MiB), small enough that no prefix can size a huge
/// allocation.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of framing per message: the length prefix and the request id.
pub const FRAME_OVERHEAD: usize = 12;

/// Envelope tag: the caller's trace context follows (16 bytes of ids).
pub const OP_ENV_TRACE: u8 = 0xE0;

/// An `InvalidData` error: how every malformed frame or body is reported.
pub fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Little-endian u32 from the first 4 bytes of `b`. Callers pass slices
/// whose length was already checked (the frame header, [`Cursor::bytes`]).
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Little-endian u64 from the first 8 bytes of `b`; same contract as
/// [`le_u32`].
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// The header of a frame whose body is `len` bytes.
pub fn frame_header(req_id: u64, len: usize) -> [u8; FRAME_OVERHEAD] {
    let mut header = [0u8; FRAME_OVERHEAD];
    // pbrs-lint: allow(wire-protocol) -- lossless: writers reject bodies over MAX_FRAME (64 MiB), and a gateway reactor response is one stripe or bounded text
    header[..4].copy_from_slice(&(len as u32).to_le_bytes());
    header[4..].copy_from_slice(&req_id.to_le_bytes());
    header
}

/// Splits a frame header into `(request id, body length)`, refusing a
/// length above [`MAX_FRAME`] before anything is sized by it.
///
/// # Errors
///
/// `InvalidData` for an over-cap length.
pub fn parse_header(header: &[u8; FRAME_OVERHEAD]) -> io::Result<(u64, usize)> {
    let len = le_u32(&header[..4]) as usize;
    if len > MAX_FRAME {
        return Err(invalid(format!("frame length {len} exceeds MAX_FRAME")));
    }
    Ok((le_u64(&header[4..]), len))
}

/// Writes one frame: [`write_frame_parts`] with a one-part body.
///
/// # Errors
///
/// As [`write_frame_parts`].
pub fn write_frame(w: &mut impl Write, req_id: u64, body: &[u8]) -> io::Result<u64> {
    write_frame_parts(w, req_id, &[body])
}

/// Writes one frame whose body is the concatenation of `body`, so a
/// payload follows its encoded fields straight from the caller's buffer,
/// with no assembled copy. Header and parts go out as one vectored write
/// (one `writev` on a socket), looping only when the writer takes the
/// frame in pieces. Returns the bytes put on the wire, for traffic
/// accounting.
///
/// # Errors
///
/// `InvalidData` for a body above [`MAX_FRAME`]; `WriteZero` if the
/// writer stops taking bytes mid-frame; other I/O errors pass through.
pub fn write_frame_parts(w: &mut impl Write, req_id: u64, body: &[&[u8]]) -> io::Result<u64> {
    let len: usize = body.iter().map(|part| part.len()).sum();
    if len > MAX_FRAME {
        return Err(invalid(format!("frame body of {len} bytes")));
    }
    let header = frame_header(req_id, len);
    let mut parts: Vec<IoSlice<'_>> = std::iter::once(&header[..])
        .chain(body.iter().copied())
        .map(IoSlice::new)
        .collect();
    let mut parts = &mut parts[..];
    let mut left = FRAME_OVERHEAD + len;
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
    Ok((FRAME_OVERHEAD + len) as u64)
}

/// Reads one frame into a caller-owned buffer: the body lands in the
/// first `len` bytes of `body`, which grows to fit and is never shrunk or
/// zeroed per frame. Returns `(request id, len)`.
///
/// # Errors
///
/// `InvalidData` for an over-cap length; `UnexpectedEof` and other I/O
/// errors pass through.
pub fn read_frame_into(r: &mut impl Read, body: &mut Vec<u8>) -> io::Result<(u64, usize)> {
    let mut header = [0u8; FRAME_OVERHEAD];
    r.read_exact(&mut header)?;
    let (req_id, len) = parse_header(&header)?;
    if body.len() < len {
        body.resize(len, 0);
    }
    r.read_exact(&mut body[..len])?;
    Ok((req_id, len))
}

/// Reads one frame into a fresh buffer: [`read_frame_into`] for callers
/// that keep no buffer between frames. Returns `(request id, body)`.
///
/// # Errors
///
/// As [`read_frame_into`].
pub fn read_frame(r: &mut impl Read) -> io::Result<(u64, Vec<u8>)> {
    let mut body = Vec::new();
    let (req_id, _) = read_frame_into(r, &mut body)?;
    Ok((req_id, body))
}

/// A checked little-endian reader over one frame body.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// The next `len` bytes.
    ///
    /// # Errors
    ///
    /// `InvalidData` if fewer are left.
    pub fn bytes(&mut self, len: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| invalid("truncated message body"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// The next byte, left unread.
    ///
    /// # Errors
    ///
    /// `InvalidData` at the end of the body.
    pub fn peek(&self) -> io::Result<u8> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| invalid("truncated message body"))
    }

    /// The next byte.
    ///
    /// # Errors
    ///
    /// `InvalidData` at the end of the body.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// The next 4 bytes as a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// `InvalidData` if fewer are left.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(le_u32(self.bytes(4)?))
    }

    /// The next 8 bytes as a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// `InvalidData` if fewer are left.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(le_u64(self.bytes(8)?))
    }

    /// A string: a `u32` byte length, then that many bytes of UTF-8.
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncation or invalid UTF-8.
    pub fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| invalid("non-UTF-8 string"))
    }

    /// Everything not read yet; the cursor ends at the end of the body.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Checks that the whole body was read.
    ///
    /// # Errors
    ///
    /// `InvalidData` if bytes are left.
    pub fn finish(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(invalid("trailing bytes in message body"))
        }
    }
}

/// Appends the envelope of a request sent under `trace` to `out`: the
/// trace tag and its ids, or nothing at all for an untraced request, so
/// the bare request follows unchanged. See the
/// [crate docs](crate#the-envelope) for the layout.
pub fn encode_envelope(trace: Option<TraceCtx>, out: &mut Vec<u8>) {
    if let Some(ctx) = trace {
        out.push(OP_ENV_TRACE);
        out.extend_from_slice(&ctx.trace.as_u64().to_le_bytes());
        out.extend_from_slice(&ctx.span.as_u64().to_le_bytes());
    }
}

/// Splits a request body into the trace it was sent under and the bare
/// request: at most one trace tag, no more.
///
/// # Errors
///
/// `InvalidData` for a truncated envelope, no request after it, zero
/// trace or span ids (the wire's "absent"), or a second trace tag.
pub fn split_envelope(body: &[u8]) -> io::Result<(Option<TraceCtx>, &[u8])> {
    let mut c = Cursor::new(body);
    let trace = match c.peek()? {
        OP_ENV_TRACE => {
            c.u8()?;
            let ctx = TraceCtx::from_raw(c.u64()?, c.u64()?)
                .ok_or_else(|| invalid("zero trace or span id in the envelope"))?;
            Some(ctx)
        }
        _ => None,
    };
    match c.peek()? {
        OP_ENV_TRACE => Err(invalid("repeated envelope tag")),
        _ => Ok((trace, c.rest())),
    }
}
