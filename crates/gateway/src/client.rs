//! A small blocking gateway client.
//!
//! [`GatewayClient`] wraps one TCP connection and offers whole-object
//! convenience calls (`put` / `get` / `delete` / `stat` / `metrics`)
//! plus a streaming [`GatewayClient::get_streamed`] that hands each
//! stripe to a sink as it arrives — the client-side half of the
//! gateway's O(stripe) memory story, and what `benchmark/` and the
//! contract tests use so measured latency is first-byte-honest.
//!
//! For pipelining (several requests in flight on one socket, responses
//! matched by id) the raw [`GatewayClient::send_request`] /
//! [`GatewayClient::recv_response`] pair exposes the frame layer
//! directly; the loopback tests use it to prove id-based demultiplexing
//! under reordering.
//!
//! Neither direction copies a stripe in user space. A `PUT` sends each
//! [`PUT_CHUNK`] piece straight from the caller's slice, behind its
//! frame header and opcode. A `GET` stream reads every frame into one
//! buffer (`pbrs_wire::read_frame_into`) and hands each stripe to the sink
//! as a slice of it ([`Response::decode_lending`]).

use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pbrs_obs::trace::TraceCtx;
use pbrs_wire::{read_frame, read_frame_into, write_frame, write_frame_parts, Envelope, MAX_FRAME};

use crate::protocol::{put_data_head, Request, Response};

/// How much payload one `PUT_DATA` frame carries (well under
/// [`MAX_FRAME`]; several frames keep the gateway's workers busy while
/// the client keeps writing).
pub const PUT_CHUNK: usize = 1 << 20;

/// Errors a gateway round trip can produce.
#[derive(Debug)]
pub enum GatewayError {
    /// Transport failure (connect, read, write, framing).
    Io(io::Error),
    /// The gateway shed the request at its admission limit; back off and
    /// retry.
    Busy,
    /// The object never existed.
    NotFound,
    /// The object existed and was deleted (typed tombstone).
    Deleted,
    /// The gateway reported a failure executing the request.
    Remote(String),
    /// The gateway answered with a frame that does not fit the exchange.
    Protocol(String),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "gateway transport error: {e}"),
            GatewayError::Busy => write!(f, "gateway is busy (admission limit); retry later"),
            GatewayError::NotFound => write!(f, "object not found"),
            GatewayError::Deleted => write!(f, "object was deleted"),
            GatewayError::Remote(m) => write!(f, "gateway error: {m}"),
            GatewayError::Protocol(m) => write!(f, "gateway protocol violation: {m}"),
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GatewayError {
    fn from(e: io::Error) -> Self {
        GatewayError::Io(e)
    }
}

/// Result alias for gateway calls.
pub type Result<T> = std::result::Result<T, GatewayError>;

/// The flight recorder's retained traces, as served by the `TRACES`
/// verb: the same trees rendered two ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traces {
    /// Structured JSON (`{"traces":[...]}`): trace ids, retention
    /// reasons, and every span with its parent/process/tags.
    pub json: String,
    /// Chrome `trace_event` JSON array — load it in Perfetto or
    /// `chrome://tracing` to see the trees on a timeline.
    pub chrome: String,
}

/// A whole object fetched by [`GatewayClient::get`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetObject {
    /// The payload.
    pub data: Vec<u8>,
    /// How many of its stripes the gateway served degraded.
    pub degraded_stripes: u64,
}

/// One blocking connection to a gateway; see the [module docs](self).
#[derive(Debug)]
pub struct GatewayClient {
    stream: TcpStream,
    next_id: u64,
}

impl GatewayClient {
    /// Connects to a gateway.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(GatewayClient { stream, next_id: 1 })
    }

    /// Sets (or clears) the read timeout used while waiting for
    /// responses.
    ///
    /// # Errors
    ///
    /// The OS rejecting the timeout.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// A request id unused on this connection.
    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one request frame under `req_id` without waiting — the raw
    /// building block for pipelining.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send_request(&mut self, req_id: u64, request: &Request) -> Result<()> {
        write_frame(&mut self.stream, req_id, &request.encode())?;
        Ok(())
    }

    /// Receives the next response frame, whatever request it belongs to.
    ///
    /// # Errors
    ///
    /// Transport failures and undecodable bodies.
    pub fn recv_response(&mut self) -> Result<(u64, Response)> {
        let (id, body) = read_frame(&mut self.stream)?;
        let resp = Response::decode(&body)?;
        Ok((id, resp))
    }

    /// Stores `data` under `name`, streaming it in [`PUT_CHUNK`] pieces.
    /// Returns `(len, stripes)` as committed.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Busy`] when shed, [`GatewayError::Remote`] for
    /// store-side failures (e.g. the name exists), transport errors.
    pub fn put(&mut self, name: &str, data: &[u8]) -> Result<(u64, u64)> {
        let id = self.fresh_id();
        // Buffer the small frames; one flush before waiting.
        let mut w = BufWriter::new(&self.stream);
        write_frame(
            &mut w,
            id,
            &Request::PutStart { name: name.into() }.encode(),
        )?;
        for piece in data.chunks(PUT_CHUNK.min(MAX_FRAME - 1)) {
            w.write_all(&put_data_head(id, piece.len()))?;
            w.write_all(piece)?;
        }
        write_frame(&mut w, id, &Request::PutEnd.encode())?;
        w.flush()?;
        drop(w);
        match self.expect_for(id)? {
            Response::Created { len, stripes } => Ok((len, stripes)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches `name` whole.
    ///
    /// # Errors
    ///
    /// [`GatewayError::NotFound`] / [`GatewayError::Deleted`] for the
    /// typed misses, [`GatewayError::Busy`], remote and transport errors.
    pub fn get(&mut self, name: &str) -> Result<GetObject> {
        self.get_whole(name, Envelope::default())
    }

    /// Fetches `name`, handing each stripe's payload to `sink` as it
    /// arrives; client memory stays O(stripe). Returns how many stripes
    /// were served degraded.
    ///
    /// # Errors
    ///
    /// As [`GatewayClient::get`].
    pub fn get_streamed(&mut self, name: &str, sink: impl FnMut(&[u8])) -> Result<u64> {
        self.get_under(name, Envelope::default(), sink)
    }

    /// Tombstones `name`; returns how many payload bytes it held.
    ///
    /// # Errors
    ///
    /// As [`GatewayClient::get`].
    pub fn delete(&mut self, name: &str) -> Result<u64> {
        let id = self.fresh_id();
        self.send_request(id, &Request::Delete { name: name.into() })?;
        match self.expect_for(id)? {
            Response::DeletedOk { len } => Ok(len),
            other => Err(unexpected(other)),
        }
    }

    /// Looks up `name`'s metadata: `(len, stripes)`.
    ///
    /// # Errors
    ///
    /// As [`GatewayClient::get`].
    pub fn stat(&mut self, name: &str) -> Result<(u64, u64)> {
        let id = self.fresh_id();
        self.send_request(id, &Request::Stat { name: name.into() })?;
        match self.expect_for(id)? {
            Response::Stat { len, stripes } => Ok((len, stripes)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the gateway's counters as JSON.
    ///
    /// # Errors
    ///
    /// Transport and remote errors.
    pub fn metrics(&mut self) -> Result<String> {
        let id = self.fresh_id();
        self.send_request(id, &Request::Metrics)?;
        match self.expect_for(id)? {
            Response::Metrics { json } => Ok(json),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the gateway's Prometheus text exposition (gateway counters
    /// and latency histograms plus the store's).
    ///
    /// # Errors
    ///
    /// Transport and remote errors.
    pub fn prometheus(&mut self) -> Result<String> {
        let id = self.fresh_id();
        self.send_request(id, &Request::Prometheus)?;
        match self.expect_for(id)? {
            Response::Prometheus { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the gateway's retained traces (JSON + Chrome trace_event).
    /// The gateway pulls chunkd-recorded spans over the wire first, so
    /// the trees span every process that touched the op.
    ///
    /// # Errors
    ///
    /// Transport and remote errors.
    pub fn traces(&mut self) -> Result<Traces> {
        let id = self.fresh_id();
        self.send_request(id, &Request::Traces)?;
        match self.expect_for(id)? {
            Response::Traces { json, chrome } => Ok(Traces { json, chrome }),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches `name` whole under a caller-supplied trace context: the
    /// gateway's root span adopts `ctx`'s trace id and parents on its
    /// span id, so the op joins a trace the caller began elsewhere.
    ///
    /// # Errors
    ///
    /// As [`GatewayClient::get`].
    pub fn get_traced(&mut self, name: &str, ctx: TraceCtx) -> Result<GetObject> {
        let envelope = Envelope {
            trace: Some(ctx),
            deadline_ms: None,
        };
        self.get_whole(name, envelope)
    }

    /// [`GatewayClient::get_under`], collecting the stripes.
    fn get_whole(&mut self, name: &str, envelope: Envelope) -> Result<GetObject> {
        let mut data = Vec::new();
        let degraded_stripes =
            self.get_under(name, envelope, |stripe| data.extend_from_slice(stripe))?;
        Ok(GetObject {
            data,
            degraded_stripes,
        })
    }

    /// Sends a `GET` behind `envelope` (nothing at all for an empty one)
    /// and streams the response to `sink`.
    fn get_under(
        &mut self,
        name: &str,
        envelope: Envelope,
        sink: impl FnMut(&[u8]),
    ) -> Result<u64> {
        let id = self.fresh_id();
        let mut head = Vec::new();
        envelope.encode_into(&mut head);
        let get = Request::Get { name: name.into() }.encode();
        write_frame_parts(&mut self.stream, id, &[&head, &get])?;
        recv_get_stream(&self.stream, id, sink)
    }

    /// Receives the response for `id`, folding the shared status frames
    /// into typed errors.
    fn expect_for(&mut self, id: u64) -> Result<Response> {
        let mut reader = BufReader::new(&self.stream);
        recv_for(&mut reader, id)
    }
}

/// Receives one GET's response stream (header, stripes, end marker) for
/// request `id`, feeding each stripe payload to `sink`. Returns the
/// degraded-stripe count.
///
/// Every frame of the stream lands in one buffer, grown to the largest
/// frame and never zeroed per frame; `sink` borrows each stripe from it.
/// A stripe that would carry the stream past the header's length is a
/// [`GatewayError::Protocol`] before `sink` sees any of it.
fn recv_get_stream(stream: &TcpStream, id: u64, mut sink: impl FnMut(&[u8])) -> Result<u64> {
    let mut reader = BufReader::new(stream);
    let mut remaining = match recv_for(&mut reader, id)? {
        Response::ObjectHeader { len, .. } => len,
        other => return Err(unexpected(other)),
    };
    let mut body = Vec::new();
    loop {
        let (got, len) = read_frame_into(&mut reader, &mut body)?;
        check_id(got, id)?;
        let (response, stripe) = Response::decode_lending(&body[..len])?;
        match typed(response)? {
            Response::Data { .. } => {
                remaining = remaining.checked_sub(stripe.len() as u64).ok_or_else(|| {
                    GatewayError::Protocol(format!(
                        "a {}-byte stripe overruns the stream, {remaining} bytes were left",
                        stripe.len()
                    ))
                })?;
                sink(stripe);
            }
            Response::ObjectEnd { degraded_stripes } => {
                if remaining != 0 {
                    return Err(GatewayError::Protocol(format!(
                        "stream ended {remaining} bytes short"
                    )));
                }
                return Ok(degraded_stripes);
            }
            other => return Err(unexpected(other)),
        }
    }
}

/// Receives frames until one tagged `id` arrives (frames for other ids
/// are a protocol error for this sequential helper), mapping the shared
/// failure statuses to typed errors.
fn recv_for(reader: &mut impl Read, id: u64) -> Result<Response> {
    let (got, body) = read_frame(reader)?;
    check_id(got, id)?;
    typed(Response::decode(&body)?)
}

fn check_id(got: u64, id: u64) -> Result<()> {
    if got == id {
        Ok(())
    } else {
        Err(GatewayError::Protocol(format!(
            "response for request {got} while waiting on {id}"
        )))
    }
}

/// Maps the statuses any exchange can end with to typed errors.
fn typed(resp: Response) -> Result<Response> {
    match resp {
        Response::NotFound => Err(GatewayError::NotFound),
        Response::Deleted => Err(GatewayError::Deleted),
        Response::Busy => Err(GatewayError::Busy),
        resp => Ok(resp),
    }
}

fn unexpected(resp: Response) -> GatewayError {
    match resp {
        Response::Err { message } => GatewayError::Remote(message),
        other => GatewayError::Protocol(format!("unexpected response {other:?}")),
    }
}
