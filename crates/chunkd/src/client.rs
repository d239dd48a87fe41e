//! The chunk client: a [`ChunkBackend`] over one *multiplexed* chunkd TCP
//! connection.
//!
//! A [`RemoteDisk`] holds (at most) one lazily-established connection to a
//! chunk server and multiplexes every caller over it: each request is
//! tagged with a fresh id ([`crate::protocol`] frames carry the id on the
//! wire), so any number of store threads — gateway workers, the repair
//! daemon's pool — can have requests in flight on the *same* socket
//! concurrently. Every operation in the protocol is idempotent, so when
//! the transport fails mid-request the client drops the connection and
//! transparently retries once over a fresh one — enough to ride out a
//! server restart or an idle-connection reset without surfacing an error
//! to the store.
//!
//! # The waiter reads
//!
//! No thread of the client's own reads the socket: the callers waiting
//! for responses take turns at it. A waiter whose response has not
//! arrived, finding nobody reading, takes the turn and reads one frame.
//! If the frame is its own it reads the body itself, and a read's payload
//! goes from the kernel straight into the caller's stripe buffer —
//! nothing allocated, nothing copied. A frame for another waiter is
//! parked under that waiter's id (or dropped, if nobody waits for it any
//! more), and the turn passes on. A waiter that finds the turn taken
//! sleeps until its response is parked, the turn is free, or its deadline
//! passes.
//!
//! A connection nobody waits on is therefore read by nobody: a server
//! that closes an idle connection is found out by the next waiter, which
//! meets end-of-file where its response should be and spends the
//! request's one retry on a fresh dial.
//!
//! # Split reads and writes
//!
//! Every request is a *call* in two halves: sending (register the pending
//! slot, write the frame) and finishing (wait for the response — reading
//! the socket in turn — and resend once if the connection died; a call
//! that runs out of time is not resent, since the server may still be
//! working on it). [`ChunkBackend::begin_read`] and
//! [`ChunkBackend::begin_write`], the client's one chunk read and one chunk
//! write, return between them, so one store thread can have a chunk
//! outstanding on each of a stripe's disks and pay for the slowest round
//! trip rather than their sum. A begun read carries its output buffer,
//! which is where its payload lands when it is waited for. A begun write
//! borrows its payload the same way: the frame goes out as one vectored
//! write of header, encoded fields and the caller's bytes — nothing copied
//! — and the retry sends it again from the same slice. The envelope and
//! the encoded fields are built once per call, so both attempts put the
//! same body on the wire. The blocking `read_chunk_into`,
//! `read_chunk_range` and `write_chunk` are the trait's own, a begun op
//! waited for at once; the meta requests (`ensure_object`, `sweep_tmp`,
//! pings) run both halves back to back.
//!
//! # Padding moves no payload
//!
//! The zero padding of a short stripe crosses the socket as a verdict or
//! a length. [`ChunkBackend::begin_verify`] sends a `Verify` — the server
//! checks the chunk's header and both half CRCs and answers with the
//! verdict alone — and `verify_chunk` is the same call waited for at
//! once. [`ChunkBackend::begin_write_zeros`] sends a `WriteZeros` carrying
//! only the length; the server writes the chunk a `WriteChunk` of zeros
//! would.
//!
//! # Reconnect backoff
//!
//! A dead server must not be hammered: after a failed *connect* the client
//! opens a backoff window — capped exponential with jitter
//! ([`BACKOFF_BASE`] · 2ⁿ up to [`BACKOFF_CAP`], ±50 % jitter) — during
//! which further requests fail fast without touching the network. The
//! read-side operations map that to [`ChunkStatus::Missing`] exactly like
//! any other unreachable-disk failure, so a degraded read routes around
//! the dead machine immediately instead of each worker re-running a
//! connect timeout (the hot-loop this backoff exists to prevent). The
//! first request after the window retries for real and, on success, resets
//! the backoff.
//!
//! # Failure semantics
//!
//! An *unreachable* server is a *lost disk*, not a store-wide error: the
//! read-side operations (`begin_read` and the blocking reads on it,
//! `verify_chunk`, `begin_verify`) report [`ChunkStatus::Missing`] when
//! the transport fails after the retry, so degraded reads and repairs
//! route around the dead machine exactly as they route around a deleted
//! directory — which is the failure model the paper measures. Write-side
//! operations (`ensure_object`, `begin_write`, `begin_write_zeros`) stay
//! hard errors: there is no safe way to pretend a write landed.
//! [`ChunkBackend::is_available`] reports the disk itself (it is how
//! scrub's `lost_disks` learns of the death), and `sweep_tmp` returns
//! empty for an unreachable disk — nothing can be swept there.
//!
//! The client counts every byte it puts on and takes off the socket
//! ([`RemoteDisk::counters`], also surfaced through
//! [`ChunkBackend::counters`] and summed by
//! `BlockStore::socket_counters`). That is the paper's measurement made
//! real: a degraded read against a remote helper shows exactly the
//! half-chunk (for Piggybacked-RS) crossing the wire, frame headers and
//! all.

use std::collections::HashMap;
use std::io::{self, IoSliceMut, Read};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pbrs_obs::trace::{self, SpanRecord};
use pbrs_store::{
    BackendCounters, ChunkBackend, ChunkId, ChunkRead, ChunkStatus, PendingRead, PendingWrite,
    ReadyRead, ReadyWrite, StoreError,
};

use pbrs_wire::{encode_envelope, parse_header, write_frame_parts, FRAME_OVERHEAD};

use crate::protocol::{
    decode_ping, decode_spans, decode_sweep, decode_verify, Request, Response, STATUS_OK,
};

/// Default connect / per-request I/O timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// First reconnect-backoff window after a failed connect.
pub const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Upper bound on the reconnect-backoff window.
pub const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// One live multiplexed connection: a writer half shared by callers, and
/// the reader half its waiters take turns at. Dropped (and replaced)
/// wholesale on any transport error.
struct Mux {
    /// The caller-side write half (a `try_clone` of the socket). One frame
    /// is written per lock hold, so concurrent requests interleave at
    /// frame granularity, never mid-frame.
    writer: Mutex<TcpStream>,
    /// The reader half: only the waiter holding the reading turn reads it.
    reader: TcpStream,
    inbox: Mutex<Inbox>,
    /// Signalled when a reading turn ends — a frame may have been parked,
    /// and the turn is free — and when the connection dies.
    turn_over: Condvar,
}

/// What the waiters of one connection share.
#[derive(Default)]
struct Inbox {
    /// Requests in flight: id → the response body, once another waiter
    /// has read it off the socket for them.
    pending: HashMap<u64, Option<Vec<u8>>>,
    /// Some waiter holds the reading turn.
    reading: bool,
    /// Why the connection died. Once set, no request may register and
    /// every waiter without a parked response fails with it.
    error: Option<(io::ErrorKind, String)>,
}

impl Mux {
    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        self.inbox.lock().expect("lock")
    }

    fn is_dead(&self) -> bool {
        self.inbox().error.is_some()
    }

    /// The connection is in an unknown state: fail every waiter on it with
    /// `error` (the first cause is kept), and shut the socket so a turn
    /// holder blocked on it returns and the next attempt dials fresh.
    fn abandon(&self, error: &io::Error) {
        self.inbox()
            .error
            .get_or_insert_with(|| (error.kind(), error.to_string()));
        self.turn_over.notify_all();
        let _ = self.reader.shutdown(Shutdown::Both);
    }
}

/// The reading turn of one connection. Dropping it — however its holder
/// leaves: answered, failed or unwinding — frees the turn and wakes the
/// other waiters, so none is stranded behind a holder that is gone.
struct Turn<'a>(&'a Mux);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.0.inbox().reading = false;
        self.0.turn_over.notify_all();
    }
}

/// The reader half as the turn holder reads it: every read waits at most
/// until the holder's deadline.
struct Timed<'a> {
    socket: &'a TcpStream,
    deadline: Instant,
}

impl Timed<'_> {
    /// Points the socket's receive timeout at the deadline.
    fn arm(&self) -> io::Result<()> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        // A spent deadline is a timeout (and `set_read_timeout` refuses a
        // zero duration anyway).
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.socket.set_read_timeout(Some(left))
    }

    /// `read_exact` into several buffers, one `readv` per pass.
    fn read_exact_parts(&mut self, mut parts: &mut [IoSliceMut<'_>]) -> io::Result<()> {
        let mut left: usize = parts.iter().map(|part| part.len()).sum();
        while left > 0 {
            match self.read_vectored(parts) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    IoSliceMut::advance_slices(&mut parts, n);
                    left -= n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl Read for Timed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.arm()?;
        let mut socket = self.socket;
        socket.read(buf)
    }

    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        self.arm()?;
        let mut socket = self.socket;
        socket.read_vectored(bufs)
    }
}

/// How a call was answered.
enum Reply {
    /// `Ok` with exactly the caller's buffer's worth of payload, which is
    /// now in the buffer.
    Landed,
    /// Any other response.
    Response(Response),
}

impl Reply {
    /// The reply to a call made with an empty buffer, as a response: what
    /// landed there is an empty `Ok` payload.
    fn into_response(self) -> Response {
        match self {
            Reply::Landed => Response::Ok {
                payload: Vec::new(),
            },
            Reply::Response(response) => response,
        }
    }
}

/// A response body read whole — parked by another waiter, or of a shape
/// that cannot land — answering a call whose buffer is `out`.
fn settle(body: &[u8], out: &mut [u8]) -> io::Result<Reply> {
    match body.split_first() {
        Some((&STATUS_OK, payload)) if payload.len() == out.len() => {
            out.copy_from_slice(payload);
            Ok(Reply::Landed)
        }
        _ => Response::decode(body).map(Reply::Response),
    }
}

/// One request frame on the wire, waiting for its response. Dropping it
/// gives the pending slot back — a response that arrives afterwards is
/// dropped by whoever reads it — so a caller that stops caring (timeout,
/// unwinding) cannot leak table entries.
struct InFlight {
    mux: Arc<Mux>,
    id: u64,
    /// When the caller stops waiting, fixed when the frame was sent — so
    /// several requests begun together time out together, not in series.
    deadline: Instant,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.mux.inbox().pending.remove(&self.id);
    }
}

/// How one attempt at sending a request went.
enum Attempt {
    /// The frame is on the wire.
    Sent(InFlight),
    /// The transport failed; a fresh connection may still work.
    Failed(io::Error),
    /// No retry can help: the dial is backed off.
    GaveUp(io::Error),
}

/// A request that has been sent (or has failed to be) and not yet
/// answered: what [`RemoteDisk::call`] returns and [`Call::finish`]
/// consumes. Holding several of these — to different disks — is how the
/// store overlaps the chunk reads of one stripe.
struct Call<'a> {
    disk: &'a RemoteDisk,
    /// The envelope and the encoded request, as both attempts send them.
    /// A write's payload is not in it but in `tail`.
    head: Vec<u8>,
    /// The bytes that end the frame after `head`: a `WriteChunk`'s
    /// payload, borrowed from the caller (empty otherwise).
    tail: &'a [u8],
    first: Attempt,
}

impl Call<'_> {
    /// Collects the response, reconnecting and resending once if the first
    /// attempt could not be sent or its connection died under it (closed,
    /// reset, or given up by another waiter). A call whose own deadline
    /// passed returns its error at once: the server may still hold the
    /// request, and a resend would park a second server worker behind it.
    /// A read's payload lands in `out`; every other call passes an empty
    /// one.
    fn finish(self, out: &mut [u8]) -> io::Result<Reply> {
        let Call {
            disk,
            head,
            tail,
            first,
        } = self;
        // A transport failure is superseded by the resend's outcome.
        match first {
            Attempt::Sent(sent) => match disk.receive(&sent, out) {
                Ok(reply) => return Ok(reply),
                Err(e) if Instant::now() >= sent.deadline => return Err(e),
                Err(_) => {}
            },
            Attempt::Failed(_) => {}
            Attempt::GaveUp(e) => return Err(e),
        }
        match disk.send(&head, tail) {
            Attempt::Sent(sent) => disk.receive(&sent, out),
            Attempt::Failed(e) | Attempt::GaveUp(e) => Err(e),
        }
    }
}

/// A chunk read begun on a [`RemoteDisk`]: the request frame is on the
/// wire, the payload lands in `out` when the read is waited for.
struct RemoteRead<'a> {
    call: Call<'a>,
    object: String,
    out: &'a mut [u8],
}

impl PendingRead for RemoteRead<'_> {
    fn wait(self: Box<Self>) -> ChunkRead<()> {
        let RemoteRead { call, object, out } = *self;
        let disk = call.disk;
        let response = match call.finish(out) {
            Ok(Reply::Landed) => return Ok(Ok(())),
            Ok(Reply::Response(response)) => response,
            Err(_) => return Ok(Err(ChunkStatus::Missing)), // disk unreachable = lost
        };
        if let Some(status) = response.as_chunk_status() {
            return Ok(Err(status));
        }
        // An `Ok` that did not land is the wrong size.
        let payload = disk.expect_ok(&object, response)?;
        Ok(Err(ChunkStatus::Corrupt {
            reason: format!(
                "server returned {} bytes for a {}-byte read",
                payload.len(),
                out.len()
            ),
        }))
    }
}

/// A chunk write (or an object's removal) begun on a [`RemoteDisk`]: the
/// request frame, payload included, is on the wire, and the payload stays
/// borrowed for the retry.
struct RemoteWrite<'a> {
    call: Call<'a>,
    object: String,
}

impl PendingWrite for RemoteWrite<'_> {
    fn wait(self: Box<Self>) -> Result<(), StoreError> {
        let RemoteWrite { call, object } = *self;
        let disk = call.disk;
        let reply = call
            .finish(&mut [])
            .map_err(|e| disk.io_error(&object, e))?;
        disk.expect_ok(&object, reply.into_response()).map(drop)
    }
}

/// A chunk check begun on a [`RemoteDisk`]: the `Verify` frame is on the
/// wire, and only the verdict comes back.
struct RemoteVerify<'a> {
    call: Call<'a>,
    object: String,
}

impl RemoteVerify<'_> {
    /// The server's verdict and how many payload bytes it read to reach
    /// it. An unreachable disk is a lost one: its chunk is missing.
    fn verdict(self) -> Result<(ChunkStatus, u64), StoreError> {
        let RemoteVerify { call, object } = self;
        let disk = call.disk;
        let response = match call.finish(&mut []) {
            Ok(reply) => reply.into_response(),
            Err(_) => return Ok((ChunkStatus::Missing, 0)), // disk unreachable = lost
        };
        let payload = disk.expect_ok(&object, response)?;
        decode_verify(&payload).map_err(|e| disk.io_error(&object, e))
    }
}

impl PendingRead for RemoteVerify<'_> {
    fn wait(self: Box<Self>) -> ChunkRead<()> {
        self.verdict().map(|(status, _)| status.into_read())
    }
}

/// A remote "disk": the client side of one chunk server, implementing
/// [`ChunkBackend`] so a `BlockStore` can mount it like a directory.
pub struct RemoteDisk {
    addr: String,
    timeout: Duration,
    /// Optional operator label — typically the rack this disk belongs to —
    /// surfaced in [`ChunkBackend::describe`] so per-socket byte counters
    /// can be attributed to racks when many disks are mounted.
    label: Option<String>,
    /// When true, requests issued under a scoped trace context
    /// ([`trace::current_ctx`]) carry it in their envelope so the server's
    /// spans join the caller's tree. Off by default: an untraced request
    /// has no envelope at all.
    tracing: bool,
    conn: Mutex<Option<Arc<Mux>>>,
    next_id: AtomicU64,
    backoff: Mutex<BackoffState>,
    connect_attempts: AtomicU64,
    connect_successes: AtomicU64,
    backoff_rejections: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

/// Counters of the reconnect path, for dashboards and flap diagnosis:
/// how often this client actually dialed, how often a dial succeeded, and
/// how many requests the backoff circuit rejected without dialing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReconnectStats {
    /// Real dials attempted (backed-off fast-fails not included).
    pub attempts: u64,
    /// Dials that produced a live connection.
    pub successes: u64,
    /// Requests failed fast inside a backoff window, saving a dial.
    pub backoff_rejections: u64,
}

/// Reconnect circuit state: consecutive connect failures and the deadline
/// before which no new connect attempt is made.
#[derive(Debug, Default)]
struct BackoffState {
    failures: u32,
    /// `None` = closed circuit (connects allowed right now).
    until: Option<Instant>,
    /// Cheap xorshift state for the jitter; seeded per disk.
    jitter_seed: u64,
}

impl BackoffState {
    /// The capped exponential window for the current failure count, with
    /// ±50 % deterministic-per-disk jitter so a fleet of clients whose
    /// server died together does not reconnect in lockstep.
    fn window(&mut self) -> Duration {
        let exp = self.failures.saturating_sub(1).min(16);
        let base = BACKOFF_BASE
            .saturating_mul(1u32 << exp.min(7))
            .min(BACKOFF_CAP);
        // xorshift64* — statistical quality is irrelevant, decorrelation
        // between disks is all the jitter needs.
        let mut x = self.jitter_seed.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_seed = x;
        let jitter = (x % 1000) as f64 / 1000.0; // [0, 1)
        let scaled = base.as_secs_f64() * (0.5 + jitter); // [0.5, 1.5) × base
        Duration::from_secs_f64(scaled)
    }
}

impl std::fmt::Debug for RemoteDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteDisk")
            .field("addr", &self.addr)
            .field("label", &self.label)
            .field("counters", &self.counters())
            .finish()
    }
}

impl RemoteDisk {
    /// A client for the chunk server at `addr` (`host:port`). No
    /// connection is made until the first request, and a broken connection
    /// is re-established on demand (behind the reconnect backoff).
    pub fn new(addr: impl Into<String>) -> Self {
        Self::with_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// [`RemoteDisk::new`] with an explicit connect/request timeout.
    pub fn with_timeout(addr: impl Into<String>, timeout: Duration) -> Self {
        let addr = addr.into();
        // Seed the jitter from the address so two disks of one dead server
        // group still spread, deterministically per process.
        let seed = addr
            .bytes()
            .fold(0x9E37_79B9_7F4A_7C15u64, |acc, b| {
                (acc ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
            })
            .max(1);
        RemoteDisk {
            addr,
            timeout,
            label: None,
            tracing: false,
            conn: Mutex::new(None),
            next_id: AtomicU64::new(1),
            backoff: Mutex::new(BackoffState {
                jitter_seed: seed,
                ..BackoffState::default()
            }),
            connect_attempts: AtomicU64::new(0),
            connect_successes: AtomicU64::new(0),
            backoff_rejections: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
        }
    }

    /// Enables trace propagation: requests issued while a trace context
    /// is scoped on the calling thread carry it in their envelope, and
    /// [`ChunkBackend::drain_spans`] actually fetches the server's
    /// recorded spans.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Reconnect-path counters since creation.
    pub fn reconnect_stats(&self) -> ReconnectStats {
        ReconnectStats {
            // Relaxed: independent tallies for reporting; cross-counter
            // skew from in-flight dials is acceptable.
            attempts: self.connect_attempts.load(Ordering::Relaxed),
            successes: self.connect_successes.load(Ordering::Relaxed),
            // Relaxed: same contract as the loads above.
            backoff_rejections: self.backoff_rejections.load(Ordering::Relaxed),
        }
    }

    /// Attaches an operator label (e.g. the disk's rack name) that shows up
    /// in [`ChunkBackend::describe`] and error messages, so socket counters
    /// read per disk can be attributed to the right rack.
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Socket byte counters since creation (frame headers included).
    pub fn counters(&self) -> BackendCounters {
        BackendCounters {
            // Relaxed: traffic tallies for accounting; they guard nothing.
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }

    /// Dials the server, honouring the backoff circuit: inside a backoff
    /// window the call fails immediately (kind `WouldBlock`) without
    /// touching the network; a failed dial widens the window, a successful
    /// one resets it.
    fn connect(&self) -> io::Result<TcpStream> {
        {
            // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            let backoff = self.backoff.lock().expect("lock");
            if let Some(until) = backoff.until {
                if Instant::now() < until {
                    // Relaxed: stats tally; the window itself is under
                    // the backoff mutex.
                    self.backoff_rejections.fetch_add(1, Ordering::Relaxed);
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!(
                            "reconnect to {} backed off for {:?} more",
                            self.addr,
                            until.saturating_duration_since(Instant::now())
                        ),
                    ));
                }
            }
        }
        // Relaxed: stats tally, sampled only by reconnect_stats().
        self.connect_attempts.fetch_add(1, Ordering::Relaxed);
        let result = self.dial();
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let mut backoff = self.backoff.lock().expect("lock");
        match &result {
            Ok(_) => {
                // Relaxed: stats tally; backoff state is under the mutex.
                self.connect_successes.fetch_add(1, Ordering::Relaxed);
                backoff.failures = 0;
                backoff.until = None;
            }
            Err(_) => {
                backoff.failures = backoff.failures.saturating_add(1);
                let window = backoff.window();
                backoff.until = Some(Instant::now() + window);
            }
        }
        result
    }

    /// The raw dial (no backoff bookkeeping).
    fn dial(&self) -> io::Result<TcpStream> {
        let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved");
        let addrs: Vec<SocketAddr> = self.addr.to_socket_addrs()?.collect();
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_write_timeout(Some(self.timeout))?;
                    return Ok(stream);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Returns the live multiplexed connection, establishing one if there
    /// is none or the last one died.
    fn mux(&self) -> io::Result<Arc<Mux>> {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let mut conn = self.conn.lock().expect("lock");
        if let Some(mux) = conn.as_ref() {
            if !mux.is_dead() {
                return Ok(Arc::clone(mux));
            }
        }
        let reader = self.connect()?;
        let mux = Arc::new(Mux {
            writer: Mutex::new(reader.try_clone()?),
            reader,
            inbox: Mutex::default(),
            turn_over: Condvar::new(),
        });
        *conn = Some(Arc::clone(&mux));
        Ok(mux)
    }

    /// One request/response cycle over the multiplexed connection,
    /// reconnecting and retrying once on a transport error (every protocol
    /// op is idempotent, so a blind retry is safe). Many callers may be in
    /// this function concurrently; their requests share one socket.
    fn request(&self, request: Request) -> io::Result<Response> {
        self.call(request, &[])
            .finish(&mut [])
            .map(Reply::into_response)
    }

    /// The first half of [`RemoteDisk::request`]: encodes the envelope
    /// and the request once, puts them on the wire and returns without
    /// waiting for the response, which [`Call::finish`] collects. Nothing
    /// fails here — a first attempt that could not be sent is carried in
    /// the call and dealt with (by the one retry) when it is finished.
    /// `tail` is sent after the encoded request: the payload of a
    /// `WriteChunk` whose own `payload` is empty.
    fn call<'a>(&'a self, request: Request, tail: &'a [u8]) -> Call<'a> {
        // The active trace, if this client propagates traces at all.
        let trace = if self.tracing {
            trace::current_ctx()
        } else {
            None
        };
        let mut head = Vec::new();
        encode_envelope(trace, &mut head);
        request.encode_into(&mut head);
        let first = self.send(&head, tail);
        Call {
            disk: self,
            head,
            tail,
            first,
        }
    }

    /// One attempt at getting a request onto the wire: find or dial the
    /// connection, register the pending slot and write the frame — `head`
    /// (envelope and encoded request), then `tail`, in one vectored write.
    /// A `WriteChunk` payload is the request's last field, so these are
    /// the bytes of the request with `tail` as its payload.
    fn send(&self, head: &[u8], tail: &[u8]) -> Attempt {
        let mux = match self.mux() {
            Ok(mux) => mux,
            // Inside the backoff window a retry would be refused the same
            // way — fail the request now.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Attempt::GaveUp(e),
            Err(e) => return Attempt::Failed(e),
        };
        // Relaxed: uniqueness comes from the RMW itself, not ordering.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let registered = {
            let mut inbox = mux.inbox();
            let alive = inbox.error.is_none();
            if alive {
                inbox.pending.insert(id, None);
            }
            alive
        };
        let sent = if registered {
            // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            let mut writer = mux.writer.lock().expect("lock");
            write_frame_parts(&mut *writer, id, &[head, tail])
        } else {
            Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "connection died before the request was registered",
            ))
        };
        // From here the pending slot belongs to `slot`: dropping it
        // deregisters.
        let slot = InFlight {
            mux,
            id,
            deadline: Instant::now() + self.timeout,
        };
        match sent {
            Ok(bytes) => {
                // Relaxed: traffic tally, sampled only by counters().
                self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
                Attempt::Sent(slot)
            }
            Err(e) => {
                slot.mux.abandon(&e);
                Attempt::Failed(e)
            }
        }
    }

    /// Waits (until the attempt's deadline: the request timeout, counted
    /// from when the frame was sent) for the response frame carrying the attempt's id, reading the
    /// socket whenever the turn is free. Any failure — a timeout, a
    /// transport error, an undecodable frame — abandons the connection,
    /// failing every other waiter on it too.
    fn receive(&self, sent: &InFlight, out: &mut [u8]) -> io::Result<Reply> {
        let result = self.wait_for(sent, out);
        if let Err(e) = &result {
            sent.mux.abandon(e);
        }
        result
    }

    fn timed_out(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::TimedOut,
            format!("no response from {} within {:?}", self.addr, self.timeout),
        )
    }

    fn wait_for(&self, sent: &InFlight, out: &mut [u8]) -> io::Result<Reply> {
        let mux = &*sent.mux;
        let mut inbox = mux.inbox();
        loop {
            // A parked response wins over everything, even a death that
            // came after it.
            if let Some(body) = inbox.pending.get_mut(&sent.id).and_then(Option::take) {
                return settle(&body, out);
            }
            if let Some((kind, message)) = &inbox.error {
                return Err(io::Error::new(*kind, message.clone()));
            }
            let left = sent.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(self.timed_out());
            }
            if inbox.reading {
                inbox = mux
                    .turn_over
                    .wait_timeout(inbox, left)
                    // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
                    .expect("lock")
                    .0;
                continue;
            }
            inbox.reading = true;
            drop(inbox);
            let turn = Turn(mux);
            match self.read_turn(sent, out) {
                Ok(Some(reply)) => return Ok(reply),
                Ok(None) => drop(turn),
                Err(e) => {
                    // SO_RCVTIMEO expiring reads as `WouldBlock` on Unix.
                    let e = match e.kind() {
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => self.timed_out(),
                        _ => e,
                    };
                    // Before the turn is let go: the stream may be cut
                    // mid-frame, and no other waiter may read it again.
                    mux.abandon(&e);
                    return Err(e);
                }
            }
            inbox = mux.inbox();
        }
    }

    /// One reading turn: reads a frame off the socket. The waiter's own
    /// frame answers it — a read's payload straight into `out` when the
    /// frame is an `Ok` of exactly that size. Another waiter's frame is
    /// parked under its id, or dropped if nobody waits for it any more,
    /// and the turn yields `None`.
    fn read_turn(&self, sent: &InFlight, out: &mut [u8]) -> io::Result<Option<Reply>> {
        let mut socket = Timed {
            socket: &sent.mux.reader,
            deadline: sent.deadline,
        };
        let mut header = [0u8; FRAME_OVERHEAD];
        socket.read_exact(&mut header)?;
        let (id, len) = parse_header(&header)?;
        let mut status = [0u8];
        // `None`: the body went to `status` and `out`.
        let body = if id == sent.id && len == 1 + out.len() {
            socket.read_exact_parts(&mut [IoSliceMut::new(&mut status), IoSliceMut::new(out)])?;
            None
        } else {
            let mut body = vec![0u8; len];
            socket.read_exact(&mut body)?;
            Some(body)
        };
        // Relaxed: traffic tally, sampled only by counters().
        self.bytes_received
            .fetch_add((FRAME_OVERHEAD + len) as u64, Ordering::Relaxed);
        match body {
            None if status[0] == STATUS_OK => Ok(Some(Reply::Landed)),
            // The right size, another shape: a status whose text filled `out`.
            None => {
                let body: Vec<u8> = status.iter().chain(out.iter()).copied().collect();
                Response::decode(&body).map(|response| Some(Reply::Response(response)))
            }
            Some(body) if id == sent.id => settle(&body, out).map(Some),
            Some(body) => {
                if let Some(slot) = sent.mux.inbox().pending.get_mut(&id) {
                    *slot = Some(body);
                }
                Ok(None)
            }
        }
    }

    /// A path-shaped label for error messages about this remote.
    fn remote_path(&self, object: &str) -> PathBuf {
        PathBuf::from(format!("chunkd://{}/{}", self.addr, object))
    }

    fn io_error(&self, object: &str, e: io::Error) -> StoreError {
        StoreError::io(self.remote_path(object), e)
    }

    /// Sends a `Verify` request: the one path behind `verify_chunk` and
    /// `begin_verify`.
    fn verification(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Result<RemoteVerify<'_>, StoreError> {
        let request = Request::Verify {
            object: object.to_string(),
            id,
            chunk_len: as_u32("chunk length", chunk_len)?,
        };
        Ok(RemoteVerify {
            call: self.call(request, &[]),
            object: object.to_string(),
        })
    }

    /// Folds a response into `Ok(op payload)`, treating `Missing`/
    /// `Corrupt`/`Err` as hard errors (for ops where they are unexpected).
    fn expect_ok(&self, object: &str, response: Response) -> Result<Vec<u8>, StoreError> {
        match response {
            Response::Ok { payload } => Ok(payload),
            Response::Missing => Err(self.io_error(
                object,
                io::Error::new(io::ErrorKind::NotFound, "server reported missing"),
            )),
            Response::Corrupt { reason } | Response::Err { message: reason } => {
                Err(self.io_error(object, io::Error::other(reason)))
            }
        }
    }
}

fn as_u32(what: &str, value: usize) -> Result<u32, StoreError> {
    u32::try_from(value).map_err(|_| StoreError::InvalidConfig {
        reason: format!("{what} of {value} bytes exceeds the wire format's u32"),
    })
}

/// The wire request for reading `len` payload bytes at `offset` of a
/// `chunk_len`-byte chunk: `ReadChunk` for the whole payload, `ReadRange`
/// for anything less.
fn read_request(
    object: &str,
    id: ChunkId,
    chunk_len: usize,
    offset: usize,
    len: usize,
) -> Result<Request, StoreError> {
    let object = object.to_string();
    Ok(if offset == 0 && len == chunk_len {
        Request::ReadChunk {
            object,
            id,
            len: as_u32("chunk read", len)?,
        }
    } else {
        Request::ReadRange {
            object,
            id,
            chunk_len: as_u32("chunk length", chunk_len)?,
            offset: as_u32("range offset", offset)?,
            len: as_u32("range read", len)?,
        }
    })
}

impl ChunkBackend for RemoteDisk {
    fn describe(&self) -> String {
        match &self.label {
            Some(label) => format!("chunkd://{} [{label}]", self.addr),
            None => format!("chunkd://{}", self.addr),
        }
    }

    fn is_available(&self) -> bool {
        match self.request(Request::Ping) {
            Ok(Response::Ok { payload }) => decode_ping(&payload).unwrap_or(false),
            _ => false,
        }
    }

    fn ensure_object(&self, object: &str) -> Result<(), StoreError> {
        let response = self
            .request(Request::EnsureObject {
                object: object.to_string(),
            })
            .map_err(|e| self.io_error(object, e))?;
        self.expect_ok(object, response).map(drop)
    }

    fn remove_object(&self, object: &str) -> Result<(), StoreError> {
        self.begin_remove(object).wait()
    }

    /// Puts the `RemoveObject` frame on the wire and returns; the outcome
    /// is collected at `wait`, as a write's is.
    fn begin_remove<'a>(&'a self, object: &str) -> Box<dyn PendingWrite + 'a> {
        let request = Request::RemoveObject {
            object: object.to_string(),
        };
        Box::new(RemoteWrite {
            call: self.call(request, &[]),
            object: object.to_string(),
        })
    }

    /// Puts the `WriteChunk` frame on the wire and returns; the response is
    /// collected (and a transport failure retried once, then reported as a
    /// hard error) at `wait`.
    fn begin_write<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        payload: &'a [u8],
    ) -> Box<dyn PendingWrite + 'a> {
        if let Err(e) = as_u32("chunk payload", payload.len()) {
            return Box::new(ReadyWrite(Err(e)));
        }
        let request = Request::WriteChunk {
            object: object.to_string(),
            id,
            payload: Vec::new(),
        };
        Box::new(RemoteWrite {
            call: self.call(request, payload),
            object: object.to_string(),
        })
    }

    /// Puts a `WriteZeros` frame — the length, no payload — on the wire and
    /// returns; the server writes the zero chunk. The response is collected
    /// as [`ChunkBackend::begin_write`]'s is.
    fn begin_write_zeros<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        len: usize,
    ) -> Box<dyn PendingWrite + 'a> {
        let len = match as_u32("chunk payload", len) {
            Ok(len) => len,
            Err(e) => return Box::new(ReadyWrite(Err(e))),
        };
        let request = Request::WriteZeros {
            object: object.to_string(),
            id,
            len,
        };
        Box::new(RemoteWrite {
            call: self.call(request, &[]),
            object: object.to_string(),
        })
    }

    /// Registers the pending slot, writes the request frame and returns;
    /// the response is collected (and a transport failure retried once,
    /// then reported as [`ChunkStatus::Missing`]) at `wait`. A read of the
    /// whole payload ships as `ReadChunk`, anything else as `ReadRange`.
    fn begin_read<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &'a mut [u8],
    ) -> Box<dyn PendingRead + 'a> {
        match read_request(object, id, chunk_len, offset, out.len()) {
            Ok(request) => Box::new(RemoteRead {
                call: self.call(request, &[]),
                object: object.to_string(),
                out,
            }),
            Err(e) => Box::new(ReadyRead(Err(e))),
        }
    }

    fn verify_chunk(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Result<(ChunkStatus, u64), StoreError> {
        self.verification(object, id, chunk_len)?.verdict()
    }

    /// Puts the `Verify` frame on the wire and returns; the verdict is
    /// collected at `wait`, where a transport failure (after the one retry)
    /// is [`ChunkStatus::Missing`], as for [`ChunkBackend::begin_read`].
    fn begin_verify<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Box<dyn PendingRead + 'a> {
        match self.verification(object, id, chunk_len) {
            Ok(verify) => Box::new(verify),
            Err(e) => Box::new(ReadyRead(Err(e))),
        }
    }

    fn sweep_tmp(&self, min_age: Duration) -> Result<Vec<String>, StoreError> {
        let response = match self.request(Request::SweepTmp { min_age }) {
            Ok(response) => response,
            Err(_) => return Ok(Vec::new()), // nothing sweepable on a lost disk
        };
        let payload = self.expect_ok("<sweep>", response)?;
        decode_sweep(&payload).map_err(|e| self.io_error("<sweep>", e))
    }

    fn counters(&self) -> BackendCounters {
        RemoteDisk::counters(self)
    }

    fn drain_spans(&self) -> Vec<SpanRecord> {
        if !self.tracing {
            return Vec::new();
        }
        match self.request(Request::FetchSpans) {
            Ok(Response::Ok { payload }) => decode_spans(&payload).unwrap_or_default(),
            // A lost disk has no spans to ship; never fail a trace fetch.
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
    use pbrs_obs::trace::TraceCtx;
    use pbrs_wire::{read_frame, split_envelope, write_frame};
    use std::io::Write;
    use std::net::TcpListener;

    /// A server that closes the connection after every response, forcing
    /// the client through its reconnect path on each request.
    fn one_shot_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve exactly three connections, one request each.
            for _ in 0..3 {
                let (mut stream, _) = listener.accept().unwrap();
                let (id, body) = read_frame(&mut stream).unwrap();
                assert_eq!(body, Request::Ping.encode());
                let response = Response::Ok {
                    payload: protocol::encode_ping(true),
                };
                write_frame(&mut stream, id, &response.encode()).unwrap();
                stream.flush().unwrap();
                // Dropping the stream closes the connection.
            }
        });
        (addr, handle)
    }

    #[test]
    fn client_reconnects_after_the_server_drops_the_connection() {
        let (addr, server) = one_shot_server();
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_secs(5));
        // Three pings over three connections: the second and third only
        // succeed if the client notices the dropped connection and redials.
        // (The reconnect backoff only arms on failed *connects*, so a
        // server that accepts each dial never trips it.)
        assert!(disk.is_available());
        assert!(disk.is_available());
        assert!(disk.is_available());
        server.join().unwrap();
        let counters = disk.counters();
        assert!(counters.bytes_sent > 0 && counters.bytes_received > 0);
        // Three pings, three connections: each one dialed exactly once.
        let stats = disk.reconnect_stats();
        assert_eq!(
            stats,
            ReconnectStats {
                attempts: 3,
                successes: 3,
                backoff_rejections: 0
            }
        );
    }

    #[test]
    fn unreachable_server_is_a_hard_error_not_a_hang() {
        // A port that nothing listens on: bind-then-drop reserves one.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_millis(200));
        assert!(!disk.is_available());
        let err = disk.ensure_object("obj").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
    }

    #[test]
    fn dead_server_trips_the_backoff_circuit() {
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_millis(200));
        // First probe dials (and fails) for real, arming the window.
        let start = Instant::now();
        assert!(!disk.is_available());
        // Probes inside the window must fail fast — no fresh dial, no
        // 200 ms connect timeout each. 50 probes against a hot-looping
        // client would take ≥ 10 s; the circuit makes them ~instant.
        let t0 = Instant::now();
        for _ in 0..50 {
            assert!(!disk.is_available());
        }
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "backed-off probes must not re-dial: {:?} elapsed",
            t0.elapsed()
        );
        // And the error inside the window says so.
        let err = disk.connect().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        let _ = start;
        // The circuit's work is visible in the counters: almost every probe
        // was rejected without a dial, and no dial ever succeeded.
        let stats = disk.reconnect_stats();
        assert_eq!(stats.successes, 0);
        assert!(stats.attempts <= 8, "probes must not re-dial: {stats:?}");
        assert!(stats.backoff_rejections >= 40, "{stats:?}");
    }

    #[test]
    fn backoff_windows_grow_to_the_cap_deterministically_without_a_clock() {
        // `BackoffState::window` is pure in (failures, jitter_seed) — no
        // wall clock — so the whole schedule is testable instantly.
        let mut state = BackoffState {
            jitter_seed: 7,
            ..BackoffState::default()
        };
        let mut nominal_prev = Duration::ZERO;
        for failures in 1..=20u32 {
            state.failures = failures;
            let window = state.window();
            let exp = failures.saturating_sub(1).min(7);
            let nominal = BACKOFF_BASE.saturating_mul(1 << exp).min(BACKOFF_CAP);
            assert!(
                window >= nominal.mul_f64(0.5) && window < nominal.mul_f64(1.5),
                "failure {failures}: window {window:?} outside jitter band of {nominal:?}"
            );
            assert!(nominal >= nominal_prev, "windows must never shrink");
            nominal_prev = nominal;
        }
        // Deep failure counts saturate: jitter aside, never past the cap.
        state.failures = u32::MAX;
        assert!(state.window() < BACKOFF_CAP.mul_f64(1.5));
        // Same seed ⇒ the same jittered schedule, replayable in tests.
        let sequence = |seed: u64| -> Vec<Duration> {
            let mut s = BackoffState {
                jitter_seed: seed,
                ..BackoffState::default()
            };
            (1..=10u32)
                .map(|f| {
                    s.failures = f;
                    s.window()
                })
                .collect()
        };
        assert_eq!(sequence(42), sequence(42));
        assert_ne!(sequence(42), sequence(43));
    }

    #[test]
    fn untraced_requests_are_byte_identical_to_legacy_even_in_a_trace_scope() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (id, body) = read_frame(&mut stream).unwrap();
            // The bare encoding: a Ping opcode, no envelope.
            assert_eq!(body, Request::Ping.encode());
            let response = Response::Ok {
                payload: protocol::encode_ping(true),
            };
            write_frame(&mut stream, id, &response.encode()).unwrap();
        });
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_secs(5));
        let ctx = TraceCtx::from_raw(11, 22).unwrap();
        let _scope = trace::ScopedCtx::enter(Some(ctx));
        assert!(disk.is_available());
        server.join().unwrap();
    }

    #[test]
    fn traced_requests_wrap_the_scoped_context_outermost() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ctx = TraceCtx::from_raw(0x1111, 0x2222).unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut traces = Vec::new();
            for _ in 0..2 {
                let (id, body) = read_frame(&mut stream).unwrap();
                // Inside the trace scope the envelope carries the trace;
                // outside it, there is none.
                let (trace, bare) = split_envelope(&body).unwrap();
                assert_eq!(bare, Request::Ping.encode());
                traces.push(trace);
                let response = Response::Ok {
                    payload: protocol::encode_ping(true),
                };
                write_frame(&mut stream, id, &response.encode()).unwrap();
            }
            traces
        });
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_secs(5)).traced();
        {
            let _scope = trace::ScopedCtx::enter(Some(ctx));
            assert!(disk.is_available());
        }
        assert!(disk.is_available());
        assert_eq!(server.join().unwrap(), [Some(ctx), None]);
    }

    /// A listener that takes one frame off its first connection, raw —
    /// header and body exactly as they crossed the socket — and answers
    /// it with an empty `Ok`.
    fn capture_one_frame() -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut header = [0u8; FRAME_OVERHEAD];
            stream.read_exact(&mut header).unwrap();
            let (id, len) = parse_header(&header).unwrap();
            let mut wire = header.to_vec();
            wire.resize(header.len() + len, 0);
            stream.read_exact(&mut wire[header.len()..]).unwrap();
            let ok = Response::Ok { payload: vec![] };
            write_frame(&mut stream, id, &ok.encode()).unwrap();
            wire
        });
        (addr, server)
    }

    #[test]
    fn a_begun_write_puts_the_whole_request_encoding_on_the_wire() {
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 251) as u8).collect();
        let id = ChunkId {
            stripe: 5,
            shard: 3,
        };
        let write = Request::WriteChunk {
            object: "obj".into(),
            id,
            payload: payload.clone(),
        };
        let ctx = TraceCtx::from_raw(0x77, 0x88).unwrap();
        for traced in [false, true] {
            let (addr, server) = capture_one_frame();
            let mut disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_secs(5));
            if traced {
                disk = disk.traced();
            }
            {
                let _scope = trace::ScopedCtx::enter(Some(ctx));
                disk.begin_write("obj", id, &payload).wait().unwrap();
            }
            let wire = server.join().unwrap();
            let (req_id, _) = parse_header(wire[..FRAME_OVERHEAD].try_into().unwrap()).unwrap();
            let mut body = Vec::new();
            encode_envelope(traced.then_some(ctx), &mut body);
            body.extend_from_slice(&write.encode());
            let mut whole = Vec::new();
            write_frame(&mut whole, req_id, &body).unwrap();
            assert_eq!(wire, whole, "traced {traced}");
        }
    }

    #[test]
    fn backoff_recovers_when_the_server_comes_back() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener); // dead for now
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_secs(2));
        assert!(!disk.is_available()); // arms backoff (~50ms ± jitter)

        // Resurrect the server on the same port and serve pings forever.
        let listener = TcpListener::bind(addr).unwrap();
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                while let Ok((id, body)) = read_frame(&mut stream) {
                    assert_eq!(body, Request::Ping.encode());
                    let response = Response::Ok {
                        payload: protocol::encode_ping(true),
                    };
                    if write_frame(&mut stream, id, &response.encode()).is_err() {
                        break;
                    }
                }
            }
        });
        // Wait out the (first, ≤ 75 ms) window, then the client recovers.
        std::thread::sleep(Duration::from_millis(120));
        assert!(disk.is_available(), "client must recover after backoff");
        assert!(disk.is_available());
    }

    #[test]
    fn a_pending_write_dropped_unwaited_deregisters_its_slot() {
        // A server that reads requests and never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            while read_frame(&mut stream).is_ok() {}
        });
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_secs(5));
        let slots = |disk: &RemoteDisk| pending(disk).len();
        let id = ChunkId {
            stripe: 0,
            shard: 0,
        };
        let first = disk.begin_write("obj", id, b"payload");
        let second = disk.begin_write("obj", id, b"payload");
        assert_eq!(slots(&disk), 2);
        drop(first);
        assert_eq!(slots(&disk), 1);
        drop(second);
        assert_eq!(slots(&disk), 0);
        drop(disk); // closes the socket: the server's read loop ends
        server.join().unwrap();
    }

    /// The ids registered on the disk's connection.
    fn pending(disk: &RemoteDisk) -> Vec<u64> {
        let conn = disk.conn.lock().unwrap();
        let inbox = conn.as_ref().unwrap().inbox();
        inbox.pending.keys().copied().collect()
    }

    #[test]
    fn waits_out_of_order_on_one_connection_land_every_byte() {
        const THREADS: usize = 8;
        const READS: usize = 4;
        const LEN: usize = 4096;
        let dir = pbrs_store::testing::TempDir::new("chunkd-client-order");
        let server = crate::ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
        let local = pbrs_store::LocalDisk::new(server.root());
        local.ensure_object("obj").unwrap();
        let chunk = |stripe: usize, shard: usize| -> Vec<u8> {
            (0..LEN)
                .map(|i| (i * 31 + stripe * 7 + shard * 13) as u8)
                .collect()
        };
        let id = |stripe: usize, shard: usize| ChunkId {
            stripe: stripe as u64,
            shard,
        };
        for stripe in 0..THREADS {
            for shard in 0..READS {
                local
                    .write_chunk("obj", id(stripe, shard), &chunk(stripe, shard))
                    .unwrap();
            }
        }
        let disk =
            RemoteDisk::with_timeout(server.local_addr().to_string(), Duration::from_secs(10));
        std::thread::scope(|scope| {
            for stripe in 0..THREADS {
                let disk = &disk;
                scope.spawn(move || {
                    // Odd shards read their second half as a range.
                    let offset = |shard: usize| if shard % 2 == 1 { LEN / 2 } else { 0 };
                    let mut bufs: Vec<Vec<u8>> = (0..READS)
                        .map(|shard| vec![0u8; LEN - offset(shard)])
                        .collect();
                    let pending: Vec<_> = bufs
                        .iter_mut()
                        .enumerate()
                        .map(|(shard, buf)| {
                            disk.begin_read("obj", id(stripe, shard), LEN, offset(shard), buf)
                        })
                        .collect();
                    // Last begun, first waited: every waiter's frame is
                    // behind someone else's on the socket.
                    for read in pending.into_iter().rev() {
                        read.wait().unwrap().unwrap();
                    }
                    for (shard, buf) in bufs.iter().enumerate() {
                        assert_eq!(buf[..], chunk(stripe, shard)[offset(shard)..]);
                    }
                });
            }
        });
        assert_eq!(disk.reconnect_stats().attempts, 1, "one connection");
        assert_eq!(pending(&disk), Vec::<u64>::new(), "every slot given back");
    }

    #[test]
    fn many_requests_multiplex_over_one_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Exactly ONE connection is accepted; every request of the
            // test must arrive here.
            let (mut stream, _) = listener.accept().unwrap();
            let mut served = 0u32;
            while let Ok((id, body)) = read_frame(&mut stream) {
                assert_eq!(body, Request::Ping.encode());
                let response = Response::Ok {
                    payload: protocol::encode_ping(true),
                };
                write_frame(&mut stream, id, &response.encode()).unwrap();
                served += 1;
                if served == 32 {
                    break;
                }
            }
            served
        });
        let disk = Arc::new(RemoteDisk::with_timeout(
            addr.to_string(),
            Duration::from_secs(5),
        ));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let disk = Arc::clone(&disk);
            handles.push(std::thread::spawn(move || {
                for _ in 0..4 {
                    assert!(disk.is_available());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.join().unwrap(), 32, "all 32 pings on one socket");
    }
}
