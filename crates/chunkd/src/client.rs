//! The chunk client: a [`ChunkBackend`] over one *multiplexed* chunkd TCP
//! connection.
//!
//! A [`RemoteDisk`] holds (at most) one lazily-established connection to a
//! chunk server and multiplexes every caller over it: each request is
//! tagged with a fresh id ([`crate::protocol`] frames carry the id on the
//! wire), a background demultiplexer thread reads response frames off the
//! socket and routes each to the caller waiting on that id. Any number of
//! store threads — gateway workers, the repair daemon's pool — can
//! therefore have requests in flight on the *same* socket concurrently,
//! instead of the old one-request-at-a-time round trip. Every operation in
//! the protocol is idempotent, so when the transport fails mid-request the
//! client drops the connection and transparently retries once over a fresh
//! one — enough to ride out a server restart or an idle-connection reset
//! without surfacing an error to the store.
//!
//! # Split reads and writes
//!
//! Every request is a *call* in two halves: sending (register the pending
//! slot, write the frame) and finishing (wait for the response, retry
//! once). The blocking operations run the halves back to back;
//! [`ChunkBackend::begin_read`] and [`ChunkBackend::begin_write`] return
//! between them, so one store thread can have a chunk outstanding on each of
//! a stripe's disks and pay for the slowest round trip rather than their
//! sum. The blocking forms are literally `begin_read(..).wait()` and
//! `begin_write(..).wait()` — there is one read path and one write path.
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
//! read-side operations (`read_chunk_into`, `read_chunk_range`,
//! `verify_chunk`) report [`ChunkStatus::Missing`] when the transport
//! fails after the retry, so degraded reads and repairs route around the
//! dead machine exactly as they route around a deleted directory — which
//! is the failure model the paper measures. Write-side operations
//! (`ensure_object`, `write_chunk`) stay hard errors: there is no safe way
//! to pretend a write landed. [`ChunkBackend::is_available`] reports the
//! disk itself (it is how scrub's `lost_disks` learns of the death), and
//! `sweep_tmp` returns empty for an unreachable disk — nothing can be
//! swept there.
//!
//! The client counts every byte it puts on and takes off the socket
//! ([`RemoteDisk::counters`], also surfaced through
//! [`ChunkBackend::counters`] and summed by
//! `BlockStore::socket_counters`). That is the paper's measurement made
//! real: a degraded read against a remote helper shows exactly the
//! half-chunk (for Piggybacked-RS) crossing the wire, frame headers and
//! all.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use pbrs_obs::trace::{self, SpanRecord, TraceCtx};
use pbrs_store::{
    BackendCounters, ChunkBackend, ChunkId, ChunkRead, ChunkStatus, PendingRead, PendingWrite,
    ReadyRead, ReadyWrite, StoreError,
};

use crate::protocol::{
    decode_ping, decode_spans, decode_sweep, decode_verify, read_frame, write_frame, Request,
    Response,
};

/// Default connect / per-request I/O timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// First reconnect-backoff window after a failed connect.
pub const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Upper bound on the reconnect-backoff window.
pub const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// One live multiplexed connection: a writer half shared by callers and a
/// pending-request table the demultiplexer thread completes from the
/// reader half. Dropped (and replaced) wholesale on any transport error.
struct Mux {
    /// The caller-side write half (a `try_clone` of the socket). One frame
    /// is written per lock hold, so concurrent requests interleave at
    /// frame granularity, never mid-frame.
    writer: Mutex<TcpStream>,
    /// The socket itself, kept for [`Mux::kill`].
    stream: TcpStream,
    /// In-flight requests: id → the channel its caller waits on. The
    /// demultiplexer thread removes entries as responses arrive; a `None`
    /// table means the connection died and no new request may register.
    pending: Mutex<Option<HashMap<u64, mpsc::Sender<io::Result<Response>>>>>,
    /// Set once the demultiplexer saw the connection die.
    dead: AtomicBool,
}

impl Mux {
    /// Marks the connection dead and fails every pending caller with a
    /// clone-ish of `error` (the demultiplexer calls this exactly once).
    fn fail_all(&self, error: &io::Error) {
        self.dead.store(true, Ordering::SeqCst);
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let mut pending = self.pending.lock().expect("lock");
        if let Some(table) = pending.take() {
            for (_, tx) in table {
                let _ = tx.send(Err(io::Error::new(error.kind(), error.to_string())));
            }
        }
    }

    /// Forces the demultiplexer thread off its blocking read so it can
    /// exit (used when the disk is dropped or the connection replaced).
    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// One request frame on the wire, waiting for its response. Dropping it
/// gives the pending slot back, so a caller that stops caring (timeout,
/// unwinding) cannot leak table entries.
struct InFlight {
    mux: Arc<Mux>,
    id: u64,
    rx: mpsc::Receiver<io::Result<Response>>,
    /// When the caller stops waiting, fixed when the frame was sent — so
    /// several requests begun together time out together, not in series.
    deadline: Instant,
    /// The patience `deadline` was computed from, for the error message.
    wait: Duration,
}

impl InFlight {
    /// The connection is in an unknown state: fail every other caller
    /// parked on it and make the next attempt dial fresh.
    fn abandon_connection(&self, error: &io::Error) {
        self.mux.fail_all(error);
        self.mux.kill();
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        if let Some(table) = self.mux.pending.lock().expect("lock").as_mut() {
            table.remove(&self.id);
        }
    }
}

/// How one attempt at sending a request went.
enum Attempt {
    /// The frame is on the wire.
    Sent(InFlight),
    /// The transport failed; a fresh connection may still work.
    Failed(io::Error),
    /// No retry can help: the op budget is spent, or the dial is backed
    /// off.
    GaveUp(io::Error),
}

/// A request that has been sent (or has failed to be) and not yet
/// answered: what [`RemoteDisk::call`] returns and [`Call::finish`]
/// consumes. Holding several of these — to different disks — is how the
/// store overlaps the chunk reads of one stripe.
struct Call<'a> {
    disk: &'a RemoteDisk,
    /// Kept for the retry, which re-encodes under the remaining budget.
    request: Request,
    ctx: Option<TraceCtx>,
    start: Instant,
    first: Attempt,
}

impl Call<'_> {
    /// Collects the response, reconnecting and retrying once if the first
    /// attempt died in transport.
    fn finish(self) -> io::Result<Response> {
        let Call {
            disk,
            request,
            ctx,
            start,
            first,
        } = self;
        // The first attempt's error is superseded by the retry's outcome.
        match first {
            Attempt::Sent(sent) => {
                if let Ok(response) = disk.receive(sent) {
                    return Ok(response);
                }
            }
            Attempt::Failed(_) => {}
            Attempt::GaveUp(e) => return Err(e),
        }
        match disk.send(&request, ctx, start) {
            Attempt::Sent(sent) => disk.receive(sent),
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
        let response = match call.finish() {
            Ok(response) => response,
            Err(_) => return Ok(Err(ChunkStatus::Missing)), // disk unreachable = lost
        };
        if let Some(status) = response.as_chunk_status() {
            return Ok(Err(status));
        }
        let payload = disk.expect_ok(&object, response)?;
        if payload.len() != out.len() {
            return Ok(Err(ChunkStatus::Corrupt {
                reason: format!(
                    "server returned {} bytes for a {}-byte read",
                    payload.len(),
                    out.len()
                ),
            }));
        }
        out.copy_from_slice(&payload);
        Ok(Ok(()))
    }
}

/// A chunk write begun on a [`RemoteDisk`]: the request frame, payload
/// included, is on the wire.
struct RemoteWrite<'a> {
    call: Call<'a>,
    object: String,
}

impl PendingWrite for RemoteWrite<'_> {
    fn wait(self: Box<Self>) -> Result<(), StoreError> {
        let RemoteWrite { call, object } = *self;
        let disk = call.disk;
        let response = call.finish().map_err(|e| disk.io_error(&object, e))?;
        disk.expect_ok(&object, response).map(drop)
    }
}

/// A remote "disk": the client side of one chunk server, implementing
/// [`ChunkBackend`] so a `BlockStore` can mount it like a directory.
pub struct RemoteDisk {
    addr: String,
    timeout: Duration,
    /// Optional per-op deadline budget: when set, every request ships
    /// wrapped in [`Request::Deadline`] carrying the *remaining* budget,
    /// and an exhausted budget fails locally without touching the network.
    op_budget: Option<Duration>,
    /// Optional operator label — typically the rack this disk belongs to —
    /// surfaced in [`ChunkBackend::describe`] so per-socket byte counters
    /// can be attributed to racks when many disks are mounted.
    label: Option<String>,
    /// When true, requests issued under a scoped trace context
    /// ([`trace::current_ctx`]) ship wrapped in [`Request::Trace`] so the
    /// server's spans join the caller's tree. Off by default: an untraced
    /// client is byte-identical to a legacy one on the wire, which is
    /// what lets it talk to un-upgraded servers.
    tracing: bool,
    conn: Mutex<Option<Arc<Mux>>>,
    next_id: AtomicU64,
    backoff: Mutex<BackoffState>,
    connect_attempts: AtomicU64,
    connect_successes: AtomicU64,
    backoff_rejections: AtomicU64,
    bytes_sent: Arc<AtomicU64>,
    bytes_received: Arc<AtomicU64>,
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
            op_budget: None,
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
            bytes_sent: Arc::new(AtomicU64::new(0)),
            bytes_received: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Ships every request under a deadline budget: the wire frame carries
    /// the budget *remaining* when the frame is sent (so a retry after a
    /// slow first attempt ships a smaller number), the response wait is
    /// clamped to it, and once it is exhausted the request fails locally —
    /// no dial, no frame. The server refuses wrapped requests whose budget
    /// is already spent instead of doing unwanted work.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.op_budget = Some(budget);
        self
    }

    /// Enables trace propagation: requests issued while a trace context
    /// is scoped on the calling thread ship wrapped in the trace
    /// envelope (outermost, around any deadline wrapper), and
    /// [`ChunkBackend::drain_spans`] actually fetches the server's
    /// recorded spans. Only enable against servers that understand the
    /// envelope — a traced request to a legacy server is refused as an
    /// unknown opcode.
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

    /// The attached label, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
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

    /// Returns the live multiplexed connection, establishing one (and
    /// spawning its demultiplexer thread) if needed.
    fn mux(&self) -> io::Result<Arc<Mux>> {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let mut conn = self.conn.lock().expect("lock");
        if let Some(mux) = conn.as_ref() {
            // SeqCst: once-per-connection death flag set by the demux
            // thread; strongest order, cost is a dial-path non-issue.
            if !mux.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(mux));
            }
            mux.kill();
            *conn = None;
        }
        let stream = self.connect()?;
        let writer = stream.try_clone()?;
        let reader = stream.try_clone()?;
        let mux = Arc::new(Mux {
            writer: Mutex::new(writer),
            stream,
            pending: Mutex::new(Some(HashMap::new())),
            dead: AtomicBool::new(false),
        });
        let thread_mux = Arc::clone(&mux);
        let bytes_received = Arc::clone(&self.bytes_received);
        std::thread::Builder::new()
            .name(format!("chunkd-demux-{}", self.addr))
            .spawn(move || demux_loop(reader, &thread_mux, &bytes_received))
            .map_err(|e| io::Error::other(format!("spawn demux thread: {e}")))?;
        *conn = Some(Arc::clone(&mux));
        Ok(mux)
    }

    /// One request/response cycle over the multiplexed connection,
    /// reconnecting and retrying once on a transport error (every protocol
    /// op is idempotent, so a blind retry is safe). Many callers may be in
    /// this function concurrently; their requests share one socket.
    fn request(&self, request: Request) -> io::Result<Response> {
        self.call(request).finish()
    }

    /// The first half of [`RemoteDisk::request`]: puts the request on the
    /// wire and returns without waiting for the response, which
    /// [`Call::finish`] collects. Nothing fails here — a first attempt
    /// that could not be sent is carried in the call and dealt with (by
    /// the one retry) when it is finished.
    fn call(&self, request: Request) -> Call<'_> {
        let start = Instant::now();
        // The active trace, if this client propagates traces at all. An
        // untraced client (or one called outside any trace scope) never
        // touches the envelope, staying byte-compatible with legacy
        // servers.
        let ctx = if self.tracing {
            trace::current_ctx()
        } else {
            None
        };
        let first = self.send(&request, ctx, start);
        Call {
            disk: self,
            request,
            ctx,
            start,
            first,
        }
    }

    /// One attempt at getting `request` onto the wire: encode (under the
    /// budget remaining since `start`), find or dial the connection,
    /// register the pending slot and write the frame.
    fn send(&self, request: &Request, ctx: Option<TraceCtx>, start: Instant) -> Attempt {
        let trace_wrap = |req: Request| match ctx {
            Some(ctx) => Request::Trace {
                ctx,
                inner: Box::new(req),
            },
            None => req,
        };
        // Under an op budget each attempt re-encodes with the budget
        // *remaining now*, so the server sees the client's true patience
        // and a spent budget never reaches the wire.
        let (body, wait) = match self.op_budget {
            Some(budget) => {
                let remaining = budget.saturating_sub(start.elapsed());
                if remaining.is_zero() {
                    return Attempt::GaveUp(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "op budget {budget:?} exhausted before reaching {}",
                            self.addr
                        ),
                    ));
                }
                let wrapped = Request::Deadline {
                    // max(1): on the wire, zero means "already expired".
                    budget_ms: u32::try_from(remaining.as_millis())
                        .unwrap_or(u32::MAX)
                        .max(1),
                    inner: Box::new(request.clone()),
                };
                (trace_wrap(wrapped).encode(), self.timeout.min(remaining))
            }
            None => match ctx {
                Some(_) => (trace_wrap(request.clone()).encode(), self.timeout),
                None => (request.encode(), self.timeout),
            },
        };
        let mux = match self.mux() {
            Ok(mux) => mux,
            // Inside the backoff window a retry would be refused the same
            // way — fail the request now.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Attempt::GaveUp(e),
            Err(e) => return Attempt::Failed(e),
        };
        // Relaxed: uniqueness comes from the RMW itself, not ordering.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let registered = mux
            .pending
            .lock()
            // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            .expect("lock")
            .as_mut()
            .map(|table| table.insert(id, tx))
            .is_some();
        let sent = if registered {
            // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            let mut writer = mux.writer.lock().expect("lock");
            write_frame(&mut *writer, id, &body)
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
            rx,
            deadline: Instant::now() + wait,
            wait,
        };
        match sent {
            Ok(bytes) => {
                // Relaxed: traffic tally, sampled only by counters().
                self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
                Attempt::Sent(slot)
            }
            Err(e) => {
                slot.abandon_connection(&e);
                Attempt::Failed(e)
            }
        }
    }

    /// Waits (until the attempt's deadline: the request timeout, clamped
    /// to any remaining op budget, counted from when the frame was sent)
    /// for the response frame carrying the attempt's id.
    fn receive(&self, sent: InFlight) -> io::Result<Response> {
        let remaining = sent.deadline.saturating_duration_since(Instant::now());
        let result = match sent.rx.recv_timeout(remaining) {
            Ok(result) => result,
            // Timed out (a late response is dropped by the demultiplexer
            // once the slot is gone — ids make that safe).
            Err(_) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no response from {} within {:?}", self.addr, sent.wait),
            )),
        };
        if let Err(e) = &result {
            sent.abandon_connection(e);
        }
        result
    }

    /// A path-shaped label for error messages about this remote.
    fn remote_path(&self, object: &str) -> PathBuf {
        PathBuf::from(format!("chunkd://{}/{}", self.addr, object))
    }

    fn io_error(&self, object: &str, e: io::Error) -> StoreError {
        StoreError::io(self.remote_path(object), e)
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

impl Drop for RemoteDisk {
    fn drop(&mut self) {
        // Shut the socket so the demultiplexer thread unblocks and exits.
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        if let Some(mux) = self.conn.lock().expect("lock").take() {
            mux.kill();
        }
    }
}

/// The demultiplexer: reads response frames off the socket until it dies,
/// routing each to the caller registered under its id. Responses for ids
/// nobody waits on any more (timed-out callers) are dropped — the id
/// tagging is exactly what makes that safe.
fn demux_loop(mut reader: TcpStream, mux: &Mux, bytes_received: &AtomicU64) {
    loop {
        match read_frame(&mut reader) {
            Ok((id, body, received)) => {
                // Relaxed: traffic tally, sampled only by counters().
                bytes_received.fetch_add(received, Ordering::Relaxed);
                let tx = mux
                    .pending
                    .lock()
                    // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
                    .expect("lock")
                    .as_mut()
                    .and_then(|table| table.remove(&id));
                if let Some(tx) = tx {
                    let _ = tx.send(Response::decode(&body));
                }
            }
            Err(e) => {
                mux.fail_all(&e);
                return;
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
        let response = self
            .request(Request::RemoveObject {
                object: object.to_string(),
            })
            .map_err(|e| self.io_error(object, e))?;
        self.expect_ok(object, response).map(drop)
    }

    fn write_chunk(&self, object: &str, id: ChunkId, payload: &[u8]) -> Result<(), StoreError> {
        self.begin_write(object, id, payload).wait()
    }

    /// Puts the `WriteChunk` frame on the wire and returns; the response is
    /// collected (and a transport failure retried once, then reported as a
    /// hard error) at `wait`.
    fn begin_write<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        payload: &[u8],
    ) -> Box<dyn PendingWrite + 'a> {
        if let Err(e) = as_u32("chunk payload", payload.len()) {
            return Box::new(ReadyWrite(Err(e)));
        }
        Box::new(RemoteWrite {
            call: self.call(Request::WriteChunk {
                object: object.to_string(),
                id,
                payload: payload.to_vec(),
            }),
            object: object.to_string(),
        })
    }

    fn read_chunk_into(&self, object: &str, id: ChunkId, out: &mut [u8]) -> ChunkRead<()> {
        let chunk_len = out.len();
        self.begin_read(object, id, chunk_len, 0, out).wait()
    }

    fn read_chunk_range(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &mut [u8],
    ) -> ChunkRead<()> {
        self.begin_read(object, id, chunk_len, offset, out).wait()
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
                call: self.call(request),
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
        let response = match self.request(Request::Verify {
            object: object.to_string(),
            id,
            chunk_len: as_u32("chunk length", chunk_len)?,
        }) {
            Ok(response) => response,
            Err(_) => return Ok((ChunkStatus::Missing, 0)), // disk unreachable = lost
        };
        let payload = self.expect_ok(object, response)?;
        decode_verify(&payload).map_err(|e| self.io_error(object, e))
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
                let (id, body, _) = protocol::read_frame(&mut stream).unwrap();
                let request = Request::decode(&body).unwrap();
                assert_eq!(request, Request::Ping);
                let response = Response::Ok {
                    payload: protocol::encode_ping(true),
                };
                protocol::write_frame(&mut stream, id, &response.encode()).unwrap();
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
    fn op_budget_wraps_requests_and_fails_fast_when_exhausted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (id, body, _) = protocol::read_frame(&mut stream).unwrap();
            // The frame must arrive wrapped, carrying a sane remaining
            // budget (positive, no larger than what the client was given).
            let budget = match Request::decode(&body).unwrap() {
                Request::Deadline { budget_ms, inner } => {
                    assert_eq!(*inner, Request::Ping);
                    budget_ms
                }
                other => panic!("expected a deadline wrapper, got {other:?}"),
            };
            assert!((1..=2000).contains(&budget), "budget {budget}ms");
            let response = Response::Ok {
                payload: protocol::encode_ping(true),
            };
            protocol::write_frame(&mut stream, id, &response.encode()).unwrap();
        });
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_secs(5))
            .deadline(Duration::from_secs(2));
        assert!(disk.is_available());
        server.join().unwrap();

        // An exhausted budget fails before the network is touched at all.
        let dead = RemoteDisk::new("203.0.113.1:9").deadline(Duration::ZERO);
        let err = dead.ensure_object("obj").unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        assert_eq!(
            dead.reconnect_stats().attempts,
            0,
            "no dial on a spent budget"
        );
    }

    #[test]
    fn untraced_requests_are_byte_identical_to_legacy_even_in_a_trace_scope() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (id, body, _) = protocol::read_frame(&mut stream).unwrap();
            // The exact legacy encoding: a bare Ping opcode, no envelope.
            assert_eq!(body, Request::Ping.encode());
            let response = Response::Ok {
                payload: protocol::encode_ping(true),
            };
            protocol::write_frame(&mut stream, id, &response.encode()).unwrap();
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
            for _ in 0..2 {
                let (id, body, _) = protocol::read_frame(&mut stream).unwrap();
                match Request::decode(&body).unwrap() {
                    // Trace outermost, deadline inside, op innermost.
                    Request::Trace { ctx: got, inner } => {
                        assert_eq!(got, ctx);
                        match *inner {
                            Request::Deadline { inner, .. } => assert_eq!(*inner, Request::Ping),
                            other => panic!("expected deadline inside trace, got {other:?}"),
                        }
                    }
                    // Outside a trace scope the wire is legacy-shaped.
                    Request::Deadline { inner, .. } => assert_eq!(*inner, Request::Ping),
                    other => panic!("unexpected request {other:?}"),
                }
                let response = Response::Ok {
                    payload: protocol::encode_ping(true),
                };
                protocol::write_frame(&mut stream, id, &response.encode()).unwrap();
            }
        });
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_secs(5))
            .deadline(Duration::from_secs(2))
            .traced();
        {
            let _scope = trace::ScopedCtx::enter(Some(ctx));
            assert!(disk.is_available());
        }
        assert!(disk.is_available());
        server.join().unwrap();
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
                while let Ok((id, body, _)) = protocol::read_frame(&mut stream) {
                    let request = Request::decode(&body).unwrap();
                    assert_eq!(request, Request::Ping);
                    let response = Response::Ok {
                        payload: protocol::encode_ping(true),
                    };
                    if protocol::write_frame(&mut stream, id, &response.encode()).is_err() {
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
            while protocol::read_frame(&mut stream).is_ok() {}
        });
        let disk = RemoteDisk::with_timeout(addr.to_string(), Duration::from_secs(5));
        let slots = |disk: &RemoteDisk| {
            let conn = disk.conn.lock().unwrap();
            let table = conn.as_ref().unwrap().pending.lock().unwrap();
            table.as_ref().unwrap().len()
        };
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

    #[test]
    fn many_requests_multiplex_over_one_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Exactly ONE connection is accepted; every request of the
            // test must arrive here.
            let (mut stream, _) = listener.accept().unwrap();
            let mut served = 0u32;
            while let Ok((id, body, _)) = protocol::read_frame(&mut stream) {
                let request = Request::decode(&body).unwrap();
                assert_eq!(request, Request::Ping);
                let response = Response::Ok {
                    payload: protocol::encode_ping(true),
                };
                protocol::write_frame(&mut stream, id, &response.encode()).unwrap();
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
