//! The gateway itself: a readiness-based reactor front-end over a
//! [`BlockStore`].
//!
//! # Architecture
//!
//! One **reactor thread** owns the listening socket, every client
//! connection (all non-blocking), and a wake pipe; it multiplexes with
//! `poll(2)` via [`crate::poll`]. The reactor never performs store I/O —
//! chunk reads, erasure coding, and manifest commits happen on a small
//! **worker pool**, fed jobs through a channel and answering through a
//! completion queue plus one byte on the wake pipe.
//!
//! A request's expensive state ([`ObjectWriter`] / [`ObjectReader`]) is
//! *moved into* each job and handed back with the completion. That makes
//! the per-request stripe order trivially sequential (a stripe job owns
//! the reader; the next stripe cannot start until it returns) while
//! different requests — even on one connection — proceed in parallel on
//! different workers and interleave their response frames by request id.
//!
//! # Backpressure, explicitly
//!
//! Three independent controls, all visible in [`GatewayMetrics`]:
//!
//! * **Admission** ([`GatewayConfig::max_inflight_requests`]): a global
//!   cap on worker-backed requests (PUT/GET/DELETE) in flight. At the cap
//!   the gateway answers [`Response::Busy`] immediately — load is shed
//!   loudly, not queued silently.
//! * **Per-connection GET budget** ([`GatewayConfig::in_flight_stripes`]):
//!   the next stripe-read job is scheduled only while the connection's
//!   output queue is shorter than the budget. A slow reader therefore
//!   stalls its own GET at O(`in_flight_stripes` × stripe) buffered bytes
//!   — never the whole object, never other connections. A stripe buffer
//!   is the `Data` frame's body as it is, and once written it is kept
//!   for the connection's next stripe read: an idle connection holds up
//!   to `in_flight_stripes` of them until it closes.
//! * **Per-connection PUT budget** (same knob): when a connection has
//!   more buffered `PUT_DATA` frames than the budget, the reactor stops
//!   polling it for readability; TCP flow control pushes back on the
//!   client until the workers catch up. A buffered frame is handed to its
//!   worker whole, and the store reads the payload out of it.
//!
//! [`GatewayConfig::max_connections`] bounds the connection table;
//! connections beyond it are accepted and immediately closed (counted as
//! `connections_refused`).

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pbrs_obs::trace::{self, RootFlags, ScopedCtx, SpanBuilder, TraceCtx, Tracer, TracerConfig};
use pbrs_obs::{prom, EventJournal, EventKind, Stage, StageTimes};
use pbrs_store::{BlockStore, ObjectReader, ObjectWriter, StoreError};

use crate::metrics::{GatewayMetrics, OpClass};
use crate::poll::{poll_fds, PollFd, POLLERR, POLLIN, POLLNVAL, POLLOUT};
use crate::protocol::{
    data_head, frame_header, FrameDecoder, Request, Response, FRAME_OVERHEAD, PAYLOAD_HEAD,
};

/// Tuning knobs of one gateway; see the [module docs](self) for how each
/// participates in backpressure.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Store worker threads (encode/decode + chunk I/O). Default 4.
    pub workers: usize,
    /// Connection-table cap; connections beyond it are accepted and
    /// immediately closed. Default 1024.
    pub max_connections: usize,
    /// Per-connection stripe budget: a GET schedules its next stripe only
    /// while the connection's output queue is shorter than this, and a
    /// connection buffering more `PUT_DATA` frames than this stops being
    /// read. Default 4.
    pub in_flight_stripes: usize,
    /// Global cap on admitted worker-backed requests (PUT/GET/DELETE);
    /// above it new ones are shed with `BUSY`. Default 256.
    pub max_inflight_requests: usize,
    /// Per-stripe queue deadline for GETs: a stripe job that has already
    /// waited longer than this when a worker dequeues it is answered with
    /// a typed `deadline exceeded` error (counted as `requests_expired`)
    /// instead of doing store I/O the client has stopped waiting for.
    /// `None` (the default) never expires anything.
    pub request_deadline: Option<Duration>,
    /// Causal tracing: when on (the default), every admitted PUT/GET/
    /// DELETE gets a root trace context, spans are threaded through the
    /// store and its chunk backends, and the tail-sampling flight
    /// recorder retains slow/degraded/hedged/errored trees (plus 1-in-N
    /// healthy ops), served by the `TRACES` verb.
    pub tracing: bool,
    /// Flight-recorder tuning (ring size, retained-tree budget, per-op
    /// slow thresholds, healthy sampling); `enabled` is overridden by
    /// [`GatewayConfig::tracing`].
    pub tracer: TracerConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            max_connections: 1024,
            in_flight_stripes: 4,
            max_inflight_requests: 256,
            request_deadline: None,
            tracing: true,
            tracer: TracerConfig::default(),
        }
    }
}

/// A running gateway; dropping (or [`Gateway::shutdown`]) stops the
/// reactor, closes every connection, and joins all threads.
pub struct Gateway {
    addr: SocketAddr,
    metrics: Arc<GatewayMetrics>,
    tracer: Arc<Tracer>,
    stop: Arc<AtomicBool>,
    wake: UnixStream,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds `addr` and serves `store` until shutdown. Pass port 0 to let
    /// the OS pick; read it back with [`Gateway::local_addr`].
    ///
    /// # Errors
    ///
    /// Socket setup failures (bind, nonblocking, wake-pipe creation).
    pub fn serve(
        store: Arc<BlockStore>,
        addr: impl ToSocketAddrs,
        config: GatewayConfig,
    ) -> io::Result<Gateway> {
        let config = GatewayConfig {
            workers: config.workers.max(1),
            max_connections: config.max_connections.max(1),
            in_flight_stripes: config.in_flight_stripes.max(1),
            max_inflight_requests: config.max_inflight_requests.max(1),
            request_deadline: config.request_deadline,
            tracing: config.tracing,
            tracer: config.tracer,
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let tracer = Arc::new(Tracer::new(
            format!("gateway:{local}"),
            TracerConfig {
                enabled: config.tracing,
                ..config.tracer.clone()
            },
        ));
        // The store shares the gateway's tracer: its read_stripe/chunk_io
        // spans land in the same ring the flight recorder gathers from.
        store.set_tracer(Arc::clone(&tracer));
        let journal = Arc::new(EventJournal::new(256));
        // Wake pipe: workers (and shutdown) write one byte, the reactor's
        // poll set includes the read end.
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;

        let metrics = Arc::new(GatewayMetrics::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let jobs = Arc::new(Mutex::new(job_rx));
        let done = Arc::new(Mutex::new(VecDeque::new()));

        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let store = Arc::clone(&store);
            let jobs = Arc::clone(&jobs);
            let done = Arc::clone(&done);
            let wake = wake_tx.try_clone()?;
            let metrics = Arc::clone(&metrics);
            let deadline = config.request_deadline;
            workers.push(
                thread::Builder::new()
                    .name(format!("gw-worker-{i}"))
                    .spawn(move || worker_loop(&store, &jobs, &done, wake, deadline, &metrics))?,
            );
        }

        let reactor_stop = Arc::clone(&stop);
        let reactor_metrics = Arc::clone(&metrics);
        let reactor_tracer = Arc::clone(&tracer);
        let reactor = thread::Builder::new()
            .name("gw-reactor".into())
            .spawn(move || {
                Reactor {
                    store,
                    listener,
                    wake_rx,
                    conns: HashMap::new(),
                    next_conn: 0,
                    inflight: 0,
                    config,
                    metrics: reactor_metrics,
                    tracer: reactor_tracer,
                    journal,
                    job_tx,
                    done,
                    stop: reactor_stop,
                    read_buf: vec![0u8; 64 * 1024],
                }
                .run();
            })?;

        Ok(Gateway {
            addr: local,
            metrics,
            tracer,
            stop,
            wake: wake_tx,
            reactor: Some(reactor),
            workers,
        })
    }

    /// Handle on the flight recorder (useful in-process; remote callers
    /// use the `TRACES` verb).
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Handle on the live counters.
    pub fn metrics(&self) -> Arc<GatewayMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops the reactor, closes every connection, joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // SeqCst: once-per-shutdown flag, nowhere near a hot path; the
        // strongest order keeps it trivially correct against the
        // reactor's loop check.
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&self.wake).write(&[1]);
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // The reactor owned the job sender; once it is gone the workers
        // drain what is queued and exit.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway").field("addr", &self.addr).finish()
    }
}

// ---------------------------------------------------------------------------
// Jobs and completions
// ---------------------------------------------------------------------------

/// Work shipped to the pool. Jobs carry the request's writer/reader by
/// value; the matching [`Done`] carries it back.
enum Job {
    OpenWriter {
        conn: u64,
        req: u64,
        name: String,
        ctx: Option<TraceCtx>,
    },
    /// One `PUT_DATA` frame: the payload is `body[payload]`, lent from
    /// the frame ([`Request::decode_lending`]).
    WriteData {
        conn: u64,
        req: u64,
        writer: ObjectWriter,
        body: Vec<u8>,
        payload: Range<usize>,
        ctx: Option<TraceCtx>,
    },
    FinishWriter {
        conn: u64,
        req: u64,
        writer: ObjectWriter,
        ctx: Option<TraceCtx>,
    },
    /// Fire-and-forget cleanup of an abandoned ingest (client vanished).
    AbortWriter { writer: ObjectWriter },
    ReadStripe {
        conn: u64,
        req: u64,
        reader: ObjectReader,
        stripe: u64,
        buf: Vec<u8>,
        /// When the reactor enqueued the job; the worker turns the gap
        /// into [`Stage::Queue`] time.
        queued: Instant,
        ctx: Option<TraceCtx>,
    },
    Delete {
        conn: u64,
        req: u64,
        name: String,
        ctx: Option<TraceCtx>,
    },
}

impl Job {
    /// The op's root trace context, scoped onto the worker thread for the
    /// job's duration so store spans parent under the gateway root.
    fn ctx(&self) -> Option<TraceCtx> {
        match self {
            Job::OpenWriter { ctx, .. }
            | Job::WriteData { ctx, .. }
            | Job::FinishWriter { ctx, .. }
            | Job::ReadStripe { ctx, .. }
            | Job::Delete { ctx, .. } => *ctx,
            Job::AbortWriter { .. } => None,
        }
    }
}

enum Done {
    WriterOpened {
        conn: u64,
        req: u64,
        result: Result<ObjectWriter, Response>,
    },
    /// `Err` means the write failed and the writer was aborted.
    DataWritten {
        conn: u64,
        req: u64,
        result: Result<ObjectWriter, Response>,
    },
    WriterFinished {
        conn: u64,
        req: u64,
        result: Response,
    },
    StripeRead {
        conn: u64,
        req: u64,
        reader: ObjectReader,
        /// The error side carries whether the failure was a queue-deadline
        /// expiry (for the root's `deadline_expired` retention reason).
        result: Result<(Vec<u8>, bool), (Response, bool)>,
        /// Queue wait + the store's erasure/chunk-io split for this stripe.
        times: StageTimes,
    },
    Deleted {
        conn: u64,
        req: u64,
        result: Response,
    },
}

fn store_error_response(e: &StoreError) -> Response {
    match e {
        StoreError::ObjectNotFound { .. } => Response::NotFound,
        StoreError::ObjectDeleted { .. } => Response::Deleted,
        other => Response::Err {
            message: other.to_string(),
        },
    }
}

fn worker_loop(
    store: &Arc<BlockStore>,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    done: &Mutex<VecDeque<Done>>,
    mut wake: UnixStream,
    deadline: Option<Duration>,
    metrics: &GatewayMetrics,
) {
    loop {
        // Hold the lock only to receive; blocking in `recv` under the lock
        // is fine — peers block on the same job stream anyway.
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        // Trace context by value from the reactor, scoped onto this thread
        // so the store (and its backends) see it via `current_ctx`.
        let _trace_scope = ScopedCtx::enter(job.ctx());
        let completion = match job {
            Job::OpenWriter {
                conn, req, name, ..
            } => Some(Done::WriterOpened {
                conn,
                req,
                result: store.writer(&name).map_err(|e| store_error_response(&e)),
            }),
            Job::WriteData {
                conn,
                req,
                mut writer,
                body,
                payload,
                ..
            } => {
                let result = match writer.write(&body[payload]) {
                    Ok(()) => Ok(writer),
                    Err(e) => {
                        let resp = store_error_response(&e);
                        writer.abort();
                        Err(resp)
                    }
                };
                Some(Done::DataWritten { conn, req, result })
            }
            Job::FinishWriter {
                conn, req, writer, ..
            } => {
                let result = match writer.finish() {
                    Ok(info) => Response::Created {
                        len: info.len,
                        stripes: info.stripes,
                    },
                    Err(e) => store_error_response(&e),
                };
                Some(Done::WriterFinished { conn, req, result })
            }
            Job::AbortWriter { writer } => {
                writer.abort();
                None
            }
            Job::ReadStripe {
                conn,
                req,
                mut reader,
                stripe,
                mut buf,
                queued,
                ..
            } => {
                let mut times = StageTimes::new();
                let waited = queued.elapsed();
                times.add_duration(Stage::Queue, waited);
                let result = match deadline {
                    // The client's patience ran out while the job sat in
                    // the queue: answer without touching the store.
                    Some(d) if waited > d => {
                        GatewayMetrics::add(&metrics.requests_expired, 1);
                        Err((
                            Response::Err {
                                message: format!(
                                    "deadline exceeded: stripe {stripe} queued {waited:?} \
                                     against a {d:?} budget"
                                ),
                            },
                            true,
                        ))
                    }
                    _ => match reader.read_stripe(stripe, &mut buf) {
                        Ok((payload, degraded)) => {
                            buf.truncate(payload);
                            // The store attributed this stripe's
                            // chunk-io/erasure time.
                            times.merge(&reader.last_stage_times());
                            Ok((buf, degraded))
                        }
                        Err(e) => Err((store_error_response(&e), false)),
                    },
                };
                Some(Done::StripeRead {
                    conn,
                    req,
                    reader,
                    result,
                    times,
                })
            }
            Job::Delete {
                conn, req, name, ..
            } => {
                let result = match store.delete(&name) {
                    Ok(info) => Response::DeletedOk { len: info.len },
                    Err(e) => store_error_response(&e),
                };
                Some(Done::Deleted { conn, req, result })
            }
        };
        if let Some(c) = completion {
            if let Ok(mut q) = done.lock() {
                q.push_back(c);
            }
            // A full wake pipe means the reactor already has wakeups
            // pending — dropping this byte is harmless.
            let _ = wake.write(&[1]);
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

/// Completion record attached to an op's *final* response frame: when the
/// frame's last byte reaches the socket, the reactor records the op's
/// end-to-end latency (and, for GETs, its stage breakdown) into
/// [`GatewayMetrics`]. Measuring at last-byte-written makes the server's
/// histograms directly comparable to a client's request-to-last-byte
/// observations.
struct FinRecord {
    class: OpClass,
    started: Instant,
    /// Queue/erasure/chunk-io accumulated so far; `Some` only for GETs.
    /// Flush time is added from the connection's accumulator at
    /// completion.
    stages: Option<StageTimes>,
    /// The op's root span, finished at last-byte-written so the trace
    /// duration matches the latency the histogram records.
    root: Option<SpanBuilder>,
    flags: RootFlags,
}

/// One frame queued for writing; `off` progresses across head + body.
struct OutFrame {
    /// The first `head_len` bytes go out before `body`: the frame header,
    /// plus the status byte of a `Data` frame, whose body is the stripe
    /// buffer itself.
    head: [u8; PAYLOAD_HEAD],
    head_len: usize,
    body: Vec<u8>,
    off: usize,
    /// Request id, for attributing socket-write time to a GET's
    /// [`Stage::Flush`].
    req: u64,
    /// Write time on this frame counts toward `req`'s flush accumulator.
    track_flush: bool,
    /// Present on an op's final frame; see [`FinRecord`].
    fin: Option<FinRecord>,
}

impl OutFrame {
    /// A frame whose body is an encoded response.
    fn encoded(req: u64, resp: &Response, track_flush: bool, fin: Option<FinRecord>) -> Self {
        let body = resp.encode();
        let mut head = [0u8; PAYLOAD_HEAD];
        head[..FRAME_OVERHEAD].copy_from_slice(&frame_header(req, body.len()));
        OutFrame {
            head,
            head_len: FRAME_OVERHEAD,
            body,
            off: 0,
            req,
            track_flush,
            fin,
        }
    }

    /// A `Data` frame sent straight from the stripe buffer `stripe`.
    fn stripe(req: u64, stripe: Vec<u8>) -> Self {
        OutFrame {
            head: data_head(req, stripe.len()),
            head_len: PAYLOAD_HEAD,
            body: stripe,
            off: 0,
            req,
            track_flush: true,
            fin: None,
        }
    }

    fn is_stripe(&self) -> bool {
        self.head_len == PAYLOAD_HEAD
    }
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: VecDeque<OutFrame>,
    /// Stripe buffers whose `Data` frame has been written, for the next
    /// stripe read to reuse; at most `in_flight_stripes` of them, dropped
    /// with the connection.
    spare: Vec<Vec<u8>>,
    requests: HashMap<u64, ReqState>,
    /// Nanoseconds spent writing each tracked request's frames to the
    /// socket, folded into [`Stage::Flush`] when the final frame lands.
    /// Nanosecond resolution matters: one nonblocking write into a ready
    /// kernel buffer is routinely sub-microsecond, so truncating each
    /// write to whole microseconds would erase the stage entirely for
    /// frames flushed in many small writes.
    flush_ns: HashMap<u64, u64>,
    dead: bool,
}

enum ReqState {
    Put(PutState),
    Get(GetState),
    /// DELETE is a single job; the state marks the id as in flight and
    /// remembers when it was admitted.
    Delete {
        started: Instant,
        root: Option<SpanBuilder>,
    },
}

struct PutState {
    /// Present while idle at the reactor; `None` while a worker owns it
    /// (or before `OpenWriter` completes).
    writer: Option<ObjectWriter>,
    /// A job for this request is at the pool.
    busy: bool,
    /// `PUT_DATA` frames not yet shipped to a worker, each with where its
    /// payload sits in it.
    queue: VecDeque<(Vec<u8>, Range<usize>)>,
    ended: bool,
    /// First failure; the (single) response is deferred to `PUT_END` so
    /// the exchange stays one-response-per-request.
    failed: Option<Response>,
    /// When the PUT was admitted.
    started: Instant,
    /// Root span minted at admission; workers parent store spans under
    /// it via the trace context carried in each job.
    root: Option<SpanBuilder>,
}

struct GetState {
    /// Present while idle at the reactor; `None` while a worker owns it.
    reader: Option<ObjectReader>,
    next_stripe: u64,
    stripes: u64,
    degraded: u64,
    /// When the GET was admitted.
    started: Instant,
    /// Accumulated queue/erasure/chunk-io time across the stream.
    stages: StageTimes,
    /// Root span minted at admission.
    root: Option<SpanBuilder>,
}

struct Reactor {
    store: Arc<BlockStore>,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Admitted worker-backed requests (PUT/GET/DELETE) gateway-wide.
    inflight: usize,
    config: GatewayConfig,
    metrics: Arc<GatewayMetrics>,
    /// Flight recorder; shared with the store (and, transitively, its
    /// remote chunk backends) so every layer's spans land in one ring.
    tracer: Arc<Tracer>,
    /// Operational event log; overflow is exported as
    /// `pbrs_journal_events_dropped_total{component="gateway"}`.
    journal: Arc<EventJournal>,
    job_tx: mpsc::Sender<Job>,
    done: Arc<Mutex<VecDeque<Done>>>,
    stop: Arc<AtomicBool>,
    read_buf: Vec<u8>,
}

impl Reactor {
    fn run(mut self) {
        // SeqCst: pairs with the store in stop_and_join; one load per
        // poll wakeup, so the cost is irrelevant.
        while !self.stop.load(Ordering::SeqCst) {
            self.drain_completions();

            let mut fds = Vec::with_capacity(2 + self.conns.len());
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            let mut order = Vec::with_capacity(self.conns.len());
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if !self.read_paused(conn) {
                    events |= POLLIN;
                }
                if !conn.out.is_empty() {
                    events |= POLLOUT;
                }
                order.push(id);
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            }

            if poll_fds(&mut fds, 500).is_err() {
                // EBADF etc. — a conn died mid-build; reap and retry.
                self.reap_dead();
                continue;
            }

            if fds[0].readable_or_dead() {
                let mut sink = [0u8; 256];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            self.drain_completions();
            if fds[1].readable_or_dead() {
                self.accept_ready();
            }
            for (i, &id) in order.iter().enumerate() {
                let f = fds[i + 2];
                if f.has(POLLERR | POLLNVAL) {
                    if let Some(c) = self.conns.get_mut(&id) {
                        c.dead = true;
                    }
                    continue;
                }
                if f.readable_or_dead() {
                    self.read_conn(id);
                }
            }
            // Opportunistic write pass: covers both POLLOUT-ready sockets
            // and responses freshly queued this iteration.
            self.flush_and_pump_all();
            self.reap_dead();
        }
        // Shutdown: abandoned ingests are aborted by ObjectWriter::drop as
        // the connection table goes away.
        self.conns.clear();
    }

    fn read_paused(&self, conn: &Conn) -> bool {
        conn.requests.values().any(
            |r| matches!(r, ReqState::Put(p) if p.queue.len() >= self.config.in_flight_stripes),
        )
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.config.max_connections {
                        GatewayMetrics::add(&self.metrics.connections_refused, 1);
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            out: VecDeque::new(),
                            spare: Vec::new(),
                            requests: HashMap::new(),
                            flush_ns: HashMap::new(),
                            dead: false,
                        },
                    );
                    GatewayMetrics::add(&self.metrics.connections_accepted, 1);
                    GatewayMetrics::add(&self.metrics.open_connections, 1);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_conn(&mut self, id: u64) {
        let mut frames = Vec::new();
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let mut total = 0usize;
            loop {
                match conn.stream.read(&mut self.read_buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        GatewayMetrics::add(&self.metrics.bytes_in, n as u64);
                        conn.decoder.feed(&self.read_buf[..n]);
                        total += n;
                        // Fairness cap: don't let one firehose starve the
                        // rest of the poll set.
                        if total >= 256 * 1024 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            loop {
                match conn.decoder.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    Err(_) => {
                        // Unframeable garbage: no way to resynchronise.
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
        for (req_id, body) in frames {
            self.handle_frame(id, req_id, body);
        }
    }

    /// Mints the root span for an admitted op when tracing is on,
    /// adopting a client-supplied context when one rode in on a
    /// `TRACED` wrapper.
    fn mint_root(&self, op: &str, object: &str, supplied: Option<TraceCtx>) -> Option<SpanBuilder> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let mut root = self.tracer.root_span(op, supplied);
        root.tag("object", object);
        Some(root)
    }

    fn handle_frame(&mut self, conn_id: u64, req_id: u64, body: Vec<u8>) {
        let (request, payload) = match Request::decode_lending(&body) {
            Ok(r) => r,
            Err(e) => {
                GatewayMetrics::add(&self.metrics.request_errors, 1);
                self.journal.push(
                    EventKind::Error,
                    format!("bad request on conn {conn_id}: {e}"),
                );
                self.push_response(
                    conn_id,
                    req_id,
                    &Response::Err {
                        message: format!("bad request: {e}"),
                    },
                );
                return;
            }
        };
        // Peel the optional trace wrapper: the inner request proceeds
        // exactly as if sent bare, but its root adopts the client's ids.
        let (supplied, request) = match request {
            Request::Traced { ctx, inner } => (Some(ctx), *inner),
            other => (None, other),
        };
        match request {
            Request::Traced { .. } => {
                // Decode rejects nesting, so the peel above is exhaustive.
                GatewayMetrics::add(&self.metrics.request_errors, 1);
                self.push_response(
                    conn_id,
                    req_id,
                    &Response::Err {
                        message: "trace wrapper must be outermost".into(),
                    },
                );
            }
            Request::Metrics => {
                if self.duplicate_id(conn_id, req_id) {
                    return;
                }
                GatewayMetrics::add(&self.metrics.requests_admitted, 1);
                let json = self
                    .metrics
                    .snapshot()
                    .to_json_v2(&self.metrics.latency(), &self.store.latency().to_json());
                self.push_response(conn_id, req_id, &Response::Metrics { json });
            }
            Request::Prometheus => {
                if self.duplicate_id(conn_id, req_id) {
                    return;
                }
                GatewayMetrics::add(&self.metrics.requests_admitted, 1);
                let mut text = String::new();
                self.metrics.snapshot().write_prometheus(&mut text);
                // Exemplars from the flight recorder link each op class's
                // slow buckets to a concrete retained trace id.
                let exemplars = crate::metrics::OpExemplars::from_retained(&self.tracer.retained());
                self.metrics
                    .latency()
                    .write_prometheus_with_exemplars(&mut text, &exemplars);
                self.store.metrics().write_prometheus(&mut text);
                self.store.latency().write_prometheus(&mut text);
                pbrs_store::health::write_prometheus(&self.store.health_snapshot(), &mut text);
                prom::type_line(&mut text, "pbrs_journal_events_dropped_total", "counter");
                prom::sample(
                    &mut text,
                    "pbrs_journal_events_dropped_total",
                    &[("component", "gateway")],
                    self.journal.dropped() as f64,
                );
                prom::sample(
                    &mut text,
                    "pbrs_journal_events_dropped_total",
                    &[("component", "store")],
                    self.store.journal_dropped() as f64,
                );
                self.push_response(conn_id, req_id, &Response::Prometheus { text });
            }
            Request::Traces => {
                if self.duplicate_id(conn_id, req_id) {
                    return;
                }
                GatewayMetrics::add(&self.metrics.requests_admitted, 1);
                // Pull chunkd-local spans over the wire and graft them
                // into their retained trees before rendering, so one
                // response shows the whole cross-process tree.
                self.tracer.attach_spans(self.store.drain_remote_spans());
                let retained = self.tracer.retained();
                let resp = Response::Traces {
                    json: trace::retained_to_json(&retained),
                    chrome: trace::retained_to_chrome(&retained),
                };
                self.push_response(conn_id, req_id, &resp);
            }
            Request::Stat { name } => {
                if self.duplicate_id(conn_id, req_id) {
                    return;
                }
                GatewayMetrics::add(&self.metrics.requests_admitted, 1);
                let resp = match self.store.lookup(&name) {
                    Ok(info) => Response::Stat {
                        len: info.len,
                        stripes: info.stripes,
                    },
                    Err(e) => {
                        GatewayMetrics::add(&self.metrics.request_errors, 1);
                        store_error_response(&e)
                    }
                };
                self.push_response(conn_id, req_id, &resp);
            }
            Request::PutStart { name } => {
                if self.duplicate_id(conn_id, req_id) {
                    return;
                }
                if !self.admit(conn_id, req_id) {
                    return;
                }
                GatewayMetrics::add(&self.metrics.requests_admitted, 1);
                let root = self.mint_root("put", &name, supplied);
                let ctx = root.as_ref().map(SpanBuilder::ctx);
                let Some(conn) = self.conns.get_mut(&conn_id) else {
                    return;
                };
                conn.requests.insert(
                    req_id,
                    ReqState::Put(PutState {
                        writer: None,
                        busy: true,
                        queue: VecDeque::new(),
                        ended: false,
                        failed: None,
                        started: Instant::now(),
                        root,
                    }),
                );
                self.inflight += 1;
                let _ = self.job_tx.send(Job::OpenWriter {
                    conn: conn_id,
                    req: req_id,
                    name,
                    ctx,
                });
            }
            Request::PutData { .. } => {
                // Data for an id we are not ingesting (shed with BUSY, or
                // already failed and responded) is silently discarded: the
                // single response for that id has been or will be sent.
                let Some(conn) = self.conns.get_mut(&conn_id) else {
                    return;
                };
                if let Some(ReqState::Put(p)) = conn.requests.get_mut(&req_id) {
                    p.queue.push_back((body, payload));
                    self.pump_put(conn_id, req_id);
                }
            }
            Request::PutEnd => {
                let Some(conn) = self.conns.get_mut(&conn_id) else {
                    return;
                };
                if let Some(ReqState::Put(p)) = conn.requests.get_mut(&req_id) {
                    p.ended = true;
                    self.pump_put(conn_id, req_id);
                }
            }
            Request::Get { name } => {
                if self.duplicate_id(conn_id, req_id) {
                    return;
                }
                if !self.admit(conn_id, req_id) {
                    return;
                }
                // Opening a reader is manifest-only (no disk I/O): inline.
                let started = Instant::now();
                match self.store.reader(&name) {
                    Ok(reader) => {
                        GatewayMetrics::add(&self.metrics.requests_admitted, 1);
                        let root = self.mint_root("get", &name, supplied);
                        let info = reader.info();
                        let Some(conn) = self.conns.get_mut(&conn_id) else {
                            return;
                        };
                        conn.requests.insert(
                            req_id,
                            ReqState::Get(GetState {
                                reader: Some(reader),
                                next_stripe: 0,
                                stripes: info.stripes,
                                degraded: 0,
                                started,
                                stages: StageTimes::new(),
                                root,
                            }),
                        );
                        self.inflight += 1;
                        self.push_tracked(
                            conn_id,
                            req_id,
                            &Response::ObjectHeader {
                                len: info.len,
                                stripes: info.stripes,
                            },
                            None,
                        );
                        self.pump_get(conn_id, req_id);
                    }
                    Err(e) => {
                        GatewayMetrics::add(&self.metrics.request_errors, 1);
                        let resp = store_error_response(&e);
                        self.push_response(conn_id, req_id, &resp);
                    }
                }
            }
            Request::Delete { name } => {
                if self.duplicate_id(conn_id, req_id) {
                    return;
                }
                if !self.admit(conn_id, req_id) {
                    return;
                }
                GatewayMetrics::add(&self.metrics.requests_admitted, 1);
                let root = self.mint_root("delete", &name, supplied);
                let ctx = root.as_ref().map(SpanBuilder::ctx);
                let Some(conn) = self.conns.get_mut(&conn_id) else {
                    return;
                };
                conn.requests.insert(
                    req_id,
                    ReqState::Delete {
                        started: Instant::now(),
                        root,
                    },
                );
                self.inflight += 1;
                let _ = self.job_tx.send(Job::Delete {
                    conn: conn_id,
                    req: req_id,
                    name,
                    ctx,
                });
            }
        }
    }

    /// `true` (and responds with an error) when `req_id` is already in
    /// flight on this connection.
    fn duplicate_id(&mut self, conn_id: u64, req_id: u64) -> bool {
        let dup = self
            .conns
            .get(&conn_id)
            .is_some_and(|c| c.requests.contains_key(&req_id));
        if dup {
            GatewayMetrics::add(&self.metrics.request_errors, 1);
            self.push_response(
                conn_id,
                req_id,
                &Response::Err {
                    message: format!("request id {req_id} already in flight"),
                },
            );
        }
        dup
    }

    /// Admission gate; `false` means the request was shed with `BUSY`.
    fn admit(&mut self, conn_id: u64, req_id: u64) -> bool {
        if self.inflight >= self.config.max_inflight_requests {
            GatewayMetrics::add(&self.metrics.requests_shed, 1);
            self.push_response(conn_id, req_id, &Response::Busy);
            return false;
        }
        true
    }

    /// Drives one PUT forward: ship the next queued payload (or the
    /// finish) to a worker, or deliver a deferred failure at `PUT_END`.
    fn pump_put(&mut self, conn_id: u64, req_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let Some(ReqState::Put(p)) = conn.requests.get_mut(&req_id) else {
            return;
        };
        if p.busy {
            return;
        }
        if p.failed.is_some() {
            // The ingest already failed; drop buffered data and respond
            // once the client says END.
            p.queue.clear();
            if p.ended {
                if let Some(w) = p.writer.take() {
                    let _ = self.job_tx.send(Job::AbortWriter { writer: w });
                }
                // pbrs-lint: allow(panic-hygiene) -- this branch is only entered when failed was populated
                let resp = p.failed.take().expect("checked");
                let root = p.root.take();
                conn.requests.remove(&req_id);
                self.inflight -= 1;
                GatewayMetrics::add(&self.metrics.request_errors, 1);
                self.push_response(conn_id, req_id, &resp);
                if let Some(root) = root {
                    root.finish_root(
                        &self.tracer,
                        RootFlags {
                            error: true,
                            ..RootFlags::default()
                        },
                    );
                }
            }
            return;
        }
        let ctx = p.root.as_ref().map(SpanBuilder::ctx);
        if let Some((body, payload)) = p.queue.pop_front() {
            // pbrs-lint: allow(panic-hygiene) -- state machine invariant: writer is parked whenever not busy/failed
            let writer = p.writer.take().expect("writer idle when not busy/failed");
            p.busy = true;
            let _ = self.job_tx.send(Job::WriteData {
                conn: conn_id,
                req: req_id,
                writer,
                body,
                payload,
                ctx,
            });
        } else if p.ended {
            // pbrs-lint: allow(panic-hygiene) -- state machine invariant: writer is parked whenever not busy/failed
            let writer = p.writer.take().expect("writer idle when not busy/failed");
            p.busy = true;
            let _ = self.job_tx.send(Job::FinishWriter {
                conn: conn_id,
                req: req_id,
                writer,
                ctx,
            });
        }
    }

    /// Drives one GET forward: finish the stream, or schedule the next
    /// stripe read if the connection's output budget allows.
    fn pump_get(&mut self, conn_id: u64, req_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let Some(ReqState::Get(g)) = conn.requests.get_mut(&req_id) else {
            return;
        };
        if g.reader.is_none() {
            return; // a stripe job is in flight
        }
        if g.next_stripe == g.stripes {
            let degraded_stripes = g.degraded;
            let fin = FinRecord {
                class: if degraded_stripes > 0 {
                    OpClass::GetDegraded
                } else {
                    OpClass::GetHealthy
                },
                started: g.started,
                stages: Some(g.stages),
                root: g.root.take(),
                flags: RootFlags {
                    degraded: degraded_stripes > 0,
                    ..RootFlags::default()
                },
            };
            conn.requests.remove(&req_id);
            self.inflight -= 1;
            self.push_tracked(
                conn_id,
                req_id,
                &Response::ObjectEnd { degraded_stripes },
                Some(fin),
            );
            return;
        }
        if conn.out.len() >= self.config.in_flight_stripes {
            return; // resumed by flush_and_pump_all once the queue drains
        }
        // pbrs-lint: allow(panic-hygiene) -- reader presence was checked by the guard above
        let reader = g.reader.take().expect("checked");
        // A recycled buffer was cut to its stripe's payload, so this
        // zeroes at most a short last stripe's tail.
        let mut buf = conn.spare.pop().unwrap_or_default();
        buf.resize(reader.stripe_len(), 0);
        let stripe = g.next_stripe;
        let ctx = g.root.as_ref().map(SpanBuilder::ctx);
        let _ = self.job_tx.send(Job::ReadStripe {
            conn: conn_id,
            req: req_id,
            reader,
            stripe,
            buf,
            queued: Instant::now(),
            ctx,
        });
    }

    fn drain_completions(&mut self) {
        loop {
            let next = match self.done.lock() {
                Ok(mut q) => q.pop_front(),
                Err(_) => return,
            };
            let Some(done) = next else { return };
            self.handle_done(done);
        }
    }

    fn handle_done(&mut self, done: Done) {
        match done {
            Done::WriterOpened { conn, req, result } => {
                if !self.conns.contains_key(&conn) {
                    if let Ok(w) = result {
                        let _ = self.job_tx.send(Job::AbortWriter { writer: w });
                    }
                    self.inflight -= 1;
                    return;
                }
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                let Some(ReqState::Put(p)) = c.requests.get_mut(&req) else {
                    return;
                };
                p.busy = false;
                match result {
                    Ok(w) => p.writer = Some(w),
                    Err(resp) => p.failed = Some(resp),
                }
                self.pump_put(conn, req);
            }
            Done::DataWritten { conn, req, result } => {
                if !self.conns.contains_key(&conn) {
                    if let Ok(w) = result {
                        let _ = self.job_tx.send(Job::AbortWriter { writer: w });
                    }
                    self.inflight -= 1;
                    return;
                }
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                let Some(ReqState::Put(p)) = c.requests.get_mut(&req) else {
                    return;
                };
                p.busy = false;
                match result {
                    Ok(w) => p.writer = Some(w),
                    Err(resp) => p.failed = Some(resp), // writer already aborted
                }
                self.pump_put(conn, req);
            }
            Done::WriterFinished { conn, req, result } => {
                if !self.conns.contains_key(&conn) {
                    self.inflight -= 1;
                    return;
                }
                let mut started = None;
                let mut root = None;
                if let Some(c) = self.conns.get_mut(&conn) {
                    if let Some(ReqState::Put(mut p)) = c.requests.remove(&req) {
                        started = Some(p.started);
                        root = p.root.take();
                    }
                }
                self.inflight -= 1;
                let fin = if matches!(result, Response::Created { .. }) {
                    GatewayMetrics::add(&self.metrics.objects_put, 1);
                    started.map(|started| FinRecord {
                        class: OpClass::Put,
                        started,
                        stages: None,
                        root: root.take(),
                        flags: RootFlags::default(),
                    })
                } else {
                    GatewayMetrics::add(&self.metrics.request_errors, 1);
                    None
                };
                if let Some(root) = root {
                    // Error path: the fin record did not adopt the root.
                    root.finish_root(
                        &self.tracer,
                        RootFlags {
                            error: true,
                            ..RootFlags::default()
                        },
                    );
                }
                self.push_tracked(conn, req, &result, fin);
            }
            Done::StripeRead {
                conn,
                req,
                reader,
                result,
                times,
            } => {
                if !self.conns.contains_key(&conn) {
                    drop(reader);
                    self.inflight -= 1;
                    return;
                }
                match result {
                    Ok((data, degraded)) => {
                        GatewayMetrics::add(&self.metrics.stripes_served, 1);
                        if degraded {
                            GatewayMetrics::add(&self.metrics.degraded_stripes_served, 1);
                        }
                        let Some(c) = self.conns.get_mut(&conn) else {
                            return;
                        };
                        let Some(ReqState::Get(g)) = c.requests.get_mut(&req) else {
                            return;
                        };
                        g.reader = Some(reader);
                        g.next_stripe += 1;
                        if degraded {
                            g.degraded += 1;
                        }
                        g.stages.merge(&times);
                        c.out.push_back(OutFrame::stripe(req, data));
                        self.pump_get(conn, req);
                    }
                    Err((resp, expired)) => {
                        // Mid-stream failure: the header is out; terminate
                        // the stream with an error frame.
                        let mut root = None;
                        if let Some(c) = self.conns.get_mut(&conn) {
                            if let Some(ReqState::Get(mut g)) = c.requests.remove(&req) {
                                root = g.root.take();
                            }
                            c.flush_ns.remove(&req);
                        }
                        self.inflight -= 1;
                        GatewayMetrics::add(&self.metrics.request_errors, 1);
                        self.push_response(conn, req, &resp);
                        if let Some(root) = root {
                            root.finish_root(
                                &self.tracer,
                                RootFlags {
                                    error: true,
                                    expired,
                                    ..RootFlags::default()
                                },
                            );
                        }
                    }
                }
            }
            Done::Deleted { conn, req, result } => {
                if !self.conns.contains_key(&conn) {
                    self.inflight -= 1;
                    return;
                }
                let mut started = None;
                let mut root = None;
                if let Some(c) = self.conns.get_mut(&conn) {
                    if let Some(ReqState::Delete {
                        started: s,
                        root: r,
                    }) = c.requests.remove(&req)
                    {
                        started = Some(s);
                        root = r;
                    }
                }
                self.inflight -= 1;
                let fin = if matches!(result, Response::DeletedOk { .. }) {
                    GatewayMetrics::add(&self.metrics.objects_deleted, 1);
                    started.map(|started| FinRecord {
                        class: OpClass::Delete,
                        started,
                        stages: None,
                        root: root.take(),
                        flags: RootFlags::default(),
                    })
                } else {
                    GatewayMetrics::add(&self.metrics.request_errors, 1);
                    None
                };
                if let Some(root) = root {
                    // Error path: the fin record did not adopt the root.
                    root.finish_root(
                        &self.tracer,
                        RootFlags {
                            error: true,
                            ..RootFlags::default()
                        },
                    );
                }
                self.push_tracked(conn, req, &result, fin);
            }
        }
    }

    fn push_response(&mut self, conn_id: u64, req_id: u64, resp: &Response) {
        self.enqueue_frame(conn_id, req_id, resp, false, None);
    }

    /// Queues a frame whose socket-write time counts toward the request's
    /// [`Stage::Flush`] accumulator, optionally carrying the op's
    /// completion record (see [`FinRecord`]).
    fn push_tracked(&mut self, conn_id: u64, req_id: u64, resp: &Response, fin: Option<FinRecord>) {
        self.enqueue_frame(conn_id, req_id, resp, true, fin);
    }

    fn enqueue_frame(
        &mut self,
        conn_id: u64,
        req_id: u64,
        resp: &Response,
        track_flush: bool,
        fin: Option<FinRecord>,
    ) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        conn.out
            .push_back(OutFrame::encoded(req_id, resp, track_flush, fin));
    }

    /// Writes every connection's pending output as far as the sockets
    /// allow, then re-pumps GETs whose budget freed up.
    fn flush_and_pump_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let below_budget = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                if conn.dead {
                    continue;
                }
                flush_conn(
                    conn,
                    &self.metrics,
                    &self.tracer,
                    self.config.in_flight_stripes,
                );
                !conn.dead && conn.out.len() < self.config.in_flight_stripes
            };
            if below_budget {
                let reqs: Vec<u64> = self
                    .conns
                    .get(&id)
                    .map(|c| {
                        c.requests
                            .iter()
                            .filter(|(_, s)| matches!(s, ReqState::Get(_)))
                            .map(|(&r, _)| r)
                            .collect()
                    })
                    .unwrap_or_default();
                for req in reqs {
                    self.pump_get(id, req);
                }
            }
        }
        // Pumping may have queued ObjectEnd frames on empty queues; give
        // them one immediate write attempt instead of waiting a poll turn.
        let ids: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.dead && !c.out.is_empty())
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                flush_conn(
                    conn,
                    &self.metrics,
                    &self.tracer,
                    self.config.in_flight_stripes,
                );
            }
        }
    }

    fn reap_dead(&mut self) {
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.dead)
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            GatewayMetrics::sub(&self.metrics.open_connections, 1);
            for (_, state) in conn.requests.drain() {
                match state {
                    ReqState::Put(p) => {
                        if p.busy {
                            // The worker owns the writer; the orphaned
                            // completion decrements inflight and aborts.
                        } else {
                            if let Some(w) = p.writer {
                                let _ = self.job_tx.send(Job::AbortWriter { writer: w });
                            }
                            self.inflight -= 1;
                        }
                    }
                    ReqState::Get(g) => {
                        if g.reader.is_some() {
                            self.inflight -= 1;
                        }
                        // else: the orphaned StripeRead completion
                        // decrements inflight and drops the reader.
                    }
                    ReqState::Delete { .. } => {
                        // The orphaned Deleted completion decrements.
                    }
                }
            }
        }
    }
}

/// Rounds an op's accumulated flush nanoseconds to the microseconds the
/// stage histograms record. Rounding (rather than truncating) here means
/// at most half a microsecond of error per *op*; truncating each write
/// individually used to lose the whole stage for ops flushed in many
/// sub-microsecond writes.
fn flush_micros(ns: u64) -> u64 {
    (ns + 500) / 1_000
}

/// Writes the front of `conn.out` as far as the socket allows, vectoring
/// head+body into one syscall while the head is unsent. A written `Data`
/// frame's stripe buffer joins `conn.spare` while it holds fewer than
/// `spare_cap`. Tracked frames accumulate their write time into the
/// request's flush budget; when a frame carrying a [`FinRecord`]
/// finishes, the op's latency (and GET stage breakdown) is recorded —
/// i.e. at last-byte-written.
fn flush_conn(conn: &mut Conn, metrics: &GatewayMetrics, tracer: &Tracer, spare_cap: usize) {
    while let Some(front) = conn.out.front_mut() {
        let head_len = front.head_len;
        let write_start = front.track_flush.then(Instant::now);
        let attempt = if front.off < head_len {
            let slices = [
                IoSlice::new(&front.head[front.off..head_len]),
                IoSlice::new(&front.body),
            ];
            conn.stream.write_vectored(&slices)
        } else {
            conn.stream.write(&front.body[front.off - head_len..])
        };
        if let Some(t0) = write_start {
            *conn.flush_ns.entry(front.req).or_insert(0) += t0.elapsed().as_nanos() as u64;
        }
        match attempt {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                GatewayMetrics::add(&metrics.bytes_out, n as u64);
                front.off += n;
                if front.off == head_len + front.body.len() {
                    // pbrs-lint: allow(panic-hygiene) -- out was just peeked non-empty by the enclosing loop
                    let done = conn.out.pop_front().expect("front exists");
                    if done.is_stripe() && conn.spare.len() < spare_cap {
                        conn.spare.push(done.body);
                    }
                    if let Some(fin) = done.fin {
                        let flush = conn.flush_ns.remove(&done.req).unwrap_or(0);
                        metrics
                            .op_latency(fin.class)
                            .record_duration(fin.started.elapsed());
                        if let Some(root) = fin.root {
                            // Finished here — at last-byte-written — so the
                            // trace's root duration matches the histogram.
                            root.finish_root(tracer, fin.flags);
                        }
                        if let Some(mut stages) = fin.stages {
                            stages.add(Stage::Flush, flush_micros(flush));
                            let set = match fin.class {
                                OpClass::GetDegraded => &metrics.degraded_get_stages,
                                _ => &metrics.healthy_get_stages,
                            };
                            set.record_times(&stages);
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

#[cfg(test)]
mod flush_resolution_tests {
    use super::flush_micros;

    /// Regression: the flush accumulator used to truncate each write to
    /// whole microseconds, so an op flushed in many sub-microsecond
    /// writes recorded zero flush time. Accumulating nanoseconds and
    /// converting once keeps the stage visible.
    #[test]
    fn many_submicrosecond_writes_survive_conversion() {
        // 100 writes of 800 ns each: per-write µs truncation records 0;
        // nanosecond accumulation records 80 µs.
        let total_ns: u64 = (0..100).map(|_| 800u64).sum();
        assert_eq!(flush_micros(total_ns), 80);
        let truncated_per_write: u64 = (0..100).map(|_| 800u64 / 1_000).sum();
        assert_eq!(truncated_per_write, 0, "the old scheme lost the stage");
    }

    #[test]
    fn conversion_rounds_half_up() {
        assert_eq!(flush_micros(0), 0);
        assert_eq!(flush_micros(499), 0);
        assert_eq!(flush_micros(500), 1);
        assert_eq!(flush_micros(1_499), 1);
        assert_eq!(flush_micros(1_500), 2);
    }
}
