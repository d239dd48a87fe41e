//! The chunk server: one TCP endpoint serving one "disk".
//!
//! A [`ChunkServer`] owns a [`LocalDisk`] root directory and answers the
//! [`crate::protocol`] request set over plain blocking TCP — no async
//! runtime, matching the store's `std::thread` style throughout. A small
//! pre-threaded pool shares the listener: each worker accepts one
//! connection at a time and serves it request-by-request, so `threads`
//! bounds both concurrency and memory. All durability guarantees are the
//! disk's ([`LocalDisk`] fsyncs files and directories); the server adds no
//! buffering of its own.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pbrs_obs::trace::{ScopedCtx, Tracer, TracerConfig};
use pbrs_obs::{prom, EventJournal, EventKind, LatencyHistogram, Registry, Summary};
use pbrs_store::manifest::validate_object_name;
use pbrs_store::{
    BackendCounters, ChunkBackend, ChunkStatus, FaultPlan, FaultyBackend, LocalDisk, StoreError,
};

use pbrs_wire::{
    parse_header, split_envelope, write_frame, write_frame_parts, FRAME_OVERHEAD, MAX_FRAME,
};

use crate::protocol::{
    encode_ping, encode_spans, encode_sweep, encode_verify, Request, Response, STATUS_OK,
};

/// How long a serving thread waits for the next request before checking
/// the shutdown flag again. Bounds shutdown latency, not request latency.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Configuration of a [`ChunkServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads accepting and serving connections (also the maximum
    /// number of concurrently served connections).
    pub threads: usize,
    /// How long a connection may sit idle *between* frames before the
    /// server closes it and frees the worker for the next `accept`. With a
    /// thread-per-connection pool, an abandoned-but-open socket would
    /// otherwise pin a worker forever and starve live clients. Clients
    /// reconnect transparently (every op is idempotent and retried once
    /// over a fresh connection), so a short timeout is safe.
    pub idle_timeout: Duration,
    /// Test/bench-only fault hook: when set, the served disk is wrapped in
    /// a [`FaultyBackend`] executing this plan, so chaos suites can stall,
    /// corrupt, or drop real remote ops. A `drop` fault makes the server
    /// kill the connection instead of answering, as a genuinely aborted
    /// connection would. Nothing in production paths sets this.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// The pool-disk index this server plays in `fault_plan`'s schedule
    /// (a plan's `disk=N` clauses match against it).
    pub fault_disk: usize,
    /// Whether to record server-side spans for requests whose envelope
    /// carries a trace (shipped back via `FetchSpans`). Costs two clock reads and one
    /// ring push per traced request; untraced requests are unaffected
    /// either way.
    pub tracing: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            idle_timeout: Duration::from_secs(120),
            fault_plan: None,
            fault_disk: 0,
            tracing: true,
        }
    }
}

#[derive(Debug, Default)]
struct Traffic {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// One latency histogram per remote op, resolved from the registry once at
/// bind time so the per-request path never takes the registry lock.
struct OpHists {
    ping: Arc<LatencyHistogram>,
    ensure_object: Arc<LatencyHistogram>,
    remove_object: Arc<LatencyHistogram>,
    write_chunk: Arc<LatencyHistogram>,
    write_zeros: Arc<LatencyHistogram>,
    read_chunk: Arc<LatencyHistogram>,
    read_range: Arc<LatencyHistogram>,
    verify: Arc<LatencyHistogram>,
    sweep_tmp: Arc<LatencyHistogram>,
    fetch_spans: Arc<LatencyHistogram>,
}

impl OpHists {
    fn new(registry: &Registry) -> Self {
        let h = |op: &str| registry.histogram(&format!("op_{op}_duration_seconds"));
        OpHists {
            ping: h("ping"),
            ensure_object: h("ensure_object"),
            remove_object: h("remove_object"),
            write_chunk: h("write_chunk"),
            write_zeros: h("write_zeros"),
            read_chunk: h("read_chunk"),
            read_range: h("read_range"),
            verify: h("verify"),
            sweep_tmp: h("sweep_tmp"),
            fetch_spans: h("fetch_spans"),
        }
    }

    fn for_request(&self, request: &Request) -> &LatencyHistogram {
        match request {
            Request::Ping => &self.ping,
            Request::EnsureObject { .. } => &self.ensure_object,
            Request::RemoveObject { .. } => &self.remove_object,
            Request::WriteChunk { .. } => &self.write_chunk,
            Request::WriteZeros { .. } => &self.write_zeros,
            Request::ReadChunk { .. } => &self.read_chunk,
            Request::ReadRange { .. } => &self.read_range,
            Request::Verify { .. } => &self.verify,
            Request::SweepTmp { .. } => &self.sweep_tmp,
            Request::FetchSpans => &self.fetch_spans,
        }
    }
}

/// Stable span/metric name of the operation a request performs.
fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::EnsureObject { .. } => "ensure_object",
        Request::RemoveObject { .. } => "remove_object",
        Request::WriteChunk { .. } => "write_chunk",
        Request::WriteZeros { .. } => "write_zeros",
        Request::ReadChunk { .. } => "read_chunk",
        Request::ReadRange { .. } => "read_range",
        Request::Verify { .. } => "verify",
        Request::SweepTmp { .. } => "sweep_tmp",
        Request::FetchSpans => "fetch_spans",
    }
}

/// The object a request touches, for span tags.
fn request_object(request: &Request) -> Option<&str> {
    match request {
        Request::EnsureObject { object }
        | Request::RemoveObject { object }
        | Request::WriteChunk { object, .. }
        | Request::WriteZeros { object, .. }
        | Request::ReadChunk { object, .. }
        | Request::ReadRange { object, .. }
        | Request::Verify { object, .. } => Some(object),
        _ => None,
    }
}

struct Shared {
    /// The served backend: a bare [`LocalDisk`], or the same disk behind a
    /// [`FaultyBackend`] when `ServerConfig::fault_plan` is set.
    backend: Arc<dyn ChunkBackend>,
    root: PathBuf,
    shutdown: AtomicBool,
    traffic: Traffic,
    idle_timeout: Duration,
    registry: Registry,
    ops: OpHists,
    /// Span recorder in export mode: finished spans queue here until the
    /// gateway drains them with a `FetchSpans` request.
    tracer: Tracer,
    journal: EventJournal,
}

/// A running chunk server; dropping it (or calling
/// [`ChunkServer::shutdown`]) stops the workers.
pub struct ChunkServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ChunkServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkServer")
            .field("addr", &self.local_addr)
            .field("root", &self.shared.root)
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl ChunkServer {
    /// Binds a server for the disk rooted at `root` (created if absent) on
    /// `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port), with the
    /// default thread count.
    ///
    /// # Errors
    ///
    /// Propagates bind and root-creation failures.
    pub fn bind(root: impl Into<PathBuf>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::bind_with(root, addr, ServerConfig::default())
    }

    /// [`ChunkServer::bind`] with an explicit [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates bind and root-creation failures.
    pub fn bind_with(
        root: impl Into<PathBuf>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let registry = Registry::new();
        let ops = OpHists::new(&registry);
        let local: Arc<dyn ChunkBackend> = Arc::new(LocalDisk::new(root.clone()));
        let backend = match &config.fault_plan {
            Some(plan) => Arc::new(FaultyBackend::new(
                local,
                Arc::clone(plan),
                config.fault_disk,
            )) as Arc<dyn ChunkBackend>,
            None => local,
        };
        let tracer = Tracer::new(
            format!("chunkd:{local_addr}"),
            TracerConfig {
                enabled: config.tracing,
                ring_capacity: 1024,
                export_capacity: 4096,
                // No roots finish here; retention happens at the gateway.
                healthy_sample_n: 0,
                ..TracerConfig::default()
            },
        );
        let shared = Arc::new(Shared {
            backend,
            root,
            shutdown: AtomicBool::new(false),
            traffic: Traffic::default(),
            idle_timeout: config.idle_timeout.max(POLL_INTERVAL),
            registry,
            ops,
            tracer,
            journal: EventJournal::new(256),
        });
        let listener = Arc::new(listener);
        let workers = (0..config.threads.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("chunkd-{local_addr}-{i}"))
                    .spawn(move || accept_loop(&listener, &shared))
                    // pbrs-lint: allow(panic-hygiene) -- thread spawn fails only on OS resource exhaustion at startup; aborting is the intended response
                    .expect("spawn chunkd worker")
            })
            .collect();
        Ok(ChunkServer {
            local_addr,
            shared,
            workers,
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The disk root directory this server serves.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    /// Server-side traffic totals across all connections so far:
    /// `bytes_received` is what clients sent us, `bytes_sent` what we
    /// shipped back.
    pub fn counters(&self) -> BackendCounters {
        BackendCounters {
            // Relaxed: traffic tallies for accounting; they guard nothing.
            bytes_sent: self.shared.traffic.bytes_out.load(Ordering::Relaxed),
            bytes_received: self.shared.traffic.bytes_in.load(Ordering::Relaxed),
        }
    }

    /// Per-op latency summaries, sorted by op name: one entry per remote op
    /// (`op_read_chunk_duration_seconds`, …) with counts and percentiles in
    /// microseconds. Ops never served have `count == 0`.
    pub fn op_latency(&self) -> Vec<(String, Summary)> {
        self.shared
            .registry
            .snapshot()
            .into_iter()
            .map(|(name, h)| (name, h.summary()))
            .collect()
    }

    /// Prometheus text exposition of this server's metrics, with every
    /// family prefixed `pbrs_chunkd_`, plus the shared-name journal
    /// overflow counter (`pbrs_journal_events_dropped_total`).
    pub fn metrics_prometheus(&self) -> String {
        let mut out = self.shared.registry.to_prometheus("pbrs_chunkd_");
        prom::type_line(&mut out, "pbrs_journal_events_dropped_total", "counter");
        prom::sample(
            &mut out,
            "pbrs_journal_events_dropped_total",
            &[("component", "chunkd")],
            self.shared.journal.dropped() as f64,
        );
        out
    }

    /// Stops accepting, finishes in-flight requests, and joins the workers.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // SeqCst: once-per-shutdown flag; the strongest order keeps it
        // trivially correct against every worker's polling load.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake every blocked accept with a throwaway connection.
        for _ in &self.workers {
            let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(250));
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ChunkServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        // SeqCst here and below: shutdown-flag polls, once per accept;
        // pairs with the SeqCst store in stop_and_join.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // SeqCst: catches the wake-up connection from shutdown().
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let _ = serve_connection(stream, shared);
            }
            Err(_) => {
                // SeqCst: same shutdown poll as above.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (EMFILE, aborted handshake…):
                // don't spin at full speed.
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// What a request is answered with.
enum Answer {
    /// A response to encode.
    Response(Response),
    /// A successful read: the first `len` bytes of the connection's read
    /// buffer are the payload, sent after `STATUS_OK` without an encoded
    /// copy.
    Payload(usize),
}

impl From<Response> for Answer {
    fn from(response: Response) -> Self {
        Answer::Response(response)
    }
}

/// Serves one connection until the client disconnects, goes idle past the
/// configured timeout, an I/O error occurs, or shutdown begins. The
/// request id of each frame is echoed on its response so a multiplexing
/// client can match them; requests on one connection are still served in
/// order (pipelining overlap lives in the socket buffers).
fn serve_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    // Every request body on this connection lands in `frame`, and a chunk
    // write goes to the disk straight from there; every read lands in
    // `buf` and is sent from there; a zero write goes to the disk from
    // `zeros`, which nothing ever writes to. All are sized by the largest
    // so far, never allocated per request.
    let mut frame = Vec::new();
    let mut buf = Vec::new();
    let mut zeros = Vec::new();
    loop {
        let (req_id, len) = match read_frame_polling(&mut stream, shared, &mut frame) {
            Ok(Some(header)) => header,
            // Clean EOF between frames, shutdown, or idle timeout.
            Ok(None) => return Ok(()),
            Err(e) => return Err(e),
        };
        shared
            .traffic
            .bytes_in
            // Relaxed: traffic tally, sampled only by counters().
            .fetch_add((FRAME_OVERHEAD + len) as u64, Ordering::Relaxed);
        let decoded = split_envelope(&frame[..len])
            .and_then(|(ctx, body)| Ok((ctx, Request::decode_lending(body)?)));
        let answer = match decoded {
            // Ship-back drain: everything recorded since the last fetch,
            // in one frame, whatever the envelope says.
            Ok((_, (Request::FetchSpans, _))) => {
                let start = Instant::now();
                let payload = encode_spans(&shared.tracer.drain_export());
                shared.ops.fetch_spans.record_duration(start.elapsed());
                Response::Ok { payload }.into()
            }
            Ok((ctx, (request, tail))) => {
                let hist = shared.ops.for_request(&request);
                // Journal pushes during the op get tagged with the
                // caller's trace.
                let _scope = ScopedCtx::enter(ctx);
                let span = match (ctx, shared.tracer.is_enabled()) {
                    (Some(ctx), true) => {
                        let mut span = shared.tracer.span(op_name(&request), ctx);
                        if let Some(object) = request_object(&request) {
                            span.tag("object", object);
                        }
                        Some(span)
                    }
                    _ => None,
                };
                let start = Instant::now();
                match handle(shared.backend.as_ref(), request, tail, &mut buf, &mut zeros) {
                    Ok(answer) => {
                        hist.record_duration(start.elapsed());
                        if let Some(mut span) = span {
                            if let Answer::Response(Response::Err { message }) = &answer {
                                span.tag("fault", message.clone());
                            }
                            span.finish(&shared.tracer);
                        }
                        answer
                    }
                    // An injected connection drop: die without answering,
                    // exactly as a genuinely aborted connection would.
                    Err(e) => {
                        shared
                            .journal
                            .push(EventKind::Error, format!("connection drop: {e}"));
                        return Err(e);
                    }
                }
            }
            Err(e) => {
                shared
                    .journal
                    .push(EventKind::Error, format!("bad request: {e}"));
                Response::Err {
                    message: format!("bad request: {e}"),
                }
                .into()
            }
        };
        let sent = match answer {
            Answer::Payload(len) => {
                write_frame_parts(&mut stream, req_id, &[&[STATUS_OK], &buf[..len]])?
            }
            Answer::Response(response) => write_frame(&mut stream, req_id, &response.encode())?,
        };
        // Relaxed: traffic tally, sampled only by counters().
        shared.traffic.bytes_out.fetch_add(sent, Ordering::Relaxed);
    }
}

/// Reads one frame, its body into the first `len` bytes of `frame` (grown
/// to fit, never shrunk), and returns `(req_id, len)`. Tolerates read
/// timeouts so the shutdown flag and the idle clock are polled: a
/// slow-but-alive client keeps the connection, but once shutdown begins
/// even a client stalled mid-frame is dropped (otherwise joining the
/// workers could hang forever), and a connection idle *between* frames
/// past `shared.idle_timeout` is closed so an abandoned socket cannot pin
/// a pool worker. Returns `None` on clean EOF at a frame boundary, on
/// shutdown before a frame starts, or on idle timeout.
fn read_frame_polling(
    stream: &mut TcpStream,
    shared: &Shared,
    frame: &mut Vec<u8>,
) -> io::Result<Option<(u64, usize)>> {
    let idle_since = Instant::now();
    let mut header = [0u8; FRAME_OVERHEAD];
    let mut filled = 0usize;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None) // clean EOF between frames
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside a frame header",
                    ))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // SeqCst: shutdown poll on the read-timeout path.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return if filled == 0 {
                        Ok(None)
                    } else {
                        // Shutdown must win even over a client stalled
                        // mid-header, or worker joins would hang forever.
                        Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "server shutting down mid-frame",
                        ))
                    };
                }
                // The idle clock only runs between frames: a connection
                // that has sent part of a header is mid-request and gets
                // the ordinary stall treatment, not the idle reaper.
                if filled == 0 && idle_since.elapsed() >= shared.idle_timeout {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let (req_id, len) = parse_header(&header)?;
    if frame.len() < len {
        frame.resize(len, 0);
    }
    let body = &mut frame[..len];
    let mut filled = 0usize;
    while filled < body.len() {
        match stream.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame body",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // SeqCst: shutdown poll on the body-read timeout path.
                if shared.shutdown.load(Ordering::SeqCst) {
                    // As above: a stalled client must not pin the worker
                    // past shutdown.
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server shutting down mid-frame",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some((req_id, len)))
}

/// Executes one request against the disk; a read lands in `buf`, the
/// connection's read buffer, a write's payload is `tail`, lent from the
/// frame buffer ([`Request::decode_lending`]), and a zero write's payload
/// is the front of `zeros`, the connection's all-zero buffer. `Err` means
/// "kill the connection without answering" — only an injected
/// connection-drop fault produces it.
fn handle(
    disk: &dyn ChunkBackend,
    request: Request,
    tail: &[u8],
    buf: &mut Vec<u8>,
    zeros: &mut Vec<u8>,
) -> io::Result<Answer> {
    match request {
        Request::ReadChunk { object, id, len } => with_object(&object, || {
            let out = window(buf, len)?;
            Ok(match disk.read_chunk_into(&object, id, out)? {
                Ok(()) => Answer::Payload(out.len()),
                Err(status) => status_response(status).into(),
            })
        }),
        Request::ReadRange {
            object,
            id,
            chunk_len,
            offset,
            len,
        } => with_object(&object, || {
            if (offset as u64) + (len as u64) > chunk_len as u64 {
                return Ok(Response::Err {
                    message: format!("range {offset}+{len} exceeds chunk length {chunk_len}"),
                }
                .into());
            }
            let out = window(buf, len)?;
            Ok(
                match disk.read_chunk_range(
                    &object,
                    id,
                    chunk_len as usize,
                    offset as usize,
                    out,
                )? {
                    Ok(()) => Answer::Payload(out.len()),
                    Err(status) => status_response(status).into(),
                },
            )
        }),
        Request::WriteChunk { object, id, .. } => with_object(&object, || {
            disk.write_chunk(&object, id, tail)?;
            Ok(Response::Ok { payload: vec![] }.into())
        }),
        // The same write as a `WriteChunk` of zeros: same file, same
        // checksums, same fsyncs, same `op=write` faults.
        Request::WriteZeros { object, id, len } => with_object(&object, || {
            disk.write_chunk(&object, id, window(zeros, len)?)?;
            Ok(Response::Ok { payload: vec![] }.into())
        }),
        request => respond(disk, request).map(Answer::Response),
    }
}

/// Executes every request but the reads, whose payloads [`handle`] keeps
/// out of the encoded response, and the writes, whose payloads it lends.
fn respond(disk: &dyn ChunkBackend, request: Request) -> io::Result<Response> {
    match request {
        Request::Ping => Ok(Response::Ok {
            payload: encode_ping(disk.is_available()),
        }),
        Request::EnsureObject { object } => with_object(&object, || {
            disk.ensure_object(&object)?;
            Ok(Response::Ok { payload: vec![] })
        }),
        Request::RemoveObject { object } => with_object(&object, || {
            disk.remove_object(&object)?;
            Ok(Response::Ok { payload: vec![] })
        }),
        Request::Verify {
            object,
            id,
            chunk_len,
        } => with_object(&object, || {
            let (status, bytes_read) = disk.verify_chunk(&object, id, chunk_len as usize)?;
            Ok(Response::Ok {
                payload: encode_verify(&status, bytes_read),
            })
        }),
        Request::SweepTmp { min_age } => match disk.sweep_tmp(min_age) {
            Ok(removed) => Ok(Response::Ok {
                payload: encode_sweep(&removed),
            }),
            Err(e) => match connection_drop(&e) {
                Some(drop) => Err(drop),
                None => Ok(Response::Err {
                    message: e.to_string(),
                }),
            },
        },
        Request::ReadChunk { .. }
        | Request::ReadRange { .. }
        | Request::WriteChunk { .. }
        | Request::WriteZeros { .. } => Ok(Response::Err {
            message: "chunk reads and writes are answered by handle".into(),
        }),
        Request::FetchSpans => Ok(Response::Err {
            message: "fetch_spans handled before dispatch".into(),
        }),
    }
}

/// An injected `drop` fault surfaces from the backend as a
/// `ConnectionAborted` I/O error; the server turns it into a real
/// connection kill rather than an error response.
fn connection_drop(e: &StoreError) -> Option<io::Error> {
    match e {
        StoreError::Io { source, .. } if source.kind() == io::ErrorKind::ConnectionAborted => Some(
            io::Error::new(io::ErrorKind::ConnectionAborted, e.to_string()),
        ),
        _ => None,
    }
}

/// The first `len` bytes of one of the connection's buffers, grown to fit
/// (with zeros). Rejects lengths a frame could not carry — the request's
/// length field must never size an allocation unchecked.
fn window(buf: &mut Vec<u8>, len: u32) -> Result<&mut [u8], StoreError> {
    let len = len as usize;
    if len > MAX_FRAME - 16 {
        return Err(StoreError::InvalidConfig {
            reason: format!("a payload of {len} bytes exceeds the frame cap"),
        });
    }
    if buf.len() < len {
        buf.resize(len, 0);
    }
    Ok(&mut buf[..len])
}

/// Validates the object name (the server must never trust a path
/// component off the wire), then runs the op, folding errors into an
/// error response — except an injected connection drop, which becomes a
/// hard `Err` so the caller kills the connection.
fn with_object<T: From<Response>>(
    object: &str,
    op: impl FnOnce() -> Result<T, StoreError>,
) -> io::Result<T> {
    if let Err(e) = validate_object_name(object) {
        return Ok(Response::Err {
            message: e.to_string(),
        }
        .into());
    }
    match op() {
        Ok(answer) => Ok(answer),
        Err(e) => match connection_drop(&e) {
            Some(drop) => Err(drop),
            None => Ok(Response::Err {
                message: e.to_string(),
            }
            .into()),
        },
    }
}

fn status_response(status: ChunkStatus) -> Response {
    match status {
        ChunkStatus::Missing => Response::Missing,
        ChunkStatus::Corrupt { reason } => Response::Corrupt { reason },
        ChunkStatus::Healthy => Response::Ok { payload: vec![] },
    }
}
