//! The daemon: accept loop, worker pool, metrics export, and graceful
//! shutdown.
//!
//! Threading model — three kinds of threads, decoupled by the
//! [`Admission`] queue:
//!
//! * The **accept loop** (one thread) blocks in `accept` and hands
//!   each TCP connection to a detached connection thread, so a new
//!   connection is picked up the moment it arrives and an idle daemon
//!   does no work. Shutdown ([`Server::shutdown`] or the `shutdown`
//!   method) raises a flag and wakes the loop with one throwaway
//!   loopback connection; SIGINT/SIGTERM are polled by
//!   [`Server::join`], off the request path, which then does the same.
//! * **Connection threads** (one per client) parse request lines,
//!   answer admin methods inline (`ping`, `metrics`, `healthz`,
//!   `shutdown`), and submit compute methods to the admission queue —
//!   answering `overloaded` / `shutting_down` immediately when the
//!   queue refuses. One request is in flight per connection; responses
//!   stay in request order.
//! * **Worker threads** (a small fixed pool) pop jobs one at a time and
//!   run each compute under the engine [`Supervisor`] with a
//!   per-request deadline, answering through the job's reply channel.
//!
//! Dedup happens between the worker and the compute: the response
//! payload is keyed by [`Query::key`] in the engine cache's
//! `serve.resp` namespace, so concurrent identical requests
//! single-flight (one compute, N answers) and — with `--cache` — warm
//! restarts answer from disk without recomputing anything.
//!
//! Every queued request takes one path: admission, `worker_loop`,
//! `serve_one`, then the response tail (`respond`): the response-cache
//! lookup under a `dedup` span, the `serialize` span, the latency
//! histograms and access-log line, and the in-flight gauge. One
//! `supervised` helper maps every supervisor outcome to its typed error
//! code.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use subvt_engine::supervisor::{JobError, RetryPolicy, Supervisor};
use subvt_engine::{trace, Lookup};
use subvt_exp::CacheSession;

use crate::accesslog::{AccessEntry, AccessLog};
use crate::admission::{Admission, Job, Rejected};
use crate::observatory::{MethodWindow, Observatory, SloRule, SloStatus, MS_BOUNDS};
use crate::proto::{self, ErrorCode};
use crate::query::{self, Query, TextBlob};
use crate::signal;

/// Cache namespace holding rendered response payloads.
pub const RESPONSE_NS: &str = "serve.resp";

/// Upper bound on one protocol request line (JSON params can be large
/// — `idvg` bias arrays — but not unbounded).
const MAX_PROTO_LINE: usize = 1 << 20;

/// Upper bound on one HTTP request/header line.
const MAX_HTTP_LINE: usize = 8 << 10;

/// Upper bound on the number of HTTP header lines drained.
const MAX_HTTP_HEADERS: usize = 100;

/// Pause after a failed `accept` (e.g. out of file descriptors), so
/// the loop backs off instead of spinning.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// How often [`Server::join`] checks for a shutdown signal.
const SIGNAL_POLL: Duration = Duration::from_millis(20);

/// Server configuration. `Default` is tuned for tests and local use.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads serving computes.
    pub workers: usize,
    /// Admission queue capacity; beyond it requests are rejected
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Per-request compute deadline.
    pub deadline: Duration,
    /// Supervisor attempts per request (1 = quarantine on first
    /// panic).
    pub max_attempts: u32,
    /// Extra wall-clock allowance past `deadline` when draining
    /// workers at shutdown.
    pub drain_grace: Duration,
    /// Persistent response/design cache file (loaded at start, every
    /// fresh result appended to a leased segment, compacted at
    /// shutdown).
    pub cache_path: Option<PathBuf>,
    /// Also honor the process-wide SIGTERM/SIGINT flag (the binary
    /// sets this; in-process tests leave it off).
    pub watch_signals: bool,
    /// Structured JSONL access log (one line per compute-path
    /// request); `None` disables logging.
    pub access_log: Option<PathBuf>,
    /// SLO rules (`--slo method=p99:ms`) tracked by the observatory.
    pub slos: Vec<SloRule>,
    /// Rolling-window length for the latency observatory, seconds.
    pub window_secs: u64,
    /// How long an idle new connection (or a stalled HTTP header
    /// block) may sit before it is timed out — the half-open guard.
    /// Cleared after a connection's first protocol request, so
    /// long-lived idle protocol clients are unaffected.
    pub http_timeout: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 64,
            deadline: Duration::from_secs(30),
            max_attempts: 1,
            drain_grace: Duration::from_secs(2),
            cache_path: None,
            watch_signals: false,
            access_log: None,
            slos: Vec::new(),
            window_secs: 60,
            http_timeout: Duration::from_secs(5),
        }
    }
}

struct Shared {
    admission: Admission,
    supervisor: Supervisor,
    shutdown: AtomicBool,
    /// Where a loopback connect reaches the listener, to wake the
    /// blocking accept loop.
    wake_addr: SocketAddr,
    inflight: AtomicI64,
    deadline: Duration,
    observatory: Observatory,
    access_log: Option<AccessLog>,
    http_timeout: Duration,
}

impl Shared {
    /// Raises the shutdown flag and wakes the accept loop, which is
    /// blocked in `accept`, with a throwaway connection.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    fn shutting_down(&self, watch_signals: bool) -> bool {
        self.shutdown.load(Ordering::SeqCst) || (watch_signals && signal::shutdown_requested())
    }

    fn inflight_delta(&self, delta: i64) {
        let now = self.inflight.fetch_add(delta, Ordering::SeqCst) + delta;
        trace::gauge("serve.inflight", now as f64);
    }

    fn log_access(&self, entry: &AccessEntry<'_>) {
        if let Some(log) = &self.access_log {
            log.write(entry);
        }
    }
}

/// A running daemon. Dropping it without [`Server::join`] leaves
/// threads running; always join (the binary does) or at least
/// [`Server::shutdown`] first.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    cache: Mutex<Option<CacheSession>>,
    drain_grace: Duration,
    watch_signals: bool,
}

impl Server {
    /// Binds, loads the persistent cache (if configured), and spawns
    /// the accept loop and worker pool. Returns once the socket is
    /// listening.
    ///
    /// # Errors
    ///
    /// I/O errors from the bind or from opening the cache file.
    pub fn start(config: Config) -> std::io::Result<Server> {
        let cache = config
            .cache_path
            .as_deref()
            .map(CacheSession::open)
            .transpose()?;
        let access_log = match &config.access_log {
            Some(path) => Some(AccessLog::open(path)?),
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }

        let shared = Arc::new(Shared {
            admission: Admission::new(config.queue_capacity),
            supervisor: Supervisor::new(RetryPolicy {
                max_attempts: config.max_attempts,
                deadline: Some(config.deadline),
            }),
            shutdown: AtomicBool::new(false),
            wake_addr,
            inflight: AtomicI64::new(0),
            deadline: config.deadline,
            observatory: Observatory::new(config.window_secs, config.slos.clone()),
            access_log,
            http_timeout: config.http_timeout,
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
            cache: Mutex::new(cache),
            drain_grace: config.drain_grace,
            watch_signals: config.watch_signals,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown: stop accepting, reject queued and
    /// new work with `shutting_down`, drain in-flight computes.
    /// Returns immediately; [`Server::join`] completes the drain.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the server exits (signal, `shutdown` method, or
    /// [`Server::shutdown`]), drains the workers bounded by
    /// `deadline + drain_grace`, then closes the persistent cache
    /// session (compacting it unless another process holds the
    /// compaction lease).
    ///
    /// # Errors
    ///
    /// I/O errors from the final compaction.
    pub fn join(mut self) -> std::io::Result<()> {
        if let Some(accept) = self.accept.take() {
            // The accept loop blocks in `accept`; a signal only sets a
            // flag, so turn it into a wake-up from here. Re-waking
            // while the loop is still running is harmless.
            while !accept.is_finished() {
                if self.shared.shutting_down(self.watch_signals) {
                    self.shared.request_shutdown();
                }
                std::thread::sleep(SIGNAL_POLL);
            }
            let _ = accept.join();
        }
        // In-flight computes are bounded by the supervisor deadline;
        // wait that long plus the grace, then abandon stragglers (the
        // executor's catch_unwind keeps them from taking the process
        // down with us).
        let patience = self.shared.deadline + self.drain_grace;
        let waited = Instant::now();
        for worker in self.workers.drain(..) {
            loop {
                if worker.is_finished() {
                    let _ = worker.join();
                    break;
                }
                if waited.elapsed() > patience {
                    trace::add("serve.drain.abandoned", 1);
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        trace::gauge("serve.inflight", 0.0);
        let session = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(session) = session {
            session.close()?;
        }
        Ok(())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_owned())
                    .spawn(move || {
                        let _ = handle_conn(&shared, stream);
                    });
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
    // Typed rejection for everything admitted but not yet started —
    // the drain bound stays `deadline`, not `queue × deadline`.
    for job in shared.admission.close() {
        trace::add("serve.rejected.shutdown", 1);
        shared.log_access(&AccessEntry {
            trace_id: &job.trace_id,
            id: &job.id,
            method: job.query.method(),
            outcome: ErrorCode::ShuttingDown.as_str(),
            cached: None,
            span: job.request_span,
            phases: &[],
            total_us: job.admitted.elapsed().as_micros() as u64,
        });
        let _ = job.reply.send(proto::error_line(
            &job.id,
            ErrorCode::ShuttingDown,
            "server is shutting down; request was not started",
        ));
    }
}

/// Outcome of one bounded line read.
enum BoundedLine {
    /// A complete line (terminator included when present).
    Line(String),
    /// Clean end of stream with nothing buffered.
    Eof,
    /// The line outgrew the cap; carries the first bytes for protocol
    /// sniffing. The connection must be closed — the rest of the line
    /// is unread.
    TooLong(String),
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `cap` bytes — the guard against a client streaming an unbounded
/// "line". A read timeout set on the socket surfaces as `Err`.
fn read_line_bounded(reader: &mut impl BufRead, cap: usize) -> std::io::Result<BoundedLine> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                BoundedLine::Eof
            } else {
                BoundedLine::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = match newline {
            Some(pos) => pos + 1,
            None => chunk.len(),
        };
        if buf.len() + take > cap {
            let keep = chunk[..take.min(64)].to_vec();
            reader.consume(take);
            buf.extend_from_slice(&keep);
            let head = &buf[..buf.len().min(64)];
            return Ok(BoundedLine::TooLong(
                String::from_utf8_lossy(head).into_owned(),
            ));
        }
        buf.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if newline.is_some() {
            return Ok(BoundedLine::Line(
                String::from_utf8_lossy(&buf).into_owned(),
            ));
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The HTTP verb opening `line`, if any — used to discriminate HTTP
/// requests from protocol JSON (which always starts with `{`).
fn http_verb(line: &str) -> Option<&'static str> {
    const VERBS: [&str; 9] = [
        "GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH", "TRACE", "CONNECT",
    ];
    VERBS.into_iter().find(|verb| {
        line.strip_prefix(verb)
            .is_some_and(|rest| rest.starts_with(' '))
    })
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    // Half-open guard: the first request (and any HTTP header block)
    // must arrive within the timeout; cleared once the connection
    // proves to be a protocol client.
    stream.set_read_timeout(Some(shared.http_timeout)).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut first = true;
    loop {
        let line = match read_line_bounded(&mut reader, MAX_PROTO_LINE) {
            Ok(BoundedLine::Line(line)) => line,
            Ok(BoundedLine::Eof) => return Ok(()), // client closed
            Ok(BoundedLine::TooLong(head)) => {
                trace::add("serve.errors.bad_request", 1);
                if http_verb(&head).is_some() {
                    return http_respond(
                        &mut writer,
                        "431 Request Header Fields Too Large",
                        &[],
                        "request line too long\n",
                        false,
                    );
                }
                let response = proto::error_line(
                    "",
                    ErrorCode::BadRequest,
                    &format!("request line exceeds {MAX_PROTO_LINE} bytes"),
                );
                writer.write_all(response.as_bytes())?;
                writer.write_all(b"\n")?;
                return writer.flush();
            }
            Err(e) if is_timeout(&e) => {
                // Half-open or stalled client: close instead of
                // holding the connection thread forever.
                trace::add("serve.conn.timeouts", 1);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if let Some(verb) = http_verb(&line) {
            return handle_http(shared, &mut reader, &mut writer, &line, verb);
        }
        if line.trim().is_empty() {
            continue;
        }
        if first {
            // A real protocol client; idle gaps between requests are
            // its business.
            writer.set_read_timeout(None).ok();
            first = false;
        }
        let response = handle_line(shared, &line);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
}

/// Serves one JSON request line to one response line (inline admin
/// methods; queued compute methods).
fn handle_line(shared: &Arc<Shared>, line: &str) -> String {
    let req = match proto::parse_request(line) {
        Ok(req) => req,
        Err(msg) => {
            trace::add("serve.errors.bad_request", 1);
            return proto::error_line("", ErrorCode::BadRequest, &msg);
        }
    };
    match req.method.as_str() {
        // Admin methods answer inline: they must work under overload
        // and during drain, so they never touch the queue.
        "ping" => proto::ok_line(&req.id, None, "{\"pong\":true}"),
        "healthz" => proto::ok_line(&req.id, None, "{\"status\":\"ok\"}"),
        "metrics" => proto::ok_line(&req.id, None, &metrics_json()),
        "shutdown" => {
            shared.request_shutdown();
            signal::request_shutdown();
            proto::ok_line(&req.id, None, "{\"shutting_down\":true}")
        }
        method => {
            // The per-request span stays open on this thread until the
            // response is in hand, so its duration covers the whole
            // server-side pipeline; worker threads hang the phase
            // spans under it via the id carried in the job. When the
            // request carries wire trace context, the client's span id
            // is recorded as the `client_span` attribute (NOT as the
            // local parent — each per-process trace must stay valid on
            // its own) for `repro trace-stitch` to re-link.
            let started = Instant::now();
            let mut span = trace::span("serve.request");
            span.set_attr("method", method);
            let trace_id = match &req.trace {
                Some(ctx) => {
                    span.set_attr("client_span", ctx.parent);
                    ctx.id.clone()
                }
                None => format!("srv-{:x}", span.id()),
            };
            span.set_attr("trace_id", trace_id.as_str());
            let request_span = span.id();

            // Rejections short-circuit here: logged and measured, with
            // the request span already in the trace so the access-log
            // line still resolves to a span tree.
            let reject = |code: ErrorCode, msg: &str| {
                shared.log_access(&AccessEntry {
                    trace_id: &trace_id,
                    id: &req.id,
                    method,
                    outcome: code.as_str(),
                    cached: None,
                    span: request_span,
                    phases: &[],
                    total_us: started.elapsed().as_micros() as u64,
                });
                shared
                    .observatory
                    .record(method, started.elapsed().as_secs_f64() * 1e3);
                proto::error_line(&req.id, code, msg)
            };

            let query = match Query::from_request(method, &req.params) {
                Ok(q) => q,
                Err((code, msg)) => {
                    trace::add(&format!("serve.errors.{}", code.as_str()), 1);
                    return reject(code, &msg);
                }
            };
            let (reply, rx) = mpsc::channel();
            let job = Job {
                id: req.id.clone(),
                query,
                reply,
                admitted: Instant::now(),
                trace_id: trace_id.clone(),
                request_span,
            };
            let submitted = {
                let _admission = trace::span("admission");
                shared.admission.submit(job)
            };
            match submitted {
                Ok(()) => match rx.recv() {
                    Ok(response) => response,
                    Err(_) => reject(
                        ErrorCode::ShuttingDown,
                        "server shut down before the request completed",
                    ),
                },
                Err(Rejected::Full(_)) => {
                    trace::add("serve.rejected.overload", 1);
                    reject(
                        ErrorCode::Overloaded,
                        "admission queue is full; retry later",
                    )
                }
                Err(Rejected::Closed(_)) => {
                    trace::add("serve.rejected.shutdown", 1);
                    reject(
                        ErrorCode::ShuttingDown,
                        "server is shutting down; no new work admitted",
                    )
                }
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.admission.pop() {
        serve_one(shared, job);
    }
}

/// The typed protocol error a request answers with.
type Failure = (ErrorCode, String);

/// Runs `f` under the supervisor with the request deadline, mapping
/// every failure to its typed protocol error.
fn supervised<T, F>(shared: &Shared, key: u64, name: &str, f: F) -> Result<T, Failure>
where
    T: Send + 'static,
    F: Fn() -> Result<T, String> + Send + Sync + Clone + 'static,
{
    match shared.supervisor.run(subvt_engine::global(), key, name, f) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(msg)) => Err((ErrorCode::ComputeFailed, msg)),
        Err(JobError::Panicked { message, attempts }) => Err((
            ErrorCode::ComputePanicked,
            format!("compute panicked ({attempts} attempts): {message}"),
        )),
        Err(JobError::DeadlineExceeded { deadline, .. }) => Err((
            ErrorCode::DeadlineExceeded,
            format!("compute exceeded its {deadline:?} deadline"),
        )),
        Err(JobError::Quarantined) => Err((
            ErrorCode::Quarantined,
            "request key is quarantined by an earlier failure".to_owned(),
        )),
    }
}

fn count_lookup(outcome: Lookup) -> &'static str {
    match outcome {
        Lookup::Hit => {
            trace::add("serve.dedup.hits", 1);
            "hit"
        }
        Lookup::Coalesced => {
            trace::add("serve.dedup.coalesced", 1);
            "coalesced"
        }
        Lookup::Computed => {
            trace::add("serve.computed", 1);
            "computed"
        }
    }
}

/// The response tail of every job. Under the job's request span it
/// looks the response up in the `serve.resp` cache (a `dedup` span;
/// `payload` gets the job's key, computed once here, and runs only on a
/// miss, and always for uncacheable queries), renders the line in a
/// `serialize` span, records the latency histograms, the rolling-window
/// observatory sample and the access-log line, answers the connection
/// thread, and takes the job off the in-flight gauge. `started` is when
/// the worker took the job; the access log's `compute_us` is the time
/// `payload` ran (0 on a hit).
fn respond(
    shared: &Shared,
    job: &Job,
    started: Instant,
    payload: impl FnOnce(u64) -> Result<String, Failure>,
) {
    // Re-root this thread's span stack at the request span the
    // connection thread opened, so the phase spans (and the executor
    // jobs a compute fans into) hang under it.
    let _ctx = trace::task_context((job.request_span != 0).then_some(job.request_span));
    let key = job.query.key();
    let mut compute_us = 0;
    let timed = |key| {
        let compute_started = Instant::now();
        let result = payload(key);
        compute_us = compute_started.elapsed().as_micros() as u64;
        result
    };
    let (result, cached) = if job.query.cacheable() {
        let _dedup = trace::span("dedup");
        let (result, outcome) =
            subvt_engine::global_cache()
                .try_get_or_compute_outcome(RESPONSE_NS, key, || timed(key).map(TextBlob));
        match result {
            Ok(TextBlob(payload)) => (Ok(payload), Some(count_lookup(outcome))),
            Err(e) => (Err(e), None),
        }
    } else {
        (timed(key), None)
    };

    let serialize_started = Instant::now();
    let (line, outcome) = {
        let _serialize = trace::span("serialize");
        match result {
            Ok(payload) => (proto::ok_line(&job.id, cached, &payload), "ok"),
            Err((code, msg)) => {
                trace::add(&format!("serve.errors.{}", code.as_str()), 1);
                (proto::error_line(&job.id, code, &msg), code.as_str())
            }
        }
    };
    let serialize_us = serialize_started.elapsed().as_micros() as u64;

    let method = job.query.method();
    let total = job.admitted.elapsed();
    trace::observe_with(
        &format!("serve.latency.{method}"),
        started.elapsed().as_secs_f64() * 1e3,
        &MS_BOUNDS,
    );
    trace::observe_with(
        "serve.queue.wait_ms",
        (started - job.admitted).as_secs_f64() * 1e3,
        &MS_BOUNDS,
    );
    shared.observatory.record(method, total.as_secs_f64() * 1e3);
    shared.log_access(&AccessEntry {
        trace_id: &job.trace_id,
        id: &job.id,
        method,
        outcome,
        cached,
        span: job.request_span,
        phases: &[
            ("queue_us", (started - job.admitted).as_micros() as u64),
            ("compute_us", compute_us),
            ("serialize_us", serialize_us),
        ],
        total_us: total.as_micros() as u64,
    });
    let _ = job.reply.send(line);
    shared.inflight_delta(-1);
}

fn serve_one(shared: &Arc<Shared>, job: Job) {
    let started = Instant::now();
    trace::add(&format!("serve.req.{}", job.query.method()), 1);
    shared.inflight_delta(1);
    respond(shared, &job, started, |key| {
        let _compute = trace::span("compute");
        let body = job.query.clone();
        supervised(shared, key, job.query.method(), move || {
            query::compute(&body)
        })
    });
}

/// JSON metrics payload for the `metrics` protocol method: counters
/// and gauges only (histograms live in `/metrics`).
fn metrics_json() -> String {
    let snap = trace::global().flushed_metrics();
    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{value}", proto::json_str(name)));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}:{}",
            proto::json_str(name),
            proto::fmt_f64(*value)
        ));
    }
    out.push_str("}}");
    out
}

/// Escapes a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the three escapes the text exposition format defines).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value for the text exposition (`NaN`/`+Inf`/`-Inf`
/// spellings are part of the format).
fn fmt_sample(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// Appends one counter or gauge family: `# HELP` and `# TYPE` once,
/// then a `name{labels} value` line per `(labels, value)` row. A family
/// without rows is left out.
fn push_family(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    rows: impl IntoIterator<Item = (String, String)>,
) {
    let mut rows = rows.into_iter().peekable();
    if rows.peek().is_none() {
        return;
    }
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, value) in rows {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Plain-text exposition for `GET /metrics`, Prometheus-conformant:
/// `# HELP`/`# TYPE` once per family, escaped label values, histogram
/// families as cumulative `_bucket{le=...}`/`_sum`/`_count`, and a
/// trailing newline. Counters and gauges keep the grep-stable
/// `subvt_counter{name="..."}`/`subvt_gauge{name="..."}` shape the CI
/// smoke jobs assert on; rolling-window quantiles and SLO status come
/// from the [`Observatory`].
fn metrics_text(shared: &Shared) -> String {
    let snap = trace::global().flushed_metrics();
    let mut out = String::new();
    let named = |name: &str| format!("name=\"{}\"", escape_label(name));
    push_family(
        &mut out,
        "subvt_counter",
        "Monotonic event counters from the trace registry.",
        "counter",
        snap.counters
            .iter()
            .map(|(name, value)| (named(name), value.to_string())),
    );
    push_family(
        &mut out,
        "subvt_gauge",
        "Last-write-wins gauges from the trace registry.",
        "gauge",
        snap.gauges
            .iter()
            .map(|(name, value)| (named(name), fmt_sample(*value))),
    );
    if !snap.hists.is_empty() {
        out.push_str("# HELP subvt_hist Lifetime value distributions (fixed buckets).\n");
        out.push_str("# TYPE subvt_hist histogram\n");
        for (name, hist) in &snap.hists {
            let name = escape_label(name);
            let mut cumulative = 0u64;
            for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
                cumulative += count;
                out.push_str(&format!(
                    "subvt_hist_bucket{{name=\"{name}\",le=\"{}\"}} {cumulative}\n",
                    fmt_sample(*bound)
                ));
            }
            out.push_str(&format!(
                "subvt_hist_bucket{{name=\"{name}\",le=\"+Inf\"}} {}\n",
                hist.count
            ));
            out.push_str(&format!(
                "subvt_hist_sum{{name=\"{name}\"}} {}\n",
                fmt_sample(hist.sum)
            ));
            out.push_str(&format!(
                "subvt_hist_count{{name=\"{name}\"}} {}\n",
                hist.count
            ));
        }
    }

    let obs = shared.observatory.snapshot();
    let window = obs.window_secs;
    let method = |m: &MethodWindow| format!("method=\"{}\"", escape_label(&m.method));
    push_family(
        &mut out,
        "subvt_rolling_ms",
        &format!("Latency quantiles over the last {window} s, milliseconds."),
        "gauge",
        obs.methods.iter().flat_map(|m| {
            [("p50", m.p50), ("p95", m.p95), ("p99", m.p99)].map(|(quantile, v)| {
                let labels = format!(
                    "{},quantile=\"{quantile}\",window_s=\"{window}\"",
                    method(m)
                );
                (labels, fmt_sample(v))
            })
        }),
    );
    push_family(
        &mut out,
        "subvt_rolling_count",
        "Requests inside the rolling window.",
        "gauge",
        obs.methods.iter().map(|m| {
            let labels = format!("{},window_s=\"{window}\"", method(m));
            (labels, m.count.to_string())
        }),
    );
    let slo_rows = |value: fn(&SloStatus) -> String| {
        obs.slos.iter().map(move |s| {
            let labels = format!(
                "method=\"{}\",quantile=\"{}\"",
                escape_label(&s.rule.method),
                s.rule.quantile.as_str()
            );
            (labels, value(s))
        })
    };
    push_family(
        &mut out,
        "subvt_slo_target_ms",
        "Configured SLO latency threshold.",
        "gauge",
        slo_rows(|s| fmt_sample(s.rule.threshold_ms)),
    );
    push_family(
        &mut out,
        "subvt_slo_current_ms",
        "The constrained quantile's rolling value.",
        "gauge",
        slo_rows(|s| fmt_sample(s.current_ms)),
    );
    push_family(
        &mut out,
        "subvt_slo_breach_total",
        "Requests ever over their SLO threshold.",
        "counter",
        slo_rows(|s| s.breach_total.to_string()),
    );
    push_family(
        &mut out,
        "subvt_slo_burn_rate",
        "Error-budget burn over the window (1.0 = at budget).",
        "gauge",
        slo_rows(|s| fmt_sample(s.burn_rate)),
    );
    if out.is_empty() {
        out.push('\n');
    }
    out
}

/// Writes one HTTP/1.1 response and closes the exchange.
fn http_respond(
    writer: &mut TcpStream,
    status: &str,
    extra_headers: &[&str],
    body: &str,
    head_only: bool,
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for header in extra_headers {
        write!(writer, "{header}\r\n")?;
    }
    write!(writer, "\r\n")?;
    if !head_only {
        writer.write_all(body.as_bytes())?;
    }
    writer.flush()
}

/// Minimal HTTP/1.1 responder: `GET|HEAD /metrics` and `/healthz`,
/// with typed errors for everything else — 405 on other verbs, 404 on
/// unknown paths, 408 when the header block stalls past the timeout,
/// 431 on oversized request/header lines, never a hang.
fn handle_http(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request_line: &str,
    verb: &str,
) -> std::io::Result<()> {
    if request_line.len() > MAX_HTTP_LINE {
        return http_respond(
            writer,
            "431 Request Header Fields Too Large",
            &[],
            "request line too long\n",
            false,
        );
    }
    // Drain the header block (nothing in it is needed), bounded in
    // line length, header count, and wall time.
    let mut complete = false;
    for _ in 0..MAX_HTTP_HEADERS {
        match read_line_bounded(reader, MAX_HTTP_LINE) {
            Ok(BoundedLine::Line(header)) => {
                if header.trim().is_empty() {
                    complete = true;
                    break;
                }
            }
            Ok(BoundedLine::Eof) => {
                return http_respond(
                    writer,
                    "400 Bad Request",
                    &[],
                    "incomplete request\n",
                    false,
                )
            }
            Ok(BoundedLine::TooLong(_)) => {
                return http_respond(
                    writer,
                    "431 Request Header Fields Too Large",
                    &[],
                    "header line too long\n",
                    false,
                )
            }
            Err(e) if is_timeout(&e) => {
                trace::add("serve.conn.timeouts", 1);
                return http_respond(
                    writer,
                    "408 Request Timeout",
                    &[],
                    "timed out reading headers\n",
                    false,
                );
            }
            Err(e) => return Err(e),
        }
    }
    if !complete {
        return http_respond(
            writer,
            "431 Request Header Fields Too Large",
            &[],
            "too many headers\n",
            false,
        );
    }
    if verb != "GET" && verb != "HEAD" {
        trace::add("serve.http.rejected", 1);
        return http_respond(
            writer,
            "405 Method Not Allowed",
            &["Allow: GET, HEAD"],
            "method not allowed\n",
            false,
        );
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = match path {
        "/healthz" => ("200 OK", "ok\n".to_owned()),
        "/metrics" => ("200 OK", metrics_text(shared)),
        _ => ("404 Not Found", "not found\n".to_owned()),
    };
    http_respond(writer, status, &[], &body, verb == "HEAD")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(slos: Vec<SloRule>) -> Shared {
        Shared {
            admission: Admission::new(4),
            supervisor: Supervisor::new(RetryPolicy {
                max_attempts: 1,
                deadline: None,
            }),
            shutdown: AtomicBool::new(false),
            wake_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            inflight: AtomicI64::new(0),
            deadline: Duration::from_secs(1),
            observatory: Observatory::new(30, slos),
            access_log: None,
            http_timeout: Duration::from_secs(5),
        }
    }

    #[test]
    fn label_values_escape_per_exposition_format() {
        assert_eq!(escape_label(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label("x\ny"), "x\\ny");
        assert_eq!(fmt_sample(f64::NAN), "NaN");
        assert_eq!(fmt_sample(f64::INFINITY), "+Inf");
        assert_eq!(fmt_sample(1.5), "1.5");
    }

    /// The conformance contract for the satellite task: HELP/TYPE once
    /// per family, every sample line shaped `name{labels} value`,
    /// cumulative buckets ending at `+Inf` == `_count`, and a trailing
    /// newline.
    #[test]
    fn metrics_exposition_is_conformant() {
        let shared = test_shared(vec![SloRule::parse("vtc=p99:10").unwrap()]);
        trace::add("serve.test.conformance", 2);
        trace::gauge("serve.test.depth", 3.0);
        trace::observe_with("serve.test.latency", 4.2, &MS_BOUNDS);
        shared.observatory.record("vtc", 1.0);
        shared.observatory.record("vtc", 50.0);
        let text = metrics_text(&shared);

        assert!(text.ends_with('\n'), "missing trailing newline");
        let mut seen_type: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split(' ').next().unwrap();
                assert!(!seen_type.contains(&family), "duplicate TYPE for {family}");
                seen_type.push(family);
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            // name{label="v",...} value
            let (name_labels, value) = line.rsplit_once(' ').expect(line);
            assert!(
                name_labels.ends_with('}') && name_labels.contains('{'),
                "bad sample shape: {line}"
            );
            assert!(
                value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
                "bad sample value: {line}"
            );
        }
        for family in [
            "subvt_counter",
            "subvt_gauge",
            "subvt_hist",
            "subvt_rolling_ms",
            "subvt_slo_burn_rate",
        ] {
            assert!(seen_type.contains(&family), "missing TYPE for {family}");
        }

        // Histogram family: cumulative, +Inf bucket equals _count.
        let hist_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("subvt_hist_bucket{name=\"serve.test.latency\""))
            .collect();
        assert_eq!(hist_lines.len(), MS_BOUNDS.len() + 1);
        let mut prev = 0u64;
        for line in &hist_lines {
            let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= prev, "buckets must be cumulative: {line}");
            prev = v;
        }
        assert!(hist_lines.last().unwrap().contains("le=\"+Inf\""));
        let count_line = text
            .lines()
            .find(|l| l.starts_with("subvt_hist_count{name=\"serve.test.latency\""))
            .unwrap();
        assert_eq!(count_line.rsplit_once(' ').unwrap().1, prev.to_string());

        // The grep contracts the CI smoke jobs rely on.
        assert!(text.contains("subvt_counter{name=\"serve.test.conformance\"} 2"));
        assert!(text.contains("subvt_gauge{name=\"serve.test.depth\"} 3"));
        // Observatory families.
        assert!(text.contains("subvt_rolling_ms{method=\"vtc\",quantile=\"p99\",window_s=\"30\"}"));
        assert!(text.contains("subvt_slo_target_ms{method=\"vtc\",quantile=\"p99\"} 10"));
        assert!(text.contains("subvt_slo_breach_total{method=\"vtc\",quantile=\"p99\"} 1"));
    }

    /// The observatory section of `/metrics` (everything from the first
    /// `subvt_rolling_ms` line on), byte for byte, for fixed rules and
    /// samples.
    #[test]
    fn observatory_families_render_these_bytes() {
        let shared = test_shared(vec![
            SloRule::parse("vtc=p99:10").unwrap(),
            SloRule::parse("fo1=p50:2.5").unwrap(),
        ]);
        for (method, ms) in [
            ("vtc", 1.0),
            ("vtc", 50.0),
            ("fo1", 0.5),
            ("fo1", 3.25),
            ("idvg", 0.2),
            ("a\"b", 0.1),
        ] {
            shared.observatory.record(method, ms);
        }
        let text = metrics_text(&shared);
        let section = &text[text
            .find("# HELP subvt_rolling_ms")
            .expect("rolling family")..];
        assert_eq!(
            section,
            concat!(
                "# HELP subvt_rolling_ms Latency quantiles over the last 30 s, milliseconds.\n",
                "# TYPE subvt_rolling_ms gauge\n",
                "subvt_rolling_ms{method=\"a\\\"b\",quantile=\"p50\",window_s=\"30\"} 0.1\n",
                "subvt_rolling_ms{method=\"a\\\"b\",quantile=\"p95\",window_s=\"30\"} 0.1\n",
                "subvt_rolling_ms{method=\"a\\\"b\",quantile=\"p99\",window_s=\"30\"} 0.1\n",
                "subvt_rolling_ms{method=\"fo1\",quantile=\"p50\",window_s=\"30\"} 0.5\n",
                "subvt_rolling_ms{method=\"fo1\",quantile=\"p95\",window_s=\"30\"} 3.25\n",
                "subvt_rolling_ms{method=\"fo1\",quantile=\"p99\",window_s=\"30\"} 3.25\n",
                "subvt_rolling_ms{method=\"idvg\",quantile=\"p50\",window_s=\"30\"} 0.2\n",
                "subvt_rolling_ms{method=\"idvg\",quantile=\"p95\",window_s=\"30\"} 0.2\n",
                "subvt_rolling_ms{method=\"idvg\",quantile=\"p99\",window_s=\"30\"} 0.2\n",
                "subvt_rolling_ms{method=\"vtc\",quantile=\"p50\",window_s=\"30\"} 1\n",
                "subvt_rolling_ms{method=\"vtc\",quantile=\"p95\",window_s=\"30\"} 50\n",
                "subvt_rolling_ms{method=\"vtc\",quantile=\"p99\",window_s=\"30\"} 50\n",
                "# HELP subvt_rolling_count Requests inside the rolling window.\n",
                "# TYPE subvt_rolling_count gauge\n",
                "subvt_rolling_count{method=\"a\\\"b\",window_s=\"30\"} 1\n",
                "subvt_rolling_count{method=\"fo1\",window_s=\"30\"} 2\n",
                "subvt_rolling_count{method=\"idvg\",window_s=\"30\"} 1\n",
                "subvt_rolling_count{method=\"vtc\",window_s=\"30\"} 2\n",
                "# HELP subvt_slo_target_ms Configured SLO latency threshold.\n",
                "# TYPE subvt_slo_target_ms gauge\n",
                "subvt_slo_target_ms{method=\"vtc\",quantile=\"p99\"} 10\n",
                "subvt_slo_target_ms{method=\"fo1\",quantile=\"p50\"} 2.5\n",
                "# HELP subvt_slo_current_ms The constrained quantile's rolling value.\n",
                "# TYPE subvt_slo_current_ms gauge\n",
                "subvt_slo_current_ms{method=\"vtc\",quantile=\"p99\"} 50\n",
                "subvt_slo_current_ms{method=\"fo1\",quantile=\"p50\"} 0.5\n",
                "# HELP subvt_slo_breach_total Requests ever over their SLO threshold.\n",
                "# TYPE subvt_slo_breach_total counter\n",
                "subvt_slo_breach_total{method=\"vtc\",quantile=\"p99\"} 1\n",
                "subvt_slo_breach_total{method=\"fo1\",quantile=\"p50\"} 1\n",
                "# HELP subvt_slo_burn_rate Error-budget burn over the window (1.0 = at budget).\n",
                "# TYPE subvt_slo_burn_rate gauge\n",
                "subvt_slo_burn_rate{method=\"vtc\",quantile=\"p99\"} 49.99999999999996\n",
                "subvt_slo_burn_rate{method=\"fo1\",quantile=\"p50\"} 1\n",
            )
        );
    }

    #[test]
    fn bounded_reads_cap_runaway_lines() {
        let data = [b'x'; 200];
        let mut reader = std::io::BufReader::new(&data[..]);
        match read_line_bounded(&mut reader, 100) {
            Ok(BoundedLine::TooLong(head)) => assert!(head.starts_with("xx")),
            other => panic!(
                "expected TooLong, got {:?}",
                std::mem::discriminant(&other.unwrap())
            ),
        }
        let mut reader = std::io::BufReader::new(&b"abc\ndef"[..]);
        match read_line_bounded(&mut reader, 100) {
            Ok(BoundedLine::Line(l)) => assert_eq!(l, "abc\n"),
            _ => panic!("expected Line"),
        }
        match read_line_bounded(&mut reader, 100) {
            Ok(BoundedLine::Line(l)) => assert_eq!(l, "def"),
            _ => panic!("expected unterminated tail as Line"),
        }
        match read_line_bounded(&mut reader, 100) {
            Ok(BoundedLine::Eof) => {}
            _ => panic!("expected Eof"),
        }
        assert_eq!(http_verb("GET /metrics HTTP/1.1"), Some("GET"));
        assert_eq!(http_verb("POST / HTTP/1.1"), Some("POST"));
        assert_eq!(http_verb("{\"id\":\"x\"}"), None);
        assert_eq!(http_verb("GETX /"), None);
    }
}
