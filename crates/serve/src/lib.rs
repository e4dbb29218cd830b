//! `asteria-serve` — the online similarity-query server.
//!
//! A long-running daemon that loads the model and the search index
//! **once** (into an [`SearchSession`]) and then answers a stream of
//! queries over a line-delimited JSON protocol — the deployment shape of
//! real BCSD services, where per-query process startup (model restore +
//! index build) would dwarf the query itself.
//!
//! Std-only by design, like `asteria-obs`: the protocol ([`proto`]),
//! its JSON support ([`json`]), the bounded backpressure queue, and the
//! SIGINT/SIGTERM shim ([`signal`]) are all in this crate.
//!
//! # Architecture
//!
//! ```text
//! TCP clients ──► per-conn reader ──try_push──► BoundedQueue ──► batcher × W ──► SearchSession::query_batch
//!                     │                  (full → overloaded)          │
//!                     └◄── per-conn writer ◄── mpsc<String> ◄─────────┘
//! ```
//!
//! - **Batching**: one batcher thread per session worker (W, the
//!   session's resolved thread count) pops from the one queue. A batcher
//!   blocks for the first request, takes whatever else is already queued
//!   up to [`ServeConfig::batch_size`] without waiting for more, and
//!   answers the batch serially with one [`SearchSession::query_batch`]
//!   call (which deduplicates identical in-flight queries — the
//!   hot-query win). Concurrent requests are answered in parallel by
//!   different batchers.
//! - **Backpressure**: the queue is bounded; a full queue yields an
//!   immediate typed `overloaded` error instead of unbounded growth.
//! - **Panic isolation**: a panic while a batch is answered fails that
//!   batch alone, with a typed `internal` error per request; its batcher
//!   keeps serving.
//! - **Deadlines**: each request may carry `deadline_ms`; requests whose
//!   deadline passed while queued get `deadline_exceeded` instead of
//!   burning encode time.
//! - **Graceful shutdown**: SIGTERM/ctrl-c (or the `shutdown` op, or
//!   stdio EOF) stops intake, drains every accepted request, flushes
//!   every response, then returns — zero lost responses.
//! - **Determinism**: responses are bit-identical to direct
//!   [`SearchSession`] calls; scores travel as shortest-roundtrip JSON
//!   numbers, so parsing them back yields the exact bits.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod proto;
mod queue;
pub mod signal;

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asteria_vulnsearch::{FunctionQuery, SearchSession};

use json::Json;
use proto::{ErrorKind, ParseFailure, Request};
use queue::{BoundedQueue, PushError};

/// Histogram buckets for the per-batch size distribution.
const BATCH_SIZE_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// How often blocked reads, and the TCP server's signal watcher, wake up
/// to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server tunables. `Default` gives the production settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum queries one batcher answers with one `query_batch` call.
    pub batch_size: usize,
    /// Bound of the request queue — the backpressure point.
    pub queue_capacity: usize,
    /// Default relative deadline (ms) for requests that carry none;
    /// `0` means no default deadline.
    pub default_deadline_ms: u64,
    /// Maximum accepted request-line length in bytes; longer lines get a
    /// typed `oversized` error and are discarded without buffering.
    pub max_request_bytes: usize,
    /// Artificial processing delay per batch (ms) — a test/bench knob
    /// that makes queue saturation and drain behavior reproducible.
    /// Always `0` in production use.
    pub process_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            batch_size: 16,
            queue_capacity: 256,
            default_deadline_ms: 0,
            max_request_bytes: 1 << 20,
            process_delay_ms: 0,
        }
    }
}

/// Final tallies of a server's lifetime, by response outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Successful query responses.
    pub ok: u64,
    /// Typed `query` errors (the query source failed to encode).
    pub query_errors: u64,
    /// Malformed request lines.
    pub malformed: u64,
    /// Request lines over `max_request_bytes`.
    pub oversized: u64,
    /// Requests rejected by backpressure.
    pub overloaded: u64,
    /// Requests whose deadline passed while queued.
    pub deadline_exceeded: u64,
    /// Requests rejected because the server was draining.
    pub shutting_down: u64,
    /// Requests answered with a typed `internal` error because their
    /// batch panicked.
    pub internal: u64,
}

impl ServeStats {
    /// Total responses sent (every accepted request gets exactly one).
    pub fn total(&self) -> u64 {
        self.ok
            + self.query_errors
            + self.malformed
            + self.oversized
            + self.overloaded
            + self.deadline_exceeded
            + self.shutting_down
            + self.internal
    }
}

/// What a response reports: one per response line, each the `outcome`
/// label of `asteria_serve_requests_total` and one [`ServeStats`] field.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Ok,
    Query,
    Malformed,
    Oversized,
    Overloaded,
    DeadlineExceeded,
    ShuttingDown,
    Internal,
}

impl Outcome {
    /// The `outcome` label on the serve metrics.
    fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Query => "query",
            Outcome::Malformed => "malformed",
            Outcome::Oversized => "oversized",
            Outcome::Overloaded => "overloaded",
            Outcome::DeadlineExceeded => "deadline_exceeded",
            Outcome::ShuttingDown => "shutting_down",
            Outcome::Internal => "internal",
        }
    }
}

/// One enqueued query awaiting a batcher.
struct Pending {
    id: Json,
    query: FunctionQuery,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

/// State shared by the accept loop, connection threads, and the batchers.
struct Shared {
    session: Arc<SearchSession>,
    config: ServeConfig,
    queue: BoundedQueue<Pending>,
    stopping: AtomicBool,
    /// The TCP listener's address, connected to once by
    /// [`Shared::begin_shutdown`] to wake the blocking accept (`None`
    /// for stdio).
    accept_wake: Option<SocketAddr>,
    /// Responses sent, indexed by [`Outcome`].
    tallies: [AtomicU64; 8],
}

impl Shared {
    fn new(
        session: Arc<SearchSession>,
        config: ServeConfig,
        accept_wake: Option<SocketAddr>,
    ) -> Shared {
        Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            session,
            config,
            stopping: AtomicBool::new(false),
            accept_wake,
            tallies: Default::default(),
        }
    }

    /// True when this server (or the process, via signal) is draining.
    fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    /// Stops intake: new requests are refused, the queue drains, and
    /// (the first time) a throwaway connection wakes the accept loop.
    fn begin_shutdown(&self) {
        if !self.stopping.swap(true, Ordering::SeqCst) {
            if let Some(addr) = self.accept_wake {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
        }
        self.queue.close();
    }

    fn stats(&self) -> ServeStats {
        let n = |outcome: Outcome| self.tallies[outcome as usize].load(Ordering::SeqCst);
        ServeStats {
            ok: n(Outcome::Ok),
            query_errors: n(Outcome::Query),
            malformed: n(Outcome::Malformed),
            oversized: n(Outcome::Oversized),
            overloaded: n(Outcome::Overloaded),
            deadline_exceeded: n(Outcome::DeadlineExceeded),
            shutting_down: n(Outcome::ShuttingDown),
            internal: n(Outcome::Internal),
        }
    }

    /// Counts one response by outcome, in both the obs counter and the
    /// final stats.
    fn record(&self, outcome: Outcome) {
        self.tallies[outcome as usize].fetch_add(1, Ordering::SeqCst);
        if asteria_obs::enabled() {
            asteria_obs::counter_add(
                "asteria_serve_requests_total",
                &[("outcome", outcome.label())],
                1,
            );
        }
    }

    /// How many batchers serve the queue: one per session worker.
    fn workers(&self) -> usize {
        asteria_exec::resolve_threads(self.session.thread_count())
    }

    fn set_queue_gauge(&self, depth: usize) {
        if asteria_obs::enabled() {
            asteria_obs::gauge_set("asteria_serve_queue_depth", &[], depth as f64);
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded line reader
// ---------------------------------------------------------------------------

/// What one read step produced.
enum LineEvent {
    /// A complete request line (newline stripped).
    Line(String),
    /// A line exceeded the byte cap; it was discarded without buffering.
    Oversized,
    /// The read timed out — poll the shutdown flag and retry.
    TimedOut,
    /// End of stream (any final unterminated line was already returned).
    Eof,
    /// The connection broke.
    Error,
}

/// Reads `\n`-delimited lines with a hard byte cap: an over-long line is
/// dropped as it streams in (never buffered whole) and reported once as
/// [`LineEvent::Oversized`] when its terminator arrives.
struct LineReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Length of the prefix of `buf` already searched for `\n`, so each
    /// byte is scanned once however the line arrives.
    scanned: usize,
    max: usize,
    discarding: bool,
    eof: bool,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R, max: usize) -> LineReader<R> {
        LineReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
            max: max.max(1),
            discarding: false,
            eof: false,
        }
    }

    fn next_event(&mut self) -> LineEvent {
        loop {
            // Serve a complete line out of the buffer first.
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=self.scanned + pos).collect();
                self.scanned = 0;
                if self.discarding || line.len() - 1 > self.max {
                    self.discarding = false;
                    return LineEvent::Oversized;
                }
                let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                return LineEvent::Line(text.trim_end_matches('\r').to_string());
            }
            if self.discarding {
                // Everything buffered belongs to the over-long line.
                self.buf.clear();
            } else if self.buf.len() > self.max {
                self.buf.clear();
                self.discarding = true;
            }
            self.scanned = self.buf.len();
            if self.eof {
                if self.discarding {
                    self.discarding = false;
                    return LineEvent::Oversized;
                }
                if self.buf.is_empty() {
                    return LineEvent::Eof;
                }
                // Final unterminated line.
                let text = String::from_utf8_lossy(&self.buf).to_string();
                self.buf.clear();
                self.scanned = 0;
                return LineEvent::Line(text);
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return LineEvent::TimedOut;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return LineEvent::Error,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// Handles one request line: control ops answer inline, queries enqueue.
fn process_line(shared: &Shared, line: &str, reply: &mpsc::Sender<String>) {
    if line.trim().is_empty() {
        return;
    }
    let (id, request) = match proto::parse_request(line) {
        Ok(parsed) => parsed,
        Err(ParseFailure { id, message }) => {
            shared.record(Outcome::Malformed);
            let _ = reply.send(proto::error_response(&id, ErrorKind::Malformed, &message));
            return;
        }
    };
    match request {
        Request::Ping => {
            let _ = reply.send(proto::ok_response(
                &id,
                Json::Object(vec![("pong".into(), Json::Bool(true))]),
            ));
        }
        Request::Stats => {
            let stats = shared.stats();
            let _ = reply.send(proto::ok_response(
                &id,
                Json::Object(vec![
                    ("functions".into(), Json::from(shared.session.index().len())),
                    ("queue_depth".into(), Json::from(shared.queue.len())),
                    ("served".into(), Json::from(stats.total())),
                    ("ok".into(), Json::from(stats.ok)),
                ]),
            ));
        }
        Request::Shutdown => {
            let _ = reply.send(proto::ok_response(
                &id,
                Json::Object(vec![("stopping".into(), Json::Bool(true))]),
            ));
            shared.begin_shutdown();
        }
        Request::Query(qr) => {
            if shared.is_stopping() {
                shared.record(Outcome::ShuttingDown);
                let _ = reply.send(proto::error_response(
                    &id,
                    ErrorKind::ShuttingDown,
                    "server is draining",
                ));
                return;
            }
            let now = Instant::now();
            let deadline_ms = qr.deadline_ms.unwrap_or(shared.config.default_deadline_ms);
            let deadline = match (qr.deadline_ms, shared.config.default_deadline_ms) {
                (None, 0) => None,
                _ => Some(now + Duration::from_millis(deadline_ms)),
            };
            let pending = Pending {
                id,
                query: qr.query,
                deadline,
                enqueued: now,
                reply: reply.clone(),
            };
            match shared.queue.try_push(pending) {
                Ok(depth) => shared.set_queue_gauge(depth),
                Err(PushError::Full(p)) => {
                    shared.record(Outcome::Overloaded);
                    let _ = p.reply.send(proto::error_response(
                        &p.id,
                        ErrorKind::Overloaded,
                        "request queue is full",
                    ));
                }
                Err(PushError::Closed(p)) => {
                    shared.record(Outcome::ShuttingDown);
                    let _ = p.reply.send(proto::error_response(
                        &p.id,
                        ErrorKind::ShuttingDown,
                        "server is draining",
                    ));
                }
            }
        }
    }
}

/// Handles one read step; returns `false` when the read loop should end
/// (end of stream, a broken stream, or a poll timeout while draining).
fn process_event(shared: &Shared, event: LineEvent, reply: &mpsc::Sender<String>) -> bool {
    match event {
        LineEvent::Line(line) => process_line(shared, &line, reply),
        LineEvent::Oversized => {
            shared.record(Outcome::Oversized);
            let _ = reply.send(proto::error_response(
                &Json::Null,
                ErrorKind::Oversized,
                "request line exceeds max_request_bytes",
            ));
        }
        LineEvent::TimedOut => return !shared.is_stopping(),
        LineEvent::Eof | LineEvent::Error => return false,
    }
    true
}

/// One batcher: pops batches until the queue is closed **and** drained,
/// so every accepted request is answered even during shutdown. The
/// server runs one per session worker on the same queue.
fn run_batcher(shared: &Shared) {
    while let Some(batch) = shared.queue.pop_batch(shared.config.batch_size) {
        shared.set_queue_gauge(shared.queue.len());
        if shared.config.process_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.config.process_delay_ms));
        }
        let mut span = asteria_obs::span("serve-batch");
        span.set_items(batch.len() as u64);
        // Expired deadlines answer immediately without encode cost. The
        // check uses `now >= deadline` so `deadline_ms: 0` expires
        // deterministically.
        let now = Instant::now();
        let (live, expired): (Vec<Pending>, Vec<Pending>) = batch
            .into_iter()
            .partition(|p| p.deadline.is_none_or(|d| now < d));
        for p in expired {
            shared.record(Outcome::DeadlineExceeded);
            let _ = p.reply.send(proto::error_response(
                &p.id,
                ErrorKind::DeadlineExceeded,
                "deadline passed while queued",
            ));
            if asteria_obs::enabled() {
                asteria_obs::observe_seconds(
                    "asteria_serve_request_seconds",
                    &[("outcome", Outcome::DeadlineExceeded.label())],
                    p.enqueued.elapsed().as_secs_f64(),
                );
            }
        }
        if live.is_empty() {
            continue;
        }
        if asteria_obs::enabled() {
            asteria_obs::observe_with_buckets(
                "asteria_serve_batch_size",
                &[],
                live.len() as f64,
                BATCH_SIZE_BUCKETS,
            );
        }
        let queries: Vec<FunctionQuery> = live.iter().map(|p| p.query.clone()).collect();
        // A panic answering the batch fails this batch alone, and this
        // batcher keeps popping; a dead batcher would leave the server
        // short of a worker. The session holds no state a panic can leave
        // half-updated.
        let answers =
            panic::catch_unwind(AssertUnwindSafe(|| shared.session.query_batch(&queries)));
        if answers.is_err() && asteria_obs::enabled() {
            asteria_obs::counter_add("asteria_serve_batch_panics_total", &[], 1);
        }
        for (i, p) in live.into_iter().enumerate() {
            let (outcome, response) = match answers.as_ref().map(|a| &a[i]) {
                Ok(Ok(result)) => (
                    Outcome::Ok,
                    proto::ok_response(
                        &p.id,
                        proto::render_outcome(result, shared.session.index()),
                    ),
                ),
                Ok(Err(e)) => (Outcome::Query, proto::query_error_response(&p.id, e)),
                Err(_) => (
                    Outcome::Internal,
                    proto::error_response(
                        &p.id,
                        ErrorKind::Internal,
                        "internal error while answering the batch",
                    ),
                ),
            };
            shared.record(outcome);
            let _ = p.reply.send(response);
            if asteria_obs::enabled() {
                asteria_obs::observe_seconds(
                    "asteria_serve_request_seconds",
                    &[("outcome", outcome.label())],
                    p.enqueued.elapsed().as_secs_f64(),
                );
            }
        }
    }
}

/// The writer half of a connection (TCP or stdio): writes each response
/// line as it arrives, flushing after each one, until every sender is
/// gone and the channel is drained or the peer stops reading.
fn write_responses<W: Write>(rx: mpsc::Receiver<String>, out: W) {
    let mut out = io::BufWriter::new(out);
    for line in rx {
        if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
            break;
        }
        let _ = out.flush();
    }
}

// ---------------------------------------------------------------------------
// TCP server
// ---------------------------------------------------------------------------

/// Handle to a running TCP server: address discovery plus shutdown/join.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    batchers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a graceful shutdown, drains in-flight requests, waits
    /// for every response to flush, and returns the final tallies.
    pub fn shutdown(mut self) -> ServeStats {
        self.shared.begin_shutdown();
        self.join()
    }

    /// Waits until the server stops on its own (signal or `shutdown`
    /// op), then returns the final tallies.
    pub fn wait(mut self) -> ServeStats {
        self.join()
    }

    fn join(&mut self) -> ServeStats {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.batchers.drain(..) {
            let _ = h.join();
        }
        self.shared.stats()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join();
    }
}

/// Starts the server on an already-bound listener. Returns immediately;
/// the returned handle joins everything on [`ServerHandle::shutdown`] /
/// [`ServerHandle::wait`] (or on drop).
///
/// # Errors
///
/// Only listener configuration (`set_nonblocking`, `local_addr`) can
/// fail here.
pub fn start_tcp(
    session: Arc<SearchSession>,
    config: ServeConfig,
    listener: TcpListener,
) -> io::Result<ServerHandle> {
    let local_addr = listener.local_addr()?;
    // `accept` blocks until a client (or `begin_shutdown`'s wake-up
    // connection) arrives, so a new connection is served at once.
    listener.set_nonblocking(false)?;
    let mut wake = local_addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let shared = Arc::new(Shared::new(session, config, Some(wake)));

    let batchers = (0..shared.workers())
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_batcher(&shared))
        })
        .collect();

    let accept = std::thread::spawn({
        let shared = Arc::clone(&shared);
        move || {
            // A blocked accept cannot see a signal, so a watcher polls the
            // process-wide flag and turns it into `begin_shutdown`.
            let watcher = std::thread::spawn({
                let shared = Arc::clone(&shared);
                move || {
                    while !shared.stopping.load(Ordering::SeqCst) {
                        if signal::shutdown_requested() {
                            shared.begin_shutdown();
                        }
                        std::thread::park_timeout(POLL_INTERVAL);
                    }
                }
            });
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            loop {
                let accepted = listener.accept();
                if shared.is_stopping() {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        if asteria_obs::enabled() {
                            asteria_obs::counter_add("asteria_serve_connections_total", &[], 1);
                        }
                        let shared = Arc::clone(&shared);
                        conns.push(std::thread::spawn(move || {
                            handle_connection(&shared, stream);
                        }));
                        // Opportunistically reap finished connections so
                        // a long-lived server does not accumulate
                        // JoinHandles.
                        conns.retain(|h| !h.is_finished());
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            // Drain: the queue is closed by whoever initiated shutdown;
            // wait for every connection to flush its responses.
            shared.begin_shutdown();
            watcher.thread().unpark();
            let _ = watcher.join();
            for h in conns {
                let _ = h.join();
            }
        }
    });

    Ok(ServerHandle {
        local_addr,
        shared,
        accept: Some(accept),
        batchers,
    })
}

/// One TCP connection: a polling reader (this thread) plus a writer
/// thread fed by an mpsc channel. The writer exits when every sender —
/// the reader and all of its in-flight [`Pending`] entries — is gone and
/// the channel is drained, which is exactly the zero-lost-responses
/// guarantee.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::spawn(move || write_responses(rx, write_half));
    let mut reader = LineReader::new(stream, shared.config.max_request_bytes);
    while process_event(shared, reader.next_event(), &tx) {}
    drop(tx);
    let _ = writer.join();
}

// ---------------------------------------------------------------------------
// Stdio server
// ---------------------------------------------------------------------------

/// Runs the server over an arbitrary byte stream pair (the `--stdio`
/// mode): same protocol, same batching queue, same drain guarantees as
/// TCP. Returns when the input reaches EOF or a shutdown is requested,
/// after every response has been written.
pub fn run_stdio<R: Read, W: Write + Send>(
    session: Arc<SearchSession>,
    config: ServeConfig,
    input: R,
    output: W,
) -> ServeStats {
    let shared = Shared::new(session, config, None);
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::scope(|scope| {
        for _ in 0..shared.workers() {
            scope.spawn(|| run_batcher(&shared));
        }
        scope.spawn(move || write_responses(rx, output));
        let mut reader = LineReader::new(input, shared.config.max_request_bytes);
        while !shared.is_stopping() && process_event(&shared, reader.next_event(), &tx) {}
        shared.begin_shutdown();
        drop(tx);
    });
    shared.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asteria_core::{AsteriaModel, ModelConfig};
    use asteria_vulnsearch::{
        build_firmware_corpus, vulnerability_library, FirmwareConfig, IndexBuilder,
    };

    fn test_session() -> Arc<SearchSession> {
        let model = AsteriaModel::new(ModelConfig {
            hidden_dim: 8,
            embed_dim: 6,
            ..Default::default()
        });
        let firmware = build_firmware_corpus(
            &FirmwareConfig {
                images: 2,
                ..Default::default()
            },
            &vulnerability_library(),
        );
        let index = IndexBuilder::new(&model)
            .threads(1)
            .build(&firmware)
            .expect("in-memory build")
            .index;
        Arc::new(SearchSession::new(model, index).threads(1))
    }

    fn query_line(id: u32, entry: &asteria_vulnsearch::CveEntry) -> String {
        Json::Object(vec![
            ("id".into(), Json::from(id as u64)),
            ("op".into(), Json::from("query")),
            (
                "source".into(),
                Json::from(entry.vulnerable_source.as_str()),
            ),
            ("function".into(), Json::from(entry.function)),
            ("arch".into(), Json::from("arm")),
            ("top_k".into(), Json::from(3u64)),
        ])
        .render()
    }

    #[test]
    fn stdio_roundtrip_answers_every_request() {
        let session = test_session();
        let lib = vulnerability_library();
        let mut input = String::new();
        input.push_str("{\"id\":0,\"op\":\"ping\"}\n");
        input.push_str(&query_line(1, &lib[0]));
        input.push('\n');
        input.push_str("this is not json\n");
        input.push_str(&query_line(2, &lib[1]));
        input.push('\n');
        let mut output = Vec::new();
        let stats = run_stdio(
            Arc::clone(&session),
            ServeConfig::default(),
            input.as_bytes(),
            &mut output,
        );
        assert_eq!(stats.ok, 2);
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.total(), 3);
        let text = String::from_utf8(output).expect("utf8");
        assert_eq!(text.lines().count(), 4, "{text}");
        // Every response parses and carries the documented shape.
        for line in text.lines() {
            let v = json::parse(line).expect("response parses");
            assert!(v.get("ok").is_some(), "{line}");
        }
    }

    #[test]
    fn stdio_query_matches_direct_session_call_bit_for_bit() {
        let session = test_session();
        let lib = vulnerability_library();
        let direct = session
            .query(
                &FunctionQuery::new(
                    "1",
                    lib[0].vulnerable_source.clone(),
                    lib[0].function,
                    asteria_compiler::Arch::Arm,
                )
                .top_k(3),
            )
            .expect("encodes");
        let input = format!("{}\n", query_line(1, &lib[0]));
        let mut output = Vec::new();
        run_stdio(
            Arc::clone(&session),
            ServeConfig::default(),
            input.as_bytes(),
            &mut output,
        );
        let text = String::from_utf8(output).expect("utf8");
        let v = json::parse(text.trim()).expect("parses");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{text}");
        let hits = match v.get("result").and_then(|r| r.get("hits")) {
            Some(Json::Array(hits)) => hits,
            other => panic!("missing hits: {other:?}"),
        };
        assert_eq!(hits.len(), direct.hits.len());
        for (wire, want) in hits.iter().zip(&direct.hits) {
            let Some(Json::Number(score)) = wire.get("score") else {
                panic!("missing score: {wire:?}");
            };
            assert_eq!(score.to_bits(), want.score.to_bits(), "score bits");
            let idx = wire.get("index").and_then(Json::as_u64).expect("index");
            assert_eq!(idx as usize, want.function);
        }
    }

    #[test]
    fn zero_deadline_expires_deterministically() {
        let session = test_session();
        let lib = vulnerability_library();
        let input = format!(
            "{}\n",
            Json::Object(vec![
                ("id".into(), Json::from(9u64)),
                ("op".into(), Json::from("query")),
                (
                    "source".into(),
                    Json::from(lib[0].vulnerable_source.as_str())
                ),
                ("function".into(), Json::from(lib[0].function)),
                ("deadline_ms".into(), Json::from(0u64)),
            ])
            .render()
        );
        let mut output = Vec::new();
        let stats = run_stdio(
            Arc::clone(&session),
            ServeConfig::default(),
            input.as_bytes(),
            &mut output,
        );
        assert_eq!(stats.deadline_exceeded, 1);
        let text = String::from_utf8(output).expect("utf8");
        assert!(text.contains("\"deadline_exceeded\""), "{text}");
    }

    #[test]
    fn oversized_lines_get_a_typed_error_and_the_stream_recovers() {
        let session = test_session();
        let config = ServeConfig {
            max_request_bytes: 64,
            ..Default::default()
        };
        let long = "x".repeat(1000);
        let input = format!(
            "{{\"id\":1,\"op\":\"ping\",\"pad\":\"{long}\"}}\n{{\"id\":2,\"op\":\"ping\"}}\n"
        );
        let mut output = Vec::new();
        let stats = run_stdio(session, config, input.as_bytes(), &mut output);
        assert_eq!(stats.oversized, 1);
        let text = String::from_utf8(output).expect("utf8");
        assert!(text.contains("\"oversized\""), "{text}");
        assert!(
            text.contains("\"pong\""),
            "next request still served: {text}"
        );
    }

    /// Hands out its bytes one per `read`, the worst case for a reader
    /// that rescans its buffer after every read.
    struct ByteAtATime(std::io::Cursor<Vec<u8>>);

    impl Read for ByteAtATime {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn a_long_line_arriving_byte_by_byte_is_scanned_once() {
        let mut bytes = vec![b'x'; 256 * 1024];
        bytes.push(b'\n');
        let mut reader = LineReader::new(ByteAtATime(std::io::Cursor::new(bytes)), 1 << 20);
        let start = Instant::now();
        match reader.next_event() {
            LineEvent::Line(line) => assert_eq!(line.len(), 256 * 1024),
            _ => panic!("expected the line"),
        }
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
        assert!(matches!(reader.next_event(), LineEvent::Eof));
    }

    #[test]
    fn shutdown_op_stops_the_stdio_server_and_refuses_late_queries() {
        let session = test_session();
        let lib = vulnerability_library();
        let mut input = String::new();
        input.push_str(&query_line(1, &lib[0]));
        input.push('\n');
        input.push_str("{\"id\":2,\"op\":\"shutdown\"}\n");
        input.push_str(&query_line(3, &lib[1]));
        input.push('\n');
        let mut output = Vec::new();
        let stats = run_stdio(
            session,
            ServeConfig::default(),
            input.as_bytes(),
            &mut output,
        );
        let text = String::from_utf8(output).expect("utf8");
        assert!(text.contains("\"stopping\""), "{text}");
        // The query accepted before the shutdown op still completed
        // (drain); the one after it was never read (the loop stopped) or
        // was refused with a typed error — never silently half-served.
        assert_eq!(stats.ok, 1, "{text}");
        // Responses: query 1's result, the shutdown ack, and optionally
        // a shutting_down refusal for query 3.
        let lines = text.lines().count();
        assert!(
            lines == 2 + stats.shutting_down as usize,
            "{lines} lines, {stats:?}: {text}"
        );
    }
}
