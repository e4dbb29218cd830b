//! `asteria-obs` — the workspace's unified tracing and metrics layer.
//!
//! The paper's evaluation hinges on per-stage cost accounting (its
//! Fig. 10 splits offline AST-extraction/encoding from online similarity
//! calculation). This crate gives the whole pipeline one observability
//! spine instead of ad-hoc `eprintln!` lines and bench-only JSON:
//!
//! - **Spans** ([`span`](mod@span)) — hierarchical enter/exit timings with
//!   monotonic wall-time and parent linkage. Each thread buffers its
//!   finished spans locally; buffers are merged deterministically (by
//!   start time, then a global sequence number) when a sink renders.
//!   Worker pools propagate the caller's span path into workers via
//!   [`current_path`] + [`worker_scope`], so fan-out work nests
//!   under the stage that spawned it.
//! - **Metrics** — typed [`counter_add`]/[`gauge_set`] and
//!   [`observe_seconds`] histograms with fixed bucket boundaries
//!   ([`TIME_BUCKETS_SECONDS`]).
//! - **Events** ([`info!`]/[`warn!`]/[`debug!`]) — progress and warning
//!   lines that respect a global [`Verbosity`] for stderr and are also
//!   recorded into the trace, so `--quiet` runs stay silent while still
//!   populating `--metrics-out`/`--trace` artifacts.
//! - **Sinks** — a human-readable summary tree
//!   ([`Collector::render_summary`]), a machine-readable JSONL event log
//!   ([`Collector::render_trace_jsonl`]), and a Prometheus-style text
//!   exposition ([`Collector::render_prometheus`]).
//!
//! # Zero cost when disabled
//!
//! The global recorder starts **disabled**: every entry point checks one
//! relaxed atomic load and returns immediately — no allocation, no clock
//! read, no lock. [`install`] enables recording process-wide;
//! [`set_enabled`] toggles it (the bench harness uses this to measure
//! instrumentation overhead).
//!
//! # Determinism contract
//!
//! Metrics carry wall-clock timings and therefore **never** enter any
//! bit-identity-checked payload (indexes, encodings, reports, on-disk
//! caches). Counters that the determinism suite pins down (items
//! processed, cache hits, budget exceedances) are incremented from
//! deterministically merged results, so their values are identical at
//! every thread count.
//!
//! # Examples
//!
//! ```
//! let collector = asteria_obs::install();
//! collector.reset();
//! {
//!     let mut outer = asteria_obs::span("offline");
//!     outer.set_items(2);
//!     let _inner = asteria_obs::span("encode");
//!     asteria_obs::counter_add("functions_encoded_total", &[], 2);
//! }
//! let snap = collector.snapshot();
//! assert_eq!(snap.counters["functions_encoded_total"], 2);
//! let prom = collector.render_prometheus();
//! assert!(prom.contains("functions_encoded_total 2"));
//! assert!(collector.render_summary().contains("offline"));
//! # asteria_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod sink;
pub mod span;

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

pub use metrics::{Histogram, MetricKey, MetricsSnapshot, TIME_BUCKETS_SECONDS};
pub use span::{SpanGuard, SpanRecord, ThreadRootGuard};

/// Severity of one event line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Chatty progress detail (stderr only under `Verbose`).
    Debug,
    /// Normal progress lines.
    Info,
    /// Something degraded but the run continues.
    Warn,
}

impl Level {
    /// Lower-case label used by the JSONL trace.
    pub fn label(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// How much event output reaches stderr. Recording into the trace is
/// governed separately by [`enabled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verbosity {
    /// Nothing on stderr — `--quiet`.
    Quiet,
    /// Info and warnings (the default).
    Normal,
    /// Everything, including debug lines and the final summary tree.
    Verbose,
}

static VERBOSITY: AtomicU8 = AtomicU8::new(1);
static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Collector> = OnceLock::new();

/// Sets the process-wide stderr verbosity.
pub fn set_verbosity(v: Verbosity) {
    let n = match v {
        Verbosity::Quiet => 0,
        Verbosity::Normal => 1,
        Verbosity::Verbose => 2,
    };
    VERBOSITY.store(n, Ordering::Relaxed);
}

/// The current stderr verbosity.
pub fn verbosity() -> Verbosity {
    match VERBOSITY.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        1 => Verbosity::Normal,
        _ => Verbosity::Verbose,
    }
}

/// Installs (idempotently) and enables the global collector, returning
/// it. Until this is called every instrumentation entry point is a
/// no-op.
pub fn install() -> &'static Collector {
    let c = COLLECTOR.get_or_init(Collector::new);
    ENABLED.store(true, Ordering::Relaxed);
    c
}

/// Toggles recording without discarding the installed collector. The
/// bench harness flips this to measure instrumented vs no-op overhead.
pub fn set_enabled(on: bool) {
    if on {
        install();
    } else {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

/// True when a collector is installed and recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed collector, when recording is enabled.
pub fn collector() -> Option<&'static Collector> {
    if enabled() {
        COLLECTOR.get()
    } else {
        None
    }
}

/// Recovers the inner data from a poisoned lock: a panicking worker must
/// cost one fault, not cascade into every later metrics call.
pub(crate) fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// One recorded log event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Rendered message.
    pub msg: String,
    /// Microseconds since the collector's epoch.
    pub t_us: u64,
}

/// The global recorder: per-thread span buffers merged on render, typed
/// metrics, and the event log. All locks recover from poisoning.
///
/// Each recording thread adds its counters and histograms to a store of
/// its own (a shard), so parallel workers never contend for one lock or
/// bounce its cache line between cores. Readers merge the shards of live
/// threads into the collector's own store; a thread's shard is folded
/// into that store when the thread exits. Gauges, whose last write wins,
/// are set in the collector's store directly.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    /// Gauges, and the counters and histograms of exited threads.
    pub(crate) metrics: Mutex<metrics::Metrics>,
    /// The live threads' shards. Lock order: this list, then a shard,
    /// then `metrics`; a recording thread takes only its own shard.
    shards: Mutex<Vec<Arc<Mutex<metrics::Metrics>>>>,
    events: Mutex<Vec<Event>>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            metrics: Mutex::new(metrics::Metrics::default()),
            shards: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A new, registered shard for the calling thread.
    fn register_shard(&self) -> Shard {
        let shard = Arc::new(Mutex::new(metrics::Metrics::default()));
        relock(self.shards.lock()).push(Arc::clone(&shard));
        Shard(shard)
    }

    /// Unregisters an exiting thread's shard and folds it into the
    /// collector's store, in one step under the list lock, so a reader
    /// sees its values exactly once.
    fn retire_shard(&self, shard: &Arc<Mutex<metrics::Metrics>>) {
        let mut shards = relock(self.shards.lock());
        shards.retain(|s| !Arc::ptr_eq(s, shard));
        let values = std::mem::take(&mut *relock(shard.lock()));
        relock(self.metrics.lock()).absorb(values);
    }

    /// Every metric recorded so far: the collector's store plus every
    /// live shard.
    pub(crate) fn merged_metrics(&self) -> metrics::Metrics {
        let shards = relock(self.shards.lock());
        let mut merged = relock(self.metrics.lock()).clone();
        for shard in shards.iter() {
            merged.absorb(relock(shard.lock()).clone());
        }
        merged
    }

    /// Microseconds of monotonic time since the collector was installed.
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Appends an event to the trace log.
    pub fn record_event(&self, level: Level, msg: String) {
        let t_us = self.now_us();
        relock(self.events.lock()).push(Event { level, msg, t_us });
    }

    /// Clears all recorded spans, metrics, and events (the current
    /// thread's span buffer is flushed first so it cannot leak stale
    /// records into the next window).
    pub fn reset(&self) {
        span::flush_current_thread();
        relock(self.spans.lock()).clear();
        relock(self.events.lock()).clear();
        let shards = relock(self.shards.lock());
        *relock(self.metrics.lock()) = metrics::Metrics::default();
        for shard in shards.iter() {
            *relock(shard.lock()) = metrics::Metrics::default();
        }
    }

    /// A deterministic snapshot of all counters, gauges, and histograms.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.merged_metrics().snapshot()
    }

    /// All finished spans, merged across threads in deterministic order
    /// (start time, then global sequence number). Flushes the calling
    /// thread's buffer; spans still open, or buffered on threads that
    /// have not exited, are not included.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        span::flush_current_thread();
        let mut spans = relock(self.spans.lock()).clone();
        spans.sort_by_key(|s| (s.start_us, s.seq));
        spans
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> Vec<Event> {
        relock(self.events.lock()).clone()
    }

    /// Human-readable summary: span tree with per-stage wall time and
    /// throughput, then counters, gauges, and histogram percentiles.
    pub fn render_summary(&self) -> String {
        sink::render_summary(self)
    }

    /// Prometheus-style text exposition of every metric, including
    /// per-span-path duration aggregates.
    pub fn render_prometheus(&self) -> String {
        sink::render_prometheus(self)
    }

    /// Machine-readable JSONL trace: one line per span and per event.
    pub fn render_trace_jsonl(&self) -> String {
        sink::render_trace_jsonl(self)
    }
}

/// Routes a leveled event line: to stderr when [`Verbosity`] allows it,
/// and into the trace when recording is [`enabled`]. The message is only
/// rendered when at least one destination wants it.
pub fn emit(level: Level, args: fmt::Arguments<'_>) {
    let to_stderr = match verbosity() {
        Verbosity::Quiet => false,
        Verbosity::Normal => level >= Level::Info,
        Verbosity::Verbose => true,
    };
    let sink = collector();
    if !to_stderr && sink.is_none() {
        return;
    }
    let msg = args.to_string();
    if to_stderr {
        eprintln!("{msg}");
    }
    if let Some(c) = sink {
        c.record_event(level, msg);
    }
}

/// Emits a [`Level::Debug`] event (stderr only under `--verbose`).
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => { $crate::emit($crate::Level::Debug, format_args!($($t)*)) };
}

/// Emits a [`Level::Info`] progress event.
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => { $crate::emit($crate::Level::Info, format_args!($($t)*)) };
}

/// Emits a [`Level::Warn`] event.
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => { $crate::emit($crate::Level::Warn, format_args!($($t)*)) };
}

/// A thread's metric shard; the thread's exit folds it into the
/// collector.
struct Shard(Arc<Mutex<metrics::Metrics>>);

impl Drop for Shard {
    fn drop(&mut self) {
        if let Some(c) = COLLECTOR.get() {
            c.retire_shard(&self.0);
        }
    }
}

thread_local! {
    static SHARD: RefCell<Option<Shard>> = const { RefCell::new(None) };
}

/// Runs `f` on the calling thread's shard, registering one on first use.
/// A thread whose shard is already gone (it is exiting) records into the
/// collector's store instead.
fn record(c: &Collector, f: impl FnOnce(&mut metrics::Metrics)) {
    let mut f = Some(f);
    let _ = SHARD.try_with(|shard| {
        let mut shard = shard.borrow_mut();
        let shard = shard.get_or_insert_with(|| c.register_shard());
        if let Some(f) = f.take() {
            f(&mut relock(shard.0.lock()));
        }
    });
    if let Some(f) = f {
        f(&mut relock(c.metrics.lock()));
    }
}

/// Adds `delta` to a counter (creating it at zero first). A zero delta
/// registers the series so it appears in the exposition even when it
/// never fires.
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: u64) {
    if let Some(c) = collector() {
        record(c, |m| m.counter_add(name, labels, delta));
    }
}

/// Sets a gauge to `value`.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    if let Some(c) = collector() {
        relock(c.metrics.lock()).gauge_set(name, labels, value);
    }
}

/// Records one observation into a histogram with the default
/// [`TIME_BUCKETS_SECONDS`] boundaries.
pub fn observe_seconds(name: &str, labels: &[(&str, &str)], seconds: f64) {
    observe_with_buckets(name, labels, seconds, TIME_BUCKETS_SECONDS);
}

/// Records one observation into a histogram with explicit fixed bucket
/// boundaries (ascending; an implicit `+Inf` bucket is appended). The
/// boundaries are fixed by the first observation of a series.
pub fn observe_with_buckets(name: &str, labels: &[(&str, &str)], value: f64, bounds: &[f64]) {
    if let Some(c) = collector() {
        record(c, |m| m.observe(name, labels, value, bounds));
    }
}

/// Opens a span named `name`, nested under the calling thread's current
/// span (if any). The span closes — and its record is buffered — when
/// the guard drops. No-op while disabled.
pub fn span(name: &str) -> SpanGuard {
    span::enter(name)
}

/// The calling thread's current span path, for propagating parent
/// linkage into worker threads. `None` while disabled or outside any
/// span.
pub fn current_path() -> Option<String> {
    span::current_path()
}

/// Brackets a pool worker's closure: nests the worker's spans under
/// `parent` (when given) and flushes the worker's span buffer when the
/// guard drops. Worker pools must hold this for the closure's whole
/// body — scoped-thread APIs can return to the spawner before the
/// worker's TLS destructors run, so only a drop inside the closure
/// guarantees the records land before the pool call returns.
pub fn worker_scope(parent: Option<&str>) -> ThreadRootGuard {
    span::worker_scope(parent)
}

/// A started wall-clock timing, or nothing while disabled.
#[derive(Debug)]
#[must_use = "a timer only records when observed"]
pub struct StageTimer(Option<Instant>);

/// Starts a stage timer — a no-op (no clock read) while disabled.
pub fn timer() -> StageTimer {
    StageTimer(enabled().then(Instant::now))
}

impl StageTimer {
    /// Stops the timer, recording the elapsed seconds into a histogram.
    pub fn observe_seconds(self, name: &str, labels: &[(&str, &str)]) {
        if let Some(t0) = self.0 {
            observe_seconds(name, labels, t0.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global, so every assertion about recorded
    // state lives in this one test (Rust runs tests in one process).
    #[test]
    fn end_to_end_recording_and_noop_paths() {
        // Disabled: everything is a no-op and allocates nothing visible.
        set_enabled(false);
        assert!(!enabled());
        assert!(collector().is_none());
        counter_add("never", &[], 1);
        gauge_set("never", &[], 1.0);
        observe_seconds("never", &[], 1.0);
        assert!(timer().0.is_none());
        timer().observe_seconds("never", &[]);
        assert!(current_path().is_none());
        {
            let mut g = span("never");
            g.set_items(3);
        }

        let c = install();
        c.reset();
        assert!(enabled());

        // The disabled-phase calls must have recorded nothing.
        let snap = c.snapshot();
        assert!(snap.counters.is_empty(), "{snap:?}");
        assert!(c.finished_spans().is_empty());

        // Counters accumulate; zero deltas register the series.
        counter_add("hits_total", &[("kind", "warm")], 2);
        counter_add("hits_total", &[("kind", "warm")], 3);
        counter_add("empty_total", &[], 0);
        gauge_set("loss", &[], 0.25);
        observe_seconds("lat_seconds", &[], 0.003);
        let snap = c.snapshot();
        assert_eq!(snap.counters["hits_total{kind=\"warm\"}"], 5);
        assert_eq!(snap.counters["empty_total"], 0);
        assert_eq!(snap.gauges["loss"], 0.25);
        assert_eq!(snap.histograms["lat_seconds"].count, 1);

        // Other threads record into shards of their own: a live thread's
        // values are visible, an exited thread's values stay, and a reset
        // clears both.
        let (recorded_tx, recorded_rx) = std::sync::mpsc::channel();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        let live = std::thread::spawn(move || {
            counter_add("hits_total", &[("kind", "warm")], 10);
            observe_seconds("lat_seconds", &[], 0.5);
            recorded_tx.send(()).expect("the test waits");
            exit_rx.recv().expect("the test releases the thread");
        });
        recorded_rx.recv().expect("the thread recorded");
        let snap = c.snapshot();
        assert_eq!(snap.counters["hits_total{kind=\"warm\"}"], 15);
        assert_eq!(snap.histograms["lat_seconds"].count, 2);
        exit_tx.send(()).expect("the thread waits");
        live.join().expect("the thread exits cleanly");
        let snap = c.snapshot();
        assert_eq!(snap.counters["hits_total{kind=\"warm\"}"], 15);
        assert_eq!(snap.histograms["lat_seconds"].sum, 0.503);
        c.reset();
        assert!(c.snapshot().counters.is_empty());
        counter_add("hits_total", &[("kind", "warm")], 5);
        observe_seconds("lat_seconds", &[], 0.003);
        assert_eq!(c.snapshot().counters["hits_total{kind=\"warm\"}"], 5);

        // Spans nest via the thread-local stack.
        {
            let mut outer = span("outer");
            outer.set_items(7);
            assert_eq!(current_path().as_deref(), Some("outer"));
            let _inner = span("inner");
            assert_eq!(current_path().as_deref(), Some("outer/inner"));
        }
        let spans = c.finished_spans();
        let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"outer"), "{paths:?}");
        assert!(paths.contains(&"outer/inner"), "{paths:?}");
        let outer = spans.iter().find(|s| s.path == "outer").unwrap();
        assert_eq!(outer.items, 7);

        // Thread-root propagation: a worker's spans nest under the
        // caller's path even though it runs on another thread.
        {
            let _stage = span("stage");
            let parent = current_path().expect("inside a span");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _root = worker_scope(Some(&parent));
                    let _w = span("worker");
                    assert_eq!(current_path().as_deref(), Some("stage/worker"));
                });
            });
        }
        let spans = c.finished_spans();
        assert!(
            spans.iter().any(|s| s.path == "stage/worker"),
            "worker span must nest: {spans:?}"
        );

        // Events respect verbosity for stderr but always hit the trace.
        set_verbosity(Verbosity::Quiet);
        crate::info!("quiet progress {}", 42);
        crate::warn!("quiet warning");
        set_verbosity(Verbosity::Normal);
        let events = c.events();
        assert!(events.iter().any(|e| e.msg == "quiet progress 42"));
        assert!(events
            .iter()
            .any(|e| e.level == Level::Warn && e.msg == "quiet warning"));

        // Timers feed histograms.
        let t = timer();
        t.observe_seconds("stage_seconds", &[("stage", "lift")]);
        let snap = c.snapshot();
        assert_eq!(snap.histograms["stage_seconds{stage=\"lift\"}"].count, 1);

        // Sinks render all three formats.
        let summary = c.render_summary();
        assert!(summary.contains("outer"), "{summary}");
        assert!(summary.contains("hits_total"), "{summary}");
        let prom = c.render_prometheus();
        assert!(prom.contains("# TYPE hits_total counter"), "{prom}");
        assert!(prom.contains("hits_total{kind=\"warm\"} 5"), "{prom}");
        assert!(prom.contains("lat_seconds_bucket"), "{prom}");
        let trace = c.render_trace_jsonl();
        assert!(trace.contains("\"type\":\"span\""), "{trace}");
        assert!(trace.contains("\"path\":\"outer/inner\""), "{trace}");
        assert!(trace.contains("\"type\":\"event\""), "{trace}");

        // A panic while a lock is held poisons it; later calls recover.
        let poison = std::panic::catch_unwind(|| {
            let _guard = c.spans.lock().unwrap();
            panic!("poison the span lock");
        });
        assert!(poison.is_err());
        let _ = c.finished_spans(); // must not panic
        counter_add("after_poison_total", &[], 1);
        assert_eq!(c.snapshot().counters["after_poison_total"], 1);

        // reset() clears every sink input.
        c.reset();
        assert!(c.snapshot().counters.is_empty());
        assert!(c.finished_spans().is_empty());
        assert!(c.events().is_empty());

        // Disabling again restores the no-op path without uninstalling.
        set_enabled(false);
        counter_add("hits_total", &[], 1);
        assert!(COLLECTOR.get().unwrap().snapshot().counters.is_empty());
    }
}
