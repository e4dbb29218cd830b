//! Determinism of the observability layer: obs **counters** must be
//! identical at every thread count (each unit of work is counted exactly
//! once, no matter which worker does it), and recording must never
//! perturb any bit-identity-checked payload — the search index bits and
//! the ASIX cache bytes are the same with the recorder on or off.
//!
//! The serve layer's per-outcome accounting rides here too: every
//! response is counted once, in the `asteria_serve_requests_total`
//! counter and in `ServeStats` alike.
//!
//! Timings (histogram sums, span durations) are intentionally out of
//! scope: only counts carry the invariant.

use std::io::{Cursor, Read};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use asteria::core::{AsteriaModel, ModelConfig};
use asteria::serve::{json, signal, ServeConfig};
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, IndexBuilder, IndexCache,
    SearchIndex, SearchSession,
};

fn build_threads(
    model: &AsteriaModel,
    firmware: &[asteria::vulnsearch::FirmwareImage],
    threads: usize,
) -> SearchIndex {
    IndexBuilder::new(model)
        .threads(threads)
        .build(firmware)
        .expect("in-memory build cannot fail")
        .index
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The obs collector is process-global, so tests that record must not
/// overlap; each one holds this lock for its whole body.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// RAII for a recording session: serializes against other tests and
/// always disables the recorder on the way out, even on panic.
struct Recording {
    _guard: MutexGuard<'static, ()>,
}

impl Recording {
    fn start() -> Recording {
        let guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        asteria::obs::install().reset();
        Recording { _guard: guard }
    }

    fn collector(&self) -> &'static asteria::obs::Collector {
        asteria::obs::install()
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        // Flush and discard this test thread's buffered spans now: left
        // buffered, they would spill into the next test's recording
        // window when this thread exits.
        asteria::obs::install().reset();
        asteria::obs::set_enabled(false);
    }
}

fn fixture() -> (AsteriaModel, Vec<asteria::vulnsearch::FirmwareImage>) {
    let model = AsteriaModel::new(ModelConfig {
        hidden_dim: 12,
        embed_dim: 8,
        ..Default::default()
    });
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images: 4,
            ..Default::default()
        },
        &vulnerability_library(),
    );
    (model, firmware)
}

#[test]
fn counters_are_identical_at_every_thread_count() {
    let (model, firmware) = fixture();
    let rec = Recording::start();
    let collector = rec.collector();

    let mut reference = None;
    let mut evaluated_at_one_thread = None;
    for threads in THREAD_COUNTS {
        collector.reset();
        let index = build_threads(&model, &firmware, threads);
        assert!(!index.is_empty());
        let counters = collector.snapshot().counters;

        // The corpus-wide tallies must be present and plausible…
        let indexed = counters
            .iter()
            .find(|(k, _)| k.starts_with("asteria_functions_indexed_total"))
            .map(|(_, v)| *v)
            .expect("indexed counter present");
        assert_eq!(indexed, index.len() as u64, "{threads} threads");
        let encoded = counters
            .iter()
            .find(|(k, _)| k.starts_with("asteria_functions_encoded_total"))
            .map(|(_, v)| *v)
            .expect("encoded counter present");
        assert!(encoded > 0, "{threads} threads");
        // The forest encoder runs each distinct subtree once: fewer
        // cells than the trees hold, and the same count at every worker
        // count, since interning is serial and in corpus order.
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(k, _)| k.starts_with(name))
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} present"))
        };
        let evaluated = counter("asteria_treelstm_cells_evaluated_total");
        let cells = counter("asteria_treelstm_cells_total");
        assert!(
            0 < evaluated && evaluated < cells,
            "{threads} threads: {evaluated} of {cells} cells evaluated"
        );
        let first = *evaluated_at_one_thread.get_or_insert(evaluated);
        assert_eq!(evaluated, first, "cells evaluated at {threads} threads");

        // …and the *entire* counter map — per-arch decompile tallies,
        // budget/outcome taxonomies, cache stats — must not depend on
        // the worker count.
        match &reference {
            None => reference = Some(counters),
            Some(want) => assert_eq!(
                &counters, want,
                "obs counters diverged at {threads} threads"
            ),
        }
    }
}

#[test]
fn span_structure_is_identical_at_every_thread_count() {
    let (model, firmware) = fixture();
    let rec = Recording::start();
    let collector = rec.collector();

    let mut reference = None;
    for threads in THREAD_COUNTS {
        collector.reset();
        build_threads(&model, &firmware, threads);
        // The multiset of (path, items) pairs is deterministic even
        // though start times and interleavings are not.
        let mut shape: Vec<(String, u64)> = collector
            .finished_spans()
            .into_iter()
            .map(|s| (s.path, s.items))
            .collect();
        shape.sort();
        assert!(
            shape.iter().any(|(p, _)| p == "index-build"),
            "missing root span at {threads} threads"
        );
        assert!(
            shape.iter().any(|(p, _)| p == "index-build/encode-binary"),
            "missing child span at {threads} threads"
        );
        match &reference {
            None => reference = Some(shape),
            Some(want) => assert_eq!(&shape, want, "span structure diverged at {threads} threads"),
        }
    }
}

#[test]
fn recording_never_perturbs_index_bits() {
    let (model, firmware) = fixture();
    let rec = Recording::start();

    asteria::obs::set_enabled(false);
    let plain = build_threads(&model, &firmware, 4);
    asteria::obs::set_enabled(true);
    rec.collector().reset();
    let traced = build_threads(&model, &firmware, 4);

    assert!(plain == traced, "index diverged: recorder on vs off");
}

#[test]
fn asix_cache_bytes_are_identical_warm_vs_cold_with_tracing() {
    let (model, firmware) = fixture();
    let rec = Recording::start();
    let collector = rec.collector();

    // Cold build with the recorder on, then persist the cache.
    let mut cold_cache = IndexCache::default();
    let (cold_index, cold_stats) = IndexBuilder::new(&model)
        .threads(4)
        .build_into(&firmware, &mut cold_cache);
    assert!(cold_stats.misses > 0);
    let mut cold_bytes = Vec::new();
    cold_cache.save(&mut cold_bytes).expect("save cold");

    // Warm rebuild from the reloaded cache, still recording: every
    // binary must hit, the index must match bit for bit, and re-saving
    // must reproduce the exact bytes — no timestamp, counter, or span
    // id may leak into the ASIX payload.
    collector.reset();
    let mut warm_cache = IndexCache::load(cold_bytes.as_slice()).expect("load");
    let (warm_index, warm_stats) = IndexBuilder::new(&model)
        .threads(4)
        .build_into(&firmware, &mut warm_cache);
    assert_eq!(warm_stats.misses, 0, "warm build re-encoded a binary");
    assert_eq!(warm_stats.hits, cold_stats.misses);
    assert!(cold_index == warm_index, "index diverged: warm vs cold");

    let mut warm_bytes = Vec::new();
    warm_cache.save(&mut warm_bytes).expect("save warm");
    assert_eq!(warm_bytes, cold_bytes, "ASIX bytes diverged while tracing");

    // The recorder actually recorded during those builds.
    let counters = collector.snapshot().counters;
    assert!(
        counters
            .iter()
            .any(|(k, v)| k.starts_with("asteria_cache_hits_total") && *v > 0),
        "tracing was not active during the warm build"
    );
}

#[test]
fn warm_probes_start_workers_only_past_one_chunk() {
    // A cache probe costs microseconds and a worker start tens of them:
    // a fully warm 2-image build at the default thread count probes on
    // the calling thread alone, while the 48-image corpus is probed on
    // workers (all but a short last wave). Thread ordinals of the
    // per-binary spans show which.
    let model = AsteriaModel::new(ModelConfig {
        hidden_dim: 12,
        embed_dim: 8,
        ..Default::default()
    });
    let rec = Recording::start();
    for (images, threads, all_on_caller) in [(2, 0, true), (48, 2, false)] {
        let firmware = build_firmware_corpus(
            &FirmwareConfig {
                images,
                ..Default::default()
            },
            &vulnerability_library(),
        );
        let mut cache = IndexCache::default();
        let builder = IndexBuilder::new(&model).threads(threads);
        builder.build_into(&firmware, &mut cache);
        rec.collector().reset();
        let (_, stats) = builder.build_into(&firmware, &mut cache);
        assert_eq!(stats.misses, 0, "{images} images: warm build missed");
        let spans = rec.collector().finished_spans();
        let caller = spans
            .iter()
            .find(|s| s.path == "index-build")
            .expect("root span")
            .thread;
        let probes: Vec<u32> = spans
            .iter()
            .filter(|s| s.path == "index-build/encode-binary")
            .map(|s| s.thread)
            .collect();
        assert_eq!(
            probes.len(),
            stats.hits,
            "{images} images: one span per binary"
        );
        assert_eq!(
            probes.iter().all(|&t| t == caller),
            all_on_caller,
            "{images} images: probe threads {probes:?}, caller {caller}"
        );
    }
}

/// Stdin stand-in for a stdio server: delivers `before`, then raises the
/// process-wide shutdown flag — as SIGTERM would while the server blocks
/// on its next read — and delivers `after`.
struct SignalBetween {
    before: Cursor<String>,
    after: Cursor<String>,
}

impl Read for SignalBetween {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.before.read(buf)?;
        if n > 0 || buf.is_empty() {
            return Ok(n);
        }
        signal::request_shutdown();
        self.after.read(buf)
    }
}

#[test]
fn serve_outcome_counters_match_stats_and_response_lines() {
    let (model, firmware) = fixture();
    let index = build_threads(&model, &firmware, 1);
    let session = Arc::new(SearchSession::new(model, index).threads(1));
    let rec = Recording::start();
    let collector = rec.collector();
    collector.reset();
    // No server runs in this test binary except the one below, so the
    // process-wide shutdown flag is this test's alone.
    signal::reset();

    let oversized = format!(r#"{{"id":5,"op":"ping","pad":"{}"}}"#, "x".repeat(4000));
    let before = [
        r#"{"id":1,"op":"ping"}"#,
        r#"{"id":2,"op":"query","function":"f","source":"int f(int a){return a*31+7;}"}"#,
        r#"{"id":3,"op":"query","function":"g","source":"int g(int a){return a-1;}","top_k":2}"#,
        r#"{"id":4,"op":"query","function":"nope","source":"int f(int a){return a;}"}"#,
        "this is not json",
        &oversized,
        r#"{"id":6,"op":"query","function":"f","source":"int f(int a){return a;}","deadline_ms":0}"#,
    ]
    .map(|line| format!("{line}\n"))
    .concat();
    let after = r#"{"id":7,"op":"query","function":"f","source":"int f(int a){return a;}"}"#;
    let input = SignalBetween {
        before: Cursor::new(before),
        after: Cursor::new(format!("{after}\n")),
    };
    let config = ServeConfig {
        max_request_bytes: 1024,
        ..Default::default()
    };
    let mut output = Vec::new();
    let stats = asteria::serve::run_stdio(session, config, input, &mut output);
    signal::reset();

    // Tally response lines by kind: `ok` for query answers (the ping's
    // pong is a control op, not a counted outcome), the error kind
    // otherwise.
    let text = String::from_utf8(output).expect("utf8");
    let mut lines = std::collections::BTreeMap::<String, u64>::new();
    for line in text.lines() {
        let v = json::parse(line).expect("response parses");
        let kind = match v.get("error").and_then(|e| e.get("kind")) {
            Some(kind) => kind.as_str().expect("kind is a string").to_string(),
            None if v.get("result").and_then(|r| r.get("hits")).is_some() => "ok".into(),
            None => continue,
        };
        *lines.entry(kind).or_default() += 1;
    }

    let counters = collector.snapshot().counters;
    let counter = |outcome: &str| {
        counters
            .get(&format!(
                "asteria_serve_requests_total{{outcome=\"{outcome}\"}}"
            ))
            .copied()
            .unwrap_or(0)
    };
    let by_outcome = [
        ("ok", stats.ok, 2),
        ("query", stats.query_errors, 1),
        ("malformed", stats.malformed, 1),
        ("oversized", stats.oversized, 1),
        ("overloaded", stats.overloaded, 0),
        ("deadline_exceeded", stats.deadline_exceeded, 1),
        ("shutting_down", stats.shutting_down, 1),
    ];
    for (outcome, stat, expected) in by_outcome {
        let seen = lines.get(outcome).copied().unwrap_or(0);
        assert_eq!(stat, expected, "ServeStats {outcome}: {stats:?}\n{text}");
        assert_eq!(counter(outcome), stat, "counter vs stats for {outcome}");
        assert_eq!(seen, stat, "response lines vs stats for {outcome}\n{text}");
    }
    assert_eq!(stats.total(), 7, "{stats:?}");
    assert_eq!(text.lines().count(), 8, "one line per request\n{text}");
}
