//! Per-layer metrics for `--trace 1`.
//!
//! Two sources, both through the one `asteria-obs` recorder:
//!
//! - **Path counts** — counters the program itself records during the
//!   measured window (encodes, cache hits, in-batch dedup, batch sizes),
//!   normalised per operation so they do not depend on run length.
//! - **Layer probe** — after the window, the benchmark calls each
//!   crate's public entry point on the workload's own inputs under a
//!   benchmark-side span, and reports the span time per item. The
//!   sample is the functions the workload's path runs through the
//!   pipeline: corpus functions for the index workloads, query
//!   functions for the serve and rank workloads.

use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;

use asteria::compiler::{compile_program, Binary};
use asteria::core::{binarize, digitalize, FunctionEncoding, DEFAULT_INLINE_BETA};
use asteria::decompiler::{callee_count, decompile_function_with, DecompileLimits};
use asteria::obs::{MetricsSnapshot, SpanRecord};
use asteria::serve::{start_tcp, ServeConfig};
use asteria::vulnsearch::IndexCache;

use crate::drive::{request_line, Conn};
use crate::inputs::{Fixture, Kind};
use crate::{Metric, Window};

/// Repeats of each probed layer call over its sample.
const PROBE_REPS: usize = 5;
/// Corpus binaries whose functions form the index workloads' sample.
const PROBE_BINARIES: usize = 16;
/// Query sources sent through the front end.
const PROBE_QUERIES: usize = 16;
/// Encodings ranked against the workload's index.
const PROBE_RANKS: usize = 8;
/// Requests sent through a probe server, one at a time.
const PROBE_REQUESTS: usize = 4;

/// Counters the program recorded during the measured window, per
/// operation attempted.
pub fn path_counts(snap: &MetricsSnapshot, window: &Window) -> Vec<Metric> {
    // Sum over every label set of the series.
    let counter = |name: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(key, _)| key.split('{').next() == Some(name))
            .map(|(_, v)| *v)
            .sum()
    };
    let ops = window.attempted.max(1) as f64;
    let hits = counter("asteria_cache_hits_total");
    let lookups = hits + counter("asteria_cache_misses_total");
    vec![
        Metric {
            name: "encodes_per_op",
            value: counter("asteria_functions_encoded_total") as f64 / ops,
            unit: "count/op",
        },
        Metric {
            name: "cache_hit_ratio",
            value: hits as f64 / lookups.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "dedup_ratio",
            value: counter("asteria_query_batch_deduped_total") as f64 / ops,
            unit: "ratio",
        },
        Metric {
            name: "batch_size_mean",
            value: snap
                .histograms
                .get("asteria_serve_batch_size")
                .and_then(|h| h.mean())
                .unwrap_or(0.0),
            unit: "requests",
        },
    ]
}

/// Runs `f` [`PROBE_REPS`] times, each under a span `name` carrying
/// `items`, and returns the last result.
fn layer<T>(name: &str, items: usize, mut f: impl FnMut() -> T) -> T {
    let mut out = None;
    for _ in 0..PROBE_REPS {
        let mut span = asteria::obs::span(name);
        span.set_items(items as u64);
        out = Some(black_box(f()));
    }
    out.expect("PROBE_REPS > 0")
}

/// Microseconds per item of the top-level spans named `name`: the median
/// over the repeats, so one preempted repeat does not skew the figure.
fn us_per_item(spans: &[SpanRecord], name: &str) -> f64 {
    let mut per_item: Vec<f64> = spans
        .iter()
        .filter(|s| s.path == name)
        .map(|s| s.dur_us as f64 / s.items.max(1) as f64)
        .collect();
    crate::median(&mut per_item)
}

/// Times each layer on the workload's inputs; see the module docs.
pub fn probe(fx: &Fixture) -> Vec<Metric> {
    let collector = asteria::obs::collector().expect("the recorder is on under --trace 1");
    collector.reset();

    // Front end: the query sources through `lang` and `compiler`.
    let queries = &fx.queries[..fx.queries.len().min(PROBE_QUERIES)];
    let programs = layer("lang-parse", queries.len(), || {
        queries
            .iter()
            .map(|q| asteria::lang::parse(&q.source).expect("benchmark queries parse"))
            .collect::<Vec<_>>()
    });
    let compiled: Vec<Binary> = layer("compiler-compile", queries.len(), || {
        programs
            .iter()
            .zip(queries)
            .map(|(p, q)| compile_program(p, q.arch).expect("benchmark queries compile"))
            .collect()
    });

    // Pipeline: decompile → preprocess → encode.
    let targets: Vec<(&Binary, usize)> = match &fx.kind {
        Kind::Offline { firmware, .. } => firmware
            .iter()
            .flat_map(|image| &image.binaries)
            .take(PROBE_BINARIES)
            .flat_map(|b| b.function_indices().into_iter().map(move |sym| (b, sym)))
            .collect(),
        Kind::Serve { .. } | Kind::Rank { .. } => compiled
            .iter()
            .zip(queries)
            .map(|(b, q)| (b, b.symbol_index(&q.function).expect("query symbol")))
            .collect(),
    };
    let limits = DecompileLimits::default();
    let decompiled = layer("decompiler", targets.len(), || {
        targets
            .iter()
            .map(|&(b, sym)| decompile_function_with(b, sym, &limits).expect("sample decompiles"))
            .collect::<Vec<_>>()
    });
    let trees = layer("core-preprocess", decompiled.len(), || {
        decompiled
            .iter()
            .map(|f| binarize(&digitalize(f)))
            .collect::<Vec<_>>()
    });
    let vectors = layer("core-encode", trees.len(), || {
        trees.iter().map(|t| fx.model.encode(t)).collect::<Vec<_>>()
    });

    // Online: rank sample encodings against the workload's index.
    let encodings: Vec<FunctionEncoding> = targets
        .iter()
        .zip(&decompiled)
        .zip(vectors)
        .take(PROBE_RANKS)
        .map(|((&(b, _), f), vector)| FunctionEncoding {
            name: f.name.clone(),
            vector,
            callee_count: callee_count(b, f, DEFAULT_INLINE_BETA),
        })
        .collect();
    layer("vulnsearch-rank", encodings.len(), || {
        encodings
            .iter()
            .map(|e| fx.session.rank(e).len())
            .sum::<usize>()
    });

    // Persistence: the workload's ASIX caches.
    let load_all = || {
        fx.asix
            .iter()
            .map(|bytes| {
                IndexCache::load(bytes.as_slice())
                    .expect("benchmark caches load")
                    .len()
            })
            .sum::<usize>()
    };
    let cached_binaries = load_all();
    layer("index-io-load", cached_binaries, load_all);

    // Serving: one client, one request at a time, against a
    // default-configured server; the direct session call on the same
    // queries is the part the server adds nothing to.
    let requests = &fx.queries[..fx.queries.len().min(PROBE_REQUESTS)];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a localhost port");
    let server = start_tcp(Arc::clone(&fx.session), ServeConfig::default(), listener)
        .expect("start the probe server");
    let mut conn = Conn::open(server.local_addr()).expect("connect to the probe server");
    layer("serve-roundtrip", requests.len(), || {
        for (id, q) in requests.iter().enumerate() {
            conn.call(&request_line(id as u64 + 1, q))
                .expect("probe request answered");
        }
    });
    drop(conn);
    server.shutdown();
    layer("session-query", requests.len(), || {
        for q in requests {
            black_box(fx.session.query(q).expect("benchmark queries encode"));
        }
    });

    let spans = collector.finished_spans();
    let us = |name| us_per_item(&spans, name);
    let per_layer = [
        ("lang_parse_us", us("lang-parse")),
        ("compiler_compile_us", us("compiler-compile")),
        ("decompiler_us_per_fn", us("decompiler")),
        ("core_preprocess_us_per_fn", us("core-preprocess")),
        ("core_encode_us_per_fn", us("core-encode")),
        ("vulnsearch_rank_us", us("vulnsearch-rank")),
        ("index_io_load_us_per_binary", us("index-io-load")),
        (
            "serve_overhead_us",
            us("serve-roundtrip") - us("session-query"),
        ),
    ];
    per_layer
        .into_iter()
        .map(|(name, value)| Metric {
            name,
            value,
            unit: "us",
        })
        .collect()
}
