//! Online-serving latency and throughput: `asteria serve`'s TCP path
//! under 1, 4 and 16 concurrent clients, batched vs unbatched.
//!
//! Every client fires queries rotating over the 7-CVE vulnerability
//! library (the paper's §V workload) back-to-back for a fixed number of
//! requests, measuring per-request wall latency. Neither server waits
//! for a batch to fill: each of its batchers takes what is already
//! queued. The **batched** server (batch_size 16) answers the identical
//! queries that queued up together from one encode+rank via the
//! session's in-batch dedup; the **unbatched** server (batch_size 1)
//! pays full price per request. Once the clients outnumber the cores,
//! the dedup is exactly what keeps tail latency down.
//!
//! Writes `BENCH_serve.json`. Flags: `--scale smoke|mid|paper`,
//! `--quiet`/`--verbose`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use asteria::core::{AsteriaModel, ModelConfig};
use asteria::serve::{start_tcp, ServeConfig, ServerHandle};
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, IndexBuilder, SearchSession,
};
use asteria_bench::Scale;

struct Run {
    clients: usize,
    batched: bool,
    p50_ms: f64,
    p95_ms: f64,
    throughput_rps: f64,
    served: u64,
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] * 1e3
}

fn start_server(session: Arc<SearchSession>, batched: bool) -> ServerHandle {
    let config = ServeConfig {
        batch_size: if batched { 16 } else { 1 },
        ..ServeConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    start_tcp(session, config, listener).expect("start server")
}

fn run_load(session: &Arc<SearchSession>, clients: usize, batched: bool, per_client: usize) -> Run {
    let handle = start_server(Arc::clone(session), batched);
    let addr = handle.local_addr();
    let library = vulnerability_library();
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let library = library.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut stream = stream;
                let mut latencies = Vec::with_capacity(per_client);
                for k in 0..per_client {
                    // All clients walk the library in the same order, so
                    // concurrent requests frequently coincide on one CVE
                    // — the dedup opportunity a real vuln-search fleet
                    // presents when a new CVE drops.
                    let entry = &library[k % library.len()];
                    let source = entry
                        .vulnerable_source
                        .replace('\\', "\\\\")
                        .replace('"', "\\\"")
                        .replace('\n', "\\n")
                        .replace('\t', "\\t");
                    let line = format!(
                        "{{\"id\":{},\"op\":\"query\",\"function\":\"{}\",\"source\":\"{source}\"}}",
                        c * 1_000_000 + k,
                        entry.function,
                    );
                    let t = Instant::now();
                    stream
                        .write_all(format!("{line}\n").as_bytes())
                        .expect("send");
                    let mut reply = String::new();
                    reader.read_line(&mut reply).expect("reply");
                    latencies.push(t.elapsed().as_secs_f64());
                    assert!(
                        reply.contains("\"ok\":true"),
                        "query failed under load: {reply}"
                    );
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    for w in workers {
        latencies.extend(w.join().expect("client"));
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = handle.shutdown();
    latencies.sort_by(f64::total_cmp);
    Run {
        clients,
        batched,
        p50_ms: percentile_ms(&latencies, 0.50),
        p95_ms: percentile_ms(&latencies, 0.95),
        throughput_rps: latencies.len() as f64 / wall.max(1e-12),
        served: stats.ok,
    }
}

fn main() {
    let scale = Scale::from_args();
    let (images, per_client) = match scale {
        Scale::Smoke => (2, 24),
        Scale::Mid => (6, 48),
        Scale::Paper => (10, 96),
    };
    let model = AsteriaModel::new(ModelConfig {
        hidden_dim: 16,
        embed_dim: 8,
        ..Default::default()
    });
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images,
            ..Default::default()
        },
        &vulnerability_library(),
    );
    let build = IndexBuilder::new(&model)
        .build(&firmware)
        .expect("in-memory build cannot fail");
    let session = Arc::new(SearchSession::new(model, build.index));
    asteria::obs::info!(
        "[bench_serve] index: {} functions from {} images",
        session.index().len(),
        firmware.len()
    );

    let mut runs = Vec::new();
    for clients in [1usize, 4, 16] {
        for batched in [false, true] {
            let run = run_load(&session, clients, batched, per_client);
            asteria::obs::info!(
                "[bench_serve] {} clients, {}: p50 {:.2} ms, p95 {:.2} ms, {:.1} req/s \
                 ({} served)",
                run.clients,
                if run.batched { "batched" } else { "unbatched" },
                run.p50_ms,
                run.p95_ms,
                run.throughput_rps,
                run.served
            );
            runs.push(run);
        }
    }

    println!("| clients | mode | p50 ms | p95 ms | req/s |");
    println!("|---------|------|--------|--------|-------|");
    for r in &runs {
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.1} |",
            r.clients,
            if r.batched { "batched" } else { "unbatched" },
            r.p50_ms,
            r.p95_ms,
            r.throughput_rps
        );
    }

    // The acceptance bar: at 16 concurrent clients, batching (and its
    // in-batch dedup) must beat the unbatched tail.
    let by_key: HashMap<(usize, bool), &Run> =
        runs.iter().map(|r| ((r.clients, r.batched), r)).collect();
    let batched16 = by_key[&(16, true)];
    let unbatched16 = by_key[&(16, false)];
    println!(
        "16-client p95: batched {:.2} ms vs unbatched {:.2} ms ({:.2}x)",
        batched16.p95_ms,
        unbatched16.p95_ms,
        unbatched16.p95_ms / batched16.p95_ms.max(1e-12)
    );
    assert!(
        batched16.p95_ms < unbatched16.p95_ms,
        "batched p95 ({:.2} ms) must beat unbatched ({:.2} ms) at 16 clients",
        batched16.p95_ms,
        unbatched16.p95_ms
    );

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut entries = String::new();
    for (i, r) in runs.iter().enumerate() {
        entries.push_str(&format!(
            "    {{\"clients\": {}, \"batched\": {}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
             \"throughput_rps\": {:.2}, \"served\": {}}}{}\n",
            r.clients,
            r.batched,
            r.p50_ms,
            r.p95_ms,
            r.throughput_rps,
            r.served,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    let json = format!(
        "{{\n  \"scale\": \"{scale:?}\",\n  \"images\": {images},\n  \
         \"indexed_functions\": {},\n  \"requests_per_client\": {per_client},\n  \
         \"runs\": [\n{entries}  ]\n}}\n",
        session.index().len(),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    asteria::obs::info!("[bench_serve] wrote BENCH_serve.json");
}
