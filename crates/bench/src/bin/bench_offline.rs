//! Offline-phase throughput: serial vs parallel index build (the cost
//! the paper's Fig. 10 shows dominating end-to-end time) plus the online
//! ranking, with the bit-identity invariant checked on every run.
//!
//! Writes `BENCH_offline.json` to the working directory — the seed of the
//! perf trajectory — stamped with the git revision and the core count;
//! the parallel speedups are `null` on one core. Flags: `--scale smoke|mid|paper`, `--threads N`
//! (default: all cores / `ASTERIA_THREADS`), `--quiet` (no stderr).
//!
//! Stage seconds are read back from `asteria-obs` span records. The
//! observability tax itself is timed with a plain stopwatch: the same
//! parallel build with the recorder recording vs hard-disabled, as the
//! median ratio of many adjacent single-build pairs in ABBA order,
//! asserting the overhead stays under 3% and that recording never
//! perturbs the index bits.

use std::sync::Arc;
use std::time::Instant;

use asteria::compiler::Arch;
use asteria::core::{AsteriaModel, ModelConfig};
use asteria::exec::resolve_threads;
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, FunctionQuery, IndexBuilder,
    IndexCache, SearchSession,
};
use asteria_bench::{timed, HarnessArgs, Scale};

/// The checked-out revision (`git describe --always --dirty`), or `None`
/// outside a git checkout.
fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !rev.trim().is_empty()).then(|| rev.trim().to_string())
}

/// A JSON value for a ratio, `null` when it means nothing.
fn json_ratio(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| format!("{v:.4}"))
}

fn main() {
    let HarnessArgs { scale, threads } = HarnessArgs::from_env(true);
    let threads = resolve_threads(threads);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let library = vulnerability_library();
    let images = match scale {
        Scale::Smoke => 10,
        Scale::Mid => 24,
        Scale::Paper => 60,
    };
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images,
            ..Default::default()
        },
        &library,
    );
    let model = Arc::new(AsteriaModel::new(ModelConfig::default()));
    let total_functions: usize = firmware.iter().map(|i| i.function_count()).sum();
    asteria::obs::info!(
        "[bench_offline] {} images, {total_functions} functions, {cores} core(s), \
         {threads} worker thread(s)",
        firmware.len()
    );

    // Every stage below runs as one obs span; the obs-tax rounds reset
    // the recorder only after all stage seconds have been read.
    let collector = asteria::obs::install();

    // Offline phase: serial reference, then parallel.
    let build_at = |threads: usize| {
        IndexBuilder::new(&model)
            .threads(threads)
            .build(&firmware)
            .expect("in-memory build cannot fail")
            .index
    };
    let (serial_index, serial_offline) = timed("offline-index(serial)", || build_at(1));
    let (parallel_index, parallel_offline) = timed("offline-index(parallel)", || build_at(threads));

    let identical = serial_index == parallel_index;

    // Incremental phase: a cold cached build populates the ASIX cache,
    // then a warm rebuild must serve every binary from it (zero
    // encodings) and still produce a bit-identical index.
    let mut cache = IndexCache::default();
    let builder = IndexBuilder::new(&model).threads(threads);
    let ((cold_index, cold_stats), index_cold) = timed("offline-index(cached,cold)", || {
        builder.build_into(&firmware, &mut cache)
    });
    let ((warm_index, warm_stats), index_warm) = timed("offline-index(cached,warm)", || {
        builder.build_into(&firmware, &mut cache)
    });

    let warm_identical = cold_index == warm_index && serial_index == warm_index;
    let warm_all_hits = warm_stats.misses == 0 && warm_stats.hits == cold_stats.misses;
    let warm_speedup = index_cold / index_warm.max(1e-12);

    // Online phase: rank the whole index against every CVE, serial vs
    // parallel, and require identical rankings. Each side is an online
    // `SearchSession` over its index — the same object `asteria serve`
    // answers from.
    let serial_session = SearchSession::new(Arc::clone(&model), serial_index).threads(1);
    let parallel_session = SearchSession::new(Arc::clone(&model), parallel_index).threads(threads);
    let queries: Vec<_> = library
        .iter()
        .map(|e| {
            serial_session
                .encode(&FunctionQuery::for_cve(e, Arch::X86))
                .expect("library query encodes")
        })
        .collect();
    let (serial_hits, serial_online) = timed("online-search(serial)", || {
        queries
            .iter()
            .map(|q| serial_session.rank(q))
            .collect::<Vec<_>>()
    });
    let (parallel_hits, parallel_online) = timed("online-search(parallel)", || {
        queries
            .iter()
            .map(|q| parallel_session.rank(q))
            .collect::<Vec<_>>()
    });
    let rankings_identical = serial_hits.iter().zip(&parallel_hits).all(|(a, b)| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.function == y.function && x.score.to_bits() == y.score.to_bits())
    });

    // On one core a "parallel speedup" measures only scheduling overhead.
    let parallel_speedup =
        |serial: f64, parallel: f64| (cores > 1).then(|| serial / parallel.max(1e-12));
    let offline_speedup = parallel_speedup(serial_offline, parallel_offline);
    let online_speedup = parallel_speedup(serial_online, parallel_online);

    // Observability tax on the offline encode stage: the same parallel
    // build with the recorder recording vs hard-disabled. A smoke-scale
    // build lasts only tens of milliseconds, and on a shared host a single
    // build's time swings by ±20%, so a few long samples per mode cannot
    // resolve a 3% budget. Instead single builds alternate between the
    // modes in ABBA order for a fixed time budget; each adjacent pair
    // gives one recording/disabled ratio, which cancels slow drift in the
    // host's speed, and the median ratio discards stalls.
    const OBS_BUDGET_SECONDS: f64 = 20.0;
    let obs_pairs =
        ((OBS_BUDGET_SECONDS / (2.0 * parallel_offline.max(1e-9))).ceil() as usize).clamp(16, 4000);
    let mut enabled_samples = Vec::with_capacity(obs_pairs);
    let mut disabled_samples = Vec::with_capacity(obs_pairs);
    for pair in 0..obs_pairs {
        let mut indexes = Vec::with_capacity(2);
        for recording in [pair % 2 == 0, pair % 2 == 1] {
            asteria::obs::set_enabled(recording);
            collector.reset();
            let t = Instant::now();
            indexes.push(build_at(threads));
            let seconds = t.elapsed().as_secs_f64();
            if recording {
                enabled_samples.push(seconds);
            } else {
                disabled_samples.push(seconds);
            }
        }
        assert!(
            indexes[0] == indexes[1],
            "recording perturbed the index bits"
        );
    }
    asteria::obs::set_enabled(false);
    collector.reset();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let ratios = enabled_samples
        .iter()
        .zip(&disabled_samples)
        .map(|(on, off)| on / off.max(1e-12))
        .collect();
    let obs_overhead_pct = (median(ratios) - 1.0) * 100.0;
    let obs_enabled_seconds = median(enabled_samples);
    let obs_disabled_seconds = median(disabled_samples);

    println!(
        "offline: serial {serial_offline:.3}s, parallel {parallel_offline:.3}s ({}x on {threads} threads)",
        json_ratio(offline_speedup)
    );
    println!("cache:   cold {index_cold:.3}s ({cold_stats}), warm {index_warm:.3}s ({warm_stats}, {warm_speedup:.2}x)");
    println!(
        "online:  serial {serial_online:.3}s, parallel {parallel_online:.3}s ({}x)",
        json_ratio(online_speedup)
    );
    println!(
        "obs:     recording {obs_enabled_seconds:.3}s, disabled {obs_disabled_seconds:.3}s \
         ({obs_overhead_pct:+.2}% overhead, median of {obs_pairs} ABBA pairs)"
    );
    println!("bit-identical index: {identical}; warm==cold: {warm_identical}; bit-identical rankings: {rankings_identical}");
    assert!(identical, "parallel index diverged from serial");
    assert!(warm_identical, "warm cached index diverged from cold");
    assert!(
        warm_all_hits,
        "warm rebuild re-encoded binaries: {warm_stats}"
    );
    assert!(rankings_identical, "parallel ranking diverged from serial");
    assert!(
        obs_overhead_pct < 3.0,
        "obs recording overhead {obs_overhead_pct:.2}% exceeds the 3% budget \
         (recording {obs_enabled_seconds:.3}s vs disabled {obs_disabled_seconds:.3}s)"
    );

    // Hand-rolled JSON (no serde in the offline workspace).
    let git_rev = git_rev().map_or_else(|| "null".to_string(), |rev| format!("\"{rev}\""));
    let json = format!(
        "{{\n  \"scale\": \"{scale:?}\",\n  \"images\": {},\n  \"functions\": {},\n  \
         \"indexed_functions\": {},\n  \"git_rev\": {git_rev},\n  \
         \"available_cores\": {cores},\n  \"threads\": {threads},\n  \
         \"offline_serial_seconds\": {serial_offline:.6},\n  \
         \"offline_parallel_seconds\": {parallel_offline:.6},\n  \
         \"offline_speedup\": {},\n  \
         \"index_cold_seconds\": {index_cold:.6},\n  \
         \"index_warm_seconds\": {index_warm:.6},\n  \
         \"index_warm_speedup\": {warm_speedup:.4},\n  \
         \"cache_cold_misses\": {},\n  \
         \"cache_warm_hits\": {},\n  \
         \"cache_warm_misses\": {},\n  \
         \"online_serial_seconds\": {serial_online:.6},\n  \
         \"online_parallel_seconds\": {parallel_online:.6},\n  \
         \"online_speedup\": {},\n  \
         \"obs_enabled_seconds\": {obs_enabled_seconds:.6},\n  \
         \"obs_disabled_seconds\": {obs_disabled_seconds:.6},\n  \
         \"obs_overhead_pct\": {obs_overhead_pct:.4},\n  \
         \"bit_identical_index\": {identical},\n  \
         \"bit_identical_rankings\": {rankings_identical}\n}}\n",
        firmware.len(),
        total_functions,
        serial_session.index().len(),
        json_ratio(offline_speedup),
        cold_stats.misses,
        warm_stats.hits,
        warm_stats.misses,
        json_ratio(online_speedup),
    );
    std::fs::write("BENCH_offline.json", &json).expect("write BENCH_offline.json");
    asteria::obs::info!("[bench_offline] wrote BENCH_offline.json");
}
