//! End-to-end and per-layer benchmark of the Asteria pipeline.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (inputs are generated from `--seed`; the same seed gives
//! the same corpus and queries):
//!
//! | workload | operation | exercises |
//! |----------|-----------|-----------|
//! | `index-cold` | index 2 firmware images from scratch | decompile → preprocess → Tree-LSTM encode |
//! | `index-warm` | load 2 images' ASIX cache, rebuild their index | ASIX load + fingerprint replay (no encoding) |
//! | `serve-distinct` | 8 TCP clients, pairwise distinct queries | batching and its dwell, no dedup possible |
//! | `serve-lockstep` | 8 TCP clients in rounds, all asking the same CVE query | in-batch dedup |
//! | `rank-large` | in-process top-10 query over a 10^5-entry index | online ranking at scale |
//!
//! Every operation's output is checked: index builds must be bit-identical
//! to a serial reference build of the same images (with the expected
//! cache hit/miss accounting), serve replies must equal the response
//! line rendered from a direct `SearchSession::query`, and large-index
//! rankings must equal the ranking derived from the base index.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics
//! (`latency_p50_ms`, `throughput_per_s`, `setup_s`);
//! the recorder stays off. With `--trace 1` the same window runs with the
//! `asteria-obs` recorder on, followed by a probe that times each
//! layer's public entry point under benchmark-side spans, and the line
//! reports the per-layer metrics instead.

mod drive;
mod inputs;
mod layers;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::Fixture;

/// How many times set-up runs per invocation; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// The benchmark's workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IndexCold,
    IndexWarm,
    ServeDistinct,
    ServeLockstep,
    RankLarge,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::IndexCold,
        Workload::IndexWarm,
        Workload::ServeDistinct,
        Workload::ServeLockstep,
        Workload::RankLarge,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::IndexCold => "index-cold",
            Workload::IndexWarm => "index-warm",
            Workload::ServeDistinct => "serve-distinct",
            Workload::ServeLockstep => "serve-lockstep",
            Workload::RankLarge => "rank-large",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one measured window produced.
#[derive(Default)]
pub struct Window {
    /// Wall time of each completed operation, in seconds.
    pub latencies: Vec<f64>,
    /// Work units completed (functions indexed, requests answered,
    /// queries ranked).
    pub items: u64,
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored or whose output failed its check.
    pub failed: u64,
    /// Wall time from the window's start to its last completion.
    pub wall: f64,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Nearest-rank median (`0` when empty, which only a window that failed
/// outright produces).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

fn end_to_end(window: &mut Window, setup_s: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "latency_p50_ms",
            value: median(&mut window.latencies) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "throughput_per_s",
            value: window.items as f64 / window.wall.max(1e-9),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
    ]
}

fn render_result(correct: bool, window: &Window, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        window.attempted,
        window.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    asteria::obs::set_verbosity(asteria::obs::Verbosity::Quiet);

    let mut fixture: Option<Fixture> = None;
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        // The previous fixture (and its server) goes away first, so
        // repeats do not overlap.
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(Fixture::new(args.workload, args.seed));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let fixture = fixture.expect("SETUP_REPEATS > 0");
    let setup_s = median(&mut setup_times);

    let collector = args.trace.then(|| {
        let c = asteria::obs::install();
        c.reset();
        c
    });
    let mut window = drive::run(&fixture, Duration::from_secs(args.seconds));
    let metrics = match collector {
        Some(c) => {
            let counters = c.snapshot();
            let mut metrics = layers::path_counts(&counters, &window);
            metrics.extend(layers::probe(&fixture));
            metrics
        }
        None => end_to_end(&mut window, setup_s),
    };
    drop(fixture);

    let correct = window.failed == 0 && window.attempted > 0;
    println!("{}", render_result(correct, &window, &metrics));
    ExitCode::SUCCESS
}
