//! `asteria-cli` — a command-line front end over the whole reproduction.
//!
//! ```text
//! asteria-cli compile   <src.mc> --arch x86|x64|arm|ppc -o <out.sbf>
//! asteria-cli info      <bin.sbf>
//! asteria-cli disasm    <bin.sbf> [--function NAME]
//! asteria-cli decompile <bin.sbf> [--function NAME]
//! asteria-cli run       <bin.sbf> <function> [int args…]
//! asteria-cli strip     <bin.sbf> -o <out.sbf>
//! asteria-cli train     -o <model.bin> [--packages N] [--epochs E]
//! asteria-cli similarity <a.sbf>:<func> <b.sbf>:<func> [--model model.bin]
//! asteria-cli index build -o <index.asix> [--model model.bin] [--images N] [--seed S] [--threads N]
//! asteria-cli index info  <index.asix>
//! asteria-cli serve     --listen ADDR | --stdio [--model M] [--index I.asix] [--images N] [--seed S]
//! ```

use std::fs;
use std::io::Write as _;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use asteria::compiler::{compile_program, decode_function, Arch, Binary, SymbolKind, Vm};
use asteria::core::{
    extract_function, function_similarity, train, AsteriaModel, ModelConfig, TrainOptions,
    DEFAULT_INLINE_BETA,
};
use asteria::datasets::{build_corpus, build_pairs, to_train_pairs, CorpusConfig, PairConfig};
use asteria::decompiler::{decompile_function, render_function};
use asteria::serve::{self, ServeConfig};
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, IndexBuilder, IndexCache,
    SearchSession, ASIX_VERSION,
};

/// A CLI failure, split by who got it wrong: the invocation (exit code
/// 2, like the conventional shell usage-error code) or the input data
/// (exit code 1 — unparsable binaries, decode/decompile failures, I/O).
enum CliError {
    /// The command line itself is malformed.
    Usage(String),
    /// The inputs failed to load, decode, decompile or execute.
    Data(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Data(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Data(msg.to_string())
    }
}

/// Global observability flags, valid on any command: `--quiet` /
/// `--verbose` set the stderr verbosity, `--trace FILE` writes a JSONL
/// span/event log, `--metrics-out FILE` writes a Prometheus-style text
/// exposition. Recording is only enabled when an output is requested, so
/// plain runs keep the zero-cost no-op path.
struct GlobalFlags {
    trace: Option<String>,
    metrics_out: Option<String>,
}

impl GlobalFlags {
    fn wants_recording(&self) -> bool {
        self.trace.is_some() || self.metrics_out.is_some()
    }
}

/// Strips the global flags out of the raw argument list (they may appear
/// anywhere) so the per-command positional parsing never sees them.
///
/// Returns the flags parsed so far even on a usage error, so the one
/// teardown path can still flush whatever artifacts *were* requested.
fn extract_global_flags(args: Vec<String>) -> (GlobalFlags, Vec<String>, Option<CliError>) {
    let mut flags = GlobalFlags {
        trace: None,
        metrics_out: None,
    };
    let mut rest = Vec::with_capacity(args.len());
    let mut err = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quiet" => asteria::obs::set_verbosity(asteria::obs::Verbosity::Quiet),
            "--verbose" => asteria::obs::set_verbosity(asteria::obs::Verbosity::Verbose),
            "--trace" => match it.next() {
                Some(v) => flags.trace = Some(v),
                None => err = err.or_else(|| Some(CliError::usage("missing --trace FILE"))),
            },
            "--metrics-out" => match it.next() {
                Some(v) => flags.metrics_out = Some(v),
                None => err = err.or_else(|| Some(CliError::usage("missing --metrics-out FILE"))),
            },
            _ => rest.push(a),
        }
    }
    (flags, rest, err)
}

/// Writes the requested observability artifacts from the global
/// collector. Metrics carry wall-clock timings, so these files are the
/// only outputs allowed to differ between otherwise identical runs.
fn write_obs_outputs(flags: &GlobalFlags) -> Result<(), String> {
    let Some(c) = asteria::obs::collector() else {
        return Ok(());
    };
    if let Some(path) = &flags.metrics_out {
        fs::write(path, c.render_prometheus()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &flags.trace {
        fs::write(path, c.render_trace_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    if asteria::obs::verbosity() == asteria::obs::Verbosity::Verbose {
        eprint!("{}", c.render_summary());
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (flags, args, flag_err) = extract_global_flags(raw);
    if flags.wants_recording() {
        asteria::obs::install().reset();
    }
    let result = match flag_err {
        Some(e) => Err(e),
        None => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(&args))) {
            Ok(result) => result,
            Err(payload) => {
                // A panic exits through the same teardown as every other
                // path: flush whatever was recorded, then re-raise.
                let _ = write_obs_outputs(&flags);
                std::panic::resume_unwind(payload);
            }
        },
    };
    teardown(&flags, result)
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("decompile") => cmd_decompile(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("strip") => cmd_strip(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("similarity") => cmd_similarity(&args[1..]),
        Some("index") => cmd_index(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown command `{other}` (try `asteria-cli help`)"
        ))),
    }
}

/// The single exit path: every outcome — success, data error, usage
/// error, even a bad global flag — flushes `--metrics-out`/`--trace`
/// before the exit code is chosen. A partial trace is exactly what a
/// failure post-mortem needs.
fn teardown(flags: &GlobalFlags, result: Result<(), CliError>) -> ExitCode {
    let wrote = write_obs_outputs(flags);
    match (result, wrote) {
        (Ok(()), Ok(())) => ExitCode::SUCCESS,
        (Ok(()), Err(e)) | (Err(CliError::Data(e)), _) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        (Err(CliError::Usage(e)), _) => {
            eprintln!("usage error: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "asteria-cli — cross-platform binary code similarity toolkit\n\n\
         commands:\n\
         \x20 compile   <src.mc> --arch x86|x64|arm|ppc -o <out.sbf>\n\
         \x20 info      <bin.sbf>\n\
         \x20 disasm    <bin.sbf> [--function NAME]\n\
         \x20 decompile <bin.sbf> [--function NAME]\n\
         \x20 run       <bin.sbf> <function> [int args…]\n\
         \x20 strip     <bin.sbf> -o <out.sbf>\n\
         \x20 train     -o <model.bin> [--packages N] [--epochs E]\n\
         \x20 similarity <a.sbf>:<func> <b.sbf>:<func> [--model model.bin]\n\
         \x20 index build -o <index.asix> [--model model.bin] [--images N] [--seed S] [--threads N]\n\
         \x20 index info  <index.asix>\n\
         \x20 serve     --listen ADDR | --stdio [--model M] [--index I.asix] [--images N] [--seed S]\n\
         \x20           [--threads N] [--batch-size N] [--batch-wait-ms MS] [--queue-capacity N]\n\
         \x20           [--deadline-ms MS] [--max-request-bytes N]\n\n\
         global flags (any command):\n\
         \x20 --quiet | --verbose      stderr verbosity\n\
         \x20 --metrics-out FILE       write Prometheus-style metrics\n\
         \x20 --trace FILE             write a JSONL span/event trace"
    );
}

/// Fetches the value following a `--flag` (or `-o`) option.
fn opt_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == flag)
        .map(|w| w[1].as_str())
}

/// Positional arguments: everything not part of a flag pair.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with('-') {
            // Flags take a value except boolean-style ones (none today).
            skip = i + 1 < args.len();
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn load_binary(path: &str) -> Result<Binary, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Binary::load(bytes.as_slice()).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn cmd_compile(args: &[String]) -> Result<(), CliError> {
    let pos = positionals(args);
    let src_path = pos
        .first()
        .ok_or_else(|| CliError::usage("usage: compile <src.mc> --arch A -o OUT"))?;
    let arch_name = opt_value(args, "--arch").unwrap_or("x86");
    let arch = Arch::from_name(arch_name)
        .ok_or_else(|| CliError::usage(format!("unknown architecture {arch_name}")))?;
    let out = opt_value(args, "-o")
        .or(opt_value(args, "--out"))
        .ok_or_else(|| CliError::usage("missing -o OUT"))?;
    let src = fs::read_to_string(src_path).map_err(|e| format!("{src_path}: {e}"))?;
    let program = asteria::lang::parse(&src).map_err(|e| e.to_string())?;
    let binary = compile_program(&program, arch).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    binary.save(&mut buf).map_err(|e| e.to_string())?;
    fs::write(out, buf).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "compiled {} functions for {} → {} ({} bytes of code)",
        binary.function_indices().len(),
        arch,
        out,
        binary.code_size()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), CliError> {
    let pos = positionals(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("usage: info <bin.sbf>"))?;
    let b = load_binary(path)?;
    println!("{b}");
    println!(
        "{:<6} {:<10} {:<28} {:>8} {:>7} {:>7}",
        "idx", "kind", "name", "offset", "bytes", "params"
    );
    for (i, s) in b.symbols.iter().enumerate() {
        println!(
            "{:<6} {:<10} {:<28} {:>8x} {:>7} {:>7}",
            i,
            match s.kind {
                SymbolKind::Function => "function",
                SymbolKind::External => "external",
            },
            s.display_name(),
            s.offset,
            s.code.len(),
            s.param_count
        );
    }
    Ok(())
}

fn resolve_function(b: &Binary, name: Option<&str>) -> Result<Vec<usize>, String> {
    match name {
        Some(n) => {
            let idx = b
                .symbols
                .iter()
                .position(|s| s.display_name() == n)
                .ok_or_else(|| format!("no function named {n}"))?;
            Ok(vec![idx])
        }
        None => Ok(b.function_indices()),
    }
}

fn cmd_disasm(args: &[String]) -> Result<(), CliError> {
    let pos = positionals(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("usage: disasm <bin.sbf> [--function NAME]"))?;
    let b = load_binary(path)?;
    for idx in resolve_function(&b, opt_value(args, "--function"))? {
        let s = &b.symbols[idx];
        if s.kind != SymbolKind::Function {
            continue;
        }
        println!("{} <{}>:", b.arch, s.display_name());
        let insts = decode_function(&s.code, b.arch).map_err(|e| e.to_string())?;
        for (i, inst) in insts.iter().enumerate() {
            println!("  {i:>4}: {inst}");
        }
        println!();
    }
    Ok(())
}

fn cmd_decompile(args: &[String]) -> Result<(), CliError> {
    let pos = positionals(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("usage: decompile <bin.sbf> [--function NAME]"))?;
    let b = load_binary(path)?;
    for idx in resolve_function(&b, opt_value(args, "--function"))? {
        if b.symbols[idx].kind != SymbolKind::Function {
            continue;
        }
        let f = decompile_function(&b, idx).map_err(|e| e.to_string())?;
        print!("{}", render_function(&f, &b));
        println!();
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let pos = positionals(args);
    if pos.len() < 2 {
        return Err(CliError::usage(
            "usage: run <bin.sbf> <function> [int args…]",
        ));
    }
    let b = load_binary(pos[0])?;
    let sym = b
        .symbols
        .iter()
        .position(|s| s.display_name() == pos[1])
        .ok_or_else(|| format!("no function named {}", pos[1]))?;
    let call_args: Result<Vec<i64>, _> = pos[2..].iter().map(|a| a.parse::<i64>()).collect();
    let call_args = call_args.map_err(|e| CliError::usage(format!("bad argument: {e}")))?;
    let result = Vm::new(&b)
        .call(sym, &call_args)
        .map_err(|e| e.to_string())?;
    println!("{result}");
    Ok(())
}

fn cmd_strip(args: &[String]) -> Result<(), CliError> {
    let pos = positionals(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("usage: strip <bin.sbf> -o OUT"))?;
    let out = opt_value(args, "-o")
        .or(opt_value(args, "--out"))
        .ok_or_else(|| CliError::usage("missing -o OUT"))?;
    let mut b = load_binary(path)?;
    b.strip();
    let mut buf = Vec::new();
    b.save(&mut buf).map_err(|e| e.to_string())?;
    fs::write(out, buf).map_err(|e| format!("{out}: {e}"))?;
    println!("stripped → {out}");
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "train",
        args,
        &["-o", "--out", "--packages", "--epochs"],
        &[],
    )?;
    let out = opt_value(args, "-o")
        .or(opt_value(args, "--out"))
        .ok_or_else(|| CliError::usage("missing -o MODEL"))?;
    let packages: usize = num_opt(args, "--packages", 8)?;
    let epochs: usize = num_opt(args, "--epochs", 8)?;
    asteria::obs::info!("building corpus ({packages} packages × 4 ISAs)…");
    let corpus = build_corpus(&CorpusConfig {
        packages,
        ..Default::default()
    });
    let pairs = build_pairs(&corpus, &PairConfig::default());
    let (train_set, _) = pairs.split(0.8, 5);
    asteria::obs::info!("training on {} pairs for {epochs} epochs…", train_set.len());
    let mut model = AsteriaModel::new(ModelConfig::default());
    let stats = train(
        &mut model,
        &to_train_pairs(&corpus, &train_set),
        &TrainOptions {
            epochs,
            seed: 7,
            verbose: true,
        },
        None,
    );
    fs::write(out, model.snapshot()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "saved model to {out} (final loss {:.4})",
        stats.last().map(|s| s.mean_loss).unwrap_or(f32::NAN)
    );
    Ok(())
}

/// `index build` / `index info`: the persistent ASIX embedding cache.
fn cmd_index(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("build") => cmd_index_build(&args[1..]),
        Some("info") => cmd_index_info(&args[1..]),
        other => Err(CliError::usage(format!(
            "usage: index build|info …, got {:?}",
            other.unwrap_or("nothing")
        ))),
    }
}

/// Loads model weights from a file into a default-config model,
/// surfacing mismatched or corrupt weights as a data error (exit 1),
/// never a panic.
fn load_model(path: Option<&str>) -> Result<AsteriaModel, CliError> {
    let mut model = AsteriaModel::new(ModelConfig::default());
    if let Some(m) = path {
        let bytes = fs::read(m).map_err(|e| format!("{m}: {e}"))?;
        model
            .restore(&bytes)
            .map_err(|e| format!("{m}: not a loadable model: {e}"))?;
    }
    Ok(model)
}

fn cmd_index_build(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "index build",
        args,
        &["-o", "--out", "--model", "--images", "--seed", "--threads"],
        &[],
    )?;
    let out = opt_value(args, "-o")
        .or(opt_value(args, "--out"))
        .ok_or_else(|| CliError::usage("missing -o INDEX"))?;
    let images: usize = num_opt(args, "--images", 6)?;
    let seed: u64 = num_opt(args, "--seed", 77)?;
    let threads: usize = num_opt(args, "--threads", 0)?;
    let model = load_model(opt_value(args, "--model"))?;

    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images,
            seed,
            ..Default::default()
        },
        &vulnerability_library(),
    );
    // `.cache(out)` seeds the incremental build from an existing index at
    // the output path (a corrupt one costs a cold rebuild, never the
    // run) and persists the refreshed cache back when the build is done.
    let build = IndexBuilder::new(&model)
        .threads(threads)
        .cache(out)
        .build(&firmware)
        .map_err(|e| e.to_string())?;
    println!(
        "indexed {} functions from {} images ({})",
        build.index.len(),
        firmware.len(),
        build.index.extraction
    );
    println!("embedding cache: {}", build.stats);
    println!(
        "wrote {out}: {} cached binaries, {} cached functions",
        build.cache.len(),
        build.cache.function_count()
    );
    Ok(())
}

fn cmd_index_info(args: &[String]) -> Result<(), CliError> {
    let pos = positionals(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("usage: index info <index.asix>"))?;
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cache = IndexCache::load(bytes.as_slice()).map_err(|e| format!("{path}: {e}"))?;
    println!("ASIX index {path} (format v{ASIX_VERSION})");
    println!("model weights digest:  {:#018x}", cache.model_digest);
    println!("extraction params:     {:#018x}", cache.params_digest);
    println!("cached binaries:       {}", cache.len());
    println!("cached functions:      {}", cache.function_count());
    Ok(())
}

fn parse_target(spec: &str) -> Result<(&str, &str), CliError> {
    spec.split_once(':')
        .ok_or_else(|| CliError::usage(format!("expected <file.sbf>:<function>, got {spec}")))
}

fn cmd_similarity(args: &[String]) -> Result<(), CliError> {
    let pos = positionals(args);
    if pos.len() < 2 {
        return Err(CliError::usage(
            "usage: similarity <a.sbf>:<func> <b.sbf>:<func> [--model M]",
        ));
    }
    let (path_a, func_a) = parse_target(pos[0])?;
    let (path_b, func_b) = parse_target(pos[1])?;
    let ba = load_binary(path_a)?;
    let bb = load_binary(path_b)?;
    let sym_a = ba
        .symbols
        .iter()
        .position(|s| s.display_name() == func_a)
        .ok_or_else(|| format!("{path_a}: no function {func_a}"))?;
    let sym_b = bb
        .symbols
        .iter()
        .position(|s| s.display_name() == func_b)
        .ok_or_else(|| format!("{path_b}: no function {func_b}"))?;

    let model_path = opt_value(args, "--model");
    if model_path.is_none() {
        asteria::obs::info!(
            "note: scoring with untrained weights (pass --model for a trained one)"
        );
    }
    let model = load_model(model_path)?;

    let fa = extract_function(&ba, sym_a, DEFAULT_INLINE_BETA).map_err(|e| e.to_string())?;
    let fb = extract_function(&bb, sym_b, DEFAULT_INLINE_BETA).map_err(|e| e.to_string())?;
    let ea = asteria::core::encode_function(&model, &fa);
    let eb = asteria::core::encode_function(&model, &fb);
    let m = model.similarity_from_encodings(&ea.vector, &eb.vector);
    let f = function_similarity(&model, &ea, &eb);
    println!(
        "{func_a} [{}; {} nodes]  vs  {func_b} [{}; {} nodes]",
        ba.arch, fa.ast_size, bb.arch, fb.ast_size
    );
    println!("AST similarity M(T1,T2)       = {m:.4}");
    println!(
        "calibrated similarity F(F1,F2) = {f:.4}  (callees {} vs {})",
        fa.callee_count, fb.callee_count
    );
    Ok(())
}

/// Rejects any argument of `cmd` that is not one of its `value_flags`
/// (each followed by its value) or `bool_flags`: a mistyped or retired
/// flag must not silently fall back to a default.
fn check_flags(
    cmd: &str,
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), CliError> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if value_flags.contains(&a.as_str()) {
            if it.next().is_none() {
                return Err(CliError::usage(format!("{cmd}: `{a}` needs a value")));
            }
        } else if !bool_flags.contains(&a.as_str()) {
            return Err(CliError::usage(format!(
                "{cmd}: unknown argument `{a}` (try `asteria-cli help`)"
            )));
        }
    }
    Ok(())
}

/// Parses a numeric `--flag N`, falling back to `default` when absent.
fn num_opt<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, CliError> {
    match opt_value(args, flag) {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("bad {flag}: {v}"))),
        None => Ok(default),
    }
}

/// The value-taking flags `serve` accepts; `--stdio` takes none.
const SERVE_FLAGS: &[&str] = &[
    "--listen",
    "--model",
    "--index",
    "--images",
    "--seed",
    "--threads",
    "--batch-size",
    "--batch-wait-ms",
    "--queue-capacity",
    "--deadline-ms",
    "--max-request-bytes",
];

/// `serve`: the long-running similarity-query daemon. Loads the model
/// and builds (or restores, with `--index`) the search index **once**,
/// then answers line-delimited JSON queries over TCP (`--listen ADDR`)
/// or stdin/stdout (`--stdio`) until EOF, a `shutdown` op, or
/// SIGINT/SIGTERM — at which point it drains in-flight requests before
/// exiting, so the usual teardown still flushes `--metrics-out`/`--trace`.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    check_flags("serve", args, SERVE_FLAGS, &["--stdio"])?;
    let stdio = args.iter().any(|a| a == "--stdio");
    let listen = opt_value(args, "--listen");
    if stdio == listen.is_some() {
        return Err(CliError::usage(
            "serve needs exactly one of --listen ADDR or --stdio",
        ));
    }
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        batch_size: num_opt(args, "--batch-size", defaults.batch_size)?,
        batch_wait_ms: num_opt(args, "--batch-wait-ms", defaults.batch_wait_ms)?,
        queue_capacity: num_opt(args, "--queue-capacity", defaults.queue_capacity)?,
        default_deadline_ms: num_opt(args, "--deadline-ms", defaults.default_deadline_ms)?,
        max_request_bytes: num_opt(args, "--max-request-bytes", defaults.max_request_bytes)?,
        ..defaults
    };
    let images: usize = num_opt(args, "--images", 6)?;
    let seed: u64 = num_opt(args, "--seed", 77)?;
    let threads: usize = num_opt(args, "--threads", 0)?;

    let model = load_model(opt_value(args, "--model"))?;
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images,
            seed,
            ..Default::default()
        },
        &vulnerability_library(),
    );
    let mut builder = IndexBuilder::new(&model).threads(threads);
    if let Some(path) = opt_value(args, "--index") {
        builder = builder.cache(path);
    }
    let build = builder.build(&firmware).map_err(|e| e.to_string())?;
    asteria::obs::info!(
        "index ready: {} functions from {} images ({})",
        build.index.len(),
        firmware.len(),
        build.stats
    );
    let session = Arc::new(SearchSession::new(model, build.index).threads(threads));

    serve::signal::install_handlers();
    let stats = if stdio {
        // Responses own stdout in stdio mode; status goes to stderr.
        serve::run_stdio(session, config, std::io::stdin().lock(), std::io::stdout())
    } else {
        let addr = listen.expect("checked above");
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        let handle = serve::start_tcp(session, config, listener).map_err(|e| e.to_string())?;
        // Announce the bound address on stdout (and flush past any block
        // buffering) so `--listen 127.0.0.1:0` callers can discover the
        // kernel-assigned port.
        println!("listening on {}", handle.local_addr());
        let _ = std::io::stdout().flush();
        handle.wait()
    };
    asteria::obs::info!(
        "serve: {} responses ({} ok, {} query errors, {} malformed, {} oversized, \
         {} overloaded, {} deadline exceeded, {} refused in shutdown, {} internal)",
        stats.total(),
        stats.ok,
        stats.query_errors,
        stats.malformed,
        stats.oversized,
        stats.overloaded,
        stats.deadline_exceeded,
        stats.shutting_down,
        stats.internal
    );
    Ok(())
}
