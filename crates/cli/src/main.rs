//! `asteria-cli` — a command-line front end over the whole reproduction:
//! compile MiniC to `.sbf` binaries, inspect, disassemble, decompile and
//! run them, train a model, score two functions, build an ASIX index and
//! serve similarity queries. `asteria-cli help` prints every command's
//! synopsis.
//!
//! Every command is one entry of [`COMMANDS`]: its synopsis, which names
//! its flags, and its positional count. One parser reads that table
//! together with the global flags, so an unknown, repeated or value-less
//! flag and a wrong number of positionals are all usage errors (exit 2)
//! before any work starts. An argument that parses as an integer
//! is always a positional, so `run demo.sbf f -5` passes `-5`. Data errors
//! exit 1; a reader that closes stdout early ends the command quietly
//! with exit 0.

use std::fs;
use std::io::{self, Write};
use std::net::TcpListener;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::sync::Arc;

use asteria::compiler::{compile_program, decode_function, Arch, Binary, SymbolKind, Vm};
use asteria::core::{
    extract_function, function_similarity, train, AsteriaModel, ModelConfig, TrainOptions,
    DEFAULT_INLINE_BETA,
};
use asteria::datasets::{build_corpus, build_pairs, to_train_pairs, CorpusConfig, PairConfig};
use asteria::decompiler::{decompile_function, render_function};
use asteria::obs::Verbosity;
use asteria::serve::{self, ServeConfig};
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, IndexBuild, IndexBuilder,
    IndexCache, SearchSession, ASIX_VERSION,
};

/// A CLI failure, split by who got it wrong: the invocation (exit code
/// 2, like the conventional shell usage-error code) or the input data
/// (exit code 1 — unparsable binaries, decode/decompile failures, I/O).
enum CliError {
    /// The command line itself is malformed.
    Usage(String),
    /// The inputs failed to load, decode, decompile or execute.
    Data(String),
    /// The reader of stdout went away; nothing is left to report to.
    StdoutClosed,
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Data(msg)
    }
}

/// Where a command writes its output: stdout, each write flushed so a
/// line reaches the reader at once (`serve --listen 127.0.0.1:0` callers
/// learn the port from its `listening on` line). Write errors become
/// [`CliError`]s here, the one place that knows they come from stdout.
/// The handle is not held locked: `serve --stdio` writes its responses
/// from another thread.
struct Out(io::Stdout);

impl Out {
    /// Backs `writeln!` on an `Out`.
    fn write_fmt(&mut self, args: std::fmt::Arguments) -> Result<(), CliError> {
        let written = self.0.write_fmt(args).and_then(|()| self.0.flush());
        written.map_err(|e| match e.kind() {
            io::ErrorKind::BrokenPipe => CliError::StdoutClosed,
            _ => CliError::Data(format!("stdout: {e}")),
        })
    }
}

/// One command of the CLI.
struct Command {
    /// The one-line synopsis `help` and usage errors print. It is also the
    /// command's grammar: its leading lowercase words name the command,
    /// and a flag in it takes a value when a placeholder follows it
    /// (`-o <out.sbf>`), none when another flag or the end does
    /// (`--stdio`).
    synopsis: &'static str,
    /// How many positional arguments it takes.
    positionals: RangeInclusive<usize>,
    /// The command itself, writing its output to the given stdout.
    run: fn(&Args, &mut Out) -> Result<(), CliError>,
}

impl Command {
    /// The command words, e.g. `index build`.
    fn name(&self) -> String {
        let lowercase = |w: &&str| w.bytes().all(|b| b.is_ascii_lowercase());
        let words: Vec<&str> = self.synopsis.split(' ').take_while(lowercase).collect();
        words.join(" ")
    }
}

/// Every command, in `help` order.
const COMMANDS: &[Command] = &[
    Command {
        synopsis: "compile <src.mc> [--arch x86|x64|arm|ppc] -o <out.sbf>",
        positionals: 1..=1,
        run: cmd_compile,
    },
    Command {
        synopsis: "info <bin.sbf>",
        positionals: 1..=1,
        run: cmd_info,
    },
    Command {
        synopsis: "disasm <bin.sbf> [--function NAME]",
        positionals: 1..=1,
        run: cmd_disasm,
    },
    Command {
        synopsis: "decompile <bin.sbf> [--function NAME]",
        positionals: 1..=1,
        run: cmd_decompile,
    },
    Command {
        synopsis: "run <bin.sbf> <function> [int args…]",
        positionals: 2..=usize::MAX,
        run: cmd_run,
    },
    Command {
        synopsis: "strip <bin.sbf> -o <out.sbf>",
        positionals: 1..=1,
        run: cmd_strip,
    },
    Command {
        synopsis: "train -o <model.bin> [--packages N] [--epochs E]",
        positionals: 0..=0,
        run: cmd_train,
    },
    Command {
        synopsis: "similarity <a.sbf>:<func> <b.sbf>:<func> [--model <model.bin>]",
        positionals: 2..=2,
        run: cmd_similarity,
    },
    Command {
        synopsis: "index build -o <index.asix> [--model <model.bin>] [--images N] [--seed S] \
                   [--threads N]",
        positionals: 0..=0,
        run: cmd_index_build,
    },
    Command {
        synopsis: "index info <index.asix>",
        positionals: 1..=1,
        run: cmd_index_info,
    },
    Command {
        synopsis: "serve --listen ADDR | --stdio [--model <model.bin>] [--index <index.asix>] \
                   [--images N] [--seed S] [--threads N] [--batch-size N] [--queue-capacity N] \
                   [--deadline-ms MS] [--max-request-bytes N]",
        positionals: 0..=0,
        run: cmd_serve,
    },
    Command {
        synopsis: "help",
        positionals: 0..=0,
        run: cmd_help,
    },
];

/// The flags every command takes, anywhere on its line: `--quiet` /
/// `--verbose` set the stderr verbosity, `--trace` writes a JSONL
/// span/event log and `--metrics-out` a Prometheus-style text exposition.
/// Recording is only enabled when an output is requested, so plain runs
/// keep the zero-cost no-op path.
const GLOBAL_SYNOPSIS: &str = "[--quiet | --verbose] [--metrics-out FILE] [--trace FILE]";

/// Whether `synopsis` spells `flag` and, if it does, whether the flag
/// takes a value.
fn flag_takes_value(synopsis: &str, flag: &str) -> Option<bool> {
    let mut words = synopsis
        .split(|c: char| c.is_whitespace() || "[]|".contains(c))
        .filter(|w| !w.is_empty())
        .skip_while(|w| *w != flag);
    words.next()?;
    Some(words.next().is_some_and(|w| !is_flag(w)))
}

/// Every flag given, the global ones included, with its value (empty for
/// a boolean flag).
type Flags = Vec<(String, String)>;

fn flag_value<'a>(flags: &'a [(String, String)], flag: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(f, _)| f == flag)
        .map(|(_, v)| v.as_str())
}

/// A command line that matched its command's grammar.
struct Args {
    command: &'static Command,
    positionals: Vec<String>,
    flags: Flags,
}

impl Args {
    /// The value of a flag, if given.
    fn value(&self, flag: &str) -> Option<&str> {
        flag_value(&self.flags, flag)
    }

    /// The value of a flag the command cannot run without.
    fn required(&self, flag: &str) -> Result<&str, CliError> {
        self.value(flag)
            .ok_or_else(|| self.usage(format!("missing {flag}")))
    }

    /// A numeric flag's value, or `default` when it is absent.
    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| self.usage(format!("bad {flag}: {v}"))),
            None => Ok(default),
        }
    }

    /// A usage error of this command, with its synopsis.
    fn usage(&self, problem: impl std::fmt::Display) -> CliError {
        command_usage(self.command, problem)
    }
}

fn command_usage(c: &Command, problem: impl std::fmt::Display) -> CliError {
    CliError::Usage(format!(
        "{}: {problem}\n  usage: asteria-cli {}",
        c.name(),
        c.synopsis
    ))
}

fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name() == name)
}

/// A flag, as opposed to a positional: a `-` word that is not a number.
fn is_flag(arg: &str) -> bool {
    arg.len() > 1 && arg.starts_with('-') && arg.parse::<i64>().is_err()
}

/// Parses the whole command line against [`COMMANDS`] and the global
/// flags. The flags come back even when the line is a usage error, so
/// teardown still writes the artifacts the global ones ask for.
fn parse(raw: &[String]) -> (Flags, Result<(&'static Command, Vec<String>), CliError>) {
    let mut words = Vec::new();
    let mut positionals = Vec::new();
    let mut flags = Flags::new();
    let mut cmd: Option<&'static Command> = None;
    let mut err = None;
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        let a = arg.as_str();
        let problem = if !is_flag(a) {
            if cmd.is_some() {
                positionals.push(arg.clone());
                None
            } else {
                words.push(a);
                let name = words.join(" ");
                cmd = command(&name);
                let prefix = COMMANDS
                    .iter()
                    .any(|c| c.name().starts_with(&format!("{name} ")));
                (cmd.is_none() && !prefix).then(|| format!("unknown command `{name}`"))
            }
        } else if flag_value(&flags, a).is_some() {
            Some(format!("`{a}` is given twice"))
        } else if let Some(takes_value) = flag_takes_value(GLOBAL_SYNOPSIS, a)
            .or_else(|| cmd.and_then(|c| flag_takes_value(c.synopsis, a)))
        {
            let value = match takes_value {
                true => it.next_if(|v| !is_flag(v)).cloned(),
                false => Some(String::new()),
            };
            let problem = value.is_none().then(|| format!("`{a}` needs a value"));
            flags.push((arg.clone(), value.unwrap_or_default()));
            problem
        } else {
            Some(format!("unknown flag `{a}`"))
        };
        if let Some(problem) = problem {
            err.get_or_insert_with(|| match cmd {
                Some(c) => command_usage(c, problem),
                None => CliError::Usage(format!("{problem} (try `asteria-cli help`)")),
            });
        }
    }
    let parsed = match (err, cmd) {
        (Some(e), _) => Err(e),
        (None, Some(c)) if c.positionals.contains(&positionals.len()) => Ok((c, positionals)),
        (None, Some(c)) => Err(command_usage(
            c,
            format!("wrong number of arguments ({})", positionals.len()),
        )),
        (None, None) if words.is_empty() => Ok((command("help").expect("listed"), positionals)),
        (None, None) => Err(CliError::Usage(format!(
            "`{}` needs a subcommand (try `asteria-cli help`)",
            words.join(" ")
        ))),
    };
    (flags, parsed)
}

/// Writes the requested observability artifacts from the global
/// collector. Metrics carry wall-clock timings, so these files are the
/// only outputs allowed to differ between otherwise identical runs.
fn write_obs_outputs(flags: &[(String, String)]) -> Result<(), String> {
    let Some(c) = asteria::obs::collector() else {
        return Ok(());
    };
    if let Some(path) = flag_value(flags, "--metrics-out") {
        fs::write(path, c.render_prometheus()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = flag_value(flags, "--trace") {
        fs::write(path, c.render_trace_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    if asteria::obs::verbosity() == Verbosity::Verbose {
        eprint!("{}", c.render_summary());
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (flags, parsed) = parse(&raw);
    let given = |flag| flag_value(&flags, flag).is_some();
    if given("--quiet") {
        asteria::obs::set_verbosity(Verbosity::Quiet);
    } else if given("--verbose") {
        asteria::obs::set_verbosity(Verbosity::Verbose);
    }
    if given("--metrics-out") || given("--trace") {
        asteria::obs::install().reset();
    }
    let result = parsed.and_then(|(command, positionals)| {
        let args = Args {
            command,
            positionals,
            flags: flags.clone(),
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&args))) {
            Ok(result) => result,
            Err(payload) => {
                // A panic exits through the same teardown as every other
                // path: flush whatever was recorded, then re-raise.
                let _ = write_obs_outputs(&flags);
                std::panic::resume_unwind(payload);
            }
        }
    });
    teardown(&flags, result)
}

/// Runs the parsed command against stdout.
fn run(args: &Args) -> Result<(), CliError> {
    (args.command.run)(args, &mut Out(io::stdout()))
}

/// The single exit path: every outcome — success, data error, usage
/// error, even a bad global flag — flushes `--metrics-out`/`--trace`
/// before the exit code is chosen. A partial trace is exactly what a
/// failure post-mortem needs.
fn teardown(flags: &[(String, String)], result: Result<(), CliError>) -> ExitCode {
    let wrote = write_obs_outputs(flags);
    match (result, wrote) {
        (Ok(()) | Err(CliError::StdoutClosed), Ok(())) => ExitCode::SUCCESS,
        (Ok(()) | Err(CliError::StdoutClosed), Err(e)) | (Err(CliError::Data(e)), _) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        (Err(CliError::Usage(e)), _) => {
            eprintln!("usage error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_help(_: &Args, out: &mut Out) -> Result<(), CliError> {
    writeln!(
        out,
        "asteria-cli — cross-platform binary code similarity toolkit\n\ncommands:"
    )?;
    for c in COMMANDS {
        writeln!(out, "  {}", c.synopsis)?;
    }
    writeln!(out, "\nglobal flags (any command): {GLOBAL_SYNOPSIS}")?;
    Ok(())
}

fn load_binary(path: &str) -> Result<Binary, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Binary::load(bytes.as_slice()).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The symbol index of the function `name` defined in `b`. An external
/// symbol of that name has no code to run, disassemble or score.
fn function_symbol(b: &Binary, name: &str) -> Result<usize, String> {
    match b.symbols.iter().position(|s| s.display_name() == name) {
        None => Err(format!("no function named {name}")),
        Some(i) if b.symbols[i].kind == SymbolKind::External => {
            Err(format!("`{name}` is an external symbol, not a function"))
        }
        Some(i) => Ok(i),
    }
}

/// The functions `disasm`/`decompile` print: the `--function`, or all.
fn selected_functions(args: &Args, b: &Binary) -> Result<Vec<usize>, String> {
    match args.value("--function") {
        Some(name) => Ok(vec![function_symbol(b, name)?]),
        None => Ok(b.function_indices()),
    }
}

fn cmd_compile(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let src_path = &args.positionals[0];
    let arch_name = args.value("--arch").unwrap_or("x86");
    let arch = Arch::from_name(arch_name)
        .ok_or_else(|| args.usage(format!("unknown architecture {arch_name}")))?;
    let dest = args.required("-o")?;
    let src = fs::read_to_string(src_path).map_err(|e| format!("{src_path}: {e}"))?;
    let program = asteria::lang::parse(&src).map_err(|e| e.to_string())?;
    let binary = compile_program(&program, arch).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    binary.save(&mut buf).map_err(|e| e.to_string())?;
    fs::write(dest, buf).map_err(|e| format!("{dest}: {e}"))?;
    writeln!(
        out,
        "compiled {} functions for {} → {} ({} bytes of code)",
        binary.function_indices().len(),
        arch,
        dest,
        binary.code_size()
    )?;
    Ok(())
}

fn cmd_info(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let b = load_binary(&args.positionals[0])?;
    writeln!(out, "{b}")?;
    writeln!(
        out,
        "{:<6} {:<10} {:<28} {:>8} {:>7} {:>7}",
        "idx", "kind", "name", "offset", "bytes", "params"
    )?;
    for (i, s) in b.symbols.iter().enumerate() {
        writeln!(
            out,
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
        )?;
    }
    Ok(())
}

fn cmd_disasm(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let b = load_binary(&args.positionals[0])?;
    for idx in selected_functions(args, &b)? {
        let s = &b.symbols[idx];
        writeln!(out, "{} <{}>:", b.arch, s.display_name())?;
        let insts = decode_function(&s.code, b.arch).map_err(|e| e.to_string())?;
        for (i, inst) in insts.iter().enumerate() {
            writeln!(out, "  {i:>4}: {inst}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn cmd_decompile(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let b = load_binary(&args.positionals[0])?;
    for idx in selected_functions(args, &b)? {
        let f = decompile_function(&b, idx).map_err(|e| e.to_string())?;
        writeln!(out, "{}", render_function(&f, &b))?;
    }
    Ok(())
}

fn cmd_run(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let b = load_binary(&args.positionals[0])?;
    let sym = function_symbol(&b, &args.positionals[1])?;
    let call_args: Result<Vec<i64>, _> = args.positionals[2..].iter().map(|a| a.parse()).collect();
    let call_args = call_args.map_err(|e| args.usage(format!("bad argument: {e}")))?;
    let result = Vm::new(&b)
        .call(sym, &call_args)
        .map_err(|e| e.to_string())?;
    writeln!(out, "{result}")?;
    Ok(())
}

fn cmd_strip(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let dest = args.required("-o")?;
    let mut b = load_binary(&args.positionals[0])?;
    b.strip();
    let mut buf = Vec::new();
    b.save(&mut buf).map_err(|e| e.to_string())?;
    fs::write(dest, buf).map_err(|e| format!("{dest}: {e}"))?;
    writeln!(out, "stripped → {dest}")?;
    Ok(())
}

fn cmd_train(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let dest = args.required("-o")?;
    let packages: usize = args.number("--packages", 8)?;
    let epochs: usize = args.number("--epochs", 8)?;
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
    fs::write(dest, model.snapshot()).map_err(|e| format!("{dest}: {e}"))?;
    writeln!(
        out,
        "saved model to {dest} (final loss {:.4})",
        stats.last().map(|s| s.mean_loss).unwrap_or(f32::NAN)
    )?;
    Ok(())
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

/// The search index `index build` and `serve` share: the `--model`
/// weights over the `--images`/`--seed` firmware corpus, encoded on
/// `threads` workers. A `cache` path seeds the incremental build from
/// the ASIX index there (a corrupt one costs a cold rebuild, never the
/// run) and persists the refreshed cache back. Returns the model, the
/// image count and the build.
fn build_index(
    args: &Args,
    threads: usize,
    cache: Option<&str>,
) -> Result<(AsteriaModel, usize, IndexBuild), CliError> {
    let config = FirmwareConfig {
        images: args.number("--images", 6)?,
        seed: args.number("--seed", 77)?,
        ..Default::default()
    };
    let model = load_model(args.value("--model"))?;
    let firmware = build_firmware_corpus(&config, &vulnerability_library());
    let mut builder = IndexBuilder::new(&model).threads(threads);
    if let Some(path) = cache {
        builder = builder.cache(path);
    }
    let build = builder.build(&firmware).map_err(|e| e.to_string())?;
    Ok((model, firmware.len(), build))
}

fn cmd_index_build(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let dest = args.required("-o")?;
    let threads = args.number("--threads", 0)?;
    let (_, images, build) = build_index(args, threads, Some(dest))?;
    writeln!(
        out,
        "indexed {} functions from {images} images ({})",
        build.index.len(),
        build.index.extraction
    )?;
    writeln!(out, "embedding cache: {}", build.stats)?;
    writeln!(
        out,
        "wrote {dest}: {} cached binaries, {} cached functions",
        build.cache.len(),
        build.cache.function_count()
    )?;
    Ok(())
}

fn cmd_index_info(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let path = &args.positionals[0];
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cache = IndexCache::load(bytes.as_slice()).map_err(|e| format!("{path}: {e}"))?;
    writeln!(out, "ASIX index {path} (format v{ASIX_VERSION})")?;
    writeln!(out, "model weights digest:  {:#018x}", cache.model_digest)?;
    writeln!(out, "extraction params:     {:#018x}", cache.params_digest)?;
    writeln!(out, "cached binaries:       {}", cache.len())?;
    writeln!(out, "cached functions:      {}", cache.function_count())?;
    Ok(())
}

fn cmd_similarity(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let target = |spec: &str| -> Result<(Binary, String, usize), CliError> {
        let (path, func) = spec
            .split_once(':')
            .ok_or_else(|| args.usage(format!("expected <file.sbf>:<function>, got {spec}")))?;
        let b = load_binary(path)?;
        let sym = function_symbol(&b, func).map_err(|e| format!("{path}: {e}"))?;
        Ok((b, func.to_string(), sym))
    };
    let (ba, func_a, sym_a) = target(&args.positionals[0])?;
    let (bb, func_b, sym_b) = target(&args.positionals[1])?;

    let model_path = args.value("--model");
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
    writeln!(
        out,
        "{func_a} [{}; {} nodes]  vs  {func_b} [{}; {} nodes]",
        ba.arch, fa.ast_size, bb.arch, fb.ast_size
    )?;
    writeln!(out, "AST similarity M(T1,T2)       = {m:.4}")?;
    writeln!(
        out,
        "calibrated similarity F(F1,F2) = {f:.4}  (callees {} vs {})",
        fa.callee_count, fb.callee_count
    )?;
    Ok(())
}

/// `serve`: the long-running similarity-query daemon. Loads the model
/// and builds (or restores, with `--index`) the search index **once**,
/// then answers line-delimited JSON queries over TCP (`--listen ADDR`)
/// or stdin/stdout (`--stdio`) until EOF, a `shutdown` op, or
/// SIGINT/SIGTERM — at which point it drains in-flight requests before
/// exiting, so the usual teardown still flushes `--metrics-out`/`--trace`.
fn cmd_serve(args: &Args, out: &mut Out) -> Result<(), CliError> {
    let stdio = args.value("--stdio").is_some();
    let listen = args.value("--listen");
    if stdio == listen.is_some() {
        return Err(args.usage("needs exactly one of --listen ADDR or --stdio"));
    }
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        batch_size: args.number("--batch-size", defaults.batch_size)?,
        queue_capacity: args.number("--queue-capacity", defaults.queue_capacity)?,
        default_deadline_ms: args.number("--deadline-ms", defaults.default_deadline_ms)?,
        max_request_bytes: args.number("--max-request-bytes", defaults.max_request_bytes)?,
        ..defaults
    };
    let threads = args.number("--threads", 0)?;
    let (model, images, build) = build_index(args, threads, args.value("--index"))?;
    asteria::obs::info!(
        "index ready: {} functions from {images} images ({})",
        build.index.len(),
        build.stats
    );
    let session = Arc::new(SearchSession::new(model, build.index).threads(threads));

    serve::signal::install_handlers();
    let stats = match listen {
        // Responses own stdout in stdio mode; status goes to stderr.
        None => serve::run_stdio(session, config, io::stdin().lock(), io::stdout()),
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            let handle = serve::start_tcp(session, config, listener).map_err(|e| e.to_string())?;
            // Announce the bound address so `--listen 127.0.0.1:0`
            // callers can discover the kernel-assigned port.
            writeln!(out, "listening on {}", handle.local_addr())?;
            handle.wait()
        }
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
