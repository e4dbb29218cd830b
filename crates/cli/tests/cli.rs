//! End-to-end tests of the command-line tool, driving the real binary.

use std::ffi::OsStr;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asteria-cli"))
}

/// A file in the temp dir, deleted (if it was ever made) once the test
/// drops it, so runs of the suite leave nothing behind.
struct TempPath(PathBuf);

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl Deref for TempPath {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<OsStr> for TempPath {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

fn temp_path(name: &str) -> TempPath {
    let mut p = std::env::temp_dir();
    p.push(format!("asteria_cli_test_{}_{name}", std::process::id()));
    TempPath(p)
}

const DEMO: &str = "int double_it(int x) { return x * 2; }\n\
                    int saturate(int x) { if (x > 100) { return 100; } return x; }\n";

/// Writes the demo source to a fresh file: tests run concurrently, and
/// rewriting one shared file let a test compile a half-written copy.
fn write_demo() -> TempPath {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let src = temp_path(&format!("demo{}.mc", NEXT.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&src, DEMO).expect("write source");
    src
}

#[test]
fn compile_info_run_roundtrip() {
    let src = write_demo();
    let out = temp_path("demo_arm.sbf");

    let s = cli()
        .args([
            "compile",
            src.to_str().unwrap(),
            "--arch",
            "arm",
            "-o",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(s.status.success(), "{}", String::from_utf8_lossy(&s.stderr));

    let info = cli()
        .args(["info", out.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("double_it"), "{text}");
    assert!(text.contains("saturate"), "{text}");

    let run = cli()
        .args(["run", out.to_str().unwrap(), "double_it", "21"])
        .output()
        .expect("spawn");
    assert!(run.status.success());
    assert_eq!(String::from_utf8_lossy(&run.stdout).trim(), "42");

    let run2 = cli()
        .args(["run", out.to_str().unwrap(), "saturate", "1000"])
        .output()
        .expect("spawn");
    assert_eq!(String::from_utf8_lossy(&run2.stdout).trim(), "100");
}

#[test]
fn decompile_and_disasm_render() {
    let src = write_demo();
    let out = temp_path("demo_x64.sbf");
    assert!(cli()
        .args([
            "compile",
            src.to_str().unwrap(),
            "--arch",
            "x64",
            "-o",
            out.to_str().unwrap()
        ])
        .status()
        .expect("spawn")
        .success());

    let dec = cli()
        .args(["decompile", out.to_str().unwrap(), "--function", "saturate"])
        .output()
        .expect("spawn");
    let text = String::from_utf8_lossy(&dec.stdout);
    assert!(text.contains("int saturate(int a0)"), "{text}");
    assert!(text.contains("return 100;"), "{text}");

    let dis = cli()
        .args(["disasm", out.to_str().unwrap()])
        .output()
        .expect("spawn");
    let text = String::from_utf8_lossy(&dis.stdout);
    assert!(text.contains("x64 <double_it>:"), "{text}");
    assert!(text.contains("ret"), "{text}");
}

#[test]
fn strip_removes_names_and_similarity_scores() {
    let src = write_demo();
    let arm = temp_path("sim_arm.sbf");
    let x86 = temp_path("sim_x86.sbf");
    for (arch, out) in [("arm", &arm), ("x86", &x86)] {
        assert!(cli()
            .args([
                "compile",
                src.to_str().unwrap(),
                "--arch",
                arch,
                "-o",
                out.to_str().unwrap()
            ])
            .status()
            .expect("spawn")
            .success());
    }

    let stripped = temp_path("stripped.sbf");
    assert!(cli()
        .args([
            "strip",
            arm.to_str().unwrap(),
            "-o",
            stripped.to_str().unwrap()
        ])
        .status()
        .expect("spawn")
        .success());
    let info = cli()
        .args(["info", stripped.to_str().unwrap()])
        .output()
        .expect("spawn");
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("sub_"), "{text}");
    assert!(!text.contains("double_it"), "{text}");

    let sim = cli()
        .args([
            "similarity",
            &format!("{}:saturate", arm.display()),
            &format!("{}:saturate", x86.display()),
        ])
        .output()
        .expect("spawn");
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    let text = String::from_utf8_lossy(&sim.stdout);
    assert!(text.contains("calibrated similarity"), "{text}");
}

#[test]
fn unknown_command_fails_gracefully() {
    let out = cli().args(["frobnicate"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_file_reports_error() {
    let out = cli()
        .args(["info", "/nonexistent/file.sbf"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn usage_errors_exit_with_code_2() {
    // Missing positional argument.
    let out = cli().args(["disasm"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    // Bad flag value.
    let src = write_demo();
    let out = cli()
        .args([
            "compile",
            src.to_str().unwrap(),
            "--arch",
            "mips",
            "-o",
            "/tmp/never.sbf",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown architecture"));
    // Non-integer run argument.
    let bin = temp_path("usage_arm.sbf");
    assert!(cli()
        .args([
            "compile",
            src.to_str().unwrap(),
            "--arch",
            "arm",
            "-o",
            bin.to_str().unwrap()
        ])
        .status()
        .expect("spawn")
        .success());
    let out = cli()
        .args(["run", bin.to_str().unwrap(), "double_it", "not-a-number"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn malformed_sbf_exits_with_code_1_not_a_panic() {
    let junk = temp_path("junk.sbf");
    std::fs::write(&junk, b"not an sbf file at all").expect("write junk");
    for cmd in ["info", "disasm", "decompile"] {
        let out = cli()
            .args([cmd, junk.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("cannot parse"), "{cmd}: {err}");
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }
}

#[test]
fn index_build_then_warm_rebuild_serves_every_binary_from_cache() {
    let idx = temp_path("cache.asix");
    let _ = std::fs::remove_file(&idx);

    let cold = cli()
        .args([
            "index",
            "build",
            "-o",
            idx.to_str().unwrap(),
            "--images",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let text = String::from_utf8_lossy(&cold.stdout);
    assert!(text.contains("embedding cache: 0 hits"), "{text}");
    assert!(text.contains("cached binaries"), "{text}");

    let warm = cli()
        .args([
            "index",
            "build",
            "-o",
            idx.to_str().unwrap(),
            "--images",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(warm.status.success());
    let text = String::from_utf8_lossy(&warm.stdout);
    assert!(text.contains("0 misses"), "warm rebuild re-encoded: {text}");
    assert!(!text.contains("embedding cache: 0 hits"), "{text}");

    let info = cli()
        .args(["index", "info", idx.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("format v1"), "{text}");
    assert!(text.contains("model weights digest"), "{text}");
    assert!(text.contains("cached binaries"), "{text}");
}

#[test]
fn corrupt_index_file_is_a_typed_error_not_a_panic() {
    let idx = temp_path("corrupt.asix");
    std::fs::write(&idx, b"XSIA definitely not an index").expect("write junk");

    // `index info` must fail loudly with the typed error.
    let out = cli()
        .args(["index", "info", idx.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("bad magic"), "{err}");

    // `index build` must warn, discard the junk, and rebuild cold.
    let out = cli()
        .args([
            "index",
            "build",
            "-o",
            idx.to_str().unwrap(),
            "--images",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ignoring unusable index cache"), "{err}");
    assert!(cli()
        .args(["index", "info", idx.to_str().unwrap()])
        .status()
        .expect("spawn")
        .success());
}

#[test]
fn index_build_rejects_bad_model_file_with_exit_1() {
    let junk_model = temp_path("junk_model.bin");
    std::fs::write(&junk_model, b"not a model snapshot").expect("write junk");
    let idx = temp_path("never.asix");
    let out = cli()
        .args([
            "index",
            "build",
            "-o",
            idx.to_str().unwrap(),
            "--model",
            junk_model.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("not a loadable model"), "{err}");

    // `similarity` loads `--model` through the same loader.
    let src = write_demo();
    let sbf = temp_path("bad_model_sim.sbf");
    assert!(cli()
        .args([
            "compile",
            src.to_str().unwrap(),
            "--arch",
            "arm",
            "-o",
            sbf.to_str().unwrap()
        ])
        .status()
        .expect("spawn")
        .success());
    let target = format!("{}:saturate", sbf.display());
    let out = cli()
        .args([
            "similarity",
            &target,
            &target,
            "--model",
            junk_model.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("not a loadable model"), "{err}");
}

#[test]
fn index_usage_errors_exit_with_code_2() {
    // No subcommand.
    let out = cli().args(["index"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    // Missing -o.
    let out = cli().args(["index", "build"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing -o"));
}

#[test]
fn serve_rejects_unknown_flags_with_exit_2() {
    // A mistyped flag, or one `serve` no longer has, must fail loudly
    // rather than fall back to a default; the check runs before any
    // index is built.
    for (bad, value) in [("--batch-wiat-ms", "7"), ("--batch-wait-ms", "5")] {
        let out = cli()
            .args(["serve", "--stdio", "--images", "1", bad, value])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage error:") && err.contains(bad), "{err}");
    }
}

#[test]
fn index_build_and_train_reject_misspelled_flags_with_exit_2() {
    // Each of these used to run with the default value and exit 0.
    let idx = temp_path("misspelled.asix");
    let model = temp_path("misspelled_model.bin");
    let (idx_s, model_s) = (idx.to_str().unwrap(), model.to_str().unwrap());
    for (args, bad) in [
        (
            vec!["index", "build", "-o", idx_s, "--imgaes", "2"],
            "--imgaes",
        ),
        (vec!["train", "-o", model_s, "--epoch", "1"], "--epoch"),
        // A value flag with nothing after it is not a default either.
        (vec!["train", "-o", model_s, "--epochs"], "--epochs"),
    ] {
        let out = cli().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage error:") && err.contains(bad), "{err}");
    }
    assert!(!idx.exists() && !model.exists());
}

#[test]
fn obs_flags_write_metrics_and_trace_quietly() {
    let idx = temp_path("obs.asix");
    let _ = std::fs::remove_file(&idx);
    let prom = temp_path("obs.prom");
    let trace = temp_path("obs.jsonl");

    let out = cli()
        .args([
            "index",
            "build",
            "-o",
            idx.to_str().unwrap(),
            "--images",
            "2",
            "--quiet",
            "--metrics-out",
            prom.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // --quiet: not a byte on stderr — yet both artifacts are written.
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let prom_text = std::fs::read_to_string(&prom).expect("metrics file");
    assert!(
        prom_text.contains("# TYPE asteria_functions_indexed_total counter"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("asteria_cache_misses_total"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("asteria_decompile_lift_seconds_bucket"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("asteria_decompile_optimize_seconds_bucket"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("asteria_span_count{path=\"index-build/encode-binary\"}"),
        "{prom_text}"
    );

    let trace_text = std::fs::read_to_string(&trace).expect("trace file");
    for line in trace_text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    assert!(
        trace_text.contains("\"path\":\"index-build\""),
        "{trace_text}"
    );
    assert!(
        trace_text.contains("\"path\":\"index-build/encode-binary\""),
        "{trace_text}"
    );
}

#[test]
fn obs_flags_missing_value_is_a_usage_error() {
    for flag in ["--metrics-out", "--trace"] {
        let out = cli().args(["index", "info", flag]).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage error"),
            "{flag}"
        );
    }
}

#[test]
fn corrupt_code_reports_decode_offset() {
    // Compile a good binary, then scribble over the first symbol's code
    // so disassembly hits a bad opcode; stderr must name the byte offset.
    let src = write_demo();
    let bin = temp_path("corrupt_arm.sbf");
    assert!(cli()
        .args([
            "compile",
            src.to_str().unwrap(),
            "--arch",
            "arm",
            "-o",
            bin.to_str().unwrap()
        ])
        .status()
        .expect("spawn")
        .success());
    let bytes = std::fs::read(&bin).expect("read sbf");
    let mut b = asteria::compiler::Binary::load(bytes.as_slice()).expect("parse sbf");
    b.symbols[0].code = vec![0xff; 8]; // 0xff is an invalid ARM opcode
    let mut buf = Vec::new();
    b.save(&mut buf).expect("re-save");
    std::fs::write(&bin, &buf).expect("write corrupted");
    let out = cli()
        .args(["disasm", bin.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        err.contains("bad opcode") && err.contains("at byte 0"),
        "{err}"
    );
}

/// Compiles the demo source for ARM into a fresh binary.
fn compile_demo(name: &str) -> TempPath {
    let src = write_demo();
    let bin = temp_path(name);
    let out = cli()
        .args(["compile", src.to_str().unwrap(), "--arch", "arm", "-o"])
        .arg(&bin)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    bin
}

#[test]
fn run_passes_negative_integer_arguments() {
    let bin = compile_demo("negative_arm.sbf");
    let out = cli()
        .args(["run", bin.to_str().unwrap(), "double_it", "-5"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "-10");
}

#[test]
fn every_command_rejects_a_misspelled_flag_with_exit_2() {
    let src = write_demo();
    let bin = compile_demo("misspelled_arm.sbf");
    let dest = temp_path("misspelled_out");
    let (src, bin, dest) = (
        src.to_str().unwrap(),
        bin.to_str().unwrap(),
        dest.to_str().unwrap(),
    );
    let target = format!("{bin}:double_it");
    for (args, bad) in [
        (vec!["compile", src, "--ach", "arm", "-o", dest], "--ach"),
        (vec!["info", bin, "--verbos"], "--verbos"),
        (vec!["disasm", bin, "--functon", "nope"], "--functon"),
        (vec!["decompile", bin, "--functon", "nope"], "--functon"),
        (
            vec!["run", bin, "double_it", "3", "--trcae", "t"],
            "--trcae",
        ),
        (vec!["strip", bin, "--out", dest], "--out"),
        (vec!["train", "-o", dest, "--epoch", "1"], "--epoch"),
        (
            vec!["similarity", &target, &target, "--modle", bin],
            "--modle",
        ),
        (
            vec!["index", "build", "-o", dest, "--imgaes", "2"],
            "--imgaes",
        ),
        (vec!["index", "info", bin, "--mdoel", bin], "--mdoel"),
        (
            vec!["serve", "--stdio", "--batch-wiat-ms", "7"],
            "--batch-wiat-ms",
        ),
    ] {
        let out = cli().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} did work");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage error:") && err.contains(bad), "{err}");
        assert!(
            err.contains(&format!("usage: asteria-cli {}", args[0])),
            "{err}"
        );
    }
    assert!(!std::path::Path::new(dest).exists());
}

#[test]
fn repeated_and_misplaced_flags_are_usage_errors() {
    let src = write_demo();
    let dest = temp_path("repeated.sbf");
    for flag in [["--arch", "arm"], ["--quiet", "--quiet"]] {
        let out = cli()
            .args(["compile", src.to_str().unwrap(), "--arch", "x86", "-o"])
            .arg(&dest)
            .args(flag)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage error:") && err.contains("twice"),
            "{err}"
        );
    }
    assert!(!dest.exists());
    // A flag where a value belongs, an unknown subcommand, a missing
    // positional, and a command flag before its command.
    for args in [
        vec!["train", "-o", "--epochs", "3"],
        vec!["index", "frob"],
        vec!["similarity", "a.sbf:f"],
        vec!["--images", "2", "index", "build", "-o", "never.asix"],
    ] {
        let out = cli().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage error:"));
    }
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let bin = compile_demo("closed_stdout_arm.sbf");
    let bin = bin.to_str().unwrap();
    let prom = temp_path("closed_stdout.prom");
    let _ = std::fs::remove_file(&prom);
    for args in [
        vec!["decompile", bin],
        vec!["disasm", bin],
        vec!["info", bin],
        vec!["run", bin, "double_it", "4"],
        vec!["help"],
        vec![
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--images",
            "1",
            "--quiet",
        ],
        vec!["decompile", bin, "--metrics-out", prom.to_str().unwrap()],
    ] {
        // The reader end is gone before the command starts, so its first
        // write to stdout fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = cli().args(&args).stdout(writer).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
    }
    let metrics = std::fs::read_to_string(&prom).expect("metrics still written");
    assert!(metrics.contains("asteria_"), "{metrics}");
}

#[test]
fn an_external_symbol_is_not_a_function() {
    let src = temp_path("external.mc");
    std::fs::write(&src, "int f(int x) { return ext(x) + 1; }\n").expect("write source");
    let bin = temp_path("external_arm.sbf");
    let out = cli()
        .args(["compile", src.to_str().unwrap(), "--arch", "arm", "-o"])
        .arg(&bin)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bin = bin.to_str().unwrap();
    let (ext, f) = (format!("{bin}:ext"), format!("{bin}:f"));
    for args in [
        vec!["disasm", bin, "--function", "ext"],
        vec!["decompile", bin, "--function", "ext"],
        vec!["run", bin, "ext", "1"],
        vec!["similarity", &ext, &f],
    ] {
        let out = cli().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("`ext` is an external symbol, not a function"),
            "{args:?}: {err}"
        );
    }
}
