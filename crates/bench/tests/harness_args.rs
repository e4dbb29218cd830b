//! The harnesses' shared command line: a bad argument is a usage error
//! (exit 2) before any work starts.

use std::process::Command;

#[test]
fn harnesses_reject_what_they_do_not_take() {
    let reproduce = env!("CARGO_BIN_EXE_reproduce");
    let offline = env!("CARGO_BIN_EXE_bench_offline");
    for (bin, args) in [
        (reproduce, vec!["--scale", "pape"]),
        (reproduce, vec!["--scale"]),
        (reproduce, vec!["--paper"]),
        (reproduce, vec!["--threads", "4"]),
        (reproduce, vec!["--scale", "mid", "--scale", "mid"]),
        (offline, vec!["--threads", "x"]),
        (offline, vec!["--quiet", "--thread", "4"]),
    ] {
        let out = Command::new(bin).args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} did work");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("usage error:"), "{args:?}: {err}");
    }
}
