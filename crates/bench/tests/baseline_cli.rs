//! The `baseline` binary answers bad command lines and bad files with a
//! message and an exit code, never a panic: usage errors exit 2, a file
//! that fails `--check` exits 1.

use std::process::{Command, Output};

fn baseline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_baseline")).args(args).output().expect("baseline runs")
}

#[test]
fn missing_values_and_unknown_flags_print_usage_and_exit_2() {
    for args in [
        &["--out"][..],
        &["--check"],
        &["--gate", "current.json"],
        &["--trace"],
        &["--bogus"],
        &["positional"],
    ] {
        let out = baseline(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: baseline"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn check_rejects_unreadable_and_hostile_files_with_exit_1() {
    let dir = std::env::temp_dir().join(format!("baseline-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("write");
    let missing = dir.join("missing.json");
    for (path, needle) in [(&deep, "nesting deeper"), (&missing, "cannot read")] {
        let out = baseline(&["--check", path.to_str().expect("utf-8 path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(needle), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
