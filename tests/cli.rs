//! The `tradefl` binary's exit contract: a failed command exits 1 with
//! its error alone; a command line that does not parse also prints the
//! usage text.

use std::process::{Command, Output};

fn tradefl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tradefl")).args(args).output().expect("tradefl runs")
}

#[test]
fn a_runtime_error_exits_1_without_the_usage_text() {
    // A 72-org settlement runs out of gas in `payoffCalculate`.
    let out = tradefl(&["settle", "--orgs", "72"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("out of gas"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn a_parse_error_exits_1_with_the_usage_text() {
    for args in [&["frobnicate"][..], &["settle", "--orgs"]] {
        let out = tradefl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
