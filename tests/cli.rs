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

#[test]
fn tune_prints_the_same_bytes_at_any_pool_width() {
    // `TRADEFL_THREADS` sizes the child's global pool, on which the
    // grid pass and the golden-section pair are solved concurrently.
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_tradefl"))
            .args(["tune", "--orgs", "8", "--seed", "3"])
            .env("TRADEFL_THREADS", threads)
            .output()
            .expect("tradefl runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let serial = run("1");
    assert!(String::from_utf8_lossy(&serial).contains("tuned incentive intensity"));
    assert_eq!(run("2"), serial);
}
