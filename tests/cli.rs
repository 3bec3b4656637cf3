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
fn a_solver_that_does_not_converge_names_its_scheme() {
    // WPR at seed 0 is the one Table II scheme and seed in 0..40 whose
    // dynamics hit the 200-round cap; the error names WPR, not the DBR
    // it runs on the γ = 0 market, and the residual is that run's.
    let out = tradefl(&["solve", "--scheme", "wpr", "--seed", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr, "error: wpr did not converge after 200 iterations (residual 4.472e-10)\n");
}

#[test]
fn the_largest_settleable_market_settles() {
    // 71 orgs is the last size whose `payoffCalculate` fits the call gas.
    let out = tradefl(&["settle", "--orgs", "71"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("chain verified"), "{stderr}");
}

#[test]
fn settle_prints_the_blocks_the_engine_mined() {
    // The printed count is the mined blocks, not the chain height
    // (which also counts genesis): the same 10-org, seed-42 settlement
    // run in process must report that many blocks.
    use tradefl::prelude::*;
    let out = tradefl(&["settle", "--orgs", "10"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let printed: u64 = stdout
        .split_once("settled 10 organizations in ")
        .and_then(|(_, rest)| rest.split_once(" blocks"))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no block count in:\n{stdout}"));

    let market = MarketConfig::table_ii().with_orgs(10).build(42).expect("market builds");
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let eq = DbrSolver::new().solve(&game).expect("DBR converges");
    let (mut engine, report) = Engine::settle(&game, &eq.profile, None).expect("settles");
    let mined = engine.report().expect("engine reports").blocks;
    assert_eq!(printed, mined, "{stdout}");
    assert_eq!(report.chain_height as u64, mined + 1, "the chain height counts genesis");
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
