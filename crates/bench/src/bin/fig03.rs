//! **Fig. 3** — procedure of the proposed TradeFL based on
//! smart-contract: a step-by-step transcript of the three-stage
//! protocol (deposit → contribute → settle), plus the credibility
//! properties: immutability (tamper detection) and traceability
//! (arbitration from recorded events).

use tradefl_bench::{check, finish, Table, SEED};
use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_ledger::chain::Blockchain;
use tradefl_ledger::settlement::SettlementSession;
use tradefl_ledger::tx::Value;
use tradefl_ledger::types::Wei;
use tradefl_solver::dbr::DbrSolver;

fn main() {
    let _trace = tradefl_bench::trace_from_args();
    let market = MarketConfig::table_ii().with_orgs(3).build(SEED).unwrap();
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let eq = DbrSolver::new().solve(&game).expect("dbr converges");
    let mut session = SettlementSession::deploy(&game).expect("deploys");

    println!("step 0: contract deployed at {}", session.contract());
    let report = session.settle(&game, &eq.profile).expect("settles");
    let chain = session.node().chain();

    let mut transcript = Table::new(
        "Fig. 3: on-chain procedure transcript",
        &["step", "event", "count", "example fields"],
    );
    for (step, event) in [
        ("1a", "Registered"),
        ("1b", "DepositSubmitted"),
        ("2", "ContributionSubmitted"),
        ("3a", "PayoffCalculated"),
        ("3b", "PayoffTransferred"),
        ("3c", "ProfileRecorded"),
    ] {
        let logs: Vec<_> = chain.logs_by_event(event).collect();
        let example = logs
            .first()
            .map(|l| {
                l.fields
                    .iter()
                    .map(|(k, v)| match v {
                        Value::Fixed(f) => format!("{k}={:.4}", f.to_f64()),
                        Value::I128(i) => format!("{k}={i}"),
                        Value::Addr(a) => format!("{k}={a}"),
                        other => format!("{k}={other:?}"),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default();
        transcript.row(vec![step.into(), event.into(), logs.len().to_string(), example]);
    }
    transcript.print();

    println!(
        "\nchain height {}, total settlement gas {}",
        report.chain_height, report.total_gas
    );

    let mut ok = true;
    // Credibility property 1: automatic, undeniable execution — the
    // refunds moved real balances.
    let refunds = chain.logs_by_event("PayoffTransferred").count();
    ok &= check("payoffTransfer executed automatically for every org", refunds == 3);

    // Credibility property 2: immutability — tampering with a recorded
    // contribution is detected by chain verification.
    ok &= check("tampering with a recorded contribution is detected", tamper_detected(chain));

    // Credibility property 3: traceability — arbitration can replay the
    // full profile history from events alone.
    let profiles: Vec<_> = chain.logs_by_event("ProfileRecorded").collect();
    let mut arbitration = Table::new(
        "arbitration evidence (replayed from chain events)",
        &["org", "d", "f (GHz)", "R_i (payoff units)"],
    );
    for log in &profiles {
        let d = log.field("d").and_then(Value::as_fixed).map(|f| f.to_f64());
        let f_ghz = log.field("f_ghz").and_then(Value::as_fixed).map(|f| f.to_f64());
        let r = log
            .field("redistribution")
            .and_then(Value::as_fixed)
            .map(|f| f.to_f64());
        arbitration.row(vec![
            format!("{}", log.field("org").and_then(Value::as_addr).unwrap()),
            format!("{:.4}", d.unwrap_or(f64::NAN)),
            format!("{:.3}", f_ghz.unwrap_or(f64::NAN)),
            format!("{:.4}", r.unwrap_or(f64::NAN)),
        ]);
    }
    arbitration.print();
    ok &= check("profile history replayable from events", profiles.len() == 3);
    ok &= check(
        "recorded d match the equilibrium profile",
        profiles.iter().zip(0..3).all(|(log, _)| {
            let d = log.field("d").and_then(Value::as_fixed).unwrap().to_f64();
            (0..3).any(|i| (eq.profile[i].d - d).abs() < 1e-6)
        }),
    );
    finish(ok);
}

/// Rewrites history in a copy of `chain` — the value of the first
/// transaction in the first block that has one — and reports whether
/// rebuilding or verifying the altered chain catches it.
fn tamper_detected(chain: &Blockchain) -> bool {
    let blocks = chain.blocks();
    assert!(blocks.len() > 2);
    let target = blocks.iter().position(|b| !b.txs.is_empty()).expect("some block has txs");
    let mut altered = Blockchain::new();
    for (i, block) in blocks.iter().enumerate() {
        let mut b = block.clone();
        if i == target {
            b.txs[0].value = Wei(987_654_321);
        }
        // push() validates each block against the tip.
        if altered.push(b).is_err() {
            return true; // tamper detected at insertion
        }
    }
    altered.verify().is_err()
}
