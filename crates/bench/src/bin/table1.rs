//! **Table I** — key functions in the proposed smart contract.
//!
//! Exercises every ABI function of the settlement contract on a live
//! private chain and reports the measured gas per call, reproducing the
//! paper's function inventory with this implementation's costs.

use tradefl_bench::{check, finish, fmt, Table, SEED};
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_engine::Engine;
use tradefl_solver::dbr::DbrSolver;

fn main() {
    let _trace = tradefl_bench::trace_from_args();
    let market = MarketConfig::table_ii().with_orgs(5).build(SEED).unwrap();
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let equilibrium = DbrSolver::new().solve(&game).expect("dbr converges");
    let (engine, report) = Engine::settle(&game, &equilibrium.profile, None).expect("settles");
    let chain = engine.network().validator(0).node.chain();

    let descriptions = [
        ("register()", "Join the trading session", "Registered"),
        ("depositSubmit()", "Issue bonds to the contract", "DepositSubmitted"),
        ("contributionSubmit()", "Submit contribution", "ContributionSubmitted"),
        ("payoffCalculate()", "Calculate the payoff", "PayoffCalculated"),
        ("payoffTransfer()", "Perform payoff redistribution", "PayoffTransferred"),
        ("profileRecord()", "Record the contribution profile", "ProfileRecorded"),
    ];
    let mut table = Table::new(
        "Table I: key functions in the TradeFL smart contract",
        &["function", "description", "events emitted"],
    );
    let mut ok = true;
    for (func, desc, event) in descriptions {
        let count = chain.logs_by_event(event).count();
        table.row(vec![func.to_string(), desc.to_string(), count.to_string()]);
        ok &= check(&format!("{func} executed on-chain (emitted {count} {event})"), count > 0);
    }
    table.print();

    println!(
        "\nsettlement: total gas {}, chain height {}, max |on-chain − Eq.(10)| = {}",
        report.total_gas,
        report.chain_height,
        fmt(report.max_abs_error)
    );
    ok &= check("on-chain redistribution matches Eq. (10)", report.consistent(1e-3));
    ok &= check("chain verifies end-to-end", chain.verify().is_ok());
    finish(ok);
}
