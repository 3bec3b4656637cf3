//! The full TradeFL pipeline in one run: market → equilibrium →
//! credible on-chain settlement → federated training at the agreed
//! contributions — and a comparison against training without the
//! mechanism.
//!
//! Run with: `cargo run --release --example end_to_end`
//!
//! Pass `--trace out.jsonl` to record the run's observability stream
//! (solver iterations, FL rounds, mined blocks, pool/ledger counters)
//! as `tradefl-trace/v1` JSON Lines.

use tradefl::pipeline::{Pipeline, PipelineConfig};
use tradefl::prelude::*;
use tradefl_runtime::obs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = obs::trace_path_from_args();
    let config = PipelineConfig::paper();
    let report = Pipeline::new(config).run(42)?;

    println!("equilibrium (DBR, Algorithm 2):");
    println!("  rounds to converge : {}", report.equilibrium.iterations);
    println!("  social welfare     : {:.1}", report.equilibrium.welfare);
    println!("  total data (sum d) : {:.2}", report.equilibrium.total_fraction);

    println!("\non-chain settlement (Fig. 3):");
    println!("  chain height       : {}", report.settlement.chain_height);
    println!("  total gas          : {}", report.settlement.total_gas);
    println!("  on/off-chain error : {:.2e}", report.settlement.max_abs_error);
    assert!(report.settlement.consistent(1e-3));

    println!("\nfederated training at the agreed contributions:");
    let first = report.training.history.first().unwrap();
    let last = report.training.history.last().unwrap();
    println!("  round 0 : loss {:.3}, accuracy {:.3}", first.loss, first.accuracy);
    println!("  round {:>2}: loss {:.3}, accuracy {:.3}", last.round, last.loss, last.accuracy);

    // Counterfactual: same market without payoff redistribution (WPR).
    let market = MarketConfig::table_ii().build(42)?;
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let wpr = tradefl::solver::DbrSolver::with_options(tradefl::solver::DbrOptions {
        objective: tradefl::solver::Objective::WithoutRedistribution,
        ..Default::default()
    })
    .solve(&game)?;
    println!(
        "\nwithout TradeFL, organizations would contribute only {:.2} (vs {:.2}) units of data",
        wpr.total_fraction, report.equilibrium.total_fraction
    );
    assert!(report.equilibrium.total_fraction > wpr.total_fraction);

    if let Some(path) = &trace {
        obs::write_trace(path)?;
        println!("trace written to {}", path.display());
    }
    Ok(())
}
