//! Integration: the full market → equilibrium → settlement → training
//! pipeline across all four crates.

use tradefl::pipeline::{Pipeline, PipelineConfig};
use tradefl::prelude::*;

#[test]
fn quick_pipeline_runs_end_to_end() {
    let report = Pipeline::new(PipelineConfig::quick()).run(3).expect("pipeline runs");
    assert!(report.equilibrium.converged);
    assert!(report.settlement.consistent(1e-3));
    assert!(report.settlement.total_gas > 0);
    let history = &report.training.history;
    assert!(history.last().unwrap().loss < history[0].loss, "training reduces loss");
}

#[test]
fn pipeline_is_deterministic_per_seed() {
    let a = Pipeline::new(PipelineConfig::quick()).run(9).unwrap();
    let b = Pipeline::new(PipelineConfig::quick()).run(9).unwrap();
    assert_eq!(a.equilibrium.profile, b.equilibrium.profile);
    assert_eq!(a.training.final_accuracy(), b.training.final_accuracy());
    assert_eq!(
        a.settlement.onchain_redistribution,
        b.settlement.onchain_redistribution
    );
}

#[test]
fn different_seeds_give_different_markets() {
    let a = Pipeline::new(PipelineConfig::quick()).run(1).unwrap();
    let b = Pipeline::new(PipelineConfig::quick()).run(2).unwrap();
    assert_ne!(a.equilibrium.profile, b.equilibrium.profile);
}

#[test]
fn equilibrium_beats_wpr_on_contribution_in_the_pipeline_market() {
    let report = Pipeline::new(PipelineConfig::quick()).run(5).unwrap();
    let market = MarketConfig::table_ii().with_orgs(4).build(5).unwrap();
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let wpr = tradefl::solver::solve_scheme(&game, Scheme::Wpr).unwrap();
    assert!(
        report.equilibrium.total_fraction >= wpr.total_fraction,
        "redistribution must not reduce contribution: {} vs {}",
        report.equilibrium.total_fraction,
        wpr.total_fraction
    );
}
