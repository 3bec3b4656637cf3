//! Integration: fast versions of the paper's headline claims, checked
//! across crates on small markets (the full-scale versions live in the
//! `tradefl-bench` figure binaries).

use tradefl::fl::probe::{quick_probe, SqrtFit};
use tradefl::prelude::*;
use tradefl::solver::baselines::{solve_fip, solve_gca, solve_tos, FipOptions, GcaOptions};

fn game_with_gamma(gamma: f64, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
    let mut cfg = MarketConfig::table_ii().with_orgs(6);
    cfg.params.gamma = gamma;
    CoopetitionGame::new(cfg.build(seed).unwrap(), SqrtAccuracy::paper_default())
}

#[test]
fn redistribution_increases_data_contribution() {
    // §I: "increases the amount of contributed data by up to 64%".
    let game = game_with_gamma(5.12e-9, 1);
    let dbr = DbrSolver::new().solve(&game).unwrap();
    let wpr = DbrSolver::with_options(tradefl::solver::DbrOptions {
        objective: tradefl::solver::Objective::WithoutRedistribution,
        ..Default::default()
    })
    .solve(&game)
    .unwrap();
    assert!(
        dbr.total_fraction > wpr.total_fraction * 1.2,
        "dbr {} vs wpr {}",
        dbr.total_fraction,
        wpr.total_fraction
    );
}

#[test]
fn welfare_is_non_monotone_in_gamma() {
    // Fig. 7 / Fig. 10: welfare rises to an interior peak then falls.
    let welfare_at = |gamma: f64| DbrSolver::new().solve(&game_with_gamma(gamma, 2)).unwrap().welfare;
    let low = welfare_at(0.0);
    let mid = welfare_at(5.12e-9);
    let high = welfare_at(1e-7);
    assert!(mid > low, "peak must beat gamma=0: {mid} vs {low}");
    assert!(mid > high, "peak must beat large gamma: {mid} vs {high}");
}

#[test]
fn damage_decreases_with_gamma() {
    // Fig. 9.
    let damage_at = |gamma: f64| {
        DbrSolver::new().solve(&game_with_gamma(gamma, 3)).unwrap().total_damage
    };
    assert!(damage_at(5.12e-9) < damage_at(0.0));
    assert!(damage_at(5e-8) <= damage_at(5.12e-9) * 1.02);
}

#[test]
fn scheme_ordering_matches_fig6() {
    let game = game_with_gamma(5.12e-9, 4);
    let dbr = DbrSolver::new().solve(&game).unwrap();
    let fip = solve_fip(&game, FipOptions::default()).unwrap();
    let gca = solve_gca(&game, GcaOptions::default()).unwrap();
    let tol = 1e-6 * dbr.potential.abs().max(1.0);
    assert!(dbr.potential >= fip.potential - tol);
    assert!(dbr.potential >= gca.potential - tol);
}

#[test]
fn tos_contributes_everything_and_ignores_constraints() {
    let game = game_with_gamma(5.12e-9, 5);
    let tos = solve_tos(&game);
    assert_eq!(tos.total_fraction, game.market().len() as f64);
    // TOS generally violates the deadline — that is why it is
    // "theoretical": validation must fail for at least one org at
    // levels where d=1 exceeds the cap.
    let violates = tos.profile.validate(game.market()).is_err();
    let all_caps_loose = (0..game.market().len()).all(|i| {
        let m = game.market().org(i).compute_level_count() - 1;
        game.market().deadline_cap(i, m) >= 1.0
    });
    assert!(violates || all_caps_loose);
}

#[test]
fn measured_accuracy_curve_feeds_the_mechanism() {
    // §III-C workflow: probe -> fit -> EmpiricalAccuracy -> solve.
    let pts = quick_probe(ModelKind::MobilenetLike, DatasetKind::EurosatLike, 11).unwrap();
    let fit = SqrtFit::fit(&pts);
    assert!(fit.c1 > 0.0);
    let market = MarketConfig::table_ii().with_orgs(4).build(11).unwrap();
    let bits_per_sample = market.org(0).data_bits() / market.org(0).samples() as f64;
    let empirical = fit.to_empirical(100.0, 30_000.0, bits_per_sample, 16).unwrap();
    let game = CoopetitionGame::new(market, empirical);
    let eq = DbrSolver::new().solve(&game).unwrap();
    assert!(eq.converged);
    let audit = MechanismAudit::evaluate(&game, &eq.profile);
    assert!(audit.budget_balanced_rel(1e-9));
}

#[test]
fn theorem1_potential_identity_across_crate_boundary() {
    // Re-verify the weighted-potential identity using public APIs only.
    let game = game_with_gamma(5.12e-9, 6);
    let eq = DbrSolver::new().solve(&game).unwrap();
    for i in 0..game.market().len() {
        let dev = Strategy::new(game.market().params().d_min, 0);
        if game.market().feasible_range(i, 0).is_some() {
            let gap = game.potential_identity_gap(&eq.profile, i, dev);
            assert!(gap < 1e-6, "identity gap {gap} at org {i}");
        }
    }
}

#[test]
fn exiting_competitors_raise_remaining_payoffs() {
    // A coalition what-if: when the most intense competitor leaves, the
    // remaining organizations' damage falls and their equilibrium
    // payoffs rise.
    let market = MarketConfig::table_ii().with_orgs(6).build(8).unwrap();
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let full = DbrSolver::new().solve(&game).unwrap();

    // Drop the org exerting the largest total pressure on the others.
    let n = game.market().len();
    let worst = (0..n)
        .max_by(|&a, &b| {
            let pa: f64 = (0..n).map(|j| game.market().rho(j, a)).sum();
            let pb: f64 = (0..n).map(|j| game.market().rho(j, b)).sum();
            pa.total_cmp(&pb)
        })
        .unwrap();
    let keep: Vec<usize> = (0..n).filter(|&i| i != worst).collect();
    let market = game.market();
    let sub_market = Market::new(
        keep.iter().map(|&i| market.org(i).clone()).collect(),
        keep.iter().map(|&i| keep.iter().map(|&j| market.rho(i, j)).collect()).collect(),
        market.params().clone(),
    )
    .unwrap();
    let sub_game = CoopetitionGame::new(sub_market, SqrtAccuracy::paper_default());
    let sub = DbrSolver::new().solve(&sub_game).unwrap();

    // Per-org average payoff rises for the survivors.
    let avg_full: f64 = keep
        .iter()
        .map(|&i| game.payoff(&full.profile, i))
        .sum::<f64>()
        / keep.len() as f64;
    let avg_sub: f64 = (0..keep.len())
        .map(|i| sub_game.payoff(&sub.profile, i))
        .sum::<f64>()
        / keep.len() as f64;
    assert!(
        avg_sub > avg_full * 0.99,
        "survivors should not be worse off: {avg_sub} vs {avg_full}"
    );
    assert!(
        sub.total_damage < full.total_damage,
        "less competition, less damage: {} vs {}",
        sub.total_damage,
        full.total_damage
    );
}
