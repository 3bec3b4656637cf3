//! Property-based tests for the solver stack: Nash-equilibrium quality
//! of DBR, CGBD's optimality guarantee (Lemma 3) against the exhaustive
//! oracle, primal-solver agreement, and the mechanism properties of
//! Theorem 2 at equilibrium.
//!
//! Runs on the in-tree `tradefl_runtime::check` harness with pinned
//! seeds; failures print a `TRADEFL_PROP_SEED` replay line.

use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::mechanism::MechanismAudit;
use tradefl_runtime::check::Gen;
use tradefl_runtime::{prop_assert, prop_assume, props};
use tradefl_solver::cgbd::{exhaustive_optimum, CgbdSolver};
use tradefl_solver::dbr::DbrSolver;
use tradefl_solver::primal::PrimalProblem;

fn any_game(g: &mut Gen, max_orgs: usize) -> CoopetitionGame<SqrtAccuracy> {
    let seed = g.u64(0..500);
    let n = g.usize(2..=max_orgs);
    let mu = g.f64(0.0..0.25);
    let market = MarketConfig::table_ii()
        .with_orgs(n)
        .with_rho_mean(mu)
        .build(seed)
        .expect("table-ii markets always build");
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

props! {
    #![cases = 16]

    /// DBR terminates at an ε-Nash equilibrium (Definition 6) for random
    /// markets: no sampled unilateral deviation improves any payoff.
    fn dbr_reaches_epsilon_nash(g) {
        let game = any_game(g, 7);
        let eq = DbrSolver::new().solve(&game).unwrap();
        prop_assert!(eq.converged);
        let gain = game.best_sampled_deviation_gain(&eq.profile, 16);
        prop_assert!(gain < 1e-3 * eq.welfare.abs().max(1.0), "deviation gain {gain}");
    }

    /// Lemma 3 on random small instances: CGBD's potential matches the
    /// brute-force optimum within (δ+ε).
    fn cgbd_is_delta_eps_optimal(g) {
        let game = any_game(g, 3);
        let report = CgbdSolver::default().solve(&game).unwrap();
        let (_, oracle) = exhaustive_optimum(&game, 1e-10).unwrap();
        let got = report.equilibrium.potential;
        prop_assert!(
            (oracle - got).abs() <= 2e-4 * oracle.abs().max(1.0),
            "oracle {oracle} vs cgbd {got}"
        );
    }

    /// The interior-point and projected-gradient primal solvers agree on
    /// random instances and level assignments.
    fn primal_solvers_agree(g) {
        let game = any_game(g, 6);
        let level_pick = g.any_u8();
        let n = game.market().len();
        let levels: Vec<usize> = (0..n)
            .map(|i| {
                let m = game.market().org(i).compute_level_count();
                (level_pick as usize + i) % m
            })
            .collect();
        let prob = PrimalProblem::new(&game, &levels);
        prop_assume!(prob.is_feasible());
        let ip = prob.solve(1e-10).unwrap();
        let pg = prob.solve_projected(1e-9, 20_000).unwrap();
        prop_assert!(
            (ip.value - pg.value).abs() <= 2e-4 * ip.value.abs().max(1.0),
            "ip {} vs pg {}", ip.value, pg.value
        );
    }

    /// Theorem 2 at equilibrium: individual rationality and budget
    /// balance hold at the DBR fixed point on random markets.
    fn theorem2_properties_hold_at_equilibrium(g) {
        let game = any_game(g, 8);
        let eq = DbrSolver::new().solve(&game).unwrap();
        let audit = MechanismAudit::evaluate(&game, &eq.profile);
        prop_assert!(audit.budget_balanced_rel(1e-9));
        prop_assert!(
            audit.individually_rational(1e-6 * audit.social_welfare.abs().max(1.0)),
            "min payoff {}", audit.min_payoff
        );
    }

    /// Potential monotonicity along DBR (the FIP of weighted potential
    /// games): each accepted round weakly increases U.
    fn dbr_potential_monotone(g) {
        let game = any_game(g, 6);
        let eq = DbrSolver::new().solve(&game).unwrap();
        for w in eq.potential_trace.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9 * w[0].abs().max(1.0));
        }
    }

    /// Exact certification: DBR fixed points certify as ε-Nash with a
    /// tiny ε under the true best responses (not just sampled grids).
    fn dbr_certifies_exactly(g) {
        let game = any_game(g, 7);
        let eq = DbrSolver::new().solve(&game).unwrap();
        let cert = tradefl_solver::certify::certify_nash(&game, &eq.profile).unwrap();
        prop_assert!(
            cert.epsilon <= 1e-4 * eq.welfare.abs().max(1.0),
            "epsilon {}", cert.epsilon
        );
    }

    /// Benders optimality cuts are valid lower bounds of the Lagrangian
    /// for random instances, anchors and candidate ladders.
    fn optimality_cuts_are_valid_lower_bounds(g) {
        use tradefl_solver::gbd::{deadline_residuals, potential_at, Cut};
        let game = any_game(g, 4);
        let level_pick = g.any_u8();
        let t_anchor = g.f64(0.1..=0.9);
        let t_eval = g.f64(0.0..=1.0);
        let n = game.market().len();
        let anchor_levels: Vec<usize> = (0..n)
            .map(|i| game.market().org(i).compute_level_count() - 1)
            .collect();
        let prob = PrimalProblem::new(&game, &anchor_levels);
        prop_assume!(prob.is_feasible());
        let sol = prob.solve(1e-10).unwrap();
        // Perturb the anchor inside the box to exercise non-KKT anchors.
        let d_min = game.market().params().d_min;
        let d_anchor: Vec<f64> =
            sol.d.iter().map(|&d| d_min + t_anchor * (d.max(d_min) - d_min)).collect();
        let cut = Cut::optimality(&game, d_anchor, sol.multipliers.clone());
        let eval_levels: Vec<usize> = (0..n)
            .map(|i| {
                let m = game.market().org(i).compute_level_count();
                (level_pick as usize + i) % m
            })
            .collect();
        let v = cut.evaluate(&game, &eval_levels);
        // Compare against the Lagrangian at a sampled d in [d_min, 1]^n.
        let d: Vec<f64> = (0..n).map(|_| d_min + t_eval * (1.0 - d_min)).collect();
        let lag = -potential_at(&game, &d, &eval_levels)
            + sol
                .multipliers
                .iter()
                .zip(deadline_residuals(&game, &d, &eval_levels))
                .map(|(u, g)| u * g)
                .sum::<f64>();
        prop_assert!(
            v <= lag + 1e-6 * lag.abs().max(1.0),
            "cut {v} above lagrangian {lag}"
        );
    }

    /// The social optimum dominates the DBR equilibrium welfare for
    /// random markets (PoA ≥ 1).
    fn social_optimum_dominates_dbr(g) {
        use tradefl_solver::social::{solve_social_optimum, SocialOptions};
        let game = any_game(g, 5);
        let eq = DbrSolver::new().solve(&game).unwrap();
        let opt = solve_social_optimum(&game, SocialOptions::default()).unwrap();
        prop_assert!(
            opt.welfare >= eq.welfare - 1e-5 * opt.welfare.abs().max(1.0),
            "social {} below equilibrium {}", opt.welfare, eq.welfare
        );
    }
}
