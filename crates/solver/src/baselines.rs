//! The comparison baselines of §VI: GCA, FIP and TOS. WPR ("DBR
//! without payoff redistribution", R_i ≡ 0) is
//! [`crate::dbr::DbrSolver`] on the γ = 0 market (Eq. 9 at γ = 0), run
//! by [`solve_scheme`].

use crate::error::{Result, SolveError};
use crate::outcome::{Equilibrium, Scheme};
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::incremental::IncrementalEval;
use tradefl_core::strategy::{Strategy, StrategyProfile};

/// Merges per-candidate `(strategy, payoff)` evaluations in input
/// order with a strict `>`, so the first maximum in input order wins.
fn best_of(
    candidates: impl IntoIterator<Item = Option<(Strategy, f64)>>,
) -> Option<(Strategy, f64)> {
    let mut best: Option<(Strategy, f64)> = None;
    for (candidate, payoff) in candidates.into_iter().flatten() {
        if best.map_or(true, |(_, b)| payoff > b) {
            best = Some((candidate, payoff));
        }
    }
    best
}

/// The **GCA** baseline's ("DBR with Greedy Computation Allocation")
/// proportionality constant `k` in `f_i = k · d_i · F_i^(m)`: the
/// compute level is *tied* to the data fraction (snapped to the nearest
/// ladder level) instead of being optimized. At 2.5 the greedy rule
/// over-provisions compute relative to what the deadline needs, wasting
/// energy — the sub-optimality §VI attributes to GCA.
const GCA_COUPLING: f64 = 2.5;

/// Number of grid intervals for GCA's 1-D search over `d` on
/// `[D_min, 1]` (`GCA_GRID + 1` points).
const GCA_GRID: usize = 200;

/// GCA's round cap.
const GCA_MAX_ROUNDS: usize = 200;

/// The **FIP** baseline's grid step `e` (`d̂_i ∈ {e, 2e, …, 1}`).
const FIP_STEP: f64 = 0.1;

/// FIP's improvement-round cap.
const FIP_MAX_ROUNDS: usize = 500;

/// Snaps `f = GCA_COUPLING * d * f_max` to the nearest ladder index
/// (clamped at the ladder top).
fn gca_level<A: AccuracyModel>(game: &CoopetitionGame<A>, i: usize, d: f64) -> usize {
    let org = game.market().org(i);
    let target = GCA_COUPLING * d * org.max_frequency();
    let mut best = 0usize;
    let mut best_gap = f64::INFINITY;
    for (l, &f) in org.compute_levels().iter().enumerate() {
        let gap = (f - target).abs();
        if gap < best_gap {
            best_gap = gap;
            best = l;
        }
    }
    best
}

/// Runs the GCA baseline to a fixed point: best responses in `d` on a
/// 201-point grid over `[D_min, 1]`, the compute level tied to `d`
/// through `f_i = 2.5 · d_i · F_i^(m)`.
///
/// # Errors
///
/// * [`SolveError::InfeasibleProblem`] if some organization has no
///   feasible `(d, level(d))` pair on the grid;
/// * [`SolveError::DidNotConverge`] if 200 rounds pass without a fixed
///   point.
pub fn solve_gca<A: AccuracyModel>(game: &CoopetitionGame<A>) -> Result<Equilibrium> {
    let market = game.market();
    let n = market.len();
    let d_min = market.params().d_min;

    let grid_point = |k: usize| d_min + (1.0 - d_min) * k as f64 / GCA_GRID as f64;
    // Initialize feasibly: smallest d whose tied level meets the deadline.
    let mut profile: StrategyProfile =
        (0..n).map(|i| Strategy::new(d_min, gca_level(game, i, d_min))).collect();
    for i in 0..n {
        if !tied_feasible(game, i, profile[i].d) {
            // Scan upward for any feasible tied pair.
            let found = (0..=GCA_GRID).map(grid_point).find(|&d| tied_feasible(game, i, d));
            match found {
                Some(d) => profile.set(i, Strategy::new(d, gca_level(game, i, d))),
                None => return Err(SolveError::InfeasibleProblem { org: i }),
            }
        }
    }

    improve(game, Scheme::Gca, "gca", profile, GCA_MAX_ROUNDS, 1e-9, |profile, i| {
        best_of((0..=GCA_GRID).map(|k| {
            let d = grid_point(k);
            if !tied_feasible(game, i, d) {
                return None;
            }
            let candidate = Strategy::new(d, gca_level(game, i, d));
            Some((candidate, game.payoff(&profile.with(i, candidate), i)))
        }))
    })
}

fn tied_feasible<A: AccuracyModel>(game: &CoopetitionGame<A>, i: usize, d: f64) -> bool {
    let level = gca_level(game, i, d);
    let org = game.market().org(i);
    let t = org.comm_time() + org.training_time(d, org.frequency(level));
    t <= game.market().params().tau
}

/// Runs the **FIP** baseline: finite best-improvement dynamics
/// restricted to the discretized data grid `d̂_i ∈ {e, 2e, …, 1}`
/// (finite improvement property of potential games), `e = 0.1`.
///
/// # Errors
///
/// * [`SolveError::InfeasibleProblem`] if some organization has no
///   feasible grid vertex;
/// * [`SolveError::DidNotConverge`] if the 500-round cap is hit (cannot
///   happen on a potential game unless the cap is tiny).
pub fn solve_fip<A: AccuracyModel>(game: &CoopetitionGame<A>) -> Result<Equilibrium> {
    let market = game.market();
    let d_min = market.params().d_min;
    // Grid: multiples of `e` in [D_min, 1]; D_min itself is always a
    // vertex so a feasible start exists.
    let mut grid: Vec<f64> = Vec::new();
    grid.push(d_min);
    let mut v = FIP_STEP.max(d_min);
    while v < 1.0 - 1e-12 {
        if v > d_min + 1e-12 {
            grid.push(v);
        }
        v += FIP_STEP;
    }
    grid.push(1.0);

    let start = StrategyProfile::minimal(market);
    improve(game, Scheme::Fip, "fip", start, FIP_MAX_ROUNDS, 1e-12, |profile, i| {
        let levels = market.org(i).compute_level_count();
        // Vertex index: levels outer, grid inner; best_of keeps the
        // first maximum in that order.
        best_of((0..levels * grid.len()).map(|v| {
            let (level, k) = (v / grid.len(), v % grid.len());
            let (lo, hi) = market.feasible_range(i, level)?;
            let d = grid[k];
            if d < lo - 1e-12 || d > hi + 1e-12 {
                return None;
            }
            let candidate = Strategy::new(d, level);
            Some((candidate, game.payoff(&profile.with(i, candidate), i)))
        }))
    })
}

/// The improvement dynamics GCA and FIP share: each round, every
/// organization in turn takes the best candidate `best_move(profile,
/// i)` offers when it beats its current payoff by more than 1e-9 and
/// moves the profile by more than `move_tol`. The run converges at the
/// first round in which nobody moves.
fn improve<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    scheme: Scheme,
    algorithm: &'static str,
    mut profile: StrategyProfile,
    max_rounds: usize,
    move_tol: f64,
    best_move: impl Fn(&StrategyProfile, usize) -> Option<(Strategy, f64)>,
) -> Result<Equilibrium> {
    let n = game.market().len();
    let mut potential_trace = vec![game.potential(&profile)];
    let mut payoff_traces =
        vec![(0..n).map(|i| game.payoff(&profile, i)).collect::<Vec<_>>()];
    let mut rounds = 0;
    loop {
        if rounds == max_rounds {
            return Err(SolveError::DidNotConverge {
                algorithm,
                iterations: rounds,
                residual: f64::NAN,
            });
        }
        rounds += 1;
        let mut any_change = false;
        for i in 0..n {
            let current = game.payoff(&profile, i);
            let (candidate, payoff) =
                best_move(&profile, i).ok_or(SolveError::InfeasibleProblem { org: i })?;
            if payoff > current + 1e-9
                && profile.with(i, candidate).distance(&profile) > move_tol
            {
                profile.set(i, candidate);
                any_change = true;
            }
        }
        potential_trace.push(game.potential(&profile));
        payoff_traces.push((0..n).map(|i| game.payoff(&profile, i)).collect());
        if !any_change {
            return Ok(Equilibrium::from_profile(
                scheme,
                game,
                profile,
                rounds,
                true,
                potential_trace,
                payoff_traces,
            ));
        }
    }
}

/// The **TOS** baseline ("Theoretically Optimal Scheme"): every
/// organization contributes all data at full compute, ignoring both the
/// deadline and the coopetition damage. Never fails; returns the fixed
/// profile's metrics in one step.
pub fn solve_tos<A: AccuracyModel>(game: &CoopetitionGame<A>) -> Equilibrium {
    let market = game.market();
    let profile: StrategyProfile = (0..market.len())
        .map(|i| Strategy::new(1.0, market.org(i).compute_level_count() - 1))
        .collect();
    let n = market.len();
    let payoffs: Vec<f64> = (0..n).map(|i| game.payoff(&profile, i)).collect();
    Equilibrium::from_profile(
        Scheme::Tos,
        game,
        profile.clone(),
        1,
        true,
        vec![game.potential(&profile)],
        vec![payoffs],
    )
}

/// Dispatches any scheme with default options (bench-harness entry
/// point). `Cgbd` uses Algorithm 1, `Dbr` Algorithm 2, and the rest the
/// baselines above.
///
/// `Wpr` is the one way to run WPR: Algorithm 2 on `game` with γ set to
/// 0, so every `R_i` (Eq. 9) is exactly zero, then the reached profile
/// is re-evaluated on `game` itself. Its welfare, potential, damage and
/// single payoff trace row are the real market's; its potential trace
/// is the γ = 0 run's, the potential WPR's moves actually climb.
///
/// # Errors
///
/// Propagates the respective solver's errors; a WPR run that hits the
/// round cap reports `algorithm: "wpr"`.
pub fn solve_scheme<A: AccuracyModel + Clone>(
    game: &CoopetitionGame<A>,
    scheme: Scheme,
) -> Result<Equilibrium> {
    match scheme {
        Scheme::Cgbd => {
            // Paper-faithful traversal when the ladder product space is
            // small; coordinate-descent master beyond ~50k combinations
            // (flagged as heuristic in DESIGN.md).
            let master = if crate::gbd::combination_count(game) <= 50_000 {
                crate::gbd::MasterSearch::Traversal { cap: 50_000 }
            } else {
                crate::gbd::MasterSearch::CoordinateDescent {
                    restarts: 12,
                    max_sweeps: 30,
                    seed: 0x676264,
                }
            };
            // Warm-start from a cheap DBR pass: the primal re-solves d
            // globally at DBR's ladder, so CGBD's incumbent can only be
            // at least as good as the distributed equilibrium.
            let warm = crate::dbr::DbrSolver::new().solve(game).ok().map(|eq| eq.profile.levels());
            let options = crate::cgbd::CgbdOptions {
                master,
                initial_levels: warm,
                ..crate::cgbd::CgbdOptions::default()
            };
            Ok(crate::cgbd::CgbdSolver::with_options(options).solve(game)?.equilibrium)
        }
        Scheme::Dbr => crate::dbr::DbrSolver::new().solve(game),
        Scheme::Wpr => solve_wpr(game),
        Scheme::Gca => solve_gca(game),
        Scheme::Fip => solve_fip(game),
        Scheme::Tos => Ok(solve_tos(game)),
    }
}

/// WPR as [`solve_scheme`] documents it: DBR on the γ = 0 market,
/// re-evaluated on `game`.
fn solve_wpr<A: AccuracyModel + Clone>(game: &CoopetitionGame<A>) -> Result<Equilibrium> {
    let no_redistribution = game.with_params(game.market().params().with_gamma(0.0))?;
    let eq = crate::dbr::DbrSolver::new().solve(&no_redistribution).map_err(|e| match e {
        SolveError::DidNotConverge { iterations, residual, .. } => {
            SolveError::DidNotConverge { algorithm: "wpr", iterations, residual }
        }
        e => e,
    })?;
    let eval = IncrementalEval::new(game, eq.profile);
    Ok(Equilibrium::from_eval(
        Scheme::Wpr,
        &eval,
        eq.iterations,
        eq.converged,
        eq.potential_trace,
        vec![eval.payoff_vector()],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbr::DbrSolver;
    use tradefl_core::accuracy::SqrtAccuracy;
    use tradefl_core::config::MarketConfig;

    fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    #[test]
    fn gca_converges_to_feasible_tied_profile() {
        let g = game(5, 14);
        let eq = solve_gca(&g).unwrap();
        assert!(eq.converged);
        eq.profile.validate(g.market()).unwrap();
        for i in 0..5 {
            let tied = gca_level(&g, i, eq.profile[i].d);
            assert_eq!(eq.profile[i].level, tied, "level must stay tied to d");
        }
    }

    #[test]
    fn fip_converges_on_the_grid() {
        let g = game(5, 15);
        let eq = solve_fip(&g).unwrap();
        assert!(eq.converged);
        eq.profile.validate(g.market()).unwrap();
        for s in eq.profile.iter() {
            let d = s.d;
            let on_grid = (d - g.market().params().d_min).abs() < 1e-9
                || (d - 1.0).abs() < 1e-9
                || ((d / 0.1).round() * 0.1 - d).abs() < 1e-9;
            assert!(on_grid, "d = {d} is off-grid");
        }
    }

    #[test]
    fn tos_contributes_everything() {
        let g = game(4, 16);
        let eq = solve_tos(&g);
        assert_eq!(eq.total_fraction, 4.0);
        for (i, s) in eq.profile.iter().enumerate() {
            assert_eq!(s.d, 1.0);
            assert_eq!(s.level, g.market().org(i).compute_level_count() - 1);
        }
    }

    #[test]
    fn dbr_welfare_dominates_restricted_baselines() {
        // The paper's Fig. 6 ordering: DBR ≥ FIP and DBR ≥ GCA (both are
        // restrictions of DBR's strategy space / dynamics).
        let g = game(10, 42);
        let dbr = DbrSolver::new().solve(&g).unwrap();
        let fip = solve_fip(&g).unwrap();
        let gca = solve_gca(&g).unwrap();
        let tol = 1e-6 * dbr.welfare.abs().max(1.0);
        assert!(dbr.potential >= fip.potential - tol, "dbr {} fip {}", dbr.potential, fip.potential);
        assert!(dbr.potential >= gca.potential - tol, "dbr {} gca {}", dbr.potential, gca.potential);
    }

    #[test]
    fn dispatcher_covers_every_scheme() {
        let g = game(4, 18);
        for scheme in Scheme::ALL {
            let eq = solve_scheme(&g, scheme).unwrap();
            assert_eq!(eq.scheme, scheme);
            assert!(eq.welfare.is_finite());
        }
    }
}
