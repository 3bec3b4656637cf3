//! The comparison baselines of §VI: GCA, FIP and TOS (WPR is
//! [`crate::dbr::DbrSolver`] with
//! [`crate::bestresponse::Objective::WithoutRedistribution`]).

use crate::bestresponse::Objective;
use crate::error::{Result, SolveError};
use crate::outcome::{Equilibrium, Scheme};
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
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

/// Options for the **GCA** baseline ("DBR with Greedy Computation
/// Allocation"): organizations still best-respond in `d`, but the
/// compute level is *tied* to the data fraction through `f_i = k · d_i`
/// (snapped to the nearest ladder level), instead of being optimized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcaOptions {
    /// The proportionality constant `k`, as a multiple of each
    /// organization's fastest frequency (so `coupling = 1.0` maps
    /// `d_i = 1` to `F_i^(m)`).
    pub coupling: f64,
    /// Number of grid points for the 1-D search over `d`.
    pub grid: usize,
    /// Maximum rounds.
    pub max_rounds: usize,
}

impl Default for GcaOptions {
    fn default() -> Self {
        // coupling = 2.0: the greedy rule over-provisions compute
        // relative to what the deadline needs, wasting energy — the
        // sub-optimality §VI attributes to GCA.
        Self { coupling: 2.5, grid: 200, max_rounds: 200 }
    }
}

/// Snaps `f = coupling * d * f_max` to the nearest ladder index
/// (clamped at the ladder top).
fn gca_level<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    i: usize,
    d: f64,
    coupling: f64,
) -> usize {
    let org = game.market().org(i);
    let target = coupling * d * org.max_frequency();
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

/// Runs the GCA baseline to a fixed point.
///
/// # Errors
///
/// * [`SolveError::InfeasibleProblem`] if some organization has no
///   feasible `(d, level(d))` pair on the grid;
/// * [`SolveError::DidNotConverge`] if `max_rounds` passes without a
///   fixed point.
pub fn solve_gca<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    options: GcaOptions,
) -> Result<Equilibrium> {
    let market = game.market();
    let n = market.len();
    let d_min = market.params().d_min;

    // Initialize feasibly: smallest d whose tied level meets the deadline.
    let mut profile: StrategyProfile = (0..n)
        .map(|i| {
            let level = gca_level(game, i, d_min, options.coupling);
            Strategy::new(d_min, level)
        })
        .collect();
    for i in 0..n {
        if !tied_feasible(game, i, profile[i].d, options.coupling) {
            // Scan upward for any feasible tied pair.
            let found = (0..=options.grid).map(|k| {
                d_min + (1.0 - d_min) * k as f64 / options.grid as f64
            })
            .find(|&d| tied_feasible(game, i, d, options.coupling));
            match found {
                Some(d) => profile.set(
                    i,
                    Strategy::new(d, gca_level(game, i, d, options.coupling)),
                ),
                None => return Err(SolveError::InfeasibleProblem { org: i }),
            }
        }
    }

    let mut potential_trace = vec![game.potential(&profile)];
    let mut payoff_traces =
        vec![(0..n).map(|i| game.payoff(&profile, i)).collect::<Vec<_>>()];
    let mut converged = false;
    let mut rounds = 0;
    while rounds < options.max_rounds {
        rounds += 1;
        let mut any_change = false;
        for i in 0..n {
            let current = game.payoff(&profile, i);
            let evaluate = |k: usize| {
                let d = d_min + (1.0 - d_min) * k as f64 / options.grid as f64;
                if !tied_feasible(game, i, d, options.coupling) {
                    return None;
                }
                let level = gca_level(game, i, d, options.coupling);
                let candidate = Strategy::new(d, level);
                Some((candidate, game.payoff(&profile.with(i, candidate), i)))
            };
            let (candidate, payoff) = best_of((0..=options.grid).map(evaluate))
                .ok_or(SolveError::InfeasibleProblem { org: i })?;
            if payoff > current + 1e-9
                && profile.with(i, candidate).distance(&profile) > 1e-9
            {
                profile.set(i, candidate);
                any_change = true;
            }
        }
        potential_trace.push(game.potential(&profile));
        payoff_traces.push((0..n).map(|i| game.payoff(&profile, i)).collect());
        if !any_change {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(SolveError::DidNotConverge {
            algorithm: "gca",
            iterations: rounds,
            residual: f64::NAN,
        });
    }
    Ok(Equilibrium::from_profile(
        Scheme::Gca,
        game,
        profile,
        rounds,
        converged,
        potential_trace,
        payoff_traces,
    ))
}

fn tied_feasible<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    i: usize,
    d: f64,
    coupling: f64,
) -> bool {
    let level = gca_level(game, i, d, coupling);
    let org = game.market().org(i);
    let t = org.comm_time() + org.training_time(d, org.frequency(level));
    t <= game.market().params().tau
}

/// Options for the **FIP** baseline: best-response dynamics restricted
/// to the discretized data grid `d̂_i ∈ {e, 2e, …, 1}` (finite
/// improvement property of potential games).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FipOptions {
    /// Grid step `e`.
    pub step: f64,
    /// Maximum improvement rounds.
    pub max_rounds: usize,
}

impl Default for FipOptions {
    fn default() -> Self {
        Self { step: 0.1, max_rounds: 500 }
    }
}

/// Runs the FIP baseline: finite best-improvement dynamics on the grid.
///
/// # Errors
///
/// * [`SolveError::InfeasibleProblem`] if some organization has no
///   feasible grid vertex;
/// * [`SolveError::DidNotConverge`] if the round cap is hit (cannot
///   happen on a potential game unless the cap is tiny).
pub fn solve_fip<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    options: FipOptions,
) -> Result<Equilibrium> {
    let market = game.market();
    let n = market.len();
    let d_min = market.params().d_min;
    // Grid: multiples of `e` in [D_min, 1]; D_min itself is always a
    // vertex so a feasible start exists.
    let mut grid: Vec<f64> = Vec::new();
    grid.push(d_min);
    let mut v = options.step.max(d_min);
    while v < 1.0 - 1e-12 {
        if v > d_min + 1e-12 {
            grid.push(v);
        }
        v += options.step;
    }
    grid.push(1.0);

    let mut profile = StrategyProfile::minimal(market);
    let mut potential_trace = vec![game.potential(&profile)];
    let mut payoff_traces =
        vec![(0..n).map(|i| game.payoff(&profile, i)).collect::<Vec<_>>()];
    let mut converged = false;
    let mut rounds = 0;
    while rounds < options.max_rounds {
        rounds += 1;
        let mut any_change = false;
        for i in 0..n {
            let current = game.payoff(&profile, i);
            let org = market.org(i);
            let levels = org.compute_level_count();
            // Vertex index: levels outer, grid inner; best_of keeps the
            // first maximum in that order.
            let evaluate = |v: usize| {
                let (level, k) = (v / grid.len(), v % grid.len());
                let (lo, hi) = market.feasible_range(i, level)?;
                let d = grid[k];
                if d < lo - 1e-12 || d > hi + 1e-12 {
                    return None;
                }
                let candidate = Strategy::new(d, level);
                Some((candidate, game.payoff(&profile.with(i, candidate), i)))
            };
            let (candidate, payoff) = best_of((0..levels * grid.len()).map(evaluate))
                .ok_or(SolveError::InfeasibleProblem { org: i })?;
            if payoff > current + 1e-9
                && profile.with(i, candidate).distance(&profile) > 1e-12
            {
                profile.set(i, candidate);
                any_change = true;
            }
        }
        potential_trace.push(game.potential(&profile));
        payoff_traces.push((0..n).map(|i| game.payoff(&profile, i)).collect());
        if !any_change {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(SolveError::DidNotConverge {
            algorithm: "fip",
            iterations: rounds,
            residual: f64::NAN,
        });
    }
    Ok(Equilibrium::from_profile(
        Scheme::Fip,
        game,
        profile,
        rounds,
        converged,
        potential_trace,
        payoff_traces,
    ))
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
/// point). `Cgbd` uses Algorithm 1, `Dbr`/`Wpr` Algorithm 2, and the
/// rest the baselines above.
///
/// # Errors
///
/// Propagates the respective solver's errors.
pub fn solve_scheme<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    scheme: Scheme,
) -> Result<Equilibrium> {
    match scheme {
        Scheme::Cgbd => {
            // Paper-faithful traversal when the ladder product space is
            // small; coordinate-descent master beyond ~50k combinations
            // (flagged as heuristic in DESIGN.md).
            let combos: u128 = game
                .market()
                .orgs()
                .iter()
                .map(|o| o.compute_level_count() as u128)
                .try_fold(1u128, u128::checked_mul)
                .unwrap_or(u128::MAX);
            let master = if combos <= 50_000 {
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
        Scheme::Wpr => crate::dbr::DbrSolver::with_options(crate::dbr::DbrOptions {
            objective: Objective::WithoutRedistribution,
            ..crate::dbr::DbrOptions::default()
        })
        .solve(game),
        Scheme::Gca => solve_gca(game, GcaOptions::default()),
        Scheme::Fip => solve_fip(game, FipOptions::default()),
        Scheme::Tos => Ok(solve_tos(game)),
    }
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
        let options = GcaOptions::default();
        let eq = solve_gca(&g, options).unwrap();
        assert!(eq.converged);
        eq.profile.validate(g.market()).unwrap();
        for i in 0..5 {
            let tied = gca_level(&g, i, eq.profile[i].d, options.coupling);
            assert_eq!(eq.profile[i].level, tied, "level must stay tied to d");
        }
    }

    #[test]
    fn fip_converges_on_the_grid() {
        let g = game(5, 15);
        let eq = solve_fip(&g, FipOptions::default()).unwrap();
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
        let fip = solve_fip(&g, FipOptions::default()).unwrap();
        let gca = solve_gca(&g, GcaOptions::default()).unwrap();
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
