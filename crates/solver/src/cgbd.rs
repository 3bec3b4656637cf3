//! **CGBD** — the centralized Generalized-Benders-Decomposition solver
//! (Algorithm 1) for the potential-maximization problem (18).
//!
//! Each iteration solves the convex primal (19) at the incumbent ladder
//! assignment (interior point, Lemma 1), derives an optimality cut (20)
//! — or a feasibility cut (22) when the assignment cannot meet the
//! deadline — and re-solves the master (23) over the discrete ladder.
//! Iteration stops when `UB − LB ≤ ε` (Lemma 2 guarantees finite
//! termination because no assignment repeats), and the returned solution
//! is `(δ+ε)`-optimal (Lemma 3) where `δ` is the primal tolerance.
//!
//! As discussed in DESIGN.md, the cuts are anchored at the primal
//! minimizer `d_v` (the paper's variant). [`exhaustive_optimum`] is the
//! brute-force oracle used by tests to certify the optimality claim on
//! small instances.

use crate::error::{Result, SolveError};
use crate::gbd::{solve_master, Cut, CutTables, MasterSearch};
use crate::outcome::{Equilibrium, Scheme};
use crate::primal::PrimalProblem;
// Ordered set, not HashSet — see the `no-hash-iteration` lint.
use std::collections::BTreeSet;
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::incremental::IncrementalEval;
use tradefl_runtime::obs;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::strategy::{Strategy, StrategyProfile};

/// Markets at least this large switch the per-iteration payoff-trace
/// row from direct `game.payoff` calls (O(N²) per row, bit-identical
/// to the pre-incremental solver) to an [`IncrementalEval`] pass
/// (O(nnz) per row, ulp-level reassociation only). The threshold
/// depends purely on the instance size — never the worker count — so
/// the chosen path (and every bit of the result) is the same under any
/// pool configuration.
const TRACE_EVAL_MIN_ORGS: usize = 512;

/// Options for [`CgbdSolver`].
#[derive(Debug, Clone, PartialEq)]
pub struct CgbdOptions {
    /// Convergence tolerance `ε` on `UB − LB`.
    pub epsilon: f64,
    /// Iteration cap `K`.
    pub max_iters: usize,
    /// Primal interior-point tolerance `δ`.
    pub primal_tol: f64,
    /// Master-problem search mode.
    pub master: MasterSearch,
    /// Optional warm-start ladder assignment `f^(0)` (e.g. from a cheap
    /// DBR pass); defaults to the fastest ladder. Because the primal
    /// solves `d` globally at the warm-start levels, CGBD's incumbent is
    /// then guaranteed to be at least as good as the heuristic that
    /// produced the warm start.
    pub initial_levels: Option<Vec<usize>>,
}

impl Default for CgbdOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-6,
            max_iters: 60,
            primal_tol: 1e-9,
            master: MasterSearch::default(),
            initial_levels: None,
        }
    }
}

/// One CGBD iteration's bookkeeping (for convergence plots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgbdIteration {
    /// Iteration index `k` (1-based).
    pub k: usize,
    /// Upper bound `UB^(k)` (minimization convention, i.e. `−U` of the
    /// best feasible primal so far).
    pub upper_bound: f64,
    /// Lower bound `LB^(k)` from the master (`φ*`).
    pub lower_bound: f64,
    /// Whether the primal at this iteration was feasible.
    pub primal_feasible: bool,
}

/// Full CGBD result: the equilibrium plus the UB/LB convergence trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CgbdReport {
    /// The resulting (δ+ε)-optimal profile and its metrics.
    pub equilibrium: Equilibrium,
    /// Per-iteration bounds.
    pub trace: Vec<CgbdIteration>,
    /// Final optimality gap `UB − LB`.
    pub gap: f64,
}

/// Algorithm 1's driver.
///
/// # Examples
///
/// ```
/// use tradefl_core::accuracy::SqrtAccuracy;
/// use tradefl_core::config::MarketConfig;
/// use tradefl_core::game::CoopetitionGame;
/// use tradefl_solver::cgbd::CgbdSolver;
///
/// let market = MarketConfig::table_ii().with_orgs(3).build(1)?;
/// let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
/// let report = CgbdSolver::default().solve(&game)?;
/// assert!(report.equilibrium.converged);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CgbdSolver {
    options: CgbdOptions,
}

impl CgbdSolver {
    /// Creates a solver with explicit options.
    pub fn with_options(options: CgbdOptions) -> Self {
        Self { options }
    }

    /// Runs Algorithm 1.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InfeasibleProblem`] if no ladder assignment is
    ///   feasible at all;
    /// * [`SolveError::MasterTooLarge`] if the traversal master is asked
    ///   to enumerate more combinations than its cap;
    /// * [`SolveError::DidNotConverge`] if `K` iterations pass without
    ///   closing the gap *and* no feasible incumbent was found.
    pub fn solve<A: AccuracyModel>(&self, game: &CoopetitionGame<A>) -> Result<CgbdReport> {
        let market = game.market();
        let n = market.len();
        // f^(0): warm start if provided, else the fastest ladder (always
        // feasible by Market's invariant).
        let mut levels: Vec<usize> = match &self.options.initial_levels {
            Some(init) => {
                assert_eq!(init.len(), n, "warm-start length must match the market");
                init.clone()
            }
            None => (0..n).map(|i| market.org(i).compute_level_count() - 1).collect(),
        };
        let mut cuts: Vec<Cut> = Vec::new();
        // Incremental master state: each iteration appends only its
        // new cut's table.
        let mut tables = CutTables::default();
        let mut visited: BTreeSet<Vec<usize>> = BTreeSet::new();
        let mut ub = f64::INFINITY;
        let mut lb = f64::NEG_INFINITY;
        let mut best: Option<(Vec<f64>, Vec<usize>, f64)> = None; // (d, levels, U)
        let mut trace = Vec::new();
        let mut potential_trace = Vec::new();
        let mut payoff_traces = Vec::new();
        let mut converged = false;
        let mut k = 0;
        while k < self.options.max_iters {
            k += 1;
            visited.insert(levels.clone());
            let primal = PrimalProblem::new(game, &levels);
            let primal_feasible = primal.is_feasible();
            if primal_feasible {
                let sol = primal.solve(self.options.primal_tol)?;
                ub = ub.min(-sol.value);
                if best.as_ref().map_or(true, |(_, _, u)| sol.value > *u) {
                    best = Some((sol.d.clone(), levels.clone(), sol.value));
                }
                let profile: StrategyProfile = sol
                    .d
                    .iter()
                    .zip(&levels)
                    .map(|(&d, &l)| Strategy::new(d, l))
                    .collect();
                potential_trace.push(sol.value);
                payoff_traces.push(if n < TRACE_EVAL_MIN_ORGS {
                    (0..n).map(|i| game.payoff(&profile, i)).collect()
                } else {
                    // Large markets: one O(nnz) evaluator pass instead
                    // of N O(N) payoff recomputations.
                    IncrementalEval::new(game, profile).payoff_vector()
                });
                let cut = Cut::optimality(game, sol.d, sol.multipliers);
                tables.push_cut(game, &cut);
                cuts.push(cut);
            } else {
                let fc = primal.feasibility_check();
                let cut = Cut::Feasibility { d: fc.d, lambda: fc.lambda };
                tables.push_cut(game, &cut);
                cuts.push(cut);
            }
            let master = solve_master(game, &cuts, &tables, self.options.master, &visited)?;
            lb = master.phi;
            trace.push(CgbdIteration {
                k,
                upper_bound: ub,
                lower_bound: lb,
                primal_feasible,
            });
            // This loop is sequential orchestration, so the iteration
            // event is safe to key on the CGBD logical clock.
            obs::event(
                obs::Subsystem::Cgbd,
                "iteration",
                &[
                    ("k", k.into()),
                    ("upper_bound", ub.into()),
                    ("lower_bound", lb.into()),
                    ("gap", (ub - lb).into()),
                    ("cuts", cuts.len().into()),
                    ("primal_feasible", primal_feasible.into()),
                ],
            );
            obs::counter_add("cgbd.cuts_added", 1);
            if ub - lb <= self.options.epsilon {
                converged = true;
                break;
            }
            if !master.fresh {
                // Lemma 2: every assignment has been visited — the
                // search space is exhausted and the incumbent is exact.
                converged = true;
                break;
            }
            levels = master.levels;
        }
        let (d, levels, _value) = best.ok_or(SolveError::DidNotConverge {
            algorithm: "cgbd",
            iterations: k,
            residual: ub - lb,
        })?;
        let profile: StrategyProfile = d
            .iter()
            .zip(&levels)
            .map(|(&d, &l)| Strategy::new(d, l))
            .collect();
        let equilibrium = Equilibrium::from_profile(
            Scheme::Cgbd,
            game,
            profile,
            k,
            converged,
            potential_trace,
            payoff_traces,
        );
        Ok(CgbdReport { equilibrium, trace, gap: ub - lb })
    }
}

/// Brute-force oracle: solves the primal for **every** ladder assignment
/// and returns the best profile and potential (the first maximum in
/// assignment-index order wins ties). Exponential in `|N|`; intended
/// for tests and small-instance validation of Lemma 3.
///
/// # Errors
///
/// Returns an error if every assignment is infeasible or a primal solve
/// fails numerically.
// lint:allow(unreferenced-pub-fn): test oracle: the brute-force optimum CGBD's properties are checked against
pub fn exhaustive_optimum<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    primal_tol: f64,
) -> Result<(StrategyProfile, f64)> {
    let sizes: Vec<usize> =
        game.market().orgs().iter().map(|o| o.compute_level_count()).collect();
    let total: usize = sizes.iter().product();
    let mut levels = vec![0usize; sizes.len()];
    let mut best: Option<(StrategyProfile, f64)> = None;
    for idx in 0..total {
        let mut rem = idx;
        for (l, &m) in levels.iter_mut().zip(&sizes) {
            *l = rem % m;
            rem /= m;
        }
        let primal = PrimalProblem::new(game, &levels);
        if primal.is_feasible() {
            let sol = primal.solve(primal_tol)?;
            if best.as_ref().map_or(true, |(_, u)| sol.value > *u) {
                let profile: StrategyProfile =
                    sol.d.iter().zip(&levels).map(|(&d, &l)| Strategy::new(d, l)).collect();
                best = Some((profile, sol.value));
            }
        }
    }
    best.ok_or(SolveError::InfeasibleProblem { org: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradefl_core::accuracy::SqrtAccuracy;
    use tradefl_core::config::MarketConfig;

    fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    #[test]
    fn cgbd_terminates_and_returns_feasible_profile() {
        let g = game(4, 21);
        let report = CgbdSolver::default().solve(&g).unwrap();
        assert!(report.equilibrium.converged);
        report.equilibrium.profile.validate(g.market()).unwrap();
        assert!(report.trace.len() >= 1);
        assert_eq!(report.equilibrium.scheme, Scheme::Cgbd);
    }

    #[test]
    fn cgbd_matches_exhaustive_oracle_on_small_instances() {
        for seed in [2, 8, 33] {
            let g = game(3, seed);
            let report = CgbdSolver::default().solve(&g).unwrap();
            let (_, oracle_value) = exhaustive_optimum(&g, 1e-9).unwrap();
            let got = report.equilibrium.potential;
            assert!(
                (oracle_value - got).abs() <= 1e-4 * oracle_value.abs().max(1.0),
                "seed {seed}: oracle {oracle_value} vs cgbd {got}"
            );
        }
    }

    #[test]
    fn upper_bound_is_monotone_nonincreasing() {
        let g = game(5, 12);
        let report = CgbdSolver::default().solve(&g).unwrap();
        for w in report.trace.windows(2) {
            assert!(w[1].upper_bound <= w[0].upper_bound + 1e-12);
        }
    }

    #[test]
    fn cgbd_potential_at_least_dbr() {
        // CGBD targets the global potential maximum; DBR only a local NE.
        let g = game(5, 40);
        let cgbd = CgbdSolver::default().solve(&g).unwrap();
        let dbr = crate::dbr::DbrSolver::new().solve(&g).unwrap();
        assert!(
            cgbd.equilibrium.potential >= dbr.potential - 1e-4 * dbr.potential.abs().max(1.0),
            "cgbd {} < dbr {}",
            cgbd.equilibrium.potential,
            dbr.potential
        );
    }

    #[test]
    fn iteration_trace_has_finite_bounds_after_first_feasible() {
        let g = game(4, 3);
        let report = CgbdSolver::default().solve(&g).unwrap();
        let last = report.trace.last().unwrap();
        assert!(last.upper_bound.is_finite());
        assert!(last.lower_bound.is_finite());
    }
}
