//! **DBR** — the distributed best-response algorithm (Algorithm 2).
//!
//! Organizations start from `d_i = D_min, f_i = F_i^(m)` and take turns
//! playing best responses until a full pass changes nothing. Because the
//! coopetition game is a weighted potential game (Theorem 1), every
//! improving move strictly increases the potential and the dynamics
//! reach a Nash equilibrium in finitely many effective updates \[33\].

use crate::bestresponse::best_response_incremental;
use crate::error::{Result, SolveError};
use crate::outcome::{Equilibrium, Scheme};
use tradefl_runtime::obs;
use tradefl_runtime::rng::{SeedableRng, SliceRandom, StdRng};
use tradefl_runtime::sync::pool::Pool;
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::incremental::IncrementalEval;
use tradefl_core::strategy::StrategyProfile;

/// Minimum organization count before the per-round payoff trace rows
/// (the `O(nnz)` ρ·res matvec) are split across the pool. Each element
/// of the row is computed independently and written to its own slot,
/// so the pooled row is bit-identical to the serial
/// [`IncrementalEval::payoff_vector`] for any worker count; below this
/// threshold the dispatch overhead exceeds the matvec itself.
const POOLED_TRACE_MIN_ORGS: usize = 512;

/// Maximum organization count for which the solver records a payoff
/// trace row after *every* round. Each row costs one `O(nnz)` pass over
/// the ρ matrix — at figure scale (≤ a few dozen organizations,
/// Fig. 5) that is negligible and the full per-iteration history is
/// kept; at N ≥ this bound only the final row is recorded, so the
/// trace cost stays out of the sweep's `O(N log N)` scaling. The
/// potential trace is `O(N)` per round and always full.
const TRACE_EVERY_ROUND_MAX_ORGS: usize = 512;

/// The current profile's payoff vector for a trace row: serial for
/// small markets, chunked across `pool` for large ones (see
/// [`POOLED_TRACE_MIN_ORGS`] for the determinism argument).
fn trace_payoffs<A: AccuracyModel>(eval: &IncrementalEval<'_, A>, pool: &Pool) -> Vec<f64> {
    let n = eval.profile().len();
    if pool.workers() <= 1 || n < POOLED_TRACE_MIN_ORGS {
        return eval.payoff_vector();
    }
    let mut out = vec![0.0f64; n];
    let per = n.div_ceil(pool.workers());
    pool.scope(|s| {
        for (t, chunk) in out.chunks_mut(per).enumerate() {
            s.spawn(move || {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    let i = t * per + k;
                    *slot = eval.payoff(i);
                }
            });
        }
    });
    out
}

/// A strategy update smaller than this (in profile distance) counts as
/// "no change".
const TOL: f64 = 1e-7;

/// Minimum payoff improvement required to accept a move; guards against
/// floating-point cycling near the equilibrium.
const MIN_IMPROVEMENT: f64 = 1e-9;

/// The order in which organizations update within a round (an ablation
/// axis; the paper uses a fixed order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOrder {
    /// Organizations update in index order every round.
    RoundRobin,
    /// Organizations update in a freshly shuffled order each round,
    /// seeded for reproducibility.
    Shuffled {
        /// RNG seed for the per-round shuffles.
        seed: u64,
    },
}

/// Options for [`DbrSolver`]. Every organization best-responds to the
/// full payoff `C_i` (Eq. 11) of the game it is given; the WPR baseline
/// is the same dynamics on the γ = 0 game
/// ([`crate::baselines::solve_scheme`] with [`Scheme::Wpr`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbrOptions {
    /// Maximum number of rounds `H`.
    pub max_rounds: usize,
    /// Update order within a round.
    pub order: UpdateOrder,
    /// Step damping `κ ∈ (0, 1]`: each organization moves its data
    /// fraction only `κ` of the way toward its best response
    /// (`d ← d + κ (d* − d)`), adopting the best-response compute level
    /// when doing so improves its payoff. `κ = 1` is the exact best
    /// response; smaller values reproduce the gradual multi-iteration
    /// convergence of the paper's Fig. 5. Because the payoff is concave
    /// in `d_i`, every damped move still improves the mover's payoff,
    /// so the potential stays monotone (Theorem 1).
    pub damping: f64,
}

impl Default for DbrOptions {
    fn default() -> Self {
        Self {
            max_rounds: 200,
            order: UpdateOrder::RoundRobin,
            damping: 1.0,
        }
    }
}

/// Algorithm 2's driver.
#[derive(Debug, Clone, Default)]
pub struct DbrSolver {
    options: DbrOptions,
}

impl DbrSolver {
    /// Creates a solver with default options (exact best responses,
    /// round-robin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with explicit options.
    pub fn with_options(options: DbrOptions) -> Self {
        Self { options }
    }

    /// Runs best-response dynamics from the minimal profile, with
    /// [`Pool::global`] splitting large markets' payoff trace rows.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InfeasibleProblem`] if some organization has no
    ///   feasible strategy at any level;
    /// * [`SolveError::DidNotConverge`] if `max_rounds` passes complete
    ///   without reaching a fixed point (the profile reached so far is
    ///   lost; raise `max_rounds`).
    pub fn solve<A: AccuracyModel>(
        &self,
        game: &CoopetitionGame<A>,
    ) -> Result<Equilibrium> {
        self.solve_with(game, Pool::global())
    }

    /// [`DbrSolver::solve`] on an explicit pool. The dynamics stay
    /// strictly sequential across organizations (Algorithm 2's
    /// Gauss-Seidel order is part of the convergence argument). Every
    /// candidate payoff runs through an
    /// [`IncrementalEval`] — `O(log N)` per evaluation instead of
    /// `O(N)` — so one sweep is `O(N log N)` and the solve is
    /// sub-quadratic in the organization count. The inner best
    /// responses no longer fan out to the pool (each one is
    /// microseconds at any market size, far below dispatch cost); the
    /// pool instead parallelizes the per-round `O(nnz)` payoff trace
    /// matvec on large markets (`trace_payoffs`). Every pooled
    /// element is computed independently and lands in its own slot,
    /// so results are bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// See [`DbrSolver::solve`].
    pub fn solve_with<A: AccuracyModel>(
        &self,
        game: &CoopetitionGame<A>,
        pool: &Pool,
    ) -> Result<Equilibrium> {
        // `Market` guarantees at construction that every organization
        // meets the deadline at `D_min` on its fastest level, so the
        // minimal profile is always feasible.
        let start = StrategyProfile::minimal(game.market());
        let n = game.market().len();
        let mut eval = IncrementalEval::new(game, start.clone());
        let mut profile = start;
        let mut potential_trace = vec![eval.potential()];
        // Payoff rows cost one O(nnz) ρ pass each; figure-scale markets
        // keep the full per-iteration history, large ones record only
        // the final row (pushed after the loop).
        let trace_every_round = n < TRACE_EVERY_ROUND_MAX_ORGS;
        let mut payoff_traces = if trace_every_round {
            vec![trace_payoffs(&eval, pool)]
        } else {
            Vec::new()
        };
        let mut rng = match self.options.order {
            UpdateOrder::Shuffled { seed } => Some(StdRng::seed_from_u64(seed)),
            UpdateOrder::RoundRobin => None,
        };
        let mut order: Vec<usize> = (0..n).collect();
        let mut converged = false;
        let mut rounds = 0;
        while rounds < self.options.max_rounds {
            rounds += 1;
            if let Some(rng) = rng.as_mut() {
                order.shuffle(rng);
            }
            let mut any_change = false;
            let mut round_gain = 0.0f64;
            let mut payoff_scale = 1.0f64;
            for &i in &order {
                // All of this mover's payoffs are "mover objective"
                // values: exact up to an additive constant that does not
                // depend on π_i (the redistribution cross-term — see
                // `MoverView::mover_payoff`), so improvement tests and
                // argmaxes are unaffected and every evaluation stays
                // O(log N). One view serves the whole move: it copies
                // i's tree path once and shares Ω terms across queries.
                let mut view = eval.mover(i);
                let current = view.mover_payoff(profile[i]);
                let br = best_response_incremental(&mut view)
                    .ok_or(SolveError::InfeasibleProblem { org: i })?;
                // Damped step toward the best response; the candidate is
                // only accepted if it improves the mover's payoff, which
                // keeps the potential monotone even across level jumps.
                let kappa = self.options.damping.clamp(1e-6, 1.0);
                let (candidate, payoff_at) = if kappa >= 1.0 {
                    (br.strategy, br.payoff)
                } else {
                    let stepped = tradefl_core::strategy::Strategy::new(
                        profile[i].d + kappa * (br.strategy.d - profile[i].d),
                        br.strategy.level,
                    );
                    let damped_profile = profile.with(i, stepped);
                    let candidate = if damped_profile.validate(game.market()).is_ok()
                        && view.mover_payoff(stepped) > current
                    {
                        stepped
                    } else {
                        br.strategy
                    };
                    (candidate, view.mover_payoff(candidate))
                };
                // Single-entry profile distance, computed directly (the
                // other entries contribute 0 to the max).
                let moved = {
                    let dd = (candidate.d - profile[i].d).abs();
                    if candidate.level != profile[i].level { dd + 1.0 } else { dd }
                };
                payoff_scale = payoff_scale.max(current.abs());
                if payoff_at > current + MIN_IMPROVEMENT && moved > TOL {
                    round_gain = round_gain.max(payoff_at - current);
                    profile.set(i, candidate);
                    eval.commit(i, candidate);
                    any_change = true;
                    // Per-org best-response step size, plus the O(log N)
                    // incremental state update it triggered.
                    obs::hist_record("dbr.br_delta", moved);
                    obs::counter_add("dbr.incremental_updates", 1);
                }
            }
            // O(N) via the evaluator's cached constants; the game's own
            // potential() recomputes two O(N) ρ-row sums per org.
            potential_trace.push(eval.potential());
            {
                let potential = *potential_trace.last().unwrap_or(&f64::NAN);
                let residual = potential_trace
                    .iter()
                    .rev()
                    .nth(1)
                    .map(|prev| (potential - prev).abs())
                    .unwrap_or(f64::NAN);
                obs::event(
                    obs::Subsystem::Dbr,
                    "round",
                    &[
                        ("round", rounds.into()),
                        ("round_gain", round_gain.into()),
                        ("any_change", any_change.into()),
                        ("potential", potential.into()),
                        ("residual", residual.into()),
                    ],
                );
            }
            if trace_every_round {
                payoff_traces.push(trace_payoffs(&eval, pool));
            }
            // Stop on a fixed point, or when the largest accepted payoff
            // improvement in a full round is below solver precision —
            // in a (weighted) potential game residual micro-moves of
            // that size cannot accumulate into anything (prevents
            // cycling near knife-edge level ties).
            if !any_change || round_gain <= 1e-10 * payoff_scale {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(SolveError::DidNotConverge {
                algorithm: "dbr",
                iterations: rounds,
                residual: potential_trace
                    .last()
                    .zip(potential_trace.iter().rev().nth(1))
                    .map(|(a, b)| (a - b).abs())
                    .unwrap_or(f64::NAN),
            });
        }
        // Large markets skip the per-round rows; the trace still ends
        // with the final profile's payoffs (Fig. 5's right edge).
        if !trace_every_round {
            payoff_traces.push(trace_payoffs(&eval, pool));
        }
        // `profile` and the evaluator's profile are kept identical by
        // the accept path; the evaluator's cached constants make the
        // final aggregates O(N) (see `Equilibrium::from_eval`).
        debug_assert_eq!(profile.len(), eval.profile().len());
        drop(profile);
        Ok(Equilibrium::from_eval(
            Scheme::Dbr,
            &eval,
            rounds,
            converged,
            potential_trace,
            payoff_traces,
        ))
    }
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
    fn dbr_converges_and_is_nash() {
        let g = game(6, 11);
        let eq = DbrSolver::new().solve(&g).unwrap();
        assert!(eq.converged);
        assert_eq!(eq.scheme, Scheme::Dbr);
        eq.profile.validate(g.market()).unwrap();
        // ε-Nash against a sampled deviation grid.
        let gain = g.best_sampled_deviation_gain(&eq.profile, 24);
        assert!(gain < 1e-3 * eq.welfare.abs().max(1.0), "deviation gain {gain}");
    }

    #[test]
    fn potential_is_monotone_along_the_dynamics() {
        let g = game(8, 13);
        let eq = DbrSolver::new().solve(&g).unwrap();
        for w in eq.potential_trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9 * w[0].abs().max(1.0),
                "potential decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn traces_have_one_row_per_round_plus_start() {
        let g = game(4, 3);
        let eq = DbrSolver::new().solve(&g).unwrap();
        assert_eq!(eq.potential_trace.len(), eq.iterations + 1);
        assert_eq!(eq.payoff_traces.len(), eq.iterations + 1);
        assert_eq!(eq.payoff_traces[0].len(), 4);
    }

    #[test]
    fn last_trace_row_is_the_final_profiles_payoff_vector() {
        // Below TRACE_EVERY_ROUND_MAX_ORGS every round records a serial
        // row; a sparse market at the bound records only the final row,
        // chunked across the pool. Either way the last row must equal a
        // fresh evaluator's payoffs at the returned profile, bit for bit.
        let pool = Pool::new(2);
        let sparse = MarketConfig::table_ii()
            .with_orgs(TRACE_EVERY_ROUND_MAX_ORGS)
            .build_sparse(9, 0.02)
            .unwrap();
        let markets = [game(12, 5), CoopetitionGame::new(sparse, SqrtAccuracy::paper_default())];
        for g in &markets {
            let eq = DbrSolver::new().solve_with(g, &pool).unwrap();
            let want = IncrementalEval::new(g, eq.profile.clone()).payoff_vector();
            let got = eq.payoff_traces.last().unwrap();
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n={}, org {i}: {a} vs {b}", want.len());
            }
        }
    }

    #[test]
    fn shuffled_order_reaches_the_same_potential_plateau() {
        let g = game(6, 19);
        let a = DbrSolver::new().solve(&g).unwrap();
        let b = DbrSolver::with_options(DbrOptions {
            order: UpdateOrder::Shuffled { seed: 5 },
            ..DbrOptions::default()
        })
        .solve(&g)
        .unwrap();
        // Different NE may be reached, but in this (smooth, concave-ish)
        // regime both orders find the same potential level.
        assert!(
            (a.potential - b.potential).abs() < 1e-3 * a.potential.abs().max(1.0),
            "round-robin {} vs shuffled {}",
            a.potential,
            b.potential
        );
    }

    #[test]
    fn wpr_contributes_less_data_than_dbr() {
        let g = game(10, 42);
        let dbr = DbrSolver::new().solve(&g).unwrap();
        let wpr = crate::baselines::solve_scheme(&g, Scheme::Wpr).unwrap();
        assert_eq!(wpr.scheme, Scheme::Wpr);
        assert!(
            dbr.total_fraction > wpr.total_fraction,
            "redistribution must raise contributions: dbr {} vs wpr {}",
            dbr.total_fraction,
            wpr.total_fraction
        );
    }

    #[test]
    fn damped_dynamics_converge_to_the_same_equilibrium_slower() {
        let g = game(8, 23);
        let exact = DbrSolver::new().solve(&g).unwrap();
        let damped = DbrSolver::with_options(DbrOptions {
            damping: 0.3,
            ..DbrOptions::default()
        })
        .solve(&g)
        .unwrap();
        assert!(damped.converged);
        assert!(
            damped.iterations > exact.iterations,
            "damping must lengthen the path: {} vs {}",
            damped.iterations,
            exact.iterations
        );
        assert!(
            (damped.potential - exact.potential).abs()
                <= 1e-3 * exact.potential.abs().max(1.0),
            "same plateau: {} vs {}",
            damped.potential,
            exact.potential
        );
        // Potential stays monotone under damping too.
        for w in damped.potential_trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-9 * w[0].abs().max(1.0));
        }
    }

    #[test]
    fn equilibrium_is_individually_rational_at_gamma_star() {
        let g = game(10, 7);
        let eq = DbrSolver::new().solve(&g).unwrap();
        let audit = tradefl_core::mechanism::MechanismAudit::evaluate(&g, &eq.profile);
        assert!(
            audit.individually_rational(1e-9),
            "min payoff {}",
            audit.min_payoff
        );
        assert!(audit.budget_balanced_rel(1e-9));
    }
}
