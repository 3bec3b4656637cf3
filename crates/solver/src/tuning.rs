//! Adaptive incentive-intensity tuning.
//!
//! The paper's operational takeaway is that welfare is non-monotone in
//! γ and "an appropriate γ, e.g. γ*, helps maximize social welfare
//! under different competition intensities" (§VI). This module gives
//! the platform that knob: a derivative-free search over γ that
//! evaluates each candidate by solving the induced game to equilibrium
//! (DBR) and measuring realized welfare — exactly what a real platform
//! can observe.
//!
//! The search is a coarse log-spaced grid pass followed by golden-
//! section refinement on the bracketing interval; welfare(γ) is
//! empirically unimodal on calibrated markets, and even where it is
//! not, the tuner returns the best *evaluated* point, so it never
//! regresses below the grid optimum.
//!
//! The candidates of the grid pass do not depend on each other, nor do
//! the first golden-section pair, so [`tune_gamma_with`] solves each of
//! those sets side by side, one pool task per candidate; each later
//! refinement step depends on the one before and runs alone. Results,
//! errors and the `dbr` event stream are merged in γ order, so the
//! search is bit-identical to the serial one for every worker count.

use crate::dbr::{DbrOptions, DbrSolver};
use crate::error::Result;
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_runtime::obs;
use tradefl_runtime::sync::pool::Pool;

/// Options for [`tune_gamma`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOptions {
    /// Lower end of the γ search range (0 is allowed).
    pub gamma_min: f64,
    /// Upper end of the γ search range.
    pub gamma_max: f64,
    /// Coarse grid points (log-spaced, plus `gamma_min` itself).
    pub grid: usize,
    /// Golden-section refinement iterations.
    pub refine_iters: usize,
    /// DBR options used for each evaluation.
    pub dbr: DbrOptions,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            gamma_min: 0.0,
            gamma_max: 1e-7,
            grid: 9,
            refine_iters: 16,
            dbr: DbrOptions::default(),
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneSample {
    /// The candidate incentive intensity.
    pub gamma: f64,
    /// Realized social welfare at the induced equilibrium.
    pub welfare: f64,
    /// Total data contribution at the equilibrium.
    pub total_fraction: f64,
}

/// Result of the search.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// The best incentive intensity found.
    pub gamma_star: f64,
    /// Welfare at `gamma_star`.
    pub welfare: f64,
    /// Every evaluation, in the order performed (grid then refinement).
    pub samples: Vec<TuneSample>,
}

/// Searches for the welfare-maximizing incentive intensity, solving
/// independent candidates concurrently on [`Pool::global`] (see
/// [`tune_gamma_with`]).
///
/// # Examples
///
/// ```
/// use tradefl_core::accuracy::SqrtAccuracy;
/// use tradefl_core::config::MarketConfig;
/// use tradefl_core::game::CoopetitionGame;
/// use tradefl_solver::tuning::{tune_gamma, TuneOptions};
///
/// let market = MarketConfig::table_ii().with_orgs(4).build(5)?;
/// let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
/// let options = TuneOptions { grid: 4, refine_iters: 2, ..TuneOptions::default() };
/// let report = tune_gamma(&game, options)?;
/// assert!(report.welfare.is_finite());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Propagates market-validation or solver failures from any candidate
/// evaluation.
pub fn tune_gamma<A: AccuracyModel + Clone>(
    game: &CoopetitionGame<A>,
    options: TuneOptions,
) -> Result<TuneReport> {
    tune_gamma_with(game, options, Pool::global())
}

/// [`tune_gamma`] on an explicit pool. The grid pass solves all its
/// points as one scope, the first golden-section pair as another, and
/// each refinement step (which depends on the one before) as a
/// one-task scope that runs inline. Each candidate's DBR runs on a
/// one-worker pool, so tasks never fan out again. Samples, events and
/// the returned error are those of the serial search for every worker
/// count: results are merged in γ order, and when several candidates
/// in one scope fail, the lowest-indexed error is returned.
///
/// # Errors
///
/// See [`tune_gamma`].
pub fn tune_gamma_with<A: AccuracyModel + Clone>(
    game: &CoopetitionGame<A>,
    options: TuneOptions,
    pool: &Pool,
) -> Result<TuneReport> {
    let mut samples = Vec::new();
    let mut evaluate = |gammas: &[f64]| evaluate_all(game, options.dbr, gammas, pool, &mut samples);

    // Coarse pass: gamma_min plus a log-spaced grid up to gamma_max.
    let mut grid_points = vec![options.gamma_min];
    let lo_positive = (options.gamma_min.max(options.gamma_max * 1e-3)).max(1e-12);
    for k in 0..options.grid {
        let t = k as f64 / (options.grid.max(2) - 1) as f64;
        grid_points.push(lo_positive * (options.gamma_max / lo_positive).powf(t));
    }
    grid_points.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
    let mut best_idx = 0;
    let mut best_welfare = f64::NEG_INFINITY;
    for (idx, w) in evaluate(&grid_points)?.into_iter().enumerate() {
        if w > best_welfare {
            best_welfare = w;
            best_idx = idx;
        }
    }

    // Refinement: golden-section on the bracket around the grid winner.
    let lo = if best_idx == 0 { grid_points[0] } else { grid_points[best_idx - 1] };
    let hi = if best_idx + 1 < grid_points.len() {
        grid_points[best_idx + 1]
    } else {
        grid_points[best_idx]
    };
    if hi > lo {
        const PHI: f64 = 0.618_033_988_749_895;
        let (mut a, mut b) = (lo, hi);
        let mut x1 = b - PHI * (b - a);
        let mut x2 = a + PHI * (b - a);
        let pair = evaluate(&[x1, x2])?;
        let (mut f1, mut f2) = (pair[0], pair[1]);
        for _ in 0..options.refine_iters {
            if f1 >= f2 {
                b = x2;
                x2 = x1;
                f2 = f1;
                x1 = b - PHI * (b - a);
                f1 = evaluate(&[x1])?[0];
            } else {
                a = x1;
                x1 = x2;
                f1 = f2;
                x2 = a + PHI * (b - a);
                f2 = evaluate(&[x2])?[0];
            }
            if (b - a) <= 1e-3 * hi.max(1e-12) {
                break;
            }
        }
    }

    let best = samples
        .iter()
        .max_by(|a, b| a.welfare.total_cmp(&b.welfare))
        .copied()
        // lint:allow(no-panic-in-lib): the coarse grid always contains gamma_min, so samples is non-empty
        .expect("at least one candidate evaluated");
    Ok(TuneReport { gamma_star: best.gamma, welfare: best.welfare, samples })
}

/// Solves the game induced by each γ in `gammas` to equilibrium, one
/// `pool` task per candidate, then appends the samples to `samples`
/// and returns the welfares, both in γ order. Each task writes its own
/// slot; when the caller is recording, each task records under
/// [`obs::capture`] and its snapshot is absorbed in γ order, so the
/// exported event stream is the serial loop's. If several candidates
/// fail, the lowest-indexed error is returned, with only the
/// recordings of the candidates up to it absorbed — as if the loop had
/// stopped there.
fn evaluate_all<A: AccuracyModel + Clone>(
    game: &CoopetitionGame<A>,
    dbr: DbrOptions,
    gammas: &[f64],
    pool: &Pool,
    samples: &mut Vec<TuneSample>,
) -> Result<Vec<f64>> {
    let recording = obs::is_enabled();
    let mut slots: Vec<Option<(Result<TuneSample>, Option<obs::Snapshot>)>> =
        gammas.iter().map(|_| None).collect();
    pool.scope(|s| {
        for (slot, &gamma) in slots.iter_mut().zip(gammas) {
            s.spawn(move || {
                *slot = Some(obs::capture(recording, || {
                    let params = game.market().params().with_gamma(gamma);
                    let tuned = game.with_params(params)?;
                    // lint:allow(no-nested-pool-scope): a one-worker pool runs every scope inline, so the payoff-trace row never fans out from a task
                    let eq = DbrSolver::with_options(dbr).solve_with(&tuned, &Pool::new(1))?;
                    Ok(TuneSample { gamma, welfare: eq.welfare, total_fraction: eq.total_fraction })
                }));
            });
        }
    });
    // `scope` returns only once every task has run, so every slot is
    // filled.
    let mut welfares = Vec::with_capacity(gammas.len());
    for (sample, snapshot) in slots.into_iter().flatten() {
        if let Some(snapshot) = snapshot {
            obs::absorb(snapshot);
        }
        let sample = sample?;
        welfares.push(sample.welfare);
        samples.push(sample);
    }
    Ok(welfares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradefl_core::accuracy::SqrtAccuracy;
    use tradefl_core::config::MarketConfig;
    use tradefl_core::market::MechanismParams;

    fn game(seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(8).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    #[test]
    fn tuner_finds_an_interior_peak_near_gamma_star() {
        let g = game(42);
        let report = tune_gamma(&g, TuneOptions::default()).unwrap();
        // The calibration places the peak at gamma* = 5.12e-9; the tuner
        // must land within a factor of ~3 of it.
        assert!(
            report.gamma_star > 1.5e-9 && report.gamma_star < 1.6e-8,
            "gamma_star {}",
            report.gamma_star
        );
        // And it must beat both endpoints.
        let endpoint = |g0: f64| {
            let params = g.market().params().with_gamma(g0);
            let tuned = g.with_params(params).unwrap();
            DbrSolver::new().solve(&tuned).unwrap().welfare
        };
        assert!(report.welfare >= endpoint(0.0));
        assert!(report.welfare >= endpoint(1e-7));
    }

    #[test]
    fn tuner_never_returns_worse_than_the_grid_best() {
        let g = game(7);
        let report = tune_gamma(
            &g,
            TuneOptions { refine_iters: 0, ..TuneOptions::default() },
        )
        .unwrap();
        let best_sample = report
            .samples
            .iter()
            .map(|s| s.welfare)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(report.welfare, best_sample);
    }

    #[test]
    fn samples_record_every_evaluation() {
        let g = game(9);
        let options = TuneOptions { grid: 5, refine_iters: 4, ..TuneOptions::default() };
        let report = tune_gamma(&g, options).unwrap();
        assert!(report.samples.len() >= 6); // grid + gamma_min + refinements
        assert!(report.samples.iter().all(|s| s.welfare.is_finite()));
    }

    #[test]
    fn the_lowest_indexed_failure_wins_on_any_pool() {
        use crate::error::SolveError;
        // Grid `[0, 1e-12, -1e-7]`: one DBR round never converges, so
        // the two valid candidates fail after a solve's worth of work,
        // while the negative γ fails its validation at once. Candidate
        // 0's error must win even though candidate 2's completes first.
        let market = MarketConfig::table_ii().with_orgs(300).build(11).unwrap();
        let g = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        let options = TuneOptions {
            gamma_min: 0.0,
            gamma_max: -1e-7,
            grid: 2,
            refine_iters: 0,
            dbr: DbrOptions { max_rounds: 1, ..DbrOptions::default() },
        };
        let serial = tune_gamma_with(&g, options, &Pool::new(1)).unwrap_err();
        assert!(matches!(serial, SolveError::DidNotConverge { .. }), "{serial:?}");
        for _ in 0..8 {
            assert_eq!(tune_gamma_with(&g, options, &Pool::new(4)).unwrap_err(), serial);
        }
    }

    #[test]
    fn works_under_different_mechanism_params() {
        // Heavier training overhead moves the peak; the tuner still
        // finds an interior point at least as good as the endpoints.
        let market = MarketConfig::table_ii()
            .with_orgs(6)
            .with_params(MechanismParams {
                omega_e: 2.5e-3,
                ..MechanismParams::paper_default()
            })
            .build(3)
            .unwrap();
        let g = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        let report = tune_gamma(&g, TuneOptions::default()).unwrap();
        assert!(report.welfare.is_finite());
        assert!(report.gamma_star >= 0.0);
    }
}
