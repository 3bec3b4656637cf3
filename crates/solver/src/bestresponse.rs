//! Single-organization best responses (Definition 9).
//!
//! The best response maximizes `C_i(π_i, π_-i)` over `d_i` (continuous,
//! concave — bisection on the derivative) and the compute level
//! (discrete — enumerated), mirroring how the paper solves (24) "by the
//! proposed GBD-based algorithm since (24) has a similar structure to
//! (18)": fix the integer part, solve the convex part exactly.

use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::incremental::IncrementalEval;
use tradefl_core::strategy::{Strategy, StrategyProfile};

/// Which payoff an organization best-responds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// The full TradeFL payoff `C_i` (Eq. 11).
    Full,
    /// The payoff with redistribution removed (the WPR baseline).
    WithoutRedistribution,
}

impl Objective {
    /// Evaluates the chosen payoff for organization `i`.
    pub fn payoff<A: AccuracyModel>(
        &self,
        game: &CoopetitionGame<A>,
        profile: &StrategyProfile,
        i: usize,
    ) -> f64 {
        match self {
            Objective::Full => game.payoff(profile, i),
            Objective::WithoutRedistribution => game.payoff_without_redistribution(profile, i),
        }
    }

    fn d_deriv<A: AccuracyModel>(
        &self,
        game: &CoopetitionGame<A>,
        profile: &StrategyProfile,
        i: usize,
    ) -> f64 {
        match self {
            Objective::Full => game.payoff_d_deriv(profile, i),
            Objective::WithoutRedistribution => {
                game.payoff_without_redistribution_d_deriv(profile, i)
            }
        }
    }

    /// The chosen objective for organization `i` at a candidate,
    /// evaluated in `O(log N)` through an [`IncrementalEval`] — **up to
    /// a mover-invariant additive constant** for [`Objective::Full`]
    /// (see [`IncrementalEval::mover_payoff_at`]). Valid for comparing
    /// candidates of the *same* organization only.
    pub fn mover_payoff_incremental<A: AccuracyModel>(
        &self,
        eval: &IncrementalEval<'_, A>,
        i: usize,
        candidate: Strategy,
    ) -> f64 {
        match self {
            Objective::Full => eval.mover_payoff_at(i, candidate),
            Objective::WithoutRedistribution => {
                eval.payoff_without_redistribution_at(i, candidate)
            }
        }
    }

    fn d_deriv_incremental<A: AccuracyModel>(
        &self,
        eval: &IncrementalEval<'_, A>,
        i: usize,
        candidate: Strategy,
    ) -> f64 {
        match self {
            Objective::Full => eval.payoff_d_deriv_at(i, candidate),
            Objective::WithoutRedistribution => {
                eval.payoff_without_redistribution_d_deriv_at(i, candidate)
            }
        }
    }
}

/// A best response together with the payoff it attains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestResponse {
    /// The maximizing strategy.
    pub strategy: Strategy,
    /// The payoff `C_i` at the maximizing strategy (under the chosen
    /// objective).
    pub payoff: f64,
}

/// Computes organization `i`'s best response to `profile`'s `π_-i`:
/// one 1-D maximization per compute level, merged in ladder order with
/// a strict-improvement comparison, so the first maximum wins (the
/// lowest level wins ties). Each level's bisection depends only on
/// `(game, profile, i, level)`.
///
/// Returns `None` only if no compute level admits a feasible data
/// fraction (the market constructor normally rules this out).
pub fn best_response<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    profile: &StrategyProfile,
    i: usize,
    objective: Objective,
) -> Option<BestResponse> {
    let levels = game.market().org(i).compute_level_count();
    let mut best: Option<BestResponse> = None;
    for candidate in
        (0..levels).filter_map(|level| level_candidate(game, profile, i, level, objective))
    {
        if best.map_or(true, |b| candidate.payoff > b.payoff) {
            best = Some(candidate);
        }
    }
    best
}

/// [`best_response`] through an [`IncrementalEval`]: every candidate
/// evaluation is `O(log N)` instead of `O(N)`, so the whole search
/// costs `O(levels · log N)` — the building block of the sub-quadratic
/// DBR sweep. Merges levels with the same first-maximum-wins rule as
/// [`best_response`].
///
/// The returned [`BestResponse::payoff`] is the **mover objective**
/// ([`Objective::mover_payoff_incremental`]): exact for
/// [`Objective::WithoutRedistribution`], shifted by the mover-invariant
/// redistribution cross-term for [`Objective::Full`]. The maximizing
/// *strategy* agrees with the exact path up to bisection rounding; the
/// payoff field must only be compared against other mover-objective
/// values for the same organization.
pub fn best_response_incremental<A: AccuracyModel>(
    eval: &IncrementalEval<'_, A>,
    i: usize,
    objective: Objective,
) -> Option<BestResponse> {
    let market = eval.game().market();
    let levels = market.org(i).compute_level_count();
    let mut best: Option<BestResponse> = None;
    for level in 0..levels {
        let Some((lo, hi)) = market.feasible_range(i, level) else {
            continue;
        };
        let d = bisect_concave_max(lo, hi, |d| {
            objective.d_deriv_incremental(eval, i, Strategy::new(d, level))
        });
        let candidate = Strategy::new(d, level);
        let payoff = objective.mover_payoff_incremental(eval, i, candidate);
        if best.map_or(true, |b| payoff > b.payoff) {
            best = Some(BestResponse { strategy: candidate, payoff });
        }
    }
    best
}

/// The best feasible `(d, payoff)` at one fixed ladder level, or
/// `None` when the level cannot meet the deadline at any `d`.
fn level_candidate<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    profile: &StrategyProfile,
    i: usize,
    level: usize,
    objective: Objective,
) -> Option<BestResponse> {
    let (lo, hi) = game.market().feasible_range(i, level)?;
    let d = maximize_concave_1d(game, profile, i, level, lo, hi, objective);
    let candidate = Strategy::new(d, level);
    let payoff = objective.payoff(game, &profile.with(i, candidate), i);
    Some(BestResponse { strategy: candidate, payoff })
}

/// Maximizes the concave payoff in `d` on `[lo, hi]` at a fixed level by
/// bisection on the (monotonically non-increasing) derivative.
fn maximize_concave_1d<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    profile: &StrategyProfile,
    i: usize,
    level: usize,
    lo: f64,
    hi: f64,
    objective: Objective,
) -> f64 {
    bisect_concave_max(lo, hi, |d| {
        objective.d_deriv(game, &profile.with(i, Strategy::new(d, level)), i)
    })
}

/// The shared bisection: maximizes a concave function on `[lo, hi]`
/// given its (monotonically non-increasing) derivative. Both the exact
/// and the incremental search funnel through this one routine, so their
/// candidate sequences are identical given identical derivative values.
fn bisect_concave_max(lo: f64, hi: f64, deriv_at: impl Fn(f64) -> f64) -> f64 {
    if deriv_at(lo) <= 0.0 {
        return lo;
    }
    if deriv_at(hi) >= 0.0 {
        return hi;
    }
    let (mut a, mut b) = (lo, hi);
    for _ in 0..64 {
        let mid = 0.5 * (a + b);
        if deriv_at(mid) > 0.0 {
            a = mid;
        } else {
            b = mid;
        }
        if b - a < 1e-12 {
            break;
        }
    }
    0.5 * (a + b)
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
    fn best_response_beats_grid_search() {
        let g = game(4, 17);
        let profile = StrategyProfile::minimal(g.market());
        for i in 0..4 {
            let br = best_response(&g, &profile, i, Objective::Full).unwrap();
            // No grid alternative may beat the reported best response.
            for level in 0..g.market().org(i).compute_level_count() {
                if let Some((lo, hi)) = g.market().feasible_range(i, level) {
                    for k in 0..=40 {
                        let d = lo + (hi - lo) * k as f64 / 40.0;
                        let alt = g.payoff(&profile.with(i, Strategy::new(d, level)), i);
                        assert!(
                            alt <= br.payoff + 1e-6 * br.payoff.abs().max(1.0),
                            "i={i} level={level} d={d}: {alt} > {}",
                            br.payoff
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn best_response_is_feasible() {
        let g = game(5, 29);
        let profile = StrategyProfile::minimal(g.market());
        for i in 0..5 {
            let br = best_response(&g, &profile, i, Objective::Full).unwrap();
            let updated = profile.with(i, br.strategy);
            updated.validate(g.market()).unwrap();
        }
    }

    #[test]
    fn wpr_objective_contributes_no_more_than_full() {
        // Redistribution only adds incentive to contribute, so at γ > 0
        // the WPR best response never exceeds the full one in d.
        let g = game(4, 31);
        let profile = StrategyProfile::minimal(g.market());
        for i in 0..4 {
            let full = best_response(&g, &profile, i, Objective::Full).unwrap();
            let wpr =
                best_response(&g, &profile, i, Objective::WithoutRedistribution).unwrap();
            assert!(
                wpr.strategy.d <= full.strategy.d + 1e-9,
                "i={i}: wpr d {} > full d {}",
                wpr.strategy.d,
                full.strategy.d
            );
        }
    }

    #[test]
    fn incremental_best_response_matches_the_exact_path() {
        let g = game(8, 17);
        let profile = StrategyProfile::minimal(g.market());
        let eval = IncrementalEval::new(&g, profile.clone());
        for i in 0..8 {
            for objective in [Objective::Full, Objective::WithoutRedistribution] {
                let exact = best_response(&g, &profile, i, objective).unwrap();
                let inc = best_response_incremental(&eval, i, objective).unwrap();
                assert_eq!(
                    inc.strategy.level, exact.strategy.level,
                    "i={i} {objective:?}: level mismatch"
                );
                assert!(
                    (inc.strategy.d - exact.strategy.d).abs() < 1e-9,
                    "i={i} {objective:?}: d {} vs {}",
                    inc.strategy.d,
                    exact.strategy.d
                );
                // The mover objective must rank the exact winner no
                // better than its own (and vice versa, via the true
                // payoff) — i.e. both paths find the same optimum.
                let true_inc = g.payoff(&profile.with(i, inc.strategy), i);
                assert!(
                    (true_inc - exact.payoff).abs()
                        <= 1e-9 * exact.payoff.abs().max(1.0)
                        || objective == Objective::WithoutRedistribution,
                    "i={i}: true payoff {} vs exact {}",
                    true_inc,
                    exact.payoff
                );
            }
        }
    }

    #[test]
    fn zero_gamma_makes_objectives_agree() {
        let g0 = game(3, 5);
        let params = g0.market().params().with_gamma(0.0);
        let g = g0.with_params(params).unwrap();
        let profile = StrategyProfile::minimal(g.market());
        for i in 0..3 {
            let a = best_response(&g, &profile, i, Objective::Full).unwrap();
            let b =
                best_response(&g, &profile, i, Objective::WithoutRedistribution).unwrap();
            assert!((a.strategy.d - b.strategy.d).abs() < 1e-9);
            assert_eq!(a.strategy.level, b.strategy.level);
        }
    }
}
