//! Single-organization best responses (Definition 9).
//!
//! The best response maximizes `C_i(π_i, π_-i)` over `d_i` (continuous,
//! concave — bisection on the derivative) and the compute level
//! (discrete — enumerated), mirroring how the paper solves (24) "by the
//! proposed GBD-based algorithm since (24) has a similar structure to
//! (18)": fix the integer part, solve the convex part exactly.

use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::incremental::MoverView;
use tradefl_core::strategy::{Strategy, StrategyProfile};

/// A best response together with the payoff it attains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestResponse {
    /// The maximizing strategy.
    pub strategy: Strategy,
    /// The payoff `C_i` at the maximizing strategy.
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
) -> Option<BestResponse> {
    let levels = game.market().org(i).compute_level_count();
    let mut best: Option<BestResponse> = None;
    for candidate in (0..levels).filter_map(|level| level_candidate(game, profile, i, level)) {
        if best.map_or(true, |b| candidate.payoff > b.payoff) {
            best = Some(candidate);
        }
    }
    best
}

/// [`best_response`] through one organization's [`MoverView`]: every
/// candidate evaluation folds the view's copied `O(log N)` tree path
/// instead of an `O(N)` pass, so the whole search costs
/// `O(levels · log N)` — the building block of the sub-quadratic DBR
/// sweep. Levels probing the same `d` (`D_min`, a shared deadline cap)
/// share the view's memoised `Ω` terms. Merges levels with the same
/// first-maximum-wins rule as [`best_response`].
///
/// The returned [`BestResponse::payoff`] is the **mover objective**
/// ([`MoverView::mover_payoff`]): `C_i` shifted by the
/// mover-invariant redistribution cross-term (exact at γ = 0). The
/// maximizing *strategy* agrees with the exact path up to bisection
/// rounding; the payoff field must only be compared against other
/// mover-objective values for the same organization.
pub fn best_response_incremental<A: AccuracyModel>(
    view: &mut MoverView<'_, '_, A>,
) -> Option<BestResponse> {
    let i = view.org();
    let market = view.game().market();
    let levels = market.org(i).compute_level_count();
    let mut best: Option<BestResponse> = None;
    for level in 0..levels {
        let Some((lo, hi)) = market.feasible_range(i, level) else {
            continue;
        };
        let d = bisect_concave_max(lo, hi, |d| view.d_deriv(Strategy::new(d, level)));
        let candidate = Strategy::new(d, level);
        let payoff = view.mover_payoff(candidate);
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
) -> Option<BestResponse> {
    let (lo, hi) = game.market().feasible_range(i, level)?;
    let d = maximize_concave_1d(game, profile, i, level, lo, hi);
    let candidate = Strategy::new(d, level);
    let payoff = game.payoff(&profile.with(i, candidate), i);
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
) -> f64 {
    bisect_concave_max(lo, hi, |d| {
        game.payoff_d_deriv(&profile.with(i, Strategy::new(d, level)), i)
    })
}

/// The shared bisection: maximizes a concave function on `[lo, hi]`
/// given its (monotonically non-increasing) derivative. Both the exact
/// and the incremental search funnel through this one routine, so their
/// candidate sequences are identical given identical derivative values.
fn bisect_concave_max(lo: f64, hi: f64, mut deriv_at: impl FnMut(f64) -> f64) -> f64 {
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
    use tradefl_core::incremental::IncrementalEval;

    fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    #[test]
    fn best_response_beats_grid_search() {
        let g = game(4, 17);
        let profile = StrategyProfile::minimal(g.market());
        for i in 0..4 {
            let br = best_response(&g, &profile, i).unwrap();
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
            let br = best_response(&g, &profile, i).unwrap();
            let updated = profile.with(i, br.strategy);
            updated.validate(g.market()).unwrap();
        }
    }

    /// The same market with redistribution switched off (γ = 0): the
    /// game WPR's organizations play.
    fn zero_gamma(g: &CoopetitionGame<SqrtAccuracy>) -> CoopetitionGame<SqrtAccuracy> {
        g.with_params(g.market().params().with_gamma(0.0)).unwrap()
    }

    #[test]
    fn wpr_objective_contributes_no_more_than_full() {
        // Redistribution only adds incentive to contribute, so at γ > 0
        // the WPR (γ = 0) best response never exceeds the full one in d.
        let g = game(4, 31);
        let g0 = zero_gamma(&g);
        let profile = StrategyProfile::minimal(g.market());
        for i in 0..4 {
            let full = best_response(&g, &profile, i).unwrap();
            let wpr = best_response(&g0, &profile, i).unwrap();
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
        let full = game(8, 17);
        for g in [zero_gamma(&full), full] {
            let gamma = g.market().params().gamma;
            let profile = StrategyProfile::minimal(g.market());
            let eval = IncrementalEval::new(&g, profile.clone());
            for i in 0..8 {
                let exact = best_response(&g, &profile, i).unwrap();
                let inc = best_response_incremental(&mut eval.mover(i)).unwrap();
                assert_eq!(
                    inc.strategy.level, exact.strategy.level,
                    "i={i} γ={gamma}: level mismatch"
                );
                assert!(
                    (inc.strategy.d - exact.strategy.d).abs() < 1e-9,
                    "i={i} γ={gamma}: d {} vs {}",
                    inc.strategy.d,
                    exact.strategy.d
                );
                // The mover objective must rank the exact winner no
                // better than its own (and vice versa, via the true
                // payoff) — i.e. both paths find the same optimum.
                let true_inc = g.payoff(&profile.with(i, inc.strategy), i);
                assert!(
                    (true_inc - exact.payoff).abs() <= 1e-9 * exact.payoff.abs().max(1.0),
                    "i={i} γ={gamma}: true payoff {} vs exact {}",
                    true_inc,
                    exact.payoff
                );
            }
        }
    }

    #[test]
    fn zero_gamma_best_response_maximizes_the_payoff_less_redistribution() {
        // WPR's objective on the real market is C_i − R_i; the γ = 0
        // game's best response must beat every grid alternative under it.
        let g = game(3, 5);
        let g0 = zero_gamma(&g);
        let profile = StrategyProfile::minimal(g.market());
        let wpr_payoff = |p: &StrategyProfile, i| g.payoff(p, i) - g.redistribution(p, i);
        for i in 0..3 {
            let br = best_response(&g0, &profile, i).unwrap();
            let at_br = wpr_payoff(&profile.with(i, br.strategy), i);
            assert!((at_br - br.payoff).abs() <= 1e-9 * br.payoff.abs().max(1.0));
            for level in 0..g.market().org(i).compute_level_count() {
                let Some((lo, hi)) = g.market().feasible_range(i, level) else { continue };
                for k in 0..=40 {
                    let d = lo + (hi - lo) * k as f64 / 40.0;
                    let alt = wpr_payoff(&profile.with(i, Strategy::new(d, level)), i);
                    assert!(
                        alt <= at_br + 1e-6 * at_br.abs().max(1.0),
                        "i={i} level={level} d={d}: {alt} > {at_br}"
                    );
                }
            }
        }
    }
}
