//! Social-welfare optimization and the price of anarchy.
//!
//! The Nash equilibrium maximizes the *potential*, not social welfare;
//! the gap between the two is exactly the inefficiency the paper's
//! trading mechanism narrows (Fig. 6's ordering). This module computes
//! the centralized welfare optimum
//!
//! ```text
//!   max_π  Σ_i C_i(π_i, π_-i)   s.t.  C^(1..3)
//! ```
//!
//! and the resulting **price of anarchy** `PoA = W(social) / W(NE) ≥ 1`.
//!
//! Social welfare is concave in `d` at fixed compute levels: with
//! `w_i = Σ_j ρ_ij p_j`,
//!
//! ```text
//!   W(d) = (Σp − Σw)·P(Ω) + Σ_i w_i·P(Ω − d_i s_i) − ϖ_e Σ_i E_i,
//! ```
//!
//! a non-negative combination of concave terms minus a linear one
//! (`Σp ≥ Σw` because every `z_i > 0`). The solver runs projected
//! gradient ascent over `d` per level assignment and coordinate descent
//! over the discrete levels.

use crate::error::{Result, SolveError};
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::strategy::{Strategy, StrategyProfile};

/// Options for [`solve_social_optimum`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialOptions {
    /// Projected-gradient iterations per level assignment.
    pub max_iters: usize,
    /// Convergence tolerance on the step size.
    pub tol: f64,
    /// Level-coordinate-descent sweeps.
    pub max_sweeps: usize,
}

impl Default for SocialOptions {
    fn default() -> Self {
        Self { max_iters: 4000, tol: 1e-9, max_sweeps: 8 }
    }
}

/// The welfare optimum and its comparison against an equilibrium.
#[derive(Debug, Clone, PartialEq)]
pub struct SocialOptimum {
    /// The welfare-maximizing profile.
    pub profile: StrategyProfile,
    /// Social welfare at the optimum.
    pub welfare: f64,
}

impl SocialOptimum {
    /// Price of anarchy against an equilibrium welfare value.
    ///
    /// Values below 1 (within solver tolerance) mean the "equilibrium"
    /// was not actually an equilibrium of the same game.
    pub fn price_of_anarchy(&self, equilibrium_welfare: f64) -> f64 {
        self.welfare / equilibrium_welfare
    }
}

/// Gradient of social welfare with respect to `d` at fixed levels.
///
/// `∂W/∂d_i = (Σp − Σw)·P'(Ω)·s_i + Σ_{k≠i} w_k·P'(Ω − d_k s_k)·s_i
///            − ϖ_e κ f_i² η_i s_i`.
pub fn welfare_d_grad<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    profile: &StrategyProfile,
) -> Vec<f64> {
    let market = game.market();
    let params = market.params();
    let n = market.len();
    let omega = profile.total_data(market);
    let p_total: f64 = market.orgs().iter().map(|o| o.profitability()).sum();
    let w: Vec<f64> = (0..n).map(|i| market.damage_weight(i)).collect();
    let w_total: f64 = w.iter().sum();
    let p_deriv = game.accuracy().gain_deriv(omega);
    // P'(Ω − d_k s_k) for every k.
    let p_deriv_minus: Vec<f64> = (0..n)
        .map(|k| {
            let omega_k = omega - profile[k].d * market.org(k).effective_bits();
            game.accuracy().gain_deriv(omega_k.max(0.0))
        })
        .collect();
    let cross_total: f64 = w.iter().zip(&p_deriv_minus).map(|(wk, pk)| wk * pk).sum();
    (0..n)
        .map(|i| {
            let org = market.org(i);
            let s = org.data_bits();
            let s_eff = org.effective_bits();
            let f = org.frequency(profile[i].level);
            let cross = cross_total - w[i] * p_deriv_minus[i];
            (p_total - w_total) * p_deriv * s_eff + cross * s_eff
                - params.omega_e * params.kappa * f * f * org.eta() * s
        })
        .collect()
}

/// Computes the centralized welfare maximum over the joint strategy
/// space (data fractions continuous, compute levels by coordinate
/// descent).
///
/// # Examples
///
/// ```
/// use tradefl_core::accuracy::SqrtAccuracy;
/// use tradefl_core::config::MarketConfig;
/// use tradefl_core::game::CoopetitionGame;
/// use tradefl_solver::dbr::DbrSolver;
/// use tradefl_solver::social::{solve_social_optimum, SocialOptions};
///
/// let market = MarketConfig::table_ii().with_orgs(3).build(2)?;
/// let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
/// let optimum = solve_social_optimum(&game, SocialOptions::default())?;
/// let ne = DbrSolver::new().solve(&game)?;
/// assert!(optimum.price_of_anarchy(ne.welfare) >= 1.0 - 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// [`SolveError::InfeasibleProblem`] if some organization has no
/// feasible level.
pub fn solve_social_optimum<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    options: SocialOptions,
) -> Result<SocialOptimum> {
    let market = game.market();
    let n = market.len();
    // Start at each org's cheapest feasible level.
    let mut levels: Vec<usize> = (0..n)
        .map(|i| {
            (0..market.org(i).compute_level_count())
                .find(|&l| market.feasible_range(i, l).is_some())
                .ok_or(SolveError::InfeasibleProblem { org: i })
        })
        .collect::<Result<_>>()?;

    let mut best_profile = ascend_d(game, &levels, options)?;
    let mut best_welfare = game.social_welfare(&best_profile);
    for _ in 0..options.max_sweeps {
        let mut improved = false;
        for i in 0..n {
            let original = levels[i];
            for l in 0..market.org(i).compute_level_count() {
                if l == original || market.feasible_range(i, l).is_none() {
                    continue;
                }
                levels[i] = l;
                let candidate = ascend_d(game, &levels, options)?;
                let w = game.social_welfare(&candidate);
                if w > best_welfare + 1e-9 * best_welfare.abs().max(1.0) {
                    best_welfare = w;
                    best_profile = candidate;
                    improved = true;
                } else {
                    levels[i] = original;
                }
            }
            levels[i] = best_profile[i].level;
        }
        if !improved {
            break;
        }
    }
    Ok(SocialOptimum { profile: best_profile, welfare: best_welfare })
}

/// Projected gradient ascent on welfare over `d` at fixed levels.
fn ascend_d<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    levels: &[usize],
    options: SocialOptions,
) -> Result<StrategyProfile> {
    let market = game.market();
    let n = market.len();
    let mut bounds = Vec::with_capacity(n);
    for (i, &l) in levels.iter().enumerate() {
        bounds.push(
            market
                .feasible_range(i, l)
                .ok_or(SolveError::InfeasibleProblem { org: i })?,
        );
    }
    let mut profile: StrategyProfile = bounds
        .iter()
        .zip(levels)
        .map(|(&(lo, hi), &l)| Strategy::new(0.5 * (lo + hi), l))
        .collect();
    let mut welfare = game.social_welfare(&profile);
    let mut step = 0.25;
    for _ in 0..options.max_iters {
        let grad = welfare_d_grad(game, &profile);
        let scale = grad.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
        let candidate: StrategyProfile = (0..n)
            .map(|i| {
                let (lo, hi) = bounds[i];
                Strategy::new(
                    (profile[i].d + step * grad[i] / scale).clamp(lo, hi),
                    levels[i],
                )
            })
            .collect();
        let w = game.social_welfare(&candidate);
        if w > welfare {
            let moved = candidate.distance(&profile);
            profile = candidate;
            welfare = w;
            step = (step * 1.5).min(0.5);
            if moved < options.tol {
                break;
            }
        } else {
            step *= 0.5;
            if step < options.tol * 1e-3 {
                break;
            }
        }
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::solve_scheme;
    use crate::outcome::Scheme;
    use tradefl_core::accuracy::SqrtAccuracy;
    use tradefl_core::config::MarketConfig;

    fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    #[test]
    fn welfare_gradient_matches_finite_difference() {
        let g = game(5, 3);
        let profile: StrategyProfile = (0..5)
            .map(|i| {
                let l = g.market().org(i).compute_level_count() - 1;
                let (lo, hi) = g.market().feasible_range(i, l).unwrap();
                Strategy::new(0.5 * (lo + hi), l)
            })
            .collect();
        let grad = welfare_d_grad(&g, &profile);
        for i in 0..5 {
            let h = 1e-7;
            let up = profile.with(i, Strategy::new(profile[i].d + h, profile[i].level));
            let dn = profile.with(i, Strategy::new(profile[i].d - h, profile[i].level));
            let fd = (g.social_welfare(&up) - g.social_welfare(&dn)) / (2.0 * h);
            let rel = (fd - grad[i]).abs() / grad[i].abs().max(1.0);
            assert!(rel < 1e-4, "i={i}: fd {fd} vs analytic {}", grad[i]);
        }
    }

    #[test]
    fn social_optimum_dominates_every_scheme() {
        let g = game(6, 9);
        let opt = solve_social_optimum(&g, SocialOptions::default()).unwrap();
        opt.profile.validate(g.market()).unwrap();
        for scheme in [Scheme::Dbr, Scheme::Wpr, Scheme::Gca, Scheme::Fip] {
            let eq = solve_scheme(&g, scheme).unwrap();
            assert!(
                opt.welfare >= eq.welfare - 1e-6 * opt.welfare.abs(),
                "{scheme:?}: social {} < equilibrium {}",
                opt.welfare,
                eq.welfare
            );
        }
    }

    #[test]
    fn price_of_anarchy_is_at_least_one() {
        let g = game(8, 12);
        let opt = solve_social_optimum(&g, SocialOptions::default()).unwrap();
        let ne = solve_scheme(&g, Scheme::Dbr).unwrap();
        let poa = opt.price_of_anarchy(ne.welfare);
        assert!(poa >= 1.0 - 1e-9, "PoA {poa}");
        assert!(poa < 2.0, "sanity: PoA {poa} should be modest at gamma*");
    }

    #[test]
    fn redistribution_narrows_the_poa_gap() {
        // TradeFL's whole point: at gamma*, the NE welfare is closer to
        // the social optimum than WPR's.
        let g = game(8, 21);
        let opt = solve_social_optimum(&g, SocialOptions::default()).unwrap();
        let dbr = solve_scheme(&g, Scheme::Dbr).unwrap();
        let wpr = solve_scheme(&g, Scheme::Wpr).unwrap();
        let poa_dbr = opt.price_of_anarchy(dbr.welfare);
        let poa_wpr = opt.price_of_anarchy(wpr.welfare);
        assert!(
            poa_dbr <= poa_wpr + 1e-9,
            "redistribution must not worsen PoA: dbr {poa_dbr} vs wpr {poa_wpr}"
        );
    }
}
