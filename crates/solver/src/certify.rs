//! Exact Nash-equilibrium certification.
//!
//! [`tradefl_core::game::CoopetitionGame::best_sampled_deviation_gain`]
//! probes a grid; this module certifies equilibria *exactly*: because
//! each organization's payoff is concave in `d_i` at every compute
//! level, its true best response is computable (bisection on the
//! derivative per level, max over levels), so the largest achievable
//! unilateral improvement is known, not sampled. A profile is an
//! ε-Nash equilibrium (Definition 6) iff that improvement is ≤ ε.

use crate::bestresponse::best_response;
use crate::error::{Result, SolveError};
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::strategy::StrategyProfile;

/// The outcome of certifying a strategy profile.
// lint:allow(unreferenced-pub-type): paper API: the result of E10's equilibrium certificate, which certify_nash returns
#[derive(Debug, Clone, PartialEq)]
pub struct NashCertificate {
    /// The largest payoff improvement any organization can achieve by
    /// unilateral deviation (exact up to bisection tolerance).
    pub epsilon: f64,
    /// Which organization has the largest incentive to deviate.
    pub worst_org: usize,
    /// Per-organization best-response gains.
    pub gains: Vec<f64>,
}

impl NashCertificate {
    /// Whether the certified profile is an ε-Nash equilibrium for the
    /// given tolerance.
    // lint:allow(unreferenced-pub-fn): paper API: the verdict of the E10 equilibrium certificate
    pub fn is_epsilon_nash(&self, epsilon: f64) -> bool {
        self.epsilon <= epsilon
    }
}

/// Certifies `profile` under the full payoff (Eq. 11) of `game`. A WPR
/// equilibrium certifies on the γ = 0 game, whose payoff is Eq. (11)
/// with every `R_i` zero.
///
/// # Examples
///
/// ```
/// use tradefl_core::accuracy::SqrtAccuracy;
/// use tradefl_core::config::MarketConfig;
/// use tradefl_core::game::CoopetitionGame;
/// use tradefl_solver::certify::certify_nash;
/// use tradefl_solver::dbr::DbrSolver;
///
/// let market = MarketConfig::table_ii().with_orgs(4).build(3)?;
/// let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
/// let eq = DbrSolver::new().solve(&game)?;
/// let cert = certify_nash(&game, &eq.profile)?;
/// assert!(cert.is_epsilon_nash(1e-3 * eq.welfare.abs()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// * Propagates profile-validation failures;
/// * [`SolveError::InfeasibleProblem`] if some organization has no
///   feasible strategy at all.
// lint:allow(unreferenced-pub-fn): paper API: E10 certifies an equilibrium by exhaustive unilateral deviation
pub fn certify_nash<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    profile: &StrategyProfile,
) -> Result<NashCertificate> {
    profile.validate(game.market())?;
    let n = game.market().len();
    let mut gains = Vec::with_capacity(n);
    let mut worst_org = 0;
    let mut epsilon = f64::NEG_INFINITY;
    for i in 0..n {
        let current = game.payoff(profile, i);
        let br = best_response(game, profile, i)
            .ok_or(SolveError::InfeasibleProblem { org: i })?;
        let gain = (br.payoff - current).max(0.0);
        if gain > epsilon {
            epsilon = gain;
            worst_org = i;
        }
        gains.push(gain);
    }
    Ok(NashCertificate { epsilon, worst_org, gains })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{solve_gca, solve_scheme};
    use crate::dbr::DbrSolver;
    use crate::outcome::Scheme;
    use tradefl_core::accuracy::SqrtAccuracy;
    use tradefl_core::config::MarketConfig;

    fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    #[test]
    fn dbr_equilibrium_certifies_with_tiny_epsilon() {
        let g = game(8, 5);
        let eq = DbrSolver::new().solve(&g).unwrap();
        let cert = certify_nash(&g, &eq.profile).unwrap();
        assert!(
            cert.is_epsilon_nash(1e-4 * eq.welfare.abs()),
            "epsilon {} too large",
            cert.epsilon
        );
        assert_eq!(cert.gains.len(), 8);
    }

    #[test]
    fn wpr_equilibrium_certifies_under_its_own_objective_only() {
        let g = game(6, 9);
        let wpr = solve_scheme(&g, Scheme::Wpr).unwrap();
        let g0 = g.with_params(g.market().params().with_gamma(0.0)).unwrap();
        let under_wpr = certify_nash(&g0, &wpr.profile).unwrap();
        assert!(under_wpr.is_epsilon_nash(1e-4 * wpr.welfare.abs()));
        // Under the FULL payoff, the WPR profile leaves money on the
        // table: redistribution makes deviating profitable.
        let under_full = certify_nash(&g, &wpr.profile).unwrap();
        assert!(
            under_full.epsilon > under_wpr.epsilon,
            "full-payoff epsilon {} should exceed {}",
            under_full.epsilon,
            under_wpr.epsilon
        );
    }

    #[test]
    fn restricted_baseline_fails_full_certification() {
        // GCA's tied compute levels are generally not best responses.
        let g = game(6, 21);
        let gca = solve_gca(&g).unwrap();
        let cert = certify_nash(&g, &gca.profile).unwrap();
        assert!(
            cert.epsilon > 1e-3,
            "GCA should not certify as an exact NE (epsilon {})",
            cert.epsilon
        );
    }

    #[test]
    fn minimal_profile_is_far_from_equilibrium() {
        let g = game(5, 2);
        let p = StrategyProfile::minimal(g.market());
        let cert = certify_nash(&g, &p).unwrap();
        assert!(cert.epsilon > 1.0, "minimal profile epsilon {}", cert.epsilon);
        assert!(cert.gains[cert.worst_org] == cert.epsilon);
    }

    #[test]
    fn invalid_profile_is_rejected() {
        let g = game(3, 1);
        let bad = StrategyProfile::from_parts(&[2.0, 0.5, 0.5], &[0, 0, 0]);
        assert!(certify_nash(&g, &bad).is_err());
    }
}
