//! The coopetition game `𝒢` (§III-C..E, §IV).
//!
//! [`CoopetitionGame`] couples a [`Market`] with an [`AccuracyModel`] and
//! implements every economic quantity of the paper:
//!
//! * revenue `p_i P(Ω)` (§III-C1),
//! * coopetition damage `D_i` (Eqs. 6-7),
//! * training overhead `E_i` (Eq. 8),
//! * payoff redistribution `r_{i,j}`, `R_i` (Eqs. 9-10),
//! * payoff `C_i` (Eq. 11) and social welfare,
//! * the weighted potential `U` (Eq. 15 / Theorem 1).
//!
//! # A note on Eq. (15)
//!
//! The paper's printed potential (15) includes the *full* received
//! redistribution `Σ_j r_{i,j}/z_i` per organization. The subtrahend
//! `−γ ρ_{i,j}(d_j s_j + λ f_j)` inside `r_{i,j}` depends on the
//! *opponents'* strategies, so changing `π_i` also changes the terms
//! filed under every other organization `j ≠ i` (through `r_{j,i}`), and
//! the printed form violates the exact identity (14) it is meant to
//! satisfy. The paper's own proof (its Eq. 16) silently freezes those
//! cross terms, which is equivalent to keeping only the part of `r_{i,j}`
//! that depends on `π_i`:
//!
//! ```text
//!   U(π) = P(Ω) − Σ_i [ ϖ_e E_i − γ q_i (d_i s_i + λ f_i) ] / z_i,
//!   q_i = Σ_j ρ_{i,j},   z_i = p_i − Σ_j ρ_{i,j} p_j
//! ```
//!
//! [`CoopetitionGame::potential`] implements this exact weighted
//! potential (identity (14) holds to machine precision — see the tests
//! and the `potential_identity` property test), while
//! [`CoopetitionGame::potential_paper_eq15`] evaluates the printed form
//! verbatim for comparison. Both are maximized by the same best-response
//! dynamics; only the exact form certifies convergence.

use crate::accuracy::AccuracyModel;
use crate::error::Result;
use crate::market::Market;
use crate::strategy::{Strategy, StrategyProfile};

/// Itemized payoff of one organization under a strategy profile
/// (the terms of Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayoffBreakdown {
    /// Revenue from the global model, `p_i · P(Ω)`.
    pub revenue: f64,
    /// Weighted training overhead, `ϖ_e · E_i`.
    pub overhead: f64,
    /// Coopetition damage `D_i` (Eq. 7).
    pub damage: f64,
    /// Received payoff redistribution `R_i` (Eq. 10; may be negative).
    pub redistribution: f64,
}

impl PayoffBreakdown {
    /// The payoff `C_i = revenue − overhead − damage + redistribution`.
    pub fn total(&self) -> f64 {
        self.revenue - self.overhead - self.damage + self.redistribution
    }
}

/// The coopetition game: market + data-accuracy function.
///
/// Generic over the accuracy model so that solvers monomorphize; use
/// `CoopetitionGame<Box<dyn AccuracyModel>>` for dynamic dispatch.
///
/// # Examples
///
/// ```
/// use tradefl_core::accuracy::SqrtAccuracy;
/// use tradefl_core::config::MarketConfig;
/// use tradefl_core::game::CoopetitionGame;
/// use tradefl_core::strategy::StrategyProfile;
///
/// let market = MarketConfig::table_ii().build(42)?;
/// let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
/// let profile = StrategyProfile::minimal(game.market());
/// let welfare = game.social_welfare(&profile);
/// assert!(welfare.is_finite());
/// # Ok::<(), tradefl_core::error::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoopetitionGame<A> {
    market: Market,
    accuracy: A,
}

impl<A: AccuracyModel> CoopetitionGame<A> {
    /// Couples a market with a data-accuracy model.
    pub fn new(market: Market, accuracy: A) -> Self {
        Self { market, accuracy }
    }

    /// The underlying market.
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// The data-accuracy model.
    pub fn accuracy(&self) -> &A {
        &self.accuracy
    }

    /// Rebuilds the game with different mechanism parameters (γ sweeps).
    ///
    /// # Errors
    ///
    /// Propagates market validation errors.
    pub fn with_params(&self, params: crate::market::MechanismParams) -> Result<Self>
    where
        A: Clone,
    {
        Ok(Self { market: self.market.with_params(params)?, accuracy: self.accuracy.clone() })
    }

    /// Accuracy gain `P(Ω)` of the global model under `profile` (Eq. 4).
    pub fn accuracy_gain(&self, profile: &StrategyProfile) -> f64 {
        self.accuracy.gain(profile.total_data(&self.market))
    }

    /// Total energy `E_i` of Eq. (8): computation + communication.
    pub fn energy(&self, profile: &StrategyProfile, i: usize) -> f64 {
        let org = self.market.org(i);
        let s = &profile[i];
        let f = org.frequency(s.level);
        let comp = self.market.params().kappa * f * f * org.eta() * s.d * org.data_bits();
        comp + org.comm_energy()
    }

    /// Coopetition damage `D_i = Σ_j ρ_{i,j} ϖ_j` (Eq. 7).
    pub fn damage(&self, profile: &StrategyProfile, i: usize) -> f64 {
        let omega = profile.total_data(&self.market);
        let omega_without_i =
            omega - profile[i].d * self.market.org(i).effective_bits();
        let marginal = self.accuracy.gain(omega) - self.accuracy.gain(omega_without_i.max(0.0));
        let weighted_p =
            self.market.rho_row_sum(i, |j, rho| rho * self.market.org(j).profitability());
        weighted_p * marginal
    }

    /// Contributed-resource index `d_i s_i + λ f_i` used by Eq. (9).
    pub fn resource_index(&self, profile: &StrategyProfile, i: usize) -> f64 {
        let org = self.market.org(i);
        let s = &profile[i];
        s.d * org.data_bits() + self.market.params().lambda * org.frequency(s.level)
    }

    /// Pairwise payoff redistribution `r_{i,j}` (Eq. 9): what `i`
    /// receives from `j` (negative means `i` pays `j`).
    // lint:allow(unreferenced-pub-fn): paper API: Eq. (9) term by term; the unit tests pin its antisymmetry, which `redistribution` sums over
    pub fn redistribution_pair(&self, profile: &StrategyProfile, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let params = self.market.params();
        params.gamma
            * self.market.rho(i, j)
            * (self.resource_index(profile, i) - self.resource_index(profile, j))
    }

    /// Total redistribution `R_i = Σ_j r_{i,j}` (Eq. 10).
    pub fn redistribution(&self, profile: &StrategyProfile, i: usize) -> f64 {
        // The bits of summing `redistribution_pair` over every j: the
        // unstored pairs (ρ_ii included) would add ±0.0 terms, a no-op
        // on the row sum's accumulator (see `RhoMatrix`).
        let gamma = self.market.params().gamma;
        let res_i = self.resource_index(profile, i);
        self.market
            .rho_row_sum(i, |j, rho| gamma * rho * (res_i - self.resource_index(profile, j)))
    }

    /// Itemized payoff of organization `i` (the terms of Eq. 11).
    pub fn payoff_breakdown(&self, profile: &StrategyProfile, i: usize) -> PayoffBreakdown {
        let p = self.market.org(i).profitability();
        PayoffBreakdown {
            revenue: p * self.accuracy_gain(profile),
            overhead: self.market.params().omega_e * self.energy(profile, i),
            damage: self.damage(profile, i),
            redistribution: self.redistribution(profile, i),
        }
    }

    /// Payoff `C_i(π_i, π_-i)` (Eq. 11).
    pub fn payoff(&self, profile: &StrategyProfile, i: usize) -> f64 {
        self.payoff_breakdown(profile, i).total()
    }

    /// Payoff with the redistribution term removed — the WPR baseline's
    /// objective (§VI, "DBR Without Payoff Redistribution").
    pub fn payoff_without_redistribution(&self, profile: &StrategyProfile, i: usize) -> f64 {
        let b = self.payoff_breakdown(profile, i);
        b.revenue - b.overhead - b.damage
    }

    /// Social welfare `Σ_i C_i(π_i, π_-i)` (§III-E).
    pub fn social_welfare(&self, profile: &StrategyProfile) -> f64 {
        (0..self.market.len()).map(|i| self.payoff(profile, i)).sum()
    }

    /// Total coopetition damage `Σ_i D_i` (the Fig. 9 y-axis).
    pub fn total_damage(&self, profile: &StrategyProfile) -> f64 {
        (0..self.market.len()).map(|i| self.damage(profile, i)).sum()
    }

    /// The strategy-dependent *own* term of `C_i` divided by `z_i`,
    /// i.e. `h_i(π_i)/z_i` with
    /// `h_i = −ϖ_e E_i + γ q_i (d_i s_i + λ f_i)`; building block of the
    /// exact potential.
    fn own_term_over_weight(&self, profile: &StrategyProfile, i: usize) -> f64 {
        let params = self.market.params();
        let q_i = self.market.competition_pressure(i);
        let h = -params.omega_e * self.energy(profile, i)
            + params.gamma * q_i * self.resource_index(profile, i);
        h / self.market.weight(i)
    }

    /// The exact weighted potential `U(π)` (Theorem 1; see the module
    /// docs for the correction relative to the printed Eq. 15):
    /// `U = P(Ω) + Σ_i h_i(π_i)/z_i`.
    ///
    /// Satisfies `C_i(π) − C_i(π') = z_i · [U(π) − U(π')]` exactly for
    /// any unilateral deviation of organization `i`.
    pub fn potential(&self, profile: &StrategyProfile) -> f64 {
        let p = self.accuracy_gain(profile);
        let own: f64 = (0..self.market.len())
            .map(|i| self.own_term_over_weight(profile, i))
            .sum();
        p + own
    }

    /// The paper's Eq. (15) evaluated verbatim:
    /// `P(Ω) − Σ_i [ϖ_e κ f_i² η_i d_i s_i − Σ_j r_{i,j}]/z_i`.
    ///
    /// Retained for comparison; it differs from [`Self::potential`] by
    /// opponent-dependent cross terms and therefore does not satisfy
    /// identity (14) exactly (demonstrated in the test suite).
    // lint:allow(unreferenced-pub-fn): test oracle: Eq. (15) as printed, which the tests hold `potential` to
    pub fn potential_paper_eq15(&self, profile: &StrategyProfile) -> f64 {
        let p = self.accuracy_gain(profile);
        let params = self.market.params();
        let sum: f64 = (0..self.market.len())
            .map(|i| {
                let org = self.market.org(i);
                let s = &profile[i];
                let f = org.frequency(s.level);
                let comp = params.kappa * f * f * org.eta() * s.d * org.data_bits();
                (params.omega_e * comp - self.redistribution(profile, i))
                    / self.market.weight(i)
            })
            .sum();
        p - sum
    }

    /// Partial derivative of `C_i` with respect to `d_i` at `profile`
    /// (the level part of `π_i` held fixed):
    /// `∂C_i/∂d_i = z_i P'(Ω) s_i + (γ q_i − ϖ_e κ f_i² η_i) s_i`.
    ///
    /// Concave in `d_i` because `P' ` is non-increasing and `z_i > 0`;
    /// best-response solvers bisect its root.
    pub fn payoff_d_deriv(&self, profile: &StrategyProfile, i: usize) -> f64 {
        let org = self.market.org(i);
        let params = self.market.params();
        let omega = profile.total_data(&self.market);
        let f = org.frequency(profile[i].level);
        let z = self.market.weight(i);
        let q = self.market.competition_pressure(i);
        let s = org.data_bits();
        z * self.accuracy.gain_deriv(omega) * org.effective_bits()
            + (params.gamma * q - params.omega_e * params.kappa * f * f * org.eta()) * s
    }

    /// Same derivative for the WPR objective (γ treated as 0).
    pub fn payoff_without_redistribution_d_deriv(
        &self,
        profile: &StrategyProfile,
        i: usize,
    ) -> f64 {
        let org = self.market.org(i);
        let params = self.market.params();
        let omega = profile.total_data(&self.market);
        let f = org.frequency(profile[i].level);
        let z = self.market.weight(i);
        let s = org.data_bits();
        z * self.accuracy.gain_deriv(omega) * org.effective_bits()
            - params.omega_e * params.kappa * f * f * org.eta() * s
    }

    /// Gradient of the exact potential with respect to the data vector
    /// `d` at fixed levels — what the centralized primal solver ascends:
    /// `∂U/∂d_i = P'(Ω) s_i + (γ q_i − ϖ_e κ f_i² η_i) s_i / z_i`.
    pub fn potential_d_grad(&self, profile: &StrategyProfile) -> Vec<f64> {
        let params = self.market.params();
        let omega = profile.total_data(&self.market);
        let p_deriv = self.accuracy.gain_deriv(omega);
        (0..self.market.len())
            .map(|i| {
                let org = self.market.org(i);
                let f = org.frequency(profile[i].level);
                let s = org.data_bits();
                let own =
                    (params.gamma * self.market.competition_pressure(i)
                        - params.omega_e * params.kappa * f * f * org.eta())
                        * s;
                p_deriv * org.effective_bits() + own / self.market.weight(i)
            })
            .collect()
    }

    /// Verifies the weighted-potential identity (Definition 8 / Eq. 14)
    /// for a unilateral deviation of organization `i`, returning the
    /// absolute discrepancy
    /// `| z_i (U(π) − U(π')) − (C_i(π) − C_i(π')) |`.
    // lint:allow(unreferenced-pub-fn): test oracle: Thm. 1's potential identity, checked across crates by tests/paper_claims.rs
    pub fn potential_identity_gap(
        &self,
        profile: &StrategyProfile,
        i: usize,
        deviation: Strategy,
    ) -> f64 {
        let deviated = profile.with(i, deviation);
        let z = self.market.weight(i);
        let lhs = z * (self.potential(profile) - self.potential(&deviated));
        let rhs = self.payoff(profile, i) - self.payoff(&deviated, i);
        (lhs - rhs).abs()
    }

    /// Whether `profile` is an ε-Nash equilibrium against a *sampled*
    /// deviation set: for each organization, every ladder level paired
    /// with `grid` evenly spaced feasible data fractions.
    ///
    /// Returns the largest payoff improvement any sampled unilateral
    /// deviation achieves (≤ `0 + ε` at an ε-NE).
    pub fn best_sampled_deviation_gain(&self, profile: &StrategyProfile, grid: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..self.market.len() {
            let current = self.payoff(profile, i);
            let org = self.market.org(i);
            for level in 0..org.compute_level_count() {
                let Some((lo, hi)) = self.market.feasible_range(i, level) else {
                    continue;
                };
                for k in 0..=grid {
                    let d = lo + (hi - lo) * k as f64 / grid as f64;
                    let gain =
                        self.payoff(&profile.with(i, Strategy::new(d, level)), i) - current;
                    worst = worst.max(gain);
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::SqrtAccuracy;
    use crate::config::MarketConfig;

    fn game() -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(4).build(7).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    fn mid_profile(g: &CoopetitionGame<SqrtAccuracy>) -> StrategyProfile {
        (0..g.market().len())
            .map(|i| {
                let level = g.market().org(i).compute_level_count() - 1;
                let (lo, hi) = g.market().feasible_range(i, level).unwrap();
                Strategy::new(0.5 * (lo + hi), level)
            })
            .collect()
    }

    #[test]
    fn breakdown_total_matches_payoff() {
        let g = game();
        let p = mid_profile(&g);
        for i in 0..g.market().len() {
            let b = g.payoff_breakdown(&p, i);
            assert!((b.total() - g.payoff(&p, i)).abs() < 1e-9);
        }
    }

    #[test]
    fn redistribution_sums_to_zero_with_symmetric_rho() {
        let g = game();
        let p = mid_profile(&g);
        let total: f64 = (0..g.market().len()).map(|i| g.redistribution(&p, i)).sum();
        assert!(total.abs() < 1e-6, "budget balance: sum R_i = {total}");
    }

    #[test]
    fn redistribution_pair_is_antisymmetric() {
        let g = game();
        let mut p = mid_profile(&g);
        p.set(0, Strategy::new(0.3, 1));
        let r01 = g.redistribution_pair(&p, 0, 1);
        let r10 = g.redistribution_pair(&p, 1, 0);
        assert!((r01 + r10).abs() < 1e-9);
        assert_eq!(g.redistribution_pair(&p, 2, 2), 0.0);
    }

    #[test]
    fn bigger_contributor_receives_positive_redistribution() {
        let g = game();
        let mut p = StrategyProfile::minimal(g.market());
        let level = g.market().org(0).compute_level_count() - 1;
        let (_, hi) = g.market().feasible_range(0, level).unwrap();
        p.set(0, Strategy::new(hi, level));
        assert!(g.redistribution(&p, 0) > 0.0, "top contributor is compensated");
        assert!(g.redistribution(&p, 1) < 0.0, "minimal contributor pays");
    }

    #[test]
    fn potential_identity_holds_exactly() {
        let g = game();
        let p = mid_profile(&g);
        for i in 0..g.market().len() {
            for level in 0..g.market().org(i).compute_level_count() {
                if let Some((lo, hi)) = g.market().feasible_range(i, level) {
                    for d in [lo, 0.5 * (lo + hi), hi] {
                        let gap = g.potential_identity_gap(&p, i, Strategy::new(d, level));
                        assert!(gap < 1e-6, "identity gap {gap} at i={i} level={level} d={d}");
                    }
                }
            }
        }
    }

    #[test]
    fn paper_eq15_violates_identity_where_exact_form_holds() {
        // Demonstrates the cross-term discrepancy discussed in the module
        // docs: the printed Eq. (15) is not an exact potential.
        let g = game();
        let p = mid_profile(&g);
        let i = 0;
        let dev = Strategy::new(g.market().params().d_min, 0);
        let deviated = p.with(i, dev);
        let z = g.market().weight(i);
        let lhs = z * (g.potential_paper_eq15(&p) - g.potential_paper_eq15(&deviated));
        let rhs = g.payoff(&p, i) - g.payoff(&deviated, i);
        // The payoff change is large; Eq. (15)'s cross terms leave a
        // visible residual while the exact potential's gap is ~0.
        assert!((lhs - rhs).abs() > 1e-6, "expected a residual, got {}", (lhs - rhs).abs());
        assert!(g.potential_identity_gap(&p, i, dev) < 1e-6);
    }

    #[test]
    fn payoff_d_derivative_matches_finite_difference() {
        let g = game();
        let p = mid_profile(&g);
        for i in 0..g.market().len() {
            let h = 1e-7;
            let up = p.with(i, Strategy::new(p[i].d + h, p[i].level));
            let dn = p.with(i, Strategy::new(p[i].d - h, p[i].level));
            let fd = (g.payoff(&up, i) - g.payoff(&dn, i)) / (2.0 * h);
            let an = g.payoff_d_deriv(&p, i);
            let rel = (fd - an).abs() / an.abs().max(1.0);
            assert!(rel < 1e-4, "i={i}: fd={fd} analytic={an}");
        }
    }

    #[test]
    fn potential_gradient_matches_finite_difference() {
        let g = game();
        let p = mid_profile(&g);
        let grad = g.potential_d_grad(&p);
        for i in 0..g.market().len() {
            let h = 1e-7;
            let up = p.with(i, Strategy::new(p[i].d + h, p[i].level));
            let dn = p.with(i, Strategy::new(p[i].d - h, p[i].level));
            let fd = (g.potential(&up) - g.potential(&dn)) / (2.0 * h);
            let rel = (fd - grad[i]).abs() / grad[i].abs().max(1e-12);
            assert!(rel < 1e-3, "i={i}: fd={fd} analytic={}", grad[i]);
        }
    }

    #[test]
    fn damage_is_nonnegative_and_grows_with_own_data() {
        let g = game();
        let p = StrategyProfile::minimal(g.market());
        let level = g.market().org(0).compute_level_count() - 1;
        let (_, hi) = g.market().feasible_range(0, level).unwrap();
        let p_hi = p.with(0, Strategy::new(hi, level));
        assert!(g.damage(&p, 0) >= 0.0);
        assert!(g.damage(&p_hi, 0) > g.damage(&p, 0));
    }

    #[test]
    fn wpr_payoff_drops_redistribution_only() {
        let g = game();
        let mut p = mid_profile(&g);
        p.set(0, Strategy::new(g.market().params().d_min, 0));
        for i in 0..g.market().len() {
            let full = g.payoff(&p, i);
            let wpr = g.payoff_without_redistribution(&p, i);
            let r = g.redistribution(&p, i);
            assert!((full - wpr - r).abs() < 1e-9);
        }
    }

    #[test]
    fn welfare_is_sum_of_payoffs_and_redistribution_cancels() {
        let g = game();
        let p = mid_profile(&g);
        let w = g.social_welfare(&p);
        let no_r: f64 = (0..g.market().len())
            .map(|i| g.payoff_without_redistribution(&p, i))
            .sum();
        assert!((w - no_r).abs() < 1e-6, "redistribution is welfare-neutral");
    }

    #[test]
    fn energy_includes_comm_and_scales_with_d() {
        let g = game();
        let p = StrategyProfile::minimal(g.market());
        let e_min = g.energy(&p, 0);
        assert!(e_min > g.market().org(0).comm_energy() * 0.999);
        let level = p[0].level;
        let (_, hi) = g.market().feasible_range(0, level).unwrap();
        let e_hi = g.energy(&p.with(0, Strategy::new(hi, level)), 0);
        assert!(e_hi > e_min);
    }

    fn quality_game(thetas: &[f64]) -> CoopetitionGame<SqrtAccuracy> {
        let orgs: Vec<_> = thetas
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                crate::org::Organization::builder(format!("q{i}"))
                    .quality(t)
                    .compute_levels(vec![1.5e9, 3e9])
                    .build()
                    .unwrap()
            })
            .collect();
        let n = orgs.len();
        let rho = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 0.05 }).collect())
            .collect();
        let market =
            Market::new(orgs, rho, crate::market::MechanismParams::paper_default()).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    #[test]
    fn lower_quality_lowers_accuracy_gain_but_not_energy() {
        let high = quality_game(&[1.0, 1.0]);
        let low = quality_game(&[0.5, 0.5]);
        let p = StrategyProfile::from_parts(&[0.4, 0.4], &[1, 1]);
        assert!(
            high.accuracy_gain(&p) > low.accuracy_gain(&p),
            "half-quality data must yield a lower gain"
        );
        assert_eq!(high.energy(&p, 0), low.energy(&p, 0), "energy prices raw volume");
        assert_eq!(
            high.resource_index(&p, 0),
            low.resource_index(&p, 0),
            "the trading rule prices raw volume"
        );
    }

    #[test]
    fn potential_identity_holds_with_heterogeneous_quality() {
        let g = quality_game(&[1.0, 0.7, 0.3]);
        let p = StrategyProfile::from_parts(&[0.3, 0.4, 0.5], &[1, 1, 1]);
        for i in 0..3 {
            let gap = g.potential_identity_gap(&p, i, Strategy::new(0.15, 0));
            assert!(gap < 1e-6, "identity gap {gap} at org {i}");
        }
    }

    #[test]
    fn payoff_derivative_accounts_for_quality() {
        let g = quality_game(&[1.0, 0.4]);
        let p = StrategyProfile::from_parts(&[0.4, 0.4], &[1, 1]);
        for i in 0..2 {
            let h = 1e-7;
            let up = p.with(i, Strategy::new(p[i].d + h, p[i].level));
            let dn = p.with(i, Strategy::new(p[i].d - h, p[i].level));
            let fd = (g.payoff(&up, i) - g.payoff(&dn, i)) / (2.0 * h);
            let an = g.payoff_d_deriv(&p, i);
            assert!(
                (fd - an).abs() < 1e-4 * an.abs().max(1.0),
                "i={i}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn quality_builder_bounds() {
        assert!(crate::org::Organization::builder("x").quality(0.0).build().is_err());
        assert!(crate::org::Organization::builder("x").quality(1.5).build().is_err());
        assert!(crate::org::Organization::builder("x").quality(0.5).build().is_ok());
        let o = crate::org::Organization::builder("x").quality(0.5).build().unwrap();
        assert_eq!(o.effective_bits(), 0.5 * o.data_bits());
    }

    #[test]
    fn sampled_deviation_gain_is_zero_only_near_equilibrium() {
        let g = game();
        // The minimal profile is generally not an NE at γ*: orgs want to
        // contribute more to earn redistribution.
        let p = StrategyProfile::minimal(g.market());
        assert!(g.best_sampled_deviation_gain(&p, 8) > 0.0);
    }
}
