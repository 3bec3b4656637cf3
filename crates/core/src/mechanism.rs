//! Mechanism-property audits: the Definitions 3-5 / Theorem 2 checks.
//!
//! TradeFL claims individual rationality (IR), budget balance (BB) and
//! computational efficiency (CE). The first two are *runtime-checkable*
//! facts about a concrete equilibrium profile; [`MechanismAudit`]
//! evaluates them so tests, examples and the settlement contract can
//! assert them. CE is a complexity statement; the `dbr_solve_n*` rows
//! of `BENCH_baselines.json` measure it empirically.

use crate::accuracy::AccuracyModel;
use crate::game::CoopetitionGame;
use crate::strategy::StrategyProfile;

/// Result of auditing a strategy profile against Definitions 3-5.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismAudit {
    /// Per-organization payoffs `C_i` at the audited profile.
    pub payoffs: Vec<f64>,
    /// Per-organization received redistribution `R_i`.
    pub redistributions: Vec<f64>,
    /// `Σ_i R_i`; budget balance (Def. 5) requires this to be zero.
    pub redistribution_sum: f64,
    /// The smallest payoff; individual rationality (Def. 3) requires it
    /// to be non-negative.
    pub min_payoff: f64,
    /// Social welfare `Σ_i C_i`.
    pub social_welfare: f64,
}

impl MechanismAudit {
    /// Audits `profile` under `game`.
    pub fn evaluate<A: AccuracyModel>(
        game: &CoopetitionGame<A>,
        profile: &StrategyProfile,
    ) -> Self {
        let n = game.market().len();
        let payoffs: Vec<f64> = (0..n).map(|i| game.payoff(profile, i)).collect();
        let redistributions: Vec<f64> =
            (0..n).map(|i| game.redistribution(profile, i)).collect();
        let redistribution_sum = redistributions.iter().sum();
        let min_payoff = payoffs.iter().copied().fold(f64::INFINITY, f64::min);
        let social_welfare = payoffs.iter().sum();
        Self { payoffs, redistributions, redistribution_sum, min_payoff, social_welfare }
    }

    /// Individual rationality (Definition 3): every payoff non-negative
    /// within `tol`.
    pub fn individually_rational(&self, tol: f64) -> bool {
        self.min_payoff >= -tol
    }

    /// Budget balance (Definition 5): `Σ_i R_i = 0` within `tol`.
    ///
    /// The natural tolerance scales with the gross redistribution volume;
    /// pass e.g. `1e-9 * gross` where
    /// `gross = Σ_i |R_i|`, or use [`MechanismAudit::budget_balanced_rel`].
    pub fn budget_balanced(&self, tol: f64) -> bool {
        self.redistribution_sum.abs() <= tol
    }

    /// Budget balance with a relative tolerance against the gross
    /// redistribution volume (robust to float cancellation).
    pub fn budget_balanced_rel(&self, rel_tol: f64) -> bool {
        let gross: f64 = self.redistributions.iter().map(|r| r.abs()).sum();
        self.redistribution_sum.abs() <= rel_tol * gross.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::SqrtAccuracy;
    use crate::config::MarketConfig;
    use crate::strategy::Strategy;

    #[test]
    fn audit_reports_consistent_aggregates() {
        let market = MarketConfig::table_ii().with_orgs(5).build(11).unwrap();
        let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        let mut profile = StrategyProfile::minimal(game.market());
        profile.set(0, Strategy::new(0.4, 1));
        let audit = MechanismAudit::evaluate(&game, &profile);
        assert_eq!(audit.payoffs.len(), 5);
        let welfare: f64 = audit.payoffs.iter().sum();
        assert!((audit.social_welfare - welfare).abs() < 1e-9);
        assert!(audit.min_payoff <= audit.payoffs[0]);
    }

    #[test]
    fn budget_balance_holds_for_symmetric_rho() {
        let market = MarketConfig::table_ii().build(13).unwrap();
        let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        let mut profile = StrategyProfile::minimal(game.market());
        profile.set(2, Strategy::new(0.6, 3));
        profile.set(7, Strategy::new(0.3, 2));
        let audit = MechanismAudit::evaluate(&game, &profile);
        assert!(audit.budget_balanced_rel(1e-9));
    }
}
