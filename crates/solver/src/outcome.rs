//! Equilibrium outcomes and per-iteration traces shared by all solvers.

use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::strategy::StrategyProfile;

/// Which scheme produced an outcome (§VI's comparison set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Centralized GBD (Algorithm 1).
    Cgbd,
    /// Distributed best response (Algorithm 2).
    Dbr,
    /// DBR without payoff redistribution.
    Wpr,
    /// Greedy computation allocation (`f_i = k d_i`).
    Gca,
    /// Finite-improvement property on the discretized strategy grid.
    Fip,
    /// Theoretically optimal scheme (all data, all compute, constraints
    /// ignored).
    Tos,
}

impl Scheme {
    /// All comparison schemes in the order the paper's figures list them.
    pub const ALL: [Scheme; 6] =
        [Scheme::Cgbd, Scheme::Dbr, Scheme::Wpr, Scheme::Gca, Scheme::Fip, Scheme::Tos];

    /// Short label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Cgbd => "CGBD",
            Scheme::Dbr => "DBR",
            Scheme::Wpr => "WPR",
            Scheme::Gca => "GCA",
            Scheme::Fip => "FIP",
            Scheme::Tos => "TOS",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of running a scheme to (approximate) equilibrium, with the
/// aggregate metrics every figure of §VI reports and the per-iteration
/// traces behind Figs. 4-5.
#[derive(Debug, Clone, PartialEq)]
pub struct Equilibrium {
    /// Scheme that produced this outcome.
    pub scheme: Scheme,
    /// The final strategy profile.
    pub profile: StrategyProfile,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Whether the scheme's own stopping criterion was met (as opposed
    /// to hitting the iteration cap).
    pub converged: bool,
    /// Potential value `U` after each iteration (Fig. 4), including the
    /// initial profile at index 0. WPR's is the potential of the γ = 0
    /// market its dynamics run on, so its last entry is not
    /// [`Self::potential`].
    pub potential_trace: Vec<f64>,
    /// Payoff of each organization after each iteration (Fig. 5):
    /// `payoff_traces[iter][org]`. Each row costs a pass over ρ, so
    /// solvers may thin the history (DBR records only the final row
    /// beyond a few hundred organizations, WPR only ever the final
    /// row); the last row is always the final profile's payoffs.
    pub payoff_traces: Vec<Vec<f64>>,
    /// Social welfare at the final profile (Figs. 6-8, 10-11).
    pub welfare: f64,
    /// Exact potential at the final profile.
    pub potential: f64,
    /// Total coopetition damage `Σ_i D_i` at the final profile (Fig. 9).
    pub total_damage: f64,
    /// Total data contribution `Σ_i d_i` (Fig. 12).
    pub total_fraction: f64,
}

impl Equilibrium {
    /// Computes the aggregate metrics for `profile` and assembles an
    /// outcome from the traces a solver accumulated.
    pub fn from_profile<A: AccuracyModel>(
        scheme: Scheme,
        game: &CoopetitionGame<A>,
        profile: StrategyProfile,
        iterations: usize,
        converged: bool,
        potential_trace: Vec<f64>,
        payoff_traces: Vec<Vec<f64>>,
    ) -> Self {
        let welfare = game.social_welfare(&profile);
        let potential = game.potential(&profile);
        let total_damage = game.total_damage(&profile);
        let total_fraction = profile.total_fraction();
        Self {
            scheme,
            profile,
            iterations,
            converged,
            potential_trace,
            payoff_traces,
            welfare,
            potential,
            total_damage,
            total_fraction,
        }
    }

    /// [`Self::from_profile`] with every aggregate taken from an
    /// [`IncrementalEval`](tradefl_core::incremental::IncrementalEval)
    /// at the final profile, in `O(N)` instead of
    /// the game's `O(N²)` recomputation: welfare sums the last payoff
    /// trace row (the evaluator's own final payoff vector), potential
    /// and total damage take `Ω` from the evaluator's tree.
    /// Values differ from [`Self::from_profile`]'s only by
    /// floating-point reassociation.
    pub fn from_eval<A: AccuracyModel>(
        scheme: Scheme,
        eval: &tradefl_core::incremental::IncrementalEval<'_, A>,
        iterations: usize,
        converged: bool,
        potential_trace: Vec<f64>,
        payoff_traces: Vec<Vec<f64>>,
    ) -> Self {
        let welfare = match payoff_traces.last() {
            Some(row) => row.iter().sum(),
            None => eval.payoff_vector().iter().sum(),
        };
        Self {
            scheme,
            profile: eval.profile().clone(),
            iterations,
            converged,
            welfare,
            potential: eval.potential(),
            total_damage: eval.total_damage(),
            total_fraction: eval.profile().total_fraction(),
            potential_trace,
            payoff_traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradefl_core::accuracy::SqrtAccuracy;
    use tradefl_core::config::MarketConfig;

    #[test]
    fn scheme_labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            Scheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Scheme::ALL.len());
        assert_eq!(Scheme::Cgbd.to_string(), "CGBD");
    }

    #[test]
    fn from_profile_fills_metrics() {
        let market = MarketConfig::table_ii().with_orgs(3).build(2).unwrap();
        let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        let p = StrategyProfile::minimal(game.market());
        let eq = Equilibrium::from_profile(
            Scheme::Dbr,
            &game,
            p.clone(),
            0,
            true,
            vec![game.potential(&p)],
            vec![],
        );
        assert_eq!(eq.scheme, Scheme::Dbr);
        assert!((eq.welfare - game.social_welfare(&p)).abs() < 1e-9);
        assert!((eq.total_fraction - 0.03).abs() < 1e-12);
    }
}
