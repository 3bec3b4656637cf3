//! Cooperative-game contribution indices: Shapley values of the
//! accuracy coalition game.
//!
//! The paper's related work (\[5\], \[6\]) measures *how much each client's
//! data is actually worth* to the trained model. This module computes
//! the exact Shapley value of the coalition game
//! `v(S) = P(Σ_{i∈S} θ_i d_i s_i)` for cross-silo scale (`|N| ≤ ~20`,
//! exact enumeration over subsets), giving a principled yardstick to
//! compare against the trading rule's volume-based payments: Eq. (9)
//! prices raw contributed volume, the Shapley value prices *marginal
//! accuracy*, and the gap between the two is the mechanism's pricing
//! distortion (measurable per organization).

use crate::accuracy::AccuracyModel;
use crate::game::CoopetitionGame;
use crate::strategy::StrategyProfile;

/// Exact Shapley decomposition of the accuracy gain `P(Ω)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapleyReport {
    /// Shapley value per organization (sums to `v(N) − v(∅)`).
    pub values: Vec<f64>,
    /// The grand-coalition value `v(N) = P(Ω)`.
    pub grand_value: f64,
    /// The empty-coalition value `v(∅) = P(0)`.
    pub empty_value: f64,
}

impl ShapleyReport {
    /// Each organization's share of the total accuracy gain, normalized
    /// to sum to 1 (all zeros if the total gain is ~0).
    pub fn shares(&self) -> Vec<f64> {
        let total: f64 = self.values.iter().sum();
        if total.abs() < 1e-15 {
            return vec![0.0; self.values.len()];
        }
        self.values.iter().map(|v| v / total).collect()
    }
}

/// Computes the exact Shapley value of each organization's contribution
/// to the accuracy gain at `profile`.
///
/// Runs in `O(2^N · N)`; intended for cross-silo scale.
///
/// # Examples
///
/// ```
/// use tradefl_core::accuracy::SqrtAccuracy;
/// use tradefl_core::config::MarketConfig;
/// use tradefl_core::contribution::shapley_accuracy;
/// use tradefl_core::game::CoopetitionGame;
/// use tradefl_core::strategy::StrategyProfile;
///
/// let market = MarketConfig::table_ii().with_orgs(4).build(9)?;
/// let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
/// let profile = StrategyProfile::minimal(game.market());
/// let report = shapley_accuracy(&game, &profile);
/// let total: f64 = report.values.iter().sum();
/// assert!((total - (report.grand_value - report.empty_value)).abs() < 1e-9);
/// # Ok::<(), tradefl_core::error::ModelError>(())
/// ```
///
/// # Panics
///
/// Panics if `|N| > 24` (the enumeration would be prohibitive) or the
/// profile length mismatches the market.
pub fn shapley_accuracy<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    profile: &StrategyProfile,
) -> ShapleyReport {
    let market = game.market();
    let n = market.len();
    assert!(n <= 24, "exact Shapley enumeration is limited to 24 organizations");
    assert_eq!(profile.len(), n, "profile length mismatch");

    // Effective contributed volume per org.
    let volumes: Vec<f64> = (0..n)
        .map(|i| profile[i].d * market.org(i).effective_bits())
        .collect();

    // Precompute v(S) for all subsets: P(sum of volumes in S).
    let subsets = 1usize << n;
    let mut value = vec![0.0f64; subsets];
    // Incremental sums: v[S] computed from v[S without lowest bit].
    let mut volume_of = vec![0.0f64; subsets];
    for s in 1..subsets {
        let low = s.trailing_zeros() as usize;
        volume_of[s] = volume_of[s & (s - 1)] + volumes[low];
    }
    for s in 0..subsets {
        // Clamp at zero: a coalition's model is never worth less than
        // not training at all. (The unclamped footnote-7 bound diverges
        // to −∞ as Ω → 0, which would let near-empty coalitions dominate
        // the averages with unbounded negative values.)
        value[s] = game.accuracy().gain(volume_of[s]).max(0.0);
    }

    // Shapley: φ_i = Σ_S |S|!(n−|S|−1)!/n! [v(S∪{i}) − v(S)].
    let mut factorial = vec![1.0f64; n + 1];
    for k in 1..=n {
        factorial[k] = factorial[k - 1] * k as f64;
    }
    let mut values = vec![0.0f64; n];
    for s in 0..subsets {
        let size = s.count_ones() as usize;
        if size == n {
            continue; // no player can join the grand coalition
        }
        let weight = factorial[size] * factorial[n - size - 1] / factorial[n];
        for (i, value_i) in values.iter_mut().enumerate() {
            if s & (1 << i) != 0 {
                continue;
            }
            *value_i += weight * (value[s | (1 << i)] - value[s]);
        }
    }
    ShapleyReport { values, grand_value: value[subsets - 1], empty_value: value[0] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::SqrtAccuracy;
    use crate::config::MarketConfig;
    use crate::strategy::Strategy;

    fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    fn profile_for(g: &CoopetitionGame<SqrtAccuracy>, ds: &[f64]) -> StrategyProfile {
        (0..g.market().len())
            .map(|i| {
                Strategy::new(ds[i % ds.len()], g.market().org(i).compute_level_count() - 1)
            })
            .collect()
    }

    #[test]
    fn efficiency_axiom_values_sum_to_total_gain() {
        let g = game(6, 3);
        let p = profile_for(&g, &[0.3, 0.5, 0.7]);
        let report = shapley_accuracy(&g, &p);
        let sum: f64 = report.values.iter().sum();
        let total = report.grand_value - report.empty_value;
        assert!(
            (sum - total).abs() < 1e-9 * total.abs().max(1.0),
            "efficiency: {sum} vs {total}"
        );
        let shares_sum: f64 = report.shares().iter().sum();
        assert!((shares_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn symmetry_axiom_identical_orgs_get_identical_values() {
        // Orgs with equal volumes contribute symmetrically.
        let orgs: Vec<_> = (0..4)
            .map(|i| {
                crate::org::Organization::builder(format!("o{i}"))
                    .data_bits(20e9)
                    .build()
                    .unwrap()
            })
            .collect();
        let rho = vec![vec![0.0; 4]; 4];
        let market =
            crate::market::Market::new(orgs, rho, crate::market::MechanismParams::default())
                .unwrap();
        let g = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        let p = profile_for_generic(&g, 0.5);
        let report = shapley_accuracy(&g, &p);
        for w in report.values.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12);
        }
    }

    fn profile_for_generic<A: crate::accuracy::AccuracyModel>(
        g: &CoopetitionGame<A>,
        d: f64,
    ) -> StrategyProfile {
        (0..g.market().len())
            .map(|i| Strategy::new(d, g.market().org(i).compute_level_count() - 1))
            .collect()
    }

    #[test]
    fn null_player_axiom_zero_contribution_zero_value() {
        let g = game(5, 7);
        let mut p = profile_for(&g, &[0.5]);
        // Org 2 contributes (numerically) nothing.
        p.set(2, Strategy::new(1e-12, p[2].level));
        let report = shapley_accuracy(&g, &p);
        assert!(report.values[2].abs() < 1e-6, "null player value {}", report.values[2]);
    }

    #[test]
    fn bigger_contributors_earn_larger_shapley_values() {
        let g = game(4, 11);
        let p = profile_for(&g, &[0.1, 0.9, 0.1, 0.9]);
        let report = shapley_accuracy(&g, &p);
        // Orgs with 0.9 fractions must beat their 0.1 neighbours of
        // comparable dataset size (sizes vary ±25%, fractions vary 9x).
        assert!(report.values[1] > report.values[0]);
        assert!(report.values[3] > report.values[2]);
    }

    #[test]
    fn matches_direct_formula_on_three_players() {
        // Independent verification against the textbook formula with
        // explicitly enumerated orderings.
        let orgs: Vec<_> = [10e9, 20e9, 40e9]
            .iter()
            .map(|&s| {
                crate::org::Organization::builder("o").data_bits(s).build().unwrap()
            })
            .collect();
        let market = crate::market::Market::new(
            orgs,
            vec![vec![0.0; 3]; 3],
            crate::market::MechanismParams::default(),
        )
        .unwrap();
        // `P(Ω) = ln(1 + Ω / 10 Gbit)` is finite at `Ω = 0`, unlike the
        // sqrt bound, so the empty coalition's value is exact.
        struct LogGain;
        impl AccuracyModel for LogGain {
            fn gain(&self, omega: f64) -> f64 {
                (1.0 + omega / 10e9).ln()
            }
            fn gain_deriv(&self, omega: f64) -> f64 {
                1.0 / (10e9 + omega)
            }
        }
        let g = CoopetitionGame::new(market, LogGain);
        let p = profile_for_generic(&g, 1.0);
        let report = shapley_accuracy(&g, &p);
        // Direct: average marginal contributions over the 6 orderings.
        let vols = [10e9f64, 20e9, 40e9];
        let v = |set: &[usize]| {
            g.accuracy().gain(set.iter().map(|&i| vols[i]).sum::<f64>())
        };
        let orderings: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let mut direct = [0.0f64; 3];
        for ord in orderings {
            let mut set = Vec::new();
            for &i in &ord {
                let before = v(&set);
                set.push(i);
                direct[i] += (v(&set) - before) / 6.0;
            }
        }
        for i in 0..3 {
            assert!(
                (report.values[i] - direct[i]).abs() < 1e-9,
                "player {i}: {} vs {}",
                report.values[i],
                direct[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "limited to 24")]
    fn too_many_orgs_panics() {
        // Construct a 25-org market cheaply (validation is the cost).
        let market = MarketConfig::table_ii().with_orgs(25).build(1).unwrap();
        let g = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        let p = StrategyProfile::minimal(g.market());
        let _ = shapley_accuracy(&g, &p);
    }
}
