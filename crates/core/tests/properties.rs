//! Property-based tests for the core invariants of the TradeFL model:
//! Theorem 1 (exact weighted potential), Definition 5 (budget balance),
//! Eq. (5) (accuracy-model shape) and constraint handling.
//!
//! Runs on the in-tree `tradefl_runtime::check` harness with pinned
//! seeds; failures print a `TRADEFL_PROP_SEED` replay line.

use tradefl_core::accuracy::{AccuracyModel, SqrtAccuracy};
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::mechanism::MechanismAudit;
use tradefl_core::strategy::{Strategy, StrategyProfile};
use tradefl_runtime::check::Gen;
use tradefl_runtime::{prop_assert, prop_assume, props};

/// A random feasible profile for the market built from `seed`.
fn feasible_profile(
    game: &CoopetitionGame<SqrtAccuracy>,
    picks: &[(f64, u8)],
) -> StrategyProfile {
    (0..game.market().len())
        .map(|i| {
            let (t, lvl_pick) = picks[i % picks.len()];
            let m = game.market().org(i).compute_level_count();
            let mut level = (lvl_pick as usize) % m;
            // Find a level with a feasible range, preferring the pick.
            while game.market().feasible_range(i, level).is_none() {
                level = (level + 1) % m;
            }
            let (lo, hi) = game.market().feasible_range(i, level).unwrap();
            Strategy::new(lo + t * (hi - lo), level)
        })
        .collect()
}

fn any_game(g: &mut Gen) -> CoopetitionGame<SqrtAccuracy> {
    let seed = g.u64(0..1000);
    let n = g.usize(2..8);
    let mu = g.f64(0.0..0.3);
    let market = MarketConfig::table_ii()
        .with_orgs(n)
        .with_rho_mean(mu)
        .build(seed)
        .expect("table-ii config is always buildable");
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

/// A logarithmic family `P(Ω) = c · ln(1 + Ω / scale)`. Eq. (5) leaves
/// the accuracy function open; this family and [`PowerLawAccuracy`]
/// check that the `AccuracyModel` contract admits more than the sqrt
/// bound the library ships.
struct LogAccuracy {
    coefficient: f64,
    scale: f64,
}

impl AccuracyModel for LogAccuracy {
    fn gain(&self, omega: f64) -> f64 {
        self.coefficient * (1.0 + omega.max(0.0) / self.scale).ln()
    }

    fn gain_deriv(&self, omega: f64) -> f64 {
        self.coefficient / (self.scale + omega.max(0.0))
    }

    fn gain_curvature(&self, omega: f64) -> f64 {
        let denom = self.scale + omega.max(0.0);
        -self.coefficient / (denom * denom)
    }

    fn name(&self) -> &str {
        "log"
    }
}

/// A saturating power law `P(Ω) = cap · (1 − (1 + Ω/scale)^(−alpha))`,
/// increasing and concave for `alpha ∈ (0, 1]`.
struct PowerLawAccuracy {
    cap: f64,
    scale: f64,
    alpha: f64,
}

impl AccuracyModel for PowerLawAccuracy {
    fn gain(&self, omega: f64) -> f64 {
        let base = 1.0 + omega.max(0.0) / self.scale;
        self.cap * (1.0 - base.powf(-self.alpha))
    }

    fn gain_deriv(&self, omega: f64) -> f64 {
        let base = 1.0 + omega.max(0.0) / self.scale;
        self.cap * self.alpha / self.scale * base.powf(-self.alpha - 1.0)
    }

    fn gain_curvature(&self, omega: f64) -> f64 {
        let base = 1.0 + omega.max(0.0) / self.scale;
        -self.cap * self.alpha * (self.alpha + 1.0) / (self.scale * self.scale)
            * base.powf(-self.alpha - 2.0)
    }

    fn name(&self) -> &str {
        "power-law"
    }
}

#[test]
fn alternative_models_match_finite_differences() {
    let log = LogAccuracy { coefficient: 2.0, scale: 30e9 };
    let pl = PowerLawAccuracy { cap: 1.5, scale: 40e9, alpha: 0.7 };
    for m in [&log as &dyn AccuracyModel, &pl] {
        for &omega in &[10e9, 50e9, 200e9] {
            let h = omega * 1e-5;
            let fd = (m.gain(omega + h) - m.gain(omega - h)) / (2.0 * h);
            let rel = (fd - m.gain_deriv(omega)).abs() / m.gain_deriv(omega);
            assert!(rel < 1e-6, "{}: gain fd={fd} analytic={}", m.name(), m.gain_deriv(omega));
            let fd = (m.gain_deriv(omega + h) - m.gain_deriv(omega - h)) / (2.0 * h);
            let an = m.gain_curvature(omega);
            assert!(an <= 0.0, "{}: curvature must be non-positive", m.name());
            let rel = (fd - an).abs() / an.abs().max(1e-30);
            assert!(rel < 1e-3, "{}: fd={fd} analytic={an}", m.name());
        }
    }
}

fn any_picks(g: &mut Gen) -> Vec<(f64, u8)> {
    g.vec(8..=8usize, |g| (g.f64(0.0..=1.0), g.any_u8()))
}

props! {
    #![cases = 64]

    /// Theorem 1: the exact potential satisfies identity (14) for every
    /// unilateral deviation, on random markets and random profiles.
    fn potential_identity_holds(g) {
        let game = any_game(g);
        let picks = any_picks(g);
        let dev_t = g.f64(0.0..=1.0);
        let dev_level = g.any_u8();
        let who = g.any_u8();
        let profile = feasible_profile(&game, &picks);
        let i = (who as usize) % game.market().len();
        let m = game.market().org(i).compute_level_count();
        let mut level = (dev_level as usize) % m;
        while game.market().feasible_range(i, level).is_none() {
            level = (level + 1) % m;
        }
        let (lo, hi) = game.market().feasible_range(i, level).unwrap();
        let dev = Strategy::new(lo + dev_t * (hi - lo), level);
        let gap = game.potential_identity_gap(&profile, i, dev);
        // Scale-aware tolerance: payoffs are O(1e3).
        prop_assert!(gap < 1e-6, "identity gap {gap}");
    }

    /// Definition 5: redistribution is budget balanced for any profile on
    /// a symmetric competition matrix.
    fn budget_balance_holds(g) {
        let game = any_game(g);
        let picks = any_picks(g);
        let profile = feasible_profile(&game, &picks);
        let audit = MechanismAudit::evaluate(&game, &profile);
        prop_assert!(audit.budget_balanced_rel(1e-9),
            "sum R_i = {}", audit.redistribution_sum);
    }

    /// Redistribution is welfare-neutral: social welfare agrees with the
    /// same market's at γ = 0, where every R_i is zero.
    fn redistribution_is_welfare_neutral(g) {
        let game = any_game(g);
        let picks = any_picks(g);
        let profile = feasible_profile(&game, &picks);
        let with_r = game.social_welfare(&profile);
        let without_r = game
            .with_params(game.market().params().with_gamma(0.0))
            .unwrap()
            .social_welfare(&profile);
        prop_assert!((with_r - without_r).abs() <= 1e-6 * with_r.abs().max(1.0));
    }

    /// Eq. (5) on random sqrt-bound parameterizations: gain is
    /// non-decreasing and concave above the positive-gain threshold.
    fn sqrt_accuracy_shape(g) {
        let epochs = g.f64(1.0..50.0);
        let scale = g.f64(1e9..1e12);
        let a0 = g.f64(0.5..10.0);
        let xs = g.vec(3..=3usize, |g| g.f64(0.01..=1.0));
        let m = SqrtAccuracy::new(epochs, scale, a0).unwrap();
        let floor = m.positive_gain_threshold();
        prop_assume!(floor.is_finite());
        let lo = floor * 1.001;
        let hi = floor * 1000.0;
        let mut pts: Vec<f64> = xs.iter().map(|t| lo + t * (hi - lo)).collect();
        pts.sort_by(f64::total_cmp);
        prop_assert!(m.gain(pts[0]) <= m.gain(pts[1]) + 1e-12);
        prop_assert!(m.gain(pts[1]) <= m.gain(pts[2]) + 1e-12);
        prop_assert!(m.gain_deriv(pts[0]) + 1e-15 >= m.gain_deriv(pts[1]));
        prop_assert!(m.gain_deriv(pts[1]) + 1e-15 >= m.gain_deriv(pts[2]));
    }

    /// Eq. (5) for the alternative models on arbitrary domains.
    fn alternative_models_shape(g) {
        let c = g.f64(0.1..10.0);
        let scale = g.f64(1e8..1e11);
        let alpha = g.f64(0.05..=1.0);
        let a = g.f64(0.0..1e12);
        let b = g.f64(0.0..1e12);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let log = LogAccuracy { coefficient: c, scale };
        let pl = PowerLawAccuracy { cap: c, scale, alpha };
        for m in [&log as &dyn AccuracyModel, &pl as &dyn AccuracyModel] {
            prop_assert!(m.gain(hi) + 1e-12 >= m.gain(lo));
            prop_assert!(m.gain_deriv(lo) + 1e-18 >= m.gain_deriv(hi));
            prop_assert!(m.gain_deriv(lo) >= 0.0);
        }
    }

    /// The minimal profile always validates, and validation accepts
    /// exactly the profiles inside the constraint set.
    fn minimal_profile_is_always_feasible(g) {
        let game = any_game(g);
        let p = StrategyProfile::minimal(game.market());
        prop_assert!(p.validate(game.market()).is_ok());
    }

    /// Shapley efficiency and non-negativity hold on random markets and
    /// profiles (monotone coalition game ⇒ non-negative values).
    fn shapley_axioms_hold(g) {
        use tradefl_core::contribution::shapley_accuracy;
        let game = any_game(g);
        let picks = any_picks(g);
        let profile = feasible_profile(&game, &picks);
        let report = shapley_accuracy(&game, &profile);
        let sum: f64 = report.values.iter().sum();
        let total = report.grand_value - report.empty_value;
        prop_assert!((sum - total).abs() <= 1e-9 * total.abs().max(1.0));
        for (i, v) in report.values.iter().enumerate() {
            prop_assert!(*v >= -1e-12, "negative shapley value {v} at org {i}");
        }
    }

    /// Payoff derivative in d_i is non-increasing (concavity of C_i in
    /// its own data fraction), which DBR's bisection relies on.
    fn payoff_is_concave_in_own_fraction(g) {
        let game = any_game(g);
        let picks = any_picks(g);
        let who = g.any_u8();
        let profile = feasible_profile(&game, &picks);
        let i = (who as usize) % game.market().len();
        let level = profile[i].level;
        let (lo, hi) = game.market().feasible_range(i, level).unwrap();
        let mut prev = f64::INFINITY;
        for k in 0..=8 {
            let d = lo + (hi - lo) * k as f64 / 8.0;
            let der = game.payoff_d_deriv(&profile.with(i, Strategy::new(d, level)), i);
            prop_assert!(der <= prev + 1e-9 * prev.abs().max(1.0));
            prev = der;
        }
    }
}
