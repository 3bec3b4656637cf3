//! Incremental payoff evaluation for best-response sweeps at scale.
//!
//! Every payoff-shaped quantity in [`crate::game`] decomposes into a
//! handful of aggregates over the market: the effective data volume
//! `Ω = Σ_j d_j θ_j s_j`, the per-organization resource indices
//! `res_j = d_j s_j + λ f_j`, and strategy-*independent* constants
//! (`q_i`, `z_i`, `Σ_j ρ_{i,j} p_j`). A best-response bisection at
//! organization `i` evaluates the payoff at 64+ candidate `d` values,
//! and the only aggregate a candidate perturbs is `Ω` — by exactly one
//! addend. [`IncrementalEval`] maintains those aggregates so one
//! candidate evaluation costs `O(log N)` (a single [`SumTree`] path)
//! instead of the `O(N)` full recomputation [`crate::game`] performs,
//! which is what makes a DBR sweep sub-quadratic in `N`.
//!
//! # Determinism contract
//!
//! f64 addition is not associative, so an aggregate maintained by
//! "subtract old, add new" running updates would drift from a fresh
//! evaluation — and worse, would depend on the whole update *history*.
//! This module instead keeps every aggregate in a form whose value is
//! a pure function of the **current** strategy profile:
//!
//! * `Ω` lives in a fixed-shape binary [`SumTree`]; replacing leaf `i`
//!   recomputes only the root path, and the resulting node values are
//!   bit-identical to rebuilding the same tree from scratch (each node
//!   is always `left + right` of the same children).
//! * `res_i` is overwritten wholesale on commit (a direct `O(1)`
//!   formula, no accumulation).
//! * the mover-side dot product `Σ_j ρ_{i,j} res_j` is computed fresh
//!   per query in fixed `j` order (ρ_{i,i} = 0, so organization `i`'s
//!   own candidates never perturb it — it is loop-invariant across one
//!   bisection).
//!
//! Hence the invariant the property tests pin: after *any* sequence of
//! [`IncrementalEval::commit`] calls, every query is **bit-identical**
//! to the same query on a freshly constructed evaluator at the final
//! profile. The evaluator's payoffs differ from
//! [`CoopetitionGame::payoff`] only by floating-point reassociation
//! (the game sums `Ω` left-to-right and redistribution pairwise);
//! agreement to ~1e-12 relative is asserted separately.

use crate::accuracy::AccuracyModel;
use crate::game::CoopetitionGame;
use crate::strategy::{Strategy, StrategyProfile};

/// A fixed-shape binary sum tree over `n` f64 leaves (padded with
/// zeros to the next power of two).
///
/// Replacing one leaf updates `O(log n)` ancestors; because every
/// internal node is always recomputed as `left + right`, the node
/// values — and in particular the root total — are bit-identical to a
/// from-scratch rebuild at the same leaves, for any update history.
#[derive(Debug, Clone)]
pub struct SumTree {
    /// `nodes[1]` is the root; leaf `i` lives at `nodes[cap + i]`.
    nodes: Vec<f64>,
    /// Leaf capacity (power of two).
    cap: usize,
    /// Number of live leaves.
    len: usize,
}

impl SumTree {
    /// Builds a tree over the given leaves.
    pub fn new(leaves: &[f64]) -> Self {
        let len = leaves.len();
        let cap = len.max(1).next_power_of_two();
        let mut nodes = vec![0.0; 2 * cap];
        nodes[cap..cap + len].copy_from_slice(leaves);
        for i in (1..cap).rev() {
            nodes[i] = nodes[2 * i] + nodes[2 * i + 1];
        }
        Self { nodes, cap, len }
    }

    /// Number of live leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sum of all leaves (the root node).
    pub fn total(&self) -> f64 {
        self.nodes[1]
    }

    /// Replaces leaf `i` and recomputes its root path.
    pub fn set(&mut self, i: usize, value: f64) {
        assert!(i < self.len, "leaf {i} out of bounds ({})", self.len);
        let mut node = self.cap + i;
        self.nodes[node] = value;
        while node > 1 {
            node /= 2;
            self.nodes[node] = self.nodes[2 * node] + self.nodes[2 * node + 1];
        }
    }

    /// The root total *as if* leaf `i` were `value`, without mutating
    /// the tree — bit-identical to `set(i, value); total()` because it
    /// performs exactly the same additions along the same path.
    pub fn total_with(&self, i: usize, value: f64) -> f64 {
        assert!(i < self.len, "leaf {i} out of bounds ({})", self.len);
        let mut node = self.cap + i;
        let mut acc = value;
        while node > 1 {
            let sibling = node ^ 1;
            // The path node is the left child exactly when its index is
            // even; addition order must match `set`'s `left + right`.
            acc = if node % 2 == 0 {
                acc + self.nodes[sibling]
            } else {
                self.nodes[sibling] + acc
            };
            node /= 2;
        }
        acc
    }
}

/// Incremental payoff evaluator over a [`CoopetitionGame`].
///
/// Holds the current strategy profile plus the aggregates described in
/// the module docs. Constructing one is `O(N²)` (the per-organization
/// constants each take an `O(N)` pass); every candidate evaluation
/// afterwards is `O(log N)`, and committing an accepted move is
/// `O(log N)` too.
#[derive(Debug)]
pub struct IncrementalEval<'g, A> {
    game: &'g CoopetitionGame<A>,
    profile: StrategyProfile,
    /// `q_i = Σ_j ρ_{i,j}` — strategy-independent.
    q: Vec<f64>,
    /// `z_i = p_i − Σ_j ρ_{i,j} p_j` — strategy-independent.
    z: Vec<f64>,
    /// `Σ_j ρ_{i,j} p_j` (Eq. 7's damage weights) — strategy-independent.
    weighted_p: Vec<f64>,
    /// `res_j = d_j s_j + λ f_j` at the current profile.
    res: Vec<f64>,
    /// `Ω` aggregated over leaves `d_j θ_j s_j`.
    omega: SumTree,
}

impl<'g, A: AccuracyModel> IncrementalEval<'g, A> {
    /// Builds the evaluator at `profile` (assumed validated).
    pub fn new(game: &'g CoopetitionGame<A>, profile: StrategyProfile) -> Self {
        let market = game.market();
        let n = market.len();
        assert_eq!(profile.len(), n, "profile length mismatch");
        // One pass over each ρ row's stored entries yields all three
        // per-org constants (q_i, Σ_j ρ p_j, and z_i = p_i − Σ_j ρ p_j)
        // in O(nnz). Both sums run in ascending j from +0.0, the order
        // of `Market::rho_row_sum`, so they are bit-identical to
        // `market.competition_pressure`/`weight`.
        let p: Vec<f64> = (0..n).map(|j| market.org(j).profitability()).collect();
        let mut q = vec![0.0f64; n];
        let mut weighted_p = vec![0.0f64; n];
        let mut z = vec![0.0f64; n];
        for i in 0..n {
            let mut row_q = 0.0f64;
            let mut row_wp = 0.0f64;
            for (j, rho) in market.rho_row(i) {
                row_q += rho;
                row_wp += rho * p[j];
            }
            q[i] = row_q;
            weighted_p[i] = row_wp;
            z[i] = p[i] - row_wp;
        }
        let res: Vec<f64> =
            (0..n).map(|i| Self::resource_index_of(game, &profile[i], i)).collect();
        let leaves: Vec<f64> = (0..n)
            .map(|i| profile[i].d * market.org(i).effective_bits())
            .collect();
        let omega = SumTree::new(&leaves);
        Self { game, profile, q, z, weighted_p, res, omega }
    }

    /// The current strategy profile.
    pub fn profile(&self) -> &StrategyProfile {
        &self.profile
    }

    /// The game this evaluator reads.
    pub fn game(&self) -> &'g CoopetitionGame<A> {
        self.game
    }

    /// The current effective data volume `Ω`.
    // lint:allow(unreferenced-pub-fn): test oracle: the incremental-aggregate golden in tests/determinism.rs fingerprints it and the drift test compares it with a fresh build
    pub fn omega(&self) -> f64 {
        self.omega.total()
    }

    /// Commits organization `i`'s new strategy: `O(log N)`.
    pub fn commit(&mut self, i: usize, strategy: Strategy) {
        let eff = self.game.market().org(i).effective_bits();
        self.profile.set(i, strategy);
        self.res[i] = Self::resource_index_of(self.game, &strategy, i);
        self.omega.set(i, strategy.d * eff);
    }

    /// `res_i = d_i s_i + λ f_i` (Eq. 9's index) for an arbitrary
    /// candidate strategy.
    fn resource_index_of(game: &CoopetitionGame<A>, s: &Strategy, i: usize) -> f64 {
        let org = game.market().org(i);
        s.d * org.data_bits() + game.market().params().lambda * org.frequency(s.level)
    }

    /// The mover-side redistribution dot `Σ_j ρ_{i,j} res_j`, computed
    /// fresh in fixed `j` order. `ρ_{i,i} = 0`, so the result does not
    /// depend on organization `i`'s own strategy — callers evaluate it
    /// once per mover and reuse it across a whole bisection.
    pub fn rho_res(&self, i: usize) -> f64 {
        self.game.market().rho_row_sum(i, |j, rho| rho * self.res[j])
    }

    /// Payoff `C_i` (Eq. 11) with organization `i` playing `candidate`
    /// and everyone else at the current profile: `O(log N)`.
    ///
    /// `rho_res_i` must be [`Self::rho_res`]`(i)` (loop-invariant
    /// across candidates, see there).
    pub fn payoff_at(&self, i: usize, candidate: Strategy, rho_res_i: f64) -> f64 {
        let (revenue, overhead, damage) = self.common_terms(i, candidate);
        let gamma = self.game.market().params().gamma;
        let res_i = Self::resource_index_of(self.game, &candidate, i);
        let redistribution = gamma * (self.q[i] * res_i - rho_res_i);
        revenue - overhead - damage + redistribution
    }

    /// Organization `i`'s payoff at a candidate **up to the
    /// mover-invariant additive constant** `−γ Σ_j ρ_{i,j} res_j`:
    /// because `ρ_{i,i} = 0`, that redistribution cross-term does not
    /// depend on `i`'s own strategy, so dropping it preserves every
    /// comparison *between* organization `i`'s candidates (argmax,
    /// improvement tests) while keeping the evaluation `O(log N)` — no
    /// `O(N)` dot product per mover. Never compare this value across
    /// different organizations or against [`Self::payoff_at`].
    pub fn mover_payoff_at(&self, i: usize, candidate: Strategy) -> f64 {
        let (revenue, overhead, damage) = self.common_terms(i, candidate);
        let gamma = self.game.market().params().gamma;
        let res_i = Self::resource_index_of(self.game, &candidate, i);
        revenue - overhead - damage + gamma * (self.q[i] * res_i)
    }

    /// Revenue, overhead and damage: the terms of `C_i` that
    /// redistribution leaves alone.
    fn common_terms(&self, i: usize, candidate: Strategy) -> (f64, f64, f64) {
        let market = self.game.market();
        let org = market.org(i);
        let params = market.params();
        let accuracy = self.game.accuracy();
        let omega = self.omega.total_with(i, candidate.d * org.effective_bits());
        let gain = accuracy.gain(omega);
        let revenue = org.profitability() * gain;
        let f = org.frequency(candidate.level);
        let comp = params.kappa * f * f * org.eta() * candidate.d * org.data_bits();
        let overhead = params.omega_e * (comp + org.comm_energy());
        let omega_without = (omega - candidate.d * org.effective_bits()).max(0.0);
        let damage = self.weighted_p[i] * (gain - accuracy.gain(omega_without));
        (revenue, overhead, damage)
    }

    /// `∂C_i/∂d` at a candidate (the bisection's oracle):
    /// `z_i P'(Ω) θ_i s_i + (γ q_i − ϖ_e κ f² η_i) s_i`.
    pub fn payoff_d_deriv_at(&self, i: usize, candidate: Strategy) -> f64 {
        let market = self.game.market();
        let org = market.org(i);
        let params = market.params();
        let omega = self.omega.total_with(i, candidate.d * org.effective_bits());
        let f = org.frequency(candidate.level);
        let s = org.data_bits();
        self.z[i] * self.game.accuracy().gain_deriv(omega) * org.effective_bits()
            + (params.gamma * self.q[i] - params.omega_e * params.kappa * f * f * org.eta())
                * s
    }

    /// The full payoff vector at the current profile (one `O(N)`
    /// [`Self::rho_res`] per organization — `O(N²)` total, but with a
    /// single fused multiply-add per cell; used once per DBR round for
    /// the trace rows).
    pub fn payoff_vector(&self) -> Vec<f64> {
        (0..self.profile.len())
            .map(|i| self.payoff_at(i, self.profile[i], self.rho_res(i)))
            .collect()
    }

    /// Total coopetition damage `Σ_i D_i` (the Fig. 9 y-axis) at the
    /// current profile in `O(N)`: the cached damage weights
    /// `Σ_j ρ_{i,j} p_j` replace the `O(N)` sum
    /// [`CoopetitionGame::damage`] performs per organization.
    pub fn total_damage(&self) -> f64 {
        let accuracy = self.game.accuracy();
        let market = self.game.market();
        let omega = self.omega.total();
        let gain = accuracy.gain(omega);
        (0..self.profile.len())
            .map(|i| {
                let without =
                    omega - self.profile[i].d * market.org(i).effective_bits();
                self.weighted_p[i] * (gain - accuracy.gain(without.max(0.0)))
            })
            .sum()
    }

    /// The exact weighted potential `U = P(Ω) + Σ_i h_i(π_i)/z_i`
    /// (Theorem 1) at the current profile, in `O(N)`: the cached `q_i`
    /// and `z_i` replace [`crate::market::Market::competition_pressure`]
    /// and `weight`'s per-call `O(N)` ρ-row sums, which make
    /// [`CoopetitionGame::potential`] `O(N²)`. Agrees with the game to
    /// floating-point reassociation (`Ω` comes from the tree).
    pub fn potential(&self) -> f64 {
        let market = self.game.market();
        let params = market.params();
        let p = self.game.accuracy().gain(self.omega.total());
        let own: f64 = (0..self.profile.len())
            .map(|i| {
                let org = market.org(i);
                let s = &self.profile[i];
                let f = org.frequency(s.level);
                let comp = params.kappa * f * f * org.eta() * s.d * org.data_bits();
                let energy = comp + org.comm_energy();
                let h = -params.omega_e * energy + params.gamma * self.q[i] * self.res[i];
                h / self.z[i]
            })
            .sum();
        p + own
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::SqrtAccuracy;
    use crate::config::MarketConfig;
    use tradefl_runtime::{prop_assert, props};

    fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    fn random_strategy(
        g: &mut tradefl_runtime::check::Gen,
        game: &CoopetitionGame<SqrtAccuracy>,
        i: usize,
    ) -> Strategy {
        let levels = game.market().org(i).compute_level_count();
        let level = g.usize(0..levels);
        let (lo, hi) = game.market().feasible_range(i, level).unwrap_or((0.1, 1.0));
        Strategy::new(lo + (hi - lo) * g.f64(0.0..1.0), level)
    }

    #[test]
    fn sum_tree_matches_linear_sum_closely_and_updates_exactly() {
        let leaves: Vec<f64> = (0..13).map(|i| (i as f64) * 0.37 + 0.01).collect();
        let mut tree = SumTree::new(&leaves);
        let linear: f64 = leaves.iter().sum();
        assert!((tree.total() - linear).abs() < 1e-12 * linear.abs());
        // set + total == total_with, bitwise.
        for (i, v) in [(0usize, 2.5f64), (12, -1.0), (7, 0.0)] {
            let predicted = tree.total_with(i, v);
            tree.set(i, v);
            assert_eq!(predicted.to_bits(), tree.total().to_bits());
        }
    }

    #[test]
    fn sum_tree_single_leaf_and_empty() {
        let one = SumTree::new(&[3.25]);
        assert_eq!(one.total(), 3.25);
        assert_eq!(one.total_with(0, 1.5), 1.5);
        let empty = SumTree::new(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.total(), 0.0);
    }

    props! {
        #![cases = 32]

        fn committed_state_is_bit_identical_to_scratch_rebuild(g) {
            let n = g.usize(2..=12);
            let game = game(n, g.u64(0..200));
            let mut eval = IncrementalEval::new(
                &game,
                StrategyProfile::minimal(game.market()),
            );
            // An arbitrary sequence of unilateral strategy changes.
            let moves = g.usize(1..=24);
            for _ in 0..moves {
                let i = g.usize(0..n);
                let s = random_strategy(g, &game, i);
                eval.commit(i, s);
            }
            let fresh = IncrementalEval::new(&game, eval.profile().clone());
            prop_assert!(
                eval.omega().to_bits() == fresh.omega().to_bits(),
                "omega {} != fresh {}", eval.omega(), fresh.omega()
            );
            for i in 0..n {
                let rr = eval.rho_res(i);
                let rr_fresh = fresh.rho_res(i);
                prop_assert!(
                    rr.to_bits() == rr_fresh.to_bits(),
                    "rho_res[{}] {} != fresh {}", i, rr, rr_fresh
                );
                let p = eval.payoff_at(i, eval.profile()[i], rr);
                let p_fresh = fresh.payoff_at(i, fresh.profile()[i], rr_fresh);
                prop_assert!(
                    p.to_bits() == p_fresh.to_bits(),
                    "payoff[{}] {} != fresh {}", i, p, p_fresh
                );
                let m = eval.mover_payoff_at(i, eval.profile()[i]);
                let m_fresh = fresh.mover_payoff_at(i, fresh.profile()[i]);
                prop_assert!(m.to_bits() == m_fresh.to_bits());
                let d = eval.payoff_d_deriv_at(i, eval.profile()[i]);
                let d_fresh = fresh.payoff_d_deriv_at(i, fresh.profile()[i]);
                prop_assert!(d.to_bits() == d_fresh.to_bits());
            }
        }

        fn evaluator_agrees_with_the_game_to_rounding(g) {
            let n = g.usize(2..=10);
            let game = game(n, g.u64(0..200));
            let profile: StrategyProfile = (0..n)
                .map(|i| random_strategy(g, &game, i))
                .collect();
            let eval = IncrementalEval::new(&game, profile.clone());
            // WPR's market: γ = 0, where every R_i vanishes.
            let game0 = game.with_params(game.market().params().with_gamma(0.0)).unwrap();
            let eval0 = IncrementalEval::new(&game0, profile.clone());
            for i in 0..n {
                let scale = game.payoff(&profile, i).abs().max(1.0);
                let inc = eval.payoff_at(i, profile[i], eval.rho_res(i));
                let exact = game.payoff(&profile, i);
                prop_assert!(
                    (inc - exact).abs() <= 1e-9 * scale,
                    "payoff[{}] incremental {} vs game {}", i, inc, exact
                );
                let inc_w = eval0.payoff_at(i, profile[i], eval0.rho_res(i));
                let exact_w = game.payoff(&profile, i) - game.redistribution(&profile, i);
                prop_assert!((inc_w - exact_w).abs() <= 1e-9 * scale);
                // At γ = 0 the mover objective's shift is exactly zero.
                prop_assert!(eval0.mover_payoff_at(i, profile[i]).to_bits() == inc_w.to_bits());
                let inc_d = eval.payoff_d_deriv_at(i, profile[i]);
                let exact_d = game.payoff_d_deriv(&profile, i);
                prop_assert!(
                    (inc_d - exact_d).abs()
                        <= 1e-9 * exact_d.abs().max(1.0),
                    "deriv[{}] incremental {} vs game {}", i, inc_d, exact_d
                );
            }
            let inc_u = eval.potential();
            let exact_u = game.potential(&profile);
            prop_assert!(
                (inc_u - exact_u).abs() <= 1e-9 * exact_u.abs().max(1.0),
                "potential incremental {} vs game {}", inc_u, exact_u
            );
        }

        fn mover_payoff_preserves_candidate_comparisons(g) {
            let n = g.usize(2..=10);
            let game = game(n, g.u64(0..200));
            let eval = IncrementalEval::new(
                &game,
                StrategyProfile::minimal(game.market()),
            );
            let i = g.usize(0..n);
            let a = random_strategy(g, &game, i);
            let b = random_strategy(g, &game, i);
            let rr = eval.rho_res(i);
            let true_gap = eval.payoff_at(i, a, rr) - eval.payoff_at(i, b, rr);
            let mover_gap = eval.mover_payoff_at(i, a) - eval.mover_payoff_at(i, b);
            let scale = true_gap.abs().max(eval.payoff_at(i, a, rr).abs()).max(1.0);
            prop_assert!(
                (true_gap - mover_gap).abs() <= 1e-9 * scale,
                "shift leaked into a comparison: true {} vs mover {}",
                true_gap, mover_gap
            );
        }

        fn candidate_evaluation_equals_commit_then_evaluate(g) {
            let n = g.usize(2..=8);
            let game = game(n, g.u64(0..200));
            let mut eval = IncrementalEval::new(
                &game,
                StrategyProfile::minimal(game.market()),
            );
            let i = g.usize(0..n);
            let s = random_strategy(g, &game, i);
            let rr = eval.rho_res(i);
            let predicted = eval.payoff_at(i, s, rr);
            eval.commit(i, s);
            let committed = eval.payoff_at(i, s, eval.rho_res(i));
            prop_assert!(
                predicted.to_bits() == committed.to_bits(),
                "candidate {} != committed {}", predicted, committed
            );
        }
    }
}
