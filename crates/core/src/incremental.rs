//! Incremental payoff evaluation for best-response sweeps at scale.
//!
//! Every payoff-shaped quantity in [`crate::game`] decomposes into a
//! handful of aggregates over the market: the effective data volume
//! `Ω = Σ_j d_j θ_j s_j`, the per-organization resource indices
//! `res_j = d_j s_j + λ f_j`, and strategy-*independent* constants
//! (`q_i`, `z_i`, `Σ_j ρ_{i,j} p_j`, which the market sums once and the
//! evaluator reads). A best-response search at
//! organization `i` evaluates the payoff and its `d`-derivative at a
//! handful of candidate `(d, level)` pairs, and the only aggregate a
//! candidate perturbs is `Ω` — by exactly one addend. [`IncrementalEval`]
//! maintains those aggregates, and its per-mover [`MoverView`] copies
//! organization `i`'s [`SumTree`] sibling path once, so one candidate
//! evaluation costs one `O(log N)` fold instead of the `O(N)` full
//! recomputation [`crate::game`] performs — which is what makes a DBR
//! sweep sub-quadratic in `N`. The view also memoises the terms that
//! depend on `d` alone (`Ω` and the `P(Ω)`/`P′(Ω)` terms), which the
//! compute ladder's levels share whenever they probe the same `d`.
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
//!   is always `left + right` of the same children). A candidate's `Ω`
//!   folds the leaf value up the same sibling path, so it equals the
//!   total that committing the candidate would produce.
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

    /// Leaf `i`'s sibling path, bottom-up: the values `set(i, _)`
    /// adds to the running node value on its way to the root.
    fn path(&self, i: usize) -> LeafPath {
        assert!(i < self.len, "leaf {i} out of bounds ({})", self.len);
        let mut siblings = [0.0; MAX_TREE_DEPTH];
        let mut depth = 0;
        let mut node = self.cap + i;
        while node > 1 {
            siblings[depth] = self.nodes[node ^ 1];
            depth += 1;
            node /= 2;
        }
        LeafPath { siblings, depth }
    }
}

/// The deepest [`SumTree`] a [`LeafPath`] holds: one level per bit of a
/// leaf index.
const MAX_TREE_DEPTH: usize = usize::BITS as usize;

/// A copy of one leaf's [`SumTree`] sibling path (see
/// [`SumTree::path`]), so repeated "root total if this leaf were `v`"
/// queries read `depth` contiguous values instead of walking the tree.
#[derive(Debug, Clone, Copy)]
struct LeafPath {
    siblings: [f64; MAX_TREE_DEPTH],
    depth: usize,
}

impl LeafPath {
    /// The root total *as if* the leaf were `value` — bit-identical to
    /// `set(i, value); total()`. `set` adds `left + right` at each
    /// level, putting the path node on the left or the right by its
    /// parity; IEEE-754 addition is commutative, so always adding the
    /// sibling on the right yields the same bits without the branch.
    fn total_with(&self, value: f64) -> f64 {
        self.siblings[..self.depth].iter().fold(value, |acc, &sibling| acc + sibling)
    }
}

/// Incremental payoff evaluator over a [`CoopetitionGame`].
///
/// Holds the current strategy profile plus the aggregates described in
/// the module docs. Constructing one is `O(N)`: it reads no `ρ` entry,
/// because the strategy-independent constants are the market's own row
/// sums. Every candidate evaluation afterwards is `O(log N)`, and
/// committing an accepted move is `O(log N)` too.
#[derive(Debug)]
pub struct IncrementalEval<'g, A> {
    game: &'g CoopetitionGame<A>,
    profile: StrategyProfile,
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
        let res: Vec<f64> =
            (0..n).map(|i| Self::resource_index_of(game, &profile[i], i)).collect();
        let leaves: Vec<f64> = (0..n)
            .map(|i| profile[i].d * market.org(i).effective_bits())
            .collect();
        let omega = SumTree::new(&leaves);
        Self { game, profile, res, omega }
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
    /// depend on organization `i`'s own strategy, which is why a
    /// best-response search can compare candidates by
    /// [`MoverView::mover_payoff`] without it.
    pub fn rho_res(&self, i: usize) -> f64 {
        self.game.market().rho_row_sum(i, |j, rho| rho * self.res[j])
    }

    /// Organization `i`'s view for one best-response search: copies
    /// `i`'s [`SumTree`] sibling path once (`O(log N)`), after which
    /// every candidate evaluation folds that path. Build a fresh view
    /// after each [`Self::commit`] (the borrow enforces it).
    pub fn mover(&self, i: usize) -> MoverView<'_, 'g, A> {
        MoverView {
            eval: self,
            i,
            path: self.omega.path(i),
            memo: [MemoSlot::default(); MEMO_SLOTS],
            filled: 0,
            next: 0,
        }
    }

    /// Organization `i`'s payoff `C_i` (Eq. 11) at the current profile:
    /// `O(log N)` plus the one `O(deg)` [`Self::rho_res`] dot.
    pub fn payoff(&self, i: usize) -> f64 {
        self.mover(i).payoff(self.profile[i])
    }

    /// The full payoff vector at the current profile (one `O(deg)`
    /// [`Self::rho_res`] per organization — `O(N log N + nnz)` total;
    /// used once per DBR round for the trace rows).
    pub fn payoff_vector(&self) -> Vec<f64> {
        (0..self.profile.len()).map(|i| self.payoff(i)).collect()
    }

    /// Total coopetition damage `Σ_i D_i` (the Fig. 9 y-axis) at the
    /// current profile in `O(N)`: one `Ω` from the tree replaces the
    /// `O(N)` [`StrategyProfile::total_data`] that
    /// [`CoopetitionGame::damage`] recomputes per organization.
    pub fn total_damage(&self) -> f64 {
        let accuracy = self.game.accuracy();
        let market = self.game.market();
        let omega = self.omega.total();
        let gain = accuracy.gain(omega);
        (0..self.profile.len())
            .map(|i| {
                let without =
                    omega - self.profile[i].d * market.org(i).effective_bits();
                market.damage_weight(i) * (gain - accuracy.gain(without.max(0.0)))
            })
            .sum()
    }

    /// The exact weighted potential `U = P(Ω) + Σ_i h_i(π_i)/z_i`
    /// (Theorem 1) at the current profile, in `O(N)`. Agrees with
    /// [`CoopetitionGame::potential`] to floating-point reassociation
    /// (`Ω` comes from the tree).
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
                let h = -params.omega_e * energy
                    + params.gamma * market.competition_pressure(i) * self.res[i];
                h / market.weight(i)
            })
            .sum();
        p + own
    }
}

/// How many distinct `d` values a [`MoverView`] remembers. A
/// best response on the Table II ladder probes at most `D_min`, one
/// `hi` per level (often the shared cap `1`) and the mover's current
/// `d` before any bisection midpoint; older entries are overwritten in
/// insertion order.
const MEMO_SLOTS: usize = 8;

/// The terms of organization `i`'s payoff and derivative that depend on
/// its candidate `d` but not on its compute level.
#[derive(Debug, Clone, Copy, Default)]
struct MemoSlot {
    /// `d.to_bits()` of the candidate these terms belong to.
    d_bits: u64,
    /// `Ω` with the mover at `d`.
    omega: f64,
    /// `z_i P′(Ω) θ_i s_i`, once a derivative query needed it.
    deriv: Option<f64>,
    /// `(p_i P(Ω), Σ_j ρ_{i,j} p_j (P(Ω) − P(Ω − d θ_i s_i)))`, revenue
    /// and damage, once a payoff query needed them.
    revenue_damage: Option<(f64, f64)>,
}

/// One organization's view of an [`IncrementalEval`] for the length of
/// one best-response search (see [`IncrementalEval::mover`]).
///
/// Holds a stack copy of the organization's [`SumTree`] sibling path and
/// a fixed-size memo of the level-independent terms per candidate `d`,
/// so the compute ladder's levels share `Ω`, `P(Ω)` and `P′(Ω)` whenever
/// they probe the same `d` (`D_min`, or a deadline cap of `1`). Only the
/// level terms (`f`, overhead, `res_i`) are recomputed per query. A memo
/// hit returns the very bits a recomputation would, so every query is
/// bit-identical to one on a fresh view. Nothing here allocates.
#[derive(Debug)]
pub struct MoverView<'e, 'g, A> {
    eval: &'e IncrementalEval<'g, A>,
    i: usize,
    path: LeafPath,
    memo: [MemoSlot; MEMO_SLOTS],
    /// Slots in use (`≤ MEMO_SLOTS`).
    filled: usize,
    /// The slot the next new `d` overwrites.
    next: usize,
}

impl<'g, A: AccuracyModel> MoverView<'_, 'g, A> {
    /// The organization this view evaluates.
    pub fn org(&self) -> usize {
        self.i
    }

    /// The game the underlying evaluator reads.
    pub fn game(&self) -> &'g CoopetitionGame<A> {
        self.eval.game
    }

    /// The memo slot for candidate `d`, filling a new one (with `Ω`
    /// only) on a miss.
    fn slot(&mut self, d: f64) -> usize {
        let d_bits = d.to_bits();
        if let Some(k) = self.memo[..self.filled].iter().position(|m| m.d_bits == d_bits) {
            return k;
        }
        let eff = self.eval.game.market().org(self.i).effective_bits();
        let k = self.next;
        self.memo[k] = MemoSlot {
            d_bits,
            omega: self.path.total_with(d * eff),
            deriv: None,
            revenue_damage: None,
        };
        self.next = (k + 1) % MEMO_SLOTS;
        self.filled = (self.filled + 1).min(MEMO_SLOTS);
        k
    }

    /// Payoff `C_i` (Eq. 11) with the organization playing `candidate`
    /// and everyone else at the evaluator's profile: the `O(log N)`
    /// terms plus the `O(deg)` redistribution dot
    /// [`IncrementalEval::rho_res`]`(i)`.
    pub fn payoff(&mut self, candidate: Strategy) -> f64 {
        self.payoff_with(candidate, true)
    }

    /// The organization's payoff at a candidate **up to the
    /// mover-invariant additive constant** `−γ Σ_j ρ_{i,j} res_j`:
    /// because `ρ_{i,i} = 0`, that redistribution cross-term does not
    /// depend on `i`'s own strategy, so dropping it preserves every
    /// comparison *between* organization `i`'s candidates (argmax,
    /// improvement tests) while keeping the evaluation `O(log N)` — no
    /// `O(deg)` dot product per query. Never compare this value across
    /// different organizations or against [`Self::payoff`].
    pub fn mover_payoff(&mut self, candidate: Strategy) -> f64 {
        self.payoff_with(candidate, false)
    }

    /// The one payoff formula behind [`Self::payoff`] (`full`) and
    /// [`Self::mover_payoff`]. The mover objective subtracts `0.0` for
    /// the dot, and `x − 0.0 == x` bitwise, so it is exactly `C_i`
    /// without the cross-term.
    fn payoff_with(&mut self, candidate: Strategy, full: bool) -> f64 {
        let k = self.slot(candidate.d);
        let (game, i) = (self.eval.game, self.i);
        let market = game.market();
        let org = market.org(i);
        let params = market.params();
        let (revenue, damage) = match self.memo[k].revenue_damage {
            Some(terms) => terms,
            None => {
                let accuracy = game.accuracy();
                let omega = self.memo[k].omega;
                let gain = accuracy.gain(omega);
                let revenue = org.profitability() * gain;
                let omega_without = (omega - candidate.d * org.effective_bits()).max(0.0);
                let damage = market.damage_weight(i) * (gain - accuracy.gain(omega_without));
                self.memo[k].revenue_damage = Some((revenue, damage));
                (revenue, damage)
            }
        };
        let f = org.frequency(candidate.level);
        let comp = params.kappa * f * f * org.eta() * candidate.d * org.data_bits();
        let overhead = params.omega_e * (comp + org.comm_energy());
        let res_i = IncrementalEval::resource_index_of(game, &candidate, i);
        // The dot is a serial chain of adds; computing it after the
        // divisions above lets the two overlap.
        let rho_res_i = if full { self.eval.rho_res(i) } else { 0.0 };
        let redistribution = params.gamma * (market.competition_pressure(i) * res_i - rho_res_i);
        revenue - overhead - damage + redistribution
    }

    /// `∂C_i/∂d` at a candidate (the bisection's oracle):
    /// `z_i P'(Ω) θ_i s_i + (γ q_i − ϖ_e κ f² η_i) s_i`.
    pub fn d_deriv(&mut self, candidate: Strategy) -> f64 {
        let k = self.slot(candidate.d);
        let (game, i) = (self.eval.game, self.i);
        let market = game.market();
        let org = market.org(i);
        let params = market.params();
        let shared = match self.memo[k].deriv {
            Some(term) => term,
            None => {
                let gain_deriv = game.accuracy().gain_deriv(self.memo[k].omega);
                let term = market.weight(i) * gain_deriv * org.effective_bits();
                self.memo[k].deriv = Some(term);
                term
            }
        };
        let f = org.frequency(candidate.level);
        shared
            + (params.gamma * market.competition_pressure(i)
                - params.omega_e * params.kappa * f * f * org.eta())
                * org.data_bits()
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

    /// The root total with leaf `i` at `value` by the tree walk the
    /// evaluator used before it copied sibling paths: each level adds
    /// `left + right` in the order `SumTree::set` does.
    fn reference_total_with(tree: &SumTree, i: usize, value: f64) -> f64 {
        let mut node = tree.cap + i;
        let mut acc = value;
        while node > 1 {
            let sibling = tree.nodes[node ^ 1];
            acc = if node % 2 == 0 { acc + sibling } else { sibling + acc };
            node /= 2;
        }
        acc
    }

    /// Revenue, overhead and damage of `C_i`, each recomputed from
    /// scratch per query (the evaluator's formulas before the view
    /// shared the level-independent ones).
    fn reference_common_terms(
        eval: &IncrementalEval<'_, SqrtAccuracy>,
        i: usize,
        candidate: Strategy,
    ) -> (f64, f64, f64) {
        let market = eval.game.market();
        let org = market.org(i);
        let params = market.params();
        let accuracy = eval.game.accuracy();
        let omega = reference_total_with(&eval.omega, i, candidate.d * org.effective_bits());
        let gain = accuracy.gain(omega);
        let revenue = org.profitability() * gain;
        let f = org.frequency(candidate.level);
        let comp = params.kappa * f * f * org.eta() * candidate.d * org.data_bits();
        let overhead = params.omega_e * (comp + org.comm_energy());
        let omega_without = (omega - candidate.d * org.effective_bits()).max(0.0);
        let damage = market.damage_weight(i) * (gain - accuracy.gain(omega_without));
        (revenue, overhead, damage)
    }

    fn reference_payoff_at(
        eval: &IncrementalEval<'_, SqrtAccuracy>,
        i: usize,
        candidate: Strategy,
        rho_res_i: f64,
    ) -> f64 {
        let (revenue, overhead, damage) = reference_common_terms(eval, i, candidate);
        let gamma = eval.game.market().params().gamma;
        let res_i = IncrementalEval::resource_index_of(eval.game, &candidate, i);
        let q = eval.game.market().competition_pressure(i);
        revenue - overhead - damage + gamma * (q * res_i - rho_res_i)
    }

    fn reference_mover_payoff_at(
        eval: &IncrementalEval<'_, SqrtAccuracy>,
        i: usize,
        candidate: Strategy,
    ) -> f64 {
        let (revenue, overhead, damage) = reference_common_terms(eval, i, candidate);
        let gamma = eval.game.market().params().gamma;
        let res_i = IncrementalEval::resource_index_of(eval.game, &candidate, i);
        let q = eval.game.market().competition_pressure(i);
        revenue - overhead - damage + gamma * (q * res_i)
    }

    fn reference_d_deriv_at(
        eval: &IncrementalEval<'_, SqrtAccuracy>,
        i: usize,
        candidate: Strategy,
    ) -> f64 {
        let market = eval.game.market();
        let org = market.org(i);
        let params = market.params();
        let omega = reference_total_with(&eval.omega, i, candidate.d * org.effective_bits());
        let f = org.frequency(candidate.level);
        let s = org.data_bits();
        let (z, q) = (market.weight(i), market.competition_pressure(i));
        z * eval.game.accuracy().gain_deriv(omega) * org.effective_bits()
            + (params.gamma * q - params.omega_e * params.kappa * f * f * org.eta()) * s
    }

    #[test]
    fn sum_tree_matches_linear_sum_closely_and_updates_exactly() {
        let leaves: Vec<f64> = (0..13).map(|i| (i as f64) * 0.37 + 0.01).collect();
        let mut tree = SumTree::new(&leaves);
        let linear: f64 = leaves.iter().sum();
        assert!((tree.total() - linear).abs() < 1e-12 * linear.abs());
        // set + total == the path fold, bitwise.
        for (i, v) in [(0usize, 2.5f64), (12, -1.0), (7, 0.0)] {
            let predicted = tree.path(i).total_with(v);
            tree.set(i, v);
            assert_eq!(predicted.to_bits(), tree.total().to_bits());
        }
    }

    #[test]
    fn sum_tree_single_leaf_and_empty() {
        let one = SumTree::new(&[3.25]);
        assert_eq!(one.total(), 3.25);
        assert_eq!(one.path(0).total_with(1.5), 1.5);
        let empty = SumTree::new(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.total(), 0.0);
    }

    #[test]
    fn levels_sharing_the_unit_cap_share_one_memo_slot() {
        // Some Table II organization meets the deadline at d = 1 on two
        // or more levels; a view evaluating every level at both ends
        // then fills one slot for D_min, one for the shared cap 1 and
        // one per distinct other cap.
        let game = game(40, 3);
        let market = game.market();
        let eval = IncrementalEval::new(&game, StrategyProfile::minimal(market));
        let mut shared = 0;
        for i in 0..market.len() {
            let ranges: Vec<(usize, f64, f64)> = (0..market.org(i).compute_level_count())
                .filter_map(|level| market.feasible_range(i, level).map(|(lo, hi)| (level, lo, hi)))
                .collect();
            if ranges.iter().filter(|r| r.2 == 1.0).count() < 2 {
                continue;
            }
            shared += 1;
            let mut view = eval.mover(i);
            let mut ends: Vec<u64> = Vec::new();
            for &(level, lo, hi) in &ranges {
                for d in [lo, hi] {
                    let s = Strategy::new(d, level);
                    let got = [view.d_deriv(s), view.mover_payoff(s)];
                    let want = [reference_d_deriv_at(&eval, i, s), reference_mover_payoff_at(&eval, i, s)];
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "org {i} {s:?}");
                    if !ends.contains(&d.to_bits()) {
                        ends.push(d.to_bits());
                    }
                }
            }
            assert_eq!(view.filled, ends.len(), "org {i}: one slot per distinct d");
            assert!(view.filled < 2 * ranges.len(), "org {i}: no memo hit");
        }
        assert!(shared > 0, "no organization shares the unit cap across levels");
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
                let p = eval.payoff(i);
                let p_fresh = fresh.payoff(i);
                prop_assert!(
                    p.to_bits() == p_fresh.to_bits(),
                    "payoff[{}] {} != fresh {}", i, p, p_fresh
                );
                let (mut view, mut view_fresh) = (eval.mover(i), fresh.mover(i));
                let m = view.mover_payoff(eval.profile()[i]);
                let m_fresh = view_fresh.mover_payoff(fresh.profile()[i]);
                prop_assert!(m.to_bits() == m_fresh.to_bits());
                let d = view.d_deriv(eval.profile()[i]);
                let d_fresh = view_fresh.d_deriv(fresh.profile()[i]);
                prop_assert!(d.to_bits() == d_fresh.to_bits());
            }
        }

        fn view_queries_equal_the_reference_formulas_bitwise(g) {
            // Every level of every organization at D_min, its cap, an
            // interior point and the current d, through one view per
            // organization (so later levels hit the memo) and through a
            // fresh view per query: all bit-identical to the formulas
            // recomputed from scratch.
            let n = g.usize(2..=16);
            let game = game(n, g.u64(0..200));
            let profile: StrategyProfile = (0..n)
                .map(|i| random_strategy(g, &game, i))
                .collect();
            let eval = IncrementalEval::new(&game, profile.clone());
            for i in 0..n {
                let rr = eval.rho_res(i);
                let mut view = eval.mover(i);
                for level in 0..game.market().org(i).compute_level_count() {
                    let Some((lo, hi)) = game.market().feasible_range(i, level) else { continue };
                    let mid = lo + (hi - lo) * g.f64(0.0..1.0);
                    for d in [lo, hi, mid, profile[i].d, lo] {
                        let s = Strategy::new(d, level);
                        let want = [
                            reference_d_deriv_at(&eval, i, s),
                            reference_mover_payoff_at(&eval, i, s),
                            reference_payoff_at(&eval, i, s, rr),
                        ];
                        let shared = [view.d_deriv(s), view.mover_payoff(s), view.payoff(s)];
                        let fresh = [
                            eval.mover(i).d_deriv(s),
                            eval.mover(i).mover_payoff(s),
                            eval.mover(i).payoff(s),
                        ];
                        for k in 0..3 {
                            prop_assert!(
                                shared[k].to_bits() == want[k].to_bits()
                                    && fresh[k].to_bits() == want[k].to_bits(),
                                "org {} {:?} query {}: view {} fresh {} reference {}",
                                i, s, k, shared[k], fresh[k], want[k]
                            );
                        }
                    }
                }
            }
        }

        fn path_fold_equals_the_set_total_bitwise(g) {
            // Tree lengths that are not powers of two, so the padded
            // zeros sit on some paths.
            for len in [13usize, 10_000] {
                let leaves: Vec<f64> = (0..len).map(|_| g.f64(0.0..1e9)).collect();
                let mut tree = SumTree::new(&leaves);
                for _ in 0..64 {
                    let i = g.usize(0..len);
                    let v = g.f64(0.0..1e9);
                    let folded = tree.path(i).total_with(v);
                    prop_assert!(
                        folded.to_bits() == reference_total_with(&tree, i, v).to_bits()
                    );
                    tree.set(i, v);
                    prop_assert!(
                        folded.to_bits() == tree.total().to_bits(),
                        "len {} leaf {}: fold {} != set total {}", len, i, folded, tree.total()
                    );
                }
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
                let inc = eval.payoff(i);
                let exact = game.payoff(&profile, i);
                prop_assert!(
                    (inc - exact).abs() <= 1e-9 * scale,
                    "payoff[{}] incremental {} vs game {}", i, inc, exact
                );
                let inc_w = eval0.payoff(i);
                let exact_w = game.payoff(&profile, i) - game.redistribution(&profile, i);
                prop_assert!((inc_w - exact_w).abs() <= 1e-9 * scale);
                // At γ = 0 the mover objective's shift is exactly zero.
                prop_assert!(eval0.mover(i).mover_payoff(profile[i]).to_bits() == inc_w.to_bits());
                let inc_d = eval.mover(i).d_deriv(profile[i]);
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
            let mut view = eval.mover(i);
            let true_gap = view.payoff(a) - view.payoff(b);
            let mover_gap = view.mover_payoff(a) - view.mover_payoff(b);
            let scale = true_gap.abs().max(view.payoff(a).abs()).max(1.0);
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
            let predicted = eval.mover(i).payoff(s);
            eval.commit(i, s);
            let committed = eval.payoff(i);
            prop_assert!(
                predicted.to_bits() == committed.to_bits(),
                "candidate {} != committed {}", predicted, committed
            );
        }
    }
}
