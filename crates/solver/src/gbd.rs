//! Benders machinery: Lagrangian cuts (Eqs. 20/22) and the master
//! problem (23) over the discrete compute ladder.
//!
//! The master is solved either by the paper's exhaustive *traversal* of
//! `f ∈ 𝓕 = F_1 × … × F_|N|` ("the traversal method is applied only,
//! i.e., the solution of (23) is obtained by exhaustively enumerating
//! the feasible values of f^(k)") or — for instances where `m^|N|` is
//! intractable — by a coordinate-descent local search with restarts,
//! clearly flagged as a heuristic.

use crate::error::{Result, SolveError};
use tradefl_runtime::obs;
use tradefl_runtime::rng::{Rng, SeedableRng, StdRng};
// Ordered set, not HashSet: the visited set participates in the
// bit-identity contract and must never expose a nondeterministic
// iteration order (`no-hash-iteration` lint).
use std::collections::BTreeSet;
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::strategy::{Strategy, StrategyProfile};

/// Deadline residuals `G_i(d, f) = T_i^(1) + η_i d_i s_i / f_i + T_i^(3) − τ`.
pub fn deadline_residuals<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    d: &[f64],
    levels: &[usize],
) -> Vec<f64> {
    let market = game.market();
    (0..market.len())
        .map(|i| {
            let org = market.org(i);
            org.comm_time() + org.training_time(d[i], org.frequency(levels[i]))
                - market.params().tau
        })
        .collect()
}

/// Potential `U(d; f)` for an explicit `(d, levels)` pair.
// lint:allow(unreferenced-pub-fn): test oracle: the potential the GBD cut tests evaluate Lagrangians with
pub fn potential_at<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    d: &[f64],
    levels: &[usize],
) -> f64 {
    let profile: StrategyProfile = d
        .iter()
        .zip(levels)
        .map(|(&d, &l)| Strategy::new(d, l))
        .collect();
    game.potential(&profile)
}

/// A Benders cut produced by one CGBD iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Cut {
    /// Optimality cut from a feasible primal (Eq. 20). Construct via
    /// [`Cut::optimality`], which caches the accuracy-curve data at the
    /// anchor `Ω_v` so that evaluation underestimates the true value
    /// function: `−P(Ω)` is convex, hence
    /// `−P(Ω) ≥ −P(Ω_v) − P'(Ω_v)(Ω − Ω_v)`, and minimizing the
    /// linearized Lagrangian `𝓛(d, f, u_v)` over the box `[D_min, 1]^N`
    /// is analytic per coordinate. The cut is tight at its own anchor
    /// assignment (KKT), so visited assignments price exactly and GBD's
    /// lower bound stays valid (Lemma 3).
    Optimality {
        /// The primal solution `d_v` the cut is anchored at.
        d: Vec<f64>,
        /// The deadline multipliers `u_v ≥ 0`.
        u: Vec<f64>,
        /// Total data `Ω_v` at the anchor.
        omega: f64,
        /// Accuracy gain `P(Ω_v)`.
        p_value: f64,
        /// Accuracy slope `P'(Ω_v)`.
        p_deriv: f64,
    },
    /// Feasibility cut from an infeasible primal (Eq. 22): requires
    /// `𝓛_*(d_v, f, λ_v) = λ_vᵀ G(d_v, f) ≤ 0`. Valid for all `d`
    /// because the residuals are increasing in `d` and the anchor is
    /// the feasibility minimizer `d = D_min`.
    Feasibility {
        /// The feasibility-check minimizer (everyone at `D_min`).
        d: Vec<f64>,
        /// The dual weights `λ_v` (sum to one).
        lambda: Vec<f64>,
    },
}

impl Cut {
    /// Builds an optimality cut anchored at primal solution `(d, u)`.
    pub fn optimality<A: AccuracyModel>(
        game: &CoopetitionGame<A>,
        d: Vec<f64>,
        u: Vec<f64>,
    ) -> Self {
        let omega = game.market().total_data(&d);
        let p_value = game.accuracy().gain(omega);
        let p_deriv = game.accuracy().gain_deriv(omega);
        Cut::Optimality { d, u, omega, p_value, p_deriv }
    }

    /// Evaluates the cut at a candidate level assignment. For an
    /// optimality cut this is its epigraph value — a valid lower bound
    /// on `min_d −U(d, f) + u_vᵀ G(d, f)` (minimization convention);
    /// feasibility cuts return their violation (`≤ 0` means satisfied).
    pub fn evaluate<A: AccuracyModel>(
        &self,
        game: &CoopetitionGame<A>,
        levels: &[usize],
    ) -> f64 {
        match self {
            Cut::Optimality { d: _, u, omega, p_value, p_deriv } => {
                let market = game.market();
                let params = market.params();
                let d_min = params.d_min;
                // −P(Ω(d)) ≥ −P_v + P'_v Ω_v − P'_v Ω(d); the last term
                // folds into the per-coordinate linear minimization.
                let mut total = -p_value + p_deriv * omega;
                for i in 0..market.len() {
                    let org = market.org(i);
                    let f = org.frequency(levels[i]);
                    let s = org.data_bits();
                    let z = market.weight(i);
                    let q = market.competition_pressure(i);
                    // U's own-term slope in d_i at this frequency.
                    let c = (params.gamma * q
                        - params.omega_e * params.kappa * f * f * org.eta())
                        * s
                        / z;
                    // Linear coefficient of d_i in the relaxed Lagrangian
                    // (accuracy term on effective volume, costs on raw).
                    let coeff =
                        -p_deriv * org.effective_bits() - c + u[i] * org.eta() * s / f;
                    total += if coeff > 0.0 { coeff * d_min } else { coeff };
                    // u_i (comm − τ) and −const(f) pieces.
                    total += u[i] * (org.comm_time() - params.tau);
                    total -= (params.gamma * q * params.lambda * f
                        - params.omega_e * org.comm_energy())
                        / z;
                }
                total
            }
            Cut::Feasibility { d, lambda } => {
                let g = deadline_residuals(game, d, levels);
                lambda.iter().zip(&g).map(|(li, gi)| li * gi).sum()
            }
        }
    }
}

/// How the master problem (23) searches the ladder product space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MasterSearch {
    /// Exhaustive traversal (paper-faithful); errors out if `m^|N|`
    /// exceeds `cap`.
    Traversal {
        /// Upper bound on the number of enumerated combinations.
        cap: u128,
    },
    /// Coordinate-descent local search with random restarts (heuristic
    /// for large instances).
    CoordinateDescent {
        /// Number of random restarts (the current incumbent is always
        /// one start).
        restarts: usize,
        /// Maximum full sweeps per start.
        max_sweeps: usize,
        /// RNG seed for restart points.
        seed: u64,
    },
}

impl Default for MasterSearch {
    fn default() -> Self {
        MasterSearch::Traversal { cap: 4_000_000 }
    }
}

/// Value of the master objective at `levels`: the max over optimality
/// cuts, or `None` when a feasibility cut is violated.
pub fn master_value<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    cuts: &[Cut],
    levels: &[usize],
) -> Option<f64> {
    let mut value = f64::NEG_INFINITY;
    let mut saw_optimality = false;
    for cut in cuts {
        match cut {
            Cut::Feasibility { .. } => {
                if cut.evaluate(game, levels) > 1e-9 {
                    return None;
                }
            }
            Cut::Optimality { .. } => {
                saw_optimality = true;
                value = value.max(cut.evaluate(game, levels));
            }
        }
    }
    if saw_optimality {
        Some(value)
    } else {
        // No epigraph yet: rank candidates by (lack of) deadline slack
        // so the first master pick favours fast ladders.
        Some(0.0)
    }
}

/// Solution of one master solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterSolution {
    /// The next level assignment `f^(k)` to hand to the primal: the best
    /// assignment *not yet visited*, or the global minimizer if every
    /// candidate was visited.
    pub levels: Vec<usize>,
    /// The global optimal epigraph value `φ*` — the lower bound
    /// `LB^(k)` in the minimization convention (over **all** feasible
    /// candidates, visited or not).
    pub phi: f64,
    /// Whether [`MasterSolution::levels`] is fresh (not yet visited). A
    /// stale result means the search space is exhausted and CGBD can
    /// terminate (Lemma 2).
    pub fresh: bool,
    /// Number of candidate assignments evaluated.
    pub evaluated: usize,
}

/// Candidate spaces at least this large route the traversal through
/// the table scan ([`traverse_tables`]); smaller ones stay on the
/// reference odometer loop, whose per-candidate cost is already below
/// the table-build overhead. The switch depends only on the instance,
/// so the selected code path is fixed per instance.
const TABLE_TRAVERSAL_MIN_COMBOS: u128 = 512;

/// Solves the master problem (23), preferring assignments not in
/// `visited` (Lemma 2: no `f` repeats itself).
///
/// `tables` must hold exactly the cuts in `cuts`: CGBD grows both
/// together (appending via [`CutTables::push_cut`]), and callers without
/// a table set build one with [`CutTables::build`]. The table traversal
/// scans `tables`; the small reference path and coordinate descent
/// evaluate `cuts` directly.
///
/// # Errors
///
/// * [`SolveError::MasterTooLarge`] in traversal mode when `m^|N|`
///   exceeds the cap;
/// * [`SolveError::InfeasibleProblem`] when every candidate violates a
///   feasibility cut (cannot happen if any ladder assignment admits
///   `D_min` within the deadline).
///
/// # Panics
///
/// Panics if `tables` does not hold the same number of cuts as `cuts`.
pub fn solve_master<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    cuts: &[Cut],
    tables: &CutTables,
    search: MasterSearch,
    visited: &BTreeSet<Vec<usize>>,
) -> Result<MasterSolution> {
    assert_eq!(
        tables.cut_count(),
        cuts.len(),
        "incremental cut tables out of sync with the cut stack"
    );
    match search {
        MasterSearch::Traversal { cap } => {
            let combos = combination_count(game);
            obs::counter_add(
                "gbd.master_candidates_scanned",
                u64::try_from(combos).unwrap_or(u64::MAX),
            );
            if combos >= TABLE_TRAVERSAL_MIN_COMBOS {
                traverse_tables(game, tables, visited, cap)
            } else {
                traverse_reference(game, cuts, visited, cap)
            }
        }
        MasterSearch::CoordinateDescent { restarts, max_sweeps, seed } => {
            coordinate_descent(game, cuts, visited, restarts, max_sweeps, seed)
        }
    }
}

/// Size of the ladder product space `|𝓕| = Π m_i`.
pub(crate) fn combination_count<A: AccuracyModel>(game: &CoopetitionGame<A>) -> u128 {
    game.market()
        .orgs()
        .iter()
        .map(|o| o.compute_level_count() as u128)
        .try_fold(1u128, u128::checked_mul)
        .unwrap_or(u128::MAX)
}

fn ladder_sizes<A: AccuracyModel>(game: &CoopetitionGame<A>) -> Vec<usize> {
    game.market()
        .orgs()
        .iter()
        .map(|o| o.compute_level_count())
        .collect()
}

/// The paper-faithful odometer traversal, evaluating
/// [`Cut::evaluate`] per candidate. Kept as the reference
/// implementation (and the fast path for small candidate spaces, where
/// building the lookup tables of [`traverse_tables`] costs more than
/// it saves).
///
/// # Errors
///
/// See [`solve_master`].
pub fn traverse_reference<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    cuts: &[Cut],
    visited: &BTreeSet<Vec<usize>>,
    cap: u128,
) -> Result<MasterSolution> {
    let sizes = ladder_sizes(game);
    let combinations = sizes
        .iter()
        .try_fold(1u128, |acc, &m| acc.checked_mul(m as u128))
        .unwrap_or(u128::MAX);
    if combinations > cap {
        return Err(SolveError::MasterTooLarge { combinations, cap });
    }
    let mut levels = vec![0usize; sizes.len()];
    let mut best: Option<(Vec<usize>, f64)> = None; // global minimizer
    let mut best_fresh: Option<(Vec<usize>, f64)> = None; // best unvisited
    let mut evaluated = 0usize;
    loop {
        evaluated += 1;
        if let Some(phi) = master_value(game, cuts, &levels) {
            if best.as_ref().map_or(true, |(_, b)| phi < *b) {
                best = Some((levels.clone(), phi));
            }
            if !visited.contains(&levels)
                && best_fresh.as_ref().map_or(true, |(_, b)| phi < *b)
            {
                best_fresh = Some((levels.clone(), phi));
            }
        }
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == sizes.len() {
                let (glevels, phi) =
                    best.ok_or(SolveError::InfeasibleProblem { org: 0 })?;
                return Ok(match best_fresh {
                    Some((flevels, _)) => {
                        MasterSolution { levels: flevels, phi, fresh: true, evaluated }
                    }
                    None => MasterSolution { levels: glevels, phi, fresh: false, evaluated },
                });
            }
            levels[pos] += 1;
            if levels[pos] < sizes[pos] {
                break;
            }
            levels[pos] = 0;
            pos += 1;
        }
    }
}

/// Per-cut lookup tables for the table traversal.
///
/// Every cut of (20)/(22) is **separable across organizations** at a
/// fixed candidate: the optimality cut's epigraph value is a constant
/// (anchor data) plus one term per organization that depends only on
/// that organization's own ladder level, and a feasibility cut's
/// violation is a pure sum of per-organization residual terms. So the
/// whole cut stack collapses into `per_org[i][level]` tables built
/// once per master solve — candidate evaluation then costs one add
/// per (cut, org) instead of re-deriving frequencies, energy prices
/// and Lagrangian coefficients every time.
///
/// The tables reproduce [`Cut::evaluate`]'s arithmetic with each
/// organization's three sub-terms pre-summed; the grouping changes the
/// floating-point rounding by at most an ulp-level reassociation,
/// which is why the reference path is kept byte-stable and the
/// selection between paths depends only on the instance size.
///
/// Tables are **incremental**: [`CutTables::push_cut`] appends a single
/// cut's table in O(N · levels), reading the strategy-independent
/// `z_i` and `q_i` the market summed once. CGBD keeps one table set
/// alive across its whole master-iteration loop, starting from
/// [`CutTables::default`] and pushing only each iteration's new cut —
/// bit-identical to rebuilding from scratch, because every table entry
/// is a pure function of the cut and the market (pinned by
/// `tests/determinism.rs`).
#[derive(Debug, Default)]
pub struct CutTables {
    /// `(base, per_org)` for each optimality cut: value at a candidate
    /// is `base + Σ_i per_org[i][levels[i]]`.
    optimality: Vec<(f64, Vec<Vec<f64>>)>,
    /// `per_org` for each feasibility cut: violation is
    /// `Σ_i per_org[i][levels[i]]`, infeasible when `> 1e-9`.
    feasibility: Vec<Vec<Vec<f64>>>,
    /// Cuts folded in so far.
    cuts: usize,
}

impl CutTables {
    /// Appends one cut's lookup table using the market's row sums:
    /// O(N · levels), no ρ access at all.
    pub fn push_cut<A: AccuracyModel>(&mut self, game: &CoopetitionGame<A>, cut: &Cut) {
        let market = game.market();
        let params = market.params();
        let n = market.len();
        self.cuts += 1;
        match cut {
            Cut::Optimality { d: _, u, omega, p_value, p_deriv } => {
                let base = -p_value + p_deriv * omega;
                let per_org: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        let org = market.org(i);
                        let s = org.data_bits();
                        let z = market.weight(i);
                        let q = market.competition_pressure(i);
                        org.compute_levels()
                            .iter()
                            .map(|&f| {
                                let c = (params.gamma * q
                                    - params.omega_e * params.kappa * f * f * org.eta())
                                    * s
                                    / z;
                                let coeff = -p_deriv * org.effective_bits() - c
                                    + u[i] * org.eta() * s / f;
                                let linear =
                                    if coeff > 0.0 { coeff * params.d_min } else { coeff };
                                linear + u[i] * (org.comm_time() - params.tau)
                                    - (params.gamma * q * params.lambda * f
                                        - params.omega_e * org.comm_energy())
                                        / z
                            })
                            .collect()
                    })
                    .collect();
                self.optimality.push((base, per_org));
            }
            Cut::Feasibility { d, lambda } => {
                let per_org: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        let org = market.org(i);
                        org.compute_levels()
                            .iter()
                            .map(|&f| {
                                lambda[i]
                                    * (org.comm_time() + org.training_time(d[i], f)
                                        - params.tau)
                            })
                            .collect()
                    })
                    .collect();
                self.feasibility.push(per_org);
            }
        }
    }

    /// Number of cuts folded into the tables.
    pub fn cut_count(&self) -> usize {
        self.cuts
    }

    /// Builds tables for a whole cut stack from scratch — one
    /// [`CutTables::push_cut`] per cut, so scratch and incremental
    /// construction are bit-identical by definition.
    pub fn build<A: AccuracyModel>(game: &CoopetitionGame<A>, cuts: &[Cut]) -> Self {
        let mut tables = CutTables::default();
        for cut in cuts {
            tables.push_cut(game, cut);
        }
        tables
    }

    /// Master objective at `levels`, or `None` on a feasibility-cut
    /// violation — the table-based analogue of [`master_value`].
    pub fn value(&self, levels: &[usize]) -> Option<f64> {
        for per_org in &self.feasibility {
            let violation: f64 =
                per_org.iter().zip(levels).map(|(t, &l)| t[l]).sum();
            if violation > 1e-9 {
                return None;
            }
        }
        if self.optimality.is_empty() {
            // No epigraph yet — mirror `master_value`'s flat surface.
            return Some(0.0);
        }
        let mut best = f64::NEG_INFINITY;
        for (base, per_org) in &self.optimality {
            let v = base + per_org.iter().zip(levels).map(|(t, &l)| t[l]).sum::<f64>();
            best = best.max(v);
        }
        Some(best)
    }
}

/// Decodes candidate `index` into the mixed-radix odometer state the
/// reference traversal would reach after `index` increments (digit 0
/// runs fastest).
fn decode_levels(mut index: usize, sizes: &[usize], levels: &mut [usize]) {
    for (l, &m) in levels.iter_mut().zip(sizes) {
        *l = index % m;
        index /= m;
    }
}

/// The table traversal: one odometer scan over the `Π m_i` candidates
/// of prebuilt cut tables, with the reference loop's strict-improvement
/// (first-minimum-wins) rule. CGBD maintains one [`CutTables`] across
/// its whole iteration loop and appends only each new cut, so a master
/// solve pays O(N · levels) table work for the newest cut instead of
/// rebuilding every cut's table.
///
/// # Errors
///
/// See [`solve_master`].
pub fn traverse_tables<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    tables: &CutTables,
    visited: &BTreeSet<Vec<usize>>,
    cap: u128,
) -> Result<MasterSolution> {
    let sizes = ladder_sizes(game);
    let combinations = sizes
        .iter()
        .try_fold(1u128, |acc, &m| acc.checked_mul(m as u128))
        .unwrap_or(u128::MAX);
    if combinations > cap {
        return Err(SolveError::MasterTooLarge { combinations, cap });
    }
    let total = usize::try_from(combinations)
        .map_err(|_| SolveError::MasterTooLarge { combinations, cap })?;
    let mut levels = vec![0usize; sizes.len()];
    // `(index, φ)` of the best candidate and of the best unvisited one.
    let mut best: Option<(usize, f64)> = None;
    let mut best_fresh: Option<(usize, f64)> = None;
    for idx in 0..total {
        if let Some(phi) = tables.value(&levels) {
            if best.map_or(true, |(_, b)| phi < b) {
                best = Some((idx, phi));
            }
            if best_fresh.map_or(true, |(_, b)| phi < b) && !visited.contains(levels.as_slice()) {
                best_fresh = Some((idx, phi));
            }
        }
        // Odometer increment (digit 0 fastest).
        for (l, &m) in levels.iter_mut().zip(sizes.iter()) {
            *l += 1;
            if *l < m {
                break;
            }
            *l = 0;
        }
    }
    let (gidx, phi) = best.ok_or(SolveError::InfeasibleProblem { org: 0 })?;
    let (idx, fresh) = match best_fresh {
        Some((fidx, _)) => (fidx, true),
        None => (gidx, false),
    };
    decode_levels(idx, &sizes, &mut levels);
    Ok(MasterSolution { levels, phi, fresh, evaluated: total })
}

fn coordinate_descent<A: AccuracyModel>(
    game: &CoopetitionGame<A>,
    cuts: &[Cut],
    visited: &BTreeSet<Vec<usize>>,
    restarts: usize,
    max_sweeps: usize,
    seed: u64,
) -> Result<MasterSolution> {
    let sizes = ladder_sizes(game);
    let n = sizes.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evaluated = 0usize;
    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut best_fresh: Option<(Vec<usize>, f64)> = None;
    let consider = |levels: &Vec<usize>,
                        v: Option<f64>,
                        best: &mut Option<(Vec<usize>, f64)>,
                        best_fresh: &mut Option<(Vec<usize>, f64)>| {
        if let Some(v) = v {
            if best.as_ref().map_or(true, |(_, b)| v < *b) {
                *best = Some((levels.clone(), v));
            }
            if !visited.contains(levels)
                && best_fresh.as_ref().map_or(true, |(_, b)| v < *b)
            {
                *best_fresh = Some((levels.clone(), v));
            }
        }
    };
    let starts = restarts.max(1) + 1;
    for start in 0..starts {
        let mut levels: Vec<usize> = if start == 0 {
            sizes.iter().map(|&m| m - 1).collect() // fastest ladder
        } else {
            sizes.iter().map(|&m| rng.gen_range(0..m)).collect()
        };
        let mut value = master_value(game, cuts, &levels);
        evaluated += 1;
        consider(&levels, value, &mut best, &mut best_fresh);
        for _ in 0..max_sweeps {
            let mut improved = false;
            for i in 0..n {
                let original = levels[i];
                let mut best_l = original;
                for l in 0..sizes[i] {
                    if l == original {
                        continue;
                    }
                    levels[i] = l;
                    evaluated += 1;
                    let v = master_value(game, cuts, &levels);
                    consider(&levels, v, &mut best, &mut best_fresh);
                    let better = match (v, value) {
                        (Some(v), Some(cur)) => v < cur - 1e-12 * cur.abs().max(1.0),
                        (Some(_), None) => true,
                        _ => false,
                    };
                    if better {
                        best_l = l;
                        value = v;
                    }
                }
                if best_l != original {
                    improved = true;
                }
                levels[i] = best_l;
            }
            if !improved {
                break;
            }
        }
    }
    let (glevels, phi) = best.ok_or(SolveError::InfeasibleProblem { org: 0 })?;
    Ok(match best_fresh {
        Some((flevels, _)) => MasterSolution { levels: flevels, phi, fresh: true, evaluated },
        None => MasterSolution { levels: glevels, phi, fresh: false, evaluated },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primal::PrimalProblem;
    use tradefl_core::accuracy::SqrtAccuracy;
    use tradefl_core::config::MarketConfig;

    fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    #[test]
    fn residuals_match_strategy_validation() {
        let g = game(3, 1);
        let levels = vec![0, 1, 2];
        let d = vec![0.05, 0.1, 0.2];
        let res = deadline_residuals(&g, &d, &levels);
        for (i, r) in res.iter().enumerate() {
            let org = g.market().org(i);
            let direct = org.comm_time()
                + org.training_time(d[i], org.frequency(levels[i]))
                - g.market().params().tau;
            assert!((r - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn optimality_cut_is_tight_at_its_anchor() {
        let g = game(3, 2);
        let levels: Vec<usize> = vec![3, 3, 3];
        let prob = PrimalProblem::new(&g, &levels);
        let sol = prob.solve(1e-10).unwrap();
        let cut = Cut::optimality(&g, sol.d.clone(), sol.multipliers.clone());
        let v = cut.evaluate(&g, &levels);
        let lagrangian = -potential_at(&g, &sol.d, &levels)
            + sol
                .multipliers
                .iter()
                .zip(deadline_residuals(&g, &sol.d, &levels))
                .map(|(u, gr)| u * gr)
                .sum::<f64>();
        // At the anchor assignment the linearization is exact and d_v is
        // the Lagrangian minimizer (KKT), so the cut prices it (almost)
        // exactly from below.
        assert!(v <= lagrangian + 1e-6 * lagrangian.abs().max(1.0));
        assert!(
            (v - lagrangian).abs() <= 1e-3 * lagrangian.abs().max(1.0),
            "cut {v} vs lagrangian {lagrangian}"
        );
    }

    #[test]
    fn optimality_cut_underestimates_the_lagrangian_everywhere() {
        let g = game(3, 2);
        let anchor_levels: Vec<usize> = vec![3, 3, 3];
        let sol = PrimalProblem::new(&g, &anchor_levels).solve(1e-10).unwrap();
        let cut = Cut::optimality(&g, sol.d.clone(), sol.multipliers.clone());
        // For every assignment f and a sampled set of d in the box, the
        // cut must lie below L(d, f, u_v) — validity of the lower bound.
        let d_min = g.market().params().d_min;
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    let levels = [a, b, c];
                    let v = cut.evaluate(&g, &levels);
                    for t in [0.0, 0.3, 0.7, 1.0] {
                        let d: Vec<f64> = (0..3).map(|_| d_min + t * (1.0 - d_min)).collect();
                        let lag = -potential_at(&g, &d, &levels)
                            + sol
                                .multipliers
                                .iter()
                                .zip(deadline_residuals(&g, &d, &levels))
                                .map(|(u, gr)| u * gr)
                                .sum::<f64>();
                        assert!(
                            v <= lag + 1e-6 * lag.abs().max(1.0),
                            "cut {v} above lagrangian {lag} at f={levels:?}, t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn traversal_finds_the_true_master_minimum() {
        let g = game(3, 5);
        // One synthetic optimality cut anchored at a mid-level d.
        let cut = Cut::optimality(&g, vec![0.2, 0.2, 0.2], vec![0.0; 3]);
        let cuts = vec![cut];
        let tables = CutTables::build(&g, &cuts);
        let traversal = MasterSearch::Traversal { cap: 1_000_000 };
        let sol = solve_master(&g, &cuts, &tables, traversal, &BTreeSet::new()).unwrap();
        // Brute-force verification.
        let sizes: Vec<usize> =
            g.market().orgs().iter().map(|o| o.compute_level_count()).collect();
        let mut best = f64::INFINITY;
        for a in 0..sizes[0] {
            for b in 0..sizes[1] {
                for c in 0..sizes[2] {
                    if let Some(v) = master_value(&g, &cuts, &[a, b, c]) {
                        best = best.min(v);
                    }
                }
            }
        }
        assert!((sol.phi - best).abs() < 1e-9, "traversal {} vs brute {best}", sol.phi);
        assert_eq!(sol.evaluated, 64);
    }

    #[test]
    fn traversal_respects_cap() {
        let g = game(10, 1);
        let cuts = [Cut::optimality(&g, vec![0.1; 10], vec![0.0; 10])];
        let r = solve_master(
            &g,
            &cuts,
            &CutTables::build(&g, &cuts),
            MasterSearch::Traversal { cap: 1000 },
            &BTreeSet::new(),
        );
        assert!(matches!(r, Err(SolveError::MasterTooLarge { .. })));
    }

    #[test]
    fn coordinate_descent_matches_traversal_on_small_instances() {
        let g = game(4, 9);
        let cuts = vec![
            Cut::optimality(&g, vec![0.15; 4], vec![0.0; 4]),
            Cut::optimality(&g, vec![0.4; 4], vec![0.1; 4]),
        ];
        let tables = CutTables::build(&g, &cuts);
        let traversal = MasterSearch::Traversal { cap: 1_000_000 };
        let t = solve_master(&g, &cuts, &tables, traversal, &BTreeSet::new()).unwrap();
        let c = solve_master(
            &g,
            &cuts,
            &tables,
            MasterSearch::CoordinateDescent { restarts: 8, max_sweeps: 20, seed: 3 },
            &BTreeSet::new(),
        )
        .unwrap();
        assert!(
            (t.phi - c.phi).abs() <= 1e-9 + 1e-6 * t.phi.abs(),
            "traversal {} vs cd {}",
            t.phi,
            c.phi
        );
    }

    #[test]
    fn feasibility_cut_filters_slow_ladders() {
        // Tight deadline: low levels violate D_min; the feasibility cut
        // anchored at D_min must exclude them.
        let mut cfg = MarketConfig::table_ii().with_orgs(2);
        cfg.params.tau = 18.0;
        cfg.comm_time = (5.0, 5.0);
        cfg.eta = (100.0, 100.0);
        cfg.data_bits = (20e9, 20e9);
        let g = CoopetitionGame::new(cfg.build(3).unwrap(), SqrtAccuracy::paper_default());
        let d_min = g.market().params().d_min;
        let prob = PrimalProblem::new(&g, &[0, 0]);
        assert!(!prob.is_feasible());
        let fc = prob.feasibility_check();
        let cuts = vec![Cut::Feasibility { d: vec![d_min; 2], lambda: fc.lambda }];
        // The slow ladder must be rejected, a fast one accepted.
        assert!(master_value(&g, &cuts, &[0, 0]).is_none());
        assert!(master_value(&g, &cuts, &[3, 3]).is_some());
    }
}
