//! The cross-silo FL market: organizations, competition, mechanism knobs.

use crate::error::{ensure_in_range, ensure_positive, ModelError, Result};
use crate::org::Organization;
use std::cmp::Ordering;
use std::sync::Arc;

/// Global mechanism and platform parameters (§III, Table II).
///
/// * `gamma` — incentive intensity `γ`: compensation price per unit of
///   contributed-resource difference (Eq. 9).
/// * `lambda` — unit-uniformizing weight `λ` that maps Hz onto the bit
///   scale inside the redistribution rule (Eq. 9).
/// * `kappa` — effective switched capacitance `κ` of the compute chipset
///   (Eq. 8); Table II uses `10^-27`.
/// * `omega_e` — training-overhead weight `ϖ_e` in the payoff (Eq. 11).
/// * `tau` — the round deadline `τ` (seconds) of constraint `C_i^(3)`.
/// * `d_min` — minimum participating data fraction `D_min ∈ (0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismParams {
    /// Incentive intensity `γ` (Eq. 9).
    pub gamma: f64,
    /// Unit-uniformizing factor `λ` (Eq. 9).
    pub lambda: f64,
    /// Effective capacitance `κ` (Eq. 8).
    pub kappa: f64,
    /// Training-overhead weight `ϖ_e` (Eq. 11).
    pub omega_e: f64,
    /// Round deadline `τ` in seconds (constraint `C_i^(3)`).
    pub tau: f64,
    /// Minimum data fraction `D_min` (§III-A).
    pub d_min: f64,
}

impl MechanismParams {
    /// The paper's operating point: `γ* = 5.12·10⁻⁹` (Fig. 10),
    /// `κ = 10⁻²⁷` (Table II), and calibration values for the remaining
    /// knobs documented in DESIGN.md.
    pub fn paper_default() -> Self {
        Self {
            gamma: 5.12e-9,
            lambda: 3.0,
            kappa: 1e-27,
            omega_e: 1.66e-3,
            tau: 600.0,
            d_min: 0.01,
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `gamma` is negative or not finite, if
    /// `lambda`, `kappa`, `omega_e` or `tau` is non-positive, or if
    /// `d_min` lies outside `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !self.gamma.is_finite() {
            return Err(ModelError::NotFinite { name: "gamma" });
        }
        if self.gamma < 0.0 {
            return Err(ModelError::OutOfRange {
                name: "gamma",
                value: self.gamma,
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        ensure_positive("lambda", self.lambda)?;
        ensure_positive("kappa", self.kappa)?;
        ensure_positive("omega_e", self.omega_e)?;
        ensure_positive("tau", self.tau)?;
        ensure_in_range("d_min", self.d_min, f64::MIN_POSITIVE, 1.0)?;
        Ok(())
    }

    /// Returns a copy with a different incentive intensity `γ`; the
    /// figure harnesses sweep γ with this.
    pub fn with_gamma(&self, gamma: f64) -> Self {
        Self { gamma, ..self.clone() }
    }
}

impl Default for MechanismParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The competition-intensity matrix `ρ` as a symmetric CSR: row `i`
/// holds its non-zero entries `ρ_ij` in `cols[row_ptr[i]..row_ptr[i+1]]`
/// (strictly ascending) with matching `vals`.
///
/// Every mechanism sum over a row goes through [`Market::rho_row_sum`]:
/// ascending `j`, accumulator started at `+0.0`. From `+0.0` the
/// accumulator can never become `−0.0`, and adding `±0.0` to anything
/// else is a bitwise no-op, so skipping the zeros (the diagonal
/// included) yields exactly the bits a full dense row sum would.
///
/// At N=10,000 a ~1%-dense market stores ~2M entries (~32 MB) instead
/// of the 800 MB dense matrix, and every row sweep costs O(deg) rather
/// than O(N).
#[derive(Debug, Clone, PartialEq)]
pub struct RhoMatrix {
    /// Matrix dimension `|N|`.
    pub n: usize,
    /// Row start offsets, `n + 1` entries.
    pub row_ptr: Vec<usize>,
    /// Column indices, strictly ascending within each row.
    pub cols: Vec<usize>,
    /// Entry values aligned with `cols`.
    pub vals: Vec<f64>,
}

impl RhoMatrix {
    /// Builds the symmetric matrix from upper- (or mixed-)
    /// triangle triplets `(i, j, v)`. Each triplet is mirrored to both
    /// `(i, j)` and `(j, i)`; exact zeros are dropped. A counting sort
    /// places the entries row by row, so the build is O(nnz) apart from
    /// sorting each row by column. A row that arrives strictly
    /// ascending is left as it is; upper-triangle triplets sorted by
    /// `(i, j)` make every row arrive so, and the build is then O(nnz).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on an out-of-range index, a diagonal
    /// entry, or the same unordered pair listed twice. The first
    /// triplet (in input order) with a bad index or on the diagonal is
    /// reported; of several duplicates, the one whose stored
    /// `(row, column)` comes first in row-major order.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Result<Self> {
        let mut row_ptr = vec![0usize; n + 1];
        for &(i, j, v) in triplets {
            if i >= n || j >= n {
                return Err(ModelError::DimensionMismatch { expected: n, found: i.max(j) });
            }
            if i == j {
                return Err(ModelError::SelfCompetition { i });
            }
            // lint:allow(no-float-eq): dropping exact zeros is the sparsity contract
            if v != 0.0 {
                row_ptr[i + 1] += 1;
                row_ptr[j + 1] += 1;
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr[..n].to_vec();
        let mut cols = vec![0usize; row_ptr[n]];
        let mut vals = vec![0.0f64; row_ptr[n]];
        for &(i, j, v) in triplets {
            // lint:allow(no-float-eq): the same exact-zero drop as the counting pass
            if v != 0.0 {
                for (r, c) in [(i, j), (j, i)] {
                    cols[next[r]] = c;
                    vals[next[r]] = v;
                    next[r] += 1;
                }
            }
        }
        let mut row = Vec::new();
        for i in 0..n {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            // A strictly ascending row is already sorted and holds no
            // duplicate.
            if cols[lo..hi].windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            row.clear();
            row.extend(cols[lo..hi].iter().copied().zip(vals[lo..hi].iter().copied()));
            row.sort_unstable_by_key(|e| e.0);
            // A pair listed twice fills both of its rows with a
            // duplicate, and the lower row is checked first, so i < j.
            if let Some(w) = row.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(ModelError::DuplicateCompetitionEntry { i, j: w[0].0 });
            }
            for (k, &(c, v)) in (lo..hi).zip(&row) {
                cols[k] = c;
                vals[k] = v;
            }
        }
        Ok(Self { n, row_ptr, cols, vals })
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Resident heap bytes of the matrix storage.
    pub fn resident_bytes(&self) -> usize {
        (self.row_ptr.capacity() + self.cols.capacity()) * std::mem::size_of::<usize>()
            + self.vals.capacity() * 8
    }

    /// Entry `ρ_ij`, zero for an unstored pair: a binary search of row
    /// `i`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "rho index out of range");
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        match self.cols[lo..hi].binary_search(&j) {
            Ok(k) => self.vals[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates row `i`'s stored entries as `(j, ρ_ij)` in ascending `j`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.cols[lo..hi].iter().copied().zip(self.vals[lo..hi].iter().copied())
    }

    /// Validates `ρ` for `n` organizations in two passes, both O(N +
    /// nnz).
    ///
    /// The structural pass checks the shape: `n + 1` row offsets that
    /// start at 0, never decrease and end at the entry count, and each
    /// row's columns are in range and strictly ascending. Only then
    /// does the value pass read entries: each must lie in `[0, 1]`, the
    /// diagonal must be zero, and each entry must match its transpose
    /// within 1e-12. Errors follow the order of the passes: a
    /// structural defect is reported before any value defect, even one
    /// in an earlier row.
    ///
    /// The value pass first decides with [`Self::values_hold`], which
    /// looks up one transpose per unordered pair. Only if that fails
    /// does it rerun the checks entry by entry in row-major order, to
    /// name the first defect.
    fn validate(&self, n: usize) -> Result<()> {
        let Self { n: dim, row_ptr, cols, vals } = self;
        if *dim != n || row_ptr.len() != n + 1 || cols.len() != vals.len() {
            return Err(ModelError::DimensionMismatch { expected: n, found: *dim });
        }
        if row_ptr[0] != 0 {
            return Err(ModelError::DimensionMismatch { expected: n, found: row_ptr[0] });
        }
        for i in 0..n {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            if lo > hi || hi > cols.len() {
                return Err(ModelError::DimensionMismatch { expected: n, found: hi });
            }
            let mut prev: Option<usize> = None;
            for &j in &cols[lo..hi] {
                if j >= n {
                    return Err(ModelError::DimensionMismatch { expected: n, found: j });
                }
                if prev.is_some_and(|p| p >= j) {
                    return Err(ModelError::DuplicateCompetitionEntry { i, j });
                }
                prev = Some(j);
            }
        }
        if row_ptr[n] != cols.len() {
            return Err(ModelError::DimensionMismatch { expected: n, found: row_ptr[n] });
        }
        if self.values_hold() {
            return Ok(());
        }
        // Rows are visited in ascending i and each holds column j at
        // most once, so row j is asked for ascending columns: one
        // forward cursor per row finds every transpose in O(nnz) total
        // instead of a binary search per entry.
        let mut cursor = row_ptr[..n].to_vec();
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                let j = cols[k];
                let end = row_ptr[j + 1];
                let c = &mut cursor[j];
                while *c < end && cols[*c] < i {
                    *c += 1;
                }
                let transpose = if *c < end && cols[*c] == i { vals[*c] } else { 0.0 };
                check_entry(i, j, vals[k], transpose)?;
            }
        }
        Ok(())
    }

    /// Whether every entry of a structurally valid matrix lies in
    /// `[0, 1]`, the diagonal is zero, and every entry matches its
    /// transpose within 1e-12. A `true` is exact; a `false` may be
    /// wrong only when an unpaired entry is within 1e-12 of zero, which
    /// the entry-by-entry pass in [`Self::validate`] then accepts.
    ///
    /// Only an upper entry (`j > i`) looks up its transpose, with the
    /// same forward cursor per row as the entry-by-entry pass. Distinct
    /// upper entries have distinct transposes, so once every upper
    /// entry is matched, equal upper and lower counts leave no lower
    /// entry unmatched.
    fn values_hold(&self) -> bool {
        let Self { n, row_ptr, cols, vals } = self;
        let mut cursor = row_ptr[..*n].to_vec();
        let (mut upper, mut lower) = (0usize, 0usize);
        for i in 0..*n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                let (j, v) = (cols[k], vals[k]);
                if !(0.0..=1.0).contains(&v) {
                    return false;
                }
                match j.cmp(&i) {
                    Ordering::Less => lower += 1,
                    // lint:allow(no-float-eq): rho_ii must be exactly zero by construction
                    Ordering::Equal if v != 0.0 => return false,
                    Ordering::Equal => {}
                    Ordering::Greater => {
                        upper += 1;
                        let end = row_ptr[j + 1];
                        let c = &mut cursor[j];
                        while *c < end && cols[*c] < i {
                            *c += 1;
                        }
                        if !(*c < end && cols[*c] == i && (v - vals[*c]).abs() <= 1e-12) {
                            return false;
                        }
                    }
                }
            }
        }
        upper == lower
    }
}

/// The value checks on one stored entry `ρ_ij = v` whose transpose
/// `ρ_ji` is `transpose`: range `[0, 1]`, zero diagonal, symmetry.
fn check_entry(i: usize, j: usize, v: f64, transpose: f64) -> Result<()> {
    ensure_in_range("rho_ij", v, 0.0, 1.0)?;
    // lint:allow(no-float-eq): rho_ii must be exactly zero by construction
    if i == j && v != 0.0 {
        return Err(ModelError::SelfCompetition { i });
    }
    if (v - transpose).abs() > 1e-12 {
        return Err(ModelError::AsymmetricCompetition { i, j });
    }
    Ok(())
}

/// The set of organizations `𝒪`, the competition-intensity matrix `ρ`,
/// and the mechanism parameters — everything §III needs that is not the
/// data-accuracy function.
///
/// Invariants enforced at construction:
/// * `ρ` is square of dimension `|N|`, entries in `[0, 1]`, zero
///   diagonal, and **symmetric** (budget balance, Def. 5, requires it);
/// * every potential weight `z_i = p_i − Σ_j ρ_ij p_j` is strictly
///   positive (Theorem 1);
/// * every organization can meet the deadline at `D_min` on its fastest
///   compute level (otherwise it cannot participate at all).
///
/// The organizations and `ρ` never change after construction, so they
/// are shared behind [`Arc`]s: a clone or a [`Market::with_params`]
/// rebuild copies two pointers, and `ρ` is validated once, when it is
/// first built.
#[derive(Debug, Clone, PartialEq)]
pub struct Market {
    orgs: Arc<Vec<Organization>>,
    rho: Arc<RhoMatrix>,
    params: MechanismParams,
}

impl Market {
    /// Builds and validates a market from dense `ρ` rows, storing every
    /// entry that is not an exact zero; O(N²) once, at construction.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on any violated invariant (a row count or
    /// row length other than `|N|` is a `DimensionMismatch`); see the
    /// type docs for the list.
    pub fn new(
        orgs: Vec<Organization>,
        rho: Vec<Vec<f64>>,
        params: MechanismParams,
    ) -> Result<Self> {
        let n = orgs.len();
        if rho.len() != n {
            return Err(ModelError::DimensionMismatch { expected: n, found: rho.len() });
        }
        if let Some(row) = rho.iter().find(|row| row.len() != n) {
            return Err(ModelError::DimensionMismatch { expected: n, found: row.len() });
        }
        let mut row_ptr = vec![0usize];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for row in &rho {
            for (j, &v) in row.iter().enumerate() {
                // lint:allow(no-float-eq): dropping exact zeros is the sparsity contract
                if v != 0.0 {
                    cols.push(j);
                    vals.push(v);
                }
            }
            row_ptr.push(cols.len());
        }
        Self::with_rho(orgs, RhoMatrix { n, row_ptr, cols, vals }, params)
    }

    /// Builds and validates a market from a CSR `ρ` in O(N + nnz).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on any violated invariant; see the type
    /// docs for the list.
    pub fn with_rho(
        orgs: Vec<Organization>,
        rho: RhoMatrix,
        params: MechanismParams,
    ) -> Result<Self> {
        let n = orgs.len();
        if n == 0 {
            return Err(ModelError::NonPositive { name: "|N|", value: 0.0 });
        }
        rho.validate(n)?;
        Self { orgs: Arc::new(orgs), rho: Arc::new(rho), params }.checked()
    }

    /// Runs every invariant that depends on the parameters or on the
    /// organizations against a validated `ρ`: the parameter ranges,
    /// `z_i > 0`, and deadline feasibility at `D_min`. O(N + nnz).
    fn checked(self) -> Result<Self> {
        self.params.validate()?;
        for (i, org) in self.orgs.iter().enumerate() {
            let z = self.weight(i);
            if z <= 0.0 {
                return Err(ModelError::NonPositiveWeight { i, z });
            }
            // Participation must be possible at all: D_min at the fastest
            // frequency within the deadline.
            let t = org.comm_time() + org.training_time(self.params.d_min, org.max_frequency());
            if t > self.params.tau {
                return Err(ModelError::Infeasible { org: i });
            }
        }
        Ok(self)
    }

    /// Number of organizations `|N|`.
    pub fn len(&self) -> usize {
        self.orgs.len()
    }

    /// Whether the market is empty (never true for a constructed market).
    pub fn is_empty(&self) -> bool {
        self.orgs.is_empty()
    }

    /// The organizations in index order.
    pub fn orgs(&self) -> &[Organization] {
        &self.orgs
    }

    /// Organization at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= |N|`.
    pub fn org(&self, i: usize) -> &Organization {
        &self.orgs[i]
    }

    /// Competition intensity `ρ_{i,j} ∈ [0, 1]` (Def. 1 discussion).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    // lint:allow(unreferenced-pub-fn): paper API: the ρ_{i,j} the paper-API `redistribution_pair` (Eq. 9) reads; the market tests pin its symmetry
    pub fn rho(&self, i: usize, j: usize) -> f64 {
        self.rho.get(i, j)
    }

    /// The full competition matrix.
    // lint:allow(unreferenced-pub-fn): test oracle: the CSR the determinism suite fingerprints
    pub fn rho_matrix(&self) -> &RhoMatrix {
        &self.rho
    }

    /// Iterates row `i`'s stored `ρ` entries as `(j, ρ_ij)` pairs in
    /// ascending `j`: O(deg), not O(N).
    pub fn rho_row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rho.row_iter(i)
    }

    /// `Σ_j term(j, ρ_ij)` over row `i`'s stored entries, in ascending
    /// `j` from a `+0.0` accumulator (`f64: Sum` would start at `−0.0`
    /// and return it for an empty row). Every mechanism sum over a ρ
    /// row uses this, so all of them share one accumulation order.
    pub fn rho_row_sum(&self, i: usize, mut term: impl FnMut(usize, f64) -> f64) -> f64 {
        self.rho.row_iter(i).fold(0.0, |acc, (j, v)| acc + term(j, v))
    }

    /// Stored (non-zero) `ρ` entry count.
    pub fn rho_nnz(&self) -> usize {
        self.rho.nnz()
    }

    /// Resident heap bytes of the `ρ` storage.
    pub fn rho_resident_bytes(&self) -> usize {
        self.rho.resident_bytes()
    }

    /// Mechanism parameters.
    pub fn params(&self) -> &MechanismParams {
        &self.params
    }

    /// Replaces the mechanism parameters (used by γ/ϖ_e sweeps). The
    /// organizations and `ρ` are shared with `self`, not copied, and
    /// `ρ` is not re-validated (no parameter can change it); every
    /// parameter-dependent invariant is re-checked.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the new parameters are invalid or make
    /// some organization unable to participate within the deadline.
    pub fn with_params(&self, params: MechanismParams) -> Result<Self> {
        Self { orgs: Arc::clone(&self.orgs), rho: Arc::clone(&self.rho), params }.checked()
    }

    /// Total competition pressure on `i`: `q_i = Σ_j ρ_{i,j}`.
    pub fn competition_pressure(&self, i: usize) -> f64 {
        self.rho_row_sum(i, |_, rho| rho)
    }

    /// The weighted-potential-game weight
    /// `z_i = p_i − Σ_j ρ_{i,j} p_j` (Theorem 1); strictly positive by
    /// construction.
    pub fn weight(&self, i: usize) -> f64 {
        let pressure = self.rho_row_sum(i, |j, rho| rho * self.orgs[j].profitability());
        self.orgs[i].profitability() - pressure
    }

    /// Largest data fraction organization `i` can train within the
    /// deadline at ladder level `level`, before intersecting the
    /// `[D_min, 1]` box:
    /// `d ≤ (τ − T_i^(1) − T_i^(3)) · f / (η_i s_i)`.
    pub fn deadline_cap(&self, i: usize, level: usize) -> f64 {
        let org = &self.orgs[i];
        let budget = self.params.tau - org.comm_time();
        if budget <= 0.0 {
            return 0.0;
        }
        budget * org.frequency(level) / (org.eta() * org.data_bits())
    }

    /// The feasible interval `[D_min, min(1, deadline_cap)]` for `d_i` at
    /// the given ladder level, or `None` when even `D_min` violates the
    /// deadline there.
    pub fn feasible_range(&self, i: usize, level: usize) -> Option<(f64, f64)> {
        let hi = self.deadline_cap(i, level).min(1.0);
        if hi + 1e-15 < self.params.d_min {
            None
        } else {
            Some((self.params.d_min, hi.max(self.params.d_min)))
        }
    }

    /// Accuracy-effective total data volume `Ω = Σ_i θ_i d_i s_i`
    /// (bits) for the given data fractions. With the default quality
    /// `θ_i = 1` this is the paper's `Σ d_i s_i`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != |N|`.
    pub fn total_data(&self, d: &[f64]) -> f64 {
        assert_eq!(d.len(), self.orgs.len(), "fraction vector length mismatch");
        d.iter().zip(self.orgs.iter()).map(|(&di, o)| di * o.effective_bits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradefl_runtime::check::Gen;
    use tradefl_runtime::{prop_assert_eq, props};

    fn org(p: f64) -> Organization {
        Organization::builder("o")
            .profitability(p)
            .compute_levels(vec![1e9, 2e9, 3e9])
            .build()
            .unwrap()
    }

    fn symmetric_rho(n: usize, v: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { v }).collect())
            .collect()
    }

    #[test]
    fn valid_market_constructs() {
        let m = Market::new(
            vec![org(1000.0), org(2000.0)],
            symmetric_rho(2, 0.1),
            MechanismParams::paper_default(),
        )
        .unwrap();
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        // z_0 = 1000 - 0.1*2000 = 800
        assert!((m.weight(0) - 800.0).abs() < 1e-9);
        assert!((m.competition_pressure(0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rejects_asymmetric_rho() {
        let mut rho = symmetric_rho(2, 0.1);
        rho[0][1] = 0.2;
        let r = Market::new(vec![org(1000.0), org(1000.0)], rho, MechanismParams::default());
        assert!(matches!(r, Err(ModelError::AsymmetricCompetition { .. })));
    }

    #[test]
    fn rejects_self_competition() {
        let mut rho = symmetric_rho(2, 0.1);
        rho[1][1] = 0.3;
        let r = Market::new(vec![org(1000.0), org(1000.0)], rho, MechanismParams::default());
        assert!(matches!(r, Err(ModelError::SelfCompetition { i: 1 })));
    }

    #[test]
    fn rejects_nan_negative_and_above_one_entries() {
        let out_of_range =
            |value| ModelError::OutOfRange { name: "rho_ij", value, min: 0.0, max: 1.0 };
        for (v, want) in [
            (f64::NAN, ModelError::NotFinite { name: "rho_ij" }),
            (-0.1, out_of_range(-0.1)),
            (1.5, out_of_range(1.5)),
        ] {
            let mut rho = symmetric_rho(3, 0.1);
            rho[0][2] = v;
            rho[2][0] = v;
            let r = Market::new(vec![org(1000.0); 3], rho, MechanismParams::default());
            assert_eq!(r, Err(want), "rho_02 = {v}");
        }
    }

    #[test]
    fn rejects_nonpositive_weight() {
        // rho = 0.9 between two equally profitable orgs: z = p - 0.9 p > 0,
        // but with three orgs z = p(1 - 1.8) < 0.
        let r = Market::new(
            vec![org(1000.0), org(1000.0), org(1000.0)],
            symmetric_rho(3, 0.9),
            MechanismParams::default(),
        );
        assert!(matches!(r, Err(ModelError::NonPositiveWeight { .. })));
    }

    #[test]
    fn rejects_wrong_rho_shape() {
        let r = Market::new(
            vec![org(1000.0), org(1000.0)],
            vec![vec![0.0, 0.1]],
            MechanismParams::default(),
        );
        assert!(matches!(r, Err(ModelError::DimensionMismatch { .. })));
    }

    #[test]
    fn deadline_cap_matches_closed_form() {
        let m = Market::new(
            vec![org(1000.0)],
            symmetric_rho(1, 0.0),
            MechanismParams::paper_default(),
        )
        .unwrap();
        let o = m.org(0);
        let cap = m.deadline_cap(0, 0);
        let expect = (m.params().tau - o.comm_time()) * o.frequency(0) / (o.eta() * o.data_bits());
        assert!((cap - expect).abs() < 1e-12);
        // With τ=600, comm=10, f=1e9, η=100, s=20e9: cap = 590e9/2e12 = 0.295.
        assert!((cap - 0.295).abs() < 1e-9);
    }

    #[test]
    fn feasible_range_clamps_and_rejects() {
        let mut p = MechanismParams::paper_default();
        p.tau = 20.0; // 10 s of compute budget
        let m = Market::new(vec![org(1000.0)], symmetric_rho(1, 0.0), p).unwrap();
        // cap at level 0 (1 GHz) = 10*1e9/2e12 = 0.005 < D_min = 0.01,
        // but level 2 (3 GHz) caps at 0.015 >= D_min.
        assert!(m.feasible_range(0, 0).is_none());
        let (lo, hi) = m.feasible_range(0, 2).unwrap();
        assert_eq!(lo, 0.01);
        assert!((hi - 0.015).abs() < 1e-12);
    }

    #[test]
    fn market_rejects_fully_infeasible_org() {
        let mut p = MechanismParams::paper_default();
        p.tau = 10.5; // 0.5 s budget; cap at 3 GHz = 0.00075 < D_min
        let r = Market::new(vec![org(1000.0)], symmetric_rho(1, 0.0), p);
        assert!(matches!(r, Err(ModelError::Infeasible { org: 0 })));
    }

    #[test]
    fn total_data_sums_fractions() {
        let m = Market::new(
            vec![org(1000.0), org(1000.0)],
            symmetric_rho(2, 0.05),
            MechanismParams::paper_default(),
        )
        .unwrap();
        let omega = m.total_data(&[0.5, 0.25]);
        assert!((omega - (0.5 * 20e9 + 0.25 * 20e9)).abs() < 1.0);
    }

    fn dense_rows() -> Vec<Vec<f64>> {
        vec![
            vec![0.00, 0.01, 0.00],
            vec![0.01, 0.00, 0.03],
            vec![0.00, 0.03, 0.00],
        ]
    }

    #[test]
    fn sparse_from_triplets_mirrors_and_sorts() {
        let m = RhoMatrix::from_triplets(3, &[(1, 2, 0.03), (0, 1, 0.01), (0, 2, 0.0)]).unwrap();
        assert_eq!(m.n, 3);
        assert_eq!(m.nnz(), 4); // two pairs, mirrored; the zero dropped
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j).to_bits(), dense_rows()[i][j].to_bits());
            }
        }
        let row: Vec<(usize, f64)> = m.row_iter(1).collect();
        assert_eq!(row, vec![(0, 0.01), (2, 0.03)]);
    }

    #[test]
    fn sparse_triplet_errors() {
        assert!(matches!(
            RhoMatrix::from_triplets(3, &[(0, 3, 0.1)]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            RhoMatrix::from_triplets(3, &[(1, 1, 0.1)]),
            Err(ModelError::SelfCompetition { i: 1 })
        ));
        assert!(matches!(
            RhoMatrix::from_triplets(3, &[(0, 1, 0.1), (1, 0, 0.1)]),
            Err(ModelError::DuplicateCompetitionEntry { i: 0, j: 1 })
        ));
    }

    #[test]
    fn new_stores_exactly_the_non_zero_entries() {
        let orgs = vec![org(1000.0), org(1500.0), org(2000.0)];
        let m = Market::new(orgs, dense_rows(), MechanismParams::paper_default()).unwrap();
        let triplets = RhoMatrix::from_triplets(3, &[(0, 1, 0.01), (1, 2, 0.03)]).unwrap();
        assert_eq!(m.rho_matrix(), &triplets);
        assert_eq!(m.rho_nnz(), 4);
    }

    #[test]
    fn an_empty_row_sums_to_positive_zero() {
        let m = Market::new(vec![org(1000.0); 2], symmetric_rho(2, 0.0), MechanismParams::default())
            .unwrap();
        assert_eq!(m.rho_nnz(), 0);
        assert_eq!(m.competition_pressure(0).to_bits(), 0.0f64.to_bits());
        assert_eq!(m.weight(1).to_bits(), 1000.0f64.to_bits());
    }

    #[test]
    fn sparse_validation_rejects_asymmetry_and_diagonal() {
        let orgs = vec![org(1000.0), org(1000.0)];
        let asym = RhoMatrix {
            n: 2,
            row_ptr: vec![0, 1, 1],
            cols: vec![1],
            vals: vec![0.1],
        };
        assert!(matches!(
            Market::with_rho(orgs.clone(), asym, MechanismParams::default()),
            Err(ModelError::AsymmetricCompetition { .. })
        ));
        let diag = RhoMatrix {
            n: 2,
            row_ptr: vec![0, 1, 1],
            cols: vec![0],
            vals: vec![0.1],
        };
        assert!(matches!(
            Market::with_rho(orgs, diag, MechanismParams::default()),
            Err(ModelError::SelfCompetition { i: 0 })
        ));
    }

    /// `with_rho` on three orgs rejects `rho` with a dimension error
    /// naming `found`, where it used to panic or accept it.
    fn assert_shape_error(rho: RhoMatrix, found: usize) {
        let orgs = vec![org(1000.0), org(1000.0), org(1000.0)];
        assert_eq!(
            Market::with_rho(orgs, rho, MechanismParams::default()),
            Err(ModelError::DimensionMismatch { expected: 3, found })
        );
    }

    /// A 3×3 sparse matrix with every stored value 0.1.
    fn sparse3(row_ptr: Vec<usize>, cols: Vec<usize>) -> RhoMatrix {
        RhoMatrix { n: 3, vals: vec![0.1; cols.len()], row_ptr, cols }
    }

    #[test]
    fn sparse_row_offsets_that_run_backwards_are_rejected() {
        assert_shape_error(sparse3(vec![0, 2, 1, 2], vec![1, 2]), 1);
    }

    #[test]
    fn sparse_row_past_the_stored_entries_is_rejected() {
        assert_shape_error(sparse3(vec![0, 1, 5, 5], vec![1]), 5);
    }

    #[test]
    fn sparse_row_offsets_not_starting_at_zero_are_rejected() {
        assert_shape_error(sparse3(vec![1, 1, 1, 1], vec![1]), 1);
    }

    #[test]
    fn sparse_entries_outside_every_row_are_rejected() {
        assert_shape_error(sparse3(vec![0, 0, 0, 0], vec![1]), 0);
    }

    #[test]
    fn short_later_dense_row_is_rejected() {
        let rows = vec![vec![0.0, 0.1, 0.1], vec![0.1, 0.0, 0.1], vec![0.1]];
        assert_eq!(
            Market::new(vec![org(1000.0); 3], rows, MechanismParams::default()),
            Err(ModelError::DimensionMismatch { expected: 3, found: 1 })
        );
    }

    /// The sort-based triplet build that the counting sort in
    /// [`RhoMatrix::from_triplets`] replaced; the reference it must
    /// match, error for error.
    fn from_triplets_reference(n: usize, triplets: &[(usize, usize, f64)]) -> Result<RhoMatrix> {
        let mut entries = Vec::with_capacity(triplets.len() * 2);
        for &(i, j, v) in triplets {
            if i >= n || j >= n {
                return Err(ModelError::DimensionMismatch { expected: n, found: i.max(j) });
            }
            if i == j {
                return Err(ModelError::SelfCompetition { i });
            }
            if v == 0.0 {
                continue;
            }
            entries.push((i, j, v));
            entries.push((j, i, v));
        }
        entries.sort_by_key(|e| (e.0, e.1));
        for w in entries.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                let (i, j) = (w[0].0.min(w[0].1), w[0].0.max(w[0].1));
                return Err(ModelError::DuplicateCompetitionEntry { i, j });
            }
        }
        let mut row_ptr = vec![0usize; n + 1];
        for &(i, _, _) in &entries {
            row_ptr[i + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let cols = entries.iter().map(|e| e.1).collect();
        let vals = entries.iter().map(|e| e.2).collect();
        Ok(RhoMatrix { n, row_ptr, cols, vals })
    }

    /// The single-pass sparse validation, with a binary-searched
    /// transpose per entry, that the cursor pass in `validate`
    /// replaced; the reference it must match. Panics on row offsets
    /// that are not monotone and within the stored entries.
    fn validate_reference(rho: &RhoMatrix, n: usize) -> Result<()> {
        let RhoMatrix { n: dim, row_ptr, cols, vals } = rho;
        if *dim != n || row_ptr.len() != n + 1 || cols.len() != vals.len() {
            return Err(ModelError::DimensionMismatch { expected: n, found: *dim });
        }
        for i in 0..n {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            if lo > hi || hi > cols.len() {
                return Err(ModelError::DimensionMismatch { expected: n, found: hi });
            }
            let mut prev: Option<usize> = None;
            for k in lo..hi {
                let (j, v) = (cols[k], vals[k]);
                if j >= n {
                    return Err(ModelError::DimensionMismatch { expected: n, found: j });
                }
                if prev.is_some_and(|p| p >= j) {
                    return Err(ModelError::DuplicateCompetitionEntry { i, j });
                }
                prev = Some(j);
                ensure_in_range("rho_ij", v, 0.0, 1.0)?;
                if i == j && v != 0.0 {
                    return Err(ModelError::SelfCompetition { i });
                }
                if (v - rho.get(j, i)).abs() > 1e-12 {
                    return Err(ModelError::AsymmetricCompetition { i, j });
                }
            }
        }
        Ok(())
    }

    /// A valid triplet set over `n ∈ [1, 12)` organizations: each
    /// unordered pair kept with probability 0.4, listed from either
    /// triangle, in shuffled order.
    fn valid_triplets(g: &mut Gen) -> (usize, Vec<(usize, usize, f64)>) {
        let n = g.usize(1..12);
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if g.bool(0.4) {
                    let v = g.f64(0.0..0.5);
                    triplets.push(if g.bool(0.5) { (i, j, v) } else { (j, i, v) });
                }
            }
        }
        for k in (1..triplets.len()).rev() {
            triplets.swap(k, g.usize(0..=k));
        }
        (n, triplets)
    }

    props! {
        #![cases = 256]

        fn counting_sort_triplets_match_the_sorted_reference(g) {
            let (n, mut triplets) = valid_triplets(g);
            for t in &mut triplets {
                if g.bool(0.1) {
                    t.2 = if g.bool(0.5) { 0.0 } else { -0.0 };
                }
            }
            let at = g.usize(0..=triplets.len());
            let v = g.f64(0.0..0.5);
            match g.usize(0..5) {
                0 => {}
                1 if !triplets.is_empty() => {
                    // A repeated pair, listed as given or mirrored.
                    let (i, j, w) = triplets[g.usize(0..triplets.len())];
                    let dup = if g.bool(0.5) { (i, j, w) } else { (j, i, w) };
                    triplets.insert(at, dup);
                }
                2 => {
                    let (i, j) = (g.usize(0..n + 3), n + g.usize(0..2));
                    triplets.insert(at, if g.bool(0.5) { (i, j, v) } else { (j, i, v) });
                }
                3 => {
                    let d = g.usize(0..n);
                    triplets.insert(at, (d, d, v));
                }
                _ => {
                    // Several defects at once: the first reported wins.
                    let d = g.usize(0..n);
                    triplets.insert(at, (d, d, v));
                    triplets.insert(g.usize(0..=triplets.len()), (0, n, v));
                    if let Some(&t) = triplets.first() {
                        triplets.push(t);
                    }
                }
            }
            prop_assert_eq!(
                RhoMatrix::from_triplets(n, &triplets),
                from_triplets_reference(n, &triplets)
            );
        }

        fn sorted_upper_triplets_build_what_shuffled_mirrored_ones_do(g) {
            // Sorted upper-triangle input, as `build_sparse` emits it,
            // makes every scattered row arrive strictly ascending, so
            // `from_triplets` skips its row sort unless a pair repeats.
            let (n, mut shuffled) = valid_triplets(g);
            for t in &mut shuffled {
                if g.bool(0.1) {
                    t.2 = if g.bool(0.5) { 0.0 } else { -0.0 };
                }
            }
            if !shuffled.is_empty() && g.bool(0.3) {
                let (i, j, w) = shuffled[g.usize(0..shuffled.len())];
                let v = if g.bool(0.5) { w } else { 0.0 };
                let dup = if g.bool(0.5) { (i, j, v) } else { (j, i, v) };
                shuffled.insert(g.usize(0..=shuffled.len()), dup);
            }
            let mut sorted: Vec<_> =
                shuffled.iter().map(|&(i, j, v)| (i.min(j), i.max(j), v)).collect();
            sorted.sort_by_key(|t| (t.0, t.1));
            let built = RhoMatrix::from_triplets(n, &sorted);
            prop_assert_eq!(&built, &RhoMatrix::from_triplets(n, &shuffled));
            prop_assert_eq!(built, from_triplets_reference(n, &shuffled));
        }

        fn cursor_validation_matches_the_binary_search_reference(g) {
            let (n, triplets) = valid_triplets(g);
            let valid = RhoMatrix::from_triplets(n, &triplets).unwrap();
            let mut rows: Vec<Vec<(usize, f64)>> =
                (0..n).map(|i| valid.row_iter(i).collect()).collect();
            let r = g.usize(0..n);
            let row = &mut rows[r];
            let k = (!row.is_empty()).then(|| g.usize(0..row.len()));
            let structural = match (g.usize(0..7), k) {
                (0, _) => false,
                (1, Some(k)) => {
                    row[k].1 = g.f64(-0.5..1.5);
                    false
                }
                // Straddles the 1e-12 symmetry tolerance.
                (2, Some(k)) => {
                    row[k].1 += g.f64(0.0..2e-12);
                    false
                }
                (3, Some(k)) => {
                    row.remove(k);
                    false
                }
                (4, Some(k)) => {
                    row.insert(k + 1, row[k]);
                    true
                }
                (5, _) => {
                    let v = if g.bool(0.5) { 0.0 } else { g.f64(0.0..0.5) };
                    row.insert(row.partition_point(|e| e.0 < r), (r, v));
                    false
                }
                _ => {
                    row.push((n + g.usize(0..3), g.f64(0.0..0.5)));
                    true
                }
            };
            // Sometimes a second value defect in the same or a later row,
            // such as an entry removed before an out-of-range value: the
            // first defect in row-major order must still be the one
            // named. (A structural defect is named before any value
            // defect, so it takes no second one.)
            if !structural && g.bool(0.5) {
                let row = &mut rows[g.usize(r..n)];
                if !row.is_empty() {
                    let k = g.usize(0..row.len());
                    match g.usize(0..3) {
                        0 => {
                            row.remove(k);
                        }
                        1 => row[k].1 = 1.0 + g.f64(1e-9..0.5),
                        _ => row[k].1 = -g.f64(1e-9..0.5),
                    }
                }
            }
            let row_ptr = std::iter::once(0)
                .chain(rows.iter().scan(0, |end, row| {
                    *end += row.len();
                    Some(*end)
                }))
                .collect();
            let (cols, vals) = rows.concat().into_iter().unzip();
            let rho = RhoMatrix { n, row_ptr, cols, vals };
            prop_assert_eq!(rho.validate(n), validate_reference(&rho, n));
        }
    }

    /// A Table II market from `build` and one from `build_sparse`.
    fn table_ii_markets() -> [Market; 2] {
        let config = crate::config::MarketConfig::table_ii().with_orgs(12);
        [config.build(5).unwrap(), config.build_sparse(5, 0.3).unwrap()]
    }

    #[test]
    fn with_params_equals_a_fresh_build_and_shares_storage() {
        for m in table_ii_markets() {
            let params = m.params().with_gamma(2.0 * m.params().gamma);
            let rebuilt = m.with_params(params.clone()).unwrap();
            let fresh =
                Market::with_rho(m.orgs().to_vec(), m.rho_matrix().clone(), params).unwrap();
            assert_eq!(rebuilt, fresh);
            assert!(std::ptr::eq(m.rho_matrix(), rebuilt.rho_matrix()));
            assert!(std::ptr::eq(m.orgs(), rebuilt.orgs()));
        }
    }

    #[test]
    fn with_params_rejects_what_a_fresh_build_rejects() {
        for m in table_ii_markets() {
            let mut short_tau = m.params().clone();
            short_tau.tau = 1.0;
            let errors: Vec<ModelError> =
                [m.params().with_gamma(-1e-9), m.params().with_gamma(f64::NAN), short_tau]
                    .into_iter()
                    .map(|params| {
                        let rebuilt = m.with_params(params.clone()).unwrap_err();
                        let fresh =
                            Market::with_rho(m.orgs().to_vec(), m.rho_matrix().clone(), params)
                                .unwrap_err();
                        assert_eq!(rebuilt, fresh);
                        rebuilt
                    })
                    .collect();
            assert!(matches!(
                errors[..],
                [
                    ModelError::OutOfRange { name: "gamma", .. },
                    ModelError::NotFinite { name: "gamma" },
                    ModelError::Infeasible { org: 0 },
                ]
            ));
        }
    }

    #[test]
    fn gamma_zero_is_allowed_negative_rejected() {
        let mut p = MechanismParams::paper_default();
        p.gamma = 0.0;
        assert!(p.validate().is_ok());
        p.gamma = -1e-9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn with_gamma_copies() {
        let p = MechanismParams::paper_default();
        assert_eq!(p.with_gamma(1e-8).gamma, 1e-8);
        assert_eq!(p.with_gamma(1e-8).lambda, p.lambda);
    }
}
