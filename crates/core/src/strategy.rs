//! Resource-contribution strategies `π_i = {d_i, f_i}` (§IV-A).

use crate::error::{ModelError, Result};
use crate::market::Market;

/// One organization's strategy: the contributed data fraction
/// `d_i ∈ [D_min, 1]` and the chosen compute-ladder index
/// (so `f_i = F_i^(level+1)` in the paper's 1-based notation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strategy {
    /// Contributed data fraction `d_i`.
    pub d: f64,
    /// Zero-based index into the organization's compute ladder.
    pub level: usize,
}

impl Strategy {
    /// Creates a strategy; range checks happen against a concrete market
    /// in [`StrategyProfile::validate`].
    pub fn new(d: f64, level: usize) -> Self {
        Self { d, level }
    }
}

/// A full strategy profile `π = {π_i}_{i∈N}`.
///
/// # Examples
///
/// ```
/// use tradefl_core::strategy::{Strategy, StrategyProfile};
///
/// let profile = StrategyProfile::from_parts(&[0.5, 0.25], &[0, 1]);
/// assert_eq!(profile.len(), 2);
/// assert_eq!(profile[1].level, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyProfile(Vec<Strategy>);

impl StrategyProfile {
    /// Creates a profile from parallel slices of fractions and levels.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    // lint:allow(unreferenced-pub-fn): builds the literal profiles the core and solver unit tests and the doc example check
    pub fn from_parts(d: &[f64], levels: &[usize]) -> Self {
        assert_eq!(d.len(), levels.len(), "parallel slices must have equal length");
        Self(d.iter().zip(levels).map(|(&d, &l)| Strategy::new(d, l)).collect())
    }

    /// The profile every solver starts from: `d_i = D_min` and the
    /// *fastest* compute level (Algorithm 2's initialization).
    pub fn minimal(market: &Market) -> Self {
        Self(
            (0..market.len())
                .map(|i| {
                    Strategy::new(
                        market.params().d_min,
                        market.org(i).compute_level_count() - 1,
                    )
                })
                .collect(),
        )
    }

    /// Number of strategies.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the per-organization strategies.
    pub fn iter(&self) -> std::slice::Iter<'_, Strategy> {
        self.0.iter()
    }

    /// The data fractions `d` as a vector.
    pub fn fractions(&self) -> Vec<f64> {
        self.0.iter().map(|s| s.d).collect()
    }

    /// The ladder indices as a vector.
    pub fn levels(&self) -> Vec<usize> {
        self.0.iter().map(|s| s.level).collect()
    }

    /// Replaces organization `i`'s strategy, returning the new profile
    /// (used by best-response dynamics).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn with(&self, i: usize, s: Strategy) -> Self {
        let mut next = self.clone();
        next.0[i] = s;
        next
    }

    /// Mutable access for in-place solver updates.
    pub fn set(&mut self, i: usize, s: Strategy) {
        self.0[i] = s;
    }

    /// Checks shape, box constraints `C^(1)`, ladder bounds `C^(2)` and
    /// the training deadline `C^(3)` against a market.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ModelError`].
    pub fn validate(&self, market: &Market) -> Result<()> {
        if self.0.len() != market.len() {
            return Err(ModelError::ProfileLength {
                expected: market.len(),
                found: self.0.len(),
            });
        }
        let d_min = market.params().d_min;
        for (i, s) in self.0.iter().enumerate() {
            let org = market.org(i);
            if s.level >= org.compute_level_count() {
                return Err(ModelError::InvalidComputeLevel {
                    org: i,
                    level: s.level,
                    m: org.compute_level_count(),
                });
            }
            if !s.d.is_finite() {
                return Err(ModelError::NotFinite { name: "d_i" });
            }
            if s.d < d_min - 1e-12 || s.d > 1.0 + 1e-12 {
                return Err(ModelError::OutOfRange {
                    name: "d_i",
                    value: s.d,
                    min: d_min,
                    max: 1.0,
                });
            }
            let t = org.comm_time() + org.training_time(s.d, org.frequency(s.level));
            if t > market.params().tau * (1.0 + 1e-9) {
                return Err(ModelError::Infeasible { org: i });
            }
        }
        Ok(())
    }

    /// Total contributed data `Ω = Σ_i d_i s_i` in bits.
    pub fn total_data(&self, market: &Market) -> f64 {
        market.total_data(&self.fractions())
    }

    /// Sum of data fractions `Σ_i d_i` (the Fig. 12 y-axis).
    pub fn total_fraction(&self) -> f64 {
        self.0.iter().map(|s| s.d).sum()
    }

    /// Maximum per-coordinate distance to another profile: data-fraction
    /// distance plus 1.0 for any level change (solver stopping criteria).
    pub fn distance(&self, other: &StrategyProfile) -> f64 {
        assert_eq!(self.0.len(), other.0.len());
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| {
                let dd = (a.d - b.d).abs();
                if a.level != b.level {
                    dd + 1.0
                } else {
                    dd
                }
            })
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<usize> for StrategyProfile {
    type Output = Strategy;
    fn index(&self, i: usize) -> &Strategy {
        &self.0[i]
    }
}

impl FromIterator<Strategy> for StrategyProfile {
    fn from_iter<T: IntoIterator<Item = Strategy>>(iter: T) -> Self {
        Self(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a StrategyProfile {
    type Item = &'a Strategy;
    type IntoIter = std::slice::Iter<'a, Strategy>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for StrategyProfile {
    type Item = Strategy;
    type IntoIter = std::vec::IntoIter<Strategy>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MechanismParams;
    use crate::org::Organization;

    fn market(n: usize) -> Market {
        let orgs = (0..n)
            .map(|i| {
                Organization::builder(format!("o{i}"))
                    .compute_levels(vec![1e9, 2e9, 3e9])
                    .build()
                    .unwrap()
            })
            .collect();
        let rho = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 0.05 }).collect())
            .collect();
        Market::new(orgs, rho, MechanismParams::paper_default()).unwrap()
    }

    #[test]
    fn minimal_profile_is_feasible() {
        let m = market(3);
        let p = StrategyProfile::minimal(&m);
        p.validate(&m).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].d, m.params().d_min);
        assert_eq!(p[0].level, 2);
    }

    #[test]
    fn validate_rejects_wrong_length() {
        let m = market(3);
        let p = StrategyProfile::from_parts(&[0.5, 0.5], &[0, 0]);
        assert!(matches!(p.validate(&m), Err(ModelError::ProfileLength { .. })));
    }

    #[test]
    fn validate_rejects_bad_level_and_fraction() {
        let m = market(2);
        // d=0.2 is deadline-feasible even at level 0, so the bad level on
        // org 1 is what trips validation.
        let p = StrategyProfile::from_parts(&[0.2, 0.2], &[0, 9]);
        assert!(matches!(p.validate(&m), Err(ModelError::InvalidComputeLevel { .. })));
        let p = StrategyProfile::from_parts(&[0.001, 0.5], &[2, 2]);
        assert!(matches!(p.validate(&m), Err(ModelError::OutOfRange { .. })));
        let p = StrategyProfile::from_parts(&[f64::NAN, 0.5], &[2, 2]);
        assert!(matches!(p.validate(&m), Err(ModelError::NotFinite { .. })));
    }

    #[test]
    fn validate_rejects_deadline_violation() {
        let m = market(1);
        // At level 0 (1 GHz): cap = 590*1e9/2e12 = 0.295, so d=0.9 violates C3.
        let p = StrategyProfile::from_parts(&[0.9], &[0]);
        assert!(matches!(p.validate(&m), Err(ModelError::Infeasible { org: 0 })));
        // d=0.9 at level 2 (3 GHz, cap 0.885)? 0.9 > 0.885 -> still infeasible.
        let p = StrategyProfile::from_parts(&[0.9], &[2]);
        assert!(p.validate(&m).is_err());
        let p = StrategyProfile::from_parts(&[0.8], &[2]);
        assert!(p.validate(&m).is_ok());
    }

    #[test]
    fn with_replaces_single_entry() {
        let m = market(2);
        let p = StrategyProfile::minimal(&m);
        let q = p.with(1, Strategy::new(0.5, 1));
        assert_eq!(q[1].d, 0.5);
        assert_eq!(q[1].level, 1);
        assert_eq!(q[0], p[0]);
        assert_eq!(p[1].d, m.params().d_min, "original untouched");
    }

    #[test]
    fn distance_counts_levels_and_fractions() {
        let a = StrategyProfile::from_parts(&[0.2, 0.4], &[0, 1]);
        let b = StrategyProfile::from_parts(&[0.2, 0.5], &[0, 2]);
        assert!((a.distance(&b) - 1.1).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn totals_and_iteration() {
        let m = market(2);
        let p = StrategyProfile::from_parts(&[0.25, 0.5], &[2, 2]);
        assert!((p.total_fraction() - 0.75).abs() < 1e-12);
        assert!((p.total_data(&m) - 15e9).abs() < 1.0);
        let collected: StrategyProfile = p.iter().copied().collect();
        assert_eq!(collected, p);
    }
}
