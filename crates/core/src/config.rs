//! Reproducible market generation from the paper's Table II parameters.

use crate::error::{ModelError, Result};
use crate::market::{Market, MechanismParams};
use crate::org::Organization;
use tradefl_runtime::rng::{Rng, SeedableRng, StdRng};

/// Sampling ranges for a randomly generated market, defaulting to the
/// paper's Table II:
///
/// | parameter | value |
/// |-----------|-------|
/// | `\|N\|`   | 10 |
/// | `D_min`   | 0.01 |
/// | `p_i`     | `[500, 2500]` |
/// | `s_i`     | `[15, 25]·10⁹` bits |
/// | `\|S_i\|` | `[1000, 2000]` |
/// | `κ`       | `10⁻²⁷` |
/// | `F_i^(m)` | 3-5 GHz |
///
/// Competition intensities are drawn from `N(μ, (μ/5)²)` as in §VI
/// (Figs. 10-11), clamped to `[0, 1]`, symmetrized, and rescaled if
/// necessary so that every potential weight `z_i` stays positive
/// (the paper: "ρ_{i,j} is mapped to a small number to ensure z_i > 0").
#[derive(Debug, Clone, PartialEq)]
pub struct MarketConfig {
    /// Number of organizations `|N|`.
    pub orgs: usize,
    /// Profitability range `p_i`.
    pub profitability: (f64, f64),
    /// Dataset-size range `s_i` (bits).
    pub data_bits: (f64, f64),
    /// Sample-count range `|S_i|`.
    pub samples: (usize, usize),
    /// Fastest-frequency range `F_i^(m)` (Hz).
    pub f_max: (f64, f64),
    /// Ladder length `m` (levels spaced evenly up to `F_i^(m)`).
    pub levels: usize,
    /// Per-bit compute cost range `η_i` (cycles/bit).
    pub eta: (f64, f64),
    /// Download/upload time range `T_i^(1)`, `T_i^(3)` (seconds).
    pub comm_time: (f64, f64),
    /// Download/upload power range (watts).
    pub comm_power: (f64, f64),
    /// Mean competition intensity `μ` of `ρ_{i,j} ~ N(μ, (μ/5)²)`.
    pub rho_mean: f64,
    /// Mechanism parameters (γ, λ, κ, ϖ_e, τ, D_min).
    pub params: MechanismParams,
}

impl MarketConfig {
    /// The paper's Table II configuration with the DESIGN.md calibration
    /// for parameters the paper leaves implicit (η, communication, μ).
    pub fn table_ii() -> Self {
        Self {
            orgs: 10,
            profitability: (500.0, 2500.0),
            data_bits: (15e9, 25e9),
            samples: (1000, 2000),
            f_max: (3e9, 5e9),
            levels: 4,
            eta: (80.0, 120.0),
            comm_time: (3.0, 8.0),
            comm_power: (5.0, 15.0),
            rho_mean: 0.03,
            params: MechanismParams::paper_default(),
        }
    }

    /// Returns a copy with a different organization count.
    pub fn with_orgs(mut self, orgs: usize) -> Self {
        self.orgs = orgs;
        self
    }

    /// Returns a copy with a different mean competition intensity `μ`.
    pub fn with_rho_mean(mut self, mu: f64) -> Self {
        self.rho_mean = mu;
        self
    }

    /// Returns a copy with different mechanism parameters.
    pub fn with_params(mut self, params: MechanismParams) -> Self {
        self.params = params;
        self
    }

    /// Deterministically samples a market from this configuration.
    ///
    /// The same `(config, seed)` pair always produces the same market,
    /// which is what makes every figure harness reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the configuration is degenerate (zero
    /// organizations, empty ladder, inverted ranges) or produces an
    /// invalid market.
    pub fn build(&self, seed: u64) -> Result<Market> {
        self.validate_ranges()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let orgs = self.sample_orgs(&mut rng)?;
        let rho = self.sample_rho(&mut rng, &orgs);
        Market::new(orgs, rho, self.params.clone())
    }

    /// Deterministically samples a market with a **sparse** competition
    /// matrix: each organization draws `⌈density · (|N|−1)⌉` competitor
    /// pairs (deduplicated), so `ρ` stores O(density · N²) entries
    /// instead of N². This is the constructor for ten-thousand-org
    /// markets, where the dense matrix alone would be ~800 MB.
    ///
    /// The RNG stream differs from [`MarketConfig::build`] only in the
    /// ρ-sampling phase; organizations are drawn identically.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on a degenerate configuration, a
    /// `density` outside `(0, 1]`, or an invalid sampled market.
    pub fn build_sparse(&self, seed: u64, density: f64) -> Result<Market> {
        use crate::market::RhoMatrix;
        if !(density > 0.0 && density <= 1.0) {
            return Err(ModelError::OutOfRange {
                name: "density",
                value: density,
                min: f64::MIN_POSITIVE,
                max: 1.0,
            });
        }
        self.validate_ranges()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let orgs = self.sample_orgs(&mut rng)?;
        let triplets = self.sample_rho_sparse(&mut rng, &orgs, density);
        let rho = RhoMatrix::from_triplets(orgs.len(), &triplets)?;
        // The triplets (~24 MB at N=10,000) are dead once ρ is stored.
        // Held across validation and the row-sum pass, they left
        // glibc's heap too fragmented to trim between repeated builds
        // (peak RSS 60 → 68–83 MB over repeated N=10,000 builds).
        drop(triplets);
        Market::with_rho(orgs, rho, self.params.clone())
    }

    fn validate_ranges(&self) -> Result<()> {
        if self.orgs == 0 {
            return Err(ModelError::NonPositive { name: "orgs", value: 0.0 });
        }
        if self.levels == 0 {
            return Err(ModelError::EmptyComputeLevels { i: 0 });
        }
        for (name, (lo, hi)) in [
            ("profitability", self.profitability),
            ("data_bits", self.data_bits),
            ("f_max", self.f_max),
            ("eta", self.eta),
            ("comm_time", self.comm_time),
            ("comm_power", self.comm_power),
        ] {
            if !(lo.is_finite() && hi.is_finite()) {
                return Err(ModelError::NotFinite { name });
            }
            if lo > hi {
                return Err(ModelError::OutOfRange { name, value: lo, min: f64::NEG_INFINITY, max: hi });
            }
        }
        if self.samples.0 > self.samples.1 || self.samples.0 == 0 {
            return Err(ModelError::OutOfRange {
                name: "samples",
                value: self.samples.0 as f64,
                min: 1.0,
                max: self.samples.1 as f64,
            });
        }
        Ok(())
    }

    fn sample_orgs(&self, rng: &mut StdRng) -> Result<Vec<Organization>> {
        let mut orgs = Vec::with_capacity(self.orgs);
        for i in 0..self.orgs {
            let f_max = sample(rng, self.f_max);
            // Evenly spaced ladder from 40% of F^(m) up to F^(m).
            let levels: Vec<f64> = (0..self.levels)
                .map(|k| {
                    if self.levels == 1 {
                        f_max
                    } else {
                        f_max * (0.4 + 0.6 * k as f64 / (self.levels - 1) as f64)
                    }
                })
                .collect();
            orgs.push(
                Organization::builder(format!("org-{i}"))
                    .profitability(sample(rng, self.profitability))
                    .data_bits(sample(rng, self.data_bits))
                    .samples(rng.gen_range(self.samples.0..=self.samples.1))
                    .eta(sample(rng, self.eta))
                    .compute_levels(levels)
                    .t_download(sample(rng, self.comm_time))
                    .t_upload(sample(rng, self.comm_time))
                    .power_download(sample(rng, self.comm_power))
                    .power_upload(sample(rng, self.comm_power))
                    .build()?,
            );
        }
        Ok(orgs)
    }

    /// Draws the symmetric competition matrix and rescales it until every
    /// weight `z_i` is strictly positive.
    fn sample_rho(&self, rng: &mut StdRng, orgs: &[Organization]) -> Vec<Vec<f64>> {
        let n = orgs.len();
        let mu = self.rho_mean.max(0.0);
        let sigma = mu / 5.0;
        let mut rho = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = normal(rng, mu, sigma).clamp(0.0, 1.0);
                rho[i][j] = v;
                rho[j][i] = v;
            }
        }
        // Rescale to guarantee z_i = p_i - Σ_j ρ_ij p_j > 0 (Theorem 1's
        // "mapped to a small number" step). Keep 5% headroom.
        let mut scale: f64 = 1.0;
        for (i, oi) in orgs.iter().enumerate() {
            let pressure: f64 = rho[i]
                .iter()
                .zip(orgs)
                .map(|(&r, oj)| r * oj.profitability())
                .sum();
            if pressure > 0.0 {
                scale = scale.min(0.95 * oi.profitability() / pressure);
            }
        }
        if scale < 1.0 {
            for row in &mut rho {
                for v in row.iter_mut() {
                    *v *= scale;
                }
            }
        }
        rho
    }

    /// Draws a sparse symmetric competition structure as upper-triangle
    /// triplets and rescales the values so every `z_i` stays positive,
    /// without ever materializing the dense matrix. Memory is O(nnz).
    ///
    /// Row `i` draws `per_row` partners `j`. A counting sort buckets
    /// each draw by `min(i, j)` and stores `max(i, j)`; sorting and
    /// deduplicating each bucket (`per_row` draws on average) then
    /// yields the unordered pairs in ascending `(i, j)` order, each
    /// once. The work is linear passes plus those small per-row sorts.
    /// The triplets come out sorted, so every row of
    /// [`RhoMatrix::from_triplets`] arrives in column order.
    ///
    /// [`RhoMatrix::from_triplets`]: crate::market::RhoMatrix::from_triplets
    fn sample_rho_sparse(
        &self,
        rng: &mut StdRng,
        orgs: &[Organization],
        density: f64,
    ) -> Vec<(usize, usize, f64)> {
        let n = orgs.len();
        let mu = self.rho_mean.max(0.0);
        let sigma = mu / 5.0;
        if n < 2 {
            return Vec::new();
        }
        let per_row = ((density * (n - 1) as f64).ceil() as usize).clamp(1, n - 1);
        // Only `j` is kept: draw k came from row k / per_row.
        let mut partners = Vec::with_capacity(n * per_row);
        for i in 0..n {
            for _ in 0..per_row {
                let j = rng.gen_range(0..n - 1);
                partners.push(if j >= i { j + 1 } else { j });
            }
        }
        let mut start = vec![0usize; n + 1];
        for (i, row) in partners.chunks_exact(per_row).enumerate() {
            for &j in row {
                start[i.min(j) + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start[..n].to_vec();
        let mut buckets = vec![0usize; partners.len()];
        for (i, row) in partners.chunks_exact(per_row).enumerate() {
            for &j in row {
                let lo = i.min(j);
                buckets[next[lo]] = i.max(j);
                next[lo] += 1;
            }
        }
        drop(partners);
        // Ascending (i, j), each unordered pair kept at most once: the
        // order the normal draws below are taken in.
        let mut triplets = Vec::with_capacity(buckets.len());
        for i in 0..n {
            let bucket = &mut buckets[start[i]..start[i + 1]];
            bucket.sort_unstable();
            let mut prev = None;
            for &j in bucket.iter() {
                if prev != Some(j) {
                    triplets.push((i, j, normal(rng, mu, sigma).clamp(0.0, 1.0)));
                    prev = Some(j);
                }
            }
        }
        // Same z_i > 0 rescale as the dense path, computed from the
        // stored entries only (each triplet pressures both endpoints).
        let mut pressure = vec![0.0f64; n];
        for &(i, j, v) in &triplets {
            pressure[i] += v * orgs[j].profitability();
            pressure[j] += v * orgs[i].profitability();
        }
        let mut scale: f64 = 1.0;
        for (i, oi) in orgs.iter().enumerate() {
            if pressure[i] > 0.0 {
                scale = scale.min(0.95 * oi.profitability() / pressure[i]);
            }
        }
        if scale < 1.0 {
            for t in &mut triplets {
                t.2 *= scale;
            }
        }
        triplets
    }
}

impl Default for MarketConfig {
    fn default() -> Self {
        Self::table_ii()
    }
}

fn sample(rng: &mut StdRng, (lo, hi): (f64, f64)) -> f64 {
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

/// Box-Muller draw from `N(mu, sigma^2)`; avoids pulling in rand_distr.
fn normal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    // lint:allow(no-float-eq): exact-zero sigma is the degenerate "no noise" case
    if sigma == 0.0 {
        return mu;
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    mu + sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_builds_ten_orgs() {
        let m = MarketConfig::table_ii().build(1).unwrap();
        assert_eq!(m.len(), 10);
        for org in m.orgs() {
            assert!(org.profitability() >= 500.0 && org.profitability() <= 2500.0);
            assert!(org.data_bits() >= 15e9 && org.data_bits() <= 25e9);
            assert!((1000..=2000).contains(&org.samples()));
            assert!(org.max_frequency() >= 3e9 && org.max_frequency() <= 5e9);
            assert_eq!(org.compute_level_count(), 4);
        }
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = MarketConfig::table_ii().build(99).unwrap();
        let b = MarketConfig::table_ii().build(99).unwrap();
        let c = MarketConfig::table_ii().build(100).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn weights_always_positive_even_for_large_mu() {
        for seed in 0..20 {
            let m = MarketConfig::table_ii().with_rho_mean(0.5).build(seed).unwrap();
            for i in 0..m.len() {
                assert!(m.weight(i) > 0.0, "seed {seed} org {i}");
            }
        }
    }

    #[test]
    fn rho_is_symmetric_with_zero_diagonal() {
        let m = MarketConfig::table_ii().build(3).unwrap();
        for i in 0..m.len() {
            assert_eq!(m.rho(i, i), 0.0);
            for j in 0..m.len() {
                assert_eq!(m.rho(i, j), m.rho(j, i));
            }
        }
    }

    #[test]
    fn zero_mu_means_no_competition() {
        let m = MarketConfig::table_ii().with_rho_mean(0.0).build(5).unwrap();
        for i in 0..m.len() {
            assert_eq!(m.competition_pressure(i), 0.0);
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(MarketConfig::table_ii().with_orgs(0).build(1).is_err());
        assert!(MarketConfig { levels: 0, ..MarketConfig::table_ii() }.build(1).is_err());
        let mut c = MarketConfig::table_ii();
        c.profitability = (2500.0, 500.0);
        assert!(c.build(1).is_err());
        let mut c = MarketConfig::table_ii();
        c.samples = (0, 10);
        assert!(c.build(1).is_err());
    }

    #[test]
    fn build_sparse_is_deterministic_and_sparse() {
        let cfg = MarketConfig::table_ii().with_orgs(200);
        let a = cfg.build_sparse(7, 0.05).unwrap();
        let b = cfg.build_sparse(7, 0.05).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        // ~5% density: far fewer stored entries than the dense N².
        assert!(a.rho_nnz() < 200 * 200 / 4, "nnz = {}", a.rho_nnz());
        assert!(a.rho_nnz() > 0);
        for i in 0..a.len() {
            assert!(a.weight(i) > 0.0, "org {i}");
        }
        // Orgs are drawn from the same stream as the dense builder.
        let dense = cfg.build(7).unwrap();
        assert_eq!(dense.orgs(), a.orgs());
    }

    #[test]
    fn build_sparse_rejects_bad_density() {
        let cfg = MarketConfig::table_ii();
        assert!(cfg.build_sparse(1, 0.0).is_err());
        assert!(cfg.build_sparse(1, 1.5).is_err());
        assert!(cfg.build_sparse(1, f64::NAN).is_err());
        assert!(cfg.build_sparse(1, 1.0).is_ok());
    }

    #[test]
    fn single_level_ladder_uses_f_max() {
        let m = MarketConfig { levels: 1, ..MarketConfig::table_ii() }.build(8).unwrap();
        for org in m.orgs() {
            assert_eq!(org.compute_level_count(), 1);
            assert_eq!(org.frequency(0), org.max_frequency());
        }
    }
}
