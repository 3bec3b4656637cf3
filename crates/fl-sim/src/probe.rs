//! Data-accuracy pre-experiments (§III-C, Fig. 2): measure how global
//! accuracy grows with contributed data, and fit the paper's
//! `P(x) = c₀ − c₁/√x` curve to the measurements.
//!
//! The fitted curve (or a monotone-concave interpolation of it) can be
//! plugged straight into the mechanism as an
//! [`tradefl_core::accuracy::EmpiricalAccuracy`] — the "no assumed
//! functional form" workflow the paper advertises.

use crate::data::{generate, DatasetKind};
use crate::fed::{train_federated, FedConfig, FedError};
use crate::model::{Mlp, ModelKind};
use tradefl_core::accuracy::EmpiricalAccuracy;
use tradefl_core::error::ModelError;

/// One measured point of the data-accuracy curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePoint {
    /// Total contributed samples across organizations.
    pub samples: usize,
    /// Measured test accuracy.
    pub accuracy: f64,
}

/// A fitted `accuracy(x) = c0 − c1/√x` curve with its fit quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqrtFit {
    /// Asymptotic accuracy `c0`.
    pub c0: f64,
    /// Decay coefficient `c1` (non-negative for concave-increasing
    /// data).
    pub c1: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

impl SqrtFit {
    /// Evaluates the fitted curve at a sample count.
    pub fn predict(&self, samples: f64) -> f64 {
        self.c0 - self.c1 / samples.max(1.0).sqrt()
    }

    /// Least-squares fit of `y = c0 − c1/√x` (linear in `(c0, c1)`).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are supplied.
    pub fn fit(points: &[ProbePoint]) -> SqrtFit {
        assert!(points.len() >= 2, "need at least two probe points");
        // Basis: [1, -1/sqrt(x)]; normal equations for 2x2 system.
        let n = points.len() as f64;
        let mut s_b = 0.0; // Σ basis
        let mut s_bb = 0.0; // Σ basis²
        let mut s_y = 0.0;
        let mut s_by = 0.0;
        for p in points {
            let b = -1.0 / (p.samples.max(1) as f64).sqrt();
            s_b += b;
            s_bb += b * b;
            s_y += p.accuracy;
            s_by += b * p.accuracy;
        }
        let det = n * s_bb - s_b * s_b;
        let (c0, c1) = if det.abs() < 1e-18 {
            (s_y / n, 0.0)
        } else {
            let c0 = (s_bb * s_y - s_b * s_by) / det;
            let c1 = (n * s_by - s_b * s_y) / det;
            (c0, c1)
        };
        let mean = s_y / n;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for p in points {
            let pred = c0 - c1 / (p.samples.max(1) as f64).sqrt();
            ss_res += (p.accuracy - pred).powi(2);
            ss_tot += (p.accuracy - mean).powi(2);
        }
        let r_squared = if ss_tot < 1e-18 { 1.0 } else { 1.0 - ss_res / ss_tot };
        SqrtFit { c0, c1, r_squared }
    }

    /// Samples the fitted curve into a monotone-concave
    /// [`EmpiricalAccuracy`] over `[lo, hi]` **sample** counts, mapped
    /// to data volume via `bits_per_sample`.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] if the fitted curve is degenerate
    /// (`c1 < 0` makes it non-concave/decreasing).
    pub fn to_empirical(
        &self,
        lo_samples: f64,
        hi_samples: f64,
        bits_per_sample: f64,
        points: usize,
    ) -> Result<EmpiricalAccuracy, ModelError> {
        let n = points.max(2);
        let samples = (0..n).map(move |k| {
            // Log-spaced grid suits the 1/sqrt shape.
            let t = k as f64 / (n - 1) as f64;
            lo_samples * (hi_samples / lo_samples).powf(t)
        });
        EmpiricalAccuracy::from_samples(samples.map(|x| {
            let gain = (self.predict(x) - self.predict(lo_samples)).max(0.0);
            (x * bits_per_sample, gain)
        }))
    }
}

/// Measures the Fig. 2 curve: federated accuracy as a function of total
/// contributed samples, everything else fixed.
///
/// `sample_counts` are total training-set sizes; each run splits the
/// pool evenly across `orgs` organizations and trains `model` on
/// `dataset` from scratch.
///
/// # Errors
///
/// Propagates [`FedError`] from the underlying training runs.
pub fn measure_accuracy_curve(
    model: ModelKind,
    dataset: DatasetKind,
    sample_counts: &[usize],
    orgs: usize,
    test_samples: usize,
    config: &FedConfig,
    seed: u64,
) -> Result<Vec<ProbePoint>, FedError> {
    let max_samples = sample_counts.iter().copied().max().unwrap_or(0);
    let pool = generate(dataset, max_samples + test_samples, seed);
    let shards_src = pool.take(max_samples);
    let test = {
        // The tail of the pool is the held-out test set.
        let all = pool.shard(&[max_samples, test_samples]);
        // lint:allow(no-panic-in-lib): shard(&[a, b]) always yields exactly two shards
        all.into_iter().nth(1).expect("two shards requested")
    };
    let mut out = Vec::with_capacity(sample_counts.len());
    for &count in sample_counts {
        let per_org = count / orgs;
        let sizes = vec![per_org; orgs];
        let shards = shards_src.shard(&sizes);
        let global = Mlp::for_kind(model, test.dim(), test.classes, seed ^ 0xabcd);
        let outcome = train_federated(global, &shards, &test, &vec![1.0; orgs], config)?;
        out.push(ProbePoint { samples: per_org * orgs, accuracy: outcome.final_accuracy() as f64 });
    }
    Ok(out)
}

/// A ready-made probe dataset for tests and quick demos: accuracy
/// measured at a handful of sizes with a fast configuration.
// lint:allow(unreferenced-pub-fn): the probe tests/paper_claims.rs fits the Eq. (5) curve on
pub fn quick_probe(
    model: ModelKind,
    dataset: DatasetKind,
    seed: u64,
) -> Result<Vec<ProbePoint>, FedError> {
    let config = FedConfig { rounds: 8, local_epochs: 1, batch_size: 32, lr: 0.1, seed };
    measure_accuracy_curve(
        model,
        dataset,
        &[200, 400, 800, 1600, 3200],
        4,
        600,
        &config,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradefl_core::accuracy::AccuracyModel;

    #[test]
    fn sqrt_fit_recovers_synthetic_coefficients() {
        let pts: Vec<ProbePoint> = [100usize, 400, 900, 1600, 4900]
            .iter()
            .map(|&x| ProbePoint {
                samples: x,
                accuracy: 0.9 - 2.0 / (x as f64).sqrt(),
            })
            .collect();
        let fit = SqrtFit::fit(&pts);
        assert!((fit.c0 - 0.9).abs() < 1e-9);
        assert!((fit.c1 - 2.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
        assert!((fit.predict(400.0) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn fit_handles_noise_gracefully() {
        let pts: Vec<ProbePoint> = [100usize, 200, 400, 800, 1600, 3200]
            .iter()
            .enumerate()
            .map(|(i, &x)| ProbePoint {
                samples: x,
                accuracy: 0.8 - 1.5 / (x as f64).sqrt() + if i % 2 == 0 { 0.01 } else { -0.01 },
            })
            .collect();
        let fit = SqrtFit::fit(&pts);
        assert!((fit.c0 - 0.8).abs() < 0.05);
        assert!(fit.r_squared > 0.8);
    }

    #[test]
    fn to_empirical_produces_valid_model() {
        let fit = SqrtFit { c0: 0.85, c1: 1.8, r_squared: 1.0 };
        let emp = fit.to_empirical(100.0, 10_000.0, 1e7, 12).unwrap();
        // Monotone non-decreasing over the sampled range.
        let g1 = emp.gain(100.0 * 1e7);
        let g2 = emp.gain(5_000.0 * 1e7);
        let g3 = emp.gain(10_000.0 * 1e7);
        assert!(g1 <= g2 && g2 <= g3);
        assert!(g3 > 0.0);
    }

    #[test]
    fn measured_curve_is_mostly_increasing_with_diminishing_returns() {
        // The Fig. 2 shape check, on the cheapest model/dataset pair.
        let pts = quick_probe(ModelKind::MobilenetLike, DatasetKind::EurosatLike, 3).unwrap();
        assert_eq!(pts.len(), 5);
        // Largest-vs-smallest must improve clearly.
        assert!(
            pts.last().unwrap().accuracy > pts[0].accuracy + 0.03,
            "accuracy {:?}",
            pts
        );
        // And the fitted sqrt curve must explain the trend.
        let fit = SqrtFit::fit(&pts);
        assert!(fit.c1 > 0.0, "increasing curve: {fit:?}");
        assert!(fit.r_squared > 0.5, "fit quality: {fit:?}");
    }
}
