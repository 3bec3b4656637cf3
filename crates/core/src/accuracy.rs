//! Data-accuracy functions `P(d_i, d_-i)` (paper §III-C, Eqs. 4-5).
//!
//! TradeFL deliberately does **not** assume a specific functional form for
//! the relationship between contributed data and global-model accuracy.
//! It only requires the first/second-derivative properties of Eq. (5):
//!
//! ```text
//!   dP/dd_i >= 0         (more data never hurts)
//!   d^2P/dd_i^2 <= 0     (diminishing returns)
//! ```
//!
//! With a strongly convex global loss, `P(d_i, d_-i) = P(Ω)` depends only
//! on the *total* contributed data `Ω = Σ_i d_i s_i` (paper §III-C1), so
//! implementations of [`AccuracyModel`] map a total data volume to an
//! accuracy gain. Four models are provided:
//!
//! * [`SqrtAccuracy`] — the general accuracy-loss bound of the paper's
//!   footnote 7 (`A(Ω) = 1/sqrt(Ω̃ G) + 1/G`), used in all of the paper's
//!   simulations;
//! * [`LogAccuracy`] — a logarithmic gain curve;
//! * [`PowerLawAccuracy`] — a saturating power law;
//! * [`EmpiricalAccuracy`] — a monotone piecewise-linear interpolation of
//!   measured `(Ω, accuracy)` samples, e.g. obtained from the federated
//!   training substrate (`tradefl-fl-sim`) as in the paper's Fig. 2.

use crate::error::{ensure_positive, ModelError, Result};

/// The data-accuracy function `P(Ω) = A(0) − A(Ω)` (Eq. 4).
///
/// Implementors must guarantee Eq. (5): [`AccuracyModel::gain`] is
/// non-decreasing and concave on `Ω > 0`. [`AccuracyModel::gain_deriv`]
/// must return the exact derivative of `gain` (solvers rely on it for
/// KKT conditions and Benders cuts).
///
/// # Examples
///
/// ```
/// use tradefl_core::accuracy::{AccuracyModel, SqrtAccuracy};
///
/// let p = SqrtAccuracy::paper_default();
/// let low = p.gain(10e9);
/// let high = p.gain(100e9);
/// assert!(high > low, "more data yields a larger gain");
/// ```
pub trait AccuracyModel: Send + Sync {
    /// Accuracy gain `P(Ω)` of the global model when the total contributed
    /// data volume is `omega` (bits). Non-negative, non-decreasing, concave.
    fn gain(&self, omega: f64) -> f64;

    /// First derivative `dP/dΩ` at `omega`. Non-negative and non-increasing.
    fn gain_deriv(&self, omega: f64) -> f64;

    /// Second derivative `d²P/dΩ²` at `omega`. Non-positive (Eq. 5).
    ///
    /// Used by the interior-point primal solver's Newton step. The
    /// default implementation differentiates [`AccuracyModel::gain_deriv`]
    /// numerically; implementors with a closed form should override it.
    fn gain_curvature(&self, omega: f64) -> f64 {
        let h = (omega.abs() * 1e-5).max(1.0);
        let lo = (omega - h).max(0.0);
        (self.gain_deriv(omega + h) - self.gain_deriv(lo)) / (omega + h - lo)
    }

    /// A human-readable model name used in reports and traces.
    fn name(&self) -> &str {
        "accuracy-model"
    }
}

impl<T: AccuracyModel + ?Sized> AccuracyModel for &T {
    fn gain(&self, omega: f64) -> f64 {
        (**self).gain(omega)
    }
    fn gain_deriv(&self, omega: f64) -> f64 {
        (**self).gain_deriv(omega)
    }
    fn gain_curvature(&self, omega: f64) -> f64 {
        (**self).gain_curvature(omega)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl AccuracyModel for Box<dyn AccuracyModel> {
    fn gain(&self, omega: f64) -> f64 {
        (**self).gain(omega)
    }
    fn gain_deriv(&self, omega: f64) -> f64 {
        (**self).gain_deriv(omega)
    }
    fn gain_curvature(&self, omega: f64) -> f64 {
        (**self).gain_curvature(omega)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The accuracy-loss bound used in the paper's simulations (footnote 7):
///
/// ```text
///   A(Ω) = 1 / sqrt((Ω / scale) · G) + 1 / G,      P(Ω) = A(0) − A(Ω)
/// ```
///
/// where `G` is the number of training epochs, `scale` normalizes the raw
/// data volume (bits) into units comparable to `G` (the paper works with
/// dimensionless sample counts; we expose the normalization explicitly so
/// that Table II magnitudes, `s_i ∈ [15, 25]·10^9` bits, produce the same
/// curve shape), and `A(0)` is the loss of the untrained model — a finite
/// calibration constant (the `A(0)` of Eq. 4), *not* the singular `Ω → 0`
/// limit of the bound.
///
/// The gain `P(Ω) = A(0) − A(Ω)` is **not** clamped at zero: for very
/// small `Ω` it goes negative ("worse than the untrained baseline"),
/// exactly as Eq. (4) reads. Leaving it unclamped keeps `P` concave and
/// monotone on all of `Ω > 0`, which the solvers' convexity analysis
/// (Lemma 1) requires; [`SqrtAccuracy::positive_gain_threshold`] reports
/// where the gain turns positive so callers can calibrate `A(0)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SqrtAccuracy {
    epochs: f64,
    scale: f64,
    a0: f64,
}

impl SqrtAccuracy {
    /// Creates the model with `G = epochs`, data normalization `scale`
    /// (bits mapping to one dimensionless data unit) and untrained loss
    /// `a0 = A(0)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if any parameter is non-positive or not
    /// finite.
    pub fn new(epochs: f64, scale: f64, a0: f64) -> Result<Self> {
        ensure_positive("epochs", epochs)?;
        ensure_positive("scale", scale)?;
        ensure_positive("a0", a0)?;
        Ok(Self { epochs, scale, a0 })
    }

    /// The calibration used throughout the reproduction of the paper's
    /// simulation section: `G = 5` effective epochs, a `2.08·10^8`-bit
    /// normalization unit and an untrained-model loss `A(0) = 0.80`.
    ///
    /// These values are derived in DESIGN.md §3 from the paper's
    /// operating point: they place the private first-order condition of
    /// the Table II market at an interior contribution level when
    /// `γ* = 5.12·10⁻⁹`, make social welfare peak near `γ*` (Fig. 10's
    /// non-monotonicity), and put peak welfare in the paper's ≈ 8.6k
    /// range.
    pub fn paper_default() -> Self {
        Self { epochs: 5.0, scale: 2.08e8, a0: 0.80 }
    }

    /// Data normalization constant (bits per dimensionless unit).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Accuracy *loss* `A(Ω)` of the bound itself.
    pub fn loss(&self, omega: f64) -> f64 {
        let x = (omega / self.scale).max(f64::MIN_POSITIVE);
        1.0 / (x * self.epochs).sqrt() + 1.0 / self.epochs
    }

    /// The smallest `Ω` for which the gain is strictly positive.
    // lint:allow(unreferenced-pub-fn): test oracle: Lemma 1's positive-gain floor, which the Eq. (5) unit and property tests draw above
    pub fn positive_gain_threshold(&self) -> f64 {
        // a0 = 1/sqrt(x g) + 1/g  =>  x = 1 / (g (a0 - 1/g)^2)
        let g = self.epochs;
        let denom = self.a0 - 1.0 / g;
        if denom <= 0.0 {
            return f64::INFINITY;
        }
        self.scale / (g * denom * denom)
    }
}

impl AccuracyModel for SqrtAccuracy {
    fn gain(&self, omega: f64) -> f64 {
        self.a0 - self.loss(omega)
    }

    fn gain_deriv(&self, omega: f64) -> f64 {
        let x = (omega / self.scale).max(f64::MIN_POSITIVE);
        // d/dΩ [ -(x g)^{-1/2} ] = g/(2 (x g)^{3/2} scale)
        let g = self.epochs;
        0.5 * g / ((x * g).powf(1.5) * self.scale)
    }

    fn gain_curvature(&self, omega: f64) -> f64 {
        let x = (omega / self.scale).max(f64::MIN_POSITIVE);
        let g = self.epochs;
        // d²/dΩ² [ -(x g)^{-1/2} ] = -3 g² / (4 (x g)^{5/2} scale²)
        -0.75 * g * g / ((x * g).powf(2.5) * self.scale * self.scale)
    }

    fn name(&self) -> &str {
        "sqrt-bound"
    }
}

/// A logarithmic data-accuracy curve `P(Ω) = c · ln(1 + Ω / scale)`.
///
/// Satisfies Eq. (5) everywhere; useful to demonstrate that TradeFL does
/// not depend on the specific sqrt-bound form (§III-C, contribution 1).
#[derive(Debug, Clone, PartialEq)]
pub struct LogAccuracy {
    coefficient: f64,
    scale: f64,
}

impl LogAccuracy {
    /// Creates the model with gain coefficient `c` and normalization
    /// `scale` in bits.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if either parameter is non-positive.
    pub fn new(coefficient: f64, scale: f64) -> Result<Self> {
        ensure_positive("coefficient", coefficient)?;
        ensure_positive("scale", scale)?;
        Ok(Self { coefficient, scale })
    }
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

/// A saturating power-law curve `P(Ω) = cap · (1 − (1 + Ω/scale)^(−alpha))`.
///
/// For `alpha ∈ (0, 1]` this is increasing and concave, hence satisfies
/// Eq. (5). `cap` is the asymptotic accuracy gain.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLawAccuracy {
    cap: f64,
    scale: f64,
    alpha: f64,
}

impl PowerLawAccuracy {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `cap` or `scale` is non-positive or
    /// `alpha` lies outside `(0, 1]`.
    pub fn new(cap: f64, scale: f64, alpha: f64) -> Result<Self> {
        ensure_positive("cap", cap)?;
        ensure_positive("scale", scale)?;
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(ModelError::OutOfRange { name: "alpha", value: alpha, min: 0.0, max: 1.0 });
        }
        Ok(Self { cap, scale, alpha })
    }
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

/// A monotone concave piecewise-linear interpolation of measured
/// `(Ω, gain)` samples.
///
/// This is how an operator plugs *real* measurements (e.g. the Fig. 2
/// pre-experiments produced by `tradefl-fl-sim`) into the mechanism
/// without committing to a functional form. The constructor enforces
/// Eq. (5) on the samples: gains must be non-decreasing and the chord
/// slopes non-increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalAccuracy {
    /// Sorted sample abscissae (total data volume, bits).
    omegas: Vec<f64>,
    /// Gains at the abscissae.
    gains: Vec<f64>,
}

impl EmpiricalAccuracy {
    /// Builds the interpolation from `(omega, gain)` samples.
    ///
    /// Samples are sorted by `omega` internally.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if fewer than two samples are supplied, if
    /// any coordinate is not finite or negative, if two samples share an
    /// abscissa, or if the samples violate monotonicity/concavity
    /// (Eq. 5) beyond a `1e-9` relative tolerance.
    pub fn from_samples(samples: impl IntoIterator<Item = (f64, f64)>) -> Result<Self> {
        let mut pts: Vec<(f64, f64)> = samples.into_iter().collect();
        if pts.len() < 2 {
            return Err(ModelError::OutOfRange {
                name: "samples.len",
                value: pts.len() as f64,
                min: 2.0,
                max: f64::INFINITY,
            });
        }
        for &(x, y) in &pts {
            if !x.is_finite() || !y.is_finite() {
                return Err(ModelError::NotFinite { name: "sample" });
            }
            if x < 0.0 {
                return Err(ModelError::OutOfRange { name: "omega", value: x, min: 0.0, max: f64::INFINITY });
            }
            if y < 0.0 {
                return Err(ModelError::OutOfRange { name: "gain", value: y, min: 0.0, max: f64::INFINITY });
            }
        }
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        // lint:allow(no-panic-in-lib): pts was rejected as too short above, so last() exists
        let span = pts.last().unwrap().0 - pts[0].0;
        let tol = 1e-9 * span.max(1.0);
        let mut prev_slope = f64::INFINITY;
        for w in pts.windows(2) {
            let dx = w[1].0 - w[0].0;
            if dx <= 0.0 {
                return Err(ModelError::OutOfRange {
                    name: "duplicate omega",
                    value: w[1].0,
                    min: w[0].0,
                    max: f64::INFINITY,
                });
            }
            let slope = (w[1].1 - w[0].1) / dx;
            if slope < -tol {
                return Err(ModelError::OutOfRange {
                    name: "gain monotonicity",
                    value: slope,
                    min: 0.0,
                    max: f64::INFINITY,
                });
            }
            if slope > prev_slope + tol {
                return Err(ModelError::OutOfRange {
                    name: "gain concavity",
                    value: slope,
                    min: 0.0,
                    max: prev_slope,
                });
            }
            prev_slope = slope;
        }
        let (omegas, gains) = pts.into_iter().unzip();
        Ok(Self { omegas, gains })
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.omegas.len()
    }

    /// Whether the interpolation holds no samples (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.omegas.is_empty()
    }

    fn segment(&self, omega: f64) -> usize {
        // Index k such that omega is interpolated on [omegas[k], omegas[k+1]].
        match self.omegas.binary_search_by(|x| x.total_cmp(&omega)) {
            Ok(k) => k.min(self.omegas.len() - 2),
            Err(0) => 0,
            Err(k) if k >= self.omegas.len() => self.omegas.len() - 2,
            Err(k) => k - 1,
        }
    }
}

impl AccuracyModel for EmpiricalAccuracy {
    fn gain(&self, omega: f64) -> f64 {
        let n = self.omegas.len();
        if omega <= self.omegas[0] {
            // Extrapolate left with the first chord slope, clamped at 0.
            let s = (self.gains[1] - self.gains[0]) / (self.omegas[1] - self.omegas[0]);
            return (self.gains[0] + s * (omega - self.omegas[0])).max(0.0);
        }
        if omega >= self.omegas[n - 1] {
            // Saturate to the right: no extrapolated growth beyond data.
            return self.gains[n - 1];
        }
        let k = self.segment(omega);
        let t = (omega - self.omegas[k]) / (self.omegas[k + 1] - self.omegas[k]);
        self.gains[k] + t * (self.gains[k + 1] - self.gains[k])
    }

    fn gain_deriv(&self, omega: f64) -> f64 {
        let n = self.omegas.len();
        if omega >= self.omegas[n - 1] {
            return 0.0;
        }
        let k = if omega <= self.omegas[0] { 0 } else { self.segment(omega) };
        ((self.gains[k + 1] - self.gains[k]) / (self.omegas[k + 1] - self.omegas[k])).max(0.0)
    }

    fn gain_curvature(&self, _omega: f64) -> f64 {
        // Piecewise linear: zero curvature almost everywhere.
        0.0
    }

    fn name(&self) -> &str {
        "empirical"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_eq5<M: AccuracyModel>(m: &M, lo: f64, hi: f64) {
        // Verify the Eq. (5) derivative properties on a grid.
        let steps = 200;
        let mut prev_gain = f64::NEG_INFINITY;
        let mut prev_deriv = f64::INFINITY;
        for k in 0..=steps {
            let omega = lo + (hi - lo) * k as f64 / steps as f64;
            let g = m.gain(omega);
            let d = m.gain_deriv(omega);
            assert!(g >= prev_gain - 1e-9, "gain must be non-decreasing at {omega}");
            assert!(d >= -1e-15, "derivative must be non-negative at {omega}");
            assert!(d <= prev_deriv + 1e-12, "derivative must be non-increasing at {omega}");
            prev_gain = g;
            prev_deriv = d;
        }
    }

    #[test]
    fn sqrt_bound_satisfies_eq5() {
        let m = SqrtAccuracy::paper_default();
        check_eq5(&m, m.positive_gain_threshold() * 1.01, 400e9);
    }

    #[test]
    fn log_satisfies_eq5() {
        check_eq5(&LogAccuracy::new(1.0, 50e9).unwrap(), 0.0, 400e9);
    }

    #[test]
    fn power_law_satisfies_eq5() {
        check_eq5(&PowerLawAccuracy::new(1.0, 50e9, 0.5).unwrap(), 0.0, 400e9);
    }

    #[test]
    fn sqrt_derivative_matches_finite_difference() {
        let m = SqrtAccuracy::paper_default();
        for &omega in &[5e9, 20e9, 100e9, 300e9] {
            let h = omega * 1e-6;
            let fd = (m.gain(omega + h) - m.gain(omega - h)) / (2.0 * h);
            let an = m.gain_deriv(omega);
            assert!(
                (fd - an).abs() <= 1e-6 * an.abs().max(1e-18),
                "finite diff {fd} vs analytic {an} at {omega}"
            );
        }
    }

    #[test]
    fn curvature_matches_finite_difference_of_derivative() {
        let sqrt = SqrtAccuracy::paper_default();
        let log = LogAccuracy::new(2.0, 30e9).unwrap();
        let pl = PowerLawAccuracy::new(1.5, 40e9, 0.7).unwrap();
        for m in [&sqrt as &dyn AccuracyModel, &log, &pl] {
            for &omega in &[10e9, 50e9, 200e9] {
                let h = omega * 1e-5;
                let fd = (m.gain_deriv(omega + h) - m.gain_deriv(omega - h)) / (2.0 * h);
                let an = m.gain_curvature(omega);
                assert!(an <= 0.0, "{}: curvature must be non-positive", m.name());
                let rel = (fd - an).abs() / an.abs().max(1e-30);
                assert!(rel < 1e-3, "{}: fd={fd} analytic={an}", m.name());
            }
        }
    }

    #[test]
    fn default_curvature_implementation_is_sane() {
        // A model relying on the numeric default.
        struct Linearish;
        impl AccuracyModel for Linearish {
            fn gain(&self, omega: f64) -> f64 {
                omega.sqrt()
            }
            fn gain_deriv(&self, omega: f64) -> f64 {
                0.5 / omega.max(1e-12).sqrt()
            }
        }
        let m = Linearish;
        let omega: f64 = 1e6;
        let exact = -0.25 / omega.powf(1.5);
        let got = m.gain_curvature(omega);
        assert!((got - exact).abs() / exact.abs() < 1e-2, "got {got} exact {exact}");
    }

    #[test]
    fn log_derivative_matches_finite_difference() {
        let m = LogAccuracy::new(2.0, 30e9).unwrap();
        let omega = 60e9;
        let h = 1e3;
        let fd = (m.gain(omega + h) - m.gain(omega - h)) / (2.0 * h);
        assert!((fd - m.gain_deriv(omega)).abs() < 1e-12);
    }

    #[test]
    fn sqrt_positive_gain_threshold_is_consistent() {
        let m = SqrtAccuracy::paper_default();
        let t = m.positive_gain_threshold();
        assert!(m.gain(t * 0.99) < 0.0);
        assert!(m.gain(t * 1.01) > 0.0);
        assert!(m.gain(t).abs() < 1e-9);
    }

    #[test]
    fn sqrt_rejects_bad_params() {
        assert!(SqrtAccuracy::new(0.0, 1.0, 1.0).is_err());
        assert!(SqrtAccuracy::new(5.0, -1.0, 1.0).is_err());
        assert!(SqrtAccuracy::new(5.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn empirical_interpolates_and_saturates() {
        let m = EmpiricalAccuracy::from_samples([
            (0.0, 0.0),
            (10.0, 5.0),
            (20.0, 8.0),
            (40.0, 10.0),
        ])
        .unwrap();
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        assert!((m.gain(15.0) - 6.5).abs() < 1e-12);
        assert_eq!(m.gain(100.0), 10.0);
        assert_eq!(m.gain_deriv(100.0), 0.0);
        assert!((m.gain_deriv(5.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empirical_rejects_nonconcave() {
        // Slopes increase: 0.1 then 1.0 — convex, must be rejected.
        let r = EmpiricalAccuracy::from_samples([(0.0, 0.0), (10.0, 1.0), (20.0, 11.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn empirical_rejects_decreasing() {
        let r = EmpiricalAccuracy::from_samples([(0.0, 5.0), (10.0, 4.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn empirical_rejects_duplicates_and_too_few() {
        assert!(EmpiricalAccuracy::from_samples([(1.0, 1.0)]).is_err());
        assert!(EmpiricalAccuracy::from_samples([(1.0, 1.0), (1.0, 2.0)]).is_err());
    }

    #[test]
    fn empirical_satisfies_eq5_on_grid() {
        let m = EmpiricalAccuracy::from_samples([
            (0.0, 0.0),
            (1e9, 1.0),
            (2e9, 1.8),
            (4e9, 2.9),
            (8e9, 4.0),
        ])
        .unwrap();
        check_eq5(&m, 0.0, 10e9);
    }

    #[test]
    fn trait_object_usable() {
        let boxed: Box<dyn AccuracyModel> = Box::new(SqrtAccuracy::paper_default());
        assert!(boxed.gain(100e9) > 0.0);
        assert_eq!(boxed.name(), "sqrt-bound");
    }
}
