//! Order statistics for the benchmark's samples.
//!
//! Medians summarize repetitions (a handful of samples). Tail
//! percentiles summarize pooled per-block samples and are refused unless
//! at least [`MIN_BEYOND`] samples lie beyond them, so a reported p90 is
//! never one or two stragglers.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method); a single sample is
/// its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let m = v.len() + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        // Signed: Python extrapolates past the ends for tiny samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => Some((at(1), at(3))),
    }
}

/// Nearest-rank percentile `q ∈ (0, 1)`, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs {MIN_BEYOND} samples beyond it, {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    Ok(Percentile {
        value: sorted(samples)[rank - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    }

    #[test]
    fn percentile_reports_its_sample_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&v, 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!(
            p,
            Percentile {
                value: 90.0,
                samples: 100
            }
        );
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&v, 0.9).unwrap_err();
        assert!(err.contains("leave 9"), "{err}");
        assert!(percentile(&[], 0.5).is_err());
        // The median needs 20 samples to leave 10 beyond it.
        assert!(percentile(&v[..19], 0.5).is_err());
        assert!(percentile(&v[..20], 0.5).is_ok());
    }
}
