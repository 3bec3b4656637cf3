//! Batched wall-clock measurement for the `baseline` recorder.
//!
//! Sub-millisecond workloads timed one call per sample are dominated
//! by scheduler and timer noise — the recorded dbr_solve "0.917x
//! pooled regression" was exactly that: two bit-identical code paths
//! ~77µs apart on a one-call clock. [`time_ms`] therefore batches
//! calls until every sample spans at least [`MIN_SAMPLE_MS`] and
//! reports the per-call median.

use std::time::Instant;

/// Every timing sample spans at least this long (milliseconds).
pub const MIN_SAMPLE_MS: f64 = 2.0;

/// Median of a non-empty sample set, in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times one or more workloads with their samples interleaved
/// round-robin (`w0, w1, …, wN, w0, w1, …`) and returns each workload's
/// per-call median in milliseconds. One warmup call per workload
/// doubles as a calibration probe sizing an inner batch so each of the
/// `repeats` samples spans at least [`MIN_SAMPLE_MS`].
///
/// Interleaving matters when the measurements will be *compared
/// against each other* (speedup ratios): on a shared host, slow periods
/// spanning many milliseconds hit whichever workload happens to be
/// running, and disjoint measurement windows let such a period land
/// entirely on one side of the ratio. Interleaving spreads every slow
/// period across all workloads, so the medians drift together and the
/// ratio stays honest.
pub fn time_ms(repeats: usize, workloads: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let batches: Vec<usize> = workloads
        .iter_mut()
        .map(|work| {
            let t0 = Instant::now();
            work();
            let probe_ms = t0.elapsed().as_secs_f64() * 1e3;
            ((MIN_SAMPLE_MS / probe_ms.max(1e-6)).ceil() as usize).clamp(1, 10_000)
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(repeats.max(1)); workloads.len()];
    for _ in 0..repeats.max(1) {
        for ((work, &batch), out) in workloads.iter_mut().zip(&batches).zip(&mut samples) {
            let t0 = Instant::now();
            for _ in 0..batch {
                work();
            }
            out.push(t0.elapsed().as_secs_f64() * 1e3 / batch as f64);
        }
    }
    samples.into_iter().map(median_ms).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_sample() {
        assert_eq!(median_ms(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_ms(vec![5.0]), 5.0);
    }

    #[test]
    fn interleaved_timing_measures_every_workload() {
        let mut a_calls = 0usize;
        let mut b_calls = 0usize;
        let mut a = || a_calls += 1;
        let mut b = || b_calls += 1;
        let medians = time_ms(3, &mut [&mut a, &mut b]);
        assert_eq!(medians.len(), 2);
        assert!(medians.iter().all(|&ms| ms >= 0.0));
        // A ~ns workload must have been batched well past one call per
        // sample (capped at 10_000 per batch, 3 samples + 1 warmup).
        assert!(a_calls > 3 && b_calls > 3, "batching never engaged: {a_calls}/{b_calls}");
    }
}
