//! Seedable pseudo-random number generation.
//!
//! [`StdRng`] is xoshiro256++ (Blackman & Vigna) seeded through
//! SplitMix64, the standard recipe for expanding a 64-bit seed into a
//! full 256-bit state without correlated lanes. The trait surface
//! mirrors the subset of `rand` 0.8 the workspace uses, so call sites
//! migrate with a one-line import swap:
//!
//! ```
//! use tradefl_runtime::rng::{Rng, SeedableRng, SliceRandom, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x: f64 = rng.gen_range(0.0..1.0);
//! let k = rng.gen_range(0..10usize);
//! let mut v = vec![1, 2, 3, 4];
//! v.shuffle(&mut rng);
//! assert!((0.0..1.0).contains(&x) && k < 10 && v.len() == 4);
//! ```
//!
//! Everything is deterministic per seed and stable across platforms:
//! the generator never consults the OS, the clock or pointer layout.

use std::ops::{Range, RangeInclusive};

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: advances `state` and returns a mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic seedable generator: xoshiro256++.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Builds the generator from 32 bytes of seed material.
    fn from_seed(seed: [u8; 32]) -> Self;

    /// Expands a 64-bit seed into full state (SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (lane, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
            // lint:allow(no-panic-in-lib): chunks_exact(8) only yields 8-byte chunks
            *lane = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        // An all-zero state is the one fixed point of xoshiro; reseed it.
        if s == [0; 4] {
            return Self::seed_from_u64(0);
        }
        StdRng { s }
    }

    fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for lane in &mut s {
            *lane = splitmix64(&mut state);
        }
        StdRng { s }
    }
}

impl StdRng {
    /// The raw xoshiro256++ output step.
    fn step(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Uniform sampling from a range, dispatched on the range type.
pub trait SampleRange<T> {
    /// Draws one value uniformly from `self`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<G: Rng + ?Sized>(self, rng: &mut G) -> T;
}

/// Uniform `u64` in `[0, bound)` by rejection, bias-free.
fn bounded_u64<G: Rng + ?Sized>(rng: &mut G, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    // Reject draws from the final partial copy of `[0, bound)`.
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty gen_range {:?}", self);
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range {lo}..={hi}");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(bounded_u64(rng, span as u64) as $t)
            }
        }
    )*};
}

impl_int_ranges!(usize, u64, u32, i64, i32);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<G: Rng + ?Sized>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "empty gen_range {:?}", self);
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Rounding may land exactly on `end`; clamp into the half-open
        // interval to honor the contract at every scale.
        if v >= self.end {
            self.start.max(self.end - (self.end - self.start) * f64::EPSILON)
        } else {
            v
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<G: Rng + ?Sized>(self, rng: &mut G) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty gen_range {lo}..={hi}");
        lo + rng.gen_f64() * (hi - lo)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<G: Rng + ?Sized>(self, rng: &mut G) -> f32 {
        let v: f64 = (self.start as f64..self.end as f64).sample_from(rng);
        (v as f32).clamp(self.start, f32_pred(self.end))
    }
}

/// The largest `f32` strictly below `x` (for half-open clamping).
fn f32_pred(x: f32) -> f32 {
    if x > f32::MIN {
        f32::from_bits(x.to_bits() - 1)
    } else {
        x
    }
}

/// The generator methods used across the workspace.
pub trait Rng {
    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` from the top 53 bits.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `range` (half-open or inclusive, int or float).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} outside [0,1]");
        self.gen_f64() < p
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.step()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// In-place randomization of slices.
pub trait SliceRandom {
    /// The element type.
    type Item;

    /// Fisher–Yates shuffle, uniform over permutations.
    fn shuffle<G: Rng>(&mut self, rng: &mut G);

    /// A uniformly chosen element, or `None` when empty.
    fn choose<G: Rng>(&self, rng: &mut G) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<G: Rng>(&mut self, rng: &mut G) {
        for i in (1..self.len()).rev() {
            let j = bounded_u64(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<G: Rng>(&self, rng: &mut G) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[bounded_u64(rng, self.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn int_ranges_cover_and_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..1_000 {
            let v = rng.gen_range(5..=7u64);
            assert!((5..=7).contains(&v));
        }
    }

    #[test]
    fn float_range_is_half_open_even_when_tiny() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(f64::EPSILON..1.0);
            assert!(v >= f64::EPSILON && v < 1.0);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn from_seed_bytes_matches_lanes() {
        let mut seed = [0u8; 32];
        seed[0] = 1;
        let rng = StdRng::from_seed(seed);
        assert_eq!(rng.s[0], 1);
        // All-zero seed still yields a working generator.
        let mut z = StdRng::from_seed([0; 32]);
        assert_ne!(z.next_u64(), z.next_u64());
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
    }
}
