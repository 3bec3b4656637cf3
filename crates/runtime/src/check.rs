//! A seeded property-testing harness — the in-tree replacement for
//! `proptest`.
//!
//! Properties are written with the [`props!`](crate::props!) macro:
//! each property is a function of a generator context [`Gen`] that
//! draws its inputs and asserts with
//! [`prop_assert!`](crate::prop_assert!)/[`prop_assert_eq!`](crate::prop_assert_eq!),
//! discarding uninteresting cases with
//! [`prop_assume!`](crate::prop_assume!).
//!
//! ```
//! use tradefl_runtime::{prop_assert, props};
//!
//! props! {
//!     #![cases = 32]
//!
//!     fn addition_commutes(g) {
//!         let a = g.f64(-1e6..1e6);
//!         let b = g.f64(-1e6..1e6);
//!         prop_assert!(a + b == b + a, "{a} + {b}");
//!     }
//! }
//! ```
//!
//! (The macro expands to ordinary `#[test]` functions, so properties
//! run under `cargo test` like any other test.)
//!
//! **Determinism & replay.** Every case seed derives from a pinned
//! base seed and the property's name, so runs are bit-identical across
//! machines and time. When a case fails, the panic message names the
//! case seed; re-run just that case with
//! `TRADEFL_PROP_SEED=<seed> cargo test <property_name>` (and
//! optionally `TRADEFL_PROP_SIZE=<f64>`).
//!
//! **Structural shrinking.** Every draw a case makes is recorded on a
//! *tape* of raw 64-bit generator outputs. On failure the harness
//! mutates the tape — truncating it (which shortens generated
//! vectors), zeroing entries (which zeroes fields), halving and
//! decrementing entries — and replays the property through the
//! mutated tape ([`Gen::from_tape`]), keeping every mutation that
//! still fails. The greedy descent ends at a local minimum: a
//! counterexample where no single truncation, zeroed field, halved or
//! decremented draw still exhibits the failure (see [`shrink`]).
//! Exhausted tapes read as zeros, so shorter tapes are always
//! well-defined.

use crate::rng::{Rng, SampleRange, SeedableRng, StdRng};
use std::ops::{Range, RangeInclusive};

/// Default number of cases per property (matching the budget the
/// previous proptest suites used most).
pub const DEFAULT_CASES: u32 = 32;

/// Pinned base seed; never derived from time or environment, so the
/// suite is reproducible by construction.
pub const BASE_SEED: u64 = 0x7452_6144_6546_4c31; // "TrRaDeFL1"

/// Why a case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseFail {
    /// The case's preconditions did not hold
    /// ([`prop_assume!`](crate::prop_assume!)); the harness draws a
    /// replacement case.
    Discard,
    /// A property assertion failed with this message.
    Fail(String),
}

impl CaseFail {
    /// Constructs the failing variant (used by the assertion macros).
    pub fn fail(msg: String) -> Self {
        CaseFail::Fail(msg)
    }
}

/// Outcome of one property case.
pub type CaseResult = Result<(), CaseFail>;

/// Where a [`Gen`]'s raw 64-bit draws come from.
#[derive(Debug)]
enum Source {
    /// Live generation: draws come from the seeded [`StdRng`] and are
    /// recorded on the tape for shrinking.
    Record { rng: StdRng, tape: Vec<u64> },
    /// Shrink replay: draws come off a (mutated) tape; an exhausted
    /// tape reads as zeros.
    Replay { tape: Vec<u64>, pos: usize },
}

impl Source {
    fn draw(&mut self) -> u64 {
        match self {
            Source::Record { rng, tape } => {
                let v = rng.next_u64();
                tape.push(v);
                v
            }
            Source::Replay { tape, pos } => {
                let v = tape.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                v
            }
        }
    }
}

/// Generator context handed to each property case.
///
/// All draws go through a deterministic source (a seeded [`StdRng`],
/// recorded on a shrink tape, or a replayed tape)
/// and are scaled by the case's *size* in `(0, 1]`: at size 1 every
/// range is sampled in full; at smaller sizes ranges contract toward
/// their start and collections toward their minimum length.
#[derive(Debug)]
pub struct Gen {
    source: Source,
    size: f64,
}

/// Borrowed [`Rng`] view over a [`Gen`]'s draw source: every
/// `next_u64` goes through the tape machinery, so code that takes a
/// generic `Rng` still records/replays coherently.
#[derive(Debug)]
pub struct GenRng<'a>(&'a mut Source);

impl Rng for GenRng<'_> {
    fn next_u64(&mut self) -> u64 {
        self.0.draw()
    }
}

impl Gen {
    /// A live (recording) generator for one case.
    pub fn new(seed: u64, size: f64) -> Self {
        Gen {
            source: Source::Record { rng: StdRng::seed_from_u64(seed), tape: Vec::new() },
            size: size.clamp(0.001, 1.0),
        }
    }

    /// A generator replaying a shrink tape; draws past the end of the
    /// tape read as zeros.
    pub fn from_tape(tape: &[u64], size: f64) -> Self {
        Gen {
            source: Source::Replay { tape: tape.to_vec(), pos: 0 },
            size: size.clamp(0.001, 1.0),
        }
    }

    /// The size factor this case runs at.
    pub fn size(&self) -> f64 {
        self.size
    }

    /// The raw draws made so far (the shrink tape).
    pub fn tape(&self) -> &[u64] {
        match &self.source {
            Source::Record { tape, .. } => tape,
            Source::Replay { tape, .. } => tape,
        }
    }

    /// Access to the underlying generator as an [`Rng`] (for calling
    /// code that takes a generic generator). Draws made through it are
    /// recorded/replayed like any other.
    pub fn rng(&mut self) -> GenRng<'_> {
        GenRng(&mut self.source)
    }

    /// Uniform `f64` from a range, contracted by size.
    pub fn f64<R: ScaledRange<f64>>(&mut self, range: R) -> f64 {
        let size = self.size;
        range.scaled(size).sample_from(&mut self.rng())
    }

    /// Uniform `f32` from a half-open range, contracted by size.
    pub fn f32(&mut self, range: Range<f32>) -> f32 {
        let lo = range.start as f64;
        let hi = range.end as f64;
        self.f64(lo..hi) as f32
    }

    /// Uniform `usize` from a range, contracted by size.
    pub fn usize<R: ScaledRange<usize>>(&mut self, range: R) -> usize {
        let size = self.size;
        range.scaled(size).sample_from(&mut self.rng())
    }

    /// Uniform `u64` from a range, contracted by size.
    pub fn u64<R: ScaledRange<u64>>(&mut self, range: R) -> u64 {
        let size = self.size;
        range.scaled(size).sample_from(&mut self.rng())
    }

    /// Any `u64` (full width at size 1).
    pub fn any_u64(&mut self) -> u64 {
        if self.size >= 1.0 {
            self.rng().next_u64()
        } else {
            self.u64(0..=(u64::MAX as f64 * self.size) as u64)
        }
    }

    /// Any `u8` (size leaves the 256-value space alone; it is already
    /// minimal).
    // lint:allow(unreferenced-pub-fn): a property-test generator: the framework's callers are tests by design
    pub fn any_u8(&mut self) -> u8 {
        (self.rng().next_u64() >> 56) as u8
    }

    /// Bernoulli draw.
    pub fn bool(&mut self, p: f64) -> bool {
        self.rng().gen_bool(p)
    }

    /// A vector whose length is drawn from `len`, elements from `f`.
    pub fn vec<T, R: ScaledRange<usize>>(
        &mut self,
        len: R,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Ranges that contract toward their start under a size factor.
pub trait ScaledRange<T>: SampleRange<T> {
    /// The contracted range (identity at `size = 1`).
    fn scaled(self, size: f64) -> Self;
}

impl ScaledRange<f64> for Range<f64> {
    fn scaled(self, size: f64) -> Self {
        if size >= 1.0 {
            return self;
        }
        let hi = self.start + (self.end - self.start) * size;
        // Keep the range non-empty: f64 ranges stay above start.
        self.start..hi.max(self.start + (self.end - self.start) * 1e-6)
    }
}

impl ScaledRange<f64> for RangeInclusive<f64> {
    fn scaled(self, size: f64) -> Self {
        if size >= 1.0 {
            return self;
        }
        let (lo, hi) = (*self.start(), *self.end());
        lo..=(lo + (hi - lo) * size)
    }
}

macro_rules! impl_scaled_int {
    ($($t:ty),*) => {$(
        impl ScaledRange<$t> for Range<$t> {
            fn scaled(self, size: f64) -> Self {
                if size >= 1.0 {
                    return self;
                }
                let span = (self.end - self.start) as f64;
                let hi = self.start + ((span * size).ceil() as $t).max(1);
                self.start..hi.min(self.end)
            }
        }
        impl ScaledRange<$t> for RangeInclusive<$t> {
            fn scaled(self, size: f64) -> Self {
                if size >= 1.0 {
                    return self;
                }
                let (lo, hi) = (*self.start(), *self.end());
                let span = (hi - lo) as f64;
                lo..=(lo + (span * size).ceil() as $t).min(hi)
            }
        }
    )*};
}

impl_scaled_int!(usize, u64);

/// Budget of property evaluations one shrink search may spend.
const MAX_SHRINK_EVALS: usize = 10_000;

/// A structurally shrunk counterexample (see [`shrink`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shrunk {
    /// The minimized draw tape; replay it with [`Gen::from_tape`].
    pub tape: Vec<u64>,
    /// The failure message the minimized case produces.
    pub msg: String,
    /// Property evaluations the search spent.
    pub evals: usize,
}

/// Shrinks the failing case at `seed` toward a minimal counterexample.
///
/// Records the failing run's draw tape, then greedily applies
/// failure-preserving mutations — truncate the tape (halving first,
/// which halves generated vectors), zero an entry (zeroing the field
/// it feeds), halve an entry, decrement an entry — restarting the
/// scan after each accepted mutation. Returns `None` when the case
/// does not fail (nothing to shrink). Deterministic: same property +
/// seed, same result.
pub fn shrink(prop: &impl Fn(&mut Gen) -> CaseResult, seed: u64) -> Option<Shrunk> {
    let mut g = Gen::new(seed, 1.0);
    let mut msg = match prop(&mut g) {
        Err(CaseFail::Fail(m)) => m,
        _ => return None,
    };
    let mut tape = g.tape().to_vec();
    let evals = std::cell::Cell::new(0usize);
    let fails = |tape: &[u64]| -> Option<String> {
        evals.set(evals.get() + 1);
        match prop(&mut Gen::from_tape(tape, 1.0)) {
            Err(CaseFail::Fail(m)) => Some(m),
            _ => None,
        }
    };

    'outer: while evals.get() < MAX_SHRINK_EVALS {
        // Pass 1 — truncation ladder (aggressive first): len/2,
        // 3·len/4, 7·len/8, len−1.
        let len = tape.len();
        let mut cuts: Vec<usize> = [2usize, 4, 8]
            .iter()
            .map(|d| len - len / d)
            .chain(std::iter::once(len.saturating_sub(1)))
            .filter(|&c| c < len)
            .collect();
        cuts.dedup();
        for cut in cuts {
            if let Some(m) = fails(&tape[..cut]) {
                tape.truncate(cut);
                msg = m;
                continue 'outer;
            }
            if evals.get() >= MAX_SHRINK_EVALS {
                break 'outer;
            }
        }
        // Pass 2 — per-entry reductions: zero, halve, geometric step
        // (−1/8 — keeps descent O(log value) when halving overshoots
        // but smaller steps still fail), and, for already-small
        // entries, decrement. Decrement is what pins exact integer
        // minima, but on a large raw entry it is O(value): a 2^60
        // entry whose −1 neighbor still fails (e.g. a probability
        // that barely moves) would eat the whole eval budget one
        // accept at a time, so it only applies below a cap that the
        // geometric ladder reaches quickly.
        const DECREMENT_CAP: u64 = 1 << 16;
        for i in 0..tape.len() {
            let orig = tape[i];
            if orig == 0 {
                continue;
            }
            let decrement = if orig <= DECREMENT_CAP { Some(orig - 1) } else { None };
            for cand in
                [Some(0), Some(orig / 2), Some(orig - orig / 8), decrement].into_iter().flatten()
            {
                if cand == orig {
                    continue;
                }
                tape[i] = cand;
                if let Some(m) = fails(&tape) {
                    msg = m;
                    continue 'outer;
                }
                if evals.get() >= MAX_SHRINK_EVALS {
                    tape[i] = orig;
                    break 'outer;
                }
            }
            tape[i] = orig;
        }
        break; // Local minimum: no mutation still fails.
    }
    // Trailing zeros are indistinguishable from an exhausted tape.
    while tape.last() == Some(&0) {
        tape.pop();
    }
    Some(Shrunk { tape, msg, evals: evals.get() })
}

/// Runs `cases` cases of a property, panicking with a replayable
/// report on the first failure.
///
/// # Panics
///
/// Panics when a case fails (after shrinking), or when the discard
/// budget (`cases * 16`) is exhausted — mirroring proptest's behavior
/// so over-restrictive `prop_assume!` filters are caught.
pub fn run_prop(name: &str, cases: u32, prop: impl Fn(&mut Gen) -> CaseResult) {
    // Replay path: one exact case, no search.
    if let Some(seed) = env_u64("TRADEFL_PROP_SEED") {
        let size = env_f64("TRADEFL_PROP_SIZE").unwrap_or(1.0);
        if let Err(CaseFail::Fail(msg)) = prop(&mut Gen::new(seed, size)) {
            // lint:allow(no-panic-in-lib): panicking is how the property harness fails a test
            panic!(
                "property '{name}' failed on replay \
                 (TRADEFL_PROP_SEED={seed:#x}, size {size}): {msg}"
            );
        }
        return;
    }

    let base = BASE_SEED ^ fnv1a(name.as_bytes());
    let mut discards: u64 = 0;
    let max_discards = cases as u64 * 16;
    let mut case: u64 = 0;
    let mut passed: u32 = 0;
    while passed < cases {
        let seed = mix(base.wrapping_add(case));
        case += 1;
        match prop(&mut Gen::new(seed, 1.0)) {
            Ok(()) => passed += 1,
            Err(CaseFail::Discard) => {
                discards += 1;
                assert!(
                    discards <= max_discards,
                    "property '{name}': discard budget exhausted \
                     ({discards} discards for {passed}/{cases} cases) — \
                     prop_assume! filters are too restrictive"
                );
            }
            Err(CaseFail::Fail(msg)) => {
                let shrunk_line = match shrink(&prop, seed) {
                    Some(s) if s.msg != msg => format!(
                        "\nshrunk to minimal counterexample \
                         ({} tape entries, {} evals): {}",
                        s.tape.len(),
                        s.evals,
                        s.msg
                    ),
                    Some(s) => format!(
                        "\nalready minimal ({} tape entries, {} shrink evals)",
                        s.tape.len(),
                        s.evals
                    ),
                    None => String::new(),
                };
                // lint:allow(no-panic-in-lib): panicking is how the property harness fails a test
                panic!(
                    "property '{name}' failed (case {case}, seed {seed:#x}): \
                     {msg}{shrunk_line}\n\
                     replay: TRADEFL_PROP_SEED={seed:#x} cargo test {name}"
                );
            }
        }
    }
}

/// FNV-1a over bytes — stable property-name hashing (std's `Hasher`
/// is not guaranteed stable across releases).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — decorrelates sequential case indices.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// A set-but-malformed replay variable panics instead of being
// ignored: silently falling back to the normal search would make the
// user believe they replayed the failing case.
fn env_u64(key: &str) -> Option<u64> {
    let raw = std::env::var(key).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    };
    Some(parsed.unwrap_or_else(|| {
        // lint:allow(no-panic-in-lib): a garbled replay env var in a dev harness should fail loudly
        panic!("{key}={raw:?} is not a u64 (use decimal or 0x-prefixed hex)")
    }))
}

fn env_f64(key: &str) -> Option<f64> {
    let raw = std::env::var(key).ok()?;
    let raw = raw.trim();
    // lint:allow(no-panic-in-lib): a garbled replay env var in a dev harness should fail loudly
    Some(raw.parse().unwrap_or_else(|_| panic!("{key}={raw:?} is not a number")))
}

/// Declares seeded property tests. See the [module docs](self) for the
/// shape; an optional `#![cases = N]` header sets the per-property
/// case count (default [`DEFAULT_CASES`]).
#[macro_export]
macro_rules! props {
    (#![cases = $cases:expr] $($rest:tt)*) => {
        $crate::__props_internal! { $cases; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__props_internal! { $crate::check::DEFAULT_CASES; $($rest)* }
    };
}

/// Implementation detail of [`props!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __props_internal {
    ($cases:expr; $( $(#[$meta:meta])* fn $name:ident($g:ident) $body:block )*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                $crate::check::run_prop(
                    stringify!($name),
                    $cases,
                    |$g: &mut $crate::check::Gen| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Asserts a condition inside a property, failing the case (not the
/// process) so the harness can shrink and report a replay seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::check::CaseFail::fail(format!(
                "assertion failed at {}:{}: {}",
                file!(),
                line!(),
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::check::CaseFail::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property (see
/// [`prop_assert!`](crate::prop_assert!)).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err($crate::check::CaseFail::fail(format!(
                "equality failed at {}:{}: {:?} != {:?}",
                file!(),
                line!(),
                lhs,
                rhs
            )));
        }
    }};
}

/// Discards the current case when its precondition does not hold; the
/// harness draws a replacement (bounded by the discard budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::check::CaseFail::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        run_prop("always_true", 10, |g| {
            let _ = g.f64(0.0..1.0);
            counter.set(counter.get() + 1);
            Ok(())
        });
        count += counter.get();
        assert_eq!(count, 10);
    }

    #[test]
    fn failing_property_panics_with_replay_seed() {
        let result = std::panic::catch_unwind(|| {
            run_prop("always_false", 10, |_| {
                Err(CaseFail::Fail("boom".into()))
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("TRADEFL_PROP_SEED"), "replay hint in: {msg}");
        assert!(msg.contains("boom"), "original message in: {msg}");
    }

    #[test]
    fn discard_budget_is_enforced() {
        let result = std::panic::catch_unwind(|| {
            run_prop("discards_everything", 4, |_| Err(CaseFail::Discard));
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("discard budget"), "{msg}");
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            run_prop("deterministic", 8, |g| {
                seen.borrow_mut().push((g.any_u64(), g.usize(0..100)));
                Ok(())
            });
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn sizes_contract_generator_ranges() {
        let mut big = Gen::new(7, 1.0);
        let mut small = Gen::new(7, 0.05);
        for _ in 0..100 {
            assert!(big.f64(0.0..1000.0) < 1000.0);
            assert!(small.f64(0.0..1000.0) <= 50.0 + 1e-9);
            assert!(small.usize(0..100) <= 5);
        }
    }

    #[test]
    fn vec_lengths_follow_the_requested_range() {
        let mut g = Gen::new(11, 1.0);
        for _ in 0..50 {
            let v = g.vec(2..6usize, |g| g.any_u8());
            assert!((2..6).contains(&v.len()));
        }
    }

    // ---- structural shrinking ------------------------------------------

    /// Fails iff `x >= 10 && y >= 1`: the unique minimal counterexample
    /// is `(10, 1)`.
    fn scalar_prop(g: &mut Gen) -> CaseResult {
        let x = g.u64(0..1000);
        let y = g.u64(0..1000);
        if x >= 10 && y >= 1 {
            return Err(CaseFail::fail(format!("x={x} y={y}")));
        }
        Ok(())
    }

    fn failing_seed(prop: impl Fn(&mut Gen) -> CaseResult) -> u64 {
        (0..10_000u64)
            .find(|&s| matches!(prop(&mut Gen::new(s, 1.0)), Err(CaseFail::Fail(_))))
            .expect("some seed fails")
    }

    #[test]
    fn shrink_pins_the_minimal_scalar_counterexample() {
        let seed = failing_seed(scalar_prop);
        let s = shrink(&scalar_prop, seed).expect("the seed fails, so shrink reports");
        assert_eq!(s.msg, "x=10 y=1", "greedy descent reaches the unique minimum");
        assert!(s.evals <= MAX_SHRINK_EVALS);
        // The shrunk tape replays to the same failure.
        assert_eq!(
            scalar_prop(&mut Gen::from_tape(&s.tape, 1.0)),
            Err(CaseFail::fail("x=10 y=1".into()))
        );
    }

    #[test]
    fn shrink_halves_vectors_toward_minimal_length() {
        // Fails while the vector has >= 3 elements; minimal failing
        // length is exactly 3.
        let prop = |g: &mut Gen| {
            let v = g.vec(0..40usize, |g| g.u64(0..100));
            if v.len() >= 3 {
                return Err(CaseFail::fail(format!("len={}", v.len())));
            }
            Ok(())
        };
        let seed = failing_seed(prop);
        let s = shrink(&prop, seed).expect("seed fails");
        assert_eq!(s.msg, "len=3");
    }

    #[test]
    fn shrink_zeroes_irrelevant_fields() {
        // Only the first draw matters; shrinking must zero the noise
        // draws so the tape strips down to a single entry.
        let prop = |g: &mut Gen| {
            let x = g.u64(0..1000);
            let _noise = (g.any_u64(), g.any_u64(), g.any_u64());
            if x >= 1 {
                return Err(CaseFail::fail(format!("x={x}")));
            }
            Ok(())
        };
        let seed = failing_seed(prop);
        let s = shrink(&prop, seed).expect("seed fails");
        assert_eq!(s.msg, "x=1");
        assert_eq!(s.tape.len(), 1, "noise draws shrink away: {:?}", s.tape);
    }

    #[test]
    fn shrink_returns_none_for_passing_cases() {
        assert_eq!(shrink(&|_| Ok(()), 1), None);
        assert_eq!(shrink(&|_| Err(CaseFail::Discard), 1), None);
    }

    #[test]
    fn shrink_is_deterministic() {
        let seed = failing_seed(scalar_prop);
        assert_eq!(shrink(&scalar_prop, seed), shrink(&scalar_prop, seed));
    }

    #[test]
    fn failure_report_includes_the_shrunk_counterexample() {
        let result = std::panic::catch_unwind(|| {
            run_prop("shrinks_to_minimum", 5, |g| scalar_prop(g));
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("x=10 y=1"), "shrunk counterexample in: {msg}");
        assert!(msg.contains("TRADEFL_PROP_SEED"), "replay hint in: {msg}");
    }

    #[test]
    fn tape_replay_reads_zeros_past_the_end() {
        let mut g = Gen::from_tape(&[], 1.0);
        assert_eq!(g.u64(0..100), 0);
        assert_eq!(g.usize(5..50), 5);
        assert!(g.bool(0.5), "a zero draw maps to gen_f64() == 0.0 < p");
    }

    #[test]
    fn recorded_tape_replays_identically() {
        let draw_all = |g: &mut Gen| (g.u64(0..1000), g.f64(0.0..1.0), g.vec(0..9usize, |g| g.any_u8()));
        let mut live = Gen::new(42, 1.0);
        let a = draw_all(&mut live);
        let mut replay = Gen::from_tape(live.tape(), 1.0);
        let b = draw_all(&mut replay);
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-12);
        assert_eq!(a.2, b.2);
    }

    props! {
        #![cases = 8]

        /// The macro surface compiles and runs end to end.
        fn props_macro_smoke(g) {
            let a = g.f64(0.0..=1.0);
            let v = g.vec(1..4usize, |g| g.usize(0..10));
            prop_assume!(!v.is_empty());
            prop_assert!((0.0..=1.0).contains(&a));
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
