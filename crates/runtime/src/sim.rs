//! Deterministic simulation substrate: simulated time, a totally
//! ordered event queue, bounded (backpressure) queues, and stateless
//! Poisson arrival streams.
//!
//! This module is the foundation of the `tradefl-engine` event-loop
//! executor and its deterministic-simulation-testing (DST) harness.
//! The design constraints are the workspace's usual ones, sharpened by
//! the need to *checkpoint and resume* a live simulation:
//!
//! * **No wall clock.** Time is a logical tick counter ([`SimTime`]),
//!   exactly like the per-subsystem logical clocks in [`crate::obs`];
//!   the `no-wallclock` lint holds by construction.
//! * **Total event order.** Every scheduled event is keyed by
//!   `(time, tiebreak, seq)` where `seq` is a monotone insertion
//!   counter and `tiebreak` is a seeded hash of `seq` — simultaneous
//!   events fire in a pseudo-random but fully reproducible order that
//!   does not silently encode insertion order (see
//!   [`EventQueue::push`]).
//! * **Stateless randomness.** Every stochastic draw (tiebreaks,
//!   arrival gaps, fault decisions in [`faults`]) is a pure function
//!   of `(seed, counter)`. A checkpoint therefore only needs to record
//!   a handful of counters to resume *bit-identically* — no generator
//!   state ever needs serializing.

use crate::rng::{Rng, SeedableRng, StdRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

pub mod faults;

/// Simulated time in logical ticks. Starts at 0; only event delivery
/// advances it.
pub type SimTime = u64;

/// SplitMix64 finalizer — the workspace's standard stateless mixer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent substream seed from a root seed and a stream
/// label (used by the engine to give arrivals, faults, and tiebreaks
/// decorrelated randomness from one user-facing seed).
pub fn substream(seed: u64, label: u64) -> u64 {
    mix(seed ^ mix(label).rotate_left(17))
}

/// One queued event with its total-order key.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    tiebreak: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64, u64) {
        (self.time, self.tiebreak, self.seq)
    }
}

// Orderings compare keys only (events carry no order); reversed so the
// std max-heap pops the *smallest* key first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A totally ordered, seeded event queue over simulated time.
///
/// Events scheduled for the same tick fire in an order decided by a
/// seeded tiebreak (not insertion order), so two code paths that
/// happen to schedule in a different sequence still produce the same
/// executions for the same seed — and DST runs explore *different*
/// same-tick interleavings under different seeds.
///
/// ```
/// use tradefl_runtime::sim::EventQueue;
///
/// let mut q = EventQueue::new(42);
/// q.push(5, "b");
/// q.push(3, "a");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (3, "a"));
/// assert_eq!(q.now(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    seed: u64,
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Entry<E>>,
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0. `seed` drives same-tick tie-breaking.
    pub fn new(seed: u64) -> Self {
        Self { seed, now: 0, seq: 0, heap: BinaryHeap::new() }
    }

    /// Current simulated time (the timestamp of the last popped
    /// event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `time` (clamped to `now`:
    /// the past is not addressable). Returns the entry's sequence
    /// number.
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        let tiebreak = mix(self.seed ^ seq);
        self.heap.push(Entry { time: time.max(self.now), tiebreak, seq, event });
        seq
    }

    /// Schedules `event` `dt` ticks from now.
    pub fn push_in(&mut self, dt: SimTime, event: E) -> u64 {
        self.push(self.now.saturating_add(dt), event)
    }

    /// Pops the next event in `(time, tiebreak, seq)` order, advancing
    /// the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The next sequence number (monotone event counter) — part of a
    /// checkpoint, restored via [`EventQueue::restore`].
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Pending entries as `(time, tiebreak, seq, event)` in canonical
    /// (firing) order — the checkpointable view of the queue.
    pub fn pending(&self) -> Vec<(SimTime, u64, u64, &E)> {
        let mut entries: Vec<_> = self
            .heap
            .iter()
            .map(|e| (e.time, e.tiebreak, e.seq, &e.event))
            .collect();
        entries.sort_by_key(|&(t, tb, s, _)| (t, tb, s));
        entries
    }

    /// Rebuilds a queue from checkpointed state: clock, next sequence
    /// number, and the pending entries exactly as [`EventQueue::pending`]
    /// reported them (tiebreaks are re-derived; they are a pure
    /// function of `seed ^ seq`).
    pub fn restore(
        seed: u64,
        now: SimTime,
        next_seq: u64,
        entries: impl IntoIterator<Item = (SimTime, u64, E)>,
    ) -> Self {
        let mut q = Self { seed, now, seq: next_seq, heap: BinaryHeap::new() };
        for (time, seq, event) in entries {
            let tiebreak = mix(seed ^ seq);
            q.heap.push(Entry { time, tiebreak, seq, event });
        }
        q
    }
}

/// A bounded FIFO queue — the backpressure primitive.
///
/// `push` refuses (returning the item) rather than grow past the
/// capacity; callers decide whether to retry later, shed load, or
/// count a deferral.
#[derive(Debug, Clone)]
pub struct Bounded<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// An empty queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self { items: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// The capacity limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Enqueues `item`, or returns it when the queue is full.
    ///
    /// # Errors
    ///
    /// `Err(item)` when at capacity — the caller keeps ownership and
    /// decides how to apply backpressure.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Iterates oldest-first (checkpointing).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

/// A stateless Poisson (exponential inter-arrival) stream.
///
/// The gap before arrival `k` is a pure function of
/// `(seed, stream, k)`: open-loop generators can be resumed from a
/// checkpoint by remembering only `k`.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    seed: u64,
    stream: u64,
    mean: f64,
}

impl Poisson {
    /// A stream with the given mean inter-arrival time in ticks
    /// (clamped to ≥ 1).
    pub fn new(seed: u64, stream: u64, mean_ticks: f64) -> Self {
        Self { seed, stream, mean: mean_ticks.max(1.0) }
    }

    /// The inter-arrival gap before arrival `k` (≥ 1 tick).
    pub fn gap(&self, k: u64) -> SimTime {
        let mut rng = StdRng::seed_from_u64(substream(self.seed, self.stream) ^ mix(k));
        // Inverse-CDF exponential; (1 - u) keeps ln away from 0.
        let u = rng.gen_f64();
        let gap = -(1.0 - u).max(f64::EPSILON).ln() * self.mean;
        (gap.ceil() as u64).clamp(1, u64::MAX / 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new(1);
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn same_tick_order_is_seeded_and_reproducible() {
        let run = |seed| {
            let mut q = EventQueue::new(seed);
            for label in 0..8 {
                q.push(5, label);
            }
            std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect::<Vec<i32>>()
        };
        assert_eq!(run(7), run(7), "same seed, same interleaving");
        assert_ne!(run(7), run(8), "different seeds explore different interleavings");
    }

    #[test]
    fn push_clamps_to_now() {
        let mut q = EventQueue::new(0);
        q.push(10, "late");
        q.pop();
        q.push(3, "would-be-past");
        assert_eq!(q.pop(), Some((10, "would-be-past")));
    }

    #[test]
    fn pending_and_restore_round_trip() {
        let mut q = EventQueue::new(99);
        q.push(4, "x");
        q.push(2, "y");
        q.push(4, "z");
        q.pop();
        let pending: Vec<(SimTime, u64, String)> =
            q.pending().into_iter().map(|(t, _, s, e)| (t, s, e.to_string())).collect();
        let mut restored = EventQueue::restore(
            99,
            q.now(),
            q.next_seq(),
            pending.into_iter().map(|(t, s, e)| (t, s, e)),
        );
        let rest_a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let rest_b: Vec<_> =
            std::iter::from_fn(|| restored.pop()).map(|(t, e)| (t, e.to_string())).collect();
        let rest_a: Vec<_> = rest_a.into_iter().map(|(t, e)| (t, e.to_string())).collect();
        assert_eq!(rest_a, rest_b);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let mut q = Bounded::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3), "full queue hands the item back");
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok());
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn poisson_gaps_are_stateless_and_positive() {
        let p = Poisson::new(11, 3, 40.0);
        for k in 0..200 {
            assert!(p.gap(k) >= 1);
            assert_eq!(p.gap(k), p.gap(k), "pure function of (seed, stream, k)");
        }
        // Mean roughly matches the requested rate (loose sanity band).
        let mean = (0..2000).map(|k| p.gap(k) as f64).sum::<f64>() / 2000.0;
        assert!((20.0..80.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn substreams_decorrelate() {
        assert_ne!(substream(1, 0), substream(1, 1));
        assert_ne!(substream(1, 0), substream(2, 0));
    }
}
