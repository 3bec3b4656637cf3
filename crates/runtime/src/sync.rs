//! Synchronization primitives over `std::sync`, with the
//! `parking_lot`-style ergonomics the workspace uses: `lock()` returns
//! its guard directly instead of a `Result`.
//!
//! Lock poisoning is deliberately transparent: a panic while holding a
//! lock does not brick every other holder. What the workspace guards
//! with [`crate::sync::Mutex`] — the `obs` recorder's buffers and maps
//! and the [`pool`]'s task queue — is changed by one push, pop or
//! insert per critical section, so it is consistent whenever a lock is
//! released; and the pool joins a panicked thread and re-raises its
//! payload on the caller, which poisoning would only turn into a
//! cascade of secondary panics. Continuing after an unwinding panic is
//! therefore sound here — the rationale `parking_lot` applies globally.
//!
//! The [`pool`] submodule holds the fork-join pool the FedAvg round,
//! the DBR payoff trace, γ tuning's candidate solves and the synthetic
//! dataset generator run on.

pub mod pool;

use std::sync::PoisonError;

/// A mutual-exclusion lock whose `lock()` never returns `Err`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`]; releases on drop.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wraps a value in a new mutex.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Poison-transparent.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trips() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }
}
