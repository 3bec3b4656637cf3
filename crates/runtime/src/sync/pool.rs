//! A zero-dependency fixed-width fork-join pool.
//!
//! [`Pool::scope`] collects the tasks its body spawns, then runs them:
//! on the calling thread when there is one task or one worker,
//! otherwise on `min(workers, tasks)` threads that pop from one shared
//! queue until it is empty. Most callers queue at most one task per
//! worker (FedAvg's edge-group window, DBR's payoff-trace chunks, the
//! synthetic dataset generator's row chunks). γ tuning queues one task
//! per candidate, more than the workers on its grid pass (4 candidates
//! on 2 workers for `tune_n10000`); a thread that finishes pops the
//! next one. Nothing here balances load beyond that shared queue.
//!
//! Two deliberate design points, both downstream of the workspace's
//! `#![forbid(unsafe_code)]`:
//!
//! * **Scoped threads, not resident ones.** A resident pool running
//!   closures that borrow the caller's stack requires lifetime erasure
//!   (`unsafe`). Instead every scope that fans out stands up its
//!   threads inside [`std::thread::scope`], which makes borrowed tasks
//!   sound for free. Spawn cost (~tens of µs per thread) is noise for
//!   the FL and solver tasks this pool serves, which run for hundreds
//!   of µs to ms, and a scope never starts more threads than it has
//!   tasks.
//! * **Determinism is the caller's contract, not the scheduler's.**
//!   Task *execution order* is nondeterministic; callers give each
//!   task its own output slot and merge slots positionally, so their
//!   results are bit-identical for every worker count, including 1.
//!   This is the threading contract `tests/determinism.rs` pins.
//!
//! Worker count resolution: `TRADEFL_THREADS` (clamped to `1..=256`)
//! overrides [`std::thread::available_parallelism`] for
//! [`Pool::global`].
//!
//! # Panics
//!
//! A panicking task does not hang the pool: every thread is joined,
//! and the first panic's **original payload** is re-raised on the
//! calling thread.

use super::Mutex;
use std::panic::resume_unwind;
use std::sync::OnceLock;

/// A boxed unit of work queued on the pool.
type Task<'t> = Box<dyn FnOnce() + Send + 't>;

/// Fork-join pool handle. Cheap to create; threads are stood up per
/// [`Pool::scope`] call (see the module docs for why).
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
}

/// Spawn handle passed to the closure of [`Pool::scope`].
pub struct PoolScope<'t> {
    queue: Mutex<Vec<Task<'t>>>,
}

impl std::fmt::Debug for PoolScope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolScope").finish_non_exhaustive()
    }
}

impl<'t> PoolScope<'t> {
    /// Queues `task`; it runs after the scope body returns. Tasks may
    /// borrow anything that outlives the [`Pool::scope`] call.
    pub fn spawn(&self, task: impl FnOnce() + Send + 't) {
        self.queue.lock().push(Box::new(task));
    }

    /// Pops and runs tasks until the queue is empty. The pop is its own
    /// statement so the lock is released before the task runs.
    fn drain(&self) {
        loop {
            let task = self.queue.lock().pop();
            match task {
                Some(task) => task(),
                None => return,
            }
        }
    }
}

/// The host's available hardware parallelism — the sanctioned wrapper
/// around [`std::thread::available_parallelism`] for everything in the
/// workspace (pool sizing, bench metadata). Falls back to `1` when the
/// OS cannot answer, so the result is always a usable worker count.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Pool {
    /// A pool handle whose scopes run on at most `workers` threads
    /// (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool { workers: workers.max(1) }
    }

    /// The process-wide pool: `TRADEFL_THREADS` if set, else
    /// [`host_parallelism`]. Resolved once.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Pool::new(
                thread_override(std::env::var("TRADEFL_THREADS").ok().as_deref())
                    .unwrap_or_else(host_parallelism),
            )
        })
    }

    /// Most threads a scope of this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `body` with a spawn handle, then every task it spawned;
    /// all of them complete before `scope` returns. One task, or a
    /// one-worker pool, runs on the calling thread. Otherwise
    /// `min(workers, tasks)` threads share the queue, and the scope
    /// adds its task count to the `pool.tasks_executed` counter from
    /// the calling thread. The first task panic is re-raised here with
    /// its original payload once every thread has been joined.
    pub fn scope<'t, R>(&self, body: impl FnOnce(&PoolScope<'t>) -> R) -> R {
        let scope = PoolScope { queue: Mutex::new(Vec::new()) };
        let out = body(&scope);
        let tasks = scope.queue.lock().len();
        let threads = self.workers.min(tasks);
        if threads <= 1 {
            scope.queue.into_inner().into_iter().for_each(|task| task());
            return out;
        }
        let panic = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| scope.drain())).collect();
            // `or` joins every handle, so none is left for
            // `thread::scope` to re-raise with a generic message.
            handles.into_iter().fold(None, |first, h| first.or(h.join().err()))
        });
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        crate::obs::counter_add("pool.tasks_executed", tasks as u64);
        out
    }
}

/// Parses a `TRADEFL_THREADS` value (whitespace tolerated), clamping
/// the result to `1..=256`: `"0"` means "explicitly serial" and lands
/// on 1 worker — it must never produce a 0-worker pool *or* silently
/// fall through to the detected parallelism, which would make
/// `TRADEFL_THREADS=0` run many-threaded. Unset, empty, or unparsable
/// values return `None` (the caller falls back to the detected
/// parallelism).
pub fn thread_override(raw: Option<&str>) -> Option<usize> {
    let n: usize = raw?.trim().parse().ok()?;
    Some(n.clamp(1, 256))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn host_parallelism_is_a_usable_worker_count() {
        assert!(host_parallelism() >= 1);
    }

    #[test]
    fn scope_runs_each_task_once_on_at_most_workers_threads() {
        // Every task waits at a 3-party barrier, so the scope finishes
        // only if three tasks run at once; the high-water mark shows
        // no fourth one ever does.
        let pool = Pool::new(3);
        let runs: Vec<AtomicUsize> = (0..24).map(|_| AtomicUsize::new(0)).collect();
        let (running, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let barrier = std::sync::Barrier::new(3);
        pool.scope(|s| {
            for run in &runs {
                let (running, high_water, barrier) = (&running, &high_water, &barrier);
                s.spawn(move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    high_water.fetch_max(now, Ordering::SeqCst);
                    barrier.wait();
                    run.fetch_add(1, Ordering::SeqCst);
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "every task ran once");
        assert_eq!(high_water.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn one_task_and_one_worker_scopes_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        Pool::new(4).scope(|s| s.spawn(|| ran_on.lock().push(std::thread::current().id())));
        Pool::new(1).scope(|s| {
            for _ in 0..3 {
                s.spawn(|| ran_on.lock().push(std::thread::current().id()));
            }
        });
        assert_eq!(ran_on.into_inner(), vec![caller; 4]);
    }

    #[test]
    fn panic_payload_is_propagated_verbatim() {
        let pool = Pool::new(3);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..8 {
                    s.spawn(move || {
                        if i == 5 {
                            std::panic::panic_any(String::from("original payload 5"));
                        }
                    });
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("payload type preserved");
        assert_eq!(msg, "original payload 5");
    }

    #[test]
    fn panic_in_scope_body_does_not_hang_workers() {
        let pool = Pool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {});
                panic!("scope body panic");
            })
        }))
        .unwrap_err();
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "scope body panic");
    }

    #[test]
    fn thread_override_parses_and_clamps() {
        // Table-driven: raw value -> expected resolution. `"0"` must
        // clamp to 1 (explicitly serial), never 0 workers and never a
        // silent fall-through to detected parallelism.
        let table: &[(Option<&str>, Option<usize>)] = &[
            (None, None),
            (Some(""), None),
            (Some("   "), None),
            (Some("0"), Some(1)),
            (Some(" 0 "), Some(1)),
            (Some("1"), Some(1)),
            (Some("4"), Some(4)),
            (Some(" 8 "), Some(8)),
            (Some(" 12 "), Some(12)),
            (Some("256"), Some(256)),
            (Some("257"), Some(256)),
            (Some("100000"), Some(256)),
            (Some("abc"), None),
            (Some("nope"), None),
            (Some("-1"), None),
            (Some("1.5"), None),
        ];
        for &(raw, expected) in table {
            assert_eq!(thread_override(raw), expected, "raw = {raw:?}");
        }
    }

    #[test]
    fn zero_worker_pool_is_impossible() {
        assert_eq!(Pool::new(0).workers(), 1);
        assert_eq!(Pool::new(usize::MAX).workers(), usize::MAX); // Pool::new clamps low only
    }

    #[test]
    fn global_pool_has_at_least_one_worker() {
        assert!(Pool::global().workers() >= 1);
    }
}
