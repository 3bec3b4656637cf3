//! One repetition of a workload: what it measured and what it checked.

use std::collections::BTreeMap;
use std::time::Instant;
use tradefl_runtime::obs;

/// The crates a timed call can belong to, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Core,
    Solver,
    Fl,
    Ledger,
    Engine,
    Runtime,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Core,
        Layer::Solver,
        Layer::Fl,
        Layer::Ledger,
        Layer::Engine,
        Layer::Runtime,
    ];

    /// The `split.*` metric this layer's wall share is reported under.
    pub fn split_metric(self) -> &'static str {
        match self {
            Layer::Core => "split.core_ms",
            Layer::Solver => "split.solver_ms",
            Layer::Fl => "split.fl_ms",
            Layer::Ledger => "split.ledger_ms",
            Layer::Engine => "split.engine_ms",
            Layer::Runtime => "split.runtime_ms",
        }
    }
}

/// Starts a wall-clock measurement: the one place the benchmark reads
/// the clock.
pub fn now() -> Instant {
    // lint:allow(no-wallclock): a benchmark measures wall time; nothing it reads feeds a result
    Instant::now()
}

/// Resets this process's peak resident set, so the next
/// [`peak_rss_mb`] reads one repetition's peak.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS needs /proc/self/clear_refs: {e}"))
}

/// Peak resident set (`VmHWM`) since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, returning its result and its duration in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = now();
    let out = f();
    (out, ms_since(t))
}

/// Time spent inside the wall window in calls to each crate's public
/// functions, made from the benchmark's own code.
#[derive(Debug, Default, Clone)]
pub struct Split {
    ms: [f64; 6],
}

impl Split {
    /// Times `f` as a call into `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let (out, ms) = timed(f);
        self.add(layer, ms);
        out
    }

    /// Adds `ms` already measured around calls into `layer`.
    pub fn add(&mut self, layer: Layer, ms: f64) {
        self.ms[layer as usize] += ms;
    }

    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    pub fn ms(&self, layer: Layer) -> f64 {
        self.ms[layer as usize]
    }
}

/// Block-step samples and settlement totals of one engine run.
#[derive(Debug, Default, Clone)]
pub struct Settlement {
    /// Wall time of each `Engine::step` that raised the canonical height.
    pub block_ms: Vec<f64>,
    /// Scripted txs with a `Success` receipt on the canonical chain.
    pub settled_txs: u64,
    /// Seconds spent in `Engine::step` + `Engine::report`.
    pub settle_s: f64,
    /// Simulated ticks until the engine drained.
    pub ticks: u64,
}

/// Everything one repetition produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Which of the run's seed-derived inputs this repetition ran.
    pub input: usize,
    pub traced: bool,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Peak resident set while the repetition ran, checks included.
    pub peak_rss_mb: f64,
    /// Sessions (or markets) whose checks ran.
    pub attempted: u64,
    /// Why each failed check failed; `failed` counts sessions, not lines.
    pub failures: Vec<String>,
    pub failed: u64,
    /// Output digest: equal inputs must give equal digests.
    pub digest: String,
    pub split: Split,
    pub settlement: Option<Settlement>,
    /// Per-layer values a traced repetition measured, by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// Records a failed check covering `sessions` sessions.
    pub fn fail(&mut self, sessions: u64, why: String) {
        self.failed += sessions;
        self.failures.push(why);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Ends a traced repetition's recording window: returns what the
/// recorder collected since the run loop enabled it, and turns it off
/// so measurements taken after the wall window run untraced.
pub fn end_trace(traced: bool) -> Option<obs::Snapshot> {
    let snap = traced.then(obs::snapshot);
    obs::disable();
    snap
}

/// The per-layer values [`record_counters`] sets.
pub const COUNTER_METRICS: &[&str] = &[
    "solver.payoff_cache_hit_ratio",
    "solver.incremental_updates",
    "fl.local_updates",
    "ledger.txs_executed",
    "engine.frames_rejected",
    "engine.frames_stale",
    "engine.pull_rejected",
    "engine.frames_to_dead",
    "runtime.pool_tasks",
    "runtime.pool_steals",
];

/// A counter of an obs snapshot as a float (0 when never bumped).
pub fn counter(snap: &obs::Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// Sets the per-layer values every traced repetition takes from the
/// obs counters, whichever layers the workload exercised.
pub fn record_counters(rep: &mut Rep, snap: &obs::Snapshot) {
    let hits = counter(snap, "solver.payoff_cache.hits");
    let misses = counter(snap, "solver.payoff_cache.misses");
    rep.set("solver.payoff_cache_hit_ratio", ratio(hits, hits + misses));
    rep.set(
        "solver.incremental_updates",
        counter(snap, "dbr.incremental_updates"),
    );
    rep.set("fl.local_updates", counter(snap, "fed.local_updates"));
    rep.set("ledger.txs_executed", counter(snap, "ledger.txs_executed"));
    // These four metrics carry the engine's own counter names.
    for name in [
        "engine.frames_rejected",
        "engine.frames_stale",
        "engine.pull_rejected",
        "engine.frames_to_dead",
    ] {
        rep.set(name, counter(snap, name));
    }
    rep.set("runtime.pool_tasks", counter(snap, "pool.tasks_executed"));
    rep.set("runtime.pool_steals", counter(snap, "pool.tasks_stolen"));
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 64-bit FNV-1a, for output digests.
pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Mixes a workload seed with a stream label into an independent seed.
pub fn mix(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
