//! Zero-dependency observability: logical-clock events, counters,
//! gauges, and fixed-bucket histograms with a JSONL exporter.
//!
//! The workspace's determinism contract (DESIGN.md §6) forbids wall
//! clocks and scheduler-order dependence in replayable code, which
//! rules out every off-the-shelf tracing stack. This module records
//! telemetry **without breaking either invariant**:
//!
//! * **Events** are keyed by a *logical clock* — a monotonic step
//!   counter per [`Subsystem`], never wall time. Instrumentation sites
//!   only emit events from *sequential orchestration code* (a solver's
//!   iteration loop, FedAvg's round loop, a node's mining step), so
//!   the event stream is bit-identical for every worker count and the
//!   determinism suite can diff it directly. Where whole sequential
//!   runs become pool tasks (γ tuning's candidate solves), each task
//!   records under [`capture`] and the caller replays the snapshots
//!   with [`absorb`] in task order, which re-stamps their events on
//!   its own clocks: the stream a serial loop over the tasks records.
//! * **Counters / gauges / histograms** are order-independent
//!   aggregates (sums, last-write, bucket tallies). They *may* be
//!   bumped from pool threads — totals are stable, but they are
//!   metrics, not events, and so excluded from determinism
//!   comparisons.
//! * Nothing here reads the wall clock, so a recording can never feed
//!   time back into a replayable run.
//!
//! **Disabled-path cost.** The recorder is off by default. Every entry
//! point begins with one relaxed atomic load and one thread-local
//! check and returns immediately; no allocation, no locking, no
//! formatting happens until [`enable`] is called or a [`with_local`]
//! recorder is installed on the calling thread. Field values are
//! `Copy` (`&'static str` for strings), so even *building the call
//! arguments* allocates nothing.
//!
//! **Export.** [`export_jsonl`] renders the whole recording as JSON
//! Lines (schema `tradefl-trace/v1`): a `meta` line, every event in
//! logical-clock order, then counters/gauges/histograms in
//! `BTreeMap` (byte-wise name) order — a deterministic byte stream for
//! a deterministic run.
//!
//! ```
//! use tradefl_runtime::obs::{self, Subsystem};
//!
//! let (sum, snap) = obs::with_local(|| {
//!     obs::event(Subsystem::Cgbd, "iteration", &[("k", 1u64.into())]);
//!     obs::counter_add("cgbd.cuts_added", 1);
//!     2 + 2
//! });
//! assert_eq!(sum, 4);
//! assert_eq!(snap.events.len(), 1);
//! assert_eq!(snap.counters["cgbd.cuts_added"], 1);
//! ```

use crate::sync::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Schema identifier written on the first line of every JSONL export.
pub const TRACE_SCHEMA: &str = "tradefl-trace/v1";

/// Cap on buffered events; beyond it events are counted as dropped
/// instead of growing the buffer without bound (a long-running process
/// with the recorder left on must not OOM).
pub const MAX_EVENTS: usize = 1 << 20;

/// The subsystems that carry a logical clock. Each has an independent
/// monotonic step counter starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// CGBD solver iterations (Algorithm 1).
    Cgbd,
    /// DBR best-response rounds (Algorithm 2).
    Dbr,
    /// Interior-point primal solves.
    Primal,
    /// FedAvg training rounds.
    Fed,
    /// Ledger block production / application.
    Ledger,
    /// Market-engine event loop (sessions, batches, recoveries).
    Engine,
}

impl Subsystem {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Cgbd => "cgbd",
            Subsystem::Dbr => "dbr",
            Subsystem::Primal => "primal",
            Subsystem::Fed => "fed",
            Subsystem::Ledger => "ledger",
            Subsystem::Engine => "engine",
        }
    }

    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            Subsystem::Cgbd => 0,
            Subsystem::Dbr => 1,
            Subsystem::Primal => 2,
            Subsystem::Fed => 3,
            Subsystem::Ledger => 4,
            Subsystem::Engine => 5,
        }
    }
}

/// A field value attached to an event. All variants are `Copy` so call
/// sites allocate nothing even while the recorder is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (exported via Rust's shortest-round-trip
    /// formatting, so export bytes are deterministic).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string.
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

/// One recorded event: a named step on a subsystem's logical clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Which subsystem's clock stamped this event.
    pub subsystem: Subsystem,
    /// The logical-clock value (0-based, monotonic per subsystem).
    pub seq: u64,
    /// Event name, e.g. `"iteration"`.
    pub name: &'static str,
    /// Named payload fields in call-site order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A fixed-layout histogram: base-2 exponential buckets over `|v|`,
/// plus count/sum/min/max. The layout is identical for every
/// histogram, so exports are comparable across runs and names.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// `buckets[i]` counts values `v` with
    /// `2^(i + BUCKET_MIN_EXP - 1) < |v| <= 2^(i + BUCKET_MIN_EXP)`;
    /// bucket 0 additionally absorbs everything at or below the floor
    /// (including 0), the last bucket everything above the ceiling.
    pub buckets: [u64; Histogram::BUCKETS],
}

impl Histogram {
    /// Number of buckets in the fixed layout.
    pub const BUCKETS: usize = 40;
    /// Exponent of the first bucket's upper bound: bucket 0 holds
    /// `|v| <= 2^BUCKET_MIN_EXP`.
    pub const BUCKET_MIN_EXP: i32 = -20;

    fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; Self::BUCKETS],
        }
    }

    /// Index of the bucket a value falls into.
    pub fn bucket_index(v: f64) -> usize {
        let mag = v.abs();
        if !mag.is_finite() {
            return Self::BUCKETS - 1;
        }
        // lint:allow(no-float-eq): exact-zero test — log2(0) is -inf, and ±0.0 both belong in bucket 0
        if mag == 0.0 {
            return 0;
        }
        // ceil(log2(mag)) without libm edge cases: exponent of the
        // smallest power of two >= mag.
        let exp = mag.log2().ceil() as i32;
        let idx = exp - Self::BUCKET_MIN_EXP;
        idx.clamp(0, Self::BUCKETS as i32 - 1) as usize
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (into, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *into += n;
        }
    }
}

/// Everything a recorder holds, cloned out by [`snapshot`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Events in logical-clock emission order.
    pub events: Vec<Event>,
    /// Events not buffered because [`MAX_EVENTS`] was hit.
    pub events_dropped: u64,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// An independent recorder. Most code uses the process-global one via
/// the free functions; tests install their own with [`with_local`] so
/// concurrent tests cannot pollute each other's streams.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<EventBuf>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

#[derive(Debug, Default)]
struct EventBuf {
    clocks: [u64; Subsystem::COUNT],
    records: Vec<Event>,
    dropped: u64,
}

impl EventBuf {
    /// Stamps the next tick of `subsystem`'s clock and buffers the
    /// event, or counts it as dropped past [`MAX_EVENTS`] (the clock
    /// ticks either way). `fields` is only built for a buffered event.
    fn push(
        &mut self,
        subsystem: Subsystem,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        let seq = self.clocks[subsystem.index()];
        self.clocks[subsystem.index()] += 1;
        if self.records.len() >= MAX_EVENTS {
            self.dropped += 1;
            return;
        }
        self.records.push(Event { subsystem, seq, name, fields: fields() });
    }
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    fn event(&self, subsystem: Subsystem, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        self.events.lock().push(subsystem, name, || fields.to_vec());
    }

    fn counter_add(&self, name: &str, n: u64) {
        let mut counters = self.counters.lock();
        match counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                counters.insert(name.to_string(), n);
            }
        }
    }

    fn gauge_set(&self, name: &str, v: f64) {
        let mut gauges = self.gauges.lock();
        match gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                gauges.insert(name.to_string(), v);
            }
        }
    }

    fn hist_record(&self, name: &str, v: f64) {
        let mut hists = self.histograms.lock();
        match hists.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::new();
                h.record(v);
                hists.insert(name.to_string(), h);
            }
        }
    }

    /// Replays `snap` as if its recording had happened here: events
    /// re-stamped on this recorder's clocks in their captured order,
    /// counters, histograms and `events_dropped` added, gauges set.
    fn absorb(&self, snap: Snapshot) {
        let mut buf = self.events.lock();
        for ev in snap.events {
            buf.push(ev.subsystem, ev.name, || ev.fields);
        }
        buf.dropped += snap.events_dropped;
        drop(buf);
        for (name, n) in &snap.counters {
            self.counter_add(name, *n);
        }
        for (name, v) in &snap.gauges {
            self.gauge_set(name, *v);
        }
        let mut hists = self.histograms.lock();
        for (name, h) in snap.histograms {
            match hists.get_mut(&name) {
                Some(into) => into.merge(&h),
                None => {
                    hists.insert(name, h);
                }
            }
        }
    }

    fn snapshot(&self) -> Snapshot {
        let buf = self.events.lock();
        let events = buf.records.clone();
        let events_dropped = buf.dropped;
        drop(buf);
        Snapshot {
            events,
            events_dropped,
            counters: self.counters.lock().clone(),
            gauges: self.gauges.lock().clone(),
            histograms: self.histograms.lock().clone(),
        }
    }

    fn reset(&self) {
        *self.events.lock() = EventBuf::default();
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.histograms.lock().clear();
    }
}

/// The global recorder's switch. Off, and with no [`with_local`]
/// recorder on the calling thread, every entry point returns at once.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

thread_local! {
    /// Test-scoped override: when set, this thread records into the
    /// local recorder instead of the global one, regardless of the
    /// global switch, so concurrently running tests cannot interleave
    /// their streams or switch each other's recording off.
    static LOCAL: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

fn with_active<R>(f: impl FnOnce(&Recorder) -> R) -> R {
    LOCAL.with(|local| match local.borrow().as_ref() {
        Some(rec) => f(rec),
        None => f(global()),
    })
}

/// Turns the global recorder on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the global recorder off. Already-recorded data is kept until
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether calls on this thread record: a [`with_local`] recorder is
/// installed here, or the process-wide flag is on. Call sites use it
/// to skip work that only feeds the recorder.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || LOCAL.with(|local| local.borrow().is_some())
}

/// Records an event on `subsystem`'s logical clock. No-op when
/// disabled.
#[inline]
pub fn event(subsystem: Subsystem, name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !is_enabled() {
        return;
    }
    with_active(|rec| rec.event(subsystem, name, fields));
}

/// Adds `n` to the named counter. No-op when disabled.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if !is_enabled() {
        return;
    }
    with_active(|rec| rec.counter_add(name, n));
}

/// Sets the named gauge (last write wins). No-op when disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if !is_enabled() {
        return;
    }
    with_active(|rec| rec.gauge_set(name, v));
}

/// Records `v` into the named histogram. No-op when disabled.
#[inline]
pub fn hist_record(name: &str, v: f64) {
    if !is_enabled() {
        return;
    }
    with_active(|rec| rec.hist_record(name, v));
}

/// Clones out everything recorded so far (events + metrics).
pub fn snapshot() -> Snapshot {
    with_active(Recorder::snapshot)
}

/// Clears the active recorder (events, clocks, and metrics). The
/// enabled flag is left as it is.
pub fn reset() {
    with_active(Recorder::reset);
}

/// Runs `f` with a fresh recorder installed on this thread, then
/// restores the previous one and returns `f`'s result together with
/// everything the closure recorded **on this thread**.
///
/// The local recorder records for the whole of `f` whether or not the
/// process-wide flag is on, and `with_local` neither reads nor writes
/// that flag, so overlapping runs on other threads cannot switch it
/// off. Threads a pool scope starts inside `f` have no local recorder:
/// tasks running there record to the global one, and only while the
/// process-wide flag is on (the scope's own `pool.tasks_executed`
/// count is recorded on the calling thread, so `f` sees it). Tasks
/// that run under [`capture`] record locally instead, and the caller
/// replays them with [`absorb`]. Events emitted from sequential
/// orchestration code on the calling thread — the only place events
/// are allowed — are captured exactly.
pub fn with_local<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let rec = Arc::new(Recorder::new());
    let prev_local = LOCAL.with(|local| local.borrow_mut().replace(Arc::clone(&rec)));
    let out = f();
    LOCAL.with(|local| *local.borrow_mut() = prev_local);
    let snap = rec.snapshot();
    (out, snap)
}

/// Runs one pooled task's body so that its telemetry can be replayed in
/// task order: under its own [`with_local`] recorder when `recording`,
/// plainly (returning no snapshot) otherwise. The caller reads
/// `recording` with [`is_enabled`] on its own thread before the scope,
/// since pool threads see neither its local recorder nor, for a
/// caller recording locally, any recorder at all; it then hands each
/// task's snapshot to [`absorb`] in task order, so the exported event
/// stream is the one a serial loop over the tasks records.
pub fn capture<R>(recording: bool, f: impl FnOnce() -> R) -> (R, Option<Snapshot>) {
    if recording {
        let (out, snap) = with_local(f);
        (out, Some(snap))
    } else {
        (f(), None)
    }
}

/// Replays a [`capture`]d snapshot into the calling thread's active
/// recorder: its events are re-stamped on this recorder's logical
/// clocks, in their captured order; counters, histogram tallies and
/// `events_dropped` are added; gauges are set in name order. No-op
/// when disabled.
pub fn absorb(snapshot: Snapshot) {
    if !is_enabled() {
        return;
    }
    with_active(|rec| rec.absorb(snapshot));
}

// ---- JSONL export ------------------------------------------------------

/// Renders the active recorder's contents as JSON Lines
/// (`tradefl-trace/v1`): one `meta` line, one line per event in
/// logical-clock order, then `counter`/`gauge`/`hist` lines in name
/// order. The output is a pure function of the recording, so a
/// deterministic run exports identical bytes.
pub fn export_jsonl() -> String {
    snapshot().to_jsonl()
}

/// Scans the process arguments for `--trace <path>` (or
/// `--trace=<path>`); when present, enables recording and returns the
/// output path. Call once at the top of a binary, then pass the path to
/// [`write_trace`] at the end:
///
/// ```no_run
/// use tradefl_runtime::obs;
///
/// let trace = obs::trace_path_from_args();
/// // ... run the workload ...
/// if let Some(path) = &trace {
///     obs::write_trace(path).expect("write trace");
/// }
/// ```
pub fn trace_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            let path = args.next()?;
            enable();
            return Some(path.into());
        }
        if let Some(path) = arg.strip_prefix("--trace=") {
            enable();
            return Some(path.into());
        }
    }
    None
}

/// Writes the active recorder's JSONL export to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_trace(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, export_jsonl())
}

impl Snapshot {
    /// Renders this snapshot as `tradefl-trace/v1` JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        let _ = write!(
            out,
            "{{\"kind\":\"meta\",\"schema\":\"{}\",\"events\":{},\"events_dropped\":{}}}\n",
            TRACE_SCHEMA,
            self.events.len(),
            self.events_dropped
        );
        for ev in &self.events {
            let _ = write!(
                out,
                "{{\"kind\":\"event\",\"sub\":\"{}\",\"seq\":{},\"name\":",
                ev.subsystem.name(),
                ev.seq
            );
            json_string(&mut out, ev.name);
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in ev.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_string(&mut out, k);
                out.push(':');
                json_field(&mut out, *v);
            }
            out.push_str("}}\n");
        }
        for (name, value) in &self.counters {
            out.push_str("{\"kind\":\"counter\",\"name\":");
            json_string(&mut out, name);
            let _ = write!(out, ",\"value\":{value}}}\n");
        }
        for (name, value) in &self.gauges {
            out.push_str("{\"kind\":\"gauge\",\"name\":");
            json_string(&mut out, name);
            out.push_str(",\"value\":");
            json_f64(&mut out, *value);
            out.push_str("}\n");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"kind\":\"hist\",\"name\":");
            json_string(&mut out, name);
            let _ = write!(out, ",\"count\":{}", h.count);
            out.push_str(",\"sum\":");
            json_f64(&mut out, h.sum);
            out.push_str(",\"min\":");
            json_f64(&mut out, if h.count == 0 { 0.0 } else { h.min });
            out.push_str(",\"max\":");
            json_f64(&mut out, if h.count == 0 { 0.0 } else { h.max });
            out.push_str(",\"buckets\":[");
            let mut first = true;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{i},{c}]");
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Only the event lines of [`Snapshot::to_jsonl`] — the portion the
    /// determinism suite compares across worker counts (metrics like
    /// the pool's task count legitimately depend on the worker count).
    // lint:allow(unreferenced-pub-fn): test oracle: the event stream the determinism suites compare across worker counts
    pub fn events_jsonl(&self) -> String {
        self.to_jsonl()
            .lines()
            .filter(|l| l.starts_with("{\"kind\":\"event\""))
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            })
    }
}

fn json_field(out: &mut String, v: FieldValue) {
    match v {
        FieldValue::U64(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::I64(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::F64(x) => json_f64(out, x),
        FieldValue::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::Str(s) => json_string(out, s),
    }
}

/// Writes an `f64` as JSON. Rust's `Display` is the shortest exact
/// round-trip representation (deterministic across platforms);
/// non-finite values, which JSON cannot carry as numbers, become
/// strings.
fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"Infinity\"");
    } else {
        out.push_str("\"-Infinity\"");
    }
}

/// Writes a JSON string literal with escaping.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        // No test in this crate turns the process-wide flag on, and a
        // test thread has no local recorder outside `with_local`: free
        // functions here must return before touching any recorder.
        assert!(!is_enabled());
        event(Subsystem::Cgbd, "iteration", &[("k", 1u64.into())]);
        counter_add("c", 1);
        gauge_set("g", 1.0);
        hist_record("h", 1.0);
        let snap = global().snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn overlapping_local_runs_do_not_switch_each_other_off() {
        // B enters `with_local`; A enters and records event 1; B
        // returns; A records event 2. A must keep both events.
        use std::sync::Barrier;
        let b_entered = Arc::new(Barrier::new(2));
        let a_recorded = Arc::new(Barrier::new(2));
        let b_returned = Arc::new(Barrier::new(2));
        let b = {
            let (b_entered, a_recorded) = (Arc::clone(&b_entered), Arc::clone(&a_recorded));
            // lint:allow(no-raw-threads): the barriers need two live OS threads; a pool may run both closures on one worker and deadlock
            std::thread::spawn(move || {
                with_local(|| {
                    b_entered.wait();
                    a_recorded.wait();
                })
            })
        };
        let a = {
            let b_returned = Arc::clone(&b_returned);
            // lint:allow(no-raw-threads): the barriers need two live OS threads; a pool may run both closures on one worker and deadlock
            std::thread::spawn(move || {
                b_entered.wait();
                let ((), snap) = with_local(|| {
                    event(Subsystem::Engine, "one", &[]);
                    a_recorded.wait();
                    b_returned.wait();
                    event(Subsystem::Engine, "two", &[]);
                });
                snap
            })
        };
        b.join().unwrap();
        b_returned.wait();
        let snap = a.join().unwrap();
        let names: Vec<&str> = snap.events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["one", "two"]);
    }

    #[test]
    fn logical_clocks_are_per_subsystem_and_monotonic() {
        let ((), snap) = with_local(|| {
            event(Subsystem::Cgbd, "a", &[]);
            event(Subsystem::Dbr, "b", &[]);
            event(Subsystem::Cgbd, "c", &[]);
        });
        assert_eq!(snap.events.len(), 3);
        assert_eq!((snap.events[0].subsystem, snap.events[0].seq), (Subsystem::Cgbd, 0));
        assert_eq!((snap.events[1].subsystem, snap.events[1].seq), (Subsystem::Dbr, 0));
        assert_eq!((snap.events[2].subsystem, snap.events[2].seq), (Subsystem::Cgbd, 1));
    }

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let ((), snap) = with_local(|| {
            counter_add("n", 2);
            counter_add("n", 3);
            gauge_set("level", 1.0);
            gauge_set("level", -4.5);
            for v in [0.5, 2.0, 2.0, 1e9] {
                hist_record("vals", v);
            }
        });
        assert_eq!(snap.counters["n"], 5);
        assert_eq!(snap.gauges["level"], -4.5);
        let h = &snap.histograms["vals"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1e9);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn bucket_layout_is_fixed_and_total() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), Histogram::BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(f64::INFINITY), Histogram::BUCKETS - 1);
        // Monotone in magnitude.
        let mut prev = 0;
        let mut v = 1e-12;
        while v < 1e12 {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= prev, "bucket index not monotone at {v}");
            prev = idx;
            v *= 3.7;
        }
    }

    #[test]
    fn jsonl_export_is_deterministic_and_schema_shaped() {
        let run = || {
            let ((), snap) = with_local(|| {
                event(
                    Subsystem::Fed,
                    "round",
                    &[("round", 1u64.into()), ("loss", 0.25f64.into()), ("tag", "x\"y".into())],
                );
                counter_add("fed.rounds", 1);
                gauge_set("fed.last_accuracy", 0.5);
                hist_record("primal.iterations", 12.0);
            });
            snap.to_jsonl()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "export must be bit-identical for identical runs");
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("tradefl-trace/v1"));
        assert!(lines[1].contains("\"kind\":\"event\""));
        assert!(lines[1].contains("\"sub\":\"fed\""));
        assert!(lines[1].contains("\\\"y"), "string fields are escaped: {}", lines[1]);
        assert!(a.contains("\"kind\":\"counter\""));
        assert!(a.contains("\"kind\":\"gauge\""));
        assert!(a.contains("\"kind\":\"hist\""));
    }

    #[test]
    fn events_jsonl_filters_metrics_out() {
        let ((), snap) = with_local(|| {
            event(Subsystem::Ledger, "block_mined", &[("txs", 3u64.into())]);
            counter_add("ledger.txs", 3);
        });
        let events_only = snap.events_jsonl();
        assert_eq!(events_only.lines().count(), 1);
        assert!(events_only.contains("block_mined"));
        assert!(!events_only.contains("counter"));
    }

    #[test]
    fn event_buffer_is_bounded() {
        let rec = Recorder::new();
        // Synthesize overflow cheaply by pre-filling the buffer.
        {
            let mut buf = rec.events.lock();
            buf.records = Vec::with_capacity(MAX_EVENTS);
            for _ in 0..MAX_EVENTS {
                buf.records.push(Event {
                    subsystem: Subsystem::Ledger,
                    seq: 0,
                    name: "x",
                    fields: Vec::new(),
                });
            }
        }
        rec.event(Subsystem::Ledger, "overflow", &[]);
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), MAX_EVENTS);
        assert_eq!(snap.events_dropped, 1);
    }

    /// Two task bodies, captured as a pooled caller does, to be
    /// absorbed by the test in either order.
    fn captured_pair() -> (Snapshot, Snapshot) {
        let task = |tag: &'static str, rounds: u64| {
            capture(true, || {
                for round in 0..rounds {
                    event(Subsystem::Dbr, tag, &[("round", round.into())]);
                }
                event(Subsystem::Cgbd, tag, &[]);
                counter_add("dbr.incremental_updates", rounds);
                hist_record("dbr.br_delta", rounds as f64);
                gauge_set("last", rounds as f64);
            })
            .1
            .unwrap()
        };
        (task("a", 2), task("b", 3))
    }

    #[test]
    fn absorbed_events_take_gap_free_seqs_in_absorb_order() {
        let (a, b) = captured_pair();
        let ((), snap) = with_local(|| {
            event(Subsystem::Dbr, "caller", &[]);
            absorb(b);
            absorb(a);
        });
        let stamped: Vec<_> = snap.events.iter().map(|e| (e.subsystem, e.seq, e.name)).collect();
        assert_eq!(
            stamped,
            [
                (Subsystem::Dbr, 0, "caller"),
                (Subsystem::Dbr, 1, "b"),
                (Subsystem::Dbr, 2, "b"),
                (Subsystem::Dbr, 3, "b"),
                (Subsystem::Cgbd, 0, "b"),
                (Subsystem::Dbr, 4, "a"),
                (Subsystem::Dbr, 5, "a"),
                (Subsystem::Cgbd, 1, "a"),
            ]
        );
        assert_eq!(snap.events[2].fields, [("round", FieldValue::U64(1))]);
        assert_eq!(snap.gauges["last"], 2.0, "the last absorbed gauge wins");
    }

    #[test]
    fn absorbed_counters_and_histograms_sum() {
        let (a, b) = captured_pair();
        let ((), snap) = with_local(|| {
            counter_add("dbr.incremental_updates", 10);
            hist_record("dbr.br_delta", 0.5);
            absorb(a);
            absorb(b);
        });
        assert_eq!(snap.counters["dbr.incremental_updates"], 15);
        let h = &snap.histograms["dbr.br_delta"];
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 5.5, 0.5, 3.0));
        let mut want = [0u64; Histogram::BUCKETS];
        for v in [0.5, 2.0, 3.0] {
            want[Histogram::bucket_index(v)] += 1;
        }
        assert_eq!(h.buckets, want);
    }

    #[test]
    fn absorbed_drops_carry_over() {
        let captured = Snapshot { events_dropped: 7, ..Snapshot::default() };
        let ((), snap) = with_local(|| absorb(captured));
        assert_eq!(snap.events_dropped, 7);
        assert!(snap.to_jsonl().starts_with(
            "{\"kind\":\"meta\",\"schema\":\"tradefl-trace/v1\",\"events\":0,\"events_dropped\":7}"
        ));
    }

    #[test]
    fn nothing_is_captured_when_the_caller_is_not_recording() {
        // As in `disabled_recorder_records_nothing`, this thread records
        // nowhere outside `with_local`.
        let recording = is_enabled();
        assert!(!recording);
        let (out, snap) = capture(recording, || {
            event(Subsystem::Dbr, "round", &[]);
            counter_add("c", 1);
            3
        });
        assert_eq!(out, 3);
        assert!(snap.is_none());
        absorb(Snapshot { events_dropped: 1, ..Snapshot::default() });
        assert_eq!(global().snapshot().events_dropped, 0);
        assert!(global().snapshot().events.is_empty());
    }

    #[test]
    fn nonfinite_floats_export_as_strings() {
        let mut s = String::new();
        json_f64(&mut s, f64::NAN);
        json_f64(&mut s, f64::INFINITY);
        json_f64(&mut s, f64::NEG_INFINITY);
        assert_eq!(s, "\"NaN\"\"Infinity\"\"-Infinity\"");
    }
}
