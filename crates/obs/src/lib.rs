//! Observability for the DNN→SNN pipeline: tracing spans, run metrics and
//! per-layer profiling — dependency-free (std + the vendored serde shims).
//!
//! Every facility records into the calling thread's current [`Registry`]:
//! the process-global one, or the one [`with_registry`] sets for a scope.
//! A serving engine keeps the registry current at its construction, so
//! two engines (or two tests) in one process never mix counts.
//!
//! * **Spans** — nestable RAII timers ([`span`]) with monotonic-clock
//!   durations, aggregated per *path* (the `/`-joined chain of enclosing
//!   span labels, e.g. `pipeline.sgl/snn.forward_train/tensor.conv2d`).
//!   Worker threads of `ull_tensor::parallel` inherit the spawning
//!   thread's path *and* registry via [`current_scope`]/[`with_scope`],
//!   so kernel time and counts on the pool roll up under the parent span
//!   in the parent's registry.
//! * **Counters and gauges** — monotonically accumulating event counts
//!   ([`counter_add`]: spikes, MACs, checkpoint bytes, α/β candidates…)
//!   and last-write-wins values ([`gauge_set`]: neurons per layer).
//! * **Histograms** — fixed-size log₂-bucketed value distributions
//!   ([`histogram_record`]: request latencies, per-rung step counts) with
//!   exact count/sum/min/max, commutative merges and deterministic
//!   quantiles ([`HistogramSnapshot::quantile`] always answers with a
//!   bucket upper bound, so reruns agree bit-for-bit).
//! * **Sinks** — an in-memory [`MetricsSnapshot`] (serde-serializable;
//!   `ull-core` merges it into `PipelineReport` and the `reports/*.json`
//!   artifacts) plus an optional JSONL event stream ([`TraceEvent`] per
//!   line) activated by `ULL_TRACE=<path>`.
//!
//! # The disabled fast path
//!
//! Instrumentation is **off by default**: the process-global registry
//! starts disabled. While no registry is enabled, every entry point
//! performs exactly one relaxed atomic load (a count of enabled
//! registries) and returns — no clock reads, no allocation, no locks —
//! so instrumented hot paths stay within the ≤2% overhead budget asserted
//! by `ull-bench`'s `obs_overhead` binary. Binaries opt in with
//! [`init_from_env`] (honouring `ULL_TRACE` and `ULL_METRICS=1`) or
//! with [`set_enabled`]; a [`Registry::new`] collects from the start.
//!
//! Instrumentation never alters numerics: enabled or not, all kernels and
//! training loops produce bit-identical outputs.
//!
//! # Example
//!
//! ```
//! let reg = ull_obs::Registry::new();
//! ull_obs::with_registry(&reg, || {
//!     let _outer = ull_obs::span("epoch");
//!     let _inner = ull_obs::span("matmul");
//!     ull_obs::counter_add("macs", 1024);
//! });
//! let snap = reg.snapshot();
//! assert_eq!(snap.spans["epoch/matmul"].count, 1);
//! assert_eq!(snap.counters["macs"], 1024);
//! // Nothing reached the (disabled) process-global registry.
//! assert!(ull_obs::Registry::global().snapshot().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Enable gate — the one atomic every disabled call site pays.
// ---------------------------------------------------------------------------

/// Number of registries whose enable flag is set. While it reads zero,
/// every entry point returns after this one load.
static ENABLED_REGISTRIES: AtomicUsize = AtomicUsize::new(0);

/// Whether the current thread's registry is collecting. One relaxed load
/// while no registry is enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED_REGISTRIES.load(Ordering::Relaxed) != 0 && with_current(Registry::enabled)
}

/// Turns collection on or off for the current thread's registry. Turning
/// it off does not clear aggregates (see [`reset`]) or close an open trace
/// (see [`close_trace`]).
pub fn set_enabled(on: bool) {
    with_current(|reg| reg.set_enabled(on));
}

/// Initialises from the environment: `ULL_TRACE=<path>` opens the JSONL
/// event stream at `<path>` and enables collection; otherwise
/// `ULL_METRICS=1` enables in-memory aggregation only. Returns whether
/// collection ended up enabled. Call once from binaries; libraries never
/// self-enable.
pub fn init_from_env() -> bool {
    if let Some(path) = std::env::var_os("ULL_TRACE") {
        if let Err(e) = open_trace(&path) {
            eprintln!("ULL_TRACE: cannot open {path:?}: {e}");
        }
        set_enabled(true);
        return true;
    }
    if std::env::var("ULL_METRICS")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        set_enabled(true);
        return true;
    }
    false
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Aggregate of all completed spans sharing one path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStat {
    /// Completed spans on this path.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// A metrics registry: span, counter, gauge and histogram aggregates, an
/// optional trace sink and its own enable flag. A cheap `Arc` handle;
/// clones share one registry.
///
/// Threads record into the registry set by [`with_registry`], or into
/// the process-global one ([`Registry::global`]) outside any scope.
#[derive(Clone)]
pub struct Registry(Arc<RegistryState>);

struct RegistryState {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<HashMap<String, SpanStat>>,
    counters: Mutex<HashMap<String, u64>>,
    gauges: Mutex<HashMap<String, u64>>,
    hists: Mutex<HashMap<String, HistogramSnapshot>>,
    trace: Mutex<Option<BufWriter<File>>>,
}

impl Drop for RegistryState {
    fn drop(&mut self) {
        if *self.enabled.get_mut() {
            ENABLED_REGISTRIES.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, empty registry that is already collecting.
    pub fn new() -> Registry {
        let reg = Registry::disabled();
        reg.set_enabled(true);
        reg
    }

    fn disabled() -> Registry {
        Registry(Arc::new(RegistryState {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(HashMap::new()),
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
            hists: Mutex::new(HashMap::new()),
            trace: Mutex::new(None),
        }))
    }

    /// The process-global registry: where threads outside any
    /// [`with_registry`] scope record. Starts disabled.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::disabled)
    }

    /// The calling thread's current registry (a handle to it).
    pub fn current() -> Registry {
        with_current(Registry::clone)
    }

    /// Whether this registry is collecting.
    pub fn enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Turns collection on or off for this registry.
    pub fn set_enabled(&self, on: bool) {
        if self.0.enabled.swap(on, Ordering::Relaxed) != on {
            if on {
                ENABLED_REGISTRIES.fetch_add(1, Ordering::Relaxed);
            } else {
                ENABLED_REGISTRIES.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Copies this registry's aggregates into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        fn sorted<V: Clone>(m: &Mutex<HashMap<String, V>>) -> BTreeMap<String, V> {
            lock(m)
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        }
        let reg = &self.0;
        MetricsSnapshot {
            spans: sorted(&reg.spans),
            counters: sorted(&reg.counters),
            gauges: sorted(&reg.gauges),
            histograms: sorted(&reg.hists),
        }
    }

    /// Clears every span, counter, gauge and histogram aggregate (the
    /// enable flag and the trace sink are untouched).
    pub fn reset(&self) {
        let reg = &self.0;
        lock(&reg.spans).clear();
        lock(&reg.counters).clear();
        lock(&reg.gauges).clear();
        lock(&reg.hists).clear();
    }

    fn write_trace(&self, event: &TraceEvent) {
        if let Some(w) = lock(&self.0.trace).as_mut() {
            let line = serde_json::to_string(event).expect("TraceEvent serializes infallibly");
            let _ = writeln!(w, "{line}");
        }
    }

    /// Microseconds from this registry's creation to `at`.
    fn micros_since_epoch(&self, at: Instant) -> u64 {
        at.duration_since(self.0.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64
    }
}

thread_local! {
    /// The registry this thread records into; `None` is the process-global
    /// one.
    static CURRENT: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

fn with_current<R>(f: impl FnOnce(&Registry) -> R) -> R {
    CURRENT.with(|c| match &*c.borrow() {
        Some(reg) => f(reg),
        None => f(Registry::global()),
    })
}

/// Runs `f` on the current registry if it is collecting. One relaxed load
/// while no registry is enabled.
#[inline]
fn record(f: impl FnOnce(&Registry)) {
    if ENABLED_REGISTRIES.load(Ordering::Relaxed) == 0 {
        return;
    }
    with_current(|reg| {
        if reg.enabled() {
            f(reg);
        }
    });
}

/// Runs `f` with `reg` as this thread's current registry, restoring the
/// previous one afterwards (also when `f` unwinds).
pub fn with_registry<R>(reg: &Registry, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Registry>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(reg.clone()))));
    f()
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Small per-thread ordinal for trace events (`ThreadId` has no stable
/// numeric accessor). Assigned on first use, in first-use order.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: Cell<u64> = const { Cell::new(u64::MAX) };
    }
    ORDINAL.with(|c| {
        let v = c.get();
        if v != u64::MAX {
            return v;
        }
        let v = NEXT.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    /// The `/`-joined labels of the spans currently open on this thread.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// RAII span timer returned by [`span`]. Dropping it stops the clock and
/// folds the duration into the current registry's per-path aggregate (and
/// its trace, if one is open). Inert — a single `None` — when collection
/// is disabled.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    label: &'static str,
    /// Byte length of the thread path *before* this span pushed its label,
    /// restored on drop.
    prev_len: usize,
    start: Instant,
}

/// Opens a span named `label` lasting until the guard drops. Nested spans
/// aggregate under the `/`-joined path of their enclosing labels.
#[inline]
pub fn span(label: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let prev_len = PATH.with(|p| {
        let mut p = p.borrow_mut();
        let prev = p.len();
        if !p.is_empty() {
            p.push('/');
        }
        p.push_str(label);
        prev
    });
    SpanGuard(Some(ActiveSpan {
        label,
        prev_len,
        start: Instant::now(),
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let dur = active.start.elapsed();
        let path = PATH.with(|p| {
            let mut p = p.borrow_mut();
            let full = p.clone();
            p.truncate(active.prev_len);
            full
        });
        let dur_ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        with_current(|reg| {
            {
                let mut spans = lock(&reg.0.spans);
                let stat = spans.entry(path.clone()).or_default();
                stat.count += 1;
                stat.total_ns += dur_ns;
                stat.max_ns = stat.max_ns.max(dur_ns);
            }
            reg.write_trace(&TraceEvent::Span {
                path,
                label: active.label.to_string(),
                thread: thread_ordinal(),
                start_us: reg.micros_since_epoch(active.start),
                dur_us: dur_ns / 1_000,
            });
        });
    }
}

/// What a pool worker inherits from the thread that hands it work: the
/// open span path and the current registry. Captured once per parallel
/// call by [`current_scope`] and adopted on each worker by [`with_scope`].
pub struct Scope {
    path: String,
    /// `None` while no registry collects: workers then record nothing
    /// wherever they run, so the disabled capture is one load.
    registry: Option<Registry>,
}

/// The current thread's [`Scope`]: its open-span path (empty when none,
/// or when collection is disabled) and its registry.
pub fn current_scope() -> Scope {
    if ENABLED_REGISTRIES.load(Ordering::Relaxed) == 0 {
        return Scope {
            path: String::new(),
            registry: None,
        };
    }
    let path = if enabled() {
        PATH.with(|p| p.borrow().clone())
    } else {
        String::new()
    };
    Scope {
        path,
        registry: Some(Registry::current()),
    }
}

/// Runs `f` inside `scope` (as captured by [`current_scope`] on the
/// spawning thread): its registry is current and its path is the parent
/// of every span `f` opens. Both are restored afterwards.
pub fn with_scope<R>(scope: &Scope, f: impl FnOnce() -> R) -> R {
    let Some(registry) = &scope.registry else {
        return f();
    };
    with_registry(registry, || {
        let saved = PATH.with(|p| p.replace(scope.path.clone()));
        let r = f();
        PATH.with(|p| *p.borrow_mut() = saved);
        r
    })
}

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// Adds `delta` to the counter `key`. Counters only ever accumulate;
/// [`reset`] zeroes them.
#[inline]
pub fn counter_add(key: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    record(|reg| {
        *lock(&reg.0.counters).entry(key.to_string()).or_insert(0) += delta;
        reg.write_trace(&TraceEvent::Counter {
            key: key.to_string(),
            delta,
            thread: thread_ordinal(),
        });
    });
}

/// Adds `delta` to the indexed counter `key.index` (e.g. per-node spike
/// counters `snn.spikes.node.7`). The key string is only built when
/// collection is enabled.
#[inline]
pub fn counter_add_indexed(key: &str, index: usize, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    counter_add(&format!("{key}.{index}"), delta);
}

/// Sets the gauge `key` to `value` (last write wins).
#[inline]
pub fn gauge_set(key: &str, value: u64) {
    record(|reg| {
        lock(&reg.0.gauges).insert(key.to_string(), value);
        reg.write_trace(&TraceEvent::Gauge {
            key: key.to_string(),
            value,
        });
    });
}

/// Sets the indexed gauge `key.index` to `value`.
#[inline]
pub fn gauge_set_indexed(key: &str, index: usize, value: u64) {
    if !enabled() {
        return;
    }
    gauge_set(&format!("{key}.{index}"), value);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of log₂ buckets in a [`HistogramSnapshot`]: bucket 0 holds exact
/// zeros, bucket `i ∈ 1..=64` holds values in `[2^(i-1), 2^i - 1]`. The top
/// bucket's range saturates at `u64::MAX`, so there is no separate overflow
/// bucket — every `u64` lands somewhere.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for `value`: 0 for 0, else `64 - value.leading_zeros()`
/// (the position of the highest set bit, 1-based).
#[inline]
pub fn hist_bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `index`: 0 for bucket 0, else
/// `2^index - 1` (saturating at `u64::MAX` for the top bucket).
#[inline]
fn hist_bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A log₂-bucketed value distribution with exact count/sum/min/max.
///
/// Merging is elementwise addition, so merged per-thread snapshots are
/// independent of merge order, and [`quantile`](Self::quantile) is a pure
/// function of the bucket counts — deterministic across reruns and thread
/// counts whenever the recorded multiset of values is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total values recorded.
    pub count: u64,
    /// Exact sum of all recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket counts, length [`HIST_BUCKETS`].
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramSnapshot {
    /// An empty histogram with all [`HIST_BUCKETS`] buckets zeroed.
    pub fn new() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Folds one value into the distribution.
    pub fn record(&mut self, value: u64) {
        if self.buckets.len() != HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[hist_bucket_index(value)] += 1;
    }

    /// Adds `other`'s contents into `self`. Commutative and associative:
    /// any merge order of per-thread snapshots yields identical bytes.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() != HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (i, &b) in other.buckets.iter().enumerate().take(HIST_BUCKETS) {
            self.buckets[i] += b;
        }
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Deterministic quantile estimate: finds the bucket holding the
    /// value of rank `ceil(p · count)` and returns that bucket's upper
    /// bound, clamped to the exact observed `max`. Because bucket `i`
    /// spans `[2^(i-1), 2^i - 1]`, the answer never underestimates the
    /// true quantile and overestimates by less than 2× (one log₂
    /// bucket's relative error). Returns 0 when empty.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return hist_bucket_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Folds `value` into the histogram `key`. One relaxed load and return
/// when no registry is collecting; a disabled registry is untouched.
#[inline]
pub fn histogram_record(key: &str, value: u64) {
    record(|reg| {
        lock(&reg.0.hists)
            .entry(key.to_string())
            .or_default()
            .record(value);
        reg.write_trace(&TraceEvent::Hist {
            key: key.to_string(),
            value,
            thread: thread_ordinal(),
        });
    });
}

// ---------------------------------------------------------------------------
// Trace sink (JSONL)
// ---------------------------------------------------------------------------

/// One line of the `ULL_TRACE` JSONL stream, externally tagged like
/// serde_json: `{"Span":{...}}`, `{"Counter":{...}}`, …
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A completed span.
    Span {
        /// Full `/`-joined path, including this span's label.
        path: String,
        /// This span's own label (the path's last segment).
        label: String,
        /// Thread ordinal (first-use order, 0 = usually main).
        thread: u64,
        /// Start, microseconds since the process trace epoch.
        start_us: u64,
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A counter increment.
    Counter {
        /// Counter key.
        key: String,
        /// Amount added.
        delta: u64,
        /// Thread ordinal.
        thread: u64,
    },
    /// A gauge update.
    Gauge {
        /// Gauge key.
        key: String,
        /// New value.
        value: u64,
    },
    /// A histogram observation.
    Hist {
        /// Histogram key.
        key: String,
        /// Recorded value.
        value: u64,
        /// Thread ordinal.
        thread: u64,
    },
}

/// Opens (or replaces) the current registry's JSONL trace sink at `path`.
/// Does not by itself enable collection — callers normally go through
/// [`init_from_env`].
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be created.
pub fn open_trace(path: impl AsRef<Path>) -> std::io::Result<()> {
    let f = File::create(path)?;
    with_current(|reg| *lock(&reg.0.trace) = Some(BufWriter::new(f)));
    Ok(())
}

/// Flushes buffered trace lines to disk (no-op without an open trace).
pub fn flush_trace() {
    with_current(|reg| {
        if let Some(w) = lock(&reg.0.trace).as_mut() {
            let _ = w.flush();
        }
    });
}

/// Flushes and closes the trace sink (no-op without an open trace).
pub fn close_trace() {
    if let Some(mut w) = with_current(|reg| lock(&reg.0.trace).take()) {
        let _ = w.flush();
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A point-in-time copy of every aggregate, with deterministic (sorted)
/// key order so serialized snapshots are directly diffable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Per-path span aggregates.
    #[serde(default)]
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter totals.
    #[serde(default)]
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    #[serde(default)]
    pub gauges: BTreeMap<String, u64>,
    /// Histogram distributions.
    #[serde(default)]
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Sum of `prefix`-keyed counters (e.g. all `snn.spikes.node.*`).
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }
}

/// Copies the current registry's aggregates into a [`MetricsSnapshot`].
pub fn snapshot() -> MetricsSnapshot {
    with_current(Registry::snapshot)
}

/// Clears every aggregate of the current registry (see
/// [`Registry::reset`]). Call between phases for per-phase snapshots.
pub fn reset() {
    with_current(Registry::reset);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_trace(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ull-obs-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn disabled_calls_record_nothing() {
        // Another registry collecting at the same time must not switch
        // this one on.
        let _other = Registry::new();
        let reg = Registry::new();
        reg.set_enabled(false);
        with_registry(&reg, || {
            assert!(!enabled());
            {
                let _g = span("never");
                counter_add("never", 7);
                gauge_set("never", 9);
                histogram_record("never", 11);
            }
            assert_eq!(current_scope().path, "");
        });
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn spans_nest_into_paths_and_aggregate() {
        let reg = Registry::new();
        with_registry(&reg, || {
            for _ in 0..3 {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            let _solo = span("outer");
        });
        let snap = reg.snapshot();
        assert_eq!(snap.spans["outer"].count, 4);
        assert_eq!(snap.spans["outer/inner"].count, 3);
        assert!(snap.spans["outer"].total_ns >= snap.spans["outer"].max_ns);
        // The path stack fully unwound.
        assert_eq!(PATH.with(|p| p.borrow().len()), 0);
    }

    #[test]
    fn worker_threads_inherit_the_parent_scope() {
        let reg = Registry::new();
        with_registry(&reg, || {
            let _outer = span("parent");
            let parent = current_scope();
            assert_eq!(parent.path, "parent");
            std::thread::scope(|s| {
                s.spawn(|| {
                    with_scope(&parent, || {
                        let _k = span("kernel");
                        counter_add("worker.count", 1);
                    });
                    // The worker's own path and registry are restored.
                    assert_eq!(PATH.with(|p| p.borrow().clone()), "");
                    assert!(CURRENT.with(|c| c.borrow().is_none()));
                });
            });
        });
        let snap = reg.snapshot();
        assert_eq!(snap.spans["parent/kernel"].count, 1);
        assert_eq!(snap.counters["worker.count"], 1);
    }

    #[test]
    fn registries_are_disjoint_and_nest() {
        let (a, b) = (Registry::new(), Registry::new());
        with_registry(&a, || {
            counter_add("c", 1);
            with_registry(&b, || counter_add("c", 10));
            counter_add("c", 2);
        });
        assert_eq!(a.snapshot().counters["c"], 3);
        assert_eq!(b.snapshot().counters["c"], 10);
        assert!(!Registry::global().snapshot().counters.contains_key("c"));
    }

    #[test]
    fn with_registry_restores_the_previous_registry_on_unwind() {
        let reg = Registry::new();
        let caught = std::panic::catch_unwind(|| with_registry(&reg, || panic!("boom")));
        assert!(caught.is_err());
        assert!(CURRENT.with(|c| c.borrow().is_none()));
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let reg = Registry::new();
        with_registry(&reg, || {
            counter_add("macs", 10);
            counter_add("macs", 5);
            counter_add_indexed("spikes.node", 3, 2);
            counter_add_indexed("spikes.node", 3, 4);
            counter_add("zero", 0); // no-op by contract
            gauge_set("neurons", 100);
            gauge_set("neurons", 200);
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["macs"], 15);
        assert_eq!(snap.counters["spikes.node.3"], 6);
        assert!(!snap.counters.contains_key("zero"));
        assert_eq!(snap.gauges["neurons"], 200);
        assert_eq!(snap.counter_prefix_sum("spikes.node."), 6);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        with_registry(&reg, || {
            let _g = span("a");
            counter_add("c", 3);
            gauge_set("g", 4);
        });
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn trace_file_holds_parseable_events() {
        let path = temp_trace("events");
        let reg = Registry::new();
        with_registry(&reg, || {
            open_trace(&path).unwrap();
            {
                let _g = span("traced");
                counter_add("c", 1);
                gauge_set("g", 2);
                histogram_record("h", 42);
            }
            close_trace();
        });
        let body = std::fs::read_to_string(&path).unwrap();
        let events: Vec<TraceEvent> = body
            .lines()
            .map(|l| serde_json::from_str(l).expect("every line parses"))
            .collect();
        std::fs::remove_file(&path).ok();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Span { path, .. } if path == "traced")));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Counter { key, delta: 1, .. } if key == "c")));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Gauge { key, value: 2 } if key == "g")));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Hist { key, value: 42, .. } if key == "h")));
    }

    #[test]
    fn reset_clears_aggregates_but_not_the_flag() {
        let reg = Registry::new();
        with_registry(&reg, || {
            counter_add("c", 1);
            reset();
            assert!(snapshot().is_empty());
            assert!(enabled());
        });
    }

    #[test]
    fn hist_bucket_math_covers_the_u64_range() {
        assert_eq!(hist_bucket_index(0), 0);
        assert_eq!(hist_bucket_index(1), 1);
        assert_eq!(hist_bucket_index(2), 2);
        assert_eq!(hist_bucket_index(3), 2);
        assert_eq!(hist_bucket_index(4), 3);
        assert_eq!(hist_bucket_index(u64::MAX), 64);
        assert_eq!(hist_bucket_bound(0), 0);
        assert_eq!(hist_bucket_bound(1), 1);
        assert_eq!(hist_bucket_bound(2), 3);
        assert_eq!(hist_bucket_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000, u64::MAX / 2, u64::MAX] {
            let i = hist_bucket_index(v);
            assert!(i < HIST_BUCKETS);
            assert!(v <= hist_bucket_bound(i));
            if i > 0 {
                assert!(v > hist_bucket_bound(i - 1));
            }
        }
    }

    #[test]
    fn histograms_record_exact_aggregates() {
        let reg = Registry::new();
        with_registry(&reg, || {
            for v in [0u64, 1, 5, 5, 100, 7] {
                histogram_record("lat", v);
            }
        });
        let snap = reg.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 118);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        assert_eq!(h.mean(), 19);
        assert_eq!(h.buckets.iter().sum::<u64>(), 6);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[3], 3); // 5, 5, 7 in [4,7]
    }

    #[test]
    fn quantile_matches_exact_sorted_within_one_bucket() {
        // Satellite check: quantile(0.99) vs the exact sorted p99 — the
        // histogram answer must bracket the true value within one log₂
        // bucket (never below it, less than 2× above it).
        let mut h = HistogramSnapshot::new();
        let mut values: Vec<u64> = Vec::new();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            // Deterministic LCG spread over a few decades.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % 1_000_000;
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for &p in &[0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = h.quantile(p);
            assert!(est >= exact, "p{p}: est {est} < exact {exact}");
            assert!(
                est <= exact.saturating_mul(2).max(1),
                "p{p}: est {est} > 2x exact {exact}"
            );
        }
    }

    #[test]
    fn histogram_merge_is_order_invariant() {
        let mut parts: Vec<HistogramSnapshot> = Vec::new();
        for t in 0..4u64 {
            let mut h = HistogramSnapshot::new();
            for i in 0..100u64 {
                h.record(t * 1000 + i * 7);
            }
            parts.push(h);
        }
        let mut fwd = HistogramSnapshot::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = HistogramSnapshot::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(
            serde_json::to_string(&fwd).unwrap(),
            serde_json::to_string(&rev).unwrap()
        );
        // And merging equals recording everything into one histogram.
        let mut all = HistogramSnapshot::new();
        for t in 0..4u64 {
            for i in 0..100u64 {
                all.record(t * 1000 + i * 7);
            }
        }
        assert_eq!(fwd, all);
    }

    #[test]
    fn histogram_snapshot_round_trips_through_json() {
        let mut h = HistogramSnapshot::new();
        for v in [3u64, 9, 27, 81] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        assert!(HistogramSnapshot::new().is_empty());
        assert_eq!(HistogramSnapshot::new().quantile(0.99), 0);
    }

    #[test]
    fn trace_event_round_trips() {
        let e = TraceEvent::Span {
            path: "a/b".into(),
            label: "b".into(),
            thread: 1,
            start_us: 10,
            dur_us: 5,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
