//! Dependency-free data parallelism for the hot kernels.
//!
//! A `std::thread::scope`-based worker pool with two entry points:
//!
//! * [`par_chunks_mut`] — split a mutable slice into contiguous chunks and
//!   process them concurrently (row-blocked matmul, per-image conv
//!   backward).
//! * [`par_map`] — evaluate `f(0..n)` concurrently and return the results
//!   in index order (batch-parallel SNN simulation, per-layer α/β search).
//!
//! # Thread count
//!
//! [`num_threads`] resolves, in order: the programmatic [`set_threads`]
//! override, the `ULL_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. `ULL_THREADS=1` (or
//! `set_threads(1)`) is a guaranteed serial fallback: every entry point
//! runs its work inline on the calling thread without spawning.
//!
//! # Determinism
//!
//! The pool only ever hands out *work distribution*; callers keep each
//! output element's accumulation order identical to the serial loop
//! (contiguous row/batch blocks, reductions folded in index order). Under
//! that contract — upheld by every kernel in this workspace — results are
//! **bit-identical for every thread count**. The property tests in
//! `crates/tensor/tests/proptests.rs` and `crates/snn/tests/proptests.rs`
//! assert exact equality between 1-, 2-, 3- and 4-thread runs.
//!
//! Threads are scoped: they are spawned and joined inside each call, so
//! the pool holds no global state beyond the thread-count override and
//! borrows (not moves) the caller's data. Calls nested inside a worker
//! run inline on that worker — an outer fan-out (batch-parallel SNN
//! steps) already owns every core, so inner kernels (matmul, conv) do
//! not spawn a second generation of threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Set while a pool worker runs caller code. Nested parallel calls
    /// (e.g. a batch-parallel SNN step invoking the row-parallel matmul)
    /// then run inline instead of spawning threads quadratically — the
    /// outer fan-out already owns every core.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Marks the current thread as a pool worker for the duration of `f`.
fn as_pool_worker<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL.with(|p| p.set(true));
    let r = f();
    IN_POOL.with(|p| p.set(false));
    r
}

/// Programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `ULL_THREADS` is read once — changing the environment mid-process does
/// not retune the pool (the override exists for that).
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Parses one `ULL_THREADS` value. `Err` carries the reason the value was
/// rejected (not an integer, empty, or zero — zero workers is meaningless;
/// `1` is the serial fallback).
fn parse_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value".to_string());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("0 workers is not meaningful (use 1 for serial)".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("`{raw}` is not a positive integer")),
    }
}

/// Resolves an environment-supplied thread count: well-formed values are
/// used, malformed values (`abc`, `0`, whitespace) warn once on stderr and
/// fall back to the default resolution (`None`) instead of being silently
/// dropped.
fn resolve_env_threads(raw: Option<&str>) -> Option<usize> {
    match raw {
        None => None,
        Some(s) => match parse_threads(s) {
            Ok(n) => Some(n),
            Err(why) => {
                eprintln!(
                    "warning: ignoring malformed ULL_THREADS ({why}); \
                     using available parallelism"
                );
                None
            }
        },
    }
}

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| resolve_env_threads(std::env::var("ULL_THREADS").ok().as_deref()))
}

/// [`std::thread::available_parallelism`] resolved once per process. The
/// OS query sits on the resolution path of every kernel call; caching it
/// keeps `num_threads` to two atomic loads on the hot path. The count a
/// process observes is therefore stable even if the OS would report a
/// different value later (cgroup resize, CPU hotplug) — acceptable, since
/// the pool's sizing is a performance hint, never a correctness input.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count every parallel entry point will use.
///
/// Resolution order: [`set_threads`] override → `ULL_THREADS` environment
/// variable (malformed values warn once and are ignored) →
/// [`std::thread::available_parallelism`] (queried once, then cached) → 1.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    default_threads()
}

/// Overrides the worker count process-wide; `set_threads(0)` restores the
/// `ULL_THREADS`/`available_parallelism` default. Mainly for tests and
/// benches that compare thread counts within one process.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Splits `data` into contiguous `chunk_len`-sized pieces (the last may be
/// shorter) and calls `f(chunk_index, chunk)` once per piece, distributing
/// pieces over the worker pool.
///
/// Chunks are disjoint, so any execution order yields the same memory
/// contents; pass a chunk-index-addressed `f` so each piece knows which
/// rows it owns.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let threads = num_threads();
    let n_chunks = data.len().div_ceil(chunk_len.max(1));
    if threads <= 1 || n_chunks <= 1 || in_pool() {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // A locked iterator hands each chunk to exactly one worker. The lock
    // is taken once per chunk; chunks are coarse (whole row blocks), so
    // contention is negligible against the work inside `f`.
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    // Workers adopt the caller's obs scope, so spans and counters inside
    // `f` roll up under the span that issued this parallel call, in the
    // caller's registry.
    let parent = ull_obs::current_scope();
    std::thread::scope(|s| {
        for _ in 0..threads.min(n_chunks) {
            s.spawn(|| {
                as_pool_worker(|| {
                    ull_obs::with_scope(&parent, || loop {
                        let next = queue.lock().expect("chunk queue poisoned").next();
                        match next {
                            Some((i, chunk)) => f(i, chunk),
                            None => break,
                        }
                    })
                })
            });
        }
    });
}

/// Evaluates `f(i)` for `i in 0..n` across the worker pool and returns the
/// results **in index order**, exactly as the serial `(0..n).map(f)` would.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = num_threads();
    if threads <= 1 || n <= 1 || in_pool() {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let parent = ull_obs::current_scope();
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| {
                as_pool_worker(|| {
                    ull_obs::with_scope(&parent, || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let value = f(i);
                        *slots[i].lock().expect("result slot poisoned") = Some(value);
                    })
                })
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Serializes tests that mutate the global thread override so they do not
/// race each other (test binaries run tests concurrently).
#[doc(hidden)]
pub fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let _guard = override_lock();
        for threads in [1, 2, 4] {
            set_threads(threads);
            let mut v = vec![0u32; 103];
            par_chunks_mut(&mut v, 10, |i, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x += (i * 10 + j) as u32 + 1;
                }
            });
            assert!(
                v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1),
                "threads={threads}"
            );
        }
        set_threads(0);
    }

    #[test]
    fn par_map_preserves_index_order() {
        let _guard = override_lock();
        for threads in [1, 3, 8] {
            set_threads(threads);
            let out = par_map(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    #[test]
    fn serial_fallback_spawns_no_threads() {
        let _guard = override_lock();
        set_threads(1);
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        let mut v = vec![0u8; 16];
        par_chunks_mut(&mut v, 4, |_, _| {});
        let ids = par_map(4, |_| std::thread::current().id());
        seen.extend(ids);
        assert!(seen.iter().all(|&id| id == caller));
        set_threads(0);
    }

    #[test]
    fn well_formed_thread_counts_parse() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 4 "), Ok(4), "whitespace is trimmed");
        assert_eq!(resolve_env_threads(Some("3")), Some(3));
        assert_eq!(resolve_env_threads(None), None);
    }

    #[test]
    fn malformed_thread_counts_warn_and_default() {
        // Regression: these used to be silently dropped by a
        // `.parse().ok()` chain, so `ULL_THREADS=abc` behaved exactly like
        // an unset variable with no hint to the operator. The resolution
        // layer must reject each one (warning once) and fall back.
        assert!(parse_threads("abc").is_err());
        assert!(parse_threads("0").is_err(), "0 workers is meaningless");
        assert!(parse_threads("").is_err());
        assert!(parse_threads("  ").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("2.5").is_err());
        for bad in ["abc", "0", "", "  ", "-2", "2.5", "4x"] {
            assert_eq!(resolve_env_threads(Some(bad)), None, "input {bad:?}");
        }
    }

    #[test]
    fn resolved_default_thread_count_is_cached_and_stable() {
        // Regression: `num_threads` used to re-query
        // `available_parallelism` on every call — a per-kernel-call OS
        // query on the hot path. The resolved count must now come from the
        // `OnceLock` cache: positive and identical on every call.
        let first = default_threads();
        assert!(first >= 1);
        for _ in 0..1000 {
            assert_eq!(default_threads(), first);
        }
        // And the full resolution chain stays stable too.
        let _guard = override_lock();
        set_threads(0);
        let resolved = num_threads();
        for _ in 0..100 {
            assert_eq!(num_threads(), resolved);
        }
    }

    #[test]
    fn override_beats_environment() {
        let _guard = override_lock();
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker() {
        let _guard = override_lock();
        set_threads(4);
        let outer = par_map(4, |i| {
            let worker = std::thread::current().id();
            // The nested call must not spawn: every inner closure runs on
            // the same pool worker that owns the outer item.
            let inner = par_map(3, |_| std::thread::current().id());
            (i, inner.into_iter().all(|id| id == worker))
        });
        assert!(outer.iter().all(|&(_, same)| same));
        set_threads(0);
    }

    #[test]
    fn worker_spans_roll_up_under_the_callers_span() {
        let _guard = override_lock();
        // Collecting into the global registry too, so a leak out of the
        // scoped one would show up there.
        let global = ull_obs::Registry::global();
        global.set_enabled(true);
        let reg = ull_obs::Registry::new();
        set_threads(4);
        ull_obs::with_registry(&reg, || {
            let _outer = ull_obs::span("parallel.test.outer");
            par_map(8, |_| {
                let _inner = ull_obs::span("parallel.test.work");
                ull_obs::counter_add("parallel.test.items", 1);
            })
        });
        set_threads(0);
        global.set_enabled(false);
        let snap = reg.snapshot();
        // Every per-item span lands on the parent path, none at top level.
        assert_eq!(
            snap.spans["parallel.test.outer/parallel.test.work"].count,
            8
        );
        assert!(!snap.spans.contains_key("parallel.test.work"));
        assert_eq!(snap.counters["parallel.test.items"], 8);
        let leaked = global.snapshot();
        assert!(
            leaked.spans.keys().all(|k| !k.contains("parallel.test."))
                && !leaked.counters.contains_key("parallel.test.items"),
            "worker records reached the global registry"
        );
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let _guard = override_lock();
        set_threads(4);
        let mut empty: Vec<f32> = Vec::new();
        par_chunks_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
        assert_eq!(par_map(0, |i| i).len(), 0);
        let mut one = vec![1.0f32];
        par_chunks_mut(&mut one, 8, |i, c| {
            assert_eq!(i, 0);
            c[0] = 2.0;
        });
        assert_eq!(one, vec![2.0]);
        set_threads(0);
    }
}
