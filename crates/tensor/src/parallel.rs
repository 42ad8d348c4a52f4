//! Dependency-free data parallelism for the hot kernels.
//!
//! A `std::thread::scope`-based worker pool with two entry points:
//!
//! * `par_chunks_mut` (this crate's kernels only) — split a mutable slice
//!   into contiguous chunks and process them concurrently (row-blocked
//!   matmul, per-image conv backward).
//! * [`par_map`] — evaluate `f(0..n)` concurrently and return the results
//!   in index order (batch-parallel SNN simulation, per-layer α/β search).
//!
//! # Thread count and kernel budget
//!
//! [`num_threads`] resolves, in order: the calling thread's kernel budget,
//! the `ULL_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. A count of 1 is a guaranteed
//! serial fallback: every entry point runs its work inline on the calling
//! thread without spawning, and every kernel sizes its row and batch
//! blocks for one thread.
//!
//! The budget is per thread and unset by default. [`with_threads`] sets it
//! for the duration of a closure; it is the one way to pick a thread count
//! in code. `with_threads(1, …)` keeps a thread that already is one of
//! several parallel workers (an `ull-serve` batch worker) running its
//! kernels on itself, whatever the process-wide count. The budget does not
//! reach threads the closure spawns itself: each such thread starts unset.
//!
//! # Fan-out
//!
//! A call that splits into `w = min(threads, pieces) > 1` workers spawns
//! `w − 1` scoped threads, and the calling thread works as the `w`-th:
//! every worker pulls pieces from one shared queue until it is empty.
//! Spawned workers adopt the caller's obs scope, so spans and counters
//! they record roll up under the caller's span, in the caller's registry.
//! Each fan-out adds 1 to the `parallel.fanouts` counter and `w − 1` to
//! `parallel.spawned`; inline calls record nothing.
//!
//! Every worker, the caller included, runs its pieces at a budget of 1.
//! Calls nested inside a piece therefore run inline on that worker — an
//! outer fan-out (batch-parallel SNN steps) already owns every core, so
//! inner kernels (matmul, conv) do not spawn a second generation of
//! threads. The caller's own budget is restored when the call returns.
//!
//! # Determinism
//!
//! The pool only ever hands out *work distribution*; callers keep each
//! output element's accumulation order identical to the serial loop
//! (contiguous row/batch blocks, reductions folded in index order). Under
//! that contract — upheld by every kernel in this workspace — results are
//! **bit-identical for every thread count and budget**. The property
//! tests in `crates/tensor/tests/proptests.rs` and
//! `crates/snn/tests/proptests.rs` assert exact equality between 1-, 2-,
//! 3- and 4-thread runs.
//!
//! Threads are scoped: they are spawned and joined inside each call, so
//! the pool borrows (not moves) the caller's data.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// This thread's kernel budget: the worker count its parallel calls
    /// use, ahead of `ULL_THREADS`. 0 means unset.
    static BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with this thread's kernel budget at `n`: every parallel call
/// `f` makes on this thread splits over at most `n` workers, and `n = 1`
/// runs them all inline. The previous budget is restored when `f`
/// returns or unwinds.
///
/// Results are bit-identical at every `n`; only where the work runs
/// changes.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "with_threads needs at least one thread");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(n)));
    f()
}

/// `ULL_THREADS` is read once — changing the environment mid-process does
/// not retune the pool ([`with_threads`] exists for that).
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
/// Resolution order: this thread's kernel budget (see [`with_threads`])
/// → `ULL_THREADS` environment variable (malformed values warn once and
/// are ignored) → [`std::thread::available_parallelism`] (queried once,
/// then cached) → 1.
pub fn num_threads() -> usize {
    let budget = BUDGET.with(Cell::get);
    if budget > 0 {
        return budget;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    default_threads()
}

/// Sets this thread's kernel budget until changed; `set_threads(0)`
/// clears it. Unlike [`with_threads`], nothing restores the old budget,
/// so code in this workspace uses [`with_threads`] (`clippy.toml`
/// rejects new callers); the separate perfbench harness still calls it.
pub fn set_threads(n: usize) {
    BUDGET.with(|b| b.set(n));
}

/// Runs `work` on `workers` threads: `workers − 1` scoped spawns, which
/// adopt the caller's obs scope, plus the calling thread. Every copy runs
/// at a budget of 1, so parallel calls nested in `work` run inline.
fn fan_out(workers: usize, work: impl Fn() + Sync) {
    ull_obs::counter_add("parallel.fanouts", 1);
    ull_obs::counter_add("parallel.spawned", (workers - 1) as u64);
    let parent = ull_obs::current_scope();
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|| with_threads(1, || ull_obs::with_scope(&parent, &work)));
        }
        with_threads(1, &work);
    });
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
pub(crate) fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let workers = num_threads().min(data.len().div_ceil(chunk_len));
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // A locked iterator hands each chunk to exactly one worker. The lock
    // is taken once per chunk; chunks are coarse (whole row blocks), so
    // contention is negligible against the work inside `f`.
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    fan_out(workers, || loop {
        let next = queue.lock().expect("chunk queue poisoned").next();
        match next {
            Some((i, chunk)) => f(i, chunk),
            None => break,
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
    let workers = num_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    fan_out(workers, || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let value = f(i);
        *slots[i].lock().expect("result slot poisoned") = Some(value);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        for threads in [1, 2, 4] {
            let mut v = vec![0u32; 103];
            with_threads(threads, || {
                par_chunks_mut(&mut v, 10, |i, chunk| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x += (i * 10 + j) as u32 + 1;
                    }
                })
            });
            assert!(
                v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_preserves_index_order() {
        for threads in [1, 3, 8] {
            let out = with_threads(threads, || par_map(37, |i| i * i));
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_fallback_spawns_no_threads() {
        let caller = std::thread::current().id();
        let reg = ull_obs::Registry::new();
        let ids = ull_obs::with_registry(&reg, || {
            with_threads(1, || {
                let mut v = vec![0u8; 16];
                par_chunks_mut(&mut v, 4, |_, _| {});
                let mut ids = par_map(4, |_| std::thread::current().id());
                ids.extend(with_threads(4, || {
                    with_threads(1, || par_map(4, |_| std::thread::current().id()))
                }));
                ids
            })
        });
        assert!(ids.iter().all(|&id| id == caller));
        // Inline calls record nothing on the obs plane.
        let snap = reg.snapshot();
        assert!(!snap.counters.contains_key("parallel.fanouts"));
        assert!(!snap.counters.contains_key("parallel.spawned"));
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
        let resolved = num_threads();
        for _ in 0..100 {
            assert_eq!(num_threads(), resolved);
        }
    }

    #[test]
    fn budget_beats_environment() {
        let default = env_threads().unwrap_or_else(default_threads);
        assert_eq!(
            num_threads(),
            default,
            "no budget: ULL_THREADS or the cores"
        );
        with_threads(default + 1, || assert_eq!(num_threads(), default + 1));
        assert_eq!(num_threads(), default);
    }

    #[test]
    fn each_thread_reads_its_own_count() {
        // Two threads set different counts at once, by each of the two
        // setters, and a third reads none. None may see another's count,
        // as it did when the count was one process-wide value.
        let default = env_threads().unwrap_or_else(default_threads);
        let both_set = std::sync::Barrier::new(3);
        let both_read = std::sync::Barrier::new(3);
        let (setter, scoped, bystander) = std::thread::scope(|s| {
            let setter = s.spawn(|| {
                #[allow(clippy::disallowed_methods)]
                set_threads(default + 1);
                both_set.wait();
                let n = num_threads();
                both_read.wait();
                n
            });
            let scoped = s.spawn(|| {
                with_threads(default + 2, || {
                    both_set.wait();
                    let n = num_threads();
                    both_read.wait();
                    n
                })
            });
            both_set.wait();
            let bystander = num_threads();
            both_read.wait();
            (
                setter.join().expect("setter thread"),
                scoped.join().expect("scoped thread"),
                bystander,
            )
        });
        assert_eq!(setter, default + 1);
        assert_eq!(scoped, default + 2);
        assert_eq!(bystander, default);
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker() {
        let outer = with_threads(4, || {
            par_map(4, |i| {
                let worker = std::thread::current().id();
                // The nested call must not spawn: every inner closure runs
                // on the same pool worker that owns the outer item.
                let inner = par_map(3, |_| std::thread::current().id());
                (i, inner.into_iter().all(|id| id == worker))
            })
        });
        assert!(outer.iter().all(|&(_, same)| same));
    }

    #[test]
    fn nested_budgets_are_restored_on_return_and_unwind() {
        let default = num_threads();
        with_threads(4, || {
            assert_eq!(num_threads(), 4);
            with_threads(1, || assert_eq!(num_threads(), 1));
            assert_eq!(num_threads(), 4, "a nested budget restores the outer one");
            let unwound = std::panic::catch_unwind(|| with_threads(1, || panic!("kernel failed")));
            assert!(unwound.is_err());
            assert_eq!(num_threads(), 4, "an unwind restores the budget too");
        });
        assert_eq!(num_threads(), default, "the unset budget is restored");
    }

    #[test]
    fn the_caller_works_as_one_of_the_workers() {
        let caller = std::thread::current().id();
        with_threads(3, || {
            let ids = par_map(64, |_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                std::thread::current().id()
            });
            assert!(ids.contains(&caller), "the caller ran no item");
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert!(distinct.len() <= 3, "{} threads ran items", distinct.len());
            let budgets = par_map(6, |_| num_threads());
            assert!(budgets.iter().all(|&b| b == 1), "workers run at budget 1");
            assert_eq!(num_threads(), 3, "the caller's budget is restored");
        });
    }

    #[test]
    fn worker_spans_roll_up_under_the_callers_span() {
        // Collecting into the global registry too, so a leak out of the
        // scoped one would show up there.
        let global = ull_obs::Registry::global();
        global.set_enabled(true);
        let reg = ull_obs::Registry::new();
        with_threads(4, || {
            ull_obs::with_registry(&reg, || {
                let _outer = ull_obs::span("parallel.test.outer");
                par_map(8, |_| {
                    let _inner = ull_obs::span("parallel.test.work");
                    ull_obs::counter_add("parallel.test.items", 1);
                })
            })
        });
        global.set_enabled(false);
        let snap = reg.snapshot();
        // Every per-item span lands on the parent path, none at top level.
        assert_eq!(
            snap.spans["parallel.test.outer/parallel.test.work"].count,
            8
        );
        assert!(!snap.spans.contains_key("parallel.test.work"));
        assert_eq!(snap.counters["parallel.test.items"], 8);
        // One fan-out: three spawned workers, the caller the fourth.
        assert_eq!(snap.counters["parallel.fanouts"], 1);
        assert_eq!(snap.counters["parallel.spawned"], 3);
        let leaked = global.snapshot();
        assert!(
            leaked.spans.keys().all(|k| !k.contains("parallel.test."))
                && !leaked.counters.contains_key("parallel.test.items"),
            "worker records reached the global registry"
        );
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        with_threads(4, || {
            let mut empty: Vec<f32> = Vec::new();
            par_chunks_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
            assert_eq!(par_map(0, |i| i).len(), 0);
            let mut one = vec![1.0f32];
            par_chunks_mut(&mut one, 8, |i, c| {
                assert_eq!(i, 0);
                c[0] = 2.0;
            });
            assert_eq!(one, vec![2.0]);
        });
    }
}
