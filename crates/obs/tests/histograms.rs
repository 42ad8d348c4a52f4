//! Property tests for histogram determinism: merged per-thread snapshots
//! must be bit-identical regardless of thread count (the `ULL_THREADS`
//! {1,4} contract) or merge order, and recording with the gate off must
//! leave the registry untouched.

use proptest::prelude::*;
use ull_obs::{histogram_record, HistogramSnapshot};

/// Splits `values` into `threads` round-robin shards, records each shard
/// in its own [`HistogramSnapshot`] on its own OS thread, and merges the
/// per-thread snapshots in shard order.
fn record_sharded(values: &[u64], threads: usize) -> HistogramSnapshot {
    let shards: Vec<Vec<u64>> = (0..threads)
        .map(|t| {
            values
                .iter()
                .enumerate()
                .filter(|(i, _)| i % threads == t)
                .map(|(_, &v)| v)
                .collect()
        })
        .collect();
    let parts: Vec<HistogramSnapshot> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                s.spawn(move || {
                    let mut h = HistogramSnapshot::new();
                    for &v in shard {
                        h.record(v);
                    }
                    h
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut merged = HistogramSnapshot::new();
    for p in &parts {
        merged.merge(p);
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same multiset of values recorded on 1 thread or sharded across
    /// 4 threads merges to bit-identical snapshots (and identical JSON).
    #[test]
    fn merged_snapshots_identical_across_thread_counts(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..400),
    ) {
        let one = record_sharded(&values, 1);
        let four = record_sharded(&values, 4);
        prop_assert_eq!(&one, &four);
        prop_assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&four).unwrap()
        );
    }

    /// Merge is order-invariant: forward and reverse folds of per-shard
    /// snapshots agree bit-for-bit, and quantiles answer identically.
    #[test]
    fn merge_order_does_not_change_the_snapshot(
        values in proptest::collection::vec(0u64..u64::MAX, 1..300),
        shards in 2usize..6,
    ) {
        let parts: Vec<HistogramSnapshot> = (0..shards)
            .map(|t| {
                let mut h = HistogramSnapshot::new();
                for (i, &v) in values.iter().enumerate() {
                    if i % shards == t {
                        h.record(v);
                    }
                }
                h
            })
            .collect();
        let mut fwd = HistogramSnapshot::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = HistogramSnapshot::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        prop_assert_eq!(&fwd, &rev);
        for &p in &[0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(fwd.quantile(p), rev.quantile(p));
        }
    }

    /// Quantiles never underestimate the exact sorted rank value and stay
    /// within one log₂ bucket (< 2×) above it.
    #[test]
    fn quantile_brackets_the_exact_value(
        raw in proptest::collection::vec(0u64..10_000_000, 1..500),
        p in 0.01f64..1.0,
    ) {
        let mut h = HistogramSnapshot::new();
        for &v in &raw {
            h.record(v);
        }
        let mut values = raw;
        values.sort_unstable();
        let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let est = h.quantile(p);
        prop_assert!(est >= exact);
        prop_assert!(est <= exact.saturating_mul(2).max(1));
    }

    /// With the gate off, `histogram_record` leaves the registry
    /// untouched — no keys appear, counts stay zero.
    #[test]
    fn gate_off_leaves_registry_untouched(
        values in proptest::collection::vec(0u64..1_000_000, 1..50),
    ) {
        let reg = ull_obs::Registry::new();
        reg.set_enabled(false);
        ull_obs::with_registry(&reg, || {
            for &v in &values {
                histogram_record("gated.off", v);
            }
        });
        let snap = reg.snapshot();
        prop_assert!(snap.histograms.is_empty());
        prop_assert!(snap.is_empty());
    }
}
