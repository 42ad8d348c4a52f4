//! Property-based tests for the tensor kernels.

use proptest::prelude::*;
use ull_tensor::conv::{conv2d, conv2d_backward, ConvGeometry};
use ull_tensor::pool::{avgpool2d, maxpool2d};
use ull_tensor::stats::{moments, percentile, percentile_table, Histogram};
use ull_tensor::{
    conv2d_events, matmul, matmul_transpose_a, matmul_transpose_b, parallel, SpikeBatch, Tensor,
};

/// Expands a draw of small integers into a uniform-amplitude spike
/// tensor: roughly one element in five carries `amp`, the rest are zero.
fn to_dense(mask: &[u8], amp: f32, shape: &[usize]) -> Tensor {
    let vals: Vec<f32> = mask
        .iter()
        .map(|&v| if v < 2 { amp } else { 0.0 })
        .collect();
    Tensor::from_vec(vals, shape).unwrap()
}

fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_distributes_over_addition(
        a in proptest::collection::vec(-2.0f32..2.0, 12),
        b in proptest::collection::vec(-2.0f32..2.0, 12),
        c in proptest::collection::vec(-2.0f32..2.0, 12),
    ) {
        // A(B + C) == AB + AC for 3x4 * 4x3.
        let a = Tensor::from_vec(a, &[3, 4]).unwrap();
        let b = Tensor::from_vec(b, &[4, 3]).unwrap();
        let c = Tensor::from_vec(c, &[4, 3]).unwrap();
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn matmul_transposes_are_consistent(
        a in proptest::collection::vec(-2.0f32..2.0, 8),
        b in proptest::collection::vec(-2.0f32..2.0, 12),
    ) {
        // (AB)^T == B^T A^T, exercised through all three kernels.
        let a = Tensor::from_vec(a, &[2, 4]).unwrap();
        let b = Tensor::from_vec(b, &[4, 3]).unwrap();
        let ab_t = matmul(&a, &b).transpose();
        let bt_at = matmul(&b.transpose(), &a.transpose());
        for (x, y) in ab_t.data().iter().zip(bt_at.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        // Same result via the fused kernels.
        let via_ta = matmul_transpose_a(&a.transpose(), &b);
        let via_tb = matmul_transpose_b(&a, &b.transpose());
        for (x, y) in via_ta.data().iter().zip(via_tb.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn conv_is_linear_in_input(
        x1 in proptest::collection::vec(-2.0f32..2.0, 32),
        x2 in proptest::collection::vec(-2.0f32..2.0, 32),
        w in proptest::collection::vec(-1.0f32..1.0, 18),
    ) {
        let geo = ConvGeometry::square(3, 1, 1);
        let x1 = Tensor::from_vec(x1, &[1, 2, 4, 4]).unwrap();
        let x2 = Tensor::from_vec(x2, &[1, 2, 4, 4]).unwrap();
        let w = Tensor::from_vec(w, &[1, 2, 3, 3]).unwrap();
        let sum = conv2d(&x1.add(&x2), &w, None, geo);
        let parts = conv2d(&x1, &w, None, geo).add(&conv2d(&x2, &w, None, geo));
        for (a, b) in sum.data().iter().zip(parts.data()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn maxpool_dominates_avgpool(x in proptest::collection::vec(-5.0f32..5.0, 16)) {
        let t = Tensor::from_vec(x, &[1, 1, 4, 4]).unwrap();
        let mx = maxpool2d(&t, 2).output;
        let av = avgpool2d(&t, 2);
        for (m, a) in mx.data().iter().zip(av.data()) {
            prop_assert!(m >= a);
        }
    }

    #[test]
    fn maxpool_output_is_subset_of_input(x in proptest::collection::vec(-5.0f32..5.0, 16)) {
        let t = Tensor::from_vec(x.clone(), &[1, 1, 4, 4]).unwrap();
        let mx = maxpool2d(&t, 2);
        for &v in mx.output.data() {
            prop_assert!(x.contains(&v));
        }
        // argmax indices point at the winning values.
        for (i, &arg) in mx.argmax.iter().enumerate() {
            prop_assert_eq!(x[arg], mx.output.data()[i]);
        }
    }

    #[test]
    fn moments_are_translation_equivariant(
        x in tensor_strategy(64),
        shift in -5.0f32..5.0,
    ) {
        let m0 = moments(&x);
        let shifted: Vec<f32> = x.iter().map(|v| v + shift).collect();
        let m1 = moments(&shifted);
        prop_assert!((m1.mean - (m0.mean + shift)).abs() < 1e-3);
        prop_assert!((m1.std - m0.std).abs() < 1e-3);
    }

    #[test]
    fn percentile_brackets_values(x in tensor_strategy(64), q in 0.0f32..100.0) {
        let p = percentile(&x, q);
        let min = x.iter().copied().fold(f32::INFINITY, f32::min);
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(p >= min && p <= max);
    }

    #[test]
    fn histogram_total_matches_records(x in tensor_strategy(128)) {
        let mut h = Histogram::new(-10.0, 10.0, 16);
        h.record_all(&x);
        prop_assert_eq!(h.total as usize, x.len());
        let counted: u64 = h.counts.iter().sum();
        prop_assert_eq!(counted, h.total);
    }

    #[test]
    fn percentile_table_is_monotone(x in tensor_strategy(128)) {
        let table = percentile_table(&x);
        prop_assert_eq!(table.len(), 101);
        for w in table.windows(2) {
            prop_assert!(w[0] <= w[1], "table not monotone: {} > {}", w[0], w[1]);
        }
        let min = x.iter().copied().fold(f32::INFINITY, f32::min);
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert_eq!(table[0], min);
        prop_assert_eq!(table[100], max);
    }

    #[test]
    fn histogram_cdf_tracks_empirical_cdf(x in tensor_strategy(128), q in -10.0f32..10.0) {
        let mut h = Histogram::new(-10.0, 10.0, 16);
        h.record_all(&x);
        let empirical = x.iter().filter(|&&v| v < q).count() as f32 / x.len() as f32;
        // Values in fully-counted bins are exactly below q; only the bin
        // containing q is linearly interpolated, so the histogram CDF can
        // deviate from the empirical one by at most that bin's mass.
        let pos = (q - h.lo) / h.bin_width();
        let bin = (pos.floor().max(0.0) as usize).min(h.counts.len() - 1);
        let tol = h.counts[bin] as f32 / h.total as f32 + 1e-4;
        prop_assert!(
            (h.cdf(q) - empirical).abs() <= tol,
            "cdf {} vs empirical {} (tol {})", h.cdf(q), empirical, tol
        );
    }

    #[test]
    fn matmul_kernels_are_thread_count_invariant(
        data in proptest::collection::vec(-3.0f32..3.0, 64),
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..6,
    ) {
        let a = Tensor::from_vec(data[..m * k].to_vec(), &[m, k]).unwrap();
        let b = Tensor::from_vec(data[25..25 + k * n].to_vec(), &[k, n]).unwrap();
        let run = || {
            (
                matmul(&a, &b),
                matmul_transpose_a(&a.transpose(), &b),
                matmul_transpose_b(&a, &b.transpose()),
            )
        };
        let (base, base_ta, base_tb) = parallel::with_threads(1, run);
        for threads in [2, 3, 4] {
            let (got, got_ta, got_tb) = parallel::with_threads(threads, run);
            // Exact equality: partitioning must not change float order.
            prop_assert_eq!(&got, &base, "threads {}", threads);
            prop_assert_eq!(&got_ta, &base_ta, "threads {}", threads);
            prop_assert_eq!(&got_tb, &base_tb, "threads {}", threads);
        }
    }

    #[test]
    fn conv_kernels_are_thread_count_invariant(
        x in proptest::collection::vec(-2.0f32..2.0, 3 * 2 * 6 * 6),
        w in proptest::collection::vec(-1.0f32..1.0, 3 * 2 * 3 * 3),
    ) {
        let geo = ConvGeometry::square(3, 1, 1);
        let x = Tensor::from_vec(x, &[3, 2, 6, 6]).unwrap();
        let w = Tensor::from_vec(w, &[3, 2, 3, 3]).unwrap();
        let (base, grad, base_grads) = parallel::with_threads(1, || {
            let base = conv2d(&x, &w, None, geo);
            // The forward output, zeroed where negative, as a ReLU-like grad.
            let grad = base.map(|v| v.max(0.0));
            let base_grads = conv2d_backward(&x, &w, &grad, geo);
            (base, grad, base_grads)
        });
        for threads in [2, 3, 4] {
            let (got, got_grads) = parallel::with_threads(threads, || {
                (conv2d(&x, &w, None, geo), conv2d_backward(&x, &w, &grad, geo))
            });
            prop_assert_eq!(&got, &base, "threads {}", threads);
            prop_assert_eq!(&got_grads, &base_grads, "threads {}", threads);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(x in proptest::collection::vec(-5.0f32..5.0, 6), c in -10.0f32..10.0) {
        let t = Tensor::from_vec(x.clone(), &[2, 3]).unwrap();
        let shifted = t.add_scalar(c);
        let s1 = t.softmax_rows();
        let s2 = shifted.softmax_rows();
        for (a, b) in s1.data().iter().zip(s2.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn clip_is_idempotent_and_bounded(x in tensor_strategy(32), hi in 0.1f32..5.0) {
        let t = Tensor::from_slice(&x);
        let c1 = t.clip(0.0, hi);
        let c2 = c1.clip(0.0, hi);
        prop_assert_eq!(&c1, &c2);
        prop_assert!(c1.data().iter().all(|&v| (0.0..=hi).contains(&v)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_events_match_dense_conv_bitwise(
        mask in proptest::collection::vec(0u8..10, 150),
        amp in 0.1f32..3.0,
        w in proptest::collection::vec(-1.0f32..1.0, 108),
        b in proptest::collection::vec(-0.5f32..0.5, 4),
        stride in 1usize..3,
        padding in 0usize..3,
    ) {
        // The event-driven kernel replays the dense conv's accumulation
        // order, so any geometry and any spike pattern must reproduce the
        // dense result bit for bit, at every thread count.
        let geo = ConvGeometry::square(3, stride, padding);
        let x = to_dense(&mask, amp, &[2, 3, 5, 5]);
        let w = Tensor::from_vec(w, &[4, 3, 3, 3]).unwrap();
        let bias = Tensor::from_vec(b, &[4]).unwrap();
        let ev = SpikeBatch::from_dense(&x).expect("uniform by construction");
        for threads in [1usize, 3] {
            let (dense, sparse) = parallel::with_threads(threads, || {
                let dense = conv2d(&x, &w, Some(&bias), geo);
                let mut sparse = Tensor::default();
                conv2d_events(&ev, &w, Some(&bias), geo, &mut sparse);
                (dense, sparse)
            });
            prop_assert_eq!(sparse.shape(), dense.shape());
            for (s, d) in sparse.data().iter().zip(dense.data()) {
                prop_assert_eq!(s.to_bits(), d.to_bits(), "threads {}", threads);
            }
        }
    }

    #[test]
    fn matmul_events_match_dense_matmul_bitwise(
        mask in proptest::collection::vec(0u8..10, 36),
        amp in 0.1f32..3.0,
        w in proptest::collection::vec(-1.0f32..1.0, 60),
    ) {
        let x = to_dense(&mask, amp, &[3, 12]);
        let w = Tensor::from_vec(w, &[5, 12]).unwrap();
        let ev = SpikeBatch::from_dense(&x).expect("uniform by construction");
        for threads in [1usize, 3] {
            let (dense, sparse) = parallel::with_threads(threads, || {
                let dense = matmul_transpose_b(&x, &w);
                let mut sparse = Tensor::default();
                ull_tensor::matmul_tb_events(&ev, &w, &mut sparse);
                (dense, sparse)
            });
            prop_assert_eq!(sparse.shape(), dense.shape());
            for (s, d) in sparse.data().iter().zip(dense.data()) {
                prop_assert_eq!(s.to_bits(), d.to_bits(), "threads {}", threads);
            }
        }
    }

    #[test]
    fn spike_batch_round_trips_any_uniform_tensor(
        mask in proptest::collection::vec(0u8..10, 36),
        amp in 0.1f32..3.0,
    ) {
        let x = to_dense(&mask, amp, &[4, 9]);
        let ev = SpikeBatch::from_dense(&x).expect("uniform by construction");
        prop_assert_eq!(&ev.to_dense(), &x);
        let nnz = mask.iter().filter(|&&v| v < 2).count();
        prop_assert_eq!(ev.nnz(), nnz);
        let density = nnz as f32 / mask.len() as f32;
        prop_assert!((ev.density() - density).abs() < 1e-6);
    }
}
