//! Differential harness for the crate's GEMMs: the packed weight-stationary
//! kernels and the two `i-k-j` backward kernels.
//!
//! Fuzzes shapes × sparsity × `ULL_THREADS` {1, 4} and asserts *byte*
//! equality against the scalar dot-product kernels of `common/reference.rs`:
//! the packed panel core for `A · Bᵀ` and conv (the crate's own
//! `matmul_transpose_b` and `conv2d` run that core themselves), and
//! [`matmul`] and [`matmul_transpose_a`] for `A · B` and `Aᵀ · B`.
//! Deterministic cases pin the panel/tile boundary shapes
//! (n ∈ {1, 7, 8, 9, 16, 17}, m across the 4-row tile) that fuzzing may
//! skip over, and the zero-lhs skip against non-finite weights.

mod common;

use common::reference;
use proptest::prelude::*;
use ull_tensor::conv::{conv2d_packed_into, ConvGeometry, ConvScratch};
use ull_tensor::{matmul, matmul_tb_packed, matmul_transpose_a, parallel, PackedWeights, Tensor};

fn assert_bits_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// Zeroes out all but roughly one in `keep_one_in` entries — the
/// uniform-amplitude spike matrices of the SNN hot path.
fn sparsify(t: &mut Tensor, keep_one_in: usize, amp: f32) {
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        *v = if (i * 2654435761) % keep_one_in == 0 {
            amp
        } else {
            0.0
        };
    }
}

/// Every panel/tile boundary shape, dense and spike-sparse lhs, across
/// thread counts — the deterministic backbone of the harness.
#[test]
fn panel_and_tile_boundaries_bitwise_across_threads() {
    for n in [1usize, 7, 8, 9, 16, 17] {
        for m in [1usize, 3, 4, 5, 8, 9] {
            let k = 6 + (m + n) % 5;
            let mut a = rand_tensor(&[m, k], (m * 131 + n) as u64);
            let bt = rand_tensor(&[n, k], (m * 17 + n * 3) as u64);
            let b = rand_tensor(&[k, n], (m * 29 + n * 7) as u64);
            let packed_t = PackedWeights::pack_rhs_t(&bt);
            for sparse in [false, true] {
                if sparse {
                    sparsify(&mut a, 4, 0.75);
                }
                // The same values read as the `[k, m]` lhs of `Aᵀ · B`.
                let at = a.reshape(&[k, m]).unwrap();
                let want_tb = reference::matmul_tb(&a, &bt);
                let want = reference::matmul(&a, &b);
                let want_ta = reference::matmul_ta(&at, &b);
                for threads in [1usize, 4] {
                    parallel::with_threads(threads, || {
                        let ctx = format!("m={m} n={n} k={k} sparse={sparse} threads={threads}");
                        assert_bits_eq(&matmul_tb_packed(&a, &packed_t), &want_tb, &ctx);
                        assert_bits_eq(&matmul(&a, &b), &want, &ctx);
                        assert_bits_eq(&matmul_transpose_a(&at, &b), &want_ta, &ctx);
                    });
                }
            }
        }
    }
}

/// Non-finite weights (`±∞`, NaN, as a weight bit flip can leave) where
/// every lhs entry against them is `±0.0`: the panel core must skip those
/// terms as the scalar dot product masks them, not multiply them by zero
/// (`0 · ∞` is NaN). Covers every tile height and a padded last panel.
#[test]
fn zero_lhs_skips_non_finite_weights_bitwise_across_threads() {
    let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let k = 9;
    for n in [10usize, 17] {
        for m in 1..=7usize {
            let mut a = rand_tensor(&[m, k], (m * 13 + n) as u64);
            let mut bt = rand_tensor(&[n, k], (m * 5 + n * 11) as u64);
            for p in (1..k).step_by(3) {
                for i in 0..m {
                    a.data_mut()[i * k + p] = if (i + p) % 2 == 0 { 0.0 } else { -0.0 };
                }
                for j in 0..n {
                    bt.data_mut()[j * k + p] = poison[(j + p) % 3];
                }
            }
            let packed = PackedWeights::pack_rhs_t(&bt);
            let want = reference::matmul_tb(&a, &bt);
            assert!(want.data().iter().all(|v| v.is_finite()), "m={m} n={n}");
            for threads in [1usize, 4] {
                let ctx = format!("m={m} n={n} threads={threads}");
                let got = parallel::with_threads(threads, || matmul_tb_packed(&a, &packed));
                assert_bits_eq(&got, &want, &ctx);
            }
        }
    }
}

#[test]
fn packed_conv_boundaries_bitwise_across_threads() {
    let mut scratch = ConvScratch::default();
    let mut got = Tensor::default();
    for f in [1usize, 7, 8, 9] {
        let x = rand_tensor(&[2, 3, 6, 6], f as u64 + 40);
        let w = rand_tensor(&[f, 3, 3, 3], f as u64 + 50);
        let bias = rand_tensor(&[f], f as u64 + 60);
        let packed = PackedWeights::pack_conv(&w);
        for geo in [ConvGeometry::square(3, 1, 1), ConvGeometry::square(3, 2, 0)] {
            let want = reference::conv2d(&x, &w, Some(&bias), geo);
            for threads in [1usize, 4] {
                parallel::with_threads(threads, || {
                    conv2d_packed_into(&x, &packed, Some(&bias), geo, &mut scratch, &mut got)
                });
                assert_bits_eq(&got, &want, &format!("f={f} threads={threads}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes × random data: `A · Bᵀ` packed == reference, bitwise,
    /// at `ULL_THREADS` 1 and 4.
    #[test]
    fn fuzz_matmul_tb_packed_bitwise(
        data in proptest::collection::vec(-3.0f32..3.0, 64),
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..11,
    ) {
        let a = Tensor::from_vec(data[..m * k].to_vec(), &[m, k]).unwrap();
        let bt = Tensor::from_vec(data[64 - n * k..].to_vec(), &[n, k]).unwrap();
        let packed = PackedWeights::pack_rhs_t(&bt);
        for threads in [1usize, 4] {
            let want = reference::matmul_tb(&a, &bt);
            let got = parallel::with_threads(threads, || matmul_tb_packed(&a, &packed));
            prop_assert_eq!(got.shape(), want.shape());
            for (g, w) in got.data().iter().zip(want.data()) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "threads {}: {} vs {}", threads, g, w);
            }
        }
    }

    /// Spike-sparse lhs (uniform amplitude, ~1-in-5 active): the panel
    /// core's zero-skip must drop exactly the terms the reference masks.
    #[test]
    fn fuzz_sparse_lhs_packed_bitwise(
        mask in proptest::collection::vec(0u8..10, 30),
        w in proptest::collection::vec(-2.0f32..2.0, 60),
        amp in 0.25f32..2.0,
        density in 1u8..9,
    ) {
        let vals: Vec<f32> = mask.iter().map(|&v| if v < density { amp } else { 0.0 }).collect();
        let a = Tensor::from_vec(vals, &[5, 6]).unwrap();
        let bt = Tensor::from_vec(w, &[10, 6]).unwrap();
        let packed = PackedWeights::pack_rhs_t(&bt);
        for threads in [1usize, 4] {
            let want = reference::matmul_tb(&a, &bt);
            let got = parallel::with_threads(threads, || matmul_tb_packed(&a, &packed));
            for (g, wv) in got.data().iter().zip(want.data()) {
                prop_assert_eq!(g.to_bits(), wv.to_bits(), "threads {}", threads);
            }
        }
    }

    /// Random conv shapes: packed conv == reference conv, bitwise, with and
    /// without bias, across thread counts.
    #[test]
    fn fuzz_conv_packed_bitwise(
        x in proptest::collection::vec(-2.0f32..2.0, 96),
        w in proptest::collection::vec(-1.0f32..1.0, 54),
        bias in proptest::collection::vec(-1.0f32..1.0, 3),
        with_bias_bit in 0u8..2,
        stride in 1usize..3,
        padding in 0usize..2,
    ) {
        let geo = ConvGeometry::square(3, stride, padding);
        let x = Tensor::from_vec(x, &[2, 3, 4, 4]).unwrap();
        let w = Tensor::from_vec(w, &[2, 3, 3, 3]).unwrap();
        let bias = Tensor::from_vec(bias[..2].to_vec(), &[2]).unwrap();
        let b = (with_bias_bit == 1).then_some(&bias);
        let packed = PackedWeights::pack_conv(&w);
        let mut scratch = ConvScratch::default();
        let mut got = Tensor::default();
        for threads in [1usize, 4] {
            let want = reference::conv2d(&x, &w, b, geo);
            parallel::with_threads(threads, || {
                conv2d_packed_into(&x, &packed, b, geo, &mut scratch, &mut got)
            });
            prop_assert_eq!(got.shape(), want.shape());
            for (g, e) in got.data().iter().zip(want.data()) {
                prop_assert_eq!(g.to_bits(), e.to_bits(), "threads {}", threads);
            }
        }
    }

    /// The backward GEMMs: `A · B` and `Aᵀ · B` == reference, bitwise, at
    /// `ULL_THREADS` 1 and 4.
    #[test]
    fn fuzz_backward_gemms_bitwise(
        data in proptest::collection::vec(-3.0f32..3.0, 60),
        m in 1usize..5,
        k in 1usize..5,
        n in 1usize..10,
    ) {
        let a = Tensor::from_vec(data[..m * k].to_vec(), &[m, k]).unwrap();
        let at = a.reshape(&[k, m]).unwrap();
        let b = Tensor::from_vec(data[60 - k * n..].to_vec(), &[k, n]).unwrap();
        let want = reference::matmul(&a, &b);
        let want_ta = reference::matmul_ta(&at, &b);
        for threads in [1usize, 4] {
            let got = parallel::with_threads(threads, || [matmul(&a, &b), matmul_transpose_a(&at, &b)]);
            for (got, want) in got.into_iter().zip([&want, &want_ta]) {
                prop_assert_eq!(got.shape(), want.shape());
                for (g, w) in got.data().iter().zip(want.data()) {
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "threads {}", threads);
                }
            }
        }
    }
}
