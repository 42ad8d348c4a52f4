//! Matrix multiplication kernels.
//!
//! Three variants cover the needs of forward and backward passes without
//! materialising transposes:
//!
//! * [`matmul`] — `C = A · B`
//! * [`matmul_transpose_a`] — `C = Aᵀ · B` (weight gradients)
//! * [`matmul_transpose_b`] — `C = A · Bᵀ` (input gradients)
//!
//! All kernels use the cache-friendly `i-k-j` loop order over contiguous
//! rows, which is the fastest portable ordering for row-major data without
//! explicit blocking or SIMD intrinsics.
//!
//! Output rows are independent, so each kernel distributes contiguous
//! row blocks over [`crate::parallel`]. Every output element is
//! accumulated in the same order as the serial loop regardless of the
//! thread count, so results are bit-identical for any `ULL_THREADS`.
//!
//! Each kernel opens an `ull_obs` span and adds its *nominal* `m·k·n`
//! multiply-accumulate count to the `tensor.macs` counter. Because every
//! kernel skips zero lhs entries, the *executed* accumulate count can be
//! far lower on sparse spike matrices; that measured count goes to the
//! separate `tensor.acs` counter so the gap is observable (it is what the
//! `ull-energy` AC model predicts from spike rates). With observability
//! disabled each kernel costs one atomic load per call.

use crate::parallel;
use crate::Tensor;

/// Rows per parallel work item: ~4 blocks per worker balances load without
/// making the chunk queue hot. Block size never affects results — each
/// output row is accumulated independently in serial order.
pub(crate) fn row_block(rows: usize) -> usize {
    rows.div_ceil(parallel::num_threads().saturating_mul(4).max(1))
        .max(1)
}

/// `C = A · B` for rank-2 tensors `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use ull_tensor::{matmul, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &b).data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok::<(), ull_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul: inner dims disagree ({k} vs {k2})");
    let _span = ull_obs::span("tensor.matmul");
    ull_obs::counter_add("tensor.macs", (m * k * n) as u64);
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    let block = row_block(m);
    parallel::par_chunks_mut(&mut out, block * n, |ci, chunk| {
        let i0 = ci * block;
        let mut executed = 0u64;
        for (ri, orow) in chunk.chunks_mut(n).enumerate() {
            let i = i0 + ri;
            let arow = &ad[i * k..(i + 1) * k];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue; // spike matrices are sparse; skipping zeros is the AC model
                }
                executed += n as u64;
                let brow = &bd[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        ull_obs::counter_add("tensor.acs", executed);
    });
    Tensor::from_vec(out, &[m, n]).expect("matmul output length is m*n by construction")
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` giving `C: [m, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the leading dimensions disagree.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_transpose_a lhs");
    let (k2, n) = dims2(b, "matmul_transpose_a rhs");
    assert_eq!(
        k, k2,
        "matmul_transpose_a: leading dims disagree ({k} vs {k2})"
    );
    let _span = ull_obs::span("tensor.matmul_ta");
    ull_obs::counter_add("tensor.macs", (m * k * n) as u64);
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    // Workers own disjoint output-row blocks; the p loop stays outermost
    // inside each block, so every element accumulates over p in ascending
    // order exactly as the serial single-block loop did.
    let block = row_block(m);
    parallel::par_chunks_mut(&mut out, block * n, |ci, chunk| {
        let i0 = ci * block;
        let rows = chunk.len() / n;
        let mut executed = 0u64;
        for p in 0..k {
            let arow = &ad[p * m..(p + 1) * m];
            let brow = &bd[p * n..(p + 1) * n];
            for ri in 0..rows {
                let av = arow[i0 + ri];
                if av == 0.0 {
                    continue;
                }
                executed += n as u64;
                let orow = &mut chunk[ri * n..(ri + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        ull_obs::counter_add("tensor.acs", executed);
    });
    Tensor::from_vec(out, &[m, n]).expect("matmul_transpose_a output length is m*n")
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` giving `C: [m, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the trailing dimensions disagree.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    matmul_transpose_b_into(a, b, &mut out);
    out
}

/// [`matmul_transpose_b`] writing into a caller-owned output tensor, which
/// is resized in place — steady-state callers (the SNN step workspace)
/// therefore allocate nothing.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the trailing dimensions disagree.
pub fn matmul_transpose_b_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = dims2(a, "matmul_transpose_b lhs");
    let (n, k2) = dims2(b, "matmul_transpose_b rhs");
    assert_eq!(
        k, k2,
        "matmul_transpose_b: trailing dims disagree ({k} vs {k2})"
    );
    out.reset_shaped(&[m, n]);
    matmul_tb_raw(a.data(), m, k, b.data(), n, out.data_mut());
}

/// Row-major `C = A · Bᵀ` over raw slices: `ad: [m, k]`, `bd: [n, k]`,
/// `out: [m, n]`. The shared core of [`matmul_transpose_b_into`] and
/// [`crate::conv::conv2d_into`] (whose scratch buffers are plain `Vec`s).
///
/// Zero lhs entries are skipped; each output element still accumulates its
/// non-zero terms in ascending `k` order, so results are bit-identical to
/// the skip-free loop whenever the rhs is finite (`0·finite == ±0.0`, and
/// `acc + ±0.0` leaves `acc` unchanged for every `acc` the loop can hold).
pub(crate) fn matmul_tb_raw(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(ad.len(), m * k, "matmul_tb_raw: lhs length");
    assert_eq!(bd.len(), n * k, "matmul_tb_raw: rhs length");
    assert_eq!(out.len(), m * n, "matmul_tb_raw: out length");
    let _span = ull_obs::span("tensor.matmul_tb");
    ull_obs::counter_add("tensor.macs", (m * k * n) as u64);
    let block = row_block(m);
    parallel::par_chunks_mut(out, block * n, |ci, chunk| {
        let i0 = ci * block;
        let mut executed = 0u64;
        for (ri, orow) in chunk.chunks_mut(n).enumerate() {
            let arow = &ad[(i0 + ri) * k..(i0 + ri + 1) * k];
            let nz = arow.iter().filter(|&&av| av != 0.0).count() as u64;
            executed += nz * n as u64;
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    // Skip zero lhs terms by masking the product to +0.0
                    // (so 0·∞ adds nothing) instead of branching: `acc`
                    // starts at +0.0 and so is never −0.0, hence adding
                    // +0.0 keeps its bits. A per-term branch here made the
                    // loop's speed swing 2× with its link-time alignment.
                    let keep = ((av != 0.0) as u32).wrapping_neg();
                    acc += f32::from_bits((av * bv).to_bits() & keep);
                }
                *o = acc;
            }
        }
        ull_obs::counter_add("tensor.acs", executed);
    });
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(
        t.rank(),
        2,
        "{what} must be rank 2, got shape {:?}",
        t.shape()
    );
    (t.shape()[0], t.shape()[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        // Cheap deterministic LCG; avoids pulling rand into unit tests.
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

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_identity() {
        let a = rand_tensor(&[4, 4], 1);
        let i = Tensor::eye(4);
        assert_close(&matmul(&a, &i), &a, 1e-6);
        assert_close(&matmul(&i, &a), &a, 1e-6);
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_tensor(&[5, 7], 2);
        let b = rand_tensor(&[7, 3], 3);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-5);
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = rand_tensor(&[1, 9], 4);
        let b = rand_tensor(&[9, 1], 5);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[1, 1]);
        assert_close(&c, &naive(&a, &b), 1e-5);
    }

    #[test]
    fn transpose_a_matches_explicit_transpose() {
        let a = rand_tensor(&[6, 4], 6);
        let b = rand_tensor(&[6, 5], 7);
        assert_close(
            &matmul_transpose_a(&a, &b),
            &matmul(&a.transpose(), &b),
            1e-5,
        );
    }

    #[test]
    fn transpose_b_matches_explicit_transpose() {
        let a = rand_tensor(&[3, 8], 8);
        let b = rand_tensor(&[5, 8], 9);
        assert_close(
            &matmul_transpose_b(&a, &b),
            &matmul(&a, &b.transpose()),
            1e-5,
        );
    }

    #[test]
    fn zero_rows_are_skipped_correctly() {
        // Sparse spike-like lhs: results must still be exact.
        let mut a = rand_tensor(&[4, 6], 10);
        for j in 0..6 {
            a.set(&[1, j], 0.0);
            a.set(&[3, j], 0.0);
        }
        let b = rand_tensor(&[6, 3], 11);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-5);
    }

    #[test]
    fn transpose_b_zero_skip_is_bit_identical_on_sparse_lhs() {
        // Regression: the spike-input path is A·Wᵀ with a mostly-zero A;
        // skipping the zeros must not change a single bit versus the
        // skip-free reference accumulation.
        let naive_tb = |a: &Tensor, b: &Tensor| {
            let (m, k) = (a.shape()[0], a.shape()[1]);
            let n = b.shape()[0];
            let mut out = Tensor::zeros(&[m, n]);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a.at(&[i, p]) * b.at(&[j, p]);
                    }
                    out.set(&[i, j], acc);
                }
            }
            out
        };
        let mut a = rand_tensor(&[6, 9], 12);
        // Spike-like lhs: ~80% exact zeros, the rest one common amplitude.
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            *v = if (i * 2654435761) % 5 == 0 { 0.75 } else { 0.0 };
        }
        let b = rand_tensor(&[4, 9], 13);
        let got = matmul_transpose_b(&a, &b);
        let want = naive_tb(&a, &b);
        assert_eq!(got.shape(), want.shape());
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_b_into_reuses_buffer() {
        let a = rand_tensor(&[3, 5], 20);
        let b = rand_tensor(&[4, 5], 21);
        let mut out = Tensor::zeros(&[100]);
        matmul_transpose_b_into(&a, &b, &mut out);
        assert_eq!(out, matmul_transpose_b(&a, &b));
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }
}
