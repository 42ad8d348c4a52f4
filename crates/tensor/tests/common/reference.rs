//! Scalar reference kernels: the independent oracle of the packed panel
//! core. `conv2d` and `matmul_transpose_b` run that core themselves, so
//! comparing against them proves nothing; these loops share no GEMM code
//! with it. Each output element is one serial dot product over ascending
//! `k`, starting from `+0.0`, with the `a == 0.0` terms masked out — the
//! per-element order the panel core must reproduce bit for bit.
//!
//! The crate's own unit tests include this file too, which is why it
//! names the crate as `ull_tensor`.

use ull_tensor::conv::{im2col, rows_to_nchw, ConvGeometry};
use ull_tensor::Tensor;

/// `C = A · Bᵀ` for `a: [m, k]`, `b: [n, k]`, as one scalar dot product
/// per output element.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the trailing dims disagree.
pub fn matmul_tb(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert!(
        a.rank() == 2 && b.rank() == 2 && k == k2,
        "reference matmul_tb shapes"
    );
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                // Mask a zero-lhs product to +0.0 (so 0·∞ adds nothing):
                // `acc` starts at +0.0 and so is never −0.0, hence adding
                // +0.0 keeps its bits, exactly as skipping the term would.
                let keep = ((av != 0.0) as u32).wrapping_neg();
                acc += f32::from_bits((av * bv).to_bits() & keep);
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// Forward conv `input [N,C,H,W] * weight [F,C,KH,KW] (+ bias [F])` as
/// im2col, then [`matmul_tb`] against the `[F, C·KH·KW]` filter matrix,
/// then the bias added per row and the rows permuted back to NCHW.
///
/// # Panics
///
/// Panics on rank, channel or bias-shape mismatches.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, geo: ConvGeometry) -> Tensor {
    let [n, c, h, w] = [0, 1, 2, 3].map(|d| input.shape()[d]);
    let f = weight.shape()[0];
    assert_eq!(
        weight.shape(),
        &[f, c, geo.kh, geo.kw],
        "reference conv2d weight"
    );
    let (oh, ow) = geo.output_hw(h, w);
    let cols = im2col(input, geo);
    let filters = weight.reshape(&[f, c * geo.kh * geo.kw]).unwrap();
    let mut rows = matmul_tb(&cols, &filters);
    if let Some(b) = bias {
        assert_eq!(b.shape(), &[f], "reference conv2d bias");
        for row in rows.data_mut().chunks_mut(f) {
            for (x, &bv) in row.iter_mut().zip(b.data()) {
                *x += bv;
            }
        }
    }
    rows_to_nchw(&rows, n, f, oh, ow)
}
