//! 2-d convolution via im2col, with full backward passes.
//!
//! Layout conventions:
//!
//! * activations: `[N, C, H, W]` (batch, channels, height, width)
//! * convolution weights: `[F, C, KH, KW]` (filters first)
//!
//! The forward pass lowers the input to a `[N·OH·OW, C·KH·KW]` column matrix
//! ([`im2col`]) and reduces the convolution to one `cols · Wᵀ` product on
//! the packed panel core ([`conv2d_packed_into`]); [`conv2d`] packs its
//! filter bank per call, while the SNN packs once per weight version and
//! reuses one [`ConvScratch`] across its conv nodes. The backward pass
//! reuses the same lowering: the weight gradient is a `colsᵀ · grad`
//! product and the input gradient is scattered back with [`col2im`].

use serde::{Deserialize, Serialize};

use crate::{matmul, matmul_transpose_a, parallel, PackedWeights, Tensor};

/// Geometry of a 2-d convolution (square stride/padding, arbitrary kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub padding: usize,
}

impl ConvGeometry {
    /// A square kernel with the given side, stride and padding.
    pub fn square(k: usize, stride: usize, padding: usize) -> Self {
        ConvGeometry {
            kh: k,
            kw: k,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input or `stride` is 0.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(self.stride > 0, "convolution stride must be positive");
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kh && pw >= self.kw,
            "kernel {}x{} does not fit padded input {}x{}",
            self.kh,
            self.kw,
            ph,
            pw
        );
        (
            (ph - self.kh) / self.stride + 1,
            (pw - self.kw) / self.stride + 1,
        )
    }
}

/// Lowers `input: [N, C, H, W]` into columns `[N·OH·OW, C·KH·KW]`.
///
/// Each output row holds the receptive field of one output pixel; zero
/// padding appears as literal zeros.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or the geometry does not fit.
pub fn im2col(input: &Tensor, geo: ConvGeometry) -> Tensor {
    let mut cols = Vec::new();
    let (rows, ckk) = im2col_into(input, geo, &mut cols);
    Tensor::from_vec(cols, &[rows, ckk]).expect("im2col length by construction")
}

/// [`im2col`] writing into a caller-owned buffer (cleared and resized in
/// place), returning `(rows, ckk)` of the `[N·OH·OW, C·KH·KW]` matrix it
/// filled. Steady-state callers reuse the buffer's capacity and allocate
/// nothing.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or the geometry does not fit.
pub fn im2col_into(input: &Tensor, geo: ConvGeometry, cols: &mut Vec<f32>) -> (usize, usize) {
    let [n, c, h, w] = dims4(input, "im2col input");
    let (oh, ow) = geo.output_hw(h, w);
    let ckk = c * geo.kh * geo.kw;
    let _span = ull_obs::span("tensor.im2col");
    ull_obs::counter_add(
        "tensor.im2col.bytes",
        (n * oh * ow * ckk * std::mem::size_of::<f32>()) as u64,
    );
    cols.clear();
    cols.resize(n * oh * ow * ckk, 0.0);
    let data = input.data();
    let pad = geo.padding as isize;
    // One batch image per work item: image `b` owns the contiguous column
    // rows `[b·OH·OW, (b+1)·OH·OW)`, and every written value depends only
    // on the input, so the result is identical for any thread count.
    parallel::par_chunks_mut(cols, oh * ow * ckk, |b, image_cols| {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (oy * ow + ox) * ckk;
                let iy0 = (oy * geo.stride) as isize - pad;
                let ix0 = (ox * geo.stride) as isize - pad;
                for ch in 0..c {
                    let plane = (b * c + ch) * h * w;
                    for ky in 0..geo.kh {
                        let iy = iy0 + ky as isize;
                        let dst = row + (ch * geo.kh + ky) * geo.kw;
                        if iy < 0 || iy >= h as isize {
                            continue; // padding row stays zero
                        }
                        let src_row = plane + iy as usize * w;
                        for kx in 0..geo.kw {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            image_cols[dst + kx] = data[src_row + ix as usize];
                        }
                    }
                }
            }
        }
    });
    (n * oh * ow, ckk)
}

/// Inverse scatter of [`im2col`]: accumulates columns back into `[N, C, H, W]`.
///
/// Overlapping receptive fields *sum* their contributions, which is exactly
/// the adjoint of `im2col` — this is what conv backward needs.
///
/// # Panics
///
/// Panics if `cols` does not have the shape `im2col` would produce for the
/// given image dimensions.
pub fn col2im(cols: &Tensor, n: usize, c: usize, h: usize, w: usize, geo: ConvGeometry) -> Tensor {
    let (oh, ow) = geo.output_hw(h, w);
    let ckk = c * geo.kh * geo.kw;
    assert_eq!(
        cols.shape(),
        &[n * oh * ow, ckk],
        "col2im: column matrix has wrong shape"
    );
    let _span = ull_obs::span("tensor.col2im");
    ull_obs::counter_add(
        "tensor.col2im.bytes",
        (cols.len() * std::mem::size_of::<f32>()) as u64,
    );
    let mut out = vec![0.0f32; n * c * h * w];
    let data = cols.data();
    let pad = geo.padding as isize;
    // One batch image per work item: image `b` only accumulates from its
    // own column rows, and the oy/ox/ky/kx scatter order within an image
    // matches the serial loop, so overlapping-field sums are bit-identical
    // for any thread count.
    parallel::par_chunks_mut(&mut out, c * h * w, |b, image_out| {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((b * oh + oy) * ow + ox) * ckk;
                let iy0 = (oy * geo.stride) as isize - pad;
                let ix0 = (ox * geo.stride) as isize - pad;
                for ch in 0..c {
                    let plane = ch * h * w;
                    for ky in 0..geo.kh {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src = row + (ch * geo.kh + ky) * geo.kw;
                        let dst_row = plane + iy as usize * w;
                        for kx in 0..geo.kw {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            image_out[dst_row + ix as usize] += data[src + kx];
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[n, c, h, w]).expect("col2im length by construction")
}

/// Forward 2-d convolution: `input [N,C,H,W] * weight [F,C,KH,KW] (+ bias [F])`.
/// Packs `weight` with [`PackedWeights::pack_conv`] and runs
/// [`conv2d_packed_into`] on fresh buffers.
///
/// Returns `[N, F, OH, OW]`.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, geo: ConvGeometry) -> Tensor {
    let mut out = Tensor::default();
    conv2d_packed_into(
        input,
        &PackedWeights::pack_conv(weight),
        bias,
        geo,
        &mut ConvScratch::default(),
        &mut out,
    );
    out
}

/// Reusable intermediate buffers for [`conv2d_packed_into`]: the im2col
/// column matrix and the `[N·OH·OW, F]` GEMM product. The SNN step
/// workspace keeps one, shared by its conv nodes, which removes the two
/// largest per-step allocations. Every call refills the buffers completely,
/// so one scratch serves layers of any geometry.
#[derive(Debug, Default, Clone)]
pub struct ConvScratch {
    cols: Vec<f32>,
    prod: Vec<f32>,
}

/// Forward 2-d convolution over a filter bank packed by
/// [`PackedWeights::pack_conv`], writing into caller-owned scratch and
/// output buffers (resized in place, so steady-state callers allocate
/// nothing). The input is lowered by im2col, multiplied against the packed
/// panels by the register-blocked core of [`crate::packed`], then the bias
/// is added per row and the rows are permuted back to NCHW. Results are
/// bit-identical for every input, sparsity and thread count (each output
/// element accumulates its terms in ascending-k order — see
/// [`crate::packed`]).
///
/// # Panics
///
/// Panics on rank or channel mismatches, or if `weight` was not packed by
/// [`PackedWeights::pack_conv`] with a filter bank matching `geo` and the
/// input's channel count.
pub fn conv2d_packed_into(
    input: &Tensor,
    weight: &PackedWeights,
    bias: Option<&Tensor>,
    geo: ConvGeometry,
    scratch: &mut ConvScratch,
    out: &mut Tensor,
) {
    let [n, c, h, w] = dims4(input, "conv2d input");
    let [f, wc, kh, kw] = weight
        .conv_dims()
        .expect("conv2d_packed_into needs a pack_conv-packed weight bank");
    assert_eq!(
        c, wc,
        "conv2d: input has {c} channels but weight expects {wc}"
    );
    assert_eq!(
        (kh, kw),
        (geo.kh, geo.kw),
        "conv2d: weight kernel disagrees with geometry"
    );
    let _span = ull_obs::span("tensor.conv2d");
    let (oh, ow) = geo.output_hw(h, w);
    let (rows, ckk) = im2col_into(input, geo, &mut scratch.cols);
    debug_assert_eq!(ckk, weight.reduction_len());
    scratch.prod.clear();
    scratch.prod.resize(rows * f, 0.0);
    // [N·OH·OW, CKK] x packed [F, CKK]ᵀ -> [N·OH·OW, F]
    crate::packed::packed_gemm_raw(
        &scratch.cols,
        rows,
        weight,
        &mut scratch.prod,
        "tensor.matmul_tb_packed",
    );
    if let Some(b) = bias {
        assert_eq!(b.shape(), &[f], "conv2d: bias must have shape [F]");
        let bd = b.data();
        for row in scratch.prod.chunks_mut(f) {
            for (x, &bv) in row.iter_mut().zip(bd) {
                *x += bv;
            }
        }
    }
    rows_to_nchw_into(&scratch.prod, n, f, oh, ow, out);
}

/// Gradients of [`conv2d`] with respect to input, weight and bias.
///
/// `grad_out` must be `[N, F, OH, OW]`. Returns `(d_input, d_weight, d_bias)`
/// with the shapes of `input`, `weight` and `[F]` respectively.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geo: ConvGeometry,
) -> (Tensor, Tensor, Tensor) {
    let [n, c, h, w] = dims4(input, "conv2d_backward input");
    let [f, _, kh, kw] = dims4(weight, "conv2d_backward weight");
    let (oh, ow) = geo.output_hw(h, w);
    assert_eq!(
        grad_out.shape(),
        &[n, f, oh, ow],
        "conv2d_backward: grad_out shape mismatch"
    );
    let _span = ull_obs::span("tensor.conv2d_backward");
    let cols = im2col(input, geo);
    let g2 = nchw_to_rows(grad_out); // [N·OH·OW, F]
    let w2 = weight
        .reshape(&[f, c * kh * kw])
        .expect("weight reshape to [F, CKK]");
    // dW = g2ᵀ · cols : [F, CKK]
    let dw = matmul_transpose_a(&g2, &cols)
        .reshape(&[f, c, kh, kw])
        .expect("dweight reshape");
    // db = column sums of g2
    let db = g2.sum_rows();
    // dcols = g2 · w2 : [N·OH·OW, CKK]
    let dcols = matmul(&g2, &w2);
    let dx = col2im(&dcols, n, c, h, w, geo);
    (dx, dw, db)
}

/// Permutes `[N, F, OH, OW]` into the row matrix `[N·OH·OW, F]`.
///
/// # Panics
///
/// Panics if `t` is not rank 4.
pub fn nchw_to_rows(t: &Tensor) -> Tensor {
    let [n, f, oh, ow] = dims4(t, "nchw_to_rows");
    let mut out = vec![0.0f32; t.len()];
    let data = t.data();
    for b in 0..n {
        for ch in 0..f {
            let plane = (b * f + ch) * oh * ow;
            for p in 0..oh * ow {
                out[(b * oh * ow + p) * f + ch] = data[plane + p];
            }
        }
    }
    Tensor::from_vec(out, &[n * oh * ow, f]).expect("nchw_to_rows length")
}

/// Inverse of [`nchw_to_rows`]: `[N·OH·OW, F]` back to `[N, F, OH, OW]`.
///
/// # Panics
///
/// Panics if the row count does not equal `n·oh·ow` or the width is not `f`.
pub fn rows_to_nchw(rows: &Tensor, n: usize, f: usize, oh: usize, ow: usize) -> Tensor {
    assert_eq!(
        rows.shape(),
        &[n * oh * ow, f],
        "rows_to_nchw: shape mismatch"
    );
    let mut out = Tensor::default();
    rows_to_nchw_into(rows.data(), n, f, oh, ow, &mut out);
    out
}

/// [`rows_to_nchw`] over a raw `[N·OH·OW, F]` slice, writing into a
/// caller-owned output tensor (resized in place, allocation-free at steady
/// state).
///
/// # Panics
///
/// Panics if `data.len() != n·f·oh·ow`.
pub fn rows_to_nchw_into(data: &[f32], n: usize, f: usize, oh: usize, ow: usize, out: &mut Tensor) {
    assert_eq!(data.len(), n * f * oh * ow, "rows_to_nchw: length mismatch");
    out.reset_shaped(&[n, f, oh, ow]);
    let od = out.data_mut();
    for b in 0..n {
        for p in 0..oh * ow {
            let src = (b * oh * ow + p) * f;
            for ch in 0..f {
                od[(b * f + ch) * oh * ow + p] = data[src + ch];
            }
        }
    }
}

fn dims4(t: &Tensor, what: &str) -> [usize; 4] {
    assert_eq!(
        t.rank(),
        4,
        "{what} must be rank 4, got shape {:?}",
        t.shape()
    );
    [t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn seq_tensor(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|x| x as f32 * 0.1 - 1.5).collect(), shape).unwrap()
    }

    /// Direct (non-lowered) convolution for cross-checking.
    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        geo: ConvGeometry,
    ) -> Tensor {
        let [n, c, h, w] = [
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        ];
        let f = weight.shape()[0];
        let (oh, ow) = geo.output_hw(h, w);
        let mut out = Tensor::zeros(&[n, f, oh, ow]);
        for b in 0..n {
            for fi in 0..f {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map_or(0.0, |bb| bb.data()[fi]);
                        for ch in 0..c {
                            for ky in 0..geo.kh {
                                for kx in 0..geo.kw {
                                    let iy = (oy * geo.stride + ky) as isize - geo.padding as isize;
                                    let ix = (ox * geo.stride + kx) as isize - geo.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[b, ch, iy as usize, ix as usize])
                                        * weight.at(&[fi, ch, ky, kx]);
                                }
                            }
                        }
                        out.set(&[b, fi, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn output_geometry() {
        let g = ConvGeometry::square(3, 1, 1);
        assert_eq!(g.output_hw(32, 32), (32, 32));
        let g2 = ConvGeometry::square(3, 2, 1);
        assert_eq!(g2.output_hw(8, 8), (4, 4));
        let g3 = ConvGeometry::square(1, 1, 0);
        assert_eq!(g3.output_hw(5, 7), (5, 7));
    }

    #[test]
    fn conv_matches_naive_no_padding() {
        let x = seq_tensor(&[2, 3, 5, 5]);
        let w = seq_tensor(&[4, 3, 3, 3]);
        let geo = ConvGeometry::square(3, 1, 0);
        assert_close(
            &conv2d(&x, &w, None, geo),
            &naive_conv(&x, &w, None, geo),
            1e-4,
        );
    }

    #[test]
    fn conv_matches_naive_with_padding_stride_bias() {
        let x = seq_tensor(&[1, 2, 6, 6]);
        let w = seq_tensor(&[3, 2, 3, 3]);
        let b = Tensor::from_slice(&[0.5, -0.25, 1.0]);
        let geo = ConvGeometry::square(3, 2, 1);
        assert_close(
            &conv2d(&x, &w, Some(&b), geo),
            &naive_conv(&x, &w, Some(&b), geo),
            1e-4,
        );
    }

    #[test]
    fn one_by_one_conv_is_channel_mix() {
        let x = seq_tensor(&[1, 2, 3, 3]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]).unwrap();
        let geo = ConvGeometry::square(1, 1, 0);
        let y = conv2d(&x, &w, None, geo);
        assert_close(&y, &x, 1e-6);
    }

    #[test]
    fn im2col_col2im_adjointness() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let geo = ConvGeometry::square(3, 1, 1);
        let x = seq_tensor(&[1, 2, 4, 4]);
        let cols = im2col(&x, geo);
        let y = seq_tensor(&[cols.shape()[0], cols.shape()[1]]);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, 1, 2, 4, 4, geo);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let geo = ConvGeometry::square(3, 1, 1);
        let x = seq_tensor(&[1, 2, 4, 4]);
        let w = seq_tensor(&[2, 2, 3, 3]);
        let b = Tensor::from_slice(&[0.1, -0.2]);
        let y = conv2d(&x, &w, Some(&b), geo);
        // Loss = sum(y); grad_out = ones.
        let go = Tensor::ones(y.shape());
        let (dx, dw, db) = conv2d_backward(&x, &w, &go, geo);
        let eps = 1e-2;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| conv2d(x, w, Some(b), geo).sum();
        // Check a scattering of coordinates in each gradient.
        for &i in &[0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 2e-2,
                "dx[{i}]: fd {fd} vs {}",
                dx.data()[i]
            );
        }
        for &i in &[0usize, 7, 20, 35] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (fd - dw.data()[i]).abs() < 2e-2,
                "dw[{i}]: fd {fd} vs {}",
                dw.data()[i]
            );
        }
        for i in 0..2 {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let mut bm = b.clone();
            bm.data_mut()[i] -= eps;
            let fd = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!(
                (fd - db.data()[i]).abs() < 2e-2,
                "db[{i}]: fd {fd} vs {}",
                db.data()[i]
            );
        }
    }

    #[test]
    fn nchw_rows_round_trip() {
        let t = seq_tensor(&[2, 3, 2, 2]);
        let rows = nchw_to_rows(&t);
        assert_eq!(rows.shape(), &[8, 3]);
        let back = rows_to_nchw(&rows, 2, 3, 2, 2);
        assert_close(&back, &t, 0.0);
    }

    #[test]
    fn packed_conv_is_bit_identical_to_unpacked() {
        let x = seq_tensor(&[2, 3, 6, 6]);
        let w = seq_tensor(&[5, 3, 3, 3]);
        let b = Tensor::from_slice(&[0.5, -0.25, 1.0, 0.0, -1.5]);
        for geo in [ConvGeometry::square(3, 1, 1), ConvGeometry::square(3, 2, 0)] {
            let want = reference::conv2d(&x, &w, Some(&b), geo);
            let packed = PackedWeights::pack_conv(&w);
            let mut scratch = ConvScratch::default();
            let mut got = Tensor::default();
            conv2d_packed_into(&x, &packed, Some(&b), geo, &mut scratch, &mut got);
            assert_eq!(got.shape(), want.shape());
            for (a, e) in got.data().iter().zip(want.data()) {
                assert_eq!(a.to_bits(), e.to_bits(), "{a} vs {e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn packed_channel_mismatch_panics() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = PackedWeights::pack_conv(&Tensor::zeros(&[2, 4, 3, 3]));
        let mut scratch = ConvScratch::default();
        let mut out = Tensor::default();
        conv2d_packed_into(
            &x,
            &w,
            None,
            ConvGeometry::square(3, 1, 1),
            &mut scratch,
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn channel_mismatch_panics() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[2, 4, 3, 3]);
        let _ = conv2d(&x, &w, None, ConvGeometry::square(3, 1, 1));
    }
}
