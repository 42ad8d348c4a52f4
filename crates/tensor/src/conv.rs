//! 2-d convolution lowered to GEMM without materialized columns, with
//! full backward passes.
//!
//! Layout conventions:
//!
//! * activations: `[N, C, H, W]` (batch, channels, height, width)
//! * convolution weights: `[F, C, KH, KW]` (filters first)
//!
//! The forward pass is one `cols · Wᵀ` product on the packed panel core
//! ([`conv2d_packed_into`]), where `cols` is the input's `[N·OH·OW,
//! C·KH·KW]` im2col matrix. That matrix is implicit: the core gathers each
//! 4-row tile of receptive fields straight from the input. [`conv2d`]
//! packs its filter bank per call, while the SNN packs once per weight
//! version and reuses one [`ConvScratch`] across its conv nodes. The
//! backward pass ([`conv2d_backward`]) runs the same lowering's two GEMMs
//! pixel by pixel: the weight gradient `g2ᵀ · cols` gathers each
//! receptive field once per filter block, and the input gradient adds each
//! pixel's `g2 · W` row straight back onto its receptive field.

use serde::{Deserialize, Serialize};

use crate::packed::Lhs;
use crate::{parallel, PackedWeights, Tensor};

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

/// The implicit im2col matrix `[N·OH·OW, C·KH·KW]` of an NCHW input: row
/// `(b·OH + oy)·OW + ox` is the receptive field of output pixel `(oy, ox)`
/// of image `b` in `(ch, ky, kx)` order, with zero padding read as `0.0`.
/// The matrix is never stored; [`ConvRows::gather`] writes one row at a
/// time into a caller-owned buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvRows<'a> {
    data: &'a [f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    geo: ConvGeometry,
}

impl<'a> ConvRows<'a> {
    fn new(input: &'a Tensor, geo: ConvGeometry) -> Self {
        let [n, c, h, w] = dims4(input, "conv input");
        let (oh, ow) = geo.output_hw(h, w);
        ConvRows {
            data: input.data(),
            n,
            c,
            h,
            w,
            oh,
            ow,
            geo,
        }
    }

    /// Row count `N·OH·OW`.
    pub(crate) fn rows(&self) -> usize {
        self.n * self.oh * self.ow
    }

    /// Row length `C·KH·KW`.
    pub(crate) fn ckk(&self) -> usize {
        self.c * self.geo.kh * self.geo.kw
    }

    /// Writes row `row` into `dst` (length `C·KH·KW`), padding as `0.0`.
    pub(crate) fn gather(&self, row: usize, dst: &mut [f32]) {
        let (pixels, chw) = (self.oh * self.ow, self.c * self.h * self.w);
        let b = row / pixels;
        self.gather_pixel(&self.data[b * chw..(b + 1) * chw], row - b * pixels, dst);
    }

    /// [`ConvRows::gather`] for output pixel `pixel` of one `[C, H, W]`
    /// image.
    fn gather_pixel(&self, image: &[f32], pixel: usize, dst: &mut [f32]) {
        let (kh, kw) = (self.geo.kh, self.geo.kw);
        let (iy0, ix0) = self.origin(pixel);
        for (ch, plane) in image.chunks_exact(self.h * self.w).enumerate() {
            for ky in 0..kh {
                let d = &mut dst[(ch * kh + ky) * kw..(ch * kh + ky + 1) * kw];
                let iy = iy0 + ky as isize;
                if iy < 0 || iy >= self.h as isize {
                    d.iter_mut().for_each(|v| *v = 0.0);
                    continue;
                }
                let line = &plane[iy as usize * self.w..(iy as usize + 1) * self.w];
                for (kx, v) in d.iter_mut().enumerate() {
                    let ix = ix0 + kx as isize;
                    *v = if ix < 0 || ix >= self.w as isize {
                        0.0
                    } else {
                        line[ix as usize]
                    };
                }
            }
        }
    }

    /// Adds row `src` (length `C·KH·KW`) of output pixel `pixel` back onto
    /// its receptive field in `image` (`[C, H, W]`) in `(ch, ky, kx)`
    /// order, skipping padding — the adjoint of [`ConvRows::gather`].
    fn scatter_add(&self, pixel: usize, src: &[f32], image: &mut [f32]) {
        let (kh, kw) = (self.geo.kh, self.geo.kw);
        let (iy0, ix0) = self.origin(pixel);
        for (ch, plane) in image.chunks_exact_mut(self.h * self.w).enumerate() {
            for ky in 0..kh {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy >= self.h as isize {
                    continue;
                }
                let s = &src[(ch * kh + ky) * kw..(ch * kh + ky + 1) * kw];
                let line = &mut plane[iy as usize * self.w..(iy as usize + 1) * self.w];
                for (kx, &v) in s.iter().enumerate() {
                    let ix = ix0 + kx as isize;
                    if ix >= 0 && ix < self.w as isize {
                        line[ix as usize] += v;
                    }
                }
            }
        }
    }

    /// Input coordinates `(iy0, ix0)` of the top-left tap of output pixel
    /// `pixel`'s receptive field (negative inside the padding).
    fn origin(&self, pixel: usize) -> (isize, isize) {
        let (oy, ox) = (pixel / self.ow, pixel % self.ow);
        let pad = self.geo.padding as isize;
        (
            (oy * self.geo.stride) as isize - pad,
            (ox * self.geo.stride) as isize - pad,
        )
    }
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

/// Reusable intermediate buffer for [`conv2d_packed_into`]: the
/// `[N·OH·OW, F]` GEMM product. The SNN step workspace keeps one, shared
/// by its conv nodes, which removes the largest per-step allocation. Every
/// call refills the buffer completely, so one scratch serves layers of any
/// geometry.
#[derive(Debug, Default, Clone)]
pub struct ConvScratch {
    prod: Vec<f32>,
}

/// Forward 2-d convolution over a filter bank packed by
/// [`PackedWeights::pack_conv`], writing into caller-owned scratch and
/// output buffers (resized in place, so steady-state callers allocate
/// nothing). The register-blocked core of [`crate::packed`] multiplies the
/// input's implicit im2col matrix against the packed panels, gathering
/// each 4-row tile of receptive fields straight from the input, then the
/// bias is added per row and the rows are permuted back to NCHW. Results
/// are bit-identical for every input, sparsity and thread count (each
/// output element accumulates its terms in ascending-k order — see
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
    let lhs = ConvRows::new(input, geo);
    let rows = lhs.rows();
    debug_assert_eq!(lhs.ckk(), weight.reduction_len());
    scratch.prod.clear();
    scratch.prod.resize(rows * f, 0.0);
    // implicit [N·OH·OW, CKK] x packed [F, CKK]ᵀ -> [N·OH·OW, F]
    crate::packed::packed_gemm_raw(
        Lhs::Conv(lhs),
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
/// The two gradients are the GEMMs of the lowered convolution, run without
/// storing a column matrix. With `g2 = [N·OH·OW, F]` the output gradient
/// as rows and `cols` the input's implicit im2col matrix:
///
/// * `d_weight[f, q] = Σ_p g2[p, f] · cols[p, q]` over pixels `p` in
///   ascending order, each worker owning one block of filters and
///   gathering every pixel's receptive field from the input once;
/// * `d_input` takes each pixel's row `Σ_f g2[p, f] · W[f, ·]` (filters
///   ascending) and adds it onto the pixel's receptive field, pixels in
///   ascending order within each image.
///
/// Both skip the `g2 == 0.0` terms, so every element sums the same terms
/// in the same order as the two GEMMs over a materialized column matrix
/// and the scatter of its gradient back onto the input would: results and
/// the `tensor.macs` / `tensor.acs` counts match that lowering bit for bit
/// (the scalar oracle of `tests/conv_backward_oracle.rs`) for any thread
/// count.
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
    let [f, wc, kh, kw] = dims4(weight, "conv2d_backward weight");
    assert_eq!(
        (wc, kh, kw),
        (c, geo.kh, geo.kw),
        "conv2d_backward: weight disagrees with input channels or geometry"
    );
    let (oh, ow) = geo.output_hw(h, w);
    assert_eq!(
        grad_out.shape(),
        &[n, f, oh, ow],
        "conv2d_backward: grad_out shape mismatch"
    );
    let _span = ull_obs::span("tensor.conv2d_backward");
    let cols = ConvRows::new(input, geo);
    let (pixels, ckk) = (oh * ow, cols.ckk());
    // The nominal MACs of the two GEMMs, `d_weight` and `d_input`.
    ull_obs::counter_add("tensor.macs", (2 * cols.rows() * f * ckk) as u64);
    let (go, wd) = (grad_out.data(), weight.data());
    let chw = c * h * w;

    // One block of filters per worker: every worker walks all pixels in
    // ascending order and gathers each receptive field once.
    let mut dw = vec![0.0f32; f * ckk];
    let block = f.div_ceil(parallel::num_threads()).max(1);
    parallel::par_chunks_mut(&mut dw, block * ckk, |bi, dw_block| {
        let filters = dw_block.len() / ckk;
        let mut field = vec![0.0f32; ckk];
        let mut executed = 0u64;
        for (b, image) in input.data().chunks_exact(chw).enumerate() {
            // This image's `[filters, OH·OW]` slab of the output gradient.
            let g = &go[(b * f + bi * block) * pixels..(b * f + bi * block + filters) * pixels];
            for pixel in 0..pixels {
                let g_at = |j: usize| g[j * pixels + pixel];
                if (0..filters).all(|j| g_at(j) == 0.0) {
                    continue; // no term of this pixel survives the skip
                }
                cols.gather_pixel(image, pixel, &mut field);
                for (j, dw_row) in dw_block.chunks_exact_mut(ckk).enumerate() {
                    let gv = g_at(j);
                    if gv == 0.0 {
                        continue;
                    }
                    executed += ckk as u64;
                    for (o, &x) in dw_row.iter_mut().zip(&field) {
                        *o += gv * x;
                    }
                }
            }
        }
        ull_obs::counter_add("tensor.acs", executed);
    });

    // One image per work item: an image's pixels only reach its own
    // input gradient, in the same ascending pixel order at any thread count.
    let mut dx = vec![0.0f32; n * chw];
    parallel::par_chunks_mut(&mut dx, chw, |b, image| {
        let g = &go[b * f * pixels..(b + 1) * f * pixels];
        let mut row = vec![0.0f32; ckk];
        let mut executed = 0u64;
        for pixel in 0..pixels {
            row.fill(0.0);
            let mut any = false;
            for (fi, w_row) in wd.chunks_exact(ckk).enumerate() {
                let gv = g[fi * pixels + pixel];
                if gv == 0.0 {
                    continue;
                }
                any = true;
                executed += ckk as u64;
                for (o, &wv) in row.iter_mut().zip(w_row) {
                    *o += gv * wv;
                }
            }
            // An all-`+0.0` row adds nothing: sums that start at `+0.0`
            // never hold `-0.0`, the one value adding `+0.0` would change.
            if any {
                cols.scatter_add(pixel, &row, image);
            }
        }
        ull_obs::counter_add("tensor.acs", executed);
    });

    // db = column sums of g2, pixels ascending.
    let db = (0..f)
        .map(|fi| {
            (0..n)
                .flat_map(|b| &go[(b * f + fi) * pixels..(b * f + fi + 1) * pixels])
                .fold(0.0f32, |acc, &v| acc + v)
        })
        .collect();
    (
        Tensor::from_vec(dx, &[n, c, h, w]).expect("d_input length"),
        Tensor::from_vec(dw, &[f, c, kh, kw]).expect("d_weight length"),
        Tensor::from_vec(db, &[f]).expect("d_bias length"),
    )
}

/// Permutes the row matrix `[N·OH·OW, F]` (one row per output pixel) into
/// `[N, F, OH, OW]`, writing into a caller-owned output tensor (resized in
/// place, allocation-free at steady state).
///
/// # Panics
///
/// Panics if `data.len() != n·f·oh·ow`.
fn rows_to_nchw_into(data: &[f32], n: usize, f: usize, oh: usize, ow: usize, out: &mut Tensor) {
    assert_eq!(
        data.len(),
        n * f * oh * ow,
        "rows_to_nchw_into: length mismatch"
    );
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
        // [N, F, OH, OW] -> [N·OH·OW, F], element by element.
        let mut rows = Tensor::zeros(&[8, 3]);
        for b in 0..2 {
            for ch in 0..3 {
                for p in 0..4 {
                    rows.set(&[b * 4 + p, ch], t.at(&[b, ch, p / 2, p % 2]));
                }
            }
        }
        let mut back = Tensor::default();
        rows_to_nchw_into(rows.data(), 2, 3, 2, 2, &mut back);
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
