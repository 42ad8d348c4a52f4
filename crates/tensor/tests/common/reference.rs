//! Scalar reference kernels: the independent oracle of the packed panel
//! core, of the two `i-k-j` backward GEMMs and of the conv backward.
//! `conv2d` and `matmul_transpose_b` run that core themselves, so
//! comparing against them proves nothing; these loops share no kernel code
//! with the crate. Each output element is one serial dot product over
//! ascending `k`, starting from `+0.0`, with the `a == 0.0` terms masked
//! out — the per-element order every crate GEMM must reproduce bit for
//! bit. The convolutions lower through a materialized column matrix
//! ([`im2col`], and [`col2im`] for the input gradient), which the crate
//! itself never builds.
//!
//! The crate's own unit tests include this file too, which is why it
//! names the crate as `ull_tensor`.

use ull_tensor::conv::ConvGeometry;
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
    dot_products(m, n, k, |i, j, p| {
        masked_product(ad[i * k + p], bd[j * k + p])
    })
}

/// `C = A · B` for `a: [m, k]`, `b: [k, n]`, as one scalar dot product
/// per output element.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the inner dims disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert!(
        a.rank() == 2 && b.rank() == 2 && k == k2,
        "reference matmul shapes"
    );
    let (ad, bd) = (a.data(), b.data());
    dot_products(m, n, k, |i, j, p| {
        masked_product(ad[i * k + p], bd[p * n + j])
    })
}

/// `C = Aᵀ · B` for `a: [k, m]`, `b: [k, n]`, as one scalar dot product
/// per output element.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the leading dims disagree.
pub fn matmul_ta(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert!(
        a.rank() == 2 && b.rank() == 2 && k == k2,
        "reference matmul_ta shapes"
    );
    let (ad, bd) = (a.data(), b.data());
    dot_products(m, n, k, |i, j, p| {
        masked_product(ad[p * m + i], bd[p * n + j])
    })
}

/// The `[m, n]` matrix whose element `(i, j)` sums `term(i, j, p)` over
/// `p` ascending, starting from `+0.0`.
fn dot_products(m: usize, n: usize, k: usize, term: impl Fn(usize, usize, usize) -> f32) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += term(i, j, p);
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
    let mut out = vec![0.0f32; n * f * oh * ow];
    for (p, row) in rows.data().chunks(f).enumerate() {
        let (b, pixel) = (p / (oh * ow), p % (oh * ow));
        for (fi, &v) in row.iter().enumerate() {
            out[(b * f + fi) * oh * ow + pixel] = v;
        }
    }
    Tensor::from_vec(out, &[n, f, oh, ow]).unwrap()
}

/// Lowers `input: [N, C, H, W]` into the column matrix
/// `[N·OH·OW, C·KH·KW]`: row `(b·OH + oy)·OW + ox` holds the receptive
/// field of output pixel `(oy, ox)` of image `b` in `(ch, ky, kx)` order,
/// with zero padding as literal zeros.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or the geometry does not fit.
pub fn im2col(input: &Tensor, geo: ConvGeometry) -> Tensor {
    assert_eq!(input.rank(), 4, "reference im2col input");
    let [n, c, h, w] = [0, 1, 2, 3].map(|d| input.shape()[d]);
    let (oh, ow) = geo.output_hw(h, w);
    let ckk = c * geo.kh * geo.kw;
    let mut cols = vec![0.0f32; n * oh * ow * ckk];
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((b * oh + oy) * ow + ox) * ckk;
                for ch in 0..c {
                    for ky in 0..geo.kh {
                        for kx in 0..geo.kw {
                            if let Some((iy, ix)) = tap(geo, h, w, oy, ox, ky, kx) {
                                cols[row + (ch * geo.kh + ky) * geo.kw + kx] =
                                    input.data()[((b * c + ch) * h + iy) * w + ix];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(cols, &[n * oh * ow, ckk]).unwrap()
}

/// The adjoint of [`im2col`]: adds every column entry back onto its input
/// pixel of `[N, C, H, W]`, in image, `oy`, `ox`, `ch`, `ky`, `kx` order,
/// skipping padding. Overlapping receptive fields sum.
///
/// # Panics
///
/// Panics if `cols` is not the `[N·OH·OW, C·KH·KW]` matrix of that shape.
pub fn col2im(cols: &Tensor, n: usize, c: usize, h: usize, w: usize, geo: ConvGeometry) -> Tensor {
    let (oh, ow) = geo.output_hw(h, w);
    let ckk = c * geo.kh * geo.kw;
    assert_eq!(cols.shape(), &[n * oh * ow, ckk], "reference col2im cols");
    let mut out = vec![0.0f32; n * c * h * w];
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((b * oh + oy) * ow + ox) * ckk;
                for ch in 0..c {
                    for ky in 0..geo.kh {
                        for kx in 0..geo.kw {
                            if let Some((iy, ix)) = tap(geo, h, w, oy, ox, ky, kx) {
                                out[((b * c + ch) * h + iy) * w + ix] +=
                                    cols.data()[row + (ch * geo.kh + ky) * geo.kw + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w]).unwrap()
}

/// The input pixel kernel tap `(ky, kx)` of output pixel `(oy, ox)` reads,
/// or `None` where it falls in the padding.
fn tap(
    geo: ConvGeometry,
    h: usize,
    w: usize,
    oy: usize,
    ox: usize,
    ky: usize,
    kx: usize,
) -> Option<(usize, usize)> {
    let iy = (oy * geo.stride + ky).checked_sub(geo.padding)?;
    let ix = (ox * geo.stride + kx).checked_sub(geo.padding)?;
    (iy < h && ix < w).then_some((iy, ix))
}

/// `a · b`, masked to `+0.0` when `a == 0.0` (so `0 · ∞` adds nothing). A
/// sum that starts at `+0.0` is never `−0.0`, hence adding `+0.0` keeps its
/// bits, exactly as skipping the term would.
fn masked_product(a: f32, b: f32) -> f32 {
    f32::from_bits((a * b).to_bits() & ((a != 0.0) as u32).wrapping_neg())
}

/// Gradients of a forward conv, through materialized columns. With
/// `g2 = [N·OH·OW, F]` the output gradient as rows, `cols = im2col(input)`
/// and `W = [F, C·KH·KW]`:
///
/// * `dW[f, q] = Σ_p g2[p, f] · cols[p, q]`, pixels `p` ascending;
/// * `dcols[p, q] = Σ_f g2[p, f] · W[f, q]`, filters ascending, and
///   `dx = col2im(dcols)`;
/// * `db[f] = Σ_p g2[p, f]`, pixels ascending;
///
/// each sum starting from `+0.0`, with the `g2 == 0.0` terms of the two
/// products masked. Returns `(dx, dW, db)`.
///
/// # Panics
///
/// Panics on rank, channel or gradient-shape mismatches.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geo: ConvGeometry,
) -> (Tensor, Tensor, Tensor) {
    let [n, c, h, w] = [0, 1, 2, 3].map(|d| input.shape()[d]);
    let f = weight.shape()[0];
    assert_eq!(
        weight.shape(),
        &[f, c, geo.kh, geo.kw],
        "reference conv2d_backward weight"
    );
    let (oh, ow) = geo.output_hw(h, w);
    assert_eq!(grad_out.shape(), &[n, f, oh, ow], "reference grad_out");
    let (rows, ckk) = (n * oh * ow, c * geo.kh * geo.kw);
    let cols = im2col(input, geo);
    let (cd, wd) = (cols.data(), weight.data());
    let g2 = |p: usize, fi: usize| {
        let (b, pixel) = (p / (oh * ow), p % (oh * ow));
        grad_out.data()[(b * f + fi) * oh * ow + pixel]
    };
    let mut dw = vec![0.0f32; f * ckk];
    for fi in 0..f {
        for q in 0..ckk {
            let mut acc = 0.0f32;
            for p in 0..rows {
                acc += masked_product(g2(p, fi), cd[p * ckk + q]);
            }
            dw[fi * ckk + q] = acc;
        }
    }
    let mut dcols = vec![0.0f32; rows * ckk];
    for p in 0..rows {
        for q in 0..ckk {
            let mut acc = 0.0f32;
            for fi in 0..f {
                acc += masked_product(g2(p, fi), wd[fi * ckk + q]);
            }
            dcols[p * ckk + q] = acc;
        }
    }
    let mut db = vec![0.0f32; f];
    for (fi, d) in db.iter_mut().enumerate() {
        for p in 0..rows {
            *d += g2(p, fi);
        }
    }
    let dcols = Tensor::from_vec(dcols, &[rows, ckk]).unwrap();
    (
        col2im(&dcols, n, c, h, w, geo),
        Tensor::from_vec(dw, weight.shape()).unwrap(),
        Tensor::from_vec(db, &[f]).unwrap(),
    )
}
