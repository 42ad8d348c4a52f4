//! Weight-stationary packed dense kernels.
//!
//! At the paper's ultra-low latencies (T ≤ 5) every SNN eval step pays one
//! GEMM per conv/linear layer. The weights of a converted SNN are *fixed at
//! conversion time* — so their memory layout can be prepared once and
//! reused for every timestep, batch and serving replica.
//!
//! [`PackedWeights`] lays a weight matrix out once into k-major panels of
//! [`PANEL_WIDTH`] output features: within a panel, the [`PANEL_WIDTH`]
//! weights an inner-product step needs are contiguous, so the packed GEMM
//! streams the panel linearly while register-blocking over
//! [`PANEL_WIDTH`]-wide output columns and 4-high output rows. Every pack is
//! the `[n, k]` rhs of `C = A · Bᵀ` (a linear layer's `[out, in]` weight, or
//! a conv filter bank flattened to `[F, C·KH·KW]`), and this core is the
//! crate's one `A · Bᵀ` kernel: [`matmul_tb_packed`] and
//! [`crate::conv::conv2d_packed_into`] (whose lhs is the input's implicit
//! im2col matrix, gathered tile by tile) run it over a pack built once per
//! weight version, as the SNN does, and
//! [`crate::matmul_transpose_b`] and [`crate::conv::conv2d`] pack their
//! weight per call, as the DNN forward does. The backward GEMMs
//! ([`crate::matmul()`], [`crate::matmul_transpose_a`], and
//! [`crate::conv::conv2d_backward`]'s own loops) stay unpacked.
//!
//! # Bit-identity contract
//!
//! Register blocking changes *which* output elements are computed together,
//! never *how* one element accumulates: every output element still sums its
//! `a[i,p]·b[p,j]` terms in ascending `p` order into an accumulator that
//! starts at `+0.0`, skipping exactly the `a == 0.0` terms. Products have
//! identical operands, sums identical order — so results are
//! **bit-identical** to a scalar dot product per element for every shape,
//! sparsity and `ULL_THREADS`, asserted exhaustively against the scalar
//! reference kernels of `crates/tensor/tests/common/reference.rs` by
//! `crates/tensor/tests/packed_diff.rs`.

use std::cell::RefCell;

use crate::conv::ConvRows;
use crate::parallel;
use crate::Tensor;

/// Output features per packed panel — the register-blocking tile width.
/// Eight `f32` accumulators fit comfortably in registers on every target
/// this workspace cares about; the value never affects results, only the
/// memory layout.
pub const PANEL_WIDTH: usize = 8;

/// Output rows processed per register tile. As with [`PANEL_WIDTH`],
/// purely a performance knob: each row's accumulators are independent.
const TILE_ROWS: usize = 4;

/// The `[n, k]` rhs of `C = A · Bᵀ` laid out once for the packed core:
/// k-major panels of [`PANEL_WIDTH`] output features, so the inner
/// reduction loop streams contiguous memory.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedWeights {
    /// Output features (GEMM `n`).
    n: usize,
    /// Reduction length (GEMM `k`).
    k: usize,
    /// Panels back to back: panel `q` covers output features
    /// `q·PANEL_WIDTH ..` and stores, for each `p` in `0..k`, its features'
    /// weights contiguously.
    data: Vec<f32>,
    /// `[F, C, KH, KW]` of the source filter bank when this pack was built
    /// by [`PackedWeights::pack_conv`].
    conv_dims: Option<[usize; 4]>,
}

impl PackedWeights {
    /// Packs `b: [n, k]` for the `C = A · Bᵀ` kernel — the orientation of
    /// linear-layer weights.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not rank 2.
    pub fn pack_rhs_t(b: &Tensor) -> Self {
        let (n, k) = dims2(b, "pack_rhs_t source");
        PackedWeights {
            n,
            k,
            data: pack_panels(n, k, b.data()),
            conv_dims: None,
        }
    }

    /// Packs a conv filter bank `weight: [F, C, KH, KW]`, pre-reshaped to
    /// the `[F, C·KH·KW]` GEMM operand of the lowered conv (which it
    /// already is in row-major memory) and packed like
    /// [`PackedWeights::pack_rhs_t`].
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank 4.
    pub fn pack_conv(weight: &Tensor) -> Self {
        assert_eq!(
            weight.rank(),
            4,
            "pack_conv needs a [F, C, KH, KW] filter bank, got shape {:?}",
            weight.shape()
        );
        let [f, c, kh, kw] = [
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        ];
        let k = c * kh * kw;
        PackedWeights {
            n: f,
            k,
            data: pack_panels(f, k, weight.data()),
            conv_dims: Some([f, c, kh, kw]),
        }
    }

    /// Output features (GEMM `n`; conv `F`).
    pub fn out_features(&self) -> usize {
        self.n
    }

    /// Reduction length (GEMM `k`; conv `C·KH·KW`).
    pub fn reduction_len(&self) -> usize {
        self.k
    }

    /// `[F, C, KH, KW]` of the source filter bank, when packed by
    /// [`PackedWeights::pack_conv`].
    pub fn conv_dims(&self) -> Option<[usize; 4]> {
        self.conv_dims
    }

    /// Bytes held by the packed buffer.
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Lays the row-major `src: [n, k]` (one row per output feature) out as
/// k-major panels.
fn pack_panels(n: usize, k: usize, src: &[f32]) -> Vec<f32> {
    let _span = ull_obs::span("tensor.pack");
    ull_obs::counter_add("tensor.pack.bytes", (n * k * 4) as u64);
    let mut data = Vec::with_capacity(n * k);
    let mut j0 = 0;
    while j0 < n {
        let w = (n - j0).min(PANEL_WIDTH);
        for p in 0..k {
            for j in j0..j0 + w {
                data.push(src[j * k + p]);
            }
        }
        j0 += w;
    }
    data
}

/// `C = A · Bᵀ` over packed weights (`A: [m, k]`, pack source `B: [n, k]`).
/// [`crate::matmul_transpose_b`] is this call on a pack made per call, so
/// the two agree bit for bit for every input and thread count.
///
/// # Panics
///
/// Panics if `a` is not rank 2 or the reduction lengths disagree.
pub fn matmul_tb_packed(a: &Tensor, b: &PackedWeights) -> Tensor {
    let mut out = Tensor::default();
    matmul_tb_packed_into(a, b, &mut out);
    out
}

/// [`matmul_tb_packed`] writing into a caller-owned output tensor (resized
/// in place — steady-state callers allocate nothing).
///
/// # Panics
///
/// See [`matmul_tb_packed`].
pub fn matmul_tb_packed_into(a: &Tensor, b: &PackedWeights, out: &mut Tensor) {
    let (m, k) = dims2(a, "packed matmul lhs");
    assert_eq!(
        k, b.k,
        "packed matmul: reduction lengths disagree ({k} vs {})",
        b.k
    );
    out.reset_shaped(&[m, b.n]);
    packed_gemm_raw(
        Lhs::Rows(a.data()),
        m,
        b,
        out.data_mut(),
        "tensor.matmul_tb_packed",
    );
}

/// Where [`packed_gemm_raw`] reads its `[m, k]` lhs rows from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// A row-major `[m, k]` slice.
    Rows(&'a [f32]),
    /// The implicit im2col matrix of a conv input, gathered one
    /// [`TILE_ROWS`]-row tile at a time and never stored whole.
    Conv(ConvRows<'a>),
}

thread_local! {
    /// The [`TILE_ROWS`] × `k` lhs tile an [`Lhs::Conv`] source is gathered
    /// into. It grows to the widest reduction a thread sees and is reused
    /// from then on, so the steady-state conv forward allocates nothing.
    static CONV_TILE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The packed GEMM core: `lhs: [m, k]` against a packed `[n, k]` operand,
/// writing `out: [m, n]`. Shared by [`matmul_tb_packed_into`] and
/// [`crate::conv::conv2d_packed_into`], whose lhs is the input's implicit
/// im2col matrix.
///
/// Register-blocks over [`TILE_ROWS`] output rows × [`PANEL_WIDTH`] output
/// columns with the reduction loop innermost. Each output element's
/// accumulator receives its non-zero terms in ascending `p` order starting
/// from `+0.0`, so the result is bit-identical to a scalar dot product per
/// element whichever source the rows come from.
pub(crate) fn packed_gemm_raw(
    lhs: Lhs<'_>,
    m: usize,
    b: &PackedWeights,
    out: &mut [f32],
    span: &'static str,
) {
    let (n, k) = (b.n, b.k);
    match lhs {
        Lhs::Rows(ad) => assert_eq!(ad.len(), m * k, "packed gemm: lhs length"),
        Lhs::Conv(src) => assert_eq!((src.rows(), src.ckk()), (m, k), "packed gemm: conv lhs"),
    }
    assert_eq!(out.len(), m * n, "packed gemm: out length");
    let _span = ull_obs::span(span);
    ull_obs::counter_add("tensor.macs", (m * k * n) as u64);
    if m * n == 0 {
        return;
    }
    let block = crate::matmul::row_block(m);
    parallel::par_chunks_mut(out, block * n, |ci, chunk| {
        let i0 = ci * block;
        let rows = chunk.len() / n;
        let mut executed = 0u64;
        // This thread's tile, put back after the chunk; `take` leaves an
        // empty, unallocated `Vec` behind.
        let mut tile = CONV_TILE.take();
        if matches!(lhs, Lhs::Conv(_)) && tile.len() < TILE_ROWS * k {
            tile.resize(TILE_ROWS * k, 0.0);
        }
        let mut r0 = 0usize;
        while r0 < rows {
            let mr = (rows - r0).min(TILE_ROWS);
            if let Lhs::Conv(src) = lhs {
                for r in 0..mr {
                    src.gather(i0 + r0 + r, &mut tile[r * k..(r + 1) * k]);
                }
            }
            // Row slices of the tile, fixed-size so the hot loop stays
            // allocation-free; only the first `mr` entries are real.
            let mut arows: [&[f32]; TILE_ROWS] = [&[]; TILE_ROWS];
            for (r, slot) in arows.iter_mut().enumerate().take(mr) {
                let row = i0 + r0 + r;
                *slot = match lhs {
                    Lhs::Rows(ad) => &ad[row * k..(row + 1) * k],
                    Lhs::Conv(_) => &tile[r * k..(r + 1) * k],
                };
                executed += slot.iter().filter(|&&v| v != 0.0).count() as u64 * n as u64;
            }
            let mut j0 = 0usize;
            let mut panel_off = 0usize;
            while j0 < n {
                let w = (n - j0).min(PANEL_WIDTH);
                let panel = &b.data[panel_off..panel_off + w * k];
                let mut acc = [[0.0f32; PANEL_WIDTH]; TILE_ROWS];
                for (p, brow) in panel.chunks_exact(w).enumerate() {
                    for (arow, accr) in arows.iter().zip(acc.iter_mut()).take(mr) {
                        let av = arow[p];
                        if av == 0.0 {
                            continue; // the zero-lhs terms a scalar dot product would mask out
                        }
                        for (o, &bv) in accr[..w].iter_mut().zip(brow) {
                            *o += av * bv;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(mr) {
                    let start = (r0 + r) * n + j0;
                    chunk[start..start + w].copy_from_slice(&accr[..w]);
                }
                panel_off += w * k;
                j0 += w;
            }
            r0 += mr;
        }
        CONV_TILE.set(tile);
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
    use crate::reference;

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

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn packed_tb_matches_unpacked_bitwise_across_panel_boundaries() {
        for n in [1usize, 7, 8, 9, 16, 17] {
            for m in [1usize, 3, 4, 5, 9] {
                let a = rand_tensor(&[m, 6], (m * 31 + n) as u64);
                let b = rand_tensor(&[n, 6], (m * 7 + n * 3) as u64);
                let packed = PackedWeights::pack_rhs_t(&b);
                assert_bits_eq(
                    &matmul_tb_packed(&a, &packed),
                    &reference::matmul_tb(&a, &b),
                );
            }
        }
    }

    #[test]
    fn sparse_lhs_is_bit_identical_too() {
        // The SNN hot path: a mostly-zero spike matrix against packed
        // weights. Zero-skip must drop exactly the reference's masked terms.
        let mut a = rand_tensor(&[9, 12], 5);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            *v = if (i * 2654435761) % 4 == 0 { 0.5 } else { 0.0 };
        }
        let b = rand_tensor(&[10, 12], 6);
        let packed = PackedWeights::pack_rhs_t(&b);
        assert_bits_eq(
            &matmul_tb_packed(&a, &packed),
            &reference::matmul_tb(&a, &b),
        );
    }

    #[test]
    fn pack_conv_flattens_to_the_gemm_operand() {
        let w = rand_tensor(&[5, 2, 3, 3], 9);
        let packed = PackedWeights::pack_conv(&w);
        assert_eq!(packed.out_features(), 5);
        assert_eq!(packed.reduction_len(), 18);
        assert_eq!(packed.conv_dims(), Some([5, 2, 3, 3]));
        // Packing the reshaped rank-2 view must produce identical panels.
        let w2 = w.reshape(&[5, 18]).unwrap();
        let packed2 = PackedWeights::pack_rhs_t(&w2);
        assert_eq!(packed.data, packed2.data);
    }

    #[test]
    #[should_panic(expected = "reduction lengths disagree")]
    fn mismatched_reduction_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = PackedWeights::pack_rhs_t(&Tensor::zeros(&[4, 5]));
        let _ = matmul_tb_packed(&a, &b);
    }
}
