//! Weight-stationary packed dense kernels.
//!
//! At the paper's ultra-low latencies (T ≤ 5) every SNN eval step pays one
//! GEMM per conv/linear layer, and the unpacked kernels stream the weight
//! matrix from its canonical layout on every call. But the weights of a
//! converted SNN are *fixed at conversion time* — so their memory layout
//! can be prepared once and reused for every timestep, batch and serving
//! replica.
//!
//! [`PackedWeights`] lays a weight matrix out once into k-major panels of
//! [`PANEL_WIDTH`] output features: within a panel, the [`PANEL_WIDTH`]
//! weights an inner-product step needs are contiguous, so the packed GEMM
//! streams the panel linearly while register-blocking over
//! [`PANEL_WIDTH`]-wide output columns and 4-high output rows. The packed
//! kernels [`matmul_packed`] / [`matmul_tb_packed`] (and
//! [`crate::conv::conv2d_packed_into`], which reuses the same core after
//! im2col) are the only kernels of the SNN eval forward; the unpacked
//! kernels remain as their differential oracle and as the training path.
//!
//! # Bit-identity contract
//!
//! Register blocking changes *which* output elements are computed together,
//! never *how* one element accumulates: every output element still sums its
//! `a[i,p]·b[p,j]` terms in ascending `p` order into an accumulator that
//! starts at `+0.0`, with exactly the `a == 0.0` terms the unpacked kernels
//! also skip. Products have identical operands, sums identical order — so
//! packed results are **bit-identical** to the unpacked kernels for every
//! shape, sparsity and `ULL_THREADS` (asserted exhaustively by
//! `crates/tensor/tests/packed_diff.rs`).

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

/// Which GEMM operand orientation a [`PackedWeights`] was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackLayout {
    /// Packed from `B: [k, n]` for `C = A · B` ([`matmul_packed`]).
    Rhs,
    /// Packed from `B: [n, k]` for `C = A · Bᵀ` ([`matmul_tb_packed`]) —
    /// the layer-weight orientation (`[out_features, in_features]`, or a
    /// conv filter bank flattened to `[F, C·KH·KW]`).
    RhsT,
}

/// A weight matrix laid out once for the packed kernels: k-major panels of
/// [`PANEL_WIDTH`] output features, so the inner reduction loop streams
/// contiguous memory regardless of the source orientation.
///
/// The pack also records an FNV fingerprint of the source weights (bits
/// and shape), which callers use to detect stale packs after weights
/// mutate (chaos swaps, fault injection, training steps).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedWeights {
    layout: PackLayout,
    /// Output features (GEMM `n`).
    n: usize,
    /// Reduction length (GEMM `k`).
    k: usize,
    /// Panels back to back: panel `q` covers output features
    /// `q·PANEL_WIDTH ..` and stores, for each `p` in `0..k`, its features'
    /// weights contiguously.
    data: Vec<f32>,
    fingerprint: u64,
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
        let bd = b.data();
        PackedWeights {
            layout: PackLayout::RhsT,
            n,
            k,
            data: pack_panels(n, k, |j, p| bd[j * k + p]),
            fingerprint: tensor_fingerprint(b),
            conv_dims: None,
        }
    }

    /// Packs `b: [k, n]` for the `C = A · B` kernel.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not rank 2.
    pub fn pack_rhs(b: &Tensor) -> Self {
        let (k, n) = dims2(b, "pack_rhs source");
        let bd = b.data();
        PackedWeights {
            layout: PackLayout::Rhs,
            n,
            k,
            data: pack_panels(n, k, |j, p| bd[p * n + j]),
            fingerprint: tensor_fingerprint(b),
            conv_dims: None,
        }
    }

    /// Packs a conv filter bank `weight: [F, C, KH, KW]`, pre-reshaped to
    /// the `[F, C·KH·KW]` im2col GEMM operand (which it already is in
    /// row-major memory) and packed like [`PackedWeights::pack_rhs_t`].
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
        let wd = weight.data();
        PackedWeights {
            layout: PackLayout::RhsT,
            n: f,
            k,
            data: pack_panels(f, k, |j, p| wd[j * k + p]),
            fingerprint: tensor_fingerprint(weight),
            conv_dims: Some([f, c, kh, kw]),
        }
    }

    /// The pack's operand orientation.
    pub fn layout(&self) -> PackLayout {
        self.layout
    }

    /// Output features (GEMM `n`; conv `F`).
    pub fn out_features(&self) -> usize {
        self.n
    }

    /// Reduction length (GEMM `k`; conv `C·KH·KW`).
    pub fn reduction_len(&self) -> usize {
        self.k
    }

    /// FNV fingerprint of the source weights (bits and shape) at pack
    /// time. Compare against [`tensor_fingerprint`] of the live weights to
    /// detect a stale pack.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
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

/// Lays `n` output features × `k` reduction steps out as k-major panels;
/// `get(j, p)` reads source weight for output feature `j`, reduction step
/// `p`.
fn pack_panels(n: usize, k: usize, get: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let _span = ull_obs::span("tensor.pack");
    ull_obs::counter_add("tensor.pack.bytes", (n * k * 4) as u64);
    let mut data = Vec::with_capacity(n * k);
    let mut j0 = 0;
    while j0 < n {
        let w = (n - j0).min(PANEL_WIDTH);
        for p in 0..k {
            for j in j0..j0 + w {
                data.push(get(j, p));
            }
        }
        j0 += w;
    }
    data
}

/// FNV-1a over a tensor's shape and raw `f32` bit patterns — the cheap
/// content identity the pack caches key on. Folds whole `u32` words (not
/// bytes) so a multi-million-parameter network fingerprints in one fast
/// pass; the shape prefix distinguishes equal-data different-shape
/// tensors.
pub fn tensor_fingerprint(t: &Tensor) -> u64 {
    let mut h = fingerprint_words(0xcbf2_9ce4_8422_2325, t.shape().iter().map(|&d| d as u64));
    h = fingerprint_words(h, t.data().iter().map(|v| u64::from(v.to_bits())));
    h
}

fn fingerprint_words(mut h: u64, words: impl Iterator<Item = u64>) -> u64 {
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `C = A · B` over packed weights (`A: [m, k]`, pack source `B: [k, n]`).
/// Bit-identical to [`crate::matmul`] for every input and thread count.
///
/// # Panics
///
/// Panics if `a` is not rank 2, the pack was not built by
/// [`PackedWeights::pack_rhs`], or the reduction lengths disagree.
pub fn matmul_packed(a: &Tensor, b: &PackedWeights) -> Tensor {
    assert_eq!(
        b.layout,
        PackLayout::Rhs,
        "matmul_packed needs a pack_rhs-packed operand"
    );
    let mut out = Tensor::default();
    packed_gemm_into(a, b, &mut out, "tensor.matmul_packed");
    out
}

/// `C = A · Bᵀ` over packed weights (`A: [m, k]`, pack source `B: [n, k]`).
/// Bit-identical to [`crate::matmul_transpose_b`] for every input and
/// thread count.
///
/// # Panics
///
/// Panics if `a` is not rank 2, the pack was not built by
/// [`PackedWeights::pack_rhs_t`] / [`PackedWeights::pack_conv`], or the
/// reduction lengths disagree.
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
    assert_eq!(
        b.layout,
        PackLayout::RhsT,
        "matmul_tb_packed needs a pack_rhs_t/pack_conv-packed operand"
    );
    packed_gemm_into(a, b, out, "tensor.matmul_tb_packed");
}

fn packed_gemm_into(a: &Tensor, b: &PackedWeights, out: &mut Tensor, span: &'static str) {
    let (m, k) = dims2(a, "packed matmul lhs");
    assert_eq!(
        k, b.k,
        "packed matmul: reduction lengths disagree ({k} vs {})",
        b.k
    );
    out.reset_shaped(&[m, b.n]);
    packed_gemm_raw(a.data(), m, b, out.data_mut(), span);
}

/// Row-major packed GEMM core over raw slices: `ad: [m, k]` against a
/// packed `[n, k]`-semantics operand, writing `out: [m, n]`. Shared by the
/// public packed matmuls and [`crate::conv::conv2d_packed_into`] (whose
/// im2col scratch is a plain `Vec`).
///
/// Register-blocks over [`TILE_ROWS`] output rows × [`PANEL_WIDTH`] output
/// columns with the reduction loop innermost. Each output element's
/// accumulator receives its non-zero terms in ascending `p` order starting
/// from `+0.0` — exactly the unpacked kernels' per-element order — so the
/// result is bit-identical to [`crate::matmul::matmul_tb_raw`] (and to
/// [`crate::matmul`] for the [`PackLayout::Rhs`] orientation).
pub(crate) fn packed_gemm_raw(
    ad: &[f32],
    m: usize,
    b: &PackedWeights,
    out: &mut [f32],
    span: &'static str,
) {
    let (n, k) = (b.n, b.k);
    assert_eq!(ad.len(), m * k, "packed gemm: lhs length");
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
        let mut r0 = 0usize;
        while r0 < rows {
            let mr = (rows - r0).min(TILE_ROWS);
            // Row slices of the tile, fixed-size so the hot loop stays
            // allocation-free; only the first `mr` entries are real.
            let mut arows: [&[f32]; TILE_ROWS] = [&[]; TILE_ROWS];
            for (r, slot) in arows.iter_mut().enumerate().take(mr) {
                let row = i0 + r0 + r;
                *slot = &ad[row * k..(row + 1) * k];
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
                            continue; // the same terms the unpacked kernels skip
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
    use crate::{matmul, matmul_transpose_b};

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
                assert_bits_eq(&matmul_tb_packed(&a, &packed), &matmul_transpose_b(&a, &b));
            }
        }
    }

    #[test]
    fn packed_matmul_matches_unpacked_bitwise() {
        for n in [1usize, 5, 8, 13] {
            let a = rand_tensor(&[6, 9], n as u64 + 100);
            let b = rand_tensor(&[9, n], n as u64 + 200);
            let packed = PackedWeights::pack_rhs(&b);
            assert_bits_eq(&matmul_packed(&a, &packed), &matmul(&a, &b));
        }
    }

    #[test]
    fn sparse_lhs_is_bit_identical_too() {
        // The SNN hot path: a mostly-zero spike matrix against packed
        // weights. Zero-skip must drop exactly the unpacked kernel's terms.
        let mut a = rand_tensor(&[9, 12], 5);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            *v = if (i * 2654435761) % 4 == 0 { 0.5 } else { 0.0 };
        }
        let b = rand_tensor(&[10, 12], 6);
        let packed = PackedWeights::pack_rhs_t(&b);
        assert_bits_eq(&matmul_tb_packed(&a, &packed), &matmul_transpose_b(&a, &b));
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
    fn fingerprint_tracks_content_and_shape() {
        let a = rand_tensor(&[4, 6], 11);
        let packed = PackedWeights::pack_rhs_t(&a);
        assert_eq!(packed.fingerprint(), tensor_fingerprint(&a));
        let mut mutated = a.clone();
        mutated.data_mut()[3] += 1.0;
        assert_ne!(packed.fingerprint(), tensor_fingerprint(&mutated));
        // Same bits, different shape — must not collide.
        let reshaped = a.reshape(&[6, 4]).unwrap();
        assert_ne!(tensor_fingerprint(&a), tensor_fingerprint(&reshaped));
    }

    #[test]
    #[should_panic(expected = "reduction lengths disagree")]
    fn mismatched_reduction_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = PackedWeights::pack_rhs_t(&Tensor::zeros(&[4, 5]));
        let _ = matmul_tb_packed(&a, &b);
    }

    #[test]
    #[should_panic(expected = "pack_rhs_t")]
    fn wrong_layout_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = PackedWeights::pack_rhs(&Tensor::zeros(&[3, 4]));
        let _ = matmul_tb_packed(&a, &b);
    }
}
