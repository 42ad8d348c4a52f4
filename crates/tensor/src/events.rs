//! Event-driven sparse kernels over compact spike representations.
//!
//! The paper's efficiency argument (§VI) is that SNN layers are
//! *accumulate-only and sparse*: at T=2–3 most neurons never fire, so a
//! hardware implementation pays one AC per **spike**, not one MAC per
//! **weight**. The dense im2col+GEMM lowering simulates that network in
//! time proportional to *shape*; the kernels here consume a [`SpikeBatch`]
//! — per-sample sorted active indices plus the one common amplitude
//! `βV_th` every spike carries — and run in time proportional to
//! *activity*.
//!
//! They are not on the SNN eval forward: packed dense is faster at the
//! paper's densities, and its zero-skip already counts the same executed
//! accumulates (`tensor.acs`). They stay as the per-layer reference the
//! benchmark replays against the packed kernels.
//!
//! # Bit-identity contract
//!
//! Both kernels accumulate each output element's active contributions in
//! exactly the order the dense path uses — ascending `(ch, ky, kx)` for
//! convolution (the im2col column order), ascending `k` for the linear
//! product — and skipped terms are precisely the terms the zero-skipping
//! dense kernels also drop. A skipped term contributes an exact `+0.0`
//! to a dense accumulator whenever the weight is finite (`0·finite = ±0.0`
//! and `acc + ±0.0 == acc` for every representable `acc` that can appear
//! mid-sum), and `SnnNetwork::validate` guarantees finite weights, so the
//! event-driven result is **bit-identical** to the dense result — the
//! property tests in `crates/tensor/tests/proptests.rs` assert exact
//! equality.

use crate::conv::ConvGeometry;
use crate::{parallel, Tensor};

/// Compact event representation of one spiking activation tensor: for each
/// sample of the batch, the sorted flat indices of its non-zero elements,
/// plus the single amplitude all of them share.
///
/// A spike layer's output only ever holds `0.0` or its amplitude `βV_th`
/// (Eq. 8 soft reset), so one `f32` plus an index list per sample loses
/// nothing. Inputs that violate that invariant — analog encodings, average
/// pools, residual sums of different amplitudes — make
/// [`SpikeBatch::from_dense`] return `None`.
#[derive(Debug, Clone, Default)]
pub struct SpikeBatch {
    shape: Vec<usize>,
    feature_len: usize,
    amp: f32,
    /// `offsets[b]..offsets[b+1]` delimits sample `b`'s slice of `indices`.
    offsets: Vec<usize>,
    /// Per-sample flat indices of active elements, ascending within a sample.
    indices: Vec<u32>,
}

impl SpikeBatch {
    /// Extracts the event representation of `t`; `None` when `t` is not a
    /// uniform-amplitude spike tensor, i.e. when two non-zero elements
    /// differ. `-0.0` counts as zero, matching the dense kernels' skip.
    ///
    /// # Panics
    ///
    /// Panics if `t` has no axes, a zero-sized batch axis, or more than
    /// `u32::MAX` elements per sample.
    pub fn from_dense(t: &Tensor) -> Option<Self> {
        assert!(t.rank() >= 1, "SpikeBatch needs a batch axis");
        let batch = t.shape()[0];
        assert!(batch > 0, "SpikeBatch needs a non-empty batch");
        let feature = t.len() / batch;
        assert!(
            u32::try_from(feature).is_ok(),
            "SpikeBatch: sample too large for u32 indices"
        );
        let mut offsets = Vec::with_capacity(batch + 1);
        offsets.push(0);
        let mut indices = Vec::new();
        let mut amp = 0.0f32;
        for sample in t.data().chunks(feature.max(1)) {
            for (j, &v) in sample.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                if amp == 0.0 {
                    amp = v;
                } else if v != amp {
                    return None;
                }
                indices.push(j as u32);
            }
            offsets.push(indices.len());
        }
        Some(SpikeBatch {
            shape: t.shape().to_vec(),
            feature_len: feature,
            amp,
            offsets,
            indices,
        })
    }

    /// Shape of the dense tensor this batch represents.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The common amplitude of every event (`0.0` when no element fired).
    pub fn amp(&self) -> f32 {
        self.amp
    }

    /// Number of samples in the batch.
    pub fn batch(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of events across the batch.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fraction of elements that are active, in `[0, 1]`.
    pub fn density(&self) -> f32 {
        let len = self.batch() * self.feature_len;
        if len == 0 {
            0.0
        } else {
            self.nnz() as f32 / len as f32
        }
    }

    /// Sample `b`'s ascending active flat indices.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn sample_indices(&self, b: usize) -> &[u32] {
        &self.indices[self.offsets[b]..self.offsets[b + 1]]
    }

    /// Reconstructs the dense tensor (test/debug helper).
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(&self.shape);
        let od = out.data_mut();
        for b in 0..self.batch() {
            let base = b * self.feature_len;
            for &j in self.sample_indices(b) {
                od[base + j as usize] = self.amp;
            }
        }
        out
    }
}

/// Event-driven 2-d convolution: `events [N,C,H,W] * weight [F,C,KH,KW]
/// (+ bias [F])` into `out [N,F,OH,OW]`, without materialising im2col
/// columns.
///
/// Each event scatters into the output pixels whose receptive field covers
/// it. Events are sorted by flat input index `(ch, iy, ix)`, and for a
/// fixed output pixel the kernel coordinates `(ky, kx)` are monotone in
/// `(iy, ix)`, so every output element accumulates its terms in ascending
/// `(ch, ky, kx)` order — exactly the im2col column order of the dense
/// path, making results bit-identical to [`crate::conv::conv2d`] for
/// finite weights.
///
/// Work scales with activity: `nnz · (valid kernel offsets) · F` executed
/// accumulates (reported via `tensor.acs`) against the dense path's
/// `N·OH·OW·C·KH·KW·F` nominal (reported via `tensor.macs`, identically to
/// the dense kernel so the two runs stay comparable).
///
/// # Panics
///
/// Panics on rank or channel mismatches, as [`crate::conv::conv2d`].
pub fn conv2d_events(
    events: &SpikeBatch,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geo: ConvGeometry,
    out: &mut Tensor,
) {
    let shape = events.shape();
    assert_eq!(shape.len(), 4, "conv2d_events: events must be rank 4");
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    assert_eq!(weight.rank(), 4, "conv2d_events: weight must be rank 4");
    let (f, wc) = (weight.shape()[0], weight.shape()[1]);
    let (kh, kw) = (weight.shape()[2], weight.shape()[3]);
    assert_eq!(
        c, wc,
        "conv2d: input has {c} channels but weight expects {wc}"
    );
    assert_eq!(
        (kh, kw),
        (geo.kh, geo.kw),
        "conv2d: weight kernel disagrees with geometry"
    );
    let (oh, ow) = geo.output_hw(h, w);
    let _span = ull_obs::span("tensor.conv2d_events");
    ull_obs::counter_add("tensor.macs", (n * oh * ow * c * kh * kw * f) as u64);
    out.reset_shaped(&[n, f, oh, ow]);
    let wd = weight.data();
    let bd = bias.map(|b| {
        assert_eq!(b.shape(), &[f], "conv2d: bias must have shape [F]");
        b.data()
    });
    let amp = events.amp();
    let hw = h * w;
    let plane = oh * ow;
    // One sample per work item, exactly like the dense path's per-image
    // im2col chunks: sample `b` owns the contiguous `[b·F·OH·OW ..)` block.
    parallel::par_chunks_mut(out.data_mut(), f * plane, |b, sample_out| {
        let mut executed = 0u64;
        for &idx in events.sample_indices(b) {
            let idx = idx as usize;
            let ch = idx / hw;
            let iy = (idx % hw) / w;
            let ix = idx % w;
            let wbase = (ch * kh) * kw;
            // Output rows this event can reach: oy·stride = iy + pad − ky.
            for ky in 0..kh {
                let span_y = iy + geo.padding;
                if span_y < ky {
                    break; // ky only grows; no later row reaches back further
                }
                if !(span_y - ky).is_multiple_of(geo.stride) {
                    continue;
                }
                let oy = (span_y - ky) / geo.stride;
                if oy >= oh {
                    continue; // too close to the top edge for this ky
                }
                for kx in 0..kw {
                    let span_x = ix + geo.padding;
                    if span_x < kx {
                        break;
                    }
                    if !(span_x - kx).is_multiple_of(geo.stride) {
                        continue;
                    }
                    let ox = (span_x - kx) / geo.stride;
                    if ox >= ow {
                        continue;
                    }
                    let widx = wbase + ky * kw + kx;
                    let o0 = oy * ow + ox;
                    executed += f as u64;
                    for fi in 0..f {
                        sample_out[fi * plane + o0] += amp * wd[fi * c * kh * kw + widx];
                    }
                }
            }
        }
        if let Some(bd) = bd {
            for (fi, fplane) in sample_out.chunks_mut(plane).enumerate() {
                for o in fplane {
                    *o += bd[fi];
                }
            }
        }
        ull_obs::counter_add("tensor.acs", executed);
    });
}

/// Event-driven `C = A · Bᵀ` for spiking `A` represented as `events
/// [m, k]` and dense `b: [n, k]`, writing `out: [m, n]`.
///
/// For each output element the active `k` indices are visited in ascending
/// order — the same order the zero-skipping dense kernel visits its
/// non-zero terms — so results are bit-identical to
/// [`crate::matmul_transpose_b`] for finite `b`.
///
/// # Panics
///
/// Panics if `events` is not rank 2 or the trailing dimensions disagree.
pub fn matmul_tb_events(events: &SpikeBatch, b: &Tensor, out: &mut Tensor) {
    let shape = events.shape();
    assert_eq!(shape.len(), 2, "matmul_tb_events: events must be rank 2");
    let (m, k) = (shape[0], shape[1]);
    assert_eq!(b.rank(), 2, "matmul_transpose_b rhs must be rank 2");
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k, k2,
        "matmul_transpose_b: trailing dims disagree ({k} vs {k2})"
    );
    let _span = ull_obs::span("tensor.matmul_tb_events");
    ull_obs::counter_add("tensor.macs", (m * k * n) as u64);
    out.reset_shaped(&[m, n]);
    let bd = b.data();
    let amp = events.amp();
    parallel::par_chunks_mut(out.data_mut(), n, |i, orow| {
        let idxs = events.sample_indices(i);
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for &p in idxs {
                acc += amp * brow[p as usize];
            }
            *o = acc;
        }
        ull_obs::counter_add("tensor.acs", (idxs.len() * n) as u64);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d;
    use crate::matmul_transpose_b;

    /// Spike-like tensor: zeros except `amp` wherever the hash fires.
    fn spike_tensor(shape: &[usize], amp: f32, one_in: usize, seed: usize) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|i| {
                if (i.wrapping_mul(2654435761).wrapping_add(seed)) % one_in == 0 {
                    amp
                } else {
                    0.0
                }
            })
            .collect();
        Tensor::from_vec(data, shape).unwrap()
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

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn round_trip_through_events() {
        let t = spike_tensor(&[3, 2, 4, 4], 0.625, 4, 7);
        let ev = SpikeBatch::from_dense(&t).unwrap();
        assert_eq!(ev.amp(), 0.625);
        assert_eq!(ev.nnz(), t.count_nonzero());
        assert_bits_eq(&ev.to_dense(), &t);
    }

    #[test]
    fn non_uniform_amplitudes_are_rejected() {
        let mut t = spike_tensor(&[2, 6], 1.0, 3, 0);
        assert!(SpikeBatch::from_dense(&t).is_some());
        t.data_mut()[0] = 0.5;
        t.data_mut()[3] = 1.0;
        assert!(SpikeBatch::from_dense(&t).is_none());
    }

    #[test]
    fn negative_zero_counts_as_zero() {
        let t = Tensor::from_vec(vec![-0.0, 1.5, 0.0, 1.5], &[2, 2]).unwrap();
        let ev = SpikeBatch::from_dense(&t).unwrap();
        assert_eq!(ev.nnz(), 2);
        assert_eq!(ev.amp(), 1.5);
    }

    #[test]
    fn all_silent_batch_is_valid() {
        let t = Tensor::zeros(&[2, 8]);
        let ev = SpikeBatch::from_dense(&t).unwrap();
        assert_eq!(ev.nnz(), 0);
        assert_eq!(ev.density(), 0.0);
        assert_bits_eq(&ev.to_dense(), &t);
    }

    #[test]
    fn conv_events_bit_identical_to_dense() {
        for (stride, padding, one_in) in [(1, 0, 3), (1, 1, 4), (2, 1, 5), (1, 2, 2)] {
            let geo = ConvGeometry {
                kh: 3,
                kw: 3,
                stride,
                padding,
            };
            let x = spike_tensor(&[2, 3, 6, 6], 0.75, one_in, stride + padding);
            let wgt = rand_tensor(&[4, 3, 3, 3], 40);
            let bias = rand_tensor(&[4], 41);
            let dense = conv2d(&x, &wgt, Some(&bias), geo);
            let ev = SpikeBatch::from_dense(&x).unwrap();
            let mut sparse = Tensor::default();
            conv2d_events(&ev, &wgt, Some(&bias), geo, &mut sparse);
            assert_bits_eq(&sparse, &dense);
        }
    }

    #[test]
    fn conv_events_one_by_one_kernel() {
        let geo = ConvGeometry::square(1, 1, 0);
        let x = spike_tensor(&[1, 4, 5, 5], 1.0, 3, 9);
        let wgt = rand_tensor(&[2, 4, 1, 1], 50);
        let ev = SpikeBatch::from_dense(&x).unwrap();
        let mut sparse = Tensor::default();
        conv2d_events(&ev, &wgt, None, geo, &mut sparse);
        assert_bits_eq(&sparse, &conv2d(&x, &wgt, None, geo));
    }

    #[test]
    fn matmul_events_bit_identical_to_dense() {
        let a = spike_tensor(&[5, 12], 0.375, 3, 11);
        let b = rand_tensor(&[7, 12], 60);
        let dense = matmul_transpose_b(&a, &b);
        let ev = SpikeBatch::from_dense(&a).unwrap();
        let mut sparse = Tensor::default();
        matmul_tb_events(&ev, &b, &mut sparse);
        assert_bits_eq(&sparse, &dense);
    }
}
