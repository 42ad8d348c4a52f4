//! Max and average pooling with backward passes.
//!
//! The paper deliberately keeps **max pooling** in the SNN (§IV-A): on
//! binary spike inputs the max over a window is itself binary, so every
//! hidden layer keeps emitting spikes and the network stays accumulate-only.
//! [`maxpool2d`] returns the argmax index map required both for the backward
//! pass and for verifying that binary-input ⇒ binary-output invariant.

use crate::Tensor;

/// Result of a max-pooling forward pass: outputs plus argmax indices.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled activations, `[N, C, OH, OW]`.
    pub output: Tensor,
    /// For each output element, the flat index into the input buffer of the
    /// element that won the max. Used by [`maxpool2d_backward`].
    pub argmax: Vec<usize>,
}

/// Max pooling over `k × k` windows with stride `k` (the paper's usage).
///
/// Returns the pooled tensor and the winning input index per output cell.
/// A thin wrapper over [`maxpool2d_into`].
///
/// # Panics
///
/// Panics if `input` is not rank 4, `k` is 0, or the spatial dims are not
/// divisible by `k`.
pub fn maxpool2d(input: &Tensor, k: usize) -> MaxPoolOutput {
    let mut output = Tensor::default();
    let mut argmax = Vec::new();
    maxpool2d_into(input, k, &mut output, Some(&mut argmax));
    MaxPoolOutput { output, argmax }
}

/// [`maxpool2d`] writing into a caller-owned output tensor (resized in
/// place, allocation-free at steady state). The argmax map is written to
/// `argmax` (resized in place) when one is given; the SNN eval loop passes
/// `None`, the BPTT tape a fresh vector per step.
///
/// # Panics
///
/// Same conditions as [`maxpool2d`].
pub fn maxpool2d_into(
    input: &Tensor,
    k: usize,
    out: &mut Tensor,
    mut argmax: Option<&mut Vec<usize>>,
) {
    let [n, c, h, w] = dims4(input);
    assert!(k > 0, "pooling window must be positive");
    assert!(
        h % k == 0 && w % k == 0,
        "maxpool2d: input {h}x{w} not divisible by window {k}"
    );
    let (oh, ow) = (h / k, w / k);
    out.reset_shaped(&[n, c, oh, ow]);
    if let Some(arg) = argmax.as_deref_mut() {
        arg.clear();
        arg.resize(out.len(), 0);
    }
    let od = out.data_mut();
    let data = input.data();
    for b in 0..n {
        for ch in 0..c {
            let plane = (b * c + ch) * h * w;
            let oplane = (b * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = plane + oy * k * w + ox * k;
                    for ky in 0..k {
                        let row = plane + (oy * k + ky) * w + ox * k;
                        for kx in 0..k {
                            let v = data[row + kx];
                            if v > best {
                                best = v;
                                best_idx = row + kx;
                            }
                        }
                    }
                    od[oplane + oy * ow + ox] = best;
                    if let Some(arg) = argmax.as_deref_mut() {
                        arg[oplane + oy * ow + ox] = best_idx;
                    }
                }
            }
        }
    }
}

/// Backward pass of [`maxpool2d`]: routes each output gradient to the input
/// element that won the max.
///
/// # Panics
///
/// Panics if `grad_out.len() != argmax.len()`.
pub fn maxpool2d_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
    assert_eq!(
        grad_out.len(),
        argmax.len(),
        "maxpool2d_backward: grad/argmax length mismatch"
    );
    let mut dx = Tensor::zeros(input_shape);
    let dd = dx.data_mut();
    for (&g, &i) in grad_out.data().iter().zip(argmax) {
        dd[i] += g;
    }
    dx
}

/// Average pooling over `k × k` windows with stride `k`. A thin wrapper
/// over [`avgpool2d_into`].
///
/// # Panics
///
/// Panics if `input` is not rank 4, `k` is 0, or the spatial dims are not
/// divisible by `k`.
pub fn avgpool2d(input: &Tensor, k: usize) -> Tensor {
    let mut out = Tensor::default();
    avgpool2d_into(input, k, &mut out);
    out
}

/// [`avgpool2d`] writing into a caller-owned output tensor (resized in
/// place, allocation-free at steady state).
///
/// # Panics
///
/// Same conditions as [`avgpool2d`].
pub fn avgpool2d_into(input: &Tensor, k: usize, out: &mut Tensor) {
    let [n, c, h, w] = dims4(input);
    assert!(k > 0, "pooling window must be positive");
    assert!(
        h % k == 0 && w % k == 0,
        "avgpool2d: input {h}x{w} not divisible by window {k}"
    );
    let (oh, ow) = (h / k, w / k);
    let inv = 1.0 / (k * k) as f32;
    out.reset_shaped(&[n, c, oh, ow]);
    let od = out.data_mut();
    let data = input.data();
    for b in 0..n {
        for ch in 0..c {
            let plane = (b * c + ch) * h * w;
            let oplane = (b * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..k {
                        let row = plane + (oy * k + ky) * w + ox * k;
                        for kx in 0..k {
                            acc += data[row + kx];
                        }
                    }
                    od[oplane + oy * ow + ox] = acc * inv;
                }
            }
        }
    }
}

/// Backward pass of [`avgpool2d`]: spreads each output gradient uniformly
/// over its window.
///
/// # Panics
///
/// Panics if shapes are inconsistent with an average pool of window `k`.
pub fn avgpool2d_backward(grad_out: &Tensor, input_shape: &[usize], k: usize) -> Tensor {
    let [n, c, h, w] = [
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    ];
    let (oh, ow) = (h / k, w / k);
    assert_eq!(
        grad_out.shape(),
        &[n, c, oh, ow],
        "avgpool2d_backward: grad_out shape mismatch"
    );
    let inv = 1.0 / (k * k) as f32;
    let mut dx = Tensor::zeros(input_shape);
    let dd = dx.data_mut();
    let gd = grad_out.data();
    for b in 0..n {
        for ch in 0..c {
            let plane = (b * c + ch) * h * w;
            let oplane = (b * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gd[oplane + oy * ow + ox] * inv;
                    for ky in 0..k {
                        let row = plane + (oy * k + ky) * w + ox * k;
                        for kx in 0..k {
                            dd[row + kx] += g;
                        }
                    }
                }
            }
        }
    }
    dx
}

fn dims4(t: &Tensor) -> [usize; 4] {
    assert_eq!(
        t.rank(),
        4,
        "pooling expects rank-4 input, got {:?}",
        t.shape()
    );
    [t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_max() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.125,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let p = maxpool2d(&x, 2);
        assert_eq!(p.output.shape(), &[1, 1, 2, 2]);
        assert_eq!(p.output.data(), &[4.0, 8.0, -1.0, 0.5]);
    }

    #[test]
    fn maxpool_binary_in_binary_out() {
        // The invariant the paper relies on (§IV-A): spikes in ⇒ spikes out.
        let x = Tensor::from_vec(
            vec![
                0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let p = maxpool2d(&x, 2);
        assert!(p.output.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let p = maxpool2d(&x, 2);
        let go = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap();
        let dx = maxpool2d_backward(&go, &p.argmax, x.shape());
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn maxpool_backward_finite_difference() {
        let x = Tensor::from_vec(
            (0..16)
                .map(|i| ((i * 7919) % 13) as f32 * 0.3 - 1.0)
                .collect(),
            &[1, 1, 4, 4],
        )
        .unwrap();
        let p = maxpool2d(&x, 2);
        let go = Tensor::ones(p.output.shape());
        let dx = maxpool2d_backward(&go, &p.argmax, x.shape());
        let eps = 1e-3;
        for i in 0..16 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd =
                (maxpool2d(&xp, 2).output.sum() - maxpool2d(&xm, 2).output.sum()) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 1e-2,
                "i={i}: fd {fd} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn avgpool_averages() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = avgpool2d(&x, 2);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let go = Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap();
        let dx = avgpool2d_backward(&go, &[1, 1, 2, 2], 2);
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avgpool_for_resnet_head() {
        // ResNet-20 ends with a global average pool; window == spatial size.
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = avgpool2d(&x, 4);
        assert_eq!(y.shape(), &[2, 3, 1, 1]);
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let x = Tensor::from_vec(
            (0..64)
                .map(|i| ((i * 2654435761usize) % 17) as f32 * 0.25 - 2.0)
                .collect(),
            &[2, 2, 4, 4],
        )
        .unwrap();
        // Reused buffers of the wrong size are reshaped and overwritten.
        let want = maxpool2d(&x, 2);
        let mut out = Tensor::full(&[5], 9.0);
        let mut argmax = vec![7; 3];
        maxpool2d_into(&x, 2, &mut out, Some(&mut argmax));
        assert_eq!(out, want.output);
        assert_eq!(argmax, want.argmax);
        maxpool2d_into(&x, 2, &mut out, None);
        assert_eq!(out, want.output);
        avgpool2d_into(&x, 2, &mut out);
        assert_eq!(out, avgpool2d(&x, 2));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_window_panics() {
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let _ = maxpool2d(&x, 2);
    }
}
