use serde::{Deserialize, Serialize};

use crate::{Result, TensorError};

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single numeric container used throughout the workspace:
/// DNN activations, SNN membrane potentials, weights and gradients are all
/// `Tensor`s. The layout convention for image batches is `NCHW`.
///
/// # Example
///
/// ```
/// use ull_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat `Vec` and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// In-place variant of [`Tensor::reshape`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<()> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(())
    }

    /// Reshapes `self` to `shape` and zero-fills it, reusing the existing
    /// buffers' capacity. This is the allocation-free reset used by the
    /// SNN step workspace: after the first step no call allocates.
    pub fn reset_shaped(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        let len = shape.iter().product();
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// Makes `self` an exact copy of `src`, reusing the existing buffers'
    /// capacity (unlike `Clone::clone`, which always allocates fresh ones).
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Copies rows `lo..hi` of the leading (batch) axis into a new tensor
    /// with the same trailing shape. Row-major layout makes this a single
    /// contiguous copy, which is what the batch-parallel SNN simulation
    /// uses to hand each worker its slice of the batch.
    ///
    /// # Panics
    ///
    /// Panics on a rank-0 tensor or if `lo >= hi` or `hi` exceeds the
    /// batch dimension.
    pub fn slice_batch(&self, lo: usize, hi: usize) -> Self {
        assert!(self.rank() >= 1, "slice_batch needs at least one axis");
        let batch = self.shape[0];
        assert!(
            lo < hi && hi <= batch,
            "slice_batch: {lo}..{hi} out of range for batch {batch}"
        );
        let stride: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = hi - lo;
        Tensor {
            shape,
            data: self.data[lo * stride..hi * stride].to_vec(),
        }
    }

    /// Concatenates tensors along the leading (batch) axis, in order —
    /// the inverse of splitting with [`Tensor::slice_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the trailing shapes disagree.
    pub fn concat_batch(parts: &[Tensor]) -> Self {
        assert!(!parts.is_empty(), "concat_batch of no tensors");
        let tail = &parts[0].shape[1..];
        let mut batch = 0;
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            assert_eq!(
                &p.shape[1..],
                tail,
                "concat_batch: trailing shapes disagree"
            );
            batch += p.shape[0];
            data.extend_from_slice(&p.data);
        }
        let mut shape = vec![batch];
        shape.extend_from_slice(tail);
        Tensor { shape, data }
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let o = self.offset(idx);
        self.data[o] = value;
    }

    fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} (dim {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip_map");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise product. Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient. Panics on shape mismatch.
    pub fn div(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other`, the AXPY primitive used by optimizers.
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        self.assert_same_shape(other, "add_scaled");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Adds `value` to every element, returning a new tensor.
    pub fn add_scalar(&self, value: f32) -> Self {
        self.map(|x| x + value)
    }

    /// Multiplies every element by `value`, returning a new tensor.
    pub fn scale(&self, value: f32) -> Self {
        self.map(|x| x * value)
    }

    /// Multiplies every element by `value` in place.
    pub fn scale_in_place(&mut self, value: f32) {
        for x in &mut self.data {
            *x *= value;
        }
    }

    /// Sets every element to zero (gradient reset).
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements; `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// `true` when every element is finite (no NaN and no ±∞). The cheap
    /// health check run on losses and gradients to catch numeric
    /// divergence before it poisons a training run.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Number of non-finite (NaN or ±∞) elements, for diagnostics.
    pub fn count_nonfinite(&self) -> usize {
        self.data.iter().filter(|x| !x.is_finite()).count()
    }

    /// ReLU: `max(x, 0)` elementwise.
    pub fn relu(&self) -> Self {
        self.map(|x| x.max(0.0))
    }

    /// The threshold-ReLU of Eq. 1: `clip(x, 0, mu)` elementwise.
    ///
    /// This is the DNN activation the paper trains with a *trainable*
    /// threshold `mu`.
    pub fn clip(&self, lo: f32, hi: f32) -> Self {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Row-wise argmax for a rank-2 tensor `[rows, cols]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires a rank-2 tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        assert!(cols > 0, "argmax_rows requires at least one column");
        (0..rows)
            .map(|r| {
                let row = &self.data[r * cols..(r + 1) * cols];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Numerically-stable row-wise softmax for a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Self {
        assert_eq!(self.rank(), 2, "softmax_rows requires a rank-2 tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (c, &x) in row.iter().enumerate() {
                let e = (x - m).exp();
                out[r * cols + c] = e;
                denom += e;
            }
            for c in 0..cols {
                out[r * cols + c] /= denom;
            }
        }
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// Numerically-stable row-wise log-softmax for a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn log_softmax_rows(&self) -> Self {
        assert_eq!(self.rank(), 2, "log_softmax_rows requires a rank-2 tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
            for (c, &x) in row.iter().enumerate() {
                out[r * cols + c] = x - lse;
            }
        }
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose requires a rank-2 tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor {
            shape: vec![cols, rows],
            data: out,
        }
    }

    /// Sums a rank-2 tensor over its rows, producing a `[cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows(&self) -> Self {
        assert_eq!(self.rank(), 2, "sum_rows requires a rank-2 tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; cols];
        for r in 0..rows {
            for (o, &v) in out.iter_mut().zip(&self.data[r * cols..(r + 1) * cols]) {
                *o += v;
            }
        }
        Tensor {
            shape: vec![cols],
            data: out,
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_finite_catches_nan_and_infinities() {
        let mut t = Tensor::zeros(&[2, 2]);
        assert!(t.all_finite());
        assert_eq!(t.count_nonfinite(), 0);
        t.data_mut()[1] = f32::NAN;
        t.data_mut()[3] = f32::INFINITY;
        assert!(!t.all_finite());
        assert_eq!(t.count_nonfinite(), 2);
        t.data_mut()[1] = 0.0;
        t.data_mut()[3] = f32::NEG_INFINITY;
        assert!(!t.all_finite());
        assert_eq!(t.count_nonfinite(), 1);
    }

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.data().iter().all(|&x| x == 1.0));
        let f = Tensor::full(&[2, 2], 7.5);
        assert!(f.data().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn eye_diagonal() {
        let e = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(e.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn reshape_round_trip() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.shape(), &[2, 6]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn indexing_row_major() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[0, 0, 3]), 3.0);
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
        assert_eq!(t.at(&[1, 0, 0]), 12.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        t.at(&[0, 2]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn add_scaled_axpy() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, 4.0]);
        a.add_scaled(&g, -0.5);
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0, 0.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.norm_sq(), 14.0);
        assert_eq!(t.count_nonzero(), 3);
    }

    #[test]
    fn clip_is_threshold_relu() {
        let t = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        let y = t.clip(0.0, 1.0);
        assert_eq!(y.data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn relu_zeroes_negatives() {
        let t = Tensor::from_slice(&[-3.0, 0.0, 2.0]);
        assert_eq!(t.relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]).unwrap();
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Huge logits must not overflow.
        assert!(s.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let t = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.0, 0.1, -0.1], &[2, 3]).unwrap();
        let ls = t.log_softmax_rows();
        let s = t.softmax_rows();
        for (a, b) in ls.data().iter().zip(s.data()) {
            assert!((a.exp() - b).abs() < 1e-6);
        }
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn sum_rows_reduces_first_axis() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let s = t.sum_rows();
        assert_eq!(s.shape(), &[2]);
        assert_eq!(s.data(), &[4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn serde_round_trip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn slice_then_concat_is_identity() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[4, 2, 3]).unwrap();
        let a = t.slice_batch(0, 1);
        let b = t.slice_batch(1, 3);
        let c = t.slice_batch(3, 4);
        assert_eq!(a.shape(), &[1, 2, 3]);
        assert_eq!(b.shape(), &[2, 2, 3]);
        assert_eq!(b.data(), &t.data()[6..18]);
        assert_eq!(Tensor::concat_batch(&[a, b, c]), t);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_batch_rejects_bad_range() {
        let t = Tensor::zeros(&[2, 3]);
        let _ = t.slice_batch(1, 3);
    }

    #[test]
    fn reset_shaped_reuses_capacity() {
        let mut t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[4, 6]).unwrap();
        let cap = t.data.capacity();
        t.reset_shaped(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert!(t.data().iter().all(|&x| x == 0.0));
        assert_eq!(t.data.capacity(), cap);
        // Shrinking then regrowing within the old capacity must not allocate.
        t.reset_shaped(&[2]);
        t.reset_shaped(&[4, 6]);
        assert_eq!(t.data.capacity(), cap);
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let mut dst = Tensor::zeros(&[10]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "trailing shapes disagree")]
    fn concat_batch_rejects_mixed_shapes() {
        let a = Tensor::zeros(&[1, 3]);
        let b = Tensor::zeros(&[1, 4]);
        let _ = Tensor::concat_batch(&[a, b]);
    }
}
