//! Operator overloads, batch selection and stacking.
//!
//! `&Tensor + &Tensor` etc. delegate to the elementwise methods;
//! [`Tensor::select_batch`] and [`Tensor::stack`] split and rebuild
//! batches.

use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::Tensor;

impl Add for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        Tensor::add(self, rhs)
    }
}

impl Sub for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        Tensor::sub(self, rhs)
    }
}

impl Mul for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        Tensor::mul(self, rhs)
    }
}

impl Div for &Tensor {
    type Output = Tensor;
    fn div(self, rhs: &Tensor) -> Tensor {
        Tensor::div(self, rhs)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.scale(rhs)
    }
}

impl Add<f32> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: f32) -> Tensor {
        self.add_scalar(rhs)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.scale(-1.0)
    }
}

impl Tensor {
    /// Extracts sample `i` of a batched `[N, …]` tensor as a `[…]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `i` is out of range.
    pub fn select_batch(&self, i: usize) -> Tensor {
        assert!(self.rank() >= 1, "select_batch needs a batched tensor");
        let n = self.shape()[0];
        assert!(i < n, "batch index {i} out of range for {n}");
        let per: usize = self.shape()[1..].iter().product();
        let data = self.data()[i * per..(i + 1) * per].to_vec();
        let shape: Vec<usize> = if self.rank() == 1 {
            vec![1]
        } else {
            self.shape()[1..].to_vec()
        };
        Tensor::from_vec(data, &shape).expect("select_batch length")
    }

    /// Stacks same-shape tensors along a new leading axis.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes differ.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "cannot stack zero tensors");
        let shape = items[0].shape();
        let mut data = Vec::with_capacity(items.len() * items[0].len());
        for (i, t) in items.iter().enumerate() {
            assert_eq!(t.shape(), shape, "stack: item {i} shape mismatch");
            data.extend_from_slice(t.data());
        }
        let mut out_shape = vec![items.len()];
        out_shape.extend_from_slice(shape);
        Tensor::from_vec(data, &out_shape).expect("stack length")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t22() -> Tensor {
        Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap()
    }

    #[test]
    fn operator_overloads() {
        let a = t22();
        let b = Tensor::ones(&[2, 2]);
        assert_eq!((&a + &b).data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!((&a - &b).data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!((&a * &b).data(), a.data());
        assert_eq!((&a / &a).data(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!((&a + 1.0).data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn select_batch_extracts_sample() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 2, 2]).unwrap();
        let s = t.select_batch(1);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn stack_round_trips_with_select() {
        let a = t22();
        let b = Tensor::ones(&[2, 2]);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.select_batch(0), a);
        assert_eq!(s.select_batch(1), b);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn stack_rejects_mixed_shapes() {
        Tensor::stack(&[Tensor::zeros(&[2]), Tensor::zeros(&[3])]);
    }
}
