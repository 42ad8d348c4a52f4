//! Trainable parameters: value, gradient and momentum buffers.

use serde::{Deserialize, Serialize};
use ull_tensor::Tensor;

/// A trainable parameter with its gradient accumulator and SGD momentum
/// buffer. Gradients accumulate across backward calls until
/// [`Param::zero_grad`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Momentum buffer (same shape as `value`): SGD's velocity.
    pub momentum: Tensor,
    /// Always `None`: no optimizer in this workspace keeps a second moment.
    /// The field stays so the serialized format (pinned, and hashed by the
    /// pipeline pins) keeps its `"second_moment":null` entry; JSON written
    /// without it still loads.
    #[serde(default)]
    pub second_moment: Option<Tensor>,
    /// Whether weight decay applies (true for weights, false for biases and
    /// thresholds, matching common practice and the paper's setup).
    pub decay: bool,
}

impl Param {
    /// Wraps a tensor as a parameter with zeroed gradient and momentum.
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.shape());
        let momentum = Tensor::zeros(value.shape());
        Param {
            value,
            grad,
            momentum,
            second_moment: None,
            decay,
        }
    }

    /// A scalar parameter (used for the trainable threshold μ and leak λ).
    pub fn scalar(value: f32, decay: bool) -> Self {
        Param::new(Tensor::from_slice(&[value]), decay)
    }

    /// The value of a scalar parameter.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not 1-element.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.value.len(), 1, "scalar_value on non-scalar param");
        self.value.data()[0]
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zeroes_grad_and_momentum() {
        let p = Param::new(Tensor::ones(&[2, 2]), true);
        assert!(p.grad.data().iter().all(|&x| x == 0.0));
        assert!(p.momentum.data().iter().all(|&x| x == 0.0));
        assert!(p.decay);
    }

    #[test]
    fn scalar_round_trip() {
        let p = Param::scalar(2.5, false);
        assert_eq!(p.scalar_value(), 2.5);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn sgd_checkpoint_without_second_moment_loads() {
        // Back-compat: JSON written before the field existed must load.
        let json = r#"{"value":{"shape":[1],"data":[1.0]},"grad":{"shape":[1],"data":[0.0]},"momentum":{"shape":[1],"data":[0.0]},"decay":true}"#;
        let p: Param = serde_json::from_str(json).unwrap();
        assert!(p.second_moment.is_none());
        assert_eq!(p.value.data()[0], 1.0);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::scalar(1.0, false);
        p.grad.data_mut()[0] = 9.0;
        p.zero_grad();
        assert_eq!(p.grad.data()[0], 0.0);
    }
}
