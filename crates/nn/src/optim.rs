//! SGD with momentum and the paper's step-decay learning-rate schedule.

use serde::{Deserialize, Serialize};

use crate::Trainable;

/// Hyper-parameters of [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Base learning rate (the schedule multiplies it).
    pub lr: f32,
    /// Classical momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay, applied only to parameters with `decay = true`.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        // Paper §IV-A: DNN training starts at LR 0.01; weight decay is the
        // usual 5e-4 for CIFAR-scale VGG/ResNet training.
        SgdConfig {
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 5e-4,
        }
    }
}

/// The paper's learning-rate schedule (§IV-A): the LR decays by ×0.1 at
/// 60 %, 80 % and 90 % of the total epoch budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LrSchedule {
    /// Total number of training epochs.
    pub total_epochs: usize,
    /// Multiplicative decay at each milestone.
    pub gamma: f32,
    /// Linear warmup epochs at the start (0 disables). Standard stabiliser
    /// for batch-norm-free deep networks like the paper's VGG variants.
    pub warmup_epochs: usize,
}

impl LrSchedule {
    /// The schedule for a run of `total_epochs` epochs.
    pub fn paper(total_epochs: usize) -> Self {
        LrSchedule {
            total_epochs,
            gamma: 0.1,
            warmup_epochs: 0,
        }
    }

    /// Adds a linear LR warmup over the first `epochs` epochs.
    pub fn with_warmup(mut self, epochs: usize) -> Self {
        self.warmup_epochs = epochs;
        self
    }

    /// LR multiplier for a 0-based `epoch`.
    pub fn factor(&self, epoch: usize) -> f32 {
        if self.warmup_epochs > 0 && epoch < self.warmup_epochs {
            return (epoch + 1) as f32 / self.warmup_epochs as f32;
        }
        let frac = if self.total_epochs == 0 {
            0.0
        } else {
            epoch as f32 / self.total_epochs as f32
        };
        let mut f = 1.0;
        for milestone in [0.6, 0.8, 0.9] {
            if frac >= milestone {
                f *= self.gamma;
            }
        }
        f
    }
}

/// Positive floor kept under every trainable threshold μ after an
/// optimizer step (same value as the SNN-side v_th clamp). Keeps the
/// threshold ReLU's `clip(x, 0, μ)` range valid when a gradient step
/// would otherwise drive μ negative.
pub const MU_FLOOR: f32 = 0.01;

/// Plain SGD with momentum; trains any [`Trainable`] network, the DNN and
/// the converted SNN alike.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// The optimizer configuration.
    pub config: SgdConfig,
    /// Optional global gradient-norm clip applied before each step —
    /// the second standard stabiliser for deep batch-norm-free training,
    /// and for BPTT through many spike layers.
    pub max_grad_norm: Option<f32>,
}

impl Sgd {
    /// Creates an optimizer with the given configuration (no clipping).
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            max_grad_norm: None,
        }
    }

    /// Enables global gradient-norm clipping at `max_norm`.
    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.max_grad_norm = Some(max_norm);
        self
    }

    /// Applies one update step to every parameter of `net` using the
    /// currently accumulated gradients, with learning rate `lr_factor·lr`,
    /// then clamps the parameters ([`Trainable::clamp_params`]).
    /// Gradients are *not* cleared.
    pub fn step<N: Trainable>(&self, net: &mut N, lr_factor: f32) {
        let lr = self.config.lr * lr_factor;
        let cfg = self.config;
        if let Some(max) = self.max_grad_norm {
            clip_grads(net, max);
        }
        net.visit_params_mut(|p| {
            let wd = if p.decay { cfg.weight_decay } else { 0.0 };
            // v <- m·v + (g + wd·w); w <- w − lr·v
            let moments = p.momentum.data_mut().iter_mut().zip(p.grad.data());
            for (w, (v, &g)) in p.value.data_mut().iter_mut().zip(moments) {
                *v = cfg.momentum * *v + g + wd * *w;
                *w -= lr * *v;
            }
        });
        net.clamp_params();
    }
}

/// Scales every gradient of `net` so the global L2 norm is at most `max`.
pub fn clip_grads<N: Trainable>(net: &mut N, max: f32) {
    let mut total = 0.0f32;
    net.visit_params(|p| total += p.grad.norm_sq());
    let norm = total.sqrt();
    if norm > max && norm > 0.0 {
        let scale = max / norm;
        net.visit_params_mut(|p| p.grad.scale_in_place(scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkBuilder};
    use ull_tensor::Tensor;

    fn one_linear_net() -> Network {
        let mut b = NetworkBuilder::new(1, 1, 0);
        b.flatten();
        b.linear(1);
        b.build()
    }

    #[test]
    fn schedule_decays_at_milestones() {
        let s = LrSchedule::paper(100);
        assert_eq!(s.factor(0), 1.0);
        assert_eq!(s.factor(59), 1.0);
        assert!((s.factor(60) - 0.1).abs() < 1e-6);
        assert!((s.factor(80) - 0.01).abs() < 1e-7);
        assert!((s.factor(90) - 0.001).abs() < 1e-8);
        assert!((s.factor(99) - 0.001).abs() < 1e-8);
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut net = one_linear_net();
        net.visit_params_mut(|p| {
            p.value.fill(1.0);
            p.grad.fill(2.0);
        });
        let sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        sgd.step(&mut net, 1.0);
        net.visit_params(|p| {
            assert!((p.value.data()[0] - 0.8).abs() < 1e-6);
        });
    }

    #[test]
    fn momentum_accumulates() {
        let mut net = one_linear_net();
        net.visit_params_mut(|p| {
            p.value.fill(0.0);
            p.grad.fill(1.0);
        });
        let sgd = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.5,
            weight_decay: 0.0,
        });
        sgd.step(&mut net, 1.0);
        // After step 1: v=1, w=-1. Grad stays 1.
        sgd.step(&mut net, 1.0);
        // v=1.5, w=-2.5.
        net.visit_params(|p| {
            assert!(
                (p.value.data()[0] + 2.5).abs() < 1e-6,
                "{}",
                p.value.data()[0]
            );
        });
    }

    #[test]
    fn weight_decay_respects_param_flag() {
        let mut net = one_linear_net();
        // Linear weight decays; give zero gradient to isolate decay.
        net.visit_params_mut(|p| {
            p.value.fill(1.0);
            p.grad.fill(0.0);
        });
        let sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
        });
        sgd.step(&mut net, 1.0);
        net.visit_params(|p| {
            if p.decay {
                assert!((p.value.data()[0] - 0.95).abs() < 1e-6);
            } else {
                assert_eq!(p.value.data()[0], 1.0);
            }
        });
    }

    #[test]
    fn warmup_ramps_linearly_then_decays() {
        let s = LrSchedule::paper(100).with_warmup(4);
        assert!((s.factor(0) - 0.25).abs() < 1e-6);
        assert!((s.factor(1) - 0.5).abs() < 1e-6);
        assert!((s.factor(3) - 1.0).abs() < 1e-6);
        assert_eq!(s.factor(4), 1.0);
        assert!((s.factor(60) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn clipping_bounds_global_norm() {
        let mut net = one_linear_net();
        net.visit_params_mut(|p| p.grad.fill(100.0));
        clip_grads(&mut net, 1.0);
        let mut total = 0.0f32;
        net.visit_params(|p| total += p.grad.norm_sq());
        assert!((total.sqrt() - 1.0).abs() < 1e-4);
        // Below the bound, gradients are untouched.
        net.visit_params_mut(|p| p.grad.fill(0.1));
        clip_grads(&mut net, 10.0);
        net.visit_params(|p| assert_eq!(p.grad.data()[0], 0.1));
    }

    #[test]
    fn sgd_with_clip_limits_update() {
        let mut net = one_linear_net();
        net.visit_params_mut(|p| {
            p.value.fill(0.0);
            p.grad.fill(1000.0);
        });
        let sgd = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
        })
        .with_clip(1.0);
        sgd.step(&mut net, 1.0);
        net.visit_params(|p| assert!(p.value.data()[0].abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn threshold_mu_stays_positive_under_adversarial_gradient() {
        // Regression: a large gradient step used to drive the trainable
        // threshold μ negative, after which the forward pass panicked on
        // `clip(0, μ)` with an inverted range. The optimizer now clamps
        // μ to MU_FLOOR after every step.
        let mut b = NetworkBuilder::new(1, 2, 0);
        b.threshold_relu(1.0);
        b.flatten();
        b.linear(2);
        let mut net = b.build();
        net.visit_params_mut(|p| {
            if p.value.len() == 1 {
                p.grad.fill(1000.0); // pushes the scalar μ hard negative
            }
        });
        let sgd = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        sgd.step(&mut net, 1.0);
        for id in net.threshold_nodes() {
            assert!(net.threshold_mu(id) >= MU_FLOOR);
        }
        // Forward must not panic after the adversarial step.
        let x = Tensor::from_vec(vec![0.5, -0.5, 0.25, 1.5], &[1, 1, 2, 2]).unwrap();
        let out = net.forward_eval(&x);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lr_factor_scales_step() {
        let mut net = one_linear_net();
        net.visit_params_mut(|p| {
            p.value.fill(0.0);
            p.grad.fill(1.0);
        });
        let sgd = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        sgd.step(&mut net, 0.1);
        net.visit_params(|p| {
            assert!((p.value.data()[0] + 0.1).abs() < 1e-6);
        });
        let _ = Tensor::zeros(&[1]);
    }
}
