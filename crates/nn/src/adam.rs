//! The Adam optimizer.
//!
//! The paper's own training uses SGD with momentum (§IV-A), but the
//! calibration-style conversion baselines it compares against (Deng et
//! al. [15], Li et al. [16]) fine-tune with Adam; providing it makes
//! those baselines reproducible with their original optimizer and gives
//! downstream users a second option.

use serde::{Deserialize, Serialize};
use ull_tensor::Tensor;

use crate::{clip_grads, Trainable};

/// Hyper-parameters of [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay of the first-moment estimate.
    pub beta1: f32,
    /// Exponential decay of the second-moment estimate.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled (AdamW-style) weight decay on `decay = true` parameters.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam with optional decoupled weight decay and gradient clipping.
///
/// Reuses [`Param::momentum`] as the first-moment buffer and lazily
/// allocates [`Param::second_moment`], so switching a network between SGD
/// and Adam never loses weights (though moment semantics reset).
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    /// The optimizer configuration.
    pub config: AdamConfig,
    /// Optional global gradient-norm clip.
    pub max_grad_norm: Option<f32>,
    step_count: u64,
}

impl Adam {
    /// Creates an optimizer with the given configuration (no clipping).
    pub fn new(config: AdamConfig) -> Self {
        Adam {
            config,
            max_grad_norm: None,
            step_count: 0,
        }
    }

    /// Enables global gradient-norm clipping at `max_norm`.
    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.max_grad_norm = Some(max_norm);
        self
    }

    /// Number of update steps taken (drives bias correction).
    pub fn steps_taken(&self) -> u64 {
        self.step_count
    }

    /// One Adam step over every parameter of `net` at learning-rate factor
    /// `lr_factor`, then the parameter clamp
    /// ([`Trainable::clamp_params`]). Gradients are left in place.
    pub fn step<N: Trainable>(&mut self, net: &mut N, lr_factor: f32) {
        if let Some(max) = self.max_grad_norm {
            clip_grads(net, max);
        }
        self.step_count += 1;
        let t = self.step_count as f32;
        let cfg = self.config;
        let lr = cfg.lr * lr_factor;
        let bc1 = 1.0 - cfg.beta1.powf(t);
        let bc2 = 1.0 - cfg.beta2.powf(t);
        net.visit_params_mut(|p| {
            let wd = if p.decay { cfg.weight_decay } else { 0.0 };
            let v = p
                .second_moment
                .get_or_insert_with(|| Tensor::zeros(p.value.shape()));
            let moments = p.momentum.data_mut().iter_mut().zip(v.data_mut());
            let weights = p.value.data_mut().iter_mut().zip(p.grad.data());
            for ((w, &g), (m, v)) in weights.zip(moments) {
                *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
                *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *w -= lr * (m_hat / (v_hat.sqrt() + cfg.eps) + wd * *w);
            }
        });
        net.clamp_params();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkBuilder, Param};

    fn one_linear_net() -> Network {
        let mut b = NetworkBuilder::new(1, 1, 0);
        b.flatten();
        b.linear(1);
        b.build()
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        // Bias correction makes the very first Adam step ≈ lr·sign(g).
        let mut net = one_linear_net();
        net.visit_params_mut(|p| {
            p.value.fill(0.0);
            p.grad.fill(3.7);
        });
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            ..AdamConfig::default()
        });
        adam.step(&mut net, 1.0);
        net.visit_params(|p| {
            assert!(
                (p.value.data()[0] + 0.1).abs() < 1e-3,
                "{}",
                p.value.data()[0]
            );
        });
        assert_eq!(adam.steps_taken(), 1);
    }

    #[test]
    fn adapts_to_gradient_scale() {
        // Two parameters with gradients differing by 1000x move by the
        // same magnitude — the defining property of Adam.
        let mut b = NetworkBuilder::new(1, 1, 0);
        b.flatten();
        b.linear(2);
        let mut net = b.build();
        net.visit_params_mut(|p| {
            p.value.fill(0.0);
            let g = p.grad.data_mut();
            g[0] = 0.001;
            g[1] = 1.0;
        });
        let mut adam = Adam::new(AdamConfig {
            lr: 0.01,
            ..AdamConfig::default()
        });
        adam.step(&mut net, 1.0);
        net.visit_params(|p| {
            let d = p.value.data();
            assert!((d[0] - d[1]).abs() < 1e-4, "{} vs {}", d[0], d[1]);
        });
    }

    #[test]
    fn decoupled_weight_decay_respects_flag() {
        let mut net = one_linear_net();
        net.visit_params_mut(|p| {
            p.value.fill(1.0);
            p.grad.fill(0.0);
        });
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.5,
            ..AdamConfig::default()
        });
        adam.step(&mut net, 1.0);
        net.visit_params(|p| {
            if p.decay {
                assert!((p.value.data()[0] - 0.95).abs() < 1e-5);
            } else {
                assert_eq!(p.value.data()[0], 1.0);
            }
        });
    }

    #[test]
    fn clipping_composes() {
        let mut net = one_linear_net();
        net.visit_params_mut(|p| {
            p.value.fill(0.0);
            p.grad.fill(1e9);
        });
        let mut adam = Adam::new(AdamConfig::default()).with_clip(1.0);
        adam.step(&mut net, 1.0);
        net.visit_params(|p| {
            assert!(p.value.data().iter().all(|v| v.is_finite()));
        });
    }

    #[test]
    fn adam_trains_a_quadratic_faster_than_plateauing() {
        // Minimise (w − 2)² via the linear net on constant input 1.
        let mut net = one_linear_net();
        net.visit_params_mut(|p| p.value.fill(-1.0));
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            ..AdamConfig::default()
        });
        for _ in 0..200 {
            // grad of (w-2)^2 is 2(w-2).
            let mut w = 0.0;
            net.visit_params(|p| w = p.value.data()[0]);
            net.visit_params_mut(|p| p.grad.fill(2.0 * (w - 2.0)));
            adam.step(&mut net, 1.0);
            net.zero_grad();
        }
        net.visit_params(|p| {
            assert!(
                (p.value.data()[0] - 2.0).abs() < 0.05,
                "{}",
                p.value.data()[0]
            );
        });
    }

    #[test]
    fn sgd_checkpoint_without_second_moment_loads() {
        // Back-compat: JSON written before the field existed must load.
        let json = r#"{"value":{"shape":[1],"data":[1.0]},"grad":{"shape":[1],"data":[0.0]},"momentum":{"shape":[1],"data":[0.0]},"decay":true}"#;
        let p: Param = serde_json::from_str(json).unwrap();
        assert!(p.second_moment.is_none());
        assert_eq!(p.value.data()[0], 1.0);
    }
}
