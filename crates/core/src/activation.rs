//! Closed-form activation functions of Fig. 1.
//!
//! The DNN side is the threshold ReLU of Eq. 1; the SNN side is the
//! staircase of Eq. 5, optionally bias-shifted by `δ = V^th/2T` (\[15\]) and
//! α/β-scaled (the paper's proposal, Fig. 1b).

use serde::{Deserialize, Serialize};

/// The DNN activation of Eq. 1: `clip(d, 0, μ)`.
///
/// # Example
///
/// ```
/// assert_eq!(ull_core::dnn_activation(0.4, 1.0), 0.4);
/// assert_eq!(ull_core::dnn_activation(-1.0, 1.0), 0.0);
/// assert_eq!(ull_core::dnn_activation(5.0, 1.0), 1.0);
/// ```
pub fn dnn_activation(d: f32, mu: f32) -> f32 {
    d.clamp(0.0, mu)
}

/// Parameters of the SNN average-output staircase (Eq. 5 with the paper's
/// extensions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaircaseConfig {
    /// Firing threshold `V^th`.
    pub v_th: f32,
    /// Number of time steps T.
    pub t: usize,
    /// Left shift of the curve (the bias `δ`; \[15\] uses `V^th/2T`).
    pub bias: f32,
    /// Output-height scale β (Eq. 8; 1.0 for plain IF).
    pub beta: f32,
}

impl StaircaseConfig {
    /// Plain IF staircase (Eq. 5).
    pub fn plain(v_th: f32, t: usize) -> Self {
        StaircaseConfig {
            v_th,
            t,
            bias: 0.0,
            beta: 1.0,
        }
    }

    /// Bias-added staircase of \[15\]: left shift by `δ = V^th/2T`.
    pub fn bias_added(v_th: f32, t: usize) -> Self {
        StaircaseConfig {
            v_th,
            t,
            bias: v_th / (2.0 * t as f32),
            beta: 1.0,
        }
    }

    /// The paper's scaled staircase: threshold `α·μ`, output height ×β.
    pub fn scaled(mu: f32, t: usize, alpha: f32, beta: f32) -> Self {
        StaircaseConfig {
            v_th: alpha * mu,
            t,
            bias: 0.0,
            beta,
        }
    }
}

/// The SNN average post-activation (Eq. 5, extended):
///
/// `s' = β·(V^th/T)·clip(⌊(s + δ)·T/V^th⌋, 0, T)`
///
/// where `s` is the average input current per step.
///
/// # Panics
///
/// Panics if `cfg.t == 0` or `cfg.v_th <= 0`.
///
/// # Example
///
/// ```
/// use ull_core::{snn_staircase, StaircaseConfig};
///
/// let cfg = StaircaseConfig::plain(1.0, 2);
/// assert_eq!(snn_staircase(0.4, &cfg), 0.0);  // below first step
/// assert_eq!(snn_staircase(0.6, &cfg), 0.5);  // one spike in two steps
/// assert_eq!(snn_staircase(1.7, &cfg), 1.0);  // saturated
/// ```
pub fn snn_staircase(s: f32, cfg: &StaircaseConfig) -> f32 {
    assert!(cfg.t > 0, "staircase needs at least one time step");
    assert!(cfg.v_th > 0.0, "staircase threshold must be positive");
    let t = cfg.t as f32;
    let steps = ((s + cfg.bias) * t / cfg.v_th).floor().clamp(0.0, t);
    cfg.beta * cfg.v_th / t * steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staircase_is_monotone_nondecreasing() {
        let cfg = StaircaseConfig::plain(1.0, 4);
        let mut prev = -1.0;
        for i in 0..200 {
            let s = -0.5 + i as f32 * 0.02;
            let y = snn_staircase(s, &cfg);
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn staircase_has_t_plus_one_levels() {
        let cfg = StaircaseConfig::plain(1.0, 3);
        let mut levels = std::collections::BTreeSet::new();
        for i in 0..=400 {
            let s = i as f32 * 0.005;
            levels.insert((snn_staircase(s, &cfg) * 1000.0).round() as i64);
        }
        assert_eq!(levels.len(), 4); // 0, 1/3, 2/3, 1
    }

    #[test]
    fn bias_shift_moves_curve_left() {
        let plain = StaircaseConfig::plain(1.0, 2);
        let biased = StaircaseConfig::bias_added(1.0, 2);
        // At s slightly below the first plain step (0.5), the biased curve
        // has already stepped.
        assert_eq!(snn_staircase(0.3, &plain), 0.0);
        assert_eq!(snn_staircase(0.3, &biased), 0.5);
        // Exactly the δ = V/2T = 0.25 shift.
        for i in 0..100 {
            let s = i as f32 * 0.02;
            assert_eq!(snn_staircase(s, &biased), snn_staircase(s + 0.25, &plain));
        }
    }

    #[test]
    fn beta_scales_heights_only() {
        let cfg1 = StaircaseConfig::plain(1.0, 4);
        let cfg2 = StaircaseConfig { beta: 1.5, ..cfg1 };
        for i in 0..100 {
            let s = i as f32 * 0.02;
            assert!((snn_staircase(s, &cfg2) - 1.5 * snn_staircase(s, &cfg1)).abs() < 1e-6);
        }
    }

    #[test]
    fn alpha_scales_step_positions() {
        // Scaling the threshold by α halves the x-position of every step.
        let full = StaircaseConfig::scaled(1.0, 2, 1.0, 1.0);
        let half = StaircaseConfig::scaled(1.0, 2, 0.5, 1.0);
        // First step of `half` occurs at s = 0.25 instead of 0.5.
        assert_eq!(snn_staircase(0.3, &half), 0.25);
        assert_eq!(snn_staircase(0.3, &full), 0.0);
    }

    #[test]
    fn staircase_matches_if_simulation() {
        // Eq. 5 must equal an actual IF neuron simulation with constant
        // input current.
        let v_th = 0.8;
        let t_steps = 5;
        let cfg = StaircaseConfig::plain(v_th, t_steps);
        for i in 0..60 {
            let s = i as f32 * 0.0317 + 0.003;
            // Skip values on a staircase boundary, where floating-point
            // accumulation order legitimately decides the step.
            let pos = s * t_steps as f32 / v_th;
            if (pos - pos.round()).abs() < 1e-3 {
                continue;
            }
            // Simulate.
            let mut u = 0.0f32;
            let mut total = 0.0f32;
            for _ in 0..t_steps {
                u += s;
                if u > v_th {
                    total += v_th;
                    u -= v_th;
                }
            }
            let sim = total / t_steps as f32;
            let formula = snn_staircase(s, &cfg);
            assert!(
                (sim - formula).abs() < 1e-5,
                "s={s}: sim {sim} vs formula {formula}"
            );
        }
    }

    #[test]
    fn dnn_activation_clips_both_sides() {
        assert_eq!(dnn_activation(-0.1, 2.0), 0.0);
        assert_eq!(dnn_activation(1.0, 2.0), 1.0);
        assert_eq!(dnn_activation(3.0, 2.0), 2.0);
    }
}
