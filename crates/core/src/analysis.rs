//! The conversion-error model of §III-A.
//!
//! The paper derives the expected post-activation gap per layer
//! (Eq. 6/7):
//!
//! `Δ ≈ μ·(K(μ) − h(T,μ))`
//!
//! where `K(μ)` summarises the DNN pre-activation distribution `f_D` and
//! `h(T,μ)` the SNN pre-activation distribution `f_S` folded through the
//! T-step staircase. For uniform distributions both equal ½ and Δ vanishes
//! — but real distributions are sharply skewed toward 0, so `h(T,μ)`
//! collapses for T ≲ 5 while `K(μ)` stays fixed, and the error accumulates
//! layer after layer. This module estimates all of these quantities from
//! samples.

use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_nn::{Network, NodeId};

use crate::activation::{dnn_activation, snn_staircase, StaircaseConfig};

/// Pre-activation samples of one threshold layer of a trained DNN.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerActivations {
    /// Node id of the `ThresholdRelu` in the source network.
    pub node: NodeId,
    /// Trained threshold μ of that layer.
    pub mu: f32,
    /// Sampled pre-activation values (inputs of the threshold node).
    pub samples: Vec<f32>,
}

/// Runs `calibration` through `net` (eval mode) and collects pre-activation
/// samples for every threshold layer. At most `max_images` images are used;
/// per-layer samples are capped at `max_samples_per_layer` by uniform
/// subsampling so VGG-scale layers stay tractable.
///
/// # Panics
///
/// Panics if `calibration` is empty.
pub fn collect_preactivations(
    net: &Network,
    calibration: &Dataset,
    max_images: usize,
    max_samples_per_layer: usize,
) -> Vec<LayerActivations> {
    assert!(!calibration.is_empty(), "calibration set is empty");
    let thresholds = net.threshold_nodes();
    let mut layers: Vec<LayerActivations> = thresholds
        .iter()
        .map(|&id| LayerActivations {
            node: id,
            mu: net.threshold_mu(id),
            samples: Vec::new(),
        })
        .collect();
    let used = calibration.take(max_images.max(1));
    for batch in used.eval_batches(16) {
        let acts = net.forward_collect(&batch.images);
        for layer in &mut layers {
            let pre = &acts[net.nodes()[layer.node].inputs[0]];
            layer.samples.extend_from_slice(pre.data());
        }
    }
    // Deterministic stride subsampling.
    for layer in &mut layers {
        if layer.samples.len() > max_samples_per_layer {
            let stride = layer.samples.len() / max_samples_per_layer;
            layer.samples = layer
                .samples
                .iter()
                .copied()
                .step_by(stride.max(1))
                .take(max_samples_per_layer)
                .collect();
        }
    }
    layers
}

/// Estimates `K(μ)`: the first term of Eq. 6, `∫₀^μ d·f_D(d) ∂d = K(μ)·μ`,
/// so `K(μ) = E[d·1(0 ≤ d ≤ μ)] / μ`.
///
/// Uniform `f_D` on `[0, μ]` gives `K = ½`; skewed-toward-zero
/// distributions give smaller values.
///
/// # Panics
///
/// Panics if `mu <= 0` or `samples` is empty.
pub fn k_mu(samples: &[f32], mu: f32) -> f32 {
    assert!(mu > 0.0, "mu must be positive");
    assert!(!samples.is_empty(), "no samples");
    let mass: f64 = samples
        .iter()
        .filter(|&&d| d >= 0.0 && d <= mu)
        .map(|&d| d as f64)
        .sum();
    (mass / samples.len() as f64 / mu as f64) as f32
}

/// Estimates `h(T,μ)` of Eq. 7 (with the bias shift of \[15\], as in the
/// paper's Fig. 1a insert): the normalised expected SNN output
/// `E[s'] / μ` under the bias-added staircase with `V^th = μ`.
///
/// For a uniform `f_S` on `[0, μ]` this evaluates to ½ for every T; for
/// skewed distributions it *decreases* sharply as T drops below ~5 —
/// the core analytical observation of the paper.
///
/// # Panics
///
/// Panics if `mu <= 0`, `t == 0`, or `samples` is empty.
pub fn h_t_mu(samples: &[f32], t: usize, mu: f32) -> f32 {
    assert!(mu > 0.0, "mu must be positive");
    assert!(t > 0, "need at least one time step");
    assert!(!samples.is_empty(), "no samples");
    let cfg = StaircaseConfig::bias_added(mu, t);
    let mean: f64 = samples
        .iter()
        .map(|&s| snn_staircase(s, &cfg) as f64)
        .sum::<f64>()
        / samples.len() as f64;
    (mean / mu as f64) as f32
}

/// Empirical expected post-activation difference
/// `Δ = E[d'] − E[s']` for a layer, where `d' = clip(d, 0, μ)` and `s'`
/// is the staircase output configured by `stair`.
///
/// With `stair = StaircaseConfig::bias_added(μ, T)` this is the Δ of
/// Eq. 6/7; with `StaircaseConfig::scaled(μ, T, α, β)` it is `Δ_αβ`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn delta_empirical(samples: &[f32], mu: f32, stair: &StaircaseConfig) -> f32 {
    assert!(!samples.is_empty(), "no samples");
    let mut d_mean = 0.0f64;
    let mut s_mean = 0.0f64;
    for &x in samples {
        d_mean += dnn_activation(x, mu) as f64;
        s_mean += snn_staircase(x, stair) as f64;
    }
    ((d_mean - s_mean) / samples.len() as f64) as f32
}

/// Per-layer conversion-error summary across a range of T values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerErrorReport {
    /// Node id of the layer.
    pub node: NodeId,
    /// Trained threshold μ.
    pub mu: f32,
    /// `K(μ)` of the layer's DNN pre-activation distribution.
    pub k: f32,
    /// `(T, h(T,μ), Δ)` triples for each analysed T.
    pub by_t: Vec<(usize, f32, f32)>,
    /// Fraction of pre-activation mass below `μ/3` — the skewness witness
    /// (the paper observes > 99 % of mass below `d_max/3`).
    pub mass_below_third: f32,
}

/// Builds [`LayerErrorReport`]s for every threshold layer over the given T
/// values, using the DNN pre-activation samples as a proxy for both `f_D`
/// and `f_S` (their shapes coincide at conversion because weights are
/// copied; the paper makes the same identification in Fig. 1a).
pub fn layer_error_reports(layers: &[LayerActivations], ts: &[usize]) -> Vec<LayerErrorReport> {
    layers
        .iter()
        .map(|layer| {
            let k = k_mu(&layer.samples, layer.mu);
            let by_t = ts
                .iter()
                .map(|&t| {
                    let h = h_t_mu(&layer.samples, t, layer.mu);
                    let stair = StaircaseConfig::bias_added(layer.mu, t);
                    let delta = delta_empirical(&layer.samples, layer.mu, &stair);
                    (t, h, delta)
                })
                .collect();
            let positives: Vec<f32> = layer.samples.iter().copied().filter(|&v| v > 0.0).collect();
            let mass = if positives.is_empty() {
                0.0
            } else {
                positives.iter().filter(|&&v| v <= layer.mu / 3.0).count() as f32
                    / positives.len() as f32
            };
            LayerErrorReport {
                node: layer.node,
                mu: layer.mu,
                k,
                by_t,
                mass_below_third: mass,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;

    fn uniform_samples(mu: f32, n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 + 0.5) / n as f32 * mu).collect()
    }

    fn skewed_samples(mu: f32, n: usize) -> Vec<f32> {
        // Exponential-like concentration near zero, clipped to [0, mu].
        (0..n)
            .map(|i| {
                let u = (i as f32 + 0.5) / n as f32;
                (-u.ln()) * mu / 8.0
            })
            .map(|v| v.min(mu))
            .collect()
    }

    #[test]
    fn k_is_half_for_uniform() {
        let s = uniform_samples(2.0, 10_000);
        assert!((k_mu(&s, 2.0) - 0.5).abs() < 0.01);
    }

    #[test]
    fn k_is_small_for_skewed() {
        let s = skewed_samples(2.0, 10_000);
        assert!(k_mu(&s, 2.0) < 0.25, "K = {}", k_mu(&s, 2.0));
    }

    #[test]
    fn h_is_half_for_uniform_any_t() {
        let s = uniform_samples(1.0, 40_000);
        for t in [1, 2, 3, 5, 8] {
            let h = h_t_mu(&s, t, 1.0);
            assert!((h - 0.5).abs() < 0.02, "T={t}: h={h}");
        }
    }

    #[test]
    fn h_collapses_for_skewed_at_small_t() {
        // The paper's Fig. 1a insert: h decreases as T shrinks below ~5.
        let s = skewed_samples(1.0, 40_000);
        let h2 = h_t_mu(&s, 2, 1.0);
        let h5 = h_t_mu(&s, 5, 1.0);
        let h16 = h_t_mu(&s, 16, 1.0);
        assert!(h2 < h5 && h5 < h16, "h2={h2} h5={h5} h16={h16}");
        let k = k_mu(&s, 1.0);
        // At large T, h approaches K (Δ → 0); at T=2 it is clearly below.
        assert!((h16 - k).abs() < 0.05, "h16={h16} k={k}");
        assert!(k - h2 > 0.02, "h2={h2} k={k}");
    }

    #[test]
    fn delta_is_zero_for_uniform() {
        let s = uniform_samples(1.0, 40_000);
        for t in [2, 3, 5] {
            let stair = StaircaseConfig::bias_added(1.0, t);
            let d = delta_empirical(&s, 1.0, &stair);
            assert!(d.abs() < 0.01, "T={t}: Δ={d}");
        }
    }

    #[test]
    fn delta_grows_as_t_shrinks_for_skewed() {
        let s = skewed_samples(1.0, 40_000);
        let d = |t| {
            let stair = StaircaseConfig::bias_added(1.0, t);
            delta_empirical(&s, 1.0, &stair)
        };
        assert!(d(2) > d(5), "Δ2={} Δ5={}", d(2), d(5));
        assert!(d(5) > d(16), "Δ5={} Δ16={}", d(5), d(16));
        assert!(d(2) > 0.02);
    }

    #[test]
    fn delta_relation_matches_eq7() {
        // Δ ≈ μ(K − h) must hold by construction of the estimators.
        let s = skewed_samples(1.5, 20_000);
        let mu = 1.5;
        let t = 3;
        let k = k_mu(&s, mu);
        let h = h_t_mu(&s, t, mu);
        let stair = StaircaseConfig::bias_added(mu, t);
        let d = delta_empirical(&s, mu, &stair);
        // The estimators differ only by the d > μ tail, which the clipped
        // skewed sample makes negligible-but-nonzero.
        assert!(
            (d - mu * (k - h)).abs() < 0.05,
            "Δ={d} vs μ(K−h)={}",
            mu * (k - h)
        );
    }

    #[test]
    fn collect_preactivations_from_real_network() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train, _) = generate(&cfg);
        let net = models::vgg_micro(3, cfg.image_size, 0.25, 1);
        let layers = collect_preactivations(&net, &train, 16, 5_000);
        assert_eq!(layers.len(), net.threshold_nodes().len());
        for l in &layers {
            assert!(!l.samples.is_empty());
            assert!(l.samples.len() <= 5_000);
            assert!(l.mu > 0.0);
        }
    }

    #[test]
    fn real_network_preactivations_are_skewed() {
        // Even an untrained conv net on natural-statistics images has
        // pre-activations concentrated near 0 relative to their max.
        let cfg = SynthCifarConfig::tiny(3);
        let (train, _) = generate(&cfg);
        let net = models::vgg_micro(3, cfg.image_size, 0.5, 2);
        let layers = collect_preactivations(&net, &train, 32, 20_000);
        let deep = &layers[layers.len() - 2];
        let positives: Vec<f32> = deep.samples.iter().copied().filter(|&v| v > 0.0).collect();
        let max = positives.iter().copied().fold(0.0f32, f32::max);
        let below_third =
            positives.iter().filter(|&&v| v <= max / 3.0).count() as f32 / positives.len() as f32;
        assert!(
            below_third > 0.6,
            "expected skew: {below_third} of mass below max/3"
        );
    }

    #[test]
    fn error_reports_cover_requested_ts() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train, _) = generate(&cfg);
        let net = models::vgg_micro(3, cfg.image_size, 0.25, 3);
        let layers = collect_preactivations(&net, &train, 8, 2_000);
        let reports = layer_error_reports(&layers, &[2, 3, 5]);
        assert_eq!(reports.len(), layers.len());
        for r in &reports {
            assert_eq!(r.by_t.len(), 3);
            assert!((0.0..=1.0).contains(&r.k));
            assert!((0.0..=1.0).contains(&r.mass_below_third));
        }
    }
}
