//! DNN→SNN converters: the paper's α/β method and the baselines it is
//! evaluated against.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_nn::Network;
use ull_snn::{SnnError, SnnNetwork, SpikeSpec};
use ull_tensor::stats::percentile_table;

use crate::algorithm1::{scale_layers, LayerScaling};
use crate::analysis::collect_preactivations;

/// Default number of calibration images used to sample pre-activations.
pub const DEFAULT_CALIBRATION_IMAGES: usize = 128;
/// Default cap on pre-activation samples per layer.
pub const DEFAULT_SAMPLES_PER_LAYER: usize = 20_000;

/// The conversion strategies reproduced from the paper and its baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConversionMethod {
    /// Threshold balancing with the trained threshold: `V^th = μ`
    /// (the "threshold ReLU" curve of Fig. 2).
    ThresholdBalance,
    /// `V^th` = the given percentile of the layer's pre-activations —
    /// `100.0` gives the maximum pre-activation `d_max` used by \[15\]
    /// (the "max pre-activation" curve of Fig. 2, worse at low T because
    /// `d_max` is an outlier).
    MaxPreactivation {
        /// Percentile in `[0, 100]`; 100 = `d_max`.
        percentile: f32,
    },
    /// \[15\]'s optimal conversion: `V^th = μ` plus the bias shift
    /// `δ = V^th/2T` (realised as initial membrane charge `V^th/2`).
    BiasShift,
    /// The threshold-scaling heuristics of \[16\]/\[24\]: `V^th = factor ·
    /// d_max` with a hand-picked scale factor (the ablation baseline that
    /// collapses under SGL at T = 2–3).
    ScalingHeuristic {
        /// Hand-picked threshold scale in `(0, 1]`.
        factor: f32,
    },
    /// **The paper's method**: per-layer percentile search for (α, β) via
    /// Algorithm 1; `V^th = α·μ`, spike output `β·V^th`.
    AlphaBeta,
}

/// Error type for conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum ConvertError {
    /// The underlying SNN construction failed.
    Snn(SnnError),
    /// A parameter was out of range.
    BadParameter {
        /// Description of the offending parameter.
        what: &'static str,
    },
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::Snn(e) => write!(f, "snn construction failed: {e}"),
            ConvertError::BadParameter { what } => write!(f, "bad parameter: {what}"),
        }
    }
}

impl Error for ConvertError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConvertError::Snn(e) => Some(e),
            ConvertError::BadParameter { .. } => None,
        }
    }
}

#[doc(hidden)]
impl From<SnnError> for ConvertError {
    fn from(e: SnnError) -> Self {
        ConvertError::Snn(e)
    }
}

/// Converts a trained DNN into an SNN with the chosen method, using
/// `calibration` to sample pre-activation distributions where needed.
///
/// Returns the SNN and the per-layer scaling report (α = β = 1 for
/// methods that do not scale).
///
/// # Errors
///
/// Returns [`ConvertError::BadParameter`] for out-of-range method
/// parameters and [`ConvertError::Snn`] if the DNN contains ops the SNN
/// cannot mirror.
pub fn convert(
    dnn: &Network,
    calibration: &Dataset,
    method: ConversionMethod,
    t: usize,
) -> Result<(SnnNetwork, Vec<LayerScaling>), ConvertError> {
    convert_with_budget(
        dnn,
        calibration,
        method,
        t,
        DEFAULT_CALIBRATION_IMAGES,
        DEFAULT_SAMPLES_PER_LAYER,
    )
}

/// [`convert`] with explicit calibration budgets (images and per-layer
/// sample caps).
///
/// # Errors
///
/// Same as [`convert`].
pub fn convert_with_budget(
    dnn: &Network,
    calibration: &Dataset,
    method: ConversionMethod,
    t: usize,
    max_images: usize,
    max_samples: usize,
) -> Result<(SnnNetwork, Vec<LayerScaling>), ConvertError> {
    if t == 0 {
        return Err(ConvertError::BadParameter {
            what: "t must be at least 1",
        });
    }
    let layers = collect_preactivations(dnn, calibration, max_images, max_samples);
    let (specs, scalings): (Vec<SpikeSpec>, Vec<LayerScaling>) = match method {
        ConversionMethod::ThresholdBalance => layers
            .iter()
            .map(|l| (SpikeSpec::identity(l.mu), identity_scaling(l.node, l.mu)))
            .unzip(),
        ConversionMethod::MaxPreactivation { percentile } => {
            if !(0.0..=100.0).contains(&percentile) {
                return Err(ConvertError::BadParameter {
                    what: "percentile must be in [0, 100]",
                });
            }
            layers
                .iter()
                .map(|l| {
                    let table = percentile_table(&l.samples);
                    let v_th = positive(table[percentile.round() as usize], l.mu);
                    (
                        SpikeSpec::identity(v_th),
                        LayerScaling {
                            node: l.node,
                            mu: l.mu,
                            alpha: v_th / l.mu,
                            beta: 1.0,
                            loss: f32::NAN,
                        },
                    )
                })
                .unzip()
        }
        ConversionMethod::BiasShift => layers
            .iter()
            .map(|l| {
                (
                    SpikeSpec::bias_shifted(l.mu),
                    identity_scaling(l.node, l.mu),
                )
            })
            .unzip(),
        ConversionMethod::ScalingHeuristic { factor } => {
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(ConvertError::BadParameter {
                    what: "scaling factor must be in (0, 1]",
                });
            }
            layers
                .iter()
                .map(|l| {
                    let d_max = l.samples.iter().copied().fold(0.0f32, f32::max);
                    let v_th = positive(factor * d_max, l.mu);
                    (
                        SpikeSpec::identity(v_th),
                        LayerScaling {
                            node: l.node,
                            mu: l.mu,
                            alpha: v_th / l.mu,
                            beta: 1.0,
                            loss: f32::NAN,
                        },
                    )
                })
                .unzip()
        }
        ConversionMethod::AlphaBeta => {
            let scalings = scale_layers(&layers, t);
            let specs = scalings
                .iter()
                .map(|s| SpikeSpec::scaled(s.mu, s.alpha, s.beta))
                .collect::<Vec<_>>();
            (specs, scalings)
        }
    };
    let snn = SnnNetwork::from_network(dnn, &specs)?;
    Ok((snn, scalings))
}

fn identity_scaling(node: usize, mu: f32) -> LayerScaling {
    LayerScaling {
        node,
        mu,
        alpha: 1.0,
        beta: 1.0,
        loss: f32::NAN,
    }
}

/// Guards against degenerate thresholds from empty/early layers.
fn positive(v: f32, fallback: f32) -> f32 {
    if v > 1e-4 {
        v
    } else {
        fallback.max(1e-2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;
    use ull_snn::SnnOp;

    fn setup() -> (Network, Dataset) {
        let cfg = SynthCifarConfig::tiny(3);
        let (train, _) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 5);
        (dnn, train)
    }

    #[test]
    fn threshold_balance_uses_mu() {
        let (dnn, cal) = setup();
        let (snn, scalings) = convert(&dnn, &cal, ConversionMethod::ThresholdBalance, 2).unwrap();
        for (id, s) in snn.spike_nodes().iter().zip(&scalings) {
            if let SnnOp::Spike(layer) = &snn.nodes()[*id].op {
                assert!((layer.v_th.scalar_value() - s.mu).abs() < 1e-6);
                assert_eq!(s.alpha, 1.0);
            }
        }
    }

    #[test]
    fn max_preactivation_threshold_exceeds_mu_scaled_ones() {
        let (dnn, cal) = setup();
        let (snn_max, _) = convert(
            &dnn,
            &cal,
            ConversionMethod::MaxPreactivation { percentile: 100.0 },
            2,
        )
        .unwrap();
        let (snn_ab, _) = convert(&dnn, &cal, ConversionMethod::AlphaBeta, 2).unwrap();
        for (a, b) in snn_max.spike_nodes().iter().zip(snn_ab.spike_nodes()) {
            let va = match &snn_max.nodes()[*a].op {
                SnnOp::Spike(l) => l.v_th.scalar_value(),
                _ => unreachable!(),
            };
            let vb = match &snn_ab.nodes()[b].op {
                SnnOp::Spike(l) => l.v_th.scalar_value(),
                _ => unreachable!(),
            };
            assert!(va >= vb, "d_max threshold {va} should be ≥ αμ {vb}");
        }
    }

    #[test]
    fn bias_shift_sets_initial_charge() {
        let (dnn, cal) = setup();
        let (snn, _) = convert(&dnn, &cal, ConversionMethod::BiasShift, 2).unwrap();
        for id in snn.spike_nodes() {
            if let SnnOp::Spike(layer) = &snn.nodes()[id].op {
                assert!((layer.u_init - layer.v_th.scalar_value() / 2.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn alpha_beta_downscales_thresholds_at_t2() {
        let (dnn, cal) = setup();
        let (_, scalings) = convert(&dnn, &cal, ConversionMethod::AlphaBeta, 2).unwrap();
        // Skewed distributions at T=2 should pull α below 1 in most layers.
        let below = scalings.iter().filter(|s| s.alpha < 0.999).count();
        assert!(
            below * 2 >= scalings.len(),
            "expected most layers to downscale: {scalings:?}"
        );
    }

    #[test]
    fn scaling_heuristic_respects_factor() {
        let (dnn, cal) = setup();
        let (snn1, _) = convert(
            &dnn,
            &cal,
            ConversionMethod::ScalingHeuristic { factor: 1.0 },
            2,
        )
        .unwrap();
        let (snn2, _) = convert(
            &dnn,
            &cal,
            ConversionMethod::ScalingHeuristic { factor: 0.5 },
            2,
        )
        .unwrap();
        for (a, b) in snn1.spike_nodes().iter().zip(snn2.spike_nodes()) {
            let v1 = match &snn1.nodes()[*a].op {
                SnnOp::Spike(l) => l.v_th.scalar_value(),
                _ => unreachable!(),
            };
            let v2 = match &snn2.nodes()[b].op {
                SnnOp::Spike(l) => l.v_th.scalar_value(),
                _ => unreachable!(),
            };
            assert!((v2 - v1 * 0.5).abs() < 1e-5, "{v2} vs half of {v1}");
        }
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let (dnn, cal) = setup();
        assert!(convert(&dnn, &cal, ConversionMethod::AlphaBeta, 0).is_err());
        assert!(convert(
            &dnn,
            &cal,
            ConversionMethod::MaxPreactivation { percentile: 150.0 },
            2
        )
        .is_err());
        assert!(convert(
            &dnn,
            &cal,
            ConversionMethod::ScalingHeuristic { factor: 0.0 },
            2
        )
        .is_err());
    }

    #[test]
    fn alpha_beta_beats_threshold_balance_on_rate_error() {
        // The headline mechanism: at T=2 the α/β-scaled SNN's average
        // outputs track the DNN activations better than plain threshold
        // balancing.
        let (dnn, cal) = setup();
        let t = 2;
        let (snn_tb, _) = convert(&dnn, &cal, ConversionMethod::ThresholdBalance, t).unwrap();
        let (snn_ab, _) = convert(&dnn, &cal, ConversionMethod::AlphaBeta, t).unwrap();
        let batch = cal.batch(&(0..16).collect::<Vec<_>>());
        let dnn_acts = dnn.forward_collect(&batch.images);
        let err_of = |snn: &SnnNetwork| -> f64 {
            let (_, rates) = snn.forward_rates(&batch.images, t);
            let mut total = 0.0f64;
            let mut count = 0usize;
            for (node, _, avg_out) in &rates {
                let dnn_out = &dnn_acts[*node];
                for (d, s) in dnn_out.data().iter().zip(avg_out.data()) {
                    total += (d - s).abs() as f64;
                    count += 1;
                }
            }
            total / count as f64
        };
        let e_tb = err_of(&snn_tb);
        let e_ab = err_of(&snn_ab);
        assert!(
            e_ab < e_tb,
            "alpha/beta rate error {e_ab} not below threshold-balance {e_tb}"
        );
    }
}
