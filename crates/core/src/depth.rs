//! Layer-depth error accumulation (§III-A's closing observation).
//!
//! The paper notes that the per-layer gap Δ "accumulates over the
//! network": early-layer rate errors change the inputs of later layers,
//! compounding the mismatch. This module measures that directly by
//! comparing, per spiking layer, the SNN's average output against the DNN
//! activation it should approximate, on the same batch.

use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_nn::{Network, NodeId};
use ull_snn::SnnNetwork;

/// Per-layer rate error of a converted SNN against its source DNN.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DepthErrorReport {
    /// Time steps of the measurement.
    pub t: usize,
    /// For each spiking layer in forward order: `(node id, mean |error|,
    /// mean |dnn activation|)`.
    pub layers: Vec<(NodeId, f32, f32)>,
}

impl DepthErrorReport {
    /// The relative error per layer (`mean |err| / mean |act|`), the
    /// quantity that grows with depth when conversion degrades.
    pub(crate) fn relative_errors(&self) -> Vec<f32> {
        self.layers
            .iter()
            .map(|&(_, err, act)| if act > 1e-9 { err / act } else { 0.0 })
            .collect()
    }
}

/// Measures per-layer rate error of `snn` against `dnn` on up to
/// `max_images` calibration images at `t` time steps.
///
/// Both networks must share topology (node ids), which
/// [`ull_snn::SnnNetwork::from_network`] guarantees.
///
/// # Panics
///
/// Panics if `calibration` is empty or the networks disagree structurally.
pub(crate) fn depth_error_report(
    dnn: &Network,
    snn: &SnnNetwork,
    calibration: &Dataset,
    t: usize,
    max_images: usize,
) -> DepthErrorReport {
    assert!(!calibration.is_empty(), "calibration set is empty");
    assert_eq!(
        dnn.nodes().len(),
        snn.nodes().len(),
        "networks do not share topology"
    );
    let n = max_images.max(1).min(calibration.len());
    let batch = calibration.batch(&(0..n).collect::<Vec<_>>());
    let dnn_acts = dnn.forward_collect(&batch.images);
    let (_, rates) = snn.forward_rates(&batch.images, t);
    let layers = rates
        .into_iter()
        .map(|(node, _avg_in, avg_out)| {
            let target = &dnn_acts[node];
            let mut err = 0.0f64;
            let mut mag = 0.0f64;
            for (d, s) in target.data().iter().zip(avg_out.data()) {
                err += (d - s).abs() as f64;
                mag += d.abs() as f64;
            }
            let len = target.len().max(1) as f64;
            (node, (err / len) as f32, (mag / len) as f32)
        })
        .collect();
    DepthErrorReport { t, layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{convert, ConversionMethod};
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;

    fn setup() -> (Network, Dataset) {
        let cfg = SynthCifarConfig::tiny(3);
        let (train, _) = generate(&cfg);
        (models::vgg_micro(3, cfg.image_size, 0.5, 9), train)
    }

    #[test]
    fn report_covers_every_spiking_layer() {
        let (dnn, cal) = setup();
        let (snn, _) = convert(&dnn, &cal, ConversionMethod::ThresholdBalance, 2).unwrap();
        let rep = depth_error_report(&dnn, &snn, &cal, 2, 8);
        assert_eq!(rep.layers.len(), dnn.threshold_nodes().len());
        assert!(rep
            .layers
            .iter()
            .all(|&(_, e, _)| e.is_finite() && e >= 0.0));
    }

    #[test]
    fn error_shrinks_with_more_steps() {
        let (dnn, cal) = setup();
        let (snn, _) = convert(&dnn, &cal, ConversionMethod::ThresholdBalance, 2).unwrap();
        let mean_err = |t: usize| -> f32 {
            let rep = depth_error_report(&dnn, &snn, &cal, t, 8);
            let rel = rep.relative_errors();
            rel.iter().sum::<f32>() / rel.len() as f32
        };
        assert!(
            mean_err(64) < mean_err(2),
            "T=64 err {} !< T=2 err {}",
            mean_err(64),
            mean_err(2)
        );
    }

    #[test]
    fn deep_layers_accumulate_more_error_at_low_t() {
        // §III-A: the error compounds with depth at ultra-low latency.
        let (dnn, cal) = setup();
        let (snn, _) = convert(&dnn, &cal, ConversionMethod::ThresholdBalance, 2).unwrap();
        let rep = depth_error_report(&dnn, &snn, &cal, 2, 16);
        let rel = rep.relative_errors();
        assert!(
            rel[0] > 1e-9 && rel[rel.len() - 1] > rel[0],
            "expected error growth with depth: {rel:?}"
        );
    }

    #[test]
    fn alpha_beta_reduces_depth_error() {
        let (dnn, cal) = setup();
        let (snn_tb, _) = convert(&dnn, &cal, ConversionMethod::ThresholdBalance, 2).unwrap();
        let (snn_ab, _) = convert(&dnn, &cal, ConversionMethod::AlphaBeta, 2).unwrap();
        let last_rel = |snn: &SnnNetwork| -> f32 {
            *depth_error_report(&dnn, snn, &cal, 2, 16)
                .relative_errors()
                .last()
                .unwrap()
        };
        assert!(
            last_rel(&snn_ab) < last_rel(&snn_tb),
            "alpha/beta should reduce the deepest layer's rate error"
        );
    }
}
