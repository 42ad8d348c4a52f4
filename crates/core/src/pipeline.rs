//! The full hybrid pipeline of the paper: DNN training → DNN→SNN
//! conversion → surrogate-gradient (SGL) fine-tuning.
//!
//! [`run_pipeline`] produces the three accuracy columns of Table I for one
//! (architecture, dataset, T) cell: (a) source DNN accuracy, (b) accuracy
//! right after conversion, and (c) accuracy after SGL fine-tuning. It runs
//! the one pipeline driver, the one in [`crate::recovery`], without a
//! checkpoint directory; this module holds the run's configuration, the
//! two training recipes ([`dnn_recipe`], [`sgl_recipe`]) and the report.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_nn::{LrSchedule, Network, Sgd, SgdConfig, TrainConfig};
use ull_snn::{SnnNetwork, SnnTrainConfig};

use crate::recovery::PipelineError;
use crate::LayerScaling;

/// Mini-batch size of both training phases.
const BATCH_SIZE: usize = 32;

/// Global gradient-norm clip of both training phases.
const MAX_GRAD_NORM: f32 = 5.0;

/// Phase (a)'s optimizer (paper: LR 0.01, step decay).
const DNN_SGD: SgdConfig = SgdConfig {
    lr: 0.05,
    momentum: 0.9,
    weight_decay: 1e-4,
};

/// Phase (c)'s optimizer. The paper fine-tunes with a much smaller LR
/// (1e-4 at paper scale); scaled up proportionally to the shorter
/// schedule.
const SGL_SGD: SgdConfig = SgdConfig {
    lr: 0.005,
    momentum: 0.9,
    weight_decay: 0.0,
};

/// The DNN training recipe for a run of `epochs` epochs: SGD with
/// momentum and gradient clipping, the paper's step decay after a linear
/// warmup over a tenth of the run, batch 32, no augmentation. Warmup and
/// clipping stabilise batch-norm-free deep nets.
pub fn dnn_recipe(epochs: usize) -> (Sgd, LrSchedule, TrainConfig) {
    let tcfg = TrainConfig {
        batch_size: BATCH_SIZE,
        augment_pad: 0,
        augment_flip: false,
    };
    let schedule = LrSchedule::paper(epochs).with_warmup(epochs / 10);
    (Sgd::new(DNN_SGD).with_clip(MAX_GRAD_NORM), schedule, tcfg)
}

/// The SGL fine-tuning recipe for a run of `epochs` epochs at `t` time
/// steps: SGD with momentum and gradient clipping, the paper's step
/// decay, batch 32, no augmentation.
pub fn sgl_recipe(epochs: usize, t: usize) -> (Sgd, LrSchedule, SnnTrainConfig) {
    let stcfg = SnnTrainConfig {
        batch_size: BATCH_SIZE,
        time_steps: t,
        augment_pad: 0,
        augment_flip: false,
    };
    let schedule = LrSchedule::paper(epochs);
    (Sgd::new(SGL_SGD).with_clip(MAX_GRAD_NORM), schedule, stcfg)
}

/// Configuration of one end-to-end pipeline run. Everything else — the
/// α/β conversion and the two training recipes ([`dnn_recipe`],
/// [`sgl_recipe`]) — is fixed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// DNN training epochs (paper: 300; scale down for CPU budgets).
    pub dnn_epochs: usize,
    /// SGL fine-tuning epochs (paper: 200–300).
    pub snn_epochs: usize,
    /// SNN time steps T.
    pub time_steps: usize,
}

impl PipelineConfig {
    /// A CPU-budget configuration at the given T.
    pub fn small(time_steps: usize) -> Self {
        PipelineConfig {
            dnn_epochs: 12,
            snn_epochs: 8,
            time_steps,
        }
    }
}

/// Result of one pipeline run — one row group of Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    /// (a) Source DNN test accuracy.
    pub dnn_accuracy: f32,
    /// (b) Test accuracy immediately after DNN→SNN conversion.
    pub converted_accuracy: f32,
    /// (c) Test accuracy after SGL fine-tuning.
    pub snn_accuracy: f32,
    /// Per-layer conversion scalings (α, β).
    pub scalings: Vec<LayerScaling>,
    /// Wall-clock seconds spent training the DNN.
    pub dnn_seconds: f64,
    /// Wall-clock seconds spent fine-tuning the SNN.
    pub snn_seconds: f64,
    /// Time steps used.
    pub time_steps: usize,
    /// Recovery actions taken during the run (rollbacks, retries) — empty
    /// for healthy runs.
    /// Defaults to empty when reading reports written by older versions.
    #[serde(default)]
    pub recovery_events: Vec<String>,
    /// Observability snapshot (span timings, spike/MAC counters) taken at
    /// the end of the run. `None` unless `ull-obs` was enabled
    /// (`ULL_TRACE`/`ULL_METRICS`); absent in reports from older versions.
    #[serde(default)]
    pub metrics: Option<ull_obs::MetricsSnapshot>,
}

/// Trains the DNN, converts it, fine-tunes the SNN, and reports the three
/// Table-I accuracies. The trained networks are returned for further
/// analysis (energy audits, spike statistics).
///
/// This is the pipeline driver of [`crate::recovery`] without a checkpoint
/// directory: it commits the run state to memory every epoch, and a NaN/Inf
/// or exploding loss rolls back to the last commit at half the learning
/// rate (up to three times per run), as logged in
/// [`PipelineReport::recovery_events`]. A healthy run trains exactly
/// as an unchecked loop would.
///
/// # Errors
///
/// [`PipelineError::Convert`] from the conversion stage;
/// [`PipelineError::Train`] once the retry budget is spent.
pub fn run_pipeline(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    rng: &mut StdRng,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    crate::recovery::run_in_memory(dnn, train_data, test_data, cfg, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;
    use ull_tensor::init::seeded_rng;

    #[test]
    fn pipeline_reproduces_table1_shape() {
        // The Table I pattern on a tiny instance: converted accuracy at
        // T=2 collapses well below the DNN; SGL recovers most of the gap.
        let cfg = SynthCifarConfig::tiny(4);
        let (train, test) = generate(&cfg);
        let mut dnn = models::vgg_micro(4, cfg.image_size, 0.5, 11);
        let mut pcfg = PipelineConfig::small(2);
        pcfg.dnn_epochs = 10;
        pcfg.snn_epochs = 6;
        let mut rng = seeded_rng(12);
        let (report, snn) = run_pipeline(&mut dnn, &train, &test, &pcfg, &mut rng).unwrap();
        assert!(
            report.dnn_accuracy > 0.5,
            "DNN failed to learn: {}",
            report.dnn_accuracy
        );
        assert!(
            report.snn_accuracy >= report.converted_accuracy,
            "SGL made things worse: {} -> {}",
            report.converted_accuracy,
            report.snn_accuracy
        );
        assert!(
            report.snn_accuracy > 0.3,
            "final SNN at chance: {}",
            report.snn_accuracy
        );
        assert_eq!(snn.spike_nodes().len(), report.scalings.len());
        assert!(report.dnn_seconds > 0.0 && report.snn_seconds > 0.0);
    }
}
