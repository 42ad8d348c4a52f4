//! Facade crate for the ultra low-latency DNN→SNN conversion workspace
//! (Datta & Beerel, DATE 2022, reproduced in pure Rust).
//!
//! Re-exports every `ull-*` crate under a stable module name and bundles
//! the items the examples and downstream users touch most into
//! [`prelude`]:
//!
//! ```no_run
//! use ultralow_snn::prelude::*;
//!
//! let cfg = SynthCifarConfig::tiny(10);
//! let (train, test) = generate(&cfg);
//! let mut dnn = models::vgg_micro(cfg.classes, cfg.image_size, 0.5, 42);
//! let mut rng = seeded_rng(7);
//! let (report, _snn) =
//!     run_pipeline(&mut dnn, &train, &test, &PipelineConfig::small(2), &mut rng).unwrap();
//! println!("converted accuracy: {:.2} %", report.converted_accuracy * 100.0);
//! ```

pub use ull_core as core;
pub use ull_data as data;
pub use ull_energy as energy;
pub use ull_grad as grad;
pub use ull_nn as nn;
pub use ull_obs as obs;
pub use ull_robust as robust;
pub use ull_serve as serve;
pub use ull_snn as snn;
pub use ull_tensor as tensor;

/// The items most programs need: tensors, data generation, DNN training,
/// conversion (Algorithm 1 and baselines), SNN simulation, and energy
/// accounting.
pub mod prelude {
    pub use ull_core::{
        collect_preactivations, compute_loss, convert, convert_with_budget, delta_empirical,
        dnn_activation, find_scaling_factors, h_t_mu, k_mu, layer_error_reports,
        run_or_resume_pipeline, run_pipeline, scale_layers, snn_staircase, ConversionMethod,
        ConversionSummary, ConvertError, FaultKind, FaultPlan, LayerActivations, LayerScaling,
        PipelineConfig, PipelineError, PipelinePhase, PipelineReport, StaircaseConfig,
    };
    pub use ull_data::{generate, Batch, BatchIter, Dataset, SynthCifarConfig};
    pub use ull_energy::{
        audit_dnn, audit_snn, ComparisonRow, DnnAudit, EnergyModel, NeuromorphicModel, SnnAudit,
    };
    pub use ull_nn::{
        cross_entropy_grad, cross_entropy_loss, evaluate, models, train_epoch, LrSchedule, Network,
        NetworkBuilder, Sgd, SgdConfig, TrainConfig,
    };
    pub use ull_obs::MetricsSnapshot;
    pub use ull_robust::{
        anytime_forward_scheduled, calibrate_margin, evaluate_faulted, profile_envelope,
        resilience_sweep, AnytimeSchedule, FaultConfig, FaultedNetwork, InferenceFault,
        RateEnvelope, SweepConfig,
    };
    pub use ull_snn::{
        evaluate_snn, train_snn_epoch, ActivityReport, InputEncoding, SnnNetwork, SnnTrainConfig,
        SpikeSpec, SpikeStats,
    };
    pub use ull_tensor::init::seeded_rng;
    pub use ull_tensor::Tensor;
}
