//! Ultra low-latency DNN→SNN conversion — the primary contribution of
//! *"Can Deep Neural Networks be Converted to Ultra Low-Latency Spiking
//! Neural Networks?"* (Datta & Beerel, DATE 2022).
//!
//! The crate has four parts:
//!
//! * [`activation`] — the closed-form DNN (threshold ReLU) and SNN
//!   (staircase, Eq. 5) activation functions, in original, bias-shifted and
//!   α/β-scaled forms (Fig. 1a/1b).
//! * [`analysis`] — the empirical error model of §III-A: collection of
//!   pre-activation distributions from a trained DNN, the `K(μ)` and
//!   `h(T,μ)` statistics of Eq. 6/7, and the expected post-activation gap
//!   `Δ`, explaining *why* conversion fails for T ≤ 5 when distributions
//!   are skewed.
//! * [`algorithm1`] — the paper's Algorithm 1: a percentile-driven search
//!   over threshold scale α and output scale β minimising the empirical
//!   post-activation difference per layer.
//! * [`convert`](mod@convert) / [`pipeline`] — converters (the paper's method plus the
//!   baselines it compares against: threshold balancing, max
//!   pre-activation \[15\], bias shift \[15\], and the scaling heuristics of
//!   \[16\]/\[24\]) and the full hybrid pipeline *train DNN → convert → SGL
//!   fine-tune* that produces Table I.
//!
//! # Example
//!
//! ```
//! use ull_core::{convert, ConversionMethod};
//! use ull_data::{generate, SynthCifarConfig};
//! use ull_nn::models;
//!
//! let cfg = SynthCifarConfig::tiny(4);
//! let (train, _) = generate(&cfg);
//! let dnn = models::vgg_micro(4, cfg.image_size, 0.25, 1);
//! let t = 2;
//! let (snn, scalings) = convert(&dnn, &train, ConversionMethod::AlphaBeta, t)?;
//! assert_eq!(scalings.len(), dnn.threshold_nodes().len());
//! assert_eq!(snn.spike_nodes().len(), scalings.len());
//! # Ok::<(), ull_core::ConvertError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod algorithm1;
pub mod analysis;
pub mod convert;
mod depth;
pub mod faults;
pub mod pipeline;
pub mod recovery;
pub mod summary;

pub use activation::{dnn_activation, snn_staircase, StaircaseConfig};
pub use algorithm1::scale_layers;
pub use algorithm1::{beta_grid, beta_losses, compute_loss, find_scaling_factors, LayerScaling};
pub use analysis::{
    collect_preactivations, delta_empirical, h_t_mu, k_mu, layer_error_reports, LayerActivations,
    LayerErrorReport,
};
pub use convert::convert_with_budget;
pub use convert::{convert, ConversionMethod, ConvertError};
pub use faults::{FaultKind, FaultPlan, FaultPoint, RecurringFault, Trigger};
pub use pipeline::{dnn_recipe, run_pipeline, sgl_recipe, PipelineConfig, PipelineReport};
pub use recovery::{
    run_or_resume_pipeline, PipelineCheckpoint, PipelineError, PipelinePhase, RecoveryEvent,
};
pub use summary::ConversionSummary;
pub use ull_obs::MetricsSnapshot;
