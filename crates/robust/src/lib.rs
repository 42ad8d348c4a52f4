//! Inference-time fault resilience for ultra low-latency SNNs.
//!
//! The conversion pipeline answers *"how accurate is a T≤5 SNN?"*; this
//! crate answers *"how accurate does it stay when the deployed hardware
//! misbehaves?"* — the question that matters for the neuromorphic and
//! in-memory-compute substrates the paper's energy model targets (§VI),
//! whose low-voltage operation trades energy for raised bit-error rates.
//!
//! Three pieces:
//!
//! * [`faults`] — deterministic, seeded inference-fault models applied via
//!   the non-invasive [`FaultedNetwork`] wrapper: weight/threshold
//!   bit-flips at a configurable BER, stuck-at-0 / stuck-at-saturated
//!   neurons, per-timestep spike deletion/insertion, threshold drift, and
//!   input corruption. The clean forward path is untouched — an empty
//!   fault config reproduces `SnnNetwork::forward` bit for bit, and every
//!   fault decision is a pure function of *coordinates* (seed, layer,
//!   neuron, time step, global sample index) hashed with
//!   [`ull_tensor::init::mix64`], so faulted runs are bit-identical for
//!   any `ULL_THREADS` setting.
//! * [`watchdog`] — a spike-rate watchdog: profile a per-layer activity
//!   envelope on clean evaluation data, then flag runs whose measured
//!   per-layer spike rates leave the envelope. Silent corruption (bit
//!   flips rarely crash; they just skew activity) becomes a detectable
//!   health signal.
//! * [`anytime`] — deadline-aware graceful degradation: emit a prediction
//!   after `t ≤ T` steps as soon as the running-mean logit margin clears a
//!   calibrated gate, so a latency deadline shortens inference instead of
//!   aborting it.
//!
//! [`sweep`] ties them together into the resilience-sweep harness behind
//! the `resilience_sweep` benchmark binary.
//!
//! # Example
//!
//! ```
//! use ull_nn::models;
//! use ull_robust::{FaultConfig, FaultedNetwork, InferenceFault};
//! use ull_snn::{SnnNetwork, SpikeSpec};
//! use ull_tensor::Tensor;
//!
//! let dnn = models::vgg_micro(10, 8, 0.25, 1);
//! let specs = vec![SpikeSpec::identity(1.0); dnn.threshold_nodes().len()];
//! let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
//!
//! let cfg = FaultConfig::new(7).with(InferenceFault::WeightBitFlip { ber: 1e-3 });
//! let faulted = FaultedNetwork::new(&snn, &cfg);
//! let out = faulted.forward(&Tensor::zeros(&[1, 3, 8, 8]), 2, 0);
//! assert_eq!(out.logits.shape(), &[1, 10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anytime;
pub mod faults;
pub mod sweep;
pub mod watchdog;

pub use anytime::{
    anytime_forward_scheduled, calibrate_margin, calibrate_margin_schedule, AnytimeOutput,
    AnytimeSchedule,
};
pub use faults::{evaluate_faulted, FaultConfig, FaultedNetwork, InferenceFault};
pub use sweep::{resilience_sweep, DnnSweepCell, SweepCell, SweepConfig, SweepReport};
pub use watchdog::{profile_envelope, profile_envelope_batches, RateEnvelope, RateViolation};
