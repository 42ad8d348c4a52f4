//! Spiking neural network simulation and surrogate-gradient training.
//!
//! Implements the paper's SNN model (§II-A, Eq. 2–4 and Eq. 8):
//!
//! * **LIF/IF neurons** with soft reset: `U(t) = λ·U(t−1) + I(t) − V^th·s(t)`
//!   where a spike `s(t) = 1` fires when the temporary membrane potential
//!   crosses `V^th`. `λ = 1` gives the IF neuron used for conversion.
//! * **β-scaled outputs** (Eq. 8): a spike transmits magnitude `β·V^th`
//!   instead of `V^th`. The magnitude is carried by the spike value in the
//!   simulator (`amp` field); [`SnnNetwork::fold_amplitudes`] demonstrates
//!   the paper's weight-absorption trick on chain topologies.
//! * **Direct input encoding** (§I): the analog image is presented to the
//!   first layer at every time step; only subsequent layers communicate via
//!   spikes.
//! * **Surrogate-gradient learning (SGL)** over the unrolled T steps
//!   ([`train_snn_epoch`]): BPTT with a boxcar surrogate `∂s/∂u ≈ 1/(2V^th)` on
//!   `0 ≤ u ≤ 2V^th` and detached reset, jointly training weights,
//!   thresholds and leaks as in \[7\] (Rathi et al., DIET-SNN).
//!
//! Inference and training share one step loop over the packed kernels:
//! [`SnnNetwork::forward_train`] runs the same step as
//! [`SnnNetwork::forward`] and additionally records the BPTT tape (every
//! activation, the membranes, maxpool argmax and dropout masks). The tape
//! exposes its exact memory footprint, which is what Fig. 3 of the paper
//! measures: BPTT memory and time scale linearly with T, which is why 2–3
//! step SNNs are so much cheaper to train than 5-step ones.
//!
//! # Example
//!
//! ```
//! use ull_nn::models;
//! use ull_snn::{SnnNetwork, SpikeSpec};
//! use ull_tensor::Tensor;
//!
//! let dnn = models::vgg_micro(10, 8, 0.25, 1);
//! // One spec per ThresholdReLU layer: threshold, output amplitude, leak.
//! let specs = vec![SpikeSpec::identity(1.0); dnn.threshold_nodes().len()];
//! let snn = SnnNetwork::from_network(&dnn, &specs).expect("convertible");
//! let out = snn.forward(&Tensor::zeros(&[1, 3, 8, 8]), 2);
//! assert_eq!(out.logits.shape(), &[1, 10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoding;
mod network;
pub mod packing;
mod stats;
mod train;

pub use encoding::InputEncoding;
pub use network::{
    SnnError, SnnNetwork, SnnNode, SnnOp, SnnOutput, SnnTape, SpikeLayer, SpikeSpec, StepTamper,
    MAX_V_TH, MEMBRANE_CLAMP,
};
pub use packing::{net_fingerprint, packed_for, PackedNet};
pub use stats::{ActivityReport, SpikeStats};
pub use train::{
    evaluate_snn, train_snn_epoch, train_snn_epoch_with_hook, SnnEpochStats, SnnSgd, SnnTrainConfig,
};
