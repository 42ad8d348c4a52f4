//! Deterministic, seeded inference-fault models.
//!
//! Every fault decision is a pure function of the configuration seed and
//! the fault's *coordinates* — layer id, flat element index, bit position,
//! time step, global sample index — hashed with
//! [`ull_tensor::init::mix64`]. Nothing depends on evaluation order, batch
//! chunking or thread count, so a faulted run is bit-identical for any
//! `ULL_THREADS` setting and any batch split, and two [`FaultedNetwork`]s
//! built from the same clean network and config are identical.
//!
//! Faults come in two kinds:
//!
//! * **static** (weight/threshold bit-flips, threshold drift) — applied
//!   once to a private copy of the network at [`FaultedNetwork::new`];
//! * **dynamic** (stuck-at neurons, spike deletion/insertion, input
//!   noise) — applied per time step through the [`ull_snn::StepTamper`]
//!   seam, or to the input batch before encoding.
//!
//! The clean network is never modified, and with an empty fault list the
//! wrapper forwards through the untouched clean path — byte-identical
//! output, asserted by this module's tests.

use serde::{Deserialize, Serialize};
use ull_nn::NodeId;
use ull_snn::{SnnNetwork, SnnOp, SnnOutput, SpikeStats, StepTamper};
use ull_tensor::init::{mix64, unit_f32};
use ull_tensor::Tensor;

// Domain-separation salts: the first word fed to `mix64` so the same
// (node, element) coordinates never collide across fault families.
const SALT_WEIGHT: u64 = 0x57_45_49_47_48_54; // "WEIGHT"
const SALT_THRESH: u64 = 0x54_48_52_45_53_48; // "THRESH"
const SALT_DRIFT: u64 = 0x44_52_49_46_54; // "DRIFT"
const SALT_STUCK0: u64 = 0x53_54_55_43_4b_30; // "STUCK0"
const SALT_STUCK1: u64 = 0x53_54_55_43_4b_31; // "STUCK1"
const SALT_DELETE: u64 = 0x44_45_4c_45_54_45; // "DELETE"
const SALT_INSERT: u64 = 0x49_4e_53_45_52_54; // "INSERT"
const SALT_INPUT: u64 = 0x49_4e_50_55_54; // "INPUT"

/// One hardware-fault model applied during inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InferenceFault {
    /// Flip each bit of every conv/linear weight independently with
    /// probability `ber` (the raw bit-error rate of the weight memory).
    /// Exponent-bit flips can produce huge or non-finite weights; the
    /// simulator's membrane sanitisation keeps the run alive.
    WeightBitFlip {
        /// Per-bit flip probability.
        ber: f64,
    },
    /// Flip each bit of every firing threshold `V^th` with probability
    /// `ber` — thresholds live in the same faulty memory as weights.
    ThresholdBitFlip {
        /// Per-bit flip probability.
        ber: f64,
    },
    /// Analog threshold drift: each layer's `V^th` is scaled by a seeded
    /// factor in `[1 − drift, 1 + drift]` (models temperature/ageing
    /// variation in analog neuron circuits).
    ThresholdDrift {
        /// Maximum relative drift magnitude.
        drift: f32,
    },
    /// Each neuron is permanently stuck silent with probability `rate`
    /// (dead circuit: its spikes never leave the layer).
    StuckAtZero {
        /// Per-neuron stuck probability.
        rate: f64,
    },
    /// Each neuron is permanently stuck firing with probability `rate`
    /// (shorted circuit: it emits a full-amplitude spike every step).
    StuckAtSaturated {
        /// Per-neuron stuck probability.
        rate: f64,
    },
    /// Each transmitted spike is dropped independently with probability
    /// `rate` (lossy spike fabric / packet drops).
    SpikeDelete {
        /// Per-spike drop probability.
        rate: f64,
    },
    /// Each silent (neuron, step) slot emits a spurious full-amplitude
    /// spike with probability `rate` (crosstalk / noise-triggered fires).
    SpikeInsert {
        /// Per-slot insertion probability.
        rate: f64,
    },
    /// Additive Gaussian pixel noise with standard deviation `sigma`
    /// applied to the analog input image (sensor corruption). Direct
    /// encoding presents the same corrupted frame at every time step.
    InputNoise {
        /// Noise standard deviation (input images are roughly unit scale).
        sigma: f32,
    },
}

impl InferenceFault {
    /// Short stable name used in sweep reports and JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            InferenceFault::WeightBitFlip { .. } => "weight_bitflip",
            InferenceFault::ThresholdBitFlip { .. } => "threshold_bitflip",
            InferenceFault::ThresholdDrift { .. } => "threshold_drift",
            InferenceFault::StuckAtZero { .. } => "stuck_at_zero",
            InferenceFault::StuckAtSaturated { .. } => "stuck_at_saturated",
            InferenceFault::SpikeDelete { .. } => "spike_delete",
            InferenceFault::SpikeInsert { .. } => "spike_insert",
            InferenceFault::InputNoise { .. } => "input_noise",
        }
    }

    /// The fault's scalar intensity (BER, rate, drift or sigma).
    pub fn intensity(&self) -> f64 {
        match *self {
            InferenceFault::WeightBitFlip { ber } | InferenceFault::ThresholdBitFlip { ber } => ber,
            InferenceFault::ThresholdDrift { drift } => drift as f64,
            InferenceFault::StuckAtZero { rate }
            | InferenceFault::StuckAtSaturated { rate }
            | InferenceFault::SpikeDelete { rate }
            | InferenceFault::SpikeInsert { rate } => rate,
            InferenceFault::InputNoise { sigma } => sigma as f64,
        }
    }

    /// Rebuilds the fault with a new scalar intensity — the sweep harness
    /// uses this to trace a degradation curve for one fault family.
    pub(crate) fn with_intensity(&self, x: f64) -> InferenceFault {
        match self {
            InferenceFault::WeightBitFlip { .. } => InferenceFault::WeightBitFlip { ber: x },
            InferenceFault::ThresholdBitFlip { .. } => InferenceFault::ThresholdBitFlip { ber: x },
            InferenceFault::ThresholdDrift { .. } => {
                InferenceFault::ThresholdDrift { drift: x as f32 }
            }
            InferenceFault::StuckAtZero { .. } => InferenceFault::StuckAtZero { rate: x },
            InferenceFault::StuckAtSaturated { .. } => InferenceFault::StuckAtSaturated { rate: x },
            InferenceFault::SpikeDelete { .. } => InferenceFault::SpikeDelete { rate: x },
            InferenceFault::SpikeInsert { .. } => InferenceFault::SpikeInsert { rate: x },
            InferenceFault::InputNoise { .. } => InferenceFault::InputNoise { sigma: x as f32 },
        }
    }
}

/// A seeded set of inference faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// The faults to apply (order does not matter — each family hashes
    /// with its own domain salt).
    pub faults: Vec<InferenceFault>,
    /// Seed for every fault decision.
    pub seed: u64,
}

impl FaultConfig {
    /// An empty (fault-free) config with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            faults: Vec::new(),
            seed,
        }
    }

    /// Adds a fault (builder style).
    pub fn with(mut self, fault: InferenceFault) -> Self {
        self.faults.push(fault);
        self
    }
}

/// Per-step dynamic faults, resolved from a [`FaultConfig`].
#[derive(Debug, Clone, Copy, Default)]
struct DynamicFaults {
    stuck_zero: f64,
    stuck_sat: f64,
    delete: f64,
    insert: f64,
}

impl DynamicFaults {
    fn any(&self) -> bool {
        self.stuck_zero > 0.0 || self.stuck_sat > 0.0 || self.delete > 0.0 || self.insert > 0.0
    }
}

/// [`StepTamper`] implementation driving the dynamic fault families.
///
/// `base` is the global index of the first sample of the `forward` call's
/// batch, so `base + batch_offset + row` identifies a sample independently
/// of batch boundaries and thread chunking.
struct DynamicTamper {
    f: DynamicFaults,
    seed: u64,
    base: usize,
}

impl StepTamper for DynamicTamper {
    fn tamper_spikes(
        &self,
        step: usize,
        node: NodeId,
        batch_offset: usize,
        amp: f32,
        out: &mut Tensor,
    ) {
        let rows = out.shape()[0];
        if rows == 0 {
            return;
        }
        let feats = out.len() / rows;
        let data = out.data_mut();
        for r in 0..rows {
            let sample = (self.base + batch_offset + r) as u64;
            for j in 0..feats {
                let v = &mut data[r * feats + j];
                let coords = [step as u64, node as u64, sample, j as u64];
                // Transient fabric faults per (step, sample, neuron).
                if *v != 0.0 && self.f.delete > 0.0 {
                    if (unit_f32(mix64(self.seed ^ SALT_DELETE, &coords)) as f64) < self.f.delete {
                        *v = 0.0;
                    }
                } else if *v == 0.0
                    && self.f.insert > 0.0
                    && (unit_f32(mix64(self.seed ^ SALT_INSERT, &coords)) as f64) < self.f.insert
                {
                    *v = amp;
                }
                // Permanent stuck-at circuits per (node, neuron): the same
                // physical neuron is broken for every sample and step, and
                // a stuck circuit overrides fabric noise.
                let cell = [node as u64, j as u64];
                if self.f.stuck_zero > 0.0
                    && (unit_f32(mix64(self.seed ^ SALT_STUCK0, &cell)) as f64) < self.f.stuck_zero
                {
                    *v = 0.0;
                } else if self.f.stuck_sat > 0.0
                    && (unit_f32(mix64(self.seed ^ SALT_STUCK1, &cell)) as f64) < self.f.stuck_sat
                {
                    *v = amp;
                }
            }
        }
    }
}

/// An [`SnnNetwork`] with a fault model attached.
///
/// Construction clones the clean network and applies the static faults;
/// the clean network is never touched. [`FaultedNetwork::forward`] then
/// injects the dynamic faults per time step. With an empty or all-zero
/// config the wrapper calls the clean forward path and the output is
/// byte-identical to `clean.forward(x, t)`.
pub struct FaultedNetwork {
    net: SnnNetwork,
    dynamic: DynamicFaults,
    input_sigma: f32,
    seed: u64,
}

impl FaultedNetwork {
    /// Clones `clean`, applies the static faults of `cfg`, and prepares
    /// the dynamic tamper hook.
    pub fn new(clean: &SnnNetwork, cfg: &FaultConfig) -> Self {
        let _span = ull_obs::span("robust.fault.build");
        let mut net = clean.clone();
        let mut dynamic = DynamicFaults::default();
        let mut input_sigma = 0.0f32;
        for fault in &cfg.faults {
            match *fault {
                InferenceFault::WeightBitFlip { ber } => flip_weight_bits(&mut net, ber, cfg.seed),
                InferenceFault::ThresholdBitFlip { ber } => {
                    flip_threshold_bits(&mut net, ber, cfg.seed)
                }
                InferenceFault::ThresholdDrift { drift } => {
                    drift_thresholds(&mut net, drift, cfg.seed)
                }
                InferenceFault::StuckAtZero { rate } => dynamic.stuck_zero = rate,
                InferenceFault::StuckAtSaturated { rate } => dynamic.stuck_sat = rate,
                InferenceFault::SpikeDelete { rate } => dynamic.delete = rate,
                InferenceFault::SpikeInsert { rate } => dynamic.insert = rate,
                InferenceFault::InputNoise { sigma } => input_sigma = sigma,
            }
        }
        FaultedNetwork {
            net,
            dynamic,
            input_sigma,
            seed: cfg.seed,
        }
    }

    /// The (possibly statically corrupted) network the wrapper simulates.
    pub fn network(&self) -> &SnnNetwork {
        &self.net
    }

    /// Runs faulted inference. `batch_start` is the global index of
    /// `x`'s first sample — pass the cumulative sample count when
    /// evaluating a dataset batch by batch so per-sample faults do not
    /// depend on the batch size ([`evaluate_faulted`] does this).
    pub fn forward(&self, x: &Tensor, t_steps: usize, batch_start: usize) -> SnnOutput {
        let corrupted;
        let input = if self.input_sigma > 0.0 {
            corrupted = corrupt_input(x, self.input_sigma, self.seed, batch_start);
            &corrupted
        } else {
            x
        };
        if self.dynamic.any() {
            let tamper = DynamicTamper {
                f: self.dynamic,
                seed: self.seed,
                base: batch_start,
            };
            self.net.forward_tampered(input, t_steps, &tamper)
        } else {
            self.net.forward(input, t_steps)
        }
    }
}

/// Evaluates a faulted network over a dataset, mirroring
/// [`ull_snn::evaluate_snn`] but threading the global sample index through
/// so the fault pattern is independent of `batch_size` and `ULL_THREADS`.
pub fn evaluate_faulted(
    faulted: &FaultedNetwork,
    data: &ull_data::Dataset,
    t: usize,
    batch_size: usize,
) -> (f32, SpikeStats) {
    let _span = ull_obs::span("robust.evaluate_faulted");
    let mut correct = 0usize;
    let mut seen = 0usize;
    let mut merged: Option<SpikeStats> = None;
    for batch in data.eval_batches(batch_size) {
        let out = faulted.forward(&batch.images, t, seen);
        for (pred, &label) in out.logits.argmax_rows().iter().zip(&batch.labels) {
            if *pred == label {
                correct += 1;
            }
        }
        seen += batch.labels.len();
        match &mut merged {
            Some(m) => m.merge(&out.stats),
            None => merged = Some(out.stats),
        }
    }
    let stats = merged.unwrap_or_else(|| SpikeStats::new(faulted.network().nodes().len(), 0, t));
    (correct as f32 / seen.max(1) as f32, stats)
}

/// Flips each bit of every conv/linear weight of a (non-spiking) DNN with
/// probability `ber` — the DNN counterpart of
/// [`InferenceFault::WeightBitFlip`], used by the resilience sweep to
/// compare ANN and SNN degradation under the *same* memory fault model.
///
/// Node ids are preserved by `SnnNetwork::from_network`, and the hash is
/// keyed by (node, element, bit) with the same salt, so a DNN and its
/// converted SNN see the identical physical fault pattern for a given
/// seed.
pub(crate) fn flip_dnn_weight_bits(net: &mut ull_nn::Network, ber: f64, seed: u64) {
    if ber <= 0.0 {
        return;
    }
    let salt = seed ^ SALT_WEIGHT;
    for (id, node) in net.nodes_mut().iter_mut().enumerate() {
        let weight = match &mut node.op {
            ull_nn::NodeOp::Conv2d { weight, .. } | ull_nn::NodeOp::Linear { weight, .. } => weight,
            _ => continue,
        };
        for (i, v) in weight.value.data_mut().iter_mut().enumerate() {
            let mut bits = v.to_bits();
            for b in 0..32u64 {
                if (unit_f32(mix64(salt, &[id as u64, i as u64, b])) as f64) < ber {
                    bits ^= 1 << b;
                }
            }
            *v = f32::from_bits(bits);
        }
    }
}

/// Flips each bit of every conv/linear weight with probability `ber`,
/// keyed by (node, element, bit).
fn flip_weight_bits(net: &mut SnnNetwork, ber: f64, seed: u64) {
    if ber <= 0.0 {
        return;
    }
    let salt = seed ^ SALT_WEIGHT;
    for (id, node) in net.nodes_mut().iter_mut().enumerate() {
        let weight = match &mut node.op {
            SnnOp::Conv2d { weight, .. } | SnnOp::Linear { weight, .. } => weight,
            _ => continue,
        };
        for (i, v) in weight.value.data_mut().iter_mut().enumerate() {
            let mut bits = v.to_bits();
            for b in 0..32u64 {
                if (unit_f32(mix64(salt, &[id as u64, i as u64, b])) as f64) < ber {
                    bits ^= 1 << b;
                }
            }
            *v = f32::from_bits(bits);
        }
    }
}

/// Flips each bit of every spike layer's `V^th` with probability `ber`.
fn flip_threshold_bits(net: &mut SnnNetwork, ber: f64, seed: u64) {
    if ber <= 0.0 {
        return;
    }
    let salt = seed ^ SALT_THRESH;
    for (id, node) in net.nodes_mut().iter_mut().enumerate() {
        if let SnnOp::Spike(layer) = &mut node.op {
            let v = &mut layer.v_th.value.data_mut()[0];
            let mut bits = v.to_bits();
            for b in 0..32u64 {
                if (unit_f32(mix64(salt, &[id as u64, b])) as f64) < ber {
                    bits ^= 1 << b;
                }
            }
            *v = f32::from_bits(bits);
        }
    }
}

/// Scales each spike layer's `V^th` by a seeded factor in
/// `[1 − drift, 1 + drift]`.
fn drift_thresholds(net: &mut SnnNetwork, drift: f32, seed: u64) {
    if drift == 0.0 {
        return;
    }
    let salt = seed ^ SALT_DRIFT;
    for (id, node) in net.nodes_mut().iter_mut().enumerate() {
        if let SnnOp::Spike(layer) = &mut node.op {
            let u = unit_f32(mix64(salt, &[id as u64]));
            let factor = 1.0 + drift * (2.0 * u - 1.0);
            layer.v_th.value.data_mut()[0] *= factor;
        }
    }
}

/// Adds seeded Gaussian noise to an input batch, keyed by
/// (global sample, element) so the corruption pattern is independent of
/// batch boundaries.
fn corrupt_input(x: &Tensor, sigma: f32, seed: u64, batch_start: usize) -> Tensor {
    let mut out = x.clone();
    let rows = out.shape()[0];
    if rows == 0 {
        return out;
    }
    let feats = out.len() / rows;
    let salt = seed ^ SALT_INPUT;
    let data = out.data_mut();
    for r in 0..rows {
        let sample = (batch_start + r) as u64;
        for j in 0..feats {
            // Box–Muller from two coordinate hashes; offsets keep the
            // uniforms strictly inside (0, 1).
            let u1 =
                ((mix64(salt, &[sample, j as u64, 0]) >> 40) as f64 + 0.5) / (1u64 << 24) as f64;
            let u2 =
                ((mix64(salt, &[sample, j as u64, 1]) >> 40) as f64 + 0.5) / (1u64 << 24) as f64;
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            data[r * feats + j] += sigma * z as f32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;
    use ull_snn::SpikeSpec;

    fn tiny_snn(seed: u64) -> SnnNetwork {
        let dnn = models::vgg_micro(3, 8, 0.25, seed);
        let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
        SnnNetwork::from_network(&dnn, &specs).unwrap()
    }

    fn tiny_data() -> ull_data::Dataset {
        let (_, test) = generate(&SynthCifarConfig::tiny(3));
        test
    }

    #[test]
    fn empty_config_is_byte_identical_to_clean_forward() {
        let snn = tiny_snn(11);
        let data = tiny_data();
        let x = data.eval_batches(8).next().unwrap().images;
        let clean = snn.forward(&x, 3);
        let faulted = FaultedNetwork::new(&snn, &FaultConfig::new(99));
        let wrapped = faulted.forward(&x, 3, 0);
        assert_eq!(
            clean
                .logits
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            wrapped
                .logits
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(clean.stats, wrapped.stats);
    }

    #[test]
    fn zero_intensity_faults_are_byte_identical_to_clean_forward() {
        let snn = tiny_snn(11);
        let data = tiny_data();
        let x = data.eval_batches(8).next().unwrap().images;
        let cfg = FaultConfig::new(5)
            .with(InferenceFault::WeightBitFlip { ber: 0.0 })
            .with(InferenceFault::SpikeDelete { rate: 0.0 })
            .with(InferenceFault::InputNoise { sigma: 0.0 });
        let faulted = FaultedNetwork::new(&snn, &cfg);
        let clean = snn.forward(&x, 2);
        let wrapped = faulted.forward(&x, 2, 0);
        assert_eq!(
            clean
                .logits
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            wrapped
                .logits
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn construction_leaves_clean_network_untouched() {
        let snn = tiny_snn(3);
        let reference = snn.clone();
        let cfg = FaultConfig::new(7)
            .with(InferenceFault::WeightBitFlip { ber: 1e-2 })
            .with(InferenceFault::ThresholdDrift { drift: 0.5 });
        let faulted = FaultedNetwork::new(&snn, &cfg);
        assert_eq!(snn, reference);
        // ... and the faulted copy really is different.
        assert_ne!(*faulted.network(), reference);
    }

    #[test]
    fn fault_application_is_deterministic() {
        let snn = tiny_snn(3);
        let cfg = FaultConfig::new(42)
            .with(InferenceFault::WeightBitFlip { ber: 1e-3 })
            .with(InferenceFault::ThresholdBitFlip { ber: 1e-3 });
        let a = FaultedNetwork::new(&snn, &cfg);
        let b = FaultedNetwork::new(&snn, &cfg);
        assert_eq!(a.network(), b.network());
        // A different seed corrupts differently.
        let other = FaultedNetwork::new(
            &snn,
            &FaultConfig {
                seed: 43,
                ..cfg.clone()
            },
        );
        assert_ne!(a.network(), other.network());
    }

    #[test]
    fn stuck_at_zero_with_rate_one_silences_hidden_layers() {
        let snn = tiny_snn(5);
        let data = tiny_data();
        let x = data.eval_batches(4).next().unwrap().images;
        let cfg = FaultConfig::new(1).with(InferenceFault::StuckAtZero { rate: 1.0 });
        let faulted = FaultedNetwork::new(&snn, &cfg);
        let out = faulted.forward(&x, 2, 0);
        assert!(out.stats.spikes_per_node().iter().all(|&s| s == 0));
    }

    #[test]
    fn spike_insert_raises_activity_and_delete_lowers_it() {
        let snn = tiny_snn(5);
        let data = tiny_data();
        let x = data.eval_batches(8).next().unwrap().images;
        let base: u64 = snn.forward(&x, 3).stats.spikes_per_node().iter().sum();
        let ins = FaultedNetwork::new(
            &snn,
            &FaultConfig::new(2).with(InferenceFault::SpikeInsert { rate: 0.3 }),
        );
        let del = FaultedNetwork::new(
            &snn,
            &FaultConfig::new(2).with(InferenceFault::SpikeDelete { rate: 0.5 }),
        );
        let more: u64 = ins.forward(&x, 3, 0).stats.spikes_per_node().iter().sum();
        let fewer: u64 = del.forward(&x, 3, 0).stats.spikes_per_node().iter().sum();
        assert!(
            more > base,
            "insertions must raise activity ({more} vs {base})"
        );
        assert!(
            fewer < base,
            "deletions must lower activity ({fewer} vs {base})"
        );
    }

    #[test]
    fn faulted_evaluation_is_independent_of_batch_size() {
        let snn = tiny_snn(9);
        let data = tiny_data();
        let cfg = FaultConfig::new(13)
            .with(InferenceFault::SpikeDelete { rate: 0.2 })
            .with(InferenceFault::InputNoise { sigma: 0.1 });
        let faulted = FaultedNetwork::new(&snn, &cfg);
        let (acc_a, stats_a) = evaluate_faulted(&faulted, &data, 2, 4);
        let (acc_b, stats_b) = evaluate_faulted(&faulted, &data, 2, 16);
        assert_eq!(acc_a.to_bits(), acc_b.to_bits());
        assert_eq!(stats_a.spikes_per_node(), stats_b.spikes_per_node());
    }

    #[test]
    fn high_ber_weight_corruption_does_not_produce_non_finite_logits() {
        // Exponent bit flips create huge/NaN weights; the hardened
        // simulator must still return finite logits.
        let snn = tiny_snn(21);
        let data = tiny_data();
        let x = data.eval_batches(8).next().unwrap().images;
        for seed in 0..5 {
            let cfg = FaultConfig::new(seed).with(InferenceFault::WeightBitFlip { ber: 1e-2 });
            let out = FaultedNetwork::new(&snn, &cfg).forward(&x, 2, 0);
            assert!(
                out.logits.all_finite(),
                "seed {seed}: corrupted run produced non-finite logits"
            );
        }
    }
}
