//! Spike-rate watchdog: detect silent corruption from activity drift.
//!
//! Hardware faults in a deployed SNN rarely crash anything — a flipped
//! weight bit or a stuck neuron just skews the spike statistics. Because
//! the simulator already counts every spike ([`ull_snn::SpikeStats`]),
//! layer-wise activity is a free health signal: profile a per-layer
//! envelope of spike rates on clean evaluation batches, then flag any run
//! whose measured rates leave the envelope.
//!
//! The envelope is `[min − margin, max + margin]` per layer, where min/max
//! are taken over the profiled batches and the margin combines a relative
//! and an absolute slack (`REL_MARGIN`, `ABS_MARGIN`). A run profiled on
//! batches drawn from the same distribution therefore never trips the
//! watchdog (zero false positives by construction plus slack), while
//! high-BER corruption — which collapses or saturates layer activity —
//! lands far outside.

use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_snn::{ActivityReport, SnnNetwork};

/// Relative slack applied to both envelope bounds (fraction of the bound).
///
/// With [`ABS_MARGIN`] it keeps clean runs on held-out batches of the
/// profiled distribution inside the envelope (zero false positives across
/// the resilience harness's 20-run check) while still flagging the
/// order-of-magnitude activity shifts that bit-level weight corruption
/// causes.
const REL_MARGIN: f64 = 0.5;

/// Absolute slack applied to both envelope bounds (spikes per neuron per
/// run).
const ABS_MARGIN: f64 = 0.05;

/// Per-layer spike-rate bounds profiled from clean runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateEnvelope {
    /// Minimum clean per-layer spike rate observed during profiling.
    pub min: Vec<f64>,
    /// Maximum clean per-layer spike rate observed during profiling.
    pub max: Vec<f64>,
    /// Time steps of the profiled runs — a report from a different T is
    /// not comparable and is rejected by [`RateEnvelope::check`].
    pub steps: usize,
}

/// One layer whose measured rate left the envelope.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateViolation {
    /// Node id of the offending layer.
    pub node: usize,
    /// Measured spike rate.
    pub rate: f64,
    /// Lower envelope bound (margin applied).
    pub lo: f64,
    /// Upper envelope bound (margin applied).
    pub hi: f64,
}

impl RateEnvelope {
    /// Checks a measured activity report against the envelope, returning
    /// every violating layer (empty = healthy). Also publishes the
    /// violation count to the `robust.watchdog.violations` counter.
    ///
    /// # Panics
    ///
    /// Panics if the report's node count or step count differs from the
    /// profiled runs — that is a harness bug, not a hardware fault.
    pub fn check(&self, report: &ActivityReport) -> Vec<RateViolation> {
        assert_eq!(
            report.spike_rate.len(),
            self.min.len(),
            "report node count differs from profiled envelope"
        );
        assert_eq!(
            report.steps, self.steps,
            "report time steps differ from profiled envelope"
        );
        let mut violations = Vec::new();
        for (node, &rate) in report.spike_rate.iter().enumerate() {
            // Layers that never spike (non-spiking ops) profile as 0 on
            // both bounds; the absolute margin keeps them from flagging
            // float dust.
            let lo = self.min[node] * (1.0 - REL_MARGIN) - ABS_MARGIN;
            let hi = self.max[node] * (1.0 + REL_MARGIN) + ABS_MARGIN;
            if !(rate >= lo && rate <= hi) {
                violations.push(RateViolation { node, rate, lo, hi });
            }
        }
        ull_obs::counter_add("robust.watchdog.checks", 1);
        if !violations.is_empty() {
            ull_obs::counter_add("robust.watchdog.violations", violations.len() as u64);
        }
        violations
    }

    /// True if the report stays inside the envelope everywhere.
    pub fn is_healthy(&self, report: &ActivityReport) -> bool {
        self.check(report).is_empty()
    }
}

/// Profiles a clean activity envelope by running the network over the
/// evaluation batches of `data` (batch by batch, so the envelope captures
/// genuine batch-to-batch spread).
///
/// # Panics
///
/// Panics if `data` has no evaluation batches.
pub fn profile_envelope(
    snn: &SnnNetwork,
    data: &Dataset,
    t: usize,
    batch_size: usize,
) -> RateEnvelope {
    let batches: Vec<ull_tensor::Tensor> =
        data.eval_batches(batch_size).map(|b| b.images).collect();
    profile_envelope_batches(snn, &batches, t)
}

/// [`profile_envelope`] over caller-assembled calibration batches instead
/// of a [`Dataset`]. The envelope is the elementwise min/max over the
/// given batches, so callers control the batch-size spread it captures —
/// a serving-side profiler passes batches shaped like live traffic
/// (e.g. every size its dynamic batcher can assemble).
///
/// # Panics
///
/// Panics if `batches` is empty.
pub fn profile_envelope_batches(
    snn: &SnnNetwork,
    batches: &[ull_tensor::Tensor],
    t: usize,
) -> RateEnvelope {
    let _span = ull_obs::span("robust.watchdog.profile");
    let mut min: Option<Vec<f64>> = None;
    let mut max: Option<Vec<f64>> = None;
    for images in batches {
        let report = snn.forward(images, t).stats.report();
        match (&mut min, &mut max) {
            (Some(lo), Some(hi)) => {
                for (slot, &r) in lo.iter_mut().zip(&report.spike_rate) {
                    *slot = slot.min(r);
                }
                for (slot, &r) in hi.iter_mut().zip(&report.spike_rate) {
                    *slot = slot.max(r);
                }
            }
            _ => {
                min = Some(report.spike_rate.clone());
                max = Some(report.spike_rate);
            }
        }
    }
    let min = min.expect("no calibration batches to profile");
    let max = max.expect("no calibration batches to profile");
    RateEnvelope { min, max, steps: t }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultedNetwork, InferenceFault};
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;
    use ull_snn::{SnnNetwork, SpikeSpec};

    fn setup() -> (SnnNetwork, Dataset) {
        let cfg = SynthCifarConfig::tiny(3);
        let (_, test) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 17);
        let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
        (SnnNetwork::from_network(&dnn, &specs).unwrap(), test)
    }

    #[test]
    fn clean_runs_never_trip_the_watchdog() {
        let (snn, data) = setup();
        let envelope = profile_envelope(&snn, &data, 3, 8);
        // 20 clean checks over varying batch partitions of the same
        // distribution: the acceptance criterion demands zero false
        // positives.
        let mut checks = 0;
        for batch_size in [3usize, 4, 5, 8, 16, 32] {
            for batch in data.eval_batches(batch_size) {
                let report = snn.forward(&batch.images, 3).stats.report();
                let violations = envelope.check(&report);
                assert!(
                    violations.is_empty(),
                    "clean batch (size {batch_size}) tripped watchdog: {violations:?}"
                );
                checks += 1;
                if checks >= 20 {
                    return;
                }
            }
        }
        assert!(checks >= 20, "not enough clean batches to run 20 checks");
    }

    #[test]
    fn watchdog_detects_high_ber_weight_corruption() {
        let (snn, data) = setup();
        let envelope = profile_envelope(&snn, &data, 3, 8);
        let batch = data.eval_batches(32).next().unwrap();
        let mut detected = 0;
        let trials = 20;
        for seed in 0..trials {
            let cfg = FaultConfig::new(seed).with(InferenceFault::WeightBitFlip { ber: 1e-2 });
            let faulted = FaultedNetwork::new(&snn, &cfg);
            let report = faulted.forward(&batch.images, 3, 0).stats.report();
            if !envelope.is_healthy(&report) {
                detected += 1;
            }
        }
        assert!(
            detected * 10 >= trials * 9,
            "watchdog detected only {detected}/{trials} high-BER corruptions"
        );
    }

    #[test]
    fn watchdog_flags_stuck_and_silent_layers() {
        let (snn, data) = setup();
        let envelope = profile_envelope(&snn, &data, 2, 8);
        let batch = data.eval_batches(16).next().unwrap();
        let silent = FaultedNetwork::new(
            &snn,
            &FaultConfig::new(4).with(InferenceFault::StuckAtZero { rate: 1.0 }),
        );
        let saturated = FaultedNetwork::new(
            &snn,
            &FaultConfig::new(4).with(InferenceFault::StuckAtSaturated { rate: 1.0 }),
        );
        let silent_report = silent.forward(&batch.images, 2, 0).stats.report();
        let saturated_report = saturated.forward(&batch.images, 2, 0).stats.report();
        assert!(
            !envelope.is_healthy(&silent_report),
            "all-silent run must flag"
        );
        assert!(
            !envelope.is_healthy(&saturated_report),
            "all-saturated run must flag"
        );
    }

    #[test]
    fn batch_slice_profiling_matches_dataset_profiling() {
        let (snn, data) = setup();
        let from_dataset = profile_envelope(&snn, &data, 2, 8);
        let batches: Vec<ull_tensor::Tensor> = data.eval_batches(8).map(|b| b.images).collect();
        let from_batches = profile_envelope_batches(&snn, &batches, 2);
        assert_eq!(from_dataset, from_batches);

        // Batches of several sizes in one call give the elementwise
        // min/max of the per-size profiles, bit for bit: f64 min/max does
        // not depend on the order the batches are visited in.
        let sizes = 1..=4;
        let per_size: Vec<RateEnvelope> = sizes
            .clone()
            .map(|size| profile_envelope(&snn, &data, 2, size))
            .collect();
        let mut merged = per_size[0].clone();
        for env in &per_size[1..] {
            for (slot, v) in merged.min.iter_mut().zip(&env.min) {
                *slot = slot.min(*v);
            }
            for (slot, v) in merged.max.iter_mut().zip(&env.max) {
                *slot = slot.max(*v);
            }
        }
        let all_sizes: Vec<ull_tensor::Tensor> = sizes
            .flat_map(|size| data.eval_batches(size).map(|b| b.images))
            .collect();
        assert_eq!(profile_envelope_batches(&snn, &all_sizes, 2), merged);
    }

    #[test]
    fn mismatched_report_shape_panics() {
        let (snn, data) = setup();
        let envelope = profile_envelope(&snn, &data, 2, 8);
        let batch = data.eval_batches(8).next().unwrap();
        let report = snn.forward(&batch.images, 3).stats.report();
        let err = std::panic::catch_unwind(|| envelope.check(&report));
        assert!(err.is_err(), "differing T must be rejected");
    }
}
