//! The resilience-sweep harness: fault-family × intensity × T grids.
//!
//! For each time-step budget `T` the sweep profiles a clean watchdog
//! envelope, then evaluates every (fault family, intensity) cell with
//! [`evaluate_faulted`], recording accuracy, total spiking activity and
//! whether the watchdog flagged the run. The source DNN is swept through
//! the same weight-memory fault model (`flip_dnn_weight_bits`) so the
//! report directly compares ANN and SNN degradation under identical
//! physical faults — the robustness companion to the paper's accuracy and
//! energy comparisons.
//!
//! Everything is seeded and coordinate-hashed, so a sweep is bit-identical
//! across `ULL_THREADS` settings and repeated runs.

use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_nn::Network;
use ull_snn::SnnNetwork;

use crate::faults::{
    evaluate_faulted, flip_dnn_weight_bits, FaultConfig, FaultedNetwork, InferenceFault,
};
use crate::watchdog::profile_envelope;

/// Grid definition for [`resilience_sweep`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Time-step budgets to evaluate (the paper's regime is 2–5).
    pub t_steps: Vec<usize>,
    /// Fault families to sweep; each template's intensity is replaced by
    /// every value in `intensities`.
    pub families: Vec<InferenceFault>,
    /// Intensity grid (BER / rate / sigma, meaning per family).
    pub intensities: Vec<f64>,
    /// Seed for every fault decision.
    pub seed: u64,
    /// Evaluation batch size.
    pub batch_size: usize,
}

impl SweepConfig {
    /// The standard grid used by the `resilience_sweep` benchmark: all
    /// fault families over a logarithmic intensity ladder at T ∈ {2,3,5}.
    pub fn standard(seed: u64) -> Self {
        SweepConfig {
            t_steps: vec![2, 3, 5],
            families: vec![
                InferenceFault::WeightBitFlip { ber: 0.0 },
                InferenceFault::ThresholdBitFlip { ber: 0.0 },
                InferenceFault::ThresholdDrift { drift: 0.0 },
                InferenceFault::StuckAtZero { rate: 0.0 },
                InferenceFault::StuckAtSaturated { rate: 0.0 },
                InferenceFault::SpikeDelete { rate: 0.0 },
                InferenceFault::SpikeInsert { rate: 0.0 },
                InferenceFault::InputNoise { sigma: 0.0 },
            ],
            intensities: vec![1e-4, 1e-3, 1e-2, 1e-1],
            seed,
            batch_size: 32,
        }
    }

    /// A two-family, two-intensity, single-T grid for smoke tests.
    pub fn smoke(seed: u64) -> Self {
        SweepConfig {
            t_steps: vec![2],
            families: vec![
                InferenceFault::WeightBitFlip { ber: 0.0 },
                InferenceFault::SpikeDelete { rate: 0.0 },
            ],
            intensities: vec![1e-3, 1e-1],
            seed,
            batch_size: 16,
        }
    }
}

/// One SNN grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Fault family name ([`InferenceFault::name`]).
    pub fault: String,
    /// Intensity of the fault.
    pub intensity: f64,
    /// Time-step budget.
    pub t: usize,
    /// Accuracy under fault.
    pub accuracy: f32,
    /// Accuracy drop versus the clean run at the same T.
    pub accuracy_drop: f32,
    /// Total spikes per image, summed over layers.
    pub spikes_per_image: f64,
    /// Number of layers whose spike rate left the clean envelope.
    pub watchdog_violations: usize,
}

/// One DNN grid cell (weight-memory bit flips; no time dimension).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnSweepCell {
    /// Per-bit error rate applied to conv/linear weights.
    pub intensity: f64,
    /// Accuracy under fault.
    pub accuracy: f32,
    /// Accuracy drop versus the clean DNN.
    pub accuracy_drop: f32,
}

/// Clean reference accuracy at one time-step budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CleanPoint {
    /// Time-step budget.
    pub t: usize,
    /// Clean SNN accuracy.
    pub accuracy: f32,
}

/// Full resilience-sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Clean SNN accuracy per T.
    pub clean_snn: Vec<CleanPoint>,
    /// Clean DNN accuracy.
    pub clean_dnn: f32,
    /// SNN fault grid.
    pub cells: Vec<SweepCell>,
    /// DNN weight-fault curve.
    pub dnn_cells: Vec<DnnSweepCell>,
    /// Config the sweep ran with.
    pub config: SweepConfig,
}

impl SweepReport {
    /// Renders the DNN-vs-SNN degradation table as GitHub markdown — the
    /// block the benchmark binary writes into EXPERIMENTS.md.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str("| fault | intensity |");
        for p in &self.clean_snn {
            s.push_str(&format!(" SNN T={} acc |", p.t));
        }
        s.push_str(" watchdog | DNN acc |\n");
        s.push_str("|---|---|");
        for _ in &self.clean_snn {
            s.push_str("---|");
        }
        s.push_str("---|---|\n");
        s.push_str("| (clean) | – |");
        for p in &self.clean_snn {
            s.push_str(&format!(" {:.3} |", p.accuracy));
        }
        s.push_str(&format!(" ok | {:.3} |\n", self.clean_dnn));
        let mut families: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !families.contains(&c.fault.as_str()) {
                families.push(&c.fault);
            }
        }
        for fault in families {
            for &x in &self.config.intensities {
                let row: Vec<&SweepCell> = self
                    .cells
                    .iter()
                    .filter(|c| c.fault == fault && c.intensity == x)
                    .collect();
                if row.is_empty() {
                    continue;
                }
                s.push_str(&format!("| {fault} | {x:.0e} |"));
                for p in &self.clean_snn {
                    match row.iter().find(|c| c.t == p.t) {
                        Some(c) => s.push_str(&format!(" {:.3} |", c.accuracy)),
                        None => s.push_str(" – |"),
                    }
                }
                let flagged = row.iter().filter(|c| c.watchdog_violations > 0).count();
                s.push_str(&format!(" {}/{} |", flagged, row.len()));
                if fault == "weight_bitflip" {
                    match self.dnn_cells.iter().find(|c| c.intensity == x) {
                        Some(c) => s.push_str(&format!(" {:.3} |\n", c.accuracy)),
                        None => s.push_str(" – |\n"),
                    }
                } else {
                    s.push_str(" – |\n");
                }
            }
        }
        s
    }
}

/// Runs the full fault grid. `dnn` must be the source network of `snn`
/// (same node ids) so the weight-fault comparison is physical.
pub fn resilience_sweep(
    dnn: &Network,
    snn: &SnnNetwork,
    data: &Dataset,
    cfg: &SweepConfig,
) -> SweepReport {
    let _span = ull_obs::span("robust.sweep");
    let mut clean_snn = Vec::with_capacity(cfg.t_steps.len());
    let mut cells = Vec::new();
    for &t in &cfg.t_steps {
        let envelope = profile_envelope(snn, data, t, cfg.batch_size);
        let clean = FaultedNetwork::new(snn, &FaultConfig::new(cfg.seed));
        let (clean_acc, _) = evaluate_faulted(&clean, data, t, cfg.batch_size);
        clean_snn.push(CleanPoint {
            t,
            accuracy: clean_acc,
        });
        for family in &cfg.families {
            for &x in &cfg.intensities {
                let fault = family.with_intensity(x);
                let config = FaultConfig::new(cfg.seed).with(fault);
                let faulted = FaultedNetwork::new(snn, &config);
                let (accuracy, stats) = evaluate_faulted(&faulted, data, t, cfg.batch_size);
                let report = stats.report();
                let violations = envelope.check(&report).len();
                cells.push(SweepCell {
                    fault: fault.name().to_string(),
                    intensity: x,
                    t,
                    accuracy,
                    accuracy_drop: clean_acc - accuracy,
                    spikes_per_image: report.spikes_per_image.iter().sum(),
                    watchdog_violations: violations,
                });
            }
        }
    }

    let clean_dnn = ull_nn::evaluate(dnn, data, cfg.batch_size);
    let mut dnn_cells = Vec::with_capacity(cfg.intensities.len());
    for &x in &cfg.intensities {
        let mut corrupted = dnn.clone();
        flip_dnn_weight_bits(&mut corrupted, x, cfg.seed);
        let accuracy = ull_nn::evaluate(&corrupted, data, cfg.batch_size);
        dnn_cells.push(DnnSweepCell {
            intensity: x,
            accuracy,
            accuracy_drop: clean_dnn - accuracy,
        });
    }

    SweepReport {
        clean_snn,
        clean_dnn,
        cells,
        dnn_cells,
        config: cfg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;
    use ull_snn::SpikeSpec;

    fn setup() -> (Network, SnnNetwork, Dataset) {
        let cfg = SynthCifarConfig::tiny(3);
        let (_, test) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 31);
        let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
        let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        (dnn, snn, test)
    }

    #[test]
    fn smoke_sweep_covers_the_grid() {
        let (dnn, snn, data) = setup();
        let cfg = SweepConfig::smoke(7);
        let report = resilience_sweep(&dnn, &snn, &data, &cfg);
        assert_eq!(report.clean_snn.len(), 1);
        assert_eq!(report.cells.len(), 2 * 2);
        assert_eq!(report.dnn_cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.accuracy.is_finite());
            assert!((0.0..=1.0).contains(&cell.accuracy));
        }
        let md = report.to_markdown();
        assert!(md.contains("weight_bitflip"));
        assert!(md.contains("spike_delete"));
        assert!(md.contains("(clean)"));
    }

    #[test]
    fn sweep_is_reproducible() {
        let (dnn, snn, data) = setup();
        let cfg = SweepConfig::smoke(3);
        let a = resilience_sweep(&dnn, &snn, &data, &cfg);
        let b = resilience_sweep(&dnn, &snn, &data, &cfg);
        assert_eq!(a, b);
    }
}
