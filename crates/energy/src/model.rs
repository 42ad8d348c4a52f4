//! Energy models: 45 nm CMOS MAC/AC costs and normalised neuromorphic
//! (TrueNorth / SpiNNaker) models.

use serde::{Deserialize, Serialize};

use crate::{DnnAudit, SnnAudit};

/// Per-operation energy model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one 32-bit multiply-and-accumulate, in picojoules.
    pub e_mac_pj: f64,
    /// Energy of one 32-bit accumulate, in picojoules.
    pub e_ac_pj: f64,
}

impl EnergyModel {
    /// The paper's 45 nm CMOS process at 0.9 V (Horowitz, ISSCC 2014):
    /// `E_MAC = 3.2 pJ` (3.1 multiply + 0.1 add), `E_AC = 0.1 pJ`.
    pub const CMOS_45NM: EnergyModel = EnergyModel {
        e_mac_pj: 3.2,
        e_ac_pj: 0.1,
    };

    /// Inference energy of a DNN (all layers are MACs), in pJ per image.
    pub fn dnn_energy_pj(&self, audit: &DnnAudit) -> f64 {
        audit.total_macs as f64 * self.e_mac_pj
    }

    /// Inference energy of an SNN (first-layer MACs + spike-driven ACs),
    /// in pJ per image.
    pub(crate) fn snn_energy_pj(&self, audit: &SnnAudit) -> f64 {
        audit.total_macs as f64 * self.e_mac_pj + audit.total_acs as f64 * self.e_ac_pj
    }
}

/// Normalised neuromorphic energy model (`total = FLOPs·E_compute +
/// T·E_static`, paper §VI-B following \[32\]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeuromorphicModel {
    /// Human-readable platform name.
    pub name: &'static str,
    /// Normalised per-operation compute energy.
    pub e_compute: f64,
    /// Normalised per-time-step static energy.
    pub e_static: f64,
}

impl NeuromorphicModel {
    /// IBM TrueNorth: `(E_compute, E_static) = (0.4, 0.6)`.
    pub const TRUENORTH: NeuromorphicModel = NeuromorphicModel {
        name: "TrueNorth",
        e_compute: 0.4,
        e_static: 0.6,
    };

    /// Manchester SpiNNaker: `(E_compute, E_static) = (0.64, 0.36)`.
    pub const SPINNAKER: NeuromorphicModel = NeuromorphicModel {
        name: "SpiNNaker",
        e_compute: 0.64,
        e_static: 0.36,
    };

    /// Normalised total energy of an SNN run: `ops·E_compute + T·E_static`.
    /// Because `ops ≫ T` for deep networks, the result is compute-bound —
    /// the paper's argument that GPU-side energy improvements carry over.
    pub fn total_energy(&self, audit: &SnnAudit) -> f64 {
        audit.total_ops() as f64 * self.e_compute + audit.steps as f64 * self.e_static
    }
}

/// One comparison row of the Fig. 4 summary: a named model with its
/// spikes, FLOPs and energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Label, e.g. `"ours T=2"` or `"DNN"`.
    pub label: String,
    /// Time steps (0 for the DNN).
    pub steps: usize,
    /// Total spikes per image (0 for the DNN).
    pub spikes_per_image: f64,
    /// Total MAC operations per image.
    pub macs: u64,
    /// Total AC operations per image.
    pub acs: u64,
    /// Compute energy in pJ per image under [`EnergyModel::CMOS_45NM`].
    pub energy_pj: f64,
}

impl ComparisonRow {
    /// Builds the DNN reference row.
    pub fn dnn(label: impl Into<String>, audit: &DnnAudit) -> Self {
        ComparisonRow {
            label: label.into(),
            steps: 0,
            spikes_per_image: 0.0,
            macs: audit.total_macs,
            acs: 0,
            energy_pj: EnergyModel::CMOS_45NM.dnn_energy_pj(audit),
        }
    }

    /// Builds an SNN row from its audit and measured spikes.
    pub fn snn(label: impl Into<String>, audit: &SnnAudit, spikes_per_image: f64) -> Self {
        ComparisonRow {
            label: label.into(),
            steps: audit.steps,
            spikes_per_image,
            macs: audit.total_macs,
            acs: audit.total_acs,
            energy_pj: EnergyModel::CMOS_45NM.snn_energy_pj(audit),
        }
    }

    /// Energy ratio of `other` to `self` (how many × cheaper `self` is).
    pub fn improvement_over(&self, other: &ComparisonRow) -> f64 {
        other.energy_pj / self.energy_pj.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerFlops, SourceKind};

    fn dnn_audit(macs: u64) -> DnnAudit {
        DnnAudit {
            layers: vec![LayerFlops {
                node: 1,
                macs,
                source: SourceKind::Analog,
            }],
            total_macs: macs,
        }
    }

    fn snn_audit(macs: u64, acs: u64, steps: usize) -> SnnAudit {
        SnnAudit {
            layers: vec![],
            total_macs: macs,
            total_acs: acs,
            steps,
        }
    }

    #[test]
    fn cmos_constants_match_paper() {
        assert_eq!(EnergyModel::CMOS_45NM.e_mac_pj, 3.2);
        assert_eq!(EnergyModel::CMOS_45NM.e_ac_pj, 0.1);
    }

    #[test]
    fn dnn_energy_is_macs_times_emac() {
        let a = dnn_audit(1000);
        assert_eq!(EnergyModel::CMOS_45NM.dnn_energy_pj(&a), 3200.0);
    }

    #[test]
    fn snn_energy_mixes_mac_and_ac() {
        let a = snn_audit(100, 1000, 2);
        let e = EnergyModel::CMOS_45NM.snn_energy_pj(&a);
        assert!((e - (100.0 * 3.2 + 1000.0 * 0.1)).abs() < 1e-9);
    }

    #[test]
    fn sparse_snn_beats_dnn_by_large_factor() {
        // DNN: 1e9 MACs. SNN: first layer 1e7 MACs ×2 steps + 5e7 ACs.
        let d = dnn_audit(1_000_000_000);
        let s = snn_audit(20_000_000, 50_000_000, 2);
        let row_d = ComparisonRow::dnn("DNN", &d);
        let row_s = ComparisonRow::snn("ours T=2", &s, 1e6);
        let imp = row_s.improvement_over(&row_d);
        assert!(imp > 40.0, "improvement {imp}");
    }

    #[test]
    fn neuromorphic_models_are_compute_bound_for_deep_nets() {
        let a = snn_audit(1_000_000, 50_000_000, 2);
        for m in [NeuromorphicModel::TRUENORTH, NeuromorphicModel::SPINNAKER] {
            let total = m.total_energy(&a);
            let compute = a.total_ops() as f64 * m.e_compute;
            assert!(
                compute / total > 0.999,
                "{}: static energy should be negligible",
                m.name
            );
        }
    }

    #[test]
    fn truenorth_and_spinnaker_constants_match_paper() {
        assert_eq!(NeuromorphicModel::TRUENORTH.e_compute, 0.4);
        assert_eq!(NeuromorphicModel::TRUENORTH.e_static, 0.6);
        assert_eq!(NeuromorphicModel::SPINNAKER.e_compute, 0.64);
        assert_eq!(NeuromorphicModel::SPINNAKER.e_static, 0.36);
    }
}
