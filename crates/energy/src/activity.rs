//! SNN operation counting driven by measured spiking activity.

use serde::{Deserialize, Serialize};
use ull_nn::NodeId;
use ull_snn::{ActivityReport, SnnNetwork, SnnOp};

use crate::flops::{DnnAudit, SourceKind};

/// Cost of one SNN weighted layer per image.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnnLayerCost {
    /// Node id of the conv/linear layer.
    pub node: NodeId,
    /// Multiply-accumulates per image (first/analog layers; repeated every
    /// time step under direct encoding).
    pub macs: u64,
    /// Spike-driven accumulates per image.
    pub acs: u64,
}

/// FLOP audit of an SNN run (per image), derived from the structural DNN
/// audit plus the measured [`ActivityReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnnAudit {
    /// Per weighted layer.
    pub layers: Vec<SnnLayerCost>,
    /// Total MACs per image (direct-encoding layers × T).
    pub total_macs: u64,
    /// Total ACs per image.
    pub total_acs: u64,
    /// Time steps of the measured run.
    pub steps: usize,
}

impl SnnAudit {
    /// Total operations (MAC + AC) per image — Fig. 4b's quantity.
    pub fn total_ops(&self) -> u64 {
        self.total_macs + self.total_acs
    }
}

/// Builds the SNN cost audit:
///
/// * analog-fed layers (direct encoding) pay their MACs at **every** time
///   step: `T · MACs`;
/// * spike-fed layers pay `ζ_in · MACs` accumulates, where `ζ_in` is the
///   measured average spike count per input neuron over all T steps
///   (the standard estimate used by the paper's references \[27\], \[28\]).
///
/// `dnn_audit` must come from [`crate::audit_dnn`] on the *source* network
/// (same node ids), and `report` from an `ull-snn` evaluation run.
///
/// # Panics
///
/// Panics if a layer's recorded source node has no activity entry.
pub fn audit_snn(snn: &SnnNetwork, dnn_audit: &DnnAudit, report: &ActivityReport) -> SnnAudit {
    let mut layers = Vec::with_capacity(dnn_audit.layers.len());
    let mut total_macs = 0u64;
    let mut total_acs = 0u64;
    for lf in &dnn_audit.layers {
        let (macs, acs) = match lf.source {
            SourceKind::Analog => {
                let m = lf.macs * report.steps as u64;
                (m, 0)
            }
            SourceKind::Spiking(src) | SourceKind::Residual(src) => {
                assert!(
                    src < report.spike_rate.len(),
                    "source node {src} missing from activity report"
                );
                let zeta = report.spike_rate[src];
                let a = (zeta * lf.macs as f64).round() as u64;
                (0, a)
            }
        };
        layers.push(SnnLayerCost {
            node: lf.node,
            macs,
            acs,
        });
        total_macs += macs;
        total_acs += acs;
    }
    // Sanity: the SNN and audit must share topology.
    debug_assert_eq!(snn.nodes().len(), report.spike_rate.len());
    let _ = snn
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, SnnOp::Spike(_)))
        .count();
    SnnAudit {
        layers,
        total_macs,
        total_acs,
        steps: report.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops::audit_dnn;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;
    use ull_snn::{evaluate_snn, SnnNetwork, SpikeSpec};

    fn setup(t: usize) -> (SnnAudit, DnnAudit) {
        let cfg = SynthCifarConfig::tiny(3);
        let (_, test) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 6);
        let specs = vec![SpikeSpec::identity(1.0); dnn.threshold_nodes().len()];
        let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let dnn_audit = audit_dnn(&dnn, &[3, cfg.image_size, cfg.image_size]);
        let (_, stats) = evaluate_snn(&snn, &test, t, 16);
        let audit = audit_snn(&snn, &dnn_audit, &stats.report());
        (audit, dnn_audit)
    }

    #[test]
    fn first_layer_macs_scale_with_t() {
        let (a2, dnn) = setup(2);
        let (a4, _) = setup(4);
        assert_eq!(a2.total_macs, dnn.layers[0].macs * 2);
        assert_eq!(a4.total_macs, dnn.layers[0].macs * 4);
    }

    #[test]
    fn hidden_layer_acs_are_bounded_by_t_times_macs() {
        let (audit, dnn) = setup(3);
        for (sc, lf) in audit.layers.iter().zip(&dnn.layers) {
            if sc.acs > 0 {
                // ζ ≤ T (a neuron can spike at most once per step).
                assert!(sc.acs <= lf.macs * 3, "node {}: {} ACs", sc.node, sc.acs);
            }
        }
    }

    #[test]
    fn more_steps_mean_more_spikes_and_ops() {
        let (a2, _) = setup(2);
        let (a4, _) = setup(4);
        assert!(a4.total_acs >= a2.total_acs);
        assert!(a4.total_ops() > a2.total_ops());
    }

    #[test]
    fn snn_ops_are_fewer_than_iso_dnn_macs_for_sparse_nets() {
        // With typical sparsity, SNN total ops at T=2 come in below the DNN
        // MAC count (the Fig. 4b relationship).
        let (audit, dnn) = setup(2);
        assert!(
            audit.total_acs < dnn.total_macs,
            "ACs {} vs DNN MACs {}",
            audit.total_acs,
            dnn.total_macs
        );
    }
}
