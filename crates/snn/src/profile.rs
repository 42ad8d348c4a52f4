//! Memory and state profiling of SNN networks.
//!
//! Complements [`crate::SnnTape::memory_bytes`] (training memory) with
//! inference-side accounting: parameter storage and the persistent
//! membrane state that inference must keep per sample — the quantities
//! behind Fig. 3(b)'s inference-memory comparison.

use serde::{Deserialize, Serialize};
use ull_tensor::Tensor;

use crate::network::{SnnNetwork, SnnOp};

/// Static memory profile of an SNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryProfile {
    /// Bytes of weights and biases.
    pub parameter_bytes: usize,
    /// Bytes of neuron parameters (thresholds, leaks).
    pub neuron_param_bytes: usize,
    /// Bytes of membrane state per *sample* during inference (one f32 per
    /// spiking neuron). Unlike a DNN, this persists across time steps.
    pub membrane_bytes_per_sample: usize,
    /// Number of spiking neurons.
    pub spiking_neurons: usize,
}

/// Computes the [`MemoryProfile`] of `snn` for inputs of shape `[C, H, W]`.
///
/// Membrane sizes are discovered with a 1-sample dry run, so this works
/// for any topology (pooling, residual) without duplicate shape logic.
///
/// # Panics
///
/// Panics if the network cannot process the given input shape.
pub fn memory_profile(snn: &SnnNetwork, input_chw: &[usize]) -> MemoryProfile {
    assert_eq!(input_chw.len(), 3, "input shape must be [C, H, W]");
    let mut parameter_bytes = 0usize;
    let mut neuron_param_bytes = 0usize;
    for node in snn.nodes() {
        match &node.op {
            SnnOp::Conv2d { weight, bias, .. } | SnnOp::Linear { weight, bias } => {
                parameter_bytes += weight.value.len() * 4;
                if let Some(b) = bias {
                    parameter_bytes += b.value.len() * 4;
                }
            }
            SnnOp::Spike(layer) => {
                neuron_param_bytes += (layer.v_th.value.len() + layer.leak.value.len()) * 4;
            }
            _ => {}
        }
    }
    // Dry run to size the membranes.
    let x = Tensor::zeros(&[1, input_chw[0], input_chw[1], input_chw[2]]);
    let out = snn.forward(&x, 1);
    let mut membrane_bytes = 0usize;
    let mut neurons = 0usize;
    for (&spikes_unused, (&n, node)) in out
        .stats
        .spikes_per_node()
        .iter()
        .zip(out.stats.neurons_per_node().iter().zip(snn.nodes()))
    {
        let _ = spikes_unused;
        if matches!(node.op, SnnOp::Spike(_)) {
            membrane_bytes += n * 4;
            neurons += n;
        }
    }
    MemoryProfile {
        parameter_bytes,
        neuron_param_bytes,
        membrane_bytes_per_sample: membrane_bytes,
        spiking_neurons: neurons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SpikeSpec;
    use ull_nn::NetworkBuilder;

    fn tiny_snn() -> SnnNetwork {
        let mut b = NetworkBuilder::new(2, 4, 5);
        b.conv2d(3, 3, 1, 1); // weight 3*2*3*3 = 54 floats
        b.threshold_relu(0.8); // 3*4*4 = 48 neurons
        b.maxpool(2);
        b.flatten();
        b.linear(3); // 3 * 12 = 36 floats
        let dnn = b.build();
        SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(0.8)]).unwrap()
    }

    #[test]
    fn counts_parameters_and_membranes() {
        let p = memory_profile(&tiny_snn(), &[2, 4, 4]);
        assert_eq!(p.parameter_bytes, (54 + 36) * 4);
        assert_eq!(p.neuron_param_bytes, 2 * 4); // v_th + leak scalars
        assert_eq!(p.spiking_neurons, 48);
        assert_eq!(p.membrane_bytes_per_sample, 48 * 4);
    }

    #[test]
    fn residual_topology_profiles_every_spike_layer() {
        // The Add-node (shortcut) topology exercises the dry-run shape
        // discovery: membrane accounting must cover the spike layers on
        // both the main path and the post-merge activations, and the Add
        // itself contributes no persistent state.
        let dnn = ull_nn::models::resnet_micro(4, 8, 0.5, 23);
        let specs = vec![SpikeSpec::identity(1.0); dnn.threshold_nodes().len()];
        let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        assert!(
            snn.nodes()
                .iter()
                .any(|n| matches!(n.op, crate::network::SnnOp::Add)),
            "resnet_micro should contain a residual Add node"
        );
        let p = memory_profile(&snn, &[3, 8, 8]);
        // Every spike layer holds one f32 membrane per neuron, and each
        // contributes exactly its v_th + leak scalars to neuron params.
        assert_eq!(p.membrane_bytes_per_sample, p.spiking_neurons * 4);
        assert_eq!(p.neuron_param_bytes, snn.spike_nodes().len() * 2 * 4);
        assert!(p.spiking_neurons > 0);
        assert!(p.parameter_bytes > 0);
        // A dry run must have sized *all* spike layers (none left at zero).
        let x = Tensor::zeros(&[1, 3, 8, 8]);
        let out = snn.forward(&x, 1);
        for id in snn.spike_nodes() {
            assert!(
                out.stats.neurons_per_node()[id] > 0,
                "spike node {id} was not sized"
            );
        }
    }

    #[test]
    fn membranes_are_independent_of_t() {
        // Inference state is O(neurons), not O(T) — the contrast with
        // training memory that Fig. 3 highlights.
        let snn = tiny_snn();
        let p = memory_profile(&snn, &[2, 4, 4]);
        // Same profile regardless of how many steps we later run.
        assert_eq!(p, memory_profile(&snn, &[2, 4, 4]));
    }
}
