//! Integration tests of temporal SNN semantics that span modules:
//! encoding × dynamics × statistics.

use ull_nn::{NetworkBuilder, NodeOp};
use ull_snn::{evaluate_snn, InputEncoding, SnnNetwork, SpikeSpec};
use ull_tensor::init::{normal, seeded_rng};
use ull_tensor::Tensor;

fn single_neuron(weight: f32, v_th: f32, leak: f32) -> SnnNetwork {
    let mut b = NetworkBuilder::new(1, 1, 0);
    b.flatten();
    b.linear(1);
    b.threshold_relu(v_th);
    let mut dnn = b.build();
    if let NodeOp::Linear { weight: w, .. } = &mut dnn.nodes_mut()[2].op {
        w.value.fill(weight);
    }
    let spec = SpikeSpec {
        v_th,
        amp: v_th,
        leak,
        u_init: 0.0,
    };
    SnnNetwork::from_network(&dnn, &[spec]).unwrap()
}

#[test]
fn if_firing_rate_matches_eq5_over_a_current_sweep() {
    // For constant input current s, total spikes over T steps must equal
    // clip(floor(s·T/V), 0, T) — Eq. 5 against the real simulator.
    let v_th = 1.0;
    let t = 8;
    for i in 0..40 {
        let s = 0.03 + i as f32 * 0.05;
        let pos = s * t as f32 / v_th;
        if (pos - pos.round()).abs() < 1e-3 {
            continue; // skip boundary floats
        }
        let snn = single_neuron(s, v_th, 1.0);
        let x = Tensor::ones(&[1, 1, 1, 1]);
        let out = snn.forward(&x, t);
        let node = snn.spike_nodes()[0];
        let expected = (pos.floor() as u64).min(t as u64);
        assert_eq!(
            out.stats.spikes_per_node()[node],
            expected,
            "current {s}: expected {expected} spikes"
        );
    }
}

#[test]
fn strong_leak_forgets_subthreshold_input() {
    // λ = 0 resets the membrane every step, so a current below V^th never
    // accumulates into a spike, no matter how long we run.
    let snn = single_neuron(0.9, 1.0, 0.0);
    let x = Tensor::ones(&[1, 1, 1, 1]);
    let out = snn.forward(&x, 64);
    let node = snn.spike_nodes()[0];
    assert_eq!(out.stats.spikes_per_node()[node], 0);
    // While the IF neuron (λ = 1) spikes plenty.
    let snn_if = single_neuron(0.9, 1.0, 1.0);
    let out_if = snn_if.forward(&x, 64);
    assert!(out_if.stats.spikes_per_node()[node] > 50);
}

#[test]
fn suprathreshold_current_fires_every_step_regardless_of_leak() {
    for leak in [0.0f32, 0.5, 1.0] {
        let snn = single_neuron(1.5, 1.0, leak);
        let x = Tensor::ones(&[1, 1, 1, 1]);
        let t = 16;
        let out = snn.forward(&x, t);
        let node = snn.spike_nodes()[0];
        assert_eq!(
            out.stats.spikes_per_node()[node],
            t as u64,
            "leak {leak}: should fire every step"
        );
    }
}

#[test]
fn rate_encoded_input_drives_first_layer_with_binary_values() {
    // Under rate coding the conv layer consumes only {0, 1} inputs — the
    // accumulate-only property the encoding trades latency for.
    let mut b = NetworkBuilder::new(2, 4, 3);
    b.conv2d(3, 3, 1, 1);
    b.threshold_relu(1.0);
    b.flatten();
    b.linear(2);
    let dnn = b.build();
    let snn = SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(1.0)]).unwrap();
    let mut rng = seeded_rng(9);
    let x = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
    let enc = InputEncoding::PoissonRate { max_rate: 0.7 };
    let xt = enc.encode_step(&x, &mut rng);
    assert!(xt.data().iter().all(|&v| v == 0.0 || v == 1.0));
    // And the full encoded forward still produces finite logits.
    let out = snn.forward_with_encoding(&x, 4, enc, &mut rng);
    assert!(out.logits.data().iter().all(|v| v.is_finite()));
}

#[test]
fn evaluation_and_profile_compose_on_a_batch_dataset() {
    use ull_data::{generate, SynthCifarConfig};
    let cfg = SynthCifarConfig::tiny(3);
    let (_, test) = generate(&cfg);
    let dnn = ull_nn::models::vgg_micro(3, cfg.image_size, 0.25, 8);
    let specs = vec![SpikeSpec::identity(1.5); dnn.threshold_nodes().len()];
    let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
    let (acc, stats) = evaluate_snn(&snn, &test, 2, 8);
    assert!((0.0..=1.0).contains(&acc));
    assert_eq!(stats.batch(), test.len());
}
