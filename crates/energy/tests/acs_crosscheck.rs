//! Cross-checks the *analytical* energy audit against the *measured*
//! accumulate counter: `audit_snn` prices a run from spike statistics
//! (analog layers pay `T·MACs`, spike-fed layers pay `ζ·MACs` ACs),
//! while the tensor kernels count every accumulate they actually execute
//! into the `tensor.acs` obs counter. On a network where the two models
//! are exactly comparable — fully-connected only (no conv padding, whose
//! halo zeros make executed < nominal), batch 1 (ζ is a per-image
//! average), all-nonzero input — the counter must equal the audit to the
//! last operation.
//!
//! A second check measures the saving the counter exposes on a conv
//! stack in the paper's sparse regime: executed accumulates well below
//! the nominal dense MACs.

use ull_energy::{audit_dnn, audit_snn};
use ull_nn::NetworkBuilder;
use ull_snn::{SnnNetwork, SpikeSpec};
use ull_tensor::init::{normal, seeded_rng};
use ull_tensor::{parallel, Tensor};

const IN_FEATURES: usize = 18; // 2 channels × 3 × 3
const HIDDEN: usize = 8;
const CLASSES: usize = 4;

fn linear_net(seed: u64) -> (ull_nn::Network, SnnNetwork) {
    let mut b = NetworkBuilder::new(2, 3, seed);
    b.flatten();
    b.linear(HIDDEN);
    b.threshold_relu(0.5);
    b.linear(CLASSES);
    let dnn = b.build();
    let snn = SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(0.5)]).unwrap();
    (dnn, snn)
}

/// `(tensor.macs, tensor.acs, spike stats)` of one forward.
fn measured(snn: &SnnNetwork, x: &Tensor, t: usize) -> (u64, u64, ull_snn::SpikeStats) {
    ull_obs::reset();
    ull_obs::set_enabled(true);
    let out = snn.forward(x, t);
    let snap = ull_obs::snapshot();
    ull_obs::set_enabled(false);
    ull_obs::reset();
    let count = |key| snap.counters.get(key).copied().unwrap_or(0);
    (count("tensor.macs"), count("tensor.acs"), out.stats)
}

#[test]
fn executed_accumulates_match_energy_audit_exactly() {
    let (dnn, snn) = linear_net(5);
    // Every input element nonzero, so the analog first layer executes its
    // full nominal MAC count (the dense kernel skips zeros).
    let mut vals = Vec::with_capacity(IN_FEATURES);
    for i in 0..IN_FEATURES {
        vals.push(0.25 + i as f32 * 0.125);
    }
    let x = Tensor::from_vec(vals, &[1, 2, 3, 3]).unwrap();
    let t = 4;

    let _threads = parallel::override_lock();
    let _obs = ull_obs::test_lock();
    parallel::set_threads(1);
    let (_, acs, stats) = measured(&snn, &x, t);
    parallel::set_threads(0);

    let dnn_audit = audit_dnn(&dnn, &[2, 3, 3]);
    let audit = audit_snn(&snn, &dnn_audit, &stats.report());

    // Analytical decomposition: the analog linear pays its MACs every
    // step; the spike-fed linear pays one AC per (spike, output).
    let spike_node = snn
        .nodes()
        .iter()
        .position(|n| matches!(n.op, ull_snn::SnnOp::Spike(_)))
        .expect("one spike layer");
    let total_spikes: u64 = (stats.report().spike_rate[spike_node] * HIDDEN as f64).round() as u64;
    assert_eq!(
        audit.total_macs,
        (IN_FEATURES * HIDDEN * t) as u64,
        "analog layer should pay T x nominal MACs"
    );
    assert_eq!(
        audit.total_acs,
        total_spikes * CLASSES as u64,
        "spike-fed layer should pay spikes x fan-out ACs"
    );

    // The measured counter covers both layers across all T steps and must
    // agree with the audit to the last operation.
    assert_eq!(
        acs,
        audit.total_macs + audit.total_acs,
        "tensor.acs disagrees with the analytical audit"
    );
    // Sanity: the run actually spiked, otherwise the AC leg is vacuous.
    assert!(total_spikes > 0, "test network never spiked");
}

/// Conv8 → conv32 → linear10 on a 3×16×16 input. Thresholds are high
/// enough that hidden-layer activity lands in the paper's ultra-sparse
/// regime while every layer still spikes.
fn conv_stack() -> SnnNetwork {
    let mut b = NetworkBuilder::new(3, 16, 2022);
    b.conv2d(8, 3, 1, 1);
    b.threshold_relu(4.0);
    b.maxpool(2);
    b.conv2d(32, 3, 1, 1);
    b.threshold_relu(4.0);
    b.maxpool(2);
    b.flatten();
    b.linear(10);
    let dnn = b.build();
    SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(4.0), SpikeSpec::identity(4.0)]).unwrap()
}

/// At a mean spike rate of at most 10 % per step (the paper's regime,
/// Fig. 4a), the zero-skipping kernels execute at least 2× fewer
/// accumulates than the nominal dense MACs, even with the analog first
/// layer paying full price every step.
#[test]
fn executed_accumulates_are_well_below_nominal_at_low_spike_rates() {
    const T: usize = 3;
    let snn = conv_stack();
    let x = normal(&[32, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(2022 ^ 0x5eed));

    let _threads = parallel::override_lock();
    let _obs = ull_obs::test_lock();
    parallel::set_threads(1);
    let (macs, acs, stats) = measured(&snn, &x, T);
    parallel::set_threads(0);

    let mean_rate = stats.report().mean_spike_rate() / T as f64;
    let reduction = macs as f64 / acs.max(1) as f64;
    assert!(
        mean_rate > 0.0 && mean_rate <= 0.10,
        "mean spike rate {mean_rate:.4} outside (0, 0.10]"
    );
    assert!(
        reduction >= 2.0,
        "executed accumulates only {reduction:.2}x below nominal ({acs} of {macs})"
    );
}
