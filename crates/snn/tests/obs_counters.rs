//! `SpikeStats::publish_to_obs` must mirror a forward's spike counts in
//! the obs registry exactly.
//!
//! The registry is process-global, so any forward another test runs while
//! this one has recording enabled lands in the same counters. The check
//! therefore lives in its own test binary, where nothing else runs.

use ull_nn::NetworkBuilder;
use ull_snn::{SnnNetwork, SpikeSpec};
use ull_tensor::init::{normal, seeded_rng};
use ull_tensor::parallel;

fn tiny_snn(seed: u64) -> SnnNetwork {
    let mut b = NetworkBuilder::new(2, 4, seed);
    b.conv2d(3, 3, 1, 1);
    b.threshold_relu(0.8);
    b.maxpool(2);
    b.flatten();
    b.linear(4);
    SnnNetwork::from_network(&b.build(), &[SpikeSpec::identity(0.8)]).unwrap()
}

#[test]
fn obs_counters_agree_with_spike_stats() {
    let _guard = parallel::override_lock();
    let _obs = ull_obs::test_lock();
    ull_obs::reset();
    ull_obs::set_enabled(true);
    parallel::set_threads(1);
    let snn = tiny_snn(60);
    let x = normal(&[3, 2, 4, 4], 0.5, 1.0, &mut seeded_rng(61));
    let out = snn.forward(&x, 4);
    parallel::set_threads(0);
    ull_obs::set_enabled(false);
    let snap = ull_obs::snapshot();
    // Per-node counters mirror SpikeStats exactly; the prefix sum is
    // the whole-network total the energy audit reasons about.
    for (id, &s) in out.stats.spikes_per_node().iter().enumerate() {
        let key = format!("snn.spikes.node.{id}");
        assert_eq!(snap.counters.get(&key).copied().unwrap_or(0), s, "{key}");
    }
    assert_eq!(
        snap.counter_prefix_sum("snn.spikes.node."),
        out.stats.spikes_per_node().iter().sum::<u64>()
    );
    assert_eq!(
        snap.counters.get("snn.forward.images").copied(),
        Some(3),
        "one forward over a batch of 3"
    );
    assert_eq!(snap.spans["snn.forward"].count, 1);
}
