//! `SpikeStats::publish_to_obs` must mirror a forward's spike counts in
//! the obs registry exactly. The forward runs inside a private registry,
//! so nothing another test records can reach its counters.

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
    let reg = ull_obs::Registry::new();
    let snn = tiny_snn(60);
    let x = normal(&[3, 2, 4, 4], 0.5, 1.0, &mut seeded_rng(61));
    let out = parallel::with_threads(1, || ull_obs::with_registry(&reg, || snn.forward(&x, 4)));
    let snap = reg.snapshot();
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
