//! Stale-pack guard: every `&mut` accessor that can reach the weights
//! drops the network's pack, and the next forward re-packs the live
//! weights. The oracle is the unpacked reference step of
//! `tests/common/reference.rs`, which reads the weights straight from the
//! nodes: a stale pack would reproduce the old weights and diverge.

mod common;

use std::sync::Arc;

use common::reference::reference_run;
use common::with_biases;
use ull_nn::NetworkBuilder;
use ull_snn::{SnnNetwork, SnnOp, SpikeSpec};
use ull_tensor::init::{normal, seeded_rng};

fn test_net(seed: u64) -> SnnNetwork {
    let mut b = NetworkBuilder::new(2, 8, seed);
    b.conv2d(4, 3, 1, 1);
    b.threshold_relu(0.7);
    b.flatten();
    b.linear(5);
    let dnn = b.build();
    let snn = SnnNetwork::from_network(&dnn, &[SpikeSpec::scaled(0.7, 0.8, 1.2)]).unwrap();
    with_biases(snn, seed)
}

#[test]
fn packing_is_dropped_by_every_mut_accessor() {
    let x = normal(&[2, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(30));
    type Mutate = fn(&mut SnnNetwork);
    let mutations: [(&str, Mutate); 3] = [
        ("nodes_mut", |net| {
            for node in net.nodes_mut() {
                if let SnnOp::Conv2d { weight, .. } = &mut node.op {
                    weight.value.data_mut()[0] += 0.25;
                }
            }
        }),
        ("visit_params_mut", |net| {
            net.visit_params_mut(|p| {
                if p.value.rank() > 1 {
                    p.value.scale_in_place(1.5);
                }
            })
        }),
        ("fold_amplitudes", |net| net.fold_amplitudes().unwrap()),
    ];
    for (name, mutate) in mutations {
        let original = test_net(3);
        let before = original.prepack();
        let mut net = original.clone();
        mutate(&mut net);
        let after = net.prepack();
        assert!(!Arc::ptr_eq(&before, &after), "{name} reused the old pack");
        assert!(
            Arc::ptr_eq(&before, &original.prepack()),
            "{name} on a clone touched the original's pack"
        );
        assert_eq!(
            net.forward(&x, 3).logits,
            reference_run(&net, &x, 3, None).logits,
            "{name}: packed forward diverged from the unpacked reference"
        );
    }
}
