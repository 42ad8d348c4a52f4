//! Helpers shared by the `ull-snn` integration tests. Each test binary
//! compiles its own copy and uses a subset of it.
#![allow(dead_code)]

pub mod reference;

use ull_nn::Param;
use ull_snn::{SnnNetwork, SnnOp};
use ull_tensor::init::{normal, seeded_rng};

/// Gives every conv/linear node a non-zero bias. `NetworkBuilder` starts
/// biases at zero (or leaves them out), so without this an eval engine
/// that dropped a bias would still match its oracle.
pub fn with_biases(mut net: SnnNetwork, seed: u64) -> SnnNetwork {
    let mut rng = seeded_rng(seed);
    for node in net.nodes_mut() {
        if let SnnOp::Conv2d { weight, bias, .. } | SnnOp::Linear { weight, bias } = &mut node.op {
            let values = normal(&[weight.value.shape()[0]], 0.0, 0.3, &mut rng);
            *bias = Some(Param::new(values, false));
        }
    }
    net
}
