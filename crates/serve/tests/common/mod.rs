//! Fixtures shared by the `ull-serve` integration tests. Each test binary
//! compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::models;
use ull_robust::{profile_envelope, FaultConfig, FaultedNetwork, InferenceFault};
use ull_serve::{Engine, ReplicaSpec, Request, ServeConfig};
use ull_snn::{SnnNetwork, SpikeSpec};

pub const CLASSES: usize = 3;
pub const SIDE: usize = 8;

pub fn clean_net(seed: u64) -> SnnNetwork {
    let dnn = models::vgg_micro(CLASSES, SIDE, 0.25, seed);
    let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
    SnnNetwork::from_network(&dnn, &specs).unwrap()
}

pub fn faulted_net(seed: u64, ber: f64) -> SnnNetwork {
    let clean = clean_net(seed);
    let cfg = FaultConfig::new(seed).with(InferenceFault::WeightBitFlip { ber });
    FaultedNetwork::new(&clean, &cfg).network().clone()
}

pub fn test_data() -> Dataset {
    let (_, test) = generate(&SynthCifarConfig::tiny(CLASSES));
    test
}

/// One request per test image, flattened.
pub fn requests(data: &Dataset, n: usize) -> Vec<Request> {
    data.eval_batches(1)
        .take(n)
        .enumerate()
        .map(|(i, b)| Request {
            id: i as u64 + 1,
            pixels: b.images.data().to_vec(),
            shape: vec![3, SIDE, SIDE],
            deadline_ms: None,
        })
        .collect()
}

pub fn replica(
    name: &str,
    net: SnnNetwork,
    profile_on: &Dataset,
    cfg: &ServeConfig,
) -> ReplicaSpec {
    // Profile the *clean* dynamics at both fixed-T rungs with per-sample
    // batches, matching how the tests submit traffic.
    let clean = clean_net(11);
    ReplicaSpec {
        name: name.to_string(),
        net,
        envelope_full: Some(profile_envelope(&clean, profile_on, cfg.t_full, 1)),
        envelope_reduced: Some(profile_envelope(&clean, profile_on, cfg.t_reduced, 1)),
    }
}

pub fn base_config() -> ServeConfig {
    ServeConfig {
        input_shape: vec![3, SIDE, SIDE],
        t_full: 4,
        t_reduced: 2,
        workers: 2,
        queue_capacity: 64,
        max_batch: 4,
        max_linger_ms: 1,
        default_deadline_ms: 30_000,
        // Quarantine far longer than any test so a tripped breaker never
        // half-opens mid-assertion.
        backoff_base_ms: 120_000,
        backoff_max_ms: 600_000,
        ..ServeConfig::default()
    }
}

/// An engine over `replicas` that records into its own fresh registry
/// (read back through [`Engine::registry`]), so tests running in
/// parallel never mix counts.
pub fn private_engine(cfg: &ServeConfig, replicas: Vec<ReplicaSpec>) -> Engine {
    ull_obs::with_registry(&ull_obs::Registry::new(), || {
        Engine::new(cfg.clone(), replicas, None)
    })
}

/// [`private_engine`] with one clean replica named `primary`.
pub fn primary_engine(cfg: &ServeConfig, data: &Dataset) -> Engine {
    private_engine(cfg, vec![replica("primary", clean_net(11), data, cfg)])
}
