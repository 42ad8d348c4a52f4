//! Thread-count invariance of the resilience machinery.
//!
//! Every fault decision is a pure function of coordinates, so faulted
//! inference, watchdog checks, anytime inference and whole sweep reports
//! must be bit-identical whether the tensor pool runs 1 or 4 workers —
//! the robustness analogue of the recovery suite's bit-identity tests.

use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::{models, Network};
use ull_robust::{
    anytime_forward_scheduled, evaluate_faulted, resilience_sweep, AnytimeSchedule, FaultConfig,
    FaultedNetwork, InferenceFault, SweepConfig,
};
use ull_snn::{SnnNetwork, SpikeSpec};
use ull_tensor::parallel;

fn setup() -> (Network, SnnNetwork, Dataset) {
    let cfg = SynthCifarConfig::tiny(3);
    let (_, test) = generate(&cfg);
    let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 19);
    let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
    let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
    (dnn, snn, test)
}

/// Runs `f` under 1 worker and under 4 workers and returns both results.
fn at_threads<T>(mut f: impl FnMut() -> T) -> (T, T) {
    (
        parallel::with_threads(1, &mut f),
        parallel::with_threads(4, f),
    )
}

#[test]
fn faulted_evaluation_is_thread_invariant() {
    let (_, snn, data) = setup();
    let cfg = FaultConfig::new(77)
        .with(InferenceFault::WeightBitFlip { ber: 1e-3 })
        .with(InferenceFault::SpikeDelete { rate: 0.2 })
        .with(InferenceFault::SpikeInsert { rate: 0.05 })
        .with(InferenceFault::InputNoise { sigma: 0.1 });
    let faulted = FaultedNetwork::new(&snn, &cfg);
    let (r1, r4) = at_threads(|| evaluate_faulted(&faulted, &data, 3, 16));
    assert_eq!(
        r1.0.to_bits(),
        r4.0.to_bits(),
        "accuracy differs by thread count"
    );
    assert_eq!(
        r1.1.spikes_per_node(),
        r4.1.spikes_per_node(),
        "spike counters differ by thread count"
    );
}

#[test]
fn sweep_report_is_thread_invariant() {
    let (dnn, snn, data) = setup();
    let cfg = SweepConfig::smoke(5);
    let (a, b) = at_threads(|| resilience_sweep(&dnn, &snn, &data, &cfg));
    assert_eq!(a, b, "sweep reports differ by thread count");
    // Serialized artifacts must match byte for byte too.
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn anytime_inference_is_thread_invariant() {
    let (_, snn, data) = setup();
    let batch = data.eval_batches(16).next().unwrap();
    let cfg = AnytimeSchedule::uniform(4, 0.02);
    let (a, b) = at_threads(|| anytime_forward_scheduled(&snn, &batch.images, &cfg));
    assert_eq!(a, b, "anytime decisions differ by thread count");
}
