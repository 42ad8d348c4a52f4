//! `SnnNetwork::forward_until` under faulted replicas: the anytime
//! callback contract (monotone step indices, frozen rows stay frozen)
//! must survive static weight corruption, and results must be invariant
//! to `ULL_THREADS` — the serving layer's degradation ladder leans on
//! both properties when it early-exits on a quarantine-bound replica.

use ull_data::{generate, SynthCifarConfig};
use ull_nn::models;
use ull_robust::{
    anytime_forward_scheduled, AnytimeSchedule, FaultConfig, FaultedNetwork, InferenceFault,
};
use ull_snn::{SnnNetwork, SpikeSpec};
use ull_tensor::{parallel, Tensor};

fn faulted_replica(seed: u64, ber: f64) -> SnnNetwork {
    let dnn = models::vgg_micro(3, 8, 0.25, 17);
    let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
    let clean = SnnNetwork::from_network(&dnn, &specs).unwrap();
    let cfg = FaultConfig::new(seed).with(InferenceFault::WeightBitFlip { ber });
    FaultedNetwork::new(&clean, &cfg).network().clone()
}

fn test_images(batch: usize) -> Tensor {
    let (_, test) = generate(&SynthCifarConfig::tiny(3));
    test.eval_batches(batch).next().expect("test data").images
}

#[test]
fn callback_sees_monotone_step_indices_on_faulted_replicas() {
    let x = test_images(8);
    for seed in [1u64, 9, 23] {
        let net = faulted_replica(seed, 1e-3);
        let mut seen = Vec::new();
        let (_, steps) = net.forward_until(&x, 5, |t, mean| {
            assert_eq!(mean.shape(), &[8, 3], "callback logits keep batch shape");
            seen.push(t);
            true
        });
        assert_eq!(steps, 5);
        assert_eq!(seen, vec![1, 2, 3, 4, 5], "seed {seed}: steps not monotone");
    }
}

#[test]
fn early_stop_reports_steps_actually_run() {
    let net = faulted_replica(3, 1e-3);
    let x = test_images(4);
    let mut seen = Vec::new();
    let (out, steps) = net.forward_until(&x, 5, |t, _| {
        seen.push(t);
        t < 2
    });
    assert_eq!(steps, 2);
    assert_eq!(seen, vec![1, 2]);
    assert!(out.logits.all_finite());
}

#[test]
fn frozen_rows_never_unfreeze_on_faulted_replicas() {
    let x = test_images(16);
    for seed in [2u64, 11] {
        let net = faulted_replica(seed, 1e-3);
        let cfg = AnytimeSchedule::uniform(5, 0.02);
        let out = anytime_forward_scheduled(&net, &x, &cfg);

        // Reconstruct the per-step running argmaxes and check each row's
        // reported prediction equals the argmax at its freeze step — not
        // whatever later steps (simulated for other rows) said.
        let mut per_step_argmax: Vec<Vec<usize>> = Vec::new();
        net.forward_until(&x, out.steps_simulated, |_, mean| {
            per_step_argmax.push(mean.argmax_rows());
            true
        });
        for (r, (&steps_used, &pred)) in out.steps_used.iter().zip(&out.predictions).enumerate() {
            let freeze_step = steps_used.min(out.steps_simulated);
            assert_eq!(
                pred,
                per_step_argmax[freeze_step - 1][r],
                "seed {seed}: row {r} drifted after freezing at step {freeze_step}"
            );
        }
    }
}

#[test]
fn forward_until_and_anytime_are_thread_invariant_on_faulted_replicas() {
    let x = test_images(16);
    let net = faulted_replica(7, 1e-3);
    let cfg = AnytimeSchedule::uniform(4, 0.05);
    let run = || {
        (
            net.forward_until(&x, 4, |_, _| true),
            anytime_forward_scheduled(&net, &x, &cfg),
        )
    };

    let ((serial_out, serial_steps), serial_any) = parallel::with_threads(1, run);
    let ((par_out, par_steps), par_any) = parallel::with_threads(4, run);

    assert_eq!(serial_steps, par_steps);
    assert_eq!(
        serial_out
            .logits
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        par_out
            .logits
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "faulted forward_until logits must be bit-identical across thread counts"
    );
    assert_eq!(serial_out.stats, par_out.stats);
    assert_eq!(serial_any, par_any);
}
