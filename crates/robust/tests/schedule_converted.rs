//! Regression: per-step margin schedules make early exit work on
//! *converted* α/β networks, where the single global margin of PR 4
//! documentedly idled (output spikes land only in the last steps, so the
//! global gate — dominated by last-step margins — never fires early).

use ull_core::{convert, ConversionMethod};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::models;
use ull_robust::{
    anytime_forward_scheduled, calibrate_margin, calibrate_margin_schedule, AnytimeSchedule,
};
use ull_snn::{evaluate_snn, SnnNetwork};

fn accuracy_and_mean_steps<F>(data: &Dataset, forward: F) -> (f32, f64)
where
    F: Fn(&ull_tensor::Tensor) -> ull_robust::AnytimeOutput,
{
    let mut correct = 0usize;
    let mut seen = 0usize;
    let mut steps = 0usize;
    for batch in data.eval_batches(16) {
        let out = forward(&batch.images);
        for (pred, &label) in out.predictions.iter().zip(&batch.labels) {
            if *pred == label {
                correct += 1;
            }
        }
        steps += out.steps_used.iter().sum::<usize>();
        seen += batch.labels.len();
    }
    (correct as f32 / seen as f32, steps as f64 / seen as f64)
}

fn converted_net(t: usize) -> (SnnNetwork, Dataset, Dataset) {
    let cfg = SynthCifarConfig::tiny(3);
    let (train, test) = generate(&cfg);
    let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 29);
    let (snn, _) = convert(&dnn, &train, ConversionMethod::AlphaBeta, t).expect("conversion");
    (snn, train, test)
}

#[test]
fn schedule_fires_early_exits_on_converted_nets() {
    let t_max = 5;
    let (snn, train, test) = converted_net(t_max);
    let target = 0.95;

    // Calibrate both gates on train data, evaluate on test data.
    let global = calibrate_margin(&snn, &train, t_max, 16, target);
    let schedule = calibrate_margin_schedule(&snn, &train, t_max, 16, target);

    let (full_acc, _) = evaluate_snn(&snn, &test, t_max, 16);
    let cfg = AnytimeSchedule::uniform(t_max, global);
    let (_, global_steps) =
        accuracy_and_mean_steps(&test, |x| anytime_forward_scheduled(&snn, x, &cfg));
    let (sched_acc, sched_steps) =
        accuracy_and_mean_steps(&test, |x| anytime_forward_scheduled(&snn, x, &schedule));

    assert!(
        sched_steps < t_max as f64,
        "schedule saved no steps on the converted net (mean {sched_steps:.2} of {t_max})"
    );
    assert!(
        sched_steps <= global_steps + 1e-9,
        "schedule (mean {sched_steps:.2}) must not be slower than the global gate \
         (mean {global_steps:.2})"
    );
    assert!(
        sched_acc >= full_acc - 0.01 - f32::EPSILON,
        "scheduled accuracy {sched_acc:.4} lost more than 1 pt vs full-T {full_acc:.4}"
    );
}

#[test]
fn schedule_disables_silent_leading_steps_on_converted_nets() {
    // At T = 3 the converted net's output stays silent before the final
    // step (the documented PR-4 limitation). The schedule must encode
    // that as infinite gates rather than firing on degenerate margins.
    let t_max = 3;
    let (snn, train, test) = converted_net(t_max);
    let schedule = calibrate_margin_schedule(&snn, &train, t_max, 16, 0.95);
    let batch = test.eval_batches(32).next().expect("test data");
    let out = anytime_forward_scheduled(&snn, &batch.images, &schedule);
    let full = snn.forward(&batch.images, t_max);
    for (gate, t) in schedule.margins.iter().zip(1..) {
        if gate.is_infinite() {
            assert!(
                out.steps_used.iter().all(|&s| s != t),
                "no sample may exit at disabled step {t}"
            );
        }
    }
    // Samples that never exited early must reproduce the full-T answer.
    for (r, &steps) in out.steps_used.iter().enumerate() {
        if steps == t_max {
            assert_eq!(out.predictions[r], full.logits.argmax_rows()[r]);
        }
    }
}
