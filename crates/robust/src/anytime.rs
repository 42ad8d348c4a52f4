//! Deadline-aware anytime inference.
//!
//! A T-step SNN normally commits to its prediction only after all T steps.
//! Under a latency deadline that is wasteful: for most inputs the
//! running-mean logits already separate after one or two steps, and extra
//! steps only confirm the decision. [`anytime_forward`] emits each
//! sample's prediction at the first step `t ≤ T` where the logit margin
//! (top-1 minus top-2 of the running mean) clears a gate, falling back to
//! the full-T prediction for samples that never clear it — graceful
//! degradation instead of a missed deadline.
//!
//! The gate is data-calibrated: [`calibrate_margin`] picks the smallest
//! margin whose early decisions agree with the full-T argmax on at least a
//! target fraction of calibration samples, so the accuracy cost of early
//! exit is bounded by construction.

use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_snn::SnnNetwork;
use ull_tensor::Tensor;

/// Configuration for deadline-aware inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnytimeConfig {
    /// Deadline: maximum time steps to simulate.
    pub t_max: usize,
    /// Logit-margin gate: a sample commits once `top1 − top2` of its
    /// running-mean logits reaches this value. Calibrate with
    /// [`calibrate_margin`].
    pub margin: f32,
    /// Minimum steps before any sample may commit (≥ 1).
    pub min_steps: usize,
}

impl AnytimeConfig {
    /// A gate at `margin` with deadline `t_max` and no minimum beyond the
    /// first step.
    pub fn new(t_max: usize, margin: f32) -> Self {
        AnytimeConfig {
            t_max,
            margin,
            min_steps: 1,
        }
    }
}

/// Result of a deadline-aware run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnytimeOutput {
    /// Per-sample predicted class, frozen at its decision step.
    pub predictions: Vec<usize>,
    /// Per-sample step at which the prediction was frozen (1-based;
    /// `t_max` for samples that never cleared the gate).
    pub steps_used: Vec<usize>,
    /// Per-sample running-mean logits, `[N, classes]`, frozen at the
    /// sample's decision step: row `r` equals row `r` of
    /// `forward(x, steps_used[r])` bit for bit.
    pub logits: Tensor,
    /// Steps actually simulated (the last step at which some sample was
    /// still undecided; the network can stop here).
    pub steps_simulated: usize,
}

impl AnytimeOutput {
    /// Mean steps-to-decision across the batch.
    pub fn mean_steps(&self) -> f64 {
        if self.steps_used.is_empty() {
            return 0.0;
        }
        self.steps_used.iter().sum::<usize>() as f64 / self.steps_used.len() as f64
    }
}

/// Per-row argmax and top-1/top-2 margin of a `[N, classes]` tensor.
///
/// Ties give a zero margin. A one-class row has margin `+∞`: its argmax
/// cannot change, so every gate treats it as decided.
fn row_margins(logits: &Tensor) -> Vec<(usize, f32)> {
    let rows = logits.shape()[0];
    let classes = logits.len() / rows.max(1);
    let data = logits.data();
    (0..rows)
        .map(|r| {
            let row = &data[r * classes..(r + 1) * classes];
            let mut best = 0usize;
            let mut top1 = f32::NEG_INFINITY;
            let mut top2 = f32::NEG_INFINITY;
            // `>=` so ties resolve to the last index, matching
            // `Tensor::argmax_rows`.
            for (c, &v) in row.iter().enumerate() {
                if v >= top1 {
                    top2 = top1;
                    top1 = v;
                    best = c;
                } else if v > top2 {
                    top2 = v;
                }
            }
            (best, top1 - top2)
        })
        .collect()
}

/// Runs deadline-aware inference on one batch.
///
/// Simulation stops as soon as every sample has committed, so a batch
/// whose samples all clear the gate early also *costs* fewer steps.
/// Decisions freeze: a sample's prediction is whatever the running mean
/// said at its decision step, even if later steps (simulated for the
/// benefit of still-undecided samples) would have changed it.
///
/// # Panics
///
/// Panics if `cfg.t_max == 0`.
pub fn anytime_forward(snn: &SnnNetwork, x: &Tensor, cfg: &AnytimeConfig) -> AnytimeOutput {
    anytime_forward_gated(snn, x, cfg.t_max, cfg.min_steps, |_| cfg.margin)
}

/// A per-timestep margin schedule: `margins[t - 1]` is the gate a sample's
/// running-mean margin must clear to commit at step `t`.
///
/// A single global margin assumes every step's margins live on one scale.
/// They do not: converted α/β networks need several steps to charge their
/// membranes, so early steps carry few or no output spikes, and the
/// running mean divides by `t`, shrinking early margins further. A global
/// gate calibrated over all steps is dominated by last-step margins and
/// idles on the steps where exiting actually saves work (the PR-4
/// limitation). Per-step calibration gives each step a gate matched to
/// its own margin distribution: degenerate steps (no output activity yet)
/// get an infinite gate — never a bogus exit — while informative
/// intermediate steps get a gate low enough to fire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnytimeSchedule {
    /// Per-step gates, `margins[t - 1]` for step `t`; length = `t_max`.
    /// `f32::INFINITY` disables early exit at that step.
    pub margins: Vec<f32>,
    /// Minimum steps before any sample may commit (≥ 1).
    pub min_steps: usize,
}

impl AnytimeSchedule {
    /// The deadline (`t_max`) this schedule was calibrated for.
    pub fn t_max(&self) -> usize {
        self.margins.len()
    }

    /// A uniform schedule equivalent to [`AnytimeConfig`] with `margin`.
    pub fn uniform(t_max: usize, margin: f32) -> Self {
        AnytimeSchedule {
            margins: vec![margin; t_max],
            min_steps: 1,
        }
    }
}

/// Runs deadline-aware inference with a per-step margin schedule.
///
/// # Panics
///
/// Panics if `schedule.margins` is empty.
pub fn anytime_forward_scheduled(
    snn: &SnnNetwork,
    x: &Tensor,
    schedule: &AnytimeSchedule,
) -> AnytimeOutput {
    anytime_forward_gated(snn, x, schedule.t_max(), schedule.min_steps, |t| {
        schedule.margins[t - 1]
    })
}

/// Shared body of [`anytime_forward`] and [`anytime_forward_scheduled`]:
/// `gate_at(t)` supplies the margin a sample must clear at step `t`.
fn anytime_forward_gated(
    snn: &SnnNetwork,
    x: &Tensor,
    t_max: usize,
    min_steps: usize,
    gate_at: impl Fn(usize) -> f32,
) -> AnytimeOutput {
    let _span = ull_obs::span("robust.anytime.forward");
    assert!(t_max > 0, "need at least one time step");
    let batch = x.shape()[0];
    let mut predictions = vec![0usize; batch];
    let mut steps_used = vec![t_max; batch];
    let mut decided = vec![false; batch];
    let min_steps = min_steps.max(1);
    let mut logits: Option<Tensor> = None;
    let (_, steps_simulated) = snn.forward_until(x, t_max, |t, mean| {
        let gate = gate_at(t);
        let frozen = logits.get_or_insert_with(|| mean.clone());
        let classes = mean.len() / batch.max(1);
        let mut undecided = 0;
        for (r, (argmax, margin)) in row_margins(mean).into_iter().enumerate() {
            if decided[r] {
                continue;
            }
            // Track the running prediction and logits so a sample that
            // never clears the gate ends with the full-deadline answer.
            predictions[r] = argmax;
            let row = r * classes..(r + 1) * classes;
            frozen.data_mut()[row.clone()].copy_from_slice(&mean.data()[row]);
            if t >= min_steps && margin >= gate {
                decided[r] = true;
                steps_used[r] = t;
            } else {
                undecided += 1;
            }
        }
        undecided > 0 && t < t_max
    });
    ull_obs::counter_add("robust.anytime.samples", batch as u64);
    ull_obs::counter_add(
        "robust.anytime.steps_saved",
        steps_used.iter().map(|&s| (t_max - s) as u64).sum(),
    );
    AnytimeOutput {
        predictions,
        steps_used,
        logits: logits.expect("forward_until runs at least one step"),
        steps_simulated,
    }
}

/// Calibrates the margin gate on clean data.
///
/// For every calibration sample the per-step running-mean margins and
/// argmaxes are recorded along with the full-`t_max` argmax. The returned
/// margin is the smallest observed value such that gating on it keeps
/// early decisions in agreement with the full-deadline prediction on at
/// least `target_agreement` of the samples. If no margin meets the target
/// the maximum observed margin is returned (the gate then effectively
/// disables early exit — the conservative fallback).
///
/// # Panics
///
/// Panics if `t_max == 0` or `data` has no evaluation batches.
pub fn calibrate_margin(
    snn: &SnnNetwork,
    data: &Dataset,
    t_max: usize,
    batch_size: usize,
    target_agreement: f64,
) -> f32 {
    let _span = ull_obs::span("robust.anytime.calibrate");
    let traces = collect_margin_traces(snn, data, t_max, batch_size);

    // Candidate gates: every margin observed at a step before the last —
    // gating exactly at an observed value makes that sample (and any with
    // a larger margin) exit there.
    let mut candidates: Vec<f32> = traces
        .iter()
        .flat_map(|(steps, _)| steps[..steps.len() - 1].iter().map(|&(_, m)| m))
        .filter(|m| m.is_finite())
        .collect();
    candidates.sort_by(f32::total_cmp);
    candidates.dedup();

    let agreement = |gate: f32| -> f64 {
        let agree = traces
            .iter()
            .filter(|(steps, final_pred)| {
                let decided = steps
                    .iter()
                    .find(|(_, m)| *m >= gate)
                    .map(|(p, _)| *p)
                    .unwrap_or(*final_pred);
                decided == *final_pred
            })
            .count();
        agree as f64 / traces.len() as f64
    };

    for &gate in &candidates {
        if agreement(gate) >= target_agreement {
            return gate;
        }
    }
    // Nothing met the target: disable early exit.
    candidates.last().map(|&m| m + 1.0).unwrap_or(f32::INFINITY)
}

/// Records, for every calibration sample, the per-step `(argmax, margin)`
/// of the running-mean logits plus the full-`t_max` argmax.
///
/// # Panics
///
/// Panics if `t_max == 0` or `data` has no evaluation batches.
fn collect_margin_traces(
    snn: &SnnNetwork,
    data: &Dataset,
    t_max: usize,
    batch_size: usize,
) -> Vec<(Vec<(usize, f32)>, usize)> {
    assert!(t_max > 0, "need at least one time step");
    let mut traces: Vec<(Vec<(usize, f32)>, usize)> = Vec::new();
    for batch in data.eval_batches(batch_size) {
        let rows = batch.images.shape()[0];
        let mut per_step: Vec<Vec<(usize, f32)>> = vec![Vec::with_capacity(t_max); rows];
        let (out, _) = snn.forward_until(&batch.images, t_max, |_, mean| {
            for (r, am) in row_margins(mean).into_iter().enumerate() {
                per_step[r].push(am);
            }
            true
        });
        for (r, &final_pred) in out.logits.argmax_rows().iter().enumerate() {
            traces.push((std::mem::take(&mut per_step[r]), final_pred));
        }
    }
    assert!(!traces.is_empty(), "dataset has no evaluation batches");
    traces
}

/// Calibrates a per-step margin schedule (see [`AnytimeSchedule`]).
///
/// For each step `t < t_max` the gate is the smallest margin observed at
/// that step such that, among the calibration samples whose step-`t`
/// margin clears it, the step-`t` argmax agrees with the full-deadline
/// argmax on at least `target_agreement` of them. Steps where no gate
/// meets the target — in particular steps where a converted network has
/// produced no output spikes yet, so every margin is a degenerate zero —
/// get `f32::INFINITY`: no sample exits there. The final step's gate is
/// `0.0` (the deadline commits every remaining sample regardless).
///
/// # Panics
///
/// Panics if `t_max == 0` or `data` has no evaluation batches.
pub fn calibrate_margin_schedule(
    snn: &SnnNetwork,
    data: &Dataset,
    t_max: usize,
    batch_size: usize,
    target_agreement: f64,
) -> AnytimeSchedule {
    let _span = ull_obs::span("robust.anytime.calibrate_schedule");
    let traces = collect_margin_traces(snn, data, t_max, batch_size);
    let mut margins = Vec::with_capacity(t_max);
    for step in 0..t_max.saturating_sub(1) {
        // Only strictly positive margins are meaningful gates: a zero
        // margin means the output layer has produced no discriminative
        // signal yet (e.g. no output spikes), so its argmax is a tie-break
        // artefact — never a reason to exit, even when it happens to agree
        // with the final answer on calibration data.
        let mut candidates: Vec<f32> = traces
            .iter()
            .map(|(steps, _)| steps[step].1)
            .filter(|m| m.is_finite() && *m > 0.0)
            .collect();
        candidates.sort_by(f32::total_cmp);
        candidates.dedup();
        let mut chosen = f32::INFINITY;
        for &gate in &candidates {
            let mut cleared = 0usize;
            let mut agreed = 0usize;
            for (steps, final_pred) in &traces {
                let (argmax, margin) = steps[step];
                if margin >= gate {
                    cleared += 1;
                    if argmax == *final_pred {
                        agreed += 1;
                    }
                }
            }
            if cleared > 0 && agreed as f64 / cleared as f64 >= target_agreement {
                chosen = gate;
                break;
            }
        }
        margins.push(chosen);
    }
    margins.push(0.0);
    AnytimeSchedule {
        margins,
        min_steps: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;
    use ull_snn::{evaluate_snn, SpikeSpec};

    fn setup() -> (SnnNetwork, Dataset) {
        let cfg = SynthCifarConfig::tiny(3);
        let (_, test) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 23);
        let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
        (SnnNetwork::from_network(&dnn, &specs).unwrap(), test)
    }

    #[test]
    fn infinite_margin_reproduces_full_deadline_predictions() {
        let (snn, data) = setup();
        let batch = data.eval_batches(16).next().unwrap();
        let cfg = AnytimeConfig::new(4, f32::INFINITY);
        let out = anytime_forward(&snn, &batch.images, &cfg);
        let full = snn.forward(&batch.images, 4);
        assert_eq!(out.predictions, full.logits.argmax_rows());
        assert!(out.steps_used.iter().all(|&s| s == 4));
        assert_eq!(out.steps_simulated, 4);
    }

    #[test]
    fn zero_margin_decides_every_sample_at_the_first_step() {
        let (snn, data) = setup();
        let batch = data.eval_batches(16).next().unwrap();
        let cfg = AnytimeConfig::new(4, 0.0);
        let out = anytime_forward(&snn, &batch.images, &cfg);
        assert!(out.steps_used.iter().all(|&s| s == 1));
        assert_eq!(out.steps_simulated, 1, "all decided — simulation must stop");
        let one_step = snn.forward(&batch.images, 1);
        assert_eq!(out.predictions, one_step.logits.argmax_rows());
    }

    #[test]
    fn min_steps_defers_decisions() {
        let (snn, data) = setup();
        let batch = data.eval_batches(8).next().unwrap();
        let cfg = AnytimeConfig {
            t_max: 4,
            margin: 0.0,
            min_steps: 3,
        };
        let out = anytime_forward(&snn, &batch.images, &cfg);
        assert!(out.steps_used.iter().all(|&s| s == 3));
    }

    #[test]
    fn calibrated_gate_meets_agreement_and_beats_the_deadline() {
        let (snn, data) = setup();
        let t_max = 5;
        let target = 0.98;
        let margin = calibrate_margin(&snn, &data, t_max, 16, target);
        assert!(margin.is_finite());
        let cfg = AnytimeConfig::new(t_max, margin);

        let (full_acc, _) = evaluate_snn(&snn, &data, t_max, 16);
        let mut correct = 0usize;
        let mut seen = 0usize;
        let mut total_steps = 0usize;
        for batch in data.eval_batches(16) {
            let out = anytime_forward(&snn, &batch.images, &cfg);
            for (pred, &label) in out.predictions.iter().zip(&batch.labels) {
                if *pred == label {
                    correct += 1;
                }
            }
            total_steps += out.steps_used.iter().sum::<usize>();
            seen += batch.labels.len();
        }
        let anytime_acc = correct as f32 / seen as f32;
        let mean_steps = total_steps as f64 / seen as f64;
        assert!(
            mean_steps < t_max as f64,
            "anytime inference saved no steps (mean {mean_steps:.2} of {t_max})"
        );
        assert!(
            (full_acc - anytime_acc).abs() <= 0.01 + f32::EPSILON,
            "anytime accuracy {anytime_acc:.4} drifted more than 1 pt from full-T {full_acc:.4}"
        );
    }

    #[test]
    fn uniform_schedule_matches_global_margin() {
        let (snn, data) = setup();
        let batch = data.eval_batches(16).next().unwrap();
        let cfg = AnytimeConfig::new(4, 0.05);
        let schedule = AnytimeSchedule::uniform(4, 0.05);
        assert_eq!(
            anytime_forward(&snn, &batch.images, &cfg),
            anytime_forward_scheduled(&snn, &batch.images, &schedule),
        );
    }

    #[test]
    fn calibrated_schedule_saves_steps_on_identity_nets() {
        let (snn, data) = setup();
        let t_max = 5;
        let schedule = calibrate_margin_schedule(&snn, &data, t_max, 16, 0.98);
        assert_eq!(schedule.t_max(), t_max);
        let (full_acc, _) = evaluate_snn(&snn, &data, t_max, 16);
        let mut correct = 0usize;
        let mut seen = 0usize;
        let mut total_steps = 0usize;
        for batch in data.eval_batches(16) {
            let out = anytime_forward_scheduled(&snn, &batch.images, &schedule);
            for (pred, &label) in out.predictions.iter().zip(&batch.labels) {
                if *pred == label {
                    correct += 1;
                }
            }
            total_steps += out.steps_used.iter().sum::<usize>();
            seen += batch.labels.len();
        }
        let acc = correct as f32 / seen as f32;
        let mean_steps = total_steps as f64 / seen as f64;
        assert!(
            mean_steps < t_max as f64,
            "schedule saved no steps (mean {mean_steps:.2} of {t_max})"
        );
        assert!(
            (full_acc - acc).abs() <= 0.01 + f32::EPSILON,
            "scheduled accuracy {acc:.4} drifted more than 1 pt from full-T {full_acc:.4}"
        );
    }

    #[test]
    fn degenerate_early_steps_get_infinite_gates() {
        // Thresholds far above what one step of input can charge: no
        // spikes reach the output before several steps, so every step-1
        // margin is a degenerate zero. The schedule must disable exit
        // there rather than committing to garbage argmaxes.
        let cfg = SynthCifarConfig::tiny(3);
        let (_, test) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 31);
        let specs = vec![SpikeSpec::identity(50.0); dnn.threshold_nodes().len()];
        let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let schedule = calibrate_margin_schedule(&snn, &test, 4, 16, 0.95);
        assert!(
            schedule.margins[0].is_infinite(),
            "silent first step must have an infinite gate, got {:?}",
            schedule.margins
        );
        // And no sample may exit at a disabled step.
        let batch = test.eval_batches(16).next().unwrap();
        let out = anytime_forward_scheduled(&snn, &batch.images, &schedule);
        assert!(out.steps_used.iter().all(|&s| s > 1));
    }

    #[test]
    fn row_margins_handles_degenerate_rows() {
        let rows = |data: Vec<f32>, classes: usize| {
            let n = data.len() / classes;
            row_margins(&Tensor::from_vec(data, &[n, classes]).unwrap())
        };
        assert_eq!(rows(vec![1.0, 3.0, 2.0], 3), vec![(1, 1.0)]);
        // Ties: zero margin, argmax on the last tied index (as
        // `Tensor::argmax_rows`).
        assert_eq!(rows(vec![0.0, 0.0, 0.0], 3), vec![(2, 0.0)]);
        assert_eq!(rows(vec![2.0, 5.0, 5.0, 1.0], 4), vec![(2, 0.0)]);
        // One class: the argmax cannot change, so the row is decided.
        assert_eq!(rows(vec![5.0, -1.0], 1), vec![(0, f32::INFINITY); 2]);
    }

    #[test]
    fn frozen_logits_match_forward_at_each_rows_exit_step() {
        let (snn, data) = setup();
        let batch = data.eval_batches(16).next().unwrap();
        let t_max = 4;
        let schedule = calibrate_margin_schedule(&snn, &data, t_max, 16, 0.9);
        let out = anytime_forward_scheduled(&snn, &batch.images, &schedule);
        let classes = out.logits.shape()[1];
        let refs: Vec<Tensor> = (1..=t_max)
            .map(|t| snn.forward(&batch.images, t).logits)
            .collect();
        for (r, &steps) in out.steps_used.iter().enumerate() {
            let row = r * classes..(r + 1) * classes;
            assert_eq!(
                out.logits.data()[row.clone()],
                refs[steps - 1].data()[row],
                "row {r} frozen at step {steps}"
            );
        }
        assert_eq!(out.predictions, out.logits.argmax_rows());
    }

    #[test]
    fn anytime_is_deterministic() {
        let (snn, data) = setup();
        let batch = data.eval_batches(8).next().unwrap();
        let cfg = AnytimeConfig::new(3, 0.05);
        let a = anytime_forward(&snn, &batch.images, &cfg);
        let b = anytime_forward(&snn, &batch.images, &cfg);
        assert_eq!(a, b);
    }
}
