//! Training and evaluation loops for DNNs.

use std::fmt;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use ull_data::{Augment, Dataset};
use ull_tensor::Tensor;

use crate::optim::MU_FLOOR;
use crate::{cross_entropy_grad, cross_entropy_loss, Network, NodeOp, Param, Sgd, TapeEntry};

/// Typed numeric-failure errors raised by the checked training loops.
///
/// Training close to degenerate regimes (trainable thresholds, surrogate
/// gradients on a near-step function) can blow up into NaN/Inf; the
/// checked loops surface that as data instead of poisoning the run or
/// panicking, so a supervisor can roll back to a checkpoint and retry.
/// (No serde: a NaN loss has no faithful JSON representation; recovery
/// logs record `Display` strings instead.)
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The batch loss came out NaN or ±∞.
    NonFiniteLoss {
        /// 0-based batch index within the epoch.
        batch: usize,
        /// The offending loss value (serialized as `null` in JSON).
        loss: f32,
    },
    /// A parameter gradient contains NaN or ±∞ (caught *before* the
    /// optimizer step, so parameter values are still clean).
    NonFiniteGrad {
        /// 0-based batch index within the epoch.
        batch: usize,
        /// Index of the parameter in `visit_params` order.
        param: usize,
        /// How many of its elements are non-finite.
        bad_elems: usize,
    },
    /// A recovery supervisor exhausted its retry budget: the run kept
    /// failing numerically even after rollback and LR backoff.
    Diverged {
        /// Phase label of the failing training loop (e.g. `"dnn-train"`).
        phase: String,
        /// Epoch that kept failing.
        epoch: usize,
        /// Number of rollback-and-retry attempts that were made.
        retries: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NonFiniteLoss { batch, loss } => {
                write!(f, "non-finite loss {loss} at batch {batch}")
            }
            TrainError::NonFiniteGrad {
                batch,
                param,
                bad_elems,
            } => write!(
                f,
                "non-finite gradient in param {param} ({bad_elems} element(s)) at batch {batch}"
            ),
            TrainError::Diverged {
                phase,
                epoch,
                retries,
            } => write!(
                f,
                "training diverged in phase {phase} at epoch {epoch} after {retries} retries"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// Configuration of one DNN training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Augmentation padding for random crops (0 disables).
    pub augment_pad: usize,
    /// Whether to apply random horizontal flips.
    pub augment_flip: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 32,
            augment_pad: 2,
            augment_flip: true,
        }
    }
}

/// Statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Training top-1 accuracy over the epoch (with augmentation applied).
    pub accuracy: f32,
    /// Wall-clock seconds spent.
    pub seconds: f64,
}

/// A network the shared optimizers ([`Sgd`], [`Adam`](crate::Adam)) and
/// the shared epoch loop ([`run_epoch`]) can train: the DNN and the
/// converted SNN.
pub trait Trainable {
    /// What a train-mode forward records for [`Trainable::backward`].
    type Tape;
    /// Span label of one training epoch.
    const EPOCH_SPAN: &'static str;
    /// Counter bumped once per training batch.
    const BATCH_COUNTER: &'static str;

    /// Applies `f` to every parameter.
    fn visit_params(&self, f: impl FnMut(&Param));

    /// Applies `f` to every parameter, mutably.
    fn visit_params_mut(&mut self, f: impl FnMut(&mut Param));

    /// Pulls every parameter back into its valid range after an
    /// optimizer step.
    fn clamp_params(&mut self);

    /// The mean logits `tape` recorded, `[N, classes]`.
    fn logits<'t>(&self, tape: &'t Self::Tape) -> &'t Tensor;

    /// Accumulates into every parameter the gradients of the loss whose
    /// logit gradient is `grad_logits`.
    fn backward(&mut self, tape: &Self::Tape, grad_logits: &Tensor);
}

impl Trainable for Network {
    type Tape = Vec<TapeEntry>;
    const EPOCH_SPAN: &'static str = "nn.train_epoch";
    const BATCH_COUNTER: &'static str = "nn.train.batches";

    fn visit_params(&self, f: impl FnMut(&Param)) {
        Network::visit_params(self, f);
    }

    fn visit_params_mut(&mut self, f: impl FnMut(&mut Param)) {
        Network::visit_params_mut(self, f);
    }

    /// Keeps every threshold μ at or above [`MU_FLOOR`]: the threshold
    /// ReLU `clip(x, 0, μ)` needs μ ≥ 0, but the optimizers update μ like
    /// any other scalar, and a large step could drive it negative.
    fn clamp_params(&mut self) {
        for node in self.nodes_mut() {
            if let NodeOp::ThresholdRelu { mu } = &mut node.op {
                for x in mu.value.data_mut() {
                    *x = x.max(MU_FLOOR);
                }
            }
        }
    }

    fn logits<'t>(&self, tape: &'t Self::Tape) -> &'t Tensor {
        &tape[self.output()].activation
    }

    fn backward(&mut self, tape: &Self::Tape, grad_logits: &Tensor) {
        Network::backward(self, tape, grad_logits);
    }
}

/// One training epoch of any [`Trainable`] network: the single loop under
/// [`train_epoch`], [`train_epoch_with_hook`] and the SNN's epochs.
///
/// Each batch is augmented, run through `forward` (the network's
/// train-mode forward), scored, and backpropagated; `check(net, batch,
/// loss)` then runs before the optimizer step, and an `Err` from it ends
/// the epoch with parameter values untouched by that batch. The loop
/// consumes `rng` the same way whatever `check` does.
///
/// # Errors
///
/// Whatever `check` returns.
#[allow(clippy::too_many_arguments)]
pub fn run_epoch<N: Trainable>(
    net: &mut N,
    train: &Dataset,
    sgd: &Sgd,
    lr_factor: f32,
    cfg: &TrainConfig,
    rng: &mut StdRng,
    mut forward: impl FnMut(&N, &Tensor, &mut StdRng) -> N::Tape,
    mut check: impl FnMut(&mut N, usize, f32) -> Result<(), TrainError>,
) -> Result<EpochStats, TrainError> {
    let _span = ull_obs::span(N::EPOCH_SPAN);
    let start = std::time::Instant::now();
    let augment = Augment {
        pad: cfg.augment_pad,
        flip: cfg.augment_flip,
    };
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    let mut seen = 0usize;
    for (b, mut batch) in train.epoch_batches(cfg.batch_size, rng).enumerate() {
        ull_obs::counter_add(N::BATCH_COUNTER, 1);
        augment.apply(&mut batch.images, rng);
        let tape = forward(net, &batch.images, rng);
        let logits = net.logits(&tape);
        let loss = cross_entropy_loss(logits, &batch.labels);
        let grad = cross_entropy_grad(logits, &batch.labels);
        for (pred, &label) in logits.argmax_rows().iter().zip(&batch.labels) {
            if *pred == label {
                correct += 1;
            }
        }
        total_loss += loss as f64 * batch.labels.len() as f64;
        seen += batch.labels.len();
        net.visit_params_mut(Param::zero_grad);
        net.backward(&tape, &grad);
        check(net, b, loss)?;
        sgd.step(net, lr_factor);
    }
    Ok(EpochStats {
        loss: (total_loss / seen.max(1) as f64) as f32,
        accuracy: correct as f32 / seen.max(1) as f32,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// The check of the `_with_hook` epochs: a non-finite loss fails with
/// [`TrainError::NonFiniteLoss`]; otherwise `hook(net, batch)` runs, then
/// a non-finite gradient fails with [`TrainError::NonFiniteGrad`].
pub fn finite_check<N: Trainable>(
    hook: &mut dyn FnMut(&mut N, usize),
) -> impl FnMut(&mut N, usize, f32) -> Result<(), TrainError> + '_ {
    move |net, batch, loss| {
        if !loss.is_finite() {
            return Err(TrainError::NonFiniteLoss { batch, loss });
        }
        hook(net, batch);
        let (mut param, mut bad) = (0usize, None);
        net.visit_params(|p| {
            if bad.is_none() && !p.grad.all_finite() {
                let bad_elems = p.grad.count_nonfinite();
                bad = Some(TrainError::NonFiniteGrad {
                    batch,
                    param,
                    bad_elems,
                });
            }
            param += 1;
        });
        bad.map_or(Ok(()), Err)
    }
}

/// Runs one training epoch of `net` on `train`, updating parameters with
/// `sgd` at learning-rate factor `lr_factor` (see [`LrSchedule::factor`]).
/// Never aborts: a non-finite loss or gradient trains on.
///
/// [`LrSchedule::factor`]: crate::LrSchedule::factor
pub fn train_epoch(
    net: &mut Network,
    train: &Dataset,
    sgd: &Sgd,
    lr_factor: f32,
    cfg: &TrainConfig,
    rng: &mut StdRng,
) -> EpochStats {
    run_epoch(
        net,
        train,
        sgd,
        lr_factor,
        cfg,
        rng,
        Network::forward_train,
        |_, _, _| Ok(()),
    )
    .expect("a check that always passes never aborts")
}

/// [`train_epoch`] that validates the loss and every gradient before each
/// optimizer step and aborts the epoch with a typed [`TrainError`] on the
/// first NaN/Inf, leaving parameter *values* untouched by the bad step.
/// `hook(net, batch_index)` runs after the backward pass and before the
/// gradient check: the seam the deterministic fault-injection harness
/// (`ull-core`'s `FaultPlan`) uses to poison a gradient at an exact,
/// reproducible point. Callers without one pass `&mut |_, _| {}`.
/// Consumes the RNG identically to [`train_epoch`] on the healthy path,
/// so the two are interchangeable in deterministic pipelines.
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] or [`TrainError::NonFiniteGrad`] at the
/// first numerically broken batch.
pub fn train_epoch_with_hook(
    net: &mut Network,
    train: &Dataset,
    sgd: &Sgd,
    lr_factor: f32,
    cfg: &TrainConfig,
    rng: &mut StdRng,
    hook: &mut dyn FnMut(&mut Network, usize),
) -> Result<EpochStats, TrainError> {
    run_epoch(
        net,
        train,
        sgd,
        lr_factor,
        cfg,
        rng,
        Network::forward_train,
        finite_check(hook),
    )
}

/// Top-1 accuracy of `net` on `data` (evaluation mode, no augmentation).
pub fn evaluate(net: &Network, data: &Dataset, batch_size: usize) -> f32 {
    let _span = ull_obs::span("nn.evaluate");
    let mut correct = 0usize;
    let mut seen = 0usize;
    for batch in data.eval_batches(batch_size) {
        let logits = net.forward_eval(&batch.images);
        for (pred, &label) in logits.argmax_rows().iter().zip(&batch.labels) {
            if *pred == label {
                correct += 1;
            }
        }
        seen += batch.labels.len();
    }
    correct as f32 / seen.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LrSchedule, NetworkBuilder, SgdConfig};
    use ull_data::{generate, SynthCifarConfig};
    use ull_tensor::init::seeded_rng;

    fn small_net(classes: usize, size: usize) -> Network {
        let mut b = NetworkBuilder::new(3, size, 17);
        b.conv2d(8, 3, 1, 1);
        b.threshold_relu(4.0);
        b.maxpool(2);
        b.conv2d(16, 3, 1, 1);
        b.threshold_relu(4.0);
        b.maxpool(2);
        b.flatten();
        b.linear(classes);
        b.build()
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let cfg = SynthCifarConfig::tiny(4);
        let (train_data, test_data) = generate(&cfg);
        let mut net = small_net(4, cfg.image_size);
        let sgd = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
        });
        let tcfg = TrainConfig {
            batch_size: 16,
            augment_pad: 0,
            augment_flip: false,
        };
        let mut rng = seeded_rng(5);
        let schedule = LrSchedule::paper(8);
        let stats: Vec<EpochStats> = (0..8)
            .map(|e| {
                train_epoch(
                    &mut net,
                    &train_data,
                    &sgd,
                    schedule.factor(e),
                    &tcfg,
                    &mut rng,
                )
            })
            .collect();
        assert!(
            stats.last().unwrap().loss < stats.first().unwrap().loss,
            "loss did not decrease: {:?}",
            stats.iter().map(|s| s.loss).collect::<Vec<_>>()
        );
        let acc = evaluate(&net, &test_data, 16);
        assert!(acc > 0.4, "test accuracy {acc} not above chance 0.25");
    }

    #[test]
    fn evaluate_is_deterministic() {
        let cfg = SynthCifarConfig::tiny(4);
        let (_, test_data) = generate(&cfg);
        let net = small_net(4, cfg.image_size);
        assert_eq!(evaluate(&net, &test_data, 8), evaluate(&net, &test_data, 8));
    }

    #[test]
    fn checked_epoch_matches_unchecked_bit_for_bit() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let sgd = Sgd::new(SgdConfig::default());
        let tcfg = TrainConfig::default();
        let mut a = small_net(3, cfg.image_size);
        let mut b = a.clone();
        let mut rng_a = seeded_rng(31);
        let mut rng_b = seeded_rng(31);
        let sa = train_epoch(&mut a, &train_data, &sgd, 1.0, &tcfg, &mut rng_a);
        let sb = train_epoch_with_hook(
            &mut b,
            &train_data,
            &sgd,
            1.0,
            &tcfg,
            &mut rng_b,
            &mut |_, _| {},
        )
        .unwrap();
        assert_eq!(sa.loss.to_bits(), sb.loss.to_bits());
        assert_eq!(sa.accuracy, sb.accuracy);
        let mut va = Vec::new();
        a.visit_params(|p| va.extend_from_slice(p.value.data()));
        let mut vb = Vec::new();
        b.visit_params(|p| vb.extend_from_slice(p.value.data()));
        assert!(va.iter().zip(&vb).all(|(x, y)| x.to_bits() == y.to_bits()));
        // Identical residual RNG state: the loops are interchangeable
        // mid-pipeline without perturbing downstream randomness.
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn checked_epoch_detects_injected_nan_gradient() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let mut net = small_net(3, cfg.image_size);
        let before = net.clone();
        let sgd = Sgd::new(SgdConfig::default());
        let mut rng = seeded_rng(32);
        let r = train_epoch_with_hook(
            &mut net,
            &train_data,
            &sgd,
            1.0,
            &TrainConfig::default(),
            &mut rng,
            &mut |n, b| {
                if b == 0 {
                    n.visit_params_mut(|p| p.grad.data_mut()[0] = f32::NAN);
                }
            },
        );
        match r {
            Err(TrainError::NonFiniteGrad { batch: 0, .. }) => {}
            other => panic!("expected NonFiniteGrad at batch 0, got {other:?}"),
        }
        // Caught before the step: parameter values are unpoisoned.
        let mut va = Vec::new();
        before.visit_params(|p| va.extend_from_slice(p.value.data()));
        let mut vb = Vec::new();
        net.visit_params(|p| vb.extend_from_slice(p.value.data()));
        assert_eq!(va, vb);
    }

    #[test]
    fn checked_epoch_detects_nan_weights_as_nonfinite_loss() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let mut net = small_net(3, cfg.image_size);
        // Poison a weight tensor (not the scalar threshold μ, whose NaN
        // would panic `clip` before the loss is even computed).
        net.visit_params_mut(|p| {
            if p.len() > 1 {
                p.value.data_mut()[0] = f32::NAN;
            }
        });
        let sgd = Sgd::new(SgdConfig::default());
        let mut rng = seeded_rng(33);
        let r = train_epoch_with_hook(
            &mut net,
            &train_data,
            &sgd,
            1.0,
            &TrainConfig::default(),
            &mut rng,
            &mut |_, _| {},
        );
        assert!(
            matches!(r, Err(TrainError::NonFiniteLoss { batch: 0, .. })),
            "{r:?}"
        );
    }

    #[test]
    fn epoch_stats_fields_are_sane() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let mut net = small_net(3, cfg.image_size);
        let sgd = Sgd::new(SgdConfig::default());
        let mut rng = seeded_rng(2);
        let s = train_epoch(
            &mut net,
            &train_data,
            &sgd,
            1.0,
            &TrainConfig::default(),
            &mut rng,
        );
        assert!(s.loss.is_finite() && s.loss > 0.0);
        assert!((0.0..=1.0).contains(&s.accuracy));
        assert!(s.seconds >= 0.0);
    }
}
