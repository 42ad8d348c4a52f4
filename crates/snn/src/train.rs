//! Surrogate-gradient learning (SGL): BPTT over the unrolled SNN.
//!
//! After conversion, the paper fine-tunes the SNN in the spike domain,
//! jointly training weights, thresholds and leaks [7]. The spike function
//! is discontinuous, so the backward pass uses a boxcar surrogate
//! (`∂s/∂u ≈ 1/(2V^th)` for membrane potentials in `[0, 2V^th]`, matching
//! the paper's `∂s'/∂s ≈ 1 on [0, 2αμ]`), with the membrane reset treated
//! as detached (standard in DIET-SNN-style training).
//!
//! Everything above the backward pass is the DNN's training stack from
//! `ull-nn`: [`SnnNetwork`] implements [`Trainable`] (its parameter
//! clamp keeps `V^th ≥ 0.01` and `λ ∈ [0, 1]`), so the same [`Sgd`] steps
//! it and the same [`run_epoch`] loop drives its epochs, here with a
//! `time_steps`-step BPTT tape as the train-mode forward.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_nn::{
    conv_backward, finite_check, linear_backward, run_epoch, Param, Sgd, TrainConfig, TrainError,
    Trainable,
};
use ull_tensor::pool::{avgpool2d_backward, maxpool2d_backward};
use ull_tensor::Tensor;

use crate::network::{SnnNetwork, SnnOp, SnnTape, StepAux};
use crate::stats::SpikeStats;

impl SnnNetwork {
    /// BPTT backward pass: accumulates gradients of the mean cross-entropy
    /// (whose logit-gradient is `grad_logits`) into every parameter.
    ///
    /// # Panics
    ///
    /// Panics if the tape does not belong to this network or shapes
    /// disagree.
    pub fn backward(&mut self, tape: &SnnTape, grad_logits: &Tensor) {
        assert_eq!(
            tape.acts.first().map(|a| a.len()),
            Some(self.nodes().len()),
            "tape does not match network"
        );
        let t_steps = tape.steps;
        // dL/d(out_t) — logits are the mean over steps.
        let g_out_t = grad_logits.scale(1.0 / t_steps as f32);
        // Gradient w.r.t. each spike node's membrane U(t), carried backward
        // in time.
        let mut g_state: Vec<Option<Tensor>> = vec![None; self.nodes().len()];
        let output = self.output();
        for t in (0..t_steps).rev() {
            let mut g_node: Vec<Option<Tensor>> = vec![None; self.nodes().len()];
            g_node[output] = Some(g_out_t.clone());
            for i in (0..self.nodes().len()).rev() {
                let inputs = self.nodes()[i].inputs.clone();
                let g_spike_out = g_node[i].take();
                let has_state = g_state[i].is_some();
                if g_spike_out.is_none()
                    && !(has_state && matches!(self.nodes()[i].op, SnnOp::Spike(_)))
                {
                    continue;
                }
                match &mut self.nodes_mut()[i].op {
                    SnnOp::Input => {}
                    SnnOp::Conv2d { weight, bias, geo } => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let x = &tape.acts[t][inputs[0]];
                        let dx = conv_backward(x, &g, weight, bias.as_mut(), *geo);
                        accumulate(&mut g_node[inputs[0]], dx);
                    }
                    SnnOp::Linear { weight, bias } => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let x = &tape.acts[t][inputs[0]];
                        let dx = linear_backward(x, &g, weight, bias.as_mut());
                        accumulate(&mut g_node[inputs[0]], dx);
                    }
                    SnnOp::Spike(layer) => {
                        let (u_temp, u_prev) = match &tape.aux[t][i] {
                            StepAux::Spike { u_temp, u_prev } => (u_temp, u_prev),
                            _ => panic!("tape entry ({t},{i}) missing spike aux"),
                        };
                        let v = layer.v_th.scalar_value();
                        let lam = layer.leak.scalar_value();
                        let amp = layer.amp;
                        let inv2v = 1.0 / (2.0 * v.max(1e-6));
                        // Boxcar surrogate window 0 ≤ u ≤ 2V^th.
                        let win = u_temp.map(|u| if u >= 0.0 && u <= 2.0 * v { 1.0 } else { 0.0 });
                        // dL/dU_temp = g_s·amp·win/(2v) + g_state (detached reset).
                        let mut g_u = match &g_spike_out {
                            Some(gs) => {
                                let mut m = gs.mul(&win);
                                m.scale_in_place(amp * inv2v);
                                m
                            }
                            None => Tensor::zeros(u_temp.shape()),
                        };
                        if let Some(gst) = g_state[i].take() {
                            // Reset path threshold gradient: dU(t)/dV^th = −s.
                            let dvth_reset: f32 = u_temp
                                .data()
                                .iter()
                                .zip(gst.data())
                                .filter(|(&u, _)| u > v)
                                .map(|(_, &g)| -g)
                                .sum();
                            layer.v_th.grad.data_mut()[0] += dvth_reset;
                            g_u.add_assign(&gst);
                        }
                        // Spike-height threshold gradient via the surrogate:
                        // dS/dV^th ≈ −amp·win/(2v).
                        if let Some(gs) = &g_spike_out {
                            let dvth: f32 = gs
                                .data()
                                .iter()
                                .zip(win.data())
                                .map(|(&g, &w)| -g * w * amp * inv2v)
                                .sum();
                            layer.v_th.grad.data_mut()[0] += dvth;
                        }
                        // Leak gradient: dU_temp/dλ = U(t−1).
                        let dlam: f32 = g_u
                            .data()
                            .iter()
                            .zip(u_prev.data())
                            .map(|(&g, &u)| g * u)
                            .sum();
                        layer.leak.grad.data_mut()[0] += dlam;
                        // Into the input current of this step.
                        accumulate(&mut g_node[inputs[0]], g_u.clone());
                        // Across time: dU_temp/dU(t−1) = λ.
                        if t > 0 {
                            g_u.scale_in_place(lam);
                            g_state[i] = Some(g_u);
                        }
                    }
                    SnnOp::MaxPool2d { .. } => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let argmax = match &tape.aux[t][i] {
                            StepAux::MaxPool { argmax } => argmax,
                            _ => panic!("tape entry ({t},{i}) missing argmax"),
                        };
                        let shape = tape.acts[t][inputs[0]].shape().to_vec();
                        accumulate(
                            &mut g_node[inputs[0]],
                            maxpool2d_backward(&g, argmax, &shape),
                        );
                    }
                    SnnOp::AvgPool2d { k } => {
                        let k = *k;
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let shape = tape.acts[t][inputs[0]].shape().to_vec();
                        accumulate(&mut g_node[inputs[0]], avgpool2d_backward(&g, &shape, k));
                    }
                    SnnOp::Dropout { .. } => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let dx = match &tape.masks[i] {
                            Some(mask) => g.mul(mask),
                            None => g,
                        };
                        accumulate(&mut g_node[inputs[0]], dx);
                    }
                    SnnOp::Flatten => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let shape = tape.acts[t][inputs[0]].shape().to_vec();
                        accumulate(
                            &mut g_node[inputs[0]],
                            g.reshape(&shape).expect("flatten backward"),
                        );
                    }
                    SnnOp::Add => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        accumulate(&mut g_node[inputs[0]], g.clone());
                        accumulate(&mut g_node[inputs[1]], g);
                    }
                }
            }
        }
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        Some(acc) => acc.add_assign(&g),
        None => *slot = Some(g),
    }
}

/// The SNN's optimizer: the same [`Sgd`] that trains the DNN.
pub type SnnSgd = Sgd;

impl Trainable for SnnNetwork {
    type Tape = SnnTape;
    const EPOCH_SPAN: &'static str = "snn.train_epoch";
    const BATCH_COUNTER: &'static str = "snn.train.batches";

    fn visit_params(&self, f: impl FnMut(&Param)) {
        SnnNetwork::visit_params(self, f);
    }

    fn visit_params_mut(&mut self, f: impl FnMut(&mut Param)) {
        SnnNetwork::visit_params_mut(self, f);
    }

    /// Keeps the neuron parameters physical: `V^th ≥ 0.01`, `λ ∈ [0, 1]`.
    fn clamp_params(&mut self) {
        for node in self.nodes_mut() {
            if let SnnOp::Spike(layer) = &mut node.op {
                let v = layer.v_th.value.data_mut();
                v[0] = v[0].max(0.01);
                let l = layer.leak.value.data_mut();
                l[0] = l[0].clamp(0.0, 1.0);
            }
        }
    }

    fn logits<'t>(&self, tape: &'t SnnTape) -> &'t Tensor {
        &tape.logits
    }

    fn backward(&mut self, tape: &SnnTape, grad_logits: &Tensor) {
        SnnNetwork::backward(self, tape, grad_logits);
    }
}

/// Configuration of SNN fine-tuning (SGL).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnnTrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of simulation time steps T.
    pub time_steps: usize,
    /// Augmentation padding (0 disables).
    pub augment_pad: usize,
    /// Random horizontal flips.
    pub augment_flip: bool,
}

impl Default for SnnTrainConfig {
    fn default() -> Self {
        SnnTrainConfig {
            batch_size: 32,
            time_steps: 2,
            augment_pad: 2,
            augment_flip: true,
        }
    }
}

/// Statistics of one SGL epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnnEpochStats {
    /// Mean training loss.
    pub loss: f32,
    /// Training accuracy.
    pub accuracy: f32,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Peak BPTT tape bytes observed (per batch).
    pub tape_bytes: usize,
}

/// One epoch of surrogate-gradient fine-tuning (paper §III-B: joint
/// training of weights, thresholds and leak after conversion). Never
/// aborts: a non-finite loss or gradient trains on.
pub fn train_snn_epoch(
    net: &mut SnnNetwork,
    train: &Dataset,
    sgd: &Sgd,
    lr_factor: f32,
    cfg: &SnnTrainConfig,
    rng: &mut StdRng,
) -> SnnEpochStats {
    train_snn_epoch_with_check(net, train, sgd, lr_factor, cfg, rng, |_, _, _| Ok(()))
        .expect("a check that always passes never aborts")
}

/// [`train_snn_epoch`] that validates the loss and every gradient before
/// each optimizer step and aborts the epoch with a typed [`TrainError`]
/// on the first NaN/Inf, leaving parameter *values* untouched by the bad
/// step. `hook(net, batch_index)` runs after the BPTT backward pass and
/// before the gradient check: the seam the deterministic fault-injection
/// harness (`ull-core`'s `FaultPlan`) uses to poison a gradient at an
/// exact, reproducible point. Callers without one pass `&mut |_, _| {}`.
/// Consumes the RNG identically to [`train_snn_epoch`] on the healthy
/// path, so the two are interchangeable in deterministic pipelines.
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] or [`TrainError::NonFiniteGrad`] at the
/// first numerically broken batch.
pub fn train_snn_epoch_with_hook(
    net: &mut SnnNetwork,
    train: &Dataset,
    sgd: &Sgd,
    lr_factor: f32,
    cfg: &SnnTrainConfig,
    rng: &mut StdRng,
    hook: &mut dyn FnMut(&mut SnnNetwork, usize),
) -> Result<SnnEpochStats, TrainError> {
    train_snn_epoch_with_check(net, train, sgd, lr_factor, cfg, rng, finite_check(hook))
}

/// [`run_epoch`] over `cfg.time_steps`-step BPTT tapes, recording the
/// peak tape size.
fn train_snn_epoch_with_check(
    net: &mut SnnNetwork,
    train: &Dataset,
    sgd: &Sgd,
    lr_factor: f32,
    cfg: &SnnTrainConfig,
    rng: &mut StdRng,
    check: impl FnMut(&mut SnnNetwork, usize, f32) -> Result<(), TrainError>,
) -> Result<SnnEpochStats, TrainError> {
    let tcfg = TrainConfig {
        batch_size: cfg.batch_size,
        augment_pad: cfg.augment_pad,
        augment_flip: cfg.augment_flip,
    };
    let mut tape_bytes = 0usize;
    let forward = |n: &SnnNetwork, x: &Tensor, rng: &mut StdRng| {
        let tape = n.forward_train(x, cfg.time_steps, rng);
        tape_bytes = tape_bytes.max(tape.memory_bytes());
        tape
    };
    let s = run_epoch(net, train, sgd, lr_factor, &tcfg, rng, forward, check)?;
    Ok(SnnEpochStats {
        loss: s.loss,
        accuracy: s.accuracy,
        seconds: s.seconds,
        tape_bytes,
    })
}

/// Top-1 accuracy (and merged spike statistics) of `net` on `data` with `t`
/// time steps.
pub fn evaluate_snn(
    net: &SnnNetwork,
    data: &Dataset,
    t: usize,
    batch_size: usize,
) -> (f32, SpikeStats) {
    let _span = ull_obs::span("snn.evaluate");
    let mut correct = 0usize;
    let mut seen = 0usize;
    let mut merged: Option<SpikeStats> = None;
    for batch in data.eval_batches(batch_size) {
        let out = net.forward(&batch.images, t);
        for (pred, &label) in out.logits.argmax_rows().iter().zip(&batch.labels) {
            if *pred == label {
                correct += 1;
            }
        }
        seen += batch.labels.len();
        match &mut merged {
            Some(m) => m.merge(&out.stats),
            None => merged = Some(out.stats),
        }
    }
    let stats = merged.unwrap_or_else(|| SpikeStats::new(net.nodes().len(), 0, t));
    (correct as f32 / seen.max(1) as f32, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SpikeSpec;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::{clip_grads, cross_entropy_grad, cross_entropy_loss, SgdConfig};
    use ull_nn::{models, NetworkBuilder};
    use ull_tensor::init::{normal, seeded_rng};

    fn make_snn(seed: u64) -> SnnNetwork {
        let mut b = NetworkBuilder::new(2, 4, seed);
        b.conv2d(4, 3, 1, 1);
        b.threshold_relu(1.0);
        b.maxpool(2);
        b.flatten();
        b.linear(3);
        let dnn = b.build();
        SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(1.0)]).unwrap()
    }

    #[test]
    fn backward_produces_finite_grads_everywhere() {
        let mut snn = make_snn(1);
        let x = normal(&[2, 2, 4, 4], 0.0, 1.5, &mut seeded_rng(2));
        let tape = snn.forward_train(&x, 3, &mut seeded_rng(3));
        let grad = cross_entropy_grad(&tape.logits, &[0, 1]);
        snn.backward(&tape, &grad);
        let mut nonzero = 0;
        snn.visit_params(|p| {
            assert!(p.grad.data().iter().all(|g| g.is_finite()));
            if p.grad.data().iter().any(|&g| g != 0.0) {
                nonzero += 1;
            }
        });
        assert!(nonzero >= 3, "only {nonzero} params received gradient");
    }

    #[test]
    fn output_layer_gradient_is_exact() {
        // The path logits → final Linear is differentiable (no spike in
        // between), so finite differences must match exactly there.
        let snn = make_snn(4);
        let x = normal(&[1, 2, 4, 4], 0.0, 1.5, &mut seeded_rng(5));
        let labels = [2usize];

        let loss_of = |net: &SnnNetwork| {
            let out = net.forward(&x, 3);
            cross_entropy_loss(&out.logits, &labels)
        };

        let mut snn2 = snn.clone();
        let tape = snn2.forward_train(&x, 3, &mut seeded_rng(0));
        let grad = cross_entropy_grad(&tape.logits, &labels);
        snn2.backward(&tape, &grad);
        // Find the linear node and check a few weight coordinates.
        let lin_id = snn
            .nodes()
            .iter()
            .position(|n| matches!(n.op, SnnOp::Linear { .. }))
            .unwrap();
        let wg = match &snn2.nodes()[lin_id].op {
            SnnOp::Linear { weight, .. } => weight.grad.clone(),
            _ => unreachable!(),
        };
        let eps = 1e-2;
        for &i in &[0usize, 3, 7, 11] {
            let mut np = snn.clone();
            if let SnnOp::Linear { weight, .. } = &mut np.nodes_mut()[lin_id].op {
                weight.value.data_mut()[i] += eps;
            }
            let mut nm = snn.clone();
            if let SnnOp::Linear { weight, .. } = &mut nm.nodes_mut()[lin_id].op {
                weight.value.data_mut()[i] -= eps;
            }
            let fd = (loss_of(&np) - loss_of(&nm)) / (2.0 * eps);
            assert!(
                (fd - wg.data()[i]).abs() < 1e-3,
                "i={i}: fd {fd} vs analytic {}",
                wg.data()[i]
            );
        }
    }

    #[test]
    fn sgl_training_improves_accuracy() {
        // End-to-end sanity: SGL on a tiny SynthCifar should beat chance.
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, test_data) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.5, 7);
        let specs = vec![SpikeSpec::identity(2.0); dnn.threshold_nodes().len()];
        let mut snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let sgd = Sgd::new(SgdConfig {
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        let tcfg = SnnTrainConfig {
            batch_size: 16,
            time_steps: 2,
            augment_pad: 0,
            augment_flip: false,
        };
        let mut rng = seeded_rng(8);
        let (acc_before, _) = evaluate_snn(&snn, &test_data, 2, 16);
        let mut last = 0.0;
        for _ in 0..6 {
            let s = train_snn_epoch(&mut snn, &train_data, &sgd, 1.0, &tcfg, &mut rng);
            last = s.accuracy;
        }
        let (acc_after, _) = evaluate_snn(&snn, &test_data, 2, 16);
        assert!(
            acc_after > acc_before.max(0.34),
            "SGL failed: before {acc_before}, after {acc_after}, train {last}"
        );
    }

    #[test]
    fn clamps_keep_neuron_params_physical() {
        let mut snn = make_snn(9);
        // Adversarial gradient pushing v_th negative and leak above 1.
        for node in snn.nodes_mut() {
            if let SnnOp::Spike(layer) = &mut node.op {
                layer.v_th.grad.data_mut()[0] = 1000.0;
                layer.leak.grad.data_mut()[0] = -1000.0;
            }
        }
        let sgd = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        sgd.step(&mut snn, 1.0);
        for node in snn.nodes() {
            if let SnnOp::Spike(layer) = &node.op {
                assert!(layer.v_th.scalar_value() >= 0.01);
                assert!(layer.leak.scalar_value() <= 1.0);
            }
        }
    }

    #[test]
    fn clip_snn_grads_bounds_global_norm() {
        let mut snn = make_snn(20);
        snn.visit_params_mut(|p| p.grad.fill(10.0));
        clip_grads(&mut snn, 2.0);
        let mut total = 0.0f32;
        snn.visit_params(|p| total += p.grad.norm_sq());
        assert!((total.sqrt() - 2.0).abs() < 1e-3, "norm {}", total.sqrt());
    }

    #[test]
    fn sgd_with_clip_is_stable_under_huge_grads() {
        let mut snn = make_snn(21);
        snn.visit_params_mut(|p| p.grad.fill(1e6));
        let sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        })
        .with_clip(1.0);
        sgd.step(&mut snn, 1.0);
        snn.visit_params(|p| {
            assert!(p
                .value
                .data()
                .iter()
                .all(|v| v.is_finite() && v.abs() < 10.0));
        });
    }

    #[test]
    fn evaluate_merges_stats_across_batches() {
        let cfg = SynthCifarConfig::tiny(3);
        let (_, test_data) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 11);
        let specs = vec![SpikeSpec::identity(1.0); dnn.threshold_nodes().len()];
        let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let (_, stats) = evaluate_snn(&snn, &test_data, 2, 8);
        assert_eq!(stats.batch(), test_data.len());
    }

    #[test]
    fn checked_snn_epoch_matches_unchecked_bit_for_bit() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.5, 7);
        let specs = vec![SpikeSpec::identity(2.0); dnn.threshold_nodes().len()];
        let snn0 = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let sgd = Sgd::new(SgdConfig::default());
        let tcfg = SnnTrainConfig {
            batch_size: 16,
            time_steps: 2,
            augment_pad: 2,
            augment_flip: true,
        };

        let mut a = snn0.clone();
        let mut rng_a = seeded_rng(40);
        let sa = train_snn_epoch(&mut a, &train_data, &sgd, 1.0, &tcfg, &mut rng_a);

        let mut b = snn0.clone();
        let mut rng_b = seeded_rng(40);
        let sb = train_snn_epoch_with_hook(
            &mut b,
            &train_data,
            &sgd,
            1.0,
            &tcfg,
            &mut rng_b,
            &mut |_, _| {},
        )
        .expect("healthy epoch must not error");

        assert_eq!(sa.loss.to_bits(), sb.loss.to_bits());
        assert_eq!(sa.accuracy.to_bits(), sb.accuracy.to_bits());
        assert_eq!(rng_a.state(), rng_b.state(), "RNG consumption diverged");
        let mut va = Vec::new();
        let mut vb = Vec::new();
        a.visit_params(|p| va.extend(p.value.data().iter().map(|x| x.to_bits())));
        b.visit_params(|p| vb.extend(p.value.data().iter().map(|x| x.to_bits())));
        assert_eq!(va, vb, "parameters diverged between checked/unchecked");
    }

    #[test]
    fn checked_snn_epoch_detects_injected_nan_gradient() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.5, 7);
        let specs = vec![SpikeSpec::identity(2.0); dnn.threshold_nodes().len()];
        let mut snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let before: Vec<u32> = {
            let mut v = Vec::new();
            snn.visit_params(|p| v.extend(p.value.data().iter().map(|x| x.to_bits())));
            v
        };
        let sgd = Sgd::new(SgdConfig::default());
        let tcfg = SnnTrainConfig::default();
        let mut rng = seeded_rng(41);
        let err = train_snn_epoch_with_hook(
            &mut snn,
            &train_data,
            &sgd,
            1.0,
            &tcfg,
            &mut rng,
            &mut |net, b| {
                if b == 0 {
                    net.visit_params_mut(|p| p.grad.data_mut()[0] = f32::NAN);
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::NonFiniteGrad { batch: 0, .. }));
        // The poisoned step never ran: parameter values are untouched.
        let mut after = Vec::new();
        snn.visit_params(|p| after.extend(p.value.data().iter().map(|x| x.to_bits())));
        assert_eq!(before, after, "NaN gradient leaked into parameters");
    }

    #[test]
    fn leak_gradient_sign_matches_effect() {
        // With a positive membrane and a loss that rewards more spiking on
        // the true class, check the leak gradient is finite and the
        // training step changes the leak.
        let mut snn = make_snn(12);
        let x = normal(&[2, 2, 4, 4], 0.5, 1.0, &mut seeded_rng(13));
        let tape = snn.forward_train(&x, 3, &mut seeded_rng(0));
        let grad = cross_entropy_grad(&tape.logits, &[0, 1]);
        snn.backward(&tape, &grad);
        for node in snn.nodes() {
            if let SnnOp::Spike(layer) = &node.op {
                assert!(layer.leak.grad.data()[0].is_finite());
                assert!(layer.v_th.grad.data()[0].is_finite());
            }
        }
    }
}
