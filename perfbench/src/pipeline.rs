//! The paper's offline path: DNN epoch → α/β conversion → SGL epoch, at
//! T ∈ {2, 3}, followed by batch-1 inference of the T = 3 net.
//!
//! An epoch is one batch of 16 training images, so a pass through the
//! phases is short and a run holds many of them: the phase metrics take
//! the fastest pass.
//!
//! Training data, weight init and shuffle order are fixed, so every cycle
//! of every run trains the same nets and their quality numbers do not
//! drift with the seed. The batch-1 probe always covers the same test
//! images, because per-image cost follows each image's spike activity;
//! the workload seed picks the order they are sent in.

use std::time::Instant;

use rand::seq::SliceRandom;
use ull_core::algorithm1::BETA_MAX;
use ull_core::{convert, ConversionMethod, LayerScaling};
use ull_data::Dataset;
use ull_nn::{train_epoch, Network};
use ull_snn::{evaluate_snn, train_snn_epoch, SnnNetwork};
use rand::rngs::StdRng;
use ull_tensor::init::{mix64, seeded_rng};
use ull_tensor::Tensor;

use crate::common::{argmax_last, fingerprint};
use crate::model::{
    dnn_sgd, dnn_train_config, snn_sgd, snn_train_config, synth_cifar, BATCH, CLASSES, IMAGE,
    MODEL_SEED, T_FULL, WIDTH,
};

pub const STEPS: [usize; 2] = [2, 3];
const TRAIN_IMAGES: usize = 16;
const EVAL_IMAGES: usize = 32;
const PROBE_IMAGES: usize = 32;
const PROBE_REPEATS: usize = 3;
const SHUFFLE_SEED: u64 = 11;

pub struct PipelineData {
    pub train: Dataset,
    /// Fixed evaluation images (accuracy, agreement, fingerprints).
    pub eval: Dataset,
    /// Batch-1 inference probe images, in the seed's order.
    pub probe: Tensor,
}

impl PipelineData {
    pub fn new(seed: u64) -> PipelineData {
        let (train, test) = synth_cifar();
        let mut order: Vec<usize> = (EVAL_IMAGES..EVAL_IMAGES + PROBE_IMAGES).collect();
        order.shuffle(&mut seeded_rng(mix64(seed, &[1])));
        PipelineData {
            train: train.take(TRAIN_IMAGES),
            eval: test.take(EVAL_IMAGES),
            probe: test.batch(&order).images,
        }
    }
}

/// What one cycle measured and produced.
pub struct Cycle {
    pub phases: PhaseSample,
    /// Fastest batch-1 latency of each probe image through the T = 3 net,
    /// in ms.
    pub infer_ms: Vec<f64>,
    /// Share of eval predictions (over both T) matching the source DNN.
    pub agreement: f64,
    /// Fingerprint of scalings, accuracy and logits, per T.
    pub fingerprints: Vec<u64>,
    /// Per-T verdict of the cycle's own output checks.
    pub checks_ok: Vec<bool>,
}

/// Whether Algorithm 1's output is in range: μ > 0, α ∈ (0, 1],
/// β ∈ (0, BETA_MAX], all finite.
fn scalings_valid(scalings: &[LayerScaling]) -> bool {
    !scalings.is_empty()
        && scalings.iter().all(|s| {
            s.mu.is_finite()
                && s.mu > 0.0
                && s.alpha > 0.0
                && s.alpha <= 1.0
                && s.beta > 0.0
                && s.beta <= BETA_MAX
        })
}

/// Whether every row of `rows` (batch-1 outputs) equals the same row of
/// the batched output `batched`, bit for bit.
fn rows_match(rows: &[Tensor], batched: &Tensor) -> bool {
    rows.iter().enumerate().all(|(i, row)| {
        fingerprint(row.data()) == fingerprint(&batched.data()[i * CLASSES..(i + 1) * CLASSES])
    })
}

/// Wall times of one pass through the three offline phases; conversion
/// and SGL times are per T, in `STEPS` order.
pub struct PhaseSample {
    pub dnn_epoch_s: f64,
    pub convert_s: Vec<f64>,
    pub sgl_epoch_s: Vec<f64>,
}

/// One DNN epoch from the fixed initial weights; returns the net and the
/// epoch's wall time.
fn dnn_epoch(data: &PipelineData, rng: &mut StdRng) -> (Network, f64) {
    let mut dnn = ull_nn::models::vgg16(CLASSES, IMAGE, WIDTH, MODEL_SEED);
    let t = Instant::now();
    train_epoch(&mut dnn, &data.train, &dnn_sgd(), 1.0, &dnn_train_config(), rng);
    (dnn, t.elapsed().as_secs_f64())
}

/// α/β conversion at `steps`, then one SGL epoch; returns the SNN, its
/// scalings and the two wall times.
fn convert_and_tune(
    dnn: &Network,
    data: &PipelineData,
    steps: usize,
    rng: &mut StdRng,
) -> (SnnNetwork, Vec<LayerScaling>, f64, f64) {
    let t = Instant::now();
    let (mut snn, scalings) =
        convert(dnn, &data.train, ConversionMethod::AlphaBeta, steps).expect("α/β conversion");
    let convert_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    train_snn_epoch(&mut snn, &data.train, &snn_sgd(), 1.0, &snn_train_config(steps), rng);
    (snn, scalings, convert_s, t.elapsed().as_secs_f64())
}

/// The three phases alone, without the cycle's checks and probes.
pub fn phases(data: &PipelineData) -> PhaseSample {
    let mut rng = seeded_rng(SHUFFLE_SEED);
    let (dnn, dnn_epoch_s) = dnn_epoch(data, &mut rng);
    let mut out = PhaseSample {
        dnn_epoch_s,
        convert_s: Vec::new(),
        sgl_epoch_s: Vec::new(),
    };
    for &steps in &STEPS {
        let (_, _, convert_s, sgl_epoch_s) = convert_and_tune(&dnn, data, steps, &mut rng);
        out.convert_s.push(convert_s);
        out.sgl_epoch_s.push(sgl_epoch_s);
    }
    out
}

/// Runs one full cycle from a freshly initialised DNN. Every cycle starts
/// from the same weights and RNG, so all of them must produce identical
/// fingerprints.
pub fn cycle(data: &PipelineData) -> Cycle {
    let mut rng = seeded_rng(SHUFFLE_SEED);
    let (dnn, dnn_epoch_s) = dnn_epoch(data, &mut rng);

    let eval_batch = data
        .eval
        .batch(&(0..data.eval.len()).collect::<Vec<_>>())
        .images;
    let dnn_classes = dnn.forward_eval(&eval_batch).argmax_rows();
    let mut out = Cycle {
        phases: PhaseSample {
            dnn_epoch_s,
            convert_s: Vec::new(),
            sgl_epoch_s: Vec::new(),
        },
        infer_ms: Vec::new(),
        agreement: 0.0,
        fingerprints: Vec::new(),
        checks_ok: Vec::new(),
    };
    for &steps in &STEPS {
        let (snn, scalings, convert_s, sgl_epoch_s) =
            convert_and_tune(&dnn, data, steps, &mut rng);
        out.phases.convert_s.push(convert_s);
        out.phases.sgl_epoch_s.push(sgl_epoch_s);

        let (accuracy, _) = evaluate_snn(&snn, &data.eval, steps, BATCH);
        let logits = snn.forward(&eval_batch, steps).logits;
        // Oracle: the tape-capable unpacked step path must reproduce the
        // packed/event-driven forward bit for bit.
        let (oracle, _) = snn.forward_until(&eval_batch, steps, |_, _| true);
        let mut ok = scalings_valid(&scalings)
            && (0.0..=1.0).contains(&accuracy)
            && fingerprint(logits.data()) == fingerprint(oracle.logits.data());
        let agree = logits
            .data()
            .chunks(CLASSES)
            .zip(&dnn_classes)
            .filter(|(row, &c)| argmax_last(row) == c)
            .count();
        out.agreement += agree as f64 / (dnn_classes.len() * STEPS.len()) as f64;

        if steps == T_FULL {
            // Each image's latency is the fastest of a few repeats, so the
            // percentiles describe the spread over inputs, not other
            // tenants of the machine. The repeats of one image lie a whole
            // sweep over the images apart, so one busy moment of the
            // machine cannot hit all of them.
            let images: Vec<Tensor> = (0..data.probe.shape()[0])
                .map(|i| data.probe.slice_batch(i, i + 1))
                .collect();
            let mut rows: Vec<Tensor> = images.iter().map(|_| Tensor::default()).collect();
            out.infer_ms = vec![f64::INFINITY; images.len()];
            for _ in 0..PROBE_REPEATS {
                for (i, x) in images.iter().enumerate() {
                    let t = Instant::now();
                    rows[i] = snn.forward(x, steps).logits;
                    out.infer_ms[i] = out.infer_ms[i].min(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            // A row's answer must not depend on the batch it ran in.
            ok &= rows_match(&rows, &snn.forward(&data.probe, steps).logits);
        }
        let mut summary: Vec<f32> = scalings
            .iter()
            .flat_map(|s| [s.mu, s.alpha, s.beta])
            .collect();
        summary.push(accuracy);
        summary.extend_from_slice(logits.data());
        out.fingerprints.push(fingerprint(&summary));
        out.checks_ok.push(ok);
    }
    out
}
