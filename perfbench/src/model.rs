//! The served model and its reference outputs.
//!
//! Setup trains a width-0.25 VGG-16 on SynthCifar-10 (16×16) from a fixed
//! seed, converts it with the paper's α/β method at `T_FULL`, fine-tunes it
//! for one SGL epoch, and calibrates the anytime schedule. The model and
//! the request pool (held-out test images) are identical in every run; the
//! workload seed picks the request sequence. For every pool image the reference
//! logits at each step count are computed with `SnnNetwork::forward`, and
//! the anytime exit step with `anytime_forward_scheduled`, so every reply
//! the server sends can be checked bit for bit.

use ull_core::{convert, ConversionMethod, LayerScaling};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::{train_epoch, Network, Sgd, SgdConfig, TrainConfig};
use ull_robust::{anytime_forward_scheduled, calibrate_margin_schedule, AnytimeSchedule};
use ull_serve::{Reply, RungLabel, ServeConfig};
use ull_snn::{train_snn_epoch, SnnNetwork, SnnSgd, SnnTrainConfig};
use ull_tensor::init::seeded_rng;
use ull_tensor::Tensor;

use crate::common::argmax_last;

pub const CLASSES: usize = 10;
pub const IMAGE: usize = 16;
pub const WIDTH: f32 = 0.25;
pub const T_FULL: usize = 3;
pub const T_REDUCED: usize = 2;
pub const MAX_BATCH: usize = 16;
/// Distinct request inputs: test images the schedule calibration did not
/// see.
pub const POOL: usize = 64;
/// Weight-init seed of the DNN (fixed: the model never depends on the
/// workload seed).
pub const MODEL_SEED: u64 = 7;
const TRAIN_SEED: u64 = 2022;
const DNN_TRAIN_IMAGES: usize = 64;
const SGL_TRAIN_IMAGES: usize = 32;
const CALIBRATION_IMAGES: usize = 32;
pub const BATCH: usize = 32;

pub fn dnn_sgd() -> Sgd {
    Sgd::new(SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
    })
    .with_clip(5.0)
}

pub fn snn_sgd() -> SnnSgd {
    SnnSgd::new(SgdConfig {
        lr: 0.005,
        momentum: 0.9,
        weight_decay: 0.0,
    })
    .with_clip(5.0)
}

pub fn dnn_train_config() -> TrainConfig {
    TrainConfig {
        batch_size: BATCH,
        augment_pad: 0,
        augment_flip: false,
    }
}

pub fn snn_train_config(t: usize) -> SnnTrainConfig {
    SnnTrainConfig {
        batch_size: BATCH,
        time_steps: t,
        augment_pad: 0,
        augment_flip: false,
    }
}

/// The SynthCifar-10 `small` split (1024 train / 256 test, 16×16).
pub fn synth_cifar() -> (Dataset, Dataset) {
    generate(&SynthCifarConfig::small(CLASSES))
}

pub struct ServeModel {
    pub dnn: Network,
    pub snn: SnnNetwork,
    pub scalings: Vec<LayerScaling>,
    /// DNN training images (also the conversion calibration set).
    pub train: Dataset,
    pub schedule: AnytimeSchedule,
    /// Request inputs, `[POOL, 3, IMAGE, IMAGE]`.
    pub pool: Tensor,
    /// `refs[t - 1][i]`: logits of pool image `i` after `t` steps.
    refs: Vec<Vec<Vec<f32>>>,
    /// Anytime exit step of each pool image.
    pub anytime_steps: Vec<usize>,
}

impl ServeModel {
    /// Trains, converts, fine-tunes and calibrates the served model, then
    /// computes the reference outputs for the request pool.
    pub fn build() -> ServeModel {
        let (train_all, test_all) = synth_cifar();
        let train = train_all.take(DNN_TRAIN_IMAGES);
        let mut rng = seeded_rng(TRAIN_SEED);
        let mut dnn = ull_nn::models::vgg16(CLASSES, IMAGE, WIDTH, MODEL_SEED);

        train_epoch(
            &mut dnn,
            &train,
            &dnn_sgd(),
            1.0,
            &dnn_train_config(),
            &mut rng,
        );
        let (mut snn, scalings) =
            convert(&dnn, &train, ConversionMethod::AlphaBeta, T_FULL).expect("α/β conversion");
        train_snn_epoch(
            &mut snn,
            &train.take(SGL_TRAIN_IMAGES),
            &snn_sgd(),
            1.0,
            &snn_train_config(T_FULL),
            &mut rng,
        );

        let calibration = test_all.take(CALIBRATION_IMAGES);
        let schedule = calibrate_margin_schedule(&snn, &calibration, T_FULL, MAX_BATCH, 0.95);

        let held_out: Vec<usize> = (CALIBRATION_IMAGES..CALIBRATION_IMAGES + POOL).collect();
        let pool = test_all.batch(&held_out).images;

        snn.prepack();
        let classes = CLASSES;
        let refs = (1..=T_FULL)
            .map(|t| {
                let logits = snn.forward(&pool, t).logits;
                logits.data().chunks(classes).map(|r| r.to_vec()).collect()
            })
            .collect();
        let any = anytime_forward_scheduled(&snn, &pool, &schedule);
        ServeModel {
            dnn,
            snn,
            scalings,
            train,
            schedule,
            pool,
            refs,
            anytime_steps: any.steps_used,
        }
    }

    pub fn pixels(&self, i: usize) -> Vec<f32> {
        let vol = 3 * IMAGE * IMAGE;
        self.pool.data()[i * vol..(i + 1) * vol].to_vec()
    }

    /// The first `n` pool images as one batch.
    pub fn batch(&self, n: usize) -> Tensor {
        self.pool.slice_batch(0, n)
    }

    /// The Full-rung class of pool image `i`.
    pub fn full_class(&self, i: usize) -> usize {
        argmax_last(&self.refs[T_FULL - 1][i])
    }

    /// Whether `reply` is a correct Prediction for pool image `i`: the
    /// step count matches the rung (for Anytime, the exit step
    /// `anytime_forward_scheduled` chose), the logits
    /// equal the reference bit for bit, and the class is their argmax.
    pub fn check(&self, i: usize, reply: &Reply) -> bool {
        let Reply::Prediction {
            class,
            logits,
            rung,
            steps,
            ..
        } = reply
        else {
            return false;
        };
        let want_steps = match rung {
            RungLabel::Full => T_FULL,
            RungLabel::Reduced => T_REDUCED,
            RungLabel::Anytime => self.anytime_steps[i],
        };
        if *steps != want_steps {
            return false;
        }
        let want = &self.refs[want_steps - 1][i];
        let same_bits = want.len() == logits.len()
            && want
                .iter()
                .zip(logits)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        same_bits && *class == argmax_last(want)
    }
}

/// The serving configuration under test.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        input_shape: vec![3, IMAGE, IMAGE],
        t_full: T_FULL,
        t_reduced: T_REDUCED,
        workers: 2,
        queue_capacity: 64,
        max_batch: MAX_BATCH,
        max_linger_ms: 2,
        default_deadline_ms: 1_000,
        ..ServeConfig::default()
    }
}
