//! Pins two epochs of surrogate-gradient training of a converted net bit
//! for bit: every parameter's value and momentum (weights, biases,
//! thresholds, leaks), and each epoch's loss and accuracy, hashed with
//! FNV-1a over their bits. The net has dropout, its leaks start at the
//! λ ≤ 1 clamp, and the gradient clip is low enough to engage. A drift
//! every training path would share, such as a reordered momentum update,
//! changes the hash.
//!
//! At `V^th = 2.0` the linear layers' inputs spike so rarely that every
//! element of their `dW = gᵀ · x` sums at most two non-zero
//! terms, and two-term float addition commutes: that case cannot see the
//! reduction order of `matmul_transpose_a`. At `V^th = 1.0` some elements
//! sum three or four terms, so the second case pins that order too.

use ull_data::{generate, SynthCifarConfig};
use ull_nn::{fnv1a, models, SgdConfig};
use ull_snn::{train_snn_epoch, SnnNetwork, SnnSgd, SnnTrainConfig, SpikeSpec};
use ull_tensor::init::seeded_rng;

const CLIP: f32 = 0.5;

fn two_epoch_hash(sgd: &SnnSgd, v_th: f32) -> u64 {
    let cfg = SynthCifarConfig::tiny(3);
    let (train_data, _) = generate(&cfg);
    let dnn = models::vgg_micro(3, cfg.image_size, 0.5, 7);
    let specs = vec![SpikeSpec::identity(v_th); dnn.threshold_nodes().len()];
    let mut snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
    let tcfg = SnnTrainConfig {
        batch_size: 16,
        time_steps: 2,
        augment_pad: 2,
        augment_flip: true,
    };
    let mut rng = seeded_rng(52);
    let mut bits: Vec<u32> = Vec::new();
    for lr_factor in [1.0, 0.5] {
        let s = train_snn_epoch(&mut snn, &train_data, sgd, lr_factor, &tcfg, &mut rng);
        assert!(s.loss.is_finite());
        bits.extend([s.loss.to_bits(), s.accuracy.to_bits()]);
    }
    snn.visit_params(|p| {
        bits.extend(p.value.data().iter().map(|x| x.to_bits()));
        bits.extend(p.momentum.data().iter().map(|x| x.to_bits()));
    });
    let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
    fnv1a(&bytes)
}

#[test]
fn two_sgl_epochs_are_pinned_bit_for_bit() {
    let sgd = SnnSgd::new(SgdConfig::default()).with_clip(CLIP);
    let hash = two_epoch_hash(&sgd, 2.0);
    // The clip engages: without it the run ends elsewhere.
    assert_ne!(
        hash,
        two_epoch_hash(&SnnSgd::new(SgdConfig::default()), 2.0)
    );
    assert_eq!(hash, 0x40ee_4b0a_76f1_7480, "pinned hash {hash:#018x}");
}

#[test]
fn low_threshold_sgl_epochs_pin_the_linear_dw_order() {
    let sgd = SnnSgd::new(SgdConfig::default()).with_clip(CLIP);
    let hash = two_epoch_hash(&sgd, 1.0);
    assert_eq!(hash, 0xf389_4fc0_55f7_58fe, "pinned hash {hash:#018x}");
}
