//! Pins two epochs of DNN training bit for bit: every parameter's value
//! and momentum, and each epoch's loss and accuracy, hashed with FNV-1a
//! over their bits. The net has dropout and the gradient clip is low
//! enough to engage, so the hash covers the mask draws, the clip, the
//! momentum update and the threshold clamp. A drift every training path
//! would share, such as a reordered momentum update, changes it.

use ull_data::{generate, SynthCifarConfig};
use ull_nn::{fnv1a, models, train_epoch, Sgd, SgdConfig, TrainConfig};
use ull_tensor::init::seeded_rng;

const CLIP: f32 = 0.5;

fn two_epoch_hash(sgd: &Sgd) -> u64 {
    let cfg = SynthCifarConfig::tiny(3);
    let (train_data, _) = generate(&cfg);
    let mut net = models::vgg_micro(3, cfg.image_size, 0.5, 7);
    let tcfg = TrainConfig {
        batch_size: 16,
        augment_pad: 2,
        augment_flip: true,
    };
    let mut rng = seeded_rng(51);
    let mut bits: Vec<u32> = Vec::new();
    for lr_factor in [1.0, 0.5] {
        let s = train_epoch(&mut net, &train_data, sgd, lr_factor, &tcfg, &mut rng);
        assert!(s.loss.is_finite());
        bits.extend([s.loss.to_bits(), s.accuracy.to_bits()]);
    }
    net.visit_params(|p| {
        bits.extend(p.value.data().iter().map(|x| x.to_bits()));
        bits.extend(p.momentum.data().iter().map(|x| x.to_bits()));
    });
    let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
    fnv1a(&bytes)
}

#[test]
fn two_dnn_epochs_are_pinned_bit_for_bit() {
    let sgd = Sgd::new(SgdConfig::default()).with_clip(CLIP);
    let hash = two_epoch_hash(&sgd);
    // The clip engages: without it the run ends elsewhere.
    assert_ne!(hash, two_epoch_hash(&Sgd::new(SgdConfig::default())));
    assert_eq!(hash, 0x4c09_8714_d4a6_aef7, "pinned hash {hash:#018x}");
}
