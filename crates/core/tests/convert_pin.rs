//! Pins α/β conversion bit for bit: the pre-activation samples Algorithm 1
//! reads (`collect_preactivations`), the per-layer scalings it picks (μ, α,
//! β) and the converted SNN's logits at T = 2, hashed with FNV-1a over
//! their bits. The DNN forward feeds every one of them, so any drift in
//! its conv or linear kernels, in the sample subsampling, in the search or
//! in the SNN built from its result changes the hash. VGG covers the plain
//! conv/pool/linear chain; ResNet adds the 1×1 shortcut conv and `Add`.

use ull_core::{collect_preactivations, convert_with_budget, ConversionMethod};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::{fnv1a, models, Network};

const T: usize = 2;
const IMAGES: usize = 32;
const SAMPLES: usize = 4000;

fn conversion_hash(dnn: &Network, data: &Dataset) -> u64 {
    let mut bits: Vec<u32> = Vec::new();
    let layers = collect_preactivations(dnn, data, IMAGES, SAMPLES);
    assert!(!layers.is_empty());
    for layer in &layers {
        bits.extend([layer.node as u32, layer.mu.to_bits()]);
        bits.extend(layer.samples.iter().map(|x| x.to_bits()));
    }
    let (snn, scalings) =
        convert_with_budget(dnn, data, ConversionMethod::AlphaBeta, T, IMAGES, SAMPLES).unwrap();
    // The search must move off its (α, β) = (1, 1) start somewhere, or
    // the hash would not cover it.
    assert!(scalings.iter().any(|s| s.alpha != 1.0 || s.beta != 1.0));
    for s in &scalings {
        bits.extend([s.mu.to_bits(), s.alpha.to_bits(), s.beta.to_bits()]);
    }
    for batch in data.eval_batches(16) {
        let out = snn.forward(&batch.images, T);
        bits.extend(out.logits.data().iter().map(|x| x.to_bits()));
    }
    let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn data() -> Dataset {
    let cfg = SynthCifarConfig::tiny(3);
    generate(&cfg).0.take(IMAGES)
}

#[test]
fn vgg_conversion_is_pinned_bit_for_bit() {
    let dnn = models::vgg_micro(3, 8, 0.5, 7);
    let hash = conversion_hash(&dnn, &data());
    assert_eq!(hash, 0x21dc_18fd_12aa_876c, "pinned hash {hash:#018x}");
}

#[test]
fn resnet_conversion_is_pinned_bit_for_bit() {
    let dnn = models::resnet_micro(3, 8, 0.5, 7);
    let hash = conversion_hash(&dnn, &data());
    assert_eq!(hash, 0x79d8_9379_61b7_e823, "pinned hash {hash:#018x}");
}
