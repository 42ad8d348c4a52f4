//! The zero-epoch pipeline paths the experiment binaries take:
//! `table1_pipeline` and `table2_sota` hand `run_pipeline` an already
//! trained DNN with `dnn_epochs: 0`, and `spike_raster` converts without
//! fine-tuning (`snn_epochs: 0`).

use ull_core::{convert, run_pipeline, ConversionMethod, PipelineConfig};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::{evaluate, models, Network};
use ull_tensor::init::seeded_rng;

fn fixture() -> (Dataset, Dataset, Network) {
    let cfg = SynthCifarConfig::tiny(4);
    let (train, test) = generate(&cfg);
    let dnn = models::vgg_micro(4, cfg.image_size, 0.5, 11);
    (train, test, dnn)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

#[test]
fn zero_dnn_epochs_return_the_dnn_bit_identical() {
    let (train, test, dnn0) = fixture();
    let mut dnn = dnn0.clone();
    let cfg = PipelineConfig {
        dnn_epochs: 0,
        snn_epochs: 1,
        time_steps: 2,
    };
    let (rep, _) = run_pipeline(&mut dnn, &train, &test, &cfg, &mut seeded_rng(3)).unwrap();
    assert_eq!(rep.dnn_seconds, 0.0, "a DNN epoch ran");
    assert_eq!(json(&dnn), json(&dnn0), "the DNN changed without training");
    assert_eq!(
        rep.dnn_accuracy.to_bits(),
        evaluate(&dnn0, &test, 32).to_bits()
    );
}

#[test]
fn zero_snn_epochs_report_and_return_the_converted_snn() {
    let (train, test, mut dnn) = fixture();
    let cfg = PipelineConfig {
        dnn_epochs: 1,
        snn_epochs: 0,
        time_steps: 2,
    };
    let (rep, snn) = run_pipeline(&mut dnn, &train, &test, &cfg, &mut seeded_rng(3)).unwrap();
    assert_eq!(rep.snn_seconds, 0.0, "an SGL epoch ran");
    assert_eq!(rep.snn_accuracy.to_bits(), rep.converted_accuracy.to_bits());
    let (converted, _) = convert(&dnn, &train, ConversionMethod::AlphaBeta, 2).unwrap();
    assert_eq!(json(&snn), json(&converted), "the SNN changed without SGL");
}
