//! Pins the whole DNN → convert → SGL sequence bit for bit: the final DNN
//! and SNN (their JSON, weights and momentum included), the three Table-I
//! accuracies and the recovery log, hashed with FNV-1a. One run is the
//! plain `run_pipeline`; the other injects a NaN gradient into DNN epoch 1
//! and SGL epoch 1, so the rollback path and what it restores are pinned
//! too. Each recovery event keeps only the text before `"; restored"`:
//! what follows names where the run restored from, not what it computed.

use ull_core::{
    run_or_resume_pipeline, run_pipeline, FaultKind, FaultPlan, PipelineConfig, PipelinePhase,
    PipelineReport,
};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::{fnv1a, models, Network};
use ull_snn::SnnNetwork;
use ull_tensor::init::seeded_rng;

fn fixture() -> (Dataset, Dataset, Network, PipelineConfig) {
    let cfg = SynthCifarConfig::tiny(4);
    let (train, test) = generate(&cfg);
    let dnn = models::vgg_micro(4, cfg.image_size, 0.5, 11);
    let mut pcfg = PipelineConfig::small(2);
    pcfg.dnn_epochs = 4;
    pcfg.snn_epochs = 3;
    (train, test, dnn, pcfg)
}

fn run_hash(dnn: &Network, snn: &SnnNetwork, rep: &PipelineReport) -> u64 {
    let mut bytes = serde_json::to_string(dnn).unwrap().into_bytes();
    bytes.extend(serde_json::to_string(snn).unwrap().into_bytes());
    for acc in [rep.dnn_accuracy, rep.converted_accuracy, rep.snn_accuracy] {
        bytes.extend(acc.to_bits().to_le_bytes());
    }
    for event in &rep.recovery_events {
        let diagnosis = event.split("; restored").next().unwrap_or(event);
        bytes.extend(diagnosis.as_bytes());
        bytes.push(b'\n');
    }
    fnv1a(&bytes)
}

#[test]
fn plain_pipeline_is_pinned_bit_for_bit() {
    let (train, test, mut dnn, pcfg) = fixture();
    let mut rng = seeded_rng(12);
    let (rep, snn) = run_pipeline(&mut dnn, &train, &test, &pcfg, &mut rng).unwrap();
    assert!(rep.recovery_events.is_empty(), "{:?}", rep.recovery_events);
    let hash = run_hash(&dnn, &snn, &rep);
    assert_eq!(hash, 0x0ab5_364c_3687_488b, "pinned hash {hash:#018x}");
}

#[test]
fn nan_rollback_pipeline_is_pinned_bit_for_bit() {
    let (train, test, mut dnn, mut pcfg) = fixture();
    pcfg.dnn_epochs = 6;
    let dir = std::env::temp_dir()
        .join("ull_core_pipeline_pin")
        .join(format!("nan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = seeded_rng(12);
    let mut plan = FaultPlan::none()
        .with(
            PipelinePhase::DnnTrain,
            1,
            FaultKind::NanGradient { batch: 0 },
        )
        .with(PipelinePhase::Sgl, 1, FaultKind::NanGradient { batch: 1 });
    let result = run_or_resume_pipeline(&mut dnn, &train, &test, &pcfg, &dir, &mut rng, &mut plan);
    let _ = std::fs::remove_dir_all(&dir);
    let (rep, snn) = result.expect("pipeline must recover from injected NaNs");
    assert_eq!(plan.pending(), 0, "both faults must have fired");
    assert_eq!(rep.recovery_events.len(), 2, "{:?}", rep.recovery_events);
    let hash = run_hash(&dnn, &snn, &rep);
    assert_eq!(hash, 0xc31a_ed10_c621_628c, "pinned hash {hash:#018x}");
}
