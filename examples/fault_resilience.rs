//! Inference-time fault resilience: inject hardware faults into a trained
//! SNN, watch the spike-rate watchdog catch them, and let deadline-aware
//! anytime inference trade steps for certainty.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example fault_resilience
//! ```

use ultralow_snn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data_cfg = SynthCifarConfig::small(10);
    let (train, test) = generate(&data_cfg);
    let mut dnn = models::vgg_micro(data_cfg.classes, data_cfg.image_size, 0.5, 91);
    let t = 3;
    let mut cfg = PipelineConfig::small(t);
    cfg.dnn_epochs = 10;
    cfg.snn_epochs = 5;
    let mut rng = seeded_rng(92);
    let (report, snn) = run_pipeline(&mut dnn, &train, &test, &cfg, &mut rng)?;
    println!(
        "clean accuracy: DNN {:.1} %, SNN (T={t}) {:.1} %\n",
        report.dnn_accuracy * 100.0,
        report.snn_accuracy * 100.0
    );

    // 1. Fault injection: the same network under increasingly hostile
    //    weight memory. Everything is seeded — rerunning reproduces the
    //    exact same corruption.
    println!(
        "{:<22}{:>12}{:>14}",
        "weight memory BER", "SNN %", "watchdog"
    );
    let envelope = profile_envelope(&snn, &test, t, 8);
    for ber in [0.0, 1e-4, 1e-3, 1e-2] {
        let fault_cfg = FaultConfig::new(7).with(InferenceFault::WeightBitFlip { ber });
        let faulted = FaultedNetwork::new(&snn, &fault_cfg);
        let (acc, stats) = evaluate_faulted(&faulted, &test, t, 32);
        let healthy = envelope.check(&stats.report()).is_empty();
        println!(
            "{:<22.0e}{:>11.1}%{:>14}",
            ber,
            acc * 100.0,
            if healthy { "ok" } else { "FLAGGED" }
        );
    }

    // 2. Transient spike-fabric faults: dropped and spurious spikes.
    println!();
    for (label, fault) in [
        (
            "10 % spikes dropped",
            InferenceFault::SpikeDelete { rate: 0.1 },
        ),
        (
            "1 % spurious spikes",
            InferenceFault::SpikeInsert { rate: 0.01 },
        ),
        (
            "5 % dead neurons",
            InferenceFault::StuckAtZero { rate: 0.05 },
        ),
    ] {
        let faulted = FaultedNetwork::new(&snn, &FaultConfig::new(11).with(fault));
        let (acc, _) = evaluate_faulted(&faulted, &test, t, 32);
        println!("{label:<22} SNN accuracy {:.1} %", acc * 100.0);
    }

    // 3. Deadline-aware inference: commit early once the logit margin
    //    clears a gate calibrated on training data.
    let margin = calibrate_margin(&snn, &train, t, 32, 0.98);
    let schedule = AnytimeSchedule::uniform(t, margin);
    let mut steps = 0usize;
    let mut correct = 0usize;
    let mut seen = 0usize;
    for batch in test.eval_batches(32) {
        let out = anytime_forward_scheduled(&snn, &batch.images, &schedule);
        steps += out.steps_used.iter().sum::<usize>();
        for (p, &l) in out.predictions.iter().zip(&batch.labels) {
            if *p == l {
                correct += 1;
            }
        }
        seen += batch.labels.len();
    }
    println!(
        "\nanytime inference: margin gate {margin:.3}, mean {:.2} of {t} steps, accuracy {:.1} %",
        steps as f64 / seen as f64,
        correct as f32 / seen as f32 * 100.0
    );
    Ok(())
}
