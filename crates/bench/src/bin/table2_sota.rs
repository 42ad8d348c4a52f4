//! Table II: comparison with the SOTA approaches the paper benchmarks,
//! all re-implemented in this framework on the same architecture/data:
//!
//! * Rathi et al. 2020 \[7\] — hybrid training at T = 5 (threshold-balance
//!   conversion + SGL),
//! * Kundu et al. 2021 \[26\] — hybrid training at T = 10 (same recipe,
//!   more steps),
//! * Deng et al. 2021 \[15\] — conversion-only at T = 16 (bias shift +
//!   trained thresholds),
//! * **this work** — α/β conversion + SGL at T = 2.
//!
//! Expected shape: ours reaches comparable accuracy with 2.5–8× fewer
//! steps.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin table2_sota [--scale small]
//! ```

use serde::Serialize;
use ull_bench::{load_data, sgl_finetune, train_or_load_dnn, write_report, Arch, Scale};
use ull_core::{convert, run_pipeline, ConversionMethod, PipelineConfig};
use ull_snn::evaluate_snn;
use ull_tensor::init::seeded_rng;

#[derive(Serialize)]
struct Row {
    dataset: String,
    approach: String,
    training_type: String,
    arch: String,
    accuracy: f32,
    time_steps: usize,
}

#[derive(Serialize)]
struct Table2Report {
    rows: Vec<Row>,
    dnn_reference: Vec<(String, f32)>,
}

fn main() {
    let scale = Scale::from_args();
    let mut rows = Vec::new();
    let mut dnn_ref = Vec::new();
    // The 100-class half is omitted at CPU scale: a learnable 100-way
    // VGG-16 needs more data/epochs than the budget allows (see
    // EXPERIMENTS.md); the 10-class comparison carries the same shape.
    // The single-element loop keeps the insertion point for 100 classes.
    #[allow(clippy::single_element_loop)]
    for classes in [10usize] {
        let dataset = format!("synth-{classes}");
        let (train, test) = load_data(scale, classes);

        // One shared source DNN per dataset (iso-architecture comparison).
        let mut rng = seeded_rng(42);
        let (mut dnn, dnn_acc) = train_or_load_dnn(
            "vgg16",
            scale,
            Arch::Vgg16,
            classes,
            &train,
            &test,
            &mut rng,
        );
        println!(
            "\n[{dataset}] VGG-16 DNN reference: {:.2} %",
            dnn_acc * 100.0
        );
        dnn_ref.push((dataset.clone(), dnn_acc));

        // Hybrid baselines: threshold-balance conversion + SGL at T steps.
        let hybrid = |label: &str, t: usize, epochs: usize, rows: &mut Vec<Row>| {
            let (mut snn, _) =
                convert(&dnn, &train, ConversionMethod::ThresholdBalance, t).expect("convert");
            let best = sgl_finetune(&mut snn, &train, Some(&test), t, epochs, 43, |_| {})
                .expect("test set given");
            println!("  {label:<34} T={t:<3} acc {:.2} %", best * 100.0);
            rows.push(Row {
                dataset: dataset.clone(),
                approach: label.to_string(),
                training_type: "hybrid".to_string(),
                arch: "VGG-16".to_string(),
                accuracy: best,
                time_steps: t,
            });
        };
        hybrid(
            "Rathi et al. 2020 [7] (repro)",
            5,
            scale.snn_epochs().min(4),
            &mut rows,
        );
        // T = 10 BPTT is 5x the cost per epoch; halve the epochs (the
        // baseline converges quickly from its threshold-balanced init).
        hybrid("Kundu et al. 2021 [26] (repro)", 10, 2, &mut rows);

        // Deng et al. [15]: optimal conversion only, T = 16.
        {
            let t = 16;
            let (snn, _) = convert(&dnn, &train, ConversionMethod::BiasShift, t).expect("convert");
            let (acc, _) = evaluate_snn(&snn, &test, t, scale.batch());
            println!(
                "  {:<34} T={t:<3} acc {:.2} %",
                "Deng et al. 2021 [15] (repro)",
                acc * 100.0
            );
            rows.push(Row {
                dataset: dataset.clone(),
                approach: "Deng et al. 2021 [15] (repro)".to_string(),
                training_type: "DNN-to-SNN conversion".to_string(),
                arch: "VGG-16".to_string(),
                accuracy: acc,
                time_steps: t,
            });
        }

        // This work: α/β conversion + SGL at T = 2.
        {
            let t = 2;
            let cfg = PipelineConfig {
                dnn_epochs: 0, // reuse the already-trained DNN
                snn_epochs: scale.snn_epochs().min(4),
                time_steps: t,
            };
            let mut rng = seeded_rng(44);
            let (report, _) =
                run_pipeline(&mut dnn, &train, &test, &cfg, &mut rng).expect("pipeline");
            println!(
                "  {:<34} T={t:<3} acc {:.2} %",
                "This work (alpha/beta + SGL)",
                report.snn_accuracy * 100.0
            );
            rows.push(Row {
                dataset: dataset.clone(),
                approach: "This work (alpha/beta + SGL)".to_string(),
                training_type: "hybrid".to_string(),
                arch: "VGG-16".to_string(),
                accuracy: report.snn_accuracy,
                time_steps: t,
            });
        }
    }
    let path = write_report(
        "table2_sota",
        scale,
        &Table2Report {
            rows,
            dnn_reference: dnn_ref,
        },
    );
    println!("\nreport written to {}", path.display());
}
