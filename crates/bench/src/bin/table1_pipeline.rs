//! Table I: for each (architecture, dataset, T) cell, the accuracy triple
//! (a) trained DNN, (b) after DNN→SNN conversion with the paper's α/β
//! scaling, (c) after SGL fine-tuning.
//!
//! Architectures: VGG-11 / VGG-16 / ResNet-20 on the 10-class dataset;
//! VGG-16 / ResNet-20 on the 100-class dataset — exactly the paper's grid,
//! at T ∈ {2, 3}.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin table1_pipeline [--scale small]
//! ```

use serde::Serialize;
use ull_bench::{flag_value, load_data, or_exit, train_or_load_dnn, write_report, Arch, Scale};
use ull_core::{run_pipeline, PipelineConfig};
use ull_tensor::init::seeded_rng;

#[derive(Serialize)]
struct Row {
    dataset: String,
    arch: String,
    time_steps: usize,
    dnn_accuracy: f32,
    converted_accuracy: f32,
    snn_accuracy: f32,
}

#[derive(Serialize)]
struct Table1Report {
    rows: Vec<Row>,
}

/// `--classes N` keeps only the grid rows with N classes; absent, every
/// row runs. A value that is not a number is an error.
fn parse_classes_filter(args: &[String]) -> Result<Option<usize>, String> {
    flag_value(args, "--classes")?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--classes needs a class count, got `{v}`"))
        })
        .transpose()
}

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let filter = or_exit(parse_classes_filter(&args));
    let grid: [(usize, Arch); 5] = [
        (10, Arch::Vgg11),
        (10, Arch::Vgg16),
        (10, Arch::ResNet20),
        (100, Arch::Vgg16),
        (100, Arch::ResNet20),
    ];
    let mut rows = Vec::new();
    println!(
        "{:<14}{:<12}{:>4}{:>12}{:>14}{:>12}",
        "dataset", "arch", "T", "DNN %", "converted %", "SGL %"
    );
    for (classes, arch) in grid {
        if filter.is_some_and(|f| f != classes) {
            continue;
        }
        let (train, test) = load_data(scale, classes);
        let tag = match arch {
            Arch::Vgg11 => "vgg11",
            Arch::Vgg16 => "vgg16",
            Arch::ResNet20 => "resnet20",
        };
        for t in [2usize, 3] {
            let mut rng0 = seeded_rng(7);
            let (mut dnn, _) =
                train_or_load_dnn(tag, scale, arch, classes, &train, &test, &mut rng0);
            let cfg = PipelineConfig {
                dnn_epochs: 0, // trained (or cached) above
                snn_epochs: scale.snn_epochs().min(4),
                time_steps: t,
            };
            // (The paper trains CIFAR-100 longer — 300 vs 200 SNN epochs —
            // but at CPU scale the shared epoch budget is already the
            // binding constraint, so both datasets use the same budget.)
            let mut rng = seeded_rng(1000 + t as u64);
            let (report, _) =
                run_pipeline(&mut dnn, &train, &test, &cfg, &mut rng).expect("pipeline");
            println!(
                "{:<14}{:<12}{:>4}{:>11.2}%{:>13.2}%{:>11.2}%",
                format!("synth-{classes}"),
                arch.name(),
                t,
                report.dnn_accuracy * 100.0,
                report.converted_accuracy * 100.0,
                report.snn_accuracy * 100.0
            );
            rows.push(Row {
                dataset: format!("synth-{classes}"),
                arch: arch.name().to_string(),
                time_steps: t,
                dnn_accuracy: report.dnn_accuracy,
                converted_accuracy: report.converted_accuracy,
                snn_accuracy: report.snn_accuracy,
            });
        }
    }
    let path = write_report("table1_pipeline", scale, &Table1Report { rows });
    println!("\nreport written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn classes_filter_parses_or_fails_loudly() {
        assert_eq!(parse_classes_filter(&args(&["bin"])), Ok(None));
        assert_eq!(
            parse_classes_filter(&args(&["bin", "--scale", "tiny", "--classes", "100"])),
            Ok(Some(100))
        );
        let err = parse_classes_filter(&args(&["bin", "--classes", "ten"])).unwrap_err();
        assert!(err.contains("ten"), "got: {err}");
        assert!(parse_classes_filter(&args(&["bin", "--classes"])).is_err());
    }
}
