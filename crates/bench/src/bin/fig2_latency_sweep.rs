//! Fig. 2: conversion-only test accuracy vs number of time steps, for VGG
//! and ResNet, comparing threshold-ReLU thresholds (`V^th = μ`) against the
//! max-pre-activation thresholds of \[15\] (`V^th = d_max`).
//!
//! Expected shape: both collapse toward chance as T → 1–3; `d_max` is
//! consistently worse (its thresholds are outliers); both recover by
//! T ≈ 16.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin fig2_latency_sweep [--scale small]
//! ```

use serde::Serialize;
use ull_bench::{load_data, train_or_load_dnn, write_report, Arch, Scale};
use ull_core::{convert, ConversionMethod};
use ull_snn::evaluate_snn;
use ull_tensor::init::seeded_rng;

#[derive(Serialize)]
struct Series {
    arch: String,
    method: String,
    dnn_accuracy: f32,
    by_t: Vec<(usize, f32)>,
}

#[derive(Serialize)]
struct Fig2Report {
    series: Vec<Series>,
    chance: f32,
}

fn main() {
    let scale = Scale::from_args();
    let classes = 10;
    let (train, test) = load_data(scale, classes);
    let ts = [1usize, 2, 3, 4, 5, 8, 12, 16];
    let archs = [Arch::Vgg16, Arch::ResNet20];
    let methods = [
        ("threshold ReLU (V=mu)", ConversionMethod::ThresholdBalance),
        (
            "max pre-activation [15]",
            ConversionMethod::MaxPreactivation { percentile: 100.0 },
        ),
    ];

    let mut series = Vec::new();
    for arch in archs {
        let tag = if arch == Arch::Vgg16 {
            "vgg16"
        } else {
            "resnet20"
        };
        let mut rng = seeded_rng(22);
        let (dnn, dnn_acc) = train_or_load_dnn(tag, scale, arch, classes, &train, &test, &mut rng);
        println!("\n{} DNN accuracy: {:.1} %", arch.name(), dnn_acc * 100.0);
        for (mname, method) in methods {
            print!("  {mname:<26}");
            let mut by_t = Vec::new();
            for &t in &ts {
                let (snn, _) = convert(&dnn, &train, method, t).expect("conversion");
                let (acc, _) = evaluate_snn(&snn, &test, t, scale.batch());
                by_t.push((t, acc));
                print!(" T{t}:{:>5.1}%", acc * 100.0);
            }
            println!();
            series.push(Series {
                arch: arch.name().to_string(),
                method: mname.to_string(),
                dnn_accuracy: dnn_acc,
                by_t,
            });
        }
    }

    let report = Fig2Report {
        series,
        chance: 1.0 / classes as f32,
    };
    let path = write_report("fig2_latency_sweep", scale, &report);
    println!("\nreport written to {}", path.display());
}
