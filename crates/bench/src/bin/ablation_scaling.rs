//! §IV-B ablation study:
//!
//! 1. The threshold-scaling heuristics of \[16\]/\[24\] followed by SGL
//!    collapse to near-chance accuracy at T = 2–3 (the initialisation is
//!    too far off for SGL to recover in budget), while the paper's α/β
//!    initialisation trains fine.
//! 2. Conversion-only latency: the α/β scaling alone (no SGL) reaches
//!    near-DNN accuracy around T ≈ 12, versus T ≈ 16 for the optimal
//!    conversion of \[15\].
//! 3. Percentile-α vs linear-α search (design-decision ablation #4 in
//!    DESIGN.md): percentile placement finds a lower residual loss.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin ablation_scaling [--scale small]
//! ```
//!
//! `--scale tiny` is a run check only: it trains VGG-16 to chance
//! (9.38 % on 10 classes) and α/β conversion alone reads 0.00 %, so a
//! tiny run shows that the bin runs, not that its numbers hold. Use
//! `--scale small` (the committed `reports/*_small.json`) for results.

use serde::Serialize;
use ull_bench::{load_data, sgl_finetune, train_or_load_dnn, write_report, Arch, Scale};
use ull_core::{
    beta_grid, beta_losses, collect_preactivations, convert, find_scaling_factors, ConversionMethod,
};
use ull_snn::evaluate_snn;
use ull_tensor::init::seeded_rng;
use ull_tensor::stats::percentile_table;

#[derive(Serialize)]
struct AblationReport {
    dnn_accuracy: f32,
    sgl_from_heuristic: Vec<(usize, f32)>,
    sgl_from_alpha_beta: Vec<(usize, f32)>,
    steps_to_near_dnn_alpha_beta: Option<usize>,
    steps_to_near_dnn_deng: Option<usize>,
    conversion_only_alpha_beta: Vec<(usize, f32)>,
    conversion_only_deng: Vec<(usize, f32)>,
    percentile_search_loss: f32,
    linear_search_loss: f32,
}

fn main() {
    let scale = Scale::from_args();
    let classes = 10;
    let (train, test) = load_data(scale, classes);
    let mut rng = seeded_rng(42);
    let (dnn, dnn_acc) = train_or_load_dnn(
        "vgg16",
        scale,
        Arch::Vgg16,
        classes,
        &train,
        &test,
        &mut rng,
    );
    println!("VGG-16 DNN reference: {:.2} %\n", dnn_acc * 100.0);

    // Part 1: SGL starting from heuristic-scaled vs alpha/beta conversion.
    let mut sgl_heur = Vec::new();
    let mut sgl_ab = Vec::new();
    for t in [2usize, 3] {
        let (mut snn_h, _) = convert(
            &dnn,
            &train,
            ConversionMethod::ScalingHeuristic { factor: 0.4 },
            t,
        )
        .expect("convert heuristic");
        let acc_h = sgl_finetune(
            &mut snn_h,
            &train,
            Some(&test),
            t,
            scale.snn_epochs().min(4),
            77,
            |_| {},
        )
        .expect("test set given");
        let (mut snn_ab, _) =
            convert(&dnn, &train, ConversionMethod::AlphaBeta, t).expect("convert ab");
        let acc_ab = sgl_finetune(
            &mut snn_ab,
            &train,
            Some(&test),
            t,
            scale.snn_epochs().min(4),
            77,
            |_| {},
        )
        .expect("test set given");
        println!(
            "SGL from heuristic [16,24] init: T={t} -> {:.2} %   |   from alpha/beta init: {:.2} %",
            acc_h * 100.0,
            acc_ab * 100.0
        );
        sgl_heur.push((t, acc_h));
        sgl_ab.push((t, acc_ab));
    }

    // Part 2: conversion-only steps-to-accuracy race.
    println!("\nconversion-only accuracy (no SGL):");
    let near = dnn_acc - 0.03; // "similar test accuracy" band
    let ts = [2usize, 4, 6, 8, 10, 12, 16, 24];
    let mut conv_ab = Vec::new();
    let mut conv_deng = Vec::new();
    let mut first_ab = None;
    let mut first_deng = None;
    print!("{:<24}", "T");
    for t in ts {
        print!("{t:>8}");
    }
    println!();
    for (label, method, out, first) in [
        (
            "alpha/beta (ours)",
            ConversionMethod::AlphaBeta,
            &mut conv_ab,
            &mut first_ab,
        ),
        (
            "Deng et al. [15]",
            ConversionMethod::BiasShift,
            &mut conv_deng,
            &mut first_deng,
        ),
    ] {
        print!("{label:<24}");
        for &t in &ts {
            let (snn, _) = convert(&dnn, &train, method, t).expect("convert");
            let (acc, _) = evaluate_snn(&snn, &test, t, scale.batch());
            out.push((t, acc));
            if first.is_none() && acc >= near {
                *first = Some(t);
            }
            print!("{:>7.1}%", acc * 100.0);
        }
        println!();
    }
    println!(
        "steps to reach within 3 pts of the DNN: ours {:?}, [15] {:?}",
        first_ab, first_deng
    );

    // Part 3: percentile vs linear alpha search.
    let layers = collect_preactivations(&dnn, &train, 64, 20_000);
    let layer = &layers[1];
    let table = percentile_table(&layer.samples);
    let (_, _, p_loss) = find_scaling_factors(&table, layer.mu, 2);
    // Linear grid with the same number of candidates (101 alphas).
    let candidates: Vec<f32> = table
        .iter()
        .copied()
        .filter(|&p| p > 0.0 && p <= layer.mu)
        .collect();
    let betas = beta_grid();
    let mut l_best = f32::INFINITY;
    for i in 1..=101 {
        let alpha = i as f32 / 101.0;
        for loss in beta_losses(&candidates, layer.mu, alpha, &betas, 2) {
            if loss.abs() < l_best.abs() {
                l_best = loss;
            }
        }
    }
    println!(
        "\nalpha-search on layer {}: percentile grid loss {:+.4} vs linear grid loss {:+.4}",
        layer.node, p_loss, l_best
    );

    let report = AblationReport {
        dnn_accuracy: dnn_acc,
        sgl_from_heuristic: sgl_heur,
        sgl_from_alpha_beta: sgl_ab,
        steps_to_near_dnn_alpha_beta: first_ab,
        steps_to_near_dnn_deng: first_deng,
        conversion_only_alpha_beta: conv_ab,
        conversion_only_deng: conv_deng,
        percentile_search_loss: p_loss,
        linear_search_loss: l_best,
    };
    let path = write_report("ablation_scaling", scale, &report);
    println!("\nreport written to {}", path.display());
}
