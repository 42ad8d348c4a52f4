//! Quickstart: train a small DNN, convert it to a 2-time-step SNN with the
//! paper's percentile α/β scaling (Algorithm 1), fine-tune with surrogate
//! gradients, and print the Table-I-style accuracy triple.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Set `ULL_CHECKPOINT_DIR=/some/dir` to run crash-safely: the pipeline
//! commits an atomic checkpoint every epoch and, if the directory already
//! holds one (e.g. the previous run was killed), resumes from it and
//! finishes bit-identically to an uninterrupted run.
//!
//! Set `ULL_TRACE=/some/file.jsonl` to stream observability events (span
//! timings, spike/MAC counters) to a JSONL file, or `ULL_METRICS=1` for
//! in-memory aggregation only; either way the report gains a metrics
//! snapshot and a span summary is printed at the end.

use ultralow_snn::obs;
use ultralow_snn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if obs::init_from_env() {
        println!("observability enabled (ULL_TRACE/ULL_METRICS)");
    }
    // SynthCifar stands in for CIFAR-10 (DESIGN.md §2).
    let data_cfg = SynthCifarConfig::small(10);
    println!(
        "generating SynthCifar-{}: {} train / {} test images of {}x{}",
        data_cfg.classes,
        data_cfg.train_size,
        data_cfg.test_size,
        data_cfg.image_size,
        data_cfg.image_size
    );
    let (train, test) = generate(&data_cfg);

    // A width-reduced VGG with trainable-threshold ReLU activations.
    let mut dnn = models::vgg_micro(data_cfg.classes, data_cfg.image_size, 0.5, 42);
    println!("\nmodel:\n{}", dnn.describe());

    let t = 2; // ultra-low latency: two time steps
    let mut cfg = PipelineConfig::small(t);
    cfg.dnn_epochs = 10;
    cfg.snn_epochs = 5;

    let mut rng = seeded_rng(7);
    let (report, snn) = match std::env::var_os("ULL_CHECKPOINT_DIR") {
        Some(dir) => {
            let dir = std::path::Path::new(&dir);
            println!(
                "\ncheckpointing to {} (resuming if a checkpoint exists)",
                dir.display()
            );
            let plan = &mut FaultPlan::none();
            run_or_resume_pipeline(&mut dnn, &train, &test, &cfg, dir, &mut rng, plan)?
        }
        None => run_pipeline(&mut dnn, &train, &test, &cfg, &mut rng)?,
    };
    for event in &report.recovery_events {
        println!("recovery: {event}");
    }

    println!("\n=== Table-I style result (T = {t}) ===");
    println!(
        "(a) DNN accuracy:                 {:.2} %",
        report.dnn_accuracy * 100.0
    );
    println!(
        "(b) after DNN->SNN conversion:    {:.2} %",
        report.converted_accuracy * 100.0
    );
    println!(
        "(c) after SGL fine-tuning:        {:.2} %",
        report.snn_accuracy * 100.0
    );

    // Full per-layer picture: scalings, rate errors by depth, spike rates.
    let summary = ultralow_snn::core::ConversionSummary::measure(
        &dnn,
        &snn,
        &report.scalings,
        &train,
        &test,
        t,
        32,
    );
    println!("\n{}", summary.to_markdown());

    // Where did the spikes go?
    let (_, stats) = evaluate_snn(&snn, &test, t, 32);
    let activity = stats.report();
    println!(
        "\ntotal spikes per image over {} steps: {:.0} (mean rate {:.3} spikes/neuron)",
        t,
        activity.total_spikes_per_image(),
        activity.mean_spike_rate()
    );

    if obs::enabled() {
        let snap = obs::snapshot();
        println!("\n=== observability ({} spans) ===", snap.spans.len());
        let mut spans: Vec<_> = snap.spans.iter().collect();
        spans.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_ns));
        for (path, s) in spans.iter().take(10) {
            println!(
                "{:<40} {:>8} calls  {:>10.3} ms total",
                path,
                s.count,
                s.total_ns as f64 / 1e6
            );
        }
        println!(
            "spikes recorded: {}   nominal MACs: {}",
            snap.counter_prefix_sum("snn.spikes.node."),
            snap.counters.get("tensor.macs").copied().unwrap_or(0)
        );
        obs::flush_trace();
    }
    Ok(())
}
