//! Fig. 3: training/inference time per epoch and memory consumption as a
//! function of T — ours (T = 2, 3) vs the 5-step hybrid baseline \[7\].
//!
//! Time is wall-clock per epoch on this machine; memory is the exact byte
//! count of the BPTT tape (training) and of the persistent membrane state
//! (inference). Both scale linearly with T, which is the paper's claimed
//! mechanism for the 2.38× / 1.44× savings.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin fig3_cost [--scale small]
//! ```

use serde::Serialize;
use ull_bench::{load_data, train_or_load_dnn, write_report, Arch, Scale};
use ull_core::{convert, sgl_recipe, ConversionMethod};
use ull_snn::{evaluate_snn, train_snn_epoch};
use ull_tensor::init::seeded_rng;

#[derive(Serialize)]
struct CostRow {
    time_steps: usize,
    train_seconds_per_epoch: f64,
    train_tape_bytes: usize,
    inference_seconds: f64,
    inference_accuracy: f32,
}

#[derive(Serialize)]
struct Fig3Report {
    rows: Vec<CostRow>,
    ratio_train_time_t5_over_t2: f64,
    ratio_train_mem_t5_over_t2: f64,
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

    let mut rows = Vec::new();
    println!(
        "{:>4}{:>22}{:>18}{:>18}{:>12}",
        "T", "train s/epoch", "tape MB", "inference s", "acc %"
    );
    for t in [2usize, 3, 5] {
        let (mut snn, _) = convert(&dnn, &train, ConversionMethod::AlphaBeta, t).expect("convert");
        let (sgd, schedule, cfg) = sgl_recipe(1, t);
        let mut rng = seeded_rng(5);
        let stats = train_snn_epoch(&mut snn, &train, &sgd, schedule.factor(0), &cfg, &mut rng);
        let inf_start = std::time::Instant::now();
        let (acc, _) = evaluate_snn(&snn, &test, t, scale.batch());
        let inf_seconds = inf_start.elapsed().as_secs_f64();
        println!(
            "{:>4}{:>22.2}{:>18.2}{:>18.2}{:>11.1}%",
            t,
            stats.seconds,
            stats.tape_bytes as f64 / 1e6,
            inf_seconds,
            acc * 100.0
        );
        rows.push(CostRow {
            time_steps: t,
            train_seconds_per_epoch: stats.seconds,
            train_tape_bytes: stats.tape_bytes,
            inference_seconds: inf_seconds,
            inference_accuracy: acc,
        });
    }
    let t2 = &rows[0];
    let t5 = &rows[2];
    let time_ratio = t5.train_seconds_per_epoch / t2.train_seconds_per_epoch;
    let mem_ratio = t5.train_tape_bytes as f64 / t2.train_tape_bytes as f64;
    println!(
        "\nT=5 vs T=2: {:.2}x training time, {:.2}x training memory",
        time_ratio, mem_ratio
    );
    println!("(paper: 2.38x time, 1.44x memory — GPU totals include fixed weight storage,\n which damps the memory ratio relative to our pure-tape accounting)");

    let report = Fig3Report {
        rows,
        ratio_train_time_t5_over_t2: time_ratio,
        ratio_train_mem_t5_over_t2: mem_ratio,
    };
    let path = write_report("fig3_cost", scale, &report);
    println!("\nreport written to {}", path.display());
}
