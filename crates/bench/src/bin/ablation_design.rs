//! Design-decision ablations (DESIGN.md §5), beyond the paper's own §IV-B
//! study:
//!
//! 1. **IF vs trainable-leak LIF** in SGL fine-tuning (the paper trains
//!    the leak jointly; does it matter at T = 2?).
//! 2. **Amplitude folding**: spike outputs scaled in the simulator vs
//!    folded into downstream weights — must be output-equivalent, and
//!    folding makes hidden layers multiplication-free.
//! 3. **Bias shift** on top of α/β scaling (the paper removes the bias
//!    term; check it indeed doesn't help once α/β are tuned).
//! 4. **Direct vs Poisson-rate input encoding** at matched T.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin ablation_design [--scale small]
//! ```
//!
//! `--scale tiny` is a run check only: it trains VGG-16 to chance
//! (9.38 % on 10 classes) and α/β conversion alone reads 0.00 %, so a
//! tiny run shows that the bin runs, not that its numbers hold. Use
//! `--scale small` (the committed `reports/*_small.json`) for results.

use serde::Serialize;
use ull_bench::{load_data, sgl_finetune, train_or_load_dnn, write_report, Arch, Scale};
use ull_core::{convert, ConversionMethod};
use ull_snn::{evaluate_snn, InputEncoding, SnnNetwork, SnnOp, SpikeSpec};
use ull_tensor::init::seeded_rng;

#[derive(Serialize)]
struct DesignAblationReport {
    dnn_accuracy: f32,
    sgl_if_fixed_leak: f32,
    sgl_lif_trainable_leak: f32,
    final_leaks: Vec<f32>,
    fold_max_logit_difference: f32,
    alpha_beta_accuracy: f32,
    alpha_beta_plus_bias_accuracy: f32,
    direct_encoding_accuracy: f32,
    rate_encoding_accuracy: f32,
}

fn main() {
    let scale = Scale::from_args();
    let classes = 10;
    let t = 2;
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

    // 1. IF (leak pinned to 1) vs LIF (leak trainable) during SGL.
    let (mut snn_if, _) = convert(&dnn, &train, ConversionMethod::AlphaBeta, t).expect("convert");
    // IF ablation: pin the leak back to 1 after each epoch.
    let pin_leak = |snn: &mut SnnNetwork| {
        for node in snn.nodes_mut() {
            if let SnnOp::Spike(layer) = &mut node.op {
                layer.leak.value.fill(1.0);
                layer.leak.momentum.fill(0.0);
            }
        }
    };
    let epochs = scale.snn_epochs();
    let acc_if = sgl_finetune(&mut snn_if, &train, Some(&test), t, epochs, 31, pin_leak)
        .expect("test set given");
    let (mut snn_lif, _) = convert(&dnn, &train, ConversionMethod::AlphaBeta, t).expect("convert");
    let acc_lif = sgl_finetune(&mut snn_lif, &train, Some(&test), t, epochs, 31, |_| {})
        .expect("test set given");
    let final_leaks: Vec<f32> = snn_lif
        .nodes()
        .iter()
        .filter_map(|n| match &n.op {
            SnnOp::Spike(l) => Some(l.leak.scalar_value()),
            _ => None,
        })
        .collect();
    println!(
        "1. SGL at T={t}: IF (leak=1) {:.2} %  vs  LIF (trainable leak) {:.2} %",
        acc_if * 100.0,
        acc_lif * 100.0
    );
    println!(
        "   learned leaks: {:?}",
        final_leaks
            .iter()
            .map(|l| (l * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // 2. Amplitude folding equivalence on the fine-tuned network.
    let mut folded = snn_lif.clone();
    let fold_diff = match folded.fold_amplitudes() {
        Ok(()) => {
            let batch = test.batch(&(0..32).collect::<Vec<_>>());
            let a = snn_lif.forward(&batch.images, t).logits;
            let b = folded.forward(&batch.images, t).logits;
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max)
        }
        Err(e) => {
            println!("   folding unsupported here: {e}");
            f32::NAN
        }
    };
    println!("2. fold_amplitudes max |logit difference|: {fold_diff:.2e} (spikes now binary)");

    // 3. α/β with and without the bias shift the paper removed.
    let (snn_ab, scalings) =
        convert(&dnn, &train, ConversionMethod::AlphaBeta, t).expect("convert");
    let (acc_ab, _) = evaluate_snn(&snn_ab, &test, t, scale.batch());
    let specs_bias: Vec<SpikeSpec> = scalings
        .iter()
        .map(|s| {
            let mut spec = SpikeSpec::scaled(s.mu, s.alpha, s.beta);
            spec.u_init = spec.v_th / 2.0;
            spec
        })
        .collect();
    let snn_ab_bias = SnnNetwork::from_network(&dnn, &specs_bias).expect("convertible");
    let (acc_ab_bias, _) = evaluate_snn(&snn_ab_bias, &test, t, scale.batch());
    println!(
        "3. conversion-only at T={t}: alpha/beta {:.2} %  vs  alpha/beta + bias shift {:.2} %",
        acc_ab * 100.0,
        acc_ab_bias * 100.0
    );

    // 4. Direct vs rate encoding on the fine-tuned SNN at matched T.
    let enc_acc = |enc: InputEncoding| -> f32 {
        let mut rng = seeded_rng(55);
        let mut correct = 0usize;
        let mut seen = 0usize;
        for batch in test.eval_batches(scale.batch()) {
            let out = snn_lif.forward_with_encoding(&batch.images, t, enc, &mut rng);
            for (p, &y) in out.logits.argmax_rows().iter().zip(&batch.labels) {
                if *p == y {
                    correct += 1;
                }
            }
            seen += batch.labels.len();
        }
        correct as f32 / seen as f32
    };
    let acc_direct = enc_acc(InputEncoding::Direct);
    let acc_rate = enc_acc(InputEncoding::PoissonRate { max_rate: 0.9 });
    println!(
        "4. encoding at T={t}: direct {:.2} %  vs  Poisson rate {:.2} %",
        acc_direct * 100.0,
        acc_rate * 100.0
    );

    let report = DesignAblationReport {
        dnn_accuracy: dnn_acc,
        sgl_if_fixed_leak: acc_if,
        sgl_lif_trainable_leak: acc_lif,
        final_leaks,
        fold_max_logit_difference: fold_diff,
        alpha_beta_accuracy: acc_ab,
        alpha_beta_plus_bias_accuracy: acc_ab_bias,
        direct_encoding_accuracy: acc_direct,
        rate_encoding_accuracy: acc_rate,
    };
    let path = write_report("ablation_design", scale, &report);
    println!("\nreport written to {}", path.display());
}
