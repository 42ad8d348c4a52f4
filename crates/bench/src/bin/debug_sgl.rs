//! Developer utility: probes SGL fine-tuning hyper-parameters on the deep
//! residual network, where BPTT at T = 2–3 is hardest. Not part of the
//! experiment suite.

use ull_bench::{load_data, train_or_load_dnn, Arch, Scale};
use ull_core::{convert, ConversionMethod};
use ull_nn::{LrSchedule, Sgd, SgdConfig};
use ull_snn::{evaluate_snn, train_snn_epoch, SnnTrainConfig};
use ull_tensor::init::seeded_rng;

fn main() {
    let scale = Scale::from_args();
    let classes = 10;
    let (train, test) = load_data(scale, classes);
    let mut rng = seeded_rng(42);
    let (dnn, dnn_acc) = train_or_load_dnn(
        "resnet20",
        scale,
        Arch::ResNet20,
        classes,
        &train,
        &test,
        &mut rng,
    );
    println!("ResNet-20 DNN: {:.1} %", dnn_acc * 100.0);
    for t in [2usize, 3] {
        let (snn0, _) = convert(&dnn, &train, ConversionMethod::AlphaBeta, t).expect("convert");
        let (conv_acc, _) = evaluate_snn(&snn0, &test, t, scale.batch());
        println!("\nT={t}: converted {:.1} %", conv_acc * 100.0);
        for lr in [0.02f32, 0.005, 0.001] {
            let mut snn = snn0.clone();
            let sgd = Sgd::new(SgdConfig {
                lr,
                momentum: 0.9,
                weight_decay: 0.0,
            })
            .with_clip(5.0);
            let cfg = SnnTrainConfig {
                batch_size: scale.batch(),
                time_steps: t,
                augment_pad: 0,
                augment_flip: false,
            };
            let mut rng = seeded_rng(5);
            print!("  lr={lr:<6}");
            let epochs = 4;
            for e in 0..epochs {
                let s = train_snn_epoch(
                    &mut snn,
                    &train,
                    &sgd,
                    LrSchedule::paper(epochs).factor(e),
                    &cfg,
                    &mut rng,
                );
                let (acc, _) = evaluate_snn(&snn, &test, t, scale.batch());
                print!(
                    " [loss {:.2} train {:.0}% test {:.1}%]",
                    s.loss,
                    s.accuracy * 100.0,
                    acc * 100.0
                );
            }
            println!();
        }
    }
}
