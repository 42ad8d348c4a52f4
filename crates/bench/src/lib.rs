//! Shared harness for the experiment binaries that
//! regenerate every table and figure of the paper (see DESIGN.md §4 for
//! the experiment index and EXPERIMENTS.md for recorded results).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::path::PathBuf;

use rand::rngs::StdRng;
use serde::Serialize;
use ull_core::{dnn_recipe, sgl_recipe};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::{evaluate, train_epoch, CheckpointError, Network};
use ull_obs::TraceEvent;
use ull_snn::{evaluate_snn, train_snn_epoch, SnnNetwork};

/// One line of a JSONL trace, classified for forward compatibility.
///
/// The trace format is an externally-tagged enum, so a line written by a
/// *newer* `ull-obs` with a variant this build does not know is still a
/// well-formed single-key object — distinguishable from wire garbage.
/// `obs_summary` reports the two separately: unknown variants are
/// skipped (and counted), garbage fails `--validate`.
#[derive(Debug)]
pub enum TraceLine {
    /// A trace event this build understands.
    Event(Box<TraceEvent>),
    /// A well-formed single-key object whose tag is not a known variant
    /// (an event from a newer writer); the tag is carried for display.
    Unknown(String),
    /// Not a trace event at all.
    Garbage,
}

/// Classifies one (non-empty) line of a JSONL trace.
pub fn classify_trace_line(line: &str) -> TraceLine {
    match serde_json::from_str::<TraceEvent>(line) {
        Ok(ev) => TraceLine::Event(Box::new(ev)),
        Err(_) => match serde_json::from_str::<serde_json::Value>(line) {
            Ok(serde_json::Value::Map(entries)) if entries.len() == 1 => {
                TraceLine::Unknown(entries[0].0.clone())
            }
            _ => TraceLine::Garbage,
        },
    }
}

/// Exact nearest-rank percentile of an ascending-sorted slice
/// (`rank = ceil(p·n)`, matching [`ull_obs::HistogramSnapshot::quantile`]),
/// for cross-checking histogram estimates against ground truth.
pub fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Experiment scale, selected with `--scale {tiny,small,paper}`.
///
/// * `tiny` — seconds per experiment; CI-sized smoke runs.
/// * `small` — the default; minutes per experiment on one CPU core, large
///   enough for every trend in the paper to be visible.
/// * `paper` — full-width architectures and 32×32 images; only the sizes
///   of the synthetic dataset and epoch counts remain reduced (full
///   CIFAR-scale training is beyond a 1-core budget; see DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale.
    Tiny,
    /// Default CPU-budget scale.
    Small,
    /// Paper-shaped scale (full-width models, 32×32 inputs).
    Paper,
}

/// The value after `flag` in `args`: `None` when the flag is absent, an
/// error when it is the last argument.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) => Ok(Some(value)),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

/// Unwraps a command-line parse, or prints the error and exits with
/// status 2.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

impl Scale {
    /// Parses `--scale NAME` from `args`, defaulting to `small` when the
    /// flag is absent. An unknown or missing name is an error.
    pub fn parse(args: &[String]) -> Result<Scale, String> {
        match flag_value(args, "--scale")? {
            None | Some("small") => Ok(Scale::Small),
            Some("tiny") => Ok(Scale::Tiny),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!(
                "unknown --scale `{other}` (expected tiny, small or paper)"
            )),
        }
    }

    /// [`Scale::parse`] over `std::env::args`; exits with a message on a
    /// bad `--scale`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        or_exit(Scale::parse(&args))
    }

    /// Dataset configuration for this scale.
    pub fn data(self, classes: usize) -> SynthCifarConfig {
        match self {
            Scale::Tiny => SynthCifarConfig::tiny(classes),
            Scale::Small => {
                let mut c = SynthCifarConfig::small(classes);
                // 100-way classification needs more samples per class to be
                // learnable at all (CIFAR-100 has 500/class; we budget 20).
                c.train_size = if classes >= 100 { 2048 } else { 1024 };
                // 100-way needs a cleaner signal at ~20 images/class.
                c.noise_std = if classes >= 100 { 0.1 } else { c.noise_std };
                c.jitter = if classes >= 100 { 1 } else { c.jitter };
                c.test_size = 256;
                c
            }
            Scale::Paper => SynthCifarConfig::paper(classes),
        }
    }

    /// Width multiplier for the named architectures.
    pub fn width(self) -> f32 {
        match self {
            Scale::Tiny => 0.125,
            Scale::Small => 0.25,
            Scale::Paper => 1.0,
        }
    }

    /// DNN training epochs.
    pub fn dnn_epochs(self) -> usize {
        match self {
            Scale::Tiny => 4,
            Scale::Small => 30,
            Scale::Paper => 60,
        }
    }

    /// SNN fine-tuning epochs.
    pub fn snn_epochs(self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Small => 6,
            Scale::Paper => 40,
        }
    }

    /// Mini-batch size.
    pub fn batch(self) -> usize {
        32
    }

    /// Short name for report files.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

/// The architectures Table I evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// VGG-11 (configuration A).
    Vgg11,
    /// VGG-16 (configuration D).
    Vgg16,
    /// ResNet-20 (CIFAR variant).
    ResNet20,
}

impl Arch {
    /// Builds the architecture at the given scale.
    pub fn build(self, classes: usize, image_size: usize, width: f32, seed: u64) -> Network {
        match self {
            Arch::Vgg11 => ull_nn::models::vgg11(classes, image_size, width, seed),
            Arch::Vgg16 => ull_nn::models::vgg16(classes, image_size, width, seed),
            Arch::ResNet20 => ull_nn::models::resnet20(classes, image_size, width, seed),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Arch::Vgg11 => "VGG-11",
            Arch::Vgg16 => "VGG-16",
            Arch::ResNet20 => "ResNet-20",
        }
    }
}

/// Generates the `(train, test)` pair for a scale and class count.
pub fn load_data(scale: Scale, classes: usize) -> (Dataset, Dataset) {
    generate(&scale.data(classes))
}

/// Trains a DNN with the pipeline's recipe ([`dnn_recipe`]) at LR 0.02
/// and returns its test accuracy.
pub fn train_dnn(
    net: &mut Network,
    train: &Dataset,
    test: &Dataset,
    epochs: usize,
    rng: &mut StdRng,
) -> f32 {
    let (mut sgd, schedule, tcfg) = dnn_recipe(epochs);
    // The experiments' cached DNNs train at LR 0.02, the one value that
    // differs from the pipeline's recipe. Choosing one recipe, LR
    // included, from a seed sweep is open (ROADMAP, "Pipelines that
    // learn"); that choice removes this override.
    sgd.config.lr = 0.02;
    for e in 0..epochs {
        train_epoch(net, train, &sgd, schedule.factor(e), &tcfg, rng);
    }
    evaluate(net, test, tcfg.batch_size)
}

/// SGL-fine-tunes `snn` at `t` time steps for `epochs` epochs with the
/// pipeline's recipe ([`sgl_recipe`]), drawing batches from an RNG seeded
/// with `seed`. `after_epoch` runs after each epoch, before evaluation.
/// With a test set, returns the best test accuracy over the epochs.
pub fn sgl_finetune(
    snn: &mut SnnNetwork,
    train: &Dataset,
    test: Option<&Dataset>,
    t: usize,
    epochs: usize,
    seed: u64,
    mut after_epoch: impl FnMut(&mut SnnNetwork),
) -> Option<f32> {
    let (sgd, schedule, cfg) = sgl_recipe(epochs, t);
    let mut rng = ull_tensor::init::seeded_rng(seed);
    let mut best = 0.0f32;
    for e in 0..epochs {
        train_snn_epoch(snn, train, &sgd, schedule.factor(e), &cfg, &mut rng);
        after_epoch(snn);
        if let Some(test) = test {
            best = best.max(evaluate_snn(snn, test, t, cfg.batch_size).0);
        }
    }
    test.map(|_| best)
}

/// Trains the DNN like [`train_dnn`], but caches the result under
/// `reports/models/{tag}_{scale}.json` so experiment binaries sharing the
/// same source network (fig2/fig3/fig4/table2/ablation all train VGG-16)
/// reuse one training run. Returns `(network, test_accuracy)`.
pub fn train_or_load_dnn(
    tag: &str,
    scale: Scale,
    arch: Arch,
    classes: usize,
    train: &Dataset,
    test: &Dataset,
    rng: &mut StdRng,
) -> (Network, f32) {
    let dir = workspace_root().join("reports/models");
    std::fs::create_dir_all(&dir).expect("create model cache dir");
    let path = dir.join(format!("{}_{}_{}.json", tag, classes, scale.name()));
    match ull_nn::load::<Network>(&path) {
        Ok(net) => {
            let acc = evaluate(&net, test, scale.batch());
            println!(
                "loaded cached DNN from {} (test {:.1} %)",
                path.display(),
                acc * 100.0
            );
            return (net, acc);
        }
        Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
            eprintln!("no cached DNN at {}; training", path.display());
        }
        Err(e) => eprintln!("rejected cached DNN at {}: {e}; retraining", path.display()),
    }
    let image = scale.data(classes).image_size;
    let mut net = arch.build(classes, image, scale.width(), 7);
    let acc = train_dnn(&mut net, train, test, scale.dnn_epochs(), rng);
    ull_nn::save(&net, &path).expect("write model cache");
    (net, acc)
}

/// Writes a JSON report under `reports/` (created on demand) and returns
/// the path.
///
/// # Panics
///
/// Panics if the report directory cannot be created or the file cannot be
/// written — experiment results must not be silently lost.
pub fn write_report<T: Serialize>(name: &str, scale: Scale, payload: &T) -> PathBuf {
    let dir = workspace_root().join("reports");
    std::fs::create_dir_all(&dir).expect("create reports directory");
    let path = dir.join(format!("{}_{}.json", name, scale.name()));
    let json = serde_json::to_string_pretty(payload).expect("serialise report");
    std::fs::write(&path, json).expect("write report file");
    path
}

/// The workspace root: `reports/`, `EXPERIMENTS.md` and the committed
/// `BENCH_*.json` artifacts live here.
pub fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir
}

/// Splices the generated markdown `section` between the `marker` markers
/// of EXPERIMENTS.md, which name `bin` as their generator. When the
/// markers are absent, appends a fresh section headed `title` with the
/// command that regenerates it.
///
/// # Panics
///
/// Panics if EXPERIMENTS.md cannot be written.
pub fn update_experiments_md(marker: &str, bin: &str, title: &str, section: &str) {
    let begin = format!("<!-- {marker}:begin (generated by {bin}) -->");
    let end = format!("<!-- {marker}:end -->");
    let path = workspace_root().join("EXPERIMENTS.md");
    let current = std::fs::read_to_string(&path).unwrap_or_default();
    let block = format!("{begin}\n{section}{end}");
    let updated = match (current.find(&begin), current.find(&end)) {
        (Some(b), Some(e)) if e >= b => {
            format!("{}{}{}", &current[..b], block, &current[e + end.len()..])
        }
        _ => format!(
            "{}\n## {title}\n\n`cargo run --release -p ull-bench --bin {bin}`\n\n{block}\n",
            current.trim_end()
        ),
    };
    std::fs::write(&path, updated).expect("write EXPERIMENTS.md");
    println!("updated {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_by_cost() {
        assert!(Scale::Tiny.data(10).train_size < Scale::Small.data(10).train_size);
        assert!(Scale::Small.data(10).train_size <= Scale::Paper.data(10).train_size);
        assert!(Scale::Paper.width() > Scale::Small.width());
    }

    #[test]
    fn scale_parse_rejects_unknown_and_missing_names() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(Scale::parse(&args(&["bin"])), Ok(Scale::Small));
        assert_eq!(
            Scale::parse(&args(&["bin", "--gate", "--scale", "tiny"])),
            Ok(Scale::Tiny)
        );
        assert_eq!(
            Scale::parse(&args(&["bin", "--scale", "paper"])),
            Ok(Scale::Paper)
        );
        assert_eq!(
            Scale::parse(&args(&["bin", "--scale", "small"])),
            Ok(Scale::Small)
        );
        let err = Scale::parse(&args(&["bin", "--scale", "tinny"])).unwrap_err();
        assert!(err.contains("tinny"), "got: {err}");
        let err = Scale::parse(&args(&["bin", "--scale"])).unwrap_err();
        assert!(err.contains("needs a value"), "got: {err}");
    }

    #[test]
    fn arch_builders_produce_expected_depths() {
        let v11 = Arch::Vgg11.build(10, 16, 0.125, 1);
        let v16 = Arch::Vgg16.build(10, 16, 0.125, 1);
        assert!(v16.threshold_nodes().len() > v11.threshold_nodes().len());
        let r20 = Arch::ResNet20.build(10, 16, 0.125, 1);
        assert_eq!(r20.threshold_nodes().len(), 19);
    }

    #[test]
    fn trace_lines_classify_into_known_unknown_and_garbage() {
        let known = r#"{"Counter": {"key": "x", "delta": 1, "thread": 0}}"#;
        assert!(matches!(classify_trace_line(known), TraceLine::Event(_)));
        // A single-key object with an unrecognised tag is a future
        // variant, not garbage.
        let future = r#"{"HistV2": {"key": "x", "value": 3}}"#;
        match classify_trace_line(future) {
            TraceLine::Unknown(tag) => assert_eq!(tag, "HistV2"),
            other => panic!("got {other:?}"),
        }
        assert!(matches!(
            classify_trace_line("{not json"),
            TraceLine::Garbage
        ));
        // Two keys cannot be an externally-tagged enum.
        assert!(matches!(
            classify_trace_line(r#"{"a": 1, "b": 2}"#),
            TraceLine::Garbage
        ));
        assert!(matches!(classify_trace_line("[1, 2]"), TraceLine::Garbage));
    }

    #[test]
    fn histogram_quantile_matches_exact_percentile_within_one_bucket() {
        // Deterministic heavy-tailed values: squares of a mixed stream.
        let mut values: Vec<u64> = (0..500u64)
            .map(|i| {
                let h = ull_tensor::init::mix64(77, &[i]);
                (h % 1_000) * (h % 97) / 13
            })
            .collect();
        let mut hist = ull_obs::HistogramSnapshot::new();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        for p in [0.5, 0.9, 0.99, 1.0] {
            let exact = exact_percentile(&values, p);
            let q = hist.quantile(p);
            assert!(
                q >= exact,
                "quantile({p}) = {q} underestimates exact {exact}"
            );
            assert_eq!(
                ull_obs::hist_bucket_index(q.max(1)),
                ull_obs::hist_bucket_index(exact.max(1)),
                "quantile({p}) = {q} left the bucket of exact {exact}"
            );
        }
    }

    #[test]
    fn write_report_round_trips() {
        #[derive(Serialize)]
        struct Tiny {
            x: u32,
        }
        let p = write_report("selftest", Scale::Tiny, &Tiny { x: 7 });
        let body = std::fs::read_to_string(&p).unwrap();
        assert!(body.contains("\"x\": 7"));
        std::fs::remove_file(p).ok();
    }
}
