//! One benchmark for the ultralow-snn workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --overload-rps 1000 --workload serve_tcp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `serve_tcp` (closed loop over loopback TCP) and
//! `pipeline` (DNN epoch → α/β conversion → SGL epoch at T ∈ {2, 3}).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the layer
//! probes with `ull-obs` collecting and prints the per-layer metrics. The
//! last line of standard output is the JSON result; see README.md.

mod common;
mod layers;
mod model;
mod pipeline;
mod serve;

use std::net::SocketAddr;
use std::time::Instant;

use ull_serve::{reconcile, RungLabel, Server};
use ull_snn::net_fingerprint;

use common::{fastest, mean, median, peak_rss_mb, Args, Metrics, RunResult};
use model::ServeModel;
use pipeline::{PhaseSample, PipelineData};
use serve::{Budget, Kind, Transport};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const PIPELINE_SETUPS: usize = 3;
/// Seconds the serving workloads spend repeating the pipeline's phases,
/// for the phase metrics, after their measured window and after each
/// repeat set-up: blocks spread over the run see more of the machine's
/// quiet moments than one block would.
const PHASE_BLOCK_S: f64 = 3.0;
/// Phase-only repeats after each checked cycle of the pipeline workload,
/// for more samples of the phase metrics.
const EXTRA_PHASE_REPEATS: usize = 2;

const WORKLOADS: [&str; 2] = ["serve_tcp", "pipeline"];

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --overload-rps R --workload {{{}}} --seed N --seconds S \
                 --trace 0|1",
                WORKLOADS.join(",")
            );
            std::process::exit(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    }
    let result = if args.trace {
        layers::run(&args)
    } else {
        match args.workload.as_str() {
            "serve_tcp" => serve_end_to_end(&args),
            _ => pipeline_end_to_end(&args),
        }
    };
    println!("{}", result.to_json());
}

/// A served model with its running, warmed-up server.
pub struct Serving {
    pub model: ServeModel,
    pub server: Server,
    pub addr: SocketAddr,
    pub setup_s: f64,
}

/// Builds the served model and starts and warms its server. The build
/// runs on a one-thread kernel pool: its allocations then all land in one
/// heap arena, so the memory it leaves behind, and with it `peak_rss_mb`,
/// repeats from run to run. Serving uses the default pool.
pub fn set_up_serving() -> Serving {
    let t = Instant::now();
    ull_tensor::parallel::set_threads(1);
    let model = ServeModel::build();
    ull_tensor::parallel::set_threads(0);
    let (server, addr) = serve::start(&model);
    serve::warm_up(&model, &server, addr);
    Serving {
        model,
        server,
        addr,
        setup_s: t.elapsed().as_secs_f64(),
    }
}

/// The offline-phase metrics every workload reports: the fastest of the
/// repeats of the pipeline's phases, per T for conversion and SGL and
/// then averaged over T. Other tenants of a shared machine slow a phase
/// now and then, never speed it up, so the fastest repeat is the one that
/// tracks the code.
fn put_phases(m: &mut Metrics, samples: &[&PhaseSample]) {
    eprintln!("phases: {} repeats", samples.len());
    let per_t = |f: fn(&PhaseSample) -> &Vec<f64>| {
        let best: Vec<f64> = (0..pipeline::STEPS.len())
            .map(|k| fastest(samples.iter().map(|s| f(s)[k])))
            .collect();
        mean(&best)
    };
    m.put("dnn_epoch_s", fastest(samples.iter().map(|s| s.dnn_epoch_s)), "s");
    m.put("convert_s", per_t(|s| &s.convert_s), "s");
    m.put("sgl_epoch_s", per_t(|s| &s.sgl_epoch_s), "s");
}

/// Repeats the pipeline's phases on a one-thread kernel pool until
/// `seconds` have passed (at least once).
fn run_phases(data: &PipelineData, seconds: f64) -> Vec<PhaseSample> {
    ull_tensor::parallel::set_threads(1);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        samples.push(pipeline::phases(data));
    }
    ull_tensor::parallel::set_threads(0);
    samples
}

fn serve_end_to_end(args: &Args) -> RunResult {
    let s = set_up_serving();
    let report = serve::closed_loop(
        &s.model,
        Transport::Tcp(s.addr),
        args.seed,
        Budget::Seconds(args.seconds),
        None,
    );
    let snapshot = s.server.shutdown();
    // Read before the phase blocks and repeat set-ups below.
    let peak_rss = peak_rss_mb();
    let audit = reconcile(&snapshot);
    if let Err(e) = &audit {
        eprintln!("reconcile: {e}");
    }
    let data = PipelineData::new(args.seed);
    let mut phases = run_phases(&data, PHASE_BLOCK_S);
    let mut setup_s = vec![s.setup_s];
    let mut reproducible = true;
    for _ in 1..SETUPS {
        let again = set_up_serving();
        again.server.shutdown();
        setup_s.push(again.setup_s);
        reproducible &= net_fingerprint(&again.model.snn) == net_fingerprint(&s.model.snn);
        phases.extend(run_phases(&data, PHASE_BLOCK_S));
    }

    let ok = report.count(Kind::Ok);
    let sent = report.outcomes.len();
    let rung_share = |r| {
        let n = report.outcomes.iter().filter(|o| o.rung == Some(r)).count();
        n as f64 / ok.max(1) as f64
    };
    eprintln!(
        "{}: {sent} sent, {ok} correct, {} shed, {} deadline, {} errors, {} wrong; \
         rungs full {:.3}, anytime {:.3}, reduced {:.3}",
        args.workload,
        report.count(Kind::Shed),
        report.count(Kind::Deadline),
        report.count(Kind::Error),
        report.count(Kind::Wrong),
        rung_share(RungLabel::Full),
        rung_share(RungLabel::Anytime),
        rung_share(RungLabel::Reduced)
    );

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("rps", ok as f64 / report.elapsed_s, "req/s");
    m.put("p50_ms", report.p(0.50), "ms");
    m.put("p99_ms", report.p(0.99), "ms");
    m.put("ok_share", ok as f64 / sent.max(1) as f64, "ratio");
    m.put("full_agreement", report.full_agreement(), "ratio");
    m.put("peak_rss_mb", peak_rss, "MB");
    put_phases(&mut m, &phases.iter().collect::<Vec<_>>());
    RunResult {
        correct: report.count(Kind::Wrong) == 0 && audit.is_ok() && reproducible,
        attempted: sent as u64,
        failed: report.failed() as u64,
        metrics: m,
    }
}

/// Set-up of the pipeline workload: the seed's data subsets plus one
/// warm-up pass through the phases; returns the data and the set-up
/// times. It runs `PIPELINE_SETUPS` times to give `setup_s` a median.
pub fn set_up_pipeline(seed: u64) -> (PipelineData, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..PIPELINE_SETUPS {
        let t = Instant::now();
        let data = PipelineData::new(seed);
        pipeline::phases(&data);
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(data);
    }
    (kept.expect("at least one set-up"), setup_s)
}

/// The pipeline workload runs on a one-thread kernel pool, as the served
/// model's build does: the phases then see one core's worth of other
/// tenants, and the heap, with it `peak_rss_mb`, repeats from run to run.
fn pipeline_end_to_end(args: &Args) -> RunResult {
    ull_tensor::parallel::set_threads(1);
    let (data, setup_s) = set_up_pipeline(args.seed);
    let start = Instant::now();
    let mut cycles = Vec::new();
    let mut extra = Vec::new();
    while cycles.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        cycles.push(pipeline::cycle(&data));
        for _ in 0..EXTRA_PHASE_REPEATS {
            extra.push(pipeline::phases(&data));
        }
    }
    let reference = &cycles[0].fingerprints;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for c in &cycles {
        for (k, ok) in c.checks_ok.iter().enumerate() {
            attempted += 1;
            if !ok || c.fingerprints[k] != reference[k] {
                failed += 1;
            }
        }
    }
    // Each probe image's latency is the fastest of its measurements over
    // the cycles; the percentiles run over the images.
    let infer: Vec<f64> = (0..cycles[0].infer_ms.len())
        .map(|i| fastest(cycles.iter().map(|c| c.infer_ms[i])))
        .collect();
    let agreement: Vec<f64> = cycles.iter().map(|c| c.agreement).collect();
    eprintln!(
        "pipeline: {} cycles, {failed}/{attempted} checks failed",
        cycles.len()
    );

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put(
        "rps",
        infer.len() as f64 / (infer.iter().sum::<f64>() / 1e3),
        "req/s",
    );
    m.put("p50_ms", common::quantile(&infer, 0.50), "ms");
    m.put("p99_ms", common::quantile(&infer, 0.99), "ms");
    m.put(
        "ok_share",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.put("full_agreement", mean(&agreement), "ratio");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    let phases: Vec<&PhaseSample> = cycles.iter().map(|c| &c.phases).chain(&extra).collect();
    put_phases(&mut m, &phases);
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    }
}
