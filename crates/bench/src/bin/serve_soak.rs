//! Chaos soak for the hardened serving layer (`ull-serve`).
//!
//! One server, four phases:
//!
//! 1. **Clean soak** — open-loop waves of requests against a healthy
//!    two-replica pool; collects baseline accuracy and latency.
//! 2. **Fault injection** — the primary replica's weights are corrupted
//!    *mid-run* (BER 1e-2 bit flips via `ull-robust`); the spike-rate
//!    watchdog flags the excursions, the circuit breaker trips within
//!    `BREAKER_THRESHOLD` batches, and traffic fails over to the clean
//!    fallback while excursion batches are retried there.
//! 3. **Overload burst** — a burst far beyond queue capacity against a
//!    deliberately slowed server; shed requests must get typed
//!    `Overloaded` replies and every request exactly one reply.
//! 4. **Determinism check** — the same clean batches executed on fresh
//!    engines under `ULL_THREADS=1` and `=4` must produce bit-identical
//!    logits.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin serve_soak [--scale small]
//! cargo run --release -p ull-bench --bin serve_soak -- --gate
//! ```
//!
//! `--gate` asserts the CI acceptance criteria (`scripts/serve_smoke.sh`
//! runs it): breaker trips within K batches of injection, ≥ 99 % of
//! post-trip batches served by the fallback, soak accuracy within 1 pt
//! of clean, p99 latency under the deadline, shed requests typed, and
//! the clean run thread-invariant.
//!
//! Artifacts: `reports/serve_soak_{scale}.json`; a report run (no
//! `--gate`) also writes `BENCH_serve.json`, the metrics dump
//! `reports/serve_soak_metrics.json` and the failover timeline between
//! the `serve` markers of EXPERIMENTS.md. The gate writes only
//! `reports/serve_soak_tiny.json`.

use std::time::Instant;

use serde::Serialize;
use ull_bench::{
    load_data, train_or_load_dnn, update_experiments_md, workspace_root, write_report, Arch, Scale,
};
use ull_core::{convert, ConversionMethod};
use ull_data::Dataset;
use ull_robust::{
    calibrate_margin_schedule, profile_envelope_batches, FaultConfig, FaultedNetwork,
    InferenceFault,
};
use ull_serve::{
    BatchEvent, BreakerState, Engine, ReplicaSpec, Reply, Request, RungLabel, ServeConfig, Server,
    BREAKER_THRESHOLD,
};
use ull_snn::{SnnNetwork, SpikeSpec};
use ull_tensor::init::seeded_rng;
use ull_tensor::parallel;
use ull_tensor::Tensor;

const SEED: u64 = 2022;
const HIGH_BER: f64 = 1e-2;
const CLASSES: usize = 10;
const WAVES_PER_PHASE: usize = 4;
const T_FULL: usize = 4;
const T_REDUCED: usize = 2;

#[derive(Serialize)]
struct PhaseStats {
    requests: usize,
    predictions: usize,
    shed: usize,
    deadline_exceeded: usize,
    errors: usize,
    accuracy: f32,
    p50_ms: u64,
    p99_ms: u64,
}

#[derive(Serialize)]
struct SoakReport {
    dataset: String,
    scale: String,
    config: ServeConfig,
    /// Accuracy of the source DNN on the served request set, beside the
    /// served accuracies.
    dnn_accuracy: f32,
    clean: PhaseStats,
    faulted: PhaseStats,
    burst: PhaseStats,
    batches_to_trip: usize,
    breaker_trips: u64,
    post_trip_batches: usize,
    post_trip_on_fallback: usize,
    thread_invariant: bool,
    timeline: Vec<BatchEvent>,
    counters: std::collections::BTreeMap<String, u64>,
}

/// Identity-spec SNN of the trained DNN — rich spiking dynamics at tiny
/// scale (the α/β-converted net's output is too silent there to serve).
fn serving_net(dnn: &ull_nn::Network) -> SnnNetwork {
    let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
    SnnNetwork::from_network(dnn, &specs).expect("identity conversion")
}

fn replicas(net: &SnnNetwork, data: &Dataset, cfg: &ServeConfig) -> Vec<ReplicaSpec> {
    // Profile every batch size the dynamic batcher can assemble.
    let batches: Vec<Tensor> = (1..=cfg.max_batch)
        .flat_map(|size| data.eval_batches(size).map(|b| b.images))
        .collect();
    let full = profile_envelope_batches(net, &batches, cfg.t_full);
    let reduced = profile_envelope_batches(net, &batches, cfg.t_reduced);
    ["primary", "fallback"]
        .iter()
        .map(|name| ReplicaSpec {
            name: name.to_string(),
            net: net.clone(),
            envelope_full: Some(full.clone()),
            envelope_reduced: Some(reduced.clone()),
        })
        .collect()
}

/// The fixed request set every wave replays (same samples → clean and
/// faulted accuracy are directly comparable).
fn eval_set(data: &Dataset, n: usize, image: usize) -> Vec<(Request, usize)> {
    data.eval_batches(1)
        .take(n)
        .enumerate()
        .map(|(i, b)| {
            (
                Request {
                    id: i as u64 + 1,
                    pixels: b.images.data().to_vec(),
                    shape: vec![3, image, image],
                    deadline_ms: None,
                },
                b.labels[0],
            )
        })
        .collect()
}

/// One open-loop phase: every wave submits the full eval set from
/// per-request threads (submission is not gated on completion), then
/// waits for all replies. Returns phase stats.
fn drive_phase(server: &Server, set: &[(Request, usize)], waves: usize) -> PhaseStats {
    // Latency percentiles come from the streaming log₂ histogram — the
    // same estimator the live scrape serves — instead of an ad-hoc
    // sort. `quantile` never underestimates and stays within one bucket
    // (< 2×) of the exact sorted value (cross-checked in ull-bench's
    // unit tests); the global `soak.lat_ms` histogram additionally
    // lands in the shutdown snapshot for scrape reconciliation.
    let mut latencies = ull_obs::HistogramSnapshot::new();
    let mut predictions = 0usize;
    let mut shed = 0usize;
    let mut deadline_exceeded = 0usize;
    let mut errors = 0usize;
    let mut correct = 0usize;
    let mut graded = 0usize;
    for _ in 0..waves {
        let handles: Vec<_> = set
            .iter()
            .map(|(req, label)| {
                let client = server.client();
                let req = req.clone();
                let label = *label;
                std::thread::spawn(move || {
                    let start = Instant::now();
                    let reply = client.call(req);
                    (reply, label, start.elapsed().as_millis() as u64)
                })
            })
            .collect();
        for h in handles {
            let (reply, label, ms) = h.join().expect("client thread");
            latencies.record(ms);
            ull_obs::histogram_record("soak.lat_ms", ms);
            match reply {
                Reply::Prediction { class, .. } => {
                    predictions += 1;
                    graded += 1;
                    if class == label {
                        correct += 1;
                    }
                }
                Reply::Overloaded { .. } => shed += 1,
                Reply::DeadlineExceeded { .. } => deadline_exceeded += 1,
                Reply::BadRequest { .. } | Reply::Error { .. } => errors += 1,
            }
        }
    }
    PhaseStats {
        requests: set.len() * waves,
        predictions,
        shed,
        deadline_exceeded,
        errors,
        accuracy: correct as f32 / graded.max(1) as f32,
        p50_ms: latencies.quantile(0.50),
        p99_ms: latencies.quantile(0.99),
    }
}

/// Thread-invariance check: identical clean batches on fresh engines at
/// `ULL_THREADS ∈ {1, 4}` must produce bit-identical logits.
fn thread_invariance(cfg: &ServeConfig, net: &SnnNetwork, data: &Dataset, batch: usize) -> bool {
    let run = |threads: usize| -> Vec<u32> {
        parallel::with_threads(threads, || {
            let engine = Engine::new(
                cfg.clone(),
                vec![ReplicaSpec {
                    name: "solo".to_string(),
                    net: net.clone(),
                    envelope_full: None,
                    envelope_reduced: None,
                }],
                None,
            );
            let mut bits = Vec::new();
            for b in data.eval_batches(batch).take(4) {
                let out = engine.execute(&b.images, RungLabel::Full);
                bits.extend(out.logits.data().iter().map(|v| v.to_bits()));
            }
            bits
        })
    };
    let serial = run(1);
    let threaded = run(4);
    serial == threaded
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let scale = if gate {
        Scale::Tiny
    } else {
        Scale::from_args()
    };
    ull_obs::set_enabled(true);
    ull_obs::reset();

    let (train, test) = load_data(scale, CLASSES);
    let image = scale.data(CLASSES).image_size;
    let mut rng = seeded_rng(42);
    let (dnn, dnn_test_acc) = train_or_load_dnn(
        "vgg16",
        scale,
        Arch::Vgg16,
        CLASSES,
        &train,
        &test,
        &mut rng,
    );
    println!("DNN test accuracy: {:.1} %", dnn_test_acc * 100.0);
    // Every wave replays the first `served` test images, so the DNN is
    // measured on those too.
    let served = 24.min(test.len());
    let dnn_acc = ull_nn::evaluate(&dnn, &test.take(served), scale.batch());
    println!(
        "DNN accuracy on the {served} served images: {:.1} %",
        dnn_acc * 100.0
    );
    // Report runs serve the paper's α/β-converted net; the CI gate runs
    // at tiny scale, where that net is chance-level with a near-silent
    // output layer (the resilience gate documents the same limitation),
    // so it serves an identity-spec SNN of the same DNN instead — the
    // serving machinery under test is identical.
    let net = if gate {
        serving_net(&dnn)
    } else {
        let (snn, _) =
            convert(&dnn, &train, ConversionMethod::AlphaBeta, T_FULL).expect("conversion");
        snn
    };

    let cfg = ServeConfig {
        input_shape: vec![3, image, image],
        t_full: T_FULL,
        t_reduced: T_REDUCED,
        workers: 2,
        queue_capacity: 64,
        max_batch: 4,
        max_linger_ms: 1,
        default_deadline_ms: 10_000,
        // Quarantine far beyond the soak so a tripped primary never
        // half-opens mid-run (probe/backoff behaviour is unit-tested).
        backoff_base_ms: 600_000,
        backoff_max_ms: 3_600_000,
        backoff_seed: SEED,
        ..ServeConfig::default()
    };
    // Calibrated per-step margin schedule so the Anytime rung can exit
    // early when the degradation ladder engages under pressure.
    let schedule = calibrate_margin_schedule(&net, &test, cfg.t_full, cfg.max_batch, 0.95);
    let engine = Engine::new(cfg.clone(), replicas(&net, &test, &cfg), Some(schedule));
    let server = Server::start(engine);
    let set = eval_set(&test, served, image);

    // Phase 1: clean soak.
    let clean = drive_phase(&server, &set, WAVES_PER_PHASE);
    println!(
        "clean:   {}/{} predictions, acc {:.1} %, p99 {} ms",
        clean.predictions,
        clean.requests,
        clean.accuracy * 100.0,
        clean.p99_ms
    );

    // Phase 2: corrupt the primary mid-run, keep serving.
    server.engine().take_events(); // timeline restarts at injection
    let fault = FaultConfig::new(SEED).with(InferenceFault::WeightBitFlip { ber: HIGH_BER });
    let corrupted = FaultedNetwork::new(&net, &fault).network().clone();
    server.engine().chaos_swap_net(0, corrupted);
    println!("injected BER {HIGH_BER} weight flips into the primary replica");
    // Deterministic detection window: serial single-sample probes (the
    // queue is drained between calls, so batch composition — and hence
    // the watchdog verdict sequence — is reproducible) before resuming
    // open-loop load. Every probe must still be answered.
    let client = server.client();
    for (req, _) in set.iter().take(2 * BREAKER_THRESHOLD) {
        let reply = client.call(req.clone());
        assert!(
            matches!(reply, Reply::Prediction { .. }),
            "probe got {reply:?}"
        );
    }
    let faulted = drive_phase(&server, &set, WAVES_PER_PHASE);
    let timeline: Vec<BatchEvent> = server
        .engine()
        .take_events()
        .into_iter()
        .filter_map(|e| e.batch().cloned())
        .collect();
    let trips = server.engine().breaker_trips();
    println!(
        "faulted: {}/{} predictions, acc {:.1} %, p99 {} ms, {} breaker trips",
        faulted.predictions,
        faulted.requests,
        faulted.accuracy * 100.0,
        faulted.p99_ms,
        trips
    );

    let first_open = timeline
        .iter()
        .position(|e| e.breaker_states[0] == BreakerState::Open);
    let batches_to_trip = first_open.map(|i| i + 1).unwrap_or(usize::MAX);
    let post_trip: Vec<&BatchEvent> = match first_open {
        Some(i) => timeline[i..].iter().collect(),
        None => Vec::new(),
    };
    let post_trip_on_fallback = post_trip.iter().filter(|e| e.replica == 1).count();
    println!(
        "breaker tripped after {batches_to_trip} batches; {post_trip_on_fallback}/{} post-trip batches on the fallback",
        post_trip.len()
    );

    // Phase 3: overload burst against a slowed single-worker server.
    let burst_cfg = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        max_batch: 1,
        max_linger_ms: 0,
        chaos_execute_delay_ms: 25,
        ..cfg.clone()
    };
    let burst_engine = Engine::new(
        burst_cfg.clone(),
        vec![ReplicaSpec {
            name: "burst".to_string(),
            net: net.clone(),
            envelope_full: None,
            envelope_reduced: None,
        }],
        None,
    );
    let burst_server = Server::start(burst_engine);
    let burst_set: Vec<(Request, usize)> = set
        .iter()
        .cycle()
        .take(48)
        .cloned()
        .enumerate()
        .map(|(i, (mut r, l))| {
            r.id = i as u64 + 1;
            (r, l)
        })
        .collect();
    let burst = drive_phase(&burst_server, &burst_set, 1);
    burst_server.shutdown();
    println!(
        "burst:   {} served, {} shed (typed Overloaded), {} other, of {}",
        burst.predictions,
        burst.shed,
        burst.errors + burst.deadline_exceeded,
        burst.requests
    );

    // Phase 4: thread invariance of the clean path.
    let invariant = thread_invariance(&cfg, &net, &test, cfg.max_batch);
    println!("clean run thread-invariant across ULL_THREADS {{1, 4}}: {invariant}");

    // The gate keeps its metrics inside its tiny report; only a report
    // run refreshes the committed dump.
    let snapshot = if gate {
        server.shutdown()
    } else {
        let metrics_path = workspace_root().join("reports/serve_soak_metrics.json");
        server
            .shutdown_to(&metrics_path)
            .expect("drain and persist metrics")
    };
    ull_obs::set_enabled(false);

    let report = SoakReport {
        dataset: format!("synth-{CLASSES}"),
        scale: scale.name().to_string(),
        config: cfg.clone(),
        dnn_accuracy: dnn_acc,
        clean,
        faulted,
        burst,
        batches_to_trip,
        breaker_trips: trips,
        post_trip_batches: post_trip.len(),
        post_trip_on_fallback,
        thread_invariant: invariant,
        timeline,
        counters: snapshot.counters.clone(),
    };
    let path = write_report("serve_soak", scale, &report);
    println!("report written to {}", path.display());

    if gate {
        assert!(
            report.batches_to_trip <= BREAKER_THRESHOLD + 1,
            "breaker took {} batches to trip (threshold {BREAKER_THRESHOLD})",
            report.batches_to_trip,
        );
        assert!(
            report.post_trip_batches > 0
                && report.post_trip_on_fallback * 100 >= report.post_trip_batches * 99,
            "only {}/{} post-trip batches on the fallback",
            report.post_trip_on_fallback,
            report.post_trip_batches
        );
        assert!(
            report.faulted.accuracy >= report.clean.accuracy - 0.01 - f32::EPSILON,
            "faulted-phase accuracy {:.4} lost more than 1 pt vs clean {:.4}",
            report.faulted.accuracy,
            report.clean.accuracy
        );
        assert!(
            report.clean.p99_ms < report.config.default_deadline_ms
                && report.faulted.p99_ms < report.config.default_deadline_ms,
            "p99 (clean {} ms, faulted {} ms) breached the {} ms deadline",
            report.clean.p99_ms,
            report.faulted.p99_ms,
            report.config.default_deadline_ms
        );
        assert_eq!(
            report.clean.errors + report.faulted.errors,
            0,
            "soak phases produced error replies"
        );
        assert!(report.burst.shed > 0, "overload burst shed nothing");
        assert_eq!(
            report.burst.requests,
            report.burst.predictions
                + report.burst.shed
                + report.burst.deadline_exceeded
                + report.burst.errors,
            "burst dropped replies"
        );
        assert!(report.thread_invariant, "clean run not thread-invariant");
        println!("serve gate passed");
    } else {
        // The committed artifact comes from a report run, never from the
        // tiny-scale gate.
        let bench_path = workspace_root().join("BENCH_serve.json");
        std::fs::write(
            &bench_path,
            serde_json::to_string_pretty(&report).expect("serialise"),
        )
        .expect("write BENCH_serve.json");
        println!("benchmark artifact written to {}", bench_path.display());
        let mut section = String::new();
        section.push_str(&format!(
            "\nChaos soak at `--scale {}`: two replicas, BER {HIGH_BER} weight flips \
             injected into the primary mid-run. Accuracy is over the same {}-sample \
             request set replayed every wave; the source DNN reads {:.1} % on that \
             set ({:.1} % on all {} test images).\n\n",
            scale.name(),
            set.len(),
            report.dnn_accuracy * 100.0,
            dnn_test_acc * 100.0,
            test.len()
        ));
        section.push_str(
            "| phase | requests | predictions | shed | errors | accuracy | p50 | p99 |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for (name, ph) in [
            ("clean", &report.clean),
            ("faulted", &report.faulted),
            ("burst", &report.burst),
        ] {
            section.push_str(&format!(
                "| {name} | {} | {} | {} | {} | {:.1} % | {} ms | {} ms |\n",
                ph.requests,
                ph.predictions,
                ph.shed,
                ph.errors + ph.deadline_exceeded,
                ph.accuracy * 100.0,
                ph.p50_ms,
                ph.p99_ms
            ));
        }
        section.push_str(&format!(
            "\nFailover timeline: breaker tripped {} batch(es) after injection \
             ({} lifetime trips); {}/{} post-trip batches served by the clean \
             fallback; clean run bit-identical across `ULL_THREADS` 1 and 4: {}.\n",
            report.batches_to_trip,
            report.breaker_trips,
            report.post_trip_on_fallback,
            report.post_trip_batches,
            report.thread_invariant
        ));
        let first_retry = report.timeline.iter().find(|e| e.retried);
        if let Some(e) = first_retry {
            section.push_str(&format!(
                "First excursion batch (seq {}) was retried on the fallback at +{} ms.\n",
                e.seq, e.at_ms
            ));
        }
        update_experiments_md(
            "serve",
            "serve_soak",
            "Serving — failover and degradation under chaos",
            &section,
        );
    }
}
