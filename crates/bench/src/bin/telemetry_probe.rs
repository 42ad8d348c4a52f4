//! Live telemetry probe for the serving stack (`ull-serve` + `ull-obs`).
//!
//! Where `serve_soak` stresses failover, this bin stresses the *telemetry
//! plane* itself, in two phases:
//!
//! 1. **Scrape-polling soak** — a server with a faulted primary and a
//!    clean fallback serves open-loop waves while a scraper thread polls
//!    in-band `Metrics` frames over TCP. Asserts that scraped counters
//!    are monotone (each scrape only approaches the shutdown snapshot),
//!    that the final quiet-period scrape reconciles *exactly* with the
//!    shutdown `MetricsSnapshot`, that the live `serve.lat.total`
//!    histogram's `quantile(0.99)` is within one log₂ bucket of the
//!    exact sorted p99 (ground truth reconstructed from the JSONL trace's
//!    `Hist` events), and that the injected breaker trip left a
//!    parseable flight-recorder dump in the blackbox directory.
//! 2. **Determinism** — a fixed serial request sequence replayed on
//!    fresh engines under `ULL_THREADS` 1 and 4 (and rerun) must produce
//!    bit-identical trace ids and per-rung step histograms.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin telemetry_probe
//! cargo run --release -p ull-bench --bin telemetry_probe -- --gate
//! ```
//!
//! `--gate` asserts the acceptance criteria (`scripts/telemetry_smoke.sh`
//! runs it). Artifacts: `reports/telemetry_probe_tiny.json`, the trace at
//! `reports/telemetry_trace.jsonl` and blackbox dumps under
//! `reports/blackbox_telemetry/`; a report run (no `--gate`) also writes
//! `BENCH_telemetry.json` and the per-rung histogram table between the
//! telemetry markers of EXPERIMENTS.md.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;
use ull_bench::{
    classify_trace_line, exact_percentile, update_experiments_md, workspace_root, Scale, TraceLine,
};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::models;
use ull_obs::{hist_bucket_index, HistogramSnapshot, TraceEvent};
use ull_robust::{profile_envelope_batches, FaultConfig, FaultedNetwork, InferenceFault};
use ull_serve::{
    connect_with_retry, parse_blackbox, read_frame, write_frame, BlackboxConfig, ControlReply,
    ControlRequest, Engine, ReplicaSpec, Reply, Request, RetryPolicy, ServeConfig, Server,
};
use ull_snn::{SnnNetwork, SpikeSpec};
use ull_tensor::parallel;
use ull_tensor::Tensor;

const SEED: u64 = 2026;
const CLASSES: usize = 4;
const WAVES: usize = 3;

#[derive(Serialize)]
struct HistRow {
    key: String,
    count: u64,
    p50: u64,
    p99: u64,
    max: u64,
}

#[derive(Serialize)]
struct TelemetryReport {
    scale: String,
    requests: usize,
    scrapes: usize,
    scrape_monotone: bool,
    reconciled: bool,
    lat_total_count: u64,
    exact_p99_us: u64,
    hist_p99_us: u64,
    p99_within_one_bucket: bool,
    breaker_trips: u64,
    flight_dumps: u64,
    dump_reasons: Vec<String>,
    blackbox_parsed: bool,
    determinism: bool,
    histograms: Vec<HistRow>,
}

fn clean_net(image: usize, seed: u64) -> SnnNetwork {
    let dnn = models::vgg_micro(CLASSES, image, 0.25, seed);
    let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
    SnnNetwork::from_network(&dnn, &specs).unwrap()
}

fn faulted_net(image: usize, seed: u64, ber: f64) -> SnnNetwork {
    let clean = clean_net(image, seed);
    let cfg = FaultConfig::new(seed).with(InferenceFault::WeightBitFlip { ber });
    FaultedNetwork::new(&clean, &cfg).network().clone()
}

fn requests(data: &Dataset, image: usize, n: usize) -> Vec<Request> {
    let samples: Vec<Vec<f32>> = data
        .eval_batches(1)
        .take(n)
        .map(|b| b.images.data().to_vec())
        .collect();
    (0..n)
        .map(|i| Request {
            id: i as u64 + 1,
            pixels: samples[i % samples.len()].clone(),
            shape: vec![3, image, image],
            deadline_ms: None,
        })
        .collect()
}

/// One TCP scrape: a `Metrics` frame in, a `ControlReply::Metrics` out.
fn scrape(conn: &mut std::net::TcpStream, id: u64) -> ControlReply {
    let req = ControlRequest::Metrics { id };
    write_frame(conn, serde_json::to_string(&req).unwrap().as_bytes()).expect("scrape frame");
    serde_json::from_str(&String::from_utf8(read_frame(conn).expect("scrape reply")).unwrap())
        .expect("typed control reply")
}

fn snapshot_of(reply: ControlReply) -> ull_obs::MetricsSnapshot {
    match reply {
        ControlReply::Metrics { snapshot, .. } => snapshot,
        other => panic!("expected a Metrics reply, got {other:?}"),
    }
}

/// Phase 2: trace ids and per-rung step histograms must be bit-identical
/// across `ULL_THREADS` {1, 4} and across reruns. The requests go through
/// a [`Server`], whose workers run their kernels on their own thread at a
/// budget of 1, and the engine build runs no kernel, so this is a rerun
/// check: no arm runs a multi-thread forward (`serve_soak` and
/// `serve_lifecycle` call `Engine::execute` directly and cross the pool).
/// Without an anytime schedule every step count is `t_full`, so a direct
/// arm here would record nothing that could differ.
fn determinism_check(cfg: &ServeConfig, data: &Dataset, image: usize) -> bool {
    let run = |threads: usize| -> (Vec<u64>, String) {
        parallel::with_threads(threads, || {
            ull_obs::reset();
            let engine = Engine::new(
                ServeConfig {
                    workers: 1,
                    blackbox: BlackboxConfig::default(),
                    ..cfg.clone()
                },
                vec![ReplicaSpec {
                    name: "solo".to_string(),
                    net: clean_net(image, SEED),
                    envelope_full: None,
                    envelope_reduced: None,
                }],
                None,
            );
            let server = Server::start(engine);
            let client = server.client();
            let traces: Vec<u64> = requests(data, image, 8)
                .into_iter()
                .map(|r| {
                    let reply = client.call(r);
                    assert!(reply.is_prediction(), "got {reply:?}");
                    reply.trace()
                })
                .collect();
            let snap = server.shutdown();
            let steps: std::collections::BTreeMap<String, HistogramSnapshot> = snap
                .histograms
                .iter()
                .filter(|(k, _)| k.starts_with("serve.steps."))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            (traces, serde_json::to_string(&steps).unwrap())
        })
    };
    let (t1, s1) = run(1);
    let (t4, s4) = run(4);
    let (t1b, s1b) = run(1);
    t1 == t4 && t1 == t1b && s1 == s4 && s1 == s1b
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let scale = Scale::Tiny;
    let root = workspace_root();
    let reports_dir = root.join("reports");
    std::fs::create_dir_all(&reports_dir).expect("reports dir");
    let blackbox_dir = std::env::var("ULL_BLACKBOX_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| reports_dir.join("blackbox_telemetry"));
    let _ = std::fs::remove_dir_all(&blackbox_dir);
    let trace_path = reports_dir.join("telemetry_trace.jsonl");

    ull_obs::open_trace(&trace_path).expect("open trace");
    ull_obs::set_enabled(true);
    ull_obs::reset();

    let data_cfg = SynthCifarConfig::tiny(CLASSES);
    let (_, test) = generate(&data_cfg);
    let image = data_cfg.image_size;
    let net = clean_net(image, SEED);

    let cfg = ServeConfig {
        input_shape: vec![3, image, image],
        t_full: 4,
        t_reduced: 2,
        workers: 2,
        queue_capacity: 64,
        max_batch: 4,
        max_linger_ms: 1,
        default_deadline_ms: 30_000,
        backoff_base_ms: 600_000,
        backoff_max_ms: 3_600_000,
        backoff_seed: SEED,
        blackbox: BlackboxConfig {
            dir: Some(blackbox_dir.to_string_lossy().into_owned()),
            capacity: 128,
        },
        ..ServeConfig::default()
    };
    // Profile every batch size the dynamic batcher can assemble.
    let batches: Vec<Tensor> = (1..=cfg.max_batch)
        .flat_map(|size| test.eval_batches(size).map(|b| b.images))
        .collect();
    let full = profile_envelope_batches(&net, &batches, cfg.t_full);
    let reduced = profile_envelope_batches(&net, &batches, cfg.t_reduced);
    let engine = Engine::new(
        cfg.clone(),
        vec![
            ReplicaSpec {
                name: "faulted-primary".to_string(),
                net: faulted_net(image, SEED, 1e-2),
                envelope_full: Some(full.clone()),
                envelope_reduced: Some(reduced.clone()),
            },
            ReplicaSpec {
                name: "clean-fallback".to_string(),
                net: net.clone(),
                envelope_full: Some(full),
                envelope_reduced: Some(reduced),
            },
        ],
        None,
    );
    let mut server = Server::start(engine);
    let addr = server.listen("127.0.0.1:0").expect("listen");

    // Scraper thread: poll Metrics frames over TCP while traffic flows.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = connect_with_retry(addr, &RetryPolicy::default()).expect("dial");
            let mut snaps = Vec::new();
            let mut id = 0u64;
            while !stop.load(Ordering::SeqCst) {
                snaps.push(snapshot_of(scrape(&mut conn, id)));
                id += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            snaps
        })
    };

    // Open-loop waves against the faulted primary: the watchdog trips the
    // breaker within `BREAKER_THRESHOLD` batches and traffic fails over.
    let set = requests(&test, image, 24);
    let mut answered = 0usize;
    for _ in 0..WAVES {
        let handles: Vec<_> = set
            .iter()
            .map(|req| {
                let client = server.client();
                let req = req.clone();
                std::thread::spawn(move || client.call(req))
            })
            .collect();
        for h in handles {
            let reply = h.join().expect("client thread");
            assert!(
                matches!(reply, Reply::Prediction { .. } | Reply::Overloaded { .. }),
                "soak reply must be typed: {reply:?}"
            );
            answered += 1;
        }
    }
    let trips = server.engine().breaker_trips();
    let dumps_live = server.engine().flight_dumps();
    println!(
        "soak: {answered} requests answered, {trips} breaker trips, {dumps_live} flight dumps"
    );

    // Quiet period: stop the scraper, take one final scrape, then drain.
    stop.store(true, Ordering::SeqCst);
    let mut polled = scraper.join().expect("scraper thread");
    let mut conn = connect_with_retry(addr, &RetryPolicy::default()).expect("dial");
    let final_scrape = snapshot_of(scrape(&mut conn, 9_999));
    drop(conn);
    polled.push(final_scrape.clone());
    let shutdown_snap = server.shutdown();
    ull_obs::set_enabled(false);
    ull_obs::close_trace();

    // Monotone approach: counters never decrease scrape-over-scrape and
    // never exceed the shutdown snapshot.
    let monotone_keys = ["serve.admitted", "serve.served", "serve.scrapes"];
    let mut scrape_monotone = true;
    for key in monotone_keys {
        let finalv = shutdown_snap.counters.get(key).copied().unwrap_or(0);
        let mut prev = 0u64;
        for snap in &polled {
            let v = snap.counters.get(key).copied().unwrap_or(0);
            if v < prev || v > finalv {
                eprintln!("non-monotone scrape for {key}: {prev} -> {v} (final {finalv})");
                scrape_monotone = false;
            }
            prev = v;
        }
    }

    // Exact reconciliation of the final quiet-period scrape.
    let reconciled = final_scrape.counters == shutdown_snap.counters
        && final_scrape.gauges == shutdown_snap.gauges
        && serde_json::to_string(&final_scrape.histograms).unwrap()
            == serde_json::to_string(&shutdown_snap.histograms).unwrap();
    println!(
        "{} scrapes; monotone: {scrape_monotone}; final scrape reconciles exactly: {reconciled}",
        polled.len()
    );

    // Ground truth for the p99 bound: the JSONL trace logged every
    // `serve.lat.total` sample exactly.
    let trace_text = std::fs::read_to_string(&trace_path).expect("read trace");
    let mut exact: Vec<u64> = trace_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| match classify_trace_line(l) {
            TraceLine::Event(ev) => match *ev {
                TraceEvent::Hist { key, value, .. } if key == "serve.lat.total" => Some(value),
                _ => None,
            },
            _ => None,
        })
        .collect();
    exact.sort_unstable();
    let hist = shutdown_snap
        .histograms
        .get("serve.lat.total")
        .cloned()
        .unwrap_or_else(HistogramSnapshot::new);
    assert_eq!(
        hist.count,
        exact.len() as u64,
        "trace and snapshot must agree on the serve.lat.total population"
    );
    let exact_p99 = exact_percentile(&exact, 0.99);
    let hist_p99 = hist.quantile(0.99);
    let p99_within_one_bucket = !exact.is_empty()
        && hist_p99 >= exact_p99
        && hist_bucket_index(hist_p99.max(1)) == hist_bucket_index(exact_p99.max(1));
    println!(
        "serve.lat.total p99: exact {exact_p99} us, histogram {hist_p99} us, \
         within one bucket: {p99_within_one_bucket}"
    );

    // The breaker trip (and the drain) must have left parseable dumps.
    let mut dump_reasons = Vec::new();
    let mut blackbox_parsed = true;
    if let Ok(entries) = std::fs::read_dir(&blackbox_dir) {
        for entry in entries.filter_map(|e| e.ok()) {
            match parse_blackbox(&entry.path()) {
                Ok(dump) => {
                    if dump.events.is_empty() {
                        eprintln!("{}: dump has no events", entry.path().display());
                        blackbox_parsed = false;
                    }
                    dump_reasons.push(dump.reason);
                }
                Err(e) => {
                    eprintln!("{e}");
                    blackbox_parsed = false;
                }
            }
        }
    }
    dump_reasons.sort_unstable();
    blackbox_parsed = blackbox_parsed
        && dump_reasons.iter().any(|r| r == "breaker_trip")
        && dump_reasons.iter().any(|r| r == "drain");
    println!("blackbox dumps {dump_reasons:?}; all parse with events: {blackbox_parsed}");

    // Phase 2: determinism across thread counts and reruns.
    let determinism = determinism_check(&cfg, &test, image);
    println!("trace ids + step histograms invariant across ULL_THREADS {{1, 4}} and reruns: {determinism}");

    let histograms: Vec<HistRow> = [
        "serve.lat.queue",
        "serve.lat.batch",
        "serve.lat.forward",
        "serve.lat.total",
        "serve.steps.full",
        "serve.steps.anytime",
        "serve.steps.reduced",
    ]
    .iter()
    .map(|key| {
        let h = shutdown_snap
            .histograms
            .get(*key)
            .cloned()
            .unwrap_or_else(HistogramSnapshot::new);
        HistRow {
            key: key.to_string(),
            count: h.count,
            p50: h.quantile(0.50),
            p99: h.quantile(0.99),
            max: h.max,
        }
    })
    .collect();

    let report = TelemetryReport {
        scale: scale.name().to_string(),
        requests: answered,
        scrapes: polled.len(),
        scrape_monotone,
        reconciled,
        lat_total_count: hist.count,
        exact_p99_us: exact_p99,
        hist_p99_us: hist_p99,
        p99_within_one_bucket,
        breaker_trips: trips,
        flight_dumps: dumps_live,
        dump_reasons: dump_reasons.clone(),
        blackbox_parsed,
        determinism,
        histograms,
    };
    let path = ull_bench::write_report("telemetry_probe", scale, &report);
    println!("report written to {}", path.display());

    if gate {
        assert!(
            report.scrapes >= 3,
            "only {} scrapes landed",
            report.scrapes
        );
        assert!(report.scrape_monotone, "scrapes regressed mid-soak");
        assert!(report.reconciled, "final scrape != shutdown snapshot");
        assert!(
            report.p99_within_one_bucket,
            "histogram p99 {} not within one bucket of exact {}",
            report.hist_p99_us, report.exact_p99_us
        );
        assert!(report.breaker_trips >= 1, "faulted primary never tripped");
        assert!(report.blackbox_parsed, "flight-recorder dumps incomplete");
        assert!(report.determinism, "telemetry not thread/rerun invariant");
        println!("telemetry gate passed");
    } else {
        // The committed artifact comes from a report run, never from the
        // gate.
        let bench_path = root.join("BENCH_telemetry.json");
        std::fs::write(
            &bench_path,
            serde_json::to_string_pretty(&report).expect("serialise"),
        )
        .expect("write BENCH_telemetry.json");
        println!("benchmark artifact written to {}", bench_path.display());
        let mut section = String::new();
        section.push_str(&format!(
            "\nInstrumented chaos soak ({} requests, {} live scrapes): every latency \
             stage and rung step count is a streaming log₂ histogram, scraped in-band \
             while the breaker tripped ({} trips, dumps: {:?}).\n\n",
            report.requests, report.scrapes, report.breaker_trips, report.dump_reasons
        ));
        section.push_str("| histogram | count | p50 | p99 | max |\n|---|---|---|---|---|\n");
        for row in &report.histograms {
            let unit = if row.key.starts_with("serve.lat.") {
                " us"
            } else {
                " steps"
            };
            section.push_str(&format!(
                "| `{}` | {} | {}{unit} | {}{unit} | {}{unit} |\n",
                row.key, row.count, row.p50, row.p99, row.max
            ));
        }
        section.push_str(&format!(
            "\nExact sorted p99 of `serve.lat.total` (from the JSONL trace): {} µs; \
             histogram estimate {} µs — within one log₂ bucket: {}. Final scrape \
             reconciled exactly with the shutdown snapshot: {}; trace ids and step \
             histograms bit-identical across `ULL_THREADS` {{1, 4}} and reruns: {}.\n",
            report.exact_p99_us,
            report.hist_p99_us,
            report.p99_within_one_bucket,
            report.reconciled,
            report.determinism
        ));
        update_experiments_md(
            "telemetry",
            "telemetry_probe",
            "Telemetry — live histograms, scrape and flight recorder",
            &section,
        );
    }
}
