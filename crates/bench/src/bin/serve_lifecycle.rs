//! Chaos bench for the zero-downtime model lifecycle (`ull-serve`):
//! validated hot-reload, deterministic shadow canary, and
//! watchdog-driven auto-rollback.
//!
//! Eight scenarios against live engines (one of them a full TCP-capable
//! [`Server`] under concurrent traffic):
//!
//! 1. **No manifest** — a lifecycle-enabled engine whose model directory
//!    stays empty must serve byte-identical logits to a plain engine:
//!    the subsystem is invisible until a deployer publishes something.
//! 2. **Clean reload** — a new version is published mid-traffic; every
//!    request gets exactly one typed reply (zero drops, zero errors)
//!    while the canary runs and the candidate is atomically promoted.
//! 3. **Corrupt artifact** — a garbage checkpoint is published; it must
//!    be rejected typed at validation and quarantined, never canaried.
//! 4. **Torn manifest** — truncated/bit-flipped manifest bytes at the
//!    published name are tolerated; the incumbent keeps serving.
//! 5. **Mid-canary corruption** — the candidate's weights go bad after
//!    validation; the watchdog excursions roll it back within a bounded
//!    number of canary batches.
//! 6. **Regressed candidate** — a healthy-but-disagreeing model is
//!    rejected by the top-1 agreement gate at the end of its canary.
//! 7. **Corrupted swap** — the post-swap fingerprint verification fails
//!    (chaos-armed); the incumbent is restored on the spot and a later
//!    good version still promotes.
//! 8. **Determinism** — canary routing, lifecycle transitions and all
//!    served logits are bit-identical across reruns and across
//!    `ULL_THREADS` ∈ {1, 4}.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin serve_lifecycle
//! cargo run --release -p ull-bench --bin serve_lifecycle -- --gate
//! ```
//!
//! Every run serves the same micro VGG on 8×8 inputs, so the bin takes
//! no `--scale`. `--gate` asserts the CI acceptance criteria
//! (`scripts/lifecycle_smoke.sh` runs it under `ULL_THREADS` 1 and 4) and
//! writes only `reports/serve_lifecycle_tiny.json`. A report run (no
//! `--gate`) writes `BENCH_lifecycle.json` and the reload/rollback
//! timeline between the `lifecycle` markers of EXPERIMENTS.md.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::Serialize;
use ull_bench::{update_experiments_md, workspace_root, write_report, Scale};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::models;
use ull_robust::{profile_envelope, FaultConfig, FaultedNetwork, InferenceFault};
use ull_serve::{
    reconcile, write_manifest, Engine, LifecycleConfig, LifecycleEvent, LifecycleManager,
    LifecycleTransition, Manifest, ReplicaSpec, Reply, Request, RungLabel, ServeConfig, Server,
    MANIFEST_NAME,
};
use ull_snn::{SnnNetwork, SpikeSpec};
use ull_tensor::{parallel, Tensor};

const CLASSES: usize = 3;
const SIDE: usize = 8;
/// Weight bit-flip rate for the mid-canary corruption scenario — heavy
/// enough that the candidate's spike rates leave its envelope almost
/// every batch.
const HIGH_BER: f64 = 2e-2;
/// Excursion budget before rollback; the gate allows detection a few
/// batches of slack on top (the watchdog verdict is per-batch).
const EXCURSION_LIMIT: usize = 2;
const ROLLBACK_BATCH_BOUND: usize = 12;

fn clean_net(seed: u64) -> SnnNetwork {
    let dnn = models::vgg_micro(CLASSES, SIDE, 0.25, seed);
    let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
    SnnNetwork::from_network(&dnn, &specs).expect("identity conversion")
}

fn faulted_net(seed: u64, ber: f64) -> SnnNetwork {
    let clean = clean_net(seed);
    let cfg = FaultConfig::new(seed).with(InferenceFault::WeightBitFlip { ber });
    FaultedNetwork::new(&clean, &cfg).network().clone()
}

fn test_data() -> Dataset {
    let (_, test) = generate(&SynthCifarConfig::tiny(CLASSES));
    test
}

fn calibration(data: &Dataset, batch: usize) -> Vec<Tensor> {
    data.eval_batches(batch).take(3).map(|b| b.images).collect()
}

fn model_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ull_serve_lifecycle_bench")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("model dir");
    dir
}

/// Publishes `net` as `version`: artifact first, then the manifest via
/// the atomic-rename convention.
fn publish(dir: &Path, version: u64, net: &SnnNetwork) {
    let artifact = format!("model-{version:05}.json");
    ull_nn::save(net, dir.join(&artifact)).expect("save artifact");
    write_manifest(dir, &Manifest::new(version, &artifact)).expect("publish manifest");
}

fn lifecycle_config(dir: &Path) -> LifecycleConfig {
    LifecycleConfig {
        model_dir: Some(dir.to_string_lossy().into_owned()),
        poll_every_batches: 1,
        canary_fraction: 1.0,
        canary_min_batches: 4,
        canary_window: 4,
        excursion_limit: EXCURSION_LIMIT,
        agreement_threshold: 0.9,
        ..LifecycleConfig::default()
    }
}

fn serve_config(lcfg: LifecycleConfig, batch: usize) -> ServeConfig {
    ServeConfig {
        input_shape: vec![3, SIDE, SIDE],
        t_full: 4,
        t_reduced: 2,
        workers: 2,
        max_batch: batch,
        max_linger_ms: 0,
        default_deadline_ms: 30_000,
        // Quarantines span minutes of engine time; nothing in the bench
        // advances the injected clock, so a quarantined version stays
        // quarantined for the rest of its scenario.
        backoff_base_ms: 120_000,
        backoff_max_ms: 600_000,
        lifecycle: lcfg,
        ..ServeConfig::default()
    }
}

/// Engine with one clean incumbent (version 0) and an attached manager.
/// `batch` is both the calibration batch size and the envelope profile
/// size, so mirrored canary batches are judged on their own geometry.
fn lifecycle_engine(
    data: &Dataset,
    lcfg: LifecycleConfig,
    batch: usize,
) -> (Engine, Arc<LifecycleManager>) {
    let cfg = serve_config(lcfg.clone(), batch);
    let incumbent = clean_net(11);
    let spec = ReplicaSpec {
        name: "primary".to_string(),
        net: incumbent.clone(),
        envelope_full: Some(profile_envelope(
            &incumbent, data, cfg.t_full, batch, 0.5, 0.05,
        )),
        envelope_reduced: Some(profile_envelope(
            &incumbent,
            data,
            cfg.t_reduced,
            batch,
            0.5,
            0.05,
        )),
    };
    let engine = Engine::new(cfg, vec![spec], None);
    let mgr = Arc::new(LifecycleManager::new(lcfg, calibration(data, batch)));
    engine.attach_lifecycle(Arc::clone(&mgr));
    (engine, mgr)
}

/// Drives `n` full-rung batches of size 2, returning logit bit patterns.
fn drive(engine: &Engine, data: &Dataset, n: usize) -> Vec<u32> {
    let mut bits = Vec::new();
    for b in data.eval_batches(2).take(n) {
        let out = engine.execute(&b.images, RungLabel::Full);
        bits.extend(out.logits.data().iter().map(|v| v.to_bits()));
    }
    bits
}

fn lifecycle_events(engine: &Engine) -> Vec<LifecycleEvent> {
    engine
        .take_events()
        .iter()
        .filter_map(|e| e.lifecycle())
        .cloned()
        .collect()
}

fn transitions(events: &[LifecycleEvent]) -> Vec<(LifecycleTransition, u64)> {
    events.iter().map(|e| (e.transition, e.version)).collect()
}

#[derive(Serialize)]
struct ReloadStats {
    requests: usize,
    predictions: usize,
    errors: usize,
    promoted_version: u64,
    waves_to_promotion: usize,
}

#[derive(Serialize)]
struct RollbackStats {
    canary_batches_to_rollback: usize,
    incumbent_version_after: u64,
    detail: String,
}

#[derive(Serialize)]
struct DeterminismStats {
    rerun_identical: bool,
    thread_invariant: bool,
    canary_assignment_identical: bool,
}

#[derive(Serialize)]
struct LifecycleReport {
    config: ServeConfig,
    no_manifest_identical: bool,
    clean_reload: ReloadStats,
    corrupt_artifact_transitions: Vec<LifecycleEvent>,
    torn_manifest_tolerated: bool,
    mid_canary_rollback: RollbackStats,
    regressed_rollback_detail: String,
    swap_verification_detail: String,
    swap_recovery_version: u64,
    determinism: DeterminismStats,
    timeline: Vec<LifecycleEvent>,
    counters: std::collections::BTreeMap<String, u64>,
}

/// Scenario 1: an empty model directory must leave the engine
/// byte-identical to one with no lifecycle attached at all.
fn scenario_no_manifest(data: &Dataset) -> bool {
    let dir = model_dir("no-manifest");
    let (with_lifecycle, _mgr) = lifecycle_engine(data, lifecycle_config(&dir), 2);
    let cfg = serve_config(LifecycleConfig::default(), 2);
    let incumbent = clean_net(11);
    let plain = Engine::new(
        cfg,
        vec![ReplicaSpec {
            name: "primary".to_string(),
            net: incumbent.clone(),
            envelope_full: Some(profile_envelope(&incumbent, data, 4, 2, 0.5, 0.05)),
            envelope_reduced: Some(profile_envelope(&incumbent, data, 2, 2, 0.5, 0.05)),
        }],
        None,
    );
    let attached = drive(&with_lifecycle, data, 8);
    let detached = drive(&plain, data, 8);
    let quiet = lifecycle_events(&with_lifecycle).is_empty();
    let _ = std::fs::remove_dir_all(dir);
    attached == detached && quiet
}

/// Scenario 2: clean reload under live traffic through a real [`Server`]
/// — zero dropped or duplicated replies, canary to promotion.
fn scenario_clean_reload(data: &Dataset) -> (ReloadStats, Vec<LifecycleEvent>) {
    let dir = model_dir("clean-reload");
    // Single-sample batches so the dynamic batcher's geometry matches
    // the calibration profile exactly.
    let (engine, _mgr) = lifecycle_engine(data, lifecycle_config(&dir), 1);
    let server = Server::start(engine);
    let set: Vec<Request> = data
        .eval_batches(1)
        .take(12)
        .enumerate()
        .map(|(i, b)| Request {
            id: i as u64 + 1,
            pixels: b.images.data().to_vec(),
            shape: vec![3, SIDE, SIDE],
            deadline_ms: None,
        })
        .collect();
    let wave = |server: &Server| -> (usize, usize) {
        let handles: Vec<_> = set
            .iter()
            .map(|req| {
                let client = server.client();
                let req = req.clone();
                std::thread::spawn(move || client.call(req))
            })
            .collect();
        let mut predictions = 0;
        let mut errors = 0;
        for h in handles {
            match h.join().expect("client thread") {
                Reply::Prediction { .. } => predictions += 1,
                _ => errors += 1,
            }
        }
        (predictions, errors)
    };

    let (mut predictions, mut errors) = wave(&server);
    let mut requests = set.len();
    publish(&dir, 1, &clean_net(11));
    let mut waves_to_promotion = 0;
    for _ in 0..10 {
        let (p, e) = wave(&server);
        predictions += p;
        errors += e;
        requests += set.len();
        waves_to_promotion += 1;
        if server.engine().serving_version(0) == 1 {
            break;
        }
    }
    let promoted_version = server.engine().serving_version(0);
    // One more wave on the promoted model: still zero errors.
    let (p, e) = wave(&server);
    predictions += p;
    errors += e;
    requests += set.len();
    let events = lifecycle_events(server.engine());
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    (
        ReloadStats {
            requests,
            predictions,
            errors,
            promoted_version,
            waves_to_promotion,
        },
        events,
    )
}

/// Scenario 3: a corrupt artifact is rejected typed and quarantined.
fn scenario_corrupt_artifact(data: &Dataset) -> (Vec<LifecycleEvent>, u64) {
    let dir = model_dir("corrupt");
    let (engine, _mgr) = lifecycle_engine(data, lifecycle_config(&dir), 2);
    std::fs::write(dir.join("model-00001.json"), b"{ torn checkpoint").expect("corrupt artifact");
    write_manifest(&dir, &Manifest::new(1, "model-00001.json")).expect("manifest");
    drive(&engine, data, 6);
    let events = lifecycle_events(&engine);
    let version = engine.serving_version(0);
    let _ = std::fs::remove_dir_all(dir);
    (events, version)
}

/// Scenario 4: torn/bit-flipped manifest bytes are tolerated.
fn scenario_torn_manifest(data: &Dataset) -> bool {
    let dir = model_dir("torn-manifest");
    let (engine, mgr) = lifecycle_engine(data, lifecycle_config(&dir), 2);
    let good = serde_json::to_string_pretty(&Manifest::new(1, "model-00001.json"))
        .expect("serialize")
        .into_bytes();
    // A torn write (no atomic rename) and a flipped bit, in turn. The
    // flip lands inside the artifact name — checksummed content, so the
    // damaged manifest must fail its integrity check.
    std::fs::write(dir.join(MANIFEST_NAME), &good[..good.len() / 2]).expect("torn write");
    drive(&engine, data, 3);
    let mut flipped = good.clone();
    let pos = flipped
        .windows(5)
        .position(|w| w == b"model")
        .expect("artifact name present");
    flipped[pos] ^= 0x10;
    std::fs::write(dir.join(MANIFEST_NAME), &flipped).expect("flipped write");
    drive(&engine, data, 3);
    let ok = engine.serving_version(0) == 0
        && mgr.candidate_version().is_none()
        && lifecycle_events(&engine).is_empty();
    let _ = std::fs::remove_dir_all(dir);
    ok
}

/// Scenario 5: the candidate goes bad mid-canary; watchdog excursions
/// roll it back within a bounded number of canary batches.
fn scenario_mid_canary_corruption(data: &Dataset) -> RollbackStats {
    let dir = model_dir("mid-canary");
    let lcfg = LifecycleConfig {
        // Only a rollback can end this canary.
        canary_min_batches: 200,
        canary_window: 200,
        ..lifecycle_config(&dir)
    };
    let (engine, mgr) = lifecycle_engine(data, lcfg, 2);
    publish(&dir, 1, &clean_net(11));
    drive(&engine, data, 1);
    assert_eq!(mgr.candidate_version(), Some(1), "canary must start");
    assert!(mgr.chaos_swap_candidate_net(faulted_net(11, HIGH_BER)));
    let mut canary_batches_to_rollback = usize::MAX;
    for i in 0..ROLLBACK_BATCH_BOUND + 8 {
        drive(&engine, data, 1);
        if mgr.candidate_version().is_none() {
            canary_batches_to_rollback = i + 1;
            break;
        }
    }
    let events = lifecycle_events(&engine);
    let detail = events
        .iter()
        .find(|e| e.transition == LifecycleTransition::RolledBack)
        .map(|e| e.detail.clone())
        .unwrap_or_default();
    let stats = RollbackStats {
        canary_batches_to_rollback,
        incumbent_version_after: engine.serving_version(0),
        detail,
    };
    let _ = std::fs::remove_dir_all(dir);
    stats
}

/// Scenario 6: a healthy candidate that disagrees with the incumbent is
/// rejected by the agreement gate.
fn scenario_regressed_candidate(data: &Dataset) -> String {
    let dir = model_dir("regressed");
    let (engine, _mgr) = lifecycle_engine(data, lifecycle_config(&dir), 2);
    publish(&dir, 1, &clean_net(77));
    drive(&engine, data, 8);
    assert_eq!(
        engine.serving_version(0),
        0,
        "a regressed candidate must never be promoted"
    );
    let events = lifecycle_events(&engine);
    let detail = events
        .iter()
        .find(|e| e.transition == LifecycleTransition::RolledBack)
        .map(|e| e.detail.clone())
        .unwrap_or_default();
    let _ = std::fs::remove_dir_all(dir);
    detail
}

/// Scenario 7: a corrupted swap fails fingerprint verification, the
/// incumbent is restored, and a later good version still promotes.
fn scenario_corrupted_swap(data: &Dataset) -> (String, u64) {
    let dir = model_dir("corrupt-swap");
    let (engine, mgr) = lifecycle_engine(data, lifecycle_config(&dir), 2);
    publish(&dir, 1, &clean_net(11));
    mgr.chaos_corrupt_next_swap();
    drive(&engine, data, 8);
    assert_eq!(
        engine.serving_version(0),
        0,
        "a failed swap verification must restore the incumbent"
    );
    let events = lifecycle_events(&engine);
    let detail = events
        .iter()
        .find(|e| e.transition == LifecycleTransition::RolledBack)
        .map(|e| e.detail.clone())
        .unwrap_or_default();
    publish(&dir, 2, &clean_net(11));
    drive(&engine, data, 8);
    let recovery_version = engine.serving_version(0);
    let _ = std::fs::remove_dir_all(dir);
    (detail, recovery_version)
}

/// Scenario 8: canary routing, transitions and served logits are
/// bit-identical across reruns and `ULL_THREADS` ∈ {1, 4}.
fn scenario_determinism(data: &Dataset) -> DeterminismStats {
    let _guard = parallel::override_lock();
    let run = |threads: usize, tag: &str| {
        parallel::set_threads(threads);
        let dir = model_dir(&format!("determinism-{tag}"));
        let lcfg = LifecycleConfig {
            // A real fraction so the routing itself is under test.
            canary_fraction: 0.5,
            ..lifecycle_config(&dir)
        };
        let (engine, mgr) = lifecycle_engine(data, lcfg, 2);
        publish(&dir, 1, &clean_net(11));
        let assignment: Vec<bool> = (0..32).map(|s| mgr.is_canary_batch(s)).collect();
        let bits = drive(&engine, data, 16);
        let events = transitions(&lifecycle_events(&engine));
        let version = engine.serving_version(0);
        let _ = std::fs::remove_dir_all(dir);
        (assignment, bits, events, version)
    };
    let serial_a = run(1, "serial-a");
    let serial_b = run(1, "serial-b");
    let threaded = run(4, "threaded");
    parallel::set_threads(0);
    assert_eq!(
        serial_a.3, 1,
        "determinism scenario must promote (got version {})",
        serial_a.3
    );
    DeterminismStats {
        rerun_identical: serial_a == serial_b,
        thread_invariant: serial_a == threaded,
        canary_assignment_identical: serial_a.0 == serial_b.0 && serial_a.0 == threaded.0,
    }
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    ull_obs::set_enabled(true);
    ull_obs::reset();
    let data = test_data();

    let no_manifest_identical = scenario_no_manifest(&data);
    println!("no manifest: byte-identical to a plain engine: {no_manifest_identical}");

    let (clean_reload, timeline) = scenario_clean_reload(&data);
    println!(
        "clean reload: {}/{} predictions, {} errors, promoted to v{} after {} wave(s)",
        clean_reload.predictions,
        clean_reload.requests,
        clean_reload.errors,
        clean_reload.promoted_version,
        clean_reload.waves_to_promotion
    );

    let (corrupt_artifact_transitions, corrupt_version) = scenario_corrupt_artifact(&data);
    println!(
        "corrupt artifact: {} transition(s), incumbent still v{corrupt_version}",
        corrupt_artifact_transitions.len()
    );

    let torn_manifest_tolerated = scenario_torn_manifest(&data);
    println!("torn manifest tolerated: {torn_manifest_tolerated}");

    let mid_canary_rollback = scenario_mid_canary_corruption(&data);
    println!(
        "mid-canary corruption: rolled back after {} canary batch(es): {}",
        mid_canary_rollback.canary_batches_to_rollback, mid_canary_rollback.detail
    );

    let regressed_rollback_detail = scenario_regressed_candidate(&data);
    println!("regressed candidate: {regressed_rollback_detail}");

    let (swap_verification_detail, swap_recovery_version) = scenario_corrupted_swap(&data);
    println!("corrupted swap: {swap_verification_detail}; later v{swap_recovery_version} promoted");

    let determinism = scenario_determinism(&data);
    println!(
        "determinism: rerun {}, ULL_THREADS {{1,4}} {}, routing {}",
        determinism.rerun_identical,
        determinism.thread_invariant,
        determinism.canary_assignment_identical
    );

    let snapshot = ull_obs::snapshot();
    ull_obs::set_enabled(false);
    reconcile(&snapshot).expect("lifecycle counters reconcile across all scenarios");

    let report = LifecycleReport {
        config: serve_config(lifecycle_config(&PathBuf::from("<model-dir>")), 2),
        no_manifest_identical,
        clean_reload,
        corrupt_artifact_transitions,
        torn_manifest_tolerated,
        mid_canary_rollback,
        regressed_rollback_detail,
        swap_verification_detail,
        swap_recovery_version,
        determinism,
        timeline,
        counters: snapshot.counters.clone(),
    };
    if gate {
        let path = write_report("serve_lifecycle", Scale::Tiny, &report);
        println!("report written to {}", path.display());
        assert!(
            report.no_manifest_identical,
            "lifecycle must be invisible without a manifest"
        );
        assert_eq!(
            report.clean_reload.errors, 0,
            "clean reload produced error replies"
        );
        assert_eq!(
            report.clean_reload.predictions, report.clean_reload.requests,
            "clean reload dropped replies"
        );
        assert_eq!(
            report.clean_reload.promoted_version, 1,
            "clean reload never promoted"
        );
        let corrupt: Vec<_> = report
            .corrupt_artifact_transitions
            .iter()
            .map(|e| (e.transition, e.version))
            .collect();
        assert_eq!(
            corrupt,
            vec![(LifecycleTransition::Quarantined, 1)],
            "corrupt artifact must be quarantined typed, never canaried or promoted"
        );
        assert!(
            report.torn_manifest_tolerated,
            "torn manifest disturbed the incumbent"
        );
        assert!(
            report.mid_canary_rollback.canary_batches_to_rollback <= ROLLBACK_BATCH_BOUND,
            "rollback took {} canary batches (bound {ROLLBACK_BATCH_BOUND})",
            report.mid_canary_rollback.canary_batches_to_rollback
        );
        assert_eq!(
            report.mid_canary_rollback.incumbent_version_after, 0,
            "mid-canary corruption displaced the incumbent"
        );
        assert!(
            report.regressed_rollback_detail.contains("agreement"),
            "regressed candidate not rejected by the agreement gate: {}",
            report.regressed_rollback_detail
        );
        assert!(
            report.swap_verification_detail.contains("fingerprint"),
            "corrupted swap not caught by fingerprint verification: {}",
            report.swap_verification_detail
        );
        assert_eq!(
            report.swap_recovery_version, 2,
            "recovery after a failed swap never promoted"
        );
        assert!(
            report.determinism.rerun_identical,
            "lifecycle not rerun-deterministic"
        );
        assert!(
            report.determinism.thread_invariant,
            "lifecycle not bit-identical across ULL_THREADS {{1, 4}}"
        );
        assert!(
            report.determinism.canary_assignment_identical,
            "canary routing not thread/rerun invariant"
        );
        println!("lifecycle gate passed");
    } else {
        // The committed artifact comes from a report run, never from the
        // gate.
        let bench_path = workspace_root().join("BENCH_lifecycle.json");
        std::fs::write(
            &bench_path,
            serde_json::to_string_pretty(&report).expect("serialise"),
        )
        .expect("write BENCH_lifecycle.json");
        println!("benchmark artifact written to {}", bench_path.display());
        let mut section = String::new();
        section.push_str(
            "\nLifecycle chaos bench: an incumbent (version 0) serves throughout \
             while candidate versions are published, canaried on a deterministic \
             fraction of live batches, and promoted or rolled back.\n\n",
        );
        section.push_str("| scenario | outcome |\n|---|---|\n");
        section.push_str(&format!(
            "| no manifest | byte-identical to a lifecycle-free engine: {} |\n",
            report.no_manifest_identical
        ));
        section.push_str(&format!(
            "| clean reload | {}/{} replies, {} errors, promoted to v{} |\n",
            report.clean_reload.predictions,
            report.clean_reload.requests,
            report.clean_reload.errors,
            report.clean_reload.promoted_version
        ));
        section.push_str(&format!(
            "| corrupt artifact | quarantined typed, incumbent untouched: {} |\n",
            corrupt_version == 0
        ));
        section.push_str(&format!(
            "| torn manifest | tolerated: {} |\n",
            report.torn_manifest_tolerated
        ));
        section.push_str(&format!(
            "| mid-canary corruption | rollback after {} canary batches |\n",
            report.mid_canary_rollback.canary_batches_to_rollback
        ));
        section.push_str(&format!(
            "| regressed candidate | {} |\n",
            report.regressed_rollback_detail
        ));
        section.push_str(&format!(
            "| corrupted swap | incumbent restored; v{} promoted after |\n",
            report.swap_recovery_version
        ));
        section.push_str(&format!(
            "| determinism | rerun {}, `ULL_THREADS` {{1,4}} {} |\n",
            report.determinism.rerun_identical, report.determinism.thread_invariant
        ));
        section.push_str("\nReload timeline (clean-reload scenario):\n\n");
        for e in &report.timeline {
            section.push_str(&format!(
                "* seq {} (+{} ms): {:?} v{} — {}\n",
                e.seq, e.at_ms, e.transition, e.version, e.detail
            ));
        }
        update_experiments_md(
            "lifecycle",
            "serve_lifecycle",
            "Serving — zero-downtime model lifecycle",
            &section,
        );
    }
}
