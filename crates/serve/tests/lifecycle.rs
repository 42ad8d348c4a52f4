//! Model-lifecycle tests: manifest fuzzing (truncation, bit flips,
//! garbage — never a panic, never the wrong model) and end-to-end
//! reload/canary/rollback flows driven through a live [`Engine`].

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use ull_data::Dataset;
use ull_robust::profile_envelope;
use ull_serve::{
    parse_manifest, write_manifest, Engine, LifecycleConfig, LifecycleManager, LifecycleTransition,
    Manifest, ReplicaSpec, RungLabel, ServeConfig,
};
use ull_snn::SnnNetwork;
use ull_tensor::Tensor;

mod common;
use common::{clean_net, faulted_net, private_engine, test_data, SIDE};

// ---------------------------------------------------------------------------
// Manifest fuzzing (satellite: torn writes, bit flips, stale versions)
// ---------------------------------------------------------------------------

fn reference_manifest_bytes() -> (Manifest, Vec<u8>) {
    let m = Manifest::new(42, "model-00042.json");
    let bytes = serde_json::to_string_pretty(&m).unwrap().into_bytes();
    (m, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A manifest truncated at any byte boundary (a torn write caught
    /// before the atomic rename convention) is rejected typed; only the
    /// complete file parses, and it parses to exactly what was written.
    #[test]
    fn truncated_manifests_never_panic_and_never_parse(cut in 0usize..4_096) {
        let (m, bytes) = reference_manifest_bytes();
        let cut = cut.min(bytes.len());
        let parsed = parse_manifest(&bytes[..cut]);
        if cut == bytes.len() {
            prop_assert_eq!(parsed.unwrap(), m);
        } else {
            prop_assert!(parsed.is_err(), "truncation at {} must be rejected", cut);
        }
    }

    /// A single flipped bit anywhere in the file either fails typed or —
    /// when the flip lands outside the checksummed content — parses to
    /// the *identical* manifest. It can never yield a different model
    /// version or artifact, because any content change breaks the
    /// stored FNV-1a checksum.
    #[test]
    fn bit_flipped_manifests_never_name_a_different_model(
        pos in 0usize..4_096,
        bit in 0usize..8,
    ) {
        let (m, mut bytes) = reference_manifest_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(parsed) = parse_manifest(&bytes) {
            prop_assert_eq!(parsed, m);
        }
    }

    /// Arbitrary bytes at the manifest name — random garbage, partial
    /// UTF-8, binary — never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(raw in proptest::collection::vec(0usize..256, 0..512)) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let _ = parse_manifest(&bytes);
    }
}

// ---------------------------------------------------------------------------
// End-to-end lifecycle flows
// ---------------------------------------------------------------------------

/// Held-out calibration batches for validation/fingerprinting.
fn calibration(data: &Dataset) -> Vec<Tensor> {
    data.eval_batches(2).take(3).map(|b| b.images).collect()
}

fn model_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ull_serve_lifecycle_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Publishes `net` as `version` in `dir`: checkpoint artifact first,
/// then the manifest via the atomic-rename convention.
fn publish(dir: &Path, version: u64, net: &SnnNetwork) {
    let artifact = format!("model-{version:05}.json");
    ull_nn::save(net, dir.join(&artifact)).unwrap();
    write_manifest(dir, &Manifest::new(version, &artifact)).unwrap();
}

fn lifecycle_config(dir: &Path) -> LifecycleConfig {
    LifecycleConfig {
        model_dir: Some(dir.to_string_lossy().into_owned()),
        poll_every_batches: 1,
        canary_fraction: 1.0,
        canary_min_batches: 4,
        excursion_limit: 2,
    }
}

/// Engine with one clean incumbent replica (version 0) and an attached
/// lifecycle manager for `lcfg`, recording into its own fresh registry.
fn lifecycle_engine(data: &Dataset, lcfg: LifecycleConfig) -> (Engine, Arc<LifecycleManager>) {
    let cfg = ServeConfig {
        input_shape: vec![3, SIDE, SIDE],
        t_full: 4,
        t_reduced: 2,
        // Quarantines span minutes of engine time; tests that want a
        // re-probe advance the injected clock explicitly.
        backoff_base_ms: 120_000,
        backoff_max_ms: 600_000,
        lifecycle: lcfg.clone(),
        ..ServeConfig::default()
    };
    let incumbent = clean_net(11);
    let spec = ReplicaSpec {
        name: "primary".to_string(),
        net: incumbent.clone(),
        envelope_full: Some(profile_envelope(&incumbent, data, cfg.t_full, 2)),
        envelope_reduced: Some(profile_envelope(&incumbent, data, cfg.t_reduced, 2)),
    };
    let engine = private_engine(&cfg, vec![spec]);
    let mgr = Arc::new(LifecycleManager::new(lcfg, calibration(data)));
    engine.attach_lifecycle(Arc::clone(&mgr));
    (engine, mgr)
}

/// Drives `n` full-rung batches and returns the returned logits.
fn drive(engine: &Engine, data: &Dataset, n: usize) -> Vec<Tensor> {
    data.eval_batches(2)
        .take(n)
        .map(|b| engine.execute(&b.images, RungLabel::Full).logits)
        .collect()
}

fn lifecycle_timeline(engine: &Engine) -> Vec<(LifecycleTransition, u64)> {
    engine
        .take_events()
        .iter()
        .filter_map(|e| e.lifecycle())
        .map(|l| (l.transition, l.version))
        .collect()
}

#[test]
fn clean_reload_promotes_and_is_deterministic_across_reruns() {
    let run = |name: &str| {
        let data = test_data();
        let dir = model_dir(name);
        let (engine, mgr) = lifecycle_engine(&data, lifecycle_config(&dir));
        // The candidate carries the incumbent's weights under a new
        // version: agreement is exactly 1.0 and no excursions occur, so
        // the canary must end in promotion.
        publish(&dir, 1, &clean_net(11));
        let logits = drive(&engine, &data, 8);
        assert_eq!(engine.serving_version(0), 1, "candidate was promoted");
        assert_eq!(mgr.candidate_version(), None, "canary resolved");
        let timeline = lifecycle_timeline(&engine);
        assert_eq!(
            timeline,
            vec![
                (LifecycleTransition::CanaryStarted, 1),
                (LifecycleTransition::Promoted, 1)
            ]
        );
        let snap = engine.registry().snapshot();
        ull_serve::reconcile(&snap).expect("lifecycle counters reconcile");
        assert_eq!(snap.counters.get("serve.lifecycle.promotions"), Some(&1));
        assert_eq!(
            snap.counters.get("serve.lifecycle.canary_started"),
            Some(&1)
        );
        assert!(snap.counters.get("serve.lifecycle.canary_batches").copied() >= Some(4));
        let _ = fs::remove_dir_all(dir);
        (timeline, logits)
    };

    let (timeline_a, logits_a) = run("promote-a");
    let (timeline_b, logits_b) = run("promote-b");
    assert_eq!(
        timeline_a, timeline_b,
        "lifecycle decisions replay bit-for-bit"
    );
    for (a, b) in logits_a.iter().zip(&logits_b) {
        assert_eq!(a.data(), b.data(), "served logits replay bit-for-bit");
    }
}

#[test]
fn corrupt_artifact_is_quarantined_then_accepted_after_repair() {
    let data = test_data();
    let dir = model_dir("corrupt");
    let (engine, mgr) = lifecycle_engine(&data, lifecycle_config(&dir));

    // Version 1's artifact is garbage: validation must fail typed,
    // quarantine the version, and never start a canary.
    fs::write(dir.join("model-00001.json"), b"{ not a checkpoint").unwrap();
    write_manifest(&dir, &Manifest::new(1, "model-00001.json")).unwrap();
    drive(&engine, &data, 6);
    assert_eq!(engine.serving_version(0), 0, "incumbent keeps serving");
    assert_eq!(mgr.candidate_version(), None);
    let timeline = lifecycle_timeline(&engine);
    assert_eq!(
        timeline,
        vec![(LifecycleTransition::Quarantined, 1)],
        "one quarantine at first poll; later polls are held by backoff"
    );

    // Repair the artifact in place. The version stays quarantined until
    // its backoff elapses; the half-open probe then re-validates it and
    // the canary runs to promotion.
    publish(&dir, 1, &clean_net(11));
    drive(&engine, &data, 3);
    assert_eq!(mgr.candidate_version(), None, "still quarantined");
    engine.chaos_advance_clock(2_000_000);
    drive(&engine, &data, 8);
    assert_eq!(engine.serving_version(0), 1, "repaired artifact promoted");
    let timeline = lifecycle_timeline(&engine);
    assert_eq!(
        timeline,
        vec![
            (LifecycleTransition::CanaryStarted, 1),
            (LifecycleTransition::Promoted, 1)
        ]
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn stale_versions_and_missing_manifests_change_nothing() {
    let data = test_data();
    let dir = model_dir("stale");
    let (engine, mgr) = lifecycle_engine(&data, lifecycle_config(&dir));

    // No manifest at all: the steady state.
    drive(&engine, &data, 2);
    // A manifest republishing the already-serving version: ignored.
    publish(&dir, 0, &clean_net(11));
    drive(&engine, &data, 4);

    assert_eq!(engine.serving_version(0), 0);
    assert_eq!(mgr.candidate_version(), None);
    assert!(
        lifecycle_timeline(&engine).is_empty(),
        "stale/missing manifests must not produce lifecycle transitions"
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn mid_canary_corruption_rolls_back_on_excursions() {
    let data = test_data();
    let dir = model_dir("mid-canary");
    let lcfg = LifecycleConfig {
        // Only a rollback can end this canary.
        canary_min_batches: 50,
        ..lifecycle_config(&dir)
    };
    let (engine, mgr) = lifecycle_engine(&data, lcfg);

    publish(&dir, 1, &clean_net(11));
    drive(&engine, &data, 1);
    assert_eq!(mgr.candidate_version(), Some(1), "canary started");

    // The candidate goes bad *after* validation: heavy weight bit flips.
    assert!(mgr.chaos_swap_candidate_net(faulted_net(11, 2e-2)));
    let mut batches_to_rollback = None;
    for i in 0..20 {
        drive(&engine, &data, 1);
        if mgr.candidate_version().is_none() {
            batches_to_rollback = Some(i + 1);
            break;
        }
    }
    let took = batches_to_rollback.expect("watchdog must catch the corrupted candidate");
    assert!(
        took <= 20,
        "rollback within a bounded number of canary batches (took {took})"
    );
    assert_eq!(engine.serving_version(0), 0, "incumbent never displaced");
    let timeline = lifecycle_timeline(&engine);
    assert_eq!(
        timeline,
        vec![
            (LifecycleTransition::CanaryStarted, 1),
            (LifecycleTransition::RolledBack, 1),
            (LifecycleTransition::Quarantined, 1)
        ]
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn regressed_candidate_rolls_back_on_low_agreement() {
    let data = test_data();
    let dir = model_dir("regressed");
    let (engine, mgr) = lifecycle_engine(&data, lifecycle_config(&dir));

    // A differently-seeded untrained net is healthy against its own
    // envelope but disagrees with the incumbent's predictions: the
    // agreement gate must reject it at the end of the canary.
    publish(&dir, 1, &clean_net(77));
    drive(&engine, &data, 8);
    assert_eq!(
        engine.serving_version(0),
        0,
        "regressed candidate never promoted"
    );
    assert_eq!(mgr.candidate_version(), None);
    let events = engine.take_events();
    let rollbacks: Vec<_> = events
        .iter()
        .filter_map(|e| e.lifecycle())
        .filter(|l| l.transition == LifecycleTransition::RolledBack)
        .collect();
    assert_eq!(rollbacks.len(), 1);
    assert!(
        rollbacks[0].detail.contains("agreement"),
        "rollback cites the agreement gate: {}",
        rollbacks[0].detail
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn failed_swap_verification_restores_incumbent_then_next_version_recovers() {
    let data = test_data();
    let dir = model_dir("torn-swap");
    let (engine, mgr) = lifecycle_engine(&data, lifecycle_config(&dir));

    publish(&dir, 1, &clean_net(11));
    mgr.chaos_corrupt_next_swap();
    drive(&engine, &data, 8);
    assert_eq!(
        engine.serving_version(0),
        0,
        "a swap that fails fingerprint verification must restore the incumbent"
    );
    let events = engine.take_events();
    let lifecycle: Vec<_> = events.iter().filter_map(|e| e.lifecycle()).collect();
    let transitions: Vec<_> = lifecycle
        .iter()
        .map(|l| (l.transition, l.version))
        .collect();
    assert_eq!(
        transitions,
        vec![
            (LifecycleTransition::CanaryStarted, 1),
            (LifecycleTransition::RolledBack, 1),
            (LifecycleTransition::Quarantined, 1)
        ]
    );
    assert!(
        lifecycle[1].detail.contains("fingerprint"),
        "rollback cites the failed swap verification: {}",
        lifecycle[1].detail
    );

    // A fresh, higher version is unaffected by v1's quarantine and
    // promotes cleanly — the ladder recovers without operator help.
    publish(&dir, 2, &clean_net(11));
    drive(&engine, &data, 8);
    assert_eq!(engine.serving_version(0), 2);
    let _ = fs::remove_dir_all(dir);
}
