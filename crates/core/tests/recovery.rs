//! Integration tests of the crash-safe pipeline: deterministic fault
//! injection, rollback-and-retry, and the interrupt/resume bit-identity
//! contract.

use std::fs;
use std::path::{Path, PathBuf};

use ull_core::{
    run_or_resume_pipeline, run_pipeline, FaultKind, FaultPlan, PipelineCheckpoint, PipelineConfig,
    PipelineError, PipelinePhase, Trigger,
};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::{models, CheckpointMeta, Network, TrainError};
use ull_snn::SnnNetwork;
use ull_tensor::init::seeded_rng;
use ull_tensor::parallel;

/// A fresh per-process checkpoint directory under the system temp dir,
/// removed again when the guard drops — also when the test panics, so
/// runs leave no checkpoints behind.
struct TestDir(PathBuf);

impl TestDir {
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn test_dir(name: &str) -> TestDir {
    let dir = std::env::temp_dir()
        .join("ull_core_recovery_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    TestDir(dir)
}

fn fixture() -> (Dataset, Dataset, Network, PipelineConfig) {
    let cfg = SynthCifarConfig::tiny(4);
    let (train, test) = generate(&cfg);
    let dnn = models::vgg_micro(4, cfg.image_size, 0.5, 11);
    let mut pcfg = PipelineConfig::small(2);
    pcfg.dnn_epochs = 4;
    pcfg.snn_epochs = 3;
    (train, test, dnn, pcfg)
}

/// Canonical bit-exact fingerprint of a network: its serialized JSON.
/// f32 values round-trip exactly through the shortest-round-trip writer,
/// so equal strings ⇔ bit-identical parameters.
fn snn_bits(snn: &SnnNetwork) -> String {
    serde_json::to_string(snn).unwrap()
}

fn dnn_bits(dnn: &Network) -> String {
    serde_json::to_string(dnn).unwrap()
}

/// A fault plan that injects nothing.
fn clean() -> FaultPlan {
    FaultPlan::none()
}

fn resumes(reg: &ull_obs::Registry) -> u64 {
    let snap = reg.snapshot();
    snap.counters.get("recovery.resumes").copied().unwrap_or(0)
}

#[test]
fn healthy_recoverable_run_matches_run_pipeline_bit_for_bit() {
    let (train, test, dnn0, pcfg) = fixture();

    let mut dnn_plain = dnn0.clone();
    let mut rng = seeded_rng(12);
    let (rep_plain, snn_plain) =
        run_pipeline(&mut dnn_plain, &train, &test, &pcfg, &mut rng).unwrap();

    let mut dnn_rec = dnn0.clone();
    let dir = test_dir("healthy");
    let mut rng = seeded_rng(12);
    let (rep_rec, snn_rec) = run_or_resume_pipeline(
        &mut dnn_rec,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut clean(),
    )
    .unwrap();

    assert_eq!(
        rep_plain.dnn_accuracy.to_bits(),
        rep_rec.dnn_accuracy.to_bits()
    );
    assert_eq!(
        rep_plain.converted_accuracy.to_bits(),
        rep_rec.converted_accuracy.to_bits()
    );
    assert_eq!(
        rep_plain.snn_accuracy.to_bits(),
        rep_rec.snn_accuracy.to_bits()
    );
    assert_eq!(dnn_bits(&dnn_plain), dnn_bits(&dnn_rec));
    assert_eq!(snn_bits(&snn_plain), snn_bits(&snn_rec));
    assert!(rep_rec.recovery_events.is_empty());
}

#[test]
fn interrupted_and_resumed_run_is_bit_identical() {
    let (train, test, dnn0, pcfg) = fixture();

    // Reference: uninterrupted recoverable run.
    let mut dnn_ref = dnn0.clone();
    let dir_ref = test_dir("uninterrupted");
    let mut rng = seeded_rng(12);
    let (rep_ref, snn_ref) = run_or_resume_pipeline(
        &mut dnn_ref,
        &train,
        &test,
        &pcfg,
        dir_ref.path(),
        &mut rng,
        &mut clean(),
    )
    .unwrap();

    // Interrupted run: crash mid-DNN-training, resume, crash mid-SGL,
    // resume again to completion.
    let dir = test_dir("interrupted");
    let mut dnn = dnn0.clone();
    let mut rng = seeded_rng(12);
    let mut plan = FaultPlan::none().with(PipelinePhase::DnnTrain, 2, FaultKind::CrashBeforeCommit);
    let err = run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut plan,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        PipelineError::SimulatedCrash {
            phase: PipelinePhase::DnnTrain,
            epoch: 2
        }
    ));

    // A restarted process has a fresh network and RNG: both must be
    // overwritten from the checkpoint.
    let mut dnn = models::vgg_micro(4, 8, 0.5, 999);
    let mut rng = seeded_rng(999);
    let mut plan = FaultPlan::none().with(PipelinePhase::Sgl, 1, FaultKind::CrashBeforeCommit);
    let err = run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut plan,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        PipelineError::SimulatedCrash {
            phase: PipelinePhase::Sgl,
            epoch: 1
        }
    ));

    let mut dnn = models::vgg_micro(4, 8, 0.5, 777);
    let mut rng = seeded_rng(777);
    let (rep, snn) = run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut clean(),
    )
    .unwrap();

    assert_eq!(rep_ref.dnn_accuracy.to_bits(), rep.dnn_accuracy.to_bits());
    assert_eq!(
        rep_ref.converted_accuracy.to_bits(),
        rep.converted_accuracy.to_bits()
    );
    assert_eq!(rep_ref.snn_accuracy.to_bits(), rep.snn_accuracy.to_bits());
    assert_eq!(dnn_bits(&dnn_ref), dnn_bits(&dnn));
    assert_eq!(
        snn_bits(&snn_ref),
        snn_bits(&snn),
        "resumed SNN differs from uninterrupted run"
    );
}

#[test]
fn nan_gradient_triggers_rollback_and_still_converges() {
    let (train, test, dnn0, mut pcfg) = fixture();
    pcfg.dnn_epochs = 6;

    let dir = test_dir("nan_rollback");
    let mut dnn = dnn0.clone();
    let mut rng = seeded_rng(12);
    // Poison one gradient in DNN epoch 1 and one in SGL epoch 1; both must
    // be detected pre-step, rolled back, and retried automatically.
    let mut plan = FaultPlan::none()
        .with(
            PipelinePhase::DnnTrain,
            1,
            FaultKind::NanGradient { batch: 0 },
        )
        .with(PipelinePhase::Sgl, 1, FaultKind::NanGradient { batch: 1 });
    let (rep, snn) = run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut plan,
    )
    .expect("pipeline must recover from injected NaNs");
    assert_eq!(plan.pending(), 0, "both faults must have fired");
    assert_eq!(rep.recovery_events.len(), 2, "{:?}", rep.recovery_events);
    assert!(
        rep.recovery_events
            .iter()
            .all(|e| e.contains("non-finite gradient")),
        "{:?}",
        rep.recovery_events
    );
    // No NaN leaked into the final model, and it still learned.
    snn.visit_params(|p| assert!(p.value.data().iter().all(|x| x.is_finite())));
    assert!(
        rep.snn_accuracy > 0.3,
        "post-recovery SNN at chance: {}",
        rep.snn_accuracy
    );
}

#[test]
fn corrupted_newest_checkpoint_is_skipped_on_resume() {
    let (train, test, dnn0, pcfg) = fixture();

    // Reference: uninterrupted run.
    let mut dnn_ref = dnn0.clone();
    let dir_ref = test_dir("corrupt_ref");
    let mut rng = seeded_rng(12);
    let (_, snn_ref) = run_or_resume_pipeline(
        &mut dnn_ref,
        &train,
        &test,
        &pcfg,
        dir_ref.path(),
        &mut rng,
        &mut clean(),
    )
    .unwrap();

    // Crash that corrupts the newest checkpoint after committing it.
    let dir = test_dir("corrupt");
    let mut dnn = dnn0.clone();
    let mut rng = seeded_rng(12);
    let mut plan = FaultPlan::none().with(PipelinePhase::DnnTrain, 2, FaultKind::CorruptCheckpoint);
    let err = run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut plan,
    )
    .unwrap_err();
    assert!(matches!(err, PipelineError::SimulatedCrash { .. }));

    // Resume must skip the torn file, fall back to the previous good
    // checkpoint, and still finish bit-identically.
    let mut dnn = models::vgg_micro(4, 8, 0.5, 999);
    let mut rng = seeded_rng(999);
    let (_, snn) = run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut clean(),
    )
    .expect("resume must survive a corrupted newest checkpoint");
    assert_eq!(snn_bits(&snn_ref), snn_bits(&snn));
}

#[test]
fn retry_budget_exhaustion_surfaces_diverged() {
    let (train, test, dnn0, pcfg) = fixture();

    let dir = test_dir("diverged");
    let mut dnn = dnn0.clone();
    let mut rng = seeded_rng(12);
    // The same epoch fails on the first attempt and on all three retries.
    let mut plan = FaultPlan::none();
    for _ in 0..4 {
        plan = plan.with(
            PipelinePhase::DnnTrain,
            1,
            FaultKind::NanGradient { batch: 0 },
        );
    }
    let err = run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut plan,
    )
    .unwrap_err();
    assert_eq!(plan.pending(), 0, "every fault must have fired");
    match err {
        PipelineError::Train(TrainError::Diverged {
            phase,
            epoch,
            retries,
        }) => {
            assert_eq!(phase, "dnn-train");
            assert_eq!(epoch, 1);
            assert_eq!(retries, 3);
        }
        other => panic!("expected Diverged, got {other}"),
    }
}

fn checkpoint_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "json").unwrap_or(false))
        .collect();
    v.sort();
    v
}

#[test]
fn keep_last_prunes_checkpoint_directory() {
    let (train, test, dnn0, mut pcfg) = fixture();
    pcfg.dnn_epochs = 3;
    pcfg.snn_epochs = 2;

    // Only the three newest checkpoints survive a full run.
    let dir = test_dir("keep_last");
    let mut dnn = dnn0.clone();
    let mut rng = seeded_rng(12);
    run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut clean(),
    )
    .unwrap();
    let files = checkpoint_files(dir.path());
    assert_eq!(files.len(), 3, "{files:?}");
    // The newest survivor must still load as a valid pipeline checkpoint.
    let (_, meta, path) = ull_nn::load_latest::<PipelineCheckpoint>(dir.path()).unwrap();
    assert_eq!(Some(path.as_path()), files.last().map(|p| p.as_path()));
    assert_eq!(meta.phase, "sgl", "newest checkpoint is from the SGL phase");
}

#[test]
fn faulted_recovery_is_thread_invariant() {
    // The same fault plan must produce bit-identical recovery (same events,
    // same final weights) regardless of the worker pool size.
    let (train, test, dnn0, pcfg) = fixture();
    let run = |threads: usize, name: &str| {
        let dir = test_dir(name);
        let mut dnn = dnn0.clone();
        let mut rng = seeded_rng(12);
        let mut plan = FaultPlan::none()
            .with(
                PipelinePhase::DnnTrain,
                1,
                FaultKind::NanGradient { batch: 0 },
            )
            .with(PipelinePhase::Sgl, 1, FaultKind::NanGradient { batch: 1 });
        let (rep, snn) = parallel::with_threads(threads, || {
            run_or_resume_pipeline(
                &mut dnn,
                &train,
                &test,
                &pcfg,
                dir.path(),
                &mut rng,
                &mut plan,
            )
        })
        .expect("pipeline must recover from injected NaNs");
        assert_eq!(plan.pending(), 0, "both faults must have fired");
        (rep, snn_bits(&snn))
    };
    let (rep1, snn1) = run(1, "faults_t1");
    let (rep4, snn4) = run(4, "faults_t4");
    assert_eq!(snn1, snn4, "faulted recovery differs across thread counts");
    assert_eq!(rep1.snn_accuracy.to_bits(), rep4.snn_accuracy.to_bits());
    assert_eq!(rep1.recovery_events, rep4.recovery_events);
}

#[test]
fn recurring_fault_schedule_exhausts_retries_to_diverged() {
    // A recurring NaN schedule re-fires on every rollback retry of the
    // selected epoch, so the retry budget must drain to Diverged — the
    // flaky-hardware scenario one-shot points cannot express.
    let (train, test, dnn0, pcfg) = fixture();
    let dir = test_dir("recurring_diverged");
    let mut dnn = dnn0.clone();
    let mut rng = seeded_rng(12);
    let mut plan = FaultPlan::none().with_recurring(
        PipelinePhase::DnnTrain,
        Trigger::Every {
            period: 1,
            offset: 2,
        },
        FaultKind::NanGradient { batch: 0 },
    );
    let err = run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut plan,
    )
    .unwrap_err();
    match err {
        PipelineError::Train(TrainError::Diverged {
            phase,
            epoch,
            retries,
        }) => {
            assert_eq!(phase, "dnn-train");
            assert_eq!(epoch, 2);
            assert_eq!(retries, 3);
        }
        other => panic!("expected Diverged, got {other}"),
    }
    assert_eq!(plan.recurring_count(), 1, "schedules are never consumed");
}

#[test]
fn resume_rejects_nan_poisoned_checkpoint() {
    // Regression: a checkpoint holding non-finite weights must not resume.
    // The NaN survives the checksum (it was faithfully written), so only
    // payload validation stands between it and the training loop. With
    // nothing valid to resume, the run starts fresh, deletes the rejected
    // file and ends exactly as a run in an empty directory.
    let (train, test, dnn0, pcfg) = fixture();
    let dir_ref = test_dir("poisoned_ref");
    let mut dnn_ref = dnn0.clone();
    let mut rng = seeded_rng(12);
    let (rep_ref, snn_ref) = run_or_resume_pipeline(
        &mut dnn_ref,
        &train,
        &test,
        &pcfg,
        dir_ref.path(),
        &mut rng,
        &mut clean(),
    )
    .unwrap();

    let dir = test_dir("poisoned_resume");
    let mut bad = dnn0.clone();
    bad.visit_params_mut(|p| p.value.data_mut()[0] = f32::NAN);
    let ckpt = PipelineCheckpoint {
        dnn: bad,
        snn: None,
        best_snn: None,
        best_acc: 0.0,
        dnn_accuracy: 0.0,
        converted_accuracy: 0.0,
        scalings: Vec::new(),
        lr_backoff: 1.0,
        retries_used: 0,
        last_loss: -1.0,
        dnn_seconds: 0.0,
        snn_seconds: 0.0,
        events: Vec::new(),
    };
    let meta = CheckpointMeta {
        phase: "dnn-train".to_string(),
        epoch: 1,
        rng_state: [1, 2, 3, 4],
    };
    // Named to sort after every commit of the run, so pruning by name
    // alone would keep it and delete the run's own newest commits.
    let poisoned = dir.path().join("ckpt-1-99999.json");
    ull_nn::save_with_meta(&ckpt, &meta, &poisoned).unwrap();

    let reg = ull_obs::Registry::new();
    let mut dnn = dnn0.clone();
    let mut rng = seeded_rng(12);
    let (rep, snn) = ull_obs::with_registry(&reg, || {
        run_or_resume_pipeline(
            &mut dnn,
            &train,
            &test,
            &pcfg,
            dir.path(),
            &mut rng,
            &mut clean(),
        )
    })
    .unwrap();
    assert_eq!(resumes(&reg), 0, "a poisoned checkpoint must not resume");
    assert_eq!(rep_ref.snn_accuracy.to_bits(), rep.snn_accuracy.to_bits());
    assert_eq!(dnn_bits(&dnn_ref), dnn_bits(&dnn));
    assert_eq!(snn_bits(&snn_ref), snn_bits(&snn));
    let files = checkpoint_files(dir.path());
    assert_eq!(files.len(), 3, "{files:?}");
    assert!(!files.contains(&poisoned), "{files:?}");
}

#[test]
fn run_or_resume_starts_fresh_then_resumes() {
    let (train, test, dnn0, pcfg) = fixture();

    let dir = test_dir("run_or_resume");
    // Empty directory: starts fresh.
    let mut dnn = dnn0.clone();
    let mut rng = seeded_rng(12);
    let mut plan = FaultPlan::none().with(PipelinePhase::Sgl, 0, FaultKind::CrashBeforeCommit);
    let err = run_or_resume_pipeline(
        &mut dnn,
        &train,
        &test,
        &pcfg,
        dir.path(),
        &mut rng,
        &mut plan,
    )
    .unwrap_err();
    assert!(matches!(err, PipelineError::SimulatedCrash { .. }));

    // Now the directory has checkpoints: run_or_resume must pick them up
    // (the stale network/RNG below would otherwise change the result).
    let reg = ull_obs::Registry::new();
    let mut dnn = models::vgg_micro(4, 8, 0.5, 31);
    let mut rng = seeded_rng(31);
    let (rep, _snn) = ull_obs::with_registry(&reg, || {
        run_or_resume_pipeline(
            &mut dnn,
            &train,
            &test,
            &pcfg,
            dir.path(),
            &mut rng,
            &mut clean(),
        )
    })
    .unwrap();
    assert_eq!(resumes(&reg), 1);

    // Same as an uninterrupted reference run.
    let mut dnn_ref = dnn0.clone();
    let mut rng = seeded_rng(12);
    let (rep_ref, _) = run_pipeline(&mut dnn_ref, &train, &test, &pcfg, &mut rng).unwrap();
    assert_eq!(rep_ref.snn_accuracy.to_bits(), rep.snn_accuracy.to_bits());
}
