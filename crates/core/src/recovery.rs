//! Crash-safe, resumable execution of the hybrid pipeline.
//!
//! [`run_pipeline_recoverable`] runs the same *train DNN → convert → SGL
//! fine-tune* pipeline as [`run_pipeline`](crate::run_pipeline), but commits
//! an atomic, checksummed checkpoint (see [`ull_nn::save_with_meta`]) every
//! `every_n_epochs` epochs, carrying the full run state: networks with
//! momentum buffers, phase/epoch cursor, accuracy bookkeeping and the raw
//! RNG state. Because every source of randomness is the persisted
//! [`StdRng`] and every reduction order is fixed, a run that is killed and
//! resumed with [`resume_pipeline`] produces **bit-identical** results to
//! one that was never interrupted.
//!
//! Numeric failures (NaN/Inf loss or gradients, loss explosions) are
//! detected by the checked training loops *before* they can poison the
//! parameters; the runner rolls back to the last good checkpoint, halves
//! the learning rate, and retries — up to
//! [`RecoveryConfig::max_retries`] times, after which it surfaces
//! [`TrainError::Diverged`].
//!
//! The [`FaultPlan`](crate::FaultPlan) hooks let tests inject each failure
//! mode at an exact epoch, deterministically.

use std::fmt;
use std::fs;
use std::io;
use std::path::PathBuf;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_nn::{
    evaluate, load_latest, save_with_meta, train_epoch_with_hook, CheckpointError, CheckpointMeta,
    LrSchedule, Network, TrainError, Trainable, CHECKPOINT_EXT,
};
use ull_snn::{evaluate_snn, train_snn_epoch_with_hook, SnnNetwork};

use crate::convert::{convert, ConvertError};
use crate::faults::FaultPlan;
use crate::pipeline::{PipelineConfig, PipelineReport};
use crate::LayerScaling;

/// The two trained phases of the pipeline (conversion is a single
/// deterministic step committed together with the SGL phase start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelinePhase {
    /// Phase (a): source DNN training.
    DnnTrain,
    /// Phase (c): surrogate-gradient fine-tuning of the converted SNN.
    Sgl,
}

impl PipelinePhase {
    /// Stable label stored in checkpoint metadata.
    pub fn as_str(self) -> &'static str {
        match self {
            PipelinePhase::DnnTrain => "dnn-train",
            PipelinePhase::Sgl => "sgl",
        }
    }

    /// Ordinal used in checkpoint file names so lexicographic order is
    /// chronological order.
    pub fn index(self) -> usize {
        match self {
            PipelinePhase::DnnTrain => 0,
            PipelinePhase::Sgl => 1,
        }
    }

    /// Inverse of [`PipelinePhase::as_str`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "dnn-train" => Some(PipelinePhase::DnnTrain),
            "sgl" => Some(PipelinePhase::Sgl),
            _ => None,
        }
    }
}

impl fmt::Display for PipelinePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Checkpointing and retry policy of the recoverable runner.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Directory for checkpoint files (created if missing).
    pub checkpoint_dir: PathBuf,
    /// Commit a checkpoint every N successful epochs (also always at each
    /// phase start and phase end). Must be ≥ 1.
    pub every_n_epochs: usize,
    /// Numeric-failure budget: total rollback-and-retry attempts allowed
    /// across the whole run before giving up with
    /// [`TrainError::Diverged`].
    pub max_retries: usize,
    /// Keep at most this many checkpoint files (oldest pruned first, after
    /// each successful commit). Must be ≥ 1; 2+ is recommended so a
    /// corrupted newest file still leaves a fallback.
    pub keep_last: usize,
    /// A finite loss larger than `explosion_factor ×` the previous epoch's
    /// loss is treated as a numeric failure (rollback + LR backoff), not
    /// just a bad epoch.
    pub explosion_factor: f32,
}

impl RecoveryConfig {
    /// Sensible defaults: checkpoint every epoch, 3 retries, keep 3 files,
    /// 10× loss-explosion threshold.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> Self {
        RecoveryConfig {
            checkpoint_dir: checkpoint_dir.into(),
            every_n_epochs: 1,
            max_retries: 3,
            keep_last: 3,
            explosion_factor: 10.0,
        }
    }
}

/// One recovery action taken during a run, in `Display`-string form
/// (typed errors like a NaN loss have no faithful JSON representation, so
/// the log keeps human-readable descriptions instead).
pub type RecoveryEvent = String;

/// Errors surfaced by the recoverable pipeline runner.
#[derive(Debug)]
pub enum PipelineError {
    /// DNN→SNN conversion failed.
    Convert(ConvertError),
    /// A checkpoint could not be written, or no valid checkpoint was found
    /// when one was required (resume, rollback).
    Checkpoint(CheckpointError),
    /// Training failed numerically and the retry budget is exhausted
    /// ([`TrainError::Diverged`]).
    Train(TrainError),
    /// A [`FaultPlan`](crate::FaultPlan) crash fault fired: the run stopped
    /// as if the process had been killed at that point. Resume with
    /// [`resume_pipeline`] to continue.
    SimulatedCrash {
        /// Phase in which the simulated crash fired.
        phase: PipelinePhase,
        /// Epoch (0-based, within the phase) at which it fired.
        epoch: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Convert(e) => write!(f, "conversion failed: {e}"),
            PipelineError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            PipelineError::Train(e) => write!(f, "training failure: {e}"),
            PipelineError::SimulatedCrash { phase, epoch } => {
                write!(f, "simulated crash in phase {phase} at epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Convert(e) => Some(e),
            PipelineError::Checkpoint(e) => Some(e),
            PipelineError::Train(e) => Some(e),
            PipelineError::SimulatedCrash { .. } => None,
        }
    }
}

impl From<ConvertError> for PipelineError {
    fn from(e: ConvertError) -> Self {
        PipelineError::Convert(e)
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// The complete persisted state of a recoverable run — everything beyond
/// the envelope metadata (phase, epoch, RNG state) needed to continue
/// bit-identically: networks *with their momentum buffers*, accuracy
/// bookkeeping, retry counters and the recovery log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineCheckpoint {
    /// Source DNN (training state included via `Param`).
    pub dnn: Network,
    /// Current SNN during SGL (absent while still in DNN training).
    pub snn: Option<SnnNetwork>,
    /// Best-so-far SNN by test accuracy.
    pub best_snn: Option<SnnNetwork>,
    /// Best-so-far SNN test accuracy.
    pub best_acc: f32,
    /// Phase (a) result, once known.
    pub dnn_accuracy: f32,
    /// Phase (b) result, once known.
    pub converted_accuracy: f32,
    /// Per-layer conversion scalings, once known.
    pub scalings: Vec<LayerScaling>,
    /// Multiplier on the LR schedule, halved on each numeric rollback.
    pub lr_backoff: f32,
    /// Rollback-and-retry attempts consumed so far.
    pub retries_used: usize,
    /// Previous epoch's training loss (negative when unknown) — baseline
    /// for the loss-explosion check.
    pub last_loss: f32,
    /// Accumulated wall-clock seconds of DNN training.
    pub dnn_seconds: f64,
    /// Accumulated wall-clock seconds of SGL fine-tuning.
    pub snn_seconds: f64,
    /// Recovery log so far (survives crashes).
    #[serde(default)]
    pub events: Vec<RecoveryEvent>,
}

impl ull_nn::ValidatePayload for PipelineCheckpoint {
    fn validate_payload(&self) -> Result<(), String> {
        self.dnn
            .validate_payload()
            .map_err(|e| format!("dnn: {e}"))?;
        if let Some(snn) = &self.snn {
            snn.validate_payload().map_err(|e| format!("snn: {e}"))?;
        }
        if let Some(snn) = &self.best_snn {
            snn.validate_payload()
                .map_err(|e| format!("best_snn: {e}"))?;
        }
        for (name, v) in [
            ("best_acc", self.best_acc),
            ("dnn_accuracy", self.dnn_accuracy),
            ("converted_accuracy", self.converted_accuracy),
            ("lr_backoff", self.lr_backoff),
            ("last_loss", self.last_loss),
        ] {
            if !v.is_finite() {
                return Err(format!("{name} is non-finite ({v})"));
            }
        }
        Ok(())
    }
}

/// In-memory run cursor: the checkpoint payload plus the phase/epoch
/// cursor that lives in the envelope metadata.
struct RunState {
    phase: PipelinePhase,
    epoch: usize,
    ckpt: PipelineCheckpoint,
}

impl RunState {
    fn fresh(dnn: &Network) -> Self {
        RunState {
            phase: PipelinePhase::DnnTrain,
            epoch: 0,
            ckpt: PipelineCheckpoint {
                dnn: dnn.clone(),
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
            },
        }
    }
}

/// Checkpoint file name: zero-padded phase ordinal and epoch so that
/// lexicographic order equals chronological order (the contract
/// [`ull_nn::load_latest`] relies on).
fn checkpoint_name(phase: PipelinePhase, epoch: usize) -> String {
    format!("ckpt-{}-{:05}.{}", phase.index(), epoch, CHECKPOINT_EXT)
}

fn commit(state: &RunState, rcfg: &RecoveryConfig, rng: &StdRng) -> Result<PathBuf, PipelineError> {
    let meta = CheckpointMeta {
        phase: state.phase.as_str().to_string(),
        epoch: state.epoch,
        rng_state: rng.state(),
    };
    let path = rcfg
        .checkpoint_dir
        .join(checkpoint_name(state.phase, state.epoch));
    save_with_meta(&state.ckpt, &meta, &path)?;
    prune(rcfg);
    Ok(path)
}

/// Best-effort pruning of checkpoints beyond `keep_last` (a failed unlink
/// must not kill a healthy training run).
fn prune(rcfg: &RecoveryConfig) {
    let Ok(entries) = fs::read_dir(&rcfg.checkpoint_dir) else {
        return;
    };
    let mut names: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == CHECKPOINT_EXT).unwrap_or(false))
        .collect();
    names.sort();
    names.reverse(); // newest first
    for old in names.iter().skip(rcfg.keep_last.max(1)) {
        let _ = fs::remove_file(old);
    }
}

/// Restores the run cursor and RNG from a loaded checkpoint.
fn restore(
    ckpt: PipelineCheckpoint,
    meta: &CheckpointMeta,
    dnn: &mut Network,
    rng: &mut StdRng,
) -> Result<RunState, PipelineError> {
    let phase = PipelinePhase::from_label(&meta.phase).ok_or_else(|| {
        PipelineError::Checkpoint(CheckpointError::BadPayload {
            reason: format!("unknown pipeline phase label `{}`", meta.phase),
        })
    })?;
    if meta.rng_state.iter().all(|&w| w == 0) {
        return Err(PipelineError::Checkpoint(CheckpointError::BadPayload {
            reason: "checkpoint carries no RNG state (all zeros)".to_string(),
        }));
    }
    if phase == PipelinePhase::Sgl && ckpt.snn.is_none() {
        return Err(PipelineError::Checkpoint(CheckpointError::BadPayload {
            reason: "SGL-phase checkpoint is missing the SNN".to_string(),
        }));
    }
    *dnn = ckpt.dnn.clone();
    *rng = StdRng::from_state(meta.rng_state);
    Ok(RunState {
        phase,
        epoch: meta.epoch,
        ckpt,
    })
}

/// Rolls the run back to the last good checkpoint after a numeric failure,
/// halving the LR backoff and consuming one retry.
fn rollback(
    state: &mut RunState,
    dnn: &mut Network,
    rcfg: &RecoveryConfig,
    rng: &mut StdRng,
    reason: String,
) -> Result<(), PipelineError> {
    ull_obs::counter_add("recovery.rollbacks", 1);
    let retries = state.ckpt.retries_used + 1;
    if retries > rcfg.max_retries {
        return Err(PipelineError::Train(TrainError::Diverged {
            phase: state.phase.as_str().to_string(),
            epoch: state.epoch,
            retries: rcfg.max_retries,
        }));
    }
    let (ckpt, meta, path) = load_latest::<PipelineCheckpoint>(&rcfg.checkpoint_dir)?;
    let backoff = state.ckpt.lr_backoff * 0.5;
    let mut events = std::mem::take(&mut state.ckpt.events);
    events.push(format!(
        "rollback #{retries}: {reason}; restored {} (phase {}, epoch {}), lr backoff -> {backoff}",
        path.display(),
        meta.phase,
        meta.epoch,
    ));
    *state = restore(ckpt, &meta, dnn, rng)?;
    state.ckpt.retries_used = retries;
    state.ckpt.lr_backoff = backoff;
    state.ckpt.events = events;
    Ok(())
}

/// Poisons the first gradient element of the first parameter with NaN —
/// the payload of [`FaultKind::NanGradient`](crate::FaultKind::NanGradient).
fn poison_first_grad<N: Trainable>(net: &mut N) {
    let mut first = true;
    net.visit_params_mut(|p| {
        if first && !p.grad.data().is_empty() {
            p.grad.data_mut()[0] = f32::NAN;
            first = false;
        }
    });
}

/// Flips one byte in the middle of `path` in place (non-atomically, on
/// purpose) — the payload of
/// [`FaultKind::CorruptCheckpoint`](crate::FaultKind::CorruptCheckpoint).
fn corrupt_file(path: &PathBuf) -> io::Result<()> {
    let mut bytes = fs::read(path)?;
    if !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
    }
    fs::write(path, bytes)
}

/// Runs the full pipeline crash-safely from scratch: like
/// [`run_pipeline`](crate::run_pipeline), plus atomic checkpoints, numeric
/// rollback-and-retry, and a recovery log in the report. On the healthy
/// path the result is bit-identical to [`run_pipeline`](crate::run_pipeline)
/// with the same seed.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn run_pipeline_recoverable(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    rcfg: &RecoveryConfig,
    rng: &mut StdRng,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    run_pipeline_recoverable_with_faults(
        dnn,
        train_data,
        test_data,
        cfg,
        rcfg,
        rng,
        &mut FaultPlan::none(),
    )
}

/// [`run_pipeline_recoverable`] with a deterministic [`FaultPlan`] — the
/// entry point of the fault-injection harness.
///
/// # Errors
///
/// See [`PipelineError`]; crash faults surface as
/// [`PipelineError::SimulatedCrash`].
#[allow(clippy::too_many_arguments)]
pub fn run_pipeline_recoverable_with_faults(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    rcfg: &RecoveryConfig,
    rng: &mut StdRng,
    plan: &mut FaultPlan,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    fs::create_dir_all(&rcfg.checkpoint_dir).map_err(CheckpointError::Io)?;
    let state = RunState::fresh(dnn);
    drive(dnn, train_data, test_data, cfg, rcfg, rng, plan, state)
}

/// Resumes an interrupted run from the newest valid checkpoint in
/// `rcfg.checkpoint_dir`, overwriting `dnn` and `rng` with the persisted
/// state. The completed run is bit-identical to one that was never
/// interrupted.
///
/// # Errors
///
/// [`CheckpointError::NoValidCheckpoint`] (wrapped) if the directory holds
/// no usable checkpoint; otherwise see [`PipelineError`].
pub fn resume_pipeline(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    rcfg: &RecoveryConfig,
    rng: &mut StdRng,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    resume_pipeline_with_faults(
        dnn,
        train_data,
        test_data,
        cfg,
        rcfg,
        rng,
        &mut FaultPlan::none(),
    )
}

/// [`resume_pipeline`] with a deterministic [`FaultPlan`].
///
/// # Errors
///
/// Same as [`resume_pipeline`].
#[allow(clippy::too_many_arguments)]
pub fn resume_pipeline_with_faults(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    rcfg: &RecoveryConfig,
    rng: &mut StdRng,
    plan: &mut FaultPlan,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    let (ckpt, meta, _path) = load_latest::<PipelineCheckpoint>(&rcfg.checkpoint_dir)?;
    let state = restore(ckpt, &meta, dnn, rng)?;
    ull_obs::counter_add("recovery.resumes", 1);
    drive(dnn, train_data, test_data, cfg, rcfg, rng, plan, state)
}

/// Resumes if `rcfg.checkpoint_dir` holds a valid checkpoint, otherwise
/// starts fresh — what a restarted job wants.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn run_or_resume_pipeline(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    rcfg: &RecoveryConfig,
    rng: &mut StdRng,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    match load_latest::<PipelineCheckpoint>(&rcfg.checkpoint_dir) {
        Ok((ckpt, meta, _path)) => {
            let state = restore(ckpt, &meta, dnn, rng)?;
            ull_obs::counter_add("recovery.resumes", 1);
            drive(
                dnn,
                train_data,
                test_data,
                cfg,
                rcfg,
                rng,
                &mut FaultPlan::none(),
                state,
            )
        }
        Err(_) => run_pipeline_recoverable(dnn, train_data, test_data, cfg, rcfg, rng),
    }
}

/// The phase-cursor drive loop shared by fresh and resumed runs.
#[allow(clippy::too_many_arguments)]
fn drive(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    rcfg: &RecoveryConfig,
    rng: &mut StdRng,
    plan: &mut FaultPlan,
    mut state: RunState,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    // ---- Phase (a): DNN training -------------------------------------
    if state.phase == PipelinePhase::DnnTrain {
        let phase_span = ull_obs::span("pipeline.train_dnn");
        // Base checkpoint so even an epoch-0 failure has a rollback target.
        if state.epoch == 0 {
            commit(&state, rcfg, rng)?;
        }
        let (sgd, schedule, tcfg) = cfg.dnn_recipe();
        let phase = Phase {
            epochs: cfg.dnn_epochs,
            schedule,
            net: |ckpt: &PipelineCheckpoint| ckpt.dnn.clone(),
            train: |net: &mut Network, lr, rng: &mut StdRng, hook: Hook<'_, Network>| {
                let stats = train_epoch_with_hook(net, train_data, &sgd, lr, &tcfg, rng, hook)?;
                Ok((stats.loss, stats.seconds))
            },
            // Keep the DNN inside `state` in sync with the caller's network.
            keep: |ckpt: &mut PipelineCheckpoint, dnn: &mut Network, net: Network, seconds| {
                ckpt.dnn = net.clone();
                *dnn = net;
                ckpt.dnn_seconds += seconds;
            },
        };
        train_phase(&mut state, dnn, rcfg, rng, plan, phase)?;
        drop(phase_span);

        // ---- Phase (b): conversion (deterministic, no RNG) -----------
        let phase_span = ull_obs::span("pipeline.convert");
        state.ckpt.dnn_accuracy = evaluate(&state.ckpt.dnn, test_data, cfg.batch_size);
        let (snn, scalings) = convert(&state.ckpt.dnn, train_data, cfg.method, cfg.time_steps)?;
        let (converted_accuracy, _) = evaluate_snn(&snn, test_data, cfg.time_steps, cfg.batch_size);
        state.ckpt.converted_accuracy = converted_accuracy;
        state.ckpt.best_acc = converted_accuracy;
        state.ckpt.best_snn = Some(snn.clone());
        state.ckpt.snn = Some(snn);
        state.ckpt.scalings = scalings;
        state.ckpt.last_loss = -1.0;
        state.phase = PipelinePhase::Sgl;
        state.epoch = 0;
        // Commit the phase transition so a crash during SGL never redoes
        // DNN training or conversion.
        commit(&state, rcfg, rng)?;
        drop(phase_span);
    }

    // ---- Phase (c): SGL fine-tuning ----------------------------------
    let phase_span = ull_obs::span("pipeline.finetune_snn");
    let (sgd, schedule, stcfg) = cfg.snn_recipe();
    let phase = Phase {
        epochs: cfg.snn_epochs,
        schedule,
        net: |ckpt: &PipelineCheckpoint| {
            ckpt.snn
                .clone()
                .expect("SGL phase always has an SNN (checked on restore)")
        },
        train: |net: &mut SnnNetwork, lr, rng: &mut StdRng, hook: Hook<'_, SnnNetwork>| {
            let stats = train_snn_epoch_with_hook(net, train_data, &sgd, lr, &stcfg, rng, hook)?;
            Ok((stats.loss, stats.seconds))
        },
        // Evaluate each epoch's SNN and keep the best.
        keep: |ckpt: &mut PipelineCheckpoint, _: &mut Network, net: SnnNetwork, seconds| {
            let (acc, _) = evaluate_snn(&net, test_data, cfg.time_steps, cfg.batch_size);
            if acc > ckpt.best_acc {
                ckpt.best_acc = acc;
                ckpt.best_snn = Some(net.clone());
            }
            ckpt.snn = Some(net);
            ckpt.snn_seconds += seconds;
        },
    };
    train_phase(&mut state, dnn, rcfg, rng, plan, phase)?;
    drop(phase_span);

    *dnn = state.ckpt.dnn.clone();
    let best_snn = state
        .ckpt
        .best_snn
        .clone()
        .expect("SGL phase always has a best SNN (checked on restore)");
    Ok((
        PipelineReport {
            dnn_accuracy: state.ckpt.dnn_accuracy,
            converted_accuracy: state.ckpt.converted_accuracy,
            snn_accuracy: state.ckpt.best_acc,
            scalings: state.ckpt.scalings.clone(),
            dnn_seconds: state.ckpt.dnn_seconds,
            snn_seconds: state.ckpt.snn_seconds,
            time_steps: cfg.time_steps,
            recovery_events: state.ckpt.events.clone(),
            metrics: ull_obs::enabled().then(ull_obs::snapshot),
        },
        best_snn,
    ))
}

/// A per-batch fault hook, as the `_with_hook` training epochs take it.
type Hook<'a, N> = &'a mut dyn FnMut(&mut N, usize);

/// What distinguishes one trained phase from the other for
/// [`train_phase`].
struct Phase<Net, Train, Keep> {
    /// Epochs in the phase.
    epochs: usize,
    /// LR schedule (before the rollback backoff).
    schedule: LrSchedule,
    /// A copy of the phase's network from the checkpoint payload.
    net: Net,
    /// One checked epoch at an LR factor; returns `(loss, seconds)`.
    train: Train,
    /// Stores a healthy epoch's network and wall-clock seconds.
    keep: Keep,
}

/// The epoch-with-rollback loop of one trained phase: each epoch trains a
/// copy of the phase's network. A numeric failure or a loss explosion
/// rolls the run back to the last checkpoint; a healthy epoch is kept and
/// committed every `every_n_epochs` epochs and at the phase end, where the
/// plan's crash and corrupt faults fire.
fn train_phase<N, Net, Train, Keep>(
    state: &mut RunState,
    dnn: &mut Network,
    rcfg: &RecoveryConfig,
    rng: &mut StdRng,
    plan: &mut FaultPlan,
    mut phase: Phase<Net, Train, Keep>,
) -> Result<(), PipelineError>
where
    N: Trainable,
    Net: Fn(&PipelineCheckpoint) -> N,
    Train: FnMut(&mut N, f32, &mut StdRng, Hook<'_, N>) -> Result<(f32, f64), TrainError>,
    Keep: FnMut(&mut PipelineCheckpoint, &mut Network, N, f64),
{
    let every_n = rcfg.every_n_epochs.max(1);
    let label = state.phase;
    while state.epoch < phase.epochs {
        let e = state.epoch;
        let lr = phase.schedule.factor(e) * state.ckpt.lr_backoff;
        let nan_batch = plan.take_nan(label, e);
        let mut net = (phase.net)(&state.ckpt);
        let mut hook = |n: &mut N, b: usize| {
            if Some(b) == nan_batch {
                poison_first_grad(n);
            }
        };
        match (phase.train)(&mut net, lr, rng, &mut hook) {
            Ok((loss, _))
                if state.ckpt.last_loss > 0.0
                    && loss > rcfg.explosion_factor * state.ckpt.last_loss =>
            {
                let reason = format!(
                    "{label} epoch {e}: loss exploded ({loss} > {} x {})",
                    rcfg.explosion_factor, state.ckpt.last_loss
                );
                rollback(state, dnn, rcfg, rng, reason)?;
            }
            Ok((loss, seconds)) => {
                (phase.keep)(&mut state.ckpt, dnn, net, seconds);
                state.ckpt.last_loss = loss;
                state.epoch = e + 1;
                if state.epoch.is_multiple_of(every_n) || state.epoch == phase.epochs {
                    let crash = PipelineError::SimulatedCrash {
                        phase: label,
                        epoch: e,
                    };
                    if plan.take_crash(label, e) {
                        return Err(crash);
                    }
                    let path = commit(state, rcfg, rng)?;
                    if plan.take_corrupt(label, e) {
                        corrupt_file(&path).map_err(CheckpointError::Io)?;
                        return Err(crash);
                    }
                }
            }
            Err(err) => rollback(state, dnn, rcfg, rng, format!("{label}: {err}"))?,
        }
    }
    Ok(())
}
