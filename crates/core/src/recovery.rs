//! The one driver of the hybrid pipeline, *train DNN → convert → SGL
//! fine-tune*, and its crash-safe, resumable entry point.
//!
//! Every run — [`run_pipeline`](crate::run_pipeline) as much as
//! [`run_or_resume_pipeline`] — goes through the same phase-cursor loop.
//! It *commits* the full run state after every epoch and at each phase
//! boundary: networks with momentum buffers, phase/epoch cursor, accuracy
//! bookkeeping and the RNG. Each commit is kept in memory;
//! [`run_or_resume_pipeline`] also writes it to its checkpoint directory
//! as an atomic, checksummed checkpoint (see [`ull_nn::save_with_meta`])
//! and keeps the newest three. The directory holds one run: a call that
//! finds a valid checkpoint there resumes it, and a call that finds none
//! deletes the rejected files and starts fresh. Because every source of
//! randomness is the persisted [`StdRng`] and every reduction order is
//! fixed, a run that is killed and resumed produces **bit-identical**
//! results to one that was never interrupted.
//!
//! Numeric failures (NaN/Inf loss or gradients, loss explosions) are
//! detected by the checked training loops *before* they can poison the
//! parameters; the driver rolls back to the last commit in memory, halves
//! the learning rate, and retries — up to three times per run, after
//! which it surfaces [`TrainError::Diverged`].
//!
//! The [`FaultPlan`] hooks let tests inject each failure
//! mode at an exact epoch, deterministically.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use ull_data::Dataset;
use ull_nn::{
    evaluate, load_latest, save_with_meta, train_epoch_with_hook, CheckpointError, CheckpointMeta,
    LrSchedule, Network, TrainError, Trainable, CHECKPOINT_EXT,
};
use ull_snn::{evaluate_snn, train_snn_epoch_with_hook, SnnNetwork};

use crate::convert::{convert, ConversionMethod, ConvertError};
use crate::faults::FaultPlan;
use crate::pipeline::{dnn_recipe, sgl_recipe, PipelineConfig, PipelineReport};
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
    fn from_label(label: &str) -> Option<Self> {
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

/// Rollback-and-retry attempts allowed across a whole run before it
/// gives up with [`TrainError::Diverged`].
const MAX_RETRIES: usize = 3;

/// Checkpoint files kept in the directory (oldest pruned first, after
/// each commit): a corrupted newest file still leaves two to fall back on.
const KEEP_LAST: usize = 3;

/// A finite loss larger than `EXPLOSION_FACTOR ×` the previous epoch's
/// loss is treated as a numeric failure (rollback + LR backoff), not just
/// a bad epoch.
const EXPLOSION_FACTOR: f32 = 10.0;

/// One recovery action taken during a run, in `Display`-string form
/// (typed errors like a NaN loss have no faithful JSON representation, so
/// the log keeps human-readable descriptions instead).
pub type RecoveryEvent = String;

/// Errors surfaced by the recoverable pipeline runner.
#[derive(Debug)]
pub enum PipelineError {
    /// DNN→SNN conversion failed.
    Convert(ConvertError),
    /// A checkpoint could not be written, the directory could not be
    /// read, or the newest valid checkpoint does not describe a run.
    Checkpoint(CheckpointError),
    /// Training failed numerically and the retry budget is exhausted
    /// ([`TrainError::Diverged`]).
    Train(TrainError),
    /// A [`FaultPlan`] crash fault fired: the run stopped
    /// as if the process had been killed at that point. Call
    /// [`run_or_resume_pipeline`] on the same directory to continue.
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
#[derive(Clone)]
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

/// The driver's commits: the last committed run state and RNG, which
/// [`Commits::rollback`] restores, and the checkpoint directory each
/// commit is also written to when the run has one.
struct Commits<'a> {
    dir: Option<&'a Path>,
    last: RunState,
    last_rng: StdRng,
}

impl Commits<'_> {
    /// Commits `state`: keeps a copy in memory and, with a directory,
    /// writes it as an atomic checkpoint and prunes the oldest files.
    /// Returns the written file's path.
    fn commit(&mut self, state: &RunState, rng: &StdRng) -> Result<Option<PathBuf>, PipelineError> {
        self.last = state.clone();
        self.last_rng = rng.clone();
        let Some(dir) = self.dir else {
            return Ok(None);
        };
        let meta = CheckpointMeta {
            phase: state.phase.as_str().to_string(),
            epoch: state.epoch,
            rng_state: rng.state(),
        };
        let path = dir.join(checkpoint_name(state.phase, state.epoch));
        save_with_meta(&state.ckpt, &meta, &path)?;
        prune(dir, KEEP_LAST);
        Ok(Some(path))
    }

    /// Rolls the run back to the last commit after a numeric failure,
    /// halving the LR backoff and consuming one retry.
    fn rollback(
        &self,
        state: &mut RunState,
        rng: &mut StdRng,
        reason: String,
    ) -> Result<(), PipelineError> {
        ull_obs::counter_add("recovery.rollbacks", 1);
        let retries = state.ckpt.retries_used + 1;
        if retries > MAX_RETRIES {
            return Err(PipelineError::Train(TrainError::Diverged {
                phase: state.phase.as_str().to_string(),
                epoch: state.epoch,
                retries: MAX_RETRIES,
            }));
        }
        let backoff = state.ckpt.lr_backoff * 0.5;
        let mut events = std::mem::take(&mut state.ckpt.events);
        events.push(format!(
            "rollback #{retries}: {reason}; restored the last commit (phase {}, epoch {}), lr backoff -> {backoff}",
            self.last.phase, self.last.epoch,
        ));
        *state = self.last.clone();
        *rng = self.last_rng.clone();
        state.ckpt.retries_used = retries;
        state.ckpt.lr_backoff = backoff;
        state.ckpt.events = events;
        Ok(())
    }
}

/// Best-effort deletion of every checkpoint but the `keep` newest (a
/// failed unlink must not kill a healthy training run).
fn prune(dir: &Path, keep: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut names: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == CHECKPOINT_EXT).unwrap_or(false))
        .collect();
    names.sort();
    names.reverse(); // newest first
    for old in names.iter().skip(keep) {
        let _ = fs::remove_file(old);
    }
}

/// Restores the run cursor and RNG from a loaded checkpoint.
fn restore(
    ckpt: PipelineCheckpoint,
    meta: &CheckpointMeta,
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
    if phase == PipelinePhase::Sgl && (ckpt.snn.is_none() || ckpt.best_snn.is_none()) {
        return Err(PipelineError::Checkpoint(CheckpointError::BadPayload {
            reason: "SGL-phase checkpoint is missing an SNN".to_string(),
        }));
    }
    *rng = StdRng::from_state(meta.rng_state);
    Ok(RunState {
        phase,
        epoch: meta.epoch,
        ckpt,
    })
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
fn corrupt_file(path: &Path) -> io::Result<()> {
    let mut bytes = fs::read(path)?;
    if !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
    }
    fs::write(path, bytes)
}

/// A fresh run that commits to memory only: the body of
/// [`run_pipeline`](crate::run_pipeline).
pub(crate) fn run_in_memory(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    rng: &mut StdRng,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    let state = RunState::fresh(dnn);
    let plan = &mut FaultPlan::none();
    drive(dnn, train_data, test_data, cfg, None, rng, plan, state)
}

/// Runs the pipeline crash-safely, writing every commit to
/// `checkpoint_dir` (created if missing) as an atomic checkpoint.
///
/// If the directory holds a valid checkpoint, the run resumes from the
/// newest one: `dnn` and `rng` are overwritten from it, never read, and
/// the completed run is bit-identical to one that was never interrupted.
/// Otherwise the rejected checkpoint files are deleted and the run starts
/// fresh from `dnn` and `rng`, bit-identical to
/// [`run_pipeline`](crate::run_pipeline) with the same seed on the
/// healthy path. `plan` injects faults; pass [`FaultPlan::none`] outside
/// tests.
///
/// # Errors
///
/// See [`PipelineError`]; crash faults surface as
/// [`PipelineError::SimulatedCrash`].
pub fn run_or_resume_pipeline(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    checkpoint_dir: &Path,
    rng: &mut StdRng,
    plan: &mut FaultPlan,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    fs::create_dir_all(checkpoint_dir).map_err(CheckpointError::Io)?;
    let state = match load_latest::<PipelineCheckpoint>(checkpoint_dir) {
        Ok((ckpt, meta, _path)) => {
            let state = restore(ckpt, &meta, rng)?;
            ull_obs::counter_add("recovery.resumes", 1);
            state
        }
        Err(CheckpointError::NoValidCheckpoint { .. }) => {
            // Only this run's commits may remain, or `prune` would keep a
            // rejected file that sorts after them and delete theirs.
            prune(checkpoint_dir, 0);
            RunState::fresh(dnn)
        }
        Err(e) => return Err(e.into()),
    };
    let dir = Some(checkpoint_dir);
    drive(dnn, train_data, test_data, cfg, dir, rng, plan, state)
}

/// The phase-cursor drive loop shared by every run, fresh or resumed,
/// with a checkpoint directory (`dir`) or without. `state` counts as
/// committed: a resumed run starts from its checkpoint.
#[allow(clippy::too_many_arguments)]
fn drive(
    dnn: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    cfg: &PipelineConfig,
    dir: Option<&Path>,
    rng: &mut StdRng,
    plan: &mut FaultPlan,
    mut state: RunState,
) -> Result<(PipelineReport, SnnNetwork), PipelineError> {
    let mut commits = Commits {
        dir,
        last: state.clone(),
        last_rng: rng.clone(),
    };
    // ---- Phase (a): DNN training -------------------------------------
    if state.phase == PipelinePhase::DnnTrain {
        let phase_span = ull_obs::span("pipeline.train_dnn");
        // Base checkpoint so a crash before the first epoch's commit
        // still leaves a run to resume.
        if state.epoch == 0 {
            commits.commit(&state, rng)?;
        }
        let (sgd, schedule, tcfg) = dnn_recipe(cfg.dnn_epochs);
        let phase = Phase {
            epochs: cfg.dnn_epochs,
            schedule,
            train: |ckpt: &mut PipelineCheckpoint,
                    lr,
                    rng: &mut StdRng,
                    hook: Hook<'_, Network>| {
                let net = &mut ckpt.dnn;
                let stats = train_epoch_with_hook(net, train_data, &sgd, lr, &tcfg, rng, hook)?;
                ckpt.dnn_seconds += stats.seconds;
                Ok(stats.loss)
            },
        };
        train_phase(&mut state, &mut commits, rng, plan, phase)?;
        drop(phase_span);

        // ---- Phase (b): conversion (deterministic, no RNG) -----------
        let phase_span = ull_obs::span("pipeline.convert");
        let batch = tcfg.batch_size;
        state.ckpt.dnn_accuracy = evaluate(&state.ckpt.dnn, test_data, batch);
        let method = ConversionMethod::AlphaBeta;
        let (snn, scalings) = convert(&state.ckpt.dnn, train_data, method, cfg.time_steps)?;
        let (converted_accuracy, _) = evaluate_snn(&snn, test_data, cfg.time_steps, batch);
        state.ckpt.converted_accuracy = converted_accuracy;
        state.ckpt.best_acc = converted_accuracy;
        state.ckpt.best_snn = Some(snn.clone());
        state.ckpt.snn = Some(snn);
        state.ckpt.scalings = scalings;
        state.ckpt.last_loss = -1.0;
        state.phase = PipelinePhase::Sgl;
        state.epoch = 0;
        // Commit the phase transition so a crash or rollback during SGL
        // never redoes DNN training or conversion.
        commits.commit(&state, rng)?;
        drop(phase_span);
    }

    // ---- Phase (c): SGL fine-tuning ----------------------------------
    let phase_span = ull_obs::span("pipeline.finetune_snn");
    let (sgd, schedule, stcfg) = sgl_recipe(cfg.snn_epochs, cfg.time_steps);
    let phase = Phase {
        epochs: cfg.snn_epochs,
        schedule,
        // Train, then evaluate the epoch's SNN and keep the best.
        train: |ckpt: &mut PipelineCheckpoint, lr, rng: &mut StdRng, hook: Hook<'_, SnnNetwork>| {
            let net = ckpt.snn.as_mut().expect(HAS_SNN);
            let stats = train_snn_epoch_with_hook(net, train_data, &sgd, lr, &stcfg, rng, hook)?;
            let (acc, _) = evaluate_snn(net, test_data, cfg.time_steps, stcfg.batch_size);
            if acc > ckpt.best_acc {
                ckpt.best_acc = acc;
                ckpt.best_snn = Some(net.clone());
            }
            ckpt.snn_seconds += stats.seconds;
            Ok(stats.loss)
        },
    };
    train_phase(&mut state, &mut commits, rng, plan, phase)?;
    drop(phase_span);

    let ckpt = state.ckpt;
    *dnn = ckpt.dnn;
    Ok((
        PipelineReport {
            dnn_accuracy: ckpt.dnn_accuracy,
            converted_accuracy: ckpt.converted_accuracy,
            snn_accuracy: ckpt.best_acc,
            scalings: ckpt.scalings,
            dnn_seconds: ckpt.dnn_seconds,
            snn_seconds: ckpt.snn_seconds,
            time_steps: cfg.time_steps,
            recovery_events: ckpt.events,
            metrics: ull_obs::enabled().then(ull_obs::snapshot),
        },
        ckpt.best_snn.expect(HAS_SNN),
    ))
}

/// The SGL phase always has an SNN and a best SNN: conversion sets both,
/// and [`restore`] rejects an SGL checkpoint without them.
const HAS_SNN: &str = "SGL phase always has an SNN (checked on restore)";

/// A per-batch fault hook, as the `_with_hook` training epochs take it.
type Hook<'a, N> = &'a mut dyn FnMut(&mut N, usize);

/// What distinguishes one trained phase from the other for
/// [`train_phase`].
struct Phase<Train> {
    /// Epochs in the phase.
    epochs: usize,
    /// LR schedule (before the rollback backoff).
    schedule: LrSchedule,
    /// One checked epoch at an LR factor on the phase's network in the
    /// run state, plus its bookkeeping; returns the epoch's loss.
    train: Train,
}

/// The epoch-with-rollback loop of one trained phase: each epoch trains
/// the phase's network in the run state. A numeric failure or a loss
/// explosion rolls the run back to the last commit; every healthy epoch is
/// committed, and the plan's crash and corrupt faults fire at the commit.
fn train_phase<N, Train>(
    state: &mut RunState,
    commits: &mut Commits<'_>,
    rng: &mut StdRng,
    plan: &mut FaultPlan,
    mut phase: Phase<Train>,
) -> Result<(), PipelineError>
where
    N: Trainable,
    Train: FnMut(&mut PipelineCheckpoint, f32, &mut StdRng, Hook<'_, N>) -> Result<f32, TrainError>,
{
    let label = state.phase;
    while state.epoch < phase.epochs {
        let e = state.epoch;
        let lr = phase.schedule.factor(e) * state.ckpt.lr_backoff;
        let nan_batch = plan.take_nan(label, e);
        let last_loss = state.ckpt.last_loss;
        let mut hook = |n: &mut N, b: usize| {
            if Some(b) == nan_batch {
                poison_first_grad(n);
            }
        };
        match (phase.train)(&mut state.ckpt, lr, rng, &mut hook) {
            Ok(loss) if last_loss > 0.0 && loss > EXPLOSION_FACTOR * last_loss => {
                let reason = format!(
                    "{label} epoch {e}: loss exploded ({loss} > {EXPLOSION_FACTOR} x {last_loss})"
                );
                commits.rollback(state, rng, reason)?;
            }
            Ok(loss) => {
                state.ckpt.last_loss = loss;
                state.epoch = e + 1;
                let crash = PipelineError::SimulatedCrash {
                    phase: label,
                    epoch: e,
                };
                if plan.take_crash(label, e) {
                    return Err(crash);
                }
                let path = commits.commit(state, rng)?;
                if plan.take_corrupt(label, e) {
                    if let Some(path) = path {
                        corrupt_file(&path).map_err(CheckpointError::Io)?;
                    }
                    return Err(crash);
                }
            }
            Err(err) => commits.rollback(state, rng, format!("{label}: {err}"))?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::models;
    use ull_tensor::init::seeded_rng;

    use crate::FaultKind;

    /// Rollback restores the last commit from memory, so writing commits
    /// to a directory changes nothing the run computes: under the same NaN
    /// faults, both drivers end with the same bits and the same events.
    #[test]
    fn directory_backed_and_in_memory_drivers_agree_under_nan_faults() {
        let data_cfg = SynthCifarConfig::tiny(4);
        let (train, test) = generate(&data_cfg);
        let dnn0 = models::vgg_micro(4, data_cfg.image_size, 0.5, 11);
        let mut cfg = PipelineConfig::small(2);
        cfg.dnn_epochs = 6;
        cfg.snn_epochs = 3;
        let dir = std::env::temp_dir()
            .join("ull_core_recovery_unit")
            .join(format!("drivers-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let run = |dir: Option<&Path>| {
            let mut dnn = dnn0.clone();
            let mut rng = seeded_rng(12);
            let mut plan = FaultPlan::none()
                .with(
                    PipelinePhase::DnnTrain,
                    1,
                    FaultKind::NanGradient { batch: 0 },
                )
                .with(PipelinePhase::Sgl, 1, FaultKind::NanGradient { batch: 1 });
            let state = RunState::fresh(&dnn);
            let (rep, snn) = drive(
                &mut dnn, &train, &test, &cfg, dir, &mut rng, &mut plan, state,
            )
            .expect("the driver must recover from injected NaNs");
            assert_eq!(plan.pending(), 0, "both faults must have fired");
            (
                serde_json::to_string(&dnn).unwrap(),
                serde_json::to_string(&snn).unwrap(),
                [rep.dnn_accuracy, rep.converted_accuracy, rep.snn_accuracy].map(f32::to_bits),
                rep.recovery_events,
            )
        };
        let in_memory = run(None);
        let on_disk = run(Some(&dir));
        let written = fs::read_dir(&dir).unwrap().count();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(in_memory.3.len(), 2, "{:?}", in_memory.3);
        assert!(
            written > 0,
            "the directory-backed driver wrote no checkpoint"
        );
        assert_eq!(in_memory, on_disk);
    }
}
