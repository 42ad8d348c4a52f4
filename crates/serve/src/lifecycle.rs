//! Zero-downtime model lifecycle: validated hot-reload, deterministic
//! shadow canary, and watchdog-driven auto-rollback.
//!
//! A deployer publishes a new model by dropping a PR 2 checkpoint
//! artifact into the model directory and atomically renaming a
//! [`Manifest`](crate::manifest::Manifest) over `manifest.json`. The
//! [`LifecycleManager`], attached to the engine via
//! [`Engine::attach_lifecycle`], then walks the candidate through three
//! phases — all driven by the **batch serial**, never wall-clock, so a
//! given traffic sequence replays the same lifecycle decisions
//! bit-for-bit:
//!
//! 1. **Validation** (at the manifest poll). The artifact is loaded
//!    through `ull_nn::checkpoint::load_with_meta` (checksum + format
//!    version enforced, `SnnNetwork::validate` run on the payload), a
//!    fresh [`RateEnvelope`](ull_robust::RateEnvelope) pair is profiled on the held-out
//!    calibration batches at both fixed-T rungs, and a golden output
//!    fingerprint (FNV-1a over the candidate's calibration logits) is
//!    recorded. Any failure — torn file, wrong checksum, shape-mismatch
//!    panic, non-finite weights — quarantines the version without
//!    touching the incumbent.
//! 2. **Canary** (shadow mode). A deterministic fraction of fixed-T
//!    batches — chosen by [`mix64`] over the batch serial, bit-identical
//!    across `ULL_THREADS` settings and reruns — is *mirrored* to the
//!    candidate. The client always receives the incumbent's answer, so
//!    a bad candidate can never degrade live traffic. Each mirrored
//!    batch contributes a watchdog verdict (against the candidate's own
//!    envelope) and a top-1 agreement fraction against the incumbent's
//!    logits over a sliding window.
//! 3. **Promote or roll back.** K candidate excursions (while the
//!    incumbent stayed healthy) roll the candidate back immediately;
//!    surviving `canary_min_batches` mirrors with windowed agreement at
//!    or above the threshold promotes it: the whole
//!    [`ReplicaModel`] — network, version, envelopes — swaps atomically
//!    behind the replica's `RwLock` (workers keep serving; no reply is
//!    dropped or duplicated), the replica's breaker resets, and the
//!    swapped-in model is verified against the golden fingerprint. A
//!    mismatch (torn swap, corrupted promotion) restores the previous
//!    model on the spot.
//!
//! Rolled-back and validation-failed versions are **quarantined** behind
//! a per-version [`CircuitBreaker`] (threshold 1) reusing the breaker's
//! jittered exponential backoff: the same version is re-considered only
//! after its quarantine elapses, and each repeated failure doubles it.
//!
//! Every transition lands in the engine event log as a
//! [`LifecycleEvent`] and bumps a `serve.lifecycle.*` counter. The
//! counters reconcile (see `Server::reconcile`):
//! `canary_started == promotions + rollbacks + candidate_active`.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use ull_nn::fnv1a;
use ull_robust::profile_envelope_batches;
use ull_snn::SnnNetwork;
use ull_tensor::init::mix64;
use ull_tensor::Tensor;

use crate::breaker::CircuitBreaker;
use crate::config::LifecycleConfig;
use crate::engine::{BatchResult, Engine, ReplicaModel};
use crate::manifest::{read_manifest, ManifestError};
use crate::protocol::RungLabel;

/// Kind of lifecycle state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifecycleTransition {
    /// A candidate passed validation and began its shadow canary.
    CanaryStarted,
    /// The candidate was promoted into the target replica.
    Promoted,
    /// The candidate was discarded (excursions, low agreement, or a
    /// failed post-swap verification that restored the incumbent).
    RolledBack,
    /// A version was quarantined behind its backoff breaker.
    Quarantined,
}

/// One lifecycle transition in the engine event log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LifecycleEvent {
    /// Batch serial at which the transition happened.
    pub seq: u64,
    /// Engine clock at the transition, in milliseconds.
    pub at_ms: u64,
    /// What changed.
    pub transition: LifecycleTransition,
    /// Model version the transition concerns.
    pub version: u64,
    /// Human-readable cause (validation error, agreement value, …).
    pub detail: String,
}

/// A candidate model in its shadow-canary phase.
struct Candidate {
    version: u64,
    /// `Some` until promotion hands the model to the engine.
    model: Option<ReplicaModel>,
    /// FNV-1a over the candidate's calibration logits at `t_full`,
    /// recorded at validation and re-checked after the swap.
    fingerprint: u64,
    /// Mirrored canary batches so far.
    canary_batches: usize,
    /// Candidate excursions while the incumbent stayed healthy.
    excursions: usize,
    /// Sliding window of per-batch top-1 agreement fractions.
    agreement: VecDeque<f64>,
}

struct LifecycleState {
    candidate: Option<Candidate>,
    /// Per-version quarantine breakers (threshold 1): a quarantined
    /// version is re-validated only when its breaker half-opens, and
    /// every repeated failure doubles the backoff.
    quarantine: BTreeMap<u64, CircuitBreaker>,
}

/// Drives validated hot-reload, deterministic canary and auto-rollback
/// for one engine. Attach with [`Engine::attach_lifecycle`]; all entry
/// points are called by the engine itself after each batch.
pub struct LifecycleManager {
    cfg: LifecycleConfig,
    dir: PathBuf,
    /// Held-out calibration batches: envelope profiling, golden
    /// fingerprints and post-swap verification all run on these.
    calibration: Vec<Tensor>,
    state: Mutex<LifecycleState>,
    /// Chaos seam: when armed, the next promotion's fingerprint check is
    /// forced to fail — exercising the restore-the-incumbent path that a
    /// real torn/corrupted swap would take.
    chaos_corrupt_swap: AtomicBool,
}

impl LifecycleManager {
    /// Builds a manager for an enabled lifecycle config.
    ///
    /// # Panics
    ///
    /// Panics if the config is disabled (`model_dir` unset), fails
    /// validation, or `calibration` is empty — all operator errors.
    pub fn new(cfg: LifecycleConfig, calibration: Vec<Tensor>) -> Self {
        let dir = PathBuf::from(
            cfg.model_dir
                .clone()
                .expect("LifecycleManager requires lifecycle.model_dir"),
        );
        let mut problems = Vec::new();
        cfg.validate_into(&mut problems);
        assert!(problems.is_empty(), "invalid LifecycleConfig: {problems:?}");
        assert!(
            !calibration.is_empty(),
            "lifecycle needs at least one calibration batch"
        );
        LifecycleManager {
            cfg,
            dir,
            calibration,
            state: Mutex::new(LifecycleState {
                candidate: None,
                quarantine: BTreeMap::new(),
            }),
            chaos_corrupt_swap: AtomicBool::new(false),
        }
    }

    /// Version of the candidate currently in canary, if any.
    pub fn candidate_version(&self) -> Option<u64> {
        self.lock().candidate.as_ref().map(|c| c.version)
    }

    /// Chaos seam: corrupt the candidate's network mid-canary (the
    /// "model goes bad between validation and promotion" scenario).
    /// Returns `false` if no candidate is active.
    pub fn chaos_swap_candidate_net(&self, net: SnnNetwork) -> bool {
        let mut st = self.lock();
        match st.candidate.as_mut().and_then(|c| c.model.as_mut()) {
            Some(model) => {
                // Warm the replacement's own pack outside the canary's
                // request path.
                net.prepack();
                model.net = net;
                true
            }
            None => false,
        }
    }

    /// Chaos seam: force the next promotion's post-swap fingerprint
    /// verification to fail, driving the restore-incumbent path.
    pub fn chaos_corrupt_next_swap(&self) {
        self.chaos_corrupt_swap.store(true, Ordering::SeqCst);
    }

    /// Whether the batch with this serial is mirrored to the candidate.
    /// A pure function of `(canary_seed, seq)` — bit-identical across
    /// `ULL_THREADS` settings and reruns.
    pub fn is_canary_batch(&self, seq: u64) -> bool {
        if self.cfg.canary_fraction >= 1.0 {
            return true;
        }
        let threshold = (self.cfg.canary_fraction * u64::MAX as f64) as u64;
        mix64(self.cfg.canary_seed, &[seq]) < threshold
    }

    /// Engine hook, called after every executed batch: polls the
    /// manifest on the configured batch cadence, mirrors canary batches
    /// to the candidate, and drives promote/rollback decisions.
    pub(crate) fn after_batch(&self, engine: &Engine, seq: u64, x: &Tensor, result: &BatchResult) {
        let mut st = self.lock();
        if seq.is_multiple_of(self.cfg.poll_every_batches) {
            self.poll(engine, seq, &mut st);
        }
        if st.candidate.is_some() && result.rung != RungLabel::Anytime && self.is_canary_batch(seq)
        {
            self.mirror(engine, seq, x, result, &mut st);
        }
        ull_obs::gauge_set(
            "serve.lifecycle.candidate_active",
            u64::from(st.candidate.is_some()),
        );
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LifecycleState> {
        // A canary mirror that panics (candidate bug) is caught before it
        // can unwind through this lock, but stay robust to poisoning
        // anyway: the state is consistent at every await point.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reads the manifest and, when it names an actionable new version,
    /// validates the artifact and starts its canary.
    fn poll(&self, engine: &Engine, seq: u64, st: &mut LifecycleState) {
        ull_obs::counter_add("serve.lifecycle.polls", 1);
        let manifest = match read_manifest(&self.dir) {
            Ok(m) => m,
            Err(ManifestError::Missing) => return,
            Err(_) => {
                // Torn, malformed or tampered manifest: the incumbent
                // keeps serving, untouched. No quarantine — the *file*
                // is damaged, not a version.
                ull_obs::counter_add("serve.lifecycle.bad_manifest", 1);
                return;
            }
        };
        if st.candidate.is_some() {
            // One candidate at a time; a newer manifest is picked up at
            // the first poll after this canary resolves.
            return;
        }
        if manifest.version <= engine.serving_version(self.cfg.target_replica) {
            return;
        }
        let now = engine.now_ms();
        if let Some(q) = st.quarantine.get_mut(&manifest.version) {
            if !q.allow(now) {
                ull_obs::counter_add("serve.lifecycle.quarantine_held", 1);
                return;
            }
            // Half-open probe: this validation attempt is the probe; a
            // failure below re-trips the breaker with a doubled backoff.
        }
        let path = manifest.artifact_path(&self.dir);
        let (t_full, t_reduced) = (engine.config().t_full, engine.config().t_reduced);
        match self.validate_candidate(&path, manifest.version, t_full, t_reduced) {
            Ok(candidate) => {
                // The version may have been on probation; a successful
                // validation clears its quarantine record.
                if let Some(q) = st.quarantine.get_mut(&manifest.version) {
                    q.record(true, now);
                }
                ull_obs::counter_add("serve.lifecycle.canary_started", 1);
                engine.push_lifecycle_event(LifecycleEvent {
                    seq,
                    at_ms: engine.now_ms(),
                    transition: LifecycleTransition::CanaryStarted,
                    version: candidate.version,
                    detail: format!(
                        "validated {}; canary over {} batches begins",
                        manifest.artifact, self.cfg.canary_min_batches
                    ),
                });
                st.candidate = Some(candidate);
            }
            Err(detail) => {
                ull_obs::counter_add("serve.lifecycle.validation_failed", 1);
                self.quarantine(engine, seq, st, manifest.version, &detail);
            }
        }
    }

    /// Loads and validates one artifact: checkpoint envelope (checksum,
    /// format version, payload validation), a calibration forward pass,
    /// envelope profiling at both fixed-T rungs, and the golden
    /// fingerprint. Returns a typed reason on any failure; panics inside
    /// the candidate (e.g. architecture/shape mismatch against the
    /// calibration batches) are caught and reported, never propagated.
    fn validate_candidate(
        &self,
        path: &std::path::Path,
        version: u64,
        t_full: usize,
        t_reduced: usize,
    ) -> Result<Candidate, String> {
        let (net, _meta) = ull_nn::load_with_meta::<SnnNetwork>(path)
            .map_err(|e| format!("artifact rejected: {e}"))?;
        let calibration = &self.calibration;
        let profiled = catch_unwind(AssertUnwindSafe(|| {
            let envelope_full = profile_envelope_batches(
                &net,
                calibration,
                t_full,
                self.cfg.envelope_rel_margin,
                self.cfg.envelope_abs_margin,
            );
            let envelope_reduced = profile_envelope_batches(
                &net,
                calibration,
                t_reduced,
                self.cfg.envelope_rel_margin,
                self.cfg.envelope_abs_margin,
            );
            let fingerprint = logits_fingerprint(calibration, |b| net.forward(b, t_full).logits);
            (envelope_full, envelope_reduced, fingerprint)
        }));
        let (envelope_full, envelope_reduced, fingerprint) = profiled.map_err(|_| {
            "candidate panicked on calibration batches (architecture mismatch?)".to_string()
        })?;
        Ok(Candidate {
            version,
            model: Some(ReplicaModel {
                net,
                version,
                envelope_full: Some(envelope_full),
                envelope_reduced: Some(envelope_reduced),
            }),
            fingerprint,
            canary_batches: 0,
            excursions: 0,
            agreement: VecDeque::new(),
        })
    }

    /// Mirrors one canary batch to the candidate and drives the
    /// rollback/promotion decision.
    fn mirror(
        &self,
        engine: &Engine,
        seq: u64,
        x: &Tensor,
        result: &BatchResult,
        st: &mut LifecycleState,
    ) {
        ull_obs::counter_add("serve.lifecycle.canary_batches", 1);
        let cand = st.candidate.as_mut().expect("caller checked candidate");
        let t = match result.rung {
            RungLabel::Full => engine.config().t_full,
            RungLabel::Reduced => engine.config().t_reduced,
            RungLabel::Anytime => unreachable!("anytime batches are not canaried"),
        };
        let model = cand.model.as_ref().expect("model present during canary");
        let run = catch_unwind(AssertUnwindSafe(|| {
            let out = model.net.forward(x, t);
            let envelope = match result.rung {
                RungLabel::Full => &model.envelope_full,
                _ => &model.envelope_reduced,
            };
            let healthy = match envelope {
                Some(env) => env.check(&out.stats.report()).is_empty(),
                None => true,
            };
            (out.logits, healthy)
        }));
        cand.canary_batches += 1;
        match run {
            Err(_) => {
                // A panicking candidate is the strongest possible
                // excursion, whatever the incumbent's verdict.
                cand.excursions += 1;
                cand.agreement.push_back(0.0);
                ull_obs::counter_add("serve.lifecycle.excursions", 1);
            }
            Ok((logits, cand_healthy)) => {
                if !cand_healthy && result.healthy {
                    // The candidate left its envelope on a batch the
                    // incumbent handled cleanly: that's on the candidate.
                    cand.excursions += 1;
                    ull_obs::counter_add("serve.lifecycle.excursions", 1);
                }
                cand.agreement
                    .push_back(top1_agreement(&logits, &result.logits));
            }
        }
        while cand.agreement.len() > self.cfg.canary_window {
            cand.agreement.pop_front();
        }
        // End the `cand` borrow before the promote/rollback paths, which
        // need the whole state again.
        let version = cand.version;
        let excursions = cand.excursions;
        let canary_batches = cand.canary_batches;
        let agreement = cand.agreement.iter().sum::<f64>() / cand.agreement.len().max(1) as f64;

        if excursions >= self.cfg.excursion_limit {
            let detail = format!(
                "{excursions} excursions within {canary_batches} canary batches (limit {})",
                self.cfg.excursion_limit
            );
            self.rollback(engine, seq, st, version, &detail);
        } else if canary_batches >= self.cfg.canary_min_batches {
            if agreement >= self.cfg.agreement_threshold {
                self.promote(engine, seq, st, agreement);
            } else {
                let detail = format!(
                    "windowed top-1 agreement {agreement:.4} below threshold {}",
                    self.cfg.agreement_threshold
                );
                self.rollback(engine, seq, st, version, &detail);
            }
        }
    }

    /// Swaps the candidate into the target replica, verifies the swap
    /// against the golden fingerprint, and restores the incumbent if the
    /// verification fails.
    fn promote(&self, engine: &Engine, seq: u64, st: &mut LifecycleState, agreement: f64) {
        let mut cand = st.candidate.take().expect("caller checked candidate");
        let model = cand.model.take().expect("model present at promotion");
        let expected = if self.chaos_corrupt_swap.swap(false, Ordering::SeqCst) {
            // Armed chaos: pretend the validated weights and the swapped
            // weights disagree, as a torn or corrupted swap would.
            !cand.fingerprint
        } else {
            cand.fingerprint
        };
        let replica = self.cfg.target_replica;
        let previous = engine.swap_model(replica, model);
        let t_full = engine.config().t_full;
        let swapped_ok = catch_unwind(AssertUnwindSafe(|| {
            let forward = |b: &Tensor| engine.forward_serving(replica, b, t_full);
            logits_fingerprint(&self.calibration, forward) == expected
        }))
        .unwrap_or(false);
        if swapped_ok {
            ull_obs::counter_add("serve.lifecycle.promotions", 1);
            ull_obs::gauge_set("serve.lifecycle.serving_version", cand.version);
            engine.push_lifecycle_event(LifecycleEvent {
                seq,
                at_ms: engine.now_ms(),
                transition: LifecycleTransition::Promoted,
                version: cand.version,
                detail: format!(
                    "promoted after {} canary batches, agreement {agreement:.4}; \
                     swap fingerprint verified",
                    cand.canary_batches
                ),
            });
        } else {
            // The model now serving does not reproduce the validated
            // outputs: put the incumbent back and quarantine the version.
            let _ = engine.swap_model(replica, previous);
            self.rollback(
                engine,
                seq,
                st,
                cand.version,
                "post-swap fingerprint verification failed; incumbent restored",
            );
        }
    }

    /// Discards the candidate (if still held) and quarantines `version`.
    fn rollback(
        &self,
        engine: &Engine,
        seq: u64,
        st: &mut LifecycleState,
        version: u64,
        detail: &str,
    ) {
        st.candidate = None;
        ull_obs::counter_add("serve.lifecycle.rollbacks", 1);
        engine.push_lifecycle_event(LifecycleEvent {
            seq,
            at_ms: engine.now_ms(),
            transition: LifecycleTransition::RolledBack,
            version,
            detail: detail.to_string(),
        });
        self.quarantine(engine, seq, st, version, detail);
    }

    /// Trips (or re-trips, doubling) the version's quarantine breaker.
    fn quarantine(
        &self,
        engine: &Engine,
        seq: u64,
        st: &mut LifecycleState,
        version: u64,
        detail: &str,
    ) {
        let serve_cfg = engine.config();
        let breaker = st.quarantine.entry(version).or_insert_with(|| {
            CircuitBreaker::new(
                1,
                serve_cfg.backoff_base_ms,
                serve_cfg.backoff_max_ms,
                serve_cfg.backoff_seed ^ version,
            )
        });
        breaker.record(false, engine.now_ms());
        ull_obs::counter_add("serve.lifecycle.quarantined", 1);
        engine.push_lifecycle_event(LifecycleEvent {
            seq,
            at_ms: engine.now_ms(),
            transition: LifecycleTransition::Quarantined,
            version,
            detail: detail.to_string(),
        });
    }
}

/// Golden fingerprint: FNV-1a over the bit patterns of `forward`'s
/// logits on every calibration batch, in batch order.
fn logits_fingerprint(calibration: &[Tensor], mut forward: impl FnMut(&Tensor) -> Tensor) -> u64 {
    let mut bytes = Vec::new();
    for batch in calibration {
        for v in forward(batch).data() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// Fraction of rows whose argmax matches between two `[n, classes]`
/// logit tensors (0.0 when shapes disagree — disagreeing shapes are the
/// opposite of agreement).
fn top1_agreement(a: &Tensor, b: &Tensor) -> f64 {
    if a.shape() != b.shape() || a.shape()[0] == 0 {
        return 0.0;
    }
    let n = a.shape()[0];
    let classes = a.shape()[1];
    let mut same = 0usize;
    for r in 0..n {
        let row_a = &a.data()[r * classes..(r + 1) * classes];
        let row_b = &b.data()[r * classes..(r + 1) * classes];
        if argmax(row_a) == argmax(row_b) {
            same += 1;
        }
    }
    same as f64 / n as f64
}

fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|x, y| x.1.total_cmp(y.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_assignment_is_deterministic_and_fraction_shaped() {
        let cfg = LifecycleConfig {
            model_dir: Some("/tmp/unused".to_string()),
            canary_fraction: 0.5,
            ..LifecycleConfig::default()
        };
        let mgr = LifecycleManager::new(cfg, vec![Tensor::zeros(&[1, 3, 8, 8])]);
        let picks: Vec<bool> = (0..4_000).map(|s| mgr.is_canary_batch(s)).collect();
        let again: Vec<bool> = (0..4_000).map(|s| mgr.is_canary_batch(s)).collect();
        assert_eq!(picks, again, "assignment must be a pure function of seq");
        let hits = picks.iter().filter(|&&p| p).count();
        assert!(
            (1_600..=2_400).contains(&hits),
            "fraction 0.5 over 4000 serials picked {hits}"
        );
    }

    #[test]
    fn full_fraction_mirrors_every_batch() {
        let cfg = LifecycleConfig {
            model_dir: Some("/tmp/unused".to_string()),
            canary_fraction: 1.0,
            ..LifecycleConfig::default()
        };
        let mgr = LifecycleManager::new(cfg, vec![Tensor::zeros(&[1, 3, 8, 8])]);
        assert!((0..500).all(|s| mgr.is_canary_batch(s)));
    }

    #[test]
    fn top1_agreement_counts_matching_rows() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 1.0, 1.0, 0.0], &[2, 2]).unwrap();
        assert!((top1_agreement(&a, &a) - 1.0).abs() < 1e-12);
        assert!((top1_agreement(&a, &b) - 0.5).abs() < 1e-12);
        let c = Tensor::zeros(&[1, 2]);
        assert_eq!(top1_agreement(&a, &c), 0.0, "shape mismatch is 0");
    }
}
