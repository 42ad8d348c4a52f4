//! Deterministic fault injection for the recoverable pipeline.
//!
//! A [`FaultPlan`] is a script of failures to inject at exact, reproducible
//! points of a pipeline run — "poison one gradient in epoch 2 of SGL",
//! "crash before the epoch-4 checkpoint commits", "corrupt the newest
//! checkpoint file on disk". The recovery runner
//! ([`run_or_resume_pipeline`](crate::run_or_resume_pipeline)) consults
//! the plan at each injection site. One-shot
//! [`FaultPoint`]s fire **at most once** and are consumed when they do, so
//! a resumed process with a fresh (empty) plan replays the same epochs
//! cleanly. [`RecurringFault`]s extend this with periodic or seeded-random
//! schedules ([`Trigger`]) that fire repeatedly without being consumed —
//! modelling flaky hardware rather than a single scripted incident.
//!
//! Because the whole pipeline is bit-deterministic (seeded RNG, fixed
//! reduction orders), a fault plan turns "what happens if the job dies
//! right here?" into an ordinary unit test: inject, observe the typed
//! error, resume, and assert the final model is bit-identical to an
//! uninterrupted run.

use crate::recovery::PipelinePhase;

/// What to inject at a fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Poison one gradient element with NaN after the backward pass of the
    /// given 0-based batch, before the optimizer step. Exercises the
    /// numeric-failure detection and rollback-with-LR-backoff path.
    NanGradient {
        /// 0-based batch index within the epoch at which to poison.
        batch: usize,
    },
    /// Simulate a process crash *before* the checkpoint for this epoch is
    /// committed: the runner returns
    /// [`PipelineError::SimulatedCrash`](crate::PipelineError::SimulatedCrash)
    /// and the on-disk state still points at the previous checkpoint.
    CrashBeforeCommit,
    /// Commit the checkpoint for this epoch, then flip a byte in the middle
    /// of the freshly written file and crash. Exercises
    /// [`load_latest`](ull_nn::load_latest)'s skip-torn-files behaviour on
    /// resume.
    CorruptCheckpoint,
}

/// One scheduled fault: *what* to inject and *where*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// Pipeline phase in which to fire.
    pub phase: PipelinePhase,
    /// 0-based epoch within the phase at which to fire.
    pub epoch: usize,
    /// The failure to inject.
    pub kind: FaultKind,
}

/// Schedule deciding *when* a [`RecurringFault`] fires.
///
/// Decisions are pure functions of `(phase, epoch)` — a [`Trigger`] holds
/// no mutable state — so a resumed run consults the same schedule and sees
/// the same faults, and two runs with different thread counts agree
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fires first at epoch `offset`, then every `period` epochs after
    /// that. A `period` of 0 never fires.
    Every {
        /// Epochs between firings (0 disables the trigger).
        period: usize,
        /// First epoch at which to fire.
        offset: usize,
    },
    /// Fires at each epoch independently with probability `prob`, decided
    /// by a seeded coordinate hash of `(seed, phase, epoch)` — fully
    /// deterministic for a fixed seed, uncorrelated across epochs.
    Random {
        /// Per-epoch firing probability in `[0, 1]`.
        prob: f32,
        /// Hash seed; different seeds give independent schedules.
        seed: u64,
    },
}

impl Trigger {
    /// Whether this trigger fires at `(phase, epoch)`.
    pub fn fires(&self, phase: PipelinePhase, epoch: usize) -> bool {
        match *self {
            Trigger::Every { period, offset } => {
                period > 0 && epoch >= offset && (epoch - offset).is_multiple_of(period)
            }
            Trigger::Random { prob, seed } => {
                let h = ull_tensor::init::mix64(seed, &[phase.index() as u64, epoch as u64]);
                ull_tensor::init::unit_f32(h) < prob
            }
        }
    }
}

/// A fault injected on a recurring [`Trigger`] schedule rather than at one
/// scripted `(phase, epoch)`. Never consumed: it fires at every epoch its
/// trigger selects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecurringFault {
    /// Pipeline phase in which the schedule is active.
    pub phase: PipelinePhase,
    /// When to fire within that phase.
    pub trigger: Trigger,
    /// The failure to inject on each firing.
    pub kind: FaultKind,
}

/// A deterministic script of faults, consumed as the pipeline hits each
/// injection site.
///
/// Duplicate points are allowed — e.g. scheduling the same `NanGradient`
/// three times makes the epoch fail on every retry, which is how the tests
/// exhaust `max_retries` and provoke
/// [`TrainError::Diverged`](ull_nn::TrainError::Diverged).
///
/// One-shot points are always consulted (and consumed) before recurring
/// schedules, so adding recurring faults never changes when an existing
/// scripted point fires.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
    recurring: Vec<RecurringFault>,
}

impl FaultPlan {
    /// An empty plan: no faults, the pipeline runs normally.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Schedules `kind` to fire at `(phase, epoch)`. Builder-style.
    pub fn with(mut self, phase: PipelinePhase, epoch: usize, kind: FaultKind) -> Self {
        self.points.push(FaultPoint { phase, epoch, kind });
        self
    }

    /// Schedules `kind` to fire on every epoch of `phase` that `trigger`
    /// selects. Builder-style. Recurring faults are never consumed.
    pub fn with_recurring(
        mut self,
        phase: PipelinePhase,
        trigger: Trigger,
        kind: FaultKind,
    ) -> Self {
        self.recurring.push(RecurringFault {
            phase,
            trigger,
            kind,
        });
        self
    }

    /// Number of one-shot faults still pending (recurring schedules are
    /// not counted — they never drain).
    pub fn pending(&self) -> usize {
        self.points.len()
    }

    /// Number of recurring fault schedules installed.
    pub fn recurring_count(&self) -> usize {
        self.recurring.len()
    }

    /// Consumes and returns the batch index of a pending
    /// [`FaultKind::NanGradient`] at `(phase, epoch)`, if any; otherwise
    /// consults recurring schedules (not consumed).
    pub(crate) fn take_nan(&mut self, phase: PipelinePhase, epoch: usize) -> Option<usize> {
        let idx = self.points.iter().position(|p| {
            p.phase == phase && p.epoch == epoch && matches!(p.kind, FaultKind::NanGradient { .. })
        });
        if let Some(idx) = idx {
            match self.points.remove(idx).kind {
                FaultKind::NanGradient { batch } => return Some(batch),
                _ => unreachable!(),
            }
        }
        self.recurring
            .iter()
            .filter(|r| r.phase == phase && r.trigger.fires(phase, epoch))
            .find_map(|r| match r.kind {
                FaultKind::NanGradient { batch } => Some(batch),
                _ => None,
            })
    }

    /// Consumes a pending [`FaultKind::CrashBeforeCommit`] at
    /// `(phase, epoch)` (or matches a recurring schedule); returns whether
    /// one fired.
    pub(crate) fn take_crash(&mut self, phase: PipelinePhase, epoch: usize) -> bool {
        self.take_kind(phase, epoch, FaultKind::CrashBeforeCommit)
    }

    /// Consumes a pending [`FaultKind::CorruptCheckpoint`] at
    /// `(phase, epoch)` (or matches a recurring schedule); returns whether
    /// one fired.
    pub(crate) fn take_corrupt(&mut self, phase: PipelinePhase, epoch: usize) -> bool {
        self.take_kind(phase, epoch, FaultKind::CorruptCheckpoint)
    }

    fn take_kind(&mut self, phase: PipelinePhase, epoch: usize, kind: FaultKind) -> bool {
        match self
            .points
            .iter()
            .position(|p| p.phase == phase && p.epoch == epoch && p.kind == kind)
        {
            Some(idx) => {
                self.points.remove(idx);
                true
            }
            None => self
                .recurring
                .iter()
                .any(|r| r.phase == phase && r.kind == kind && r.trigger.fires(phase, epoch)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_and_are_consumed() {
        let mut plan = FaultPlan::none()
            .with(
                PipelinePhase::DnnTrain,
                1,
                FaultKind::NanGradient { batch: 3 },
            )
            .with(PipelinePhase::Sgl, 0, FaultKind::CrashBeforeCommit);
        assert_eq!(plan.pending(), 2);
        // Wrong site: nothing fires.
        assert_eq!(plan.take_nan(PipelinePhase::DnnTrain, 0), None);
        assert!(!plan.take_crash(PipelinePhase::DnnTrain, 1));
        // Right site: fires exactly once.
        assert_eq!(plan.take_nan(PipelinePhase::DnnTrain, 1), Some(3));
        assert_eq!(plan.take_nan(PipelinePhase::DnnTrain, 1), None);
        assert!(plan.take_crash(PipelinePhase::Sgl, 0));
        assert!(!plan.take_crash(PipelinePhase::Sgl, 0));
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn duplicate_faults_fire_on_each_retry() {
        let mut plan = FaultPlan::none()
            .with(PipelinePhase::Sgl, 2, FaultKind::NanGradient { batch: 0 })
            .with(PipelinePhase::Sgl, 2, FaultKind::NanGradient { batch: 0 });
        assert_eq!(plan.take_nan(PipelinePhase::Sgl, 2), Some(0));
        assert_eq!(plan.take_nan(PipelinePhase::Sgl, 2), Some(0));
        assert_eq!(plan.take_nan(PipelinePhase::Sgl, 2), None);
    }

    #[test]
    fn every_trigger_fires_periodically() {
        let t = Trigger::Every {
            period: 3,
            offset: 1,
        };
        let fired: Vec<usize> = (0..10)
            .filter(|&e| t.fires(PipelinePhase::DnnTrain, e))
            .collect();
        assert_eq!(fired, vec![1, 4, 7]);
        // Zero period never fires.
        let never = Trigger::Every {
            period: 0,
            offset: 0,
        };
        assert!((0..10).all(|e| !never.fires(PipelinePhase::DnnTrain, e)));
    }

    #[test]
    fn random_trigger_is_seeded_and_deterministic() {
        let t = Trigger::Random {
            prob: 0.5,
            seed: 42,
        };
        let a: Vec<bool> = (0..64).map(|e| t.fires(PipelinePhase::Sgl, e)).collect();
        let b: Vec<bool> = (0..64).map(|e| t.fires(PipelinePhase::Sgl, e)).collect();
        assert_eq!(a, b, "same seed ⇒ same schedule");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fired), "~half should fire, got {fired}");
        // A different seed gives a different schedule.
        let t2 = Trigger::Random {
            prob: 0.5,
            seed: 43,
        };
        let c: Vec<bool> = (0..64).map(|e| t2.fires(PipelinePhase::Sgl, e)).collect();
        assert_ne!(a, c);
        // Extremes behave.
        let always = Trigger::Random { prob: 1.0, seed: 7 };
        assert!((0..16).all(|e| always.fires(PipelinePhase::Sgl, e)));
        let never = Trigger::Random { prob: 0.0, seed: 7 };
        assert!((0..16).all(|e| !never.fires(PipelinePhase::Sgl, e)));
    }

    #[test]
    fn recurring_faults_fire_repeatedly_without_draining() {
        let mut plan = FaultPlan::none().with_recurring(
            PipelinePhase::Sgl,
            Trigger::Every {
                period: 2,
                offset: 0,
            },
            FaultKind::NanGradient { batch: 1 },
        );
        assert_eq!(plan.pending(), 0, "recurring faults are not pending");
        assert_eq!(plan.recurring_count(), 1);
        // Fires at epochs 0, 2, 4 — and repeatedly at the same epoch
        // (retries of a failed epoch hit the same schedule).
        assert_eq!(plan.take_nan(PipelinePhase::Sgl, 0), Some(1));
        assert_eq!(plan.take_nan(PipelinePhase::Sgl, 0), Some(1));
        assert_eq!(plan.take_nan(PipelinePhase::Sgl, 1), None);
        assert_eq!(plan.take_nan(PipelinePhase::Sgl, 2), Some(1));
        // Wrong phase: silent.
        assert_eq!(plan.take_nan(PipelinePhase::DnnTrain, 0), None);
        assert_eq!(plan.recurring_count(), 1, "never consumed");
    }

    #[test]
    fn one_shot_points_fire_before_recurring_and_still_drain() {
        // Installing a recurring schedule must not change when existing
        // scripted points fire or drain.
        let mut plan = FaultPlan::none()
            .with(PipelinePhase::Sgl, 0, FaultKind::NanGradient { batch: 9 })
            .with_recurring(
                PipelinePhase::Sgl,
                Trigger::Every {
                    period: 1,
                    offset: 0,
                },
                FaultKind::NanGradient { batch: 1 },
            );
        // The one-shot point (batch 9) wins first, then the schedule.
        assert_eq!(plan.take_nan(PipelinePhase::Sgl, 0), Some(9));
        assert_eq!(plan.pending(), 0);
        assert_eq!(plan.take_nan(PipelinePhase::Sgl, 0), Some(1));
    }

    #[test]
    fn recurring_crash_and_corrupt_follow_trigger() {
        let mut plan = FaultPlan::none().with_recurring(
            PipelinePhase::DnnTrain,
            Trigger::Every {
                period: 2,
                offset: 1,
            },
            FaultKind::CrashBeforeCommit,
        );
        assert!(!plan.take_crash(PipelinePhase::DnnTrain, 0));
        assert!(plan.take_crash(PipelinePhase::DnnTrain, 1));
        assert!(!plan.take_crash(PipelinePhase::DnnTrain, 2));
        assert!(plan.take_crash(PipelinePhase::DnnTrain, 3));
        // Kind must match: no corrupt fires from a crash schedule.
        assert!(!plan.take_corrupt(PipelinePhase::DnnTrain, 1));
    }
}
