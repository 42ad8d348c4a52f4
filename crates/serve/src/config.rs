//! Serving configuration.
//!
//! All durations are plain millisecond integers so the config itself is
//! serde-able and diffable in reports; the server converts to
//! [`std::time::Duration`] internally.

use serde::{Deserialize, Serialize};

/// Tunables for the model-lifecycle subsystem (`lifecycle.rs`): manifest
/// polling, deterministic canary, promotion gates and quarantine.
///
/// The lifecycle is **disabled** unless the caller sets `model_dir` — the
/// default config serves exactly like a pre-lifecycle build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleConfig {
    /// Directory polled for the reload manifest. `None` disables the
    /// lifecycle entirely; no environment variable sets it.
    pub model_dir: Option<String>,
    /// Poll the manifest every N executed batches. Batch-serial driven —
    /// never wall-clock — so reload timing is reproducible for a given
    /// traffic sequence.
    pub poll_every_batches: u64,
    /// Fraction of batches mirrored to the candidate during canary,
    /// chosen by `mix64` over the batch serial.
    pub canary_fraction: f64,
    /// Canary batches required before the candidate may be promoted;
    /// top-1 agreement is measured over a sliding window of this many
    /// canary batches.
    pub canary_min_batches: usize,
    /// Cumulative candidate watchdog excursions that trigger rollback
    /// (the K of the acceptance gate).
    pub excursion_limit: usize,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            model_dir: None,
            poll_every_batches: 8,
            canary_fraction: 0.5,
            canary_min_batches: 12,
            excursion_limit: 3,
        }
    }
}

impl LifecycleConfig {
    /// Whether the lifecycle subsystem is armed.
    pub fn enabled(&self) -> bool {
        self.model_dir.is_some()
    }

    /// Appends any internal inconsistencies to `problems` (only checked
    /// when the lifecycle is enabled).
    pub(crate) fn validate_into(&self, problems: &mut Vec<String>) {
        if !self.enabled() {
            return;
        }
        if self.poll_every_batches == 0 {
            problems.push("lifecycle.poll_every_batches must be at least 1".to_string());
        }
        if !(self.canary_fraction > 0.0 && self.canary_fraction <= 1.0) {
            problems.push(format!(
                "lifecycle.canary_fraction must be in (0, 1], got {}",
                self.canary_fraction
            ));
        }
        if self.canary_min_batches == 0 {
            problems.push("lifecycle.canary_min_batches must be at least 1".to_string());
        }
        if self.excursion_limit == 0 {
            problems.push("lifecycle.excursion_limit must be at least 1".to_string());
        }
    }
}

/// Tunables for the flight recorder (`blackbox.rs`): a bounded ring of
/// recent [`ServeEvent`]s dumped to disk on incidents.
///
/// Disabled unless the caller sets `dir` — the default config records
/// nothing and writes nothing.
///
/// [`ServeEvent`]: crate::engine::ServeEvent
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlackboxConfig {
    /// Directory incident dumps are written to. `None` disables the
    /// flight recorder entirely; no environment variable sets it.
    pub dir: Option<String>,
    /// Ring capacity: how many recent events a dump can contain.
    pub capacity: usize,
}

impl Default for BlackboxConfig {
    fn default() -> Self {
        BlackboxConfig {
            dir: None,
            capacity: 256,
        }
    }
}

impl BlackboxConfig {
    /// Whether the flight recorder is armed.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Appends any internal inconsistencies to `problems` (only checked
    /// when the recorder is enabled).
    pub(crate) fn validate_into(&self, problems: &mut Vec<String>) {
        if self.enabled() && self.capacity == 0 {
            problems.push("blackbox.capacity must be at least 1".to_string());
        }
    }
}

/// Tunables for the admission queue, batcher, degradation ladder,
/// circuit breaker and drain behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Per-sample input shape (no batch dimension), e.g. `[3, 8, 8]`.
    /// Requests with any other shape get a typed `BadRequest`.
    pub input_shape: Vec<usize>,
    /// Time steps for the full-quality rung.
    pub t_full: usize,
    /// Time steps for the reduced rung (the paper's latency dial: fewer
    /// steps, slightly lower accuracy, proportionally lower cost).
    pub t_reduced: usize,
    /// Worker threads pulling batches off the queue. Each worker runs its
    /// batch's kernels on its own thread (`parallel::with_threads(1, …)`),
    /// whatever `ULL_THREADS` says, so this is the serving parallelism:
    /// raise it on a larger box.
    pub workers: usize,
    /// Bounded admission-queue capacity; a full queue sheds with a typed
    /// `Overloaded` reply instead of queueing unboundedly.
    pub queue_capacity: usize,
    /// Largest batch a worker assembles before executing.
    pub max_batch: usize,
    /// How long a worker lingers for more requests once it holds at
    /// least one, in milliseconds.
    pub max_linger_ms: u64,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: u64,
    /// Estimated wall-clock cost of a full-T batch, used by the ladder
    /// to decide whether a batch's tightest deadline still fits.
    pub est_full_ms: u64,
    /// Estimated wall-clock cost of a reduced-T batch.
    pub est_reduced_ms: u64,
    /// Base quarantine duration for a tripped breaker, in milliseconds;
    /// doubles (with jitter) on every failed half-open probe.
    pub backoff_base_ms: u64,
    /// Upper bound on the quarantine duration, in milliseconds.
    pub backoff_max_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Test seam: artificial per-batch execution delay in milliseconds,
    /// used by the soak/smoke harnesses to force queue build-up
    /// deterministically. Zero in production.
    pub chaos_execute_delay_ms: u64,
    /// Model-lifecycle subsystem (hot-reload, canary, auto-rollback).
    /// Defaults to disabled, which serves exactly like a
    /// pre-lifecycle build.
    #[serde(default)]
    pub lifecycle: LifecycleConfig,
    /// Flight recorder (incident ring buffer + dump-on-trip). Defaults
    /// to disabled: no recording, no disk writes.
    #[serde(default)]
    pub blackbox: BlackboxConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            input_shape: vec![3, 8, 8],
            t_full: 5,
            t_reduced: 2,
            workers: 2,
            queue_capacity: 64,
            max_batch: 16,
            max_linger_ms: 2,
            default_deadline_ms: 1_000,
            est_full_ms: 50,
            est_reduced_ms: 20,
            backoff_base_ms: 100,
            backoff_max_ms: 10_000,
            backoff_seed: 0x5e12_7e00,
            chaos_execute_delay_ms: 0,
            lifecycle: LifecycleConfig::default(),
            blackbox: BlackboxConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Validates internal consistency, returning every problem found.
    pub fn validate(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.input_shape.is_empty() || self.input_shape.iter().product::<usize>() == 0 {
            problems.push("input_shape must be non-empty with non-zero volume".to_string());
        }
        if self.t_full == 0 {
            problems.push("t_full must be at least 1".to_string());
        }
        if self.t_reduced == 0 || self.t_reduced > self.t_full {
            problems.push(format!(
                "t_reduced must be in 1..=t_full, got {} (t_full {})",
                self.t_reduced, self.t_full
            ));
        }
        if self.workers == 0 {
            problems.push("workers must be at least 1".to_string());
        }
        if self.queue_capacity == 0 {
            problems.push("queue_capacity must be at least 1".to_string());
        }
        if self.max_batch == 0 {
            problems.push("max_batch must be at least 1".to_string());
        }
        if self.backoff_base_ms == 0 || self.backoff_max_ms < self.backoff_base_ms {
            problems.push(format!(
                "backoff must satisfy 0 < base <= max, got base {} max {}",
                self.backoff_base_ms, self.backoff_max_ms
            ));
        }
        self.lifecycle.validate_into(&mut problems);
        self.blackbox.validate_into(&mut problems);
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// Number of f32 elements one sample must carry.
    pub(crate) fn sample_volume(&self) -> usize {
        self.input_shape.iter().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_configs_are_rejected_with_every_problem_listed() {
        let cfg = ServeConfig {
            t_reduced: 9,
            workers: 0,
            backoff_base_ms: 0,
            ..ServeConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        for needle in ["t_reduced", "workers", "backoff"] {
            assert!(err.contains(needle), "missing `{needle}` in: {err}");
        }
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = ServeConfig {
            lifecycle: LifecycleConfig {
                model_dir: Some("/tmp/models".to_string()),
                ..LifecycleConfig::default()
            },
            ..ServeConfig::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ServeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn legacy_config_json_without_lifecycle_block_still_parses() {
        let json = serde_json::to_string(&ServeConfig::default()).unwrap();
        // Simulate a pre-lifecycle config file by stripping the block.
        let legacy = {
            let v: serde_json::Value = serde_json::from_str(&json).unwrap();
            match v {
                serde_json::Value::Map(mut m) => {
                    m.retain(|(k, _)| k != "lifecycle");
                    serde_json::to_string(&serde_json::Value::Map(m)).unwrap()
                }
                _ => unreachable!("config serializes to an object"),
            }
        };
        let back: ServeConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, ServeConfig::default());
        assert!(!back.lifecycle.enabled());

        // The config block of `BENCH_serve.json`, recorded while the
        // ladder depths, breaker threshold, canary window and seed,
        // agreement threshold, target replica and envelope margins were
        // still fields: they are ignored on load.
        let recorded = r#"{
            "input_shape": [3, 16, 16], "t_full": 4, "t_reduced": 2,
            "workers": 2, "queue_capacity": 64, "max_batch": 4,
            "max_linger_ms": 1, "default_deadline_ms": 10000,
            "est_full_ms": 50, "est_reduced_ms": 20, "anytime_depth": 16,
            "reduced_depth": 32, "breaker_threshold": 3,
            "backoff_base_ms": 600000, "backoff_max_ms": 3600000,
            "backoff_seed": 2022, "chaos_execute_delay_ms": 0,
            "lifecycle": {
                "model_dir": null, "poll_every_batches": 8,
                "canary_fraction": 0.5, "canary_min_batches": 12,
                "canary_window": 12, "excursion_limit": 3,
                "agreement_threshold": 0.9, "target_replica": 0,
                "canary_seed": 3399098624, "envelope_rel_margin": 0.5,
                "envelope_abs_margin": 0.05
            },
            "blackbox": {"dir": null, "capacity": 256}
        }"#;
        let back: ServeConfig = serde_json::from_str(recorded).unwrap();
        assert_eq!(back.lifecycle, LifecycleConfig::default());
        assert_eq!((back.max_batch, back.backoff_seed), (4, 2022));
        back.validate().unwrap();
    }

    #[test]
    fn blackbox_config_defaults_off_and_validates_when_armed() {
        let mut cfg = ServeConfig::default();
        assert!(!cfg.blackbox.enabled());
        cfg.blackbox.capacity = 0;
        // Disabled recorder: nonsense capacity is inert.
        cfg.validate().unwrap();
        cfg.blackbox.dir = Some("/tmp/blackbox".to_string());
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("blackbox.capacity"), "got: {err}");
        // Legacy config JSON without the block still parses.
        let back: ServeConfig = serde_json::from_str(&{
            let v: serde_json::Value =
                serde_json::from_str(&serde_json::to_string(&ServeConfig::default()).unwrap())
                    .unwrap();
            match v {
                serde_json::Value::Map(mut m) => {
                    m.retain(|(k, _)| k != "blackbox");
                    serde_json::to_string(&serde_json::Value::Map(m)).unwrap()
                }
                _ => unreachable!("config serializes to an object"),
            }
        })
        .unwrap();
        assert_eq!(back, ServeConfig::default());
    }

    #[test]
    fn bad_lifecycle_configs_are_rejected_only_when_enabled() {
        let mut cfg = ServeConfig::default();
        cfg.lifecycle.canary_fraction = 0.0;
        cfg.lifecycle.excursion_limit = 0;
        // Disabled lifecycle: nonsense values are inert.
        cfg.validate().unwrap();
        cfg.lifecycle.model_dir = Some("/tmp/models".to_string());
        let err = cfg.validate().unwrap_err();
        for needle in ["canary_fraction", "excursion_limit"] {
            assert!(err.contains(needle), "missing `{needle}` in: {err}");
        }
    }
}
