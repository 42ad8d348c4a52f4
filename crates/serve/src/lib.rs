//! Hardened inference serving for ultra low-latency SNNs.
//!
//! The paper's T≤5 networks are fast enough to serve interactively, and
//! their step count is a *quality dial*: fewer steps cost accuracy but
//! buy latency (§V). This crate turns that dial into a serving policy —
//! a dependency-free (std-only) multi-worker service with:
//!
//! * a **bounded admission queue** and **dynamic batcher** (max batch /
//!   max linger) with per-request deadline propagation ([`server`]);
//! * a **degradation ladder** ([`ladder`]) choosing, per batch, between
//!   a full-T forward, calibrated anytime early exit, a reduced-T
//!   forward, or typed load-shedding — driven by queue depth and the
//!   batch's tightest remaining deadline;
//! * a **watchdog-driven circuit breaker** ([`breaker`], [`engine`]):
//!   every fixed-T batch is checked against the replica's profiled
//!   spike-rate envelope, consecutive excursions quarantine the replica
//!   behind jittered exponential backoff, and traffic fails over to a
//!   fallback replica;
//! * **retry/timeout isolation**: worker panics are caught, poisoned
//!   batches retried once at reduced size, survivors get typed errors;
//!   expired requests get typed `DeadlineExceeded` without touching a
//!   replica;
//! * **graceful drain**: shutdown stops admissions, flushes the queue,
//!   and fsyncs a final [`ull_obs::MetricsSnapshot`] whose counters
//!   [`reconcile`] audits (admitted = served + deadline_exceeded +
//!   error_replies, and the lifecycle/canary identities);
//! * a **zero-downtime model lifecycle** ([`lifecycle`], [`manifest`]):
//!   a manifest polled from the caller's `lifecycle.model_dir` announces
//!   new checkpoint
//!   artifacts, which are checksum-validated, envelope-profiled and
//!   shadow-canaried on a deterministic fraction of live batches before
//!   an atomic promote — with watchdog-driven auto-rollback and
//!   per-version quarantine behind the breaker's backoff;
//! * a length-prefixed JSON **wire protocol** ([`protocol`]) served
//!   over `std::net` TCP, plus an in-process [`Client`] for tests and a
//!   race-tolerant [`connect_with_retry`] dialer ([`retry`]).
//!
//! Everything is instrumented through `ull-obs` (`serve.*` counters,
//! queue-depth gauge, per-rung counters, batch spans), recorded into the
//! registry that was current when the [`Engine`] was built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blackbox;
pub mod breaker;
pub mod config;
pub mod engine;
pub mod ladder;
pub mod lifecycle;
pub mod manifest;
pub mod protocol;
pub mod retry;
pub mod server;

pub use blackbox::{parse_blackbox, BlackboxDump, FlightRecorder, BLACKBOX_FORMAT_VERSION};
pub use breaker::{BreakerState, CircuitBreaker, BREAKER_THRESHOLD};
pub use config::{BlackboxConfig, LifecycleConfig, ServeConfig};
pub use engine::{
    rung_steps_key, BatchEvent, BatchResult, Engine, ReplicaModel, ReplicaSpec, ServeEvent,
};
pub use lifecycle::{LifecycleEvent, LifecycleManager, LifecycleTransition};
pub use manifest::{parse_manifest, write_manifest, Manifest, ManifestError, MANIFEST_NAME};
pub use protocol::{
    read_frame, trace_id, write_control_reply, write_frame, write_reply, ControlReply,
    ControlRequest, FrameError, Reply, Request, RungLabel, MAX_FRAME_LEN,
};
pub use retry::{connect_with_retry, RetryPolicy};
pub use server::{reconcile, Client, Server};
