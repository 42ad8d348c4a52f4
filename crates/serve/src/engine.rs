//! The execution engine: replicas, watchdog checks, circuit breaking,
//! failover and the chaos seams the soak harness drives.
//!
//! The engine owns N read-only [`SnnNetwork`] replicas (replica 0 is
//! primary; later replicas are fallbacks, ordered by preference) plus a
//! [`CircuitBreaker`] per replica. One call to [`Engine::execute`] runs
//! one batch at one ladder rung:
//!
//! 1. route to the first replica whose breaker admits traffic (if every
//!    breaker is open, the last replica serves as a degraded last
//!    resort — availability over quarantine);
//! 2. run the rung (`Full` / `Reduced` are fixed-T forwards, `Anytime`
//!    is `ull_robust`'s early exit behind the calibrated margin
//!    schedule);
//! 3. for fixed-T rungs, check the per-layer spike-rate envelope
//!    profiled for *that* T (the watchdog rejects cross-T comparisons
//!    by design, and the `Anytime` rung is skipped because its step
//!    count is data-dependent);
//! 4. feed the verdict to the replica's breaker, and on an excursion
//!    retry the batch once on the next healthy replica so the client
//!    sees the fallback's answer, not the corrupted one;
//! 5. hand the batch to the attached [`LifecycleManager`] (if any),
//!    which polls the reload manifest on a batch-serial cadence and
//!    mirrors deterministic canary batches to a candidate model.
//!
//! Each replica slot holds a **versioned** [`ReplicaModel`] (network +
//! its profiled envelopes) behind an `RwLock`, so the model, its
//! version and its watchdog envelopes swap *atomically* during a
//! lifecycle promotion — a batch either sees the old model with the old
//! envelopes or the new model with the new ones, never a cross of the
//! two.
//!
//! Chaos seams — an injectable per-replica panic budget, a fixed
//! per-batch execution delay, and a clock-skew knob for breaker-timing
//! tests — let the soak and smoke harnesses force worker panics, queue
//! build-up and quarantine expiry deterministically. All are inert
//! unless explicitly armed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use ull_robust::{anytime_forward_scheduled, AnytimeSchedule, RateEnvelope};
use ull_snn::SnnNetwork;
use ull_tensor::Tensor;

use crate::blackbox::FlightRecorder;
use crate::breaker::{BreakerState, CircuitBreaker};
use crate::config::ServeConfig;
use crate::lifecycle::{LifecycleEvent, LifecycleManager, LifecycleTransition};
use crate::protocol::RungLabel;

/// One replica as supplied at engine build time: a network plus the
/// activity envelopes profiled at the two fixed-T rungs. Envelopes are
/// optional — a replica without them is simply never watchdogged (and
/// so never trips its breaker). Boot replicas serve as model version 0.
pub struct ReplicaSpec {
    /// Display name used in events and reports.
    pub name: String,
    /// The network this replica serves.
    pub net: SnnNetwork,
    /// Spike-rate envelope profiled at `t_full` steps.
    pub envelope_full: Option<RateEnvelope>,
    /// Spike-rate envelope profiled at `t_reduced` steps.
    pub envelope_reduced: Option<RateEnvelope>,
}

/// What a replica slot serves right now: the network, the model version
/// it came from, and the envelopes profiled *for this model*. The whole
/// struct swaps atomically on promotion so watchdog verdicts are always
/// computed against the envelopes of the model that produced the batch.
pub struct ReplicaModel {
    /// The network being served.
    pub net: SnnNetwork,
    /// Monotone model version (0 = the boot model).
    pub version: u64,
    /// Spike-rate envelope profiled at `t_full` steps.
    pub envelope_full: Option<RateEnvelope>,
    /// Spike-rate envelope profiled at `t_reduced` steps.
    pub envelope_reduced: Option<RateEnvelope>,
}

/// Result of one executed batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Running-mean logits, `[batch, classes]`, frozen per row at its
    /// decision step on the `Anytime` rung.
    pub logits: Tensor,
    /// Per-row time steps actually used.
    pub steps: Vec<usize>,
    /// Rung the batch was served at.
    pub rung: RungLabel,
    /// Index of the replica whose answer is returned.
    pub replica: usize,
    /// Model version served by that replica.
    pub version: u64,
    /// Watchdog verdict for the returned answer (`true` when the rung
    /// is not watchdogged).
    pub healthy: bool,
    /// Whether the batch was re-run on a fallback after an excursion.
    pub retried_on_fallback: bool,
}

/// One executed batch in the engine's event log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchEvent {
    /// Monotone batch sequence number.
    pub seq: u64,
    /// Milliseconds since the engine was built.
    pub at_ms: u64,
    /// Rung the batch ran at.
    pub rung: RungLabel,
    /// Replica that produced the returned answer.
    pub replica: usize,
    /// Model version that replica was serving.
    pub version: u64,
    /// Watchdog verdict of the returned answer.
    pub healthy: bool,
    /// Whether a fallback retry produced the returned answer.
    pub retried: bool,
    /// Breaker state of every replica *after* this batch.
    pub breaker_states: Vec<BreakerState>,
}

/// One entry in the engine's event log — the soak and lifecycle
/// harnesses turn these into failover / reload timelines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServeEvent {
    /// A batch was executed.
    Batch(BatchEvent),
    /// The model lifecycle changed state (canary, promote, rollback,
    /// quarantine).
    Lifecycle(LifecycleEvent),
}

impl ServeEvent {
    /// The batch payload, if this is a batch event.
    pub fn batch(&self) -> Option<&BatchEvent> {
        match self {
            ServeEvent::Batch(b) => Some(b),
            ServeEvent::Lifecycle(_) => None,
        }
    }

    /// The lifecycle payload, if this is a lifecycle event.
    pub fn lifecycle(&self) -> Option<&LifecycleEvent> {
        match self {
            ServeEvent::Batch(_) => None,
            ServeEvent::Lifecycle(l) => Some(l),
        }
    }
}

/// Internal replica slot: the served model sits behind an `RwLock` so a
/// lifecycle promotion ([`Engine::swap_model`]) or the soak harness's
/// corruption seam ([`Engine::chaos_swap_net`]) can replace it while
/// workers keep serving.
struct ReplicaSlot {
    name: String,
    model: RwLock<ReplicaModel>,
}

/// Replica pool + breakers + chaos seams. Shared across worker threads
/// behind an `Arc`; all interior mutability is lock-scoped per batch.
pub struct Engine {
    cfg: ServeConfig,
    replicas: Vec<ReplicaSlot>,
    breakers: Vec<Mutex<CircuitBreaker>>,
    schedule: Option<AnytimeSchedule>,
    panic_budget: Vec<AtomicU64>,
    seq: AtomicU64,
    events: Mutex<Vec<ServeEvent>>,
    started: Instant,
    clock_skew_ms: AtomicU64,
    lifecycle: Mutex<Option<Arc<LifecycleManager>>>,
    recorder: FlightRecorder,
}

impl Engine {
    /// Builds an engine over an ordered replica pool.
    ///
    /// `schedule` powers the `Anytime` rung; without one, that rung
    /// falls back to a plain full-T forward (no early exit). A schedule
    /// longer than `cfg.t_full` is truncated to it, so the rung never
    /// simulates more steps than `Full`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or the config fails validation —
    /// both are operator errors, not request-path conditions.
    pub fn new(
        cfg: ServeConfig,
        replicas: Vec<ReplicaSpec>,
        schedule: Option<AnytimeSchedule>,
    ) -> Self {
        assert!(!replicas.is_empty(), "engine needs at least one replica");
        cfg.validate().expect("invalid ServeConfig");
        let breakers = replicas
            .iter()
            .map(|_| {
                Mutex::new(CircuitBreaker::new(
                    cfg.breaker_threshold,
                    cfg.backoff_base_ms,
                    cfg.backoff_max_ms,
                    cfg.backoff_seed,
                ))
            })
            .collect();
        let panic_budget = replicas.iter().map(|_| AtomicU64::new(0)).collect();
        let slots = replicas
            .into_iter()
            .map(|r| {
                // Pack each replica's weights at build time so the first
                // request does not pay the packing cost; replicas holding
                // identical weights share one cached pack.
                r.net.prepack();
                ReplicaSlot {
                    name: r.name,
                    model: RwLock::new(ReplicaModel {
                        net: r.net,
                        version: 0,
                        envelope_full: r.envelope_full,
                        envelope_reduced: r.envelope_reduced,
                    }),
                }
            })
            .collect();
        let recorder = FlightRecorder::new(&cfg.blackbox);
        let schedule = schedule.map(|mut s| {
            s.margins.truncate(cfg.t_full);
            s
        });
        Engine {
            cfg,
            replicas: slots,
            breakers,
            schedule,
            panic_budget,
            seq: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            started: Instant::now(),
            clock_skew_ms: AtomicU64::new(0),
            lifecycle: Mutex::new(None),
            recorder,
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Milliseconds since the engine was built (the breaker clock),
    /// plus any chaos skew from [`chaos_advance_clock`].
    ///
    /// [`chaos_advance_clock`]: Self::chaos_advance_clock
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64 + self.clock_skew_ms.load(Ordering::SeqCst)
    }

    /// Chaos seam: advance the breaker/lifecycle clock by `ms` without
    /// sleeping — how tests walk a quarantined breaker to its half-open
    /// boundary deterministically.
    pub fn chaos_advance_clock(&self, ms: u64) {
        self.clock_skew_ms.fetch_add(ms, Ordering::SeqCst);
    }

    /// Attaches the model-lifecycle manager. Subsequent batches feed it
    /// (manifest polling, canary mirroring) after execution.
    pub fn attach_lifecycle(&self, mgr: Arc<LifecycleManager>) {
        *self.lifecycle.lock().unwrap_or_else(|e| e.into_inner()) = Some(mgr);
    }

    /// Current breaker state per replica.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.breakers
            .iter()
            .map(|b| lock_breaker(b).state())
            .collect()
    }

    /// Lifetime breaker trips summed over replicas.
    pub fn breaker_trips(&self) -> u64 {
        self.breakers.iter().map(|b| lock_breaker(b).trips()).sum()
    }

    /// Replica names, in routing-preference order.
    pub fn replica_names(&self) -> Vec<String> {
        self.replicas.iter().map(|r| r.name.clone()).collect()
    }

    /// Model version currently served by `replica`.
    pub fn serving_version(&self, replica: usize) -> u64 {
        self.replicas[replica]
            .model
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .version
    }

    /// Drains the event log (the soak harness calls this once at the
    /// end; incremental callers get only the events since last drain).
    pub fn take_events(&self) -> Vec<ServeEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Appends a lifecycle transition to the event log (and the flight
    /// recorder; a rollback triggers an incident dump).
    pub(crate) fn push_lifecycle_event(&self, event: LifecycleEvent) {
        let rolled_back = matches!(event.transition, LifecycleTransition::RolledBack);
        let wrapped = ServeEvent::Lifecycle(event);
        self.recorder.observe(&wrapped);
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(wrapped);
        if rolled_back {
            self.flight_dump("lifecycle_rollback");
        }
    }

    /// Writes a flight-recorder incident dump now (no-op unless
    /// `cfg.blackbox.dir` is set). Returns the dump path when written.
    pub fn flight_dump(&self, reason: &str) -> Option<std::path::PathBuf> {
        self.recorder
            .dump(reason, self.now_ms(), &self.breaker_states())
    }

    /// Flight-recorder dumps written so far.
    pub fn flight_dumps(&self) -> u64 {
        self.recorder.dumps()
    }

    /// Chaos seam: arm `count` injected panics on `replica`. Each of
    /// that replica's next `count` executions panics with a recognizable
    /// message; the budget then self-disarms.
    pub fn inject_panics(&self, replica: usize, count: u64) {
        self.panic_budget[replica].fetch_add(count, Ordering::SeqCst);
    }

    /// Chaos seam: atomically replace a replica's network while the
    /// server keeps running — the soak harness's "hardware goes bad
    /// mid-run" event. The slot's version and envelopes are *kept* (the
    /// point is to serve corrupted weights against the old model's
    /// envelopes so the watchdog can catch them). In-flight batches
    /// finish on whichever network they read first; later batches see
    /// the replacement.
    pub fn chaos_swap_net(&self, replica: usize, net: SnnNetwork) {
        // Re-pack eagerly: the swapped weights have a new fingerprint, so
        // without this the first post-swap batch would pay the packing
        // cost inside the request path.
        net.prepack();
        self.replicas[replica]
            .model
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .net = net;
    }

    /// Atomically replaces the whole served model of `replica` —
    /// network, version and envelopes together — returning the previous
    /// model (the lifecycle keeps it as the rollback target until the
    /// swap is verified). The replica's breaker is reset: the new model
    /// must not inherit the old model's excursion history.
    pub fn swap_model(&self, replica: usize, model: ReplicaModel) -> ReplicaModel {
        model.net.prepack();
        let old = {
            let mut slot = self.replicas[replica]
                .model
                .write()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *slot, model)
        };
        lock_breaker(&self.breakers[replica]).reset();
        old
    }

    /// Runs `x` for `t` steps on whatever model `replica` is serving
    /// right now, without watchdog, breaker or event bookkeeping — the
    /// lifecycle's post-swap verification path.
    pub fn forward_serving(&self, replica: usize, x: &Tensor, t: usize) -> Tensor {
        let model = self.replicas[replica]
            .model
            .read()
            .unwrap_or_else(|e| e.into_inner());
        model.net.forward(x, t).logits
    }

    /// Executes one batch at `rung`, with watchdog + breaker + failover
    /// and (when a lifecycle is attached) manifest polling + canary
    /// mirroring.
    pub fn execute(&self, x: &Tensor, rung: RungLabel) -> BatchResult {
        let _span = ull_obs::span("serve.batch");
        ull_obs::counter_add("serve.batches", 1);
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        if self.cfg.chaos_execute_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                self.cfg.chaos_execute_delay_ms,
            ));
        }

        let trips_before = self.breaker_trips();
        let now = self.now_ms();
        let primary = self.route(now);
        let (logits, steps, version, healthy) = self.run_on(primary, x, rung);
        lock_breaker(&self.breakers[primary]).record(healthy, self.now_ms());

        let mut result = BatchResult {
            logits,
            steps,
            rung,
            replica: primary,
            version,
            healthy,
            retried_on_fallback: false,
        };
        if !healthy {
            if let Some(fb) = self.fallback_after(primary) {
                ull_obs::counter_add("serve.retried", 1);
                let (logits, steps, fb_version, fb_healthy) = self.run_on(fb, x, rung);
                lock_breaker(&self.breakers[fb]).record(fb_healthy, self.now_ms());
                result = BatchResult {
                    logits,
                    steps,
                    rung,
                    replica: fb,
                    version: fb_version,
                    healthy: fb_healthy,
                    retried_on_fallback: true,
                };
            }
        }

        ull_obs::counter_add(rung_counter(rung), 1);
        for &s in &result.steps {
            ull_obs::histogram_record(rung_steps_key(result.rung), s as u64);
        }
        let event = ServeEvent::Batch(BatchEvent {
            seq,
            at_ms: self.now_ms(),
            rung,
            replica: result.replica,
            version: result.version,
            healthy: result.healthy,
            retried: result.retried_on_fallback,
            breaker_states: self.breaker_states(),
        });
        self.recorder.observe(&event);
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
        if self.breaker_trips() > trips_before {
            self.flight_dump("breaker_trip");
        }

        // Lifecycle last: the client-visible answer above is already
        // decided, so nothing the lifecycle does (poll, canary mirror,
        // promote, rollback) can touch this batch's reply.
        let lifecycle = self
            .lifecycle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Some(mgr) = lifecycle {
            mgr.after_batch(self, seq, x, &result);
        }
        result
    }

    /// First replica whose breaker admits traffic; the last replica is
    /// the unconditional last resort when every breaker is open.
    fn route(&self, now_ms: u64) -> usize {
        for (i, b) in self.breakers.iter().enumerate() {
            if lock_breaker(b).allow(now_ms) {
                return i;
            }
        }
        self.replicas.len() - 1
    }

    /// Next replica after `primary` (by preference order, wrapping)
    /// whose breaker admits traffic right now.
    fn fallback_after(&self, primary: usize) -> Option<usize> {
        let n = self.replicas.len();
        let now = self.now_ms();
        (1..n)
            .map(|off| (primary + off) % n)
            .find(|&i| lock_breaker(&self.breakers[i]).allow(now))
    }

    /// Runs the rung on one replica. Returns `(logits, per-row steps,
    /// served model version, watchdog verdict)`.
    fn run_on(
        &self,
        replica: usize,
        x: &Tensor,
        rung: RungLabel,
    ) -> (Tensor, Vec<usize>, u64, bool) {
        // Counted before the chaos panic seam so the reconciliation
        // identity `replica_runs == batches + retried` holds even for
        // batches that die inside an injected panic.
        ull_obs::counter_add("serve.replica_runs", 1);
        self.maybe_panic(replica);
        let model = self.replicas[replica]
            .model
            .read()
            .unwrap_or_else(|e| e.into_inner());
        let batch = x.shape()[0];
        match rung {
            RungLabel::Full => {
                let out = model.net.forward(x, self.cfg.t_full);
                let healthy = match &model.envelope_full {
                    Some(env) => env.check(&out.stats.report()).is_empty(),
                    None => true,
                };
                (
                    out.logits,
                    vec![self.cfg.t_full; batch],
                    model.version,
                    healthy,
                )
            }
            RungLabel::Reduced => {
                let out = model.net.forward(x, self.cfg.t_reduced);
                let healthy = match &model.envelope_reduced {
                    Some(env) => env.check(&out.stats.report()).is_empty(),
                    None => true,
                };
                (
                    out.logits,
                    vec![self.cfg.t_reduced; batch],
                    model.version,
                    healthy,
                )
            }
            RungLabel::Anytime => {
                // Step counts are data-dependent here, so the fixed-T
                // envelopes do not apply: the rung is served unwatched
                // and always reports healthy. Sustained corruption is
                // still caught by the next fixed-T batch.
                let (logits, steps) = match &self.schedule {
                    Some(schedule) => {
                        let out = anytime_forward_scheduled(&model.net, x, schedule);
                        (out.logits, out.steps_used)
                    }
                    None => {
                        let out = model.net.forward(x, self.cfg.t_full);
                        (out.logits, vec![self.cfg.t_full; batch])
                    }
                };
                (logits, steps, model.version, true)
            }
        }
    }

    /// Chaos seam: burn one unit of the replica's panic budget, if any.
    fn maybe_panic(&self, replica: usize) {
        let armed = self.panic_budget[replica]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok();
        if armed {
            panic!("ull-serve: injected replica panic (chaos seam)");
        }
    }
}

fn rung_counter(rung: RungLabel) -> &'static str {
    match rung {
        RungLabel::Full => "serve.rung.full",
        RungLabel::Anytime => "serve.rung.anytime",
        RungLabel::Reduced => "serve.rung.reduced",
    }
}

/// Per-rung step-count histogram key (one value per batch row).
pub fn rung_steps_key(rung: RungLabel) -> &'static str {
    match rung {
        RungLabel::Full => "serve.steps.full",
        RungLabel::Anytime => "serve.steps.anytime",
        RungLabel::Reduced => "serve.steps.reduced",
    }
}

fn lock_breaker(m: &Mutex<CircuitBreaker>) -> std::sync::MutexGuard<'_, CircuitBreaker> {
    // A worker that panicked mid-batch (chaos seam) may poison a breaker
    // lock; the breaker itself is always in a consistent state, so the
    // poison flag is safely ignored.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_nn::NetworkBuilder;
    use ull_snn::SpikeSpec;
    use ull_tensor::init::{normal, seeded_rng};

    #[test]
    fn anytime_rung_caps_a_long_schedule_at_t_full() {
        let mut b = NetworkBuilder::new(3, 8, 5);
        b.conv2d(4, 3, 1, 1);
        b.threshold_relu(0.5);
        b.flatten();
        b.linear(3);
        let net = SnnNetwork::from_network(&b.build(), &[SpikeSpec::identity(0.5)]).unwrap();
        let cfg = ServeConfig {
            t_full: 3,
            ..ServeConfig::default()
        };
        let replica = ReplicaSpec {
            name: "primary".to_string(),
            net: net.clone(),
            envelope_full: None,
            envelope_reduced: None,
        };
        // Six steps of gates no multi-class row can clear: without the cap
        // every row would run to step 6.
        let schedule = AnytimeSchedule::uniform(6, f32::INFINITY);
        let engine = Engine::new(cfg, vec![replica], Some(schedule));
        let x = normal(&[4, 3, 8, 8], 0.0, 1.0, &mut seeded_rng(6));
        let out = engine.execute(&x, RungLabel::Anytime);
        assert_eq!(out.steps, vec![3; 4]);
        assert_eq!(out.logits, net.forward(&x, 3).logits);
    }
}
