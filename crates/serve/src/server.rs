//! The serving front end: bounded admission queue, dynamic batcher,
//! panic-isolated workers, an in-process [`Client`], a TCP listener
//! speaking the length-prefixed JSON protocol, and graceful drain.
//!
//! Invariants:
//!
//! * **Exactly one reply per admitted submission.** Every path out of
//!   [`Client::submit`] — validation failure, shed, deadline expiry,
//!   successful inference, worker panic after retries — sends exactly
//!   one typed [`Reply`] on the request's channel. Nothing is dropped
//!   silently.
//! * **Workers are panic-isolated.** A batch that panics inside the
//!   engine (chaos seam, or a genuine bug) is caught, split in half,
//!   and each half retried once; requests in a half that panics again
//!   get a typed [`Reply::Error`]. The worker thread itself survives.
//! * **Drain is graceful.** [`Server::shutdown`] stops admissions
//!   (late submissions get a typed `Overloaded`), lets workers flush
//!   every queued request, joins them, and returns the final metrics
//!   snapshot; [`Server::shutdown_to`] additionally persists it
//!   atomically so a supervisor restart cannot lose the run's counters.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ull_obs::MetricsSnapshot;
use ull_tensor::{parallel, Tensor};

use crate::config::ServeConfig;
use crate::engine::Engine;
use crate::ladder::choose_rung;
use crate::protocol::{
    read_frame, trace_id, write_control_reply, write_reply, ControlReply, ControlRequest,
    FrameError, Reply, Request, RungLabel,
};

/// One admitted request waiting for a worker.
struct Pending {
    id: u64,
    /// Deterministic trace id (see [`trace_id`]), echoed in the reply
    /// and joining this request across wire- and engine-side timelines.
    trace: u64,
    data: Vec<f32>,
    admitted: Instant,
    deadline: Instant,
    reply: mpsc::Sender<Reply>,
}

struct QueueState {
    q: VecDeque<Pending>,
    draining: bool,
}

struct Shared {
    cfg: ServeConfig,
    engine: Engine,
    queue: Mutex<QueueState>,
    cv: Condvar,
    /// Serial source for client connections; each [`Client`] handed out
    /// by [`Server::client`] / accepted TCP connection gets the next
    /// serial, in creation order.
    conn_seq: AtomicU64,
}

fn lock_queue(shared: &Shared) -> MutexGuard<'_, QueueState> {
    // Workers never panic while holding the queue lock (inference runs
    // outside it), but be robust to poisoning anyway: the queue is
    // structurally consistent at every await point.
    shared.queue.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running inference server. Dropping without calling
/// [`shutdown`](Self::shutdown) aborts workers ungracefully (their
/// threads are detached); always shut down explicitly.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    accept_stop: Arc<AtomicBool>,
    accept_threads: Vec<(SocketAddr, JoinHandle<()>)>,
}

/// In-process handle for submitting requests; cheap to clone.
///
/// Each client carries a connection serial assigned at creation;
/// requests submitted through it get consecutive request serials, and
/// `trace_id(conn_serial, req_serial)` is the reply's trace id. Clones
/// share the serial space (they are the same logical connection); use
/// [`Client::fork`] for a new logical connection.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    conn: u64,
    req_seq: Arc<AtomicU64>,
}

impl Server {
    /// Starts `cfg.workers` worker threads over `engine`. Each worker
    /// runs inside [`parallel::with_threads`] at one thread: its kernels
    /// stay on its own thread. [`Engine::execute`] called from any other
    /// thread uses that thread's kernel budget or the process default.
    pub fn start(engine: Engine) -> Server {
        let cfg = engine.config().clone();
        let workers_n = cfg.workers;
        let shared = Arc::new(Shared {
            cfg,
            engine,
            queue: Mutex::new(QueueState {
                q: VecDeque::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            conn_seq: AtomicU64::new(0),
        });
        let workers = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        // Serving's parallelism is its workers: each runs
                        // its kernels on its own thread, spawning none.
                        parallel::with_threads(1, || {
                            ull_obs::with_registry(shared.engine.registry(), || {
                                worker_loop(&shared)
                            })
                        })
                    })
                    .expect("spawn worker")
            })
            .collect();
        Server {
            shared,
            workers,
            accept_stop: Arc::new(AtomicBool::new(false)),
            accept_threads: Vec::new(),
        }
    }

    /// An in-process client sharing this server's queue. Each call
    /// allocates the next connection serial, so clients created in a
    /// fixed order get identical trace ids across reruns.
    pub fn client(&self) -> Client {
        Client {
            conn: self.shared.conn_seq.fetch_add(1, Ordering::SeqCst),
            req_seq: Arc::new(AtomicU64::new(0)),
            shared: Arc::clone(&self.shared),
        }
    }

    /// The engine (for soak harnesses that need chaos seams/events).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves the framed JSON
    /// protocol on it. Returns the bound address. Each connection gets
    /// its own thread handling requests serially in arrival order.
    pub fn listen(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let client = self.client();
        let stop = Arc::clone(&self.accept_stop);
        let handle = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Each TCP connection is its own logical connection:
                    // fork a fresh serial so per-connection request
                    // serials restart at 0.
                    let client = client.fork();
                    // Connection threads are detached: they exit when the
                    // peer hangs up, and during drain their submissions
                    // get typed `Overloaded` replies.
                    let _ = std::thread::Builder::new()
                        .name("serve-conn".to_string())
                        .spawn(move || serve_connection(stream, &client));
                }
            })?;
        self.accept_threads.push((local, handle));
        Ok(local)
    }

    /// Graceful drain: stop admitting, flush the queue, join workers
    /// and the accept loop, return the final snapshot of the engine's
    /// registry.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        {
            let mut st = lock_queue(&self.shared);
            st.draining = true;
            self.shared.cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The queue is drained: the depth gauge must agree (it would
        // otherwise stay at the last pre-drain value forever).
        let registry = self.shared.engine.registry();
        ull_obs::with_registry(registry, || ull_obs::gauge_set("serve.queue_depth", 0));
        self.accept_stop.store(true, Ordering::SeqCst);
        for (addr, handle) in self.accept_threads.drain(..) {
            // Wake the accept loop with a throwaway connection so it
            // observes the stop flag.
            let _ = TcpStream::connect(addr);
            let _ = handle.join();
        }
        // Every run ends with a final flight-recorder context file (when
        // the recorder is armed).
        self.shared.engine.flight_dump("drain");
        registry.snapshot()
    }

    /// [`shutdown`](Self::shutdown), then persist the snapshot as JSON
    /// with [`ull_nn::write_atomic`] before returning it, so a crash
    /// mid-write leaves the previous snapshot, never a torn one. The
    /// persisted snapshot is the one [`reconcile`] audits — a supervisor
    /// can verify after a restart that no admitted request went
    /// unanswered.
    pub fn shutdown_to(self, path: &Path) -> std::io::Result<MetricsSnapshot> {
        let snap = self.shutdown();
        let json = serde_json::to_string_pretty(&snap)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        ull_nn::write_atomic(path, json.as_bytes())?;
        Ok(snap)
    }
}

/// Audits a drained server's [`MetricsSnapshot`] against the serving
/// layer's accounting identities:
///
/// * every admitted request was answered exactly once:
///   `admitted == served + deadline_exceeded + error_replies`;
/// * every replica run is a batch or a fallback retry:
///   `replica_runs == batches + retried`;
/// * every canary resolved or is still running:
///   `lifecycle.canary_started == lifecycle.promotions +
///   lifecycle.rollbacks + lifecycle.candidate_active` (gauge).
///
/// Counters that never fired read as zero, so the identities hold for
/// snapshots from servers without lifecycle or fallback traffic too.
///
/// # Errors
///
/// Each violated identity, with its numbers.
pub fn reconcile(snap: &MetricsSnapshot) -> Result<(), String> {
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let g = |name: &str| snap.gauges.get(name).copied().unwrap_or(0);
    let mut problems = Vec::new();
    let admitted = c("serve.admitted");
    let answered = c("serve.served") + c("serve.deadline_exceeded") + c("serve.error_replies");
    if admitted != answered {
        problems.push(format!(
            "admitted {admitted} != served {} + deadline_exceeded {} + error_replies {}",
            c("serve.served"),
            c("serve.deadline_exceeded"),
            c("serve.error_replies"),
        ));
    }
    let runs = c("serve.replica_runs");
    if runs != c("serve.batches") + c("serve.retried") {
        problems.push(format!(
            "replica_runs {runs} != batches {} + retried {}",
            c("serve.batches"),
            c("serve.retried"),
        ));
    }
    let started = c("serve.lifecycle.canary_started");
    let resolved = c("serve.lifecycle.promotions")
        + c("serve.lifecycle.rollbacks")
        + g("serve.lifecycle.candidate_active");
    if started != resolved {
        problems.push(format!(
            "lifecycle.canary_started {started} != promotions {} + rollbacks {} + \
             candidate_active {}",
            c("serve.lifecycle.promotions"),
            c("serve.lifecycle.rollbacks"),
            g("serve.lifecycle.candidate_active"),
        ));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

impl Client {
    /// A new logical connection on the same server: fresh connection
    /// serial, request serials restarting at 0.
    pub fn fork(&self) -> Client {
        Client {
            conn: self.shared.conn_seq.fetch_add(1, Ordering::SeqCst),
            req_seq: Arc::new(AtomicU64::new(0)),
            shared: Arc::clone(&self.shared),
        }
    }

    /// This client's connection serial (the first [`trace_id`] input).
    pub fn conn_serial(&self) -> u64 {
        self.conn
    }

    /// Validates and enqueues a request. Always results in exactly one
    /// reply on the returned channel.
    pub fn submit(&self, req: Request) -> mpsc::Receiver<Reply> {
        ull_obs::with_registry(self.shared.engine.registry(), || self.admit(req))
    }

    fn admit(&self, req: Request) -> mpsc::Receiver<Reply> {
        let (tx, rx) = mpsc::channel();
        let reply = |r: Reply| {
            let _ = tx.send(r);
        };
        // Every submission gets a trace id, even ones rejected before
        // admission — the serial is consumed either way so ids stay
        // aligned with submission order.
        let trace = trace_id(self.conn, self.req_seq.fetch_add(1, Ordering::SeqCst));
        if let Err(reason) = validate(&self.shared.cfg, &req) {
            ull_obs::counter_add("serve.bad_request", 1);
            reply(Reply::BadRequest {
                id: req.id,
                trace,
                reason,
            });
            return rx;
        }
        let deadline_ms = req
            .deadline_ms
            .unwrap_or(self.shared.cfg.default_deadline_ms);
        let admitted = Instant::now();
        let pending = Pending {
            id: req.id,
            trace,
            data: req.pixels,
            admitted,
            deadline: admitted + Duration::from_millis(deadline_ms),
            reply: tx.clone(),
        };
        {
            let mut st = lock_queue(&self.shared);
            if st.draining || st.q.len() >= self.shared.cfg.queue_capacity {
                drop(st);
                ull_obs::counter_add("serve.shed", 1);
                reply(Reply::Overloaded { id: req.id, trace });
                return rx;
            }
            st.q.push_back(pending);
            ull_obs::counter_add("serve.admitted", 1);
            ull_obs::gauge_set("serve.queue_depth", st.q.len() as u64);
            self.shared.cv.notify_one();
        }
        rx
    }

    /// Submit and block for the reply.
    pub fn call(&self, req: Request) -> Reply {
        let id = req.id;
        self.submit(req).recv().unwrap_or(Reply::Error {
            id,
            trace: 0,
            reason: "reply channel closed".to_string(),
        })
    }

    /// Answers a telemetry control request from live state — engine
    /// getters and one queue-lock peek, never an enqueue — so scrapes
    /// stay responsive while the batch workers are saturated.
    pub fn control(&self, req: ControlRequest) -> ControlReply {
        let (queue_depth, draining) = {
            let st = lock_queue(&self.shared);
            (st.q.len() as u64, st.draining)
        };
        let engine = &self.shared.engine;
        match req {
            ControlRequest::Metrics { id } => {
                let replicas = engine.replica_names();
                let versions = (0..replicas.len())
                    .map(|r| engine.serving_version(r))
                    .collect();
                ControlReply::Metrics {
                    id,
                    snapshot: engine.registry().snapshot(),
                    replicas,
                    breakers: engine.breaker_states(),
                    versions,
                    breaker_trips: engine.breaker_trips(),
                    flight_dumps: engine.flight_dumps(),
                    queue_depth,
                    draining,
                    uptime_ms: engine.now_ms(),
                }
            }
            ControlRequest::Health { id } => {
                let breakers = engine.breaker_states();
                let any_admitting = breakers
                    .iter()
                    .any(|b| !matches!(b, crate::breaker::BreakerState::Open));
                ControlReply::Health {
                    id,
                    ok: !draining && any_admitting,
                    draining,
                    queue_depth,
                    breakers,
                }
            }
        }
    }
}

/// Structural request validation: shape, volume, finiteness.
fn validate(cfg: &ServeConfig, req: &Request) -> Result<(), String> {
    if req.shape != cfg.input_shape {
        return Err(format!(
            "shape {:?} does not match the served model's input {:?}",
            req.shape, cfg.input_shape
        ));
    }
    let want = cfg.sample_volume();
    if req.pixels.len() != want {
        return Err(format!(
            "{} pixels do not fill shape {:?} ({} expected)",
            req.pixels.len(),
            req.shape,
            want
        ));
    }
    if let Some(i) = req.pixels.iter().position(|p| !p.is_finite()) {
        return Err(format!("pixel {i} is not finite"));
    }
    Ok(())
}

/// Pops queued requests until one is still live, replying
/// `DeadlineExceeded` to every expired request on the way. Keeps the
/// depth gauge current on every dequeue — admission alone would leave
/// it stale at the last pre-drain value.
fn pop_live(st: &mut QueueState, now: Instant) -> Option<Pending> {
    while let Some(p) = st.q.pop_front() {
        ull_obs::gauge_set("serve.queue_depth", st.q.len() as u64);
        if now >= p.deadline {
            ull_obs::counter_add("serve.deadline_exceeded", 1);
            let _ = p.reply.send(Reply::DeadlineExceeded {
                id: p.id,
                trace: p.trace,
            });
            continue;
        }
        ull_obs::histogram_record(
            "serve.lat.queue",
            now.saturating_duration_since(p.admitted).as_micros() as u64,
        );
        return Some(p);
    }
    None
}

fn worker_loop(shared: &Shared) {
    let cfg = &shared.cfg;
    let linger = Duration::from_millis(cfg.max_linger_ms);
    loop {
        // Assemble a batch: block for the first live request, then
        // linger briefly for more, up to `max_batch`.
        let (batch, depth_behind) = {
            let mut st = lock_queue(shared);
            let first = loop {
                if let Some(p) = pop_live(&mut st, Instant::now()) {
                    break p;
                }
                if st.draining {
                    return;
                }
                st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            };
            let form_start = Instant::now();
            let mut batch = vec![first];
            let linger_until = form_start + linger;
            while batch.len() < cfg.max_batch {
                if let Some(p) = pop_live(&mut st, Instant::now()) {
                    batch.push(p);
                    continue;
                }
                let now = Instant::now();
                if st.draining || now >= linger_until {
                    break;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, linger_until - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
            ull_obs::gauge_set("serve.queue_depth", st.q.len() as u64);
            ull_obs::histogram_record("serve.lat.batch", form_start.elapsed().as_micros() as u64);
            (batch, st.q.len())
        };

        // Rung choice from queue pressure + the tightest deadline.
        let now = Instant::now();
        let min_remaining = batch
            .iter()
            .map(|p| p.deadline.saturating_duration_since(now).as_millis() as u64)
            .min();
        let rung = choose_rung(cfg, depth_behind, min_remaining);

        execute_and_reply(shared, batch, rung, true);
    }
}

/// Runs one assembled batch through the engine with panic isolation.
/// On a panic and `may_retry`, the batch is split in half and each half
/// retried once; a half that panics again yields typed `Error` replies.
fn execute_and_reply(shared: &Shared, batch: Vec<Pending>, rung: RungLabel, may_retry: bool) {
    let x = match batch_tensor(&shared.cfg, &batch) {
        Ok(x) => x,
        Err(reason) => {
            for p in batch {
                ull_obs::counter_add("serve.error_replies", 1);
                let _ = p.reply.send(Reply::Error {
                    id: p.id,
                    trace: p.trace,
                    reason: reason.clone(),
                });
            }
            return;
        }
    };
    let forward_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| shared.engine.execute(&x, rung)));
    ull_obs::histogram_record(
        "serve.lat.forward",
        forward_start.elapsed().as_micros() as u64,
    );
    match outcome {
        Ok(result) => {
            let classes = result.logits.shape()[1];
            let data = result.logits.data();
            for (r, p) in batch.into_iter().enumerate() {
                let row = &data[r * classes..(r + 1) * classes];
                let class = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                ull_obs::counter_add("serve.served", 1);
                ull_obs::histogram_record(
                    "serve.lat.total",
                    p.admitted.elapsed().as_micros() as u64,
                );
                let _ = p.reply.send(Reply::Prediction {
                    id: p.id,
                    trace: p.trace,
                    class,
                    logits: row.to_vec(),
                    rung: result.rung,
                    steps: result.steps[r],
                });
            }
        }
        Err(_) => {
            ull_obs::counter_add("serve.worker_panics", 1);
            if may_retry && batch.len() > 1 {
                let mut batch = batch;
                let tail = batch.split_off(batch.len() / 2);
                execute_and_reply(shared, batch, rung, false);
                execute_and_reply(shared, tail, rung, false);
            } else if may_retry {
                execute_and_reply(shared, batch, rung, false);
            } else {
                // Retries exhausted: this is an incident — capture the
                // recent-event context before the typed error replies.
                shared.engine.flight_dump("worker_panic");
                for p in batch {
                    ull_obs::counter_add("serve.error_replies", 1);
                    let _ = p.reply.send(Reply::Error {
                        id: p.id,
                        trace: p.trace,
                        reason: "inference worker panicked twice on this batch".to_string(),
                    });
                }
            }
        }
    }
}

/// Stacks validated per-request pixel buffers into a `[n, shape…]`
/// tensor. Validation at admission makes failure unreachable, but the
/// error path still replies rather than panicking.
fn batch_tensor(cfg: &ServeConfig, batch: &[Pending]) -> Result<Tensor, String> {
    let mut shape = vec![batch.len()];
    shape.extend_from_slice(&cfg.input_shape);
    let mut data = Vec::with_capacity(batch.len() * cfg.sample_volume());
    for p in batch {
        data.extend_from_slice(&p.data);
    }
    Tensor::from_vec(data, &shape).map_err(|e| format!("batch assembly failed: {e}"))
}

/// Per-connection loop: framed JSON requests in, framed JSON replies
/// out, strictly in order. Framing errors that cannot be resynced
/// (oversized prefix, I/O) close the connection after a best-effort
/// typed reply.
///
/// The stream gets `TCP_NODELAY` first: a reply larger than one segment
/// must not have its last partial segment held for the client's
/// delayed ACK. A socket that refuses the option is dropped.
fn serve_connection(stream: TcpStream, client: &Client) {
    ull_obs::with_registry(client.shared.engine.registry(), || {
        serve_frames(stream, client)
    });
}

fn serve_frames(mut stream: TcpStream, client: &Client) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    loop {
        match read_frame(&mut stream) {
            Ok(payload) => {
                let text = String::from_utf8_lossy(&payload);
                match serde_json::from_str::<Request>(&text) {
                    Ok(req) => {
                        let reply = client.call(req);
                        if write_reply(&mut stream, &reply).is_err() {
                            return;
                        }
                    }
                    // Not an inference request: try the control plane
                    // before rejecting. Control frames are answered
                    // right here on the connection thread — they never
                    // touch the admission queue or the batch workers.
                    Err(e) => match serde_json::from_str::<ControlRequest>(&text) {
                        Ok(creq) => {
                            ull_obs::counter_add("serve.scrapes", 1);
                            let reply = client.control(creq);
                            if write_control_reply(&mut stream, &reply).is_err() {
                                return;
                            }
                        }
                        Err(_) => {
                            ull_obs::counter_add("serve.bad_request", 1);
                            let reply = Reply::BadRequest {
                                id: 0,
                                trace: 0,
                                reason: format!("invalid request: {e}"),
                            };
                            if write_reply(&mut stream, &reply).is_err() {
                                return;
                            }
                        }
                    },
                }
            }
            Err(FrameError::Closed) => return,
            Err(e @ FrameError::Oversized(_)) => {
                ull_obs::counter_add("serve.bad_request", 1);
                let _ = write_reply(
                    &mut stream,
                    &Reply::BadRequest {
                        id: 0,
                        trace: 0,
                        reason: e.to_string(),
                    },
                );
                return;
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReplicaSpec;
    use ull_nn::NetworkBuilder;
    use ull_snn::{SnnNetwork, SpikeSpec};

    #[test]
    fn accepted_connections_have_nodelay_set() {
        let mut b = NetworkBuilder::new(3, 8, 5);
        b.conv2d(4, 3, 1, 1);
        b.threshold_relu(0.5);
        b.flatten();
        b.linear(3);
        let net = SnnNetwork::from_network(&b.build(), &[SpikeSpec::identity(0.5)]).unwrap();
        let replica = ReplicaSpec {
            name: "primary".to_string(),
            net,
            envelope_full: None,
            envelope_reduced: None,
        };
        let server = Server::start(Engine::new(ServeConfig::default(), vec![replica], None));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        // The clone shares the accepted socket, so it reads the option
        // `serve_connection` set on it.
        let probe = accepted.try_clone().unwrap();
        assert!(!probe.nodelay().unwrap(), "sockets start with Nagle on");
        let client = server.client();
        let conn = std::thread::spawn(move || serve_connection(accepted, &client));
        // Hanging up ends the connection loop without sending a frame,
        // so the test touches no serving counters.
        drop(peer);
        conn.join().unwrap();
        assert!(probe.nodelay().unwrap());
        server.shutdown();
    }
}
