//! Load generation against `ull-serve`: closed loops over TCP or the
//! in-process client, and the open-loop Poisson generator.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

use rand::Rng;
use ull_serve::{
    connect_with_retry, read_frame, write_frame, Client, Engine, ReplicaSpec, Reply, Request,
    RetryPolicy, RungLabel, Server,
};
use ull_tensor::init::{mix64, seeded_rng};

use crate::common::{quantile, Tracer};
use crate::model::{serve_config, ServeModel, IMAGE, POOL};

/// Loopback connections (and generator threads) of the closed loops: one
/// per core of the 2-core reference machine.
pub const CONNECTIONS: u64 = 2;

/// Starts the server under test over the model, listening on loopback.
pub fn start(model: &ServeModel) -> (Server, SocketAddr) {
    let engine = Engine::new(
        serve_config(),
        vec![ReplicaSpec {
            name: "primary".to_string(),
            net: model.snn.clone(),
            envelope_full: None,
            envelope_reduced: None,
        }],
        Some(model.schedule.clone()),
    );
    let mut server = Server::start(engine);
    let addr = server.listen("127.0.0.1:0").expect("bind loopback");
    (server, addr)
}

/// How one request ended, as the client saw it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A Prediction whose logits match the reference.
    Ok,
    Shed,
    Deadline,
    Error,
    /// A Prediction whose logits, steps or class differ from the reference.
    Wrong,
}

#[derive(Clone, Copy)]
pub struct Outcome {
    pub kind: Kind,
    pub latency_ms: f64,
    pub rung: Option<RungLabel>,
    /// Whether the answered class equals the Full-rung class of the input.
    pub agrees_with_full: bool,
}

impl Outcome {
    fn of(model: &ServeModel, i: usize, reply: &Reply, latency_ms: f64) -> Outcome {
        let (kind, rung, agrees) = match reply {
            Reply::Prediction { class, rung, .. } => {
                let kind = if model.check(i, reply) {
                    Kind::Ok
                } else {
                    Kind::Wrong
                };
                (kind, Some(*rung), *class == model.full_class(i))
            }
            Reply::Overloaded { .. } => (Kind::Shed, None, false),
            Reply::DeadlineExceeded { .. } => (Kind::Deadline, None, false),
            Reply::BadRequest { .. } | Reply::Error { .. } => (Kind::Error, None, false),
        };
        Outcome {
            kind,
            latency_ms,
            rung,
            agrees_with_full: agrees,
        }
    }

    /// A request that never got a reply (broken connection or channel).
    fn error(latency_ms: f64) -> Outcome {
        Outcome {
            kind: Kind::Error,
            latency_ms,
            rung: None,
            agrees_with_full: false,
        }
    }
}

/// Everything one load phase observed.
#[derive(Default)]
pub struct LoadReport {
    pub outcomes: Vec<Outcome>,
    pub elapsed_s: f64,
    /// Frame sizes (payload plus the 4-byte prefix) seen on the wire.
    pub request_bytes: Vec<f64>,
    pub reply_bytes: Vec<f64>,
}

impl LoadReport {
    pub fn ok_latencies(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.kind == Kind::Ok)
            .map(|o| o.latency_ms)
            .collect()
    }

    pub fn count(&self, kind: Kind) -> usize {
        self.outcomes.iter().filter(|o| o.kind == kind).count()
    }

    /// Requests the server got wrong: wrong predictions, error replies and
    /// lost replies. Shed and timed-out requests got the typed answer the
    /// server promises under overload; they count against `ok_share` and
    /// `rps`, not here.
    pub fn failed(&self) -> usize {
        self.count(Kind::Wrong) + self.count(Kind::Error)
    }

    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.ok_latencies(), q)
    }

    /// Share of predictions whose class matches the Full-rung class.
    pub fn full_agreement(&self) -> f64 {
        let answered: Vec<&Outcome> = self.outcomes.iter().filter(|o| o.rung.is_some()).collect();
        let agree = answered.iter().filter(|o| o.agrees_with_full).count();
        agree as f64 / answered.len().max(1) as f64
    }
}

/// Where a closed-loop client sends its requests.
#[derive(Clone, Copy)]
pub enum Transport<'a> {
    /// Length-prefixed JSON over loopback TCP.
    Tcp(SocketAddr),
    /// The in-process `Client::call`, skipping framing and JSON.
    InProcess(&'a Server),
}

/// How long a closed loop runs.
#[derive(Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Requests(usize),
}

pub fn request(model: &ServeModel, id: u64, i: usize) -> Request {
    Request {
        id,
        pixels: model.pixels(i),
        shape: vec![3, IMAGE, IMAGE],
        deadline_ms: None,
    }
}

/// Runs `f` inside a span when tracing.
fn traced<R>(tracer: Option<&Tracer>, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

/// One TCP round trip with ull-serve's own framing; returns the reply and
/// the two frame sizes.
fn tcp_call(
    stream: &mut TcpStream,
    req: &Request,
    tracer: Option<&Tracer>,
) -> Result<(Reply, usize, usize), String> {
    let id = req.id;
    let json = traced(tracer, "protocol.encode", id, || serde_json::to_string(req))
        .map_err(|e| e.to_string())?;
    traced(tracer, "protocol.write", id, || {
        write_frame(stream, json.as_bytes())
    })
    .map_err(|e| e.to_string())?;
    let payload =
        traced(tracer, "protocol.read", id, || read_frame(stream)).map_err(|e| e.to_string())?;
    let reply = traced(tracer, "protocol.decode", id, || {
        serde_json::from_str::<Reply>(&String::from_utf8_lossy(&payload))
    })
    .map_err(|e| e.to_string())?;
    Ok((reply, json.len() + 4, payload.len() + 4))
}

/// Closed loop: `CONNECTIONS` clients, each sending its next request as
/// soon as the previous reply lands. Inputs come from the seeded pool.
pub fn closed_loop(
    model: &ServeModel,
    transport: Transport<'_>,
    seed: u64,
    budget: Budget,
    tracer: Option<&Tracer>,
) -> LoadReport {
    let start = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = seeded_rng(mix64(seed, &[c]));
                    let mut stream = match transport {
                        Transport::Tcp(addr) => Some(
                            connect_with_retry(addr, &RetryPolicy::default())
                                .expect("connect to the server under test"),
                        ),
                        Transport::InProcess(_) => None,
                    };
                    let client = match transport {
                        Transport::InProcess(server) => Some(server.client()),
                        Transport::Tcp(_) => None,
                    };
                    let mut rep = LoadReport::default();
                    for n in 0u64.. {
                        let done = match budget {
                            Budget::Seconds(sec) => start.elapsed().as_secs_f64() >= sec,
                            Budget::Requests(k) => n as usize >= k,
                        };
                        if done {
                            break;
                        }
                        let i = rng.gen_range(0..POOL);
                        let id = (c << 32) | n;
                        let req = request(model, id, i);
                        let t0 = Instant::now();
                        let result = traced(tracer, "client.call", id, || match &mut stream {
                            Some(stream) => tcp_call(stream, &req, tracer),
                            None => Ok((client.as_ref().unwrap().call(req), 0, 0)),
                        });
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        match result {
                            Ok((reply, req_bytes, reply_bytes)) => {
                                rep.outcomes.push(Outcome::of(model, i, &reply, ms));
                                rep.request_bytes.push(req_bytes as f64);
                                rep.reply_bytes.push(reply_bytes as f64);
                            }
                            Err(e) => {
                                eprintln!("connection {c}: {e}");
                                rep.outcomes.push(Outcome::error(ms));
                                break;
                            }
                        }
                    }
                    rep
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let mut report = LoadReport {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..LoadReport::default()
    };
    for rep in per_client {
        report.outcomes.extend(rep.outcomes);
        report.request_bytes.extend(rep.request_bytes);
        report.reply_bytes.extend(rep.reply_bytes);
    }
    report
}

/// Open loop: one thread submits through `Client::submit` on a seeded
/// Poisson schedule at `rate` requests/s for `seconds`, polling replies
/// between submissions. Latency runs from each request's due time, so a
/// late generator still charges the wait to the server. Returns once
/// every reply has landed.
pub fn open_loop(
    model: &ServeModel,
    client: &Client,
    seed: u64,
    rate: f64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> LoadReport {
    let mut rng = seeded_rng(mix64(seed, &[0x0be7]));
    let mut report = LoadReport::default();
    let mut pending: Vec<(usize, Instant, Receiver<Reply>)> = Vec::new();
    let start = Instant::now();
    let mut next_due_s = 0.0f64;
    let mut id = 0u64;
    loop {
        let now = Instant::now();
        let due = start + Duration::from_secs_f64(next_due_s);
        if next_due_s < seconds && due <= now {
            let i = rng.gen_range(0..POOL);
            id += 1;
            let req = request(model, id, i);
            let rx = traced(tracer, "client.submit", id, || client.submit(req));
            pending.push((i, due, rx));
            let u: f64 = rng.gen();
            next_due_s += -(1.0 - u).ln() / rate;
            continue;
        }
        let polled = Instant::now();
        pending.retain(|(i, due, rx)| match rx.try_recv() {
            Ok(reply) => {
                let ms = polled.saturating_duration_since(*due).as_secs_f64() * 1e3;
                report.outcomes.push(Outcome::of(model, *i, &reply, ms));
                false
            }
            Err(TryRecvError::Empty) => true,
            Err(TryRecvError::Disconnected) => {
                report.outcomes.push(Outcome::error(0.0));
                false
            }
        });
        if next_due_s >= seconds && pending.is_empty() {
            break;
        }
        let mut nap = Duration::from_micros(200);
        if next_due_s < seconds {
            nap = nap.min(due.saturating_duration_since(Instant::now()));
        }
        std::thread::sleep(nap);
    }
    report.elapsed_s = seconds;
    report
}

/// Warms the request path before the measured window: the pack cache,
/// the thread pool and each worker's first batches, through both the
/// in-process client and the TCP listener.
pub fn warm_up(model: &ServeModel, server: &Server, addr: SocketAddr) {
    closed_loop(model, Transport::Tcp(addr), 1, Budget::Requests(2), None);
    let client = server.client();
    let burst: Vec<_> = (0..32)
        .map(|k| client.submit(request(model, k as u64, k % POOL)))
        .collect();
    for rx in burst {
        let _ = rx.recv();
    }
}
