//! Telemetry-plane integration tests: queue-depth gauge freshness,
//! per-request trace propagation (and its `ULL_THREADS` invariance),
//! the in-band `Metrics`/`Health` scrape frames, stage histograms, and
//! the flight recorder's incident dumps.

use std::path::PathBuf;
use std::time::Duration;

use ull_serve::{
    connect_with_retry, parse_blackbox, read_frame, reconcile, trace_id, write_frame,
    BlackboxConfig, BreakerState, ControlReply, ControlRequest, Reply, RetryPolicy, ServeConfig,
    Server,
};
use ull_tensor::parallel;

mod common;
use common::*;

fn blackbox_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("telemetry-bb-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Regression for the stale depth gauge: `serve.queue_depth` used to be
/// written only on admission, so it read "1" forever once traffic went
/// quiet. It must be current after every dequeue and zero after drain.
#[test]
fn queue_depth_gauge_tracks_dequeues_and_drain() {
    let data = test_data();
    let cfg = ServeConfig {
        workers: 1,
        ..base_config()
    };
    let server = Server::start(primary_engine(&cfg, &data));
    let client = server.client();

    // Serial calls: after each reply the queue is empty, so the gauge
    // must read 0 — not the pre-fix value of 1.
    for req in requests(&data, 3) {
        assert!(client.call(req).is_prediction());
        assert_eq!(
            server
                .engine()
                .registry()
                .snapshot()
                .gauges
                .get("serve.queue_depth"),
            Some(&0),
            "gauge must be updated on dequeue, not only on admission"
        );
    }

    // A burst that drains through shutdown also ends at 0.
    let receivers: Vec<_> = requests(&data, 6)
        .into_iter()
        .map(|r| client.submit(r))
        .collect();
    let snap = server.shutdown();
    for rx in receivers {
        assert!(rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .is_prediction());
    }
    assert_eq!(snap.gauges.get("serve.queue_depth"), Some(&0));
    reconcile(&snap).expect("drained snapshot reconciles");

    // The per-stage histograms landed alongside, with counts tied to
    // the counters they refine.
    let served = snap.counters["serve.served"];
    let batches = snap.counters["serve.batches"];
    assert_eq!(snap.histograms["serve.lat.total"].count, served);
    assert_eq!(snap.histograms["serve.lat.queue"].count, served);
    assert_eq!(snap.histograms["serve.lat.batch"].count, batches);
    assert_eq!(snap.histograms["serve.lat.forward"].count, batches);
    assert_eq!(snap.histograms["serve.steps.full"].count, served);
    assert_eq!(
        snap.histograms["serve.steps.full"].max, cfg.t_full as u64,
        "an idle queue serves every row at full quality"
    );
}

/// Every reply echoes `trace_id(conn_serial, req_serial)`, including
/// pre-admission rejections, and forked connections get disjoint ids.
#[test]
fn replies_echo_deterministic_trace_ids() {
    let data = test_data();
    let cfg = base_config();
    let engine = primary_engine(&cfg, &data);
    let server = Server::start(engine);
    let client = server.client();
    let conn = client.conn_serial();
    for (i, req) in requests(&data, 4).into_iter().enumerate() {
        let reply = client.call(req);
        assert!(reply.is_prediction());
        assert_eq!(
            reply.trace(),
            trace_id(conn, i as u64),
            "reply {i} must echo its derived trace id"
        );
    }
    // A rejected request still consumes its serial and carries a trace.
    let mut bad = requests(&data, 1).remove(0);
    bad.shape = vec![1, SIDE, SIDE];
    let reply = client.call(bad);
    assert!(matches!(reply, Reply::BadRequest { .. }));
    assert_eq!(reply.trace(), trace_id(conn, 4));

    // A fork is a new logical connection: same request serial, distinct
    // trace space.
    let fork = client.fork();
    assert_ne!(fork.conn_serial(), conn);
    let reply = fork.call(requests(&data, 1).remove(0));
    assert_eq!(reply.trace(), trace_id(fork.conn_serial(), 0));
    assert_ne!(reply.trace(), trace_id(conn, 0));
    server.shutdown();
}

/// Trace ids and the per-rung step histograms are bit-identical across
/// `ULL_THREADS` and reruns: traces are pure functions of the serials,
/// and step counts are pure functions of the (deterministic) forwards.
///
/// The thread count reaches only the engine build (its envelope
/// profiling): served forwards run at a budget of 1 on the worker, so this
/// is a rerun check of the served path. A multi-thread forward is covered
/// by `clean_runs_are_invariant_to_ull_threads`, whose direct arm crosses
/// the pool; without an anytime schedule every step count is `t_full`, so
/// a direct arm here would record nothing that could differ.
#[test]
fn trace_ids_and_step_histograms_are_invariant_to_ull_threads() {
    let data = test_data();
    let run = |threads: usize| -> (Vec<u64>, String) {
        let cfg = ServeConfig {
            workers: 1,
            ..base_config()
        };
        let engine = parallel::with_threads(threads, || primary_engine(&cfg, &data));
        let server = Server::start(engine);
        let client = server.client();
        let traces: Vec<u64> = requests(&data, 6)
            .into_iter()
            .map(|r| {
                let reply = client.call(r);
                assert!(reply.is_prediction());
                reply.trace()
            })
            .collect();
        let snap = server.shutdown();
        let steps: std::collections::BTreeMap<String, _> = snap
            .histograms
            .iter()
            .filter(|(k, _)| k.starts_with("serve.steps."))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        (traces, serde_json::to_string(&steps).unwrap())
    };
    let (traces_a, steps_a) = run(1);
    let (traces_b, steps_b) = run(4);
    let (traces_c, steps_c) = run(1);
    assert_eq!(
        traces_a, traces_b,
        "trace ids must not depend on ULL_THREADS"
    );
    assert_eq!(
        traces_a, traces_c,
        "trace ids must be identical across reruns"
    );
    assert_eq!(
        steps_a, steps_b,
        "step histograms must not depend on ULL_THREADS"
    );
    assert_eq!(
        steps_a, steps_c,
        "step histograms must be identical across reruns"
    );
}

/// `Metrics`/`Health` frames are answered on the connection thread from
/// live state — they never enqueue, and a quiet-period scrape agrees
/// exactly with the shutdown snapshot.
#[test]
fn in_band_scrape_serves_live_state_and_reconciles_with_shutdown() {
    let data = test_data();
    let cfg = base_config();
    let mut server = Server::start(primary_engine(&cfg, &data));
    let addr = server.listen("127.0.0.1:0").unwrap();
    let client = server.client();
    for req in requests(&data, 5) {
        assert!(client.call(req).is_prediction());
    }

    let mut conn = connect_with_retry(addr, &RetryPolicy::default()).unwrap();
    let scrape = |conn: &mut std::net::TcpStream, req: &ControlRequest| -> ControlReply {
        write_frame(conn, serde_json::to_string(req).unwrap().as_bytes()).unwrap();
        serde_json::from_str(&String::from_utf8(read_frame(conn).unwrap()).unwrap()).unwrap()
    };

    let admitted = || server.engine().registry().snapshot().counters["serve.admitted"];
    let admitted_before = admitted();
    let reply = scrape(&mut conn, &ControlRequest::Metrics { id: 7 });
    let ControlReply::Metrics {
        id,
        snapshot,
        replicas,
        breakers,
        queue_depth,
        draining,
        flight_dumps,
        ..
    } = reply
    else {
        panic!("expected a Metrics reply, got {reply:?}");
    };
    assert_eq!(id, 7);
    assert_eq!(replicas, vec!["primary".to_string()]);
    assert_eq!(breakers, vec![BreakerState::Closed]);
    assert_eq!(queue_depth, 0);
    assert!(!draining);
    assert_eq!(flight_dumps, 0, "recorder is unarmed in this test");
    assert_eq!(snapshot.counters["serve.admitted"], 5);
    assert_eq!(snapshot.counters["serve.scrapes"], 1);
    assert_eq!(
        snapshot.histograms["serve.lat.total"].count, 5,
        "the scrape carries the live histograms"
    );
    assert_eq!(
        admitted(),
        admitted_before,
        "scrapes must never touch the inference queue"
    );

    let health = scrape(&mut conn, &ControlRequest::Health { id: 8 });
    let ControlReply::Health {
        id, ok, draining, ..
    } = health
    else {
        panic!("expected a Health reply, got {health:?}");
    };
    assert_eq!(id, 8);
    assert!(ok && !draining);

    // Quiet period: one final scrape, then drain. The shutdown snapshot
    // must agree with that scrape *exactly* — the scrape counter is
    // incremented before the snapshot copy, so nothing is in flight.
    let last = scrape(&mut conn, &ControlRequest::Metrics { id: 9 });
    let ControlReply::Metrics { snapshot: live, .. } = last else {
        panic!("expected a Metrics reply");
    };
    drop(conn);
    let final_snap = server.shutdown();
    assert_eq!(live.counters, final_snap.counters);
    assert_eq!(live.gauges, final_snap.gauges);
    assert_eq!(
        serde_json::to_string(&live.histograms).unwrap(),
        serde_json::to_string(&final_snap.histograms).unwrap(),
        "final scrape and shutdown snapshot must reconcile exactly"
    );
    assert_eq!(live.counters["serve.scrapes"], 3);
    reconcile(&final_snap).expect("snapshot reconciles");
}

/// Two engines serving at the same time in one process, each built
/// inside its own registry, keep disjoint counts: each drained snapshot
/// holds exactly its own traffic and reconciles on its own.
#[test]
fn concurrent_engines_keep_disjoint_registries() {
    let data = test_data();
    let cfg = base_config();
    let loads = [5u64, 8];
    let both_started = std::sync::Barrier::new(loads.len());
    let snaps: Vec<ull_obs::MetricsSnapshot> = std::thread::scope(|s| {
        let runs: Vec<_> = loads
            .iter()
            .map(|&n| {
                let (data, cfg, both_started) = (&data, &cfg, &both_started);
                s.spawn(move || {
                    let server = Server::start(primary_engine(cfg, data));
                    let client = server.client();
                    both_started.wait();
                    let pending: Vec<_> = requests(data, n as usize)
                        .into_iter()
                        .map(|r| client.submit(r))
                        .collect();
                    for rx in pending {
                        assert!(rx.recv().unwrap().is_prediction());
                    }
                    server.shutdown()
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for (snap, &n) in snaps.iter().zip(&loads) {
        assert_eq!(snap.counters["serve.admitted"], n, "{:?}", snap.counters);
        assert_eq!(snap.counters["serve.served"], n);
        assert_eq!(snap.histograms["serve.lat.total"].count, n);
        reconcile(snap).expect("each engine reconciles on its own counts");
    }
}

/// An armed flight recorder dumps on a breaker trip and again on drain;
/// both dumps re-parse and carry the recent-event ring.
#[test]
fn breaker_trip_and_drain_write_parseable_dumps() {
    let dir = blackbox_dir("trip");
    let data = test_data();
    // Two workers (base config): one trip must still write one dump.
    let cfg = ServeConfig {
        blackbox: BlackboxConfig {
            dir: Some(dir.to_string_lossy().into_owned()),
            capacity: 32,
        },
        ..base_config()
    };
    let engine = private_engine(
        &cfg,
        vec![
            replica("faulted-primary", faulted_net(11, 1e-2), &data, &cfg),
            replica("clean-fallback", clean_net(11), &data, &cfg),
        ],
    );
    let server = Server::start(engine);
    let client = server.client();
    // Waves of two full batches, so the two workers run side by side and
    // the batch that trips the primary's breaker overlaps the other
    // worker's batch — the overlap that used to dump one trip twice.
    let reqs = requests(&data, 2 * cfg.max_batch);
    for _ in 0..4 {
        let pending: Vec<_> = reqs.iter().map(|r| client.submit(r.clone())).collect();
        for rx in pending {
            assert!(rx.recv().unwrap().is_prediction());
        }
    }
    let trips = server.engine().breaker_trips();
    assert!(trips >= 1);
    assert!(server.engine().flight_dumps() >= 1);
    server.shutdown();

    let mut reasons = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        assert_ne!(
            path.extension().and_then(|x| x.to_str()),
            Some("tmp"),
            "no stray .tmp files after atomic dumps"
        );
        let dump = parse_blackbox(&path).expect("every dump re-parses");
        assert!(!dump.events.is_empty(), "dumps carry the event ring");
        if dump.reason == "breaker_trip" {
            assert_eq!(
                dump.breaker_states[0],
                BreakerState::Open,
                "trip dump captures the open breaker"
            );
        }
        reasons.push(dump.reason);
    }
    let trip_dumps = reasons.iter().filter(|r| *r == "breaker_trip").count() as u64;
    assert_eq!(trip_dumps, trips, "one dump per breaker trip: {reasons:?}");
    assert!(reasons.iter().any(|r| r == "drain"), "{reasons:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker panic that exhausts its retries triggers a dump too.
#[test]
fn exhausted_worker_panics_write_a_dump() {
    let dir = blackbox_dir("panic");
    let data = test_data();
    let cfg = ServeConfig {
        workers: 1,
        blackbox: BlackboxConfig {
            dir: Some(dir.to_string_lossy().into_owned()),
            capacity: 32,
        },
        ..base_config()
    };
    let engine = primary_engine(&cfg, &data);
    let server = Server::start(engine);
    let client = server.client();
    let reqs = requests(&data, 2);
    server.engine().inject_panics(0, 2);
    assert!(matches!(client.call(reqs[0].clone()), Reply::Error { .. }));
    assert!(
        server.engine().flight_dumps() >= 1,
        "the exhausted panic must dump before the typed error"
    );
    assert!(client.call(reqs[1].clone()).is_prediction());
    server.shutdown();
    let reasons: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            parse_blackbox(&e.unwrap().path())
                .expect("dump re-parses")
                .reason
        })
        .collect();
    assert!(reasons.iter().any(|r| r == "worker_panic"), "{reasons:?}");
    std::fs::remove_dir_all(&dir).ok();
}
