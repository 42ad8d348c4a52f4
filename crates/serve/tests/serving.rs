//! End-to-end serving tests over the in-process client and the TCP
//! listener: typed replies on every path, deadline handling, load
//! shedding, breaker-driven failover, panic isolation, graceful drain,
//! and thread-count invariance of clean runs.

use std::path::PathBuf;
use std::time::Duration;

use ull_serve::{
    connect_with_retry, reconcile, BreakerState, Reply, Request, RetryPolicy, RungLabel,
    ServeConfig, Server, BREAKER_THRESHOLD,
};
use ull_tensor::parallel;

mod common;
use common::*;

#[test]
fn predictions_flow_end_to_end() {
    let data = test_data();
    let cfg = base_config();
    let engine = primary_engine(&cfg, &data);
    let server = Server::start(engine);
    let client = server.client();
    for req in requests(&data, 12) {
        match client.call(req) {
            Reply::Prediction {
                class,
                logits,
                rung,
                steps,
                ..
            } => {
                assert!(class < CLASSES);
                assert_eq!(logits.len(), CLASSES);
                assert_eq!(rung, RungLabel::Full, "idle queue serves full quality");
                assert_eq!(steps, cfg.t_full);
                assert!(logits.iter().all(|l| l.is_finite()));
            }
            other => panic!("expected a prediction, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn expired_deadlines_get_typed_replies_without_inference() {
    let data = test_data();
    let cfg = base_config();
    let engine = primary_engine(&cfg, &data);
    let server = Server::start(engine);
    let client = server.client();
    let mut req = requests(&data, 1).remove(0);
    req.deadline_ms = Some(0);
    assert!(matches!(
        client.call(req),
        Reply::DeadlineExceeded { id: 1, .. }
    ));
    server.shutdown();
}

#[test]
fn overload_sheds_with_typed_overloaded_and_nothing_is_dropped() {
    let data = test_data();
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 4,
        max_batch: 1,
        max_linger_ms: 0,
        chaos_execute_delay_ms: 40,
        ..base_config()
    };
    let engine = primary_engine(&cfg, &data);
    let server = Server::start(engine);
    let client = server.client();
    let reqs: Vec<Request> = requests(&data, 4)
        .into_iter()
        .cycle()
        .take(24)
        .enumerate()
        .map(|(i, mut r)| {
            r.id = i as u64 + 1;
            r
        })
        .collect();
    let receivers: Vec<_> = reqs.into_iter().map(|r| client.submit(r)).collect();
    let mut shed = 0;
    let mut served = 0;
    for (i, rx) in receivers.into_iter().enumerate() {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(Reply::Overloaded { id, .. }) => {
                assert_eq!(id, i as u64 + 1);
                shed += 1;
            }
            Ok(Reply::Prediction { id, .. }) => {
                assert_eq!(id, i as u64 + 1);
                served += 1;
            }
            other => panic!("request {} got {other:?}", i + 1),
        }
    }
    assert_eq!(shed + served, 24, "exactly one reply per request");
    assert!(shed > 0, "a 4-deep queue under a 24-burst must shed");
    assert!(served >= 4, "queued requests must still be served");
    server.shutdown();
}

#[test]
fn breaker_trips_on_faulted_primary_and_fails_over() {
    let data = test_data();
    let cfg = ServeConfig {
        workers: 1,
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
    for req in requests(&data, 10) {
        assert!(
            client.call(req).is_prediction(),
            "failover must keep serving predictions"
        );
    }
    let all_events = server.engine().take_events();
    let events: Vec<_> = all_events.iter().filter_map(|e| e.batch()).collect();
    let trips = server.engine().breaker_trips();
    assert!(trips >= 1, "faulted primary must trip its breaker");
    assert_eq!(
        server.engine().breaker_states()[0],
        BreakerState::Open,
        "primary stays quarantined (backoff far exceeds the test)"
    );
    assert!(
        events.iter().any(|e| e.retried && e.replica == 1),
        "excursions must be retried on the fallback"
    );
    let first_open = events
        .iter()
        .position(|e| e.breaker_states[0] == BreakerState::Open)
        .expect("an event after the trip");
    assert!(
        first_open < BREAKER_THRESHOLD + 1,
        "breaker must trip within {} batches, tripped after {}",
        BREAKER_THRESHOLD,
        first_open + 1
    );
    assert!(
        events[first_open..]
            .iter()
            .all(|e| e.replica == 1 && e.healthy),
        "post-trip traffic is served healthily by the fallback"
    );
    server.shutdown();
}

#[test]
fn half_open_admits_exactly_one_probe_and_doubles_on_failure() {
    // Engine-level half-open behaviour on the injected clock
    // (`chaos_advance_clock`) — no sleeps. The faulted primary trips
    // after `BREAKER_THRESHOLD` excursions; quarantines are minutes long
    // so real time elapsed inside the test (milliseconds) cannot cross a
    // boundary on its own.
    let data = test_data();
    let cfg = ServeConfig {
        workers: 1,
        backoff_base_ms: 1_000_000, // q1 ∈ [500s, 1000s), q2 ∈ [1000s, 2000s)
        backoff_max_ms: 1 << 40,
        ..base_config()
    };
    let engine = private_engine(
        &cfg,
        vec![
            replica("faulted-primary", faulted_net(11, 1e-2), &data, &cfg),
            replica("clean-fallback", clean_net(11), &data, &cfg),
        ],
    );
    let x = data.eval_batches(1).next().unwrap().images;

    // Trip: each of the first `BREAKER_THRESHOLD` batches excurses on the
    // primary and is retried; the last of them trips the breaker.
    for i in 1..=BREAKER_THRESHOLD {
        let r = engine.execute(&x, RungLabel::Full);
        assert!(r.retried_on_fallback);
        let open = engine.breaker_states()[0] == BreakerState::Open;
        assert_eq!(open, i == BREAKER_THRESHOLD, "after excursion {i}");
    }
    assert_eq!(engine.breaker_trips(), 1);

    // While quarantined, every batch routes straight to the fallback.
    for _ in 0..3 {
        let r = engine.execute(&x, RungLabel::Full);
        assert_eq!(r.replica, 1);
        assert!(!r.retried_on_fallback, "no probe while Open");
    }
    // 400s < q1's 500s floor: still quarantined.
    engine.chaos_advance_clock(400_000);
    assert_eq!(engine.execute(&x, RungLabel::Full).replica, 1);
    assert_eq!(engine.breaker_trips(), 1);

    // 1000s ≥ q1 for every jitter value: exactly one probe is admitted;
    // it fails, re-opening with a doubled quarantine.
    engine.chaos_advance_clock(600_000);
    let probe = engine.execute(&x, RungLabel::Full);
    assert!(
        probe.retried_on_fallback,
        "probe ran on the primary, failed, fell back"
    );
    assert_eq!(engine.breaker_trips(), 2);
    assert_eq!(engine.breaker_states()[0], BreakerState::Open);
    for _ in 0..3 {
        let r = engine.execute(&x, RungLabel::Full);
        assert_eq!(r.replica, 1);
        assert!(!r.retried_on_fallback, "only the probe touched the primary");
    }

    // The doubled quarantine outlives q1's entire range: 990s after the
    // failed probe (q2 ≥ 1000s) there is still no probe...
    engine.chaos_advance_clock(990_000);
    assert_eq!(engine.execute(&x, RungLabel::Full).replica, 1);
    assert_eq!(
        engine.breaker_trips(),
        2,
        "no probe before the doubled backoff"
    );
    // ...but 2000s ≥ q2 for every jitter value admits the next one.
    engine.chaos_advance_clock(1_010_000);
    let probe2 = engine.execute(&x, RungLabel::Full);
    assert!(probe2.retried_on_fallback);
    assert_eq!(engine.breaker_trips(), 3);

    // Exactly two probes (the two retried batches after the trip) in the
    // whole timeline.
    let retried = engine
        .take_events()
        .iter()
        .filter_map(|e| e.batch())
        .skip(BREAKER_THRESHOLD) // the batches that tripped it
        .filter(|e| e.retried)
        .count();
    assert_eq!(retried, 2, "exactly one probe per elapsed quarantine");
}

#[test]
fn worker_panics_are_isolated_and_retried() {
    let data = test_data();
    let cfg = ServeConfig {
        workers: 1,
        ..base_config()
    };
    let engine = primary_engine(&cfg, &data);
    let server = Server::start(engine);
    let client = server.client();
    let reqs = requests(&data, 3);

    // One armed panic: the retry succeeds and the client still gets an
    // answer.
    server.engine().inject_panics(0, 1);
    assert!(client.call(reqs[0].clone()).is_prediction());

    // Two armed panics: the single-request batch fails twice and the
    // reply is a typed error — not a dead worker.
    server.engine().inject_panics(0, 2);
    match client.call(reqs[1].clone()) {
        Reply::Error { id, reason, .. } => {
            assert_eq!(id, 2);
            assert!(reason.contains("panicked"), "reason: {reason}");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    // The worker survived both episodes.
    assert!(client.call(reqs[2].clone()).is_prediction());
    server.shutdown();
}

#[test]
fn drain_flushes_the_queue_and_persists_metrics() {
    let data = test_data();
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 2,
        chaos_execute_delay_ms: 5,
        ..base_config()
    };
    let engine = primary_engine(&cfg, &data);
    let server = Server::start(engine);
    let client = server.client();
    let receivers: Vec<_> = requests(&data, 8)
        .into_iter()
        .map(|r| client.submit(r))
        .collect();

    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("drain_metrics.json");
    let snap = server.shutdown_to(&path).expect("snapshot persisted");

    // Every admitted request was flushed before the workers exited.
    for rx in receivers {
        let reply = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("drain must flush every queued request");
        assert!(reply.is_prediction(), "got {reply:?}");
    }
    assert_eq!(snap.counters.get("serve.admitted"), Some(&8));
    assert_eq!(snap.counters.get("serve.served"), Some(&8));
    // The reconciliation identities hold on the drained snapshot:
    // admitted == served + deadline_exceeded + error_replies,
    // replica_runs == batches + retried, and the lifecycle identity
    // (all-zero here — no manifest was ever published).
    reconcile(&snap).expect("drained snapshot reconciles");
    assert!(
        snap.counters.contains_key("serve.batches")
            && snap.counters.contains_key("serve.replica_runs"),
        "engine accounting counters must be present in the snapshot"
    );
    let disk: ull_obs::MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(disk.counters, snap.counters);
    reconcile(&disk).expect("persisted snapshot reconciles too");

    // Submissions after drain get a typed shed reply, not a hang.
    let late = client.call(requests(&data, 1).remove(0));
    assert!(matches!(late, Reply::Overloaded { id: 1, .. }));
}

#[test]
fn shutdown_to_replaces_an_existing_snapshot_atomically() {
    let data = test_data();
    let cfg = base_config();
    let engine = primary_engine(&cfg, &data);
    let server = Server::start(engine);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("shutdown_to-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    std::fs::write(&path, "{\"stale\": \"snapshot of an earlier run").unwrap();

    let snap = server.shutdown_to(&path).expect("snapshot persisted");
    let disk: ull_obs::MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap())
            .expect("the persisted snapshot parses");
    assert_eq!(disk.counters, snap.counters);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["metrics.json"], "no temporary file may survive");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_round_trip_speaks_typed_replies() {
    use ull_serve::{read_frame, write_frame};

    let data = test_data();
    let cfg = base_config();
    let engine = primary_engine(&cfg, &data);
    let mut server = Server::start(engine);
    let addr = server.listen("127.0.0.1:0").unwrap();

    // Dial through the bounded-retry path: even if this thread wins the
    // race against the accept loop's first `accept()`, the jittered
    // backoff rides it out instead of failing the test.
    let mut conn = connect_with_retry(addr, &RetryPolicy::default()).unwrap();
    let req = requests(&data, 1).remove(0);
    write_frame(&mut conn, serde_json::to_string(&req).unwrap().as_bytes()).unwrap();
    let reply: Reply =
        serde_json::from_str(&String::from_utf8(read_frame(&mut conn).unwrap()).unwrap()).unwrap();
    assert!(reply.is_prediction(), "got {reply:?}");

    // Valid frame, invalid JSON → typed BadRequest on the same
    // connection (framing stays in sync).
    write_frame(&mut conn, b"{not json").unwrap();
    let reply: Reply =
        serde_json::from_str(&String::from_utf8(read_frame(&mut conn).unwrap()).unwrap()).unwrap();
    assert!(matches!(reply, Reply::BadRequest { .. }), "got {reply:?}");
    drop(conn);
    server.shutdown();
}

#[test]
fn clean_runs_are_invariant_to_ull_threads() {
    let data = test_data();
    let run = |threads: usize| -> Vec<Vec<u32>> {
        parallel::with_threads(threads, || {
            let cfg = ServeConfig {
                workers: 1,
                ..base_config()
            };
            let engine = primary_engine(&cfg, &data);
            let server = Server::start(engine);
            let client = server.client();
            let logits: Vec<Vec<u32>> = requests(&data, 6)
                .into_iter()
                .map(|r| match client.call(r) {
                    Reply::Prediction { logits, .. } => {
                        logits.iter().map(|l| l.to_bits()).collect()
                    }
                    other => panic!("got {other:?}"),
                })
                .collect();
            // Served kernels run at a budget of 1 whatever the pool; the same
            // six images as one direct batch cross the pool.
            let batch = data.eval_batches(6).next().expect("six images").images;
            let direct = server.engine().execute(&batch, RungLabel::Full).logits;
            let direct_rows: Vec<Vec<u32>> = direct
                .data()
                .chunks(CLASSES)
                .map(|row| row.iter().map(|l| l.to_bits()).collect())
                .collect();
            assert_eq!(
                logits, direct_rows,
                "served rows differ from one direct batch"
            );
            server.shutdown();
            logits
        })
    };
    let serial = run(1);
    let parallel_run = run(4);
    assert_eq!(
        serial, parallel_run,
        "served logits must be bit-identical across ULL_THREADS"
    );
}

/// Serve workers run their kernels on their own thread: served traffic
/// spawns no kernel thread, while the same engine called directly from
/// this thread at two threads still fans out a batch of 2.
///
/// A kernel budget does not reach the threads a server spawns, so the
/// served half runs at the process default (`ULL_THREADS`, else the
/// cores). It catches a worker that lost its one-thread budget only where
/// that default is ≥ 2, as in CI's unset, `ULL_THREADS=2` and
/// `ULL_THREADS=4` runs; at `ULL_THREADS=1` only the control half tests.
#[test]
fn served_batches_spawn_no_kernel_threads() {
    let data = test_data();
    let engine = primary_engine(&base_config(), &data);
    let server = Server::start(engine);
    let client = server.client();
    let pending: Vec<_> = requests(&data, 12)
        .into_iter()
        .map(|r| client.submit(r))
        .collect();
    for reply in pending {
        let reply = reply.recv().expect("one reply per request");
        assert!(reply.is_prediction(), "got {reply:?}");
    }
    let spawned = |server: &Server| {
        let snap = server.engine().registry().snapshot();
        snap.counters.get("parallel.spawned").copied().unwrap_or(0)
    };
    assert_eq!(spawned(&server), 0, "a serve worker spawned kernel threads");

    // Positive control: the counter sees a direct call's fan-out.
    let batch = data.eval_batches(2).next().expect("a batch of 2").images;
    parallel::with_threads(2, || server.engine().execute(&batch, RungLabel::Full));
    assert!(spawned(&server) > 0, "a direct batch of 2 spawned nothing");
    server.shutdown();
}
