//! CI smoke for the serving layer's wire surface: start a real TCP
//! server, drive 200 requests from concurrent connections — valid
//! traffic, already-expired deadlines, wrong shapes, non-finite pixels,
//! invalid JSON and an oversized frame — and assert every reply is the
//! right *typed* variant, then drain cleanly and check the persisted
//! metrics account for every admission.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin serve_smoke
//! ```
//!
//! Exits non-zero (panics) on any violation; `scripts/serve_smoke.sh`
//! wraps it for CI.

use std::io::Write as _;
use std::net::SocketAddr;

use ull_bench::workspace_root;
use ull_data::{generate, SynthCifarConfig};
use ull_nn::models;
use ull_serve::{
    connect_with_retry, read_frame, write_frame, Engine, ReplicaSpec, Reply, Request, RetryPolicy,
    ServeConfig, Server,
};
use ull_snn::{SnnNetwork, SpikeSpec};

const CLASSES: usize = 10;
const SIDE: usize = 8;
const VALID: usize = 170;
const EXPIRED: usize = 10;
const WRONG_SHAPE: usize = 6;
const WRONG_VOLUME: usize = 5;
const NON_FINITE: usize = 4;
const BAD_JSON: usize = 4;
const OVERSIZED: usize = 1;
const TOTAL: usize =
    VALID + EXPIRED + WRONG_SHAPE + WRONG_VOLUME + NON_FINITE + BAD_JSON + OVERSIZED;

fn request_reply(addr: SocketAddr, payload: &[u8]) -> Reply {
    let mut conn = connect_with_retry(addr, &RetryPolicy::default()).expect("connect");
    write_frame(&mut conn, payload).expect("send frame");
    let bytes = read_frame(&mut conn).expect("read reply");
    serde_json::from_str(&String::from_utf8(bytes).expect("utf-8")).expect("typed reply")
}

fn main() {
    assert_eq!(TOTAL, 200, "the smoke drives exactly 200 requests");
    ull_obs::set_enabled(true);
    ull_obs::reset();

    let dnn = models::vgg_micro(CLASSES, SIDE, 0.25, 7);
    let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
    let net = SnnNetwork::from_network(&dnn, &specs).expect("conversion");
    let cfg = ServeConfig {
        input_shape: vec![3, SIDE, SIDE],
        t_full: 3,
        t_reduced: 1,
        workers: 2,
        default_deadline_ms: 30_000,
        ..ServeConfig::default()
    };
    let engine = Engine::new(
        cfg,
        vec![ReplicaSpec {
            name: "primary".to_string(),
            net,
            envelope_full: None,
            envelope_reduced: None,
        }],
        None,
    );
    let mut server = Server::start(engine);
    let addr = server.listen("127.0.0.1:0").expect("bind");
    println!("serving on {addr}");

    let (_, test) = generate(&SynthCifarConfig::tiny(CLASSES));
    let images: Vec<Vec<f32>> = test
        .eval_batches(1)
        .take(20)
        .map(|b| b.images.data().to_vec())
        .collect();
    let volume = 3 * SIDE * SIDE;

    // Valid traffic from 4 concurrent connections.
    let mut predictions = 0usize;
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let images = images.clone();
            std::thread::spawn(move || {
                let mut conn = connect_with_retry(addr, &RetryPolicy::default()).expect("connect");
                let mut got = 0usize;
                let per_conn = VALID / 4 + usize::from(c < VALID % 4);
                for i in 0..per_conn {
                    let req = Request {
                        id: (c * 1_000 + i) as u64 + 1,
                        pixels: images[(c + i) % images.len()].clone(),
                        shape: vec![3, SIDE, SIDE],
                        deadline_ms: None,
                    };
                    write_frame(&mut conn, serde_json::to_string(&req).unwrap().as_bytes())
                        .expect("send");
                    let reply: Reply = serde_json::from_str(
                        &String::from_utf8(read_frame(&mut conn).unwrap()).unwrap(),
                    )
                    .expect("typed reply");
                    match reply {
                        Reply::Prediction { id, class, .. } => {
                            assert_eq!(id, (c * 1_000 + i) as u64 + 1);
                            assert!(class < CLASSES);
                            got += 1;
                        }
                        other => panic!("valid request got {other:?}"),
                    }
                }
                got
            })
        })
        .collect();
    for h in handles {
        predictions += h.join().expect("client thread");
    }
    assert_eq!(predictions, VALID);
    println!("{VALID} valid requests answered with predictions");

    // Already-expired deadlines → typed DeadlineExceeded, no inference.
    for i in 0..EXPIRED {
        let req = Request {
            id: 5_000 + i as u64,
            pixels: images[i % images.len()].clone(),
            shape: vec![3, SIDE, SIDE],
            deadline_ms: Some(0),
        };
        let reply = request_reply(addr, serde_json::to_string(&req).unwrap().as_bytes());
        assert!(
            matches!(reply, Reply::DeadlineExceeded { id, .. } if id == 5_000 + i as u64),
            "got {reply:?}"
        );
    }
    println!("{EXPIRED} expired deadlines rejected with DeadlineExceeded");

    // Wrong shape / wrong pixel count / non-finite pixels → BadRequest.
    let mut bad = 0usize;
    for i in 0..WRONG_SHAPE {
        let req = Request {
            id: 6_000 + i as u64,
            pixels: images[0].clone(),
            shape: vec![1, SIDE, SIDE],
            deadline_ms: None,
        };
        let reply = request_reply(addr, serde_json::to_string(&req).unwrap().as_bytes());
        assert!(matches!(reply, Reply::BadRequest { .. }), "got {reply:?}");
        bad += 1;
    }
    for i in 0..WRONG_VOLUME {
        let req = Request {
            id: 6_100 + i as u64,
            pixels: vec![0.5; i],
            shape: vec![3, SIDE, SIDE],
            deadline_ms: None,
        };
        let reply = request_reply(addr, serde_json::to_string(&req).unwrap().as_bytes());
        assert!(matches!(reply, Reply::BadRequest { .. }), "got {reply:?}");
        bad += 1;
    }
    for i in 0..NON_FINITE {
        // "1e999" parses to +inf — a wire-level non-finite pixel.
        let pixels: Vec<String> = (0..volume)
            .map(|p| {
                if p == i {
                    "1e999".into()
                } else {
                    "0.25".into()
                }
            })
            .collect();
        let json = format!(
            r#"{{"id": {}, "pixels": [{}], "shape": [3, {SIDE}, {SIDE}]}}"#,
            6_200 + i,
            pixels.join(",")
        );
        let reply = request_reply(addr, json.as_bytes());
        assert!(matches!(reply, Reply::BadRequest { .. }), "got {reply:?}");
        bad += 1;
    }
    for i in 0..BAD_JSON {
        let reply = request_reply(addr, format!("{{broken json #{i}").as_bytes());
        assert!(
            matches!(reply, Reply::BadRequest { id: 0, .. }),
            "got {reply:?}"
        );
        bad += 1;
    }
    // Oversized frame: rejected before allocation, connection closed.
    {
        use std::io::Read as _;
        let mut conn = connect_with_retry(addr, &RetryPolicy::default()).expect("connect");
        conn.write_all(&(2u32 << 30).to_be_bytes())
            .expect("send prefix");
        conn.flush().unwrap();
        let bytes = read_frame(&mut conn).expect("reply before close");
        let reply: Reply =
            serde_json::from_str(&String::from_utf8(bytes).unwrap()).expect("typed reply");
        assert!(
            matches!(reply, Reply::BadRequest { id: 0, .. }),
            "got {reply:?}"
        );
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).expect("read close");
        assert!(rest.is_empty(), "connection must close after framing error");
        bad += 1;
    }
    assert_eq!(
        bad,
        WRONG_SHAPE + WRONG_VOLUME + NON_FINITE + BAD_JSON + OVERSIZED
    );
    println!("{bad} malformed requests rejected with typed BadRequest");

    // Clean drain: every admission accounted for in the persisted
    // snapshot, and post-drain submissions shed with a typed reply.
    let reports_dir = workspace_root().join("reports");
    std::fs::create_dir_all(&reports_dir).expect("reports dir");
    let metrics_path = reports_dir.join("serve_smoke_metrics.json");
    let snap = server.shutdown_to(&metrics_path).expect("drain");
    ull_obs::set_enabled(false);
    let admitted = snap.counters.get("serve.admitted").copied().unwrap_or(0);
    let served = snap.counters.get("serve.served").copied().unwrap_or(0);
    let expired = snap
        .counters
        .get("serve.deadline_exceeded")
        .copied()
        .unwrap_or(0);
    let rejected = snap.counters.get("serve.bad_request").copied().unwrap_or(0);
    assert_eq!(admitted, (VALID + EXPIRED) as u64, "admissions: {admitted}");
    assert_eq!(served, VALID as u64, "served: {served}");
    assert_eq!(expired, EXPIRED as u64, "deadline_exceeded: {expired}");
    assert_eq!(rejected, bad as u64, "bad_request: {rejected}");
    assert!(metrics_path.exists(), "metrics snapshot persisted");
    println!(
        "drained cleanly: {admitted} admitted = {served} served + {expired} expired; \
         {rejected} rejected pre-admission; metrics at {}",
        metrics_path.display()
    );
    println!("serve smoke passed: {TOTAL} requests, every reply typed");
}
