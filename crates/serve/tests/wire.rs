//! Framing and socket options of the wire protocol: every frame leaves
//! in one write, both ends of a connection run with `TCP_NODELAY`, split
//! frames still parse, and a TCP round trip costs about what an
//! in-process call costs — no ~40 ms Nagle × delayed-ACK stall.
//!
//! Nothing here reads the process-global metrics registry, so these
//! tests cannot be disturbed by counters from concurrent tests.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use ull_nn::models;
use ull_serve::{
    connect_with_retry, read_frame, write_control_reply, write_frame, write_reply, BreakerState,
    ControlReply, Engine, ReplicaSpec, Reply, Request, RetryPolicy, RungLabel, ServeConfig, Server,
};
use ull_snn::{SnnNetwork, SpikeSpec};

const CLASSES: usize = 3;
const SIDE: usize = 8;
const VOLUME: usize = 3 * SIDE * SIDE;

/// A `Write` that records every `write` call it receives.
#[derive(Default)]
struct Recorder {
    writes: Vec<Vec<u8>>,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The wire bytes of one frame: big-endian length ‖ payload.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// Asserts that `write` issued exactly one `write` call carrying the
/// frame of `payload`.
fn assert_one_write(write: impl FnOnce(&mut Recorder) -> io::Result<()>, payload: &[u8]) {
    let mut rec = Recorder::default();
    write(&mut rec).unwrap();
    assert_eq!(rec.writes.len(), 1, "a frame must leave in one write");
    assert_eq!(rec.writes[0], framed(payload));
}

fn request(id: u64) -> Request {
    Request {
        id,
        pixels: (0..VOLUME).map(|i| (i % 7) as f32 / 7.0).collect(),
        shape: vec![3, SIDE, SIDE],
        deadline_ms: None,
    }
}

fn start_server() -> (Server, SocketAddr) {
    let dnn = models::vgg_micro(CLASSES, SIDE, 0.25, 11);
    let specs = vec![SpikeSpec::identity(0.5); dnn.threshold_nodes().len()];
    let net = SnnNetwork::from_network(&dnn, &specs).unwrap();
    let cfg = ServeConfig {
        input_shape: vec![3, SIDE, SIDE],
        t_full: 2,
        t_reduced: 1,
        max_linger_ms: 2,
        ..ServeConfig::default()
    };
    let replica = ReplicaSpec {
        name: "primary".to_string(),
        net,
        envelope_full: None,
        envelope_reduced: None,
    };
    let mut server = Server::start(Engine::new(cfg, vec![replica], None));
    let addr = server.listen("127.0.0.1:0").unwrap();
    (server, addr)
}

fn round_trip(stream: &mut TcpStream, req: &Request) -> Reply {
    write_frame(stream, serde_json::to_string(req).unwrap().as_bytes()).unwrap();
    let payload = read_frame(stream).unwrap();
    serde_json::from_str(&String::from_utf8(payload).unwrap()).unwrap()
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

#[test]
fn every_frame_writer_makes_exactly_one_write() {
    for payload in [&b""[..], b"hello", &vec![b'x'; 200 << 10]] {
        assert_one_write(|w| write_frame(w, payload), payload);
    }

    let reply = Reply::Prediction {
        id: 3,
        trace: 99,
        class: 1,
        logits: vec![0.25, -1.0, 7.5],
        rung: RungLabel::Full,
        steps: 2,
    };
    let json = serde_json::to_string(&reply).unwrap();
    assert_one_write(|w| write_reply(w, &reply), json.as_bytes());

    let control = ControlReply::Health {
        id: 4,
        ok: true,
        draining: false,
        queue_depth: 2,
        breakers: vec![BreakerState::Closed, BreakerState::Open],
    };
    let json = serde_json::to_string(&control).unwrap();
    assert_one_write(|w| write_control_reply(w, &control), json.as_bytes());
}

#[test]
fn dialed_connections_have_nodelay_set() -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let stream = connect_with_retry(listener.local_addr()?, &RetryPolicy::default())?;
    assert!(stream.nodelay()?);
    Ok(())
}

#[test]
fn a_frame_split_across_two_delayed_writes_is_answered() {
    let (server, addr) = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Without Nagle the prefix is sure to travel as a segment of its own.
    stream.set_nodelay(true).unwrap();
    let frame = framed(serde_json::to_string(&request(7)).unwrap().as_bytes());
    stream.write_all(&frame[..4]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    stream.write_all(&frame[4..]).unwrap();
    let payload = read_frame(&mut stream).unwrap();
    let reply: Reply = serde_json::from_str(&String::from_utf8(payload).unwrap()).unwrap();
    assert!(reply.is_prediction(), "{reply:?}");
    assert_eq!(reply.id(), 7);
    drop(stream);
    server.shutdown();
}

/// Stall gate, as a ratio of two paths timed back to back on one
/// server: a sequential TCP round trip must cost at most 3× an
/// in-process `Client::call`. Both pay the same 2 ms batch linger and
/// forward; a Nagle × delayed-ACK stall adds ~40 ms per direction and
/// reads as a ratio of 20× or more.
#[test]
fn tcp_round_trip_costs_about_an_in_process_call() {
    let (server, addr) = start_server();
    let client = server.client();
    let mut stream = connect_with_retry(addr, &RetryPolicy::default()).unwrap();
    let (mut tcp, mut local) = (Vec::new(), Vec::new());
    for i in 0..21 {
        let t = Instant::now();
        let reply = round_trip(&mut stream, &request(i));
        tcp.push(t.elapsed());
        assert!(reply.is_prediction(), "{reply:?}");

        let t = Instant::now();
        let reply = client.call(request(i));
        local.push(t.elapsed());
        assert!(reply.is_prediction(), "{reply:?}");
    }
    let (tcp, local) = (median(tcp), median(local));
    let ratio = tcp.as_secs_f64() / local.as_secs_f64();
    assert!(
        ratio <= 3.0,
        "median TCP round trip {tcp:?} is {ratio:.1}× the in-process call {local:?}"
    );
    drop(stream);
    server.shutdown();
}
