//! The traced run: per-layer metrics, measured from outside the crates.
//!
//! Every number comes from timing calls into public functions or from
//! counters and histograms the crates already record. Timings run with
//! `ull-obs` off; it is switched on only around the windows whose counters
//! and histograms are read, so its own cost does not leak into the times.
//! The workload decides which traffic feeds the `server.*`/`ladder.*`
//! metrics and which window `obs.overhead_share` compares; the kernel,
//! engine, training and conversion probes are the same on every workload.

use std::hint::black_box;
use std::time::Instant;

use rand::Rng;
use ull_core::{collect_preactivations, scale_layers};
use ull_data::Dataset;
use ull_nn::cross_entropy_grad;
use ull_obs::MetricsSnapshot;
use ull_robust::anytime_forward_scheduled;
use ull_serve::{reconcile, Reply, RungLabel};
use ull_snn::{evaluate_snn, packed_for, SnnNetwork, SnnOp};
use ull_tensor::conv::{conv2d, conv2d_packed_into, ConvScratch};
use ull_tensor::init::{mix64, seeded_rng};
use ull_tensor::pool::{avgpool2d, maxpool2d};
use ull_tensor::{conv2d_events, matmul_tb_events, matmul_tb_packed_into, matmul_transpose_b};
use ull_tensor::{SpikeBatch, Tensor};

use crate::common::{fingerprint, mean, median, time_ms, Args, Metrics, RunResult, Tracer};
use crate::model::{ServeModel, BATCH, CLASSES, MAX_BATCH, T_FULL};
use crate::serve::{self, Budget, LoadReport, Transport};
use crate::pipeline;
use crate::{set_up_pipeline, set_up_serving};

/// Tally of the run's own output checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    fn requests(&mut self, report: &LoadReport) {
        self.attempted += report.outcomes.len() as u64;
        self.failed += report.failed() as u64;
    }
}

fn obs_window<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    ull_obs::reset();
    ull_obs::set_enabled(true);
    let r = f();
    let snap = ull_obs::snapshot();
    ull_obs::set_enabled(false);
    (r, snap)
}

fn counter(snap: &MetricsSnapshot, key: &str) -> f64 {
    snap.counters.get(key).copied().unwrap_or(0) as f64
}

fn hist_ms(snap: &MetricsSnapshot, key: &str, q: f64) -> f64 {
    snap.histograms
        .get(key)
        .map(|h| h.quantile(q) as f64 / 1e3)
        .unwrap_or(0.0)
}

pub fn run(args: &Args) -> RunResult {
    let tracer = Tracer::new();
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let serving = set_up_serving();
    let model = &serving.model;
    let window = (args.seconds / 2.0).max(1.0);
    let short = window.min(2.0);

    // ull_serve::protocol — TCP against the in-process client on the same
    // inputs and concurrency, both untraced.
    let tcp_window = if args.workload == "serve_tcp" {
        window
    } else {
        short
    };
    let tcp = serve::closed_loop(
        model,
        Transport::Tcp(serving.addr),
        args.seed,
        Budget::Seconds(tcp_window),
        None,
    );
    let in_process = serve::closed_loop(
        model,
        Transport::InProcess(&serving.server),
        args.seed,
        Budget::Seconds(tcp_window),
        None,
    );
    checks.requests(&tcp);
    checks.requests(&in_process);
    m.put(
        "protocol.transport_ms",
        tcp.p(0.5) - in_process.p(0.5),
        "ms",
    );
    m.put("protocol.codec_us", codec_us(model), "us");
    m.put("protocol.request_bytes", mean(&tcp.request_bytes), "bytes");
    m.put("protocol.reply_bytes", mean(&tcp.reply_bytes), "bytes");

    // ull_serve::{server, ladder} — the workload's traffic with obs on.
    let client = serving.server.client();
    let (untraced_ms, traffic, snap) = match args.workload.as_str() {
        "serve_tcp" => {
            let (traced, snap) = obs_window(|| {
                serve::closed_loop(
                    model,
                    Transport::Tcp(serving.addr),
                    args.seed,
                    Budget::Seconds(window),
                    Some(&tracer),
                )
            });
            (Some((tcp.p(0.5), traced.p(0.5))), traced, snap)
        }
        _ => {
            let (traced, snap) = obs_window(|| {
                serve::open_loop(
                    model,
                    &client,
                    args.seed,
                    args.overload_rps,
                    short,
                    Some(&tracer),
                )
            });
            (None, traced, snap)
        }
    };
    checks.requests(&traffic);
    if let Err(e) = reconcile(&snap) {
        checks.expect(false, &format!("reconcile: {e}"));
    }
    put_server_metrics(&mut m, &snap);

    // ull_serve::engine, ull_robust::anytime, ull_snn — direct calls at
    // max_batch and batch 1 while the server idles.
    let engine = serving.server.engine();
    let snn = &model.snn;
    let xb = model.batch(MAX_BATCH);
    let x1 = model.batch(1);
    let reps = 7;
    let exec = |rung| {
        tracer.span("engine.execute", 0, || {
            time_ms(reps, || {
                black_box(engine.execute(&xb, rung));
            })
        })
    };
    let (exec_full, exec_any, exec_reduced) = (
        exec(RungLabel::Full),
        exec(RungLabel::Anytime),
        exec(RungLabel::Reduced),
    );
    let bare = tracer.span("snn.forward", 0, || {
        time_ms(reps, || {
            black_box(snn.forward(&xb, T_FULL));
        })
    });
    let mut simulated = T_FULL;
    let any_ms = tracer.span("robust.anytime", 0, || {
        time_ms(reps, || {
            simulated = anytime_forward_scheduled(snn, &xb, &model.schedule).steps_simulated;
        })
    });
    let b1 = tracer.span("snn.forward", 0, || {
        time_ms(3 * reps, || {
            black_box(snn.forward(&x1, T_FULL));
        })
    });
    m.put("engine.execute_ms.full", exec_full, "ms");
    m.put("engine.execute_ms.anytime", exec_any, "ms");
    m.put("engine.execute_ms.reduced", exec_reduced, "ms");
    m.put("engine.self_ms", exec_full - bare, "ms");
    m.put(
        "anytime.step_cost_ratio",
        (any_ms / simulated.max(1) as f64) / (bare / T_FULL as f64),
        "ratio",
    );
    let steps: Vec<f64> = model.anytime_steps.iter().map(|&s| s as f64).collect();
    m.put("anytime.mean_exit_step", mean(&steps), "steps");
    m.put(
        "snn.forward_us_per_image_step.b1",
        b1 * 1e3 / T_FULL as f64,
        "us",
    );
    m.put(
        "snn.forward_us_per_image_step.bmax",
        bare * 1e3 / (MAX_BATCH * T_FULL) as f64,
        "us",
    );
    let spike_rate = snn
        .forward(&model.pool, T_FULL)
        .stats
        .report()
        .mean_spike_rate();
    m.put("snn.spike_rate", spike_rate, "ratio");
    m.put(
        "snn.pack.builds",
        counter(&snap, "snn.pack.builds"),
        "count",
    );

    // ull_tensor::{packed, events} — per-node kernel replay.
    kernel_replay(&mut m, &mut checks, &tracer, snn, &xb, args.seed);
    counted_work(&mut m, &mut checks, snn, &xb);

    // ull_nn, ull_core (Algorithm 1), ull_snn::train.
    training_probes(&mut m, &mut checks, &tracer, model, args.seed);

    // ull_obs — the tracing tax on the workload's own headline number.
    let overhead = match untraced_ms {
        Some((untraced, traced)) => traced / untraced - 1.0,
        None => {
            let (data, _) = set_up_pipeline(args.seed);
            let t = Instant::now();
            let untraced = tracer.span("pipeline.cycle", 0, || pipeline::cycle(&data));
            let untraced_s = t.elapsed().as_secs_f64();
            let (traced, _) = obs_window(|| {
                let t = Instant::now();
                let c = tracer.span("pipeline.cycle", 1, || pipeline::cycle(&data));
                (c, t.elapsed().as_secs_f64())
            });
            let same = untraced.fingerprints == traced.0.fingerprints;
            checks.expect(same, "tracing changed the pipeline's outputs");
            checks.expect(
                untraced.checks_ok.iter().all(|&ok| ok),
                "pipeline output checks",
            );
            traced.1 / untraced_s - 1.0
        }
    };
    m.put("obs.overhead_share", overhead, "ratio");
    serving.server.shutdown();

    for (name, ms, count) in tracer.self_ms() {
        eprintln!("self time {name}: {ms:.3} ms over {count} spans");
    }
    let path = std::path::Path::new(".perfbench_out")
        .join(format!("spans_{}_{}.jsonl", args.workload, args.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    RunResult {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: m,
    }
}

/// Median cost of one request's full JSON round: encode and decode the
/// request, encode and decode a Prediction reply.
fn codec_us(model: &ServeModel) -> f64 {
    let req = serve::request(model, 1, 0);
    let reply = Reply::Prediction {
        id: 1,
        trace: 0,
        class: 0,
        logits: model.pool.data()[..CLASSES].to_vec(),
        rung: RungLabel::Full,
        steps: T_FULL,
    };
    1e3 * time_ms(201, || {
        let a = serde_json::to_string(&req).unwrap();
        black_box(serde_json::from_str::<ull_serve::Request>(&a).unwrap());
        let b = serde_json::to_string(&reply).unwrap();
        black_box(serde_json::from_str::<Reply>(&b).unwrap());
    })
}

fn put_server_metrics(m: &mut Metrics, snap: &MetricsSnapshot) {
    m.put(
        "server.queue_wait_ms.p50",
        hist_ms(snap, "serve.lat.queue", 0.5),
        "ms",
    );
    m.put(
        "server.queue_wait_ms.p99",
        hist_ms(snap, "serve.lat.queue", 0.99),
        "ms",
    );
    m.put(
        "server.batch_form_ms.p50",
        hist_ms(snap, "serve.lat.batch", 0.5),
        "ms",
    );
    m.put(
        "server.batch_size.mean",
        counter(snap, "serve.served") / counter(snap, "serve.batches").max(1.0),
        "requests",
    );
    m.put("server.shed", counter(snap, "serve.shed"), "count");
    m.put(
        "server.deadline_exceeded",
        counter(snap, "serve.deadline_exceeded"),
        "count",
    );
    let rung = |r| {
        snap.histograms
            .get(ull_serve::rung_steps_key(r))
            .cloned()
            .unwrap_or_default()
    };
    let rungs = [
        ("full", rung(RungLabel::Full)),
        ("anytime", rung(RungLabel::Anytime)),
        ("reduced", rung(RungLabel::Reduced)),
    ];
    let rows: u64 = rungs.iter().map(|(_, h)| h.count).sum();
    let step_sum: u64 = rungs.iter().map(|(_, h)| h.sum).sum();
    for (name, h) in &rungs {
        m.put(
            match *name {
                "full" => "ladder.share.full",
                "anytime" => "ladder.share.anytime",
                _ => "ladder.share.reduced",
            },
            h.count as f64 / rows.max(1) as f64,
            "ratio",
        );
    }
    m.put(
        "ladder.mean_steps",
        step_sum as f64 / rows.max(1) as f64,
        "steps",
    );
}

/// Re-simulates the network step by step with the unpacked public kernels,
/// returning every weighted node's input at each step and the logits.
fn replay(net: &SnnNetwork, x: &Tensor, t_steps: usize) -> (Vec<Vec<Tensor>>, Tensor) {
    let nodes = net.nodes();
    let mut membranes: Vec<Option<Tensor>> = vec![None; nodes.len()];
    let mut inputs: Vec<Vec<Tensor>> = vec![Vec::new(); nodes.len()];
    let mut sum: Option<Tensor> = None;
    for _ in 0..t_steps {
        let mut acts: Vec<Tensor> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let a = |j: usize| &acts[node.inputs[j]];
            let value = match &node.op {
                SnnOp::Input => x.clone(),
                SnnOp::Conv2d { weight, bias, geo } => {
                    inputs[i].push(a(0).clone());
                    conv2d(a(0), &weight.value, bias.as_ref().map(|b| &b.value), *geo)
                }
                SnnOp::Linear { weight, bias } => {
                    inputs[i].push(a(0).clone());
                    let mut y = matmul_transpose_b(a(0), &weight.value);
                    if let Some(b) = bias {
                        let width = weight.value.shape()[0];
                        for row in y.data_mut().chunks_mut(width) {
                            for (v, &bb) in row.iter_mut().zip(b.value.data()) {
                                *v += bb;
                            }
                        }
                    }
                    y
                }
                SnnOp::Spike(layer) => {
                    let v_th = layer.v_th.scalar_value();
                    let mut u = membranes[i]
                        .take()
                        .unwrap_or_else(|| Tensor::full(a(0).shape(), layer.u_init));
                    u.scale_in_place(layer.leak.scalar_value());
                    u.add_assign(a(0));
                    let mut out = Tensor::zeros(a(0).shape());
                    for (o, uv) in out.data_mut().iter_mut().zip(u.data_mut()) {
                        if *uv > v_th {
                            *o = layer.amp;
                            *uv -= v_th;
                        }
                    }
                    membranes[i] = Some(u);
                    out
                }
                SnnOp::MaxPool2d { k } => maxpool2d(a(0), *k).output,
                SnnOp::AvgPool2d { k } => avgpool2d(a(0), *k),
                SnnOp::Dropout { .. } => a(0).clone(),
                SnnOp::Flatten => {
                    let t = a(0);
                    let rest: usize = t.shape()[1..].iter().product();
                    t.reshape(&[t.shape()[0], rest]).expect("flatten")
                }
                SnnOp::Add => a(0).add(a(1)),
            };
            acts.push(value);
        }
        match &mut sum {
            Some(s) => s.add_assign(&acts[net.output()]),
            None => sum = Some(acts[net.output()].clone()),
        }
    }
    let mut logits = sum.expect("at least one step");
    logits.scale_in_place(1.0 / t_steps as f32);
    (inputs, logits)
}

/// For each Conv2d/Linear node: the measured density of its real input,
/// and the packed dense kernel against the event kernel on a seeded spike
/// input of that node's shape and density.
fn kernel_replay(
    m: &mut Metrics,
    checks: &mut Checks,
    tracer: &Tracer,
    snn: &SnnNetwork,
    x: &Tensor,
    seed: u64,
) {
    let (inputs, logits) = replay(snn, x, T_FULL);
    let forward = snn.forward(x, T_FULL).logits;
    checks.expect(
        fingerprint(logits.data()) == fingerprint(forward.data()),
        "forward logits differ from a step-by-step replay",
    );
    let pack = packed_for(snn).expect("packed weights are enabled");
    for (i, node) in snn.nodes().iter().enumerate() {
        let steps = &inputs[i];
        if steps.is_empty() {
            continue;
        }
        let density = mean(
            &steps
                .iter()
                .map(|t| t.count_nonzero() as f64 / t.len() as f64)
                .collect::<Vec<_>>(),
        );
        // Spike inputs carry one amplitude; the analog image feeding the
        // first layer is replayed as unit spikes at its non-zero share.
        let analog = matches!(snn.nodes()[node.inputs[0]].op, SnnOp::Input);
        let amp = steps
            .iter()
            .flat_map(|t| t.data().iter().copied())
            .find(|v| *v != 0.0 && !analog)
            .unwrap_or(1.0);
        let mut rng = seeded_rng(mix64(seed, &[i as u64]));
        let mut spikes = Tensor::zeros(steps[0].shape());
        for v in spikes.data_mut() {
            if rng.gen::<f64>() < density {
                *v = amp;
            }
        }
        let events = SpikeBatch::from_dense(&spikes).unwrap_or_default();
        let pw = pack.node(i).expect("every weighted node is packed");
        let mut scratch = ConvScratch::default();
        let (mut dense_out, mut event_out) = (Tensor::default(), Tensor::default());
        let reps = 9;
        let (dense_ms, events_ms) = match &node.op {
            SnnOp::Conv2d { weight, bias, geo } => {
                let bias = bias.as_ref().map(|b| &b.value);
                (
                    tracer.span("kernel.dense", i as u64, || {
                        time_ms(reps, || {
                            conv2d_packed_into(
                                &spikes,
                                pw,
                                bias,
                                *geo,
                                &mut scratch,
                                &mut dense_out,
                            )
                        })
                    }),
                    tracer.span("kernel.events", i as u64, || {
                        time_ms(reps, || {
                            conv2d_events(&events, &weight.value, bias, *geo, &mut event_out)
                        })
                    }),
                )
            }
            SnnOp::Linear { weight, .. } => (
                tracer.span("kernel.dense", i as u64, || {
                    time_ms(reps, || matmul_tb_packed_into(&spikes, pw, &mut dense_out))
                }),
                tracer.span("kernel.events", i as u64, || {
                    time_ms(reps, || {
                        matmul_tb_events(&events, &weight.value, &mut event_out)
                    })
                }),
            ),
            _ => continue,
        };
        checks.expect(
            fingerprint(dense_out.data()) == fingerprint(event_out.data()),
            &format!("node {i}: event kernel differs from packed dense kernel"),
        );
        m.put(format!("kernel.n{i}.dense_us"), dense_ms * 1e3, "us");
        m.put(format!("kernel.n{i}.events_us"), events_ms * 1e3, "us");
        m.put(format!("kernel.n{i}.density"), density, "ratio");
    }
}

/// Counted work of one max-batch forward, which must repeat exactly.
fn counted_work(m: &mut Metrics, checks: &mut Checks, snn: &SnnNetwork, x: &Tensor) {
    let count = || {
        let (_, snap) = obs_window(|| snn.forward(x, T_FULL));
        let sparse = snap.counter_prefix_sum("snn.dispatch.sparse.node.") as f64;
        let dense = snap.counter_prefix_sum("snn.dispatch.dense.node.") as f64;
        [
            counter(&snap, "tensor.macs"),
            counter(&snap, "tensor.acs"),
            counter(&snap, "tensor.im2col.bytes"),
            sparse / (sparse + dense).max(1.0),
        ]
    };
    let first = count();
    let second = count();
    checks.expect(first == second, "counted work differs between two runs");
    let per = (x.shape()[0] * T_FULL) as f64;
    m.put("tensor.macs_per_image_step", first[0] / per, "count");
    m.put("tensor.acs_per_image_step", first[1] / per, "count");
    m.put(
        "tensor.im2col_bytes_per_image_step",
        first[2] / per,
        "bytes",
    );
    m.put("dispatch.sparse_share", first[3], "ratio");
}

/// DNN training step, Algorithm 1 and the SGL step, on the served model's
/// own network and training images.
fn training_probes(
    m: &mut Metrics,
    checks: &mut Checks,
    tracer: &Tracer,
    model: &ServeModel,
    seed: u64,
) {
    let batch = model.train.batch(&(0..BATCH).collect::<Vec<_>>());
    let mut rng = seeded_rng(mix64(seed, &[0x7a1]));

    let mut dnn = model.dnn.clone();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let tape = tracer.span("nn.forward_train", 0, || {
            dnn.forward_train(&batch.images, &mut rng)
        });
        fwd.push(t.elapsed().as_secs_f64() * 1e3);
        let grad = cross_entropy_grad(&tape[dnn.output()].activation, &batch.labels);
        let t = Instant::now();
        tracer.span("nn.backward", 0, || dnn.backward(&tape, &grad));
        bwd.push(t.elapsed().as_secs_f64() * 1e3);
        dnn.zero_grad();
    }
    m.put("nn.forward_train_ms", median(&fwd), "ms");
    m.put("nn.backward_ms", median(&bwd), "ms");

    let mut layers = Vec::new();
    let collect_ms = tracer.span("convert.collect", 0, || {
        time_ms(3, || {
            layers = collect_preactivations(&model.dnn, &model.train, 128, 20_000);
        })
    });
    let mut scalings = Vec::new();
    let search_ms = tracer.span("convert.search", 0, || {
        time_ms(3, || scalings = scale_layers(&layers, T_FULL))
    });
    let (_, snap) = obs_window(|| scale_layers(&layers, T_FULL));
    let same = scalings.len() == model.scalings.len()
        && scalings.iter().zip(&model.scalings).all(|(a, b)| {
            a.alpha.to_bits() == b.alpha.to_bits() && a.beta.to_bits() == b.beta.to_bits()
        });
    checks.expect(same, "Algorithm 1 is not reproducible on the served DNN");
    m.put("convert.collect_ms", collect_ms, "ms");
    m.put("convert.search_ms", search_ms, "ms");
    m.put(
        "convert.pairs_evaluated",
        counter(&snap, "convert.pairs_evaluated"),
        "count",
    );

    let mut snn = model.snn.clone();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let tape = tracer.span("sgl.forward_train", 0, || {
            snn.forward_train(&batch.images, T_FULL, &mut rng)
        });
        fwd.push(t.elapsed().as_secs_f64() * 1e3);
        let grad = cross_entropy_grad(&tape.logits, &batch.labels);
        let t = Instant::now();
        tracer.span("sgl.backward", 0, || snn.backward(&tape, &grad));
        bwd.push(t.elapsed().as_secs_f64() * 1e3);
        snn.zero_grad();
    }
    let eval_set = Dataset::new(
        (0..BATCH).map(|i| model.train.image(i).clone()).collect(),
        model.train.labels()[..BATCH].to_vec(),
    )
    .expect("evaluation batch");
    let eval_ms = tracer.span("sgl.evaluate", 0, || {
        time_ms(3, || {
            black_box(evaluate_snn(&model.snn, &eval_set, T_FULL, BATCH));
        })
    });
    m.put("sgl.forward_train_ms", median(&fwd), "ms");
    m.put("sgl.backward_ms", median(&bwd), "ms");
    m.put("sgl.evaluate_ms", eval_ms, "ms");
}
