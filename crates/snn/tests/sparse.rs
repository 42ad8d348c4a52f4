//! Equivalence suite for the event-driven sparse inference engine: for
//! any network topology, batch split, thread count and dispatch cutoff,
//! `SnnNetwork::forward` must produce logits and spike statistics that
//! are bit-identical to the dense-forced run — the sparse kernels are a
//! pure work optimisation, never a numerical one. Fault injection via
//! `forward_tampered` is included so the dispatcher's mid-run fallback
//! (a tampered, non-uniform spike tensor must route dense) is covered.
//!
//! Every eval entry point shares one step engine, so the independent
//! reference is the BPTT tape of `forward_train`, which runs its own
//! unpacked step: on dropout-free nets the probes (`forward_until`,
//! `forward_rates`, `forward_trace`, `forward_with_encoding`) must
//! reproduce it bit for bit.

use proptest::prelude::*;
use ull_nn::{NetworkBuilder, NodeId};
use ull_snn::{
    dispatch, set_sparse_cutoff, InputEncoding, SnnNetwork, SnnOp, SpikeSpec, StepTamper,
};
use ull_tensor::init::{mix64, normal, seeded_rng};
use ull_tensor::{parallel, Tensor};

/// Conv → spike → strided+padded biased conv → spike → maxpool →
/// dropout → flatten → linear. Covers both weighted kernels on both
/// analog-fed (dense-only) and spike-fed (sparse-capable) inputs.
fn conv_chain(seed: u64) -> SnnNetwork {
    conv_chain_with_dropout(seed, 0.4)
}

fn conv_chain_with_dropout(seed: u64, p: f32) -> SnnNetwork {
    let mut b = NetworkBuilder::new(2, 8, seed);
    b.conv2d(4, 3, 1, 1);
    b.threshold_relu(0.7);
    b.conv2d_opts(5, 3, 2, 1, true);
    b.threshold_relu(0.9);
    b.maxpool(2);
    b.dropout(p);
    b.flatten();
    b.linear(5);
    let dnn = b.build();
    SnnNetwork::from_network(
        &dnn,
        &[SpikeSpec::scaled(0.7, 0.8, 1.2), SpikeSpec::identity(0.9)],
    )
    .unwrap()
}

/// Residual topology: the Add of two equal-amplitude spike trains emits
/// values in {0, amp, 2·amp} — non-uniform, so everything downstream of
/// the join must fall back to the dense kernels; avgpool's fractional
/// outputs keep it that way. The trunk conv before the join still gets
/// uniform spikes and can route sparse.
fn residual_net(seed: u64) -> SnnNetwork {
    let mut b = NetworkBuilder::new(2, 8, seed);
    b.conv2d(4, 3, 1, 1);
    let trunk = b.threshold_relu(0.6);
    b.conv2d(4, 3, 1, 1);
    let branch = b.cursor();
    b.add(trunk, branch, (4, 8, 8));
    b.threshold_relu(0.5);
    b.avgpool(2);
    b.flatten();
    b.linear(5);
    let dnn = b.build();
    SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(0.6), SpikeSpec::identity(0.5)]).unwrap()
}

fn nets(seed: u64) -> Vec<(&'static str, SnnNetwork)> {
    vec![
        ("conv_chain", conv_chain(seed)),
        ("residual", residual_net(seed)),
    ]
}

/// Cutoffs exercised against the dense-forced baseline: sparse wherever
/// possible, the default crossover, and a near-zero cutoff that only
/// rarely fires.
const CUTOFFS: [f32; 3] = [2.0, ull_snn::DEFAULT_SPARSE_CUTOFF, 0.05];

/// Flips spikes on and off from a hash of the *global* coordinates
/// (step, node, sample, element), so the same fault pattern lands
/// regardless of how the batch is chunked across threads. Writes only
/// `0.0` or `amp`, preserving amplitude uniformity.
struct HashTamper {
    seed: u64,
    rate_256: u64,
}

impl StepTamper for HashTamper {
    fn tamper_spikes(
        &self,
        step: usize,
        node: NodeId,
        batch_offset: usize,
        amp: f32,
        out: &mut Tensor,
    ) {
        let per_sample: usize = out.shape()[1..].iter().product();
        for (j, v) in out.data_mut().iter_mut().enumerate() {
            let sample = batch_offset + j / per_sample;
            let elem = j % per_sample;
            let h = mix64(
                self.seed,
                &[step as u64, node as u64, sample as u64, elem as u64],
            );
            if (h & 0xff) < self.rate_256 {
                *v = if *v == 0.0 { amp } else { 0.0 };
            }
        }
    }
}

/// Injects a single fractional-amplitude value into sample 0 at step 0,
/// making that layer's output non-uniform for exactly one step. The
/// consumer must fall back to the dense kernel when it sees it and may
/// resume sparse routing once the train is uniform again.
struct NonUniformTamper;

impl StepTamper for NonUniformTamper {
    fn tamper_spikes(
        &self,
        step: usize,
        _node: NodeId,
        batch_offset: usize,
        amp: f32,
        out: &mut Tensor,
    ) {
        if step == 0 && batch_offset == 0 {
            out.data_mut()[0] = 0.37 * amp;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn event_forward_matches_dense_for_any_cutoff_and_threads(
        seed in 0u64..1000,
        batch in 1usize..6,
        t_steps in 1usize..5,
    ) {
        let x = normal(&[batch, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(seed ^ 0x5a5a));
        let _threads = parallel::override_lock();
        let _cutoff = dispatch::cutoff_lock();
        for (name, snn) in nets(seed) {
            parallel::set_threads(1);
            set_sparse_cutoff(Some(-1.0));
            let dense = snn.forward(&x, t_steps);
            for threads in [1usize, 4] {
                parallel::set_threads(threads);
                for cutoff in CUTOFFS {
                    set_sparse_cutoff(Some(cutoff));
                    let sparse = snn.forward(&x, t_steps);
                    prop_assert_eq!(
                        &sparse.logits, &dense.logits,
                        "{}: cutoff {} threads {}", name, cutoff, threads
                    );
                    prop_assert_eq!(
                        &sparse.stats, &dense.stats,
                        "{}: cutoff {} threads {}", name, cutoff, threads
                    );
                }
            }
        }
        set_sparse_cutoff(None);
        parallel::set_threads(0);
    }

    #[test]
    fn tampered_event_forward_matches_dense(
        seed in 0u64..1000,
        batch in 1usize..6,
        t_steps in 1usize..5,
        rate_256 in 0u64..96,
    ) {
        let x = normal(&[batch, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(seed ^ 0xbeef));
        let plan = HashTamper { seed: seed ^ 0xfa17, rate_256 };
        let _threads = parallel::override_lock();
        let _cutoff = dispatch::cutoff_lock();
        for (name, snn) in nets(seed) {
            parallel::set_threads(1);
            set_sparse_cutoff(Some(-1.0));
            let dense = snn.forward_tampered(&x, t_steps, &plan);
            for threads in [1usize, 4] {
                parallel::set_threads(threads);
                for cutoff in CUTOFFS {
                    set_sparse_cutoff(Some(cutoff));
                    let sparse = snn.forward_tampered(&x, t_steps, &plan);
                    prop_assert_eq!(
                        &sparse.logits, &dense.logits,
                        "{}: cutoff {} threads {}", name, cutoff, threads
                    );
                    prop_assert_eq!(
                        &sparse.stats, &dense.stats,
                        "{}: cutoff {} threads {}", name, cutoff, threads
                    );
                }
            }
        }
        set_sparse_cutoff(None);
        parallel::set_threads(0);
    }
}

#[test]
fn non_uniform_tamper_falls_back_and_recovers() {
    let x = normal(&[3, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(7));
    let _threads = parallel::override_lock();
    let _cutoff = dispatch::cutoff_lock();
    for (name, snn) in nets(7) {
        parallel::set_threads(1);
        set_sparse_cutoff(Some(-1.0));
        let dense = snn.forward_tampered(&x, 4, &NonUniformTamper);
        for threads in [1usize, 4] {
            parallel::set_threads(threads);
            set_sparse_cutoff(Some(2.0));
            let sparse = snn.forward_tampered(&x, 4, &NonUniformTamper);
            assert_eq!(
                sparse.logits, dense.logits,
                "{name}: threads {threads} diverged after non-uniform tamper"
            );
            assert_eq!(sparse.stats, dense.stats, "{name}: threads {threads}");
        }
    }
    set_sparse_cutoff(None);
    parallel::set_threads(0);
}

#[test]
fn dispatch_decisions_are_published_as_obs_counters() {
    let snn = conv_chain(11);
    let x = normal(&[2, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(11));
    let _threads = parallel::override_lock();
    let _cutoff = dispatch::cutoff_lock();
    let _obs = ull_obs::test_lock();
    parallel::set_threads(1);

    ull_obs::reset();
    ull_obs::set_enabled(true);
    set_sparse_cutoff(Some(2.0));
    snn.forward(&x, 4);
    let snap = ull_obs::snapshot();
    let sparse_hits = snap.counter_prefix_sum("snn.dispatch.sparse.node");
    let dense_hits = snap.counter_prefix_sum("snn.dispatch.dense.node");
    assert!(
        sparse_hits > 0,
        "sparse-forced run never took the event path"
    );
    // Step 1 always routes dense (nothing measured yet), and the analog
    // first conv stays dense at every step.
    assert!(dense_hits > 0, "first step and analog layers must be dense");

    ull_obs::reset();
    set_sparse_cutoff(Some(-1.0));
    snn.forward(&x, 4);
    let snap = ull_obs::snapshot();
    assert_eq!(
        snap.counter_prefix_sum("snn.dispatch.sparse.node"),
        0,
        "dense-forced run must never dispatch sparse"
    );
    assert!(snap.counter_prefix_sum("snn.dispatch.dense.node") > 0);

    ull_obs::set_enabled(false);
    ull_obs::reset();
    set_sparse_cutoff(None);
    parallel::set_threads(0);
}

/// Per-step mean of `per_step` in the engine's summation order: the first
/// step copied, later steps added in place, then one scale by `1/T`.
fn step_mean<'a>(mut per_step: impl Iterator<Item = &'a Tensor>) -> Tensor {
    let mut sum = per_step.next().expect("at least one step").clone();
    let mut t = 1;
    for act in per_step {
        sum.add_assign(act);
        t += 1;
    }
    sum.scale_in_place(1.0 / t as f32);
    sum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn eval_entry_points_match_the_tape_oracle(
        seed in 0u64..1000,
        batch in 1usize..6,
        t_steps in 1usize..5,
    ) {
        let x = normal(&[batch, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(seed ^ 0x7a9e));
        let _threads = parallel::override_lock();
        let _cutoff = dispatch::cutoff_lock();
        let oracle_nets = [
            ("conv_chain", conv_chain_with_dropout(seed, 0.0)),
            ("residual", residual_net(seed)),
        ];
        for (name, snn) in oracle_nets {
            let tape = snn.forward_train(&x, t_steps, &mut seeded_rng(seed));
            let acts = tape.acts();
            let spike_ids = snn.spike_nodes();
            for threads in [1usize, 4] {
                parallel::set_threads(threads);
                for cutoff in CUTOFFS {
                    set_sparse_cutoff(Some(cutoff));
                    let ctx = format!("{name}: cutoff {cutoff} threads {threads}");

                    let (until, steps) = snn.forward_until(&x, t_steps, |_, _| true);
                    prop_assert_eq!(steps, t_steps, "{}", ctx);
                    prop_assert_eq!(&until.logits, &tape.logits, "forward_until {}", ctx);

                    let direct = snn.forward_with_encoding(
                        &x, t_steps, InputEncoding::Direct, &mut seeded_rng(0),
                    );
                    prop_assert_eq!(&direct.logits, &tape.logits, "Direct encoding {}", ctx);

                    let (rated, rates) = snn.forward_rates(&x, t_steps);
                    prop_assert_eq!(&rated.logits, &tape.logits, "forward_rates {}", ctx);
                    prop_assert_eq!(rates.len(), spike_ids.len());
                    for (id, current, output) in &rates {
                        let input = snn.nodes()[*id].inputs[0];
                        let want_in = step_mean(acts.iter().map(|step| &step[input]));
                        let want_out = step_mean(acts.iter().map(|step| &step[*id]));
                        prop_assert_eq!(current, &want_in, "input rate of node {} {}", id, ctx);
                        prop_assert_eq!(output, &want_out, "output rate of node {} {}", id, ctx);
                    }

                    let trace = snn.forward_trace(&x, t_steps);
                    prop_assert_eq!(trace.len(), t_steps);
                    for (t, (counts, step)) in trace.iter().zip(acts).enumerate() {
                        for (node, (&count, act)) in counts.iter().zip(step).enumerate() {
                            let want = if matches!(snn.nodes()[node].op, SnnOp::Spike(_)) {
                                act.data().iter().filter(|v| **v != 0.0).count() as u64
                            } else {
                                0
                            };
                            prop_assert_eq!(count, want, "trace step {} node {} {}", t, node, ctx);
                        }
                    }
                }
            }
        }
        set_sparse_cutoff(None);
        parallel::set_threads(0);
    }
}

/// `forward_train` samples each dropout mask the first time step 0 reaches
/// the dropout node. Pins the tape logits and the mask of `conv_chain`
/// (dropout 0.4) at fixed seeds, so the RNG stream, the masks and the
/// tape cannot drift.
#[test]
fn forward_train_tape_and_dropout_mask_are_pinned() {
    let snn = conv_chain(5);
    let x = normal(&[2, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(6));
    let tape = snn.forward_train(&x, 3, &mut seeded_rng(7));
    let logits: Vec<u32> = tape.logits.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        logits,
        [
            0xbf865526, 0xbfc79aa8, 0xbe73e053, 0xbef466c6, 0x3ecebcc0, 0xbe23dd86, 0xbf9512db,
            0x3f83772c, 0xbfbd7a33, 0x3e970a98,
        ]
    );
    let dropout = snn
        .nodes()
        .iter()
        .position(|n| matches!(n.op, SnnOp::Dropout { .. }))
        .unwrap();
    let mask = tape.mask(dropout).expect("p > 0 samples a mask");
    assert_eq!(mask.shape(), &[2, 5, 2, 2]);
    let kept: String = mask
        .data()
        .iter()
        .map(|&m| if m == 0.0 { '0' } else { '1' })
        .collect();
    assert_eq!(kept, "0100001111100011111110010111111100011000");
    // Kept entries carry the inverted-dropout scale 1/(1 − p).
    assert!(mask
        .data()
        .iter()
        .all(|&m| m == 0.0 || m.to_bits() == 0x3fd55555));
    assert!(tape.mask(0).is_none());
}
