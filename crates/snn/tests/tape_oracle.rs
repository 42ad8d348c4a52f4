//! Equivalence suite for the step engine. Every forward entry point —
//! `forward`, `forward_until`, `forward_rates`, `forward_trace`,
//! `forward_with_encoding` and the BPTT tape of `forward_train` — runs
//! the packed kernels through one step loop. The independent reference is
//! the unpacked step of `tests/common/reference.rs`: every eval entry
//! point must reproduce its eval run, and `forward_train` its training
//! run (activations, dropout masks and logits), bit for bit at any batch
//! size and thread count. Fault injection via `forward_tampered` has no
//! reference counterpart, so it is checked for thread-count invariance
//! instead.
//!
//! The oracle nets carry non-zero biases on every conv/linear node, so a
//! bias the engine dropped would show.

mod common;

use common::reference::{nonzero, reference_run};
use common::with_biases;
use proptest::prelude::*;
use ull_nn::{cross_entropy_grad, NetworkBuilder, NodeId};
use ull_snn::{InputEncoding, SnnNetwork, SnnOp, SpikeSpec, StepTamper};
use ull_tensor::init::{mix64, normal, seeded_rng};
use ull_tensor::{parallel, Tensor};

/// Conv → spike → strided+padded biased conv → spike → maxpool →
/// dropout(0.4) → flatten → linear. Covers both weighted kernels on both
/// analog-fed and spike-fed inputs, and a sampled dropout mask.
fn conv_chain(seed: u64) -> SnnNetwork {
    let mut b = NetworkBuilder::new(2, 8, seed);
    b.conv2d(4, 3, 1, 1);
    b.threshold_relu(0.7);
    b.conv2d_opts(5, 3, 2, 1, true);
    b.threshold_relu(0.9);
    b.maxpool(2);
    b.dropout(0.4);
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
/// values in {0, amp, 2·amp}, and avgpool's outputs are fractional, so the
/// layers downstream of the join see multi-valued inputs.
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
        ("conv_chain", with_biases(conv_chain(seed), seed)),
        ("residual", with_biases(residual_net(seed), seed)),
    ]
}

/// Flips spikes on and off from a hash of the *global* coordinates
/// (step, node, sample, element), so the same fault pattern lands
/// regardless of how the batch is chunked across threads.
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
    fn eval_entry_points_match_the_reference(
        seed in 0u64..1000,
        batch in 1usize..6,
        t_steps in 1usize..5,
    ) {
        let x = normal(&[batch, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(seed ^ 0x7a9e));
        for (name, snn) in nets(seed) {
            // Eval run: dropout is the identity.
            let reference = reference_run(&snn, &x, t_steps, None);
            let acts = &reference.acts;
            let spikes = reference.spikes_per_node(&snn);
            let spike_ids = snn.spike_nodes();
            for threads in [1usize, 4] {
                let ctx = format!("{name}: threads {threads}");
                let (out, (until, steps), direct, (rated, rates), trace) =
                    parallel::with_threads(threads, || {
                        (
                            snn.forward(&x, t_steps),
                            snn.forward_until(&x, t_steps, |_, _| true),
                            snn.forward_with_encoding(
                                &x, t_steps, InputEncoding::Direct, &mut seeded_rng(0),
                            ),
                            snn.forward_rates(&x, t_steps),
                            snn.forward_trace(&x, t_steps),
                        )
                    });

                prop_assert_eq!(&out.logits, &reference.logits, "forward {}", ctx);
                prop_assert_eq!(out.stats.spikes_per_node(), &spikes[..], "forward {}", ctx);

                prop_assert_eq!(steps, t_steps, "{}", ctx);
                prop_assert_eq!(&until.logits, &reference.logits, "forward_until {}", ctx);

                prop_assert_eq!(&direct.logits, &reference.logits, "Direct encoding {}", ctx);

                prop_assert_eq!(&rated.logits, &reference.logits, "forward_rates {}", ctx);
                prop_assert_eq!(rates.len(), spike_ids.len());
                for (id, current, output) in &rates {
                    let input = snn.nodes()[*id].inputs[0];
                    let want_in = step_mean(acts.iter().map(|step| &step[input]));
                    let want_out = step_mean(acts.iter().map(|step| &step[*id]));
                    prop_assert_eq!(current, &want_in, "input rate of node {} {}", id, ctx);
                    prop_assert_eq!(output, &want_out, "output rate of node {} {}", id, ctx);
                }

                prop_assert_eq!(trace.len(), t_steps);
                for (t, (counts, step)) in trace.iter().zip(acts).enumerate() {
                    for (node, (&count, act)) in counts.iter().zip(step).enumerate() {
                        let want = if matches!(snn.nodes()[node].op, SnnOp::Spike(_)) {
                            nonzero(act)
                        } else {
                            0
                        };
                        prop_assert_eq!(count, want, "trace step {} node {} {}", t, node, ctx);
                    }
                }
            }
        }
    }

    /// `forward_train` records every activation, samples the dropout masks
    /// from its RNG in the reference's order, and averages the same logits
    /// — bit for bit, at any thread count.
    #[test]
    fn forward_train_tape_matches_the_reference(
        seed in 0u64..1000,
        batch in 1usize..6,
        t_steps in 1usize..5,
    ) {
        let x = normal(&[batch, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(seed ^ 0x51a7));
        for (name, snn) in nets(seed) {
            let reference = reference_run(&snn, &x, t_steps, Some(&mut seeded_rng(seed)));
            for threads in [1usize, 4] {
                let ctx = format!("{name}: threads {threads}");
                let tape = parallel::with_threads(threads, || {
                    snn.forward_train(&x, t_steps, &mut seeded_rng(seed))
                });
                prop_assert_eq!(tape.steps, t_steps, "{}", ctx);
                prop_assert_eq!(&tape.logits, &reference.logits, "logits {}", ctx);
                prop_assert_eq!(tape.acts(), &reference.acts[..], "activations {}", ctx);
                for (node, mask) in reference.masks.iter().enumerate() {
                    prop_assert_eq!(tape.mask(node), mask.as_ref(), "mask {} {}", node, ctx);
                }
            }
        }
    }

    /// The fault hook sees global batch offsets, so a tampered forward
    /// must give the same logits and spike statistics however the batch
    /// is split across worker threads.
    #[test]
    fn tampered_forward_is_thread_invariant(
        seed in 0u64..1000,
        batch in 1usize..6,
        t_steps in 1usize..5,
        rate_256 in 0u64..96,
    ) {
        let x = normal(&[batch, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(seed ^ 0xbeef));
        let plan = HashTamper { seed: seed ^ 0xfa17, rate_256 };
        for (name, snn) in nets(seed) {
            let serial = parallel::with_threads(1, || snn.forward_tampered(&x, t_steps, &plan));
            let split = parallel::with_threads(4, || snn.forward_tampered(&x, t_steps, &plan));
            prop_assert_eq!(&split.logits, &serial.logits, "{}", name);
            prop_assert_eq!(&split.stats, &serial.stats, "{}", name);
        }
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

/// FNV-1a over a tensor's shape and bit patterns: one word that changes
/// if any element of the tensor changes by a single bit.
fn bits_hash(t: &Tensor) -> u64 {
    let words = t
        .shape()
        .iter()
        .map(|&d| d as u64)
        .chain(t.data().iter().map(|v| u64::from(v.to_bits())));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins, bit for bit, every parameter gradient `backward` accumulates
/// (weights, biases, `V^th` and leak, in `visit_params` order) and the
/// tape's memory footprint, on both oracle nets at T=3. The public tape
/// API does not expose the membranes (`U(t−1)`, `U_temp`) or the maxpool
/// argmax the backward pass reads, so this is their only check.
#[test]
fn backward_gradients_and_tape_memory_are_pinned() {
    let pinned: [(&str, usize, [u64; 10]); 2] = [
        (
            "conv_chain",
            57072,
            [
                0xd3a8f90dadec8452,
                0xb142eaff32f0f1aa,
                0x1c999f5ccd997f2b,
                0xd0e1d38cfef0313a,
                0xd4e8ae4a9af58647,
                0x4bed0788f8104ff6,
                0x6fea745d5b2bd91a,
                0xb9994c87be5ff3d5,
                0x03e6ed8d18286a39,
                0xb27922eb9d874399,
            ],
        ),
        (
            "residual",
            92400,
            [
                0x6b33205cd6bd9bca,
                0x79f3820592844136,
                0x819b1d89123b09f8,
                0x440b0d658f9f3d15,
                0x2f167b37fb283ceb,
                0x4f47c237c041ccf4,
                0xce8f93847bfe6e7a,
                0x214dc461ee979a0a,
                0x827648dd9a1c16ea,
                0xa3b0c3137926d452,
            ],
        ),
    ];
    let x = normal(&[3, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(41));
    let labels = [1, 4, 2];
    for ((name, mut snn), (want_name, want_bytes, want_grads)) in nets(40).into_iter().zip(pinned) {
        assert_eq!(name, want_name);
        let tape = snn.forward_train(&x, 3, &mut seeded_rng(42));
        snn.zero_grad();
        snn.backward(&tape, &cross_entropy_grad(&tape.logits, &labels));
        let mut grads = Vec::new();
        snn.visit_params(|p| {
            assert!(
                p.grad.data().iter().any(|g| *g != 0.0),
                "{name}: a parameter received no gradient"
            );
            grads.push(bits_hash(&p.grad));
        });
        assert_eq!(tape.memory_bytes(), want_bytes, "{name} tape bytes");
        assert_eq!(grads, want_grads, "{name} gradients");
    }
}
