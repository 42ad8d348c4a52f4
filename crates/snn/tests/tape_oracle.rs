//! Equivalence suite for the eval step engine. Every eval entry point
//! (`forward`, `forward_until`, `forward_rates`, `forward_trace`,
//! `forward_with_encoding`) runs the packed kernels through one step
//! loop, so the independent reference is the BPTT tape of
//! `forward_train`, which runs its own step on the unpacked kernels: on
//! dropout-free nets every entry point must reproduce it bit for bit, at
//! any batch size and thread count. Fault injection via
//! `forward_tampered` has no tape counterpart, so it is checked for
//! thread-count invariance instead.

use proptest::prelude::*;
use ull_nn::{NetworkBuilder, NodeId};
use ull_snn::{InputEncoding, SnnNetwork, SnnOp, SpikeSpec, StepTamper};
use ull_tensor::init::{mix64, normal, seeded_rng};
use ull_tensor::{parallel, Tensor};

/// Conv → spike → strided+padded biased conv → spike → maxpool →
/// dropout → flatten → linear. Covers both weighted kernels on both
/// analog-fed and spike-fed inputs.
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
        ("conv_chain", conv_chain(seed)),
        ("residual", residual_net(seed)),
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
    fn eval_entry_points_match_the_tape_oracle(
        seed in 0u64..1000,
        batch in 1usize..6,
        t_steps in 1usize..5,
    ) {
        let x = normal(&[batch, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(seed ^ 0x7a9e));
        let _threads = parallel::override_lock();
        let oracle_nets = [
            ("conv_chain", conv_chain_with_dropout(seed, 0.0)),
            ("residual", residual_net(seed)),
        ];
        for (name, snn) in oracle_nets {
            let tape = snn.forward_train(&x, t_steps, &mut seeded_rng(seed));
            let acts = tape.acts();
            let spike_ids = snn.spike_nodes();
            // Spikes per node over the whole run, read off the tape.
            let tape_spikes: Vec<u64> = (0..snn.nodes().len())
                .map(|node| match snn.nodes()[node].op {
                    SnnOp::Spike(_) => acts
                        .iter()
                        .map(|step| step[node].data().iter().filter(|v| **v != 0.0).count() as u64)
                        .sum(),
                    _ => 0,
                })
                .collect();
            for threads in [1usize, 4] {
                parallel::set_threads(threads);
                let ctx = format!("{name}: threads {threads}");

                let out = snn.forward(&x, t_steps);
                prop_assert_eq!(&out.logits, &tape.logits, "forward {}", ctx);
                prop_assert_eq!(out.stats.spikes_per_node(), &tape_spikes[..], "forward {}", ctx);

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
        parallel::set_threads(0);
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
        let _threads = parallel::override_lock();
        for (name, snn) in nets(seed) {
            parallel::set_threads(1);
            let serial = snn.forward_tampered(&x, t_steps, &plan);
            parallel::set_threads(4);
            let split = snn.forward_tampered(&x, t_steps, &plan);
            prop_assert_eq!(&split.logits, &serial.logits, "{}", name);
            prop_assert_eq!(&split.stats, &serial.stats, "{}", name);
        }
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
