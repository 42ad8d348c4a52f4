//! The unpacked reference step: an allocating, deliberately plain
//! re-statement of the SNN time step (Eq. 2–4 and Eq. 8) over the
//! plain-weight kernels — `conv2d`, `matmul_transpose_b` (which pack their
//! weight per call), `maxpool2d` and `avgpool2d`. It shares no code with
//! the crate's step engine (workspace, `Stepper`, network-owned pack),
//! which makes it the independent oracle for every forward entry point and
//! for the `forward_train` tape. The GEMM core both run is checked on its
//! own against a scalar reference by `ull-tensor`'s `packed_diff`.

use rand::rngs::StdRng;
use rand::Rng;
use ull_snn::{SnnNetwork, SnnOp, MEMBRANE_CLAMP};
use ull_tensor::conv::conv2d;
use ull_tensor::pool::{avgpool2d, maxpool2d};
use ull_tensor::{matmul_transpose_b, Tensor};

/// What the reference simulation of one batch records.
pub struct Reference {
    /// `acts[t][node]`: the output of each node at each step.
    pub acts: Vec<Vec<Tensor>>,
    /// Per-node dropout mask, shared by every step (training runs only).
    pub masks: Vec<Option<Tensor>>,
    /// Mean over steps of the output node: the first step copied, later
    /// steps added in order, then one scale by `1/T`.
    pub logits: Tensor,
}

impl Reference {
    /// Spikes emitted by each node over the whole run (0 for non-spike
    /// nodes).
    pub fn spikes_per_node(&self, net: &SnnNetwork) -> Vec<u64> {
        (0..net.nodes().len())
            .map(|node| match net.nodes()[node].op {
                SnnOp::Spike(_) => self.acts.iter().map(|step| nonzero(&step[node])).sum(),
                _ => 0,
            })
            .collect()
    }
}

/// Number of non-zero entries: the spike count of a spike node's output.
pub fn nonzero(t: &Tensor) -> u64 {
    t.data().iter().filter(|v| **v != 0.0).count() as u64
}

/// Simulates `net` on `x` for `t_steps` steps. With `rng` (training) each
/// dropout node with `p > 0` samples its mask the first time step 0
/// reaches it, in node order, and applies it at every step; without one
/// (eval) dropout is the identity.
pub fn reference_run(
    net: &SnnNetwork,
    x: &Tensor,
    t_steps: usize,
    mut rng: Option<&mut StdRng>,
) -> Reference {
    let n = net.nodes().len();
    let mut membranes: Vec<Option<Tensor>> = vec![None; n];
    let mut masks: Vec<Option<Tensor>> = vec![None; n];
    let acts: Vec<Vec<Tensor>> = (0..t_steps)
        .map(|_| reference_step(net, x, &mut membranes, &mut masks, rng.as_deref_mut()))
        .collect();
    let mut logits = acts[0][net.output()].clone();
    for step in &acts[1..] {
        logits.add_assign(&step[net.output()]);
    }
    logits.scale_in_place(1.0 / t_steps as f32);
    Reference {
        acts,
        masks,
        logits,
    }
}

fn reference_step(
    net: &SnnNetwork,
    x: &Tensor,
    membranes: &mut [Option<Tensor>],
    masks: &mut [Option<Tensor>],
    mut rng: Option<&mut StdRng>,
) -> Vec<Tensor> {
    let mut acts: Vec<Tensor> = Vec::with_capacity(net.nodes().len());
    for (i, node) in net.nodes().iter().enumerate() {
        let a = |j: usize| &acts[node.inputs[j]];
        let value = match &node.op {
            SnnOp::Input => x.clone(),
            SnnOp::Conv2d { weight, bias, geo } => {
                conv2d(a(0), &weight.value, bias.as_ref().map(|b| &b.value), *geo)
            }
            SnnOp::Linear { weight, bias } => {
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
                let input = a(0);
                let v_th = layer.v_th.scalar_value();
                let leak = layer.leak.scalar_value();
                let u_prev = membranes[i]
                    .take()
                    .unwrap_or_else(|| Tensor::full(input.shape(), layer.u_init));
                // Eq. 2: U_temp = λ·U(t−1) + I(t), then the clamp of
                // corrupted membranes (NaN → 0, beyond ±MEMBRANE_CLAMP →
                // ±MEMBRANE_CLAMP).
                let mut u = u_prev.scale(leak);
                u.add_assign(input);
                for v in u.data_mut() {
                    if v.is_nan() {
                        *v = 0.0;
                    } else if !v.is_finite() || v.abs() > MEMBRANE_CLAMP {
                        *v = v.signum() * MEMBRANE_CLAMP;
                    }
                }
                // Eq. 3/8: a spike of `amp` wherever U_temp > V^th; Eq. 4:
                // soft reset by V^th.
                let mut out = Tensor::zeros(input.shape());
                for (o, u) in out.data_mut().iter_mut().zip(u.data_mut()) {
                    if *u > v_th {
                        *o = layer.amp;
                        *u -= v_th;
                    }
                }
                membranes[i] = Some(u);
                out
            }
            SnnOp::MaxPool2d { k } => maxpool2d(a(0), *k).output,
            SnnOp::AvgPool2d { k } => avgpool2d(a(0), *k),
            SnnOp::Dropout { p } => match rng.as_deref_mut() {
                Some(rng) if *p > 0.0 => {
                    let mask = masks[i].get_or_insert_with(|| {
                        let keep = 1.0 - p;
                        let mut mask = Tensor::zeros(a(0).shape());
                        for m in mask.data_mut() {
                            *m = if rng.gen::<f32>() < keep {
                                1.0 / keep
                            } else {
                                0.0
                            };
                        }
                        mask
                    });
                    a(0).mul(mask)
                }
                _ => a(0).clone(),
            },
            SnnOp::Flatten => {
                let t = a(0);
                let rest: usize = t.shape()[1..].iter().product();
                t.reshape(&[t.shape()[0], rest])
                    .expect("flatten preserves length")
            }
            SnnOp::Add => a(0).add(a(1)),
        };
        acts.push(value);
    }
    acts
}
