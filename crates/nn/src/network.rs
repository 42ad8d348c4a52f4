//! Static computation-graph networks with hand-written backprop.
//!
//! A [`Network`] is a topologically-ordered list of nodes; node 0 is always
//! the input. Chains model VGG; an [`NodeOp::Add`] node with two inputs
//! models ResNet skip connections. The forward pass produces a *tape* of
//! per-node activations (plus pooling argmaxes and dropout masks) which the
//! backward pass consumes — the same structure the SNN simulator mirrors
//! per time step.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use ull_tensor::conv::{conv2d, conv2d_backward, ConvGeometry};
use ull_tensor::pool::{avgpool2d, avgpool2d_backward, maxpool2d, maxpool2d_backward};
use ull_tensor::{matmul, matmul_transpose_a, matmul_transpose_b, Tensor};

use crate::Param;

/// Index of a node within a [`Network`].
pub type NodeId = usize;

/// Operation performed by one graph node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeOp {
    /// The network input (`[N, C, H, W]` image batch). Always node 0.
    Input,
    /// 2-d convolution.
    Conv2d {
        /// Filter bank `[F, C, KH, KW]`.
        weight: Param,
        /// Optional per-filter bias.
        bias: Option<Param>,
        /// Kernel/stride/padding geometry.
        geo: ConvGeometry,
    },
    /// Fully connected layer: `y = x Wᵀ + b` with `W: [out, in]`.
    Linear {
        /// Weight matrix `[out, in]`.
        weight: Param,
        /// Optional bias `[out]`.
        bias: Option<Param>,
    },
    /// Trainable-threshold ReLU (Eq. 1): `y = clip(x, 0, μ)`.
    ThresholdRelu {
        /// Scalar trainable threshold μ.
        mu: Param,
    },
    /// Plain ReLU (used by baseline configurations without thresholds).
    Relu,
    /// Max pooling with window & stride `k`.
    MaxPool2d {
        /// Window side and stride.
        k: usize,
    },
    /// Average pooling with window & stride `k`.
    AvgPool2d {
        /// Window side and stride.
        k: usize,
    },
    /// Inverted dropout with drop probability `p` (identity in eval mode).
    Dropout {
        /// Drop probability.
        p: f32,
    },
    /// Collapses `[N, C, H, W]` to `[N, C·H·W]`.
    Flatten,
    /// Elementwise sum of exactly two inputs (residual connection).
    Add,
}

/// One node: an operation plus the ids of its input nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The operation.
    pub op: NodeOp,
    /// Input node ids (empty for `Input`, two for `Add`, one otherwise).
    pub inputs: Vec<NodeId>,
}

/// Auxiliary per-node state recorded during a training forward pass.
#[derive(Debug, Clone, PartialEq)]
enum Aux {
    None,
    MaxPool { argmax: Vec<usize> },
    Dropout { mask: Tensor },
}

/// One tape record: the node's output activation plus auxiliary state.
#[derive(Debug, Clone)]
pub struct TapeEntry {
    /// The node's output for this batch.
    pub activation: Tensor,
    aux: Aux,
}

/// A feed-forward network as a static graph in topological order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    nodes: Vec<Node>,
    output: NodeId,
}

impl Network {
    /// The nodes in topological order. Node 0 is the input.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to the nodes (used by the converter to rescale
    /// thresholds and fold β into weights).
    pub fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// Id of the output (logits) node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(|p| n += p.len());
        n
    }

    /// Applies `f` to every parameter.
    pub fn visit_params(&self, mut f: impl FnMut(&Param)) {
        for node in &self.nodes {
            match &node.op {
                NodeOp::Conv2d { weight, bias, .. } | NodeOp::Linear { weight, bias } => {
                    f(weight);
                    if let Some(b) = bias {
                        f(b);
                    }
                }
                NodeOp::ThresholdRelu { mu } => f(mu),
                _ => {}
            }
        }
    }

    /// Applies `f` to every parameter, mutably.
    pub fn visit_params_mut(&mut self, mut f: impl FnMut(&mut Param)) {
        for node in &mut self.nodes {
            match &mut node.op {
                NodeOp::Conv2d { weight, bias, .. } | NodeOp::Linear { weight, bias } => {
                    f(weight);
                    if let Some(b) = bias {
                        f(b);
                    }
                }
                NodeOp::ThresholdRelu { mu } => f(mu),
                _ => {}
            }
        }
    }

    /// Clears every parameter gradient.
    pub fn zero_grad(&mut self) {
        self.visit_params_mut(|p| p.zero_grad());
    }

    /// Ids of all [`NodeOp::ThresholdRelu`] nodes, in forward order — the
    /// "activation layers" the conversion algorithm operates on.
    pub fn threshold_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, NodeOp::ThresholdRelu { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// The μ value of a threshold node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a `ThresholdRelu` node.
    pub fn threshold_mu(&self, id: NodeId) -> f32 {
        match &self.nodes[id].op {
            NodeOp::ThresholdRelu { mu } => mu.scalar_value(),
            other => panic!("node {id} is not ThresholdRelu (got {other:?})"),
        }
    }

    /// Evaluation-mode forward pass returning the output activation.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches inside the graph.
    pub fn forward_eval(&self, x: &Tensor) -> Tensor {
        let acts = self.forward_collect(x);
        acts[self.output].clone()
    }

    /// Evaluation-mode forward pass returning every node's activation.
    /// The conversion algorithm reads pre-activations of threshold nodes
    /// from here (the activation of the node's input).
    pub fn forward_collect(&self, x: &Tensor) -> Vec<Tensor> {
        let mut acts: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let value = match &node.op {
                NodeOp::Input => x.clone(),
                op => self.eval_op(op, &node.inputs, &acts, None).0,
            };
            acts.push(value);
        }
        acts
    }

    /// Training-mode forward pass: applies dropout and records the tape
    /// needed by [`Network::backward`].
    pub fn forward_train(&self, x: &Tensor, rng: &mut StdRng) -> Vec<TapeEntry> {
        let mut tape: Vec<TapeEntry> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let (activation, aux) = match &node.op {
                NodeOp::Input => (x.clone(), Aux::None),
                op => {
                    let acts: Vec<&Tensor> = tape.iter().map(|t| &t.activation).collect();
                    self.eval_op_ref(op, &node.inputs, &acts, Some(rng))
                }
            };
            tape.push(TapeEntry { activation, aux });
        }
        tape
    }

    fn eval_op(
        &self,
        op: &NodeOp,
        inputs: &[NodeId],
        acts: &[Tensor],
        rng: Option<&mut StdRng>,
    ) -> (Tensor, Aux) {
        let refs: Vec<&Tensor> = acts.iter().collect();
        self.eval_op_ref(op, inputs, &refs, rng)
    }

    fn eval_op_ref(
        &self,
        op: &NodeOp,
        inputs: &[NodeId],
        acts: &[&Tensor],
        rng: Option<&mut StdRng>,
    ) -> (Tensor, Aux) {
        let a = |i: usize| acts[inputs[i]];
        match op {
            NodeOp::Input => unreachable!("input handled by caller"),
            NodeOp::Conv2d { weight, bias, geo } => (
                conv2d(a(0), &weight.value, bias.as_ref().map(|b| &b.value), *geo),
                Aux::None,
            ),
            NodeOp::Linear { weight, bias } => {
                let mut y = matmul_transpose_b(a(0), &weight.value);
                if let Some(b) = bias {
                    let out = weight.value.shape()[0];
                    let bd = b.value.data();
                    for row in y.data_mut().chunks_mut(out) {
                        for (v, &bb) in row.iter_mut().zip(bd) {
                            *v += bb;
                        }
                    }
                }
                (y, Aux::None)
            }
            NodeOp::ThresholdRelu { mu } => (a(0).clip(0.0, mu.scalar_value()), Aux::None),
            NodeOp::Relu => (a(0).relu(), Aux::None),
            NodeOp::MaxPool2d { k } => {
                let p = maxpool2d(a(0), *k);
                (p.output, Aux::MaxPool { argmax: p.argmax })
            }
            NodeOp::AvgPool2d { k } => (avgpool2d(a(0), *k), Aux::None),
            NodeOp::Dropout { p } => match rng {
                Some(rng) if *p > 0.0 => {
                    let keep = 1.0 - p;
                    let scale = 1.0 / keep;
                    let mut mask = Tensor::zeros(a(0).shape());
                    for m in mask.data_mut() {
                        *m = if rng.gen::<f32>() < keep { scale } else { 0.0 };
                    }
                    (a(0).mul(&mask), Aux::Dropout { mask })
                }
                _ => (a(0).clone(), Aux::None),
            },
            NodeOp::Flatten => {
                let x = a(0);
                let n = x.shape()[0];
                let rest: usize = x.shape()[1..].iter().product();
                (
                    x.reshape(&[n, rest]).expect("flatten preserves length"),
                    Aux::None,
                )
            }
            NodeOp::Add => (a(0).add(a(1)), Aux::None),
        }
    }

    /// Backward pass: given the training tape and the gradient of the loss
    /// with respect to the output node, accumulates parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output` does not match the output activation's shape
    /// or the tape does not belong to this network.
    pub fn backward(&mut self, tape: &[TapeEntry], grad_output: &Tensor) {
        assert_eq!(
            tape.len(),
            self.nodes.len(),
            "tape length does not match network"
        );
        assert_eq!(
            grad_output.shape(),
            tape[self.output].activation.shape(),
            "grad_output shape mismatch"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[self.output] = Some(grad_output.clone());
        for i in (0..self.nodes.len()).rev() {
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            let inputs = self.nodes[i].inputs.clone();
            match &mut self.nodes[i].op {
                NodeOp::Input => {}
                NodeOp::Conv2d { weight, bias, geo } => {
                    let x = &tape[inputs[0]].activation;
                    let (dx, dw, db) = conv2d_backward(x, &weight.value, &g, *geo);
                    weight.grad.add_assign(&dw);
                    if let Some(b) = bias {
                        b.grad.add_assign(&db);
                    }
                    accumulate(&mut grads[inputs[0]], dx);
                }
                NodeOp::Linear { weight, bias } => {
                    let x = &tape[inputs[0]].activation;
                    // y = x Wᵀ ⇒ dx = g W, dW = gᵀ x, db = Σ_rows g.
                    let dx = matmul(&g, &weight.value);
                    let dw = matmul_transpose_a(&g, x);
                    weight.grad.add_assign(&dw);
                    if let Some(b) = bias {
                        b.grad.add_assign(&g.sum_rows());
                    }
                    accumulate(&mut grads[inputs[0]], dx);
                }
                NodeOp::ThresholdRelu { mu } => {
                    let m = mu.scalar_value();
                    let x = &tape[inputs[0]].activation;
                    let mask = x.map(|v| if v > 0.0 && v < m { 1.0 } else { 0.0 });
                    let dx = g.mul(&mask);
                    let dmu: f32 = x
                        .data()
                        .iter()
                        .zip(g.data())
                        .filter(|(&v, _)| v >= m)
                        .map(|(_, &gg)| gg)
                        .sum();
                    mu.grad.data_mut()[0] += dmu;
                    accumulate(&mut grads[inputs[0]], dx);
                }
                NodeOp::Relu => {
                    let x = &tape[inputs[0]].activation;
                    let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    accumulate(&mut grads[inputs[0]], g.mul(&mask));
                }
                NodeOp::MaxPool2d { .. } => {
                    let argmax = match &tape[i].aux {
                        Aux::MaxPool { argmax } => argmax,
                        _ => panic!("tape entry {i} missing maxpool argmax"),
                    };
                    let shape = tape[inputs[0]].activation.shape().to_vec();
                    accumulate(
                        &mut grads[inputs[0]],
                        maxpool2d_backward(&g, argmax, &shape),
                    );
                }
                NodeOp::AvgPool2d { k } => {
                    let k = *k;
                    let shape = tape[inputs[0]].activation.shape().to_vec();
                    accumulate(&mut grads[inputs[0]], avgpool2d_backward(&g, &shape, k));
                }
                NodeOp::Dropout { .. } => {
                    let dx = match &tape[i].aux {
                        Aux::Dropout { mask } => g.mul(mask),
                        Aux::None => g,
                        other => panic!("tape entry {i} has wrong aux {other:?}"),
                    };
                    accumulate(&mut grads[inputs[0]], dx);
                }
                NodeOp::Flatten => {
                    let shape = tape[inputs[0]].activation.shape().to_vec();
                    let dx = g.reshape(&shape).expect("flatten backward reshape");
                    accumulate(&mut grads[inputs[0]], dx);
                }
                NodeOp::Add => {
                    accumulate(&mut grads[inputs[0]], g.clone());
                    accumulate(&mut grads[inputs[1]], g);
                }
            }
        }
    }

    /// Human-readable one-line-per-node summary.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let desc = match &node.op {
                NodeOp::Input => "Input".to_string(),
                NodeOp::Conv2d { weight, geo, .. } => format!(
                    "Conv2d {:?} k{} s{} p{}",
                    weight.value.shape(),
                    geo.kh,
                    geo.stride,
                    geo.padding
                ),
                NodeOp::Linear { weight, .. } => {
                    format!("Linear {:?}", weight.value.shape())
                }
                NodeOp::ThresholdRelu { mu } => {
                    format!("ThresholdReLU mu={:.4}", mu.scalar_value())
                }
                NodeOp::Relu => "ReLU".to_string(),
                NodeOp::MaxPool2d { k } => format!("MaxPool2d k{k}"),
                NodeOp::AvgPool2d { k } => format!("AvgPool2d k{k}"),
                NodeOp::Dropout { p } => format!("Dropout p={p}"),
                NodeOp::Flatten => "Flatten".to_string(),
                NodeOp::Add => "Add".to_string(),
            };
            s.push_str(&format!("{i:>3}: {desc}  <- {:?}\n", node.inputs));
        }
        s
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        Some(acc) => acc.add_assign(&g),
        None => *slot = Some(g),
    }
}

/// Incremental builder for [`Network`]s.
///
/// Keeps a cursor at the most recently added node so chains read naturally;
/// residual connections use explicit node ids.
///
/// # Example
///
/// ```
/// use ull_nn::NetworkBuilder;
///
/// let mut b = NetworkBuilder::new(3, 8, 42);
/// b.conv2d(8, 3, 1, 1);
/// b.threshold_relu(4.0);
/// b.maxpool(2);
/// b.flatten();
/// b.linear(10);
/// let net = b.build();
/// assert_eq!(net.nodes().len(), 6);
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    cursor: NodeId,
    /// (channels, height, width) at the cursor, or `None` after flatten.
    spatial: Option<(usize, usize, usize)>,
    /// Feature width after flatten/linear.
    features: usize,
    rng: StdRng,
}

impl NetworkBuilder {
    /// Starts a network for `[N, in_channels, image_size, image_size]`
    /// inputs; `seed` drives weight initialisation.
    pub fn new(in_channels: usize, image_size: usize, seed: u64) -> Self {
        NetworkBuilder {
            nodes: vec![Node {
                op: NodeOp::Input,
                inputs: vec![],
            }],
            cursor: 0,
            spatial: Some((in_channels, image_size, image_size)),
            features: 0,
            rng: ull_tensor::init::seeded_rng(seed),
        }
    }

    fn push(&mut self, op: NodeOp, inputs: Vec<NodeId>) -> NodeId {
        self.nodes.push(Node { op, inputs });
        self.cursor = self.nodes.len() - 1;
        self.cursor
    }

    /// Current cursor node (input of the next chained op).
    pub fn cursor(&self) -> NodeId {
        self.cursor
    }

    /// Rewinds the cursor to an existing node (for branching).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist. Branching away from a flattened
    /// trunk is not supported and will produce wrong spatial bookkeeping.
    pub fn set_cursor(&mut self, id: NodeId, spatial: (usize, usize, usize)) {
        assert!(id < self.nodes.len(), "cursor {id} out of range");
        self.cursor = id;
        self.spatial = Some(spatial);
    }

    /// Spatial dims `(C, H, W)` at the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the trunk has been flattened.
    pub fn spatial(&self) -> (usize, usize, usize) {
        self.spatial.expect("spatial dims requested after flatten")
    }

    /// Adds a convolution with `filters` output channels, square kernel `k`,
    /// given stride and padding. Bias-free convs (`bias=false` in spirit)
    /// are the paper's conversion-friendly default — biases complicate
    /// threshold balancing — but a bias can be enabled for baselines.
    pub fn conv2d(&mut self, filters: usize, k: usize, stride: usize, padding: usize) -> NodeId {
        self.conv2d_opts(filters, k, stride, padding, false)
    }

    /// [`NetworkBuilder::conv2d`] with an explicit bias switch.
    ///
    /// # Panics
    ///
    /// Panics if called after `flatten`.
    pub fn conv2d_opts(
        &mut self,
        filters: usize,
        k: usize,
        stride: usize,
        padding: usize,
        bias: bool,
    ) -> NodeId {
        let (c, h, w) = self.spatial();
        let geo = ConvGeometry::square(k, stride, padding);
        let (oh, ow) = geo.output_hw(h, w);
        let weight = Param::new(
            ull_tensor::init::kaiming_normal(&[filters, c, k, k], &mut self.rng),
            true,
        );
        let bias = bias.then(|| Param::new(Tensor::zeros(&[filters]), false));
        let prev = self.cursor;
        let id = self.push(NodeOp::Conv2d { weight, bias, geo }, vec![prev]);
        self.spatial = Some((filters, oh, ow));
        id
    }

    /// Adds a trainable-threshold ReLU initialised at `mu_init`.
    pub fn threshold_relu(&mut self, mu_init: f32) -> NodeId {
        let prev = self.cursor;
        self.push(
            NodeOp::ThresholdRelu {
                mu: Param::scalar(mu_init, false),
            },
            vec![prev],
        )
    }

    /// Adds a plain ReLU (baseline configurations).
    pub fn relu(&mut self) -> NodeId {
        let prev = self.cursor;
        self.push(NodeOp::Relu, vec![prev])
    }

    /// Adds max pooling with window `k`.
    ///
    /// # Panics
    ///
    /// Panics if called after `flatten`.
    pub fn maxpool(&mut self, k: usize) -> NodeId {
        let (c, h, w) = self.spatial();
        let prev = self.cursor;
        let id = self.push(NodeOp::MaxPool2d { k }, vec![prev]);
        self.spatial = Some((c, h / k, w / k));
        id
    }

    /// Adds average pooling with window `k`.
    ///
    /// # Panics
    ///
    /// Panics if called after `flatten`.
    pub fn avgpool(&mut self, k: usize) -> NodeId {
        let (c, h, w) = self.spatial();
        let prev = self.cursor;
        let id = self.push(NodeOp::AvgPool2d { k }, vec![prev]);
        self.spatial = Some((c, h / k, w / k));
        id
    }

    /// Adds inverted dropout with drop probability `p`.
    pub fn dropout(&mut self, p: f32) -> NodeId {
        let prev = self.cursor;
        self.push(NodeOp::Dropout { p }, vec![prev])
    }

    /// Flattens `[N, C, H, W]` to `[N, C·H·W]`.
    pub fn flatten(&mut self) -> NodeId {
        let (c, h, w) = self.spatial();
        self.features = c * h * w;
        self.spatial = None;
        let prev = self.cursor;
        self.push(NodeOp::Flatten, vec![prev])
    }

    /// Adds a bias-free linear layer with `out` features.
    ///
    /// # Panics
    ///
    /// Panics if called before `flatten`.
    pub fn linear(&mut self, out: usize) -> NodeId {
        self.linear_opts(out, false)
    }

    /// [`NetworkBuilder::linear`] with an explicit bias switch.
    ///
    /// # Panics
    ///
    /// Panics if called before `flatten`.
    pub fn linear_opts(&mut self, out: usize, bias: bool) -> NodeId {
        assert!(
            self.spatial.is_none(),
            "linear before flatten; call flatten() first"
        );
        let weight = Param::new(
            ull_tensor::init::kaiming_normal(&[out, self.features], &mut self.rng),
            true,
        );
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out]), false));
        self.features = out;
        let prev = self.cursor;
        self.push(NodeOp::Linear { weight, bias }, vec![prev])
    }

    /// Adds a residual sum of nodes `a` and `b`; the cursor moves to it.
    /// Caller is responsible for `a` and `b` having equal shapes and for
    /// restoring the correct spatial bookkeeping via `spatial_after_add`.
    pub fn add(
        &mut self,
        a: NodeId,
        b: NodeId,
        spatial_after_add: (usize, usize, usize),
    ) -> NodeId {
        let id = self.push(NodeOp::Add, vec![a, b]);
        self.spatial = Some(spatial_after_add);
        id
    }

    /// Finalises the network; the output is the current cursor node.
    pub fn build(self) -> Network {
        Network {
            output: self.cursor,
            nodes: self.nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_grad::check_gradient;
    use ull_tensor::init::{normal, seeded_rng};

    fn tiny_net(seed: u64) -> Network {
        let mut b = NetworkBuilder::new(2, 4, seed);
        b.conv2d(3, 3, 1, 1);
        b.threshold_relu(0.8);
        b.maxpool(2);
        b.flatten();
        b.linear(4);
        b.build()
    }

    #[test]
    fn builder_shapes_and_forward() {
        let net = tiny_net(1);
        let x = Tensor::zeros(&[5, 2, 4, 4]);
        let y = net.forward_eval(&x);
        assert_eq!(y.shape(), &[5, 4]);
        assert_eq!(net.threshold_nodes(), vec![2]);
    }

    #[test]
    fn forward_collect_exposes_preactivations() {
        let net = tiny_net(2);
        let x = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(9));
        let acts = net.forward_collect(&x);
        assert_eq!(acts.len(), net.nodes().len());
        // Pre-activation of the threshold node is the conv output.
        let pre = &acts[1];
        let post = &acts[2];
        for (a, b) in pre.data().iter().zip(post.data()) {
            assert!((b - a.clamp(0.0, 0.8)).abs() < 1e-6);
        }
    }

    #[test]
    fn eval_and_train_agree_without_dropout() {
        let net = tiny_net(3);
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(4));
        let eval = net.forward_eval(&x);
        let tape = net.forward_train(&x, &mut seeded_rng(5));
        assert_eq!(tape[net.output()].activation, eval);
    }

    #[test]
    fn dropout_train_vs_eval() {
        let mut b = NetworkBuilder::new(1, 2, 7);
        b.flatten();
        b.dropout(0.5);
        b.linear(2);
        let net = b.build();
        let x = Tensor::ones(&[4, 1, 2, 2]);
        // Eval: deterministic.
        let e1 = net.forward_eval(&x);
        let e2 = net.forward_eval(&x);
        assert_eq!(e1, e2);
        // Train: the dropout mask zeroes some inputs.
        let tape = net.forward_train(&x, &mut seeded_rng(1));
        let dropped = &tape[2].activation;
        assert!(dropped.data().contains(&0.0));
        assert!(dropped.data().iter().any(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut net = tiny_net(6);
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(8));
        let tape = net.forward_train(&x, &mut seeded_rng(0));
        let go = Tensor::ones(tape[net.output()].activation.shape());
        net.backward(&tape, &go);
        let mut any_nonzero = false;
        net.visit_params(|p| any_nonzero |= p.grad.data().iter().any(|&g| g != 0.0));
        assert!(any_nonzero);
        net.zero_grad();
        let mut all_zero = true;
        net.visit_params(|p| all_zero &= p.grad.data().iter().all(|&g| g == 0.0));
        assert!(all_zero);
    }

    #[test]
    fn network_gradient_matches_finite_differences() {
        // Full pipeline loss = sum(logits); input gradient via our backward
        // vs central differences.
        let net = tiny_net(10);
        let x0 = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(12));

        let loss = |x: &Tensor| net.forward_eval(x).sum();

        // Analytic input grad: backward through a cloned network, seeding
        // grad at the output and reading the input node's gradient by
        // re-deriving it from the first conv (we read d/dx via conv of
        // weight with upstream grads). Simpler: finite-check parameter
        // gradients instead, which backward exposes directly.
        let mut net2 = net.clone();
        let tape = net2.forward_train(&x0, &mut seeded_rng(0));
        let go = Tensor::ones(tape[net2.output()].activation.shape());
        net2.backward(&tape, &go);

        // Check conv weight gradient by finite differences.
        let (wv, wg) = match &net2.nodes()[1].op {
            NodeOp::Conv2d { weight, .. } => (weight.value.clone(), weight.grad.clone()),
            _ => unreachable!(),
        };
        let mut f = |w: &Tensor| {
            let mut n = net.clone();
            if let NodeOp::Conv2d { weight, .. } = &mut n.nodes_mut()[1].op {
                weight.value = w.clone();
            }
            n.forward_eval(&x0).sum()
        };
        let rep = check_gradient(&mut f, &wv, &wg, 1e-2, 3);
        assert!(rep.passes(3e-2), "conv dW rel err {}", rep.max_rel_error);
        let _ = loss(&x0);
    }

    #[test]
    fn mu_gradient_matches_finite_differences() {
        let net = tiny_net(11);
        let x0 = normal(&[2, 2, 4, 4], 0.0, 1.5, &mut seeded_rng(13));
        let mut net2 = net.clone();
        let tape = net2.forward_train(&x0, &mut seeded_rng(0));
        let go = Tensor::ones(tape[net2.output()].activation.shape());
        net2.backward(&tape, &go);
        let mug = match &net2.nodes()[2].op {
            NodeOp::ThresholdRelu { mu } => mu.grad.clone(),
            _ => unreachable!(),
        };
        let mu0 = Tensor::from_slice(&[0.8]);
        let mut f = |m: &Tensor| {
            let mut n = net.clone();
            if let NodeOp::ThresholdRelu { mu } = &mut n.nodes_mut()[2].op {
                mu.value = m.clone();
            }
            n.forward_eval(&x0).sum()
        };
        let rep = check_gradient(&mut f, &mu0, &mug, 1e-3, 1);
        assert!(rep.passes(3e-2), "dmu rel err {}", rep.max_rel_error);
    }

    #[test]
    fn residual_add_backward_splits_gradient() {
        // x -> conv a -> relu -> add(x-conv path, identity) topology.
        let mut b = NetworkBuilder::new(1, 2, 20);
        let input_id = b.cursor();
        b.conv2d(1, 1, 1, 0);
        let branch = b.cursor();
        b.add(branch, input_id, (1, 2, 2));
        b.flatten();
        b.linear(2);
        let mut net = b.build();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let tape = net.forward_train(&x, &mut seeded_rng(0));
        let go = Tensor::ones(&[1, 2]);
        net.backward(&tape, &go);
        // conv weight grad must be nonzero (gradient flowed through branch).
        if let NodeOp::Conv2d { weight, .. } = &net.nodes()[1].op {
            assert!(weight.grad.data()[0] != 0.0);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn serde_round_trip_preserves_forward() {
        let net = tiny_net(30);
        let x = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(31));
        let y = net.forward_eval(&x);
        let json = serde_json::to_string(&net).unwrap();
        let back: Network = serde_json::from_str(&json).unwrap();
        assert_eq!(back.forward_eval(&x), y);
    }

    #[test]
    fn describe_mentions_every_node() {
        let net = tiny_net(40);
        let d = net.describe();
        assert!(d.contains("Conv2d"));
        assert!(d.contains("ThresholdReLU"));
        assert!(d.contains("Linear"));
        assert_eq!(d.lines().count(), net.nodes().len());
    }
}
