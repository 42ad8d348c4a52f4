//! The spiking network: structure, conversion from a DNN, and temporal
//! forward passes.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize, Value};
use ull_nn::{Network, NodeId, NodeOp, Param};
use ull_tensor::conv::{conv2d_packed_into, ConvGeometry, ConvScratch};
use ull_tensor::parallel;
use ull_tensor::pool::{avgpool2d_into, maxpool2d_into};
use ull_tensor::{matmul_tb_packed_into, Tensor};

use crate::packing::PackedNet;
use crate::stats::SpikeStats;

/// Error type for SNN construction and transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnnError {
    /// The DNN contains an op the SNN simulator cannot mirror.
    UnsupportedOp {
        /// Node id in the source network.
        node: NodeId,
        /// Short name of the offending op.
        op: &'static str,
    },
    /// The number of [`SpikeSpec`]s does not match the number of threshold
    /// layers in the source DNN.
    SpecCountMismatch {
        /// Threshold layers found in the DNN.
        expected: usize,
        /// Specs provided.
        actual: usize,
    },
    /// Amplitude folding hit a structure it cannot fold through.
    FoldUnsupported {
        /// Node id where folding stopped.
        node: NodeId,
        /// Why folding is impossible there.
        reason: &'static str,
    },
    /// A parameter failed the finite/range checks of
    /// [`SnnNetwork::validate`] (non-finite weight, absurd threshold, …).
    InvalidParam {
        /// Node id holding the bad parameter.
        node: NodeId,
        /// Which check failed and the offending value.
        reason: String,
    },
}

impl fmt::Display for SnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnnError::UnsupportedOp { node, op } => {
                write!(f, "node {node}: op {op} is not supported in SNNs")
            }
            SnnError::SpecCountMismatch { expected, actual } => write!(
                f,
                "expected {expected} spike specs (one per threshold layer), got {actual}"
            ),
            SnnError::FoldUnsupported { node, reason } => {
                write!(f, "cannot fold amplitude at node {node}: {reason}")
            }
            SnnError::InvalidParam { node, reason } => {
                write!(f, "node {node}: invalid parameter: {reason}")
            }
        }
    }
}

impl Error for SnnError {}

/// Conversion parameters for one spiking layer, produced by the conversion
/// algorithms in `ull-core`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikeSpec {
    /// Firing threshold `V^th` (the paper sets it to `α·μ`).
    pub v_th: f32,
    /// Output magnitude per spike (Eq. 8: `β·V^th`; plain IF uses `V^th`).
    pub amp: f32,
    /// Leak λ (1.0 = IF, the conversion target).
    pub leak: f32,
    /// Initial membrane charge `U(0)`. Deng et al.'s bias shift
    /// `δ = V^th/2T` is equivalent to `U(0) = V^th/2`.
    pub u_init: f32,
}

impl SpikeSpec {
    /// The unscaled IF spec of Eq. 3: output magnitude equals the threshold.
    pub fn identity(v_th: f32) -> Self {
        SpikeSpec {
            v_th,
            amp: v_th,
            leak: 1.0,
            u_init: 0.0,
        }
    }

    /// The bias-shifted IF spec of Deng et al. \[15\]: initial membrane
    /// charge `V^th/2`, equivalent to shifting the SNN activation left by
    /// `δ = V^th/2T`.
    pub fn bias_shifted(v_th: f32) -> Self {
        SpikeSpec {
            v_th,
            amp: v_th,
            leak: 1.0,
            u_init: v_th / 2.0,
        }
    }

    /// The paper's scaled spec: threshold `α·μ`, output `β·V^th`.
    pub fn scaled(mu: f32, alpha: f32, beta: f32) -> Self {
        let v_th = alpha * mu;
        SpikeSpec {
            v_th,
            amp: beta * v_th,
            leak: 1.0,
            u_init: 0.0,
        }
    }
}

/// A layer of LIF/IF neurons (Eq. 2–4, Eq. 8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpikeLayer {
    /// Trainable firing threshold `V^th`.
    pub v_th: Param,
    /// Trainable leak λ.
    pub leak: Param,
    /// Fixed output magnitude per spike (β·V^th at conversion). The paper
    /// absorbs this into downstream weights; see
    /// [`SnnNetwork::fold_amplitudes`].
    pub amp: f32,
    /// Initial membrane charge (0 unless the converter uses a bias shift).
    pub u_init: f32,
}

impl SpikeLayer {
    /// Builds a layer from a conversion spec.
    pub fn from_spec(spec: SpikeSpec) -> Self {
        SpikeLayer {
            v_th: Param::scalar(spec.v_th, false),
            leak: Param::scalar(spec.leak, false),
            amp: spec.amp,
            u_init: spec.u_init,
        }
    }
}

/// Operation performed by one SNN node. Mirrors [`ull_nn::NodeOp`] with
/// `ThresholdRelu` replaced by [`SpikeLayer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SnnOp {
    /// Direct-encoded input: the analog image, presented every time step.
    Input,
    /// Convolution applied to incoming values (analog at layer 1, spikes
    /// elsewhere).
    Conv2d {
        /// Filter bank `[F, C, KH, KW]`.
        weight: Param,
        /// Optional bias (adds a constant current every step).
        bias: Option<Param>,
        /// Geometry.
        geo: ConvGeometry,
    },
    /// Fully connected layer.
    Linear {
        /// Weight matrix `[out, in]`.
        weight: Param,
        /// Optional bias.
        bias: Option<Param>,
    },
    /// LIF/IF neurons.
    Spike(SpikeLayer),
    /// Max pooling (binary in ⇒ binary out; §IV-A).
    MaxPool2d {
        /// Window and stride.
        k: usize,
    },
    /// Average pooling.
    AvgPool2d {
        /// Window and stride.
        k: usize,
    },
    /// Dropout with a mask *shared across time steps* (DIET-SNN style).
    Dropout {
        /// Drop probability.
        p: f32,
    },
    /// Flatten to `[N, features]`.
    Flatten,
    /// Residual sum of two inputs.
    Add,
}

/// One SNN node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnnNode {
    /// The operation.
    pub op: SnnOp,
    /// Input node ids.
    pub inputs: Vec<NodeId>,
}

/// Largest firing threshold accepted by [`SnnNetwork::validate`]. The
/// paper's calibrated thresholds are `α·μ` with α ≤ 1 and μ a percentile of
/// real pre-activations — orders of magnitude below this bound, so anything
/// beyond it is corruption, not calibration.
pub const MAX_V_TH: f32 = 1e4;

/// Membrane potentials beyond this magnitude are treated as corrupted and
/// clamped during simulation (NaN resets to 0). Clean networks never get
/// close: with validated weights and thresholds, membranes stay within a
/// few multiples of `V^th`.
pub const MEMBRANE_CLAMP: f32 = 1e6;

/// Hook for per-timestep spike-train tampering — the inference
/// fault-injection seam used by `ull-robust` (spike deletion/insertion,
/// stuck-at neurons).
///
/// Implementations may delete, insert or corrupt individual spikes in a
/// spike layer's output. Decisions must depend only on *coordinates*
/// (step, node, global sample index, neuron) — never on call order — so a
/// tampered run is bit-identical for any `ULL_THREADS` batch chunking (use
/// [`ull_tensor::init::mix64`] for this).
pub trait StepTamper: Sync {
    /// Tamper with `out`, the `[chunk, ...]` spike output of `node` at
    /// time step `step` (0-based). `batch_offset` maps local row `r` to
    /// the global sample index `batch_offset + r`; `amp` is the layer's
    /// per-spike output magnitude (the value an inserted spike should
    /// carry).
    fn tamper_spikes(
        &self,
        step: usize,
        node: NodeId,
        batch_offset: usize,
        amp: f32,
        out: &mut Tensor,
    );
}

/// Output of an inference run: accumulated logits plus spiking statistics.
#[derive(Debug, Clone)]
pub struct SnnOutput {
    /// Mean over time steps of the output layer's activation, `[N, classes]`.
    pub logits: Tensor,
    /// Per-node spike counts and neuron counts.
    pub stats: SpikeStats,
}

/// Per-(step, node) auxiliary record for BPTT.
#[derive(Debug, Clone)]
pub(crate) enum StepAux {
    None,
    MaxPool { argmax: Vec<usize> },
    Spike { u_temp: Tensor, u_prev: Tensor },
}

/// The BPTT extras of one training step, handed to
/// [`SnnNetwork::step_ws`]: the dropout masks shared by every step, the
/// RNG that samples them, and this step's per-node [`StepAux`].
pub(crate) struct TapeStep<'a> {
    masks: &'a mut [Option<Tensor>],
    rng: &'a mut StdRng,
    aux: Vec<StepAux>,
}

/// Reusable per-batch-chunk simulation state for the forward path.
///
/// Every buffer a time step needs — membranes, per-node activations, conv
/// scratch — lives here and is refilled in place, so after the first step
/// the steady-state eval loop performs **zero heap allocations** (asserted
/// by `crates/snn/tests/alloc_free.rs`). One workspace exists per batch
/// chunk, giving the batch-parallel path workers fully independent state.
struct StepWorkspace {
    membranes: Vec<Option<Tensor>>,
    /// Per-node output of the current step, reused across steps.
    acts: Vec<Tensor>,
    /// GEMM product scratch shared by the conv nodes, which run one at a
    /// time; it grows to the largest layer's size in the first step.
    conv_scratch: ConvScratch,
}

impl StepWorkspace {
    fn new(n_nodes: usize) -> Self {
        StepWorkspace {
            membranes: vec![None; n_nodes],
            acts: vec![Tensor::default(); n_nodes],
            conv_scratch: ConvScratch::default(),
        }
    }
}

/// One serial run: the [`StepWorkspace`], the [`SpikeStats`], the
/// network's weight pack and the optional tamper hook, plus the running sum
/// of the output node. Every forward entry point — [`SnnNetwork::forward`]'s
/// batch chunks, the probes, the input encodings and
/// [`SnnNetwork::forward_train`] — is a short loop over [`Stepper::step`],
/// so they all share [`SnnNetwork::step_ws`].
pub(crate) struct Stepper<'a> {
    net: &'a SnnNetwork,
    ws: StepWorkspace,
    stats: SpikeStats,
    pack: Arc<PackedNet>,
    /// Fault hook plus this chunk's global batch offset.
    tamper: Option<(&'a dyn StepTamper, usize)>,
    logit_sum: Option<Tensor>,
    steps: usize,
}

impl<'a> Stepper<'a> {
    /// A fresh run over `batch` samples; `t_steps` is the step count the
    /// stats record (an early-stopping caller may run fewer).
    fn new(
        net: &'a SnnNetwork,
        batch: usize,
        t_steps: usize,
        tamper: Option<(&'a dyn StepTamper, usize)>,
    ) -> Self {
        Stepper {
            net,
            ws: StepWorkspace::new(net.nodes.len()),
            stats: SpikeStats::new(net.nodes.len(), batch, t_steps),
            pack: net.prepack(),
            tamper,
            logit_sum: None,
            steps: 0,
        }
    }

    /// Simulates the next time step on `input` (recording the BPTT extras
    /// into `tape` when given) and returns every node's output. The
    /// activations live in the workspace and are overwritten by the next
    /// step unless the caller moves them out.
    pub(crate) fn step(
        &mut self,
        input: &Tensor,
        tape: Option<&mut TapeStep<'_>>,
    ) -> &mut [Tensor] {
        let tamper = self.tamper.map(|(hook, off)| (hook, self.steps, off));
        self.net.step_ws(
            input,
            &mut self.ws,
            &mut self.stats,
            tamper,
            &self.pack,
            tape,
        );
        self.steps += 1;
        accumulate_opt(&mut self.logit_sum, &self.ws.acts[self.net.output]);
        &mut self.ws.acts
    }

    /// Spike counters accumulated so far.
    fn stats(&self) -> &SpikeStats {
        &self.stats
    }

    /// Refills `mean` in place with the running mean of the output node.
    fn mean_logits_into(&self, mean: &mut Tensor) {
        mean.copy_from(self.logit_sum.as_ref().expect("at least one step ran"));
        mean.scale_in_place(1.0 / self.steps as f32);
    }

    /// The mean output over the steps run, plus the spike counters.
    pub(crate) fn finish(self) -> SnnOutput {
        let mut logits = self.logit_sum.expect("at least one step ran");
        logits.scale_in_place(1.0 / self.steps as f32);
        SnnOutput {
            logits,
            stats: self.stats,
        }
    }
}

/// The BPTT tape: everything [`SnnNetwork::backward`] needs, and the object
/// whose size realises the paper's Fig. 3 memory measurements.
#[derive(Debug)]
pub struct SnnTape {
    /// Number of simulated time steps T.
    pub steps: usize,
    /// Mean-over-time logits, `[N, classes]`.
    pub logits: Tensor,
    /// `acts[t][node]`: output of each node at each step.
    pub(crate) acts: Vec<Vec<Tensor>>,
    /// `aux[t][node]`.
    pub(crate) aux: Vec<Vec<StepAux>>,
    /// Per-node dropout mask, shared across steps.
    pub(crate) masks: Vec<Option<Tensor>>,
}

impl SnnTape {
    /// `acts()[t][node]`: the output of each node at each step.
    pub fn acts(&self) -> &[Vec<Tensor>] {
        &self.acts
    }

    /// The dropout mask of `node`, shared by every step (`None` unless
    /// `node` is a dropout layer with `p > 0`).
    pub fn mask(&self, node: NodeId) -> Option<&Tensor> {
        self.masks.get(node).and_then(Option::as_ref)
    }

    /// Total bytes of cached state — the BPTT memory footprint that grows
    /// linearly with T (Fig. 3b).
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.logits.len() * 4;
        for step in &self.acts {
            for t in step {
                bytes += t.len() * 4;
            }
        }
        for step in &self.aux {
            for a in step {
                bytes += match a {
                    StepAux::None => 0,
                    StepAux::MaxPool { argmax } => argmax.len() * std::mem::size_of::<usize>(),
                    StepAux::Spike { u_temp, u_prev } => (u_temp.len() + u_prev.len()) * 4,
                };
            }
        }
        for m in self.masks.iter().flatten() {
            bytes += m.len() * 4;
        }
        bytes
    }
}

/// A spiking neural network sharing the topology of its source DNN
/// (node ids are identical, which the analysis tooling relies on).
///
/// The network owns its packed weights ([`SnnNetwork::prepack`]): built on
/// first use, shared by clones taken after that, and dropped by every
/// `&mut self` method that can reach the weights. The pack is runtime
/// state only: serde and `==` see just the nodes and the output, and
/// `Debug` shows only the pack's size.
#[derive(Debug, Clone)]
pub struct SnnNetwork {
    nodes: Vec<SnnNode>,
    output: NodeId,
    pub(crate) pack: OnceLock<Arc<PackedNet>>,
}

impl PartialEq for SnnNetwork {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.output == other.output
    }
}

// Hand-written so the document stays exactly `{"nodes", "output"}`: the
// pack is rebuilt from the weights, never stored.
impl Serialize for SnnNetwork {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("nodes".to_string(), self.nodes.to_value()),
            ("output".to_string(), self.output.to_value()),
        ])
    }
}

impl Deserialize for SnnNetwork {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("struct SnnNetwork: expected map"))?;
        let field = |name: &str| {
            serde::map_get(m, name)
                .ok_or_else(|| serde::Error::custom(format!("SnnNetwork: missing field `{name}`")))
        };
        Ok(SnnNetwork::new(
            Deserialize::from_value(field("nodes")?)?,
            Deserialize::from_value(field("output")?)?,
        ))
    }
}

impl SnnNetwork {
    /// Builds an SNN from a trained DNN by copying weights and replacing
    /// each `ThresholdRelu` with a [`SpikeLayer`] configured by the
    /// corresponding entry of `specs` (in [`Network::threshold_nodes`]
    /// order) — the threshold-balancing step of DNN→SNN conversion.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::SpecCountMismatch`] if `specs` does not align
    /// with the DNN's threshold layers, or [`SnnError::UnsupportedOp`] if
    /// the DNN contains a plain `Relu` (thresholds are required for
    /// conversion).
    pub fn from_network(dnn: &Network, specs: &[SpikeSpec]) -> Result<Self, SnnError> {
        let thresholds = dnn.threshold_nodes();
        if thresholds.len() != specs.len() {
            return Err(SnnError::SpecCountMismatch {
                expected: thresholds.len(),
                actual: specs.len(),
            });
        }
        let mut spec_iter = specs.iter();
        let mut nodes = Vec::with_capacity(dnn.nodes().len());
        for (id, node) in dnn.nodes().iter().enumerate() {
            let op = match &node.op {
                NodeOp::Input => SnnOp::Input,
                NodeOp::Conv2d { weight, bias, geo } => SnnOp::Conv2d {
                    weight: weight.clone(),
                    bias: bias.clone(),
                    geo: *geo,
                },
                NodeOp::Linear { weight, bias } => SnnOp::Linear {
                    weight: weight.clone(),
                    bias: bias.clone(),
                },
                NodeOp::ThresholdRelu { .. } => {
                    let spec = spec_iter.next().expect("spec count checked above");
                    SnnOp::Spike(SpikeLayer::from_spec(*spec))
                }
                NodeOp::Relu => {
                    return Err(SnnError::UnsupportedOp {
                        node: id,
                        op: "Relu (train with ThresholdRelu for conversion)",
                    })
                }
                NodeOp::MaxPool2d { k } => SnnOp::MaxPool2d { k: *k },
                NodeOp::AvgPool2d { k } => SnnOp::AvgPool2d { k: *k },
                NodeOp::Dropout { p } => SnnOp::Dropout { p: *p },
                NodeOp::Flatten => SnnOp::Flatten,
                NodeOp::Add => SnnOp::Add,
            };
            nodes.push(SnnNode {
                op,
                inputs: node.inputs.clone(),
            });
        }
        Ok(SnnNetwork::new(nodes, dnn.output()))
    }

    fn new(nodes: Vec<SnnNode>, output: NodeId) -> Self {
        SnnNetwork {
            nodes,
            output,
            pack: OnceLock::new(),
        }
    }

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[SnnNode] {
        &self.nodes
    }

    /// Mutable node access (used by converters). Drops the pack, so the
    /// next forward re-packs whatever the caller wrote.
    pub fn nodes_mut(&mut self) -> &mut [SnnNode] {
        self.pack.take();
        &mut self.nodes
    }

    /// Id of the output (logit-accumulating) node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Ids of all spike layers, in forward order.
    pub fn spike_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, SnnOp::Spike(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Applies `f` to every trainable parameter (weights, V^th, λ). Drops
    /// the pack, like [`SnnNetwork::nodes_mut`].
    pub fn visit_params_mut(&mut self, mut f: impl FnMut(&mut Param)) {
        for node in self.nodes_mut() {
            match &mut node.op {
                SnnOp::Conv2d { weight, bias, .. } | SnnOp::Linear { weight, bias } => {
                    f(weight);
                    if let Some(b) = bias {
                        f(b);
                    }
                }
                SnnOp::Spike(s) => {
                    f(&mut s.v_th);
                    f(&mut s.leak);
                }
                _ => {}
            }
        }
    }

    /// Immutable parameter visitor.
    pub fn visit_params(&self, mut f: impl FnMut(&Param)) {
        for node in &self.nodes {
            match &node.op {
                SnnOp::Conv2d { weight, bias, .. } | SnnOp::Linear { weight, bias } => {
                    f(weight);
                    if let Some(b) = bias {
                        f(b);
                    }
                }
                SnnOp::Spike(s) => {
                    f(&s.v_th);
                    f(&s.leak);
                }
                _ => {}
            }
        }
    }

    /// Clears every parameter gradient.
    pub fn zero_grad(&mut self) {
        self.visit_params_mut(|p| p.zero_grad());
    }

    /// Validates every parameter for finiteness and sane ranges — the
    /// model-load hardening gate. A NaN weight or an absurd `V^th` loaded
    /// from a corrupted checkpoint silently wrecks accuracy (the membrane
    /// either never crosses threshold or saturates every step); this
    /// rejects such models up front with a typed error.
    ///
    /// Accepted ranges: weights/biases all-finite; `V^th` in
    /// `(0, `[`MAX_V_TH`]`]`; leak λ finite in `[0, 2]`; `amp` finite with
    /// `|amp| ≤ `[`MEMBRANE_CLAMP`]; `|u_init| ≤ `[`MAX_V_TH`]; dropout
    /// `p` in `[0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidParam`] naming the first offending node
    /// and check.
    pub fn validate(&self) -> Result<(), SnnError> {
        let bad = |node: NodeId, reason: String| Err(SnnError::InvalidParam { node, reason });
        for (id, node) in self.nodes.iter().enumerate() {
            match &node.op {
                SnnOp::Conv2d { weight, bias, .. } | SnnOp::Linear { weight, bias } => {
                    if !weight.value.all_finite() {
                        return bad(id, "weight contains non-finite values".into());
                    }
                    if let Some(b) = bias {
                        if !b.value.all_finite() {
                            return bad(id, "bias contains non-finite values".into());
                        }
                    }
                }
                SnnOp::Spike(s) => {
                    let v_th = s.v_th.scalar_value();
                    if !v_th.is_finite() || v_th <= 0.0 || v_th > MAX_V_TH {
                        return bad(id, format!("v_th {v_th} outside (0, {MAX_V_TH}]"));
                    }
                    let leak = s.leak.scalar_value();
                    if !leak.is_finite() || !(0.0..=2.0).contains(&leak) {
                        return bad(id, format!("leak {leak} outside [0, 2]"));
                    }
                    if !s.amp.is_finite() || s.amp.abs() > MEMBRANE_CLAMP {
                        return bad(id, format!("amp {} outside ±{MEMBRANE_CLAMP}", s.amp));
                    }
                    if !s.u_init.is_finite() || s.u_init.abs() > MAX_V_TH {
                        return bad(id, format!("u_init {} outside ±{MAX_V_TH}", s.u_init));
                    }
                }
                SnnOp::Dropout { p } if !(0.0..1.0).contains(p) => {
                    return bad(id, format!("dropout p {p} outside [0, 1)"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Inference over `t_steps` time steps with direct input encoding.
    ///
    /// The output node's activation is averaged over steps to form logits,
    /// and spiking statistics are recorded per node.
    ///
    /// The batch is simulated in contiguous chunks distributed over the
    /// [`ull_tensor::parallel`] pool (`ULL_THREADS`). Every sample's
    /// temporal dynamics are independent of the rest of the batch, so
    /// chunked simulation followed by in-order concatenation is
    /// bit-identical to the serial full-batch run for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `t_steps == 0` or shapes mismatch inside the graph.
    pub fn forward(&self, x: &Tensor, t_steps: usize) -> SnnOutput {
        assert!(t_steps > 0, "need at least one time step");
        let _span = ull_obs::span("snn.forward");
        let out = self.forward_dispatch(x, t_steps, None);
        ull_obs::counter_add("snn.forward.images", x.shape()[0] as u64);
        out.stats.publish_to_obs();
        out
    }

    /// Like [`SnnNetwork::forward`] but routes every spike layer's output
    /// through `tamper` — the inference fault-injection entry point used by
    /// `ull-robust`. The clean [`SnnNetwork::forward`] path never invokes
    /// the hook, so disabled fault injection stays byte-identical to the
    /// plain forward pass; `SpikeStats` counts the spikes *after*
    /// tampering, which is what lets a spike-rate watchdog observe the
    /// fault.
    pub fn forward_tampered(
        &self,
        x: &Tensor,
        t_steps: usize,
        tamper: &dyn StepTamper,
    ) -> SnnOutput {
        assert!(t_steps > 0, "need at least one time step");
        let _span = ull_obs::span("snn.forward_tampered");
        let out = self.forward_dispatch(x, t_steps, Some(tamper));
        ull_obs::counter_add("snn.forward.images", x.shape()[0] as u64);
        out.stats.publish_to_obs();
        out
    }

    /// Shared chunked-parallel body of [`SnnNetwork::forward`] and
    /// [`SnnNetwork::forward_tampered`].
    fn forward_dispatch(
        &self,
        x: &Tensor,
        t_steps: usize,
        tamper: Option<&dyn StepTamper>,
    ) -> SnnOutput {
        let batch = x.shape()[0];
        let threads = parallel::num_threads();
        if threads <= 1 || batch < 2 {
            self.forward_chunk(x, t_steps, tamper.map(|t| (t, 0)))
        } else {
            let chunk = batch.div_ceil(threads);
            let n_chunks = batch.div_ceil(chunk);
            let parts = parallel::par_map(n_chunks, |ci| {
                let lo = ci * chunk;
                let hi = ((ci + 1) * chunk).min(batch);
                self.forward_chunk(&x.slice_batch(lo, hi), t_steps, tamper.map(|t| (t, lo)))
            });
            // Merge in chunk (= batch) order: logit rows concatenate back
            // into batch order and the integer spike counters sum exactly.
            let mut stats = SpikeStats::new(self.nodes.len(), 0, t_steps);
            let mut logit_parts = Vec::with_capacity(parts.len());
            for p in parts {
                stats.merge(&p.stats);
                logit_parts.push(p.logits);
            }
            SnnOutput {
                logits: Tensor::concat_batch(&logit_parts),
                stats,
            }
        }
    }

    /// Serial simulation of one contiguous batch chunk — the single-thread
    /// body [`SnnNetwork::forward`] distributes over the pool. `tamper`
    /// carries the fault hook plus this chunk's global batch offset.
    fn forward_chunk(
        &self,
        x: &Tensor,
        t_steps: usize,
        tamper: Option<(&dyn StepTamper, usize)>,
    ) -> SnnOutput {
        let mut run = Stepper::new(self, x.shape()[0], t_steps, tamper);
        for _ in 0..t_steps {
            run.step(x, None);
        }
        run.finish()
    }

    /// A serial, untampered [`Stepper`] over this network's packed weights
    /// — the engine of every single-chunk entry point, eval or training.
    pub(crate) fn stepper(&self, batch: usize, t_steps: usize) -> Stepper<'_> {
        Stepper::new(self, batch, t_steps, None)
    }

    /// One time step over the reusable workspace — the only step loop of
    /// the crate, driven through [`Stepper`] by eval and training alike.
    ///
    /// Every buffer is refilled in place, and each conv/linear node runs
    /// its packed weight-stationary kernel from `pack`; the outputs match
    /// the unpacked reference step of `crates/snn/tests/common` bit for bit
    /// (asserted by `crates/snn/tests/tape_oracle.rs`). The zero-skipping
    /// packed kernels already count one executed accumulate per non-zero
    /// input term (`tensor.acs`), so the paper's AC-per-spike accounting
    /// needs no separate event-driven route.
    ///
    /// With `tape` present (training) the step also records what BPTT
    /// reads: each spike node's `U(t−1)` and pre-reset `U_temp`, each
    /// maxpool's argmax, and dropout masks, which it samples and applies.
    /// Eval passes `None` and stays allocation-free at steady state.
    fn step_ws(
        &self,
        x: &Tensor,
        ws: &mut StepWorkspace,
        stats: &mut SpikeStats,
        tamper: Option<(&dyn StepTamper, usize, usize)>,
        pack: &PackedNet,
        mut tape: Option<&mut TapeStep<'_>>,
    ) {
        let StepWorkspace {
            membranes,
            acts,
            conv_scratch,
        } = ws;
        for (i, node) in self.nodes.iter().enumerate() {
            // Nodes are topologically ordered (inputs have smaller ids),
            // so the split gives simultaneous read access to every input
            // and write access to this node's output.
            let (prev, rest) = acts.split_at_mut(i);
            let out = &mut rest[0];
            match &node.op {
                SnnOp::Input => out.copy_from(x),
                SnnOp::Conv2d { bias, geo, .. } => {
                    let pw = pack.node(i).expect("every weighted node is packed");
                    let bias_t = bias.as_ref().map(|b| &b.value);
                    let inp = &prev[node.inputs[0]];
                    conv2d_packed_into(inp, pw, bias_t, *geo, conv_scratch, out);
                }
                SnnOp::Linear { weight, bias } => {
                    let pw = pack.node(i).expect("every weighted node is packed");
                    matmul_tb_packed_into(&prev[node.inputs[0]], pw, out);
                    if let Some(b) = bias {
                        let width = weight.value.shape()[0];
                        let bd = b.value.data();
                        for row in out.data_mut().chunks_mut(width) {
                            for (v, &bb) in row.iter_mut().zip(bd) {
                                *v += bb;
                            }
                        }
                    }
                }
                SnnOp::Spike(layer) => {
                    let inp = &prev[node.inputs[0]];
                    let v_th = layer.v_th.scalar_value();
                    let leak = layer.leak.scalar_value();
                    let amp = layer.amp;
                    let membrane =
                        membranes[i].get_or_insert_with(|| Tensor::full(inp.shape(), layer.u_init));
                    let u_prev = tape.is_some().then(|| membrane.clone());
                    // Eq. 2 in place: U_temp = λ·U(t−1) + I(t).
                    for (u, &iv) in membrane.data_mut().iter_mut().zip(inp.data()) {
                        *u = *u * leak + iv;
                    }
                    sanitize_membrane(membrane);
                    if let (Some(tape), Some(u_prev)) = (tape.as_deref_mut(), u_prev) {
                        tape.aux[i] = StepAux::Spike {
                            u_temp: membrane.clone(),
                            u_prev,
                        };
                    }
                    // Eq. 3/8: spike and scaled output; Eq. 4 soft reset
                    // consumes U_temp into U(t) in place.
                    out.reset_shaped(inp.shape());
                    let mut spike_count = 0u64;
                    for (o, u) in out.data_mut().iter_mut().zip(membrane.data_mut()) {
                        if *u > v_th {
                            *o = amp;
                            *u -= v_th;
                            spike_count += 1;
                        }
                    }
                    if let Some((hook, t, batch_offset)) = tamper {
                        hook.tamper_spikes(t, i, batch_offset, amp, out);
                        spike_count = out.data().iter().filter(|v| **v != 0.0).count() as u64;
                    }
                    stats.record(i, spike_count, inp.len());
                }
                SnnOp::MaxPool2d { k } => {
                    let mut argmax = tape.is_some().then(Vec::new);
                    maxpool2d_into(&prev[node.inputs[0]], *k, out, argmax.as_mut());
                    if let (Some(tape), Some(argmax)) = (tape.as_deref_mut(), argmax) {
                        tape.aux[i] = StepAux::MaxPool { argmax };
                    }
                }
                SnnOp::AvgPool2d { k } => avgpool2d_into(&prev[node.inputs[0]], *k, out),
                // Training samples the mask the first time step 0 reaches
                // the node (so masks fill in node order) and applies it at
                // every step; eval dropout is the identity.
                SnnOp::Dropout { p } => {
                    let inp = &prev[node.inputs[0]];
                    match tape.as_deref_mut() {
                        Some(TapeStep { masks, rng, .. }) if *p > 0.0 => {
                            let mask = masks[i].get_or_insert_with(|| {
                                let keep = 1.0 - p;
                                let scale = 1.0 / keep;
                                let mut mask = Tensor::zeros(inp.shape());
                                for m in mask.data_mut() {
                                    *m = if rng.gen::<f32>() < keep { scale } else { 0.0 };
                                }
                                mask
                            });
                            assert_eq!(inp.shape(), mask.shape(), "dropout: mask shape mismatch");
                            out.reset_shaped(inp.shape());
                            for ((o, &v), &m) in
                                out.data_mut().iter_mut().zip(inp.data()).zip(mask.data())
                            {
                                *o = v * m;
                            }
                        }
                        _ => out.copy_from(inp),
                    }
                }
                SnnOp::Flatten => {
                    let inp = &prev[node.inputs[0]];
                    let n = inp.shape()[0];
                    let rest: usize = inp.shape()[1..].iter().product();
                    out.copy_from(inp);
                    out.reshape_in_place(&[n, rest])
                        .expect("flatten preserves length");
                }
                SnnOp::Add => {
                    let a = &prev[node.inputs[0]];
                    let b = &prev[node.inputs[1]];
                    assert_eq!(
                        a.shape(),
                        b.shape(),
                        "add: shape mismatch {:?} vs {:?}",
                        a.shape(),
                        b.shape()
                    );
                    out.reset_shaped(a.shape());
                    for ((o, &av), &bv) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
                        *o = av + bv;
                    }
                }
            }
        }
    }

    /// Deadline-aware anytime inference: simulates up to `t_max` steps,
    /// invoking `keep_going(t, mean_logits)` after each completed step `t`
    /// (1-based) with the running mean of the output activation.
    /// Simulation stops as soon as the callback returns `false` — a
    /// confident early decision or a deadline hit — and the logits averaged
    /// over the steps actually run are returned together with that step
    /// count.
    ///
    /// Runs the same allocation-free `Stepper` as [`SnnNetwork::forward`],
    /// so each step costs what a `forward` step costs and the logits of a
    /// full run equal `forward(x, t_max)` bit for bit. The mean handed to
    /// the callback is one buffer refilled in place each step.
    ///
    /// Serial by design: stopping is a whole-batch decision and the
    /// callback observes logits in batch order. Per-sample early decisions
    /// are layered on top by `ull-robust`, which freezes decided rows
    /// inside its callback.
    ///
    /// # Panics
    ///
    /// Panics if `t_max == 0`.
    pub fn forward_until(
        &self,
        x: &Tensor,
        t_max: usize,
        mut keep_going: impl FnMut(usize, &Tensor) -> bool,
    ) -> (SnnOutput, usize) {
        assert!(t_max > 0, "need at least one time step");
        let mut run = self.stepper(x.shape()[0], t_max);
        let mut mean = Tensor::default();
        let mut steps = 0;
        while steps < t_max {
            run.step(x, None);
            steps += 1;
            run.mean_logits_into(&mut mean);
            if !keep_going(steps, &mean) {
                break;
            }
        }
        (run.finish(), steps)
    }

    /// Like [`SnnNetwork::forward`] but also returns, for each spike node,
    /// the per-neuron *average input current* and *average output value*
    /// across time steps — the empirical `f_S(s)` and `s'` of the paper's
    /// error analysis (Eq. 6).
    pub fn forward_rates(
        &self,
        x: &Tensor,
        t_steps: usize,
    ) -> (SnnOutput, Vec<(NodeId, Tensor, Tensor)>) {
        assert!(t_steps > 0, "need at least one time step");
        let mut run = self.stepper(x.shape()[0], t_steps);
        let spike_ids = self.spike_nodes();
        let mut sums: Vec<(Option<Tensor>, Option<Tensor>)> = vec![(None, None); spike_ids.len()];
        for _ in 0..t_steps {
            let acts = run.step(x, None);
            for (&id, (current, output)) in spike_ids.iter().zip(&mut sums) {
                accumulate_opt(current, &acts[self.nodes[id].inputs[0]]);
                accumulate_opt(output, &acts[id]);
            }
        }
        let inv = 1.0 / t_steps as f32;
        let rates = spike_ids
            .into_iter()
            .zip(sums)
            .map(|(id, (current, output))| {
                let mut cur = current.expect("recorded above");
                cur.scale_in_place(inv);
                let mut out = output.expect("recorded above");
                out.scale_in_place(inv);
                (id, cur, out)
            })
            .collect();
        (run.finish(), rates)
    }

    /// Training-mode unrolled forward pass: records the full BPTT tape.
    /// Runs the same `Stepper` and packed kernels as the eval entry
    /// points, serially over the whole batch; each step's activations move
    /// into the tape. Dropout masks are sampled the first time step 0
    /// reaches each dropout node (in node order) and shared across time
    /// steps.
    pub fn forward_train(&self, x: &Tensor, t_steps: usize, rng: &mut StdRng) -> SnnTape {
        assert!(t_steps > 0, "need at least one time step");
        let _span = ull_obs::span("snn.forward_train");
        let batch = x.shape()[0];
        let mut run = self.stepper(batch, t_steps);
        let mut masks: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        let mut acts = Vec::with_capacity(t_steps);
        let mut aux = Vec::with_capacity(t_steps);
        for _ in 0..t_steps {
            let mut tape = TapeStep {
                masks: &mut masks,
                rng: &mut *rng,
                aux: vec![StepAux::None; self.nodes.len()],
            };
            let step = run.step(x, Some(&mut tape));
            acts.push(step.iter_mut().map(std::mem::take).collect());
            aux.push(tape.aux);
        }
        let SnnOutput { logits, stats } = run.finish();
        ull_obs::counter_add("snn.forward.images", batch as u64);
        stats.publish_to_obs();
        SnnTape {
            steps: t_steps,
            logits,
            acts,
            aux,
            masks,
        }
    }

    /// Per-step spike counts: `trace[t][node]` = spikes emitted by `node`
    /// at step `t` (whole batch). Useful for raster plots and for checking
    /// temporal dynamics (e.g. the first step after an initial charge).
    ///
    /// # Panics
    ///
    /// Panics if `t_steps == 0`.
    pub fn forward_trace(&self, x: &Tensor, t_steps: usize) -> Vec<Vec<u64>> {
        assert!(t_steps > 0, "need at least one time step");
        let mut run = self.stepper(x.shape()[0], t_steps);
        let mut prev = vec![0u64; self.nodes.len()];
        (0..t_steps)
            .map(|_| {
                run.step(x, None);
                let now = run.stats().spikes_per_node();
                let delta = now.iter().zip(&prev).map(|(&a, &b)| a - b).collect();
                prev.copy_from_slice(now);
                delta
            })
            .collect()
    }

    /// Folds each spike layer's output amplitude into the next weighted
    /// layer(s), making spikes binary — the paper's "absorb the scaling
    /// factor into the weight values" trick that keeps hidden layers
    /// multiplication-free. Drops the pack, like [`SnnNetwork::nodes_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::FoldUnsupported`] if a spike output reaches an
    /// `Add` node, another spike layer, or the network output before any
    /// weighted layer (the scale would be ambiguous), or if the amplitude
    /// is not positive (max pooling would not commute).
    pub fn fold_amplitudes(&mut self) -> Result<(), SnnError> {
        self.pack.take();
        // consumers[i] = nodes that read node i.
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &inp in &node.inputs {
                consumers[inp].push(i);
            }
        }
        let spike_ids = self.spike_nodes();
        for id in spike_ids {
            let amp = match &self.nodes[id].op {
                SnnOp::Spike(s) => s.amp,
                _ => unreachable!(),
            };
            if amp <= 0.0 {
                return Err(SnnError::FoldUnsupported {
                    node: id,
                    reason: "amplitude must be positive to commute with max pooling",
                });
            }
            // Walk downstream through scale-transparent ops.
            let mut frontier = vec![id];
            let mut targets: Vec<NodeId> = Vec::new();
            while let Some(n) = frontier.pop() {
                if n == self.output
                    && !matches!(
                        self.nodes[n].op,
                        SnnOp::Conv2d { .. } | SnnOp::Linear { .. }
                    )
                {
                    return Err(SnnError::FoldUnsupported {
                        node: n,
                        reason: "spike output reaches the network output unweighted",
                    });
                }
                for &c in &consumers[n] {
                    match &self.nodes[c].op {
                        SnnOp::Conv2d { .. } | SnnOp::Linear { .. } => targets.push(c),
                        SnnOp::MaxPool2d { .. }
                        | SnnOp::AvgPool2d { .. }
                        | SnnOp::Dropout { .. }
                        | SnnOp::Flatten => frontier.push(c),
                        SnnOp::Add => {
                            return Err(SnnError::FoldUnsupported {
                                node: c,
                                reason: "residual Add mixes differently-scaled branches",
                            })
                        }
                        SnnOp::Spike(_) => {
                            return Err(SnnError::FoldUnsupported {
                                node: c,
                                reason: "spike layer directly feeds another spike layer",
                            })
                        }
                        SnnOp::Input => unreachable!("input has no inputs"),
                    }
                }
            }
            for t in targets {
                match &mut self.nodes[t].op {
                    SnnOp::Conv2d { weight, .. } | SnnOp::Linear { weight, .. } => {
                        weight.value.scale_in_place(amp);
                    }
                    _ => unreachable!(),
                }
            }
            if let SnnOp::Spike(s) = &mut self.nodes[id].op {
                s.amp = 1.0;
            }
        }
        Ok(())
    }
}

impl ull_nn::ValidatePayload for SnnNetwork {
    fn validate_payload(&self) -> Result<(), String> {
        self.validate().map_err(|e| e.to_string())
    }
}

/// Rewrites corrupted membrane values in place: NaN → 0, ±∞ and values
/// beyond [`MEMBRANE_CLAMP`] → ±[`MEMBRANE_CLAMP`]. The all-finite fast
/// path leaves clean membranes untouched, preserving bit-identical clean
/// forward passes.
fn sanitize_membrane(u: &mut Tensor) {
    if u.data()
        .iter()
        .all(|v| v.is_finite() && v.abs() <= MEMBRANE_CLAMP)
    {
        return;
    }
    for v in u.data_mut() {
        if v.is_nan() {
            *v = 0.0;
        } else if !v.is_finite() || v.abs() > MEMBRANE_CLAMP {
            *v = v.signum() * MEMBRANE_CLAMP;
        }
    }
}

fn accumulate_opt(slot: &mut Option<Tensor>, value: &Tensor) {
    match slot {
        Some(acc) => acc.add_assign(value),
        None => *slot = Some(value.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_nn::{models, NetworkBuilder};
    use ull_tensor::init::{normal, seeded_rng};

    fn tiny_dnn(seed: u64) -> Network {
        let mut b = NetworkBuilder::new(2, 4, seed);
        b.conv2d(3, 3, 1, 1);
        b.threshold_relu(0.8);
        b.maxpool(2);
        b.flatten();
        b.linear(4);
        b.build()
    }

    fn tiny_snn(seed: u64) -> SnnNetwork {
        let dnn = tiny_dnn(seed);
        let specs = vec![SpikeSpec::identity(0.8)];
        SnnNetwork::from_network(&dnn, &specs).unwrap()
    }

    #[test]
    fn conversion_preserves_topology() {
        let dnn = tiny_dnn(1);
        let snn = tiny_snn(1);
        assert_eq!(snn.nodes().len(), dnn.nodes().len());
        assert_eq!(snn.output(), dnn.output());
        assert_eq!(snn.spike_nodes(), dnn.threshold_nodes());
    }

    #[test]
    fn spec_count_mismatch_is_an_error() {
        let dnn = tiny_dnn(2);
        let err = SnnNetwork::from_network(&dnn, &[]).unwrap_err();
        assert!(matches!(
            err,
            SnnError::SpecCountMismatch {
                expected: 1,
                actual: 0
            }
        ));
    }

    #[test]
    fn plain_relu_is_rejected() {
        let mut b = NetworkBuilder::new(1, 2, 3);
        b.conv2d(1, 1, 1, 0);
        b.relu();
        b.flatten();
        b.linear(2);
        let dnn = b.build();
        let err = SnnNetwork::from_network(&dnn, &[]).unwrap_err();
        assert!(matches!(err, SnnError::UnsupportedOp { .. }));
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let snn = tiny_snn(4);
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(5));
        let o1 = snn.forward(&x, 3);
        let o2 = snn.forward(&x, 3);
        assert_eq!(o1.logits.shape(), &[2, 4]);
        assert_eq!(o1.logits, o2.logits);
    }

    #[test]
    fn batch_parallel_forward_matches_serial() {
        let snn = tiny_snn(50);
        let x = normal(&[5, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(51));
        let serial = parallel::with_threads(1, || snn.forward(&x, 3));
        let par = parallel::with_threads(4, || snn.forward(&x, 3));
        assert_eq!(serial.logits, par.logits);
        assert_eq!(serial.stats, par.stats);
    }

    #[test]
    fn membranes_reset_between_forward_calls() {
        let snn = tiny_snn(6);
        let x = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(7));
        // If state leaked across calls the outputs would differ.
        assert_eq!(snn.forward(&x, 2).logits, snn.forward(&x, 2).logits);
    }

    #[test]
    fn if_neuron_fires_at_expected_rate() {
        // Single neuron, constant input current 0.5, threshold 1.0:
        // membrane reaches 1.0 at t=2 (exceeds? 1.0 > 1.0 is false), so
        // use current 0.6: u = 0.6, 1.2(spike, reset to 0.2), 0.8, 1.4(spike)...
        // Expected spikes in 4 steps: t2 and t4 => rate 1/2.
        let mut b = NetworkBuilder::new(1, 1, 0);
        b.flatten();
        b.linear(1);
        b.threshold_relu(1.0);
        let mut dnn = b.build();
        // Set the linear weight to 0.6 exactly.
        if let NodeOp::Linear { weight, .. } = &mut dnn.nodes_mut()[2].op {
            weight.value.fill(0.6);
        }
        // Make the spike layer the output so we can observe its spikes:
        // instead, read stats.
        let snn = SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(1.0)]).unwrap();
        let x = Tensor::ones(&[1, 1, 1, 1]);
        let out = snn.forward(&x, 4);
        let spike_node = snn.spike_nodes()[0];
        assert_eq!(out.stats.spikes_per_node()[spike_node], 2);
    }

    #[test]
    fn leak_reduces_firing() {
        let mut b = NetworkBuilder::new(1, 1, 0);
        b.flatten();
        b.linear(1);
        b.threshold_relu(1.0);
        let mut dnn = b.build();
        if let NodeOp::Linear { weight, .. } = &mut dnn.nodes_mut()[2].op {
            weight.value.fill(0.6);
        }
        let x = Tensor::ones(&[1, 1, 1, 1]);
        let if_spikes = {
            let snn = SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(1.0)]).unwrap();
            let out = snn.forward(&x, 8);
            out.stats.spikes_per_node()[snn.spike_nodes()[0]]
        };
        let lif_spikes = {
            let spec = SpikeSpec {
                v_th: 1.0,
                amp: 1.0,
                leak: 0.5,
                u_init: 0.0,
            };
            let snn = SnnNetwork::from_network(&dnn, &[spec]).unwrap();
            let out = snn.forward(&x, 8);
            out.stats.spikes_per_node()[snn.spike_nodes()[0]]
        };
        assert!(lif_spikes < if_spikes, "{lif_spikes} !< {if_spikes}");
    }

    #[test]
    fn spike_outputs_are_amp_valued() {
        let snn = tiny_snn(8);
        let x = normal(&[1, 2, 4, 4], 0.0, 2.0, &mut seeded_rng(9));
        let (_, rates) = snn.forward_rates(&x, 4);
        // Average outputs are multiples of amp/T.
        let (_, _, out) = &rates[0];
        for &v in out.data() {
            let q = v / (0.8 / 4.0);
            assert!((q - q.round()).abs() < 1e-4, "{v} not a multiple of amp/T");
        }
    }

    #[test]
    fn rate_approaches_dnn_activation_for_large_t() {
        // Conversion theory: Σ s̄ → clip(x, 0, μ) as T → ∞ for IF neurons
        // with V^th = μ (Eq. 5).
        let dnn = tiny_dnn(10);
        let snn = tiny_snn(10);
        let x = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(11));
        let dnn_acts = dnn.forward_collect(&x);
        let dnn_out = &dnn_acts[2]; // threshold relu output
        let (_, rates) = snn.forward_rates(&x, 256);
        let (_, _, snn_avg) = &rates[0];
        let mut max_err = 0.0f32;
        for (d, s) in dnn_out.data().iter().zip(snn_avg.data()) {
            max_err = max_err.max((d - s).abs());
        }
        assert!(max_err < 0.02, "rate mismatch {max_err}");
    }

    #[test]
    fn fewer_steps_increase_conversion_error() {
        // The paper's core observation: error grows as T shrinks.
        let dnn = tiny_dnn(12);
        let snn = tiny_snn(12);
        let x = normal(&[4, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(13));
        let dnn_acts = dnn.forward_collect(&x);
        let dnn_out = &dnn_acts[2];
        let err_at = |t: usize| -> f32 {
            let (_, rates) = snn.forward_rates(&x, t);
            let (_, _, avg) = &rates[0];
            avg.sub(dnn_out).data().iter().map(|v| v.abs()).sum::<f32>() / avg.len() as f32
        };
        let e2 = err_at(2);
        let e64 = err_at(64);
        assert!(e2 > e64 * 1.5, "e2 {e2} vs e64 {e64}");
    }

    #[test]
    fn fold_amplitudes_preserves_chain_output() {
        let dnn = {
            let mut b = NetworkBuilder::new(2, 4, 21);
            b.conv2d(3, 3, 1, 1);
            b.threshold_relu(0.7);
            b.maxpool(2);
            b.conv2d(4, 3, 1, 1);
            b.threshold_relu(0.9);
            b.flatten();
            b.linear(3);
            b.build()
        };
        let specs = vec![
            SpikeSpec::scaled(0.7, 0.8, 1.3),
            SpikeSpec::scaled(0.9, 0.6, 0.9),
        ];
        let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let mut folded = snn.clone();
        folded.fold_amplitudes().unwrap();
        // Spikes are now binary.
        for id in folded.spike_nodes() {
            if let SnnOp::Spike(s) = &folded.nodes()[id].op {
                assert_eq!(s.amp, 1.0);
            }
        }
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(22));
        let a = snn.forward(&x, 3);
        let b = folded.forward(&x, 3);
        for (u, v) in a.logits.data().iter().zip(b.logits.data()) {
            assert!((u - v).abs() < 1e-4, "{u} vs {v}");
        }
    }

    #[test]
    fn fold_amplitudes_rejects_residual_mixing() {
        let dnn = models::resnet_micro(4, 8, 0.5, 23);
        let specs = vec![SpikeSpec::identity(1.0); dnn.threshold_nodes().len()];
        let mut snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        assert!(matches!(
            snn.fold_amplitudes(),
            Err(SnnError::FoldUnsupported { .. })
        ));
    }

    #[test]
    fn tape_memory_scales_linearly_with_t() {
        let snn = tiny_snn(30);
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(31));
        let m2 = snn.forward_train(&x, 2, &mut seeded_rng(0)).memory_bytes();
        let m4 = snn.forward_train(&x, 4, &mut seeded_rng(0)).memory_bytes();
        let ratio = m4 as f64 / m2 as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn forward_trace_sums_to_total_spikes() {
        let snn = tiny_snn(35);
        let x = normal(&[2, 2, 4, 4], 0.5, 1.0, &mut seeded_rng(36));
        let t = 4;
        let trace = snn.forward_trace(&x, t);
        assert_eq!(trace.len(), t);
        let out = snn.forward(&x, t);
        for (node, &total) in out.stats.spikes_per_node().iter().enumerate() {
            let traced: u64 = trace.iter().map(|s| s[node]).sum();
            assert_eq!(traced, total, "node {node}");
        }
    }

    #[test]
    fn bias_shifted_network_spikes_earlier() {
        // Initial charge V/2 means the first spikes arrive a step earlier
        // for sub-threshold constant currents.
        let mut b = NetworkBuilder::new(1, 1, 0);
        b.flatten();
        b.linear(1);
        b.threshold_relu(1.0);
        let mut dnn = b.build();
        if let NodeOp::Linear { weight, .. } = &mut dnn.nodes_mut()[2].op {
            weight.value.fill(0.4);
        }
        let x = Tensor::ones(&[1, 1, 1, 1]);
        let plain = SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(1.0)]).unwrap();
        let shifted = SnnNetwork::from_network(&dnn, &[SpikeSpec::bias_shifted(1.0)]).unwrap();
        let node = plain.spike_nodes()[0];
        let trace_p = plain.forward_trace(&x, 3);
        let trace_s = shifted.forward_trace(&x, 3);
        // Plain: u = .4, .8, 1.2 -> first spike at step 2 (0-based).
        // Shifted: u = .9, 1.3 (spike, reset .3), .7 -> first spike at 1.
        assert_eq!(
            trace_p.iter().map(|s| s[node]).collect::<Vec<_>>(),
            vec![0, 0, 1]
        );
        assert_eq!(
            trace_s.iter().map(|s| s[node]).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
    }

    #[test]
    fn serde_round_trip() {
        let snn = tiny_snn(40);
        let x = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(41));
        let json = serde_json::to_string(&snn).unwrap();
        let back: SnnNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(back.forward(&x, 2).logits, snn.forward(&x, 2).logits);
    }

    #[test]
    fn validate_accepts_clean_network() {
        assert_eq!(tiny_snn(70).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_nan_weight() {
        let mut snn = tiny_snn(71);
        if let SnnOp::Conv2d { weight, .. } = &mut snn.nodes_mut()[1].op {
            weight.value.data_mut()[0] = f32::NAN;
        } else {
            panic!("node 1 should be the conv layer");
        }
        let err = snn.validate().unwrap_err();
        assert!(
            matches!(err, SnnError::InvalidParam { node: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_absurd_threshold() {
        for bad in [f32::NAN, f32::INFINITY, 0.0, -1.0, MAX_V_TH * 10.0] {
            let mut snn = tiny_snn(72);
            let spike = snn.spike_nodes()[0];
            if let SnnOp::Spike(s) = &mut snn.nodes_mut()[spike].op {
                s.v_th = Param::scalar(bad, false);
            }
            assert!(
                matches!(snn.validate(), Err(SnnError::InvalidParam { .. })),
                "v_th {bad} should be rejected"
            );
        }
    }

    #[test]
    fn sanitize_membrane_keeps_clean_values_bitwise() {
        let mut u = normal(&[64], 0.0, 10.0, &mut seeded_rng(73));
        let before = u.clone();
        sanitize_membrane(&mut u);
        assert_eq!(u, before);
    }

    #[test]
    fn sanitize_membrane_rewrites_corrupted_values() {
        let mut u = Tensor::from_vec(
            vec![1.5, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 2e6, -2e6],
            &[6],
        )
        .unwrap();
        sanitize_membrane(&mut u);
        assert_eq!(
            u.data(),
            &[
                1.5,
                0.0,
                MEMBRANE_CLAMP,
                -MEMBRANE_CLAMP,
                MEMBRANE_CLAMP,
                -MEMBRANE_CLAMP
            ]
        );
    }

    #[test]
    fn nan_weight_no_longer_poisons_logits() {
        // With a NaN weight the membrane sanitizer rewrites NaN to 0 at
        // each spike layer, so downstream logits stay finite.
        let mut snn = tiny_snn(74);
        if let SnnOp::Conv2d { weight, .. } = &mut snn.nodes_mut()[1].op {
            weight.value.data_mut()[0] = f32::NAN;
        }
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(75));
        let out = snn.forward(&x, 3);
        assert!(out.logits.all_finite(), "logits must stay finite");
    }

    /// Deletes every spike — the most extreme tamper.
    struct DropAll;
    impl StepTamper for DropAll {
        fn tamper_spikes(
            &self,
            _step: usize,
            _node: NodeId,
            _batch_offset: usize,
            _amp: f32,
            out: &mut Tensor,
        ) {
            out.fill(0.0);
        }
    }

    /// Leaves every spike untouched — disabled fault injection.
    struct NoopTamper;
    impl StepTamper for NoopTamper {
        fn tamper_spikes(
            &self,
            _step: usize,
            _node: NodeId,
            _batch_offset: usize,
            _amp: f32,
            _out: &mut Tensor,
        ) {
        }
    }

    #[test]
    fn noop_tamper_matches_clean_forward() {
        let snn = tiny_snn(80);
        let x = normal(&[3, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(81));
        let clean = snn.forward(&x, 3);
        let tampered = snn.forward_tampered(&x, 3, &NoopTamper);
        assert_eq!(clean.logits, tampered.logits);
        assert_eq!(clean.stats, tampered.stats);
    }

    #[test]
    fn drop_all_tamper_silences_network_and_stats() {
        let snn = tiny_snn(82);
        let x = normal(&[2, 2, 4, 4], 0.5, 1.0, &mut seeded_rng(83));
        let clean = snn.forward(&x, 4);
        let spike = snn.spike_nodes()[0];
        assert!(clean.stats.spikes_per_node()[spike] > 0, "need activity");
        let dead = snn.forward_tampered(&x, 4, &DropAll);
        // Stats must reflect post-tamper (zero) transmission.
        assert_eq!(dead.stats.spikes_per_node()[spike], 0);
        assert_ne!(clean.logits, dead.logits);
    }

    #[test]
    fn tampered_forward_is_thread_invariant() {
        let snn = tiny_snn(84);
        let x = normal(&[5, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(85));
        let serial = parallel::with_threads(1, || snn.forward_tampered(&x, 3, &DropAll));
        let par = parallel::with_threads(4, || snn.forward_tampered(&x, 3, &DropAll));
        assert_eq!(serial.logits, par.logits);
        assert_eq!(serial.stats, par.stats);
    }

    #[test]
    fn forward_until_full_run_matches_forward() {
        let snn = tiny_snn(86);
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(87));
        let full = parallel::with_threads(1, || snn.forward(&x, 4));
        let (out, steps) = snn.forward_until(&x, 4, |_, _| true);
        assert_eq!(steps, 4);
        assert_eq!(out.logits, full.logits);
        assert_eq!(out.stats.spikes_per_node(), full.stats.spikes_per_node());
    }

    #[test]
    fn forward_until_stops_early_and_averages_ran_steps() {
        let snn = tiny_snn(88);
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(89));
        let mut seen = Vec::new();
        let (out, steps) = snn.forward_until(&x, 5, |t, logits| {
            seen.push((t, logits.clone()));
            t < 2
        });
        assert_eq!(steps, 2);
        assert_eq!(seen.len(), 2);
        // Returned logits are the mean over the 2 ran steps — identical to
        // the last callback observation.
        assert_eq!(out.logits, seen[1].1);
        // And to a plain 2-step forward.
        let two = snn.forward(&x, 2);
        assert_eq!(out.logits, two.logits);
    }
}
