use ull_tensor::conv::{conv2d, conv2d_backward, ConvGeometry};
use ull_tensor::pool::{avgpool2d, avgpool2d_backward, maxpool2d, maxpool2d_backward};
use ull_tensor::{matmul, matmul_transpose_a, matmul_transpose_b, Tensor};

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

enum Op {
    Input,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Matmul(Var, Var),
    Relu(Var),
    /// `clip(x, 0, mu)` with a trainable scalar threshold `mu` (Eq. 1).
    ClipThreshold(Var, Var),
    Conv2d {
        input: Var,
        weight: Var,
        bias: Option<Var>,
        geo: ConvGeometry,
    },
    MaxPool {
        input: Var,
        argmax: Vec<usize>,
    },
    AvgPool {
        input: Var,
        k: usize,
    },
    Reshape(Var),
    Sum(Var),
    Mean(Var),
    /// Mean cross-entropy of row logits against integer labels.
    SoftmaxCrossEntropy {
        logits: Var,
        labels: Vec<usize>,
    },
}

struct Node {
    value: Tensor,
    grad: Tensor,
    op: Op,
}

/// A dynamically built computation graph with reverse-mode differentiation.
///
/// Build the forward computation with the op methods, then call
/// [`Graph::backward`] on a scalar node; gradients of every node are then
/// available via [`Graph::grad`].
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let grad = Tensor::zeros(value.shape());
        self.nodes.push(Node { value, grad, op });
        Var(self.nodes.len() - 1)
    }

    /// Registers a leaf tensor (input or parameter).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Input)
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient accumulated at a node by the last [`Graph::backward`].
    pub fn grad(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].grad
    }

    /// Elementwise sum of two same-shape nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise difference of two same-shape nodes.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product of two same-shape nodes.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        self.push(v, Op::Mul(a, b))
    }

    /// Scales a node by a constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a.0].value.scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a.0].value.add_scalar(s);
        self.push(v, Op::AddScalar(a))
    }

    /// Matrix product of two rank-2 nodes.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = matmul(&self.nodes[a.0].value, &self.nodes[b.0].value);
        self.push(v, Op::Matmul(a, b))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.relu();
        self.push(v, Op::Relu(a))
    }

    /// Threshold ReLU with a trainable scalar threshold `mu` (Eq. 1):
    /// `y = clip(x, 0, mu)`. `mu` must be a 1-element node; it receives the
    /// subgradient `Σ grad[x ≥ mu]`.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is not a 1-element node.
    pub fn clip_threshold(&mut self, x: Var, mu: Var) -> Var {
        let m = scalar_of(&self.nodes[mu.0].value, "clip_threshold mu");
        let v = self.nodes[x.0].value.clip(0.0, m);
        self.push(v, Op::ClipThreshold(x, mu))
    }

    /// 2-d convolution node; see [`ull_tensor::conv::conv2d`].
    pub fn conv2d(&mut self, input: Var, weight: Var, bias: Option<Var>, geo: ConvGeometry) -> Var {
        let v = conv2d(
            &self.nodes[input.0].value,
            &self.nodes[weight.0].value,
            bias.map(|b| &self.nodes[b.0].value),
            geo,
        );
        self.push(
            v,
            Op::Conv2d {
                input,
                weight,
                bias,
                geo,
            },
        )
    }

    /// Max pooling node with window/stride `k`.
    pub fn maxpool2d(&mut self, input: Var, k: usize) -> Var {
        let p = maxpool2d(&self.nodes[input.0].value, k);
        self.push(
            p.output,
            Op::MaxPool {
                input,
                argmax: p.argmax,
            },
        )
    }

    /// Average pooling node with window/stride `k`.
    pub fn avgpool2d(&mut self, input: Var, k: usize) -> Var {
        let v = avgpool2d(&self.nodes[input.0].value, k);
        self.push(v, Op::AvgPool { input, k })
    }

    /// Reshape node (gradient reshapes back).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = self.nodes[a.0]
            .value
            .reshape(shape)
            .expect("reshape in graph: element count mismatch");
        self.push(v, Op::Reshape(a))
    }

    /// Scalar sum of all elements.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::from_slice(&[self.nodes[a.0].value.sum()]);
        self.push(v, Op::Sum(a))
    }

    /// Scalar mean of all elements.
    pub fn mean(&mut self, a: Var) -> Var {
        let v = Tensor::from_slice(&[self.nodes[a.0].value.mean()]);
        self.push(v, Op::Mean(a))
    }

    /// Mean softmax cross-entropy of `[batch, classes]` logits against
    /// integer labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size or any label is
    /// out of range.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(lv.rank(), 2, "softmax_cross_entropy expects rank-2 logits");
        let (batch, classes) = (lv.shape()[0], lv.shape()[1]);
        assert_eq!(labels.len(), batch, "labels/batch mismatch");
        let ls = lv.log_softmax_rows();
        let mut loss = 0.0;
        for (r, &y) in labels.iter().enumerate() {
            assert!(y < classes, "label {y} out of range for {classes} classes");
            loss -= ls.data()[r * classes + y];
        }
        let v = Tensor::from_slice(&[loss / batch as f32]);
        self.push(
            v,
            Op::SoftmaxCrossEntropy {
                logits,
                labels: labels.to_vec(),
            },
        )
    }

    /// Runs reverse-mode differentiation from the scalar node `root`.
    ///
    /// Gradients accumulate into every node reachable from `root`; call
    /// [`Graph::grad`] to read them. Calling `backward` twice accumulates.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a 1-element node.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.nodes[root.0].value.len(),
            1,
            "backward root must be a scalar node"
        );
        self.nodes[root.0].grad = Tensor::from_slice(&[1.0]);
        for i in (0..=root.0).rev() {
            let g = self.nodes[i].grad.clone();
            if g.data().iter().all(|&x| x == 0.0) {
                continue;
            }
            // Split borrows by taking the op description first.
            match &self.nodes[i].op {
                Op::Input => {}
                &Op::Add(a, b) => {
                    self.nodes[a.0].grad.add_assign(&g);
                    self.nodes[b.0].grad.add_assign(&g);
                }
                &Op::Sub(a, b) => {
                    self.nodes[a.0].grad.add_assign(&g);
                    self.nodes[b.0].grad.add_scaled(&g, -1.0);
                }
                &Op::Mul(a, b) => {
                    let da = g.mul(&self.nodes[b.0].value);
                    let db = g.mul(&self.nodes[a.0].value);
                    self.nodes[a.0].grad.add_assign(&da);
                    self.nodes[b.0].grad.add_assign(&db);
                }
                &Op::Scale(a, s) => {
                    self.nodes[a.0].grad.add_scaled(&g, s);
                }
                &Op::AddScalar(a) => {
                    self.nodes[a.0].grad.add_assign(&g);
                }
                &Op::Matmul(a, b) => {
                    let da = matmul_transpose_b(&g, &self.nodes[b.0].value);
                    let db = matmul_transpose_a(&self.nodes[a.0].value, &g);
                    self.nodes[a.0].grad.add_assign(&da);
                    self.nodes[b.0].grad.add_assign(&db);
                }
                &Op::Relu(a) => {
                    let mask = self.nodes[a.0]
                        .value
                        .map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                    let da = g.mul(&mask);
                    self.nodes[a.0].grad.add_assign(&da);
                }
                &Op::ClipThreshold(x, mu) => {
                    let m = scalar_of(&self.nodes[mu.0].value, "clip_threshold mu");
                    let xin = &self.nodes[x.0].value;
                    // dx: pass-through on the linear segment (0 < x < mu).
                    let mask = xin.map(|v| if v > 0.0 && v < m { 1.0 } else { 0.0 });
                    let dx = g.mul(&mask);
                    // dmu: 1 where the clip is active at the top.
                    let dmu: f32 = xin
                        .data()
                        .iter()
                        .zip(g.data())
                        .filter(|(&v, _)| v >= m)
                        .map(|(_, &gg)| gg)
                        .sum();
                    self.nodes[x.0].grad.add_assign(&dx);
                    self.nodes[mu.0].grad.data_mut()[0] += dmu;
                }
                &Op::Conv2d {
                    input,
                    weight,
                    bias,
                    geo,
                } => {
                    let (dx, dw, db) = conv2d_backward(
                        &self.nodes[input.0].value,
                        &self.nodes[weight.0].value,
                        &g,
                        geo,
                    );
                    self.nodes[input.0].grad.add_assign(&dx);
                    self.nodes[weight.0].grad.add_assign(&dw);
                    if let Some(b) = bias {
                        self.nodes[b.0].grad.add_assign(&db);
                    }
                }
                Op::MaxPool { input, argmax, .. } => {
                    let input = *input;
                    let shape = self.nodes[input.0].value.shape().to_vec();
                    let dx = maxpool2d_backward(&g, argmax, &shape);
                    self.nodes[input.0].grad.add_assign(&dx);
                }
                &Op::AvgPool { input, k } => {
                    let shape = self.nodes[input.0].value.shape().to_vec();
                    let dx = avgpool2d_backward(&g, &shape, k);
                    self.nodes[input.0].grad.add_assign(&dx);
                }
                Op::Reshape(a) => {
                    let a = *a;
                    let da = g
                        .reshape(self.nodes[a.0].value.shape())
                        .expect("reshape backward: element counts match by construction");
                    self.nodes[a.0].grad.add_assign(&da);
                }
                &Op::Sum(a) => {
                    let da = Tensor::full(self.nodes[a.0].value.shape(), g.data()[0]);
                    self.nodes[a.0].grad.add_assign(&da);
                }
                &Op::Mean(a) => {
                    let n = self.nodes[a.0].value.len() as f32;
                    let da = Tensor::full(self.nodes[a.0].value.shape(), g.data()[0] / n);
                    self.nodes[a.0].grad.add_assign(&da);
                }
                Op::SoftmaxCrossEntropy { logits, labels } => {
                    let logits = *logits;
                    let lv = &self.nodes[logits.0].value;
                    let (batch, classes) = (lv.shape()[0], lv.shape()[1]);
                    let mut dl = lv.softmax_rows();
                    {
                        let dd = dl.data_mut();
                        for (r, &y) in labels.iter().enumerate() {
                            dd[r * classes + y] -= 1.0;
                        }
                    }
                    dl.scale_in_place(g.data()[0] / batch as f32);
                    self.nodes[logits.0].grad.add_assign(&dl);
                }
            }
        }
    }
}

fn scalar_of(t: &Tensor, what: &str) -> f32 {
    assert_eq!(t.len(), 1, "{what} must be a 1-element tensor");
    t.data()[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_tensor::init::{normal, seeded_rng};

    #[test]
    fn add_mul_chain() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_slice(&[2.0, 3.0]));
        let b = g.input(Tensor::from_slice(&[4.0, 5.0]));
        let p = g.mul(a, b);
        let s = g.sum(p);
        g.backward(s);
        assert_eq!(g.grad(a).data(), &[4.0, 5.0]);
        assert_eq!(g.grad(b).data(), &[2.0, 3.0]);
    }

    #[test]
    fn sub_and_scale() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_slice(&[1.0, 2.0]));
        let b = g.input(Tensor::from_slice(&[5.0, 5.0]));
        let d = g.sub(a, b);
        let sc = g.scale(d, 3.0);
        let s = g.sum(sc);
        g.backward(s);
        assert_eq!(g.grad(a).data(), &[3.0, 3.0]);
        assert_eq!(g.grad(b).data(), &[-3.0, -3.0]);
    }

    #[test]
    fn matmul_gradients() {
        let mut rng = seeded_rng(1);
        let av = normal(&[3, 4], 0.0, 1.0, &mut rng);
        let bv = normal(&[4, 2], 0.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let a = g.input(av.clone());
        let b = g.input(bv.clone());
        let c = g.matmul(a, b);
        let s = g.sum(c);
        g.backward(s);
        // d(sum AB)/dA = 1·Bᵀ broadcast over rows.
        let ones = Tensor::ones(&[3, 2]);
        let expect_da = matmul_transpose_b(&ones, &bv);
        for (x, y) in g.grad(a).data().iter().zip(expect_da.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn clip_threshold_gradients() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_slice(&[-1.0, 0.5, 2.0, 1.0]));
        let mu = g.input(Tensor::from_slice(&[1.0]));
        let y = g.clip_threshold(x, mu);
        assert_eq!(g.value(y).data(), &[0.0, 0.5, 1.0, 1.0]);
        let s = g.sum(y);
        g.backward(s);
        // Pass-through only strictly inside (0, mu).
        assert_eq!(g.grad(x).data(), &[0.0, 1.0, 0.0, 0.0]);
        // mu receives grad where x >= mu (two elements).
        assert_eq!(g.grad(mu).data(), &[2.0]);
    }

    #[test]
    fn backward_accumulates_through_shared_nodes() {
        // y = x*x ⇒ dy/dx = 2x via the product rule with a shared operand.
        let mut g = Graph::new();
        let x = g.input(Tensor::from_slice(&[3.0]));
        let y = g.mul(x, x);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(x).data(), &[6.0]);
    }

    #[test]
    fn cross_entropy_matches_softmax_minus_onehot() {
        let mut g = Graph::new();
        let logits_v = Tensor::from_vec(vec![2.0, 1.0, 0.1, 0.0, 0.0, 0.0], &[2, 3]).unwrap();
        let logits = g.input(logits_v.clone());
        let loss = g.softmax_cross_entropy(logits, &[0, 2]);
        g.backward(loss);
        let sm = logits_v.softmax_rows();
        let gl = g.grad(logits);
        assert!((gl.data()[0] - (sm.data()[0] - 1.0) / 2.0).abs() < 1e-6);
        assert!((gl.data()[5] - (sm.data()[5] - 1.0) / 2.0).abs() < 1e-6);
        assert!((gl.data()[1] - sm.data()[1] / 2.0).abs() < 1e-6);
    }

    #[test]
    fn perfect_prediction_has_small_loss() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::from_vec(vec![100.0, 0.0, 0.0], &[1, 3]).unwrap());
        let loss = g.softmax_cross_entropy(logits, &[0]);
        assert!(g.value(loss).data()[0] < 1e-3);
    }

    #[test]
    fn reshape_gradient_round_trips() {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[2, 3]));
        let r = g.reshape(x, &[6]);
        let s = g.sum(r);
        g.backward(s);
        assert_eq!(g.grad(x).shape(), &[2, 3]);
        assert!(g.grad(x).data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn avgpool_gradient_spreads_uniformly() {
        let mut g = Graph::new();
        let x =
            g.input(Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap());
        let p = g.avgpool2d(x, 2);
        let s = g.sum(p);
        g.backward(s);
        assert!(g.grad(x).data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn maxpool_gradient_routes_to_winner() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 4.0, 3.0], &[1, 1, 2, 2]).unwrap());
        let p = g.maxpool2d(x, 2);
        let s = g.sum(p);
        g.backward(s);
        assert_eq!(g.grad(x).data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn scale_then_add_scalar_chain() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_slice(&[2.0]));
        let y = g.scale(x, 3.0);
        let z = g.add_scalar(y, 5.0);
        let s = g.sum(z);
        assert_eq!(g.value(s).data(), &[11.0]);
        g.backward(s);
        assert_eq!(g.grad(x).data(), &[3.0]);
    }

    #[test]
    fn mean_gradient_divides_by_n() {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[4]));
        let m = g.mean(x);
        g.backward(m);
        assert!(g.grad(x).data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }
}
