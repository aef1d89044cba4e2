//! The gradient tape: builds a computation graph eagerly and replays it in
//! reverse to accumulate gradients.
//!
//! Every method on [`Tape`] computes its result immediately (define-by-run,
//! like PyTorch) and records the operation. [`Tape::backward`] seeds the
//! loss gradient with 1 and walks the tape backwards. Parameters are leaf
//! nodes tagged with the caller's parameter id so [`Tape::param_grads`]
//! can hand the optimizer a `(param_id, gradient)` list.

use crate::Mat;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Matmul(usize, usize),
    Add(usize, usize),
    AddBiasRows(usize, usize),
    AddBiasCols(usize, usize),
    Hadamard(usize, usize),
    Scale(usize, f32),
    Relu(usize),
    LeakyRelu(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    SoftmaxRows(usize),
    Transpose(usize),
    ConcatCols(usize, usize),
    StackRows(Vec<usize>),
    GatherRows(usize, Vec<usize>),
    MeanRows(usize),
    LayerNormRows(usize, f32),
    MseLoss(usize, Mat),
}

#[derive(Debug, Clone)]
struct Node {
    value: Mat,
    grad: Mat,
    op: Op,
    param: Option<usize>,
}

/// A reverse-mode gradient tape over [`Mat`] values.
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    fn push(&mut self, value: Mat, op: Op, param: Option<usize>) -> Var {
        let grad = Mat::zeros(value.rows(), value.cols());
        self.nodes.push(Node {
            value,
            grad,
            op,
            param,
        });
        Var(self.nodes.len() - 1)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registers a constant (gradients are tracked but never harvested).
    pub fn constant(&mut self, value: Mat) -> Var {
        self.push(value, Op::Leaf, None)
    }

    /// Registers a trainable parameter tagged with `param_id`.
    pub fn param(&mut self, param_id: usize, value: Mat) -> Var {
        self.push(value, Op::Leaf, Some(param_id))
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Mat {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node (zeros before [`Tape::backward`]).
    pub fn grad(&self, v: Var) -> &Mat {
        &self.nodes[v.0].grad
    }

    /// Matrix product `a * b`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::Matmul(a.0, b.0), None)
    }

    /// Element-wise sum (same shapes).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(v, Op::Add(a.0, b.0), None)
    }

    /// Adds a `1 x cols` bias row to every row of `a`.
    ///
    /// # Panics
    ///
    /// Panics when `bias` is not `1 x a.cols`.
    pub fn add_bias_rows(&mut self, a: Var, bias: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[bias.0].value;
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(bv.cols(), av.cols(), "bias width mismatch");
        let mut out = av.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                out.set(r, c, out.get(r, c) + bv.get(0, c));
            }
        }
        self.push(out, Op::AddBiasRows(a.0, bias.0), None)
    }

    /// Adds an `rows x 1` column to every column of `a`.
    ///
    /// # Panics
    ///
    /// Panics when `col` is not `a.rows x 1`.
    pub fn add_bias_cols(&mut self, a: Var, col: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let cv = &self.nodes[col.0].value;
        assert_eq!(cv.cols(), 1, "column bias must be a column vector");
        assert_eq!(cv.rows(), av.rows(), "column bias height mismatch");
        let mut out = av.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                out.set(r, c, out.get(r, c) + cv.get(r, 0));
            }
        }
        self.push(out, Op::AddBiasCols(a.0, col.0), None)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(v, Op::Hadamard(a.0, b.0), None)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a.0].value.scale(s);
        self.push(v, Op::Scale(a.0, s), None)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        for x in v.as_mut_slice() {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        self.push(v, Op::Relu(a.0), None)
    }

    /// Leaky rectified linear unit with negative-side `slope`.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        for x in v.as_mut_slice() {
            if *x < 0.0 {
                *x *= slope;
            }
        }
        self.push(v, Op::LeakyRelu(a.0, slope), None)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        for x in v.as_mut_slice() {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        self.push(v, Op::Sigmoid(a.0), None)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        for x in v.as_mut_slice() {
            *x = x.tanh();
        }
        self.push(v, Op::Tanh(a.0), None)
    }

    /// Row-wise softmax (each row sums to 1) with max-subtraction for
    /// numerical stability.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let mut v = av.clone();
        for r in 0..v.rows() {
            let row_max = av.row(r).iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut sum = 0.0;
            for c in 0..v.cols() {
                let e = (av.get(r, c) - row_max).exp();
                v.set(r, c, e);
                sum += e;
            }
            for c in 0..v.cols() {
                v.set(r, c, v.get(r, c) / sum);
            }
        }
        self.push(v, Op::SoftmaxRows(a.0), None)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transpose();
        self.push(v, Op::Transpose(a.0), None)
    }

    /// Horizontal concatenation `[a | b]` (same row counts).
    ///
    /// # Panics
    ///
    /// Panics when the row counts differ.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.rows(), bv.rows(), "concat_cols row mismatch");
        let mut v = Mat::zeros(av.rows(), av.cols() + bv.cols());
        for r in 0..av.rows() {
            for c in 0..av.cols() {
                v.set(r, c, av.get(r, c));
            }
            for c in 0..bv.cols() {
                v.set(r, av.cols() + c, bv.get(r, c));
            }
        }
        self.push(v, Op::ConcatCols(a.0, b.0), None)
    }

    /// Vertical stack of several nodes (same column counts).
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or the column counts differ.
    pub fn stack_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "stack_rows needs at least one part");
        let cols = self.nodes[parts[0].0].value.cols();
        let total: usize = parts.iter().map(|p| self.nodes[p.0].value.rows()).sum();
        let mut v = Mat::zeros(total, cols);
        let mut r0 = 0;
        for p in parts {
            let pv = &self.nodes[p.0].value;
            assert_eq!(pv.cols(), cols, "stack_rows column mismatch");
            for r in 0..pv.rows() {
                for c in 0..cols {
                    v.set(r0 + r, c, pv.get(r, c));
                }
            }
            r0 += pv.rows();
        }
        self.push(v, Op::StackRows(parts.iter().map(|p| p.0).collect()), None)
    }

    /// Gathers rows of `a` in the given order (rows may repeat).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let av = &self.nodes[a.0].value;
        let mut v = Mat::zeros(indices.len(), av.cols());
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < av.rows(), "gather_rows index {i} out of range");
            for c in 0..av.cols() {
                v.set(r, c, av.get(i, c));
            }
        }
        self.push(v, Op::GatherRows(a.0, indices.to_vec()), None)
    }

    /// Mean over all rows: `n x c -> 1 x c`.
    ///
    /// # Panics
    ///
    /// Panics when `a` has no rows.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        assert!(av.rows() > 0, "mean over zero rows");
        let mut v = Mat::zeros(1, av.cols());
        for r in 0..av.rows() {
            for c in 0..av.cols() {
                v.set(0, c, v.get(0, c) + av.get(r, c));
            }
        }
        let inv = 1.0 / av.rows() as f32;
        for c in 0..av.cols() {
            v.set(0, c, v.get(0, c) * inv);
        }
        self.push(v, Op::MeanRows(a.0), None)
    }

    /// Per-row layer normalization (zero mean, unit variance, no learnable
    /// affine — compose with [`Tape::hadamard`] / [`Tape::add_bias_rows`]
    /// for gain and bias).
    pub fn layer_norm_rows(&mut self, a: Var, eps: f32) -> Var {
        let av = &self.nodes[a.0].value;
        let mut v = av.clone();
        let n = av.cols() as f32;
        for r in 0..av.rows() {
            let mean: f32 = av.row(r).iter().sum::<f32>() / n;
            let var: f32 = av.row(r).iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
            let inv_sigma = 1.0 / (var + eps).sqrt();
            for c in 0..av.cols() {
                v.set(r, c, (av.get(r, c) - mean) * inv_sigma);
            }
        }
        self.push(v, Op::LayerNormRows(a.0, eps), None)
    }

    /// Mean-squared-error loss against a constant target; returns a `1x1`
    /// node.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn mse_loss(&mut self, pred: Var, target: &Mat) -> Var {
        let pv = &self.nodes[pred.0].value;
        assert_eq!(pv.shape(), target.shape(), "mse target shape mismatch");
        let n = (pv.rows() * pv.cols()) as f32;
        let mut acc = 0.0f32;
        for (p, t) in pv.as_slice().iter().zip(target.as_slice()) {
            let d = p - t;
            acc += d * d;
        }
        let v = Mat::from_vec(1, 1, vec![acc / n]).expect("1x1");
        self.push(v, Op::MseLoss(pred.0, target.clone()), None)
    }

    /// Runs reverse-mode accumulation from `loss` (seeded with gradient 1).
    ///
    /// # Panics
    ///
    /// Panics when `loss` is not a `1x1` node.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward must start from a scalar node"
        );
        for n in &mut self.nodes {
            let (r, c) = n.grad.shape();
            n.grad = Mat::zeros(r, c);
        }
        self.nodes[loss.0].grad.set(0, 0, 1.0);

        for i in (0..self.nodes.len()).rev() {
            let g = self.nodes[i].grad.clone();
            // Skip only exact zeros: `max_abs` would also skip an
            // all-NaN gradient, hiding a poisoned loss from the caller.
            if g.as_slice().iter().all(|&v| v == 0.0) {
                continue;
            }
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::Matmul(a, b) => {
                    // Fused transpose kernels: dA = G * Bᵀ, dB = Aᵀ * G,
                    // with no transposed temporaries materialized.
                    let da = g.matmul_nt(&self.nodes[b].value);
                    let db = self.nodes[a].value.matmul_tn(&g);
                    self.nodes[a].grad.axpy(1.0, &da);
                    self.nodes[b].grad.axpy(1.0, &db);
                }
                Op::Add(a, b) => {
                    self.nodes[a].grad.axpy(1.0, &g);
                    self.nodes[b].grad.axpy(1.0, &g);
                }
                Op::AddBiasRows(a, bias) => {
                    self.nodes[a].grad.axpy(1.0, &g);
                    let mut db = Mat::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            db.set(0, c, db.get(0, c) + g.get(r, c));
                        }
                    }
                    self.nodes[bias].grad.axpy(1.0, &db);
                }
                Op::AddBiasCols(a, col) => {
                    self.nodes[a].grad.axpy(1.0, &g);
                    let mut dc = Mat::zeros(g.rows(), 1);
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            dc.set(r, 0, dc.get(r, 0) + g.get(r, c));
                        }
                    }
                    self.nodes[col].grad.axpy(1.0, &dc);
                }
                Op::Hadamard(a, b) => {
                    let da = g.hadamard(&self.nodes[b].value);
                    let db = g.hadamard(&self.nodes[a].value);
                    self.nodes[a].grad.axpy(1.0, &da);
                    self.nodes[b].grad.axpy(1.0, &db);
                }
                Op::Scale(a, s) => {
                    self.nodes[a].grad.axpy(s, &g);
                }
                Op::Relu(a) => {
                    let mut da = g.clone();
                    for (d, x) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[a].value.as_slice())
                    {
                        if *x <= 0.0 {
                            *d = 0.0;
                        }
                    }
                    self.nodes[a].grad.axpy(1.0, &da);
                }
                Op::LeakyRelu(a, slope) => {
                    let mut da = g.clone();
                    for (d, x) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[a].value.as_slice())
                    {
                        if *x <= 0.0 {
                            *d *= slope;
                        }
                    }
                    self.nodes[a].grad.axpy(1.0, &da);
                }
                Op::Sigmoid(a) => {
                    let y = self.nodes[i].value.clone();
                    let mut da = g.clone();
                    for (d, y) in da.as_mut_slice().iter_mut().zip(y.as_slice()) {
                        *d *= y * (1.0 - y);
                    }
                    self.nodes[a].grad.axpy(1.0, &da);
                }
                Op::Tanh(a) => {
                    let y = self.nodes[i].value.clone();
                    let mut da = g.clone();
                    for (d, y) in da.as_mut_slice().iter_mut().zip(y.as_slice()) {
                        *d *= 1.0 - y * y;
                    }
                    self.nodes[a].grad.axpy(1.0, &da);
                }
                Op::SoftmaxRows(a) => {
                    let y = self.nodes[i].value.clone();
                    let mut da = Mat::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 = (0..y.cols()).map(|c| g.get(r, c) * y.get(r, c)).sum();
                        for c in 0..y.cols() {
                            da.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                    self.nodes[a].grad.axpy(1.0, &da);
                }
                Op::Transpose(a) => {
                    let da = g.transpose();
                    self.nodes[a].grad.axpy(1.0, &da);
                }
                Op::ConcatCols(a, b) => {
                    let ac = self.nodes[a].value.cols();
                    let bc = self.nodes[b].value.cols();
                    let mut da = Mat::zeros(g.rows(), ac);
                    let mut db = Mat::zeros(g.rows(), bc);
                    for r in 0..g.rows() {
                        for c in 0..ac {
                            da.set(r, c, g.get(r, c));
                        }
                        for c in 0..bc {
                            db.set(r, c, g.get(r, ac + c));
                        }
                    }
                    self.nodes[a].grad.axpy(1.0, &da);
                    self.nodes[b].grad.axpy(1.0, &db);
                }
                Op::StackRows(parts) => {
                    let mut r0 = 0;
                    for p in parts {
                        let rows = self.nodes[p].value.rows();
                        let cols = self.nodes[p].value.cols();
                        let mut dp = Mat::zeros(rows, cols);
                        for r in 0..rows {
                            for c in 0..cols {
                                dp.set(r, c, g.get(r0 + r, c));
                            }
                        }
                        self.nodes[p].grad.axpy(1.0, &dp);
                        r0 += rows;
                    }
                }
                Op::GatherRows(a, indices) => {
                    let cols = self.nodes[a].value.cols();
                    let rows = self.nodes[a].value.rows();
                    let mut da = Mat::zeros(rows, cols);
                    for (r, &idx) in indices.iter().enumerate() {
                        for c in 0..cols {
                            da.set(idx, c, da.get(idx, c) + g.get(r, c));
                        }
                    }
                    self.nodes[a].grad.axpy(1.0, &da);
                }
                Op::MeanRows(a) => {
                    let rows = self.nodes[a].value.rows();
                    let cols = self.nodes[a].value.cols();
                    let inv = 1.0 / rows as f32;
                    let mut da = Mat::zeros(rows, cols);
                    for r in 0..rows {
                        for c in 0..cols {
                            da.set(r, c, g.get(0, c) * inv);
                        }
                    }
                    self.nodes[a].grad.axpy(1.0, &da);
                }
                Op::LayerNormRows(a, eps) => {
                    let x = self.nodes[a].value.clone();
                    let y = self.nodes[i].value.clone();
                    let n = x.cols() as f32;
                    let mut da = Mat::zeros(x.rows(), x.cols());
                    for r in 0..x.rows() {
                        let mean: f32 = x.row(r).iter().sum::<f32>() / n;
                        let var: f32 =
                            x.row(r).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
                        let inv_sigma = 1.0 / (var + eps).sqrt();
                        let g_mean: f32 = g.row(r).iter().sum::<f32>() / n;
                        let gy_mean: f32 =
                            (0..x.cols()).map(|c| g.get(r, c) * y.get(r, c)).sum::<f32>() / n;
                        for c in 0..x.cols() {
                            let d = inv_sigma * (g.get(r, c) - g_mean - y.get(r, c) * gy_mean);
                            da.set(r, c, d);
                        }
                    }
                    self.nodes[a].grad.axpy(1.0, &da);
                }
                Op::MseLoss(p, target) => {
                    let pv = self.nodes[p].value.clone();
                    let n = (pv.rows() * pv.cols()) as f32;
                    let scale = 2.0 / n * g.get(0, 0);
                    let mut dp = Mat::zeros(pv.rows(), pv.cols());
                    for (i2, (pe, te)) in
                        pv.as_slice().iter().zip(target.as_slice()).enumerate()
                    {
                        dp.as_mut_slice()[i2] = scale * (pe - te);
                    }
                    self.nodes[p].grad.axpy(1.0, &dp);
                }
            }
        }
    }

    /// Gradients of every parameter node, as `(param_id, gradient)` pairs.
    /// Repeated registrations of the same id accumulate.
    pub fn param_grads(&self) -> Vec<(usize, Mat)> {
        let mut out: Vec<(usize, Mat)> = Vec::new();
        for node in &self.nodes {
            if let Some(pid) = node.param {
                if let Some(existing) = out.iter_mut().find(|(id, _)| *id == pid) {
                    existing.1.axpy(1.0, &node.grad);
                } else {
                    out.push((pid, node.grad.clone()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks d(loss)/d(input[k]) for a scalar-valued builder.
    fn grad_check<F>(input: Mat, build: F)
    where
        F: Fn(&mut Tape, Var) -> Var,
    {
        let mut tape = Tape::new();
        let x = tape.param(0, input.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x).clone();

        let h = 1e-2f32;
        for k in 0..input.as_slice().len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[k] += h;
            let mut minus = input.clone();
            minus.as_mut_slice()[k] -= h;
            let eval = |m: Mat| {
                let mut t = Tape::new();
                let x = t.constant(m);
                let l = build(&mut t, x);
                t.value(l).get(0, 0)
            };
            let numeric = (eval(plus) - eval(minus)) / (2.0 * h);
            let a = analytic.as_slice()[k];
            let tol = 2e-2 * (1.0 + a.abs().max(numeric.abs()));
            assert!(
                (a - numeric).abs() < tol,
                "element {k}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn sample(rows: usize, cols: usize, seed: f32) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32 * 0.37 + seed).sin()) * 0.8;
        }
        m
    }

    #[test]
    fn nan_loss_reaches_parameter_gradients() {
        let mut tape = Tape::new();
        let w = tape.param(0, sample(3, 2, 1.0));
        let x = tape.constant(sample(2, 3, 0.0));
        let y = tape.matmul(x, w);
        let loss = tape.mse_loss(y, &Mat::full(2, 2, f32::NAN));
        tape.backward(loss);
        assert!(tape.grad(w).as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn grad_matmul() {
        let w = sample(3, 2, 1.0);
        grad_check(sample(2, 3, 0.0), move |t, x| {
            let w = t.constant(w.clone());
            let y = t.matmul(x, w);
            let target = Mat::zeros(2, 2);
            t.mse_loss(y, &target)
        });
    }

    #[test]
    fn grad_add_and_scale() {
        let b = sample(2, 2, 5.0);
        grad_check(sample(2, 2, 0.3), move |t, x| {
            let b = t.constant(b.clone());
            let s = t.add(x, b);
            let s = t.scale(s, 1.7);
            t.mse_loss(s, &Mat::zeros(2, 2))
        });
    }

    #[test]
    fn grad_bias_rows_and_cols() {
        grad_check(Mat::row_vector(vec![0.1, -0.4, 0.7]), |t, bias| {
            let base = t.constant(sample(3, 3, 2.0));
            let y = t.add_bias_rows(base, bias);
            t.mse_loss(y, &Mat::zeros(3, 3))
        });
        grad_check(sample(3, 1, 0.9), |t, col| {
            let base = t.constant(sample(3, 4, 2.5));
            let y = t.add_bias_cols(base, col);
            t.mse_loss(y, &Mat::zeros(3, 4))
        });
    }

    #[test]
    fn grad_hadamard() {
        let other = sample(2, 3, 7.0);
        grad_check(sample(2, 3, 1.1), move |t, x| {
            let o = t.constant(other.clone());
            let y = t.hadamard(x, o);
            t.mse_loss(y, &Mat::zeros(2, 3))
        });
    }

    #[test]
    fn grad_activations() {
        // Offsets keep values away from the ReLU kink where the numeric
        // derivative is ill-defined.
        grad_check(sample(2, 3, 0.6), |t, x| {
            let y = t.relu(x);
            t.mse_loss(y, &Mat::full(2, 3, 0.2))
        });
        grad_check(sample(2, 3, 0.6), |t, x| {
            let y = t.leaky_relu(x, 0.1);
            t.mse_loss(y, &Mat::full(2, 3, 0.2))
        });
        grad_check(sample(2, 3, 0.2), |t, x| {
            let y = t.sigmoid(x);
            t.mse_loss(y, &Mat::zeros(2, 3))
        });
        grad_check(sample(2, 3, 0.2), |t, x| {
            let y = t.tanh(x);
            t.mse_loss(y, &Mat::zeros(2, 3))
        });
    }

    #[test]
    fn grad_softmax() {
        grad_check(sample(3, 4, 0.4), |t, x| {
            let y = t.softmax_rows(x);
            let target = Mat::full(3, 4, 0.25);
            t.mse_loss(y, &target)
        });
    }

    #[test]
    fn grad_transpose_concat_stack_gather_mean() {
        grad_check(sample(2, 3, 1.3), |t, x| {
            let y = t.transpose(x);
            t.mse_loss(y, &Mat::zeros(3, 2))
        });
        grad_check(sample(2, 2, 0.8), |t, x| {
            let o = t.constant(sample(2, 3, 9.0));
            let y = t.concat_cols(x, o);
            t.mse_loss(y, &Mat::zeros(2, 5))
        });
        grad_check(sample(2, 3, 0.8), |t, x| {
            let o = t.constant(sample(1, 3, 9.0));
            let y = t.stack_rows(&[x, o, x]);
            t.mse_loss(y, &Mat::zeros(5, 3))
        });
        grad_check(sample(4, 2, 0.5), |t, x| {
            let y = t.gather_rows(x, &[3, 0, 0, 2]);
            t.mse_loss(y, &Mat::zeros(4, 2))
        });
        grad_check(sample(4, 3, 0.5), |t, x| {
            let y = t.mean_rows(x);
            t.mse_loss(y, &Mat::zeros(1, 3))
        });
    }

    #[test]
    fn grad_layer_norm() {
        grad_check(sample(3, 5, 0.9), |t, x| {
            let y = t.layer_norm_rows(x, 1e-5);
            let target = Mat::full(3, 5, 0.1);
            t.mse_loss(y, &target)
        });
    }

    #[test]
    fn grad_attention_block() {
        // A miniature attention head end to end: softmax(QK^T) V.
        let wq = sample(3, 3, 11.0);
        let wk = sample(3, 3, 12.0);
        let wv = sample(3, 3, 13.0);
        grad_check(sample(4, 3, 0.25), move |t, x| {
            let wq = t.constant(wq.clone());
            let wk = t.constant(wk.clone());
            let wv = t.constant(wv.clone());
            let q = t.matmul(x, wq);
            let k = t.matmul(x, wk);
            let v = t.matmul(x, wv);
            let kt = t.transpose(k);
            let scores = t.matmul(q, kt);
            let scores = t.scale(scores, 1.0 / (3.0f32).sqrt());
            let attn = t.softmax_rows(scores);
            let out = t.matmul(attn, v);
            t.mse_loss(out, &Mat::zeros(4, 3))
        });
    }

    #[test]
    fn shared_param_grads_accumulate() {
        // loss = mse(x + x) => d/dx = 2 * 2 * (2x)/N ... just check the two
        // registrations of the same pid sum.
        let mut tape = Tape::new();
        let x1 = tape.param(7, Mat::full(1, 1, 1.0));
        let x2 = tape.param(7, Mat::full(1, 1, 1.0));
        let s = tape.add(x1, x2);
        let loss = tape.mse_loss(s, &Mat::zeros(1, 1));
        tape.backward(loss);
        let grads = tape.param_grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, 7);
        // d loss/d s = 2*s = 4; each registration sees 4; sum = 8.
        assert!((grads[0].1.get(0, 0) - 8.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.constant(Mat::zeros(2, 2));
        tape.backward(x);
    }

    #[test]
    fn values_match_eager_eval() {
        let mut tape = Tape::new();
        let a = tape.constant(Mat::from_vec(1, 2, vec![1.0, 2.0]).unwrap());
        let b = tape.constant(Mat::from_vec(2, 1, vec![3.0, 4.0]).unwrap());
        let c = tape.matmul(a, b);
        assert_eq!(tape.value(c).get(0, 0), 11.0);
        assert_eq!(tape.len(), 3);
        assert!(!tape.is_empty());
    }
}
