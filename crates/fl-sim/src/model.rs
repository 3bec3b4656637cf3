//! MLP classifiers standing in for the paper's four model families.
//!
//! The evaluation trains ResNet-18, AlexNet, DenseNet and MobileNet; we
//! substitute ReLU MLPs of four capacity tiers (DESIGN.md §2), with the
//! deeper analogs using two hidden layers. Capacity ordering mirrors
//! the originals' parameter counts.

use crate::data::Dataset;
use crate::linalg::{kernel, Matrix};
use tradefl_runtime::rng::{Rng, SeedableRng, StdRng};

/// Reusable scratch for the training/evaluation hot paths.
///
/// Holds every intermediate the forward and backward passes need —
/// per-layer activations, deltas, gradients and the
/// GEMM packing buffers — so [`Mlp::forward_with`],
/// [`Mlp::sgd_step_with`] and [`Mlp::evaluate_with`] perform **zero
/// heap allocations** once the workspace has seen the model shape
/// (buffers grow on first use and are then reused within capacity).
///
/// Ownership rule (DESIGN.md §10): a workspace belongs to exactly one
/// sequential training loop. Pooled federated rounds create one per
/// worker task, never share one across threads.
#[derive(Debug, Default)]
pub struct Workspace {
    gemm: kernel::Workspace,
    /// Per-layer post-activation outputs (`acts[k]` = layer `k`'s output).
    acts: Vec<Matrix>,
    delta: Matrix,
    delta_next: Matrix,
    dw: Matrix,
    db: Vec<f32>,
}

impl Workspace {
    /// An empty workspace; every buffer is allocated lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-layer matrix vectors to `depth` entries (a cold
    /// one-time path: entries are empty matrices that the passes then
    /// resize in place).
    fn ensure_depth(&mut self, depth: usize) {
        while self.acts.len() < depth {
            self.acts.push(Matrix::zeros(0, 0));
        }
    }
}

/// The four model-family analogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// ResNet-18 analog (deepest/widest).
    Resnet18Like,
    /// AlexNet analog.
    AlexnetLike,
    /// DenseNet analog.
    DensenetLike,
    /// MobileNet analog (smallest).
    MobilenetLike,
}

impl ModelKind {
    /// All four analogs.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Resnet18Like,
        ModelKind::AlexnetLike,
        ModelKind::DensenetLike,
        ModelKind::MobilenetLike,
    ];

    /// Display label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Resnet18Like => "ResNet-18",
            ModelKind::AlexnetLike => "AlexNet",
            ModelKind::DensenetLike => "DenseNet",
            ModelKind::MobilenetLike => "MobileNet",
        }
    }

    /// Hidden-layer widths of the analog (depth mirrors the original
    /// family's relative depth).
    pub fn hidden_layers(&self) -> &'static [usize] {
        match self {
            ModelKind::Resnet18Like => &[96, 48],
            ModelKind::AlexnetLike => &[64, 32],
            ModelKind::DensenetLike => &[48],
            ModelKind::MobilenetLike => &[32],
        }
    }

    /// Width of the first hidden layer (compatibility accessor).
    pub fn hidden(&self) -> usize {
        self.hidden_layers()[0]
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One dense layer: `y = x W + b`.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    w: Matrix,
    b: Vec<f32>,
}

impl Dense {
    fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        let lim = (6.0 / (input + output) as f32).sqrt();
        Self {
            w: Matrix::from_fn(input, output, |_, _| rng.gen_range(-lim..lim)),
            b: vec![0.0; output],
        }
    }

    fn params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// A ReLU MLP (any depth) with softmax cross-entropy loss.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// One-hidden-layer MLP with seeded Xavier-style weights (the
    /// original constructor; see [`Mlp::with_layers`] for deeper nets).
    pub fn new(input_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        Self::with_layers(input_dim, &[hidden], classes, seed)
    }

    /// MLP with the given hidden-layer widths (ReLU between layers,
    /// softmax on the output).
    ///
    /// # Panics
    ///
    /// Panics if `input_dim`, `classes` or any hidden width is zero.
    pub fn with_layers(
        input_dim: usize,
        hidden: &[usize],
        classes: usize,
        seed: u64,
    ) -> Self {
        assert!(input_dim > 0 && classes > 0, "degenerate model shape");
        assert!(hidden.iter().all(|&h| h > 0), "zero-width hidden layer");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d6c_705f_696e_6974);
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(classes);
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Self { layers }
    }

    /// Builds the analog of `kind` for a dataset shape.
    pub fn for_kind(kind: ModelKind, input_dim: usize, classes: usize, seed: u64) -> Self {
        Self::with_layers(input_dim, kind.hidden_layers(), classes, seed)
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::params).sum()
    }

    /// Class-probability forward pass (softmax output) into
    /// workspace-owned scratch; returns the output matrix borrowed from
    /// `ws`. Allocation-free once `ws` is warm.
    pub fn forward_with<'w>(&self, x: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        ws.ensure_depth(self.layers.len());
        let last = self.layers.len() - 1;
        for (k, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = ws.acts.split_at_mut(k);
            let z = &mut rest[0];
            let input = if k == 0 { x } else { &prev[k - 1] };
            kernel::matmul_into(input, &layer.w, z, &mut ws.gemm);
            z.add_bias(&layer.b);
            if k < last {
                relu_inplace(z);
            } else {
                softmax_inplace(z);
            }
        }
        &ws.acts[last]
    }

    /// Mean cross-entropy loss and accuracy on a dataset — the Figs.
    /// 13-15 metrics.
    ///
    /// Compatibility wrapper over [`Mlp::evaluate_with`] with a fresh
    /// workspace.
    pub fn evaluate(&self, data: &Dataset) -> (f32, f32) {
        let mut ws = Workspace::new();
        self.evaluate_with(data, &mut ws)
    }

    /// Loss/accuracy using workspace-owned scratch; allocation-free
    /// once `ws` is warm.
    pub fn evaluate_with(&self, data: &Dataset, ws: &mut Workspace) -> (f32, f32) {
        if data.is_empty() {
            return (f32::NAN, f32::NAN);
        }
        let probs = self.forward_with(&data.features, ws);
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        for (r, &label) in data.labels.iter().enumerate() {
            let row = probs.row(r);
            loss -= (row[label].max(1e-12) as f64).ln();
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if argmax == label {
                correct += 1;
            }
        }
        let n = data.len() as f64;
        ((loss / n) as f32, (correct as f64 / n) as f32)
    }

    /// One SGD step on `(features, labels)` using workspace-owned
    /// scratch. Performs zero heap allocations once `ws` is warm (the
    /// `no-alloc-in-hot-loop` lint enforces this at the token level).
    /// The batch loss is not computed; [`Mlp::evaluate_with`] measures
    /// loss.
    ///
    /// # Panics
    ///
    /// Panics if `features.rows() != labels.len()`.
    pub fn sgd_step_with(
        &mut self,
        features: &Matrix,
        labels: &[usize],
        lr: f32,
        ws: &mut Workspace,
    ) {
        assert_eq!(features.rows(), labels.len(), "batch features/labels disagree");
        let n = labels.len();
        if n == 0 {
            return;
        }
        ws.ensure_depth(self.layers.len());
        let last = self.layers.len() - 1;

        // Forward, keeping every layer's activations (the hidden
        // layers' ones double as the ReLU masks backprop needs).
        for (k, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = ws.acts.split_at_mut(k);
            let z = &mut rest[0];
            let input = if k == 0 { features } else { &prev[k - 1] };
            kernel::matmul_into(input, &layer.w, z, &mut ws.gemm);
            z.add_bias(&layer.b);
            if k < last {
                relu_inplace(z);
            } else {
                softmax_inplace(z);
            }
        }

        // Output-layer gradient (probs − onehot) / n.
        ws.delta.copy_from(&ws.acts[last]);
        for (r, &label) in labels.iter().enumerate() {
            ws.delta.row_mut(r)[label] -= 1.0;
        }
        ws.delta.scale(1.0 / n as f32);

        // Backward pass with immediate updates (delta refers to the
        // pre-update weights of later layers only, which backprop has
        // already consumed).
        for k in (0..self.layers.len()).rev() {
            let input = if k == 0 { features } else { &ws.acts[k - 1] };
            kernel::transposed_matmul_into(input, &ws.delta, &mut ws.dw, &mut ws.gemm);
            col_sums_into(&ws.delta, &mut ws.db);
            if k > 0 {
                kernel::matmul_transposed_into(
                    &ws.delta,
                    &self.layers[k].w,
                    &mut ws.delta_next,
                    &mut ws.gemm,
                );
                // `act <= 0.0` exactly where the pre-activation was:
                // ReLU maps negatives to +0.0 and passes ±0.0 and NaN
                // through unchanged.
                for (v, &act) in
                    ws.delta_next.as_mut_slice().iter_mut().zip(ws.acts[k - 1].as_slice())
                {
                    if act <= 0.0 {
                        *v = 0.0;
                    }
                }
            }
            // Update layer k after computing the upstream delta.
            self.layers[k].w.axpy(-lr, &ws.dw);
            for (b, g) in self.layers[k].b.iter_mut().zip(&ws.db) {
                *b -= lr * g;
            }
            if k > 0 {
                std::mem::swap(&mut ws.delta, &mut ws.delta_next);
            }
        }
    }

    /// Flattens all parameters (FedAvg aggregation).
    pub fn to_params(&self) -> Vec<f32> {
        let mut p = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            p.extend_from_slice(layer.w.as_slice());
            p.extend_from_slice(&layer.b);
        }
        p
    }

    /// Loads flattened parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from [`Mlp::param_count`].
    pub fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        let mut rest = params;
        for layer in &mut self.layers {
            let (w, r) = rest.split_at(layer.w.rows() * layer.w.cols());
            let (b, r) = r.split_at(layer.b.len());
            layer.w.as_mut_slice().copy_from_slice(w);
            layer.b.copy_from_slice(b);
            rest = r;
        }
    }

    /// Copies all parameters from a same-shape model, without
    /// allocating — the streaming-aggregation replacement for cloning
    /// the global model once per silo.
    ///
    /// # Panics
    ///
    /// Panics if the two models disagree on any layer shape.
    pub fn copy_params_from(&mut self, src: &Mlp) {
        assert_eq!(self.layers.len(), src.layers.len(), "layer count mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&src.layers) {
            assert_eq!(dst.w.rows(), src.w.rows(), "weight shape mismatch");
            assert_eq!(dst.w.cols(), src.w.cols(), "weight shape mismatch");
            dst.w.as_mut_slice().copy_from_slice(src.w.as_slice());
            dst.b.copy_from_slice(&src.b);
        }
    }

    /// Accumulates `scale ·` this model's parameters into `acc`
    /// (f64, in [`Mlp::to_params`] order) — one silo's contribution to
    /// a streaming FedAvg reduce, without materializing the flattened
    /// parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len()` differs from [`Mlp::param_count`].
    pub fn accumulate_scaled_params(&self, scale: f64, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.param_count(), "parameter count mismatch");
        let mut rest = acc;
        for layer in &self.layers {
            let (w, r) = rest.split_at_mut(layer.w.rows() * layer.w.cols());
            let (b, r) = r.split_at_mut(layer.b.len());
            for (a, &p) in w.iter_mut().zip(layer.w.as_slice()) {
                *a += scale * p as f64;
            }
            for (a, &p) in b.iter_mut().zip(&layer.b) {
                *a += scale * p as f64;
            }
            rest = r;
        }
    }

    /// In-place convex pull toward a flattened parameter vector:
    /// `θ ← θ + weight · (toward − θ)` in [`Mlp::to_params`] order.
    /// Replaces the allocating `to_params`/mix/`set_params` round trip
    /// in the async-FL server and the personalization proximal term.
    ///
    /// # Panics
    ///
    /// Panics if `toward.len()` differs from [`Mlp::param_count`].
    pub fn mix_params(&mut self, toward: &[f32], weight: f32) {
        assert_eq!(toward.len(), self.param_count(), "parameter count mismatch");
        let mut rest = toward;
        for layer in &mut self.layers {
            let (w, r) = rest.split_at(layer.w.rows() * layer.w.cols());
            let (b, r) = r.split_at(layer.b.len());
            for (p, &t) in layer.w.as_mut_slice().iter_mut().zip(w) {
                *p += weight * (t - *p);
            }
            for (p, &t) in layer.b.iter_mut().zip(b) {
                *p += weight * (t - *p);
            }
            rest = r;
        }
    }
}

fn relu_inplace(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Row-wise softmax. Each row is shifted by its max, one flat [`exp`]
/// pass runs over the whole matrix (so it vectorises across rows), and
/// each row is then summed in column order and divided by its sum.
fn softmax_inplace(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v -= max;
        }
    }
    for v in m.as_mut_slice() {
        *v = exp(*v);
    }
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let mut sum = 0.0;
        for &v in row.iter() {
            sum += v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// `eˣ` for softmax's shifted logits (`x ≤ 0`, or NaN), in straight-line
/// f32 arithmetic the autovectorizer keeps in SIMD registers, where
/// libm's `expf` is one call per element. Within 1 ulp of `expf` for
/// every normal result; `x` below `ln 2⁻¹²⁶ ≈ −87.34`, whose results
/// are subnormal, flushes to `+0`, as does −inf, and NaN stays NaN.
///
/// `x = n·ln 2 + r` with `n` the nearest integer to `x·log₂e` and
/// `|r| ≤ ln 2 / 2`; `eʳ` is a degree-6 polynomial and `2ⁿ` is built
/// from its exponent bits. Adding 1.5·2²³ rounds `x·log₂e` to `n` and
/// leaves `n` in the low mantissa bits; an `as i32` conversion would
/// give `n` too, but LLVM scalarises it.
#[inline(always)]
fn exp(x: f32) -> f32 {
    const ROUND: f32 = 12_582_912.0; // 1.5·2²³
    // Cody–Waite split of ln 2: LN2_HI has 9 significant bits, so
    // n·LN2_HI is exact for |n| < 2¹⁵.
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Chebyshev fit of (eʳ − 1 − r)/r² on |r| ≤ ln 2 / 2; the whole
    // polynomial is within 1e-8 relative of eʳ.
    const C: [f32; 5] = [1.392_617_6e-3, 8.363_173e-3, 4.166_655_6e-2, 1.666_657_8e-1, 0.5];
    const LN_MIN_NORMAL: f32 = -87.336_55;
    let t = x.mul_add(std::f32::consts::LOG2_E, ROUND);
    let n = t - ROUND;
    let r = n.mul_add(-LN2_LO, n.mul_add(-LN2_HI, x));
    let mut p = C[0];
    for c in &C[1..] {
        p = p.mul_add(r, *c);
    }
    p = p.mul_add(r, 1.0).mul_add(r, 1.0);
    // t's bits are those of 1.5·2²³ + n, so its low 9 bits hold n mod
    // 2⁹; shifted into the exponent field and biased, they give 2ⁿ for
    // every n ≥ −126 this function does not flush.
    let scale = f32::from_bits((t.to_bits() << 23).wrapping_add(127 << 23));
    if x < LN_MIN_NORMAL {
        0.0
    } else {
        p * scale
    }
}

fn col_sums_into(m: &Matrix, out: &mut Vec<f32>) {
    out.clear();
    out.resize(m.cols(), 0.0);
    for r in 0..m.rows() {
        for (o, &v) in out.iter_mut().zip(m.row(r)) {
            *o += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate, DatasetKind};

    #[test]
    fn forward_produces_probabilities() {
        let d = generate(DatasetKind::EurosatLike, 20, 1);
        let m = Mlp::new(d.dim(), 16, d.classes, 7);
        let mut ws = Workspace::new();
        let p = m.forward_with(&d.features, &mut ws);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm_and_flushes_subnormals() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert!(exp(f32::NAN).is_nan());
        // Below ln 2⁻¹²⁶ libm returns subnormals; this exp flushes them.
        for x in [-87.34f32, -87.5, -100.0, -1e4, f32::MIN] {
            assert_eq!(exp(x).to_bits(), 0.0f32.to_bits(), "exp({x})");
        }
        // Every 61st f32 from −0 down to the last normal result: the
        // bit patterns of same-sign finite floats are ordered, so the
        // bit distance is the ulp distance.
        let (mut worst, mut checked) = (0u32, 0usize);
        for bits in ((-0.0f32).to_bits()..=(-87.3365f32).to_bits()).step_by(61) {
            let x = f32::from_bits(bits);
            let (got, want) = (exp(x), x.exp());
            assert!(want.is_normal(), "exp({x}) = {want} is not normal");
            worst = worst.max(got.to_bits().abs_diff(want.to_bits()));
            checked += 1;
        }
        assert!(worst <= 1, "worst error {worst} ulp over {checked} inputs");
        assert!(checked > 15_000_000);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        // Logit spreads from none to far past the flush point, and a
        // one-column matrix.
        for (rows, cols, spread) in [(32, 10, 0.0f32), (32, 10, 8.0), (7, 13, 60.0), (5, 10, 200.0), (9, 1, 5.0)]
        {
            let mut rng = StdRng::seed_from_u64(cols as u64 + spread as u64);
            let mut m = Matrix::from_fn(rows, cols, |_, _| spread * rng.gen_range(-1.0f32..1.0));
            softmax_inplace(&mut m);
            for r in 0..rows {
                let row = m.row(r);
                let sum: f64 = row.iter().map(|&v| v as f64).sum();
                assert!((sum - 1.0).abs() <= 1e-6, "{rows}x{cols} spread {spread} row {r}: {sum}");
                assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn sgd_reduces_training_loss() {
        let d = generate(DatasetKind::EurosatLike, 300, 2);
        let mut m = Mlp::new(d.dim(), 24, d.classes, 3);
        let (loss0, _) = m.evaluate(&d);
        let mut ws = Workspace::new();
        for _ in 0..60 {
            m.sgd_step_with(&d.features, &d.labels, 0.1, &mut ws);
        }
        let (loss1, acc1) = m.evaluate(&d);
        assert!(loss1 < loss0 * 0.7, "loss {loss0} -> {loss1}");
        assert!(acc1 > 0.5, "accuracy {acc1}");
    }

    #[test]
    fn deep_mlp_trains_too() {
        let d = generate(DatasetKind::EurosatLike, 300, 2);
        let mut m = Mlp::with_layers(d.dim(), &[32, 16], d.classes, 3);
        assert_eq!(m.layers.len(), 3);
        let (loss0, _) = m.evaluate(&d);
        let mut ws = Workspace::new();
        for _ in 0..80 {
            m.sgd_step_with(&d.features, &d.labels, 0.1, &mut ws);
        }
        let (loss1, acc1) = m.evaluate(&d);
        assert!(loss1 < loss0 * 0.8, "loss {loss0} -> {loss1}");
        assert!(acc1 > 0.4, "accuracy {acc1}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Check dL/dw for single weights in both layers of a deep net.
        let d = generate(DatasetKind::EurosatLike, 8, 4).take(8);
        let m0 = Mlp::with_layers(d.dim(), &[6, 5], d.classes, 5);
        let eps = 1e-3;
        let loss_of = |m: &Mlp| m.evaluate(&d).0 as f64;
        let lr = 1e-4;
        let mut stepped = m0.clone();
        stepped.sgd_step_with(&d.features, &d.labels, lr, &mut Workspace::new());
        for layer in [0usize, 1, 2] {
            let g = (m0.layers[layer].w.get(0, 0) - stepped.layers[layer].w.get(0, 0)) / lr;
            let mut plus = m0.clone();
            plus.layers[layer].w.set(0, 0, m0.layers[layer].w.get(0, 0) + eps);
            let mut minus = m0.clone();
            minus.layers[layer].w.set(0, 0, m0.layers[layer].w.get(0, 0) - eps);
            let fd = ((loss_of(&plus) - loss_of(&minus)) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - g).abs() < 0.05 * fd.abs().max(0.01),
                "layer {layer}: finite-diff {fd} vs analytic {g}"
            );
        }
    }

    #[test]
    fn workspace_paths_are_bit_identical_to_wrappers() {
        let d = generate(DatasetKind::EurosatLike, 120, 11);
        let mut fresh = Mlp::with_layers(d.dim(), &[16, 12], d.classes, 3);
        let mut warm = fresh.clone();
        let mut ws = Workspace::new();
        for _ in 0..4 {
            fresh.sgd_step_with(&d.features, &d.labels, 0.05, &mut Workspace::new());
            warm.sgd_step_with(&d.features, &d.labels, 0.05, &mut ws);
        }
        for (x, y) in fresh.to_params().iter().zip(&warm.to_params()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let (l1, a1) = fresh.evaluate(&d);
        let (l2, a2) = warm.evaluate_with(&d, &mut ws);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(a1.to_bits(), a2.to_bits());
    }

    #[test]
    fn mix_params_matches_manual_blend() {
        let mut m = Mlp::with_layers(8, &[6], 4, 1);
        let base = m.to_params();
        let toward: Vec<f32> = base.iter().map(|p| p + 1.0).collect();
        m.mix_params(&toward, 0.25);
        for (p, b) in m.to_params().iter().zip(&base) {
            let want = b + 0.25 * ((b + 1.0) - b);
            assert!((p - want).abs() < 1e-6, "{p} vs {want}");
        }
    }

    #[test]
    fn params_roundtrip() {
        let m = Mlp::with_layers(10, &[8, 6], 4, 1);
        let p = m.to_params();
        assert_eq!(p.len(), m.param_count());
        let mut m2 = Mlp::with_layers(10, &[8, 6], 4, 2);
        m2.set_params(&p);
        assert_eq!(m, m2);
    }

    #[test]
    fn capacity_ordering_matches_originals() {
        let dims = (64, 10);
        let counts: Vec<usize> = ModelKind::ALL
            .iter()
            .map(|&k| Mlp::for_kind(k, dims.0, dims.1, 0).param_count())
            .collect();
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[3]);
    }

    #[test]
    fn depth_matches_kind() {
        assert_eq!(Mlp::for_kind(ModelKind::Resnet18Like, 64, 10, 0).layers.len(), 3);
        assert_eq!(Mlp::for_kind(ModelKind::MobilenetLike, 64, 10, 0).layers.len(), 2);
    }

    #[test]
    fn evaluate_on_empty_dataset_is_nan() {
        let d = generate(DatasetKind::FmnistLike, 10, 1).take(0);
        let m = Mlp::new(49, 8, 10, 1);
        let (loss, acc) = m.evaluate(&d);
        assert!(loss.is_nan() && acc.is_nan());
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn zero_width_layer_panics() {
        let _ = Mlp::with_layers(10, &[0], 4, 1);
    }
}
