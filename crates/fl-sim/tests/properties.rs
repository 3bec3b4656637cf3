//! Property-based tests for the training substrate: linear algebra
//! identities, fit recovery, partition invariants and determinism.
//!
//! Runs on the in-tree `tradefl_runtime::check` harness with pinned
//! seeds; failures print a `TRADEFL_PROP_SEED` replay line.

use tradefl_fl_sim::data::{dirichlet_shard, generate, label_skew, DatasetKind};
use tradefl_fl_sim::linalg::{kernel, Matrix};
use tradefl_fl_sim::model::Mlp;
use tradefl_fl_sim::probe::{ProbePoint, SqrtFit};
use tradefl_runtime::{prop_assert, prop_assert_eq, props};

fn matrix(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| vals[(r * cols + c) % vals.len()])
}

/// Runs one `kernel::*_into` product into a fresh output.
fn product(
    f: fn(&Matrix, &Matrix, &mut Matrix, &mut kernel::Workspace),
    a: &Matrix,
    b: &Matrix,
) -> Matrix {
    let mut out = Matrix::default();
    f(a, b, &mut out, &mut kernel::Workspace::new());
    out
}

/// Error bound for blocked-vs-naive GEMM agreement with entries in
/// `[-2, 2]`: the blocked kernel reassociates the depth sum (KC
/// blocking) and contracts each multiply-add into a fused `mul_add`,
/// so per element it can drift from the naive left-to-right sum by at
/// most ~`k` rounding steps, each bounded by `ε · |partial sum|` with
/// `|partial sum| ≤ 4k`. The resulting `4k²ε` envelope is loose by
/// design — it documents the reassociation freedom the kernel layer
/// is allowed, nothing tighter.
fn gemm_tol(k: usize) -> f32 {
    4.0 * (k * k).max(1) as f32 * f32::EPSILON
}

props! {
    #![cases = 32]

    /// `(A Bᵀ)` computed by `matmul_transposed_into` equals the explicit
    /// product against the materialized transpose.
    fn matmul_transposed_matches_explicit(g) {
        let m = g.usize(1..5);
        let k = g.usize(1..5);
        let n = g.usize(1..5);
        let vals = g.vec(1..40usize, |g| g.f32(-2.0..2.0));
        let a = matrix(m, k, &vals);
        let b = matrix(n, k, &vals);
        let bt = Matrix::from_fn(k, n, |r, c| b.get(c, r));
        let fast = product(kernel::matmul_transposed_into, &a, &b);
        let slow = product(kernel::matmul_into, &a, &bt);
        for r in 0..m {
            for c in 0..n {
                prop_assert!((fast.get(r, c) - slow.get(r, c)).abs() < 1e-4);
            }
        }
    }

    /// `(Aᵀ B)` computed by `transposed_matmul_into` equals the explicit
    /// product.
    fn transposed_matmul_matches_explicit(g) {
        let m = g.usize(1..5);
        let k = g.usize(1..5);
        let n = g.usize(1..5);
        let vals = g.vec(1..40usize, |g| g.f32(-2.0..2.0));
        let a = matrix(k, m, &vals);
        let b = matrix(k, n, &vals);
        let at = Matrix::from_fn(m, k, |r, c| a.get(c, r));
        let fast = product(kernel::transposed_matmul_into, &a, &b);
        let slow = product(kernel::matmul_into, &at, &b);
        for r in 0..m {
            for c in 0..n {
                prop_assert!((fast.get(r, c) - slow.get(r, c)).abs() < 1e-4);
            }
        }
    }

    /// The sqrt fit exactly recovers curves of its own family.
    fn sqrt_fit_recovers_exact_curves(g) {
        let c0 = g.f64(0.2..1.0);
        let c1 = g.f64(0.1..10.0);
        let base = g.usize(50..500);
        let pts: Vec<ProbePoint> = (1..=6)
            .map(|k| {
                let x = base * k * k;
                ProbePoint { samples: x, accuracy: c0 - c1 / (x as f64).sqrt() }
            })
            .collect();
        let fit = SqrtFit::fit(&pts);
        prop_assert!((fit.c0 - c0).abs() < 1e-6);
        prop_assert!((fit.c1 - c1).abs() < 1e-6);
        prop_assert!(fit.r_squared > 0.999);
    }

    /// MLP parameter vectors round-trip through set_params for random
    /// shapes.
    fn mlp_params_roundtrip(g) {
        let dim = g.usize(2..20);
        let hidden = g.usize(1..16);
        let classes = g.usize(2..8);
        let seed = g.any_u64();
        let a = Mlp::with_layers(dim, &[hidden], classes, seed);
        let mut b = Mlp::with_layers(dim, &[hidden], classes, seed.wrapping_add(1));
        b.set_params(&a.to_params());
        prop_assert_eq!(a, b);
    }

    /// Dirichlet shards always have the requested sizes, valid labels,
    /// and are deterministic per seed.
    fn dirichlet_shard_invariants(g) {
        let beta = g.f64(0.05..50.0);
        let seed = g.any_u64();
        let n_orgs = g.usize(2..5);
        let data = generate(DatasetKind::EurosatLike, 600, 3);
        let sizes = vec![600 / n_orgs - 10; n_orgs];
        let shards = dirichlet_shard(&data, &sizes, beta, seed);
        prop_assert_eq!(shards.len(), n_orgs);
        for (s, &want) in shards.iter().zip(&sizes) {
            prop_assert_eq!(s.len(), want);
            prop_assert!(s.labels.iter().all(|&l| l < s.classes));
        }
        let again = dirichlet_shard(&data, &sizes, beta, seed);
        prop_assert_eq!(shards, again);
    }

    /// Label skew is bounded in [0, 1] and zero for single-shard
    /// partitions.
    fn label_skew_bounds(g) {
        let beta = g.f64(0.05..50.0);
        let seed = g.any_u64();
        let data = generate(DatasetKind::FmnistLike, 400, 4);
        let shards = dirichlet_shard(&data, &[150, 150], beta, seed);
        let skew = label_skew(&shards);
        prop_assert!((0.0..=1.0).contains(&skew));
        let single = dirichlet_shard(&data, &[300], beta, seed);
        prop_assert!(label_skew(&single) < 0.05, "one shard ~ pooled distribution");
    }

    /// The blocked `matmul_into` agrees with the naive reference
    /// within [`gemm_tol`] on shapes straddling every tile edge
    /// (MR = 6 rows, NR = 32 columns, KC = 128 depth), and never
    /// reallocates a right-sized output: the tile loops write through
    /// the caller's buffer in place.
    fn blocked_matmul_agrees_and_never_reallocates(g) {
        let m = g.usize(1..20);
        let k = g.usize(1..48);
        let n = g.usize(1..70);
        let vals = g.vec(1..60usize, |g| g.f32(-2.0..2.0));
        let a = matrix(m, k, &vals);
        let b = matrix(k, n, &vals);
        let mut out = Matrix::zeros(m, n);
        let ptr = out.as_slice().as_ptr();
        let cap = out.capacity();
        let mut ws = kernel::Workspace::new();
        kernel::matmul_into(&a, &b, &mut out, &mut ws);
        prop_assert!(std::ptr::eq(out.as_slice().as_ptr(), ptr), "right-sized output moved");
        prop_assert_eq!(out.capacity(), cap);
        let want = kernel::matmul_reference(&a, &b);
        let tol = gemm_tol(k);
        for r in 0..m {
            for c in 0..n {
                prop_assert!(
                    (out.get(r, c) - want.get(r, c)).abs() <= tol,
                    "blocked matmul drifted past the documented bound"
                );
            }
        }
    }

    /// Both transposed blocked products agree with their naive
    /// references within [`gemm_tol`] — `matmul_transposed_into`
    /// (A Bᵀ, the forward path) and `transposed_matmul_into` (Aᵀ B,
    /// the gradient path).
    fn blocked_transposed_products_agree_with_references(g) {
        let m = g.usize(1..20);
        let k = g.usize(1..48);
        let n = g.usize(1..70);
        let vals = g.vec(1..60usize, |g| g.f32(-2.0..2.0));
        let mut ws = kernel::Workspace::new();
        let tol = gemm_tol(k);

        let a = matrix(m, k, &vals);
        let bt = matrix(n, k, &vals);
        let mut out = Matrix::zeros(0, 0);
        kernel::matmul_transposed_into(&a, &bt, &mut out, &mut ws);
        let want = kernel::matmul_transposed_reference(&a, &bt);
        for r in 0..m {
            for c in 0..n {
                prop_assert!((out.get(r, c) - want.get(r, c)).abs() <= tol);
            }
        }

        let at = matrix(k, m, &vals);
        let b = matrix(k, n, &vals);
        let mut out2 = Matrix::zeros(0, 0);
        kernel::transposed_matmul_into(&at, &b, &mut out2, &mut ws);
        let want2 = kernel::transposed_matmul_reference(&at, &b);
        for r in 0..m {
            for c in 0..n {
                prop_assert!((out2.get(r, c) - want2.get(r, c)).abs() <= tol);
            }
        }
    }

    /// ReLU-sparse left operands (exact zeros in ~half the entries)
    /// stay within the same bound: no path skips or selects on a zero,
    /// so the values never change how a product is summed.
    fn blocked_matmul_agrees_on_relu_sparse_inputs(g) {
        let m = g.usize(1..20);
        let k = g.usize(1..48);
        let n = g.usize(1..70);
        let vals = g.vec(2..60usize, |g| {
            if g.usize(0..2) == 0 { 0.0 } else { g.f32(-2.0..2.0) }
        });
        let a = matrix(m, k, &vals);
        let b = matrix(k, n, &vals);
        let mut out = Matrix::zeros(m, n);
        let mut ws = kernel::Workspace::new();
        kernel::matmul_into(&a, &b, &mut out, &mut ws);
        let want = kernel::matmul_reference(&a, &b);
        let tol = gemm_tol(k);
        for r in 0..m {
            for c in 0..n {
                prop_assert!((out.get(r, c) - want.get(r, c)).abs() <= tol);
            }
        }
    }

    /// Dataset generation is seed-deterministic and kind-shaped for any
    /// seed.
    fn generation_invariants(g) {
        let seed = g.any_u64();
        for kind in DatasetKind::ALL {
            let d = generate(kind, 64, seed);
            prop_assert_eq!(d.len(), 64);
            prop_assert_eq!(d.dim(), kind.dim());
            prop_assert_eq!(&d, &generate(kind, 64, seed));
        }
    }
}
