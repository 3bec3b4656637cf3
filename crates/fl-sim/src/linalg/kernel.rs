//! Cache-blocked, register-tiled GEMM kernels (DESIGN.md §10).
//!
//! All three products the MLP substrate needs — `A·B`, `A·Bᵀ` and
//! `Aᵀ·B` — funnel through one blocked driver (`gemm`) that packs
//! operand panels into contiguous scratch buffers ([`Workspace`]) and
//! runs a fixed-size MR×NR register-tile microkernel over them. The
//! microkernel is written as plain indexed loops over constant-length
//! slices so the autovectorizer emits SIMD on every target — pure safe
//! std, no intrinsics, no `unsafe`.
//!
//! # Determinism contract
//!
//! f32 addition is not associative, so *blocking changes the result
//! bits* relative to the naive i-k-j loop. What this module guarantees
//! instead is **one fixed accumulation order per output element**,
//! independent of thread count and of everything except the operand
//! shapes and the compile-time block constants:
//!
//! - the block traversal is always `jc → pc → ic → jr → ir` with the
//!   constants [`MC`]/[`KC`]/[`NC`] fixed at compile time;
//! - inside a microtile, each element accumulates its k-products in
//!   ascending k order into a register, and per-`KC`-block partial
//!   sums are added to the output in ascending `pc` order;
//!
//! The k dimension is never padded; M/N edge tiles are zero-padded in
//! the packed panels and the padded lanes are discarded on write-back,
//! so padding can never contaminate a valid output element.

use super::Matrix;

/// Microkernel tile height (rows of C held in registers).
pub const MR: usize = 6;
/// Microkernel tile width (columns of C held in registers).
pub const NR: usize = 32;
/// Row-block size: rows of A packed and reused per B panel.
pub const MC: usize = 120;
/// Depth-block size: the k-extent of one packed panel pair.
pub const KC: usize = 128;
/// Column-block size: columns of B packed per outer iteration.
pub const NC: usize = 256;

/// Reusable packing scratch for the blocked kernels.
///
/// Buffers grow on first use and are then reused via `Vec::resize`
/// within capacity, so a workspace that has seen a shape once performs
/// zero heap allocations on every later call with shapes no larger.
/// Ownership rule (DESIGN.md §10): a `Workspace` is single-threaded
/// scratch — it is owned by exactly one training loop (or one pooled
/// task) and never shared.
#[derive(Debug, Default)]
pub struct Workspace {
    pack_a: Vec<f32>,
    pack_b: Vec<f32>,
    zeros: Vec<f32>,
}

impl Workspace {
    /// An empty workspace; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        // lint:allow(no-alloc-in-hot-loop): the constructor is the cold path — these Vecs are the buffers every later hot call reuses
        Self { pack_a: Vec::new(), pack_b: Vec::new(), zeros: Vec::new() }
    }
}

/// `out = a · b` into a reused output matrix (no allocation once
/// `out` and `ws` have capacity).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    out.resize(m, n);
    let ad = a.as_slice();
    let bd = b.as_slice();
    gemm_direct_a(m, n, k, ad, |p, c| bd[p * n + c], out.as_mut_slice(), ws);
}

/// `out = a · bᵀ` without materializing the transpose.
///
/// # Panics
///
/// Panics if `a.cols() != bt.cols()`.
pub fn matmul_transposed_into(a: &Matrix, bt: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
    assert_eq!(a.cols(), bt.cols(), "inner dimensions must agree");
    let (m, n, k) = (a.rows(), bt.rows(), a.cols());
    out.resize(m, n);
    let ad = a.as_slice();
    let bd = bt.as_slice();
    gemm_direct_a(m, n, k, ad, |p, c| bd[c * k + p], out.as_mut_slice(), ws);
}

/// Flop bound (`m·n·k`) below which [`transposed_matmul_into`]
/// considers the naive sparsity-skipping loop instead of the blocked
/// driver. Sub-blocking shapes (the 32–96-class per-silo gradient
/// products) can't amortize the pack-B pass, and the blocked path
/// cannot skip work on ReLU-zeroed activation columns — the recorded
/// `grad_weights_relu_sparse_64x32x96` regression. The bound and the
/// zero census below depend only on the operand values, never on
/// worker count, so dispatch is deterministic.
const SMALL_SPARSE_FLOPS: usize = 1 << 19;

/// Minimum exact-zero fraction of `at` for the sparse loop to win:
/// below this the blocked kernel's SIMD tiles beat skipping.
const SMALL_SPARSE_MIN_ZEROS: f32 = 0.25;

/// `out = atᵀ · b` without materializing the transpose.
///
/// Small shapes (`m·n·k < SMALL_SPARSE_FLOPS`) whose `at` operand
/// is at least `SMALL_SPARSE_MIN_ZEROS` exact zeros — ReLU
/// activations in the backward weight-gradient product — dispatch to
/// the naive k-outer loop with the sparsity skip (bit-identical to
/// [`transposed_matmul_reference`]); everything else runs the blocked
/// driver. The census costs one `O(m·k)` pass, negligible next to the
/// `O(m·n·k)` product.
///
/// # Panics
///
/// Panics if `at.rows() != b.rows()`.
pub fn transposed_matmul_into(at: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
    assert_eq!(at.rows(), b.rows(), "inner dimensions must agree");
    let (m, n, k) = (at.cols(), b.cols(), at.rows());
    out.resize(m, n);
    let ad = at.as_slice();
    let bd = b.as_slice();
    if m * n * k < SMALL_SPARSE_FLOPS && !ad.is_empty() {
        // lint:allow(no-float-eq): ReLU emits exact 0.0, so the zero census is exact
        let zeros = ad.iter().filter(|&&v| v == 0.0).count();
        if zeros as f32 >= SMALL_SPARSE_MIN_ZEROS * ad.len() as f32 {
            let od = out.as_mut_slice();
            od.fill(0.0);
            for p in 0..k {
                let arow = &ad[p * m..(p + 1) * m];
                let brow = &bd[p * n..(p + 1) * n];
                for (r, &av) in arow.iter().enumerate() {
                    // lint:allow(no-float-eq): ReLU emits exact 0.0, so the sparsity skip is exact
                    if av == 0.0 {
                        continue;
                    }
                    let out_row = &mut od[r * n..(r + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            return;
        }
    }
    gemm(m, n, k, |r, p| ad[p * m + r], |p, c| bd[p * n + c], out.as_mut_slice(), ws);
}

/// The blocked driver: `out = A · B` for `A` of shape `m×k` and `B`
/// of shape `k×n`, both supplied as element accessors so all three
/// transpose variants share one traversal.
///
/// `out` must hold exactly `m * n` elements (row-major, leading
/// dimension `n`) and is overwritten.
fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b_at: impl Fn(usize, usize) -> f32,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(&mut ws.pack_b, jc, nc, pc, kc, &b_at);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(&mut ws.pack_a, ic, mc, pc, kc, &a_at);
                // The first depth block writes tiles directly (out may
                // hold stale data from a reused buffer); later blocks
                // accumulate, in ascending pc order per the contract.
                block_multiply(
                    &ws.pack_a, &ws.pack_b, mc, nc, kc, out, n, ic, jc, pc == 0,
                );
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// The blocked driver for row-major A: `out = A · B` where `A` is a
/// contiguous `m×k` row-major slice. Identical traversal and
/// per-element accumulation order to [`gemm`], but A is read in place
/// — each microtile loads its MR rows directly — which skips the
/// pack-A write+read pass entirely. That pass is pure memory traffic
/// over the largest operand in the eval/forward shapes, so skipping
/// it is worth ~20% there.
///
/// B still goes through [`pack_b`], which is what makes the B loads
/// contiguous NR-wide vectors regardless of the transpose variant.
fn gemm_direct_a(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b_at: impl Fn(usize, usize) -> f32,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    ws.zeros.resize(KC.min(k), 0.0);
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(&mut ws.pack_b, jc, nc, pc, kc, &b_at);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                block_multiply_direct(
                    a, k, &ws.zeros, &ws.pack_b, mc, nc, kc, out, n, ic, jc, pc,
                );
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Packs an `mc × kc` block of A into MR-row panels: panel `pi` holds
/// rows `[ic + pi·MR, ic + (pi+1)·MR)` with each row's `kc` depth
/// elements contiguous (`[i·kc + p]`), so the microkernel sees the
/// same row-slice shape as the direct path. Rows past `mc` are
/// zero-padded.
fn pack_a(
    buf: &mut Vec<f32>,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    a_at: &impl Fn(usize, usize) -> f32,
) {
    let panels = mc.div_ceil(MR);
    buf.resize(panels * kc * MR, 0.0);
    for pi in 0..panels {
        let panel = &mut buf[pi * kc * MR..(pi + 1) * kc * MR];
        let r0 = pi * MR;
        for (i, row) in panel.chunks_exact_mut(kc).enumerate() {
            let r = r0 + i;
            if r < mc {
                for (p, d) in row.iter_mut().enumerate() {
                    *d = a_at(ic + r, pc + p);
                }
            } else {
                row.fill(0.0);
            }
        }
    }
}

/// Packs a `kc × nc` block of B into NR-column panels: panel `pj`
/// holds columns `[jc + pj·NR, jc + (pj+1)·NR)` laid out `[p·NR + j]`,
/// with columns past `nc` zero-padded.
fn pack_b(
    buf: &mut Vec<f32>,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    b_at: &impl Fn(usize, usize) -> f32,
) {
    let panels = nc.div_ceil(NR);
    buf.resize(panels * kc * NR, 0.0);
    for pj in 0..panels {
        let panel = &mut buf[pj * kc * NR..(pj + 1) * kc * NR];
        let c0 = pj * NR;
        for p in 0..kc {
            let dst = &mut panel[p * NR..p * NR + NR];
            for (j, d) in dst.iter_mut().enumerate() {
                let c = c0 + j;
                *d = if c < nc { b_at(pc + p, jc + c) } else { 0.0 };
            }
        }
    }
}

/// Runs the microkernel over every (ir, jr) tile of one packed block
/// pair. The first depth block (`first`) stores tiles into `out`
/// directly; later blocks add their partial products.
#[allow(clippy::too_many_arguments)]
fn block_multiply(
    pack_a: &[f32],
    pack_b: &[f32],
    mc: usize,
    nc: usize,
    kc: usize,
    out: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
    first: bool,
) {
    let mut jr = 0;
    while jr < nc {
        let b_panel = &pack_b[(jr / NR) * kc * NR..(jr / NR + 1) * kc * NR];
        let nr_eff = NR.min(nc - jr);
        let mut ir = 0;
        while ir < mc {
            let a_panel = &pack_a[(ir / MR) * kc * MR..(ir / MR + 1) * kc * MR];
            let mr_eff = MR.min(mc - ir);
            let mut a_rows = [&a_panel[..kc]; MR];
            for (i, slot) in a_rows.iter_mut().enumerate() {
                *slot = &a_panel[i * kc..(i + 1) * kc];
            }
            let acc = microtile(kc, &a_rows, b_panel);
            for (i, acc_row) in acc.iter().enumerate().take(mr_eff) {
                let row = &mut out[(ic + ir + i) * ldc + jc + jr..][..nr_eff];
                if first {
                    row.copy_from_slice(&acc_row[..nr_eff]);
                } else {
                    for (o, &v) in row.iter_mut().zip(acc_row) {
                        *o += v;
                    }
                }
            }
            ir += MR;
        }
        jr += NR;
    }
}

/// [`block_multiply`] for the direct-A driver: A rows are sliced in
/// place (`a[row·lda + pc ..][.. kc]`), with rows past the end of the
/// matrix standing in as the shared zero row so the microkernel shape
/// stays fixed. Accumulation order per output element is identical to
/// the packed path.
#[allow(clippy::too_many_arguments)]
fn block_multiply_direct(
    a: &[f32],
    lda: usize,
    zeros: &[f32],
    pack_b: &[f32],
    mc: usize,
    nc: usize,
    kc: usize,
    out: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
    pc: usize,
) {
    let first = pc == 0;
    let m = a.len() / lda;
    let mut jr = 0;
    while jr < nc {
        let b_panel = &pack_b[(jr / NR) * kc * NR..(jr / NR + 1) * kc * NR];
        let nr_eff = NR.min(nc - jr);
        let mut ir = 0;
        while ir < mc {
            let mr_eff = MR.min(mc - ir);
            let mut a_rows = [&zeros[..kc]; MR];
            for (i, slot) in a_rows.iter_mut().enumerate().take(mr_eff) {
                let r = ic + ir + i;
                debug_assert!(r < m);
                *slot = &a[r * lda + pc..r * lda + pc + kc];
            }
            let acc = microtile(kc, &a_rows, b_panel);
            for (i, acc_row) in acc.iter().enumerate().take(mr_eff) {
                let row = &mut out[(ic + ir + i) * ldc + jc + jr..][..nr_eff];
                if first {
                    row.copy_from_slice(&acc_row[..nr_eff]);
                } else {
                    for (o, &v) in row.iter_mut().zip(acc_row) {
                        *o += v;
                    }
                }
            }
            ir += MR;
        }
        jr += NR;
    }
}

/// The MR×NR register-tile microkernel: `a_rows[i]` is the `kc`-long
/// depth slice of output row `i` — a packed panel row, an in-place
/// matrix row, or the shared zero row for padded rows. Each element
/// accumulates its products in ascending k order with one rounding per
/// step (`mul_add`); targets without hardware FMA would take a libm
/// call per step, which is why the committed `.cargo/config.toml`
/// raises x86 builds to `x86-64-v3`.
///
/// The depth loop zips one iterator per row so no load needs a bounds
/// check, and each accumulator row gets its own explicit inner loop so
/// the autovectorizer keeps the whole tile in SIMD registers. That
/// spells the rows out, so this function is written for `MR == 6`
/// exactly (compile-time guarded below).
#[inline(always)]
fn microtile(kc: usize, a_rows: &[&[f32]; MR], b_panel: &[f32]) -> [[f32; NR]; MR] {
    const { assert!(MR == 6, "microtile unrolls exactly MR = 6 row iterators") };
    let [r0, r1, r2, r3, r4, r5] = *a_rows;
    let mut acc = [[0.0f32; NR]; MR];
    let steps = b_panel
        .chunks_exact(NR)
        .zip(&r0[..kc])
        .zip(&r1[..kc])
        .zip(&r2[..kc])
        .zip(&r3[..kc])
        .zip(&r4[..kc])
        .zip(&r5[..kc]);
    let [acc0, acc1, acc2, acc3, acc4, acc5] = &mut acc;
    for ((((((b, &a0), &a1), &a2), &a3), &a4), &a5) in steps {
        // Same single-rounding FMA as the packed microkernel; one
        // explicit loop per row keeps each accumulator row's chain
        // free of the temp-array shuffle the rolled form emits.
        for (c, &bv) in acc0.iter_mut().zip(b) {
            *c = a0.mul_add(bv, *c);
        }
        for (c, &bv) in acc1.iter_mut().zip(b) {
            *c = a1.mul_add(bv, *c);
        }
        for (c, &bv) in acc2.iter_mut().zip(b) {
            *c = a2.mul_add(bv, *c);
        }
        for (c, &bv) in acc3.iter_mut().zip(b) {
            *c = a3.mul_add(bv, *c);
        }
        for (c, &bv) in acc4.iter_mut().zip(b) {
            *c = a4.mul_add(bv, *c);
        }
        for (c, &bv) in acc5.iter_mut().zip(b) {
            *c = a5.mul_add(bv, *c);
        }
    }
    acc
}

/// The pre-kernel naive `a · b` (i-k-j over row slices with the
/// ReLU-sparsity skip), kept as the reference implementation for the
/// property tests and the GEMM rows of `BENCH_baselines.json`.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let n = b.cols();
    for r in 0..a.rows() {
        let arow = a.row(r);
        let out_row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
        for (k, &av) in arow.iter().enumerate() {
            // lint:allow(no-float-eq): ReLU emits exact 0.0, so the sparsity skip is exact
            if av == 0.0 {
                continue;
            }
            let brow = b.row(k);
            for (o, &bv) in out_row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The pre-kernel naive `a · bᵀ` (dot products over row slices), the
/// reference for [`matmul_transposed_into`].
pub fn matmul_transposed_reference(a: &Matrix, bt: &Matrix) -> Matrix {
    assert_eq!(a.cols(), bt.cols(), "inner dimensions must agree");
    let mut out = Matrix::zeros(a.rows(), bt.rows());
    let n = bt.rows();
    for r in 0..a.rows() {
        let arow = a.row(r);
        for c in 0..n {
            let mut acc = 0.0;
            for (&av, &bv) in arow.iter().zip(bt.row(c)) {
                acc += av * bv;
            }
            out.set(r, c, acc);
        }
    }
    out
}

/// The pre-kernel naive `atᵀ · b` (k-outer with the sparsity skip),
/// the reference for [`transposed_matmul_into`].
pub fn transposed_matmul_reference(at: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(at.rows(), b.rows(), "inner dimensions must agree");
    let mut out = Matrix::zeros(at.cols(), b.cols());
    for k in 0..at.rows() {
        let arow = at.row(k);
        let brow = b.row(k);
        for (r, &av) in arow.iter().enumerate() {
            // lint:allow(no-float-eq): ReLU emits exact 0.0, so the sparsity skip is exact
            if av == 0.0 {
                continue;
            }
            let out_row = out.row_mut(r);
            for (o, &bv) in out_row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradefl_runtime::rng::{Rng, SeedableRng, StdRng};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_reference_across_edge_shapes() {
        // Shapes straddling every block boundary: unit, sub-tile,
        // exact-tile, one-past-tile, and multi-KC depth.
        let shapes = [
            (1, 1, 1),
            (3, 5, 2),
            (MR, NR, 7),
            (MR + 1, NR + 1, KC),
            (2 * MR, 3 * NR, KC + 3),
            (MC, 17, 2 * KC + 1),
            (MC + 5, NR, 33),
            (300, 96, 64),
        ];
        let mut ws = Workspace::new();
        for (idx, &(m, n, k)) in shapes.iter().enumerate() {
            let a = random(m, k, idx as u64);
            let b = random(k, n, 100 + idx as u64);
            let reference = matmul_reference(&a, &b);
            let mut blocked = Matrix::zeros(0, 0);
            matmul_into(&a, &b, &mut blocked, &mut ws);
            assert_close(&blocked, &reference, 1e-4 * k as f32);

            let bt = random(n, k, 200 + idx as u64);
            let reference = matmul_transposed_reference(&a, &bt);
            matmul_transposed_into(&a, &bt, &mut blocked, &mut ws);
            assert_close(&blocked, &reference, 1e-4 * k as f32);

            let at = random(k, m, 300 + idx as u64);
            let bb = random(k, n, 400 + idx as u64);
            let reference = transposed_matmul_reference(&at, &bb);
            transposed_matmul_into(&at, &bb, &mut blocked, &mut ws);
            assert_close(&blocked, &reference, 1e-4 * k as f32);
        }
    }

    #[test]
    fn empty_dimensions_yield_zero_or_empty_outputs() {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        // k = 0: a well-defined all-zero product.
        matmul_into(&Matrix::zeros(3, 0), &Matrix::zeros(0, 4), &mut out, &mut ws);
        assert_eq!((out.rows(), out.cols()), (3, 4));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        // m = 0 and n = 0: empty outputs.
        matmul_into(&Matrix::zeros(0, 5), &Matrix::zeros(5, 4), &mut out, &mut ws);
        assert_eq!((out.rows(), out.cols()), (0, 4));
        matmul_into(&Matrix::zeros(2, 5), &Matrix::zeros(5, 0), &mut out, &mut ws);
        assert_eq!((out.rows(), out.cols()), (2, 0));
    }

    #[test]
    fn resized_output_reuses_capacity() {
        let mut ws = Workspace::new();
        let a = random(64, 32, 1);
        let b = random(32, 48, 2);
        let mut out = Matrix::zeros(64, 48);
        let ptr = out.as_slice().as_ptr();
        let cap = out.capacity();
        matmul_into(&a, &b, &mut out, &mut ws);
        assert_eq!(out.as_slice().as_ptr(), ptr, "right-sized output must not reallocate");
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn sparse_small_shape_dispatch_is_bit_identical_to_the_reference() {
        // ReLU-like operand: more than a quarter exact zeros, shape
        // under the flop bound — must take the naive skip loop, whose
        // loop order is exactly transposed_matmul_reference's.
        let (m, n, k) = (64, 96, 32);
        let at = Matrix::from_fn(k, m, |r, c| {
            let v = random(1, 1, (r * m + c) as u64).as_slice()[0];
            if v < 0.0 {
                0.0
            } else {
                v
            }
        });
        let zeros = at.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros as f32 >= 0.25 * at.as_slice().len() as f32, "fixture must be sparse");
        assert!(m * n * k < SMALL_SPARSE_FLOPS, "fixture must be small");
        let b = random(k, n, 77);
        let reference = transposed_matmul_reference(&at, &b);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        transposed_matmul_into(&at, &b, &mut out, &mut ws);
        assert_eq!((out.rows(), out.cols()), (m, n));
        for (s, p) in reference.as_slice().iter().zip(out.as_slice()) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn dense_small_shapes_still_match_the_reference_through_the_blocked_path() {
        // A dense operand at the same small shape stays on the blocked
        // driver (zero fraction ~0) and must agree to tolerance.
        let (m, n, k) = (64, 96, 32);
        let at = random(k, m, 5);
        let b = random(k, n, 6);
        let reference = transposed_matmul_reference(&at, &b);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        transposed_matmul_into(&at, &b, &mut out, &mut ws);
        assert_close(&out, &reference, 1e-4 * k as f32);
    }

    #[test]
    fn zero_padding_never_contaminates_outputs_with_nonfinite_inputs() {
        // Edge tiles are zero-padded; 0 · inf would be NaN if a padded
        // lane ever reached a valid output element.
        let m = MR + 1;
        let n = NR + 1;
        let k = 3;
        let a = Matrix::from_fn(m, k, |_, _| f32::INFINITY);
        let b = Matrix::from_fn(k, n, |_, _| 1.0);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        matmul_into(&a, &b, &mut out, &mut ws);
        assert!(out.as_slice().iter().all(|v| v.is_infinite()));
    }
}
