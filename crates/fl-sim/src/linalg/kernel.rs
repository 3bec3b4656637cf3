//! Register-tiled GEMM kernels (DESIGN.md §10).
//!
//! The three products the MLP substrate needs — `A·B`
//! ([`matmul_into`]), `A·Bᵀ` ([`matmul_transposed_into`]) and `Aᵀ·B`
//! ([`transposed_matmul_into`]) — each pick one of three paths from the
//! operand shape alone:
//!
//! - in place, [`NR`] wide — `A·B` and `Aᵀ·B` with `1 ≤ k ≤ KC`,
//!   `m ≥ MR` and `n ≥ NR`, reading both operands where they lie.
//! - in place, [`LANES`] wide — `A·B` and `Aᵀ·B` with `1 ≤ k ≤ KC`,
//!   `m ≥ MR` and `1 ≤ n ≤ LANES`, reading A where it lies and B
//!   through a `k × LANES` zero-padded copy.
//! - blocked (`gemm_direct_a`, `gemm`) — every other shape and every
//!   `A·Bᵀ`.
//!
//! Every path computes each output element by one rounding rule, the
//! FMA chain `acc = a.mul_add(b, acc)` from `+0.0` in ascending depth
//! order, so on one depth block (`k ≤ KC`) all three give the same
//! bits, inf and NaN included, and so do the naive `*_reference`
//! loops.
//!
//! The blocked drivers pack operand panels into [`Workspace`] scratch;
//! the in-place paths read A where it lies and touch at most the B
//! panel. All share one MR-row register-tile microkernel, generic over
//! its tile width and
//! written as plain loops over constant-length slices so the
//! autovectorizer emits SIMD on every target — pure safe std, no
//! intrinsics, no `unsafe`.
//!
//! # Determinism contract
//!
//! f32 addition is not associative, so for `k > KC` *blocking changes
//! the result bits* relative to the naive loops' one unbroken chain.
//! What this module guarantees is **one fixed accumulation order per
//! output element**, independent of thread count and of everything
//! except the operand shapes and the compile-time block constants:
//!
//! - the block traversal is always `jc → pc → ic → jr → ir` with the
//!   constants [`MC`]/[`KC`]/[`NC`] fixed at compile time;
//! - inside a microtile, each element accumulates its k-products in
//!   ascending k order into a register, and per-`KC`-block partial
//!   sums are added to the output in ascending `pc` order;
//!
//! The k dimension is never padded. The blocked drivers and the
//! `LANES`-wide path zero-pad N (and the blocked drivers M) edge tiles
//! in the packed panels and discard the padded lanes on write-back; the
//! `NR`-wide in-place path shifts its last tiles back to end at `m` and
//! `n` and recomputes the shared elements to the same bits. So neither
//! padding nor overlap can reach another output element.

use super::Matrix;

/// Microkernel tile height (rows of C held in registers).
pub const MR: usize = 6;
/// Microkernel tile width (columns of C held in registers).
pub const NR: usize = 32;
/// Tile width for outputs at most this wide: one 512-bit vector of
/// f32. At `n = 10` (the output layer) an [`NR`]-wide tile would
/// compute 22 padded columns of 32; this one computes 6 of 16.
pub const LANES: usize = 16;
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
    let od = out.as_mut_slice();
    if !in_place(m, n, k, InPlaceA::Rows(ad), bd, od, ws) {
        gemm_direct_a(m, n, k, ad, |p, c| bd[p * n + c], od, ws);
    }
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

/// `out = atᵀ · b` without materializing the transpose.
///
/// The path follows from the shape alone, as for [`matmul_into`]: one
/// depth block holding a full tile runs in place, reading `at`'s rows
/// as the tile's A columns; every other shape runs the packed `gemm`.
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
    let od = out.as_mut_slice();
    if !in_place(m, n, k, InPlaceA::Cols(ad), bd, od, ws) {
        gemm(m, n, k, |r, p| ad[p * m + r], |p, c| bd[p * n + c], od, ws);
    }
}

/// `out = A · B` for `B` a `k×n` row-major slice, on [`gemm_in_place`]
/// if the shape takes it: one depth block (`1 ≤ k ≤ KC`) and a full
/// MR-row tile, with an output at least [`NR`] wide, whose B is read
/// where it lies, or at most [`LANES`] wide, whose B is first copied
/// into a `k × LANES` zero-padded panel in `ws.pack_b`. Returns false,
/// having touched nothing, for the blocked drivers. Every FedAvg shape
/// of a production model is one depth block, where packing only copies
/// data: the blocked drivers give each element the same FMA chain.
fn in_place(
    m: usize,
    n: usize,
    k: usize,
    a: InPlaceA<'_>,
    b: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) -> bool {
    if !(1..=KC).contains(&k) || m < MR {
        return false;
    }
    match n {
        NR.. => gemm_in_place::<NR>(m, n, k, a, b, n, out),
        1..=LANES => {
            pack_b::<LANES>(&mut ws.pack_b, 0, n, 0, k, &|p, c| b[p * n + c]);
            gemm_in_place::<LANES>(m, n, k, a, &ws.pack_b, LANES, out);
        }
        _ => return false,
    }
    true
}

/// Where [`gemm_in_place`] reads A's MR values for one depth step.
#[derive(Clone, Copy)]
enum InPlaceA<'a> {
    /// `A` itself, `m×k` row-major: one element from each of MR rows.
    Rows(&'a [f32]),
    /// `Aᵀ`, stored `k×m` row-major: MR contiguous elements of row `p`.
    Cols(&'a [f32]),
}

/// The in-place driver for one depth block: `out = A · B` for B's
/// `k` rows at stride `ldb` in `b` (B itself, or its zero-padded
/// [`pack_b`] panel when `n < W`), with A never packed. Each MR×W tile
/// reads A through `a` and B's rows as W-wide slices, and writes its
/// first `min(W, n)` columns.
///
/// Bit-identical to [`gemm`] and [`gemm_direct_a`] on these shapes:
/// with `k ≤ KC` they run a single depth block, whose `pc == 0` pass
/// stores each element's [`microtile`] chain, from `+0.0` in ascending
/// `p` — the chain this driver runs and stores. The last row and
/// column tiles are shifted back to end at `m` and `n`; elements they
/// share with the tile before are recomputed to the same bits, and the
/// padded columns of a narrow tile are never written.
fn gemm_in_place<const W: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: InPlaceA<'_>,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
) {
    let width = W.min(n);
    debug_assert!((1..=KC).contains(&k) && m >= MR && width >= 1);
    debug_assert!(b.len() == k * ldb && ldb >= width && out.len() == m * n);
    for r0 in (0..m).step_by(MR) {
        let r0 = r0.min(m - MR);
        for c0 in (0..n).step_by(W) {
            let c0 = c0.min(n - width);
            // k rows of B from column c0; only the last is shorter than ldb.
            let b_rows = b[c0..].chunks(ldb);
            let acc = match a {
                InPlaceA::Rows(a) => {
                    let rows = std::array::from_fn(|i| &a[(r0 + i) * k..][..k]);
                    microtile::<W>(row_steps(&rows, k).zip(b_rows))
                }
                InPlaceA::Cols(at) => {
                    let cols = at[r0..].chunks(m).map(|row| {
                        let col = &row[..MR];
                        std::array::from_fn(|i| col[i])
                    });
                    microtile::<W>(cols.zip(b_rows))
                }
            };
            for (i, acc_row) in acc.iter().enumerate() {
                out[(r0 + i) * n + c0..][..width].copy_from_slice(&acc_row[..width]);
            }
        }
    }
}

/// The packed blocked driver: `out = A · B` for `A` of shape `m×k` and
/// `B` of shape `k×n`, both supplied as element accessors and packed.
/// It serves the dense `Aᵀ·B` shapes [`gemm_in_place`] does not take,
/// whose strided `at` would defeat the tile's loads.
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
            pack_b::<NR>(&mut ws.pack_b, jc, nc, pc, kc, &b_at);
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
/// pack-A write+read pass entirely.
///
/// B still goes through [`pack_b`], which is what makes the B loads
/// contiguous NR-wide vectors regardless of the transpose variant: it
/// serves every `A·Bᵀ`, whose B is read across `bt`'s rows, and the
/// `A·B` shapes [`gemm_in_place`] does not take.
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
            pack_b::<NR>(&mut ws.pack_b, jc, nc, pc, kc, &b_at);
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

/// Packs a `kc × nc` block of B into W-column panels: panel `pj`
/// holds columns `[jc + pj·W, jc + (pj+1)·W)` laid out `[p·W + j]`,
/// with columns past `nc` zero-padded. The blocked drivers pack
/// [`NR`]-wide panels; the narrow in-place path packs one
/// [`LANES`]-wide panel.
fn pack_b<const W: usize>(
    buf: &mut Vec<f32>,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    b_at: &impl Fn(usize, usize) -> f32,
) {
    let panels = nc.div_ceil(W);
    buf.resize(panels * kc * W, 0.0);
    for pj in 0..panels {
        let panel = &mut buf[pj * kc * W..(pj + 1) * kc * W];
        let c0 = pj * W;
        for p in 0..kc {
            let dst = &mut panel[p * W..p * W + W];
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
            let acc = microtile::<NR>(row_steps(&a_rows, kc).zip(b_panel.chunks_exact(NR)));
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
            let acc = microtile::<NR>(row_steps(&a_rows, kc).zip(b_panel.chunks_exact(NR)));
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

/// Depth steps of A given as MR row slices (a packed panel's rows, a
/// matrix's rows in place, or the shared zero row for padded rows):
/// step `p` yields element `p` of every row, for `p < kc`. Zipping one
/// iterator per row keeps every load free of bounds checks.
#[inline(always)]
fn row_steps<'a>(rows: &[&'a [f32]; MR], kc: usize) -> impl Iterator<Item = [f32; MR]> + 'a {
    let [r0, r1, r2, r3, r4, r5] = *rows;
    r0[..kc]
        .iter()
        .zip(&r1[..kc])
        .zip(&r2[..kc])
        .zip(&r3[..kc])
        .zip(&r4[..kc])
        .zip(&r5[..kc])
        .map(|(((((&a0, &a1), &a2), &a3), &a4), &a5)| [a0, a1, a2, a3, a4, a5])
}

/// The MR×W register-tile microkernel. Each depth step supplies A's
/// MR values for the tile's rows and a B row slice whose first W
/// values are the tile's columns — a packed panel row, or B's row read
/// in place. Each element accumulates its products from `+0.0` in step
/// order with one rounding per step (`mul_add`); targets without
/// hardware FMA would take a libm call per step, which is why the
/// committed `.cargo/config.toml` raises x86 builds to `x86-64-v3`.
/// The width changes how many columns one tile covers, never an
/// element's chain: [`NR`] for the blocked drivers and wide in-place
/// outputs, [`LANES`] for narrow ones.
///
/// Each accumulator row gets its own explicit inner loop so the
/// autovectorizer keeps the whole tile in SIMD registers. That spells
/// the rows out, so this function is written for `MR == 6` exactly
/// (compile-time guarded below).
#[inline(always)]
fn microtile<'b, const W: usize>(
    steps: impl Iterator<Item = ([f32; MR], &'b [f32])>,
) -> [[f32; W]; MR] {
    const { assert!(MR == 6, "microtile unrolls exactly MR = 6 accumulator rows") };
    let mut acc = [[0.0f32; W]; MR];
    let [acc0, acc1, acc2, acc3, acc4, acc5] = &mut acc;
    for ([a0, a1, a2, a3, a4, a5], b) in steps {
        let b = &b[..W];
        // One explicit loop per row keeps each accumulator row's chain
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

/// The naive `a · b` (i-k-j over row slices), kept as the reference
/// implementation for the property tests and the GEMM rows of
/// `BENCH_baselines.json`. Each element runs the kernels' FMA chain
/// from `+0.0` in ascending `k`, so for `k ≤ KC` the bits agree.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let n = b.cols();
    for r in 0..a.rows() {
        let arow = a.row(r);
        let out_row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
        for (k, &av) in arow.iter().enumerate() {
            for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
    out
}

/// The naive `a · bᵀ` (dot products over row slices, the same FMA
/// chain), the reference for [`matmul_transposed_into`].
pub fn matmul_transposed_reference(a: &Matrix, bt: &Matrix) -> Matrix {
    assert_eq!(a.cols(), bt.cols(), "inner dimensions must agree");
    let mut out = Matrix::zeros(a.rows(), bt.rows());
    let n = bt.rows();
    for r in 0..a.rows() {
        let arow = a.row(r);
        for c in 0..n {
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(bt.row(c)) {
                acc = av.mul_add(bv, acc);
            }
            out.set(r, c, acc);
        }
    }
    out
}

/// The naive `atᵀ · b` (k-outer, the same FMA chain), the reference
/// for [`transposed_matmul_into`].
pub fn transposed_matmul_reference(at: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(at.rows(), b.rows(), "inner dimensions must agree");
    let mut out = Matrix::zeros(at.cols(), b.cols());
    for k in 0..at.rows() {
        let brow = b.row(k);
        for (r, &av) in at.row(k).iter().enumerate() {
            for (o, &bv) in out.row_mut(r).iter_mut().zip(brow) {
                *o = av.mul_add(bv, *o);
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
        // exact-tile, one-past-tile, multi-KC depth, and the narrow
        // LANES-wide path. Up to KC deep every path runs the references'
        // FMA chain, so the bits agree; deeper, the blocked drivers add
        // per-KC partial sums, which agree to tolerance.
        let shapes = [
            (1, 1, 1),
            (3, 5, 2),
            (MR, NR, 7),
            (MR + 1, NR + 1, KC),
            (2 * MR, 3 * NR, KC + 3),
            (MC, 17, 2 * KC + 1),
            (MC + 5, NR, 33),
            (300, 96, 64),
            (32, 10, 32),
        ];
        let mut ws = Workspace::new();
        for (idx, &(m, n, k)) in shapes.iter().enumerate() {
            let agree = |got: &Matrix, want: &Matrix, what: &str| {
                if k <= KC {
                    assert_same_bits(got, want, &format!("{what} {m}x{n}x{k}"));
                } else {
                    assert_close(got, want, 1e-4 * k as f32);
                }
            };
            let a = random(m, k, idx as u64);
            let b = random(k, n, 100 + idx as u64);
            let mut blocked = Matrix::zeros(0, 0);
            matmul_into(&a, &b, &mut blocked, &mut ws);
            agree(&blocked, &matmul_reference(&a, &b), "matmul");

            let bt = random(n, k, 200 + idx as u64);
            matmul_transposed_into(&a, &bt, &mut blocked, &mut ws);
            agree(&blocked, &matmul_transposed_reference(&a, &bt), "matmul_transposed");

            let at = random(k, m, 300 + idx as u64);
            let bb = random(k, n, 400 + idx as u64);
            transposed_matmul_into(&at, &bb, &mut blocked, &mut ws);
            agree(&blocked, &transposed_matmul_reference(&at, &bb), "transposed_matmul");
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
    fn narrow_path_is_bit_identical_to_the_blocked_driver() {
        // Every shape is one depth block at most LANES wide with at
        // least MR rows, so both `matmul_into` and
        // `transposed_matmul_into` run the LANES-wide in-place tile and
        // pack B alone; `gemm_direct_a` and `gemm` are the blocked
        // drivers they must match bit for bit. A quarter of A is ±0 and
        // a few entries +inf; `b` holds NaN and −inf in some rows, so a
        // zero A entry that skipped its `0 · inf` or `0 · NaN` term, or
        // a padded column written back, would show up as a bit
        // difference.
        for m in [6, 7, 16, 17, 32, 40, 96, 1000] {
            for n in [1, 5, 6, 10, 16] {
                for k in [1, 31, 32, 64, KC] {
                    let what = format!("{m}x{n}x{k}");
                    let seed = (m * 1000 + n * 10 + k) as u64;
                    let raw = random(m, k, seed);
                    let a = Matrix::from_fn(m, k, |r, p| match (p * m + r) % 8 {
                        0 => 0.0,
                        4 => -0.0,
                        _ if (p * m + r) % 61 == 7 => f32::INFINITY,
                        _ => raw.get(r, p),
                    });
                    let at = Matrix::from_fn(k, m, |p, r| a.get(r, p));
                    let raw = random(k, n, seed + 1);
                    let b = Matrix::from_fn(k, n, |p, c| match (p % 5, c % 3) {
                        (2, 0) => f32::NAN,
                        (3, 1) => f32::NEG_INFINITY,
                        _ => raw.get(p, c),
                    });
                    let bd = b.as_slice();
                    let mut got = Matrix::zeros(0, 0);
                    let mut want = Matrix::zeros(m, n);
                    let mut blocked_ws = Workspace::new();

                    let mut ws = Workspace::new();
                    matmul_into(&a, &b, &mut got, &mut ws);
                    assert_only_pack_b(&ws, &format!("matmul {what}"));
                    let (ad, out) = (a.as_slice(), want.as_mut_slice());
                    gemm_direct_a(m, n, k, ad, |p, c| bd[p * n + c], out, &mut blocked_ws);
                    assert_same_bits(&got, &want, &format!("matmul {what}"));

                    let mut ws = Workspace::new();
                    transposed_matmul_into(&at, &b, &mut got, &mut ws);
                    assert_only_pack_b(&ws, &format!("transposed_matmul {what}"));
                    let (ad, out) = (at.as_slice(), want.as_mut_slice());
                    gemm(m, n, k, |r, p| ad[p * m + r], |p, c| bd[p * n + c], out, &mut blocked_ws);
                    assert_same_bits(&got, &want, &format!("transposed_matmul {what}"));
                }
            }
        }
    }

    fn assert_only_pack_b(ws: &Workspace, what: &str) {
        let touched = (!ws.pack_a.is_empty(), !ws.pack_b.is_empty(), !ws.zeros.is_empty());
        assert_eq!(touched, (false, true, false), "{what}: (pack_a, pack_b, zeros) touched");
    }

    #[test]
    fn zero_padding_never_contaminates_outputs_with_nonfinite_inputs() {
        // Blocked edge tiles are zero-padded (m < MR, n < NR), and so
        // is the LANES-wide tile's B panel (n < LANES); 0 · inf would be
        // NaN if a padded lane ever reached a valid output element. The
        // in-place shape (MR + 1, NR + 1) shifts its last tiles back
        // instead.
        for (m, n) in [(MR - 1, NR - 1), (MR + 1, LANES - 1), (MR + 1, NR + 1)] {
            let k = 3;
            let a = Matrix::from_fn(m, k, |_, _| f32::INFINITY);
            let b = Matrix::from_fn(k, n, |_, _| 1.0);
            let mut ws = Workspace::new();
            let mut out = Matrix::zeros(0, 0);
            matmul_into(&a, &b, &mut out, &mut ws);
            assert!(out.as_slice().iter().all(|v| v.is_infinite()), "{m}x{n}");
        }
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn in_place_path_is_bit_identical_to_the_blocked_drivers() {
        // Every shape is one depth block holding a full MR×NR tile, so
        // `matmul_into` and the dense `transposed_matmul_into` take
        // `gemm_in_place` and must pack nothing. Every fifth row of A
        // holds one of ±inf and NaN, and B's last column a NaN: a
        // shifted-back tile that wrote a recomputed row or column into
        // any other element would show up as a bit difference.
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for m in [6, 7, 32, 37, 1000] {
            for n in [32, 33, 48, 96] {
                for k in [1, 31, 36, KC] {
                    let what = format!("{m}x{n}x{k}");
                    let seed = (m * 1000 + n * 10 + k) as u64;
                    let raw = random(m, k, seed);
                    let a = Matrix::from_fn(m, k, |r, p| {
                        if r % 5 == 4 && p == r % k {
                            specials[r / 5 % 3]
                        } else {
                            raw.get(r, p)
                        }
                    });
                    let raw = random(k, n, seed + 1);
                    let b = Matrix::from_fn(k, n, |p, c| {
                        if p == 0 && c == n - 1 {
                            f32::NAN
                        } else {
                            raw.get(p, c)
                        }
                    });
                    let (mut ws, mut blocked_ws) = (Workspace::new(), Workspace::new());
                    let mut got = Matrix::zeros(0, 0);
                    let mut want = Matrix::zeros(m, n);
                    let bd = b.as_slice();

                    matmul_into(&a, &b, &mut got, &mut ws);
                    let (ad, out) = (a.as_slice(), want.as_mut_slice());
                    gemm_direct_a(m, n, k, ad, |p, c| bd[p * n + c], out, &mut blocked_ws);
                    assert_same_bits(&got, &want, &format!("matmul {what}"));

                    let at = Matrix::from_fn(k, m, |p, r| a.get(r, p));
                    transposed_matmul_into(&at, &b, &mut got, &mut ws);
                    let (ad, out) = (at.as_slice(), want.as_mut_slice());
                    gemm(m, n, k, |r, p| ad[p * m + r], |p, c| bd[p * n + c], out, &mut blocked_ws);
                    assert_same_bits(&got, &want, &format!("transposed_matmul {what}"));

                    assert!(ws.pack_a.is_empty() && ws.pack_b.is_empty(), "{what} packed");
                }
            }
        }
    }

    #[test]
    fn deep_and_narrow_shapes_still_take_the_blocked_drivers() {
        // Two depth blocks, fewer rows than a tile, or a width between
        // LANES and NR: the blocked drivers pack B, `gemm_direct_a`
        // borrows its zero row and `gemm` packs A too. One depth block
        // at most LANES wide (32x10x36, the output layer) packs B alone.
        let blocked = ([false, true, true], [true, true, false]);
        let narrow = ([false, true, false], [false, true, false]);
        for ((m, n, k), (matmul, transposed)) in [
            ((32, 32, KC + 1), blocked),
            ((5, 32, 36), blocked),
            ((5, 10, 36), blocked),
            ((32, 20, 36), blocked),
            ((32, 10, 36), narrow),
            ((32, 10, KC + 1), blocked),
        ] {
            let touched =
                |ws: &Workspace| [&ws.pack_a, &ws.pack_b, &ws.zeros].map(|v| !v.is_empty());
            let b = random(k, n, 2);
            let mut out = Matrix::zeros(0, 0);
            let mut ws = Workspace::new();
            matmul_into(&random(m, k, 1), &b, &mut out, &mut ws);
            assert_eq!(touched(&ws), matmul, "matmul {m}x{n}x{k}");
            let mut ws = Workspace::new();
            transposed_matmul_into(&random(k, m, 3), &b, &mut out, &mut ws);
            assert_eq!(touched(&ws), transposed, "transposed {m}x{n}x{k}");
        }
    }
}
