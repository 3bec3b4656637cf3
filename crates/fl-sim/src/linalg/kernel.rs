//! Register-tiled GEMM kernels (DESIGN.md §10).
//!
//! The three products the MLP substrate needs — `A·B`
//! ([`matmul_into`]), `A·Bᵀ` ([`matmul_transposed_into`]) and `Aᵀ·B`
//! ([`transposed_matmul_into`]) — each run one of two loops over one
//! MR-row register tile, picked from the operand shape alone:
//!
//! - the in-place tile loop — one depth block (`1 ≤ k ≤ KC`) and at
//!   least [`MR`] rows, which is every FedAvg shape of a production
//!   model;
//! - the general loop — every other shape: `k > KC`, or `m < MR`.
//!
//! Both read A where it lies. B is read where it lies when it is
//! row-major and at least [`LANES`] wide; otherwise (`A·Bᵀ`'s
//! transpose, or an output narrower than `LANES`) it is copied once
//! into a `k × max(n, LANES)` zero-padded panel in [`Workspace`]. The
//! tile is [`NR`] wide when `n ≥ NR` and [`LANES`] wide otherwise.
//!
//! Every output element is computed by one rounding rule, the FMA
//! chain `acc = a.mul_add(b, acc)` from `+0.0` in ascending depth
//! order, so on one depth block (`k ≤ KC`) every shape gives the bits
//! of the naive `*_reference` loops, inf and NaN included. The
//! microkernel is written as plain loops over constant-length slices so
//! the autovectorizer emits SIMD on every target — pure safe std, no
//! intrinsics, no `unsafe`.
//!
//! # Determinism contract
//!
//! f32 addition is not associative, so for `k > KC` *blocking changes
//! the result bits* relative to the naive loops' one unbroken chain.
//! What this module guarantees is **one fixed accumulation order per
//! output element**, independent of thread count and of everything
//! except the operand shapes and the compile-time constant [`KC`]: each
//! element runs the chain over each `KC` depth block, the first block's
//! sum is stored and each later one is added in ascending block order.
//!
//! The k dimension is never padded. Padded B columns, and the zero A
//! rows past `m` in the general loop, are never written back; the last
//! column tile (and in the in-place loop the last row tile) is shifted
//! back to end at `n` (`m`) and recomputes the elements it shares with
//! the tile before to the same bits. So neither padding nor overlap can
//! reach another output element.

use super::Matrix;

/// Microkernel tile height (rows of C held in registers).
pub const MR: usize = 6;
/// Microkernel tile width (columns of C held in registers).
pub const NR: usize = 32;
/// Tile width for outputs narrower than [`NR`]: one 512-bit vector of
/// f32. At `n = 10` (the output layer) an [`NR`]-wide tile would
/// compute 22 padded columns of 32; this one computes 6 of 16.
pub const LANES: usize = 16;
/// Depth-block size: the k-extent of one accumulation chain.
pub const KC: usize = 128;

/// The A row the general loop reads for rows past `m`.
static ZEROS: [f32; KC] = [0.0; KC];

/// Reusable scratch for the B panel of the products that copy B.
///
/// The buffer grows on first use and is then reused via `Vec::resize`
/// within capacity, so a workspace that has seen a shape once performs
/// zero heap allocations on every later call with shapes no larger.
/// Ownership rule (DESIGN.md §10): a `Workspace` is single-threaded
/// scratch — it is owned by exactly one training loop (or one pooled
/// task) and never shared.
#[derive(Debug, Default)]
pub struct Workspace {
    pack_b: Vec<f32>,
}

impl Workspace {
    /// An empty workspace; the buffer is allocated lazily on first use.
    pub fn new() -> Self {
        // lint:allow(no-alloc-in-hot-loop): the constructor is the cold path — this Vec is the buffer every later hot call reuses
        Self { pack_b: Vec::new() }
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
    let (a, b) = (Operand::Rows(a.as_slice()), Operand::Rows(b.as_slice()));
    gemm(m, n, k, a, b, out.as_mut_slice(), ws);
}

/// `out = a · bᵀ` without materializing the transpose: B is read
/// across `bt`'s rows, so it is copied once into a row-major panel.
///
/// # Panics
///
/// Panics if `a.cols() != bt.cols()`.
pub fn matmul_transposed_into(a: &Matrix, bt: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
    assert_eq!(a.cols(), bt.cols(), "inner dimensions must agree");
    let (m, n, k) = (a.rows(), bt.rows(), a.cols());
    out.resize(m, n);
    let (a, b) = (Operand::Rows(a.as_slice()), Operand::Cols(bt.as_slice()));
    gemm(m, n, k, a, b, out.as_mut_slice(), ws);
}

/// `out = atᵀ · b` without materializing the transpose: each depth
/// step reads MR contiguous values of one of `at`'s rows.
///
/// # Panics
///
/// Panics if `at.rows() != b.rows()`.
pub fn transposed_matmul_into(at: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
    assert_eq!(at.rows(), b.rows(), "inner dimensions must agree");
    let (m, n, k) = (at.cols(), b.cols(), at.rows());
    out.resize(m, n);
    let (a, b) = (Operand::Cols(at.as_slice()), Operand::Rows(b.as_slice()));
    gemm(m, n, k, a, b, out.as_mut_slice(), ws);
}

/// How a `rows × cols` operand lies in its slice.
#[derive(Clone, Copy)]
enum Operand<'a> {
    /// The operand itself, row-major: element `(r, c)` at `[r·cols + c]`.
    Rows(&'a [f32]),
    /// Its transpose, row-major: element `(r, c)` at `[c·rows + r]`.
    Cols(&'a [f32]),
}

/// `out = A · B` for an `m×k` A and a `k×n` B, `out` being exactly
/// `m * n` row-major elements: [`gemm_in_place`] for one depth block
/// holding a full MR-row tile, [`general`] for every other shape. B is
/// read where it lies when it is row-major and at least [`LANES`] wide,
/// and goes through [`pack`] otherwise; either way the loops see it as
/// `k` rows at stride `max(n, LANES)`.
fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    let ldb = n.max(LANES);
    let b = match b {
        Operand::Rows(b) if n >= LANES => b,
        _ => pack(&mut ws.pack_b, b, k, n, ldb),
    };
    match (n >= NR, k <= KC && m >= MR) {
        (true, true) => gemm_in_place::<NR>(m, n, k, a, b, ldb, out),
        (false, true) => gemm_in_place::<LANES>(m, n, k, a, b, ldb, out),
        (true, false) => general::<NR>(m, n, k, a, b, ldb, out),
        (false, false) => general::<LANES>(m, n, k, a, b, ldb, out),
    }
}

/// Copies the `k×n` operand B into `buf` as `k` rows of `ld ≥ n`
/// elements, the columns past `n` zero, and returns the panel.
fn pack<'w>(buf: &'w mut Vec<f32>, b: Operand<'_>, k: usize, n: usize, ld: usize) -> &'w [f32] {
    buf.resize(k * ld, 0.0);
    for (p, row) in buf.chunks_exact_mut(ld).enumerate() {
        match b {
            Operand::Rows(b) => {
                let src = &b[p * n..][..n];
                for (c, d) in row.iter_mut().enumerate() {
                    *d = if c < n { src[c] } else { 0.0 };
                }
            }
            // Row c of `bt` is column c of B.
            Operand::Cols(bt) => {
                let (valid, pad) = row.split_at_mut(n);
                for (d, col) in valid.iter_mut().zip(bt.chunks_exact(k)) {
                    *d = col[p];
                }
                pad.fill(0.0);
            }
        }
    }
    buf
}

/// The in-place tile loop for one depth block: `out = A · B` for B's
/// `k` rows at stride `ldb` in `b` (B itself, or its [`pack`] panel),
/// with A never packed. Each MR×W tile reads A through `a` and B's rows
/// as W-wide slices, and writes its first `min(W, n)` columns.
///
/// With `k ≤ KC` each element's [`microtile`] chain, from `+0.0` in
/// ascending `p`, is the whole product, stored once: the naive
/// references' chain. The last row and column tiles are shifted back to
/// end at `m` and `n`; elements they share with the tile before are
/// recomputed to the same bits, and the padded columns of a narrow tile
/// are never written.
///
/// Kept out of line: inlined into [`gemm`] beside [`general`], the
/// forward shapes measured 6–9% slower per call.
#[inline(never)]
fn gemm_in_place<const W: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_>,
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
                Operand::Rows(a) => {
                    let rows = std::array::from_fn(|i| &a[(r0 + i) * k..][..k]);
                    microtile::<W>(row_steps(&rows, k).zip(b_rows))
                }
                Operand::Cols(at) => {
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

/// The general loop, for the shapes [`gemm_in_place`] does not take:
/// `k > KC` or `m < MR`. Each MR×W tile runs [`microtile`] once per
/// `KC` depth block, stores the first block's sums and adds each later
/// block's in ascending block order. Rows past `m` are zero A values
/// and are never written back; columns are tiled as in
/// [`gemm_in_place`].
fn general<const W: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_>,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
) {
    let width = W.min(n);
    for r0 in (0..m).step_by(MR) {
        let rows = MR.min(m - r0);
        for c0 in (0..n).step_by(W) {
            let c0 = c0.min(n - width);
            let block = |pc: usize| {
                let kc = KC.min(k - pc);
                let b_rows = b[pc * ldb + c0..].chunks(ldb);
                match a {
                    Operand::Rows(a) => {
                        let rows = std::array::from_fn(|i| {
                            if i < rows {
                                &a[(r0 + i) * k + pc..][..kc]
                            } else {
                                &ZEROS[..kc]
                            }
                        });
                        microtile::<W>(row_steps(&rows, kc).zip(b_rows))
                    }
                    Operand::Cols(at) => {
                        let cols = at[pc * m + r0..].chunks(m).take(kc).map(|row| {
                            std::array::from_fn(|i| if i < rows { row[i] } else { 0.0 })
                        });
                        microtile::<W>(cols.zip(b_rows))
                    }
                }
            };
            let mut acc = block(0);
            for pc in (KC..k).step_by(KC) {
                for (s, v) in acc.iter_mut().flatten().zip(block(pc).iter().flatten()) {
                    *s += v;
                }
            }
            for (i, acc_row) in acc.iter().enumerate().take(rows) {
                out[(r0 + i) * n + c0..][..width].copy_from_slice(&acc_row[..width]);
            }
        }
    }
}

/// Depth steps of A given as MR row slices of A in place: step `p`
/// yields element `p` of every row, for `p < kc`. Zipping one iterator
/// per row keeps every load free of bounds checks.
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
/// element's chain: [`NR`] for outputs at least that wide, [`LANES`]
/// for narrower ones.
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

    fn transpose(a: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), a.rows(), |r, c| a.get(c, r))
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn blocked_matches_reference_across_edge_shapes() {
        // Shapes straddling every tile and depth-block boundary: unit,
        // sub-tile, exact-tile, one-past-tile, multi-KC depth, and the
        // narrow LANES-wide tile. Up to KC deep every path runs the
        // references' FMA chain, so the bits agree; deeper, per-KC
        // partial sums are added, which agree to tolerance.
        let shapes = [
            (1, 1, 1),
            (3, 5, 2),
            (MR, NR, 7),
            (MR + 1, NR + 1, KC),
            (2 * MR, 3 * NR, KC + 3),
            (120, 17, 2 * KC + 1),
            (125, NR, 33),
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
            let mut got = Matrix::zeros(0, 0);
            matmul_into(&a, &b, &mut got, &mut ws);
            agree(&got, &matmul_reference(&a, &b), "matmul");

            let bt = random(n, k, 200 + idx as u64);
            matmul_transposed_into(&a, &bt, &mut got, &mut ws);
            agree(&got, &matmul_transposed_reference(&a, &bt), "matmul_transposed");

            let at = random(k, m, 300 + idx as u64);
            let bb = random(k, n, 400 + idx as u64);
            transposed_matmul_into(&at, &bb, &mut got, &mut ws);
            agree(&got, &transposed_matmul_reference(&at, &bb), "transposed_matmul");
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
    fn every_path_is_bit_identical_to_the_references() {
        // One depth block on every path: the in-place loop at both tile
        // widths, with B in place or packed, and the general loop for
        // m < MR. All three products must equal the naive references bit
        // for bit. A quarter of A is ±0, a few entries +inf, and every
        // fifth row holds one of ±inf and NaN; B holds NaN and −inf in
        // some rows and a NaN in its last column. A zero A entry that
        // skipped its `0 · inf` or `0 · NaN` term, a padded column or
        // row written back, or a shifted-back tile that wrote a
        // recomputed element anywhere else would show as a bit
        // difference. One workspace serves all three products, so a
        // stale panel would show too.
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for m in [1, 2, 3, 4, 5, 6, 7, 16, 17, 32, 37, 40, 96] {
            for n in [1, 5, 6, 10, 16, 17, 20, 31, 32, 33, 48, 96] {
                for k in [1, 31, 32, 36, 64, KC] {
                    let what = format!("{m}x{n}x{k}");
                    let seed = (m * 1000 + n * 10 + k) as u64;
                    let raw = random(m, k, seed);
                    let a = Matrix::from_fn(m, k, |r, p| match (p * m + r) % 8 {
                        0 => 0.0,
                        4 => -0.0,
                        _ if (p * m + r) % 61 == 7 => f32::INFINITY,
                        _ if r % 5 == 4 && p == r % k => specials[r / 5 % 3],
                        _ => raw.get(r, p),
                    });
                    let raw = random(k, n, seed + 1);
                    let b = Matrix::from_fn(k, n, |p, c| match (p % 5, c % 3) {
                        _ if p == 0 && c == n - 1 => f32::NAN,
                        (2, 0) => f32::NAN,
                        (3, 1) => f32::NEG_INFINITY,
                        _ => raw.get(p, c),
                    });
                    let (at, bt) = (transpose(&a), transpose(&b));
                    let mut ws = Workspace::new();
                    let mut got = Matrix::zeros(0, 0);

                    matmul_into(&a, &b, &mut got, &mut ws);
                    assert_same_bits(&got, &matmul_reference(&a, &b), &format!("matmul {what}"));
                    matmul_transposed_into(&a, &bt, &mut got, &mut ws);
                    let want = matmul_transposed_reference(&a, &bt);
                    assert_same_bits(&got, &want, &format!("matmul_transposed {what}"));
                    transposed_matmul_into(&at, &b, &mut got, &mut ws);
                    let want = transposed_matmul_reference(&at, &b);
                    assert_same_bits(&got, &want, &format!("transposed_matmul {what}"));
                }
            }
        }
    }

    #[test]
    fn deep_products_add_their_depth_blocks_in_ascending_order() {
        // For k > KC each element is the chain over each KC depth block,
        // the first block's sum stored and each later one added in
        // ascending block order: the naive reference on each block's
        // slice, summed the same way, must match bit for bit.
        for (m, n, k) in [(1, 1, KC + 1), (5, 10, 2 * KC + 3), (7, 33, KC + 1), (40, 17, 3 * KC)] {
            let what = format!("{m}x{n}x{k}");
            let a = random(m, k, (m * n) as u64);
            let b = random(k, n, k as u64);
            let mut want = Matrix::zeros(0, 0);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let a_block = Matrix::from_fn(m, kc, |r, p| a.get(r, pc + p));
                let b_block = Matrix::from_fn(kc, n, |p, c| b.get(pc + p, c));
                let part = matmul_reference(&a_block, &b_block);
                if pc == 0 {
                    want = part;
                } else {
                    for (w, v) in want.as_mut_slice().iter_mut().zip(part.as_slice()) {
                        *w += v;
                    }
                }
            }
            let mut ws = Workspace::new();
            let mut got = Matrix::zeros(0, 0);
            matmul_into(&a, &b, &mut got, &mut ws);
            assert_same_bits(&got, &want, &format!("matmul {what}"));
            matmul_transposed_into(&a, &transpose(&b), &mut got, &mut ws);
            assert_same_bits(&got, &want, &format!("matmul_transposed {what}"));
            transposed_matmul_into(&transpose(&a), &b, &mut got, &mut ws);
            assert_same_bits(&got, &want, &format!("transposed_matmul {what}"));
        }
    }

    #[test]
    fn zero_padding_never_contaminates_outputs_with_nonfinite_inputs() {
        // The general loop zero-pads A rows past m (m < MR), and the B
        // panel of an output narrower than LANES has zero columns; 0 · inf
        // would be NaN if a padded lane ever reached a valid output
        // element. The in-place shape (MR + 1, NR + 1) shifts its last
        // tiles back instead.
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

    #[test]
    fn only_transposed_or_narrow_b_is_copied_into_the_workspace() {
        // B is read where it lies when it is row-major and at least
        // LANES wide, whatever the depth or the row count; `A·Bᵀ`'s B
        // and any output narrower than LANES go through `pack_b`.
        for ((m, n, k), copies_b) in [
            ((32, 32, KC + 1), false),
            ((5, 32, 36), false),
            ((32, 20, 36), false),
            ((32, 16, 36), false),
            ((5, 10, 36), true),
            ((32, 10, 36), true),
            ((32, 10, KC + 1), true),
        ] {
            let what = format!("{m}x{n}x{k}");
            let (a, b) = (random(m, k, 1), random(k, n, 2));
            let mut out = Matrix::zeros(0, 0);
            let mut ws = Workspace::new();
            matmul_into(&a, &b, &mut out, &mut ws);
            assert_eq!(!ws.pack_b.is_empty(), copies_b, "matmul {what}");
            let mut ws = Workspace::new();
            transposed_matmul_into(&transpose(&a), &b, &mut out, &mut ws);
            assert_eq!(!ws.pack_b.is_empty(), copies_b, "transposed_matmul {what}");
            let mut ws = Workspace::new();
            matmul_transposed_into(&a, &transpose(&b), &mut out, &mut ws);
            assert!(!ws.pack_b.is_empty(), "matmul_transposed {what}");
        }
    }
}
