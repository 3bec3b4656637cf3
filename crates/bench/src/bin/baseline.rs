//! **baseline** — records, validates and gates the layer baselines in
//! `BENCH_baselines.json` (schema `tradefl-bench/v2`).
//!
//! The `registry` fn lists every row with its layer and the
//! closure that measures it; rows a bound compares are measured
//! together. The rows back the perf claims in README.md, DESIGN.md and
//! EXPERIMENTS.md:
//!
//! * **kernel** — the paper's GEMM layer shapes, naive vs cache-blocked,
//!   checked for agreement before anything is timed.
//! * **solver** — CGBD master traversal (reference odometer vs table
//!   scan), one DBR solve and one best response; DBR at N = 10 / 100 /
//!   1000 / 10 000 orgs (Theorem 2) with sparse-vs-dense bit agreement;
//!   CGBD with the traversal master at N = 2..5 (Lemma 4); the DESIGN.md
//!   §8 ablations.
//! * **fl** — FedAvg rounds at paper scale and at N = 10 / 100 / 1000
//!   silos, with the streaming reduce's buffer footprint.
//! * **engine** — the persistent market engine run to settlement on a
//!   single-, a multi- and a faulty multi-session workload.
//!
//! Every pool-gated row is timed serially and on a fixed pool of each
//! `WORKERS` count: its `X_1w_ms` field at one worker, its `X_ms`
//! field at two. The file records the host's `nproc` and the compiled
//! target features, so every speedup is read against its hardware.
//!
//! `--check` validates a file: schema and host metadata, positive
//! finite `_ms` medians, derived ratios consistent with their operands,
//! and, in a full-mode file, every cross-row `BOUNDS` entry (a
//! missing row fails). A `--fast` file has no N ≥ 1000 rows, so it is
//! held to the shape checks and the gate only.
//! `--gate` compares a fresh run against a committed file: no `_ms`
//! median both carry may grow past `GATE_TOLERANCE`×.
//!
//! Usage:
//!   baseline [--fast] [--out FILE] [--trace FILE]  # record, write, check
//!   baseline --check FILE                          # validate a file
//!   baseline --gate CURRENT COMMITTED              # regression gate
//!
//! Recording writes the file before checking it, so a broken bound
//! leaves the evidence on disk and exits 1. `--fast` only drops the
//! N ≥ 1000 rows; every other row keeps its instance size and repeat
//! count, so its medians gate like-for-like against the committed
//! full-mode file.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use tradefl_bench::timing::{median_ms, time_ms};
use tradefl_bench::SEED;
use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::market::{Market, RhoMatrix};
use tradefl_core::strategy::StrategyProfile;
use tradefl_engine::{Engine, EngineConfig, SessionSpec};
use tradefl_fl_sim::data::{generate, DatasetKind};
use tradefl_fl_sim::fed::{train_federated_with, FedConfig, EDGE_GROUP_SIZE};
use tradefl_fl_sim::linalg::{kernel, Matrix};
use tradefl_fl_sim::model::{Mlp, ModelKind};
use tradefl_runtime::json::Json;
use tradefl_runtime::rng::{Rng, SeedableRng, StdRng};
use tradefl_runtime::sim::faults::FaultConfig;
use tradefl_runtime::sync::pool::{host_parallelism, Pool};
use tradefl_solver::bestresponse::{best_response, Objective};
use tradefl_solver::cgbd::{CgbdOptions, CgbdSolver};
use tradefl_solver::dbr::{DbrOptions, DbrSolver, UpdateOrder};
use tradefl_solver::gbd::{
    solve_master, traverse_reference, traverse_tables, Cut, CutTables, MasterSearch,
};
use tradefl_solver::primal::PrimalProblem;

const SCHEMA: &str = "tradefl-bench/v2";
const DEFAULT_OUT: &str = "BENCH_baselines.json";
const USAGE: &str = "usage: baseline [--fast] [--out FILE] [--trace FILE]\n\
                     \x20      baseline --check FILE\n\
                     \x20      baseline --gate CURRENT COMMITTED";
/// The fixed pool sizes every pool-gated row is timed at.
const WORKERS: [usize; 2] = [1, 2];
/// Row layer tags, one per pipeline layer.
const LAYERS: [&str; 6] = ["kernel", "solver", "fl", "ledger", "engine", "e2e"];
/// Default multiplicative tolerance for [`gate`]: a freshly measured
/// median may be up to this many times the committed one. Deliberately
/// generous — the CI smoke run shares the host with the rest of the
/// gate and takes few repeats, so the gate catches order-of-magnitude
/// regressions, not percent-level drift.
const GATE_TOLERANCE: f64 = 3.0;

/// A row's recorded `(key, value)` pairs; keys ending in `_ms` are
/// medians (gated), the rest are counts and derived rates.
type Fields = Vec<(&'static str, f64)>;

/// One registry entry: rows measured together. A family of several
/// rows is timed interleaved, so a bound comparing them reads one host
/// state rather than two measurement windows.
struct Entry {
    layer: &'static str,
    /// Row names in file order, each flagged when only full mode records
    /// it (the N ≥ 1000 rows).
    rows: Vec<(String, bool)>,
    /// Measures the rows the mode keeps, in order; the flag is `--fast`.
    run: Box<dyn Fn(bool) -> Vec<Fields>>,
}

/// One recorded row.
struct Row {
    name: String,
    layer: &'static str,
    fields: Fields,
}

/// A single-row entry measured with `repeats` samples.
fn entry(
    name: impl Into<String>,
    layer: &'static str,
    full_only: bool,
    repeats: usize,
    run: impl Fn(usize) -> Fields + 'static,
) -> Entry {
    Entry {
        layer,
        rows: vec![(name.into(), full_only)],
        run: Box::new(move |_| vec![run(repeats)]),
    }
}

/// Every row, in file order.
fn registry() -> Vec<Entry> {
    let mut rows = Vec::new();
    for spec in SPECS {
        rows.push(entry(spec.name, "kernel", false, 15, move |r| bench_gemm(spec, r)));
    }
    rows.push(entry("cgbd_traversal", "solver", false, 15, bench_cgbd_traversal));
    rows.push(entry("dbr_solve", "solver", false, 15, bench_dbr_pooled));
    rows.push(entry("best_response", "solver", false, 15, bench_best_response));
    rows.push(Entry {
        layer: "solver",
        rows: [10, 100, 1000].map(|n| (format!("dbr_solve_n{n}"), n >= 1000)).into(),
        run: Box::new(|fast| {
            let sizes: &[usize] = if fast { &[10, 100] } else { &[10, 100, 1000] };
            bench_scaling(sizes, SEED, 15, |g| DbrSolver::new().solve(g).expect("dbr").iterations)
        }),
    });
    rows.push(entry("dbr_solve_n10000", "solver", true, 5, bench_dbr_sparse_10k));
    rows.push(entry("dbr_sparse_agreement_n1000", "solver", true, 3, bench_sparse_dense_agreement));
    rows.push(Entry {
        layer: "solver",
        rows: [2, 3, 4, 5].map(|n| (format!("cgbd_traversal_scaling_n{n}"), false)).into(),
        run: Box::new(|_| bench_scaling(&[2, 3, 4, 5], 7, 5, cgbd_iterations)),
    });
    rows.push(entry("master_problem", "solver", false, 15, bench_master_modes));
    rows.push(entry("primal_problem", "solver", false, 15, bench_primal_modes));
    rows.push(entry("dbr_update_order", "solver", false, 15, bench_dbr_orders));
    rows.push(entry("fedavg_round", "fl", false, 15, bench_fedavg_paper));
    for n in [10, 100, 1000] {
        rows.push(entry(format!("fedavg_round_n{n}"), "fl", n >= 1000, 5, move |r| {
            bench_fedavg(n, r)
        }));
    }
    for spec in ENGINE_SPECS {
        rows.push(entry(spec.name, "engine", false, 9, move |r| bench_engine(spec, r)));
    }
    rows
}

// --- timing helpers ---------------------------------------------------

/// Times a pool-gated path serially and on a fixed pool of each
/// [`WORKERS`] count, returning `[serial, 1 worker, 2 workers]` medians.
/// The serial form is the path's own entry point on a one-worker pool
/// (its pool gate falls back to inline code), so the serial and
/// 1-worker columns time the same code. The three are interleaved, so
/// host drift spreads over all of them instead of opening a fake gap
/// between identical code.
fn time_on_pools(repeats: usize, run: &dyn Fn(&Pool)) -> [f64; 3] {
    let serial = Pool::new(1);
    let pools = WORKERS.map(Pool::new);
    let ms = time_ms(
        repeats,
        &mut [&mut || run(&serial), &mut || run(&pools[0]), &mut || run(&pools[1])],
    );
    [ms[0], ms[1], ms[2]]
}

/// The `serial_ms` / `pooled_1w_ms` / `pooled_ms` / `speedup` columns.
fn pooled_fields([serial, one, two]: [f64; 3]) -> Fields {
    vec![
        ("serial_ms", serial),
        ("pooled_1w_ms", one),
        ("pooled_ms", two),
        ("speedup", serial / two),
    ]
}

fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
    let market = MarketConfig::table_ii().with_orgs(n).build(seed).expect("market builds");
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

// --- kernel rows ------------------------------------------------------

/// Which of the three kernel products a GEMM row exercises.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    /// `A · B` — forward passes.
    MatMul,
    /// `A · Bᵀ` — backprop delta through a layer's weights.
    MatMulTransposed,
    /// `Aᵀ · B` — weight gradients.
    TransposedMatMul,
}

/// One GEMM shape: `out` is `m × n` with inner dimension `k`.
struct Spec {
    name: &'static str,
    op: Op,
    m: usize,
    k: usize,
    n: usize,
    /// Zero ~half of the left operand, like post-ReLU activations —
    /// the case the naive kernel's exact-zero skip was tuned for.
    sparse: bool,
}

/// The paper's layer shapes (ResNet-analog 64→96→48→10 on the dim-64
/// datasets, MobileNet-analog 36→32→10 on EuroSAT-like; batch 32 for
/// training, 1500 test rows for evaluation).
#[rustfmt::skip]
const SPECS: &[Spec] = &[
    // Largest shape in any figure run: full-test-set evaluation through
    // the ResNet-analog's first layer; the >=3x blocked bar is on it.
    Spec { name: "eval_forward_1500x64x96", op: Op::MatMul, m: 1500, k: 64, n: 96, sparse: false },
    Spec { name: "train_forward_32x64x96", op: Op::MatMul, m: 32, k: 64, n: 96, sparse: false },
    Spec { name: "train_forward_32x36x32", op: Op::MatMul, m: 32, k: 36, n: 32, sparse: false },
    // Weight gradient dW = actsᵀ · delta for the 64→96 layer.
    Spec { name: "grad_weights_64x32x96", op: Op::TransposedMatMul, m: 64, k: 32, n: 96, sparse: false },
    // Backprop delta_prev = delta · Wᵀ through the 96→48 layer.
    Spec { name: "backprop_delta_32x48x96", op: Op::MatMulTransposed, m: 32, k: 48, n: 96, sparse: false },
    // The naive kernel's best case: ~50% exact zeros in the activations.
    Spec { name: "grad_weights_relu_sparse_64x32x96", op: Op::TransposedMatMul, m: 64, k: 32, n: 96, sparse: true },
];

/// Deterministic operand pair for a spec (values in `[-1, 1)`).
fn inputs(spec: &Spec, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6765_6d6d);
    let mut fill = |rows: usize, cols: usize, sparse: bool| {
        Matrix::from_fn(rows, cols, |_, _| {
            let v = rng.gen_range(-1.0..1.0) as f32;
            if sparse && rng.gen_bool(0.5) {
                0.0
            } else {
                v
            }
        })
    };
    match spec.op {
        Op::MatMul => (fill(spec.m, spec.k, spec.sparse), fill(spec.k, spec.n, false)),
        Op::MatMulTransposed => (fill(spec.m, spec.k, spec.sparse), fill(spec.n, spec.k, false)),
        Op::TransposedMatMul => (fill(spec.k, spec.m, spec.sparse), fill(spec.k, spec.n, false)),
    }
}

fn naive(op: Op, a: &Matrix, b: &Matrix) -> Matrix {
    match op {
        Op::MatMul => kernel::matmul_reference(a, b),
        Op::MatMulTransposed => kernel::matmul_transposed_reference(a, b),
        Op::TransposedMatMul => kernel::transposed_matmul_reference(a, b),
    }
}

fn blocked(op: Op, a: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut kernel::Workspace) {
    match op {
        Op::MatMul => kernel::matmul_into(a, b, out, ws),
        Op::MatMulTransposed => kernel::matmul_transposed_into(a, b, out, ws),
        Op::TransposedMatMul => kernel::transposed_matmul_into(a, b, out, ws),
    }
}

/// Asserts the blocked product agrees with the naive reference: same
/// product, different summation order, so a per-element ULP-scale bound.
fn assert_blocked_agrees(spec: &Spec, seed: u64) {
    let (a, b) = inputs(spec, seed);
    let want = naive(spec.op, &a, &b);
    let mut out = Matrix::zeros(0, 0);
    blocked(spec.op, &a, &b, &mut out, &mut kernel::Workspace::new());
    assert_eq!((out.rows(), out.cols()), (spec.m, spec.n), "{}", spec.name);
    let tol = 1e-5 * spec.k as f32;
    for r in 0..out.rows() {
        for (got, want) in out.row(r).iter().zip(want.row(r)) {
            assert!(
                (got - want).abs() <= tol * want.abs().max(1.0),
                "{}: blocked kernel disagrees with reference ({got} vs {want})",
                spec.name
            );
        }
    }
}

fn bench_gemm(spec: &Spec, repeats: usize) -> Fields {
    assert_blocked_agrees(spec, 42);
    let (a, b) = inputs(spec, 42);
    let mut ws = kernel::Workspace::new();
    let mut out = Matrix::zeros(0, 0);
    // Interleaved: the numbers are consumed as a ratio, and
    // interleaving keeps a slow host period from landing on one side
    // of it only.
    let ms = time_ms(
        repeats,
        &mut [
            &mut || {
                black_box(naive(spec.op, &a, &b));
            },
            &mut || blocked(spec.op, &a, &b, &mut out, &mut ws),
        ],
    );
    vec![
        ("m", spec.m as f64),
        ("k", spec.k as f64),
        ("n", spec.n as f64),
        ("naive_ms", ms[0]),
        ("blocked_ms", ms[1]),
        ("blocked_speedup", ms[0] / ms[1]),
    ]
}

// --- solver rows ------------------------------------------------------

/// A realistic mid-solve cut stack: several optimality anchors plus a
/// feasibility cut, like CGBD holds a few iterations in.
fn cut_stack(g: &CoopetitionGame<SqrtAccuracy>) -> Vec<Cut> {
    let n = g.market().len();
    let d_min = g.market().params().d_min;
    let mut cuts: Vec<Cut> = [0.1, 0.2, 0.35, 0.5, 0.7, 0.9]
        .into_iter()
        .enumerate()
        .map(|(k, d)| Cut::optimality(g, vec![d; n], vec![0.02 * k as f64; n]))
        .collect();
    cuts.push(Cut::Feasibility { d: vec![d_min; n], lambda: vec![1.0 / n as f64; n] });
    cuts
}

/// CGBD master traversal: the reference odometer scan against the scan
/// over per-cut lookup tables, both serial.
fn bench_cgbd_traversal(repeats: usize) -> Fields {
    let g = game(8, 7);
    let cuts = cut_stack(&g);
    let visited = BTreeSet::new();
    let cap = 1u128 << 40;
    let reference = traverse_reference(&g, &cuts, &visited, cap).expect("reference traversal");
    let tables = traverse_tables(&g, &CutTables::build(&g, &cuts), &visited, cap)
        .expect("table traversal");
    assert_eq!(reference.levels, tables.levels, "traversal paths disagree");
    assert!(
        (reference.phi - tables.phi).abs() <= 1e-9 * reference.phi.abs().max(1.0),
        "traversal phi mismatch: {} vs {}",
        reference.phi,
        tables.phi
    );
    let ms = time_ms(
        repeats,
        &mut [
            &mut || {
                black_box(traverse_reference(&g, &cuts, &visited, cap).expect("traversal"));
            },
            &mut || {
                let tables = CutTables::build(&g, &cuts);
                black_box(traverse_tables(&g, &tables, &visited, cap).expect("traversal"));
            },
        ],
    );
    vec![("serial_ms", ms[0]), ("tables_ms", ms[1]), ("tables_speedup", ms[0] / ms[1])]
}

/// Full DBR solve (Algorithm 2) on the paper-scale market; below every
/// pool threshold, so all three columns run the same inline code.
fn bench_dbr_pooled(repeats: usize) -> Fields {
    let g = game(10, 42);
    pooled_fields(time_on_pools(repeats, &|pool| {
        black_box(DbrSolver::new().solve_with(&g, pool).expect("dbr"));
    }))
}

/// One organization's best response at the minimal profile.
fn bench_best_response(repeats: usize) -> Fields {
    let g = game(10, 42);
    let profile = StrategyProfile::minimal(g.market());
    let ms = time_ms(
        repeats * 10,
        &mut [&mut || {
            black_box(best_response(&g, &profile, 0, Objective::Full).expect("br"));
        }],
    );
    vec![("serial_ms", ms[0])]
}

/// One solve per market size, timed interleaved because these rows are
/// compared with each other: a bound (DBR at N = 10 / 100 / 1000, whose
/// incremental evaluator keeps it sub-quadratic) or a complexity claim
/// (CGBD, Lemma 4). `solve` returns the iteration count.
fn bench_scaling(
    sizes: &[usize],
    seed: u64,
    repeats: usize,
    solve: impl Fn(&CoopetitionGame<SqrtAccuracy>) -> usize,
) -> Vec<Fields> {
    let games: Vec<_> = sizes.iter().map(|&n| game(n, seed)).collect();
    let solve = &solve;
    let mut runs: Vec<_> = games
        .iter()
        .map(|g| {
            move || {
                black_box(solve(g));
            }
        })
        .collect();
    let mut runs: Vec<&mut dyn FnMut()> = runs.iter_mut().map(|r| r as &mut dyn FnMut()).collect();
    let ms = time_ms(repeats, &mut runs);
    let rows = sizes.iter().zip(&games).zip(ms);
    rows.map(|((&n, g), solve_ms)| {
        vec![("solve_ms", solve_ms), ("orgs", n as f64), ("iterations", solve(g) as f64)]
    })
    .collect()
}

/// Share of off-diagonal ρ entries per org in the ten-thousand-org row.
const SPARSE_DENSITY: f64 = 0.01;

/// DBR on a ten-thousand-org market with a ~1%-dense CSR ρ (the dense
/// matrix alone would be 800 MB), timed interleaved with one γ rebuild
/// of the same market: the per-candidate overhead of a γ search.
fn bench_dbr_sparse_10k(repeats: usize) -> Fields {
    let n = 10_000;
    let market = MarketConfig::table_ii()
        .with_orgs(n)
        .build_sparse(SEED, SPARSE_DENSITY)
        .expect("sparse market builds");
    let (nnz, resident) = (market.rho_nnz(), market.rho_resident_bytes());
    let g = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let params = g.market().params();
    let candidate = params.with_gamma(2.0 * params.gamma);
    let mut iterations = 0usize;
    let ms = time_ms(
        repeats,
        &mut [
            &mut || {
                iterations = DbrSolver::new().solve(&g).expect("dbr converges").iterations;
            },
            &mut || {
                black_box(g.market().with_params(candidate.clone()).expect("rebuild"));
            },
        ],
    );
    vec![
        ("solve_ms", ms[0]),
        ("with_params_ms", ms[1]),
        ("orgs", n as f64),
        ("iterations", iterations as f64),
        ("rho_nnz", nnz as f64),
        ("rho_resident_bytes", resident as f64),
    ]
}

/// The same market solved on its dense ρ and on a CSR twin holding the
/// identical entries: sparse iteration moves where time goes, never a
/// bit of the equilibrium (`bit_identical`, see [`BOUNDS`]).
fn bench_sparse_dense_agreement(repeats: usize) -> Fields {
    let dense = MarketConfig::table_ii().with_orgs(1000).build(SEED).expect("market builds");
    let RhoMatrix::Dense(rows) = dense.rho_matrix() else {
        panic!("table_ii builds a dense rho");
    };
    let sparse_rho = RhoMatrix::from_dense_thresholded(rows, 0.0);
    let sparse_bytes = sparse_rho.resident_bytes();
    let dense_bytes = dense.rho_resident_bytes();
    let sparse = Market::with_rho(dense.orgs().to_vec(), sparse_rho, dense.params().clone())
        .expect("sparse twin builds");
    let game_dense = CoopetitionGame::new(dense, SqrtAccuracy::paper_default());
    let game_sparse = CoopetitionGame::new(sparse, SqrtAccuracy::paper_default());
    let mut run_dense = || {
        black_box(DbrSolver::new().solve(&game_dense).expect("dense dbr converges"));
    };
    let mut run_sparse = || {
        black_box(DbrSolver::new().solve(&game_sparse).expect("sparse dbr converges"));
    };
    let ms = time_ms(repeats, &mut [&mut run_dense, &mut run_sparse]);
    let eq_d = DbrSolver::new().solve(&game_dense).expect("dense dbr converges");
    let eq_s = DbrSolver::new().solve(&game_sparse).expect("sparse dbr converges");
    let identical = eq_d.welfare.to_bits() == eq_s.welfare.to_bits()
        && eq_d.potential.to_bits() == eq_s.potential.to_bits()
        && eq_d.iterations == eq_s.iterations
        && eq_d
            .profile
            .iter()
            .zip(eq_s.profile.iter())
            .all(|(a, b)| a.d.to_bits() == b.d.to_bits() && a.level == b.level);
    vec![
        ("dense_ms", ms[0]),
        ("sparse_ms", ms[1]),
        ("bit_identical", if identical { 1.0 } else { 0.0 }),
        ("dense_rho_bytes", dense_bytes as f64),
        ("sparse_rho_bytes", sparse_bytes as f64),
    ]
}

/// CGBD with the exhaustive traversal master: Lemma 4's `O(I·m^|N|)`,
/// exponential in `|N|`. Returns the iteration count.
fn cgbd_iterations(g: &CoopetitionGame<SqrtAccuracy>) -> usize {
    let solver = CgbdSolver::with_options(CgbdOptions {
        master: MasterSearch::Traversal { cap: 4_000_000 },
        max_iters: 20,
        ..CgbdOptions::default()
    });
    solver.solve(g).expect("cgbd solves").trace.len()
}

/// DESIGN.md §8 ablation: exhaustive master traversal (4^6 = 4096
/// combinations) vs coordinate descent with restarts.
fn bench_master_modes(repeats: usize) -> Fields {
    let g = game(6, 11);
    let sol = PrimalProblem::new(&g, &[3; 6]).solve(1e-9).expect("primal solves");
    let cuts = vec![
        Cut::optimality(&g, sol.d.clone(), sol.multipliers.clone()),
        Cut::optimality(&g, vec![0.2; 6], vec![0.0; 6]),
    ];
    let visited = BTreeSet::new();
    let descent = MasterSearch::CoordinateDescent { restarts: 8, max_sweeps: 20, seed: 1 };
    // Coordinate descent ignores the tables, so they are built outside
    // its timed closure; the traversal closure builds its own.
    let tables = CutTables::build(&g, &cuts);
    let ms = time_ms(
        repeats,
        &mut [
            &mut || {
                let tables = CutTables::build(&g, &cuts);
                black_box(traverse_tables(&g, &tables, &visited, 10_000).expect("master"));
            },
            &mut || {
                black_box(solve_master(&g, &cuts, &tables, descent, &visited).expect("master"));
            },
        ],
    );
    vec![("traversal_ms", ms[0]), ("coordinate_descent_ms", ms[1]), ("combos", 4096.0)]
}

/// DESIGN.md §8 ablation: interior-point vs projected-gradient primal.
fn bench_primal_modes(repeats: usize) -> Fields {
    let g = game(10, 11);
    let levels = [3; 10];
    let prob = PrimalProblem::new(&g, &levels);
    let ms = time_ms(
        repeats,
        &mut [
            &mut || {
                black_box(prob.solve(1e-9).expect("interior point").value);
            },
            &mut || {
                black_box(prob.solve_projected(1e-8, 20_000).expect("projected gradient").value);
            },
        ],
    );
    vec![("interior_point_ms", ms[0]), ("projected_gradient_ms", ms[1]), ("orgs", 10.0)]
}

/// DESIGN.md §8 ablation: DBR round-robin vs shuffled update order.
fn bench_dbr_orders(repeats: usize) -> Fields {
    let g = game(10, 11);
    let shuffled = DbrSolver::with_options(DbrOptions {
        order: UpdateOrder::Shuffled { seed: 3 },
        ..DbrOptions::default()
    });
    let ms = time_ms(
        repeats,
        &mut [
            &mut || {
                black_box(DbrSolver::new().solve(&g).expect("dbr").iterations);
            },
            &mut || {
                black_box(shuffled.solve(&g).expect("dbr").iterations);
            },
        ],
    );
    vec![("round_robin_ms", ms[0]), ("shuffled_ms", ms[1]), ("orgs", 10.0)]
}

// --- fl rows ----------------------------------------------------------

/// Two FedAvg rounds with per-silo local training at paper scale
/// (below the pool threshold, so all three columns run inline).
fn bench_fedavg_paper(repeats: usize) -> Fields {
    let (orgs, per_shard, test_n) = (4, 260, 400);
    let all = generate(DatasetKind::EurosatLike, per_shard * orgs + test_n, 11);
    let mut sizes = vec![per_shard; orgs];
    sizes.push(test_n);
    let mut shards = all.shard(&sizes);
    let test = shards.pop().expect("test shard");
    let fractions = vec![1.0; orgs];
    let config = FedConfig { rounds: 2, local_epochs: 1, batch_size: 32, lr: 0.1, seed: 1 };
    let mk = || Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
    pooled_fields(time_on_pools(repeats, &|pool| {
        let outcome = train_federated_with(mk(), &shards, &test, &fractions, &config, pool);
        black_box(outcome.expect("trains"));
    }))
}

/// Samples per silo in the scaled FedAvg rows: small enough that
/// N = 1000 stays affordable, large enough that its round crosses the
/// pool threshold (16 000 steps ≥ `POOLED_FED_MIN_STEPS`).
const SAMPLES_PER_SILO: usize = 16;

/// One hierarchical streaming FedAvg round over `n` silos. Its
/// `agg_buffer_bytes` — one f64 partial per active group slot plus the
/// global accumulator at two workers — is independent of `n`.
fn bench_fedavg(n: usize, repeats: usize) -> Fields {
    let corpus = generate(DatasetKind::EurosatLike, n * SAMPLES_PER_SILO + 256, SEED);
    let mut sizes = vec![SAMPLES_PER_SILO; n];
    sizes.push(256);
    let mut shards = corpus.shard(&sizes);
    let test = shards.pop().expect("test shard");
    let fractions = vec![1.0f64; n];
    let config = FedConfig { rounds: 1, local_epochs: 1, batch_size: 16, ..FedConfig::default() };
    let template = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 1);
    let [serial_ms, one, two] = time_on_pools(repeats, &|pool| {
        let outcome = train_federated_with(template.clone(), &shards, &test, &fractions, &config, pool)
            .expect("round trains");
        assert!(outcome.final_accuracy() >= 0.0);
    });
    let slots = WORKERS[1].min(n.div_ceil(EDGE_GROUP_SIZE)).max(1);
    vec![
        ("serial_ms", serial_ms),
        ("round_1w_ms", one),
        ("round_ms", two),
        ("silos", n as f64),
        ("rounds_per_sec", 1000.0 / two),
        ("agg_buffer_bytes", ((slots + 1) * template.param_count() * 8) as f64),
    ]
}

// --- engine rows ------------------------------------------------------

/// One engine workload shape.
struct EngineSpec {
    name: &'static str,
    sessions: usize,
    validators: usize,
    faulty: bool,
}

const ENGINE_SPECS: &[EngineSpec] = &[
    EngineSpec { name: "single_session_3v", sessions: 1, validators: 3, faulty: false },
    EngineSpec { name: "multi_session_4v", sessions: 3, validators: 4, faulty: false },
    EngineSpec { name: "multi_session_4v_faulty", sessions: 3, validators: 4, faulty: true },
];

const ENGINE_HORIZON: u64 = 1 << 10;

fn engine_config(spec: &EngineSpec) -> EngineConfig {
    EngineConfig {
        validators: spec.validators,
        sessions: (0..spec.sessions)
            .map(|s| SessionSpec {
                name: format!("bench-{s}"),
                orgs: 3 + s % 3,
                seed: SEED.wrapping_add(s as u64),
            })
            .collect(),
        batch_interval: 8,
        mean_arrival_gap: 3.0,
        admission_capacity: 32,
        horizon: ENGINE_HORIZON,
        faults: if spec.faulty {
            FaultConfig::from_seed(SEED, spec.validators, ENGINE_HORIZON)
        } else {
            FaultConfig::none()
        },
        ..EngineConfig::default()
    }
}

fn p99(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() as f64 * 0.99).ceil() as usize).clamp(1, samples.len());
    samples[idx - 1]
}

/// Boots the engine on `spec`, runs it to settlement and records setup
/// (plan solves + network boot), the run, the p99 of block-producing
/// steps and settlement transactions per second of run time. All three
/// timings are medians over the repeats; the p99 is taken within each
/// run first, so one host stall in one run cannot set it. Every run
/// must settle and converge before anything is recorded.
fn bench_engine(spec: &EngineSpec, repeats: usize) -> Fields {
    // The Fig. 3 script length per session.
    let txs: usize = (0..spec.sessions).map(|s| 4 * (3 + s % 3) + 2).sum();
    let (mut setup, mut run, mut round_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut blocks = 0u64;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let mut engine = Engine::new(engine_config(spec), SEED).expect("bench engine boots");
        setup.push(t0.elapsed().as_secs_f64() * 1e3);
        let mut rounds = Vec::new();
        let t0 = Instant::now();
        loop {
            let height = engine.height();
            let ts = Instant::now();
            let more = engine.step().expect("bench run completes");
            if engine.height() > height {
                rounds.push(ts.elapsed().as_secs_f64() * 1e3);
            }
            if !more {
                break;
            }
        }
        run.push(t0.elapsed().as_secs_f64() * 1e3);
        round_p99.push(p99(&mut rounds));
        let report = engine.report().expect("bench report");
        assert!(report.fully_settled(), "{}: workload must settle: {report:?}", spec.name);
        blocks = report.blocks;
    }
    let run_ms = median_ms(run);
    vec![
        ("sessions", spec.sessions as f64),
        ("validators", spec.validators as f64),
        ("blocks", blocks as f64),
        ("txs", txs as f64),
        ("setup_ms", median_ms(setup)),
        ("run_ms", run_ms),
        ("round_p99_ms", median_ms(round_p99)),
        ("settlements_per_sec", txs as f64 / (run_ms / 1e3)),
    ]
}

// --- the file: render, check, gate ------------------------------------

/// The SIMD target features this binary was compiled with.
fn target_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    macro_rules! probe {
        ($($feature:literal),*) => {
            $(if cfg!(target_feature = $feature) {
                features.push($feature);
            })*
        };
    }
    probe!("sse2", "sse4.2", "avx", "avx2", "fma", "avx512f", "neon");
    features
}

fn render_num(key: &str, v: f64) -> String {
    if !key.ends_with("_ms") && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

fn render(rows: &[Row], fast: bool) -> String {
    let features: Vec<String> = target_features().iter().map(|f| format!("\"{f}\"")).collect();
    let workers: Vec<String> = WORKERS.iter().map(usize::to_string).collect();
    let mut out = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{}\",\n  \"host\": {{\"nproc\": {}, \
         \"target_features\": [{}], \"workers\": [{}]}},\n  \"benches\": [\n",
        if fast { "fast" } else { "full" },
        host_parallelism(),
        features.join(", "),
        workers.join(", "),
    );
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{}\", \"layer\": \"{}\"", row.name, row.layer));
        for (key, value) in &row.fields {
            out.push_str(&format!(", \"{key}\": {}", render_num(key, *value)));
        }
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Derived fields and their operands: `derived ≈ scale · num / den`.
const RATIOS: &[(&str, &str, &str, f64)] = &[
    ("speedup", "serial_ms", "pooled_ms", 1.0),
    ("tables_speedup", "serial_ms", "tables_ms", 1.0),
    ("blocked_speedup", "naive_ms", "blocked_ms", 1.0),
    ("settlements_per_sec", "txs", "run_ms", 1e3),
];

/// A cross-row acceptance bound on `row.field`.
struct Bound {
    row: &'static str,
    field: &'static str,
    limit: Limit,
    /// What a violation means.
    why: &'static str,
}

enum Limit {
    /// At most `factor ×` the same field of another row.
    TimesRow(&'static str, f64),
    /// At most `factor ×` another field of the same row.
    TimesField(&'static str, f64),
    AtMost(f64),
    AtLeast(f64),
    Exactly(f64),
}

/// The acceptance bounds every full-mode file must meet.
const BOUNDS: &[Bound] = &[
    // The sweep is O(N log N) plus one tiny O(N²) trace row per round:
    // 10x the orgs must cost well under a quadratic sweep's ~100x.
    Bound {
        row: "dbr_solve_n1000",
        field: "solve_ms",
        limit: Limit::TimesRow("dbr_solve_n100", 20.0),
        why: "the DBR sweep is no longer sub-quadratic",
    },
    // 10x the orgs at ~2x the stored entries must stay well under
    // quadratic.
    Bound {
        row: "dbr_solve_n10000",
        field: "solve_ms",
        limit: Limit::TimesRow("dbr_solve_n1000", 25.0),
        why: "the sparse sweep is no longer scaling in stored entries",
    },
    // A γ candidate shares the market's organizations and ρ; only the
    // O(N + nnz) parameter checks run, a small share of one solve.
    Bound {
        row: "dbr_solve_n10000",
        field: "with_params_ms",
        limit: Limit::TimesField("solve_ms", 0.25),
        why: "a gamma rebuild copies or re-validates the market again",
    },
    Bound {
        row: "dbr_solve_n10000",
        field: "rho_resident_bytes",
        limit: Limit::AtMost((100 * 1024 * 1024) as f64),
        why: "the sparse rho representation has regressed toward dense (100 MB cap)",
    },
    Bound {
        row: "dbr_sparse_agreement_n1000",
        field: "bit_identical",
        limit: Limit::Exactly(1.0),
        why: "sparse and dense equilibria are no longer bit-identical",
    },
    Bound {
        row: "eval_forward_1500x64x96",
        field: "blocked_speedup",
        limit: Limit::AtLeast(3.0),
        why: "the blocked GEMM kernel lost its 3x cache-blocking win",
    },
];

fn num(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_num)
}

/// A document's `benches` rows (empty when absent).
fn benches(doc: &Json) -> &[Json] {
    doc.get("benches").and_then(Json::as_arr).unwrap_or_default()
}

fn find<'a>(rows: &'a [Json], name: &str) -> Option<&'a Json> {
    rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name))
}

/// Validates one row; returns its name.
fn check_row(i: usize, row: &Json) -> Result<&str, String> {
    let fields = row.as_obj().ok_or_else(|| format!("bench {i}: not an object"))?;
    let name = row
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("bench {i}: missing \"name\""))?;
    let fail = |e: String| format!("bench '{name}': {e}");
    let layer =
        row.get("layer").and_then(Json::as_str).ok_or_else(|| fail("missing \"layer\"".into()))?;
    if !LAYERS.contains(&layer) {
        return Err(fail(format!("unknown layer '{layer}'")));
    }
    let mut timed = 0usize;
    for (key, value) in fields {
        if key == "name" || key == "layer" {
            continue;
        }
        let v = value
            .as_num()
            .filter(|v| v.is_finite())
            .ok_or_else(|| fail(format!("\"{key}\" is not a finite number")))?;
        if key.ends_with("_ms") {
            if v <= 0.0 {
                return Err(fail(format!("\"{key}\" = {v} not positive")));
            }
            timed += 1;
        } else if v < 0.0 {
            return Err(fail(format!("\"{key}\" = {v} is negative")));
        }
        if let Some(base) = key.strip_suffix("_1w_ms") {
            if row.get(&format!("{base}_ms")).is_none() {
                return Err(fail(format!("\"{key}\" has no 2-worker twin \"{base}_ms\"")));
            }
        }
    }
    if timed == 0 {
        return Err(fail("no \"_ms\" field".into()));
    }
    for &(derived, numer, denom, scale) in RATIOS {
        let Some(got) = num(row, derived) else { continue };
        let operand = |key: &str| {
            num(row, key)
                .ok_or_else(|| fail(format!("\"{derived}\" without its operand \"{key}\"")))
        };
        let implied = scale * operand(numer)? / operand(denom)?;
        if (implied - got).abs() > 0.05 * implied.abs().max(1.0) {
            return Err(fail(format!("\"{derived}\" = {got} inconsistent with {implied:.3}")));
        }
    }
    if let (Some(p99), Some(run)) = (num(row, "round_p99_ms"), num(row, "run_ms")) {
        if p99 > run {
            return Err(fail(format!("round_p99_ms {p99} exceeds run_ms {run}")));
        }
    }
    Ok(name)
}

/// Checks one bound; a row it reads must be present.
fn check_bound(bound: &Bound, rows: &[Json]) -> Result<(), String> {
    let value_of = |name: &str, field: &str| {
        let row = find(rows, name).ok_or_else(|| {
            format!("row '{name}' missing: the bound on {}.{} needs it", bound.row, bound.field)
        })?;
        num(row, field).ok_or_else(|| format!("bench '{name}': missing \"{field}\""))
    };
    let value = value_of(bound.row, bound.field)?;
    let (ok, limit) = match bound.limit {
        Limit::TimesRow(other, factor) => {
            let base = value_of(other, bound.field)?;
            (value <= factor * base, format!("at most {factor}x {other}'s {base}"))
        }
        Limit::TimesField(other, factor) => {
            let base = value_of(bound.row, other)?;
            (value <= factor * base, format!("at most {factor}x its {other} {base}"))
        }
        Limit::AtMost(max) => (value <= max, format!("at most {max}")),
        Limit::AtLeast(min) => (value >= min, format!("at least {min}")),
        Limit::Exactly(want) => (value == want, format!("exactly {want}")),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{}.{} = {value} is not {limit}: {}", bound.row, bound.field, bound.why))
    }
}

/// Validates a `tradefl-bench/v2` file; returns its row count.
fn check(text: &str) -> Result<usize, String> {
    let root = Json::parse(text)?;
    let schema = root.get("schema").and_then(Json::as_str).ok_or("missing \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("schema '{schema}' != '{SCHEMA}'"));
    }
    let full = match root.get("mode").and_then(Json::as_str) {
        Some("full") => true,
        Some("fast") => false,
        _ => return Err("\"mode\" must be \"full\" or \"fast\"".into()),
    };
    let host = root.get("host").ok_or("missing \"host\" object")?;
    if !num(host, "nproc").is_some_and(|n| n >= 1.0) {
        return Err("host: \"nproc\" must be a number >= 1".into());
    }
    let features = host.get("target_features").and_then(Json::as_arr);
    if !features.is_some_and(|f| f.iter().all(|x| x.as_str().is_some())) {
        return Err("host: \"target_features\" must be an array of strings".into());
    }
    let workers = host.get("workers").and_then(Json::as_arr).unwrap_or_default();
    if !workers.iter().map(Json::as_num).eq(WORKERS.iter().map(|&w| Some(w as f64))) {
        return Err(format!("host: \"workers\" must be {WORKERS:?}"));
    }
    let benches = benches(&root);
    if benches.is_empty() {
        return Err("missing or empty \"benches\" array".into());
    }
    let mut names = BTreeSet::new();
    for (i, row) in benches.iter().enumerate() {
        let name = check_row(i, row)?;
        if !names.insert(name) {
            return Err(format!("bench '{name}' appears twice"));
        }
    }
    // The bounds are acceptance criteria on the committed full
    // recording; a `--fast` smoke file lacks the N >= 1000 rows and is
    // held to the shape checks above and to the gate.
    if full {
        for bound in BOUNDS {
            check_bound(bound, benches)?;
        }
    }
    Ok(benches.len())
}

/// Compares a fresh file (`current`) against a committed one: rows are
/// matched by `name`, and every `_ms` median both rows carry may be at
/// most `tolerance ×` the committed one. Rows or fields on one side
/// only are skipped (fast mode drops rows), but an empty comparison is
/// an error, so the gate can never pass vacuously. Returns the number
/// of `(row, field)` pairs compared.
fn gate(current: &str, committed: &str, tolerance: f64) -> Result<usize, String> {
    let cur = Json::parse(current).map_err(|e| format!("current baseline: {e}"))?;
    let com = Json::parse(committed).map_err(|e| format!("committed baseline: {e}"))?;
    let cur_schema = cur.get("schema").and_then(Json::as_str).unwrap_or_default();
    let com_schema = com.get("schema").and_then(Json::as_str).unwrap_or_default();
    if cur_schema != com_schema {
        return Err(format!("schema mismatch: '{cur_schema}' vs '{com_schema}'"));
    }
    let mut compared = 0usize;
    let mut violations = Vec::new();
    for com_row in benches(&com) {
        let Some(name) = com_row.get("name").and_then(Json::as_str) else { continue };
        let Some(cur_row) = find(benches(&cur), name) else { continue };
        for (key, value) in com_row.as_obj().unwrap_or_default() {
            let (true, Some(com_ms), Some(cur_ms)) =
                (key.ends_with("_ms"), value.as_num(), num(cur_row, key))
            else {
                continue;
            };
            compared += 1;
            if cur_ms > tolerance * com_ms {
                violations.push(format!(
                    "{name}.{key}: {cur_ms:.3} ms exceeds {tolerance}x committed {com_ms:.3} ms"
                ));
            }
        }
    }
    if !violations.is_empty() {
        return Err(violations.join("; "));
    }
    if compared == 0 {
        return Err("no comparable (bench, field) pairs — the gate would be vacuous".into());
    }
    Ok(compared)
}

// --- CLI --------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Command {
    Record { fast: bool, out: String },
    Check(String),
    Gate(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut fast, mut out, mut check, mut gate) = (false, DEFAULT_OUT.to_string(), None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--fast" => fast = true,
            "--out" => out = value("--out")?,
            "--check" => check = Some(value("--check")?),
            "--gate" => gate = Some((value("--gate CURRENT")?, value("--gate COMMITTED")?)),
            // Armed by `trace_from_args`; only its value is consumed here.
            "--trace" => drop(value("--trace")?),
            flag if flag.starts_with("--trace=") => {}
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(match (gate, check) {
        (Some((current, committed)), _) => Command::Gate(current, committed),
        (None, Some(path)) => Command::Check(path),
        (None, None) => Command::Record { fast, out },
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn record(fast: bool, out: &str) -> Result<usize, String> {
    let mut rows = Vec::new();
    for Entry { layer, rows: names, run } in registry() {
        let kept = names.into_iter().filter(|(_, full_only)| !(fast && *full_only));
        for ((name, _), fields) in kept.zip(run(fast)) {
            let shown: Vec<String> =
                fields.iter().map(|(k, v)| format!("{k} {}", render_num(k, *v))).collect();
            println!("  {name:<34} {}", shown.join("  "));
            rows.push(Row { name, layer, fields });
        }
    }
    let json = render(&rows, fast);
    std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    check(&json)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("baseline: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _trace = tradefl_bench::trace_from_args();
    let (what, result) = match &command {
        Command::Gate(current, committed) => (
            format!("--gate {current} vs {committed}"),
            read(current)
                .and_then(|cur| gate(&cur, &read(committed)?, GATE_TOLERANCE))
                .map(|n| format!("{n} medians within {GATE_TOLERANCE}x")),
        ),
        Command::Check(path) => (
            format!("--check {path}"),
            read(path).and_then(|text| check(&text)).map(|n| format!("{n} rows")),
        ),
        Command::Record { fast, out } => {
            (out.clone(), record(*fast, out).map(|n| format!("{n} rows checked")))
        }
    };
    match result {
        Ok(summary) => {
            println!("baseline {what}: OK ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("baseline {what}: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn row(name: &str, layer: &'static str, fields: &[(&'static str, f64)]) -> Row {
        Row { name: name.into(), layer, fields: fields.to_vec() }
    }

    /// A minimal full-mode document carrying every bounded row.
    #[rustfmt::skip]
    fn full_rows() -> Vec<Row> {
        vec![
            row("eval_forward_1500x64x96", "kernel", &[
                ("m", 1500.0), ("k", 64.0), ("n", 96.0), ("naive_ms", 1.0), ("blocked_ms", 0.2),
                ("blocked_speedup", 5.0),
            ]),
            row("dbr_solve", "solver", &[
                ("serial_ms", 0.08), ("pooled_1w_ms", 0.08), ("pooled_ms", 0.08), ("speedup", 1.0),
            ]),
            row("dbr_solve_n100", "solver", &[("solve_ms", 2.0), ("orgs", 100.0)]),
            row("dbr_solve_n1000", "solver", &[("solve_ms", 30.0), ("orgs", 1000.0)]),
            row("dbr_solve_n10000", "solver", &[
                ("solve_ms", 200.0), ("with_params_ms", 20.0), ("rho_nnz", 2e6),
                ("rho_resident_bytes", 33e6),
            ]),
            row("dbr_sparse_agreement_n1000", "solver", &[
                ("dense_ms", 3.0), ("sparse_ms", 2.5), ("bit_identical", 1.0),
            ]),
            row("multi_session_4v", "engine", &[
                ("txs", 54.0), ("setup_ms", 0.2), ("run_ms", 6.0), ("round_p99_ms", 0.8),
                ("settlements_per_sec", 9000.0),
            ]),
        ]
    }

    fn set(rows: &mut [Row], name: &str, key: &str, value: f64) {
        let row = rows.iter_mut().find(|r| r.name == name).expect("row exists");
        row.fields.iter_mut().find(|(k, _)| *k == key).expect("field exists").1 = value;
    }

    #[test]
    fn checker_accepts_emitted_documents() {
        assert_eq!(check(&render(&full_rows(), false)), Ok(7));
        // A fast-mode file may drop the N >= 1000 rows the bounds read,
        // and is not held to the bounds.
        let mut fast: Vec<Row> =
            full_rows().into_iter().filter(|r| !r.name.contains("n10")).collect();
        set(&mut fast, "eval_forward_1500x64x96", "naive_ms", 0.5);
        set(&mut fast, "eval_forward_1500x64x96", "blocked_speedup", 2.5);
        assert_eq!(check(&render(&fast, true)), Ok(3));
    }

    #[test]
    #[rustfmt::skip]
    fn every_bound_has_a_failing_document() {
        type Mutate = fn(&mut Vec<Row>);
        let cases: &[(&str, Mutate, &str)] = &[
            ("20x", |r| set(r, "dbr_solve_n1000", "solve_ms", 41.0), "sub-quadratic"),
            ("25x", |r| set(r, "dbr_solve_n10000", "solve_ms", 751.0), "stored entries"),
            ("rho cap", |r| set(r, "dbr_solve_n10000", "rho_resident_bytes", 105e6), "toward dense"),
            ("gamma rebuild", |r| set(r, "dbr_solve_n10000", "with_params_ms", 1000.0), "gamma rebuild"),
            ("bit identity", |r| set(r, "dbr_sparse_agreement_n1000", "bit_identical", 0.0), "bit-identical"),
            (
                "3x gemm",
                |r| {
                    set(r, "eval_forward_1500x64x96", "naive_ms", 0.5);
                    set(r, "eval_forward_1500x64x96", "blocked_speedup", 2.5);
                },
                "cache-blocking",
            ),
            ("positive _ms", |r| set(r, "dbr_sparse_agreement_n1000", "dense_ms", 0.0), "not positive"),
            ("negative count", |r| set(r, "dbr_solve_n100", "orgs", -1.0), "negative"),
            ("missing operand row", |r| r.retain(|x| x.name != "dbr_solve_n100"), "missing: the bound"),
            ("missing bounded row", |r| r.retain(|x| x.name != "dbr_sparse_agreement_n1000"), "missing: the bound"),
            ("missing bounded field", |r| r[5].fields.retain(|(k, _)| *k != "bit_identical"), "missing \"bit_identical\""),
            ("1-worker twin", |r| r[1].fields.retain(|(k, _)| *k != "pooled_ms" && *k != "speedup"), "2-worker twin"),
            ("ratio", |r| set(r, "dbr_solve", "speedup", 3.0), "inconsistent"),
            ("settlement rate", |r| set(r, "multi_session_4v", "settlements_per_sec", 1.0), "inconsistent"),
            ("p99", |r| set(r, "multi_session_4v", "round_p99_ms", 7.0), "exceeds run_ms"),
            ("layer", |r| r[0].layer = "gpu", "unknown layer"),
            ("duplicate row", |r| r.push(row("dbr_solve_n100", "solver", &[("solve_ms", 1.0)])), "appears twice"),
        ];
        for (what, mutate, needle) in cases {
            let mut rows = full_rows();
            mutate(&mut rows);
            let err = check(&render(&rows, false)).expect_err(what);
            assert!(err.contains(needle), "{what}: {err}");
        }
    }

    #[test]
    fn checker_rejects_garbage_and_old_schemas() {
        let good = render(&full_rows(), false);
        for (bad, needle) in [
            ("not json".to_string(), "expected"),
            ("[".repeat(100_000), "nesting deeper"),
            (good.replace(SCHEMA, "tradefl-bench-scale/v1"), "schema"),
            (good.replace("\"full\"", "\"quick\""), "mode"),
            (good.replace("\"workers\": [1, 2]", "\"workers\": [4]"), "workers"),
            (good.replace("\"nproc\"", "\"cores\""), "nproc"),
            (good.replace("\"naive_ms\": 1.0000", "\"naive_ms\": 1e999"), "not a finite number"),
            (
                good.replace("\"layer\": \"kernel\"", "\"layer\": \"kernel\", \"layer\": \"fl\""),
                "duplicate key",
            ),
        ] {
            let err = check(&bad).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    fn doc(rows: &str) -> String {
        format!("{{\"schema\": \"s/v2\", \"benches\": [{rows}]}}")
    }

    #[test]
    fn gate_passes_within_tolerance_and_counts_pairs() {
        let committed =
            doc("{\"name\": \"a\", \"serial_ms\": 10.0, \"pooled_ms\": 4.0, \"speedup\": 2.5}, \
             {\"name\": \"b\", \"serial_ms\": 1.0}");
        let current =
            doc("{\"name\": \"a\", \"serial_ms\": 25.0, \"pooled_ms\": 2.0, \"speedup\": 12.5}, \
             {\"name\": \"b\", \"serial_ms\": 2.9}");
        // The non-`_ms` speedup is ignored even though it blew up.
        assert_eq!(gate(&current, &committed, GATE_TOLERANCE), Ok(3));
    }

    #[test]
    fn gate_fails_on_a_regression_and_names_the_field() {
        let committed = doc("{\"name\": \"a\", \"serial_ms\": 1.0, \"pooled_ms\": 1.0}");
        let current = doc("{\"name\": \"a\", \"serial_ms\": 1.5, \"pooled_ms\": 40.0}");
        let err = gate(&current, &committed, GATE_TOLERANCE).unwrap_err();
        assert!(err.contains("a.pooled_ms") && !err.contains("serial_ms"), "{err}");
    }

    #[test]
    fn gate_skips_one_sided_rows_but_rejects_a_vacuous_comparison() {
        let committed = doc("{\"name\": \"kept\", \"serial_ms\": 1.0, \"extra_ms\": 1.0}, \
             {\"name\": \"retired\", \"serial_ms\": 1.0}");
        let current = doc("{\"name\": \"kept\", \"serial_ms\": 1.0}");
        assert_eq!(gate(&current, &committed, GATE_TOLERANCE), Ok(1));
        let disjoint = doc("{\"name\": \"new\", \"serial_ms\": 1.0}");
        let err = gate(&disjoint, &committed, GATE_TOLERANCE).unwrap_err();
        assert!(err.contains("vacuous"), "{err}");
    }

    #[test]
    fn gate_rejects_schema_mismatch_and_garbage() {
        let a = doc("{\"name\": \"x\", \"serial_ms\": 1.0}");
        let other =
            "{\"schema\": \"other/v2\", \"benches\": [{\"name\": \"x\", \"serial_ms\": 1.0}]}";
        assert!(gate(&a, other, GATE_TOLERANCE).unwrap_err().contains("schema mismatch"));
        assert!(gate("nope", &a, GATE_TOLERANCE).is_err());
        assert!(gate(&a, "nope", GATE_TOLERANCE).is_err());
    }

    #[test]
    fn cli_parses_every_flag() {
        assert_eq!(
            parse_args(&args(&[])),
            Ok(Command::Record { fast: false, out: DEFAULT_OUT.into() })
        );
        assert_eq!(
            parse_args(&args(&["--fast", "--out", "x.json", "--trace", "t.jsonl"])),
            Ok(Command::Record { fast: true, out: "x.json".into() })
        );
        assert_eq!(parse_args(&args(&["--check", "f"])), Ok(Command::Check("f".into())));
        assert_eq!(
            parse_args(&args(&["--gate", "a", "b"])),
            Ok(Command::Gate("a".into(), "b".into()))
        );
        // Bad command lines (exit 2 with usage) are covered end to end by
        // tests/baseline_cli.rs.
    }

    #[test]
    fn registry_keeps_every_committed_row_name_once() {
        let names: Vec<String> =
            registry().into_iter().flat_map(|e| e.rows).map(|(name, _)| name).collect();
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate row names");
        for bound in BOUNDS {
            assert!(names.iter().any(|n| n == bound.row), "{} not registered", bound.row);
        }
        for old in [
            "cgbd_traversal",
            "dbr_solve",
            "best_response",
            "fedavg_round",
            "eval_forward_1500x64x96",
            "train_forward_32x64x96",
            "train_forward_32x36x32",
            "grad_weights_64x32x96",
            "backprop_delta_32x48x96",
            "grad_weights_relu_sparse_64x32x96",
            "dbr_solve_n10",
            "dbr_solve_n100",
            "dbr_solve_n1000",
            "dbr_solve_n10000",
            "dbr_sparse_agreement_n1000",
            "fedavg_round_n10",
            "fedavg_round_n100",
            "fedavg_round_n1000",
            "single_session_3v",
            "multi_session_4v",
            "multi_session_4v_faulty",
        ] {
            assert!(names.iter().any(|n| n == old), "{old} dropped from the registry");
        }
    }

    #[test]
    fn every_spec_agrees_with_the_reference() {
        for spec in SPECS {
            assert_blocked_agrees(spec, 7);
        }
    }

    #[test]
    fn p99_is_order_insensitive_and_bounded() {
        assert_eq!(p99(&mut [3.0, 1.0, 2.0]), 3.0);
        let mut b: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p99(&mut b), 198.0);
        assert_eq!(p99(&mut [7.0]), 7.0);
    }
}
