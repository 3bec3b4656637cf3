//! Determinism regression tests: the entire pipeline is a pure
//! function of its seed. The same seed must produce *bit-identical*
//! equilibrium strategies from `DbrSolver` and bit-identical ledger
//! state roots across two independent runs — the foundation every
//! reproducibility claim (and the `tradefl_runtime::check` replay
//! mechanism) rests on.

use tradefl::ledger::types::Hash256;
use tradefl::prelude::*;
use tradefl::solver::dbr::{DbrOptions, UpdateOrder};

fn game(seed: u64) -> CoopetitionGame<SqrtAccuracy> {
    let market = MarketConfig::table_ii().with_orgs(6).build(seed).unwrap();
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

/// Every per-block state root of the settlement chain for `seed`.
fn settlement_state_roots(seed: u64) -> Vec<Hash256> {
    let g = game(seed);
    let eq = DbrSolver::new().solve(&g).unwrap();
    let (engine, _) = Engine::settle(&g, &eq.profile, None).unwrap();
    engine.network().validator(0).node.chain().blocks().iter().map(|b| b.header.state_root).collect()
}

#[test]
fn dbr_equilibrium_is_bit_identical_across_runs() {
    for seed in [0, 7, 31337] {
        let a = DbrSolver::new().solve(&game(seed)).unwrap();
        let b = DbrSolver::new().solve(&game(seed)).unwrap();
        for (i, (sa, sb)) in a.profile.iter().zip(b.profile.iter()).enumerate() {
            // Bit-level equality, not approximate: `to_bits` also
            // distinguishes -0.0 from 0.0 and would catch any NaN.
            assert_eq!(sa.d.to_bits(), sb.d.to_bits(), "d differs at org {i} (seed {seed})");
            assert_eq!(sa.level, sb.level, "level differs at org {i} (seed {seed})");
        }
        assert_eq!(a.welfare.to_bits(), b.welfare.to_bits(), "welfare differs (seed {seed})");
    }
}

#[test]
fn dbr_shuffled_order_is_bit_identical_across_runs() {
    // The shuffled update order exercises the runtime RNG inside the
    // solver itself, not just in market construction.
    let opts = DbrOptions {
        order: UpdateOrder::Shuffled { seed: 99 },
        ..DbrOptions::default()
    };
    let a = DbrSolver::with_options(opts.clone()).solve(&game(5)).unwrap();
    let b = DbrSolver::with_options(opts).solve(&game(5)).unwrap();
    assert_eq!(a.profile, b.profile);
    assert_eq!(a.potential.to_bits(), b.potential.to_bits());
}

#[test]
fn ledger_state_roots_are_bit_identical_across_runs() {
    let a = settlement_state_roots(17);
    let b = settlement_state_roots(17);
    assert!(!a.is_empty(), "settlement mined at least one block");
    assert_eq!(a, b, "state roots must match block-for-block");
}

#[test]
fn cgbd_visited_set_is_bit_identical_across_runs() {
    // Covers the path rebuilt on an ordered collection (the
    // `no-hash-iteration` fix): CGBD's visited-assignment set
    // (solver/src/cgbd.rs) drives the master problem's
    // prefer-unvisited rule and must yield bit-identical results
    // run-to-run — with a HashSet a future order-dependent read would
    // be nondeterministic per process.
    use tradefl::solver::cgbd::CgbdSolver;

    for seed in [3, 19] {
        let a = CgbdSolver::new().solve(&game(seed)).unwrap();
        let b = CgbdSolver::new().solve(&game(seed)).unwrap();
        assert_eq!(a.gap.to_bits(), b.gap.to_bits(), "CGBD gap differs (seed {seed})");
        assert_eq!(a.trace.len(), b.trace.len(), "CGBD iteration count differs (seed {seed})");
        assert_eq!(
            a.equilibrium.potential.to_bits(),
            b.equilibrium.potential.to_bits(),
            "CGBD potential differs (seed {seed})"
        );
        for (sa, sb) in a.equilibrium.profile.iter().zip(b.equilibrium.profile.iter()) {
            assert_eq!(sa.d.to_bits(), sb.d.to_bits(), "CGBD d differs (seed {seed})");
            assert_eq!(sa.level, sb.level, "CGBD level differs (seed {seed})");
        }
    }
}

#[test]
fn different_seeds_change_the_equilibrium() {
    // Guards against a degenerate "determinism" where the seed is
    // ignored entirely.
    let a = DbrSolver::new().solve(&game(1)).unwrap();
    let b = DbrSolver::new().solve(&game(2)).unwrap();
    assert_ne!(a.profile, b.profile);
}

/// FNV-1a over a stream of words, each little-endian.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

// --- ρ goldens -------------------------------------------------------
//
// The constants below were recorded on the dense ρ layout, before ρ
// became CSR only. A CSR row visits stored entries only, so they pin
// that skipping ρ's zeros (the diagonal included) moves no bit of any
// mechanism sum, equilibrium or cached evaluator aggregate.

/// FNV-1a over a DBR equilibrium: the iteration count, each org's `d`
/// bits and level, then the welfare, potential and total damage bits.
fn equilibrium_fingerprint(eq: &Equilibrium) -> u64 {
    let profile = eq.profile.iter().flat_map(|s| [s.d.to_bits(), s.level as u64]);
    let totals = [eq.welfare, eq.potential, eq.total_damage].map(f64::to_bits);
    fnv1a(std::iter::once(eq.iterations as u64).chain(profile).chain(totals))
}

fn table_ii_game(config: MarketConfig, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
    CoopetitionGame::new(config.build(seed).unwrap(), SqrtAccuracy::paper_default())
}

#[test]
fn dbr_equilibria_match_their_golden_fingerprints() {
    for (n, seed, golden) in [(50, 3, 0x5a8c_dea9_9dd7_ae15), (300, 11, 0xf356_091e_cf78_f1ce)] {
        let g = table_ii_game(MarketConfig::table_ii().with_orgs(n), seed);
        let eq = DbrSolver::new().solve(&g).unwrap();
        let got = equilibrium_fingerprint(&eq);
        assert_eq!(got, golden, "n={n}: {got:#018x}");
    }
}

#[test]
fn incremental_aggregates_match_their_golden_fingerprint() {
    use tradefl_core::incremental::IncrementalEval;

    let g = table_ii_game(MarketConfig::table_ii().with_orgs(200), 5);
    let market = g.market();
    let mut eval = IncrementalEval::new(&g, StrategyProfile::minimal(market));
    let mut words = Vec::new();
    for i in 0..market.len() {
        let s = eval.profile()[i];
        words.extend([
            eval.rho_res(i),
            eval.payoff_at(i, s, eval.rho_res(i)),
            market.weight(i),
            market.competition_pressure(i),
        ]);
    }
    let aggregates =
        |e: &IncrementalEval<'_, SqrtAccuracy>| [e.potential(), e.total_damage(), e.omega()];
    words.extend(aggregates(&eval));
    eval.commit(7, Strategy::new(0.5, 1));
    words.extend(aggregates(&eval));
    words.extend((0..market.len()).map(|i| eval.rho_res(i)));
    let got = fnv1a(words.iter().map(|v| v.to_bits()));
    assert_eq!(got, 0x3971_3ea0_9280_8af5, "{got:#018x}");
}

#[test]
fn zero_rho_market_matches_its_golden_fingerprints() {
    // With ρ ≡ 0 every stored row is empty: each sum is an empty sum,
    // and only an accumulator started at +0.0 returns the +0.0 a dense
    // row reached through its diagonal (`f64: Sum` starts at −0.0).
    for (n, golden) in [(10, 0xe282_36de_c51f_63b3), (50, 0x842a_8c54_1233_193c)] {
        let g = table_ii_game(MarketConfig::table_ii().with_orgs(n).with_rho_mean(0.0), 2);
        let eq = DbrSolver::new().solve(&g).unwrap();
        let terms = (0..n).flat_map(|i| {
            [g.redistribution(&eq.profile, i), g.damage(&eq.profile, i)].map(f64::to_bits)
        });
        let got = fnv1a(terms.chain([equilibrium_fingerprint(&eq)]));
        assert_eq!(got, golden, "n={n}: {got:#018x}");
    }
}

/// FNV-1a over the CSR arrays of ρ: `row_ptr`, `cols`, then
/// the bit patterns of `vals`.
fn csr_fingerprint(rho: &tradefl_core::market::RhoMatrix) -> u64 {
    let tradefl_core::market::RhoMatrix { row_ptr, cols, vals, .. } = rho;
    fnv1a(
        row_ptr
            .iter()
            .chain(cols)
            .map(|&x| x as u64)
            .chain(vals.iter().map(|v| v.to_bits())),
    )
}

#[test]
fn build_sparse_matches_its_golden_fingerprint() {
    // Pins the ρ-sampling RNG stream and the stored entry order of
    // `build_sparse`; the constant was recorded before the sparse build
    // moved to linear passes, so any drift in either shows here.
    let market = MarketConfig::table_ii().with_orgs(2000).build_sparse(3, 0.01).unwrap();
    assert_eq!(csr_fingerprint(market.rho_matrix()), 0x309b_0e68_bee4_dfb6);
}

#[test]
fn build_sparse_at_the_tune_n10000_row_width_matches_its_golden_fingerprint() {
    // The row width `tradebench`'s tune_n10000 builds (N=10,000 at
    // density 0.01): ceil(0.02 · 4999) = 100 partners drawn per row, so
    // ~100 pairs land in each row's bucket, at half the orgs to keep the
    // debug build quick. The constant was recorded before the build
    // bucketed its pairs by row, skipped re-sorting sorted rows and
    // halved its transpose lookups.
    let market = MarketConfig::table_ii().with_orgs(5000).build_sparse(1, 0.02).unwrap();
    assert_eq!(csr_fingerprint(market.rho_matrix()), 0xd554_6d3d_cbe8_3704);
}

/// FNV-1a over a trained model's parameter bits, then each history
/// row's round, loss bits and accuracy bits.
fn training_fingerprint(model: &tradefl::fl::Mlp, history: &[tradefl::fl::RoundMetrics]) -> u64 {
    let params = model.to_params().into_iter().map(|p| u64::from(p.to_bits()));
    let rows = history.iter().flat_map(|m| {
        [m.round as u64, u64::from(m.loss.to_bits()), u64::from(m.accuracy.to_bits())]
    });
    fnv1a(params.chain(rows))
}

#[test]
fn sync_and_async_training_match_their_golden_fingerprints() {
    // Pins the local-SGD loop (shuffle, gather, step), the contributed
    // subset cut, the edge-group reduce, the async event loop and the
    // GEMM kernels' rounding, so any drift in either trainer shows here.
    use tradefl::fl::async_fed::{train_async, AsyncConfig, OrgTiming};
    use tradefl::fl::data::{generate, DatasetKind};
    use tradefl::fl::fed::train_federated_with;
    use tradefl::fl::model::{Mlp, ModelKind};

    // 40 silos span two edge groups, and their 4000 steps per round
    // clear the pool threshold, so the two workers really fan out.
    let silos = 40;
    let corpus = generate(DatasetKind::EurosatLike, silos * 100 + 200, 31);
    let mut sizes = vec![100; silos];
    sizes.push(200);
    let mut shards = corpus.shard(&sizes);
    let test = shards.pop().unwrap();
    let fractions: Vec<f64> = (0..silos).map(|i| (i % 5) as f64 / 4.0).collect();
    let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 7);
    let config = FedConfig { rounds: 2, local_epochs: 2, batch_size: 16, lr: 0.1, seed: 3 };
    let sync = train_federated_with(global.clone(), &shards, &test, &fractions, &config, &Pool::new(2))
        .unwrap();
    assert_eq!(training_fingerprint(&sync.model, &sync.history), 0x7b77_b00c_7578_9e1b);

    let timings: Vec<OrgTiming> =
        (0..3).map(|i| OrgTiming { comm: 2.0, compute: 5.0 + 7.0 * i as f64 }).collect();
    let config = AsyncConfig {
        updates: 12,
        local_epochs: 2,
        batch_size: 16,
        seed: 4,
        eval_every: 4,
        ..AsyncConfig::default()
    };
    let out = train_async(global, &shards[..3], &test, &[1.0, 0.5, 0.75], &timings, &config)
        .unwrap();
    assert_eq!(training_fingerprint(&out.model, &out.history), 0xf2e6_20e9_14a3_f706);
}

// --- shared-ρ γ rebuilds --------------------------------------------

#[test]
fn gamma_tuning_on_shared_rho_matches_fresh_builds_bitwise() {
    use tradefl::solver::tuning::{tune_gamma, TuneOptions};

    // `tune_gamma` rebuilds each candidate with `with_params`, which
    // shares the organizations and ρ instead of copying them; a market
    // drawn from scratch at the candidate γ must solve to the same bits.
    let (seed, density) = (4, 0.01);
    let config = MarketConfig::table_ii().with_orgs(1000);
    let market = config.clone().build_sparse(seed, density).unwrap();
    let params = market.params().clone();
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let options = TuneOptions { grid: 3, refine_iters: 1, ..TuneOptions::default() };
    let report = tune_gamma(&game, options).unwrap();
    assert!(report.samples.len() > 1);
    for sample in &report.samples {
        let fresh = config
            .clone()
            .with_params(params.with_gamma(sample.gamma))
            .build_sparse(seed, density)
            .unwrap();
        let fresh = CoopetitionGame::new(fresh, SqrtAccuracy::paper_default());
        let eq = DbrSolver::with_options(options.dbr).solve(&fresh).unwrap();
        assert_eq!(eq.welfare.to_bits(), sample.welfare.to_bits(), "gamma {:e}", sample.gamma);
    }
}

// --- CGBD table traversal -------------------------------------------

#[test]
fn table_master_traversal_agrees_with_the_reference() {
    use std::collections::BTreeSet;
    use tradefl::solver::gbd::{traverse_reference, traverse_tables, Cut, CutTables};

    let g = game(9); // 6 orgs → 4^6 = 4096 candidates
    let cuts = vec![
        Cut::optimality(&g, vec![0.2; 6], vec![0.0; 6]),
        Cut::optimality(&g, vec![0.5; 6], vec![0.05; 6]),
    ];
    let visited: BTreeSet<Vec<usize>> = BTreeSet::new();
    let reference = traverse_reference(&g, &cuts, &visited, 1 << 20).unwrap();
    let sol = traverse_tables(&g, &CutTables::build(&g, &cuts), &visited, 1 << 20).unwrap();
    // The table path may differ from the reference by reassociation
    // only — same argmin, matching value to solver precision.
    assert_eq!(sol.levels, reference.levels);
    assert!((sol.phi - reference.phi).abs() <= 1e-9 * reference.phi.abs().max(1.0));
}

// --- incremental CGBD bit-identity -----------------------------------

#[test]
fn incremental_cut_tables_match_scratch_rebuild_bitwise() {
    use tradefl::solver::gbd::{Cut, CutTables};

    let g = game(9);
    let specs: Vec<Cut> = vec![
        Cut::optimality(&g, vec![0.2; 6], vec![0.0; 6]),
        Cut::Feasibility { d: vec![0.01; 6], lambda: vec![1.0 / 6.0; 6] },
        Cut::optimality(&g, vec![0.5; 6], vec![0.05; 6]),
        Cut::optimality(&g, vec![0.9; 6], vec![0.01; 6]),
    ];
    let mut cuts: Vec<Cut> = Vec::new();
    let mut incremental = CutTables::new(&g);
    // Sample candidates across the 4^6 space.
    let candidates: Vec<Vec<usize>> =
        (0..64).map(|k| (0..6).map(|i| (k >> i) & 1).collect()).collect();
    for cut in specs {
        incremental.push_cut(&g, &cut);
        cuts.push(cut);
        let scratch = CutTables::build(&g, &cuts);
        assert_eq!(scratch.cut_count(), incremental.cut_count());
        for levels in &candidates {
            let (a, b) = (scratch.value(levels), incremental.value(levels));
            match (a, b) {
                (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits(), "at {levels:?}"),
                (None, None) => {}
                _ => panic!("feasibility verdict differs at {levels:?}"),
            }
        }
    }
}

#[test]
fn incremental_cgbd_master_is_bit_identical_to_scratch() {
    use std::collections::BTreeSet;
    use tradefl::solver::gbd::{traverse_tables, Cut, CutTables};

    let g = game(9); // 6 orgs → 4^6 = 4096 candidates
    let mut cuts: Vec<Cut> = Vec::new();
    let mut tables = CutTables::new(&g);
    let mut visited: BTreeSet<Vec<usize>> = BTreeSet::new();
    visited.insert(vec![3; 6]);
    for cut in [
        Cut::optimality(&g, vec![0.2; 6], vec![0.0; 6]),
        Cut::Feasibility { d: vec![0.01; 6], lambda: vec![1.0 / 6.0; 6] },
        Cut::optimality(&g, vec![0.5; 6], vec![0.05; 6]),
    ] {
        tables.push_cut(&g, &cut);
        cuts.push(cut);
        // The scratch rebuild is the pre-incremental (seed) behavior.
        let scratch =
            traverse_tables(&g, &CutTables::build(&g, &cuts), &visited, 1 << 20).unwrap();
        let inc = traverse_tables(&g, &tables, &visited, 1 << 20).unwrap();
        assert_eq!(inc.levels, scratch.levels);
        assert_eq!(inc.phi.to_bits(), scratch.phi.to_bits());
        assert_eq!(inc.fresh, scratch.fresh);
        assert_eq!(inc.evaluated, scratch.evaluated);
        visited.insert(inc.levels);
    }
}

// --- pooled-vs-serial bit-identity -----------------------------------
//
// A pool scope runs its tasks on up to `workers` threads, and DBR's
// trace-row chunks and FedAvg's group windows are both sized by the
// worker count, so these tests run each pooled hot path on explicit
// 1-, 4- and 8-worker pools and demand bit-identical outputs. Each
// fixture is large enough to clear its path's threshold
// (`POOLED_TRACE_MIN_ORGS` = 512 orgs; two edge groups and
// `POOLED_FED_MIN_STEPS` = 2048 steps per round), and every run checks
// through `pool.tasks_executed` that the pool really fanned out at 4
// and 8 workers and stayed inline at 1. (Explicit pools rather than
// the TRADEFL_THREADS override: the env var configures the
// process-wide global pool once, so a single test process cannot
// observe two settings of it — `thread_override` parsing is
// unit-tested in `tradefl_runtime::sync::pool` instead.)

use tradefl_runtime::obs;
use tradefl_runtime::sync::pool::Pool;

/// Runs `f` on a `workers`-wide pool under a local recorder and checks
/// that the pool handed tasks to its own threads exactly when it has
/// more than one worker. Returns `f`'s result and the event stream.
fn run_pooled<R>(workers: usize, f: impl FnOnce(&Pool) -> R) -> (R, String) {
    run_on_pool(workers, workers > 1, f)
}

/// [`run_pooled`] for a fixture that clears its pool gate only at some
/// sizes: the pool must hand tasks to its own threads exactly when
/// `fans_out`.
fn run_on_pool<R>(workers: usize, fans_out: bool, f: impl FnOnce(&Pool) -> R) -> (R, String) {
    let (out, snap) = obs::with_local(|| f(&Pool::new(workers)));
    let tasks = snap.counters.get("pool.tasks_executed").copied().unwrap_or(0);
    assert_eq!(tasks > 0, fans_out, "{tasks} pooled tasks at {workers} workers");
    (out, snap.events_jsonl())
}

/// Runs the 36-silo [`pooled_fedavg`] fixture plain and under a local
/// recorder. DESIGN.md §9: no call site does extra work while
/// recording, so the two models are bit-identical and FedAvg records
/// one `fed` `round` event per trained round and nothing per silo.
#[test]
fn recording_changes_no_fedavg_work() {
    let pool = Pool::new(2);
    let train = || pooled_fedavg(36, 80, &[1.0, 0.5, 0.8], 1, &pool);
    let plain = train();
    let (recorded, snap) = obs::with_local(train);
    assert_training_bit_identical(&[plain, recorded]);
    let fed: Vec<&str> = snap
        .events
        .iter()
        .filter(|e| e.subsystem == obs::Subsystem::Fed)
        .map(|e| e.name)
        .collect();
    assert_eq!(fed, ["round"; POOLED_FED_ROUNDS], "fed events of a recorded run");
}

/// A 512-org sparse market: the smallest DBR market whose payoff trace
/// row is split across the pool.
fn pooled_dbr_game() -> CoopetitionGame<SqrtAccuracy> {
    let market = MarketConfig::table_ii().with_orgs(512).build_sparse(9, 0.02).unwrap();
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

/// Rounds [`pooled_fedavg`] trains.
const POOLED_FED_ROUNDS: usize = 2;

/// Trains `silos` shards of `per_silo` samples, contributing
/// `fractions` (cycled), for [`POOLED_FED_ROUNDS`] rounds of
/// `local_epochs` on `pool`.
fn pooled_fedavg(
    silos: usize,
    per_silo: usize,
    fractions: &[f64],
    local_epochs: usize,
    pool: &Pool,
) -> tradefl::fl::FedOutcome {
    use tradefl::fl::data::{generate, DatasetKind};
    use tradefl::fl::fed::train_federated_with;
    use tradefl::fl::model::{Mlp, ModelKind};

    let all = generate(DatasetKind::EurosatLike, silos * per_silo + 200, 11);
    let mut sizes = vec![per_silo; silos];
    sizes.push(200);
    let mut shards = all.shard(&sizes);
    let test = shards.pop().unwrap();
    let fractions: Vec<f64> = fractions.iter().copied().cycle().take(silos).collect();
    let config =
        FedConfig { rounds: POOLED_FED_ROUNDS, local_epochs, batch_size: 32, lr: 0.1, seed: 5 };
    let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
    train_federated_with(global, &shards, &test, &fractions, &config, pool).unwrap()
}

/// Asserts every run's history and final model equal the first run's.
fn assert_training_bit_identical(runs: &[tradefl::fl::FedOutcome]) {
    for (i, out) in runs.iter().enumerate() {
        assert_eq!(out.history.len(), runs[0].history.len());
        for (m, m0) in out.history.iter().zip(&runs[0].history) {
            assert_eq!(
                m.loss.to_bits(),
                m0.loss.to_bits(),
                "round {} loss differs at worker count index {i}",
                m.round
            );
            assert_eq!(
                m.accuracy.to_bits(),
                m0.accuracy.to_bits(),
                "round {} accuracy differs at worker count index {i}",
                m.round
            );
        }
        assert_eq!(out.model, runs[0].model, "global model differs at worker count index {i}");
    }
}

#[test]
fn pooled_dbr_is_bit_identical_for_any_worker_count() {
    let g = pooled_dbr_game();
    let runs: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&w| run_pooled(w, |pool| DbrSolver::new().solve_with(&g, pool).unwrap()).0)
        .collect();
    for eq in &runs {
        assert_eq!(eq.profile, runs[0].profile, "DBR profile differs");
        assert_eq!(eq.welfare.to_bits(), runs[0].welfare.to_bits());
        assert_eq!(eq.iterations, runs[0].iterations);
        assert_eq!(eq.payoff_traces.len(), runs[0].payoff_traces.len());
        for (row, row0) in eq.payoff_traces.iter().zip(&runs[0].payoff_traces) {
            assert!(row.iter().zip(row0).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}

#[test]
fn pooled_tune_gamma_is_bit_identical_for_any_worker_count() {
    use tradefl::solver::tuning::{tune_gamma_with, TuneOptions};

    // 4 grid points, the golden-section pair and one refinement step:
    // the grid and the pair fan out at every width ≥ 2, and each
    // candidate's DBR `round` events are replayed in γ order.
    let market = MarketConfig::table_ii().with_orgs(1000).build_sparse(4, 0.01).unwrap();
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let options = TuneOptions { grid: 3, refine_iters: 1, ..TuneOptions::default() };
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| run_pooled(w, |pool| tune_gamma_with(&game, options, pool).unwrap()))
        .collect();
    let (report0, stream0) = &runs[0];
    assert_eq!(report0.samples.len(), 7);
    assert!(stream0.lines().any(|l| l.contains("\"sub\":\"dbr\"")), "no DBR events");
    for ((report, stream), width) in runs.iter().zip([1, 2, 4]) {
        let bits = |r: &tradefl::solver::tuning::TuneReport| {
            let samples = r.samples.iter().flat_map(|s| {
                [s.gamma.to_bits(), s.welfare.to_bits(), s.total_fraction.to_bits()]
            });
            samples.chain([r.gamma_star.to_bits(), r.welfare.to_bits()]).collect::<Vec<_>>()
        };
        assert_eq!(bits(report), bits(report0), "tuning differs at width {width}");
        assert_eq!(stream, stream0, "event stream differs at width {width}");
    }
}

#[test]
fn pooled_fedavg_is_bit_identical_for_any_worker_count() {
    // 36 silos span two edge groups; with the cycled fractions they
    // contribute 2208 samples, so one local epoch clears the
    // 2048-step threshold.
    let runs: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&w| run_pooled(w, |pool| pooled_fedavg(36, 80, &[1.0, 0.5, 0.8], 1, pool)).0)
        .collect();
    assert_training_bit_identical(&runs);
}

#[test]
fn blocked_kernel_training_is_bit_identical_above_the_pool_threshold() {
    // 33 silos × 32 samples × 2 local epochs = 2112 steps per round,
    // past the threshold, over two edge groups of unequal size (32 and
    // 1 silos), so the pool genuinely fans local training out — and
    // every GEMM underneath runs the tiled kernel (one FMA chain per
    // element and depth block, blocks added in ascending pc). Training
    // must still be bit-identical for 1, 4 and 8 workers.
    let runs: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&w| run_pooled(w, |pool| pooled_fedavg(33, 32, &[1.0], 2, pool)).0)
        .collect();
    assert_training_bit_identical(&runs);
}

#[test]
fn training_is_bit_identical_across_runs() {
    use tradefl::pipeline::{Pipeline, PipelineConfig};
    let a = Pipeline::new(PipelineConfig::quick()).run(21).unwrap();
    let b = Pipeline::new(PipelineConfig::quick()).run(21).unwrap();
    assert_eq!(
        a.training.final_accuracy().to_bits(),
        b.training.final_accuracy().to_bits(),
        "federated training must be seed-deterministic"
    );
    assert_eq!(a.settlement.onchain_redistribution, b.settlement.onchain_redistribution);
}

#[test]
fn event_streams_are_bit_identical_for_any_worker_count() {
    // The observability contract (DESIGN.md §9): events are emitted
    // only from sequential orchestration code, so the exported event
    // stream — logical-clock sequence numbers included — is the same
    // byte string no matter how many pool threads run underneath.
    // Metrics (the pool's task count etc.) legitimately depend on the
    // worker count and are excluded via `events_jsonl()`.
    let g = pooled_dbr_game();
    let streams: Vec<String> = [1usize, 4, 8]
        .iter()
        .map(|&w| {
            run_pooled(w, |pool| {
                DbrSolver::new().solve_with(&g, pool).unwrap();
                pooled_fedavg(36, 80, &[1.0, 0.5, 0.8], 1, pool);
            })
            .1
        })
        .collect();
    assert!(
        streams[0].lines().any(|l| l.contains("\"sub\":\"dbr\"")),
        "stream must actually contain solver events"
    );
    assert!(
        streams[0].lines().any(|l| l.contains("\"sub\":\"fed\"")),
        "stream must actually contain FL events"
    );
    for (i, s) in streams.iter().enumerate() {
        assert_eq!(s, &streams[0], "event stream differs for worker count run {i}");
    }
}

/// FNV-1a over a dataset's feature bits in row-major order, then its
/// labels.
fn dataset_fingerprint(data: &tradefl::fl::data::Dataset) -> u64 {
    let features = data.features.as_slice().iter().map(|x| u64::from(x.to_bits()));
    fnv1a(features.chain(data.labels.iter().map(|&l| l as u64)))
}

#[test]
fn generated_datasets_match_their_golden_fingerprints() {
    use tradefl::fl::data::{generate, DatasetKind};
    // Recorded on the one-pass serial generator, before its rows were
    // filled on the pool: 10007 rows clear the pool gate on any host
    // with two or more cores.
    let goldens = [
        (DatasetKind::Cifar10Like, 0x2ac1_ec2b_929d_e30d),
        (DatasetKind::FmnistLike, 0x8a1a_efe1_e464_2ae3),
        (DatasetKind::SvhnLike, 0xa3f7_3304_7dce_4f7b),
        (DatasetKind::EurosatLike, 0xebf2_57f0_a641_f88f),
    ];
    for (kind, want) in goldens {
        let got = dataset_fingerprint(&generate(kind, 10007, 42));
        assert_eq!(got, want, "{kind} drifted: got {got:#018x}");
    }
}

#[test]
fn pooled_generation_is_bit_identical_for_any_worker_count() {
    use tradefl::fl::data::{generate_with, DatasetKind, POOLED_GEN_MIN_ROWS};
    // 8191 rows stay on one task; 8192 and 10007 split into two chunks
    // at every width ≥ 2. The SVHN and CIFAR analogs draw a relabel
    // only for some rows, so their chunk starts sit at row-dependent
    // stream offsets.
    for kind in DatasetKind::ALL {
        for n in [3, 8191, 8192, 10007] {
            let fans_out = n >= 2 * POOLED_GEN_MIN_ROWS;
            let runs: Vec<_> = (1..=4)
                .map(|w| run_on_pool(w, w > 1 && fans_out, |p| generate_with(kind, n, 42, p)).0)
                .collect();
            let (f0, l0) = (runs[0].features.as_slice(), &runs[0].labels);
            for (data, width) in runs.iter().zip(1..) {
                let f = data.features.as_slice();
                let same_bits = f.len() == f0.len()
                    && f.iter().zip(f0).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same_bits, "{kind} n={n}: features differ at width {width}");
                assert_eq!(&data.labels, l0, "{kind} n={n}: labels differ at width {width}");
            }
        }
    }
}
