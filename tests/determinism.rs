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
    let session = SettlementSession::deploy(&g).unwrap();
    session.settle(&g, &eq.profile).unwrap();
    session.web3().with_node(|node| {
        node.chain().blocks().iter().map(|b| b.header.state_root).collect()
    })
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

// --- sparse-vs-dense ρ bit-identity ----------------------------------
//
// A sparse ρ row iterates stored entries only; the dense reference
// visits every column including exact zeros. Adding ±0.0 to a non-−0.0
// accumulator is a bitwise no-op, so every mechanism sum — and
// therefore every equilibrium — must be bit-identical across the two
// representations when the stored values match.

/// Dense market at `n` orgs plus its zero-thresholded sparse twin.
fn dense_and_sparse(
    n: usize,
    seed: u64,
) -> (CoopetitionGame<SqrtAccuracy>, CoopetitionGame<SqrtAccuracy>) {
    use tradefl_core::market::{Market, RhoMatrix};
    let dense = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
    let RhoMatrix::Dense(rows) = dense.rho_matrix() else {
        panic!("table_ii builds a dense rho");
    };
    let sparse_rho = RhoMatrix::from_dense_thresholded(rows, 0.0);
    assert!(matches!(sparse_rho, RhoMatrix::Sparse { .. }));
    let sparse =
        Market::with_rho(dense.orgs().to_vec(), sparse_rho, dense.params().clone()).unwrap();
    (
        CoopetitionGame::new(dense, SqrtAccuracy::paper_default()),
        CoopetitionGame::new(sparse, SqrtAccuracy::paper_default()),
    )
}

#[test]
fn sparse_and_dense_dbr_equilibria_are_bit_identical() {
    for (n, seed) in [(50, 3), (300, 11)] {
        let (gd, gs) = dense_and_sparse(n, seed);
        let a = DbrSolver::new().solve(&gd).unwrap();
        let b = DbrSolver::new().solve(&gs).unwrap();
        assert_eq!(a.iterations, b.iterations, "n={n}");
        for (i, (sa, sb)) in a.profile.iter().zip(b.profile.iter()).enumerate() {
            assert_eq!(sa.d.to_bits(), sb.d.to_bits(), "d differs at org {i} (n={n})");
            assert_eq!(sa.level, sb.level, "level differs at org {i} (n={n})");
        }
        assert_eq!(a.welfare.to_bits(), b.welfare.to_bits(), "welfare (n={n})");
        assert_eq!(a.potential.to_bits(), b.potential.to_bits(), "potential (n={n})");
        assert_eq!(a.total_damage.to_bits(), b.total_damage.to_bits(), "damage (n={n})");
    }
}

#[test]
fn sparse_and_dense_incremental_aggregates_are_bit_identical() {
    use tradefl_core::incremental::IncrementalEval;
    use tradefl_core::strategy::StrategyProfile;

    let (gd, gs) = dense_and_sparse(200, 5);
    let profile = StrategyProfile::minimal(gd.market());
    let mut ed = IncrementalEval::new(&gd, profile.clone());
    let mut es = IncrementalEval::new(&gs, profile);
    for i in 0..gd.market().len() {
        assert_eq!(ed.rho_res(i).to_bits(), es.rho_res(i).to_bits(), "rho_res at {i}");
        let s = ed.profile()[i];
        assert_eq!(
            ed.payoff_at(i, s, ed.rho_res(i)).to_bits(),
            es.payoff_at(i, s, es.rho_res(i)).to_bits(),
            "payoff_at {i}"
        );
        assert_eq!(
            gd.market().weight(i).to_bits(),
            gs.market().weight(i).to_bits(),
            "weight {i}"
        );
        assert_eq!(
            gd.market().competition_pressure(i).to_bits(),
            gs.market().competition_pressure(i).to_bits(),
            "pressure {i}"
        );
    }
    assert_eq!(ed.potential().to_bits(), es.potential().to_bits());
    assert_eq!(ed.total_damage().to_bits(), es.total_damage().to_bits());
    assert_eq!(ed.omega().to_bits(), es.omega().to_bits());
    // Commits stay in lockstep too.
    use tradefl_core::strategy::Strategy;
    ed.commit(7, Strategy::new(0.5, 1));
    es.commit(7, Strategy::new(0.5, 1));
    assert_eq!(ed.potential().to_bits(), es.potential().to_bits());
    assert_eq!(ed.rho_res(3).to_bits(), es.rho_res(3).to_bits());
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

/// FNV-1a over the CSR arrays of a sparse ρ: `row_ptr`, `cols`, then
/// the bit patterns of `vals`.
fn csr_fingerprint(rho: &tradefl_core::market::RhoMatrix) -> u64 {
    use tradefl_core::market::RhoMatrix;
    let RhoMatrix::Sparse { row_ptr, cols, vals, .. } = rho else {
        panic!("build_sparse builds a sparse rho");
    };
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
    // subset cut, the edge-group reduce and the async event loop; the
    // constants were recorded before sync and async FedAvg shared one
    // local-training path, so any drift in either trainer shows here.
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
    assert_eq!(training_fingerprint(&sync.model, &sync.history), 0x8a97_b0c3_1296_14b3);

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
    assert_eq!(training_fingerprint(&out.model, &out.history), 0xe4e5_d630_afbe_6935);
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
// The work-stealing pool changes chunking with the worker count, so
// these tests run each pooled hot path on explicit 1-, 4- and 8-worker
// pools and demand bit-identical outputs. (Explicit pools rather than
// the TRADEFL_THREADS override: the env var configures the process-wide
// global pool once, so a single test process cannot observe two
// settings of it — `thread_override` parsing is unit-tested in
// `tradefl_runtime::sync::pool` instead.)

use tradefl_runtime::sync::pool::Pool;

#[test]
fn pooled_dbr_is_bit_identical_for_any_worker_count() {
    let runs: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&w| DbrSolver::new().solve_with(&game(7), &Pool::new(w)).unwrap())
        .collect();
    for eq in &runs {
        assert_eq!(eq.profile, runs[0].profile, "DBR profile differs");
        assert_eq!(eq.welfare.to_bits(), runs[0].welfare.to_bits());
        assert_eq!(eq.iterations, runs[0].iterations);
    }
}

#[test]
fn pooled_fedavg_is_bit_identical_for_any_worker_count() {
    use tradefl::fl::data::{generate, DatasetKind};
    use tradefl::fl::fed::train_federated_with;
    use tradefl::fl::model::{Mlp, ModelKind};

    let all = generate(DatasetKind::EurosatLike, 3 * 120 + 200, 11);
    let mut shards = all.shard(&[120, 120, 120, 200]);
    let test = shards.pop().unwrap();
    let config = FedConfig { rounds: 2, local_epochs: 1, batch_size: 32, lr: 0.1, seed: 5 };
    let runs: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&w| {
            let global =
                Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
            train_federated_with(global, &shards, &test, &[1.0, 0.5, 0.8], &config, &Pool::new(w))
                .unwrap()
        })
        .collect();
    for out in &runs {
        assert_eq!(out.history.len(), runs[0].history.len());
        for (m, m0) in out.history.iter().zip(&runs[0].history) {
            assert_eq!(m.loss.to_bits(), m0.loss.to_bits(), "round {} loss", m.round);
            assert_eq!(m.accuracy.to_bits(), m0.accuracy.to_bits(), "round {} acc", m.round);
        }
        assert_eq!(out.model, runs[0].model, "global model parameters differ");
    }
}

#[test]
fn blocked_kernel_training_is_bit_identical_above_the_pool_threshold() {
    // The small fedavg fixture above sits below POOLED_FED_MIN_STEPS
    // (2048 per-round steps), so it proves the *serial* fallback is
    // worker-count-invariant. This one pushes the per-round work to
    // 4 silos × 300 samples × 2 local epochs = 2400 steps, past the
    // threshold, so the pool genuinely fans local training out — and
    // every GEMM underneath runs the blocked kernel (fixed
    // jc→pc→ic→jr→ir traversal, ascending-pc accumulation). Training
    // must still be bit-identical for 1, 4 and 8 workers. (Explicit
    // pools rather than TRADEFL_THREADS for the same reason as the
    // header above: the env var is read once per process.)
    use tradefl::fl::data::{generate, DatasetKind};
    use tradefl::fl::fed::train_federated_with;
    use tradefl::fl::model::{Mlp, ModelKind};

    let all = generate(DatasetKind::EurosatLike, 4 * 300 + 200, 29);
    let mut shards = all.shard(&[300, 300, 300, 300, 200]);
    let test = shards.pop().unwrap();
    let config = FedConfig { rounds: 2, local_epochs: 2, batch_size: 32, lr: 0.1, seed: 13 };
    let runs: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&w| {
            let global =
                Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
            train_federated_with(
                global,
                &shards,
                &test,
                &[1.0, 1.0, 1.0, 1.0],
                &config,
                &Pool::new(w),
            )
            .unwrap()
        })
        .collect();
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
    // byte string no matter how many pool workers run underneath.
    // Metrics (pool steal counts etc.) are legitimately
    // scheduling-dependent and excluded via `events_jsonl()`.
    use tradefl::fl::data::{generate, DatasetKind};
    use tradefl::fl::fed::train_federated_with;
    use tradefl::fl::model::{Mlp, ModelKind};
    use tradefl_runtime::obs;

    let all = generate(DatasetKind::EurosatLike, 3 * 120 + 200, 11);
    let mut shards = all.shard(&[120, 120, 120, 200]);
    let test = shards.pop().unwrap();
    let config = FedConfig { rounds: 2, local_epochs: 1, batch_size: 32, lr: 0.1, seed: 5 };
    let streams: Vec<String> = [1usize, 4, 8]
        .iter()
        .map(|&w| {
            let (_, snap) = obs::with_local(|| {
                let g = game(7);
                DbrSolver::new().solve_with(&g, &Pool::new(w)).unwrap();
                let global =
                    Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
                train_federated_with(
                    global,
                    &shards,
                    &test,
                    &[1.0, 0.5, 0.8],
                    &config,
                    &Pool::new(w),
                )
                .unwrap();
            });
            snap.events_jsonl()
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
