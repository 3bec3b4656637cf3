//! `pipeline_n64`: the paper's whole pipeline at the largest size the
//! chain can settle — Table II market with 64 orgs → DBR (Algorithm 2)
//! → FedAvg at the agreed contributions → one engine session on 4
//! validators with faults off (Fig. 3).

use crate::chain;
use crate::rep::{end_trace, fnv, mix, now, record_counters, timed, Layer, Rep, Split};
use std::hint::black_box;
use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_engine::{Engine, EngineConfig, SessionSpec};
use tradefl_fl_sim::data::{generate, DatasetKind};
use tradefl_fl_sim::fed::{train_federated_with, FedConfig};
use tradefl_fl_sim::linalg::{kernel, Matrix};
use tradefl_fl_sim::model::{Mlp, ModelKind};
use tradefl_ledger::tx::{TxPayload, Value};
use tradefl_ledger::types::Fixed;
use tradefl_runtime::sync::pool::Pool;
use tradefl_solver::dbr::DbrSolver;

/// Largest market the chain settles: `payoffCalculate` charges
/// 30,000 + 4,000·N(N−1)/2 gas against the 10M call limit, so N = 72
/// reverts and N = 64 (8.09M gas) is the biggest power of two that fits.
pub const ORGS: usize = 64;
const VALIDATORS: usize = 4;
const TEST_SAMPLES: usize = 1000;
const DATASET: DatasetKind = DatasetKind::EurosatLike;
const MODEL: ModelKind = ModelKind::MobilenetLike;
/// Allowed gap between on-chain `R_i` and Eq. (10), in payoff units.
const REDISTRIBUTION_TOL: f64 = 1e-3;

/// The per-layer values a traced repetition reports, beyond the
/// counters every workload reads.
pub const MEASURES: &[&str] = &[
    "core.market_build_ms",
    "core.rho_nnz",
    "core.rho_resident_mb",
    "solver.dbr_ms",
    "solver.dbr_calls",
    "solver.dbr_iterations",
    "fl.data_gen_ms",
    "fl.train_ms",
    "fl.round_ms",
    "fl.samples_per_s",
    "fl.kernel_gflops",
    "ledger.replay_ms",
    "ledger.apply_us_per_tx",
    "ledger.calculate_gas",
    "ledger.gas_per_tx",
    "ledger.encode_ms",
    "ledger.decode_ms",
    "ledger.frame_bytes_per_tx",
    "ledger.receipt_lookup_us",
    "ledger.state_root_ms",
    "engine.new_ms",
    "engine.steps",
    "engine.block_step_ms_total",
    "engine.other_step_ms_total",
    "engine.blocks",
    "engine.batches",
    "engine.backpressure",
    "engine.heals",
    "engine.requeues",
    "engine.byzantine_rounds",
    "engine.proposal_useful_ratio",
    "engine.requeue_ratio",
    "engine.replication_overhead",
];

pub fn rep(seed: u64, pool: &Pool, traced: bool) -> Result<Rep, String> {
    let mut rep = Rep {
        traced,
        attempted: 1,
        ..Rep::default()
    };

    // Setup: market draw, dataset generation and sharding, Engine::new.
    let setup = now();
    let (market, market_ms) = timed(|| MarketConfig::table_ii().with_orgs(ORGS).build(seed));
    let market = market.map_err(|e| format!("market draw: {e}"))?;
    let (rho_nnz, rho_bytes) = (market.rho_nnz(), market.rho_resident_bytes());
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let (data, data_ms) = timed(|| {
        let mut sizes: Vec<usize> = game.market().orgs().iter().map(|o| o.samples()).collect();
        let total: usize = sizes.iter().sum();
        sizes.push(TEST_SAMPLES);
        let mut shards = generate(DATASET, total + TEST_SAMPLES, mix(seed, 0xDA7A)).shard(&sizes);
        shards.pop().map(|test| (shards, test))
    });
    let (shards, test) = data.ok_or("sharding yields one dataset per size")?;
    let template = Mlp::for_kind(MODEL, test.dim(), test.classes, mix(seed, 0x1417));
    let config = EngineConfig {
        validators: VALIDATORS,
        sessions: vec![SessionSpec {
            name: "pipeline".into(),
            orgs: ORGS,
            seed,
        }],
        workers: pool.workers(),
        ..EngineConfig::default()
    };
    let (engine, new_ms) = timed(|| Engine::new(config, seed));
    let mut engine = engine.map_err(|e| format!("engine boot: {e}"))?;
    rep.setup_s = setup.elapsed().as_secs_f64();

    // Wall: equilibrium → training → settlement.
    let mut split = Split::default();
    let wall = now();
    let eq = split.time(Layer::Solver, || DbrSolver::new().solve_with(&game, pool));
    let eq = eq.map_err(|e| format!("DBR: {e}"))?;
    let fractions: Vec<f64> = eq.profile.iter().map(|s| s.d).collect();
    let fed = FedConfig {
        seed,
        ..FedConfig::default()
    };
    let trained = split.time(Layer::Fl, || {
        train_federated_with(template, &shards, &test, &fractions, &fed, pool)
    });
    let trained = trained.map_err(|e| format!("FedAvg: {e}"))?;
    let drive = chain::drive(&mut engine, &mut split);
    rep.wall_s = wall.elapsed().as_secs_f64();
    let snap = end_trace(traced);
    rep.split = split;
    let drive = match drive {
        Ok(drive) => drive,
        Err(why) => {
            rep.fail(1, why);
            return Ok(rep);
        }
    };

    // Output checks, outside the wall window.
    chain::check_settled(&mut rep, &engine, &drive.report);
    let Some(node) = chain::canonical(&engine, &drive.report) else {
        rep.fail(1, "no validator survived".into());
        return Ok(rep);
    };
    let plan = engine.session_plan(0).ok_or("missing session plan")?;
    let contract = engine.contract(0).ok_or("missing session contract")?;
    let (mut sum, mut worst) = (0i128, 0.0f64);
    for (i, &addr) in plan.addresses.iter().enumerate() {
        let onchain = node
            .call_view(contract, addr, "redistributionOf", &[Value::Addr(addr)])
            .ok()
            .and_then(|out| out.first().and_then(Value::as_fixed));
        let Some(r) = onchain else {
            rep.fail(1, format!("redistributionOf(org {i}) has no value"));
            return Ok(rep);
        };
        sum += r.0;
        worst = worst.max((r.to_f64() - game.redistribution(&eq.profile, i)).abs());
    }
    if worst > REDISTRIBUTION_TOL {
        rep.fail(1, format!("on-chain R_i is {worst:e} from Eq. (10)"));
    }
    if sum != 0 {
        rep.fail(
            1,
            format!("on-chain R_i sum to {sum} fixed-point units, not 0"),
        );
    }
    let submitted: Vec<(Fixed, Fixed)> = plan
        .txs
        .iter()
        .filter_map(|tx| match &tx.payload {
            TxPayload::Call { function, args, .. } if function == "contributionSubmit" => {
                Some((args.first()?.as_fixed()?, args.get(1)?.as_fixed()?))
            }
            _ => None,
        })
        .collect();
    let ours: Vec<(Fixed, Fixed)> = eq
        .profile
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let f_ghz = game.market().org(i).frequency(s.level) / 1e9;
            (Fixed::from_f64(s.d), Fixed::from_f64(f_ghz))
        })
        .collect();
    if submitted != ours {
        rep.fail(
            1,
            "the engine plan's contributions differ from the DBR profile".into(),
        );
    }
    let first = trained.history.first().map_or(f32::NAN, |m| m.accuracy);
    if trained.final_accuracy().partial_cmp(&first) != Some(std::cmp::Ordering::Greater) {
        rep.fail(
            1,
            format!(
                "accuracy {} does not beat round 0 ({first})",
                trained.final_accuracy()
            ),
        );
    }
    let scripted = chain::scripted_txs(&engine, 1);
    rep.settlement = Some(chain::settlement(&drive, node, &scripted));
    let eq_bits = eq.profile.iter().flat_map(|s| {
        s.d.to_bits()
            .to_le_bytes()
            .into_iter()
            .chain((s.level as u64).to_le_bytes())
    });
    let params = trained.model.to_params();
    rep.digest = format!(
        "equilibrium={:016x} model={:016x} state_root={}",
        fnv(eq_bits),
        fnv(params.iter().flat_map(|p| p.to_bits().to_le_bytes())),
        node.state().root().to_hex()
    );

    if let Some(snap) = snap {
        record_counters(&mut rep, &snap);
        rep.set("core.market_build_ms", market_ms);
        rep.set("core.rho_nnz", rho_nnz as f64);
        rep.set("core.rho_resident_mb", rho_bytes as f64 / (1 << 20) as f64);
        rep.set("solver.dbr_ms", rep.split.ms(Layer::Solver));
        rep.set("solver.dbr_calls", 1.0);
        rep.set("solver.dbr_iterations", eq.iterations as f64);
        let train_ms = rep.split.ms(Layer::Fl);
        let contributed: usize = shards
            .iter()
            .zip(&fractions)
            .map(|(shard, &d)| ((d * shard.len() as f64).floor() as usize).min(shard.len()))
            .sum();
        let steps = contributed * fed.local_epochs * fed.rounds;
        rep.set("fl.data_gen_ms", data_ms);
        rep.set("fl.train_ms", train_ms);
        rep.set("fl.round_ms", train_ms / fed.rounds as f64);
        rep.set("fl.samples_per_s", steps as f64 / (train_ms / 1e3));
        rep.set(
            "fl.kernel_gflops",
            kernel_gflops(fed.batch_size, test.dim(), MODEL.hidden()),
        );
        chain::record_engine(&mut rep, &drive, new_ms, scripted.len());
        chain::record_ledger(&mut rep, &engine, 1, node, &drive)?;
    }
    Ok(rep)
}

/// Flop rate of the public GEMM on the first layer's training shape
/// (`batch × dim` times `dim × hidden`), over ~50 ms of calls.
fn kernel_gflops(m: usize, k: usize, n: usize) -> f64 {
    let fill = |r: usize, c: usize| ((r * 7 + c * 3) % 11) as f32 * 0.1 - 0.5;
    let (a, b) = (Matrix::from_fn(m, k, fill), Matrix::from_fn(k, n, fill));
    let (mut out, mut ws) = (Matrix::zeros(0, 0), kernel::Workspace::new());
    kernel::matmul_into(&a, &b, &mut out, &mut ws);
    let (mut calls, t) = (0u64, now());
    while t.elapsed().as_secs_f64() < 0.05 {
        for _ in 0..256 {
            kernel::matmul_into(black_box(&a), black_box(&b), &mut out, &mut ws);
        }
        calls += 256;
    }
    (2 * m * k * n) as f64 * calls as f64 / t.elapsed().as_secs_f64() / 1e9
}
