//! `tune_n10000`: γ-tuning on a sparse ten-thousand-org Table II market
//! — `tune_gamma`, then the final DBR at γ*. No chain and no training:
//! the chain cannot yet settle more than 71 orgs.

use crate::rep::{end_trace, fnv, now, record_counters, timed, Layer, Rep, Split};
use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_runtime::sync::pool::Pool;
use tradefl_solver::dbr::DbrSolver;
use tradefl_solver::tuning::{tune_gamma, TuneOptions};

const ORGS: usize = 10_000;
/// Share of off-diagonal ρ entries each org draws (the `BENCH_scale.json`
/// ten-thousand-org shape).
const DENSITY: f64 = 0.01;

/// A cut-down search: 4 grid points + 2 golden-section brackets + 1
/// refinement = 7 candidates (the default options evaluate 26).
pub fn options() -> TuneOptions {
    TuneOptions {
        grid: 3,
        refine_iters: 1,
        ..TuneOptions::default()
    }
}

/// The per-layer values a traced repetition reports, beyond the
/// counters every workload reads.
pub const MEASURES: &[&str] = &[
    "core.market_build_ms",
    "core.with_params_ms",
    "core.rho_nnz",
    "core.rho_resident_mb",
    "solver.dbr_ms",
    "solver.dbr_calls",
    "solver.dbr_iterations",
];

pub fn rep(seed: u64, pool: &Pool, traced: bool) -> Result<Rep, String> {
    let mut rep = Rep {
        traced,
        attempted: 1,
        ..Rep::default()
    };
    let setup = now();
    let (market, market_ms) = timed(|| {
        MarketConfig::table_ii()
            .with_orgs(ORGS)
            .build_sparse(seed, DENSITY)
    });
    let market = market.map_err(|e| format!("sparse market draw: {e}"))?;
    let (rho_nnz, rho_bytes) = (market.rho_nnz(), market.rho_resident_bytes());
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    rep.setup_s = setup.elapsed().as_secs_f64();

    let options = options();
    let mut split = Split::default();
    let wall = now();
    let tuned = split.time(Layer::Solver, || tune_gamma(&game, options));
    let tuned = tuned.map_err(|e| format!("tune_gamma: {e}"))?;
    let params = game.market().params().with_gamma(tuned.gamma_star);
    let (at_star, final_rebuild_ms) = timed(|| game.with_params(params));
    split.add(Layer::Core, final_rebuild_ms);
    let at_star = at_star.map_err(|e| format!("market at gamma*: {e}"))?;
    let (eq, final_dbr_ms) = timed(|| DbrSolver::new().solve_with(&at_star, pool));
    split.add(Layer::Solver, final_dbr_ms);
    let eq = eq.map_err(|e| format!("DBR at gamma*: {e}"))?;
    rep.wall_s = wall.elapsed().as_secs_f64();
    let snap = end_trace(traced);
    rep.split = split;

    if !(options.gamma_min..=options.gamma_max).contains(&tuned.gamma_star) {
        rep.fail(
            1,
            format!("gamma* = {:e} outside the search range", tuned.gamma_star),
        );
    }
    if eq.welfare.to_bits() != tuned.welfare.to_bits() {
        rep.fail(
            1,
            format!(
                "re-solving at gamma* gives welfare {} not {}",
                eq.welfare, tuned.welfare
            ),
        );
    }
    let profile = eq.profile.iter().flat_map(|s| {
        s.d.to_bits()
            .to_le_bytes()
            .into_iter()
            .chain((s.level as u64).to_le_bytes())
    });
    rep.digest = format!(
        "gamma_star={:016x} welfare={:016x} equilibrium={:016x}",
        tuned.gamma_star.to_bits(),
        tuned.welfare.to_bits(),
        fnv(profile)
    );

    if let Some(snap) = snap {
        // tune_gamma's candidates are timed by replaying its γ sequence:
        // the market rebuild (core) and the DBR solve (solver) apart.
        let (mut rebuild_ms, mut dbr_ms) = (final_rebuild_ms, final_dbr_ms);
        let mut iterations = eq.iterations;
        for sample in &tuned.samples {
            let params = game.market().params().with_gamma(sample.gamma);
            let (candidate, ms) = timed(|| game.with_params(params));
            rebuild_ms += ms;
            let candidate = candidate.map_err(|e| format!("replayed rebuild: {e}"))?;
            let (solved, ms) = timed(|| DbrSolver::with_options(options.dbr).solve(&candidate));
            dbr_ms += ms;
            let solved = solved.map_err(|e| format!("replayed DBR: {e}"))?;
            if solved.welfare.to_bits() != sample.welfare.to_bits() {
                rep.fail(
                    1,
                    format!("candidate gamma {:e} does not replay", sample.gamma),
                );
            }
            iterations += solved.iterations;
        }
        record_counters(&mut rep, &snap);
        rep.set("core.market_build_ms", market_ms);
        rep.set("core.with_params_ms", rebuild_ms);
        rep.set("core.rho_nnz", rho_nnz as f64);
        rep.set("core.rho_resident_mb", rho_bytes as f64 / (1 << 20) as f64);
        rep.set("solver.dbr_ms", dbr_ms);
        rep.set("solver.dbr_calls", (tuned.samples.len() + 1) as f64);
        rep.set("solver.dbr_iterations", iterations as f64);
    }
    Ok(rep)
}
