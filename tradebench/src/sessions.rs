//! `sessions_faulty`: many small concurrent sessions on 4 validators
//! under fixed-rate wire faults and Byzantine proposers. The engine and
//! ledger do almost all the work, through many small blocks and the
//! recovery path (peer pulls and heals).
//!
//! The fault mix leaves out what makes the engine lose a block: crash
//! windows, corrupted frames (a flipped header byte can still apply and
//! fork a replica) and dropped frames (a proposer that lies and is
//! healed while it alone holds a block). A lost block's txs are
//! requeued behind later txs of their session, and the session reverts
//! — see README.md, "Requeue ordering".

use crate::chain;
use crate::rep::{end_trace, mix, now, record_counters, timed, Rep, Split};
use crate::stats::median;
use tradefl_engine::{Engine, EngineConfig, SessionSpec};
use tradefl_runtime::sim::faults::{ByzantineConfig, FaultConfig};
use tradefl_runtime::sync::pool::Pool;

const SESSIONS: usize = 24;
/// Orgs per session are drawn from this range.
const ORGS: (usize, usize) = (8, 10);
const VALIDATORS: usize = 4;
/// `Engine::new` calls per repetition; `setup_s` is their median.
const SETUP_BOOTS: usize = 9;
/// Probability that an elected proposer gossips a tampered block.
pub const TAMPER_P: f64 = 0.15;

/// Wire-fault rates: fixed, so the seed moves when faults fire, not how
/// often.
pub fn faults() -> FaultConfig {
    FaultConfig {
        drop_p: 0.0,
        dup_p: 0.10,
        delay_p: 0.20,
        max_delay: 8,
        truncate_p: 0.02,
        corrupt_p: 0.0,
        crashes: Vec::new(),
    }
}

pub fn config(seed: u64, workers: usize) -> EngineConfig {
    let span = (ORGS.1 - ORGS.0 + 1) as u64;
    EngineConfig {
        validators: VALIDATORS,
        sessions: (0..SESSIONS)
            .map(|s| {
                let session_seed = mix(seed, s as u64);
                SessionSpec {
                    name: format!("session-{s}"),
                    orgs: ORGS.0 + (session_seed % span) as usize,
                    seed: session_seed,
                }
            })
            .collect(),
        batch_interval: 2,
        admission_capacity: 8,
        faults: faults(),
        byzantine: ByzantineConfig { tamper_p: TAMPER_P },
        workers,
        ..EngineConfig::default()
    }
}

/// The per-layer values a traced repetition reports, beyond the
/// counters every workload reads.
pub const MEASURES: &[&str] = &[
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
    "engine.checkpoint_ms",
    "engine.checkpoint_kb",
    "engine.restore_ms",
];

pub fn rep(seed: u64, pool: &Pool, traced: bool) -> Result<Rep, String> {
    let mut rep = Rep {
        traced,
        attempted: SESSIONS as u64,
        ..Rep::default()
    };
    // Setup is one `Engine::new` of ~2 ms, which a single page fault or
    // cold cache line moves by a tenth; booting it repeatedly and taking
    // the median keeps `setup_s` steady. The boots are identical.
    let mut boots = Vec::with_capacity(SETUP_BOOTS);
    let mut engine = None;
    for _ in 0..SETUP_BOOTS {
        let (booted, ms) = timed(|| Engine::new(config(seed, pool.workers()), seed));
        engine = Some(booted.map_err(|e| format!("engine boot: {e}"))?);
        boots.push(ms);
    }
    let mut engine = engine.ok_or("no engine booted")?;
    let new_ms = median(&boots).unwrap_or(0.0);
    rep.setup_s = new_ms / 1e3;

    let mut split = Split::default();
    let wall = now();
    let drive = chain::drive(&mut engine, &mut split);
    rep.wall_s = wall.elapsed().as_secs_f64();
    let snap = end_trace(traced);
    rep.split = split;
    let drive = match drive {
        Ok(drive) => drive,
        Err(why) => {
            rep.fail(SESSIONS as u64, why);
            return Ok(rep);
        }
    };

    chain::check_settled(&mut rep, &engine, &drive.report);
    let Some(node) = chain::canonical(&engine, &drive.report) else {
        rep.fail(SESSIONS as u64, "no validator survived".into());
        return Ok(rep);
    };
    let scripted = chain::scripted_txs(&engine, SESSIONS);
    rep.settlement = Some(chain::settlement(&drive, node, &scripted));
    let r = &drive.report;
    rep.digest = format!(
        "state_root={} height={} blocks={} heals={} requeues={} byzantine_rounds={}",
        r.state_root.to_hex(),
        r.final_height,
        r.blocks,
        r.heals,
        r.requeues,
        r.byzantine_rounds
    );

    if let Some(snap) = snap {
        record_counters(&mut rep, &snap);
        chain::record_engine(&mut rep, &drive, new_ms, scripted.len());
        chain::record_ledger(&mut rep, &engine, SESSIONS, node, &drive)?;
        let (bytes, checkpoint_ms) = timed(|| engine.checkpoint());
        let (restored, restore_ms) =
            timed(|| Engine::restore(config(seed, pool.workers()), seed, &bytes));
        let restored = restored.map_err(|e| format!("checkpoint does not restore: {e}"))?;
        if restored.height() != engine.height() {
            return Err("restored engine sits at another height".into());
        }
        rep.set("engine.checkpoint_ms", checkpoint_ms);
        rep.set("engine.checkpoint_kb", bytes.len() as f64 / 1024.0);
        rep.set("engine.restore_ms", restore_ms);
    }
    Ok(rep)
}
