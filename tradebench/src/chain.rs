//! Shared by the two engine workloads: driving the engine inside the
//! wall window, and the ledger measurements taken after it by
//! re-applying the final canonical chain on a fresh single `Node`.

use crate::rep::{ms_since, now, ratio, timed, Layer, Rep, Settlement, Split};
use crate::stats::median;
use std::hint::black_box;
use tradefl_engine::{Engine, EngineReport};
use tradefl_ledger::codec::{decode_block_bytes, encode_block_bytes};
use tradefl_ledger::node::Node;
use tradefl_ledger::tradefl_contract::TradeFlContract;
use tradefl_ledger::tx::{ExecStatus, Transaction, TxPayload};
use tradefl_ledger::types::{Address, Wei};

/// What driving the engine to completion produced.
#[derive(Debug)]
pub struct Drive {
    pub report: EngineReport,
    pub steps: u64,
    pub block_ms: Vec<f64>,
    pub block_step_ms: f64,
    pub other_step_ms: f64,
    pub report_ms: f64,
}

/// Steps the engine until its event queue drains, timing each step,
/// then asks it for its report. All of it is engine time in `split`.
pub fn drive(engine: &mut Engine, split: &mut Split) -> Result<Drive, String> {
    let (mut steps, mut block_ms) = (0u64, Vec::new());
    let (mut block_step_ms, mut other_step_ms) = (0.0, 0.0);
    loop {
        let height = engine.height();
        let t = now();
        let more = engine.step().map_err(|e| format!("engine step: {e}"));
        let ms = ms_since(t);
        split.add(Layer::Engine, ms);
        steps += 1;
        if engine.height() > height {
            block_ms.push(ms);
            block_step_ms += ms;
        } else {
            other_step_ms += ms;
        }
        if !more? {
            break;
        }
    }
    let (report, report_ms) = timed(|| engine.report());
    split.add(Layer::Engine, report_ms);
    let report = report.map_err(|e| format!("engine report: {e}"))?;
    Ok(Drive {
        report,
        steps,
        block_ms,
        block_step_ms,
        other_step_ms,
        report_ms,
    })
}

/// The canonical replica at the end of a converged run.
pub fn canonical<'e>(engine: &'e Engine, report: &EngineReport) -> Option<&'e Node> {
    let &first = report.survivors.first()?;
    Some(&engine.network().validator(first).node)
}

/// Every session's scripted transactions, with deployed addresses.
pub fn scripted_txs(engine: &Engine, sessions: usize) -> Vec<Transaction> {
    (0..sessions)
        .filter_map(|s| Some((engine.session_plan(s)?, engine.contract(s)?)))
        .flat_map(|(plan, contract)| plan.scripted_txs(contract).collect::<Vec<_>>())
        .collect()
}

/// Settlement totals of a finished run: block samples, successful
/// scripted txs on the canonical chain, step + report seconds, ticks.
pub fn settlement(drive: &Drive, node: &Node, scripted: &[Transaction]) -> Settlement {
    let settled_txs = scripted
        .iter()
        .filter(|tx| {
            node.receipt(tx.hash())
                .is_some_and(|r| r.status == ExecStatus::Success)
        })
        .count() as u64;
    Settlement {
        block_ms: drive.block_ms.clone(),
        settled_txs,
        settle_s: (drive.block_step_ms + drive.other_step_ms + drive.report_ms) / 1e3,
        ticks: drive.report.ticks,
    }
}

/// Fails every session of the run unless it fully settled, naming each
/// unsettled session's first scripted tx without a `Success` receipt.
pub fn check_settled(rep: &mut Rep, engine: &Engine, report: &EngineReport) {
    if !report.converged {
        rep.fail(
            report.sessions_total as u64,
            format!("survivors did not converge: {report:?}"),
        );
        return;
    }
    let Some(node) = canonical(engine, report) else {
        return;
    };
    for s in 0..report.sessions_total {
        let (Some(plan), Some(contract)) = (engine.session_plan(s), engine.contract(s)) else {
            continue;
        };
        let first_bad = plan.scripted_txs(contract).find_map(|tx| {
            let status = node.receipt(tx.hash()).map(|r| r.status.clone());
            if status == Some(ExecStatus::Success) {
                return None;
            }
            let function = match &tx.payload {
                TxPayload::Call { function, .. } => function.clone(),
                TxPayload::Transfer { .. } => "transfer".into(),
            };
            Some(match status {
                Some(ExecStatus::Reverted(why)) => format!("{function} reverted: {why}"),
                _ => format!("{function} has no receipt"),
            })
        });
        if let Some(why) = first_bad {
            rep.fail(
                1,
                format!("session {} did not settle: {why}", plan.spec.name),
            );
        }
    }
}

/// Engine values of a traced repetition: the report's counts, the step
/// split, and the ratios built on them.
pub fn record_engine(rep: &mut Rep, drive: &Drive, new_ms: f64, scripted: usize) {
    let r = &drive.report;
    rep.set("engine.new_ms", new_ms);
    rep.set("engine.steps", drive.steps as f64);
    rep.set("engine.block_step_ms_total", drive.block_step_ms);
    rep.set("engine.other_step_ms_total", drive.other_step_ms);
    rep.set("engine.blocks", r.blocks as f64);
    rep.set("engine.batches", r.batches as f64);
    rep.set("engine.backpressure", r.backpressure as f64);
    rep.set("engine.heals", r.heals as f64);
    rep.set("engine.requeues", r.requeues as f64);
    rep.set("engine.byzantine_rounds", r.byzantine_rounds as f64);
    rep.set(
        "engine.proposal_useful_ratio",
        ratio(r.blocks as f64, (r.blocks + r.byzantine_rounds) as f64),
    );
    rep.set(
        "engine.requeue_ratio",
        ratio(r.requeues as f64, scripted as f64),
    );
}

/// Re-applies the canonical chain on a fresh `Node` and records the
/// ledger values: replay time, gas, codec cost, receipt lookups and the
/// state-root cost. Also sets `engine.replication_overhead`, the
/// engine's step time over this single-node baseline.
pub fn record_ledger(
    rep: &mut Rep,
    engine: &Engine,
    sessions: usize,
    canonical: &Node,
    drive: &Drive,
) -> Result<(), String> {
    let mut allocations: Vec<(Address, Wei)> = Vec::new();
    for s in 0..sessions {
        let plan = engine.session_plan(s).ok_or("missing session plan")?;
        allocations.extend(plan.allocations.iter().copied());
    }
    let mut node = Node::new(&allocations);
    for s in 0..sessions {
        let plan = engine.session_plan(s).ok_or("missing session plan")?;
        let contract = TradeFlContract::new(plan.params.clone()).map_err(|e| e.to_string())?;
        if Some(node.deploy(Box::new(contract))) != engine.contract(s) {
            return Err(format!(
                "replay node deployed session {s} at another address"
            ));
        }
    }
    let blocks = canonical.chain().blocks();
    if node.chain().tip_hash() != blocks[0].hash() {
        return Err("replay node boots another genesis block".into());
    }
    let body = &blocks[1..];
    let (applied, replay_ms) = timed(|| body.iter().try_for_each(|b| node.apply_block(b)));
    applied.map_err(|e| format!("canonical chain does not replay: {e}"))?;
    if node.state().root() != canonical.state().root() {
        return Err("replayed state root differs from the canonical replica's".into());
    }

    let txs = body.iter().map(|b| b.txs.len()).sum::<usize>() as f64;
    let (mut gas, mut calculate_gas) = (0u64, 0u64);
    for block in body {
        for (tx, receipt) in block.txs.iter().zip(&block.receipts) {
            gas += receipt.gas_used;
            if matches!(&tx.payload, TxPayload::Call { function, .. } if function == "payoffCalculate")
            {
                calculate_gas += receipt.gas_used;
            }
        }
    }
    let (frames, encode_ms) = timed(|| body.iter().map(encode_block_bytes).collect::<Vec<_>>());
    let (decoded, decode_ms) = timed(|| {
        frames
            .iter()
            .map(|f| decode_block_bytes(f))
            .collect::<Result<Vec<_>, _>>()
    });
    let decoded = decoded.map_err(|e| format!("canonical block does not decode: {e}"))?;
    if decoded.iter().zip(body).any(|(d, b)| d.hash() != b.hash()) {
        return Err("a block changed through encode/decode".into());
    }
    let frame_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64;

    let hashes: Vec<_> = scripted_txs(engine, sessions)
        .iter()
        .map(Transaction::hash)
        .collect();
    let (found, lookup_ms) = timed(|| {
        hashes
            .iter()
            .filter(|&&h| black_box(node.receipt(h)).is_some())
            .count()
    });
    if found != hashes.len() {
        return Err(format!(
            "{} scripted txs have no receipt",
            hashes.len() - found
        ));
    }
    let root_ms: Vec<f64> = (0..5)
        .map(|_| timed(|| black_box(node.state().root())).1)
        .collect();

    rep.set("ledger.replay_ms", replay_ms);
    rep.set("ledger.apply_us_per_tx", ratio(replay_ms * 1e3, txs));
    rep.set("ledger.calculate_gas", calculate_gas as f64);
    rep.set("ledger.gas_per_tx", ratio(gas as f64, txs));
    rep.set("ledger.encode_ms", encode_ms);
    rep.set("ledger.decode_ms", decode_ms);
    rep.set("ledger.frame_bytes_per_tx", ratio(frame_bytes, txs));
    rep.set(
        "ledger.receipt_lookup_us",
        ratio(lookup_ms * 1e3, hashes.len() as f64),
    );
    rep.set("ledger.state_root_ms", median(&root_ms).unwrap_or(0.0));
    rep.set(
        "engine.replication_overhead",
        ratio(drive.block_step_ms + drive.other_step_ms, replay_ms),
    );
    Ok(())
}
