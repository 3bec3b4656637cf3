//! The benchmark's metric registry: every name it prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed with `--trace 0`: what a user of the system sees, measured
/// with tracing off. Every workload reports all of them.
pub const END_TO_END: &[Metric] = &[m("setup_s", "s"), m("wall_s", "s"), m("peak_rss_mb", "MB")];

/// Printed with `--trace 1`. Every workload prints all of them; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    // Whole run: the wall window split by the crate whose public
    // function the benchmark called.
    m("split.core_ms", "ms"),
    m("split.solver_ms", "ms"),
    m("split.fl_ms", "ms"),
    m("split.ledger_ms", "ms"),
    m("split.engine_ms", "ms"),
    m("split.runtime_ms", "ms"),
    m("unattributed_ms", "ms"),
    m("trace_overhead_frac", "ratio"),
    m("failed_frac", "ratio"),
    // Settlement, from the untraced repetitions.
    m("settle_txs_per_s", "tx/s"),
    m("block_p50_ms", "ms"),
    m("block_p90_ms", "ms"),
    m("settle_ticks", "ticks"),
    // core
    m("core.market_build_ms", "ms"),
    m("core.with_params_ms", "ms"),
    m("core.rho_nnz", "count"),
    m("core.rho_resident_mb", "MB"),
    // solver
    m("solver.dbr_ms", "ms"),
    m("solver.dbr_calls", "count"),
    m("solver.dbr_iterations", "count"),
    m("solver.payoff_cache_hit_ratio", "ratio"),
    m("solver.incremental_updates", "count"),
    // fl
    m("fl.data_gen_ms", "ms"),
    m("fl.train_ms", "ms"),
    m("fl.round_ms", "ms"),
    m("fl.samples_per_s", "samples/s"),
    m("fl.local_updates", "count"),
    m("fl.kernel_gflops", "GFLOP/s"),
    // ledger
    m("ledger.replay_ms", "ms"),
    m("ledger.apply_us_per_tx", "us"),
    m("ledger.calculate_gas", "gas"),
    m("ledger.gas_per_tx", "gas/tx"),
    m("ledger.encode_ms", "ms"),
    m("ledger.decode_ms", "ms"),
    m("ledger.frame_bytes_per_tx", "B/tx"),
    m("ledger.receipt_lookup_us", "us"),
    m("ledger.state_root_ms", "ms"),
    m("ledger.txs_executed", "count"),
    // engine
    m("engine.new_ms", "ms"),
    m("engine.steps", "count"),
    m("engine.block_step_ms_total", "ms"),
    m("engine.other_step_ms_total", "ms"),
    m("engine.blocks", "count"),
    m("engine.batches", "count"),
    m("engine.backpressure", "count"),
    m("engine.heals", "count"),
    m("engine.requeues", "count"),
    m("engine.byzantine_rounds", "count"),
    m("engine.frames_rejected", "count"),
    m("engine.frames_stale", "count"),
    m("engine.pull_rejected", "count"),
    m("engine.frames_to_dead", "count"),
    m("engine.proposal_useful_ratio", "ratio"),
    m("engine.requeue_ratio", "ratio"),
    m("engine.replication_overhead", "ratio"),
    m("engine.checkpoint_ms", "ms"),
    m("engine.checkpoint_kb", "KB"),
    m("engine.restore_ms", "ms"),
    // runtime
    m("runtime.pool_tasks", "count"),
    m("runtime.pool_steals", "count"),
    m("runtime.pool_width", "count"),
];

/// Per-layer metrics computed by the run loop from all repetitions
/// rather than reported by a traced repetition.
#[cfg(test)]
pub const RUN_LEVEL: &[&str] = &[
    "trace_overhead_frac",
    "failed_frac",
    "settle_txs_per_s",
    "block_p50_ms",
    "block_p90_ms",
    "settle_ticks",
    "runtime.pool_width",
];

/// Looks a declared metric up by name.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is a legal metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a legal unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad metric name {:?}", metric.name);
            assert!(
                valid_unit(metric.unit),
                "bad unit {:?} on {}",
                metric.unit,
                metric.name
            );
            assert!(seen.insert(metric.name), "{} declared twice", metric.name);
        }
        assert!(!valid_name("has space") && !valid_name("_lead") && !valid_name(""));
        assert!(!valid_unit("") && !valid_unit("ms per block!"));
    }

    #[test]
    fn run_level_metrics_are_declared() {
        for name in RUN_LEVEL {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not a per-layer metric"
            );
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\"",
                metric.name, metric.unit
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
    }
}
