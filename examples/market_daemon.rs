//! The persistent market engine as a daemon: N concurrent trading
//! sessions under an open-loop Poisson arrival process, block
//! production on a cadence, and (optionally) a seeded fault schedule —
//! dropped/duplicated/delayed/corrupted gossip plus kill-and-restart
//! of validators and Byzantine proposers that tamper with their own
//! blocks — all inside the deterministic simulation.
//!
//! Run with: `cargo run --release --example market_daemon`
//!
//! Flags:
//!   --seed N        engine seed (default 42); same seed, same run
//!   --sessions N    concurrent market sessions (default 3)
//!   --validators N  validator replicas (default 4)
//!   --faults        derive a fault schedule from the seed
//!   --fault-seed N  derive the fault schedule from a separate seed
//!   --byzantine     derive a Byzantine-proposer schedule from the seed
//!   --shrink-demo N shrink the repair-forcing DST schedule at seed N
//!                   to a minimal one and print it (exits non-zero if
//!                   the minimized schedule is not strictly smaller)
//!   --trace PATH    write the observability stream (tradefl-trace/v1)
//!
//! Exits non-zero if the surviving validators do not converge to
//! bit-identical state or any session fails to settle.

use tradefl_engine::{Engine, EngineConfig, SessionSpec};
use tradefl_runtime::obs;
use tradefl_runtime::sim::faults::{ByzantineConfig, FaultConfig};

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)?.parse().ok()
}

/// `--shrink-demo SEED`: run the structural shrinker against the
/// repair-triggering DST property and print the minimal schedule.
fn shrink_demo(seed: u64) -> ! {
    println!("shrinking the repair-forcing schedule at seed {seed}...");
    match tradefl_engine::shrink_repair_schedule(seed) {
        None => {
            eprintln!("seed {seed} draws a quiet schedule (no repairs) — nothing to shrink");
            std::process::exit(1);
        }
        Some(outcome) => {
            println!("  tape draws : {} -> {}", outcome.initial_draws, outcome.minimized_draws);
            println!("  prop evals : {}", outcome.evals);
            println!("  minimal    : {}", outcome.scenario);
            println!("  failure    : {}", outcome.msg);
            if outcome.minimized_draws < outcome.initial_draws {
                std::process::exit(0);
            }
            eprintln!("FAILED: shrinker did not reduce the schedule");
            std::process::exit(1);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(shrink_seed) = flag_value(&args, "--shrink-demo") {
        shrink_demo(shrink_seed);
    }
    let trace = obs::trace_path_from_args();
    let seed = flag_value(&args, "--seed").unwrap_or(42);
    let sessions = flag_value(&args, "--sessions").unwrap_or(3) as usize;
    let validators = flag_value(&args, "--validators").unwrap_or(4) as usize;
    let horizon = 1u64 << 10;

    let fault_seed = flag_value(&args, "--fault-seed")
        .or_else(|| args.iter().any(|a| a == "--faults").then_some(seed));
    let faults = match fault_seed {
        Some(fs) => FaultConfig::from_seed(fs, validators, horizon),
        None => FaultConfig::none(),
    };
    let byzantine = if args.iter().any(|a| a == "--byzantine") {
        ByzantineConfig::from_seed(seed)
    } else {
        ByzantineConfig::none()
    };

    let config = EngineConfig {
        validators,
        sessions: (0..sessions)
            .map(|s| SessionSpec {
                name: format!("market-{s}"),
                orgs: 3 + s % 3,
                seed: seed.wrapping_add(s as u64),
            })
            .collect(),
        batch_interval: 8,
        mean_arrival_gap: 3.0,
        admission_capacity: 32,
        horizon,
        faults,
        byzantine: byzantine.clone(),
        ..EngineConfig::default()
    };

    println!(
        "market daemon: {} sessions, {} validators, seed {}{}{}",
        sessions,
        validators,
        seed,
        match fault_seed {
            Some(fs) => format!(", fault schedule from seed {fs}"),
            None => ", fault-free".into(),
        },
        if byzantine.tamper_p > 0.0 {
            format!(", Byzantine proposers (tamper_p={:.2})", byzantine.tamper_p)
        } else {
            String::new()
        }
    );

    let mut engine = Engine::new(config, seed)?;
    let report = engine.run()?;

    println!("\nafter {} simulated ticks:", report.ticks);
    println!("  chain height     : {}", report.final_height);
    println!("  blocks mined     : {} ({} batch ticks)", report.blocks, report.batches);
    println!("  backpressure     : {} deferred arrivals", report.backpressure);
    println!("  ledger heals     : {} (crash recovery + divergence repair)", report.heals);
    println!("  byzantine rounds : {} (tampered proposals rejected)", report.byzantine_rounds);
    println!("  tx re-queues     : {} (rounds lost with their only holder)", report.requeues);
    println!("  survivors        : {:?}", report.survivors);
    println!("  sessions settled : {}/{}", report.sessions_settled, report.sessions_total);
    println!("  state root       : {}", report.state_root);
    println!("  converged        : {}", report.converged);

    if let Some(path) = &trace {
        obs::write_trace(path)?;
        println!("\ntrace written to {}", path.display());
    }

    if !report.fully_settled() {
        eprintln!("FAILED: survivors diverged or sessions did not settle");
        std::process::exit(1);
    }
    Ok(())
}
