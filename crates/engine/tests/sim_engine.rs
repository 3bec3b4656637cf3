//! Deterministic simulation testing (DST) for the market engine.
//!
//! Each case boots a full stack — solver, sessions, validator network
//! — inside the simulated event loop and subjects it to a *seeded*
//! fault schedule: dropped, duplicated, delayed, truncated, and
//! corrupted frames, kill-and-restart of validators mid-run, and
//! Byzantine proposers that gossip tampered blocks. The claims under
//! test, for any seed:
//!
//! 1. **Convergence** — every surviving validator ends at the
//!    canonical tip hash and state root, bit-identical, and every
//!    session settles on-chain — with catch-up gossip-only (replicas
//!    pull from live peers; there is no trusted node).
//! 2. **Replay identity** — running the same seed twice produces the
//!    identical [`EngineReport`] *and* the identical observability
//!    event stream, byte for byte — on any worker-pool size.
//! 3. **Recovery** — a validator killed mid-run (losing all in-memory
//!    state) recovers purely by pulling the ledger from live peers,
//!    and transactions lost with a crashed proposer are
//!    re-queued and re-mined exactly once.
//! 4. **Checkpoint/restore** — a live engine serialized through the
//!    chain export/import codec and restored (on any worker-pool size)
//!    finishes in the same final state as the uninterrupted run.

use tradefl_engine::{Engine, EngineConfig, EngineReport, SessionSpec};
use tradefl_ledger::codec::{decode_chain, encode_chain};
use tradefl_runtime::obs;
use tradefl_runtime::sim::faults::{ByzantineConfig, CrashPlan, FaultConfig};
use tradefl_runtime::{prop_assert, prop_assert_eq, props};

const VALIDATORS: usize = 3;
const HORIZON: u64 = 512;

/// A small-but-real configuration: one 3-org market session under the
/// given fault schedule.
fn dst_config(faults: FaultConfig) -> EngineConfig {
    EngineConfig {
        validators: VALIDATORS,
        sessions: vec![SessionSpec { name: "dst".into(), orgs: 3, seed: 2 }],
        batch_interval: 6,
        mean_arrival_gap: 2.0,
        admission_capacity: 8,
        horizon: HORIZON,
        faults,
        ..EngineConfig::default()
    }
}

/// [`dst_config`] plus a seed-derived Byzantine-proposer schedule —
/// the full adversarial surface in one configuration.
fn adversarial_config(seed: u64) -> EngineConfig {
    let mut config = dst_config(FaultConfig::from_seed(seed, VALIDATORS, HORIZON));
    config.byzantine = ByzantineConfig::from_seed(seed);
    config
}

/// Runs `f` under a local observability recorder and returns its result
/// plus the recorded event stream.
fn traced<R>(f: impl FnOnce() -> R) -> (R, String) {
    let (out, snapshot) = obs::with_local(f);
    (out, snapshot.events_jsonl())
}

/// Runs `(config, seed)` to completion under a local observability
/// recorder and returns the report plus the recorded event stream.
fn run_traced(config: EngineConfig, seed: u64) -> (EngineReport, String) {
    traced(|| {
        let mut engine = Engine::new(config, seed).expect("engine boots");
        engine.run().expect("run completes")
    })
}

/// The headline DST sweep: 100 seeds, each deriving its own fault
/// schedule (frame faults + up to one kill-and-restart per node) *and*
/// its own Byzantine-proposer schedule. Every run must converge to
/// bit-identical state across survivors, settle all sessions, and
/// replay to the identical report and event stream.
#[test]
fn hundred_seeded_fault_schedules_converge_and_replay_identically() {
    let mut crashy_seeds = 0u32;
    let mut healing_seeds = 0u32;
    let mut byzantine_seeds = 0u32;
    for seed in 0..100u64 {
        let config = adversarial_config(seed);
        if !config.faults.crashes.is_empty() {
            crashy_seeds += 1;
        }
        let (report, trace) = run_traced(config.clone(), seed);
        assert!(
            report.converged,
            "seed {seed}: survivors diverged from the canonical chain: {report:?}"
        );
        assert!(
            report.fully_settled(),
            "seed {seed}: sessions did not settle: {report:?}"
        );
        assert_eq!(
            report.survivors,
            (0..VALIDATORS).collect::<Vec<_>>(),
            "seed {seed}: seeded schedules restart every crashed node"
        );
        if report.heals > 0 {
            healing_seeds += 1;
        }
        if report.byzantine_rounds > 0 {
            byzantine_seeds += 1;
        }

        let (replay, replay_trace) = run_traced(config, seed);
        assert_eq!(report, replay, "seed {seed}: replay must be report-identical");
        assert_eq!(
            trace, replay_trace,
            "seed {seed}: replay must be event-stream-identical"
        );
    }
    // The sweep must actually exercise the fault machinery, not idle
    // through 100 quiet runs.
    assert!(crashy_seeds >= 20, "only {crashy_seeds}/100 schedules had crashes");
    assert!(healing_seeds >= 20, "only {healing_seeds}/100 runs healed a node");
    assert!(byzantine_seeds >= 20, "only {byzantine_seeds}/100 runs saw a proposer lie");
}

/// Gossip-only repair: catch-up has no trusted node — crashed,
/// lagging, and lied-to replicas all recover by pulling from live
/// peers — and every adversarial run must still converge, settle, and
/// make blocks.
#[test]
fn thirty_adversarial_seeds_converge_by_gossip_only_repair() {
    let mut repaired_seeds = 0u32;
    for seed in 0..30u64 {
        let mut engine = Engine::new(adversarial_config(seed), seed).expect("engine boots");
        let report = engine.run().expect("run completes");
        assert!(report.converged, "seed {seed}: {report:?}");
        assert!(report.fully_settled(), "seed {seed}: {report:?}");
        assert!(report.final_height > 1, "seed {seed}: the market must make blocks");
        if report.heals > 0 || report.byzantine_rounds > 0 {
            repaired_seeds += 1;
        }
    }
    assert!(
        repaired_seeds >= 10,
        "only {repaired_seeds}/30 runs exercised gossip-only repair"
    );
}

/// Workers must never leak into simulation outcomes: the same
/// adversarial schedule (faulted gossip + crashes + Byzantine
/// proposers) converges bit-identically — report and
/// event stream — across 1/4/8-worker pools.
#[test]
fn adversarial_runs_are_bit_identical_across_worker_pools() {
    let mut byzantine_and_crashy = 0u32;
    for seed in 0..8u64 {
        let run = |workers: usize| {
            let mut config = adversarial_config(seed);
            config.workers = workers;
            run_traced(config, seed)
        };
        let (r1, t1) = run(1);
        let (r4, t4) = run(4);
        let (r8, t8) = run(8);
        assert_eq!(r1, r4, "seed {seed}: 4-worker report drifted");
        assert_eq!(r1, r8, "seed {seed}: 8-worker report drifted");
        assert_eq!(t1, t4, "seed {seed}: 4-worker event stream drifted");
        assert_eq!(t1, t8, "seed {seed}: 8-worker event stream drifted");
        assert!(r1.converged && r1.fully_settled(), "seed {seed}: {r1:?}");
        if r1.byzantine_rounds > 0 && r1.heals > 0 {
            byzantine_and_crashy += 1;
        }
    }
    // The acceptance scenario — faulted gossip, crashed validators,
    // and at least one Byzantine proposer in the same run — must
    // actually occur in this matrix.
    assert!(byzantine_and_crashy >= 1, "no seed combined lies with repairs");
}

// ---------------------------------------------------------------------
// Kill-and-restart regressions: explicit crash schedules, no frame
// faults, so each run isolates exactly one recovery scenario.
// ---------------------------------------------------------------------

fn crash_only(crashes: Vec<CrashPlan>) -> FaultConfig {
    FaultConfig { crashes, ..FaultConfig::none() }
}

/// A validator killed mid-run loses all in-memory state; its restart
/// recovers purely by pulling the ledger from live peers and it
/// converges.
#[test]
fn killed_node_recovers_by_peer_catchup_and_converges() {
    let faults = crash_only(vec![CrashPlan { node: 1, at: 40, down_for: 120 }]);
    let (report, _) = run_traced(dst_config(faults), 1);
    assert!(report.heals >= 1, "the restart must rebuild from peers: {report:?}");
    assert!(report.converged, "{report:?}");
    assert!(report.fully_settled(), "{report:?}");
    assert_eq!(report.survivors, vec![0, 1, 2]);
}

/// Satellite regression (zero-survivor convergence): kill every
/// validator permanently mid-run. Pre-fix, `converged_among(&[])` made
/// the report claim convergence over nobody; now the run winds down,
/// reports `no_survivors`, and refuses the vacuous claim.
#[test]
fn killing_all_validators_is_not_reported_as_convergence() {
    let faults = crash_only(
        (0..VALIDATORS)
            .map(|node| CrashPlan { node, at: 60, down_for: CrashPlan::NEVER_RESTARTS })
            .collect(),
    );
    let (report, trace) = run_traced(dst_config(faults.clone()), 5);
    assert!(report.no_survivors, "{report:?}");
    assert!(report.survivors.is_empty(), "{report:?}");
    assert!(!report.converged, "zero survivors must not be 'converged': {report:?}");
    assert!(!report.fully_settled(), "{report:?}");
    // The doomed run is still deterministic.
    let (replay, replay_trace) = run_traced(dst_config(faults), 5);
    assert_eq!(report, replay);
    assert_eq!(trace, replay_trace);
}

/// Satellite regression (election replay identity): checkpoint in the
/// middle of a crash schedule — after the crash, before the restart —
/// with Byzantine rounds in play, and resume. Pre-fix, a restore that
/// reset the proposer cursor (or an election that double-counted the
/// restarted validator) silently diverged replay; the term-based
/// election must resume bit-identically, down to the full report.
#[test]
fn checkpoint_mid_crash_schedule_resumes_elections_bit_identically() {
    let seed = 9;
    // Stretch arrivals so mining is still in progress inside both
    // outage windows: a restore that mis-resumes the election term
    // elects different proposers for the remaining rounds and the
    // reports diverge (Byzantine decisions consume differently).
    let mut config = dst_config(crash_only(vec![
        CrashPlan { node: 1, at: 40, down_for: 120 },
        CrashPlan { node: 2, at: 200, down_for: 80 },
    ]));
    config.mean_arrival_gap = 24.0;
    config.byzantine = ByzantineConfig { tamper_p: 0.3 };

    let mut uninterrupted = Engine::new(config.clone(), seed).unwrap();
    let expected = uninterrupted.run().unwrap();
    assert!(expected.byzantine_rounds > 0, "schedule must exercise elections: {expected:?}");
    assert!(expected.fully_settled(), "{expected:?}");
    assert!(expected.ticks > 280, "mining must span both outage windows: {expected:?}");

    // Checkpoint inside the first outage (node 1 down, restart pending)
    // and again inside the second; both must resume to the exact end
    // state of the uninterrupted run.
    for window in [(40u64, 160u64), (200, 280)] {
        let mut live = Engine::new(config.clone(), seed).unwrap();
        while live.now() < window.0 {
            assert!(live.step().unwrap(), "run ended before the outage window");
        }
        assert!(live.now() < window.1, "stepped past the outage window");
        let bytes = live.checkpoint();
        let mut restored = Engine::restore(config.clone(), seed, &bytes).unwrap();
        let resumed = restored.run().unwrap();
        assert_eq!(
            resumed, expected,
            "restore inside outage window {window:?} diverged"
        );
        // The election cursor itself must replay: a restore that reset
        // (or re-derived) the term would elect the right proposers only
        // by parity luck inside a 2-survivor window.
        assert_eq!(
            restored.term(),
            uninterrupted.term(),
            "election term diverged after restore in window {window:?}"
        );
    }
}

/// Satellite regression (crash-during-propose): with gossip totally
/// dropped, the first proposer mines a round that exists nowhere else,
/// then dies. The round's transactions must be re-queued and re-mined
/// by the next elected proposer — exactly once, no duplicate nonces —
/// and the session still settles.
#[test]
fn round_lost_with_crashed_proposer_is_requeued_and_remined_exactly_once() {
    let mut config = dst_config(FaultConfig {
        drop_p: 1.0, // no frame ever arrives: every block is sole-copy
        ..crash_only(vec![CrashPlan { node: 0, at: 8, down_for: 100 }])
    });
    config.validators = 2;
    let seed = 2;
    let mut engine = Engine::new(config, seed).unwrap();
    let report = engine.run().unwrap();
    assert!(report.requeues > 0, "the lost round must be re-queued: {report:?}");
    assert!(report.converged, "{report:?}");
    assert!(report.fully_settled(), "{report:?}");

    // Exactly-once: every scripted transaction appears in exactly one
    // block of the canonical chain (requeueing must not double-mine).
    let contract = engine.contract(0).unwrap();
    let scripted: Vec<_> =
        engine.session_plan(0).unwrap().scripted_txs(contract).collect();
    let chain = engine.network().validator(1).node.chain();
    for (k, tx) in scripted.iter().enumerate() {
        let mined_in = chain
            .blocks()
            .iter()
            .filter(|b| b.txs.iter().any(|t| t.hash() == tx.hash()))
            .count();
        assert_eq!(mined_in, 1, "scripted tx {k} mined {mined_in} times");
    }
}

/// Regression (a block lost to a drop, then a lie): a proposer whose
/// honest block reached no peer, elected again and lying, used to be
/// rebuilt from genesis and lose that block with it. Its txs were then
/// requeued behind later txs of their session, which reverted. A liar
/// now keeps its chain, so with no crash and no corruption no round is
/// ever lost: nothing is requeued and every session settles.
#[test]
fn dropped_block_survives_its_proposers_next_lie() {
    for seed in 0..25u64 {
        let mut config = dst_config(FaultConfig { drop_p: 0.25, ..FaultConfig::none() });
        config.validators = 4;
        config.sessions = (0..12u64)
            .map(|k| SessionSpec { name: format!("s{k}"), orgs: 3, seed: k })
            .collect();
        config.byzantine = ByzantineConfig { tamper_p: 0.3 };
        let report = Engine::new(config, seed).unwrap().run().unwrap();
        assert_eq!(report.requeues, 0, "seed {seed}: a round was lost: {report:?}");
        assert!(report.fully_settled(), "seed {seed}: {report:?}");
    }
}

/// Killing the first proposer does not stall block production: the
/// rotation skips dead nodes, the session settles, and the dead node
/// catches up after its restart.
#[test]
fn killing_the_lead_proposer_does_not_stall_the_market() {
    let faults = crash_only(vec![CrashPlan { node: 0, at: 10, down_for: 300 }]);
    let (report, _) = run_traced(dst_config(faults), 2);
    assert!(report.blocks > 0, "peers must keep proposing: {report:?}");
    assert!(report.converged, "{report:?}");
    assert!(report.fully_settled(), "{report:?}");
}

/// Two validators down at once (overlapping outages) leaves a single
/// live proposer; both recover and converge.
#[test]
fn overlapping_outages_of_two_nodes_still_converge() {
    let faults = crash_only(vec![
        CrashPlan { node: 1, at: 30, down_for: 150 },
        CrashPlan { node: 2, at: 60, down_for: 150 },
    ]);
    let (report, _) = run_traced(dst_config(faults), 3);
    assert!(report.heals >= 2, "both restarts must heal: {report:?}");
    assert!(report.converged, "{report:?}");
    assert!(report.fully_settled(), "{report:?}");
}

/// Kill-and-restart under heavy frame faults at the same time: the
/// restarted node must recover even while gossip around it is lossy
/// and corrupting.
#[test]
fn restart_under_heavy_frame_faults_still_recovers() {
    let faults = FaultConfig {
        drop_p: 0.3,
        dup_p: 0.2,
        delay_p: 0.4,
        max_delay: 40,
        truncate_p: 0.2,
        corrupt_p: 0.2,
        crashes: vec![CrashPlan { node: 2, at: 50, down_for: 100 }],
    };
    let (report, _) = run_traced(dst_config(faults), 4);
    assert!(report.converged, "{report:?}");
    assert!(report.fully_settled(), "{report:?}");
    assert_eq!(report.survivors, vec![0, 1, 2]);
}

// ---------------------------------------------------------------------
// Checkpoint/restore properties (live sessions through the chain
// export/import codec).
// ---------------------------------------------------------------------

props! {
    #![cases = 10]

    /// Interrupting an adversarial run (frame faults + crashes +
    /// Byzantine proposers) at an arbitrary point, checkpointing, and
    /// restoring — on a worker pool of 1, 4, or 8 — finishes in
    /// exactly the uninterrupted run's final state.
    fn checkpoint_restore_matches_uninterrupted_run(g) {
        let seed = g.u64(0..1_000_000);
        let steps = g.usize(1..120);

        let mut uninterrupted = Engine::new(adversarial_config(seed), seed).unwrap();
        let expected = uninterrupted.run().unwrap();

        let mut live = Engine::new(adversarial_config(seed), seed).unwrap();
        let mut remaining = steps;
        while remaining > 0 && live.step().unwrap() {
            remaining -= 1;
        }
        let bytes = live.checkpoint();

        for workers in [1usize, 4, 8] {
            let mut config = adversarial_config(seed);
            config.workers = workers;
            let mut restored = Engine::restore(config, seed, &bytes).unwrap();
            // Whatever restore rebuilds beside the decoded sections
            // (the mined-tx hashes, the receipt indexes) stays out of
            // the bytes: re-checkpointing reproduces them exactly.
            prop_assert!(restored.checkpoint() == bytes, "re-checkpoint after restore differs");
            let resumed = restored.run().unwrap();
            prop_assert_eq!(resumed.state_root, expected.state_root);
            prop_assert_eq!(resumed.final_height, expected.final_height);
            prop_assert_eq!(resumed.blocks, expected.blocks);
            prop_assert_eq!(resumed.survivors.clone(), expected.survivors.clone());
            prop_assert!(resumed.converged);
        }
    }

    /// The ledger export codec round-trips: export → import → export is
    /// byte-identical, and the imported chain carries the same tip.
    /// (Exports come from a converged replica.)
    fn chain_export_import_export_is_byte_identical(g) {
        let seed = g.u64(0..1_000_000);
        let mut engine = Engine::new(adversarial_config(seed), seed).unwrap();
        let report = engine.run().unwrap();
        prop_assert!(report.converged);

        let chain = engine.network().validator(0).node.chain();
        let exported = encode_chain(chain);
        let imported = decode_chain(&exported).unwrap();
        prop_assert_eq!(imported.tip_hash(), chain.tip_hash());
        prop_assert_eq!(imported.height(), chain.height());
        let re_exported = encode_chain(&imported);
        prop_assert_eq!(exported, re_exported);
    }

    /// A checkpoint taken at one point and restored twice yields two
    /// engines that finish bit-identically (restore is deterministic,
    /// not merely correct).
    fn restore_is_deterministic(g) {
        let seed = g.u64(0..1_000_000);
        let steps = g.usize(1..60);

        let mut live = Engine::new(adversarial_config(seed), seed).unwrap();
        let mut remaining = steps;
        while remaining > 0 && live.step().unwrap() {
            remaining -= 1;
        }
        let bytes = live.checkpoint();

        let run_restored = || {
            traced(|| {
                let mut e = Engine::restore(adversarial_config(seed), seed, &bytes).unwrap();
                e.run().unwrap()
            })
        };
        let (a, ta) = run_restored();
        let (b, tb) = run_restored();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(ta, tb);
    }

}

/// The structural shrinker minimizes a failing engine DST schedule: a
/// known-bad seed (its drawn schedule forces repairs) shrinks to a
/// strictly smaller tape whose scenario still triggers the failure.
/// One pinned seed, not a prop — each shrink search replays hundreds
/// of engine runs.
#[test]
fn shrinker_minimizes_a_known_bad_schedule() {
    let outcome = tradefl_engine::shrink_repair_schedule(7)
        .expect("seed 7's schedule must force a repair");
    assert!(
        outcome.minimized_draws < outcome.initial_draws,
        "shrink must strictly reduce the tape: {} -> {} ({} evals)",
        outcome.initial_draws,
        outcome.minimized_draws,
        outcome.evals
    );
    assert!(outcome.evals > 0);
    assert!(outcome.msg.contains("repair"), "{}", outcome.msg);
    // The minimal schedule still prints as a complete, replayable case.
    let text = outcome.scenario.to_string();
    assert!(text.contains("seed="), "{text}");
    assert!(text.contains("crashes=["), "{text}");
}
