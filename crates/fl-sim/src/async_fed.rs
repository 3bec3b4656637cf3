//! Asynchronous federated training (the paper's footnote 2: "TradeFL
//! … is applicable to both synchronous and asynchronous scenarios").
//!
//! Organizations take heterogeneous wall-clock times per local update —
//! exactly the Eq. (2) timing model (`T_i = T^(1) + η_i d_i s_i / f_i +
//! T^(3)`). The server applies each update the moment it arrives,
//! down-weighting stale contributions with the standard polynomial
//! staleness discount of FedAsync-style protocols. The simulation runs
//! on a deterministic event queue, so results are reproducible and the
//! time axis is *model time*, not host time.

use crate::data::Dataset;
use crate::fed::{contributed_subsets, local_train, FedError, RoundMetrics, SiloScratch};
use crate::model::{Mlp, Workspace};
use tradefl_runtime::rng::{SeedableRng, StdRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Reusable scratch for the (sequential) async event loop: the SGD
/// scratch every dispatched local update shares. Created once per run,
/// so the per-step path allocates nothing once warm.
#[derive(Debug, Default)]
struct LoopScratch {
    silo: SiloScratch,
    /// The reusable local-model buffer: lazily cloned from the global
    /// model on the first dispatch, then refreshed in place with
    /// `copy_params_from` — no per-update model clone.
    local: Option<Mlp>,
}

/// Asynchronous-training options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncConfig {
    /// Total number of server updates to apply.
    pub updates: usize,
    /// Base mixing weight `α ∈ (0, 1]` for a fresh update.
    pub alpha: f32,
    /// Staleness exponent `a`: weight `α · (1 + staleness)^(-a)`.
    pub staleness_exponent: f32,
    /// Local epochs per dispatched update.
    pub local_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for local SGD.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
    /// Evaluate the global model every `eval_every` server updates.
    pub eval_every: usize,
    /// Scale each update's weight by the organization's contributed
    /// sample count (relative to the largest contributor). Without
    /// this, a fast organization holding almost no data dominates the
    /// server and stalls convergence.
    pub weight_by_samples: bool,
    /// Optional simulated-time budget (seconds). When set, the run
    /// stops at the first arrival past the budget — the natural way to
    /// compare against synchronous training, whose wall clock is
    /// `rounds × max_i latency_i` (the barrier waits for stragglers).
    pub time_budget: Option<f64>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        Self {
            updates: 60,
            alpha: 0.6,
            staleness_exponent: 0.5,
            local_epochs: 1,
            batch_size: 32,
            lr: 0.08,
            seed: 0,
            eval_every: 10,
            weight_by_samples: true,
            time_budget: None,
        }
    }
}

/// One applied server update (provenance for analysis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedUpdate {
    /// Which organization produced it.
    pub org: usize,
    /// Simulated arrival time (seconds of model time).
    pub arrival_time: f64,
    /// Server version the update was based on.
    pub based_on_version: usize,
    /// Server version after applying it.
    pub new_version: usize,
    /// Staleness (versions elapsed while the org trained).
    pub staleness: usize,
    /// Effective mixing weight after the staleness discount.
    pub weight: f32,
}

/// Result of an asynchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncOutcome {
    /// The final global model.
    pub model: Mlp,
    /// Evaluation checkpoints (`round` = server version).
    pub history: Vec<RoundMetrics>,
    /// Every applied update, in arrival order.
    pub updates: Vec<AppliedUpdate>,
    /// Total simulated wall-clock time (seconds).
    pub elapsed: f64,
}

impl AsyncOutcome {
    /// Final test accuracy.
    pub fn final_accuracy(&self) -> f32 {
        self.history.last().map_or(f32::NAN, |m| m.accuracy)
    }

    /// Final test loss.
    pub fn final_loss(&self) -> f32 {
        self.history.last().map_or(f32::NAN, |m| m.loss)
    }

    /// The largest staleness observed (heterogeneity indicator).
    pub fn max_staleness(&self) -> usize {
        self.updates.iter().map(|u| u.staleness).max().unwrap_or(0)
    }
}

/// Per-organization timing for the event simulation: seconds per
/// dispatched update, straight from Eq. (2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrgTiming {
    /// Fixed communication time `T^(1) + T^(3)` (seconds).
    pub comm: f64,
    /// Compute time for the org's contracted `d_i` at its chosen `f_i`:
    /// `η_i d_i s_i / f_i` (seconds).
    pub compute: f64,
}

impl OrgTiming {
    /// Total latency of one update.
    pub fn latency(&self) -> f64 {
        self.comm + self.compute
    }
}

#[derive(Debug, PartialEq)]
struct Arrival {
    time: f64,
    org: usize,
    based_on_version: usize,
    params: Vec<f32>,
}

impl Eq for Arrival {}

impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by time (BinaryHeap is a max-heap), tie-break by org
        // for determinism.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.org.cmp(&self.org))
    }
}

impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs asynchronous federated training.
///
/// `fractions[i]` is organization `i`'s contracted data fraction `d_i`;
/// `timings[i]` its Eq. (2) latency. Organizations with `d_i = 0` (or an
/// empty shard) never dispatch.
///
/// # Errors
///
/// Returns [`FedError`] on shape mismatches (a [`FedError::TimingCount`]
/// when `timings` does not match `shards`) or when nobody contributes.
pub fn train_async(
    mut global: Mlp,
    shards: &[Dataset],
    test: &Dataset,
    fractions: &[f64],
    timings: &[OrgTiming],
    config: &AsyncConfig,
) -> Result<AsyncOutcome, FedError> {
    let contributed = contributed_subsets(shards, fractions)?;
    if timings.len() != shards.len() {
        return Err(FedError::TimingCount { shards: shards.len(), timings: timings.len() });
    }
    let max_contribution = contributed.iter().map(Dataset::len).max().unwrap_or(1) as f32;
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xa57c_f3d1);
    let mut heap: BinaryHeap<Arrival> = BinaryHeap::new();
    let mut version = 0usize;
    let mut scratch = LoopScratch::default();
    let mut eval_ws = Workspace::new();

    // Every contributor starts training against version 0 at t = 0.
    for (org, data) in contributed.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
        let params = local_update(&global, data, config, &mut rng, &mut scratch);
        heap.push(Arrival {
            time: timings[org].latency(),
            org,
            based_on_version: 0,
            params,
        });
    }

    let (loss, accuracy) = global.evaluate_with(test, &mut eval_ws);
    let mut history = vec![RoundMetrics { round: 0, loss, accuracy }];
    let mut applied = Vec::with_capacity(config.updates.min(4096));
    let mut now = 0.0f64;
    while version < config.updates {
        if let (Some(budget), Some(next)) = (config.time_budget, heap.peek()) {
            if next.time > budget {
                break;
            }
        }
        // lint:allow(no-panic-in-lib): the loop guard above breaks before the queue can drain
        let arrival = heap.pop().expect("contributors keep the queue non-empty");
        now = arrival.time;
        let staleness = version - arrival.based_on_version;
        let size_factor = if config.weight_by_samples {
            contributed[arrival.org].len() as f32 / max_contribution
        } else {
            1.0
        };
        let weight = config.alpha
            * size_factor
            * (1.0 + staleness as f32).powf(-config.staleness_exponent);
        // θ ← θ + w (θ_local − θ), in place — no to_params/set_params
        // round trip per applied update.
        global.mix_params(&arrival.params, weight);
        version += 1;
        applied.push(AppliedUpdate {
            org: arrival.org,
            arrival_time: now,
            based_on_version: arrival.based_on_version,
            new_version: version,
            staleness,
            weight,
        });
        if version % config.eval_every.max(1) == 0 || version == config.updates {
            let (loss, accuracy) = global.evaluate_with(test, &mut eval_ws);
            history.push(RoundMetrics { round: version, loss, accuracy });
        }
        // The org immediately starts its next update from the new model.
        let org = arrival.org;
        let params = local_update(&global, &contributed[org], config, &mut rng, &mut scratch);
        heap.push(Arrival {
            time: now + timings[org].latency(),
            org,
            based_on_version: version,
            params,
        });
    }
    if history.last().map(|m| m.round) != Some(version) {
        let (loss, accuracy) = global.evaluate_with(test, &mut eval_ws);
        history.push(RoundMetrics { round: version, loss, accuracy });
    }
    Ok(AsyncOutcome { model: global, history, updates: applied, elapsed: now })
}

fn local_update(
    global: &Mlp,
    data: &Dataset,
    config: &AsyncConfig,
    rng: &mut StdRng,
    scratch: &mut LoopScratch,
) -> Vec<f32> {
    // One params flatten per dispatched update is inherent (the
    // arrival queue owns the vector); the local model is a reusable
    // scratch buffer refreshed in place, and every per-step buffer
    // comes from `scratch`.
    let local = scratch.local.get_or_insert_with(|| global.clone());
    local.copy_params_from(global);
    local_train(
        local,
        data,
        config.local_epochs,
        config.batch_size,
        config.lr,
        rng,
        &mut scratch.silo,
    );
    local.to_params()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate, DatasetKind};
    use crate::model::{Mlp, ModelKind};

    fn setup(n: usize) -> (Vec<Dataset>, Dataset) {
        let pool = generate(DatasetKind::EurosatLike, 300 * n + 400, 21);
        let mut sizes = vec![300; n];
        sizes.push(400);
        let mut shards = pool.shard(&sizes);
        let test = shards.pop().unwrap();
        (shards, test)
    }

    fn even_timings(n: usize) -> Vec<OrgTiming> {
        (0..n).map(|_| OrgTiming { comm: 5.0, compute: 20.0 }).collect()
    }

    #[test]
    fn async_training_improves_accuracy() {
        let (shards, test) = setup(3);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 5);
        let out = train_async(
            global,
            &shards,
            &test,
            &[1.0, 1.0, 1.0],
            &even_timings(3),
            &AsyncConfig::default(),
        )
        .unwrap();
        assert!(out.final_accuracy() > out.history[0].accuracy + 0.15);
        assert_eq!(out.updates.len(), AsyncConfig::default().updates);
        assert!(out.elapsed > 0.0);
    }

    #[test]
    fn fast_orgs_contribute_more_updates() {
        let (shards, test) = setup(2);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 5);
        let timings = vec![
            OrgTiming { comm: 5.0, compute: 10.0 },  // fast
            OrgTiming { comm: 5.0, compute: 100.0 }, // slow straggler
        ];
        let out = train_async(
            global,
            &shards,
            &test,
            &[1.0, 1.0],
            &timings,
            &AsyncConfig::default(),
        )
        .unwrap();
        let fast = out.updates.iter().filter(|u| u.org == 0).count();
        let slow = out.updates.iter().filter(|u| u.org == 1).count();
        assert!(fast > 3 * slow, "fast {fast} vs slow {slow}");
        // The straggler's updates are stale and down-weighted.
        let max_slow_weight = out
            .updates
            .iter()
            .filter(|u| u.org == 1 && u.staleness > 0)
            .map(|u| u.weight)
            .fold(0.0f32, f32::max);
        assert!(max_slow_weight < AsyncConfig::default().alpha);
        assert!(out.max_staleness() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (shards, test) = setup(2);
        let run = |seed| {
            let global =
                Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 5);
            train_async(
                global,
                &shards,
                &test,
                &[0.8, 0.6],
                &even_timings(2),
                &AsyncConfig { seed, ..Default::default() },
            )
            .unwrap()
            .final_accuracy()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn rejects_bad_inputs() {
        let (shards, test) = setup(2);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 5);
        let run = |fractions: &[f64], timings: &[OrgTiming]| {
            train_async(global.clone(), &shards, &test, fractions, timings, &AsyncConfig::default())
                .map(|_| ())
        };
        assert_eq!(
            run(&[1.0], &even_timings(2)),
            Err(FedError::FractionCount { shards: 2, fractions: 1 })
        );
        assert_eq!(
            run(&[2.0, 0.5], &even_timings(2)),
            Err(FedError::BadFraction { org: 0, value: 2.0 })
        );
        assert_eq!(run(&[0.0, 0.0], &even_timings(2)), Err(FedError::NothingContributed));
        // A timing-count mismatch names the timings, not the fractions.
        let err = run(&[1.0, 1.0], &even_timings(3)).unwrap_err();
        assert_eq!(err, FedError::TimingCount { shards: 2, timings: 3 });
        assert_eq!(err.to_string(), "3 timings for 2 shards");
    }

    #[test]
    fn zero_fraction_org_never_dispatches() {
        let (shards, test) = setup(2);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 5);
        let out = train_async(
            global,
            &shards,
            &test,
            &[0.0, 1.0],
            &even_timings(2),
            &AsyncConfig { updates: 20, ..Default::default() },
        )
        .unwrap();
        assert!(out.updates.iter().all(|u| u.org == 1));
    }
}
