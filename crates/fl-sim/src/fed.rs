//! FedAvg cross-silo training (§III-B, Eqs. 1-3).
//!
//! Organizations hold disjoint shards; each round they train locally on
//! the `d_i`-fraction of their shard they agreed to contribute, and the
//! server aggregates parameters weighted by contributed sample counts
//! (Eq. 3's `d_i |S_i|` weights, normalized). The local-SGD loop
//! (`local_train`) and the input check (`contributed_subsets`) are
//! shared with [`crate::async_fed`].

//! Edge groups of silos train as the tasks of one fork-join pool
//! scope per window: each `(round, org)` pair derives its own RNG seed
//! from `config.seed` (SplitMix64-style mixing), so a silo's local run
//! is a pure function of `(global model, shard, round, org)` —
//! independent of scheduling — and client deltas are merged in fixed
//! silo order. Results are therefore bit-identical for every worker
//! count.

use crate::data::{Dataset, MiniBatch};
use crate::model::{Mlp, Workspace};
use tradefl_runtime::obs;
use tradefl_runtime::rng::{SeedableRng, SliceRandom, StdRng};
use tradefl_runtime::sync::pool::Pool;

/// Minimum per-round work — contributed samples × local epochs — below
/// which a round trains one edge group per scope, so every scope runs
/// inline on the calling thread even on a multi-worker pool:
/// scoped-thread spawn and merge overhead beats the win on small
/// rounds. The group partials merge in group order either way, so
/// results stay bit-identical (module docs above).
const POOLED_FED_MIN_STEPS: usize = 2048;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedConfig {
    /// Number of federated rounds.
    pub rounds: usize,
    /// Local epochs per round (the paper's `G` is the total number of
    /// training epochs; `rounds × local_epochs` plays that role here).
    pub local_epochs: usize,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// RNG seed for batch shuffling.
    pub seed: u64,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self { rounds: 30, local_epochs: 2, batch_size: 32, lr: 0.08, seed: 0 }
    }
}

/// Global-model metrics after one round (the Figs. 13-14 series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundMetrics {
    /// Round index (1-based; 0 is the untrained model).
    pub round: usize,
    /// Test cross-entropy loss.
    pub loss: f32,
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f32,
}

/// Outcome of a federated training run.
#[derive(Debug, Clone, PartialEq)]
pub struct FedOutcome {
    /// The trained global model.
    pub model: Mlp,
    /// Per-round test metrics, starting with round 0 (untrained).
    pub history: Vec<RoundMetrics>,
}

impl FedOutcome {
    /// Final test accuracy.
    pub fn final_accuracy(&self) -> f32 {
        self.history.last().map_or(f32::NAN, |m| m.accuracy)
    }

    /// Final test loss.
    pub fn final_loss(&self) -> f32 {
        self.history.last().map_or(f32::NAN, |m| m.loss)
    }
}

/// Errors from federated training setup.
#[derive(Debug, Clone, PartialEq)]
pub enum FedError {
    /// `fractions.len()` differs from the number of shards.
    FractionCount {
        /// Number of shards.
        shards: usize,
        /// Number of fractions provided.
        fractions: usize,
    },
    /// A fraction was outside `[0, 1]` or not finite.
    BadFraction {
        /// The shard index.
        org: usize,
        /// The offending value.
        value: f64,
    },
    /// No organization contributed any data.
    NothingContributed,
    /// `timings.len()` differs from the number of shards (async
    /// training only).
    TimingCount {
        /// Number of shards.
        shards: usize,
        /// Number of timings provided.
        timings: usize,
    },
}

impl std::fmt::Display for FedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FedError::FractionCount { shards, fractions } => {
                write!(f, "{fractions} fractions for {shards} shards")
            }
            FedError::BadFraction { org, value } => {
                write!(f, "fraction {value} of org {org} outside [0, 1]")
            }
            FedError::NothingContributed => write!(f, "no organization contributed data"),
            FedError::TimingCount { shards, timings } => {
                write!(f, "{timings} timings for {shards} shards")
            }
        }
    }
}

impl std::error::Error for FedError {}

/// Runs FedAvg with per-organization contribution fractions `d`.
///
/// `global` is consumed as the starting model (round 0 is evaluated
/// before any training).
///
/// # Errors
///
/// [`FedError`] on shape/fraction problems or when `Σ d_i |S_i| = 0`.
pub fn train_federated(
    global: Mlp,
    shards: &[Dataset],
    test: &Dataset,
    fractions: &[f64],
    config: &FedConfig,
) -> Result<FedOutcome, FedError> {
    train_federated_with(global, shards, test, fractions, config, Pool::global())
}

/// Silos per edge group in the hierarchical aggregation of
/// [`train_federated_with`]. A compile-time constant — never a function
/// of the worker count — so the grouping, and therefore every
/// floating-point association in the reduce, is identical for every
/// pool size. 32 silos × one weighted partial keeps a group's work
/// well above the pool's dispatch cost while bounding live memory at
/// O(model × workers).
pub const EDGE_GROUP_SIZE: usize = 32;

/// [`train_federated`] on an explicit pool, with hierarchical two-level
/// streaming aggregation: silos are partitioned into contiguous *edge
/// groups* of [`EDGE_GROUP_SIZE`]; each group trains its silos
/// sequentially on one reusable model buffer (no per-silo `clone`) and
/// streams their weighted parameters into a preallocated f64 partial;
/// the server merges group partials in fixed group order. Live memory
/// per round is O(model × active groups) — bounded by the worker count,
/// never by the silo count.
///
/// Determinism: groups are a pure function of the silo index, every
/// silo trains from a seed derived from `(round, org)` (see the module
/// docs), within-group accumulation runs in silo order and the global
/// merge in group order — all independent of scheduling, so results
/// are bit-identical for every worker count.
///
/// # Errors
///
/// See [`train_federated`].
pub fn train_federated_with(
    mut global: Mlp,
    shards: &[Dataset],
    test: &Dataset,
    fractions: &[f64],
    config: &FedConfig,
    pool: &Pool,
) -> Result<FedOutcome, FedError> {
    let contributed = contributed_subsets(shards, fractions)?;
    let weights: Vec<f64> = contributed.iter().map(|c| c.len() as f64).collect();
    let total_weight: f64 = weights.iter().sum();

    // Evaluation scratch, merge buffers and the per-worker group slots
    // live across rounds, so the steady-state round loop allocates
    // nothing but each window's pool-scope task boxes (machine-checked:
    // `run_round`, `train_group` and `local_train` are in the
    // `no-alloc-in-hot-loop` lint scope).
    let n_silos = contributed.len();
    let n_groups = n_silos.div_ceil(EDGE_GROUP_SIZE);
    // Fan-out is thresholded on per-round work (an instance property —
    // see POOLED_FED_MIN_STEPS); small rounds get one slot, so each
    // window's scope holds one group job and runs it inline.
    // Live aggregation memory: one model + one f64 partial per slot,
    // O(model × min(workers, groups)) — independent of the silo count.
    let round_steps = total_weight as usize * config.local_epochs.max(1);
    let n_slots =
        if round_steps >= POOLED_FED_MIN_STEPS { pool.workers().min(n_groups) } else { 1 };
    let mut slots: Vec<GroupSlot> = (0..n_slots).map(|_| GroupSlot::for_model(&global)).collect();
    let mut silo_stats: Vec<Option<(f32, f32)>> = vec![None; n_silos];
    let mut eval_ws = Workspace::new();
    let mut aggregate = vec![0.0f64; global.param_count()];
    let mut params = vec![0.0f32; global.param_count()];
    // Participation is a round-invariant property of the contributed
    // subsets (a silo with an empty subset never trains).
    let participating = contributed.iter().filter(|c| !c.is_empty()).count();

    let (loss, accuracy) = global.evaluate_with(test, &mut eval_ws);
    let mut history = vec![RoundMetrics { round: 0, loss, accuracy }];
    for round in 1..=config.rounds {
        // Per-silo test metrics are recorder-only: evaluating each
        // local model is pure (no training state is touched), so
        // enabling tracing cannot change the FL trajectory.
        let probe_test = if obs::is_enabled() { Some(test) } else { None };
        run_round(
            round,
            &global,
            &contributed,
            &weights,
            total_weight,
            config,
            pool,
            &mut slots,
            &mut silo_stats,
            &mut aggregate,
            probe_test,
        );
        for (p, &acc) in params.iter_mut().zip(&aggregate) {
            *p = acc as f32;
        }
        global.set_params(&params);
        let (loss, accuracy) = global.evaluate_with(test, &mut eval_ws);
        history.push(RoundMetrics { round, loss, accuracy });
        // Group training fans out to the pool, but this record runs on
        // the sequential merge path after the barrier, so the event
        // stream is identical for any worker count.
        obs::event(
            obs::Subsystem::Fed,
            "round",
            &[
                ("round", round.into()),
                ("loss", f64::from(loss).into()),
                ("accuracy", f64::from(accuracy).into()),
                ("silos", n_silos.into()),
                ("participating", participating.into()),
            ],
        );
        obs::counter_add("fed.rounds", 1);
        obs::counter_add("fed.local_updates", participating as u64);
        obs::gauge_set("fed.loss", f64::from(loss));
        obs::gauge_set("fed.accuracy", f64::from(accuracy));
        if probe_test.is_some() {
            // Emitted sequentially in silo order from the per-group
            // stats the jobs recorded — identical stream for any
            // worker count.
            for (org, stat) in silo_stats.iter().enumerate() {
                let Some((silo_loss, silo_acc)) = *stat else { continue };
                obs::event(
                    obs::Subsystem::Fed,
                    "silo",
                    &[
                        ("round", round.into()),
                        ("org", org.into()),
                        ("weight", (weights[org] / total_weight).into()),
                        ("loss", f64::from(silo_loss).into()),
                        ("accuracy", f64::from(silo_acc).into()),
                    ],
                );
            }
        }
    }
    Ok(FedOutcome { model: global, history })
}

/// The input check both trainers share: one fraction per shard, each in
/// `[0, 1]`. Returns each organization's contributed subset, the first
/// `floor(d_i |S_i|)` samples of its shard.
///
/// # Errors
///
/// [`FedError::FractionCount`], [`FedError::BadFraction`], or
/// [`FedError::NothingContributed`] when every subset is empty.
pub(crate) fn contributed_subsets(
    shards: &[Dataset],
    fractions: &[f64],
) -> Result<Vec<Dataset>, FedError> {
    if fractions.len() != shards.len() {
        return Err(FedError::FractionCount {
            shards: shards.len(),
            fractions: fractions.len(),
        });
    }
    for (i, &d) in fractions.iter().enumerate() {
        if !d.is_finite() || !(0.0..=1.0).contains(&d) {
            return Err(FedError::BadFraction { org: i, value: d });
        }
    }
    let contributed: Vec<Dataset> = shards
        .iter()
        .zip(fractions)
        .map(|(shard, &d)| shard.take(((d * shard.len() as f64).floor() as usize).min(shard.len())))
        .collect();
    if contributed.iter().all(Dataset::is_empty) {
        return Err(FedError::NothingContributed);
    }
    Ok(contributed)
}

/// Reusable per-slot training state: one model buffer, one f64 partial
/// and one set of SGD scratch buffers, shared by every silo a slot's
/// group jobs ever train. Allocated once before the round loop.
#[derive(Debug)]
struct GroupSlot {
    model: Mlp,
    partial: Vec<f64>,
    scratch: SiloScratch,
}

/// Per-silo SGD scratch, reused across silos, epochs and rounds (and,
/// in async training, across dispatched updates).
#[derive(Debug, Default)]
pub(crate) struct SiloScratch {
    order: Vec<usize>,
    batch: MiniBatch,
    ws: Workspace,
}

impl GroupSlot {
    fn for_model(global: &Mlp) -> Self {
        Self {
            model: global.clone(),
            partial: vec![0.0f64; global.param_count()],
            scratch: SiloScratch::default(),
        }
    }
}

/// One federated round over the two-level topology: edge groups are
/// dispatched in windows of `slots.len()`, one pool scope per window
/// (a one-group window runs inline), and after each window's barrier
/// the group partials merge into `aggregate` in strict group order.
/// No allocation outside the scope's task boxes (lint-enforced hot
/// loop).
#[allow(clippy::too_many_arguments)]
fn run_round(
    round: usize,
    global: &Mlp,
    contributed: &[Dataset],
    weights: &[f64],
    total_weight: f64,
    config: &FedConfig,
    pool: &Pool,
    slots: &mut [GroupSlot],
    silo_stats: &mut [Option<(f32, f32)>],
    aggregate: &mut [f64],
    probe_test: Option<&Dataset>,
) {
    let n_groups = contributed.len().div_ceil(EDGE_GROUP_SIZE);
    let n_slots = slots.len().max(1);
    aggregate.fill(0.0);
    let mut window_base = 0;
    while window_base < n_groups {
        let window_len = n_slots.min(n_groups - window_base);
        let chunks = silo_stats
            .chunks_mut(EDGE_GROUP_SIZE)
            .skip(window_base)
            .take(window_len);
        pool.scope(|s| {
            for (w, (slot, stats)) in
                slots[..window_len].iter_mut().zip(chunks).enumerate()
            {
                let group = window_base + w;
                s.spawn(move || {
                    train_group(
                        round, group, global, contributed, weights,
                        total_weight, config, slot, stats, probe_test,
                    );
                });
            }
        });
        // Global merge, strict group order (scheduling-independent).
        for slot in &slots[..window_len] {
            for (acc, &p) in aggregate.iter_mut().zip(&slot.partial) {
                *acc += p;
            }
        }
        window_base += window_len;
    }
}

/// Trains one edge group: its silos sequentially, in silo order, each
/// from its own `(round, org)`-derived seed, streaming weighted
/// parameters into the slot's f64 partial. Pure function of
/// `(global, shards, round, group)` — independent of which worker runs
/// it. Zero allocations (lint-enforced hot loop).
#[allow(clippy::too_many_arguments)]
fn train_group(
    round: usize,
    group: usize,
    global: &Mlp,
    contributed: &[Dataset],
    weights: &[f64],
    total_weight: f64,
    config: &FedConfig,
    slot: &mut GroupSlot,
    stats: &mut [Option<(f32, f32)>],
    probe_test: Option<&Dataset>,
) {
    slot.partial.fill(0.0);
    let start = group * EDGE_GROUP_SIZE;
    let end = (start + EDGE_GROUP_SIZE).min(contributed.len());
    for org in start..end {
        let stat = &mut stats[org - start];
        *stat = None;
        let data = &contributed[org];
        if data.is_empty() {
            continue;
        }
        slot.model.copy_params_from(global);
        let mut rng = StdRng::seed_from_u64(silo_seed(config.seed, round, org));
        local_train(
            &mut slot.model,
            data,
            config.local_epochs,
            config.batch_size,
            config.lr,
            &mut rng,
            &mut slot.scratch,
        );
        slot.model
            .accumulate_scaled_params(weights[org] / total_weight, &mut slot.partial);
        if let Some(test) = probe_test {
            *stat = Some(slot.model.evaluate_with(test, &mut slot.scratch.ws));
        }
    }
}

/// Derives the local-training RNG seed for one `(round, org)` cell:
/// SplitMix64-style finalization over the base seed and both indices,
/// so cells are statistically independent and each local run is
/// reproducible in isolation.
fn silo_seed(base: u64, round: usize, org: usize) -> u64 {
    let mut z = base ^ 0xfed0_5eed;
    for v in [round as u64, org as u64] {
        z = z.wrapping_add(v).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// One silo's local SGD — the only shuffle → gather → step loop, shared
/// by synchronous and asynchronous FedAvg. `epochs` passes over `data`
/// in `batch_size` mini-batches, each pass in a fresh `rng` order. The
/// index buffer, mini-batch and GEMM workspace all come from
/// `scratch`, so steady state performs zero allocations per step
/// (DESIGN.md §10) *and* zero per silo. Zero allocations
/// (lint-enforced hot loop).
pub(crate) fn local_train(
    model: &mut Mlp,
    data: &Dataset,
    epochs: usize,
    batch_size: usize,
    lr: f32,
    rng: &mut StdRng,
    scratch: &mut SiloScratch,
) {
    scratch.order.clear();
    scratch.order.extend(0..data.len());
    for _ in 0..epochs {
        scratch.order.shuffle(rng);
        for chunk in scratch.order.chunks(batch_size.max(1)) {
            scratch.batch.gather(data, chunk);
            model.sgd_step_with(&scratch.batch.features, &scratch.batch.labels, lr, &mut scratch.ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate, DatasetKind};
    use crate::model::{Mlp, ModelKind};

    fn setup(n_orgs: usize) -> (Vec<Dataset>, Dataset) {
        let all = generate(DatasetKind::EurosatLike, 260 * n_orgs + 400, 11);
        let mut sizes = vec![260; n_orgs];
        sizes.push(400);
        let mut shards = all.shard(&sizes);
        let test = shards.pop().unwrap();
        (shards, test)
    }

    fn quick_config() -> FedConfig {
        FedConfig { rounds: 10, local_epochs: 1, batch_size: 32, lr: 0.1, seed: 1 }
    }

    #[test]
    fn federated_training_improves_accuracy() {
        let (shards, test) = setup(3);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
        let out =
            train_federated(global, &shards, &test, &[1.0, 1.0, 1.0], &quick_config()).unwrap();
        assert_eq!(out.history.len(), 11);
        assert!(
            out.final_accuracy() > out.history[0].accuracy + 0.2,
            "accuracy {} -> {}",
            out.history[0].accuracy,
            out.final_accuracy()
        );
        assert!(out.final_loss() < out.history[0].loss);
    }

    #[test]
    fn more_contributed_data_yields_better_accuracy() {
        let (shards, test) = setup(4);
        let mk = |fracs: &[f64]| {
            let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
            train_federated(global, &shards, &test, fracs, &quick_config())
                .unwrap()
                .final_accuracy()
        };
        let low = mk(&[0.05, 0.05, 0.05, 0.05]);
        let high = mk(&[1.0, 1.0, 1.0, 1.0]);
        assert!(high > low, "full data {high} must beat 5% {low}");
    }

    #[test]
    fn zero_contributors_are_skipped_not_fatal() {
        let (shards, test) = setup(2);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
        let out = train_federated(global, &shards, &test, &[0.0, 1.0], &quick_config()).unwrap();
        assert!(out.final_accuracy() > 0.3);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let (shards, test) = setup(2);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
        assert!(matches!(
            train_federated(global.clone(), &shards, &test, &[1.0], &quick_config()),
            Err(FedError::FractionCount { .. })
        ));
        assert!(matches!(
            train_federated(global.clone(), &shards, &test, &[1.5, 0.5], &quick_config()),
            Err(FedError::BadFraction { org: 0, .. })
        ));
        assert!(matches!(
            train_federated(global, &shards, &test, &[0.0, 0.0], &quick_config()),
            Err(FedError::NothingContributed)
        ));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (shards, test) = setup(2);
        let mk = |seed| {
            let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
            let cfg = FedConfig { seed, ..quick_config() };
            train_federated(global, &shards, &test, &[0.5, 0.5], &cfg).unwrap().final_accuracy()
        };
        assert_eq!(mk(7), mk(7));
    }
}
