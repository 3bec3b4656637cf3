//! Personalization — the paper's stated future work (§VII: "we will
//! further consider personalizing the global model assigned to
//! organizations to meet their individual needs").
//!
//! Implements the standard fine-tuning personalization baseline: after
//! federated training, each organization adapts the global model to its
//! own data distribution with a few local SGD epochs, optionally with a
//! proximal term that keeps the personalized model close to the global
//! one (FedProx-style regularization). The pay-off for TradeFL: an
//! organization's *personalized* accuracy is what its profitability
//! `p_i` ultimately monetizes.

use crate::data::{Dataset, MiniBatch};
use crate::model::{Mlp, Workspace};
use tradefl_runtime::rng::{SeedableRng, SliceRandom, StdRng};

/// Personalization hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersonalizeConfig {
    /// Local fine-tuning epochs.
    pub epochs: usize,
    /// Fine-tuning learning rate (usually smaller than training).
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Proximal weight `mu_prox ≥ 0`: each step also pulls parameters
    /// back toward the global model (`0` = plain fine-tuning).
    pub mu_prox: f32,
    /// RNG seed for batch shuffling.
    pub seed: u64,
}

impl Default for PersonalizeConfig {
    fn default() -> Self {
        Self { epochs: 3, lr: 0.03, batch_size: 32, mu_prox: 0.1, seed: 0 }
    }
}

/// Per-organization outcome of personalization.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizedModel {
    /// The adapted model.
    pub model: Mlp,
    /// Local-test accuracy of the *global* model before adaptation.
    pub global_accuracy: f32,
    /// Local-test accuracy after adaptation.
    pub personalized_accuracy: f32,
}

impl PersonalizedModel {
    /// Accuracy improvement from personalization (may be negative on
    /// distribution-matched shards).
    pub fn gain(&self) -> f32 {
        self.personalized_accuracy - self.global_accuracy
    }
}

/// Fine-tunes `global` on an organization's local data, evaluating on
/// the organization's local held-out set.
///
/// `local_train` and `local_test` are the organization's own splits;
/// with an empty `local_train` the global model is returned unchanged.
///
/// # Examples
///
/// ```
/// use tradefl_fl_sim::data::{generate, DatasetKind};
/// use tradefl_fl_sim::model::{Mlp, ModelKind};
/// use tradefl_fl_sim::personalize::{personalize, PersonalizeConfig};
///
/// let pool = generate(DatasetKind::EurosatLike, 300, 1);
/// let local_train = pool.take(200);
/// let local_test = pool.shard(&[200, 100]).pop().unwrap();
/// let global = Mlp::for_kind(ModelKind::MobilenetLike, pool.dim(), pool.classes, 1);
/// let out = personalize(&global, &local_train, &local_test, &PersonalizeConfig::default());
/// assert!(out.personalized_accuracy.is_finite());
/// ```
pub fn personalize(
    global: &Mlp,
    local_train: &Dataset,
    local_test: &Dataset,
    config: &PersonalizeConfig,
) -> PersonalizedModel {
    let mut ws = Workspace::new();
    let (_, global_accuracy) = global.evaluate_with(local_test, &mut ws);
    let mut model = global.clone();
    if !local_train.is_empty() {
        let anchor = global.to_params();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9e72_50aa);
        let n = local_train.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut batch = MiniBatch::new();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                batch.gather(local_train, chunk);
                model.sgd_step_with(&batch.features, &batch.labels, config.lr, &mut ws);
                if config.mu_prox > 0.0 {
                    // Proximal pull θ ← θ − lr·μ_prox·(θ − θ_global),
                    // in place (bit-identical to the old flatten/mix/
                    // reload round trip, without the two allocations).
                    model.mix_params(&anchor, config.lr * config.mu_prox);
                }
            }
        }
    }
    let (_, personalized_accuracy) = model.evaluate_with(local_test, &mut ws);
    PersonalizedModel { model, global_accuracy, personalized_accuracy }
}

/// Personalizes for every organization at once; `local_splits[i]` is
/// `(train, test)` for organization `i`.
pub fn personalize_all(
    global: &Mlp,
    local_splits: &[(Dataset, Dataset)],
    config: &PersonalizeConfig,
) -> Vec<PersonalizedModel> {
    local_splits
        .iter()
        .enumerate()
        .map(|(i, (train, test))| {
            let cfg = PersonalizeConfig { seed: config.seed ^ i as u64, ..*config };
            personalize(global, train, test, &cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate, DatasetKind};
    use crate::fed::{train_federated, FedConfig};
    use crate::linalg::Matrix;
    use crate::model::ModelKind;

    fn gather(data: &Dataset, idx: &[usize]) -> Dataset {
        let mut features = Matrix::zeros(idx.len(), data.dim());
        let mut labels = Vec::with_capacity(idx.len());
        for (r, &i) in idx.iter().enumerate() {
            features.row_mut(r).copy_from_slice(data.features.row(i));
            labels.push(data.labels[i]);
        }
        Dataset { features, labels, classes: data.classes }
    }

    fn skewed_shard(seed: u64, keep_classes: &[usize], n: usize) -> Dataset {
        // A shard biased toward a subset of classes (heterogeneous org).
        let pool = generate(DatasetKind::FmnistLike, n * 4, seed);
        let mut rows: Vec<usize> = (0..pool.len())
            .filter(|&r| keep_classes.contains(&pool.labels[r]))
            .take(n)
            .collect();
        // Top up with arbitrary rows if the filter was too strict.
        let mut r = 0;
        while rows.len() < n {
            rows.push(r % pool.len());
            r += 1;
        }
        gather(&pool, &rows)
    }

    #[test]
    fn personalization_helps_a_skewed_organization() {
        // Global model trained on the full distribution; one org only
        // cares about classes 0-2.
        let pool = generate(DatasetKind::FmnistLike, 2000, 1);
        let mut shards = pool.shard(&[800, 800, 400]);
        let test = shards.pop().unwrap();
        let global = Mlp::for_kind(ModelKind::AlexnetLike, test.dim(), test.classes, 1);
        let fed = FedConfig { rounds: 8, local_epochs: 1, batch_size: 32, lr: 0.1, seed: 1 };
        let trained = train_federated(global, &shards, &test, &[1.0, 1.0], &fed).unwrap();

        let local_train = skewed_shard(7, &[0, 1, 2], 400);
        let local_test = skewed_shard(8, &[0, 1, 2], 300);
        let out = personalize(
            &trained.model,
            &local_train,
            &local_test,
            &PersonalizeConfig::default(),
        );
        assert!(
            out.personalized_accuracy > out.global_accuracy,
            "fine-tuning on the org's skew must help: {} -> {}",
            out.global_accuracy,
            out.personalized_accuracy
        );
        assert!(out.gain() > 0.0);
    }

    #[test]
    fn empty_local_data_returns_global_unchanged() {
        let d = generate(DatasetKind::EurosatLike, 100, 2);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, d.dim(), d.classes, 2);
        let empty = d.take(0);
        let out = personalize(&global, &empty, &d, &PersonalizeConfig::default());
        assert_eq!(out.model, global);
        assert_eq!(out.gain(), 0.0);
    }

    #[test]
    fn proximal_term_limits_drift_from_global() {
        let d = generate(DatasetKind::EurosatLike, 400, 3);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, d.dim(), d.classes, 3);
        let free = personalize(
            &global,
            &d,
            &d,
            &PersonalizeConfig { mu_prox: 0.0, epochs: 5, ..Default::default() },
        );
        let prox = personalize(
            &global,
            &d,
            &d,
            &PersonalizeConfig { mu_prox: 2.0, epochs: 5, ..Default::default() },
        );
        let drift = |m: &Mlp| -> f32 {
            m.to_params()
                .iter()
                .zip(global.to_params())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        };
        assert!(
            drift(&prox.model) < drift(&free.model),
            "proximal pull must keep the model closer to global"
        );
    }

    #[test]
    fn personalize_all_handles_many_orgs() {
        let d = generate(DatasetKind::EurosatLike, 600, 4);
        let global = Mlp::for_kind(ModelKind::MobilenetLike, d.dim(), d.classes, 4);
        let splits: Vec<(Dataset, Dataset)> = (0..3)
            .map(|k| {
                let shard = generate(DatasetKind::EurosatLike, 300, 10 + k);
                (shard.take(200), shard.shard(&[200, 100]).pop().unwrap())
            })
            .collect();
        let out = personalize_all(&global, &splits, &PersonalizeConfig::default());
        assert_eq!(out.len(), 3);
        for o in &out {
            assert!(o.personalized_accuracy.is_finite());
        }
    }
}
