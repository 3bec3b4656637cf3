//! Worker-count bit-identity for the streaming aggregation path.
//!
//! The thousand-silo scaling work (DESIGN.md §12) hinges on one
//! contract: the hierarchical two-level reduce of
//! `train_federated_with` is a pure function of the inputs, never
//! of the schedule. These tests pin that contract at the scale the
//! pool actually engages (`round_steps >= 2048`) — N=1000 silos — by
//! bit-comparing final parameters across 1/4/8-worker pools.

use tradefl_fl_sim::data::{generate, DatasetKind};
use tradefl_fl_sim::fed::{train_federated_with, FedConfig};
use tradefl_fl_sim::model::{Mlp, ModelKind};
use tradefl_runtime::sync::pool::Pool;

/// Bits of the final global model after training `silos` shards of
/// `per_silo` samples each for `rounds` rounds on a `workers`-pool.
fn final_param_bits(silos: usize, per_silo: usize, rounds: usize, workers: usize) -> Vec<u32> {
    let test_len = 64;
    let corpus = generate(DatasetKind::EurosatLike, silos * per_silo + test_len, 23);
    let mut sizes = vec![per_silo; silos];
    sizes.push(test_len);
    let mut shards = corpus.shard(&sizes);
    let test = shards.pop().unwrap();
    let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 5);
    let fractions = vec![1.0; silos];
    let config = FedConfig { rounds, local_epochs: 1, batch_size: 16, lr: 0.1, seed: 9 };
    let pool = Pool::new(workers);
    let out = train_federated_with(global, &shards, &test, &fractions, &config, &pool).unwrap();
    out.model.to_params().iter().map(|p| p.to_bits()).collect()
}

#[test]
fn thousand_silo_round_is_bit_identical_across_worker_counts() {
    // 1000 silos x 3 samples: round_steps = 3000 clears the pool
    // engagement threshold, and 1000 / 32 leaves a ragged tail group,
    // so the pooled window dispatch, the streaming group partials and
    // the fixed-order server merge are all exercised for real.
    let serial = final_param_bits(1000, 3, 1, 1);
    for workers in [4, 8] {
        let pooled = final_param_bits(1000, 3, 1, workers);
        assert_eq!(
            serial, pooled,
            "streaming aggregation diverged between 1 and {workers} workers"
        );
    }
}

#[test]
fn every_group_size_is_bit_identical_across_worker_counts() {
    // The fixed edge grouping must be internally deterministic: 64
    // silos form two full groups, and the same bits come out for every
    // worker count.
    let serial = final_param_bits(64, 40, 2, 1);
    let pooled = final_param_bits(64, 40, 2, 4);
    assert_eq!(serial, pooled, "the edge grouping diverged between 1 and 4 workers");
}
