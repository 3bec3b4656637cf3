//! Cross-silo federated-learning training substrate for **TradeFL**.
//!
//! Implements §III-B of the ICDCS 2023 paper — the FedAvg training
//! process organizations cooperate on — plus the pre-experiment
//! machinery of §III-C (Fig. 2): measuring how global-model accuracy
//! grows with contributed data and fitting the `c₀ − c₁/√x` curve.
//!
//! Synchronous FedAvg ([`fed`]) and asynchronous FedAvg ([`async_fed`],
//! the paper's footnote 2) train every silo through one local-SGD loop
//! and check their inputs in one place, so the two differ only in how
//! the server applies updates: a barrier per round with a fixed
//! [`EDGE_GROUP_SIZE`] grouping, or one staleness-discounted mix per
//! arrival.
//!
//! Everything is pure Rust and deterministic by seed. The paper's GPU
//! models and image corpora are substituted by MLP capacity tiers and
//! seeded Gaussian-mixture analogs (see DESIGN.md §2 for why this
//! preserves the mechanism-relevant behaviour).
//!
//! # Quick start
//!
//! ```
//! use tradefl_fl_sim::data::{generate, DatasetKind};
//! use tradefl_fl_sim::fed::{train_federated, FedConfig};
//! use tradefl_fl_sim::model::{Mlp, ModelKind};
//!
//! // Three organizations share a EuroSat-like corpus.
//! let pool = generate(DatasetKind::EurosatLike, 1000, 42);
//! let mut shards = pool.shard(&[250, 250, 250, 250]);
//! let test = shards.pop().unwrap();
//!
//! let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 1);
//! let config = FedConfig { rounds: 5, ..FedConfig::default() };
//! let outcome = train_federated(global, &shards, &test, &[1.0, 0.5, 0.25], &config)?;
//! assert!(outcome.final_accuracy() > 0.0);
//! # Ok::<(), tradefl_fl_sim::fed::FedError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod async_fed;
pub mod data;
pub mod fed;
pub mod linalg;
pub mod model;
pub mod personalize;
pub mod probe;

pub use async_fed::{train_async, AsyncConfig, AsyncOutcome, OrgTiming};
pub use data::{dirichlet_shard, generate, label_skew, Dataset, DatasetKind};
pub use fed::{
    train_federated, train_federated_with, FedConfig, FedError, FedOutcome, RoundMetrics,
    EDGE_GROUP_SIZE,
};
pub use data::MiniBatch;
pub use linalg::Matrix;
pub use model::{Mlp, ModelKind, Workspace};
pub use personalize::{personalize, personalize_all, PersonalizeConfig, PersonalizedModel};
pub use probe::{measure_accuracy_curve, ProbePoint, SqrtFit};
