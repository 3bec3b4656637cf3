//! **TradeFL** — a trading mechanism for cross-silo federated learning.
//!
//! A production-quality Rust reproduction of *"TradeFL: A Trading
//! Mechanism for Cross-Silo Federated Learning"* (Yuan et al., ICDCS
//! 2023). Organizations that compete in the market but cooperate on
//! training ("coopetition") are incentivized to contribute data and
//! compute through *payoff redistribution* — and the redistribution is
//! made undeniable by settling it on a smart contract.
//!
//! The workspace splits into five crates, all re-exported here:
//!
//! * [`core`] ([`tradefl_core`]) — the coopetition model: payoffs
//!   (Eq. 11), redistribution (Eq. 9-10), damage (Eq. 6-7) and the
//!   weighted potential game (Theorem 1);
//! * [`solver`] ([`tradefl_solver`]) — the CGBD (Algorithm 1) and DBR
//!   (Algorithm 2) equilibrium solvers plus the §VI baselines;
//! * [`fl`] ([`tradefl_fl_sim`]) — a FedAvg training substrate with
//!   four model and dataset analogs;
//! * [`ledger`] ([`tradefl_ledger`]) — a from-scratch private chain and
//!   the Table I settlement contract;
//! * [`engine`] ([`tradefl_engine`]) — the market engine that mines the
//!   Fig. 3 settlement on replicated validators.
//!
//! # The full pipeline in one call
//!
//! ```
//! use tradefl::pipeline::{Pipeline, PipelineConfig};
//!
//! let report = Pipeline::new(PipelineConfig::quick()).run(42)?;
//! println!("welfare at equilibrium: {:.1}", report.equilibrium.welfare);
//! assert!(report.settlement.consistent(1e-3));
//! assert!(report.training.final_accuracy() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub use tradefl_core as core;
pub use tradefl_engine as engine;
pub use tradefl_fl_sim as fl;
pub use tradefl_ledger as ledger;
pub use tradefl_solver as solver;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use tradefl_core::accuracy::{AccuracyModel, SqrtAccuracy};
    pub use tradefl_core::config::MarketConfig;
    pub use tradefl_core::game::CoopetitionGame;
    pub use tradefl_core::market::{Market, MechanismParams};
    pub use tradefl_core::mechanism::MechanismAudit;
    pub use tradefl_core::strategy::{Strategy, StrategyProfile};
    pub use tradefl_engine::Engine;
    pub use tradefl_fl_sim::data::DatasetKind;
    pub use tradefl_fl_sim::fed::{train_federated, FedConfig};
    pub use tradefl_fl_sim::model::ModelKind;
    pub use tradefl_solver::dbr::DbrSolver;
    pub use tradefl_solver::outcome::{Equilibrium, Scheme};
}

pub mod pipeline {
    //! End-to-end orchestration: market → equilibrium → on-chain
    //! settlement → federated training, in one call.

    use tradefl_core::accuracy::SqrtAccuracy;
    use tradefl_core::config::MarketConfig;
    use tradefl_core::game::CoopetitionGame;
    use tradefl_engine::Engine;
    use tradefl_fl_sim::data::{dirichlet_shard, generate, DatasetKind};
    use tradefl_fl_sim::fed::{train_federated, FedConfig, FedOutcome};
    use tradefl_fl_sim::model::{Mlp, ModelKind};
    use tradefl_fl_sim::personalize::{personalize_all, PersonalizeConfig, PersonalizedModel};
    use tradefl_ledger::attestation::Enclave;
    use tradefl_ledger::settlement::SettlementReport;
    use tradefl_solver::dbr::DbrSolver;
    use tradefl_solver::outcome::Equilibrium;

    /// What to run.
    #[derive(Debug, Clone)]
    pub struct PipelineConfig {
        /// Market generation (Table II by default).
        pub market: MarketConfig,
        /// Which model analog to train.
        pub model: ModelKind,
        /// Which dataset analog to train on.
        pub dataset: DatasetKind,
        /// Federated-training hyper-parameters.
        pub fed: FedConfig,
        /// Held-out test-set size.
        pub test_samples: usize,
        /// Require TEE-attested contribution reports on-chain
        /// (footnote 6); the pipeline provisions the enclave itself.
        pub attested: bool,
        /// Dirichlet label-skew β for the silo partition (`None` = the
        /// i.i.d. split of footnote 4).
        pub dirichlet_beta: Option<f64>,
        /// Run per-organization personalization after training (§VII
        /// future work); each org fine-tunes on 80% of its shard and is
        /// evaluated on the held-out 20%.
        pub personalize: Option<PersonalizeConfig>,
    }

    impl PipelineConfig {
        /// The paper's Table II setting with a moderate training budget.
        pub fn paper() -> Self {
            Self {
                market: MarketConfig::table_ii(),
                model: ModelKind::MobilenetLike,
                dataset: DatasetKind::SvhnLike,
                fed: FedConfig::default(),
                test_samples: 1000,
                attested: true,
                dirichlet_beta: None,
                personalize: None,
            }
        }

        /// A smaller, fast configuration for tests and demos.
        // lint:allow(unreferenced-pub-fn): the crate-level quick-start config the pipeline tests run
        pub fn quick() -> Self {
            Self {
                market: MarketConfig::table_ii().with_orgs(4),
                model: ModelKind::MobilenetLike,
                dataset: DatasetKind::EurosatLike,
                fed: FedConfig { rounds: 6, ..FedConfig::default() },
                test_samples: 400,
                attested: false,
                dirichlet_beta: None,
                personalize: None,
            }
        }
    }

    /// Everything the pipeline produced.
    #[derive(Debug)]
    pub struct PipelineReport {
        /// The DBR equilibrium (strategies, welfare, traces).
        pub equilibrium: Equilibrium,
        /// On-chain settlement audit (Fig. 3 procedure).
        pub settlement: SettlementReport,
        /// Federated training at the equilibrium contributions.
        pub training: FedOutcome,
        /// Per-organization personalization outcomes (present when
        /// [`PipelineConfig::personalize`] is set).
        pub personalized: Option<Vec<PersonalizedModel>>,
    }

    /// The pipeline driver.
    #[derive(Debug, Clone)]
    pub struct Pipeline {
        config: PipelineConfig,
    }

    impl Pipeline {
        /// Creates a pipeline with the given configuration.
        pub fn new(config: PipelineConfig) -> Self {
            Self { config }
        }

        /// Runs market generation, DBR, settlement and training with
        /// one seed controlling all randomness.
        ///
        /// # Errors
        ///
        /// Boxes the first error from any stage (market validation,
        /// solver, contract, or training).
        pub fn run(&self, seed: u64) -> Result<PipelineReport, Box<dyn std::error::Error>> {
            let market = self.config.market.build(seed)?;
            let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());

            // 1. Equilibrium (Algorithm 2).
            let equilibrium = DbrSolver::new().solve(&game)?;

            // 2. Credible settlement (Fig. 3), optionally with
            //    TEE-attested reports.
            let enclave = self.config.attested.then(|| Enclave::from_label("tradefl-pipeline"));
            let (_, settlement) = Engine::settle(&game, &equilibrium.profile, enclave)?;

            // 3. Federated training at the agreed contributions.
            let n = game.market().len();
            let shard_sizes: Vec<usize> =
                game.market().orgs().iter().map(|o| o.samples()).collect();
            let total: usize = shard_sizes.iter().sum();
            let pool =
                generate(self.config.dataset, total + self.config.test_samples, seed ^ 0xf1);
            let (shards, test) = match self.config.dirichlet_beta {
                Some(beta) => {
                    let shards =
                        dirichlet_shard(&pool.take(total), &shard_sizes, beta, seed ^ 0xf3);
                    let test = pool
                        .shard(&[total, self.config.test_samples])
                        .pop()
                        // lint:allow(no-panic-in-lib): shard() yields one shard per requested size
                        .expect("test shard present");
                    (shards, test)
                }
                None => {
                    let mut sizes = shard_sizes;
                    sizes.push(self.config.test_samples);
                    let mut shards = pool.shard(&sizes);
                    // lint:allow(no-panic-in-lib): shard() yields one shard per requested size
                    let test = shards.pop().expect("test shard present");
                    (shards, test)
                }
            };
            let fractions: Vec<f64> =
                (0..n).map(|i| equilibrium.profile[i].d).collect();
            let global =
                Mlp::for_kind(self.config.model, test.dim(), test.classes, seed ^ 0xf2);
            let training =
                train_federated(global, &shards, &test, &fractions, &self.config.fed)?;

            // 4. Optional per-organization personalization.
            let personalized = self.config.personalize.as_ref().map(|cfg| {
                let splits: Vec<_> = shards
                    .iter()
                    .map(|shard| {
                        let n = shard.len();
                        let cut = n * 4 / 5;
                        let mut parts = shard.shard(&[cut, n - cut]);
                        // lint:allow(no-panic-in-lib): shard(&[a, b]) yields exactly two shards
                        let local_test = parts.pop().expect("local test");
                        // lint:allow(no-panic-in-lib): shard(&[a, b]) yields exactly two shards
                        let local_train = parts.pop().expect("local train");
                        (local_train, local_test)
                    })
                    .collect();
                personalize_all(&training.model, &splits, cfg)
            });

            Ok(PipelineReport { equilibrium, settlement, training, personalized })
        }
    }
}
