//! Hash-chained ledger and smart-contract substrate for **TradeFL**
//! settlement (§III-F of the ICDCS 2023 paper).
//!
//! The paper makes payoff redistribution *credible* by executing it
//! through a smart contract on an Ethereum private chain: deposits are
//! escrowed, contributions recorded immutably, and the redistribution
//! `r_{i,j}` executes automatically — no organization can repudiate an
//! agreed compensation. This crate rebuilds that stack from scratch:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (no external crypto crates);
//! * [`types`] — addresses, hashes, wei, deterministic fixed point;
//! * [`tx`], [`state`], [`chain`] — transactions, accounts, blocks with
//!   tamper detection;
//! * [`contract`], [`node`] — the contract framework, gas metering and
//!   a single-node chain with revert semantics;
//! * [`tradefl_contract`] — the Table I settlement contract
//!   (`register`/`depositSubmit`/`contributionSubmit`/`payoffCalculate`/
//!   `payoffTransfer`/`profileRecord`);
//! * [`settlement`] — the Fig. 3 end-to-end driver bridging solver
//!   equilibria onto the chain and auditing on-chain vs. Eq. (10); its
//!   session owns the node the organizations call the contract on.
//!
//! # Quick start
//!
//! ```
//! use tradefl_core::accuracy::SqrtAccuracy;
//! use tradefl_core::config::MarketConfig;
//! use tradefl_core::game::CoopetitionGame;
//! use tradefl_core::strategy::StrategyProfile;
//! use tradefl_ledger::settlement::SettlementSession;
//!
//! let market = MarketConfig::table_ii().with_orgs(3).build(7)?;
//! let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
//! let profile = StrategyProfile::minimal(game.market());
//!
//! let mut session = SettlementSession::deploy(&game)?;
//! let report = session.settle(&game, &profile)?;
//! assert!(report.consistent(1e-3)); // on-chain R_i == Eq. (10)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod attestation;
pub mod chain;
pub mod codec;
pub mod contract;
pub mod merkle;
pub mod network;
pub mod node;
pub mod settlement;
pub mod sha256;
pub mod state;
pub mod tradefl_contract;
pub mod tx;
pub mod types;

pub use attestation::{hmac_sha256, Attestation, Enclave};
pub use chain::{Block, Blockchain, ChainError};
pub use contract::{CallContext, Contract, ContractError, GasMeter};
pub use codec::{decode_chain, encode_chain, CodecError};
pub use merkle::{MerkleProof, MerkleTree};
pub use network::{Network, NetworkError, Validator};
pub use node::{BlockApplyError, Node, NodeError};
pub use settlement::{SettlementReport, SettlementSession};
pub use tradefl_contract::{Phase, SessionParams, TradeFlContract};
pub use tx::{ExecStatus, Log, Receipt, Transaction, TxPayload, Value};
pub use types::{Address, Fixed, Hash256, Wei};
