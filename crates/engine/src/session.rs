//! A market session as a deterministic settlement script.
//!
//! Off-chain, a session is a coopetition game: the engine solves it to
//! equilibrium once (Algorithm 2 via `tradefl-solver`) at plan-build
//! time, or takes a game a caller already solved. On-chain, it is the
//! Fig. 3 procedure — register → deposit → contribute → calculate →
//! transfer → record — scripted by [`SettlementPlan`]: an ordered
//! transaction list with correct per-organization nonces, so the
//! *runtime* state of a live session is a single cursor into the
//! script. That makes sessions trivially checkpointable: the cursor is
//! the checkpoint.
//!
//! Sessions the engine builds from a [`SessionSpec`] prefix organization
//! addresses with the session name (`"{session}/{org}"`), so any number
//! of sessions coexist on one chain without account collisions.

use crate::engine::EngineError;
use tradefl_core::accuracy::{AccuracyModel, SqrtAccuracy};
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::market::Market;
use tradefl_core::strategy::StrategyProfile;
use tradefl_ledger::attestation::Enclave;
use tradefl_ledger::settlement::SettlementPlan;
use tradefl_ledger::tradefl_contract::SessionParams;
use tradefl_ledger::tx::{Transaction, TxPayload};
use tradefl_ledger::types::{Address, Wei};
use tradefl_runtime::sync::pool::Pool;
use tradefl_solver::DbrSolver;

/// What to simulate for one market session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Session name — prefixes every participant address, so it must be
    /// unique within one engine run.
    pub name: String,
    /// Number of participating organizations (≥ 2).
    pub orgs: usize,
    /// Seed for the session's market draw (Table II parameters).
    pub seed: u64,
}

/// A fully resolved session: market, equilibrium, contract parameters,
/// and the scripted transaction sequence. A plan [built](SessionPlan::build)
/// from a spec is a pure function of the [`SessionSpec`] (and the
/// solver pool's worker count never changes results bit-for-bit, per
/// the workspace determinism contract).
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// The spec this plan was built from.
    pub spec: SessionSpec,
    /// Participant addresses, session-prefixed, in market order.
    pub addresses: Vec<Address>,
    /// Genesis funding for the participants (4× the bond each).
    pub allocations: Vec<(Address, Wei)>,
    /// Contract constructor parameters (used to deploy, and to rebuild
    /// prototypes when a crashed validator restarts).
    pub params: SessionParams,
    /// The settlement procedure as ordered transactions with correct
    /// nonces. Submitting these in order, in any batching, settles the
    /// session.
    pub txs: Vec<Transaction>,
}

impl SessionPlan {
    /// Builds the plan: draws the market, solves the game to
    /// equilibrium, and scripts the unattested Fig. 3 procedure under
    /// session-prefixed addresses. The solve is handed `pool`, but DBR
    /// fans out only at 512 orgs or more and a settleable session has
    /// at most 71, so it runs on the calling thread.
    ///
    /// # Errors
    ///
    /// [`EngineError::Session`] when the spec is degenerate (fewer than
    /// 2 orgs), the market draw fails validation, or the solver cannot
    /// produce an equilibrium.
    pub fn build(spec: SessionSpec, pool: &Pool) -> Result<Self, EngineError> {
        if spec.orgs < 2 {
            return Err(EngineError::Session {
                session: spec.name.clone(),
                reason: "a market needs at least 2 organizations".into(),
            });
        }
        let fail = |reason: String| EngineError::Session { session: spec.name.clone(), reason };
        let market = MarketConfig::table_ii()
            .with_orgs(spec.orgs)
            .build(spec.seed)
            .map_err(|e| fail(format!("market build: {e}")))?;
        let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        let eq = DbrSolver::new()
            .solve_with(&game, pool)
            .map_err(|e| fail(format!("equilibrium solve: {e}")))?;
        let plan = SettlementPlan::new(
            game.market(),
            |org| Address::from_name(&format!("{}/{}", spec.name, org)),
            None,
        );
        Ok(Self::scripted(spec, plan, game.market(), &eq.profile))
    }

    /// Resolves the plan for a game the caller already solved: the
    /// Fig. 3 script for `profile` through [`SettlementPlan`], naming
    /// each organization's account with `address(org_name)`. With an
    /// `enclave`, the contract requires TEE-attested contribution
    /// reports (footnote 6) and the script carries the enclave's MAC on
    /// each one. `spec` only names the session: nothing is drawn from
    /// its seed.
    pub fn resolve<A: AccuracyModel>(
        spec: SessionSpec,
        game: &CoopetitionGame<A>,
        profile: &StrategyProfile,
        address: impl Fn(&str) -> Address,
        enclave: Option<Enclave>,
    ) -> Self {
        let plan = SettlementPlan::new(game.market(), address, enclave);
        Self::scripted(spec, plan, game.market(), profile)
    }

    /// The session that runs `plan`'s script for `profile`.
    fn scripted(
        spec: SessionSpec,
        plan: SettlementPlan,
        market: &Market,
        profile: &StrategyProfile,
    ) -> Self {
        // The contract address is unknown until deployment, so a
        // placeholder is patched in by `tx_at`.
        let txs = plan.script(market, profile, Address([0u8; 20]), |_| 0);
        let SettlementPlan { addresses, allocations, params, .. } = plan;
        Self { spec, addresses, allocations, params, txs }
    }

    /// The scripted transaction at `cursor`, with the deployed contract
    /// address patched in. `None` once the script is exhausted.
    pub fn tx_at(&self, cursor: usize, contract: Address) -> Option<Transaction> {
        let mut tx = self.txs.get(cursor)?.clone();
        if let TxPayload::Call { contract: c, .. } = &mut tx.payload {
            *c = contract;
        }
        Some(tx)
    }

    /// The full scripted sequence with the deployed contract address
    /// patched in — what the DST harness audits receipts against (each
    /// scripted transaction must land on the canonical chain exactly
    /// once, even when its first round was lost to a crashed or lying
    /// proposer).
    pub fn scripted_txs(&self, contract: Address) -> impl Iterator<Item = Transaction> + '_ {
        (0..self.len()).filter_map(move |k| self.tx_at(k, contract))
    }

    /// Script length (total transactions to settle this session).
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the script is empty (never true for a valid plan).
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, orgs: usize, seed: u64) -> SessionSpec {
        SessionSpec { name: name.into(), orgs, seed }
    }

    #[test]
    fn sessions_with_different_names_do_not_share_addresses() {
        let a = SessionPlan::build(spec("alpha", 3, 7), &Pool::new(1)).unwrap();
        let b = SessionPlan::build(spec("beta", 3, 7), &Pool::new(1)).unwrap();
        for addr in &a.addresses {
            assert!(!b.addresses.contains(addr));
        }
    }

    #[test]
    fn degenerate_specs_error_instead_of_panicking() {
        assert!(SessionPlan::build(spec("s", 1, 0), &Pool::new(1)).is_err());
    }

    #[test]
    fn tx_at_patches_the_contract_address() {
        let p = SessionPlan::build(spec("s", 2, 1), &Pool::new(1)).unwrap();
        let c = Address::from_name("somewhere");
        let tx = p.tx_at(0, c).unwrap();
        match tx.payload {
            TxPayload::Call { contract, .. } => assert_eq!(contract, c),
            TxPayload::Transfer { .. } => panic!("scripted txs are calls"),
        }
        assert!(p.tx_at(p.len(), c).is_none());
    }
}
