//! End-to-end settlement: bridges the off-chain coopetition game (the
//! equilibrium `{d_i*, f_i*}` computed by `tradefl-solver`) onto the
//! on-chain TradeFL contract, runs the Fig. 3 procedure, and verifies
//! that the on-chain redistribution matches the off-chain Eq. (10).
//!
//! [`SettlementPlan`] is the one source of the Fig. 3 procedure: bond
//! sizing, contract parameters, genesis funding and the scripted
//! register → deposit → contribute → calculate → transfer → record
//! transactions. [`SettlementSession`] runs that script on a single
//! node; the market engine runs the same script on its replicated chain.

use crate::attestation::Enclave;
use crate::contract::ContractError;
use crate::node::{Node, NodeError};
use crate::tradefl_contract::{SessionParams, TradeFlContract};
use crate::tx::{ExecStatus, Receipt, Transaction, TxPayload, Value};
use crate::types::{Address, Fixed, Wei};
use std::fmt;
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::market::Market;
use tradefl_core::strategy::StrategyProfile;

/// Wei per fixed-point payoff unit used by [`SettlementPlan`].
pub const DEFAULT_WEI_PER_UNIT: u128 = 1_000_000;

/// Gas limit on every Fig. 3 contract call.
pub const CALL_GAS: u64 = 10_000_000;

/// Errors from the settlement driver.
#[derive(Debug)]
pub enum SettlementError {
    /// A contract call reverted (carries the on-chain reason).
    Contract(ContractError),
    /// A transaction could not be submitted.
    Node(NodeError),
    /// A mined transaction reverted.
    Reverted {
        /// The ABI function that reverted.
        function: String,
        /// Revert reason.
        reason: String,
    },
}

impl fmt::Display for SettlementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SettlementError::Contract(e) => write!(f, "contract error: {e}"),
            SettlementError::Node(e) => write!(f, "node error: {e}"),
            SettlementError::Reverted { function, reason } => {
                write!(f, "{function} reverted: {reason}")
            }
        }
    }
}

impl std::error::Error for SettlementError {}

impl From<ContractError> for SettlementError {
    fn from(e: ContractError) -> Self {
        SettlementError::Contract(e)
    }
}

impl From<NodeError> for SettlementError {
    fn from(e: NodeError) -> Self {
        SettlementError::Node(e)
    }
}

/// One trading session's on-chain setup, derived from its market: the
/// participant addresses, their genesis funding, the contract
/// parameters, and (through [`SettlementPlan::script`]) the Fig. 3
/// transaction sequence for an equilibrium profile.
#[derive(Debug, Clone)]
pub struct SettlementPlan {
    /// Participant addresses, in market order.
    pub addresses: Vec<Address>,
    /// Genesis funding for the participants (4× the bond each, so
    /// deposits always clear).
    pub allocations: Vec<(Address, Wei)>,
    /// Contract constructor parameters (Gbit/GHz fixed point).
    pub params: SessionParams,
    enclave: Option<Enclave>,
}

impl SettlementPlan {
    /// Builds the plan for `market`, naming each organization's
    /// account with `address(org_name)`. With an `enclave`, the
    /// contract requires TEE-attested contribution reports (footnote 6)
    /// and the script carries the enclave's MAC on each one.
    pub fn new(
        market: &Market,
        address: impl Fn(&str) -> Address,
        enclave: Option<Enclave>,
    ) -> Self {
        let n = market.len();
        let addresses: Vec<Address> = market.orgs().iter().map(|o| address(o.name())).collect();

        // Worst-case |R_i| bound sizes the bond: γ' · q_i · x_max, where
        // x_max bounds any resource-index difference.
        let gamma_per_gbit = market.params().gamma * 1e9;
        let x_max = market
            .orgs()
            .iter()
            .map(|o| o.data_bits() / 1e9 + market.params().lambda * o.max_frequency() / 1e9)
            .fold(0.0f64, f64::max);
        let q_max = (0..n)
            .map(|i| market.competition_pressure(i))
            .fold(0.0f64, f64::max);
        let bound_units = gamma_per_gbit * q_max * x_max * 1.05 + 1.0;
        let required_deposit =
            Wei((bound_units * DEFAULT_WEI_PER_UNIT as f64).ceil() as u128);

        // The contract takes ρ dense: zeros, then the stored entries.
        let mut rho = vec![vec![Fixed::ZERO; n]; n];
        for (i, row) in rho.iter_mut().enumerate() {
            for (j, v) in market.rho_row(i) {
                row[j] = Fixed::from_f64(v);
            }
        }
        let params = SessionParams {
            participants: addresses.clone(),
            gamma_per_gbit: Fixed::from_f64(gamma_per_gbit),
            lambda: Fixed::from_f64(market.params().lambda),
            rho,
            s_gbits: market
                .orgs()
                .iter()
                .map(|o| Fixed::from_f64(o.data_bits() / 1e9))
                .collect(),
            required_deposit,
            wei_per_payoff_unit: DEFAULT_WEI_PER_UNIT,
            attestation_key: enclave.as_ref().map(|e| e.verification_key()),
        };
        let allocations: Vec<(Address, Wei)> =
            addresses.iter().map(|&a| (a, Wei(required_deposit.0 * 4))).collect();
        Self { addresses, allocations, params, enclave }
    }

    /// The Fig. 3 procedure for `profile` as ordered calls to
    /// `contract`: register → deposit → contribute → calculate →
    /// transfer → record. Each organization's nonces run contiguously
    /// from `first_nonce(address)`, so submitting the script in order,
    /// in any batching, settles the session.
    pub fn script(
        &self,
        market: &Market,
        profile: &StrategyProfile,
        contract: Address,
        first_nonce: impl Fn(Address) -> u64,
    ) -> Vec<Transaction> {
        let n = self.addresses.len();
        let mut nonces: Vec<u64> = self.addresses.iter().map(|&a| first_nonce(a)).collect();
        let mut txs = Vec::with_capacity(4 * n + 2);
        let mut push = |who: usize, function: &str, args: Vec<Value>, value: Wei| {
            txs.push(Transaction {
                from: self.addresses[who],
                nonce: nonces[who],
                value,
                gas_limit: CALL_GAS,
                payload: TxPayload::Call { contract, function: function.into(), args },
            });
            nonces[who] += 1;
        };
        for i in 0..n {
            push(i, "register", vec![], Wei::ZERO);
        }
        for i in 0..n {
            push(i, "depositSubmit", vec![], self.params.required_deposit);
        }
        for (i, &addr) in self.addresses.iter().enumerate() {
            let d = Fixed::from_f64(profile[i].d);
            let f_ghz = Fixed::from_f64(market.org(i).frequency(profile[i].level) / 1e9);
            let mut args = vec![Value::Fixed(d), Value::Fixed(f_ghz)];
            if let Some(enclave) = &self.enclave {
                // The measurement enclave observed the training run and
                // signs the report (footnote 6).
                args.push(Value::Bytes(enclave.attest(addr, d, f_ghz).mac.to_vec()));
            }
            push(i, "contributionSubmit", args, Wei::ZERO);
        }
        push(0, "payoffCalculate", vec![], Wei::ZERO);
        push(0, "payoffTransfer", vec![], Wei::ZERO);
        for (i, &addr) in self.addresses.iter().enumerate() {
            push(i, "profileRecord", vec![Value::Addr(addr)], Wei::ZERO);
        }
        txs
    }
}

/// Outcome of a full on-chain settlement.
#[derive(Debug, Clone, PartialEq)]
pub struct SettlementReport {
    /// Organization addresses in market order.
    pub addresses: Vec<Address>,
    /// On-chain redistribution per organization (payoff units).
    pub onchain_redistribution: Vec<f64>,
    /// Off-chain `R_i` from Eq. (10) for comparison.
    pub offchain_redistribution: Vec<f64>,
    /// Largest absolute discrepancy between the two.
    pub max_abs_error: f64,
    /// Total gas consumed across all settlement transactions.
    pub total_gas: u64,
    /// Chain height after settlement.
    pub chain_height: usize,
}

impl SettlementReport {
    /// Whether on-chain and off-chain redistributions agree within
    /// `tol` payoff units.
    pub fn consistent(&self, tol: f64) -> bool {
        self.max_abs_error <= tol
    }
}

/// Drives one trading session end to end on a private single-node
/// chain: the organizations' contract calls (§VI) are submitted to the
/// session's own [`Node`] and mined one per block.
#[derive(Debug)]
pub struct SettlementSession {
    node: Node,
    contract: Address,
    plan: SettlementPlan,
}

impl SettlementSession {
    /// Builds the on-chain session for a game: boots a private chain,
    /// funds every organization, deploys the TradeFL contract with the
    /// market's parameters (converted to Gbit/GHz fixed point).
    ///
    /// # Errors
    ///
    /// Propagates contract parameter validation failures.
    pub fn deploy<A: AccuracyModel>(
        game: &CoopetitionGame<A>,
    ) -> Result<Self, SettlementError> {
        Self::deploy_with(game, None)
    }

    /// Like [`SettlementSession::deploy`], but the session requires
    /// TEE-attested contribution reports (footnote 6): the contract is
    /// deployed with the enclave's verification key and every
    /// `contributionSubmit` must carry a valid MAC.
    pub fn deploy_attested<A: AccuracyModel>(
        game: &CoopetitionGame<A>,
        enclave: Enclave,
    ) -> Result<Self, SettlementError> {
        Self::deploy_with(game, Some(enclave))
    }

    fn deploy_with<A: AccuracyModel>(
        game: &CoopetitionGame<A>,
        enclave: Option<Enclave>,
    ) -> Result<Self, SettlementError> {
        let plan = SettlementPlan::new(game.market(), Address::from_name, enclave);
        let contract_impl = TradeFlContract::new(plan.params.clone())?;
        let mut node = Node::new(&plan.allocations);
        let contract = node.deploy(Box::new(contract_impl));
        Ok(Self { node, contract, plan })
    }

    /// The session's chain node (for inspecting the chain afterwards).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The deployed contract address.
    pub fn contract(&self) -> Address {
        self.contract
    }

    /// Runs the full Fig. 3 procedure for an equilibrium profile — the
    /// [`SettlementPlan::script`], one transaction per block — then
    /// compares on-chain `R_i` against Eq. (10).
    ///
    /// # Errors
    ///
    /// [`SettlementError::Reverted`] if any on-chain step fails.
    pub fn settle<A: AccuracyModel>(
        &mut self,
        game: &CoopetitionGame<A>,
        profile: &StrategyProfile,
    ) -> Result<SettlementReport, SettlementError> {
        let market = game.market();
        let script =
            self.plan.script(market, profile, self.contract, |a| self.node.next_nonce(a));
        let mut total_gas = 0u64;
        let mut calculated = Vec::new();
        for tx in script {
            let function = match &tx.payload {
                TxPayload::Call { function, .. } => function.clone(),
                TxPayload::Transfer { .. } => String::new(),
            };
            let receipt = self.submit_and_mine(tx)?;
            total_gas = total_gas.saturating_add(receipt.gas_used);
            match receipt.status {
                ExecStatus::Reverted(reason) => {
                    return Err(SettlementError::Reverted { function, reason })
                }
                ExecStatus::Success if function == "payoffCalculate" => {
                    calculated = receipt.return_data;
                }
                ExecStatus::Success => {}
            }
        }

        let onchain: Vec<f64> = calculated
            .iter()
            .map(|v| v.as_fixed().map(Fixed::to_f64).unwrap_or(f64::NAN))
            .collect();
        let offchain: Vec<f64> =
            (0..market.len()).map(|i| game.redistribution(profile, i)).collect();
        let max_abs_error = onchain
            .iter()
            .zip(&offchain)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        Ok(SettlementReport {
            addresses: self.plan.addresses.clone(),
            onchain_redistribution: onchain,
            offchain_redistribution: offchain,
            max_abs_error,
            total_gas,
            chain_height: self.node.chain().height(),
        })
    }

    /// Calls `function` on the session's contract from `from` at its
    /// next nonce with [`CALL_GAS`], mines it in its own block, and
    /// returns the receipt — a hand-driven step of the Fig. 3
    /// procedure.
    ///
    /// # Errors
    ///
    /// [`NodeError`] if submission fails; the receipt itself may still
    /// be a revert — check [`Receipt::status`].
    pub fn call(
        &mut self,
        from: Address,
        function: &str,
        args: Vec<Value>,
        value: Wei,
    ) -> Result<Receipt, NodeError> {
        self.submit_and_mine(Transaction {
            from,
            nonce: self.node.next_nonce(from),
            value,
            gas_limit: CALL_GAS,
            payload: TxPayload::Call { contract: self.contract, function: function.into(), args },
        })
    }

    /// Submits `tx`, mines it alone in a block, and returns its receipt.
    fn submit_and_mine(&mut self, tx: Transaction) -> Result<Receipt, NodeError> {
        let hash = self.node.submit(tx)?;
        self.node.mine();
        Ok(self
            .node
            .receipt(hash)
            .cloned()
            // lint:allow(no-panic-in-lib): the tx was submitted just before the mine
            .expect("just-mined transaction must have a receipt"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradefl_core::accuracy::SqrtAccuracy;
    use tradefl_core::config::MarketConfig;
    use tradefl_core::strategy::Strategy;

    fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
        let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
        CoopetitionGame::new(market, SqrtAccuracy::paper_default())
    }

    fn spread_profile(g: &CoopetitionGame<SqrtAccuracy>) -> StrategyProfile {
        (0..g.market().len())
            .map(|i| {
                let level = g.market().org(i).compute_level_count() - 1;
                let (lo, hi) = g.market().feasible_range(i, level).unwrap();
                let t = i as f64 / g.market().len().max(1) as f64;
                Strategy::new(lo + t * (hi - lo), level)
            })
            .collect()
    }

    #[test]
    fn onchain_settlement_matches_offchain_eq10() {
        let g = game(5, 77);
        let profile = spread_profile(&g);
        let mut session = SettlementSession::deploy(&g).unwrap();
        let report = session.settle(&g, &profile).unwrap();
        // Fixed-point resolution is 1e-9 per term; allow generous slack.
        assert!(
            report.consistent(1e-3),
            "max error {} (on {:?} vs off {:?})",
            report.max_abs_error,
            report.onchain_redistribution,
            report.offchain_redistribution
        );
        assert!(report.total_gas > 0);
        session.node().chain().verify().unwrap();
    }

    #[test]
    fn settlement_emits_full_audit_trail() {
        let g = game(3, 5);
        let profile = spread_profile(&g);
        let mut session = SettlementSession::deploy(&g).unwrap();
        session.settle(&g, &profile).unwrap();
        let chain = session.node().chain();
        for event in [
            "Registered",
            "DepositSubmitted",
            "ContributionSubmitted",
            "PayoffCalculated",
            "PayoffTransferred",
            "ProfileRecorded",
        ] {
            assert_eq!(chain.logs_by_event(event).count(), 3, "{event}");
        }
    }

    #[test]
    fn attested_session_accepts_enclave_signed_reports() {
        let g = game(3, 31);
        let profile = spread_profile(&g);
        let enclave = crate::attestation::Enclave::from_label("vendor-x");
        let mut session = SettlementSession::deploy_attested(&g, enclave).unwrap();
        let report = session.settle(&g, &profile).unwrap();
        assert!(report.consistent(1e-3));
    }

    #[test]
    fn attested_session_rejects_unattested_contributions() {
        let g = game(3, 33);
        let enclave = crate::attestation::Enclave::from_label("vendor-x");
        let mut session = SettlementSession::deploy_attested(&g, enclave.clone()).unwrap();
        let addrs: Vec<Address> = g
            .market()
            .orgs()
            .iter()
            .map(|o| Address::from_name(o.name()))
            .collect();
        for &a in &addrs {
            assert!(session.call(a, "register", vec![], Wei::ZERO).unwrap().status.is_success());
        }
        for &a in &addrs {
            let bond = Wei(session.node().state().balance_of(a).0 / 4);
            assert!(session.call(a, "depositSubmit", vec![], bond).unwrap().status.is_success());
        }
        let d = Fixed::from_f64(0.5);
        let f = Fixed::from_f64(3.0);
        // Missing attestation: rejected.
        let r = session
            .call(addrs[0], "contributionSubmit", vec![Value::Fixed(d), Value::Fixed(f)], Wei::ZERO)
            .unwrap();
        assert!(!r.status.is_success(), "unattested report must revert");
        // Attestation for a DIFFERENT d (the org inflates its report).
        let att = enclave.attest(addrs[0], Fixed::from_f64(0.1), f);
        let args = vec![Value::Fixed(d), Value::Fixed(f), Value::Bytes(att.mac.to_vec())];
        let r = session.call(addrs[0], "contributionSubmit", args, Wei::ZERO).unwrap();
        assert!(!r.status.is_success(), "inflated report must revert");
        // Honest, properly attested report: accepted.
        let att = enclave.attest(addrs[0], d, f);
        let args = vec![Value::Fixed(d), Value::Fixed(f), Value::Bytes(att.mac.to_vec())];
        let r = session.call(addrs[0], "contributionSubmit", args, Wei::ZERO).unwrap();
        assert!(r.status.is_success());
    }

    #[test]
    fn settling_twice_is_rejected() {
        let g = game(3, 9);
        let profile = spread_profile(&g);
        let mut session = SettlementSession::deploy(&g).unwrap();
        session.settle(&g, &profile).unwrap();
        let err = session.settle(&g, &profile).unwrap_err();
        assert!(
            matches!(&err, SettlementError::Reverted { function, .. } if function == "register"),
            "{err}"
        );
    }

    /// Two organizations named alike map to one address; the session
    /// must refuse to deploy rather than mine a settlement that fails
    /// on its second `register` with `BadNonce`.
    #[test]
    fn duplicate_participants_are_rejected_at_deploy() {
        use tradefl_core::market::MechanismParams;
        use tradefl_core::org::Organization;
        let orgs = ["acme", "acme", "globex"]
            .iter()
            .map(|&name| {
                Organization::builder(name).compute_levels(vec![1e9, 2e9, 3e9]).build().unwrap()
            })
            .collect();
        let rho = (0..3)
            .map(|i| (0..3).map(|j| if i == j { 0.0 } else { 0.05 }).collect())
            .collect();
        let market = Market::new(orgs, rho, MechanismParams::paper_default()).unwrap();
        let g = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        let err = SettlementSession::deploy(&g).unwrap_err();
        assert!(matches!(err, SettlementError::Contract(_)), "{err}");
    }

    /// The chain one settlement produces, pinned: these tip hashes and
    /// state roots were recorded when the settlement driver still
    /// scripted Fig. 3 by hand, so the shared [`SettlementPlan`] script
    /// provably mines the same blocks, attested or not.
    #[test]
    fn settlement_chains_match_the_pinned_roots() {
        let root = "49d56eef7b4e62d93f71d1621a652ee980da55baf05520ba0ba41530996df6ad";
        let cases = [
            (None, "eb9ddc001c27d81ccaa35abacddb2c7a060a3d1a7769dcbc2aeab65c9171b5b5"),
            (
                Some(crate::attestation::Enclave::from_label("vendor-x")),
                "a4c6cecead71b8d8c1b2548646bd612913659fa192616f689522c33464571a43",
            ),
        ];
        for (enclave, tip) in cases {
            let g = game(4, 12);
            let mut session = SettlementSession::deploy_with(&g, enclave).unwrap();
            let report = session.settle(&g, &spread_profile(&g)).unwrap();
            assert_eq!((report.chain_height, report.total_gas), (19, 519_000));
            let (got_tip, got_root) =
                (session.node().chain().tip_hash(), session.node().state().root());
            assert_eq!(got_tip.to_hex(), tip);
            assert_eq!(got_root.to_hex(), root);
        }
    }

    #[test]
    fn scripts_carry_contiguous_per_org_nonces() {
        let g = game(4, 3);
        let profile = spread_profile(&g);
        let enclave = crate::attestation::Enclave::from_label("vendor-x");
        for plan in [
            SettlementPlan::new(g.market(), Address::from_name, None),
            SettlementPlan::new(g.market(), Address::from_name, Some(enclave)),
        ] {
            let txs = plan.script(g.market(), &profile, Address::from_name("c"), |_| 3);
            assert_eq!(txs.len(), 4 * 4 + 2);
            for &addr in &plan.addresses {
                let nonces: Vec<u64> =
                    txs.iter().filter(|t| t.from == addr).map(|t| t.nonce).collect();
                let expected: Vec<u64> = (3..3 + nonces.len() as u64).collect();
                assert_eq!(nonces, expected, "nonces for {addr} must be 3..3+k in order");
            }
        }
    }

    #[test]
    fn scripts_are_worker_count_invariant() {
        use tradefl_runtime::sync::pool::Pool;
        use tradefl_solver::DbrSolver;
        let g = game(3, 7);
        let script = |workers: usize| {
            let eq = DbrSolver::new().solve_with(&g, &Pool::new(workers)).unwrap();
            let plan = SettlementPlan::new(g.market(), Address::from_name, None);
            (plan.script(g.market(), &eq.profile, Address::from_name("c"), |_| 0), plan.params)
        };
        assert_eq!(script(1), script(4), "worker count must not change the script");
    }
}
