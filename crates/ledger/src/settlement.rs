//! End-to-end settlement: bridges the off-chain coopetition game (the
//! equilibrium `{d_i*, f_i*}` computed by `tradefl-solver`) onto the
//! on-chain TradeFL contract, runs the Fig. 3 procedure, and verifies
//! that the on-chain redistribution matches the off-chain Eq. (10).
//!
//! [`SettlementPlan`] is the one source of the Fig. 3 procedure: bond
//! sizing, contract parameters, genesis funding and the scripted
//! register → deposit → contribute → calculate → transfer → record
//! transactions. The market engine (`tradefl-engine`) mines that script
//! on its replicated chain, and [`SettlementReport::from_receipts`]
//! audits the result from the scripted transactions' receipts.

use crate::attestation::Enclave;
use crate::node::Node;
use crate::tradefl_contract::SessionParams;
use crate::tx::{ExecStatus, Transaction, TxPayload, Value};
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

/// Why a settlement did not complete.
#[derive(Debug)]
pub enum SettlementError {
    /// A scripted transaction reverted, or never reached the chain.
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
            SettlementError::Reverted { function, reason } => {
                write!(f, "{function} reverted: {reason}")
            }
        }
    }
}

impl std::error::Error for SettlementError {}

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

    /// Audits a mined [`SettlementPlan::script`] on `node`: reads each
    /// scripted transaction's receipt, sums their gas, takes the
    /// on-chain `R_i` from `payoffCalculate`'s return data and compares
    /// them against Eq. (10) for `profile`.
    ///
    /// # Errors
    ///
    /// [`SettlementError::Reverted`] for the first scripted transaction
    /// that reverted or has no receipt on `node`.
    pub fn from_receipts<A: AccuracyModel>(
        node: &Node,
        addresses: &[Address],
        script: impl IntoIterator<Item = Transaction>,
        game: &CoopetitionGame<A>,
        profile: &StrategyProfile,
    ) -> Result<Self, SettlementError> {
        let mut total_gas = 0u64;
        let mut calculated: &[Value] = &[];
        for tx in script {
            let function = match &tx.payload {
                TxPayload::Call { function, .. } => function.as_str(),
                TxPayload::Transfer { .. } => "",
            };
            let Some(receipt) = node.receipt(tx.hash()) else {
                let reason = "never mined".into();
                return Err(SettlementError::Reverted { function: function.into(), reason });
            };
            total_gas = total_gas.saturating_add(receipt.gas_used);
            match &receipt.status {
                ExecStatus::Reverted(reason) => {
                    let (function, reason) = (function.into(), reason.clone());
                    return Err(SettlementError::Reverted { function, reason });
                }
                ExecStatus::Success if function == "payoffCalculate" => {
                    calculated = &receipt.return_data;
                }
                ExecStatus::Success => {}
            }
        }

        let onchain: Vec<f64> = calculated
            .iter()
            .map(|v| v.as_fixed().map(Fixed::to_f64).unwrap_or(f64::NAN))
            .collect();
        let offchain: Vec<f64> =
            (0..game.market().len()).map(|i| game.redistribution(profile, i)).collect();
        let max_abs_error = onchain
            .iter()
            .zip(&offchain)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        Ok(Self {
            addresses: addresses.to_vec(),
            onchain_redistribution: onchain,
            offchain_redistribution: offchain,
            max_abs_error,
            total_gas,
            chain_height: node.chain().height(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tradefl_contract::TradeFlContract;
    use crate::tx::Receipt;
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

    /// A node funded by `plan` with its contract deployed, as the engine
    /// boots each validator.
    fn deployed(plan: &SettlementPlan) -> (Node, Address) {
        let mut node = Node::new(&plan.allocations);
        let contract = node.deploy(Box::new(TradeFlContract::new(plan.params.clone()).unwrap()));
        (node, contract)
    }

    /// Calls `function` on `contract` from `from` at its next nonce and
    /// mines the call in its own block.
    fn call(
        node: &mut Node,
        contract: Address,
        from: Address,
        function: &str,
        args: Vec<Value>,
        value: Wei,
    ) -> Receipt {
        let hash = node
            .submit(Transaction {
                from,
                nonce: node.next_nonce(from),
                value,
                gas_limit: CALL_GAS,
                payload: TxPayload::Call { contract, function: function.into(), args },
            })
            .unwrap();
        node.mine();
        node.receipt(hash).unwrap().clone()
    }

    #[test]
    fn attested_session_rejects_unattested_contributions() {
        let g = game(3, 33);
        let enclave = crate::attestation::Enclave::from_label("vendor-x");
        let plan = SettlementPlan::new(g.market(), Address::from_name, Some(enclave.clone()));
        let (mut node, contract) = deployed(&plan);
        let addrs = &plan.addresses;
        for &a in addrs {
            let r = call(&mut node, contract, a, "register", vec![], Wei::ZERO);
            assert!(r.status.is_success());
        }
        for &a in addrs {
            let bond = Wei(node.state().balance_of(a).0 / 4);
            let r = call(&mut node, contract, a, "depositSubmit", vec![], bond);
            assert!(r.status.is_success());
        }
        let d = Fixed::from_f64(0.5);
        let f = Fixed::from_f64(3.0);
        // Missing attestation: rejected.
        let args = vec![Value::Fixed(d), Value::Fixed(f)];
        let r = call(&mut node, contract, addrs[0], "contributionSubmit", args, Wei::ZERO);
        assert!(!r.status.is_success(), "unattested report must revert");
        // Attestation for a DIFFERENT d (the org inflates its report).
        let att = enclave.attest(addrs[0], Fixed::from_f64(0.1), f);
        let args = vec![Value::Fixed(d), Value::Fixed(f), Value::Bytes(att.mac.to_vec())];
        let r = call(&mut node, contract, addrs[0], "contributionSubmit", args, Wei::ZERO);
        assert!(!r.status.is_success(), "inflated report must revert");
        // Honest, properly attested report: accepted.
        let att = enclave.attest(addrs[0], d, f);
        let args = vec![Value::Fixed(d), Value::Fixed(f), Value::Bytes(att.mac.to_vec())];
        let r = call(&mut node, contract, addrs[0], "contributionSubmit", args, Wei::ZERO);
        assert!(r.status.is_success());
    }

    /// A session settles once: after the whole script is mined, a second
    /// script's first `register` reverts, and the audit names it.
    #[test]
    fn a_second_register_reverts() {
        let g = game(3, 9);
        let profile = spread_profile(&g);
        let plan = SettlementPlan::new(g.market(), Address::from_name, None);
        let (mut node, contract) = deployed(&plan);
        let script =
            |node: &Node| plan.script(g.market(), &profile, contract, |a| node.next_nonce(a));
        let mut mined = Vec::new();
        for _ in 0..2 {
            let txs = script(&node);
            for tx in &txs {
                node.submit(tx.clone()).unwrap();
            }
            node.mine();
            mined.push(txs);
        }
        let unmined = script(&node);
        let audit = |txs: &[Transaction]| {
            let txs = txs.iter().cloned();
            SettlementReport::from_receipts(&node, &plan.addresses, txs, &g, &profile)
        };
        assert!(audit(&mined[0]).unwrap().consistent(1e-3));
        let err = audit(&mined[1]).unwrap_err();
        assert!(
            matches!(&err, SettlementError::Reverted { function, .. } if function == "register"),
            "{err}"
        );
        let err = audit(&unmined).unwrap_err();
        assert!(
            matches!(&err, SettlementError::Reverted { reason, .. } if reason == "never mined"),
            "{err}"
        );
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
