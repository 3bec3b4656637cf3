//! Integration: solver equilibria settled on the ledger, including the
//! CGBD profile, mechanism properties verified *on-chain*, and the
//! repudiation scenarios the contract must block.

use tradefl::ledger::settlement::{SettlementPlan, CALL_GAS};
use tradefl::ledger::tx::{Receipt, Transaction, TxPayload, Value};
use tradefl::ledger::types::{Address, Fixed, Wei};
use tradefl::ledger::{Node, TradeFlContract};
use tradefl::prelude::*;
use tradefl::solver::CgbdSolver;

fn small_game(seed: u64) -> CoopetitionGame<SqrtAccuracy> {
    let market = MarketConfig::table_ii().with_orgs(4).build(seed).unwrap();
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

/// The settled engine's one chain.
fn node(engine: &Engine) -> &Node {
    &engine.network().validator(0).node
}

/// A node funded by `game`'s settlement plan with its contract
/// deployed, for driving the contract by hand; returns the plan's
/// participant addresses too.
fn deployed(game: &CoopetitionGame<SqrtAccuracy>) -> (Node, Address, Vec<Address>) {
    let plan = SettlementPlan::new(game.market(), Address::from_name, None);
    let mut node = Node::new(&plan.allocations);
    let contract = node.deploy(Box::new(TradeFlContract::new(plan.params).unwrap()));
    (node, contract, plan.addresses)
}

/// Calls `function` from `from` at its next nonce and mines the call.
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
fn cgbd_equilibrium_settles_consistently() {
    let game = small_game(11);
    let report = CgbdSolver::default().solve(&game).unwrap();
    let (_, settlement) = Engine::settle(&game, &report.equilibrium.profile, None).unwrap();
    assert!(settlement.consistent(1e-3), "error {}", settlement.max_abs_error);
}

#[test]
fn onchain_budget_balance_is_exact_in_integer_arithmetic() {
    let game = small_game(13);
    let eq = DbrSolver::new().solve(&game).unwrap();
    let (engine, _) = Engine::settle(&game, &eq.profile, None).unwrap();
    // Query each org's recorded redistribution and sum in fixed point.
    let sum: i128 = node(&engine)
        .chain()
        .logs_by_event("PayoffCalculated")
        .map(|log| {
            log.field("redistribution")
                .and_then(Value::as_fixed)
                .expect("redistribution field present")
                .0
        })
        .sum();
    assert_eq!(sum, 0, "Def. 5 on-chain: sum R_i must be exactly zero");
}

#[test]
fn settlement_conserves_total_wei() {
    let game = small_game(17);
    let eq = DbrSolver::new().solve(&game).unwrap();
    let (engine, _) = Engine::settle(&game, &eq.profile, None).unwrap();
    // Genesis funds exactly the plan's allocations.
    let plan = SettlementPlan::new(game.market(), Address::from_name, None);
    let before = Wei(plan.allocations.iter().map(|&(_, w)| w.0).sum());
    let after = node(&engine).state().total_supply();
    assert_eq!(before, after, "settlement must only move wei, never mint");
}

#[test]
fn underfunded_deposit_is_rejected_on_chain() {
    let game = small_game(19);
    let (mut node, contract, addrs) = deployed(&game);
    // Register everyone first.
    for &addr in &addrs {
        let r = call(&mut node, contract, addr, "register", vec![], Wei::ZERO);
        assert!(r.status.is_success());
    }
    // A one-wei deposit must revert.
    let r = call(&mut node, contract, addrs[0], "depositSubmit", vec![], Wei(1));
    assert!(!r.status.is_success(), "tiny deposit must be rejected");
}

#[test]
fn contribution_outside_the_reported_strategy_space_reverts() {
    let game = small_game(23);
    let (mut node, contract, addrs) = deployed(&game);
    for &a in &addrs {
        call(&mut node, contract, a, "register", vec![], Wei::ZERO);
    }
    // Bond amount: read from a successful deposit flow instead of
    // duplicating the formula.
    for &a in &addrs {
        let bond = node.state().balance_of(a).0 / 4; // the plan funds 4x the bond
        let r = call(&mut node, contract, a, "depositSubmit", vec![], Wei(bond));
        assert!(r.status.is_success());
    }
    // d > 1 reverts.
    let args = vec![Value::Fixed(Fixed::from_f64(1.5)), Value::Fixed(Fixed::from_f64(3.0))];
    let r = call(&mut node, contract, addrs[0], "contributionSubmit", args, Wei::ZERO);
    assert!(!r.status.is_success(), "d > 1 must revert");
}

#[test]
fn audit_trail_matches_equilibrium_profile() {
    let game = small_game(29);
    let eq = DbrSolver::new().solve(&game).unwrap();
    let (engine, _) = Engine::settle(&game, &eq.profile, None).unwrap();
    let logs: Vec<_> = node(&engine).chain().logs_by_event("ContributionSubmitted").collect();
    assert_eq!(logs.len(), game.market().len());
    for log in logs {
        let d = log.field("d").and_then(Value::as_fixed).unwrap().to_f64();
        let matched = (0..game.market().len()).any(|i| (eq.profile[i].d - d).abs() < 1e-6);
        assert!(matched, "on-chain d={d} not found in the equilibrium profile");
    }
}
