//! Integration: solver equilibria settled on the ledger, including the
//! CGBD profile, mechanism properties verified *on-chain*, and the
//! repudiation scenarios the contract must block.

use tradefl::ledger::settlement::SettlementSession;
use tradefl::ledger::tx::Value;
use tradefl::ledger::types::{Fixed, Wei};
use tradefl::prelude::*;
use tradefl::solver::CgbdSolver;

fn small_game(seed: u64) -> CoopetitionGame<SqrtAccuracy> {
    let market = MarketConfig::table_ii().with_orgs(4).build(seed).unwrap();
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

#[test]
fn cgbd_equilibrium_settles_consistently() {
    let game = small_game(11);
    let report = CgbdSolver::new().solve(&game).unwrap();
    let mut session = SettlementSession::deploy(&game).unwrap();
    let settlement = session.settle(&game, &report.equilibrium.profile).unwrap();
    assert!(settlement.consistent(1e-3), "error {}", settlement.max_abs_error);
}

#[test]
fn onchain_budget_balance_is_exact_in_integer_arithmetic() {
    let game = small_game(13);
    let eq = DbrSolver::new().solve(&game).unwrap();
    let mut session = SettlementSession::deploy(&game).unwrap();
    session.settle(&game, &eq.profile).unwrap();
    // Query each org's recorded redistribution and sum in fixed point.
    let sum: i128 = session
        .node()
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
    let mut session = SettlementSession::deploy(&game).unwrap();
    let before = session.node().state().total_supply();
    session.settle(&game, &eq.profile).unwrap();
    let after = session.node().state().total_supply();
    assert_eq!(before, after, "settlement must only move wei, never mint");
}

#[test]
fn underfunded_deposit_is_rejected_on_chain() {
    let game = small_game(19);
    let mut session = SettlementSession::deploy(&game).unwrap();
    let org0 = tradefl::ledger::types::Address::from_name(game.market().org(0).name());
    // Register everyone first.
    for org in game.market().orgs() {
        let addr = tradefl::ledger::types::Address::from_name(org.name());
        let r = session.call(addr, "register", vec![], Wei::ZERO).unwrap();
        assert!(r.status.is_success());
    }
    // A one-wei deposit must revert.
    let r = session.call(org0, "depositSubmit", vec![], Wei(1)).unwrap();
    assert!(!r.status.is_success(), "tiny deposit must be rejected");
}

#[test]
fn contribution_outside_the_reported_strategy_space_reverts() {
    let game = small_game(23);
    let mut session = SettlementSession::deploy(&game).unwrap();
    let addrs: Vec<_> = game
        .market()
        .orgs()
        .iter()
        .map(|o| tradefl::ledger::types::Address::from_name(o.name()))
        .collect();
    for &a in &addrs {
        session.call(a, "register", vec![], Wei::ZERO).unwrap();
    }
    // Bond amount: read from a successful deposit flow instead of
    // duplicating the formula.
    for &a in &addrs {
        let bond = session.node().state().balance_of(a).0 / 4; // deploy funds 4x the bond
        let r = session.call(a, "depositSubmit", vec![], Wei(bond)).unwrap();
        assert!(r.status.is_success());
    }
    // d > 1 reverts.
    let args = vec![Value::Fixed(Fixed::from_f64(1.5)), Value::Fixed(Fixed::from_f64(3.0))];
    let r = session.call(addrs[0], "contributionSubmit", args, Wei::ZERO).unwrap();
    assert!(!r.status.is_success(), "d > 1 must revert");
}

#[test]
fn audit_trail_matches_equilibrium_profile() {
    let game = small_game(29);
    let eq = DbrSolver::new().solve(&game).unwrap();
    let mut session = SettlementSession::deploy(&game).unwrap();
    session.settle(&game, &eq.profile).unwrap();
    let logs: Vec<_> = session.node().chain().logs_by_event("ContributionSubmitted").collect();
    assert_eq!(logs.len(), game.market().len());
    for log in logs {
        let d = log.field("d").and_then(Value::as_fixed).unwrap().to_f64();
        let matched = (0..game.market().len()).any(|i| (eq.profile[i].d - d).abs() < 1e-6);
        assert!(matched, "on-chain d={d} not found in the equilibrium profile");
    }
}
