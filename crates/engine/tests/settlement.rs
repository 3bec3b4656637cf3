//! The Fig. 3 settlement of a solved game, driven by [`Engine::settle`]:
//! a one-validator, fault-free engine session. On-chain `R_i` against
//! Eq. (10), the audit trail, the attested path, the pinned chain, and
//! the receipts, balances and `R_i` of the Table II settlements pinned
//! against the single-node driver this one replaced.

use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::strategy::{Strategy, StrategyProfile};
use tradefl_engine::{Engine, EngineError};
use tradefl_ledger::attestation::Enclave;
use tradefl_ledger::sha256::Sha256;
use tradefl_ledger::tx::Value;
use tradefl_ledger::types::{Fixed, Hash256};
use tradefl_ledger::Node;
use tradefl_runtime::check::Gen;
use tradefl_runtime::{prop_assert, props};
use tradefl_solver::DbrSolver;

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

/// The settled engine's one chain.
fn node(engine: &Engine) -> &Node {
    &engine.network().validator(0).node
}

#[test]
fn onchain_settlement_matches_offchain_eq10() {
    let g = game(5, 77);
    let (engine, report) = Engine::settle(&g, &spread_profile(&g), None).unwrap();
    // Fixed-point resolution is 1e-9 per term; allow generous slack.
    assert!(
        report.consistent(1e-3),
        "max error {} (on {:?} vs off {:?})",
        report.max_abs_error,
        report.onchain_redistribution,
        report.offchain_redistribution
    );
    assert!(report.total_gas > 0);
    node(&engine).chain().verify().unwrap();
}

#[test]
fn settlement_emits_full_audit_trail() {
    let g = game(3, 5);
    let (engine, _) = Engine::settle(&g, &spread_profile(&g), None).unwrap();
    let chain = node(&engine).chain();
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
    let enclave = Enclave::from_label("vendor-x");
    let (_, report) = Engine::settle(&g, &spread_profile(&g), Some(enclave)).unwrap();
    assert!(report.consistent(1e-3));
}

/// Two organizations named alike map to one address; the session must
/// refuse to deploy rather than mine a settlement that fails on its
/// second `register` with `BadNonce`.
#[test]
fn duplicate_participants_are_rejected_at_deploy() {
    use tradefl_core::market::{Market, MechanismParams};
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
    let err = Engine::settle(&g, &spread_profile(&g), None).unwrap_err();
    assert!(matches!(err, EngineError::Contract(_)), "{err}");
}

/// The chain one settlement produces, pinned. Only the height and the
/// tip hash depend on how the calls are batched into blocks; the state
/// root and the gas do not.
#[test]
fn settlement_chains_match_the_pinned_roots() {
    let root = "49d56eef7b4e62d93f71d1621a652ee980da55baf05520ba0ba41530996df6ad";
    let cases = [
        (None, "5fd83a094790fb770c69f3ffdac3d2b6fa9088c17d6a0acd0c1dac44c6e8d2f2"),
        (
            Some(Enclave::from_label("vendor-x")),
            "75aacb6ef864506635e883912097b9dea463b582e99a7f1435d87c7764100c73",
        ),
    ];
    for (enclave, tip) in cases {
        let g = game(4, 12);
        let (engine, report) = Engine::settle(&g, &spread_profile(&g), enclave).unwrap();
        assert_eq!((report.chain_height, report.total_gas), (5, 519_000));
        let node = node(&engine);
        assert_eq!(node.chain().tip_hash().to_hex(), tip);
        assert_eq!(node.state().root().to_hex(), root);
    }
}

/// A digest of everything a settlement decides: every scripted call's
/// receipt (status, gas, logs, return data), every participant's and
/// the contract's final balance, and every on-chain `R_i`.
fn settlement_digest(engine: &Engine) -> String {
    let (plan, contract) = (engine.session_plan(0).unwrap(), engine.contract(0).unwrap());
    let node = node(engine);
    let mut h = Sha256::new();
    for tx in plan.scripted_txs(contract) {
        h.update(&node.receipt(tx.hash()).unwrap().digest().0);
    }
    for &a in plan.addresses.iter().chain([&contract]) {
        h.update(&node.state().balance_of(a).0.to_le_bytes());
    }
    for &a in &plan.addresses {
        let r = node.call_view(contract, a, "redistributionOf", &[Value::Addr(a)]).unwrap();
        h.update(&r[0].as_fixed().unwrap().0.to_le_bytes());
    }
    Hash256(h.finalize()).to_hex()
}

/// The Table II DBR settlements at seed 42, plain and attested: the
/// digests were recorded from the single-node driver, which mined one
/// call per block. Batching calls into blocks must change none of them.
#[test]
fn settlements_match_the_single_node_driver() {
    let cases = [
        (5, false, "42ea639e505b06e001ac6136f0e826a9b8ac89aec864c09b6c0409b9f1881707"),
        (5, true, "0865a8fa3e8157cbf8c423b588094eefe054dea4f4c115ab035d6f589ffc266e"),
        (10, false, "872f086c569edb7faf0dfadeae3f302b0e560b8df98ff7d59d660a8fd7d11952"),
        (10, true, "768d142cb1935b1429d535519029f81da6a17820af401bb47684c4fdbaa53a66"),
        (71, false, "01608e88fea93c381ca4ca747e94db5cabdc8c918cba9a914ad403a86f9ca824"),
        (71, true, "fe55ba850a5931db39d9ba08c8fdb7f3e8b0856da011b857f9e2b22601d5b87d"),
    ];
    for (n, attested, digest) in cases {
        let g = game(n, 42);
        let eq = DbrSolver::new().solve(&g).unwrap();
        let enclave = attested.then(|| Enclave::from_label("tradefl-cli"));
        let (engine, report) = Engine::settle(&g, &eq.profile, enclave).unwrap();
        assert!(report.consistent(1e-3), "{n} orgs: max error {}", report.max_abs_error);
        assert!(report.chain_height < 4 * n + 3, "{n} orgs: calls were batched");
        assert_eq!(settlement_digest(&engine), digest, "{n} orgs, attested {attested}");
    }
}

fn any_game(g: &mut Gen) -> CoopetitionGame<SqrtAccuracy> {
    let seed = g.u64(0..200);
    let n = g.usize(2..6);
    let mu = g.f64(0.01..0.2);
    let market = MarketConfig::table_ii()
        .with_orgs(n)
        .with_rho_mean(mu)
        .build(seed)
        .unwrap();
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

fn profile_for(game: &CoopetitionGame<SqrtAccuracy>, ts: &[f64]) -> StrategyProfile {
    (0..game.market().len())
        .map(|i| {
            let level = game.market().org(i).compute_level_count() - 1;
            let (lo, hi) = game.market().feasible_range(i, level).unwrap();
            let t = ts[i % ts.len()];
            Strategy::new(lo + t * (hi - lo), level)
        })
        .collect()
}

props! {
    #![cases = 12]

    /// The on-chain redistribution matches Eq. (10) for random markets
    /// and contribution profiles, and the chain verifies afterwards.
    fn settlement_matches_offchain(g) {
        let game = any_game(g);
        let ts = g.vec(6..=6usize, |g| g.f64(0.0..=1.0));
        let profile = profile_for(&game, &ts);
        let (engine, report) = Engine::settle(&game, &profile, None).unwrap();
        prop_assert!(report.consistent(1e-3), "max error {}", report.max_abs_error);
        // Exact integer budget balance on-chain.
        let sum_fixed: i128 = report
            .onchain_redistribution
            .iter()
            .map(|&r| Fixed::from_f64(r).0)
            .sum();
        prop_assert!(sum_fixed.abs() <= report.addresses.len() as i128);
        node(&engine).chain().verify().unwrap();
    }
}
