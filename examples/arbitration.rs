//! Dispute arbitration — the credibility half of TradeFL (§III-F: "In
//! the event of disputes between organizations, the recorded results
//! can serve as a basis for arbitration and can be retroactively
//! enforced").
//!
//! This example plays out a dispute end to end:
//! 1. a TEE-attested settlement runs on chain;
//! 2. one organization later *claims* it contributed more than
//!    recorded; the arbitrator refutes the claim from chain evidence
//!    alone — the recorded `contributionSubmit`, its Merkle inclusion
//!    proof against the block header, and the attestation check;
//! 3. an attempt to tamper with the recorded history is detected by
//!    chain verification.
//!
//! Run with: `cargo run --release --example arbitration`

use tradefl::ledger::attestation::{verify, Enclave};
use tradefl::ledger::tx::{TxPayload, Value};
use tradefl::ledger::types::{Address, Fixed};
use tradefl::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let market = MarketConfig::table_ii().with_orgs(4).build(7)?;
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let eq = DbrSolver::new().solve(&game)?;

    // 1. Attested settlement.
    let enclave = Enclave::from_label("consortium-tee-vendor");
    let (engine, report) = Engine::settle(&game, &eq.profile, Some(enclave.clone()))?;
    println!(
        "settled: {} orgs, chain height {}, max on/off-chain error {:.1e}",
        report.addresses.len(),
        report.chain_height,
        report.max_abs_error
    );

    // 2. The dispute: org-2 claims it contributed d = 0.95.
    let claimant = Address::from_name(game.market().org(2).name());
    let claimed_d = 0.95;
    println!("\ndispute: {claimant} claims it contributed d = {claimed_d}");

    // The arbitrator pulls the recorded contribution from chain events…
    let chain = engine.network().validator(0).node.chain();
    let record = chain
        .logs_by_event("ContributionSubmitted")
        .find(|log| log.field("org").and_then(Value::as_addr) == Some(claimant))
        .expect("contribution recorded on-chain");
    let recorded_d = record.field("d").and_then(Value::as_fixed).unwrap();
    let recorded_f = record.field("f_ghz").and_then(Value::as_fixed).unwrap();
    println!("arbitrator: chain records d = {:.4}", recorded_d.to_f64());

    // …and anchors it: the recording transaction is provably included
    // in a block header (a light client needs only headers).
    let (height, tx_root, proof, tx_hash) = chain
        .blocks()
        .iter()
        .find_map(|block| {
            // Find the transaction that carried this contribution.
            let idx = block.txs.iter().position(|tx| {
                tx.from == claimant
                    && matches!(&tx.payload,
                        TxPayload::Call { function, .. } if function == "contributionSubmit")
            })?;
            let proof = block.prove_tx(idx).expect("in range");
            Some((block.header.number, block.header.tx_root, proof, block.txs[idx].hash()))
        })
        .expect("settlement recorded the contribution");
    // Blocks batch several calls, so the proof carries real siblings.
    assert!(!proof.path.is_empty() && proof.verify(tx_hash, tx_root));
    println!(
        "arbitrator: inclusion proven in block {height} with a {}-step Merkle path",
        proof.path.len()
    );

    // The TEE attestation binds the *observed* training run to the
    // recorded numbers; the claimed d = 0.95 cannot produce a valid MAC.
    let honest = verify(
        &enclave.verification_key(),
        claimant,
        recorded_d,
        recorded_f,
        &enclave.attest(claimant, recorded_d, recorded_f),
    );
    let claimed = verify(
        &enclave.verification_key(),
        claimant,
        Fixed::from_f64(claimed_d),
        recorded_f,
        &enclave.attest(claimant, recorded_d, recorded_f),
    );
    assert!(honest && !claimed);
    println!("arbitrator: recorded value attests, claimed value does not — claim REJECTED");

    // 3. Retroactive tampering fails: a forged export either refuses to
    //    decode (push-validation inside the codec) or decodes to a chain
    //    that provably differs from the committed history.
    let bytes = tradefl::ledger::codec::encode_chain(chain);
    let mut detected = chain.verify().is_ok();
    for pos in [bytes.len() / 3, bytes.len() / 2, 2 * bytes.len() / 3] {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0xff;
        detected &= match tradefl::ledger::codec::decode_chain(&corrupted) {
            Err(_) => true,
            Ok(decoded) => decoded != *chain || decoded.verify().is_err(),
        };
    }
    assert!(detected);
    println!("tamper check: corrupted exports rejected; intact chain verifies");
    println!("\narbitration complete — the paper's credibility guarantees hold.");
    Ok(())
}
