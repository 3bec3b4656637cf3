//! A MELLODDY-style pharmaceutical consortium (the paper's §I
//! motivating scenario): competing drug-discovery companies jointly
//! train a model, with TradeFL compensating the coopetition damage and
//! settling the compensation on a private chain so that nobody can
//! repudiate it.
//!
//! Run with: `cargo run --release --example pharma_consortium`

use tradefl::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Six companies: two big-pharma rivals (intense competition), two
    // mid-size specialists (moderate competition with everyone), and
    // two biotech startups (small data, little market overlap).
    let companies = [
        ("helvetia-pharma", 25e9, 2400.0, 5.0e9),
        ("rhein-labs", 24e9, 2300.0, 4.6e9),
        ("adriatic-biosci", 20e9, 1500.0, 3.8e9),
        ("baltic-therapeutics", 19e9, 1400.0, 3.6e9),
        ("startup-amino", 15e9, 800.0, 3.2e9),
        ("startup-helix", 15e9, 750.0, 3.0e9),
    ];
    let orgs: Vec<_> = companies
        .iter()
        .map(|&(name, bits, p, f_max)| {
            tradefl::core::Organization::builder(name)
                .data_bits(bits)
                .samples(1600)
                .profitability(p)
                .eta(100.0)
                .compute_levels(vec![0.4 * f_max, 0.6 * f_max, 0.8 * f_max, f_max])
                .build()
        })
        .collect::<Result<_, _>>()?;

    // Competition intensities ρ: rivals compete hard, startups barely.
    let n = orgs.len();
    let mut rho = vec![vec![0.0; n]; n];
    let set = |i: usize, j: usize, v: f64, rho: &mut Vec<Vec<f64>>| {
        rho[i][j] = v;
        rho[j][i] = v;
    };
    set(0, 1, 0.12, &mut rho); // the big-pharma rivalry
    set(2, 3, 0.08, &mut rho); // specialist overlap
    for i in 0..4 {
        for j in 4..6 {
            set(i, j, 0.015, &mut rho); // startups vs incumbents
        }
    }
    set(0, 2, 0.04, &mut rho);
    set(1, 3, 0.04, &mut rho);
    set(4, 5, 0.02, &mut rho);

    let market = Market::new(orgs, rho, MechanismParams::paper_default())?;
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());

    // Without compensation, the fiercest competitors hold back data.
    let wpr = tradefl::solver::solve_scheme(&game, Scheme::Wpr)?;
    // With TradeFL's payoff redistribution:
    let dbr = DbrSolver::new().solve(&game)?;
    println!("contributed data: without compensation {:.2}, with TradeFL {:.2} (of {n})",
        wpr.total_fraction, dbr.total_fraction);
    println!("social welfare:   without compensation {:.1}, with TradeFL {:.1}",
        wpr.welfare, dbr.welfare);
    assert!(dbr.total_fraction > wpr.total_fraction);

    println!("\n  company              d_i     payoff      R_i (receives<0 pays)");
    for (i, s) in dbr.profile.iter().enumerate() {
        println!(
            "  {:<20} {:>5.3}  {:>9.1}  {:>8.2}",
            game.market().org(i).name(),
            s.d,
            game.payoff(&dbr.profile, i),
            game.redistribution(&dbr.profile, i),
        );
    }

    // Settle the compensation credibly on the private chain (Fig. 3).
    let (engine, report) = Engine::settle(&game, &dbr.profile, None)?;
    println!(
        "\non-chain settlement: chain height {}, {} gas, max |on-chain - Eq.(10)| = {:.2e}",
        report.chain_height, report.total_gas, report.max_abs_error
    );
    assert!(report.consistent(1e-3));
    let chain = engine.network().validator(0).node.chain();
    chain.verify()?;
    println!("chain verified; every step recorded for arbitration:");
    for event in ["DepositSubmitted", "ContributionSubmitted", "PayoffTransferred"] {
        println!("  {event}: {} records", chain.logs_by_event(event).count());
    }
    Ok(())
}
