//! **Fig. 12** — global-model accuracy and total data contribution
//! `Σ_i d_i` under different γ.
//!
//! Paper shape: TOS is flat at `Σ d_i = 10`; DBR's contribution grows
//! with γ and exceeds GCA's by up to 64% (at γ*); accuracy tracks the
//! contributed data.

use tradefl_bench::{check, finish, train_at_equilibrium, Table, GAMMA_STAR, SEED};
use tradefl_bench::game_with;
use tradefl_core::config::MarketConfig;
use tradefl_fl_sim::data::DatasetKind;
use tradefl_fl_sim::fed::FedConfig;
use tradefl_fl_sim::model::ModelKind;
use tradefl_solver::baselines::solve_scheme;
use tradefl_solver::outcome::Scheme;

fn main() {
    let _trace = tradefl_bench::trace_from_args();
    let gammas = [0.0, 2e-9, GAMMA_STAR, 2e-8, 1e-7];
    let schemes = [Scheme::Dbr, Scheme::Gca, Scheme::Wpr, Scheme::Tos];
    let mu = MarketConfig::table_ii().rho_mean;
    let omega_e = MarketConfig::table_ii().params.omega_e;
    let fed = FedConfig { rounds: 8, local_epochs: 1, batch_size: 32, lr: 0.1, seed: SEED };

    let mut data_table = Table::new(
        "Fig. 12a: total data contribution (sum d_i) vs gamma",
        &["gamma", "DBR", "GCA", "WPR", "TOS"],
    );
    let mut acc_table = Table::new(
        "Fig. 12b: global-model accuracy vs gamma (MobileNet/SVHN analogs)",
        &["gamma", "DBR", "GCA", "WPR", "TOS"],
    );
    let mut fractions: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut accuracies: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for &gamma in &gammas {
        let game = game_with(gamma, mu, omega_e, SEED);
        let mut drow = vec![format!("{gamma:.2e}")];
        let mut arow = vec![format!("{gamma:.2e}")];
        for (k, &scheme) in schemes.iter().enumerate() {
            let eq = solve_scheme(&game, scheme).expect("scheme solves");
            let fr: Vec<f64> = (0..game.market().len()).map(|i| eq.profile[i].d).collect();
            let outcome = train_at_equilibrium(
                &game,
                &fr,
                ModelKind::MobilenetLike,
                DatasetKind::SvhnLike,
                &fed,
                1000,
                SEED,
            );
            drow.push(format!("{:.3}", eq.total_fraction));
            arow.push(format!("{:.4}", outcome.final_accuracy()));
            fractions[k].push(eq.total_fraction);
            accuracies[k].push(outcome.final_accuracy() as f64);
        }
        data_table.row(drow);
        acc_table.row(arow);
    }
    data_table.print();
    acc_table.print();

    let star = 2; // index of GAMMA_STAR in `gammas`
    let dbr_gain = (fractions[0][star] - fractions[1][star]) / fractions[1][star] * 100.0;
    let max_gain = (0..gammas.len())
        .map(|g| (fractions[0][g] - fractions[1][g]) / fractions[1][g] * 100.0)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\nDBR vs GCA data contribution: +{dbr_gain:.1}% at gamma*, up to +{max_gain:.1}% over the sweep (paper: up to +64%)"
    );

    let mut ok = true;
    ok &= check("TOS contribution is flat at sum d_i = 10", fractions[3].iter().all(|&v| (v - 10.0).abs() < 1e-9));
    ok &= check(
        &format!("DBR contributes more data than GCA at gamma* (+{dbr_gain:.0}%)"),
        dbr_gain > 20.0,
    );
    ok &= check(
        &format!("the maximum DBR-over-GCA gain is large (+{max_gain:.0}%, paper: +64%)"),
        max_gain > 40.0,
    );
    ok &= check(
        "DBR contribution is non-decreasing in gamma",
        fractions[0].windows(2).all(|w| w[1] >= w[0] - 1e-9),
    );
    ok &= check(
        "WPR contribution ignores gamma",
        fractions[2].iter().all(|&v| (v - fractions[2][0]).abs() < 1e-9),
    );
    // Accuracy tracks contribution at gamma*: TOS >= DBR less a 0.02
    // slack, and DBR > WPR.
    ok &= check(
        &format!(
            "accuracy ordering at gamma*: TOS ({:.3}) >= DBR ({:.3}) - 0.02, DBR > WPR ({:.3})",
            accuracies[3][star], accuracies[0][star], accuracies[2][star]
        ),
        accuracies[3][star] >= accuracies[0][star] - 0.02
            && accuracies[0][star] > accuracies[2][star],
    );
    finish(ok);
}
