//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! ICDCS 2023 TradeFL paper (see DESIGN.md §4 for the index) and prints
//! the same rows/series the paper reports, plus a `shape-check` section
//! asserting the qualitative claims (who wins, where the crossovers
//! fall). `EXPERIMENTS.md` records paper-vs-measured for each.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;

pub mod timing;

/// The seed every figure binary uses (reproducibility).
pub const SEED: u64 = 42;

/// The γ sweep grid used by Figs. 7-12 (log-spaced around
/// `γ* = 5.12e-9`).
pub const GAMMA_GRID: [f64; 9] =
    [0.0, 1e-9, 2e-9, 3.5e-9, 5.12e-9, 1e-8, 2e-8, 5e-8, 1e-7];

/// The paper's optimal incentive intensity (Fig. 10).
pub const GAMMA_STAR: f64 = 5.12e-9;

/// Builds the Table II game at the default operating point.
pub fn paper_game(seed: u64) -> CoopetitionGame<SqrtAccuracy> {
    let market = MarketConfig::table_ii().build(seed).expect("table-ii builds");
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

/// Builds the Table II game with overrides for the sweep axes.
pub fn game_with(
    gamma: f64,
    rho_mean: f64,
    omega_e: f64,
    seed: u64,
) -> CoopetitionGame<SqrtAccuracy> {
    let mut config = MarketConfig::table_ii().with_rho_mean(rho_mean);
    config.params.gamma = gamma;
    config.params.omega_e = omega_e;
    let market = config.build(seed).expect("table-ii builds");
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

/// Trains the federated global model at the data fractions a scheme's
/// equilibrium prescribes (Figs. 12-15): shards are sized by each
/// organization's `|S_i|`, `fractions[i] = d_i*`.
pub fn train_at_equilibrium(
    game: &CoopetitionGame<SqrtAccuracy>,
    fractions: &[f64],
    model: tradefl_fl_sim::model::ModelKind,
    dataset: tradefl_fl_sim::data::DatasetKind,
    config: &tradefl_fl_sim::fed::FedConfig,
    test_samples: usize,
    seed: u64,
) -> tradefl_fl_sim::fed::FedOutcome {
    use tradefl_fl_sim::data::generate;
    use tradefl_fl_sim::fed::train_federated;
    use tradefl_fl_sim::model::Mlp;

    let market = game.market();
    let mut sizes: Vec<usize> = market.orgs().iter().map(|o| o.samples()).collect();
    let total: usize = sizes.iter().sum();
    sizes.push(test_samples);
    let pool = generate(dataset, total + test_samples, seed ^ 0xda7a);
    let mut shards = pool.shard(&sizes);
    let test = shards.pop().expect("test shard present");
    let global = Mlp::for_kind(model, test.dim(), test.classes, seed ^ 0x0de1);
    train_federated(global, &shards, &test, fractions, config)
        .expect("training at a validated equilibrium succeeds")
}

/// Shared driver for Figs. 13-14: per-round global-model loss for all
/// schemes' equilibrium contributions on one model×dataset pair, with
/// the paper's shape checks. Exits non-zero if a check fails.
pub fn run_loss_figure(
    figure: &str,
    model: tradefl_fl_sim::model::ModelKind,
    dataset: tradefl_fl_sim::data::DatasetKind,
) {
    use tradefl_fl_sim::fed::FedConfig;
    use tradefl_solver::baselines::solve_scheme;
    use tradefl_solver::outcome::Scheme;

    let game = paper_game(SEED);
    let schemes = [Scheme::Dbr, Scheme::Fip, Scheme::Wpr, Scheme::Gca, Scheme::Tos];
    let fed = FedConfig { rounds: 12, local_epochs: 1, batch_size: 32, lr: 0.1, seed: SEED };

    let mut histories = Vec::new();
    for &scheme in &schemes {
        let eq = solve_scheme(&game, scheme).expect("scheme solves");
        let fr: Vec<f64> = (0..game.market().len()).map(|i| eq.profile[i].d).collect();
        let outcome = train_at_equilibrium(&game, &fr, model, dataset, &fed, 1500, SEED);
        histories.push(outcome.history);
    }

    let mut table = Table::new(
        format!("{figure}: global-model test loss per round ({model} on {dataset})"),
        &["round", "DBR", "FIP", "WPR", "GCA", "TOS"],
    );
    for round in 0..histories[0].len() {
        let mut row = vec![round.to_string()];
        for h in &histories {
            row.push(format!("{:.4}", h[round].loss));
        }
        table.row(row);
    }
    table.print();

    let final_loss: Vec<f32> = histories.iter().map(|h| h.last().unwrap().loss).collect();
    let final_acc: Vec<f32> = histories.iter().map(|h| h.last().unwrap().accuracy).collect();
    let mut summary = Table::new("final round", &["scheme", "loss", "accuracy"]);
    for (k, &scheme) in schemes.iter().enumerate() {
        summary.row(vec![
            scheme.label().into(),
            format!("{:.4}", final_loss[k]),
            format!("{:.4}", final_acc[k]),
        ]);
    }
    summary.print();

    let mut ok = true;
    ok &= check(
        "every scheme's loss decreases over training",
        histories.iter().all(|h| h.last().unwrap().loss < h[0].loss),
    );
    ok &= check(
        &format!("DBR beats WPR on final loss ({:.3} < {:.3})", final_loss[0], final_loss[2]),
        final_loss[0] < final_loss[2],
    );
    ok &= check(
        &format!("DBR beats GCA on final loss ({:.3} < {:.3})", final_loss[0], final_loss[3]),
        final_loss[0] < final_loss[3],
    );
    ok &= check(
        &format!("DBR tracks TOS closely (loss gap {:.3})", (final_loss[0] - final_loss[4]).abs()),
        final_loss[0] <= final_loss[4] + 0.25,
    );
    finish(ok);
}

/// A fixed-width text table that renders cleanly in terminals and in
/// EXPERIMENTS.md code blocks.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float compactly for table cells.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e5 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Prints a shape-check line: `PASS`/`FAIL` plus the claim text. Returns
/// whether it passed so binaries can exit non-zero on failure.
pub fn check(claim: &str, ok: bool) -> bool {
    println!("[{}] {claim}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Exits with an error code if any shape check failed.
pub fn finish(all_ok: bool) {
    if !all_ok {
        eprintln!("one or more shape checks FAILED");
        std::process::exit(1);
    }
}

/// RAII guard for the shared `--trace <path>` flag: armed by
/// [`trace_from_args`], it writes the observability recording as
/// `tradefl-trace/v1` JSON Lines when dropped (i.e. when `main`
/// returns, including the `finish` exit path staying untouched).
#[derive(Debug)]
pub struct TraceGuard(Option<std::path::PathBuf>);

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(path) = self.0.take() {
            match tradefl_runtime::obs::write_trace(&path) {
                Ok(()) => eprintln!("trace written to {}", path.display()),
                Err(e) => eprintln!("failed to write trace {}: {e}", path.display()),
            }
        }
    }
}

/// Arms tracing when `--trace <path>` is on the command line: enables
/// the recorder and returns a guard that writes the JSONL export on
/// drop. Call once at the top of `main`:
///
/// ```no_run
/// let _trace = tradefl_bench::trace_from_args();
/// ```
pub fn trace_from_args() -> TraceGuard {
    TraceGuard(tradefl_runtime::obs::trace_path_from_args())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["10".into(), "20".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains(" a  bb"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.5678), "1234.568");
        assert!(fmt(5.12e-9).contains('e'));
    }

    #[test]
    fn paper_game_builds() {
        let g = paper_game(SEED);
        assert_eq!(g.market().len(), 10);
        let g2 = game_with(1e-8, 0.1, 1e-3, SEED);
        assert_eq!(g2.market().params().gamma, 1e-8);
    }
}
