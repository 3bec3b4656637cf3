//! `tradefl` — command-line driver for the TradeFL reproduction.
//!
//! ```text
//! tradefl market  [--orgs N] [--seed S]
//! tradefl solve   [--scheme dbr|cgbd|wpr|gca|fip|tos] [--gamma G] [--orgs N] [--seed S]
//! tradefl sweep   [--steps K] [--orgs N] [--seed S]
//! tradefl settle  [--orgs N] [--seed S] [--attested]
//! tradefl train   [--model M] [--dataset D] [--rounds R] [--seed S] [--async]
//! tradefl poa     [--orgs N] [--seed S]
//! tradefl tune    [--orgs N] [--seed S]
//! ```
//!
//! Argument parsing is hand-rolled (no CLI crates in the dependency
//! budget); every subcommand prints a table and exits non-zero on error.
//! A command line that does not parse is reported with the usage text;
//! a command that fails while running is reported alone.

use std::process::ExitCode;
use tradefl::fl::async_fed::{train_async, AsyncConfig, OrgTiming};
use tradefl::fl::data::generate;
use tradefl::fl::fed::FedConfig;
use tradefl::fl::model::Mlp;
use tradefl::ledger::attestation::Enclave;
use tradefl::ledger::settlement::SettlementReport;
use tradefl::prelude::*;
use tradefl::solver::baselines::solve_scheme;
use tradefl::solver::social::{solve_social_optimum, SocialOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Why an invocation failed: its command line did not parse, or its
/// command failed while running.
enum Failure {
    Usage(Box<dyn std::error::Error>),
    Run(Box<dyn std::error::Error>),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(e) => write!(f, "error: {e}\n\n{USAGE}"),
            Failure::Run(e) => write!(f, "error: {e}"),
        }
    }
}

const USAGE: &str = "usage:
  tradefl market  [--orgs N] [--seed S]
  tradefl solve   [--scheme dbr|cgbd|wpr|gca|fip|tos] [--gamma G] [--orgs N] [--seed S]
  tradefl sweep   [--steps K] [--orgs N] [--seed S]
  tradefl settle  [--orgs N] [--seed S] [--attested]
  tradefl train   [--model resnet18|alexnet|densenet|mobilenet]
                  [--dataset cifar10|fmnist|svhn|eurosat] [--rounds R] [--seed S] [--async]
  tradefl poa     [--orgs N] [--seed S]
  tradefl tune    [--orgs N] [--seed S]";

#[derive(Debug, Clone)]
struct Options {
    orgs: usize,
    seed: u64,
    gamma: Option<f64>,
    scheme: Scheme,
    steps: usize,
    attested: bool,
    model: ModelKind,
    dataset: DatasetKind,
    rounds: usize,
    use_async: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            orgs: 10,
            seed: 42,
            gamma: None,
            scheme: Scheme::Dbr,
            steps: 8,
            attested: false,
            model: ModelKind::MobilenetLike,
            dataset: DatasetKind::SvhnLike,
            rounds: 12,
            use_async: false,
        }
    }
}

fn run(args: &[String]) -> Result<(), Failure> {
    let Some(command) = args.first() else {
        return Err(Failure::Usage("missing subcommand".into()));
    };
    let opts = parse(&args[1..]).map_err(Failure::Usage)?;
    let cmd = match command.as_str() {
        "market" => cmd_market,
        "solve" => cmd_solve,
        "sweep" => cmd_sweep,
        "settle" => cmd_settle,
        "train" => cmd_train,
        "poa" => cmd_poa,
        "tune" => cmd_tune,
        other => return Err(Failure::Usage(format!("unknown subcommand `{other}`").into())),
    };
    cmd(&opts).map_err(Failure::Run)
}

fn parse(args: &[String]) -> Result<Options, Box<dyn std::error::Error>> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, Box<dyn std::error::Error>> {
            it.next().ok_or_else(|| format!("{name} needs a value").into())
        };
        match flag.as_str() {
            "--orgs" => opts.orgs = value("--orgs")?.parse()?,
            "--seed" => opts.seed = value("--seed")?.parse()?,
            "--gamma" => opts.gamma = Some(value("--gamma")?.parse()?),
            "--steps" => opts.steps = value("--steps")?.parse()?,
            "--rounds" => opts.rounds = value("--rounds")?.parse()?,
            "--attested" => opts.attested = true,
            "--async" => opts.use_async = true,
            "--scheme" => {
                opts.scheme = match value("--scheme")?.as_str() {
                    "dbr" => Scheme::Dbr,
                    "cgbd" => Scheme::Cgbd,
                    "wpr" => Scheme::Wpr,
                    "gca" => Scheme::Gca,
                    "fip" => Scheme::Fip,
                    "tos" => Scheme::Tos,
                    other => return Err(format!("unknown scheme `{other}`").into()),
                }
            }
            "--model" => {
                opts.model = match value("--model")?.as_str() {
                    "resnet18" => ModelKind::Resnet18Like,
                    "alexnet" => ModelKind::AlexnetLike,
                    "densenet" => ModelKind::DensenetLike,
                    "mobilenet" => ModelKind::MobilenetLike,
                    other => return Err(format!("unknown model `{other}`").into()),
                }
            }
            "--dataset" => {
                opts.dataset = match value("--dataset")?.as_str() {
                    "cifar10" => DatasetKind::Cifar10Like,
                    "fmnist" => DatasetKind::FmnistLike,
                    "svhn" => DatasetKind::SvhnLike,
                    "eurosat" => DatasetKind::EurosatLike,
                    other => return Err(format!("unknown dataset `{other}`").into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    Ok(opts)
}

fn build_game(opts: &Options) -> Result<CoopetitionGame<SqrtAccuracy>, Box<dyn std::error::Error>> {
    let mut config = MarketConfig::table_ii().with_orgs(opts.orgs);
    if let Some(gamma) = opts.gamma {
        config.params.gamma = gamma;
    }
    Ok(CoopetitionGame::new(config.build(opts.seed)?, SqrtAccuracy::paper_default()))
}

fn cmd_market(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let game = build_game(opts)?;
    let market = game.market();
    println!("market: {} organizations (seed {})", market.len(), opts.seed);
    println!("{:<8} {:>8} {:>10} {:>7} {:>10} {:>7} {:>8}", "org", "p_i", "s_i(Gbit)", "|S_i|", "F^m(GHz)", "eta", "z_i");
    for (i, org) in market.orgs().iter().enumerate() {
        println!(
            "{:<8} {:>8.0} {:>10.1} {:>7} {:>10.2} {:>7.0} {:>8.0}",
            org.name(),
            org.profitability(),
            org.data_bits() / 1e9,
            org.samples(),
            org.max_frequency() / 1e9,
            org.eta(),
            market.weight(i)
        );
    }
    println!(
        "params: gamma={:.2e} lambda={} omega_e={} tau={}s D_min={}",
        market.params().gamma,
        market.params().lambda,
        market.params().omega_e,
        market.params().tau,
        market.params().d_min
    );
    Ok(())
}

fn cmd_solve(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let game = build_game(opts)?;
    let eq = solve_scheme(&game, opts.scheme)?;
    println!(
        "{} equilibrium after {} iterations (converged: {})",
        eq.scheme.label(),
        eq.iterations,
        eq.converged
    );
    println!("{:<8} {:>7} {:>10} {:>10} {:>9}", "org", "d_i", "f_i(GHz)", "payoff", "R_i");
    for (i, s) in eq.profile.iter().enumerate() {
        println!(
            "{:<8} {:>7.3} {:>10.2} {:>10.1} {:>9.2}",
            game.market().org(i).name(),
            s.d,
            game.market().org(i).frequency(s.level) / 1e9,
            game.payoff(&eq.profile, i),
            game.redistribution(&eq.profile, i)
        );
    }
    println!(
        "welfare {:.1} | potential {:.4} | damage {:.2} | sum d {:.3}",
        eq.welfare, eq.potential, eq.total_damage, eq.total_fraction
    );
    Ok(())
}

fn cmd_sweep(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("{:>12} {:>10} {:>8} {:>8}", "gamma", "welfare", "sum_d", "damage");
    let mut best = (0.0f64, f64::NEG_INFINITY);
    for k in 0..=opts.steps {
        // Log-spaced sweep from 1e-10 to 1e-7, plus gamma = 0 first.
        let gamma = if k == 0 {
            0.0
        } else {
            1e-10 * (1e3f64).powf((k - 1) as f64 / (opts.steps - 1).max(1) as f64)
        };
        let game = build_game(&Options { gamma: Some(gamma), ..opts.clone() })?;
        let eq = DbrSolver::new().solve(&game)?;
        println!(
            "{:>12.3e} {:>10.1} {:>8.3} {:>8.2}",
            gamma, eq.welfare, eq.total_fraction, eq.total_damage
        );
        if eq.welfare > best.1 {
            best = (gamma, eq.welfare);
        }
    }
    println!("best gamma: {:.3e} (welfare {:.1})", best.0, best.1);
    Ok(())
}

fn cmd_settle(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let game = build_game(opts)?;
    let eq = DbrSolver::new().solve(&game)?;
    let enclave = opts.attested.then(|| Enclave::from_label("tradefl-cli"));
    let (engine, report) = Engine::settle(&game, &eq.profile, enclave)?;
    println!(
        "settled {} organizations in {} blocks, {} gas{}",
        opts.orgs,
        report.chain_height,
        report.total_gas,
        if opts.attested { " (TEE-attested reports)" } else { "" }
    );
    println!("{:<14} {:>12} {:>12}", "org", "on-chain R", "Eq.(10) R");
    for (i, addr) in report.addresses.iter().enumerate() {
        println!(
            "{:<14} {:>12.4} {:>12.4}",
            addr.to_string(),
            report.onchain_redistribution[i],
            report.offchain_redistribution[i]
        );
    }
    println!("max |on-chain − off-chain| = {:.2e}", report.max_abs_error);
    check_settlement(&report)?;
    engine.network().validator(0).node.chain().verify()?;
    println!("chain verified");
    Ok(())
}

/// How far, in payoff units, an on-chain redistribution may sit from
/// Eq. (10) before `settle` fails (the examples and `table1` use the
/// same bound).
const SETTLE_TOL: f64 = 1e-3;

/// Fails a settlement whose on-chain `R_i` disagree with Eq. (10).
fn check_settlement(report: &SettlementReport) -> Result<(), String> {
    if report.consistent(SETTLE_TOL) {
        Ok(())
    } else {
        Err(format!(
            "on-chain redistribution disagrees with Eq. (10): \
             max |on-chain − off-chain| = {:.2e} exceeds {SETTLE_TOL:.0e}",
            report.max_abs_error
        ))
    }
}

fn cmd_train(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let game = build_game(opts)?;
    let eq = DbrSolver::new().solve(&game)?;
    let market = game.market();
    let mut sizes: Vec<usize> = market.orgs().iter().map(|o| o.samples()).collect();
    let total: usize = sizes.iter().sum();
    sizes.push(1000);
    let pool = generate(opts.dataset, total + 1000, opts.seed ^ 0xda7a);
    let mut shards = pool.shard(&sizes);
    let test = shards.pop().expect("test shard");
    let fractions: Vec<f64> = (0..market.len()).map(|i| eq.profile[i].d).collect();
    let global = Mlp::for_kind(opts.model, test.dim(), test.classes, opts.seed);

    if opts.use_async {
        let timings: Vec<OrgTiming> = (0..market.len())
            .map(|i| {
                let org = market.org(i);
                OrgTiming {
                    comm: org.comm_time(),
                    compute: org.training_time(eq.profile[i].d, org.frequency(eq.profile[i].level)),
                }
            })
            .collect();
        let config = AsyncConfig {
            updates: opts.rounds * market.len(),
            seed: opts.seed,
            ..AsyncConfig::default()
        };
        let out = train_async(global, &shards, &test, &fractions, &timings, &config)?;
        println!("asynchronous training: {} server updates, {:.0}s simulated", out.updates.len(), out.elapsed);
        for m in &out.history {
            println!("  version {:>4}: loss {:.4} accuracy {:.4}", m.round, m.loss, m.accuracy);
        }
        println!("max staleness observed: {}", out.max_staleness());
    } else {
        let config = FedConfig { rounds: opts.rounds, seed: opts.seed, ..FedConfig::default() };
        let out = train_federated(global, &shards, &test, &fractions, &config)?;
        println!("synchronous FedAvg: {} rounds", opts.rounds);
        for m in &out.history {
            println!("  round {:>3}: loss {:.4} accuracy {:.4}", m.round, m.loss, m.accuracy);
        }
    }
    Ok(())
}

fn cmd_tune(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    use tradefl::solver::tuning::{tune_gamma, TuneOptions};
    let game = build_game(opts)?;
    let report = tune_gamma(&game, TuneOptions::default())?;
    println!("{:>12} {:>10} {:>8}", "gamma", "welfare", "sum_d");
    for s in &report.samples {
        println!("{:>12.3e} {:>10.1} {:>8.3}", s.gamma, s.welfare, s.total_fraction);
    }
    println!(
        "\ntuned incentive intensity: gamma = {:.3e} (welfare {:.1}, {} evaluations)",
        report.gamma_star,
        report.welfare,
        report.samples.len()
    );
    Ok(())
}

fn cmd_poa(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let game = build_game(opts)?;
    let social = solve_social_optimum(&game, SocialOptions::default())?;
    println!("{:>8} {:>10} {:>8}", "scheme", "welfare", "PoA");
    println!("{:>8} {:>10.1} {:>8}", "SOCIAL", social.welfare, "1.000");
    for scheme in [Scheme::Cgbd, Scheme::Dbr, Scheme::Wpr, Scheme::Gca, Scheme::Fip] {
        let eq = solve_scheme(&game, scheme)?;
        println!(
            "{:>8} {:>10.1} {:>8.4}",
            scheme.label(),
            eq.welfare,
            social.price_of_anarchy(eq.welfare)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.orgs, 10);
        assert_eq!(o.seed, 42);
        assert_eq!(o.scheme, Scheme::Dbr);
        assert!(!o.attested && !o.use_async);
    }

    #[test]
    fn parse_all_flags() {
        let o = parse(&strings(&[
            "--orgs", "5", "--seed", "7", "--gamma", "1e-8", "--scheme", "cgbd",
            "--model", "resnet18", "--dataset", "fmnist", "--rounds", "3",
            "--attested", "--async", "--steps", "4",
        ]))
        .unwrap();
        assert_eq!(o.orgs, 5);
        assert_eq!(o.seed, 7);
        assert_eq!(o.gamma, Some(1e-8));
        assert_eq!(o.scheme, Scheme::Cgbd);
        assert_eq!(o.model, ModelKind::Resnet18Like);
        assert_eq!(o.dataset, DatasetKind::FmnistLike);
        assert_eq!(o.rounds, 3);
        assert_eq!(o.steps, 4);
        assert!(o.attested && o.use_async);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&strings(&["--orgs"])).is_err());
        assert!(parse(&strings(&["--orgs", "abc"])).is_err());
        assert!(parse(&strings(&["--scheme", "nope"])).is_err());
        assert!(parse(&strings(&["--model", "vgg"])).is_err());
        assert!(parse(&strings(&["--dataset", "imagenet"])).is_err());
        assert!(parse(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn settle_fails_when_on_chain_redistribution_leaves_eq10() {
        let report = |max_abs_error| SettlementReport {
            addresses: Vec::new(),
            onchain_redistribution: Vec::new(),
            offchain_redistribution: Vec::new(),
            max_abs_error,
            total_gas: 0,
            chain_height: 0,
        };
        assert!(check_settlement(&report(0.0)).is_ok());
        assert!(check_settlement(&report(SETTLE_TOL)).is_ok());
        let err = check_settlement(&report(2.5e-3)).unwrap_err();
        assert!(err.contains("2.50e-3"), "error must name the gap: {err}");
    }

    #[test]
    fn run_rejects_unknown_subcommand() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }
}
