//! tradebench — one benchmark for the TradeFL pipeline, end to end and
//! layer by layer. See `README.md` beside this crate for the metrics,
//! the workloads and what each layer metric should move.
//!
//! ```text
//! tradebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Cycles through inputs drawn from the seed for at least `--seconds`
//! seconds, checks every repetition's outputs, and prints a summary
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced cycles and
//! reports the per-layer metrics.

mod chain;
mod metrics;
mod pipeline;
mod rep;
mod sessions;
mod stats;
mod tune;

use metrics::{Metric, PER_LAYER};
use rep::{now, Layer, Rep, COUNTER_METRICS};
use stats::{median, percentile, quartiles};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use tradefl_runtime::obs;
use tradefl_runtime::sync::pool::{host_parallelism, Pool};

const USAGE: &str = "usage: tradebench --workload <pipeline_n64|sessions_faulty|tune_n10000> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The split must leave at most this share of the traced wall
/// unattributed.
const MAX_UNATTRIBUTED: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PipelineN64,
    SessionsFaulty,
    TuneN10000,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PipelineN64,
        Workload::SessionsFaulty,
        Workload::TuneN10000,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PipelineN64 => "pipeline_n64",
            Workload::SessionsFaulty => "sessions_faulty",
            Workload::TuneN10000 => "tune_n10000",
        }
    }

    /// Per-layer values a traced repetition measures beyond the counters.
    fn measures(self) -> &'static [&'static str] {
        match self {
            Workload::PipelineN64 => pipeline::MEASURES,
            Workload::SessionsFaulty => sessions::MEASURES,
            Workload::TuneN10000 => tune::MEASURES,
        }
    }

    /// Inputs one run cycles through, each drawn from the seed: enough
    /// markets that the seed moves the medians less than the bounds,
    /// few enough that one cycle fits in `run_seconds` (20) on the
    /// reference host.
    fn inputs(self) -> usize {
        match self {
            Workload::PipelineN64 => 12,
            Workload::SessionsFaulty => 9,
            Workload::TuneN10000 => 6,
        }
    }

    /// Whether the workload settles on the engine (and so has block
    /// samples).
    fn settles(self) -> bool {
        self != Workload::TuneN10000
    }

    fn rep(self, seed: u64, pool: &Pool, traced: bool) -> Result<Rep, String> {
        match self {
            Workload::PipelineN64 => pipeline::rep(seed, pool, traced),
            Workload::SessionsFaulty => sessions::rep(seed, pool, traced),
            Workload::TuneN10000 => tune::rep(seed, pool, traced),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |key: &str| flags.get(key).copied().ok_or(format!("missing {key}"));
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tradebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tradebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric with the samples behind it.
struct Reported {
    metric: &'static Metric,
    value: f64,
    samples: usize,
    quartiles: Option<(f64, f64)>,
}

fn run(args: Args) -> Result<(), String> {
    let width = host_parallelism();
    let pool = Pool::new(width);
    let inputs: Vec<u64> = (0..args.workload.inputs())
        .map(|k| rep::mix(args.seed, k as u64))
        .collect();
    let start = now();
    let mut reps: Vec<Rep> = Vec::new();
    // Cycles over the inputs. A traced run alternates whole untraced and
    // traced cycles; an untraced run may stop between inputs once its
    // first cycle is done, since `wall_s` weighs inputs equally anyway.
    'run: for cycle in 0.. {
        let traced = args.trace && cycle % 2 == 1;
        for (k, &input) in inputs.iter().enumerate() {
            if !args.trace && cycle > 0 && start.elapsed().as_secs_f64() >= args.seconds {
                break 'run;
            }
            rep::reset_peak_rss()?;
            if traced {
                obs::reset();
                obs::enable();
            }
            let rep = args.workload.rep(input, &pool, traced);
            obs::disable();
            let rep = Rep {
                input: k,
                peak_rss_mb: rep::peak_rss_mb()?,
                ..rep?
            };
            for why in &rep.failures {
                eprintln!(
                    "tradebench: {} seed {} input {k}: {why}",
                    args.workload.name(),
                    args.seed
                );
            }
            reps.push(rep);
        }
        if start.elapsed().as_secs_f64() >= args.seconds && enough(&reps, args) {
            break;
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed.min(r.attempted)).sum();
    let mut correct = failed == 0;
    let digests: BTreeSet<(usize, &str)> = reps
        .iter()
        .filter(|r| r.failed == 0)
        .map(|r| (r.input, r.digest.as_str()))
        .collect();
    if digests.len() > inputs.len() {
        eprintln!("tradebench: repetitions of one input disagree: {digests:?}");
        correct = false;
    }
    let reported = if args.trace {
        let (layers, split_ok) = per_layer(&reps, args.workload, width, attempted, failed)?;
        correct &= split_ok;
        layers
    } else {
        end_to_end(&reps)?
    };

    let untraced = reps.iter().filter(|r| !r.traced).count();
    println!(
        "# tradebench {} seed={} trace={} reps={} (untraced {untraced}, traced {}) in {:.1} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        reps.len(),
        reps.len() - untraced,
        start.elapsed().as_secs_f64()
    );
    println!("meta {}", meta(args, width, reps.len()));
    for (k, digest) in &digests {
        println!(
            "digest {} seed={} input={k} {digest}",
            args.workload.name(),
            args.seed
        );
    }
    for r in &reported {
        let spread = match r.quartiles {
            Some((q1, q3)) if r.samples >= 4 => format!("  q1={q1:.6} q3={q3:.6}"),
            _ => String::new(),
        };
        println!(
            "  {:<32} {:>16.6} {:<10} n={}{spread}",
            r.metric.name, r.value, r.metric.unit, r.samples
        );
    }
    println!("failed_frac {failed}/{attempted} sessions");

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, r) in reported.iter().enumerate() {
        if !r.value.is_finite() {
            return Err(format!("{} is not a finite number", r.metric.name));
        }
        if !metrics::valid_name(r.metric.name) || !metrics::valid_unit(r.metric.unit) {
            return Err(format!(
                "{} ({}) is not a legal name and unit",
                r.metric.name, r.metric.unit
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.metric.name, r.value, r.metric.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Whether the run has what it reports on: a traced cycle when tracing,
/// and enough untraced block samples for a p90 on engine workloads.
fn enough(reps: &[Rep], args: Args) -> bool {
    let blocks: Vec<f64> = reps
        .iter()
        .filter(|r| !r.traced)
        .filter_map(|r| r.settlement.as_ref())
        .flat_map(|s| s.block_ms.iter().copied())
        .collect();
    !args.trace
        || (reps.iter().any(|r| r.traced)
            && (!args.workload.settles() || percentile(&blocks, 0.9).is_ok()))
}

fn metric(name: &str) -> Result<&'static Metric, String> {
    metrics::lookup(name).ok_or(format!("{name} is not a declared metric"))
}

/// Median of `values` with its sample count and quartiles.
fn summarize(name: &str, values: &[f64]) -> Result<Reported, String> {
    let value = median(values).ok_or(format!("no samples for {name}"))?;
    Ok(Reported {
        metric: metric(name)?,
        value,
        samples: values.len(),
        quartiles: quartiles(values),
    })
}

/// The mean over inputs of each input's median of `value`: inputs
/// differ in how much work they hold, and a mean averages that out
/// faster than a median does (a median jumps between the few inputs
/// near the middle), while the per-input median absorbs a slow
/// repetition. Quartiles are over the per-input medians.
fn per_input_mean(name: &str, reps: &[&Rep], value: fn(&Rep) -> f64) -> Result<Reported, String> {
    let inputs: BTreeSet<usize> = reps.iter().map(|r| r.input).collect();
    let per_input: Vec<f64> = inputs
        .iter()
        .filter_map(|&k| {
            let of_input: Vec<f64> = reps
                .iter()
                .filter(|r| r.input == k)
                .map(|r| value(r))
                .collect();
            median(&of_input)
        })
        .collect();
    if per_input.is_empty() {
        return Err(format!("no samples for {name}"));
    }
    Ok(Reported {
        metric: metric(name)?,
        value: per_input.iter().sum::<f64>() / per_input.len() as f64,
        samples: reps.len(),
        quartiles: quartiles(&per_input),
    })
}

fn end_to_end(reps: &[Rep]) -> Result<Vec<Reported>, String> {
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let rss: Vec<f64> = untraced.iter().map(|r| r.peak_rss_mb).collect();
    Ok(vec![
        per_input_mean("setup_s", &untraced, |r| r.setup_s)?,
        per_input_mean("wall_s", &untraced, |r| r.wall_s)?,
        summarize("peak_rss_mb", &rss)?,
    ])
}

/// The per-layer report, plus whether the split accounts for the
/// traced wall within [`MAX_UNATTRIBUTED`].
fn per_layer(
    reps: &[Rep],
    workload: Workload,
    width: usize,
    attempted: u64,
    failed: u64,
) -> Result<(Vec<Reported>, bool), String> {
    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
    let expected: BTreeSet<&str> = COUNTER_METRICS
        .iter()
        .chain(workload.measures())
        .copied()
        .collect();
    for rep in traced.iter().filter(|r| r.failed == 0) {
        let got: BTreeSet<&str> = rep.values.keys().copied().collect();
        if got != expected {
            let missing: Vec<_> = expected.difference(&got).collect();
            let extra: Vec<_> = got.difference(&expected).collect();
            return Err(format!(
                "{} reported other metrics than it declares (missing {missing:?}, extra {extra:?})",
                workload.name()
            ));
        }
    }

    let over = |f: &dyn Fn(&Rep) -> f64| traced.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let traced_wall = over(&|r| r.wall_s);
    let untraced_wall: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let unattributed = over(&|r| r.wall_s * 1e3 - r.split.total_ms());
    let wall_ms = median(&traced_wall).unwrap_or(0.0) * 1e3;
    let unattributed_ms = median(&unattributed).unwrap_or(0.0);
    let split_ok = unattributed_ms.abs() <= MAX_UNATTRIBUTED * wall_ms;
    if !split_ok {
        eprintln!(
            "tradebench: the split leaves {unattributed_ms:.3} ms of a {wall_ms:.3} ms wall \
             unattributed (limit {:.0}%)",
            MAX_UNATTRIBUTED * 100.0
        );
    }

    let mut run_level: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let overhead = median(&traced_wall)
        .zip(median(&untraced_wall))
        .map(|(t, u)| t / u - 1.0);
    run_level.insert(
        "trace_overhead_frac",
        (overhead.unwrap_or(0.0), traced.len()),
    );
    run_level.insert(
        "failed_frac",
        (rep::ratio(failed as f64, attempted as f64), reps.len()),
    );
    run_level.insert("runtime.pool_width", (width as f64, 1));
    let settled: Vec<_> = untraced
        .iter()
        .filter_map(|r| r.settlement.as_ref())
        .collect();
    let blocks: Vec<f64> = settled
        .iter()
        .flat_map(|s| s.block_ms.iter().copied())
        .collect();
    let (txs, secs) = settled.iter().fold((0.0, 0.0), |(t, s), x| {
        (t + x.settled_txs as f64, s + x.settle_s)
    });
    let ticks: Vec<f64> = settled.iter().map(|s| s.ticks as f64).collect();
    if workload.settles() {
        let p50 = percentile(&blocks, 0.5)?;
        let p90 = percentile(&blocks, 0.9)?;
        run_level.insert("settle_txs_per_s", (rep::ratio(txs, secs), settled.len()));
        run_level.insert("block_p50_ms", (p50.value, p50.samples));
        run_level.insert("block_p90_ms", (p90.value, p90.samples));
        run_level.insert("settle_ticks", (median(&ticks).unwrap_or(0.0), ticks.len()));
    } else {
        for name in [
            "settle_txs_per_s",
            "block_p50_ms",
            "block_p90_ms",
            "settle_ticks",
        ] {
            run_level.insert(name, (0.0, 0));
        }
    }

    let mut out = Vec::with_capacity(PER_LAYER.len());
    for m in PER_LAYER {
        let values: Vec<f64> =
            if let Some(layer) = Layer::ALL.iter().find(|l| l.split_metric() == m.name) {
                over(&|r| r.split.ms(*layer))
            } else if m.name == "unattributed_ms" {
                unattributed.clone()
            } else if let Some(&(value, samples)) = run_level.get(m.name) {
                out.push(Reported {
                    metric: m,
                    value,
                    samples,
                    quartiles: None,
                });
                continue;
            } else if expected.contains(m.name) {
                over(&|r| r.values.get(m.name).copied().unwrap_or(0.0))
            } else {
                // A layer this workload does not exercise.
                out.push(Reported {
                    metric: m,
                    value: 0.0,
                    samples: 0,
                    quartiles: None,
                });
                continue;
            };
        out.push(summarize(m.name, &values)?);
    }
    Ok((out, split_ok))
}

/// Run metadata printed with every result.
fn meta(args: Args, width: usize, reps: usize) -> String {
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512bw", cfg!(target_feature = "avx512bw")),
        ("avx512vl", cfg!(target_feature = "avx512vl")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"reps\": {reps}, \
         \"nproc\": {}, \"pool_width\": {width}, \"target_arch\": \"{}\", \
         \"target_features\": \"{}\", \"git_commit\": \"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_parallelism(),
        std::env::consts::ARCH,
        features.join(","),
        git_commit()
    );
    if args.workload == Workload::SessionsFaulty {
        let f = sessions::faults();
        out.push_str(&format!(
            ", \"faults\": {{\"drop_p\": {}, \"dup_p\": {}, \"delay_p\": {}, \"max_delay\": {}, \
             \"truncate_p\": {}, \"corrupt_p\": {}, \"crashes\": {}, \"tamper_p\": {}}}",
            f.drop_p,
            f.dup_p,
            f.delay_p,
            f.max_delay,
            f.truncate_p,
            f.corrupt_p,
            f.crashes.len(),
            sessions::TAMPER_P
        ));
    }
    out.push('}');
    out
}

/// The checked-out commit, read from `.git` in the working directory;
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let parsed = parse_args(&args(&[
            "--workload",
            "sessions_faulty",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: Workload::SessionsFaulty,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "tune_n10000",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "tune_n10000",
                "--seed",
                "-1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "tune_n10000",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &["--bogus"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn every_workload_declares_only_per_layer_metrics() {
        for w in Workload::ALL {
            let mut seen = BTreeSet::new();
            for name in COUNTER_METRICS.iter().chain(w.measures()) {
                let m = PER_LAYER
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("{}: {name} is not declared", w.name()));
                assert!(metrics::valid_unit(m.unit), "{name} has no unit");
                assert!(seen.insert(*name), "{}: {name} declared twice", w.name());
                assert!(
                    !metrics::RUN_LEVEL.contains(name),
                    "{name} is computed by the run loop"
                );
                assert!(!name.starts_with("split.") && *name != "unattributed_ms");
            }
        }
    }

    #[test]
    fn workload_names_are_metric_style_names() {
        for w in Workload::ALL {
            assert!(metrics::valid_name(w.name()), "{}", w.name());
        }
    }

    #[test]
    fn reported_per_layer_metrics_cover_the_registry_in_order() {
        let rep = Rep {
            traced: true,
            wall_s: 1.0,
            values: COUNTER_METRICS
                .iter()
                .chain(tune::MEASURES)
                .map(|&name| (name, 1.0))
                .collect(),
            ..Rep::default()
        };
        let reps = [
            Rep {
                wall_s: 1.0,
                ..Rep::default()
            },
            rep,
        ];
        let (out, _) = per_layer(&reps, Workload::TuneN10000, 2, 1, 0).unwrap();
        let names: Vec<&str> = out.iter().map(|r| r.metric.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        assert!(out.iter().all(|r| r.value.is_finite()));
    }
}
