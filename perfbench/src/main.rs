//! The outside-in discovery benchmark.
//!
//! ```text
//! perfbench --workload <rq1-detect|corpus-discover|serve-mix|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) drives the public entry points only —
//! `Lpo::run_sequences`, `lpo_souper::superoptimize_batch`,
//! `lpo_minotaur::superoptimize_batch`, `lpo_serve::Server` and
//! `ServeClient` — and reports the end-to-end metrics. A traced run
//! (`--trace 1`) measures the same workload untraced for half the window and
//! traced for the other half, and reports the per-layer split. Either way
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--workload all` runs every workload
//! both ways and prints one row per workload.

mod corpus;
mod metrics;
mod replay;
mod rq1;
mod serve;
mod timing;
mod trace;
mod workload;

use metrics::{Measured, RunResult, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use workload::Args;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["rq1-detect", "corpus-discover", "serve-mix"];

/// Runs one workload and checks its metric catalogue.
fn run_workload(name: &str, args: &Args) -> RunResult {
    let measured: Measured = match name {
        "rq1-detect" => rq1::run(args),
        "corpus-discover" => corpus::run(args),
        "serve-mix" => serve::run(args),
        other => unreachable!("workload {other} was validated by the caller"),
    };
    measured.finish(args.trace)
}

struct Cli {
    workload: String,
    args: Args,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let trace_file = trace.then(|| default_trace_file(&workload, seed));
    Cli {
        workload,
        args: Args {
            seed,
            seconds,
            trace,
            tiny: false,
            trace_file,
        },
    }
}

/// The default trace file of a traced run.
fn default_trace_file(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".perfbench-out").join(format!("trace-{workload}-seed{seed}.jsonl"))
}

fn print_problems(workload: &str, result: &RunResult) {
    for problem in &result.problems {
        eprintln!("[{workload}] check failed: {problem}");
    }
}

fn main() {
    let cli = parse_cli();
    if cli.workload != "all" {
        let result = run_workload(&cli.workload, &cli.args);
        print_problems(&cli.workload, &result);
        for note in &result.notes {
            println!("{note}");
        }
        for metric in &result.metrics {
            println!("{:<24} {:>16.6} {}", metric.name, metric.value, metric.unit);
        }
        println!("{}", result.to_json());
        return;
    }

    // Every workload, untraced then traced: one end-to-end row per
    // workload, then the per-layer split with a column per workload.
    let run_all = |trace: bool| -> Vec<RunResult> {
        WORKLOADS
            .iter()
            .map(|workload| {
                let trace_file = trace.then(|| default_trace_file(workload, cli.args.seed));
                let result = run_workload(
                    workload,
                    &Args {
                        trace,
                        trace_file,
                        ..cli.args.clone()
                    },
                );
                print_problems(workload, &result);
                result
            })
            .collect()
    };
    let untraced = run_all(false);
    let traced = run_all(true);
    print_rows(&untraced);
    println!();
    print_columns(&traced);

    let mut all = RunResult {
        correct: true,
        ..RunResult::default()
    };
    for result in untraced.iter().chain(&traced) {
        all.correct &= result.correct;
        all.attempted += result.attempted;
        all.failed += result.failed;
    }
    println!("{}", all.to_json());
}

/// The end-to-end table: one row per workload, plus the share of failed
/// operations.
fn print_rows(results: &[RunResult]) {
    print!("{:<16}", "workload");
    for (name, unit) in END_TO_END {
        print!(" {:>22}", format!("{name} [{unit}]"));
    }
    println!(" {:>12}", "error_frac");
    for (workload, result) in WORKLOADS.iter().zip(results) {
        print!("{workload:<16}");
        for metric in &result.metrics {
            print!(" {:>22.6}", metric.value);
        }
        println!(" {:>12.6}", result.failed as f64 / result.attempted as f64);
    }
}

/// The per-layer table: one row per metric, one column per workload.
fn print_columns(results: &[RunResult]) {
    print!("{:<24} {:<6}", "metric", "unit");
    for workload in WORKLOADS {
        print!(" {workload:>16}");
    }
    println!();
    for (index, (name, unit)) in PER_LAYER.iter().enumerate() {
        print!("{name:<24} {unit:<6}");
        for result in results {
            print!(" {:>16.6}", result.metrics[index].value);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_serve::json::Json;

    /// The `(name, unit)` lists of one `BENCHMARK.json` section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn every_workload_emits_every_named_metric_with_its_unit() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    seed: 3,
                    seconds: 0.05,
                    trace,
                    tiny: true,
                    trace_file: None,
                };
                let result = run_workload(workload, &args);
                assert!(
                    result.correct,
                    "{workload} trace={trace}: {:?}",
                    result.problems
                );
                assert_eq!(result.failed, 0, "{workload} trace={trace}");
                let emitted: Vec<(String, String)> = result
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                let section = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(emitted, declared(section), "{workload} trace={trace}");
                let line = Json::parse(&result.to_json()).expect("result line parses");
                assert!(line.get("metrics").is_some());
            }
        }
    }
}
