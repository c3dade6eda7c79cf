//! Regenerates the paper's tables and figures on the parallel execution
//! engine, and records the run's performance in `BENCH_results.json`.
//!
//! ```text
//! cargo run -p lpo-bench --release --bin repro -- all
//! cargo run -p lpo-bench --release --bin repro -- table2 --rounds 5 --jobs 8
//! cargo run -p lpo-bench --release --bin repro -- table4 --samples 500 --jobs 0
//! cargo run -p lpo-bench --release --bin repro -- bench-interp --jobs 1
//! cargo run -p lpo-bench --release --bin repro -- bench-opt --jobs 1
//! cargo run -p lpo-bench --release --bin repro -- bench-tv --jobs 1
//! cargo run -p lpo-bench --release --bin repro -- bench-exec --jobs 4 --shard-size 256
//! cargo run -p lpo-bench --release --bin repro -- bench-serve --jobs 4
//! cargo run -p lpo-bench --release --bin repro -- serve --addr 127.0.0.1:7345 --store run.lpostore
//! cargo run -p lpo-bench --release --bin repro -- serve-client --addr 127.0.0.1:7345 --corpus rq1 --warm 2 --stats --shutdown
//! ```
//!
//! `--jobs N` sets the worker count for every driver (`0`, the default, uses
//! all available cores) and `--shard-size M` the Stage-3 input-sweep shard
//! width (`inf` = one shard per survivor sweep; default 256). Any
//! combination produces bit-identical results; only
//! wall-clock measurements change (the `[engine]` footers and Table 5's
//! measured compile-time-delta column).
//!
//! Each invocation **merges** its numbers into `BENCH_results.json` in the
//! current directory: per-table entries are replaced by name, everything else
//! is kept, and the invocation is appended to the `runs` history — so the
//! perf trajectory accumulates across runs and PRs instead of being
//! overwritten.
//!
//! `bench-interp` measures the concrete-evaluation hot path (register-file
//! evaluator vs the reference evaluator) and fills the `interp` section;
//! `bench-opt` measures Stage 1 canonicalization (worklist engine vs the
//! rescan reference) and fills the `opt` section; `bench-tv` measures Stage 3
//! translation validation (staged checker vs the pre-staging reference) and
//! fills the `tv` section; `bench-exec` measures the shard engine's
//! single-case scaling and overhead and fills the `exec` section;
//! `bench-serve` measures the serving shell's protocol round-trips and warm
//! cache-hit rate and fills the `serve` section. With
//! `--check-baseline <file>` the run checks every gate record of that file
//! whose section it produced (a `throughput` gate fails more than 30% below
//! its baseline unless its fallback holds, an `exact_floor` gate fails below
//! its baseline, a `scaling` gate binds only at `--jobs` ≥ 4 on ≥ 4 cores),
//! prints one line per gate and exits 1 if any fails — the CI `bench-smoke`,
//! `shard-smoke` and `serve-smoke` gates. See `BENCH.md`.
//!
//! `serve` runs the engine as a long-lived server on `--addr` (job queue,
//! streaming line-delimited JSON protocol — see `lpo-serve`); `serve-client`
//! scripts a session against one: a `--corpus`/`--module FILE` submission,
//! optional `--warm N` resubmissions, `--stats`, `--shutdown`.

use lpo::prelude::{ExecConfig, VerdictStore, DEFAULT_SHARD_SIZE};
use lpo_bench::results::{check_gates, BenchResults, Json, RunEntries, TableEntry};
use lpo_bench::{self as harness, RunOptions, TableRun};
use lpo_llm::prelude::rq1_models;
use lpo_serve::prelude::{ServeClient, ServeConfig, Server, SubmitOptions};
use std::sync::Arc;
use std::time::Duration;

/// `<name> TEXT`, strict: a present flag whose value is missing or is itself
/// a flag (`--…`) is a hard usage error, never a silent absence (that silence
/// once let `--check-baseline` with no path run with no gate at all).
fn arg_text<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let position = args.iter().position(|a| a == name)?;
    match args.get(position + 1) {
        Some(value) if !value.starts_with("--") => Some(value),
        _ => {
            eprintln!("{name} expects a value");
            std::process::exit(2);
        }
    }
}

/// `<name> N`, strict like [`arg_text`]: a present flag with a missing,
/// negative or otherwise unparsable value is a hard usage error, never a
/// silent fall-back to the default (that silence once hid `--jobs abc`
/// running on every core).
fn arg_value(args: &[String], name: &str, default: u64) -> u64 {
    let Some(value) = arg_text(args, name) else {
        return default;
    };
    match value.parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("{name} expects a non-negative integer, got '{value}'");
            std::process::exit(2);
        }
    }
}

/// `--shard-size N` (`inf` = one shard per survivor sweep).
fn arg_shard_size(args: &[String]) -> usize {
    match arg_text(args, "--shard-size") {
        None => DEFAULT_SHARD_SIZE,
        Some("inf") => usize::MAX,
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--shard-size expects a positive integer or 'inf', got '{text}'");
                std::process::exit(2);
            }
        },
    }
}

/// A bench's measurement, or — when its timed work measured nothing or its
/// loop hit the wall-time cap — the error on stderr and exit status 1.
fn measured<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(1);
    })
}

/// `--jobs N`, `--shard-size M`, `--store PATH` and `--resume`: the table
/// drivers' [`RunOptions`]. `--store` opens (or creates) the durable verdict
/// and checkpoint store; `--resume` without `--store` is a usage error —
/// there is nothing to resume from.
fn arg_run(args: &[String]) -> RunOptions {
    let exec = ExecConfig {
        jobs: arg_value(args, "--jobs", 0) as usize,
        shard_size: arg_shard_size(args),
    };
    let resume = args.iter().any(|a| a == "--resume");
    let store = match arg_text(args, "--store") {
        None if resume => {
            eprintln!("--resume requires --store PATH (the store the previous run wrote)");
            std::process::exit(2);
        }
        None => None,
        Some(path) => match VerdictStore::open(path) {
            Ok(store) => Some(Arc::new(store)),
            Err(error) => {
                eprintln!("cannot open store '{path}': {error}");
                std::process::exit(2);
            }
        },
    };
    RunOptions { exec, store, resume }
}

/// The microbenchmark sections, in the order `all` runs them; `bench-<name>`
/// fills the section `<name>`.
const BENCHES: [&str; 5] = ["interp", "opt", "tv", "exec", "serve"];

/// Runs the `bench-<name>` microbenchmark, prints its report and returns its
/// `BENCH_results.json` section.
fn run_bench(name: &str, exec: &ExecConfig) -> (String, Json) {
    let report = match name {
        "interp" => harness::bench_interp(exec).map(|run| (run.text, run.entry.to_json())),
        "opt" => harness::bench_opt(exec).map(|run| (run.text, run.entry.to_json())),
        "tv" => harness::bench_tv(exec).map(|run| (run.text, run.entry.to_json())),
        "exec" => harness::bench_exec(exec).map(|run| (run.text, run.entry.to_json())),
        "serve" => harness::bench_serve(exec).map(|run| (run.text, run.entry.to_json())),
        _ => unreachable!("not a bench section: {name}"),
    };
    let (text, section) = measured(report);
    println!("{text}");
    (name.to_string(), section)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "serve" => return run_serve(&args),
        "serve-client" => return run_serve_client(&args),
        _ => {}
    }
    let rounds = arg_value(&args, "--rounds", 2);
    let samples = arg_value(&args, "--samples", 60) as usize;
    let run = arg_run(&args);
    let baseline_path = arg_text(&args, "--check-baseline");
    let quick_models = || {
        if args.iter().any(|a| a == "--all-models") {
            rq1_models()
        } else {
            vec![
                lpo_llm::prelude::gemma3(),
                lpo_llm::prelude::llama3_3(),
                lpo_llm::prelude::gemini2_0t(),
                lpo_llm::prelude::o4_mini(),
            ]
        }
    };

    let mut tables: Vec<TableEntry> = Vec::new();
    let mut sections: Vec<(String, Json)> = Vec::new();
    let mut show = |name: &str, table: TableRun| {
        println!("{}", table.text);
        tables.push(TableEntry {
            name: name.to_string(),
            wall_seconds: table.stats.wall_time.as_secs_f64(),
            cases: table.stats.cases,
            cases_per_second: table.stats.cases_per_second(),
            cache_hits: table.stats.cache_hits,
            failed: table.stats.failed_cases,
            resumed: table.stats.resumed_cases,
            jobs: table.stats.jobs,
        });
    };

    match what {
        "table1" => println!("{}", harness::table1()),
        "table2" => show("table2", harness::table2(rounds, &quick_models(), &run)),
        "table3" => show("table3", harness::table3(&run)),
        "table4" => show("table4", harness::table4(samples, &run)),
        "table5" => show("table5", harness::table5(&run)),
        "figure5" => show("figure5", harness::figure5(&run)),
        "all" => {
            println!("{}", harness::table1());
            show("table2", harness::table2(rounds, &quick_models(), &run));
            show("table3", harness::table3(&run));
            show("table4", harness::table4(samples, &run));
            show("table5", harness::table5(&run));
            show("figure5", harness::figure5(&run));
            sections.extend(BENCHES.iter().map(|name| run_bench(name, &run.exec)));
        }
        other => match other.strip_prefix("bench-").filter(|name| BENCHES.contains(name)) {
            Some(name) => sections.push(run_bench(name, &run.exec)),
            None => {
                eprintln!(
                    "unknown experiment '{other}'; expected table1..table5, figure5, bench-interp, bench-opt, bench-tv, bench-exec, bench-serve, serve, serve-client or all"
                );
                std::process::exit(2);
            }
        },
    }

    let entries = RunEntries { tables, sections: sections.clone() };
    if !entries.is_empty() {
        let path = "BENCH_results.json";
        match BenchResults::merge_into_file(path, what, run.exec.jobs, entries) {
            Ok(merged) => eprintln!(
                "merged into {path} ({} tables, {} runs recorded)",
                merged.tables.len(),
                merged.runs.len()
            ),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    // `--check-baseline PATH`: one line per gate of PATH whose section this
    // run produced; exit 1 if any fails or PATH is unreadable or malformed,
    // exit 2 if the run produced no gated section.
    if let Some(path) = baseline_path {
        let ungated = || {
            eprintln!(
                "--check-baseline requires a gated section: the bench-interp, bench-opt, bench-tv, bench-exec, bench-serve (or all) subcommand"
            );
            std::process::exit(2);
        };
        if sections.is_empty() {
            ungated();
        }
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let gates = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline '{path}': {e}"))
            .and_then(|text| {
                Json::parse(&text).map_err(|e| format!("cannot parse baseline '{path}': {e}"))
            })
            .and_then(|baseline| check_gates(&baseline, &sections, cores))
            .unwrap_or_else(|message| {
                eprintln!("{message}");
                std::process::exit(1);
            });
        if gates.is_empty() {
            ungated();
        }
        let failed = gates.iter().any(Result::is_err);
        for gate in gates {
            eprintln!("{}", gate.unwrap_or_else(|line| line));
        }
        if failed {
            std::process::exit(1);
        }
    }
}

/// `repro serve --addr HOST:PORT [--store PATH] [--jobs N] [--shard-size M]
/// [--queue K]`: runs the discovery server in the foreground until a client
/// sends a `shutdown` request. Without `--store` the verdict store is
/// in-memory — warm resubmissions still hit it, but nothing survives the
/// process.
fn run_serve(args: &[String]) {
    let addr = arg_text(args, "--addr").unwrap_or("127.0.0.1:7345");
    let jobs = arg_value(args, "--jobs", 0) as usize;
    let shard_size = arg_shard_size(args);
    let queue_capacity = arg_value(args, "--queue", 16) as usize;
    let store = match arg_text(args, "--store") {
        None => Arc::new(VerdictStore::in_memory()),
        Some(path) => match VerdictStore::open(path) {
            Ok(store) => Arc::new(store),
            Err(error) => {
                eprintln!("cannot open store '{path}': {error}");
                std::process::exit(2);
            }
        },
    };
    let config = ServeConfig { jobs, shard_size, queue_capacity, ..ServeConfig::default() };
    let server = match Server::bind(addr, config, store) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("cannot bind '{addr}': {error}");
            std::process::exit(2);
        }
    };
    eprintln!("serving on {} (jobs {jobs}, queue {queue_capacity})", server.local_addr());
    if let Err(error) = server.run() {
        eprintln!("server failed: {error}");
        std::process::exit(1);
    }
    eprintln!("server shut down cleanly");
}

/// `repro serve-client --addr HOST:PORT [--corpus NAME | --module FILE]
/// [--warm N] [--seed S] [--resume] [--stats] [--shutdown]`: scripts one
/// client session against a running server — the CI `serve-smoke` driver.
/// Exits non-zero on any rejected submission or protocol failure.
fn run_serve_client(args: &[String]) {
    let addr = arg_text(args, "--addr").unwrap_or("127.0.0.1:7345");
    let mut client = match ServeClient::connect_retry(addr, 40, Duration::from_millis(250)) {
        Ok(client) => client,
        Err(error) => {
            eprintln!("cannot connect to '{addr}': {error}");
            std::process::exit(1);
        }
    };

    let mut options = match (arg_text(args, "--corpus"), arg_text(args, "--module")) {
        (Some(_), Some(_)) => {
            eprintln!("--corpus and --module are mutually exclusive");
            std::process::exit(2);
        }
        (None, None) => None,
        (Some(name), None) => Some(SubmitOptions::corpus(name)),
        (None, Some(path)) => match std::fs::read_to_string(path) {
            Ok(text) => Some(SubmitOptions::module(&text)),
            Err(error) => {
                eprintln!("cannot read module '{path}': {error}");
                std::process::exit(2);
            }
        },
    };
    if let Some(options) = options.as_mut() {
        if let Some(model) = arg_text(args, "--model") {
            options.model = Some(model.to_string());
        }
        if args.iter().any(|a| a == "--seed") {
            options.seed = Some(arg_value(args, "--seed", 42));
        }
        options.resume = args.iter().any(|a| a == "--resume");
    }

    let describe = |label: &str, outcome: &lpo_serve::client::JobOutcome| match outcome {
        lpo_serve::client::JobOutcome::Rejected(message) => {
            eprintln!("{label}: rejected: {message}");
            std::process::exit(1);
        }
        lpo_serve::client::JobOutcome::Finished { cases, done, .. } => {
            eprintln!(
                "{label}: {} case frames, summary {}, cache hit rate {:.2}",
                cases.len(),
                done.get("summary").and_then(Json::as_str).unwrap_or("?"),
                done.get("cache_hit_rate").and_then(Json::as_num).unwrap_or(0.0)
            );
        }
    };

    let exchange = |label: &str, result: std::io::Result<lpo_serve::client::JobOutcome>| match result
    {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("{label} failed: {error}");
            std::process::exit(1);
        }
    };

    if let Some(options) = &options {
        let cold = exchange("submit", client.submit(options));
        describe("submit", &cold);
        let warm_passes = arg_value(args, "--warm", 0);
        for pass in 0..warm_passes {
            let warm = exchange("warm submit", client.submit(options));
            describe(&format!("warm submit {}", pass + 1), &warm);
        }
    }
    if args.iter().any(|a| a == "--stats") {
        match client.stats() {
            Ok(stats) => eprintln!(
                "stats: {} requests, queue depth {}, cache hit rate {:.2}",
                stats.get("requests").and_then(Json::as_num).unwrap_or(0.0),
                stats.get("queue_depth").and_then(Json::as_num).unwrap_or(0.0),
                stats.get("cache_hit_rate").and_then(Json::as_num).unwrap_or(0.0)
            ),
            Err(error) => {
                eprintln!("stats failed: {error}");
                std::process::exit(1);
            }
        }
    }
    if args.iter().any(|a| a == "--shutdown") {
        match client.shutdown() {
            Ok(_) => eprintln!("server acknowledged shutdown"),
            Err(error) => {
                eprintln!("shutdown failed: {error}");
                std::process::exit(1);
            }
        }
    }
}
