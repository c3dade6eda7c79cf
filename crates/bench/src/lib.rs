//! # lpo-bench
//!
//! The benchmark harness: every table and figure of the paper's evaluation can
//! be regenerated with the `repro` binary in this crate
//! (`cargo run -p lpo-bench --release --bin repro -- <table1|table2|table3|table4|table5|figure5|all> [--jobs N]`),
//! and its `bench-interp|opt|tv|exec|serve` subcommands time each
//! performance-sensitive layer on the rq1 suite against the gates in
//! `BENCH_baseline.json` (see `BENCH.md`).
//!
//! Every experiment driver runs on the parallel execution engine of
//! `lpo-core` (see `ARCHITECTURE.md` § Execution engine): one [`RunOptions`]
//! argument sets the worker count, the Stage-3 shard size and the durable
//! store, and the embarrassingly parallel case/patch/benchmark loops fan out
//! over a worker pool, with results reassembled in input order so any worker
//! count produces bit-identical results (wall-clock *measurements* — the
//! `[engine]` footers and Table 5's compile-time-delta column — are the only
//! exception). Drivers report their worker/cache/store/wall accounting as one
//! [`ExecStats`], which the `repro` binary also serializes to
//! `BENCH_results.json` for tracking the perf trajectory.
//!
//! The experiment drivers are library functions so that integration tests can
//! call them with scaled-down parameters.
//!
//! See `ARCHITECTURE.md` at the repository root for the workspace crate
//! graph and where this crate sits in the three-stage verification flow.

pub mod results;

use lpo::prelude::*;
use lpo_corpus::{rq1_suite, rq2_suite, IssueCase, Status};
use lpo_llm::prelude::*;
use lpo_mca::{CostModel, Target};
use lpo_opt::patches::all_patches;
use lpo_opt::pipeline::{OptLevel, Pipeline};
use lpo_souper::{superoptimize_batch as souper_batch, SouperConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a table driver runs: the engine configuration (`--jobs`,
/// `--shard-size`) and the durable store (`--store`, `--resume`). Every
/// table driver and its experiment (`table2`–`table5`, `figure5`,
/// `rq1_experiment`–`rq3_experiment`, `table5_experiment`,
/// `figure5_experiment`) takes one `&RunOptions`; the default runs on every
/// core at the default shard size without a store. The `bench_*`
/// microbenchmarks take only its [`ExecConfig`].
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Worker count and Stage-3 sweep shard size.
    pub exec: ExecConfig,
    /// The open store, shared by every batch of the run; `None` runs without
    /// one.
    pub store: Option<Arc<VerdictStore>>,
    /// Replay cases already checkpointed in `store` instead of recomputing
    /// them.
    pub resume: bool,
}

impl RunOptions {
    /// `lpo` with the store as its verdict table, so its Stage-3 verdicts
    /// are recorded in and replayed from it (unchanged without one: the
    /// pipeline keeps its own in-memory table).
    fn attach(&self, lpo: Lpo) -> Lpo {
        match &self.store {
            Some(store) => lpo.with_verdict_store(store.clone()),
            None => lpo,
        }
    }

    /// The checkpoint context of an engine batch run under `run_key`.
    fn persist<'a>(&'a self, run_key: &'a str) -> Option<Persist<'a>> {
        self.store.as_deref().map(|store| Persist { store, run_key, resume: self.resume })
    }

    /// The store's counters now (all zero without a store).
    fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map(|store| store.stats()).unwrap_or_default()
    }

    /// Runs a driver and completes the accounting it returns with the
    /// driver's wall time and the store traffic during it.
    fn measured<R>(&self, driver: impl FnOnce() -> (R, ExecStats)) -> (R, ExecStats) {
        let start = Instant::now();
        let store_before = self.store_stats();
        let (result, mut stats) = driver();
        stats.wall_time = start.elapsed();
        stats.store = self.store_stats().since(store_before);
        (result, stats)
    }

    /// Maps `compute` over `items` on the run's workers, one checkpointed
    /// row per item, for the drivers that run no engine batch. With
    /// `resume`, the row recorded under `(run_key, key(item))` replays (a
    /// blob `decode` rejects is recomputed); otherwise the row is computed
    /// and, with a store, recorded. The stats count the items, each one
    /// unique, and the replayed rows.
    fn checkpointed_rows<T: Sync, R: Send>(
        &self,
        items: &[T],
        run_key: &str,
        key: impl Fn(&T) -> String + Sync,
        decode: impl Fn(&T, &str) -> Option<R> + Sync,
        encode: impl Fn(&R) -> String + Sync,
        compute: impl Fn(&T) -> R + Sync,
    ) -> (Vec<R>, ExecStats) {
        let jobs = self.exec.effective_jobs(items.len());
        let tagged = map_on_runtime(items, jobs, |item, _| {
            let key = key(item);
            let replayed = self
                .store
                .as_ref()
                .filter(|_| self.resume)
                .and_then(|store| store.case(run_key, &key))
                .and_then(|blob| decode(item, &blob));
            if let Some(row) = replayed {
                return (row, true);
            }
            let row = compute(item);
            if let Some(store) = &self.store {
                store.record_case(run_key, &key, &encode(&row));
            }
            (row, false)
        });
        let resumed_cases = tagged.iter().filter(|(_, resumed)| *resumed).count();
        let rows = tagged.into_iter().map(|(row, _)| row).collect();
        let cases = items.len();
        (rows, ExecStats { jobs, cases, unique_cases: cases, resumed_cases, ..ExecStats::default() })
    }
}

/// The accounting footer of a rendered table: `[engine]` always, then
/// `[stage3]`, `[shards]`, `[failures]` and `[store]` when they have
/// anything to report.
fn footer(stats: &ExecStats) -> String {
    let mut out = format!(
        "[engine] jobs: {}  cases: {}  cache hits: {}  wall: {:.2}s  cases/s: {:.1}\n",
        stats.jobs,
        stats.cases,
        stats.cache_hits,
        stats.wall_time.as_secs_f64(),
        stats.cases_per_second()
    );
    let tv = &stats.tv;
    if tv.candidates > 0 {
        let _ = writeln!(
            out,
            "[stage3] candidates: {}  probe rejects: {}  survivors: {}  plane sweeps: {}  compiles: {}  compile-cache hits: {}  source freezes: {}  freeze hits: {}",
            tv.candidates,
            tv.probe_rejects,
            tv.survivors,
            tv.plane_sweeps,
            tv.compiles,
            tv.compile_cache_hits,
            tv.source_freezes,
            tv.freeze_hits
        );
    }
    if tv.shards_executed > 0 {
        // Scheduling-dependent observability (`stolen` especially):
        // report, never compare across runs.
        let _ = writeln!(
            out,
            "[shards] executed: {}  stolen: {}  cancelled: {}",
            tv.shards_executed, tv.shards_stolen, tv.shard_cancellations
        );
    }
    if stats.failed_cases > 0 {
        let _ = writeln!(out, "[failures] failed cases: {}", stats.failed_cases);
    }
    if stats.resumed_cases > 0 || !stats.store.is_empty() {
        let _ = writeln!(
            out,
            "[store] verdict hits: {}  verdict misses: {}  case replays: {}  resumed cases: {} of {}",
            stats.store.verdict_hits,
            stats.store.verdict_misses,
            stats.store.case_replays,
            stats.resumed_cases,
            stats.unique_cases
        );
    }
    out
}

/// A rendered table plus the execution accounting of the run that made it.
#[derive(Clone, Debug)]
pub struct TableRun {
    /// The rendered table text (with an `[engine]` stats footer).
    pub text: String,
    /// The run's accounting, in the unit of the `[engine]` footer line:
    /// the driver's work items (`cases`), those left after dedup replays
    /// (`unique_cases`, `cases - cache_hits`), and those of them whose
    /// checkpointed work all replayed (`resumed_cases`, at most
    /// `unique_cases`).
    pub stats: ExecStats,
}

/// Maps `f` over `items` on `jobs` workers of a fresh [`ShardRuntime`] —
/// each worker owning one reusable evaluation arena — and returns the
/// results in input order. The drivers fork no shards, so this is the
/// runtime's plain ordered parallel map.
fn map_on_runtime<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T, &mut lpo_tv::prelude::EvalArena) -> R + Sync,
) -> Vec<R> {
    ShardRuntime::new(jobs, Arc::default()).run_cases(items.len(), |index, arena| f(&items[index], arena))
}

/// Wall-clock cap of one benchmark measurement loop. A loop that needs
/// longer measures a workload that stopped doing work (or a host too slow
/// to measure on), so it fails instead of spinning.
const MEASURE_CAP: Duration = Duration::from_secs(60);

/// Repeats `round` until it has run at least twice and the timed wall time
/// it reports adds up to `min_time`. Each call runs one interleaved round of
/// every measured variant (interleaving makes slow drift in host load hit
/// all variants equally) and returns `(work, timed)`: the smallest amount
/// of work any variant's timed section did, and the round's timed wall time.
///
/// Fails — instead of yielding a throughput — when a round's timed work is
/// zero (the throughput would measure nothing, and a round of zero-time
/// work never fills the window) or when the loop runs past [`MEASURE_CAP`].
fn measure_rounds(
    bench: &str,
    min_time: Duration,
    mut round: impl FnMut() -> (usize, Duration),
) -> Result<(), String> {
    let start = Instant::now();
    let mut rounds = 0usize;
    let mut timed = Duration::ZERO;
    while rounds < 2 || timed < min_time {
        if start.elapsed() > MEASURE_CAP {
            return Err(format!(
                "{bench}: measurement loop hit its {}s cap after {rounds} rounds ({:.2}s of {:.2}s timed)",
                MEASURE_CAP.as_secs(),
                timed.as_secs_f64(),
                min_time.as_secs_f64()
            ));
        }
        let (work, wall) = round();
        if work == 0 {
            return Err(format!("{bench}: a timed round did no work, so its throughput would measure nothing"));
        }
        rounds += 1;
        timed += wall;
    }
    Ok(())
}

/// Renders Table 1: the selected LLMs.
pub fn table1() -> String {
    let mut out = String::from("Table 1: Selected LLMs\n");
    let _ = writeln!(out, "{:<12} {:<40} {:<10} {:<10}", "Model", "Version", "Reasoning", "Cut-off");
    for m in all_models() {
        let _ = writeln!(
            out,
            "{:<12} {:<40} {:<10} {:<10}",
            m.name,
            m.version,
            if m.reasoning { "Yes" } else { "No" },
            m.cutoff
        );
    }
    out
}

/// One Table 2 row: per-model detection counts for a single issue.
#[derive(Clone, Debug, Default)]
pub struct Rq1Row {
    /// The issue id.
    pub issue: u32,
    /// `(model name, LPO- detections, LPO detections)` out of `rounds`.
    pub per_model: Vec<(String, usize, usize)>,
    /// Whether Souper-Default / Souper-Enum / Minotaur detect it.
    pub souper_default: bool,
    pub souper_enum: bool,
    pub minotaur: bool,
}

/// The RQ1 experiment result (Table 2).
#[derive(Clone, Debug, Default)]
pub struct Rq1Result {
    /// Rows per issue.
    pub rows: Vec<Rq1Row>,
    /// Rounds per model.
    pub rounds: u64,
    /// Model names, in table order.
    pub models: Vec<String>,
}

impl Rq1Result {
    /// Number of issues detected at least once by LPO with the given model.
    pub fn total_detected(&self, model: &str) -> usize {
        self.rows
            .iter()
            .filter(|r| r.per_model.iter().any(|(m, _, lpo)| m == model && *lpo > 0))
            .count()
    }

    /// Average per-round detections for LPO with the given model.
    pub fn average_detected(&self, model: &str) -> f64 {
        let total: usize = self
            .rows
            .iter()
            .flat_map(|r| r.per_model.iter())
            .filter(|(m, _, _)| m == model)
            .map(|(_, _, lpo)| *lpo)
            .sum();
        total as f64 / self.rounds as f64
    }

    /// Number of issues detected at least once by LPO⁻ with the given model.
    pub fn total_detected_minus(&self, model: &str) -> usize {
        self.rows
            .iter()
            .filter(|r| r.per_model.iter().any(|(m, minus, _)| m == model && *minus > 0))
            .count()
    }

    /// Issues found by Souper (either configuration) / Minotaur.
    pub fn souper_total(&self) -> usize {
        self.rows.iter().filter(|r| r.souper_default || r.souper_enum).count()
    }

    /// Issues found by Minotaur.
    pub fn minotaur_total(&self) -> usize {
        self.rows.iter().filter(|r| r.minotaur).count()
    }
}

/// One LPO detection run for a Table 2 cell: the number of `rounds` in
/// which `lpo` finds the case, each round checkpointed under `run_key` and
/// its batch accounting added to `tally`. The pipeline is shared across
/// cases (its Stage 3 compile cache then serves every case of the
/// experiment); outcomes depend only on the factory seeding, so sharing is
/// invisible to the calibrated numbers.
fn detect_with_lpo(
    case: &IssueCase,
    lpo: &Lpo,
    profile: &ModelProfile,
    rounds: u64,
    run: &RunOptions,
    run_key: &str,
    tally: &mut ExecStats,
) -> usize {
    // One factory per (case, model): sessions at case index 0 reproduce the
    // historical per-issue seeding, so the calibrated Table 2 numbers hold.
    let factory = SimulatedModelFactory::new(profile.clone(), case.issue_id as u64);
    let sequence = std::slice::from_ref(&case.function);
    // The detection cells stay one-case-per-batch (the calibrated seeding),
    // so each inner run is serial — but its Stage 3 sweeps still go through
    // the shard engine at the requested shard size.
    let config = ExecConfig { shard_size: run.exec.shard_size, ..ExecConfig::serial() };
    let persist = run.persist(run_key);
    (0..rounds)
        .filter(|&round| {
            let batch =
                lpo.run_sequences_persisted(&factory, round, sequence, &config, persist.as_ref());
            tally_batch(tally, &batch.stats);
            batch.reports[0].outcome.is_found()
        })
        .count()
}

/// Adds one engine batch's case accounting (unique, dedup-replayed, failed
/// and resumed cases) to a Table 2 cell's running total.
fn tally_batch(total: &mut ExecStats, batch: &ExecStats) {
    total.unique_cases += batch.unique_cases;
    total.cache_hits += batch.cache_hits;
    total.failed_cases += batch.failed_cases;
    total.resumed_cases += batch.resumed_cases;
}

/// One shared enumerative search per case, replacing the old
/// per-`Enum`-level re-runs (which repeated the depth-0 leaf scan for every
/// level). A single `Enum = 2` run explores exactly the superset of what the
/// shallower configurations would, in the same order under the same budget
/// counter, so [`SouperResult::found_at_depth`] tells us what each level
/// would have concluded: depth 0 → Souper-Default detects, any depth →
/// Souper-Enum detects. Returns `(souper_default, souper_enum)`.
///
/// (The equivalence needs the budget to bind before the per-depth modelled
/// timeout does — true for the 1500-candidate driver budget, where the
/// modelled search time stays far under the 20-minute timeout.)
fn souper_detects_shared(case: &IssueCase) -> (bool, bool) {
    let mut config = SouperConfig::with_enum(2);
    config.candidate_budget = 1500;
    let result = &souper_batch(std::slice::from_ref(&case.function), &config, 1)[0];
    match result.found_at_depth {
        Some(0) => (true, true),
        Some(_) => (false, true),
        None => (false, false),
    }
}

fn minotaur_detects(case: &IssueCase) -> bool {
    lpo_minotaur::superoptimize(&case.function).found()
}

/// Runs the RQ1 detection experiment (Table 2) with the given number of rounds
/// per model (the paper uses 5) over the selected model profiles, fanning the
/// 25 issues out over the run's workers.
///
/// With a durable store, Stage-3 verdicts are recorded/replayed
/// pipeline-wide, every completed detection cell is checkpointed under a
/// `table2/…` run key, and with [`RunOptions::resume`] already-checkpointed
/// cells replay instead of recomputing. The stats sum every detection
/// batch; their Stage 3 accounting covers both shared pipelines.
pub fn rq1_experiment(
    rounds: u64,
    models: &[ModelProfile],
    run: &RunOptions,
) -> (Rq1Result, ExecStats) {
    run.measured(|| {
        let suite = rq1_suite();
        let jobs = run.exec.effective_jobs(suite.len());
        // Two shared pipelines (LPO / LPO⁻), so the Stage 3 compile cache
        // spans every (case, model, round) cell and the experiment's
        // probe/survivor accounting can be reported in one snapshot.
        let lpo_plus = run.attach(Lpo::new(LpoConfig::default()));
        let lpo_minus = run.attach(Lpo::new(LpoConfig::without_feedback()));
        let cells = map_on_runtime(&suite, jobs, |case, _| {
            let (souper_default, souper_enum) = souper_detects_shared(case);
            let mut row = Rq1Row {
                issue: case.issue_id,
                souper_default,
                souper_enum,
                minotaur: minotaur_detects(case),
                ..Default::default()
            };
            let mut tally = ExecStats::default();
            for profile in models {
                // Distinct run keys per (pipeline, model, issue): checkpoints
                // of one cell must never be replayed by another.
                let minus_key = format!("table2/lpo-/{}/issue{}", profile.name, case.issue_id);
                let plus_key = format!("table2/lpo/{}/issue{}", profile.name, case.issue_id);
                let minus =
                    detect_with_lpo(case, &lpo_minus, profile, rounds, run, &minus_key, &mut tally);
                let plus =
                    detect_with_lpo(case, &lpo_plus, profile, rounds, run, &plus_key, &mut tally);
                row.per_model.push((profile.name.to_string(), minus, plus));
            }
            (row, tally)
        });
        // One case per issue cell: a cell is resumed when every detection
        // batch in it replayed.
        let cases = cells.len();
        let mut stats = ExecStats { jobs, cases, unique_cases: cases, ..ExecStats::default() };
        for (_, tally) in &cells {
            stats.cache_hits += tally.cache_hits;
            stats.failed_cases += tally.failed_cases;
            stats.resumed_cases += usize::from(tally.unique_cases > 0 && tally.resumed_cases == tally.unique_cases);
        }
        stats.tv = lpo_plus.tv_snapshot();
        stats.tv.absorb(lpo_minus.tv_snapshot());
        let result = Rq1Result {
            rows: cells.into_iter().map(|(row, _)| row).collect(),
            rounds,
            models: models.iter().map(|m| m.name.to_string()).collect(),
        };
        (result, stats)
    })
}

/// Renders Table 2 (see [`rq1_experiment`]).
pub fn table2(rounds: u64, models: &[ModelProfile], run: &RunOptions) -> TableRun {
    let (result, stats) = rq1_experiment(rounds, models, run);
    let mut out = format!("Table 2: RQ1 detection of 25 previously reported missed optimizations ({rounds} rounds)\n");
    let _ = write!(out, "{:<10}", "Issue");
    for m in &result.models {
        let _ = write!(out, " {:>6}- {:>6}", m.chars().take(6).collect::<String>(), m.chars().take(6).collect::<String>());
    }
    let _ = writeln!(out, " {:>8} {:>8} {:>8}", "SouperD", "SouperE", "Minotaur");
    for row in &result.rows {
        let _ = write!(out, "{:<10}", row.issue);
        for (_, minus, plus) in &row.per_model {
            let _ = write!(out, " {minus:>7} {plus:>6}");
        }
        let _ = writeln!(
            out,
            " {:>8} {:>8} {:>8}",
            if row.souper_default { "x" } else { "" },
            if row.souper_enum { "x" } else { "" },
            if row.minotaur { "x" } else { "" }
        );
    }
    let _ = writeln!(out, "\nTotals (detected at least once):");
    for m in &result.models {
        let _ = writeln!(
            out,
            "  {:<12} LPO-: {:>2}   LPO: {:>2}   avg/round: {:.1}",
            m,
            result.total_detected_minus(m),
            result.total_detected(m),
            result.average_detected(m)
        );
    }
    let _ = writeln!(out, "  Souper (any Enum): {}", result.souper_total());
    let _ = writeln!(out, "  Minotaur:          {}", result.minotaur_total());
    out.push_str(&footer(&stats));
    TableRun { text: out, stats }
}

/// The RQ2 result (Table 3).
#[derive(Clone, Debug, Default)]
pub struct Rq2Result {
    /// `(issue, status, souper_default, souper_enum, minotaur)` per case.
    pub rows: Vec<(u32, Status, bool, bool, bool)>,
}

impl Rq2Result {
    /// Status histogram.
    pub fn status_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for (_, status, _, _, _) in &self.rows {
            *map.entry(status.label()).or_insert(0) += 1;
        }
        map
    }

    /// How many cases each baseline detects.
    pub fn baseline_counts(&self) -> (usize, usize, usize) {
        let d = self.rows.iter().filter(|r| r.2).count();
        let e = self.rows.iter().filter(|r| r.3).count();
        let m = self.rows.iter().filter(|r| r.4).count();
        (d, e, m)
    }
}

/// Runs the RQ2 baseline-comparison experiment over the 62 found
/// optimizations, one case per work item on the run's workers.
///
/// With a durable store, each completed row's baseline bits are recorded
/// under the `table3` run key, and with [`RunOptions::resume`] recorded
/// rows skip the (expensive) baseline searches entirely.
pub fn rq2_experiment(run: &RunOptions) -> (Rq2Result, ExecStats) {
    run.measured(|| {
        let (rows, stats) = run.checkpointed_rows(
            &rq2_suite(),
            "table3",
            |case| format!("issue{}", case.issue_id),
            |case, blob| {
                let (d, e, m) = decode_baseline_bits(blob)?;
                Some((case.issue_id, case.status, d, e, m))
            },
            |&(_, _, d, e, m)| encode_baseline_bits(d, e, m),
            |case| {
                let (souper_default, souper_enum) = souper_detects_shared(case);
                (case.issue_id, case.status, souper_default, souper_enum, minotaur_detects(case))
            },
        );
        (Rq2Result { rows }, stats)
    })
}

/// `(souper_default, souper_enum, minotaur)` → a three-bit checkpoint blob.
fn encode_baseline_bits(d: bool, e: bool, m: bool) -> String {
    [d, e, m].iter().map(|&bit| if bit { '1' } else { '0' }).collect()
}

/// Parses [`encode_baseline_bits`]; `None` (= recompute) on anything else.
fn decode_baseline_bits(blob: &str) -> Option<(bool, bool, bool)> {
    let bits: Vec<bool> = blob
        .chars()
        .map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        })
        .collect::<Option<_>>()?;
    match bits[..] {
        [d, e, m] => Some((d, e, m)),
        _ => None,
    }
}

/// Renders Table 3 (see [`rq2_experiment`]).
pub fn table3(run: &RunOptions) -> TableRun {
    let (result, stats) = rq2_experiment(run);
    let mut out = String::from("Table 3: the 62 missed optimizations found by LPO\n");
    let _ = writeln!(out, "{:<10} {:<14} {:>8} {:>8} {:>9}", "Issue", "Status", "SouperD", "SouperE", "Minotaur");
    for (issue, status, d, e, m) in &result.rows {
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:>8} {:>8} {:>9}",
            issue,
            status.label(),
            if *d { "x" } else { "" },
            if *e { "x" } else { "" },
            if *m { "x" } else { "" }
        );
    }
    let _ = writeln!(out, "\nStatus counts: {:?}", result.status_counts());
    let (d, e, m) = result.baseline_counts();
    let _ = writeln!(out, "Detected by Souper-Default: {d}, Souper-Enum: {e}, Minotaur: {m} (out of 62)");
    out.push_str(&footer(&stats));
    TableRun { text: out, stats }
}

/// One Table 4 row.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Tool / configuration name.
    pub tool: String,
    /// Average modelled seconds per case.
    pub seconds_per_case: f64,
    /// Number of (modelled) timeouts.
    pub timeouts: usize,
    /// Total modelled cost in USD (API models only).
    pub total_cost_usd: f64,
}

/// Runs the RQ3 throughput experiment on `samples` sequences drawn from the
/// synthetic corpus (the paper uses 5,000; the default harness uses fewer to
/// stay laptop-friendly — the per-case averages are what matter).
///
/// Extraction is sharded per module (as a production deployment would shard
/// per translation unit), so cross-module duplicate sequences reach the
/// engine and exercise its structural-hash dedup cache; the LPO rows and the
/// Souper baselines all fan out over the run's workers.
///
/// With a durable store, each model profile's batch runs under its own
/// `table4/…` run key, so a killed run resumes with the completed cases
/// replayed from their checkpoints.
pub fn rq3_experiment(samples: usize, run: &RunOptions) -> (Vec<ThroughputRow>, ExecStats) {
    use lpo_extract::{ExtractConfig, Extractor};
    run.measured(|| {
        let corpus = lpo_corpus::generate_corpus(&lpo_corpus::CorpusConfig {
            modules_per_project: 4,
            functions_per_module: 4,
            ..Default::default()
        });
        let mut sequences = Vec::new();
        'outer: for project in &corpus {
            for module in &project.modules {
                let mut extractor =
                    Extractor::new(ExtractConfig { min_instructions: 2, ..Default::default() });
                for seq in extractor.extract_module(module) {
                    sequences.push(seq.function);
                    if sequences.len() >= samples {
                        break 'outer;
                    }
                }
            }
        }

        let mut stats = ExecStats {
            jobs: run.exec.effective_jobs(sequences.len()),
            cases: sequences.len(),
            ..ExecStats::default()
        };
        let mut rows = Vec::new();
        let mut resumed = Vec::new();
        // One pipeline for both model profiles: they verify candidates over the
        // same sequence list, so the second profile's probe survivors hit the
        // compiled-function cache the first profile populated.
        let lpo = run.attach(Lpo::new(LpoConfig::default()));
        for profile in [llama3_3(), gemini2_5()] {
            let factory = SimulatedModelFactory::new(profile.clone(), 0xbeef);
            let run_key = format!("table4/{}", profile.name);
            let persist = run.persist(&run_key);
            let batch =
                lpo.run_sequences_persisted(&factory, 0, &sequences, &run.exec, persist.as_ref());
            // Both model runs share one sequence list, so their hit and unique
            // counts are equal — report the per-list count, not the sum over
            // runs. A sequence is resumed when both runs replayed it: the
            // second profile's batch starts only once the first's is done,
            // so the smaller replay count is the per-list one.
            stats.cache_hits = batch.stats.cache_hits;
            stats.unique_cases = batch.stats.unique_cases;
            stats.failed_cases += batch.stats.failed_cases;
            resumed.push(batch.stats.resumed_cases);
            stats.tv.absorb(batch.stats.tv);
            rows.push(ThroughputRow {
                tool: format!("LPO ({})", profile.name),
                seconds_per_case: batch.summary.seconds_per_case(),
                timeouts: 0,
                total_cost_usd: batch.summary.total_cost_usd,
            });
        }
        stats.resumed_cases = resumed.into_iter().min().unwrap_or(0);
        for enum_depth in 0..=3u32 {
            let mut config = SouperConfig::with_enum(enum_depth);
            config.candidate_budget = 1200;
            let mut total = Duration::ZERO;
            let mut timeouts = 0;
            for r in souper_batch(&sequences, &config, run.exec.jobs) {
                total += r.modeled;
                if matches!(r.outcome, lpo_souper::Outcome::Timeout) {
                    timeouts += 1;
                }
            }
            let name = if enum_depth == 0 {
                "Souper (Default)".to_string()
            } else {
                format!("Souper (Enum={enum_depth})")
            };
            rows.push(ThroughputRow {
                tool: name,
                seconds_per_case: total.as_secs_f64() / sequences.len().max(1) as f64,
                timeouts,
                total_cost_usd: 0.0,
            });
        }
        (rows, stats)
    })
}

/// Renders Table 4 (see [`rq3_experiment`]).
pub fn table4(samples: usize, run: &RunOptions) -> TableRun {
    let (rows, stats) = rq3_experiment(samples, run);
    let mut out = format!("Table 4: throughput and cost over {} sampled instruction sequences\n", stats.cases);
    let _ = writeln!(out, "{:<20} {:>14} {:>10} {:>12}", "Tool", "Time/case (s)", "Timeouts", "Cost (USD)");
    for row in &rows {
        let _ = writeln!(
            out,
            "{:<20} {:>14.1} {:>10} {:>12.4}",
            row.tool, row.seconds_per_case, row.timeouts, row.total_cost_usd
        );
    }
    out.push_str(&footer(&stats));
    TableRun { text: out, stats }
}

/// One Table 5 row: prevalence and compile-time impact of an accepted patch.
#[derive(Clone, Debug)]
pub struct PatchImpactRow {
    /// Patch id (issue number, possibly with a `(n)` suffix).
    pub id: String,
    /// IR files (modules) in which the patch fired.
    pub impacted_files: usize,
    /// Projects in which the patch fired.
    pub impacted_projects: usize,
    /// Relative compile-time (optimizer wall-clock) change, in percent.
    pub compile_time_delta_pct: f64,
}

/// Runs the Table 5 prevalence / compile-time experiment over the synthetic
/// corpus, one patch per work item on the run's workers (each patch's base
/// and patched pipelines are timed on the same worker, so the relative
/// compile-time delta stays an apples-to-apples comparison).
///
/// With a durable store, each patch is checkpointed under the `table5` run
/// key. A replayed row carries the *recorded* compile-time delta (a
/// measurement of the checkpointed run, not of this one) — prevalence
/// counts are deterministic either way.
pub fn table5_experiment(run: &RunOptions) -> (Vec<PatchImpactRow>, ExecStats) {
    run.measured(|| {
        let corpus = lpo_corpus::generate_corpus(&lpo_corpus::CorpusConfig {
            modules_per_project: 8,
            functions_per_module: 4,
            pattern_rate: 0.8,
            ..Default::default()
        });
        run.checkpointed_rows(
            &all_patches(),
            "table5",
            |patch| patch.id.to_string(),
            |patch, blob| decode_patch_row(patch.id, blob),
            encode_patch_row,
            |&patch| patch_impact(&corpus, patch),
        )
    })
}

/// Serializes one Table 5 row for checkpointing (delta exact via
/// [`f64::to_bits`]).
fn encode_patch_row(row: &PatchImpactRow) -> String {
    format!(
        "{}\t{}\t{:#018x}",
        row.impacted_files,
        row.impacted_projects,
        row.compile_time_delta_pct.to_bits()
    )
}

/// Parses [`encode_patch_row`]; `None` (= recompute) on anything malformed.
fn decode_patch_row(id: &str, blob: &str) -> Option<PatchImpactRow> {
    let mut fields = blob.split('\t');
    let impacted_files = fields.next()?.parse::<usize>().ok()?;
    let impacted_projects = fields.next()?.parse::<usize>().ok()?;
    let delta_bits = u64::from_str_radix(fields.next()?.strip_prefix("0x")?, 16).ok()?;
    fields.next().is_none().then(|| PatchImpactRow {
        id: id.to_string(),
        impacted_files,
        impacted_projects,
        compile_time_delta_pct: f64::from_bits(delta_bits),
    })
}

/// Measures one patch's prevalence and compile-time impact over the corpus.
fn patch_impact(corpus: &[lpo_corpus::Project], patch: lpo_opt::patches::Patch) -> PatchImpactRow {
    {
        let base = Pipeline::new(OptLevel::O2);
        let patched = Pipeline::new(OptLevel::O2).with_patches(vec![patch]);
        let mut impacted_files = 0;
        let mut impacted_projects = 0;
        let mut base_time = Duration::ZERO;
        let mut patched_time = Duration::ZERO;
        for project in corpus {
            let mut project_hit = false;
            for module in &project.modules {
                let mut m1 = module.clone();
                let t0 = std::time::Instant::now();
                base.run_module(&mut m1);
                base_time += t0.elapsed();

                let mut m2 = module.clone();
                let t1 = std::time::Instant::now();
                let stats = patched.run_module(&mut m2);
                patched_time += t1.elapsed();
                if stats.hits_of(patch.rule.name) > 0 {
                    impacted_files += 1;
                    project_hit = true;
                }
            }
            if project_hit {
                impacted_projects += 1;
            }
        }
        let delta = if base_time.as_secs_f64() > 0.0 {
            (patched_time.as_secs_f64() - base_time.as_secs_f64()) / base_time.as_secs_f64() * 100.0
        } else {
            0.0
        };
        PatchImpactRow {
            id: patch.id.to_string(),
            impacted_files,
            impacted_projects,
            compile_time_delta_pct: delta,
        }
    }
}

/// Renders Table 5 (see [`table5_experiment`]).
pub fn table5(run: &RunOptions) -> TableRun {
    let (rows, stats) = table5_experiment(run);
    let mut out = String::from("Table 5: prevalence and compile-time impact of the accepted patches\n");
    let _ = writeln!(out, "{:<14} {:>9} {:>10} {:>20}", "Patch", "#IR files", "#Projects", "d Compile time (%)");
    for row in &rows {
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>10} {:>+19.2}%",
            row.id, row.impacted_files, row.impacted_projects, row.compile_time_delta_pct
        );
    }
    out.push_str(&footer(&stats));
    TableRun { text: out, stats }
}

/// One Figure 5 data point.
#[derive(Clone, Debug)]
pub struct SpeedupPoint {
    /// The patch id (or "Yearly" for the version-to-version comparison).
    pub label: String,
    /// Geometric-mean speedup over the SPEC-like suite (1.0 = no change).
    pub speedup: f64,
}

/// Runs the Figure 5 experiment: estimated-cycle speedups of each accepted
/// patch on the SPEC-like module set, plus a "yearly" comparison that enables
/// every patch at once. Each of the ten pipeline configurations is one work
/// item on the run's workers; the figure has no store to use, so the
/// accounting is the configuration count and the wall time.
pub fn figure5_experiment(run: &RunOptions) -> (Vec<SpeedupPoint>, ExecStats) {
    run.measured(|| {
        let benches = lpo_corpus::spec_benchmarks(20251201);
        let cost = CostModel::new(Target::Btver2Like);
        let figure_ids = ["128134", "142674", "143211", "143636", "157315", "157370", "157524", "163108 (1)", "163108 (2)"];
        let base = Pipeline::new(OptLevel::O2);
        let baseline_cycles: Vec<f64> = benches
            .iter()
            .map(|(_, m)| {
                let mut m = m.clone();
                base.run_module(&mut m);
                m.functions.iter().map(|f| cost.estimate(f).total_cycles).sum::<f64>()
            })
            .collect();
        let mut configs: Vec<(String, Vec<lpo_opt::patches::Patch>)> = figure_ids
            .iter()
            .map(|&id| (id.to_string(), all_patches().into_iter().filter(|p| p.id == id).collect()))
            .collect();
        configs.push(("Yearly".to_string(), all_patches()));
        let jobs = run.exec.effective_jobs(configs.len());
        let points = map_on_runtime(&configs, jobs, |(label, patches), _| {
            let pipeline = Pipeline::new(OptLevel::O2).with_patches(patches.clone());
            let mut ratios = Vec::new();
            for ((_, module), base_cycles) in benches.iter().zip(&baseline_cycles) {
                let mut m = module.clone();
                pipeline.run_module(&mut m);
                let cycles: f64 = m.functions.iter().map(|f| cost.estimate(f).total_cycles).sum();
                if cycles > 0.0 {
                    ratios.push(base_cycles / cycles);
                }
            }
            let geo: f64 = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len().max(1) as f64;
            SpeedupPoint { label: label.clone(), speedup: geo.exp() }
        });
        let cases = points.len();
        (points, ExecStats { jobs, cases, unique_cases: cases, ..ExecStats::default() })
    })
}

/// One interpreter-throughput measurement: the rendered report plus the
/// entry recorded in `BENCH_results.json`'s `interp` section.
#[derive(Clone, Debug)]
pub struct InterpBenchRun {
    /// Human-readable report.
    pub text: String,
    /// The numbers (evals/sec, steps/sec, reference baseline, speedup).
    pub entry: results::InterpEntry,
}

/// Measures concrete-evaluation throughput over the rq1 suite: every case's
/// full translation-validation input set is evaluated on the register-file
/// evaluator (compiled once per case per pass, the same shape as the TV hot
/// path) and on the pre-change reference evaluator, on `exec.jobs` workers
/// each owning one [`lpo_tv::prelude::EvalArena`].
///
/// This is the workload behind `repro bench-interp` and the CI `bench-smoke`
/// regression gate; measure with `--jobs 1` when comparing across builds.
pub fn bench_interp(exec: &ExecConfig) -> Result<InterpBenchRun, String> {
    use lpo_interp::prelude::{evaluate_reference, CompiledFunction};
    use lpo_tv::prelude::{generate_inputs, InputConfig, TestInput};

    const STEP_LIMIT: usize = 1 << 14;
    /// Minimum measurement time per evaluator pass.
    const MIN_TIME: Duration = Duration::from_millis(900);

    let suite = rq1_suite();
    let workloads: Vec<(lpo_ir::function::Function, Vec<TestInput>)> = suite
        .iter()
        .map(|case| {
            let inputs = generate_inputs(&case.function, &InputConfig::default());
            (case.function.clone(), inputs)
        })
        .collect();
    let jobs = exec.effective_jobs(workloads.len());

    /// Accumulated (evaluations, steps, wall) of one evaluator's passes.
    #[derive(Default)]
    struct Tally {
        evals: usize,
        steps: u64,
        wall: Duration,
    }

    impl Tally {
        /// Runs one pass and returns its `(evaluations, wall)`.
        fn add(&mut self, pass: &dyn Fn() -> (usize, u64)) -> (usize, Duration) {
            let start = Instant::now();
            let (e, s) = pass();
            let wall = start.elapsed();
            self.wall += wall;
            self.evals += e;
            self.steps += s;
            (e, wall)
        }
    }

    let compiled_pass = || -> (usize, u64) {
        map_on_runtime(&workloads, jobs, |(func, inputs), arena| {
            // Compile once per case per pass: the same amortization shape as
            // the TV hot path (one compile per candidate, reused across all
            // of its inputs).
            let compiled = CompiledFunction::compile(func);
            let mut steps = 0u64;
            for input in inputs {
                if let Ok(out) =
                    compiled.evaluate_with_limit(arena, &input.args, input.memory.clone(), STEP_LIMIT)
                {
                    steps += out.steps as u64;
                }
            }
            (inputs.len(), steps)
        })
        .into_iter()
        .fold((0, 0), |(e, s), (pe, ps)| (e + pe, s + ps))
    };

    let reference_pass = || -> (usize, u64) {
        map_on_runtime(&workloads, jobs, |(func, inputs), _| {
            let mut steps = 0u64;
            for input in inputs {
                if let Ok(out) =
                    evaluate_reference(func, &input.args, input.memory.clone(), STEP_LIMIT)
                {
                    steps += out.steps as u64;
                }
            }
            (inputs.len(), steps)
        })
        .into_iter()
        .fold((0, 0), |(e, s), (pe, ps)| (e + pe, s + ps))
    };

    // Interleave the two evaluators' passes so the reported speedup is
    // stable even on noisy shared machines.
    let mut fast = Tally::default();
    let mut slow = Tally::default();
    measure_rounds("bench-interp", MIN_TIME * 2, || {
        let (fast_evals, fast_wall) = fast.add(&compiled_pass);
        let (slow_evals, slow_wall) = slow.add(&reference_pass);
        (fast_evals.min(slow_evals), fast_wall + slow_wall)
    })?;

    let (fast_evals, fast_steps, fast_wall) = (fast.evals, fast.steps, fast.wall);
    let (ref_evals, ref_wall) = (slow.evals, slow.wall);

    let evals_per_second = fast_evals as f64 / fast_wall.as_secs_f64();
    let steps_per_second = fast_steps as f64 / fast_wall.as_secs_f64();
    let reference_evals_per_second = ref_evals as f64 / ref_wall.as_secs_f64();
    let speedup = if reference_evals_per_second > 0.0 {
        evals_per_second / reference_evals_per_second
    } else {
        0.0
    };
    let total_inputs: usize = workloads.iter().map(|(_, inputs)| inputs.len()).sum();

    let entry = results::InterpEntry {
        evals_per_second,
        steps_per_second,
        reference_evals_per_second,
        speedup,
        cases: workloads.len(),
        evals: total_inputs,
        jobs,
    };
    let mut text = format!(
        "Interpreter throughput: rq1 suite ({} cases, {} inputs per pass, jobs: {jobs})\n",
        entry.cases, entry.evals
    );
    let _ = writeln!(
        text,
        "  register-file evaluator: {:>12.0} evals/s  {:>14.0} steps/s",
        evals_per_second, steps_per_second
    );
    let _ = writeln!(text, "  reference evaluator:     {reference_evals_per_second:>12.0} evals/s");
    let _ = writeln!(text, "  speedup:                 {speedup:>11.2}x");
    Ok(InterpBenchRun { text, entry })
}

/// One canonicalization-throughput measurement: the rendered report plus the
/// entry recorded in `BENCH_results.json`'s `opt` section.
#[derive(Clone, Debug)]
pub struct OptBenchRun {
    /// Human-readable report.
    pub text: String,
    /// The numbers (canonicalizations/sec at both scales, speedups).
    pub entry: results::OptEntry,
}

/// Composes `copies` renamed copies of a case body into one straight-line
/// function (results combined by an xor chain so every copy stays live) and
/// injects one foldable redundancy per copy — the translation-unit-scale
/// canonicalization workload. Returns `None` for non-scalar-int returns.
fn compose_module_scale(func: &lpo_ir::function::Function, copies: usize) -> Option<lpo_ir::function::Function> {
    use lpo_ir::function::Function;
    use lpo_ir::instruction::{BinOp, InstId, InstKind, Instruction, Value};
    use lpo_ir::types::Type;
    let width = match func.ret_ty {
        Type::Int(w) => w,
        _ => return None,
    };
    let ret_val = func.return_value()?.clone();
    let mut out = Function::new(format!("{}.x{copies}", func.name), func.ret_ty.clone());
    out.params = func.params.clone();
    let entry = out.entry();
    let mut results: Vec<Value> = Vec::new();
    for copy in 0..copies {
        let mut map: std::collections::HashMap<InstId, Value> = std::collections::HashMap::new();
        for (id, inst) in func.iter_insts() {
            if inst.is_terminator() {
                continue;
            }
            let mut kind = inst.kind.clone();
            for op in kind.operands_mut() {
                if let Value::Inst(dep) = op {
                    *op = map.get(dep).cloned()?;
                }
            }
            let new_id = out.append_inst(
                entry,
                Instruction::new(kind, inst.ty.clone(), format!("c{copy}.{}", inst.name)),
            );
            map.insert(id, Value::Inst(new_id));
        }
        let result = match &ret_val {
            Value::Inst(id) => map.get(id).cloned()?,
            other => other.clone(),
        };
        // One foldable redundancy per copy: the sparse-rewrite shape the
        // worklist engine is built for.
        let redundant = out.append_inst(
            entry,
            Instruction::new(
                InstKind::Binary {
                    op: BinOp::Add,
                    lhs: result,
                    rhs: Value::int(width, 0),
                    flags: Default::default(),
                },
                func.ret_ty.clone(),
                format!("r{copy}"),
            ),
        );
        results.push(Value::Inst(redundant));
    }
    let mut acc = results.first()?.clone();
    for r in results.iter().skip(1) {
        let id = out.append_inst(
            entry,
            Instruction::new(
                InstKind::Binary { op: BinOp::Xor, lhs: acc, rhs: r.clone(), flags: Default::default() },
                func.ret_ty.clone(),
                format!("acc{}", out.inst_arena_len()),
            ),
        );
        acc = Value::Inst(id);
    }
    out.append_inst(entry, Instruction::new(InstKind::Ret { value: Some(acc) }, Type::Void, ""));
    lpo_ir::verifier::verify_function(&out).ok()?;
    Some(out)
}

/// Copies of each case body composed into one module-scale function.
const COMPOSE_COPIES: usize = 8;

/// Measures Stage 1 canonicalization throughput over the rq1 suite at two
/// scales, on the worklist engine and on [`Pipeline::optimize_reference`]
/// (the retained rescan engine with the seed's rescan-based DCE):
///
/// * **per-candidate scale** — each raw rq1 case, the shape of verifying one
///   LLM candidate (already canonical, so this is the confirmation pass);
/// * **module scale** — eight renamed copies of each case body composed into
///   one straight-line function with one foldable redundancy per copy, the
///   translation-unit shape the ROADMAP's production-scale north star cares
///   about, where clean-position skipping pays off.
///
/// This is the workload behind `repro bench-opt` and the CI `bench-smoke`
/// regression gate; measure with `--jobs 1` when comparing across builds.
pub fn bench_opt(exec: &ExecConfig) -> Result<OptBenchRun, String> {
    use lpo_ir::function::Function;
    use lpo_opt::pipeline::{OptLevel, Pipeline};

    /// Minimum measurement time per engine per scale.
    const MIN_TIME: Duration = Duration::from_millis(500);

    let suite = rq1_suite();
    let cases: Vec<Function> = suite.iter().map(|case| case.function.clone()).collect();
    let composed: Vec<Function> =
        cases.iter().filter_map(|f| compose_module_scale(f, COMPOSE_COPIES)).collect();
    let jobs = exec.effective_jobs(cases.len());
    let pipeline = Pipeline::new(OptLevel::O2);

    /// Accumulated (canonicalizations, wall) of one engine's passes.
    #[derive(Default)]
    struct Tally {
        canon: usize,
        wall: Duration,
    }

    impl Tally {
        /// Runs one pass and returns its `(canonicalizations, wall)`.
        fn add(&mut self, pass: &dyn Fn() -> usize) -> (usize, Duration) {
            let start = Instant::now();
            let canon = pass();
            let wall = start.elapsed();
            self.canon += canon;
            self.wall += wall;
            (canon, wall)
        }
    }

    let run_pass = |functions: &[Function], reference: bool| -> usize {
        map_on_runtime(functions, jobs, |func, _| {
            let mut scratch = func.clone();
            if reference {
                pipeline.optimize_reference(&mut scratch);
            } else {
                pipeline.run(&mut scratch);
            }
        })
        .len()
    };

    let measure = |functions: &[Function]| -> Result<(Tally, Tally), String> {
        let mut fast = Tally::default();
        let mut slow = Tally::default();
        measure_rounds("bench-opt", MIN_TIME * 2, || {
            let (fast_canon, fast_wall) = fast.add(&|| run_pass(functions, false));
            let (slow_canon, slow_wall) = slow.add(&|| run_pass(functions, true));
            (fast_canon.min(slow_canon), fast_wall + slow_wall)
        })?;
        Ok((fast, slow))
    };

    let (case_fast, case_slow) = measure(&cases)?;
    let (module_fast, module_slow) = measure(&composed)?;

    let per_second = |tally: &Tally| tally.canon as f64 / tally.wall.as_secs_f64();
    let canon_per_second = per_second(&module_fast);
    let reference_canon_per_second = per_second(&module_slow);
    let case_canon_per_second = per_second(&case_fast);
    let case_reference_canon_per_second = per_second(&case_slow);
    let ratio = |fast: f64, slow: f64| if slow > 0.0 { fast / slow } else { 0.0 };

    let entry = results::OptEntry {
        canon_per_second,
        reference_canon_per_second,
        speedup: ratio(canon_per_second, reference_canon_per_second),
        case_canon_per_second,
        case_reference_canon_per_second,
        case_speedup: ratio(case_canon_per_second, case_reference_canon_per_second),
        cases: cases.len(),
        functions: composed.len(),
        jobs,
    };
    let mut text = format!(
        "Canonicalization throughput: rq1 suite ({} cases; {} module-scale compositions of {} copies, jobs: {jobs})\n",
        entry.cases, entry.functions, COMPOSE_COPIES
    );
    let _ = writeln!(
        text,
        "  module scale   worklist: {:>9.0} canon/s   reference: {:>9.0} canon/s   speedup: {:.2}x",
        canon_per_second, reference_canon_per_second, entry.speedup
    );
    let _ = writeln!(
        text,
        "  per-candidate  worklist: {:>9.0} canon/s   reference: {:>9.0} canon/s   speedup: {:.2}x",
        case_canon_per_second, case_reference_canon_per_second, entry.case_speedup
    );
    Ok(OptBenchRun { text, entry })
}

/// One translation-validation throughput measurement: the rendered report
/// plus the entry recorded in `BENCH_results.json`'s `tv` section.
#[derive(Clone, Debug)]
pub struct TvBenchRun {
    /// Human-readable report.
    pub text: String,
    /// The numbers (refuted/survivor verification throughput + speedups).
    pub entry: results::TvEntry,
}

/// Builds the canonical *wrong* candidate for a scalar-int-returning case:
/// the source with its return value xor'ed with 1, which differs from the
/// source on every input where the source returns a concrete value — so the
/// verifier refutes it on the earliest non-poisoned input, the dominant
/// shape of real candidate traffic.
///
/// Shared by the `bench-tv` workload and `tests/tv_differential.rs`, so the
/// gated benchmark and the differential proof always exercise the same
/// refuted-candidate shape.
pub fn twist_return(func: &lpo_ir::function::Function) -> Option<lpo_ir::function::Function> {
    use lpo_ir::flags::IntFlags;
    use lpo_ir::instruction::{BinOp, InstId, InstKind, Instruction, Value};
    let width = func.ret_ty.int_width()?;
    let mut twisted = func.clone();
    let (ret_id, ret_val): (InstId, Value) = twisted.iter_insts().find_map(|(id, inst)| {
        match &inst.kind {
            InstKind::Ret { value: Some(v) } => Some((id, v.clone())),
            _ => None,
        }
    })?;
    let twist = twisted.insert_before(
        ret_id,
        Instruction::new(
            InstKind::Binary {
                op: BinOp::Xor,
                lhs: ret_val,
                rhs: Value::int(width, 1),
                flags: IntFlags::none(),
            },
            func.ret_ty.clone(),
            "twist",
        ),
    );
    twisted.set_operand(ret_id, 0, Value::Inst(twist));
    Some(twisted)
}

/// Measures Stage 3 (translation validation) throughput over the rq1 suite on
/// the staged checker (probe → lazy compile → survivor sweep) and on the
/// retained reference checker (unconditional compile + serial sweep):
///
/// * **refuted candidates** — each case's source with its return value
///   twisted, refuted on the earliest concrete input. This is the dominant
///   real-world shape (most LLM/enumerated candidates are wrong), and where
///   the probe pays off: the staged path never compiles these.
/// * **surviving candidates** — the source verified against itself: the full
///   input sweep every accepted candidate must pay. Most rq1 cases have a
///   plane form (`plane_cases`), so the staged sweep runs 256 inputs at a
///   time on the plane tier against the reference's one-input-at-a-time
///   compiled sweep; this is where the plane tier's gain shows, an order of
///   magnitude or more (`BENCH_results.json` holds the latest figure). A
///   fresh per-case
///   [`lpo_tv::prelude::SourceCache`] is built per pass and the survivor is
///   verified several times against it, so the source side amortizes the
///   way it does in a real case.
/// * **cold survivors** — the same self-verification on a fresh case per
///   check, so each pays input generation and the source sweep.
///
/// All checkers' passes are interleaved so host noise cancels. This is the
/// workload behind `repro bench-tv` and the CI `bench-smoke` regression
/// gate; measure with `--jobs 1` when comparing across builds.
pub fn bench_tv(exec: &ExecConfig) -> Result<TvBenchRun, String> {
    use lpo_ir::function::Function;
    use lpo_tv::prelude::{SerialDriver, SourceCache, TvConfig};

    /// Minimum measurement time per checker per shape.
    const MIN_TIME: Duration = Duration::from_millis(600);
    /// Refuted verifications per case per pass.
    const REFUTED_REPEATS: usize = 32;
    /// Survivor verifications per case per pass (first pays the source-side
    /// sweep, the rest amortize it — the real per-case shape).
    const SURVIVOR_REPEATS: usize = 4;
    /// Cold survivor verifications per case per pass (each pays the whole
    /// per-case source side, so a couple per pass is plenty).
    const COLD_REPEATS: usize = 2;

    let suite = rq1_suite();
    let workloads: Vec<(Function, Function)> = suite
        .iter()
        .filter_map(|case| {
            let wrong = twist_return(&case.function)?;
            // Only keep pairs the checker actually refutes (a source that is
            // UB/poison everywhere would accept any target).
            lpo_tv::refine::verify_refinement(&case.function, &wrong)
                .counterexample()
                .map(|_| (case.function.clone(), wrong))
        })
        .collect();
    // An empty workload would record NaN throughputs — fail loudly
    // instead; the rq1 suite always has twistable scalar-int cases.
    if workloads.is_empty() {
        return Err("bench-tv workload is empty: no rq1 case has a twistable, refutable return".into());
    }
    // How many cases the type-specialized plane tier covers: the survivor
    // pass verifies the source against itself, so eligibility is the
    // source's own compiled form carrying a plane plan.
    let plane_cases = workloads
        .iter()
        .filter(|(src, _)| lpo_interp::compiled::CompiledFunction::compile(src).plane().is_some())
        .count();
    let jobs = exec.effective_jobs(workloads.len());

    /// Accumulated (verifications, wall) of one checker's passes. Only the
    /// verification loops are timed — per-case setup (input generation,
    /// source-outcome fills) is identical case state shared by both checkers
    /// and amortized over a case's whole candidate stream in production, so
    /// it is warmed untimed.
    #[derive(Default)]
    struct Tally {
        checks: usize,
        wall: Duration,
    }

    impl Tally {
        /// Runs one pass and returns its `(checks, timed wall)`.
        fn add(&mut self, pass: &dyn Fn() -> (usize, Duration)) -> (usize, Duration) {
            let (checks, wall) = pass();
            self.checks += checks;
            self.wall += wall;
            (checks, wall)
        }
    }

    // The staged side runs `verify_outcome_only` — the accept/reject-only
    // entry the enumerative baselines (Souper's per-case candidate stream,
    // Minotaur's template scan) actually call, where the counterexample is
    // discarded. The reference side runs the retained pre-staging checker,
    // which is exactly what those callers paid per refuted candidate before:
    // an unconditional compile, a serial sweep, and a rendered
    // counterexample.
    let refuted_pass = |staged: bool| -> (usize, Duration) {
        map_on_runtime(&workloads, jobs, |(src, wrong), arena| {
            let case = SourceCache::new(src, TvConfig::default());
            // Warm the per-case state (inputs + the source outcomes the
            // refutation reaches) untimed.
            std::hint::black_box(case.verify_with(wrong, arena).is_correct());
            let start = Instant::now();
            for _ in 0..REFUTED_REPEATS {
                let correct = if staged {
                    case.verify_outcome_only(wrong, arena)
                } else {
                    case.verify_reference(wrong, arena).is_correct()
                };
                std::hint::black_box(correct);
            }
            (REFUTED_REPEATS, start.elapsed())
        })
        .into_iter()
        .fold((0, Duration::ZERO), |(c, w), (pc, pw)| (c + pc, w + pw))
    };

    let survivor_pass = |staged: bool| -> (usize, Duration) {
        map_on_runtime(&workloads, jobs, |(src, _), arena| {
            let case = SourceCache::new(src, TvConfig::default());
            // Warm inputs and the full source-outcome sweep untimed: the
            // timed loop then measures the candidate-side cost, which is
            // what every additional candidate of a case pays.
            std::hint::black_box(case.verify_with(src, arena).is_correct());
            let start = Instant::now();
            for _ in 0..SURVIVOR_REPEATS {
                let verdict = if staged {
                    case.verify_with(src, arena)
                } else {
                    case.verify_reference(src, arena)
                };
                std::hint::black_box(verdict.is_correct());
            }
            (SURVIVOR_REPEATS, start.elapsed())
        })
        .into_iter()
        .fold((0, Duration::ZERO), |(c, w), (pc, pw)| (c + pc, w + pw))
    };

    // The cold survivor shape: a fresh case per verification, so each timed
    // check pays input generation and the source sweep the way the engine's
    // first survivor of a case does. The staged side freezes the case through
    // `verify_with_driver` (dense on planes for plane-eligible sources); the
    // reference side is the retained checker on an equally cold case.
    let cold_survivor_pass = |staged: bool| -> (usize, Duration) {
        map_on_runtime(&workloads, jobs, |(src, _), arena| {
            let start = Instant::now();
            for _ in 0..COLD_REPEATS {
                let case = SourceCache::new(src, TvConfig::default());
                let verdict = if staged {
                    case.verify_with_driver(src, arena, &SerialDriver, DEFAULT_SHARD_SIZE)
                } else {
                    case.verify_reference(src, arena)
                };
                std::hint::black_box(verdict.is_correct());
            }
            (COLD_REPEATS, start.elapsed())
        })
        .into_iter()
        .fold((0, Duration::ZERO), |(c, w), (pc, pw)| (c + pc, w + pw))
    };

    let measure = |pass: &dyn Fn(bool) -> (usize, Duration)| -> Result<(Tally, Tally), String> {
        let mut fast = Tally::default();
        let mut slow = Tally::default();
        measure_rounds("bench-tv", MIN_TIME * 2, || {
            let (fast_checks, fast_wall) = fast.add(&|| pass(true));
            let (slow_checks, slow_wall) = slow.add(&|| pass(false));
            (fast_checks.min(slow_checks), fast_wall + slow_wall)
        })?;
        Ok((fast, slow))
    };

    let (refuted_fast, refuted_slow) = measure(&refuted_pass)?;
    let (survivor_fast, survivor_slow) = measure(&survivor_pass)?;
    let (cold_fast, cold_slow) = measure(&cold_survivor_pass)?;

    let per_second = |tally: &Tally| tally.checks as f64 / tally.wall.as_secs_f64();
    let ratio = |fast: f64, slow: f64| if slow > 0.0 { fast / slow } else { 0.0 };
    let refuted_per_second = per_second(&refuted_fast);
    let reference_refuted_per_second = per_second(&refuted_slow);
    let survivor_per_second = per_second(&survivor_fast);
    let reference_survivor_per_second = per_second(&survivor_slow);
    let cold_survivor_per_second = per_second(&cold_fast);
    let reference_cold_survivor_per_second = per_second(&cold_slow);

    let entry = results::TvEntry {
        refuted_per_second,
        reference_refuted_per_second,
        refuted_speedup: ratio(refuted_per_second, reference_refuted_per_second),
        survivor_per_second,
        reference_survivor_per_second,
        survivor_speedup: ratio(survivor_per_second, reference_survivor_per_second),
        cold_survivor_per_second,
        reference_cold_survivor_per_second,
        cold_survivor_speedup: ratio(cold_survivor_per_second, reference_cold_survivor_per_second),
        cases: workloads.len(),
        plane_cases,
        jobs,
    };
    let mut text = format!(
        "Translation-validation throughput: rq1 suite ({} twistable cases, {} plane-eligible, jobs: {jobs})\n",
        entry.cases, entry.plane_cases
    );
    let _ = writeln!(
        text,
        "  refuted candidate   staged: {:>9.0} checks/s   reference: {:>9.0} checks/s   speedup: {:.2}x",
        refuted_per_second, reference_refuted_per_second, entry.refuted_speedup
    );
    let _ = writeln!(
        text,
        "  surviving candidate staged: {:>9.0} checks/s   reference: {:>9.0} checks/s   speedup: {:.2}x",
        survivor_per_second, reference_survivor_per_second, entry.survivor_speedup
    );
    let _ = writeln!(
        text,
        "  cold survivor       staged: {:>9.0} checks/s   reference: {:>9.0} checks/s   speedup: {:.2}x  (fresh case per check)",
        cold_survivor_per_second, reference_cold_survivor_per_second, entry.cold_survivor_speedup
    );
    Ok(TvBenchRun { text, entry })
}

/// One sharded-execution measurement: the rendered report plus the entry
/// recorded in `BENCH_results.json`'s `exec` section.
#[derive(Clone, Debug)]
pub struct ExecBenchRun {
    /// Human-readable report.
    pub text: String,
    /// The numbers (single-case scaling + sharding overhead + counters).
    pub entry: results::ExecEntry,
}

/// Measures the shard engine's reason to exist: **single-case** scaling.
/// The whole batch is one survivor verification over a 65,536-input
/// exhaustive sweep (`i16` argument), split into [`SweepShard`]s of
/// `exec.shard_size` inputs. It is measured on the serial
/// [`SourceCache::verify_with`](lpo_tv::prelude::SourceCache::verify_with)
/// walk (the reference), on the sharded walk at one worker (the
/// machine-independent overhead ratio — the shard machinery must stay
/// within a few percent of free), and on the sharded walk at `exec.jobs`
/// workers (the speedup an idle machine gets on one huge case).
///
/// A timed round that evaluates nothing fails the bench instead of yielding
/// a number.
///
/// Parallel speedups are wall-clock and only meaningful on multi-core hosts;
/// the `exec.sweep_speedup` gate (kind `scaling`) binds only at `--jobs` ≥ 4
/// on a host with ≥ 4 cores, while the sweep-throughput gate falls back to
/// the (machine-independent) overhead ratio. This is the workload behind the CI
/// `shard-smoke` job; measure with `--jobs 1` when comparing across builds.
///
/// [`SweepShard`]: lpo_tv::frozen::SweepShard
pub fn bench_exec(exec: &ExecConfig) -> Result<ExecBenchRun, String> {
    use lpo_ir::parser::parse_function;
    use lpo_tv::prelude::{input_count, EvalArena, SourceCache, TvConfig};

    /// Minimum measurement time per variant.
    const MIN_TIME: Duration = Duration::from_millis(300);
    /// Survivor sweeps per pass.
    const SWEEP_REPEATS: usize = 4;

    let shard_size = exec.shard_size.max(1);
    // Not bounded by the single case: the extra workers steal its shards.
    let parallel_jobs = exec.effective_jobs(usize::MAX);

    // One survivor case with a 65,536-input exhaustive sweep: wide enough
    // that shard-granular stealing matters, cheap enough per input that the
    // scheduler overhead would show if it were there.
    let sweep_src = parse_function(
        "define i16 @sweep(i16 %x) {\n %a = mul i16 %x, 3\n %b = xor i16 %a, 85\n %r = add i16 %b, 1\n ret i16 %r\n}",
    )
    .expect("bench-exec sweep function parses");
    let sweep_tv = {
        let mut config = TvConfig::default();
        config.inputs.exhaustive_bits = 16;
        config
    };
    // Every input of a survivor is evaluated on the target (probe + sweep).
    let inputs = input_count(&sweep_src, &sweep_tv.inputs);

    /// One variant's accumulated survivor sweeps, timed wall and shard
    /// accounting.
    #[derive(Default)]
    struct Tally {
        sweeps: usize,
        wall: Duration,
        shards: ShardStats,
    }

    impl Tally {
        /// Folds in one pass `(survivor sweeps, timed wall, shards)` and
        /// returns its `(sweeps, timed wall)`.
        fn add(&mut self, (sweeps, wall, shards): (usize, Duration, ShardStats)) -> (usize, Duration) {
            self.sweeps += sweeps;
            self.wall += wall;
            self.shards.absorb(shards);
            (sweeps, wall)
        }

        fn per_second(&self) -> f64 {
            let secs = self.wall.as_secs_f64();
            if secs > 0.0 {
                self.sweeps as f64 / secs
            } else {
                0.0
            }
        }
    }

    /// Times `SWEEP_REPEATS` calls of `verify` against `case`, returning
    /// `(survivor sweeps, wall)`. A survivor sweep is a verification that
    /// got past the probe, counted off the case's survivor counter, so a
    /// verdict settled without sweeping (a proof, a probe reject) is no work.
    fn timed_sweeps(case: &SourceCache<'_>, mut verify: impl FnMut()) -> (usize, Duration) {
        let survivors = case.survivors();
        let start = Instant::now();
        for _ in 0..SWEEP_REPEATS {
            verify();
        }
        (case.survivors() - survivors, start.elapsed())
    }

    // The reference: `verify_with`, the staged walk with the whole sweep as
    // one `SerialDriver` shard on this thread.
    let reference_pass = || -> (usize, Duration, ShardStats) {
        let mut arena = EvalArena::new();
        let case = SourceCache::new(&sweep_src, sweep_tv.clone());
        // Warm the source-side sweep untimed (amortized per case in
        // production); the timed loop is the candidate-side cost.
        std::hint::black_box(case.verify_with(&sweep_src, &mut arena).is_correct());
        let (sweeps, wall) = timed_sweeps(&case, || {
            std::hint::black_box(case.verify_with(&sweep_src, &mut arena).is_correct());
        });
        (sweeps, wall, ShardStats::default())
    };

    // The sharded walk. A fresh runtime per pass: `run_cases` shuts its
    // helpers down when the case list drains, so runtimes are per-batch, as
    // in the engine.
    let sharded_pass = |pass_jobs: usize| -> (usize, Duration, ShardStats) {
        let runtime = ShardRuntime::new(pass_jobs, Arc::default());
        let driver = RuntimeSweepDriver::new(runtime.clone());
        let timed = runtime.run_cases(1, |_, arena| {
            let case = SourceCache::new(&sweep_src, sweep_tv.clone());
            std::hint::black_box(
                case.verify_with_driver(&sweep_src, arena, &driver, shard_size).is_correct(),
            );
            timed_sweeps(&case, || {
                std::hint::black_box(
                    case.verify_with_driver(&sweep_src, arena, &driver, shard_size).is_correct(),
                );
            })
        });
        let (sweeps, wall) = timed[0];
        (sweeps, wall, runtime.stats())
    };

    let mut reference = Tally::default();
    let mut serial = Tally::default();
    let mut parallel = Tally::default();
    measure_rounds("bench-exec", MIN_TIME * 3, || {
        let (reference_sweeps, reference_wall) = reference.add(reference_pass());
        let (serial_sweeps, serial_wall) = serial.add(sharded_pass(1));
        let (parallel_sweeps, parallel_wall) = parallel.add(sharded_pass(parallel_jobs));
        (
            reference_sweeps.min(serial_sweeps).min(parallel_sweeps) * inputs,
            reference_wall + serial_wall + parallel_wall,
        )
    })?;

    let ratio = |fast: f64, slow: f64| if slow > 0.0 { fast / slow } else { 0.0 };
    // The counters come from the parallel runs only — the serial runs would
    // double-count `executed` without ever being able to steal.
    let shards = parallel.shards;

    let entry = results::ExecEntry {
        sweep_reference_per_second: reference.per_second(),
        sweep_serial_per_second: serial.per_second(),
        sweep_overhead_ratio: ratio(serial.per_second(), reference.per_second()),
        sweep_parallel_per_second: parallel.per_second(),
        sweep_speedup: ratio(parallel.per_second(), serial.per_second()),
        shards_executed: shards.executed,
        shards_stolen: shards.stolen,
        shard_cancellations: shards.cancellations,
        jobs: parallel_jobs,
        shard_size,
    };
    let mut text = format!(
        "Sharded-execution throughput: one {inputs}-input survivor sweep (shard size {shard_size}, jobs {parallel_jobs})\n"
    );
    let _ = writeln!(
        text,
        "  input sweep   serial walk: {:>7.1} sweeps/s   sharded @1: {:>7.1} (overhead {:.2}x)   sharded @{parallel_jobs}: {:>7.1} (speedup {:.2}x)",
        entry.sweep_reference_per_second,
        entry.sweep_serial_per_second,
        entry.sweep_overhead_ratio,
        entry.sweep_parallel_per_second,
        entry.sweep_speedup
    );
    let evals = (reference.sweeps + serial.sweeps + parallel.sweeps) * inputs;
    let _ = writeln!(text, "  timed target evaluations: {evals}");
    let _ = writeln!(
        text,
        "  [shards] executed: {}  stolen: {}  cancelled: {}  (parallel runs; scheduling-dependent)",
        entry.shards_executed, entry.shards_stolen, entry.shard_cancellations
    );
    Ok(ExecBenchRun { text, entry })
}

/// Renders Figure 5 (see [`figure5_experiment`]).
pub fn figure5(run: &RunOptions) -> TableRun {
    let (points, stats) = figure5_experiment(run);
    let mut out = String::from("Figure 5: geometric-mean speedup on the SPEC-like suite (1.00x = baseline)\n");
    for p in &points {
        let bar = "#".repeat(((p.speedup - 0.90).max(0.0) * 200.0) as usize);
        let _ = writeln!(out, "{:<14} {:>6.3}x {}", p.label, p.speedup, bar);
    }
    out.push_str(&footer(&stats));
    TableRun { text: out, stats }
}

/// One `repro bench-serve` outcome.
pub struct ServeBenchRun {
    /// Human-readable report.
    pub text: String,
    /// The numbers (protocol throughput, warm-vs-cold, cache-hit rates).
    pub entry: results::ServeEntry,
}

/// Measures the serving shell end to end: a real [`lpo_serve`] server on a
/// loopback socket with an in-memory store, driven through the wire protocol
/// by [`lpo_serve::client::ServeClient`]. One cold rq1 submission against
/// the empty store is timed, then warm resubmissions of the same corpus run
/// until the measurement window fills — each answered almost entirely from
/// the shared verdict store, which is what the serving mode exists for.
///
/// This is the workload behind `repro bench-serve` and the CI `serve-smoke`
/// gate. The cache-hit rates come from store counter deltas, not timings, so
/// they are exact: the `serve.cache_hit_rate` gate is an `exact_floor`.
pub fn bench_serve(exec: &ExecConfig) -> Result<ServeBenchRun, String> {
    use lpo_serve::prelude::{ServeClient, ServeConfig, Server, SubmitOptions};

    /// Minimum time spent on warm submissions.
    const MIN_TIME: Duration = Duration::from_millis(900);

    let store = Arc::new(VerdictStore::in_memory());
    let config = ServeConfig { jobs: exec.jobs, shard_size: exec.shard_size, ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", config, store).expect("bind loopback server");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let session_start = Instant::now();
    let mut client = ServeClient::connect(&addr).expect("connect to loopback server");
    let mut requests = 0usize;

    let hit_rate = |outcome: &lpo_serve::client::JobOutcome| {
        outcome
            .done()
            .get("cache_hit_rate")
            .and_then(lpo_serve::json::Json::as_num)
            .unwrap_or(0.0)
    };
    let submit = SubmitOptions::corpus("rq1");

    let cold_start = Instant::now();
    let cold = client.submit(&submit).expect("cold submission");
    let cold_seconds = cold_start.elapsed().as_secs_f64();
    requests += 1;
    let cases = cold.cases().len();
    let cold_cache_hit_rate = hit_rate(&cold);

    let mut warm_jobs = 0usize;
    let mut warm_wall = Duration::ZERO;
    let mut warm_hit_rate_sum = 0.0;
    let warm = measure_rounds("bench-serve", MIN_TIME, || {
        let pass_start = Instant::now();
        let warm = client.submit(&submit).expect("warm submission");
        let wall = pass_start.elapsed();
        warm_wall += wall;
        requests += 1;
        warm_jobs += 1;
        warm_hit_rate_sum += hit_rate(&warm);
        (warm.cases().len(), wall)
    });
    let cache_hit_rate = warm_hit_rate_sum / warm_jobs as f64;
    let warm_jobs_per_second =
        if warm_wall.as_secs_f64() > 0.0 { warm_jobs as f64 / warm_wall.as_secs_f64() } else { 0.0 };

    let stats = client.stats().expect("stats round-trip");
    requests += 1;
    let reported_jobs =
        stats.get("jobs").and_then(lpo_serve::json::Json::as_num).unwrap_or(0.0) as usize;
    client.shutdown().expect("shutdown round-trip");
    requests += 1;
    let session_seconds = session_start.elapsed().as_secs_f64();
    server_thread.join().expect("server thread").expect("server run");
    // Only now, with the server shut down, may a failed measurement return.
    warm?;

    let entry = results::ServeEntry {
        requests_per_second: if session_seconds > 0.0 { requests as f64 / session_seconds } else { 0.0 },
        cold_seconds,
        warm_jobs_per_second,
        warm_speedup: warm_jobs_per_second * cold_seconds,
        cold_cache_hit_rate,
        cache_hit_rate,
        cases,
        warm_jobs,
        requests,
        jobs: reported_jobs,
    };
    let mut text = format!(
        "Serving-shell throughput: rq1 over the wire protocol on a loopback socket (jobs {})\n",
        exec.jobs
    );
    let _ = writeln!(
        text,
        "  cold submission: {:>6.2}s for {} cases (store hit rate {:.2})",
        entry.cold_seconds, entry.cases, entry.cold_cache_hit_rate
    );
    let _ = writeln!(
        text,
        "  warm submissions: {:>6.2} jobs/s over {} jobs (store hit rate {:.2}, {:.1}x one cold job)",
        entry.warm_jobs_per_second, entry.warm_jobs, entry.cache_hit_rate, entry.warm_speedup
    );
    let _ = writeln!(
        text,
        "  session: {} requests at {:.2} req/s end to end",
        entry.requests, entry.requests_per_second
    );
    Ok(ServeBenchRun { text, entry })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_seven_models() {
        let t = table1();
        for name in ["Gemma3", "Llama3.3", "Gemini2.0", "Gemini2.0T", "GPT-4.1", "o4-mini", "Gemini2.5"] {
            assert!(t.contains(name), "missing {name}:\n{t}");
        }
    }

    #[test]
    fn rq1_shape_matches_the_paper() {
        // A scaled-down RQ1: 2 rounds, strongest vs weakest model. The *shape*
        // must hold: the reasoning model detects far more than Gemma3, Souper
        // lands in between, Minotaur detects only a few.
        let run = RunOptions { exec: ExecConfig::with_jobs(4), ..RunOptions::default() };
        let (result, _) = rq1_experiment(2, &[gemma3(), gemini2_0t()], &run);
        assert_eq!(result.rows.len(), 25);
        let weak = result.total_detected("Gemma3");
        let strong = result.total_detected("Gemini2.0T");
        let souper = result.souper_total();
        let minotaur = result.minotaur_total();
        assert!(strong > souper, "LPO with a reasoning model ({strong}) must beat Souper ({souper})");
        assert!(souper > minotaur, "Souper ({souper}) must beat Minotaur ({minotaur})");
        assert!(weak < strong, "Gemma3 ({weak}) must find fewer than Gemini2.0T ({strong})");
        assert!(strong >= 14, "the strong model should find most cases, found {strong}");
        assert!(weak <= 8, "Gemma3 should find only a handful, found {weak}");
        assert!((2..=6).contains(&minotaur), "Minotaur found {minotaur}");
        assert!((10..=20).contains(&souper), "Souper found {souper}");
        // LPO- is never better than LPO for the same model.
        assert!(result.total_detected_minus("Gemini2.0T") <= strong);
    }

    #[test]
    fn shared_souper_search_matches_per_level_runs() {
        // The single `Enum = 2` search with `found_at_depth` must reach
        // exactly the conclusions the old per-level re-runs did, for every
        // corpus case. (Sample rq1 fully and every fourth rq2 case to keep
        // debug-mode time in check; the drivers' own shape tests cover the
        // aggregate counts.)
        let per_level = |case: &IssueCase, depth: u32| -> bool {
            let mut config = SouperConfig::with_enum(depth);
            config.candidate_budget = 1500;
            souper_batch(std::slice::from_ref(&case.function), &config, 1)[0].found()
        };
        for case in rq1_suite().iter().chain(rq2_suite().iter().step_by(4)) {
            let (shared_default, shared_enum) = souper_detects_shared(case);
            assert_eq!(shared_default, per_level(case, 0), "issue {} depth 0", case.issue_id);
            assert_eq!(
                shared_enum,
                (1..=2).any(|d| per_level(case, d)),
                "issue {} enum",
                case.issue_id
            );
        }
    }

    #[test]
    fn rq2_baselines_miss_most_found_optimizations() {
        let run = RunOptions { exec: ExecConfig::with_jobs(4), ..RunOptions::default() };
        let (result, _) = rq2_experiment(&run);
        assert_eq!(result.rows.len(), 62);
        let (d, e, m) = result.baseline_counts();
        assert!(d < e, "Souper-Default ({d}) must find fewer than Souper-Enum ({e})");
        assert!(e < 31, "Souper-Enum must miss at least half of the 62 ({e})");
        assert!(m < 20, "Minotaur must miss most of the 62 ({m})");
        assert!(d <= 10);
        let counts = result.status_counts();
        assert_eq!(counts["Confirmed"], 28);
        assert_eq!(counts["Fixed"], 13);
    }

    #[test]
    fn table_bodies_survive_a_store_and_a_resume() {
        // Each checkpointing driver runs storeless, on a fresh store and
        // resumed on that store: the table bodies (everything but the `[…]`
        // footers) must agree, and the resumed run must replay. Table 5's
        // last column measures compile time, so only its file and project
        // counts are compared.
        fn body(text: &str, measured_last_column: bool) -> Vec<&str> {
            text.lines()
                .filter(|line| !line.starts_with('['))
                .map(|line| match line.trim_end().rsplit_once(' ') {
                    Some((counts, _)) if measured_last_column => counts.trim_end(),
                    _ => line,
                })
                .collect()
        }
        let dir = std::env::temp_dir().join(format!("lpo-bench-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let models = [gemma3(), gemini2_0t()];
        let driver = |name: &str, run: &RunOptions| match name {
            "table2" => table2(1, &models, run),
            "table3" => table3(run),
            "table4" => table4(20, run),
            _ => table5(run),
        };
        for name in ["table2", "table3", "table4", "table5"] {
            let path = dir.join(name);
            let run = |store: Option<&std::path::Path>, resume| RunOptions {
                exec: ExecConfig::with_jobs(2),
                store: store.map(|path| Arc::new(VerdictStore::open(path).unwrap())),
                resume,
            };
            let storeless = driver(name, &run(None, false));
            let fresh = driver(name, &run(Some(&path), false));
            let resumed = driver(name, &run(Some(&path), true));
            let table5 = name == "table5";
            let expected = body(&storeless.text, table5);
            assert_eq!(body(&fresh.text, table5), expected, "{name}: fresh store");
            assert_eq!(body(&resumed.text, table5), expected, "{name}: resumed");
            assert_eq!(fresh.stats.resumed_cases, 0, "{name}: nothing to replay yet");
            // A fully resumed run replays every unique case, counted in the
            // unit of the `[engine]` line, and its footer says so.
            let stats = &resumed.stats;
            assert!(stats.resumed_cases > 0, "{name}: the resumed run replayed nothing");
            assert_eq!(stats.unique_cases, stats.cases - stats.cache_hits, "{name}: unique cases");
            assert_eq!(stats.resumed_cases, stats.unique_cases, "{name}: every case replays");
            let line = format!("resumed cases: {0} of {0}\n", stats.unique_cases);
            assert!(resumed.text.contains(&line), "{name}: footer lacks {line:?} in\n{}", resumed.text);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn figure5_speedups_are_within_noise() {
        let run = RunOptions { exec: ExecConfig::with_jobs(2), ..RunOptions::default() };
        let (points, _) = figure5_experiment(&run);
        assert_eq!(points.len(), 10);
        for p in &points {
            assert!(
                p.speedup > 0.97 && p.speedup < 1.10,
                "{} speedup {:.3} outside the paper's ±few-percent band",
                p.label,
                p.speedup
            );
            assert!(p.speedup >= 0.999, "patches must never slow the estimate down: {} {:.3}", p.label, p.speedup);
        }
    }
}
