//! Persistent benchmark results and their gates: the `BENCH_results.json`
//! model and the `BENCH_baseline.json` checker.
//!
//! The `repro` binary used to overwrite `BENCH_results.json` with only the
//! tables of the current invocation, so running `repro table2` after
//! `repro all` erased everything but table2 and the perf trajectory never
//! accumulated. This module makes the file a *merged* store:
//!
//! * `tables` holds the **latest** entry per table name (merged by name);
//! * each named section (`interp`, `opt`, `tv`, `exec`, `serve`) holds the
//!   latest run of one microbenchmark (`repro bench-interp` …
//!   `bench-serve`);
//! * `runs` is the recent history — one record per `repro` invocation
//!   with the entries that invocation produced, capped at the newest
//!   [`RUN_HISTORY`] records — so the recent trajectory is preserved
//!   without the file growing without bound.
//!
//! The typed entries ([`TableEntry`], [`InterpEntry`], …) only write JSON;
//! [`BenchResults`] merges the file as parsed [`Json`], since the program
//! wrote every entry itself. [`check_gates`] reads each `--check-baseline`
//! gate's measurement from the same section object, so a new gate is a
//! record in `BENCH_baseline.json` and needs no code.
//!
//! The workspace has no serde; [`Json`] is the small hand-rolled
//! reader/writer that used to live here and moved to `lpo-serve`, where the
//! wire protocol shares it. It is re-exported from its old path.

pub use lpo_serve::json::Json;

/// One per-table entry (the latest run's numbers for that table).
#[derive(Clone, Debug, PartialEq)]
pub struct TableEntry {
    /// The table/driver name (`table2` … `figure5`).
    pub name: String,
    /// Wall-clock seconds of the whole driver.
    pub wall_seconds: f64,
    /// Work items processed.
    pub cases: usize,
    /// Work items per second.
    pub cases_per_second: f64,
    /// Dedup-cache replays.
    pub cache_hits: usize,
    /// Cases that ended `Failed` (session errors / contained panics). Zero on
    /// every healthy run; nonzero values flag fault-injection or live-model
    /// trouble in the recorded history.
    pub failed: usize,
    /// Unique cases replayed from a checkpoint store (`--resume`).
    pub resumed: usize,
    /// Worker threads used.
    pub jobs: usize,
}

impl TableEntry {
    /// The entry as its `BENCH_results.json` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("wall_seconds".into(), Json::Num(self.wall_seconds)),
            ("cases".into(), Json::Num(self.cases as f64)),
            ("cases_per_second".into(), Json::Num(self.cases_per_second)),
            ("cache_hits".into(), Json::Num(self.cache_hits as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("resumed".into(), Json::Num(self.resumed as f64)),
            ("jobs".into(), Json::Num(self.jobs as f64)),
        ])
    }
}

/// The interpreter microbenchmark section (`repro bench-interp`).
#[derive(Clone, Debug, PartialEq)]
pub struct InterpEntry {
    /// Concrete evaluations per second on the register-file evaluator.
    pub evals_per_second: f64,
    /// Executed instructions per second on the register-file evaluator.
    pub steps_per_second: f64,
    /// Evaluations per second on the pre-change reference evaluator.
    pub reference_evals_per_second: f64,
    /// `evals_per_second / reference_evals_per_second`.
    pub speedup: f64,
    /// Functions evaluated (the rq1 suite).
    pub cases: usize,
    /// Total evaluations per pass (Σ inputs over cases × repeats).
    pub evals: usize,
    /// Worker threads used.
    pub jobs: usize,
}

impl InterpEntry {
    /// The entry as its `BENCH_results.json` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("evals_per_second".into(), Json::Num(self.evals_per_second)),
            ("steps_per_second".into(), Json::Num(self.steps_per_second)),
            ("reference_evals_per_second".into(), Json::Num(self.reference_evals_per_second)),
            ("speedup".into(), Json::Num(self.speedup)),
            ("cases".into(), Json::Num(self.cases as f64)),
            ("evals".into(), Json::Num(self.evals as f64)),
            ("jobs".into(), Json::Num(self.jobs as f64)),
        ])
    }
}

/// The canonicalization microbenchmark section (`repro bench-opt`).
#[derive(Clone, Debug, PartialEq)]
pub struct OptEntry {
    /// Module-scale canonicalizations per second on the worklist engine.
    pub canon_per_second: f64,
    /// Module-scale canonicalizations per second on the rescan reference.
    pub reference_canon_per_second: f64,
    /// `canon_per_second / reference_canon_per_second`.
    pub speedup: f64,
    /// Per-candidate-scale (raw rq1 case) canonicalizations per second.
    pub case_canon_per_second: f64,
    /// Per-candidate-scale reference canonicalizations per second.
    pub case_reference_canon_per_second: f64,
    /// `case_canon_per_second / case_reference_canon_per_second`.
    pub case_speedup: f64,
    /// rq1 cases feeding the workload.
    pub cases: usize,
    /// Module-scale functions composed from them.
    pub functions: usize,
    /// Worker threads used.
    pub jobs: usize,
}

impl OptEntry {
    /// The entry as its `BENCH_results.json` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("canon_per_second".into(), Json::Num(self.canon_per_second)),
            ("reference_canon_per_second".into(), Json::Num(self.reference_canon_per_second)),
            ("speedup".into(), Json::Num(self.speedup)),
            ("case_canon_per_second".into(), Json::Num(self.case_canon_per_second)),
            (
                "case_reference_canon_per_second".into(),
                Json::Num(self.case_reference_canon_per_second),
            ),
            ("case_speedup".into(), Json::Num(self.case_speedup)),
            ("cases".into(), Json::Num(self.cases as f64)),
            ("functions".into(), Json::Num(self.functions as f64)),
            ("jobs".into(), Json::Num(self.jobs as f64)),
        ])
    }
}

/// The translation-validation microbenchmark section (`repro bench-tv`).
///
/// `refuted_*` measures the dominant real-world shape — a wrong candidate
/// refuted on its earliest concrete input — where the staged checker's probe
/// avoids `CompiledFunction::compile` entirely; `survivor_*` measures the
/// full-input-sweep cost every accepted candidate pays, where the plane
/// tier's 256-lane sweep runs against the reference's serial compiled sweep
/// (an order-of-magnitude speedup on the plane-eligible rq1 cases).
#[derive(Clone, Debug, PartialEq)]
pub struct TvEntry {
    /// Refuted-candidate verifications per second on the staged checker.
    pub refuted_per_second: f64,
    /// Refuted-candidate verifications per second on the reference checker.
    pub reference_refuted_per_second: f64,
    /// `refuted_per_second / reference_refuted_per_second`.
    pub refuted_speedup: f64,
    /// Surviving-candidate verifications per second on the staged checker.
    pub survivor_per_second: f64,
    /// Surviving-candidate verifications per second on the reference checker.
    pub reference_survivor_per_second: f64,
    /// `survivor_per_second / reference_survivor_per_second`.
    pub survivor_speedup: f64,
    /// Surviving-candidate verifications per second on a fresh case each
    /// (input generation and the source sweep included), on the sharded
    /// staged checker — the cost of a case's first survivor.
    pub cold_survivor_per_second: f64,
    /// The same cold verifications on the reference checker.
    pub reference_cold_survivor_per_second: f64,
    /// `cold_survivor_per_second / reference_cold_survivor_per_second`.
    pub cold_survivor_speedup: f64,
    /// rq1 cases in the workload (scalar-int returns only).
    pub cases: usize,
    /// Workload cases whose compiled form carries a plane plan — i.e. how
    /// many survivor sweeps ran on the type-specialized plane tier.
    pub plane_cases: usize,
    /// Worker threads used.
    pub jobs: usize,
}

impl TvEntry {
    /// The entry as its `BENCH_results.json` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("refuted_per_second".into(), Json::Num(self.refuted_per_second)),
            (
                "reference_refuted_per_second".into(),
                Json::Num(self.reference_refuted_per_second),
            ),
            ("refuted_speedup".into(), Json::Num(self.refuted_speedup)),
            ("survivor_per_second".into(), Json::Num(self.survivor_per_second)),
            (
                "reference_survivor_per_second".into(),
                Json::Num(self.reference_survivor_per_second),
            ),
            ("survivor_speedup".into(), Json::Num(self.survivor_speedup)),
            ("cold_survivor_per_second".into(), Json::Num(self.cold_survivor_per_second)),
            (
                "reference_cold_survivor_per_second".into(),
                Json::Num(self.reference_cold_survivor_per_second),
            ),
            ("cold_survivor_speedup".into(), Json::Num(self.cold_survivor_speedup)),
            ("cases".into(), Json::Num(self.cases as f64)),
            ("plane_cases".into(), Json::Num(self.plane_cases as f64)),
            ("jobs".into(), Json::Num(self.jobs as f64)),
        ])
    }
}

/// The sharded-execution microbenchmark section (`repro bench-exec`).
///
/// `sweep_*` measures one survivor case whose input sweep is split into
/// shards (the single-case scaling the shard engine exists for). The
/// reference is the serial `SourceCache::verify_with` walk, `serial` is the
/// sharded walk at one worker (the overhead the sharding machinery itself
/// costs), and `parallel` is the sharded walk at [`ExecEntry::jobs`]
/// workers. The shard counters are scheduling-dependent (especially
/// `shards_stolen`) — report them, never compare them across runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecEntry {
    /// Survivor sweeps per second, `verify_with` (one `SerialDriver` shard).
    pub sweep_reference_per_second: f64,
    /// Survivor sweeps per second, sharded engine, one worker.
    pub sweep_serial_per_second: f64,
    /// `sweep_serial / sweep_reference` — sharding overhead at one worker
    /// (machine-independent; ≈1.0 means the shard machinery is free).
    pub sweep_overhead_ratio: f64,
    /// Survivor sweeps per second, sharded engine, `jobs` workers.
    pub sweep_parallel_per_second: f64,
    /// `sweep_parallel / sweep_serial` — single-case scaling at `jobs`.
    pub sweep_speedup: f64,
    /// Shards executed across the parallel runs.
    pub shards_executed: usize,
    /// Shards executed by a worker other than the case's owner.
    pub shards_stolen: usize,
    /// Shards skipped because an earlier shard already refuted.
    pub shard_cancellations: usize,
    /// Worker threads of the parallel measurements.
    pub jobs: usize,
    /// Inputs per shard.
    pub shard_size: usize,
}

impl ExecEntry {
    /// The entry as its `BENCH_results.json` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sweep_reference_per_second".into(), Json::Num(self.sweep_reference_per_second)),
            ("sweep_serial_per_second".into(), Json::Num(self.sweep_serial_per_second)),
            ("sweep_overhead_ratio".into(), Json::Num(self.sweep_overhead_ratio)),
            ("sweep_parallel_per_second".into(), Json::Num(self.sweep_parallel_per_second)),
            ("sweep_speedup".into(), Json::Num(self.sweep_speedup)),
            ("shards_executed".into(), Json::Num(self.shards_executed as f64)),
            ("shards_stolen".into(), Json::Num(self.shards_stolen as f64)),
            ("shard_cancellations".into(), Json::Num(self.shard_cancellations as f64)),
            ("jobs".into(), Json::Num(self.jobs as f64)),
            ("shard_size".into(), Json::Num(self.shard_size as f64)),
        ])
    }
}

/// The serving-shell benchmark section (`repro bench-serve`).
///
/// A real server on a loopback socket, measured end to end through the wire
/// protocol: one cold submission of the rq1 corpus against an empty store,
/// then warm resubmissions answered from the shared verdict store until the
/// measurement window fills. `warm_speedup` is warm jobs-per-second times
/// cold seconds-per-job — machine-independent, like the other speedup
/// ratios. The cache-hit rates are exact (counter deltas, not timings):
/// cold ≈ 0 by construction, warm = 1.0 when every Stage-3 verdict replays.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeEntry {
    /// Protocol round-trips per second over the whole scripted session.
    pub requests_per_second: f64,
    /// Wall-clock seconds of the cold (empty-store) submission.
    pub cold_seconds: f64,
    /// Warm submissions of the same corpus per second.
    pub warm_jobs_per_second: f64,
    /// `warm_jobs_per_second * cold_seconds` — how many warm jobs fit in
    /// one cold job's time (machine-independent).
    pub warm_speedup: f64,
    /// Verdict-store hit rate of the cold submission.
    pub cold_cache_hit_rate: f64,
    /// Verdict-store hit rate across the warm submissions.
    pub cache_hit_rate: f64,
    /// Cases per submission.
    pub cases: usize,
    /// Warm submissions measured.
    pub warm_jobs: usize,
    /// Protocol requests issued by the session.
    pub requests: usize,
    /// Worker threads of the server.
    pub jobs: usize,
}

impl ServeEntry {
    /// The entry as its `BENCH_results.json` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("requests_per_second".into(), Json::Num(self.requests_per_second)),
            ("cold_seconds".into(), Json::Num(self.cold_seconds)),
            ("warm_jobs_per_second".into(), Json::Num(self.warm_jobs_per_second)),
            ("warm_speedup".into(), Json::Num(self.warm_speedup)),
            ("cold_cache_hit_rate".into(), Json::Num(self.cold_cache_hit_rate)),
            ("cache_hit_rate".into(), Json::Num(self.cache_hit_rate)),
            ("cases".into(), Json::Num(self.cases as f64)),
            ("warm_jobs".into(), Json::Num(self.warm_jobs as f64)),
            ("requests".into(), Json::Num(self.requests as f64)),
            ("jobs".into(), Json::Num(self.jobs as f64)),
        ])
    }
}

/// The measurements one `repro` invocation produced — the unit
/// [`BenchResults::record`] merges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunEntries {
    /// Table drivers this invocation ran.
    pub tables: Vec<TableEntry>,
    /// Microbenchmark sections this invocation ran, each its name and its
    /// entry's `to_json()` (e.g. `("tv", TvEntry::to_json)`).
    pub sections: Vec<(String, Json)>,
}

impl RunEntries {
    /// Whether the invocation produced anything worth persisting.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.sections.is_empty()
    }
}

/// The whole `BENCH_results.json` store, kept as parsed JSON: the program
/// writes every entry itself, so merging needs no typed reader.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchResults {
    /// Latest entry per table name, in first-recorded order.
    pub tables: Vec<Json>,
    /// Latest object per section name, in first-recorded order.
    pub sections: Vec<(String, Json)>,
    /// Invocation history, oldest first, at most [`RUN_HISTORY`] records.
    pub runs: Vec<Json>,
}

/// The schema version written by this build.
pub const SCHEMA: usize = 2;

/// How many of the newest `runs` records the store keeps.
pub const RUN_HISTORY: usize = 20;

impl BenchResults {
    /// Loads the store from `path`. A missing, unparsable or
    /// unknown-schema file yields an empty store (the history restarts
    /// rather than blocking the benchmark run, and a future-schema file is
    /// not silently half-parsed); a legacy schema-1 file contributes its
    /// tables. Every other object-valued top-level key is a section; a
    /// table without a string `name` or a run without a numeric `run` is
    /// dropped.
    pub fn load(path: &str) -> BenchResults {
        let Ok(text) = std::fs::read_to_string(path) else {
            return BenchResults::default();
        };
        let Ok(Json::Obj(fields)) = Json::parse(&text) else {
            return BenchResults::default();
        };
        let schema = fields.iter().find(|(key, _)| key == "schema").and_then(|(_, v)| v.as_num());
        if schema != Some(1.0) && schema != Some(SCHEMA as f64) {
            return BenchResults::default();
        }
        let named = |table: &Json| table.get("name").and_then(Json::as_str).is_some();
        let numbered = |run: &Json| run.get("run").and_then(Json::as_num).is_some();
        let mut results = BenchResults::default();
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("tables", Json::Arr(tables)) => {
                    results.tables = tables.into_iter().filter(named).collect();
                }
                ("runs", Json::Arr(runs)) => {
                    results.runs = runs.into_iter().filter(numbered).collect();
                }
                ("schema" | "tables" | "runs", _) => {}
                (_, section @ Json::Obj(_)) => results.sections.push((key, section)),
                _ => {}
            }
        }
        results
    }

    /// Merges one invocation into the store: per-table entries replace the
    /// previous entry of the same name, each section replaces the previous
    /// one of the same name, and the invocation is appended to `runs` with
    /// the next run index; records beyond the newest [`RUN_HISTORY`] are
    /// dropped.
    pub fn record(&mut self, command: &str, jobs_requested: usize, entries: RunEntries) {
        let tables: Vec<Json> = entries.tables.iter().map(TableEntry::to_json).collect();
        for table in &tables {
            match self.tables.iter_mut().find(|t| t.get("name") == table.get("name")) {
                Some(slot) => *slot = table.clone(),
                None => self.tables.push(table.clone()),
            }
        }
        for (name, section) in &entries.sections {
            match self.sections.iter_mut().find(|(key, _)| key == name) {
                Some((_, slot)) => *slot = section.clone(),
                None => self.sections.push((name.clone(), section.clone())),
            }
        }
        let last = self.runs.last().and_then(|r| r.get("run")).and_then(Json::as_num);
        let mut record = vec![
            ("run".into(), Json::Num(last.unwrap_or(0.0) + 1.0)),
            ("command".into(), Json::Str(command.to_string())),
            ("jobs_requested".into(), Json::Num(jobs_requested as f64)),
            ("tables".into(), Json::Arr(tables)),
        ];
        record.extend(entries.sections);
        self.runs.push(Json::Obj(record));
        let excess = self.runs.len().saturating_sub(RUN_HISTORY);
        self.runs.drain(..excess);
    }

    /// Serializes the store.
    pub fn render(&self) -> String {
        let mut fields = vec![
            ("schema".into(), Json::Num(SCHEMA as f64)),
            ("tables".into(), Json::Arr(self.tables.clone())),
        ];
        fields.extend(self.sections.iter().cloned());
        fields.push(("runs".into(), Json::Arr(self.runs.clone())));
        Json::Obj(fields).render()
    }

    /// Loads, merges and writes back in one step.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message if the file cannot be written.
    pub fn merge_into_file(
        path: &str,
        command: &str,
        jobs_requested: usize,
        entries: RunEntries,
    ) -> Result<BenchResults, String> {
        let mut results = BenchResults::load(path);
        results.record(command, jobs_requested, entries);
        std::fs::write(path, results.render()).map_err(|e| e.to_string())?;
        Ok(results)
    }
}

/// Allowed relative regression below a `throughput` or `scaling` gate's
/// baseline. A gate's kind fixes its tolerance (`exact_floor` has none), so
/// tolerance is not a field of the gate records.
const REGRESSION_TOLERANCE: f64 = 0.30;

/// The keys a `BENCH_baseline.json` gate record may carry.
const GATE_KEYS: [&str; 6] =
    ["metric", "kind", "baseline", "fallback", "fallback_baseline", "comment"];

/// How a gate compares its measurement with its baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
enum GateKind {
    /// A timing: passes at ≥ 70% of the baseline or, with a fallback, when
    /// the same run's machine-independent fallback metric is ≥ 70% of its
    /// own baseline (the "slower host" pass).
    Throughput,
    /// A deterministic count or ratio: the baseline itself is the floor.
    ExactFloor,
    /// A parallel speedup: checked like `Throughput` without a fallback, and
    /// skipped unless the section ran at `jobs` ≥ 4 on a host with ≥ 4 cores.
    Scaling,
}

/// One gate record of `BENCH_baseline.json`.
#[derive(Debug)]
struct Gate {
    /// `<section>.<field>` of the measurement.
    metric: String,
    kind: GateKind,
    baseline: f64,
    /// `<section>.<field>` of the slower-host fallback, and its baseline.
    fallback: Option<(String, f64)>,
}

impl Gate {
    fn parse(record: &Json) -> Result<Gate, String> {
        let Json::Obj(fields) = record else {
            return Err(format!("gate record is not an object: {}", record.render_compact()));
        };
        if let Some((key, _)) = fields.iter().find(|(key, _)| !GATE_KEYS.contains(&key.as_str())) {
            return Err(format!("gate record has unknown key '{key}'"));
        }
        let path = |key: &str| record.get(key).and_then(Json::as_str).filter(|p| p.contains('.'));
        let number = |key: &str| record.get(key).and_then(Json::as_num);
        let metric = path("metric").ok_or("gate record needs \"metric\": \"<section>.<field>\"")?;
        let kind = match record.get("kind").and_then(Json::as_str) {
            Some("throughput") => GateKind::Throughput,
            Some("exact_floor") => GateKind::ExactFloor,
            Some("scaling") => GateKind::Scaling,
            other => {
                return Err(format!(
                    "gate {metric}: unknown kind {other:?} (expected throughput, exact_floor or scaling)"
                ))
            }
        };
        let baseline = number("baseline")
            .ok_or_else(|| format!("gate {metric}: needs a numeric \"baseline\""))?;
        let fallback = match (record.get("fallback"), record.get("fallback_baseline")) {
            (None, None) => None,
            _ => match (path("fallback"), number("fallback_baseline")) {
                (Some(fallback), Some(value)) if kind == GateKind::Throughput => {
                    Some((fallback.to_string(), value))
                }
                _ => {
                    return Err(format!(
                        "gate {metric}: a fallback needs \"fallback\": \"<section>.<field>\" and a \
                         numeric \"fallback_baseline\", on a throughput gate"
                    ))
                }
            },
        };
        Ok(Gate { metric: metric.to_string(), kind, baseline, fallback })
    }

    fn section(&self) -> &str {
        self.metric.split_once('.').map_or("", |(section, _)| section)
    }

    /// The gate's line: `Ok` when it passes or is skipped, `Err` when it
    /// fails. A metric the run's section does not carry is a failure.
    fn check(&self, sections: &[(String, Json)], cores: usize) -> Result<String, String> {
        let measured = |path: &str| {
            let (section, field) = path.split_once('.').unwrap_or_default();
            sections
                .iter()
                .find(|(name, _)| name == section)
                .and_then(|(_, json)| json.get(field))
                .and_then(Json::as_num)
                .ok_or_else(|| format!("failed: {}, this run did not measure {path}", self.metric))
        };
        let value = measured(&self.metric)?;
        if self.kind == GateKind::Scaling {
            let jobs = measured(&format!("{}.jobs", self.section()))?;
            if jobs < 4.0 || cores < 4 {
                return Ok(format!(
                    "skipped: {} at jobs {jobs} on a {cores}-core host (needs >= 4 of each)",
                    self.metric
                ));
            }
        }
        let describe = |path: &str, value: f64, baseline: f64, floor: f64| {
            format!("{path} {} vs baseline {} (floor {})", num(value), num(baseline), num(floor))
        };
        let floor = match self.kind {
            GateKind::ExactFloor => self.baseline,
            _ => self.baseline * (1.0 - REGRESSION_TOLERANCE),
        };
        let primary = describe(&self.metric, value, self.baseline, floor);
        if value >= floor {
            return Ok(format!("ok: {primary}"));
        }
        let Some((fallback, fallback_baseline)) = &self.fallback else {
            return Err(format!("regressed: {primary}"));
        };
        let fallback_value = measured(fallback)?;
        let fallback_floor = fallback_baseline * (1.0 - REGRESSION_TOLERANCE);
        let secondary = describe(fallback, fallback_value, *fallback_baseline, fallback_floor);
        if fallback_value >= fallback_floor {
            Ok(format!("ok (slower host): {primary}, but {secondary}"))
        } else {
            Err(format!("regressed: {primary}, and {secondary}"))
        }
    }
}

/// A gate line's number: whole above 100, two decimals below.
fn num(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// Checks the gates of a parsed `BENCH_baseline.json` against the sections
/// this run produced (each its name and `to_json()` object) on a host with
/// `cores` cores. Only records whose section is among `sections` are
/// checked; each yields one line, `Ok` when it passes (or a `scaling` gate
/// is skipped) and `Err` when it fails.
///
/// A slower-host pass is only as good as its fallback: a regression in code
/// *shared* by the measured and reference implementations slows both
/// proportionally, so only the absolute floor catches it, and only on
/// hardware comparable to the baseline host.
///
/// # Errors
///
/// A baseline without a `gates` array, or with a record that is malformed,
/// has an unknown kind or key, or pairs a fallback with a non-throughput
/// kind.
pub fn check_gates(
    baseline: &Json,
    sections: &[(String, Json)],
    cores: usize,
) -> Result<Vec<Result<String, String>>, String> {
    let records =
        baseline.get("gates").and_then(Json::as_arr).ok_or("baseline has no \"gates\" array")?;
    let gates = records.iter().map(Gate::parse).collect::<Result<Vec<_>, _>>()?;
    Ok(gates
        .iter()
        .filter(|gate| sections.iter().any(|(name, _)| name == gate.section()))
        .map(|gate| gate.check(sections, cores))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str, cps: f64) -> TableEntry {
        TableEntry {
            name: name.to_string(),
            wall_seconds: 1.0,
            cases: 10,
            cases_per_second: cps,
            cache_hits: 0,
            failed: 0,
            resumed: 0,
            jobs: 1,
        }
    }

    /// One filled entry per microbenchmark section, as `repro` names them.
    fn sample_sections() -> Vec<(String, Json)> {
        let interp = InterpEntry {
            evals_per_second: 1e6,
            steps_per_second: 5e6,
            reference_evals_per_second: 2e5,
            speedup: 5.0,
            cases: 25,
            evals: 100_000,
            jobs: 1,
        };
        let opt = OptEntry {
            canon_per_second: 41_000.0,
            reference_canon_per_second: 12_000.0,
            speedup: 3.4,
            case_canon_per_second: 90_000.0,
            case_reference_canon_per_second: 60_000.0,
            case_speedup: 1.5,
            cases: 25,
            functions: 3,
            jobs: 1,
        };
        let tv = TvEntry {
            refuted_per_second: 5e5,
            reference_refuted_per_second: 1e5,
            refuted_speedup: 5.0,
            survivor_per_second: 900.0,
            reference_survivor_per_second: 720.0,
            survivor_speedup: 1.25,
            cold_survivor_per_second: 300.0,
            reference_cold_survivor_per_second: 150.0,
            cold_survivor_speedup: 2.0,
            cases: 20,
            plane_cases: 18,
            jobs: 1,
        };
        let exec = ExecEntry {
            sweep_reference_per_second: 210.0,
            sweep_serial_per_second: 205.0,
            sweep_overhead_ratio: 0.976,
            sweep_parallel_per_second: 640.0,
            sweep_speedup: 3.12,
            shards_executed: 4_096,
            shards_stolen: 1_201,
            shard_cancellations: 0,
            jobs: 4,
            shard_size: 256,
        };
        let serve = ServeEntry {
            requests_per_second: 420.0,
            cold_seconds: 0.4,
            warm_jobs_per_second: 40.0,
            warm_speedup: 16.0,
            cold_cache_hit_rate: 0.02,
            cache_hit_rate: 1.0,
            cases: 25,
            warm_jobs: 80,
            requests: 83,
            jobs: 4,
        };
        vec![
            ("interp".into(), interp.to_json()),
            ("opt".into(), opt.to_json()),
            ("tv".into(), tv.to_json()),
            ("exec".into(), exec.to_json()),
            ("serve".into(), serve.to_json()),
        ]
    }

    fn temp_file(name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join("lpo_results_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn merge_replaces_by_name_and_keeps_history() {
        let mut results = BenchResults::default();
        results.record(
            "all",
            4,
            RunEntries {
                tables: vec![table("table2", 5.0), table("table5", 7.0)],
                ..Default::default()
            },
        );
        results.record(
            "table2",
            1,
            RunEntries { tables: vec![table("table2", 9.0)], ..Default::default() },
        );

        assert_eq!(
            results.tables,
            vec![table("table2", 9.0).to_json(), table("table5", 7.0).to_json()]
        );
        assert_eq!(results.runs.len(), 2);
        assert_eq!(results.runs[0].get("run"), Some(&Json::Num(1.0)));
        assert_eq!(results.runs[1].get("run"), Some(&Json::Num(2.0)));
        assert_eq!(results.runs[1].get("command").and_then(Json::as_str), Some("table2"));
        let value = Json::parse(&results.render()).unwrap();
        assert_eq!(value.get("schema").unwrap().as_num(), Some(SCHEMA as f64));
    }

    #[test]
    fn history_keeps_the_newest_runs() {
        let mut results = BenchResults::default();
        for i in 0..RUN_HISTORY {
            results.record(&format!("run{i}"), 1, RunEntries::default());
        }
        assert_eq!(results.runs.len(), RUN_HISTORY);
        results.record("overflow", 1, RunEntries::default());
        let command = |run: &Json| run.get("command").and_then(Json::as_str).unwrap().to_string();
        let index = |run: &Json| run.get("run").and_then(Json::as_num).unwrap();
        assert_eq!(results.runs.len(), RUN_HISTORY, "the 21st run evicts the oldest");
        assert_eq!(command(&results.runs[0]), "run1");
        assert_eq!(command(results.runs.last().unwrap()), "overflow");
        assert_eq!(index(results.runs.last().unwrap()), (RUN_HISTORY + 1) as f64);
        assert!(
            results.runs.windows(2).all(|w| index(&w[0]) < index(&w[1])),
            "run indices keep increasing"
        );
    }

    #[test]
    fn load_accepts_legacy_schema_1_and_garbage() {
        let legacy = temp_file(
            "legacy.json",
            "{\n  \"schema\": 1,\n  \"jobs_requested\": 4,\n  \"tables\": [\n    {\"name\": \"table5\", \"wall_seconds\": 0.1, \"cases\": 15, \"cases_per_second\": 119.1, \"cache_hits\": 0, \"jobs\": 4}\n  ]\n}\n",
        );
        let results = BenchResults::load(&legacy);
        assert_eq!(results.tables.len(), 1);
        assert_eq!(results.tables[0].get("name").and_then(Json::as_str), Some("table5"));
        assert!(results.sections.is_empty(), "a top-level number is not a section");
        assert!(results.runs.is_empty());

        let garbage = temp_file("garbage.json", "not json");
        assert_eq!(BenchResults::load(&garbage), BenchResults::default());
        assert_eq!(BenchResults::load("/nonexistent/path.json"), BenchResults::default());

        // A future schema restarts the store instead of half-parsing it.
        let future = temp_file(
            "future.json",
            "{\n  \"schema\": 3,\n  \"tables\": [{\"name\": \"table5\", \"wall_seconds\": 1, \"cases\": 1, \"cases_per_second\": 1, \"cache_hits\": 0, \"jobs\": 1}]\n}\n",
        );
        assert_eq!(BenchResults::load(&future), BenchResults::default());
    }

    #[test]
    fn load_drops_unnamed_tables_and_unnumbered_runs() {
        let path = temp_file(
            "unnamed.json",
            r#"{"schema": 2,
                "tables": [{"name": "table2", "cases": 1}, {"cases": 2}, {"name": 3}],
                "runs": [{"run": 1, "command": "table2"}, {"command": "lost"}, {"run": "2"}]}"#,
        );
        let results = BenchResults::load(&path);
        assert_eq!(results.tables.len(), 1);
        assert_eq!(results.runs.len(), 1);
        assert_eq!(results.runs[0].get("command").and_then(Json::as_str), Some("table2"));
    }

    /// Records the sample entry of one section, then a tables-only run, and
    /// checks that the section survives both in the store and on reload.
    fn assert_section_round_trips(name: &str) {
        let entry = sample_sections().into_iter().find(|(n, _)| n == name).unwrap();
        let mut results = BenchResults::default();
        results.record(
            &format!("bench-{name}"),
            1,
            RunEntries { sections: vec![entry.clone()], ..Default::default() },
        );
        // A later tables-only run must not erase the section.
        results.record(
            "table2",
            1,
            RunEntries { tables: vec![table("table2", 9.0)], ..Default::default() },
        );
        let rendered = results.render();
        let value = Json::parse(&rendered).unwrap();
        assert_eq!(value.get(name), Some(&entry.1));
        assert_eq!(value.get("runs").unwrap().as_arr().unwrap()[0].get(name), Some(&entry.1));
        let reloaded = BenchResults::load(&temp_file(&format!("{name}_section.json"), &rendered));
        assert_eq!(reloaded.sections, vec![entry]);
        assert_eq!(reloaded.runs.len(), 2);
    }

    #[test]
    fn interp_section_round_trips() {
        assert_section_round_trips("interp");
    }

    #[test]
    fn exec_section_round_trips_and_merges() {
        assert_section_round_trips("exec");
    }

    #[test]
    fn tv_section_round_trips_and_merges() {
        assert_section_round_trips("tv");
    }

    #[test]
    fn every_section_round_trips_and_merges() {
        let sections = sample_sections();
        let mut results = BenchResults::default();
        results.record(
            "all",
            1,
            RunEntries { tables: vec![table("table2", 5.0)], sections: sections.clone() },
        );
        // A later tables-only run must not erase any section.
        results.record(
            "table2",
            1,
            RunEntries { tables: vec![table("table2", 9.0)], ..Default::default() },
        );
        let rendered = results.render();
        let reloaded = BenchResults::load(&temp_file("sections.json", &rendered));
        assert_eq!(reloaded, results);
        assert_eq!(reloaded.sections, sections);
        for (name, section) in &sections {
            assert_eq!(reloaded.runs[0].get(name), Some(section), "run record keeps {name}");
        }
        assert_eq!(reloaded.runs.len(), 2);
        assert_eq!(reloaded.render(), rendered, "re-rendering a loaded file is byte-identical");

        // A later run of one section replaces it in place.
        let tv = Json::parse(r#"{"refuted_per_second": 1, "jobs": 1}"#).unwrap();
        results.record(
            "bench-tv",
            1,
            RunEntries { sections: vec![("tv".into(), tv.clone())], ..Default::default() },
        );
        let names: Vec<&str> = results.sections.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["interp", "opt", "tv", "exec", "serve"]);
        assert_eq!(results.sections[2].1, tv);
        assert_eq!(results.sections[1], sections[1]);

        let top: Vec<String> = match Json::parse(&results.render()).unwrap() {
            Json::Obj(fields) => fields.into_iter().map(|(key, _)| key).collect(),
            _ => unreachable!(),
        };
        assert_eq!(top, ["schema", "tables", "interp", "opt", "tv", "exec", "serve", "runs"]);
    }

    fn gates(records: &str) -> Json {
        Json::parse(&format!(r#"{{"comment": "test", "gates": [{records}]}}"#)).unwrap()
    }

    fn section(name: &str, fields: &str) -> Vec<(String, Json)> {
        vec![(name.to_string(), Json::parse(fields).unwrap())]
    }

    #[test]
    fn gate_decisions() {
        let throughput = r#"{"metric": "s.rate", "kind": "throughput", "baseline": 100}"#;
        let with_fallback = r#"{"metric": "s.rate", "kind": "throughput", "baseline": 100,
                                "fallback": "s.speedup", "fallback_baseline": 2.0}"#;
        let floor = r#"{"metric": "s.fraction", "kind": "exact_floor", "baseline": 0.88}"#;
        let scaling = r#"{"metric": "s.speedup", "kind": "scaling", "baseline": 2.0}"#;
        // (record, section fields, host cores, passes, line prefix)
        let cases = [
            (
                throughput,
                r#"{"rate": 70}"#,
                1,
                true,
                "ok: s.rate 70.00 vs baseline 100 (floor 70.00)",
            ),
            (throughput, r#"{"rate": 69.9}"#, 1, false, "regressed: s.rate 69.90"),
            (with_fallback, r#"{"rate": 150, "speedup": 0.1}"#, 1, true, "ok: s.rate"),
            (with_fallback, r#"{"rate": 10, "speedup": 1.4}"#, 1, true, "ok (slower host): s.rate"),
            (with_fallback, r#"{"rate": 10, "speedup": 1.39}"#, 1, false, "regressed: s.rate"),
            (
                with_fallback,
                r#"{"rate": 10}"#,
                1,
                false,
                "failed: s.rate, this run did not measure s.speedup",
            ),
            (floor, r#"{"fraction": 0.88}"#, 1, true, "ok: s.fraction 0.88"),
            (floor, r#"{"fraction": 0.8799}"#, 1, false, "regressed: s.fraction"),
            (
                scaling,
                r#"{"speedup": 0.5, "jobs": 2}"#,
                8,
                true,
                "skipped: s.speedup at jobs 2 on a 8-core host",
            ),
            (
                scaling,
                r#"{"speedup": 0.5, "jobs": 4}"#,
                2,
                true,
                "skipped: s.speedup at jobs 4 on a 2-core host",
            ),
            (scaling, r#"{"speedup": 1.4, "jobs": 4}"#, 4, true, "ok: s.speedup"),
            (scaling, r#"{"speedup": 1.39, "jobs": 4}"#, 4, false, "regressed: s.speedup"),
            (
                scaling,
                r#"{"speedup": 1.4}"#,
                4,
                false,
                "failed: s.speedup, this run did not measure s.jobs",
            ),
            (
                throughput,
                r#"{"other": 1}"#,
                1,
                false,
                "failed: s.rate, this run did not measure s.rate",
            ),
        ];
        for (record, fields, cores, passes, prefix) in cases {
            let lines = check_gates(&gates(record), &section("s", fields), cores).unwrap();
            assert_eq!(lines.len(), 1, "{record} on {fields}");
            let (passed, line) = match &lines[0] {
                Ok(line) => (true, line),
                Err(line) => (false, line),
            };
            assert_eq!(passed, passes, "{record} on {fields} at {cores} cores: {line}");
            assert!(line.starts_with(prefix), "expected '{prefix}…', got '{line}'");
        }
    }

    #[test]
    fn malformed_gate_records_are_errors() {
        let records = [
            r#"{"metric": "s.rate", "kind": "ratio", "baseline": 1}"#,
            r#"{"metric": "s.rate", "baseline": 1}"#,
            r#"{"metric": "rate", "kind": "throughput", "baseline": 1}"#,
            r#"{"metric": "s.rate", "kind": "throughput", "baseline": "1"}"#,
            r#"{"metric": "s.rate", "kind": "throughput", "baseline": 1, "tolerance": 0.5}"#,
            r#"{"metric": "s.rate", "kind": "throughput", "baseline": 1, "fallback": "s.speedup"}"#,
            r#"{"metric": "s.rate", "kind": "exact_floor", "baseline": 1, "fallback": "s.x", "fallback_baseline": 1}"#,
            r#"["s.rate", "throughput", 1]"#,
        ];
        for record in records {
            // Malformed even when its section was not run.
            assert!(check_gates(&gates(record), &[], 1).is_err(), "{record} must be rejected");
        }
        assert!(check_gates(&Json::parse(r#"{"s_rate": 1}"#).unwrap(), &[], 1).is_err());
    }

    #[test]
    fn gates_of_sections_not_run_are_not_checked() {
        let baseline = gates(
            r#"{"metric": "s.rate", "kind": "throughput", "baseline": 100},
               {"metric": "t.rate", "kind": "exact_floor", "baseline": 1}"#,
        );
        let lines = check_gates(&baseline, &section("t", r#"{"rate": 1}"#), 1).unwrap();
        assert_eq!(lines, vec![Ok("ok: t.rate 1.00 vs baseline 1.00 (floor 1.00)".to_string())]);
        assert!(check_gates(&baseline, &[], 1).unwrap().is_empty());
    }

    #[test]
    fn checked_in_baseline_gates_name_real_fields() {
        let baseline = Json::parse(include_str!("../../../BENCH_baseline.json")).unwrap();
        let records = baseline.get("gates").and_then(Json::as_arr).unwrap();
        let gates: Vec<Gate> = records.iter().map(|r| Gate::parse(r).unwrap()).collect();
        assert_eq!(gates.len(), 9);
        let sections = sample_sections();
        for gate in &gates {
            let paths = std::iter::once(&gate.metric).chain(gate.fallback.as_ref().map(|(f, _)| f));
            for path in paths {
                let (name, field) = path.split_once('.').unwrap();
                let section = sections.iter().find(|(n, _)| n == name).map(|(_, json)| json);
                assert!(
                    section.and_then(|json| json.get(field)).is_some(),
                    "{path} names no field of the {name} entry's to_json"
                );
            }
        }
        // Every sample section is gated, and every gate line resolves.
        let lines = check_gates(&baseline, &sections, 1).unwrap();
        assert_eq!(lines.len(), 9);
        assert!(lines
            .iter()
            .all(|line| !line.as_ref().unwrap_or_else(|e| e).starts_with("failed")));
    }
}
