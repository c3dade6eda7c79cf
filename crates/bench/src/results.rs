//! Persistent benchmark results: the `BENCH_results.json` model.
//!
//! The `repro` binary used to overwrite `BENCH_results.json` with only the
//! tables of the current invocation, so running `repro table2` after
//! `repro all` erased everything but table2 and the perf trajectory never
//! accumulated. This module makes the file a *merged* store:
//!
//! * `tables` holds the **latest** entry per table name (merged by name);
//! * `interp` / `opt` / `tv` hold the latest microbenchmark of each hot
//!   path (`repro bench-interp` / `bench-opt` / `bench-tv`);
//! * `runs` is the recent history — one record per `repro` invocation
//!   with the entries that invocation produced, capped at the newest
//!   [`RUN_HISTORY`] records — so the recent trajectory is preserved
//!   without the file growing without bound.
//!
//! The container has no crates.io access (no serde), so this file carries a
//! small hand-rolled JSON reader/writer covering exactly the subset the
//! schema needs: objects, arrays, strings, numbers, booleans and null.

// The hand-rolled JSON reader/writer that used to live here moved to
// `lpo-serve`, where the wire protocol shares it; the results schema
// keeps using it from its old path via this re-export.
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
    /// Stage-3 candidates settled by the abstract pre-verification tier as
    /// proved (full concrete sweeps skipped). Zero for engineless drivers.
    pub proved: usize,
    /// Stage-3 candidates refuted abstractly (certified wrong before any
    /// concrete evaluation). Zero for engineless drivers.
    pub absint_refuted: usize,
    /// Worker threads used.
    pub jobs: usize,
}

impl TableEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("wall_seconds".into(), Json::Num(self.wall_seconds)),
            ("cases".into(), Json::Num(self.cases as f64)),
            ("cases_per_second".into(), Json::Num(self.cases_per_second)),
            ("cache_hits".into(), Json::Num(self.cache_hits as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("resumed".into(), Json::Num(self.resumed as f64)),
            ("proved".into(), Json::Num(self.proved as f64)),
            ("absint_refuted".into(), Json::Num(self.absint_refuted as f64)),
            ("jobs".into(), Json::Num(self.jobs as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<TableEntry> {
        Some(TableEntry {
            name: value.get("name")?.as_str()?.to_string(),
            wall_seconds: value.get("wall_seconds")?.as_num()?,
            cases: value.get("cases")?.as_num()? as usize,
            cases_per_second: value.get("cases_per_second")?.as_num()?,
            cache_hits: value.get("cache_hits")?.as_num()? as usize,
            // Absent in files written before failure accounting existed.
            failed: value.get("failed").and_then(Json::as_num).unwrap_or(0.0) as usize,
            resumed: value.get("resumed").and_then(Json::as_num).unwrap_or(0.0) as usize,
            // Absent in files written before the abstract tier existed.
            proved: value.get("proved").and_then(Json::as_num).unwrap_or(0.0) as usize,
            absint_refuted: value.get("absint_refuted").and_then(Json::as_num).unwrap_or(0.0)
                as usize,
            jobs: value.get("jobs")?.as_num()? as usize,
        })
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
    fn to_json(&self) -> Json {
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

    fn from_json(value: &Json) -> Option<InterpEntry> {
        Some(InterpEntry {
            evals_per_second: value.get("evals_per_second")?.as_num()?,
            steps_per_second: value.get("steps_per_second")?.as_num()?,
            reference_evals_per_second: value.get("reference_evals_per_second")?.as_num()?,
            speedup: value.get("speedup")?.as_num()?,
            cases: value.get("cases")?.as_num()? as usize,
            evals: value.get("evals")?.as_num()? as usize,
            jobs: value.get("jobs")?.as_num()? as usize,
        })
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
    fn to_json(&self) -> Json {
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

    fn from_json(value: &Json) -> Option<OptEntry> {
        Some(OptEntry {
            canon_per_second: value.get("canon_per_second")?.as_num()?,
            reference_canon_per_second: value.get("reference_canon_per_second")?.as_num()?,
            speedup: value.get("speedup")?.as_num()?,
            case_canon_per_second: value.get("case_canon_per_second")?.as_num()?,
            case_reference_canon_per_second: value
                .get("case_reference_canon_per_second")?
                .as_num()?,
            case_speedup: value.get("case_speedup")?.as_num()?,
            cases: value.get("cases")?.as_num()? as usize,
            functions: value.get("functions")?.as_num()? as usize,
            jobs: value.get("jobs")?.as_num()? as usize,
        })
    }
}

/// The translation-validation microbenchmark section (`repro bench-tv`).
///
/// `refuted_*` measures the dominant real-world shape — a wrong candidate
/// refuted on its earliest concrete input — where the staged checker's probe
/// avoids `CompiledFunction::compile` entirely; `survivor_*` measures the
/// full-input-sweep cost every accepted candidate pays (currently ≈ parity
/// with the reference: the batched sweep's per-input gain roughly offsets
/// the probe's direct evaluations on tiny functions — gated so it cannot
/// silently regress).
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
    /// Abstract refutations per second on the Stage 3a₀ tier (bit-pinned
    /// pairs certified with zero concrete evaluations).
    pub absint_refuted_per_second: f64,
    /// The same pairs refuted concretely with the tier disabled — the
    /// in-run reference for the machine-independent fallback.
    pub absint_reference_per_second: f64,
    /// `absint_refuted_per_second / absint_reference_per_second`.
    pub absint_speedup: f64,
    /// Pairs in the abstract-refutation workload.
    pub absint_cases: usize,
    /// Self-verification survivors the abstract tier proved structurally —
    /// i.e. full concrete sweeps skipped.
    pub proved_survivors: usize,
    /// `proved_survivors / cases` (deterministic; gated as a floor).
    pub proved_fraction: f64,
    /// rq1 cases in the workload (scalar-int returns only).
    pub cases: usize,
    /// Workload cases whose compiled form carries a plane plan — i.e. how
    /// many survivor sweeps ran on the type-specialized plane tier.
    pub plane_cases: usize,
    /// Worker threads used.
    pub jobs: usize,
}

impl TvEntry {
    fn to_json(&self) -> Json {
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
            ("absint_refuted_per_second".into(), Json::Num(self.absint_refuted_per_second)),
            ("absint_reference_per_second".into(), Json::Num(self.absint_reference_per_second)),
            ("absint_speedup".into(), Json::Num(self.absint_speedup)),
            ("absint_cases".into(), Json::Num(self.absint_cases as f64)),
            ("proved_survivors".into(), Json::Num(self.proved_survivors as f64)),
            ("proved_fraction".into(), Json::Num(self.proved_fraction)),
            ("cases".into(), Json::Num(self.cases as f64)),
            ("plane_cases".into(), Json::Num(self.plane_cases as f64)),
            ("jobs".into(), Json::Num(self.jobs as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<TvEntry> {
        Some(TvEntry {
            refuted_per_second: value.get("refuted_per_second")?.as_num()?,
            reference_refuted_per_second: value
                .get("reference_refuted_per_second")?
                .as_num()?,
            refuted_speedup: value.get("refuted_speedup")?.as_num()?,
            survivor_per_second: value.get("survivor_per_second")?.as_num()?,
            reference_survivor_per_second: value
                .get("reference_survivor_per_second")?
                .as_num()?,
            survivor_speedup: value.get("survivor_speedup")?.as_num()?,
            // Absent in records written before the cold shape existed.
            cold_survivor_per_second: value
                .get("cold_survivor_per_second")
                .and_then(Json::as_num)
                .unwrap_or(0.0),
            reference_cold_survivor_per_second: value
                .get("reference_cold_survivor_per_second")
                .and_then(Json::as_num)
                .unwrap_or(0.0),
            cold_survivor_speedup: value
                .get("cold_survivor_speedup")
                .and_then(Json::as_num)
                .unwrap_or(0.0),
            // Absent in records written before the abstract tier existed.
            absint_refuted_per_second: value
                .get("absint_refuted_per_second")
                .and_then(Json::as_num)
                .unwrap_or(0.0),
            absint_reference_per_second: value
                .get("absint_reference_per_second")
                .and_then(Json::as_num)
                .unwrap_or(0.0),
            absint_speedup: value.get("absint_speedup").and_then(Json::as_num).unwrap_or(0.0),
            absint_cases: value
                .get("absint_cases")
                .and_then(Json::as_num)
                .map(|n| n as usize)
                .unwrap_or(0),
            proved_survivors: value
                .get("proved_survivors")
                .and_then(Json::as_num)
                .map(|n| n as usize)
                .unwrap_or(0),
            proved_fraction: value.get("proved_fraction").and_then(Json::as_num).unwrap_or(0.0),
            cases: value.get("cases")?.as_num()? as usize,
            // Absent in records written before the plane tier existed.
            plane_cases: value
                .get("plane_cases")
                .and_then(|v| v.as_num())
                .map(|n| n as usize)
                .unwrap_or(0),
            jobs: value.get("jobs")?.as_num()? as usize,
        })
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
    fn to_json(&self) -> Json {
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

    fn from_json(value: &Json) -> Option<ExecEntry> {
        Some(ExecEntry {
            sweep_reference_per_second: value.get("sweep_reference_per_second")?.as_num()?,
            sweep_serial_per_second: value.get("sweep_serial_per_second")?.as_num()?,
            sweep_overhead_ratio: value.get("sweep_overhead_ratio")?.as_num()?,
            sweep_parallel_per_second: value.get("sweep_parallel_per_second")?.as_num()?,
            sweep_speedup: value.get("sweep_speedup")?.as_num()?,
            shards_executed: value.get("shards_executed")?.as_num()? as usize,
            shards_stolen: value.get("shards_stolen")?.as_num()? as usize,
            shard_cancellations: value.get("shard_cancellations")?.as_num()? as usize,
            jobs: value.get("jobs")?.as_num()? as usize,
            shard_size: value.get("shard_size")?.as_num()? as usize,
        })
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
    fn to_json(&self) -> Json {
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

    fn from_json(value: &Json) -> Option<ServeEntry> {
        Some(ServeEntry {
            requests_per_second: value.get("requests_per_second")?.as_num()?,
            cold_seconds: value.get("cold_seconds")?.as_num()?,
            warm_jobs_per_second: value.get("warm_jobs_per_second")?.as_num()?,
            warm_speedup: value.get("warm_speedup")?.as_num()?,
            cold_cache_hit_rate: value.get("cold_cache_hit_rate")?.as_num()?,
            cache_hit_rate: value.get("cache_hit_rate")?.as_num()?,
            cases: value.get("cases")?.as_num()? as usize,
            warm_jobs: value.get("warm_jobs")?.as_num()? as usize,
            requests: value.get("requests")?.as_num()? as usize,
            jobs: value.get("jobs")?.as_num()? as usize,
        })
    }
}

/// One `repro` invocation in the append-only history.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// 1-based run index (monotonic across the file's lifetime).
    pub run: usize,
    /// The subcommand that produced this record (e.g. `table2`, `all`).
    pub command: String,
    /// The `--jobs` value requested.
    pub jobs_requested: usize,
    /// The tables this invocation produced.
    pub tables: Vec<TableEntry>,
    /// The interpreter microbenchmark, when this invocation ran it.
    pub interp: Option<InterpEntry>,
    /// The canonicalization microbenchmark, when this invocation ran it.
    pub opt: Option<OptEntry>,
    /// The translation-validation microbenchmark, when this invocation ran it.
    pub tv: Option<TvEntry>,
    /// The sharded-execution microbenchmark, when this invocation ran it.
    pub exec: Option<ExecEntry>,
    /// The serving-shell benchmark, when this invocation ran it.
    pub serve: Option<ServeEntry>,
}

impl RunRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("run".into(), Json::Num(self.run as f64)),
            ("command".into(), Json::Str(self.command.clone())),
            ("jobs_requested".into(), Json::Num(self.jobs_requested as f64)),
            ("tables".into(), Json::Arr(self.tables.iter().map(TableEntry::to_json).collect())),
        ];
        if let Some(interp) = &self.interp {
            fields.push(("interp".into(), interp.to_json()));
        }
        if let Some(opt) = &self.opt {
            fields.push(("opt".into(), opt.to_json()));
        }
        if let Some(tv) = &self.tv {
            fields.push(("tv".into(), tv.to_json()));
        }
        if let Some(exec) = &self.exec {
            fields.push(("exec".into(), exec.to_json()));
        }
        if let Some(serve) = &self.serve {
            fields.push(("serve".into(), serve.to_json()));
        }
        Json::Obj(fields)
    }

    fn from_json(value: &Json) -> Option<RunRecord> {
        Some(RunRecord {
            run: value.get("run")?.as_num()? as usize,
            command: value.get("command")?.as_str()?.to_string(),
            jobs_requested: value.get("jobs_requested")?.as_num()? as usize,
            tables: value
                .get("tables")?
                .as_arr()?
                .iter()
                .filter_map(TableEntry::from_json)
                .collect(),
            interp: value.get("interp").and_then(InterpEntry::from_json),
            opt: value.get("opt").and_then(OptEntry::from_json),
            tv: value.get("tv").and_then(TvEntry::from_json),
            exec: value.get("exec").and_then(ExecEntry::from_json),
            serve: value.get("serve").and_then(ServeEntry::from_json),
        })
    }
}

/// The measurement sections one `repro` invocation produced — the unit
/// [`BenchResults::record`] merges. A future section is added here (plus its
/// entry type and `RunRecord` field) without touching any call site.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunEntries {
    /// Table drivers this invocation ran.
    pub tables: Vec<TableEntry>,
    /// The interpreter microbenchmark (`bench-interp`), if run.
    pub interp: Option<InterpEntry>,
    /// The canonicalization microbenchmark (`bench-opt`), if run.
    pub opt: Option<OptEntry>,
    /// The translation-validation microbenchmark (`bench-tv`), if run.
    pub tv: Option<TvEntry>,
    /// The sharded-execution microbenchmark (`bench-exec`), if run.
    pub exec: Option<ExecEntry>,
    /// The serving-shell benchmark (`bench-serve`), if run.
    pub serve: Option<ServeEntry>,
}

impl RunEntries {
    /// Whether the invocation produced anything worth persisting.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
            && self.interp.is_none()
            && self.opt.is_none()
            && self.tv.is_none()
            && self.exec.is_none()
            && self.serve.is_none()
    }
}

/// The whole `BENCH_results.json` store.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchResults {
    /// Latest entry per table name, in first-recorded order.
    pub tables: Vec<TableEntry>,
    /// Latest interpreter microbenchmark.
    pub interp: Option<InterpEntry>,
    /// Latest canonicalization microbenchmark.
    pub opt: Option<OptEntry>,
    /// Latest translation-validation microbenchmark.
    pub tv: Option<TvEntry>,
    /// Latest sharded-execution microbenchmark.
    pub exec: Option<ExecEntry>,
    /// Latest serving-shell benchmark.
    pub serve: Option<ServeEntry>,
    /// Invocation history, oldest first, at most [`RUN_HISTORY`] records.
    pub runs: Vec<RunRecord>,
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
    /// tables.
    pub fn load(path: &str) -> BenchResults {
        let Ok(text) = std::fs::read_to_string(path) else {
            return BenchResults::default();
        };
        let Ok(value) = Json::parse(&text) else {
            return BenchResults::default();
        };
        match value.get("schema").and_then(Json::as_num) {
            Some(schema) if schema == 1.0 || schema == SCHEMA as f64 => {}
            _ => return BenchResults::default(),
        }
        let mut results = BenchResults::default();
        if let Some(tables) = value.get("tables").and_then(Json::as_arr) {
            results.tables = tables.iter().filter_map(TableEntry::from_json).collect();
        }
        results.interp = value.get("interp").and_then(InterpEntry::from_json);
        results.opt = value.get("opt").and_then(OptEntry::from_json);
        results.tv = value.get("tv").and_then(TvEntry::from_json);
        results.exec = value.get("exec").and_then(ExecEntry::from_json);
        results.serve = value.get("serve").and_then(ServeEntry::from_json);
        if let Some(runs) = value.get("runs").and_then(Json::as_arr) {
            results.runs = runs.iter().filter_map(RunRecord::from_json).collect();
        }
        results
    }

    /// Merges one invocation into the store: per-table entries replace the
    /// previous entry of the same name, the microbenchmark sections (when
    /// present) replace the previous ones, and the invocation is appended to
    /// `runs` with the next run index; records beyond the newest
    /// [`RUN_HISTORY`] are dropped.
    pub fn record(&mut self, command: &str, jobs_requested: usize, entries: RunEntries) {
        let RunEntries { tables, interp, opt, tv, exec, serve } = entries;
        for entry in &tables {
            match self.tables.iter_mut().find(|t| t.name == entry.name) {
                Some(slot) => *slot = entry.clone(),
                None => self.tables.push(entry.clone()),
            }
        }
        if interp.is_some() {
            self.interp = interp.clone();
        }
        if opt.is_some() {
            self.opt = opt.clone();
        }
        if tv.is_some() {
            self.tv = tv.clone();
        }
        if exec.is_some() {
            self.exec = exec.clone();
        }
        if serve.is_some() {
            self.serve = serve.clone();
        }
        let run = self.runs.last().map(|r| r.run + 1).unwrap_or(1);
        self.runs.push(RunRecord {
            run,
            command: command.to_string(),
            jobs_requested,
            tables,
            interp,
            opt,
            tv,
            exec,
            serve,
        });
        let excess = self.runs.len().saturating_sub(RUN_HISTORY);
        self.runs.drain(..excess);
    }

    /// Serializes the store.
    pub fn render(&self) -> String {
        let mut fields = vec![
            ("schema".into(), Json::Num(SCHEMA as f64)),
            ("tables".into(), Json::Arr(self.tables.iter().map(TableEntry::to_json).collect())),
        ];
        if let Some(interp) = &self.interp {
            fields.push(("interp".into(), interp.to_json()));
        }
        if let Some(opt) = &self.opt {
            fields.push(("opt".into(), opt.to_json()));
        }
        if let Some(tv) = &self.tv {
            fields.push(("tv".into(), tv.to_json()));
        }
        if let Some(exec) = &self.exec {
            fields.push(("exec".into(), exec.to_json()));
        }
        if let Some(serve) = &self.serve {
            fields.push(("serve".into(), serve.to_json()));
        }
        fields.push(("runs".into(), Json::Arr(self.runs.iter().map(RunRecord::to_json).collect())));
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
            proved: 0,
            absint_refuted: 0,
            jobs: 1,
        }
    }

    #[test]
    fn merge_replaces_by_name_and_keeps_history() {
        let mut results = BenchResults::default();
        results.record("all", 4, RunEntries { tables: vec![table("table2", 5.0), table("table5", 7.0)], ..Default::default() });
        results.record("table2", 1, RunEntries { tables: vec![table("table2", 9.0)], ..Default::default() });

        assert_eq!(results.tables.len(), 2, "table5 must survive a table2-only run");
        assert_eq!(
            results.tables.iter().find(|t| t.name == "table2").unwrap().cases_per_second,
            9.0
        );
        assert_eq!(results.runs.len(), 2);
        assert_eq!(results.runs[0].run, 1);
        assert_eq!(results.runs[1].run, 2);
        assert_eq!(results.runs[1].command, "table2");

        // Round-trips through the serialized form.
        let rendered = results.render();
        let value = Json::parse(&rendered).unwrap();
        assert_eq!(value.get("schema").unwrap().as_num(), Some(SCHEMA as f64));
        let reloaded = BenchResults {
            tables: value
                .get("tables")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .filter_map(TableEntry::from_json)
                .collect(),
            ..Default::default()
        };
        assert_eq!(reloaded.tables, results.tables);
    }

    #[test]
    fn history_keeps_the_newest_runs() {
        let mut results = BenchResults::default();
        for i in 0..RUN_HISTORY {
            results.record(&format!("run{i}"), 1, RunEntries::default());
        }
        assert_eq!(results.runs.len(), RUN_HISTORY);
        results.record("overflow", 1, RunEntries::default());
        assert_eq!(results.runs.len(), RUN_HISTORY, "the 21st run evicts the oldest");
        assert_eq!(results.runs[0].command, "run1");
        assert_eq!(results.runs.last().unwrap().command, "overflow");
        assert_eq!(results.runs.last().unwrap().run, RUN_HISTORY + 1);
        assert!(
            results.runs.windows(2).all(|w| w[0].run < w[1].run),
            "run indices keep increasing"
        );
    }

    #[test]
    fn load_accepts_legacy_schema_1_and_garbage() {
        let dir = std::env::temp_dir().join("lpo_results_test");
        std::fs::create_dir_all(&dir).unwrap();
        let legacy = dir.join("legacy.json");
        std::fs::write(
            &legacy,
            "{\n  \"schema\": 1,\n  \"jobs_requested\": 4,\n  \"tables\": [\n    {\"name\": \"table5\", \"wall_seconds\": 0.1, \"cases\": 15, \"cases_per_second\": 119.1, \"cache_hits\": 0, \"jobs\": 4}\n  ]\n}\n",
        )
        .unwrap();
        let results = BenchResults::load(legacy.to_str().unwrap());
        assert_eq!(results.tables.len(), 1);
        assert_eq!(results.tables[0].name, "table5");
        assert!(results.runs.is_empty());

        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        assert_eq!(BenchResults::load(garbage.to_str().unwrap()), BenchResults::default());
        assert_eq!(BenchResults::load("/nonexistent/path.json"), BenchResults::default());

        // A future schema restarts the store instead of half-parsing it.
        let future = dir.join("future.json");
        std::fs::write(
            &future,
            "{\n  \"schema\": 3,\n  \"tables\": [{\"name\": \"table5\", \"wall_seconds\": 1, \"cases\": 1, \"cases_per_second\": 1, \"cache_hits\": 0, \"jobs\": 1}]\n}\n",
        )
        .unwrap();
        assert_eq!(BenchResults::load(future.to_str().unwrap()), BenchResults::default());
    }

    #[test]
    fn interp_section_round_trips() {
        let interp = InterpEntry {
            evals_per_second: 1e6,
            steps_per_second: 5e6,
            reference_evals_per_second: 2e5,
            speedup: 5.0,
            cases: 25,
            evals: 100_000,
            jobs: 1,
        };
        let mut results = BenchResults::default();
        results.record("bench-interp", 1, RunEntries { interp: Some(interp.clone()), ..Default::default() });
        let rendered = results.render();
        let value = Json::parse(&rendered).unwrap();
        assert_eq!(InterpEntry::from_json(value.get("interp").unwrap()), Some(interp.clone()));
        assert_eq!(
            InterpEntry::from_json(value.get("runs").unwrap().as_arr().unwrap()[0].get("interp").unwrap()),
            Some(interp)
        );
    }

    #[test]
    fn exec_section_round_trips_and_merges() {
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
        let mut results = BenchResults::default();
        results.record("bench-exec", 4, RunEntries { exec: Some(exec.clone()), ..Default::default() });
        // A later tables-only run must not erase the exec section.
        results.record("table2", 1, RunEntries { tables: vec![table("table2", 9.0)], ..Default::default() });
        let rendered = results.render();
        let value = Json::parse(&rendered).unwrap();
        assert_eq!(ExecEntry::from_json(value.get("exec").unwrap()), Some(exec.clone()));
        assert_eq!(
            ExecEntry::from_json(value.get("runs").unwrap().as_arr().unwrap()[0].get("exec").unwrap()),
            Some(exec.clone())
        );
        let dir = std::env::temp_dir().join("lpo_results_exec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.json");
        std::fs::write(&path, rendered).unwrap();
        let reloaded = BenchResults::load(path.to_str().unwrap());
        assert_eq!(reloaded.exec, Some(exec));
        assert_eq!(reloaded.runs.len(), 2);
    }

    #[test]
    fn tv_section_round_trips_and_merges() {
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
            absint_refuted_per_second: 4.2e6,
            absint_reference_per_second: 5e5,
            absint_speedup: 8.4,
            absint_cases: 19,
            proved_survivors: 17,
            proved_fraction: 0.85,
            cases: 20,
            plane_cases: 18,
            jobs: 1,
        };
        let mut results = BenchResults::default();
        results.record("bench-tv", 1, RunEntries { tv: Some(tv.clone()), ..Default::default() });
        // A later tables-only run must not erase the tv section.
        results.record("table2", 1, RunEntries { tables: vec![table("table2", 9.0)], ..Default::default() });
        let rendered = results.render();
        let value = Json::parse(&rendered).unwrap();
        assert_eq!(TvEntry::from_json(value.get("tv").unwrap()), Some(tv.clone()));
        assert_eq!(
            TvEntry::from_json(value.get("runs").unwrap().as_arr().unwrap()[0].get("tv").unwrap()),
            Some(tv.clone())
        );
        // And the full loader sees it.
        let dir = std::env::temp_dir().join("lpo_results_tv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.json");
        std::fs::write(&path, rendered).unwrap();
        let reloaded = BenchResults::load(path.to_str().unwrap());
        assert_eq!(reloaded.tv, Some(tv));
        assert_eq!(reloaded.runs.len(), 2);
    }
}
