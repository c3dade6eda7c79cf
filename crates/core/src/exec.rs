//! The parallel execution engine behind every corpus-scale run.
//!
//! The paper's throughput bottleneck (Section 6) is that each extracted
//! sequence pays an LLM round-trip plus `opt`/`llvm-mca`/Alive2 verification.
//! These cases are embarrassingly parallel, so this module provides:
//!
//! * shard-granular scheduling on the work-stealing
//!   [`crate::shard::ShardRuntime`] — the one worker pool of the workspace:
//!   workers pull whole cases off a cursor, each case decomposes into
//!   stealable Stage-3 sweep shards of [`ExecConfig::shard_size`] inputs, so
//!   a batch dominated by one huge case still scales with `--jobs` (idle
//!   workers steal that case's shards), and results come back in input order;
//! * a structural-hash dedup cache ([`DedupPlan`], keyed on
//!   [`lpo_ir::hash::hash_function`]) so a sequence that appears several times
//!   in a corpus is prompted and verified exactly once, with every duplicate
//!   replayed from the cached [`CaseReport`];
//! * the [`ExecConfig`]/[`ExecStats`] types the benchmark drivers use to
//!   surface `--jobs`, cache-hit and wall-clock numbers.
//!
//! # Determinism contract
//!
//! Runs are bit-identical for every `--jobs` value because nothing observable
//! depends on scheduling:
//!
//! 1. model sessions are spawned per case from a `Send + Sync`
//!    [`ModelFactory`], seeded only by `(round, case_index)`;
//! 2. each unique sequence is processed under the case index of its *first*
//!    occurrence in input order (the dedup plan fixes this before any worker
//!    starts), and duplicates replay that exact report;
//! 3. results are reassembled in input order before any aggregation, so
//!    even floating-point summaries add up in a fixed order.
//!
//! Only the real `wall_time` fields differ between runs; use
//! [`CaseReport::fingerprint`](crate::report::CaseReport::fingerprint) for
//! comparisons.

use crate::persist::case_key;
use crate::pipeline::{Lpo, TvSnapshot};
use crate::report::{CaseReport, RunSummary};
use crate::shard::{RuntimeSweepDriver, ShardRuntime};
use lpo_ir::function::Function;
use lpo_ir::hash::{hash_function, Digest};
use lpo_llm::model::ModelFactory;
use lpo_store::{StoreStats, VerdictStore};
use lpo_tv::prelude::input_count;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The default Stage-3 sweep shard size, in inputs. Matches the plane
/// evaluator's lane width so a shard is never smaller than one plane chunk.
pub const DEFAULT_SHARD_SIZE: usize = 256;

/// How a batch run is executed.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Worker threads. `0` means "use [`std::thread::available_parallelism`]".
    pub jobs: usize,
    /// Inputs per Stage-3 sweep shard ([`usize::MAX`] = one shard per
    /// survivor, i.e. sharding without splitting). Clamped to at least 1.
    pub shard_size: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self { jobs: 0, shard_size: DEFAULT_SHARD_SIZE }
    }
}

impl ExecConfig {
    /// One worker: the serial-compatible configuration.
    pub fn serial() -> Self {
        Self { jobs: 1, ..Self::default() }
    }

    /// A configuration with an explicit worker count (`0` = auto).
    pub fn with_jobs(jobs: usize) -> Self {
        Self { jobs, ..Self::default() }
    }

    /// Resolves `jobs` to a concrete worker count for `work` items — the one
    /// place `0` (= auto) becomes a core count, for the engine and for every
    /// other caller of [`ShardRuntime::run_cases`].
    ///
    /// The engine counts *work units*, not cases: a case contributes its
    /// estimated shard count ([`shard_work_units`]), so a batch of one huge
    /// case still resolves to a full pool whose extra workers steal that
    /// case's shards.
    pub fn effective_jobs(&self, work: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.jobs
        };
        requested.min(work).max(1)
    }
}

/// Estimates the schedulable work units of a batch: the summed shard counts
/// of the computed cases.
///
/// Each case counts `1` (its prompt/parse/probe spine) plus one unit per
/// `shard_size` post-probe sweep inputs — the shards an eventual survivor
/// sweep of that case would fork. It is an upper-bound *estimate* (cases
/// with no survivor never fork), used only to resolve the worker count;
/// results never depend on it.
pub fn shard_work_units(lpo: &Lpo, sequences: &[Function], unique: &[usize], shard_size: usize) -> usize {
    let tv = &lpo.config().tv;
    let shard_size = shard_size.max(1);
    unique
        .iter()
        .map(|&index| {
            let total = input_count(&sequences[index], &tv.inputs);
            let swept = total - tv.probe_inputs.min(total);
            1 + swept.div_ceil(shard_size)
        })
        .sum()
}

/// What a batch run actually did, for `--jobs`/cache reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Total cases in the input.
    pub cases: usize,
    /// Cases actually prompted/verified (one per unique structural hash).
    pub unique_cases: usize,
    /// Cases replayed from the dedup cache (`cases - unique_cases`).
    pub cache_hits: usize,
    /// Cases (after dedup replay) that ended `Failed`: their model session
    /// gave up with a typed error, or they panicked and the per-case
    /// `catch_unwind` contained it. The failure texts live in the reports.
    pub failed_cases: usize,
    /// Unique cases replayed from a checkpoint store instead of computed
    /// (`--resume`).
    pub resumed_cases: usize,
    /// Durable verdict/checkpoint store traffic during this batch (all zero
    /// when no store is attached).
    pub store: StoreStats,
    /// Real wall-clock time of the batch.
    pub wall_time: Duration,
    /// Stage 3 (translation validation) accounting for this batch: probe
    /// rejects vs compiled survivor sweeps, plus compiled-function cache
    /// traffic. The probe/survivor split is deterministic; the cache traffic
    /// is scheduling-dependent (see [`TvSnapshot`]).
    pub tv: TvSnapshot,
}

impl ExecStats {
    /// Cases per wall-clock second (0 when the batch was instantaneous).
    pub fn cases_per_second(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.cases as f64 / secs
        } else {
            0.0
        }
    }
}

/// The dedup cache's plan for a batch: which input index is the canonical
/// computation for each structural digest, decided *before* execution so the
/// result does not depend on worker scheduling.
#[derive(Clone, Debug)]
pub struct DedupPlan {
    /// For every input index, the input index whose report it uses.
    representative: Vec<usize>,
    /// The indices that are computed (first occurrence of each digest),
    /// in input order.
    unique: Vec<usize>,
}

impl DedupPlan {
    /// Plans a batch. With `dedup` off, every case is its own representative.
    pub fn new(sequences: &[Function], dedup: bool) -> Self {
        let mut representative = Vec::with_capacity(sequences.len());
        let mut unique = Vec::with_capacity(sequences.len());
        if dedup {
            let mut first_seen: HashMap<Digest, usize> = HashMap::new();
            for (index, func) in sequences.iter().enumerate() {
                let rep = *first_seen.entry(hash_function(func)).or_insert(index);
                representative.push(rep);
                if rep == index {
                    unique.push(index);
                }
            }
        } else {
            representative.extend(0..sequences.len());
            unique.extend(0..sequences.len());
        }
        Self { representative, unique }
    }

    /// The computed (first-occurrence) indices, in input order.
    pub fn unique_indices(&self) -> &[usize] {
        &self.unique
    }

    /// The canonical index whose report input `index` replays.
    pub fn representative(&self, index: usize) -> usize {
        self.representative[index]
    }

    /// Number of inputs that replay another case's report.
    pub fn cache_hits(&self) -> usize {
        self.representative.len() - self.unique.len()
    }
}

/// The outcome of one engine batch: per-case reports in input order, their
/// aggregate summary, and the execution statistics.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// One report per input sequence, in input order.
    pub reports: Vec<CaseReport>,
    /// Aggregates folded in input order.
    pub summary: RunSummary,
    /// Worker/cache/wall-clock accounting.
    pub stats: ExecStats,
}

/// Checkpointing context for a persisted batch run: the durable store, the
/// run key that namespaces this run's case records, and whether records
/// already present under that key should be replayed (`--resume`).
#[derive(Clone, Copy, Debug)]
pub struct Persist<'a> {
    /// The durable store case checkpoints are written to / replayed from.
    pub store: &'a VerdictStore,
    /// Namespace for this run's case records — two runs that must not see
    /// each other's checkpoints (different tables, different configurations)
    /// use different keys.
    pub run_key: &'a str,
    /// Replay already-checkpointed cases instead of recomputing them. Off,
    /// the batch recomputes (and re-records) everything; completed work is
    /// still checkpointed either way, so a crashed run can be resumed.
    pub resume: bool,
}

/// An observer callback: `(input case index, settled report, resumed)`.
pub type BatchObserver<'a> = &'a (dyn Fn(usize, &CaseReport, bool) + Sync);

/// Observation and control hooks for a batch run — the serving layer's
/// window into the engine.
///
/// Both hooks are scheduling-sensitive in *when* they fire but must never
/// influence *what* is computed: the observer only reads settled reports, and
/// cancellation only substitutes `Failed` reports for cases that have not
/// started (which are never checkpointed, so a resumed or resubmitted run
/// recomputes them).
#[derive(Clone, Copy, Default)]
pub struct BatchHooks<'a> {
    /// Called once per *unique* case as its report settles, with
    /// `(input case index, report, resumed)` where `resumed` says the report
    /// replayed from a checkpoint instead of being computed. Calls arrive in
    /// completion order (scheduling-dependent); dedup replays do not fire it —
    /// consumers that need every input index replay duplicates from the
    /// returned [`BatchResult::reports`].
    pub observer: Option<BatchObserver<'a>>,
    /// Cooperative cancellation, checked at the case boundary: once set, every
    /// not-yet-started case reports
    /// [`CaseOutcome::Failed`](crate::report::CaseOutcome::Failed) with a
    /// "job cancelled" error instead of running. In-flight cases complete
    /// normally.
    pub cancel: Option<&'a AtomicBool>,
}

impl BatchHooks<'_> {
    /// `true` once the cancel flag (if any) has been raised.
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// The error text of a report produced by [`BatchHooks::cancel`].
pub const CANCELLED_ERROR: &str = "job cancelled before this case started";

/// Fans `Lpo::optimize_sequence` out over `sequences`: the core of
/// [`Lpo::run_sequences`](crate::Lpo::run_sequences).
///
/// Each unique sequence gets a fresh session from `factory` (seeded by
/// `(round, first_occurrence_index)`); duplicates are replayed from the dedup
/// cache. The unit of scheduling is a *shard*: workers pull whole cases off
/// a cursor, each case's survivor sweeps fork into stealable input-range
/// shards, and workers out of cases drain the shard deque for the cases
/// still in flight (see [`crate::shard`]).
pub fn run_batch(
    lpo: &Lpo,
    factory: &dyn ModelFactory,
    round: u64,
    sequences: &[Function],
    config: &ExecConfig,
) -> BatchResult {
    run_batch_persisted(lpo, factory, round, sequences, config, None)
}

/// [`run_batch`] with fault tolerance at the case boundary:
///
/// * every computed case runs under `catch_unwind`, so a panicking model
///   session (or any bug confined to one case) yields a
///   [`CaseOutcome::Failed`](crate::report::CaseOutcome::Failed) report
///   instead of tearing down the batch — the other cases are unaffected,
///   byte-for-byte;
/// * with `persist` set, each completed non-`Failed` unique case is
///   checkpointed into the store as it finishes (crash-safe: the store's
///   records are atomic), and [`Persist::resume`] replays checkpointed
///   cases instead of recomputing them. `Failed` cases are *not*
///   checkpointed — a resumed run retries them.
pub fn run_batch_persisted(
    lpo: &Lpo,
    factory: &dyn ModelFactory,
    round: u64,
    sequences: &[Function],
    config: &ExecConfig,
    persist: Option<&Persist<'_>>,
) -> BatchResult {
    run_batch_hooked(lpo, factory, round, sequences, config, persist, BatchHooks::default())
}

/// [`run_batch_persisted`] with [`BatchHooks`]: per-case streaming and
/// cooperative per-job cancellation, the entry point `lpo-serve` drives.
pub fn run_batch_hooked(
    lpo: &Lpo,
    factory: &dyn ModelFactory,
    round: u64,
    sequences: &[Function],
    config: &ExecConfig,
    persist: Option<&Persist<'_>>,
    hooks: BatchHooks<'_>,
) -> BatchResult {
    let start = Instant::now();
    let plan = DedupPlan::new(sequences, true);
    let shard_size = config.shard_size.max(1);
    let store_before = persist.map(|p| p.store.stats()).unwrap_or_default();

    // Resume: pull checkpointed reports for the unique cases before any
    // worker starts, so scheduling never observes the store mid-flight.
    let unique = plan.unique_indices();
    let loaded: Vec<Option<CaseReport>> = unique
        .iter()
        .map(|&case_index| -> Option<CaseReport> {
            let p = persist?;
            if !p.resume {
                return None;
            }
            let digest = hash_function(&sequences[case_index]).0;
            let blob = p.store.case(p.run_key, &case_key(round, case_index, digest))?;
            // A malformed blob is a miss: recompute, never trust it.
            CaseReport::from_checkpoint_blob(&blob)
        })
        .collect();
    let resumed_cases = loaded.iter().filter(|slot| slot.is_some()).count();

    // Only the cases actually computed count as schedulable work.
    let pending: Vec<usize> = unique
        .iter()
        .zip(&loaded)
        .filter(|(_, loaded)| loaded.is_none())
        .map(|(&case_index, _)| case_index)
        .collect();
    let jobs = config.effective_jobs(shard_work_units(lpo, sequences, &pending, shard_size));
    let tv_before = lpo.tv_snapshot();

    // One computed case per slot, fault-isolated: the session spawn and the
    // whole optimize–verify loop run under `catch_unwind`, and the finished
    // report is checkpointed before the slot is filled. Each worker thread
    // owns one reusable evaluation arena: the register file behind every
    // concrete evaluation that case's verification runs.
    let runtime = ShardRuntime::new(jobs, lpo.shard_counters().clone());
    let driver = RuntimeSweepDriver::new(runtime.clone());
    let computed: Vec<CaseReport> = runtime.run_cases(unique.len(), |slot, arena| {
        let case_index = unique[slot];
        if let Some(report) = &loaded[slot] {
            if let Some(observer) = hooks.observer {
                observer(case_index, report, true);
            }
            return report.clone();
        }
        let case_start = Instant::now();
        // Cancellation substitutes a `Failed` report for a case that has not
        // started. Failed reports are never checkpointed, so a resubmission
        // retries the case.
        let report = if hooks.cancelled() {
            CaseReport::failed(CANCELLED_ERROR.to_string(), 0, case_start.elapsed())
        } else {
            let compute = || {
                let mut session = factory.session(round, case_index as u64);
                lpo.optimize_sequence_sharded(
                    session.as_mut(),
                    &sequences[case_index],
                    arena,
                    &driver,
                    shard_size,
                )
            };
            match catch_unwind(AssertUnwindSafe(compute)) {
                Ok(report) => report,
                Err(payload) => CaseReport::failed(
                    format!("case panicked: {}", panic_message(payload.as_ref())),
                    0,
                    case_start.elapsed(),
                ),
            }
        };
        if let Some(p) = persist {
            if !report.outcome.is_failed() {
                let digest = hash_function(&sequences[case_index]).0;
                p.store.record_case(
                    p.run_key,
                    &case_key(round, case_index, digest),
                    &report.checkpoint_blob(),
                );
            }
        }
        if let Some(observer) = hooks.observer {
            observer(case_index, &report, false);
        }
        report
    });

    // Replay: map each input index to its representative's report. The
    // representative set is exactly `plan.unique_indices()`, in order.
    let slot_of: HashMap<usize, usize> =
        plan.unique_indices().iter().enumerate().map(|(slot, &index)| (index, slot)).collect();
    let reports: Vec<CaseReport> = (0..sequences.len())
        .map(|index| computed[slot_of[&plan.representative(index)]].clone())
        .collect();

    let summary = RunSummary::from_reports(&reports);
    let stats = ExecStats {
        jobs,
        cases: sequences.len(),
        unique_cases: plan.unique_indices().len(),
        cache_hits: plan.cache_hits(),
        failed_cases: summary.failed,
        resumed_cases,
        store: persist.map(|p| p.store.stats().since(store_before)).unwrap_or_default(),
        wall_time: start.elapsed(),
        tv: lpo.tv_snapshot().since(tv_before),
    };
    BatchResult { reports, summary, stats }
}

/// Renders a `catch_unwind` payload: the panic message when it is a string
/// (the overwhelmingly common case), a placeholder otherwise.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::LpoConfig;
    use lpo_ir::parser::parse_function;
    use lpo_llm::model::ModelSession;
    use lpo_llm::prelude::{gemini2_0t, SimulatedModelFactory};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    const CLAMP: &str = "define i8 @src(i32 %0) {\n\
        %2 = icmp slt i32 %0, 0\n\
        %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
        %4 = trunc nuw i32 %3 to i8\n\
        %5 = select i1 %2, i8 0, i8 %4\n\
        ret i8 %5\n}";

    const BORING: &str = "define i32 @f(i32 %x, i32 %y) {\n\
        %a = mul i32 %x, %y\n\
        %b = add i32 %a, %y\n\
        ret i32 %b\n}";

    /// A factory that counts how many sessions it spawns — used to prove the
    /// dedup cache replays instead of recomputing.
    struct CountingFactory {
        inner: SimulatedModelFactory,
        sessions: AtomicUsize,
    }

    impl CountingFactory {
        fn new(seed: u64) -> Self {
            Self { inner: SimulatedModelFactory::new(gemini2_0t(), seed), sessions: AtomicUsize::new(0) }
        }
    }

    impl ModelFactory for CountingFactory {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn session(&self, round: u64, case_index: u64) -> Box<dyn ModelSession> {
            self.sessions.fetch_add(1, Ordering::Relaxed);
            self.inner.session(round, case_index)
        }
    }

    #[test]
    fn dedup_plan_picks_first_occurrences() {
        let a = parse_function(CLAMP).unwrap();
        let b = parse_function(BORING).unwrap();
        // Renamed duplicate of `a`: structurally identical.
        let a2 = parse_function(&CLAMP.replace("@src", "@other")).unwrap();
        let plan = DedupPlan::new(&[a.clone(), b.clone(), a2, a], true);
        assert_eq!(plan.unique_indices(), &[0, 1]);
        assert_eq!(plan.representative(2), 0);
        assert_eq!(plan.representative(3), 0);
        assert_eq!(plan.cache_hits(), 2);

        let no_dedup = DedupPlan::new(&[b.clone(), b], false);
        assert_eq!(no_dedup.unique_indices(), &[0, 1]);
        assert_eq!(no_dedup.cache_hits(), 0);
    }

    #[test]
    fn dedup_cache_replays_instead_of_recomputing() {
        let clamp = parse_function(CLAMP).unwrap();
        let boring = parse_function(BORING).unwrap();
        let sequences = vec![clamp.clone(), boring, clamp.clone(), clamp];
        let lpo = Lpo::new(LpoConfig::default());
        let factory = CountingFactory::new(99);

        let batch = run_batch(&lpo, &factory, 0, &sequences, &ExecConfig::serial());
        // Two unique digests → exactly two sessions, two cache replays.
        assert_eq!(factory.sessions.load(Ordering::Relaxed), 2);
        assert_eq!(batch.stats.unique_cases, 2);
        assert_eq!(batch.stats.cache_hits, 2);
        assert_eq!(batch.stats.cases, 4);
        assert_eq!(batch.summary.cases, 4);
        // The replayed reports are byte-identical to their representative.
        assert_eq!(batch.reports[2].fingerprint(), batch.reports[0].fingerprint());
        assert_eq!(batch.reports[3].fingerprint(), batch.reports[0].fingerprint());
    }

    #[test]
    fn hooks_observe_unique_cases_and_cancel_cleanly() {
        let clamp = parse_function(CLAMP).unwrap();
        let boring = parse_function(BORING).unwrap();
        let sequences = vec![clamp.clone(), boring, clamp];
        let lpo = Lpo::new(LpoConfig::default());
        let factory = SimulatedModelFactory::new(gemini2_0t(), 42);

        // The observer fires once per unique case, with its input index.
        let seen: Mutex<Vec<(usize, String, bool)>> = Mutex::new(Vec::new());
        let observer = |index: usize, report: &CaseReport, resumed: bool| {
            seen.lock().unwrap().push((index, report.fingerprint(), resumed));
        };
        let hooks = BatchHooks { observer: Some(&observer), cancel: None };
        let batch = run_batch_hooked(
            &lpo,
            &factory,
            0,
            &sequences,
            &ExecConfig::serial(),
            None,
            hooks,
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|(index, _, _)| *index);
        assert_eq!(seen.len(), 2, "one observation per unique case");
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[1].0, 1);
        assert_eq!(seen[0].1, batch.reports[0].fingerprint());
        assert_eq!(seen[1].1, batch.reports[1].fingerprint());
        assert!(seen.iter().all(|(_, _, resumed)| !resumed));

        // A pre-raised cancel flag fails every case without running any.
        let cancel = AtomicBool::new(true);
        let factory_counting = CountingFactory::new(42);
        let hooks = BatchHooks { observer: None, cancel: Some(&cancel) };
        let cancelled = run_batch_hooked(
            &lpo,
            &factory_counting,
            0,
            &sequences,
            &ExecConfig::serial(),
            None,
            hooks,
        );
        assert_eq!(factory_counting.sessions.load(Ordering::Relaxed), 0);
        assert_eq!(cancelled.summary.failed, 3);
        assert!(cancelled
            .reports
            .iter()
            .all(|r| r.fingerprint().contains(CANCELLED_ERROR)));
    }

    #[test]
    fn parallel_batches_are_bit_identical_to_serial() {
        let suite: Vec<Function> = [CLAMP, BORING]
            .iter()
            .cycle()
            .take(12)
            .map(|text| parse_function(text).unwrap())
            .collect();
        let lpo = Lpo::new(LpoConfig::default());
        let factory = SimulatedModelFactory::new(gemini2_0t(), 42);

        // The oracle: `optimize_sequence` (the staged walk with the whole
        // sweep as one shard on `SerialDriver`, no worker pool) over each
        // unique case under its first-occurrence session, duplicates
        // replayed — no engine involved.
        let plan = DedupPlan::new(&suite, true);
        let oracle: HashMap<usize, String> = plan
            .unique_indices()
            .iter()
            .map(|&index| {
                let mut session = factory.session(1, index as u64);
                (index, lpo.optimize_sequence(session.as_mut(), &suite[index]).fingerprint())
            })
            .collect();
        let oracle_prints: Vec<String> =
            (0..suite.len()).map(|index| oracle[&plan.representative(index)].clone()).collect();

        let serial = run_batch(&lpo, &factory, 1, &suite, &ExecConfig::serial());
        let parallel = run_batch(&lpo, &factory, 1, &suite, &ExecConfig::with_jobs(4));
        for batch in [&serial, &parallel] {
            let prints: Vec<String> = batch.reports.iter().map(CaseReport::fingerprint).collect();
            assert_eq!(prints, oracle_prints);
        }
        assert_eq!(serial.summary.fingerprint(), parallel.summary.fingerprint());
        assert_eq!(serial.stats.cache_hits, parallel.stats.cache_hits);
        // Jobs resolve against shard work units, not unique cases: the two
        // unique cases decompose into enough sweep shards to keep all four
        // workers schedulable.
        assert!(parallel.stats.jobs > parallel.stats.unique_cases.min(4));
        assert_eq!(parallel.stats.jobs, 4);
    }

    #[test]
    fn one_case_with_many_shards_resolves_to_a_full_pool() {
        // A batch of ONE case used to pin `--jobs N` to one worker. With
        // sharding, the single case's sweep decomposes into enough shards to
        // occupy the whole pool, and the resolved job count must say so.
        let wide = parse_function(
            "define i16 @w(i16 %x) {\n %r = add i16 %x, 1\n ret i16 %r\n}",
        )
        .unwrap();
        let mut config = LpoConfig::default();
        config.tv.inputs.exhaustive_bits = 16;
        let lpo = Lpo::new(config);
        let suite = vec![wide];
        let plan = DedupPlan::new(&suite, true);

        // 65536 exhaustive inputs, 16 probed, 256-input shards → 1 + 256 units.
        let units = shard_work_units(&lpo, &suite, plan.unique_indices(), 256);
        assert_eq!(units, 1 + (65536usize - 16).div_ceil(256));
        assert_eq!(ExecConfig::with_jobs(8).effective_jobs(units), 8);
        // Counting cases instead would pin the batch to a single worker.
        assert_eq!(ExecConfig::with_jobs(8).effective_jobs(plan.unique_indices().len()), 1);
        // An ∞ shard size degenerates to one spine + one sweep unit per case.
        assert_eq!(shard_work_units(&lpo, &suite, plan.unique_indices(), usize::MAX), 2);

        // And a real run resolves accordingly.
        let factory = SimulatedModelFactory::new(gemini2_0t(), 7);
        let batch = run_batch(&lpo, &factory, 0, &suite, &ExecConfig::with_jobs(4));
        assert_eq!(batch.stats.jobs, 4);
        assert_eq!(batch.stats.cases, 1);
    }

    #[test]
    fn exec_config_resolution() {
        assert_eq!(ExecConfig::serial().effective_jobs(100), 1);
        assert_eq!(ExecConfig::with_jobs(8).effective_jobs(3), 3);
        assert_eq!(ExecConfig::with_jobs(8).effective_jobs(0), 1);
        assert!(ExecConfig::default().effective_jobs(64) >= 1);
        let stats = ExecStats {
            jobs: 2,
            cases: 10,
            unique_cases: 8,
            cache_hits: 2,
            failed_cases: 0,
            resumed_cases: 0,
            store: StoreStats::default(),
            wall_time: Duration::from_secs(2),
            tv: TvSnapshot::default(),
        };
        assert!((stats.cases_per_second() - 5.0).abs() < 1e-9);
        assert_eq!(ExecStats::default().cases_per_second(), 0.0);
    }

    // `Function` (plain data) must stay shareable across the pool's workers.
    fn _assert_sync(f: &Function) -> &(dyn Sync + '_) {
        f
    }
}
