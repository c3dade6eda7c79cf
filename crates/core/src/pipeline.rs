//! Algorithm 1: the closed-loop optimize–verify–feedback workflow.
//!
//! Stage 1 here is **text-free**: the LLM boundary is the only place text
//! crosses (the prompt out, the completion in). A completion that echoes the
//! prompt's source text byte for byte is settled as uninteresting right at
//! that boundary — no parse, no `-O2` run, no cost estimate — whenever the
//! canonical source verifies and its canonicalization reached a fixpoint,
//! which is exactly when the full path would classify it
//! [`Identical`](crate::interestingness::InterestVerdict::Identical). Every
//! other candidate is parsed once and then verified/canonicalized as a
//! [`Function`] value via [`lpo_opt::pipeline::optimize_function`] — no
//! per-candidate re-printing.
//!
//! Each deterministic piece of a case is done **once per pipeline**, not
//! once per case. Two tables, both shared by every worker and batch of one
//! [`Lpo`] and keyed by what they render, make that so:
//!
//! * the **source table** settles Stage 1's source side once per exact
//!   source: the canonical function, the prompt text, the fixpoint flag and,
//!   on first use, the echo check and the step-④ cost estimate;
//! * the **verdict table** settles step ⑤ once per (source, candidate)
//!   pair. It is a [`VerdictStore`]: an in-memory one by default, the durable
//!   one `--store` opens when attached. Lookups are single-flight, so the
//!   Stage-3 counters count distinct pairs at any `--jobs`.
//!
//! Both are pure memos: a hit is byte-identical to computing afresh, which
//! is why their keys cover every printed name
//! ([`hash_function_named`]).

use crate::interestingness::SourceCost;
use crate::persist::{decode_verdict, encode_verdict, store_version};
use crate::report::{CaseOutcome, CaseReport, RunSummary};
use lpo_extract::{ExtractConfig, ExtractedSequence, Extractor};
use lpo_ir::function::Function;
use lpo_ir::hash::hash_function_named;
use lpo_ir::module::Module;
use lpo_ir::parser::parse_function;
use lpo_ir::printer::print_function;
use lpo_ir::verifier::verify_function;
use lpo_llm::model::{ModelFactory, ModelSession, Prompt};
use lpo_mca::Target;
use lpo_opt::pipeline::{optimize_function, OptLevel, Pipeline};
use crate::exec::{run_batch, run_batch_persisted, BatchResult, ExecConfig, ExecStats, Persist};
use crate::shard::ShardCounters;
use lpo_store::VerdictStore;
use lpo_tv::frozen::{SerialDriver, SweepDriver};
use lpo_tv::prelude::EvalArena;
use lpo_tv::refine::{CompileCache, SourceCache, TvConfig, Verdict};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Configuration of the LPO pipeline.
#[derive(Clone, Debug)]
pub struct LpoConfig {
    /// Maximum LLM attempts per instruction sequence (the paper uses 2).
    pub attempt_limit: usize,
    /// Whether verifier output is fed back for another attempt. Disabling this
    /// yields the LPO⁻ ablation of the paper.
    pub feedback: bool,
    /// Optimization level used for the `opt` preprocessing step.
    pub opt_level: OptLevel,
    /// The target for the interestingness cost comparison.
    pub target: Target,
    /// Translation-validation configuration.
    pub tv: TvConfig,
    /// Fixed per-case verification overhead added to the modelled time
    /// (running `opt`, `llvm-mca` and Alive2 in the paper's setup).
    pub verification_overhead: Duration,
}

impl Default for LpoConfig {
    fn default() -> Self {
        Self {
            attempt_limit: 2,
            feedback: true,
            opt_level: OptLevel::O2,
            target: Target::Btver2Like,
            tv: TvConfig::default(),
            verification_overhead: Duration::from_millis(900),
        }
    }
}

impl LpoConfig {
    /// The LPO⁻ ablation: no feedback-driven retries.
    pub fn without_feedback() -> Self {
        Self { feedback: false, ..Self::default() }
    }
}

/// Shared Stage 3 accounting, aggregated across the worker pool.
#[derive(Debug, Default)]
struct TvCounters {
    candidates: AtomicUsize,
    probe_rejects: AtomicUsize,
    survivors: AtomicUsize,
    plane_sweeps: AtomicUsize,
}

/// Drop guard that folds one case's [`SourceCache`] accounting into the
/// pipeline-wide [`TvCounters`]. Running on `Drop` — not as straight-line
/// code after the attempt loop — is what keeps the counters complete when a
/// case unwinds mid-batch (a panicking model session contained by the
/// engine's per-case `catch_unwind`): the partially-checked candidates are
/// still counted instead of silently dropped.
struct AbsorbTvCounters<'a, 'b> {
    counters: &'a TvCounters,
    case: &'a SourceCache<'b>,
}

impl Drop for AbsorbTvCounters<'_, '_> {
    fn drop(&mut self) {
        self.counters.candidates.fetch_add(self.case.candidates_checked(), Ordering::Relaxed);
        self.counters.probe_rejects.fetch_add(self.case.probe_rejects(), Ordering::Relaxed);
        self.counters.survivors.fetch_add(self.case.survivors(), Ordering::Relaxed);
        self.counters.plane_sweeps.fetch_add(self.case.plane_sweeps(), Ordering::Relaxed);
    }
}

/// A snapshot of Stage 3 (translation validation) accounting: how the
/// staged checker's work split between the cheap probe and the compiled
/// survivor sweep, and what the shared compiled-function cache did.
///
/// `candidates`, `probe_rejects`, `survivors` and `plane_sweeps` count the
/// pairs this pipeline verified afresh. The verdict table's lookups are
/// single-flight, so each distinct pair is counted once, whatever the
/// scheduling: the counts are deterministic for a given batch and the
/// pairs earlier batches already settled. (Pipelines that share one
/// attached store split the pairs between them by scheduling; their sum is
/// deterministic.)
/// `compile_cache_hits` / `compiles` depend on worker interleaving (two
/// workers can race to compile the same digest) and on what earlier batches
/// already cached, `source_freezes` / `freeze_hits` likewise (two workers
/// can race to freeze the same source), and the `shards_*` counters depend
/// on how the work-stealing scheduler interleaved (which worker ran a
/// shard, how far the deque drained before a cut landed) — report them,
/// never compare them across `--jobs` values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TvSnapshot {
    /// Candidates Stage 3 fully checked (signature errors excluded).
    pub candidates: usize,
    /// Candidates refuted inside the probe window — no compile paid.
    pub probe_rejects: usize,
    /// Candidates that survived the probe into compile + survivor sweep.
    pub survivors: usize,
    /// Survivors whose post-probe sweep ran on the type-specialized plane
    /// evaluator (straight-line scalar-integer candidates).
    pub plane_sweeps: usize,
    /// Compiled-function cache hits.
    pub compile_cache_hits: usize,
    /// Compiles performed (cache misses).
    pub compiles: usize,
    /// Sources frozen for the survivor sweep: each one swept every input.
    pub source_freezes: usize,
    /// Freezes served from the pipeline's retained frozen cases instead.
    pub freeze_hits: usize,
    /// Sweep shards executed by the work-stealing scheduler.
    pub shards_executed: usize,
    /// Executed shards that ran on a worker other than their forker.
    pub shards_stolen: usize,
    /// Shards skipped because an earlier sibling shard already refuted.
    pub shard_cancellations: usize,
}

impl TvSnapshot {
    /// The counters accumulated since `earlier` was taken.
    pub fn since(self, earlier: TvSnapshot) -> TvSnapshot {
        TvSnapshot {
            candidates: self.candidates - earlier.candidates,
            probe_rejects: self.probe_rejects - earlier.probe_rejects,
            survivors: self.survivors - earlier.survivors,
            plane_sweeps: self.plane_sweeps - earlier.plane_sweeps,
            compile_cache_hits: self.compile_cache_hits - earlier.compile_cache_hits,
            compiles: self.compiles - earlier.compiles,
            source_freezes: self.source_freezes - earlier.source_freezes,
            freeze_hits: self.freeze_hits - earlier.freeze_hits,
            shards_executed: self.shards_executed - earlier.shards_executed,
            shards_stolen: self.shards_stolen - earlier.shards_stolen,
            shard_cancellations: self.shard_cancellations - earlier.shard_cancellations,
        }
    }

    /// Folds another snapshot's counts into this one (drivers aggregating
    /// several batches).
    pub fn absorb(&mut self, other: TvSnapshot) {
        self.candidates += other.candidates;
        self.probe_rejects += other.probe_rejects;
        self.survivors += other.survivors;
        self.plane_sweeps += other.plane_sweeps;
        self.compile_cache_hits += other.compile_cache_hits;
        self.compiles += other.compiles;
        self.source_freezes += other.source_freezes;
        self.freeze_hits += other.freeze_hits;
        self.shards_executed += other.shards_executed;
        self.shards_stolen += other.shards_stolen;
        self.shard_cancellations += other.shard_cancellations;
    }
}

/// Most sources a pipeline's source table keeps. An entry holds the raw and
/// canonical function, the prompt text and, once built, the cost estimate:
/// a few kilobytes for the sequences LPO serves, so a full table stays in
/// the tens of megabytes. A corpus-discover pass settles 545 sources and
/// Table 2 settles 25. Past the bound, a new source is settled per case, as
/// if the table were not there.
const SOURCE_CAPACITY: usize = 1 << 12;

/// Stage 1's source side, settled once per exact source and shared by every
/// case of that source.
#[derive(Debug)]
struct SettledSource {
    /// The source as submitted: a table hit must equal it exactly.
    raw: Function,
    /// The canonical source — what the prompt prints, what step ④ costs
    /// and what Stage 3 verifies against.
    canonical: Function,
    /// The prompt's source text, printed from `canonical`.
    text: String,
    /// Whether the canonicalization reached a fixpoint.
    fixpoint: bool,
    /// The canonical source's name-exact digest: the source half of every
    /// verdict key, computed when a first candidate reaches step ⑤.
    digest: OnceLock<u64>,
    /// Whether an echo of `text` settles at the text boundary (see step
    /// ③), decided at the first echo.
    echo_settles: OnceLock<bool>,
    /// The step-④ estimate, built the first time a candidate reaches it.
    cost: OnceLock<SourceCost>,
}

/// The source table: raw source → its [`SettledSource`], keyed by the raw
/// source's name-exact digest and confirmed by equality on every hit.
#[derive(Default)]
struct SourceTable {
    entries: Mutex<HashMap<u64, Arc<SettledSource>>>,
}

impl std::fmt::Debug for SourceTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().map(|entries| entries.len()).unwrap_or(0);
        f.debug_struct("SourceTable").field("entries", &entries).finish()
    }
}

impl SourceTable {
    /// The settled form of `source`, canonicalized by `opt` on a miss.
    /// Two workers missing on one source both canonicalize it and the first
    /// to finish is kept: the results are equal, so nothing observable
    /// depends on which.
    fn settle(&self, source: &Function, opt: &Pipeline) -> Arc<SettledSource> {
        let key = hash_function_named(source).0;
        let held = |entries: &HashMap<u64, Arc<SettledSource>>| {
            entries.get(&key).filter(|entry| entry.raw == *source).cloned()
        };
        if let Some(entry) = held(&self.entries.lock().expect("source table poisoned")) {
            return entry;
        }
        let mut canonical = source.clone();
        let fixpoint = opt.run(&mut canonical).fixpoint;
        let entry = Arc::new(SettledSource {
            raw: source.clone(),
            text: print_function(&canonical),
            canonical,
            digest: OnceLock::new(),
            fixpoint,
            echo_settles: OnceLock::new(),
            cost: OnceLock::new(),
        });
        let mut entries = self.entries.lock().expect("source table poisoned");
        if let Some(raced) = held(&entries) {
            return raced;
        }
        if entries.len() < SOURCE_CAPACITY && !entries.contains_key(&key) {
            entries.insert(key, entry.clone());
        }
        entry
    }
}

/// The LPO pipeline.
///
/// Cloning an `Lpo` shares its tables, its Stage 3 compiled-function cache
/// and its counters (they live behind `Arc`s), so a cloned pipeline keeps
/// every source and verdict the original already settled.
#[derive(Clone, Debug)]
pub struct Lpo {
    config: LpoConfig,
    opt: Pipeline,
    tv_cache: Arc<CompileCache>,
    tv_counters: Arc<TvCounters>,
    shard_counters: Arc<ShardCounters>,
    /// Stage 1's source side, once per exact source.
    sources: Arc<SourceTable>,
    /// The verdict table: step ⑤ once per (source, candidate) pair. An
    /// in-memory store unless a durable one is attached.
    verdicts: Arc<VerdictStore>,
}

impl Default for Lpo {
    fn default() -> Self {
        Self::new(LpoConfig::default())
    }
}

impl Lpo {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: LpoConfig) -> Self {
        let opt = Pipeline::new(config.opt_level);
        Self {
            config,
            opt,
            tv_cache: Arc::new(CompileCache::new()),
            tv_counters: Arc::new(TvCounters::default()),
            shard_counters: Arc::new(ShardCounters::new()),
            sources: Arc::new(SourceTable::default()),
            verdicts: Arc::new(VerdictStore::in_memory()),
        }
    }

    /// Makes a durable [`VerdictStore`] this pipeline's verdict table, in
    /// place of its in-memory one: every Stage-3 verdict the pipeline
    /// computes is recorded there, and a pair whose verdict is already
    /// stored (same name-exact digests, same pipeline revision) replays it
    /// without re-sweeping. Replayed verdicts are byte-identical to fresh
    /// ones — including counterexample feedback — so results do not depend
    /// on the store being warm, cold, or absent (`tests/determinism.rs`
    /// pins this). Pipelines sharing one store share its verdicts.
    pub fn with_verdict_store(mut self, store: Arc<VerdictStore>) -> Self {
        self.verdicts = store;
        self
    }

    /// The verdict table: the attached store, or the pipeline's own
    /// in-memory one.
    pub fn verdict_store(&self) -> &Arc<VerdictStore> {
        &self.verdicts
    }

    /// The active configuration.
    pub fn config(&self) -> &LpoConfig {
        &self.config
    }

    /// The shared Stage 3 compiled-function cache (one per pipeline,
    /// shared by every worker and every batch this pipeline runs).
    pub fn compile_cache(&self) -> &CompileCache {
        &self.tv_cache
    }

    /// The Stage 3 accounting accumulated by this pipeline so far. Batch
    /// drivers take a snapshot before and after a run and report the
    /// [`TvSnapshot::since`] delta.
    pub fn tv_snapshot(&self) -> TvSnapshot {
        let shards = self.shard_counters.snapshot();
        TvSnapshot {
            candidates: self.tv_counters.candidates.load(Ordering::Relaxed),
            probe_rejects: self.tv_counters.probe_rejects.load(Ordering::Relaxed),
            survivors: self.tv_counters.survivors.load(Ordering::Relaxed),
            plane_sweeps: self.tv_counters.plane_sweeps.load(Ordering::Relaxed),
            compile_cache_hits: self.tv_cache.hits(),
            compiles: self.tv_cache.misses(),
            source_freezes: self.tv_cache.freezes(),
            freeze_hits: self.tv_cache.freeze_hits(),
            shards_executed: shards.executed,
            shards_stolen: shards.stolen,
            shard_cancellations: shards.cancellations,
        }
    }

    /// The pipeline-wide shard-scheduler counters. The execution engine's
    /// [`crate::shard::ShardRuntime`]s accumulate into these so that
    /// [`tv_snapshot`](Self::tv_snapshot) deltas cover shard accounting too.
    pub fn shard_counters(&self) -> &Arc<ShardCounters> {
        &self.shard_counters
    }

    /// Runs Algorithm 1's inner loop on one wrapped instruction sequence,
    /// driving one per-case model session, with a throwaway evaluation arena
    /// and the Stage-3 survivor sweep as one shard on the caller's thread:
    /// [`optimize_sequence_sharded`](Self::optimize_sequence_sharded) with
    /// [`SerialDriver`] and `usize::MAX`.
    ///
    /// The translation-validation stage keeps one [`SourceCache`] for the
    /// whole case: test inputs are generated once per signature and the
    /// source function is evaluated once per input, no matter how many
    /// candidate rewrites the feedback loop verifies.
    pub fn optimize_sequence(&self, model: &mut dyn ModelSession, source: &Function) -> CaseReport {
        let arena = &mut EvalArena::new();
        self.optimize_sequence_sharded(model, source, arena, &SerialDriver, usize::MAX)
    }

    /// [`optimize_sequence`](Self::optimize_sequence) on the worker's
    /// long-lived evaluation `arena`, with the Stage-3 survivor sweep
    /// decomposed into shards of `shard_size` inputs driven through `driver`
    /// (the execution engine passes a [`crate::shard::RuntimeSweepDriver`]
    /// so idle workers steal them).
    ///
    /// Verdicts, counterexamples and the per-case TV counters other than
    /// `plane_sweeps` are identical for every driver and shard size;
    /// `plane_sweeps` deterministically counts survivors whose *first*
    /// post-probe shard used the plane evaluator, so it depends on the
    /// shard size alone.
    pub fn optimize_sequence_sharded(
        &self,
        model: &mut dyn ModelSession,
        source: &Function,
        arena: &mut EvalArena,
        driver: &dyn SweepDriver,
        shard_size: usize,
    ) -> CaseReport {
        let start = Instant::now();
        // Stage 1, source side, **once per source**: canonicalize the
        // sequence the way `opt` would before anything downstream sees it,
        // and print the prompt from the canonical form. Extracted corpus
        // sequences are pre-filtered to canonical fixpoints, so this is a
        // cheap confirmation pass there; it guarantees the prompt, the
        // interestingness baseline and the TV source cache all agree on one
        // canonical source, no matter how many candidates the loop verifies.
        let settled = self.sources.settle(source, &self.opt);
        let source = &settled.canonical;
        let mut prompt = Prompt::initial(settled.text.clone());
        let mut modeled = Duration::ZERO;
        let mut cost = 0.0;
        let mut attempts = 0;
        let mut last_outcome = CaseOutcome::NotInteresting;
        let mut last_tier = None;
        let mut store_hits = 0;
        // Lazy: cases that never reach a fresh step ⑤ (syntax errors,
        // uninteresting candidates, verdict-table hits) pay nothing for input
        // generation or source evaluation. Probe survivors compile through
        // the pipeline-wide cache.
        let tv_case =
            SourceCache::new(source, self.config.tv.clone()).with_compile_cache(&self.tv_cache);
        // Absorb the case's TV accounting into the pipeline-wide counters on
        // every exit path — normal returns, early `break`s, and unwinds from
        // a panicking model session (the engine's per-case `catch_unwind`
        // catches those *outside* this frame, so only a drop guard runs).
        let _absorb = AbsorbTvCounters { counters: &self.tv_counters, case: &tv_case };
        let version = store_version();

        while attempts < self.config.attempt_limit {
            attempts += 1;
            // The report's tier describes the *final* outcome: reset it so a
            // late syntax error doesn't inherit an earlier attempt's tier.
            last_tier = None;
            let completion = match model.try_propose(&prompt) {
                Ok(completion) => completion,
                Err(fault) => {
                    // The session's failure model gave up on this case (its
                    // retry budget is inside `try_propose`). Fail the case,
                    // keep the run alive.
                    last_outcome = CaseOutcome::Failed { error: fault.to_string() };
                    break;
                }
            };
            modeled += completion.latency + self.config.verification_overhead;
            cost += completion.cost_usd;

            // Step ③ at the text boundary: a completion that echoes the
            // prompt's source text is the source itself. When the source
            // verifies and its canonicalization stopped at a fixpoint, the
            // echo would parse back to it, pass the verifier, leave `-O2`
            // unchanged and classify `Identical` at step ④, so it ends the
            // case as uninteresting here. Otherwise it takes the full path:
            // a source that fails the verifier yields a syntax error with
            // the verifier's message as feedback, as for any candidate.
            if completion.text == prompt.source_text
                && *settled
                    .echo_settles
                    .get_or_init(|| settled.fixpoint && verify_function(source).is_ok())
            {
                last_outcome = CaseOutcome::NotInteresting;
                break;
            }

            // Step ③: the `opt` preprocessing — parse once at the LLM text
            // boundary, then verify + canonicalize the `Function` value
            // directly (no re-print round-trip).
            let candidate = match parse_function(&completion.text)
                .map_err(|e| e.to_string())
                .and_then(|mut func| optimize_function(&mut func, &self.opt).map(|_| func))
            {
                Err(error_message) => {
                    last_outcome = CaseOutcome::SyntaxError;
                    if self.config.feedback && attempts < self.config.attempt_limit {
                        prompt = prompt.with_feedback(error_message);
                        continue;
                    }
                    break;
                }
                Ok(func) => func,
            };

            // Step ④: interestingness against the source estimate, built
            // once per source on first use. An uninteresting candidate
            // abandons the sequence (no retry), as in Algorithm 1 line 16.
            let source_cost =
                settled.cost.get_or_init(|| SourceCost::new(source, self.config.target));
            if !source_cost.is_interesting(&candidate) {
                last_outcome = CaseOutcome::NotInteresting;
                break;
            }

            // Step ⑤: correctness via translation validation, once per
            // (source, candidate) pair on this pipeline. The verdict table
            // replays a pair any case, worker or batch already settled, and
            // records a fresh verdict as it is swept. Stored verdicts
            // round-trip exactly (counterexamples included), so the feedback
            // loop below cannot tell a replay from a sweep.
            let src_digest = *settled.digest.get_or_init(|| hash_function_named(source).0);
            let tgt_digest = hash_function_named(&candidate).0;
            let sweep = |arena: &mut EvalArena| {
                let fresh = tv_case.verify_with_driver(&candidate, arena, driver, shard_size);
                encode_verdict(&fresh, tv_case.last_tier())
            };
            let (blob, hit) =
                self.verdicts.verdict_or_record(&version, src_digest, tgt_digest, || sweep(arena));
            store_hits += usize::from(hit);
            // A stored blob that does not decode is never trusted: sweep
            // again and overwrite it.
            let (verdict, tier) = decode_verdict(&blob).unwrap_or_else(|| {
                let fresh = sweep(arena);
                self.verdicts.record_verdict(&version, src_digest, tgt_digest, &fresh);
                decode_verdict(&fresh).expect("fresh verdict blobs round-trip")
            });
            last_tier = tier;
            match verdict {
                Verdict::Correct { .. } => {
                    last_outcome = CaseOutcome::Found { candidate };
                    break;
                }
                Verdict::Incorrect(cex) => {
                    last_outcome = CaseOutcome::Rejected;
                    if self.config.feedback && attempts < self.config.attempt_limit {
                        prompt = prompt.with_feedback(cex.to_string());
                        continue;
                    }
                    break;
                }
                Verdict::Error(message) => {
                    last_outcome = CaseOutcome::Rejected;
                    if self.config.feedback && attempts < self.config.attempt_limit {
                        prompt = prompt.with_feedback(message);
                        continue;
                    }
                    break;
                }
            }
        }

        CaseReport {
            outcome: last_outcome,
            attempts,
            wall_time: start.elapsed(),
            modeled_time: modeled,
            cost_usd: cost,
            tier: last_tier,
            store_hits,
        }
    }

    /// Runs the pipeline over a batch of already-extracted sequences on the
    /// parallel execution engine (see [`crate::exec`]).
    ///
    /// Each unique sequence gets its own session from `factory`, seeded by
    /// `(round, index of its first occurrence)`; structural duplicates are
    /// replayed from the dedup cache. Results come back in input order and
    /// are bit-identical for every worker count.
    pub fn run_sequences(
        &self,
        factory: &dyn ModelFactory,
        round: u64,
        sequences: &[Function],
        exec: &ExecConfig,
    ) -> BatchResult {
        run_batch(self, factory, round, sequences, exec)
    }

    /// [`run_sequences`](Self::run_sequences) with checkpoint/resume: every
    /// completed case is recorded into `persist.store` under
    /// `(run key, round, case index, input digest)`, and with
    /// [`Persist::resume`] set, already-recorded cases replay their
    /// checkpointed report instead of recomputing (see [`crate::exec`]).
    pub fn run_sequences_persisted(
        &self,
        factory: &dyn ModelFactory,
        round: u64,
        sequences: &[Function],
        exec: &ExecConfig,
        persist: Option<&Persist<'_>>,
    ) -> BatchResult {
        run_batch_persisted(self, factory, round, sequences, exec, persist)
    }

    /// The full workflow of Figure 2: extract sequences from a corpus of
    /// modules, then fan the optimize–verify loop over the unique sequences
    /// on the execution engine.
    pub fn run_corpus<'m>(
        &self,
        factory: &dyn ModelFactory,
        round: u64,
        modules: impl IntoIterator<Item = &'m Module>,
        extract: ExtractConfig,
        exec: &ExecConfig,
    ) -> (Vec<(ExtractedSequence, CaseReport)>, RunSummary, ExecStats) {
        let mut extractor = Extractor::new(extract);
        let sequences = extractor.extract_corpus(modules);
        let functions: Vec<Function> = sequences.iter().map(|s| s.function.clone()).collect();
        let batch = run_batch(self, factory, round, &functions, exec);
        let out: Vec<(ExtractedSequence, CaseReport)> =
            sequences.into_iter().zip(batch.reports).collect();
        (out, batch.summary, batch.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::{parse_function, parse_module};
    use lpo_llm::prelude::{gemini2_0t, gemma3, SimulatedModel, SimulatedModelFactory};

    const CLAMP: &str = "define i8 @src(i32 %0) {\n\
        %2 = icmp slt i32 %0, 0\n\
        %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
        %4 = trunc nuw i32 %3 to i8\n\
        %5 = select i1 %2, i8 0, i8 %4\n\
        ret i8 %5\n}";

    fn count_found(config: LpoConfig, profile: lpo_llm::profiles::ModelProfile, rounds: u64) -> usize {
        let lpo = Lpo::new(config);
        let src = parse_function(CLAMP).unwrap();
        let mut found = 0;
        for round in 0..rounds {
            let mut model = SimulatedModel::for_case(profile.clone(), 99, round, 0);
            if lpo.optimize_sequence(&mut model, &src).outcome.is_found() {
                found += 1;
            }
        }
        found
    }

    #[test]
    fn finds_the_figure_1_missed_optimization_with_a_strong_model() {
        let found = count_found(LpoConfig::default(), gemini2_0t(), 10);
        assert!(found >= 6, "found only {found}/10");
    }

    #[test]
    fn weak_models_find_less_and_feedback_helps() {
        let with_feedback = count_found(LpoConfig::default(), gemini2_0t(), 24);
        let without_feedback = count_found(LpoConfig::without_feedback(), gemini2_0t(), 24);
        assert!(
            with_feedback >= without_feedback,
            "LPO ({with_feedback}) must not be worse than LPO- ({without_feedback})"
        );
        let weak = count_found(LpoConfig::default(), gemma3(), 10);
        let strong = count_found(LpoConfig::default(), gemini2_0t(), 10);
        assert!(weak <= strong);
    }

    #[test]
    fn found_candidates_are_verified_and_cheaper() {
        let lpo = Lpo::new(LpoConfig::default());
        let src = parse_function(CLAMP).unwrap();
        for round in 0..20 {
            let mut model = SimulatedModel::for_case(gemini2_0t(), 7, round, 0);
            let report = lpo.optimize_sequence(&mut model, &src);
            if let CaseOutcome::Found { candidate } = report.outcome {
                assert!(candidate.instruction_count() < src.instruction_count());
                assert!(lpo_tv::refine::verify_refinement(&src, &candidate).is_correct());
                assert!(report.modeled_time > Duration::from_millis(500));
                return;
            }
        }
        panic!("the strong model never produced a verified candidate in 20 rounds");
    }

    #[test]
    fn uninteresting_sequences_are_abandoned_quickly() {
        let lpo = Lpo::new(LpoConfig::default());
        let src = parse_function(
            "define i32 @f(i32 %x, i32 %y) {\n %a = mul i32 %x, %y\n %b = add i32 %a, %y\n ret i32 %b\n}",
        )
        .unwrap();
        let mut model = SimulatedModel::new(gemini2_0t(), 3);
        let report = lpo.optimize_sequence(&mut model, &src);
        assert_eq!(report.outcome, CaseOutcome::NotInteresting);
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn full_corpus_workflow_runs_end_to_end() {
        let module = parse_module(
            "define i8 @hot(i32 %x) {\n\
             %c = icmp slt i32 %x, 0\n\
             %m = call i32 @llvm.umin.i32(i32 %x, i32 255)\n\
             %t = trunc nuw i32 %m to i8\n\
             %s = select i1 %c, i8 0, i8 %t\n\
             ret i8 %s\n}\n\
             define i32 @cold(i32 %x, i32 %y) {\n\
             %a = mul i32 %x, %y\n\
             %b = add i32 %a, %y\n\
             ret i32 %b\n}",
        )
        .unwrap();
        let lpo = Lpo::new(LpoConfig::default());
        let factory = SimulatedModelFactory::new(gemini2_0t(), 5);
        let (results, summary, stats) =
            lpo.run_corpus(&factory, 0, [&module], ExtractConfig::default(), &ExecConfig::default());
        assert_eq!(results.len(), summary.cases);
        assert_eq!(stats.cases, summary.cases);
        assert!(summary.cases >= 2);
        assert!(summary.total_modeled_time > Duration::ZERO);
    }

    #[test]
    fn config_accessors() {
        let lpo = Lpo::default();
        assert_eq!(lpo.config().attempt_limit, 2);
        assert!(lpo.config().feedback);
        assert!(!LpoConfig::without_feedback().feedback);
    }
}
