//! The traced replay of an engine batch.
//!
//! `Lpo::run_sequences` runs each case's attempt loop inside the engine,
//! where no outside observer can split it by layer. The traced run replays
//! the same batch through the public calls the engine makes — dedup plan,
//! shard runtime, model session, `Pipeline::run`, `SourceCost`,
//! `print_function`, `try_propose`, `parse_function`, `optimize_function`,
//! `SourceCache::verify_with_driver` and the `SourceCache` drop — with a span
//! around each. The replay must produce the same case reports as the engine;
//! the workloads check that by fingerprint.

use crate::timing::SpanDriver;
use crate::trace::{CaseTrace, Recorder, SpanTotals};
use crate::workload::TraceCtx;
use lpo::interestingness::SourceCost;
use lpo::prelude::{
    shard_work_units, CaseOutcome, CaseReport, DedupPlan, ExecConfig, Lpo, RuntimeSweepDriver,
    ShardRuntime, DEFAULT_SHARD_SIZE,
};
use lpo_ir::function::Function;
use lpo_ir::hash::hash_function;
use lpo_ir::parser::parse_function;
use lpo_ir::printer::print_function;
use lpo_llm::model::{ModelFactory, ModelSession, Prompt};
use lpo_opt::pipeline::{optimize_function, Pipeline};
use lpo_tv::frozen::SweepDriver;
use lpo_tv::prelude::{input_count, EvalArena};
use lpo_tv::refine::{SourceCache, Verdict};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Stage-1/2/3 counts of one replayed case, or summed over many.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseCounts {
    pub candidates: u64,
    pub proved: u64,
    pub absint_refuted: u64,
    pub probe_rejects: u64,
    pub survivors: u64,
    pub source_evals: u64,
    pub syntax_errors: u64,
    pub not_interesting: u64,
    /// Cases that ended `Found`.
    pub found: u64,
}

impl CaseCounts {
    fn add(&mut self, other: CaseCounts) {
        self.candidates += other.candidates;
        self.proved += other.proved;
        self.absint_refuted += other.absint_refuted;
        self.probe_rejects += other.probe_rejects;
        self.survivors += other.survivors;
        self.source_evals += other.source_evals;
        self.syntax_errors += other.syntax_errors;
        self.not_interesting += other.not_interesting;
        self.found += other.found;
    }
}

/// Everything the traced passes of a workload accumulate.
#[derive(Debug, Default)]
pub struct LayerTally {
    pub spans: SpanTotals,
    pub counts: CaseCounts,
    /// Cases whose candidates reached Stage 3.
    pub stage3_cases: u64,
    pub unique_cases: u64,
    pub dedup_hits: u64,
    pub compiles: u64,
    pub compile_cache_hits: u64,
    /// Σ over passes of the distinct (source, input) pairs whose source
    /// outcomes Stage 3 needed: the denominator of `tv.source_eval_ratio`.
    pub distinct_source_inputs: u64,
    /// Input count per distinct canonical source (by digest) that reached
    /// Stage 3 in the current pass.
    pass_sources: BTreeMap<u64, u64>,
    /// Case traces kept for the trace file (the first traced pass).
    pub kept: Vec<CaseTrace>,
}

impl LayerTally {
    /// Folds a replayed batch in and returns its reports; `keep` retains its
    /// spans for the trace file.
    pub fn absorb_batch(&mut self, batch: ReplayBatch, keep: bool) -> Vec<CaseReport> {
        self.unique_cases += batch.cases.len() as u64;
        self.dedup_hits += batch.dedup_hits as u64;
        for case in batch.cases {
            self.spans.absorb(&case.trace);
            self.counts.add(case.counts);
            if let Some((digest, inputs)) = case.stage3_source {
                self.stage3_cases += 1;
                self.pass_sources.insert(digest, inputs);
            }
            if keep {
                self.kept.push(case.trace);
            }
        }
        batch.reports
    }

    /// Closes a pass that ran on the fresh pipelines `lpos`.
    pub fn end_pass(&mut self, lpos: &[Lpo]) {
        for lpo in lpos {
            self.compiles += lpo.compile_cache().misses() as u64;
            self.compile_cache_hits += lpo.compile_cache().hits() as u64;
        }
        self.distinct_source_inputs += self.pass_sources.values().sum::<u64>();
        self.pass_sources.clear();
    }
}

/// One replayed case, as a replay batch hands it back.
pub struct ReplayedCase {
    pub trace: CaseTrace,
    pub counts: CaseCounts,
    /// For a case whose candidates reached Stage 3: its canonical source's
    /// structural digest and test-input count.
    pub stage3_source: Option<(u64, u64)>,
}

/// A replayed batch: reports in input order plus the per-case traces of the
/// computed (unique) cases.
pub struct ReplayBatch {
    pub reports: Vec<CaseReport>,
    pub cases: Vec<ReplayedCase>,
    pub dedup_hits: usize,
}

/// Replays `Lpo::run_sequences(factory, round, sequences, &ExecConfig::with_jobs(jobs))`
/// with spans recorded against `ctx`.
pub fn replay_batch(
    lpo: &Lpo,
    opt: &Pipeline,
    factory: &dyn ModelFactory,
    round: u64,
    sequences: &[Function],
    jobs: usize,
    ctx: &TraceCtx,
) -> ReplayBatch {
    let plan = DedupPlan::new(sequences, true);
    let unique = plan.unique_indices();
    let work = shard_work_units(lpo, sequences, unique, DEFAULT_SHARD_SIZE);
    let runtime = ShardRuntime::new(
        ExecConfig::with_jobs(jobs).effective_jobs(work),
        lpo.shard_counters().clone(),
    );
    let driver = RuntimeSweepDriver::new(runtime.clone());
    let computed = runtime.run_cases(unique.len(), |slot, arena| {
        let index = unique[slot];
        let recorder = Recorder::new(ctx.epoch, "case");
        let mut session = recorder.time("llm.session", || factory.session(round, index as u64));
        let (report, canonical, counts) = replay_case(
            lpo,
            opt,
            session.as_mut(),
            &sequences[index],
            arena,
            &driver,
            &recorder,
        );
        recorder.time("llm.session", || drop(session));
        let trace = recorder.finish(ctx.next_case.fetch_add(1, Ordering::Relaxed));
        let stage3_source = (counts.candidates > 0).then(|| {
            let inputs = input_count(&canonical, &lpo.config().tv.inputs) as u64;
            (hash_function(&canonical).0, inputs)
        });
        let case = ReplayedCase {
            trace,
            counts,
            stage3_source,
        };
        (report, case)
    });
    let slot_of: BTreeMap<usize, usize> = unique
        .iter()
        .enumerate()
        .map(|(slot, &index)| (index, slot))
        .collect();
    let reports = (0..sequences.len())
        .map(|index| computed[slot_of[&plan.representative(index)]].0.clone())
        .collect();
    ReplayBatch {
        reports,
        dedup_hits: plan.cache_hits(),
        cases: computed.into_iter().map(|(_, case)| case).collect(),
    }
}

/// Algorithm 1's attempt loop for one case, as `Lpo` runs it on the engine
/// (no verdict store attached), with a span around every layer call.
fn replay_case(
    lpo: &Lpo,
    opt: &Pipeline,
    session: &mut dyn ModelSession,
    source: &Function,
    arena: &mut EvalArena,
    driver: &dyn SweepDriver,
    rec: &Recorder,
) -> (CaseReport, Function, CaseCounts) {
    let config = lpo.config();
    let start = Instant::now();
    let canonical = rec.time("opt.source", || {
        let mut canonical = source.clone();
        opt.run(&mut canonical);
        canonical
    });
    let source = &canonical;
    let source_cost = rec.time("mca.source_cost", || SourceCost::new(source, config.target));
    let mut prompt = rec.time("ir.print", || Prompt::initial(print_function(source)));
    let mut counts = CaseCounts::default();
    let mut modeled = Duration::ZERO;
    let mut cost = 0.0;
    let mut attempts = 0;
    let mut outcome = CaseOutcome::NotInteresting;
    let mut tier = None;
    let tv_case = rec.time("tv.cache", || {
        SourceCache::new(source, config.tv.clone()).with_compile_cache(lpo.compile_cache())
    });
    let timed_driver = SpanDriver {
        inner: driver,
        recorder: rec,
    };
    let retry = |attempts: usize| config.feedback && attempts < config.attempt_limit;

    while attempts < config.attempt_limit {
        attempts += 1;
        tier = None;
        let completion = match rec.time("llm.propose", || session.try_propose(&prompt)) {
            Ok(completion) => completion,
            Err(fault) => {
                outcome = CaseOutcome::Failed {
                    error: fault.to_string(),
                };
                break;
            }
        };
        modeled += completion.latency + config.verification_overhead;
        cost += completion.cost_usd;

        let candidate = rec
            .time("ir.parse", || parse_function(&completion.text))
            .map_err(|e| e.to_string())
            .and_then(|mut func| {
                rec.time("opt.candidate", || optimize_function(&mut func, opt))
                    .map(|_| func)
            });
        let candidate = match candidate {
            Ok(func) => func,
            Err(message) => {
                counts.syntax_errors += 1;
                outcome = CaseOutcome::SyntaxError;
                if retry(attempts) {
                    prompt = rec.time("llm.prompt", || prompt.with_feedback(message));
                    continue;
                }
                break;
            }
        };

        if !rec.time("mca.classify", || source_cost.is_interesting(&candidate)) {
            counts.not_interesting += 1;
            outcome = CaseOutcome::NotInteresting;
            break;
        }

        let verdict = rec.time("tv.verify", || {
            tv_case.verify_with_driver(&candidate, arena, &timed_driver, DEFAULT_SHARD_SIZE)
        });
        tier = tv_case.last_tier();
        match verdict {
            Verdict::Correct { .. } => {
                outcome = CaseOutcome::Found { candidate };
                break;
            }
            Verdict::Incorrect(cex) => {
                outcome = CaseOutcome::Rejected;
                if !retry(attempts) {
                    break;
                }
                prompt = rec.time("llm.prompt", || prompt.with_feedback(cex.to_string()));
            }
            Verdict::Error(message) => {
                outcome = CaseOutcome::Rejected;
                if !retry(attempts) {
                    break;
                }
                prompt = rec.time("llm.prompt", || prompt.with_feedback(message));
            }
        }
    }

    let report = CaseReport {
        outcome,
        attempts,
        wall_time: start.elapsed(),
        modeled_time: modeled,
        cost_usd: cost,
        tier,
        store_hits: 0,
    };
    counts.candidates = tv_case.candidates_checked() as u64;
    counts.proved = tv_case.proved() as u64;
    counts.absint_refuted = tv_case.absint_refuted() as u64;
    counts.probe_rejects = tv_case.probe_rejects() as u64;
    counts.survivors = tv_case.survivors() as u64;
    counts.source_evals = tv_case.source_eval_count() as u64;
    counts.found = u64::from(report.outcome.is_found());
    rec.time("tv.teardown", move || drop(tv_case));
    (report, canonical, counts)
}
