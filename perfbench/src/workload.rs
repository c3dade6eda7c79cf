//! What the workloads share: run arguments, the traced-pass context, the
//! timed pass loop, and the per-layer metrics every replay-based workload
//! derives from its tally.

use crate::metrics::{median, quantile, ratio, Measured};
use crate::replay::LayerTally;
use crate::timing::LlmCounters;
use crate::trace::{check_coverage, write_trace_file};
use lpo::prelude::{CaseReport, LpoConfig};
use lpo_ir::function::Function;
use lpo_ir::hash::hash_function;
use lpo_minotaur::MinotaurResult;
use lpo_opt::pipeline::Pipeline;
use lpo_souper::{SouperConfig, SouperResult};
use lpo_tv::refine::verify_refinement;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker threads of the load generator, and the `jobs` of the engine and
/// baseline calls it makes: one per core of a two-core host.
pub const THREADS: usize = 2;

/// How one workload run is parameterized.
#[derive(Clone, Debug)]
pub struct Args {
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Tiny inputs, for the self tests.
    pub tiny: bool,
    /// Where a traced run writes its spans (`None`: no trace file).
    pub trace_file: Option<PathBuf>,
}

/// State shared by the traced passes of one run.
pub struct TraceCtx {
    pub epoch: Instant,
    pub next_case: AtomicU64,
    pub tally: Mutex<LayerTally>,
    pub llm: Arc<LlmCounters>,
}

impl TraceCtx {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_case: AtomicU64::new(0),
            tally: Mutex::new(LayerTally::default()),
            llm: Arc::new(LlmCounters::default()),
        }
    }

    pub fn tally(&self) -> std::sync::MutexGuard<'_, LayerTally> {
        self.tally.lock().expect("trace tally poisoned")
    }
}

/// What one pass of a pass-based workload produced.
pub struct Pass {
    /// Case reports, one list per engine batch shape (checked list by list
    /// against the reference pass).
    pub reports: Vec<Vec<CaseReport>>,
    /// Wall seconds of the discovery (`run_sequences`) phase.
    pub lpo_s: f64,
    /// Request latencies of the pass, in ms.
    pub latencies_ms: Vec<f64>,
    pub baselines: Baselines,
}

impl Pass {
    fn cases(&self) -> usize {
        self.reports.iter().map(Vec::len).sum()
    }

    fn cases_per_s(&self) -> f64 {
        crate::metrics::rate(self.cases() as f64, self.lpo_s)
    }

    fn baseline_per_s(&self) -> f64 {
        crate::metrics::rate(self.baselines.searches() as f64, self.baselines.seconds())
    }
}

/// A workload that repeats one pass over fixed inputs: `rq1-detect` and
/// `corpus-discover`.
pub trait PassWorkload: Sync {
    /// Runs one pass; with a trace context, through the traced replay
    /// (`keep` retains the pass's spans for the trace file).
    fn pass(&self, trace: Option<(&TraceCtx, bool)>) -> Pass;

    /// The source function of every report, list by list.
    fn sources(&self) -> Vec<Vec<&Function>>;
}

/// Runs `pass` until `seconds` have elapsed (at least once) and returns every
/// pass's result.
fn timed_passes(seconds: f64, mut pass: impl FnMut(usize) -> Pass) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass(passes.len()));
    }
    passes
}

/// The median over passes of a per-pass rate, so that a pass caught in a
/// burst of host CPU contention does not move the figure.
fn pass_rate(passes: &[Pass], rate: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(rate).collect::<Vec<_>>())
}

/// The `q`-quantile of request latency: per pass and then the median over
/// passes when every pass holds many requests, pooled over passes otherwise.
fn latency(passes: &[Pass], q: f64) -> f64 {
    if passes.iter().all(|p| p.latencies_ms.len() >= 100) {
        median(
            &passes
                .iter()
                .map(|p| quantile(&p.latencies_ms, q))
                .collect::<Vec<_>>(),
        )
    } else {
        quantile(
            &passes
                .iter()
                .flat_map(|p| p.latencies_ms.clone())
                .collect::<Vec<_>>(),
            q,
        )
    }
}

/// Measures a pass workload: an untimed reference pass whose `Found`
/// candidates are re-verified independently, then timed passes for the
/// window, each checked against the reference. A traced run splits the
/// window into an untraced half and a traced half.
pub fn run_passes(workload: &impl PassWorkload, m: &mut Measured, args: &Args, what: &str) {
    let reference = workload.pass(None);
    let fingerprints: Vec<Vec<String>> = reference
        .reports
        .iter()
        .map(|reports| reports.iter().map(CaseReport::fingerprint).collect())
        .collect();
    for (sources, reports) in workload.sources().iter().zip(&reference.reports) {
        verify_found(m, sources, reports);
    }
    let check = |m: &mut Measured, pass: &Pass| {
        for (want, got) in fingerprints.iter().zip(&pass.reports) {
            check_reports(m, what, want, got);
        }
        pass.baselines.check(m, what, &reference.baselines);
        m.attempted += (pass.cases() + pass.baselines.searches()) as u64;
    };

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = timed_passes(window, |_| workload.pass(None));
    untraced.iter().for_each(|pass| check(m, pass));
    let cases_per_s = pass_rate(&untraced, Pass::cases_per_s);
    if !args.trace {
        let requests: usize = untraced.iter().map(|p| p.latencies_ms.len()).sum();
        m.note(format!(
            "{requests} requests over {} passes",
            untraced.len()
        ));
        m.set("cases_per_s", cases_per_s);
        m.set("latency_p50_ms", latency(&untraced, 0.50));
        m.set("latency_p95_ms", latency(&untraced, 0.95));
        m.set(
            "baseline_cases_per_s",
            pass_rate(&untraced, Pass::baseline_per_s),
        );
        return;
    }

    let ctx = TraceCtx::new();
    let traced = timed_passes(window, |index| workload.pass(Some((&ctx, index == 0))));
    traced.iter().for_each(|pass| check(m, pass));
    report_tally(m, args, &ctx, traced.len());
    report_baselines(m, traced.iter().map(|p| &p.baselines), traced.len());
    m.set(
        "trace.overhead_frac",
        1.0 - pass_rate(&traced, Pass::cases_per_s) / cases_per_s,
    );
    m.set("proc.peak_rss_mb", crate::metrics::peak_rss_mb());
}

/// Compares a pass's case reports with the reference pass by fingerprint,
/// records every mismatch and every `Failed` case as a failed operation, and
/// checks that the pass found exactly as many candidates.
fn check_reports(m: &mut Measured, what: &str, reference: &[String], reports: &[CaseReport]) {
    for (index, (want, report)) in reference.iter().zip(reports).enumerate() {
        if report.outcome.is_failed() {
            m.fail(format!(
                "{what}: case {index} failed: {}",
                report.fingerprint()
            ));
        } else if *want != report.fingerprint() {
            m.fail(format!(
                "{what}: case {index} fingerprint differs from the reference pass"
            ));
        }
    }
    if reference.len() != reports.len() {
        m.fail(format!(
            "{what}: {} reports, reference has {}",
            reports.len(),
            reference.len()
        ));
    }
    // `tv.found` must repeat exactly from pass to pass.
    let want = reference
        .iter()
        .filter(|print| print.starts_with("outcome=found:"))
        .count();
    let got = reports
        .iter()
        .filter(|report| report.outcome.is_found())
        .count();
    if want != got {
        m.problem(format!(
            "{what}: a pass found {got}, the reference pass {want}"
        ));
    }
}

/// Re-verifies every distinct `Found` candidate of a reference pass against
/// its canonical source with a fresh, uncached translation validator.
fn verify_found(m: &mut Measured, sources: &[&Function], reports: &[CaseReport]) {
    let opt = Pipeline::new(LpoConfig::default().opt_level);
    let mut checked = BTreeSet::new();
    for (source, report) in sources.iter().zip(reports) {
        let lpo::prelude::CaseOutcome::Found { candidate } = &report.outcome else {
            continue;
        };
        if !checked.insert((hash_function(source).0, hash_function(candidate).0)) {
            continue;
        }
        let mut canonical = (*source).clone();
        opt.run(&mut canonical);
        if !verify_refinement(&canonical, candidate).is_correct() {
            m.fail(format!(
                "Found candidate does not refine its source:\n{}",
                lpo_ir::printer::print_function(candidate)
            ));
        }
    }
}

/// One round of baseline searches: Souper at each configured level, then
/// Minotaur, over the same functions.
#[derive(Default)]
pub struct Baselines {
    /// One result list per Souper configuration.
    pub souper: Vec<Vec<SouperResult>>,
    pub souper_s: f64,
    pub minotaur: Vec<MinotaurResult>,
    pub minotaur_s: f64,
}

impl Baselines {
    pub fn run(functions: &[Function], souper: &[SouperConfig], jobs: usize) -> Self {
        let start = Instant::now();
        let souper = souper
            .iter()
            .map(|config| lpo_souper::superoptimize_batch(functions, config, jobs))
            .collect();
        let souper_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let minotaur = lpo_minotaur::superoptimize_batch(functions, jobs);
        Self {
            souper,
            souper_s,
            minotaur,
            minotaur_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Appends another round's searches and times.
    pub fn absorb(&mut self, other: Baselines) {
        self.souper.extend(other.souper);
        self.souper_s += other.souper_s;
        self.minotaur.extend(other.minotaur);
        self.minotaur_s += other.minotaur_s;
    }

    pub fn searches(&self) -> usize {
        self.souper.iter().map(Vec::len).sum::<usize>() + self.minotaur.len()
    }

    pub fn seconds(&self) -> f64 {
        self.souper_s + self.minotaur_s
    }

    /// Records every search whose outcome differs from `reference`'s.
    pub fn check(&self, m: &mut Measured, what: &str, reference: &Baselines) {
        let souper = reference
            .souper
            .iter()
            .flatten()
            .zip(self.souper.iter().flatten());
        for (want, got) in souper {
            if want.outcome != got.outcome || want.found_at_depth != got.found_at_depth {
                m.fail(format!(
                    "{what}: a Souper search differs from the reference"
                ));
            }
        }
        for (want, got) in reference.minotaur.iter().zip(&self.minotaur) {
            if want.outcome != got.outcome {
                m.fail(format!(
                    "{what}: a Minotaur search differs from the reference"
                ));
            }
        }
    }
}

/// Searches per second of baseline wall time.
pub fn baseline_rate<'a>(rounds: impl IntoIterator<Item = &'a Baselines>) -> f64 {
    let (searches, seconds) = rounds
        .into_iter()
        .fold((0, 0.0), |(n, s), b| (n + b.searches(), s + b.seconds()));
    crate::metrics::rate(searches as f64, seconds)
}

/// Fills the baseline per-layer metrics, normalized per pass.
pub fn report_baselines<'a>(
    m: &mut Measured,
    rounds: impl IntoIterator<Item = &'a Baselines>,
    passes: usize,
) {
    let mut totals = [0.0; 6];
    for b in rounds {
        let souper = || b.souper.iter().flatten();
        totals[0] += b.souper_s;
        totals[1] += souper().count() as f64;
        totals[2] += souper()
            .filter(|r| matches!(r.outcome, lpo_souper::Outcome::Timeout))
            .count() as f64;
        totals[3] += souper().filter(|r| r.found()).count() as f64;
        totals[4] += b.minotaur_s;
        totals[5] += b.minotaur.iter().filter(|r| r.found()).count() as f64;
    }
    let names = [
        "souper.search_s",
        "souper.searches",
        "souper.timeouts",
        "souper.found",
        "minotaur.search_s",
        "minotaur.found",
    ];
    for (name, total) in names.into_iter().zip(totals) {
        m.set(name, total / passes.max(1) as f64);
    }
}

/// Fills the replay-derived per-layer metrics, normalized per pass, checks
/// span coverage and writes the trace file.
fn report_tally(m: &mut Measured, args: &Args, ctx: &TraceCtx, passes: usize) {
    let tally = ctx.tally();
    let per = |value: f64| value / passes.max(1) as f64;
    let spans = &tally.spans;
    let c = &tally.counts;
    m.set("tv.verify_self_s", per(spans.self_seconds("tv.verify")));
    m.set("tv.sweep_s", per(spans.seconds("tv.sweep")));
    m.set("tv.teardown_s", per(spans.seconds("tv.teardown")));
    m.set("tv.candidates", per(c.candidates as f64));
    m.set("tv.proved", per(c.proved as f64));
    m.set("tv.absint_refuted", per(c.absint_refuted as f64));
    m.set("tv.probe_rejects", per(c.probe_rejects as f64));
    m.set("tv.survivors", per(c.survivors as f64));
    m.set("tv.compiles", per(tally.compiles as f64));
    m.set(
        "tv.compile_cache_hits",
        per(tally.compile_cache_hits as f64),
    );
    m.set("tv.source_evals", per(c.source_evals as f64));
    m.set("tv.found", per(c.found as f64));
    m.set(
        "tv.source_eval_ratio",
        ratio(c.source_evals as f64, tally.distinct_source_inputs as f64),
    );
    m.set(
        "tv.found_per_candidate",
        ratio(c.found as f64, c.candidates as f64),
    );
    let (calls, failures, seconds) = ctx.llm.snapshot();
    m.set("llm.propose_s", per(seconds));
    m.set("llm.calls", per(calls as f64));
    m.set("llm.failures", per(failures as f64));
    m.set("ir.parse_s", per(spans.seconds("ir.parse")));
    m.set("ir.print_s", per(spans.seconds("ir.print")));
    m.set("ir.syntax_errors", per(c.syntax_errors as f64));
    m.set("opt.source_s", per(spans.seconds("opt.source")));
    m.set("opt.candidate_s", per(spans.seconds("opt.candidate")));
    m.set("mca.source_cost_s", per(spans.seconds("mca.source_cost")));
    m.set("mca.classify_s", per(spans.seconds("mca.classify")));
    m.set("mca.not_interesting", per(c.not_interesting as f64));
    m.set("exec.unique_cases", per(tally.unique_cases as f64));
    m.set("exec.dedup_hits", per(tally.dedup_hits as f64));
    m.set(
        "exec.stage3_share",
        ratio(tally.stage3_cases as f64, spans.cases as f64),
    );
    m.set("exec.untraced_s", per(spans.untraced_seconds()));
    match check_coverage(spans) {
        Ok(coverage) => m.set("trace.coverage", coverage),
        Err(problem) => {
            m.set("trace.coverage", spans.coverage());
            m.problem(problem);
        }
    }
    if let Some(path) = &args.trace_file {
        if let Err(e) = write_trace_file(path, &tally.kept) {
            m.problem(format!("writing trace file {}: {e}", path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo::prelude::CaseOutcome;
    use std::time::Duration;

    fn report(attempts: usize) -> CaseReport {
        CaseReport {
            outcome: CaseOutcome::Rejected,
            attempts,
            wall_time: Duration::from_millis(3),
            modeled_time: Duration::from_millis(900),
            cost_usd: 0.25,
            tier: None,
            store_hits: 0,
        }
    }

    #[test]
    fn fingerprint_check_accepts_a_repeat_that_differs_only_in_wall_time() {
        let reference = vec![report(1).fingerprint()];
        let repeat = CaseReport {
            wall_time: Duration::from_secs(1),
            ..report(1)
        };
        let mut m = Measured::default();
        check_reports(&mut m, "test", &reference, &[repeat]);
        assert_eq!(m.failed, 0);
        assert!(m.problems.is_empty(), "{:?}", m.problems);
    }

    #[test]
    fn fingerprint_check_fails_on_a_perturbed_report() {
        let reference = vec![report(1).fingerprint()];
        for perturbed in [
            report(2),
            CaseReport {
                cost_usd: 0.5,
                ..report(1)
            },
        ] {
            let mut m = Measured::default();
            check_reports(&mut m, "test", &reference, &[perturbed]);
            assert_eq!(m.failed, 1);
            assert!(m.problems[0].contains("fingerprint differs"));
        }
        let found = CaseReport {
            outcome: CaseOutcome::Found {
                candidate: lpo_ir::parser::parse_function("define i8 @f(i8 %x) {\n ret i8 %x\n}")
                    .expect("test IR parses"),
            },
            ..report(1)
        };
        let mut m = Measured::default();
        check_reports(&mut m, "test", &reference, &[found]);
        assert_eq!(m.failed, 1);
        assert!(
            m.problems.iter().any(|p| p.contains("a pass found 1")),
            "{:?}",
            m.problems
        );
    }
}
