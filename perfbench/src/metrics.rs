//! The metric catalogue, the run result every workload returns, and the
//! small statistics the workloads share.
//!
//! The two tables below are the benchmark's contract with `BENCHMARK.json`:
//! an untraced run reports exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`], in table order and with the units given here. The self
//! tests check both tables against `BENCHMARK.json`.

use lpo_serve::json::Json;
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("baseline_cases_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. Times and
/// counts are per pass (one pass over the workload's inputs; in serve-mix a
/// pass is one served job). A layer a workload does not run reports 0. The
/// process's peak memory is here rather than end to end: with more than one
/// thread allocating, it moves by a third between identical runs, as glibc
/// spreads the threads over its arenas.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tv.verify_self_s", "s"),
    ("tv.sweep_s", "s"),
    ("tv.teardown_s", "s"),
    ("tv.candidates", "count"),
    ("tv.proved", "count"),
    ("tv.absint_refuted", "count"),
    ("tv.probe_rejects", "count"),
    ("tv.survivors", "count"),
    ("tv.compiles", "count"),
    ("tv.compile_cache_hits", "count"),
    ("tv.source_evals", "count"),
    ("tv.found", "count"),
    ("tv.source_eval_ratio", "ratio"),
    ("tv.found_per_candidate", "ratio"),
    ("llm.propose_s", "s"),
    ("llm.calls", "count"),
    ("llm.failures", "count"),
    ("ir.parse_s", "s"),
    ("ir.print_s", "s"),
    ("ir.syntax_errors", "count"),
    ("opt.source_s", "s"),
    ("opt.candidate_s", "s"),
    ("mca.source_cost_s", "s"),
    ("mca.classify_s", "s"),
    ("mca.not_interesting", "count"),
    ("exec.unique_cases", "count"),
    ("exec.dedup_hits", "count"),
    ("exec.stage3_share", "ratio"),
    ("exec.untraced_s", "s"),
    ("extract.s", "s"),
    ("extract.sequences", "count"),
    ("souper.search_s", "s"),
    ("souper.searches", "count"),
    ("souper.timeouts", "count"),
    ("souper.found", "count"),
    ("minotaur.search_s", "s"),
    ("minotaur.found", "count"),
    ("store.verdict_hits", "count"),
    ("store.verdict_misses", "count"),
    ("store.hit_rate", "ratio"),
    ("store.case_records", "count"),
    ("store.bytes_appended", "bytes"),
    ("serve.accept_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.frames", "count"),
    ("serve.open_fds", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("proc.peak_rss_mb", "MB"),
];

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run measured and whether its outputs checked out.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: cases, baseline searches and served jobs.
    pub attempted: u64,
    /// Operations that failed: `Failed` cases, error frames, rejected
    /// submissions and fingerprint mismatches.
    pub failed: u64,
    /// The reported metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Human-readable reasons for every failed check.
    pub problems: Vec<String>,
    /// Human-readable context for the figures, such as sample counts.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render_compact()
    }
}

/// Metric values a workload measured, by name, plus its check bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check that is also a failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records context for the figures, such as a sample count.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a failed check that is not an operation (a coverage or
    /// consistency check).
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Builds the run result for the catalogue a run reports. An end-to-end
    /// metric must be measured and positive; a per-layer metric a workload
    /// does not measure reports 0.
    pub fn finish(mut self, traced: bool) -> RunResult {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(&value) if value.is_finite() => value,
                _ if traced => 0.0,
                _ => {
                    self.problems
                        .push(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            if !traced && value <= 0.0 {
                self.problems
                    .push(format!("end-to-end metric {name} is {value}, not positive"));
            }
            metrics.push(Metric { name, value, unit });
        }
        RunResult {
            correct: self.problems.is_empty(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            problems: self.problems,
            notes: self.notes,
        }
    }
}

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `count / seconds`, or 0 when nothing was timed.
pub fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// `numerator / denominator`, or 0 for an empty denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// File descriptors this process holds open right now.
pub fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |entries| entries.count())
}

/// Runs `setup` `repeats` times and returns the median wall time in seconds
/// together with the state the last repeat built.
pub fn median_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous repeat's state first, so each repeat builds from
        // the same starting point.
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one setup repeat ran"))
}

/// A 64-bit mix of `seed` and `salt` (splitmix64 finalizer), used to derive
/// per-input seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn untraced_results_reject_missing_or_zero_metrics() {
        let mut measured = Measured::default();
        for &(name, _) in END_TO_END {
            measured.set(name, 1.0);
        }
        assert!(measured.clone().finish(false).correct);
        measured.set("cases_per_s", 0.0);
        let result = measured.finish(false);
        assert!(!result.correct);
        assert!(result.problems[0].contains("cases_per_s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut measured = Measured::default();
        for &(name, _) in END_TO_END {
            measured.set(name, 2.5);
        }
        measured.attempted = 10;
        let line = measured.finish(false).to_json();
        let value = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &value else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = value.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_num(), Some(2.5));
    }
}
