//! In-memory spans for the traced runs.
//!
//! A traced run gives every case a root span and records one child span per
//! call into a layer's public API. Spans stay in memory while the run
//! measures; the aggregates become the per-layer metrics and the spans of the
//! first traced pass are written to a JSON-lines trace file when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Share of case time the child spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// One span: a named interval and the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the case's span list (`None` for the root).
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one case; `spans[0]` is the case's root span.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaseTrace {
    /// Run-wide case identifier shared by every span of the case.
    pub case: u64,
    pub spans: Vec<Span>,
}

impl CaseTrace {
    /// Time covered by the direct children of span `index`. Children of one
    /// span run one after another on the case's thread, so they never
    /// overlap and their durations add up.
    pub fn child_ns(&self, index: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum()
    }
}

/// Records one case's spans as the traced replay makes its calls. Single
/// threaded: a case runs on one worker from start to end.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    /// Opens the case's root span.
    pub fn new(epoch: Instant, root: &'static str) -> Self {
        let recorder = Self {
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        };
        recorder.open(root);
        recorder
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str) -> usize {
        let parent = self.open.borrow().last().copied();
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let index = spans.len() - 1;
        self.open.borrow_mut().push(index);
        index
    }

    fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end_ns;
        self.open.borrow_mut().pop();
    }

    /// Runs `f` inside a child span of the innermost open span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = self.open(name);
        let result = f();
        self.close(index);
        result
    }

    /// Closes the root span.
    pub fn finish(self, case: u64) -> CaseTrace {
        self.close(0);
        CaseTrace {
            case,
            spans: self.spans.into_inner(),
        }
    }
}

/// Span totals over many cases.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    /// Per span name: (calls, total ns, self ns).
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Σ root durations.
    pub case_ns: u64,
    /// Σ root time covered by direct children.
    pub covered_ns: u64,
    pub cases: u64,
}

impl SpanTotals {
    pub fn absorb(&mut self, trace: &CaseTrace) {
        self.cases += 1;
        self.case_ns += trace.spans[0].duration_ns();
        self.covered_ns += trace.child_ns(0);
        for (index, span) in trace.spans.iter().enumerate().skip(1) {
            let entry = self.by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += span.duration_ns().saturating_sub(trace.child_ns(index));
        }
    }

    /// Total seconds in spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1 as f64 * 1e-9)
    }

    /// Self seconds (children excluded) in spans named `name`.
    pub fn self_seconds(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2 as f64 * 1e-9)
    }

    /// Root time not covered by any child span, in seconds.
    pub fn untraced_seconds(&self) -> f64 {
        self.case_ns.saturating_sub(self.covered_ns) as f64 * 1e-9
    }

    /// Share of case time the direct children cover (1.0 without cases).
    pub fn coverage(&self) -> f64 {
        if self.case_ns == 0 {
            1.0
        } else {
            self.covered_ns as f64 / self.case_ns as f64
        }
    }
}

/// Checks that child spans cover at least [`MIN_COVERAGE`] of case time.
pub fn check_coverage(totals: &SpanTotals) -> Result<f64, String> {
    let coverage = totals.coverage();
    if coverage >= MIN_COVERAGE {
        Ok(coverage)
    } else {
        Err(format!(
            "child spans cover {:.1}% of case time, below the required {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ))
    }
}

/// Writes `traces` as JSON lines, one span per line.
pub fn write_trace_file(path: &Path, traces: &[CaseTrace]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for trace in traces {
        for (index, span) in trace.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"case\":{},\"span\":{index},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                trace.case, span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    /// A case whose children cover 99 of its 100 ns.
    fn covered_case() -> CaseTrace {
        CaseTrace {
            case: 7,
            spans: vec![
                span("case", None, 0, 100),
                span("llm.propose", Some(0), 0, 20),
                span("tv.verify", Some(0), 20, 90),
                span("tv.sweep", Some(2), 30, 80),
                span("tv.teardown", Some(0), 90, 99),
            ],
        }
    }

    #[test]
    fn coverage_passes_when_children_cover_the_case() {
        let mut totals = SpanTotals::default();
        totals.absorb(&covered_case());
        assert_eq!(check_coverage(&totals), Ok(0.99));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        assert!(close(totals.self_seconds("tv.verify"), 20e-9));
        assert!(close(totals.seconds("tv.sweep"), 50e-9));
        assert!(close(totals.untraced_seconds(), 1e-9));
    }

    #[test]
    fn coverage_check_fails_when_a_child_span_is_omitted() {
        let mut trace = covered_case();
        trace.spans.retain(|s| s.name != "tv.teardown");
        let mut totals = SpanTotals::default();
        totals.absorb(&trace);
        let err = check_coverage(&totals).unwrap_err();
        assert!(err.contains("90.0%"), "{err}");
    }

    #[test]
    fn recorder_nests_spans_under_the_innermost_open_span() {
        let recorder = Recorder::new(Instant::now(), "case");
        let value = recorder.time("tv.verify", || recorder.time("tv.sweep", || 3));
        assert_eq!(value, 3);
        let trace = recorder.finish(1);
        let parents: Vec<Option<usize>> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1)]);
        assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
