//! Jobs determinism of the verification tiers' counters.
//!
//! Stage 3 runs on the engine's parallel workers; its verdicts and the
//! per-tier counts (candidates, probe rejects, survivors) must not depend on
//! worker scheduling. `tests/determinism.rs` pins the full pipeline's
//! reports; this is the focused check on the stage-3 counters.
//!
//! The file keeps its name from the abstract pre-verification tier it once
//! also fuzzed; that tier is gone, and the counters it added with it.

use lpo::prelude::*;
use lpo_corpus::rq1_suite;
use lpo_ir::function::Function;
use lpo_llm::prelude::{gemini2_0t, SimulatedModelFactory};

#[test]
fn tier_counters_and_reports_keep_jobs_determinism() {
    let sequences: Vec<Function> =
        rq1_suite().into_iter().take(8).map(|case| case.function).collect();
    let factory = SimulatedModelFactory::new(gemini2_0t(), 23);

    let serial_lpo = Lpo::new(LpoConfig::default());
    let parallel_lpo = Lpo::new(LpoConfig::default());
    let serial = serial_lpo.run_sequences(&factory, 0, &sequences, &ExecConfig::with_jobs(1));
    let parallel = parallel_lpo.run_sequences(&factory, 0, &sequences, &ExecConfig::with_jobs(4));

    let serial_prints: Vec<String> = serial.reports.iter().map(CaseReport::fingerprint).collect();
    let parallel_prints: Vec<String> =
        parallel.reports.iter().map(CaseReport::fingerprint).collect();
    assert_eq!(serial_prints, parallel_prints);
    let (s, p) = (serial.stats.tv, parallel.stats.tv);
    assert!(s.candidates > 0, "the suite must reach Stage 3 for the check to mean anything");
    assert_eq!(s.candidates, p.candidates);
    assert_eq!(s.probe_rejects, p.probe_rejects);
    assert_eq!(s.survivors, p.survivors);
}
