//! Jobs determinism of the verification tiers' counters.
//!
//! Stage 3 runs on the engine's parallel workers; its verdicts and the
//! per-tier counts (candidates, probe rejects, survivors) must not depend on
//! worker scheduling, also when raw-distinct sources share verdicts through
//! the pipeline's verdict table. `tests/determinism.rs` pins the full pipeline's
//! reports; this is the focused check on the stage-3 counters.
//!
//! The file keeps its name from the abstract pre-verification tier it once
//! also fuzzed; that tier is gone, and the counters it added with it.

use lpo::prelude::*;
use lpo_corpus::rq1_suite;
use lpo_ir::flags::IntFlags;
use lpo_ir::function::Function;
use lpo_ir::instruction::{BinOp, InstKind, Instruction, Value};
use lpo_ir::printer::print_function;
use lpo_ir::types::Type;
use lpo_llm::prelude::{gemini2_0t, SimulatedModelFactory};
use lpo_opt::pipeline::Pipeline;

/// Raw-distinct twins of `sources` that canonicalize to the same function:
/// each gets a dead constant `add` in front, which `-O2` folds away.
fn dead_code_twins(sources: &[Function]) -> Vec<Function> {
    sources
        .iter()
        .map(|source| {
            let mut twin = source.clone();
            let entry = twin.entry();
            let dead = InstKind::Binary {
                op: BinOp::Add,
                lhs: Value::int(8, 1),
                rhs: Value::int(8, 2),
                flags: IntFlags::none(),
            };
            twin.insert_inst(entry, 0, Instruction::new(dead, Type::i8(), "dead.twin"));
            twin
        })
        .collect()
}

#[test]
fn tier_counters_and_reports_keep_jobs_determinism() {
    let originals: Vec<Function> =
        rq1_suite().into_iter().take(8).map(|case| case.function).collect();
    // The twins miss the source table but share the originals' verdict
    // keys, so the single-flight verdict table decides which case verifies
    // a shared pair: the counts must still not depend on `--jobs`.
    let twins = dead_code_twins(&originals);
    let opt = Pipeline::new(LpoConfig::default().opt_level);
    let canonical = |f: &Function| {
        let mut f = f.clone();
        opt.run(&mut f);
        print_function(&f)
    };
    let same = originals.iter().zip(&twins).filter(|(a, b)| canonical(a) == canonical(b)).count();
    assert!(same > 0, "no twin canonicalizes to its original");
    let sequences: Vec<Function> = originals.into_iter().chain(twins).collect();
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
    // Each distinct pair is verified once: the misses are the pairs.
    let (sv, pv) = (serial_lpo.verdict_store().stats(), parallel_lpo.verdict_store().stats());
    assert_eq!(sv, pv);
    assert!(sv.verdict_hits > 0, "no twin shared a verdict with its original");
}
