//! The execution engine's determinism contract: a run is bit-identical for
//! every worker count, and the dedup cache replays rather than recomputes.
//!
//! This is the `--jobs 1` vs `--jobs 4` acceptance check of the parallel
//! discovery engine: the per-case [`CaseReport`] stream and the aggregate
//! [`RunSummary`] must fingerprint identically (fingerprints cover every
//! deterministic field — outcome, candidate text, attempts, modeled time,
//! exact cost bits — and exclude only real wall-clock time).

use lpo::prelude::*;
use lpo_corpus::rq1_suite;
use lpo_ir::function::Function;
use lpo_llm::model::ModelFactory;
use lpo_llm::prelude::{gemini2_0t, llama3_3, SimulatedModelFactory};

/// The rq1 suite plus structural duplicates of a few of its cases, so the
/// dedup cache is exercised by the same run.
fn suite_with_duplicates() -> Vec<Function> {
    let mut sequences: Vec<Function> =
        rq1_suite().into_iter().map(|case| case.function).collect();
    let copies: Vec<Function> = sequences.iter().take(4).cloned().collect();
    sequences.extend(copies);
    sequences
}

fn fingerprints(batch: &BatchResult) -> (Vec<String>, String) {
    (batch.reports.iter().map(CaseReport::fingerprint).collect(), batch.summary.fingerprint())
}

/// The serial oracle for a batch: no engine, no runtime, one shard —
/// `Lpo::optimize_sequence` (whose Stage 3 sweeps on `SerialDriver` as a
/// single shard) once per unique case under the session of its first
/// occurrence, with every duplicate replaying that report.
fn serial_oracle(
    lpo: &Lpo,
    factory: &dyn ModelFactory,
    round: u64,
    sequences: &[Function],
) -> (Vec<String>, String) {
    let plan = DedupPlan::new(sequences, true);
    let mut computed = std::collections::HashMap::new();
    for &index in plan.unique_indices() {
        let mut session = factory.session(round, index as u64);
        computed.insert(index, lpo.optimize_sequence(session.as_mut(), &sequences[index]));
    }
    let reports: Vec<CaseReport> =
        (0..sequences.len()).map(|index| computed[&plan.representative(index)].clone()).collect();
    (reports.iter().map(CaseReport::fingerprint).collect(), RunSummary::from_reports(&reports).fingerprint())
}

#[test]
fn jobs_1_and_jobs_4_are_byte_identical_on_the_rq1_suite() {
    let sequences = suite_with_duplicates();
    let lpo = Lpo::new(LpoConfig::default());

    for (profile, seed) in [(gemini2_0t(), 42u64), (llama3_3(), 7u64)] {
        let factory = SimulatedModelFactory::new(profile, seed);
        for round in 0..2 {
            let serial = lpo.run_sequences(&factory, round, &sequences, &ExecConfig::with_jobs(1));
            let parallel = lpo.run_sequences(&factory, round, &sequences, &ExecConfig::with_jobs(4));

            let (serial_reports, serial_summary) = fingerprints(&serial);
            let (parallel_reports, parallel_summary) = fingerprints(&parallel);
            assert_eq!(serial_reports, parallel_reports, "per-case streams diverged (round {round})");
            assert_eq!(serial_summary, parallel_summary, "summaries diverged (round {round})");

            assert_eq!(serial.stats.jobs, 1);
            assert_eq!(parallel.stats.jobs, 4);
            assert_eq!(serial.stats.cache_hits, parallel.stats.cache_hits);
            assert_eq!(serial.stats.cache_hits, 4, "the 4 appended duplicates must replay");
            assert_eq!(serial.stats.unique_cases, sequences.len() - 4);
        }
    }
}

#[test]
fn shard_boundary_matrix_is_byte_identical() {
    // The sharded engine's contract: every (--shard-size, --jobs) cell —
    // including degenerate 1-input shards, ∞ (one shard per survivor),
    // auto jobs and more workers than cases — produces the same
    // byte-identical run as the serial oracle.
    let sequences = suite_with_duplicates();
    let lpo = Lpo::new(LpoConfig::default());
    let factory = SimulatedModelFactory::new(gemini2_0t(), 42);

    let (reference_reports, reference_summary) = serial_oracle(&lpo, &factory, 0, &sequences);

    let auto_and_idle = [(DEFAULT_SHARD_SIZE, 0), (DEFAULT_SHARD_SIZE, sequences.len() + 3)];
    let matrix = [1usize, 7, 256, usize::MAX]
        .into_iter()
        .flat_map(|shard_size| [1usize, 4].map(|jobs| (shard_size, jobs)))
        .chain(auto_and_idle);
    for (shard_size, jobs) in matrix {
        let mut config = ExecConfig::with_jobs(jobs);
        config.shard_size = shard_size;
        let batch = lpo.run_sequences(&factory, 0, &sequences, &config);
        let (reports, summary) = fingerprints(&batch);
        assert_eq!(
            reports, reference_reports,
            "per-case streams diverged (shard size {shard_size}, jobs {jobs})"
        );
        assert_eq!(
            summary, reference_summary,
            "summaries diverged (shard size {shard_size}, jobs {jobs})"
        );
    }
}

#[test]
fn store_backed_matrix_is_byte_identical_to_the_storeless_reference() {
    use std::fs;
    use std::sync::Arc;

    // The verdict store is a pure memo: every (--jobs, --shard-size) cell
    // run against one shared store — cold on the first pass, fully warm on
    // the second — must fingerprint identically to a storeless serial run.
    let sequences = suite_with_duplicates();
    let factory = SimulatedModelFactory::new(gemini2_0t(), 42);
    let (reference_reports, reference_summary) = {
        let lpo = Lpo::new(LpoConfig::default());
        fingerprints(&lpo.run_sequences(&factory, 0, &sequences, &ExecConfig::with_jobs(1)))
    };

    let dir = std::env::temp_dir().join(format!("lpo-determinism-test-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("matrix.log");
    let mut lock = path.as_os_str().to_os_string();
    lock.push(".lock");
    let lock = std::path::PathBuf::from(lock);
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&lock);

    {
        let store = Arc::new(VerdictStore::open(&path).expect("open scratch store"));
        let lpo = Lpo::new(LpoConfig::default()).with_verdict_store(Arc::clone(&store));
        for pass in ["cold", "warm"] {
            for jobs in [1usize, 4] {
                for shard_size in [7usize, usize::MAX] {
                    let mut config = ExecConfig::with_jobs(jobs);
                    config.shard_size = shard_size;
                    let batch = lpo.run_sequences(&factory, 0, &sequences, &config);
                    let (reports, summary) = fingerprints(&batch);
                    assert_eq!(
                        reports, reference_reports,
                        "per-case streams diverged ({pass} store, jobs {jobs}, shard size {shard_size})"
                    );
                    assert_eq!(
                        summary, reference_summary,
                        "summaries diverged ({pass} store, jobs {jobs}, shard size {shard_size})"
                    );
                }
            }
        }
        assert!(store.stats().verdict_hits > 0, "warm passes must replay stored verdicts");
        assert!(store.warnings().is_empty(), "a clean store reported recovery warnings");
    }
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&lock);
}

#[test]
fn cancellation_never_changes_the_reported_counterexample() {
    use lpo_ir::parser::parse_function;
    use lpo_tv::prelude::{EvalArena, SourceCache, TvConfig, Verdict};
    use std::sync::Arc;

    // A candidate wrong for *every* negative i8 input: with 4-input shards,
    // dozens of shards past the first refuting one also refute, and under 4
    // workers any of them can finish first and cut the group. The merge must
    // still report the first refuting input in input order — the same
    // counterexample the reference checker finds.
    let src = parse_function("define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();
    let wrong = parse_function(
        "define i8 @t(i8 %x) {\n\
         %c = icmp slt i8 %x, 0\n\
         %bad = add i8 %x, 2\n\
         %good = add i8 %x, 1\n\
         %r = select i1 %c, i8 %bad, i8 %good\n\
         ret i8 %r\n}",
    )
    .unwrap();

    fn cex_text(verdict: &Verdict) -> String {
        match verdict {
            Verdict::Incorrect(cex) => cex.to_string(),
            other => panic!("expected a refutation, got {other:?}"),
        }
    }

    // The independent oracle: the retained single-stage reference path.
    let reference_case = SourceCache::new(&src, TvConfig::default());
    let expected = cex_text(&reference_case.verify_reference(&wrong, &mut EvalArena::new()));

    for _ in 0..10 {
        let runtime = ShardRuntime::new(4, Arc::new(ShardCounters::new()));
        let driver = RuntimeSweepDriver::new(runtime.clone());
        let verdicts = runtime.run_cases(1, |_, arena| {
            let case = SourceCache::new(&src, TvConfig::default());
            cex_text(&case.verify_with_driver(&wrong, arena, &driver, 4))
        });
        assert_eq!(verdicts[0], expected, "a racing cut changed the reported counterexample");
    }
}

#[test]
fn dedup_replay_is_byte_identical_to_its_representative() {
    let sequences = suite_with_duplicates();
    let originals = sequences.len() - 4;
    let lpo = Lpo::new(LpoConfig::default());
    let factory = SimulatedModelFactory::new(gemini2_0t(), 42);
    let batch = lpo.run_sequences(&factory, 0, &sequences, &ExecConfig::default());
    for dup in 0..4 {
        assert_eq!(
            batch.reports[originals + dup].fingerprint(),
            batch.reports[dup].fingerprint(),
            "duplicate {dup} did not replay its first occurrence"
        );
    }
}
