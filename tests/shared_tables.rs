//! The pipeline's shared tables are pure memos.
//!
//! One `Lpo` settles Stage 1's source side once per exact source and each
//! Stage-3 verdict once per (source, candidate) pair, for every case,
//! worker and batch it runs. A table hit must be byte-identical to
//! computing afresh:
//!
//! * **Differential.** One shared pipeline, run over the rq1 and rq2
//!   suites, Table 4's 60 samples and the 545 corpus-discover sequences
//!   under both Table 4 profiles at one and two jobs, fingerprints like a
//!   fresh pipeline per case.
//! * **Renamed twins.** A twin with every `%`/`@` name changed, run on a
//!   pipeline whose tables already hold the original, fingerprints like the
//!   twin on a fresh pipeline: a counterexample or prompt never carries the
//!   other function's names.
//! * **Fuzz.** The same differential over random functions and their
//!   renamed twins. It walks a fixed seed block and appends a rotating
//!   block derived from `LPO_FUZZ_SEED` when set; the CI fuzz-smoke step
//!   derives it from the commit hash and logs it, so any failure replays
//!   with `LPO_FUZZ_SEED=<seed> cargo test --release --test shared_tables fuzz`.
//! * **Checkpoints.** A warm resubmission appends no bytes to the store,
//!   `--resume` still replays every case, and a changed report still
//!   appends.

use lpo::prelude::*;
use lpo_corpus::{rq1_suite, rq2_suite};
use lpo_ir::function::Function;
use lpo_llm::model::ModelFactory;
use lpo_llm::prelude::{gemini2_5, llama3_3, SimulatedModelFactory};
use lpo_llm::profiles::rq1_models;
use std::collections::HashMap;
use std::sync::Arc;

mod common;
use common::{fuzz_seeds, suites, table4_samples};

fn suite(cases: Vec<lpo_corpus::IssueCase>) -> Vec<Function> {
    cases.into_iter().map(|case| case.function).collect()
}

fn fingerprints(batch: &BatchResult) -> Vec<String> {
    batch.reports.iter().map(CaseReport::fingerprint).collect()
}

/// The batch as a fresh pipeline per case would run it: each unique case
/// on its own `Lpo` under the session of its first occurrence, with every
/// structural duplicate replaying that report.
fn fresh_per_case(factory: &dyn ModelFactory, sequences: &[Function]) -> Vec<String> {
    let plan = DedupPlan::new(sequences, true);
    let mut computed = HashMap::new();
    for &index in plan.unique_indices() {
        let mut session = factory.session(0, index as u64);
        let lpo = Lpo::new(LpoConfig::default());
        computed.insert(index, lpo.optimize_sequence(session.as_mut(), &sequences[index]).fingerprint());
    }
    (0..sequences.len()).map(|index| computed[&plan.representative(index)].clone()).collect()
}

/// `func` with every `%`/`@` name changed: the function, its parameters and
/// its instruction results. (Block labels keep their names: the simulated
/// model prints its rewrites under an `entry` label.)
fn renamed(func: &Function) -> Function {
    let mut twin = func.clone();
    twin.name = format!("t.{}", twin.name);
    for param in &mut twin.params {
        param.name = format!("t.{}", param.name);
    }
    let ids: Vec<_> = twin.iter_inst_ids().collect();
    for id in ids {
        let name = &mut twin.inst_mut(id).name;
        if !name.is_empty() {
            *name = format!("t.{name}");
        }
    }
    twin
}

/// Runs `sequences` on the shared pipeline under both Table 4 profiles at
/// one and two jobs, asserting each run fingerprints like a fresh pipeline
/// per case.
fn assert_shared_matches_fresh(shared: &Lpo, name: &str, sequences: &[Function]) {
    for profile in [llama3_3(), gemini2_5()] {
        let factory = SimulatedModelFactory::new(profile, 0xbeef);
        let fresh = fresh_per_case(&factory, sequences);
        for jobs in [1usize, 2] {
            let batch = shared.run_sequences(&factory, 0, sequences, &ExecConfig::with_jobs(jobs));
            assert_eq!(
                fingerprints(&batch),
                fresh,
                "{name}, {}, jobs {jobs}: a table hit differs from a fresh pipeline",
                factory.name()
            );
        }
    }
}

#[test]
fn a_shared_pipeline_matches_a_fresh_pipeline_per_case() {
    let shared = Lpo::new(LpoConfig::default());
    for (name, sequences) in suites() {
        assert_shared_matches_fresh(&shared, name, &sequences);
    }
    let (hits, misses) = {
        let stats = shared.verdict_store().stats();
        (stats.verdict_hits, stats.verdict_misses)
    };
    assert!(misses > 0 && hits > misses, "the verdict table went unused ({hits} hits, {misses} misses)");
}

#[test]
fn renamed_twins_replay_nothing_from_the_original() {
    let sets = [
        ("rq1", suite(rq1_suite()), 0..4u64),
        ("rq2", suite(rq2_suite()), 0..1),
        ("table4", table4_samples(60), 0..1),
    ];
    let mut cases = 0;
    for (name, originals, seeds) in sets {
        let twins: Vec<Function> = originals.iter().map(renamed).collect();
        for profile in rq1_models() {
            for seed in seeds.clone() {
                let factory = SimulatedModelFactory::new(profile.clone(), seed);
                let exec = ExecConfig::with_jobs(1);
                // The verdict table as `--store` attaches it.
                let warm = Lpo::new(LpoConfig::default())
                    .with_verdict_store(Arc::new(VerdictStore::in_memory()));
                warm.run_sequences(&factory, 0, &originals, &exec);
                let after_original = warm.run_sequences(&factory, 0, &twins, &exec);
                let fresh = Lpo::new(LpoConfig::default()).run_sequences(&factory, 0, &twins, &exec);
                assert_eq!(
                    fingerprints(&after_original),
                    fingerprints(&fresh),
                    "{name}, {}, seed {seed}: a renamed twin replayed its original's text",
                    profile.name
                );
                cases += twins.len();
            }
        }
    }
    assert!(cases > 1000, "only {cases} twin cases ran");
}

#[test]
fn fuzz_random_functions_and_twins_through_shared_tables() {
    let random: Vec<Function> = fuzz_seeds(128, 0x5a7e, "shared tables fuzz")
        .into_iter()
        .map(lpo_interp::fuzz::random_function)
        .collect();
    let twins: Vec<Function> = random.iter().map(renamed).collect();
    let shared = Lpo::new(LpoConfig::default());
    assert_shared_matches_fresh(&shared, "random", &random);
    assert_shared_matches_fresh(&shared, "random twins", &twins);
}

#[test]
fn warm_resubmissions_append_nothing_and_resume_replays_every_case() {
    use std::fs;

    let dir = std::env::temp_dir().join(format!("lpo-shared-tables-test-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("checkpoints.log");
    let lock = dir.join("checkpoints.log.lock");
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&lock);
    let bytes = || fs::metadata(&path).map(|meta| meta.len()).unwrap_or(0);

    let sequences = suite(rq1_suite());
    let exec = ExecConfig::with_jobs(2);
    {
        let store = Arc::new(VerdictStore::open(&path).expect("open scratch store"));
        let lpo = Lpo::new(LpoConfig::default()).with_verdict_store(Arc::clone(&store));
        let run = |factory: &dyn ModelFactory, resume: bool| {
            let persist = Persist { store: &store, run_key: "job", resume };
            lpo.run_sequences_persisted(factory, 0, &sequences, &exec, Some(&persist))
        };
        let factory = SimulatedModelFactory::new(llama3_3(), 7);
        let cold = run(&factory, false);
        let recorded = bytes();
        assert!(recorded > 0, "the cold run recorded nothing");

        let warm = run(&factory, false);
        assert_eq!(fingerprints(&warm), fingerprints(&cold));
        assert_eq!(bytes(), recorded, "a warm resubmission appended to the store");

        let resumed = run(&factory, true);
        assert_eq!(fingerprints(&resumed), fingerprints(&cold));
        assert_eq!(resumed.stats.resumed_cases, resumed.stats.unique_cases, "resume skipped cases");
        assert_eq!(bytes(), recorded, "a resumed run appended to the store");

        // Another model under the same run key settles other reports: those
        // blobs replace the old ones and are appended.
        let other = SimulatedModelFactory::new(gemini2_5(), 7);
        let changed = run(&other, false);
        assert_ne!(fingerprints(&changed), fingerprints(&cold));
        assert!(bytes() > recorded, "a changed report was not appended");
        assert_eq!(fingerprints(&run(&other, true)), fingerprints(&changed));
    }
    // The log replays the latest reports after a reopen.
    let store = Arc::new(VerdictStore::open(&path).expect("reopen scratch store"));
    let lpo = Lpo::new(LpoConfig::default()).with_verdict_store(Arc::clone(&store));
    let persist = Persist { store: &store, run_key: "job", resume: true };
    let other = SimulatedModelFactory::new(gemini2_5(), 7);
    let replayed = lpo.run_sequences_persisted(&other, 0, &sequences, &exec, Some(&persist));
    assert_eq!(replayed.stats.resumed_cases, replayed.stats.unique_cases);
    let fresh = Lpo::new(LpoConfig::default()).run_sequences(&other, 0, &sequences, &exec);
    assert_eq!(fingerprints(&replayed), fingerprints(&fresh));
    drop(lpo);
    drop(store);
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&lock);
}
