//! Differential acceptance tests for the staged translation validator.
//!
//! PR 3 proved the compiled evaluator outcome-identical to the reference
//! evaluator; PR 4 proved the worklist canonicalizer byte-identical to the
//! rescan engine. This file does the same for Stage 3: the staged checker
//! (probe → lazy compile → survivor sweep, `SourceCache::verify_with`) must
//! produce **bit-identical verdicts** — including counterexample text, UB
//! messages and exhaustiveness flags — to the retained pre-staging path
//! (`verify_refinement_reference` / `SourceCache::verify_reference`), over
//! the rq1/rq2 corpora and synthesized UB/memory/control-flow cases, for
//! every probe-window size. It also proves the compile-once contract of the
//! structural-hash compiled-function cache and that staging keeps the
//! engine's `--jobs` determinism.

use lpo::prelude::*;
use lpo_bench::twist_return;
use lpo_corpus::{rq1_suite, rq2_suite};
use lpo_ir::function::Function;
use lpo_ir::parser::parse_function;
use lpo_llm::strategies::{apply_strategy, library};
use lpo_llm::prelude::{gemini2_0t, SimulatedModelFactory};
use lpo_tv::inputs::InputConfig;
use lpo_tv::prelude::{CompileCache, EvalArena, SerialDriver, SourceCache, TvConfig};
use lpo_tv::refine::{verify_refinement_reference, verify_refinement_with};

/// A compact input set so sweeping the whole corpus stays fast in debug
/// builds while still covering exhaustive, corner and random inputs.
fn quick_inputs() -> InputConfig {
    InputConfig { exhaustive_bits: 8, random_samples: 24, seed: 0xd1ff }
}

fn config_with_probe(probe_inputs: usize) -> TvConfig {
    TvConfig { inputs: quick_inputs(), probe_inputs, ..TvConfig::default() }
}

/// Candidate rewrites for one corpus case: the source itself (a guaranteed
/// survivor), the twisted source (refuted on the earliest concrete input),
/// and every applicable strategy from the rewrite library (a mix of correct,
/// incorrect and uninteresting shapes — the realistic candidate traffic).
fn candidates_for(src: &Function) -> Vec<Function> {
    let mut out = vec![src.clone()];
    out.extend(twist_return(src));
    for strategy in library() {
        if let Some(candidate) = apply_strategy(strategy, src) {
            out.push(candidate);
        }
    }
    out
}

#[test]
fn staged_matches_reference_over_the_corpora() {
    let mut checked = 0usize;
    for case in rq1_suite().iter().chain(rq2_suite().iter()) {
        let src = &case.function;
        for candidate in candidates_for(src) {
            // Window edges: straight to compile (0), mid-probe refutations
            // (1/4), the default-ish window (16), and everything-in-probe.
            for probe in [0usize, 1, 4, 16, usize::MAX] {
                let config = config_with_probe(probe);
                let staged = verify_refinement_with(src, &candidate, &config);
                let reference = verify_refinement_reference(src, &candidate, &config);
                assert_eq!(
                    staged, reference,
                    "issue {} diverged (probe {probe})",
                    case.issue_id
                );
                // The diagnostic-free entry must agree bit-for-bit on the
                // verdict.
                let source_cache = SourceCache::new(src, config.clone());
                let mut arena = EvalArena::new();
                assert_eq!(
                    source_cache.verify_outcome_only(&candidate, &mut arena),
                    staged.is_correct(),
                    "issue {} outcome-only diverged (probe {probe})",
                    case.issue_id
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 1000, "expected a real corpus sweep, got {checked} comparisons");
}

#[test]
fn staged_matches_reference_on_ub_memory_and_control_flow() {
    // (src, tgt) pairs hitting the refinement rules the corpora underexercise:
    // UB introduction/removal, memory mismatches, poison, infinite loops
    // (step-limit UB), vectors and multi-block targets. The memory, vector
    // and control-flow targets have no plane form, so their swept lanes run
    // on the serial compiled tail — checked here at every shard size, whose
    // boundaries decide where that tail starts and stops.
    let pairs = [
        // Target introduces UB (udiv by a parameter).
        (
            "define i32 @s(i32 %x, i32 %y) {\n %r = add i32 %x, %y\n ret i32 %r\n}",
            "define i32 @t(i32 %x, i32 %y) {\n %d = udiv i32 %x, %y\n %r = add i32 %x, %y\n ret i32 %r\n}",
        ),
        // Source UB excuses anything.
        (
            "define i32 @s(i32 %x) {\n %r = udiv i32 %x, %x\n ret i32 %r\n}",
            "define i32 @t(i32 %x) {\n ret i32 1\n}",
        ),
        // Memory: wrong stored value.
        (
            "define void @s(ptr %p) {\n store i32 1, ptr %p, align 4\n ret void\n}",
            "define void @t(ptr %p) {\n store i32 2, ptr %p, align 4\n ret void\n}",
        ),
        // Memory: equivalent store through a computation.
        (
            "define void @s(ptr %p) {\n store i32 1, ptr %p, align 4\n ret void\n}",
            "define void @t(ptr %p) {\n %v = add i32 0, 1\n store i32 %v, ptr %p, align 4\n ret void\n}",
        ),
        // Load widening (case study 1).
        (
            "define i32 @s(ptr %0) {\n\
             %2 = load i16, ptr %0, align 2\n\
             %3 = getelementptr i8, ptr %0, i64 2\n\
             %4 = load i16, ptr %3, align 1\n\
             %5 = zext i16 %4 to i32\n\
             %6 = shl nuw i32 %5, 16\n\
             %7 = zext i16 %2 to i32\n\
             %8 = or disjoint i32 %6, %7\n\
             ret i32 %8\n}",
            "define i32 @t(ptr %0) {\n %2 = load i32, ptr %0, align 2\n ret i32 %2\n}",
        ),
        // Added poison via a wrongly claimed flag.
        (
            "define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}",
            "define i8 @t(i8 %x) {\n %r = add nuw i8 %x, 1\n ret i8 %r\n}",
        ),
        // Target loops forever: step-limit UB on every input.
        (
            "define i32 @s(i32 %x) {\n ret i32 %x\n}",
            "define i32 @t(i32 %x) {\n\
             entry:\n  br label %loop\n\
             loop:\n  br label %loop\n}",
        ),
        // Memory: the stored value depends on the argument, equal on every
        // input.
        (
            "define void @s(ptr %p, i32 %x) {\n %v = shl i32 %x, 1\n store i32 %v, ptr %p, align 4\n ret void\n}",
            "define void @t(ptr %p, i32 %x) {\n %v = add i32 %x, %x\n store i32 %v, ptr %p, align 4\n ret void\n}",
        ),
        // Memory: the stored value depends on the argument and differs for
        // large ones.
        (
            "define void @s(ptr %p, i32 %x) {\n %v = shl i32 %x, 1\n store i32 %v, ptr %p, align 4\n ret void\n}",
            "define void @t(ptr %p, i32 %x) {\n\
             %c = icmp ult i32 %x, 1000\n\
             %d = shl i32 %x, 1\n\
             %e = or i32 %d, 1\n\
             %v = select i1 %c, i32 %d, i32 %e\n\
             store i32 %v, ptr %p, align 4\n ret void\n}",
        ),
        // Vectors: a lane-wise identity over sampled `<4 x i8>` inputs.
        (
            "define <4 x i8> @s(<4 x i8> %x) {\n %r = shl <4 x i8> %x, splat (i8 1)\n ret <4 x i8> %r\n}",
            "define <4 x i8> @t(<4 x i8> %x) {\n %r = add <4 x i8> %x, %x\n ret <4 x i8> %r\n}",
        ),
        // Multi-block, phi-carrying target (no plane form: the sweep runs
        // one input at a time) that is nevertheless correct.
        (
            "define i32 @s(i32 %x) {\n %r = add i32 %x, 1\n ret i32 %r\n}",
            "define i32 @t(i32 %x) {\n\
             entry:\n  %c = icmp eq i32 %x, 0\n  br i1 %c, label %zero, label %other\n\
             zero:\n  br label %join\n\
             other:\n  %a = add i32 %x, 1\n  br label %join\n\
             join:\n  %r = phi i32 [ 1, %zero ], [ %a, %other ]\n  ret i32 %r\n}",
        ),
        // Signature mismatch: rejected before any evaluation.
        (
            "define i32 @s(i32 %x) {\n ret i32 %x\n}",
            "define i32 @t(i32 %x, i32 %y) {\n ret i32 %x\n}",
        ),
    ];
    let mut arena = EvalArena::new();
    for (src_text, tgt_text) in pairs {
        let src = parse_function(src_text).unwrap();
        let tgt = parse_function(tgt_text).unwrap();
        for probe in [0usize, 1, 3, 16, usize::MAX] {
            let config = TvConfig { probe_inputs: probe, ..TvConfig::default() };
            let staged = verify_refinement_with(&src, &tgt, &config);
            let reference = verify_refinement_reference(&src, &tgt, &config);
            assert_eq!(staged, reference, "pair diverged (probe {probe}):\n{src_text}\n→\n{tgt_text}");
            // The sharded walk on the in-order driver, with the abstract
            // tier off too so provable pairs still reach the sweep.
            for absint in [true, false] {
                let config = TvConfig { absint, ..config.clone() };
                let reference = SourceCache::new(&src, config.clone()).verify_reference(&tgt, &mut arena);
                for shard_size in [1, 7, 256, usize::MAX] {
                    let sharded = SourceCache::new(&src, config.clone()).verify_with_driver(
                        &tgt,
                        &mut arena,
                        &SerialDriver,
                        shard_size,
                    );
                    assert_eq!(
                        sharded, reference,
                        "sharded walk diverged (probe {probe}, absint {absint}, shard {shard_size}):\n{src_text}\n→\n{tgt_text}"
                    );
                }
            }
        }
    }
}

#[test]
fn staged_source_eval_counts_match_the_reference() {
    // The staged walk fills source outcomes lazily only inside the probe
    // window: a candidate refuted there at input k costs exactly k+1 source
    // evaluations, as on the reference path. A probe survivor freezes the
    // case, which computes every source outcome once, so the count reaches
    // the input total whether the sweep then refutes or accepts.
    let src = parse_function("define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();
    // Wrong only for x >= 100: refuted mid-sweep, well past the probe window.
    let late_wrong = parse_function(
        "define i8 @t(i8 %x) {\n\
         %c = icmp ult i8 %x, 100\n\
         %r = add i8 %x, 1\n\
         %w = add i8 %x, 2\n\
         %s = select i1 %c, i8 %r, i8 %w\n\
         ret i8 %s\n}",
    )
    .unwrap();
    let early_wrong = parse_function("define i8 @t(i8 %x) {\n %r = add i8 %x, 2\n ret i8 %r\n}").unwrap();
    let correct = parse_function("define i8 @t(i8 %x) {\n %r = sub i8 %x, -1\n ret i8 %r\n}").unwrap();

    for (candidate, survives_probe) in [(&early_wrong, false), (&late_wrong, true), (&correct, true)] {
        let staged_case = SourceCache::new(&src, TvConfig::default());
        let reference_case = SourceCache::new(&src, TvConfig::default());
        let mut arena = EvalArena::new();
        let staged = staged_case.verify_with(candidate, &mut arena);
        let reference = reference_case.verify_reference(candidate, &mut arena);
        assert_eq!(staged, reference);
        assert_eq!(staged_case.survivors(), usize::from(survives_probe));
        if survives_probe {
            assert_eq!(staged_case.source_eval_count(), 256, "a survivor freezes the case");
        } else {
            assert_eq!(
                staged_case.source_eval_count(),
                reference_case.source_eval_count(),
                "a probe reject must cost the reference's source evaluations"
            );
            assert_eq!(staged_case.source_eval_count(), 1);
        }
    }
}

#[test]
fn compile_cache_compiles_each_structural_digest_once() {
    let src = parse_function("define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();
    // Textually different, structurally identical survivors.
    let a = parse_function("define i8 @t(i8 %v) {\n %out = sub i8 %v, -1\n ret i8 %out\n}").unwrap();
    let b = parse_function("define i8 @q(i8 %w) {\n %z = sub i8 %w, -1\n ret i8 %z\n}").unwrap();
    // A structurally distinct survivor.
    let c = parse_function("define i8 @u(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();

    let cache = CompileCache::new();
    // Abstract pre-verification off: this test pins the *compile cache*
    // traffic of surviving candidates, and with the tier on these survivors
    // are proved without ever compiling or sweeping.
    let config = TvConfig { absint: false, ..TvConfig::default() };
    let case = SourceCache::new(&src, config).with_compile_cache(&cache);
    let mut arena = EvalArena::new();

    for _ in 0..3 {
        assert!(case.verify_with(&a, &mut arena).is_correct());
    }
    assert_eq!(cache.misses(), 1, "the same candidate must compile exactly once");
    assert_eq!(cache.hits(), 2);

    assert!(case.verify_with(&b, &mut arena).is_correct());
    assert_eq!(cache.misses(), 1, "a renamed twin must reuse the compiled function");
    assert_eq!(cache.hits(), 3);

    assert!(case.verify_with(&c, &mut arena).is_correct());
    assert_eq!(cache.misses(), 2, "a structurally new candidate must compile");
    assert_eq!(case.survivors(), 5);
    assert_eq!(case.probe_rejects(), 0);

    // A probe-refuted candidate never touches the cache.
    let wrong = parse_function("define i8 @t(i8 %x) {\n %r = add i8 %x, 2\n ret i8 %r\n}").unwrap();
    assert!(!case.verify_with(&wrong, &mut arena).is_correct());
    assert_eq!(cache.misses(), 2);
    assert_eq!(case.probe_rejects(), 1);
}

#[test]
fn staging_and_cache_keep_jobs_determinism() {
    // The LPO engine now verifies through the staged checker with a shared
    // compile cache; reports must stay byte-identical across worker counts,
    // and the probe/survivor split (a per-case count) must too. Only the
    // compile-cache traffic may differ with scheduling.
    let sequences: Vec<Function> =
        rq1_suite().into_iter().take(8).map(|case| case.function).collect();
    let factory = SimulatedModelFactory::new(gemini2_0t(), 11);

    let serial_lpo = Lpo::new(LpoConfig::default());
    let parallel_lpo = Lpo::new(LpoConfig::default());
    let serial = serial_lpo.run_sequences(&factory, 0, &sequences, &ExecConfig::with_jobs(1));
    let parallel = parallel_lpo.run_sequences(&factory, 0, &sequences, &ExecConfig::with_jobs(4));

    let serial_prints: Vec<String> = serial.reports.iter().map(CaseReport::fingerprint).collect();
    let parallel_prints: Vec<String> =
        parallel.reports.iter().map(CaseReport::fingerprint).collect();
    assert_eq!(serial_prints, parallel_prints);
    assert_eq!(serial.stats.tv.candidates, parallel.stats.tv.candidates);
    assert_eq!(serial.stats.tv.probe_rejects, parallel.stats.tv.probe_rejects);
    assert_eq!(serial.stats.tv.survivors, parallel.stats.tv.survivors);
    // Every checked candidate is probe-rejected, swept as a survivor, or —
    // for signatures whose whole input set fits in the probe window —
    // accepted inside the probe.
    assert!(
        serial.stats.tv.probe_rejects + serial.stats.tv.survivors <= serial.stats.tv.candidates
    );
    assert!(serial.stats.tv.candidates > 0);
}

#[test]
fn poison_or_undef_divisor_is_immediate_ub() {
    // LangRef: a zero, poison or undef divisor of udiv/sdiv/urem/srem is
    // immediate UB, whatever the dividend. A source that returns poison is
    // therefore *not* refined by a target that divides by one: the source
    // is defined on every input, the target never is.
    let poison_src = "define i8 @s(i8 %x) {\n ret i8 poison\n}";
    // (source, target, correct, survives the probe)
    let mut cases: Vec<(&str, String, bool, bool)> = Vec::new();
    for op in ["udiv", "sdiv", "urem", "srem"] {
        for (dividend, divisor) in [("%x", "poison"), ("%x", "undef"), ("poison", "0"), ("undef", "0")] {
            let tgt = format!("define i8 @t(i8 %x) {{\n %r = {op} i8 {dividend}, {divisor}\n ret i8 %r\n}}");
            cases.push((poison_src, tgt, false, false));
        }
    }
    // Probe survivors are decided by the Stage-3 sweep, so the plane kernels
    // and the serial compiled tail see the divisor, not only the probe's
    // evaluator.
    let undef_divisor_src =
        "define i8 @s(i8 %x) {\n %d = or i8 undef, 1\n %q = udiv i8 %x, %d\n ret i8 %q\n}";
    let pairs = [
        // Poison divisor lanes for x >= 156.
        (
            poison_src,
            "define i8 @t(i8 %x) {\n %d = add nuw i8 %x, 100\n %r = udiv i8 1, %d\n ret i8 %r\n}",
            false,
            true,
        ),
        // A zero divisor under a poison dividend at x = 200.
        (
            poison_src,
            "define i8 @t(i8 %x) {\n %p = add nuw i8 %x, 100\n %d = sub i8 %x, 200\n %r = srem i8 %p, %d\n ret i8 %r\n}",
            false,
            true,
        ),
        // A derived undef divisor is never zero here and stays a taint, not
        // UB: the source returns undef, so a target poisonous for x >= 156
        // is refuted rather than accepted against a UB source.
        (undef_divisor_src, "define i8 @t(i8 %x) {\n %p = add nuw i8 %x, 100\n ret i8 %p\n}", false, true),
        (undef_divisor_src, "define i8 @t(i8 %x) {\n ret i8 0\n}", true, true),
        // The source divides by a derived undef but returns %x: defined on
        // every input, so `ret i8 0` must not be accepted.
        (
            "define i8 @s(i8 %x) {\n %d = or i8 undef, 1\n %q = udiv i8 %x, %d\n ret i8 %x\n}",
            "define i8 @t(i8 %x) {\n ret i8 0\n}",
            false,
            false,
        ),
    ];
    cases.extend(pairs.map(|(src, tgt, correct, survives)| (src, tgt.to_string(), correct, survives)));
    let mut arena = EvalArena::new();
    for (src_text, tgt_text, correct, survives_probe) in &cases {
        let src = parse_function(src_text).unwrap();
        let tgt = parse_function(tgt_text).unwrap();
        let pair = format!("{src_text}\n→\n{tgt_text}");
        for plane_sweep in [true, false] {
            let config = TvConfig { plane_sweep, ..TvConfig::default() };
            let reference = verify_refinement_reference(&src, &tgt, &config);
            let case = SourceCache::new(&src, config);
            let staged = case.verify_with(&tgt, &mut arena);
            assert_eq!(staged, reference, "{pair} (plane {plane_sweep})");
            assert_eq!(staged.is_correct(), *correct, "{pair}: {staged:?}");
            assert_eq!(case.survivors(), usize::from(*survives_probe), "{pair}");
            if *src_text == poison_src {
                let cex = staged.counterexample().expect("refuted");
                assert_eq!(cex.reason, "Source is guaranteed to be defined, but target is not");
            }
            assert_eq!(case.verify_outcome_only(&tgt, &mut arena), *correct);
        }
    }
}
