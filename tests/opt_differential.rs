//! Differential testing of the worklist canonicalization engine.
//!
//! The worklist-driven `-O2` pipeline ([`Pipeline::run`]) must print
//! **byte-identical** results to the retained rescan-to-fixpoint engine
//! ([`Pipeline::optimize_reference`]), and agree on the `changed` flag, on:
//!
//! * every function of the rq1 and rq2 corpora (the calibrated suites);
//! * every sequence extracted from a synthesized corpus (the Table 4 shape),
//!   including the raw, pre-filter sequences that are *not* fixpoints;
//! * every synthesized whole function, which exercises multi-block control
//!   flow, phis, vectors and memory traffic, plus four hand-written Stage 1
//!   shapes (a straight-line chain, a diamond, a phi-heavy loop and the
//!   already-canonical Figure 1 clamp);
//! * the same set under a pipeline extended with all accepted patches.

use lpo_ir::function::Function;
use lpo_ir::printer::print_function;
use lpo_opt::patches::all_patches;
use lpo_opt::pipeline::{OptLevel, Pipeline};

fn assert_differential(pipeline: &Pipeline, func: &Function, what: &str) {
    let mut fast = func.clone();
    let mut slow = func.clone();
    let fast_stats = pipeline.run(&mut fast);
    let slow_stats = pipeline.optimize_reference(&mut slow);
    assert_eq!(
        print_function(&fast),
        print_function(&slow),
        "worklist and reference diverged on {what} @{}\ninput:\n{}",
        func.name,
        print_function(func),
    );
    assert_eq!(
        fast_stats.changed, slow_stats.changed,
        "changed flags diverged on {what} @{}",
        func.name
    );
    // The canonical form must be a fixpoint of both engines.
    let mut again = fast.clone();
    assert!(!pipeline.run(&mut again).changed, "worklist output not a fixpoint on {what} @{}", func.name);
    lpo_ir::verifier::verify_function(&fast).expect("worklist output must verify");
}

#[test]
fn worklist_matches_reference_on_rq_corpora() {
    let pipeline = Pipeline::new(OptLevel::O2);
    let mut checked = 0;
    for case in lpo_corpus::rq1_suite().iter().chain(lpo_corpus::rq2_suite().iter()) {
        assert_differential(&pipeline, &case.function, "rq corpus");
        checked += 1;
    }
    assert_eq!(checked, 87, "the calibrated suites hold 25 + 62 cases");
}

/// The Stage 1 shapes: a straight-line chain with a foldable identity per
/// step (the extracted-sequence shape), a diamond with per-arm redundancies,
/// a phi-heavy counted loop (use lists must track phi and terminator
/// operands) and the Figure 1 clamp, already canonical (the per-candidate
/// confirmation pass).
const STAGE1_SHAPES: [&str; 4] = [
    "define i32 @straight(i32 %x, i32 %y) {\n\
       %m0 = mul i32 %x, 3\n  %r0 = add i32 %m0, 0\n  %a0 = add i32 %r0, %y\n\
       %m1 = mul i32 %a0, 3\n  %r1 = add i32 %m1, 0\n  %a1 = add i32 %r1, %y\n\
       %m2 = mul i32 %a1, 3\n  %r2 = add i32 %m2, 0\n  %a2 = add i32 %r2, %y\n\
       %m3 = mul i32 %a2, 3\n  %r3 = add i32 %m3, 0\n  %a3 = add i32 %r3, %y\n\
       ret i32 %a3\n}",
    "define i32 @branchy(i32 %x, i32 %y) {\n\
     entry:\n\
       %c = icmp slt i32 %x, 0\n\
       br i1 %c, label %neg, label %pos\n\
     neg:\n\
       %n1 = sub i32 0, %x\n\
       %n2 = add i32 %n1, 0\n\
       %n3 = mul i32 %n2, 4\n\
       br label %join\n\
     pos:\n\
       %p1 = mul i32 %x, 1\n\
       %p2 = shl i32 %p1, 2\n\
       br label %join\n\
     join:\n\
       %v = phi i32 [ %n3, %neg ], [ %p2, %pos ]\n\
       %w = xor i32 %v, 0\n\
       %out = add i32 %w, %y\n\
       ret i32 %out\n}",
    "define i32 @phis(i32 %n) {\n\
     entry:\n  br label %header\n\
     header:\n\
       %i = phi i32 [ 0, %entry ], [ %i.next, %body ]\n\
       %acc = phi i32 [ 0, %entry ], [ %acc.next, %body ]\n\
       %aux = phi i32 [ 1, %entry ], [ %aux.next, %body ]\n\
       %cmp = icmp slt i32 %i, %n\n\
       br i1 %cmp, label %body, label %exit\n\
     body:\n\
       %t = add i32 %acc, 0\n\
       %acc.next = add i32 %t, %i\n\
       %aux.next = mul i32 %aux, 1\n\
       %i.next = add i32 %i, 1\n\
       br label %header\n\
     exit:\n  ret i32 %acc\n}",
    "define i8 @clamp(i32 %0) {\n\
       %2 = icmp slt i32 %0, 0\n\
       %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
       %4 = trunc nuw i32 %3 to i8\n\
       %5 = select i1 %2, i8 0, i8 %4\n\
       ret i8 %5\n}",
];

#[test]
fn worklist_matches_reference_on_synthesized_functions() {
    let corpus = lpo_corpus::generate_corpus(&lpo_corpus::CorpusConfig {
        modules_per_project: 2,
        functions_per_module: 4,
        ..Default::default()
    });
    let pipeline = Pipeline::new(OptLevel::O2);
    let mut functions = 0;
    for project in corpus.iter().take(8) {
        for module in &project.modules {
            for func in &module.functions {
                assert_differential(&pipeline, func, "synthesized function");
                functions += 1;
            }
        }
    }
    assert!(functions >= 32, "synthesized sweep looks too small: {functions}");
    for text in STAGE1_SHAPES {
        let func = lpo_ir::parser::parse_function(text).unwrap();
        assert_differential(&pipeline, &func, "Stage 1 shape");
    }
}

#[test]
fn worklist_matches_reference_on_raw_extracted_sequences() {
    use lpo_extract::{ExtractConfig, Extractor};
    // Keep the optimizable sequences: those are exactly the non-fixpoint
    // inputs where the two engines have real work to agree on.
    let config = ExtractConfig {
        min_instructions: 2,
        filter_already_optimizable: false,
        ..Default::default()
    };
    let corpus = lpo_corpus::generate_corpus(&lpo_corpus::CorpusConfig {
        modules_per_project: 2,
        functions_per_module: 3,
        ..Default::default()
    });
    let pipeline = Pipeline::new(OptLevel::O2);
    let mut sequences = 0;
    let mut changed = 0;
    for project in corpus.iter().take(6) {
        for module in &project.modules {
            let mut extractor = Extractor::new(config.clone());
            for seq in extractor.extract_module(module) {
                let mut probe = seq.function.clone();
                if pipeline.run(&mut probe).changed {
                    changed += 1;
                }
                assert_differential(&pipeline, &seq.function, "extracted sequence");
                sequences += 1;
            }
        }
    }
    assert!(sequences >= 50, "extraction sweep looks too small: {sequences}");
    assert!(changed >= 5, "the sweep must include non-fixpoint inputs: {changed}");
}

#[test]
fn worklist_matches_reference_with_all_patches_installed() {
    let pipeline = Pipeline::new(OptLevel::O2).with_patches(all_patches());
    for case in lpo_corpus::rq1_suite().iter().chain(lpo_corpus::rq2_suite().iter()) {
        assert_differential(&pipeline, &case.function, "rq corpus (patched)");
    }
}

#[test]
fn worklist_matches_reference_when_layout_differs_from_rpo() {
    // Block layout is entry, b, a while control flow visits a before b: if
    // the worklist swept blocks in RPO instead of layout order, the
    // expanding clamp patch (select → smax + umin) would fire in %a before
    // %b and assign its helper names in the opposite order to the reference,
    // breaking printed byte-equality. Regression test for exactly that.
    let text = "define i8 @f(i32 %x, i1 %p) {\n\
        entry:\n  br i1 %p, label %a, label %b\n\
        b:\n\
          %c2 = icmp slt i32 %x, 0\n\
          %m2 = call i32 @llvm.umin.i32(i32 %x, i32 255)\n\
          %t2 = trunc nuw i32 %m2 to i8\n\
          %s2 = select i1 %c2, i8 0, i8 %t2\n\
          ret i8 %s2\n\
        a:\n\
          %c1 = icmp slt i32 %x, 0\n\
          %m1 = call i32 @llvm.umin.i32(i32 %x, i32 255)\n\
          %t1 = trunc nuw i32 %m1 to i8\n\
          %s1 = select i1 %c1, i8 0, i8 %t1\n\
          ret i8 %s1\n}";
    let func = lpo_ir::parser::parse_function(text).unwrap();
    let pipeline = Pipeline::new(OptLevel::O2).with_patches(all_patches());
    assert_differential(&pipeline, &func, "layout != RPO with expanding patch");
}
