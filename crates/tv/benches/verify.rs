//! Microbenchmarks of the staged translation validator's three cost shapes:
//!
//! * `probe_reject_staged` / `probe_reject_reference` — a wrong candidate
//!   refuted on its first input, the dominant candidate traffic. Staged pays
//!   a couple of direct-evaluator calls; the reference pays
//!   `CompiledFunction::compile` plus one sweep step.
//! * `full_sweep_staged` / `full_sweep_reference` — a correct candidate over
//!   a 256-input exhaustive space: the survivor cost, where the plane tier
//!   sweeps the inputs 256 lanes at a time.
//! * `cached_survivor` — the same survivor verified through a warm
//!   `CompileCache`, the cross-candidate steady state.
//!
//! Run with `cargo bench -p lpo-tv --bench verify`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lpo_ir::function::Function;
use lpo_ir::parser::parse_function;
use lpo_tv::prelude::{CompileCache, EvalArena, SourceCache, TvConfig};
use std::time::Duration;

/// The Figure 1 clamp, narrowed to an i8 domain so the sweep is exhaustive.
fn clamp_source() -> Function {
    parse_function(
        "define i8 @src(i8 %0) {\n\
         %2 = icmp slt i8 %0, 0\n\
         %3 = call i8 @llvm.umin.i8(i8 %0, i8 63)\n\
         %4 = select i1 %2, i8 0, i8 %3\n\
         ret i8 %4\n}",
    )
    .unwrap()
}

/// Wrong on every concrete input: the clamp with the select arms flipped.
fn wrong_candidate() -> Function {
    parse_function(
        "define i8 @tgt(i8 %0) {\n\
         %2 = icmp slt i8 %0, 0\n\
         %3 = call i8 @llvm.umin.i8(i8 %0, i8 63)\n\
         %4 = select i1 %2, i8 %3, i8 0\n\
         ret i8 %4\n}",
    )
    .unwrap()
}

/// Correct: the canonical smax/umin form.
fn correct_candidate() -> Function {
    parse_function(
        "define i8 @tgt(i8 %0) {\n\
         %2 = call i8 @llvm.smax.i8(i8 %0, i8 0)\n\
         %3 = call i8 @llvm.umin.i8(i8 %2, i8 63)\n\
         ret i8 %3\n}",
    )
    .unwrap()
}

fn bench_probe_reject(c: &mut Criterion) {
    let src = clamp_source();
    let wrong = wrong_candidate();
    let correct = correct_candidate();
    let case = SourceCache::new(&src, TvConfig::default());
    let mut arena = EvalArena::new();
    // Warm the source-outcome cache so the benchmark isolates candidate cost.
    assert!(case.verify_with(&correct, &mut arena).is_correct());
    c.bench_function("probe_reject_staged", |b| {
        b.iter(|| black_box(case.verify_with(&wrong, &mut arena).is_correct()))
    });
    c.bench_function("probe_reject_reference", |b| {
        b.iter(|| black_box(case.verify_reference(&wrong, &mut arena).is_correct()))
    });
}

fn bench_full_sweep(c: &mut Criterion) {
    let src = clamp_source();
    let correct = correct_candidate();
    let case = SourceCache::new(&src, TvConfig::default());
    let mut arena = EvalArena::new();
    assert!(case.verify_with(&correct, &mut arena).is_correct());
    c.bench_function("full_sweep_staged", |b| {
        b.iter(|| black_box(case.verify_with(&correct, &mut arena).is_correct()))
    });
    c.bench_function("full_sweep_reference", |b| {
        b.iter(|| black_box(case.verify_reference(&correct, &mut arena).is_correct()))
    });
}

fn bench_cached_survivor(c: &mut Criterion) {
    let src = clamp_source();
    let correct = correct_candidate();
    let cache = CompileCache::new();
    let case = SourceCache::new(&src, TvConfig::default()).with_compile_cache(&cache);
    let mut arena = EvalArena::new();
    assert!(case.verify_with(&correct, &mut arena).is_correct()); // compile once
    c.bench_function("cached_survivor", |b| {
        b.iter(|| black_box(case.verify_with(&correct, &mut arena).is_correct()))
    });
    assert!(cache.misses() == 1 && cache.hits() > 0, "cache must have served the survivor");
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    targets = bench_probe_reject, bench_full_sweep, bench_cached_survivor
);
criterion_main!(benches);
