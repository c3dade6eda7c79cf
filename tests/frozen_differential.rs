//! Differential proof of the dense frozen case.
//!
//! The staged walk's Stage 3 sweeps every survivor against a
//! [`FrozenCase`](lpo_tv::prelude::FrozenCase). When the source is
//! plane-eligible, that case holds only a dense table swept on planes, and a
//! lane the table can't clear rebuilds its source outcome from the table;
//! otherwise (or with the plane tier off) every source outcome is
//! materialized. Neither form may change a verdict or a byte of a rendered
//! counterexample, so every pair here is checked three ways:
//!
//! * `verify_with_driver` with the plane tier on (dense frozen case when the
//!   source has a plane form);
//! * the same call with `plane_sweep: false` (materialized frozen case);
//! * the retained single-stage `verify_reference` path (no probe, no
//!   frozen case, no shards) as the independent oracle,
//!
//! at shard sizes 1, 7, 256 and unbounded. The pairs are fuzz pairs from
//! [`lpo_interp::fuzz::random_pair`], the rq1/rq2 corpora with their twisted
//! returns, branchy and phi targets checked against plane-eligible sources
//! (the dense pre-filter of the sweep's serial, non-plane tail), and
//! sources whose outcomes mix UB, poison and undef lanes.
//!
//! A frozen case is also shared: a [`CompileCache`] retains it for every
//! later source of the same digest, input configuration and plane setting.
//! The `reused_freezes_*` tests check the fuzz and corpus pairs once more
//! against a freeze kept from the source and reused by a renamed twin,
//! which must give the verdicts, counterexample text and tiers of a fresh
//! cache.
//!
//! The fuzz tests walk a fixed seed block and append a rotating block
//! derived from `LPO_FUZZ_SEED` when set — the CI fuzz-smoke step derives it
//! from the commit hash and logs it, so any failure is replayable with
//! `LPO_FUZZ_SEED=<seed> cargo test --test frozen_differential`.

use lpo_bench::twist_return;
use lpo_interp::fuzz::random_pair;
use lpo_ir::function::Function;
use lpo_ir::parser::parse_function;
use lpo_ir::printer::print_function;
use lpo_tv::inputs::InputConfig;
use lpo_tv::prelude::{
    input_count, CompileCache, EvalArena, SerialDriver, SourceCache, TvConfig, Verdict,
};

/// The shard sizes every pair is swept at.
const SHARD_SIZES: [usize; 4] = [1, 7, 256, usize::MAX];

/// The base seed block, plus the rotating block from `LPO_FUZZ_SEED` (same
/// protocol as `tests/plane_differential.rs`).
fn seed_block(count: usize, salt: u64) -> Vec<u64> {
    let mut seeds: Vec<u64> =
        (0..count as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt)).collect();
    if let Some(rotating) = rotating_seed() {
        eprintln!(
            "frozen fuzz: appending {} rotating seeds from LPO_FUZZ_SEED={rotating:#x}",
            count / 4
        );
        seeds.extend(
            (0..count as u64 / 4)
                .map(|i| rotating.wrapping_add(salt).wrapping_add(i.wrapping_mul(0x9e37_79b9))),
        );
    }
    seeds
}

/// The rotating seed from the environment, accepting decimal or `0x` hex.
fn rotating_seed() -> Option<u64> {
    let raw = std::env::var("LPO_FUZZ_SEED").ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => panic!("LPO_FUZZ_SEED must be a u64 (decimal or 0x hex), got {raw:?}"),
    }
}

/// The verdict as the LLM would see it: the full counterexample text for a
/// refutation, the debug form otherwise.
fn rendered(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Incorrect(cex) => cex.to_string(),
        other => format!("{other:?}"),
    }
}

/// How the checked survivors' frozen cases were laid out.
#[derive(Default)]
struct Coverage {
    /// Survivors swept against a dense frozen case.
    dense: usize,
    /// Of those, survivors whose sweep ran no plane chunk (a target with no
    /// plane form), i.e. the serial tail's dense pre-filter.
    dense_batched: usize,
    /// Survivors swept against a materialized frozen case.
    materialized: usize,
    /// Pairs whose reference verdict was a refutation.
    refuted: usize,
}

/// Checks `tgt` against `src` every way and records the frozen layouts.
fn check_pair(
    src: &Function,
    tgt: &Function,
    inputs: &InputConfig,
    arena: &mut EvalArena,
    coverage: &mut Coverage,
) {
    let config = |plane_sweep| TvConfig { inputs: inputs.clone(), plane_sweep, ..TvConfig::default() };
    let reference = SourceCache::new(src, config(true)).verify_reference(tgt, arena);
    let expected = rendered(&reference);
    coverage.refuted += usize::from(matches!(reference, Verdict::Incorrect(_)));
    for plane_sweep in [true, false] {
        for shard_size in SHARD_SIZES {
            let case = SourceCache::new(src, config(plane_sweep));
            let verdict = case.verify_with_driver(tgt, arena, &SerialDriver, shard_size);
            assert_eq!(
                rendered(&verdict),
                expected,
                "sharded walk diverged (plane {plane_sweep}, shard {shard_size}):\n{}\n{}",
                print_function(src),
                print_function(tgt)
            );
            assert_eq!(verdict, reference);
            if case.survivors() == 0 || shard_size != SHARD_SIZES[0] {
                continue;
            }
            if case.frozen_case(arena).is_dense() {
                assert!(plane_sweep, "a dense frozen case with the plane tier off");
                coverage.dense += 1;
                coverage.dense_batched += usize::from(case.plane_sweeps() == 0);
            } else {
                coverage.materialized += 1;
            }
        }
    }
}

/// `src` with every parameter renamed: the same digest, but its own names
/// in a rendered counterexample.
fn renamed(src: &Function) -> Function {
    let mut twin = src.clone();
    for param in &mut twin.params {
        param.name = format!("{}_twin", param.name);
    }
    twin
}

/// How often the reuse checks hit a retained freeze.
#[derive(Default)]
struct Reuse {
    /// Cases that reused a retained freeze.
    hits: usize,
    /// Of those, cases whose target is refuted: its second check rendered
    /// the counterexample with the reused freeze in place.
    refuted: usize,
}

/// Verifies `tgt`, then `src` itself (a sure survivor, unless the probe
/// window covers every input), then `tgt` again, on the source and on a
/// renamed twin, sharing one [`CompileCache`] across both plane settings:
/// the twin reuses the source's freeze when the case is large enough to
/// keep, and the plane settings never share one. Each shared case must
/// match a fresh cache's verdicts, rendered text and tiers, and a case that
/// reused a freeze counts only its probe prefix as source evaluations.
fn check_reuse(src: &Function, tgt: &Function, inputs: &InputConfig, arena: &mut EvalArena, reuse: &mut Reuse) {
    let cache = CompileCache::new();
    let twin = renamed(src);
    let kept = input_count(src, inputs) >= CompileCache::RETAIN_MIN_LANES;
    let mut froze = false;
    for plane_sweep in [true, false] {
        let config = TvConfig { inputs: inputs.clone(), plane_sweep, ..TvConfig::default() };
        for (source, is_twin) in [(src, false), (&twin, true)] {
            let fresh = SourceCache::new(source, config.clone());
            let shared = SourceCache::new(source, config.clone()).with_compile_cache(&cache);
            let hits_before = cache.freeze_hits();
            for candidate in [tgt, src, tgt] {
                let expected = fresh.verify_with(candidate, arena);
                let verdict = shared.verify_with_driver(candidate, arena, &SerialDriver, 7);
                assert_eq!(
                    rendered(&verdict),
                    rendered(&expected),
                    "a shared freeze changed the verdict (plane {plane_sweep}):\n{}\n{}",
                    print_function(source),
                    print_function(candidate)
                );
                assert_eq!(verdict, expected);
                assert_eq!(shared.last_tier(), fresh.last_tier());
            }
            assert_eq!(shared.survivors(), fresh.survivors());
            froze |= !is_twin && shared.survivors() > 0;
            let hit = cache.freeze_hits() > hits_before;
            assert_eq!(hit, is_twin && froze && kept, "only the twin reuses a kept freeze");
            if hit {
                reuse.hits += 1;
                reuse.refuted += usize::from(!fresh.verify_with(tgt, arena).is_correct());
                assert!(shared.source_eval_count() <= config.probe_inputs);
            } else {
                assert_eq!(shared.source_eval_count(), fresh.source_eval_count());
            }
        }
    }
    let (freezes, hits) = match (froze, kept) {
        (false, _) => (0, 0),
        (true, true) => (2, 2),
        (true, false) => (4, 0),
    };
    assert_eq!((cache.freezes(), cache.freeze_hits()), (freezes, hits), "one freeze per plane setting");
}

fn parse(text: &str) -> Function {
    parse_function(text).unwrap_or_else(|e| panic!("bad fixture: {e}\n{text}"))
}

#[test]
fn dense_frozen_cases_match_materialized_and_serial_on_fuzz_pairs() {
    let mut arena = EvalArena::new();
    let mut coverage = Coverage::default();
    for seed in seed_block(300, 0xf402_e7ca) {
        let (src, tgt) = random_pair(seed);
        let inputs = InputConfig { exhaustive_bits: 8, random_samples: 48, seed };
        check_pair(&src, &tgt, &inputs, &mut arena, &mut coverage);
        // The twisted source is refuted on some input past the probe far
        // more often than a random mutation is.
        if let Some(twisted) = twist_return(&src) {
            check_pair(&src, &twisted, &inputs, &mut arena, &mut coverage);
        }
    }
    eprintln!(
        "frozen fuzz: {} dense, {} materialized, {} refuted",
        coverage.dense, coverage.materialized, coverage.refuted
    );
    assert!(coverage.dense > 200, "dense frozen cases barely engaged: {}", coverage.dense);
    assert!(coverage.refuted > 150, "too few refutations to compare: {}", coverage.refuted);
}

#[test]
fn dense_frozen_cases_match_on_the_corpora() {
    let mut arena = EvalArena::new();
    let mut coverage = Coverage::default();
    for case in lpo_corpus::rq1_suite().iter().chain(lpo_corpus::rq2_suite().iter()) {
        let src = &case.function;
        let inputs = InputConfig { seed: u64::from(case.issue_id), ..InputConfig::default() };
        let mut candidates = vec![src.clone()];
        candidates.extend(twist_return(src));
        for candidate in &candidates {
            check_pair(src, candidate, &inputs, &mut arena, &mut coverage);
        }
    }
    // Both layouts occur: scalar-int sources freeze dense, memory, vector
    // and control-flow sources materialize.
    assert!(coverage.dense > 10, "too few dense corpus cases: {}", coverage.dense);
    assert!(coverage.materialized > 0, "no materialized corpus case");
}

/// Branchy and phi targets have no plane form, so against a dense frozen
/// case every lane goes through the serial compiled tail and its
/// `outcome_refines` pre-filter.
#[test]
fn branchy_targets_use_the_batched_dense_prefilter() {
    let src = parse("define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}");
    let targets = [
        // Correct, through a branch and a phi: no plane form.
        "define i8 @t(i8 %x) {\nentry:\n %c = icmp eq i8 %x, 255\n br i1 %c, label %wrap, label %inc\nwrap:\n br label %done\ninc:\n %a = add i8 %x, 1\n br label %done\ndone:\n %r = phi i8 [ 0, %wrap ], [ %a, %inc ]\n ret i8 %r\n}",
        // Wrong only for negative inputs: refuted at 128, past the probe.
        "define i8 @t(i8 %x) {\nentry:\n %c = icmp slt i8 %x, 0\n br i1 %c, label %neg, label %pos\nneg:\n %b = add i8 %x, 2\n ret i8 %b\npos:\n %a = add i8 %x, 1\n ret i8 %a\n}",
        // More poisonous only at the top of the range.
        "define i8 @t(i8 %x) {\nentry:\n %c = icmp ult i8 %x, 200\n br i1 %c, label %lo, label %hi\nlo:\n %a = add i8 %x, 1\n ret i8 %a\nhi:\n %b = add nuw i8 %x, 1\n ret i8 %b\n}",
        // Undef where the source is concrete.
        "define i8 @t(i8 %x) {\nentry:\n %c = icmp ult i8 %x, 240\n br i1 %c, label %lo, label %hi\nlo:\n %a = add i8 %x, 1\n ret i8 %a\nhi:\n ret i8 undef\n}",
    ];
    let mut arena = EvalArena::new();
    let mut coverage = Coverage::default();
    for text in targets {
        check_pair(&src, &parse(text), &InputConfig::default(), &mut arena, &mut coverage);
    }
    assert_eq!(coverage.dense, targets.len(), "every survivor froze a dense case");
    assert_eq!(coverage.dense_batched, targets.len(), "every survivor took the serial tail");
    assert_eq!(coverage.refuted, 3);
}

#[test]
fn ub_poison_and_undef_source_lanes_agree() {
    // Each source mixes defined lanes with UB, poison or undef lanes; the
    // targets are checked on the plane tier (straight-line) and the serial
    // compiled tail (branchy), refining and refuting.
    let cases: [(&str, &[&str]); 3] = [
        (
            // UB at x == 0.
            "define i8 @s(i8 %x) {\n %r = udiv i8 100, %x\n ret i8 %r\n}",
            &[
                "define i8 @t(i8 %x) {\n %r = udiv i8 100, %x\n ret i8 %r\n}",
                "define i8 @t(i8 %x) {\n %r = udiv i8 100, %x\n %t = xor i8 %r, 1\n ret i8 %t\n}",
                "define i8 @t(i8 %x) {\nentry:\n %c = icmp eq i8 %x, 0\n br i1 %c, label %z, label %d\nz:\n ret i8 7\nd:\n %r = udiv i8 100, %x\n ret i8 %r\n}",
                "define i8 @t(i8 %x) {\nentry:\n %c = icmp eq i8 %x, 77\n br i1 %c, label %z, label %d\nz:\n ret i8 7\nd:\n %r = udiv i8 100, %x\n ret i8 %r\n}",
            ],
        ),
        (
            // Poison for x > 27 (signed overflow).
            "define i8 @s(i8 %x) {\n %r = add nsw i8 %x, 100\n ret i8 %r\n}",
            &[
                "define i8 @t(i8 %x) {\n %r = add i8 %x, 100\n ret i8 %r\n}",
                "define i8 @t(i8 %x) {\n %r = add nuw i8 %x, 100\n ret i8 %r\n}",
                "define i8 @t(i8 %x) {\n %r = udiv i8 100, %x\n ret i8 %r\n}",
                "define i8 @t(i8 %x) {\nentry:\n %c = icmp sgt i8 %x, 27\n br i1 %c, label %p, label %d\np:\n ret i8 poison\nd:\n %r = add i8 %x, 100\n ret i8 %r\n}",
                "define i8 @t(i8 %x) {\nentry:\n %c = icmp sgt i8 %x, -20\n br i1 %c, label %p, label %d\np:\n ret i8 poison\nd:\n %r = add i8 %x, 100\n ret i8 %r\n}",
            ],
        ),
        (
            // Undef for x >= 128, concrete below.
            "define i8 @s(i8 %x) {\n %c = icmp slt i8 %x, 0\n %r = select i1 %c, i8 undef, i8 %x\n ret i8 %r\n}",
            &[
                "define i8 @t(i8 %x) {\n %c = icmp slt i8 %x, 0\n %r = select i1 %c, i8 0, i8 %x\n ret i8 %r\n}",
                "define i8 @t(i8 %x) {\n %c = icmp slt i8 %x, 0\n %r = select i1 %c, i8 poison, i8 %x\n ret i8 %r\n}",
                "define i8 @t(i8 %x) {\n %c = icmp slt i8 %x, 0\n %r = select i1 %c, i8 undef, i8 undef\n ret i8 %r\n}",
                "define i8 @t(i8 %x) {\nentry:\n %c = icmp slt i8 %x, 0\n br i1 %c, label %n, label %p\nn:\n ret i8 poison\np:\n ret i8 %x\n}",
                "define i8 @t(i8 %x) {\nentry:\n %c = icmp slt i8 %x, 0\n br i1 %c, label %n, label %p\nn:\n ret i8 9\np:\n ret i8 %x\n}",
            ],
        ),
    ];
    let mut arena = EvalArena::new();
    let mut coverage = Coverage::default();
    for (src, targets) in cases {
        let src = parse(src);
        for text in targets {
            check_pair(&src, &parse(text), &InputConfig::default(), &mut arena, &mut coverage);
        }
    }
    assert!(coverage.dense_batched >= 4, "branchy targets missed the serial tail's pre-filter");
    assert!(coverage.refuted >= 5, "too few refutations: {}", coverage.refuted);
}

#[test]
fn reused_freezes_match_fresh_caches_on_fuzz_pairs() {
    let mut arena = EvalArena::new();
    let mut reuse = Reuse::default();
    // Enough samples that every case is large enough for its freeze to be
    // kept, exhaustive or sampled.
    for seed in seed_block(48, 0x5eed_f7ee) {
        let (src, tgt) = random_pair(seed);
        let inputs = InputConfig { exhaustive_bits: 12, random_samples: CompileCache::RETAIN_MIN_LANES, seed };
        check_reuse(&src, &tgt, &inputs, &mut arena, &mut reuse);
        if let Some(twisted) = twist_return(&src) {
            check_reuse(&src, &twisted, &inputs, &mut arena, &mut reuse);
        }
    }
    eprintln!("freeze reuse fuzz: {} hits, {} refuted from a reused freeze", reuse.hits, reuse.refuted);
    assert!(reuse.refuted > 30, "too few refutations rendered from a reused freeze: {}", reuse.refuted);
}

#[test]
fn reused_freezes_match_fresh_caches_on_the_corpora() {
    let mut arena = EvalArena::new();
    let mut reuse = Reuse::default();
    for case in lpo_corpus::rq1_suite().iter().chain(lpo_corpus::rq2_suite().iter()) {
        let src = &case.function;
        let inputs = InputConfig { seed: u64::from(case.issue_id), ..InputConfig::default() };
        let tgt = twist_return(src).unwrap_or_else(|| src.clone());
        check_reuse(src, &tgt, &inputs, &mut arena, &mut reuse);
    }
    eprintln!("freeze reuse corpora: {} hits, {} refuted from a reused freeze", reuse.hits, reuse.refuted);
    assert!(reuse.refuted > 10, "too few corpus refutations from a reused freeze: {}", reuse.refuted);
}
