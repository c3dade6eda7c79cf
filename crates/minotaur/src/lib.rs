//! # lpo-minotaur
//!
//! A synthesizing-superoptimizer baseline modelled on Minotaur (Liu et al.),
//! the second comparison point of the LPO paper. Minotaur focuses on integer
//! and floating-point **SIMD** code: it supports vector operations and the
//! min/max intrinsic families that Souper lacks, but its synthesis strategy is
//! template-driven and narrow, so — as the paper reports — it detects far
//! fewer missed optimizations than either Souper-Enum or LPO, and it crashes
//! on some floating-point inputs.
//!
//! See `ARCHITECTURE.md` at the repository root for the workspace crate
//! graph and where this crate sits in the three-stage verification flow.

use lpo::exec::ExecConfig;
use lpo::shard::ShardRuntime;
use lpo_ir::function::Function;
use lpo_ir::instruction::InstKind;
use lpo_llm::strategies::{apply_strategy, Strategy};
use lpo_tv::inputs::{InputCache, InputConfig};
use lpo_tv::prelude::EvalArena;
use lpo_tv::refine::{CompileCache, SourceCache, TvConfig};
use std::time::{Duration, Instant};

/// The result category of one Minotaur run.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// A verified, cheaper replacement was found.
    Found(Function),
    /// No template produced a verified improvement.
    NotFound,
    /// The tool crashed on this input (the paper observes this on the
    /// FP select of case study 3).
    Crashed(String),
}

/// The outcome plus timing for one case.
#[derive(Clone, Debug)]
pub struct MinotaurResult {
    /// What happened.
    pub outcome: Outcome,
    /// Real wall-clock time of this reproduction.
    pub elapsed: Duration,
    /// Modelled execution time of the original tool on this case.
    pub modeled: Duration,
}

impl MinotaurResult {
    /// Returns `true` if a replacement was found.
    pub fn found(&self) -> bool {
        matches!(self.outcome, Outcome::Found(_))
    }
}

/// The synthesis templates Minotaur applies. This is deliberately a *narrow*
/// subset of the strategy library: vector lane rewrites, simple integer icmp
/// folds and the mask/identity family — mirroring the small detection counts
/// the paper reports (3 of 25 in RQ1, 13 of 62 in RQ2).
fn templates() -> Vec<Strategy> {
    const SUPPORTED: [&str; 5] = [
        "shuffle-identity",
        "patch-142711",   // icmp of xor
        "patch-157524",   // shl/lshr mask
        "patch-163108-2", // or of complementary masks
        "patch-157370",   // not of icmp
    ];
    lpo_llm::strategies::library()
        .iter()
        .filter(|s| SUPPORTED.contains(&s.name))
        .copied()
        .collect()
}

fn crashes_on(func: &Function) -> Option<String> {
    // The paper notes Minotaur crashes on the fcmp-ord/select pattern of case
    // study 3; reproduce that behaviour for FP selects guarded by an fcmp.
    let has_fp_select = func.iter_insts().any(|(_, inst)| {
        matches!(inst.kind, InstKind::Select { .. }) && inst.ty.is_float_or_float_vector()
    });
    let has_fcmp = func.iter_insts().any(|(_, inst)| matches!(inst.kind, InstKind::FCmp { .. }));
    if has_fp_select && has_fcmp {
        Some("slice construction failed on a floating-point select".to_string())
    } else {
        None
    }
}

/// Runs the Minotaur baseline over a batch of sequences on `jobs` worker
/// threads (`0` = available parallelism), returning results in input order.
///
/// The cases run on the engine's [`ShardRuntime`], each worker reusing one
/// evaluation arena. Each case is a pure function of `func`, so the output
/// is bit-identical for every worker count — the same contract as the
/// session engine in `lpo-core`.
pub fn superoptimize_batch(functions: &[Function], jobs: usize) -> Vec<MinotaurResult> {
    let jobs = ExecConfig::with_jobs(jobs).effective_jobs(functions.len());
    // One compiled-function cache per batch (template instantiations repeat
    // structurally across similar cases) and one input-set cache (cases of
    // one signature share their test inputs); hits only save wall-clock
    // time, never change outcomes, so jobs-invariance holds.
    let cache = CompileCache::new();
    let inputs = InputCache::new();
    ShardRuntime::new(jobs, Default::default()).run_cases(functions.len(), |index, arena| {
        scan(&functions[index], &cache, &inputs, arena)
    })
}

/// Runs the Minotaur baseline on one wrapped instruction sequence.
pub fn superoptimize(func: &Function) -> MinotaurResult {
    scan(func, &CompileCache::new(), &InputCache::new(), &mut EvalArena::new())
}

/// The template scan of one case, evaluating on `arena`. The
/// compiled-function and input-set caches are shared across a batch by
/// [`superoptimize_batch`]; they only affect wall-clock time, never
/// outcomes.
fn scan(
    func: &Function,
    compile_cache: &CompileCache,
    input_cache: &InputCache,
    arena: &mut EvalArena,
) -> MinotaurResult {
    let start = Instant::now();
    if let Some(reason) = crashes_on(func) {
        return MinotaurResult {
            outcome: Outcome::Crashed(reason),
            elapsed: start.elapsed(),
            modeled: Duration::from_secs(2),
        };
    }
    // Stage 1, source side, **once per case** and text-free: the template
    // scan and the verifier both work on the canonical `Function` value, the
    // same form `opt` would hand the real tool. Extracted corpus sequences
    // are canonical fixpoints already, so table outcomes are unchanged.
    let mut canonical = func.clone();
    let _ = lpo_opt::pipeline::Pipeline::default().run(&mut canonical);
    let func = &canonical;
    // All templates verify against the same source: cache its per-input
    // outcomes and reuse one evaluation arena across the whole scan.
    let case = SourceCache::new(func, minotaur_tv())
        .with_compile_cache(compile_cache)
        .with_input_cache(input_cache);
    let mut templates_tried = 0usize;
    for template in templates() {
        templates_tried += 1;
        if let Some(candidate) = apply_strategy(&template, func) {
            if candidate.instruction_count() <= func.instruction_count()
                && case.verify_outcome_only(&candidate, arena)
            {
                return MinotaurResult {
                    outcome: Outcome::Found(candidate),
                    elapsed: start.elapsed(),
                    modeled: Duration::from_secs_f64(3.0 + 2.5 * templates_tried as f64),
                };
            }
        }
    }
    MinotaurResult {
        outcome: Outcome::NotFound,
        elapsed: start.elapsed(),
        modeled: Duration::from_secs_f64(3.0 + 2.5 * templates_tried as f64),
    }
}

fn minotaur_tv() -> TvConfig {
    TvConfig {
        inputs: InputConfig { exhaustive_bits: 10, random_samples: 48, seed: 0x3140 },
        ..TvConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;

    #[test]
    fn batch_is_ordered_and_jobs_invariant() {
        let texts = [
            "define i32 @a(i32 %x) {\n %r = add i32 %x, 0\n ret i32 %r\n}",
            "define i1 @b(i32 %x, i32 %y) {\n %a = xor i32 %x, %y\n %c = icmp eq i32 %a, 0\n ret i1 %c\n}",
        ];
        let functions: Vec<Function> = texts.iter().map(|t| parse_function(t).unwrap()).collect();
        let serial = superoptimize_batch(&functions, 1);
        assert_eq!(serial.len(), functions.len());
        // `0` resolves to the host's cores and more jobs than cases clamp to
        // one worker per case; neither may change a result.
        for jobs in [0, 2, functions.len() + 5] {
            let parallel = superoptimize_batch(&functions, jobs);
            assert_eq!(parallel.len(), functions.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.outcome, p.outcome, "jobs {jobs}");
                assert_eq!(s.modeled, p.modeled, "jobs {jobs}");
            }
        }
    }

    #[test]
    fn finds_its_simd_and_mask_templates() {
        let f = parse_function(
            "define <4 x i32> @f(<4 x i32> %v, <4 x i32> %w) {\n\
             %s = shufflevector <4 x i32> %v, <4 x i32> %w, <4 x i32> <i32 0, i32 1, i32 2, i32 3>\n\
             %r = add <4 x i32> %s, zeroinitializer\n\
             ret <4 x i32> %r\n}",
        )
        .unwrap();
        assert!(superoptimize(&f).found());

        let g = parse_function(
            "define i1 @g(i8 %x) {\n %a = xor i8 %x, 12\n %c = icmp eq i8 %a, 5\n ret i1 %c\n}",
        )
        .unwrap();
        assert!(superoptimize(&g).found());
    }

    #[test]
    fn misses_the_clamp_and_memory_cases() {
        // Figure 1: supported operations (it can handle umin), but no template matches.
        let clamp = parse_function(
            "define i8 @src(i32 %0) {\n\
             %2 = icmp slt i32 %0, 0\n\
             %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
             %4 = trunc nuw i32 %3 to i8\n\
             %5 = select i1 %2, i8 0, i8 %4\n\
             ret i8 %5\n}",
        )
        .unwrap();
        assert_eq!(superoptimize(&clamp).outcome, Outcome::NotFound);

        // Case study 1 (load merging) is also missed.
        let loads = parse_function(
            "define i32 @src(ptr %0) {\n\
             %2 = load i16, ptr %0, align 2\n\
             %3 = getelementptr i8, ptr %0, i64 2\n\
             %4 = load i16, ptr %3, align 1\n\
             %5 = zext i16 %4 to i32\n\
             %6 = shl nuw i32 %5, 16\n\
             %7 = zext i16 %2 to i32\n\
             %8 = or disjoint i32 %6, %7\n\
             ret i32 %8\n}",
        )
        .unwrap();
        assert_eq!(superoptimize(&loads).outcome, Outcome::NotFound);
    }

    #[test]
    fn crashes_on_fp_select_like_case_study_3() {
        let f = parse_function(
            "define i1 @src(double %0) {\n\
             %2 = fcmp ord double %0, 0.000000e+00\n\
             %3 = select i1 %2, double %0, double 0.000000e+00\n\
             %4 = fcmp oeq double %3, 1.000000e+00\n\
             ret i1 %4\n}",
        )
        .unwrap();
        let r = superoptimize(&f);
        assert!(matches!(r.outcome, Outcome::Crashed(_)));
        assert!(!r.found());
    }

    #[test]
    fn reports_timing() {
        let f = parse_function("define i32 @f(i32 %x) {\n %a = mul i32 %x, 7\n %b = add i32 %a, %x\n ret i32 %b\n}").unwrap();
        let r = superoptimize(&f);
        assert!(r.modeled > Duration::from_secs(1));
    }
}
