//! The optimization knowledge of the simulated models.
//!
//! A [`Strategy`] is one family of peephole rewrites a model may "know": the
//! fifteen patterns that correspond to optimizations the paper reports (and
//! LLVM later fixed — reused from `lpo-opt::patches`), plus additional
//! families that the RQ2 corpus embeds. Each strategy carries a *difficulty*
//! in `[0, 1]`; whether a simulated model successfully applies a matching
//! strategy is decided by comparing its skill against that difficulty (see
//! [`crate::simulated`]).

use lpo_ir::apint::ApInt;
use lpo_ir::flags::IntFlags;
use lpo_ir::function::Function;
use lpo_ir::instruction::{BinOp, BlockId, CastOp, FCmpPred, ICmpPred, InstId, InstKind, Intrinsic};
use lpo_opt::dce::eliminate_dead_code;
use lpo_opt::patches;
use lpo_opt::rewrite::{
    as_const_int, const_bool_of, defining_inst, is_all_ones, is_one, is_zero, mutate,
    replace_with, NamedRule, RewriteRule,
};
use std::sync::OnceLock;

/// One rewrite family a model may know.
#[derive(Clone, Copy, Debug)]
pub struct Strategy {
    /// Short name, e.g. `clamp-select` or `patch-128134`.
    pub name: &'static str,
    /// How hard the paper's models found this class of rewrites (0 = trivial).
    pub difficulty: f64,
    /// The rewrite itself.
    pub rule: RewriteRule,
}

/// The full strategy library, built on first use.
pub fn library() -> &'static [Strategy] {
    static LIBRARY: OnceLock<Vec<Strategy>> = OnceLock::new();
    LIBRARY.get_or_init(build_library)
}

fn build_library() -> Vec<Strategy> {
    let mut lib = Vec::new();
    // Families corresponding to the accepted patches (Table 5).
    let difficulty_of = |name: &str| -> f64 {
        match name {
            "patch-128134" => 0.80,  // adjacent load merging: memory reasoning
            "patch-133367" => 0.62,  // fcmp ord + select
            "patch-142674" => 0.64,  // redundant umax before shl nuw
            "patch-142711" => 0.40,  // icmp of xor
            "patch-143211" => 0.36,  // icmp of negation
            "patch-143636" => 0.55,  // clamp select → smax/umin (Figure 1)
            "patch-154238" => 0.45,  // umin of zext
            "patch-157315" => 0.38,  // low-bit test
            "patch-157370" => 0.34,  // not of icmp
            "patch-157371-1" => 0.52, // usub.sat compare
            "patch-157371-2" => 0.57, // umin-vs-bound compare
            "patch-157524" => 0.42,  // shl/lshr mask
            "patch-163108-1" => 0.60, // exact div · mul
            "patch-163108-2" => 0.58, // or of complementary masks
            "patch-166973" => 0.37,  // redundant zero select
            _ => 0.55,
        }
    };
    for patch in patches::all_patches() {
        lib.push(Strategy {
            name: patch.rule.name,
            difficulty: difficulty_of(patch.rule.name),
            rule: patch.rule.rule,
        });
    }
    // Additional families used by the RQ2 corpus.
    lib.push(Strategy { name: "narrow-sign-check", difficulty: 0.46, rule: narrow_sign_check });
    lib.push(Strategy { name: "neg-via-not", difficulty: 0.48, rule: neg_via_not });
    lib.push(Strategy { name: "abs-of-abs", difficulty: 0.50, rule: abs_of_abs });
    lib.push(Strategy { name: "sat-add-compare", difficulty: 0.63, rule: sat_add_compare });
    lib.push(Strategy { name: "shuffle-identity", difficulty: 0.47, rule: shuffle_identity });
    lib.push(Strategy { name: "fcmp-uno-or", difficulty: 0.72, rule: fcmp_uno_or });
    lib.push(Strategy { name: "select-to-abs", difficulty: 0.59, rule: select_to_abs });
    lib
}

/// Looks up a strategy by name.
pub fn by_name(name: &str) -> Option<Strategy> {
    library().iter().find(|s| s.name == name).copied()
}

/// A position in one pass of a rule: block index, then instruction position
/// within the block.
type Cursor = (usize, usize);

/// Runs one pass of `rule` over `func` from `from` to the end of the
/// function. After the rule fires at a position, the same position is tried
/// again, because the rule may have replaced the instruction there. With
/// `stop_at_fire` the pass returns right after the first firing with the
/// cursor to resume from; otherwise it runs to the end. `None` when the rule
/// never fired.
fn pass(rule: RewriteRule, func: &mut Function, from: Cursor, stop_at_fire: bool) -> Option<Cursor> {
    let (mut block_idx, mut pos) = from;
    let mut fired = None;
    while block_idx < func.blocks().len() {
        let block = BlockId(block_idx as u32);
        while pos < func.block(block).insts.len() {
            let id: InstId = func.block(block).insts[pos];
            if rule(func, id, block, pos) {
                pos = pos.min(func.block(block).insts.len());
                fired = Some((block_idx, pos));
                if stop_at_fire {
                    return fired;
                }
            } else {
                pos += 1;
            }
        }
        block_idx += 1;
        pos = 0;
    }
    fired
}

/// Completes a rewrite whose rule first fired on `func` just before
/// `resume`: the rest of that pass, up to three more passes while the rule
/// keeps firing, then dead-code cleanup.
fn finish(rule: RewriteRule, func: &mut Function, resume: Cursor) {
    pass(rule, func, resume, false);
    for _ in 1..4 {
        if pass(rule, func, (0, 0), false).is_none() {
            break;
        }
    }
    eliminate_dead_code(func);
    func.compact();
}

/// Applies one strategy to a function: scans every instruction, applies the
/// rule wherever it matches, cleans up dead code, and returns the rewritten
/// function if anything changed.
pub fn apply_strategy(strategy: &Strategy, func: &Function) -> Option<Function> {
    let mut out = func.clone();
    let resume = pass(strategy.rule, &mut out, (0, 0), true)?;
    finish(strategy.rule, &mut out, resume);
    Some(out)
}

/// Scans the library in order for the strategies that rewrite `func`, and
/// builds the rewrite of the first one `take` accepts: the same function
/// [`apply_strategy`] returns for it. `take` is asked once per applicable
/// strategy, in library order, until it answers `true`.
///
/// Every rule runs on one scratch clone. A rule that does not fire leaves
/// the function unchanged, so the scratch is cloned again only after a rule
/// fires, and only the accepted strategy's rewrite is completed.
pub fn choose(func: &Function, mut take: impl FnMut(&Strategy) -> bool) -> Option<(Strategy, Function)> {
    let mut scratch = func.clone();
    for strategy in library() {
        let Some(resume) = pass(strategy.rule, &mut scratch, (0, 0), true) else {
            continue;
        };
        if take(strategy) {
            finish(strategy.rule, &mut scratch, resume);
            return Some((*strategy, scratch));
        }
        scratch = func.clone();
    }
    None
}

/// Finds the first strategy in the library that rewrites the function, in
/// library order. Returns the strategy and the rewritten function.
pub fn first_applicable(func: &Function) -> Option<(Strategy, Function)> {
    choose(func, |_| true)
}

/// All strategies that can rewrite the function, each with the rewrite
/// [`apply_strategy`] builds, scanned on one scratch clone as in [`choose`].
pub fn applicable(func: &Function) -> Vec<(Strategy, Function)> {
    let mut found = Vec::new();
    let mut scratch = func.clone();
    for strategy in library() {
        if let Some(resume) = pass(strategy.rule, &mut scratch, (0, 0), true) {
            finish(strategy.rule, &mut scratch, resume);
            found.push((*strategy, std::mem::replace(&mut scratch, func.clone())));
        }
    }
    found
}

/// The named-rule view of the extra (non-patch) strategies, for reuse in tests
/// and ablations.
pub fn extra_rules() -> Vec<NamedRule> {
    vec![
        NamedRule { name: "narrow-sign-check", rule: narrow_sign_check },
        NamedRule { name: "neg-via-not", rule: neg_via_not },
        NamedRule { name: "abs-of-abs", rule: abs_of_abs },
        NamedRule { name: "sat-add-compare", rule: sat_add_compare },
        NamedRule { name: "shuffle-identity", rule: shuffle_identity },
        NamedRule { name: "fcmp-uno-or", rule: fcmp_uno_or },
        NamedRule { name: "select-to-abs", rule: select_to_abs },
    ]
}

// ---------------------------------------------------------------------------
// Extra rewrite families
// ---------------------------------------------------------------------------

/// `icmp slt (sext X), 0` → `icmp slt X, 0` (sign is preserved by sext).
fn narrow_sign_check(func: &mut Function, id: InstId, _b: BlockId, _p: usize) -> bool {
    let inst = func.inst(id);
    let ty = inst.ty.clone();
    let InstKind::ICmp { pred, lhs, rhs } = inst.kind.clone() else {
        return false;
    };
    if !matches!(pred, ICmpPred::Slt | ICmpPred::Sgt | ICmpPred::Sge | ICmpPred::Sle) || !is_zero(&rhs) {
        return false;
    }
    let Some((_, InstKind::Cast { op: CastOp::SExt, value, .. })) =
        defining_inst(func, &lhs).map(|(i, k)| (i, k.clone()))
    else {
        return false;
    };
    let narrow_ty = func.value_type(&value);
    let zero = lpo_opt::rewrite::const_int_of(&narrow_ty, 0);
    mutate(func, id, InstKind::ICmp { pred, lhs: value, rhs: zero }, ty)
}

/// `add (xor X, -1), 1` → `sub 0, X` (two's-complement negation).
fn neg_via_not(func: &mut Function, id: InstId, _b: BlockId, _p: usize) -> bool {
    let inst = func.inst(id);
    let ty = inst.ty.clone();
    let InstKind::Binary { op: BinOp::Add, lhs, rhs, .. } = inst.kind.clone() else {
        return false;
    };
    if !is_one(&rhs) {
        return false;
    }
    let Some((_, InstKind::Binary { op: BinOp::Xor, lhs: x, rhs: not_mask, .. })) =
        defining_inst(func, &lhs).map(|(i, k)| (i, k.clone()))
    else {
        return false;
    };
    if !is_all_ones(&not_mask) {
        return false;
    }
    let zero = lpo_opt::rewrite::const_int_of(&ty, 0);
    mutate(
        func,
        id,
        InstKind::Binary { op: BinOp::Sub, lhs: zero, rhs: x, flags: IntFlags::none() },
        ty,
    )
}

/// `abs(abs(X))` → `abs(X)` (when neither call is `is_int_min_poison`).
fn abs_of_abs(func: &mut Function, id: InstId, _b: BlockId, _p: usize) -> bool {
    let inst = func.inst(id);
    let InstKind::Call { intrinsic: Intrinsic::Abs, args, .. } = inst.kind.clone() else {
        return false;
    };
    if as_const_int(&args[1]).map(|c| c.is_zero()) != Some(true) {
        return false;
    }
    let Some((_, InstKind::Call { intrinsic: Intrinsic::Abs, args: inner_args, .. })) =
        defining_inst(func, &args[0]).map(|(i, k)| (i, k.clone()))
    else {
        return false;
    };
    if as_const_int(&inner_args[1]).map(|c| c.is_zero()) != Some(true) {
        return false;
    }
    replace_with(func, id, args[0].clone())
}

/// `icmp ult (uadd.sat X, C), C` → `false` (a saturating add never drops below
/// either operand).
fn sat_add_compare(func: &mut Function, id: InstId, _b: BlockId, _p: usize) -> bool {
    let inst = func.inst(id);
    let ty = inst.ty.clone();
    let InstKind::ICmp { pred: ICmpPred::Ult, lhs, rhs } = inst.kind.clone() else {
        return false;
    };
    let Some(c) = as_const_int(&rhs) else {
        return false;
    };
    let Some((_, InstKind::Call { intrinsic: Intrinsic::UaddSat, args, .. })) =
        defining_inst(func, &lhs).map(|(i, k)| (i, k.clone()))
    else {
        return false;
    };
    if as_const_int(&args[1]) != Some(c) {
        return false;
    }
    replace_with(func, id, const_bool_of(&ty, false))
}

/// `shufflevector X, Y, <0, 1, …, n-1>` → `X` (identity shuffle).
fn shuffle_identity(func: &mut Function, id: InstId, _b: BlockId, _p: usize) -> bool {
    let inst = func.inst(id);
    let InstKind::ShuffleVector { a, mask, .. } = inst.kind.clone() else {
        return false;
    };
    let lanes = func.value_type(&a).lanes().unwrap_or(0) as i32;
    if mask.len() as i32 != lanes || !mask.iter().enumerate().all(|(i, m)| *m == i as i32) {
        return false;
    }
    replace_with(func, id, a)
}

/// `or (fcmp uno X, 0.0), (fcmp olt X, C)` → `fcmp ult X, C` (the unordered
/// predicate already covers the NaN case).
fn fcmp_uno_or(func: &mut Function, id: InstId, _b: BlockId, _p: usize) -> bool {
    let inst = func.inst(id);
    let ty = inst.ty.clone();
    if ty != lpo_ir::types::Type::i1() {
        return false;
    }
    let InstKind::Binary { op: BinOp::Or, lhs, rhs, .. } = inst.kind.clone() else {
        return false;
    };
    let get_fcmp = |func: &Function, v: &lpo_ir::instruction::Value| {
        defining_inst(func, v).and_then(|(i, k)| match k.clone() {
            InstKind::FCmp { pred, lhs, rhs } => Some((i, pred, lhs, rhs)),
            _ => None,
        })
    };
    for (uno_side, cmp_side) in [(&lhs, &rhs), (&rhs, &lhs)] {
        let Some((_, FCmpPred::Uno, uno_lhs, _)) = get_fcmp(func, uno_side) else { continue };
        let Some((_, pred, cmp_lhs, cmp_rhs)) = get_fcmp(func, cmp_side) else { continue };
        if uno_lhs != cmp_lhs {
            continue;
        }
        let unordered_pred = match pred {
            FCmpPred::Olt => FCmpPred::Ult,
            FCmpPred::Ole => FCmpPred::Ule,
            FCmpPred::Ogt => FCmpPred::Ugt,
            FCmpPred::Oge => FCmpPred::Uge,
            FCmpPred::Oeq => FCmpPred::Ueq,
            FCmpPred::One => FCmpPred::Une,
            _ => continue,
        };
        return mutate(
            func,
            id,
            InstKind::FCmp { pred: unordered_pred, lhs: cmp_lhs, rhs: cmp_rhs },
            ty,
        );
    }
    false
}

/// `select (icmp sgt X, -1), X, (sub 0, X)` → `abs(X)` (without INT_MIN poison).
fn select_to_abs(func: &mut Function, id: InstId, _b: BlockId, _p: usize) -> bool {
    let inst = func.inst(id);
    let ty = inst.ty.clone();
    if !ty.is_int_or_int_vector() {
        return false;
    }
    let InstKind::Select { cond, on_true, on_false } = inst.kind.clone() else {
        return false;
    };
    let Some((_, InstKind::ICmp { pred: ICmpPred::Sgt, lhs: x, rhs: minus_one })) =
        defining_inst(func, &cond).map(|(i, k)| (i, k.clone()))
    else {
        return false;
    };
    if as_const_int(&minus_one) != Some(ApInt::all_ones(ty.scalar_type().int_width().unwrap_or(1)))
        || on_true != x
    {
        return false;
    }
    let Some((_, InstKind::Binary { op: BinOp::Sub, lhs: zero, rhs: negated, .. })) =
        defining_inst(func, &on_false).map(|(i, k)| (i, k.clone()))
    else {
        return false;
    };
    if !is_zero(&zero) || negated != x {
        return false;
    }
    mutate(
        func,
        id,
        InstKind::Call {
            intrinsic: Intrinsic::Abs,
            args: vec![x, lpo_ir::instruction::Value::bool(false)],
            fmf: Default::default(),
        },
        ty,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;
    use lpo_ir::printer::print_function;
    use lpo_tv::refine::verify_refinement;

    fn apply(name: &str, text: &str) -> Option<String> {
        let func = parse_function(text).unwrap();
        let strategy = by_name(name).expect("strategy exists");
        let rewritten = apply_strategy(&strategy, &func)?;
        let verdict = verify_refinement(&func, &rewritten);
        assert!(verdict.is_correct(), "strategy {name} produced a wrong rewrite: {verdict:?}");
        Some(print_function(&rewritten))
    }

    #[test]
    fn library_covers_patches_and_extras() {
        let lib = library();
        assert_eq!(lib.len(), 15 + 7);
        assert!(lib.iter().all(|s| s.difficulty > 0.0 && s.difficulty < 1.0));
        assert!(by_name("patch-143636").is_some());
        assert!(by_name("fcmp-uno-or").is_some());
        assert!(by_name("made-up").is_none());
        // Memory reasoning is the hardest family, simple icmp folds the easiest.
        assert!(by_name("patch-128134").unwrap().difficulty > by_name("patch-157370").unwrap().difficulty);
    }

    #[test]
    fn clamp_strategy_reproduces_figure_1() {
        let out = apply(
            "patch-143636",
            "define i8 @src(i32 %0) {\n\
             %2 = icmp slt i32 %0, 0\n\
             %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
             %4 = trunc nuw i32 %3 to i8\n\
             %5 = select i1 %2, i8 0, i8 %4\n\
             ret i8 %5\n}",
        )
        .expect("strategy applies");
        assert!(out.contains("llvm.smax.i32"));
        assert!(!out.contains("select"));
    }

    #[test]
    fn extra_strategies_rewrite_and_verify() {
        let out = apply(
            "narrow-sign-check",
            "define i1 @f(i16 %x) {\n %s = sext i16 %x to i64\n %c = icmp slt i64 %s, 0\n ret i1 %c\n}",
        )
        .unwrap();
        assert!(out.contains("icmp slt i16 %x, 0"));

        let out = apply(
            "neg-via-not",
            "define i32 @f(i32 %x) {\n %n = xor i32 %x, -1\n %r = add i32 %n, 1\n ret i32 %r\n}",
        )
        .unwrap();
        assert!(out.contains("sub i32 0, %x"));

        let out = apply(
            "abs-of-abs",
            "define i32 @f(i32 %x) {\n\
             %a = call i32 @llvm.abs.i32(i32 %x, i1 false)\n\
             %b = call i32 @llvm.abs.i32(i32 %a, i1 false)\n ret i32 %b\n}",
        )
        .unwrap();
        assert_eq!(out.matches("llvm.abs").count(), 1);

        let out = apply(
            "sat-add-compare",
            "define i1 @f(i8 %x) {\n\
             %s = call i8 @llvm.uadd.sat.i8(i8 %x, i8 10)\n\
             %c = icmp ult i8 %s, 10\n ret i1 %c\n}",
        )
        .unwrap();
        assert!(out.contains("ret i1 false"));

        let out = apply(
            "shuffle-identity",
            "define <4 x i32> @f(<4 x i32> %v) {\n\
             %s = shufflevector <4 x i32> %v, <4 x i32> %v, <4 x i32> <i32 0, i32 1, i32 2, i32 3>\n\
             ret <4 x i32> %s\n}",
        )
        .unwrap();
        assert!(out.contains("ret <4 x i32> %v"));

        let out = apply(
            "fcmp-uno-or",
            "define i1 @f(double %x) {\n\
             %nan = fcmp uno double %x, 0.000000e+00\n\
             %lt = fcmp olt double %x, 5.000000e+00\n\
             %r = or i1 %nan, %lt\n ret i1 %r\n}",
        )
        .unwrap();
        assert!(out.contains("fcmp ult double %x, 5"));

        let out = apply(
            "select-to-abs",
            "define i32 @f(i32 %x) {\n\
             %c = icmp sgt i32 %x, -1\n\
             %n = sub i32 0, %x\n\
             %s = select i1 %c, i32 %x, i32 %n\n ret i32 %s\n}",
        )
        .unwrap();
        assert!(out.contains("llvm.abs.i32"));
    }

    #[test]
    fn strategies_do_not_fire_on_unrelated_code() {
        let func = parse_function(
            "define i32 @f(i32 %x, i32 %y) {\n %a = mul i32 %x, %y\n %b = add i32 %a, %y\n ret i32 %b\n}",
        )
        .unwrap();
        assert!(first_applicable(&func).is_none());
        assert!(applicable(&func).is_empty());
    }

    #[test]
    fn vector_clamp_is_covered_by_the_same_strategy() {
        let out = apply(
            "patch-143636",
            "define <4 x i8> @src(<4 x i32> %x) {\n\
             %c = icmp slt <4 x i32> %x, zeroinitializer\n\
             %m = call <4 x i32> @llvm.umin.v4i32(<4 x i32> %x, <4 x i32> splat (i32 255))\n\
             %t = trunc nuw <4 x i32> %m to <4 x i8>\n\
             %s = select <4 x i1> %c, <4 x i8> zeroinitializer, <4 x i8> %t\n\
             ret <4 x i8> %s\n}",
        )
        .expect("vector clamp handled");
        assert!(out.contains("llvm.smax.v4i32"));
    }

    #[test]
    fn multiple_strategies_can_apply_to_one_function() {
        let func = parse_function(
            "define i1 @f(i32 %x) {\n\
             %n = sub i32 0, %x\n\
             %c = icmp eq i32 %n, 0\n\
             %d = xor i1 %c, true\n\
             ret i1 %d\n}",
        )
        .unwrap();
        let hits = applicable(&func);
        assert!(hits.len() >= 2, "expected both the neg-compare and not-of-icmp strategies, got {}", hits.len());
    }

    /// The fixed fuzz seed block, plus a rotating block derived from
    /// `LPO_FUZZ_SEED` (decimal or `0x` hex) when it is set, so a failure
    /// replays with `LPO_FUZZ_SEED=<seed> cargo test --release -p lpo-llm
    /// false_rule_calls`.
    fn fuzz_seeds(count: u64) -> Vec<u64> {
        let mut seeds: Vec<u64> = (0..count).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5747).collect();
        if let Ok(raw) = std::env::var("LPO_FUZZ_SEED") {
            let raw = raw.trim();
            let rotating = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => raw.parse(),
            }
            .unwrap_or_else(|_| panic!("LPO_FUZZ_SEED must be a u64 (decimal or 0x hex), got {raw:?}"));
            eprintln!("strategy fuzz: appending {count} rotating seeds from LPO_FUZZ_SEED={rotating:#x}");
            seeds.extend((0..count).map(|i| rotating.wrapping_add(i.wrapping_mul(0x9e37_79b9))));
        }
        seeds
    }

    /// The functions the strategy scan sees in practice and then some: the
    /// RQ1/RQ2 suites, the corpus-discover extraction raw and canonical,
    /// and random straight-line functions.
    fn scan_inputs() -> Vec<Function> {
        use lpo_corpus::cases::{rq1_suite, rq2_suite};
        use lpo_corpus::{generate_corpus, CorpusConfig};
        use lpo_extract::{ExtractConfig, Extractor};
        let mut funcs: Vec<Function> =
            rq1_suite().into_iter().chain(rq2_suite()).map(|case| case.function).collect();
        let corpus = generate_corpus(&CorpusConfig {
            modules_per_project: 5,
            functions_per_module: 5,
            ..CorpusConfig::default()
        });
        let opt = lpo_opt::pipeline::Pipeline::default();
        for module in corpus.iter().flat_map(|project| &project.modules) {
            let mut extractor = Extractor::new(ExtractConfig { min_instructions: 2, ..ExtractConfig::default() });
            for seq in extractor.extract_module(module) {
                let mut canonical = seq.function.clone();
                opt.run(&mut canonical);
                funcs.push(seq.function);
                funcs.push(canonical);
            }
        }
        funcs.extend(fuzz_seeds(2048).into_iter().map(lpo_interp::fuzz::random_function));
        funcs
    }

    fn assert_same_use_lists(after: &Function, before: &Function, what: &str) {
        assert_eq!(after.inst_arena_len(), before.inst_arena_len(), "{what}");
        for slot in 0..before.inst_arena_len() {
            let id = InstId(slot as u32);
            assert_eq!(after.uses_of(id), before.uses_of(id), "{what}: use list of slot {slot}");
        }
    }

    /// The scan in [`choose`] and [`applicable`] runs every rule on one
    /// scratch clone, which is sound only if a rule that returns `false`
    /// leaves the function exactly as it was: structurally equal, with the
    /// same use lists in the same order. Checked for every strategy at every
    /// instruction of every pass `apply_strategy` makes, and the scan's
    /// results checked against a fresh `apply_strategy` per strategy.
    #[test]
    fn false_rule_calls_leave_the_function_unchanged() {
        let funcs = scan_inputs();
        let (mut calls, mut fired) = (0usize, 0usize);
        for func in &funcs {
            let text = print_function(func);
            for strategy in library() {
                let mut out = func.clone();
                for _ in 0..4 {
                    let mut any = false;
                    for block_idx in 0..out.blocks().len() {
                        let block = BlockId(block_idx as u32);
                        let mut pos = 0;
                        while pos < out.block(block).insts.len() {
                            let id = out.block(block).insts[pos];
                            let before = out.clone();
                            calls += 1;
                            if (strategy.rule)(&mut out, id, block, pos) {
                                fired += 1;
                                any = true;
                            } else {
                                let what = format!("{} at {id:?} of\n{text}", strategy.name);
                                assert!(out == before, "{what}: a false return changed the function");
                                assert_same_use_lists(&out, &before, &what);
                                pos += 1;
                            }
                            pos = pos.min(out.block(block).insts.len());
                        }
                    }
                    if !any {
                        break;
                    }
                }
                out.verify_use_lists().unwrap_or_else(|e| panic!("{}: {e}\n{text}", strategy.name));
            }
            let expected: Vec<(&str, Function)> = library()
                .iter()
                .filter_map(|s| apply_strategy(s, func).map(|f| (s.name, f)))
                .collect();
            let scanned: Vec<(&str, Function)> =
                applicable(func).into_iter().map(|(s, f)| (s.name, f)).collect();
            assert!(scanned == expected, "applicable differs from apply_strategy on\n{text}");
            let first = first_applicable(func).map(|(s, f)| (s.name, f));
            assert!(first == expected.first().cloned(), "first_applicable differs on\n{text}");
            // Accepting only the last applicable strategy scans past (and
            // re-clones after) every earlier one.
            let last = expected.last().map(|(name, _)| *name);
            let chosen = choose(func, |s| Some(s.name) == last).map(|(s, f)| (s.name, f));
            assert!(chosen == expected.last().cloned(), "choose differs on\n{text}");
        }
        eprintln!(
            "strategy scan: {} functions, {calls} rule calls ({fired} fired), no false call changed a function",
            funcs.len()
        );
        assert!(fired > 0 && calls > 100_000, "the inputs must exercise the rules");
    }
}
