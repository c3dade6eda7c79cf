//! The pass pipeline: this reproduction's `opt`.
//!
//! A [`Pipeline`] runs constant folding, InstSimplify, InstCombine and DCE.
//! At `-O2` the engine is **worklist-driven**, like LLVM's InstCombine: every
//! placed instruction is seeded once, and a rule hit
//! re-enqueues only the affected neighbourhood (prior users, operand
//! definitions, inserted helpers, the rewritten instruction itself), with
//! trivially-dead instructions swept incrementally by use count. The
//! pre-worklist rescan-to-fixpoint engine is kept verbatim as
//! [`Pipeline::optimize_reference`]; `tests/opt_differential.rs` proves the
//! two print byte-identical results over the rq1/rq2 corpora.
//!
//! [`optimize_function`] is the Stage 1 entry point for callers that already
//! hold a [`Function`] — it verifies and canonicalizes without any text
//! round-trip. [`optimize_text`] stays as the thin textual front end for the
//! LLM boundary: it parses, delegates to [`optimize_function`] and re-prints,
//! returning `opt`-style error text on failure, exactly the role `opt -O3`
//! plays in step ③ of the paper's Figure 2.

use crate::dce::{eliminate_dead_code, eliminate_dead_code_reference, is_trivially_dead};
use crate::fold::constant_fold;
use crate::patches::Patch;
use crate::rewrite::NamedRule;
use crate::worklist::Worklist;
use crate::{combine, simplify};
use lpo_ir::function::Function;
use lpo_ir::instruction::InstId;
use lpo_ir::module::Module;
use lpo_ir::parser::parse_function;
use lpo_ir::printer::print_function;
use lpo_ir::verifier::verify_function;

/// Optimization level presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// No transformations (parse/verify/print only).
    O0,
    /// Constant folding, simplification and DCE, single iteration.
    O1,
    /// The full rule set to a fixpoint (the default, comparable to `-O3` for
    /// the peephole-only scope this reproduction covers).
    #[default]
    O2,
}

/// Statistics from one pipeline run.
///
/// Rule hits are aggregated into a dense counter table indexed by the
/// pipeline's interned rule order — recording a hit is one array increment,
/// not a linear scan over `(String, count)` pairs, and a run allocates two
/// flat vectors instead of one `String` per fired rule. The public API still
/// reports names ([`rule_hits`](OptStats::rule_hits),
/// [`hits_of`](OptStats::hits_of)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Whether anything changed at all.
    pub changed: bool,
    /// Number of passes executed: full rescan iterations for the reference
    /// engine; sweeps for the worklist engine (1 plus one per round of
    /// behind-cursor re-dirtying, which erasures of already-visited dead
    /// code can trigger).
    pub iterations: usize,
    /// Whether the engine stopped because no work was left: the worklist
    /// drained, or a rescan pass changed nothing (always true at `-O0`,
    /// which has no rules). False when the sweep cap, the visit budget or
    /// `-O1`'s single pass cut the run short, so running the pipeline again
    /// on the result might still change it.
    pub fixpoint: bool,
    /// Interned rule-name table, in pipeline rule order.
    names: Vec<&'static str>,
    /// Dense hit counters, parallel to `names`.
    hits: Vec<usize>,
}

impl OptStats {
    /// A zeroed counter table for a pipeline's rule set.
    fn for_rules(rules: &[NamedRule]) -> Self {
        Self {
            changed: false,
            iterations: 0,
            fixpoint: false,
            names: rules.iter().map(|r| r.name).collect(),
            hits: vec![0; rules.len()],
        }
    }

    #[inline]
    fn record(&mut self, rule_index: usize) {
        self.hits[rule_index] += 1;
    }

    /// How many times each rule fired, as `(name, count)` pairs in pipeline
    /// rule order; rules that never fired are omitted.
    pub fn rule_hits(&self) -> Vec<(&'static str, usize)> {
        self.names
            .iter()
            .zip(&self.hits)
            .filter(|(_, &count)| count > 0)
            .map(|(&name, &count)| (name, count))
            .collect()
    }

    /// How many times the named rule fired (0 for unknown names).
    pub fn hits_of(&self, name: &str) -> usize {
        self.names.iter().position(|n| *n == name).map(|i| self.hits[i]).unwrap_or(0)
    }

    /// Total number of rule applications.
    pub fn total_hits(&self) -> usize {
        self.hits.iter().sum()
    }

    /// Folds another run's counters into this one. Runs of the same pipeline
    /// share one interned table and merge element-wise; foreign tables merge
    /// by name.
    fn absorb(&mut self, other: &OptStats) {
        self.changed |= other.changed;
        self.iterations = self.iterations.max(other.iterations);
        self.fixpoint &= other.fixpoint;
        if self.names == other.names {
            for (mine, theirs) in self.hits.iter_mut().zip(&other.hits) {
                *mine += theirs;
            }
        } else {
            for (&name, &count) in other.names.iter().zip(&other.hits) {
                match self.names.iter().position(|n| *n == name) {
                    Some(index) => self.hits[index] += count,
                    None => {
                        self.names.push(name);
                        self.hits.push(count);
                    }
                }
            }
        }
    }
}

/// The optimizer pipeline.
#[derive(Clone, Debug)]
pub struct Pipeline {
    level: OptLevel,
    rules: Vec<NamedRule>,
    max_iterations: usize,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new(OptLevel::O2)
    }
}

impl Pipeline {
    /// Creates a pipeline for the given optimization level with the standard
    /// rule set (and no patches).
    pub fn new(level: OptLevel) -> Self {
        let mut rules = Vec::new();
        if level != OptLevel::O0 {
            rules.push(NamedRule { name: "constant-fold", rule: constant_fold });
            rules.extend(simplify::all_rules());
            rules.extend(combine::all_rules());
        }
        let max_iterations = match level {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 16,
        };
        Self { level, rules, max_iterations }
    }

    /// The configured optimization level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Adds the rules of the given accepted patches (Table 5 experiments).
    pub fn with_patches(mut self, patches: Vec<Patch>) -> Self {
        for p in patches {
            self.rules.push(p.rule);
        }
        self
    }

    /// Number of rules installed (useful for ablation reporting).
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Optimizes a function in place and reports what happened.
    ///
    /// `-O2` runs the worklist engine; `-O0`/`-O1` keep the historical
    /// rescan semantics (no work, and exactly one bounded pass respectively),
    /// which a fixpoint-by-construction worklist cannot express.
    pub fn run(&self, func: &mut Function) -> OptStats {
        match self.level {
            OptLevel::O0 | OptLevel::O1 => self.run_rescan(func),
            OptLevel::O2 => self.run_worklist(func),
        }
    }

    /// The pre-worklist engine, kept verbatim as the differential-testing
    /// and benchmarking reference: bounded rescan-to-fixpoint over every
    /// instruction, with a whole-function DCE pass at the end of each
    /// iteration whose use queries rescan the arena (the seed cost model,
    /// like PR 3's `evaluate_reference` keeping its HashMap environments).
    pub fn optimize_reference(&self, func: &mut Function) -> OptStats {
        self.run_rescan_with(func, eliminate_dead_code_reference)
    }

    fn run_rescan(&self, func: &mut Function) -> OptStats {
        self.run_rescan_with(func, eliminate_dead_code)
    }

    fn run_rescan_with(&self, func: &mut Function, dce: fn(&mut Function) -> bool) -> OptStats {
        let mut stats = OptStats::for_rules(&self.rules);
        stats.fixpoint = self.max_iterations == 0;
        for iteration in 0..self.max_iterations {
            let mut changed_this_round = false;
            // Scan blocks positionally so rules always see a fresh (block, pos).
            let block_count = func.blocks().len();
            for block_idx in 0..block_count {
                let block = lpo_ir::instruction::BlockId(block_idx as u32);
                let mut pos = 0;
                while pos < func.block(block).insts.len() {
                    let inst_id = func.block(block).insts[pos];
                    let mut fired = false;
                    for (rule_index, rule) in self.rules.iter().enumerate() {
                        if (rule.rule)(func, inst_id, block, pos) {
                            stats.record(rule_index);
                            changed_this_round = true;
                            fired = true;
                            break;
                        }
                    }
                    if !fired {
                        pos += 1;
                    } else {
                        // The instruction may have been erased or replaced;
                        // re-examine the same position.
                        pos = pos.min(func.block(block).insts.len());
                    }
                }
            }
            if self.level != OptLevel::O0 && dce(func) {
                changed_this_round = true;
            }
            stats.iterations = iteration + 1;
            if !changed_this_round {
                stats.fixpoint = true;
                break;
            }
            stats.changed = true;
        }
        if stats.changed {
            func.compact();
        }
        stats
    }

    /// The worklist engine: pop, try the rules against just that instruction,
    /// and on a hit re-enqueue exactly the affected neighbourhood. DCE is an
    /// incremental trivially-dead check on pop, driven by the use counts the
    /// IR maintains, instead of a separate whole-function pass.
    ///
    /// Rules only ever inspect an instruction and its operands' *defining*
    /// instructions (none look at users or use counts), so a hit at `id`
    /// can newly enable a rule at its users — whose operand just changed —
    /// but not at its operands' defs; those only need a revisit when the
    /// lost use made them trivially dead.
    fn run_worklist(&self, func: &mut Function) -> OptStats {
        let mut stats = OptStats::for_rules(&self.rules);
        let mut worklist = Worklist::seeded(func);
        // Sweep blocks in layout order, exactly like the rescan engine: the
        // dirty set carries no order of its own, and visiting blocks in any
        // other order (e.g. RPO) would assign expanding rules' helper names
        // in a different sequence on functions whose layout is not an RPO,
        // breaking the byte-identical-output contract with the reference.
        let block_count = func.blocks().len();
        // Per-visit scratch, reused so the steady-state loop does not allocate.
        let mut operand_defs: Vec<InstId> = Vec::new();
        let mut users_before: Vec<InstId> = Vec::new();
        // Safety nets against rule ping-pong, scaled like the reference
        // engine's 16-iteration cap; never reached by a confluent rule set.
        let max_sweeps = self.max_iterations.max(1) * 4;
        let mut budget = (func.inst_arena_len() + 16) * self.max_iterations.max(1) * 8;
        while !worklist.is_empty() && stats.iterations < max_sweeps && budget > 0 {
            stats.iterations += 1;
            for block_idx in 0..block_count {
                let block = lpo_ir::instruction::BlockId(block_idx as u32);
                let mut pos = 0;
                while pos < func.block(block).insts.len() {
                    let id = func.block(block).insts[pos];
                    // Clean instructions cost one bit check — this is where
                    // the engine beats the rescan: after the first sweep only
                    // rewritten neighbourhoods are dirty.
                    if !worklist.take(id) {
                        pos += 1;
                        continue;
                    }
                    if budget == 0 {
                        break;
                    }
                    budget -= 1;
                    let arena_before = func.inst_arena_len();
                    operand_defs.clear();
                    func.inst(id).kind.for_each_operand(|op| {
                        if let lpo_ir::instruction::Value::Inst(def) = op {
                            operand_defs.push(*def);
                        }
                    });
                    users_before.clear();
                    users_before.extend_from_slice(func.uses_of(id));
                    let mut fired = false;
                    for (rule_index, rule) in self.rules.iter().enumerate() {
                        if (rule.rule)(func, id, block, pos) {
                            stats.record(rule_index);
                            stats.changed = true;
                            fired = true;
                            break;
                        }
                    }
                    if fired {
                        // The value's previous users now see the replacement
                        // (or the rewritten instruction) and may simplify
                        // further. Rules only ever inspect an instruction and
                        // its operands' *defining* instructions — none look
                        // at users or use counts — so a hit can newly enable
                        // a rule at the users, but at the operands' defs only
                        // by making them trivially dead.
                        for &user in &users_before {
                            if !func.inst(user).is_terminator() {
                                worklist.mark(user);
                            }
                        }
                        for &def in &operand_defs {
                            if is_trivially_dead(func, def) && func.is_placed(def) {
                                worklist.mark(def);
                            }
                        }
                        // Re-examine the current position (the rescan
                        // engine's behaviour): the surviving instruction, or
                        // whatever the rule inserted or shifted here.
                        if func.is_placed(id) {
                            worklist.mark(id);
                        }
                        for slot in arena_before..func.inst_arena_len() {
                            let new_id = InstId(slot as u32);
                            if func.is_placed(new_id) && !func.inst(new_id).is_terminator() {
                                worklist.mark(new_id);
                            }
                        }
                        pos = pos.min(func.block(block).insts.len());
                        continue;
                    }
                    // No rule wanted it: sweep it now if it is trivially
                    // dead, and revisit the operands whose use counts just
                    // dropped to zero. Re-examine the shifted position.
                    if is_trivially_dead(func, id) {
                        func.erase_inst(id);
                        stats.changed = true;
                        for &def in &operand_defs {
                            if is_trivially_dead(func, def) && func.is_placed(def) {
                                worklist.mark(def);
                            }
                        }
                        continue;
                    }
                    pos += 1;
                }
            }
        }
        stats.fixpoint = worklist.is_empty();
        if stats.changed {
            func.compact();
        }
        stats
    }

    /// Optimizes every function of a module in place.
    pub fn run_module(&self, module: &mut Module) -> OptStats {
        let mut total = OptStats::for_rules(&self.rules);
        total.fixpoint = true;
        for func in &mut module.functions {
            let stats = self.run(func);
            total.absorb(&stats);
        }
        total
    }
}

/// The result of running [`optimize_text`] on a candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct TextOptResult {
    /// The optimized function, re-printed.
    pub text: String,
    /// The optimized function itself.
    pub function: Function,
    /// Whether the optimizer changed anything.
    pub changed: bool,
}

/// Verifies and canonicalizes an already-parsed function in place — the
/// **text-free Stage 1**. This is what the in-process LPO loop and the
/// superoptimizer baselines call: no printing, no re-parsing, just the
/// verifier followed by the worklist engine.
///
/// # Errors
///
/// Returns the verifier's diagnostic text (formatted like an `opt` message)
/// to be used as feedback for the LLM.
pub fn optimize_function(func: &mut Function, pipeline: &Pipeline) -> Result<OptStats, String> {
    verify_function(func).map_err(|e| e.to_string())?;
    Ok(pipeline.run(func))
}

/// Parses, verifies, optimizes and re-prints a textual function — the role
/// `opt -O3` plays on LLM candidates in the LPO workflow. Thin textual front
/// end over [`optimize_function`] for callers at the LLM (text) boundary;
/// in-process callers should parse once and use [`optimize_function`]
/// directly.
///
/// # Errors
///
/// Returns the diagnostic text (parser or verifier error, formatted like an
/// `opt` message) to be used as feedback for the LLM.
pub fn optimize_text(source: &str, pipeline: &Pipeline) -> Result<TextOptResult, String> {
    let mut func = parse_function(source).map_err(|e| e.to_string())?;
    let stats = optimize_function(&mut func, pipeline)?;
    Ok(TextOptResult { text: print_function(&func), function: func, changed: stats.changed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;
    use lpo_tv::refine::verify_refinement;

    fn optimize(text: &str) -> (Function, OptStats) {
        let mut f = parse_function(text).unwrap();
        let stats = Pipeline::new(OptLevel::O2).run(&mut f);
        (f, stats)
    }

    #[test]
    fn folds_a_whole_constant_function() {
        let (f, stats) = optimize(
            "define i32 @f() {\n\
             %a = add i32 2, 3\n\
             %b = mul i32 %a, %a\n\
             %c = call i32 @llvm.umin.i32(i32 %b, i32 20)\n\
             ret i32 %c\n}",
        );
        assert_eq!(f.instruction_count(), 0);
        assert!(stats.changed);
        assert!(stats.total_hits() >= 3);
        assert!(print_function(&f).contains("ret i32 20"));
    }

    #[test]
    fn cleans_up_redundant_code_and_is_a_refinement() {
        let src = "define i32 @f(i32 %x) {\n\
             %a = add i32 %x, 0\n\
             %b = mul i32 %a, 4\n\
             %c = sub i32 %b, %b\n\
             %d = or i32 %b, %c\n\
             %e = add i32 %d, 5\n\
             %f = add i32 %e, 7\n\
             ret i32 %f\n}";
        let original = parse_function(src).unwrap();
        let (f, _) = optimize(src);
        assert!(f.instruction_count() <= 3);
        assert!(verify_refinement(&original, &f).is_correct());
        let text = print_function(&f);
        assert!(text.contains("shl i32 %x, 2"));
        assert!(text.contains(", 12"));
    }

    #[test]
    fn optimization_levels_differ() {
        let src = "define i32 @f(i32 %x) {\n\
             %a = add i32 %x, 3\n\
             %b = add i32 %a, 4\n\
             %c = add i32 %b, 0\n\
             ret i32 %c\n}";
        let mut f0 = parse_function(src).unwrap();
        assert!(!Pipeline::new(OptLevel::O0).run(&mut f0).changed);
        assert_eq!(f0.instruction_count(), 3);

        let mut f2 = parse_function(src).unwrap();
        Pipeline::new(OptLevel::O2).run(&mut f2);
        assert_eq!(f2.instruction_count(), 1);
    }

    #[test]
    fn leaves_already_optimal_candidates_unchanged() {
        // The optimal clamp form from Figure 1c is a fixpoint of the pipeline.
        let src = "define i8 @tgt(i32 %0) {\n\
             %2 = call i32 @llvm.smax.i32(i32 %0, i32 0)\n\
             %3 = call i32 @llvm.umin.i32(i32 %2, i32 255)\n\
             %4 = trunc nuw i32 %3 to i8\n\
             ret i8 %4\n}";
        let (f, stats) = optimize(src);
        assert!(!stats.changed);
        assert_eq!(f.instruction_count(), 3);
    }

    #[test]
    fn fixpoint_reports_whether_work_was_left() {
        let src = "define i32 @f(i32 %x) {\n\
             %a = add i32 %x, 3\n\
             %b = add i32 %a, 4\n\
             %c = add i32 %b, 0\n\
             ret i32 %c\n}";
        let run = |level: OptLevel, text: &str| {
            let mut f = parse_function(text).unwrap();
            let stats = Pipeline::new(level).run(&mut f);
            (stats, print_function(&f))
        };
        // The worklist drains, and -O0 has no rules to run.
        let (stats, optimized) = run(OptLevel::O2, src);
        assert!(stats.changed && stats.fixpoint);
        assert!(run(OptLevel::O0, src).0.fixpoint);
        // -O1's single pass changed the function, so it cannot tell whether
        // another pass would; a pass that changes nothing can.
        let (stats, _) = run(OptLevel::O1, src);
        assert!(stats.changed && !stats.fixpoint);
        let (stats, _) = run(OptLevel::O1, &optimized);
        assert!(!stats.changed && stats.fixpoint);
        // A module is at a fixpoint when all its functions are.
        let mut module = lpo_ir::module::Module::new("m");
        module.add_function(parse_function(src).unwrap());
        module.add_function(parse_function(&optimized).unwrap());
        assert!(!Pipeline::new(OptLevel::O1).run_module(&mut module).fixpoint);
        assert!(Pipeline::new(OptLevel::O1).run_module(&mut module).fixpoint);
    }

    #[test]
    fn a_dead_trapping_division_does_not_spin_the_rules() {
        // The constant fold of the dead `sdiv` cannot erase it (a division
        // may trap), so it changes nothing and must say so: -O1's rescan
        // used to re-examine it forever, and -O2 spent its visit budget on
        // it and stopped short of a fixpoint.
        let src = "define i22 @f(i61 %p0, i64 %p1) {\n\
             %t0 = sdiv i64 undef, 63\n\
             %t2 = trunc nuw nsw i61 %p0 to i22\n\
             ret i22 %t2\n}";
        for level in [OptLevel::O1, OptLevel::O2] {
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut f = parse_function(src).unwrap();
                let stats = Pipeline::new(level).run(&mut f);
                let _ = done.send((stats, print_function(&f)));
            });
            let (stats, optimized) = finished
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{level:?} did not return within 10 s"));
            assert!(optimized.contains("sdiv i64 undef, 63"), "{level:?}: {optimized}");
            if level == OptLevel::O2 {
                assert!(stats.fixpoint, "-O2 stopped short of a fixpoint");
            }
        }
    }

    #[test]
    fn optimize_text_round_trips_and_reports_errors() {
        let pipeline = Pipeline::default();
        let ok = optimize_text(
            "define i32 @f(i32 %x) {\n %a = add i32 %x, 0\n ret i32 %a\n}",
            &pipeline,
        )
        .unwrap();
        assert!(ok.changed);
        assert!(ok.text.contains("ret i32 %x"));

        let err = optimize_text(
            "define i32 @f(i32 %x) {\n %a = smax i32 %x, 0\n ret i32 %a\n}",
            &pipeline,
        )
        .unwrap_err();
        assert!(err.contains("expected instruction opcode"));

        let err = optimize_text(
            "define i32 @f(i32 %x) {\n %a = add i32 %x, 0\n ret i8 0\n}",
            &pipeline,
        )
        .unwrap_err();
        assert!(err.contains("does not match function return type"));
    }

    #[test]
    fn run_module_aggregates_stats() {
        let mut module = lpo_ir::module::Module::new("m");
        module.add_function(parse_function("define i32 @a(i32 %x) {\n %r = add i32 %x, 0\n ret i32 %r\n}").unwrap());
        module.add_function(parse_function("define i32 @b(i32 %x) {\n %r = mul i32 %x, 1\n ret i32 %r\n}").unwrap());
        let stats = Pipeline::default().run_module(&mut module);
        assert!(stats.changed);
        assert_eq!(module.instruction_count(), 0);
        assert!(stats.total_hits() >= 2);
    }

    #[test]
    fn pipeline_terminates_on_pathological_input() {
        // A chain of 60 alternating operations must still settle quickly.
        let mut text = String::from("define i32 @f(i32 %x) {\n %v0 = add i32 %x, 1\n");
        for i in 1..60 {
            let op = if i % 2 == 0 { "add" } else { "xor" };
            text.push_str(&format!(" %v{i} = {op} i32 %v{}, {i}\n", i - 1));
        }
        text.push_str(" ret i32 %v59\n}");
        let (_, stats) = optimize(&text);
        assert!(stats.iterations <= 16);
    }

    #[test]
    fn rule_hit_reporting() {
        let (_, stats) = optimize("define i32 @f(i32 %x) {\n %a = add i32 %x, 0\n ret i32 %a\n}");
        assert!(stats.rule_hits().iter().any(|(n, _)| *n == "binary-identities"));
        assert!(stats.hits_of("binary-identities") >= 1);
        assert_eq!(stats.hits_of("no-such-rule"), 0);
        let pipeline = Pipeline::new(OptLevel::O2);
        assert!(pipeline.rule_count() >= 15);
        assert_eq!(pipeline.level(), OptLevel::O2);
    }

    #[test]
    fn worklist_and_reference_agree_on_text() {
        let texts = [
            "define i32 @f() {\n %a = add i32 2, 3\n %b = mul i32 %a, %a\n ret i32 %b\n}",
            "define i32 @g(i32 %x) {\n\
             %a = add i32 %x, 0\n\
             %b = mul i32 %a, 4\n\
             %c = sub i32 %b, %b\n\
             %d = or i32 %b, %c\n\
             %e = add i32 %d, 5\n\
             %f = add i32 %e, 7\n\
             ret i32 %f\n}",
            "define i8 @clamp(i32 %0) {\n\
             %2 = icmp slt i32 %0, 0\n\
             %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
             %4 = trunc nuw i32 %3 to i8\n\
             %5 = select i1 %2, i8 0, i8 %4\n\
             ret i8 %5\n}",
            "define i32 @dead(i32 %x) {\n\
             %d1 = add i32 %x, 1\n\
             %d2 = mul i32 %d1, 2\n\
             %live = sub i32 %x, 3\n\
             ret i32 %live\n}",
        ];
        let pipeline = Pipeline::new(OptLevel::O2);
        for text in texts {
            let mut fast = parse_function(text).unwrap();
            let mut slow = parse_function(text).unwrap();
            let fast_stats = pipeline.run(&mut fast);
            let slow_stats = pipeline.optimize_reference(&mut slow);
            assert_eq!(print_function(&fast), print_function(&slow), "on {text}");
            assert_eq!(fast_stats.changed, slow_stats.changed, "on {text}");
        }
    }
}
