//! The per-candidate enumeration walk the plane-filtered search replaced,
//! kept as a test-only oracle, and the equivalence suite against it.
//!
//! [`search`] verifies every well-typed candidate with
//! `SourceCache::verify_outcome_only` and clones every frontier base, so it
//! makes no use of the plane tape. `crate::superoptimize_batch` must agree
//! with it on every printed outcome, `candidates_tried`, `found_at_depth` and
//! `modeled`, over the Table 4 corpus at `Enum` 0–3, the RQ1 suite and
//! random sources with division, remainder, shift, UB and poison lanes.
//!
//! `table4_souper_counts_are_pinned` pins the Table 4 counts themselves
//! (searches, timeouts, finds, candidates tried), which a drift shared by
//! both walks would leave equal.
//!
//! The random-source test walks a fixed seed block and appends a rotating
//! block derived from `LPO_FUZZ_SEED` when set (same protocol as
//! `tests/plane_differential.rs`), so any failure replays with
//! `LPO_FUZZ_SEED=<seed> cargo test --release -p lpo-souper`.

use super::*;

/// The per-candidate walk: every candidate is rewritten into a scratch
/// function and verified, and every frontier base is cloned eagerly.
pub(crate) fn search(
    func: &Function,
    config: &SouperConfig,
    compile_cache: &CompileCache,
    arena: &mut EvalArena,
) -> SouperResult {
    let start = Instant::now();
    if let Some(reason) = unsupported_reason(func) {
        return SouperResult {
            outcome: Outcome::Unsupported(reason),
            elapsed: start.elapsed(),
            modeled: Duration::from_millis(400),
            candidates_tried: 0,
            found_at_depth: None,
        };
    }
    // Stage 1, source side, **once per case** and text-free: the search sees
    // the sequence as `opt` would hand it over, as a `Function` value.
    // Corpus sequences are extracted as canonical fixpoints, so this is a
    // cheap confirmation pass there; it replaces nothing per candidate —
    // enumerated candidates are built canonical by construction.
    let mut canonical = func.clone();
    let _ = lpo_opt::pipeline::Pipeline::default().run(&mut canonical);
    let func = &canonical;
    // One cached case per source: the enumerative search verifies up to
    // `candidate_budget` candidates against the same function, so the test
    // inputs and the source's per-input outcomes are computed exactly once,
    // and every evaluation reuses one register-file arena.
    let case = SourceCache::new(func, quick_tv()).with_compile_cache(compile_cache);
    let original_cost = func.instruction_count();
    let mut tried = 0usize;

    // The candidate pool: argument values and a constant pool.
    let mut pool: Vec<Value> = (0..func.params.len()).map(Value::Arg).collect();
    let mut constants: Vec<ApInt> = Vec::new();
    let ret_ty = func.ret_ty.clone();
    if let Some(width) = ret_ty.int_width() {
        constants.extend([ApInt::zero(width), ApInt::one(width), ApInt::all_ones(width)]);
    }
    for (_, inst) in func.iter_insts() {
        for op in inst.kind.operands() {
            if let Value::Const(c) = op {
                if let Some(v) = c.as_int() {
                    if !constants.contains(v) {
                        constants.push(*v);
                    }
                }
            }
        }
    }
    // CEGIS-style constant synthesis stand-in: derive combinations of the
    // source constants (the real tool asks the solver for them).
    let base_constants = constants.clone();
    for a in &base_constants {
        for b in &base_constants {
            if a.width() != b.width() {
                continue;
            }
            for derived in [a.xor(b), a.add(b), a.sub(b), b.sub(a)] {
                if !constants.contains(&derived) && constants.len() < 24 {
                    constants.push(derived);
                }
            }
        }
    }

    // Depth 0: the replacement must be an existing value or a constant. One
    // scratch function is built on first use and re-pointed per candidate
    // with `set_operand` — the use-list-maintaining mutation API makes a
    // candidate cost one operand swap instead of a whole-function build.
    let mut leaf_candidates: Vec<Value> = pool.clone();
    for c in &constants {
        if Some(c.width()) == ret_ty.int_width() {
            leaf_candidates.push(Value::Const(lpo_ir::constant::Constant::Int(*c)));
        }
    }
    let mut leaf_scratch: Option<Function> = None;
    for candidate in &leaf_candidates {
        tried += 1;
        if func.value_type(candidate) != ret_ty || original_cost == 0 {
            continue;
        }
        let replacement = match &mut leaf_scratch {
            slot @ None => slot.insert(leaf_function(func, candidate.clone())),
            Some(scratch) => {
                let ret_id = *scratch.block(scratch.entry()).insts.last().expect("leaf has a ret");
                scratch.set_operand(ret_id, 0, candidate.clone());
                scratch
            }
        };
        if case.verify_outcome_only(replacement, arena) {
            return finish(start, Outcome::Found(replacement.clone()), tried, config, Some(0));
        }
    }

    // Depth >= 1: enumerate instruction DAGs of up to `enum_depth` new instructions.
    if config.enum_depth >= 1 {
        pool.truncate(4); // keep the search space bounded like the real tool's pruning
        let widths: Vec<Value> = pool.clone();
        let const_values: Vec<Value> = constants
            .iter()
            .map(|c| Value::Const(lpo_ir::constant::Constant::Int(*c)))
            .collect();
        // Comparison-shaped results first when the function returns i1: this is
        // the cheapest part of the space and where boolean sources usually land.
        if ret_ty == Type::i1() {
            // One scratch comparison, rewritten in place per (pred, a, b).
            let mut icmp_scratch: Option<Function> = None;
            for pred in ICmpPred::ALL {
                for a in &widths {
                    for b in widths.iter().chain(const_values.iter()) {
                        tried += 1;
                        if tried >= config.candidate_budget || modeled_time(tried, config) > config.timeout {
                            return finish(start, Outcome::Timeout, tried, config, None);
                        }
                        if func.value_type(a) != func.value_type(b) || !func.value_type(a).is_int() {
                            continue;
                        }
                        let candidate = match &mut icmp_scratch {
                            slot @ None => slot.insert(icmp_function(func, pred, a.clone(), b.clone())),
                            Some(scratch) => {
                                let cmp_id = scratch.block(scratch.entry()).insts[0];
                                scratch.set_inst_kind(
                                    cmp_id,
                                    InstKind::ICmp { pred, lhs: a.clone(), rhs: b.clone() },
                                    Type::i1(),
                                );
                                scratch
                            }
                        };
                        if candidate.instruction_count() < original_cost
                            && case.verify_outcome_only(candidate, arena)
                        {
                            return finish(start, Outcome::Found(candidate.clone()), tried, config, Some(1));
                        }
                    }
                }
            }
        }
        /// Frontier cap per level (real Souper prunes aggressively).
        const FRONTIER_CAP: usize = 256;
        let mut frontier: Vec<Function> = vec![skeleton(func)];
        for level in 0..config.enum_depth {
            let mut next = Vec::new();
            for base in &frontier {
                // One scratch per base: the base body plus a synthesized
                // instruction slot and a `ret` of it, built once; each
                // enumerated candidate is one `set_inst_kind` on the slot
                // instead of a clone–erase–append round (the mutation API
                // keeps the use lists coherent through the rewrites).
                let (mut scratch, synth_id) = extension_scratch(base, &ret_ty);
                let scratch_cost = scratch.instruction_count();
                for op in BinOp::ALL {
                    let synthesized = synth_values(base);
                    for a in widths.iter().chain(const_values.iter()).chain(synthesized.iter()) {
                        for b in widths.iter().chain(const_values.iter()) {
                            if tried >= config.candidate_budget {
                                return finish(start, Outcome::Timeout, tried, config, None);
                            }
                            let a_ty = base.value_type(a);
                            if a_ty != base.value_type(b) || !a_ty.is_int() || a_ty != ret_ty {
                                continue;
                            }
                            tried += 1;
                            if modeled_time(tried, config) > config.timeout {
                                return finish(start, Outcome::Timeout, tried, config, None);
                            }
                            scratch.set_inst_kind(
                                synth_id,
                                InstKind::Binary {
                                    op,
                                    lhs: a.clone(),
                                    rhs: b.clone(),
                                    flags: IntFlags::none(),
                                },
                                a_ty,
                            );
                            if scratch_cost < original_cost
                                && case.verify_outcome_only(&scratch, arena)
                            {
                                return finish(start, Outcome::Found(scratch.clone()), tried, config, Some(level + 1));
                            }
                            if next.len() < FRONTIER_CAP {
                                next.push(scratch.clone());
                            }
                        }
                    }
                }
            }
            frontier = next;
        }
    }

    finish(start, Outcome::NotFound, tried, config, None)
}

/// Values produced by instructions already synthesized into `base`.
fn synth_values(base: &Function) -> Vec<Value> {
    base.iter_inst_ids()
        .filter(|id| base.inst(*id).produces_value())
        .map(Value::Inst)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_extract::{ExtractConfig, Extractor};
    use lpo_interp::fuzz::{random_function_with, FuzzConfig};
    use lpo_ir::parser::parse_function;
    use lpo_ir::printer::print_function;

    /// A result as the tables and the benchmark see it.
    fn observed(result: &SouperResult) -> (String, usize, Option<u32>, Duration) {
        let outcome = match &result.outcome {
            Outcome::Found(f) => format!("Found\n{}", print_function(f)),
            other => format!("{other:?}"),
        };
        (outcome, result.candidates_tried, result.found_at_depth, result.modeled)
    }

    /// Runs `functions` through `superoptimize_batch` on two workers and
    /// through the reference walk, asserts every result agrees, and returns
    /// the batch's results.
    fn assert_equivalent(functions: &[Function], config: &SouperConfig, label: &str) -> Vec<SouperResult> {
        let batch = superoptimize_batch(functions, config, 2);
        let cache = CompileCache::new();
        let mut arena = EvalArena::new();
        for (i, (func, got)) in functions.iter().zip(&batch).enumerate() {
            let want = search(func, config, &cache, &mut arena);
            assert_eq!(
                observed(got),
                observed(&want),
                "{label}: case {i} (Enum {}, budget {}) diverged on\n{}",
                config.enum_depth,
                config.candidate_budget,
                print_function(func)
            );
        }
        batch
    }

    /// How many searches found a replacement at each depth.
    fn finds_by_depth(results: &[SouperResult]) -> [usize; 4] {
        let mut found = [0usize; 4];
        for depth in results.iter().filter_map(|r| r.found_at_depth) {
            found[depth as usize] += 1;
        }
        found
    }

    /// The Table 4 sequences: extracted from the synthetic corpus exactly as
    /// the `table4` driver and the corpus-discover benchmark do.
    fn table4_sequences(limit: usize) -> Vec<Function> {
        let corpus = lpo_corpus::generate_corpus(&lpo_corpus::CorpusConfig {
            modules_per_project: 5,
            functions_per_module: 5,
            ..Default::default()
        });
        let mut sequences = Vec::new();
        for project in &corpus {
            for module in &project.modules {
                let mut extractor =
                    Extractor::new(ExtractConfig { min_instructions: 2, ..Default::default() });
                sequences.extend(extractor.extract_module(module).into_iter().map(|s| s.function));
            }
        }
        sequences.truncate(limit);
        sequences
    }

    /// Debug builds walk a prefix; release builds (CI fuzz-smoke) the lot.
    fn scaled(release: usize, debug: usize) -> usize {
        if cfg!(debug_assertions) {
            debug
        } else {
            release
        }
    }

    #[test]
    fn plane_search_matches_the_reference_walk_on_table4() {
        let sequences = table4_sequences(scaled(usize::MAX, 40));
        let mut found = [0usize; 4];
        for enum_depth in 0..=3 {
            let config = SouperConfig { candidate_budget: 1200, ..SouperConfig::with_enum(enum_depth) };
            let level = finds_by_depth(&assert_equivalent(&sequences, &config, "table4"));
            for (total, n) in found.iter_mut().zip(level) {
                *total += n;
            }
        }
        eprintln!("table4: {} sequences, finds by depth {found:?}", sequences.len());
        assert!(found[0] > 0 && found[1] > 0, "the corpus must exercise leaf and depth-1 finds: {found:?}");
    }

    /// Golden Souper counts on the Table 4 set at `Enum` 0–3, budget 1200:
    /// searches, modelled timeouts, finds and candidates tried. The
    /// equivalence tests compare the search with the reference walk and
    /// the benchmark compares each pass with its own reference pass, so a
    /// drift both sides share would slip past them; this catches it.
    /// Release builds (CI fuzz-smoke) pin the full 545 sequences, debug
    /// builds a prefix.
    #[test]
    fn table4_souper_counts_are_pinned() {
        let (limit, want) = if cfg!(debug_assertions) {
            (60, (240, 161, 18, 196_454))
        } else {
            (usize::MAX, (2180, 1266, 348, 1_576_528))
        };
        let sequences = table4_sequences(limit);
        if limit == usize::MAX {
            assert_eq!(sequences.len(), 545, "the Table 4 set");
        }
        let (mut searches, mut timeouts, mut found, mut tried) = (0, 0, 0, 0);
        for enum_depth in 0..=3 {
            let config = SouperConfig { candidate_budget: 1200, ..SouperConfig::with_enum(enum_depth) };
            for result in superoptimize_batch(&sequences, &config, 2) {
                searches += 1;
                timeouts += usize::from(result.outcome == Outcome::Timeout);
                found += usize::from(result.found());
                tried += result.candidates_tried;
            }
        }
        assert_eq!((searches, timeouts, found, tried), want, "(searches, timeouts, found, tried)");
    }

    #[test]
    fn plane_search_matches_the_reference_walk_on_rq1() {
        let functions: Vec<Function> =
            lpo_corpus::rq1_suite().into_iter().map(|case| case.function).collect();
        let config = SouperConfig { candidate_budget: 1500, ..SouperConfig::with_enum(2) };
        assert_equivalent(&functions, &config, "rq1");
    }

    /// Hand-picked shapes: out-of-domain signatures (wide params or return,
    /// so no plane filter), sources with UB and poison lanes, i1 returns,
    /// and frontier bases that trap on input 0.
    fn edge_shapes() -> Vec<Function> {
        [
            "define i128 @wide(i128 %x) {\n %a = add i128 %x, 0\n %b = xor i128 %a, 0\n ret i128 %b\n}",
            "define i8 @narrowed(i128 %x) {\n %t = trunc i128 %x to i8\n %r = and i8 %t, -1\n ret i8 %r\n}",
            "define i8 @divides(i8 %x, i8 %y) {\n %d = udiv i8 %x, %y\n %r = mul i8 %d, %y\n ret i8 %r\n}",
            "define i8 @poisons(i8 %x) {\n %a = add nuw i8 %x, 1\n %b = sub i8 %a, 1\n ret i8 %b\n}",
            "define i8 @shifts(i8 %x, i8 %s) {\n %a = shl i8 %x, %s\n %b = lshr i8 %a, %s\n ret i8 %b\n}",
            "define i8 @undefs(i8 %x) {\n %a = or i8 %x, undef\n %b = and i8 %a, %x\n ret i8 %b\n}",
            "define i1 @compares(i8 %x) {\n %a = xor i8 %x, 12\n %c = icmp eq i8 %a, 5\n ret i1 %c\n}",
            "define i1 @signs(i32 %x, i32 %y) {\n %a = sub i32 %x, %y\n %c = icmp slt i32 %a, 0\n ret i1 %c\n}",
            "define i32 @traps(i32 %x) {\n %d = sdiv i32 %x, 0\n %r = add i32 %d, %x\n ret i32 %r\n}",
            // Its only i1 leaves are the pool constants 0, 1, 1, so the
            // level-1 frontier bases `udiv i1 0, 0` (28th) and `udiv i1 1, 0`
            // (31st, 34th) follow 27 add/sub/mul bases of 156 candidates
            // each, from candidate 241: bases whose last plane is UB on
            // input 0, which the row screen leaves to the per-candidate tape.
            "define i1 @trapbase(i8 %x) {\n %s = mul i8 %x, %x\n %m = and i8 %s, 6\n %c = icmp eq i8 %m, 4\n ret i1 %c\n}",
            "define i8 @phis(i1 %c, i8 %x) {\nentry:\n br i1 %c, label %a, label %b\na:\n br label %b\nb:\n %p = phi i8 [ %x, %entry ], [ %x, %a ]\n %r = add i8 %p, 0\n ret i8 %r\n}",
        ]
        .iter()
        .map(|t| parse_function(t).unwrap())
        .collect()
    }

    /// The budget reaches `@trapbase`'s trapping level-1 bases at `Enum` 2
    /// and 3.
    #[test]
    fn plane_search_matches_the_reference_walk_on_edge_shapes() {
        let functions = edge_shapes();
        for enum_depth in 0..=3 {
            let config = SouperConfig { candidate_budget: 6000, ..SouperConfig::with_enum(enum_depth) };
            assert_equivalent(&functions, &config, "edge");
        }
    }

    /// Modelled timeouts that fire inside the enumeration, at counts from the
    /// first enumerated candidate to deep in the budget. Each count `k` is
    /// hit just below, exactly at and just above `modeled_time(k)`: at the
    /// exact value the first count over the timeout is `k + 1`, so the
    /// search's integer limit must match the reference walk's per-candidate
    /// `modeled_time(tried) > timeout` test with no off-by-one.
    #[test]
    fn plane_search_matches_the_reference_walk_under_modelled_timeouts() {
        let mut functions = table4_sequences(scaled(120, 16));
        functions.extend(edge_shapes());
        let nanosecond = Duration::from_nanos(1);
        let mut fired = std::collections::BTreeSet::new();
        for enum_depth in 1..=3 {
            let base = SouperConfig { candidate_budget: 1200, ..SouperConfig::with_enum(enum_depth) };
            for k in [0, 9, 33, 100, 257, 700] {
                let at_k = modeled_time(k, &base);
                for timeout in [at_k - nanosecond, at_k, at_k + nanosecond] {
                    let config = SouperConfig { timeout, ..base.clone() };
                    let results = assert_equivalent(&functions, &config, "timeouts");
                    let timed_out = |r: &&SouperResult| r.outcome == Outcome::Timeout;
                    fired.extend(
                        results.iter().filter(timed_out).map(|r| r.candidates_tried).filter(|&n| n < 1200),
                    );
                    // Past the leaf scan, a search that times out does so at
                    // the first count over the timeout.
                    if timeout == at_k && k >= 100 {
                        assert!(
                            results.iter().filter(timed_out).any(|r| r.candidates_tried == k + 1),
                            "Enum {enum_depth}: no search timed out at {} candidates",
                            k + 1
                        );
                    }
                }
            }
        }
        eprintln!("timeouts: fired at {} distinct candidate counts", fired.len());
        assert!(fired.len() >= 10, "modelled timeouts must fire at varied counts: {fired:?}");
    }

    /// Sources whose replacement needs two synthesized instructions: with an
    /// unbounded modelled timeout the search reaches the depth-1 frontier,
    /// so the filter runs on tape-resident base chains and the found
    /// function is a replayed base.
    #[test]
    fn plane_search_matches_the_reference_walk_on_deep_finds() {
        let texts = [
            "define i64 @src(i64 %a0) {\n %v0 = add i64 %a0, 59\n %v1 = add i64 %a0, 38\n %v2 = add i64 %v1, %v0\n ret i64 %v2\n}",
            "define i32 @src(i32 %a0) {\n %v0 = or i32 %a0, 8\n %v1 = xor i32 %a0, %v0\n %v2 = and i32 %v1, 10\n ret i32 %v2\n}",
            "define i16 @src(i16 %a0) {\n %v0 = lshr i16 %a0, %a0\n %v1 = add i16 %v0, %a0\n %v2 = shl i16 %v1, %a0\n %v3 = and i16 %v2, 114\n ret i16 %v3\n}",
        ];
        let functions: Vec<Function> = texts.iter().map(|t| parse_function(t).unwrap()).collect();
        for enum_depth in 2..=3 {
            let config = SouperConfig {
                enum_depth,
                timeout: Duration::from_secs(1 << 30),
                candidate_budget: 30_000,
            };
            let found = finds_by_depth(&assert_equivalent(&functions, &config, "deep"));
            assert_eq!(found[2], functions.len(), "every source needs a depth-2 replacement: {found:?}");
        }
    }

    /// The base seed block, plus the rotating block from `LPO_FUZZ_SEED`.
    fn seed_block(count: usize, salt: u64) -> Vec<u64> {
        let mut seeds: Vec<u64> =
            (0..count as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt)).collect();
        if let Ok(raw) = std::env::var("LPO_FUZZ_SEED") {
            let raw = raw.trim();
            let rotating = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => raw.parse(),
            }
            .unwrap_or_else(|_| panic!("LPO_FUZZ_SEED must be a u64 (decimal or 0x hex), got {raw:?}"));
            eprintln!("souper fuzz: appending {} rotating seeds from LPO_FUZZ_SEED={rotating:#x}", count / 4);
            seeds.extend(
                (0..count as u64 / 4).map(|i| rotating.wrapping_add(salt).wrapping_add(i.wrapping_mul(0x9e37_79b9))),
            );
        }
        seeds
    }

    /// Random straight-line sources in Souper's subset (the generator's
    /// intrinsic calls are out of it): division, remainder and shift
    /// operands that trap or overflow, poison flags, `undef`/`poison`
    /// constants, and widths from 1 to 64 bits.
    #[test]
    fn plane_search_matches_the_reference_walk_on_random_sources() {
        let shape = FuzzConfig { max_params: 2, max_insts: 5 };
        let functions: Vec<Function> = seed_block(scaled(400, 60), 0x50_4e7e)
            .into_iter()
            .map(|seed| random_function_with(seed, &shape))
            .filter(|f| unsupported_reason(f).is_none())
            .collect();
        assert!(functions.len() >= 10, "too few random sources in Souper's subset");
        let mut found = [0usize; 4];
        for enum_depth in 0..=2 {
            let config = SouperConfig { candidate_budget: 1200, ..SouperConfig::with_enum(enum_depth) };
            let level = finds_by_depth(&assert_equivalent(&functions, &config, "random"));
            for (total, n) in found.iter_mut().zip(level) {
                *total += n;
            }
        }
        eprintln!("random: {} sources, finds by depth {found:?}", functions.len());
    }
}
