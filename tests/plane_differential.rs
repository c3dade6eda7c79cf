//! Randomized differential proof of the plane evaluator tier.
//!
//! PR 3 proved the compiled evaluator outcome-identical to the reference
//! interpreter, and `tests/tv_differential.rs` proves the staged checker
//! verdict-identical to the retained single-stage path over the curated
//! corpora. This file closes the remaining gap with *generated* coverage:
//! [`lpo_interp::fuzz`] builds random straight-line scalar-integer functions
//! — the exact domain the [`PlanePlan`] tier claims — and every one is
//! checked three ways:
//!
//! * **plane ≡ compiled ≡ reference** on full outcomes (values,
//!   poison/undef, UB messages, step counts), including tiny step limits,
//!   where "compiled" is [`CompiledFunction::evaluate_with_limit`] run on
//!   one lane at a time;
//! * **lane isolation**: a many-lane plane sweep is bit-identical to running
//!   each lane alone, so a trapping lane cannot contaminate a neighbour;
//! * **TV parity**: `SourceCache` verdicts and source-eval counts are
//!   identical with the plane tier on and off, and a survivor only falls
//!   back to the serial compiled sweep when its compiled form really has no
//!   plan;
//! * **digest sanity**: structurally distinct fuzz functions never share a
//!   [`hash_function`] digest (the compile cache's correctness assumption);
//! * **tape ≡ plan**: a [`PlaneTape`] grown one binary/icmp instruction at a
//!   time, over split lane windows and reused storage, matches
//!   [`PlanePlan::evaluate_lanes`] of every program prefix on every lane;
//! * **columns ≡ lanes**: fed the verifier's [`InputSet`] columns,
//!   [`PlanePlan::evaluate_columns`] equals [`PlanePlan::evaluate_lanes`]
//!   and the serial compiled evaluator on every lane, and
//!   [`PlaneTape::from_columns`] equals [`PlaneTape::new`] on every plane of
//!   the replayed chain.
//!
//! Every test walks a fixed seed block (deterministic in CI and locally) and
//! appends a rotating block derived from `LPO_FUZZ_SEED` when that variable
//! is set — the CI fuzz-smoke step derives it from the commit hash and logs
//! it, so any failure is replayable with
//! `LPO_FUZZ_SEED=<seed> cargo test --test plane_differential`.

use lpo_bench::twist_return;
use lpo_interp::compiled::{CompiledFunction, EvalArena};
use lpo_interp::eval::evaluate_reference;
use lpo_interp::fuzz::random_function;
use lpo_interp::plane::{PlanePlan, PlaneTape};
use lpo_interp::value::EvalValue;
use lpo_ir::constant::Constant;
use lpo_ir::flags::IntFlags;
use lpo_ir::function::Function;
use lpo_ir::hash::hash_function;
use lpo_ir::instruction::{BinOp, InstId, InstKind, Value};
use lpo_ir::printer::print_function;
use lpo_tv::inputs::{generate_inputs, InputConfig, InputSet};
use lpo_tv::prelude::{SourceCache, TvConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Step budget for the evaluator-level sweeps; far above any fuzz function's
/// instruction count, matching how the verifier runs them.
const STEP_LIMIT: usize = 1 << 14;

/// The base seed block every test walks. Golden-ratio striding keeps the
/// seeds spread over the space instead of clustered near zero.
fn seed_block(count: usize, salt: u64) -> Vec<u64> {
    let mut seeds: Vec<u64> =
        (0..count as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt)).collect();
    if let Some(rotating) = rotating_seed() {
        // One extra block per run, derived from the environment; logged so
        // a CI failure is replayable locally.
        eprintln!(
            "plane fuzz: appending {} rotating seeds from LPO_FUZZ_SEED={rotating:#x}",
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

/// A compact input set per function: corner values plus a few samples keep
/// the sweep fast in debug builds; the seed ties inputs to the function.
fn input_config(seed: u64) -> InputConfig {
    InputConfig { exhaustive_bits: 8, random_samples: 24, seed }
}

/// All three evaluators on the same function and inputs — the plane plan,
/// the compiled evaluator one lane at a time, and the reference; asserts
/// full outcome equality (result, memory, steps, UB message) per lane.
fn check_three_ways(seed: u64, arena: &mut EvalArena, step_limit: usize) -> usize {
    let func = random_function(seed);
    let compiled = CompiledFunction::compile(&func);
    let plan = compiled
        .plane()
        .unwrap_or_else(|| panic!("fuzz function from seed {seed:#x} must be plane-eligible"));
    let inputs = generate_inputs(&func, &input_config(seed));
    let take = inputs.len().min(64);
    let lanes: Vec<&[EvalValue]> = inputs[..take].iter().map(|i| i.args.as_slice()).collect();
    let result = plan
        .evaluate_lanes(arena, &lanes, step_limit)
        .expect("generated inputs always fit the plan's own signature");
    for (lane, input) in inputs[..take].iter().enumerate() {
        let plane_out = result.outcome(lane, input.memory.clone());
        let compiled_out =
            compiled.evaluate_with_limit(arena, &input.args, input.memory.clone(), step_limit);
        assert_eq!(
            plane_out,
            compiled_out,
            "plane vs compiled diverged: seed {seed:#x} lane {lane} limit {step_limit} args {:?}\n{}",
            input.args,
            print_function(&func)
        );
        let reference = evaluate_reference(&func, &input.args, input.memory.clone(), step_limit);
        assert_eq!(
            plane_out,
            reference,
            "plane vs reference diverged: seed {seed:#x} lane {lane} limit {step_limit} args {:?}\n{}",
            input.args,
            print_function(&func)
        );
    }
    take
}

#[test]
fn plane_matches_batch_and_reference_on_random_functions() {
    let mut arena = EvalArena::new();
    let mut checked = 0usize;
    for seed in seed_block(2_000, 0x51de_5eed) {
        checked += check_three_ways(seed, &mut arena, STEP_LIMIT);
    }
    assert!(checked >= 2_000 * 16, "fuzz sweep looks too small: {checked} lane checks");
}

#[test]
fn plane_matches_batch_and_reference_at_tiny_step_limits() {
    // The step-limit boundary is where the three evaluators are most likely
    // to disagree (which instruction "counts", whether `ret` is a step), so
    // sweep every limit from 0 to past the longest fuzz function.
    let mut arena = EvalArena::new();
    for seed in seed_block(150, 0x5e11_1111) {
        for limit in 0..=13 {
            check_three_ways(seed, &mut arena, limit);
        }
    }
}

#[test]
fn batched_lanes_match_isolated_lanes() {
    // A full-width plane sweep must be bit-identical to evaluating every
    // lane on its own — UB, poison or a step-limit hit in one lane cannot
    // leak into a neighbour's planes.
    let mut arena = EvalArena::new();
    let mut solo_arena = EvalArena::new();
    for seed in seed_block(200, 0x1a9e_1501) {
        let func = random_function(seed);
        let compiled = CompiledFunction::compile(&func);
        let plan = compiled.plane().expect("fuzz functions are plane-eligible");
        let inputs = generate_inputs(&func, &input_config(seed));
        let take = inputs.len().min(48);
        let lanes: Vec<&[EvalValue]> = inputs[..take].iter().map(|i| i.args.as_slice()).collect();
        let together = plan.evaluate_lanes(&mut arena, &lanes, STEP_LIMIT).unwrap();
        for (lane, input) in inputs[..take].iter().enumerate() {
            let alone = plan
                .evaluate_lanes(&mut solo_arena, &lanes[lane..=lane], STEP_LIMIT)
                .unwrap();
            assert_eq!(
                together.outcome(lane, input.memory.clone()),
                alone.outcome(0, input.memory.clone()),
                "lane {lane} differs batched vs alone: seed {seed:#x}\n{}",
                print_function(&func)
            );
        }
    }
}

/// Quick TV configuration with the plane tier on or off; everything else
/// (inputs, probe window) identical.
fn tv_config(plane_sweep: bool, seed: u64) -> TvConfig {
    TvConfig {
        inputs: InputConfig { exhaustive_bits: 8, random_samples: 24, seed },
        plane_sweep,
        ..TvConfig::default()
    }
}

#[test]
fn tv_verdicts_identical_with_plane_tier_on_and_off() {
    let mut arena = EvalArena::new();
    let mut plane_survivors = 0usize;
    for seed in seed_block(250, 0x7ea0_0f0f) {
        let src = random_function(seed);
        // The source itself (a guaranteed survivor) plus its twisted return
        // (refuted mid-sweep) exercise both verdict paths.
        let mut candidates = vec![src.clone()];
        candidates.extend(twist_return(&src));
        let with_plane = SourceCache::new(&src, tv_config(true, seed));
        let without = SourceCache::new(&src, tv_config(false, seed));
        for candidate in &candidates {
            let on = with_plane.verify_with(candidate, &mut arena);
            let off = without.verify_with(candidate, &mut arena);
            assert_eq!(
                on,
                off,
                "plane tier changed a verdict: seed {seed:#x}\n{}",
                print_function(candidate)
            );
        }
        assert_eq!(
            with_plane.source_eval_count(),
            without.source_eval_count(),
            "plane tier changed the source evaluation count: seed {seed:#x}"
        );
        plane_survivors += with_plane.plane_sweeps();
    }
    assert!(plane_survivors > 200, "plane tier barely engaged: {plane_survivors} sweeps");
}

#[test]
fn survivors_fall_back_only_when_really_ineligible() {
    // For every corpus case and candidate: if the candidate survives the
    // probe, the plane tier handles it exactly when its compiled form
    // carries a plan — fallback is never triggered by an input the plan
    // spuriously rejects.
    let mut arena = EvalArena::new();
    let mut plane = 0usize;
    let mut fallback = 0usize;
    for case in lpo_corpus::rq1_suite().iter().chain(lpo_corpus::rq2_suite().iter()) {
        let src = &case.function;
        let mut candidates = vec![src.clone()];
        candidates.extend(twist_return(src));
        let cache = SourceCache::new(src, tv_config(true, u64::from(case.issue_id)));
        for candidate in &candidates {
            let survivors_before = cache.survivors();
            let sweeps_before = cache.plane_sweeps();
            let _ = cache.verify_with(candidate, &mut arena);
            let survived = cache.survivors() > survivors_before;
            let planed = cache.plane_sweeps() > sweeps_before;
            let has_plan = CompiledFunction::compile(candidate).plane().is_some();
            if !survived {
                assert!(!planed, "non-survivor counted a plane sweep: @{}", candidate.name);
                continue;
            }
            assert_eq!(
                planed, has_plan,
                "survivor @{} fell back with a plan present (or planed without one)",
                candidate.name
            );
            if planed {
                plane += 1;
            } else {
                fallback += 1;
            }
        }
    }
    // The corpora contain both populations: the plane tier must be covering
    // the scalar-int bulk while memory/vector/control-flow cases fall back.
    assert!(plane > 20, "too few plane-swept survivors: {plane}");
    assert!(fallback > 0, "no fallback survivors — the eligibility test lost its teeth");
}

#[test]
fn structural_digests_separate_distinct_fuzz_functions() {
    // The compile cache keys on `hash_function` alone, so a digest collision
    // between behaviourally different functions would silently reuse the
    // wrong compiled code. Names are not hashed; normalize them so printed
    // text equality mirrors structural equality.
    let mut by_digest: HashMap<u64, String> = HashMap::new();
    let mut distinct = 0usize;
    for seed in seed_block(10_000, 0xd165_7a5b) {
        let mut func = random_function(seed);
        func.name = "f".into();
        let digest = hash_function(&func).0;
        let text = print_function(&func);
        match by_digest.entry(digest) {
            Entry::Occupied(entry) => assert_eq!(
                entry.get(),
                &text,
                "digest collision between distinct functions at seed {seed:#x}"
            ),
            Entry::Vacant(slot) => {
                slot.insert(text);
                distinct += 1;
            }
        }
    }
    assert!(distinct > 9_000, "fuzz generator produced too few distinct shapes: {distinct}");
}

/// The tape plane of an operand, pushing integer constants as they are
/// met (so constants land between instruction planes too); `None` for
/// `undef`/`poison` constants and values the tape skipped.
fn tape_operand(tape: &mut PlaneTape, planes: &HashMap<InstId, usize>, value: &Value) -> Option<usize> {
    match value {
        Value::Arg(i) => Some(*i),
        Value::Inst(id) => planes.get(id).copied(),
        Value::Const(Constant::Int(c)) => tape.constant(c),
        Value::Const(_) => None,
    }
}

/// `func` cut down to the tape's program ending at `last`: every replayed
/// instruction up to it (dead ones included, since their UB still counts),
/// returning its value.
fn tape_prefix(func: &Function, replayed: &[InstId], last: InstId) -> Function {
    let mut prefix = func.clone();
    prefix.ret_ty = func.inst(last).ty.clone();
    let keep = &replayed[..=replayed.iter().position(|id| *id == last).expect("replayed")];
    let insts = prefix.block(prefix.entry()).insts.clone();
    let (ret, body) = insts.split_last().expect("fuzz functions end in ret");
    for id in body.iter().rev() {
        if !keep.contains(id) {
            prefix.erase_inst(*id);
        }
    }
    prefix.set_operand(*ret, 0, Value::Inst(last));
    prefix
}

#[test]
fn plane_tape_matches_evaluate_lanes_on_random_chains() {
    let mut arena = EvalArena::new();
    let mut planes_checked = 0usize;
    for seed in seed_block(1_500, 0x7a9e_c4a1) {
        let func = random_function(seed);
        let widths: Vec<u32> =
            func.params.iter().map(|p| p.ty.int_width().expect("scalar int params")).collect();
        let inputs = generate_inputs(&func, &input_config(seed));
        let lanes: Vec<&[EvalValue]> = inputs.iter().map(|i| i.args.as_slice()).collect();
        let n = lanes.len();
        let mut tape = PlaneTape::new(&widths, &lanes).expect("fuzz inputs fit their signature");
        let mut planes: HashMap<InstId, usize> = HashMap::new();
        let mut replayed: Vec<InstId> = Vec::new();
        let body = func.block(func.entry()).insts.clone();
        for (k, id) in body.iter().enumerate() {
            let mark = tape.len();
            let pushed = match &func.inst(*id).kind {
                InstKind::Binary { op, lhs, rhs, flags } => {
                    match (tape_operand(&mut tape, &planes, lhs), tape_operand(&mut tape, &planes, rhs)) {
                        (Some(a), Some(b)) => Some(tape.binary(*op, *flags, a, b)),
                        _ => None,
                    }
                }
                InstKind::ICmp { pred, lhs, rhs } => {
                    match (tape_operand(&mut tape, &planes, lhs), tape_operand(&mut tape, &planes, rhs)) {
                        (Some(a), Some(b)) => Some(tape.icmp(*pred, a, b)),
                        _ => None,
                    }
                }
                _ => None,
            };
            let Some(plane) = pushed else {
                tape.truncate(mark);
                continue;
            };
            // Two lane windows, split at a seed-dependent point.
            let split = (seed as usize ^ k.wrapping_mul(7)) % (n + 1);
            tape.run(plane, 0..split);
            tape.run(plane, split..n);
            planes.insert(*id, plane);
            replayed.push(*id);

            let prefix = tape_prefix(&func, &replayed, *id);
            let plan = PlanePlan::compile(&prefix).expect("binary/icmp prefixes are plane-eligible");
            let want = plan.evaluate_lanes(&mut arena, &lanes, STEP_LIMIT).expect("inputs fit");
            let got = tape.view(plane);
            for (lane, args) in lanes.iter().enumerate() {
                let same = if want.is_ub(lane) {
                    got.ub_message(lane) == want.ub_message(lane)
                } else {
                    !got.is_ub(lane)
                        && got.is_poison(lane) == want.is_poison(lane)
                        && got.is_undef(lane) == want.is_undef(lane)
                        && (want.is_poison(lane) || want.is_undef(lane) || got.raw(lane) == want.raw(lane))
                };
                assert!(
                    same,
                    "tape vs plan diverged: seed {seed:#x} lane {lane} args {args:?}: tape {:?}, plan {:?}\n{}",
                    got.value(lane),
                    want.view().value(lane),
                    print_function(&prefix)
                );
            }
            planes_checked += 1;

            // A throwaway candidate on top — one that traps wherever the
            // plane is zero — then truncated: the next push reuses its
            // storage and must not see its UB lanes.
            let probe = tape.binary(BinOp::UDiv, IntFlags::none(), plane, plane);
            tape.run(probe, 0..n);
            tape.truncate(probe);
        }
    }
    assert!(planes_checked >= 1_500, "tape fuzz looks too small: {planes_checked} planes");
}

#[test]
fn evaluate_columns_matches_evaluate_lanes_and_batch() {
    let mut arena = EvalArena::new();
    let mut checked = 0usize;
    for seed in seed_block(1_000, 0xc0_1c0d) {
        let func = random_function(seed);
        let compiled = CompiledFunction::compile(&func);
        let plan = compiled.plane().expect("fuzz functions are plane-eligible");
        let config = input_config(seed);
        let inputs = generate_inputs(&func, &config);
        let set = InputSet::generate(&func, &config);
        let columns: Vec<&[u64]> =
            set.columns().expect("scalar-int signatures are columns").iter().map(Vec::as_slice).collect();
        let lanes: Vec<&[EvalValue]> = inputs.iter().map(|i| i.args.as_slice()).collect();
        // Full budget plus one that trips mid-walk.
        for limit in [STEP_LIMIT, seed as usize % 6] {
            let by_columns =
                plan.evaluate_columns(&mut arena, &columns, limit).expect("columns fit");
            let by_lanes = plan.evaluate_lanes(&mut arena, &lanes, limit).expect("lanes fit");
            assert_eq!(by_columns.lanes(), inputs.len());
            for (lane, input) in inputs.iter().enumerate() {
                let want = by_lanes.outcome(lane, input.memory.clone());
                let compiled_out =
                    compiled.evaluate_with_limit(&mut arena, &input.args, input.memory.clone(), limit);
                assert_eq!(
                    by_columns.outcome(lane, input.memory.clone()),
                    want,
                    "columns vs lanes diverged: seed {seed:#x} lane {lane} limit {limit}\n{}",
                    print_function(&func)
                );
                assert_eq!(
                    want,
                    compiled_out,
                    "lanes vs compiled diverged: seed {seed:#x} lane {lane} limit {limit}\n{}",
                    print_function(&func)
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 1_000 * 16, "column fuzz looks too small: {checked} lane checks");
}

/// Pushes every binary/icmp instruction of `func` onto `tape` (constants
/// as met, other instructions skipped) and evaluates each on every lane.
fn replay_chain(tape: &mut PlaneTape, func: &Function) {
    let mut planes: HashMap<InstId, usize> = HashMap::new();
    for id in func.block(func.entry()).insts.clone() {
        let mark = tape.len();
        let pushed = match &func.inst(id).kind {
            InstKind::Binary { op, lhs, rhs, flags } => {
                match (tape_operand(tape, &planes, lhs), tape_operand(tape, &planes, rhs)) {
                    (Some(a), Some(b)) => Some(tape.binary(*op, *flags, a, b)),
                    _ => None,
                }
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                match (tape_operand(tape, &planes, lhs), tape_operand(tape, &planes, rhs)) {
                    (Some(a), Some(b)) => Some(tape.icmp(*pred, a, b)),
                    _ => None,
                }
            }
            _ => None,
        };
        match pushed {
            Some(plane) => {
                tape.run(plane, 0..tape.lanes());
                planes.insert(id, plane);
            }
            None => tape.truncate(mark),
        }
    }
}

#[test]
fn plane_tape_from_columns_matches_new() {
    let mut planes_checked = 0usize;
    for seed in seed_block(1_000, 0x7a9e_c01d) {
        let func = random_function(seed);
        let widths: Vec<u32> =
            func.params.iter().map(|p| p.ty.int_width().expect("scalar int params")).collect();
        let config = input_config(seed);
        let inputs = generate_inputs(&func, &config);
        let set = InputSet::generate(&func, &config);
        let columns: Vec<&[u64]> =
            set.columns().expect("scalar-int signatures are columns").iter().map(Vec::as_slice).collect();
        let lanes: Vec<&[EvalValue]> = inputs.iter().map(|i| i.args.as_slice()).collect();
        let mut by_rows = PlaneTape::new(&widths, &lanes).expect("fuzz inputs fit their signature");
        let mut by_columns = PlaneTape::from_columns(&widths, &columns).expect("columns fit");
        replay_chain(&mut by_rows, &func);
        replay_chain(&mut by_columns, &func);
        assert_eq!((by_columns.len(), by_columns.lanes()), (by_rows.len(), by_rows.lanes()));
        for plane in 0..by_rows.len() {
            let (want, got) = (by_rows.view(plane), by_columns.view(plane));
            for lane in 0..by_rows.lanes() {
                assert_eq!(
                    got.value(lane),
                    want.value(lane),
                    "from_columns vs new diverged: seed {seed:#x} plane {plane} lane {lane}\n{}",
                    print_function(&func)
                );
            }
            planes_checked += 1;
        }
    }
    assert!(planes_checked >= 1_000, "tape column fuzz looks too small: {planes_checked} planes");
}
