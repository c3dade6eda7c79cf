//! Seeded random generation of straight-line scalar-integer functions.
//!
//! The generator produces *valid* functions by construction — every operand
//! has the width its instruction expects, casts strictly narrow or widen,
//! intrinsic poison flags are literal `i1` constants — while deliberately
//! steering into the semantic corners that make new evaluators wrong:
//!
//! * widths hit the boundaries (1, 7, 8, 16, 31, 32, 33, 63, 64) as well as
//!   arbitrary values in `1..=64`;
//! * constants are biased toward 0, 1, all-ones, the sign bit, the signed
//!   maximum and shift amounts at/over the width, so division and shift
//!   operands trap and flag checks trip;
//! * `nuw`/`nsw`/`exact`/`disjoint`/`nneg` flags are sampled from each
//!   opcode's legal set, and `undef`/`poison` constants appear inline.
//!
//! Everything is derived from the single `u64` seed via the vendored
//! `rand`, so any failing case is replayable from its seed alone. The
//! differential fuzz suite (`tests/plane_differential.rs`) sweeps thousands
//! of these against all three evaluators; the generator is `pub` so future
//! fuzz targets (optimizer differential runs, canonicalizer round-trips)
//! can reuse it.

use lpo_ir::apint::ApInt;
use lpo_ir::builder::FunctionBuilder;
use lpo_ir::constant::Constant;
use lpo_ir::flags::IntFlags;
use lpo_ir::function::Function;
use lpo_ir::instruction::{BinOp, CastOp, ICmpPred, InstId, InstKind, Instruction, Intrinsic, Value};
use lpo_ir::types::Type;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Shape knobs for [`random_function_with`].
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Parameters are drawn from `1..=max_params`.
    pub max_params: usize,
    /// Instructions (before the `ret`) are drawn from `1..=max_insts`.
    pub max_insts: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self { max_params: 3, max_insts: 10 }
    }
}

/// Widths the generator favours: the bit-boundary cases where sign
/// extension, masking and overflow detection are easiest to get wrong.
const BOUNDARY_WIDTHS: [u32; 9] = [1, 7, 8, 16, 31, 32, 33, 63, 64];

/// The integer intrinsics the generator emits (the scalar-int subset).
const INT_INTRINSICS: [Intrinsic; 16] = [
    Intrinsic::Umin,
    Intrinsic::Umax,
    Intrinsic::Smin,
    Intrinsic::Smax,
    Intrinsic::UaddSat,
    Intrinsic::SaddSat,
    Intrinsic::UsubSat,
    Intrinsic::SsubSat,
    Intrinsic::Abs,
    Intrinsic::Ctpop,
    Intrinsic::Ctlz,
    Intrinsic::Cttz,
    Intrinsic::Bswap,
    Intrinsic::Bitreverse,
    Intrinsic::Fshl,
    Intrinsic::Fshr,
];

/// Generates a random straight-line scalar-integer function from a seed,
/// with the default shape ([`FuzzConfig::default`]).
pub fn random_function(seed: u64) -> Function {
    random_function_with(seed, &FuzzConfig::default())
}

/// Generates a random straight-line scalar-integer function from a seed.
///
/// The result always has a single block ending in `ret` of an `Int(w <= 64)`
/// and is deterministic in `(seed, config)`.
pub fn random_function_with(seed: u64, config: &FuzzConfig) -> Function {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Generator { rng: &mut rng, pool: HashMap::new() };
    g.build(seed, config)
}

struct Generator<'r> {
    rng: &'r mut StdRng,
    /// Available SSA values (params + instruction results) by width.
    pool: HashMap<u32, Vec<Value>>,
}

impl Generator<'_> {
    fn build(&mut self, seed: u64, config: &FuzzConfig) -> Function {
        let ret_w = self.width();
        let mut b = FunctionBuilder::new(format!("fuzz_{seed:016x}"), Type::Int(ret_w));

        let nparams = self.rng.gen_range(1..config.max_params.max(1) + 1);
        for i in 0..nparams {
            // Bias one param toward the return width so narrow functions
            // still exercise dataflow into the ret.
            let w = if i == 0 && self.rng.gen_bool(0.5) { ret_w } else { self.width() };
            let p = b.add_param(format!("p{i}"), Type::Int(w));
            self.pool.entry(w).or_default().push(p);
        }

        let ninsts = self.rng.gen_range(1..config.max_insts.max(1) + 1);
        for _ in 0..ninsts {
            self.instruction(&mut b);
        }

        // Return a value of the declared width, casting the most recent
        // value into shape if none exists yet.
        let ret = match self.pick(ret_w) {
            Some(v) => v,
            None => {
                // Deterministic choice: HashMap iteration order varies, so
                // pick the smallest populated width.
                let from_w = self
                    .pool
                    .iter()
                    .filter(|(_, vs)| !vs.is_empty())
                    .map(|(w, _)| *w)
                    .min()
                    .expect("params always populate the pool");
                let v = self.pick(from_w).expect("just found");
                if from_w < ret_w {
                    let op = if self.rng.gen_bool(0.5) { CastOp::ZExt } else { CastOp::SExt };
                    b.cast_flagged(op, v, Type::Int(ret_w), self.cast_flags(op))
                } else {
                    b.cast_flagged(CastOp::Trunc, v, Type::Int(ret_w), self.cast_flags(CastOp::Trunc))
                }
            }
        };
        b.ret(Some(ret));
        self.pool.clear();
        b.build()
    }

    /// One random instruction appended to the builder; its result joins the
    /// pool.
    fn instruction(&mut self, b: &mut FunctionBuilder) {
        match self.rng.gen_range(0..10u32) {
            // Binary ops get the biggest share: they carry the flag and
            // trap surface.
            0..=3 => {
                let w = self.pool_width();
                let op = BinOp::ALL[self.rng.gen_range(0..BinOp::ALL.len())];
                let lhs = self.operand(w);
                let rhs = self.operand(w);
                let flags = self.sample_flags(op.allowed_flags());
                let v = b.binary_flagged(op, lhs, rhs, flags);
                self.pool.entry(w).or_default().push(v);
            }
            4 => {
                let w = self.pool_width();
                let pred = ICmpPred::ALL[self.rng.gen_range(0..ICmpPred::ALL.len())];
                let lhs = self.operand(w);
                let rhs = self.operand(w);
                let v = b.icmp(pred, lhs, rhs);
                self.pool.entry(1).or_default().push(v);
            }
            5 => {
                let w = self.pool_width();
                let cond = self.operand(1);
                let t = self.operand(w);
                let f = self.operand(w);
                let v = b.select(cond, t, f);
                self.pool.entry(w).or_default().push(v);
            }
            6 => {
                let from_w = self.pool_width();
                // Casts must strictly narrow or widen; width 1 can only
                // widen, width 64 only narrow.
                let (op, to_w) = if from_w == 1 || (from_w < 64 && self.rng.gen_bool(0.5)) {
                    let op = if self.rng.gen_bool(0.5) { CastOp::ZExt } else { CastOp::SExt };
                    (op, self.rng.gen_range(from_w + 1..65))
                } else {
                    (CastOp::Trunc, self.rng.gen_range(1..from_w))
                };
                let value = self.operand(from_w);
                let v = b.cast_flagged(op, value, Type::Int(to_w), self.cast_flags(op));
                self.pool.entry(to_w).or_default().push(v);
            }
            7..=8 => {
                let mut w = self.pool_width();
                let intr = INT_INTRINSICS[self.rng.gen_range(0..INT_INTRINSICS.len())];
                if intr == Intrinsic::Bswap {
                    w = *[8, 16, 24, 32, 48, 64].iter().rev().find(|&&c| c <= w).unwrap_or(&8);
                }
                let a = self.operand(w);
                let args = match intr {
                    Intrinsic::Abs | Intrinsic::Ctlz | Intrinsic::Cttz => {
                        vec![a, Value::bool(self.rng.gen())]
                    }
                    Intrinsic::Ctpop | Intrinsic::Bswap | Intrinsic::Bitreverse => vec![a],
                    Intrinsic::Fshl | Intrinsic::Fshr => {
                        vec![a, self.operand(w), self.operand(w)]
                    }
                    _ => vec![a, self.operand(w)],
                };
                let v = b.call(intr, args);
                self.pool.entry(w).or_default().push(v);
            }
            _ => {
                let w = self.pool_width();
                let value = self.operand(w);
                let v = b.freeze(value);
                self.pool.entry(w).or_default().push(v);
            }
        }
    }

    /// A random width, boundary-biased.
    fn width(&mut self) -> u32 {
        if self.rng.gen_bool(0.6) {
            BOUNDARY_WIDTHS[self.rng.gen_range(0..BOUNDARY_WIDTHS.len())]
        } else {
            self.rng.gen_range(1..65)
        }
    }

    /// A width to build the next instruction at: usually one that already
    /// has SSA values (so dataflow chains form), occasionally fresh.
    fn pool_width(&mut self) -> u32 {
        let populated: Vec<u32> = self.pool.keys().copied().collect();
        if !populated.is_empty() && self.rng.gen_bool(0.8) {
            let mut ws = populated;
            ws.sort_unstable();
            ws[self.rng.gen_range(0..ws.len())]
        } else {
            self.width()
        }
    }

    /// An existing SSA value of width `w`, if any.
    fn pick(&mut self, w: u32) -> Option<Value> {
        let vs = self.pool.get(&w)?;
        if vs.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..vs.len());
        Some(vs[i].clone())
    }

    /// An operand of width `w`: an existing SSA value when available, else a
    /// boundary-biased constant.
    fn operand(&mut self, w: u32) -> Value {
        if self.rng.gen_bool(0.65) {
            if let Some(v) = self.pick(w) {
                return v;
            }
        }
        self.constant(w)
    }

    /// A constant biased toward the values that trap divisions, overflow
    /// shifts and trip flag checks.
    fn constant(&mut self, w: u32) -> Value {
        let bits: u128 = match self.rng.gen_range(0..12u32) {
            0 => 0,
            1 => 1,
            2 => 2,
            // All ones == unsigned max == signed -1.
            3 => ((1u128 << w) - 1) | (1u128 << (w - 1)),
            // Sign bit == signed min.
            4 => 1u128 << (w - 1),
            // Signed max.
            5 => (1u128 << (w - 1)) - 1,
            // Shift amounts at and past the width boundary.
            6 => (w - 1) as u128,
            7 => w as u128,
            8 => (w + 1) as u128,
            9 => return Value::Const(Constant::Undef(Type::Int(w))),
            10 => return Value::Const(Constant::Poison(Type::Int(w))),
            _ => ((self.rng.gen::<u64>() as u128) << 64) | self.rng.gen::<u64>() as u128,
        };
        Value::Const(Constant::Int(ApInt::new(w, bits)))
    }

    /// A random subset of an opcode's legal flags, biased toward none.
    fn sample_flags(&mut self, allowed: IntFlags) -> IntFlags {
        if self.rng.gen_bool(0.5) {
            return IntFlags::none();
        }
        IntFlags {
            nuw: allowed.nuw && self.rng.gen(),
            nsw: allowed.nsw && self.rng.gen(),
            exact: allowed.exact && self.rng.gen(),
            disjoint: allowed.disjoint && self.rng.gen(),
            nneg: allowed.nneg && self.rng.gen(),
        }
    }

    fn cast_flags(&mut self, op: CastOp) -> IntFlags {
        self.sample_flags(op.allowed_flags())
    }
}

// ---------------------------------------------------------------------------
// Source/candidate pair generation.
// ---------------------------------------------------------------------------

/// Generates a source/candidate pair for differential verification: the
/// source is [`random_function`] of the seed, the candidate is the source
/// with one or two seeded mutations stacked on top. The mutation mix is
/// deliberately split between semantics-preserving rewrites (α-renaming,
/// adding an identity operation, swapping commutative operands, dropping
/// poison flags) and semantics-changing ones (twisting the returned value,
/// nudging a constant, adding poison flags, returning a constant), so a
/// differential harness sees correct and refuted candidates from the same
/// stream.
///
/// Both functions always share a signature, stay in the straight-line
/// scalar-int fragment, and are deterministic in the seed.
pub fn random_pair(seed: u64) -> (Function, Function) {
    let src = random_function(seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x7061_6972);
    let mut tgt = src.clone();
    tgt.name = format!("{}_cand", src.name);
    for _ in 0..rng.gen_range(1..3) {
        mutate_once(&mut tgt, &mut rng);
    }
    (src, tgt)
}

/// Applies one random mutation in place. Every arm degrades to a milder
/// mutation (ultimately an identity insertion, which always applies to the
/// generator's int-returning output) when its precondition is missing.
fn mutate_once(f: &mut Function, rng: &mut StdRng) {
    match rng.gen_range(0..8u32) {
        0 => alpha_rename(f),
        1 => insert_identity(f, rng),
        2 => twist_return_bit(f),
        3 => mutate_flags(f, rng),
        4 => swap_commutative(f, rng),
        5 => nudge_constant(f, rng),
        6 => replace_ret_with_constant(f, rng),
        _ => {
            // A double-width arm for the semantics-preserving rewrites, so
            // correct candidates stay a healthy fraction of the stream.
            alpha_rename(f);
            insert_identity(f, rng);
        }
    }
}

/// The id and returned value of the function's `ret`, when it returns one.
fn ret_site(f: &Function) -> Option<(InstId, Value)> {
    f.iter_insts().find_map(|(id, inst)| match &inst.kind {
        InstKind::Ret { value: Some(v) } => Some((id, v.clone())),
        _ => None,
    })
}

/// Renames every named instruction result (semantics-preserving; exercises
/// the structural, name-blind halves of the pipeline).
fn alpha_rename(f: &mut Function) {
    let ids: Vec<InstId> = f.iter_inst_ids().collect();
    for id in ids {
        let inst = f.inst_mut(id);
        if !inst.name.is_empty() {
            inst.name = format!("m{}", id.0);
        }
    }
}

/// Inserts an identity operation (`add 0`, `or 0` or `xor 0`) between the
/// returned value and the `ret` (semantics-preserving, including poison
/// propagation: the identity carries no flags).
fn insert_identity(f: &mut Function, rng: &mut StdRng) {
    let Some(w) = f.ret_ty.int_width() else { return };
    let Some((ret_id, ret_val)) = ret_site(f) else { return };
    let op = [BinOp::Add, BinOp::Or, BinOp::Xor][rng.gen_range(0..3)];
    let id = f.insert_before(
        ret_id,
        Instruction::new(
            InstKind::Binary { op, lhs: ret_val, rhs: Value::int(w, 0), flags: IntFlags::none() },
            Type::Int(w),
            "idle",
        ),
    );
    f.set_operand(ret_id, 0, Value::Inst(id));
}

/// Flips the low bit of the returned value (semantics-changing on every
/// input where the source returns a concrete value).
fn twist_return_bit(f: &mut Function) {
    let Some(w) = f.ret_ty.int_width() else { return };
    let Some((ret_id, ret_val)) = ret_site(f) else { return };
    let id = f.insert_before(
        ret_id,
        Instruction::new(
            InstKind::Binary {
                op: BinOp::Xor,
                lhs: ret_val,
                rhs: Value::int(w, 1),
                flags: IntFlags::none(),
            },
            Type::Int(w),
            "twist",
        ),
    );
    f.set_operand(ret_id, 0, Value::Inst(id));
}

/// Drops or resamples the poison flags of one flag-capable instruction.
/// Dropping flags is a refinement (strictly less poison); adding them may
/// introduce poison the source lacks.
fn mutate_flags(f: &mut Function, rng: &mut StdRng) {
    let ids: Vec<(InstId, IntFlags)> = f
        .iter_insts()
        .filter_map(|(id, inst)| match &inst.kind {
            InstKind::Binary { op, .. } if !op.allowed_flags().is_empty() => {
                Some((id, op.allowed_flags()))
            }
            InstKind::Cast { op, .. } if !op.allowed_flags().is_empty() => {
                Some((id, op.allowed_flags()))
            }
            _ => None,
        })
        .collect();
    if ids.is_empty() {
        return insert_identity(f, rng);
    }
    let (id, allowed) = ids[rng.gen_range(0..ids.len())];
    let new = if rng.gen_bool(0.5) {
        IntFlags::none()
    } else {
        IntFlags {
            nuw: allowed.nuw && rng.gen(),
            nsw: allowed.nsw && rng.gen(),
            exact: allowed.exact && rng.gen(),
            disjoint: allowed.disjoint && rng.gen(),
            nneg: allowed.nneg && rng.gen(),
        }
    };
    match &mut f.inst_mut(id).kind {
        InstKind::Binary { flags, .. } | InstKind::Cast { flags, .. } => *flags = new,
        _ => unreachable!("filtered to flag-capable kinds"),
    }
}

/// Swaps the operands of one commutative binary (semantics-preserving).
fn swap_commutative(f: &mut Function, rng: &mut StdRng) {
    let ids: Vec<InstId> = f
        .iter_insts()
        .filter_map(|(id, inst)| match &inst.kind {
            InstKind::Binary { op, .. } if op.is_commutative() => Some(id),
            _ => None,
        })
        .collect();
    if ids.is_empty() {
        return insert_identity(f, rng);
    }
    let id = ids[rng.gen_range(0..ids.len())];
    let (lhs, rhs) = match &f.inst(id).kind {
        InstKind::Binary { lhs, rhs, .. } => (lhs.clone(), rhs.clone()),
        _ => unreachable!("filtered to binaries"),
    };
    f.set_operand(id, 0, rhs);
    f.set_operand(id, 1, lhs);
}

/// Replaces one integer-constant right operand of a binary with a
/// different constant (usually semantics-changing).
fn nudge_constant(f: &mut Function, rng: &mut StdRng) {
    let sites: Vec<(InstId, u32, u128)> = f
        .iter_insts()
        .filter_map(|(id, inst)| match &inst.kind {
            InstKind::Binary { rhs: Value::Const(Constant::Int(v)), .. } => {
                Some((id, v.width(), v.zext_value()))
            }
            _ => None,
        })
        .collect();
    if sites.is_empty() {
        return twist_return_bit(f);
    }
    let (id, w, old) = sites[rng.gen_range(0..sites.len())];
    let mask = if w >= 128 { u128::MAX } else { (1u128 << w) - 1 };
    let new = (old ^ u128::from(rng.gen_range(1..4u32))) & mask;
    f.set_operand(id, 1, Value::Const(Constant::Int(ApInt::new(w, new))));
}

/// Replaces the returned value with a constant (refuted unless the source
/// itself folds to that constant).
fn replace_ret_with_constant(f: &mut Function, rng: &mut StdRng) {
    let Some(w) = f.ret_ty.int_width() else { return };
    let Some((ret_id, _)) = ret_site(f) else { return };
    let mask = if w >= 128 { u128::MAX } else { (1u128 << w) - 1 };
    let bits = u128::from(rng.gen::<u64>()) & mask;
    f.set_operand(ret_id, 0, Value::Const(Constant::Int(ApInt::new(w, bits))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::PlanePlan;
    use lpo_ir::printer::print_function;

    #[test]
    fn deterministic_in_the_seed() {
        for seed in 0..50 {
            let a = random_function(seed);
            let b = random_function(seed);
            assert_eq!(print_function(&a), print_function(&b));
        }
    }

    #[test]
    fn generated_functions_are_plane_eligible() {
        // The generator only emits the straight-line scalar-int shape, so
        // every output must lower to a plane plan — this is what makes it a
        // useful differential driver for the plane evaluator.
        for seed in 0..200 {
            let f = random_function(seed);
            assert!(
                PlanePlan::compile(&f).is_some(),
                "seed {seed} produced an ineligible function:\n{}",
                print_function(&f)
            );
        }
    }

    #[test]
    fn seeds_produce_distinct_shapes() {
        let mut texts: Vec<String> = (0..100).map(|s| print_function(&random_function(s))).collect();
        texts.sort();
        texts.dedup();
        assert!(texts.len() > 90, "only {} distinct functions in 100 seeds", texts.len());
    }

    #[test]
    fn pairs_are_deterministic_and_share_signatures() {
        for seed in 0..100 {
            let (src, tgt) = random_pair(seed);
            let (src2, tgt2) = random_pair(seed);
            assert_eq!(print_function(&src), print_function(&src2));
            assert_eq!(print_function(&tgt), print_function(&tgt2));
            assert_eq!(src.ret_ty, tgt.ret_ty, "seed {seed} changed the return type");
            assert_eq!(
                src.params.iter().map(|p| p.ty.clone()).collect::<Vec<_>>(),
                tgt.params.iter().map(|p| p.ty.clone()).collect::<Vec<_>>(),
                "seed {seed} changed the parameter list"
            );
        }
    }

    #[test]
    fn pair_candidates_stay_plane_eligible() {
        // Mutations only rename, insert scalar-int binaries or rewrite
        // operands in place, so the candidate stays in the same fragment as
        // the source — the property that lets the pair stream drive the
        // plane-tier paths of the frozen-case differential harness.
        for seed in 0..200 {
            let (_, tgt) = random_pair(seed);
            assert!(
                PlanePlan::compile(&tgt).is_some(),
                "seed {seed} produced an ineligible candidate:\n{}",
                print_function(&tgt)
            );
        }
    }

    #[test]
    fn pair_candidates_actually_mutate() {
        // The candidate must differ from the source for most seeds (an
        // α-rename alone can collide textually only if names were already
        // canonical, which the generator's naming makes impossible).
        let differing = (0..100)
            .filter(|&seed| {
                let (src, tgt) = random_pair(seed);
                let mut s = src.clone();
                let mut t = tgt.clone();
                s.name = "f".into();
                t.name = "f".into();
                print_function(&s) != print_function(&t)
            })
            .count();
        assert!(differing > 80, "only {differing}/100 pairs differ from their source");
    }
}
