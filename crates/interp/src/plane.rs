//! Type-specialized *plane* evaluation for straight-line scalar-integer
//! functions.
//!
//! The batched evaluator ([`CompiledFunction::evaluate_batch_with_limit`](crate::compiled::CompiledFunction::evaluate_batch_with_limit))
//! already amortizes step decode over a batch of inputs, but every lane of
//! every step still flows through `EvalValue` — an enum whose discriminant
//! check, `ApInt` width bookkeeping and per-lane `Result` plumbing dominate
//! the cost of the actual arithmetic. For the functions the LPO corpora are
//! made of (one block, integer scalars ≤ 64 bits, no memory), all of that
//! structure is static: every value is a `u64` plus two flag bits.
//!
//! [`PlanePlan::compile`] checks a function against that shape and, when it
//! fits, lowers it to a *plane program*: each SSA register becomes a plane —
//! a flat `lanes`-long `u64` array — and each instruction becomes one pass
//! of a tight `for` loop over the operand planes, which the compiler can
//! auto-vectorize. Poison and undef are tracked per lane in a parallel `u8`
//! state plane (`1` = poison, `2` = undef); immediate UB (division by zero
//! and friends) is recorded per *lane* as a one-byte code indexing a static
//! message table, so a trapping lane never allocates and never disturbs its
//! neighbours.
//!
//! The plan is embedded in [`CompiledFunction`](crate::compiled::CompiledFunction) at compile time (the check
//! is one linear walk), so callers that already cache compiled functions —
//! the translation validator's `CompileCache` in particular — get the plane
//! program for free. Ineligible functions (memory, vectors, floats, control
//! flow, wide integers) simply compile with `plane: None` and keep using the
//! batched evaluator; [`PlanePlan::compile`] returning `None` *is* the
//! fallback contract.
//!
//! Inputs enter a plan in one of two forms. [`PlanePlan::evaluate_columns`]
//! takes one canonical `u64` column per parameter and copies each straight
//! into its parameter plane — the form the translation validator stores
//! scalar-integer test inputs in. [`PlanePlan::evaluate_lanes`] takes one
//! `EvalValue` argument list per lane (poison and undef arguments allowed)
//! and packs them into the same planes. Both then run one kernel path.
//!
//! # Semantics
//!
//! [`PlanePlan::evaluate_lanes`] reproduces the batched evaluator bit for
//! bit on eligible functions and inputs:
//!
//! * identical results, poison/undef propagation and UB messages per lane
//!   (the differential fuzz suite in `tests/plane_differential.rs` proves
//!   this over thousands of random functions);
//! * identical lock-step step accounting — instruction `j` executes only if
//!   `j + 1 <= step_limit`, the `ret` costs one more step, and lanes still
//!   live when the limit trips report `execution step limit exceeded`;
//! * per-lane isolation: one lane's UB or poison never leaks into another.

use crate::compiled::EvalArena;
use crate::eval::{EvalOutcome, Ub, POISON_DIVISOR};
use crate::memory::Memory;
use crate::value::EvalValue;
use lpo_ir::apint::ApInt;
use lpo_ir::constant::Constant;
use lpo_ir::flags::IntFlags;
use lpo_ir::function::Function;
use lpo_ir::instruction::{BinOp, CastOp, ICmpPred, InstId, InstKind, Intrinsic, Value};
use lpo_ir::types::Type;
use std::collections::HashMap;
use std::ops::Range;

/// Per-lane UB codes; index into [`UB_MESSAGES`]. `0` means "no UB".
const UB_DIV_ZERO: u8 = 1;
const UB_SDIV_OVERFLOW: u8 = 2;
const UB_REM_ZERO: u8 = 3;
const UB_SREM_OVERFLOW: u8 = 4;
const UB_STEP_LIMIT: u8 = 5;
const UB_POISON_DIVISOR: u8 = 6;

/// The only UB diagnostics reachable from plane-eligible instructions, with
/// byte-for-byte the messages the interpreter's other evaluators emit.
const UB_MESSAGES: [&str; 7] = [
    "",
    "division by zero",
    "signed division overflow",
    "remainder by zero",
    "signed remainder overflow",
    "execution step limit exceeded",
    POISON_DIVISOR,
];

/// Lane state bits: bit 0 = poison, bit 1 = undef. Poison dominates when
/// operand states are OR-combined, matching the evaluators' check order.
const ST_POISON: u8 = 1;
const ST_UNDEF: u8 = 2;

/// Tag bit marking an unresolved instruction reference during compilation.
const INST_BIT: u32 = 1 << 31;
/// Sentinel for operand slots a step does not use.
const UNUSED: u32 = u32::MAX;

/// One lowered instruction: an opcode payload plus up to three operand
/// plane indexes and the destination plane.
#[derive(Clone, Debug)]
struct PStep {
    op: POp,
    a: u32,
    b: u32,
    c: u32,
    dst: u32,
}

/// Plane opcodes. Widths are baked in at compile time so the execution
/// loops never consult a type.
#[derive(Clone, Debug)]
enum POp {
    /// Integer binary op over planes `a`, `b`.
    Bin { op: BinOp, flags: IntFlags, w: u32 },
    /// Integer compare of planes `a`, `b`; destination is an `i1` plane.
    Cmp { pred: ICmpPred, w: u32 },
    /// `select` with condition plane `a` and value planes `b`/`c`.
    Sel,
    /// `trunc`/`zext`/`sext` from `from_w` to `to_w`.
    Cast { op: CastOp, flags: IntFlags, from_w: u32, to_w: u32 },
    /// Two-operand integer intrinsic (min/max/saturating arithmetic).
    Intr2 { intr: Intrinsic, w: u32 },
    /// `abs`/`ctlz`/`cttz` with their compile-time-constant poison flag.
    IntrFlag { intr: Intrinsic, w: u32, flag: bool },
    /// One-operand integer intrinsic (`ctpop`/`bswap`/`bitreverse`).
    Intr1 { intr: Intrinsic, w: u32 },
    /// Funnel shift over planes `a` (high), `b` (low), `c` (amount).
    Funnel { fshr: bool, w: u32 },
    /// `freeze`: poison/undef lanes become zero.
    Freeze,
}

/// A straight-line scalar-integer function lowered to plane form.
///
/// Plane layout is `[params][constants][instruction results]`, so a step's
/// destination plane index is always strictly greater than its operands' —
/// which is what lets the executor split the plane storage mutably without
/// `unsafe`.
#[derive(Clone, Debug)]
pub struct PlanePlan {
    num_params: usize,
    param_widths: Vec<u32>,
    /// Broadcast constants: `(canonical value, lane state)`.
    consts: Vec<(u64, u8)>,
    num_planes: usize,
    steps: Vec<PStep>,
    ret_plane: u32,
    ret_width: u32,
}

/// The per-lane results of one plane sweep.
///
/// Values, states and UB codes are copied out of the arena so the result
/// owns its data (the arena is immediately reusable).
#[derive(Clone, Debug)]
pub struct PlaneResult {
    vals: Vec<u64>,
    states: Vec<u8>,
    ub: Vec<u8>,
    steps: usize,
    ret_width: u32,
}

impl PlaneResult {
    /// Number of lanes in this sweep.
    pub fn lanes(&self) -> usize {
        self.ub.len()
    }

    /// The step count every non-UB lane reports (instructions + the `ret`).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Width of the returned integer.
    pub fn ret_width(&self) -> u32 {
        self.ret_width
    }

    /// The returned plane as a borrowed [`PlaneLanes`] view.
    pub fn view(&self) -> PlaneLanes<'_> {
        PlaneLanes { vals: &self.vals, states: &self.states, ub: &self.ub, width: self.ret_width }
    }

    /// Whether the lane hit immediate UB.
    pub fn is_ub(&self, lane: usize) -> bool {
        self.view().is_ub(lane)
    }

    /// The lane's UB diagnostic, if it hit UB.
    pub fn ub_message(&self, lane: usize) -> Option<&'static str> {
        self.view().ub_message(lane)
    }

    /// Whether the lane's return value is poison.
    pub fn is_poison(&self, lane: usize) -> bool {
        self.view().is_poison(lane)
    }

    /// Whether the lane's return value is undef.
    pub fn is_undef(&self, lane: usize) -> bool {
        self.view().is_undef(lane)
    }

    /// The lane's raw return bits (meaningful only when the lane is neither
    /// UB nor poison/undef).
    pub fn raw(&self, lane: usize) -> u64 {
        self.vals[lane]
    }

    /// Materializes the lane's outcome in the interpreter's native form,
    /// identical to what [`CompiledFunction::evaluate_batch_with_limit`](crate::compiled::CompiledFunction::evaluate_batch_with_limit)
    /// returns for the same input. `memory` is threaded through unchanged
    /// (eligible functions never touch it).
    ///
    /// # Errors
    ///
    /// Returns the lane's [`Ub`] when it hit immediate undefined behaviour.
    pub fn outcome(&self, lane: usize, memory: Memory) -> Result<EvalOutcome, Ub> {
        let value = self.view().value(lane)?;
        Ok(EvalOutcome { result: Some(value), memory, steps: self.steps })
    }
}

/// A borrowed view of one plane's lanes: a [`PlaneResult`]'s returned plane
/// or any plane of a [`PlaneTape`]. Lane `i`'s UB flag belongs to the
/// straight-line program that computed the plane, so a UB lane's value and
/// state are meaningless.
#[derive(Clone, Copy, Debug)]
pub struct PlaneLanes<'a> {
    vals: &'a [u64],
    states: &'a [u8],
    ub: &'a [u8],
    width: u32,
}

impl PlaneLanes<'_> {
    /// Whether the lane hit immediate UB.
    pub fn is_ub(&self, lane: usize) -> bool {
        self.ub[lane] != 0
    }

    /// The lane's UB diagnostic, if it hit UB.
    pub fn ub_message(&self, lane: usize) -> Option<&'static str> {
        (self.ub[lane] != 0).then(|| UB_MESSAGES[self.ub[lane] as usize])
    }

    /// Whether the lane's value is poison (and the lane did not hit UB).
    pub fn is_poison(&self, lane: usize) -> bool {
        self.ub[lane] == 0 && self.states[lane] == ST_POISON
    }

    /// Whether the lane's value is undef (and the lane did not hit UB).
    pub fn is_undef(&self, lane: usize) -> bool {
        self.ub[lane] == 0 && self.states[lane] == ST_UNDEF
    }

    /// The lane's raw bits (meaningful only when the lane is neither UB nor
    /// poison/undef).
    pub fn raw(&self, lane: usize) -> u64 {
        self.vals[lane]
    }

    /// The lane's value in the interpreter's native form.
    ///
    /// # Errors
    ///
    /// Returns the lane's [`Ub`] when it hit immediate undefined behaviour.
    pub fn value(&self, lane: usize) -> Result<EvalValue, Ub> {
        if self.ub[lane] != 0 {
            return Err(Ub::new(UB_MESSAGES[self.ub[lane] as usize]));
        }
        Ok(match self.states[lane] {
            ST_POISON => EvalValue::Poison,
            ST_UNDEF => EvalValue::Undef,
            _ => EvalValue::Int(ApInt::new(self.width, self.vals[lane] as u128)),
        })
    }
}

/// Scalar `Int(w)` with `w <= 64`, the only type planes carry.
fn int_w(ty: &Type) -> Option<u32> {
    match ty {
        Type::Int(w) if *w <= 64 => Some(*w),
        _ => None,
    }
}

/// All-ones mask of the low `w` bits.
#[inline(always)]
fn mask(w: u32) -> u64 {
    if w == 64 { u64::MAX } else { (1u64 << w) - 1 }
}

/// Sign-extends the canonical `w`-bit value to `i64`.
#[inline(always)]
fn sx64(x: u64, w: u32) -> i64 {
    ((x << (64 - w)) as i64) >> (64 - w)
}

/// Sign-extends to `i128`, wide enough that sums/products never wrap.
#[inline(always)]
fn sxi(x: u64, w: u32) -> i128 {
    sx64(x, w) as i128
}

/// Smallest signed `w`-bit value, as `i128`.
#[inline(always)]
fn smin_i128(w: u32) -> i128 {
    -(1i128 << (w - 1))
}

/// Largest signed `w`-bit value, as `i128`.
#[inline(always)]
fn smax_i128(w: u32) -> i128 {
    (1i128 << (w - 1)) - 1
}

/// Clamps a signed `i128` into `w` bits (saturating-intrinsic helper).
#[inline(always)]
fn clamp_s(v: i128, w: u32) -> u64 {
    let lo = smin_i128(w);
    let hi = smax_i128(w);
    (v.clamp(lo, hi) as u64) & mask(w)
}

/// Records UB in a lane unless the lane already died (first UB wins, like
/// the lock-step evaluators where a dead lane stops executing).
#[inline(always)]
fn flag_ub(slot: &mut u8, code: u8) {
    if *slot == 0 {
        *slot = code;
    }
}

impl PlanePlan {
    /// Lowers `func` to plane form, or returns `None` if it is ineligible.
    ///
    /// Eligible functions are exactly: a single basic block ending in
    /// `ret` of a scalar `Int(w)`, `w <= 64`; all parameters scalar
    /// `Int(w <= 64)`; and every instruction one of
    ///
    /// * an integer binary op, `icmp`, `select`, or `freeze`,
    /// * `trunc`/`zext`/`sext` between `Int(<=64)` types,
    /// * an integer intrinsic (`umin`/`umax`/`smin`/`smax`, saturating
    ///   add/sub, `abs`, `ctpop`, `ctlz`, `cttz`, `bswap` on byte-multiple
    ///   widths, `bitreverse`, `fshl`/`fshr`) — with the `abs`/`ctlz`/`cttz`
    ///   poison flag a literal constant,
    ///
    /// over operands that are parameters, earlier instructions in the same
    /// block, or integer/`undef`/`poison` constants of matching width.
    /// Memory, floats, vectors, pointers, wide integers and control flow all
    /// disqualify — those shapes keep the batched evaluator.
    pub fn compile(func: &Function) -> Option<PlanePlan> {
        if func.blocks().len() != 1 {
            return None;
        }
        let ret_width = int_w(&func.ret_ty)?;
        let mut param_widths = Vec::with_capacity(func.params.len());
        for p in &func.params {
            param_widths.push(int_w(&p.ty)?);
        }
        let np = param_widths.len();
        let insts = &func.blocks()[0].insts;
        let (last, body) = insts.split_last()?;

        let mut consts: Vec<(u64, u8)> = Vec::new();
        let mut pos_of: HashMap<InstId, (u32, u32)> = HashMap::new();
        let mut steps: Vec<PStep> = Vec::with_capacity(body.len());

        // Resolves an operand of expected width `want_w` to a (possibly
        // still inst-tagged) plane index. Constant operands each get their
        // own broadcast plane; forward or unplaced instruction references
        // make the function ineligible.
        let resolve = |v: &Value,
                       want_w: u32,
                       consts: &mut Vec<(u64, u8)>,
                       pos_of: &HashMap<InstId, (u32, u32)>|
         -> Option<u32> {
            match v {
                Value::Arg(i) => {
                    (param_widths.get(*i).copied()? == want_w).then_some(*i as u32)
                }
                Value::Inst(id) => {
                    let (pos, w) = pos_of.get(id).copied()?;
                    (w == want_w).then_some(INST_BIT | pos)
                }
                Value::Const(c) => {
                    let (val, st) = match c {
                        Constant::Int(v) if v.width() == want_w => {
                            (v.zext_value() as u64, 0u8)
                        }
                        Constant::Undef(Type::Int(w)) if *w == want_w => (0, ST_UNDEF),
                        Constant::Poison(Type::Int(w)) if *w == want_w => (0, ST_POISON),
                        _ => return None,
                    };
                    consts.push((val, st));
                    Some((np + consts.len() - 1) as u32)
                }
            }
        };

        for (k, id) in body.iter().enumerate() {
            let inst = func.inst(*id);
            let mut step = PStep { op: POp::Freeze, a: UNUSED, b: UNUSED, c: UNUSED, dst: INST_BIT | k as u32 };
            let w = match &inst.kind {
                InstKind::Binary { op, lhs, rhs, flags } => {
                    let w = int_w(&inst.ty)?;
                    step.op = POp::Bin { op: *op, flags: *flags, w };
                    step.a = resolve(lhs, w, &mut consts, &pos_of)?;
                    step.b = resolve(rhs, w, &mut consts, &pos_of)?;
                    // A literal undef divisor is immediate UB, like a poison
                    // one (see `divisor_ub`); its broadcast plane is private
                    // to this operand, so it is lowered as poison.
                    if op.is_division() && matches!(rhs, Value::Const(Constant::Undef(_))) {
                        consts.last_mut().expect("the divisor's plane").1 = ST_POISON;
                    }
                    w
                }
                InstKind::ICmp { pred, lhs, rhs } => {
                    if int_w(&inst.ty)? != 1 {
                        return None;
                    }
                    let ow = int_w(&func.value_type(lhs))?;
                    step.op = POp::Cmp { pred: *pred, w: ow };
                    step.a = resolve(lhs, ow, &mut consts, &pos_of)?;
                    step.b = resolve(rhs, ow, &mut consts, &pos_of)?;
                    1
                }
                InstKind::Select { cond, on_true, on_false } => {
                    let w = int_w(&inst.ty)?;
                    if int_w(&func.value_type(cond))? != 1 {
                        return None;
                    }
                    step.op = POp::Sel;
                    step.a = resolve(cond, 1, &mut consts, &pos_of)?;
                    step.b = resolve(on_true, w, &mut consts, &pos_of)?;
                    step.c = resolve(on_false, w, &mut consts, &pos_of)?;
                    w
                }
                InstKind::Cast { op, value, flags } => {
                    let to_w = int_w(&inst.ty)?;
                    let from_w = int_w(&func.value_type(value))?;
                    // Only strictly-narrowing truncs and strictly-widening
                    // extensions are lowered; malformed same-width casts
                    // keep the batched evaluator's behaviour.
                    match op {
                        CastOp::Trunc if from_w > to_w => {}
                        CastOp::ZExt | CastOp::SExt if from_w < to_w => {}
                        _ => return None,
                    }
                    step.op = POp::Cast { op: *op, flags: *flags, from_w, to_w };
                    step.a = resolve(value, from_w, &mut consts, &pos_of)?;
                    to_w
                }
                InstKind::Call { intrinsic, args, .. } => {
                    let w = int_w(&inst.ty)?;
                    match intrinsic {
                        Intrinsic::Umin
                        | Intrinsic::Umax
                        | Intrinsic::Smin
                        | Intrinsic::Smax
                        | Intrinsic::UaddSat
                        | Intrinsic::SaddSat
                        | Intrinsic::UsubSat
                        | Intrinsic::SsubSat => {
                            if args.len() != 2 {
                                return None;
                            }
                            step.op = POp::Intr2 { intr: *intrinsic, w };
                            step.a = resolve(&args[0], w, &mut consts, &pos_of)?;
                            step.b = resolve(&args[1], w, &mut consts, &pos_of)?;
                        }
                        Intrinsic::Abs | Intrinsic::Ctlz | Intrinsic::Cttz => {
                            if args.len() != 2 {
                                return None;
                            }
                            // The poison flag is an immarg in LLVM; require a
                            // literal so it can be baked into the step. A
                            // poison/undef/non-i1 constant reads as `false`,
                            // exactly like `as_bool().unwrap_or(false)`.
                            let flag = match &args[1] {
                                Value::Const(c) => {
                                    EvalValue::from_constant(c).as_bool().unwrap_or(false)
                                }
                                _ => return None,
                            };
                            step.op = POp::IntrFlag { intr: *intrinsic, w, flag };
                            step.a = resolve(&args[0], w, &mut consts, &pos_of)?;
                        }
                        Intrinsic::Ctpop | Intrinsic::Bitreverse => {
                            if args.len() != 1 {
                                return None;
                            }
                            step.op = POp::Intr1 { intr: *intrinsic, w };
                            step.a = resolve(&args[0], w, &mut consts, &pos_of)?;
                        }
                        Intrinsic::Bswap => {
                            if args.len() != 1 || w % 8 != 0 {
                                return None;
                            }
                            step.op = POp::Intr1 { intr: *intrinsic, w };
                            step.a = resolve(&args[0], w, &mut consts, &pos_of)?;
                        }
                        Intrinsic::Fshl | Intrinsic::Fshr => {
                            if args.len() != 3 {
                                return None;
                            }
                            step.op = POp::Funnel { fshr: *intrinsic == Intrinsic::Fshr, w };
                            step.a = resolve(&args[0], w, &mut consts, &pos_of)?;
                            step.b = resolve(&args[1], w, &mut consts, &pos_of)?;
                            step.c = resolve(&args[2], w, &mut consts, &pos_of)?;
                        }
                        _ => return None,
                    }
                    w
                }
                InstKind::Freeze { value } => {
                    let w = int_w(&inst.ty)?;
                    step.op = POp::Freeze;
                    step.a = resolve(value, w, &mut consts, &pos_of)?;
                    w
                }
                _ => return None,
            };
            steps.push(step);
            pos_of.insert(*id, (k as u32, w));
        }

        let mut ret_plane = match &func.inst(*last).kind {
            InstKind::Ret { value: Some(v) } => resolve(v, ret_width, &mut consts, &pos_of)?,
            _ => return None,
        };

        // Resolve instruction-tagged references now that the constant count
        // is known: plane layout is [params][consts][insts].
        let base = (np + consts.len()) as u32;
        let fix = |r: &mut u32| {
            if *r != UNUSED && *r & INST_BIT != 0 {
                *r = base + (*r & !INST_BIT);
            }
        };
        for step in &mut steps {
            fix(&mut step.a);
            fix(&mut step.b);
            fix(&mut step.c);
            fix(&mut step.dst);
        }
        fix(&mut ret_plane);

        let num_planes = np + consts.len() + steps.len();
        Some(PlanePlan {
            num_params: np,
            param_widths,
            consts,
            num_planes,
            steps,
            ret_plane,
            ret_width,
        })
    }

    /// Number of parameters the plan expects.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Whether one concrete argument list can feed this plan: right arity,
    /// and every argument a matching-width scalar integer, poison or undef.
    pub fn accepts_args(&self, args: &[EvalValue]) -> bool {
        args.len() == self.num_params
            && args.iter().zip(&self.param_widths).all(|(a, &w)| match a {
                EvalValue::Int(v) => v.width() == w,
                EvalValue::Poison | EvalValue::Undef => true,
                _ => false,
            })
    }

    /// Runs the plan over `lanes` inputs in lock step.
    ///
    /// Returns `None` (caller should fall back to the batched evaluator)
    /// if any lane's arguments fail [`accepts_args`](Self::accepts_args).
    /// Otherwise the result holds, per lane, exactly what
    /// [`CompiledFunction::evaluate_batch_with_limit`](crate::compiled::CompiledFunction::evaluate_batch_with_limit) would produce for
    /// the same input and `step_limit` — same values, same poison/undef,
    /// same UB diagnostics, same step counts.
    ///
    /// This is [`evaluate_columns`](Self::evaluate_columns) for argument
    /// lists: it packs the lanes into the parameter planes (poison and undef
    /// arguments set the lane state) and runs the same kernels.
    pub fn evaluate_lanes(
        &self,
        arena: &mut EvalArena,
        lanes: &[&[EvalValue]],
        step_limit: usize,
    ) -> Option<PlaneResult> {
        if !lanes.iter().all(|args| self.accepts_args(args)) {
            return None;
        }
        Some(self.execute(arena, lanes.len(), step_limit, |j, vals, states| {
            for (i, args) in lanes.iter().enumerate() {
                match &args[j] {
                    EvalValue::Int(v) => vals[i] = v.zext_value() as u64,
                    EvalValue::Poison => states[i] = ST_POISON,
                    EvalValue::Undef => states[i] = ST_UNDEF,
                    _ => unreachable!("checked by accepts_args"),
                }
            }
        }))
    }

    /// Runs the plan over concrete argument columns: `columns[j][i]` is
    /// lane `i`'s value of parameter `j`, in canonical (zero-extended) form.
    /// The columns are copied straight into the parameter planes, so no
    /// per-lane argument list is ever built.
    ///
    /// Returns `None` when the columns don't fit the plan: wrong count,
    /// unequal lengths, or a value with bits above its parameter's width.
    /// Otherwise the result equals [`evaluate_lanes`](Self::evaluate_lanes)
    /// on the same inputs as `EvalValue::Int` arguments.
    pub fn evaluate_columns(
        &self,
        arena: &mut EvalArena,
        columns: &[&[u64]],
        step_limit: usize,
    ) -> Option<PlaneResult> {
        let n = columns_fit(&self.param_widths, columns)?;
        Some(self.execute(arena, n, step_limit, |j, vals, _| vals.copy_from_slice(columns[j])))
    }

    /// The one execution path behind both entry points: zeroes `n` lanes of
    /// every plane, lets `fill_param(j, vals, states)` write parameter
    /// plane `j`, broadcasts the constants and runs the steps.
    fn execute(
        &self,
        arena: &mut EvalArena,
        n: usize,
        step_limit: usize,
        mut fill_param: impl FnMut(usize, &mut [u64], &mut [u8]),
    ) -> PlaneResult {
        arena.plane_vals.clear();
        arena.plane_vals.resize(self.num_planes * n, 0);
        arena.plane_states.clear();
        arena.plane_states.resize(self.num_planes * n, 0);
        arena.plane_ub.clear();
        arena.plane_ub.resize(n, 0);
        let vals = &mut arena.plane_vals[..];
        let states = &mut arena.plane_states[..];
        let ub = &mut arena.plane_ub[..];

        // Parameter planes.
        for j in 0..self.num_params {
            let span = j * n..(j + 1) * n;
            fill_param(j, &mut vals[span.clone()], &mut states[span]);
        }
        // Constant planes (broadcast).
        for (j, &(v, st)) in self.consts.iter().enumerate() {
            let base = (self.num_params + j) * n;
            vals[base..base + n].fill(v);
            states[base..base + n].fill(st);
        }

        // Lock-step execution with the batched evaluator's step accounting:
        // instruction `j` runs only when `j + 1 <= step_limit`.
        let exec = self.steps.len().min(step_limit);
        for step in &self.steps[..exec] {
            run_step(step, vals, states, ub, n, 0..n);
        }
        // The `ret` costs one more step; if the budget does not cover the
        // whole walk, every still-live lane reports the limit.
        let total_steps = self.steps.len() + 1;
        if total_steps > step_limit {
            for slot in ub.iter_mut() {
                flag_ub(slot, UB_STEP_LIMIT);
            }
        }

        let rp = self.ret_plane as usize * n;
        PlaneResult {
            vals: vals[rp..rp + n].to_vec(),
            states: states[rp..rp + n].to_vec(),
            ub: arena.plane_ub.clone(),
            steps: total_steps,
            ret_width: self.ret_width,
        }
    }
}

/// The common lane count of `columns` when they fit `widths`: one column
/// per width of at most 64 bits, all the same length, every value
/// canonical for its width.
fn columns_fit(widths: &[u32], columns: &[&[u64]]) -> Option<usize> {
    if columns.len() != widths.len() {
        return None;
    }
    // A parameterless function still runs one lane per input; with no
    // column to count them, such a plan sweeps a single lane.
    let n = columns.first().map_or(1, |c| c.len());
    let fits = columns.iter().zip(widths).all(|(col, &w)| {
        w <= 64 && col.len() == n && col.iter().fold(0, |acc, &v| acc | v) & !mask(w) == 0
    });
    fits.then_some(n)
}

/// An append-only plane workspace for building straight-line programs one
/// instruction at a time over a fixed set of input lanes.
///
/// Where a [`PlanePlan`] lowers a whole function and runs it, a tape grows
/// one plane per push: first a plane per argument (one lane per input),
/// then constants and instructions in program order. An instruction is
/// recorded by [`binary`](Self::binary) / [`icmp`](Self::icmp) and evaluated
/// on any lane window by [`run`](Self::run) through the same kernels
/// [`PlanePlan::evaluate_lanes`] uses, so an enumerative search can try a
/// candidate instruction for one plane step and [`truncate`](Self::truncate)
/// it away again.
///
/// Every plane also carries the UB codes of the program prefix ending at
/// it: an instruction starts from the previous plane's UB lanes, so a
/// trapping lane of an earlier (even unused) instruction taints every later
/// plane, exactly as in sequential execution. Argument planes never trap;
/// a constant inherits the previous plane's UB lanes. The tape has no step
/// budget: it is meant for short chains far below the evaluators' step
/// limits. The default tape has no lanes and no planes, a buffer for
/// [`load_columns`](Self::load_columns).
#[derive(Clone, Debug, Default)]
pub struct PlaneTape {
    lanes: usize,
    widths: Vec<u32>,
    /// The recorded step of each instruction plane (`None` for arguments
    /// and constants, which are filled when pushed).
    steps: Vec<Option<PStep>>,
    vals: Vec<u64>,
    states: Vec<u8>,
    ub: Vec<u8>,
}

impl PlaneTape {
    /// A tape with one plane per parameter of width `param_widths[j]`,
    /// holding `inputs[i][j]` in lane `i`. `None` when a lane's arguments
    /// don't fit (see [`PlanePlan::accepts_args`]) or a width is not in
    /// `1..=64`.
    pub fn new(param_widths: &[u32], inputs: &[&[EvalValue]]) -> Option<PlaneTape> {
        let fits = |args: &[EvalValue]| {
            args.len() == param_widths.len()
                && args.iter().zip(param_widths).all(|(a, &w)| match a {
                    EvalValue::Int(v) => v.width() == w,
                    EvalValue::Poison | EvalValue::Undef => true,
                    _ => false,
                })
        };
        if !inputs.iter().all(|args| fits(args)) {
            return None;
        }
        let mut tape = PlaneTape::default();
        let filled = tape.fill_params(param_widths, inputs.len(), |j, vals, states| {
            for (i, args) in inputs.iter().enumerate() {
                match &args[j] {
                    EvalValue::Int(v) => vals[i] = v.zext_value() as u64,
                    EvalValue::Poison => states[i] = ST_POISON,
                    _ => states[i] = ST_UNDEF,
                }
            }
        });
        filled.then_some(tape)
    }

    /// [`new`](Self::new) from concrete argument columns, with the layout
    /// and fit rules of [`PlanePlan::evaluate_columns`]: `columns[j][i]` is
    /// lane `i`'s canonical value of parameter `j`, copied straight into
    /// the argument plane. `None` when the columns don't fit
    /// `param_widths` or a width is not in `1..=64`.
    pub fn from_columns(param_widths: &[u32], columns: &[&[u64]]) -> Option<PlaneTape> {
        let mut tape = PlaneTape::default();
        tape.load_columns(param_widths, columns).then_some(tape)
    }

    /// [`from_columns`](Self::from_columns) into this tape: every plane is
    /// dropped and the argument planes are rewritten in the kept storage,
    /// so a tape reloaded once per row of candidates allocates only to
    /// grow. `false`, with the tape unchanged, when the columns don't fit.
    pub fn load_columns(&mut self, param_widths: &[u32], columns: &[&[u64]]) -> bool {
        match columns_fit(param_widths, columns) {
            Some(n) => self.fill_params(param_widths, n, |j, vals, _| vals.copy_from_slice(columns[j])),
            None => false,
        }
    }

    /// Drops every plane and pushes one argument plane of `n` lanes per
    /// width, plane `j` written by `fill(j, vals, states)` over zeroed
    /// storage. `false`, with the tape unchanged, when a width is not in
    /// `1..=64`.
    fn fill_params(
        &mut self,
        param_widths: &[u32],
        n: usize,
        mut fill: impl FnMut(usize, &mut [u64], &mut [u8]),
    ) -> bool {
        if param_widths.iter().any(|&w| !(1..=64).contains(&w)) {
            return false;
        }
        self.truncate(0);
        self.lanes = n;
        for (j, &w) in param_widths.iter().enumerate() {
            let p = self.alloc(w, None);
            let span = p * n..(p + 1) * n;
            self.vals[span.clone()].fill(0);
            self.states[span.clone()].fill(0);
            self.ub[span.clone()].fill(0);
            fill(j, &mut self.vals[span.clone()], &mut self.states[span]);
        }
        true
    }

    /// Lanes per plane.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of planes.
    pub fn len(&self) -> usize {
        self.widths.len()
    }

    /// Whether the tape has no planes (a parameterless function).
    pub fn is_empty(&self) -> bool {
        self.widths.is_empty()
    }

    /// Plane `plane`'s bit width.
    pub fn width(&self, plane: usize) -> u32 {
        self.widths[plane]
    }

    /// Drops every plane from index `len` on. Their storage is kept for
    /// the next push, so a push–evaluate–truncate round allocates nothing.
    pub fn truncate(&mut self, len: usize) {
        self.widths.truncate(len);
        self.steps.truncate(len);
    }

    /// Appends a plane and returns its index. Reused storage keeps stale
    /// lanes; every push overwrites the lanes it evaluates.
    fn alloc(&mut self, width: u32, step: Option<PStep>) -> usize {
        let p = self.widths.len();
        self.widths.push(width);
        self.steps.push(step);
        let end = (p + 1) * self.lanes;
        if self.vals.len() < end {
            self.vals.resize(end, 0);
            self.states.resize(end, 0);
            self.ub.resize(end, 0);
        }
        p
    }

    /// Pushes `value` broadcast to every lane. `None` when it is wider than
    /// 64 bits.
    pub fn constant(&mut self, value: &ApInt) -> Option<usize> {
        let w = value.width();
        if w > 64 {
            return None;
        }
        let n = self.lanes;
        let p = self.alloc(w, None);
        self.vals[p * n..(p + 1) * n].fill(value.zext_value() as u64);
        self.states[p * n..(p + 1) * n].fill(0);
        if p > 0 {
            self.ub.copy_within((p - 1) * n..p * n, p * n);
        } else {
            self.ub[..n].fill(0);
        }
        Some(p)
    }

    /// Records `op a, b` (operands of equal width) as a new plane; no lane
    /// is evaluated until [`run`](Self::run).
    pub fn binary(&mut self, op: BinOp, flags: IntFlags, a: usize, b: usize) -> usize {
        let w = self.widths[a];
        assert_eq!(w, self.widths[b], "binary operands must share a width");
        let dst = self.len() as u32;
        let step = PStep { op: POp::Bin { op, flags, w }, a: a as u32, b: b as u32, c: UNUSED, dst };
        self.alloc(w, Some(step))
    }

    /// Records `icmp pred a, b` (operands of equal width) as a new `i1`
    /// plane; no lane is evaluated until [`run`](Self::run).
    pub fn icmp(&mut self, pred: ICmpPred, a: usize, b: usize) -> usize {
        let w = self.widths[a];
        assert_eq!(w, self.widths[b], "icmp operands must share a width");
        let dst = self.len() as u32;
        let step = PStep { op: POp::Cmp { pred, w }, a: a as u32, b: b as u32, c: UNUSED, dst };
        self.alloc(1, Some(step))
    }

    /// Evaluates instruction plane `plane` on lane window `lanes`, starting
    /// from the previous plane's UB lanes. The operands and the previous
    /// plane must already be evaluated on that window; lanes outside every
    /// evaluated window hold unspecified values. A no-op for argument and
    /// constant planes, which are complete when pushed.
    pub fn run(&mut self, plane: usize, lanes: Range<usize>) {
        let Some(step) = &self.steps[plane] else { return };
        let n = self.lanes;
        if plane > 0 {
            let from = (plane - 1) * n;
            self.ub.copy_within(from + lanes.start..from + lanes.end, plane * n + lanes.start);
        } else {
            self.ub[lanes.clone()].fill(0);
        }
        let ub = &mut self.ub[plane * n..(plane + 1) * n];
        run_step(step, &mut self.vals, &mut self.states, ub, n, lanes);
    }

    /// Plane `plane`'s lanes.
    pub fn view(&self, plane: usize) -> PlaneLanes<'_> {
        let span = plane * self.lanes..(plane + 1) * self.lanes;
        PlaneLanes {
            vals: &self.vals[span.clone()],
            states: &self.states[span.clone()],
            ub: &self.ub[span],
            width: self.widths[plane],
        }
    }
}

/// Splits plane storage at the destination plane. The compile-time layout
/// guarantees `dst` is greater than every operand plane, so operands are
/// fully inside the head slices.
#[inline(always)]
fn split_dst<'t>(
    vals: &'t mut [u64],
    states: &'t mut [u8],
    n: usize,
    dst: usize,
) -> (&'t [u64], &'t [u8], &'t mut [u64], &'t mut [u8]) {
    let (vh, vt) = vals.split_at_mut(dst * n);
    let (sh, st) = states.split_at_mut(dst * n);
    (vh, sh, &mut vt[..n], &mut st[..n])
}

/// Elementwise two-operand loop for UB-free kernels. The kernel sees only
/// concrete lanes; poison/undef operands propagate with poison dominating,
/// exactly like `elementwise2_static`.
#[inline(always)]
fn run2(
    n: usize,
    a: (&[u64], &[u8]),
    b: (&[u64], &[u8]),
    d: (&mut [u64], &mut [u8]),
    kernel: impl Fn(u64, u64) -> (u64, u8),
) {
    let ((av, asl), (bv, bsl), (dv, ds)) = (a, b, d);
    for i in 0..n {
        let s = asl[i] | bsl[i];
        if s == 0 {
            let (v, st) = kernel(av[i], bv[i]);
            dv[i] = v;
            ds[i] = st;
        } else {
            dv[i] = 0;
            ds[i] = if s & ST_POISON != 0 { ST_POISON } else { ST_UNDEF };
        }
    }
}

/// Like [`run2`] but the kernel may record per-lane UB (division/remainder).
/// The divisor lane is checked before the operand states propagate, exactly
/// like `divisor_ub`: a poison divisor is UB, and a concrete zero divisor
/// reaches the kernel (which flags it) whatever the dividend. A literal
/// `undef` divisor was lowered to a poison plane by [`PlanePlan::compile`];
/// a derived undef divisor lane propagates like any undef operand.
#[inline(always)]
fn run2_ub(
    n: usize,
    a: (&[u64], &[u8]),
    b: (&[u64], &[u8]),
    d: (&mut [u64], &mut [u8]),
    ub: &mut [u8],
    kernel: impl Fn(u64, u64, &mut u8) -> (u64, u8),
) {
    let ((av, asl), (bv, bsl), (dv, ds)) = (a, b, d);
    for i in 0..n {
        let s = asl[i] | bsl[i];
        if bsl[i] & ST_POISON != 0 {
            flag_ub(&mut ub[i], UB_POISON_DIVISOR);
            dv[i] = 0;
            ds[i] = 0;
        } else if s == 0 || (bsl[i] == 0 && bv[i] == 0) {
            let (v, st) = kernel(av[i], bv[i], &mut ub[i]);
            dv[i] = v;
            ds[i] = st;
        } else {
            dv[i] = 0;
            ds[i] = if s & ST_POISON != 0 { ST_POISON } else { ST_UNDEF };
        }
    }
}

/// Elementwise one-operand loop, mirroring `elementwise1_static`.
#[inline(always)]
fn run1(
    n: usize,
    a: (&[u64], &[u8]),
    d: (&mut [u64], &mut [u8]),
    kernel: impl Fn(u64) -> (u64, u8),
) {
    let ((av, asl), (dv, ds)) = (a, d);
    for i in 0..n {
        let s = asl[i];
        if s == 0 {
            let (v, st) = kernel(av[i]);
            dv[i] = v;
            ds[i] = st;
        } else {
            dv[i] = 0;
            ds[i] = s;
        }
    }
}

/// Elementwise three-operand loop (funnel shifts): any poison operand wins,
/// then any undef, then the kernel — the order `funnel_shift` checks in.
#[inline(always)]
fn run3(
    n: usize,
    a: (&[u64], &[u8]),
    b: (&[u64], &[u8]),
    c: (&[u64], &[u8]),
    d: (&mut [u64], &mut [u8]),
    kernel: impl Fn(u64, u64, u64) -> u64,
) {
    let ((av, asl), (bv, bsl), (cv, csl), (dv, ds)) = (a, b, c, d);
    for i in 0..n {
        let s = asl[i] | bsl[i] | csl[i];
        if s == 0 {
            dv[i] = kernel(av[i], bv[i], cv[i]);
            ds[i] = 0;
        } else {
            dv[i] = 0;
            ds[i] = if s & ST_POISON != 0 { ST_POISON } else { ST_UNDEF };
        }
    }
}

/// Executes one plane step on the lane window `lanes` of `n`-lane planes;
/// `ub` is the step's `n`-long per-lane UB array.
fn run_step(
    step: &PStep,
    vals: &mut [u64],
    states: &mut [u8],
    ub: &mut [u8],
    n: usize,
    lanes: Range<usize>,
) {
    let (lo, hi) = (lanes.start, lanes.end);
    let dst = step.dst as usize;
    let (vh, sh, dv, ds) = split_dst(vals, states, n, dst);
    let (dv, ds, ub) = (&mut dv[lo..hi], &mut ds[lo..hi], &mut ub[lo..hi]);
    let plane = |p: u32| {
        let p = p as usize * n;
        (&vh[p + lo..p + hi], &sh[p + lo..p + hi])
    };
    let n = hi - lo;
    let (av, asl) = plane(step.a);
    match &step.op {
        POp::Bin { op, flags, w } => {
            let w = *w;
            let m = mask(w);
            let f = *flags;
            let (bv, bsl) = plane(step.b);
            match op {
                BinOp::Add => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    let r = x.wrapping_add(y) & m;
                    let p = (f.nuw && (x as u128 + y as u128) > m as u128)
                        || (f.nsw && sxi(x, w) + sxi(y, w) != sxi(r, w));
                    (r, p as u8)
                }),
                BinOp::Sub => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    let r = x.wrapping_sub(y) & m;
                    let p = (f.nuw && x < y)
                        || (f.nsw && sxi(x, w) - sxi(y, w) != sxi(r, w));
                    (r, p as u8)
                }),
                BinOp::Mul => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    let full = x as u128 * y as u128;
                    let r = (full as u64) & m;
                    let p = (f.nuw && full > m as u128)
                        || (f.nsw && sxi(x, w) * sxi(y, w) != sxi(r, w));
                    (r, p as u8)
                }),
                BinOp::UDiv => run2_ub(n, (av, asl), (bv, bsl), (dv, ds), ub, |x, y, u| {
                    if y == 0 {
                        flag_ub(u, UB_DIV_ZERO);
                        (0, 0)
                    } else if f.exact && x % y != 0 {
                        (0, ST_POISON)
                    } else {
                        (x / y, 0)
                    }
                }),
                BinOp::SDiv => run2_ub(n, (av, asl), (bv, bsl), (dv, ds), ub, |x, y, u| {
                    let (sx, sy) = (sxi(x, w), sxi(y, w));
                    if y == 0 {
                        flag_ub(u, UB_DIV_ZERO);
                        (0, 0)
                    } else if sx == smin_i128(w) && sy == -1 {
                        flag_ub(u, UB_SDIV_OVERFLOW);
                        (0, 0)
                    } else if f.exact && sx % sy != 0 {
                        (0, ST_POISON)
                    } else {
                        (((sx / sy) as u64) & m, 0)
                    }
                }),
                BinOp::URem => run2_ub(n, (av, asl), (bv, bsl), (dv, ds), ub, |x, y, u| {
                    if y == 0 {
                        flag_ub(u, UB_REM_ZERO);
                        (0, 0)
                    } else {
                        (x % y, 0)
                    }
                }),
                BinOp::SRem => run2_ub(n, (av, asl), (bv, bsl), (dv, ds), ub, |x, y, u| {
                    let (sx, sy) = (sxi(x, w), sxi(y, w));
                    if y == 0 {
                        flag_ub(u, UB_REM_ZERO);
                        (0, 0)
                    } else if sx == smin_i128(w) && sy == -1 {
                        flag_ub(u, UB_SREM_OVERFLOW);
                        (0, 0)
                    } else {
                        (((sx % sy) as u64) & m, 0)
                    }
                }),
                BinOp::Shl => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    if y >= w as u64 {
                        return (0, ST_POISON);
                    }
                    let r = (x << y) & m;
                    let p = (f.nuw && (r >> y) != x)
                        || (f.nsw && (((sx64(r, w) >> y) as u64) & m) != x);
                    (r, p as u8)
                }),
                BinOp::LShr => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    if y >= w as u64 {
                        return (0, ST_POISON);
                    }
                    let r = x >> y;
                    (r, (f.exact && ((r << y) & m) != x) as u8)
                }),
                BinOp::AShr => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    if y >= w as u64 {
                        return (0, ST_POISON);
                    }
                    let r = ((sx64(x, w) >> y) as u64) & m;
                    (r, (f.exact && ((r << y) & m) != x) as u8)
                }),
                BinOp::And => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| (x & y, 0)),
                BinOp::Or => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    if f.disjoint && x & y != 0 {
                        (0, ST_POISON)
                    } else {
                        (x | y, 0)
                    }
                }),
                BinOp::Xor => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| (x ^ y, 0)),
            }
        }
        POp::Cmp { pred, w } => {
            let w = *w;
            let (bv, bsl) = plane(step.b);
            macro_rules! cmp {
                ($test:expr) => {
                    run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| (($test)(x, y) as u64, 0))
                };
            }
            match pred {
                ICmpPred::Eq => cmp!(|x, y| x == y),
                ICmpPred::Ne => cmp!(|x, y| x != y),
                ICmpPred::Ugt => cmp!(|x, y| x > y),
                ICmpPred::Uge => cmp!(|x, y| x >= y),
                ICmpPred::Ult => cmp!(|x, y| x < y),
                ICmpPred::Ule => cmp!(|x, y| x <= y),
                ICmpPred::Sgt => cmp!(|x, y| sx64(x, w) > sx64(y, w)),
                ICmpPred::Sge => cmp!(|x, y| sx64(x, w) >= sx64(y, w)),
                ICmpPred::Slt => cmp!(|x, y| sx64(x, w) < sx64(y, w)),
                ICmpPred::Sle => cmp!(|x, y| sx64(x, w) <= sx64(y, w)),
            }
        }
        POp::Sel => {
            let (tv, tsl) = plane(step.b);
            let (fv, fsl) = plane(step.c);
            for i in 0..n {
                let cs = asl[i];
                let (v, st) = if cs & ST_POISON != 0 {
                    (0, ST_POISON)
                } else if cs != 0 {
                    (0, ST_UNDEF)
                } else if av[i] & 1 != 0 {
                    (tv[i], tsl[i])
                } else {
                    (fv[i], fsl[i])
                };
                dv[i] = v;
                ds[i] = st;
            }
        }
        POp::Cast { op, flags, from_w, to_w } => {
            let (fw, tw) = (*from_w, *to_w);
            let f = *flags;
            match op {
                CastOp::Trunc => {
                    let fm = mask(fw);
                    let tm = mask(tw);
                    run1(n, (av, asl), (dv, ds), |x| {
                        let r = x & tm;
                        let p = (f.nuw && r != x)
                            || (f.nsw && ((sx64(r, tw) as u64) & fm) != x);
                        (r, p as u8)
                    })
                }
                CastOp::ZExt => run1(n, (av, asl), (dv, ds), |x| {
                    (x, (f.nneg && sx64(x, fw) < 0) as u8)
                }),
                CastOp::SExt => {
                    let tm = mask(tw);
                    run1(n, (av, asl), (dv, ds), |x| (((sx64(x, fw) as u64) & tm), 0))
                }
                _ => unreachable!("excluded at compile time"),
            }
        }
        POp::Intr2 { intr, w } => {
            let w = *w;
            let m = mask(w);
            let (bv, bsl) = plane(step.b);
            match intr {
                Intrinsic::Umin => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| (x.min(y), 0)),
                Intrinsic::Umax => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| (x.max(y), 0)),
                Intrinsic::Smin => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    (if sx64(x, w) <= sx64(y, w) { x } else { y }, 0)
                }),
                Intrinsic::Smax => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    (if sx64(x, w) >= sx64(y, w) { x } else { y }, 0)
                }),
                Intrinsic::UaddSat => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    let s = x as u128 + y as u128;
                    (if s > m as u128 { m } else { s as u64 }, 0)
                }),
                Intrinsic::SaddSat => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    (clamp_s(sxi(x, w) + sxi(y, w), w), 0)
                }),
                Intrinsic::UsubSat => {
                    run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| (x.saturating_sub(y), 0))
                }
                Intrinsic::SsubSat => run2(n, (av, asl), (bv, bsl), (dv, ds), |x, y| {
                    (clamp_s(sxi(x, w) - sxi(y, w), w), 0)
                }),
                _ => unreachable!("excluded at compile time"),
            }
        }
        POp::IntrFlag { intr, w, flag } => {
            let w = *w;
            let m = mask(w);
            let flag = *flag;
            match intr {
                Intrinsic::Abs => {
                    let smin_bits = 1u64 << (w - 1);
                    run1(n, (av, asl), (dv, ds), |x| {
                        if flag && x == smin_bits {
                            (0, ST_POISON)
                        } else if sx64(x, w) < 0 {
                            (x.wrapping_neg() & m, 0)
                        } else {
                            (x, 0)
                        }
                    })
                }
                Intrinsic::Ctlz => run1(n, (av, asl), (dv, ds), |x| {
                    if flag && x == 0 {
                        (0, ST_POISON)
                    } else {
                        ((x.leading_zeros() - (64 - w)) as u64, 0)
                    }
                }),
                Intrinsic::Cttz => run1(n, (av, asl), (dv, ds), |x| {
                    if flag && x == 0 {
                        (0, ST_POISON)
                    } else if x == 0 {
                        (w as u64, 0)
                    } else {
                        (x.trailing_zeros() as u64, 0)
                    }
                }),
                _ => unreachable!("excluded at compile time"),
            }
        }
        POp::Intr1 { intr, w } => {
            let w = *w;
            match intr {
                Intrinsic::Ctpop => {
                    run1(n, (av, asl), (dv, ds), |x| (x.count_ones() as u64, 0))
                }
                Intrinsic::Bswap => {
                    run1(n, (av, asl), (dv, ds), |x| (x.swap_bytes() >> (64 - w), 0))
                }
                Intrinsic::Bitreverse => {
                    run1(n, (av, asl), (dv, ds), |x| (x.reverse_bits() >> (64 - w), 0))
                }
                _ => unreachable!("excluded at compile time"),
            }
        }
        POp::Funnel { fshr, w } => {
            let w = *w;
            let m = mask(w);
            let fshr = *fshr;
            let (bv, bsl) = plane(step.b);
            let (cv, csl) = plane(step.c);
            run3(n, (av, asl), (bv, bsl), (cv, csl), (dv, ds), |x, y, amt| {
                let am = amt % w as u64;
                if fshr {
                    if am == 0 { y } else { ((y >> am) | (x << (w as u64 - am))) & m }
                } else if am == 0 {
                    x
                } else {
                    ((x << am) | (y >> (w as u64 - am))) & m
                }
            })
        }
        POp::Freeze => {
            for i in 0..n {
                dv[i] = if asl[i] != 0 { 0 } else { av[i] };
                ds[i] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledFunction;
    use lpo_ir::parser::parse_function;

    fn plan(text: &str) -> Option<PlanePlan> {
        PlanePlan::compile(&parse_function(text).unwrap())
    }

    #[test]
    fn eligibility_boundaries() {
        // Straight-line scalar int: eligible.
        assert!(plan("define i8 @f(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").is_some());
        // Wide integers are not.
        assert!(plan("define i128 @f(i128 %x) {\n ret i128 %x\n}").is_none());
        // Memory is not.
        assert!(plan("define i32 @f(ptr %p) {\n %v = load i32, ptr %p, align 4\n ret i32 %v\n}").is_none());
        // Vectors are not.
        assert!(plan("define <2 x i8> @f(<2 x i8> %x) {\n ret <2 x i8> %x\n}").is_none());
        // Control flow is not.
        assert!(plan(
            "define i8 @f(i1 %c) {\nentry:\n br i1 %c, label %a, label %b\na:\n ret i8 1\nb:\n ret i8 2\n}"
        )
        .is_none());
        // Floats are not.
        assert!(plan("define double @f(double %x) {\n ret double %x\n}").is_none());
    }

    #[test]
    fn plane_matches_batch_on_exhaustive_i8() {
        let f = parse_function(
            "define i8 @f(i8 %x, i8 %y) {\n\
             %d = sdiv i8 %x, %y\n\
             %s = add nsw i8 %d, %y\n\
             %c = icmp slt i8 %s, %x\n\
             %r = select i1 %c, i8 %s, i8 %x\n\
             ret i8 %r\n}",
        )
        .unwrap();
        let compiled = CompiledFunction::compile(&f);
        let plan = compiled.plane().expect("eligible");
        let mut arena = EvalArena::new();
        let args: Vec<[EvalValue; 2]> = (0..=255u8)
            .flat_map(|x| (0..=255u8).step_by(17).map(move |y| {
                [EvalValue::int(8, x as u128), EvalValue::int(8, y as u128)]
            }))
            .collect();
        let refs: Vec<&[EvalValue]> = args.iter().map(|a| a.as_slice()).collect();
        let result = plan.evaluate_lanes(&mut arena, &refs, 1 << 14).unwrap();
        let lanes: Vec<(&[EvalValue], Memory)> =
            args.iter().map(|a| (a.as_slice(), Memory::new())).collect();
        let batch = compiled.evaluate_batch_with_limit(&mut EvalArena::new(), lanes, 1 << 14);
        for (i, expect) in batch.into_iter().enumerate() {
            assert_eq!(result.outcome(i, Memory::new()), expect, "lane {i}");
        }
    }

    #[test]
    fn ub_lane_does_not_poison_neighbours() {
        let f = parse_function("define i8 @f(i8 %x) {\n %r = udiv i8 10, %x\n ret i8 %r\n}").unwrap();
        let plan = PlanePlan::compile(&f).unwrap();
        let args =
            [[EvalValue::int(8, 2)], [EvalValue::int(8, 0)], [EvalValue::int(8, 5)]];
        let refs: Vec<&[EvalValue]> = args.iter().map(|a| a.as_slice()).collect();
        let r = plan.evaluate_lanes(&mut EvalArena::new(), &refs, 100).unwrap();
        assert_eq!(r.raw(0), 5);
        assert!(r.is_ub(1));
        assert_eq!(r.ub_message(1), Some("division by zero"));
        assert_eq!(r.raw(2), 2);
        assert!(!r.is_ub(0) && !r.is_ub(2));
    }

    #[test]
    fn poison_or_undef_divisor_lanes_are_ub_on_every_evaluator() {
        let ints = |v: u128| EvalValue::int(8, v);
        let values = [ints(7), ints(0), EvalValue::Poison, EvalValue::Undef];
        let args: Vec<[EvalValue; 2]> = values
            .iter()
            .flat_map(|x| values.iter().map(move |y| [x.clone(), y.clone()]))
            .collect();
        let refs: Vec<&[EvalValue]> = args.iter().map(|a| a.as_slice()).collect();
        for op in ["udiv", "sdiv", "urem", "srem"] {
            // `%y` is an argument: an undef lane of it is a taint, not UB.
            // The literal divisors are known to be poison, undef or zero.
            for divisor in ["%y", "poison", "undef", "0"] {
                let text = format!(
                    "define i8 @f(i8 %x, i8 %y) {{\n %r = {op} i8 %x, {divisor}\n ret i8 %r\n}}"
                );
                let f = parse_function(&text).unwrap();
                let compiled = CompiledFunction::compile(&f);
                let plan = compiled.plane().expect("eligible");
                let planes = plan.evaluate_lanes(&mut EvalArena::new(), &refs, 100).unwrap();
                let lanes = args.iter().map(|a| (a.as_slice(), Memory::new())).collect();
                let batch = compiled.evaluate_batch_with_limit(&mut EvalArena::new(), lanes, 100);
                for (i, lane) in args.iter().enumerate() {
                    let reference = crate::eval::evaluate_reference(&f, lane, Memory::new(), 100);
                    assert_eq!(planes.outcome(i, Memory::new()), reference, "{text} lane {i}");
                    assert_eq!(batch[i], reference, "{text} lane {i}");
                    let zero =
                        if op.ends_with("div") { "division by zero" } else { "remainder by zero" };
                    let expected = match divisor {
                        "poison" | "undef" => Some(POISON_DIVISOR),
                        "0" => Some(zero),
                        _ => match &lane[1] {
                            EvalValue::Poison => Some(POISON_DIVISOR),
                            y if *y == ints(0) => Some(zero),
                            _ => None,
                        },
                    };
                    assert_eq!(planes.ub_message(i), expected, "{text} lane {i}");
                }
            }
        }
    }

    #[test]
    fn step_limit_matches_batch() {
        let f = parse_function(
            "define i8 @f(i8 %x) {\n %a = add i8 %x, 1\n %b = add i8 %a, 1\n ret i8 %b\n}",
        )
        .unwrap();
        let compiled = CompiledFunction::compile(&f);
        let plan = compiled.plane().unwrap();
        let args = [[EvalValue::int(8, 1)]];
        let refs: Vec<&[EvalValue]> = args.iter().map(|a| a.as_slice()).collect();
        for limit in 0..5 {
            let r = plan.evaluate_lanes(&mut EvalArena::new(), &refs, limit).unwrap();
            let batch = compiled.evaluate_batch_with_limit(
                &mut EvalArena::new(),
                vec![(args[0].as_slice(), Memory::new())],
                limit,
            );
            assert_eq!(r.outcome(0, Memory::new()), batch[0].clone(), "limit {limit}");
        }
    }

    #[test]
    fn poison_and_undef_args_flow_through() {
        let f = parse_function("define i8 @f(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();
        let plan = PlanePlan::compile(&f).unwrap();
        let args = [[EvalValue::Poison], [EvalValue::Undef], [EvalValue::int(8, 3)]];
        let refs: Vec<&[EvalValue]> = args.iter().map(|a| a.as_slice()).collect();
        let r = plan.evaluate_lanes(&mut EvalArena::new(), &refs, 100).unwrap();
        assert!(r.is_poison(0));
        assert!(r.is_undef(1));
        assert_eq!(r.raw(2), 4);
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let f = parse_function("define i8 @f(i8 %x) {\n ret i8 %x\n}").unwrap();
        let plan = PlanePlan::compile(&f).unwrap();
        let wrong_width = [[EvalValue::int(16, 3)]];
        let refs: Vec<&[EvalValue]> = wrong_width.iter().map(|a| a.as_slice()).collect();
        assert!(plan.evaluate_lanes(&mut EvalArena::new(), &refs, 100).is_none());
        let wrong_arity: [&[EvalValue]; 1] = [&[]];
        assert!(plan.evaluate_lanes(&mut EvalArena::new(), &wrong_arity, 100).is_none());
    }

    #[test]
    fn mismatched_columns_are_rejected() {
        let f = parse_function("define i8 @f(i8 %x, i8 %y) {\n %r = add i8 %x, %y\n ret i8 %r\n}")
            .unwrap();
        let plan = PlanePlan::compile(&f).unwrap();
        let run = |columns: &[&[u64]]| plan.evaluate_columns(&mut EvalArena::new(), columns, 100);
        let r = run(&[&[1, 255], &[2, 1]]).expect("canonical columns fit");
        assert_eq!((r.raw(0), r.raw(1)), (3, 0));
        // Wrong count, unequal lengths, and bits above the width.
        assert!(run(&[&[1, 2]]).is_none());
        assert!(run(&[&[1, 2], &[3]]).is_none());
        assert!(run(&[&[1, 256], &[2, 1]]).is_none());
        // The tape applies the same rules, plus its 1..=64 width range.
        assert!(PlaneTape::from_columns(&[8, 8], &[&[1, 2], &[3]]).is_none());
        assert!(PlaneTape::from_columns(&[8], &[&[256]]).is_none());
        assert!(PlaneTape::from_columns(&[65], &[&[1]]).is_none());
        assert!(PlaneTape::from_columns(&[0], &[&[0]]).is_none());
        assert_eq!(PlaneTape::from_columns(&[8, 1], &[&[7, 9], &[1, 0]]).unwrap().lanes(), 2);
    }

    /// A tape reloaded over storage that held poison, undef and UB lanes
    /// evaluates like a fresh one; a load that doesn't fit changes nothing.
    #[test]
    fn reloaded_tape_matches_a_fresh_one() {
        let (poison, undef, zero) = (EvalValue::Poison, EvalValue::Undef, EvalValue::int(8, 0));
        let rows: [&[EvalValue]; 4] =
            [&[poison, zero.clone()], &[undef, zero.clone()], &[zero.clone(), zero.clone()], &[zero.clone(), zero]];
        let mut tape = PlaneTape::new(&[8, 8], &rows).unwrap();
        let stale = tape.binary(BinOp::UDiv, IntFlags::none(), 0, 1);
        tape.run(stale, 0..4);
        assert!(tape.view(stale).is_ub(3));

        let columns: [&[u64]; 2] = [&[6, 7, 8], &[3, 0, 2]];
        assert!(tape.load_columns(&[8, 8], &columns));
        let mut fresh = PlaneTape::from_columns(&[8, 8], &columns).unwrap();
        for t in [&mut tape, &mut fresh] {
            let q = t.binary(BinOp::UDiv, IntFlags::none(), 0, 1);
            t.run(q, 0..3);
        }
        assert_eq!((tape.len(), tape.lanes(), tape.width(2)), (3, 3, 8));
        for plane in 0..3 {
            for lane in 0..3 {
                let (got, want) = (tape.view(plane).value(lane), fresh.view(plane).value(lane));
                assert_eq!(got, want, "plane {plane} lane {lane}");
            }
        }
        assert!(tape.view(2).is_ub(1) && !tape.view(2).is_ub(0));

        assert!(!tape.load_columns(&[8], &[&[256]]));
        assert_eq!((tape.len(), tape.lanes()), (3, 3), "a failed load leaves the tape as it was");
    }
}
