//! Concrete evaluation of IR functions with LLVM's poison/undef semantics.
//!
//! The evaluator executes a function on concrete argument values and an
//! initial [`Memory`]. It distinguishes three kinds of "bad" outcomes exactly
//! the way the refinement relation needs them:
//!
//! * **immediate undefined behaviour** ([`Ub`]): division by zero or by a
//!   poison or literal `undef` divisor, branching on poison, out-of-bounds
//!   or null dereferences — once the source function exhibits UB on an
//!   input, any target behaviour refines it;
//! * **poison**: a deferred error value that propagates through data flow;
//! * **undef**: an unspecified but fixed bit pattern (modelled
//!   conservatively: it propagates like a tainted value and the refinement
//!   checker treats a source `undef` result as "any target value is allowed").

use crate::memory::Memory;
use crate::value::{EvalValue, PtrValue};
use lpo_ir::apint::ApInt;
use lpo_ir::constant::Constant;
use lpo_ir::flags::{FastMathFlags, IntFlags};
use lpo_ir::function::Function;
use lpo_ir::instruction::{
    BinOp, BlockId, CastOp, FBinOp, FCmpPred, ICmpPred, InstId, InstKind, Intrinsic, Value,
};
use lpo_ir::types::{FloatKind, Type};
use std::borrow::Cow;
use std::collections::HashMap;

/// Immediate undefined behaviour encountered during evaluation.
///
/// The message is a [`Cow`] so the fixed diagnostics on the interpreter's hot
/// path (`division by zero`, flag violations, …) are `&'static str`s — a
/// UB-heavy fuzzing run no longer allocates a `String` per failing input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ub {
    /// What went wrong, e.g. `division by zero`.
    pub message: Cow<'static, str>,
}

impl Ub {
    pub(crate) fn new(message: impl Into<Cow<'static, str>>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for Ub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "undefined behaviour: {}", self.message)
    }
}

impl std::error::Error for Ub {}

/// The observable outcome of running a function on one input.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalOutcome {
    /// The returned value (`None` for `void` functions).
    pub result: Option<EvalValue>,
    /// The final memory state.
    pub memory: Memory,
    /// How many instructions were executed (for throughput accounting).
    pub steps: usize,
}

/// Default limit on executed instructions, to bound loops.
pub const DEFAULT_STEP_LIMIT: usize = 4096;

/// Evaluates `func` on `args` with the given initial memory.
///
/// This compiles the function once (see
/// [`CompiledFunction`](crate::compiled::CompiledFunction)) and runs it on a
/// fresh register file. Callers that evaluate the same function on many
/// inputs should compile once and reuse an
/// [`EvalArena`](crate::compiled::EvalArena) instead.
///
/// # Errors
///
/// Returns [`Ub`] if the execution encounters immediate undefined behaviour or
/// exceeds `step_limit` executed instructions.
pub fn evaluate(
    func: &Function,
    args: &[EvalValue],
    memory: Memory,
    step_limit: usize,
) -> Result<EvalOutcome, Ub> {
    crate::compiled::CompiledFunction::compile(func).evaluate_with_limit(
        &mut crate::compiled::EvalArena::new(),
        args,
        memory,
        step_limit,
    )
}

/// Evaluates with [`DEFAULT_STEP_LIMIT`].
///
/// # Errors
///
/// See [`evaluate`].
pub fn evaluate_default(func: &Function, args: &[EvalValue], memory: Memory) -> Result<EvalOutcome, Ub> {
    evaluate(func, args, memory, DEFAULT_STEP_LIMIT)
}

/// The straightforward walk-the-IR evaluator: one `HashMap` environment,
/// instructions re-decoded on every executed step.
///
/// This is the pre-register-file implementation, kept verbatim as the
/// semantic ground truth: the differential test suite checks the compiled
/// evaluator against it over the whole corpus, and `repro bench-interp` uses
/// it as the baseline its speedup is measured against.
///
/// # Errors
///
/// See [`evaluate`].
pub fn evaluate_reference(
    func: &Function,
    args: &[EvalValue],
    memory: Memory,
    step_limit: usize,
) -> Result<EvalOutcome, Ub> {
    Evaluator { func, args, memory, env: HashMap::new(), steps: 0, step_limit }.run()
}

struct Evaluator<'a> {
    func: &'a Function,
    args: &'a [EvalValue],
    memory: Memory,
    env: HashMap<InstId, EvalValue>,
    steps: usize,
    step_limit: usize,
}

enum Control {
    Continue,
    Jump(BlockId),
    Return(Option<EvalValue>),
}

impl<'a> Evaluator<'a> {
    fn run(mut self) -> Result<EvalOutcome, Ub> {
        if self.args.len() != self.func.params.len() {
            return Err(Ub::new(format!(
                "called with {} arguments but the function has {} parameters",
                self.args.len(),
                self.func.params.len()
            )));
        }
        let mut current = self.func.entry();
        let mut previous: Option<BlockId> = None;
        loop {
            match self.run_block(current, previous)? {
                Control::Return(v) => {
                    return Ok(EvalOutcome { result: v, memory: self.memory, steps: self.steps });
                }
                Control::Jump(next) => {
                    previous = Some(current);
                    current = next;
                }
                Control::Continue => {
                    return Err(Ub::new("basic block fell through without a terminator"));
                }
            }
        }
    }

    fn run_block(&mut self, block: BlockId, previous: Option<BlockId>) -> Result<Control, Ub> {
        // Phi nodes read their incoming values "in parallel" on block entry.
        let mut phi_values: Vec<(InstId, EvalValue)> = Vec::new();
        for &inst_id in &self.func.block(block).insts {
            if let InstKind::Phi { incoming } = &self.func.inst(inst_id).kind {
                let prev = previous.ok_or_else(|| Ub::new("phi executed in the entry block"))?;
                let entry = incoming
                    .iter()
                    .find(|(_, bb)| *bb == prev)
                    .ok_or_else(|| Ub::new("phi has no entry for the executed predecessor"))?;
                phi_values.push((inst_id, self.value(&entry.0)?));
            }
        }
        for (id, v) in phi_values {
            self.env.insert(id, v);
        }

        for &inst_id in &self.func.block(block).insts {
            self.steps += 1;
            if self.steps > self.step_limit {
                return Err(Ub::new("execution step limit exceeded"));
            }
            let inst = self.func.inst(inst_id);
            match &inst.kind {
                InstKind::Phi { .. } => {}
                InstKind::Ret { value } => {
                    let v = match value {
                        Some(v) => Some(self.value(v)?),
                        None => None,
                    };
                    return Ok(Control::Return(v));
                }
                InstKind::Br { cond, then_block, else_block } => {
                    return match cond {
                        None => Ok(Control::Jump(*then_block)),
                        Some(c) => {
                            let cv = self.value(c)?;
                            match cv.as_bool() {
                                Some(true) => Ok(Control::Jump(*then_block)),
                                Some(false) => Ok(Control::Jump(else_block.expect("verified"))),
                                None => Err(Ub::new("branch on a poison or undef condition")),
                            }
                        }
                    };
                }
                InstKind::Unreachable => {
                    return Err(Ub::new("executed an unreachable instruction"));
                }
                _ => {
                    let v = self.eval_inst(inst_id)?;
                    self.env.insert(inst_id, v);
                }
            }
        }
        Ok(Control::Continue)
    }

    fn value(&self, v: &Value) -> Result<EvalValue, Ub> {
        Ok(match v {
            Value::Arg(i) => self
                .args
                .get(*i)
                .cloned()
                .ok_or_else(|| Ub::new(format!("argument #{i} out of range")))?,
            Value::Inst(id) => self
                .env
                .get(id)
                .cloned()
                .ok_or_else(|| Ub::new("use of a value before it is defined"))?,
            Value::Const(c) => EvalValue::from_constant(c),
        })
    }

    fn eval_inst(&mut self, id: InstId) -> Result<EvalValue, Ub> {
        let inst = self.func.inst(id).clone();
        match &inst.kind {
            InstKind::Binary { op, lhs, rhs, flags } => {
                let a = self.value(lhs)?;
                let b = self.value(rhs)?;
                if let Some(ub) = divisor_ub(*op, &b, matches!(rhs, Value::Const(_))) {
                    return Err(ub);
                }
                elementwise2(&a, &b, &mut |x, y| eval_binop(*op, x, y, flags))
            }
            InstKind::FBinary { op, lhs, rhs, fmf } => {
                let a = self.value(lhs)?;
                let b = self.value(rhs)?;
                elementwise2(&a, &b, &mut |x, y| eval_fbinop(*op, fmf, x, y))
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                let a = self.value(lhs)?;
                let b = self.value(rhs)?;
                elementwise2(&a, &b, &mut |x, y| eval_icmp(*pred, x, y))
            }
            InstKind::FCmp { pred, lhs, rhs } => {
                let a = self.value(lhs)?;
                let b = self.value(rhs)?;
                elementwise2(&a, &b, &mut |x, y| {
                    match (x.as_float(), y.as_float()) {
                        (Some(xa), Some(ya)) => Ok(EvalValue::bool(eval_fcmp(*pred, xa, ya))),
                        _ => Ok(EvalValue::Poison),
                    }
                })
            }
            InstKind::Select { cond, on_true, on_false } => {
                let c = self.value(cond)?;
                let t = self.value(on_true)?;
                let f = self.value(on_false)?;
                eval_select(&c, &t, &f)
            }
            InstKind::Cast { op, value, flags } => {
                let v = self.value(value)?;
                let to_scalar = inst.ty.scalar_type().clone();
                elementwise1(&v, &mut |x| eval_cast(*op, x, &to_scalar, flags))
            }
            InstKind::Call { intrinsic, args, .. } => {
                let vals: Vec<EvalValue> =
                    args.iter().map(|a| self.value(a)).collect::<Result<_, _>>()?;
                eval_intrinsic(*intrinsic, &vals)
            }
            InstKind::Load { ptr, .. } => {
                let p = self.value(ptr)?;
                eval_load(&p, &inst.ty, &self.memory)
            }
            InstKind::Store { value, ptr, .. } => {
                let v = self.value(value)?;
                let p = self.value(ptr)?;
                let vty = self.func.value_type(value);
                eval_store(&v, &p, &vty, &mut self.memory)
            }
            InstKind::Gep { elem_ty, base, index, inbounds, nuw } => {
                let b = self.value(base)?;
                let i = self.value(index)?;
                eval_gep(&b, &i, elem_ty.size_in_bytes() as i64, *inbounds, *nuw, &self.memory)
            }
            InstKind::Alloca { ty } => {
                let id = self.memory.allocate_zeroed(ty.size_in_bytes() as usize);
                Ok(EvalValue::Ptr(PtrValue { alloc: id, offset: 0 }))
            }
            InstKind::ExtractElement { vector, index } => {
                let v = self.value(vector)?;
                let i = self.value(index)?;
                eval_extractelement(&v, &i)
            }
            InstKind::InsertElement { vector, element, index } => {
                let v = self.value(vector)?;
                let e = self.value(element)?;
                let i = self.value(index)?;
                eval_insertelement(&v, e, &i, inst.ty.lanes().unwrap_or(1) as usize)
            }
            InstKind::ShuffleVector { a, b, mask } => {
                let av = self.value(a)?;
                let bv = self.value(b)?;
                eval_shufflevector(&av, &bv, mask)
            }
            InstKind::Freeze { value } => {
                let v = self.value(value)?;
                Ok(freeze(&v, &inst.ty))
            }
            InstKind::Phi { .. } | InstKind::Ret { .. } | InstKind::Br { .. } | InstKind::Unreachable => {
                unreachable!("handled by run_block")
            }
        }
    }

}

/// Evaluates a `select` over already-evaluated operands (shared by the
/// reference and the compiled evaluator).
pub(crate) fn eval_select(c: &EvalValue, t: &EvalValue, f: &EvalValue) -> Result<EvalValue, Ub> {
    match c {
        EvalValue::Poison => Ok(EvalValue::Poison),
        EvalValue::Undef => Ok(EvalValue::Undef),
        EvalValue::Int(v) if v.width() == 1 => Ok(if v.as_bool() { t.clone() } else { f.clone() }),
        EvalValue::Vector(conds) => {
            let tl = t.lanes().map(<[EvalValue]>::to_vec).unwrap_or_default();
            let fl = f.lanes().map(<[EvalValue]>::to_vec).unwrap_or_default();
            let mut out = Vec::with_capacity(conds.len());
            for (i, cl) in conds.iter().enumerate() {
                let tv = tl.get(i).cloned().unwrap_or(EvalValue::Poison);
                let fv = fl.get(i).cloned().unwrap_or(EvalValue::Poison);
                out.push(match cl.as_bool() {
                    Some(true) => tv,
                    Some(false) => fv,
                    None => {
                        if cl.is_poison() {
                            EvalValue::Poison
                        } else {
                            EvalValue::Undef
                        }
                    }
                });
            }
            Ok(EvalValue::Vector(out))
        }
        _ => Err(Ub::new("select condition is not i1")),
    }
}

/// Evaluates a floating-point binop with fast-math poison semantics (shared
/// by the reference and the compiled evaluator).
pub(crate) fn eval_fbinop(
    op: FBinOp,
    fmf: &FastMathFlags,
    x: &EvalValue,
    y: &EvalValue,
) -> Result<EvalValue, Ub> {
    let (xa, ya) = match (x.as_float(), y.as_float()) {
        (Some(xa), Some(ya)) => (xa, ya),
        _ => return Ok(EvalValue::Poison),
    };
    if (fmf.nnan && (xa.is_nan() || ya.is_nan()))
        || (fmf.ninf && (xa.is_infinite() || ya.is_infinite()))
    {
        return Ok(EvalValue::Poison);
    }
    let r = match op {
        FBinOp::FAdd => xa + ya,
        FBinOp::FSub => xa - ya,
        FBinOp::FMul => xa * ya,
        FBinOp::FDiv => xa / ya,
        FBinOp::FRem => xa % ya,
    };
    if (fmf.nnan && r.is_nan()) || (fmf.ninf && r.is_infinite()) {
        return Ok(EvalValue::Poison);
    }
    let kind = match x {
        EvalValue::Float(k, _) => *k,
        _ => FloatKind::Double,
    };
    Ok(EvalValue::Float(kind, round_to(kind, r)))
}

/// Evaluates a `load` over an already-evaluated pointer (shared by the
/// reference and the compiled evaluator).
pub(crate) fn eval_load(p: &EvalValue, ty: &Type, memory: &Memory) -> Result<EvalValue, Ub> {
    let p = match p {
        EvalValue::Ptr(p) => *p,
        EvalValue::Poison | EvalValue::Undef => {
            return Err(Ub::new("load through a poison or undef pointer"))
        }
        _ => return Err(Ub::new("load through a non-pointer value")),
    };
    memory.load(p, ty).map_err(|e| Ub::new(e.message))
}

/// Evaluates a `store` over already-evaluated operands; `vty` is the stored
/// value's type (shared by the reference and the compiled evaluator).
pub(crate) fn eval_store(
    v: &EvalValue,
    p: &EvalValue,
    vty: &Type,
    memory: &mut Memory,
) -> Result<EvalValue, Ub> {
    let p = match p {
        EvalValue::Ptr(p) => *p,
        EvalValue::Poison | EvalValue::Undef => {
            return Err(Ub::new("store through a poison or undef pointer"))
        }
        _ => return Err(Ub::new("store through a non-pointer value")),
    };
    memory.store(p, v, vty).map_err(|e| Ub::new(e.message))?;
    Ok(EvalValue::Undef) // store has no result; the slot is never read
}

/// Evaluates a `getelementptr` over already-evaluated operands; `elem_size`
/// is the element type's size in bytes (shared by the reference and the
/// compiled evaluator).
pub(crate) fn eval_gep(
    b: &EvalValue,
    i: &EvalValue,
    elem_size: i64,
    inbounds: bool,
    nuw: bool,
    memory: &Memory,
) -> Result<EvalValue, Ub> {
    if b.is_poison() || i.is_poison() {
        return Ok(EvalValue::Poison);
    }
    let base_ptr = match b {
        EvalValue::Ptr(p) => *p,
        _ => return Ok(EvalValue::Poison),
    };
    let idx = match i.as_int() {
        Some(v) => v.sext_value() as i64,
        None => return Ok(EvalValue::Poison),
    };
    if nuw && idx < 0 {
        return Ok(EvalValue::Poison);
    }
    let offset = base_ptr.offset.wrapping_add(idx.wrapping_mul(elem_size));
    if inbounds {
        let alloc_size = memory.allocation(base_ptr.alloc).map(|a| a.size() as i64).unwrap_or(0);
        if offset < 0 || offset > alloc_size {
            return Ok(EvalValue::Poison);
        }
    }
    Ok(EvalValue::Ptr(PtrValue { alloc: base_ptr.alloc, offset }))
}

/// Evaluates an `extractelement` over already-evaluated operands (shared by
/// the reference and the compiled evaluator).
pub(crate) fn eval_extractelement(v: &EvalValue, i: &EvalValue) -> Result<EvalValue, Ub> {
    if v.is_poison() && !matches!(v, EvalValue::Vector(_)) {
        return Ok(EvalValue::Poison);
    }
    let idx = match i.as_int() {
        Some(x) => x.zext_value() as usize,
        None => return Ok(EvalValue::Poison),
    };
    match v.lanes() {
        Some(lanes) => Ok(lanes.get(idx).cloned().unwrap_or(EvalValue::Poison)),
        None => Ok(EvalValue::Poison),
    }
}

/// Evaluates an `insertelement` over already-evaluated operands;
/// `lanes_count` is the result type's lane count (shared by the reference
/// and the compiled evaluator).
pub(crate) fn eval_insertelement(
    v: &EvalValue,
    e: EvalValue,
    i: &EvalValue,
    lanes_count: usize,
) -> Result<EvalValue, Ub> {
    let mut lanes: Vec<EvalValue> = match v.lanes() {
        Some(l) => l.to_vec(),
        None => {
            vec![if v.is_poison() { EvalValue::Poison } else { EvalValue::Undef }; lanes_count]
        }
    };
    let idx = match i.as_int() {
        Some(x) => x.zext_value() as usize,
        None => return Ok(EvalValue::Poison),
    };
    if idx >= lanes.len() {
        return Ok(EvalValue::Poison);
    }
    lanes[idx] = e;
    Ok(EvalValue::Vector(lanes))
}

/// Evaluates a `shufflevector` over already-evaluated operands (shared by
/// the reference and the compiled evaluator).
pub(crate) fn eval_shufflevector(
    a: &EvalValue,
    b: &EvalValue,
    mask: &[i32],
) -> Result<EvalValue, Ub> {
    let lanes_a = a.lanes().map(<[EvalValue]>::to_vec).unwrap_or_default();
    let lanes_b = b.lanes().map(<[EvalValue]>::to_vec).unwrap_or_default();
    let n = lanes_a.len();
    let mut out = Vec::with_capacity(mask.len());
    for &m in mask {
        if m < 0 {
            out.push(EvalValue::Poison);
        } else if (m as usize) < n {
            out.push(lanes_a.get(m as usize).cloned().unwrap_or(EvalValue::Poison));
        } else {
            out.push(lanes_b.get(m as usize - n).cloned().unwrap_or(EvalValue::Poison));
        }
    }
    Ok(EvalValue::Vector(out))
}

/// Folds a single side-effect-free instruction over already-evaluated operand
/// values, without running a whole function.
///
/// This is the folding primitive shared by the optimizer's constant folder and
/// the enumerative superoptimizer baseline. Returns `None` when the
/// instruction kind cannot be folded in isolation (memory and control-flow
/// instructions) or when evaluating it would be immediate undefined behaviour
/// (e.g. division by zero) — callers must not fold those.
pub fn fold_instruction(
    kind: &InstKind,
    operands: &[EvalValue],
    result_ty: &Type,
) -> Option<EvalValue> {
    let result = match kind {
        InstKind::Binary { op, flags, .. } => {
            // Any undef divisor declines: folding never needs to know
            // whether it was literal.
            if divisor_ub(*op, &operands[1], true).is_some() {
                return None;
            }
            elementwise2(&operands[0], &operands[1], &mut |x, y| eval_binop(*op, x, y, flags))
        }
        InstKind::FBinary { op, fmf, .. } => {
            elementwise2(&operands[0], &operands[1], &mut |x, y| {
                let (xa, ya) = match (x.as_float(), y.as_float()) {
                    (Some(xa), Some(ya)) => (xa, ya),
                    _ => return Ok(EvalValue::Poison),
                };
                if (fmf.nnan && (xa.is_nan() || ya.is_nan()))
                    || (fmf.ninf && (xa.is_infinite() || ya.is_infinite()))
                {
                    return Ok(EvalValue::Poison);
                }
                let r = match op {
                    FBinOp::FAdd => xa + ya,
                    FBinOp::FSub => xa - ya,
                    FBinOp::FMul => xa * ya,
                    FBinOp::FDiv => xa / ya,
                    FBinOp::FRem => xa % ya,
                };
                let kind = match x {
                    EvalValue::Float(k, _) => *k,
                    _ => FloatKind::Double,
                };
                Ok(EvalValue::Float(kind, round_to(kind, r)))
            })
        }
        InstKind::ICmp { pred, .. } => {
            elementwise2(&operands[0], &operands[1], &mut |x, y| eval_icmp(*pred, x, y))
        }
        InstKind::FCmp { pred, .. } => elementwise2(&operands[0], &operands[1], &mut |x, y| {
            match (x.as_float(), y.as_float()) {
                (Some(xa), Some(ya)) => Ok(EvalValue::bool(eval_fcmp(*pred, xa, ya))),
                _ => Ok(EvalValue::Poison),
            }
        }),
        InstKind::Select { .. } => {
            let c = &operands[0];
            match c {
                EvalValue::Poison => Ok(EvalValue::Poison),
                EvalValue::Undef => Ok(EvalValue::Undef),
                EvalValue::Int(v) if v.width() == 1 => {
                    Ok(if v.as_bool() { operands[1].clone() } else { operands[2].clone() })
                }
                _ => return None,
            }
        }
        InstKind::Cast { op, flags, .. } => {
            let scalar = result_ty.scalar_type().clone();
            elementwise1(&operands[0], &mut |x| eval_cast(*op, x, &scalar, flags))
        }
        InstKind::Call { intrinsic, .. } => eval_intrinsic(*intrinsic, operands),
        InstKind::Freeze { .. } => Ok(freeze(&operands[0], result_ty)),
        _ => return None,
    };
    result.ok()
}

/// Converts an evaluated value back into an IR constant of the given type.
///
/// Returns `None` for pointers into allocations (which have no constant
/// spelling) and for vector lanes that cannot be converted.
pub fn to_constant(value: &EvalValue, ty: &Type) -> Option<Constant> {
    match value {
        EvalValue::Int(v) => Some(Constant::Int(*v)),
        EvalValue::Float(k, v) => Some(Constant::Float(*k, *v)),
        EvalValue::Poison => Some(Constant::Poison(ty.clone())),
        EvalValue::Undef => Some(Constant::Undef(ty.clone())),
        EvalValue::Ptr(p) if p.alloc == usize::MAX => Some(Constant::NullPtr),
        EvalValue::Ptr(_) => None,
        EvalValue::Vector(lanes) => {
            let elem_ty = ty.scalar_type();
            let consts: Option<Vec<Constant>> =
                lanes.iter().map(|l| to_constant(l, elem_ty)).collect();
            Some(Constant::Vector(consts?))
        }
    }
}

pub(crate) fn round_to(kind: FloatKind, v: f64) -> f64 {
    match kind {
        FloatKind::Float | FloatKind::Half => v as f32 as f64,
        FloatKind::Double => v,
    }
}

pub(crate) fn freeze(v: &EvalValue, ty: &Type) -> EvalValue {
    match v {
        EvalValue::Poison | EvalValue::Undef => match ty.scalar_type() {
            Type::Int(w) => EvalValue::Int(ApInt::zero(*w)),
            Type::Float(k) => EvalValue::Float(*k, 0.0),
            Type::Ptr => EvalValue::Ptr(PtrValue { alloc: usize::MAX, offset: 0 }),
            _ => EvalValue::Undef,
        },
        EvalValue::Vector(lanes) => {
            EvalValue::Vector(lanes.iter().map(|l| freeze(l, ty.scalar_type())).collect())
        }
        other => other.clone(),
    }
}

/// The UB message for a poison or undef divisor (see [`divisor_ub`]).
pub(crate) const POISON_DIVISOR: &str = "division by a poison or undef value";

/// LangRef: the divisor of `udiv`/`sdiv`/`urem`/`srem` is immediate UB when
/// it is zero, poison or undef — for a vector divisor, when any lane is.
/// Every evaluator checks it before broadcasting the operands, so it wins
/// over a poison or undef dividend; the first offending lane names the UB.
///
/// `literal` says the divisor operand is a constant. Undef is modelled as a
/// taint (`or i8 undef, 1` evaluates to undef although it is never zero), so
/// only a literal `undef` lane is known to be a real undef divisor; a
/// derived undef lane keeps propagating like any other undef operand.
#[inline(always)]
pub(crate) fn divisor_ub(op: BinOp, b: &EvalValue, literal: bool) -> Option<Ub> {
    if !op.is_division() {
        return None;
    }
    let zero = if matches!(op, BinOp::UDiv | BinOp::SDiv) {
        "division by zero"
    } else {
        "remainder by zero"
    };
    let lane_ub = |v: &EvalValue| match v {
        EvalValue::Poison => Some(POISON_DIVISOR),
        EvalValue::Undef if literal => Some(POISON_DIVISOR),
        EvalValue::Int(x) if x.is_zero() => Some(zero),
        _ => None,
    };
    match b {
        EvalValue::Vector(lanes) => lanes.iter().find_map(lane_ub),
        scalar => lane_ub(scalar),
    }
    .map(Ub::new)
}

pub(crate) type ScalarOp2<'f> = dyn FnMut(&EvalValue, &EvalValue) -> Result<EvalValue, Ub> + 'f;
pub(crate) type ScalarOp1<'f> = dyn FnMut(&EvalValue) -> Result<EvalValue, Ub> + 'f;

/// Statically-dispatched [`elementwise2`]: the generic `F` lets the scalar
/// kernels inline into the compiled evaluator's dispatch loop (the `dyn`
/// variants above cost an indirect call per lane, which dominates scalar
/// workloads).
#[inline(always)]
pub(crate) fn elementwise2_static<F>(
    a: &EvalValue,
    b: &EvalValue,
    mut f: F,
) -> Result<EvalValue, Ub>
where
    F: FnMut(&EvalValue, &EvalValue) -> Result<EvalValue, Ub>,
{
    if let (EvalValue::Vector(_), _) | (_, EvalValue::Vector(_)) = (a, b) {
        return elementwise2(a, b, &mut f);
    }
    // Scalar fast path: apply2 inlined with a static call. Both operands are
    // known non-vectors here, so the poison/undef tests are plain
    // discriminant compares.
    if matches!(a, EvalValue::Poison) || matches!(b, EvalValue::Poison) {
        return Ok(EvalValue::Poison);
    }
    if matches!(a, EvalValue::Undef) || matches!(b, EvalValue::Undef) {
        return Ok(EvalValue::Undef);
    }
    f(a, b)
}

/// Statically-dispatched [`elementwise1`]; see [`elementwise2_static`].
#[inline(always)]
pub(crate) fn elementwise1_static<F>(a: &EvalValue, mut f: F) -> Result<EvalValue, Ub>
where
    F: FnMut(&EvalValue) -> Result<EvalValue, Ub>,
{
    if let EvalValue::Vector(_) = a {
        return elementwise1(a, &mut f);
    }
    if matches!(a, EvalValue::Poison) {
        return Ok(EvalValue::Poison);
    }
    if matches!(a, EvalValue::Undef) {
        return Ok(EvalValue::Undef);
    }
    f(a)
}

/// Applies a scalar operation lane-wise, broadcasting poison/undef operands.
pub(crate) fn elementwise2(a: &EvalValue, b: &EvalValue, f: &mut ScalarOp2<'_>) -> Result<EvalValue, Ub> {
    match (a, b) {
        (EvalValue::Vector(la), EvalValue::Vector(lb)) => {
            let mut out = Vec::with_capacity(la.len());
            for (x, y) in la.iter().zip(lb) {
                out.push(apply2(x, y, f)?);
            }
            Ok(EvalValue::Vector(out))
        }
        (EvalValue::Vector(la), scalar) => {
            let mut out = Vec::with_capacity(la.len());
            for x in la {
                out.push(apply2(x, scalar, f)?);
            }
            Ok(EvalValue::Vector(out))
        }
        (scalar, EvalValue::Vector(lb)) => {
            let mut out = Vec::with_capacity(lb.len());
            for y in lb {
                out.push(apply2(scalar, y, f)?);
            }
            Ok(EvalValue::Vector(out))
        }
        (x, y) => apply2(x, y, f),
    }
}

fn apply2(x: &EvalValue, y: &EvalValue, f: &mut ScalarOp2<'_>) -> Result<EvalValue, Ub> {
    if x.is_poison() || y.is_poison() {
        return Ok(EvalValue::Poison);
    }
    if x.is_undef() || y.is_undef() {
        return Ok(EvalValue::Undef);
    }
    f(x, y)
}

pub(crate) fn elementwise1(a: &EvalValue, f: &mut ScalarOp1<'_>) -> Result<EvalValue, Ub> {
    match a {
        EvalValue::Vector(lanes) => {
            let mut out = Vec::with_capacity(lanes.len());
            for x in lanes {
                out.push(apply1(x, f)?);
            }
            Ok(EvalValue::Vector(out))
        }
        x => apply1(x, f),
    }
}

fn apply1(x: &EvalValue, f: &mut ScalarOp1<'_>) -> Result<EvalValue, Ub> {
    if x.is_poison() {
        return Ok(EvalValue::Poison);
    }
    if x.is_undef() {
        return Ok(EvalValue::Undef);
    }
    f(x)
}

pub(crate) fn eval_binop(op: BinOp, x: &EvalValue, y: &EvalValue, flags: &IntFlags) -> Result<EvalValue, Ub> {
    let (a, b) = match (x.as_int(), y.as_int()) {
        (Some(a), Some(b)) => (*a, *b),
        _ => return Ok(EvalValue::Poison),
    };
    let poison = Ok(EvalValue::Poison);
    let ok = |v: ApInt| Ok(EvalValue::Int(v));
    match op {
        // The overflow analyses only matter when a wrap flag is set; the
        // unflagged forms (the common case on the hot path) take the plain
        // wrapping operation directly.
        BinOp::Add => {
            if !flags.nuw && !flags.nsw {
                return ok(a.add(&b));
            }
            let (r, uo) = a.uadd_overflow(&b);
            let (_, so) = a.sadd_overflow(&b);
            if (flags.nuw && uo) || (flags.nsw && so) {
                return poison;
            }
            ok(r)
        }
        BinOp::Sub => {
            if !flags.nuw && !flags.nsw {
                return ok(a.sub(&b));
            }
            let (r, uo) = a.usub_overflow(&b);
            let (_, so) = a.ssub_overflow(&b);
            if (flags.nuw && uo) || (flags.nsw && so) {
                return poison;
            }
            ok(r)
        }
        BinOp::Mul => {
            if !flags.nuw && !flags.nsw {
                return ok(a.mul(&b));
            }
            let (r, uo) = a.umul_overflow(&b);
            let (_, so) = a.smul_overflow(&b);
            if (flags.nuw && uo) || (flags.nsw && so) {
                return poison;
            }
            ok(r)
        }
        BinOp::UDiv => match a.udiv(&b) {
            None => Err(Ub::new("division by zero")),
            Some(r) => {
                if flags.exact && a.urem(&b).map(|m| !m.is_zero()).unwrap_or(false) {
                    return poison;
                }
                ok(r)
            }
        },
        BinOp::SDiv => match a.sdiv(&b) {
            None => Err(Ub::new(if b.is_zero() {
                "division by zero"
            } else {
                "signed division overflow"
            })),
            Some(r) => {
                if flags.exact && a.srem(&b).map(|m| !m.is_zero()).unwrap_or(false) {
                    return poison;
                }
                ok(r)
            }
        },
        BinOp::URem => match a.urem(&b) {
            None => Err(Ub::new("remainder by zero")),
            Some(r) => ok(r),
        },
        BinOp::SRem => match a.srem(&b) {
            None => Err(Ub::new(if b.is_zero() {
                "remainder by zero"
            } else {
                "signed remainder overflow"
            })),
            Some(r) => ok(r),
        },
        BinOp::Shl => match a.shl(&b) {
            None => poison,
            Some(r) => {
                let amount = b;
                if flags.nuw && r.lshr(&amount) != Some(a) {
                    return poison;
                }
                if flags.nsw && r.ashr(&amount) != Some(a) {
                    return poison;
                }
                ok(r)
            }
        },
        BinOp::LShr => match a.lshr(&b) {
            None => poison,
            Some(r) => {
                if flags.exact && r.shl(&b) != Some(a) {
                    return poison;
                }
                ok(r)
            }
        },
        BinOp::AShr => match a.ashr(&b) {
            None => poison,
            Some(r) => {
                if flags.exact && r.shl(&b) != Some(a) {
                    return poison;
                }
                ok(r)
            }
        },
        BinOp::And => ok(a.and(&b)),
        BinOp::Or => {
            if flags.disjoint && !a.and(&b).is_zero() {
                return poison;
            }
            ok(a.or(&b))
        }
        BinOp::Xor => ok(a.xor(&b)),
    }
}

pub(crate) fn eval_icmp(pred: ICmpPred, x: &EvalValue, y: &EvalValue) -> Result<EvalValue, Ub> {
    if let (EvalValue::Ptr(a), EvalValue::Ptr(b)) = (x, y) {
        let result = match pred {
            ICmpPred::Eq => a == b,
            ICmpPred::Ne => a != b,
            _ => {
                if a.alloc == b.alloc {
                    return eval_icmp(
                        pred,
                        &EvalValue::int_signed(64, a.offset as i128),
                        &EvalValue::int_signed(64, b.offset as i128),
                    );
                }
                return Ok(EvalValue::Undef);
            }
        };
        return Ok(EvalValue::bool(result));
    }
    let (a, b) = match (x.as_int(), y.as_int()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Ok(EvalValue::Poison),
    };
    let r = match pred {
        ICmpPred::Eq => a == b,
        ICmpPred::Ne => a != b,
        ICmpPred::Ugt => b.ult(a),
        ICmpPred::Uge => b.ule(a),
        ICmpPred::Ult => a.ult(b),
        ICmpPred::Ule => a.ule(b),
        ICmpPred::Sgt => b.slt(a),
        ICmpPred::Sge => b.sle(a),
        ICmpPred::Slt => a.slt(b),
        ICmpPred::Sle => a.sle(b),
    };
    Ok(EvalValue::bool(r))
}

pub(crate) fn eval_fcmp(pred: FCmpPred, a: f64, b: f64) -> bool {
    let unordered = a.is_nan() || b.is_nan();
    match pred {
        FCmpPred::False => false,
        FCmpPred::True => true,
        FCmpPred::Ord => !unordered,
        FCmpPred::Uno => unordered,
        FCmpPred::Oeq => !unordered && a == b,
        FCmpPred::Ogt => !unordered && a > b,
        FCmpPred::Oge => !unordered && a >= b,
        FCmpPred::Olt => !unordered && a < b,
        FCmpPred::Ole => !unordered && a <= b,
        FCmpPred::One => !unordered && a != b,
        FCmpPred::Ueq => unordered || a == b,
        FCmpPred::Ugt => unordered || a > b,
        FCmpPred::Uge => unordered || a >= b,
        FCmpPred::Ult => unordered || a < b,
        FCmpPred::Ule => unordered || a <= b,
        FCmpPred::Une => unordered || a != b,
    }
}

pub(crate) fn eval_cast(op: CastOp, x: &EvalValue, to: &Type, flags: &IntFlags) -> Result<EvalValue, Ub> {
    let poison = Ok(EvalValue::Poison);
    match op {
        CastOp::Trunc => {
            let v = match x.as_int() {
                Some(v) => v,
                None => return poison,
            };
            let w = to.int_width().expect("verified");
            if flags.nuw && !v.trunc_is_nuw(w) {
                return poison;
            }
            if flags.nsw && !v.trunc_is_nsw(w) {
                return poison;
            }
            Ok(EvalValue::Int(v.trunc(w)))
        }
        CastOp::ZExt => {
            let v = match x.as_int() {
                Some(v) => v,
                None => return poison,
            };
            if flags.nneg && v.is_negative() {
                return poison;
            }
            Ok(EvalValue::Int(v.zext(to.int_width().expect("verified"))))
        }
        CastOp::SExt => match x.as_int() {
            Some(v) => Ok(EvalValue::Int(v.sext(to.int_width().expect("verified")))),
            None => poison,
        },
        CastOp::FpTrunc | CastOp::FpExt => match (x.as_float(), to) {
            (Some(v), Type::Float(k)) => Ok(EvalValue::Float(*k, round_to(*k, v))),
            _ => poison,
        },
        CastOp::FpToUi => match (x.as_float(), to.int_width()) {
            (Some(v), Some(w)) => {
                if v.is_nan() || v < 0.0 || v >= 2f64.powi(w as i32) {
                    poison
                } else {
                    Ok(EvalValue::Int(ApInt::new(w, v as u128)))
                }
            }
            _ => poison,
        },
        CastOp::FpToSi => match (x.as_float(), to.int_width()) {
            (Some(v), Some(w)) => {
                let bound = 2f64.powi(w as i32 - 1);
                if v.is_nan() || v < -bound || v >= bound {
                    poison
                } else {
                    Ok(EvalValue::Int(ApInt::from_i128(w, v as i128)))
                }
            }
            _ => poison,
        },
        CastOp::UiToFp => match (x.as_int(), to) {
            (Some(v), Type::Float(k)) => {
                if flags.nneg && v.is_negative() {
                    return poison;
                }
                Ok(EvalValue::Float(*k, round_to(*k, v.zext_value() as f64)))
            }
            _ => poison,
        },
        CastOp::SiToFp => match (x.as_int(), to) {
            (Some(v), Type::Float(k)) => Ok(EvalValue::Float(*k, round_to(*k, v.sext_value() as f64))),
            _ => poison,
        },
        CastOp::PtrToInt => match x {
            EvalValue::Ptr(p) => {
                let w = to.int_width().expect("verified");
                // A synthetic but stable address: allocation id in the high bits.
                let addr = ((p.alloc as u128) << 32).wrapping_add(p.offset as u32 as u128);
                Ok(EvalValue::Int(ApInt::new(w, addr)))
            }
            _ => poison,
        },
        CastOp::IntToPtr => match x.as_int() {
            Some(v) => Ok(EvalValue::Ptr(PtrValue {
                alloc: (v.zext_value() >> 32) as usize,
                offset: (v.zext_value() as u32) as i64,
            })),
            None => poison,
        },
        CastOp::Bitcast => match (x, to) {
            (EvalValue::Int(v), Type::Float(k)) => {
                let f = match k {
                    FloatKind::Float => f32::from_bits(v.zext_value() as u32) as f64,
                    _ => f64::from_bits(v.zext_value() as u64),
                };
                Ok(EvalValue::Float(*k, f))
            }
            (EvalValue::Float(k, v), Type::Int(w)) => {
                let bits = match k {
                    FloatKind::Float => (*v as f32).to_bits() as u128,
                    _ => v.to_bits() as u128,
                };
                Ok(EvalValue::Int(ApInt::new(*w, bits)))
            }
            (EvalValue::Int(v), Type::Int(w)) => Ok(EvalValue::Int(ApInt::new(*w, v.zext_value()))),
            _ => poison,
        },
    }
}

pub(crate) fn eval_intrinsic(intrinsic: Intrinsic, args: &[EvalValue]) -> Result<EvalValue, Ub> {
    // Integer two-operand intrinsics and float intrinsics are elementwise.
    match intrinsic {
        Intrinsic::Umin | Intrinsic::Umax | Intrinsic::Smin | Intrinsic::Smax
        | Intrinsic::UaddSat | Intrinsic::SaddSat | Intrinsic::UsubSat | Intrinsic::SsubSat => {
            elementwise2_static(&args[0], &args[1], |x, y| {
                let (a, b) = match (x.as_int(), y.as_int()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return Ok(EvalValue::Poison),
                };
                let r = match intrinsic {
                    Intrinsic::Umin => a.umin(b),
                    Intrinsic::Umax => a.umax(b),
                    Intrinsic::Smin => a.smin(b),
                    Intrinsic::Smax => a.smax(b),
                    Intrinsic::UaddSat => a.uadd_sat(b),
                    Intrinsic::SaddSat => a.sadd_sat(b),
                    Intrinsic::UsubSat => a.usub_sat(b),
                    Intrinsic::SsubSat => a.ssub_sat(b),
                    _ => unreachable!(),
                };
                Ok(EvalValue::Int(r))
            })
        }
        Intrinsic::Abs => {
            let poison_on_min = args[1].as_bool().unwrap_or(false);
            elementwise1_static(&args[0], |x| match x.as_int() {
                Some(v) => {
                    if poison_on_min && *v == ApInt::signed_min(v.width()) {
                        Ok(EvalValue::Poison)
                    } else {
                        Ok(EvalValue::Int(v.abs()))
                    }
                }
                None => Ok(EvalValue::Poison),
            })
        }
        Intrinsic::Ctpop | Intrinsic::Bswap | Intrinsic::Bitreverse => {
            elementwise1_static(&args[0], |x| match x.as_int() {
                Some(v) => Ok(EvalValue::Int(match intrinsic {
                    Intrinsic::Ctpop => ApInt::new(v.width(), v.count_ones() as u128),
                    Intrinsic::Bswap => v.bswap(),
                    _ => v.bitreverse(),
                })),
                None => Ok(EvalValue::Poison),
            })
        }
        Intrinsic::Ctlz | Intrinsic::Cttz => {
            let poison_on_zero = args[1].as_bool().unwrap_or(false);
            elementwise1_static(&args[0], |x| match x.as_int() {
                Some(v) => {
                    if poison_on_zero && v.is_zero() {
                        Ok(EvalValue::Poison)
                    } else {
                        let count = if intrinsic == Intrinsic::Ctlz {
                            v.leading_zeros()
                        } else {
                            v.trailing_zeros()
                        };
                        Ok(EvalValue::Int(ApInt::new(v.width(), count as u128)))
                    }
                }
                None => Ok(EvalValue::Poison),
            })
        }
        Intrinsic::Fshl | Intrinsic::Fshr => {
            // Three operands, all the same shape: fold lane-wise by zipping.
            let lanes = args[0].lanes().map(<[EvalValue]>::len);
            match lanes {
                Some(n) => {
                    let mut out = Vec::with_capacity(n);
                    for i in 0..n {
                        let a = &args[0].lanes().unwrap()[i];
                        let b = &args[1].lanes().unwrap()[i];
                        let c = &args[2].lanes().unwrap()[i];
                        out.push(funnel_shift(intrinsic, a, b, c));
                    }
                    Ok(EvalValue::Vector(out))
                }
                None => Ok(funnel_shift(intrinsic, &args[0], &args[1], &args[2])),
            }
        }
        Intrinsic::Fabs | Intrinsic::Sqrt => elementwise1_static(&args[0], |x| match x {
            EvalValue::Float(k, v) => Ok(EvalValue::Float(
                *k,
                round_to(*k, if intrinsic == Intrinsic::Fabs { v.abs() } else { v.sqrt() }),
            )),
            _ => Ok(EvalValue::Poison),
        }),
        Intrinsic::Minnum | Intrinsic::Maxnum | Intrinsic::Copysign => {
            elementwise2_static(&args[0], &args[1], |x, y| match (x, y) {
                (EvalValue::Float(k, a), EvalValue::Float(_, b)) => {
                    let r = match intrinsic {
                        Intrinsic::Minnum => {
                            if a.is_nan() { *b } else if b.is_nan() { *a } else { a.min(*b) }
                        }
                        Intrinsic::Maxnum => {
                            if a.is_nan() { *b } else if b.is_nan() { *a } else { a.max(*b) }
                        }
                        _ => a.copysign(*b),
                    };
                    Ok(EvalValue::Float(*k, round_to(*k, r)))
                }
                _ => Ok(EvalValue::Poison),
            })
        }
        Intrinsic::Fma => {
            let lanes = args[0].lanes().map(<[EvalValue]>::len);
            let scalar_fma = |a: &EvalValue, b: &EvalValue, c: &EvalValue| -> EvalValue {
                match (a, b, c) {
                    (EvalValue::Float(k, x), EvalValue::Float(_, y), EvalValue::Float(_, z)) => {
                        EvalValue::Float(*k, round_to(*k, x.mul_add(*y, *z)))
                    }
                    _ => EvalValue::Poison,
                }
            };
            match lanes {
                Some(n) => {
                    let mut out = Vec::with_capacity(n);
                    for i in 0..n {
                        out.push(scalar_fma(
                            &args[0].lanes().unwrap()[i],
                            &args[1].lanes().unwrap()[i],
                            &args[2].lanes().unwrap()[i],
                        ));
                    }
                    Ok(EvalValue::Vector(out))
                }
                None => Ok(scalar_fma(&args[0], &args[1], &args[2])),
            }
        }
    }
}

fn funnel_shift(intrinsic: Intrinsic, a: &EvalValue, b: &EvalValue, c: &EvalValue) -> EvalValue {
    if a.is_poison() || b.is_poison() || c.is_poison() {
        return EvalValue::Poison;
    }
    if a.is_undef() || b.is_undef() || c.is_undef() {
        return EvalValue::Undef;
    }
    match (a.as_int(), b.as_int(), c.as_int()) {
        (Some(x), Some(y), Some(amt)) => EvalValue::Int(if intrinsic == Intrinsic::Fshl {
            x.fshl(y, amt)
        } else {
            y.fshr(x, amt)
        }),
        _ => EvalValue::Poison,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;

    fn eval_ret(text: &str, args: &[EvalValue]) -> Result<Option<EvalValue>, Ub> {
        let f = parse_function(text).unwrap();
        let mut memory = Memory::new();
        // Bind each pointer argument to a fresh 64-byte allocation.
        let mut bound = Vec::new();
        for (i, p) in f.params.iter().enumerate() {
            if p.ty.is_ptr() && args.get(i).is_none() {
                let id = memory.allocate_zeroed(64);
                bound.push(EvalValue::Ptr(PtrValue { alloc: id, offset: 0 }));
            } else {
                bound.push(args[i].clone());
            }
        }
        evaluate_default(&f, &bound, memory).map(|o| o.result)
    }

    #[test]
    fn clamp_example_from_figure_1() {
        let src = "define i8 @src(i32 %0) {\n\
            %2 = icmp slt i32 %0, 0\n\
            %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
            %4 = trunc nuw i32 %3 to i8\n\
            %5 = select i1 %2, i8 0, i8 %4\n\
            ret i8 %5\n}";
        assert_eq!(eval_ret(src, &[EvalValue::int_signed(32, -5)]).unwrap(), Some(EvalValue::int(8, 0)));
        assert_eq!(eval_ret(src, &[EvalValue::int(32, 300)]).unwrap(), Some(EvalValue::int(8, 255)));
        assert_eq!(eval_ret(src, &[EvalValue::int(32, 42)]).unwrap(), Some(EvalValue::int(8, 42)));
    }

    #[test]
    fn poison_from_flag_violations() {
        let f = "define i8 @f(i8 %x) {\n %r = add nuw i8 %x, 200\n ret i8 %r\n}";
        assert_eq!(eval_ret(f, &[EvalValue::int(8, 100)]).unwrap(), Some(EvalValue::Poison));
        assert_eq!(eval_ret(f, &[EvalValue::int(8, 10)]).unwrap(), Some(EvalValue::int(8, 210)));

        let g = "define i8 @g(i8 %x) {\n %r = shl nuw i8 %x, 1\n ret i8 %r\n}";
        assert_eq!(eval_ret(g, &[EvalValue::int(8, 0x80)]).unwrap(), Some(EvalValue::Poison));
        assert_eq!(eval_ret(g, &[EvalValue::int(8, 0x40)]).unwrap(), Some(EvalValue::int(8, 0x80)));

        let h = "define i8 @h(i8 %x) {\n %r = or disjoint i8 %x, 1\n ret i8 %r\n}";
        assert_eq!(eval_ret(h, &[EvalValue::int(8, 1)]).unwrap(), Some(EvalValue::Poison));
        assert_eq!(eval_ret(h, &[EvalValue::int(8, 2)]).unwrap(), Some(EvalValue::int(8, 3)));

        let t = "define i8 @t(i32 %x) {\n %r = trunc nuw i32 %x to i8\n ret i8 %r\n}";
        assert_eq!(eval_ret(t, &[EvalValue::int(32, 300)]).unwrap(), Some(EvalValue::Poison));
        assert_eq!(eval_ret(t, &[EvalValue::int(32, 200)]).unwrap(), Some(EvalValue::int(8, 200)));
    }

    #[test]
    fn division_ub() {
        let f = "define i32 @f(i32 %x, i32 %y) {\n %r = sdiv i32 %x, %y\n ret i32 %r\n}";
        assert!(eval_ret(f, &[EvalValue::int(32, 5), EvalValue::int(32, 0)]).is_err());
        assert!(eval_ret(
            f,
            &[EvalValue::int_signed(32, i32::MIN as i128), EvalValue::int_signed(32, -1)]
        )
        .is_err());
        assert_eq!(
            eval_ret(f, &[EvalValue::int(32, 12), EvalValue::int(32, 3)]).unwrap(),
            Some(EvalValue::int(32, 4))
        );
    }

    #[test]
    fn shift_out_of_range_is_poison_not_ub() {
        let f = "define i32 @f(i32 %x, i32 %y) {\n %r = lshr i32 %x, %y\n ret i32 %r\n}";
        assert_eq!(
            eval_ret(f, &[EvalValue::int(32, 5), EvalValue::int(32, 40)]).unwrap(),
            Some(EvalValue::Poison)
        );
    }

    #[test]
    fn memory_roundtrip_and_ub() {
        let f = "define i32 @f(ptr %p) {\n\
            store i32 77, ptr %p, align 4\n\
            %v = load i32, ptr %p, align 4\n\
            ret i32 %v\n}";
        assert_eq!(eval_ret(f, &[]).unwrap(), Some(EvalValue::int(32, 77)));

        // Out-of-bounds GEP + store is UB (the allocation is 64 bytes).
        let g = "define void @g(ptr %p) {\n\
            %q = getelementptr i32, ptr %p, i64 100\n\
            store i32 1, ptr %q, align 4\n\
            ret void\n}";
        assert!(eval_ret(g, &[]).is_err());
    }

    #[test]
    fn consecutive_load_merge_case_study_1() {
        // Figure 4a/4d: two i16 loads combined == one i32 load (little endian).
        let src = "define i32 @src(ptr %0) {\n\
            %2 = load i16, ptr %0, align 2\n\
            %3 = getelementptr i8, ptr %0, i64 2\n\
            %4 = load i16, ptr %3, align 1\n\
            %5 = zext i16 %4 to i32\n\
            %6 = shl nuw i32 %5, 16\n\
            %7 = zext i16 %2 to i32\n\
            %8 = or disjoint i32 %6, %7\n\
            ret i32 %8\n}";
        let tgt = "define i32 @tgt(ptr %0) {\n\
            %2 = load i32, ptr %0, align 2\n\
            ret i32 %2\n}";
        let sf = parse_function(src).unwrap();
        let tf = parse_function(tgt).unwrap();
        let mut mem = Memory::new();
        let alloc = mem.allocate(crate::memory::Allocation::with_bytes(vec![
            0x34, 0x12, 0x78, 0x56, 0, 0, 0, 0,
        ]));
        let args = vec![EvalValue::Ptr(PtrValue { alloc, offset: 0 })];
        let a = evaluate_default(&sf, &args, mem.clone()).unwrap();
        let b = evaluate_default(&tf, &args, mem).unwrap();
        assert_eq!(a.result, Some(EvalValue::int(32, 0x5678_1234)));
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn vector_operations_are_lane_wise() {
        let f = "define <4 x i8> @f(<4 x i32> %x) {\n\
            %c = icmp slt <4 x i32> %x, zeroinitializer\n\
            %m = call <4 x i32> @llvm.umin.v4i32(<4 x i32> %x, <4 x i32> splat (i32 255))\n\
            %t = trunc <4 x i32> %m to <4 x i8>\n\
            %s = select <4 x i1> %c, <4 x i8> zeroinitializer, <4 x i8> %t\n\
            ret <4 x i8> %s\n}";
        let input = EvalValue::Vector(vec![
            EvalValue::int_signed(32, -1),
            EvalValue::int(32, 100),
            EvalValue::int(32, 300),
            EvalValue::int(32, 0),
        ]);
        let expected = EvalValue::Vector(vec![
            EvalValue::int(8, 0),
            EvalValue::int(8, 100),
            EvalValue::int(8, 255),
            EvalValue::int(8, 0),
        ]);
        assert_eq!(eval_ret(f, &[input]).unwrap(), Some(expected));
    }

    #[test]
    fn float_case_study_3() {
        let src = "define i1 @src(double %0) {\n\
            %2 = fcmp ord double %0, 0.000000e+00\n\
            %3 = select i1 %2, double %0, double 0.000000e+00\n\
            %4 = fcmp oeq double %3, 1.000000e+00\n\
            ret i1 %4\n}";
        assert_eq!(
            eval_ret(src, &[EvalValue::Float(FloatKind::Double, 1.0)]).unwrap(),
            Some(EvalValue::bool(true))
        );
        assert_eq!(
            eval_ret(src, &[EvalValue::Float(FloatKind::Double, f64::NAN)]).unwrap(),
            Some(EvalValue::bool(false))
        );
        assert_eq!(
            eval_ret(src, &[EvalValue::Float(FloatKind::Double, 2.0)]).unwrap(),
            Some(EvalValue::bool(false))
        );
    }

    #[test]
    fn umax_shift_case_study_2() {
        let src = "define i8 @src(i8 %0) {\n\
            %2 = call i8 @llvm.umax.i8(i8 %0, i8 1)\n\
            %3 = shl nuw i8 %2, 1\n\
            %4 = call i8 @llvm.umax.i8(i8 %3, i8 16)\n\
            ret i8 %4\n}";
        assert_eq!(eval_ret(src, &[EvalValue::int(8, 0)]).unwrap(), Some(EvalValue::int(8, 16)));
        assert_eq!(eval_ret(src, &[EvalValue::int(8, 20)]).unwrap(), Some(EvalValue::int(8, 40)));
        assert_eq!(eval_ret(src, &[EvalValue::int(8, 5)]).unwrap(), Some(EvalValue::int(8, 16)));
    }

    #[test]
    fn loops_execute_and_terminate() {
        let f = "define i32 @sum(i32 %n) {\n\
            entry:\n  br label %header\n\
            header:\n\
              %i = phi i32 [ 0, %entry ], [ %i.next, %body ]\n\
              %acc = phi i32 [ 0, %entry ], [ %acc.next, %body ]\n\
              %cmp = icmp slt i32 %i, %n\n\
              br i1 %cmp, label %body, label %exit\n\
            body:\n\
              %acc.next = add i32 %acc, %i\n\
              %i.next = add i32 %i, 1\n\
              br label %header\n\
            exit:\n  ret i32 %acc\n}";
        assert_eq!(eval_ret(f, &[EvalValue::int(32, 5)]).unwrap(), Some(EvalValue::int(32, 10)));
        // Step limit guards against effectively-unbounded loops.
        let parsed = parse_function(f).unwrap();
        let res = evaluate(&parsed, &[EvalValue::int(32, 1_000_000)], Memory::new(), 100);
        assert!(res.is_err());
    }

    #[test]
    fn branch_on_poison_is_ub() {
        let f = "define i32 @f(i32 %x) {\n\
            %p = add nuw i32 %x, 1\n\
            %c = icmp eq i32 %p, 0\n\
            br i1 %c, label %a, label %b\n\
            a:\n  ret i32 1\n\
            b:\n  ret i32 2\n}";
        // x = UINT_MAX makes %p poison; branching on it is UB.
        assert!(eval_ret(f, &[EvalValue::int(32, u32::MAX as u128)]).is_err());
        assert_eq!(eval_ret(f, &[EvalValue::int(32, 1)]).unwrap(), Some(EvalValue::int(32, 2)));
    }

    #[test]
    fn freeze_and_undef() {
        let f = "define i32 @f() {\n %x = freeze i32 undef\n %y = add i32 %x, 1\n ret i32 %y\n}";
        assert_eq!(eval_ret(f, &[]).unwrap(), Some(EvalValue::int(32, 1)));
        let g = "define i32 @g() {\n %y = add i32 undef, 1\n ret i32 %y\n}";
        assert_eq!(eval_ret(g, &[]).unwrap(), Some(EvalValue::Undef));
    }

    #[test]
    fn misc_intrinsics() {
        let f = "define i32 @f(i32 %x) {\n %r = call i32 @llvm.ctpop.i32(i32 %x)\n ret i32 %r\n}";
        assert_eq!(eval_ret(f, &[EvalValue::int(32, 0xf0f0)]).unwrap(), Some(EvalValue::int(32, 8)));
        let g = "define i16 @g(i16 %x) {\n %r = call i16 @llvm.bswap.i16(i16 %x)\n ret i16 %r\n}";
        assert_eq!(eval_ret(g, &[EvalValue::int(16, 0x1234)]).unwrap(), Some(EvalValue::int(16, 0x3412)));
        let h = "define i8 @h(i8 %x) {\n %r = call i8 @llvm.ctlz.i8(i8 %x, i1 true)\n ret i8 %r\n}";
        assert_eq!(eval_ret(h, &[EvalValue::int(8, 0)]).unwrap(), Some(EvalValue::Poison));
        assert_eq!(eval_ret(h, &[EvalValue::int(8, 1)]).unwrap(), Some(EvalValue::int(8, 7)));
        let s = "define i8 @s(i8 %x, i8 %y) {\n %r = call i8 @llvm.uadd.sat.i8(i8 %x, i8 %y)\n ret i8 %r\n}";
        assert_eq!(
            eval_ret(s, &[EvalValue::int(8, 200), EvalValue::int(8, 100)]).unwrap(),
            Some(EvalValue::int(8, 255))
        );
        let fsh = "define i8 @fsh(i8 %x, i8 %y) {\n %r = call i8 @llvm.fshl.i8(i8 %x, i8 %y, i8 3)\n ret i8 %r\n}";
        assert_eq!(
            eval_ret(fsh, &[EvalValue::int(8, 0b1000_0001), EvalValue::int(8, 0b1100_0000)]).unwrap(),
            Some(EvalValue::int(8, 0b0000_1110))
        );
    }

    #[test]
    fn float_intrinsics() {
        let f = "define double @f(double %x) {\n %r = call double @llvm.fabs.f64(double %x)\n ret double %r\n}";
        assert_eq!(
            eval_ret(f, &[EvalValue::Float(FloatKind::Double, -2.5)]).unwrap(),
            Some(EvalValue::Float(FloatKind::Double, 2.5))
        );
        let g = "define double @g(double %x, double %y) {\n %r = call double @llvm.maxnum.f64(double %x, double %y)\n ret double %r\n}";
        assert_eq!(
            eval_ret(
                g,
                &[EvalValue::Float(FloatKind::Double, f64::NAN), EvalValue::Float(FloatKind::Double, 3.0)]
            )
            .unwrap(),
            Some(EvalValue::Float(FloatKind::Double, 3.0))
        );
    }

    #[test]
    fn vector_shuffle_insert_extract() {
        let f = "define i32 @f(<4 x i32> %v) {\n\
            %s = shufflevector <4 x i32> %v, <4 x i32> %v, <2 x i32> <i32 3, i32 0>\n\
            %e = extractelement <2 x i32> %s, i64 0\n\
            ret i32 %e\n}";
        let input = EvalValue::Vector(vec![
            EvalValue::int(32, 10),
            EvalValue::int(32, 20),
            EvalValue::int(32, 30),
            EvalValue::int(32, 40),
        ]);
        assert_eq!(eval_ret(f, &[input]).unwrap(), Some(EvalValue::int(32, 40)));
    }

    #[test]
    fn wrong_arity_is_reported() {
        let f = parse_function("define i32 @f(i32 %x) {\n ret i32 %x\n}").unwrap();
        assert!(evaluate_default(&f, &[], Memory::new()).is_err());
    }
}
