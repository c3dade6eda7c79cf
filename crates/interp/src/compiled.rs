//! The zero-allocation evaluation hot path: pre-decoded functions executed
//! over a dense, reusable register file.
//!
//! The reference evaluator ([`evaluate_reference`](crate::eval::evaluate_reference))
//! pays three per-step costs that dominate fuzz-style verification workloads:
//! it clones every executed [`Instruction`](lpo_ir::instruction::Instruction)
//! (heap traffic for call argument lists), it resolves every operand through a
//! `HashMap<InstId, EvalValue>` (SipHash per read/write), and it re-derives
//! constants, result types and GEP element sizes on every step.
//!
//! [`CompiledFunction`] does that work **once per function**:
//!
//! * operands are decoded to slots (the private `COperand`) — an argument
//!   index, a dense register number, or a constant already converted to an
//!   [`EvalValue`];
//! * per-instruction metadata (cast target scalar type, store value type,
//!   GEP element size, alloca size, vector lane counts) is resolved at
//!   compile time;
//! * block bodies become flat step lists with decoded terminators, so the
//!   inner loop is a match over plain data with no arena lookups.
//!
//! [`EvalArena`] owns the register file (a `Vec<Option<EvalValue>>` indexed
//! by `InstId`) and the phi staging buffer. It is reused across evaluations —
//! one arena per worker thread — so steady-state evaluation of scalar
//! functions performs no allocation at all.
//!
//! The compiled evaluator is **outcome-identical** to the reference
//! evaluator, including UB messages, poison/undef classification, step
//! counting and final memory state; `tests/interp_differential.rs` checks
//! this over the whole corpus plus randomly synthesized functions.

use crate::eval::{
    divisor_ub, elementwise1_static, elementwise2_static, eval_binop, eval_cast,
    eval_extractelement, eval_fbinop, eval_fcmp, eval_gep, eval_icmp, eval_insertelement,
    eval_intrinsic, eval_load, eval_select, eval_shufflevector, eval_store, freeze, EvalOutcome,
    Ub, DEFAULT_STEP_LIMIT,
};
use crate::memory::Memory;
use crate::value::{EvalValue, PtrValue};
use lpo_ir::flags::{FastMathFlags, IntFlags};
use lpo_ir::function::Function;
use lpo_ir::instruction::{
    BinOp, CastOp, FBinOp, FCmpPred, ICmpPred, InstKind, Intrinsic, Value,
};
use lpo_ir::types::Type;

/// A pre-decoded operand: where the value comes from at execution time.
#[derive(Clone, Debug)]
enum COperand {
    /// The n-th function argument.
    Arg(u32),
    /// The register (instruction arena slot) holding another result.
    Reg(u32),
    /// An inline constant, already converted to its runtime value.
    Const(EvalValue),
}

/// A phi node, decoded: destination register plus `(predecessor, operand)`.
#[derive(Clone, Debug)]
struct CPhi {
    dst: u32,
    incoming: Vec<(u32, COperand)>,
}

/// One step of a block body. Phi placeholders stay in the list so the step
/// counting (and therefore step-limit UB) matches the reference evaluator
/// exactly.
#[derive(Clone, Debug)]
enum CStep {
    /// A phi occupying its step slot (the value was assigned on block entry).
    Phi,
    /// A value-producing (or store) instruction.
    Inst { dst: u32, op: COp },
    /// Return.
    Ret(Option<COperand>),
    /// Conditional or unconditional branch.
    Br { cond: Option<COperand>, then_block: u32, else_block: Option<u32> },
    /// Unreachable terminator.
    Unreachable,
}

/// A pre-decoded non-terminator operation with all per-step metadata
/// resolved at compile time.
#[derive(Clone, Debug)]
enum COp {
    Binary { op: BinOp, flags: IntFlags, lhs: COperand, rhs: COperand },
    FBinary { op: FBinOp, fmf: FastMathFlags, lhs: COperand, rhs: COperand },
    ICmp { pred: ICmpPred, lhs: COperand, rhs: COperand },
    FCmp { pred: FCmpPred, lhs: COperand, rhs: COperand },
    Select { cond: COperand, on_true: COperand, on_false: COperand },
    Cast { op: CastOp, flags: IntFlags, value: COperand, to_scalar: Type },
    Call { intrinsic: Intrinsic, args: Vec<COperand> },
    Load { ptr: COperand, ty: Type },
    Store { value: COperand, ptr: COperand, vty: Type },
    Gep { base: COperand, index: COperand, elem_size: i64, inbounds: bool, nuw: bool },
    Alloca { size: usize },
    ExtractElement { vector: COperand, index: COperand },
    InsertElement { vector: COperand, element: COperand, index: COperand, lanes: usize },
    ShuffleVector { a: COperand, b: COperand, mask: Vec<i32> },
    Freeze { value: COperand, ty: Type },
}

/// A compiled basic block: staged phis plus the flat step list.
#[derive(Clone, Debug)]
struct CBlock {
    phis: Vec<CPhi>,
    steps: Vec<CStep>,
}

/// Reusable evaluation state: the dense register file, the phi staging
/// buffer, and the plane evaluator's value planes. Create one per worker
/// thread and pass it to every [`CompiledFunction::evaluate`] call;
/// steady-state evaluation then allocates nothing.
#[derive(Debug, Default)]
pub struct EvalArena {
    regs: Vec<Option<EvalValue>>,
    phi_buf: Vec<(u32, EvalValue)>,
    /// Flat `num_planes × lanes` value planes for the plane evaluator
    /// (see [`crate::plane`]); plane `p` occupies `[p * lanes .. (p + 1) * lanes]`.
    pub(crate) plane_vals: Vec<u64>,
    /// Per-lane state bytes parallel to `plane_vals` (bit 0 poison, bit 1 undef).
    pub(crate) plane_states: Vec<u8>,
    /// Per-lane UB codes for the plane evaluator (`0` = live).
    pub(crate) plane_ub: Vec<u8>,
}

impl EvalArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the register file and sizes it for `num_regs` registers.
    fn reset(&mut self, num_regs: usize) {
        if self.regs.len() == num_regs {
            // Steady state: same function (or same register count) as the
            // previous evaluation — overwrite in place, no capacity checks.
            for slot in &mut self.regs {
                *slot = None;
            }
        } else {
            self.regs.clear();
            self.regs.resize(num_regs, None);
        }
        self.phi_buf.clear();
    }
}

/// A function pre-decoded for repeated evaluation.
///
/// Compile once per function, then call [`evaluate`](Self::evaluate) for each
/// input, reusing one [`EvalArena`]:
///
/// ```
/// use lpo_interp::prelude::*;
/// use lpo_ir::parser::parse_function;
///
/// let f = parse_function("define i8 @f(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}")?;
/// let compiled = CompiledFunction::compile(&f);
/// let mut arena = EvalArena::new();
/// for x in 0..=255u128 {
///     let out = compiled.evaluate(&mut arena, &[EvalValue::int(8, x)], Memory::new()).unwrap();
///     assert_eq!(out.result, Some(EvalValue::int(8, (x + 1) & 0xff)));
/// }
/// # Ok::<(), lpo_ir::parser::ParseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CompiledFunction {
    blocks: Vec<CBlock>,
    num_regs: usize,
    num_params: usize,
    /// The plane-form lowering, present iff the function is straight-line
    /// scalar-integer and memory-free (see [`crate::plane::PlanePlan`]).
    plane: Option<crate::plane::PlanePlan>,
}

impl CompiledFunction {
    /// Pre-decodes `func`: resolves constants, operand slots, types and block
    /// successor tables once, instead of on every executed step.
    pub fn compile(func: &Function) -> Self {
        let mut num_regs = func.inst_arena_len();
        // Defensive: out-of-arena InstIds (impossible via the builder/parser,
        // but InstId is a public tuple struct) still get a register slot so
        // reads report "use before defined" instead of panicking.
        for (_, inst) in func.iter_insts() {
            for op in inst.kind.operands() {
                if let Value::Inst(id) = op {
                    num_regs = num_regs.max(id.0 as usize + 1);
                }
            }
        }
        let blocks: Vec<CBlock> =
            func.blocks().iter().map(|b| compile_block(func, &b.insts)).collect();
        let plane = crate::plane::PlanePlan::compile(func);
        Self { blocks, num_regs, num_params: func.params.len(), plane }
    }

    /// The plane-form lowering of this function, if it is eligible (see
    /// [`PlanePlan::compile`](crate::plane::PlanePlan::compile) for the
    /// eligibility rules). Callers sweeping many scalar-integer inputs
    /// should prefer [`PlanePlan::evaluate_lanes`](crate::plane::PlanePlan::evaluate_lanes)
    /// and fall back to [`evaluate_with_limit`](Self::evaluate_with_limit),
    /// one input at a time, when this returns `None`.
    pub fn plane(&self) -> Option<&crate::plane::PlanePlan> {
        self.plane.as_ref()
    }

    /// Evaluates on `args` with the given initial memory and
    /// [`DEFAULT_STEP_LIMIT`].
    ///
    /// # Errors
    ///
    /// Returns [`Ub`] exactly when the reference evaluator would.
    pub fn evaluate(
        &self,
        arena: &mut EvalArena,
        args: &[EvalValue],
        memory: Memory,
    ) -> Result<EvalOutcome, Ub> {
        self.evaluate_with_limit(arena, args, memory, DEFAULT_STEP_LIMIT)
    }

    /// Evaluates with an explicit step limit.
    ///
    /// # Errors
    ///
    /// Returns [`Ub`] on immediate undefined behaviour or when more than
    /// `step_limit` instructions execute.
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks (same as the reference
    /// evaluator's `Function::entry`).
    pub fn evaluate_with_limit(
        &self,
        arena: &mut EvalArena,
        args: &[EvalValue],
        mut memory: Memory,
        step_limit: usize,
    ) -> Result<EvalOutcome, Ub> {
        if args.len() != self.num_params {
            return Err(Ub::new(format!(
                "called with {} arguments but the function has {} parameters",
                args.len(),
                self.num_params
            )));
        }
        assert!(!self.blocks.is_empty(), "function has no blocks");
        arena.reset(self.num_regs);
        let EvalArena { regs, phi_buf, .. } = arena;

        let mut current = 0u32;
        let mut previous: Option<u32> = None;
        let mut steps = 0usize;
        'blocks: loop {
            let block = &self.blocks[current as usize];

            // Phi nodes read their incoming values "in parallel" on block
            // entry, staged through the arena's reusable buffer.
            if !block.phis.is_empty() {
                let prev =
                    previous.ok_or_else(|| Ub::new("phi executed in the entry block"))?;
                phi_buf.clear();
                for phi in &block.phis {
                    let entry = phi
                        .incoming
                        .iter()
                        .find(|(bb, _)| *bb == prev)
                        .ok_or_else(|| Ub::new("phi has no entry for the executed predecessor"))?;
                    phi_buf.push((phi.dst, read(&entry.1, args, regs)?));
                }
                for (dst, v) in phi_buf.drain(..) {
                    regs[dst as usize] = Some(v);
                }
            }

            for step in &block.steps {
                steps += 1;
                if steps > step_limit {
                    return Err(Ub::new("execution step limit exceeded"));
                }
                match step {
                    CStep::Phi => {}
                    CStep::Ret(value) => {
                        let v = match value {
                            Some(v) => Some(read(v, args, regs)?),
                            None => None,
                        };
                        return Ok(EvalOutcome { result: v, memory, steps });
                    }
                    CStep::Br { cond, then_block, else_block } => {
                        let next = match cond {
                            None => *then_block,
                            Some(c) => {
                                let cv = read_ref(c, args, regs)?;
                                match cv.as_bool() {
                                    Some(true) => *then_block,
                                    Some(false) => else_block.expect("verified"),
                                    None => {
                                        return Err(Ub::new(
                                            "branch on a poison or undef condition",
                                        ))
                                    }
                                }
                            }
                        };
                        previous = Some(current);
                        current = next;
                        continue 'blocks;
                    }
                    CStep::Unreachable => {
                        return Err(Ub::new("executed an unreachable instruction"));
                    }
                    CStep::Inst { dst, op } => {
                        let v = eval_op(op, args, regs, &mut memory)?;
                        regs[*dst as usize] = Some(v);
                    }
                }
            }
            return Err(Ub::new("basic block fell through without a terminator"));
        }
    }
}

/// Evaluates `func` **directly**, with no [`CompiledFunction::compile`] step:
/// the register-file execution model of the compiled evaluator (dense
/// registers indexed by `InstId`, parallel phi staging, identical step
/// counting) applied to the raw [`Function`], resolving operands and
/// per-instruction metadata as it walks.
///
/// This is the *probe* evaluator of staged translation validation: a
/// candidate refuted by one of its first few inputs should cost a handful of
/// interpreter steps, not a full pre-decode of a function that is about to be
/// thrown away. Per-step operand resolution makes each evaluation somewhat
/// slower than a compiled one, so callers that sweep many inputs over the
/// same function should compile instead — the break-even point is a few
/// dozen evaluations.
///
/// # Errors
///
/// Returns [`Ub`] exactly when [`CompiledFunction::evaluate_with_limit`] (and
/// therefore the reference evaluator) would, with identical messages and
/// step counts.
///
/// # Panics
///
/// Panics if the function has no blocks, like the other evaluators.
pub fn evaluate_direct(
    func: &Function,
    arena: &mut EvalArena,
    args: &[EvalValue],
    mut memory: Memory,
    step_limit: usize,
) -> Result<EvalOutcome, Ub> {
    if args.len() != func.params.len() {
        return Err(Ub::new(format!(
            "called with {} arguments but the function has {} parameters",
            args.len(),
            func.params.len()
        )));
    }
    assert!(!func.blocks().is_empty(), "function has no blocks");
    // No defensive register-sizing scan here: out-of-arena InstIds (which
    // `CompiledFunction::compile` gives extra slots) are handled by the
    // bounds-checked register read in `read_raw`, which reports the same
    // "use before defined" UB an unwritten extra slot would.
    arena.reset(func.inst_arena_len());
    let EvalArena { regs, phi_buf, .. } = arena;

    let mut current = 0u32;
    let mut previous: Option<u32> = None;
    let mut steps = 0usize;
    'blocks: loop {
        let block = &func.blocks()[current as usize];

        // Parallel phi staging on block entry, exactly as the compiled
        // evaluator does with its pre-split phi list.
        let mut staged_phis = false;
        for &inst_id in &block.insts {
            if let InstKind::Phi { incoming } = &func.inst(inst_id).kind {
                let prev = previous.ok_or_else(|| Ub::new("phi executed in the entry block"))?;
                let entry = incoming
                    .iter()
                    .find(|(_, bb)| bb.0 == prev)
                    .ok_or_else(|| Ub::new("phi has no entry for the executed predecessor"))?;
                phi_buf.push((inst_id.0, read_raw(&entry.0, args, regs)?));
                staged_phis = true;
            }
        }
        if staged_phis {
            for (dst, v) in phi_buf.drain(..) {
                regs[dst as usize] = Some(v);
            }
        }

        for &inst_id in &block.insts {
            steps += 1;
            if steps > step_limit {
                return Err(Ub::new("execution step limit exceeded"));
            }
            let inst = func.inst(inst_id);
            match &inst.kind {
                InstKind::Phi { .. } => {}
                InstKind::Ret { value } => {
                    let v = match value {
                        Some(v) => Some(read_raw(v, args, regs)?),
                        None => None,
                    };
                    return Ok(EvalOutcome { result: v, memory, steps });
                }
                InstKind::Br { cond, then_block, else_block } => {
                    let next = match cond {
                        None => then_block.0,
                        Some(c) => {
                            let cv = read_raw(c, args, regs)?;
                            match cv.as_bool() {
                                Some(true) => then_block.0,
                                Some(false) => else_block.expect("verified").0,
                                None => {
                                    return Err(Ub::new(
                                        "branch on a poison or undef condition",
                                    ))
                                }
                            }
                        }
                    };
                    previous = Some(current);
                    current = next;
                    continue 'blocks;
                }
                InstKind::Unreachable => {
                    return Err(Ub::new("executed an unreachable instruction"));
                }
                kind => {
                    let v = eval_raw_op(func, inst, kind, args, regs, &mut memory)?;
                    regs[inst_id.0 as usize] = Some(v);
                }
            }
        }
        return Err(Ub::new("basic block fell through without a terminator"));
    }
}

/// A resolved raw operand: borrowed straight from the register file or the
/// argument list, or owned when a constant had to be converted. Keeps the
/// direct evaluator's hot arms clone-free for the common register/argument
/// operands.
enum RawVal<'v> {
    Borrowed(&'v EvalValue),
    Owned(EvalValue),
}

impl RawVal<'_> {
    #[inline(always)]
    fn get(&self) -> &EvalValue {
        match self {
            RawVal::Borrowed(v) => v,
            RawVal::Owned(v) => v,
        }
    }

    #[inline(always)]
    fn into_owned(self) -> EvalValue {
        match self {
            RawVal::Borrowed(v) => v.clone(),
            RawVal::Owned(v) => v,
        }
    }
}

/// Resolves a raw [`Value`] operand against the register file. Constants are
/// converted per read — the cost [`evaluate_direct`] pays for skipping the
/// compile step. Register reads are bounds-checked, so out-of-arena InstIds
/// report the same "use before defined" UB the compiled evaluator's extra
/// defensive slots produce.
#[inline(always)]
fn read_raw_ref<'v>(
    v: &'v Value,
    args: &'v [EvalValue],
    regs: &'v [Option<EvalValue>],
) -> Result<RawVal<'v>, Ub> {
    match v {
        Value::Arg(i) => match args.get(*i) {
            Some(v) => Ok(RawVal::Borrowed(v)),
            None => Err(Ub::new(format!("argument #{i} out of range"))),
        },
        Value::Inst(id) => match regs.get(id.0 as usize) {
            Some(Some(v)) => Ok(RawVal::Borrowed(v)),
            _ => Err(Ub::new("use of a value before it is defined")),
        },
        Value::Const(c) => Ok(RawVal::Owned(EvalValue::from_constant(c))),
    }
}

/// [`read_raw_ref`] for the places that need ownership (phi staging,
/// returns, intrinsic argument buffers, inserted elements).
#[inline(always)]
fn read_raw(
    v: &Value,
    args: &[EvalValue],
    regs: &[Option<EvalValue>],
) -> Result<EvalValue, Ub> {
    Ok(read_raw_ref(v, args, regs)?.into_owned())
}

/// Executes one non-terminator instruction straight from its [`InstKind`],
/// resolving the metadata [`compile_op`] would have pre-computed.
fn eval_raw_op(
    func: &Function,
    inst: &lpo_ir::instruction::Instruction,
    kind: &InstKind,
    args: &[EvalValue],
    regs: &[Option<EvalValue>],
    memory: &mut Memory,
) -> Result<EvalValue, Ub> {
    match kind {
        InstKind::Binary { op, lhs, rhs, flags } => {
            let a = read_raw_ref(lhs, args, regs)?;
            let b = read_raw_ref(rhs, args, regs)?;
            if let Some(ub) = divisor_ub(*op, b.get(), matches!(rhs, Value::Const(_))) {
                return Err(ub);
            }
            elementwise2_static(a.get(), b.get(), |x, y| eval_binop(*op, x, y, flags))
        }
        InstKind::FBinary { op, lhs, rhs, fmf } => {
            let a = read_raw_ref(lhs, args, regs)?;
            let b = read_raw_ref(rhs, args, regs)?;
            elementwise2_static(a.get(), b.get(), |x, y| eval_fbinop(*op, fmf, x, y))
        }
        InstKind::ICmp { pred, lhs, rhs } => {
            let a = read_raw_ref(lhs, args, regs)?;
            let b = read_raw_ref(rhs, args, regs)?;
            elementwise2_static(a.get(), b.get(), |x, y| eval_icmp(*pred, x, y))
        }
        InstKind::FCmp { pred, lhs, rhs } => {
            let a = read_raw_ref(lhs, args, regs)?;
            let b = read_raw_ref(rhs, args, regs)?;
            elementwise2_static(a.get(), b.get(), |x, y| match (x.as_float(), y.as_float()) {
                (Some(xa), Some(ya)) => Ok(EvalValue::bool(eval_fcmp(*pred, xa, ya))),
                _ => Ok(EvalValue::Poison),
            })
        }
        InstKind::Select { cond, on_true, on_false } => {
            let c = read_raw_ref(cond, args, regs)?;
            let t = read_raw_ref(on_true, args, regs)?;
            let f = read_raw_ref(on_false, args, regs)?;
            eval_select(c.get(), t.get(), f.get())
        }
        InstKind::Cast { op, value, flags } => {
            let v = read_raw_ref(value, args, regs)?;
            let to_scalar = inst.ty.scalar_type();
            elementwise1_static(v.get(), |x| eval_cast(*op, x, to_scalar, flags))
        }
        InstKind::Call { intrinsic, args: call_args, .. } => {
            if call_args.len() <= 3 {
                let mut vals: [EvalValue; 3] =
                    [EvalValue::Undef, EvalValue::Undef, EvalValue::Undef];
                for (slot, a) in vals.iter_mut().zip(call_args) {
                    *slot = read_raw(a, args, regs)?;
                }
                eval_intrinsic(*intrinsic, &vals[..call_args.len()])
            } else {
                let vals: Vec<EvalValue> = call_args
                    .iter()
                    .map(|a| read_raw(a, args, regs))
                    .collect::<Result<_, _>>()?;
                eval_intrinsic(*intrinsic, &vals)
            }
        }
        InstKind::Load { ptr, .. } => {
            let p = read_raw_ref(ptr, args, regs)?;
            eval_load(p.get(), &inst.ty, memory)
        }
        InstKind::Store { value, ptr, .. } => {
            let v = read_raw_ref(value, args, regs)?;
            let p = read_raw_ref(ptr, args, regs)?;
            eval_store(v.get(), p.get(), &operand_type(func, value), memory)
        }
        InstKind::Gep { elem_ty, base, index, inbounds, nuw } => {
            let b = read_raw_ref(base, args, regs)?;
            let i = read_raw_ref(index, args, regs)?;
            eval_gep(b.get(), i.get(), elem_ty.size_in_bytes() as i64, *inbounds, *nuw, memory)
        }
        InstKind::Alloca { ty } => {
            let id = memory.allocate_zeroed(ty.size_in_bytes() as usize);
            Ok(EvalValue::Ptr(PtrValue { alloc: id, offset: 0 }))
        }
        InstKind::ExtractElement { vector, index } => {
            let v = read_raw_ref(vector, args, regs)?;
            let i = read_raw_ref(index, args, regs)?;
            eval_extractelement(v.get(), i.get())
        }
        InstKind::InsertElement { vector, element, index } => {
            let v = read_raw_ref(vector, args, regs)?;
            let e = read_raw(element, args, regs)?;
            let i = read_raw_ref(index, args, regs)?;
            eval_insertelement(v.get(), e, i.get(), inst.ty.lanes().unwrap_or(1) as usize)
        }
        InstKind::ShuffleVector { a, b, mask } => {
            let av = read_raw_ref(a, args, regs)?;
            let bv = read_raw_ref(b, args, regs)?;
            eval_shufflevector(av.get(), bv.get(), mask)
        }
        InstKind::Freeze { value } => {
            let v = read_raw_ref(value, args, regs)?;
            Ok(freeze(v.get(), &inst.ty))
        }
        InstKind::Phi { .. } | InstKind::Ret { .. } | InstKind::Br { .. } | InstKind::Unreachable => {
            unreachable!("terminators and phis handled by evaluate_direct")
        }
    }
}

/// Reads an operand value by reference — the hot path hands borrowed values
/// straight to the scalar kernels, so no 48-byte `EvalValue` is copied per
/// operand.
#[inline(always)]
fn read_ref<'v>(
    op: &'v COperand,
    args: &'v [EvalValue],
    regs: &'v [Option<EvalValue>],
) -> Result<&'v EvalValue, Ub> {
    match op {
        COperand::Arg(i) => match args.get(*i as usize) {
            Some(v) => Ok(v),
            None => Err(Ub::new(format!("argument #{i} out of range"))),
        },
        COperand::Reg(r) => match &regs[*r as usize] {
            Some(v) => Ok(v),
            None => Err(Ub::new("use of a value before it is defined")),
        },
        COperand::Const(v) => Ok(v),
    }
}

/// Reads an operand value by clone, for the few places that need ownership
/// (phi staging, returns, intrinsic argument buffers).
#[inline(always)]
fn read(
    op: &COperand,
    args: &[EvalValue],
    regs: &[Option<EvalValue>],
) -> Result<EvalValue, Ub> {
    read_ref(op, args, regs).cloned()
}

#[inline(always)]
fn eval_op(
    op: &COp,
    args: &[EvalValue],
    regs: &[Option<EvalValue>],
    memory: &mut Memory,
) -> Result<EvalValue, Ub> {
    match op {
        COp::Binary { op, flags, lhs, rhs } => {
            let a = read_ref(lhs, args, regs)?;
            let b = read_ref(rhs, args, regs)?;
            if let Some(ub) = divisor_ub(*op, b, matches!(rhs, COperand::Const(_))) {
                return Err(ub);
            }
            elementwise2_static(a, b, |x, y| eval_binop(*op, x, y, flags))
        }
        COp::FBinary { op, fmf, lhs, rhs } => {
            let a = read_ref(lhs, args, regs)?;
            let b = read_ref(rhs, args, regs)?;
            elementwise2_static(a, b, |x, y| eval_fbinop(*op, fmf, x, y))
        }
        COp::ICmp { pred, lhs, rhs } => {
            let a = read_ref(lhs, args, regs)?;
            let b = read_ref(rhs, args, regs)?;
            elementwise2_static(a, b, |x, y| eval_icmp(*pred, x, y))
        }
        COp::FCmp { pred, lhs, rhs } => {
            let a = read_ref(lhs, args, regs)?;
            let b = read_ref(rhs, args, regs)?;
            elementwise2_static(a, b, |x, y| match (x.as_float(), y.as_float()) {
                (Some(xa), Some(ya)) => Ok(EvalValue::bool(eval_fcmp(*pred, xa, ya))),
                _ => Ok(EvalValue::Poison),
            })
        }
        COp::Select { cond, on_true, on_false } => {
            let c = read_ref(cond, args, regs)?;
            let t = read_ref(on_true, args, regs)?;
            let f = read_ref(on_false, args, regs)?;
            eval_select(c, t, f)
        }
        COp::Cast { op, flags, value, to_scalar } => {
            let v = read_ref(value, args, regs)?;
            elementwise1_static(v, |x| eval_cast(*op, x, to_scalar, flags))
        }
        COp::Call { intrinsic, args: call_args } => {
            // Intrinsic arity is at most 3; a fixed buffer keeps the hot path
            // allocation-free.
            if call_args.len() <= 3 {
                let mut vals: [EvalValue; 3] =
                    [EvalValue::Undef, EvalValue::Undef, EvalValue::Undef];
                for (slot, a) in vals.iter_mut().zip(call_args) {
                    *slot = read(a, args, regs)?;
                }
                eval_intrinsic(*intrinsic, &vals[..call_args.len()])
            } else {
                let vals: Vec<EvalValue> =
                    call_args.iter().map(|a| read(a, args, regs)).collect::<Result<_, _>>()?;
                eval_intrinsic(*intrinsic, &vals)
            }
        }
        COp::Load { ptr, ty } => {
            let p = read_ref(ptr, args, regs)?;
            eval_load(p, ty, memory)
        }
        COp::Store { value, ptr, vty } => {
            let v = read_ref(value, args, regs)?;
            let p = read_ref(ptr, args, regs)?;
            eval_store(v, p, vty, memory)
        }
        COp::Gep { base, index, elem_size, inbounds, nuw } => {
            let b = read_ref(base, args, regs)?;
            let i = read_ref(index, args, regs)?;
            eval_gep(b, i, *elem_size, *inbounds, *nuw, memory)
        }
        COp::Alloca { size } => {
            let id = memory.allocate_zeroed(*size);
            Ok(EvalValue::Ptr(PtrValue { alloc: id, offset: 0 }))
        }
        COp::ExtractElement { vector, index } => {
            let v = read_ref(vector, args, regs)?;
            let i = read_ref(index, args, regs)?;
            eval_extractelement(v, i)
        }
        COp::InsertElement { vector, element, index, lanes: lanes_count } => {
            let v = read_ref(vector, args, regs)?;
            let e = read(element, args, regs)?;
            let i = read_ref(index, args, regs)?;
            eval_insertelement(v, e, i, *lanes_count)
        }
        COp::ShuffleVector { a, b, mask } => {
            let av = read_ref(a, args, regs)?;
            let bv = read_ref(b, args, regs)?;
            eval_shufflevector(av, bv, mask)
        }
        COp::Freeze { value, ty } => {
            let v = read_ref(value, args, regs)?;
            Ok(freeze(v, ty))
        }
    }
}

fn compile_operand(v: &Value) -> COperand {
    match v {
        Value::Arg(i) => COperand::Arg(*i as u32),
        Value::Inst(id) => COperand::Reg(id.0),
        Value::Const(c) => COperand::Const(EvalValue::from_constant(c)),
    }
}

/// The result type of an operand, without panicking on malformed references
/// (a runtime operand read reports those as UB before the type is used).
fn operand_type(func: &Function, v: &Value) -> Type {
    match v {
        Value::Arg(i) => func.params.get(*i).map(|p| p.ty.clone()).unwrap_or(Type::Void),
        Value::Inst(id) => {
            if (id.0 as usize) < func.inst_arena_len() {
                func.inst(*id).ty.clone()
            } else {
                Type::Void
            }
        }
        Value::Const(c) => c.ty(),
    }
}

fn compile_block(func: &Function, insts: &[lpo_ir::instruction::InstId]) -> CBlock {
    let mut phis = Vec::new();
    let mut steps = Vec::with_capacity(insts.len());
    for &inst_id in insts {
        let inst = func.inst(inst_id);
        let step = match &inst.kind {
            InstKind::Phi { incoming } => {
                phis.push(CPhi {
                    dst: inst_id.0,
                    incoming: incoming
                        .iter()
                        .map(|(v, bb)| (bb.0, compile_operand(v)))
                        .collect(),
                });
                CStep::Phi
            }
            InstKind::Ret { value } => CStep::Ret(value.as_ref().map(compile_operand)),
            InstKind::Br { cond, then_block, else_block } => CStep::Br {
                cond: cond.as_ref().map(compile_operand),
                then_block: then_block.0,
                else_block: else_block.map(|b| b.0),
            },
            InstKind::Unreachable => CStep::Unreachable,
            other => CStep::Inst { dst: inst_id.0, op: compile_op(func, inst, other) },
        };
        steps.push(step);
    }
    CBlock { phis, steps }
}

fn compile_op(func: &Function, inst: &lpo_ir::instruction::Instruction, kind: &InstKind) -> COp {
    match kind {
        InstKind::Binary { op, lhs, rhs, flags } => COp::Binary {
            op: *op,
            flags: *flags,
            lhs: compile_operand(lhs),
            rhs: compile_operand(rhs),
        },
        InstKind::FBinary { op, lhs, rhs, fmf } => COp::FBinary {
            op: *op,
            fmf: *fmf,
            lhs: compile_operand(lhs),
            rhs: compile_operand(rhs),
        },
        InstKind::ICmp { pred, lhs, rhs } => {
            COp::ICmp { pred: *pred, lhs: compile_operand(lhs), rhs: compile_operand(rhs) }
        }
        InstKind::FCmp { pred, lhs, rhs } => {
            COp::FCmp { pred: *pred, lhs: compile_operand(lhs), rhs: compile_operand(rhs) }
        }
        InstKind::Select { cond, on_true, on_false } => COp::Select {
            cond: compile_operand(cond),
            on_true: compile_operand(on_true),
            on_false: compile_operand(on_false),
        },
        InstKind::Cast { op, value, flags } => COp::Cast {
            op: *op,
            flags: *flags,
            value: compile_operand(value),
            to_scalar: inst.ty.scalar_type().clone(),
        },
        InstKind::Call { intrinsic, args, .. } => COp::Call {
            intrinsic: *intrinsic,
            args: args.iter().map(compile_operand).collect(),
        },
        InstKind::Load { ptr, .. } => {
            COp::Load { ptr: compile_operand(ptr), ty: inst.ty.clone() }
        }
        InstKind::Store { value, ptr, .. } => COp::Store {
            value: compile_operand(value),
            ptr: compile_operand(ptr),
            vty: operand_type(func, value),
        },
        InstKind::Gep { elem_ty, base, index, inbounds, nuw } => COp::Gep {
            base: compile_operand(base),
            index: compile_operand(index),
            elem_size: elem_ty.size_in_bytes() as i64,
            inbounds: *inbounds,
            nuw: *nuw,
        },
        InstKind::Alloca { ty } => COp::Alloca { size: ty.size_in_bytes() as usize },
        InstKind::ExtractElement { vector, index } => COp::ExtractElement {
            vector: compile_operand(vector),
            index: compile_operand(index),
        },
        InstKind::InsertElement { vector, element, index } => COp::InsertElement {
            vector: compile_operand(vector),
            element: compile_operand(element),
            index: compile_operand(index),
            lanes: inst.ty.lanes().unwrap_or(1) as usize,
        },
        InstKind::ShuffleVector { a, b, mask } => COp::ShuffleVector {
            a: compile_operand(a),
            b: compile_operand(b),
            mask: mask.clone(),
        },
        InstKind::Freeze { value } => {
            COp::Freeze { value: compile_operand(value), ty: inst.ty.clone() }
        }
        InstKind::Phi { .. } | InstKind::Ret { .. } | InstKind::Br { .. } | InstKind::Unreachable => {
            unreachable!("terminators and phis handled by compile_block")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate_reference, DEFAULT_STEP_LIMIT};
    use lpo_ir::parser::parse_function;

    fn both(
        text: &str,
        args: &[EvalValue],
        memory: Memory,
    ) -> (Result<EvalOutcome, Ub>, Result<EvalOutcome, Ub>) {
        let f = parse_function(text).unwrap();
        let compiled = CompiledFunction::compile(&f);
        let mut arena = EvalArena::new();
        let fast = compiled.evaluate_with_limit(&mut arena, args, memory.clone(), DEFAULT_STEP_LIMIT);
        let slow = evaluate_reference(&f, args, memory, DEFAULT_STEP_LIMIT);
        (fast, slow)
    }

    #[test]
    fn matches_reference_on_straightline_code() {
        let src = "define i8 @src(i32 %0) {\n\
            %2 = icmp slt i32 %0, 0\n\
            %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
            %4 = trunc nuw i32 %3 to i8\n\
            %5 = select i1 %2, i8 0, i8 %4\n\
            ret i8 %5\n}";
        for x in [-5i128, 0, 42, 255, 300, i32::MAX as i128, i32::MIN as i128] {
            let (fast, slow) = both(src, &[EvalValue::int_signed(32, x)], Memory::new());
            assert_eq!(fast, slow, "diverged at {x}");
        }
    }

    #[test]
    fn matches_reference_on_loops_and_step_limits() {
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
        let parsed = parse_function(f).unwrap();
        let compiled = CompiledFunction::compile(&parsed);
        let mut arena = EvalArena::new();
        for limit in [10, 100, DEFAULT_STEP_LIMIT] {
            for n in [0u128, 5, 50] {
                let args = [EvalValue::int(32, n)];
                let fast = compiled.evaluate_with_limit(&mut arena, &args, Memory::new(), limit);
                let slow = evaluate_reference(&parsed, &args, Memory::new(), limit);
                assert_eq!(fast, slow, "diverged at n={n} limit={limit}");
            }
        }
    }

    #[test]
    fn matches_reference_on_memory_and_ub() {
        let g = "define void @g(ptr %p) {\n\
            %q = getelementptr i32, ptr %p, i64 100\n\
            store i32 1, ptr %q, align 4\n\
            ret void\n}";
        let mut mem = Memory::new();
        let alloc = mem.allocate_zeroed(64);
        let args = [EvalValue::Ptr(PtrValue { alloc, offset: 0 })];
        let (fast, slow) = both(g, &args, mem);
        assert_eq!(fast, slow);
        assert!(fast.is_err());

        let store = "define i32 @f(ptr %p) {\n\
            store i32 77, ptr %p, align 4\n\
            %v = load i32, ptr %p, align 4\n\
            ret i32 %v\n}";
        let mut mem = Memory::new();
        let alloc = mem.allocate_zeroed(64);
        let args = [EvalValue::Ptr(PtrValue { alloc, offset: 0 })];
        let (fast, slow) = both(store, &args, mem);
        assert_eq!(fast, slow);
        let out = fast.unwrap();
        assert_eq!(out.result, Some(EvalValue::int(32, 77)));
        // Memory (and the steps count) must match byte-for-byte.
        assert_eq!(out.steps, 3);
    }

    #[test]
    fn arena_reuse_is_clean_across_evaluations() {
        let a = parse_function("define i32 @a(i32 %x) {\n %r = add i32 %x, 1\n ret i32 %r\n}").unwrap();
        let b = parse_function(
            "define i32 @b(i32 %x) {\n %p = mul i32 %x, 3\n %q = add i32 %p, %x\n ret i32 %q\n}",
        )
        .unwrap();
        let ca = CompiledFunction::compile(&a);
        let cb = CompiledFunction::compile(&b);
        let mut arena = EvalArena::new();
        for i in 0..100u128 {
            let ra = ca.evaluate(&mut arena, &[EvalValue::int(32, i)], Memory::new()).unwrap();
            assert_eq!(ra.result, Some(EvalValue::int(32, (i + 1) & 0xffff_ffff)));
            let rb = cb.evaluate(&mut arena, &[EvalValue::int(32, i)], Memory::new()).unwrap();
            assert_eq!(rb.result, Some(EvalValue::int(32, (i * 4) & 0xffff_ffff)));
        }
    }

    /// Shapes covering every evaluator feature: straight-line int/intrinsic
    /// code, loops + phis, memory traffic, vectors, UB, and arity errors.
    const SHAPES: [&str; 4] = [
        "define i8 @clamp(i8 %0) {\n\
         %2 = icmp slt i8 %0, 0\n\
         %3 = call i8 @llvm.umin.i8(i8 %0, i8 63)\n\
         %4 = select i1 %2, i8 0, i8 %3\n\
         ret i8 %4\n}",
        "define i32 @sum(i32 %n) {\n\
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
         exit:\n  ret i32 %acc\n}",
        "define i32 @mem(ptr %p, i32 %x) {\n\
         %q = getelementptr i32, ptr %p, i64 1\n\
         store i32 %x, ptr %q, align 4\n\
         %v = load i32, ptr %q, align 4\n\
         %d = udiv i32 %v, %x\n\
         ret i32 %d\n}",
        "define <4 x i8> @vec(<4 x i8> %x) {\n\
         %s = shl <4 x i8> %x, splat (i8 1)\n\
         %f = freeze <4 x i8> %s\n\
         ret <4 x i8> %f\n}",
    ];

    fn shape_inputs(text: &str) -> Vec<(Vec<EvalValue>, Memory)> {
        let mut inputs = Vec::new();
        match text {
            t if t.contains("@clamp") => {
                for x in [0u128, 1, 5, 63, 64, 127, 128, 200, 255] {
                    inputs.push((vec![EvalValue::int(8, x)], Memory::new()));
                }
            }
            t if t.contains("@sum") => {
                for n in [0i128, 1, 7, 50, -3] {
                    inputs.push((vec![EvalValue::int_signed(32, n)], Memory::new()));
                }
            }
            t if t.contains("@mem") => {
                for x in [0u128, 1, 77] {
                    let mut mem = Memory::new();
                    let alloc = mem.allocate_zeroed(64);
                    inputs.push((
                        vec![EvalValue::Ptr(PtrValue { alloc, offset: 0 }), EvalValue::int(32, x)],
                        mem,
                    ));
                }
            }
            _ => {
                inputs.push((
                    vec![EvalValue::Vector(vec![
                        EvalValue::int(8, 1),
                        EvalValue::int(8, 200),
                        EvalValue::Poison,
                        EvalValue::Undef,
                    ])],
                    Memory::new(),
                ));
            }
        }
        inputs
    }

    #[test]
    fn direct_evaluator_matches_compiled_everywhere() {
        let mut arena = EvalArena::new();
        for text in SHAPES {
            let func = parse_function(text).unwrap();
            let compiled = CompiledFunction::compile(&func);
            for limit in [6, DEFAULT_STEP_LIMIT] {
                for (args, memory) in shape_inputs(text) {
                    let fast =
                        compiled.evaluate_with_limit(&mut arena, &args, memory.clone(), limit);
                    let direct = evaluate_direct(&func, &mut arena, &args, memory, limit);
                    assert_eq!(fast, direct, "diverged on {text} (limit {limit})");
                }
            }
            // Arity error, same message.
            let fast = compiled.evaluate_with_limit(&mut arena, &[], Memory::new(), 100);
            let direct = evaluate_direct(&func, &mut arena, &[], Memory::new(), 100);
            assert_eq!(fast, direct);
            assert!(direct.is_err());
        }
    }

    /// A sweep evaluates input after input on one reused arena, as the
    /// survivor sweep's non-plane tail does. The arena carries no state from
    /// one input to the next: every input matches a fresh-arena evaluation.
    #[test]
    fn batched_sweep_matches_serial_everywhere() {
        let mut arena = EvalArena::new();
        let sweep = |compiled: &CompiledFunction,
                     arena: &mut EvalArena,
                     inputs: &[(Vec<EvalValue>, Memory)],
                     limit: usize| {
            inputs
                .iter()
                .map(|(args, memory)| compiled.evaluate_with_limit(arena, args, memory.clone(), limit))
                .collect::<Vec<_>>()
        };
        for text in SHAPES {
            let func = parse_function(text).unwrap();
            let compiled = CompiledFunction::compile(&func);
            for limit in [4, DEFAULT_STEP_LIMIT] {
                let inputs = shape_inputs(text);
                let swept = sweep(&compiled, &mut arena, &inputs, limit);
                let fresh: Vec<_> = inputs
                    .iter()
                    .map(|(args, memory)| {
                        compiled.evaluate_with_limit(&mut EvalArena::new(), args, memory.clone(), limit)
                    })
                    .collect();
                assert_eq!(swept, fresh, "sweep diverged on {text} (limit {limit})");
            }
        }
        // An empty input list and a wrong-arity input.
        let func = parse_function("define i32 @f(i32 %x) {\n ret i32 %x\n}").unwrap();
        let compiled = CompiledFunction::compile(&func);
        assert!(sweep(&compiled, &mut arena, &[], DEFAULT_STEP_LIMIT).is_empty());
        let bad = [(Vec::new(), Memory::new())];
        let out = sweep(&compiled, &mut arena, &bad, DEFAULT_STEP_LIMIT);
        let fresh = compiled.evaluate_with_limit(&mut EvalArena::new(), &[], Memory::new(), DEFAULT_STEP_LIMIT);
        assert!(out[0].is_err());
        assert_eq!(out[0], fresh);
    }

    #[test]
    fn batched_sweep_isolates_lanes() {
        // Memory and registers must not leak between consecutive inputs on
        // one arena: every input stores a different value through the same
        // code, into its own memory.
        let func = parse_function(
            "define i32 @f(ptr %p, i32 %x) {\n\
             store i32 %x, ptr %p, align 4\n\
             %v = load i32, ptr %p, align 4\n\
             ret i32 %v\n}",
        )
        .unwrap();
        let compiled = CompiledFunction::compile(&func);
        let mut arena = EvalArena::new();
        for i in 0..10u128 {
            let mut mem = Memory::new();
            let alloc = mem.allocate_zeroed(16);
            let args = [EvalValue::Ptr(PtrValue { alloc, offset: 0 }), EvalValue::int(32, i * 11)];
            let outcome =
                compiled.evaluate_with_limit(&mut arena, &args, mem, DEFAULT_STEP_LIMIT).unwrap();
            assert_eq!(outcome.result, Some(EvalValue::int(32, i * 11)));
            assert_eq!(outcome.steps, 3);
            // Each input's final memory holds its own stored value.
            let bytes = outcome.memory.allocation(0).unwrap().bytes().to_vec();
            assert_eq!(bytes[0] as u128, (i * 11) & 0xff);
        }
    }

    #[test]
    fn wrong_arity_matches_reference() {
        let (fast, slow) = both("define i32 @f(i32 %x) {\n ret i32 %x\n}", &[], Memory::new());
        assert_eq!(fast, slow);
        assert!(fast.is_err());
    }

    #[test]
    fn vector_paths_match_reference() {
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
        let (fast, slow) = both(f, &[input], Memory::new());
        assert_eq!(fast, slow);
    }
}
