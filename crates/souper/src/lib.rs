//! # lpo-souper
//!
//! An enumerative, CEGIS-flavoured superoptimizer baseline modelled on Souper
//! (Sasnauskas et al.), as used for comparison in the LPO paper.
//!
//! Faithful to the original's documented restrictions, this baseline:
//!
//! * only handles the **integer-only, scalar, memory-free** subset of the IR —
//!   functions containing loads/stores/GEPs, floating point, vectors or
//!   intrinsic calls are reported as [`Outcome::Unsupported`] (this is why the
//!   paper's Souper misses the `llvm.umin.*` clamp of Figure 1 and both
//!   memory/FP case studies);
//! * synthesizes replacement candidates by enumerating instruction DAGs of
//!   bounded size (`enum_depth`, the paper's `Enum` parameter, 0–3) over the
//!   function arguments and a small constant pool;
//! * verifies each candidate with the translation validator and accepts the
//!   first strictly cheaper one, CEGIS-style: every `op a, b` of a frontier
//!   base is first screened in one plane step per op on input 0, then the
//!   pairs input 0 passes in one more step on the last few inputs that
//!   refuted a candidate of this search (a [`RowScreen`]); a candidate
//!   that survives is one plane step checked against the case's frozen
//!   source table, and only one neither refutes is built as a function and
//!   verified. The cases of a batch share their compiled candidates and,
//!   per signature, their test inputs;
//! * models the cost of the search: enumerative synthesis time grows steeply
//!   with `Enum`, so each run reports both the real elapsed time and a
//!   *modelled* time derived from the number of candidates explored,
//!   calibrated against Table 4 of the paper (see `EXPERIMENTS.md`).
//!
//! See `ARCHITECTURE.md` at the repository root for the workspace crate
//! graph and where this crate sits in the three-stage verification flow.

use lpo::exec::ExecConfig;
use lpo::shard::ShardRuntime;
use lpo_ir::apint::ApInt;
use lpo_ir::flags::IntFlags;
use lpo_ir::function::Function;
use lpo_ir::instruction::{BinOp, ICmpPred, InstId, InstKind, Instruction, Value};
use lpo_ir::types::Type;
use lpo_tv::inputs::{InputCache, InputConfig};
use lpo_tv::prelude::{EvalArena, PlaneTape, RowScreen};
use lpo_tv::refine::{CompileCache, SourceCache, TvConfig};
use std::cell::RefCell;
use std::time::{Duration, Instant};

#[cfg(test)]
mod reference;

/// Configuration of a Souper run.
#[derive(Clone, Debug)]
pub struct SouperConfig {
    /// The `Enum` parameter: maximum number of synthesized instructions.
    /// `0` is the default configuration the paper calls Souper-Default.
    pub enum_depth: u32,
    /// The per-case timeout applied to the *modelled* time (the paper uses 20 minutes).
    pub timeout: Duration,
    /// Hard cap on candidates explored per case, to bound real wall-clock time.
    pub candidate_budget: usize,
}

impl Default for SouperConfig {
    fn default() -> Self {
        Self { enum_depth: 0, timeout: Duration::from_secs(20 * 60), candidate_budget: 5_000 }
    }
}

impl SouperConfig {
    /// The default configuration (`Enum = 0`).
    pub fn default_mode() -> Self {
        Self::default()
    }

    /// An enumerative configuration with the given `Enum` value (1–3 in the paper).
    pub fn with_enum(enum_depth: u32) -> Self {
        Self { enum_depth, ..Self::default() }
    }
}

/// The result category of one Souper run.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// A strictly cheaper, verified replacement was found.
    Found(Function),
    /// The search space was exhausted without finding a replacement.
    NotFound,
    /// The input uses instructions outside Souper's supported subset.
    Unsupported(String),
    /// The (modelled) search exceeded the timeout.
    Timeout,
}

/// The outcome plus time accounting for one case.
#[derive(Clone, Debug)]
pub struct SouperResult {
    /// What happened.
    pub outcome: Outcome,
    /// Real wall-clock time spent by this reproduction.
    pub elapsed: Duration,
    /// Modelled time a real Souper run of this configuration would take,
    /// derived from the number of candidates explored (calibrated to Table 4).
    pub modeled: Duration,
    /// How many candidates were enumerated and checked.
    pub candidates_tried: usize,
    /// The search phase that produced a [`Outcome::Found`]: `Some(0)` for the
    /// depth-0 leaf scan, `Some(d)` for a replacement with `d` synthesized
    /// instructions, `None` otherwise.
    ///
    /// Because a run at `enum_depth = d` explores exactly the same candidates
    /// in the same order as the depth-`d` prefix of a deeper run (same budget
    /// counter, same pruning), `found_at_depth <= d` on a deep run tells you
    /// precisely what a shallower run would have concluded, as long as the
    /// budget binds before the modelled timeout. Table 2's RQ1 driver relies
    /// on this: it runs one `Enum = 2` search per case instead of one per
    /// level. Table 4 and the corpus-discover benchmark still run every
    /// level as its own search.
    pub found_at_depth: Option<u32>,
}

impl SouperResult {
    /// Returns `true` if a replacement was found.
    pub fn found(&self) -> bool {
        matches!(self.outcome, Outcome::Found(_))
    }
}

/// Returns `Some(reason)` if the function is outside Souper's supported subset.
pub fn unsupported_reason(func: &Function) -> Option<String> {
    for p in &func.params {
        if p.ty.is_vector() {
            return Some("vector-typed parameter".to_string());
        }
        if p.ty.is_float() {
            return Some("floating-point parameter".to_string());
        }
        if p.ty.is_ptr() {
            return Some("pointer parameter (memory is not supported)".to_string());
        }
    }
    if func.ret_ty.is_vector() || func.ret_ty.is_float_or_float_vector() {
        return Some("unsupported return type".to_string());
    }
    for (_, inst) in func.iter_insts() {
        match &inst.kind {
            InstKind::Load { .. } | InstKind::Store { .. } | InstKind::Gep { .. } | InstKind::Alloca { .. } => {
                return Some(format!("memory instruction '{}'", inst.kind.opcode_name()))
            }
            InstKind::FBinary { .. } | InstKind::FCmp { .. } => {
                return Some("floating-point instruction".to_string())
            }
            InstKind::Call { intrinsic, .. } => {
                return Some(format!("unsupported intrinsic 'llvm.{}'", intrinsic.short_name()))
            }
            InstKind::ShuffleVector { .. } | InstKind::ExtractElement { .. } | InstKind::InsertElement { .. } => {
                return Some("vector instruction".to_string())
            }
            _ => {}
        }
        if inst.ty.is_vector() {
            return Some("vector-typed instruction".to_string());
        }
    }
    None
}

fn quick_tv() -> TvConfig {
    TvConfig {
        inputs: InputConfig { exhaustive_bits: 10, random_samples: 48, seed: 0x50f4 },
        ..TvConfig::default()
    }
}

/// Per-candidate modelled synthesis cost in seconds, by `Enum` value. The
/// constants are calibrated so that the Table 4 reproduction lands near the
/// paper's per-case averages (2.8 s, 37.2 s, 144.4 s, 183.7 s).
fn modeled_seconds_per_candidate(enum_depth: u32) -> f64 {
    match enum_depth {
        0 => 0.09,
        1 => 0.055,
        2 => 0.0205,
        3 => 0.0069,
        _ => 0.005,
    }
}

/// Runs the superoptimizer over a batch of sequences on `jobs` worker
/// threads (`0` = available parallelism), returning results in input order.
///
/// The cases run on the engine's [`ShardRuntime`], each worker reusing one
/// evaluation arena. Each case is a pure function of `(func, config)`, so
/// the output is bit-identical for every worker count — the same contract
/// as the session engine in `lpo-core`, which is what lets the Table 4
/// drivers run the baselines and LPO side by side in parallel.
pub fn superoptimize_batch(
    functions: &[Function],
    config: &SouperConfig,
    jobs: usize,
) -> Vec<SouperResult> {
    let jobs = ExecConfig::with_jobs(jobs).effective_jobs(functions.len());
    // One compiled-function cache per batch: candidates that survive the
    // verifier's probe (leaf replacements like `ret %x` recur across every
    // case of a matching signature) compile once for the whole pool. One
    // input-set cache per batch: every case of a signature draws the same
    // test inputs. Cache hits cannot change outcomes, so the jobs-invariance
    // contract holds.
    let cache = CompileCache::new();
    let inputs = InputCache::new();
    ShardRuntime::new(jobs, Default::default()).run_cases(functions.len(), |index, arena| {
        search(&functions[index], config, &cache, &inputs, arena)
    })
}

/// Runs the superoptimizer on one wrapped instruction sequence.
pub fn superoptimize(func: &Function, config: &SouperConfig) -> SouperResult {
    search(func, config, &CompileCache::new(), &InputCache::new(), &mut EvalArena::new())
}

/// The enumerative search of one case, evaluating on `arena`. The
/// compiled-function and input-set caches are shared across a batch by
/// [`superoptimize_batch`]; they only affect wall-clock time, never
/// outcomes.
fn search(
    func: &Function,
    config: &SouperConfig,
    compile_cache: &CompileCache,
    input_cache: &InputCache,
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
    let case = SourceCache::new(func, quick_tv())
        .with_compile_cache(compile_cache)
        .with_input_cache(input_cache);
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

    // The plane filter: when the case is in the plane domain, every
    // candidate is first one plane step on the case's tape, checked against
    // the frozen source table. Only candidates the tape does not refute are
    // built as functions and verified.
    let mut filter = if original_cost > 0 { PlaneFilter::new(&case, &constants, arena) } else { None };
    let leaf = |filter: &Option<PlaneFilter>, value: Value| Leaf {
        ty: func.value_type(&value),
        plane: filter.as_ref().and_then(|f| f.plane_of(&value, &constants)),
        value,
    };

    // Depth 0: the replacement must be an existing value or a constant. One
    // scratch function is built on first use and re-pointed per candidate
    // with `set_operand` — the use-list-maintaining mutation API makes a
    // candidate cost one operand swap instead of a whole-function build.
    let leaf_candidates: Vec<Leaf> = pool
        .iter()
        .cloned()
        .chain(constants.iter().filter(|c| Some(c.width()) == ret_ty.int_width()).map(const_value))
        .map(|value| leaf(&filter, value))
        .collect();
    let mut leaf_scratch: Option<Function> = None;
    for candidate in &leaf_candidates {
        tried += 1;
        if candidate.ty != ret_ty || original_cost == 0 {
            continue;
        }
        if let (Some(f), Some(plane)) = (&mut filter, candidate.plane) {
            if f.refutes(&case, arena, |_| plane) {
                continue;
            }
        }
        let replacement = match &mut leaf_scratch {
            slot @ None => slot.insert(leaf_function(func, candidate.value.clone())),
            Some(scratch) => {
                let ret_id = *scratch.block(scratch.entry()).insts.last().expect("leaf has a ret");
                scratch.set_operand(ret_id, 0, candidate.value.clone());
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
        let args = pool.len();
        // The modelled-timeout test as one integer compare per candidate.
        let timeout_at = timeout_limit(config);
        // Operand pool: the (truncated) arguments, then every constant.
        let leaves: Vec<Leaf> = pool
            .iter()
            .cloned()
            .chain(constants.iter().map(const_value))
            .map(|value| leaf(&filter, value))
            .collect();
        // Comparison-shaped results first when the function returns i1: this is
        // the cheapest part of the space and where boolean sources usually land.
        if ret_ty == Type::i1() {
            // One scratch comparison, rewritten in place per verified (pred, a, b).
            let mut icmp_scratch: Option<Function> = None;
            let limit = config.candidate_budget.min(timeout_at);
            for pred in ICmpPred::ALL {
                for a in &leaves[..args] {
                    for b in &leaves {
                        tried += 1;
                        if tried >= limit {
                            return finish(start, Outcome::Timeout, tried, config, None);
                        }
                        if a.ty != b.ty || !a.ty.is_int() || original_cost <= 1 {
                            continue;
                        }
                        if let (Some(f), Some(pa), Some(pb)) = (&mut filter, a.plane, b.plane) {
                            if f.refutes(&case, arena, |tape| tape.icmp(pred, pa, pb)) {
                                continue;
                            }
                        }
                        let candidate = match &mut icmp_scratch {
                            slot @ None => slot.insert(icmp_function(func, pred, a.value.clone(), b.value.clone())),
                            Some(scratch) => {
                                let cmp_id = scratch.block(scratch.entry()).insts[0];
                                scratch.set_inst_kind(
                                    cmp_id,
                                    InstKind::ICmp { pred, lhs: a.value.clone(), rhs: b.value.clone() },
                                    Type::i1(),
                                );
                                scratch
                            }
                        };
                        if case.verify_outcome_only(candidate, arena) {
                            return finish(start, Outcome::Found(candidate.clone()), tried, config, Some(1));
                        }
                    }
                }
            }
        }
        /// Frontier cap per level (real Souper prunes aggressively).
        const FRONTIER_CAP: usize = 256;
        // A frontier base is the chain of instructions it synthesized; it is
        // put on the tape, or built as a function, only when its level is
        // reached and one of its candidates needs it. A level records its
        // extensions as (base, step) pairs and builds the next level's chains
        // only once it completes, so a search that stops inside a level
        // clones none.
        let mut frontier: Vec<Vec<Synth>> = vec![Vec::new()];
        for level in 0..config.enum_depth {
            let last_level = level + 1 == config.enum_depth;
            // Every candidate of this level has `level + 1` instructions; none
            // is verified unless that is cheaper than the source.
            let verifies = (level as usize + 1) < original_cost;
            let mut next: Vec<(usize, Synth)> = Vec::new();
            for (parent, chain) in frontier.iter().enumerate() {
                let base_planes = match &mut filter {
                    Some(f) if verifies => f.enter_base(chain, &leaves, &ret_ty),
                    _ => None,
                };
                let mut extension: Option<Extension> = None;
                let operands = (0..leaves.len()).map(Operand::Leaf).chain((0..chain.len()).map(Operand::Synth));
                for op in BinOp::ALL {
                    // Input 0 of every `op a, b` of the base in one plane
                    // step; only candidates it passes reach the tape.
                    if let (Some(f), Some(_)) = (&mut filter, &base_planes) {
                        f.row.screen(&case, op, &f.tape, &f.counterexamples, arena);
                    }
                    for (a_index, a) in operands.clone().enumerate() {
                        let a_ty = match a {
                            Operand::Leaf(i) => &leaves[i].ty,
                            Operand::Synth(_) => &ret_ty,
                        };
                        for (b, b_leaf) in leaves.iter().enumerate() {
                            if tried >= config.candidate_budget {
                                return finish(start, Outcome::Timeout, tried, config, None);
                            }
                            if *a_ty != b_leaf.ty || !a_ty.is_int() || *a_ty != ret_ty {
                                continue;
                            }
                            tried += 1;
                            if tried >= timeout_at {
                                return finish(start, Outcome::Timeout, tried, config, None);
                            }
                            let step = Synth { op, a, b };
                            if verifies {
                                let refuted = match (&mut filter, &base_planes) {
                                    (Some(f), Some(planes)) => {
                                        let plane_a = match a {
                                            Operand::Leaf(i) => leaves[i].plane,
                                            Operand::Synth(k) => Some(planes[k]),
                                        };
                                        match (plane_a, b_leaf.plane) {
                                            (Some(pa), Some(pb)) => {
                                                f.row.refuted(a_index, b)
                                                    || f.refutes(&case, arena, |tape| {
                                                        tape.binary(op, IntFlags::none(), pa, pb)
                                                    })
                                            }
                                            _ => false,
                                        }
                                    }
                                    _ => false,
                                };
                                if !refuted {
                                    let ext = extension.get_or_insert_with(|| Extension::new(func, &ret_ty, chain, &leaves));
                                    ext.rewrite(step, &leaves, &ret_ty);
                                    if case.verify_outcome_only(&ext.func, arena) {
                                        return finish(start, Outcome::Found(ext.func.clone()), tried, config, Some(level + 1));
                                    }
                                }
                            }
                            if !last_level && next.len() < FRONTIER_CAP {
                                next.push((parent, step));
                            }
                        }
                    }
                }
            }
            frontier = next
                .into_iter()
                .map(|(parent, step)| [&frontier[parent][..], &[step]].concat())
                .collect();
        }
    }

    finish(start, Outcome::NotFound, tried, config, None)
}

/// One enumeration operand: a pool leaf (by index) or the `k`-th
/// instruction the frontier base synthesized.
#[derive(Clone, Copy, Debug)]
enum Operand {
    Leaf(usize),
    Synth(usize),
}

/// One synthesized binary instruction; its left operand may be a leaf or an
/// earlier synthesized value, its right operand a leaf.
#[derive(Clone, Copy, Debug)]
struct Synth {
    op: BinOp,
    a: Operand,
    b: usize,
}

/// A candidate-pool value with its type and, under a plane filter, its
/// tape plane (`None` when the filter can't represent it).
struct Leaf {
    value: Value,
    ty: Type,
    plane: Option<usize>,
}

fn const_value(c: &ApInt) -> Value {
    Value::Const(lpo_ir::constant::Constant::Int(*c))
}

thread_local! {
    /// Each worker's row screen between searches, so its buffers are reused.
    static ROW_SCREEN: RefCell<RowScreen> = RefCell::default();
}

/// How many distinct counterexample inputs a search keeps for its row
/// screen. Not a knob: on the Table 4 sequences a cap of 2, 4, 8 or 16
/// left 9,447, 8,491, 8,483 and 8,483 per-candidate tape checks in an
/// `Enum = 1` pass, and the four ran equally fast.
const COUNTEREXAMPLES: usize = 4;

/// The plane filter of one search. The tape holds one plane per argument,
/// then one per pool constant, then the current frontier base's chain.
struct PlaneFilter {
    tape: PlaneTape,
    args: usize,
    consts: Vec<Option<usize>>,
    /// Input 0 and the counterexample inputs of every `op a, b` of the
    /// current base, one pair per lane: operand `i` of the level loop's
    /// operand order against leaf `j`.
    row: RowScreen,
    /// The last [`COUNTEREXAMPLES`] distinct inputs past input 0 that
    /// refuted a candidate on the tape, oldest first.
    counterexamples: Vec<usize>,
}

impl PlaneFilter {
    /// `None` when the case is outside the plane domain; every candidate is
    /// then verified unfiltered.
    fn new(case: &SourceCache, constants: &[ApInt], arena: &mut EvalArena) -> Option<Self> {
        let mut tape = case.plane_tape(arena)?;
        let args = tape.len();
        let consts = constants.iter().map(|c| tape.constant(c)).collect();
        Some(Self { tape, args, consts, row: ROW_SCREEN.take(), counterexamples: Vec::new() })
    }

    /// The plane holding an argument or pool constant.
    fn plane_of(&self, value: &Value, constants: &[ApInt]) -> Option<usize> {
        match value {
            Value::Arg(i) => (*i < self.args).then_some(*i),
            Value::Const(lpo_ir::constant::Constant::Int(c)) => {
                self.consts[constants.iter().position(|k| k == c)?]
            }
            _ => None,
        }
    }

    /// Whether the tape refutes the candidate whose value is the plane
    /// `push` returns — a leaf's plane, or one it records on the tape. A
    /// recorded plane is truncated away again. A refuting input past input
    /// 0 becomes the newest counterexample.
    fn refutes(
        &mut self,
        case: &SourceCache,
        arena: &mut EvalArena,
        push: impl FnOnce(&mut PlaneTape) -> usize,
    ) -> bool {
        let len = self.tape.len();
        let plane = push(&mut self.tape);
        let refuting = case.tape_refutes(&mut self.tape, plane, arena);
        self.tape.truncate(len);
        if let Some(input) = refuting.filter(|&input| input > 0) {
            self.counterexamples.retain(|&k| k != input);
            if self.counterexamples.len() == COUNTEREXAMPLES {
                self.counterexamples.remove(0);
            }
            self.counterexamples.push(input);
        }
        refuting.is_some()
    }

    /// Replaces the tape's base chain with `chain`, evaluated on every lane,
    /// loads the row screen with the base's `op a, b` pairs, and returns the
    /// chain's planes; `None` when an operand has no plane.
    fn enter_base(&mut self, chain: &[Synth], leaves: &[Leaf], ret_ty: &Type) -> Option<Vec<usize>> {
        self.tape.truncate(self.args + self.consts.len());
        let mut planes = Vec::with_capacity(chain.len());
        for step in chain {
            let a = match step.a {
                Operand::Leaf(i) => leaves[i].plane?,
                Operand::Synth(k) => planes[k],
            };
            let plane = self.tape.binary(step.op, IntFlags::none(), a, leaves[step.b].plane?);
            self.tape.run(plane, 0..self.tape.lanes());
            planes.push(plane);
        }
        // The row holds the pairs of return-width planes: exactly the pairs
        // the level loop pushes, as every plane is an integer.
        let leaf_planes: Vec<Option<usize>> = leaves.iter().map(|l| l.plane).collect();
        let operands: Vec<Option<usize>> =
            leaf_planes.iter().copied().chain(planes.iter().map(|&p| Some(p))).collect();
        let width = ret_ty.int_width().expect("the plane domain returns an integer");
        self.row.load(&self.tape, &operands, &leaf_planes, width);
        Some(planes)
    }
}

impl Drop for PlaneFilter {
    fn drop(&mut self) {
        ROW_SCREEN.set(std::mem::take(&mut self.row));
    }
}

/// A frontier base built as a function: its chain replayed through
/// [`extension_scratch`] level by level — the same mutations, so the same
/// instruction ids and names, as the scratch the base was enumerated from —
/// plus the synthesized slot its candidates rewrite.
struct Extension {
    func: Function,
    slot: InstId,
    synth: Vec<InstId>,
}

impl Extension {
    fn new(src: &Function, ret_ty: &Type, chain: &[Synth], leaves: &[Leaf]) -> Self {
        let (func, slot) = extension_scratch(&skeleton(src), ret_ty);
        let mut ext = Extension { func, slot, synth: Vec::with_capacity(chain.len()) };
        for step in chain {
            ext.rewrite(*step, leaves, ret_ty);
            ext.synth.push(ext.slot);
            (ext.func, ext.slot) = extension_scratch(&ext.func, ret_ty);
        }
        ext
    }

    /// Points the slot at `step`.
    fn rewrite(&mut self, step: Synth, leaves: &[Leaf], ret_ty: &Type) {
        let lhs = match step.a {
            Operand::Leaf(i) => leaves[i].value.clone(),
            Operand::Synth(k) => Value::Inst(self.synth[k]),
        };
        let kind = InstKind::Binary {
            op: step.op,
            lhs,
            rhs: leaves[step.b].value.clone(),
            flags: IntFlags::none(),
        };
        self.func.set_inst_kind(self.slot, kind, ret_ty.clone());
    }
}

fn modeled_time(tried: usize, config: &SouperConfig) -> Duration {
    Duration::from_secs_f64(0.4 + tried as f64 * modeled_seconds_per_candidate(config.enum_depth))
}

/// The first `tried` in `0..=candidate_budget` whose [`modeled_time`]
/// exceeds the timeout, or `usize::MAX` (a count no search reaches) when
/// none does. `modeled_time` is monotone in `tried`, so `tried >= limit`
/// is exactly `modeled_time(tried, config) > config.timeout` for every
/// count the enumeration loops compare, which never exceeds the budget.
fn timeout_limit(config: &SouperConfig) -> usize {
    let exceeds = |tried| modeled_time(tried, config) > config.timeout;
    let (mut lo, mut hi) = (0, config.candidate_budget);
    if !exceeds(hi) {
        return usize::MAX;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if exceeds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

fn finish(
    start: Instant,
    outcome: Outcome,
    tried: usize,
    config: &SouperConfig,
    found_at_depth: Option<u32>,
) -> SouperResult {
    let modeled = match outcome {
        Outcome::Timeout => config.timeout,
        _ => modeled_time(tried, config).min(config.timeout),
    };
    SouperResult { outcome, elapsed: start.elapsed(), modeled, candidates_tried: tried, found_at_depth }
}

/// A function that just returns `value`.
fn leaf_function(original: &Function, value: Value) -> Function {
    let mut f = Function::new("souper.tgt", original.ret_ty.clone());
    f.params = original.params.clone();
    let entry = f.entry();
    f.append_inst(entry, Instruction::new(InstKind::Ret { value: Some(value) }, Type::Void, ""));
    f
}

/// A copy of the signature with an empty body, used as the enumeration base.
fn skeleton(original: &Function) -> Function {
    let mut f = Function::new("souper.tgt", original.ret_ty.clone());
    f.params = original.params.clone();
    f
}

/// Builds the per-base enumeration scratch: the base body with one
/// synthesized binary-instruction slot (a placeholder immediately rewritten
/// by `set_inst_kind` per candidate) and a `ret` of that slot. Any `ret`
/// left by a previous extension level is dropped first, exactly as the old
/// per-candidate `extend` did.
fn extension_scratch(base: &Function, ret_ty: &Type) -> (Function, InstId) {
    let mut f = base.clone();
    let entry = f.entry();
    if let Some(&last) = f.block(entry).insts.last() {
        if f.inst(last).is_terminator() {
            f.erase_inst(last);
        }
    }
    let name = format!("s{}", f.total_instruction_count());
    let width = ret_ty.int_width().unwrap_or(32);
    let placeholder = Value::int(width, 0);
    let id = f.append_inst(
        entry,
        Instruction::new(
            InstKind::Binary {
                op: BinOp::Add,
                lhs: placeholder.clone(),
                rhs: placeholder,
                flags: IntFlags::none(),
            },
            ret_ty.clone(),
            name,
        ),
    );
    f.append_inst(entry, Instruction::new(InstKind::Ret { value: Some(Value::Inst(id)) }, Type::Void, ""));
    (f, id)
}

/// A single-icmp candidate for boolean-returning sources.
fn icmp_function(original: &Function, pred: ICmpPred, a: Value, b: Value) -> Function {
    let mut f = skeleton(original);
    let entry = f.entry();
    let id = f.append_inst(
        entry,
        Instruction::new(InstKind::ICmp { pred, lhs: a, rhs: b }, Type::i1(), "c"),
    );
    f.append_inst(entry, Instruction::new(InstKind::Ret { value: Some(Value::Inst(id)) }, Type::Void, ""));
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;

    #[test]
    fn quick_tv_and_default_tv_never_share_a_freeze() {
        // One compile cache, one source: LPO's default configuration sweeps
        // all 2^16 inputs and keeps the freeze; the search's quick one
        // samples far fewer than `RETAIN_MIN_LANES`, so it freezes its own
        // case every time and never picks up the other's.
        let src = parse_function("define i16 @s(i16 %x) {\n %r = add i16 %x, 1\n ret i16 %r\n}").unwrap();
        let cache = CompileCache::new();
        let mut arena = EvalArena::new();
        for config in [TvConfig::default(), quick_tv(), TvConfig::default(), quick_tv()] {
            let case = SourceCache::new(&src, config).with_compile_cache(&cache);
            assert!(case.verify_with(&src, &mut arena).is_correct());
        }
        assert_eq!((cache.freezes(), cache.freeze_hits()), (3, 1));
    }

    #[test]
    fn batch_is_ordered_and_jobs_invariant() {
        let texts = [
            "define i32 @a(i32 %x) {\n %r = add i32 %x, 0\n ret i32 %r\n}",
            "define i1 @b(i8 %x) {\n %a = xor i8 %x, 12\n %c = icmp eq i8 %a, 5\n ret i1 %c\n}",
            "define i32 @c(i32 %x, i32 %y) {\n %a = add i32 %x, %y\n %b = sub i32 %a, %y\n ret i32 %b\n}",
        ];
        let functions: Vec<Function> = texts.iter().map(|t| parse_function(t).unwrap()).collect();
        let mut config = SouperConfig::with_enum(1);
        config.candidate_budget = 400;
        let serial = superoptimize_batch(&functions, &config, 1);
        assert_eq!(serial.len(), functions.len());
        // `0` resolves to the host's cores and more jobs than cases clamp to
        // one worker per case; neither may change a result.
        for jobs in [0, 3, functions.len() + 5] {
            let parallel = superoptimize_batch(&functions, &config, jobs);
            assert_eq!(parallel.len(), functions.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.outcome, p.outcome, "jobs {jobs}");
                assert_eq!(s.candidates_tried, p.candidates_tried, "jobs {jobs}");
                assert_eq!(s.modeled, p.modeled, "jobs {jobs}");
                assert_eq!(s.found_at_depth, p.found_at_depth, "jobs {jobs}");
            }
        }
    }

    fn run(text: &str, enum_depth: u32) -> SouperResult {
        let f = parse_function(text).unwrap();
        superoptimize(&f, &SouperConfig::with_enum(enum_depth))
    }

    #[test]
    fn rejects_unsupported_instructions_like_the_real_tool() {
        // The clamp of Figure 1 uses llvm.umin — Souper cannot handle it.
        let r = run(
            "define i8 @src(i32 %0) {\n\
             %2 = icmp slt i32 %0, 0\n\
             %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
             %4 = trunc nuw i32 %3 to i8\n\
             %5 = select i1 %2, i8 0, i8 %4\n\
             ret i8 %5\n}",
            3,
        );
        assert!(matches!(&r.outcome, Outcome::Unsupported(reason) if reason.contains("umin")));

        let r = run("define double @f(double %x) {\n %r = fadd double %x, 1.0\n ret double %r\n}", 1);
        assert!(matches!(r.outcome, Outcome::Unsupported(_)));

        let r = run(
            "define i32 @f(ptr %p) {\n %v = load i32, ptr %p, align 4\n ret i32 %v\n}",
            1,
        );
        assert!(matches!(r.outcome, Outcome::Unsupported(_)));

        let r = run(
            "define <4 x i32> @f(<4 x i32> %x) {\n %r = add <4 x i32> %x, splat (i32 1)\n ret <4 x i32> %r\n}",
            1,
        );
        assert!(matches!(r.outcome, Outcome::Unsupported(_)));
    }

    #[test]
    fn default_mode_finds_identity_results() {
        // or (and x, 15), (and x, -16) == x — the result is an existing value,
        // findable even with Enum = 0.
        let r = run(
            "define i8 @f(i8 %x) {\n\
             %a = and i8 %x, 15\n\
             %b = and i8 %x, -16\n\
             %o = or i8 %a, %b\n\
             ret i8 %o\n}",
            0,
        );
        assert!(r.found(), "outcome: {:?}", r.outcome);
        assert!(r.candidates_tried > 0);

        // select (x == 0), 0, x == x as well.
        let r = run(
            "define i32 @f(i32 %x) {\n\
             %c = icmp eq i32 %x, 0\n\
             %s = select i1 %c, i32 0, i32 %x\n\
             ret i32 %s\n}",
            0,
        );
        assert!(r.found());
    }

    #[test]
    fn enumerative_mode_synthesizes_small_replacements() {
        // icmp eq (xor x, 12), 5  ==  icmp eq x, 9: needs Enum >= 1.
        let text = "define i1 @f(i8 %x) {\n %a = xor i8 %x, 12\n %c = icmp eq i8 %a, 5\n ret i1 %c\n}";
        let shallow = run(text, 0);
        assert!(!shallow.found());
        let deep = run(text, 2);
        assert!(deep.found(), "outcome: {:?}", deep.outcome);
        if let Outcome::Found(replacement) = &deep.outcome {
            assert!(replacement.instruction_count() < 2);
        }
    }

    #[test]
    fn enumeration_cost_grows_with_depth() {
        let text = "define i32 @f(i32 %x, i32 %y) {\n\
             %a = add i32 %x, %y\n\
             %b = mul i32 %a, 3\n\
             %c = sub i32 %b, %y\n\
             ret i32 %c\n}";
        let d0 = run(text, 0);
        let d2 = run(text, 2);
        assert!(!d0.found() && !d2.found());
        assert!(d2.candidates_tried > d0.candidates_tried);
        assert!(d2.modeled > d0.modeled);
    }

    #[test]
    fn timeout_is_modelled() {
        let f = parse_function(
            "define i64 @f(i64 %x, i64 %y, i64 %z) {\n\
             %a = mul i64 %x, %y\n\
             %b = add i64 %a, %z\n\
             %c = xor i64 %b, %x\n\
             %d = sub i64 %c, %y\n\
             ret i64 %d\n}",
        )
        .unwrap();
        let config = SouperConfig { enum_depth: 3, timeout: Duration::from_secs(30), candidate_budget: 100_000 };
        let r = superoptimize(&f, &config);
        assert_eq!(r.outcome, Outcome::Timeout);
        assert_eq!(r.modeled, config.timeout);
    }

    #[test]
    fn unsupported_reason_details() {
        let f = parse_function("define i32 @f(i32 %x) {\n %r = add i32 %x, 1\n ret i32 %r\n}").unwrap();
        assert!(unsupported_reason(&f).is_none());
        let g = parse_function("define void @g(ptr %p) {\n store i32 1, ptr %p, align 4\n ret void\n}").unwrap();
        assert!(unsupported_reason(&g).unwrap().contains("pointer"));
    }
}
