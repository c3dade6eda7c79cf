//! The refinement relation and the counterexample-producing checker.
//!
//! A transformation from `src` to `tgt` is *correct* when every behaviour of
//! `tgt` is allowed by `src` (Section 2.4 of the paper):
//!
//! * on any input where `src` has undefined behaviour, anything is allowed;
//! * where `src` returns `poison`, `tgt` may return anything;
//! * where `src` returns `undef`, `tgt` may return anything except `poison`;
//! * where `src` returns a concrete value, `tgt` must return the same value
//!   (lane-wise for vectors, with the poison/undef rules applied per lane);
//! * the final contents of the memory reachable from the arguments must refine
//!   byte-for-byte under the same rules.
//!
//! The check evaluates both functions on the inputs produced by
//! [`generate_inputs`](crate::inputs::generate_inputs), held as an
//! [`InputSet`]; a failure yields a
//! [`Counterexample`] formatted the way Alive2 reports them, which the LPO
//! pipeline feeds back to the LLM.
//!
//! # Staged verification
//!
//! Almost every candidate the discovery loop proposes is *wrong*, and wrong
//! candidates are usually refuted by one of the very first inputs. The
//! checker therefore runs in three stages (see `ARCHITECTURE.md`
//! § Translation validation hot path):
//!
//! 1. **Probe** — the first [`TvConfig::probe_inputs`] inputs are evaluated
//!    with [`lpo_interp::compiled::evaluate_direct`], straight off the raw
//!    [`Function`]: a candidate refuted here never pays
//!    [`CompiledFunction::compile`].
//! 2. **Lazy compile** — only probe survivors are compiled, through the
//!    structural-hash-keyed [`CompileCache`] when one is attached, so
//!    syntactically distinct but structurally identical candidates compile
//!    once per worker pool.
//! 3. **Sweep** — the survivor freezes the case (every source outcome is
//!    computed once, see [`SourceCache::frozen_case`], or taken from a
//!    freeze the attached [`CompileCache`] kept) and the remaining
//!    inputs run as [`SweepShard`]s, merged in shard order; the serial
//!    entry points hand the whole range to [`SerialDriver`] as one shard.
//!    Within a shard, straight-line scalar-integer candidates, whose
//!    compiled form carries a [`lpo_interp::plane::PlanePlan`], sweep 256
//!    inputs at a time over native `u64` register planes; everything else
//!    (memory, vectors, control flow) runs one input at a time on
//!    [`CompiledFunction::evaluate_with_limit`], the same serial call
//!    [`SourceCache::verify_reference`] makes. The plane tier can be
//!    switched off with [`TvConfig::plane_sweep`].
//!
//! There is one staged walk: every entry point runs it, and only the sweep
//! driver, the shard size and whether a counterexample is rendered differ.
//! It is **outcome-identical** to the retained single-stage path
//! ([`verify_refinement_reference`] / [`SourceCache::verify_reference`]):
//! same verdicts, same counterexamples, same UB messages. A probe reject costs the reference's source-side
//! evaluations; a survivor freezes the case, so
//! [`SourceCache::source_eval_count`] reaches the input total.
//! `tests/tv_differential.rs` checks this differentially over the rq1/rq2
//! corpora, and
//! `tests/plane_differential.rs` fuzzes the plane tier against both
//! retained evaluators over randomly generated functions.

use crate::buffers;
use crate::frozen::{FrozenCase, SerialDriver, SweepDriver, SweepShard, SweepSlot};
use crate::inputs::{input_count, InputCache, InputConfig, InputSet, TestInput};
use lpo_interp::compiled::{evaluate_direct, CompiledFunction, EvalArena};
use lpo_interp::eval::Ub;
use lpo_interp::memory::Memory;
use lpo_interp::plane::{PlaneLanes, PlanePlan, PlaneTape};
use lpo_interp::value::EvalValue;
use lpo_ir::function::Function;
use lpo_ir::hash::{hash_function, Digest};
use lpo_ir::printer;
use lpo_ir::types::Type;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How many instructions a single evaluation may execute.
pub(crate) const STEP_LIMIT: usize = 1 << 14;

/// How many inputs one plane survivor-sweep call covers. Planes are flat
/// `u64` slices, so wider chunks amortize the per-step loop overhead and
/// keep the auto-vectorized kernels fed; 256 lanes × a few dozen planes
/// stays comfortably inside L2.
pub(crate) const PLANE_LANES: usize = 256;

/// The result of checking one candidate transformation.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Every tested behaviour of the target refines the source.
    Correct {
        /// How many inputs were checked.
        inputs_checked: usize,
        /// Whether the whole input space was enumerated.
        exhaustive: bool,
    },
    /// The transformation is wrong; a counterexample demonstrates it.
    Incorrect(Counterexample),
    /// The pair could not be compared (e.g. mismatched signatures). The
    /// message is suitable as feedback to the LLM.
    Error(String),
}

impl Verdict {
    /// Returns `true` for [`Verdict::Correct`].
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct { .. })
    }

    /// Returns the counterexample if the verdict is [`Verdict::Incorrect`].
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Incorrect(cex) => Some(cex),
            _ => None,
        }
    }
}

/// A concrete input on which the target does not refine the source.
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// Why the refinement fails, e.g. `Value mismatch` or
    /// `Target is more poisonous than source`.
    pub reason: String,
    /// Human-readable `name = value` bindings for the arguments.
    pub args: Vec<(String, String)>,
    /// Description of the source behaviour on this input.
    pub src_behaviour: String,
    /// Description of the target behaviour on this input.
    pub tgt_behaviour: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Transformation doesn't verify!")?;
        writeln!(f, "ERROR: {}", self.reason)?;
        writeln!(f)?;
        writeln!(f, "Example:")?;
        for (name, value) in &self.args {
            writeln!(f, "{name} = {value}")?;
        }
        writeln!(f)?;
        writeln!(f, "Source:")?;
        writeln!(f, "{}", self.src_behaviour)?;
        writeln!(f)?;
        writeln!(f, "Target:")?;
        write!(f, "{}", self.tgt_behaviour)
    }
}

/// Configuration of the translation validator.
#[derive(Clone, Debug)]
pub struct TvConfig {
    /// Input generation parameters.
    pub inputs: InputConfig,
    /// How many leading inputs the staged checker probes with the direct
    /// (uncompiled) evaluator before paying `CompiledFunction::compile` for
    /// the candidate. `0` compiles immediately; a value at or above the
    /// input-set size means the whole check runs on the probe evaluator.
    pub probe_inputs: usize,
    /// Whether probe survivors whose compiled form carries a
    /// [`PlanePlan`] sweep the remaining inputs on the type-specialized
    /// plane evaluator. Off, every survivor sweeps one input at a time on
    /// the compiled evaluator; verdicts are identical either way.
    pub plane_sweep: bool,
}

impl Default for TvConfig {
    fn default() -> Self {
        Self { inputs: InputConfig::default(), probe_inputs: 16, plane_sweep: true }
    }
}

/// Which tier of the staged checker decided a candidate's verdict. Carried
/// alongside (never inside) [`Verdict`]: the verdict says *what* was decided,
/// the tier says *how much work* deciding it took.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerdictTier {
    /// Accepted by a proof rather than a sweep. Nothing produces it yet: the
    /// slot (and its store name `proved`) is kept for a solver-backed tier.
    Proved,
    /// Accepted by the concrete sweep over every generated input.
    Tested,
    /// Rejected by a concrete counterexample.
    RefutedConcrete,
}

impl VerdictTier {
    /// Stable lowercase name, used by the persistent store and the drivers'
    /// `[stage3]` footers.
    pub fn as_str(self) -> &'static str {
        match self {
            VerdictTier::Proved => "proved",
            VerdictTier::Tested => "tested",
            VerdictTier::RefutedConcrete => "refuted-concrete",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "proved" => Some(VerdictTier::Proved),
            "tested" => Some(VerdictTier::Tested),
            "refuted-concrete" => Some(VerdictTier::RefutedConcrete),
            _ => None,
        }
    }
}

impl fmt::Display for VerdictTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shared, sharded cache of compiled candidate functions, keyed by
/// [`lpo_ir::hash::hash_function`].
///
/// Structurally identical candidates — different value names, same dataflow —
/// show up constantly across a case's feedback attempts, across the dedup
/// groups of a corpus batch, and across `table4`'s model profiles. The digest
/// covers everything that influences execution (opcodes, flags, types,
/// constants, operand shape, block structure and branch targets), so a cached
/// [`CompiledFunction`] is behaviourally interchangeable with recompiling the
/// candidate, and cache hits cannot change verdicts.
///
/// The cache is `Send + Sync` (digest-sharded `Mutex`es) and is shared by all
/// workers of an execution pool; hit/miss totals are scheduling-dependent
/// (two workers can race to compile the same digest), but verdicts are not.
/// Each shard is capped at [`CompileCache::SHARD_CAP`] entries; once full,
/// new digests are compiled but not retained.
///
/// The cache also keeps the [`FrozenCase`]s of the sources verified through
/// it, keyed by the source's digest, its [`InputConfig`] and
/// [`TvConfig::plane_sweep`] (everything a freeze depends on), so a source
/// that reaches Stage 3 again — in another batch, for another model or
/// round — reuses its freeze instead of sweeping every input again (see
/// [`SourceCache::frozen_case`]), and runs its probe on that freeze's inputs
/// instead of generating them. A frozen case uses its source function
/// only for the return type, and the digest covers that, so a shared freeze
/// cannot change a verdict or a counterexample. Only cases of at least
/// [`CompileCache::RETAIN_MIN_LANES`] inputs are looked up and kept, and
/// retention stops once the kept freezes cover
/// [`CompileCache::FREEZE_LANE_BUDGET`] inputs; other freezes are used once
/// and dropped. [`freezes`](Self::freezes) and
/// [`freeze_hits`](Self::freeze_hits) are scheduling-dependent like the
/// compile counts: two workers can race to freeze the same source.
pub struct CompileCache {
    shards: Vec<Mutex<HashMap<Digest, Arc<CompiledFunction>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    frozen: Mutex<RetainedFreezes>,
    freezes: AtomicUsize,
    freeze_hits: AtomicUsize,
}

/// What a freeze depends on: the source's structural digest, the input
/// generator's configuration and whether the plane tier is on.
pub(crate) type FreezeKey = (Digest, InputConfig, bool);

/// The frozen cases a [`CompileCache`] keeps, and how many inputs they
/// cover between them.
#[derive(Default)]
struct RetainedFreezes {
    cases: HashMap<FreezeKey, FrozenCase>,
    lanes: usize,
}

impl Default for CompileCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("freezes", &self.freezes())
            .field("freeze_hits", &self.freeze_hits())
            .finish()
    }
}

impl CompileCache {
    /// Entries held per shard before new digests stop being retained.
    pub const SHARD_CAP: usize = 1024;
    /// Number of shards (a power of two, so digest → shard is a mask).
    const SHARDS: usize = 8;
    /// Inputs the retained frozen cases may cover between them: sixteen
    /// exhaustive 16-bit sources. A dense case keeps about 9 bytes per
    /// input plus its input columns (8 bytes per parameter), so the budget
    /// bounds a long-lived pipeline's retained freezes to tens of MB.
    pub const FREEZE_LANE_BUDGET: usize = 1 << 20;
    /// The fewest inputs a case must have for its freeze to be looked up
    /// and kept. Sweeping a smaller case again costs about as much as the
    /// digest, lock and map entry that sharing it takes. The Souper and
    /// Minotaur baselines verify against input sets of at most 2^10 lanes,
    /// one search per source, and keeping all their freezes cut
    /// corpus-discover's `baseline_cases_per_s` by about a fifth (median of
    /// 5 runs, 2-vCPU host).
    pub const RETAIN_MIN_LANES: usize = 1 << 12;

    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..Self::SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            frozen: Mutex::new(RetainedFreezes::default()),
            freezes: AtomicUsize::new(0),
            freeze_hits: AtomicUsize::new(0),
        }
    }

    /// Returns the compiled form of `func`, compiling (and retaining) it on
    /// first sight of its structural digest.
    pub fn get_or_compile(&self, func: &Function) -> Arc<CompiledFunction> {
        let digest = hash_function(func);
        let shard = &self.shards[(digest.0 as usize) & (Self::SHARDS - 1)];
        if let Some(hit) = shard.lock().expect("compile cache poisoned").get(&digest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        // Compile outside the lock; a concurrent miss on the same digest
        // costs one duplicate compile, never a wrong result.
        let compiled = Arc::new(CompiledFunction::compile(func));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.lock().expect("compile cache poisoned");
        if let Some(existing) = map.get(&digest) {
            return existing.clone();
        }
        if map.len() < Self::SHARD_CAP {
            map.insert(digest, compiled.clone());
        }
        compiled
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Compiles performed (first sight of a digest, plus rare races). The
    /// compile-once tests use this as their oracle.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Compiled functions currently retained.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("compile cache poisoned").len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sources frozen through this cache: each one swept every input.
    pub fn freezes(&self) -> usize {
        self.freezes.load(Ordering::Relaxed)
    }

    /// Freezes served from the retained frozen cases instead.
    pub fn freeze_hits(&self) -> usize {
        self.freeze_hits.load(Ordering::Relaxed)
    }

    /// The retained freeze for `key`, counted as a hit.
    fn retained_freeze(&self, key: &FreezeKey) -> Option<FrozenCase> {
        let hit = self.frozen.lock().expect("compile cache poisoned").cases.get(key).cloned();
        if hit.is_some() {
            self.freeze_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The inputs of the retained freeze for `key`. Not counted as a hit:
    /// the case only borrows the lanes, and still freezes or reuses through
    /// [`retained_freeze`](Self::retained_freeze) if a candidate survives.
    fn retained_inputs(&self, key: &FreezeKey) -> Option<Arc<InputSet>> {
        let retained = self.frozen.lock().expect("compile cache poisoned");
        retained.cases.get(key).map(|frozen| frozen.inputs().clone())
    }

    /// Counts a fresh freeze and, given its key, retains it while the lane
    /// budget allows.
    fn record_freeze(&self, key: Option<&FreezeKey>, frozen: &FrozenCase) {
        self.freezes.fetch_add(1, Ordering::Relaxed);
        let Some(key) = key else { return };
        let mut retained = self.frozen.lock().expect("compile cache poisoned");
        let lanes = retained.lanes + frozen.input_count();
        if lanes <= Self::FREEZE_LANE_BUDGET && !retained.cases.contains_key(key) {
            retained.cases.insert(key.clone(), frozen.clone());
            retained.lanes = lanes;
        }
    }
}

/// Checks refinement with the default configuration (staged).
pub fn verify_refinement(src: &Function, tgt: &Function) -> Verdict {
    verify_refinement_with(src, tgt, &TvConfig::default())
}

/// Checks refinement with an explicit configuration, on the staged
/// (probe → lazy compile → survivor sweep) checker.
///
/// One-shot convenience: callers that verify several candidate rewrites of
/// the same source (the LPO loop, the superoptimizer baselines) should build
/// a [`SourceCache`] instead, so the source's per-input outcomes and the
/// generated inputs are computed once per case instead of once per candidate.
pub fn verify_refinement_with(src: &Function, tgt: &Function, config: &TvConfig) -> Verdict {
    SourceCache::new(src, config.clone()).verify(tgt)
}

/// Checks refinement on the retained pre-staging path: the candidate is
/// compiled unconditionally and the inputs are swept one at a time from the
/// first.
///
/// This is the differential oracle for the staged checker — verdicts,
/// counterexamples and UB messages are bit-identical between the two — and
/// the baseline `repro bench-tv` measures the staged path against.
pub fn verify_refinement_reference(src: &Function, tgt: &Function, config: &TvConfig) -> Verdict {
    let cache = SourceCache::new(src, config.clone());
    let mut arena = EvalArena::new();
    cache.verify_reference(tgt, &mut arena)
}

/// The outcome of evaluating the source function on one input: the returned
/// value and final memory, or the UB it exhibited.
pub(crate) type SourceOutcome = Result<(Option<EvalValue>, Memory), Ub>;

/// The same shape for the target side (probe, plane or compiled — all
/// three evaluators produce identical outcomes).
pub(crate) type TargetOutcome = Result<(Option<EvalValue>, Memory), Ub>;

/// What the staged walk concluded, before any diagnostic rendering.
enum StagedVerdict {
    /// Every input refined.
    Correct { inputs_checked: usize, exhaustive: bool },
    /// Input `index` refutes the candidate.
    Refuted { index: usize, tgt_out: TargetOutcome, refutation: Refutation },
}

/// Per-case verification state, cached across candidate rewrites.
///
/// The refinement check's cost model is `candidates × inputs × (src eval +
/// tgt eval)`. For one extracted sequence the LPO loop verifies up to
/// `attempt_limit` candidates and the Souper baseline hundreds — but the
/// *source* side of every one of those checks is identical. `SourceCache`
/// computes, once per case and lazily on first use:
///
/// * the [`InputSet`] for the source signature (exhaustive or sampled;
///   `u64` columns for scalar-integer signatures, rows otherwise);
/// * the source's outcome per input — result, final memory and UB/poison
///   classification — via a pre-compiled [`CompiledFunction`]: filled
///   **per input** inside the probe window, so a candidate rejected on the
///   third input costs three source evaluations, and for every input at
///   once when the first probe survivor freezes the case;
///
/// so verifying the k-th candidate only evaluates the *target* (plus any
/// probe inputs no earlier candidate reached). Each source input is
/// evaluated at most once per case, and verdicts are bit-identical to the
/// retained [`verify_refinement_reference`] path.
///
/// Candidate verification itself is *staged* (see the module docs): a probe
/// over the first [`TvConfig::probe_inputs`] inputs on the uncompiled
/// evaluator, then lazy compilation — through an attached [`CompileCache`],
/// if any — and a sharded sweep of the frozen case for the survivors.
/// [`probe_rejects`](Self::probe_rejects) / [`survivors`](Self::survivors)
/// count how candidates split between the two stages.
pub struct SourceCache<'a> {
    src: &'a Function,
    config: TvConfig,
    compile_cache: Option<&'a CompileCache>,
    input_cache: Option<&'a InputCache>,
    inputs: OnceCell<Arc<InputSet>>,
    /// The key the case's freeze is shared under; see
    /// [`freeze_key`](Self::freeze_key).
    freeze_key: OnceCell<Option<FreezeKey>>,
    probe_window: OnceCell<Vec<TestInput>>,
    compiled_src: OnceCell<Arc<CompiledFunction>>,
    /// Source outcomes of inputs `[0, len)`, filled in input order by the
    /// walks that visit inputs in order: the probe and the reference path.
    prefix: RefCell<Vec<SourceOutcome>>,
    candidates: Cell<usize>,
    probe_rejects: Cell<usize>,
    survivors: Cell<usize>,
    plane_sweeps: Cell<usize>,
    last_tier: Cell<Option<VerdictTier>>,
    frozen: OnceCell<FrozenCase>,
    /// Whether `frozen` came from the compile cache's retained freezes, so
    /// this case evaluated only its in-order prefix.
    reused_freeze: Cell<bool>,
}

/// Source outcome tag: the source exhibited UB on this input.
const DENSE_SRC_UB: u8 = 0;
/// Source outcome tag: the source returned `poison`.
const DENSE_POISON: u8 = 1;
/// Source outcome tag: the source returned `undef`.
const DENSE_UNDEF: u8 = 2;
/// Source outcome tag: the source returned the concrete value in `vals`.
const DENSE_CONCRETE: u8 = 3;

/// The source's per-input outcome table flattened into dense arrays — one
/// tag byte plus one canonical `u64` per input — so the plane sweep compares
/// a survivor lane without materializing an [`EvalValue`].
///
/// Only built for cases in the plane domain (scalar-integer signature, no
/// input allocations), where the memory half of the refinement check is
/// vacuous: inputs carry no observable allocations, so value refinement is
/// the whole comparison.
pub(crate) struct DenseOutcomes {
    tags: Vec<u8>,
    vals: Vec<u64>,
}

impl Drop for DenseOutcomes {
    /// The arrays go back to the pool of spare lane buffers (see
    /// [`crate::buffers`]) for the next case's table.
    fn drop(&mut self) {
        buffers::give(std::mem::take(&mut self.tags));
        buffers::give(std::mem::take(&mut self.vals));
    }
}

impl DenseOutcomes {
    /// Whether lane `offset` of a target plane refines input `index`'s
    /// cached source outcome. The tag order mirrors [`refutation`]: source
    /// UB admits anything, then target UB refutes, then the
    /// value-refinement lattice.
    ///
    /// In the plane domain — integer parameters and return of at most 64
    /// bits, allocation-free inputs, and a plane of the source's return
    /// type — this is exact: `false` holds exactly when [`refutation`]
    /// finds one for the lane's materialized value, because the memory half
    /// of that comparison is vacuous and canonical bits of one width
    /// compare as values (the `lane_refines_is_exact` table test). Callers
    /// that only need the verdict bit take `false` as "refuted"; the sweep
    /// still re-runs such a lane through the full comparison for the
    /// refutation descriptor. A refuted lane never has a UB source, so
    /// [`outcome`](Self::outcome) can always rebuild its source side.
    pub(crate) fn lane_refines(&self, index: usize, lanes: &PlaneLanes, offset: usize) -> bool {
        match self.tags[index] {
            DENSE_SRC_UB => true,
            _ if lanes.is_ub(offset) => false,
            DENSE_POISON => true,
            DENSE_UNDEF => !lanes.is_poison(offset),
            _ => {
                !lanes.is_poison(offset)
                    && !lanes.is_undef(offset)
                    && lanes.raw(offset) == self.vals[index]
            }
        }
    }

    /// [`lane_refines`](Self::lane_refines) for a materialized target
    /// outcome (the lanes of the sweep's serial, non-plane tail). Same tag
    /// order, same contract:
    /// `false` only means *suspect*. The signature check guarantees source
    /// and target return the same integer type, so comparing canonical bits
    /// is comparing values.
    pub(crate) fn outcome_refines(&self, index: usize, tgt_out: &TargetOutcome) -> bool {
        match (self.tags[index], tgt_out) {
            (DENSE_SRC_UB, _) => true,
            (_, Err(_)) => false,
            (DENSE_POISON, _) => true,
            (DENSE_UNDEF, Ok((ret, _))) => !matches!(ret, Some(EvalValue::Poison)),
            (_, Ok((Some(EvalValue::Int(v)), _))) => {
                v.width() <= 64 && v.zext_value() as u64 == self.vals[index]
            }
            _ => false,
        }
    }

    /// Input `index`'s source outcome rebuilt from its tag and bits, for a
    /// `ret_width`-bit return and the input's initial `memory` (a
    /// plane-eligible source touches no memory). `None` for a UB lane: the
    /// table keeps no UB message.
    pub(crate) fn outcome(
        &self,
        index: usize,
        ret_width: u32,
        memory: &Memory,
    ) -> Option<SourceOutcome> {
        let value = match self.tags[index] {
            DENSE_SRC_UB => return None,
            DENSE_POISON => EvalValue::Poison,
            DENSE_UNDEF => EvalValue::Undef,
            _ => EvalValue::int(ret_width, self.vals[index] as u128),
        };
        Some(Ok((Some(value), memory.clone())))
    }

    /// Sweeps a plane-eligible source over every input straight into the
    /// dense table, [`PLANE_LANES`] inputs per chunk, without materializing
    /// a single [`SourceOutcome`]. Tags follow [`dense_table`] exactly (UB,
    /// then poison, then undef, then the concrete canonical bits), and the
    /// plane evaluator is outcome-identical to the compiled one, so the
    /// table equals `dense_table` over the materialized outcomes. `None`
    /// when the inputs are rows or the columns don't fit the plan.
    pub(crate) fn from_planes(
        plan: &PlanePlan,
        inputs: &InputSet,
        arena: &mut EvalArena,
    ) -> Option<DenseOutcomes> {
        let total = inputs.len();
        let mut tags = buffers::take(total);
        let mut vals = buffers::take(total);
        for start in (0..total).step_by(PLANE_LANES) {
            let end = (start + PLANE_LANES).min(total);
            let result =
                plan.evaluate_columns(arena, &inputs.column_window(start..end)?, STEP_LIMIT)?;
            for lane in 0..end - start {
                let (tag, val) = if result.is_ub(lane) {
                    (DENSE_SRC_UB, 0)
                } else if result.is_poison(lane) {
                    (DENSE_POISON, 0)
                } else if result.is_undef(lane) {
                    (DENSE_UNDEF, 0)
                } else {
                    (DENSE_CONCRETE, result.raw(lane))
                };
                tags.push(tag);
                vals.push(val);
            }
        }
        Some(DenseOutcomes { tags, vals })
    }
}

/// Evaluates the compiled source on one input — the single source-side
/// evaluation every materialized [`SourceOutcome`] comes from, whether the
/// in-order prefix fills it, a materialized frozen case is built, or a
/// dense case needs a UB lane's message.
pub(crate) fn evaluate_source(
    compiled_src: &CompiledFunction,
    input: &TestInput,
    arena: &mut EvalArena,
) -> SourceOutcome {
    compiled_src
        .evaluate_with_limit(arena, &input.args, input.memory.clone(), STEP_LIMIT)
        .map(|o| (o.result, o.memory))
}

/// Flattens fully materialized source outcomes into a [`DenseOutcomes`]
/// table, or `None` when the case's shape can't carry it (observable
/// allocations, non-scalar or void returns, integers wider than 64 bits).
/// A materialized [`FrozenCase`] builds it here so its lanes compare exactly
/// like a dense one's. The dense compare skips memory refinement, so the
/// table is gated on allocation-free inputs.
pub(crate) fn dense_table<'o>(
    inputs: &InputSet,
    outcomes: impl Iterator<Item = &'o SourceOutcome>,
) -> Option<DenseOutcomes> {
    if !inputs.allocation_free() {
        return None;
    }
    let mut tags = buffers::take(inputs.len());
    let mut vals = buffers::take(inputs.len());
    for outcome in outcomes {
        let (tag, val) = match outcome {
            Err(_) => (DENSE_SRC_UB, 0),
            Ok((Some(EvalValue::Poison), _)) => (DENSE_POISON, 0),
            Ok((Some(EvalValue::Undef), _)) => (DENSE_UNDEF, 0),
            Ok((Some(EvalValue::Int(v)), _)) if v.width() <= 64 => {
                (DENSE_CONCRETE, v.zext_value() as u64)
            }
            _ => return None,
        };
        tags.push(tag);
        vals.push(val);
    }
    Some(DenseOutcomes { tags, vals })
}

impl<'a> SourceCache<'a> {
    /// Creates the cache for one source function. No inputs are generated and
    /// nothing is evaluated until the first [`verify`](Self::verify) call.
    pub fn new(src: &'a Function, config: TvConfig) -> Self {
        Self {
            src,
            config,
            compile_cache: None,
            input_cache: None,
            inputs: OnceCell::new(),
            freeze_key: OnceCell::new(),
            probe_window: OnceCell::new(),
            compiled_src: OnceCell::new(),
            prefix: RefCell::new(Vec::new()),
            candidates: Cell::new(0),
            probe_rejects: Cell::new(0),
            survivors: Cell::new(0),
            plane_sweeps: Cell::new(0),
            last_tier: Cell::new(None),
            frozen: OnceCell::new(),
            reused_freeze: Cell::new(false),
        }
    }

    /// Attaches a shared compiled-function cache: probe survivors are then
    /// compiled through it, so structurally identical candidates compile once
    /// per pool instead of once per verification, and the case's freeze is
    /// shared through it with every later case of a structurally identical
    /// source (see [`frozen_case`](Self::frozen_case)).
    pub fn with_compile_cache(mut self, cache: &'a CompileCache) -> Self {
        self.compile_cache = Some(cache);
        self
    }

    /// Attaches a shared input-set cache: the case's inputs are then drawn
    /// from it, so sources of one signature generate their set once per
    /// cache instead of once per case. The lanes are the same either way.
    pub fn with_input_cache(mut self, cache: &'a InputCache) -> Self {
        self.input_cache = Some(cache);
        self
    }

    /// The source function this cache verifies candidates against.
    pub fn source(&self) -> &'a Function {
        self.src
    }

    /// How many candidates were fully checked (signature errors excluded).
    pub fn candidates_checked(&self) -> usize {
        self.candidates.get()
    }

    /// Candidates refuted inside the probe window — they never paid a
    /// `CompiledFunction::compile`.
    pub fn probe_rejects(&self) -> usize {
        self.probe_rejects.get()
    }

    /// Candidates that survived the probe and went through compile (or a
    /// compile-cache hit) plus the survivor sweep.
    pub fn survivors(&self) -> usize {
        self.survivors.get()
    }

    /// Survivors whose *first* post-probe shard ran at least one chunk on
    /// the type-specialized plane evaluator rather than the serial compiled
    /// evaluator. A subset of [`survivors`](Self::survivors);
    /// deterministic for a given case, candidate sequence and shard size
    /// (shard 0 is never cancelled). With one shard, as on
    /// [`verify_with`](Self::verify_with), it covers the whole sweep.
    pub fn plane_sweeps(&self) -> usize {
        self.plane_sweeps.get()
    }

    /// Always 0. The benchmark harness reads it as `tv.proved`; it goes
    /// together with `perfbench/src/replay.rs` once the engine records its
    /// own spans.
    pub fn proved(&self) -> usize {
        0
    }

    /// Always 0. The benchmark harness reads it as `tv.absint_refuted`; it
    /// goes together with `perfbench/src/replay.rs` once the engine records
    /// its own spans.
    pub fn absint_refuted(&self) -> usize {
        0
    }

    /// Which tier decided the most recently verified candidate, or `None` if
    /// no candidate has been checked yet (or the last one was a signature
    /// error). Reference-path verifications don't touch it.
    pub fn last_tier(&self) -> Option<VerdictTier> {
        self.last_tier.get()
    }

    /// How many distinct inputs this case has computed the source outcome
    /// of, by any evaluator — plane lanes included.
    ///
    /// At most one per (case, input), independent of the candidate count.
    /// Before the case is frozen this is the length of the in-order prefix
    /// the probe (or the reference path) filled, so a probe reject at input
    /// k costs k+1 evaluations, as on the reference path. The first probe
    /// survivor freezes the case (see [`frozen_case`](Self::frozen_case)),
    /// which computes every outcome, so from then on this equals the input
    /// total, and rebuilding a suspect or refuting lane's outcome
    /// afterwards does not count again. A case that reuses a freeze
    /// retained by its [`CompileCache`] computed only its prefix, so it
    /// keeps counting the prefix; when two workers verify one source at
    /// once, which of them froze it depends on scheduling. Tests use this
    /// as the cache-hit oracle.
    pub fn source_eval_count(&self) -> usize {
        match self.frozen.get() {
            Some(frozen) if !self.reused_freeze.get() => frozen.input_count(),
            _ => self.prefix.borrow().len(),
        }
    }

    /// The case's inputs: those of a freeze the attached [`CompileCache`]
    /// retains under this case's key (the same lanes, generated from a
    /// source of the same digest and configuration), else drawn from the
    /// attached [`InputCache`] or generated.
    fn inputs(&self) -> &Arc<InputSet> {
        self.inputs.get_or_init(|| {
            let retained =
                self.freeze_key().and_then(|key| self.compile_cache?.retained_inputs(key));
            retained.unwrap_or_else(|| match self.input_cache {
                Some(cache) => cache.get(self.src, &self.config.inputs),
                None => Arc::new(InputSet::generate(self.src, &self.config.inputs)),
            })
        })
    }

    /// The key this case's freeze is looked up and kept under in the
    /// attached [`CompileCache`]: `None` without one, and for cases of
    /// fewer than [`CompileCache::RETAIN_MIN_LANES`] inputs.
    fn freeze_key(&self) -> Option<&FreezeKey> {
        self.freeze_key
            .get_or_init(|| {
                self.compile_cache?;
                let lanes = input_count(self.src, &self.config.inputs);
                (lanes >= CompileCache::RETAIN_MIN_LANES).then(|| {
                    (hash_function(self.src), self.config.inputs.clone(), self.config.plane_sweep)
                })
            })
            .as_ref()
    }

    fn compiled_src(&self) -> &Arc<CompiledFunction> {
        self.compiled_src.get_or_init(|| Arc::new(CompiledFunction::compile(self.src)))
    }

    /// Runs `f` on input `index`'s source outcome. A materialized frozen
    /// case serves it directly. Otherwise the in-order prefix does: the
    /// input just past its end is evaluated and appended, which is how the
    /// probe and the reference path fill it. Any other index — a refutation
    /// past the probe window — only arises once the case is frozen, and a
    /// dense frozen case rebuilds it from its table.
    fn with_source_outcome<R>(
        &self,
        index: usize,
        arena: &mut EvalArena,
        f: impl FnOnce(&SourceOutcome) -> R,
    ) -> R {
        let frozen = self.frozen.get();
        if let Some(outcomes) = frozen.and_then(FrozenCase::outcomes) {
            return f(&outcomes[index]);
        }
        let mut prefix = self.prefix.borrow_mut();
        if index == prefix.len() {
            prefix.push(evaluate_source(self.compiled_src(), &self.inputs().input(index), arena));
        }
        match prefix.get(index) {
            Some(outcome) => f(outcome),
            None => {
                let frozen = frozen.expect("an unfrozen case is only walked in input order");
                f(&frozen.source_outcome(index, arena))
            }
        }
    }

    /// Signature compatibility: same parameter types (names may differ) and
    /// the same return type. A mismatch is a *fixable* error reported as
    /// feedback.
    fn signature_error(&self, tgt: &Function) -> Option<Verdict> {
        if self.src.params.len() != tgt.params.len()
            || self.src.params.iter().zip(&tgt.params).any(|(a, b)| a.ty != b.ty)
        {
            return Some(Verdict::Error(format!(
                "ERROR: program doesn't type check!\nsource signature:  {}\ntarget signature:  {}\nthe target function must take exactly the same parameters as the source",
                printer::signature(self.src),
                printer::signature(tgt)
            )));
        }
        if self.src.ret_ty != tgt.ret_ty {
            return Some(Verdict::Error(format!(
                "ERROR: program doesn't type check!\nsource returns {} but target returns {}",
                self.src.ret_ty, tgt.ret_ty
            )));
        }
        None
    }

    /// Compares one input's cached source outcome against a freshly computed
    /// target outcome, returning the cheap refutation descriptor. The input
    /// itself is materialized only if its source outcome must be computed.
    fn check_input(
        &self,
        index: usize,
        tgt_out: &TargetOutcome,
        arena: &mut EvalArena,
    ) -> Option<Refutation> {
        let initial = self.inputs().memory(index);
        self.with_source_outcome(index, arena, |src_out| refutation(initial, src_out, tgt_out))
    }

    /// The probe window's inputs as [`TestInput`]s, materialized once per
    /// case: the direct evaluator takes argument lists, and every candidate
    /// walks these lanes.
    fn probe_window(&self) -> &[TestInput] {
        self.probe_window.get_or_init(|| {
            let inputs = self.inputs();
            let n = self.config.probe_inputs.min(inputs.len());
            (0..n).map(|index| inputs.input(index).into_owned()).collect()
        })
    }

    /// Stage 1: the probe window on the direct evaluator, no compile.
    /// Inputs are walked in the same order as the reference path, so the
    /// refuting input (and the number of source-side evaluations) is
    /// identical. Returns the refutation, if any.
    fn probe(&self, tgt: &Function, arena: &mut EvalArena) -> Option<StagedVerdict> {
        for (index, input) in self.probe_window().iter().enumerate() {
            let tgt_out =
                evaluate_direct(tgt, arena, &input.args, input.memory.clone(), STEP_LIMIT)
                    .map(|o| (o.result, o.memory));
            if let Some(refutation) = self.check_input(index, &tgt_out, arena) {
                self.probe_rejects.set(self.probe_rejects.get() + 1);
                self.last_tier.set(Some(VerdictTier::RefutedConcrete));
                return Some(StagedVerdict::Refuted { index, tgt_out, refutation });
            }
        }
        None
    }

    /// The one staged walk behind every verify entry point: signature check
    /// → probe → lazy (cached) compile → freeze the case → Stage-3 survivor
    /// sweep. The sweep `[probe_n, total)` is split into
    /// `shard_size`-input [`SweepShard`]s handed to `driver`; the ordered
    /// merge takes the first executed shard with a finding, which the
    /// cancellation contract (see [`crate::frozen`]) proves is the
    /// first refuting input in input order — so verdicts and
    /// counterexamples are the same for every driver, shard size and worker
    /// count. The serial entry points pass [`SerialDriver`] and `usize::MAX`
    /// (one shard).
    ///
    /// On refutation the walk returns the failing input index, the target
    /// outcome and the refutation descriptor — everything needed to render
    /// the counterexample, without rendering it.
    fn verify_staged(
        &self,
        tgt: &Function,
        arena: &mut EvalArena,
        driver: &dyn SweepDriver,
        shard_size: usize,
    ) -> Result<StagedVerdict, Verdict> {
        self.last_tier.set(None);
        if let Some(error) = self.signature_error(tgt) {
            return Err(error);
        }
        self.candidates.set(self.candidates.get() + 1);

        // Stage 1: probe, no compile (in-order prefix outcomes), so probe
        // rejects cost the reference path's few source evaluations.
        if let Some(verdict) = self.probe(tgt, arena) {
            return Ok(verdict);
        }
        let inputs = self.inputs();
        let probe_n = self.probe_window().len();
        let (total, exhaustive) = (inputs.len(), inputs.exhaustive());
        if probe_n == total {
            self.last_tier.set(Some(VerdictTier::Tested));
            return Ok(StagedVerdict::Correct { inputs_checked: total, exhaustive });
        }

        // Stage 2: the candidate survived the probe — compile it (once per
        // structural digest when a cache is attached).
        self.survivors.set(self.survivors.get() + 1);
        let compiled_tgt: Arc<CompiledFunction> = match self.compile_cache {
            Some(cache) => cache.get_or_compile(tgt),
            None => Arc::new(CompiledFunction::compile(tgt)),
        };

        // Stage 3: freeze the case, decompose `[probe_n, total)` into shards
        // and let the driver schedule them.
        let frozen = self.frozen_case(arena);
        let shard_size = shard_size.max(1);
        let mut shards = Vec::with_capacity((total - probe_n).div_ceil(shard_size));
        let mut start = probe_n;
        while start < total {
            let end = total.min(start.saturating_add(shard_size));
            shards.push(SweepShard::new(frozen.clone(), compiled_tgt.clone(), start, end));
            start = end;
        }
        let slots = driver.drive(shards, arena);

        // Shard 0 is never cancelled (cancellation needs an earlier refuting
        // shard), so this flag is deterministic for a given shard size.
        if let Some(SweepSlot::Executed(out)) = slots.first() {
            if out.used_plane {
                self.plane_sweeps.set(self.plane_sweeps.get() + 1);
            }
        }
        for slot in slots {
            if let SweepSlot::Executed(out) = slot {
                if let Some(finding) = out.finding {
                    self.last_tier.set(Some(VerdictTier::RefutedConcrete));
                    return Ok(StagedVerdict::Refuted {
                        index: finding.index,
                        tgt_out: finding.tgt_out,
                        refutation: finding.refutation,
                    });
                }
            }
        }
        self.last_tier.set(Some(VerdictTier::Tested));
        Ok(StagedVerdict::Correct { inputs_checked: total, exhaustive })
    }

    /// Checks whether `tgt` refines the cached source on the **staged**
    /// checker, reusing `arena`'s register file for every evaluation:
    ///
    /// 1. the first [`TvConfig::probe_inputs`] inputs run on the direct
    ///    (uncompiled) evaluator — most wrong candidates die here for the
    ///    cost of a few interpreter calls;
    /// 2. survivors are compiled, through the attached [`CompileCache`] when
    ///    present;
    /// 3. the case is frozen and the remaining inputs are swept as one
    ///    shard on the caller's thread ([`SerialDriver`]).
    ///
    /// Verdicts are bit-identical to [`verify_reference`](Self::verify_reference),
    /// and the source side is still evaluated at most once per input.
    pub fn verify_with(&self, tgt: &Function, arena: &mut EvalArena) -> Verdict {
        self.verify_with_driver(tgt, arena, &SerialDriver, usize::MAX)
    }

    /// Renders a staged conclusion into the public [`Verdict`], building the
    /// Alive2-style counterexample only when a candidate was actually
    /// refuted. The refuting input's source outcome comes from the in-order
    /// prefix or a materialized frozen case; a refutation found against a
    /// dense frozen case rebuilds that one outcome here (uncounted —
    /// see [`source_eval_count`](Self::source_eval_count)).
    fn render_staged(
        &self,
        staged: Result<StagedVerdict, Verdict>,
        arena: &mut EvalArena,
    ) -> Verdict {
        match staged {
            Err(error) => error,
            Ok(StagedVerdict::Correct { inputs_checked, exhaustive }) => {
                Verdict::Correct { inputs_checked, exhaustive }
            }
            Ok(StagedVerdict::Refuted { index, tgt_out, refutation }) => {
                let input = self.inputs().input(index);
                Verdict::Incorrect(self.with_source_outcome(index, arena, |src_out| {
                    build_counterexample(self.src, &input, src_out, &tgt_out, refutation)
                }))
            }
        }
    }

    /// The frozen, `Arc`-shared snapshot of this case (see
    /// [`FrozenCase`]), built once on first use. It shares this cache's
    /// inputs and compiled source rather than copying them.
    ///
    /// When the plane tier is on and the source carries a [`PlanePlan`], the
    /// source is swept on planes over every input straight into the dense
    /// comparison table (`DenseOutcomes::from_planes`) and no per-input
    /// outcome is materialized. Otherwise — or if any chunk falls outside
    /// the plane domain — the inputs past the in-order prefix are evaluated
    /// **in input order** and appended, and the prefix moves into the
    /// snapshot. Either way every input's outcome has now been computed, so
    /// after this call [`source_eval_count`](Self::source_eval_count) equals
    /// the input count.
    ///
    /// With a [`CompileCache`] attached, a freeze it retains for a source of
    /// the same digest, [`InputConfig`] and plane setting is reused instead,
    /// and this case sweeps nothing; a fresh freeze is offered to the cache.
    /// Both apply only to cases of at least
    /// [`CompileCache::RETAIN_MIN_LANES`] inputs.
    pub fn frozen_case(&self, arena: &mut EvalArena) -> FrozenCase {
        if let Some(frozen) = self.frozen.get() {
            return frozen.clone();
        }
        let inputs = self.inputs();
        let key = self.freeze_key();
        if let Some(frozen) = key.and_then(|key| self.compile_cache?.retained_freeze(key)) {
            self.reused_freeze.set(true);
            return self.frozen.get_or_init(|| frozen).clone();
        }
        let compiled_src = self.compiled_src();
        let plane_table = match compiled_src.plane() {
            Some(plan) if self.config.plane_sweep => DenseOutcomes::from_planes(plan, inputs, arena),
            _ => None,
        };
        let frozen = match plane_table {
            Some(table) => {
                FrozenCase::dense(self.src.clone(), compiled_src.clone(), inputs.clone(), table)
            }
            None => {
                let mut outcomes = std::mem::take(&mut *self.prefix.borrow_mut());
                outcomes.reserve_exact(inputs.len() - outcomes.len());
                for index in outcomes.len()..inputs.len() {
                    outcomes.push(evaluate_source(compiled_src, &inputs.input(index), arena));
                }
                FrozenCase::materialized(
                    self.src.clone(),
                    compiled_src.clone(),
                    inputs.clone(),
                    outcomes,
                    self.config.plane_sweep,
                )
            }
        };
        if let Some(cache) = self.compile_cache {
            cache.record_freeze(key, &frozen);
        }
        self.frozen.get_or_init(|| frozen).clone()
    }

    /// [`verify_with`](Self::verify_with) with the survivor sweep sharded
    /// across `driver` in `shard_size`-input units. Verdicts and
    /// counterexamples are bit-identical to [`verify_with`](Self::verify_with)
    /// for every driver, shard size and worker count.
    pub fn verify_with_driver(
        &self,
        tgt: &Function,
        arena: &mut EvalArena,
        driver: &dyn SweepDriver,
        shard_size: usize,
    ) -> Verdict {
        let staged = self.verify_staged(tgt, arena, driver, shard_size);
        self.render_staged(staged, arena)
    }

    /// [`verify_with`](Self::verify_with) minus the diagnostic: returns
    /// exactly `verify_with(tgt, arena).is_correct()` but never renders a
    /// counterexample — signature errors and refutations are both `false`.
    ///
    /// Refuted candidates are the bulk of verification traffic, and for
    /// enumerative callers (the Souper baseline explores up to
    /// `candidate_budget` candidates per case, Minotaur its template set)
    /// the counterexample is discarded; on tiny peephole functions its
    /// rendering costs more than the refuting evaluation itself, so this
    /// entry point is the hot path for accept/reject-only verification.
    pub fn verify_outcome_only(&self, tgt: &Function, arena: &mut EvalArena) -> bool {
        matches!(
            self.verify_staged(tgt, arena, &SerialDriver, usize::MAX),
            Ok(StagedVerdict::Correct { .. })
        )
    }

    /// A [`PlaneTape`] with one argument plane per parameter, holding this
    /// case's inputs one lane per input in input order: the workspace for
    /// [`tape_refutes`](Self::tape_refutes). Freezes the case (see
    /// [`frozen_case`](Self::frozen_case)). `None` when the case is outside
    /// the plane domain: a parameter or the return is not an integer of at
    /// most 64 bits, or the frozen case carries no dense table.
    pub fn plane_tape(&self, arena: &mut EvalArena) -> Option<PlaneTape> {
        let plane_width = |ty: &Type| match ty {
            Type::Int(w) if *w <= 64 => Some(*w),
            _ => None,
        };
        let widths = self.src.params.iter().map(|p| plane_width(&p.ty)).collect::<Option<Vec<u32>>>()?;
        plane_width(&self.src.ret_ty)?;
        self.frozen_case(arena).dense_table()?;
        let columns = self.inputs().column_window(0..self.inputs().len())?;
        PlaneTape::from_columns(&widths, &columns)
    }

    /// Outcome-only lane check of a candidate whose return value on input
    /// `i` is lane `i` of plane `plane` of a [`plane_tape`](Self::plane_tape);
    /// the plane must have the source's return type. Runs the plane
    /// lane-first on widening windows, `[0, 1)`, `[1, 4)`, `[4, probe)` and
    /// `[probe, total)` (each end clamped to the input total, empty windows
    /// skipped), and scans each window's lanes in input order before
    /// running the next: most enumerated candidates are refuted on input 0,
    /// so they pay for one lane instead of the whole probe window. The
    /// frozen case's dense table decides every lane on its own: in the
    /// plane domain it is exact (see `DenseOutcomes::lane_refines`), and
    /// debug builds re-check each refuting lane on its materialized value.
    ///
    /// The first input (in input order) that refutes the candidate, so
    /// [`verify_outcome_only`](Self::verify_outcome_only) rejects it too;
    /// `None` decides nothing. A search can try the refuting input first on
    /// its next candidates (see [`RowScreen`](crate::screen::RowScreen)).
    /// Counts nothing and evaluates no source input: a candidate is checked
    /// only once it reaches a verify entry point.
    pub fn tape_refutes(
        &self,
        tape: &mut PlaneTape,
        plane: usize,
        arena: &mut EvalArena,
    ) -> Option<usize> {
        let table = self.dense_table()?;
        let total = self.inputs().len();
        debug_assert_eq!(tape.lanes(), total, "the tape must come from this case");
        let mut start = 0;
        for end in [1, 4, self.config.probe_inputs, total] {
            let end = end.min(total);
            if end <= start {
                continue;
            }
            let window = start..end;
            start = end;
            tape.run(plane, window.clone());
            let lanes = tape.view(plane);
            let refuting = window.into_iter().find(|&index| self.lane_refutes(table, index, &lanes, index, arena));
            if refuting.is_some() {
                return refuting;
            }
        }
        None
    }

    /// The frozen case's dense table, once the case is frozen in a shape
    /// that carries one.
    pub(crate) fn dense_table(&self) -> Option<&DenseOutcomes> {
        self.frozen.get().and_then(FrozenCase::dense_table).map(|table| &**table)
    }

    /// Whether lane `lane` of `lanes`, as a candidate's return value on
    /// input `index`, refutes the candidate: `!table.lane_refines(..)`,
    /// exact in the plane domain. Debug builds confirm every refuting lane
    /// through the materialized comparison the table stands for.
    pub(crate) fn lane_refutes(
        &self,
        table: &DenseOutcomes,
        index: usize,
        lanes: &PlaneLanes,
        lane: usize,
        arena: &mut EvalArena,
    ) -> bool {
        let refuted = !table.lane_refines(index, lanes, lane);
        debug_assert!(
            !refuted || self.materialized_refutes(index, lanes, lane, arena),
            "the dense table refuted lane {lane} on input {index}, the materialized comparison did not"
        );
        refuted
    }

    /// [`refutation`] of lane `lane`'s materialized value against input
    /// `index`'s source outcome as the frozen case holds it. Touches no
    /// prefix and no counter.
    fn materialized_refutes(
        &self,
        index: usize,
        lanes: &PlaneLanes,
        lane: usize,
        arena: &mut EvalArena,
    ) -> bool {
        let frozen = self.frozen.get().expect("a dense table belongs to a frozen case");
        let memory = self.inputs().memory(index);
        let tgt_out = lanes.value(lane).map(|v| (Some(v), memory.clone()));
        refutation(memory, &frozen.source_outcome(index, arena), &tgt_out).is_some()
    }

    /// Checks `tgt` on the retained pre-staging path: unconditional compile,
    /// serial sweep from the first input. The staged checker is proven
    /// outcome-identical against this.
    pub fn verify_reference(&self, tgt: &Function, arena: &mut EvalArena) -> Verdict {
        if let Some(error) = self.signature_error(tgt) {
            return error;
        }
        let inputs = self.inputs();
        let compiled_tgt = CompiledFunction::compile(tgt);
        for index in 0..inputs.len() {
            let input = inputs.input(index);
            let tgt_out = compiled_tgt
                .evaluate_with_limit(arena, &input.args, input.memory.clone(), STEP_LIMIT)
                .map(|o| (o.result, o.memory));
            let failure = self.with_source_outcome(index, arena, |src_out| {
                refinement_failure(self.src, &input, src_out, &tgt_out)
            });
            if let Some(cex) = failure {
                return Verdict::Incorrect(cex);
            }
        }
        Verdict::Correct { inputs_checked: inputs.len(), exhaustive: inputs.exhaustive() }
    }

    /// [`verify_with`](Self::verify_with) on a fresh throwaway arena.
    pub fn verify(&self, tgt: &Function) -> Verdict {
        self.verify_with(tgt, &mut EvalArena::new())
    }
}

fn describe_args(func: &Function, input: &TestInput) -> Vec<(String, String)> {
    func.params
        .iter()
        .zip(&input.args)
        .map(|(p, v)| {
            let shown = if p.ty.is_ptr() {
                match v.as_ptr().and_then(|ptr| input.memory.allocation(ptr.alloc)) {
                    Some(alloc) => format!(
                        "&mem [{}]",
                        alloc.bytes()[..8.min(alloc.size())]
                            .iter()
                            .map(|b| format!("{b:#04x}"))
                            .collect::<Vec<_>>()
                            .join(" ")
                    ),
                    None => "null".to_string(),
                }
            } else {
                v.to_string()
            };
            (format!("{} %{}", p.ty, p.name), shown)
        })
        .collect()
}

fn describe_outcome(result: &SourceOutcome) -> String {
    match result {
        Err(ub) => format!("function exhibits undefined behaviour: {}", ub.message),
        Ok((None, _)) => "returns void".to_string(),
        Ok((Some(v), _)) => format!("ret {v}"),
    }
}

/// Why a target outcome fails to refine the source outcome on one input —
/// the *detection* half of a refutation, cheap to produce (no formatting, no
/// allocation). [`build_counterexample`] renders it into the Alive2-style
/// [`Counterexample`] when a caller actually wants the diagnostic; hot
/// callers that only need the verdict bit
/// ([`SourceCache::verify_outcome_only`]) skip the rendering entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refutation {
    /// Target exhibits UB where the source is defined.
    TargetUb,
    /// One side returns a value, the other `void`.
    ReturnShapeMismatch,
    /// Return-value refinement failed, with the reason label.
    Value(&'static str),
    /// A target memory byte is poison where the source byte is concrete.
    MemoryPoison { alloc: usize, byte: usize },
    /// A target memory byte differs from the source byte.
    MemoryByte { alloc: usize, byte: usize, src: u8, tgt: u8 },
}

/// The refinement comparison itself: one input's cached source outcome
/// against a target outcome from any of the three evaluators, given the
/// input's `initial` memory. Returns the cheap refutation descriptor on
/// failure.
pub(crate) fn refutation(
    initial: &Memory,
    src_out: &SourceOutcome,
    tgt_out: &TargetOutcome,
) -> Option<Refutation> {
    // Source UB ⇒ any target behaviour is fine.
    let (src_ret, src_mem) = match src_out {
        Err(_) => return None,
        Ok(pair) => pair,
    };
    let (tgt_ret, tgt_mem) = match tgt_out {
        Err(_) => return Some(Refutation::TargetUb),
        Ok(pair) => pair,
    };

    // Return value refinement.
    match (src_ret, tgt_ret) {
        (None, None) => {}
        (Some(s), Some(t)) => {
            if let Some(reason) = value_refinement_failure(s, t) {
                return Some(Refutation::Value(reason));
            }
        }
        _ => return Some(Refutation::ReturnShapeMismatch),
    }

    // Memory refinement over the allocations that existed before execution
    // (allocas created inside the functions are not observable).
    let observable = initial.allocation_count();
    for alloc_id in 0..observable {
        let initial = initial.allocation(alloc_id).expect("input allocation");
        let s_alloc = src_mem.allocation(alloc_id);
        let t_alloc = tgt_mem.allocation(alloc_id);
        let (s_alloc, t_alloc) = match (s_alloc, t_alloc) {
            (Some(a), Some(b)) => (a, b),
            _ => continue,
        };
        for i in 0..initial.size() {
            let s_poison = s_alloc.poison_mask().get(i).copied().unwrap_or(false);
            let t_poison = t_alloc.poison_mask().get(i).copied().unwrap_or(false);
            let s_byte = s_alloc.bytes().get(i).copied().unwrap_or(0);
            let t_byte = t_alloc.bytes().get(i).copied().unwrap_or(0);
            if s_poison {
                continue; // source byte is poison: anything refines it
            }
            if t_poison {
                return Some(Refutation::MemoryPoison { alloc: alloc_id, byte: i });
            }
            if s_byte != t_byte {
                return Some(Refutation::MemoryByte {
                    alloc: alloc_id,
                    byte: i,
                    src: s_byte,
                    tgt: t_byte,
                });
            }
        }
    }
    None
}

/// Renders a [`Refutation`] into the Alive2-style counterexample the LPO
/// feedback loop sends back to the model.
pub(crate) fn build_counterexample(
    src: &Function,
    input: &TestInput,
    src_out: &SourceOutcome,
    tgt_out: &TargetOutcome,
    refutation: Refutation,
) -> Counterexample {
    let cex = |reason: &str, tgt_desc: String| Counterexample {
        reason: reason.to_string(),
        args: describe_args(src, input),
        src_behaviour: describe_outcome(src_out),
        tgt_behaviour: tgt_desc,
    };
    match refutation {
        Refutation::TargetUb => {
            let message = match tgt_out {
                Err(ub) => &ub.message,
                Ok(_) => unreachable!("TargetUb refutation from a defined target"),
            };
            cex(
                "Source is guaranteed to be defined, but target is not",
                format!("function exhibits undefined behaviour: {message}"),
            )
        }
        Refutation::ReturnShapeMismatch => {
            let tgt_ret = tgt_out.as_ref().ok().and_then(|(v, _)| v.as_ref());
            cex(
                "Value mismatch",
                format!(
                    "returns {}",
                    tgt_ret.map(|v| v.to_string()).unwrap_or_else(|| "void".into())
                ),
            )
        }
        Refutation::Value(reason) => {
            let tgt_ret = tgt_out.as_ref().ok().and_then(|(v, _)| v.as_ref());
            cex(
                reason,
                format!("ret {}", tgt_ret.expect("value refutation implies a returned value")),
            )
        }
        Refutation::MemoryPoison { alloc, byte } => cex(
            "Mismatch in memory",
            format!("memory byte {byte} of allocation #{alloc} is poison in the target"),
        ),
        Refutation::MemoryByte { alloc, byte, src: s_byte, tgt: t_byte } => cex(
            "Mismatch in memory",
            format!(
                "memory byte {byte} of allocation #{alloc}: source wrote {s_byte:#04x}, target wrote {t_byte:#04x}"
            ),
        ),
    }
}

/// Detection + rendering in one step, for the reference path.
fn refinement_failure(
    src: &Function,
    input: &TestInput,
    src_out: &SourceOutcome,
    tgt_out: &TargetOutcome,
) -> Option<Counterexample> {
    refutation(&input.memory, src_out, tgt_out)
        .map(|r| build_counterexample(src, input, src_out, tgt_out, r))
}

/// Returns a failure reason if `tgt` does not refine `src` as a value.
fn value_refinement_failure(src: &EvalValue, tgt: &EvalValue) -> Option<&'static str> {
    match (src, tgt) {
        (EvalValue::Vector(s), EvalValue::Vector(t)) => {
            if s.len() != t.len() {
                return Some("Value mismatch");
            }
            for (a, b) in s.iter().zip(t) {
                if let Some(r) = value_refinement_failure(a, b) {
                    return Some(r);
                }
            }
            None
        }
        (EvalValue::Poison, _) => None,
        (EvalValue::Undef, EvalValue::Poison) => Some("Target is more poisonous than source"),
        (EvalValue::Undef, _) => None,
        (_, EvalValue::Poison) => Some("Target is more poisonous than source"),
        (_, EvalValue::Undef) => Some("Target is more undefined than source"),
        (s, t) => {
            if s.same_as(t) {
                None
            } else {
                Some("Value mismatch")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::apint::ApInt;
    use lpo_ir::constant::Constant;
    use lpo_ir::flags::IntFlags;
    use lpo_ir::instruction::{BinOp, ICmpPred, InstKind, Instruction, Value};
    use lpo_ir::parser::parse_function;

    fn check(src: &str, tgt: &str) -> Verdict {
        let s = parse_function(src).unwrap();
        let t = parse_function(tgt).unwrap();
        verify_refinement(&s, &t)
    }

    #[test]
    fn accepts_the_paper_clamp_optimization() {
        // Figure 1b → 1c.
        let verdict = check(
            "define i8 @src(i32 %0) {\n\
             %2 = icmp slt i32 %0, 0\n\
             %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
             %4 = trunc nuw i32 %3 to i8\n\
             %5 = select i1 %2, i8 0, i8 %4\n\
             ret i8 %5\n}",
            "define i8 @tgt(i32 %0) {\n\
             %2 = call i32 @llvm.smax.i32(i32 %0, i32 0)\n\
             %3 = call i32 @llvm.umin.i32(i32 %2, i32 255)\n\
             %4 = trunc nuw i32 %3 to i8\n\
             ret i8 %4\n}",
        );
        assert!(verdict.is_correct(), "verdict: {verdict:?}");
    }

    #[test]
    fn rejects_a_wrong_clamp_rewrite() {
        // Dropping the negative clamp changes behaviour for x < 0.
        let verdict = check(
            "define i8 @src(i32 %0) {\n\
             %2 = icmp slt i32 %0, 0\n\
             %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
             %4 = trunc nuw i32 %3 to i8\n\
             %5 = select i1 %2, i8 0, i8 %4\n\
             ret i8 %5\n}",
            "define i8 @tgt(i32 %0) {\n\
             %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
             %4 = trunc i32 %3 to i8\n\
             ret i8 %4\n}",
        );
        let cex = verdict.counterexample().expect("must be incorrect");
        assert_eq!(cex.reason, "Value mismatch");
        let rendered = cex.to_string();
        assert!(rendered.contains("Transformation doesn't verify!"));
        assert!(rendered.contains("Example:"));
        assert!(rendered.contains("Source:"));
        assert!(rendered.contains("Target:"));
    }

    #[test]
    fn rejects_added_poison() {
        // Claiming nuw on an add that can wrap makes the target more poisonous.
        let verdict = check(
            "define i8 @src(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}",
            "define i8 @tgt(i8 %x) {\n %r = add nuw i8 %x, 1\n ret i8 %r\n}",
        );
        let cex = verdict.counterexample().expect("must be incorrect");
        assert_eq!(cex.reason, "Target is more poisonous than source");
        // The reverse direction (dropping the flag) is a valid refinement.
        let verdict = check(
            "define i8 @src(i8 %x) {\n %r = add nuw i8 %x, 1\n ret i8 %r\n}",
            "define i8 @tgt(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}",
        );
        assert!(verdict.is_correct());
    }

    #[test]
    fn rejects_added_ub() {
        let verdict = check(
            "define i32 @src(i32 %x, i32 %y) {\n %r = add i32 %x, %y\n ret i32 %r\n}",
            "define i32 @tgt(i32 %x, i32 %y) {\n %d = udiv i32 %x, %y\n %r = add i32 %x, %y\n ret i32 %r\n}",
        );
        let cex = verdict.counterexample().expect("must be incorrect");
        assert!(cex.reason.contains("guaranteed to be defined"));
    }

    #[test]
    fn accepts_ub_refinement() {
        // Source divides (UB when %y == 0); target returns a constant. Every
        // defined source behaviour (x/x == 1 for x != 0 … well, only when x==y)
        // must still match, so use x/x to keep it simple.
        let verdict = check(
            "define i32 @src(i32 %x) {\n %r = udiv i32 %x, %x\n ret i32 %r\n}",
            "define i32 @tgt(i32 %x) {\n ret i32 1\n}",
        );
        assert!(verdict.is_correct(), "verdict: {verdict:?}");
        // The reverse is NOT correct: target would introduce UB at %x == 0.
        let verdict = check(
            "define i32 @src(i32 %x) {\n ret i32 1\n}",
            "define i32 @tgt(i32 %x) {\n %r = udiv i32 %x, %x\n ret i32 %r\n}",
        );
        assert!(!verdict.is_correct());
    }

    #[test]
    fn signature_mismatch_is_a_fixable_error() {
        let verdict = check(
            "define i32 @src(i32 %x) {\n ret i32 %x\n}",
            "define i32 @tgt(i32 %x, i32 %y) {\n ret i32 %x\n}",
        );
        match verdict {
            Verdict::Error(msg) => assert!(msg.contains("type check")),
            other => panic!("expected an error verdict, got {other:?}"),
        }
        let verdict = check(
            "define i32 @src(i32 %x) {\n ret i32 %x\n}",
            "define i64 @tgt(i32 %x) {\n %r = zext i32 %x to i64\n ret i64 %r\n}",
        );
        assert!(matches!(verdict, Verdict::Error(_)));
    }

    #[test]
    fn memory_effects_are_compared() {
        // Source stores 1; a target that stores 2 must be rejected,
        // a target that stores 1 through an equivalent computation accepted.
        let src = "define void @src(ptr %p) {\n store i32 1, ptr %p, align 4\n ret void\n}";
        let good = "define void @tgt(ptr %p) {\n %v = add i32 0, 1\n store i32 %v, ptr %p, align 4\n ret void\n}";
        let bad = "define void @tgt(ptr %p) {\n store i32 2, ptr %p, align 4\n ret void\n}";
        assert!(check(src, good).is_correct());
        let verdict = check(src, bad);
        assert_eq!(verdict.counterexample().unwrap().reason, "Mismatch in memory");
    }

    #[test]
    fn accepts_load_widening_case_study_1() {
        let verdict = check(
            "define i32 @src(ptr %0) {\n\
             %2 = load i16, ptr %0, align 2\n\
             %3 = getelementptr i8, ptr %0, i64 2\n\
             %4 = load i16, ptr %3, align 1\n\
             %5 = zext i16 %4 to i32\n\
             %6 = shl nuw i32 %5, 16\n\
             %7 = zext i16 %2 to i32\n\
             %8 = or disjoint i32 %6, %7\n\
             ret i32 %8\n}",
            "define i32 @tgt(ptr %0) {\n %2 = load i32, ptr %0, align 2\n ret i32 %2\n}",
        );
        assert!(verdict.is_correct(), "verdict: {verdict:?}");
    }

    #[test]
    fn accepts_redundant_umax_removal_case_study_2() {
        let verdict = check(
            "define i8 @src(i8 %0) {\n\
             %2 = call i8 @llvm.umax.i8(i8 %0, i8 1)\n\
             %3 = shl nuw i8 %2, 1\n\
             %4 = call i8 @llvm.umax.i8(i8 %3, i8 16)\n\
             ret i8 %4\n}",
            "define i8 @tgt(i8 %0) {\n\
             %2 = shl nuw i8 %0, 1\n\
             %3 = call i8 @llvm.umax.i8(i8 %2, i8 16)\n\
             ret i8 %3\n}",
        );
        assert!(verdict.is_correct(), "verdict: {verdict:?}");
    }

    #[test]
    fn accepts_fcmp_simplification_case_study_3() {
        let verdict = check(
            "define i1 @src(double %0) {\n\
             %2 = fcmp ord double %0, 0.000000e+00\n\
             %3 = select i1 %2, double %0, double 0.000000e+00\n\
             %4 = fcmp oeq double %3, 1.000000e+00\n\
             ret i1 %4\n}",
            "define i1 @tgt(double %0) {\n %2 = fcmp oeq double %0, 1.000000e+00\n ret i1 %2\n}",
        );
        assert!(verdict.is_correct(), "verdict: {verdict:?}");
    }

    #[test]
    fn rejects_vector_lane_errors() {
        let verdict = check(
            "define <4 x i8> @src(<4 x i8> %x) {\n\
             %r = add <4 x i8> %x, splat (i8 1)\n ret <4 x i8> %r\n}",
            "define <4 x i8> @tgt(<4 x i8> %x) {\n\
             %r = add <4 x i8> %x, <i8 1, i8 1, i8 2, i8 1>\n ret <4 x i8> %r\n}",
        );
        assert!(!verdict.is_correct());
        let verdict = check(
            "define <4 x i8> @src(<4 x i8> %x) {\n\
             %r = add <4 x i8> %x, splat (i8 1)\n ret <4 x i8> %r\n}",
            "define <4 x i8> @tgt(<4 x i8> %x) {\n\
             %r = sub <4 x i8> %x, splat (i8 -1)\n ret <4 x i8> %r\n}",
        );
        assert!(verdict.is_correct());
    }

    #[test]
    fn equivalence_helper() {
        let equivalent = |a: &Function, b: &Function| {
            verify_refinement(a, b).is_correct() && verify_refinement(b, a).is_correct()
        };
        let a = parse_function("define i32 @a(i32 %x) {\n %r = mul i32 %x, 2\n ret i32 %r\n}").unwrap();
        let b = parse_function("define i32 @b(i32 %x) {\n %r = shl i32 %x, 1\n ret i32 %r\n}").unwrap();
        let c = parse_function("define i32 @c(i32 %x) {\n %r = shl nuw i32 %x, 1\n ret i32 %r\n}").unwrap();
        assert!(equivalent(&a, &b));
        // c is a refinement target of neither direction being equal: a ⇒ c adds poison.
        assert!(!equivalent(&a, &c));
        assert!(verify_refinement(&c, &a).is_correct());
    }

    #[test]
    fn source_cache_evaluates_the_source_once_per_input() {
        let src = parse_function(
            "define i8 @src(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}",
        )
        .unwrap();
        let candidates = [
            "define i8 @tgt(i8 %x) {\n %r = sub i8 %x, -1\n ret i8 %r\n}",
            "define i8 @tgt(i8 %x) {\n %r = add i8 %x, 2\n ret i8 %r\n}", // wrong
            "define i8 @tgt(i8 %x) {\n %r = add nuw i8 %x, 1\n ret i8 %r\n}", // more poisonous
            "define i8 @tgt(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}",
        ];
        let cache = SourceCache::new(&src, TvConfig::default());
        assert_eq!(cache.source_eval_count(), 0, "lazy until the first verify");
        let mut arena = EvalArena::new();

        // Outcomes fill lazily per input: a candidate rejected on the very
        // first input (src(0) = 1, this tgt(0) = 2) costs one source
        // evaluation, not the whole 256-input sweep.
        let early = parse_function("define i8 @tgt(i8 %x) {\n %r = add i8 %x, 2\n ret i8 %r\n}").unwrap();
        assert!(!cache.verify_with(&early, &mut arena).is_correct());
        assert_eq!(cache.source_eval_count(), 1);
        let cached: Vec<Verdict> = candidates
            .iter()
            .map(|t| cache.verify_with(&parse_function(t).unwrap(), &mut arena))
            .collect();
        // i8 signature → 256 exhaustive inputs, each evaluated exactly once on
        // the source side no matter how many candidates were checked.
        assert_eq!(cache.source_eval_count(), 256);

        // Cached verdicts are identical to the uncached one-shot path.
        for (text, verdict) in candidates.iter().zip(&cached) {
            let uncached = verify_refinement(&src, &parse_function(text).unwrap());
            assert_eq!(*verdict, uncached, "cached verdict diverged for {text}");
        }
        assert!(cached[0].is_correct());
        assert_eq!(cached[1].counterexample().unwrap().reason, "Value mismatch");
        assert_eq!(
            cached[2].counterexample().unwrap().reason,
            "Target is more poisonous than source"
        );
        assert!(cached[3].is_correct());

        // A signature mismatch is rejected before any evaluation happens.
        let other = parse_function("define i8 @tgt(i16 %x) {\n %r = trunc i16 %x to i8\n ret i8 %r\n}").unwrap();
        assert!(matches!(cache.verify_with(&other, &mut arena), Verdict::Error(_)));
        assert_eq!(cache.source_eval_count(), 256);
    }

    #[test]
    fn staged_counters_split_probe_rejects_from_survivors() {
        let src = parse_function("define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();
        let wrong = parse_function("define i8 @t(i8 %x) {\n %r = add i8 %x, 2\n ret i8 %r\n}").unwrap();
        let right = parse_function("define i8 @t(i8 %x) {\n %r = sub i8 %x, -1\n ret i8 %r\n}").unwrap();
        let case = SourceCache::new(&src, TvConfig::default());
        let mut arena = EvalArena::new();

        assert!(!case.verify_with(&wrong, &mut arena).is_correct());
        assert_eq!((case.probe_rejects(), case.survivors()), (1, 0));
        // The wrong candidate died on input 0: one source eval, no compile.
        assert_eq!(case.source_eval_count(), 1);

        assert!(case.verify_with(&right, &mut arena).is_correct());
        assert_eq!((case.probe_rejects(), case.survivors()), (1, 1));
        assert_eq!(case.candidates_checked(), 2);
        assert_eq!(case.source_eval_count(), 256);

        // Signature errors never count as checked candidates.
        let other = parse_function("define i8 @t(i16 %x) {\n %r = trunc i16 %x to i8\n ret i8 %r\n}").unwrap();
        assert!(matches!(case.verify_with(&other, &mut arena), Verdict::Error(_)));
        assert_eq!(case.candidates_checked(), 2);
    }

    #[test]
    fn probe_window_extremes_agree_with_the_reference() {
        let src = parse_function("define i8 @s(i8 %x) {\n %r = mul i8 %x, 2\n ret i8 %r\n}").unwrap();
        let candidates = [
            "define i8 @t(i8 %x) {\n %r = shl i8 %x, 1\n ret i8 %r\n}",
            "define i8 @t(i8 %x) {\n %r = shl i8 %x, 2\n ret i8 %r\n}",
        ];
        for text in candidates {
            let tgt = parse_function(text).unwrap();
            let reference = verify_refinement_reference(&src, &tgt, &TvConfig::default());
            for probe in [0usize, 1, 255, 256, usize::MAX] {
                let config = TvConfig { probe_inputs: probe, ..TvConfig::default() };
                assert_eq!(
                    verify_refinement_with(&src, &tgt, &config),
                    reference,
                    "probe {probe} diverged for {text}"
                );
            }
        }
    }

    #[test]
    fn sharded_sweep_matches_serial_for_every_shard_size() {
        use crate::frozen::SerialDriver;
        let src = parse_function("define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();
        let candidates = [
            // Correct (full sweep, no finding).
            "define i8 @t(i8 %x) {\n %r = sub i8 %x, -1\n ret i8 %r\n}",
            // Refuted inside the probe window.
            "define i8 @t(i8 %x) {\n %r = add i8 %x, 2\n ret i8 %r\n}",
            // Refuted mid-sweep: wrong only for negative inputs (index 128+).
            "define i8 @t(i8 %x) {\n %c = icmp slt i8 %x, 0\n %a = add i8 %x, 1\n %b = add i8 %x, 2\n %r = select i1 %c, i8 %b, i8 %a\n ret i8 %r\n}",
            // More poisonous survivor.
            "define i8 @t(i8 %x) {\n %r = add nuw i8 %x, 1\n ret i8 %r\n}",
            // Signature error.
            "define i8 @t(i16 %x) {\n %r = trunc i16 %x to i8\n ret i8 %r\n}",
        ];
        let mut arena = EvalArena::new();
        for plane_sweep in [true, false] {
            let config = TvConfig { plane_sweep, ..TvConfig::default() };
            for text in candidates {
                let tgt = parse_function(text).unwrap();
                // The independent oracle: the retained single-stage path.
                let reference_case = SourceCache::new(&src, config.clone());
                let reference = reference_case.verify_reference(&tgt, &mut arena);
                for shard_size in [1usize, 7, 256, usize::MAX] {
                    let case = SourceCache::new(&src, config.clone());
                    let sharded =
                        case.verify_with_driver(&tgt, &mut arena, &SerialDriver, shard_size);
                    assert_eq!(
                        sharded, reference,
                        "shard size {shard_size} (plane {plane_sweep}) diverged for {text}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_source_eval_count_reaches_the_total_once() {
        use crate::frozen::SerialDriver;
        // Plane-eligible source (dense frozen case) and one with control
        // flow (materialized frozen case): the count contract is the same.
        let sources = [
            ("define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}", true),
            (
                "define i8 @s(i8 %x) {\nentry:\n %c = icmp eq i8 %x, 0\n br i1 %c, label %z, label %n\nz:\n ret i8 1\nn:\n %r = add i8 %x, 1\n ret i8 %r\n}",
                false,
            ),
        ];
        let early_wrong =
            parse_function("define i8 @t(i8 %x) {\n %r = add i8 %x, 2\n ret i8 %r\n}").unwrap();
        // Wrong only for negative inputs: survives the probe, refuted at 128.
        let late_wrong = parse_function("define i8 @t(i8 %x) {\n %c = icmp slt i8 %x, 0\n %a = add i8 %x, 1\n %b = add i8 %x, 2\n %r = select i1 %c, i8 %b, i8 %a\n ret i8 %r\n}").unwrap();
        let correct =
            parse_function("define i8 @t(i8 %x) {\n %r = sub i8 %x, -1\n ret i8 %r\n}").unwrap();
        let mut arena = EvalArena::new();
        for (text, dense) in sources {
            let src = parse_function(text).unwrap();
            let case = SourceCache::new(&src, TvConfig::default());
            let reference = SourceCache::new(&src, TvConfig::default());

            // A probe reject costs one source evaluation, held in the prefix.
            let verdict = case.verify_with_driver(&early_wrong, &mut arena, &SerialDriver, 16);
            assert_eq!(verdict, reference.verify_reference(&early_wrong, &mut arena));
            assert_eq!(case.source_eval_count(), 1);
            assert_eq!(case.prefix.borrow().len(), 1, "the prefix grows only as far as reached");

            // The first survivor freezes the case: every input counted once,
            // and rendering the refutation at input 128 rebuilds that
            // outcome without counting it again.
            let verdict = case.verify_with_driver(&late_wrong, &mut arena, &SerialDriver, 16);
            assert_eq!(verdict, reference.verify_reference(&late_wrong, &mut arena));
            assert!(!verdict.is_correct());
            assert_eq!(case.source_eval_count(), 256);
            assert_eq!(case.frozen_case(&mut arena).is_dense(), dense, "{text}");
            // The prefix keeps the probe window (a materialized case took it
            // over): rendering input 128 did not grow it.
            assert_eq!(case.prefix.borrow().len(), if dense { 16 } else { 0 }, "{text}");

            // Later survivors, and single-shard walks on the frozen cache,
            // stay put.
            let verdict = case.verify_with_driver(&correct, &mut arena, &SerialDriver, 16);
            assert!(verdict.is_correct());
            let rerun = case.verify_with(&late_wrong, &mut arena);
            assert_eq!(rerun, reference.verify_reference(&late_wrong, &mut arena));
            assert_eq!(case.source_eval_count(), 256);
        }
    }

    #[test]
    fn compile_cache_serves_structural_twins() {
        let cache = CompileCache::new();
        assert!(cache.is_empty());
        let a = parse_function("define i8 @a(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();
        let b = parse_function("define i8 @b(i8 %y) {\n %q = add i8 %y, 1\n ret i8 %q\n}").unwrap();
        let c = parse_function("define i8 @c(i8 %x) {\n %r = add i8 %x, 3\n ret i8 %r\n}").unwrap();
        let first = cache.get_or_compile(&a);
        let twin = cache.get_or_compile(&b);
        assert!(Arc::ptr_eq(&first, &twin), "structural twins must share one compile");
        let other = cache.get_or_compile(&c);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
        assert!(format!("{cache:?}").contains("hits"));
    }

    #[test]
    fn retained_freezes_are_shared_up_to_the_lane_budget() {
        // Exhaustive i16 sources: 2^16 inputs each, so the budget holds
        // `fits` of them.
        let lanes = 1 << 16;
        let fits = CompileCache::FREEZE_LANE_BUDGET / lanes;
        let config = TvConfig::default();
        let source = |k: usize, x: &str| {
            parse_function(&format!("define i16 @s(i16 %{x}) {{\n %r = add i16 %{x}, {k}\n ret i16 %r\n}}"))
                .unwrap()
        };
        // Wrong only at the top of the range: survives the probe.
        let late_wrong = |k: usize| {
            parse_function(&format!(
                "define i16 @t(i16 %x) {{\n %c = icmp ugt i16 %x, 60000\n %a = add i16 %x, {k}\n %b = add i16 %x, {}\n %r = select i1 %c, i16 %b, i16 %a\n ret i16 %r\n}}",
                k + 1
            ))
            .unwrap()
        };
        let cache = CompileCache::new();
        let mut arena = EvalArena::new();
        let mut first_inputs = None;
        for k in 1..=fits + 1 {
            let src = source(k, "x");
            let case = SourceCache::new(&src, config.clone()).with_compile_cache(&cache);
            assert!(case.verify_with(&src, &mut arena).is_correct());
            assert_eq!(case.source_eval_count(), lanes);
            first_inputs.get_or_insert_with(|| case.inputs().clone());
        }
        let first_inputs = first_inputs.unwrap();
        assert_eq!((cache.freezes(), cache.freeze_hits()), (fits + 1, 0));
        assert_eq!(cache.frozen.lock().unwrap().lanes, fits * lanes, "the last freeze is past the budget");

        // A retained freeze serves a renamed twin, which evaluates only its
        // probe prefix, draws its inputs from the freeze and renders its own
        // names in the counterexample.
        let twin = source(1, "renamed");
        let case = SourceCache::new(&twin, config.clone()).with_compile_cache(&cache);
        let verdict = case.verify_with(&late_wrong(1), &mut arena);
        assert_eq!(verdict, verify_refinement_reference(&twin, &late_wrong(1), &config));
        assert!(verdict.counterexample().unwrap().to_string().contains("%renamed"));
        assert_eq!((cache.freezes(), cache.freeze_hits()), (fits + 1, 1));
        assert_eq!(case.source_eval_count(), config.probe_inputs);
        assert_eq!(case.last_tier(), Some(VerdictTier::RefutedConcrete));
        assert!(Arc::ptr_eq(case.inputs(), &first_inputs), "the twin generated its own inputs");

        // A probe reject never freezes, but its probe still runs on the
        // retained freeze's inputs, and taking them is not a freeze hit.
        let early_wrong = parse_function("define i16 @t(i16 %x) {\n ret i16 0\n}").unwrap();
        let case = SourceCache::new(&twin, config.clone()).with_compile_cache(&cache);
        let verdict = case.verify_with(&early_wrong, &mut arena);
        assert_eq!(verdict, verify_refinement_reference(&twin, &early_wrong, &config));
        assert_eq!(case.probe_rejects(), 1);
        assert!(Arc::ptr_eq(case.inputs(), &first_inputs), "the probe generated its own inputs");
        assert_eq!((cache.freezes(), cache.freeze_hits()), (fits + 1, 1));

        // Another input configuration or plane setting is another key, even
        // where the inputs come out the same.
        for other in [
            TvConfig { inputs: InputConfig { seed: 7, ..InputConfig::default() }, ..config.clone() },
            TvConfig { plane_sweep: false, ..config.clone() },
        ] {
            let case = SourceCache::new(&twin, other).with_compile_cache(&cache);
            assert!(!case.verify_with(&late_wrong(1), &mut arena).is_correct());
            assert_eq!(case.source_eval_count(), lanes);
            assert!(!Arc::ptr_eq(case.inputs(), &first_inputs));
        }
        assert_eq!((cache.freezes(), cache.freeze_hits()), (fits + 3, 1));

        // The source past the budget was not retained: it generates its
        // inputs, freezes again and still decides right.
        let last = source(fits + 1, "x");
        let case = SourceCache::new(&last, config.clone()).with_compile_cache(&cache);
        let verdict = case.verify_with(&late_wrong(fits + 1), &mut arena);
        assert_eq!(verdict, verify_refinement_reference(&last, &late_wrong(fits + 1), &config));
        assert!(!verdict.is_correct());
        assert_eq!((cache.freezes(), cache.freeze_hits()), (fits + 4, 1));
        assert_eq!(case.source_eval_count(), lanes);
        assert!(!Arc::ptr_eq(case.inputs(), &first_inputs));
        assert_eq!(cache.frozen.lock().unwrap().lanes, fits * lanes);
    }

    #[test]
    fn tiers_tag_concrete_outcomes() {
        let src = parse_function("define i8 @s(i8 %x) {\n %r = mul i8 %x, 2\n ret i8 %r\n}").unwrap();
        let right = parse_function("define i8 @t(i8 %x) {\n %r = shl i8 %x, 1\n ret i8 %r\n}").unwrap();
        let wrong = parse_function("define i8 @t(i8 %x) {\n %r = shl i8 %x, 2\n ret i8 %r\n}").unwrap();
        let case = SourceCache::new(&src, TvConfig::default());
        let mut arena = EvalArena::new();
        assert!(case.verify_with(&right, &mut arena).is_correct());
        assert_eq!(case.last_tier(), Some(VerdictTier::Tested));
        assert!(!case.verify_with(&wrong, &mut arena).is_correct());
        assert_eq!(case.last_tier(), Some(VerdictTier::RefutedConcrete));
        assert_eq!((case.probe_rejects(), case.survivors()), (1, 1));

        // Signature errors clear the tag.
        let other =
            parse_function("define i8 @t(i16 %x) {\n %r = trunc i16 %x to i8\n ret i8 %r\n}").unwrap();
        assert!(matches!(case.verify_with(&other, &mut arena), Verdict::Error(_)));
        assert_eq!(case.last_tier(), None);
    }

    #[test]
    fn verdict_tier_names_round_trip() {
        for tier in [VerdictTier::Proved, VerdictTier::Tested, VerdictTier::RefutedConcrete] {
            assert_eq!(VerdictTier::parse(tier.as_str()), Some(tier));
            assert_eq!(tier.to_string(), tier.as_str());
        }
        for retired in ["solved", "refuted-abstract"] {
            assert_eq!(VerdictTier::parse(retired), None);
        }
    }

    #[test]
    fn correct_verdict_reports_exhaustiveness() {
        // (source, target, inputs checked, exhaustive); `None` leaves the
        // count unchecked.
        let cases = [
            (
                "define i8 @src(i8 %x) {\n ret i8 %x\n}",
                "define i8 @tgt(i8 %x) {\n ret i8 %x\n}",
                Some(256),
                true,
            ),
            (
                "define i64 @src(i64 %x) {\n ret i64 %x\n}",
                "define i64 @tgt(i64 %x) {\n ret i64 %x\n}",
                None,
                false,
            ),
            // srem(i64 MAX, i64 MIN) keeps the dividend: q = 0, r = MAX.
            (
                "define i64 @src() {\n ret i64 9223372036854775807\n}",
                "define i64 @tgt() {\n %r = srem i64 9223372036854775807, -9223372036854775808\n ret i64 %r\n}",
                Some(1),
                true,
            ),
        ];
        for (src, tgt, count, want_exhaustive) in cases {
            match check(src, tgt) {
                Verdict::Correct { inputs_checked, exhaustive } => {
                    assert_eq!(exhaustive, want_exhaustive, "{tgt}");
                    if let Some(count) = count {
                        assert_eq!(inputs_checked, count, "{tgt}");
                    }
                }
                other => panic!("unexpected verdict {other:?} for {tgt}"),
            }
        }
    }

    /// In the plane domain the dense table is exact: for every source tag
    /// (UB, poison, undef, concrete) against every kind of target lane (UB,
    /// poison, undef, an equal and a different value), at widths 1, 8 and
    /// 64, `!lane_refines` holds exactly when the materialized comparison
    /// finds a refutation, and the table rebuilds every non-UB source
    /// outcome it was flattened from.
    #[test]
    fn lane_refines_is_exact() {
        let parameterless = parse_function("define i8 @k() {\n ret i8 0\n}").unwrap();
        let inputs = InputSet::generate(&parameterless, &InputConfig::default());
        let (mut refuted, mut refined) = (0, 0);
        for width in [1u32, 8, 64] {
            let mask = u64::MAX >> (64 - width);
            for value in [0, 1, mask, 1 << (width - 1), mask >> 1] {
                let concrete = EvalValue::int(width, value as u128);
                let other = EvalValue::int(width, (value ^ mask) as u128);
                // `udiv x, 1` is `x` on every kind of lane, and `udiv x, 0` is UB.
                let one = EvalValue::int(width, 1);
                let rows: [[EvalValue; 2]; 5] = [
                    [concrete.clone(), one.clone()],
                    [other, one.clone()],
                    [EvalValue::Poison, one.clone()],
                    [EvalValue::Undef, one],
                    [concrete.clone(), EvalValue::int(width, 0)],
                ];
                let rows: Vec<&[EvalValue]> = rows.iter().map(|r| r.as_slice()).collect();
                let mut tape = PlaneTape::new(&[width, width], &rows).unwrap();
                let plane = tape.binary(BinOp::UDiv, IntFlags::none(), 0, 1);
                tape.run(plane, 0..rows.len());
                let lanes = tape.view(plane);
                let sources: [SourceOutcome; 4] = [
                    Err(lanes.value(4).unwrap_err()),
                    Ok((Some(EvalValue::Poison), Memory::new())),
                    Ok((Some(EvalValue::Undef), Memory::new())),
                    Ok((Some(concrete), Memory::new())),
                ];
                let table = dense_table(&inputs, sources.iter()).expect("scalar outcomes flatten");
                assert_eq!(lanes.value(0).unwrap(), rows[0][0]);
                assert_ne!(lanes.value(1).unwrap(), rows[0][0]);
                assert!(lanes.is_poison(2) && lanes.is_undef(3) && lanes.is_ub(4));
                for (index, src_out) in sources.iter().enumerate() {
                    if src_out.is_ok() {
                        assert_eq!(table.outcome(index, width, &Memory::new()).as_ref(), Some(src_out));
                    }
                    for lane in 0..rows.len() {
                        let tgt_out = lanes.value(lane).map(|v| (Some(v), Memory::new()));
                        let materialized = refutation(&Memory::new(), src_out, &tgt_out).is_some();
                        assert_eq!(
                            !table.lane_refines(index, &lanes, lane),
                            materialized,
                            "width {width}, value {value:#x}, source {src_out:?}, target {tgt_out:?}"
                        );
                        if materialized {
                            refuted += 1;
                        } else {
                            refined += 1;
                        }
                    }
                }
            }
        }
        assert!(refuted > 0 && refined > 0);
    }

    /// The reference answer for [`SourceCache::tape_refutes`]: runs `plane`
    /// on every lane and returns the first whose value fails against its
    /// source outcome, without the dense table or any window schedule.
    fn first_refuting_lane(
        case: &SourceCache,
        tape: &mut PlaneTape,
        plane: usize,
        arena: &mut EvalArena,
    ) -> Option<usize> {
        let total = tape.lanes();
        tape.run(plane, 0..total);
        let lanes = tape.view(plane);
        (0..total).find(|&index| {
            let tgt_out = lanes.value(index).map(|v| (Some(v), case.inputs().memory(index).clone()));
            case.check_input(index, &tgt_out, arena).is_some()
        })
    }

    /// `op a, b` returned from a function with `src`'s signature.
    fn binary_candidate(src: &Function, op: BinOp, a: &Value, b: &Value) -> Function {
        let mut f = Function::new("t", src.ret_ty.clone());
        f.params = src.params.clone();
        let entry = f.entry();
        let kind = InstKind::Binary { op, lhs: a.clone(), rhs: b.clone(), flags: IntFlags::none() };
        let id = f.append_inst(entry, Instruction::new(kind, src.ret_ty.clone(), "r"));
        let ret = InstKind::Ret { value: Some(Value::Inst(id)) };
        f.append_inst(entry, Instruction::new(ret, Type::Void, ""));
        f
    }

    /// Probe sizes on both sides of every window edge of the schedule, and
    /// at and past the input total.
    fn window_probes(total: usize) -> [usize; 9] {
        [0, 1, 2, 3, 4, 5, 16, total, usize::MAX]
    }

    /// Over plane-eligible sources, input sets from one lane up and every
    /// probe size, `tape_refutes` must agree with a check of every lane on
    /// each `op a, b` candidate over the arguments and a few constants —
    /// down to the first refuting input it reports — and a refuted
    /// candidate must be rejected by `verify_outcome_only`.
    #[test]
    fn tape_window_schedule_agrees_with_every_lane() {
        let hand = [
            "define i8 @none() {\n %r = add i8 7, 3\n ret i8 %r\n}",
            "define i1 @one(i1 %x) {\n %r = xor i1 %x, true\n ret i1 %r\n}",
            "define i1 @two(i1 %x, i1 %y) {\n %r = and i1 %x, %y\n ret i1 %r\n}",
            "define i8 @mul(i8 %x) {\n %r = mul i8 %x, 2\n ret i8 %r\n}",
            "define i4 @divides(i4 %x, i4 %y) {\n %d = udiv i4 %x, %y\n %r = mul i4 %d, %y\n ret i4 %r\n}",
        ];
        let mut sources: Vec<(Function, InputConfig)> =
            hand.iter().map(|text| (parse_function(text).unwrap(), InputConfig::default())).collect();
        let shape = lpo_interp::fuzz::FuzzConfig { max_params: 2, max_insts: 4 };
        let count = if cfg!(debug_assertions) { 40 } else { 200 };
        for seed in crate::fuzz_seeds::seed_block(count, 0x7a9e_5eed, "tape-window") {
            // Exhaustive sets from one lane up to 1024, and small sampled ones.
            let inputs =
                InputConfig { exhaustive_bits: (seed % 11) as u32, random_samples: 4 + (seed % 20) as usize, seed };
            sources.push((lpo_interp::fuzz::random_function_with(seed, &shape), inputs));
        }
        let (mut eligible, mut refuted_total, mut passed_total) = (0, 0, 0);
        for (i, (src, inputs)) in sources.iter().enumerate() {
            let total = InputSet::generate(src, inputs).len();
            for probe_inputs in window_probes(total) {
                let config = TvConfig { inputs: inputs.clone(), probe_inputs, ..TvConfig::default() };
                let case = SourceCache::new(src, config);
                let mut arena = EvalArena::new();
                let Some(mut tape) = case.plane_tape(&mut arena) else {
                    assert!(i >= hand.len(), "hand source {i} must be plane-eligible");
                    continue;
                };
                eligible += 1;
                let width = src.ret_ty.int_width().expect("plane-eligible sources return an integer");
                let mut leaves: Vec<(Value, usize)> = (0..src.params.len())
                    .filter(|&j| src.params[j].ty == src.ret_ty)
                    .map(|j| (Value::Arg(j), j))
                    .collect();
                for c in [0, 1, 5, u128::MAX] {
                    let value = ApInt::new(width, c);
                    let plane = tape.constant(&value).expect("widths are at most 64");
                    leaves.push((Value::Const(Constant::Int(value)), plane));
                }
                let fixed = tape.len();
                for op in BinOp::ALL {
                    for (a, pa) in &leaves {
                        for (b, pb) in &leaves {
                            let plane = tape.binary(op, IntFlags::none(), *pa, *pb);
                            let refuted = case.tape_refutes(&mut tape, plane, &mut arena);
                            let context = || {
                                let src = printer::print_function(src);
                                format!("{op:?} {a:?} {b:?}, probe {probe_inputs}, {total} lanes, source\n{src}")
                            };
                            let naive = first_refuting_lane(&case, &mut tape, plane, &mut arena);
                            assert_eq!(refuted, naive, "{}", context());
                            if refuted.is_some() {
                                refuted_total += 1;
                                let candidate = binary_candidate(src, op, a, b);
                                assert!(!case.verify_outcome_only(&candidate, &mut arena), "{}", context());
                            } else {
                                passed_total += 1;
                            }
                            tape.truncate(fixed);
                        }
                    }
                }
            }
        }
        eprintln!("tape windows: {eligible} eligible cases, {refuted_total} refuted, {passed_total} passed");
        assert!(refuted_total > 0 && passed_total > 0);
    }

    /// A plane index reused after `truncate` keeps the previous candidate's
    /// lanes until a window runs over them. Candidate A refutes only on the
    /// last input, so every window runs and leaves a refining value in each
    /// earlier lane; candidate B, pushed onto A's index, refutes only on
    /// input `k`. Were any window up to `k` skipped, lane `k` would still
    /// hold A's value and B would pass.
    #[test]
    fn tape_window_schedule_never_reads_stale_lanes() {
        // Always false, so `icmp eq %x, k` refutes exactly on lane `k`
        // (exhaustive i8 inputs: lane `k` holds `%x = k`).
        let src =
            parse_function("define i1 @s(i8 %x) {\n %c = icmp ult i8 %x, 0\n ret i1 %c\n}").unwrap();
        for probe_inputs in window_probes(256) {
            let case = SourceCache::new(&src, TvConfig { probe_inputs, ..TvConfig::default() });
            let mut arena = EvalArena::new();
            let mut tape = case.plane_tape(&mut arena).expect("the source is plane-eligible");
            let last = tape.constant(&ApInt::new(8, 255)).unwrap();
            for k in [1u128, 2, 3, 4, 5, 15, 16, 17, 200, 254] {
                let plane_k = tape.constant(&ApInt::new(8, k)).unwrap();
                let fixed = tape.len();
                let stale = tape.icmp(ICmpPred::Eq, 0, last);
                assert_eq!(case.tape_refutes(&mut tape, stale, &mut arena), Some(255));
                tape.truncate(fixed);
                let fresh = tape.icmp(ICmpPred::Eq, 0, plane_k);
                assert_eq!(fresh, stale, "B must reuse A's plane storage");
                let refuting = case.tape_refutes(&mut tape, fresh, &mut arena);
                assert_eq!(refuting, Some(k as usize), "input {k}, probe {probe_inputs}");
                tape.truncate(fixed - 1);
            }
        }
    }
}
