//! Thread-shareable snapshots of a verification case, and the shard
//! decomposition of the Stage-3 survivor sweep.
//!
//! The per-case [`SourceCache`](crate::refine::SourceCache) is deliberately
//! single-threaded (`Cell`/`RefCell` state, lazily filled): it lives on one
//! worker and fills the probe window's source outcomes in input order as
//! candidates walk them, so a case whose candidates all die in the probe
//! never pays for the full source sweep. A [`FrozenCase`] is what every
//! probe survivor's sweep runs against: an immutable, `Arc`-shared snapshot
//! of everything the sweep needs (the generated inputs, the compiled
//! source, and the source's outcome on every input), cheap to clone across
//! threads.
//!
//! The inputs are the case's shared [`InputSet`]: `u64` columns for a
//! scalar-integer signature, which the plane chunks copy straight into
//! their parameter planes, or one [`TestInput`](crate::inputs::TestInput)
//! per lane otherwise. A column lane becomes a `TestInput` only where one
//! is needed — a suspect lane whose source outcome is evaluated on the
//! spot, or a lane of the serial tail of a candidate with no plane form.
//!
//! The source outcomes take one of two forms. When the source is
//! plane-eligible (and the plane tier is on), the frozen case is a **dense
//! table** only — one tag byte and one `u64` per input, swept on planes with
//! no per-input source outcome ever built; the rare lane the dense
//! pre-filter can't clear rebuilds its source outcome from that lane's tag
//! and bits.
//! Otherwise (memory, vectors, control flow, wide returns) every outcome is
//! **fully materialized**, plus the dense table when the return shape can
//! carry one.
//!
//! On top of it, a [`SweepShard`] is one stealable unit of Stage-3 work: the
//! half-open input range `[start, end)` of one candidate's survivor sweep.
//! [`SweepShard::run`] is the staged walk's only sweep — plane chunks of 256
//! lanes while the inputs stay in the plane domain, then one input at a
//! time on the compiled evaluator — and stops at the shard's first refuting
//! input. The serial entry points run the whole sweep as one shard on
//! [`SerialDriver`].
//!
//! # Ordered merge and cancellation
//!
//! Shards are scheduled by a [`SweepDriver`]. The contract that keeps
//! `--jobs N` bit-identical for every `N`:
//!
//! * the driver returns one [`SweepSlot`] per shard, **in shard order**;
//! * a shard may be [`Cancelled`](SweepSlot::Cancelled) only if some
//!   earlier shard's outcome [`refutes`](SweepOutcome::refutes);
//! * the merge takes the **first** executed slot with a finding.
//!
//! Because the first refuting input in input order lives in some shard *k*,
//! shards `< k` contain no refuting inputs at all — whether they run before,
//! after or concurrently with shard *k*, they report no finding. So the first
//! finding in shard order is always the first refuting input in input order,
//! exactly what a single shard reports, independent of scheduling.

use crate::inputs::InputSet;
use crate::refine::{
    dense_table, evaluate_source, refutation, DenseOutcomes, Refutation, SourceOutcome,
    TargetOutcome, PLANE_LANES, STEP_LIMIT,
};
use lpo_interp::compiled::{CompiledFunction, EvalArena};
use lpo_ir::function::Function;
use lpo_ir::types::Type;
use std::borrow::Cow;
use std::sync::Arc;

/// An immutable, `Send + Sync` snapshot of one verification case: the source
/// function and its compiled form, its generated test inputs, and the
/// source's outcome on **every** input — a dense table when the source is
/// plane-eligible, fully materialized otherwise (see the module docs).
/// Cloning is an `Arc` bump.
///
/// Input layout: the inputs are the [`SourceCache`](crate::refine::SourceCache)'s
/// own `Arc<InputSet>`, held as `u64` columns when every parameter is an
/// integer of at most 64 bits (always the case for a dense table) and as
/// rows otherwise; see [`crate::inputs`].
///
/// Built only by [`SourceCache::frozen_case`](crate::refine::SourceCache::frozen_case),
/// which computes every source outcome at once — so a frozen case
/// front-loads the source sweep. The staged walk freezes on the first probe
/// survivor; probe rejects never get here.
#[derive(Clone)]
pub struct FrozenCase {
    inner: Arc<FrozenInner>,
}

struct FrozenInner {
    src: Function,
    compiled_src: Arc<CompiledFunction>,
    inputs: Arc<InputSet>,
    /// The source outcome per input; `None` for a dense case, whose suspect
    /// lanes rebuild theirs from the dense table.
    outcomes: Option<Vec<SourceOutcome>>,
    /// Dense comparison table for the sweep's pre-filter; `None` when the
    /// case's shape can't carry it (memory, vectors, wide/void returns).
    /// Always present when `outcomes` is `None`.
    dense: Option<Arc<DenseOutcomes>>,
    plane_sweep: bool,
}

impl FrozenInner {
    /// Input `index`'s source outcome: borrowed from the materialized table,
    /// or rebuilt from the dense table for a dense case. A dense UB lane,
    /// whose message the table does not keep, is evaluated on the spot.
    fn source_outcome(&self, index: usize, arena: &mut EvalArena) -> Cow<'_, SourceOutcome> {
        if let Some(outcomes) = &self.outcomes {
            return Cow::Borrowed(&outcomes[index]);
        }
        let decoded = match (&self.dense, &self.src.ret_ty) {
            (Some(table), Type::Int(w)) => table.outcome(index, *w, self.inputs.memory(index)),
            _ => None,
        };
        Cow::Owned(decoded.unwrap_or_else(|| {
            evaluate_source(&self.compiled_src, &self.inputs.input(index), arena)
        }))
    }
}

fn _frozen_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<FrozenCase>();
    check::<SweepShard>();
}

impl FrozenCase {
    /// A case whose source outcomes exist only as the dense table swept on
    /// planes (so the plane tier is on by construction).
    pub(crate) fn dense(
        src: Function,
        compiled_src: Arc<CompiledFunction>,
        inputs: Arc<InputSet>,
        table: DenseOutcomes,
    ) -> FrozenCase {
        FrozenCase {
            inner: Arc::new(FrozenInner {
                src,
                compiled_src,
                inputs,
                outcomes: None,
                dense: Some(Arc::new(table)),
                plane_sweep: true,
            }),
        }
    }

    /// A case with every source outcome materialized, plus the dense table
    /// when the shape can carry it.
    pub(crate) fn materialized(
        src: Function,
        compiled_src: Arc<CompiledFunction>,
        inputs: Arc<InputSet>,
        outcomes: Vec<SourceOutcome>,
        plane_sweep: bool,
    ) -> FrozenCase {
        let dense = dense_table(&inputs, outcomes.iter()).map(Arc::new);
        FrozenCase {
            inner: Arc::new(FrozenInner {
                src,
                compiled_src,
                inputs,
                outcomes: Some(outcomes),
                dense,
                plane_sweep,
            }),
        }
    }

    /// Input `index`'s source outcome; see [`FrozenInner::source_outcome`].
    pub(crate) fn source_outcome(
        &self,
        index: usize,
        arena: &mut EvalArena,
    ) -> Cow<'_, SourceOutcome> {
        self.inner.source_outcome(index, arena)
    }

    /// The materialized source outcomes, or `None` for a dense case.
    pub(crate) fn outcomes(&self) -> Option<&[SourceOutcome]> {
        self.inner.outcomes.as_deref()
    }

    /// The dense comparison table, when the case's shape carries one.
    pub(crate) fn dense_table(&self) -> Option<&Arc<DenseOutcomes>> {
        self.inner.dense.as_ref()
    }

    /// Whether the source outcomes exist only as the dense table.
    pub fn is_dense(&self) -> bool {
        self.inner.outcomes.is_none()
    }

    /// The frozen source function.
    pub fn source(&self) -> &Function {
        &self.inner.src
    }

    /// The case's test inputs.
    pub(crate) fn inputs(&self) -> &Arc<InputSet> {
        &self.inner.inputs
    }

    /// How many test inputs the case covers.
    pub fn input_count(&self) -> usize {
        self.inner.inputs.len()
    }

    /// Whether the inputs enumerate the whole input space.
    pub fn exhaustive(&self) -> bool {
        self.inner.inputs.exhaustive()
    }
}

/// One stealable unit of Stage-3 work: inputs `[start, end)` of one
/// candidate's survivor sweep against a frozen case.
#[derive(Clone)]
pub struct SweepShard {
    case: FrozenCase,
    tgt: Arc<CompiledFunction>,
    start: usize,
    end: usize,
}

impl SweepShard {
    /// Builds the shard for inputs `[start, end)` of `case`.
    pub fn new(case: FrozenCase, tgt: Arc<CompiledFunction>, start: usize, end: usize) -> Self {
        Self { case, tgt, start, end }
    }

    /// Sweeps the shard's input range: plane chunks of `PLANE_LANES` while
    /// the candidate has a plane form and the inputs stay in the plane
    /// domain, then the serial tail, one input at a time on the compiled
    /// evaluator. Stops at the shard's first refuting input.
    ///
    /// A chunk outside the plane domain drops this shard to the serial tail
    /// for its own remainder only; later shards retry the plane. The tiers
    /// produce identical outcomes (proven by `tests/plane_differential.rs`),
    /// so the verdict and the refuting input do not depend on the shard
    /// size; only which evaluator ran a lane can differ.
    pub fn run(&self, arena: &mut EvalArena) -> SweepOutcome {
        let inner = &*self.case.inner;
        let mut index = self.start;
        let mut used_plane = false;
        if inner.plane_sweep {
            if let Some(plan) = self.tgt.plane() {
                while index < self.end {
                    let chunk_end = (index + PLANE_LANES).min(self.end);
                    let Some(result) = inner
                        .inputs
                        .column_window(index..chunk_end)
                        .and_then(|columns| plan.evaluate_columns(arena, &columns, STEP_LIMIT))
                    else {
                        break;
                    };
                    used_plane = true;
                    let view = result.view();
                    for offset in 0..chunk_end - index {
                        let lane_index = index + offset;
                        // Dense pre-filter, then the authoritative comparison
                        // for suspect lanes.
                        if let Some(table) = &inner.dense {
                            if table.lane_refines(lane_index, &view, offset) {
                                continue;
                            }
                        }
                        let initial = inner.inputs.memory(lane_index);
                        let tgt_out = result
                            .outcome(offset, initial.clone())
                            .map(|o| (o.result, o.memory));
                        let src_out = inner.source_outcome(lane_index, arena);
                        if let Some(refutation) = refutation(initial, &src_out, &tgt_out) {
                            return SweepOutcome {
                                finding: Some(SweepFinding { index: lane_index, tgt_out, refutation }),
                                used_plane,
                            };
                        }
                    }
                    index = chunk_end;
                }
            }
        }
        let finding = if index < self.end { self.run_serial(index, arena) } else { None };
        SweepOutcome { finding, used_plane }
    }

    /// Sweeps inputs `[start, end)` of the shard one at a time on
    /// [`CompiledFunction::evaluate_with_limit`]: the tail for candidates
    /// with no plane form and for inputs outside the plane domain. Each lane
    /// takes the dense pre-filter when the case has a table, then the
    /// authoritative comparison. Returns the first refuting input.
    ///
    /// Under 1% of swept lanes reach this tail on every perfbench workload.
    /// It is kept out of line and cold because an inlined tail lost
    /// corpus-discover `cases_per_s` on 16 of 20 interleaved pairs (median
    /// 6–11% lower on seeds 1, 3 and 7) while traced runs showed no
    /// difference in the TV layer: a code-layout effect on the plane loop,
    /// not work done here. A repeat on a noisier 2-vCPU host, 8 pairs per
    /// seed, saw no difference beyond its run-to-run spread (out-of-line vs
    /// inlined medians −5% to +2%, quartile spread 20–43%).
    #[cold]
    #[inline(never)]
    fn run_serial(&self, start: usize, arena: &mut EvalArena) -> Option<SweepFinding> {
        let inner = &*self.case.inner;
        for lane_index in start..self.end {
            let input = inner.inputs.input(lane_index);
            let tgt_out = self
                .tgt
                .evaluate_with_limit(arena, &input.args, input.memory.clone(), STEP_LIMIT)
                .map(|o| (o.result, o.memory));
            // Same pre-filter as the plane loop, on the materialized lane.
            if let Some(table) = &inner.dense {
                if table.outcome_refines(lane_index, &tgt_out) {
                    continue;
                }
            }
            let src_out = inner.source_outcome(lane_index, arena);
            if let Some(refutation) = refutation(&input.memory, &src_out, &tgt_out) {
                return Some(SweepFinding { index: lane_index, tgt_out, refutation });
            }
        }
        None
    }
}

/// What one executed shard concluded.
pub struct SweepOutcome {
    pub(crate) finding: Option<SweepFinding>,
    /// Whether at least one chunk of this shard ran on the plane evaluator.
    pub(crate) used_plane: bool,
}

impl SweepOutcome {
    /// Whether this shard found a refuting input. A driver may cancel all
    /// shards *after* one whose outcome refutes.
    pub fn refutes(&self) -> bool {
        self.finding.is_some()
    }
}

/// A refuting input found by a shard, carrying everything the renderer needs
/// (the input index, the target outcome, the refutation descriptor) without
/// rendering anything on the hot path.
pub(crate) struct SweepFinding {
    pub(crate) index: usize,
    pub(crate) tgt_out: TargetOutcome,
    pub(crate) refutation: Refutation,
}

/// One slot of a driver's result, in shard order.
pub enum SweepSlot {
    /// The shard ran to its first refutation or its end.
    Executed(SweepOutcome),
    /// The shard was skipped because an earlier shard refuted.
    Cancelled,
}

/// Schedules a candidate's sweep shards and returns one [`SweepSlot`] per
/// shard, in shard order. See the module docs for the cancellation contract
/// that keeps the merged verdict scheduling-independent.
pub trait SweepDriver {
    /// Runs `shards`, cancelling later shards once an earlier one refutes.
    fn drive(&self, shards: Vec<SweepShard>, arena: &mut EvalArena) -> Vec<SweepSlot>;
}

/// The in-order reference driver: runs each shard on the caller's thread and
/// cancels everything after the first refuting shard. The work-stealing
/// driver in `lpo-core` is proven slot-equivalent to this by the shard
/// determinism tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialDriver;

impl SweepDriver for SerialDriver {
    fn drive(&self, shards: Vec<SweepShard>, arena: &mut EvalArena) -> Vec<SweepSlot> {
        let mut slots = Vec::with_capacity(shards.len());
        let mut cut = false;
        for shard in shards {
            if cut {
                slots.push(SweepSlot::Cancelled);
                continue;
            }
            let outcome = shard.run(arena);
            cut = outcome.refutes();
            slots.push(SweepSlot::Executed(outcome));
        }
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::{SourceCache, TvConfig, Verdict};
    use lpo_ir::parser::parse_function;

    fn freeze(src: &Function, arena: &mut EvalArena) -> FrozenCase {
        SourceCache::new(src, TvConfig::default()).frozen_case(arena)
    }

    #[test]
    fn frozen_case_materializes_every_outcome() {
        let src =
            parse_function("define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();
        let case = freeze(&src, &mut EvalArena::new());
        assert_eq!(case.input_count(), 256);
        assert!(case.exhaustive());
        assert_eq!(case.source().name, "s");
    }

    #[test]
    fn serial_driver_cancels_after_the_first_refuting_shard() {
        let src =
            parse_function("define i8 @s(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}").unwrap();
        // Wrong only for inputs >= 128 (the sign bit changes srem behaviour),
        // so early shards execute cleanly and a later shard refutes.
        let tgt =
            parse_function("define i8 @t(i8 %x) {\n %c = icmp slt i8 %x, 0\n %a = add i8 %x, 1\n %b = add i8 %x, 2\n %r = select i1 %c, i8 %b, i8 %a\n ret i8 %r\n}")
                .unwrap();
        let mut arena = EvalArena::new();
        let frozen = freeze(&src, &mut arena);
        let compiled = Arc::new(CompiledFunction::compile(&tgt));
        let shard_size = 16;
        let total = frozen.input_count();
        let shards: Vec<SweepShard> = (0..total)
            .step_by(shard_size)
            .map(|start| {
                SweepShard::new(
                    frozen.clone(),
                    compiled.clone(),
                    start,
                    (start + shard_size).min(total),
                )
            })
            .collect();
        let slots = SerialDriver.drive(shards, &mut arena);
        // Inputs 0..128 refine; input 128 (shard 8) is the first refutation.
        let first_refuting = slots
            .iter()
            .position(|slot| matches!(slot, SweepSlot::Executed(out) if out.refutes()))
            .expect("one shard must refute");
        assert_eq!(first_refuting, 128 / shard_size);
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                SweepSlot::Executed(out) if i < first_refuting => assert!(!out.refutes()),
                SweepSlot::Executed(out) if i == first_refuting => {
                    assert_eq!(out.finding.as_ref().unwrap().index, 128)
                }
                SweepSlot::Cancelled if i > first_refuting => {}
                _ => panic!("slot {i} violates the cancellation contract"),
            }
        }
        // And the full driver-based verdict pinpoints input 128, exactly as
        // the retained reference checker does.
        let case = SourceCache::new(&src, TvConfig::default());
        let reference = case.verify_reference(&tgt, &mut arena);
        let sharded = case.verify_with_driver(&tgt, &mut arena, &SerialDriver, shard_size);
        assert_eq!(sharded, reference);
        assert!(matches!(sharded, Verdict::Incorrect(_)));
    }
}
