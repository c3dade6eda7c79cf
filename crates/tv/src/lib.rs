//! # lpo-tv
//!
//! Translation validation for `lpo-ir` — this reproduction's stand-in for
//! Alive2. Given a source function and a candidate produced by the (simulated)
//! LLM, it decides whether the transformation is a correct *refinement* and,
//! when it is not, produces an Alive2-style counterexample that the LPO
//! pipeline feeds back to the model.
//!
//! ```
//! use lpo_tv::prelude::*;
//! use lpo_ir::parser::parse_function;
//!
//! let src = parse_function("define i8 @src(i8 %x) {\n %r = mul i8 %x, 2\n ret i8 %r\n}")?;
//! let tgt = parse_function("define i8 @tgt(i8 %x) {\n %r = shl i8 %x, 1\n ret i8 %r\n}")?;
//! assert!(verify_refinement(&src, &tgt).is_correct());
//! # Ok::<(), lpo_ir::parser::ParseError>(())
//! ```
//!
//! # The staged checker
//!
//! Checking is *staged* so that refutation is cheap and verification cost
//! concentrates on survivors: a probe over the first few inputs on the
//! uncompiled evaluator, lazy compilation (through the shared
//! [`refine::CompileCache`]) only for probe survivors, and a sweep over the
//! remaining inputs — 256 at a time on the plane tier, one at a time on the
//! compiled evaluator for candidates without a plane form. Callers verifying many candidates of one
//! source build a per-case [`refine::SourceCache`]:
//!
//! ```
//! use lpo_tv::prelude::*;
//! use lpo_ir::parser::parse_function;
//!
//! let src = parse_function("define i8 @src(i8 %x) {\n %r = mul i8 %x, 2\n ret i8 %r\n}")?;
//! let wrong = parse_function("define i8 @t(i8 %x) {\n %r = shl i8 %x, 2\n ret i8 %r\n}")?;
//! let cache = CompileCache::new();
//! let case = SourceCache::new(&src, TvConfig::default()).with_compile_cache(&cache);
//! let mut arena = EvalArena::new();
//! assert!(!case.verify_with(&wrong, &mut arena).is_correct());
//! // Refuted by the probe: the wrong candidate never paid a compile.
//! assert_eq!(case.probe_rejects(), 1);
//! assert_eq!(cache.misses(), 0);
//! # Ok::<(), lpo_ir::parser::ParseError>(())
//! ```
//!
//! The pre-staging checker is retained as
//! [`refine::verify_refinement_reference`] and the two are proven
//! outcome-identical (verdicts, counterexamples, UB messages) by
//! `tests/tv_differential.rs`.
//!
//! See `ARCHITECTURE.md` at the repository root for the workspace crate
//! graph, where this crate sits in the three-stage verification flow, and
//! the "Translation validation hot path" section for the staged checker's
//! design and invariants.

mod buffers;
pub mod frozen;
#[cfg(test)]
mod fuzz_seeds;
pub mod inputs;
pub mod refine;
pub mod screen;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::frozen::{
        FrozenCase, SerialDriver, SweepDriver, SweepOutcome, SweepShard, SweepSlot,
    };
    pub use crate::inputs::{
        corner_values, generate_inputs, input_count, InputCache, InputConfig, InputSet, TestInput,
    };
    pub use crate::refine::{
        verify_refinement, verify_refinement_reference, verify_refinement_with, CompileCache,
        Counterexample, SourceCache, TvConfig, Verdict, VerdictTier,
    };
    pub use crate::screen::RowScreen;
    pub use lpo_interp::compiled::EvalArena;
    pub use lpo_interp::plane::PlaneTape;
}
