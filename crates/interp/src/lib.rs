//! # lpo-interp
//!
//! Concrete evaluation of `lpo-ir` functions with LLVM's poison/undef
//! semantics and a bounds-checked byte memory. This is the semantic ground
//! truth the translation validator (`lpo-tv`) compares source and target
//! functions against.
//!
//! ```
//! use lpo_interp::prelude::*;
//! use lpo_ir::parser::parse_function;
//!
//! let f = parse_function("define i8 @f(i8 %x) {\n %r = add i8 %x, 1\n ret i8 %r\n}")?;
//! let out = evaluate_default(&f, &[EvalValue::int(8, 41)], Memory::new()).unwrap();
//! assert_eq!(out.result, Some(EvalValue::int(8, 42)));
//! # Ok::<(), lpo_ir::parser::ParseError>(())
//! ```
//!
//! See `ARCHITECTURE.md` at the repository root for the workspace crate
//! graph and where this crate sits in the three-stage verification flow.

pub mod compiled;
pub mod eval;
pub mod fuzz;
pub mod memory;
pub mod plane;
pub mod value;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::compiled::{evaluate_direct, CompiledFunction, EvalArena};
    pub use crate::plane::{PlaneLanes, PlanePlan, PlaneResult, PlaneTape};
    pub use crate::eval::{
        evaluate, evaluate_default, evaluate_reference, fold_instruction, to_constant,
        EvalOutcome, Ub, DEFAULT_STEP_LIMIT,
    };
    pub use crate::memory::{Allocation, MemError, Memory, DEFAULT_ALLOC_SIZE};
    pub use crate::value::{EvalValue, PtrValue};
}
