//! # lpo-llm
//!
//! The "LLM-based optimizer" component of the LPO pipeline, reproduced without
//! network access: a [`model::ModelFactory`]/[`model::ModelSession`] pair the
//! pipeline talks to, the capability [`profiles`] of the seven models the
//! paper evaluates (Table 1), a [`strategies`] library encoding the
//! optimization knowledge those models exhibit, the [`corruption`] models for
//! the hallucinations the verification loop exists to catch, and the
//! [`simulated::SimulatedModel`] that ties them together.
//!
//! A factory is `Send + Sync` and describes one model; it spawns a cheap
//! mutable [`model::ModelSession`] per case, seeded deterministically from
//! `(round, case_index)`, which is what lets the discovery engine in
//! `lpo-core` fan cases out over worker threads while staying bit-identical
//! to a serial run.
//!
//! ```
//! use lpo_llm::prelude::*;
//!
//! let factory = SimulatedModelFactory::new(gemini2_0t(), 42);
//! let mut model = factory.session(0, 0);
//! let prompt = Prompt::initial(
//!     "define i8 @src(i32 %0) {\n\
//!      %2 = icmp slt i32 %0, 0\n\
//!      %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
//!      %4 = trunc nuw i32 %3 to i8\n\
//!      %5 = select i1 %2, i8 0, i8 %4\n\
//!      ret i8 %5\n}",
//! );
//! let completion = model.propose(&prompt);
//! assert!(!completion.text.is_empty());
//! ```
//!
//! See `ARCHITECTURE.md` at the repository root for the workspace crate
//! graph and where this crate sits in the three-stage verification flow.

pub mod corruption;
pub mod fault;
pub mod model;
pub mod profiles;
pub mod simulated;
pub mod strategies;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::corruption::{corrupt_semantics, corrupt_syntax, SyntaxCorruption};
    pub use crate::fault::{
        FaultPolicy, FaultPolicyFactory, FaultRates, FaultSnapshot, FaultyModelFactory,
        PolicySnapshot,
    };
    pub use crate::model::{
        Completion, ModelFactory, ModelSession, Prompt, SessionError, TokenUsage, SYSTEM_PROMPT,
    };
    pub use crate::profiles::{
        all_models, by_name, gemini2_0, gemini2_0t, gemini2_5, gemma3, gpt4_1, llama3_3, o4_mini,
        rq1_models, Deployment, ModelProfile,
    };
    pub use crate::simulated::{SimulatedModel, SimulatedModelFactory};
    pub use crate::strategies::{
        applicable, apply_strategy, choose, first_applicable, library, Strategy,
    };
}
