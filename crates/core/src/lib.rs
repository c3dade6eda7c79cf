//! # lpo
//!
//! The LPO pipeline itself: Algorithm 1 of the paper. Given a wrapped
//! instruction sequence, LPO prompts an optimizer model for a better
//! implementation, pushes the candidate through the three-stage verification
//! (the `opt` syntax/canonicalization check, the interestingness check, and
//! the translation-validation correctness check) and, on failure, feeds the
//! diagnostics back to the model for another attempt.
//!
//! ```
//! use lpo::prelude::*;
//! use lpo_ir::parser::parse_function;
//! use lpo_llm::prelude::{gemini2_0t, SimulatedModel};
//!
//! let src = parse_function(
//!     "define i8 @src(i32 %0) {\n\
//!      %2 = icmp slt i32 %0, 0\n\
//!      %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
//!      %4 = trunc nuw i32 %3 to i8\n\
//!      %5 = select i1 %2, i8 0, i8 %4\n\
//!      ret i8 %5\n}",
//! ).unwrap();
//! let lpo = Lpo::new(LpoConfig::default());
//! let mut model = SimulatedModel::new(gemini2_0t(), 1);
//! let report = lpo.optimize_sequence(&mut model, &src);
//! // With a strong reasoning model the clamp is usually found; either way the
//! // report records what happened.
//! assert!(report.attempts >= 1);
//! ```
//!
//! See `ARCHITECTURE.md` at the repository root for the workspace crate
//! graph and where this crate sits in the three-stage verification flow.

pub mod exec;
pub mod interestingness;
pub mod persist;
pub mod pipeline;
pub mod report;
pub mod shard;

pub use exec::{shard_work_units, BatchHooks, BatchResult, DedupPlan, ExecConfig, ExecStats, Persist, CANCELLED_ERROR, DEFAULT_SHARD_SIZE};
pub use interestingness::{is_interesting, InterestVerdict};
pub use persist::{case_key, store_version, PIPELINE_REVISION};
pub use pipeline::{Lpo, LpoConfig, TvSnapshot};
pub use report::{CaseOutcome, CaseReport, RunSummary};
pub use shard::{RuntimeSweepDriver, ShardCounters, ShardRuntime, ShardSlot, ShardStats};
pub use lpo_store::{StoreError, StoreStats, VerdictStore};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::exec::{shard_work_units, BatchHooks, BatchResult, DedupPlan, ExecConfig, ExecStats, Persist, CANCELLED_ERROR, DEFAULT_SHARD_SIZE};
    pub use crate::interestingness::{is_interesting, InterestVerdict};
    pub use crate::persist::{case_key, store_version, PIPELINE_REVISION};
    pub use crate::pipeline::{Lpo, LpoConfig, TvSnapshot};
    pub use crate::report::{CaseOutcome, CaseReport, RunSummary};
    pub use crate::shard::{RuntimeSweepDriver, ShardCounters, ShardRuntime, ShardSlot, ShardStats};
    pub use lpo_store::{StoreError, StoreStats, VerdictStore};
}
