//! The interestingness check (§3.3 of the paper).
//!
//! A candidate is *interesting* when it potentially manifests a beneficial
//! optimization: fewer instructions, or fewer statically-estimated cycles on
//! the configured target, or — at equal cost — a syntactically different form
//! (which may enable further optimizations downstream). The check runs before
//! the (more expensive) correctness check, exactly as in the paper.

use lpo_ir::function::Function;
use lpo_ir::hash::hash_function;
use lpo_mca::{CostModel, Target};

/// Why a candidate was or was not considered interesting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterestVerdict {
    /// Fewer non-terminator instructions than the original.
    FewerInstructions,
    /// Same or more instructions but fewer estimated cycles.
    FewerCycles,
    /// Same instruction count and cycles, but a syntactically different form.
    DifferentForm,
    /// Identical to the original. In the LPO loop the most common source
    /// of it, a completion that echoes the prompt's source text byte for
    /// byte, is settled before parsing and never reaches this check (see
    /// [`crate::pipeline`]); what still classifies here is a candidate that
    /// differs from the source text but canonicalizes back to the source.
    Identical,
    /// Strictly worse in both metrics.
    Worse,
}

impl InterestVerdict {
    /// Returns `true` if the candidate passes the interestingness check.
    pub fn is_interesting(self) -> bool {
        matches!(
            self,
            InterestVerdict::FewerInstructions | InterestVerdict::FewerCycles | InterestVerdict::DifferentForm
        )
    }
}

/// The cached source side of the interestingness check: the cost-model
/// estimate and structural hash of the original sequence, computed **once per
/// case** so that verifying k candidate rewrites of one sequence estimates
/// the source exactly once (the same caching shape as the translation
/// validator's `SourceCache`).
#[derive(Clone, Debug)]
pub struct SourceCost {
    model: CostModel,
    instructions: usize,
    total_cycles: f64,
    digest: lpo_ir::hash::Digest,
}

impl SourceCost {
    /// Estimates and hashes the original once.
    pub fn new(original: &Function, target: Target) -> Self {
        let model = CostModel::new(target);
        let estimate = model.estimate(original);
        Self {
            model,
            instructions: estimate.instructions,
            total_cycles: estimate.total_cycles,
            digest: hash_function(original),
        }
    }

    /// Classifies a candidate against the cached source estimate.
    pub fn classify(&self, candidate: &Function) -> InterestVerdict {
        let after = self.model.estimate(candidate);
        if after.instructions < self.instructions {
            return InterestVerdict::FewerInstructions;
        }
        if after.total_cycles < self.total_cycles {
            return InterestVerdict::FewerCycles;
        }
        if after.instructions == self.instructions && after.total_cycles == self.total_cycles {
            if self.digest == hash_function(candidate) {
                InterestVerdict::Identical
            } else {
                InterestVerdict::DifferentForm
            }
        } else {
            InterestVerdict::Worse
        }
    }

    /// Convenience wrapper: `true` iff the candidate passes the check.
    pub fn is_interesting(&self, candidate: &Function) -> bool {
        self.classify(candidate).is_interesting()
    }
}

/// Classifies a candidate against the original on the given target.
///
/// One-shot convenience over [`SourceCost`]; callers checking several
/// candidates of the same original should build the cache once.
pub fn classify(original: &Function, candidate: &Function, target: Target) -> InterestVerdict {
    SourceCost::new(original, target).classify(candidate)
}

/// Convenience wrapper: `true` iff the candidate passes the check.
pub fn is_interesting(original: &Function, candidate: &Function, target: Target) -> bool {
    classify(original, candidate, target).is_interesting()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;

    const SRC: &str = "define i8 @src(i32 %0) {\n\
        %2 = icmp slt i32 %0, 0\n\
        %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
        %4 = trunc nuw i32 %3 to i8\n\
        %5 = select i1 %2, i8 0, i8 %4\n\
        ret i8 %5\n}";
    const TGT: &str = "define i8 @tgt(i32 %0) {\n\
        %2 = call i32 @llvm.smax.i32(i32 %0, i32 0)\n\
        %3 = call i32 @llvm.umin.i32(i32 %2, i32 255)\n\
        %4 = trunc nuw i32 %3 to i8\n\
        ret i8 %4\n}";

    #[test]
    fn shorter_candidates_are_interesting() {
        let src = parse_function(SRC).unwrap();
        let tgt = parse_function(TGT).unwrap();
        assert_eq!(classify(&src, &tgt, Target::Btver2Like), InterestVerdict::FewerInstructions);
        assert!(is_interesting(&src, &tgt, Target::Btver2Like));
        // The reverse direction is worse.
        assert_eq!(classify(&tgt, &src, Target::Btver2Like), InterestVerdict::Worse);
        assert!(!is_interesting(&tgt, &src, Target::Btver2Like));
    }

    #[test]
    fn identical_candidates_are_not_interesting() {
        let src = parse_function(SRC).unwrap();
        // Same structure, different value names: still "identical" for the check.
        let renamed = parse_function(&SRC.replace("%2", "%c").replace("%3", "%m")).unwrap();
        assert_eq!(classify(&src, &renamed, Target::Btver2Like), InterestVerdict::Identical);
        assert!(!is_interesting(&src, &src.clone(), Target::Btver2Like));
    }

    #[test]
    fn cheaper_but_equal_length_counts_as_fewer_cycles() {
        // Replacing a division with a shift keeps one instruction but is much cheaper.
        let slow = parse_function("define i32 @f(i32 %x) {\n %r = udiv i32 %x, 8\n ret i32 %r\n}").unwrap();
        let fast = parse_function("define i32 @f(i32 %x) {\n %r = lshr i32 %x, 3\n ret i32 %r\n}").unwrap();
        assert_eq!(classify(&slow, &fast, Target::Btver2Like), InterestVerdict::FewerCycles);
    }

    #[test]
    fn different_form_at_equal_cost_is_interesting() {
        let a = parse_function("define i32 @f(i32 %x, i32 %y) {\n %r = add i32 %x, %y\n ret i32 %r\n}").unwrap();
        let b = parse_function("define i32 @f(i32 %x, i32 %y) {\n %r = add i32 %y, %x\n ret i32 %r\n}").unwrap();
        assert_eq!(classify(&a, &b, Target::Btver2Like), InterestVerdict::DifferentForm);
    }
}
