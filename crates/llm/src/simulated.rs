//! The simulated language model.
//!
//! No network or API access is available to this reproduction, so the LLMs of
//! the paper are replaced by [`SimulatedModel`]s: a capability profile
//! ([`ModelProfile`]) plus the strategy library of [`crate::strategies`],
//! driven by a seeded RNG. A simulated model behaves the way the paper
//! describes real models behaving:
//!
//! * it only *finds* a rewrite when a matching strategy exists and a skill
//!   vs. difficulty draw succeeds (stronger and reasoning models succeed more
//!   often);
//! * even when it finds the right rewrite it sometimes emits a syntactically
//!   invalid candidate (Figure 3b) or a semantically wrong one, at
//!   profile-specific rates;
//! * given verifier feedback it retries, fixing the mistake with a
//!   profile-specific probability and a small skill bonus (reasoning models
//!   benefit most) — which is exactly what makes LPO outperform LPO⁻.
//!
//! All decisions are functions of `(model seed, round, prompt text, attempt)`,
//! so experiments are reproducible. The [`SimulatedModelFactory`] spawns one
//! [`SimulatedModel`] session per case, deriving the session seed from the
//! case index, so a parallel run is bit-identical to a serial one.

use crate::corruption::{corrupt_semantics, corrupt_syntax, SyntaxCorruption};
use crate::model::{Completion, ModelFactory, ModelSession, Prompt, TokenUsage};
use crate::profiles::ModelProfile;
use crate::strategies::choose;
use lpo_ir::function::Function;
use lpo_ir::parser::parse_function;
use lpo_ir::printer::print_function;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// A deterministic, profile-driven stand-in for one of the paper's LLMs.
#[derive(Clone, Debug)]
pub struct SimulatedModel {
    profile: ModelProfile,
    seed: u64,
    round: u64,
    /// Cumulative token usage across all calls (for RQ3 cost accounting).
    total_usage: TokenUsage,
    /// Cumulative cost in USD.
    total_cost_usd: f64,
    /// Cumulative modelled latency.
    total_latency: Duration,
    calls: usize,
}

/// Mixes a case index into a base seed (the identity for index 0, so
/// single-case runs reproduce the historical serial behaviour).
fn mix_case_index(seed: u64, case_index: u64) -> u64 {
    seed ^ case_index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl SimulatedModel {
    /// Creates a simulated model from a profile with the given base seed
    /// (round 0, case index 0). Prefer [`SimulatedModelFactory`] when driving
    /// more than one case.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        Self::for_case(profile, seed, 0, 0)
    }

    /// Creates the session model for one `(round, case_index)` pair — the
    /// deterministic seeding used by [`SimulatedModelFactory::session`].
    pub fn for_case(profile: ModelProfile, seed: u64, round: u64, case_index: u64) -> Self {
        Self {
            profile,
            seed: mix_case_index(seed, case_index),
            round,
            total_usage: TokenUsage::default(),
            total_cost_usd: 0.0,
            total_latency: Duration::ZERO,
            calls: 0,
        }
    }

    /// The profile this model simulates.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Total tokens consumed so far.
    pub fn total_usage(&self) -> TokenUsage {
        self.total_usage
    }

    /// Total modelled API cost so far (zero for local deployments).
    pub fn total_cost_usd(&self) -> f64 {
        self.total_cost_usd
    }

    /// Total modelled inference latency so far.
    pub fn total_latency(&self) -> Duration {
        self.total_latency
    }

    /// Number of completions produced so far.
    pub fn calls(&self) -> usize {
        self.calls
    }

    fn case_seed(&self, prompt: &Prompt) -> u64 {
        let mut h = DefaultHasher::new();
        prompt.source_text.hash(&mut h);
        self.seed.hash(&mut h);
        self.round.hash(&mut h);
        h.finish()
    }

    /// The extra difficulty a particular function adds on top of the strategy
    /// difficulty: longer windows, vectors, floating point and memory all make
    /// the rewrite harder to spot, mirroring the paper's observations about
    /// which cases weaker models miss.
    fn feature_penalty(func: &Function) -> f64 {
        let mut penalty = 0.0;
        let count = func.instruction_count();
        penalty += 0.015 * count.saturating_sub(4) as f64;
        let mut has_vector = false;
        let mut has_float = false;
        let mut has_memory = false;
        for (_, inst) in func.iter_insts() {
            has_vector |= inst.ty.is_vector();
            has_float |= inst.ty.is_float_or_float_vector();
            has_memory |= inst.kind.touches_memory();
        }
        if has_vector {
            penalty += 0.05;
        }
        if has_float {
            penalty += 0.04;
        }
        if has_memory {
            penalty += 0.05;
        }
        penalty.min(0.25)
    }

    /// The probability the model spots a rewrite of the given difficulty.
    fn find_probability(&self, effective_skill: f64, difficulty: f64) -> f64 {
        let x = 10.0 * (effective_skill - difficulty);
        (1.0 / (1.0 + (-x).exp())).clamp(0.02, 0.98)
    }

    fn finish(&mut self, prompt: &Prompt, text: String) -> Completion {
        let input = prompt.input_tokens();
        let output = text.len().div_ceil(4);
        let reasoning = self.profile.reasoning_tokens;
        let usage = TokenUsage { input, output, reasoning };
        let cost = self.profile.cost_usd(input, output + reasoning);
        let latency = Duration::from_secs_f64(self.profile.latency_seconds(input, output + reasoning));
        self.total_usage.input += input;
        self.total_usage.output += output;
        self.total_usage.reasoning += reasoning;
        self.total_cost_usd += cost;
        self.total_latency += latency;
        self.calls += 1;
        Completion { text, usage, latency, cost_usd: cost }
    }
}

impl ModelSession for SimulatedModel {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn propose(&mut self, prompt: &Prompt) -> Completion {
        let Ok(source) = parse_function(&prompt.source_text) else {
            // Garbage in, echo out — the pipeline will treat it as uninteresting.
            return self.finish(prompt, prompt.source_text.clone());
        };

        let case_seed = self.case_seed(prompt);
        let mut case_rng = StdRng::seed_from_u64(case_seed);
        let mut attempt_rng = StdRng::seed_from_u64(case_seed ^ (prompt.attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));

        // 1. Does the model spot a rewrite at all? (Case-level decision: it
        //    does not flip between attempts for the same sequence.)
        //    One draw per applicable strategy, in library order, until one
        //    succeeds; only that strategy's rewrite is built.
        let penalty = Self::feature_penalty(&source);
        let mut effective_skill = self.profile.skill;
        if prompt.attempt > 0 && prompt.feedback.is_some() {
            effective_skill += self.profile.feedback_skill_bonus;
        }
        let chosen = choose(&source, |s| {
            let p = self.find_probability(effective_skill, s.difficulty + penalty);
            case_rng.gen::<f64>() < p
        });
        let Some((_, rewritten)) = chosen else {
            // Nothing found: echo the prompt's function verbatim. The
            // pipeline prints its prompt from the canonical source, so the
            // echo is byte-identical to the source text and settles as
            // uninteresting at the text boundary, before any parse.
            return self.finish(prompt, prompt.source_text.clone());
        };
        let correct_text = print_function(&rewritten);

        // 2. Decide whether this attempt's output is clean or corrupted.
        let emit_clean = if prompt.attempt == 0 || prompt.feedback.is_none() {
            let syntax = attempt_rng.gen::<f64>() < self.profile.syntax_error_rate;
            let semantic = attempt_rng.gen::<f64>() < self.profile.wrong_rewrite_rate;
            if syntax {
                let kind = match attempt_rng.gen_range(0..3) {
                    0 => SyntaxCorruption::BareIntrinsicOpcode,
                    1 => SyntaxCorruption::MisspelledOpcode,
                    _ => SyntaxCorruption::MissingType,
                };
                let broken = corrupt_syntax(&correct_text, kind, &mut attempt_rng);
                return self.finish(prompt, broken);
            }
            if semantic {
                if let Some(broken) = corrupt_semantics(&rewritten, &mut attempt_rng) {
                    return self.finish(prompt, broken);
                }
            }
            true
        } else {
            // A retry with feedback: fix the earlier mistake with the profile's
            // fix rate, otherwise make another (semantic) mistake.
            if attempt_rng.gen::<f64>() < self.profile.feedback_fix_rate {
                true
            } else if let Some(broken) = corrupt_semantics(&rewritten, &mut attempt_rng) {
                return self.finish(prompt, broken);
            } else {
                true
            }
        };
        let _ = emit_clean;
        self.finish(prompt, correct_text)
    }
}

/// The [`ModelFactory`] for simulated models: an immutable
/// `(profile, base seed)` pair that spawns one [`SimulatedModel`] session per
/// case.
///
/// The session for `(round, case_index)` carries the seed
/// `base_seed ⊕ (case_index · φ64)`, so every case draws from an independent
/// deterministic stream and case index 0 reproduces the historical
/// single-model serial runs exactly.
#[derive(Clone, Debug)]
pub struct SimulatedModelFactory {
    profile: ModelProfile,
    seed: u64,
}

impl SimulatedModelFactory {
    /// Creates a factory for the given profile and base seed.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        Self { profile, seed }
    }

    /// The concrete session model (the trait method boxes this).
    pub fn session_model(&self, round: u64, case_index: u64) -> SimulatedModel {
        SimulatedModel::for_case(self.profile.clone(), self.seed, round, case_index)
    }
}

impl ModelFactory for SimulatedModelFactory {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn profile(&self) -> Option<&ModelProfile> {
        Some(&self.profile)
    }

    fn session(&self, round: u64, case_index: u64) -> Box<dyn ModelSession> {
        Box::new(self.session_model(round, case_index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    const CLAMP: &str = "define i8 @src(i32 %0) {\n\
        %2 = icmp slt i32 %0, 0\n\
        %3 = call i32 @llvm.umin.i32(i32 %0, i32 255)\n\
        %4 = trunc nuw i32 %3 to i8\n\
        %5 = select i1 %2, i8 0, i8 %4\n\
        ret i8 %5\n}";

    const BORING: &str = "define i32 @f(i32 %x, i32 %y) {\n\
        %a = mul i32 %x, %y\n\
        %b = add i32 %a, %y\n\
        ret i32 %b\n}";

    #[test]
    fn strong_models_find_the_clamp_rewrite_most_rounds() {
        let mut found = 0;
        for round in 0..20 {
            let mut model = SimulatedModel::for_case(profiles::gemini2_0t(), 7, round, 0);
            let completion = model.propose(&Prompt::initial(CLAMP));
            if completion.text.contains("llvm.smax") {
                found += 1;
            }
        }
        assert!(found >= 12, "Gemini2.0T found the rewrite only {found}/20 times");
    }

    #[test]
    fn weak_models_rarely_find_it() {
        let mut found = 0;
        for round in 0..20 {
            let mut model = SimulatedModel::for_case(profiles::gemma3(), 7, round, 0);
            let completion = model.propose(&Prompt::initial(CLAMP));
            if completion.text.contains("llvm.smax") {
                found += 1;
            }
        }
        assert!(found <= 6, "Gemma3 found the rewrite {found}/20 times, expected rarely");
    }

    #[test]
    fn boring_input_is_echoed() {
        let mut model = SimulatedModel::new(profiles::gemini2_0t(), 1);
        let completion = model.propose(&Prompt::initial(BORING));
        // No strategy applies, so the model returns an equivalent of the input.
        assert!(completion.text.contains("mul i32"));
        assert!(completion.text.contains("add i32"));
    }

    #[test]
    fn determinism_per_round_and_variation_across_rounds() {
        let mut a = SimulatedModel::for_case(profiles::llama3_3(), 3, 1, 0);
        let mut b = SimulatedModel::for_case(profiles::llama3_3(), 3, 1, 0);
        assert_eq!(a.propose(&Prompt::initial(CLAMP)).text, b.propose(&Prompt::initial(CLAMP)).text);

        // Across rounds the outcome is allowed to differ (non-determinism of
        // the real models, reproduced by reseeding).
        let mut texts = std::collections::HashSet::new();
        for round in 0..8 {
            let mut m = SimulatedModel::for_case(profiles::llama3_3(), 3, round, 0);
            texts.insert(m.propose(&Prompt::initial(CLAMP)).text);
        }
        assert!(texts.len() > 1, "outcomes should vary across rounds");
    }

    #[test]
    fn feedback_retry_can_fix_a_broken_first_attempt() {
        // Find a round where the first attempt is not clean, then check that a
        // feedback retry produces the correct candidate for a reasoning model.
        let mut fixed = 0;
        let mut broken_rounds = 0;
        for round in 0..40 {
            let mut model = SimulatedModel::for_case(profiles::gemini2_0t(), 11, round, 0);
            let first = model.propose(&Prompt::initial(CLAMP));
            let first_ok = lpo_ir::parser::parse_function(&first.text).is_ok()
                && first.text.contains("llvm.smax");
            if first_ok || !first.text.contains("smax") {
                continue; // clean, or not found at all
            }
            broken_rounds += 1;
            let retry_prompt = Prompt::initial(CLAMP).with_feedback("error: expected instruction opcode");
            let second = model.propose(&retry_prompt);
            if lpo_ir::parser::parse_function(&second.text).is_ok() && second.text.contains("llvm.smax") {
                fixed += 1;
            }
        }
        if broken_rounds > 0 {
            assert!(fixed > 0, "feedback never fixed any of {broken_rounds} broken attempts");
        }
    }

    #[test]
    fn factory_sessions_are_deterministic_and_independent() {
        let factory = SimulatedModelFactory::new(profiles::gemini2_0t(), 7);
        assert_eq!(factory.name(), "Gemini2.0T");
        assert!(ModelFactory::profile(&factory).is_some());

        // Same (round, case_index) → byte-identical output.
        let a = factory.session(3, 5).propose(&Prompt::initial(CLAMP)).text;
        let b = factory.session(3, 5).propose(&Prompt::initial(CLAMP)).text;
        assert_eq!(a, b);

        // Case index 0 reproduces the historical single-model behaviour.
        let legacy = SimulatedModel::for_case(profiles::gemini2_0t(), 7, 3, 0)
            .propose(&Prompt::initial(CLAMP))
            .text;
        assert_eq!(factory.session(3, 0).propose(&Prompt::initial(CLAMP)).text, legacy);

        // Different case indices draw from independent streams: over several
        // rounds at least one (round, index) pair must diverge.
        let diverges = (0..8).any(|round| {
            let x = factory.session(round, 0).propose(&Prompt::initial(CLAMP)).text;
            let y = factory.session(round, 1).propose(&Prompt::initial(CLAMP)).text;
            x != y
        });
        assert!(diverges, "case-index seeding never changed an outcome");
    }

    #[test]
    fn accounting_accumulates() {
        let mut model = SimulatedModel::new(profiles::gemini2_5(), 5);
        for _ in 0..3 {
            let _ = model.propose(&Prompt::initial(CLAMP));
        }
        assert_eq!(model.calls(), 3);
        assert!(model.total_usage().input > 0);
        assert!(model.total_usage().output > 0);
        assert!(model.total_cost_usd() > 0.0);
        assert!(model.total_latency() > Duration::ZERO);
        // Local models cost nothing.
        let mut local = SimulatedModel::new(profiles::llama3_3(), 5);
        let _ = local.propose(&Prompt::initial(CLAMP));
        assert_eq!(local.total_cost_usd(), 0.0);
        assert_eq!(local.name(), "Llama3.3");
        assert_eq!(local.profile().version, "llama3.3:70b");
    }
}
