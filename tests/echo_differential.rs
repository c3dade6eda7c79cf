//! Exactness of the echo shortcut at the LLM text boundary.
//!
//! `Lpo::optimize_sequence` settles a completion that repeats the prompt's
//! source text byte for byte as `NotInteresting` without parsing it, running
//! `opt` on it or estimating its cost — provided the canonical source passes
//! the verifier and its canonicalization reached a fixpoint. The full path
//! would reach the same outcome through the interestingness check's
//! `Identical` verdict. Three tests pin that:
//!
//! * **Differential.** Every run is repeated through a session that appends
//!   `"\n"` to each completion (same latency, same cost), which defeats the
//!   byte comparison and sends every echo down parse → `opt` → classify. The
//!   per-case fingerprints must be identical, for both Table 4 model
//!   profiles, at one and two jobs, over the rq1 and rq2 suites, Table 4's
//!   60 samples, the corpus-discover extraction and random functions.
//! * **Premise.** For every source of those sets, and random functions,
//!   that meets the shortcut's guards, the canonical form `c` round-trips
//!   (`print(parse(print(c))) == print(c)`) and `opt(parse(print(c)))`
//!   classifies `Identical` against `c`.
//! * **Ill-formed sources.** A function the parser accepts and the verifier
//!   rejects still ends in a syntax error after two attempts, with the
//!   verifier's message as the second prompt's feedback — batch and served.
//!
//! The premise test walks a fixed seed block of random functions and appends
//! a rotating block derived from `LPO_FUZZ_SEED` when set; the CI
//! fuzz-smoke step derives it from the commit hash and logs it, so any
//! failure replays with
//! `LPO_FUZZ_SEED=<seed> cargo test --release --test echo_differential echo_premise`.

use lpo::interestingness::{InterestVerdict, SourceCost};
use lpo::prelude::*;
use lpo_ir::function::Function;
use lpo_ir::parser::{parse_function, parse_module};
use lpo_ir::printer::print_function;
use lpo_ir::verifier::verify_function;
use lpo_llm::model::{Completion, ModelFactory, ModelSession, Prompt, SessionError};
use lpo_llm::prelude::{gemini2_0t, gemini2_5, llama3_3, SimulatedModel, SimulatedModelFactory};
use lpo_llm::profiles::ModelProfile;
use lpo_mca::Target;
use lpo_opt::pipeline::{optimize_function, OptLevel, Pipeline};
use lpo_serve::prelude::{Json, ServeClient, ServeConfig, Server, SubmitOptions};
use std::sync::Arc;
use std::thread;

mod common;
use common::{fuzz_seeds, suites};

/// A session whose completions carry one extra trailing newline: the same
/// function, latency and cost, but never the prompt's exact bytes.
struct TrailingNewline(Box<dyn ModelSession>);

impl ModelSession for TrailingNewline {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn propose(&mut self, prompt: &Prompt) -> Completion {
        let mut completion = self.0.propose(prompt);
        completion.text.push('\n');
        completion
    }

    fn try_propose(&mut self, prompt: &Prompt) -> Result<Completion, SessionError> {
        let mut completion = self.0.try_propose(prompt)?;
        completion.text.push('\n');
        Ok(completion)
    }
}

/// Spawns [`TrailingNewline`] sessions over a wrapped factory's sessions.
struct TrailingNewlineFactory<'a>(&'a dyn ModelFactory);

impl ModelFactory for TrailingNewlineFactory<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn profile(&self) -> Option<&ModelProfile> {
        self.0.profile()
    }

    fn session(&self, round: u64, case_index: u64) -> Box<dyn ModelSession> {
        Box::new(TrailingNewline(self.0.session(round, case_index)))
    }
}

fn fingerprints(batch: &BatchResult) -> Vec<String> {
    batch.reports.iter().map(CaseReport::fingerprint).collect()
}

#[test]
fn echoes_settled_at_the_text_boundary_match_the_full_path() {
    let lpo = Lpo::new(LpoConfig::default());
    let mut settled = 0;
    // Random functions add sources whose canonicalization stops short of a
    // fixpoint, whose echoes must take the full path.
    let random = ("random", (0..256).map(lpo_interp::fuzz::random_function).collect());
    for (name, sequences) in suites().into_iter().chain([random]) {
        for profile in [llama3_3(), gemini2_5()] {
            let factory = SimulatedModelFactory::new(profile, 0xbeef);
            let full_path = TrailingNewlineFactory(&factory);
            for jobs in [1usize, 2] {
                let exec = ExecConfig::with_jobs(jobs);
                let direct = lpo.run_sequences(&factory, 0, &sequences, &exec);
                let parsed = lpo.run_sequences(&full_path, 0, &sequences, &exec);
                assert_eq!(
                    fingerprints(&direct),
                    fingerprints(&parsed),
                    "{name}, {}, jobs {jobs}: an echo settled differently at the text boundary",
                    factory.name()
                );
                settled += direct.summary.not_interesting;
            }
        }
    }
    assert!(settled > 1000, "only {settled} uninteresting cases: the shortcut went unexercised");
}

#[test]
fn echo_premise_holds_for_every_settled_source() {
    let traffic: Vec<Function> = suites().into_iter().flat_map(|(_, sequences)| sequences).collect();
    let random: Vec<Function> = fuzz_seeds(2048, 0xec40, "echo premise fuzz").into_iter().map(lpo_interp::fuzz::random_function).collect();
    for (level, sources) in [
        (OptLevel::O2, [&traffic[..], &random[..]]),
        (OptLevel::O1, [&traffic[..], &random[..]]),
        (OptLevel::O0, [&traffic[..], &random[..]]),
    ] {
        let pipeline = Pipeline::new(level);
        let [traffic_guarded, random_guarded] = sources.map(|sources| {
            let mut guarded = 0;
            for source in sources {
                let mut canonical = source.clone();
                if !pipeline.run(&mut canonical).fixpoint || verify_function(&canonical).is_err() {
                    continue;
                }
                guarded += 1;
                let text = print_function(&canonical);
                let mut echo = parse_function(&text)
                    .unwrap_or_else(|e| panic!("{level:?}: the canonical source does not parse ({e}):\n{text}"));
                assert_eq!(print_function(&echo), text, "{level:?}: the canonical source does not round-trip");
                optimize_function(&mut echo, &pipeline)
                    .unwrap_or_else(|e| panic!("{level:?}: the echo fails the verifier ({e}):\n{text}"));
                assert_eq!(
                    SourceCost::new(&canonical, Target::Btver2Like).classify(&echo),
                    InterestVerdict::Identical,
                    "{level:?}: the echo's `opt` output is not identical to its source:\n{text}"
                );
            }
            guarded
        });
        // At the default level every source of the served sets settles its
        // echoes at the text boundary. Random functions exercise the guards
        // both ways.
        if level == OptLevel::O2 {
            assert_eq!(traffic_guarded, traffic.len(), "a served source misses the shortcut's guards");
        }
        eprintln!(
            "echo premise {level:?}: {traffic_guarded} of {} served and {random_guarded} random sources guarded",
            traffic.len()
        );
        // `-O1`'s single pass reaches a fixpoint only where it changes
        // nothing, so few random functions meet the guards there; the
        // premise is still checked on every one that does.
        assert!(
            level == OptLevel::O1 || random_guarded * 2 >= random.len(),
            "{level:?}: only {random_guarded} of {} random functions meet the shortcut's guards",
            random.len()
        );
    }
}

/// A session that records the feedback of every prompt it answers.
struct FeedbackLog<'a> {
    inner: SimulatedModel,
    feedback: &'a mut Vec<Option<String>>,
}

impl ModelSession for FeedbackLog<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn propose(&mut self, prompt: &Prompt) -> Completion {
        self.feedback.push(prompt.feedback.clone());
        self.inner.propose(prompt)
    }
}

/// Parses, fails the verifier (the return type does not match), and leaves
/// the model nothing to rewrite, so it is echoed on every attempt.
const ILL_FORMED: &str = "define i32 @f(i32 %x, i32 %y) {\n\
    %a = mul i32 %x, %y\n\
    %b = add i32 %a, %y\n\
    %c = trunc i32 %b to i8\n\
    ret i8 %c\n}";

#[test]
fn ill_formed_sources_still_end_in_a_syntax_error_after_two_attempts() {
    let module = parse_module(ILL_FORMED).expect("the parser accepts the function");
    let source = &module.functions[0];
    let mut canonical = source.clone();
    Pipeline::default().run(&mut canonical);
    let message = verify_function(&canonical).expect_err("the verifier rejects the function").to_string();

    // Batch: the server's default model and seed, case index 0.
    let lpo = Lpo::new(LpoConfig::default());
    let mut feedback = Vec::new();
    let mut session = FeedbackLog { inner: SimulatedModel::new(gemini2_0t(), 42), feedback: &mut feedback };
    let report = lpo.optimize_sequence(&mut session, source);
    assert_eq!(report.outcome, CaseOutcome::SyntaxError);
    assert_eq!(report.attempts, 2);
    assert_eq!(feedback, vec![None, Some(message)], "the retry must carry the verifier's message");

    // Served as an inline module: the same outcome, byte for byte.
    let store = Arc::new(VerdictStore::in_memory());
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), store).expect("bind ephemeral server");
    let addr = server.local_addr().to_string();
    let handle = thread::spawn(move || server.run());
    let mut client = ServeClient::connect(&addr).expect("connect");
    let outcome = client.submit(&SubmitOptions::module(ILL_FORMED)).expect("submit");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
    let [case] = outcome.cases() else { panic!("expected one case frame, got {:?}", outcome.cases()) };
    assert_eq!(case.get("outcome").and_then(Json::as_str), Some("syntax-error"));
    assert_eq!(case.get("attempts").and_then(Json::as_num), Some(2.0));
    assert_eq!(case.get("fingerprint").and_then(Json::as_str), Some(report.fingerprint().as_str()));
}
