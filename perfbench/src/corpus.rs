//! `corpus-discover`: Table 4 / RQ3 traffic.
//!
//! Set-up generates Table 4's synthetic corpus and extracts its instruction
//! sequences with `lpo-extract` (`min_instructions: 2`, one extractor per
//! module, as a per-translation-unit deployment would). One pass runs the
//! whole sequence list as one `Lpo::run_sequences` batch per model profile
//! (Llama3.3, Gemini2.5) at two jobs with dedup, then Souper at Enum 0–3
//! (budget 1200) and Minotaur over the same list, both at two jobs. A
//! request is one pass.
//!
//! The inputs do not depend on the run seed. Only a few dozen of the
//! sequences reach Stage 3, and which few decides most of the discovery
//! time: across corpus seeds that time swings by 2x, far beyond any bound a
//! regression gate could use.

use crate::metrics::{median_setup, ms, Measured};
use crate::replay::replay_batch;
use crate::timing::TimedFactory;
use crate::workload::{run_passes, Args, Baselines, Pass, PassWorkload, TraceCtx, THREADS};
use lpo::prelude::{ExecConfig, Lpo, LpoConfig};
use lpo_corpus::{generate_corpus, CorpusConfig};
use lpo_extract::{ExtractConfig, Extractor};
use lpo_ir::function::Function;
use lpo_llm::profiles::{gemini2_5, llama3_3};
use lpo_llm::simulated::SimulatedModelFactory;
use lpo_opt::pipeline::Pipeline;
use lpo_souper::SouperConfig;
use std::sync::Arc;
use std::time::Instant;

/// The generated inputs of one run.
struct Inputs {
    sequences: Vec<Function>,
    factories: Vec<Arc<SimulatedModelFactory>>,
    /// Souper at `Enum` 0–3, budget 1200.
    souper: Vec<SouperConfig>,
    /// Seconds the extraction itself took.
    extract_s: f64,
}

fn build_inputs(tiny: bool) -> Inputs {
    let corpus = generate_corpus(&CorpusConfig {
        modules_per_project: if tiny { 1 } else { 5 },
        functions_per_module: if tiny { 1 } else { 5 },
        ..CorpusConfig::default()
    });
    let extract_start = Instant::now();
    let mut sequences = Vec::new();
    for module in corpus.iter().flat_map(|project| &project.modules) {
        let mut extractor = Extractor::new(ExtractConfig {
            min_instructions: 2,
            ..ExtractConfig::default()
        });
        sequences.extend(
            extractor
                .extract_module(module)
                .into_iter()
                .map(|s| s.function),
        );
    }
    let extract_s = extract_start.elapsed().as_secs_f64();
    // Table 4 seeds both profiles' factories alike.
    let factories = [llama3_3(), gemini2_5()]
        .into_iter()
        .map(|profile| Arc::new(SimulatedModelFactory::new(profile, 0xbeef)))
        .collect();
    let souper = (0..=3)
        .map(|depth| SouperConfig {
            candidate_budget: 1200,
            ..SouperConfig::with_enum(depth)
        })
        .collect();
    Inputs {
        sequences,
        factories,
        souper,
        extract_s,
    }
}

impl PassWorkload for Inputs {
    fn pass(&self, trace: Option<(&TraceCtx, bool)>) -> Pass {
        let start = Instant::now();
        let lpo = Lpo::new(LpoConfig::default());
        let opt = Pipeline::new(lpo.config().opt_level);
        let exec = ExecConfig::with_jobs(THREADS);
        let reports = self
            .factories
            .iter()
            .map(|factory| match trace {
                None => {
                    lpo.run_sequences(factory, 0, &self.sequences, &exec)
                        .reports
                }
                Some((ctx, keep)) => {
                    let timed = TimedFactory::new(Box::new(factory.clone()), ctx.llm.clone());
                    let batch = replay_batch(&lpo, &opt, &timed, 0, &self.sequences, THREADS, ctx);
                    ctx.tally().absorb_batch(batch, keep)
                }
            })
            .collect();
        let lpo_s = start.elapsed().as_secs_f64();
        if let Some((ctx, _)) = trace {
            ctx.tally().end_pass(std::slice::from_ref(&lpo));
        }
        let baselines = Baselines::run(&self.sequences, &self.souper, THREADS);
        Pass {
            reports,
            lpo_s,
            latencies_ms: vec![ms(start.elapsed())],
            baselines,
        }
    }

    fn sources(&self) -> Vec<Vec<&Function>> {
        self.factories
            .iter()
            .map(|_| self.sequences.iter().collect())
            .collect()
    }
}

pub fn run(args: &Args) -> Measured {
    let mut m = Measured::default();
    let (setup_s, inputs) = median_setup(5, || build_inputs(args.tiny));
    m.set("setup_s", setup_s);
    run_passes(&inputs, &mut m, args, "corpus-discover");
    if args.trace {
        m.set("extract.s", inputs.extract_s);
        m.set("extract.sequences", inputs.sequences.len() as f64);
    }
    m
}
