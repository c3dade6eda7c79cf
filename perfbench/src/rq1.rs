//! `rq1-detect`: Table 2 traffic.
//!
//! One pass runs 25 rq1 issues × 6 RQ1 models × {LPO, LPO⁻} × 5 rounds =
//! 1,500 one-case `Lpo::run_sequences` detection cells, pulled by
//! [`THREADS`] worker from a shared queue, then one Souper search (Enum 2,
//! budget 1500) and one Minotaur search per issue, repeated
//! [`BASELINE_ROUNDS`] times. Each pass starts from fresh pipelines, as a
//! user's run does. A request is one detection cell.

use crate::metrics::{median_setup, mix, ms, Measured};
use crate::replay::replay_batch;
use crate::timing::TimedFactory;
use crate::workload::{run_passes, Args, Baselines, Pass, PassWorkload, TraceCtx};
use lpo::prelude::{CaseReport, ExecConfig, Lpo, LpoConfig};
use lpo_corpus::rq1_suite;
use lpo_ir::function::Function;
use lpo_llm::profiles::rq1_models;
use lpo_llm::simulated::SimulatedModelFactory;
use lpo_opt::pipeline::Pipeline;
use lpo_souper::SouperConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker threads pulling cells from the queue, and the `jobs` of the
/// baseline searches. One: with two, pass rates, latencies and peak memory swung
/// between two modes from run to run on a 2-vCPU host (cell throughput by
/// 1.5x, peak RSS with it), a spread no regression bound could absorb.
const THREADS: usize = 1;

/// Baseline rounds per pass. One round of Table 2's 50 searches takes a few
/// milliseconds, too short to time on a host whose speed dips in bursts, so
/// a pass repeats it.
const BASELINE_ROUNDS: usize = 16;

/// One detection cell: an issue, a model, a pipeline and a round.
#[derive(Clone, Copy, Debug)]
struct Cell {
    issue: usize,
    /// Index into [`Inputs::factories`]: one factory per (issue, model).
    factory: usize,
    /// LPO⁻ (no feedback) instead of LPO.
    minus: bool,
    round: u64,
}

/// The generated inputs of one run.
struct Inputs {
    functions: Vec<Function>,
    factories: Vec<Arc<SimulatedModelFactory>>,
    /// Every cell of a pass, in seeded queue order.
    cells: Vec<Cell>,
    souper: [SouperConfig; 1],
}

fn build_inputs(seed: u64, tiny: bool) -> Inputs {
    let (issues, models, rounds) = if tiny { (2, 1, 1) } else { (25, 6, 5) };
    let suite: Vec<_> = rq1_suite().into_iter().take(issues).collect();
    let profiles: Vec<_> = rq1_models().into_iter().take(models).collect();
    let mut factories = Vec::new();
    let mut cells = Vec::new();
    for (issue, case) in suite.iter().enumerate() {
        for profile in &profiles {
            let factory = factories.len();
            // Table 2's calibrated seeding: each (issue, model) factory is
            // seeded by the issue id. The run seed orders the queue only, so
            // every seed runs the same 1,500 cells.
            factories.push(Arc::new(SimulatedModelFactory::new(
                profile.clone(),
                u64::from(case.issue_id),
            )));
            for round in 0..rounds {
                for minus in [false, true] {
                    cells.push(Cell {
                        issue,
                        factory,
                        minus,
                        round,
                    });
                }
            }
        }
    }
    // Seeded Fisher–Yates over the queue.
    for i in (1..cells.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
    let souper = SouperConfig {
        candidate_budget: 1500,
        ..SouperConfig::with_enum(2)
    };
    let functions = suite.into_iter().map(|case| case.function).collect();
    Inputs {
        functions,
        factories,
        cells,
        souper: [souper],
    }
}

impl PassWorkload for Inputs {
    fn pass(&self, trace: Option<(&TraceCtx, bool)>) -> Pass {
        let lpos = [
            Lpo::new(LpoConfig::default()),
            Lpo::new(LpoConfig::without_feedback()),
        ];
        let opt = Pipeline::new(lpos[0].config().opt_level);
        let exec = ExecConfig::serial();
        let cursor = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(self.cells.len()));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = self.cells.get(index) else {
                            break;
                        };
                        let lpo = &lpos[usize::from(cell.minus)];
                        let sequence = std::slice::from_ref(&self.functions[cell.issue]);
                        let factory = &self.factories[cell.factory];
                        let cell_start = Instant::now();
                        let mut reports = match trace {
                            None => {
                                lpo.run_sequences(factory, cell.round, sequence, &exec)
                                    .reports
                            }
                            Some((ctx, keep)) => {
                                let timed =
                                    TimedFactory::new(Box::new(factory.clone()), ctx.llm.clone());
                                let batch =
                                    replay_batch(lpo, &opt, &timed, cell.round, sequence, 1, ctx);
                                ctx.tally().absorb_batch(batch, keep)
                            }
                        };
                        let report = reports.pop().expect("one report per one-case batch");
                        local.push((index, report, ms(cell_start.elapsed())));
                    }
                    results.lock().expect("cell results poisoned").extend(local);
                });
            }
        });
        let lpo_s = start.elapsed().as_secs_f64();
        if let Some((ctx, _)) = trace {
            ctx.tally().end_pass(&lpos);
        }
        let mut results = results.into_inner().expect("cell results poisoned");
        results.sort_by_key(|(index, _, _)| *index);
        let latencies_ms = results.iter().map(|(_, _, latency)| *latency).collect();
        let reports: Vec<CaseReport> = results.into_iter().map(|(_, report, _)| report).collect();
        let mut baselines = Baselines::default();
        for _ in 0..BASELINE_ROUNDS {
            baselines.absorb(Baselines::run(&self.functions, &self.souper, THREADS));
        }
        Pass {
            reports: vec![reports],
            lpo_s,
            latencies_ms,
            baselines,
        }
    }

    fn sources(&self) -> Vec<Vec<&Function>> {
        vec![self
            .cells
            .iter()
            .map(|cell| &self.functions[cell.issue])
            .collect()]
    }
}

pub fn run(args: &Args) -> Measured {
    let mut m = Measured::default();
    let (setup_s, inputs) = median_setup(9, || build_inputs(args.seed, args.tiny));
    m.set("setup_s", setup_s);
    run_passes(&inputs, &mut m, args, "rq1-detect");
    m
}
