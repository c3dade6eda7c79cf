//! `serve-mix`: `lpo-serve` on loopback with an on-disk verdict store.
//!
//! Load is a closed loop of two persistent client connections: each client
//! sends its next `submit` only after the previous job's `done` frame, then
//! runs Table 2's baseline round over the job's functions (Souper at Enum 2,
//! budget 1500, and Minotaur) before submitting again. The
//! seeded mix holds fresh (model, seed) jobs, which run Stage 3 and append
//! verdicts to the store, and exact resubmissions, which read them back.
//! Client 0 also opens a short-lived `stats` connection every
//! [`STATS_EVERY`] jobs, as a monitoring poller would. A request is one job,
//! timed from `submit` to `done` (queue wait included).

use crate::metrics::{
    median, median_setup, mix, ms, open_fds, peak_rss_mb, quantile, rate, ratio, Measured,
};
use crate::timing::{LlmCounters, TimedProvider};
use crate::trace::{write_trace_file, CaseTrace, Span};
use crate::workload::{baseline_rate, report_baselines, Args, Baselines, THREADS};
use lpo::exec::run_batch_persisted;
use lpo::prelude::{ExecConfig, Lpo, LpoConfig, VerdictStore};
use lpo_corpus::rq1_suite;
use lpo_ir::function::Function;
use lpo_llm::profiles::{by_name, rq1_models};
use lpo_serve::json::Json;
use lpo_serve::prelude::{FactoryProvider, ServeClient, ServeConfig, Server, SubmitOptions};
use lpo_serve::server::DefaultFactoryProvider;
use lpo_souper::SouperConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client 0 polls `stats` on a fresh connection every this many jobs.
const STATS_EVERY: usize = 8;
/// The positions, in every ten submissions, of the fresh (model, seed) jobs.
const FRESH_SLOTS: [u64; 3] = [0, 3, 6];
/// One submission in this many is checked against a batch run.
const CHECK_EVERY: u64 = 16;
/// Client connections.
const CLIENTS: usize = 2;

/// What every job submits: the rq1 corpus, with the client-side baseline
/// configuration.
struct Corpus {
    functions: Vec<Function>,
    souper: [SouperConfig; 1],
}

impl Corpus {
    fn new() -> Self {
        let souper = SouperConfig {
            candidate_budget: 1500,
            ..SouperConfig::with_enum(2)
        };
        Self {
            functions: rq1_suite().into_iter().map(|case| case.function).collect(),
            souper: [souper],
        }
    }
}

/// One job submission of the rq1 corpus.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Submission {
    model: &'static str,
    seed: u64,
}

impl Submission {
    fn options(&self) -> SubmitOptions {
        SubmitOptions {
            model: Some(self.model.to_string()),
            seed: Some(self.seed),
            ..SubmitOptions::corpus("rq1")
        }
    }
}

/// A client's seeded submission sequence. Three jobs in ten, at fixed
/// positions, are fresh (model, seed) pairs: they cycle through the RQ1
/// models from a seeded offset, and the seed picks their model seeds. Every
/// other job resubmits one of the client's earlier jobs, picked by the seed.
/// The fixed proportions keep the mix the same for every run seed.
struct Schedule {
    seed: u64,
    history: Vec<Submission>,
    next: u64,
}

impl Schedule {
    fn new(seed: u64, client: usize) -> Self {
        Self {
            seed: mix(seed, client as u64),
            history: Vec::new(),
            next: 0,
        }
    }

    /// The next submission and whether it is checked against a batch run.
    fn next(&mut self) -> (Submission, bool) {
        let job = self.next;
        self.next += 1;
        let draw = |salt: u64| mix(self.seed, job * 4 + salt);
        let check = job == 0 || draw(0) % CHECK_EVERY == 0;
        if FRESH_SLOTS.contains(&(job % 10)) {
            let models = rq1_models();
            let fresh = self.history.len();
            let model = models[(fresh + self.seed as usize % models.len()) % models.len()].name;
            self.history.push(Submission {
                model,
                seed: draw(1) >> 16,
            });
            return (self.history[fresh].clone(), check);
        }
        let pick = (draw(2) % self.history.len() as u64) as usize;
        (self.history[pick].clone(), check)
    }
}

/// What one served job returned.
struct Job {
    submission: Submission,
    check: bool,
    latency_ms: f64,
    accept_ms: f64,
    /// Client-side spans of the job (empty when it did not finish).
    trace: CaseTrace,
    /// When the job's `done` frame arrived, in seconds from the window start.
    done_s: f64,
    frames: usize,
    /// `(case index, outcome, fingerprint)` per streamed case frame.
    cases: Vec<(usize, String, String)>,
    unique: usize,
    dedup_hits: usize,
    summary: String,
    /// The `error` frame or protocol failure, if the job did not finish.
    error: Option<String>,
    baselines: Baselines,
}

fn field_num(frame: &Json, key: &str) -> f64 {
    frame.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

fn field_str(frame: &Json, key: &str) -> String {
    frame
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Submits one job and drains its frames. The job's trace is a `job` root
/// span with its `serve.accept` (`submit` → `accepted`) and `serve.run`
/// (`accepted` → `done`) phases, timed from `epoch`.
fn serve_job(
    client: &mut ServeClient,
    submission: &Submission,
    epoch: Instant,
) -> Result<Job, String> {
    let start = Instant::now();
    client
        .send_line(&submission.options().request_line())
        .map_err(|e| e.to_string())?;
    let first = client.read_frame().map_err(|e| e.to_string())?;
    let accepted = Instant::now();
    let mut job = Job {
        submission: submission.clone(),
        check: false,
        latency_ms: 0.0,
        accept_ms: ms(accepted - start),
        trace: CaseTrace::default(),
        done_s: 0.0,
        frames: 1,
        cases: Vec::new(),
        unique: field_num(&first, "unique") as usize,
        dedup_hits: 0,
        summary: String::new(),
        error: None,
        baselines: Baselines::default(),
    };
    if field_str(&first, "kind") != "accepted" {
        job.error = Some(format!(
            "submission not accepted: {}",
            first.render_compact()
        ));
        job.latency_ms = ms(start.elapsed());
        return Ok(job);
    }
    loop {
        let frame = client.read_frame().map_err(|e| e.to_string())?;
        job.frames += 1;
        match field_str(&frame, "kind").as_str() {
            "case" => job.cases.push((
                field_num(&frame, "case") as usize,
                field_str(&frame, "outcome"),
                field_str(&frame, "fingerprint"),
            )),
            "done" => {
                let done = Instant::now();
                job.latency_ms = ms(done - start);
                job.done_s = (done - epoch).as_secs_f64();
                let ns = |at: Instant| (at - epoch).as_nanos() as u64;
                let span = |name, parent, from, to| Span {
                    name,
                    parent,
                    start_ns: ns(from),
                    end_ns: ns(to),
                };
                job.trace.spans = vec![
                    span("job", None, start, done),
                    span("serve.accept", Some(0), start, accepted),
                    span("serve.run", Some(0), accepted, done),
                ];
                job.summary = field_str(&frame, "summary");
                job.dedup_hits = field_num(&frame, "dedup_hits") as usize;
                return Ok(job);
            }
            other => return Err(format!("unexpected {other:?} frame mid-job")),
        }
    }
}

/// A running server with its store in a directory of its own. Dropping it
/// shuts the server down, waits for it and removes the directory.
struct Instance {
    addr: String,
    store: Arc<VerdictStore>,
    store_file: PathBuf,
    dir: PathBuf,
    server: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<ServeClient>,
}

impl Instance {
    fn start(dir: PathBuf, provider: Option<Box<dyn FactoryProvider>>) -> Instance {
        std::fs::create_dir_all(&dir).expect("create the serve store directory");
        let store_file = dir.join("verdicts.log");
        let store = Arc::new(VerdictStore::open(&store_file).expect("open the verdict store"));
        let config = ServeConfig {
            jobs: THREADS,
            ..ServeConfig::default()
        };
        let server = match provider {
            None => Server::bind("127.0.0.1:0", config, store.clone()),
            Some(provider) => {
                Server::bind_with_provider("127.0.0.1:0", config, store.clone(), provider)
            }
        }
        .expect("bind a loopback server");
        let addr = server.local_addr().to_string();
        let server = Some(std::thread::spawn(move || server.run()));
        let clients = (0..CLIENTS)
            .map(|_| ServeClient::connect(&addr).expect("connect to the loopback server"))
            .collect();
        Instance {
            addr,
            store,
            store_file,
            dir,
            server,
            clients,
        }
    }

    fn store_bytes(&self) -> u64 {
        std::fs::metadata(&self.store_file).map_or(0, |meta| meta.len())
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        self.clients.clear();
        let shutdown = ServeClient::connect(&self.addr).and_then(|mut admin| admin.shutdown());
        if let Err(e) = shutdown {
            eprintln!("serve-mix: shutdown request failed: {e}");
        }
        if let Some(server) = self.server.take() {
            match server.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("serve-mix: server exited with {e}"),
                Err(_) => eprintln!("serve-mix: server thread panicked"),
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The closed loop of one client until `deadline`.
fn client_loop(
    client: &mut ServeClient,
    index: usize,
    addr: &str,
    mut schedule: Schedule,
    corpus: &Corpus,
    epoch: Instant,
    deadline: Instant,
) -> Vec<Result<Job, String>> {
    let mut jobs = Vec::new();
    while Instant::now() < deadline || jobs.is_empty() {
        if index == 0 && jobs.len() % STATS_EVERY == STATS_EVERY - 1 {
            // A monitoring poller: connect, ask, hang up.
            if let Err(e) = ServeClient::connect(addr).and_then(|mut poller| poller.stats()) {
                jobs.push(Err(format!("stats poll failed: {e}")));
            }
        }
        let (submission, check) = schedule.next();
        let job = serve_job(client, &submission, epoch).map(|mut job| {
            job.check = check;
            job.baselines = Baselines::run(&corpus.functions, &corpus.souper, 1);
            job
        });
        let failed = job.is_err();
        jobs.push(job);
        if failed {
            break;
        }
    }
    jobs
}

/// One measured window: a fresh server and store, two clients until the
/// deadline.
struct Window {
    jobs: Vec<Job>,
    errors: Vec<String>,
    wall_s: f64,
    store_hits: usize,
    store_misses: usize,
    case_records: usize,
    bytes_appended: u64,
    open_fds: usize,
}

fn run_window(instance: &mut Instance, seed: u64, seconds: f64, corpus: &Corpus) -> Window {
    let store_before = instance.store.stats();
    let bytes_before = instance.store_bytes();
    let records_before = instance.store.counts().1;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let addr = instance.addr.clone();
    let results: Vec<Vec<Result<Job, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = instance
            .clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                let schedule = Schedule::new(seed, index);
                let addr = addr.as_str();
                scope.spawn(move || {
                    client_loop(client, index, addr, schedule, corpus, start, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let store = instance.store.stats().since(store_before);
    let mut window = Window {
        jobs: Vec::new(),
        errors: Vec::new(),
        wall_s,
        store_hits: store.verdict_hits,
        store_misses: store.verdict_misses,
        case_records: instance.store.counts().1 - records_before,
        bytes_appended: instance.store_bytes() - bytes_before,
        open_fds: open_fds(),
    };
    for result in results.into_iter().flatten() {
        match result {
            Ok(job) => window.jobs.push(job),
            Err(e) => window.errors.push(e),
        }
    }
    window
}

/// Checks a window's jobs: error frames, failed cases, baseline consistency
/// and, for the sampled submissions, identity with a batch run.
fn check_window(m: &mut Measured, window: &Window, corpus: &Corpus) {
    for error in &window.errors {
        m.fail(format!("serve-mix: {error}"));
    }
    let mut references: BTreeMap<Submission, (Vec<String>, String)> = BTreeMap::new();
    let mut baseline_reference = None;
    for job in &window.jobs {
        m.attempted += 1 + job.baselines.searches() as u64;
        if let Some(error) = &job.error {
            m.fail(format!("serve-mix: {error}"));
            continue;
        }
        if job.cases.iter().any(|(_, outcome, _)| outcome == "failed") {
            m.fail(format!(
                "serve-mix: a job of {:?} has failed cases",
                job.submission
            ));
        }
        // Every job's baseline round searches the same functions.
        match baseline_reference {
            Some(reference) => job.baselines.check(m, "serve-mix", reference),
            None => baseline_reference = Some(&job.baselines),
        }
        if !job.check {
            continue;
        }
        let (want_cases, want_summary) = references
            .entry(job.submission.clone())
            .or_insert_with(|| batch_reference(job, corpus));
        let mut got: Vec<(usize, &str)> = job
            .cases
            .iter()
            .map(|(case, _, print)| (*case, print.as_str()))
            .collect();
        got.sort_by_key(|(case, _)| *case);
        let cases_match = got.len() == want_cases.len()
            && got
                .iter()
                .enumerate()
                .all(|(i, (case, print))| *case == i && *print == want_cases[i]);
        if !cases_match || job.summary != *want_summary {
            m.fail(format!(
                "serve-mix: served {:?} differs from its batch run",
                job.submission
            ));
        }
    }
}

/// The case fingerprints and summary `run_batch_persisted` gives for a
/// submission's functions, model and seed.
fn batch_reference(job: &Job, corpus: &Corpus) -> (Vec<String>, String) {
    let submission = &job.submission;
    let profile = by_name(submission.model).expect("scheduled models exist");
    let factory = DefaultFactoryProvider.build(profile, submission.seed);
    let lpo = Lpo::new(LpoConfig::default());
    let batch = run_batch_persisted(
        &lpo,
        &*factory,
        0,
        &corpus.functions,
        &ExecConfig::with_jobs(THREADS),
        None,
    );
    (
        batch.reports.iter().map(|r| r.fingerprint()).collect(),
        batch.summary.fingerprint(),
    )
}

/// The directory of a server store, under the working directory.
fn store_dir(tag: &str) -> PathBuf {
    Path::new(".perfbench-out").join(format!("serve-{}-{tag}", std::process::id()))
}

fn cases_per_s(window: &Window) -> f64 {
    let cases: usize = window.jobs.iter().map(|job| job.cases.len()).sum();
    rate(cases as f64, window.wall_s)
}

/// Equal slices of a window, each timed on its own: the end-to-end rates are
/// the median of slice rates, so that a slice caught in a burst of host CPU
/// contention does not move the figure.
const SLICES: usize = 10;

/// The jobs whose `done` frame arrived in each slice of the window, with the
/// slice length in seconds.
fn slices(window: &Window) -> (Vec<Vec<&Job>>, f64) {
    let length = window.wall_s / SLICES as f64;
    let mut slices = vec![Vec::new(); SLICES];
    for job in &window.jobs {
        let slice = ((job.done_s / length) as usize).min(SLICES - 1);
        slices[slice].push(job);
    }
    slices.retain(|jobs| !jobs.is_empty());
    (slices, length)
}

/// The untraced end-to-end metrics of a window.
fn report_window(m: &mut Measured, window: &Window) {
    let (slices, length) = slices(window);
    let over = |f: &dyn Fn(&[&Job]) -> f64| slices.iter().map(|jobs| f(jobs)).collect::<Vec<_>>();
    let cases = over(&|jobs| {
        rate(
            jobs.iter().map(|job| job.cases.len()).sum::<usize>() as f64,
            length,
        )
    });
    m.note(format!(
        "{} jobs over {:.1} s in {} slices",
        window.jobs.len(),
        window.wall_s,
        slices.len()
    ));
    m.set("cases_per_s", median(&cases));
    let latencies: Vec<f64> = window.jobs.iter().map(|job| job.latency_ms).collect();
    m.set("latency_p50_ms", quantile(&latencies, 0.50));
    m.set("latency_p95_ms", quantile(&latencies, 0.95));
    let baselines = over(&|jobs| baseline_rate(jobs.iter().map(|job| &job.baselines)));
    m.set("baseline_cases_per_s", median(&baselines));
}

pub fn run(args: &Args) -> Measured {
    let mut m = Measured::default();
    let corpus = Corpus::new();
    let (setup_s, mut instance) = median_setup(9, || Instance::start(store_dir("untraced"), None));
    m.set("setup_s", setup_s);

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_window(&mut instance, args.seed, window, &corpus);
    drop(instance);
    check_window(&mut m, &untraced, &corpus);

    if !args.trace {
        report_window(&mut m, &untraced);
        return m;
    }

    // The traced window: a fresh server and store, with the timing provider.
    let llm = Arc::new(LlmCounters::default());
    let provider = Box::new(TimedProvider {
        counters: llm.clone(),
    });
    let mut instance = Instance::start(store_dir("traced"), Some(provider));
    let traced = run_window(&mut instance, args.seed, window, &corpus);
    drop(instance);
    // Read the peak before the checks' batch runs can raise it.
    m.set("proc.peak_rss_mb", peak_rss_mb());
    check_window(&mut m, &traced, &corpus);

    let jobs = traced.jobs.len().max(1) as f64;
    let per_job = |value: f64| value / jobs;
    let (calls, failures, seconds) = llm.snapshot();
    m.set("llm.propose_s", per_job(seconds));
    m.set("llm.calls", per_job(calls as f64));
    m.set("llm.failures", per_job(failures as f64));
    let sum = |f: &dyn Fn(&Job) -> f64| traced.jobs.iter().map(f).sum::<f64>();
    let found = sum(&|job| job.cases.iter().filter(|(_, o, _)| o == "found").count() as f64);
    m.set("tv.found", per_job(found));
    m.set("exec.unique_cases", per_job(sum(&|job| job.unique as f64)));
    m.set(
        "exec.dedup_hits",
        per_job(sum(&|job| job.dedup_hits as f64)),
    );
    m.set("store.verdict_hits", per_job(traced.store_hits as f64));
    m.set("store.verdict_misses", per_job(traced.store_misses as f64));
    m.set(
        "store.hit_rate",
        ratio(
            traced.store_hits as f64,
            (traced.store_hits + traced.store_misses) as f64,
        ),
    );
    m.set("store.case_records", per_job(traced.case_records as f64));
    m.set(
        "store.bytes_appended",
        per_job(traced.bytes_appended as f64),
    );
    let accept: Vec<f64> = traced.jobs.iter().map(|job| job.accept_ms).collect();
    let run: Vec<f64> = traced
        .jobs
        .iter()
        .map(|job| job.latency_ms - job.accept_ms)
        .collect();
    m.set("serve.accept_ms", median(&accept));
    m.set("serve.run_ms", median(&run));
    m.set("serve.frames", per_job(sum(&|job| job.frames as f64)));
    m.set("serve.open_fds", traced.open_fds as f64);
    report_baselines(
        &mut m,
        traced.jobs.iter().map(|job| &job.baselines),
        traced.jobs.len(),
    );
    // The share of the clients' time that served jobs and baseline checks
    // account for; stats polls and the loop itself make up the rest.
    let client_s = sum(&|job| job.latency_ms * 1e-3 + job.baselines.seconds());
    m.set(
        "trace.coverage",
        ratio(client_s, CLIENTS as f64 * traced.wall_s),
    );
    m.set(
        "trace.overhead_frac",
        1.0 - cases_per_s(&traced) / cases_per_s(&untraced),
    );
    if let Some(path) = &args.trace_file {
        let traces: Vec<CaseTrace> = traced
            .jobs
            .iter()
            .enumerate()
            .map(|(case, job)| CaseTrace {
                case: case as u64,
                ..job.trace.clone()
            })
            .collect();
        if let Err(e) = write_trace_file(path, &traces) {
            m.problem(format!("writing trace file {}: {e}", path.display()));
        }
    }
    m
}
