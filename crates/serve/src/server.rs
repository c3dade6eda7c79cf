//! The discovery server: accept loop, bounded FIFO job queue, per-job
//! cancellation and result streaming.
//!
//! # Threading model
//!
//! Two threads per connection. A reader thread owns the socket's read half
//! for the connection's whole life: it blocks on the socket (no timeouts,
//! no polling), splits the byte stream into request frames and hands them
//! over a channel. The handler thread answers the frames in arrival order;
//! for `submit` it runs the job *inline*: it reserves a slot in the bounded
//! FIFO job queue (jobs execute one at a time, in submission order), drives
//! the execution engine with the server's configured `--jobs` workers, and
//! streams each case's result back on its own socket as the engine settles
//! it. Frames a pipelining client sends while a job runs wait in the channel
//! behind it. When the reader sees EOF it sets the connection's cancel flag,
//! so a client that disconnects mid-job makes the engine fail the remaining
//! cases instantly instead of computing into a dead socket, and the job
//! releases its run slot as soon as it is done.
//!
//! # Determinism and the shared tables
//!
//! Every job runs on one shared [`Lpo`] pipeline whose verdict table is the
//! server's [`VerdictStore`]. A server holds that pipeline for its whole
//! life, so each deterministic piece of a case is done once per server
//! process: Stage 1's source side once per exact source, each Stage-3
//! verdict once per (source, candidate) pair, whichever job, model or
//! worker asked first. Resubmitting a module is therefore almost entirely
//! table hits, and a resubmitted job that settles every case as before
//! appends no checkpoint bytes. The built-in corpora are parsed once per
//! process, on their first submission. Every table hit is byte-identical to
//! a fresh computation, so a served job's case fingerprints equal a
//! batch-mode `run_batch_persisted` run of the same corpus — cold store,
//! warm store, any `--jobs` value (`tests/serve_protocol.rs` pins this).
//! Checkpoints are content-keyed (model, seed, corpus digest), so a server
//! restarted on the same `--store` resumes a killed job's completed cases
//! when the client resubmits with `"resume": true`.

use crate::json::Json;
use crate::protocol::{
    accepted_frame, case_frame, error_frame, Request, SubmitRequest, SubmitSource,
    MAX_FRAME_BYTES,
};
use lpo::exec::{run_batch_hooked, BatchHooks};
use lpo::prelude::{
    DedupPlan, ExecConfig, Lpo, LpoConfig, Persist, VerdictStore, DEFAULT_SHARD_SIZE,
};
use lpo_corpus::cases::{rq1_suite, rq2_suite};
use lpo_ir::function::Function;
use lpo_ir::hash::hash_function;
use lpo_ir::parser::parse_module;
use lpo_llm::fault::{FaultPolicy, FaultPolicyFactory};
use lpo_llm::model::ModelFactory;
use lpo_llm::profiles::{by_name, ModelProfile};
use lpo_llm::simulated::SimulatedModelFactory;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// How a server instance runs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Engine worker threads per job (`0` = auto, like `--jobs 0`).
    pub jobs: usize,
    /// Inputs per Stage-3 sweep shard (see [`lpo::exec::ExecConfig`]).
    pub shard_size: usize,
    /// Maximum jobs queued or running at once; a submit beyond this gets a
    /// structured `error` response instead of blocking.
    pub queue_capacity: usize,
    /// Maximum request frame length in bytes; longer frames are drained and
    /// answered with an `error`.
    pub max_frame_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            jobs: 0,
            shard_size: DEFAULT_SHARD_SIZE,
            queue_capacity: 16,
            max_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

/// Builds the per-job [`ModelFactory`] — the boundary where a deployment
/// (or a chaos test) decides what actually answers prompts.
pub trait FactoryProvider: Send + Sync {
    /// One factory per job, seeded by the submission.
    fn build(&self, profile: ModelProfile, seed: u64) -> Box<dyn ModelFactory>;
}

/// The default provider: a [`SimulatedModelFactory`] wrapped in a
/// [`FaultPolicyFactory`] with the default failure policy. Clean calls pass
/// through the policy unchanged, so served results stay byte-identical to a
/// plain batch run while real session faults (timeouts, backend errors)
/// still get deadlines, retries and typed failure reports.
pub struct DefaultFactoryProvider;

impl FactoryProvider for DefaultFactoryProvider {
    fn build(&self, profile: ModelProfile, seed: u64) -> Box<dyn ModelFactory> {
        Box::new(FaultPolicyFactory::new(
            SimulatedModelFactory::new(profile, seed),
            FaultPolicy::default(),
        ))
    }
}

/// Monotonic server counters, all updated relaxed (they are reporting, not
/// synchronization).
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    jobs_accepted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
}

/// Bounded FIFO run-slot queue: tickets are granted in submission order and
/// at most `capacity` may be outstanding (queued + running).
struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
}

#[derive(Default)]
struct QueueState {
    next: u64,
    serving: u64,
}

/// A reserved place in line. [`wait`](Ticket::wait) blocks until every
/// earlier ticket has released; dropping the ticket (entered or not) passes
/// the slot to the next in line, so an abandoned reservation can never wedge
/// the queue.
struct Ticket<'a> {
    queue: &'a JobQueue,
    ticket: u64,
    entered: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        Self { state: Mutex::new(QueueState::default()), cv: Condvar::new(), capacity: capacity.max(1) }
    }

    /// Reserves the next ticket, or `None` when the queue is full.
    fn reserve(&self) -> Option<Ticket<'_>> {
        let mut state = self.state.lock().expect("job queue poisoned");
        if (state.next - state.serving) as usize >= self.capacity {
            return None;
        }
        let ticket = state.next;
        state.next += 1;
        Some(Ticket { queue: self, ticket, entered: false })
    }

    /// Jobs queued or running right now.
    fn depth(&self) -> usize {
        let state = self.state.lock().expect("job queue poisoned");
        (state.next - state.serving) as usize
    }
}

impl Ticket<'_> {
    /// Blocks until this ticket holds the run slot.
    fn wait(&mut self) {
        let mut state = self.queue.state.lock().expect("job queue poisoned");
        while state.serving != self.ticket {
            state = self.queue.cv.wait(state).expect("job queue poisoned");
        }
        self.entered = true;
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut state = self.queue.state.lock().expect("job queue poisoned");
        // An abandoned reservation still waits its turn, then passes it on
        // immediately — FIFO order is preserved and nothing wedges.
        while !self.entered && state.serving != self.ticket {
            state = self.queue.cv.wait(state).expect("job queue poisoned");
        }
        state.serving += 1;
        self.queue.cv.notify_all();
    }
}

struct Shared {
    config: ServeConfig,
    lpo: Lpo,
    store: Arc<VerdictStore>,
    provider: Box<dyn FactoryProvider>,
    local_addr: SocketAddr,
    queue: JobQueue,
    counters: Counters,
    start: Instant,
    shutdown: AtomicBool,
    /// A clone of every open connection, keyed by connection id, closed on
    /// shutdown so blocked readers unwind. A connection's entry leaves when
    /// its handler returns, so the registry holds one descriptor per *live*
    /// connection.
    conns: Mutex<HashMap<u64, TcpStream>>,
    active: Mutex<usize>,
    active_cv: Condvar,
}

/// The discovery server. [`bind`](Server::bind), then [`run`](Server::run)
/// (which blocks until a `shutdown` request).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds with the [`DefaultFactoryProvider`].
    pub fn bind(
        addr: &str,
        config: ServeConfig,
        store: Arc<VerdictStore>,
    ) -> std::io::Result<Server> {
        Self::bind_with_provider(addr, config, store, Box::new(DefaultFactoryProvider))
    }

    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and prepares
    /// the shared pipeline. Nothing is accepted until [`run`](Server::run).
    pub fn bind_with_provider(
        addr: &str,
        config: ServeConfig,
        store: Arc<VerdictStore>,
        provider: Box<dyn FactoryProvider>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let lpo = Lpo::new(LpoConfig::default()).with_verdict_store(store.clone());
        let queue = JobQueue::new(config.queue_capacity);
        let shared = Arc::new(Shared {
            config,
            lpo,
            store,
            provider,
            local_addr,
            queue,
            counters: Counters::default(),
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            active: Mutex::new(0),
            active_cv: Condvar::new(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves the port of a `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The shared verdict store.
    pub fn store(&self) -> &Arc<VerdictStore> {
        &self.shared.store
    }

    /// Serves connections until a `shutdown` request, then waits for every
    /// connection thread to unwind before returning.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        let mut next_conn = 0u64;
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                // The shutdown handler's wake-up connection (or a straggler).
                break;
            }
            let _ = stream.set_nodelay(true);
            let conn = next_conn;
            next_conn += 1;
            if let Ok(clone) = stream.try_clone() {
                shared.conns.lock().expect("registry poisoned").insert(conn, clone);
            }
            *shared.active.lock().expect("active count poisoned") += 1;
            let conn_shared = shared.clone();
            std::thread::spawn(move || {
                handle_connection(&conn_shared, stream);
                conn_shared.conns.lock().expect("registry poisoned").remove(&conn);
                let mut active = conn_shared.active.lock().expect("active count poisoned");
                *active -= 1;
                conn_shared.active_cv.notify_all();
            });
        }
        let mut active = shared.active.lock().expect("active count poisoned");
        while *active > 0 {
            active = shared.active_cv.wait(active).expect("active count poisoned");
        }
        Ok(())
    }
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unwind every blocked connection reader.
        for (_, conn) in self.conns.lock().expect("registry poisoned").drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Unblock the acceptor.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// One request frame, as read off the wire.
enum Frame {
    /// A complete line (newline stripped; lossily decoded, so a non-UTF-8
    /// frame fails request parsing rather than killing the connection).
    Line(String),
    /// A frame longer than the configured limit (already drained).
    Oversized,
    /// Connection closed (a truncated trailing line is dropped).
    Eof,
}

/// Line reader owned by a connection's reader thread for the connection's
/// whole life.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    fn read_frame(&mut self) -> Frame {
        let mut skipping = false;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                if skipping || line.len() - 1 > self.max_frame {
                    return Frame::Oversized;
                }
                let mut text = String::from_utf8_lossy(&line).into_owned();
                text.pop();
                if text.ends_with('\r') {
                    text.pop();
                }
                return Frame::Line(text);
            }
            if self.buf.len() > self.max_frame {
                // Over the limit with no newline yet: discard until the
                // frame ends, then report it oversized.
                self.buf.clear();
                skipping = true;
            }
            let mut tmp = [0u8; 4096];
            match self.stream.read(&mut tmp) {
                Ok(0) => return Frame::Eof,
                Ok(n) => {
                    if !skipping {
                        self.buf.extend_from_slice(&tmp[..n]);
                    } else if let Some(pos) = tmp[..n].iter().position(|&b| b == b'\n') {
                        self.buf.extend_from_slice(&tmp[pos + 1..n]);
                        return Frame::Oversized;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Frame::Eof,
            }
        }
    }
}

fn write_line(writer: &Mutex<TcpStream>, line: &str) -> std::io::Result<()> {
    let mut stream = writer.lock().expect("writer poisoned");
    stream.write_all(line.as_bytes())
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let Ok(write_half) = stream.try_clone() else { return };
    // Set when the client is gone (EOF or a dead socket). It is the cancel
    // flag of the running job and stays set, so any job still queued behind
    // it on this connection fails fast too.
    let cancel = Arc::new(AtomicBool::new(false));
    let (sender, frames) = mpsc::channel();
    let reader = {
        let cancel = cancel.clone();
        let mut reader =
            FrameReader { stream: read_half, buf: Vec::new(), max_frame: shared.config.max_frame_bytes };
        std::thread::spawn(move || loop {
            let frame = reader.read_frame();
            let eof = matches!(frame, Frame::Eof);
            if eof {
                cancel.store(true, Ordering::Relaxed);
            }
            if sender.send(frame).is_err() || eof {
                return;
            }
        })
    };
    serve_frames(shared, &Mutex::new(write_half), &frames, &cancel);
    // Wake the reader if it is still blocked on the socket, then reap it.
    let _ = stream.shutdown(Shutdown::Read);
    let _ = reader.join();
}

/// Answers the connection's frames in arrival order until EOF, a dead
/// socket or a `shutdown` request.
fn serve_frames(
    shared: &Arc<Shared>,
    writer: &Mutex<TcpStream>,
    frames: &mpsc::Receiver<Frame>,
    cancel: &AtomicBool,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match frames.recv() {
            Ok(Frame::Eof) | Err(_) => return,
            Ok(Frame::Oversized) => {
                let message = format!(
                    "request frame exceeds {} bytes",
                    shared.config.max_frame_bytes
                );
                if write_line(writer, &error_frame(&message)).is_err() {
                    return;
                }
            }
            Ok(Frame::Line(line)) => {
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                let outcome = match Request::parse(&line) {
                    Err(message) => write_line(writer, &error_frame(&message)),
                    Ok(Request::Stats) => write_line(writer, &stats_frame(shared)),
                    Ok(Request::Shutdown) => {
                        let bye =
                            crate::protocol::frame(&Json::Obj(vec![(
                                "kind".into(),
                                Json::Str("bye".into()),
                            )]));
                        let _ = write_line(writer, &bye);
                        shared.begin_shutdown();
                        return;
                    }
                    Ok(Request::Submit(submit)) => handle_submit(shared, writer, cancel, submit),
                };
                if outcome.is_err() {
                    return;
                }
            }
        }
    }
}

/// The server-wide `stats` response.
fn stats_frame(shared: &Shared) -> String {
    let uptime = shared.start.elapsed().as_secs_f64();
    let requests = shared.counters.requests.load(Ordering::Relaxed);
    let store = shared.store.stats();
    crate::protocol::frame(&Json::Obj(vec![
        ("kind".into(), Json::Str("stats".into())),
        ("uptime_seconds".into(), Json::Num(uptime)),
        ("queue_depth".into(), Json::Num(shared.queue.depth() as f64)),
        ("jobs".into(), Json::Num(shared.config.jobs as f64)),
        (
            "jobs_accepted".into(),
            Json::Num(shared.counters.jobs_accepted.load(Ordering::Relaxed) as f64),
        ),
        (
            "jobs_completed".into(),
            Json::Num(shared.counters.jobs_completed.load(Ordering::Relaxed) as f64),
        ),
        (
            "jobs_cancelled".into(),
            Json::Num(shared.counters.jobs_cancelled.load(Ordering::Relaxed) as f64),
        ),
        ("requests".into(), Json::Num(requests as f64)),
        (
            "requests_per_second".into(),
            Json::Num(if uptime > 0.0 { requests as f64 / uptime } else { 0.0 }),
        ),
        ("verdict_hits".into(), Json::Num(store.verdict_hits as f64)),
        ("verdict_misses".into(), Json::Num(store.verdict_misses as f64)),
        ("case_replays".into(), Json::Num(store.case_replays as f64)),
        ("cache_hit_rate".into(), Json::Num(store.verdict_hit_rate())),
    ]))
}

/// Validates a submission, reserves a queue slot, runs the job and streams
/// its results. `Err` means this connection's socket is dead; a validation
/// failure is an `Ok` with an `error` frame (the connection stays usable).
fn handle_submit(
    shared: &Arc<Shared>,
    writer: &Mutex<TcpStream>,
    cancel: &AtomicBool,
    submit: SubmitRequest,
) -> std::io::Result<()> {
    // Validate before touching the queue: bad submissions cost nothing.
    let functions = match resolve_functions(&submit.source) {
        Ok(functions) => functions,
        Err(message) => return write_line(writer, &error_frame(&message)),
    };
    let Some(profile) = by_name(&submit.model) else {
        return write_line(writer, &error_frame(&format!("unknown model {:?}", submit.model)));
    };
    let Some(mut ticket) = shared.queue.reserve() else {
        let message =
            format!("job queue full (capacity {})", shared.config.queue_capacity);
        return write_line(writer, &error_frame(&message));
    };
    let job = shared.counters.jobs_accepted.fetch_add(1, Ordering::Relaxed) + 1;
    let plan = DedupPlan::new(&functions, true);
    write_line(writer, &accepted_frame(job, functions.len(), plan.unique_indices().len()))?;
    ticket.wait();

    let factory = shared.provider.build(profile, submit.seed);
    let run_key = run_key(&submit, &functions);
    let persist = Persist { store: &shared.store, run_key: &run_key, resume: submit.resume };
    let exec = ExecConfig { jobs: shared.config.jobs, shard_size: shared.config.shard_size };
    let store_before = shared.store.stats();
    let observer = |index: usize, report: &lpo::prelude::CaseReport, resumed: bool| {
        if write_line(writer, &case_frame(job, index, report, resumed, false)).is_err() {
            cancel.store(true, Ordering::Relaxed);
        }
    };
    let hooks = BatchHooks { observer: Some(&observer), cancel: Some(cancel) };
    let batch = run_batch_hooked(
        &shared.lpo,
        &*factory,
        submit.round,
        &functions,
        &exec,
        Some(&persist),
        hooks,
    );

    // Structural duplicates replay their representative's settled report.
    for index in 0..functions.len() {
        if plan.representative(index) != index {
            let _ =
                write_line(writer, &case_frame(job, index, &batch.reports[index], false, true));
        }
    }

    let delta = shared.store.stats().since(store_before);
    let cancelled = cancel.load(Ordering::Relaxed);
    if cancelled {
        shared.counters.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
    let done_frame = crate::protocol::frame(&Json::Obj(vec![
        ("kind".into(), Json::Str("done".into())),
        ("job".into(), Json::Num(job as f64)),
        ("cancelled".into(), Json::Bool(cancelled)),
        ("summary".into(), Json::Str(batch.summary.fingerprint())),
        ("cases".into(), Json::Num(batch.stats.cases as f64)),
        ("found".into(), Json::Num(batch.summary.found as f64)),
        ("failed".into(), Json::Num(batch.summary.failed as f64)),
        ("dedup_hits".into(), Json::Num(batch.stats.cache_hits as f64)),
        ("resumed".into(), Json::Num(batch.stats.resumed_cases as f64)),
        ("verdict_hits".into(), Json::Num(delta.verdict_hits as f64)),
        ("verdict_misses".into(), Json::Num(delta.verdict_misses as f64)),
        ("cache_hit_rate".into(), Json::Num(delta.verdict_hit_rate())),
    ]));
    // The client may already be gone when the job was cancelled; that is
    // not a connection-loop error.
    let wrote = write_line(writer, &done_frame);
    if cancelled {
        Ok(())
    } else {
        wrote
    }
}

/// Resolves a submission source to the job's case list. A built-in corpus
/// is parsed on its first submission and shared by every later one.
fn resolve_functions(source: &SubmitSource) -> Result<Arc<[Function]>, String> {
    static RQ1: OnceLock<Arc<[Function]>> = OnceLock::new();
    static RQ2: OnceLock<Arc<[Function]>> = OnceLock::new();
    match source {
        SubmitSource::Corpus(name) => match name.as_str() {
            "rq1" => Ok(RQ1
                .get_or_init(|| rq1_suite().into_iter().map(|case| case.function).collect())
                .clone()),
            "rq2" => Ok(RQ2
                .get_or_init(|| rq2_suite().into_iter().map(|case| case.function).collect())
                .clone()),
            other => Err(format!("unknown corpus {other:?} (expected rq1 or rq2)")),
        },
        SubmitSource::Module(text) => {
            let module = parse_module(text).map_err(|e| format!("invalid IR: {e}"))?;
            if module.functions.is_empty() {
                return Err("module defines no functions".to_string());
            }
            Ok(module.functions.into())
        }
    }
}

/// The content-derived checkpoint namespace of a job: model, seed, and the
/// order-sensitive combined digest of the submitted functions. A restarted
/// server resuming the same submission lands on the same key.
fn run_key(submit: &SubmitRequest, functions: &[Function]) -> String {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for function in functions {
        digest ^= hash_function(function).0;
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("serve/{}/s{}/{digest:016x}", submit.model, submit.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn queue_grants_fifo_and_bounds_depth() {
        let queue = JobQueue::new(2);
        let mut first = queue.reserve().expect("first slot");
        let second = queue.reserve().expect("second slot");
        assert!(queue.reserve().is_none(), "capacity 2 means a third reservation fails");
        assert_eq!(queue.depth(), 2);
        first.wait();
        drop(first);
        assert_eq!(queue.depth(), 1);
        // An abandoned (never-entered) reservation releases its slot too.
        drop(second);
        assert_eq!(queue.depth(), 0);
        let mut again = queue.reserve().expect("queue drained");
        again.wait();
    }

    #[test]
    fn run_keys_are_content_derived() {
        let submit = SubmitRequest {
            source: SubmitSource::Corpus("rq1".into()),
            model: "Gemini2.0T".into(),
            seed: 42,
            round: 0,
            resume: false,
        };
        let functions = resolve_functions(&submit.source).unwrap();
        let a = run_key(&submit, &functions);
        let b = run_key(&submit, &functions);
        assert_eq!(a, b, "same content, same key");
        assert!(a.starts_with("serve/Gemini2.0T/s42/"));
        // A different workload maps to a different namespace.
        let fewer = &functions[..functions.len() - 1];
        assert_ne!(a, run_key(&submit, fewer));
    }

    /// Open descriptors of this process.
    #[cfg(target_os = "linux")]
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").expect("procfs").count()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn short_connections_release_their_descriptors() {
        use crate::client::ServeClient;

        let server =
            Server::bind("127.0.0.1:0", ServeConfig::default(), Arc::new(VerdictStore::in_memory()))
                .expect("bind loopback server");
        let addr = server.local_addr().to_string();
        let shared = server.shared.clone();
        let server_thread = std::thread::spawn(move || server.run());
        let baseline = open_fds();

        // Every stats reply comes from an accepted, counted connection.
        for _ in 0..200 {
            let mut client = ServeClient::connect(&addr).expect("connect");
            client.stats().expect("stats round-trip");
        }
        // Each handler exits once it reads its client's EOF; wait for all.
        let active = shared.active.lock().expect("active count poisoned");
        let (active, wait) = shared
            .active_cv
            .wait_timeout_while(active, Duration::from_secs(10), |active| *active > 0)
            .expect("active count poisoned");
        assert!(!wait.timed_out(), "{} connection handlers never exited", *active);
        drop(active);

        let open = open_fds();
        assert!(
            open <= baseline + 8,
            "200 closed connections left {open} descriptors open ({baseline} before)"
        );

        ServeClient::connect(&addr).expect("connect").shutdown().expect("shutdown");
        server_thread.join().expect("server thread").expect("server run");
    }

    #[test]
    fn corpus_resolution_and_validation() {
        assert_eq!(resolve_functions(&SubmitSource::Corpus("rq1".into())).unwrap().len(), 25);
        assert!(resolve_functions(&SubmitSource::Corpus("rq9".into())).is_err());
        assert!(resolve_functions(&SubmitSource::Module("not ir".into()))
            .unwrap_err()
            .contains("invalid IR"));
        let module = "define i32 @f(i32 %x) {\n %r = add i32 %x, 0\n ret i32 %r\n}";
        assert_eq!(resolve_functions(&SubmitSource::Module(module.into())).unwrap().len(), 1);
    }
}
