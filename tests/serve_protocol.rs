//! Wire-protocol contract tests for the serving shell (`lpo-serve`).
//!
//! The contract under test is *fingerprint identity*: a job submitted to a
//! real server over a real socket must stream back per-case reports whose
//! fingerprints are byte-identical to a batch-mode `run_batch_persisted`
//! run of the same corpus — for any server worker count, for cold and warm
//! stores, and with other clients interleaving jobs on the same server.
//! Warm resubmissions additionally must *report* their verdict-store hits:
//! the streamed `store_hit` tags, the `done` frame's hit counters and the
//! server `stats` all have to show the cache working, not just be fast.

use lpo::prelude::*;
use lpo_corpus::rq1_suite;
use lpo_ir::function::Function;
use lpo_llm::prelude::{gemini2_0t, SimulatedModelFactory};
use lpo_serve::json::Json;
use lpo_serve::prelude::{JobOutcome, ServeClient, ServeConfig, Server, SubmitOptions};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn suite() -> Vec<Function> {
    rq1_suite().into_iter().map(|case| case.function).collect()
}

/// The batch-mode reference: the same corpus through `run_batch_persisted`
/// with the same model and seed the protocol defaults to.
fn reference() -> (Vec<String>, String) {
    let lpo = Lpo::new(LpoConfig::default());
    let factory = SimulatedModelFactory::new(gemini2_0t(), 42);
    let batch = lpo::exec::run_batch_persisted(
        &lpo,
        &factory,
        0,
        &suite(),
        &ExecConfig::with_jobs(2),
        None,
    );
    (batch.reports.iter().map(CaseReport::fingerprint).collect(), batch.summary.fingerprint())
}

/// Starts a server on an ephemeral loopback port with a fresh in-memory
/// store. The caller must send `shutdown` and join the handle.
fn start(config: ServeConfig) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let store = Arc::new(VerdictStore::in_memory());
    let server = Server::bind("127.0.0.1:0", config, store).expect("bind ephemeral server");
    let addr = server.local_addr().to_string();
    (addr, thread::spawn(move || server.run()))
}

/// Reassembles a job's streamed fingerprints into input order (settle order
/// is scheduling-dependent) and checks every case arrived exactly once.
fn streamed_fingerprints(outcome: &JobOutcome, cases: usize) -> Vec<String> {
    let mut slots: Vec<Option<String>> = vec![None; cases];
    for frame in outcome.cases() {
        let index = frame.get("case").and_then(Json::as_num).expect("case index") as usize;
        let fingerprint =
            frame.get("fingerprint").and_then(Json::as_str).expect("fingerprint").to_string();
        assert!(slots[index].is_none(), "case {index} streamed twice");
        slots[index] = Some(fingerprint);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| slot.unwrap_or_else(|| panic!("case {index} never streamed")))
        .collect()
}

fn num(frame: &Json, key: &str) -> f64 {
    frame.get(key).and_then(Json::as_num).unwrap_or_else(|| panic!("frame has no '{key}'"))
}

#[test]
fn served_jobs_are_byte_identical_to_batch_mode_across_jobs() {
    let (expected, expected_summary) = reference();
    for jobs in [1usize, 4] {
        let (addr, server) = start(ServeConfig { jobs, ..ServeConfig::default() });
        let mut client = ServeClient::connect(&addr).expect("connect");

        // Cold submission against the empty store.
        let cold = client.submit(&SubmitOptions::corpus("rq1")).expect("cold submit");
        assert_eq!(
            streamed_fingerprints(&cold, expected.len()),
            expected,
            "cold served fingerprints diverged from batch mode (jobs {jobs})"
        );
        assert_eq!(
            cold.done().get("summary").and_then(Json::as_str),
            Some(expected_summary.as_str()),
            "cold summary fingerprint diverged (jobs {jobs})"
        );

        // Warm resubmission: answered from the shared store, same bytes.
        let warm = client.submit(&SubmitOptions::corpus("rq1")).expect("warm submit");
        assert_eq!(
            streamed_fingerprints(&warm, expected.len()),
            expected,
            "warm served fingerprints diverged from batch mode (jobs {jobs})"
        );
        assert_eq!(
            warm.done().get("summary").and_then(Json::as_str),
            Some(expected_summary.as_str())
        );

        client.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("server run");
    }
}

#[test]
fn interleaved_concurrent_clients_each_get_identical_streams() {
    let (expected, expected_summary) = reference();
    let (addr, server) = start(ServeConfig { jobs: 2, ..ServeConfig::default() });

    let workers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).expect("connect");
                let first = client.submit(&SubmitOptions::corpus("rq1")).expect("submit");
                let second = client.submit(&SubmitOptions::corpus("rq1")).expect("resubmit");
                (first, second)
            })
        })
        .collect();
    for (worker, handle) in workers.into_iter().enumerate() {
        let (first, second) = handle.join().expect("client thread");
        for (label, outcome) in [("first", first), ("second", second)] {
            assert_eq!(
                streamed_fingerprints(&outcome, expected.len()),
                expected,
                "client {worker} {label} job diverged under interleaving"
            );
            assert_eq!(
                outcome.done().get("summary").and_then(Json::as_str),
                Some(expected_summary.as_str()),
                "client {worker} {label} summary diverged"
            );
        }
    }

    let mut closer = ServeClient::connect(&addr).expect("connect closer");
    let stats = closer.stats().expect("stats");
    assert_eq!(num(&stats, "jobs_accepted"), 6.0, "every interleaved job must be accounted");
    assert_eq!(num(&stats, "jobs_completed"), 6.0);
    closer.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// The warm-path regression test: a second submission of the same corpus
/// must *report* `cache_hits > 0` — in the streamed case frames, the job's
/// `done` counters and the server stats — not merely run fast. This pins
/// the fix for warm resubmissions recomputing Stage-3 verdicts without ever
/// surfacing the hit/miss counters.
#[test]
fn warm_resubmission_reports_store_hits_in_stream_and_stats() {
    let (addr, server) = start(ServeConfig { jobs: 2, ..ServeConfig::default() });
    let mut client = ServeClient::connect(&addr).expect("connect");

    let cold = client.submit(&SubmitOptions::corpus("rq1")).expect("cold submit");
    let cold_hits = num(cold.done(), "verdict_hits");
    let cold_misses = num(cold.done(), "verdict_misses");
    assert!(cold_misses > 0.0, "a cold run must miss the empty store");
    let cold_hit_cases =
        cold.cases().iter().filter(|f| f.get("store_hit") == Some(&Json::Bool(true))).count();

    let warm = client.submit(&SubmitOptions::corpus("rq1")).expect("warm submit");
    let warm_hits = num(warm.done(), "verdict_hits");
    let warm_misses = num(warm.done(), "verdict_misses");
    let warm_rate = num(warm.done(), "cache_hit_rate");

    // The warm run performs the same verdict lookups; every one must hit.
    assert_eq!(warm_misses, 0.0, "a warm resubmission must not miss the store");
    assert_eq!(
        warm_hits,
        cold_hits + cold_misses,
        "warm hits must cover every lookup the cold run made"
    );
    assert!(warm_hits > 0.0, "warm resubmission reported no cache hits");
    assert_eq!(warm_rate, 1.0, "warm cache-hit rate must be exactly 1.0");
    assert!(warm_rate >= 0.9, "the BENCH_baseline serve_cache_hit_rate floor must hold");

    // The streamed frames must carry the same story case by case.
    let warm_hit_cases =
        warm.cases().iter().filter(|f| f.get("store_hit") == Some(&Json::Bool(true))).count();
    assert!(warm_hit_cases > 0, "no warm case frame was tagged store_hit");
    assert!(
        warm_hit_cases > cold_hit_cases,
        "warm submissions must tag more store hits than the cold run \
         ({warm_hit_cases} vs {cold_hit_cases})"
    );

    // And the server-wide stats must expose the aggregate (both jobs).
    let stats = client.stats().expect("stats");
    assert_eq!(
        num(&stats, "verdict_hits"),
        cold_hits + warm_hits,
        "stats must aggregate the hit counters of every job"
    );
    assert!(num(&stats, "cache_hit_rate") > 0.0);
    assert!(num(&stats, "requests_per_second") > 0.0);
    assert!(num(&stats, "uptime_seconds") > 0.0);

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

#[test]
fn module_submissions_dedup_and_reproduce() {
    // Two structurally identical functions: one computed case, one dedup
    // replay, both streaming their (equal) fingerprints.
    let module = "define i32 @a(i32 %x) {\n %r = add i32 %x, 0\n ret i32 %r\n}\n\
                  define i32 @b(i32 %y) {\n %r = add i32 %y, 0\n ret i32 %r\n}";
    let (addr, server) = start(ServeConfig { jobs: 1, ..ServeConfig::default() });
    let mut client = ServeClient::connect(&addr).expect("connect");

    let first = client.submit(&SubmitOptions::module(module)).expect("submit module");
    assert_eq!(num(first.done(), "cases"), 2.0);
    assert_eq!(num(first.done(), "dedup_hits"), 1.0, "identical functions must dedup");
    let fingerprints = streamed_fingerprints(&first, 2);
    assert_eq!(fingerprints[0], fingerprints[1], "a dedup replay must clone its representative");
    let dedup_frames =
        first.cases().iter().filter(|f| f.get("dedup") == Some(&Json::Bool(true))).count();
    assert_eq!(dedup_frames, 1, "exactly one case frame must be tagged as a dedup replay");

    // Identical submission on the same connection reproduces byte-for-byte.
    let again = client.submit(&SubmitOptions::module(module)).expect("resubmit module");
    assert_eq!(streamed_fingerprints(&again, 2), fingerprints);

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// A pipelining client writes three requests in one burst. The server
/// answers them strictly in order: the first job's whole stream, then the
/// `stats` reply, then the second job — frames that arrive while a job runs
/// wait behind it instead of being lost or answered early.
#[test]
fn pipelined_submits_are_answered_in_order_after_the_running_job() {
    let first = "define i32 @a(i32 %x) {\n %r = add i32 %x, 0\n ret i32 %r\n}";
    let second = "define i8 @b(i8 %x) {\n %r = xor i8 %x, 0\n ret i8 %r\n}";
    let (addr, server) = start(ServeConfig { jobs: 1, ..ServeConfig::default() });
    let mut client = ServeClient::connect(&addr).expect("connect");

    let burst = [
        SubmitOptions::module(first).request_line(),
        "{\"kind\":\"stats\"}\n".to_string(),
        SubmitOptions::module(second).request_line(),
    ]
    .concat();
    client.send_raw(burst.as_bytes()).expect("pipelined burst");

    let mut kinds = Vec::new();
    let mut jobs = Vec::new();
    while kinds.iter().filter(|k| *k == "done").count() < 2 {
        let frame = client.read_frame().expect("frame");
        let kind = frame.get("kind").and_then(Json::as_str).expect("kind").to_string();
        if let Some(job) = frame.get("job").and_then(Json::as_num) {
            jobs.push(job);
        }
        kinds.push(kind);
    }
    assert_eq!(
        kinds,
        ["accepted", "case", "done", "stats", "accepted", "case", "done"],
        "pipelined requests must be answered one at a time, in order"
    );
    assert_eq!(jobs, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0], "each job's frames must carry its own id");

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Back-to-back jobs on one connection must not wait on anything but their
/// own work. A warm one-case job costs about a millisecond of engine time,
/// so twenty of them must finish far below twenty times a 25 ms socket
/// poll (a connection that paces each job by a polling read takes longer
/// than that bound).
#[test]
fn back_to_back_jobs_on_one_connection_are_not_paced_by_polling() {
    let module = "define i32 @f(i32 %x) {\n %r = add i32 %x, 0\n ret i32 %r\n}";
    let (addr, server) = start(ServeConfig { jobs: 1, ..ServeConfig::default() });
    let mut client = ServeClient::connect(&addr).expect("connect");
    let options = SubmitOptions::module(module);
    let cold = client.submit(&options).expect("cold submit");
    assert_eq!(num(cold.done(), "cases"), 1.0);

    const JOBS: u32 = 20;
    let start = Instant::now();
    for _ in 0..JOBS {
        let warm = client.submit(&options).expect("resumed submit");
        assert_eq!(num(warm.done(), "cases"), 1.0);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(25) * JOBS / 2,
        "{JOBS} resumed one-case jobs took {elapsed:?}: jobs are being paced by the connection"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}
