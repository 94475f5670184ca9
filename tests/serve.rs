//! Integration suite for `chasekit serve`: the in-process server under
//! concurrent clients, overload, cancellation, caching, streaming, and a
//! hostile wire.
//!
//! The recovery differentials (kill the *server process* and restart it)
//! live in `tests/serve_recovery.rs`; this file drives a server inside the
//! test process over real TCP connections.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;

use chasekit::engine::serve::protocol::{parse_object, Value};
use chasekit::engine::serve::{
    run_job, serve, JobPaths, JobSpec, JobStore, ServeConfig, ServerHandle,
};
use chasekit::engine::{CancelToken, JsonlSink, StopReason, TraceSink};
use chasekit::prelude::*;

/// A scratch directory unique to this test, cleaned before use.
fn scratch(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("chasekit-serve-{}", std::process::id())).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Example 1's diverging rule: runs for as many applications as the
/// budget allows, so long jobs are easy to make.
const DIVERGING: &str = "person(bob). person(X) -> hasFather(X, Y), person(Y).";
/// A two-atom program the semi-oblivious chase saturates immediately.
const SATURATING: &str = "p(a, b). p(X, Y) -> p(Y, X).";

/// One client connection speaking the newline-delimited protocol.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "connection closed mid-response: {line:?}");
        line.pop();
        line
    }

    /// Sends one request and reads its single response line.
    fn round_trip(&mut self, line: &str) -> Fields {
        self.send(line);
        Fields::parse(&self.read_line())
    }
}

/// A parsed flat response object with typed accessors.
struct Fields(Vec<(String, Value)>);

impl Fields {
    fn parse(line: &str) -> Fields {
        Fields(parse_object(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}")))
    }

    fn num(&self, key: &str) -> Option<u64> {
        self.0.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            Value::Num(n) => Some(*n),
            Value::Str(_) => None,
        })
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            Value::Num(_) => None,
        })
    }

    fn ok(&self) -> bool {
        self.num("ok") == Some(1)
    }
}

/// Escapes program text into a JSON string literal for request lines.
fn json_str(text: &str) -> String {
    chasekit::core::display::json_string(text)
}

fn start(store: &std::path::Path, f: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut config = ServeConfig::new(store);
    f(&mut config);
    serve(config).unwrap()
}

/// The server-side default spec used when a test's submits carry only
/// `steps`; mirrors `effective_spec` so solo references line up.
fn spec_with_steps(steps: u64) -> JobSpec {
    JobSpec { steps, ..JobSpec::server_default() }
}

/// A job directory's snapshot file: the final state once the job is done.
fn job_state(dir: &std::path::Path) -> String {
    std::fs::read_to_string(JobPaths::new(dir).state_checkpoint()).unwrap()
}

/// Runs the same job solo (no server) and returns its final snapshot text
/// — the byte-identity witness.
fn solo_checkpoint(dir: &std::path::Path, program: &str, spec: &JobSpec) -> String {
    let program = Program::parse(program).unwrap();
    std::fs::create_dir_all(dir).unwrap();
    run_job(&program, spec, dir, CancelToken::new(), None).unwrap();
    job_state(dir)
}

// ---------------------------------------------------------------------------
// Core lifecycle: submit → wait → bit-identical to a solo run.
// ---------------------------------------------------------------------------

#[test]
fn submitted_job_completes_bit_identical_to_a_solo_run() {
    let dir = scratch("submit-wait");
    let handle = start(&dir.join("store"), |_| {});
    let mut c = Client::connect(handle.addr());

    let resp = c
        .round_trip(&format!(r#"{{"op":"submit","program":{},"steps":200}}"#, json_str(DIVERGING)));
    assert!(resp.ok(), "submit failed");
    let job = resp.str("job").expect("submit returns the job id").to_string();
    assert_eq!(resp.str("state"), Some("queued"));

    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
    assert!(done.ok());
    assert_eq!(done.str("state"), Some("done"));
    assert_eq!(done.str("outcome"), Some("applications"));
    assert_eq!(done.num("applications"), Some(200));

    // The job's on-disk final snapshot is bit-identical to a solo run
    // under the same spec.
    let server_ckpt = job_state(&dir.join("store").join(&job));
    let want = solo_checkpoint(&dir.join("solo"), DIVERGING, &spec_with_steps(200));
    assert_eq!(server_ckpt, want, "server job diverged from the solo run");

    // Status keeps answering after completion.
    let status = c.round_trip(&format!(r#"{{"op":"status","job":"{job}"}}"#));
    assert_eq!(status.str("state"), Some("done"));

    // Unknown jobs are a structured error, not a hang.
    let missing = c.round_trip(r#"{"op":"status","job":"job-999"}"#);
    assert!(!missing.ok());
    assert_eq!(missing.str("error"), Some("unknown-job"));

    handle.shutdown();
}

#[test]
fn concurrent_clients_all_get_the_deterministic_result() {
    let dir = scratch("concurrent");
    let handle = start(&dir.join("store"), |c| {
        c.workers = 4;
        c.queue_capacity = 32;
    });
    let addr = handle.addr();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                // `fresh` bypasses the cache so all eight actually chase.
                let resp = c.round_trip(&format!(
                    r#"{{"op":"submit","program":{},"steps":150,"fresh":1}}"#,
                    json_str(DIVERGING)
                ));
                assert!(resp.ok(), "submit failed");
                let job = resp.str("job").unwrap().to_string();
                let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
                assert_eq!(done.str("state"), Some("done"), "job {job}");
                (job, done.num("applications"), done.num("atoms"), done.num("nulls"))
            })
        })
        .collect();

    let results: Vec<_> = clients.into_iter().map(|t| t.join().unwrap()).collect();
    let want = solo_checkpoint(&dir.join("solo"), DIVERGING, &spec_with_steps(150));
    for (job, applications, atoms, nulls) in &results {
        assert_eq!(*applications, Some(150), "{job}");
        assert_eq!((*atoms, *nulls), (results[0].2, results[0].3), "{job}");
        let ckpt = job_state(&dir.join("store").join(job));
        assert_eq!(ckpt, want, "{job} diverged under concurrency");
    }
    handle.shutdown();
}

/// The job-directory contract: a completed job, whether its budget stopped
/// it or it saturated, holds exactly its program, `meta`, its one snapshot
/// file and `result` — and a budget-stopped job's snapshot is the bytes
/// `chasekit chase --checkpoint` writes under the same steps and cadence.
#[test]
fn job_directories_hold_exactly_the_contract_files() {
    let dir = scratch("job-layout");
    let store = dir.join("store");
    let handle = start(&store, |c| c.defaults.checkpoint_every = 25);
    let mut c = Client::connect(handle.addr());
    let mut jobs = Vec::new();
    for (program, outcome) in [(DIVERGING, "applications"), (SATURATING, "saturated")] {
        let resp = c.round_trip(&format!(
            r#"{{"op":"submit","program":{},"steps":60,"fresh":1}}"#,
            json_str(program)
        ));
        let job = resp.str("job").expect("submit returns the job id").to_string();
        let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
        assert_eq!(done.str("outcome"), Some(outcome), "{job}");
        jobs.push(job);
    }
    handle.shutdown();
    for job in &jobs {
        let mut names: Vec<String> = std::fs::read_dir(store.join(job))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["meta", "program.rules", "result", "state.ckpt"], "{job}");
    }

    let rules = dir.join("diverging.rules");
    std::fs::write(&rules, DIVERGING).unwrap();
    let ckpt = dir.join("cli.ckpt");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_chasekit"))
        .env_remove("CHASEKIT_FAILPOINTS")
        .args(["chase", rules.to_str().unwrap(), "--steps", "60"])
        .args(["--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "25"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(10));
    assert_eq!(job_state(&store.join(&jobs[0])), std::fs::read_to_string(&ckpt).unwrap());
}

/// A job's `state.ckpt` taken under another variant than its `meta` names
/// fails the job with an error naming both; the wrong chase never runs.
#[test]
fn recovered_job_with_a_checkpoint_of_another_variant_fails_named() {
    let dir = scratch("variant-mismatch");
    let store = dir.join("store");
    let spec = JobSpec { variant: ChaseVariant::Restricted, ..spec_with_steps(60) };
    let job_dir = JobStore::open(&store).unwrap().create_job("job-0", DIVERGING, &spec).unwrap();
    let program = Program::parse(DIVERGING).unwrap();
    run_job(&program, &spec_with_steps(30), &job_dir, CancelToken::new(), None).unwrap();
    let parked = job_state(&job_dir);

    let handle = start(&store, |_| {});
    assert_eq!(handle.recovered_jobs().to_vec(), vec!["job-0".to_string()]);
    let mut c = Client::connect(handle.addr());
    let done = c.round_trip(r#"{"op":"wait","job":"job-0"}"#);
    assert_eq!(done.str("state"), Some("failed"));
    let detail = done.str("detail").unwrap_or_default();
    assert!(detail.contains("semi-oblivious") && detail.contains("restricted"), "{detail}");
    assert_eq!(job_state(&job_dir), parked, "the refused job published no snapshot");
    let marker = std::fs::read_to_string(JobPaths::new(&job_dir).result()).unwrap();
    assert!(marker.contains("failed") && marker.contains(detail), "{marker}");
    handle.shutdown();
}

/// A failed job's `result` marker holds its error, so a restart does not
/// run it again and answers `status` with the same error from disk.
#[test]
fn failed_job_is_finished_on_disk_across_restarts() {
    let dir = scratch("failed-twice");
    let store = dir.join("store");
    let spec = JobSpec { variant: ChaseVariant::Restricted, ..spec_with_steps(60) };
    let job_dir = JobStore::open(&store).unwrap().create_job("job-0", DIVERGING, &spec).unwrap();
    let program = Program::parse(DIVERGING).unwrap();
    run_job(&program, &spec_with_steps(30), &job_dir, CancelToken::new(), None).unwrap();

    let first = start(&store, |_| {});
    assert_eq!(first.recovered_jobs().to_vec(), vec!["job-0".to_string()]);
    let mut c = Client::connect(first.addr());
    let failed = c.round_trip(r#"{"op":"wait","job":"job-0"}"#);
    assert_eq!(failed.str("state"), Some("failed"));
    let detail = failed.str("detail").unwrap().to_string();
    first.shutdown();

    let second = start(&store, |_| {});
    assert!(second.recovered_jobs().is_empty(), "a failed job is not recovered");
    let mut c = Client::connect(second.addr());
    let status = c.round_trip(r#"{"op":"status","job":"job-0"}"#);
    assert_eq!(status.str("state"), Some("failed"));
    assert_eq!(status.str("detail"), Some(detail.as_str()));
    let stats = c.round_trip(r#"{"op":"stats"}"#);
    assert_eq!((stats.num("recovered"), stats.num("failed")), (Some(0), Some(0)));
    second.shutdown();
}

/// A job stopped by a failed snapshot publication carries the I/O error
/// into its `wait` answer and onto the server's stderr.
#[test]
fn io_stop_names_the_failed_publication() {
    use std::io::Read as _;
    use std::process::{Child, Command, Stdio};
    /// Kills the server if an assertion fails before it shuts down.
    struct Reaped(Child);
    impl Drop for Reaped {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let dir = scratch("io-detail");
    let mut server = Reaped(
        Command::new(env!("CARGO_BIN_EXE_chasekit"))
            .args(["serve", "--store", dir.join("store").to_str().unwrap()])
            .args(["--checkpoint-every", "25"])
            .env("CHASEKIT_FAILPOINTS", "snapshot.write=error@2")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    // The reader lives to the end, so the server's stdout stays open.
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner.trim().strip_prefix("listening on ").unwrap().parse().unwrap();

    let mut c = Client::connect(addr);
    let submitted = c
        .round_trip(&format!(r#"{{"op":"submit","program":{},"steps":100}}"#, json_str(DIVERGING)));
    let job = submitted.str("job").unwrap().to_string();
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
    assert_eq!((done.str("state"), done.str("outcome")), (Some("done"), Some("io")));
    let detail = done.str("detail").unwrap_or_default();
    assert!(detail.contains("snapshot.write"), "{detail:?}");
    c.round_trip(r#"{"op":"shutdown"}"#);

    let mut stderr = String::new();
    server.0.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = server.0.wait().unwrap();
    assert!(status.success(), "{status:?}");
    assert!(stderr.contains(&job) && stderr.contains("snapshot.write"), "{stderr}");
}

// ---------------------------------------------------------------------------
// Admission control and cancellation.
// ---------------------------------------------------------------------------

#[test]
fn overload_rejects_structurally_and_loses_no_admitted_job() {
    let dir = scratch("overload");
    let handle = start(&dir.join("store"), |c| {
        c.workers = 1;
        c.queue_capacity = 2;
    });
    let mut c = Client::connect(handle.addr());

    // Fill the admission window with effectively-endless jobs.
    let submit = format!(
        r#"{{"op":"submit","program":{},"steps":4000000000,"fresh":1}}"#,
        json_str(DIVERGING)
    );
    let first = c.round_trip(&submit);
    assert!(first.ok());
    let second = c.round_trip(&submit);
    assert!(second.ok());
    let jobs = [first.str("job").unwrap().to_string(), second.str("job").unwrap().to_string()];

    // The window is full: the third submission is rejected with the
    // structured overload response, and nothing panics or hangs.
    let rejected = c.round_trip(&submit);
    assert!(!rejected.ok());
    assert_eq!(rejected.str("error"), Some("overloaded"));
    assert_eq!(rejected.num("active"), Some(2));
    assert_eq!(rejected.num("capacity"), Some(2));

    let stats = c.round_trip(r#"{"op":"stats"}"#);
    assert_eq!(stats.num("rejected"), Some(1));
    assert_eq!(stats.num("submitted"), Some(2));

    // Cancelling drains the window; both admitted jobs reach a terminal
    // state (cancelled is terminal and persisted, not lost).
    for job in &jobs {
        let resp = c.round_trip(&format!(r#"{{"op":"cancel","job":"{job}"}}"#));
        assert!(resp.ok(), "{job}");
        let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
        assert_eq!(done.str("state"), Some("done"), "{job}");
        assert_eq!(done.str("outcome"), Some("cancelled"), "{job}");
    }

    // The freed capacity admits again: the server kept serving throughout.
    let after = c.round_trip(&format!(
        r#"{{"op":"submit","program":{},"steps":50,"fresh":1}}"#,
        json_str(DIVERGING)
    ));
    assert!(after.ok(), "admission must recover after cancellations");
    let job = after.str("job").unwrap().to_string();
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
    assert_eq!(done.str("outcome"), Some("applications"));
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------------

#[test]
fn saturated_results_are_cached_by_fingerprint() {
    let dir = scratch("cache");
    let handle = start(&dir.join("store"), |_| {});
    let mut c = Client::connect(handle.addr());

    let submit = format!(r#"{{"op":"submit","program":{},"steps":500}}"#, json_str(SATURATING));
    let first = c.round_trip(&submit);
    assert!(first.ok());
    let job = first.str("job").unwrap().to_string();
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
    assert_eq!(done.str("outcome"), Some("saturated"));

    // The identical program under the same variant answers from the cache:
    // no job id, the terminal result inline.
    let cached = c.round_trip(&submit);
    assert!(cached.ok());
    assert_eq!(cached.num("cached"), Some(1));
    assert_eq!(cached.str("outcome"), Some("saturated"));
    assert_eq!(cached.num("applications"), done.num("applications"));
    assert!(cached.str("job").is_none(), "cache hits run no job");

    // `fresh` bypasses the cache and actually runs.
    let fresh = c.round_trip(&format!(
        r#"{{"op":"submit","program":{},"steps":500,"fresh":1}}"#,
        json_str(SATURATING)
    ));
    assert!(fresh.ok());
    assert!(fresh.str("job").is_some());
    let job = fresh.str("job").unwrap().to_string();
    c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));

    // A different variant is a different cache key.
    let other = c.round_trip(&format!(
        r#"{{"op":"submit","program":{},"variant":"o","steps":500}}"#,
        json_str(SATURATING)
    ));
    assert!(other.ok());
    assert!(other.str("job").is_some(), "different variant must not hit the cache");
    let job = other.str("job").unwrap().to_string();
    c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));

    let stats = c.round_trip(r#"{"op":"stats"}"#);
    assert_eq!(stats.num("cache_hits"), Some(1));
    handle.shutdown();
}

#[test]
fn cached_results_do_not_answer_deadline_bounded_submissions() {
    let dir = scratch("cache-timeout");
    let handle = start(&dir.join("store"), |_| {});
    let mut c = Client::connect(handle.addr());

    let submit = format!(r#"{{"op":"submit","program":{},"steps":500}}"#, json_str(SATURATING));
    let first = c.round_trip(&submit);
    assert!(first.ok());
    let job = first.str("job").unwrap().to_string();
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
    assert_eq!(done.str("outcome"), Some("saturated"));

    // The cache is warm, but a deadline-bounded submission must run for
    // real: a cached `saturated` cannot prove a live run would have beaten
    // the clock, and identical requests must not flip outcome on warmth.
    let bounded = c.round_trip(&format!(
        r#"{{"op":"submit","program":{},"steps":500,"timeout_ms":60000}}"#,
        json_str(SATURATING)
    ));
    assert!(bounded.ok());
    assert!(bounded.num("cached").is_none(), "deadline-bounded submit must bypass the cache");
    let job = bounded.str("job").expect("deadline-bounded submit runs a job").to_string();
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
    assert_eq!(done.str("outcome"), Some("saturated"));

    // Without a deadline the resubmission still hits the cache.
    let cached = c.round_trip(&submit);
    assert_eq!(cached.num("cached"), Some(1));
    let stats = c.round_trip(r#"{"op":"stats"}"#);
    assert_eq!(stats.num("cache_hits"), Some(1));
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Bounded in-memory state: terminal retention and the connection cap.
// ---------------------------------------------------------------------------

#[test]
fn evicted_terminal_jobs_still_answer_from_the_store() {
    let dir = scratch("eviction");
    let handle = start(&dir.join("store"), |c| {
        c.workers = 1;
        c.terminal_retention = 1;
    });
    let mut c = Client::connect(handle.addr());

    let submit =
        format!(r#"{{"op":"submit","program":{},"steps":40,"fresh":1}}"#, json_str(DIVERGING));
    let first = c.round_trip(&submit);
    assert!(first.ok());
    let job_a = first.str("job").unwrap().to_string();
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job_a}"}}"#));
    assert_eq!(done.str("state"), Some("done"));
    let second = c.round_trip(&submit);
    assert!(second.ok());
    let job_b = second.str("job").unwrap().to_string();
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job_b}"}}"#));
    assert_eq!(done.str("state"), Some("done"));

    // With retention 1, observing job B terminal implies job A was evicted
    // from memory (same critical section) — yet status and wait still
    // answer from its on-disk result marker, indistinguishably.
    let status = c.round_trip(&format!(r#"{{"op":"status","job":"{job_a}"}}"#));
    assert!(status.ok(), "evicted completed job must still answer: {:?}", status.str("error"));
    assert_eq!(status.str("state"), Some("done"));
    assert_eq!(status.str("outcome"), Some("applications"));
    assert_eq!(status.num("applications"), Some(40));
    let wait = c.round_trip(&format!(r#"{{"op":"wait","job":"{job_a}"}}"#));
    assert_eq!(wait.str("state"), Some("done"));

    // Ids that never existed stay unknown, and hostile ids never reach
    // the filesystem.
    for id in ["job-999", "../outside", "job-", "job-1x", ""] {
        let missing = c.round_trip(&format!(r#"{{"op":"status","job":{}}}"#, json_str(id)));
        assert!(!missing.ok(), "{id:?}");
        assert_eq!(missing.str("error"), Some("unknown-job"), "{id:?}");
    }
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_structurally_and_frees_slots() {
    let dir = scratch("conn-cap");
    let handle = start(&dir.join("store"), |c| c.max_connections = 2);

    let mut c1 = Client::connect(handle.addr());
    let mut c2 = Client::connect(handle.addr());
    assert!(c1.round_trip(r#"{"op":"stats"}"#).ok());
    assert!(c2.round_trip(r#"{"op":"stats"}"#).ok());

    // The third connection gets a structured rejection and is closed —
    // no handler thread is spawned for it.
    let mut c3 = Client::connect(handle.addr());
    let resp = Fields::parse(&c3.read_line());
    assert!(!resp.ok());
    assert_eq!(resp.str("error"), Some("too-many-connections"));
    let mut rest = String::new();
    assert_eq!(c3.reader.read_line(&mut rest).unwrap(), 0, "rejected connection is closed");

    // A disconnecting client frees its slot (when its handler notices the
    // EOF), and the server admits connections again.
    drop(c1);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        // A rejected connection may be closed before our request is even
        // sent, so both the write and the read are fallible probes here.
        let mut c = Client::connect(handle.addr());
        let _ = c.stream.write_all(b"{\"op\":\"stats\"}\n");
        let mut line = String::new();
        let served = match c.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                let resp = Fields::parse(line.trim_end());
                if !resp.ok() {
                    assert_eq!(resp.str("error"), Some("too-many-connections"));
                }
                resp.ok()
            }
            _ => false,
        };
        if served {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "slot never freed after disconnect");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn shutdown_interrupted_jobs_report_interrupted_not_failed() {
    let dir = scratch("interrupted");
    let handle = start(&dir.join("store"), |c| c.workers = 1);
    let mut c = Client::connect(handle.addr());

    // An effectively-endless job, then wait until the worker picked it up.
    let resp = c.round_trip(&format!(
        r#"{{"op":"submit","program":{},"steps":4000000000,"fresh":1}}"#,
        json_str(DIVERGING)
    ));
    assert!(resp.ok());
    let job = resp.str("job").unwrap().to_string();
    loop {
        let s = c.round_trip(&format!(r#"{{"op":"status","job":"{job}"}}"#));
        if s.str("state") == Some("running") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Shutdown cancels the job cooperatively; the worker pool drains
    // before `shutdown` returns. Existing connections keep answering.
    handle.shutdown();
    let s = c.round_trip(&format!(r#"{{"op":"status","job":"{job}"}}"#));
    assert!(s.ok());
    assert_eq!(
        s.str("state"),
        Some("interrupted"),
        "a shutdown-interrupted job is in flight, not failed: {:?}",
        s.str("detail")
    );
    // And on disk it really is still in flight: no result marker, so the
    // next start's scan recovers it.
    assert!(!dir.join("store").join(&job).join("result").exists());
}

#[test]
fn update_derives_a_new_job_from_a_stored_program() {
    let dir = scratch("update-op");
    let handle = start(&dir.join("store"), |_| {});
    let mut c = Client::connect(handle.addr());

    let resp =
        c.round_trip(&format!(r#"{{"op":"submit","program":{},"fresh":1}}"#, json_str(SATURATING)));
    assert!(resp.ok());
    let base = resp.str("job").unwrap().to_string();
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{base}"}}"#));
    assert_eq!(done.str("state"), Some("done"));
    assert_eq!(done.str("outcome"), Some("saturated"));

    // Derive a new job: swap the base fact. The server re-chases the
    // edited program from scratch under a fresh id.
    let script = "retract p(a, b).\nadd p(c, d).";
    let resp =
        c.round_trip(&format!(r#"{{"op":"update","job":"{base}","script":{}}}"#, json_str(script)));
    assert!(resp.ok(), "{:?}", resp.str("detail"));
    let derived = resp.str("job").unwrap().to_string();
    assert_ne!(derived, base);
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{derived}"}}"#));
    assert_eq!(done.str("state"), Some("done"));
    assert_eq!(done.str("outcome"), Some("saturated"));
    assert_eq!(done.num("atoms"), Some(2));

    // The derived job's final snapshot is bit-identical to a solo run
    // of the edited program — the canonical from-scratch rebuild.
    let mut program = Program::parse(SATURATING).unwrap();
    let edits = chasekit::engine::parse_edit_script(script, &mut program).unwrap();
    let edited = chasekit::engine::edited_program(&program, &edits);
    let edited_text = chasekit::core::display::program_to_string(&edited);
    let want = solo_checkpoint(&dir.join("solo"), &edited_text, &JobSpec::server_default());
    let got = std::fs::read_to_string(dir.join("store").join(&derived).join("state.ckpt")).unwrap();
    assert_eq!(got, want, "derived job diverged from the solo rebuild");

    // Structured failure shapes: unknown job, hostile id, bad script.
    for id in ["job-999", "../outside"] {
        let resp = c.round_trip(&format!(
            r#"{{"op":"update","job":{},"script":"add p(a, b)."}}"#,
            json_str(id)
        ));
        assert!(!resp.ok(), "{id:?}");
        assert_eq!(resp.str("error"), Some("unknown-job"), "{id:?}");
    }
    let resp = c
        .round_trip(&format!(r#"{{"op":"update","job":"{base}","script":"frobnicate p(a, b)."}}"#));
    assert!(!resp.ok());
    assert_eq!(resp.str("error"), Some("edit-script"));
    handle.shutdown();
}

#[test]
fn recovery_still_works_after_store_compaction() {
    let dir = scratch("compaction");
    let store = dir.join("store");
    let handle = start(&store, |c| {
        c.workers = 1;
        c.keep_completed = Some(1);
    });
    let mut c = Client::connect(handle.addr());

    // Two quick jobs; once both are done, compaction has reclaimed the
    // older directory and persisted the sequence floor.
    let mut finished = Vec::new();
    for program in [SATURATING, "q(a). q(X) -> r(X)."] {
        let resp = c
            .round_trip(&format!(r#"{{"op":"submit","program":{},"fresh":1}}"#, json_str(program)));
        assert!(resp.ok());
        let job = resp.str("job").unwrap().to_string();
        let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
        assert_eq!(done.str("state"), Some("done"));
        finished.push(job);
    }
    assert!(!store.join(&finished[0]).exists(), "oldest completed dir is reclaimed");
    assert!(store.join(&finished[1]).exists());
    assert!(store.join("next-seq").exists(), "sequence floor is persisted");

    // A long job interrupted by shutdown stays in flight on disk —
    // compaction must never have touched it.
    let resp = c.round_trip(&format!(
        r#"{{"op":"submit","program":{},"steps":4000000000,"fresh":1}}"#,
        json_str(DIVERGING)
    ));
    assert!(resp.ok());
    let in_flight = resp.str("job").unwrap().to_string();
    loop {
        let s = c.round_trip(&format!(r#"{{"op":"status","job":"{in_flight}"}}"#));
        if s.str("state") == Some("running") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();

    // Restart on the compacted store: the in-flight job recovers under
    // its original id.
    let handle = start(&store, |c| {
        c.workers = 1;
        c.keep_completed = Some(1);
    });
    assert_eq!(handle.recovered_jobs().to_vec(), vec![in_flight.clone()]);
    let mut c = Client::connect(handle.addr());
    loop {
        let s = c.round_trip(&format!(r#"{{"op":"status","job":"{in_flight}"}}"#));
        if s.str("state") == Some("running") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = c.round_trip(&format!(r#"{{"op":"cancel","job":"{in_flight}"}}"#));
    assert!(resp.ok());
    let done = c.round_trip(&format!(r#"{{"op":"wait","job":"{in_flight}"}}"#));
    assert_eq!(done.str("state"), Some("done"));
    assert_eq!(done.str("outcome"), Some("cancelled"));

    // New admissions continue past the floor: a compacted-away job's id
    // is never handed to a new submission.
    let resp = c.round_trip(&format!(
        r#"{{"op":"submit","program":{},"steps":5,"fresh":1}}"#,
        json_str(DIVERGING)
    ));
    assert!(resp.ok());
    assert_eq!(resp.str("job"), Some("job-3"));
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Trace streaming.
// ---------------------------------------------------------------------------

/// A `Write` target readable after the owning sink is dropped.
#[derive(Clone)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn streamed_trace_is_byte_identical_to_a_solo_traced_run() {
    let dir = scratch("stream");
    let handle = start(&dir.join("store"), |_| {});
    let mut c = Client::connect(handle.addr());

    let resp = c.round_trip(&format!(
        r#"{{"op":"submit","program":{},"steps":60,"stream":1,"fresh":1}}"#,
        json_str(DIVERGING)
    ));
    assert!(resp.ok());
    assert_eq!(resp.str("state"), Some("queued"));

    // Event lines follow until the terminal response (the line with `ok`).
    let mut events = Vec::new();
    let done = loop {
        let line = c.read_line();
        let fields = Fields::parse(&line);
        if fields.num("ok").is_some() {
            break fields;
        }
        events.push(line);
    };
    assert_eq!(done.str("state"), Some("done"));
    assert_eq!(done.num("applications"), Some(60));
    assert!(!events.is_empty(), "a 60-application chase traces events");

    // Solo reference: the same job traced through a JsonlSink directly.
    let buf = SharedBuf(Default::default());
    let program = Program::parse(DIVERGING).unwrap();
    let sink: Box<dyn TraceSink> = Box::new(JsonlSink::new(buf.clone(), &program));
    let solo_dir = dir.join("solo");
    std::fs::create_dir_all(&solo_dir).unwrap();
    let report =
        run_job(&program, &spec_with_steps(60), &solo_dir, CancelToken::new(), Some(sink)).unwrap();
    assert_eq!(report.outcome, StopReason::Applications);
    let want = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let want_lines: Vec<&str> = want.lines().collect();
    assert_eq!(events, want_lines, "streamed trace diverged from the solo trace");
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// The hostile wire: the protocol trust boundary under malformed input.
// ---------------------------------------------------------------------------

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let dir = scratch("malformed");
    let handle = start(&dir.join("store"), |c| c.max_line_bytes = 512);
    let mut c = Client::connect(handle.addr());

    for (line, code) in [
        ("not json at all", "bad-request"),
        (r#"{"op":"submit"}"#, "bad-request"), // missing program
        (r#"{"op":"submit","program":7}"#, "bad-request"), // mistyped field
        (r#"{"op":"submit","program":"p(a).","x":1}"#, "bad-request"), // extra field
        (r#"{"op":"nope"}"#, "bad-request"),   // unknown op
        (r#"{"op":"submit","program":{}}"#, "bad-request"), // nested value
        (r#"{"op":"submit","program":"p(a"}"#, "parse"), // program won't parse
        (&format!(r#"{{"op":"submit","program":"{}"}}"#, "x".repeat(600)), "oversized"),
    ] {
        let resp = c.round_trip(line);
        assert!(!resp.ok(), "{line:?}");
        assert_eq!(resp.str("error"), Some(code), "{line:?}");
    }

    // Non-UTF-8 bytes.
    c.stream.write_all(b"\xff\xfe{\"op\":\"stats\"}\n").unwrap();
    let resp = Fields::parse(&c.read_line());
    assert_eq!(resp.str("error"), Some("non-utf8"));

    // After all that abuse the same connection still serves real requests.
    let stats = c.round_trip(r#"{"op":"stats"}"#);
    assert!(stats.ok());
    assert_eq!(stats.num("submitted"), Some(0));

    // A connection torn mid-line is reported (best effort) and closed;
    // fresh connections are unaffected.
    let mut torn = Client::connect(handle.addr());
    torn.stream.write_all(b"{\"op\":\"sta").unwrap();
    torn.stream.shutdown(std::net::Shutdown::Write).unwrap();
    let resp = Fields::parse(&torn.read_line());
    assert_eq!(resp.str("error"), Some("truncated"));

    let mut again = Client::connect(handle.addr());
    assert!(again.round_trip(r#"{"op":"stats"}"#).ok());
    handle.shutdown();
}

/// One long-lived server shared by every proptest case (starting a server
/// per case would dominate the run); access is serialized per connection.
fn fuzz_server_addr() -> SocketAddr {
    use std::sync::OnceLock;
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let dir = scratch("fuzz-server");
        let handle = start(&dir, |c| c.max_line_bytes = 1024);
        let addr = handle.addr();
        // Leak the handle: the server lives for the whole test process.
        std::mem::forget(handle);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes thrown at the socket: every complete line gets a
    /// parseable one-line response, the server never dies, and the
    /// connection still answers a well-formed request afterwards.
    #[test]
    fn arbitrary_bytes_never_kill_the_connection(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let payload: Vec<u8> = payload.into_iter().filter(|&b| b != b'\n').collect();
        // Blank lines are skipped by the server with no response at all;
        // everything else gets exactly one response line.
        let blank = std::str::from_utf8(&payload).is_ok_and(|s| s.trim().is_empty());
        let mut line = payload;
        line.push(b'\n');
        let mut c = Client::connect(fuzz_server_addr());
        c.stream.write_all(&line).unwrap();
        if !blank {
            let resp = Fields::parse(&c.read_line());
            // Random bytes are not a valid submit/wait/cancel, so the
            // response is a structured error (ok:0) with an error code.
            prop_assert!(!resp.ok());
            prop_assert!(resp.str("error").is_some());
        }
        // The connection keeps serving.
        let stats = c.round_trip(r#"{"op":"stats"}"#);
        prop_assert!(stats.ok());
    }

    /// Structurally hostile *JSON*: near-miss objects built from schema
    /// fragments. Every one is rejected with a structured error naming a
    /// code, never a panic or a dropped connection.
    #[test]
    fn schema_violations_are_rejected_structurally(
        op in prop_oneof![
            Just("submit"), Just("status"), Just("wait"), Just("cancel"),
            Just("stats"), Just("shutdown2"), Just(""),
        ],
        extra_key_idx in 0usize..8,
        extra_num in 0u64..3,
        nest in any::<bool>(),
    ) {
        // `shutdown` itself is excluded: it would stop the shared server.
        // The extra key is drawn from real schema field names (plus `op`
        // itself and a stranger) so duplicate-key, mistyped-field, and
        // unknown-field rejections all get exercised.
        let extra_key =
            ["op", "job", "program", "variant", "steps", "stream", "fresh", "zzz"][extra_key_idx];
        let value = if nest { "{}".to_string() } else { extra_num.to_string() };
        let line = format!(r#"{{"op":"{op}","{extra_key}":{value}}}"#);
        let mut c = Client::connect(fuzz_server_addr());
        let resp = c.round_trip(&line);
        // `status`/`wait`/`cancel` with extra_key == "job" would be valid
        // requests for a missing job: unknown-job is the correct outcome.
        prop_assert!(!resp.ok(), "{line}");
        prop_assert!(resp.str("error").is_some(), "{line}");
        let stats = c.round_trip(r#"{"op":"stats"}"#);
        prop_assert!(stats.ok());
    }

    /// Oversized lines (beyond the configured 1024-byte cap) are consumed
    /// and rejected without desynchronizing the stream.
    #[test]
    fn oversized_lines_do_not_desynchronize(pad in 1025usize..4096) {
        let mut c = Client::connect(fuzz_server_addr());
        let mut line = vec![b'z'; pad];
        line.push(b'\n');
        c.stream.write_all(&line).unwrap();
        let resp = Fields::parse(&c.read_line());
        prop_assert_eq!(resp.str("error"), Some("oversized"));
        let stats = c.round_trip(r#"{"op":"stats"}"#);
        prop_assert!(stats.ok());
    }
}
