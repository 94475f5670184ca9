//! The `chasekit serve` server: a thread-per-connection front-end over a
//! bounded worker pool, with crash recovery at startup.
//!
//! Responsibilities and their isolation story:
//!
//! * **Admission control** — submissions are serialized through one
//!   admission lock; a full queue yields a structured `overloaded`
//!   response, never a panic or a silent drop. Once a job's `meta` marker
//!   is on disk the submission is *admitted*: a kill at any later point
//!   (including before the acknowledgement reaches the client) leaves a
//!   job the restart scan recovers.
//! * **Fault isolation** — each job runs on a pool worker under
//!   `catch_unwind`; a panicking job (hostile program, injected fault)
//!   marks that job failed and the worker keeps serving.
//! * **Budgets** — per-request overrides are merged over the server-wide
//!   default [`JobSpec`] and enforced by the engine's own `guard::Budget`.
//! * **Recovery** — startup scans the job store, re-queues every admitted
//!   job without a result marker, and primes the result cache from
//!   completed ones. Recovery work bypasses the admission cap: admitted
//!   jobs are never lost to a restart.
//! * **Result cache** — saturated outcomes are cached by (program
//!   fingerprint, variant) and served to compatible resubmissions without
//!   re-running the chase.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use chasekit_core::display::program_to_string;
use chasekit_core::Program;

use crate::checkpoint::program_fingerprint;
use crate::incremental::{edited_program, parse_edit_script};
use crate::failpoint::{self, points};
use crate::serve::protocol::{
    self, error_response, parse_request, read_line_capped, ReadLine, Request, SubmitOverrides,
    Value,
};
use crate::serve::runner::{run_job, JobSpec};
use crate::serve::store::{JobResult, JobStore};
use crate::trace::{JsonlSink, TraceSink};
use crate::{CancelToken, StopReason};

/// Server configuration: socket, store, pool shape, and default budgets.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Job-store root directory.
    pub store: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission cap: jobs queued-or-running before submissions are
    /// rejected as overloaded.
    pub queue_capacity: usize,
    /// Server-wide default budgets; `submit` fields override per request.
    pub defaults: JobSpec,
    /// Request-line byte cap (protocol trust boundary).
    pub max_line_bytes: usize,
    /// Concurrent-connection cap: connections beyond it receive a
    /// structured `too-many-connections` rejection and are closed, so a
    /// client opening sockets in a loop cannot exhaust threads (admission
    /// control bounds jobs; this bounds the front-end).
    pub max_connections: usize,
    /// Terminal job entries kept in memory. Older done/failed entries are
    /// evicted; `status`/`wait` on an evicted completed job fall back to
    /// its on-disk `result` marker, so eviction is invisible for anything
    /// the store remembers.
    pub terminal_retention: usize,
    /// Result-cache capacity (entries; oldest evicted first).
    pub cache_capacity: usize,
    /// On-disk retention of completed job directories: after each job
    /// completes (and once at startup), the oldest completed directories
    /// beyond this count are deleted. The sequence floor file keeps job
    /// ids from ever being reused; `status` on a compacted-away job
    /// answers `unknown-job` once its in-memory entry is also evicted.
    /// `None` keeps everything (the default).
    pub keep_completed: Option<usize>,
}

impl ServeConfig {
    /// Defaults for a store rooted at `store`: loopback on an ephemeral
    /// port, 2 workers, a 16-job admission window.
    pub fn new(store: &std::path::Path) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store: store.to_path_buf(),
            workers: 2,
            queue_capacity: 16,
            defaults: JobSpec::server_default(),
            max_line_bytes: protocol::DEFAULT_MAX_LINE_BYTES,
            max_connections: 64,
            terminal_retention: 1024,
            cache_capacity: 1024,
            keep_completed: None,
        }
    }
}

/// A job's lifecycle state. `queued -> running -> done | failed`;
/// `cancel` is cooperative and lands as `done` with outcome `cancelled`.
/// `interrupted` is the shutdown window only: the job is still in flight
/// on disk and the next start recovers it, so it is neither done nor
/// failed.
#[derive(Debug, Clone)]
enum Phase {
    Queued,
    Running,
    Done(JobResult),
    Failed(String),
    Interrupted,
}

#[derive(Debug)]
struct JobEntry {
    phase: Phase,
    cancel: CancelToken,
    /// Set by a client `cancel` request. Distinguishes a user-cancelled
    /// job (terminal: result is persisted) from one interrupted by server
    /// shutdown (left in-flight on disk for the next start to recover).
    user_cancelled: bool,
    /// Pending trace stream, handed to the worker when the job starts.
    stream: Option<mpsc::Sender<String>>,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    cache_hits: AtomicU64,
}

/// The saturated-result cache, bounded: once `capacity` entries are held,
/// each insert evicts the oldest. Insertion order is good enough here —
/// the cache is a bandwidth saver, not a correctness layer, and every
/// evicted result is still on disk for the next restart scan to re-prime.
#[derive(Debug)]
struct ResultCache {
    capacity: usize,
    map: HashMap<(u64, String), JobResult>,
    order: VecDeque<(u64, String)>,
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache { capacity, map: HashMap::new(), order: VecDeque::new() }
    }

    fn get(&self, key: &(u64, String)) -> Option<&JobResult> {
        self.map.get(key)
    }

    fn insert(&mut self, key: (u64, String), result: JobResult) {
        if self.map.insert(key.clone(), result).is_none() {
            self.order.push_back(key);
        }
        while self.map.len() > self.capacity {
            let Some(old) = self.order.pop_front() else { break };
            self.map.remove(&old);
        }
    }
}

struct Shared {
    config: ServeConfig,
    store: JobStore,
    /// Every job this process knows of, by id.
    jobs: Mutex<HashMap<String, JobEntry>>,
    /// Signalled whenever some job reaches a terminal phase.
    done_cv: Condvar,
    /// Jobs awaiting a worker (ids; the store holds the payload).
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    /// Serializes the admission check-persist-enqueue window so the
    /// capacity bound is exact.
    admission: Mutex<()>,
    /// Saturated outcomes by (program fingerprint, variant token).
    cache: Mutex<ResultCache>,
    /// Terminal job ids, oldest first, for bounded retention: the tail
    /// beyond `terminal_retention` is evicted from `jobs`.
    terminal_order: Mutex<VecDeque<String>>,
    /// Live client connections (front-end cap, distinct from admission).
    connections: std::sync::atomic::AtomicUsize,
    next_seq: AtomicU64,
    shutdown: AtomicBool,
    counters: Counters,
    /// Job ids the startup scan re-queued.
    recovered: Vec<String>,
}

// Lock helpers: a panicking job thread must never wedge the server, so
// every lock tolerates poisoning (the protected state is only ever
// mutated in small, complete critical sections).
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Releases one connection slot when its handler thread ends — by
/// returning or by unwinding — so the cap never leaks slots.
struct ConnSlot(Arc<Shared>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Shared {
    fn active_jobs(&self) -> usize {
        lock(&self.jobs)
            .values()
            .filter(|e| matches!(e.phase, Phase::Queued | Phase::Running))
            .count()
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (tests) or [`ServerHandle::wait`]
/// (the CLI blocks on it until a client sends `{"op":"shutdown"}`).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (real port even when configured with 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Job ids the startup scan found in flight and re-queued.
    pub fn recovered_jobs(&self) -> &[String] {
        &self.shared.recovered
    }

    /// Initiates shutdown and joins every server thread. Running jobs are
    /// cooperatively cancelled and left in-flight on disk — the next
    /// start recovers and completes them.
    pub fn shutdown(mut self) {
        initiate_shutdown(&self.shared, self.addr);
        self.join();
    }

    /// Blocks until the server shuts down (via a client `shutdown` op).
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

fn initiate_shutdown(shared: &Arc<Shared>, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::Release);
    // Interrupt running jobs; their durable state recovers next start.
    for entry in lock(&shared.jobs).values() {
        if matches!(entry.phase, Phase::Running) {
            entry.cancel.cancel();
        }
    }
    shared.queue_cv.notify_all();
    shared.done_cv.notify_all();
    // Unblock the accept loop.
    let _ = TcpStream::connect(addr);
}

/// Starts the server: opens the store, runs the recovery scan, binds the
/// socket, and spawns the worker pool and accept loop.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let store = JobStore::open(&config.store)?;
    let scan = store.scan().map_err(|e| {
        std::io::Error::other(format!("cannot scan job store {}: {e}", config.store.display()))
    })?;

    let mut cache = ResultCache::new(config.cache_capacity);
    for (_, result) in &scan.completed {
        if result.outcome == StopReason::Saturated.keyword() {
            cache.insert((result.fingerprint, result.variant.clone()), result.clone());
        }
    }

    // Startup compaction, after the cache is primed from the directories
    // about to be reclaimed. In-flight jobs are untouched by construction.
    if let Some(keep) = config.keep_completed {
        store.compact(keep, scan.next_seq).map_err(|e| {
            std::io::Error::other(format!(
                "cannot compact job store {}: {e}",
                config.store.display()
            ))
        })?;
    }

    let mut jobs = HashMap::new();
    let mut queue = VecDeque::new();
    let mut recovered = Vec::new();
    for job in &scan.in_flight {
        // Recovered jobs bypass the admission cap: they were admitted
        // before the kill and must not be lost.
        jobs.insert(
            job.id.clone(),
            JobEntry {
                phase: Phase::Queued,
                cancel: CancelToken::new(),
                user_cancelled: false,
                stream: None,
            },
        );
        queue.push_back(job.id.clone());
        recovered.push(job.id.clone());
    }

    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);

    let shared = Arc::new(Shared {
        store,
        jobs: Mutex::new(jobs),
        done_cv: Condvar::new(),
        queue: Mutex::new(queue),
        queue_cv: Condvar::new(),
        admission: Mutex::new(()),
        cache: Mutex::new(cache),
        terminal_order: Mutex::new(VecDeque::new()),
        connections: std::sync::atomic::AtomicUsize::new(0),
        next_seq: AtomicU64::new(scan.next_seq),
        shutdown: AtomicBool::new(false),
        counters: Counters::default(),
        recovered,
        config,
    });

    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        worker_handles.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    shared.queue_cv.notify_all();

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            let cap = accept_shared.config.max_connections.max(1);
            if accept_shared.connections.fetch_add(1, Ordering::AcqRel) >= cap {
                accept_shared.connections.fetch_sub(1, Ordering::AcqRel);
                // Best-effort structured rejection on the accept thread; a
                // short write timeout so a slow client cannot stall accepts.
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let resp = error_response(
                    "too-many-connections",
                    &format!("connection limit {cap} reached; retry later"),
                );
                let _ = send_line(&mut stream, &resp);
                continue;
            }
            let slot = ConnSlot(Arc::clone(&accept_shared));
            std::thread::spawn(move || handle_connection(&slot.0, stream));
        }
    });

    Ok(ServerHandle { addr, shared, accept: Some(accept), workers: worker_handles })
}

// ---------------------------------------------------------------------------
// Worker pool.
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = q.pop_front() {
                    break id;
                }
                q = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let (cancel, stream, user_cancel_at_start) = {
            let mut jobs = lock(&shared.jobs);
            let Some(entry) = jobs.get_mut(&id) else { continue };
            entry.phase = Phase::Running;
            (entry.cancel.clone(), entry.stream.take(), entry.user_cancelled)
        };
        let _ = user_cancel_at_start; // a pre-cancelled token stops the job immediately

        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| execute_job(shared, &id, cancel, stream)));
        let phase = match outcome {
            Ok(Ok(Some(result))) => {
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                Phase::Done(result)
            }
            Ok(Ok(None)) => {
                // Interrupted by shutdown: leave the job in-flight on disk
                // (no result marker) so the next start recovers it, and
                // report it as such — not as a failure.
                Phase::Interrupted
            }
            Ok(Err(msg)) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                Phase::Failed(msg)
            }
            Err(panic) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                Phase::Failed(format!("job panicked: {msg}"))
            }
        };
        {
            let mut jobs = lock(&shared.jobs);
            let terminal = matches!(phase, Phase::Done(_) | Phase::Failed(_));
            if let Some(entry) = jobs.get_mut(&id) {
                entry.phase = phase;
            }
            // Bounded retention: evict the oldest terminal entries beyond
            // the cap (inside the same critical section, so anyone who
            // observes this job terminal also observes the eviction).
            // Evicted completed jobs still answer from their on-disk
            // result marker; interrupted jobs are never evicted — they
            // are still in flight.
            if terminal {
                let mut order = lock(&shared.terminal_order);
                order.push_back(id.clone());
                while order.len() > shared.config.terminal_retention {
                    let Some(old) = order.pop_front() else { break };
                    jobs.remove(&old);
                }
            }
        }
        shared.done_cv.notify_all();
    }
}

/// Runs one job end-to-end: load from the store, chase, publish the
/// result marker, update the cache. Returns `Ok(None)` when the job was
/// interrupted by shutdown (not terminal — no result is written).
fn execute_job(
    shared: &Arc<Shared>,
    id: &str,
    cancel: CancelToken,
    stream: Option<mpsc::Sender<String>>,
) -> Result<Option<JobResult>, String> {
    let stored = shared.store.load_job(id)?;
    let program = Program::parse(&stored.program_text)
        .map_err(|e| format!("program no longer parses: {e}"))?;
    let fingerprint = program_fingerprint(&program);
    let sink: Option<Box<dyn TraceSink>> = stream.map(|tx| {
        Box::new(JsonlSink::new(ChannelWriter { tx, buf: Vec::new() }, &program))
            as Box<dyn TraceSink>
    });

    let report = run_job(&program, &stored.spec, &stored.dir, cancel, sink)?;

    let user_cancelled = lock(&shared.jobs).get(id).is_some_and(|e| e.user_cancelled);
    if report.outcome == StopReason::Cancelled && !user_cancelled {
        return Ok(None);
    }

    // The crash window between the final checkpoint and the result marker.
    if let Err(e) = failpoint::trip_io(points::SERVE_RESULT) {
        return Err(format!("cannot publish result for {id}: {e}"));
    }
    let result = JobResult {
        outcome: report.outcome.keyword().to_string(),
        applications: report.applications,
        atoms: report.atoms as u64,
        nulls: report.nulls as u64,
        fingerprint,
        variant: stored.spec.variant.name().to_string(),
    };
    shared
        .store
        .write_result(id, &result)
        .map_err(|e| format!("cannot publish result for {id}: {e}"))?;

    if report.outcome == StopReason::Saturated {
        lock(&shared.cache)
            .insert((fingerprint, result.variant.clone()), result.clone());
    }

    // Bounded on-disk retention. Under the admission lock so the floor
    // file never races a concurrent sequence allocation; the job that
    // just finished is the newest completed directory, so it survives
    // any retention of at least one.
    if let Some(keep) = shared.config.keep_completed {
        let _admit = lock(&shared.admission);
        let floor = shared.next_seq.load(Ordering::Relaxed);
        if let Err(e) = shared.store.compact(keep, floor) {
            eprintln!("chasekit serve: compaction failed (continuing): {e}");
        }
    }
    Ok(Some(result))
}

/// Adapts the mpsc stream channel to the `Write` bound [`JsonlSink`]
/// needs: buffers until each newline, sends complete lines. A vanished
/// client (closed receiver) is ignored — the job's execution must not
/// depend on who is watching.
struct ChannelWriter {
    tx: mpsc::Sender<String>,
    buf: Vec<u8>,
}

impl Write for ChannelWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=i).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            let _ = self.tx.send(text);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Connections.
// ---------------------------------------------------------------------------

fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    loop {
        let line = match read_line_capped(&mut reader, shared.config.max_line_bytes) {
            Err(_) | Ok(ReadLine::Eof) => return,
            Ok(ReadLine::Oversized) => {
                let resp = error_response(
                    "oversized",
                    &format!("request line exceeds {} bytes", shared.config.max_line_bytes),
                );
                if send_line(&mut stream, &resp).is_err() {
                    return;
                }
                continue;
            }
            Ok(ReadLine::NonUtf8) => {
                let resp = error_response("non-utf8", "request line is not valid UTF-8");
                if send_line(&mut stream, &resp).is_err() {
                    return;
                }
                continue;
            }
            Ok(ReadLine::TruncatedEof(n)) => {
                // Best effort: the peer may still read our half.
                let resp = error_response(
                    "truncated",
                    &format!("connection closed mid-line after {n} bytes"),
                );
                let _ = send_line(&mut stream, &resp);
                return;
            }
            Ok(ReadLine::Line(l)) => l,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(r) => r,
            Err(msg) => {
                if send_line(&mut stream, &error_response("bad-request", &msg)).is_err() {
                    return;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::Submit { program, overrides, stream: want_stream, fresh } => {
                handle_submit(shared, &mut stream, &program, &overrides, want_stream, fresh)
            }
            Request::Update { job, script, overrides, stream: want_stream } => {
                handle_update(shared, &mut stream, &job, &script, &overrides, want_stream)
            }
            Request::Status { job } => {
                let resp = job_response(shared, &job);
                send_line(&mut stream, &resp).is_ok()
            }
            Request::Wait { job } => handle_wait(shared, &mut stream, &job),
            Request::Cancel { job } => handle_cancel(shared, &mut stream, &job),
            Request::Stats => {
                let resp = stats_response(shared);
                send_line(&mut stream, &resp).is_ok()
            }
            Request::Shutdown => {
                let addr = stream.local_addr().ok();
                let _ = send_line(
                    &mut stream,
                    &protocol::response(true, &[("shutdown", Value::Num(1))]),
                );
                if let Some(addr) = addr {
                    initiate_shutdown(shared, addr);
                }
                false
            }
        };
        if !keep_going {
            return;
        }
    }
}

fn effective_spec(defaults: &JobSpec, overrides: &SubmitOverrides) -> JobSpec {
    JobSpec {
        variant: overrides.variant.unwrap_or(defaults.variant),
        steps: overrides.steps.unwrap_or(defaults.steps),
        timeout_ms: overrides.timeout_ms.or(defaults.timeout_ms),
        max_atoms: overrides.max_atoms.map(|n| n as usize).or(defaults.max_atoms),
        max_memory: overrides.max_memory.map(|n| n as usize).or(defaults.max_memory),
        checkpoint_every: defaults.checkpoint_every,
    }
}

/// Whether a cached saturated result answers a request under `spec`: every
/// requested ceiling must provably not have cut the cached run short.
fn cache_serves(cached: &JobResult, spec: &JobSpec) -> bool {
    cached.outcome == StopReason::Saturated.keyword()
        && cached.applications <= spec.steps
        && spec.max_atoms.is_none_or(|cap| cached.atoms <= cap as u64)
        && spec.max_memory.is_none() // peak memory is not recorded; be conservative
        // A wall-clock deadline could have stopped a live run before the
        // fixpoint; run-time is not recorded, so a request with a timeout
        // always runs for real — identical submissions must not flip
        // between `saturated` and `wall-clock` on cache warmth.
        && spec.timeout_ms.is_none()
}

fn handle_submit(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    program_text: &str,
    overrides: &SubmitOverrides,
    want_stream: bool,
    fresh: bool,
) -> bool {
    if shared.shutdown.load(Ordering::Acquire) {
        return send_line(stream, &error_response("shutting-down", "server is shutting down"))
            .is_ok();
    }
    let program = match Program::parse(program_text) {
        Ok(p) => p,
        Err(e) => {
            return send_line(stream, &error_response("parse", &e.to_string())).is_ok();
        }
    };
    let spec = effective_spec(&shared.config.defaults, overrides);

    // Result cache: a compatible saturated run answers without chasing.
    if !fresh {
        let key = (program_fingerprint(&program), spec.variant.name().to_string());
        let hit = lock(&shared.cache).get(&key).filter(|c| cache_serves(c, &spec)).cloned();
        if let Some(cached) = hit {
            shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            let resp = protocol::response(
                true,
                &[
                    ("cached", Value::Num(1)),
                    ("state", Value::Str("done".into())),
                    ("outcome", Value::Str(cached.outcome.clone())),
                    ("applications", Value::Num(cached.applications)),
                    ("atoms", Value::Num(cached.atoms)),
                    ("nulls", Value::Num(cached.nulls)),
                ],
            );
            return send_line(stream, &resp).is_ok();
        }
    }

    // Admission: one exact check-persist-enqueue critical section. The
    // lock is released before any streaming so admission never blocks on
    // a slow client.
    let admitted: Result<(String, Option<mpsc::Receiver<String>>), String> = {
        let _admit = lock(&shared.admission);
        let active = shared.active_jobs();
        if active >= shared.config.queue_capacity {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            Err(protocol::response(
                false,
                &[
                    ("error", Value::Str("overloaded".into())),
                    ("active", Value::Num(active as u64)),
                    ("capacity", Value::Num(shared.config.queue_capacity as u64)),
                ],
            ))
        } else {
            let id = format!("job-{}", shared.next_seq.fetch_add(1, Ordering::Relaxed));
            match shared.store.create_job(&id, program_text, &spec) {
                Err(e) => {
                    let _ = remove_unadmitted(shared, &id);
                    Err(error_response("store-io", &format!("cannot persist job: {e}")))
                }
                Ok(_) => {
                    // The admit crash window: the job is durable but not
                    // yet acknowledged. An injected exit here must leave a
                    // job the restart scan runs.
                    if let Err(e) = failpoint::trip_io(points::SERVE_ADMIT) {
                        let _ = remove_unadmitted(shared, &id);
                        Err(error_response("store-io", &format!("cannot admit job: {e}")))
                    } else {
                        let (tx, rx) = if want_stream {
                            let (tx, rx) = mpsc::channel();
                            (Some(tx), Some(rx))
                        } else {
                            (None, None)
                        };
                        lock(&shared.jobs).insert(
                            id.clone(),
                            JobEntry {
                                phase: Phase::Queued,
                                cancel: CancelToken::new(),
                                user_cancelled: false,
                                stream: tx,
                            },
                        );
                        lock(&shared.queue).push_back(id.clone());
                        shared.queue_cv.notify_one();
                        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
                        Ok((id, rx))
                    }
                }
            }
        }
    };
    match admitted {
        Err(resp) => send_line(stream, &resp).is_ok(),
        Ok((id, rx)) => {
            let resp = protocol::response(
                true,
                &[("job", Value::Str(id.clone())), ("state", Value::Str("queued".into()))],
            );
            if send_line(stream, &resp).is_err() {
                return false;
            }
            match rx {
                Some(rx) => stream_job(shared, stream, &id, rx),
                None => true,
            }
        }
    }
}

/// Derives a new job from an existing one: loads the referenced job's
/// program text from the store, applies the edit script to its base facts
/// ([`parse_edit_script`] + [`edited_program`]), and admits the edited
/// program through the ordinary submission path — same admission cap,
/// same durability, same result cache. The derived job re-chases from
/// scratch: derivation DAGs are not persisted, so the in-place DRed
/// repair cannot outlive the process, and the from-scratch chase of the
/// edited program is the canonical state every repair is checked against
/// anyway (see `incremental`).
fn handle_update(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    job: &str,
    script: &str,
    overrides: &SubmitOverrides,
    want_stream: bool,
) -> bool {
    if !is_job_id(job) {
        let resp = protocol::response(
            false,
            &[("error", Value::Str("unknown-job".into())), ("job", Value::Str(job.into()))],
        );
        return send_line(stream, &resp).is_ok();
    }
    let stored = match shared.store.load_job(job) {
        Ok(s) => s,
        Err(_) => {
            let resp = protocol::response(
                false,
                &[("error", Value::Str("unknown-job".into())), ("job", Value::Str(job.into()))],
            );
            return send_line(stream, &resp).is_ok();
        }
    };
    let mut program = match Program::parse(&stored.program_text) {
        Ok(p) => p,
        Err(e) => {
            let resp =
                error_response("parse", &format!("stored program no longer parses: {e}"));
            return send_line(stream, &resp).is_ok();
        }
    };
    let edits = match parse_edit_script(script, &mut program) {
        Ok(e) => e,
        Err(e) => {
            return send_line(stream, &error_response("edit-script", &e.to_string())).is_ok();
        }
    };
    let edited = edited_program(&program, &edits);
    let edited_text = program_to_string(&edited);
    handle_submit(shared, stream, &edited_text, overrides, want_stream, false)
}

/// Removes a job directory that failed before acknowledgement; best
/// effort, and never silent: a leftover directory without `meta` is
/// reported by the next scan as discarded, not run.
fn remove_unadmitted(shared: &Arc<Shared>, id: &str) -> std::io::Result<()> {
    std::fs::remove_dir_all(shared.store.job_dir(id))
}

/// Streams trace lines to the submitting client until the job's sink
/// closes, then sends the terminal response. The client reads event lines
/// (each has a `type` field) until the line with an `ok` field.
fn stream_job(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    id: &str,
    rx: mpsc::Receiver<String>,
) -> bool {
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(line) => {
                if send_line(stream, &line).is_err() {
                    // Client gone: drain silently so the job finishes.
                    while rx.recv().is_ok() {}
                    return false;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    let _ = send_line(
                        stream,
                        &error_response("shutting-down", "server is shutting down"),
                    );
                    return false;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    handle_wait(shared, stream, id)
}

fn job_response(shared: &Arc<Shared>, id: &str) -> String {
    {
        let jobs = lock(&shared.jobs);
        if let Some(entry) = jobs.get(id) {
            let mut fields: Vec<(&str, Value)> = vec![("job", Value::Str(id.into()))];
            match &entry.phase {
                Phase::Queued => fields.push(("state", Value::Str("queued".into()))),
                Phase::Running => fields.push(("state", Value::Str("running".into()))),
                Phase::Done(result) => {
                    fields.push(("state", Value::Str("done".into())));
                    fields.push(("outcome", Value::Str(result.outcome.clone())));
                    fields.push(("applications", Value::Num(result.applications)));
                    fields.push(("atoms", Value::Num(result.atoms)));
                    fields.push(("nulls", Value::Num(result.nulls)));
                }
                Phase::Failed(msg) => {
                    fields.push(("state", Value::Str("failed".into())));
                    fields.push(("detail", Value::Str(msg.clone())));
                }
                Phase::Interrupted => {
                    fields.push(("state", Value::Str("interrupted".into())));
                    fields.push((
                        "detail",
                        Value::Str(
                            "interrupted by server shutdown; \
                             still in flight on disk, recovers on restart"
                                .into(),
                        ),
                    ));
                }
            }
            return protocol::response(true, &fields);
        }
    }
    // Not in memory: a completed job evicted by terminal retention (or
    // finished before a restart) still answers from its on-disk result
    // marker. The id is validated as one of ours before it touches a path.
    if is_job_id(id) {
        if let Ok(Some(result)) = shared.store.read_result(id) {
            return protocol::response(
                true,
                &[
                    ("job", Value::Str(id.into())),
                    ("state", Value::Str("done".into())),
                    ("outcome", Value::Str(result.outcome.clone())),
                    ("applications", Value::Num(result.applications)),
                    ("atoms", Value::Num(result.atoms)),
                    ("nulls", Value::Num(result.nulls)),
                ],
            );
        }
    }
    protocol::response(
        false,
        &[("error", Value::Str("unknown-job".into())), ("job", Value::Str(id.into()))],
    )
}

/// Whether a client-supplied job id has the `job-<seq>` shape the store
/// generates — anything else never reaches the filesystem.
fn is_job_id(id: &str) -> bool {
    id.strip_prefix("job-")
        .is_some_and(|n| !n.is_empty() && n.len() <= 20 && n.bytes().all(|b| b.is_ascii_digit()))
}

fn handle_wait(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> bool {
    let mut jobs = lock(&shared.jobs);
    loop {
        match jobs.get(id) {
            None => break,
            Some(entry)
                if matches!(
                    entry.phase,
                    Phase::Done(_) | Phase::Failed(_) | Phase::Interrupted
                ) =>
            {
                break
            }
            Some(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    drop(jobs);
                    return send_line(
                        stream,
                        &error_response("shutting-down", "server is shutting down"),
                    )
                    .is_ok();
                }
                jobs = shared
                    .done_cv
                    .wait_timeout(jobs, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }
    drop(jobs);
    let resp = job_response(shared, id);
    send_line(stream, &resp).is_ok()
}

fn handle_cancel(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> bool {
    let resp = {
        let mut jobs = lock(&shared.jobs);
        match jobs.get_mut(id) {
            None => protocol::response(
                false,
                &[("error", Value::Str("unknown-job".into())), ("job", Value::Str(id.into()))],
            ),
            Some(entry) => {
                entry.user_cancelled = true;
                entry.cancel.cancel();
                protocol::response(
                    true,
                    &[("job", Value::Str(id.into())), ("cancelling", Value::Num(1))],
                )
            }
        }
    };
    send_line(stream, &resp).is_ok()
}

fn stats_response(shared: &Arc<Shared>) -> String {
    let queued = lock(&shared.queue).len() as u64;
    let running = lock(&shared.jobs)
        .values()
        .filter(|e| matches!(e.phase, Phase::Running))
        .count() as u64;
    protocol::response(
        true,
        &[
            ("submitted", Value::Num(shared.counters.submitted.load(Ordering::Relaxed))),
            ("completed", Value::Num(shared.counters.completed.load(Ordering::Relaxed))),
            ("failed", Value::Num(shared.counters.failed.load(Ordering::Relaxed))),
            ("rejected", Value::Num(shared.counters.rejected.load(Ordering::Relaxed))),
            ("cache_hits", Value::Num(shared.counters.cache_hits.load(Ordering::Relaxed))),
            ("recovered", Value::Num(shared.recovered.len() as u64)),
            ("queued", Value::Num(queued)),
            ("running", Value::Num(running)),
        ],
    )
}
