//! Crash/recovery differentials for the real `chasekit serve` process.
//!
//! The headline guarantee: **kill the server process at any injected
//! server-side fault point — or with a genuine SIGKILL — restart it on the
//! same store, and every admitted job completes with a final snapshot
//! bit-identical to an uninterrupted solo CLI run.** The in-process
//! behavioural suite lives in `tests/serve.rs`; everything here spawns the
//! actual binary and real processes die.
//!
//! Each spawned server is armed through `CHASEKIT_FAILPOINTS`, so no
//! in-process failpoint lock is needed; tests still run fine with
//! `RUST_TEST_THREADS=1` (the CI `serve-recovery` job does, mirroring
//! `crash-recovery`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chasekit::engine::serve::{run_job, JobSpec};
use chasekit::engine::{crc32, CancelToken, ChaseConfig, ChaseMachine};
use chasekit::prelude::*;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_chasekit")
}

/// A scratch directory unique to this test, cleaned before use.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("chasekit-serve-recovery-{}", std::process::id()))
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const DIVERGING: &str = "person(bob). person(X) -> hasFather(X, Y), person(Y).\n";

/// A spawned `chasekit serve` process plus its startup banner.
struct Server {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Server {
    /// Spawns `chasekit serve --store <store> --checkpoint-every 25`,
    /// optionally armed with a failpoint spec, and reads the (explicitly
    /// flushed) `listening on ADDR` banner.
    fn spawn(store: &Path, failpoints: Option<&str>) -> Server {
        let mut cmd = Command::new(bin());
        cmd.args(["serve", "--store", store.to_str().unwrap(), "--checkpoint-every", "25"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        match failpoints {
            Some(spec) => cmd.env("CHASEKIT_FAILPOINTS", spec),
            None => cmd.env_remove("CHASEKIT_FAILPOINTS"),
        };
        let mut child = cmd.spawn().unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).unwrap();
        let addr = banner
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .trim()
            .to_string();
        Server { child, stdout, addr }
    }

    /// Reads the next `recovered <job>` banner line.
    fn read_recovered(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).unwrap();
        line.strip_prefix("recovered ")
            .unwrap_or_else(|| panic!("expected a recovered banner, got {line:?}"))
            .trim()
            .to_string()
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(&self.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn { stream, reader }
    }

    /// Waits for the process to exit on its own (an injected kill),
    /// panicking if it outlives the deadline.
    fn wait_for_death(&mut self, deadline: Duration) -> i32 {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status.code().unwrap_or(-1);
            }
            assert!(start.elapsed() < deadline, "server outlived the injected kill");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Politely shuts the server down via the protocol and reaps it.
    fn shutdown(mut self) {
        let mut c = self.connect();
        let _ = c.send(r#"{"op":"shutdown"}"#);
        let _ = c.read_line();
        let status = self.child.wait().unwrap();
        assert!(status.success(), "shutdown exit: {status:?}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Never leak a server process past a failed assertion.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection; reads are fallible because half these tests
/// kill the server while the client is blocked on it.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Reads one response line; `None` when the server died on us.
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 && line.ends_with('\n') => {
                line.pop();
                Some(line)
            }
            _ => None,
        }
    }
}

/// Extracts `"key":"value"` from a flat JSON response line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

fn field_num(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    line[start..].split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// Submits the diverging program for `steps` applications (cache
/// bypassed) and returns the acknowledged job id, or `None` if the server
/// died before acknowledging.
fn submit(c: &mut Conn, steps: u64) -> Option<String> {
    let program = DIVERGING.trim_end().replace('\n', "\\n");
    c.send(&format!(r#"{{"op":"submit","program":"{program}","steps":{steps},"fresh":1}}"#))
        .ok()?;
    let resp = c.read_line()?;
    field(&resp, "job").map(str::to_string)
}

/// The uninterrupted reference: a solo CLI `chase` run of the same
/// program and budget, returning its checkpoint bytes.
fn solo_reference(dir: &Path, steps: u64) -> String {
    let rules = dir.join("ref.rules");
    std::fs::write(&rules, DIVERGING).unwrap();
    let ckpt = dir.join("ref.ckpt");
    let out = Command::new(bin())
        .env_remove("CHASEKIT_FAILPOINTS")
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--steps",
            &steps.to_string(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(10), "reference run hits the application budget");
    std::fs::read_to_string(&ckpt).unwrap()
}

/// Waits for `job` to complete on a restarted server and asserts its
/// final snapshot is bit-identical to the solo reference.
fn finish_and_compare(server: &Server, store: &Path, job: &str, steps: u64, want: &str) {
    let mut c = server.connect();
    c.send(&format!(r#"{{"op":"wait","job":"{job}"}}"#)).unwrap();
    let done = c.read_line().expect("restarted server answers the wait");
    assert_eq!(field(&done, "state"), Some("done"), "{job}: {done}");
    assert_eq!(field(&done, "outcome"), Some("applications"), "{job}: {done}");
    assert_eq!(field_num(&done, "applications"), Some(steps), "{job}: {done}");
    let got = std::fs::read_to_string(store.join(job).join("state.ckpt")).unwrap();
    assert_eq!(got, want, "{job}: recovered final snapshot diverged from the solo run");
}

// ---------------------------------------------------------------------------
// Kill at every server-side failpoint, restart, compare.
// ---------------------------------------------------------------------------

/// Injected-kill plans covering every server-side crash window: the admit
/// window (job durable, client un-acked), the snapshot sites inside the
/// job's durable loop, and the result window (final snapshot written,
/// result marker not). Hit 1 of the snapshot sites is the admission `meta`
/// write, which shares the atomic-publication code path (its own kill is
/// `kill_before_admission_marker_discards_the_directory`); hits 2–4 are the
/// job's first three leg publications, so kills land with no working
/// snapshot yet and with one, two or three legs published.
const KILL_PLANS: &[&str] = &[
    "serve.admit=exit:9",
    "snapshot.write=exit:9@2",
    "snapshot.write=exit:9@3",
    "snapshot.write=exit:9@4",
    "snapshot.rename=exit:9@2",
    "snapshot.rename=exit:9@3",
    "serve.result=exit:9",
];

#[test]
fn kill_at_every_server_failpoint_recovers_bit_identical() {
    const STEPS: u64 = 120;
    let dir = scratch("failpoint-kills");
    let want = solo_reference(&dir, STEPS);

    for plan in KILL_PLANS {
        let store = dir.join(plan.replace(['=', ':', '@', '.'], "-"));
        let mut server = Server::spawn(&store, Some(plan));
        let mut c = server.connect();

        // The submission drives the server into the armed fault. For the
        // admit-window plan the ack never arrives; for the others the job
        // is acknowledged and dies mid-run while we wait on it.
        match submit(&mut c, STEPS) {
            None => {}
            Some(job) => {
                let _ = c.send(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
                let _ = c.read_line(); // EOF when the kill lands
            }
        }
        let code = server.wait_for_death(Duration::from_secs(30));
        assert_eq!(code, 9, "`{plan}` must kill the server");
        drop(server);

        // Restart on the same store: the scan must hand the admitted job
        // back to the pool, announce it, and complete it identically.
        let mut server = Server::spawn(&store, None);
        let job = server.read_recovered();
        finish_and_compare(&server, &store, &job, STEPS, &want);
        server.shutdown();
    }
}

/// The name is kept from the journal, whose re-base after recovery this
/// test guarded. The double-kill window is now: the first kill lands
/// mid-job with one leg published, and the second lands on the very first
/// publication after the restart, leaving a torn `state.ckpt.tmp` beside
/// the same working snapshot. The third start must still resume it and
/// finish bit-identical.
#[test]
fn kill_again_right_after_recovery_rebase_still_recovers() {
    const STEPS: u64 = 120;
    let dir = scratch("double-kill");
    let want = solo_reference(&dir, STEPS);
    let store = dir.join("store");

    // Kill 1: with --checkpoint-every 25, hit 3 is the job's second leg
    // publication (hit 1 is the admission `meta`): the working snapshot
    // holds 25 applications. The job is admitted before the kill, but the
    // kill can beat the acknowledgement to the client; the first job of a
    // fresh store is `job-0` either way.
    let mut server = Server::spawn(&store, Some("snapshot.write=exit:9@3"));
    let mut c = server.connect();
    let job = "job-0".to_string();
    if let Some(acked) = submit(&mut c, STEPS) {
        assert_eq!(acked, job);
        let _ = c.send(&format!(r#"{{"op":"wait","job":"{job}"}}"#));
        let _ = c.read_line();
    }
    assert_eq!(server.wait_for_death(Duration::from_secs(30)), 9);
    drop(server);
    assert!(store.join(&job).join("state.ckpt").exists(), "kill 1 left leg 1 published");

    // Kill 2: the restarted server resumes the job and dies on its first
    // publication, before any new leg lands. That can happen before the
    // startup banners are printed, so only the exit code is checked.
    let mut child = Command::new(bin())
        .args(["serve", "--store", store.to_str().unwrap(), "--checkpoint-every", "25"])
        .env("CHASEKIT_FAILPOINTS", "snapshot.write=exit:9@1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > Duration::from_secs(30) {
            let _ = child.kill();
            panic!("server outlived the injected kill");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(9));
    assert!(store.join(&job).join("state.ckpt.tmp").exists(), "kill 2 left a torn tmp");

    // Third start: the twice-killed job still recovers, completes, and is
    // bit-identical to the uninterrupted solo run.
    let mut server = Server::spawn(&store, None);
    assert_eq!(server.read_recovered(), job);
    finish_and_compare(&server, &store, &job, STEPS, &want);
    server.shutdown();
}

/// A job directory left by an older server, whose durable loop also kept
/// a write-ahead journal: `meta` carries a `flush-every` line and
/// `state.journal` runs past `state.ckpt`. Restarting on it resumes the
/// snapshot, ignores the journal, and completes the job bit-identical to
/// a solo `run_job`.
#[test]
fn older_job_directory_with_a_journal_restarts_bit_identical() {
    const STEPS: u64 = 120;
    let dir = scratch("older-format");
    std::fs::create_dir_all(dir.join("solo")).unwrap();
    let program = Program::parse(DIVERGING).unwrap();
    run_job(
        &program,
        &JobSpec { steps: STEPS, checkpoint_every: 25, ..JobSpec::server_default() },
        &dir.join("solo"),
        CancelToken::new(),
        None,
    )
    .unwrap();
    let want = std::fs::read_to_string(dir.join("solo").join("state.ckpt")).unwrap();

    // The job as the older server left it: snapshot at 25 applications,
    // journal records 1..=40.
    let job_dir = dir.join("store").join("job-0");
    std::fs::create_dir_all(&job_dir).unwrap();
    std::fs::write(job_dir.join("program.rules"), DIVERGING).unwrap();
    std::fs::write(
        job_dir.join("meta"),
        "chasekit-job v1\nvariant semi-oblivious\nsteps 120\ntimeout-ms none\n\
         max-atoms none\nmax-memory none\ncheckpoint-every 25\nflush-every 1\n",
    )
    .unwrap();
    let mut m = ChaseMachine::new(
        &program,
        ChaseConfig::of(ChaseVariant::SemiOblivious),
        Instance::from_atoms(program.facts().iter().cloned()),
    );
    let mut journal =
        "chasekit-journal v1\nprogram 0000000000000000\nvariant semi-oblivious\nbase 0\n"
            .to_string();
    for _ in 0..40 {
        m.step().unwrap();
        if m.stats().applications == 25 {
            std::fs::write(job_dir.join("state.ckpt"), m.snapshot().to_text().unwrap()).unwrap();
        }
        let payload = format!(
            "r {} {} {}",
            m.stats().applications,
            m.instance().len(),
            m.instance().null_count()
        );
        journal.push_str(&format!("{payload} {:08x}\n", crc32(payload.as_bytes())));
    }
    std::fs::write(job_dir.join("state.journal"), journal).unwrap();

    let store = dir.join("store");
    let mut server = Server::spawn(&store, None);
    assert_eq!(server.read_recovered(), "job-0");
    finish_and_compare(&server, &store, "job-0", STEPS, &want);
    server.shutdown();
}

/// A kill *before* the `meta` marker lands (the very first atomic write of
/// admission) leaves an unadmitted directory: the client was never acked,
/// so the restart scan must discard it — and must not replay it as a job.
#[test]
fn kill_before_admission_marker_discards_the_directory() {
    let dir = scratch("pre-admission-kill");
    let store = dir.join("store");
    let mut server = Server::spawn(&store, Some("snapshot.write=exit:9@1"));
    let mut c = server.connect();
    assert_eq!(submit(&mut c, 50), None, "the kill lands before the ack");
    assert_eq!(server.wait_for_death(Duration::from_secs(30)), 9);
    drop(server);

    let server = Server::spawn(&store, None);
    // No recovered banner: the directory was never admitted. The next
    // submission works and does not collide with the discarded sequence
    // number.
    let mut c = server.connect();
    let job = submit(&mut c, 50).expect("a fresh server admits");
    c.send(&format!(r#"{{"op":"wait","job":"{job}"}}"#)).unwrap();
    let done = c.read_line().unwrap();
    assert_eq!(field(&done, "state"), Some("done"), "{done}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The real thing: SIGKILL mid-job, restart, compare.
// ---------------------------------------------------------------------------

#[test]
fn sigkill_mid_job_recovers_bit_identical_on_restart() {
    const STEPS: u64 = 8_000;
    let dir = scratch("sigkill");
    let store = dir.join("store");

    let mut server = Server::spawn(&store, None);
    let mut c = server.connect();
    let job = submit(&mut c, STEPS).expect("submission is acknowledged");

    // Let the job get properly mid-flight (several snapshot legs in),
    // then kill the whole server process without ceremony.
    std::thread::sleep(Duration::from_millis(350));
    server.child.kill().unwrap();
    server.child.wait().unwrap();
    drop(server);

    // The store must hold an in-flight job: meta, some durable state, no
    // result marker.
    assert!(store.join(&job).join("meta").exists(), "admitted job survived on disk");
    assert!(
        !store.join(&job).join("result").exists(),
        "a SIGKILL mid-run cannot have published a result"
    );

    let want = solo_reference(&dir, STEPS);
    let mut server = Server::spawn(&store, None);
    let recovered = server.read_recovered();
    assert_eq!(recovered, job, "the killed job is the one recovered");
    finish_and_compare(&server, &store, &job, STEPS, &want);

    // And the result marker now exists: the job is complete, not lost.
    assert!(store.join(&job).join("result").exists());
    server.shutdown();
}
