//! Crash/recovery differential suite for the durability layer.
//!
//! The headline guarantee under test: **kill the chase at any injected
//! fault point, resume the last published snapshot (or start from genesis
//! when none was published), continue — and the final state is
//! bit-identical to a run that never crashed**, for every corpus program
//! and all three chase variants.
//! "Bit-identical" is checkpoint-text equality (instance, queue, identity
//! set, RNG state, counters — hence also the trace `core_seq`), plus
//! derivation-DAG and Skolem-ancestry equality for tracked runs, plus
//! trace-stream suffix equality for the resumed continuation.
//!
//! Durability is atomic snapshots + determinism: after a kill the disk
//! holds no snapshot or the one published after some leg, possibly beside
//! a torn `<path>.tmp`. The `snapshot.write`/`snapshot.rename` failpoints
//! at successive hit counts reach every one of those states.
//!
//! Failpoint state is process-global, so every in-process test that arms
//! one — or runs code with failpoint sites — serializes on
//! [`FAILPOINT_LOCK`]. The spawned-binary tests pass the spec through
//! `CHASEKIT_FAILPOINTS` instead and need no lock.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;

use chasekit::engine::serve::{run_job, JobSpec};
use chasekit::engine::{
    crc32, failpoint, publish_snapshot, run_durable, CancelToken, ChaseConfig, ChaseMachine,
    Checkpoint, CheckpointError, JsonlSink, StopReason, TraceSink,
};
use chasekit::prelude::*;

const VARIANTS: [ChaseVariant; 3] =
    [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted];

/// Serializes tests that arm process-global failpoints.
static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

fn failpoint_guard() -> MutexGuard<'static, ()> {
    FAILPOINT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The chase's initial instance for a program: its facts, or the critical
/// instance when it carries none.
fn seed(program: &mut Program) -> Instance {
    if program.facts().is_empty() {
        CriticalInstance::build(program).instance
    } else {
        Instance::from_atoms(program.facts().iter().cloned())
    }
}

fn state_text(m: &ChaseMachine<'_>) -> String {
    m.snapshot().to_text().expect("untracked runs serialize")
}

/// A scratch directory unique to this test, cleaned before use.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("chasekit-crash-recovery-{}", std::process::id()))
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn budget(total: u64) -> Budget {
    Budget::applications(total).with_atoms(4_000)
}

/// Drives a durable run the way the CLI does — [`run_durable`] with a
/// snapshot every `every` applications, then a final publication —
/// abandoning everything at the first durability casualty. Whatever the
/// files hold at that moment is exactly what a killed process leaves
/// behind.
fn durable_run_until_crash(
    program: &Program,
    variant: ChaseVariant,
    initial: &Instance,
    every: u64,
    total: u64,
    ckpt: &Path,
) {
    let mut machine = ChaseMachine::new(program, ChaseConfig::of(variant), initial.clone());
    let (stop, _) = run_durable(&mut machine, &budget(total), every, Some(ckpt));
    if stop != StopReason::Io {
        // The fault never landed in a periodic publication: publish the
        // final state (which may itself be the casualty).
        let _ = publish_snapshot(&mut machine, ckpt);
    }
}

/// The recovery procedure: resume the published snapshot, or start from
/// genesis when none was ever published. Nothing else on disk is read.
fn resume_or_genesis<'p>(
    program: &'p Program,
    variant: ChaseVariant,
    initial: &Instance,
    ckpt: &Path,
) -> ChaseMachine<'p> {
    match std::fs::read_to_string(ckpt) {
        Ok(text) => Checkpoint::from_text(&text)
            .and_then(|c| c.resume(program))
            .expect("a published snapshot is always whole"),
        Err(_) => ChaseMachine::new(program, ChaseConfig::of(variant), initial.clone()),
    }
}

/// Recovers from whatever `durable_run_until_crash` left on disk and runs
/// to `total`; returns the final state text.
fn recover_and_finish(
    program: &Program,
    variant: ChaseVariant,
    initial: &Instance,
    total: u64,
    ckpt: &Path,
) -> String {
    let mut machine = resume_or_genesis(program, variant, initial, ckpt);
    machine.run(&budget(total));
    state_text(&machine)
}

/// Every failpoint the durability layer exposes, armed at hits 1–4: with
/// snapshots every 25 applications of a 120-application run, the hits are
/// the publications after legs 1–4, so a fault lands at every leg, as an
/// I/O error, a torn temporary file, or a failed rename.
const FAULT_PLANS: &[&str] = &[
    "snapshot.write=error@1",
    "snapshot.write=error@2",
    "snapshot.write=error@3",
    "snapshot.write=error@4",
    "snapshot.write=short:40@1",
    "snapshot.write=short:40@2",
    "snapshot.write=short:40@3",
    "snapshot.rename=error@1",
    "snapshot.rename=error@2",
    "snapshot.rename=error@3",
    "snapshot.rename=error@4",
];

/// Runs the kill-at-every-failpoint differential for one program and
/// variant at snapshot cadence `every`.
fn assert_recovers_at_every_failpoint(
    name: &str,
    program: &Program,
    variant: ChaseVariant,
    initial: &Instance,
    every: u64,
    dir: &Path,
) {
    const TOTAL: u64 = 120;
    let ckpt = dir.join("state.ckpt");
    failpoint::clear();
    let mut reference = ChaseMachine::new(program, ChaseConfig::of(variant), initial.clone());
    reference.run(&budget(TOTAL));
    let want = state_text(&reference);

    for plan in FAULT_PLANS {
        let _ = std::fs::remove_file(&ckpt);
        failpoint::configure(plan).unwrap();
        durable_run_until_crash(program, variant, initial, every, TOTAL, &ckpt);
        failpoint::clear();
        let got = recover_and_finish(program, variant, initial, TOTAL, &ckpt);
        assert_eq!(want, got, "{name}: {variant:?} diverged after `{plan}`, every {every}");
    }
}

/// The headline differential: corpus (which includes paper Examples 1–2)
/// × all variants × every failpoint. Crash, recover,
/// continue — final checkpoint text must equal the uninterrupted run's.
#[test]
fn kill_at_every_failpoint_recovers_bit_identical() {
    let _g = failpoint_guard();
    let dir = scratch("differential");
    for family in chasekit::datagen::corpus() {
        let mut program = family.program;
        let initial = seed(&mut program);
        for variant in VARIANTS {
            assert_recovers_at_every_failpoint(&family.name, &program, variant, &initial, 25, &dir);
        }
    }
}

/// The name is kept from the journal's group-commit sweep, which this
/// replaces: the same kill-at-every-failpoint differential at the extreme
/// snapshot cadences — a publication after every application, and one
/// every 64 — on a reduced corpus slice.
#[test]
fn group_commit_kill_at_every_failpoint_recovers_bit_identical() {
    let _g = failpoint_guard();
    let dir = scratch("cadence-differential");
    for family in chasekit::datagen::corpus().into_iter().take(4) {
        let mut program = family.program;
        let initial = seed(&mut program);
        for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Restricted] {
            for every in [1u64, 64] {
                assert_recovers_at_every_failpoint(
                    &family.name,
                    &program,
                    variant,
                    &initial,
                    every,
                    &dir,
                );
            }
        }
    }
}

/// Derivation-DAG and Skolem-ancestry identity across an interrupt: a
/// tracked run cut at an in-memory snapshot boundary and resumed must
/// produce the same DAG (every edge, parent set, frontier) and the same
/// cyclic-Skolem witness as a straight run. (Text checkpoints exclude
/// tracking by design, so the crash cut here is the in-memory snapshot —
/// the same state the file recovery rebuilds for untracked runs.)
#[test]
fn derivation_and_ancestry_survive_interrupt_resume() {
    for (label, text) in [
        ("example-1", "person(bob). person(X) -> hasFather(X, Y), person(Y)."),
        ("example-2", "p(a, b). p(X, Y) -> p(Y, Z)."),
    ] {
        let mut program = Program::parse(text).unwrap();
        let initial = seed(&mut program);
        for variant in VARIANTS {
            let cfg = ChaseConfig::of(variant).with_derivation().with_skolem();
            let mut straight = ChaseMachine::new(&program, cfg, initial.clone());
            straight.run(&budget(90));

            for cut in [1u64, 13, 50, 89] {
                let mut first = ChaseMachine::new(&program, cfg, initial.clone());
                first.run(&budget(cut));
                let snap = first.snapshot();
                let mut resumed = snap.resume(&program).unwrap();
                resumed.run(&budget(90));
                assert_eq!(
                    format!("{:?}", straight.derivation()),
                    format!("{:?}", resumed.derivation()),
                    "{label}: {variant:?} DAG diverged at cut {cut}"
                );
                assert_eq!(
                    straight.skolem_cyclic(),
                    resumed.skolem_cyclic(),
                    "{label}: {variant:?} skolem witness at cut {cut}"
                );
                assert_eq!(straight.stats(), resumed.stats(), "{label}: {variant:?} stats");
            }
        }
    }
}

/// A `Write` target readable after the owning machine is dropped.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The resumed continuation's trace is a byte-exact *suffix* of the
/// uninterrupted run's trace: sequence numbers resume contiguously and
/// every core event matches (`core_seq` composes across a crash exactly
/// as it does across checkpoint resume).
#[test]
fn recovered_continuation_traces_a_suffix_of_the_uninterrupted_trace() {
    let _g = failpoint_guard();
    let dir = scratch("trace-suffix");
    let ckpt = dir.join("t.ckpt");
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);

    for variant in VARIANTS {
        // Uninterrupted traced reference.
        failpoint::clear();
        let reference = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let sink: Box<dyn TraceSink> = Box::new(JsonlSink::new(reference.clone(), &program));
        let mut machine =
            ChaseMachine::new_with_trace(&program, ChaseConfig::of(variant), initial.clone(), sink);
        machine.run(&budget(80));
        machine.flush_trace();
        let want = String::from_utf8(reference.0.lock().unwrap().clone()).unwrap();

        // Crash an (untraced) durable run at its second publication, resume
        // the first, then trace only the continuation.
        let _ = std::fs::remove_file(&ckpt);
        failpoint::configure("snapshot.write=error@2").unwrap();
        durable_run_until_crash(&program, variant, &initial, 20, 80, &ckpt);
        failpoint::clear();

        let mut recovered = resume_or_genesis(&program, variant, &initial, &ckpt);
        assert_eq!(recovered.stats().applications, 20, "{variant:?}: the fault must have landed");
        let cont = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        recovered.set_trace_sink(Box::new(JsonlSink::new(cont.clone(), &program)));
        recovered.run(&budget(80));
        recovered.flush_trace();
        let got = String::from_utf8(cont.0.lock().unwrap().clone()).unwrap();

        assert!(!got.is_empty(), "{variant:?}: continuation must trace something");
        assert!(
            want.ends_with(&got),
            "{variant:?}: continuation trace is not a suffix of the reference\n\
             reference tail:\n{}\ncontinuation head:\n{}",
            &want[want.len().saturating_sub(400)..],
            &got[..got.len().min(400)]
        );
    }
}

/// The name is kept from the journal, whose append failures this test
/// covered. A failed periodic publication stops [`run_durable`] with
/// [`StopReason::Io`] at the leg boundary and the named error, leaving
/// the machine consistent and the earlier snapshot intact.
#[test]
fn journal_failure_stops_with_io_at_a_boundary() {
    let _g = failpoint_guard();
    let dir = scratch("io-stop");
    let ckpt = dir.join("io.ckpt");
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);
    let cfg = ChaseConfig::of(ChaseVariant::Oblivious);

    failpoint::configure("snapshot.rename=error@2").unwrap();
    let mut machine = ChaseMachine::new(&program, cfg, initial.clone());
    let (stop, err) = run_durable(&mut machine, &budget(100), 10, Some(&ckpt));
    failpoint::clear();
    assert_eq!(stop, StopReason::Io);
    let err = err.expect("an Io stop names its error");
    assert!(err.contains("snapshot.rename") && err.contains("io.ckpt"), "{err}");
    assert_eq!(machine.stats().applications, 20, "stopped at the failed leg's boundary");

    // The machine is still consistent: it snapshots, resumes, and runs on
    // exactly like an uninterrupted run.
    let mut resumed =
        Checkpoint::from_text(&state_text(&machine)).unwrap().resume(&program).unwrap();
    resumed.run(&budget(100));
    let mut straight = ChaseMachine::new(&program, cfg, initial.clone());
    straight.run(&budget(100));
    assert_eq!(state_text(&resumed), state_text(&straight));

    // The snapshot published after leg 1 is untouched.
    let mut leg1 = ChaseMachine::new(&program, cfg, initial);
    leg1.run(&budget(10));
    assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), state_text(&leg1));
}

/// A job directory's snapshot file, which holds the final state once
/// [`run_job`] returns.
fn job_state(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("state.ckpt")).unwrap()
}

/// The job spec the corruption and torn-tmp tests resume through: the
/// server's runner over Example 1, oblivious, 30 applications.
fn example1_job(every: u64) -> JobSpec {
    JobSpec {
        variant: ChaseVariant::Oblivious,
        steps: 30,
        checkpoint_every: every,
        ..JobSpec::server_default()
    }
}

/// The name is kept from the journal's tail scanner, which this replaces:
/// where the journal refused to lose an unreplayed tail, snapshot-only
/// recovery must ignore the torn `<ckpt>.tmp` a failed publication leaves
/// behind — whether a published snapshot sits beside it or none does.
#[test]
fn needs_recovery_spots_unreplayed_tails() {
    let _g = failpoint_guard();
    failpoint::clear();
    let program = Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let reference = scratch("tmp-reference");
    run_job(&program, &example1_job(0), &reference, CancelToken::new(), None).unwrap();
    let want = job_state(&reference);

    // A torn second publication: state.ckpt holds leg 1, state.ckpt.tmp
    // the first 40 bytes of leg 2.
    let dir = scratch("torn-tmp");
    failpoint::configure("snapshot.write=short:40@2").unwrap();
    let crashed = run_job(&program, &example1_job(10), &dir, CancelToken::new(), None).unwrap();
    failpoint::clear();
    assert_eq!(crashed.outcome, StopReason::Io);
    assert!(crashed.io_error.unwrap().contains("snapshot.write"));
    assert_eq!(std::fs::read(dir.join("state.ckpt.tmp")).unwrap().len(), 40);

    let resumed = run_job(&program, &example1_job(10), &dir, CancelToken::new(), None).unwrap();
    assert!(resumed.recovered, "the published snapshot is resumed");
    assert_eq!(resumed.outcome, StopReason::Applications);
    assert_eq!(job_state(&dir), want);

    // Only a torn temporary file, no snapshot: start from genesis.
    let dir = scratch("tmp-only");
    std::fs::write(dir.join("state.ckpt.tmp"), "chasekit-checkpoint v1\ntorn").unwrap();
    let fresh = run_job(&program, &example1_job(10), &dir, CancelToken::new(), None).unwrap();
    assert!(!fresh.recovered, "a temporary file is never resumed");
    assert_eq!(job_state(&dir), want);
}

// ---------------------------------------------------------------------------
// Corruption tolerance: no bytes on disk may panic the recovery path.
// ---------------------------------------------------------------------------

/// Program, reference states by application count, the published snapshot
/// the corruption cases resume, and a journal in the format earlier
/// releases wrote beside it.
type CorruptionFixture = (Program, Vec<String>, String, Vec<u8>);

/// The corruption fixture, built once per process and cloned for each
/// proptest case.
fn corruption_fixture() -> CorruptionFixture {
    static FIXTURE: OnceLock<CorruptionFixture> = OnceLock::new();
    FIXTURE.get_or_init(build_corruption_fixture).clone()
}

/// Reference states for every application count, the snapshot after 12
/// applications, and a journal of records 1..=30 running past it, each
/// record `r <applications> <atoms> <nulls> <crc32>` under a four-line
/// header, as the write-ahead journal used to write them.
fn build_corruption_fixture() -> CorruptionFixture {
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);
    let cfg = ChaseConfig::of(ChaseVariant::Oblivious);

    // state_by_apps[k] = checkpoint text after exactly k applications.
    let mut m = ChaseMachine::new(&program, cfg, initial);
    let mut state_by_apps = vec![state_text(&m)];
    let mut journal =
        "chasekit-journal v1\nprogram 0000000000000000\nvariant oblivious\nbase 0\n".to_string();
    for _ in 0..30 {
        m.step().unwrap();
        state_by_apps.push(state_text(&m));
        let payload = format!(
            "r {} {} {}",
            m.stats().applications,
            m.instance().len(),
            m.instance().null_count()
        );
        journal.push_str(&format!("{payload} {:08x}\n", crc32(payload.as_bytes())));
    }
    let snapshot = state_by_apps[12].clone();
    (program, state_by_apps, snapshot, journal.into_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The name is kept from the journal's corruption proptest. Flip and
    /// truncate arbitrary bytes of an old-format journal and leave them
    /// both as `state.journal` and as a torn `state.ckpt.tmp` beside the
    /// published snapshot: the resumed job must still land exactly on the
    /// uninterrupted run's state. Leftover files never panic and never lie.
    #[test]
    fn corrupted_journals_never_panic_and_never_lie(
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 0..4),
        cut in prop_oneof![Just(None::<usize>), (0usize..4096).prop_map(Some)],
    ) {
        let (program, state_by_apps, snapshot, mut junk) = corruption_fixture();
        for (pos, mask) in flips {
            let idx = pos % junk.len().max(1);
            if let Some(b) = junk.get_mut(idx) {
                *b ^= mask;
            }
        }
        if let Some(c) = cut {
            junk.truncate(c % (junk.len() + 1));
        }
        let _g = failpoint_guard();
        failpoint::clear();
        let dir = scratch("leftovers");
        std::fs::write(dir.join("state.ckpt"), &snapshot).unwrap();
        std::fs::write(dir.join("state.ckpt.tmp"), &junk).unwrap();
        std::fs::write(dir.join("state.journal"), &junk).unwrap();
        let report = run_job(&program, &example1_job(0), &dir, CancelToken::new(), None).unwrap();
        prop_assert!(report.recovered);
        prop_assert_eq!(report.applications, 30);
        prop_assert_eq!(&job_state(&dir), &state_by_apps[30]);
    }

    /// Flip and truncate arbitrary bytes of the snapshot: `from_text` (and
    /// hence recovery) must reject every actual change via the CRC trailer
    /// or a structured parse error — never panic, never resume wrong state.
    #[test]
    fn corrupted_snapshots_never_panic_and_never_lie(
        flip_pos in 0usize..8192,
        mask in 1u8..255,
        cut in prop_oneof![Just(None::<usize>), (0usize..8192).prop_map(Some)],
    ) {
        let (program, state_by_apps, snapshot, _) = corruption_fixture();
        let mut bytes = snapshot.clone().into_bytes();
        let changed_len = cut.map(|c| c % (bytes.len() + 1));
        if let Some(c) = changed_len {
            bytes.truncate(c);
        }
        let mut flipped = false;
        let idx = flip_pos % bytes.len().max(1);
        if let Some(b) = bytes.get_mut(idx) {
            let before = *b;
            *b ^= mask;
            flipped = *b != before;
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let unchanged = mutated == snapshot;
        match Checkpoint::from_text(&mutated).and_then(|c| c.resume(&program)) {
            Err(e) => {
                let shown = format!("{e}");
                prop_assert!(!shown.is_empty());
            }
            Ok(m) => {
                // Only a mutation that left the file semantically intact
                // (e.g. truncation after `end` removing just the trailer,
                // with no effective flip) may resume — and then it must
                // resume the *correct* state.
                let apps = m.stats().applications as usize;
                prop_assert!(apps < state_by_apps.len());
                prop_assert_eq!(&state_text(&m), &state_by_apps[apps]);
                if !unchanged {
                    // Any accepted change must be trailer-only.
                    prop_assert!(
                        !flipped || changed_len.is_some(),
                        "a pure byte flip inside the file must be caught by the CRC"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Real-process kill: SIGKILL a spawned chasekit mid-run, then rerun.
// ---------------------------------------------------------------------------

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_chasekit")
}

/// Runs `chasekit chase <rules> --steps <steps> --checkpoint <ckpt>` plus
/// `extra` flags, optionally armed with a failpoint spec.
fn chase_cli(
    rules: &Path,
    steps: &str,
    ckpt: &Path,
    extra: &[&str],
    failpoints: Option<&str>,
) -> std::process::Output {
    let mut cmd = std::process::Command::new(bin());
    cmd.args(["chase", rules.to_str().unwrap(), "--steps", steps])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(extra);
    match failpoints {
        Some(spec) => cmd.env(failpoint::ENV_VAR, spec),
        None => cmd.env_remove(failpoint::ENV_VAR),
    };
    cmd.output().unwrap()
}

/// SIGKILL the real binary mid-chase (no failpoints: a genuine
/// out-of-nowhere kill), then rerun the same command — there is no
/// recovery step — and continue; the final checkpoint must be
/// bit-identical to an uninterrupted run of the same length.
#[test]
fn sigkill_mid_run_recovers_and_continues_bit_identical() {
    let dir = scratch("sigkill");
    let rules = dir.join("ex1.rules");
    std::fs::write(&rules, "person(bob). person(X) -> hasFather(X, Y), person(Y).\n").unwrap();
    let ckpt = dir.join("k.ckpt");

    let mut child = std::process::Command::new(bin())
        .args(["chase", rules.to_str().unwrap(), "--steps", "100000000"])
        .args(["--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "500"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().unwrap(); // SIGKILL on unix
    child.wait().unwrap();

    // How far the published snapshot got (0 if the kill beat the first
    // publication); the rerun continues 77 applications past it.
    let published = match std::fs::read_to_string(&ckpt) {
        Ok(text) => Checkpoint::from_text(&text).unwrap().stats().applications,
        Err(_) => 0,
    };
    let total = (published + 77).to_string();
    let out = chase_cli(&rules, &total, &ckpt, &["--checkpoint-every", "500"], None);
    assert_eq!(out.status.code(), Some(10), "continuation hits the application budget");
    if published > 0 {
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("(resuming from checkpoint: {published} applications")),
            "{stdout}"
        );
    }

    let reference_ckpt = dir.join("ref.ckpt");
    let out = chase_cli(&rules, &total, &reference_ckpt, &[], None);
    assert_eq!(out.status.code(), Some(10));

    let recovered = std::fs::read_to_string(&ckpt).unwrap();
    let reference = std::fs::read_to_string(&reference_ckpt).unwrap();
    assert_eq!(recovered, reference, "post-recovery state must be bit-identical");
}

/// Deterministic simulated kill in the real binary, at the nastiest spot:
/// the second snapshot is staged in `<ckpt>.tmp` but never renamed over
/// the first. Rerunning the same command resumes the first snapshot,
/// ignores the staged one, and lands bit-identical to one uninterrupted
/// invocation.
#[test]
fn injected_kill_between_append_and_rename_relays_bit_identical() {
    let dir = scratch("injected-kill");
    let rules = dir.join("ex1.rules");
    std::fs::write(&rules, "person(bob). person(X) -> hasFather(X, Y), person(Y).\n").unwrap();
    let ckpt = dir.join("i.ckpt");
    let tmp = dir.join("i.ckpt.tmp");
    let every = ["--checkpoint-every", "40"];

    // Kill exactly at the second periodic snapshot's rename.
    let out = chase_cli(&rules, "90", &ckpt, &every, Some("snapshot.rename=exit:9@2"));
    assert_eq!(out.status.code(), Some(9), "the injected kill fires");
    assert!(ckpt.exists() && tmp.exists(), "leg 1 published, leg 2 staged");

    // The same command again: resume leg 1, run to the end.
    let out = chase_cli(&rules, "90", &ckpt, &every, None);
    assert_eq!(out.status.code(), Some(10), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(resuming from checkpoint: 40 applications"), "{stdout}");
    assert!(!tmp.exists(), "a later publication replaces the staged file");

    let reference_ckpt = dir.join("ref.ckpt");
    let out = chase_cli(&rules, "90", &reference_ckpt, &[], None);
    assert_eq!(out.status.code(), Some(10));
    assert_eq!(
        std::fs::read_to_string(&ckpt).unwrap(),
        std::fs::read_to_string(&reference_ckpt).unwrap(),
        "kill-at-rename relay must be bit-identical"
    );
}

/// `CheckpointError` messages from the hardened parser carry line numbers,
/// and trailing garbage after the final section is rejected.
#[test]
fn hardened_checkpoint_parser_reports_locations() {
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);
    let mut m = ChaseMachine::new(&program, ChaseConfig::of(ChaseVariant::SemiOblivious), initial);
    m.run(&budget(5));
    let text = state_text(&m);

    // Round-trips (the CRC trailer is parsed and re-emitted identically).
    let again = Checkpoint::from_text(&text).unwrap().to_text().unwrap();
    assert_eq!(text, again);

    // Trailing garbage is rejected with its location.
    let garbage = format!("{text}surprise\n");
    let err = Checkpoint::from_text(&garbage).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("trailing garbage"), "{msg}");
    assert!(msg.contains(&format!("line {}", text.lines().count() + 1)), "{msg}");

    // A malformed mid-file line is reported with its line number.
    let broken = text.replacen("rng ", "rngX ", 1);
    let err = Checkpoint::from_text(&broken).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("line 6"), "{msg}");

    // A flipped byte anywhere in the body trips the CRC even if the line
    // still parses.
    let flipped = text.replacen("stats ", "stats 9", 1);
    let err = Checkpoint::from_text(&flipped).unwrap_err();
    assert!(matches!(err, CheckpointError::Parse(_)), "{err}");

    // EOF mid-file names the line it expected.
    let truncated: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
    let err = Checkpoint::from_text(&truncated).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("line 5") && msg.contains("end of file"), "{msg}");
}

// ---------------------------------------------------------------------------
// Golden checkpoints: the v1 text is pinned byte for byte.
// ---------------------------------------------------------------------------

/// Budget-stopped runs whose snapshots are committed under `tests/golden/`:
/// (file, program, config, applications).
fn golden_checkpoint_runs() -> [(&'static str, &'static str, ChaseConfig, u64); 3] {
    const EXAMPLE1: &str = "person(bob). person(X) -> hasFather(X, Y), person(Y).\n\
                            hasFather(X, Y) -> knows(Y, X).";
    const EXAMPLE2: &str =
        "p(a, b). p(X, Y) -> p(Y, Z). p(X, Y) -> q(X). q(X), p(X, Y) -> p(Y, X).";
    [
        (
            "checkpoint_semi_oblivious.ckpt",
            EXAMPLE1,
            ChaseConfig::of(ChaseVariant::SemiOblivious),
            17,
        ),
        ("checkpoint_restricted.ckpt", EXAMPLE2, ChaseConfig::of(ChaseVariant::Restricted), 23),
        (
            "checkpoint_random.ckpt",
            EXAMPLE2,
            ChaseConfig::of(ChaseVariant::SemiOblivious).with_random_scheduling(42),
            31,
        ),
    ]
}

/// Each golden file is what a publication of its run writes, byte for
/// byte, and resumes to a machine with the same state. A change to the
/// v1 text shows up as a diff here (regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test crash_recovery golden`).
#[test]
fn golden_checkpoints_are_byte_stable_and_resume() {
    let _g = failpoint_guard();
    let dir = scratch("golden_checkpoints");
    for (file, text, config, applications) in golden_checkpoint_runs() {
        let program = Program::parse(text).unwrap();
        let initial = Instance::from_atoms(program.facts().iter().cloned());
        let mut m = ChaseMachine::new(&program, config, initial);
        assert_eq!(m.run(&Budget::applications(applications)), StopReason::Applications);
        assert!(m.pending() > 0, "{file}: the run stops with a non-empty queue");
        let published = dir.join(file);
        publish_snapshot(&mut m, &published).unwrap();
        let got = std::fs::read_to_string(&published).unwrap();

        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(&golden, &got).unwrap();
        }
        let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!(
                "missing golden file {golden:?} ({e}); regenerate with \
                 UPDATE_GOLDEN=1 cargo test --test crash_recovery golden"
            )
        });
        assert_eq!(got, want, "checkpoint drift in {file}; if intentional, regenerate");

        let resumed = Checkpoint::from_text(&want).unwrap().resume(&program).unwrap();
        assert_eq!(state_text(&resumed), want, "{file}: resume reproduces the state");
        assert_eq!(resumed.stats(), m.stats(), "{file}");
    }
}
