//! Deterministic, in-process fault injection for the durability layer.
//!
//! A **failpoint** is a named site in the engine's I/O paths
//! (the catalog lives in [`points`]) where a test — or an operator via the
//! [`ENV_VAR`] environment variable — can arm a fault: an injected I/O
//! error, a short (torn) write, a panic, or a simulated kill
//! (`process::exit`). Faults fire on an exact hit count, so a plan like
//! `journal.append=error@7` is a pure function of the process's execution
//! — the same run trips the same syscall every time, which is what makes
//! the kill/recover differential suite reproducible. Seed-driven sweeps
//! (the `bench::fault` idiom from the experiment pool) derive the hit
//! index from a splitmix64 hash of the seed and install it here.
//!
//! **Cost when disabled.** Every site calls [`fire`], whose fast path is a
//! single relaxed atomic load of a process-wide armed flag; the registry
//! mutex is only touched once a spec has been installed. No failpoint code
//! allocates, locks, or branches further on the hot path of an unarmed
//! process — the durability ablation bench runs with the same binary.
//!
//! Failpoint state is process-global (sites fire from server threads), so
//! tests that arm failpoints must serialize against each other; the crash
//! recovery suite shares one mutex for this.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Environment variable the CLI reads at startup to arm failpoints,
/// e.g. `CHASEKIT_FAILPOINTS="journal.append=short:10@3;snapshot.rename=exit:9"`.
pub const ENV_VAR: &str = "CHASEKIT_FAILPOINTS";

/// The failpoint catalog: every site the engine's durability layer can
/// trip. Arming an unknown name is an error, so specs can't silently rot.
pub mod points {
    /// A journal record append ([`crate::journal::JournalWriter::append`]).
    pub const JOURNAL_APPEND: &str = "journal.append";
    /// The journal flush/sync path.
    pub const JOURNAL_SYNC: &str = "journal.sync";
    /// Journal truncation after a successful snapshot (the crash window
    /// that leaves a stale journal base behind a newer snapshot).
    pub const JOURNAL_TRUNCATE: &str = "journal.truncate";
    /// Writing the snapshot's temporary file.
    pub const SNAPSHOT_WRITE: &str = "snapshot.write";
    /// The atomic rename publishing a snapshot (firing `exit` here
    /// simulates a kill between the last journal append and the rename).
    pub const SNAPSHOT_RENAME: &str = "snapshot.rename";
    /// Server job admission: after the job's store files are durably
    /// written, before it is enqueued and acknowledged. Firing `exit` here
    /// simulates a kill in the admit window — the restarted server must
    /// recover the persisted-but-unacknowledged job.
    pub const SERVE_ADMIT: &str = "serve.admit";
    /// Server result publication: after a job's final checkpoint is
    /// written, before its result file marks it complete. Firing `exit`
    /// here leaves a finished-but-unmarked job for restart recovery to
    /// re-run deterministically.
    pub const SERVE_RESULT: &str = "serve.result";

    /// Every point, for spec validation.
    pub(super) const ALL: &[&str] = &[
        JOURNAL_APPEND,
        JOURNAL_SYNC,
        JOURNAL_TRUNCATE,
        SNAPSHOT_WRITE,
        SNAPSHOT_RENAME,
        SERVE_ADMIT,
        SERVE_RESULT,
    ];
}

/// What an armed failpoint does when its hit count comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return an injected `io::Error` from the site.
    Error,
    /// Write only the first `n` bytes of the site's payload, then fail —
    /// a torn write, exactly what a mid-write crash leaves behind.
    ShortWrite(usize),
    /// Panic at the site (a crash that unwinds instead of exiting).
    Panic,
    /// Exit the whole process with the given code (simulated kill).
    Exit(u8),
}

#[derive(Debug)]
struct Point {
    action: Action,
    /// 1-based hit index the fault fires on.
    at: u64,
    hits: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static POINTS: Mutex<Option<HashMap<String, Point>>> = Mutex::new(None);

/// Arms failpoints from a spec string: `;`- or `,`-separated
/// `name=action[@N]` items, where `action` is `error`, `panic`,
/// `exit[:CODE]`, or `short:BYTES`, and `@N` (default 1) is the 1-based
/// hit the fault fires on. Replaces any previously armed spec and resets
/// all hit counters.
pub fn configure(spec: &str) -> Result<(), String> {
    let mut map = HashMap::new();
    for item in spec.split([';', ',']).map(str::trim).filter(|s| !s.is_empty()) {
        let (name, rest) = item
            .split_once('=')
            .ok_or_else(|| format!("failpoint item `{item}` is not `name=action[@N]`"))?;
        if !points::ALL.contains(&name) {
            return Err(format!(
                "unknown failpoint `{name}` (known: {})",
                points::ALL.join(", ")
            ));
        }
        let (action_text, at) = match rest.split_once('@') {
            Some((a, n)) => (
                a,
                n.parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("failpoint `{name}`: bad hit index `{n}`"))?,
            ),
            None => (rest, 1),
        };
        let action = match action_text.split_once(':') {
            None => match action_text {
                "error" => Action::Error,
                "panic" => Action::Panic,
                "exit" => Action::Exit(1),
                other => return Err(format!("failpoint `{name}`: unknown action `{other}`")),
            },
            Some(("exit", code)) => Action::Exit(
                code.parse().map_err(|_| format!("failpoint `{name}`: bad exit code `{code}`"))?,
            ),
            Some(("short", bytes)) => Action::ShortWrite(
                bytes
                    .parse()
                    .map_err(|_| format!("failpoint `{name}`: bad short-write size `{bytes}`"))?,
            ),
            Some((other, _)) => {
                return Err(format!("failpoint `{name}`: unknown action `{other}`"))
            }
        };
        map.insert(name.to_string(), Point { action, at, hits: 0 });
    }
    let armed = !map.is_empty();
    *lock() = if armed { Some(map) } else { None };
    ARMED.store(armed, Ordering::Release);
    Ok(())
}

/// Disarms every failpoint and resets hit counters.
pub fn clear() {
    *lock() = None;
    ARMED.store(false, Ordering::Release);
}

/// Whether any failpoint is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn lock() -> std::sync::MutexGuard<'static, Option<HashMap<String, Point>>> {
    // A panic injected *at* a failpoint can poison the registry mutex of
    // this process; later tests still need a working registry.
    POINTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Registers a hit at `name` and returns the armed action if this hit is
/// the one the spec selected. The unarmed fast path is one relaxed load.
#[inline]
pub fn fire(name: &str) -> Option<Action> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    fire_slow(name)
}

#[cold]
fn fire_slow(name: &str) -> Option<Action> {
    let mut guard = lock();
    let point = guard.as_mut()?.get_mut(name)?;
    point.hits += 1;
    (point.hits == point.at).then_some(point.action)
}

/// [`fire`] for I/O sites: maps `Error` to an injected `io::Error` naming
/// the site, `ShortWrite(n)` to `Ok(Some(n))` (the caller tears its write
/// to `n` bytes and then fails), and executes `Panic`/`Exit` in place.
/// Returns `Ok(None)` when nothing fires.
pub(crate) fn trip_io(name: &str) -> std::io::Result<Option<usize>> {
    match fire(name) {
        None => Ok(None),
        Some(Action::Error) => Err(injected(name)),
        Some(Action::ShortWrite(n)) => Ok(Some(n)),
        Some(Action::Panic) => panic!("injected panic at failpoint `{name}`"),
        Some(Action::Exit(code)) => std::process::exit(code.into()),
    }
}

/// The `io::Error` an armed `Error` action injects.
pub(crate) fn injected(name: &str) -> std::io::Error {
    std::io::Error::other(format!("injected failpoint `{name}`"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Failpoint state is process-global; tests arming it must serialize.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_fast_path_fires_nothing() {
        let _g = guard();
        clear();
        assert!(!armed());
        for _ in 0..1000 {
            assert_eq!(fire(points::JOURNAL_APPEND), None);
        }
    }

    #[test]
    fn fires_on_the_exact_hit_and_only_once() {
        let _g = guard();
        configure("journal.append=error@3").unwrap();
        assert_eq!(fire(points::JOURNAL_APPEND), None);
        assert_eq!(fire(points::JOURNAL_APPEND), None);
        assert_eq!(fire(points::JOURNAL_APPEND), Some(Action::Error));
        assert_eq!(fire(points::JOURNAL_APPEND), None);
        // Unarmed points never fire even while the process is armed.
        assert_eq!(fire(points::SNAPSHOT_RENAME), None);
        clear();
    }

    #[test]
    fn spec_grammar_round_trips_every_action() {
        let _g = guard();
        configure("journal.append=short:12@2; snapshot.write=error, journal.sync=panic@5")
            .unwrap();
        assert_eq!(fire(points::SNAPSHOT_WRITE), Some(Action::Error));
        assert_eq!(fire(points::JOURNAL_APPEND), None);
        assert_eq!(fire(points::JOURNAL_APPEND), Some(Action::ShortWrite(12)));
        configure("snapshot.rename=exit:9").unwrap();
        // Reconfiguring resets: don't actually fire the exit in-process.
        assert!(armed());
        clear();
        assert!(!armed());
    }

    #[test]
    fn bad_specs_are_rejected_with_the_offending_item() {
        let _g = guard();
        clear();
        for (spec, needle) in [
            ("nonsense", "nonsense"),
            ("no.such.point=error", "no.such.point"),
            ("journal.append=explode", "explode"),
            ("journal.append=error@0", "0"),
            ("journal.append=short:lots", "lots"),
        ] {
            let err = configure(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
            assert!(!armed(), "{spec} must not half-arm");
        }
    }

    #[test]
    fn trip_io_maps_actions() {
        let _g = guard();
        configure("journal.sync=error@1;journal.append=short:4@1").unwrap();
        assert_eq!(trip_io(points::JOURNAL_APPEND).unwrap(), Some(4));
        let err = trip_io(points::JOURNAL_SYNC).unwrap_err();
        assert!(err.to_string().contains("journal.sync"));
        assert_eq!(trip_io(points::JOURNAL_SYNC).unwrap(), None);
        clear();
    }
}
