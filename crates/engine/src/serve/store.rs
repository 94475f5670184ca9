//! The on-disk job store `chasekit serve` survives kills with.
//!
//! Layout: one directory per job under the store root, named `job-<seq>`
//! (the sequence number is the job id clients see, so ids are stable
//! across restarts):
//!
//! ```text
//! store/
//!   job-0/
//!     program.rules    submitted program text, verbatim
//!     meta             the JobSpec, written last + atomically at admission
//!     state.ckpt       snapshot: republished after every leg, final state last
//!     result           terminal marker, written last by the server: the
//!                      outcome of a job that ran, or the error of one
//!                      that failed
//! ```
//!
//! `state.ckpt` is the job's one snapshot file, driven by the durable run
//! of `crate::checkpoint` (see `crate::serve::runner`). Files an older
//! server left beside it (`final.ckpt`, `state.journal`) are never read.
//!
//! The two markers carry the crash-consistency protocol: a directory
//! without a complete `meta` was never admitted (the submit response is
//! only sent after `meta` lands, so the client saw no acknowledgement) and
//! is garbage; a directory with `meta` but no `result` is an **in-flight
//! job** the restart scan hands back to the worker pool; a directory with
//! `result` is finished — done or failed — and is never run again. Both
//! files are
//! published with [`write_snapshot_atomic`], so a reader never sees a
//! torn marker.

use std::io;
use std::path::{Path, PathBuf};

use crate::checkpoint::write_snapshot_atomic;
use crate::serve::runner::{JobPaths, JobSpec};
use crate::{ChaseVariant, StopReason};

/// Magic first line of the `meta` file.
pub const META_MAGIC: &str = "chasekit-job v1";
/// Magic first line of the `result` file.
pub const RESULT_MAGIC: &str = "chasekit-result v1";
/// Magic first line of the sequence high-water file compaction leaves
/// behind (`next-seq` at the store root).
pub const SEQ_MAGIC: &str = "chasekit-seq v1";

/// A terminal job outcome, as persisted in the `result` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The stable [`StopReason`] keyword (`saturated`, `applications`, …).
    pub outcome: String,
    /// Trigger applications performed.
    pub applications: u64,
    /// Final instance size in atoms.
    pub atoms: u64,
    /// Labelled nulls minted.
    pub nulls: u64,
    /// Fingerprint of the (genesis) program, for cache priming.
    pub fingerprint: u64,
    /// Variant keyword, for cache priming.
    pub variant: String,
    /// What stopped the run when the outcome keyword alone does not say:
    /// the error of a failed snapshot publication (`io`). Markers written
    /// before the field existed read as `None`.
    pub detail: Option<String>,
}

/// What a job's `result` marker records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finished {
    /// The chase ran and stopped.
    Done(JobResult),
    /// The job failed before it could finish: its error text.
    Failed(String),
}

impl Finished {
    fn to_text(&self) -> String {
        match self {
            Finished::Done(r) => {
                let mut text = format!(
                    "{RESULT_MAGIC}\noutcome {}\napplications {}\natoms {}\nnulls {}\n\
                     fingerprint {:016x}\nvariant {}\n",
                    r.outcome, r.applications, r.atoms, r.nulls, r.fingerprint, r.variant
                );
                if let Some(detail) = &r.detail {
                    text.push_str(&format!("detail {detail}\n"));
                }
                text
            }
            Finished::Failed(error) => format!("{RESULT_MAGIC}\nfailed\n{error}\n"),
        }
    }

    /// Parses a marker. The error text of a failure, and a done job's
    /// `detail`, run to the end of the file, so they keep any newlines.
    fn from_text(text: &str) -> Result<Finished, String> {
        let Some(mut rest) = text.strip_prefix(RESULT_MAGIC).and_then(|r| r.strip_prefix('\n'))
        else {
            return Err(format!("result line 1: expected `{RESULT_MAGIC}`"));
        };
        let to_end = |tail: &str| tail.strip_suffix('\n').unwrap_or(tail).to_string();
        if let Some(error) = rest.strip_prefix("failed\n") {
            return Ok(Finished::Failed(to_end(error)));
        }
        let mut field = |key: &str| -> Result<String, String> {
            let (line, tail) = rest
                .split_once('\n')
                .or((!rest.is_empty()).then_some((rest, "")))
                .ok_or_else(|| format!("result: missing `{key}`"))?;
            rest = tail;
            line.strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| format!("result: expected `{key} <value>`, got {line:?}"))
        };
        let outcome = field("outcome")?;
        if parse_stop_keyword(&outcome).is_none() {
            return Err(format!("result: unknown outcome `{outcome}`"));
        }
        let parse_u64 = |key: &str, raw: String| {
            raw.parse::<u64>().map_err(|_| format!("result: `{key}` is not a number: {raw:?}"))
        };
        let applications = parse_u64("applications", field("applications")?)?;
        let atoms = parse_u64("atoms", field("atoms")?)?;
        let nulls = parse_u64("nulls", field("nulls")?)?;
        let fp_raw = field("fingerprint")?;
        let fingerprint = u64::from_str_radix(&fp_raw, 16)
            .map_err(|_| format!("result: bad fingerprint {fp_raw:?}"))?;
        let variant = field("variant")?;
        ChaseVariant::from_name(&variant)
            .ok_or_else(|| format!("result: unknown variant `{variant}`"))?;
        let detail = rest.strip_prefix("detail ").map(to_end);
        Ok(Finished::Done(JobResult {
            outcome,
            applications,
            atoms,
            nulls,
            fingerprint,
            variant,
            detail,
        }))
    }
}

/// Maps a persisted outcome keyword back to its [`StopReason`].
fn parse_stop_keyword(s: &str) -> Option<StopReason> {
    [
        StopReason::Saturated,
        StopReason::Applications,
        StopReason::Atoms,
        StopReason::WallClock,
        StopReason::Memory,
        StopReason::Cancelled,
        StopReason::Io,
    ]
    .into_iter()
    .find(|r| r.keyword() == s)
}

fn spec_to_text(spec: &JobSpec) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "none".to_string(), |n| n.to_string());
    format!(
        "{META_MAGIC}\nvariant {}\nsteps {}\ntimeout-ms {}\nmax-atoms {}\nmax-memory {}\n\
         checkpoint-every {}\n",
        spec.variant.name(),
        spec.steps,
        opt(spec.timeout_ms),
        opt(spec.max_atoms.map(|n| n as u64)),
        opt(spec.max_memory.map(|n| n as u64)),
        spec.checkpoint_every,
    )
}

fn spec_from_text(text: &str) -> Result<JobSpec, String> {
    let mut lines = text.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(format!("meta line 1: expected `{META_MAGIC}`"));
    }
    let mut field = |key: &str| -> Result<String, String> {
        let line = lines.next().ok_or_else(|| format!("meta: missing `{key}`"))?;
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| format!("meta: expected `{key} <value>`, got {line:?}"))
    };
    let variant_raw = field("variant")?;
    let variant = ChaseVariant::from_name(&variant_raw)
        .ok_or_else(|| format!("meta: unknown variant `{variant_raw}`"))?;
    let num = |key: &str, raw: String| {
        raw.parse::<u64>().map_err(|_| format!("meta: `{key}` is not a number: {raw:?}"))
    };
    let opt_num = |key: &str, raw: String| -> Result<Option<u64>, String> {
        if raw == "none" {
            Ok(None)
        } else {
            raw.parse::<u64>()
                .map(Some)
                .map_err(|_| format!("meta: `{key}` is not a number or `none`: {raw:?}"))
        }
    };
    let steps = num("steps", field("steps")?)?;
    let timeout_ms = opt_num("timeout-ms", field("timeout-ms")?)?;
    let max_atoms = opt_num("max-atoms", field("max-atoms")?)?.map(|n| n as usize);
    let max_memory = opt_num("max-memory", field("max-memory")?)?.map(|n| n as usize);
    let checkpoint_every = num("checkpoint-every", field("checkpoint-every")?)?;
    // Lines past the last field are ignored: a store written when `meta`
    // still carried a `flush-every` line restarts unchanged.
    Ok(JobSpec { variant, steps, timeout_ms, max_atoms, max_memory, checkpoint_every })
}

/// A job loaded back from disk.
#[derive(Debug, Clone)]
pub struct StoredJob {
    /// The job id (= directory name).
    pub id: String,
    /// The job directory.
    pub dir: PathBuf,
    /// The submitted program text.
    pub program_text: String,
    /// The persisted spec.
    pub spec: JobSpec,
}

/// What a startup scan of the store found.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Admitted jobs without a result: killed in flight, to be re-run.
    pub in_flight: Vec<StoredJob>,
    /// Finished jobs (done or failed), for cache priming and compaction.
    pub completed: Vec<(String, Finished)>,
    /// Directories that were never admitted (no complete `meta`) or whose
    /// markers fail validation — reported, never silently deleted.
    pub discarded: Vec<String>,
    /// The next free job sequence number.
    pub next_seq: u64,
}

/// The durable job store: a directory of job directories.
#[derive(Debug)]
pub struct JobStore {
    root: PathBuf,
}

impl JobStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: &Path) -> io::Result<JobStore> {
        std::fs::create_dir_all(root)?;
        Ok(JobStore { root: root.to_path_buf() })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory for job `id`.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Persists a new job: directory, program text, then — last and
    /// atomically — the `meta` marker that makes the job *admitted*. A
    /// kill anywhere before the marker leaves an unadmitted directory the
    /// scan reports as garbage; a kill after it leaves a recoverable job.
    pub fn create_job(&self, id: &str, program_text: &str, spec: &JobSpec) -> io::Result<PathBuf> {
        let dir = self.job_dir(id);
        std::fs::create_dir_all(&dir)?;
        let paths = JobPaths::new(&dir);
        std::fs::write(paths.program(), program_text)?;
        write_snapshot_atomic(&paths.meta(), &spec_to_text(spec))?;
        Ok(dir)
    }

    /// Loads an admitted job back (program text + spec).
    pub fn load_job(&self, id: &str) -> Result<StoredJob, String> {
        let dir = self.job_dir(id);
        let paths = JobPaths::new(&dir);
        let program_text = std::fs::read_to_string(paths.program())
            .map_err(|e| format!("cannot read {}: {e}", paths.program().display()))?;
        let meta = std::fs::read_to_string(paths.meta())
            .map_err(|e| format!("cannot read {}: {e}", paths.meta().display()))?;
        let spec = spec_from_text(&meta).map_err(|e| format!("{id}: {e}"))?;
        Ok(StoredJob { id: id.to_string(), dir, program_text, spec })
    }

    /// Publishes a job's terminal marker (atomically, last).
    pub fn write_result(&self, id: &str, finished: &Finished) -> io::Result<()> {
        let paths = JobPaths::new(&self.job_dir(id));
        write_snapshot_atomic(&paths.result(), &finished.to_text())
    }

    /// Reads a job's result marker, if present and valid.
    pub fn read_result(&self, id: &str) -> Result<Option<Finished>, String> {
        let paths = JobPaths::new(&self.job_dir(id));
        match std::fs::read_to_string(paths.result()) {
            Ok(text) => Finished::from_text(&text).map(Some).map_err(|e| format!("{id}: {e}")),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("cannot read {}: {e}", paths.result().display())),
        }
    }

    fn seq_floor_path(&self) -> PathBuf {
        self.root.join("next-seq")
    }

    /// Persists a floor for the job sequence number, atomically. Written
    /// *before* compaction deletes any directory, so job ids are never
    /// reused even when every `job-<n>` directory is gone — a reused id
    /// could alias a client's memory of an old job.
    fn write_seq_floor(&self, next_seq: u64) -> io::Result<()> {
        write_snapshot_atomic(&self.seq_floor_path(), &format!("{SEQ_MAGIC}\nnext {next_seq}\n"))
    }

    fn read_seq_floor(&self) -> io::Result<u64> {
        let text = match std::fs::read_to_string(self.seq_floor_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        // The file is published atomically, so a malformed one is outside
        // interference; refusing to guess keeps ids from ever aliasing.
        let mut lines = text.lines();
        if lines.next() != Some(SEQ_MAGIC) {
            return Err(io::Error::other(format!(
                "{}: expected `{SEQ_MAGIC}` on line 1",
                self.seq_floor_path().display()
            )));
        }
        lines
            .next()
            .and_then(|l| l.strip_prefix("next "))
            .and_then(|n| n.parse::<u64>().ok())
            .ok_or_else(|| {
                io::Error::other(format!(
                    "{}: expected `next <seq>` on line 2",
                    self.seq_floor_path().display()
                ))
            })
    }

    /// Deletes the oldest *completed* (done or failed) job directories
    /// beyond `keep`, returning the ids removed. The sequence floor is
    /// persisted first, so a crash mid-compaction can lose directories but
    /// never a sequence number. In-flight and discarded directories are
    /// never touched — compaction only reclaims what the result marker
    /// proves finished.
    pub fn compact(&self, keep: usize, next_seq_floor: u64) -> io::Result<Vec<String>> {
        let scan = self.scan()?;
        if scan.completed.len() <= keep {
            return Ok(Vec::new());
        }
        self.write_seq_floor(next_seq_floor.max(scan.next_seq))?;
        let doomed = scan.completed.len() - keep;
        let mut deleted = Vec::with_capacity(doomed);
        // `scan.completed` is already in ascending sequence order.
        for (id, _) in scan.completed.into_iter().take(doomed) {
            std::fs::remove_dir_all(self.job_dir(&id))?;
            deleted.push(id);
        }
        Ok(deleted)
    }

    /// The restart scan: classifies every `job-<n>` directory as
    /// in-flight, completed, or discarded, and computes the next free
    /// sequence number (never below the persisted floor, so compacted-away
    /// ids are not reused). Deterministic order (by sequence number), so
    /// recovered jobs re-enter the queue in admission order.
    pub fn scan(&self) -> io::Result<ScanReport> {
        let mut report = ScanReport { next_seq: self.read_seq_floor()?, ..ScanReport::default() };
        let mut seqs: Vec<(u64, String)> = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            match name.strip_prefix("job-").and_then(|n| n.parse::<u64>().ok()) {
                Some(seq) => seqs.push((seq, name)),
                None => continue, // not ours; leave foreign directories alone
            }
        }
        seqs.sort_unstable();
        for (seq, id) in seqs {
            report.next_seq = report.next_seq.max(seq + 1);
            match self.read_result(&id) {
                Ok(Some(result)) => report.completed.push((id, result)),
                Ok(None) => match self.load_job(&id) {
                    Ok(job) => report.in_flight.push(job),
                    Err(_) => report.discarded.push(id),
                },
                Err(_) => report.discarded.push(id),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chasekit-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec() -> JobSpec {
        JobSpec {
            variant: ChaseVariant::Oblivious,
            steps: 123,
            timeout_ms: Some(5000),
            max_atoms: None,
            max_memory: Some(1 << 20),
            checkpoint_every: 10,
        }
    }

    #[test]
    fn meta_and_result_round_trip() {
        let s = spec();
        assert_eq!(spec_from_text(&spec_to_text(&s)).unwrap(), s);
        // A `meta` that still carries the retired `flush-every` line parses.
        let legacy = format!("{}flush-every 8\n", spec_to_text(&s));
        assert_eq!(spec_from_text(&legacy).unwrap(), s);
        let r = JobResult {
            outcome: "applications".into(),
            applications: 99,
            atoms: 42,
            nulls: 7,
            fingerprint: 0xdead_beef_cafe_f00d,
            variant: "semi-oblivious".into(),
            detail: None,
        };
        for finished in [
            Finished::Done(r.clone()),
            Finished::Done(JobResult {
                outcome: "io".into(),
                detail: Some("injected failpoint `snapshot.write`".into()),
                ..r.clone()
            }),
            Finished::Failed("job panicked: boom\nsecond line".into()),
        ] {
            assert_eq!(Finished::from_text(&finished.to_text()).unwrap(), finished);
        }
        // A marker written before `detail` and failure markers existed.
        let older = "chasekit-result v1\noutcome applications\napplications 99\natoms 42\n\
                     nulls 7\nfingerprint deadbeefcafef00d\nvariant semi-oblivious\n";
        assert_eq!(Finished::from_text(older).unwrap(), Finished::Done(r));
        assert!(Finished::from_text("garbage").is_err());
        assert!(spec_from_text(&spec_to_text(&s).replace("steps 123", "steps lots")).is_err());
    }

    #[test]
    fn scan_classifies_in_flight_completed_and_garbage() {
        let root = scratch("scan");
        let store = JobStore::open(&root).unwrap();
        // job-0: admitted, no result -> in flight.
        store.create_job("job-0", "p(a). p(X) -> p(Y).", &spec()).unwrap();
        // job-2: admitted and completed.
        store.create_job("job-2", "q(a).", &spec()).unwrap();
        let result = JobResult {
            outcome: "saturated".into(),
            applications: 0,
            atoms: 1,
            nulls: 0,
            fingerprint: 1,
            variant: "oblivious".into(),
            detail: None,
        };
        store.write_result("job-2", &Finished::Done(result.clone())).unwrap();
        // job-3: admitted and failed -> finished too.
        store.create_job("job-3", "q(b).", &spec()).unwrap();
        let failed = Finished::Failed("program no longer parses".into());
        store.write_result("job-3", &failed).unwrap();
        // job-5: a kill before `meta` landed -> garbage, never admitted.
        std::fs::create_dir_all(store.job_dir("job-5")).unwrap();
        std::fs::write(store.job_dir("job-5").join("program.rules"), "r(a).").unwrap();
        // Not a job directory at all: ignored.
        std::fs::create_dir_all(root.join("lost+found")).unwrap();

        let scan = store.scan().unwrap();
        assert_eq!(scan.in_flight.len(), 1);
        assert_eq!(scan.in_flight[0].id, "job-0");
        assert_eq!(scan.in_flight[0].spec, spec());
        assert_eq!(
            scan.completed,
            vec![("job-2".to_string(), Finished::Done(result)), ("job-3".to_string(), failed)]
        );
        assert_eq!(scan.discarded, vec!["job-5".to_string()]);
        assert_eq!(scan.next_seq, 6);
        // Compaction reclaims failed jobs like done ones.
        assert_eq!(store.compact(0, scan.next_seq).unwrap(), vec!["job-2", "job-3"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Directories written when a job also kept a `final.ckpt` scan and
    /// compact like any other.
    #[test]
    fn directories_holding_a_final_checkpoint_still_scan_and_compact() {
        let root = scratch("final-ckpt");
        let store = JobStore::open(&root).unwrap();
        for id in ["job-0", "job-1"] {
            store.create_job(id, "p(a). p(X) -> q(X).", &spec()).unwrap();
            std::fs::write(store.job_dir(id).join("final.ckpt"), "older layout").unwrap();
        }
        let result = JobResult {
            outcome: "saturated".into(),
            applications: 1,
            atoms: 2,
            nulls: 0,
            fingerprint: 1,
            variant: "oblivious".into(),
            detail: None,
        };
        let result = Finished::Done(result);
        store.write_result("job-0", &result).unwrap();
        let scan = store.scan().unwrap();
        assert_eq!(scan.completed, vec![("job-0".to_string(), result)]);
        assert_eq!(scan.in_flight.len(), 1);
        assert_eq!(scan.in_flight[0].id, "job-1");
        assert_eq!(store.compact(0, scan.next_seq).unwrap(), vec!["job-0"]);
        assert!(!store.job_dir("job-0").exists() && store.job_dir("job-1").exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn compaction_keeps_newest_completed_and_never_reuses_sequence_numbers() {
        let root = scratch("compact");
        let store = JobStore::open(&root).unwrap();
        let result = |seq: u64| {
            Finished::Done(JobResult {
                outcome: "saturated".into(),
                applications: seq,
                atoms: 1,
                nulls: 0,
                fingerprint: seq,
                variant: "oblivious".into(),
                detail: None,
            })
        };
        for seq in 0..5 {
            let id = format!("job-{seq}");
            store.create_job(&id, "p(a).", &spec()).unwrap();
            store.write_result(&id, &result(seq)).unwrap();
        }
        // job-5 is in flight: compaction must not touch it.
        store.create_job("job-5", "q(a). q(X) -> q(Y).", &spec()).unwrap();

        let deleted = store.compact(2, 6).unwrap();
        assert_eq!(deleted, vec!["job-0", "job-1", "job-2"]);
        let scan = store.scan().unwrap();
        assert_eq!(
            scan.completed.iter().map(|(id, _)| id.as_str()).collect::<Vec<_>>(),
            vec!["job-3", "job-4"]
        );
        assert_eq!(scan.in_flight.len(), 1);
        assert_eq!(scan.in_flight[0].id, "job-5");
        assert_eq!(scan.next_seq, 6);

        // Below the cap: a no-op.
        assert!(store.compact(2, 6).unwrap().is_empty());

        // Even with every directory gone, the floor pins the sequence.
        let deleted = store.compact(0, 6).unwrap();
        assert_eq!(deleted, vec!["job-3", "job-4"]);
        std::fs::remove_dir_all(store.job_dir("job-5")).unwrap();
        assert_eq!(store.scan().unwrap().next_seq, 6);

        // A corrupt floor file refuses to guess rather than alias ids.
        std::fs::write(root.join("next-seq"), "garbage").unwrap();
        assert!(store.scan().is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
