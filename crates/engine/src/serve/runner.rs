//! `JobRunner`: one chase job, durably, from genesis or from wreckage.
//!
//! [`run_job`] is the single entry point the server's worker pool uses for
//! both fresh submissions and jobs found half-done by the restart scan —
//! the two cases are deliberately the same code path, so the recovery
//! differential ("a killed job, resumed, is bit-identical to one that
//! never crashed") is a property of the only loop there is. A job is the
//! CLI's `chase --checkpoint` durable run (`crate::checkpoint`: open,
//! legs, finish) on the job's one snapshot file, `state.ckpt`.
//!
//! The result marker the *server* writes last (see [`JobPaths`]) is what
//! the restart scan treats as "complete": a kill anywhere before it
//! resumes `state.ckpt` (or genesis) and re-runs the deterministic tail,
//! which is empty once the final state is published — that job stops at
//! once with the same outcome.

use std::path::{Path, PathBuf};

use chasekit_core::Program;

use crate::checkpoint::{finish_durable, open_durable, run_durable};
use crate::trace::TraceSink;
use crate::{initial_instance, Budget, CancelToken, ChaseConfig, ChaseVariant, StopReason};

/// The per-job budget and durability cadence, persisted in the job's
/// `meta` file so a restarted server re-runs the job under identical
/// rules. Wall-clock deadlines restart from zero on recovery (elapsed
/// time before the kill is unknowable); deterministic workloads use the
/// application/atom/memory budgets, which replay exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Chase variant.
    pub variant: ChaseVariant,
    /// Application budget (the CLI's `--steps`).
    pub steps: u64,
    /// Wall-clock deadline in milliseconds, if any.
    pub timeout_ms: Option<u64>,
    /// Atom-count ceiling, if any.
    pub max_atoms: Option<usize>,
    /// Approximate memory ceiling in bytes, if any.
    pub max_memory: Option<usize>,
    /// Snapshot cadence in applications (0 = only the final snapshot,
    /// no periodic durability).
    pub checkpoint_every: u64,
}

impl JobSpec {
    /// The server's built-in defaults: semi-oblivious chase, a generous
    /// but finite application budget, periodic durability every 256
    /// applications.
    pub fn server_default() -> JobSpec {
        JobSpec {
            variant: ChaseVariant::SemiOblivious,
            steps: 1_000_000,
            timeout_ms: None,
            max_atoms: None,
            max_memory: None,
            checkpoint_every: 256,
        }
    }

    /// The run's budget: `steps` applications under whichever wall-clock,
    /// atom and memory ceilings are set. Its wall-clock limit is one
    /// deadline over all legs ([`run_durable`]).
    pub fn budget(&self) -> Budget {
        let mut budget = Budget::applications(self.steps);
        if let Some(ms) = self.timeout_ms {
            budget = budget.with_timeout_ms(ms);
        }
        if let Some(atoms) = self.max_atoms {
            budget = budget.with_atoms(atoms);
        }
        if let Some(bytes) = self.max_memory {
            budget = budget.with_memory(bytes);
        }
        budget
    }
}

/// The well-known files inside one job directory.
#[derive(Debug, Clone)]
pub struct JobPaths {
    /// The job directory itself.
    pub dir: PathBuf,
}

impl JobPaths {
    /// Wraps a job directory.
    pub fn new(dir: &Path) -> JobPaths {
        JobPaths { dir: dir.to_path_buf() }
    }

    /// The submitted program text, exactly as received.
    pub fn program(&self) -> PathBuf {
        self.dir.join("program.rules")
    }

    /// The job spec (`meta`), written last and atomically at admission.
    pub fn meta(&self) -> PathBuf {
        self.dir.join("meta")
    }

    /// The job's one snapshot file: republished after every leg, and
    /// holding the final state once the chase stopped.
    pub fn state_checkpoint(&self) -> PathBuf {
        self.dir.join("state.ckpt")
    }

    /// The result marker the server writes last; its presence means done.
    pub fn result(&self) -> PathBuf {
        self.dir.join("result")
    }
}

/// What [`run_job`] accomplished.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Why the chase stopped.
    pub outcome: StopReason,
    /// Trigger applications performed (including recovered ones).
    pub applications: u64,
    /// Final instance size in atoms.
    pub atoms: usize,
    /// Labelled nulls minted.
    pub nulls: usize,
    /// Whether the job resumed from its snapshot (restart recovery).
    pub recovered: bool,
    /// The failed publication's error when `outcome` is [`StopReason::Io`].
    pub io_error: Option<String>,
}

/// Runs one job to a terminal state inside `dir`, fresh or recovered.
///
/// The job is one durable run on `state.ckpt` (see
/// [`crate::checkpoint::open_durable`]): it resumes the snapshot a killed
/// run published there, or starts from the program's facts (or its
/// critical instance when it has none), exactly like the CLI, and
/// publishes its final state there when it stops. Any other file a killed
/// run left behind — a torn `state.ckpt.tmp`, a `state.journal` or
/// `final.ckpt` from an older server — is ignored. Returns an error string
/// for structural failures (unreadable state, state of another program or
/// variant, unwritable final state); budget and I/O stops are *successful*
/// reports with the corresponding [`StopReason`].
pub fn run_job(
    program: &Program,
    spec: &JobSpec,
    dir: &Path,
    cancel: CancelToken,
    sink: Option<Box<dyn TraceSink>>,
) -> Result<JobReport, String> {
    let state = JobPaths::new(dir).state_checkpoint();
    let mut program = program.clone();
    let genesis = initial_instance(&mut program);
    let config = ChaseConfig::of(spec.variant);
    let (mut machine, recovered) = open_durable(&program, config, genesis, Some(&state), sink)?;
    machine.set_cancel_token(cancel);

    // A publish failure (ENOSPC, EACCES, injected fault) is a durability
    // stop, not a server error: the job ends with StopReason::Io and the
    // named error text.
    let (outcome, io_error) =
        run_durable(&mut machine, &spec.budget(), spec.checkpoint_every, Some(&state));
    finish_durable(&mut machine, outcome, &state)?;
    machine.flush_trace();

    Ok(JobReport {
        outcome,
        applications: machine.stats().applications,
        atoms: machine.instance().len(),
        nulls: machine.stats().nulls_minted as usize,
        recovered,
        io_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished job rerun (a kill between its final publication and its
    /// result marker) resumes the final state and stops at once with the
    /// same outcome; a `final.ckpt` an older server left beside the
    /// snapshot is never read.
    #[test]
    fn a_finished_job_reruns_to_the_same_state_past_a_stale_final_checkpoint() {
        let dir = std::env::temp_dir().join(format!("chasekit-runner-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let program =
            Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
        let spec = JobSpec { steps: 30, checkpoint_every: 10, ..JobSpec::server_default() };
        let first = run_job(&program, &spec, &dir, CancelToken::new(), None).unwrap();
        assert!(!first.recovered);
        let state = JobPaths::new(&dir).state_checkpoint();
        let published = std::fs::read_to_string(&state).unwrap();
        std::fs::write(dir.join("final.ckpt"), "stale").unwrap();

        let rerun = run_job(&program, &spec, &dir, CancelToken::new(), None).unwrap();
        assert!(rerun.recovered);
        assert_eq!((rerun.outcome, rerun.applications), (first.outcome, first.applications));
        assert_eq!(std::fs::read_to_string(&state).unwrap(), published);
        assert_eq!(std::fs::read_to_string(dir.join("final.ckpt")).unwrap(), "stale");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
