//! `JobRunner`: one chase job, durably, from genesis or from wreckage.
//!
//! [`run_job`] is the single entry point the server's worker pool uses for
//! both fresh submissions and jobs found half-done by the restart scan —
//! the two cases are deliberately the same code path, so the recovery
//! differential ("a killed job, resumed, is bit-identical to one that
//! never crashed") is a property of the only loop there is. That loop is
//! [`run_durable`], the same one the CLI's `chase --checkpoint
//! --checkpoint-every` drives: legs of `checkpoint_every` applications,
//! each followed by an atomically published snapshot, under one overall
//! wall-clock deadline.
//!
//! A job directory owns three well-known files (see [`JobPaths`]): the
//! working snapshot the durable loop republishes, the final checkpoint
//! published when the chase stops, and the result marker the *server*
//! writes last — its presence is what the restart scan treats as
//! "complete", so a kill anywhere before it simply resumes the working
//! snapshot (or genesis) and re-runs the deterministic tail.

use std::path::{Path, PathBuf};

use chasekit_core::Program;

use crate::checkpoint::{run_durable, write_snapshot_atomic, Checkpoint};
use crate::trace::TraceSink;
use crate::{
    initial_instance, Budget, CancelToken, ChaseConfig, ChaseMachine, ChaseVariant, StopReason,
};

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
    /// Snapshot cadence in applications (0 = only the final checkpoint,
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

    /// The working snapshot the durable loop re-publishes every leg.
    fn state_checkpoint(&self) -> PathBuf {
        self.dir.join("state.ckpt")
    }

    /// The final checkpoint, published when the chase stops.
    pub fn final_checkpoint(&self) -> PathBuf {
        self.dir.join("final.ckpt")
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
    /// Whether the job resumed from a working snapshot (restart recovery).
    pub recovered: bool,
    /// The final checkpoint text (also on disk at
    /// [`JobPaths::final_checkpoint`]) — the byte-identity witness the
    /// differential suite compares.
    pub checkpoint_text: String,
    /// The failed publication's error when `outcome` is [`StopReason::Io`].
    pub io_error: Option<String>,
}

/// Runs one job to a terminal state inside `dir`, fresh or recovered.
///
/// If the directory holds a working `state.ckpt` (the server was killed
/// mid-job), the machine resumes it and runs on; otherwise the chase
/// starts from the program's facts (or its critical instance when it has
/// none), exactly like the CLI. Any other file a killed run left behind —
/// a torn `state.ckpt.tmp`, a `state.journal` from an older server — is
/// ignored. Returns an error string for structural failures (unreadable or
/// mismatched state, unwritable final checkpoint); budget and I/O stops
/// are *successful* reports with the corresponding [`StopReason`].
pub fn run_job(
    program: &Program,
    spec: &JobSpec,
    dir: &Path,
    cancel: CancelToken,
    sink: Option<Box<dyn TraceSink>>,
) -> Result<JobReport, String> {
    let paths = JobPaths::new(dir);
    let mut program = program.clone();
    let config = ChaseConfig::of(spec.variant);

    let snapshot_text = match std::fs::read_to_string(paths.state_checkpoint()) {
        Ok(t) => Some(t),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("cannot read {}: {e}", paths.state_checkpoint().display())),
    };

    let genesis = initial_instance(&mut program);

    let recovered = snapshot_text.is_some();
    let mut machine = match &snapshot_text {
        Some(text) => {
            let mut m = Checkpoint::from_text(text)
                .and_then(|c| c.resume(&program))
                .map_err(|e| format!("cannot resume job state: {e}"))?;
            if let Some(sink) = sink {
                // Sequence numbers continue from the resumed stats; the
                // stream is a suffix of an uncrashed run's stream.
                m.set_trace_sink(sink);
            }
            m
        }
        None => match sink {
            Some(sink) => ChaseMachine::new_with_trace(&program, config, genesis, sink),
            None => ChaseMachine::new(&program, config, genesis),
        },
    };
    machine.set_cancel_token(cancel);

    let mut budget = Budget::applications(spec.steps);
    if let Some(ms) = spec.timeout_ms {
        budget = budget.with_timeout_ms(ms);
    }
    if let Some(atoms) = spec.max_atoms {
        budget = budget.with_atoms(atoms);
    }
    if let Some(bytes) = spec.max_memory {
        budget = budget.with_memory(bytes);
    }
    // A publish failure (ENOSPC, EACCES, injected fault) is a durability
    // stop, not a server error: the job ends with StopReason::Io and the
    // named error text.
    let (outcome, io_error) =
        run_durable(&mut machine, &budget, spec.checkpoint_every, Some(&paths.state_checkpoint()));
    machine.flush_trace();

    let checkpoint_text = machine
        .snapshot()
        .to_text()
        .map_err(|e| format!("cannot serialize final checkpoint: {e}"))?;
    write_snapshot_atomic(&paths.final_checkpoint(), &checkpoint_text).map_err(|e| {
        format!("cannot write final checkpoint {}: {e}", paths.final_checkpoint().display())
    })?;

    Ok(JobReport {
        outcome,
        applications: machine.stats().applications,
        atoms: machine.instance().len(),
        nulls: machine.stats().nulls_minted as usize,
        recovered,
        checkpoint_text,
        io_error,
    })
}
