//! `chasekit serve`: a crash-resilient multi-tenant chase service.
//!
//! The engine's production bones — budgets, cancellation, traces, and
//! atomically published checkpoints — compose inside one CLI invocation.
//! This subsystem composes them behind a long-running server so many
//! clients can submit programs concurrently, each chase an isolated,
//! fault-contained, durably checkpointed **job**:
//!
//! * [`protocol`] — the newline-delimited flat-JSON wire format and the
//!   hardened line reader at the trust boundary;
//! * [`runner`] — [`runner::run_job`], the CLI's durable run on a job's
//!   snapshot file, which fresh submissions and restart recovery share;
//! * [`store`] — the on-disk job store whose `meta`/`result` markers
//!   carry the crash-consistency protocol;
//! * [`server`] — admission control, the worker pool, connection
//!   handling, the recovery scan, and the result cache.
//!
//! The design contract, inherited from the checkpoint layer and enforced
//! by the kill-at-every-failpoint suite: **bit-identical or cleanly
//! truncated, never fabricated**. A server SIGKILL'd at any point —
//! mid-leg, mid-snapshot, in the admit window, between a job's final
//! snapshot and its result marker — recovers on restart to a state from
//! which every admitted job completes with a final snapshot byte-identical
//! to a run that never crashed.

pub mod protocol;
pub mod runner;
pub mod server;
pub mod store;

pub use protocol::{parse_request, read_line_capped, ReadLine, Request};
pub use runner::{run_job, JobPaths, JobReport, JobSpec};
pub use server::{serve, ServeConfig, ServerHandle};
pub use store::{Finished, JobResult, JobStore, ScanReport, StoredJob};
