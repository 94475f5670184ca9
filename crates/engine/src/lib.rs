//! # chasekit-engine
//!
//! Chase engines over the `chasekit-core` data model: the **oblivious**,
//! **semi-oblivious**, and **restricted** chase with fair FIFO scheduling,
//! budgets, derivation tracking, and Skolem-cyclicity tracking (the
//! ingredient of model-faithful acyclicity).
//!
//! The stepwise [`ChaseMachine`] is what the termination procedures drive;
//! [`fn@chase`] and [`chase_facts`] are one-shot conveniences.
//!
//! ```
//! use chasekit_core::Program;
//! use chasekit_engine::{chase_facts, Budget, ChaseVariant, StopReason};
//!
//! // Paper, Example 2: diverges under every chase variant.
//! let p = Program::parse("p(a, b). p(X, Y) -> p(Y, Z).").unwrap();
//! let run = chase_facts(&p, ChaseVariant::SemiOblivious, &Budget::applications(50));
//! assert_eq!(run.outcome, StopReason::Applications);
//! assert!(run.outcome.exhausted());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chase;
pub mod checkpoint;
pub mod derivation;
pub mod dot;
pub mod failpoint;
pub mod guard;
pub mod incremental;
pub mod metrics;
pub mod serve;
pub mod trace;
pub mod variant;

pub use chase::{
    chase, chase_facts, contains_instance, initial_instance, is_model, ChaseConfig, ChaseMachine,
    ChaseResult, ChaseStats, RoundStats, Scheduling, StepEvent,
};
pub use checkpoint::{
    crc32, finish_durable, open_durable, publish_snapshot, remove_snapshot, run_durable,
    write_snapshot_atomic, Checkpoint, CheckpointError,
};
pub use derivation::{Application, DerivationDag};
pub use dot::derivation_to_dot;
pub use guard::{Budget, CancelToken, StopReason};
pub use incremental::{
    canonical_form, check_support, edited_program, parse_edit_script, Edit, RetractOutcome,
    UpdateError, UpdateReport,
};
pub use metrics::{Histogram, MetricsRegistry, MetricsSink, RuleMetrics};
pub use serve::{serve, JobReport, JobSpec, ServeConfig, ServerHandle};
pub use trace::{
    core_seq, validate_trace_line, JsonlSink, MultiSink, ProgressReport, TraceEvent, TraceSink,
};
pub use variant::ChaseVariant;
