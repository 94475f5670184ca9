//! Runtime guardrails for chase runs: budgets with wall-clock and memory
//! ceilings, cooperative cancellation, and attributable stop reasons.
//!
//! The termination procedures only make sense when *non*-termination is
//! observable and survivable: a chase run must be stoppable — by step
//! count, by atom count, by wall-clock deadline, by memory ceiling, or by
//! an external cancellation signal — and every stop must be attributable
//! to a concrete [`StopReason`]. Experiment populations run thousands of
//! budgeted chase instances; production workloads need a run to die
//! cleanly when it outgrows its slot, not to take the process with it.
//!
//! All limits are *cooperative*: the [`crate::ChaseMachine`] hot loop
//! checks them between trigger applications, so a stopped run is always
//! left at a step boundary with a consistent instance, queue, and
//! derivation DAG — exactly the state [`crate::Checkpoint`] captures.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Budget limiting a chase run.
///
/// `max_applications` and `max_atoms` bound logical work; `max_wall`
/// bounds wall-clock time from the moment [`crate::ChaseMachine::run`] is
/// entered; `max_memory` bounds the *approximate* resident size of the
/// machine (instance + pending-trigger queue + trigger-identity set, in
/// bytes — an estimate from element counts and arities, not an allocator
/// measurement).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum number of trigger applications.
    pub max_applications: u64,
    /// Maximum number of atoms in the instance.
    pub max_atoms: usize,
    /// Wall-clock deadline for a single `run` call, if any.
    pub max_wall: Option<Duration>,
    /// Approximate memory ceiling in bytes, if any.
    pub max_memory: Option<usize>,
}

impl Budget {
    /// A budget with the given application cap and no other limits.
    pub fn applications(n: u64) -> Self {
        Budget { max_applications: n, ..Budget::unlimited() }
    }

    /// A budget with no limits at all (the chase runs to saturation or
    /// forever). Combine with the builder methods below.
    pub fn unlimited() -> Self {
        Budget {
            max_applications: u64::MAX,
            max_atoms: usize::MAX,
            max_wall: None,
            max_memory: None,
        }
    }

    /// Sets a wall-clock deadline.
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.max_wall = Some(limit);
        self
    }

    /// Sets a wall-clock deadline in milliseconds.
    pub fn with_timeout_ms(self, ms: u64) -> Self {
        self.with_wall_clock(Duration::from_millis(ms))
    }

    /// Sets an approximate memory ceiling in bytes.
    pub fn with_memory(mut self, bytes: usize) -> Self {
        self.max_memory = Some(bytes);
        self
    }

    /// Sets an atom-count ceiling.
    pub fn with_atoms(mut self, atoms: usize) -> Self {
        self.max_atoms = atoms;
        self
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget { max_applications: 100_000, max_atoms: 1_000_000, max_wall: None, max_memory: None }
    }
}

/// Why a chase run stopped.
///
/// Exactly one reason is reported per `run` call. `Saturated` is the only
/// "the chase finished" reason; every other variant identifies the
/// guardrail that tripped first, so callers (and process exit codes) can
/// distinguish "model computed" from "budget spent" from "operator said
/// stop".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// No unconsidered trigger remains: the chase terminated and the
    /// instance is a universal model.
    Saturated,
    /// The trigger-application cap was reached.
    Applications,
    /// The instance hit the atom-count ceiling.
    Atoms,
    /// The wall-clock deadline passed.
    WallClock,
    /// The approximate memory ceiling was exceeded.
    Memory,
    /// A [`CancelToken`] was triggered.
    Cancelled,
    /// A snapshot publication failed; the durable run
    /// ([`crate::checkpoint::run_durable`]) stopped at the leg boundary,
    /// leaving the previously published snapshot in place.
    Io,
}

impl StopReason {
    /// Whether the chase actually finished (vs. being cut off).
    #[inline]
    pub fn is_saturated(self) -> bool {
        matches!(self, StopReason::Saturated)
    }

    /// Whether the run was cut off before saturation (by any guardrail).
    #[inline]
    pub fn exhausted(self) -> bool {
        !self.is_saturated()
    }

    /// A stable lowercase keyword for logs, checkpoints, and the CLI.
    pub fn keyword(self) -> &'static str {
        match self {
            StopReason::Saturated => "saturated",
            StopReason::Applications => "applications",
            StopReason::Atoms => "atoms",
            StopReason::WallClock => "wall-clock",
            StopReason::Memory => "memory",
            StopReason::Cancelled => "cancelled",
            StopReason::Io => "io",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A cooperative cancellation signal, checked by the chase hot loop
/// between trigger applications.
///
/// Clone the token freely: all clones share one flag, so a controller
/// thread (a timeout supervisor, a signal handler, an experiment driver
/// tearing down a population) can stop a run owned by another thread.
/// Cancellation is sticky — a cancelled token stays cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signals cancellation to every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been signalled.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Approximate heap cost of one instance atom of the given arity: the
/// arena copy, the dedup-index key copy, and the per-position postings.
#[inline]
pub(crate) fn approx_atom_bytes(arity: usize) -> usize {
    96 + 32 * arity
}

/// Approximate heap cost of one pending trigger (rule index plus a
/// substitution over the rule's variables).
#[inline]
pub(crate) fn approx_trigger_bytes(var_count: usize) -> usize {
    48 + 8 * var_count
}

/// Approximate heap cost of one trigger-identity entry.
#[inline]
pub(crate) fn approx_identity_bytes(key_len: usize) -> usize {
    48 + 8 * key_len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builders_compose() {
        let b = Budget::applications(10).with_timeout_ms(250).with_memory(1 << 20).with_atoms(99);
        assert_eq!(b.max_applications, 10);
        assert_eq!(b.max_atoms, 99);
        assert_eq!(b.max_wall, Some(Duration::from_millis(250)));
        assert_eq!(b.max_memory, Some(1 << 20));

        let u = Budget::unlimited();
        assert_eq!(u.max_applications, u64::MAX);
        assert_eq!(u.max_atoms, usize::MAX);
        assert!(u.max_wall.is_none() && u.max_memory.is_none());
    }

    #[test]
    fn default_budget_matches_historical_limits() {
        let d = Budget::default();
        assert_eq!(d.max_applications, 100_000);
        assert_eq!(d.max_atoms, 1_000_000);
        assert!(d.max_wall.is_none() && d.max_memory.is_none());
    }

    #[test]
    fn stop_reason_classification() {
        assert!(StopReason::Saturated.is_saturated());
        for r in [
            StopReason::Applications,
            StopReason::Atoms,
            StopReason::WallClock,
            StopReason::Memory,
            StopReason::Cancelled,
            StopReason::Io,
        ] {
            assert!(r.exhausted(), "{r}");
            assert!(!r.is_saturated(), "{r}");
        }
        assert_eq!(StopReason::WallClock.to_string(), "wall-clock");
        assert_eq!(StopReason::Io.to_string(), "io");
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled() && clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
    }
}
