//! Structured event tracing for chase runs.
//!
//! A [`TraceSink`] receives a stream of [`TraceEvent`]s describing a run —
//! triggers admitted/deduplicated/skipped, applications, atom insertions
//! with provenance, stops, checkpoint writes/resumes, and guard trips.
//! Tracing is strictly **observational**: a traced run performs exactly
//! the same state transitions as an untraced one, bit for bit, and when no
//! sink is installed the machine pays nothing (event construction is
//! deferred behind a closure that is never called).
//!
//! ## Event classes and sequence numbers
//!
//! Events come in three classes:
//!
//! * **Core** events mirror the deterministic chase transitions one-to-one:
//!   every core event corresponds to exactly one [`ChaseStats`] counter
//!   increment (`TriggerAdmitted` ↔ `triggers_enqueued`, `TriggerDeduped` ↔
//!   `triggers_deduped`, `TriggerSkipped` ↔ `satisfied_skips`, `Applied` ↔
//!   `applications`, `AtomInserted` ↔ `atoms_added`). Each consumes one
//!   **sequence number**. Because the next sequence number is a pure
//!   function of the stats ([`core_seq`]), a resumed run continues the
//!   numbering without the checkpoint format carrying any trace state.
//! * **Lifecycle** events (`Stop`, `CheckpointWrite`, `CheckpointResume`)
//!   annotate run boundaries. They reuse the current sequence number
//!   without consuming one.
//! * **Execution** events (`GuardTrip`) describe *how* the run was
//!   executed — guard poll outcomes. They are timing-dependent, so the
//!   default [`JsonlSink`] excludes them; opt in with [`JsonlSink::full`].
//!
//! ## Wall-clock-free core
//!
//! No event carries a timestamp. Periodic human-readable progress
//! reporting (which genuinely needs wall time) lives in a separate
//! machine-side callback installed with `ChaseMachine::set_progress`; it
//! runs inside the existing guard-poll cadence and never touches the
//! deterministic state.
//!
//! [`ChaseStats`]: crate::ChaseStats

use std::io::Write;

use crate::chase::ChaseStats;
use crate::guard::StopReason;
use crate::serve::protocol::{parse_object, Value};
use chasekit_core::Program;

/// One structured chase event. See the module docs for the class taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Core: a candidate trigger passed identity dedup and was enqueued.
    TriggerAdmitted {
        /// Rule index of the trigger.
        rule: usize,
    },
    /// Core: a candidate trigger was dropped — its identity was seen.
    TriggerDeduped {
        /// Rule index of the trigger.
        rule: usize,
    },
    /// Core: a restricted-chase trigger was skipped at dequeue time
    /// because its head was already satisfied.
    TriggerSkipped {
        /// Rule index of the trigger.
        rule: usize,
    },
    /// Core: a trigger was applied.
    Applied {
        /// Application number (the machine's step counter, 0-based).
        app: u64,
        /// Rule index that fired.
        rule: usize,
        /// Head images that were new atoms.
        new_atoms: usize,
        /// Head images that already existed.
        duplicates: usize,
    },
    /// Core: an application inserted a new atom (provenance: which rule,
    /// which application).
    AtomInserted {
        /// Dense id of the inserted atom.
        atom: u32,
        /// Predicate id of the atom.
        pred: u32,
        /// Rule index that produced it.
        rule: usize,
        /// Application number that produced it.
        app: u64,
    },
    /// Lifecycle: the run stopped.
    Stop {
        /// Why it stopped.
        reason: StopReason,
        /// Applications performed so far.
        applications: u64,
        /// Instance size at the stop.
        atoms: usize,
    },
    /// Lifecycle: the run state was written to a checkpoint file.
    CheckpointWrite {
        /// Applications at the snapshot.
        applications: u64,
        /// Instance size at the snapshot.
        atoms: usize,
        /// Pending triggers at the snapshot.
        pending: usize,
    },
    /// Lifecycle: the run was resumed from a checkpoint file.
    CheckpointResume {
        /// Applications restored.
        applications: u64,
        /// Instance size restored.
        atoms: usize,
        /// Pending triggers restored.
        pending: usize,
    },
    /// Lifecycle: an incremental update retracted a base fact and
    /// overdeleted its derivation cone.
    Retract {
        /// Atoms deleted (the base fact plus its cone).
        atoms: usize,
        /// Applications invalidated (their matches touched the cone).
        apps: usize,
    },
    /// Lifecycle: the delete-and-rederive pass re-admitted the cone's
    /// triggers that still have a body match and restored the heads of
    /// applications outside the cone.
    Rederive {
        /// Cone applications whose trigger was re-admitted.
        apps: usize,
        /// Head atoms of applications outside the cone restored.
        atoms: usize,
    },
    /// Lifecycle: an edit script was applied to the machine.
    EditApply {
        /// `add` edits applied.
        adds: usize,
        /// `retract` edits applied.
        retracts: usize,
    },
    /// Execution: a guard poll tripped (budget, deadline, memory ceiling,
    /// or cancellation).
    GuardTrip {
        /// The guardrail that tripped.
        reason: StopReason,
    },
}

impl TraceEvent {
    /// Whether this is a core event (consumes a sequence number and
    /// mirrors one deterministic state transition).
    pub fn is_core(&self) -> bool {
        matches!(
            self,
            TraceEvent::TriggerAdmitted { .. }
                | TraceEvent::TriggerDeduped { .. }
                | TraceEvent::TriggerSkipped { .. }
                | TraceEvent::Applied { .. }
                | TraceEvent::AtomInserted { .. }
        )
    }

    /// Whether this is an execution event (timing-dependent; excluded
    /// from default JSONL traces).
    fn is_execution(&self) -> bool {
        matches!(self, TraceEvent::GuardTrip { .. })
    }
}

/// The sequence number the next core event will carry, as a pure function
/// of the run statistics. This is what lets `--trace` + `--checkpoint`
/// resume with contiguous numbering: the stats are checkpointed, the trace
/// counter is derived.
pub fn core_seq(stats: &ChaseStats) -> u64 {
    stats.applications
        + stats.atoms_added
        + stats.triggers_enqueued
        + stats.triggers_deduped
        + stats.satisfied_skips
}

/// A consumer of trace events. Implementations must be cheap: `record` is
/// called from the chase hot loop (only when a sink is installed).
pub trait TraceSink: Send {
    /// Receives one event with its sequence number.
    fn record(&mut self, seq: u64, event: &TraceEvent);
    /// Flushes any buffered output. Called at run boundaries.
    fn flush(&mut self) {}
}

/// The machine's handle on an installed sink: the sink plus the sink-local
/// sequence counter (initialized from [`core_seq`] of the stats at
/// installation time).
pub(crate) struct TraceHandle {
    sink: Box<dyn TraceSink>,
    next_seq: u64,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle").field("next_seq", &self.next_seq).finish()
    }
}

impl TraceHandle {
    pub(crate) fn new(sink: Box<dyn TraceSink>, next_seq: u64) -> Self {
        TraceHandle { sink, next_seq }
    }

    /// Records a core event, consuming a sequence number.
    pub(crate) fn core(&mut self, event: TraceEvent) {
        debug_assert!(event.is_core());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sink.record(seq, &event);
    }

    /// Records a lifecycle or execution event at the current sequence
    /// number (no number is consumed).
    pub(crate) fn note(&mut self, event: TraceEvent) {
        debug_assert!(!event.is_core());
        self.sink.record(self.next_seq, &event);
    }

    pub(crate) fn flush(&mut self) {
        self.sink.flush();
    }
}

/// A sink that writes one flat JSON object per event (JSONL). The schema
/// is fixed and closed — see [`validate_trace_line`], which rejects
/// unknown fields and kinds.
///
/// By default only core and lifecycle events are written, which makes the
/// output a deterministic function of the run; [`JsonlSink::full`] also
/// writes execution events (guard trips).
pub struct JsonlSink<W: Write + Send> {
    out: W,
    full: bool,
    /// Predicate names, indexed by `PredId`, captured at construction so
    /// atom events carry readable provenance.
    pred_names: Vec<String>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A default-mode sink over `out` (core + lifecycle events only).
    pub fn new(out: W, program: &Program) -> Self {
        let pred_names = (0..program.vocab.pred_count())
            .map(|i| program.vocab.pred_name(chasekit_core::PredId(i as u32)).to_string())
            .collect();
        JsonlSink { out, full: false, pred_names }
    }

    /// Switches the sink to full mode (execution events included).
    pub fn full(mut self) -> Self {
        self.full = true;
        self
    }

    /// Unwraps the writer (flushing first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    fn pred_name(&self, pred: u32) -> &str {
        self.pred_names.get(pred as usize).map(String::as_str).unwrap_or("?")
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, seq: u64, event: &TraceEvent) {
        if event.is_execution() && !self.full {
            return;
        }
        let line = match event {
            TraceEvent::TriggerAdmitted { rule } => {
                format!("{{\"seq\":{seq},\"ev\":\"admit\",\"rule\":{rule}}}")
            }
            TraceEvent::TriggerDeduped { rule } => {
                format!("{{\"seq\":{seq},\"ev\":\"dedup\",\"rule\":{rule}}}")
            }
            TraceEvent::TriggerSkipped { rule } => {
                format!("{{\"seq\":{seq},\"ev\":\"skip\",\"rule\":{rule}}}")
            }
            TraceEvent::Applied { app, rule, new_atoms, duplicates } => format!(
                "{{\"seq\":{seq},\"ev\":\"apply\",\"app\":{app},\"rule\":{rule},\
                 \"new\":{new_atoms},\"dup\":{duplicates}}}"
            ),
            TraceEvent::AtomInserted { atom, pred, rule, app } => format!(
                "{{\"seq\":{seq},\"ev\":\"atom\",\"id\":{atom},\"pred\":{},\
                 \"rule\":{rule},\"app\":{app}}}",
                chasekit_core::display::json_string(self.pred_name(*pred))
            ),
            TraceEvent::Stop { reason, applications, atoms } => format!(
                "{{\"seq\":{seq},\"ev\":\"stop\",\"reason\":{},\
                 \"apps\":{applications},\"atoms\":{atoms}}}",
                chasekit_core::display::json_string(reason.keyword())
            ),
            TraceEvent::CheckpointWrite { applications, atoms, pending } => format!(
                "{{\"seq\":{seq},\"ev\":\"ckpt-write\",\"apps\":{applications},\
                 \"atoms\":{atoms},\"pending\":{pending}}}"
            ),
            TraceEvent::CheckpointResume { applications, atoms, pending } => format!(
                "{{\"seq\":{seq},\"ev\":\"ckpt-resume\",\"apps\":{applications},\
                 \"atoms\":{atoms},\"pending\":{pending}}}"
            ),
            TraceEvent::Retract { atoms, apps } => {
                format!("{{\"seq\":{seq},\"ev\":\"retract\",\"atoms\":{atoms},\"apps\":{apps}}}")
            }
            TraceEvent::Rederive { apps, atoms } => {
                format!("{{\"seq\":{seq},\"ev\":\"rederive\",\"apps\":{apps},\"atoms\":{atoms}}}")
            }
            TraceEvent::EditApply { adds, retracts } => {
                format!("{{\"seq\":{seq},\"ev\":\"edit\",\"adds\":{adds},\"retracts\":{retracts}}}")
            }
            TraceEvent::GuardTrip { reason } => format!(
                "{{\"seq\":{seq},\"ev\":\"guard\",\"reason\":{}}}",
                chasekit_core::display::json_string(reason.keyword())
            ),
        };
        let _ = writeln!(self.out, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Fans one event stream out to several sinks (e.g. `--trace` and
/// `--metrics` together).
pub struct MultiSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl MultiSink {
    /// A sink forwarding to every sink in `sinks`, in order.
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        MultiSink { sinks }
    }
}

impl TraceSink for MultiSink {
    fn record(&mut self, seq: u64, event: &TraceEvent) {
        for sink in &mut self.sinks {
            sink.record(seq, event);
        }
    }

    fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

/// A periodic progress report, produced on the guard-poll cadence of a
/// running machine when a progress callback is installed.
#[derive(Debug, Clone)]
pub struct ProgressReport {
    /// Applications performed so far.
    pub applications: u64,
    /// Current instance size.
    pub atoms: usize,
    /// Pending (not yet considered) triggers.
    pub pending: usize,
    /// Approximate resident bytes of the machine.
    pub approx_bytes: usize,
    /// Seconds since the run (or resume) started.
    pub elapsed_secs: f64,
    /// Applications per second over the whole run so far.
    pub apps_per_sec: f64,
}

/// The machine-side progress meter: interval, clock, and callback. Lives
/// outside the deterministic core — it reads the wall clock, but only in
/// the guard-poll blocks, and never writes machine state.
pub(crate) struct ProgressMeter {
    every: std::time::Duration,
    started: std::time::Instant,
    last: std::time::Instant,
    base_applications: u64,
    callback: Box<dyn FnMut(&ProgressReport) + Send>,
}

impl std::fmt::Debug for ProgressMeter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressMeter").field("every", &self.every).finish()
    }
}

impl ProgressMeter {
    pub(crate) fn new(
        every: std::time::Duration,
        base_applications: u64,
        callback: Box<dyn FnMut(&ProgressReport) + Send>,
    ) -> Self {
        let now = std::time::Instant::now();
        ProgressMeter { every, started: now, last: now, base_applications, callback }
    }

    /// Fires the callback if the interval has elapsed since the last fire.
    pub(crate) fn poll(
        &mut self,
        applications: u64,
        atoms: usize,
        pending: usize,
        approx_bytes: usize,
    ) {
        let now = std::time::Instant::now();
        if now.duration_since(self.last) < self.every {
            return;
        }
        self.last = now;
        let elapsed_secs = now.duration_since(self.started).as_secs_f64();
        let done = applications.saturating_sub(self.base_applications);
        let apps_per_sec = if elapsed_secs > 0.0 { done as f64 / elapsed_secs } else { 0.0 };
        (self.callback)(&ProgressReport {
            applications,
            atoms,
            pending,
            approx_bytes,
            elapsed_secs,
            apps_per_sec,
        });
    }
}

/// The closed trace-line schema: for each event kind, the exact field set
/// (beyond `seq` and `ev`) and whether each field is a string.
const SCHEMA: &[(&str, &[(&str, bool)])] = &[
    ("admit", &[("rule", false)]),
    ("dedup", &[("rule", false)]),
    ("skip", &[("rule", false)]),
    ("apply", &[("app", false), ("rule", false), ("new", false), ("dup", false)]),
    ("atom", &[("id", false), ("pred", true), ("rule", false), ("app", false)]),
    ("stop", &[("reason", true), ("apps", false), ("atoms", false)]),
    ("ckpt-write", &[("apps", false), ("atoms", false), ("pending", false)]),
    ("ckpt-resume", &[("apps", false), ("atoms", false), ("pending", false)]),
    ("retract", &[("atoms", false), ("apps", false)]),
    ("rederive", &[("apps", false), ("atoms", false)]),
    ("edit", &[("adds", false), ("retracts", false)]),
    ("guard", &[("reason", true)]),
];

/// Validates one JSONL trace line against the closed schema: the line must
/// be a flat JSON object, its `ev` must be a known kind, and its field set
/// must be *exactly* the kind's schema (unknown fields fail — this is the
/// guard against silent schema drift). Returns the event kind on success.
///
/// The line is read with the serve protocol's flat-JSON parser
/// ([`parse_object`]), which decodes every escape `json_string` writes.
pub fn validate_trace_line(line: &str) -> Result<&'static str, String> {
    let fields = parse_object(line)?;
    let mut seq_seen = false;
    let mut kind: Option<&str> = None;
    for (key, value) in &fields {
        match key.as_str() {
            "seq" => {
                if !matches!(value, Value::Num(_)) {
                    return Err("`seq` must be a number".into());
                }
                seq_seen = true;
            }
            "ev" => match value {
                Value::Str(s) => kind = Some(s),
                Value::Num(_) => return Err("`ev` must be a string".into()),
            },
            _ => {}
        }
    }
    if !seq_seen {
        return Err("missing `seq` field".into());
    }
    let kind = kind.ok_or("missing `ev` field")?;
    let (schema_kind, expected) = SCHEMA
        .iter()
        .find(|(k, _)| *k == kind)
        .ok_or_else(|| format!("unknown event kind {kind:?}"))?;
    for (key, value) in &fields {
        if key == "seq" || key == "ev" {
            continue;
        }
        let Some((_, is_string)) = expected.iter().find(|(k, _)| k == key) else {
            return Err(format!("unknown field {key:?} on event kind {kind:?}"));
        };
        let got_string = matches!(value, Value::Str(_));
        if got_string != *is_string {
            return Err(format!(
                "field {key:?} on {kind:?} must be a {}",
                if *is_string { "string" } else { "number" }
            ));
        }
    }
    for (key, _) in *expected {
        if !fields.iter().any(|(k, _)| k == key) {
            return Err(format!("missing field {key:?} on event kind {kind:?}"));
        }
    }
    Ok(schema_kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_lines_pass_the_schema() {
        for line in [
            r#"{"seq":0,"ev":"admit","rule":1}"#,
            r#"{"seq":3,"ev":"dedup","rule":0}"#,
            r#"{"seq":4,"ev":"skip","rule":2}"#,
            r#"{"seq":5,"ev":"apply","app":1,"rule":0,"new":2,"dup":0}"#,
            r#"{"seq":6,"ev":"atom","id":7,"pred":"person","rule":0,"app":1}"#,
            r#"{"seq":9,"ev":"stop","reason":"applications","apps":12,"atoms":25}"#,
            r#"{"seq":9,"ev":"ckpt-write","apps":12,"atoms":25,"pending":3}"#,
            r#"{"seq":0,"ev":"ckpt-resume","apps":12,"atoms":25,"pending":3}"#,
            r#"{"seq":4,"ev":"retract","atoms":3,"apps":2}"#,
            r#"{"seq":4,"ev":"rederive","apps":1,"atoms":2}"#,
            r#"{"seq":7,"ev":"edit","adds":2,"retracts":1}"#,
            r#"{"seq":9,"ev":"guard","reason":"wall-clock"}"#,
            // String fields carry whatever escapes `json_string` writes.
            r#"{"seq":6,"ev":"atom","id":7,"pred":"odd\nname\u0001","rule":0,"app":1}"#,
        ] {
            validate_trace_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn unknown_fields_and_kinds_fail() {
        assert!(validate_trace_line(r#"{"seq":0,"ev":"admit","rule":1,"extra":2}"#).is_err());
        assert!(validate_trace_line(r#"{"seq":0,"ev":"frobnicate"}"#).is_err());
        assert!(validate_trace_line(r#"{"seq":0,"ev":"admit"}"#).is_err(), "missing field");
        assert!(validate_trace_line(r#"{"ev":"admit","rule":1}"#).is_err(), "missing seq");
        assert!(validate_trace_line(r#"{"seq":0,"ev":"admit","rule":"one"}"#).is_err());
        assert!(validate_trace_line(r#"not json"#).is_err());
        assert!(
            validate_trace_line(r#"{"seq":0,"ev":"admit","rule":1,"rule":1}"#).is_err(),
            "duplicate field"
        );
    }

    #[test]
    fn core_seq_counts_core_events() {
        let stats = ChaseStats {
            applications: 3,
            atoms_added: 5,
            duplicate_atoms: 9,
            triggers_enqueued: 7,
            triggers_deduped: 2,
            satisfied_skips: 1,
            nulls_minted: 4,
        };
        // duplicate_atoms and nulls_minted do not produce events.
        assert_eq!(core_seq(&stats), 3 + 5 + 7 + 2 + 1);
    }
}
