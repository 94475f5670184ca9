//! The chase machine: a fair, stepwise executor for all chase variants.
//!
//! The machine keeps a FIFO queue of pending triggers (fairness: every
//! trigger that arises is eventually considered) and a per-variant identity
//! set so that each trigger is applied at most once. New triggers are
//! discovered incrementally: when an atom is added, only body atoms with the
//! matching predicate are re-matched, pinned to the new atom.
//!
//! Budgets make non-termination observable: a run either **saturates**
//! (terminating chase — the result is a universal model) or stops at a
//! guardrail (the caller decides what that means; the termination
//! procedures pair budgets with divergence certificates). Every stop is
//! attributed to a [`StopReason`]; budgets, deadlines, memory ceilings,
//! and cancellation live in [`crate::guard`].

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::time::Instant;

use chasekit_core::{
    exists_extension, exists_extension_scratch, for_each_hom, for_each_hom_scratch, AtomId,
    CriticalInstance, FxHashMap, FxHashSet, Instance, MatchScratch, NullId, Program,
    Substitution, Term,
};

use crate::derivation::{Application, DerivationDag};
use crate::guard::{
    approx_atom_bytes, approx_identity_bytes, approx_trigger_bytes, Budget, CancelToken,
    StopReason,
};
use crate::trace::{core_seq, ProgressMeter, ProgressReport, TraceEvent, TraceHandle, TraceSink};
use crate::variant::ChaseVariant;

/// Static configuration of a chase machine.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// Which chase variant to run.
    pub variant: ChaseVariant,
    /// Record the derivation DAG (needed by the guarded termination
    /// procedure; costs memory proportional to the run).
    pub track_derivation: bool,
    /// Track Skolem-term ancestry of nulls and flag *cyclic* terms (a null
    /// whose Skolem function symbol occurs in its own ancestry). Used by
    /// model-faithful acyclicity (MFA).
    pub track_skolem: bool,
    /// Trigger scheduling policy. Irrelevant for the oblivious and
    /// semi-oblivious chase (their termination is order-independent,
    /// CT∀ = CT∃), but the **restricted** chase is order-dependent:
    /// different fair orders can terminate or diverge on the same input.
    /// `Random` draws the next trigger uniformly (seeded xorshift; fair
    /// with probability 1), which lets experiments explore CT∃ behaviour.
    pub scheduling: Scheduling,
}

/// Trigger scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// First-in-first-out: the canonical deterministic fair order.
    Fifo,
    /// Uniform random selection among pending triggers, seeded.
    Random(u64),
}

impl ChaseConfig {
    /// Configuration for a plain run of the given variant.
    pub fn of(variant: ChaseVariant) -> Self {
        ChaseConfig {
            variant,
            track_derivation: false,
            track_skolem: false,
            scheduling: Scheduling::Fifo,
        }
    }

    /// Switches to seeded random trigger scheduling.
    pub fn with_random_scheduling(mut self, seed: u64) -> Self {
        self.scheduling = Scheduling::Random(seed);
        self
    }

    /// Enables derivation tracking.
    pub fn with_derivation(mut self) -> Self {
        self.track_derivation = true;
        self
    }

    /// Enables Skolem cyclicity tracking.
    pub fn with_skolem(mut self) -> Self {
        self.track_skolem = true;
        self
    }
}

/// Counters describing a chase run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ChaseStats {
    /// Trigger applications performed.
    pub applications: u64,
    /// Atoms added (beyond the initial instance).
    pub atoms_added: u64,
    /// Head-atom images that already existed.
    pub duplicate_atoms: u64,
    /// Triggers enqueued (after identity dedup).
    pub triggers_enqueued: u64,
    /// Candidate triggers dropped because their identity was already seen.
    pub triggers_deduped: u64,
    /// Restricted chase only: triggers skipped because the head was
    /// already satisfied.
    pub satisfied_skips: u64,
    /// Nulls minted.
    pub nulls_minted: u64,
}

/// The four counters the benchmark harness reads from
/// [`ChaseMachine::round_stats`]; always zero (see there).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// Rounds driven.
    pub rounds: u64,
    /// Rounds fanned out to worker threads.
    pub parallel_rounds: u64,
    /// Discovery work items processed.
    pub work_items: u64,
    /// Widest pending frontier at a round start.
    pub max_frontier: usize,
}

/// One applied chase step.
#[derive(Debug, Clone)]
pub struct StepEvent {
    /// Sequence number of the application.
    pub seq: u64,
    /// Atoms the application added (may be empty for duplicate head images).
    pub new_atoms: Vec<AtomId>,
}

#[derive(Debug)]
pub(crate) struct Trigger {
    pub(crate) rule: usize,
    pub(crate) subst: Substitution,
}

/// Skolem ancestry info for one null: its function tag `(rule, exvar)` and
/// the set of tags occurring in its arguments' ancestries.
#[derive(Debug, Clone)]
pub(crate) struct SkolemInfo {
    pub(crate) tag: u32,
    pub(crate) ancestry: FxHashSet<u32>,
}

/// A stepwise chase executor. See the module docs.
#[derive(Debug)]
pub struct ChaseMachine<'p> {
    pub(crate) program: &'p Program,
    pub(crate) config: ChaseConfig,
    pub(crate) instance: Instance,
    pub(crate) queue: VecDeque<Trigger>,
    pub(crate) seen: FxHashSet<(u32, Vec<Term>)>,
    pub(crate) derivation: DerivationDag,
    pub(crate) stats: ChaseStats,
    pub(crate) skolem: FxHashMap<NullId, SkolemInfo>,
    pub(crate) skolem_cyclic: Option<NullId>,
    pub(crate) next_seq: u64,
    pub(crate) rng_state: u64,
    /// Approximate resident bytes of instance + queue + identity set,
    /// maintained incrementally (see `guard::approx_*_bytes`).
    pub(crate) approx_bytes: usize,
    pub(crate) cancel: Option<CancelToken>,
    /// Installed trace sink, if any. Strictly observational: state
    /// transitions are identical with or without it (see [`crate::trace`]).
    pub(crate) trace: Option<TraceHandle>,
    /// Periodic progress reporter, polled on the guard-poll cadence.
    pub(crate) progress: Option<ProgressMeter>,
    /// Reusable matcher buffers for trigger discovery and satisfaction
    /// checks.
    pub(crate) scratch: MatchScratch,
    /// Reusable head-image argument buffer for [`apply`](Self::apply).
    pub(crate) args_buf: Vec<Term>,
    /// Triggers the restricted variant skipped as already satisfied,
    /// recorded only when `track_derivation` is on. Incremental retraction
    /// must re-open a skip whose satisfaction witness was deleted
    /// (see [`crate::incremental`]); untracked runs record nothing.
    pub(crate) skipped: Vec<Trigger>,
}

impl<'p> ChaseMachine<'p> {
    /// Creates a machine over `initial` and enqueues all initial triggers.
    pub fn new(program: &'p Program, config: ChaseConfig, initial: Instance) -> Self {
        Self::build(program, config, initial, None)
    }

    /// Creates a machine with `sink` installed *before* the initial trigger
    /// discovery, so the trace covers the initial admissions too (sequence
    /// numbers start at 0). For resuming a traced run from a checkpoint,
    /// use [`set_trace_sink`](Self::set_trace_sink) instead.
    pub fn new_with_trace(
        program: &'p Program,
        config: ChaseConfig,
        initial: Instance,
        sink: Box<dyn TraceSink>,
    ) -> Self {
        Self::build(program, config, initial, Some(TraceHandle::new(sink, 0)))
    }

    fn build(
        program: &'p Program,
        config: ChaseConfig,
        initial: Instance,
        trace: Option<TraceHandle>,
    ) -> Self {
        let initial_bytes: usize =
            initial.iter().map(|(_, a)| approx_atom_bytes(a.arity())).sum();
        let mut machine = ChaseMachine {
            program,
            config,
            instance: initial,
            queue: VecDeque::new(),
            seen: FxHashSet::default(),
            derivation: DerivationDag::new(),
            stats: ChaseStats::default(),
            skolem: FxHashMap::default(),
            skolem_cyclic: None,
            next_seq: 0,
            rng_state: match config.scheduling {
                Scheduling::Fifo => 0,
                // Avoid the all-zero fixpoint of xorshift.
                Scheduling::Random(seed) => seed | 1,
            },
            approx_bytes: initial_bytes,
            cancel: None,
            trace,
            progress: None,
            scratch: MatchScratch::default(),
            args_buf: Vec::new(),
            skipped: Vec::new(),
        };
        for rule_idx in 0..program.rules().len() {
            machine.enqueue_matches(rule_idx, None);
        }
        machine
    }

    /// Installs a cancellation token; [`run`](Self::run) checks it between
    /// trigger applications. Clone the token before installing it to keep a
    /// handle for the controlling thread.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Installs a trace sink on a machine mid-run (typically right after a
    /// checkpoint resume). The sink's sequence counter continues from
    /// [`core_seq`] of the current stats, so a trace split across an
    /// interrupt/resume concatenates with contiguous numbering.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(TraceHandle::new(sink, core_seq(&self.stats)));
    }

    /// Emits a lifecycle event (e.g. [`TraceEvent::CheckpointWrite`]) into
    /// the installed sink, at the current sequence number. No-op without a
    /// sink; core events are rejected (they are the machine's own).
    pub fn trace_note(&mut self, event: TraceEvent) {
        assert!(!event.is_core(), "core events are emitted by the machine itself");
        if let Some(t) = &mut self.trace {
            t.note(event);
        }
    }

    /// Flushes the installed trace sink, if any.
    pub fn flush_trace(&mut self) {
        if let Some(t) = &mut self.trace {
            t.flush();
        }
    }

    /// Installs a periodic progress callback, fired at most every `every`
    /// on the guard-poll cadence of [`run`](Self::run). Reads the wall
    /// clock but never touches deterministic state.
    pub fn set_progress(
        &mut self,
        every: std::time::Duration,
        callback: Box<dyn FnMut(&ProgressReport) + Send>,
    ) {
        self.progress = Some(ProgressMeter::new(every, self.stats.applications, callback));
    }

    /// Fires the progress callback if its interval elapsed.
    fn poll_progress(&mut self) {
        if let Some(p) = &mut self.progress {
            p.poll(
                self.stats.applications,
                self.instance.len(),
                self.queue.len(),
                self.approx_bytes,
            );
        }
    }

    /// The approximate resident size of the machine in bytes (instance +
    /// pending-trigger queue + trigger-identity set). An estimate from
    /// element counts and arities — cheap enough for the hot loop, not an
    /// allocator measurement.
    pub fn approx_memory_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Consumes the machine, returning the instance.
    pub fn into_instance(self) -> Instance {
        self.instance
    }

    /// The derivation DAG (empty unless `track_derivation` was set).
    pub fn derivation(&self) -> &DerivationDag {
        &self.derivation
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &ChaseStats {
        &self.stats
    }

    /// The first cyclic Skolem null found, if `track_skolem` was set and one
    /// occurred.
    pub fn skolem_cyclic(&self) -> Option<NullId> {
        self.skolem_cyclic
    }

    /// Number of pending (not yet considered) triggers.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Finds triggers for `rule_idx`, optionally pinned to a new atom, and
    /// enqueues the identity-fresh ones.
    pub(crate) fn enqueue_matches(&mut self, rule_idx: usize, pinned: Option<AtomId>) {
        let rule = &self.program.rules()[rule_idx];

        // Collect first (can't borrow self mutably inside the closure).
        let found: Vec<Substitution> = match pinned {
            None => {
                let mut found = Vec::new();
                for_each_hom_scratch(
                    rule.body(),
                    rule.var_count(),
                    &self.instance,
                    None,
                    None,
                    &mut self.scratch,
                    &mut |s| {
                        found.push(s.clone());
                        ControlFlow::Continue(())
                    },
                );
                found
            }
            Some(atom_id) => matches_pinned(
                self.program,
                &self.instance,
                rule_idx,
                atom_id,
                &mut self.scratch,
            ),
        };

        for subst in found {
            self.admit_trigger(rule_idx, subst);
        }
    }

    /// Admits one candidate trigger: dedups it against the identity set and
    /// enqueues it if fresh, updating stats and the memory estimate. Every
    /// discovered trigger passes through here, so admission order fully
    /// determines queue order, the identity set, and the enqueue/dedup
    /// counters.
    pub(crate) fn admit_trigger(&mut self, rule_idx: usize, subst: Substitution) {
        let rule = &self.program.rules()[rule_idx];
        let key = self.config.variant.trigger_key(rule, &subst);
        let key_len = key.len();
        if self.seen.insert((rule_idx as u32, key)) {
            self.stats.triggers_enqueued += 1;
            if let Some(t) = &mut self.trace {
                t.core(TraceEvent::TriggerAdmitted { rule: rule_idx });
            }
            self.approx_bytes +=
                approx_identity_bytes(key_len) + approx_trigger_bytes(subst.len());
            self.queue.push_back(Trigger { rule: rule_idx, subst });
        } else {
            self.stats.triggers_deduped += 1;
            if let Some(t) = &mut self.trace {
                t.core(TraceEvent::TriggerDeduped { rule: rule_idx });
            }
        }
    }

    /// Draws the next trigger according to the scheduling policy.
    fn next_trigger(&mut self) -> Option<Trigger> {
        let drawn = match self.config.scheduling {
            Scheduling::Fifo => self.queue.pop_front(),
            Scheduling::Random(_) => {
                if self.queue.is_empty() {
                    return None;
                }
                // xorshift64*
                let mut x = self.rng_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng_state = x;
                let idx = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) as usize) % self.queue.len();
                self.queue.swap_remove_back(idx)
            }
        };
        if let Some(t) = &drawn {
            self.approx_bytes =
                self.approx_bytes.saturating_sub(approx_trigger_bytes(t.subst.len()));
        }
        drawn
    }

    /// Applies the next applicable trigger. Returns `None` when no trigger
    /// remains (the chase is saturated).
    pub fn step(&mut self) -> Option<StepEvent> {
        loop {
            let trigger = self.next_trigger()?;
            if self.skip_if_satisfied(&trigger) {
                continue;
            }
            return Some(self.apply(trigger));
        }
    }

    /// The restricted chase's merge-time re-check: whether the trigger's
    /// head is already satisfied in the *current* instance (in which case
    /// it is counted as a skip). Always false for the (semi-)oblivious
    /// variants.
    fn skip_if_satisfied(&mut self, trigger: &Trigger) -> bool {
        let rule = &self.program.rules()[trigger.rule];
        if self.config.variant.checks_satisfaction()
            && exists_extension_scratch(
                rule.head(),
                rule.var_count(),
                &self.instance,
                &trigger.subst,
                &mut self.scratch,
            )
        {
            self.stats.satisfied_skips += 1;
            if self.config.track_derivation {
                // Remember the skip so incremental retraction can re-open
                // it if its satisfaction witness is later deleted (see
                // `crate::incremental`). Only derivation-tracked machines
                // are updatable, so untracked runs pay nothing.
                self.skipped.push(Trigger {
                    rule: trigger.rule,
                    subst: trigger.subst.clone(),
                });
                self.approx_bytes += approx_trigger_bytes(trigger.subst.len());
            }
            if let Some(t) = &mut self.trace {
                t.core(TraceEvent::TriggerSkipped { rule: trigger.rule });
            }
            true
        } else {
            false
        }
    }

    /// Applies one trigger unconditionally: extends the substitution with
    /// fresh nulls, inserts the head images, records derivation/Skolem
    /// state, and discovers the triggers the new atoms enable.
    fn apply(&mut self, trigger: Trigger) -> StepEvent {
        let rule = &self.program.rules()[trigger.rule];
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.applications += 1;

        // Capture the trigger's identity key before existential binding
        // (it is a projection onto universal variables only). Retraction
        // repair needs it to release `seen` entries for dead matches.
        let key = if self.config.track_derivation {
            self.config.variant.trigger_key(rule, &trigger.subst)
        } else {
            Vec::new()
        };

        // Extend the substitution with fresh nulls for the existentials.
        let mut subst = trigger.subst;
        let mut born = Vec::with_capacity(rule.existentials().len());
        for &ex in rule.existentials() {
            let null = self.instance.fresh_null();
            self.stats.nulls_minted += 1;
            born.push(null);
            subst.bind(ex, Term::Null(null));
        }

        let frontier: Vec<Term> = rule.frontier().iter().map(|&v| subst.get(v).unwrap()).collect();

        if self.config.track_skolem && !born.is_empty() {
            self.record_skolem(trigger.rule, rule.existentials(), &born, &frontier);
        }

        // Resolve parents before inserting new atoms.
        let (parents, primary_parent) = if self.config.track_derivation {
            let parents: Vec<AtomId> = rule
                .body()
                .iter()
                .map(|a| {
                    let image = subst.apply_atom(a);
                    self.instance
                        .id_of(&image)
                        .expect("body image must be in the instance")
                })
                .collect();
            // The primary parent anchors ancestor chains: the guard image
            // for guarded rules, the first body image otherwise.
            let primary = rule
                .guard_index()
                .map(|g| parents[g])
                .or_else(|| parents.first().copied());
            (parents, primary)
        } else {
            (Vec::new(), None)
        };

        let app_idx = if self.config.track_derivation {
            Some(self.derivation.push_application(Application {
                rule: trigger.rule,
                seq,
                parents,
                primary_parent,
                frontier,
                key,
                born_nulls: born,
                produced: Vec::new(),
            }))
        } else {
            // Null births still matter for the skolem/cyclicity machinery,
            // but that is tracked separately; nothing to record here.
            None
        };

        let mut new_atoms = Vec::new();
        let mut duplicates = 0usize;
        for head_atom in rule.head() {
            // Build the head image in the reusable buffer; `insert_terms`
            // copies it into the arena only when the atom is new.
            let mut args_buf = std::mem::take(&mut self.args_buf);
            args_buf.clear();
            args_buf.extend(head_atom.args.iter().map(|&t| subst.apply(t)));
            let arity = args_buf.len();
            let (id, is_new) = self.instance.insert_terms(head_atom.pred, &args_buf);
            self.args_buf = args_buf;
            if is_new {
                self.stats.atoms_added += 1;
                self.approx_bytes += approx_atom_bytes(arity);
                if let Some(app) = app_idx {
                    self.derivation.record_atom(id, app);
                }
                new_atoms.push(id);
            } else {
                self.stats.duplicate_atoms += 1;
                duplicates += 1;
            }
        }

        if let Some(t) = &mut self.trace {
            t.core(TraceEvent::Applied {
                app: seq,
                rule: trigger.rule,
                new_atoms: new_atoms.len(),
                duplicates,
            });
            for &id in &new_atoms {
                t.core(TraceEvent::AtomInserted {
                    atom: id.index() as u32,
                    pred: self.instance.atom(id).pred.0,
                    rule: trigger.rule,
                    app: seq,
                });
            }
        }

        // Discover triggers enabled by the new atoms.
        for &id in &new_atoms {
            for rule_idx in 0..self.program.rules().len() {
                self.enqueue_matches(rule_idx, Some(id));
            }
        }

        StepEvent { seq, new_atoms }
    }

    /// Records Skolem ancestry for freshly minted nulls and flags cyclic
    /// terms.
    fn record_skolem(
        &mut self,
        rule_idx: usize,
        exvars: &[chasekit_core::VarId],
        born: &[NullId],
        frontier: &[Term],
    ) {
        // Ancestry of the arguments: union over frontier nulls of
        // (their ancestry ∪ their own tag).
        let mut ancestry: FxHashSet<u32> = FxHashSet::default();
        for t in frontier {
            if let Term::Null(n) = *t {
                if let Some(info) = self.skolem.get(&n) {
                    ancestry.insert(info.tag);
                    ancestry.extend(info.ancestry.iter().copied());
                }
            }
        }
        for (i, &null) in born.iter().enumerate() {
            // Tag = (rule, existential variable), densely encoded.
            let tag = (rule_idx as u32) << 8 | (exvars[i].0 & 0xff);
            if ancestry.contains(&tag) && self.skolem_cyclic.is_none() {
                self.skolem_cyclic = Some(null);
            }
            self.skolem.insert(null, SkolemInfo { tag, ancestry: ancestry.clone() });
        }
    }

    /// Runs until saturation or the first guardrail: application cap, atom
    /// cap, wall-clock deadline, memory ceiling, or cancellation. Always
    /// stops at a step boundary, so the instance, queue, and derivation DAG
    /// stay consistent (and snapshot-able) whatever the reason.
    pub fn run(&mut self, budget: &Budget) -> StopReason {
        let stop = self.run_loop(budget);
        self.finish(stop)
    }

    /// Same as [`run`](Self::run); `threads` is ignored. The chase is one
    /// sequential run loop. This name stays only because the benchmark
    /// harness (`chasebench/harness/src/probe_round.rs`) still calls it.
    pub fn run_parallel(&mut self, budget: &Budget, _threads: usize) -> StopReason {
        self.run(budget)
    }

    /// Always all zero: there are no rounds to count. This stays only
    /// because the benchmark harness still reads it for its
    /// `engine.round.*` metrics.
    pub fn round_stats(&self) -> RoundStats {
        RoundStats::default()
    }

    fn run_loop(&mut self, budget: &Budget) -> StopReason {
        let start = Instant::now();
        // Wall-clock and memory are polled every `PERIOD` applications;
        // both are cheap, but not hot-loop cheap on microsecond steps.
        const PERIOD: u64 = 32;
        loop {
            if self.stats.applications >= budget.max_applications {
                return self.boundary(StopReason::Applications);
            }
            if self.instance.len() >= budget.max_atoms {
                return self.boundary(StopReason::Atoms);
            }
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return self.boundary(StopReason::Cancelled);
                }
            }
            if self.stats.applications.is_multiple_of(PERIOD) {
                if let Some(limit) = budget.max_wall {
                    if start.elapsed() >= limit {
                        return self.boundary(StopReason::WallClock);
                    }
                }
                if let Some(ceiling) = budget.max_memory {
                    if self.approx_bytes >= ceiling {
                        return self.boundary(StopReason::Memory);
                    }
                }
                self.poll_progress();
            }
            if self.step().is_none() {
                return StopReason::Saturated;
            }
        }
    }

    /// Closes a run for tracing purposes: a guardrail stop is noted as a
    /// guard-trip execution event, every stop as a lifecycle stop event,
    /// and the sink is flushed. State is untouched, so calling `run` again
    /// (a new leg of the same machine) simply appends to the trace.
    fn finish(&mut self, stop: StopReason) -> StopReason {
        if let Some(t) = &mut self.trace {
            if stop != StopReason::Saturated {
                t.note(TraceEvent::GuardTrip { reason: stop });
            }
            t.note(TraceEvent::Stop {
                reason: stop,
                applications: self.stats.applications,
                atoms: self.instance.len(),
            });
            t.flush();
        }
        stop
    }

    /// A guardrail tripped — but if no trigger is pending the chase in fact
    /// saturated exactly at the boundary, which takes precedence.
    fn boundary(&self, reason: StopReason) -> StopReason {
        if self.queue.is_empty() {
            StopReason::Saturated
        } else {
            reason
        }
    }
}

/// Candidate triggers for `rule_idx` pinned to `atom_id`, in the matcher's
/// deterministic enumeration order (body position, then join order).
fn matches_pinned(
    program: &Program,
    instance: &Instance,
    rule_idx: usize,
    atom_id: AtomId,
    scratch: &mut MatchScratch,
) -> Vec<Substitution> {
    let rule = &program.rules()[rule_idx];
    let pred = instance.atom(atom_id).pred;
    let mut found = Vec::new();
    for (body_idx, body_atom) in rule.body().iter().enumerate() {
        if body_atom.pred != pred {
            continue;
        }
        for_each_hom_scratch(
            rule.body(),
            rule.var_count(),
            instance,
            None,
            Some((body_idx, atom_id)),
            scratch,
            &mut |s| {
                found.push(s.clone());
                ControlFlow::Continue(())
            },
        );
    }
    found
}

/// Result of a one-shot chase run.
#[derive(Debug)]
pub struct ChaseResult {
    /// How the run ended.
    pub outcome: StopReason,
    /// The final (or partial, on budget exhaustion) instance.
    pub instance: Instance,
    /// Run statistics.
    pub stats: ChaseStats,
}

/// Convenience: runs the chase of `program` on `initial` to completion or
/// budget exhaustion.
pub fn chase(
    program: &Program,
    variant: ChaseVariant,
    initial: Instance,
    budget: &Budget,
) -> ChaseResult {
    let mut machine = ChaseMachine::new(program, ChaseConfig::of(variant), initial);
    let outcome = machine.run(budget);
    let stats = machine.stats().clone();
    ChaseResult { outcome, instance: machine.into_instance(), stats }
}

/// Convenience: chases a program's own facts.
pub fn chase_facts(
    program: &Program,
    variant: ChaseVariant,
    budget: &Budget,
) -> ChaseResult {
    let initial = Instance::from_atoms(program.facts().iter().cloned());
    chase(program, variant, initial, budget)
}

/// The instance a run of `program` starts from: its facts, or its critical
/// instance when it has none (building that interns the critical constant
/// into the program's vocabulary).
pub fn initial_instance(program: &mut Program) -> Instance {
    if program.facts().is_empty() {
        CriticalInstance::build(program).instance
    } else {
        Instance::from_atoms(program.facts().iter().cloned())
    }
}

/// Checks that `instance` is a model of the program's rules: every trigger
/// has its head satisfied. Used by tests to validate chase results.
pub fn is_model(program: &Program, instance: &Instance) -> bool {
    for rule in program.rules() {
        let mut ok = true;
        for_each_hom(rule.body(), rule.var_count(), instance, None, None, &mut |s| {
            if exists_extension(rule.head(), rule.var_count(), instance, s) {
                ControlFlow::Continue(())
            } else {
                ok = false;
                ControlFlow::Break(())
            }
        });
        if !ok {
            return false;
        }
    }
    true
}

/// Checks that `instance` contains every atom of `base` (the chase never
/// deletes).
pub fn contains_instance(instance: &Instance, base: &Instance) -> bool {
    base.iter().all(|(_, a)| instance.id_of_parts(a.pred, a.args).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chasekit_core::instance_hom_exists;

    fn facts(program: &Program) -> Instance {
        Instance::from_atoms(program.facts().iter().cloned())
    }

    /// Paper Example 1: person(X) -> hasFather(X, Y), person(Y). Diverges
    /// under every variant.
    #[test]
    fn example1_diverges_under_all_variants() {
        let p = Program::parse("person(X) -> hasFather(X, Y), person(Y). person(bob).").unwrap();
        for variant in [
            ChaseVariant::Oblivious,
            ChaseVariant::SemiOblivious,
            ChaseVariant::Restricted,
        ] {
            let r = chase(&p, variant, facts(&p), &Budget::applications(200));
            assert_eq!(r.outcome, StopReason::Applications, "{variant} should diverge");
            assert!(r.stats.applications >= 200);
        }
    }

    /// Paper Example 2: p(a,b), p(X,Y) -> ∃Z p(Y,Z). Diverges; the chase
    /// builds an infinite path.
    #[test]
    fn example2_diverges() {
        let p = Program::parse("p(a, b). p(X, Y) -> p(Y, Z).").unwrap();
        for variant in [
            ChaseVariant::Oblivious,
            ChaseVariant::SemiOblivious,
            ChaseVariant::Restricted,
        ] {
            let r = chase(&p, variant, facts(&p), &Budget::applications(100));
            assert_eq!(r.outcome, StopReason::Applications, "{variant} should diverge");
        }
    }

    /// r(X,Y) -> ∃Z r(X,Z): the classic separator — diverges obliviously,
    /// terminates semi-obliviously (frontier {X} never changes).
    #[test]
    fn oblivious_vs_semi_oblivious_separation() {
        let p = Program::parse("r(a, b). r(X, Y) -> r(X, Z).").unwrap();
        let o = chase(&p, ChaseVariant::Oblivious, facts(&p), &Budget::applications(100));
        assert_eq!(o.outcome, StopReason::Applications);

        let so = chase(&p, ChaseVariant::SemiOblivious, facts(&p), &Budget::applications(100));
        assert_eq!(so.outcome, StopReason::Saturated);
        // r(a,b) plus one invented r(a, z).
        assert_eq!(so.instance.len(), 2);
        assert!(is_model(&p, &so.instance));
    }

    /// p(x) -> ∃y e(x,y); e(x,y) -> p(x): terminates under o and so.
    #[test]
    fn terminating_cycle_without_null_growth() {
        let p = Program::parse("p(a). p(X) -> e(X, Y). e(X, Y) -> p(X).").unwrap();
        for variant in [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious] {
            let r = chase(&p, variant, facts(&p), &Budget::applications(100));
            assert_eq!(r.outcome, StopReason::Saturated, "{variant}");
            assert!(is_model(&p, &r.instance));
        }
    }

    /// Restricted chase terminates where (semi-)oblivious diverges:
    /// e(X,Y) -> ∃Z e(Y,Z) on a looping database e(a,a).
    #[test]
    fn restricted_skips_satisfied_heads() {
        let p = Program::parse("e(a, a). e(X, Y) -> e(Y, Z).").unwrap();
        let r = chase(&p, ChaseVariant::Restricted, facts(&p), &Budget::applications(100));
        assert_eq!(r.outcome, StopReason::Saturated);
        // e(a,a) already satisfies the head for Y=a; nothing is added.
        assert_eq!(r.instance.len(), 1);
        assert_eq!(r.stats.satisfied_skips, 1);

        let so = chase(&p, ChaseVariant::SemiOblivious, facts(&p), &Budget::applications(100));
        assert_eq!(so.outcome, StopReason::Applications);
    }

    /// Datalog programs saturate and compute the expected closure.
    #[test]
    fn datalog_transitive_closure() {
        let p = Program::parse(
            "e(a, b). e(b, c). e(c, d).
             e(X, Y) -> t(X, Y).
             e(X, Y), t(Y, Z) -> t(X, Z).",
        )
        .unwrap();
        for variant in [
            ChaseVariant::Oblivious,
            ChaseVariant::SemiOblivious,
            ChaseVariant::Restricted,
        ] {
            let r = chase(&p, variant, facts(&p), &Budget::default());
            assert_eq!(r.outcome, StopReason::Saturated, "{variant}");
            // 3 base edges + 6 closure pairs.
            assert_eq!(r.instance.len(), 9, "{variant}");
            assert!(is_model(&p, &r.instance));
        }
    }

    /// The chase result contains the input and is a model (universality
    /// smoke test: the restricted result maps into the semi-oblivious one).
    #[test]
    fn chase_results_are_models_and_universal() {
        let p = Program::parse(
            "emp(alice). emp(X) -> dept(X, D), mgr(D, M). mgr(D, M) -> boss(M).",
        )
        .unwrap();
        let so = chase(&p, ChaseVariant::SemiOblivious, facts(&p), &Budget::default());
        let rst = chase(&p, ChaseVariant::Restricted, facts(&p), &Budget::default());
        assert_eq!(so.outcome, StopReason::Saturated);
        assert_eq!(rst.outcome, StopReason::Saturated);
        assert!(is_model(&p, &so.instance));
        assert!(is_model(&p, &rst.instance));
        assert!(contains_instance(&so.instance, &facts(&p)));
        // Universal models embed into each other's models.
        assert!(instance_hom_exists(&rst.instance, &so.instance));
        assert!(instance_hom_exists(&so.instance, &rst.instance));
    }

    #[test]
    fn derivation_tracking_records_parents_and_ancestor_chains() {
        let p = Program::parse("p(a). p(X) -> q(X, Y). q(X, Y) -> r(Y).").unwrap();
        let mut m = ChaseMachine::new(
            &p,
            ChaseConfig::of(ChaseVariant::SemiOblivious).with_derivation(),
            facts(&p),
        );
        assert_eq!(m.run(&Budget::default()), StopReason::Saturated);
        let dag = m.derivation();
        assert_eq!(dag.applications().len(), 2);
        // r(z) was created from q(a, z), which came from p(a).
        let r_pred = p.vocab.pred("r").unwrap();
        let (r_id, _) = m.instance().iter().find(|(_, a)| a.pred == r_pred).unwrap();
        let chain = dag.ancestor_chain(r_id);
        assert_eq!(chain.len(), 2);
        assert!(dag.creator_of(chain[1]).is_none(), "the chain ends at the fact p(a)");
    }

    #[test]
    fn skolem_tracking_flags_cyclic_terms() {
        // person(X) -> person(f(X)) nests the same skolem function forever.
        let p = Program::parse("person(a). person(X) -> father(X, Y), person(Y).").unwrap();
        let mut m = ChaseMachine::new(
            &p,
            ChaseConfig::of(ChaseVariant::SemiOblivious).with_skolem(),
            facts(&p),
        );
        let _ = m.run(&Budget::applications(10));
        assert!(m.skolem_cyclic().is_some());
    }

    #[test]
    fn skolem_tracking_stays_clean_on_acyclic_programs() {
        let p = Program::parse("p(a). p(X) -> q(X, Y). q(X, Y) -> s(Y).").unwrap();
        let mut m = ChaseMachine::new(
            &p,
            ChaseConfig::of(ChaseVariant::SemiOblivious).with_skolem(),
            facts(&p),
        );
        assert_eq!(m.run(&Budget::default()), StopReason::Saturated);
        assert!(m.skolem_cyclic().is_none());
    }

    #[test]
    fn empty_instance_with_no_facts_saturates_immediately() {
        let p = Program::parse("p(X) -> q(X).").unwrap();
        let r = chase(&p, ChaseVariant::Oblivious, Instance::new(), &Budget::default());
        assert_eq!(r.outcome, StopReason::Saturated);
        assert_eq!(r.stats.applications, 0);
        assert!(r.instance.is_empty());
    }

    #[test]
    fn stats_count_dedup_and_duplicates() {
        // Two rules generating the same atom q(a).
        let p = Program::parse("p(a). p(X) -> q(X). r(a). r(X) -> q(X).").unwrap();
        let r = chase(&p, ChaseVariant::SemiOblivious, facts(&p), &Budget::default());
        assert_eq!(r.outcome, StopReason::Saturated);
        assert_eq!(r.stats.applications, 2);
        assert_eq!(r.stats.atoms_added, 1);
        assert_eq!(r.stats.duplicate_atoms, 1);
    }

    #[test]
    fn budget_is_respected() {
        let p = Program::parse("p(a, b). p(X, Y) -> p(Y, Z).").unwrap();
        let r = chase(&p, ChaseVariant::Oblivious, facts(&p), &Budget::applications(17));
        assert_eq!(r.stats.applications, 17);
        assert_eq!(r.outcome, StopReason::Applications);
    }

    #[test]
    fn multibody_guarded_rule_fires() {
        let p = Program::parse(
            "r(a, b). s(a).
             r(X, Y), s(X) -> t(X, Y, Z).",
        )
        .unwrap();
        let r = chase(&p, ChaseVariant::SemiOblivious, facts(&p), &Budget::default());
        assert_eq!(r.outcome, StopReason::Saturated);
        let t = p.vocab.pred("t").unwrap();
        assert_eq!(r.instance.with_pred(t).len(), 1);
    }

    #[test]
    fn non_guarded_product_rule_fires_for_all_pairs() {
        let p = Program::parse(
            "p(a). p(b). q(c).
             p(X), q(Y) -> link(X, Y).",
        )
        .unwrap();
        let r = chase(&p, ChaseVariant::SemiOblivious, facts(&p), &Budget::default());
        assert_eq!(r.outcome, StopReason::Saturated);
        let link = p.vocab.pred("link").unwrap();
        assert_eq!(r.instance.with_pred(link).len(), 2);
    }
}

#[cfg(test)]
mod scheduling_tests {
    use super::*;
    use chasekit_core::Program;

    /// The restricted chase is order-dependent: on this rule set the FIFO
    /// order diverges (the existential rule keeps outrunning the swap rule),
    /// while many random orders let the swap rule satisfy heads early and
    /// saturate — the CT∃ vs CT∀ distinction the paper's §2 sidesteps for
    /// the (semi-)oblivious chase.
    #[test]
    fn restricted_chase_is_order_dependent() {
        let p = Program::parse("r(a, b). r(X, Y) -> r(Y, Z). r(X, Y) -> r(Y, X).").unwrap();
        let db = || Instance::from_atoms(p.facts().iter().cloned());
        let budget = Budget::applications(300);

        let mut fifo =
            ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::Restricted), db());
        let fifo_outcome = fifo.run(&budget);

        let mut saturating_seeds = 0;
        let mut diverging_seeds = 0;
        for seed in 1..=20u64 {
            let cfg = ChaseConfig::of(ChaseVariant::Restricted).with_random_scheduling(seed);
            let mut m = ChaseMachine::new(&p, cfg, db());
            if m.run(&budget).is_saturated() {
                saturating_seeds += 1;
            } else {
                diverging_seeds += 1;
            }
        }

        // Both behaviours must be observable across orders.
        let total_saturating =
            saturating_seeds + (fifo_outcome == StopReason::Saturated) as u32;
        let total_diverging =
            diverging_seeds + (fifo_outcome == StopReason::Applications) as u32;
        assert!(
            total_saturating > 0,
            "expected at least one order to saturate (fifo: {fifo_outcome:?})"
        );
        assert!(
            total_diverging > 0,
            "expected at least one order to keep running (fifo: {fifo_outcome:?})"
        );
    }

    /// Order does NOT affect the (semi-)oblivious chase result set.
    #[test]
    fn oblivious_results_are_order_independent() {
        let p = Program::parse(
            "e(a, b). e(b, c). e(X, Y) -> t(X, Y). e(X, Y), t(Y, Z) -> t(X, Z).",
        )
        .unwrap();
        let db = || Instance::from_atoms(p.facts().iter().cloned());
        let fifo = {
            let mut m = ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::SemiOblivious), db());
            assert_eq!(m.run(&Budget::default()), StopReason::Saturated);
            m.into_instance()
        };
        for seed in 1..=5u64 {
            let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious).with_random_scheduling(seed);
            let mut m = ChaseMachine::new(&p, cfg, db());
            assert_eq!(m.run(&Budget::default()), StopReason::Saturated);
            let inst = m.into_instance();
            assert_eq!(inst.len(), fifo.len(), "seed {seed}");
            for (_, atom) in fifo.iter() {
                assert!(inst.id_of_parts(atom.pred, atom.args).is_some(), "seed {seed}");
            }
        }
    }

    /// Random scheduling is fair: a diverging workload still applies every
    /// pending trigger eventually (spot check: queue never starves a rule).
    #[test]
    fn random_scheduling_remains_fair_in_practice() {
        let p = Program::parse(
            "person(bob). person(X) -> hasFather(X, Y), person(Y). person(X) -> alive(X).",
        )
        .unwrap();
        let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious).with_random_scheduling(7);
        let mut m = ChaseMachine::new(
            &p,
            cfg,
            Instance::from_atoms(p.facts().iter().cloned()),
        );
        let _ = m.run(&Budget::applications(500));
        // The datalog rule must have fired many times despite the
        // existential rule flooding the queue.
        let alive = p.vocab.pred("alive").unwrap();
        assert!(
            m.instance().with_pred(alive).len() > 50,
            "alive count: {}",
            m.instance().with_pred(alive).len()
        );
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;
    use std::time::Duration;

    const DIVERGING: &str = "p(a, b). p(X, Y) -> p(Y, Z).";

    fn machine(p: &Program) -> ChaseMachine<'_> {
        ChaseMachine::new(
            p,
            ChaseConfig::of(ChaseVariant::Oblivious),
            Instance::from_atoms(p.facts().iter().cloned()),
        )
    }

    /// Every `StopReason` variant is reachable from a real run.
    #[test]
    fn stop_reason_saturated_is_reachable() {
        let p = Program::parse("p(a). p(X) -> q(X).").unwrap();
        assert_eq!(machine(&p).run(&Budget::default()), StopReason::Saturated);
    }

    #[test]
    fn stop_reason_applications_is_reachable() {
        let p = Program::parse(DIVERGING).unwrap();
        assert_eq!(machine(&p).run(&Budget::applications(10)), StopReason::Applications);
    }

    #[test]
    fn stop_reason_atoms_is_reachable() {
        let p = Program::parse(DIVERGING).unwrap();
        let budget = Budget::unlimited().with_atoms(5);
        let mut m = machine(&p);
        assert_eq!(m.run(&budget), StopReason::Atoms);
        assert!(m.instance().len() >= 5);
    }

    #[test]
    fn stop_reason_wall_clock_is_reachable() {
        let p = Program::parse(DIVERGING).unwrap();
        let budget = Budget::unlimited().with_wall_clock(Duration::from_millis(20));
        let mut m = machine(&p);
        assert_eq!(m.run(&budget), StopReason::WallClock);
    }

    #[test]
    fn stop_reason_memory_is_reachable() {
        let p = Program::parse(DIVERGING).unwrap();
        let budget = Budget::unlimited().with_memory(16 * 1024);
        let mut m = machine(&p);
        assert_eq!(m.run(&budget), StopReason::Memory);
        assert!(m.approx_memory_bytes() >= 16 * 1024);
    }

    #[test]
    fn stop_reason_cancelled_is_reachable() {
        let p = Program::parse(DIVERGING).unwrap();
        let mut m = machine(&p);
        let token = CancelToken::new();
        m.set_cancel_token(token.clone());
        // Pre-cancelled: the run must stop on the very first check without
        // applying anything.
        token.cancel();
        assert_eq!(m.run(&Budget::unlimited()), StopReason::Cancelled);
        assert_eq!(m.stats().applications, 0);
    }

    /// Cancellation from another thread stops a diverging run promptly.
    #[test]
    fn cancellation_works_cross_thread() {
        let p = Program::parse(DIVERGING).unwrap();
        let mut m = machine(&p);
        let token = CancelToken::new();
        m.set_cancel_token(token.clone());
        let stop = std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                token.cancel();
            });
            m.run(&Budget::unlimited().with_wall_clock(Duration::from_secs(30)))
        });
        assert_eq!(stop, StopReason::Cancelled);
    }

    /// A guardrail that trips exactly when the queue happens to drain still
    /// reports saturation (the boundary probe the old binary outcome had).
    #[test]
    fn saturation_at_the_boundary_beats_the_guardrail() {
        // Saturates in exactly 2 applications.
        let p = Program::parse("p(a). p(X) -> q(X). q(X) -> r(X).").unwrap();
        let mut m = machine(&p);
        assert_eq!(m.run(&Budget::applications(2)), StopReason::Saturated);

        // Cancelling after saturation also reports saturation.
        let p2 = Program::parse("p(a). p(X) -> q(X).").unwrap();
        let mut m2 = machine(&p2);
        assert_eq!(m2.run(&Budget::default()), StopReason::Saturated);
        let token = CancelToken::new();
        m2.set_cancel_token(token.clone());
        token.cancel();
        assert_eq!(m2.run(&Budget::default()), StopReason::Saturated);
    }

    /// Asserts the machine's partial state is internally consistent: every
    /// derivation-recorded atom exists, every parent id is a real atom, and
    /// every pending trigger's bound terms refer to existing constants or
    /// already-minted nulls.
    fn assert_consistent(m: &ChaseMachine<'_>) {
        let len = m.instance.len();
        for (id, app) in (0..len).filter_map(|i| {
            let id = AtomId::from_index(i);
            m.derivation.creator_of(id).map(|a| (id, a))
        }) {
            for &parent in &app.parents {
                assert!(parent.index() < len, "dangling parent {parent:?} of {id:?}");
            }
            for &null in &app.born_nulls {
                assert!((null.0 as usize) < m.instance.null_count(), "unminted null {null:?}");
            }
        }
        for t in &m.queue {
            for v in 0..t.subst.len() {
                if let Some(Term::Null(n)) = t.subst.get(chasekit_core::VarId(v as u32)) {
                    assert!(
                        (n.0 as usize) < m.instance.null_count(),
                        "pending trigger references unminted null {n:?}"
                    );
                }
            }
        }
    }

    /// Wall-clock and cancellation stops land on step boundaries: the
    /// partial instance and derivation DAG have no dangling references.
    #[test]
    fn wall_clock_stop_leaves_consistent_partial_state() {
        let p = Program::parse(DIVERGING).unwrap();
        let mut m = ChaseMachine::new(
            &p,
            ChaseConfig::of(ChaseVariant::Oblivious).with_derivation(),
            Instance::from_atoms(p.facts().iter().cloned()),
        );
        let stop = m.run(&Budget::unlimited().with_wall_clock(Duration::from_millis(15)));
        assert_eq!(stop, StopReason::WallClock);
        assert!(m.stats().applications > 0);
        assert_consistent(&m);
    }

    #[test]
    fn cancelled_stop_leaves_consistent_partial_state() {
        let p = Program::parse(DIVERGING).unwrap();
        let mut m = ChaseMachine::new(
            &p,
            ChaseConfig::of(ChaseVariant::Oblivious).with_derivation(),
            Instance::from_atoms(p.facts().iter().cloned()),
        );
        // Run a prefix, then cancel and run again: both stops must leave
        // consistent state.
        let _ = m.run(&Budget::applications(40));
        assert_consistent(&m);
        let token = CancelToken::new();
        m.set_cancel_token(token.clone());
        token.cancel();
        assert_eq!(m.run(&Budget::unlimited()), StopReason::Cancelled);
        assert_consistent(&m);
    }

    /// The incremental memory estimate stays in lockstep with a from-scratch
    /// recomputation as the run grows.
    #[test]
    fn memory_accounting_matches_recomputation() {
        let p = Program::parse(DIVERGING).unwrap();
        let mut m = machine(&p);
        for _ in 0..50 {
            if m.step().is_none() {
                break;
            }
            let atoms: usize =
                m.instance.iter().map(|(_, a)| crate::guard::approx_atom_bytes(a.arity())).sum();
            let queue: usize = m
                .queue
                .iter()
                .map(|t| crate::guard::approx_trigger_bytes(t.subst.len()))
                .sum();
            let seen: usize =
                m.seen.iter().map(|(_, k)| crate::guard::approx_identity_bytes(k.len())).sum();
            assert_eq!(m.approx_memory_bytes(), atoms + queue + seen);
        }
    }
}
