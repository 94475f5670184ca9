//! Incremental updates: DRed-style retraction over the derivation DAG.
//!
//! A chase run that tracked derivations ([`crate::chase::ChaseConfig::track_derivation`])
//! can be *updated in place* instead of re-chased from scratch:
//!
//! - **Additions** enter through the ordinary delta-matching path: the new
//!   atom is inserted, trigger discovery runs pinned to it, and the
//!   completion run saturates the queue.
//! - **Retractions** follow delete-and-rederive (DRed), at a cost set by
//!   the cone rather than the whole DAG. Retracting a base fact computes
//!   its *derivation cone* — every application transitively consuming it
//!   and every atom those applications first created — via
//!   [`DerivationDag::cone_of`], tombstones the cone's atoms in the
//!   instance ([`Instance::retract`]) and drops its applications in place
//!   ([`DerivationDag::drop_application`]); every other application keeps
//!   its index. A deleted atom that a live application also produced is
//!   restored with its original nulls: when the chase meets a head atom
//!   that already exists, it records the application as another producer
//!   of that atom ([`DerivationDag::record_producer`]), and the first live
//!   producer becomes the restored atom's creator. Rederivation then goes
//!   through the chase itself: a trigger is identified by its rule and key
//!   (the frontier image, or the whole universal image for the oblivious
//!   chase), not by one body match, so every identity whose body image
//!   died — a cone application, a pending trigger, a restricted skip — is
//!   released and re-admitted if *any* body match with the same key
//!   survives. The completion chase re-fires what was re-admitted with
//!   fresh nulls, while its delta matching finds the matches that only
//!   those re-fires enable.
//!
//! **Variant semantics.** For the oblivious and semi-oblivious chase the
//! updated machine is equivalent to a from-scratch chase of the edited
//! base: same atoms up to the Skolem-canonical naming of nulls (see
//! [`canonical_form`]). The restricted chase is order-dependent, so the
//! updated machine is instead a *restricted-chase-valid* result: a model
//! hom-equivalent to the from-scratch result. To keep that guarantee the
//! machine records triggers skipped as "already satisfied", each indexed
//! by the atoms its body image and satisfaction witness use; a
//! retraction re-checks only the skips indexed under an atom it deleted,
//! and re-opens those whose body or witness is gone.
//!
//! Updated machines cannot be checkpointed (atom ids are no longer dense;
//! see [`crate::checkpoint`]); callers that need a durable artifact should
//! rebuild from the edited program ([`edited_program`]) — that rebuild is
//! bit-identical to a from-scratch run by construction and is what the
//! differential tests pin down.

use std::ops::ControlFlow;

use chasekit_core::display::write_atom;
use chasekit_core::{
    for_each_hom_scratch, Atom, AtomId, FxHashMap, Instance, NullId, Program, Substitution, Term,
    Tgd,
};

use crate::chase::{ChaseMachine, Trigger};
use crate::derivation::{Application, AtomLists, DerivationDag};
use crate::guard::{
    approx_atom_bytes, approx_identity_bytes, approx_trigger_bytes, Budget, StopReason,
};
use crate::trace::TraceEvent;

/// One line of an edit script: add or retract a ground base fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Insert the fact into the base (no-op if the content is present).
    Add(Atom),
    /// Retract the fact from the base, with DRed repair of its cone.
    Retract(Atom),
}

/// Errors surfaced by the update subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The machine was built without `track_derivation`; retraction needs
    /// the derivation DAG to compute cones.
    DerivationRequired,
    /// The retraction target exists but was chase-derived, not a base fact.
    NotABaseFact(String),
    /// The fact contains variables or nulls.
    NonGround(String),
    /// The fact's predicate or arity does not match the program vocabulary.
    Vocabulary(String),
    /// An edit-script line failed to parse (1-based line number).
    Script {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::DerivationRequired => {
                write!(f, "incremental updates require a derivation-tracking machine")
            }
            UpdateError::NotABaseFact(a) => {
                write!(f, "cannot retract {a}: it is chase-derived, not a base fact")
            }
            UpdateError::NonGround(a) => write!(f, "edit fact {a} is not ground"),
            UpdateError::Vocabulary(a) => {
                write!(f, "edit fact {a} does not match the program vocabulary")
            }
            UpdateError::Script { line, msg } => write!(f, "edit script line {line}: {msg}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Summary of a single retraction's repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetractOutcome {
    /// The target content was absent; nothing happened.
    pub missing: bool,
    /// Atoms tombstoned, including the base fact itself.
    pub overdeleted: usize,
    /// Applications in the cone whose trigger no surviving body match
    /// re-admits.
    pub invalidated_apps: usize,
    /// Applications in the cone whose trigger a surviving body match
    /// re-admits; the completion chase re-fires them.
    pub rederived_apps: usize,
    /// Head atoms of applications outside the cone restored after the
    /// overdeletion.
    pub restored_atoms: usize,
    /// Restricted only: recorded satisfied-skips whose body or witness
    /// died and that a surviving body match re-admits.
    pub reopened_skips: usize,
    /// Work done: the derivation-DAG entries (consumers walked by the cone
    /// search, recorded producers of deleted atoms) and recorded-skip
    /// index entries this retraction visited. Set by the cone, not by the
    /// size of the DAG.
    pub visited: usize,
}

/// Restricted-chase triggers skipped as already satisfied, each indexed by
/// the atoms its body image and satisfaction witness used when it was last
/// checked. A retraction re-checks only the skips indexed under an atom it
/// deleted: every other skip still has its body and witness.
#[derive(Debug, Default)]
pub(crate) struct SkipLog {
    /// One slot per recorded skip, in recording order; `None` once the
    /// skip is released.
    slots: Vec<Option<Skip>>,
    /// For each atom: the slots whose support used it. An entry goes stale
    /// when a re-check moves its skip to other atoms or releases it;
    /// [`touched_by`](Self::touched_by) filters stale entries out.
    by_atom: AtomLists<u32>,
}

#[derive(Debug)]
struct Skip {
    trigger: Trigger,
    /// Body-image and witness atom ids, sorted and distinct.
    support: Vec<AtomId>,
}

impl SkipLog {
    /// Records a skip resting on `support` (see
    /// [`ChaseMachine::satisfaction_support`]).
    pub(crate) fn record(&mut self, trigger: Trigger, support: Vec<AtomId>) {
        let slot = self.slots.len();
        self.index(slot, &support, &[]);
        self.slots.push(Some(Skip { trigger, support }));
    }

    /// Indexes `slot` under each atom of `support` not in `indexed` (both
    /// sorted), which already lists it.
    fn index(&mut self, slot: usize, support: &[AtomId], indexed: &[AtomId]) {
        let slot = u32::try_from(slot).expect("fewer than 2^32 recorded skips");
        for &a in support {
            if indexed.binary_search(&a).is_err() {
                self.by_atom.push(a, slot);
            }
        }
    }

    /// Removes the index entries of the `dead` atoms and returns the live
    /// skips whose support used one of them, in recording order, with the
    /// number of index entries examined.
    fn touched_by(&mut self, dead: &[AtomId]) -> (Vec<usize>, usize) {
        let mut touched = Vec::new();
        let mut visited = 0;
        for a in dead {
            let slots = self.by_atom.take(*a);
            visited += slots.len();
            touched.extend(slots.into_iter().map(|slot| slot as usize).filter(|&slot| {
                self.slots[slot].as_ref().is_some_and(|k| k.support.binary_search(a).is_ok())
            }));
        }
        touched.sort_unstable();
        touched.dedup();
        (touched, visited)
    }
}

/// Summary of an applied edit script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// Add edits that inserted a genuinely new atom.
    pub adds: usize,
    /// Add edits whose content was already present.
    pub duplicate_adds: usize,
    /// Retract edits that removed a present base fact.
    pub retracts: usize,
    /// Retract edits whose target was absent.
    pub missing_retracts: usize,
    /// Total atoms tombstoned across all retractions.
    pub overdeleted: usize,
    /// Total cone applications that no surviving body match re-admitted.
    pub invalidated_apps: usize,
    /// Total cone applications re-admitted for re-firing.
    pub rederived_apps: usize,
    /// Total atoms restored during repair.
    pub restored_atoms: usize,
    /// Total satisfied-skips re-opened (restricted variant).
    pub reopened_skips: usize,
    /// How the completion chase after the edits stopped.
    pub outcome: StopReason,
}

impl<'p> ChaseMachine<'p> {
    fn require_updatable(&self) -> Result<(), UpdateError> {
        if !self.config.track_derivation {
            return Err(UpdateError::DerivationRequired);
        }
        Ok(())
    }

    /// Adds a base fact and discovers the triggers it enables. Returns
    /// whether the content was new. A fact the chase already derived
    /// becomes a base fact: a later retraction of its support keeps it.
    /// Does **not** run the chase; call [`run`](Self::run) (or use
    /// [`apply_edits`](Self::apply_edits)) to saturate afterwards.
    pub fn add_fact(&mut self, fact: &Atom) -> Result<bool, UpdateError> {
        self.require_updatable()?;
        check_vocab(self.program, fact)?;
        let (id, fresh) = self.instance.insert(fact.clone());
        if !fresh {
            if let Some(app) = self.derivation.creator_of(id) {
                let pos = head_position(&self.program.rules()[app.rule], app, fact);
                self.derivation.promote_to_base(id, pos);
            }
            return Ok(false);
        }
        self.approx_bytes += approx_atom_bytes(fact.arity());
        for rule_idx in 0..self.program.rules().len() {
            self.enqueue_matches(rule_idx, Some(id));
        }
        Ok(true)
    }

    /// Retracts a base fact with DRed repair: deletes its derivation cone,
    /// restores the heads of applications outside it, and re-admits every
    /// trigger identity that lost its body image if another body match
    /// with the same identity survives. Leaves the machine in a consistent
    /// mid-run state with the re-admitted triggers pending;
    /// [`apply_edits`](Self::apply_edits) runs the completion chase that
    /// re-fires them.
    ///
    /// Retracting an absent content is a lenient no-op (reported via
    /// [`RetractOutcome::missing`]), and so is retracting again a base fact
    /// that the chase derives once it is retracted; retracting an atom
    /// that was never a base fact is an error — DRed retraction is defined
    /// on the base.
    pub fn retract_fact(&mut self, fact: &Atom) -> Result<RetractOutcome, UpdateError> {
        self.require_updatable()?;
        check_vocab(self.program, fact)?;
        let mut out = RetractOutcome::default();
        let Some(root) = self.instance.id_of(fact) else {
            out.missing = true;
            return Ok(out);
        };
        if self.derivation.creator_of(root).is_some() {
            // A base fact an earlier edit retracted, which the chase
            // derives again, is no longer in the base: as in
            // `edited_program`, retracting it again is a no-op.
            if self.retracted_facts.iter().any(|&id| self.instance.atom(id) == *fact) {
                out.missing = true;
                return Ok(out);
            }
            return Err(UpdateError::NotABaseFact(fact_text(self.program, fact)));
        }
        self.retracted_facts.push(root);

        // Phase 1: overdelete the cone.
        let cone = self.derivation.cone_of(root);
        out.visited += cone.visited;
        let deleted: Vec<AtomId> = std::iter::once(root).chain(cone.atoms).collect();
        for &id in &deleted {
            let arity = self.instance.atom(id).arity();
            if self.instance.retract(id) {
                out.overdeleted += 1;
                self.approx_bytes = self.approx_bytes.saturating_sub(approx_atom_bytes(arity));
            }
        }
        if let Some(t) = &mut self.trace {
            t.note(TraceEvent::Retract { atoms: out.overdeleted, apps: cone.apps.len() });
        }

        // Phase 2: drop the cone's applications in place, keeping their
        // trigger identities for phase 3; their nulls die with them. A live
        // application's body is intact (its parents are outside the cone by
        // construction), so a deleted atom that one of them also produced
        // is restored outright, with its original nulls, and its first live
        // producer becomes its creator. This is what lets an
        // independently-derivable content — including the retracted fact
        // itself — survive the retraction as derived. Atoms are restored in
        // the order of (producer index, head position), so the new ids do
        // not depend on the order the cone was walked in.
        let mut released: Vec<(usize, Vec<Term>)> = Vec::with_capacity(cone.apps.len());
        for &idx in &cone.apps {
            let app = self.derivation.drop_application(idx).expect("cone applications are live");
            for n in &app.born_nulls {
                self.skolem.remove(n);
            }
            released.push((app.rule, app.into_key()));
        }
        let mut restorable: Vec<(AtomId, Vec<(usize, usize)>)> = Vec::new();
        for &id in &deleted {
            let mut producers = self.derivation.take_producers(id);
            out.visited += producers.len();
            producers.retain(|&(app, _)| self.derivation.is_live(app));
            if !producers.is_empty() {
                restorable.push((id, producers));
            }
        }
        restorable.sort_unstable_by_key(|(_, producers)| producers[0]);
        for (id, producers) in restorable {
            let mut args = std::mem::take(&mut self.args_buf);
            args.clear();
            let atom = self.instance.atom(id);
            let pred = atom.pred;
            args.extend_from_slice(atom.args);
            let (restored, fresh) = self.instance.insert_terms(pred, &args);
            debug_assert!(fresh, "a deleted content stays absent until restored");
            self.approx_bytes += approx_atom_bytes(args.len());
            self.args_buf = args;
            self.derivation.record_restored(restored, &producers);
            out.restored_atoms += 1;
        }

        // Phase 3: every trigger identity whose body image lost an atom is
        // released and re-admitted through a surviving body match, if one
        // exists: the cone's applications, pending triggers, and recorded
        // restricted skips whose body or satisfaction witness died. Body
        // images are checked by content, so a trigger over restored atoms
        // stays as it is.
        for (rule, key) in released {
            if self.release_and_readmit(rule, key) {
                out.rederived_apps += 1;
            } else {
                out.invalidated_apps += 1;
            }
        }
        for t in std::mem::take(&mut self.queue) {
            if self.body_holds(&t) {
                self.queue.push_back(t);
                continue;
            }
            self.approx_bytes =
                self.approx_bytes.saturating_sub(approx_trigger_bytes(t.subst.len()));
            let key = self.config.variant.trigger_key(&self.program.rules()[t.rule], &t.subst);
            self.release_and_readmit(t.rule, key);
        }
        let (touched, visited) = self.skips.touched_by(&deleted);
        out.visited += visited;
        for slot in touched {
            let skip = self.skips.slots[slot].take().expect("touched skips are live");
            if let Some(support) = self.satisfaction_support(&skip.trigger) {
                self.skips.index(slot, &support, &skip.support);
                self.skips.slots[slot] = Some(Skip { trigger: skip.trigger, support });
                continue;
            }
            let t = skip.trigger;
            self.approx_bytes =
                self.approx_bytes.saturating_sub(approx_trigger_bytes(t.subst.len()));
            let key = self.config.variant.trigger_key(&self.program.rules()[t.rule], &t.subst);
            if self.release_and_readmit(t.rule, key) {
                out.reopened_skips += 1;
            }
        }

        if let Some(t) = &mut self.trace {
            t.note(TraceEvent::Rederive { apps: out.rederived_apps, atoms: out.restored_atoms });
        }
        Ok(out)
    }

    /// What a satisfied trigger's skip rests on: the ids of its body image
    /// and of one extension of it to the head (the satisfaction witness),
    /// sorted and distinct. `None` if the head is not satisfied or the
    /// body no longer holds.
    pub(crate) fn satisfaction_support(&mut self, t: &Trigger) -> Option<Vec<AtomId>> {
        let rule = &self.program.rules()[t.rule];
        let instance = &self.instance;
        let mut args = std::mem::take(&mut self.args_buf);
        let mut image = |a: &Atom, s: &Substitution| {
            args.clear();
            args.extend(a.args.iter().map(|&t| s.apply(t)));
            instance.id_of_parts(a.pred, &args)
        };
        let mut witness = None;
        for_each_hom_scratch(
            rule.head(),
            rule.var_count(),
            instance,
            Some(&t.subst),
            None,
            &mut self.scratch,
            &mut |s| {
                witness = rule.head().iter().map(|a| image(a, s)).collect();
                ControlFlow::Break(())
            },
        );
        let support = witness.and_then(|mut support: Vec<AtomId>| {
            for a in rule.body() {
                support.push(image(a, &t.subst)?);
            }
            support.sort_unstable();
            support.dedup();
            Some(support)
        });
        self.args_buf = args;
        support
    }

    /// Whether every body atom of a recorded trigger is present by content.
    fn body_holds(&self, t: &Trigger) -> bool {
        let body = self.program.rules()[t.rule].body();
        body.iter().all(|a| self.instance.contains(&t.subst.apply_atom(a)))
    }

    /// Releases the trigger identity `(rule_idx, key)`, then searches the
    /// instance for a body match with that key and, if one exists, admits
    /// it through [`Admission::admit`](crate::chase::Admission::admit). Returns whether
    /// it did. An identity left free is claimed by delta matching once an
    /// insertion enables a match for it.
    fn release_and_readmit(&mut self, rule_idx: usize, key: Vec<Term>) -> bool {
        let rule = &self.program.rules()[rule_idx];
        let mut seed = Substitution::new(rule.var_count());
        for (&v, &t) in self.config.variant.key_vars(rule).iter().zip(&key) {
            seed.bind(v, t);
        }
        if self.seen.remove(rule_idx, &key) {
            self.approx_bytes = self.approx_bytes.saturating_sub(approx_identity_bytes(key.len()));
        }
        let mut found = false;
        let (instance, scratch, mut admission) = self.admission();
        for_each_hom_scratch(
            rule.body(),
            rule.var_count(),
            instance,
            Some(&seed),
            None,
            scratch,
            &mut |s| {
                admission.admit(rule_idx, rule, s);
                found = true;
                ControlFlow::Break(())
            },
        );
        found
    }

    /// Applies an edit script in order, then runs the completion chase.
    ///
    /// The budget is cumulative over the machine's lifetime (the completion
    /// run continues the original counters), so pass a budget larger than
    /// what the initial run consumed if the program diverges.
    pub fn apply_edits(
        &mut self,
        edits: &[Edit],
        budget: &Budget,
    ) -> Result<UpdateReport, UpdateError> {
        self.require_updatable()?;
        let mut report = UpdateReport {
            adds: 0,
            duplicate_adds: 0,
            retracts: 0,
            missing_retracts: 0,
            overdeleted: 0,
            invalidated_apps: 0,
            rederived_apps: 0,
            restored_atoms: 0,
            reopened_skips: 0,
            outcome: StopReason::Saturated,
        };
        for edit in edits {
            match edit {
                Edit::Add(atom) => {
                    if self.add_fact(atom)? {
                        report.adds += 1;
                    } else {
                        report.duplicate_adds += 1;
                    }
                }
                Edit::Retract(atom) => {
                    let o = self.retract_fact(atom)?;
                    if o.missing {
                        report.missing_retracts += 1;
                    } else {
                        report.retracts += 1;
                        report.overdeleted += o.overdeleted;
                        report.invalidated_apps += o.invalidated_apps;
                        report.rederived_apps += o.rederived_apps;
                        report.restored_atoms += o.restored_atoms;
                        report.reopened_skips += o.reopened_skips;
                    }
                }
            }
        }
        if let Some(t) = &mut self.trace {
            t.note(TraceEvent::EditApply {
                adds: report.adds + report.duplicate_adds,
                retracts: report.retracts + report.missing_retracts,
            });
        }
        report.outcome = self.run(budget);
        Ok(report)
    }
}

/// The first head position of `app`, an application of `rule`, whose
/// image is `atom`.
fn head_position(rule: &Tgd, app: &Application, atom: &Atom) -> usize {
    let image = |t: Term| match t {
        Term::Var(v) => match rule.frontier().iter().position(|&f| f == v) {
            Some(i) => app.frontier[i],
            None => {
                let ex = rule.existentials().iter().position(|&e| e == v);
                Term::Null(app.born_nulls[ex.expect("a head variable is frontier or existential")])
            }
        },
        ground => ground,
    };
    rule.head()
        .iter()
        .position(|h| {
            h.pred == atom.pred && h.args.iter().zip(&atom.args).all(|(&t, &a)| image(t) == a)
        })
        .expect("an atom's creator has it in its head")
}

/// Validates a fact against the program vocabulary.
fn check_vocab(program: &Program, fact: &Atom) -> Result<(), UpdateError> {
    if !fact.is_ground() {
        return Err(UpdateError::NonGround(fact_text(program, fact)));
    }
    if fact.pred.index() >= program.vocab.pred_count()
        || program.vocab.arity(fact.pred) != fact.arity()
    {
        return Err(UpdateError::Vocabulary(fact_text(program, fact)));
    }
    Ok(())
}

/// Renders an edit fact for an error message with the program's names,
/// or in its internal form if it uses a predicate or constant the
/// vocabulary lacks, so rendering never panics.
fn fact_text(program: &Program, fact: &Atom) -> String {
    let vocab = &program.vocab;
    let known = |t: &Term| !matches!(*t, Term::Const(c) if c.index() >= vocab.const_count());
    let named = fact.pred.index() < vocab.pred_count() && fact.args.iter().all(known);
    if !named {
        return format!("{fact:?}");
    }
    let mut text = String::new();
    write_atom(&mut text, fact.as_ref(), vocab, None);
    text
}

/// Parses an edit script: one edit per line, `add <atom>.` or
/// `retract <atom>.`, with `%`-comments and blank lines ignored. Predicate
/// and constant names are interned into `program`'s vocabulary (new
/// constants are declared; predicates must agree on arity).
pub fn parse_edit_script(text: &str, program: &mut Program) -> Result<Vec<Edit>, UpdateError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let Some((op, rest)) = line.split_once(char::is_whitespace) else {
            return Err(UpdateError::Script {
                line: lineno,
                msg: "expected `add <atom>.` or `retract <atom>.`".into(),
            });
        };
        let atom = parse_fact(rest.trim(), program)
            .map_err(|msg| UpdateError::Script { line: lineno, msg })?;
        match op {
            "add" => out.push(Edit::Add(atom)),
            "retract" => out.push(Edit::Retract(atom)),
            other => {
                return Err(UpdateError::Script {
                    line: lineno,
                    msg: format!("unknown edit op `{other}` (want `add` or `retract`)"),
                });
            }
        }
    }
    Ok(out)
}

/// Parses one ground fact and interns its names into `program`'s vocab.
fn parse_fact(text: &str, program: &mut Program) -> Result<Atom, String> {
    let mini = Program::parse(text).map_err(|e| e.to_string())?;
    if !mini.rules().is_empty() || mini.facts().len() != 1 {
        return Err("each edit line must contain exactly one fact".into());
    }
    let fact = &mini.facts()[0];
    let pred = program
        .vocab
        .declare_pred(mini.vocab.pred_name(fact.pred), fact.arity())
        .map_err(|e| e.to_string())?;
    let args = fact
        .args
        .iter()
        .map(|&t| match t {
            Term::Const(c) => Ok(Term::Const(program.vocab.intern_const(mini.vocab.const_name(c)))),
            other => Err(format!("edit facts must be ground: found {other:?}")),
        })
        .collect::<Result<Vec<Term>, String>>()?;
    Ok(Atom::new(pred, args))
}

/// Applies an edit script to a program's base facts, returning the edited
/// program. `Add` is idempotent on the fact list; `Retract` removes every
/// occurrence. This is the canonical-rebuild path: chasing the returned
/// program from scratch is the reference an updated machine is tested
/// against, and the route `chasekit serve` takes (the derivation DAG is
/// not durable, so server-side updates re-admit rather than repair).
pub fn edited_program(program: &Program, edits: &[Edit]) -> Program {
    let mut p = program.clone();
    for e in edits {
        match e {
            Edit::Add(a) => {
                if !p.facts().contains(a) {
                    p.add_fact(a.clone()).expect("edit atoms are validated against the vocabulary");
                }
            }
            Edit::Retract(a) => {
                p.remove_fact(a);
            }
        }
    }
    p
}

/// Renders an instance as a sorted list of atom strings with nulls named by
/// their Skolem identity: `s<rule>.<ex>(<canonical key terms>)`, recursing
/// through nulls in the key. Two saturated oblivious (or semi-oblivious)
/// runs over the same base produce the same canonical form regardless of
/// trigger order, null numbering, or update history — this is the equality
/// the incremental differential tests check for those variants.
pub fn canonical_form(instance: &Instance, dag: &DerivationDag) -> Vec<String> {
    fn null_name(n: NullId, dag: &DerivationDag, names: &mut FxHashMap<NullId, String>) -> String {
        if let Some(s) = names.get(&n) {
            return s.clone();
        }
        let s = match dag.minter_of(n) {
            // Nulls imported with the initial instance have no minter; their
            // ids are already canonical (identical across runs).
            None => format!("n{}", n.index()),
            Some(idx) => {
                let (rule, ex, key) = {
                    let app = dag.app(idx);
                    let ex =
                        app.born_nulls.iter().position(|&b| b == n).expect("minter lists its null");
                    (app.rule, ex, app.key().to_vec())
                };
                let args: Vec<String> = key.iter().map(|&t| term_name(t, dag, names)).collect();
                format!("s{rule}.{ex}({})", args.join(","))
            }
        };
        names.insert(n, s.clone());
        s
    }
    fn term_name(t: Term, dag: &DerivationDag, names: &mut FxHashMap<NullId, String>) -> String {
        match t {
            Term::Const(c) => format!("c{}", c.index()),
            Term::Null(n) => null_name(n, dag, names),
            Term::Var(v) => format!("v{}", v.index()),
        }
    }
    let mut names: FxHashMap<NullId, String> = FxHashMap::default();
    let mut out: Vec<String> = Vec::with_capacity(instance.len());
    for (_, a) in instance.iter() {
        let args: Vec<String> = a.args.iter().map(|&t| term_name(t, dag, &mut names)).collect();
        out.push(format!("p{}({})", a.pred.index(), args.join(",")));
    }
    out.sort();
    out
}

/// Checks the DRed support invariant: every live derived atom's creating
/// application has only live parents, and the creator graph is acyclic (so
/// every survivor is grounded in surviving base facts). Returns the first
/// violation found.
pub fn check_support(instance: &Instance, dag: &DerivationDag) -> Result<(), String> {
    for (id, _) in instance.iter() {
        if let Some(app) = dag.creator_of(id) {
            for &p in &app.parents {
                if !instance.is_live(p) {
                    return Err(format!(
                        "atom #{} (creator seq {}) has dead parent #{}",
                        id.index(),
                        app.seq,
                        p.index()
                    ));
                }
            }
        }
    }
    // Acyclicity of atom -> creator-parents edges, iterative three-color DFS.
    const IN_STACK: u8 = 1;
    const DONE: u8 = 2;
    let mut state: FxHashMap<AtomId, u8> = FxHashMap::default();
    for (start, _) in instance.iter() {
        if state.get(&start) == Some(&DONE) {
            continue;
        }
        let mut stack: Vec<(AtomId, usize)> = vec![(start, 0)];
        state.insert(start, IN_STACK);
        while let Some(&(cur, child)) = stack.last() {
            let parents = dag.creator_of(cur).map(|a| a.parents.as_slice()).unwrap_or(&[]);
            if child >= parents.len() {
                state.insert(cur, DONE);
                stack.pop();
                continue;
            }
            stack.last_mut().expect("stack is non-empty").1 += 1;
            let next = parents[child];
            match state.get(&next) {
                Some(&IN_STACK) => {
                    return Err(format!("derivation cycle through atom #{}", next.index()));
                }
                Some(&DONE) => {}
                _ => {
                    state.insert(next, IN_STACK);
                    stack.push((next, 0));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{is_model, ChaseConfig};
    use crate::variant::ChaseVariant;

    fn machine(p: &Program, variant: ChaseVariant) -> ChaseMachine<'_> {
        ChaseMachine::new(
            p,
            ChaseConfig::of(variant).with_derivation(),
            Instance::from_atoms(p.facts().iter().cloned()),
        )
    }

    fn scratch_canonical(p: &Program, variant: ChaseVariant) -> Vec<String> {
        let mut m = machine(p, variant);
        assert!(m.run(&Budget::unlimited()).is_saturated());
        canonical_form(m.instance(), m.derivation())
    }

    const DATALOG: &str = "\
        p(X) -> q(X).\n\
        q(X) -> r(X).\n\
        p(a). p(b). q(a).\n";

    #[test]
    fn retraction_requires_derivation_tracking() {
        let mut p = Program::parse(DATALOG).unwrap();
        let edits = parse_edit_script("retract p(a).", &mut p).unwrap();
        let mut m = ChaseMachine::new(
            &p,
            ChaseConfig::of(ChaseVariant::SemiOblivious),
            Instance::from_atoms(p.facts().iter().cloned()),
        );
        assert_eq!(
            m.apply_edits(&edits, &Budget::unlimited()),
            Err(UpdateError::DerivationRequired)
        );
    }

    #[test]
    fn retract_matches_from_scratch_chase() {
        for variant in [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious] {
            let mut p = Program::parse(DATALOG).unwrap();
            let edits = parse_edit_script("retract p(b).", &mut p).unwrap();
            let mut m = machine(&p, variant);
            assert!(m.run(&Budget::unlimited()).is_saturated());
            let report = m.apply_edits(&edits, &Budget::unlimited()).unwrap();
            assert!(report.outcome.is_saturated());
            assert_eq!(report.retracts, 1);
            check_support(m.instance(), m.derivation()).unwrap();
            let reference = scratch_canonical(&edited_program(&p, &edits), variant);
            assert_eq!(canonical_form(m.instance(), m.derivation()), reference);
        }
    }

    #[test]
    fn rederivable_base_fact_survives_as_derived() {
        // q(a) is base AND derivable from p(a); retracting the base
        // assertion must keep the content alive (DRed re-derivation) and
        // keep its consumers (r(a)) alive with it.
        let mut p = Program::parse(DATALOG).unwrap();
        let edits = parse_edit_script("retract q(a).", &mut p).unwrap();
        let mut m = machine(&p, ChaseVariant::SemiOblivious);
        assert!(m.run(&Budget::unlimited()).is_saturated());
        let report = m.apply_edits(&edits, &Budget::unlimited()).unwrap();
        assert!(report.restored_atoms >= 1, "q(a) must be restored: {report:?}");
        let q_a = p.facts()[2].clone(); // q(a) from the original text
        assert!(m.instance().contains(&q_a));
        assert!(
            m.instance().id_of(&q_a).map(|id| m.derivation().creator_of(id).is_some())
                == Some(true),
            "restored q(a) must be derived, not base"
        );
        check_support(m.instance(), m.derivation()).unwrap();
        let reference = scratch_canonical(&edited_program(&p, &edits), ChaseVariant::SemiOblivious);
        assert_eq!(canonical_form(m.instance(), m.derivation()), reference);
    }

    #[test]
    fn retraction_readmits_a_deduped_body_match() {
        // Under so and restricted, `a(k, u)` and `a(k, v)` match one
        // trigger (frontier image `k`): the first match fires, the second
        // is deduped. Retracting either fact must leave `b(k, _)`, derived
        // through the other match.
        let text = "a(X, Y) -> b(X, Z).\na(k, u). a(k, v).\n";
        for target in ["a(k, u)", "a(k, v)"] {
            for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Restricted] {
                let mut p = Program::parse(text).unwrap();
                let edits = parse_edit_script(&format!("retract {target}."), &mut p).unwrap();
                let mut m = machine(&p, variant);
                assert!(m.run(&Budget::unlimited()).is_saturated());
                let report = m.apply_edits(&edits, &Budget::unlimited()).unwrap();
                assert!(report.outcome.is_saturated());
                check_support(m.instance(), m.derivation()).unwrap();
                let ep = edited_program(&p, &edits);
                if variant == ChaseVariant::Restricted {
                    let mut reference = machine(&ep, variant);
                    assert!(reference.run(&Budget::unlimited()).is_saturated());
                    assert!(is_model(&ep, m.instance()), "retract {target}: not a model");
                    assert!(
                        chasekit_core::hom_equivalent(m.instance(), reference.instance()),
                        "retract {target}: not hom-equivalent to a from-scratch chase"
                    );
                } else {
                    assert_eq!(
                        canonical_form(m.instance(), m.derivation()),
                        scratch_canonical(&ep, variant),
                        "retract {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn retracting_a_derived_atom_is_an_error() {
        let mut p = Program::parse("p(X) -> q(X).\np(a).\n").unwrap();
        let edits = parse_edit_script("retract q(a).", &mut p).unwrap();
        let mut m = machine(&p, ChaseVariant::SemiOblivious);
        assert!(m.run(&Budget::unlimited()).is_saturated());
        let err = m.apply_edits(&edits, &Budget::unlimited()).unwrap_err();
        assert_eq!(err, UpdateError::NotABaseFact("q(a)".into()));
        assert_eq!(err.to_string(), "cannot retract q(a): it is chase-derived, not a base fact");
    }

    #[test]
    fn a_second_retract_of_a_rederived_fact_is_absent() {
        // q(a) is base and derivable: the first retraction takes it out of
        // the base and the chase derives it again; the second finds no
        // base fact to retract, as `edited_program` does.
        for variant in [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious] {
            let mut p = Program::parse("p(X) -> q(X).\np(a). q(a).\n").unwrap();
            let edits = parse_edit_script("retract q(a).\nretract q(a).", &mut p).unwrap();
            let mut m = machine(&p, variant);
            assert!(m.run(&Budget::unlimited()).is_saturated());
            let report = m.apply_edits(&edits, &Budget::unlimited()).unwrap();
            assert_eq!((report.retracts, report.missing_retracts), (1, 1));
            check_support(m.instance(), m.derivation()).unwrap();
            let reference = scratch_canonical(&edited_program(&p, &edits), variant);
            assert_eq!(canonical_form(m.instance(), m.derivation()), reference);
        }
        // An atom that was never a base fact still cannot be retracted,
        // whatever was retracted before it.
        let text = "p(X) -> q(X).\nq(X) -> r(X).\np(a). q(a). p(b).\n";
        let mut p = Program::parse(text).unwrap();
        let edits = parse_edit_script("retract q(a).\nretract r(b).", &mut p).unwrap();
        let mut m = machine(&p, ChaseVariant::SemiOblivious);
        assert!(m.run(&Budget::unlimited()).is_saturated());
        let err = m.apply_edits(&edits, &Budget::unlimited()).unwrap_err();
        assert_eq!(err, UpdateError::NotABaseFact("r(b)".into()));
    }

    #[test]
    fn adding_a_derived_fact_makes_it_a_base_fact() {
        // q(a) is derived from p(a) (at the second head position). Adding
        // it makes it base: retracting p(a) keeps it, and retracting it
        // again leaves it derived from p(a).
        let text = "p(X) -> r(X, Y), q(X).\nq(X) -> s(X).\np(a). p(b).\n";
        for script in
            ["add q(a).\nretract p(a).", "add q(a).\nretract q(a).", "add q(a).\nadd q(a)."]
        {
            for variant in
                [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted]
            {
                let mut p = Program::parse(text).unwrap();
                let edits = parse_edit_script(script, &mut p).unwrap();
                let mut m = machine(&p, variant);
                assert!(m.run(&Budget::unlimited()).is_saturated());
                let report = m.apply_edits(&edits, &Budget::unlimited()).unwrap();
                assert!(report.outcome.is_saturated());
                assert_eq!(report.missing_retracts, 0, "{script} under {variant}");
                check_support(m.instance(), m.derivation()).unwrap();
                let ep = edited_program(&p, &edits);
                if variant == ChaseVariant::Restricted {
                    let mut reference = machine(&ep, variant);
                    assert!(reference.run(&Budget::unlimited()).is_saturated());
                    assert!(is_model(&ep, m.instance()), "{script}: not a model");
                    assert!(
                        chasekit_core::hom_equivalent(m.instance(), reference.instance()),
                        "{script}: not hom-equivalent to a from-scratch chase"
                    );
                } else {
                    assert_eq!(
                        canonical_form(m.instance(), m.derivation()),
                        scratch_canonical(&ep, variant),
                        "{script} under {variant}"
                    );
                }
            }
        }
    }

    #[test]
    fn edit_errors_render_facts_with_the_vocabulary() {
        let p = Program::parse("p(X) -> q(X).\np(a).\n").unwrap();
        let mut m = machine(&p, ChaseVariant::SemiOblivious);
        let open_fact = Atom::new(p.facts()[0].pred, vec![Term::Var(chasekit_core::VarId(4))]);
        assert_eq!(
            m.retract_fact(&open_fact).unwrap_err().to_string(),
            "edit fact p(?4) is not ground"
        );
        let wrong_arity = Atom::new(p.facts()[0].pred, vec![p.facts()[0].args[0]; 2]);
        assert_eq!(
            m.add_fact(&wrong_arity).unwrap_err().to_string(),
            "edit fact p(a, a) does not match the program vocabulary"
        );
        // A predicate outside the vocabulary falls back to the internal
        // form instead of panicking.
        let unknown = Atom::new(chasekit_core::PredId(99), vec![p.facts()[0].args[0]]);
        let err = m.add_fact(&unknown).unwrap_err();
        assert!(matches!(err, UpdateError::Vocabulary(_)), "{err}");
        assert!(err.to_string().contains("PredId(99)"), "{err}");
    }

    #[test]
    fn existential_cone_is_deleted_and_nulls_reused_elsewhere() {
        // Example 1 of the paper: retracting person(b) kills only b's
        // father chain; a's chain keeps its original nulls.
        let text = "person(X) -> hasFather(X, Y), person(Y).\nperson(a). person(b).\n";
        for variant in [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious] {
            let mut p = Program::parse(text).unwrap();
            let edits = parse_edit_script("retract person(b).", &mut p).unwrap();
            let mut m = machine(&p, variant);
            let _ = m.run(&Budget::applications(12));
            let report = m.apply_edits(&edits, &Budget::applications(12)).unwrap();
            assert!(report.overdeleted >= 1);
            assert!(report.invalidated_apps >= 1);
            check_support(m.instance(), m.derivation()).unwrap();
            // The survivors are exactly a's chain: a from-scratch run on the
            // edited base reaches the same state after that many firings
            // (budgets are cumulative, so the updated machine applied
            // nothing new — its 12 are spent).
            let ep = edited_program(&p, &edits);
            let mut reference = machine(&ep, variant);
            let _ = reference.run(&Budget::applications(12 - report.invalidated_apps as u64));
            assert_eq!(
                canonical_form(m.instance(), m.derivation()),
                canonical_form(reference.instance(), reference.derivation()),
            );
        }
    }

    #[test]
    fn restricted_reopens_skips_whose_witness_died() {
        // Both rules want e(a, _). Whichever fires first satisfies the
        // other, which is skipped. Retracting the fired rule's base fact
        // deletes the witness; the skip must re-open and fire.
        let text = "p(X) -> e(X, Y).\nh(X) -> e(X, Y).\np(a). h(a).\n";
        let mut p = Program::parse(text).unwrap();
        let edits = parse_edit_script("retract p(a).", &mut p).unwrap();
        let mut m = machine(&p, ChaseVariant::Restricted);
        assert!(m.run(&Budget::unlimited()).is_saturated());
        assert_eq!(m.stats().satisfied_skips, 1);
        let report = m.apply_edits(&edits, &Budget::unlimited()).unwrap();
        assert!(report.outcome.is_saturated());
        assert_eq!(report.reopened_skips, 1);
        assert!(is_model(&p, m.instance()), "h-rule must be satisfied again");
        check_support(m.instance(), m.derivation()).unwrap();
    }

    #[test]
    fn retraction_work_is_set_by_the_cone_not_the_dag() {
        // One chain per constant: p(c) fires e(c, _), whose f(c) the h(c)
        // chain also supports (a second producer under so, a skip under
        // restricted). Retracting p(c0) has the same small cone whether
        // the DAG holds 5 chains or 50.
        let rules = "p(X) -> e(X, Y).\nh(X) -> e(X, Y).\ne(X, Y) -> f(X), g(Y).\n";
        for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Restricted] {
            let retract = |chains: usize| {
                let facts: String = (0..chains).map(|i| format!("p(c{i}). h(c{i}).\n")).collect();
                let mut p = Program::parse(&format!("{rules}{facts}")).unwrap();
                let edits = parse_edit_script("retract p(c0).", &mut p).unwrap();
                let mut m = machine(&p, variant);
                assert!(m.run(&Budget::unlimited()).is_saturated());
                let apps = m.derivation().applications().count();
                let Edit::Retract(fact) = &edits[0] else { unreachable!() };
                let out = m.retract_fact(fact).unwrap();
                assert!(m.run(&Budget::unlimited()).is_saturated());
                check_support(m.instance(), m.derivation()).unwrap();
                (apps, out)
            };
            let (small_dag, small) = retract(5);
            let (large_dag, large) = retract(50);
            assert!(large_dag >= 10 * small_dag, "{variant}: {small_dag} vs {large_dag}");
            assert_eq!(small, large, "{variant}: the same cone does the same work");
            let cone = small.overdeleted + small.invalidated_apps + small.rederived_apps;
            assert!(small.visited > 0 && small.visited <= 2 * cone, "{variant}: {small:?}");
            match variant {
                ChaseVariant::Restricted => assert_eq!(small.reopened_skips, 1, "{small:?}"),
                _ => assert_eq!(small.restored_atoms, 1, "{small:?}"),
            }
        }
    }

    #[test]
    fn interleaved_script_matches_from_scratch() {
        let mut p = Program::parse(DATALOG).unwrap();
        let script = "% refresh the b column\nretract p(b).\nadd p(c).\nadd q(b).\nretract p(a).\n";
        let edits = parse_edit_script(script, &mut p).unwrap();
        for variant in [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious] {
            let mut m = machine(&p, variant);
            assert!(m.run(&Budget::unlimited()).is_saturated());
            let report = m.apply_edits(&edits, &Budget::unlimited()).unwrap();
            assert!(report.outcome.is_saturated());
            assert_eq!(report.adds, 2);
            assert_eq!(report.retracts, 2);
            check_support(m.instance(), m.derivation()).unwrap();
            let reference = scratch_canonical(&edited_program(&p, &edits), variant);
            assert_eq!(canonical_form(m.instance(), m.derivation()), reference);
        }
    }

    #[test]
    fn edit_script_parse_errors_carry_line_numbers() {
        let mut p = Program::parse(DATALOG).unwrap();
        let err = parse_edit_script("add p(a).\ndrop p(b).", &mut p).unwrap_err();
        assert!(matches!(err, UpdateError::Script { line: 2, .. }), "{err}");
        let err = parse_edit_script("add p(a, b).", &mut p).unwrap_err();
        assert!(matches!(err, UpdateError::Script { line: 1, .. }), "{err}");
        // New predicates and constants are interned on the fly.
        let edits = parse_edit_script("add fresh(z).", &mut p).unwrap();
        assert_eq!(edits.len(), 1);
        assert!(p.vocab.pred("fresh").is_some());
    }

    #[test]
    fn update_after_budget_stop_repairs_the_queue() {
        // Stop mid-run with pending triggers, retract, then finish: the
        // final state must match the from-scratch chase of the edited base.
        let mut p = Program::parse(DATALOG).unwrap();
        let edits = parse_edit_script("retract p(a).", &mut p).unwrap();
        let mut m = machine(&p, ChaseVariant::SemiOblivious);
        let _ = m.run(&Budget::applications(1));
        let report = m.apply_edits(&edits, &Budget::unlimited()).unwrap();
        assert!(report.outcome.is_saturated());
        check_support(m.instance(), m.derivation()).unwrap();
        let reference = scratch_canonical(&edited_program(&p, &edits), ChaseVariant::SemiOblivious);
        assert_eq!(canonical_form(m.instance(), m.derivation()), reference);
    }

    #[test]
    fn canonical_form_is_order_independent() {
        let text = "person(X) -> hasFather(X, Y), person(Y).\nperson(a). person(b).\n";
        let p = Program::parse(text).unwrap();
        let canon = |seed: u64| {
            let mut m = ChaseMachine::new(
                &p,
                ChaseConfig::of(ChaseVariant::Oblivious)
                    .with_random_scheduling(seed)
                    .with_derivation(),
                Instance::from_atoms(p.facts().iter().cloned()),
            );
            let _ = m.run(&Budget::applications(20));
            canonical_form(m.instance(), m.derivation())
        };
        // Null numbering depends on trigger order, so the canonical form of
        // a *saturated* run must be schedule-invariant; non-saturated runs
        // only get a rendering smoke check.
        let p2 = Program::parse(DATALOG).unwrap();
        let canon2 = |seed: u64| {
            let mut m = ChaseMachine::new(
                &p2,
                ChaseConfig::of(ChaseVariant::Oblivious)
                    .with_random_scheduling(seed)
                    .with_derivation(),
                Instance::from_atoms(p2.facts().iter().cloned()),
            );
            assert!(m.run(&Budget::unlimited()).is_saturated());
            canonical_form(m.instance(), m.derivation())
        };
        assert_eq!(canon2(7), canon2(1234));
        assert!(canon(7).iter().any(|a| a.contains("s0.0(")));
    }
}
