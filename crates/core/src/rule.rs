//! Tuple-generating dependencies (TGDs, a.k.a. existential rules) and their
//! syntactic classification.
//!
//! A TGD has the logical form
//! `∀X ∀Y ( φ(X, Y) → ∃Z ψ(Y, Z) )` where `φ` (the *body*) and `ψ` (the
//! *head*) are conjunctions of atoms. Following the paper:
//!
//! * the **frontier** is the set of universally quantified variables that
//!   occur in the head (`Y` above);
//! * a TGD is **linear** if its body consists of a single atom;
//! * a TGD is **simple linear** if it is linear and no variable is repeated
//!   in the body atom;
//! * a TGD is **guarded** if some body atom (a *guard*) contains every
//!   universally quantified variable of the rule.

use crate::atom::Atom;
use crate::error::CoreError;
use crate::ids::VarId;
use crate::term::Term;

/// Quantification of a rule variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    /// Universally quantified: occurs in the body.
    Universal,
    /// Existentially quantified: occurs in the head only.
    Existential,
}

/// Metadata for one rule variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source-level name (used for display; synthesized names for
    /// programmatically built rules).
    pub name: String,
    /// Universal or existential.
    pub quantifier: Quantifier,
}

/// A tuple-generating dependency.
///
/// Construct with [`Tgd::new`], which validates safety and computes the
/// derived metadata (frontier, guard, classification flags).
#[derive(Debug, Clone)]
pub struct Tgd {
    body: Vec<Atom>,
    head: Vec<Atom>,
    vars: Vec<VarInfo>,
    frontier: Vec<VarId>,
    existential: Vec<VarId>,
    universal: Vec<VarId>,
    guard: Option<usize>,
}

impl Tgd {
    /// Builds and validates a TGD.
    ///
    /// `vars` must cover every `VarId` used in `body` and `head` (ids index
    /// into it). Validation enforces:
    /// * non-empty body and head;
    /// * safety: every universal variable occurring in the head occurs in
    ///   the body;
    /// * consistency: variables marked existential do not occur in the body,
    ///   and variables marked universal occur in the body.
    pub fn new(body: Vec<Atom>, head: Vec<Atom>, vars: Vec<VarInfo>) -> Result<Self, CoreError> {
        if body.is_empty() {
            return Err(CoreError::EmptyRule { rule: "<tgd>".into(), side: "body" });
        }
        if head.is_empty() {
            return Err(CoreError::EmptyRule { rule: "<tgd>".into(), side: "head" });
        }

        let mut in_body = vec![false; vars.len()];
        for a in &body {
            for v in a.vars() {
                in_body[v.index()] = true;
            }
        }
        let mut in_head = vec![false; vars.len()];
        for a in &head {
            for v in a.vars() {
                in_head[v.index()] = true;
            }
        }

        for (i, info) in vars.iter().enumerate() {
            match info.quantifier {
                Quantifier::Universal => {
                    if !in_body[i] {
                        return Err(CoreError::UnsafeRule {
                            rule: "<tgd>".into(),
                            variable: info.name.clone(),
                        });
                    }
                }
                Quantifier::Existential => {
                    if in_body[i] {
                        return Err(CoreError::UnsafeRule {
                            rule: "<tgd>".into(),
                            variable: info.name.clone(),
                        });
                    }
                }
            }
        }

        let frontier: Vec<VarId> = (0..vars.len())
            .filter(|&i| vars[i].quantifier == Quantifier::Universal && in_head[i])
            .map(VarId::from_index)
            .collect();
        let existential: Vec<VarId> = (0..vars.len())
            .filter(|&i| vars[i].quantifier == Quantifier::Existential)
            .map(VarId::from_index)
            .collect();
        let universal: Vec<VarId> = (0..vars.len())
            .filter(|&i| vars[i].quantifier == Quantifier::Universal)
            .map(VarId::from_index)
            .collect();

        // A guard is a body atom containing every universal variable.
        let universal_count = universal.len();
        let guard = body.iter().position(|a| {
            let mut seen = vec![false; vars.len()];
            let mut count = 0usize;
            for t in &a.args {
                if let Term::Var(v) = *t {
                    if vars[v.index()].quantifier == Quantifier::Universal && !seen[v.index()] {
                        seen[v.index()] = true;
                        count += 1;
                    }
                }
            }
            count == universal_count
        });

        Ok(Tgd { body, head, vars, frontier, existential, universal, guard })
    }

    /// The body atoms.
    #[inline]
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// The head atoms.
    #[inline]
    pub fn head(&self) -> &[Atom] {
        &self.head
    }

    /// Per-variable metadata; `VarId`s index into this slice.
    #[inline]
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// Number of rule variables.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The frontier: universal variables occurring in the head, ascending.
    #[inline]
    pub fn frontier(&self) -> &[VarId] {
        &self.frontier
    }

    /// The existential variables, ascending.
    #[inline]
    pub fn existentials(&self) -> &[VarId] {
        &self.existential
    }

    /// Whether `v` is universally quantified.
    #[inline]
    pub fn is_universal(&self, v: VarId) -> bool {
        self.vars[v.index()].quantifier == Quantifier::Universal
    }

    /// Whether `v` is in the frontier.
    #[inline]
    pub fn is_frontier(&self, v: VarId) -> bool {
        self.frontier.binary_search(&v).is_ok()
    }

    /// Universal variables of the rule (frontier or not), ascending.
    #[inline]
    pub fn universals(&self) -> &[VarId] {
        &self.universal
    }

    /// Index (into the body) of a guard atom, if the rule is guarded.
    #[inline]
    pub fn guard_index(&self) -> Option<usize> {
        self.guard
    }

    /// Whether the rule is guarded: some body atom contains all universal
    /// variables.
    #[inline]
    pub fn is_guarded(&self) -> bool {
        self.guard.is_some()
    }

    /// Whether the rule is linear: a single body atom. Linear rules are
    /// trivially guarded.
    #[inline]
    pub fn is_linear(&self) -> bool {
        self.body.len() == 1
    }

    /// Whether the rule is simple linear: linear with no repeated variable
    /// in the body atom.
    #[inline]
    pub fn is_simple_linear(&self) -> bool {
        self.is_linear() && !self.body[0].has_repeated_var()
    }

    /// Whether the rule is plain Datalog: no existential variables.
    #[inline]
    pub fn is_datalog(&self) -> bool {
        self.existential.is_empty()
    }

    /// Whether the rule has a single head atom.
    #[inline]
    pub fn is_single_head(&self) -> bool {
        self.head.len() == 1
    }

    /// The positions `(head_atom_index, arg_index)` at which existential
    /// variables occur.
    pub fn existential_positions(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ai, a) in self.head.iter().enumerate() {
            for (pi, t) in a.args.iter().enumerate() {
                if let Term::Var(v) = *t {
                    if !self.is_universal(v) {
                        out.push((ai, pi));
                    }
                }
            }
        }
        out
    }
}

/// Syntactic class of a rule set, ordered from most to least restrictive.
///
/// `SimpleLinear ⊊ Linear ⊊ Guarded ⊊ General` (as classes of rule sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleClass {
    /// Every rule is simple linear.
    SimpleLinear,
    /// Every rule is linear.
    Linear,
    /// Every rule is guarded.
    Guarded,
    /// No structural restriction.
    General,
}

impl RuleClass {
    /// Classifies a set of rules into the most restrictive class containing
    /// all of them.
    pub fn of(rules: &[Tgd]) -> RuleClass {
        if rules.iter().all(Tgd::is_simple_linear) {
            RuleClass::SimpleLinear
        } else if rules.iter().all(Tgd::is_linear) {
            RuleClass::Linear
        } else if rules.iter().all(Tgd::is_guarded) {
            RuleClass::Guarded
        } else {
            RuleClass::General
        }
    }
}

impl std::fmt::Display for RuleClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RuleClass::SimpleLinear => "simple-linear",
            RuleClass::Linear => "linear",
            RuleClass::Guarded => "guarded",
            RuleClass::General => "general",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConstId, PredId};

    fn var_infos(names: &[(&str, Quantifier)]) -> Vec<VarInfo> {
        names.iter().map(|(n, q)| VarInfo { name: (*n).into(), quantifier: *q }).collect()
    }

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// person(X) -> hasFather(X, Y), person(Y)   (paper, Example 1)
    fn example1() -> Tgd {
        let person = PredId(0);
        let has_father = PredId(1);
        Tgd::new(
            vec![Atom::new(person, vec![v(0)])],
            vec![Atom::new(has_father, vec![v(0), v(1)]), Atom::new(person, vec![v(1)])],
            var_infos(&[("X", Quantifier::Universal), ("Y", Quantifier::Existential)]),
        )
        .unwrap()
    }

    #[test]
    fn example1_metadata() {
        let r = example1();
        assert_eq!(r.frontier(), &[VarId(0)]);
        assert_eq!(r.existentials(), &[VarId(1)]);
        assert!(r.is_linear());
        assert!(r.is_simple_linear());
        assert!(r.is_guarded());
        assert!(!r.is_datalog());
        assert!(!r.is_single_head());
        assert_eq!(r.guard_index(), Some(0));
        assert_eq!(r.existential_positions(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn unsafe_rule_is_rejected() {
        // p(X) -> q(Z) with Z marked universal but absent from the body.
        let err = Tgd::new(
            vec![Atom::new(PredId(0), vec![v(0)])],
            vec![Atom::new(PredId(1), vec![v(1)])],
            var_infos(&[("X", Quantifier::Universal), ("Z", Quantifier::Universal)]),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::UnsafeRule { .. }));
    }

    #[test]
    fn existential_in_body_is_rejected() {
        let err = Tgd::new(
            vec![Atom::new(PredId(0), vec![v(0)])],
            vec![Atom::new(PredId(1), vec![v(0)])],
            var_infos(&[("X", Quantifier::Existential)]),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::UnsafeRule { .. }));
    }

    #[test]
    fn empty_sides_are_rejected() {
        let e1 = Tgd::new(vec![], vec![Atom::new(PredId(0), vec![])], vec![]).unwrap_err();
        assert!(matches!(e1, CoreError::EmptyRule { side: "body", .. }));
        let e2 = Tgd::new(vec![Atom::new(PredId(0), vec![])], vec![], vec![]).unwrap_err();
        assert!(matches!(e2, CoreError::EmptyRule { side: "head", .. }));
    }

    #[test]
    fn repeated_body_variable_breaks_simplicity_not_linearity() {
        // p(X, X) -> q(X)
        let r = Tgd::new(
            vec![Atom::new(PredId(0), vec![v(0), v(0)])],
            vec![Atom::new(PredId(1), vec![v(0)])],
            var_infos(&[("X", Quantifier::Universal)]),
        )
        .unwrap();
        assert!(r.is_linear());
        assert!(!r.is_simple_linear());
        assert!(r.is_guarded());
    }

    #[test]
    fn guardedness_requires_one_atom_with_all_universals() {
        // p(X), q(Y) -> r(X, Y): not guarded.
        let not_guarded = Tgd::new(
            vec![Atom::new(PredId(0), vec![v(0)]), Atom::new(PredId(1), vec![v(1)])],
            vec![Atom::new(PredId(2), vec![v(0), v(1)])],
            var_infos(&[("X", Quantifier::Universal), ("Y", Quantifier::Universal)]),
        )
        .unwrap();
        assert!(!not_guarded.is_guarded());
        assert!(!not_guarded.is_linear());

        // r(X, Y), p(X) -> s(X, Y): guarded by the first atom.
        let guarded = Tgd::new(
            vec![Atom::new(PredId(2), vec![v(0), v(1)]), Atom::new(PredId(0), vec![v(0)])],
            vec![Atom::new(PredId(3), vec![v(0), v(1)])],
            var_infos(&[("X", Quantifier::Universal), ("Y", Quantifier::Universal)]),
        )
        .unwrap();
        assert_eq!(guarded.guard_index(), Some(0));
    }

    #[test]
    fn guard_with_constants_still_counts() {
        // r(X, c) -> s(X): guard is r(X, c).
        let r = Tgd::new(
            vec![Atom::new(PredId(0), vec![v(0), Term::Const(ConstId(0))])],
            vec![Atom::new(PredId(1), vec![v(0)])],
            var_infos(&[("X", Quantifier::Universal)]),
        )
        .unwrap();
        assert!(r.is_guarded());
    }

    #[test]
    fn class_of_rule_sets() {
        let sl = example1();
        let l = Tgd::new(
            vec![Atom::new(PredId(0), vec![v(0), v(0)])],
            vec![Atom::new(PredId(1), vec![v(0)])],
            var_infos(&[("X", Quantifier::Universal)]),
        )
        .unwrap();
        let g = Tgd::new(
            vec![Atom::new(PredId(2), vec![v(0), v(1)]), Atom::new(PredId(0), vec![v(0)])],
            vec![Atom::new(PredId(3), vec![v(0), v(1)])],
            var_infos(&[("X", Quantifier::Universal), ("Y", Quantifier::Universal)]),
        )
        .unwrap();
        let ng = Tgd::new(
            vec![Atom::new(PredId(0), vec![v(0)]), Atom::new(PredId(1), vec![v(1)])],
            vec![Atom::new(PredId(2), vec![v(0), v(1)])],
            var_infos(&[("X", Quantifier::Universal), ("Y", Quantifier::Universal)]),
        )
        .unwrap();

        assert_eq!(RuleClass::of(std::slice::from_ref(&sl)), RuleClass::SimpleLinear);
        assert_eq!(RuleClass::of(&[sl.clone(), l.clone()]), RuleClass::Linear);
        assert_eq!(RuleClass::of(&[sl.clone(), g.clone()]), RuleClass::Guarded);
        assert_eq!(RuleClass::of(&[sl, ng]), RuleClass::General);
        assert_eq!(RuleClass::of(&[]), RuleClass::SimpleLinear);
    }

    #[test]
    fn class_ordering_matches_containment() {
        assert!(RuleClass::SimpleLinear < RuleClass::Linear);
        assert!(RuleClass::Linear < RuleClass::Guarded);
        assert!(RuleClass::Guarded < RuleClass::General);
    }

    #[test]
    fn datalog_and_single_head_flags() {
        let datalog = Tgd::new(
            vec![Atom::new(PredId(0), vec![v(0)])],
            vec![Atom::new(PredId(1), vec![v(0)])],
            var_infos(&[("X", Quantifier::Universal)]),
        )
        .unwrap();
        assert!(datalog.is_datalog());
        assert!(datalog.is_single_head());
        assert!(datalog.existential_positions().is_empty());
    }
}
