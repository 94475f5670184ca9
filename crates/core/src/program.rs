//! Programs: a vocabulary, a set of TGDs, and optional ground facts.

use crate::atom::Atom;
use crate::error::CoreError;
use crate::fxhash::FxHashSet;
use crate::ids::{ConstId, PredId};
use crate::rule::{Quantifier, RuleClass, Tgd, VarInfo};
use crate::term::Term;
use crate::vocab::Vocabulary;

/// A program: vocabulary + TGDs + ground facts.
///
/// This is the unit that the chase engines and the termination procedures
/// consume. Facts are optional — the termination problem quantifies over all
/// databases, so most analyses ignore them — but the parser accepts them and
/// the chase uses them as the initial instance when present.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Predicate and constant declarations.
    pub vocab: Vocabulary,
    rules: Vec<Tgd>,
    facts: Vec<Atom>,
}

// Server jobs and seed-parallel experiments share programs across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
};

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a program from the textual rule format (see [`crate::parser`]).
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        crate::parser::parse_program(text)
    }

    /// The rules.
    #[inline]
    pub fn rules(&self) -> &[Tgd] {
        &self.rules
    }

    /// The ground facts.
    #[inline]
    pub fn facts(&self) -> &[Atom] {
        &self.facts
    }

    /// Adds a validated rule, checking arities against the vocabulary.
    pub fn add_rule(&mut self, rule: Tgd) -> Result<usize, CoreError> {
        for atom in rule.body().iter().chain(rule.head()) {
            let declared = self.vocab.arity(atom.pred);
            if declared != atom.arity() {
                return Err(CoreError::ArityMismatch {
                    predicate: self.vocab.pred_name(atom.pred).to_owned(),
                    declared,
                    used: atom.arity(),
                });
            }
        }
        self.rules.push(rule);
        Ok(self.rules.len() - 1)
    }

    /// Adds a ground fact, checking groundness and arity.
    pub fn add_fact(&mut self, fact: Atom) -> Result<(), CoreError> {
        if !fact.is_ground() {
            return Err(CoreError::NonGroundFact { fact: format!("{fact:?}") });
        }
        let declared = self.vocab.arity(fact.pred);
        if declared != fact.arity() {
            return Err(CoreError::ArityMismatch {
                predicate: self.vocab.pred_name(fact.pred).to_owned(),
                declared,
                used: fact.arity(),
            });
        }
        self.facts.push(fact);
        Ok(())
    }

    /// Removes every occurrence of a ground fact; returns whether any was
    /// present. Used when applying edit scripts to a program's base.
    pub fn remove_fact(&mut self, fact: &Atom) -> bool {
        let before = self.facts.len();
        self.facts.retain(|f| f != fact);
        self.facts.len() != before
    }

    /// The syntactic class of the rule set.
    pub fn class(&self) -> RuleClass {
        RuleClass::of(&self.rules)
    }

    /// Constants that occur inside rules (body or head), deduplicated.
    ///
    /// These are the constants the critical instance must mention in addition
    /// to its fresh constant.
    pub fn rule_constants(&self) -> Vec<ConstId> {
        let mut seen: FxHashSet<ConstId> = FxHashSet::default();
        let mut out = Vec::new();
        for rule in &self.rules {
            for atom in rule.body().iter().chain(rule.head()) {
                for t in &atom.args {
                    if let Term::Const(c) = *t {
                        if seen.insert(c) {
                            out.push(c);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Predicates that occur anywhere in the rules.
    pub fn rule_predicates(&self) -> Vec<PredId> {
        let mut seen: FxHashSet<PredId> = FxHashSet::default();
        let mut out = Vec::new();
        for rule in &self.rules {
            for atom in rule.body().iter().chain(rule.head()) {
                if seen.insert(atom.pred) {
                    out.push(atom.pred);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Incremental builder for a single rule, interning variables by name.
///
/// Quantifiers are inferred when [`RuleBuilder::build`] runs: a variable is
/// universal iff it occurs in the body; head-only variables are existential.
///
/// ```
/// use chasekit_core::{Program, RuleBuilder};
///
/// let mut program = Program::new();
/// let person = program.vocab.declare_pred("person", 1).unwrap();
/// let has_father = program.vocab.declare_pred("hasFather", 2).unwrap();
///
/// let mut r = RuleBuilder::new();
/// let x = r.var("X");
/// let y = r.var("Y");
/// r.body_atom(person, vec![x]);
/// r.head_atom(has_father, vec![x, y]);
/// r.head_atom(person, vec![y]);
/// program.add_rule(r.build().unwrap()).unwrap();
/// assert!(program.rules()[0].is_simple_linear());
/// ```
#[derive(Debug, Default)]
pub struct RuleBuilder {
    var_names: Vec<String>,
    body: Vec<Atom>,
    head: Vec<Atom>,
}

impl RuleBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a variable by name, returning its term.
    pub fn var(&mut self, name: &str) -> Term {
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            return Term::Var(crate::ids::VarId::from_index(i));
        }
        let id = crate::ids::VarId::from_index(self.var_names.len());
        self.var_names.push(name.to_owned());
        Term::Var(id)
    }

    /// Appends a body atom.
    pub fn body_atom(&mut self, pred: PredId, args: Vec<Term>) -> &mut Self {
        self.body.push(Atom::new(pred, args));
        self
    }

    /// Appends a head atom.
    pub fn head_atom(&mut self, pred: PredId, args: Vec<Term>) -> &mut Self {
        self.head.push(Atom::new(pred, args));
        self
    }

    /// Finalizes the rule, inferring quantifiers.
    pub fn build(self) -> Result<Tgd, CoreError> {
        let mut in_body = vec![false; self.var_names.len()];
        for a in &self.body {
            for v in a.vars() {
                in_body[v.index()] = true;
            }
        }
        let vars: Vec<VarInfo> = self
            .var_names
            .into_iter()
            .enumerate()
            .map(|(i, name)| VarInfo {
                name,
                quantifier: if in_body[i] {
                    Quantifier::Universal
                } else {
                    Quantifier::Existential
                },
            })
            .collect();
        Tgd::new(self.body, self.head, vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_infers_quantifiers() {
        let mut p = Program::new();
        let e = p.vocab.declare_pred("e", 2).unwrap();
        let mut r = RuleBuilder::new();
        let x = r.var("X");
        let y = r.var("Y");
        let z = r.var("Z");
        r.body_atom(e, vec![x, y]);
        r.head_atom(e, vec![y, z]);
        let rule = r.build().unwrap();
        assert_eq!(rule.frontier().len(), 1); // Y
        assert_eq!(rule.existentials().len(), 1); // Z
        p.add_rule(rule).unwrap();
        assert_eq!(p.class(), RuleClass::SimpleLinear);
    }

    #[test]
    fn add_rule_checks_arity() {
        let mut p = Program::new();
        let e = p.vocab.declare_pred("e", 2).unwrap();
        let mut r = RuleBuilder::new();
        let x = r.var("X");
        r.body_atom(e, vec![x]); // wrong arity
        r.head_atom(e, vec![x, x]);
        let rule = r.build().unwrap();
        assert!(matches!(p.add_rule(rule), Err(CoreError::ArityMismatch { .. })));
    }

    #[test]
    fn add_fact_requires_ground() {
        let mut p = Program::new();
        let e = p.vocab.declare_pred("e", 2).unwrap();
        let a = p.vocab.intern_const("a");
        p.add_fact(Atom::new(e, vec![Term::Const(a), Term::Const(a)])).unwrap();
        assert_eq!(p.facts().len(), 1);
        let bad = Atom::new(e, vec![Term::Var(crate::ids::VarId(0)), Term::Const(a)]);
        assert!(matches!(p.add_fact(bad), Err(CoreError::NonGroundFact { .. })));
    }

    #[test]
    fn rule_constants_are_deduplicated_and_sorted() {
        let mut p = Program::new();
        let e = p.vocab.declare_pred("e", 2).unwrap();
        let a = p.vocab.intern_const("a");
        let b = p.vocab.intern_const("b");
        let mut r = RuleBuilder::new();
        let x = r.var("X");
        r.body_atom(e, vec![x, Term::Const(b)]);
        r.head_atom(e, vec![Term::Const(a), Term::Const(b)]);
        p.add_rule(r.build().unwrap()).unwrap();
        assert_eq!(p.rule_constants(), vec![a, b]);
    }

    #[test]
    fn rule_predicates_collects_all() {
        let mut p = Program::new();
        let e = p.vocab.declare_pred("e", 2).unwrap();
        let q = p.vocab.declare_pred("q", 1).unwrap();
        let _unused = p.vocab.declare_pred("unused", 1).unwrap();
        let mut r = RuleBuilder::new();
        let x = r.var("X");
        let y = r.var("Y");
        r.body_atom(e, vec![x, y]);
        r.head_atom(q, vec![y]);
        p.add_rule(r.build().unwrap()).unwrap();
        assert_eq!(p.rule_predicates(), vec![e, q]);
    }
}
