//! The **looping operator**: the paper's generic lower-bound technique.
//!
//! The paper's hardness results reduce *propositional atom entailment* to
//! the complement of chase termination: given a propositional rule set
//! `Σ₀`, a set of initial facts `D₀`, and a goal atom `g`, build a guarded
//! TGD set `loop(Σ₀, D₀, g)` whose chase terminates on **all** databases
//! iff `Σ₀ ∪ D₀ ⊬ g`.
//!
//! # Construction
//!
//! Every propositional atom `p` becomes a unary predicate `p(L)` over a
//! *level* `L`:
//!
//! * each propositional rule `p ∧ q → r` becomes `p(L), q(L) -> r(L)` —
//!   guarded, because every body atom carries the single universal `L`;
//! * each initial fact `p ∈ D₀` becomes the seeding rule
//!   `start(L) -> p(L)`;
//! * the loop gadget `g(L) -> next(L, L'), start(L')` opens a fresh level
//!   whenever the goal is reached.
//!
//! On the critical instance every level-0 atom is present, so the gadget
//! fires once unconditionally; level 1 is a *fresh null*, seeded only with
//! `start`, so `g(level 1)` is derivable iff `Σ₀ ∪ D₀ ⊢ g` — in which case
//! the gadget re-fires forever (each level a fresh null, hence a fresh
//! frontier, under both the oblivious and semi-oblivious chase). If the
//! goal is not entailed, every level saturates after finitely many steps
//! and only finitely many levels are ever opened.
//!
//! The operator therefore turns any family of hard entailment instances
//! into a family of hard termination instances — experiment E5 uses it to
//! probe the termination checkers with instances whose answers are known
//! from a simple propositional fixpoint.

use chasekit_core::{CoreError, Program, RuleBuilder};

/// A propositional Horn program: rules (body atoms → head atom), initial
/// facts, and a goal atom, all named.
#[derive(Debug, Clone, Default)]
pub struct PropositionalProgram {
    /// Rules: (body atom names, head atom name).
    pub rules: Vec<(Vec<String>, String)>,
    /// Initially true atoms.
    pub facts: Vec<String>,
    /// The goal atom.
    pub goal: String,
}

impl PropositionalProgram {
    /// Builds a program from string slices.
    pub fn new(rules: &[(&[&str], &str)], facts: &[&str], goal: &str) -> Self {
        PropositionalProgram {
            rules: rules
                .iter()
                .map(|(b, h)| (b.iter().map(|s| s.to_string()).collect(), h.to_string()))
                .collect(),
            facts: facts.iter().map(|s| s.to_string()).collect(),
            goal: goal.to_string(),
        }
    }

    /// Ground truth: does the program entail its goal? (Naive fixpoint —
    /// these programs are tiny.)
    pub fn entails_goal(&self) -> bool {
        let mut true_atoms: Vec<&str> = self.facts.iter().map(String::as_str).collect();
        loop {
            let mut changed = false;
            for (body, head) in &self.rules {
                if true_atoms.contains(&head.as_str()) {
                    continue;
                }
                if body.iter().all(|b| true_atoms.contains(&b.as_str())) {
                    true_atoms.push(head);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        true_atoms.contains(&self.goal.as_str())
    }

    /// Applies the looping operator, producing a guarded TGD set whose
    /// chase terminates on all databases iff the goal is **not** entailed.
    pub fn looped(&self) -> Result<Program, CoreError> {
        let mut program = Program::new();
        let start = program.vocab.declare_pred("start\u{2113}", 1)?;
        let next = program.vocab.declare_pred("next\u{2113}", 2)?;

        // Propositional rules, levelled.
        for (body, head) in &self.rules {
            let head_pred = program.vocab.declare_pred(head, 1)?;
            let mut rb = RuleBuilder::new();
            let level = rb.var("L");
            for b in body {
                let p = program.vocab.declare_pred(b, 1)?;
                rb.body_atom(p, vec![level]);
            }
            rb.head_atom(head_pred, vec![level]);
            program.add_rule(rb.build()?)?;
        }

        // Seeding rules for the initial facts.
        for f in &self.facts {
            let p = program.vocab.declare_pred(f, 1)?;
            let mut rb = RuleBuilder::new();
            let level = rb.var("L");
            rb.body_atom(start, vec![level]);
            rb.head_atom(p, vec![level]);
            program.add_rule(rb.build()?)?;
        }

        // The loop gadget.
        let goal = program.vocab.declare_pred(&self.goal, 1)?;
        let mut rb = RuleBuilder::new();
        let level = rb.var("L");
        let fresh = rb.var("Lnext");
        rb.body_atom(goal, vec![level]);
        rb.head_atom(next, vec![level, fresh]);
        rb.head_atom(start, vec![fresh]);
        program.add_rule(rb.build()?)?;

        Ok(program)
    }
}

/// Generates a chain instance of depth `n`: facts `a0`, rules
/// `a0 → a1 → ... → an`, goal `an` (entailed), or goal `b` (not entailed)
/// when `entailed` is false. Used by the E5 scaling experiment.
pub fn chain_instance(n: usize, entailed: bool) -> PropositionalProgram {
    let mut rules = Vec::with_capacity(n);
    for i in 0..n {
        rules.push((vec![format!("a{i}")], format!("a{}", i + 1)));
    }
    PropositionalProgram {
        rules,
        facts: vec!["a0".to_string()],
        goal: if entailed { format!("a{n}") } else { "unreachable".to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarded::{decide_guarded, GuardedConfig};
    use chasekit_core::RuleClass;
    use chasekit_engine::ChaseVariant;

    fn decide(p: &Program, variant: ChaseVariant) -> Option<bool> {
        decide_guarded(p, GuardedConfig::new(variant)).unwrap().verdict.terminates()
    }

    #[test]
    fn entailment_fixpoint_is_correct() {
        let p = PropositionalProgram::new(&[(&["a", "b"], "c"), (&["c"], "d")], &["a", "b"], "d");
        assert!(p.entails_goal());
        let q = PropositionalProgram::new(&[(&["a", "b"], "c")], &["a"], "c");
        assert!(!q.entails_goal());
    }

    #[test]
    fn looped_program_is_guarded() {
        let p = PropositionalProgram::new(&[(&["a", "b"], "c")], &["a", "b"], "c");
        let looped = p.looped().unwrap();
        assert!(looped.class() <= RuleClass::Guarded);
    }

    #[test]
    fn entailed_goal_makes_the_chase_diverge() {
        let p = PropositionalProgram::new(&[(&["a", "b"], "c"), (&["c"], "d")], &["a", "b"], "d");
        assert!(p.entails_goal());
        let looped = p.looped().unwrap();
        assert_eq!(decide(&looped, ChaseVariant::SemiOblivious), Some(false));
        assert_eq!(decide(&looped, ChaseVariant::Oblivious), Some(false));
    }

    #[test]
    fn unentailed_goal_makes_the_chase_terminate() {
        let p = PropositionalProgram::new(
            &[(&["a", "b"], "c"), (&["c"], "d")],
            &["a"], // b missing: c, d underivable
            "d",
        );
        assert!(!p.entails_goal());
        let looped = p.looped().unwrap();
        assert_eq!(decide(&looped, ChaseVariant::SemiOblivious), Some(true));
        assert_eq!(decide(&looped, ChaseVariant::Oblivious), Some(true));
    }

    #[test]
    fn chain_instances_scale_and_decide_correctly() {
        for n in [1, 4, 16] {
            let yes = chain_instance(n, true);
            assert!(yes.entails_goal());
            assert_eq!(
                decide(&yes.looped().unwrap(), ChaseVariant::SemiOblivious),
                Some(false),
                "depth {n} entailed"
            );
            let no = chain_instance(n, false);
            assert!(!no.entails_goal());
            assert_eq!(
                decide(&no.looped().unwrap(), ChaseVariant::SemiOblivious),
                Some(true),
                "depth {n} unentailed"
            );
        }
    }

    #[test]
    fn goal_already_a_fact_diverges_immediately() {
        let p = PropositionalProgram::new(&[], &["g"], "g");
        assert!(p.entails_goal());
        let looped = p.looped().unwrap();
        assert_eq!(decide(&looped, ChaseVariant::SemiOblivious), Some(false));
    }

    #[test]
    fn empty_program_with_no_facts_terminates() {
        let p = PropositionalProgram::new(&[], &[], "g");
        assert!(!p.entails_goal());
        let looped = p.looped().unwrap();
        assert_eq!(decide(&looped, ChaseVariant::SemiOblivious), Some(true));
    }
}
