//! The critical instance.
//!
//! Marnette's simulation lemma (PODS'09) is the semantic anchor of every
//! exact procedure in this workspace: for the oblivious and semi-oblivious
//! chase, the chase of a rule set Σ terminates on **every** instance iff it
//! terminates on the *critical instance* `crit(Σ)` — the instance containing
//! `p(c̄)` for every predicate `p` and every tuple `c̄` over the constants of
//! Σ plus one fresh constant `⋆`.
//!
//! Why it holds: every instance maps homomorphically into `crit(Σ)`
//! (send every constant outside Σ's constants to `⋆`), and (semi-)oblivious
//! chase steps are preserved under homomorphisms, so an infinite chase of any
//! instance is simulated by an infinite chase of `crit(Σ)`.
//!
//! The paper's Theorem 4 is stated for *standard databases* — databases with
//! designated constants `0` and `1` exposed through unary predicates `0()`
//! and `1()`. [`CriticalInstance::standard`] builds the corresponding
//! critical instance (the standardness is needed only for the paper's lower
//! bounds; upper bounds hold regardless).

use crate::atom::Atom;
use crate::ids::{ConstId, PredId};
use crate::instance::Instance;
use crate::program::Program;
use crate::term::Term;

/// Builder/result of critical-instance construction.
#[derive(Debug, Clone)]
pub struct CriticalInstance {
    /// The constants used, including the fresh `⋆` (last position).
    pub constants: Vec<ConstId>,
    /// The generated instance.
    pub instance: Instance,
    /// The fresh constant `⋆`.
    pub star: ConstId,
}

/// Name used for the fresh critical constant.
pub const STAR_NAME: &str = "\u{22c6}critical";

impl CriticalInstance {
    /// Builds `crit(Σ)` for the program's rule predicates and rule constants
    /// plus a fresh `⋆`.
    ///
    /// The number of atoms is `Σ_p |C|^{arity(p)}`; callers should keep rule
    /// constants and arities small (the termination procedures do).
    pub fn build(program: &mut Program) -> CriticalInstance {
        let star = program.vocab.intern_const(STAR_NAME);
        let mut constants = program.rule_constants();
        if !constants.contains(&star) {
            constants.push(star);
        }
        let preds = program.rule_predicates();
        let instance = Self::fill(program, &preds, &constants);
        CriticalInstance { constants, instance, star }
    }

    /// Builds the critical instance for *standard databases*: like
    /// [`CriticalInstance::build`] but the constant pool also contains `0`
    /// and `1`, and the instance additionally contains the facts `0(0)` and
    /// `1(1)` (declaring the unary predicates if absent).
    pub fn standard(program: &mut Program) -> CriticalInstance {
        let star = program.vocab.intern_const(STAR_NAME);
        let zero = program.vocab.intern_const("0");
        let one = program.vocab.intern_const("1");
        let mut constants = program.rule_constants();
        for c in [zero, one, star] {
            if !constants.contains(&c) {
                constants.push(c);
            }
        }
        let p0 = program.vocab.declare_pred("0", 1).expect("unary predicate 0 must be consistent");
        let p1 = program.vocab.declare_pred("1", 1).expect("unary predicate 1 must be consistent");
        // The predicates 0 and 1 are *reserved*: every standard database
        // contains exactly 0(0) and 1(1) in them, so they are excluded from
        // the all-combinations fill.
        let mut preds = program.rule_predicates();
        preds.retain(|&p| p != p0 && p != p1);
        let mut instance = Self::fill(program, &preds, &constants);
        instance.insert(Atom::new(p0, vec![Term::Const(zero)]));
        instance.insert(Atom::new(p1, vec![Term::Const(one)]));
        CriticalInstance { constants, instance, star }
    }

    /// Fills every predicate with every combination of constants.
    fn fill(program: &Program, preds: &[PredId], constants: &[ConstId]) -> Instance {
        debug_assert!(!constants.is_empty(), "the fresh constant is always present");
        let mut instance = Instance::new();
        for &pred in preds {
            let arity = program.vocab.arity(pred);
            let mut tuple = vec![0usize; arity];
            'combos: loop {
                let args: Vec<Term> = tuple.iter().map(|&i| Term::Const(constants[i])).collect();
                instance.insert(Atom::new(pred, args));
                // Odometer increment over `constants`; zero-arity predicates
                // yield exactly one (empty-args) atom.
                let mut k = arity;
                loop {
                    if k == 0 {
                        break 'combos;
                    }
                    k -= 1;
                    tuple[k] += 1;
                    if tuple[k] < constants.len() {
                        break;
                    }
                    tuple[k] = 0;
                }
            }
        }
        instance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_free_program_gets_single_star_tuple_per_pred() {
        let mut p = Program::parse("e(X, Y) -> e(Y, Z).").unwrap();
        let crit = CriticalInstance::build(&mut p);
        assert_eq!(crit.constants.len(), 1);
        // e has arity 2 → 1^2 = 1 atom.
        assert_eq!(crit.instance.len(), 1);
        let atom = crit.instance.iter().next().unwrap().1;
        assert!(atom.args.iter().all(|t| *t == Term::Const(crit.star)));
    }

    #[test]
    fn rule_constants_multiply_the_tuples() {
        let mut p = Program::parse("e(X, a) -> e(b, X).").unwrap();
        let crit = CriticalInstance::build(&mut p);
        // Constants {a, b, ⋆}: e arity 2 → 9 atoms.
        assert_eq!(crit.constants.len(), 3);
        assert_eq!(crit.instance.len(), 9);
    }

    #[test]
    fn multiple_predicates_are_all_filled() {
        let mut p = Program::parse("p(X) -> q(X, Y). q(X, Y) -> r(X).").unwrap();
        let crit = CriticalInstance::build(&mut p);
        // p:1 + q:2 + r:1 over 1 constant = 1 + 1 + 1.
        assert_eq!(crit.instance.len(), 3);
    }

    #[test]
    fn zero_ary_predicates_get_one_atom() {
        let mut p = Program::parse("start -> p(X).").unwrap();
        let crit = CriticalInstance::build(&mut p);
        // start() and p(⋆).
        assert_eq!(crit.instance.len(), 2);
    }

    #[test]
    fn standard_instance_contains_zero_and_one() {
        let mut p = Program::parse("e(X, Y) -> e(Y, Z).").unwrap();
        let crit = CriticalInstance::standard(&mut p);
        // Constants {0, 1, ⋆}: e → 9 atoms, plus exactly 0(0) and 1(1)
        // (the reserved predicates are not filled with combinations).
        assert_eq!(crit.constants.len(), 3);
        let zero_pred = p.vocab.pred("0").unwrap();
        let one_pred = p.vocab.pred("1").unwrap();
        let zero_const = p.vocab.constant("0").unwrap();
        let one_const = p.vocab.constant("1").unwrap();
        assert!(crit.instance.contains(&Atom::new(zero_pred, vec![Term::Const(zero_const)])));
        assert!(crit.instance.contains(&Atom::new(one_pred, vec![Term::Const(one_const)])));
        assert_eq!(crit.instance.len(), 9 + 1 + 1);
        // The reserved predicates contain nothing else.
        assert_eq!(crit.instance.with_pred(zero_pred).len(), 1);
        assert!(!crit.instance.contains(&Atom::new(zero_pred, vec![Term::Const(crit.star)])));
    }

    #[test]
    fn star_is_always_present_in_constant_pool() {
        let mut p = Program::parse("p(a) -> q(a).").unwrap();
        let crit = CriticalInstance::build(&mut p);
        assert!(crit.constants.contains(&crit.star));
        // {a, ⋆} over p:1, q:1 → 4 atoms.
        assert_eq!(crit.instance.len(), 4);
    }
}
