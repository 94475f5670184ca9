//! Ontology-shaped rule-set families for the corpus-scale checker
//! shoot-out (experiment E9).
//!
//! Three families modelled on the rule sets used by the experimental
//! studies in PAPERS.md (Calautti–Milani–Pieris; Karimi–Zhang–You):
//!
//! * [`dl_lite_r`] — DL-Lite_R inclusion dependencies: unary concepts and
//!   binary roles related by seeded concept/role inclusions, inverses,
//!   existential restrictions, and domain/range axioms. Simple linear.
//! * [`lubm`] — a LUBM-flavoured synthetic university ontology: a fixed
//!   terminating backbone (students, professors, courses, departments)
//!   plus seeded extensions including guarded joins, Datalog
//!   transitivity, and an occasional cycle-closer. General class.
//! * [`critical_constants`] — linear rules whose constants and repeated
//!   variables are exactly what the critical-instance WA/RA machinery in
//!   `chasekit_core::critical` distinguishes from plain WA/RA. Linear.
//!
//! Unlike the calibration families in [`crate::families`], these carry
//! `None` termination labels: their ground truth is established by the
//! bounded-chase oracle in the landscape harness, never assumed. Every
//! generator is deterministic in `(size, seed)`.

use crate::families::LabeledProgram;
use chasekit_core::{Program, RuleClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn unlabeled(name: String, src: &str, class: RuleClass) -> LabeledProgram {
    LabeledProgram {
        name,
        program: Program::parse(src).expect("generated ontology sources are well-formed"),
        so_terminates: None,
        o_terminates: None,
        expected_class: class,
    }
}

/// A DL-Lite_R TBox as inclusion dependencies: `size` concepts (arity 1)
/// and `size` roles (arity 2), with roughly `2·size` seeded axioms drawn
/// from the DL-Lite_R constructors — concept inclusion `ci ⊑ cj`, role
/// inclusion `ri ⊑ rj`, inverse role inclusion `ri ⊑ rj⁻`, existential
/// restriction `ci ⊑ ∃rj`, and domain/range axioms `∃ri ⊑ cj` /
/// `∃ri⁻ ⊑ cj`. Every axiom is a single-head simple-linear rule.
pub fn dl_lite_r(size: usize, seed: u64) -> LabeledProgram {
    let size = size.max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    let axioms = 2 * size;
    for _ in 0..axioms {
        let i = rng.gen_range(0..size);
        let j = rng.gen_range(0..size);
        match rng.gen_range(0..6) {
            // Concept inclusion: ci ⊑ cj.
            0 => src.push_str(&format!("c{i}(X) -> c{j}(X).\n")),
            // Role inclusion: ri ⊑ rj.
            1 => src.push_str(&format!("r{i}(X, Y) -> r{j}(X, Y).\n")),
            // Inverse role inclusion: ri ⊑ rj⁻.
            2 => src.push_str(&format!("r{i}(X, Y) -> r{j}(Y, X).\n")),
            // Existential restriction: ci ⊑ ∃rj.
            3 => src.push_str(&format!("c{i}(X) -> r{j}(X, Z).\n")),
            // Domain: ∃ri ⊑ cj.
            4 => src.push_str(&format!("r{i}(X, Y) -> c{j}(X).\n")),
            // Range: ∃ri⁻ ⊑ cj.
            _ => src.push_str(&format!("r{i}(X, Y) -> c{j}(Y).\n")),
        }
    }
    unlabeled(format!("dl-lite-r-{size}-s{seed}"), &src, RuleClass::SimpleLinear)
}

/// A LUBM-flavoured synthetic university ontology: the fixed backbone
/// below (terminating on its own) plus `size` seeded extension rules —
/// specialization chains, domain/inverse axioms, guarded joins,
/// `subOrganizationOf` transitivity (plain Datalog, unguarded), and an
/// occasional cycle-closer (`course ⊑ ∃taughtBy⁻.professor`) that turns
/// the professor/course generator into a null-minting loop.
pub fn lubm(size: usize, seed: u64) -> LabeledProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::from(concat!(
        "graduateStudent(X) -> student(X).\n",
        "associateProfessor(X) -> professor(X).\n",
        "fullProfessor(X) -> professor(X).\n",
        "headOf(X, Y) -> worksFor(X, Y).\n",
        "worksFor(X, Y) -> memberOf(X, Y).\n",
        "memberOf(X, Y) -> organization(Y).\n",
        "professor(X) -> teacherOf(X, Z), course(Z).\n",
        "graduateStudent(X) -> advisor(X, Z), professor(Z).\n",
        "department(X) -> subOrganizationOf(X, Z), university(Z).\n",
        "teacherOf(X, Y) -> course(Y).\n",
        "advisor(X, Y) -> professor(Y).\n",
    ));
    for k in 0..size {
        // One diverging block anywhere dooms the whole program, so the
        // cycle-closer odds shrink with size to keep the population's
        // terminating/diverging mix roughly size-independent (~e^-1).
        if rng.gen_bool(1.0 / (size as f64 + 2.0)) {
            src.push_str("course(X) -> teacherOf(Z, X), professor(Z).\n");
            continue;
        }
        match rng.gen_range(0..7) {
            // Specialization: a fresh sub-concept under a backbone concept.
            0 => {
                let sup = ["professor", "student", "organization", "course"][rng.gen_range(0..4)];
                src.push_str(&format!("special{k}(X) -> {sup}(X).\n"));
            }
            // Fresh sub-role under a backbone role.
            1 => {
                let sup = ["worksFor", "memberOf", "teacherOf"][rng.gen_range(0..3)];
                src.push_str(&format!("subrole{k}(X, Y) -> {sup}(X, Y).\n"));
            }
            // Inverse role axiom.
            2 => src.push_str("memberOf(X, Y) -> hasMember(Y, X).\n"),
            // Domain axiom closing teacherOf back onto professor (Datalog).
            3 => src.push_str("teacherOf(X, Y) -> professor(X).\n"),
            // Guarded join: advised professors are employed somewhere.
            4 => src.push_str("advisor(X, Y), professor(Y) -> worksFor(Y, Z).\n"),
            // Guarded join: course members study it under a teacher.
            5 => src.push_str("teacherOf(X, Y), course(Y) -> takesCourse(Z, Y).\n"),
            // Datalog transitivity — unguarded, pushes the class to General.
            _ => src.push_str(
                "subOrganizationOf(X, Y), subOrganizationOf(Y, Z) -> subOrganizationOf(X, Z).\n",
            ),
        }
    }
    unlabeled(format!("lubm-{size}-s{seed}"), &src, RuleClass::General)
}

/// Linear rule blocks whose termination hinges on what the critical
/// instance can actually realize: constants that block position cycles
/// (plain WA rejects, critical-WA accepts) and repeated body variables
/// that make dangerous cycles unrealizable (the Theorem 2 gap). Each of
/// the `size` blocks draws one of four templates; the `stop` templates
/// terminate, the `loop` templates diverge.
pub fn critical_constants(size: usize, seed: u64) -> LabeledProgram {
    let size = size.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    for i in 0..size {
        // A single diverging block dooms the program, so the loop
        // templates' odds shrink with size (as in [`lubm`]) to keep the
        // terminating/diverging mix roughly size-independent.
        if rng.gen_bool(1.0 / (size as f64 + 1.0)) {
            if rng.gen_bool(0.5) {
                // Constant loop: the feedback rule matches the constant
                // the generator writes — the cycle is real, mints forever.
                src.push_str(&format!("p{i}(X) -> q{i}(b, X, Z). q{i}(b, X, Y) -> p{i}(Y).\n"));
            } else {
                // Variable loop: feedback on the first position, which
                // derived atoms do share — diverges.
                src.push_str(&format!("p{i}(X) -> e{i}(X, Z). e{i}(X, Y) -> p{i}(Y).\n"));
            }
        } else if rng.gen_bool(0.5) {
            // Constant stopper: the feedback rule requires constant `a` in
            // the position the generator fills with `b` — the position
            // cycle WA sees is unrealizable from derived atoms.
            src.push_str(&format!("p{i}(X) -> q{i}(b, X, Z). q{i}(a, X, Y) -> p{i}(Y).\n"));
        } else {
            // Repeated-variable stopper (the Theorem 2 gap family): the
            // feedback rule needs e{i}(t, t), which no derived atom with a
            // fresh null in the second position can supply.
            src.push_str(&format!("p{i}(X) -> e{i}(X, Z). e{i}(X, X) -> p{i}(X).\n"));
        }
    }
    unlabeled(format!("critical-constants-{size}-s{seed}"), &src, RuleClass::Linear)
}

/// A small cross-section of all three ontology families (several sizes ×
/// seeds each) for integration tests and the portfolio example.
pub fn ontology_corpus() -> Vec<LabeledProgram> {
    let mut out = Vec::new();
    for (size, seed) in [(3, 1), (5, 2), (8, 3)] {
        out.push(dl_lite_r(size, seed));
        out.push(lubm(size, seed));
        out.push(critical_constants(size, seed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chasekit_core::display::program_to_string;

    #[test]
    fn generators_are_deterministic_in_size_and_seed() {
        for (size, seed) in [(2, 0), (5, 7), (9, 42)] {
            for gen in [dl_lite_r, lubm, critical_constants] {
                let a = gen(size, seed);
                let b = gen(size, seed);
                assert_eq!(program_to_string(&a.program), program_to_string(&b.program));
            }
        }
        // The seed genuinely varies the output (nearby seeds may collide
        // on tiny sizes, so ask for distinctness across a seed range).
        for gen in [dl_lite_r, lubm, critical_constants] {
            let distinct: std::collections::HashSet<String> =
                (0..16).map(|s| program_to_string(&gen(6, s).program)).collect();
            assert!(distinct.len() >= 4, "only {} distinct programs", distinct.len());
        }
    }

    #[test]
    fn families_respect_their_promised_class() {
        for size in [2, 4, 8, 12] {
            for seed in 0..20 {
                for gen in [dl_lite_r, lubm, critical_constants] {
                    let lp = gen(size, seed);
                    assert!(lp.class_holds(), "{}: {:?}", lp.name, lp.program.class());
                }
            }
        }
        // The class bounds are tight somewhere in the population: dl_lite_r
        // is always simple linear, lubm reaches General, critical_constants
        // is linear-but-not-simple whenever a repeated-variable block fires.
        assert!((0..20).any(|s| lubm(6, s).program.class() == RuleClass::General));
        assert!((0..20).any(|s| critical_constants(6, s).program.class() == RuleClass::Linear));
    }

    #[test]
    fn populations_mix_terminating_and_diverging() {
        // Ground truth via the exact linear checker where available, MFA
        // otherwise: each family must be a non-degenerate population.
        use chasekit_engine::ChaseVariant;
        use chasekit_termination::decide_linear;
        let mut dl = (0, 0);
        let mut cc = (0, 0);
        for seed in 0..40 {
            let lp = dl_lite_r(4, seed);
            if decide_linear(&lp.program, ChaseVariant::SemiOblivious, false).unwrap().terminates {
                dl.0 += 1;
            } else {
                dl.1 += 1;
            }
            let lp = critical_constants(4, seed);
            if decide_linear(&lp.program, ChaseVariant::SemiOblivious, false).unwrap().terminates {
                cc.0 += 1;
            } else {
                cc.1 += 1;
            }
        }
        assert!(dl.0 >= 3 && dl.1 >= 3, "dl-lite-r degenerate: {dl:?}");
        assert!(cc.0 >= 3 && cc.1 >= 3, "critical-constants degenerate: {cc:?}");
        let mut lu = (0, 0);
        for seed in 0..40 {
            let lp = lubm(6, seed);
            let budget = chasekit_engine::Budget::default();
            match chasekit_termination::mfa_status(&lp.program, &budget).is_mfa() {
                Some(true) => lu.0 += 1,
                _ => lu.1 += 1,
            }
        }
        assert!(lu.0 >= 3 && lu.1 >= 3, "lubm degenerate: {lu:?}");
    }

    #[test]
    fn critical_instances_stay_small() {
        use chasekit_core::CriticalInstance;
        for seed in 0..10 {
            for gen in [dl_lite_r, lubm, critical_constants] {
                let mut lp = gen(10, seed);
                let crit = CriticalInstance::build(&mut lp.program);
                assert!(
                    crit.instance.len() < 5_000,
                    "{}: {} critical atoms",
                    lp.name,
                    crit.instance.len()
                );
            }
        }
    }

    #[test]
    fn ontology_corpus_is_unlabeled_but_classed() {
        let corpus = ontology_corpus();
        assert_eq!(corpus.len(), 9);
        for lp in &corpus {
            assert!(lp.so_terminates.is_none(), "{}", lp.name);
            assert!(lp.class_holds(), "{}", lp.name);
            assert!(!lp.program.rules().is_empty(), "{}", lp.name);
        }
    }
}
