//! Property-based tests (proptest) over randomly *structured* rule sets:
//! the invariants that must hold for every input, with shrinking when they
//! don't.

use proptest::prelude::*;

use chasekit::prelude::*;

/// Strategy: a small linear program built from scratch (not via seeds, so
/// proptest can shrink the structure itself).
///
/// Predicates p0..p2 with arities 1..=3; each rule: one body atom, one or
/// two head atoms; variables chosen from a small pool with repetitions.
fn linear_program() -> impl Strategy<Value = Program> {
    let arity = |p: usize| (p % 3) + 1;
    let atom = |pool: usize| {
        (0usize..3, proptest::collection::vec(0usize..pool, 3)).prop_map(move |(p, vars)| (p, vars))
    };
    proptest::collection::vec((atom(3), proptest::collection::vec(atom(5), 1..3)), 1..4).prop_map(
        move |rules| {
            let mut program = Program::new();
            let preds: Vec<_> = (0..3)
                .map(|i| program.vocab.declare_pred(&format!("p{i}"), arity(i)).unwrap())
                .collect();
            for ((bp, bvars), heads) in rules {
                let mut rb = RuleBuilder::new();
                let body_args: Vec<Term> =
                    (0..arity(bp)).map(|k| rb.var(&format!("X{}", bvars[k] % 3))).collect();
                rb.body_atom(preds[bp], body_args);
                for (hp, hvars) in heads {
                    let head_args: Vec<Term> =
                        (0..arity(hp)).map(|k| rb.var(&format!("X{}", hvars[k]))).collect();
                    rb.head_atom(preds[hp], head_args);
                }
                // Head vars X3, X4 never occur in bodies: existential.
                program.add_rule(rb.build().unwrap()).unwrap();
            }
            program
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact linear decision agrees with what the chase actually does
    /// on the critical instance.
    #[test]
    fn exact_linear_decision_matches_the_chase(p in linear_program()) {
        prop_assume!(matches!(p.class(), RuleClass::SimpleLinear | RuleClass::Linear));
        let exact = decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates;
        let mut p2 = p.clone();
        let crit = CriticalInstance::build(&mut p2);
        let run = chase(
            &p2,
            ChaseVariant::SemiOblivious,
            crit.instance,
            &Budget { max_applications: 1_500, max_atoms: 15_000, ..Budget::unlimited() },
        );
        if run.outcome.is_saturated() {
            prop_assert!(exact, "chase saturated but checker says diverges");
        } else {
            prop_assert!(!exact, "checker says terminates but chase blew the budget");
        }
    }

    /// Sufficient conditions are sound: WA implies the exact decision.
    #[test]
    fn weak_acyclicity_implies_exact_termination(p in linear_program()) {
        prop_assume!(matches!(p.class(), RuleClass::SimpleLinear | RuleClass::Linear));
        if is_weakly_acyclic(&p) {
            prop_assert!(
                decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates
            );
        }
        if is_richly_acyclic(&p) {
            prop_assert!(
                decide_linear(&p, ChaseVariant::Oblivious, false).unwrap().terminates
            );
        }
    }

    /// Hierarchy: RA ⇒ WA ⇒ JA, and oblivious termination ⇒
    /// semi-oblivious termination.
    #[test]
    fn condition_hierarchy(p in linear_program()) {
        if is_richly_acyclic(&p) {
            prop_assert!(is_weakly_acyclic(&p));
        }
        if is_weakly_acyclic(&p) {
            prop_assert!(is_jointly_acyclic(&p));
        }
        prop_assume!(matches!(p.class(), RuleClass::SimpleLinear | RuleClass::Linear));
        let o = decide_linear(&p, ChaseVariant::Oblivious, false).unwrap().terminates;
        let so = decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates;
        if o {
            prop_assert!(so, "CT-o ⊆ CT-so violated");
        }
    }

    /// Decisions are invariant under predicate renaming.
    #[test]
    fn decisions_invariant_under_renaming(p in linear_program()) {
        prop_assume!(matches!(p.class(), RuleClass::SimpleLinear | RuleClass::Linear));
        let before = decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates;
        // Rename by pretty-printing and re-parsing with prefixed names.
        let text = chasekit::core::display::program_to_string(&p)
            .replace("p0", "zebra")
            .replace("p1", "yak")
            .replace("p2", "xerus");
        let renamed = Program::parse(&text).unwrap();
        let after = decide_linear(&renamed, ChaseVariant::SemiOblivious, false)
            .unwrap()
            .terminates;
        prop_assert_eq!(before, after);
    }

    /// The chase is monotone in the database: adding facts never turns a
    /// saturating semi-oblivious run into one that produces fewer atoms.
    #[test]
    fn chase_is_monotone_in_the_database(p in linear_program(), extra in 0usize..3) {
        prop_assume!(matches!(p.class(), RuleClass::SimpleLinear | RuleClass::Linear));
        prop_assume!(decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates);
        let mut p = p.clone();
        let c0 = p.vocab.intern_const("m0");
        let c1 = p.vocab.intern_const("m1");
        let preds = p.rule_predicates();
        prop_assume!(!preds.is_empty());
        let mk = |pred, c: Term, p: &Program| {
            Atom::new(pred, vec![c; p.vocab.arity(pred)])
        };
        let small = Instance::from_atoms([mk(preds[0], Term::Const(c0), &p)]);
        let mut big_atoms = vec![mk(preds[0], Term::Const(c0), &p)];
        for i in 0..extra {
            let pred = preds[i % preds.len()];
            big_atoms.push(mk(pred, Term::Const(c1), &p));
        }
        let big = Instance::from_atoms(big_atoms);

        let small_run = chase(&p, ChaseVariant::SemiOblivious, small, &Budget::default());
        let big_run = chase(&p, ChaseVariant::SemiOblivious, big, &Budget::default());
        prop_assert_eq!(small_run.outcome, StopReason::Saturated);
        prop_assert_eq!(big_run.outcome, StopReason::Saturated);
        prop_assert!(big_run.instance.len() >= small_run.instance.len());
    }
}

#[test]
fn proptest_strategy_generates_linear_programs() {
    // Sanity: the strategy's output is linear by construction.
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    for _ in 0..20 {
        let p = linear_program().new_tree(&mut runner).unwrap().current();
        assert!(matches!(p.class(), RuleClass::SimpleLinear | RuleClass::Linear));
    }
}
