//! Every concrete claim made in the paper's text, as executable tests.

use chasekit::prelude::*;

/// §1, Example 1: the chase adds hasFather(bob, z1), person(z1), then is
/// triggered again by person(z1), forever.
#[test]
fn example1_first_steps_match_the_paper() {
    let p = Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let run = chase_facts(&p, ChaseVariant::SemiOblivious, &Budget::applications(2));

    let person = p.vocab.pred("person").unwrap();
    let has_father = p.vocab.pred("hasFather").unwrap();
    // After two applications: person(bob), hasFather(bob,z1), person(z1),
    // hasFather(z1,z2), person(z2).
    assert_eq!(run.instance.with_pred(person).len(), 3);
    assert_eq!(run.instance.with_pred(has_father).len(), 2);
    assert_eq!(run.outcome, StopReason::Applications);
}

/// §1: "the chase procedure may run forever, even for extremely simple
/// databases and constraints" — and under every variant here.
#[test]
fn example1_diverges_under_all_variants_and_the_decider_knows() {
    let p = Program::parse("person(X) -> hasFather(X, Y), person(Y).").unwrap();
    for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious] {
        let d = decide(&p, variant, &Budget::default());
        assert_eq!(d.terminates, Some(false), "{variant}");
    }
}

/// §2, Example 2: D = {p(a,b)}, p(X,Y) -> ∃Z p(Y,Z): there is exactly one
/// chase sequence (modulo null names) and it is non-terminating; the
/// instances grow one atom at a time: I_i = I_{i-1} ∪ {p(z_{i-1}, z_i)}.
#[test]
fn example2_instances_grow_one_atom_per_step() {
    let p = Program::parse("p(a, b). p(X, Y) -> p(Y, Z).").unwrap();
    for steps in 1..6u64 {
        let run = chase_facts(&p, ChaseVariant::SemiOblivious, &Budget::applications(steps));
        assert_eq!(run.instance.len() as u64, 1 + steps, "after {steps} steps");
        assert_eq!(run.stats.nulls_minted, steps);
    }
}

/// §2: CT°_∀ = CT°_∃ ⊆ CTˢ°_∀ = CTˢ°_∃ — the oblivious-terminating sets
/// are semi-oblivious-terminating; the separator shows strictness.
#[test]
fn oblivious_termination_implies_semi_oblivious() {
    let samples = [
        "p(X, Y) -> p(Y, Z).",
        "r(X, Y) -> r(X, Z).",
        "p(X, Y) -> q(X, Y).",
        "p(X) -> q(X, Z). q(X, Z) -> p(X).",
        "a(X) -> b(X, Y). b(X, Y) -> c(Y). c(X) -> a(X).",
    ];
    for src in samples {
        let p = Program::parse(src).unwrap();
        let o = decide(&p, ChaseVariant::Oblivious, &Budget::default()).terminates;
        let so = decide(&p, ChaseVariant::SemiOblivious, &Budget::default()).terminates;
        if o == Some(true) {
            assert_eq!(so, Some(true), "CT-o ⊆ CT-so violated on {src}");
        }
    }
    // Strictness witness.
    let sep = Program::parse("r(X, Y) -> r(X, Z).").unwrap();
    assert_eq!(decide(&sep, ChaseVariant::Oblivious, &Budget::default()).terminates, Some(false));
    assert_eq!(
        decide(&sep, ChaseVariant::SemiOblivious, &Budget::default()).terminates,
        Some(true)
    );
}

/// §3: "simple linear TGDs are powerful enough for capturing ... inclusion
/// dependencies, as well as key description logics such as DL-Lite."
#[test]
fn inclusion_dependencies_are_simple_linear() {
    let p = Program::parse("teaches(X, C) -> course(C). course(C) -> heldIn(C, R).").unwrap();
    assert_eq!(p.class(), RuleClass::SimpleLinear);
}

/// §3.1, Theorem 1: CT° ∩ SL = RA ∩ SL and CTˢ° ∩ SL = WA ∩ SL
/// (constant-free rules; spot-checks — the E1 experiment does 2000).
#[test]
fn theorem1_spot_checks() {
    let samples = [
        "p(X, Y) -> p(Y, Z).",
        "r(X, Y) -> r(X, Z).",
        "p(X, Y) -> q(X, Y).",
        "a(X) -> b(X, Y). b(X, Y) -> c(Y). c(X) -> a(X).",
        "person(X) -> hasFather(X, Y), person(Y).",
    ];
    for src in samples {
        let p = Program::parse(src).unwrap();
        assert_eq!(p.class(), RuleClass::SimpleLinear);
        assert_eq!(
            decide(&p, ChaseVariant::SemiOblivious, &Budget::default()).terminates,
            Some(is_weakly_acyclic(&p)),
            "CT-so vs WA on {src}"
        );
        assert_eq!(
            decide(&p, ChaseVariant::Oblivious, &Budget::default()).terminates,
            Some(is_richly_acyclic(&p)),
            "CT-o vs RA on {src}"
        );
    }
}

/// §3.1, Theorem 2 context: "a dangerous cycle does not necessarily
/// correspond to an infinite chase derivation" for (non-simple) linear
/// TGDs — the repeated-variable witness.
#[test]
fn theorem2_dangerous_cycle_can_be_unrealizable() {
    let p = Program::parse("s(X) -> e(X, Z). e(X, X) -> s(X).").unwrap();
    assert_eq!(p.class(), RuleClass::Linear);
    assert!(!is_weakly_acyclic(&p), "WA sees a dangerous cycle");
    assert_eq!(
        decide(&p, ChaseVariant::SemiOblivious, &Budget::default()).terminates,
        Some(true),
        "but the chase terminates on every database"
    );
}

/// §3.2, Theorem 4: guarded decision procedure, including over standard
/// databases (constants 0/1 present).
#[test]
fn theorem4_guarded_decisions_standard_and_plain() {
    let diverging = Program::parse("r(X, Y), p(Y) -> r(Y, Z), p(Z).").unwrap();
    assert_eq!(diverging.class(), RuleClass::Guarded);
    for standard in [false, true] {
        let mut cfg = GuardedConfig::new(ChaseVariant::SemiOblivious);
        cfg.standard = standard;
        let verdict = decide_guarded(&diverging, cfg).unwrap().verdict;
        assert_eq!(verdict.terminates(), Some(false), "standard={standard}");
    }

    let terminating = Program::parse("r(X, Y), p(Y) -> r(Y, Z).").unwrap();
    for standard in [false, true] {
        let mut cfg = GuardedConfig::new(ChaseVariant::SemiOblivious);
        cfg.standard = standard;
        let verdict = decide_guarded(&terminating, cfg).unwrap().verdict;
        assert_eq!(verdict.terminates(), Some(true), "standard={standard}");
    }
}

/// §4 (future work): restricted chase on single-head linear TGDs is
/// decided in polynomial time; Example 2's rule diverges from p(a,b) but
/// terminates from the self-loop database.
#[test]
fn future_work_restricted_chase() {
    let p = Program::parse("p(X, Y) -> p(Y, Z).").unwrap();
    let v = restricted_verdict(&p);
    assert_eq!(v.terminates, Some(false));

    // From the self-loop the restricted chase stops at once.
    let looped = Program::parse("p(a, a). p(X, Y) -> p(Y, Z).").unwrap();
    let run = chase_facts(&looped, ChaseVariant::Restricted, &Budget::default());
    assert_eq!(run.outcome, StopReason::Saturated);
    assert_eq!(run.instance.len(), 1);

    // From the path it runs away.
    let path = Program::parse("p(a, b). p(X, Y) -> p(Y, Z).").unwrap();
    let run = chase_facts(&path, ChaseVariant::Restricted, &Budget::applications(50));
    assert_eq!(run.outcome, StopReason::Applications);
}
