//! Structured rule-set families with known termination behaviour.
//!
//! These are the adversarial/calibration half of the workloads: families
//! whose status is known analytically, used to validate the checkers and to
//! drive the scaling experiments (E2, E3, E4).

use chasekit_core::{Program, RuleBuilder, RuleClass};

/// A family member: the program plus its known ground truth.
#[derive(Debug, Clone)]
pub struct LabeledProgram {
    /// A short family name with the size parameter, e.g. `chain-8`.
    pub name: String,
    /// The rule set.
    pub program: Program,
    /// Ground truth for the semi-oblivious chase (termination on all
    /// databases), when known analytically. `None` when the family leaves
    /// ground truth to the bounded-chase oracle.
    pub so_terminates: Option<bool>,
    /// Ground truth for the oblivious chase.
    pub o_terminates: Option<bool>,
    /// The loosest syntactic class the family promises to stay within:
    /// `program.class() <= expected_class` always holds. Harnesses use it
    /// to route members to the class-specific exact procedures.
    pub expected_class: RuleClass,
}

impl LabeledProgram {
    /// Whether the program honours its promised class bound.
    pub fn class_holds(&self) -> bool {
        self.program.class() <= self.expected_class
    }
}

fn parse(name: &str, src: &str, so: bool, o: bool) -> LabeledProgram {
    parse_in_class(name, src, so, o, RuleClass::SimpleLinear)
}

fn parse_in_class(name: &str, src: &str, so: bool, o: bool, class: RuleClass) -> LabeledProgram {
    LabeledProgram {
        name: name.to_string(),
        program: Program::parse(src).expect("family sources are well-formed"),
        so_terminates: Some(so),
        o_terminates: Some(o),
        expected_class: class,
    }
}

/// The two worked examples of the paper.
pub fn paper_examples() -> Vec<LabeledProgram> {
    vec![
        parse("paper-example-1", "person(X) -> hasFather(X, Y), person(Y).", false, false),
        parse("paper-example-2", "p(X, Y) -> p(Y, Z).", false, false),
    ]
}

/// A terminating chain of `n` existential steps:
/// `p0(X) -> p1(X, Z). p1(X, Y) -> p2(Y, Z). ... -> pn(..)` without
/// feedback. Terminates under both variants; its shape graph has Θ(n)
/// shapes (an E3 scaling series).
pub fn chain(n: usize) -> LabeledProgram {
    let mut program = Program::new();
    let preds: Vec<_> =
        (0..=n).map(|i| program.vocab.declare_pred(&format!("p{i}"), 2).unwrap()).collect();
    for i in 0..n {
        let mut rb = RuleBuilder::new();
        let x = rb.var("X");
        let y = rb.var("Y");
        let z = rb.var("Z");
        rb.body_atom(preds[i], vec![x, y]);
        rb.head_atom(preds[i + 1], vec![y, z]);
        program.add_rule(rb.build().unwrap()).unwrap();
    }
    LabeledProgram {
        name: format!("chain-{n}"),
        program,
        so_terminates: Some(true),
        o_terminates: Some(true),
        expected_class: RuleClass::SimpleLinear,
    }
}

/// The chain closed into a cycle: the last predicate feeds the first, so
/// fresh nulls flow around forever. Diverges under both variants.
pub fn cycle(n: usize) -> LabeledProgram {
    let mut lp = chain(n);
    let p_last = lp.program.vocab.pred(&format!("p{n}")).unwrap();
    let p0 = lp.program.vocab.pred("p0").unwrap();
    let mut rb = RuleBuilder::new();
    let x = rb.var("X");
    let y = rb.var("Y");
    rb.body_atom(p_last, vec![x, y]);
    rb.head_atom(p0, vec![y, x]);
    lp.program.add_rule(rb.build().unwrap()).unwrap();
    LabeledProgram {
        name: format!("cycle-{n}"),
        program: lp.program,
        so_terminates: Some(false),
        o_terminates: Some(false),
        expected_class: RuleClass::SimpleLinear,
    }
}

/// The o/so separator scaled to width `n`:
/// `r_i(X, Y) -> r_i(X, Z)` for `n` predicates — weakly acyclic (so-chase
/// terminates) but never richly acyclic (o-chase diverges).
pub fn separator(n: usize) -> LabeledProgram {
    let mut program = Program::new();
    for i in 0..n {
        let r = program.vocab.declare_pred(&format!("r{i}"), 2).unwrap();
        let mut rb = RuleBuilder::new();
        let x = rb.var("X");
        let y = rb.var("Y");
        let z = rb.var("Z");
        rb.body_atom(r, vec![x, y]);
        rb.head_atom(r, vec![x, z]);
        program.add_rule(rb.build().unwrap()).unwrap();
    }
    LabeledProgram {
        name: format!("separator-{n}"),
        program,
        so_terminates: Some(true),
        o_terminates: Some(false),
        expected_class: RuleClass::SimpleLinear,
    }
}

/// The Theorem 2 motivation family: plain WA/RA reject, the chase
/// terminates. Size `n` stacks `n` independent copies of
/// `s_i(X) -> e_i(X, Z). e_i(X, X) -> s_i(X).` — the repeated body
/// variable makes the dangerous position cycle unrealizable.
pub fn critical_gap(n: usize) -> LabeledProgram {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("s{i}(X) -> e{i}(X, Z). e{i}(X, X) -> s{i}(X).\n"));
    }
    LabeledProgram {
        name: format!("critical-gap-{n}"),
        program: Program::parse(&src).unwrap(),
        so_terminates: Some(true),
        o_terminates: Some(true),
        expected_class: RuleClass::Linear,
    }
}

/// DL-Lite style inclusion dependencies (simple linear, single-head):
/// roles and concepts with `n` levels of specialization ending in an
/// existential restriction; `cyclic` closes the last level onto the first
/// (the classic "every professor teaches something taught by a professor").
pub fn dl_lite(n: usize, cyclic: bool) -> LabeledProgram {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("c{i}(X) -> role{i}(X, Z). role{i}(X, Y) -> c{}(Y).\n", i + 1));
    }
    if cyclic {
        src.push_str(&format!("c{n}(X) -> c0(X).\n"));
    }
    LabeledProgram {
        name: format!("dl-lite-{n}{}", if cyclic { "-cyclic" } else { "" }),
        program: Program::parse(&src).unwrap(),
        so_terminates: Some(!cyclic),
        o_terminates: Some(!cyclic),
        expected_class: RuleClass::SimpleLinear,
    }
}

/// A data-exchange style source-to-target mapping followed by target
/// dependencies (the Fagin et al. setting where weak acyclicity was born).
/// Terminating by construction.
pub fn data_exchange(n: usize) -> LabeledProgram {
    let mut src = String::new();
    src.push_str("src_emp(E, D) -> t_emp(E, Z), t_dept(D, Z).\n");
    src.push_str("t_dept(D, M) -> t_mgr(M).\n");
    for i in 0..n {
        src.push_str(&format!("t_mgr(M) -> audit{i}(M).\n"));
    }
    LabeledProgram {
        name: format!("data-exchange-{n}"),
        program: Program::parse(&src).unwrap(),
        so_terminates: Some(true),
        o_terminates: Some(true),
        expected_class: RuleClass::SimpleLinear,
    }
}

/// Wide-arity family for the bounded-vs-unbounded arity experiments: one
/// diverging rule over a predicate of arity `k`:
/// `w(X1..Xk) -> w(X2..Xk, Z)` — a rotating register that mints a null
/// per firing. The shape space is exponential in `k`.
pub fn wide(k: usize) -> LabeledProgram {
    let mut program = Program::new();
    let w = program.vocab.declare_pred("w", k).unwrap();
    let mut rb = RuleBuilder::new();
    let vars: Vec<_> = (0..k).map(|i| rb.var(&format!("X{i}"))).collect();
    let z = rb.var("Z");
    rb.body_atom(w, vars.clone());
    let mut head = vars[1..].to_vec();
    head.push(z);
    rb.head_atom(w, head);
    program.add_rule(rb.build().unwrap()).unwrap();
    LabeledProgram {
        name: format!("wide-{k}"),
        program,
        so_terminates: Some(false),
        o_terminates: Some(false),
        expected_class: RuleClass::SimpleLinear,
    }
}

/// Terminating wide-arity family: the rotating register with a constant
/// stopper — `w(a, X2..Xk) -> w(X2..Xk, Z)` only fires while position 1
/// holds `a`, which a derived atom never re-establishes... after k-1
/// firings the register is all-nulls and dead.
pub fn wide_terminating(k: usize) -> LabeledProgram {
    let mut program = Program::new();
    let w = program.vocab.declare_pred("w", k).unwrap();
    let a = program.vocab.intern_const("a");
    let mut rb = RuleBuilder::new();
    let mut body = vec![chasekit_core::Term::Const(a)];
    let vars: Vec<_> = (1..k).map(|i| rb.var(&format!("X{i}"))).collect();
    body.extend(vars.iter().copied());
    let z = rb.var("Z");
    rb.body_atom(w, body);
    let mut head = vars.clone();
    head.push(z);
    rb.head_atom(w, head);
    program.add_rule(rb.build().unwrap()).unwrap();
    LabeledProgram {
        name: format!("wide-terminating-{k}"),
        program,
        so_terminates: Some(true),
        o_terminates: Some(true),
        expected_class: RuleClass::SimpleLinear,
    }
}

/// A `k`-bit binary counter as Datalog rules over constants 0/1: rule `i`
/// increments bit `i` when all lower bits are 1 (`s(.., 0, 1..1) ->
/// s(.., 1, 0..0)`). Chasing from `s(0,..,0)` performs exactly `2^k - 1`
/// applications before saturating — a terminating chase of exponential
/// length, used to stress the engine and to exhibit why termination
/// *checking* cannot just run the chase with a small budget.
pub fn binary_counter(k: usize) -> LabeledProgram {
    assert!(k >= 1);
    let mut program = Program::new();
    let s = program.vocab.declare_pred("s", k).unwrap();
    let zero = program.vocab.intern_const("0");
    let one = program.vocab.intern_const("1");
    // Bit 0 is the last argument. Rule i flips bit i with carry below.
    for i in 0..k {
        let mut rb = RuleBuilder::new();
        let highs: Vec<chasekit_core::Term> =
            (0..k - 1 - i).map(|j| rb.var(&format!("X{j}"))).collect();
        let mut body = highs.clone();
        body.push(chasekit_core::Term::Const(zero));
        body.extend(std::iter::repeat_n(chasekit_core::Term::Const(one), i));
        let mut head = highs;
        head.push(chasekit_core::Term::Const(one));
        head.extend(std::iter::repeat_n(chasekit_core::Term::Const(zero), i));
        rb.body_atom(s, body);
        rb.head_atom(s, head);
        program.add_rule(rb.build().unwrap()).unwrap();
    }
    // Start at zero.
    program.add_fact(Atom::new(s, vec![chasekit_core::Term::Const(zero); k])).unwrap();
    LabeledProgram {
        name: format!("binary-counter-{k}"),
        program,
        so_terminates: Some(true),
        o_terminates: Some(true),
        expected_class: RuleClass::SimpleLinear,
    }
}

use chasekit_core::Atom;

/// The full calibration corpus used by integration tests and E-series
/// sanity checks.
pub fn corpus() -> Vec<LabeledProgram> {
    let mut out = paper_examples();
    out.push(chain(4));
    out.push(cycle(3));
    out.push(separator(2));
    out.push(critical_gap(2));
    out.push(dl_lite(3, false));
    out.push(dl_lite(3, true));
    out.push(data_exchange(3));
    out.push(wide(3));
    out.push(wide_terminating(3));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chasekit_core::RuleClass;

    #[test]
    fn corpus_members_parse_and_have_labels() {
        let corpus = corpus();
        assert!(corpus.len() >= 10);
        for lp in &corpus {
            assert!(lp.so_terminates.is_some(), "{}", lp.name);
            assert!(lp.o_terminates.is_some(), "{}", lp.name);
            assert!(!lp.program.rules().is_empty(), "{}", lp.name);
        }
    }

    #[test]
    fn families_scale() {
        assert_eq!(chain(10).program.rules().len(), 10);
        assert_eq!(cycle(10).program.rules().len(), 11);
        assert_eq!(separator(7).program.rules().len(), 7);
        assert_eq!(wide(9).program.vocab.arity(wide(9).program.vocab.pred("w").unwrap()), 9);
    }

    #[test]
    fn families_are_linear_where_promised() {
        assert_eq!(chain(4).program.class(), RuleClass::SimpleLinear);
        assert_eq!(separator(3).program.class(), RuleClass::SimpleLinear);
        assert_eq!(critical_gap(2).program.class(), RuleClass::Linear);
        assert_eq!(dl_lite(2, true).program.class(), RuleClass::SimpleLinear);
        assert_eq!(wide(4).program.class(), RuleClass::SimpleLinear);
    }

    #[test]
    fn binary_counter_counts_to_two_to_the_k() {
        use chasekit_core::Instance;
        use chasekit_engine::{chase, Budget, ChaseVariant, StopReason};
        for k in 1..=6usize {
            let lp = binary_counter(k);
            let db = Instance::from_atoms(lp.program.facts().iter().cloned());
            let run = chase(&lp.program, ChaseVariant::SemiOblivious, db, &Budget::default());
            assert_eq!(run.outcome, StopReason::Saturated, "k={k}");
            // One application per increment: 2^k - 1, visiting every state.
            assert_eq!(run.stats.applications, (1 << k) - 1, "k={k}");
            assert_eq!(run.instance.len(), 1 << k, "k={k}");
        }
    }

    #[test]
    fn binary_counter_is_declared_terminating_by_the_checkers() {
        use chasekit_engine::ChaseVariant;
        use chasekit_termination::decide_linear;
        let lp = binary_counter(4);
        for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious] {
            assert!(decide_linear(&lp.program, variant, false).unwrap().terminates);
        }
    }

    #[test]
    fn wide_terminating_is_actually_terminating() {
        use chasekit_engine::ChaseVariant;
        use chasekit_termination::decide_linear;
        for k in 2..6 {
            let lp = wide_terminating(k);
            for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious] {
                assert!(
                    decide_linear(&lp.program, variant, false).unwrap().terminates,
                    "wide-terminating-{k} under {variant}"
                );
            }
        }
    }

    #[test]
    fn labels_match_the_exact_linear_checker() {
        use chasekit_engine::ChaseVariant;
        use chasekit_termination::decide_linear;
        for lp in corpus() {
            if !matches!(lp.program.class(), RuleClass::SimpleLinear | RuleClass::Linear) {
                continue;
            }
            let so =
                decide_linear(&lp.program, ChaseVariant::SemiOblivious, false).unwrap().terminates;
            let o = decide_linear(&lp.program, ChaseVariant::Oblivious, false).unwrap().terminates;
            assert_eq!(Some(so), lp.so_terminates, "{} (so)", lp.name);
            assert_eq!(Some(o), lp.o_terminates, "{} (o)", lp.name);
        }
    }
}
