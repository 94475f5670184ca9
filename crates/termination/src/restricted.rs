//! Restricted-chase termination — the paper's **future work** section.
//!
//! The paper reports preliminary results: for *single-head linear* TGDs
//! where each predicate appears in the head of at most one TGD, restricted-
//! chase termination is characterized by a careful extension of weak
//! acyclicity, decidable in polynomial time. The paper does not spell the
//! construction out; this module derives and implements an **exact**
//! procedure for that class, plus honest fallbacks outside it.
//!
//! # The exact procedure for single-head linear rule sets
//!
//! Call a rule set *single-head linear* when every rule is linear with one
//! head atom and no two rules share a head predicate. Two observations make
//! the class tractable:
//!
//! 1. **Satisfaction collapses to dedup + the database.** A trigger's head
//!    `p(f̄, Z̄)` can only be satisfied by a `p`-atom. Derived `p`-atoms all
//!    come from *the same rule*, and they match the head iff they were
//!    produced with the same frontier (every frontier variable occurs in
//!    the head) — but same rule + same frontier is exactly the trigger
//!    identity the fair chase deduplicates anyway. So beyond semi-oblivious
//!    behaviour, the restricted chase differs **only** through satisfaction
//!    by *initial database atoms*. In particular the restricted chase for
//!    this class is order-independent (CT∀ = CT∃).
//! 2. **Singleton databases suffice.** The chase from a database diverges
//!    iff it diverges from one of its single-atom sub-databases: a linear
//!    derivation descends from one atom, and shrinking the database only
//!    removes satisfying atoms, never blocks the diverging branch.
//!
//! Hence: the restricted chase terminates on all databases iff for every
//! **start shape** `s₀` (an arbitrary single atom, its fresh constants
//! abstracted like nulls), the reachable shape graph — with every edge
//! whose head instantiation matches the start atom *suppressed* — has no
//! dangerous cycle (semi-oblivious special sources). This is precisely an
//! "extension of weak acyclicity": the same dangerous-cycle test, on a
//! satisfaction-pruned, realizability-refined graph.
//!
//! Outside the single-head linear class the module falls back to sufficient
//! conditions (weak acyclicity, aGRD — both sound for the restricted
//! chase) and otherwise answers `Unknown`; probe runs live in the E7
//! experiment, not here, because budget exhaustion proves nothing.

use chasekit_acyclicity::{is_grd_acyclic, is_weakly_acyclic, DiGraph};
use chasekit_core::{ConstId, FxHashMap, Program, RuleClass, Term, Tgd, VarId};

use crate::shape::{Label, Shape, ShapeInterner};

/// How the restricted-chase answer was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestrictedMethod {
    /// The exact single-head linear procedure (both answers are proofs).
    ExactSingleHeadLinear,
    /// Weak acyclicity (sufficient).
    WeaklyAcyclic,
    /// aGRD (sufficient).
    GrdAcyclic,
    /// Could not decide.
    Inconclusive,
}

/// Verdict for restricted-chase termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestrictedVerdict {
    /// `Some(true)`: terminates on all databases (all fair orders).
    /// `Some(false)`: diverges on some database. `None`: unknown.
    pub terminates: Option<bool>,
    /// Which branch of the procedure produced the answer.
    pub method: RestrictedMethod,
}

/// Whether the rule set is in the paper's preliminary class: linear, one
/// head atom per rule, no two rules heading the same predicate.
pub fn is_single_head_linear(program: &Program) -> bool {
    if !matches!(program.class(), RuleClass::SimpleLinear | RuleClass::Linear) {
        return false;
    }
    let mut head_preds = chasekit_core::FxHashSet::default();
    program.rules().iter().all(|r| r.is_single_head() && head_preds.insert(r.head()[0].pred))
}

/// The exact decision for single-head linear rule sets; `None` if the rule
/// set is outside the class.
pub fn single_head_linear_restricted_terminates(program: &Program) -> Option<bool> {
    if !is_single_head_linear(program) {
        return None;
    }
    Some(find_divergent_start(program).is_none())
}

/// Materializes a start shape into a one-atom database, interning fresh
/// witness constants into the program's vocabulary. Used by experiment E7
/// to confirm divergence claims against the engine.
pub fn materialize_start(program: &mut Program, start: &Shape) -> chasekit_core::Instance {
    let args: Vec<Term> = start
        .labels
        .iter()
        .enumerate()
        .map(|(i, &l)| match l {
            Label::Const(c) if c.index() < program.vocab.const_count() => Term::Const(c),
            Label::Const(_) => Term::Const(program.vocab.intern_const(&format!("w{i}\u{2605}"))),
            Label::Null(_) => unreachable!("start shapes carry constants only"),
        })
        .collect();
    // Equal canonical labels must become equal constants: rebuild with a map.
    let mut map: FxHashMap<Label, Term> = FxHashMap::default();
    let args: Vec<Term> = start
        .labels
        .iter()
        .zip(args)
        .map(|(&l, fallback)| *map.entry(l).or_insert(fallback))
        .collect();
    chasekit_core::Instance::from_atoms([chasekit_core::Atom::new(start.pred, args)])
}

/// Finds a start shape whose restricted chase diverges, if any. `None`
/// means the restricted chase terminates on every database (when the rule
/// set is single-head linear).
pub fn find_divergent_start(program: &Program) -> Option<Shape> {
    // Start-shape constant pool: the rule constants plus `arity` many fresh
    // database constants (canonicalized, so `max_arity` of them suffice).
    let rule_consts = program.rule_constants();
    let max_arity =
        program.rule_predicates().iter().map(|&p| program.vocab.arity(p)).max().unwrap_or(0);
    // Fresh synthetic constants live beyond the program's constant space.
    let fresh_base = program.vocab.const_count();
    let fresh: Vec<ConstId> = (0..max_arity).map(|i| ConstId::from_index(fresh_base + i)).collect();

    for pred in program.rule_predicates() {
        let arity = program.vocab.arity(pred);
        // Enumerate canonical start shapes: label vectors over rule
        // constants and fresh constants, deduplicated up to renaming of the
        // fresh ones (canonicalize by first occurrence).
        let mut pool: Vec<Label> = rule_consts.iter().map(|&c| Label::Const(c)).collect();
        pool.extend(fresh.iter().take(arity.max(1)).map(|&c| Label::Const(c)));

        let mut combo = vec![0usize; arity];
        let mut seen_starts: chasekit_core::FxHashSet<Vec<Label>> =
            chasekit_core::FxHashSet::default();
        'combos: loop {
            let labels: Vec<Label> = combo.iter().map(|&i| pool[i]).collect();
            let canon = canonicalize_start(&labels, &rule_consts);
            if seen_starts.insert(canon.clone()) {
                let start = Shape { pred, labels: canon };
                if diverges_from_start(program, &start) {
                    return Some(start);
                }
            }
            let mut k = arity;
            loop {
                if k == 0 {
                    break 'combos;
                }
                k -= 1;
                combo[k] += 1;
                if combo[k] < pool.len() {
                    break;
                }
                combo[k] = 0;
            }
        }
    }
    None
}

/// Canonicalizes a start-label vector: rule constants stay; fresh database
/// constants are renumbered by first occurrence (they are interchangeable).
fn canonicalize_start(labels: &[Label], rule_consts: &[ConstId]) -> Vec<Label> {
    let mut renumber: FxHashMap<ConstId, usize> = FxHashMap::default();
    let base = (u32::MAX / 2) as usize;
    labels
        .iter()
        .map(|&l| match l {
            Label::Const(c) if rule_consts.contains(&c) => Label::Const(c),
            Label::Const(c) => {
                let next = renumber.len();
                let idx = *renumber.entry(c).or_insert(next);
                Label::Const(ConstId::from_index(base + idx))
            }
            Label::Null(_) => unreachable!("start shapes carry constants only"),
        })
        .collect()
}

/// Explores the shape graph from the singleton start shape under restricted
/// semantics and checks for a dangerous cycle.
fn diverges_from_start(program: &Program, start: &Shape) -> bool {
    let mut interner = ShapeInterner::new();
    let mut worklist: Vec<u32> = Vec::new();
    let (start_id, _) = interner.intern(start.clone());
    worklist.push(start_id);

    struct Step {
        from: u32,
        to: u32,
        regular: Vec<(usize, usize)>,
        special_sources: Vec<usize>,
        existential_positions: Vec<usize>,
    }
    let mut steps: Vec<Step> = Vec::new();

    while let Some(shape_id) = worklist.pop() {
        for rule in program.rules() {
            let shape = interner.get(shape_id).clone();
            let Some(binding) = crate::linear::match_body(&rule.body()[0], &shape) else {
                continue;
            };
            let head = &rule.head()[0];

            // Head instantiation at this shape: existentials are wildcards.
            // Suppress the edge when the start atom matches it (the head is
            // already satisfied by the database).
            if head_matches_start(rule, head, &binding, start) {
                continue;
            }

            let mut raw: Vec<Label> = Vec::with_capacity(head.arity());
            let mut existential_positions = Vec::new();
            for (j, t) in head.args.iter().enumerate() {
                match *t {
                    Term::Const(c) => raw.push(Label::Const(c)),
                    Term::Var(v) => {
                        if rule.is_universal(v) {
                            raw.push(binding[&v]);
                        } else {
                            raw.push(Label::Null((1 << 24) + v.0));
                            existential_positions.push(j);
                        }
                    }
                    Term::Null(_) => unreachable!("rules contain no nulls"),
                }
            }
            let child = Shape::canonicalize(head.pred, &raw);
            let (to, is_new) = interner.intern(child);
            if is_new {
                worklist.push(to);
            }

            let body = &rule.body()[0];
            let mut regular = Vec::new();
            let mut special_sources = Vec::new();
            for (i, bt) in body.args.iter().enumerate() {
                let Term::Var(v) = *bt else { continue };
                if !rule.is_frontier(v) {
                    continue;
                }
                special_sources.push(i);
                for (j, ht) in head.args.iter().enumerate() {
                    if *ht == Term::Var(v) {
                        regular.push((i, j));
                    }
                }
            }

            steps.push(Step {
                from: shape_id,
                to,
                regular,
                special_sources,
                existential_positions,
            });
        }
    }

    // Dangerous-cycle test on the (shape, position) overlay.
    let mut offsets = Vec::with_capacity(interner.len());
    let mut total = 0usize;
    for id in 0..interner.len() {
        offsets.push(total);
        total += interner.get(id as u32).arity();
    }
    let mut g = DiGraph::new(total);
    for step in &steps {
        for &(i, j) in &step.regular {
            g.add_edge(offsets[step.from as usize] + i, offsets[step.to as usize] + j, false);
        }
        for &i in &step.special_sources {
            for &j in &step.existential_positions {
                g.add_edge(offsets[step.from as usize] + i, offsets[step.to as usize] + j, true);
            }
        }
    }
    g.has_special_cycle()
}

/// Whether the head instantiation at a shape matches the start atom
/// (existential positions are wildcards; a chase-null label can never equal
/// a database constant).
fn head_matches_start(
    rule: &Tgd,
    head: &chasekit_core::Atom,
    binding: &FxHashMap<VarId, Label>,
    start: &Shape,
) -> bool {
    if head.pred != start.pred {
        return false;
    }
    for (j, t) in head.args.iter().enumerate() {
        match *t {
            Term::Const(c) => {
                if start.labels[j] != Label::Const(c) {
                    return false;
                }
            }
            Term::Var(v) => {
                if rule.is_universal(v) && binding[&v] != start.labels[j] {
                    return false;
                }
                // Existential: wildcard, matches anything.
            }
            Term::Null(_) => unreachable!("rules contain no nulls"),
        }
    }
    true
}

/// Analyzes restricted-chase termination. Exact inside the single-head
/// linear class; sufficient conditions outside it.
pub fn restricted_verdict(program: &Program) -> RestrictedVerdict {
    if let Some(answer) = single_head_linear_restricted_terminates(program) {
        return RestrictedVerdict {
            terminates: Some(answer),
            method: RestrictedMethod::ExactSingleHeadLinear,
        };
    }
    if is_weakly_acyclic(program) {
        return RestrictedVerdict {
            terminates: Some(true),
            method: RestrictedMethod::WeaklyAcyclic,
        };
    }
    if is_grd_acyclic(program) {
        return RestrictedVerdict { terminates: Some(true), method: RestrictedMethod::GrdAcyclic };
    }
    RestrictedVerdict { terminates: None, method: RestrictedMethod::Inconclusive }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chasekit_engine::{chase, Budget, ChaseVariant, StopReason};

    fn verdict(src: &str) -> RestrictedVerdict {
        restricted_verdict(&Program::parse(src).unwrap())
    }

    #[test]
    fn class_detection() {
        assert!(is_single_head_linear(&Program::parse("p(X, Y) -> p(Y, Z).").unwrap()));
        assert!(!is_single_head_linear(
            &Program::parse("p(X) -> q(X, Z). r(X) -> q(X, X).").unwrap()
        ));
        assert!(!is_single_head_linear(
            &Program::parse("person(X) -> hasFather(X, Y), person(Y).").unwrap()
        ));
        assert!(!is_single_head_linear(&Program::parse("p(X), q(X) -> r(X).").unwrap()));
    }

    #[test]
    fn example2_restricted_diverges() {
        // p(X, Y) -> p(Y, Z) diverges from p(a, b) (paper, Example 2) even
        // though it terminates from the loop p(a, a).
        let v = verdict("p(X, Y) -> p(Y, Z).");
        assert_eq!(v.terminates, Some(false));
        assert_eq!(v.method, RestrictedMethod::ExactSingleHeadLinear);
    }

    #[test]
    fn forward_copy_with_existential_terminates() {
        // r(X, Y) -> s(Y, Z): one step, s heads nothing else.
        let v = verdict("r(X, Y) -> s(Y, Z).");
        assert_eq!(v.terminates, Some(true));
        assert_eq!(v.method, RestrictedMethod::ExactSingleHeadLinear);
    }

    #[test]
    fn self_satisfying_loop_terminates_restrictedly() {
        // e(X, Y) -> e(Y, Z): from any single atom e(c1, c2), the chase
        // adds e(c2, z1), then needs e(z1, _) — never satisfied — so it
        // DIVERGES. (The self-loop e(c,c) is satisfied at once, but the
        // path database is the witness.)
        let v = verdict("e(X, Y) -> e(Y, Z).");
        assert_eq!(v.terminates, Some(false));
    }

    #[test]
    fn head_equal_to_body_terminates() {
        // e(X, Y) -> e(X, Y) is a tautology: satisfied by the trigger atom
        // itself... but satisfaction checks the *database*; the start atom
        // IS the body image here, so the edge is suppressed for every
        // start shape.
        let v = verdict("e(X, Y) -> e(X, Y).");
        assert_eq!(v.terminates, Some(true));
    }

    #[test]
    fn cross_validation_against_the_engine() {
        // For single-head linear sets the verdict must match a budgeted
        // restricted run from the divergence witness family; we validate
        // the terminating answers by running from adversarial databases.
        let cases = [
            ("p(X, Y) -> p(Y, Z).", "p(c1, c2)."),
            ("e(X, Y) -> e(Y, Z).", "e(c1, c2)."),
            ("r(X, Y) -> s(Y, Z).", "r(c1, c2)."),
            ("a(X) -> b(X, Y). b(X, Y) -> c(Y).", "a(c1)."),
        ];
        for (rules, db) in cases {
            let program = Program::parse(&format!("{rules} {db}")).unwrap();
            let v = restricted_verdict(&program);
            let run = chase(
                &program,
                ChaseVariant::Restricted,
                chasekit_core::Instance::from_atoms(program.facts().iter().cloned()),
                &Budget::applications(2_000),
            );
            match v.terminates {
                Some(true) => assert_eq!(
                    run.outcome,
                    StopReason::Saturated,
                    "verdict says terminates but engine kept going on {rules}"
                ),
                Some(false) => {
                    // The witness database here happens to be the generic
                    // path; the engine must not saturate quickly... it may
                    // saturate if this db is not the witness, so only check
                    // the diverging cases we constructed to diverge.
                    assert_eq!(
                        run.outcome,
                        StopReason::Applications,
                        "verdict says diverges but engine saturated on {rules}"
                    );
                }
                None => panic!("exact procedure returned unknown for {rules}"),
            }
        }
    }

    #[test]
    fn chain_with_feedback_diverges() {
        let v = verdict("a(X) -> b(X, Y). b(X, Y) -> a(Y).");
        assert_eq!(v.terminates, Some(false));
    }

    #[test]
    fn outside_class_falls_back_to_wa() {
        let v = verdict("person(X) -> hasFather(X, Y), parent(X).");
        // Multi-head, so outside the class; WA holds here.
        assert_eq!(v.terminates, Some(true));
        assert_eq!(v.method, RestrictedMethod::WeaklyAcyclic);
    }

    #[test]
    fn outside_class_inconclusive_when_nothing_fires() {
        let v = verdict("person(X) -> hasFather(X, Y), person(Y).");
        assert_eq!(v.terminates, None);
        assert_eq!(v.method, RestrictedMethod::Inconclusive);
    }

    #[test]
    fn constants_participate_in_start_shapes() {
        // e(a, X) -> e(X, Z): from e(a, a) the chase adds e(a, z)... then
        // e(z, z') needs body e(a, X): no match on e(z, _)? The body is
        // e(a, X): it matches e(a, a) and e(a, z1) — e(a, z1) arises from
        // X = a... wait: head e(X, Z) with X bound by body position 1.
        // From e(a, a): head e(a, z1) -> matches body again (X = z1):
        // head e(z1, z2): body e(a, X) does not match e(z1, z2). Finite.
        let v = verdict("e(a, X) -> e(X, Z).");
        assert_eq!(v.terminates, Some(true), "method {:?}", v.method);
    }
}
