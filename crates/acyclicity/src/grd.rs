//! Acyclicity of the graph of rule dependencies (aGRD, Baget et al.).
//!
//! Rule `τ` *depends on* rule `σ` when applying `σ` can enable a new
//! application of `τ`. If the graph of rule dependencies is acyclic, every
//! chase variant terminates on every database (derivations have bounded
//! rule-nesting depth).
//!
//! Exact dependency requires piece-unification; this module implements the
//! standard **atom-level over-approximation**: `σ → τ` iff some head atom of
//! `σ` is compatible with some body atom of `τ`, where compatibility treats
//!
//! * universal variables of the head as wildcards,
//! * existential variables of the head as distinct fresh nulls (two
//!   positions holding different existentials cannot be forced equal, and a
//!   null can never equal a constant), and
//! * repeated variables of the body atom as equality constraints on the
//!   corresponding head terms.
//!
//! The approximation only *adds* edges, so acyclicity of the approximate
//! graph still soundly implies termination. It is incomparable with weak
//! acyclicity (it accepts non-WA rule sets without positional feedback and
//! rejects WA Datalog recursion), which is exactly why it is a useful
//! baseline in the sufficient-condition landscape experiment.

use chasekit_core::{Program, Term, Tgd};

use crate::graph::DiGraph;

/// Terms of a head atom, abstracted for compatibility checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadTerm {
    /// Universal variable: can take any value.
    Wildcard,
    /// Existential variable, identified per rule-variable.
    Fresh(u32),
    /// A constant.
    Const(u32),
}

fn head_term(rule: &Tgd, t: Term) -> HeadTerm {
    match t {
        Term::Var(v) => {
            if rule.is_universal(v) {
                HeadTerm::Wildcard
            } else {
                HeadTerm::Fresh(v.0)
            }
        }
        Term::Const(c) => HeadTerm::Const(c.0),
        Term::Null(_) => unreachable!("rules contain no nulls"),
    }
}

/// Can two head terms be forced equal (required when the body repeats a
/// variable across their positions)?
fn joinable(a: HeadTerm, b: HeadTerm) -> bool {
    match (a, b) {
        (HeadTerm::Wildcard, _) | (_, HeadTerm::Wildcard) => true,
        (HeadTerm::Fresh(x), HeadTerm::Fresh(y)) => x == y,
        (HeadTerm::Const(x), HeadTerm::Const(y)) => x == y,
        (HeadTerm::Fresh(_), HeadTerm::Const(_)) | (HeadTerm::Const(_), HeadTerm::Fresh(_)) => {
            false
        }
    }
}

/// Whether `head` (an atom of `σ`'s head) is compatible with `body` (an atom
/// of `τ`'s body): some instantiation of `σ`'s universals makes the head
/// image match the body pattern.
fn compatible(
    sigma: &Tgd,
    head: &chasekit_core::Atom,
    tau: &Tgd,
    body: &chasekit_core::Atom,
) -> bool {
    if head.pred != body.pred {
        return false;
    }
    debug_assert_eq!(head.arity(), body.arity());
    let hts: Vec<HeadTerm> = head.args.iter().map(|&t| head_term(sigma, t)).collect();

    // Per-position constraints from the body pattern's constants.
    for (ht, bt) in hts.iter().zip(&body.args) {
        match *bt {
            Term::Const(c) => match *ht {
                HeadTerm::Wildcard => {}
                HeadTerm::Const(hc) if hc == c.0 => {}
                _ => return false,
            },
            Term::Var(_) => {}
            Term::Null(_) => unreachable!("rules contain no nulls"),
        }
    }

    // Equality constraints from repeated body variables: the head terms at
    // all positions of one body variable must be pairwise joinable.
    let _ = tau;
    for (i, bt) in body.args.iter().enumerate() {
        let Term::Var(v) = *bt else { continue };
        for (j, bt2) in body.args.iter().enumerate().skip(i + 1) {
            if *bt2 == Term::Var(v) && !joinable(hts[i], hts[j]) {
                return false;
            }
        }
    }
    true
}

/// Builds the (over-approximated) graph of rule dependencies.
pub fn rule_dependency_graph(program: &Program) -> DiGraph {
    let rules = program.rules();
    let mut g = DiGraph::new(rules.len());
    for (si, sigma) in rules.iter().enumerate() {
        for (ti, tau) in rules.iter().enumerate() {
            let depends = sigma
                .head()
                .iter()
                .any(|h| tau.body().iter().any(|b| compatible(sigma, h, tau, b)));
            if depends {
                g.add_edge(si, ti, false);
            }
        }
    }
    g
}

/// Whether the (over-approximated) graph of rule dependencies is acyclic.
/// Sound for termination of **all** chase variants on all databases.
pub fn is_grd_acyclic(program: &Program) -> bool {
    !rule_dependency_graph(program).has_cycle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::is_weakly_acyclic;

    fn parse(src: &str) -> Program {
        Program::parse(src).unwrap()
    }

    #[test]
    fn example1_self_dependency_is_cyclic() {
        let p = parse("person(X) -> hasFather(X, Y), person(Y).");
        assert!(!is_grd_acyclic(&p));
    }

    #[test]
    fn stratified_chain_is_acyclic() {
        let p = parse("a(X) -> b(X, Y). b(X, Y) -> c(Y). c(X) -> d(X, Z).");
        assert!(is_grd_acyclic(&p));
    }

    #[test]
    fn datalog_recursion_is_cyclic_even_though_wa_accepts() {
        // aGRD rejects transitive closure (t feeds t) while WA accepts it —
        // the two conditions are incomparable.
        let p = parse("e(X, Y), t(Y, Z) -> t(X, Z).");
        assert!(is_weakly_acyclic(&p));
        assert!(!is_grd_acyclic(&p));
    }

    #[test]
    fn agrd_accepts_non_wa_sets_without_rule_feedback() {
        // p(X) -> q(X, Z). q(X, Z) -> p(Z). is cyclic for both; instead use
        // a set with positional feedback but no rule feedback:
        // p(X, Y) -> q(Y, Z). q(X, Y) -> r(X, Y). (acyclic dependencies)
        let p = parse("p(X, Y) -> q(Y, Z). q(X, Y) -> r(X, Y).");
        assert!(is_grd_acyclic(&p));
    }

    #[test]
    fn constant_clash_blocks_dependency() {
        // Head produces q(X, a); body needs q(Y, b): no dependency.
        let p = parse("p(X) -> q(X, a). q(Y, b) -> p(Y).");
        assert!(is_grd_acyclic(&p));
        // With matching constants the loop closes.
        let p2 = parse("p(X) -> q(X, a). q(Y, a) -> p(Y).");
        assert!(!is_grd_acyclic(&p2));
    }

    #[test]
    fn distinct_existentials_cannot_fill_a_repeated_variable() {
        // Head e(Y, Z) with distinct existentials; body needs e(W, W).
        let p = parse("p(X) -> e(Y, Z). e(W, W) -> p(W).");
        assert!(is_grd_acyclic(&p));
        // Same existential twice can.
        let p2 = parse("p(X) -> e(Y, Y). e(W, W) -> p(W).");
        assert!(!is_grd_acyclic(&p2));
    }

    #[test]
    fn existential_cannot_equal_a_constant() {
        let p = parse("p(X) -> q(Y). q(a) -> p(a).");
        assert!(is_grd_acyclic(&p));
        // A universal (wildcard) can.
        let p2 = parse("p(X) -> q(X). q(a) -> p(a).");
        assert!(!is_grd_acyclic(&p2));
    }

    #[test]
    fn dependency_graph_shape() {
        let p = parse("a(X) -> b(X). b(X) -> c(X). c(X) -> a(X).");
        let g = rule_dependency_graph(&p);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_cycle());
    }
}
