//! The portfolio decider: one entry point for "does the chase of Σ
//! terminate on all databases?".
//!
//! Dispatch, in order of strength:
//!
//! 1. **Linear** rule sets → the exact shape-graph procedure
//!    (Theorems 1–3; always decides).
//! 2. **Guarded** rule sets → the pumping procedure on the critical
//!    instance (Theorem 4; decides modulo fuel).
//! 3. Everything else → sufficient acyclicity conditions (RA for the
//!    oblivious chase; WA, JA, MFA for the semi-oblivious; aGRD for both),
//!    then the general pumping semi-decision (sound both ways, complete
//!    for neither).
//!
//! For the restricted chase, see [`crate::restricted`].

use chasekit_acyclicity::{
    check_with_work, is_grd_acyclic, is_jointly_acyclic, Acyclicity, GraphKind,
};
use chasekit_core::{Program, RuleClass};
use chasekit_engine::{Budget, ChaseVariant};

use crate::effort::CheckerEffort;
use crate::guarded::{decide_guarded, pumping_decide, GuardedConfig, GuardedVerdict};
use crate::linear::decide_linear;
use crate::mfa::{mfa_report, MfaStatus};

/// How the portfolio reached its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Exact linear shape-graph procedure (Theorems 1–3).
    ExactLinear,
    /// Guarded pumping procedure (Theorem 4).
    ExactGuarded,
    /// A named sufficient condition.
    Sufficient(&'static str),
    /// The general pumping semi-decision saturated the critical instance.
    CriticalSaturation,
    /// The general pumping semi-decision found a divergence certificate.
    Pumping,
    /// Nothing decided within budget.
    Undecided,
}

/// A portfolio decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// `Some(true)`: terminates on all databases; `Some(false)`: diverges
    /// on some database; `None`: unknown.
    pub terminates: Option<bool>,
    /// Which procedure answered.
    pub method: Method,
    /// The syntactic class the dispatcher saw.
    pub class: RuleClass,
    /// Total work of every procedure the cascade tried before answering.
    pub effort: CheckerEffort,
}

/// Budgeted portfolio decision for the oblivious or semi-oblivious chase.
pub fn decide(program: &Program, variant: ChaseVariant, budget: &Budget) -> Decision {
    assert!(
        variant != ChaseVariant::Restricted,
        "use chasekit_termination::restricted for the restricted chase"
    );
    let class = program.class();

    match class {
        RuleClass::SimpleLinear | RuleClass::Linear => {
            let d = decide_linear(program, variant, false)
                .expect("class checked: linear analysis cannot fail");
            Decision {
                terminates: Some(d.terminates),
                method: Method::ExactLinear,
                class,
                effort: CheckerEffort::graph(d.position_nodes, d.position_edges, 0),
            }
        }
        RuleClass::Guarded => {
            let mut cfg = GuardedConfig::new(variant);
            cfg.max_applications = budget.max_applications;
            cfg.max_atoms = budget.max_atoms;
            let report =
                decide_guarded(program, cfg).expect("class checked: guarded analysis cannot fail");
            let effort = report.effort;
            match report.verdict {
                GuardedVerdict::Terminates => {
                    Decision { terminates: Some(true), method: Method::ExactGuarded, class, effort }
                }
                GuardedVerdict::Diverges(_) => Decision {
                    terminates: Some(false),
                    method: Method::ExactGuarded,
                    class,
                    effort,
                },
                GuardedVerdict::Unknown => {
                    Decision { terminates: None, method: Method::Undecided, class, effort }
                }
            }
        }
        RuleClass::General => decide_general(program, variant, budget, class),
    }
}

fn decide_general(
    program: &Program,
    variant: ChaseVariant,
    budget: &Budget,
    class: RuleClass,
) -> Decision {
    // Cheap sufficient conditions first, summing the cascade's effort so
    // the decision reports everything it cost, not just the last step.
    let mut effort = CheckerEffort::default();
    if variant == ChaseVariant::Oblivious {
        let (verdict, work) = check_with_work(program, GraphKind::Extended);
        effort.absorb(work.into());
        if verdict == Acyclicity::Acyclic {
            return Decision {
                terminates: Some(true),
                method: Method::Sufficient("rich-acyclicity"),
                class,
                effort,
            };
        }
    }
    if variant == ChaseVariant::SemiOblivious {
        let (verdict, work) = check_with_work(program, GraphKind::Standard);
        effort.absorb(work.into());
        if verdict == Acyclicity::Acyclic {
            return Decision {
                terminates: Some(true),
                method: Method::Sufficient("weak-acyclicity"),
                class,
                effort,
            };
        }
        if is_jointly_acyclic(program) {
            return Decision {
                terminates: Some(true),
                method: Method::Sufficient("joint-acyclicity"),
                class,
                effort,
            };
        }
    }
    if is_grd_acyclic(program) {
        return Decision {
            terminates: Some(true),
            method: Method::Sufficient("aGRD"),
            class,
            effort,
        };
    }
    if variant == ChaseVariant::SemiOblivious {
        let report = mfa_report(program, budget);
        effort.absorb(report.effort);
        if report.status == MfaStatus::Mfa {
            return Decision {
                terminates: Some(true),
                method: Method::Sufficient("MFA"),
                class,
                effort,
            };
        }
    }

    // General pumping semi-decision.
    let mut cfg = GuardedConfig::new(variant);
    cfg.max_applications = budget.max_applications;
    cfg.max_atoms = budget.max_atoms;
    let report = pumping_decide(program, cfg).expect("variant checked above");
    effort.absorb(report.effort);
    match report.verdict {
        GuardedVerdict::Terminates => {
            Decision { terminates: Some(true), method: Method::CriticalSaturation, class, effort }
        }
        GuardedVerdict::Diverges(_) => {
            Decision { terminates: Some(false), method: Method::Pumping, class, effort }
        }
        GuardedVerdict::Unknown => {
            Decision { terminates: None, method: Method::Undecided, class, effort }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, variant: ChaseVariant) -> Decision {
        decide(&Program::parse(src).unwrap(), variant, &Budget::default())
    }

    #[test]
    fn linear_inputs_use_the_exact_procedure() {
        let d = run("p(X, Y) -> p(Y, Z).", ChaseVariant::SemiOblivious);
        assert_eq!(d.terminates, Some(false));
        assert_eq!(d.method, Method::ExactLinear);
        assert_eq!(d.class, RuleClass::SimpleLinear);
    }

    #[test]
    fn guarded_inputs_use_the_pumping_procedure() {
        let d = run("r(X, Y), p(Y) -> r(Y, Z), p(Z).", ChaseVariant::SemiOblivious);
        assert_eq!(d.terminates, Some(false));
        assert_eq!(d.method, Method::ExactGuarded);
        assert_eq!(d.class, RuleClass::Guarded);
    }

    #[test]
    fn general_weakly_acyclic_short_circuits() {
        let d = run("p(X), q(Y) -> r(X, Y, Z).", ChaseVariant::SemiOblivious);
        assert_eq!(d.terminates, Some(true));
        assert_eq!(d.method, Method::Sufficient("weak-acyclicity"));
        assert_eq!(d.class, RuleClass::General);
    }

    #[test]
    fn general_divergent_pumping() {
        let d = run(
            "p(X), q(Y) -> e(X, Y, Z). e(X, Y, Z) -> p(Z). e(X, Y, Z) -> q(Z).",
            ChaseVariant::SemiOblivious,
        );
        assert_eq!(d.terminates, Some(false));
        assert_eq!(d.method, Method::Pumping);
    }

    #[test]
    fn oblivious_uses_rich_acyclicity() {
        let d = run("p(X, Y), q(Y) -> r(X, Y).", ChaseVariant::Oblivious);
        assert_eq!(d.terminates, Some(true));
        // Guarded? p(X,Y) contains X and Y; q(Y) only Y — guard is p(X,Y).
        // So this is actually guarded and dispatches there.
        assert_eq!(d.method, Method::ExactGuarded);
    }

    #[test]
    fn truly_general_oblivious_rich_acyclic() {
        let d = run("p(X), q(Y) -> r(X, Y).", ChaseVariant::Oblivious);
        assert_eq!(d.terminates, Some(true));
        assert_eq!(d.method, Method::Sufficient("rich-acyclicity"));
    }

    #[test]
    #[should_panic(expected = "restricted")]
    fn restricted_variant_panics() {
        run("p(X) -> q(X).", ChaseVariant::Restricted);
    }

    #[test]
    fn variants_can_disagree() {
        let so = run("r(X, Y) -> r(X, Z).", ChaseVariant::SemiOblivious);
        let ob = run("r(X, Y) -> r(X, Z).", ChaseVariant::Oblivious);
        assert_eq!(so.terminates, Some(true));
        assert_eq!(ob.terminates, Some(false));
    }
}
