//! # chasekit
//!
//! A library for **chase termination analysis of existential rules**
//! (tuple-generating dependencies), reproducing *"Chase Termination for
//! Guarded Existential Rules"* (Calautti, Gottlob & Pieris, PODS 2015).
//!
//! The chase is the workhorse of data exchange, ontological query
//! answering, and constraint reasoning: given a database and a set of TGDs
//! it materializes a *universal model* — when it terminates. This crate
//! provides:
//!
//! * a complete data model for TGDs ([`core`]: terms, atoms, rules with
//!   the simple-linear ⊊ linear ⊊ guarded classification, a textual rule
//!   format, indexed instances, homomorphisms, critical instances);
//! * the three standard chase variants ([`engine`]: oblivious,
//!   semi-oblivious, restricted) with fair scheduling, budgets, and
//!   derivation tracking;
//! * the classical sufficient termination conditions ([`acyclicity`]:
//!   weak, rich, joint acyclicity, aGRD) and model-faithful acyclicity;
//! * the paper's **exact decision procedures** ([`termination`]): the
//!   shape-graph procedure for linear TGDs (Theorems 1–3), the pumping
//!   procedure for guarded TGDs (Theorem 4), the looping-operator
//!   reduction behind the lower bounds, and the future-work
//!   restricted-chase procedure for single-head linear TGDs;
//! * seeded workload generators ([`datagen`]) powering the experiment
//!   suite (see `crates/bench` and EXPERIMENTS.md), and the experiment
//!   harness itself ([`bench`](mod@bench)) including the corpus-scale checker
//!   shoot-out (`chasekit bench landscape`).
//!
//! ## Quickstart
//!
//! ```
//! use chasekit::prelude::*;
//!
//! // Example 1 of the paper: every person has a father, who is a person.
//! let program = Program::parse(
//!     "person(bob). person(X) -> hasFather(X, Y), person(Y).",
//! )
//! .unwrap();
//!
//! // The chase runs forever on this rule set...
//! let run = chase_facts(&program, ChaseVariant::SemiOblivious, &Budget::applications(100));
//! assert_eq!(run.outcome, StopReason::Applications);
//!
//! // ...and the exact decision procedure proves it diverges on *every*
//! // database (the rule set is simple linear, so this is Theorem 1).
//! let decision = decide(&program, ChaseVariant::SemiOblivious, &Budget::default());
//! assert_eq!(decision.terminates, Some(false));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use chasekit_acyclicity as acyclicity;
pub use chasekit_bench as bench;
pub use chasekit_core as core;
pub use chasekit_datagen as datagen;
pub use chasekit_engine as engine;
pub use chasekit_termination as termination;

/// The most common imports in one place.
pub mod prelude {
    pub use chasekit_acyclicity::{
        is_grd_acyclic, is_jointly_acyclic, is_richly_acyclic, is_weakly_acyclic,
    };
    pub use chasekit_core::{
        Atom, CriticalInstance, Instance, Program, RuleBuilder, RuleClass, Term, Tgd,
    };
    pub use chasekit_engine::{
        chase, chase_facts, is_model, Budget, CancelToken, ChaseMachine, ChaseVariant,
        Checkpoint, StopReason,
    };
    pub use chasekit_termination::{
        decide, decide_guarded, decide_linear, is_mfa, restricted_verdict, Decision,
        GuardedConfig, GuardedVerdict, Method,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let p = Program::parse("e(X, Y) -> e(Y, Z).").unwrap();
        assert_eq!(p.class(), RuleClass::SimpleLinear);
        assert!(!is_weakly_acyclic(&p));
        let d = decide(&p, ChaseVariant::SemiOblivious, &Budget::default());
        assert_eq!(d.terminates, Some(false));
    }
}
