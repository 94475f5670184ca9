//! # chasekit-acyclicity
//!
//! Acyclicity-based sufficient conditions for chase termination:
//!
//! * **Weak acyclicity** (WA) — Fagin, Kolaitis, Miller, Popa (TCS 2005);
//!   guarantees semi-oblivious (and restricted) chase termination.
//! * **Rich acyclicity** (RA) — Hernich & Schweikardt (PODS 2007);
//!   guarantees oblivious chase termination.
//! * **Joint acyclicity** (JA) — Krötzsch & Rudolph (IJCAI 2011); a strict
//!   generalization of WA for the semi-oblivious chase.
//! * **aGRD** — acyclicity of the (over-approximated) graph of rule
//!   dependencies (Baget et al.); sound for every chase variant and
//!   incomparable with WA.
//!
//! The paper reproduced by this workspace proves WA and RA are *exact* on
//! simple linear TGDs (Theorem 1); the exact procedures for the larger
//! classes live in `chasekit-termination`. Model-faithful acyclicity (MFA)
//! also lives there, since it runs the chase.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod depgraph;
pub mod graph;
pub mod grd;
pub mod joint;
pub mod position;

pub use depgraph::{
    check, check_with_work, dependency_graph, is_richly_acyclic, is_weakly_acyclic, Acyclicity,
    GraphKind, GraphWork,
};
pub use graph::DiGraph;
pub use grd::{is_grd_acyclic, rule_dependency_graph};
pub use joint::is_jointly_acyclic;
pub use position::{Position, PositionMap};
