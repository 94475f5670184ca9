//! # chasekit-core
//!
//! Core data model for existential rules (tuple-generating dependencies):
//! terms, atoms, rules with syntactic classification (simple-linear ⊊ linear
//! ⊊ guarded), a textual rule format, indexed instances, a backtracking
//! homomorphism engine, and critical-instance construction.
//!
//! This crate is the foundation of a reproduction of *"Chase Termination for
//! Guarded Existential Rules"* (Calautti, Gottlob, Pieris; PODS 2015). The
//! chase engines live in `chasekit-engine`; the termination procedures in
//! `chasekit-termination`.
//!
//! ## Quick example
//!
//! ```
//! use chasekit_core::{Program, RuleClass};
//!
//! let program = Program::parse(
//!     "person(X) -> hasFather(X, Y), person(Y).",
//! )
//! .unwrap();
//! assert_eq!(program.class(), RuleClass::SimpleLinear);
//! assert!(program.rules()[0].is_guarded());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atom;
pub mod critical;
pub mod display;
pub mod error;
pub mod fxhash;
pub mod homomorphism;
pub mod ids;
pub mod instance;
pub mod parser;
pub mod program;
pub mod rule;
pub mod term;
pub mod vocab;

pub use atom::{Atom, AtomRef};
pub use critical::CriticalInstance;
pub use error::{CoreError, ParseError};
pub use fxhash::{FxHashMap, FxHashSet};
pub use homomorphism::{
    exists_extension, exists_extension_scratch, find_all_homs, for_each_hom, for_each_hom_scratch,
    hom_equivalent, instance_hom_exists, MatchScratch, Substitution,
};
pub use ids::{AtomId, ConstId, NullId, PredId, Symbol, VarId};
pub use instance::Instance;
pub use program::{Program, RuleBuilder};
pub use rule::{Quantifier, RuleClass, Tgd, VarInfo};
pub use term::Term;
pub use vocab::{PredDecl, SymbolTable, Vocabulary};
