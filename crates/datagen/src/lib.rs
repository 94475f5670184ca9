//! # chasekit-datagen
//!
//! Seeded workload generators for the termination experiments: random rule
//! sets per syntactic class ([`random`]), structured families with known
//! ground truth ([`families`]), and database generators ([`database`]).
//! Everything is deterministic in its seed so experiments are exactly
//! reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod database;
pub mod families;
pub mod ontology;
pub mod random;

pub use database::{path_database, random_database, DbConfig};
pub use families::{
    binary_counter, chain, corpus, critical_gap, cycle, data_exchange, dl_lite, paper_examples,
    separator, wide, wide_terminating, LabeledProgram,
};
pub use ontology::{critical_constants, dl_lite_r, lubm, ontology_corpus};
pub use random::{
    random_general, random_guarded, random_linear, random_mixed, random_simple_linear, RandomConfig,
};
