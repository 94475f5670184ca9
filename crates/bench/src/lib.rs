//! # chasekit-bench
//!
//! The experiment harness reproducing the paper's results: one experiment
//! per theorem/example (E0–E7, E9), a seed-parallel map, a tiny table
//! writer, and chase-based ground truth. The `experiments` binary prints
//! every table; chase, serve, update and decide speed is measured by the
//! benchmark in `chasebench/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exp;
pub mod parallel;
pub mod table;
pub mod truth;
