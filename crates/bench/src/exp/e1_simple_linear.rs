//! E1 — Theorem 1: on (constant-free) simple linear TGDs,
//! `CT° = RA` and `CTˢ° = WA`.
//!
//! The experiment samples the class and checks four-way agreement per
//! sample and per variant:
//!
//! * plain weak/rich acyclicity (the theorem's syntactic side);
//! * the exact shape-graph procedure (this library's `CT` decision);
//! * chase ground truth on the critical instance (the semantic side;
//!   budgeted — `Exceeded` is divergence *evidence*, and any checker claim
//!   of termination against it is counted as a contradiction).
//!
//! The reproduction succeeds iff both disagreement columns are zero.

use chasekit_acyclicity::{is_richly_acyclic, is_weakly_acyclic};
use chasekit_datagen::{random_simple_linear, RandomConfig};
use chasekit_engine::{Budget, ChaseVariant};
use chasekit_termination::decide_linear;

use crate::table::Table;
use crate::truth::{contradiction, critical_chase_truth, ChaseTruth};

/// E1 parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of sampled rule sets.
    pub samples: u64,
    /// Generator dials (constants are forced to 0: Theorem 1 is stated for
    /// constant-free rules; see E2 for why that matters).
    pub cfg: RandomConfig,
    /// Ground-truth chase budget.
    pub truth_budget: Budget,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            samples: 2_000,
            cfg: RandomConfig::default(),
            truth_budget: Budget {
                max_applications: 3_000,
                max_atoms: 30_000,
                ..Budget::unlimited()
            },
        }
    }
}

/// E1 outcome counters.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Samples where WA and the exact CTˢ° decision disagreed.
    pub wa_vs_exact_so: u64,
    /// Samples where RA and the exact CT° decision disagreed.
    pub ra_vs_exact_o: u64,
    /// Checker-vs-chase contradictions (both variants).
    pub truth_contradictions: u64,
}

/// Per-seed record (computed in parallel, reduced in seed order).
struct Sample {
    wa: bool,
    ra: bool,
    exact_so: bool,
    exact_o: bool,
    truth_so: ChaseTruth,
    truth_o: ChaseTruth,
}

/// Runs E1.
pub fn run(params: &Params) -> (Table, Outcome) {
    let mut cfg = params.cfg;
    cfg.constants = 0;

    let samples = crate::parallel::par_map_seeds(params.samples, |seed| {
        let program = random_simple_linear(&cfg, seed);
        Sample {
            wa: is_weakly_acyclic(&program),
            ra: is_richly_acyclic(&program),
            exact_so: decide_linear(&program, ChaseVariant::SemiOblivious, false)
                .expect("generated sets are linear")
                .terminates,
            exact_o: decide_linear(&program, ChaseVariant::Oblivious, false)
                .expect("generated sets are linear")
                .terminates,
            truth_so: critical_chase_truth(
                &program,
                ChaseVariant::SemiOblivious,
                &params.truth_budget,
            ),
            truth_o: critical_chase_truth(&program, ChaseVariant::Oblivious, &params.truth_budget),
        }
    });

    let mut outcome = Outcome::default();
    let mut so_terminating = 0u64;
    let mut o_terminating = 0u64;
    let mut truth_exceeded = 0u64;
    for s in &samples {
        if s.wa != s.exact_so {
            outcome.wa_vs_exact_so += 1;
        }
        if s.ra != s.exact_o {
            outcome.ra_vs_exact_o += 1;
        }
        so_terminating += s.exact_so as u64;
        o_terminating += s.exact_o as u64;
        for (claim, truth) in [(s.exact_so, s.truth_so), (s.exact_o, s.truth_o)] {
            if truth == ChaseTruth::Exceeded {
                truth_exceeded += 1;
            }
            if contradiction(Some(claim), truth).is_some() {
                outcome.truth_contradictions += 1;
            }
        }
    }

    let mut table = Table::new(
        "E1 / Theorem 1: CT-so = WA and CT-o = RA on constant-free simple linear TGDs",
        &["quantity", "value"],
    );
    table.row(&["samples", &params.samples.to_string()]);
    table.row(&["CT-so terminating", &so_terminating.to_string()]);
    table.row(&["CT-o terminating", &o_terminating.to_string()]);
    table.row(&["WA vs exact CT-so disagreements", &outcome.wa_vs_exact_so.to_string()]);
    table.row(&["RA vs exact CT-o disagreements", &outcome.ra_vs_exact_o.to_string()]);
    table.row(&["checker vs chase contradictions", &outcome.truth_contradictions.to_string()]);
    table.row(&["chase runs exceeding truth budget", &truth_exceeded.to_string()]);
    (table, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_holds_on_a_quick_population() {
        let params = Params { samples: 150, ..Default::default() };
        let (_, outcome) = run(&params);
        assert_eq!(outcome.wa_vs_exact_so, 0, "WA must equal exact CT-so on SL");
        assert_eq!(outcome.ra_vs_exact_o, 0, "RA must equal exact CT-o on SL");
        assert_eq!(outcome.truth_contradictions, 0);
    }
}
