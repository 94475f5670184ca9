//! E2 — Theorem 2: on linear TGDs, plain weak/rich acyclicity are no longer
//! exact; the *critical* (shape-refined) variants are.
//!
//! Two parts:
//!
//! 1. **The gap family** (the theorem's motivation): `critical-gap-n`
//!    stacks rules whose dangerous position cycle is unrealizable (repeated
//!    body variable) — plain WA/RA reject every member, the exact
//!    procedure accepts, and the chase indeed saturates.
//! 2. **Random linear population** with repeated variables and constants:
//!    per-sample agreement between the exact procedure and chase ground
//!    truth must be perfect; the number of samples where plain WA/RA get
//!    the answer wrong measures the size of the gap the theorem closes.

use chasekit_acyclicity::{is_richly_acyclic, is_weakly_acyclic};
use chasekit_datagen::{critical_gap, random_linear, RandomConfig};
use chasekit_engine::{Budget, ChaseVariant};
use chasekit_termination::decide_linear;

use crate::table::Table;
use crate::truth::{contradiction, critical_chase_truth, ChaseTruth};

/// E2 parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of sampled linear rule sets.
    pub samples: u64,
    /// Generator dials (constants and repeated variables on).
    pub cfg: RandomConfig,
    /// Gap-family sizes to table.
    pub gap_sizes: [usize; 3],
    /// Ground-truth chase budget.
    pub truth_budget: Budget,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            samples: 2_000,
            cfg: RandomConfig { constants: 2, complexity: 0.45, ..RandomConfig::default() },
            gap_sizes: [1, 2, 4],
            truth_budget: Budget {
                max_applications: 3_000,
                max_atoms: 30_000,
                ..Budget::unlimited()
            },
        }
    }
}

/// E2 outcome counters.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Samples where plain WA got CTˢ° wrong (the gap Theorem 2 closes).
    pub wa_wrong: u64,
    /// Samples where plain RA got CT° wrong.
    pub ra_wrong: u64,
    /// Exact-procedure-vs-chase contradictions (must be zero).
    pub truth_contradictions: u64,
    /// Gap-family members misclassified by the exact procedure (must be 0).
    pub gap_misclassified: u64,
}

/// Runs E2.
pub fn run(params: &Params) -> (Vec<Table>, Outcome) {
    let mut outcome = Outcome::default();

    // Part 1: the gap family.
    let mut gap_table = Table::new(
        "E2a / Theorem 2 motivation: the gap family (plain WA/RA reject, chase terminates)",
        &["family", "WA", "RA", "critical-WA (exact CT-so)", "critical-RA (exact CT-o)", "chase"],
    );
    for &n in &params.gap_sizes {
        let lp = critical_gap(n);
        let wa = is_weakly_acyclic(&lp.program);
        let ra = is_richly_acyclic(&lp.program);
        let cwa =
            decide_linear(&lp.program, ChaseVariant::SemiOblivious, false).unwrap().terminates;
        let cra = decide_linear(&lp.program, ChaseVariant::Oblivious, false).unwrap().terminates;
        let truth =
            critical_chase_truth(&lp.program, ChaseVariant::SemiOblivious, &params.truth_budget);
        if Some(cwa) != lp.so_terminates || Some(cra) != lp.o_terminates {
            outcome.gap_misclassified += 1;
        }
        gap_table.row(&[
            lp.name.clone(),
            (if wa { "accepts" } else { "rejects" }).to_string(),
            (if ra { "accepts" } else { "rejects" }).to_string(),
            (if cwa { "terminates" } else { "diverges" }).to_string(),
            (if cra { "terminates" } else { "diverges" }).to_string(),
            format!("{truth:?}"),
        ]);
    }

    // Part 2: random linear population (parallel over seeds).
    struct Sample {
        wa: bool,
        ra: bool,
        exact_so: bool,
        exact_o: bool,
        truth_so: ChaseTruth,
        truth_o: ChaseTruth,
    }
    let samples = crate::parallel::par_map_seeds(params.samples, |seed| {
        let program = random_linear(&params.cfg, seed);
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

    let mut wa_accepts = 0u64;
    let mut exact_so_terminating = 0u64;
    let mut exact_o_terminating = 0u64;
    for s in &samples {
        wa_accepts += s.wa as u64;
        exact_so_terminating += s.exact_so as u64;
        exact_o_terminating += s.exact_o as u64;
        if s.wa != s.exact_so {
            outcome.wa_wrong += 1;
            // WA is sound: it can only be wrong by rejecting a terminating
            // set, never by accepting a diverging one.
            assert!(s.exact_so && !s.wa, "WA accepted a diverging set — soundness bug");
        }
        if s.ra != s.exact_o {
            outcome.ra_wrong += 1;
            assert!(s.exact_o && !s.ra, "RA accepted a diverging set — soundness bug");
        }
        for (claim, truth) in [(s.exact_so, s.truth_so), (s.exact_o, s.truth_o)] {
            if contradiction(Some(claim), truth).is_some() {
                outcome.truth_contradictions += 1;
            }
        }
    }

    let mut pop_table = Table::new(
        "E2b / Theorem 2: random linear population (repeated variables + constants)",
        &["quantity", "value"],
    );
    pop_table.row(&["samples", &params.samples.to_string()]);
    pop_table.row(&["WA accepts", &wa_accepts.to_string()]);
    pop_table.row(&["exact CT-so terminating", &exact_so_terminating.to_string()]);
    pop_table.row(&["exact CT-o terminating", &exact_o_terminating.to_string()]);
    pop_table.row(&["WA wrong (gap closed by Thm 2)", &outcome.wa_wrong.to_string()]);
    pop_table.row(&["RA wrong (gap closed by Thm 2)", &outcome.ra_wrong.to_string()]);
    pop_table.row(&["exact vs chase contradictions", &outcome.truth_contradictions.to_string()]);

    (vec![gap_table, pop_table], outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_procedure_is_clean_and_wa_has_a_gap() {
        let params = Params { samples: 200, ..Default::default() };
        let (_, outcome) = run(&params);
        assert_eq!(outcome.truth_contradictions, 0);
        assert_eq!(outcome.gap_misclassified, 0);
        assert!(outcome.wa_wrong > 0, "the population should exhibit the WA gap Theorem 2 closes");
    }
}
