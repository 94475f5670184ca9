//! E7 — future work: restricted-chase termination for single-head linear
//! TGDs.
//!
//! Validates the exact procedure two ways:
//!
//! * **Divergence claims** come with a witness start shape; the witness is
//!   materialized into a one-atom database and the engine's restricted
//!   chase must blow through its budget on it.
//! * **Termination claims** are probed: the restricted chase must saturate
//!   on the critical instance and on a family of random databases.
//!
//! The table also reports how often plain WA (sufficient for the restricted
//! chase) differs from the exact answer — the gap the future-work
//! characterization closes.

use chasekit_acyclicity::is_weakly_acyclic;
use chasekit_core::Instance;
use chasekit_datagen::{
    random_database, random_linear, random_simple_linear, DbConfig, RandomConfig,
};
use chasekit_engine::{chase, Budget, ChaseVariant, StopReason};
use chasekit_termination::is_single_head_linear;
use chasekit_termination::restricted::{find_divergent_start, materialize_start};

use crate::table::Table;

/// E7 parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of candidate rule sets to sample (filtered to the class).
    pub samples: u64,
    /// Generator dials.
    pub cfg: RandomConfig,
    /// Engine budget for witness/probe validation.
    pub probe_budget: Budget,
    /// Random probe databases per terminating claim.
    pub probes: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            samples: 2_000,
            cfg: RandomConfig { max_head_atoms: 1, ..RandomConfig::default() },
            probe_budget: Budget {
                max_applications: 2_000,
                max_atoms: 20_000,
                ..Budget::unlimited()
            },
            probes: 3,
        }
    }
}

/// E7 outcome counters.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Rule sets in the single-head linear class.
    pub in_class: u64,
    /// Divergence witnesses the engine failed to confirm (must be zero).
    pub unconfirmed_witnesses: u64,
    /// Termination claims contradicted by a probe run (must be zero).
    pub probe_contradictions: u64,
}

/// Runs E7.
pub fn run(params: &Params) -> (Table, Outcome) {
    let mut outcome = Outcome::default();
    let mut terminating = 0u64;
    let mut diverging = 0u64;
    let mut wa_differs = 0u64;

    for seed in 0..params.samples {
        // Mix simple and non-simple linear sets: the repeated-variable
        // rules are where the future-work characterization strictly beats
        // plain weak acyclicity (start-atom satisfaction prunes the
        // dangerous cycle).
        let program = if seed % 2 == 0 {
            random_simple_linear(&params.cfg, 9_000_000 + seed)
        } else {
            let cfg = RandomConfig { complexity: 0.5, ..params.cfg };
            random_linear(&cfg, 9_500_000 + seed)
        };
        if !is_single_head_linear(&program) {
            continue;
        }
        outcome.in_class += 1;

        match find_divergent_start(&program) {
            Some(witness) => {
                diverging += 1;
                if is_weakly_acyclic(&program) {
                    wa_differs += 1; // WA accepted a restricted-diverging set?!
                    eprintln!("soundness alarm: WA accepted a restricted-diverging set");
                }
                // Materialize and confirm with the engine.
                let mut program = program.clone();
                let db = materialize_start(&mut program, &witness);
                let run = chase(&program, ChaseVariant::Restricted, db, &params.probe_budget);
                if run.outcome != StopReason::Applications {
                    outcome.unconfirmed_witnesses += 1;
                }
            }
            None => {
                terminating += 1;
                if !is_weakly_acyclic(&program) {
                    wa_differs += 1; // The gap: WA rejects, restricted terminates.
                }
                // Probe with the critical instance and random databases.
                let mut program = program.clone();
                let crit = chasekit_core::CriticalInstance::build(&mut program);
                let mut probes: Vec<Instance> = vec![crit.instance];
                for p in 0..params.probes {
                    probes.push(random_database(
                        &mut program,
                        &DbConfig { facts: 8, constants: 4 },
                        seed * 31 + p,
                    ));
                }
                for db in probes {
                    let run = chase(&program, ChaseVariant::Restricted, db, &params.probe_budget);
                    if run.outcome != StopReason::Saturated {
                        outcome.probe_contradictions += 1;
                    }
                }
            }
        }
    }

    let mut table = Table::new(
        "E7 / future work: restricted chase on single-head linear TGDs (exact procedure)",
        &["quantity", "value"],
    );
    table.row(&["candidates sampled", &params.samples.to_string()]);
    table.row(&["in single-head linear class", &outcome.in_class.to_string()]);
    table.row(&["restricted-terminating", &terminating.to_string()]);
    table.row(&["restricted-diverging (with witness db)", &diverging.to_string()]);
    table.row(&["witnesses unconfirmed by engine", &outcome.unconfirmed_witnesses.to_string()]);
    table.row(&[
        "termination claims contradicted by probes",
        &outcome.probe_contradictions.to_string(),
    ]);
    table.row(&["samples where plain WA differs (the future-work gap)", &wa_differs.to_string()]);
    (table, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restricted_procedure_is_validated_by_the_engine() {
        let params = Params { samples: 250, ..Default::default() };
        let (table, outcome) = run(&params);
        assert!(outcome.in_class >= 10, "population too thin: {}", outcome.in_class);
        assert_eq!(outcome.unconfirmed_witnesses, 0, "{}", table.render());
        assert_eq!(outcome.probe_contradictions, 0, "{}", table.render());
    }
}
